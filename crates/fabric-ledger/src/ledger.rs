//! The peer-local ledger: hash-chained block storage plus materialized state.

use std::fmt;
use std::sync::Arc;

use fabric_types::block::{Block, BlockRef};
use fabric_types::crypto::Hash256;
use fabric_types::msp::Msp;
use fabric_types::rwset::Version;
use fabric_types::snapshot::{Checkpoint, Snapshot, SnapshotRef};
use fabric_types::transaction::EndorsementPolicy;

use crate::state::StateDb;
use crate::validate::{validate_block, TxValidation};

/// Why a block was rejected at commit time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitError {
    /// The block's number is not the next height.
    NotNext {
        /// The height the ledger expected.
        expected: u64,
        /// The height the block carries.
        got: u64,
    },
    /// The block's previous-hash link does not match the chain tip.
    BrokenLink,
    /// The block's data hash does not match its transactions.
    DataTampered,
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::NotNext { expected, got } => {
                write!(
                    f,
                    "block {got} is not the next height (expected {expected})"
                )
            }
            CommitError::BrokenLink => write!(f, "previous-hash link does not match chain tip"),
            CommitError::DataTampered => write!(f, "data hash does not match transactions"),
        }
    }
}

impl std::error::Error for CommitError {}

/// Why a snapshot was rejected at installation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The entries do not hash to the advertised checkpoint.
    StateHashMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::StateHashMismatch => {
                write!(f, "snapshot entries do not hash to the checkpoint")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Cumulative validation statistics across all committed blocks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Transactions whose writes were applied.
    pub valid_txs: u64,
    /// Transactions invalidated by an MVCC (validation-time) conflict.
    pub mvcc_conflicts: u64,
    /// Transactions invalidated by an endorsement-policy failure.
    pub endorsement_failures: u64,
}

impl LedgerStats {
    /// Total invalidated transactions.
    pub fn invalid_txs(&self) -> u64 {
        self.mvcc_conflicts + self.endorsement_failures
    }
}

/// A peer's copy of the blockchain and its world state.
///
/// Blocks must be committed in height order; out-of-order delivery is the
/// gossip layer's problem (its payload buffer reorders). The genesis block
/// is implicit: a fresh ledger has height 1 in the sense that block number 1
/// is the next expected block, with the genesis block pre-committed.
///
/// ```
/// use std::sync::Arc;
/// use fabric_ledger::ledger::Ledger;
/// use fabric_types::block::Block;
/// use fabric_types::msp::Msp;
/// use fabric_types::transaction::EndorsementPolicy;
///
/// let mut ledger = Ledger::new(Arc::new(Msp::single_org(3)), EndorsementPolicy::AnyMember);
/// let next = Block::new(1, ledger.latest_hash(), vec![]);
/// ledger.commit(next.into()).unwrap();
/// assert_eq!(ledger.height(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Ledger {
    msp: Arc<Msp>,
    policy: EndorsementPolicy,
    /// Physically held blocks: the whole chain for a genesis ledger, only
    /// the tail above `base - 1` for a snapshot-seeded one.
    blocks: Vec<BlockRef>,
    /// Number of blocks below `blocks[0]` that were absorbed through a
    /// snapshot (0 for a genesis ledger). `height() = base + blocks.len()`.
    base: u64,
    /// Header hash of block `base - 1`, the link `blocks[0]` must match
    /// when the physical prefix is empty. Unused for genesis ledgers.
    base_hash: Hash256,
    state: StateDb,
    stats: LedgerStats,
    /// Checkpoint interval in blocks (`None`: never checkpoint).
    checkpoint_every: Option<u64>,
    /// The export taken at the newest checkpoint, the one
    /// [`Ledger::snapshot`] serves.
    snapshot: Option<SnapshotRef>,
    /// Every checkpoint emitted by this ledger, in height order — the
    /// cross-run equivalence trail (40 bytes each, so keeping all is
    /// cheap).
    checkpoint_log: Vec<Checkpoint>,
}

impl Ledger {
    /// Creates a ledger holding only the genesis block.
    pub fn new(msp: Arc<Msp>, policy: EndorsementPolicy) -> Self {
        Ledger {
            msp,
            policy,
            blocks: vec![BlockRef::new(Block::genesis())],
            base: 0,
            base_hash: Hash256::ZERO,
            state: StateDb::new(),
            stats: LedgerStats::default(),
            checkpoint_every: None,
            snapshot: None,
            checkpoint_log: Vec::new(),
        }
    }

    /// Turns on checkpoint emission: after committing block `n` with
    /// `n % every == 0`, the ledger records a [`Checkpoint`] (state hash +
    /// height) and exports the matching [`Snapshot`] for serving in place
    /// of the previous export: every checkpoint is the snapshot served
    /// until the next one. The work happens inside `commit` of the
    /// boundary block only — in a real deployment it would run on a background
    /// thread (cf. Solana's accounts-background-service); in the simulation
    /// it adds no events and no virtual time, so dissemination timing is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics when `every` is zero.
    pub fn with_checkpoints(mut self, every: u64) -> Self {
        assert!(every > 0, "checkpoint interval must be positive");
        self.checkpoint_every = Some(every);
        self
    }

    /// Stands up a ledger from a snapshot: checks the handle's sealed
    /// [`SnapshotRef::verify`] verdict (hashing the state only when no
    /// clone of it was verified yet), adopts the state at
    /// `checkpoint.height`, and resumes committing at
    /// `checkpoint.height + 1`. Blocks at or below the checkpoint are
    /// logically committed but not physically held ([`Ledger::block`]
    /// returns `None` for them).
    ///
    /// The resulting ledger re-serves the installed snapshot and never
    /// checkpoints; chained with [`Ledger::with_checkpoints`] it keeps
    /// emitting its own checkpoints, so equivalence with a genesis-replay
    /// ledger is checkable checkpoint by checkpoint.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::StateHashMismatch`] when the entries do not hash to
    /// the advertised checkpoint.
    pub fn from_snapshot(
        msp: Arc<Msp>,
        policy: EndorsementPolicy,
        snapshot: SnapshotRef,
    ) -> Result<Self, SnapshotError> {
        if !snapshot.verify() {
            return Err(SnapshotError::StateHashMismatch);
        }
        Ok(Ledger {
            msp,
            policy,
            blocks: Vec::new(),
            base: snapshot.checkpoint.height + 1,
            base_hash: snapshot.last_block_hash,
            state: StateDb::from_entries(snapshot.entries.clone()),
            stats: LedgerStats::default(),
            checkpoint_every: None,
            checkpoint_log: vec![snapshot.checkpoint],
            snapshot: Some(snapshot),
        })
    }

    /// Chain height: number of blocks committed, genesis included.
    pub fn height(&self) -> u64 {
        self.base + self.blocks.len() as u64
    }

    /// Number of blocks absorbed through a snapshot instead of replay
    /// (0 for a genesis ledger).
    pub fn base_height(&self) -> u64 {
        self.base
    }

    /// Hash of the chain tip — the header hash sealed in the tip's
    /// [`BlockRef`], not a re-hash.
    pub fn latest_hash(&self) -> Hash256 {
        self.blocks
            .last()
            .map(|b| b.hash())
            .unwrap_or(self.base_hash)
    }

    /// The block at height `number`, if committed **and physically held**
    /// (snapshot-absorbed blocks are not).
    pub fn block(&self, number: u64) -> Option<&BlockRef> {
        let at = number.checked_sub(self.base)?;
        self.blocks.get(at as usize)
    }

    /// Whether the block at height `number` is committed (snapshot-absorbed
    /// blocks count: their writes are in the state).
    pub fn contains(&self, number: u64) -> bool {
        number < self.height()
    }

    /// All physically held blocks in height order (the whole chain for a
    /// genesis ledger, the post-snapshot tail otherwise).
    pub fn blocks(&self) -> &[BlockRef] {
        &self.blocks
    }

    /// Every checkpoint this ledger has emitted or installed, in height
    /// order — byte-identical across a genesis-replay ledger and a
    /// snapshot-bootstrapped one for all common heights (the equivalence
    /// contract).
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoint_log
    }

    /// The export taken at the newest checkpoint emitted or installed,
    /// ready to serve (a reference-count bump, never a state copy). `None`
    /// until the first checkpoint boundary.
    pub fn snapshot(&self) -> Option<SnapshotRef> {
        self.snapshot.clone()
    }

    /// The materialized world state.
    pub fn state(&self) -> &StateDb {
        &self.state
    }

    /// Cumulative validation statistics.
    pub fn stats(&self) -> LedgerStats {
        self.stats
    }

    /// Validates and commits the next block: checks chain linkage and data
    /// integrity, runs endorsement-policy and MVCC validation, applies the
    /// writes of valid transactions. Linkage and integrity read the hash
    /// and verdict sealed in the [`BlockRef`]s (one SHA-256 pass per
    /// distinct block, shared by every peer's ledger), so the host-side
    /// cost of a commit is validation and the state writes.
    ///
    /// # Errors
    ///
    /// Returns a [`CommitError`] without mutating anything when the block is
    /// not the next height, does not link to the tip, or is corrupted.
    pub fn commit(&mut self, block: BlockRef) -> Result<(), CommitError> {
        let expected = self.height();
        if block.number() != expected {
            return Err(CommitError::NotNext {
                expected,
                got: block.number(),
            });
        }
        if block.header.prev_hash != self.latest_hash() {
            return Err(CommitError::BrokenLink);
        }
        if !block.data_intact() {
            return Err(CommitError::DataTampered);
        }
        let validation = validate_block(&self.msp, &self.policy, &block, &self.state);
        for (tx_num, (tx, flag)) in block.txs.iter().zip(validation.flags.iter()).enumerate() {
            match flag {
                TxValidation::Valid => {
                    let version = Version::new(block.number(), tx_num as u32);
                    self.state.apply(version, &tx.rwset.writes);
                    self.stats.valid_txs += 1;
                }
                TxValidation::MvccConflict => self.stats.mvcc_conflicts += 1,
                TxValidation::EndorsementFailure => self.stats.endorsement_failures += 1,
            }
        }
        let block_num = block.number();
        self.blocks.push(block);
        if self
            .checkpoint_every
            .is_some_and(|every| block_num > 0 && block_num.is_multiple_of(every))
        {
            self.emit_checkpoint(block_num);
        }
        Ok(())
    }

    /// Records the checkpoint for the just-committed `height` and replaces
    /// the served snapshot with the export taken here. The checkpoint log
    /// keeps every fingerprint.
    fn emit_checkpoint(&mut self, height: u64) {
        let checkpoint = Checkpoint {
            height,
            state_hash: self.state.state_hash(),
        };
        self.checkpoint_log.push(checkpoint);
        self.snapshot = Some(SnapshotRef::new(Snapshot {
            checkpoint,
            last_block_hash: self.latest_hash(),
            entries: self.state.export_entries(),
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::ids::{ClientId, PeerId, TxId};
    use fabric_types::rwset::{RwSet, Value};
    use fabric_types::transaction::Transaction;

    /// Whether `bytes` lie inside `holder` itself rather than on the heap:
    /// how a `held_once_` pin tells an inline key or value from a shared one.
    fn held_inline<T>(holder: &T, bytes: &[u8]) -> bool {
        let start = holder as *const T as usize;
        (start..start + std::mem::size_of::<T>()).contains(&(bytes.as_ptr() as usize))
    }

    fn ledger() -> Ledger {
        Ledger::new(Arc::new(Msp::single_org(3)), EndorsementPolicy::AnyMember)
    }

    fn endorsed_increment(
        led: &Ledger,
        id: u64,
        key: &str,
        read_version: Option<fabric_types::rwset::Version>,
        value: u64,
    ) -> Transaction {
        let rwset = RwSet::builder()
            .read(key, read_version)
            .write_u64(key, value)
            .build();
        let mut tx = Transaction::new(TxId(id), "increment", ClientId(0), rwset);
        tx.endorse(&led.msp, PeerId(0));
        tx
    }

    #[test]
    fn fresh_ledger_has_genesis() {
        let led = ledger();
        assert_eq!(led.height(), 1);
        assert!(led.contains(0));
        assert!(!led.contains(1));
        assert_eq!(led.block(0).unwrap().number(), 0);
    }

    #[test]
    fn commit_applies_valid_writes_and_advances_state() {
        let mut led = ledger();
        let tx = endorsed_increment(&led, 1, "k", None, 1);
        let block = BlockRef::new(Block::new(1, led.latest_hash(), vec![tx]));
        led.commit(block).unwrap();
        assert_eq!(led.height(), 2);
        assert_eq!(led.state().counter_sum(), Some(1));
        assert_eq!(led.stats().valid_txs, 1);
    }

    /// The world state holds a committed write's key and value inline
    /// when they fit in 15 bytes, and by reference when they do not: the
    /// block and the state then share one copy, and so do a snapshot
    /// export and the state rebuilt from it.
    #[test]
    fn held_once_state_shares_the_committed_write() {
        let mut led = ledger();
        let short = endorsed_increment(&led, 1, "k", None, 1);
        let rwset = RwSet::builder()
            .write("a key past sixteen bytes", Value::from_bytes(&[7; 32]))
            .build();
        let mut long = Transaction::new(TxId(2), "blob", ClientId(0), rwset);
        long.endorse(&led.msp, PeerId(0));
        let block = BlockRef::new(Block::new(1, led.latest_hash(), vec![short, long]));
        let write = block.txs[1].rwset.writes[0].clone();
        led.commit(block).unwrap();
        let holds = |state: &StateDb| {
            let entries: Vec<_> = state.iter().collect();
            let [(long_key, long_value, _), (key, value, _)] = entries[..] else {
                panic!("two keys committed");
            };
            assert!(held_inline(key, key.as_bytes()));
            assert!(held_inline(value, value.as_bytes()));
            assert_eq!(long_key.as_bytes().as_ptr(), write.key.as_bytes().as_ptr());
            assert_eq!(
                long_value.as_bytes().as_ptr(),
                write.value.as_bytes().as_ptr()
            );
        };
        holds(led.state());
        holds(&StateDb::from_entries(led.state().export_entries()));
    }

    #[test]
    fn commit_rejects_wrong_height() {
        let mut led = ledger();
        let block = BlockRef::new(Block::new(5, led.latest_hash(), vec![]));
        assert_eq!(
            led.commit(block),
            Err(CommitError::NotNext {
                expected: 1,
                got: 5
            })
        );
        assert_eq!(led.height(), 1);
    }

    #[test]
    fn commit_rejects_broken_link() {
        let mut led = ledger();
        let block = BlockRef::new(Block::new(1, Hash256([9; 32]), vec![]));
        assert_eq!(led.commit(block), Err(CommitError::BrokenLink));
    }

    #[test]
    fn commit_rejects_tampered_data() {
        let mut led = ledger();
        let tx = endorsed_increment(&led, 1, "k", None, 1);
        let mut block = Block::new(1, led.latest_hash(), vec![]);
        block.txs.push(tx); // bypasses data_hash computation
        assert_eq!(
            led.commit(BlockRef::new(block)),
            Err(CommitError::DataTampered)
        );
    }

    #[test]
    fn conflicting_tx_counts_as_mvcc_conflict() {
        let mut led = ledger();
        let tx1 = endorsed_increment(&led, 1, "k", None, 1);
        let tx2 = endorsed_increment(&led, 2, "k", None, 1); // same base read
        let block = BlockRef::new(Block::new(1, led.latest_hash(), vec![tx1, tx2]));
        led.commit(block).unwrap();
        assert_eq!(led.stats().mvcc_conflicts, 1);
        assert_eq!(led.state().counter_sum(), Some(1));
    }

    #[test]
    fn stale_read_across_blocks_conflicts() {
        let mut led = ledger();
        let tx1 = endorsed_increment(&led, 1, "k", None, 1);
        let b1 = BlockRef::new(Block::new(1, led.latest_hash(), vec![tx1]));
        led.commit(b1).unwrap();
        // Endorsed before block 1 committed: still reads version None.
        let tx2 = endorsed_increment(&led, 2, "k", None, 1);
        let b2 = BlockRef::new(Block::new(2, led.latest_hash(), vec![tx2]));
        led.commit(b2).unwrap();
        assert_eq!(led.stats().mvcc_conflicts, 1);
        assert_eq!(led.stats().invalid_txs(), 1);
    }

    fn grow(led: &mut Ledger, from: u64, to: u64) {
        for n in from..=to {
            let tx = endorsed_increment(led, n, "k", led.state().get_version(&"k".into()), n);
            let block = BlockRef::new(Block::new(n, led.latest_hash(), vec![tx]));
            led.commit(block).unwrap();
        }
    }

    #[test]
    fn checkpoints_fire_on_interval_boundaries_only() {
        let served = |led: &Ledger| led.snapshot().map(|s| s.checkpoint);
        let mut led = ledger().with_checkpoints(4);
        assert!(served(&led).is_none());
        grow(&mut led, 1, 3);
        assert!(served(&led).is_none(), "below the boundary");
        grow(&mut led, 4, 4);
        let cp = served(&led).unwrap();
        assert_eq!(cp.height, 4);
        assert_eq!(cp.state_hash, led.state().state_hash());
        grow(&mut led, 5, 9);
        assert_eq!(served(&led).unwrap().height, 8);
        assert_eq!(
            led.checkpoints()
                .iter()
                .map(|c| c.height)
                .collect::<Vec<_>>(),
            vec![4, 8]
        );
        let snap = led.snapshot().unwrap();
        assert!(snap.verify());
        // Serving is a pointer bump, not a state copy.
        let again = led.snapshot().unwrap();
        assert!(fabric_types::snapshot::SnapshotRef::ptr_eq(&snap, &again));
    }

    /// Commits one uniquely-keyed write per block, so state size grows
    /// with height (the export-size shape the churn workload has).
    fn grow_unique(led: &mut Ledger, from: u64, to: u64) {
        for n in from..=to {
            let key = format!("k{n:03}");
            let tx = endorsed_increment(led, n, &key, None, n);
            let block = BlockRef::new(Block::new(n, led.latest_hash(), vec![tx]));
            led.commit(block).unwrap();
        }
    }

    #[test]
    fn each_full_export_replaces_the_served_one() {
        let mut led = ledger().with_checkpoints(2);
        let mut served = Vec::new();
        let mut exports = Vec::new();
        for n in 1..=9 {
            grow_unique(&mut led, n, n);
            assert_eq!(
                led.snapshot().map(|s| s.checkpoint).as_ref(),
                led.checkpoints().last(),
                "the served export is the newest checkpoint"
            );
            if let Some(snap) = led.snapshot() {
                assert!(snap.verify());
                served.push(snap.checkpoint.height);
                if snap.checkpoint.height == n {
                    exports.push(snap);
                }
            }
        }
        assert_eq!(served, vec![2, 2, 4, 4, 6, 6, 8, 8]);
        assert!(
            exports.iter().map(|s| &s.checkpoint).eq(led.checkpoints()),
            "one export per checkpoint"
        );
        assert!(
            exports
                .windows(2)
                .all(|w| 0 < w[0].wire_size() && w[0].wire_size() < w[1].wire_size()),
            "exports grow with state size"
        );
    }

    #[test]
    fn snapshot_bootstrap_replays_tail_to_identical_state() {
        let mut full = ledger().with_checkpoints(5);
        grow(&mut full, 1, 12);
        let snap = full.snapshot().unwrap();
        assert_eq!(snap.checkpoint.height, 10);

        let mut joiner = Ledger::from_snapshot(
            Arc::new(Msp::single_org(3)),
            EndorsementPolicy::AnyMember,
            snap,
        )
        .unwrap()
        .with_checkpoints(5);
        assert_eq!(joiner.height(), 11, "resumes above the checkpoint");
        assert_eq!(joiner.base_height(), 11);
        assert!(joiner.contains(10), "absorbed blocks count as committed");
        assert!(joiner.block(10).is_none(), "but are not physically held");

        // Replay only the tail: blocks 11 and 12 from the full ledger.
        for n in 11..=12 {
            joiner.commit(full.block(n).unwrap().clone()).unwrap();
        }
        assert_eq!(joiner.height(), full.height());
        assert_eq!(joiner.latest_hash(), full.latest_hash());
        assert_eq!(joiner.state().state_hash(), full.state().state_hash());
        assert_eq!(joiner.state().counter_sum(), full.state().counter_sum());
        assert_eq!(joiner.blocks().len(), 2, "O(tail), not O(chain)");
    }

    #[test]
    fn snapshot_ledger_rejects_wrong_tail() {
        let mut full = ledger().with_checkpoints(4);
        grow(&mut full, 1, 6);
        let snap = full.snapshot().unwrap();
        let mut joiner = Ledger::from_snapshot(
            Arc::new(Msp::single_org(3)),
            EndorsementPolicy::AnyMember,
            snap,
        )
        .unwrap();
        // Wrong height and broken link are both caught above the snapshot.
        assert!(matches!(
            joiner.commit(full.block(6).unwrap().clone()),
            Err(CommitError::NotNext {
                expected: 5,
                got: 6
            })
        ));
        let forged = BlockRef::new(Block::new(5, Hash256([9; 32]), vec![]));
        assert_eq!(joiner.commit(forged), Err(CommitError::BrokenLink));
        // The genuine block 5 links to the snapshot's tip hash.
        joiner.commit(full.block(5).unwrap().clone()).unwrap();
        assert_eq!(joiner.height(), 6);
    }

    #[test]
    fn tampered_snapshot_is_rejected() {
        let mut full = ledger().with_checkpoints(2);
        grow(&mut full, 1, 2);
        let snap = full.snapshot().unwrap();
        let mut forged = (*snap).clone();
        forged.entries[0].1 = fabric_types::rwset::Value::from_u64(1_000_000);
        assert_eq!(
            Ledger::from_snapshot(
                Arc::new(Msp::single_org(3)),
                EndorsementPolicy::AnyMember,
                forged.into(),
            )
            .err(),
            Some(SnapshotError::StateHashMismatch)
        );
    }

    #[test]
    fn chain_of_commits_preserves_linkage() {
        let mut led = ledger();
        for n in 1..=20 {
            let tx = endorsed_increment(&led, n, "k", led.state().get_version(&"k".into()), n);
            let block = BlockRef::new(Block::new(n, led.latest_hash(), vec![tx]));
            led.commit(block).unwrap();
        }
        assert_eq!(led.height(), 21);
        assert_eq!(fabric_types::block::verify_chain(led.blocks()), Ok(()));
        assert_eq!(led.stats().valid_txs, 20);
        assert_eq!(led.state().counter_sum(), Some(20));
    }
}
