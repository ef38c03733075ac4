//! The peer-local ledger: hash-chained block storage plus materialized state.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use fabric_types::block::{Block, BlockRef};
use fabric_types::crypto::Hash256;
use fabric_types::msp::Msp;
use fabric_types::rwset::{Key, Version};
use fabric_types::snapshot::{Checkpoint, DeltaSnapshot, Snapshot, SnapshotRef};
use fabric_types::transaction::EndorsementPolicy;

use crate::state::{StateDb, StateReader};
use crate::validate::{validate_block, BlockValidation};

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
    /// A delta in the chain does not apply over its predecessor (base
    /// checkpoint mismatch or merged entries failing the chained hash).
    BrokenDeltaChain,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::StateHashMismatch => {
                write!(f, "snapshot entries do not hash to the checkpoint")
            }
            SnapshotError::BrokenDeltaChain => {
                write!(f, "delta snapshot does not chain to its base checkpoint")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// How a ledger emits and retains snapshot artifacts at its checkpoint
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Emit a checkpoint every this many blocks. Must be positive.
    pub every: u64,
    /// Keep the last this many full snapshots; older exports are pruned
    /// (deltas no retained full can anchor are pruned with them).
    pub retain_full: usize,
    /// Emit a [`DeltaSnapshot`] at every checkpoint, and a full snapshot
    /// only every [`Self::full_every`] checkpoints.
    pub delta: bool,
    /// Full-snapshot cadence, counted in checkpoints, when `delta` is on.
    pub full_every: u64,
}

impl SnapshotPolicy {
    /// Full snapshots at every checkpoint, keeping the last `retain_full`
    /// (the PR 8 behavior plus retention).
    pub fn full(every: u64) -> Self {
        SnapshotPolicy {
            every,
            retain_full: 2,
            delta: false,
            full_every: 1,
        }
    }

    /// Deltas at every checkpoint, fulls only every `full_every`
    /// checkpoints: retained bytes per checkpoint scale with the writes in
    /// the interval, not with total state size.
    pub fn delta(every: u64, full_every: u64) -> Self {
        SnapshotPolicy {
            every,
            retain_full: 2,
            delta: true,
            full_every,
        }
    }

    fn assert_valid(&self) {
        assert!(self.every > 0, "checkpoint interval must be positive");
        assert!(
            self.retain_full > 0,
            "must retain at least one full snapshot"
        );
        assert!(
            self.full_every > 0,
            "full-snapshot cadence must be positive"
        );
    }
}

/// What one checkpoint added to the retained snapshot artifacts: the wire
/// bytes of the full snapshot and/or delta emitted at that boundary (0 when
/// that artifact wasn't emitted there). The per-checkpoint retention curve —
/// flat for deltas, growing with state size for fulls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetentionRecord {
    /// Block height of the checkpoint.
    pub height: u64,
    /// Wire bytes of the full snapshot emitted here, if any.
    pub full_bytes: u64,
    /// Wire bytes of the delta snapshot emitted here, if any.
    pub delta_bytes: u64,
}

/// Summary of one committed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitSummary {
    /// Height of the committed block.
    pub block_num: u64,
    /// Per-transaction validation outcome.
    pub validation: BlockValidation,
}

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
    /// Snapshot emission and retention rules (`None`: never checkpoint).
    snapshot_policy: Option<SnapshotPolicy>,
    /// Retained full snapshots in height order, at most
    /// [`SnapshotPolicy::retain_full`] of them; the last is the one
    /// [`Ledger::snapshot`] serves.
    retained: Vec<SnapshotRef>,
    /// Retained delta snapshots in height order, pruned together with the
    /// fulls they anchor to.
    deltas: Vec<DeltaSnapshot>,
    /// Keys written since the last checkpoint — the next delta's payload.
    /// Only maintained under a delta policy.
    dirty: BTreeSet<Key>,
    /// Per-checkpoint retained-bytes accounting, in height order.
    retention_log: Vec<RetentionRecord>,
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
            snapshot_policy: None,
            retained: Vec::new(),
            deltas: Vec::new(),
            dirty: BTreeSet::new(),
            retention_log: Vec::new(),
            checkpoint_log: Vec::new(),
        }
    }

    /// Turns on checkpoint emission: after committing block `n` with
    /// `n % every == 0`, the ledger records a [`Checkpoint`] (state hash +
    /// height) and retains the matching [`Snapshot`] for serving, keeping
    /// the last [`SnapshotPolicy::full`]'s `retain_full` exports and
    /// pruning older ones. The work happens inside `commit` of the boundary
    /// block only — in a real deployment it would run on a background
    /// thread (cf. Solana's accounts-background-service); in the simulation
    /// it adds no events and no virtual time, so dissemination timing is
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics when `every` is zero.
    pub fn with_checkpoints(self, every: u64) -> Self {
        self.with_snapshot_policy(SnapshotPolicy::full(every))
    }

    /// Turns on checkpoint emission under an explicit [`SnapshotPolicy`]
    /// (retention depth, delta emission, full-snapshot cadence).
    ///
    /// # Panics
    ///
    /// Panics when the policy is invalid (zero interval, cadence, or
    /// retention depth).
    pub fn with_snapshot_policy(mut self, policy: SnapshotPolicy) -> Self {
        policy.assert_valid();
        self.snapshot_policy = Some(policy);
        self
    }

    /// Stands up a ledger from a snapshot: verifies the state hash, adopts
    /// the state at `checkpoint.height`, and resumes committing at
    /// `checkpoint.height + 1`. Blocks at or below the checkpoint are
    /// logically committed but not physically held ([`Ledger::block`]
    /// returns `None` for them).
    ///
    /// The resulting ledger re-serves the installed snapshot and keeps
    /// emitting its own checkpoints at the same cadence, so equivalence
    /// with a genesis-replay ledger is checkable checkpoint by checkpoint.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::StateHashMismatch`] when the entries do not hash to
    /// the advertised checkpoint.
    pub fn from_snapshot(
        msp: Arc<Msp>,
        policy: EndorsementPolicy,
        snapshot: SnapshotRef,
        checkpoint_interval: Option<u64>,
    ) -> Result<Self, SnapshotError> {
        Self::from_snapshot_with_policy(
            msp,
            policy,
            snapshot,
            checkpoint_interval.map(SnapshotPolicy::full),
        )
    }

    /// [`Self::from_snapshot`] with an explicit [`SnapshotPolicy`] for the
    /// checkpoints the new ledger will emit itself.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::StateHashMismatch`] when the entries do not hash to
    /// the advertised checkpoint.
    pub fn from_snapshot_with_policy(
        msp: Arc<Msp>,
        policy: EndorsementPolicy,
        snapshot: SnapshotRef,
        snapshot_policy: Option<SnapshotPolicy>,
    ) -> Result<Self, SnapshotError> {
        if let Some(p) = &snapshot_policy {
            p.assert_valid();
        }
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
            snapshot_policy,
            deltas: Vec::new(),
            dirty: BTreeSet::new(),
            retention_log: Vec::new(),
            checkpoint_log: vec![snapshot.checkpoint],
            retained: vec![snapshot],
        })
    }

    /// Stands up a ledger from a full snapshot plus a chain of deltas: each
    /// delta is applied over its predecessor with its chain link verified,
    /// and the resulting full state seeds the ledger exactly as
    /// [`Self::from_snapshot`] would — a delta-chain bootstrap lands on a
    /// state byte-identical to a full-snapshot bootstrap at the same
    /// height (proptested in `tests/delta_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::BrokenDeltaChain`] when a delta's base checkpoint
    /// doesn't match its predecessor or the merged entries fail the chained
    /// hash; [`SnapshotError::StateHashMismatch`] when the base itself is
    /// corrupt.
    pub fn from_delta_chain(
        msp: Arc<Msp>,
        policy: EndorsementPolicy,
        base: SnapshotRef,
        deltas: &[DeltaSnapshot],
        snapshot_policy: Option<SnapshotPolicy>,
    ) -> Result<Self, SnapshotError> {
        if !base.verify() {
            return Err(SnapshotError::StateHashMismatch);
        }
        let mut current = (*base).clone();
        for delta in deltas {
            current = delta
                .apply_to(&current)
                .ok_or(SnapshotError::BrokenDeltaChain)?;
        }
        Self::from_snapshot_with_policy(msp, policy, SnapshotRef::new(current), snapshot_policy)
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

    /// The latest checkpoint emitted or installed, if any.
    pub fn latest_checkpoint(&self) -> Option<Checkpoint> {
        self.checkpoint_log.last().copied()
    }

    /// Every checkpoint this ledger has emitted or installed, in height
    /// order — byte-identical across a genesis-replay ledger and a
    /// snapshot-bootstrapped one for all common heights (the equivalence
    /// contract).
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoint_log
    }

    /// The latest full snapshot, ready to serve (a reference-count bump,
    /// never a state copy). `None` until the first checkpoint boundary.
    pub fn snapshot(&self) -> Option<SnapshotRef> {
        self.retained.last().cloned()
    }

    /// Every retained full snapshot in height order (at most
    /// [`SnapshotPolicy::retain_full`]; older exports are pruned).
    pub fn retained_snapshots(&self) -> &[SnapshotRef] {
        &self.retained
    }

    /// Retained delta snapshots in height order. Under a delta policy these
    /// chain from a retained full up to the latest checkpoint; pruned
    /// together with the fulls that anchor them.
    pub fn retained_deltas(&self) -> &[DeltaSnapshot] {
        &self.deltas
    }

    /// Per-checkpoint retained-bytes accounting: what each boundary added
    /// in full-snapshot and delta bytes. Flat under a delta policy, growing
    /// with state size under a full policy — the curve the `long_chain`
    /// sweep records.
    pub fn retention_log(&self) -> &[RetentionRecord] {
        &self.retention_log
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
    pub fn commit(&mut self, block: BlockRef) -> Result<CommitSummary, CommitError> {
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
            if flag.is_valid() {
                let version = Version::new(block.number(), tx_num as u32);
                if self.snapshot_policy.is_some_and(|p| p.delta) {
                    for w in &tx.rwset.writes {
                        self.dirty.insert(w.key.clone());
                    }
                }
                self.state.apply(version, &tx.rwset.writes);
                self.stats.valid_txs += 1;
            } else {
                match flag {
                    crate::validate::TxValidation::MvccConflict => self.stats.mvcc_conflicts += 1,
                    crate::validate::TxValidation::EndorsementFailure => {
                        self.stats.endorsement_failures += 1
                    }
                    crate::validate::TxValidation::Valid => unreachable!(),
                }
            }
        }
        let block_num = block.number();
        self.blocks.push(block);
        if let Some(policy) = self.snapshot_policy {
            if block_num > 0 && block_num.is_multiple_of(policy.every) {
                self.emit_checkpoint(block_num, policy);
            }
        }
        Ok(CommitSummary {
            block_num,
            validation,
        })
    }

    /// Records the checkpoint for the just-committed `height` and retains
    /// its snapshot artifacts per the policy: under a delta policy a
    /// [`DeltaSnapshot`] of the keys written since the previous checkpoint,
    /// plus a full snapshot at the `full_every` cadence (and always when
    /// there is no prior checkpoint to chain a delta from); under a full
    /// policy a full snapshot at every boundary. Fulls beyond `retain_full`
    /// are pruned, along with the deltas that chained below the oldest
    /// surviving full. The checkpoint log keeps every fingerprint.
    fn emit_checkpoint(&mut self, height: u64, policy: SnapshotPolicy) {
        let checkpoint = Checkpoint {
            height,
            state_hash: self.state.state_hash(),
        };
        let prev = self.checkpoint_log.last().copied();
        self.checkpoint_log.push(checkpoint);
        let mut record = RetentionRecord {
            height,
            full_bytes: 0,
            delta_bytes: 0,
        };
        if policy.delta {
            if let Some(base) = prev {
                let entries: Vec<_> = self
                    .dirty
                    .iter()
                    .filter_map(|k| {
                        let (v, ver) = self.state.get(k)?;
                        Some((k.clone(), v.clone(), ver))
                    })
                    .collect();
                let delta = DeltaSnapshot {
                    base,
                    checkpoint,
                    last_block_hash: self.latest_hash(),
                    entries,
                };
                record.delta_bytes = delta.wire_size() as u64;
                self.deltas.push(delta);
            }
            self.dirty.clear();
        }
        // The height-based full cadence keeps genesis-replay and
        // snapshot-seeded ledgers agreeing on which boundaries carry fulls.
        let full_due = !policy.delta
            || prev.is_none()
            || (height / policy.every).is_multiple_of(policy.full_every);
        if full_due {
            let snapshot = SnapshotRef::new(Snapshot {
                checkpoint,
                last_block_hash: self.latest_hash(),
                entries: self.state.export_entries(),
            });
            record.full_bytes = snapshot.wire_size() as u64;
            self.retained.push(snapshot);
            if self.retained.len() > policy.retain_full {
                self.retained.remove(0);
                let floor = self.retained[0].checkpoint.height;
                self.deltas.retain(|d| d.base.height >= floor);
            }
        }
        self.retention_log.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::ids::{ClientId, PeerId, TxId};
    use fabric_types::rwset::RwSet;
    use fabric_types::transaction::Transaction;

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
        let summary = led.commit(block).unwrap();
        assert_eq!(summary.block_num, 1);
        assert_eq!(summary.validation.valid_count(), 1);
        assert_eq!(led.height(), 2);
        assert_eq!(led.state().counter_sum(), Some(1));
        assert_eq!(led.stats().valid_txs, 1);
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
        let summary = led.commit(block).unwrap();
        assert_eq!(summary.validation.mvcc_conflicts(), 1);
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
        let summary = led.commit(b2).unwrap();
        assert_eq!(summary.validation.mvcc_conflicts(), 1);
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
        let mut led = ledger().with_checkpoints(4);
        assert!(led.latest_checkpoint().is_none());
        grow(&mut led, 1, 3);
        assert!(led.latest_checkpoint().is_none(), "below the boundary");
        grow(&mut led, 4, 4);
        let cp = led.latest_checkpoint().unwrap();
        assert_eq!(cp.height, 4);
        assert_eq!(cp.state_hash, led.state().state_hash());
        grow(&mut led, 5, 9);
        assert_eq!(led.latest_checkpoint().unwrap().height, 8);
        assert_eq!(
            led.checkpoints()
                .iter()
                .map(|c| c.height)
                .collect::<Vec<_>>(),
            vec![4, 8]
        );
        let snap = led.snapshot().unwrap();
        assert_eq!(snap.checkpoint.height, 8);
        assert!(snap.verify());
        // Serving is a pointer bump, not a state copy.
        let again = led.snapshot().unwrap();
        assert!(fabric_types::snapshot::SnapshotRef::ptr_eq(&snap, &again));
    }

    /// Commits one uniquely-keyed write per block, so state size grows
    /// with height (the retention-curve shape the churn workload has).
    fn grow_unique(led: &mut Ledger, from: u64, to: u64) {
        for n in from..=to {
            let key = format!("k{n:03}");
            let tx = endorsed_increment(led, n, &key, None, n);
            let block = BlockRef::new(Block::new(n, led.latest_hash(), vec![tx]));
            led.commit(block).unwrap();
        }
    }

    #[test]
    fn retention_keeps_the_last_two_fulls_and_prunes_older_exports() {
        let mut led = ledger().with_checkpoints(2);
        grow_unique(&mut led, 1, 8);
        assert_eq!(
            led.retained_snapshots()
                .iter()
                .map(|s| s.checkpoint.height)
                .collect::<Vec<_>>(),
            vec![6, 8],
            "only the last retain_full=2 exports survive"
        );
        assert_eq!(led.snapshot().unwrap().checkpoint.height, 8);
        assert_eq!(
            led.checkpoints().len(),
            4,
            "the fingerprint log keeps every checkpoint"
        );
        let log = led.retention_log();
        assert_eq!(log.len(), 4);
        assert!(
            log.windows(2).all(|w| w[0].full_bytes < w[1].full_bytes),
            "full-snapshot bytes grow with state size"
        );
        assert!(log.iter().all(|r| r.delta_bytes == 0));
    }

    #[test]
    fn delta_policy_keeps_per_checkpoint_bytes_flat_and_chains_to_fulls() {
        let mut led = ledger().with_snapshot_policy(SnapshotPolicy::delta(2, 2));
        grow_unique(&mut led, 1, 12);
        // Checkpoints at 2..=12; fulls land at the full_every cadence (4, 8,
        // 12) plus the forced first boundary, and retention keeps the last 2.
        assert_eq!(
            led.retained_snapshots()
                .iter()
                .map(|s| s.checkpoint.height)
                .collect::<Vec<_>>(),
            vec![8, 12]
        );
        assert_eq!(
            led.retained_deltas()
                .iter()
                .map(|d| (d.base.height, d.checkpoint.height))
                .collect::<Vec<_>>(),
            vec![(8, 10), (10, 12)],
            "deltas below the oldest surviving full are pruned with it"
        );
        let log = led.retention_log();
        let delta_bytes: Vec<u64> = log
            .iter()
            .map(|r| r.delta_bytes)
            .filter(|b| *b > 0)
            .collect();
        assert_eq!(
            delta_bytes.len(),
            5,
            "one delta per boundary after the first"
        );
        assert!(
            delta_bytes.windows(2).all(|w| w[0] == w[1]),
            "steady write rate keeps the delta curve flat"
        );
        let full_bytes: Vec<u64> = log
            .iter()
            .map(|r| r.full_bytes)
            .filter(|b| *b > 0)
            .collect();
        assert!(
            full_bytes.windows(2).all(|w| w[0] < w[1]),
            "the full curve keeps growing with state size"
        );

        // Delta-chain bootstrap from the oldest retained full lands on the
        // exact state a full-snapshot bootstrap would.
        let base = led.retained_snapshots()[0].clone();
        let joiner = Ledger::from_delta_chain(
            Arc::new(Msp::single_org(3)),
            EndorsementPolicy::AnyMember,
            base.clone(),
            led.retained_deltas(),
            None,
        )
        .unwrap();
        assert_eq!(joiner.base_height(), 13);
        assert_eq!(joiner.state().state_hash(), led.state().state_hash());
        assert_eq!(joiner.latest_hash(), led.latest_hash());

        // A tampered delta breaks the chain link.
        let mut forged = led.retained_deltas().to_vec();
        forged[0].entries[0].1 = fabric_types::rwset::Value::from_u64(777);
        assert_eq!(
            Ledger::from_delta_chain(
                Arc::new(Msp::single_org(3)),
                EndorsementPolicy::AnyMember,
                base,
                &forged,
                None,
            )
            .err(),
            Some(SnapshotError::BrokenDeltaChain)
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
            Some(5),
        )
        .unwrap();
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
            None,
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
                None,
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
