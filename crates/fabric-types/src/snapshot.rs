//! Ledger checkpoints and state snapshots.
//!
//! A **checkpoint** is the deterministic fingerprint of a ledger prefix:
//! the height of its last block plus a hash over the entire materialized
//! state at that height. A **snapshot** is the transferable artifact behind
//! a checkpoint — the full key/value/version state plus the chain-tip hash,
//! enough for a joiner to reconstruct a ledger at `height` and replay only
//! the tail above it instead of the whole chain.
//!
//! The determinism contract: two ledgers that committed the same blocks in
//! the same order hold byte-identical state, so [`hash_state_entries`] over
//! their key-ordered entries yields the same [`Hash256`]. A
//! snapshot-bootstrapped ledger that replays the tail therefore ends at the
//! exact state hash of a genesis-replay ledger — this is proptested in
//! `fabric-ledger`.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use crate::crypto::{Hash256, Sha256};
use crate::rwset::{Key, Value, Version};

/// One key of the snapshotted state: the key, its latest value, and the
/// `(block, tx)` coordinate of the write that produced it.
pub type StateEntry = (Key, Value, Version);

/// The fingerprint of a ledger prefix: its height and the hash of the
/// materialized state after committing block `height`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Number of the last block covered by this checkpoint.
    pub height: u64,
    /// [`hash_state_entries`] over the state at `height`.
    pub state_hash: Hash256,
}

impl Checkpoint {
    /// Wire bytes of one checkpoint (height + state hash).
    pub const WIRE: usize = 8 + 32;
}

/// The transferable state behind a [`Checkpoint`]: everything a joiner
/// needs to stand up a ledger at `checkpoint.height` and resume committing
/// at `checkpoint.height + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The checkpoint this snapshot materializes.
    pub checkpoint: Checkpoint,
    /// Header hash of block `checkpoint.height` — the link the first tail
    /// block must match.
    pub last_block_hash: Hash256,
    /// The complete state in key order.
    pub entries: Vec<StateEntry>,
}

impl Snapshot {
    /// Whether the entries hash to the advertised checkpoint — a receiver
    /// must reject a snapshot that fails this before seeding a ledger.
    pub fn verify(&self) -> bool {
        hash_state_entries(self.entries.iter().map(|(k, v, ver)| (k, v, *ver)))
            == self.checkpoint.state_hash
    }

    /// Size of the snapshot on the wire: checkpoint, tip hash, framing,
    /// and a length-prefixed key/value/version triple per entry.
    pub fn wire_size(&self) -> usize {
        const FRAMING: usize = 16;
        const PER_ENTRY: usize = 8 + 8 + 12; // two length prefixes + version
        Checkpoint::WIRE
            + 32
            + FRAMING
            + self
                .entries
                .iter()
                .map(|(k, v, _)| k.wire_size() + v.wire_size() + PER_ENTRY)
                .sum::<usize>()
    }
}

/// Shared, zero-copy handle to an immutable snapshot — the same idiom as
/// [`crate::block::BlockRef`]: serving a snapshot to N joiners clones a
/// reference count, never the state, and the wire size is cached at
/// construction.
///
/// The handle also seals the verdict of [`Snapshot::verify`], as a
/// `BlockRef` seals its data hash, but lazily: the first
/// [`SnapshotRef::verify`] on any clone hashes the state and every later
/// one reads the verdict, so a joiner that checks an assembled snapshot
/// and then installs it hashes the state once, and a ledger's own export,
/// which nobody verifies, never pays for it.
#[derive(Debug, Clone)]
pub struct SnapshotRef(Arc<Sealed>);

/// A snapshot together with the facts derived from its immutable content.
#[derive(Debug)]
struct Sealed {
    snapshot: Snapshot,
    wire_size: usize,
    verified: OnceLock<bool>,
}

impl SnapshotRef {
    /// Wraps `snapshot` in a shared handle, precomputing its wire size.
    pub fn new(snapshot: Snapshot) -> Self {
        SnapshotRef(Arc::new(Sealed {
            wire_size: snapshot.wire_size(),
            verified: OnceLock::new(),
            snapshot,
        }))
    }

    /// Cached size of the snapshot on the wire, in bytes.
    pub fn wire_size(&self) -> usize {
        self.0.wire_size
    }

    /// Sealed verdict of [`Snapshot::verify`]: computed on the first call
    /// on any clone of this handle, read back on every later one. An
    /// auditor that must not trust the seal calls
    /// `Snapshot::verify(&snapshot)` and re-hashes.
    pub fn verify(&self) -> bool {
        *self.0.verified.get_or_init(|| self.0.snapshot.verify())
    }

    /// Whether two handles share the same allocation.
    pub fn ptr_eq(a: &SnapshotRef, b: &SnapshotRef) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl std::ops::Deref for SnapshotRef {
    type Target = Snapshot;
    fn deref(&self) -> &Snapshot {
        &self.0.snapshot
    }
}

impl From<Snapshot> for SnapshotRef {
    fn from(snapshot: Snapshot) -> Self {
        SnapshotRef::new(snapshot)
    }
}

impl PartialEq for SnapshotRef {
    fn eq(&self, other: &Self) -> bool {
        SnapshotRef::ptr_eq(self, other) || self.0.snapshot == other.0.snapshot
    }
}

/// One slice of a chunked snapshot transfer: a contiguous entry range of a
/// shared [`SnapshotRef`], carrying the checkpoint it belongs to plus its
/// `{chunk_index, total_chunks}` position. Serving N chunks clones the Arc
/// N times, never the entries — the zero-copy idiom of [`SnapshotRef`]
/// extended to partial views.
///
/// Chunk plans are deterministic in `(snapshot, budget)`: two servers
/// holding the same snapshot produce identical plans, so a receiver can
/// resume an interrupted transfer from a *different* server by asking for
/// the missing index suffix.
#[derive(Debug, Clone)]
pub struct SnapshotChunk {
    snapshot: SnapshotRef,
    chunk_index: u32,
    total_chunks: u32,
    start: usize,
    end: usize,
    wire_size: usize,
}

impl SnapshotChunk {
    /// Wire bytes of one chunk header: checkpoint, tip hash, and the
    /// index/total/entry-count framing.
    pub const HEADER: usize = Checkpoint::WIRE + 32 + 16;
    const PER_ENTRY: usize = 8 + 8 + 12;

    /// Greedily packs the snapshot's entries into chunks of at most
    /// `budget` wire bytes each. Every chunk carries at least one entry, so
    /// a single entry larger than the budget still ships (as an oversized
    /// chunk of its own); an empty snapshot yields one header-only chunk.
    pub fn plan(snapshot: &SnapshotRef, budget: usize) -> Vec<SnapshotChunk> {
        let entry_wire = |(k, v, _): &StateEntry| k.wire_size() + v.wire_size() + Self::PER_ENTRY;
        let entries = &snapshot.entries;
        let mut ranges: Vec<(usize, usize, usize)> = Vec::new();
        let mut start = 0;
        while start < entries.len() {
            let mut end = start + 1;
            let mut wire = Self::HEADER + entry_wire(&entries[start]);
            while end < entries.len() && wire + entry_wire(&entries[end]) <= budget {
                wire += entry_wire(&entries[end]);
                end += 1;
            }
            ranges.push((start, end, wire));
            start = end;
        }
        if ranges.is_empty() {
            ranges.push((0, 0, Self::HEADER));
        }
        let total_chunks = ranges.len() as u32;
        ranges
            .into_iter()
            .enumerate()
            .map(|(i, (start, end, wire_size))| SnapshotChunk {
                snapshot: snapshot.clone(),
                chunk_index: i as u32,
                total_chunks,
                start,
                end,
                wire_size,
            })
            .collect()
    }

    /// The checkpoint this chunk is a slice of.
    pub fn checkpoint(&self) -> Checkpoint {
        self.snapshot.checkpoint
    }

    /// Header hash of the block at the checkpoint height.
    pub fn last_block_hash(&self) -> Hash256 {
        self.snapshot.last_block_hash
    }

    /// Position of this chunk in the plan (0-based).
    pub fn chunk_index(&self) -> u32 {
        self.chunk_index
    }

    /// Number of chunks in the whole plan.
    pub fn total_chunks(&self) -> u32 {
        self.total_chunks
    }

    /// The entry slice this chunk carries.
    pub fn entries(&self) -> &[StateEntry] {
        &self.snapshot.entries[self.start..self.end]
    }

    /// Size of this chunk on the wire (header plus its entries), cached at
    /// plan time.
    pub fn wire_size(&self) -> usize {
        self.wire_size
    }
}

/// Reassembles a chunked snapshot on the receiving side. The first chunk
/// pins the checkpoint, tip hash and chunk count; later chunks must match
/// them exactly (chunks of a different checkpoint are rejected, duplicates
/// are dropped). [`Self::first_missing`] is the resume offset to put in a
/// follow-up request after a partial transfer.
#[derive(Debug, Clone)]
pub struct SnapshotAssembler {
    checkpoint: Checkpoint,
    last_block_hash: Hash256,
    total_chunks: u32,
    chunks: BTreeMap<u32, Vec<StateEntry>>,
}

impl SnapshotAssembler {
    /// Starts assembly from the first chunk received (any index).
    pub fn new(first: &SnapshotChunk) -> Self {
        let mut a = SnapshotAssembler {
            checkpoint: first.checkpoint(),
            last_block_hash: first.last_block_hash(),
            total_chunks: first.total_chunks(),
            chunks: BTreeMap::new(),
        };
        a.accept(first);
        a
    }

    /// Absorbs one chunk. Returns `false` (without mutating) for a chunk of
    /// a different checkpoint/plan, an out-of-range index, or a duplicate.
    pub fn accept(&mut self, chunk: &SnapshotChunk) -> bool {
        if chunk.checkpoint() != self.checkpoint
            || chunk.last_block_hash() != self.last_block_hash
            || chunk.total_chunks() != self.total_chunks
            || chunk.chunk_index() >= self.total_chunks
            || self.chunks.contains_key(&chunk.chunk_index())
        {
            return false;
        }
        self.chunks
            .insert(chunk.chunk_index(), chunk.entries().to_vec());
        true
    }

    /// The checkpoint this assembly is pinned to.
    pub fn checkpoint(&self) -> Checkpoint {
        self.checkpoint
    }

    /// Chunks expected in total.
    pub fn total_chunks(&self) -> u32 {
        self.total_chunks
    }

    /// Lowest chunk index not yet received — the resume offset for a
    /// follow-up request. Equals [`Self::total_chunks`] when complete.
    pub fn first_missing(&self) -> u32 {
        (0..self.total_chunks)
            .find(|i| !self.chunks.contains_key(i))
            .unwrap_or(self.total_chunks)
    }

    /// Whether every chunk has arrived.
    pub fn is_complete(&self) -> bool {
        self.chunks.len() as u32 == self.total_chunks
    }

    /// The reassembled snapshot once complete (`None` before). The caller
    /// must still [`Snapshot::verify`] it before installing — assembly
    /// checks framing, not the state hash.
    pub fn assemble(&self) -> Option<Snapshot> {
        if !self.is_complete() {
            return None;
        }
        Some(Snapshot {
            checkpoint: self.checkpoint,
            last_block_hash: self.last_block_hash,
            entries: self.chunks.values().flatten().cloned().collect(),
        })
    }
}

/// The canonical state digest: a [`Sha256`] over the count and the
/// length-prefixed `(key, value, version)` triples **in key order**. Both
/// the ledger (computing a checkpoint) and a snapshot receiver (verifying
/// one) use this exact function; any divergence in iteration order or
/// framing would break the snapshot-equivalence contract.
pub fn hash_state_entries<'a, I>(entries: I) -> Hash256
where
    I: Iterator<Item = (&'a Key, &'a Value, Version)>,
{
    let mut h = Sha256::new();
    let mut count: u64 = 0;
    for (key, value, version) in entries {
        h.update_u64(key.as_bytes().len() as u64);
        h.update(key.as_bytes());
        h.update_u64(value.as_bytes().len() as u64);
        h.update(value.as_bytes());
        h.update_u64(version.block_num);
        h.update_u32(version.tx_num);
        count += 1;
    }
    h.update_u64(count);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str, val: u64, block: u64) -> StateEntry {
        (Key::from(key), Value::from_u64(val), Version::new(block, 0))
    }

    fn snapshot(entries: Vec<StateEntry>, height: u64) -> Snapshot {
        let state_hash = hash_state_entries(entries.iter().map(|(k, v, ver)| (k, v, *ver)));
        Snapshot {
            checkpoint: Checkpoint { height, state_hash },
            last_block_hash: Hash256([7; 32]),
            entries,
        }
    }

    #[test]
    fn state_hash_is_order_and_content_sensitive() {
        let a = hash_state_entries(
            [entry("a", 1, 1), entry("b", 2, 2)]
                .iter()
                .map(|(k, v, ver)| (k, v, *ver)),
        );
        let same = hash_state_entries(
            [entry("a", 1, 1), entry("b", 2, 2)]
                .iter()
                .map(|(k, v, ver)| (k, v, *ver)),
        );
        assert_eq!(a, same);
        let reordered = hash_state_entries(
            [entry("b", 2, 2), entry("a", 1, 1)]
                .iter()
                .map(|(k, v, ver)| (k, v, *ver)),
        );
        assert_ne!(a, reordered);
        let other_value = hash_state_entries(
            [entry("a", 9, 1), entry("b", 2, 2)]
                .iter()
                .map(|(k, v, ver)| (k, v, *ver)),
        );
        assert_ne!(a, other_value);
        let other_version = hash_state_entries(
            [entry("a", 1, 3), entry("b", 2, 2)]
                .iter()
                .map(|(k, v, ver)| (k, v, *ver)),
        );
        assert_ne!(a, other_version);
        let empty = hash_state_entries(std::iter::empty());
        assert_ne!(a, empty);
    }

    #[test]
    fn length_prefixing_prevents_boundary_ambiguity() {
        // ("ab", "c") and ("a", "bc") concatenate identically; the length
        // prefixes must keep their digests apart.
        let one = hash_state_entries(
            [(Key::from("ab"), Value::from_bytes(b"c"), Version::new(1, 0))]
                .iter()
                .map(|(k, v, ver)| (k, v, *ver)),
        );
        let two = hash_state_entries(
            [(Key::from("a"), Value::from_bytes(b"bc"), Version::new(1, 0))]
                .iter()
                .map(|(k, v, ver)| (k, v, *ver)),
        );
        assert_ne!(one, two);
    }

    #[test]
    fn snapshot_verify_detects_tampering() {
        let snap = snapshot(vec![entry("a", 1, 1), entry("b", 2, 1)], 8);
        assert!(snap.verify());
        let mut bad = snap.clone();
        bad.entries[0].1 = Value::from_u64(99);
        assert!(!bad.verify());
        let mut wrong_claim = snap;
        wrong_claim.checkpoint.state_hash = Hash256([1; 32]);
        assert!(!wrong_claim.verify());
    }

    /// A handle hashes the state on its first `verify`, on any clone, and
    /// not before: wrapping seals nothing, so an export nobody verifies
    /// is never hashed. The sealed verdict is `Snapshot::verify`'s, for a
    /// good snapshot and a tampered one alike.
    #[test]
    fn snapshot_ref_seals_its_verdict_on_first_verify() {
        let good = snapshot(vec![entry("a", 1, 1), entry("b", 2, 1)], 8);
        let mut bad = good.clone();
        bad.entries[0].1 = Value::from_u64(99);
        for (snap, verdict) in [(good, true), (bad, false)] {
            let handle = SnapshotRef::new(snap);
            let clone = handle.clone();
            assert_eq!(handle.0.verified.get(), None, "wrapping hashes nothing");
            assert_eq!(clone.verify(), verdict);
            assert_eq!(
                handle.0.verified.get(),
                Some(&verdict),
                "one seal per snapshot"
            );
            assert_eq!(handle.verify(), verdict);
            assert_eq!(Snapshot::verify(&handle), verdict, "the auditor re-hashes");
        }
    }

    #[test]
    fn chunk_plan_respects_budget_and_reassembles_out_of_order() {
        let snap = SnapshotRef::new(snapshot(
            (0..40)
                .map(|i| entry(&format!("key{i:03}"), i, 1))
                .collect(),
            8,
        ));
        let budget = SnapshotChunk::HEADER + 120;
        let chunks = SnapshotChunk::plan(&snap, budget);
        assert!(chunks.len() > 1, "a small budget must split the snapshot");
        for c in &chunks {
            assert!(c.wire_size() <= budget, "chunk exceeds its budget");
            assert!(!c.entries().is_empty());
            assert_eq!(c.total_chunks() as usize, chunks.len());
            assert_eq!(c.checkpoint(), snap.checkpoint);
        }
        assert_eq!(
            chunks.iter().map(|c| c.entries().len()).sum::<usize>(),
            snap.entries.len(),
            "the plan covers every entry exactly once"
        );
        // Identical inputs yield an identical plan — the property that lets
        // a receiver resume a transfer from a different server.
        let replanned = SnapshotChunk::plan(&snap, budget);
        assert_eq!(replanned.len(), chunks.len());
        assert!(chunks
            .iter()
            .zip(&replanned)
            .all(|(a, b)| a.entries() == b.entries()));

        // Reassemble out of order, dropping duplicates along the way.
        let mut asm = SnapshotAssembler::new(chunks.last().unwrap());
        assert_eq!(asm.first_missing(), 0);
        assert!(!asm.accept(chunks.last().unwrap()), "duplicate rejected");
        for c in chunks.iter().rev().skip(1) {
            assert!(asm.accept(c));
        }
        assert!(asm.is_complete());
        assert_eq!(asm.first_missing(), asm.total_chunks());
        let rebuilt = asm.assemble().unwrap();
        assert!(rebuilt.verify());
        assert_eq!(rebuilt, *snap);
    }

    #[test]
    fn assembler_tracks_the_resume_offset_and_rejects_foreign_chunks() {
        let snap = SnapshotRef::new(snapshot(
            (0..12).map(|i| entry(&format!("k{i:02}"), i, 1)).collect(),
            8,
        ));
        let chunks = SnapshotChunk::plan(&snap, SnapshotChunk::HEADER + 60);
        assert!(chunks.len() >= 3);
        let mut asm = SnapshotAssembler::new(&chunks[0]);
        assert!(asm.accept(&chunks[1]));
        assert_eq!(
            asm.first_missing(),
            2,
            "the missing suffix starts after the received prefix"
        );
        assert!(
            asm.assemble().is_none(),
            "incomplete assembly yields nothing"
        );
        // Chunks of a different snapshot (other checkpoint) never mix in.
        let other = SnapshotRef::new(snapshot(vec![entry("x", 1, 1)], 16));
        let foreign = SnapshotChunk::plan(&other, 4096);
        assert!(!asm.accept(&foreign[0]));
        assert_eq!(asm.first_missing(), 2);
    }

    #[test]
    fn oversized_entry_and_empty_snapshot_still_plan() {
        let big = Value::from_bytes(&[7u8; 512]);
        let snap = SnapshotRef::new(snapshot(
            vec![
                (Key::from("a"), big.clone(), Version::new(1, 0)),
                (Key::from("b"), big, Version::new(1, 0)),
            ],
            4,
        ));
        let chunks = SnapshotChunk::plan(&snap, 64);
        assert_eq!(chunks.len(), 2, "one oversized entry per chunk");
        assert!(chunks.iter().all(|c| c.entries().len() == 1));

        let empty = SnapshotRef::new(snapshot(vec![], 0));
        let chunks = SnapshotChunk::plan(&empty, 4096);
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].entries().is_empty());
        let asm = SnapshotAssembler::new(&chunks[0]);
        assert!(asm.is_complete());
        assert!(asm.assemble().unwrap().verify());
    }

    #[test]
    fn wire_size_grows_with_state_and_is_cached_by_ref() {
        let small = snapshot(vec![entry("a", 1, 1)], 4);
        let large = snapshot((0..50).map(|i| entry(&format!("k{i}"), i, 1)).collect(), 4);
        assert!(large.wire_size() > small.wire_size());
        let computed = large.wire_size();
        let shared = SnapshotRef::new(large);
        assert_eq!(shared.wire_size(), computed);
        let served = shared.clone();
        assert!(
            SnapshotRef::ptr_eq(&shared, &served),
            "serving a snapshot must be a pointer bump"
        );
        assert_eq!(shared, served);
    }
}
