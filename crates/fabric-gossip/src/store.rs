//! The gossip layer's block store and in-order payload buffer.
//!
//! Gossip receives blocks in arbitrary order; the application (ledger)
//! wants them in height order. The store keeps every block it has seen
//! (serving pull, push-digest fetches and recovery) and tracks the
//! contiguous prefix already handed to the application.

use std::collections::BTreeMap;

use fabric_types::block::BlockRef;

/// Block storage plus payload-buffer bookkeeping for one peer.
///
/// Heights are 1-based: block 0 (genesis) is implicit, and `next_expected`
/// starts at 1.
#[derive(Debug, Clone, Default)]
pub struct BlockStore {
    blocks: BTreeMap<u64, BlockRef>,
    next_expected: u64,
    /// Highest block number absorbed through a snapshot (0: none). Blocks
    /// at or below the floor are logically delivered without being held.
    snapshot_floor: u64,
}

impl BlockStore {
    /// An empty store expecting block 1.
    pub fn new() -> Self {
        BlockStore {
            blocks: BTreeMap::new(),
            next_expected: 1,
            snapshot_floor: 0,
        }
    }

    /// Whether block `num` is present (snapshot-absorbed numbers count).
    pub fn has(&self, num: u64) -> bool {
        num <= self.snapshot_floor || self.blocks.contains_key(&num)
    }

    /// Highest block number absorbed through a snapshot (0 when the peer
    /// never installed one). Everything above it was individually
    /// received and replayed.
    pub fn snapshot_floor(&self) -> u64 {
        self.snapshot_floor
    }

    /// Installs a snapshot covering every block up to and including
    /// `height`: jumps the delivery cursor past the floor, drops any
    /// individually held block the snapshot absorbs, and returns the run
    /// of already-buffered tail blocks that just became deliverable (in
    /// order). No-op returning an empty run when the store is already at
    /// or past `height + 1`.
    pub fn adopt_snapshot(&mut self, height: u64) -> Vec<BlockRef> {
        if height < self.next_expected {
            return Vec::new();
        }
        self.snapshot_floor = self.snapshot_floor.max(height);
        self.blocks = self.blocks.split_off(&(height + 1));
        self.next_expected = height + 1;
        let mut deliverable = Vec::new();
        while let Some(next) = self.blocks.get(&self.next_expected) {
            deliverable.push(next.clone());
            self.next_expected += 1;
        }
        deliverable
    }

    /// The block at height `num`, if present.
    pub fn get(&self, num: u64) -> Option<&BlockRef> {
        self.blocks.get(&num)
    }

    /// Contiguous ledger height: every block below `height()` has been
    /// delivered to the application. Equals 1 + the last delivered number.
    pub fn height(&self) -> u64 {
        self.next_expected
    }

    /// Highest block number seen so far (0 when empty), contiguous or not.
    pub fn max_seen(&self) -> u64 {
        self.blocks.keys().next_back().copied().unwrap_or(0)
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// `true` when no block has been stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Whether `block` *conflicts* with what the store already holds at the
    /// same height: a block is present at `block.number()` whose header
    /// hash differs. Honest dissemination re-serves the identical block
    /// (a plain duplicate, never a conflict); a conflicting payload is
    /// equivocation and must be rejected, not merely deduplicated.
    ///
    /// Never hashes: the honest duplicate is the very handle already held
    /// (a pointer comparison), and two distinct handles compare the header
    /// hashes [`BlockRef::new`] sealed into them.
    pub fn conflicts_with(&self, block: &BlockRef) -> bool {
        self.blocks
            .get(&block.number())
            .is_some_and(|held| !BlockRef::ptr_eq(held, block) && held.hash() != block.hash())
    }

    /// Inserts a block. Returns `None` if it was already present; otherwise
    /// returns the blocks that just became deliverable in order (possibly
    /// empty while a gap remains).
    pub fn insert(&mut self, block: BlockRef) -> Option<Vec<BlockRef>> {
        let num = block.number();
        if num <= self.snapshot_floor || self.blocks.contains_key(&num) {
            return None;
        }
        self.blocks.insert(num, block);
        let mut deliverable = Vec::new();
        while let Some(next) = self.blocks.get(&self.next_expected) {
            deliverable.push(next.clone());
            self.next_expected += 1;
        }
        Some(deliverable)
    }

    /// Block numbers available in `[lo, hi]`, for pull digests and
    /// recovery responses.
    pub fn available_in(&self, lo: u64, hi: u64) -> Vec<u64> {
        self.blocks.range(lo..=hi).map(|(n, _)| *n).collect()
    }

    /// The most recent `window` block numbers present (pull digest body).
    pub fn recent(&self, window: u64) -> Vec<u64> {
        let hi = self.max_seen();
        let lo = hi.saturating_sub(window.saturating_sub(1)).max(1);
        self.available_in(lo, hi)
    }

    /// Blocks serving a recovery request for `[from, to]`, capped at
    /// `batch_max` and truncated at the first gap (recovery transfers a
    /// consecutive run so the receiver's prefix extends).
    pub fn consecutive_run(&self, from: u64, to: u64, batch_max: u64) -> Vec<BlockRef> {
        let mut out = Vec::new();
        let mut n = from;
        while n <= to && (out.len() as u64) < batch_max {
            match self.blocks.get(&n) {
                Some(b) => out.push(b.clone()),
                None => break,
            }
            n += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::block::Block;
    use fabric_types::crypto::Hash256;
    fn block(num: u64) -> BlockRef {
        BlockRef::new(Block::new(num, Hash256::ZERO, vec![]))
    }

    #[test]
    fn in_order_insertion_delivers_immediately() {
        let mut store = BlockStore::new();
        assert_eq!(store.insert(block(1)).unwrap().len(), 1);
        assert_eq!(store.insert(block(2)).unwrap().len(), 1);
        assert_eq!(store.height(), 3);
    }

    #[test]
    fn gap_defers_delivery_until_filled() {
        let mut store = BlockStore::new();
        assert_eq!(store.insert(block(2)).unwrap().len(), 0);
        assert_eq!(store.insert(block(3)).unwrap().len(), 0);
        assert_eq!(store.height(), 1);
        let run = store.insert(block(1)).unwrap();
        assert_eq!(
            run.iter().map(|b| b.number()).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        assert_eq!(store.height(), 4);
    }

    #[test]
    fn duplicate_insert_returns_none() {
        let mut store = BlockStore::new();
        store.insert(block(1));
        assert!(store.insert(block(1)).is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn conflicting_same_height_block_is_detected_duplicate_is_not() {
        let mut store = BlockStore::new();
        store.insert(block(1));
        assert!(
            !store.conflicts_with(&block(1)),
            "the identical block is a duplicate, not a conflict"
        );
        let forged = BlockRef::new(Block::new(1, Hash256::ZERO, vec![]).with_padding(7));
        // Padding is not hashed, so build a genuinely different header.
        let conflicting = BlockRef::new(Block::new(1, Hash256([9u8; 32]), vec![]));
        assert!(!store.conflicts_with(&forged), "same header: no conflict");
        assert!(store.conflicts_with(&conflicting));
        assert!(
            !store.conflicts_with(&block(2)),
            "absent height: no conflict"
        );
    }

    #[test]
    fn genesis_is_implicitly_present() {
        let store = BlockStore::new();
        assert!(store.has(0));
        assert!(!store.has(1));
        assert!(BlockStore::new().insert(block(0)).is_none());
    }

    #[test]
    fn max_seen_tracks_highest_regardless_of_gaps() {
        let mut store = BlockStore::new();
        store.insert(block(7));
        store.insert(block(3));
        assert_eq!(store.max_seen(), 7);
        assert_eq!(store.height(), 1);
    }

    #[test]
    fn recent_window_returns_last_numbers() {
        let mut store = BlockStore::new();
        for n in 1..=10 {
            store.insert(block(n));
        }
        assert_eq!(store.recent(3), vec![8, 9, 10]);
        assert_eq!(store.recent(100), (1..=10).collect::<Vec<_>>());
        assert!(BlockStore::new().recent(5).is_empty());
    }

    #[test]
    fn consecutive_run_truncates_at_gap_and_cap() {
        let mut store = BlockStore::new();
        for n in [1u64, 2, 3, 5, 6] {
            store.insert(block(n));
        }
        let run = store.consecutive_run(1, 6, 10);
        assert_eq!(
            run.iter().map(|b| b.number()).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        let capped = store.consecutive_run(1, 6, 2);
        assert_eq!(capped.len(), 2);
        assert!(store.consecutive_run(4, 6, 10).is_empty());
    }

    #[test]
    fn adopt_snapshot_jumps_cursor_and_frees_absorbed_blocks() {
        let mut store = BlockStore::new();
        // Buffered out-of-order tail plus some blocks the snapshot absorbs.
        for n in [1u64, 2, 9, 10, 12] {
            store.insert(block(n));
        }
        assert_eq!(store.height(), 3);
        let run = store.adopt_snapshot(8);
        assert_eq!(
            run.iter().map(|b| b.number()).collect::<Vec<_>>(),
            vec![9, 10],
            "buffered tail above the floor delivers immediately"
        );
        assert_eq!(store.height(), 11);
        assert_eq!(store.snapshot_floor(), 8);
        assert_eq!(store.len(), 3, "absorbed 1 and 2 are dropped, tail stays");
        assert!(store.has(5), "absorbed numbers count as present");
        assert!(store.has(12));
        assert!(!store.has(11));
        // Re-pushing an absorbed block is a no-op, the tail still works.
        assert!(store.insert(block(3)).is_none());
        assert_eq!(store.insert(block(11)).unwrap().len(), 2);
        assert_eq!(store.height(), 13);
    }

    #[test]
    fn adopt_snapshot_behind_the_cursor_is_a_no_op() {
        let mut store = BlockStore::new();
        for n in 1..=6 {
            store.insert(block(n));
        }
        assert_eq!(store.height(), 7);
        assert!(store.adopt_snapshot(4).is_empty());
        assert_eq!(store.height(), 7);
        assert_eq!(store.snapshot_floor(), 0, "stale snapshot leaves no floor");
        assert_eq!(store.len(), 6);
    }

    #[test]
    fn available_in_is_range_inclusive() {
        let mut store = BlockStore::new();
        for n in 1..=5 {
            store.insert(block(n));
        }
        assert_eq!(store.available_in(2, 4), vec![2, 3, 4]);
    }
}
