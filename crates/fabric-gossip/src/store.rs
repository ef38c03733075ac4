//! The gossip layer's block store and in-order payload buffer.
//!
//! Gossip receives blocks in arbitrary order; the application (ledger)
//! wants them in height order. The store keeps every block it has seen
//! (serving pull, push-digest fetches and recovery) and tracks the
//! contiguous prefix already handed to the application.
//!
//! Blocks are held one dense row per number (a `BlockMap`: a window
//! anchored at the lowest held number, plus an ordered spill for the rare
//! number too far from it to index), so the per-message questions — is
//! this number held, hand me its block — are index arithmetic, and a
//! number named by a hostile message costs one row, not a table.
//!
//! *Present* and *servable* differ for two kinds of number: genesis
//! (block 0, implicit) and every number a snapshot absorbed
//! ([`BlockStore::snapshot_floor`]). [`BlockStore::has`] counts them — the
//! peer has no use for their content — but [`BlockStore::get`] cannot
//! return it, so a caller about to serve or forward a block asks `get`
//! and treats "present, not held" as nothing to do.

use fabric_types::block::BlockRef;

use crate::blockmap::BlockMap;
use crate::pull::DIGEST_WINDOW;

/// Block storage plus payload-buffer bookkeeping for one peer.
///
/// Heights are 1-based: block 0 (genesis) is implicit, and `next_expected`
/// starts at 1.
#[derive(Debug, Clone)]
pub struct BlockStore {
    blocks: BlockMap<BlockRef>,
    next_expected: u64,
    /// Highest block number absorbed through a snapshot (0: none). Blocks
    /// at or below the floor are logically delivered without being held.
    snapshot_floor: u64,
}

impl Default for BlockStore {
    fn default() -> Self {
        Self::new()
    }
}

impl BlockStore {
    /// An empty store expecting block 1.
    pub fn new() -> Self {
        BlockStore {
            blocks: BlockMap::default(),
            next_expected: 1,
            snapshot_floor: 0,
        }
    }

    /// Whether block `num` is present (genesis and snapshot-absorbed
    /// numbers count, though [`BlockStore::get`] cannot serve them).
    pub fn has(&self, num: u64) -> bool {
        num <= self.snapshot_floor || self.blocks.get(num).is_some()
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
        let Some(above) = height.checked_add(1) else {
            return Vec::new(); // no chain reaches the last number
        };
        if height < self.next_expected {
            return Vec::new();
        }
        self.snapshot_floor = self.snapshot_floor.max(height);
        self.blocks.drop_through(height);
        self.next_expected = above;
        self.advance()
    }

    /// The block at height `num`, if held.
    pub fn get(&self, num: u64) -> Option<&BlockRef> {
        self.blocks.get(num)
    }

    /// Contiguous ledger height: every block below `height()` has been
    /// delivered to the application. Equals 1 + the last delivered number.
    pub fn height(&self) -> u64 {
        self.next_expected
    }

    /// Highest block number seen so far (0 when empty), contiguous or not.
    pub fn max_seen(&self) -> u64 {
        self.blocks.last_key().unwrap_or(0)
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
            .get(block.number())
            .is_some_and(|held| !BlockRef::ptr_eq(held, block) && held.hash() != block.hash())
    }

    /// Inserts a block. Returns `None` if it was already present; otherwise
    /// returns the blocks that just became deliverable in order (possibly
    /// empty while a gap remains).
    pub fn insert(&mut self, block: BlockRef) -> Option<Vec<BlockRef>> {
        let num = block.number();
        if self.has(num) {
            return None;
        }
        self.blocks.insert(num, block);
        Some(self.advance())
    }

    /// `(rows allocated, rows held)`, for the bound checks of the wire tests.
    #[cfg(test)]
    pub(crate) fn table(&self) -> (usize, usize) {
        (self.blocks.capacity(), self.blocks.len())
    }

    /// Moves the delivery cursor over every held block that continues the
    /// prefix, returning them in order.
    fn advance(&mut self) -> Vec<BlockRef> {
        let mut deliverable = Vec::new();
        while let Some(next) = self.blocks.get(self.next_expected) {
            deliverable.push(next.clone());
            match self.next_expected.checked_add(1) {
                Some(next) => self.next_expected = next,
                None => break, // the last number has no successor
            }
        }
        deliverable
    }

    /// The pull digest body `(top, held)`: the highest number seen, and a
    /// mask whose bit `i` says block `top − i` is held, over the 64
    /// numbers from `top` down to block 1. Every number between the
    /// snapshot floor and the height is held, so a window wholly inside
    /// that range is all ones, one compare; any other takes one lookup per
    /// number.
    pub fn digest(&self) -> (u64, u64) {
        let top = self.max_seen();
        let span = top.min(DIGEST_WINDOW) as u32;
        if top < self.next_expected && top - u64::from(span) >= self.snapshot_floor {
            return (top, u64::MAX.checked_shr(u64::BITS - span).unwrap_or(0));
        }
        let held = (0..span)
            .filter(|i| self.blocks.get(top - u64::from(*i)).is_some())
            .fold(0, |mask, i| mask | (1 << i));
        (top, held)
    }

    /// Blocks serving a recovery request for `[from, to]`, capped at
    /// `batch_max` and truncated at the first gap (recovery transfers a
    /// consecutive run so the receiver's prefix extends).
    pub fn consecutive_run(&self, from: u64, to: u64, batch_max: u64) -> Vec<BlockRef> {
        let mut out = Vec::new();
        for n in from..=to {
            if out.len() as u64 >= batch_max {
                break;
            }
            match self.blocks.get(n) {
                Some(b) => out.push(b.clone()),
                None => break,
            }
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

    /// A block row is one pointer: an empty slot is the null one.
    #[test]
    fn row_size_store_row_is_8_bytes() {
        assert_eq!(BlockStore::new().blocks.row_bytes(), 8);
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
    fn digest_masks_the_numbers_held_below_the_top() {
        let mut store = BlockStore::new();
        assert_eq!(store.digest(), (0, 0));
        for n in 1..=70 {
            store.insert(block(n));
        }
        assert_eq!(store.digest(), (70, u64::MAX));
        store.insert(block(72));
        assert_eq!(store.digest(), (72, (u64::MAX << 2) | 1));
        // Nothing at or below a snapshot floor is held, the floor included.
        store.adopt_snapshot(100);
        for n in 101..=163 {
            store.insert(block(n));
        }
        assert_eq!(store.digest(), (163, u64::MAX >> 1));
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
    fn hostile_ranges_cost_what_is_held_not_what_they_span() {
        let mut store = BlockStore::new();
        for n in [1u64, 2, 3, 7, u64::MAX] {
            store.insert(block(n));
        }
        assert_eq!(
            store.consecutive_run(0, u64::MAX, 10).len(),
            0,
            "no block 0"
        );
        assert_eq!(store.consecutive_run(1, u64::MAX, 10).len(), 3);
        assert_eq!(store.consecutive_run(u64::MAX, u64::MAX, 10).len(), 1);
        assert_eq!(store.digest(), (u64::MAX, 1));
        assert_eq!(store.height(), 4);
        assert!(store.adopt_snapshot(u64::MAX).is_empty(), "no such chain");
        assert_eq!(store.height(), 4);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// The store as it was before the dense rows: an ordered tree of
        /// blocks, a delivery cursor and a snapshot floor.
        struct Model {
            blocks: BTreeMap<u64, BlockRef>,
            next_expected: u64,
            snapshot_floor: u64,
        }

        impl Model {
            fn has(&self, num: u64) -> bool {
                num <= self.snapshot_floor || self.blocks.contains_key(&num)
            }

            fn advance(&mut self) -> Vec<BlockRef> {
                let mut deliverable = Vec::new();
                while let Some(next) = self.blocks.get(&self.next_expected) {
                    deliverable.push(next.clone());
                    match self.next_expected.checked_add(1) {
                        Some(next) => self.next_expected = next,
                        None => break,
                    }
                }
                deliverable
            }

            fn insert(&mut self, block: BlockRef) -> Option<Vec<BlockRef>> {
                if self.has(block.number()) {
                    return None;
                }
                self.blocks.insert(block.number(), block);
                Some(self.advance())
            }

            fn adopt_snapshot(&mut self, height: u64) -> Vec<BlockRef> {
                if height < self.next_expected {
                    return Vec::new();
                }
                self.snapshot_floor = self.snapshot_floor.max(height);
                self.blocks = self.blocks.split_off(&(height + 1));
                self.next_expected = height + 1;
                self.advance()
            }

            fn conflicts_with(&self, block: &BlockRef) -> bool {
                self.blocks
                    .get(&block.number())
                    .is_some_and(|held| held.hash() != block.hash())
            }

            fn held_in(&self, lo: u64, hi: u64) -> Vec<u64> {
                if lo > hi {
                    return Vec::new(); // the tree's `range` refuses these
                }
                self.blocks.range(lo..=hi).map(|(n, _)| *n).collect()
            }

            fn max_seen(&self) -> u64 {
                self.blocks.keys().next_back().copied().unwrap_or(0)
            }

            fn consecutive_run(&self, from: u64, to: u64, batch_max: u64) -> Vec<BlockRef> {
                (from..=to)
                    .take(batch_max as usize)
                    .map_while(|n| self.blocks.get(&n).cloned())
                    .collect()
            }
        }

        proptest! {
            /// Random inserts (in order, out of order, descending, below
            /// the floor, far, extreme, runs that extend the chain past a
            /// digest window), snapshots and every query against the
            /// model: same answers, same deliveries, bounded table. The
            /// digest mask names the model's held numbers among the 64
            /// from its top down, whichever path built it.
            #[test]
            fn model_store_matches_btreemap_and_cursor(
                ops in proptest::collection::vec((0u8..10, 0u8..12, 0u64..24), 1..160),
            ) {
                let mut store = BlockStore::new();
                let mut model = Model {
                    blocks: BTreeMap::new(),
                    next_expected: 1,
                    snapshot_floor: 0,
                };
                // An ascending and a descending cursor make runs and
                // fills more likely than uniform numbers would.
                let (mut up, mut down) = (0u64, 60u64);
                for (op, class, small) in ops {
                    let num = match class {
                        0..=2 => small,
                        3..=4 => {
                            up += 1;
                            up
                        }
                        5 => {
                            down = down.saturating_sub(1);
                            down
                        }
                        6 => 40 + small,
                        7 => crate::blockmap::SPAN as u64 + 50 + small,
                        8 => (1 << 32) + small,
                        9 => u64::MAX - 1 - small,
                        _ => u64::MAX - small,
                    };
                    match op {
                        0..=4 => {
                            let forged = BlockRef::new(Block::new(num, Hash256([9; 32]), vec![]));
                            let b = if op == 4 { forged } else { block(num) };
                            prop_assert_eq!(store.conflicts_with(&b), model.conflicts_with(&b));
                            prop_assert_eq!(store.insert(b.clone()), model.insert(b));
                        }
                        5 if num < u64::MAX => {
                            prop_assert_eq!(store.adopt_snapshot(num), model.adopt_snapshot(num));
                        }
                        6 if model.next_expected < 1 << 32 => {
                            let from = model.next_expected;
                            for n in from..from + 63 + small {
                                prop_assert_eq!(store.insert(block(n)), model.insert(block(n)));
                            }
                        }
                        _ => {}
                    }
                    prop_assert_eq!(store.has(num), model.has(num));
                    prop_assert_eq!(store.get(num), model.blocks.get(&num));
                    prop_assert_eq!(store.height(), model.next_expected);
                    prop_assert_eq!(store.snapshot_floor(), model.snapshot_floor);
                    prop_assert_eq!(store.len(), model.blocks.len());
                    prop_assert_eq!(store.is_empty(), model.blocks.is_empty());
                    prop_assert_eq!(store.max_seen(), model.max_seen());
                    let (top, held) = store.digest();
                    prop_assert_eq!(top, model.max_seen());
                    let named: Vec<u64> =
                        (0..64).rev().filter(|i| (held >> i) & 1 == 1).map(|i| top - i).collect();
                    prop_assert_eq!(named, model.held_in(top.saturating_sub(63).max(1), top));
                    for (lo, hi) in [(0, u64::MAX), (num.saturating_sub(small), num), (num, small)] {
                        for cap in [small, 1000] {
                            prop_assert_eq!(
                                store.consecutive_run(lo, hi, cap),
                                model.consecutive_run(lo, hi, cap)
                            );
                        }
                    }
                    let (allocated, held) = store.table();
                    prop_assert!(allocated <= held + crate::blockmap::SPAN);
                }
            }
        }
    }
}
