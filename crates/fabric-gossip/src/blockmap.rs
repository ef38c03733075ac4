//! A map keyed by block number, stored as one dense row per block.
//!
//! Block numbers are dense, small and monotone, so every per-block table
//! of the gossip layer (the block store, the push dedup memory, the
//! fetches in flight) is a [`BlockMap`]: a `VecDeque<Option<T>>` *window*
//! anchored at the lowest live number, growing at either end (a joiner
//! holds block 300 first and recovers 1…299 afterwards), where a lookup is
//! one subtraction and one bounds check.
//!
//! The numbers arrive from the wire, so the window must not let one
//! message choose its size: a key whose row would stretch the window past
//! [`SPAN`] empty slots lives in an ordered *spill* instead. Memory is
//! bounded by the rows held plus the span — never by the largest number a
//! message names — and a spilled row behaves exactly like a windowed one,
//! only slower.

use std::collections::{BTreeMap, VecDeque};

/// Empty slots the window may carry. A constant, not a setting: 2¹⁶
/// covers every preset's chain many times over, and a window that sparse
/// is under attack, not under load.
pub(crate) const SPAN: usize = 1 << 16;

/// An ordered map from block number to `T` (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct BlockMap<T> {
    /// Key of `window[0]`; meaningless while the window is empty.
    base: u64,
    /// When non-empty, the first and last slot are occupied and at most
    /// [`SPAN`] slots in between are empty.
    window: VecDeque<Option<T>>,
    /// Occupied window slots.
    held: usize,
    /// Rows too far from the window to join it. A key lives in the window
    /// or here, never both; the window may later grow past a spilled key,
    /// whose row then simply stays here.
    spill: BTreeMap<u64, T>,
}

impl<T> Default for BlockMap<T> {
    fn default() -> Self {
        BlockMap {
            base: 0,
            window: VecDeque::new(),
            held: 0,
            spill: BTreeMap::new(),
        }
    }
}

impl<T> BlockMap<T> {
    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.held + self.spill.len()
    }

    /// `true` when no row is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The highest key held.
    pub fn last_key(&self) -> Option<u64> {
        let near = (!self.window.is_empty()).then(|| self.last_slot_key());
        near.max(self.spill.keys().next_back().copied())
    }

    /// The row at `key`.
    pub fn get(&self, key: u64) -> Option<&T> {
        match self.window.get(self.offset(key)) {
            Some(Some(row)) => Some(row),
            _ => self.spill.get(&key),
        }
    }

    /// The row at `key`, mutably.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        let offset = self.offset(key);
        match self.window.get_mut(offset) {
            Some(Some(row)) => Some(row),
            _ => self.spill.get_mut(&key),
        }
    }

    /// Stores `value` at `key`, returning the row it replaced.
    pub fn insert(&mut self, key: u64, value: T) -> Option<T> {
        if let Some(row) = self.get_mut(key) {
            return Some(std::mem::replace(row, value));
        }
        if self.window.is_empty() {
            self.base = key;
            self.window.push_back(Some(value));
            self.held = 1;
            return None;
        }
        // One less than the slots a window stretched to `key` would span;
        // `extent - held` of them would be empty once the row is in.
        let last = self.last_slot_key();
        let extent = last.max(key) - self.base.min(key);
        if extent - self.held as u64 > SPAN as u64 {
            self.spill.insert(key, value);
            return None;
        }
        let extent = extent as usize; // at most held + SPAN
        self.reserve(extent + 1);
        if key < self.base {
            for _ in 1..self.base - key {
                self.window.push_front(None);
            }
            self.window.push_front(Some(value));
            self.base = key;
        } else if key > last {
            self.window.resize_with(extent, || None);
            self.window.push_back(Some(value));
        } else {
            self.window[(key - self.base) as usize] = Some(value);
        }
        self.held += 1;
        None
    }

    /// Removes and returns the row at `key`.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let offset = self.offset(key);
        let Some(row) = self.window.get_mut(offset).and_then(Option::take) else {
            return self.spill.remove(&key);
        };
        self.held -= 1;
        self.trim();
        Some(row)
    }

    /// Removes every row at or below `height`.
    pub fn drop_through(&mut self, height: u64) {
        while !self.window.is_empty() && self.base <= height {
            if self.window.pop_front().flatten().is_some() {
                self.held -= 1;
            }
            self.base = self.base.wrapping_add(1);
        }
        self.trim();
        match height.checked_add(1) {
            Some(above) => self.spill = self.spill.split_off(&above),
            None => self.spill.clear(),
        }
    }

    /// Where `key`'s slot would be in the window; a key below the base
    /// wraps to an offset no window is long enough for.
    fn offset(&self, key: u64) -> usize {
        usize::try_from(key.wrapping_sub(self.base)).unwrap_or(usize::MAX)
    }

    /// Key of the last window slot. The window must not be empty.
    fn last_slot_key(&self) -> u64 {
        self.base + (self.window.len() as u64 - 1)
    }

    /// Makes room for `slots` window slots: amortised doubling, but never
    /// past rows + [`SPAN`], which `slots` itself never exceeds.
    fn reserve(&mut self, slots: usize) {
        let cap = self.window.capacity();
        if slots > cap {
            let target = slots.max((2 * cap).min(self.held + 1 + SPAN));
            self.window.reserve_exact(target - self.window.len());
        }
    }

    /// Restores the window's invariants after rows left it: occupied first
    /// and last slots, at most [`SPAN`] empty ones (the highest rows move
    /// to the spill until that holds), capacity within rows + [`SPAN`].
    fn trim(&mut self) {
        while let Some(None) = self.window.front() {
            self.window.pop_front();
            self.base = self.base.wrapping_add(1);
        }
        loop {
            while let Some(None) = self.window.back() {
                self.window.pop_back();
            }
            if self.window.len() - self.held <= SPAN {
                break;
            }
            let key = self.last_slot_key();
            let row = self.window.pop_back().flatten();
            self.spill.insert(key, row.expect("last slot is occupied"));
            self.held -= 1;
        }
        if self.window.capacity() > self.held + SPAN {
            self.window.shrink_to(self.window.len());
        }
    }

    /// Rows allocated, held or not: the window's capacity plus the spilled
    /// rows — what a hostile key must not grow by more than one.
    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.window.capacity() + self.spill.len()
    }

    /// Bytes one window slot takes, held or empty: what a row costs.
    #[cfg(test)]
    pub fn row_bytes(&self) -> usize {
        std::mem::size_of::<Option<T>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const FAR: u64 = 1 << 32;

    /// `map` holds exactly `keys`: as many rows, each of them found.
    fn holds<T>(map: &BlockMap<T>, keys: &[u64]) -> bool {
        map.len() == keys.len() && keys.iter().all(|key| map.get(*key).is_some())
    }

    #[test]
    fn grows_at_either_end_and_keeps_order() {
        let mut map = BlockMap::default();
        for key in [300u64, 301, 299, 1, 150] {
            assert!(map.insert(key, key * 10).is_none());
        }
        assert!(holds(&map, &[1, 150, 299, 300, 301]));
        assert_eq!(map.get(150), Some(&1500));
        assert_eq!(map.get(2), None);
        assert_eq!(map.insert(150, 7), Some(1500), "re-insert replaces");
        assert_eq!(map.len(), 5);
        assert_eq!(map.last_key(), Some(301));
        assert!(map.spill.is_empty(), "nothing here is far");
    }

    #[test]
    fn a_far_key_costs_one_spilled_row_not_a_window() {
        let mut map = BlockMap::default();
        map.insert(5, 'a');
        let before = map.capacity();
        for key in [u64::MAX, FAR, u64::MAX - 1] {
            assert!(map.insert(key, 'z').is_none());
            assert_eq!(map.get(key), Some(&'z'));
        }
        assert_eq!(map.spill.len(), 3);
        assert_eq!(map.capacity(), before + 3, "the window did not move");
        assert_eq!(map.last_key(), Some(u64::MAX));
        assert!(holds(&map, &[5, FAR, u64::MAX - 1, u64::MAX]));
        assert_eq!(map.remove(FAR), Some('z'));
        assert_eq!(map.remove(FAR), None);
        map.drop_through(u64::MAX);
        assert!(map.is_empty());
    }

    #[test]
    fn a_window_anchored_at_the_top_of_the_range_does_not_overflow() {
        let mut map = BlockMap::default();
        map.insert(u64::MAX, 1);
        map.insert(u64::MAX - 2, 2);
        map.insert(0, 3);
        assert!(holds(&map, &[0, u64::MAX - 2, u64::MAX]));
        map.drop_through(u64::MAX - 1);
        assert!(holds(&map, &[u64::MAX]));
        map.drop_through(u64::MAX);
        assert!(map.is_empty());
    }

    #[test]
    fn the_window_passes_over_a_spilled_key_without_losing_it() {
        let mut map = BlockMap::default();
        map.insert(1, 1u64);
        let far = SPAN as u64 + 10;
        map.insert(far, far);
        assert_eq!(map.spill.len(), 1);
        for key in 2..=far + 5 {
            map.insert(key, key);
        }
        assert_eq!(map.len() as u64, far + 5, "the spilled key was not doubled");
        assert_eq!(map.get(far), Some(&far));
        assert!(holds(&map, &(1..=far + 5).collect::<Vec<_>>()));
        assert!(map.capacity() <= map.len() + SPAN);
    }

    #[test]
    fn removals_that_hollow_the_window_spill_its_tail_and_release_memory() {
        let mut map = BlockMap::default();
        let n = 3 * SPAN as u64;
        for key in 1..=n {
            map.insert(key, ());
        }
        assert!(map.capacity() <= map.len() + SPAN);
        for key in 2..n {
            map.remove(key);
        }
        assert!(holds(&map, &[1, n]));
        assert_eq!(map.spill.len(), 1, "the far end left the window");
        assert!(map.capacity() <= map.len() + SPAN);
    }

    proptest! {
        /// Random operations over near, far and extreme keys against a
        /// `BTreeMap`: same answers around every key touched, the same
        /// rows at the end, bounded window.
        #[test]
        fn model_blockmap_matches_btreemap(
            ops in proptest::collection::vec((0u8..6, 0u8..12, 0u64..40), 1..120),
        ) {
            let key_of = |class: u8, small: u64| match class {
                0..=6 => small,
                7 => 1000 + small,
                8 => SPAN as u64 + small,
                9 => FAR + small,
                10 => u64::MAX - small,
                _ => 3 * SPAN as u64 - small,
            };
            let mut map: BlockMap<u64> = BlockMap::default();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for (step, (op, class, small)) in ops.into_iter().enumerate() {
                let key = key_of(class, small);
                let value = step as u64;
                match op {
                    0..=2 => prop_assert_eq!(map.insert(key, value), model.insert(key, value)),
                    3 => prop_assert_eq!(map.remove(key), model.remove(&key)),
                    4 => {
                        map.drop_through(key);
                        model.retain(|k, _| *k > key);
                    }
                    _ => {
                        if let Some(row) = map.get_mut(key) {
                            *row += 1;
                        }
                        if let Some(row) = model.get_mut(&key) {
                            *row += 1;
                        }
                    }
                }
                for near in key.saturating_sub(50)..=key.saturating_add(small) {
                    prop_assert_eq!(map.get(near), model.get(&near));
                }
                prop_assert_eq!(map.len(), model.len());
                prop_assert_eq!(map.is_empty(), model.is_empty());
                prop_assert_eq!(map.last_key(), model.keys().next_back().copied());
                prop_assert!(map.capacity() <= map.len() + SPAN);
                prop_assert!(map.window.len() - map.held <= SPAN);
            }
            for (key, value) in model {
                prop_assert_eq!(map.get(key), Some(&value));
            }
        }
    }
}
