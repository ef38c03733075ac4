//! Tables keyed by peer id, one dense row per peer.
//!
//! Peer ids are small and dense within a deployment, so every per-peer
//! map of a channel instance (discovery's claims and obituaries, recovery's
//! advertised heights and checkpoints) is a [`PeerTable`]: its rows in one
//! `Vec` sorted by id — iteration order is a `BTreeMap`'s — found through a
//! [`PeerIndex`], the same id → position index
//! [`Membership`](crate::membership::Membership) keeps. A lookup is one
//! bounds check and one load.
//!
//! The ids arrive from the wire (a claim, an obituary, an advert), so the
//! index must not let one message choose its size: its dense array covers
//! only the ids of the view it was seeded from and never grows. An id above
//! that range gets a row in an ordered spill instead — one row per id,
//! found by binary search, behaving exactly like a dense one. A table
//! nothing writes (discovery's, on a static roster) holds no dense array.

use fabric_types::ids::PeerId;

/// Maps peer ids to positions (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct PeerIndex {
    /// `dense[id] = position + 1` (0 = absent) for ids below `range`;
    /// allocated when the first peer in that range is recorded.
    dense: Vec<u32>,
    range: usize,
    /// `(peer, position + 1)` for present peers at or above the dense
    /// range, sorted by peer.
    spill: Vec<(PeerId, u32)>,
}

impl PeerIndex {
    /// An empty index with dense slots for the ids `0..range`.
    pub fn new(range: usize) -> Self {
        PeerIndex {
            dense: Vec::new(),
            range,
            spill: Vec::new(),
        }
    }

    /// An index of `peers` at their positions, dense up to their top id.
    pub fn over(peers: &[PeerId]) -> Self {
        let top = peers.iter().map(|p| p.0).max();
        let mut index = PeerIndex::new(top.map_or(0, |id| id as usize + 1));
        index.dense = vec![0; index.range];
        for (i, peer) in peers.iter().enumerate() {
            index.dense[peer.0 as usize] = i as u32 + 1;
        }
        index
    }

    /// The number of dense slots: fixed at construction.
    pub fn range(&self) -> usize {
        self.range
    }

    /// Position of `peer`, if present.
    pub fn get(&self, peer: PeerId) -> Option<usize> {
        let slot = match self.dense.get(peer.0 as usize) {
            Some(&v) => v,
            None if (peer.0 as usize) < self.range => 0,
            None => match self.spill.binary_search_by_key(&peer, |e| e.0) {
                Ok(i) => self.spill[i].1,
                Err(_) => 0,
            },
        };
        (slot as usize).checked_sub(1)
    }

    /// Records `peer` at `pos`, or forgets it for `None`.
    pub fn set(&mut self, peer: PeerId, pos: Option<usize>) {
        let (id, slot) = (peer.0 as usize, pos.map_or(0, |p| p as u32 + 1));
        if id < self.range {
            if slot != 0 || !self.dense.is_empty() {
                self.dense.resize(self.range, 0);
                self.dense[id] = slot;
            }
            return;
        }
        match (self.spill.binary_search_by_key(&peer, |e| e.0), slot) {
            (Ok(i), 0) => {
                self.spill.remove(i);
            }
            (Ok(i), _) => self.spill[i].1 = slot,
            (Err(_), 0) => {}
            (Err(i), _) => self.spill.insert(i, (peer, slot)),
        }
    }

    /// Records `peers` at the positions `from`, `from + 1`, … (after a
    /// shift).
    pub fn reindex(&mut self, from: usize, peers: impl IntoIterator<Item = PeerId>) {
        for (i, peer) in (from..).zip(peers) {
            self.set(peer, Some(i));
        }
    }

    /// Forgets every peer; the dense range stays.
    pub fn clear(&mut self) {
        self.dense.fill(0);
        self.spill.clear();
    }

    /// Peers held in the spill.
    #[cfg(test)]
    pub fn spilled(&self) -> usize {
        self.spill.len()
    }

    /// Whether the dense array has been allocated.
    #[cfg(test)]
    pub fn dense_allocated(&self) -> bool {
        !self.dense.is_empty()
    }
}

/// An ordered map from peer id to `V` (see the module docs).
#[derive(Debug)]
pub(crate) struct PeerTable<V> {
    /// Sorted by peer, no duplicates.
    rows: Vec<(PeerId, V)>,
    /// Each row's position in `rows`.
    index: PeerIndex,
}

impl<V> PeerTable<V> {
    /// An empty table with dense slots for the ids `0..range`.
    pub fn new(range: usize) -> Self {
        PeerTable {
            rows: Vec::new(),
            index: PeerIndex::new(range),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no row is held.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row of `peer`.
    pub fn get(&self, peer: PeerId) -> Option<&V> {
        self.index.get(peer).map(|i| &self.rows[i].1)
    }

    /// The row of `peer`, mutably.
    pub fn get_mut(&mut self, peer: PeerId) -> Option<&mut V> {
        self.index.get(peer).map(|i| &mut self.rows[i].1)
    }

    /// Stores `value` for `peer`, returning the row it replaced.
    pub fn insert(&mut self, peer: PeerId, value: V) -> Option<V> {
        match self.index.get(peer) {
            Some(i) => Some(std::mem::replace(&mut self.rows[i].1, value)),
            None => {
                self.add(peer, value);
                None
            }
        }
    }

    /// The row of `peer`, inserting `value` first if there is none.
    pub fn get_or_insert(&mut self, peer: PeerId, value: V) -> &mut V {
        let i = match self.index.get(peer) {
            Some(i) => i,
            None => self.add(peer, value),
        };
        &mut self.rows[i].1
    }

    /// Removes and returns the row of `peer`.
    pub fn remove(&mut self, peer: PeerId) -> Option<V> {
        let i = self.index.get(peer)?;
        let (_, value) = self.rows.remove(i);
        self.index.set(peer, None);
        self.index.reindex(i, self.rows[i..].iter().map(|r| r.0));
        Some(value)
    }

    /// Removes every row; the dense range stays.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.index.clear();
    }

    /// Every row, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, &V)> {
        self.rows.iter().map(|(p, v)| (*p, v))
    }

    /// Every value, in id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.rows.iter().map(|(_, v)| v)
    }

    /// Makes room for `rows` rows in all.
    pub fn reserve(&mut self, rows: usize) {
        self.rows.reserve(rows.saturating_sub(self.rows.len()));
    }

    /// Inserts a row for an absent `peer`, returning its position: a peer
    /// above every row (a view seeded in id order) is appended unsearched.
    fn add(&mut self, peer: PeerId, value: V) -> usize {
        let i = match self.rows.last() {
            Some((last, _)) if *last > peer => self.rows.partition_point(|(p, _)| *p < peer),
            _ => self.rows.len(),
        };
        self.rows.insert(i, (peer, value));
        self.index.reindex(i, self.rows[i..].iter().map(|r| r.0));
        i
    }

    /// `(dense slots, spilled rows, rows)`: what a hostile id must not
    /// grow by more than one row.
    #[cfg(test)]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.index.range(), self.index.spilled(), self.rows.len())
    }

    /// Whether the table holds its dense array.
    #[cfg(test)]
    pub fn dense_allocated(&self) -> bool {
        self.index.dense_allocated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    const RANGE: usize = 16;

    #[test]
    fn rows_stay_in_id_order_across_the_dense_edge() {
        let mut t = PeerTable::new(RANGE);
        for id in [u32::MAX, 3, 17, 0, 16, 9] {
            assert_eq!(t.insert(PeerId(id), id), None);
        }
        let ids: Vec<u32> = t.iter().map(|(p, _)| p.0).collect();
        assert_eq!(ids, [0, 3, 9, 16, 17, u32::MAX]);
        assert_eq!(t.shape(), (RANGE, 3, 6), "16 and above spill, one row each");
        assert_eq!(t.remove(PeerId(3)), Some(3));
        assert_eq!(
            t.get(PeerId(17)),
            Some(&17),
            "a shift moves rows, not answers"
        );
        *t.get_or_insert(PeerId(17), 0) += 1;
        assert_eq!(t.get(PeerId(17)), Some(&18));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.shape(), (RANGE, 0, 0));
    }

    /// The index as it was before the dense array became lazy: allocated
    /// in full at construction.
    struct EagerIndex {
        dense: Vec<u32>,
        spill: Vec<(PeerId, u32)>,
    }

    impl EagerIndex {
        fn new(range: usize) -> Self {
            EagerIndex {
                dense: vec![0; range],
                spill: Vec::new(),
            }
        }

        fn get(&self, peer: PeerId) -> Option<usize> {
            let slot = match self.dense.get(peer.0 as usize) {
                Some(&v) => v,
                None => match self.spill.binary_search_by_key(&peer, |e| e.0) {
                    Ok(i) => self.spill[i].1,
                    Err(_) => 0,
                },
            };
            (slot as usize).checked_sub(1)
        }

        fn set(&mut self, peer: PeerId, pos: Option<usize>) {
            let slot = pos.map_or(0, |p| p as u32 + 1);
            if let Some(v) = self.dense.get_mut(peer.0 as usize) {
                *v = slot;
                return;
            }
            match (self.spill.binary_search_by_key(&peer, |e| e.0), slot) {
                (Ok(i), 0) => {
                    self.spill.remove(i);
                }
                (Ok(i), _) => self.spill[i].1 = slot,
                (Err(_), 0) => {}
                (Err(i), _) => self.spill.insert(i, (peer, slot)),
            }
        }

        fn clear(&mut self) {
            self.dense.fill(0);
            self.spill.clear();
        }
    }

    /// A table whose dense array is allocated before its first row, as
    /// every table's was before the array became lazy.
    fn eager_table<V>(range: usize) -> PeerTable<V> {
        let mut table = PeerTable::new(range);
        table.index.dense = vec![0; range];
        table
    }

    /// Ids inside the dense range, just above it and at the top of the id
    /// space.
    fn id_of(class: u8, small: u32) -> PeerId {
        match class {
            0 | 1 => PeerId(small % RANGE as u32),
            2 => PeerId(RANGE as u32 + small % 4),
            _ => PeerId(u32::MAX - small % 3),
        }
    }

    #[test]
    fn a_table_nothing_writes_holds_no_dense_array() {
        let mut t: PeerTable<u64> = PeerTable::new(RANGE);
        assert_eq!(t.get(PeerId(3)), None);
        assert_eq!(t.remove(PeerId(3)), None);
        t.clear();
        assert!(!t.dense_allocated(), "reads, removals and clears allocate");
        t.insert(PeerId(RANGE as u32), 1);
        assert!(!t.dense_allocated(), "a spilled row allocates");
        t.insert(PeerId(0), 1);
        assert!(t.dense_allocated());
        assert_eq!(t.shape(), (RANGE, 1, 2));
    }

    proptest! {
        /// Random `set` / `get` / remove / `clear` scripts over ids inside
        /// the dense range, just above it and at the top of the id space:
        /// the lazy index answers every id exactly as the eager one did,
        /// with the same range and spill, and holds its dense array once a
        /// present peer in range was recorded; a lazy table answers and
        /// iterates exactly as one allocated up front.
        #[test]
        fn model_lazy_peer_index_matches_eager(
            ops in proptest::collection::vec((0u8..4, 0u8..4, 0u32..20), 1..160),
        ) {
            let probes: Vec<PeerId> = (0..4u8)
                .flat_map(|class| (0..20).map(move |small| id_of(class, small)))
                .collect();
            let (mut lazy, mut eager) = (PeerIndex::new(RANGE), EagerIndex::new(RANGE));
            let (mut table, mut oracle) = (PeerTable::new(RANGE), eager_table(RANGE));
            let mut written = false;
            for (step, (op, class, small)) in ops.into_iter().enumerate() {
                let peer = id_of(class, small);
                match op {
                    0 | 1 => {
                        lazy.set(peer, Some(step));
                        eager.set(peer, Some(step));
                        written |= (peer.0 as usize) < RANGE;
                        prop_assert_eq!(table.insert(peer, step), oracle.insert(peer, step));
                    }
                    2 => {
                        lazy.set(peer, None);
                        eager.set(peer, None);
                        prop_assert_eq!(table.remove(peer), oracle.remove(peer));
                    }
                    _ if small == 0 => {
                        lazy.clear();
                        eager.clear();
                        table.clear();
                        oracle.clear();
                    }
                    _ => {}
                }
                for &probe in &probes {
                    prop_assert_eq!(lazy.get(probe), eager.get(probe), "{:?}", probe);
                    prop_assert_eq!(table.get(probe), oracle.get(probe), "{:?}", probe);
                }
                prop_assert_eq!(lazy.range(), RANGE);
                prop_assert_eq!(lazy.spilled(), eager.spill.len());
                prop_assert_eq!(lazy.dense_allocated(), written);
                prop_assert_eq!(
                    table.iter().map(|(p, v)| (p, *v)).collect::<Vec<_>>(),
                    oracle.iter().map(|(p, v)| (p, *v)).collect::<Vec<_>>()
                );
                prop_assert_eq!(table.shape(), oracle.shape());
            }
        }

        /// Scripts biased to ascending inserts — the append path a view
        /// seeded in id order takes, across the dense edge into the spill
        /// — mixed with out-of-order inserts, `get_or_insert`, `remove`
        /// and `clear`, against a `BTreeMap`: same answers, same rows in
        /// the same order, the same spill.
        #[test]
        fn model_peer_table_seeding_matches_btreemap(
            ops in proptest::collection::vec((0u8..8, 0u32..4), 1..160),
        ) {
            let mut table: PeerTable<u64> = PeerTable::new(RANGE);
            let mut model: BTreeMap<PeerId, u64> = BTreeMap::new();
            let mut top = 0u32;
            table.reserve(RANGE);
            for (step, (op, small)) in ops.into_iter().enumerate() {
                let value = step as u64;
                // Ascending ids climb past the dense range into the spill;
                // any other id lands at or below the top.
                let below = PeerId(small * 5 % (top + 1));
                match op {
                    0..=3 => {
                        top += small;
                        let peer = PeerId(top);
                        prop_assert_eq!(table.insert(peer, value), model.insert(peer, value));
                    }
                    4 => prop_assert_eq!(
                        *table.get_or_insert(PeerId(top + small), value),
                        *model.entry(PeerId(top + small)).or_insert(value)
                    ),
                    5 => prop_assert_eq!(table.insert(below, value), model.insert(below, value)),
                    6 => prop_assert_eq!(table.remove(below), model.remove(&below)),
                    _ if small == 0 => {
                        table.clear();
                        model.clear();
                        top = 0;
                    }
                    _ => {}
                }
                prop_assert_eq!(
                    table.iter().map(|(p, v)| (p, *v)).collect::<Vec<_>>(),
                    model.iter().map(|(p, v)| (*p, *v)).collect::<Vec<_>>()
                );
                for id in 0..=top + 4 {
                    prop_assert_eq!(table.get(PeerId(id)), model.get(&PeerId(id)));
                }
                let (range, spilled, rows) = table.shape();
                prop_assert_eq!(range, RANGE);
                prop_assert_eq!(spilled, model.keys().filter(|p| p.0 as usize >= RANGE).count());
                prop_assert_eq!(rows, model.len());
            }
        }

        /// Random operations over ids inside the dense range, just above
        /// it and at the top of the id space, against a `BTreeMap`: same
        /// answers, same iteration order, a dense range that never moves.
        #[test]
        fn model_peer_table_matches_btreemap(
            ops in proptest::collection::vec((0u8..7, 0u8..4, 0u32..20), 1..160),
        ) {
            let mut table: PeerTable<u64> = PeerTable::new(RANGE);
            let mut model: BTreeMap<PeerId, u64> = BTreeMap::new();
            for (step, (op, class, small)) in ops.into_iter().enumerate() {
                let peer = id_of(class, small);
                let value = step as u64;
                match op {
                    0 | 1 => prop_assert_eq!(table.insert(peer, value), model.insert(peer, value)),
                    2 => prop_assert_eq!(table.remove(peer), model.remove(&peer)),
                    3 => prop_assert_eq!(
                        *table.get_or_insert(peer, value),
                        *model.entry(peer).or_insert(value)
                    ),
                    4 => {
                        if let Some(row) = table.get_mut(peer) {
                            *row += 1;
                        }
                        if let Some(row) = model.get_mut(&peer) {
                            *row += 1;
                        }
                    }
                    5 if small == 0 => {
                        table.clear();
                        model.clear();
                    }
                    _ => {}
                }
                prop_assert_eq!(table.get(peer), model.get(&peer));
                prop_assert_eq!(table.len(), model.len());
                prop_assert_eq!(table.is_empty(), model.is_empty());
                prop_assert_eq!(
                    table.iter().map(|(p, v)| (p, *v)).collect::<Vec<_>>(),
                    model.iter().map(|(p, v)| (*p, *v)).collect::<Vec<_>>()
                );
                let (range, spilled, rows) = table.shape();
                prop_assert_eq!(range, RANGE);
                prop_assert_eq!(spilled, model.keys().filter(|p| p.0 as usize >= RANGE).count());
                prop_assert_eq!(rows, model.len());
            }
        }
    }
}
