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
//! found by binary search, behaving exactly like a dense one.

use fabric_types::ids::PeerId;

/// Maps peer ids to positions (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct PeerIndex {
    /// `dense[id] = position + 1` (0 = absent) for ids below its length.
    dense: Vec<u32>,
    /// `(peer, position + 1)` for present peers at or above the dense
    /// range, sorted by peer.
    spill: Vec<(PeerId, u32)>,
}

impl PeerIndex {
    /// An empty index with dense slots for the ids `0..range`.
    pub fn new(range: usize) -> Self {
        PeerIndex {
            dense: vec![0; range],
            spill: Vec::new(),
        }
    }

    /// The number of dense slots: fixed at construction.
    pub fn range(&self) -> usize {
        self.dense.len()
    }

    /// Position of `peer`, if present.
    pub fn get(&self, peer: PeerId) -> Option<usize> {
        let slot = match self.dense.get(peer.0 as usize) {
            Some(&v) => v,
            None => match self.spill.binary_search_by_key(&peer, |e| e.0) {
                Ok(i) => self.spill[i].1,
                Err(_) => 0,
            },
        };
        (slot as usize).checked_sub(1)
    }

    /// Records `peer` at `pos`, or forgets it for `None`.
    pub fn set(&mut self, peer: PeerId, pos: Option<usize>) {
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
        self.reindex(i);
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

    /// Inserts a row for an absent `peer`, returning its position.
    fn add(&mut self, peer: PeerId, value: V) -> usize {
        let i = self.rows.partition_point(|(p, _)| *p < peer);
        self.rows.insert(i, (peer, value));
        self.reindex(i);
        i
    }

    /// Points the index at the rows from `from` on, after a shift.
    fn reindex(&mut self, from: usize) {
        for (i, (peer, _)) in self.rows.iter().enumerate().skip(from) {
            self.index.set(*peer, Some(i));
        }
    }

    /// `(dense slots, spilled rows, rows)`: what a hostile id must not
    /// grow by more than one row.
    #[cfg(test)]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.index.range(), self.index.spilled(), self.rows.len())
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

    proptest! {
        /// Random operations over ids inside the dense range, just above
        /// it and at the top of the id space, against a `BTreeMap`: same
        /// answers, same iteration order, a dense range that never moves.
        #[test]
        fn model_peer_table_matches_btreemap(
            ops in proptest::collection::vec((0u8..7, 0u8..4, 0u32..20), 1..160),
        ) {
            let id_of = |class: u8, small: u32| match class {
                0 | 1 => PeerId(small % RANGE as u32),
                2 => PeerId(RANGE as u32 + small % 4),
                _ => PeerId(u32::MAX - small % 3),
            };
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
