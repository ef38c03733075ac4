//! Membership view and uniform peer sampling.
//!
//! Within an organization every peer knows every other peer (Fabric builds
//! this view with its discovery/alive gossip; here it is seeded with the
//! full roster). A view is a roster, an id index and a sampler; sampling
//! excludes the local peer. Whether a peer is alive is not recorded here:
//! under gossiped discovery the [`crate::discovery::DiscoveryEngine`]
//! keeps that beside each claim and edits the roster on a join or a reap,
//! and on a static roster nothing asks.

use std::fmt;
use std::ops::Deref;

use rand::rngs::StdRng;
use rand::RngExt;

use fabric_types::ids::PeerId;

use crate::peertable::{PeerIndex, PeerTable};

/// The most peers one [`Membership::sample`] draws: a draw is held
/// inline, and `GossipConfig::validate` holds `fout` and `f_leader_out` to
/// it.
pub const MAX_FANOUT: usize = 16;

/// Up to [`MAX_FANOUT`] distinct peers drawn by [`Membership::sample`], in
/// draw order, held inline: a draw allocates nothing. Derefs to the drawn
/// peers.
#[derive(Clone, Copy)]
pub struct Sample {
    len: usize,
    peers: [PeerId; MAX_FANOUT],
}

impl Deref for Sample {
    type Target = [PeerId];

    fn deref(&self) -> &[PeerId] {
        &self.peers[..self.len]
    }
}

impl fmt::Debug for Sample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq<Vec<PeerId>> for Sample {
    fn eq(&self, other: &Vec<PeerId>) -> bool {
        **self == other[..]
    }
}

impl IntoIterator for Sample {
    type Item = PeerId;
    type IntoIter = std::iter::Take<std::array::IntoIter<PeerId, MAX_FANOUT>>;

    fn into_iter(self) -> Self::IntoIter {
        self.peers.into_iter().take(self.len)
    }
}

impl<'a> IntoIterator for &'a Sample {
    type Item = &'a PeerId;
    type IntoIter = std::slice::Iter<'a, PeerId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The local peer's view of its organization (or, widened, its channel).
///
/// Lookups by peer id are O(1) through a dense id→position `PeerIndex`:
/// recovery asks `contains` of every `StateInfo` and discovery of every
/// merged claim, where a linear roster scan would cost O(n) per message at
/// 100-peer scale. The index is pure bookkeeping — iteration order,
/// sampling order and every observable result are those of the roster.
///
/// The dense index spans the ids the view was built with and never grows:
/// a peer admitted at runtime above that range (a join observed through
/// discovery, whose id came off the wire) gets a row in the index's sorted
/// spill instead, so no table is sized by the numeric value of an id.
#[derive(Debug, Clone)]
pub struct Membership {
    self_id: PeerId,
    peers: Vec<PeerId>,
    /// Each peer's position in `peers`; dense up to the largest id of the
    /// build-time roster.
    index: PeerIndex,
}

impl Membership {
    /// Builds the view for `self_id` over the full `roster` (which may or
    /// may not include `self_id`; it is never sampled either way).
    pub fn new(self_id: PeerId, roster: &[PeerId]) -> Self {
        let mut peers = roster.to_vec();
        while let Some(at) = peers.iter().position(|p| *p == self_id) {
            peers.remove(at);
        }
        Membership {
            self_id,
            index: PeerIndex::over(&peers),
            peers,
        }
    }

    /// An empty per-peer table over this view's dense range: the ids it
    /// was built with, never one admitted since.
    pub(crate) fn table<V>(&self) -> PeerTable<V> {
        PeerTable::new(self.index.range())
    }

    /// The local peer id.
    pub fn self_id(&self) -> PeerId {
        self.self_id
    }

    /// All other peers in the organization.
    pub fn peers(&self) -> &[PeerId] {
        &self.peers
    }

    /// Number of other peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// `true` when the peer is alone in its organization.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Whether `peer` is in the view (never true for the local peer).
    pub fn contains(&self, peer: PeerId) -> bool {
        self.index.get(peer).is_some()
    }

    /// Adds `peer` to the view at runtime (a channel join observed through
    /// discovery); it is sampleable at once. Adding `self_id` or an
    /// already-known peer is a no-op.
    pub fn add_peer(&mut self, peer: PeerId) {
        if peer == self.self_id || self.contains(peer) {
            return;
        }
        self.peers.push(peer);
        self.index.set(peer, Some(self.peers.len() - 1));
    }

    /// Removes `peer` from the view at runtime (a channel leave). Returns
    /// whether the peer was present. A removed peer is never sampled again.
    pub fn remove_peer(&mut self, peer: PeerId) -> bool {
        match self.index.get(peer) {
            Some(idx) => {
                self.peers.remove(idx);
                self.index.set(peer, None);
                self.index.reindex(idx, self.peers[idx..].iter().copied());
                true
            }
            None => false,
        }
    }

    /// Draws up to `k` distinct peers uniformly at random, excluding self.
    ///
    /// Partial Fisher–Yates over a virtual copy of the roster: the draw
    /// for slot `i` is `random_range(i..n)`, as over a real copy, but only
    /// the entries the swaps displaced are written down (at most `k`, on
    /// the stack), so a draw costs O(k²) with `k` the fan-out, whatever
    /// the roster size, and allocates nothing. Exact uniformity,
    /// deterministic under the simulation RNG.
    ///
    /// # Panics
    ///
    /// If `k` exceeds [`MAX_FANOUT`].
    pub fn sample(&self, rng: &mut StdRng, k: usize) -> Sample {
        assert!(
            k <= MAX_FANOUT,
            "a sample holds at most {MAX_FANOUT} peers; {k} were asked for"
        );
        let n = self.peers.len();
        let take = k.min(n);
        let mut picked = Sample {
            len: take,
            peers: [PeerId(0); MAX_FANOUT],
        };
        // `(position, peer)`: what the copy holds where it differs from
        // `peers`, in its first `moved` entries. Slots below `i` are never
        // read again.
        let mut displaced = [(0usize, PeerId(0)); MAX_FANOUT];
        let mut moved = 0;
        for i in 0..take {
            let j = rng.random_range(i..n);
            let at = |pos: usize| {
                displaced[..moved]
                    .iter()
                    .find(|(p, _)| *p == pos)
                    .map_or(self.peers[pos], |(_, peer)| *peer)
            };
            let (head, drawn) = (at(i), at(j));
            picked.peers[i] = drawn;
            match displaced[..moved].iter_mut().find(|(p, _)| *p == j) {
                Some(slot) => slot.1 = head,
                None => {
                    displaced[moved] = (j, head);
                    moved += 1;
                }
            }
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn membership(n: u32) -> Membership {
        Membership::new(PeerId(0), &(0..n).map(PeerId).collect::<Vec<_>>())
    }

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn roster_excludes_self() {
        let m = membership(5);
        assert_eq!(m.len(), 4);
        assert!(!m.peers().contains(&PeerId(0)));
    }

    #[test]
    fn sample_never_returns_self_or_duplicates() {
        let m = membership(10);
        let mut r = rng(3);
        for _ in 0..100 {
            let s = m.sample(&mut r, 4);
            assert_eq!(s.len(), 4);
            assert!(!s.contains(&PeerId(0)));
            let mut dedup = s.to_vec();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 4);
        }
    }

    #[test]
    fn sample_caps_at_population() {
        let m = membership(4);
        let s = m.sample(&mut rng(1), 10);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let m = membership(11); // 10 candidates
        let mut r = rng(42);
        let mut counts: HashMap<PeerId, u32> = HashMap::new();
        for _ in 0..10_000 {
            for p in m.sample(&mut r, 3) {
                *counts.entry(p).or_default() += 1;
            }
        }
        // Each of 10 peers should appear ~3000 times.
        for p in m.peers() {
            let c = counts[p];
            assert!((2600..=3400).contains(&c), "peer {p} drawn {c} times");
        }
    }

    #[test]
    fn add_peer_is_sampleable_once() {
        let mut m = membership(3);
        m.add_peer(PeerId(9));
        assert!(m.contains(PeerId(9)));
        // Re-adding does not duplicate the entry.
        m.add_peer(PeerId(9));
        assert_eq!(m.peers(), [PeerId(1), PeerId(2), PeerId(9)]);
        // Adding self is inert.
        m.add_peer(PeerId(0));
        assert!(!m.contains(PeerId(0)));
    }

    #[test]
    fn remove_peer_forgets_the_entry() {
        let mut m = membership(4);
        assert!(m.remove_peer(PeerId(2)));
        assert!(!m.contains(PeerId(2)));
        assert!(!m.remove_peer(PeerId(2)), "second removal is a no-op");
        assert_eq!(m.peers(), [PeerId(1), PeerId(3)]);
    }

    #[test]
    fn ids_above_the_built_range_cost_one_row_each() {
        let mut m = membership(4);
        let joiners = [PeerId(u32::MAX), PeerId(u32::MAX - 1), PeerId(7)];
        for p in joiners {
            m.add_peer(p);
        }
        assert_eq!(m.index.range(), 4, "the dense index never grows");
        assert_eq!(m.index.spilled(), 3);
        // A removal ahead of them shifts their positions, not their answers.
        assert!(m.remove_peer(PeerId(1)));
        assert!(joiners.iter().all(|p| m.contains(*p)));
        assert!(m.remove_peer(PeerId(u32::MAX)));
        assert!(!m.contains(PeerId(u32::MAX)));
        assert_eq!(m.index.spilled(), 2);
        let expected = [2, 3, u32::MAX - 1, 7].map(PeerId);
        assert_eq!(m.peers(), expected);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        /// The sampler as it was before the virtual copy: copy the roster
        /// into a fresh pool, partially shuffle it, truncate.
        fn copy_and_shuffle(peers: &[PeerId], rng: &mut StdRng, k: usize) -> Vec<PeerId> {
            let mut pool = peers.to_vec();
            let take = k.min(pool.len());
            for i in 0..take {
                let j = rng.random_range(i..pool.len());
                pool.swap(i, j);
            }
            pool.truncate(take);
            pool
        }

        proptest! {
            /// Same targets and the same RNG stream afterwards, over
            /// random rosters, fan-outs and seeds, through roster changes
            /// and repeated draws on one view.
            #[test]
            fn model_sample_matches_copy_and_shuffle(
                roster in proptest::collection::vec(0u32..120, 0..60),
                draws in proptest::collection::vec((0usize..12, 0u32..130), 1..12),
                seed in any::<u64>(),
            ) {
                let roster: Vec<PeerId> = roster.into_iter().map(PeerId).collect();
                let mut m = Membership::new(PeerId(7), &roster);
                let (mut ours, mut theirs) = (rng(seed), rng(seed));
                for (k, churn) in draws {
                    if churn % 3 == 0 {
                        m.add_peer(PeerId(churn));
                    } else if churn % 3 == 1 {
                        m.remove_peer(PeerId(churn));
                    }
                    prop_assert_eq!(
                        m.sample(&mut ours, k),
                        copy_and_shuffle(m.peers(), &mut theirs, k)
                    );
                    prop_assert_eq!(ours.random::<u64>(), theirs.random::<u64>());
                }
            }
        }
    }
}
