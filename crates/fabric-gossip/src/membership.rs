//! Membership view and uniform peer sampling.
//!
//! Within an organization every peer knows every other peer (Fabric builds
//! this view with its discovery/alive gossip; here the view is seeded with
//! the full roster and kept fresh by heartbeats). Sampling excludes the
//! local peer and, optionally, peers believed dead.

use desim::{Duration, Time};
use rand::rngs::StdRng;
use rand::RngExt;

use fabric_types::ids::PeerId;

/// The local peer's view of its organization.
///
/// Lookups by peer id are O(1) through a dense id→position index:
/// `mark_alive` runs twice per received gossip message, so the seed's
/// linear roster scan was an O(n) tax on every single delivery at
/// 100-peer scale. The index is pure bookkeeping — iteration order,
/// sampling order and every observable result are unchanged.
#[derive(Debug, Clone)]
pub struct Membership {
    self_id: PeerId,
    peers: Vec<PeerId>,
    /// Last time each roster entry was heard from (index-aligned with
    /// `peers`); `None` until first contact, treated as alive at startup.
    last_heard: Vec<Option<Time>>,
    /// Dense map `peer.0 → position + 1` in `peers` (0 = absent).
    index: Vec<u32>,
    alive_timeout: Duration,
    /// The pool [`Membership::sample_filtered`] shuffles, kept between
    /// calls so drawing fan-out targets allocates only its result.
    scratch: Vec<PeerId>,
}

impl Membership {
    /// Builds the view for `self_id` over the full `roster` (which may or
    /// may not include `self_id`; it is never sampled either way).
    pub fn new(self_id: PeerId, roster: Vec<PeerId>, alive_timeout: Duration) -> Self {
        let peers: Vec<PeerId> = roster.into_iter().filter(|p| *p != self_id).collect();
        let last_heard = vec![None; peers.len()];
        let mut m = Membership {
            self_id,
            peers,
            last_heard,
            index: Vec::new(),
            alive_timeout,
            scratch: Vec::new(),
        };
        m.reindex(0);
        m
    }

    /// Rebuilds the id→position index for entries at `from` and beyond.
    fn reindex(&mut self, from: usize) {
        for i in from..self.peers.len() {
            let id = self.peers[i].0 as usize;
            if self.index.len() <= id {
                self.index.resize(id + 1, 0);
            }
            self.index[id] = (i + 1) as u32;
        }
    }

    /// Position of `peer` in `peers`, if present.
    fn pos(&self, peer: PeerId) -> Option<usize> {
        match self.index.get(peer.0 as usize) {
            Some(&v) if v > 0 => Some((v - 1) as usize),
            _ => None,
        }
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
        self.pos(peer).is_some()
    }

    /// Records that `peer` was heard from at `now`.
    pub fn mark_alive(&mut self, peer: PeerId, now: Time) {
        if let Some(idx) = self.pos(peer) {
            self.last_heard[idx] = Some(now);
        }
    }

    /// Whether `peer` is believed alive at `now`: heard from within the
    /// timeout. Peers never heard from get a startup grace of one timeout
    /// from time zero, after which silence means death.
    pub fn believes_alive(&self, peer: PeerId, now: Time) -> bool {
        match self.pos(peer) {
            Some(idx) => match self.last_heard[idx] {
                None => now.since(Time::ZERO) <= self.alive_timeout,
                Some(t) => now.since(t) <= self.alive_timeout,
            },
            None => false,
        }
    }

    /// Peers believed alive at `now`, in id order.
    pub fn alive_peers(&self, now: Time) -> Vec<PeerId> {
        self.peers
            .iter()
            .copied()
            .filter(|p| self.believes_alive(*p, now))
            .collect()
    }

    /// Adds `peer` to the view at runtime (a channel join observed through
    /// discovery). The join announcement counts as first contact, so the
    /// newcomer is immediately sampleable and believed alive from `now`.
    /// Adding `self_id` or an already-known peer is a no-op.
    pub fn add_peer(&mut self, peer: PeerId, now: Time) {
        if peer == self.self_id {
            return;
        }
        match self.pos(peer) {
            Some(idx) => self.last_heard[idx] = Some(now),
            None => {
                self.peers.push(peer);
                self.last_heard.push(Some(now));
                self.reindex(self.peers.len() - 1);
            }
        }
    }

    /// Removes `peer` from the view at runtime (a channel leave). Returns
    /// whether the peer was present. A removed peer is never sampled again
    /// and is not believed alive.
    pub fn remove_peer(&mut self, peer: PeerId) -> bool {
        match self.pos(peer) {
            Some(idx) => {
                self.peers.remove(idx);
                self.last_heard.remove(idx);
                self.index[peer.0 as usize] = 0;
                self.reindex(idx);
                true
            }
            None => false,
        }
    }

    /// Carries learned liveness over from `prev` for peers present in both
    /// views, keeping the freshest timestamp. Used when a deployment widens
    /// a channel view: rebuilding the view must never make a known-alive
    /// peer look silent.
    pub fn adopt_liveness(&mut self, prev: &Membership) {
        for (idx, p) in self.peers.iter().enumerate() {
            if let Some(prev_idx) = prev.pos(*p) {
                if let Some(t) = prev.last_heard[prev_idx] {
                    self.last_heard[idx] = Some(match self.last_heard[idx] {
                        Some(cur) => cur.max(t),
                        None => t,
                    });
                }
            }
        }
    }

    /// Draws up to `k` distinct peers uniformly at random, excluding self.
    ///
    /// Partial Fisher–Yates over a scratch copy: O(k) swaps, exact
    /// uniformity, deterministic under the simulation RNG.
    pub fn sample(&mut self, rng: &mut StdRng, k: usize) -> Vec<PeerId> {
        self.sample_filtered(rng, k, |_| true)
    }

    /// Like [`Membership::sample`] but only over peers passing `keep`.
    pub fn sample_filtered(
        &mut self,
        rng: &mut StdRng,
        k: usize,
        keep: impl Fn(PeerId) -> bool,
    ) -> Vec<PeerId> {
        let pool = &mut self.scratch;
        pool.clear();
        pool.extend(self.peers.iter().copied().filter(|p| keep(*p)));
        let take = k.min(pool.len());
        for i in 0..take {
            let j = rng.random_range(i..pool.len());
            pool.swap(i, j);
        }
        pool[..take].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn membership(n: u32) -> Membership {
        Membership::new(
            PeerId(0),
            (0..n).map(PeerId).collect(),
            Duration::from_secs(25),
        )
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
        let mut m = membership(10);
        let mut r = rng(3);
        for _ in 0..100 {
            let s = m.sample(&mut r, 4);
            assert_eq!(s.len(), 4);
            assert!(!s.contains(&PeerId(0)));
            let mut dedup = s.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 4);
        }
    }

    #[test]
    fn sample_caps_at_population() {
        let mut m = membership(4);
        let s = m.sample(&mut rng(1), 10);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn sample_is_roughly_uniform() {
        let mut m = membership(11); // 10 candidates
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
    fn alive_tracking_times_out() {
        let mut m = membership(3);
        let t0 = Time::ZERO;
        // Startup grace: everyone counts as alive.
        assert!(m.believes_alive(PeerId(1), t0));
        m.mark_alive(PeerId(1), Time::from_secs(10));
        assert!(m.believes_alive(PeerId(1), Time::from_secs(30)));
        assert!(!m.believes_alive(PeerId(1), Time::from_secs(40)));
        assert!(!m.believes_alive(PeerId(99), t0), "strangers are not alive");
    }

    #[test]
    fn alive_peers_lists_survivors() {
        let mut m = membership(4);
        let now = Time::from_secs(100);
        m.mark_alive(PeerId(1), Time::from_secs(99));
        m.mark_alive(PeerId(2), Time::from_secs(10)); // stale
                                                      // PeerId(3) was never heard from and the startup grace has lapsed.
        assert_eq!(m.alive_peers(now), vec![PeerId(1)]);
    }

    #[test]
    fn startup_grace_expires_for_silent_peers() {
        let m = membership(3);
        assert!(m.believes_alive(PeerId(1), Time::from_secs(10)));
        assert!(!m.believes_alive(PeerId(1), Time::from_secs(30)));
    }

    #[test]
    fn adopt_liveness_keeps_the_freshest_timestamp() {
        let mut old = membership(4);
        old.mark_alive(PeerId(1), Time::from_secs(50));
        old.mark_alive(PeerId(2), Time::from_secs(60));
        let mut widened = Membership::new(
            PeerId(0),
            (0..6).map(PeerId).collect(),
            Duration::from_secs(25),
        );
        widened.mark_alive(PeerId(2), Time::from_secs(70)); // already fresher
        widened.adopt_liveness(&old);
        let now = Time::from_secs(70);
        assert!(widened.believes_alive(PeerId(1), now), "carried over");
        assert!(widened.believes_alive(PeerId(2), now));
        // Peer 4 exists only in the widened view: startup-grace rules apply.
        assert!(!widened.believes_alive(PeerId(4), Time::from_secs(70)));
    }

    #[test]
    fn add_peer_is_sampleable_and_alive_from_now() {
        let mut m = membership(3);
        let now = Time::from_secs(100);
        m.add_peer(PeerId(9), now);
        assert!(m.peers().contains(&PeerId(9)));
        assert!(m.believes_alive(PeerId(9), now + Duration::from_secs(5)));
        // Re-adding refreshes liveness instead of duplicating the entry.
        m.add_peer(PeerId(9), now + Duration::from_secs(50));
        assert_eq!(m.peers().iter().filter(|p| **p == PeerId(9)).count(), 1);
        assert!(m.believes_alive(PeerId(9), Time::from_secs(160)));
        // Adding self is inert.
        m.add_peer(PeerId(0), now);
        assert!(!m.peers().contains(&PeerId(0)));
    }

    #[test]
    fn remove_peer_forgets_the_entry() {
        let mut m = membership(4);
        m.mark_alive(PeerId(2), Time::from_secs(10));
        assert!(m.remove_peer(PeerId(2)));
        assert!(!m.peers().contains(&PeerId(2)));
        assert!(!m.believes_alive(PeerId(2), Time::from_secs(11)));
        assert!(!m.remove_peer(PeerId(2)), "second removal is a no-op");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn sample_filtered_respects_predicate() {
        let mut m = membership(10);
        let mut r = rng(7);
        let s = m.sample_filtered(&mut r, 5, |p| p.0 % 2 == 0);
        assert!(!s.is_empty());
        assert!(s.iter().all(|p| p.0 % 2 == 0));
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        /// The sampler as it was before the kept scratch: copy the kept
        /// peers into a fresh pool, partially shuffle it, truncate.
        fn copy_and_shuffle(
            peers: &[PeerId],
            rng: &mut StdRng,
            k: usize,
            keep: impl Fn(PeerId) -> bool,
        ) -> Vec<PeerId> {
            let mut pool: Vec<PeerId> = peers.iter().copied().filter(|p| keep(*p)).collect();
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
            /// random rosters, fan-outs, filters and seeds, through roster
            /// changes and repeated draws on one view.
            #[test]
            fn model_sample_matches_copy_and_shuffle(
                roster in proptest::collection::vec(0u32..120, 0..60),
                draws in proptest::collection::vec((0usize..12, 0u32..5, 0u32..130), 1..12),
                seed in any::<u64>(),
            ) {
                let mut m = Membership::new(
                    PeerId(7),
                    roster.into_iter().map(PeerId).collect(),
                    Duration::from_secs(25),
                );
                let (mut ours, mut theirs) = (rng(seed), rng(seed));
                for (k, modulus, churn) in draws {
                    if churn % 3 == 0 {
                        m.add_peer(PeerId(churn), Time::ZERO);
                    } else if churn % 3 == 1 {
                        m.remove_peer(PeerId(churn));
                    }
                    let peers = m.peers().to_vec();
                    if modulus == 0 {
                        prop_assert_eq!(
                            m.sample(&mut ours, k),
                            copy_and_shuffle(&peers, &mut theirs, k, |_| true)
                        );
                    } else {
                        let keep = |p: PeerId| !p.0.is_multiple_of(modulus);
                        prop_assert_eq!(
                            m.sample_filtered(&mut ours, k, keep),
                            copy_and_shuffle(&peers, &mut theirs, k, keep)
                        );
                    }
                    prop_assert_eq!(ours.random::<u64>(), theirs.random::<u64>());
                }
            }
        }
    }
}
