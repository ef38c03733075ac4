//! The push engine: infect-and-die (stock Fabric) and infect-upon-contagion
//! (the paper's enhancement), including digest announcements and the
//! content-fetch retry machinery.
//!
//! The engine owns only push-private state; everything shared with the
//! other engines (store, membership, counters, configuration) lives in the
//! [`ChannelCore`] passed into every entry point, which makes the protocol
//! logic here directly unit-testable against a bare core and
//! [`crate::testing::MockEffects`].
//!
//! Every digest asks the dedup memory "was this `(block, counter)` pair
//! seen?", so that memory is one word per block — a bitmask over the
//! counters, indexed by block number (`BlockMap`) — not an entry per
//! pair. It is never pruned while the store holds the block (a late
//! digest must stay silent), and is released together with the block rows
//! a snapshot absorbs ([`PushEngine::release_through`]).

use std::collections::BTreeSet;

use desim::Duration;
use fabric_types::block::BlockRef;
use fabric_types::ids::PeerId;

use crate::blockmap::BlockMap;
use crate::channel::ChannelCore;
use crate::config::PushMode;
use crate::effects::Effects;
use crate::messages::{GossipMsg, GossipTimer};

/// Infect-and-die buffer capacity: a buffer holding this many blocks
/// flushes before `tpush` runs out (Fabric's push burst size).
pub(crate) const PUSH_BURST: usize = 10;

/// How long a content fetch announced by a push digest waits before
/// re-requesting from another advertiser.
pub(crate) const FETCH_TIMEOUT: Duration = Duration::from_millis(500);

/// Fetch attempts per block before giving up (recovery then takes over).
pub(crate) const FETCH_ATTEMPTS: u32 = 5;

/// A fetch in flight for block content announced by push digests.
#[derive(Debug, Clone, Default)]
struct PendingFetch {
    /// Counters received in digests while the content was missing; each one
    /// owes a forward once the content arrives.
    counters: Vec<u32>,
    /// Peers that advertised the block (retry candidates).
    advertisers: Vec<PeerId>,
    /// Fetch attempts made so far.
    attempts: u32,
}

/// The `(block, counter)` pairs already processed: per block, bit `c` of
/// the mask is counter `c`. Every preset's TTL is 9 or 19; a counter the
/// word cannot hold (the wire allows any `u32`) goes to an ordered set, so
/// the answer is exact on every input.
#[derive(Debug, Default)]
struct SeenPairs {
    masks: BlockMap<u64>,
    wide: BTreeSet<(u64, u32)>,
}

impl SeenPairs {
    /// Records the pair; `true` when it was new.
    fn insert(&mut self, block_num: u64, counter: u32) -> bool {
        if counter >= u64::BITS {
            return self.wide.insert((block_num, counter));
        }
        let bit = 1u64 << counter;
        match self.masks.get_mut(block_num) {
            Some(mask) => {
                let new = *mask & bit == 0;
                *mask |= bit;
                new
            }
            None => {
                self.masks.insert(block_num, bit);
                true
            }
        }
    }

    /// Forgets every pair of the blocks at or below `height`.
    fn drop_through(&mut self, height: u64) {
        self.masks.drop_through(height);
        self.wide.retain(|(block_num, _)| *block_num > height);
    }
}

/// Push-phase state of one channel instance.
#[derive(Debug, Default)]
pub struct PushEngine {
    // ---- push: original (infect-and-die) ----
    /// Blocks awaiting the buffered push flush.
    push_buffer: Vec<BlockRef>,
    /// Whether a PushFlush timer is armed.
    flush_armed: bool,

    // ---- push: enhanced (infect-upon-contagion) ----
    /// `(block, counter)` pairs already processed.
    seen_pairs: SeenPairs,
    /// Content fetches in flight, by block number.
    pending_fetch: BlockMap<PendingFetch>,
    /// Pairs awaiting a buffered forward (`tpush > 0` ablation).
    forward_buffer: Vec<(BlockRef, u32)>,
}

impl PushEngine {
    /// Drops everything a process crash would lose (buffers, in-flight
    /// fetches, dedup memory is *kept* — it mirrors the store, which
    /// survives).
    pub fn clear_volatile(&mut self) {
        self.push_buffer.clear();
        self.forward_buffer.clear();
        self.flush_armed = false;
        self.pending_fetch = BlockMap::default();
    }

    /// `(rows allocated, rows held)` of the dedup memory and of the
    /// fetches in flight, for the bound checks of the wire tests.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> [(usize, usize); 2] {
        let seen = &self.seen_pairs;
        [
            (
                seen.masks.capacity() + seen.wide.len(),
                seen.masks.len() + seen.wide.len(),
            ),
            (self.pending_fetch.capacity(), self.pending_fetch.len()),
        ]
    }

    /// A snapshot absorbed every block up to `height`: the store dropped
    /// their rows, and the push state about them goes with them — nothing
    /// at or below the floor is fetched again, and no digest for it
    /// forwards.
    pub fn release_through(&mut self, height: u64) {
        self.seen_pairs.drop_through(height);
        self.pending_fetch.drop_through(height);
    }

    /// Entry point for a block delivered by the ordering service.
    pub fn on_block_from_orderer(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        block: BlockRef,
    ) {
        let num = block.number();
        let is_new = core.accept_content(fx, &block);
        if !is_new {
            return;
        }
        if !core.forwarding {
            return;
        }
        match core.cfg.push {
            PushMode::InfectAndDie { .. } => {
                // The leader pushes through the same buffered emitter as any
                // first reception (f_leader_out == fout in stock Fabric).
                self.buffer_for_push(core, fx, block);
            }
            PushMode::InfectUponContagion { .. } => {
                // Hand the block to f_leader_out random peers with counter 0;
                // they start the infect-upon-contagion dissemination.
                self.seen_pairs.insert(num, 0);
                let targets = {
                    let k = core.cfg.f_leader_out;
                    core.membership.sample(fx.rng(), k)
                };
                for t in targets {
                    core.stats.blocks_sent += 1;
                    core.send(
                        fx,
                        t,
                        GossipMsg::BlockPush {
                            block: block.clone(),
                            counter: 0,
                        },
                    );
                }
            }
        }
    }

    /// Full block content arriving with a dissemination counter.
    pub fn on_block_push(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        _from: PeerId,
        block: BlockRef,
        counter: u32,
    ) {
        let num = block.number();
        let is_new = core.accept_content(fx, &block);
        // Forward only content the store vouches for — on a duplicate the
        // held copy and the received one are identical unless the payload
        // conflicted, in which case the held one wins.
        let block = if is_new {
            block
        } else {
            match core.store.get(num) {
                Some(held) => held.clone(),
                // A duplicate of a block a snapshot absorbed.
                None if core.store.has(num) => block,
                // Rejected payload (forged or conflicting), not a duplicate:
                // never forward it, and leave any pending fetch armed so the
                // retry rotation can reach an honest advertiser instead.
                None => return,
            }
        };
        if !core.forwarding {
            return;
        }
        match core.cfg.push {
            PushMode::InfectAndDie { .. } => {
                // Infect and die: forward only on first content reception.
                if is_new {
                    self.buffer_for_push(core, fx, block);
                }
            }
            PushMode::InfectUponContagion { ttl, .. } => {
                // Forward once per distinct counter; content arrival also
                // settles the forwards owed by digests that preceded it.
                let mut owed: Vec<u32> = Vec::new();
                if is_new {
                    if let Some(pending) = self.pending_fetch.remove(num) {
                        owed.extend(pending.counters);
                    }
                }
                if self.seen_pairs.insert(num, counter) {
                    owed.push(counter);
                }
                owed.sort_unstable();
                owed.dedup();
                for c in owed {
                    if c < ttl {
                        self.queue_forward(core, fx, block.clone(), c + 1);
                    }
                }
            }
        }
    }

    /// A digest announcing content this peer may lack.
    pub fn on_push_digest(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        from: PeerId,
        block_num: u64,
        counter: u32,
    ) {
        core.stats.digests_received += 1;
        let PushMode::InfectUponContagion { ttl, .. } = core.cfg.push else {
            return; // digests are not part of the original protocol
        };
        if !core.forwarding {
            // A free-rider still fetches content it lacks (it wants the
            // chain) but never re-announces it.
            if !self.seen_pairs.insert(block_num, counter) || core.store.has(block_num) {
                return;
            }
            let pending = self.pending(block_num);
            pending.counters.push(counter);
            if !pending.advertisers.contains(&from) {
                pending.advertisers.push(from);
            }
            if pending.attempts == 0 {
                pending.attempts = 1;
                core.stats.fetch_requests += 1;
                core.send(fx, from, GossipMsg::PushRequest { block_num, counter });
                core.schedule(
                    fx,
                    FETCH_TIMEOUT,
                    GossipTimer::FetchRetry {
                        block_num,
                        attempt: 1,
                    },
                );
            }
            return;
        }
        if !self.seen_pairs.insert(block_num, counter) {
            return;
        }
        match core.store.get(block_num) {
            Some(block) => {
                if counter < ttl {
                    let block = block.clone();
                    self.queue_forward(core, fx, block, counter + 1);
                }
                return;
            }
            // Genesis, or absorbed by a snapshot: present, but there is no
            // content to forward and none to fetch.
            None if core.store.has(block_num) => return,
            None => {}
        }
        // Content missing: fetch it, remembering the counter so the forward
        // happens when the block arrives.
        let pending = self.pending(block_num);
        pending.counters.push(counter);
        if !pending.advertisers.contains(&from) {
            pending.advertisers.push(from);
        }
        let first_request = pending.attempts == 0;
        if first_request {
            pending.attempts = 1;
            core.stats.fetch_requests += 1;
            core.send(fx, from, GossipMsg::PushRequest { block_num, counter });
            core.schedule(
                fx,
                FETCH_TIMEOUT,
                GossipTimer::FetchRetry {
                    block_num,
                    attempt: 1,
                },
            );
        }
    }

    /// Serves a content request issued after one of our digests.
    pub fn on_push_request(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        from: PeerId,
        block_num: u64,
        counter: u32,
    ) {
        if let Some(block) = core.store.get(block_num) {
            let block = block.clone();
            core.stats.blocks_sent += 1;
            core.send(fx, from, GossipMsg::BlockPush { block, counter });
        }
    }

    /// The fetch-retry timer: re-request missing content, rotating through
    /// the advertisers, until the attempt budget runs out.
    pub fn on_fetch_retry(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        block_num: u64,
        attempt: u32,
    ) {
        if core.store.has(block_num) {
            return; // fetched in the meantime
        }
        let Some(pending) = self.pending_fetch.get_mut(block_num) else {
            return;
        };
        if attempt >= FETCH_ATTEMPTS {
            // Give up; the recovery component will catch this block up.
            self.pending_fetch.remove(block_num);
            return;
        }
        pending.attempts = attempt + 1;
        let counter = pending.counters.last().copied().unwrap_or(0);
        // Prefer an advertiser we have not asked yet (they rotate by
        // attempt); any advertiser certainly has the content.
        let advertisers = pending.advertisers.clone();
        let target = advertisers
            .get(attempt as usize % advertisers.len().max(1))
            .copied()
            .unwrap_or_else(|| {
                core.membership
                    .sample(fx.rng(), 1)
                    .first()
                    .copied()
                    .unwrap_or(core.self_id)
            });
        core.stats.fetch_requests += 1;
        core.send(fx, target, GossipMsg::PushRequest { block_num, counter });
        core.schedule(
            fx,
            FETCH_TIMEOUT,
            GossipTimer::FetchRetry {
                block_num,
                attempt: attempt + 1,
            },
        );
    }

    /// The fetch in flight for `block_num`, opened if there is none.
    fn pending(&mut self, block_num: u64) -> &mut PendingFetch {
        if self.pending_fetch.get(block_num).is_none() {
            self.pending_fetch
                .insert(block_num, PendingFetch::default());
        }
        self.pending_fetch
            .get_mut(block_num)
            .expect("opened just above")
    }

    /// Original protocol: stage a first-reception block in the push buffer.
    fn buffer_for_push(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects, block: BlockRef) {
        let PushMode::InfectAndDie { tpush } = core.cfg.push else {
            unreachable!("buffer_for_push is an infect-and-die path");
        };
        self.push_buffer.push(block);
        if self.push_buffer.len() >= PUSH_BURST || tpush.is_zero() {
            self.flush_push_buffer(core, fx);
        } else if !self.flush_armed {
            self.flush_armed = true;
            core.schedule(fx, tpush, GossipTimer::PushFlush);
        }
    }

    /// Enhanced protocol: forward `(block, counter)`, immediately or via the
    /// `tpush` buffer (the bias ablation).
    fn queue_forward(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        block: BlockRef,
        counter: u32,
    ) {
        let PushMode::InfectUponContagion { tpush, .. } = core.cfg.push else {
            unreachable!("queue_forward is an infect-upon-contagion path");
        };
        if tpush.is_zero() {
            self.forward_pairs(core, fx, &[(block, counter)]);
        } else {
            self.forward_buffer.push((block, counter));
            if !self.flush_armed {
                self.flush_armed = true;
                core.schedule(fx, tpush, GossipTimer::PushFlush);
            }
        }
    }

    /// The PushFlush timer: emit whatever the active protocol buffered.
    pub fn on_flush(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        self.flush_armed = false;
        match core.cfg.push {
            PushMode::InfectAndDie { .. } => self.flush_push_buffer(core, fx),
            PushMode::InfectUponContagion { .. } => {
                let items = std::mem::take(&mut self.forward_buffer);
                if !items.is_empty() {
                    self.forward_pairs(core, fx, &items);
                }
            }
        }
    }

    /// Infect-and-die flush: one random target sample shared by every
    /// buffered block (the bias the paper describes), then die.
    fn flush_push_buffer(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        if self.push_buffer.is_empty() {
            return;
        }
        let blocks = std::mem::take(&mut self.push_buffer);
        let targets = {
            let k = core.cfg.fout;
            core.membership.sample(fx.rng(), k)
        };
        for block in &blocks {
            for t in &targets {
                core.stats.blocks_sent += 1;
                core.send(
                    fx,
                    *t,
                    GossipMsg::BlockPush {
                        block: block.clone(),
                        counter: 0,
                    },
                );
            }
        }
    }

    /// Enhanced forward of one or more pairs sharing a target sample (a
    /// single pair when `tpush = 0`, the unbiased setting).
    fn forward_pairs(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        items: &[(BlockRef, u32)],
    ) {
        let PushMode::InfectUponContagion {
            ttl_direct,
            digests,
            ..
        } = core.cfg.push
        else {
            unreachable!("forward_pairs is an infect-upon-contagion path");
        };
        let targets = {
            let k = core.cfg.fout;
            core.membership.sample(fx.rng(), k)
        };
        for (block, counter) in items {
            let direct = !digests || *counter <= ttl_direct;
            for t in &targets {
                if direct {
                    core.stats.blocks_sent += 1;
                    core.send(
                        fx,
                        *t,
                        GossipMsg::BlockPush {
                            block: block.clone(),
                            counter: *counter,
                        },
                    );
                } else {
                    core.stats.digests_sent += 1;
                    core.send(
                        fx,
                        *t,
                        GossipMsg::PushDigest {
                            block_num: block.number(),
                            counter: *counter,
                        },
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GossipConfig;
    use crate::testing::MockEffects;
    use fabric_types::block::Block;
    use fabric_types::ids::ChannelId;

    fn core(cfg: GossipConfig) -> ChannelCore {
        ChannelCore::new(
            ChannelId::DEFAULT,
            PeerId(5),
            (0..10).map(PeerId).collect(),
            cfg,
        )
    }

    fn block(num: u64) -> BlockRef {
        BlockRef::new(Block::new(num, fabric_types::crypto::Hash256::ZERO, vec![]))
    }

    #[test]
    fn engine_alone_forwards_per_distinct_counter() {
        let mut c = core(GossipConfig::enhanced(4, 9, 9));
        let mut e = PushEngine::default();
        let mut fx = MockEffects::new(3);
        e.on_block_push(&mut c, &mut fx, PeerId(1), block(1), 3);
        assert_eq!(fx.take_sent().len(), 4, "fout targets on first counter");
        e.on_block_push(&mut c, &mut fx, PeerId(2), block(1), 3);
        assert!(fx.take_sent().is_empty(), "same pair is silent");
        e.on_block_push(&mut c, &mut fx, PeerId(3), block(1), 5);
        assert_eq!(fx.take_sent().len(), 4, "fresh counter re-infects");
        assert_eq!(c.stats.duplicate_blocks, 2);
    }

    #[test]
    fn crash_clears_fetches_but_not_dedup_memory() {
        let mut c = core(GossipConfig::enhanced_f4());
        let mut e = PushEngine::default();
        let mut fx = MockEffects::new(3);
        e.on_push_digest(&mut c, &mut fx, PeerId(1), 7, 2);
        assert_eq!(c.stats.fetch_requests, 1);
        fx.take_sent();
        e.clear_volatile();
        e.on_fetch_retry(&mut c, &mut fx, 7, 1);
        assert!(fx.take_sent().is_empty(), "pending fetch died with crash");
    }

    /// The store counts genesis as present but holds no block 0; a digest
    /// naming it once panicked on `expect("store.has checked")`.
    #[test]
    fn a_digest_for_genesis_is_counted_and_ignored() {
        let mut c = core(GossipConfig::enhanced_f4());
        let mut e = PushEngine::default();
        let mut fx = MockEffects::new(3);
        e.on_push_digest(&mut c, &mut fx, PeerId(1), 0, 0);
        assert_eq!(c.stats.digests_received, 1);
        assert!(fx.take_sent().is_empty(), "no forward, no fetch");
        assert!(fx.take_scheduled().is_empty());
    }

    /// Same for a number a snapshot absorbed: an honest late digest for the
    /// snapshot's head block must not take the joiner down.
    #[test]
    fn a_digest_for_a_snapshot_absorbed_number_is_counted_and_ignored() {
        let mut c = core(GossipConfig::enhanced_f4());
        let mut e = PushEngine::default();
        let mut fx = MockEffects::new(3);
        c.store.insert(block(9));
        e.on_push_digest(&mut c, &mut fx, PeerId(1), 3, 1);
        assert_eq!(c.stats.fetch_requests, 1, "3 is missing: fetched");
        fx.take_sent();
        fx.take_scheduled();
        c.store.adopt_snapshot(8);
        e.release_through(c.store.snapshot_floor());
        for (num, counter) in [(8, 0), (3, 2), (1, 5)] {
            e.on_push_digest(&mut c, &mut fx, PeerId(2), num, counter);
        }
        assert_eq!(c.stats.digests_received, 4);
        assert_eq!(c.stats.fetch_requests, 1);
        assert!(fx.take_sent().is_empty(), "no forward, no fetch");
        assert!(fx.take_scheduled().is_empty());
        // The fetch for the absorbed 3 left with its row; a held block
        // above the floor still forwards.
        e.on_fetch_retry(&mut c, &mut fx, 3, 1);
        assert!(fx.take_sent().is_empty());
        e.on_push_digest(&mut c, &mut fx, PeerId(2), 9, 0);
        assert_eq!(fx.take_sent().len(), 4);
    }

    #[test]
    fn dedup_memory_is_one_word_per_block() {
        let cfg = GossipConfig::enhanced_f4();
        let PushMode::InfectUponContagion { ttl, .. } = cfg.push else {
            unreachable!("enhanced preset");
        };
        let mut c = core(cfg);
        let mut e = PushEngine::default();
        let mut fx = MockEffects::new(3);
        for num in 1..=500 {
            c.store.insert(block(num));
            for counter in 0..=ttl {
                e.on_push_digest(&mut c, &mut fx, PeerId(1), num, counter);
                e.on_push_digest(&mut c, &mut fx, PeerId(2), num, counter);
            }
            fx.take_sent();
        }
        let forwards = c.stats.digests_sent + c.stats.blocks_sent;
        assert_eq!(
            forwards,
            500 * 4 * u64::from(ttl),
            "each pair below the TTL, once"
        );
        assert_eq!(e.seen_pairs.masks.len(), 500, "500 words");
        assert!(e.seen_pairs.wide.is_empty());
    }

    #[test]
    fn the_largest_digest_the_wire_can_carry_costs_two_rows() {
        let mut c = core(GossipConfig::enhanced_f4());
        let mut e = PushEngine::default();
        let mut fx = MockEffects::new(3);
        for num in 1..=100 {
            e.on_block_push(&mut c, &mut fx, PeerId(1), block(num), 1);
            e.on_push_digest(&mut c, &mut fx, PeerId(2), num + 1, 7);
        }
        let before = e.tables();
        e.on_push_digest(&mut c, &mut fx, PeerId(3), u64::MAX, u32::MAX);
        let after = e.tables();
        for (b, a) in before.iter().zip(&after) {
            assert_eq!((a.0, a.1), (b.0 + 1, b.1 + 1), "one row, no window");
        }
        e.on_push_request(&mut c, &mut fx, PeerId(3), u64::MAX, u32::MAX);
        assert_eq!(e.tables(), after);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashSet;

        proptest! {
            /// The bitmask-per-block memory against the pair set it
            /// replaced: the same "was it new" on every input, wide
            /// counters and far numbers included, through releases.
            #[test]
            fn model_seen_pairs_matches_pair_set(
                ops in proptest::collection::vec((0u8..10, 0u64..6, 0u8..9), 1..200),
            ) {
                let mut seen = SeenPairs::default();
                let mut model: HashSet<(u64, u32)> = HashSet::new();
                for (class, small, c) in ops {
                    let num = match class {
                        0..=5 => small,
                        6 => 300 + small,
                        7 => (1 << 32) + small,
                        _ => u64::MAX - small,
                    };
                    let counter = [0, 8, 9, 19, 63, 64, 65, u32::MAX - 1, u32::MAX][c as usize];
                    if class == 9 {
                        seen.drop_through(num);
                        model.retain(|(n, _)| *n > num);
                    } else {
                        prop_assert_eq!(seen.insert(num, counter), model.insert((num, counter)));
                        prop_assert!(!seen.insert(num, counter));
                    }
                }
            }
        }
    }
}
