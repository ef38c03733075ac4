//! The push engine: infect-and-die (stock Fabric) and infect-upon-contagion
//! (the paper's enhancement), including digest announcements and the
//! content-fetch retry machinery.
//!
//! The two protocols differ in *what* a peer forwards and *when* — a first
//! reception once, or each new counter until the TTL — but send the same
//! way. A forward is due as a `(block, counter)` item; with `tpush = 0` it
//! leaves at once, otherwise it waits in the one buffer for the `tpush`
//! flush (under infect-and-die also for `PUSH_BURST` items). Either way
//! it leaves through one emitter: sample `k` members once, send every item
//! to each. Items that leave in one flush share a target sample — the bias
//! of §IV, which the paper's `tpush = 0` removes by giving every item its
//! own. The contagion leader's hand-off takes the emitter directly, at
//! `f_leader_out`.
//!
//! The engine owns only push-private state; everything shared with the
//! other engines (store, membership, counters, configuration) lives in the
//! [`ChannelCore`] passed into every entry point, which makes the protocol
//! logic here directly unit-testable against a bare core and
//! [`crate::testing::MockEffects`].
//!
//! Every digest asks the dedup memory "was this `(block, counter)` pair
//! seen?", so that memory is one 8-byte word per block — a bitmask over
//! the counters, indexed by block number (`BlockMap`) — not an entry per
//! pair. It is never pruned while the store holds the block (a late
//! digest must stay silent), and is released together with the block rows
//! a snapshot absorbs ([`PushEngine::release_through`]).

use std::collections::BTreeSet;
use std::num::NonZeroU64;

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

/// A fetch in flight for block content announced by push digests. The
/// digest that opens it gives each list its first entry, held inline, so
/// a fetch that one digest opens and one block closes allocates nothing.
#[derive(Debug, Clone)]
struct PendingFetch {
    /// Counters received in digests while the content was missing; each one
    /// owes a forward once the content arrives.
    counters: FirstInline<u32>,
    /// Peers that advertised the block, the first one asked first (retry
    /// candidates, in order).
    advertisers: FirstInline<PeerId>,
}

/// A list that is never empty: its first item inline, later ones in a
/// `Vec` that allocates when the second arrives and then grows amortised
/// (an exact list such as `InlineOne` reallocates on every push, and a
/// popular block's fetch collects a digest from most of its neighbours).
#[derive(Debug, Clone)]
struct FirstInline<T> {
    first: T,
    rest: Vec<T>,
}

impl<T: Copy + Ord> FirstInline<T> {
    fn new(first: T) -> Self {
        FirstInline {
            first,
            rest: Vec::new(),
        }
    }

    fn push(&mut self, item: T) {
        self.rest.push(item);
    }

    fn len(&self) -> usize {
        1 + self.rest.len()
    }

    fn last(&self) -> T {
        self.rest.last().copied().unwrap_or(self.first)
    }

    /// The items in order, the first one first.
    fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }

    /// Sorts the items in place, through the buffer `rest` already owns.
    fn sort_unstable(&mut self) {
        if !self.rest.is_empty() {
            self.rest.push(self.first);
            self.rest.sort_unstable();
            self.first = self.rest.remove(0);
        }
    }
}

/// The `(block, counter)` pairs already processed: per block, bit `c` of
/// the mask is counter `c`. A stored mask has at least its first counter's
/// bit set, so it is a `NonZeroU64` and a window slot needs no tag word.
/// Every preset's TTL is 9 or 19; a counter the word cannot hold (the wire
/// allows any `u32`) goes to an ordered set, so the answer is exact on
/// every input.
#[derive(Debug, Default)]
struct SeenPairs {
    masks: BlockMap<NonZeroU64>,
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
                let new = mask.get() & bit == 0;
                *mask |= bit;
                new
            }
            None => {
                let mask = NonZeroU64::new(bit).expect("a counter below 64 sets one bit");
                self.masks.insert(block_num, mask);
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
    /// Items awaiting the `tpush` flush, in the order they fell due.
    buffer: Vec<(BlockRef, u32)>,
    /// Whether a PushFlush timer is armed.
    flush_armed: bool,
    /// `(block, counter)` pairs already processed (infect-upon-contagion).
    seen_pairs: SeenPairs,
    /// Content fetches in flight, by block number.
    pending_fetch: BlockMap<PendingFetch>,
}

impl PushEngine {
    /// Drops everything a process crash would lose (the buffer, in-flight
    /// fetches; dedup memory is *kept* — it mirrors the store, which
    /// survives).
    pub fn clear_volatile(&mut self) {
        self.buffer.clear();
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
        if !core.accept_content(fx, &block) || !core.forwarding {
            return;
        }
        match core.cfg.push {
            // The leader's first reception is any peer's: buffered, at
            // `fout` (`f_leader_out` equals it, as in stock Fabric).
            PushMode::InfectAndDie { .. } => self.queue(core, fx, block, 0),
            PushMode::InfectUponContagion { .. } => {
                // Hand the block to f_leader_out random peers with counter 0,
                // never buffered; they start the dissemination.
                self.seen_pairs.insert(block.number(), 0);
                let k = core.cfg.f_leader_out;
                emit(core, fx, k, &[(block, 0)]);
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
            // Infect and die: forward only on first content reception.
            PushMode::InfectAndDie { .. } if is_new => self.queue(core, fx, block, 0),
            PushMode::InfectAndDie { .. } => {}
            PushMode::InfectUponContagion { ttl, .. } => {
                // Forward once per distinct counter; content arrival also
                // settles the forwards owed by digests that preceded it.
                let fetched = is_new.then(|| self.pending_fetch.remove(num)).flatten();
                let fresh = self.seen_pairs.insert(num, counter).then_some(counter);
                let mut owed = match (fetched, fresh) {
                    (Some(pending), fresh) => {
                        let mut owed = pending.counters;
                        owed.rest.extend(fresh);
                        owed
                    }
                    (None, Some(counter)) => FirstInline::new(counter),
                    (None, None) => return,
                };
                // Lowest counter first.
                owed.sort_unstable();
                let mut last = None;
                for c in owed.iter() {
                    if c < ttl && last.replace(c) != Some(c) {
                        self.queue(core, fx, block.clone(), c + 1);
                    }
                }
            }
        }
    }

    /// A digest announcing content this peer may lack. A free rider takes
    /// the same path — it wants the chain — but never forwards.
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
        if !self.seen_pairs.insert(block_num, counter) {
            return;
        }
        match core.store.get(block_num) {
            Some(block) => {
                if core.forwarding && counter < ttl {
                    let block = block.clone();
                    self.queue(core, fx, block, counter + 1);
                }
                return;
            }
            // Genesis, or absorbed by a snapshot: present, but there is no
            // content to forward and none to fetch.
            None if core.store.has(block_num) => return,
            None => {}
        }
        // Content missing: fetch it, remembering the counter so the forward
        // happens when the block arrives. The first digest opens the fetch
        // and asks its sender; later ones join the rotation.
        if let Some(pending) = self.pending_fetch.get_mut(block_num) {
            pending.counters.push(counter);
            if !pending.advertisers.iter().any(|peer| peer == from) {
                pending.advertisers.push(from);
            }
            return;
        }
        let fetch = PendingFetch {
            counters: FirstInline::new(counter),
            advertisers: FirstInline::new(from),
        };
        self.pending_fetch.insert(block_num, fetch);
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

    /// Serves a content request issued after one of our digests.
    pub fn on_push_request(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        from: PeerId,
        block_num: u64,
        counter: u32,
    ) {
        if let Some(block) = core.store.get(block_num).cloned() {
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
        let counter = pending.counters.last();
        // A fetch opens with its first advertiser, and any advertiser
        // certainly has the content: the attempt rotates through them.
        let advertisers = &pending.advertisers;
        let target = advertisers
            .iter()
            .nth(attempt as usize % advertisers.len())
            .expect("an index below the length");
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

    /// Forwards `(block, counter)`: at once when the mode's `tpush` is
    /// zero, otherwise through the buffer, which infect-and-die also
    /// flushes when it holds [`PUSH_BURST`] items.
    fn queue(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        block: BlockRef,
        counter: u32,
    ) {
        let (tpush, burst) = match core.cfg.push {
            PushMode::InfectAndDie { tpush } => (tpush, PUSH_BURST),
            PushMode::InfectUponContagion { tpush, .. } => (tpush, usize::MAX),
        };
        if tpush.is_zero() {
            let k = core.cfg.fout;
            return emit(core, fx, k, &[(block, counter)]);
        }
        self.buffer.push((block, counter));
        if self.buffer.len() >= burst {
            self.flush(core, fx);
        } else if !self.flush_armed {
            self.flush_armed = true;
            core.schedule(fx, tpush, GossipTimer::PushFlush);
        }
    }

    /// The PushFlush timer: emit whatever is buffered.
    pub fn on_flush(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        self.flush_armed = false;
        self.flush(core, fx);
    }

    /// Sends the buffer on one sample of `fout`; an empty one draws and
    /// sends nothing.
    fn flush(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        if !self.buffer.is_empty() {
            let k = core.cfg.fout;
            emit(core, fx, k, &self.buffer);
            self.buffer.clear();
        }
    }
}

/// The one way a push leaves: sample `k` members once, then send every
/// item to each of them, in item order. An item goes as its block, or —
/// under contagion with digests — as a digest once its counter exceeds
/// `ttl_direct`.
fn emit(core: &mut ChannelCore, fx: &mut dyn Effects, k: usize, items: &[(BlockRef, u32)]) {
    let digest_above = match core.cfg.push {
        PushMode::InfectUponContagion {
            ttl_direct,
            digests: true,
            ..
        } => ttl_direct,
        _ => u32::MAX,
    };
    let targets = core.membership.sample(fx.rng(), k);
    for (block, counter) in items {
        for &to in &targets {
            let msg = if *counter > digest_above {
                GossipMsg::PushDigest {
                    block_num: block.number(),
                    counter: *counter,
                }
            } else {
                GossipMsg::BlockPush {
                    block: block.clone(),
                    counter: *counter,
                }
            };
            core.send(fx, to, msg);
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
            &(0..10).map(PeerId).collect::<Vec<_>>(),
            &(0..10).map(PeerId).collect::<Vec<_>>(),
            cfg,
        )
    }

    fn block(num: u64) -> BlockRef {
        BlockRef::new(Block::new(num, fabric_types::crypto::Hash256::ZERO, vec![]))
    }

    /// A push item as `(kind, block, counter)`, and one sent to a target.
    type Item = (&'static str, u64, u32);
    type Sent = (PeerId, &'static str, u64, u32);

    /// What went out since the last call.
    fn sends(fx: &mut MockEffects) -> Vec<Sent> {
        let row = |(to, msg)| match msg {
            GossipMsg::BlockPush { block, counter } => (to, "block", block.number(), counter),
            GossipMsg::PushDigest { block_num, counter } => (to, "digest", block_num, counter),
            GossipMsg::PushRequest { block_num, counter } => (to, "request", block_num, counter),
            other => panic!("not a push message: {other:?}"),
        };
        fx.take_sent().into_iter().map(row).collect()
    }

    /// Each item in order, to every member of the next sample of `k` that
    /// `twin` (the engine's seed) draws: what one emission sends.
    fn emitted(c: &ChannelCore, twin: &mut MockEffects, k: usize, items: &[Item]) -> Vec<Sent> {
        let targets = c.membership.sample(twin.rng(), k);
        let each = |&(kind, num, counter)| targets.iter().map(move |&t| (t, kind, num, counter));
        items.iter().flat_map(each).collect()
    }

    const FLUSH: (Duration, GossipTimer) = (Duration::from_millis(10), GossipTimer::PushFlush);

    /// Infect-and-die: the tenth block sends all ten to one sample, the one
    /// armed timer a later one alone; an empty flush draws nothing.
    #[test]
    fn emitter_infect_and_die_burst_shares_one_sample() {
        let mut c = core(GossipConfig::original_fabric());
        let mut e = PushEngine::default();
        let (mut fx, mut twin) = (MockEffects::new(3), MockEffects::new(3));
        for num in 1..=9 {
            e.on_block_push(&mut c, &mut fx, PeerId(1), block(num), 0);
        }
        assert!(sends(&mut fx).is_empty());
        e.on_block_push(&mut c, &mut fx, PeerId(1), block(10), 0);
        let burst: Vec<_> = (1..=10).map(|n| ("block", n, 0)).collect();
        assert_eq!(sends(&mut fx), emitted(&c, &mut twin, 3, &burst));
        assert_eq!(fx.take_scheduled(), [FLUSH]);
        e.on_block_push(&mut c, &mut fx, PeerId(1), block(11), 0);
        assert!(sends(&mut fx).is_empty() && fx.take_scheduled().is_empty());
        e.on_flush(&mut c, &mut fx);
        let late = [("block", 11, 0)];
        assert_eq!(sends(&mut fx), emitted(&c, &mut twin, 3, &late));
        e.on_flush(&mut c, &mut fx);
        assert!(sends(&mut fx).is_empty() && fx.rng() == twin.rng());
        assert_eq!((c.stats.blocks_sent, c.stats.digests_sent), (33, 0));
    }

    /// A free rider fetches what it lacks as an honest peer does, and
    /// forwards nothing.
    #[test]
    fn emitter_free_rider_fetches_and_never_forwards() {
        let mut c = core(GossipConfig::enhanced_f4());
        c.forwarding = false;
        let (mut e, mut fx) = (PushEngine::default(), MockEffects::new(3));
        e.on_push_digest(&mut c, &mut fx, PeerId(1), 1, 3);
        assert_eq!(sends(&mut fx), [(PeerId(1), "request", 1, 3)]);
        let block_num = 1;
        let retry = |attempt| GossipTimer::FetchRetry { block_num, attempt };
        assert_eq!(fx.take_scheduled(), [(FETCH_TIMEOUT, retry(1))]);
        e.on_push_digest(&mut c, &mut fx, PeerId(2), 1, 4);
        assert!(sends(&mut fx).is_empty() && fx.take_scheduled().is_empty());
        e.on_fetch_retry(&mut c, &mut fx, 1, 1);
        assert_eq!(sends(&mut fx), [(PeerId(2), "request", 1, 4)]);
        assert_eq!(fx.take_scheduled(), [(FETCH_TIMEOUT, retry(2))]);
        e.on_block_push(&mut c, &mut fx, PeerId(2), block(1), 4);
        e.on_push_digest(&mut c, &mut fx, PeerId(3), 1, 5);
        assert!(sends(&mut fx).is_empty() && fx.take_scheduled().is_empty());
        let s = &c.stats;
        assert_eq!((s.fetch_requests, s.blocks_sent, s.digests_sent), (2, 0, 0));
    }

    /// Contagion with `tpush` = 10 ms: the leader's hand-off goes out at
    /// once; forwards share one flush, past `ttl_direct` as digests.
    #[test]
    fn emitter_contagion_leader_skips_the_buffer_forwards_share_it() {
        let mut cfg = GossipConfig::enhanced_f4();
        if let PushMode::InfectUponContagion { tpush, .. } = &mut cfg.push {
            *tpush = FLUSH.0;
        }
        let mut c = core(cfg);
        let mut e = PushEngine::default();
        let (mut fx, mut twin) = (MockEffects::new(3), MockEffects::new(3));
        e.on_block_from_orderer(&mut c, &mut fx, block(1));
        let hand_off = [("block", 1, 0)];
        assert_eq!(sends(&mut fx), emitted(&c, &mut twin, 1, &hand_off));
        assert!(fx.take_scheduled().is_empty());
        e.on_block_push(&mut c, &mut fx, PeerId(1), block(2), 2);
        e.on_push_digest(&mut c, &mut fx, PeerId(2), 2, 0);
        assert!(sends(&mut fx).is_empty());
        assert_eq!(fx.take_scheduled(), [FLUSH]);
        e.on_flush(&mut c, &mut fx);
        let items = [("digest", 2, 3), ("block", 2, 1)];
        assert_eq!(sends(&mut fx), emitted(&c, &mut twin, 4, &items));
        assert!(fx.rng() == twin.rng());
        assert_eq!((c.stats.blocks_sent, c.stats.digests_sent), (5, 4));
    }

    /// A fetch holds its opening digest inline and allocates nothing for
    /// it. Digests that join it while the content is missing rotate the
    /// retries through their senders, each named once, with the latest
    /// counter; when the block arrives, each owed counter below the TTL
    /// forwards once, lowest first, the block's own counter among them.
    #[test]
    fn emitter_fetch_settles_owed_counters_lowest_first() {
        let mut c = core(GossipConfig::enhanced(1, 9, 9));
        let (mut e, mut fx) = (PushEngine::default(), MockEffects::new(3));
        e.on_push_digest(&mut c, &mut fx, PeerId(1), 1, 5);
        let fetch = e.pending_fetch.get(1).expect("the digest opened a fetch");
        assert_eq!(fetch.counters.rest.capacity(), 0);
        assert_eq!(fetch.advertisers.rest.capacity(), 0);
        for (from, counter) in [(2, 2), (1, 9), (1, 7)] {
            e.on_push_digest(&mut c, &mut fx, PeerId(from), 1, counter);
        }
        let fetch = e.pending_fetch.get(1).expect("still in flight");
        assert_eq!(
            fetch.advertisers.iter().collect::<Vec<_>>(),
            [PeerId(1), PeerId(2)]
        );
        assert_eq!(sends(&mut fx), [(PeerId(1), "request", 1, 5)]);
        e.on_fetch_retry(&mut c, &mut fx, 1, 1);
        assert_eq!(sends(&mut fx), [(PeerId(2), "request", 1, 7)]);
        e.on_block_push(&mut c, &mut fx, PeerId(2), block(1), 4);
        let forwarded: Vec<u32> = sends(&mut fx)
            .iter()
            .map(|&(.., counter)| counter)
            .collect();
        assert_eq!(forwarded, [3, 5, 6, 8]);
        assert!(e.pending_fetch.get(1).is_none());
    }

    /// A mask row is the mask itself: a stored mask is never zero, so an
    /// empty slot needs no tag word.
    #[test]
    fn row_size_dedup_mask_is_8_bytes() {
        assert_eq!(SeenPairs::default().masks.row_bytes(), 8);
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
