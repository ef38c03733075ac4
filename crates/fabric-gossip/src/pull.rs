//! The four-phase pull engine of stock Fabric gossip:
//!
//! 1. **Hello** — solicit digests from `FIN` (3) random organization peers;
//! 2. **DigestResponse** — each responder advertises which of the 64
//!    numbers from its highest down it holds, as one 64-bit mask: a peer
//!    whose window is delivered builds it with one compare, a requester
//!    whose height is above its top reads it with one, and no digest names
//!    more than 64 numbers whatever its sender puts in it;
//! 3. **Request** — after the digest-wait window, ask one random advertiser
//!    per missing block;
//! 4. **Response** — the requested content (accepted by the dispatcher's
//!    common content path).
//!
//! The engine owns only pull-private state (the round nonce and the offers
//! gathered during the current digest window); everything shared lives in
//! the [`ChannelCore`] passed into every entry point.

use std::collections::BTreeMap;

use desim::Duration;
use rand::RngExt;

use fabric_types::block::BlockRef;
use fabric_types::ids::PeerId;

use crate::channel::ChannelCore;
use crate::effects::Effects;
use crate::messages::{GossipMsg, GossipTimer};

/// How many random peers a pull round solicits (Fabric's `PullPeerNum`).
pub(crate) const FIN: usize = 3;

/// How long the requester gathers digest responses before sending its
/// block requests (Fabric's `digestWaitTime`).
pub(crate) const DIGEST_WAIT: Duration = Duration::from_secs(1);

/// How many recent block numbers a digest response advertises: one bit
/// each of its mask.
pub(crate) const DIGEST_WINDOW: u64 = 64;
const _: () = assert!(DIGEST_WINDOW == u64::BITS as u64);

/// Pull-phase state of one channel instance.
#[derive(Debug, Default)]
pub struct PullEngine {
    nonce: u64,
    /// Advertisers per missing block, gathered during the digest-wait
    /// window of the current pull round.
    offers: BTreeMap<u64, Vec<PeerId>>,
}

impl PullEngine {
    /// Drops the in-flight round a crash would lose (the nonce survives so
    /// a rebooted peer never confuses pre-crash digests for fresh ones).
    pub fn clear_volatile(&mut self) {
        self.offers.clear();
    }

    /// `(rows allocated, rows held)` of the round's offers, for the bound
    /// checks of the wire tests.
    #[cfg(test)]
    pub(crate) fn table(&self) -> (usize, usize) {
        (self.offers.len(), self.offers.len())
    }

    /// Phase 1 (the PullRound timer): open a round and solicit digests.
    pub fn on_round(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        let Some(tpull) = core.cfg.pull.as_ref().map(|p| p.tpull) else {
            return;
        };
        self.nonce += 1;
        self.offers.clear();
        core.stats.pull_rounds += 1;
        let nonce = self.nonce;
        let targets = core.membership.sample(fx.rng(), FIN);
        for t in targets {
            core.send(fx, t, GossipMsg::PullHello { nonce });
        }
        // Fabric's pull engine gathers digests for `digestWaitTime` before
        // deciding what to request from whom.
        core.schedule(fx, DIGEST_WAIT, GossipTimer::PullDigestWait { nonce });
        core.schedule(fx, tpull, GossipTimer::PullRound);
    }

    /// Phase 2 (responder side): serve our recent block numbers.
    pub fn on_hello(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        from: PeerId,
        nonce: u64,
    ) {
        let (top, held) = core.store.digest();
        core.send(fx, from, GossipMsg::PullDigestResponse { nonce, top, held });
    }

    /// Phase 2 (requester side): collect an advertiser's digest. Every
    /// number below the height is held or absorbed by a snapshot, so only
    /// the set bits naming `height..=top` are visited, lowest number first.
    pub fn on_digest_response(
        &mut self,
        core: &mut ChannelCore,
        from: PeerId,
        nonce: u64,
        top: u64,
        held: u64,
    ) {
        if nonce != self.nonce {
            return; // stale round
        }
        let Some(above) = top.checked_sub(core.store.height()) else {
            return; // everything it names is delivered
        };
        // Bits `0..=above` name `top` down to the height (at least 1), so a
        // bit naming genesis or nothing at all is never visited.
        let mut wanted = held & (u64::MAX >> (63 - above.min(63)));
        while wanted != 0 {
            let i = 63 - wanted.leading_zeros();
            wanted ^= 1 << i;
            let num = top - u64::from(i);
            if !core.store.has(num) {
                let offers = self.offers.entry(num).or_default();
                if !offers.contains(&from) {
                    offers.push(from);
                }
            }
        }
    }

    /// Phase 3 (the PullDigestWait timer): pick a random advertiser per
    /// missing block and send the grouped requests.
    pub fn on_digest_wait(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects, nonce: u64) {
        if nonce != self.nonce {
            return; // a newer round superseded this one
        }
        let offers = std::mem::take(&mut self.offers);
        let mut per_target: BTreeMap<PeerId, Vec<u64>> = BTreeMap::new();
        for (num, advertisers) in offers {
            if core.store.has(num) || advertisers.is_empty() {
                continue;
            }
            let pick = fx.rng().random_range(0..advertisers.len());
            per_target.entry(advertisers[pick]).or_default().push(num);
        }
        for (target, block_nums) in per_target {
            core.send(fx, target, GossipMsg::PullRequest { nonce, block_nums });
        }
    }

    /// Phase 3 (responder side): serve the requested blocks.
    pub fn on_request(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        from: PeerId,
        nonce: u64,
        block_nums: Vec<u64>,
    ) {
        let blocks: Vec<BlockRef> = block_nums
            .iter()
            .filter_map(|n| core.store.get(*n).cloned())
            .collect();
        if !blocks.is_empty() {
            core.send(fx, from, GossipMsg::PullResponse { nonce, blocks });
        }
    }

    /// Phase 4 (requester side): absorb the served content through the
    /// common accept path. A forged or conflicting payload is rejected and
    /// counted there ([`ChannelCore::accept_content`]); the block stays
    /// missing, so the next round's digest wait re-offers it — possibly
    /// from a different advertiser — and honest redundancy completes the
    /// transfer.
    pub fn on_response(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        blocks: Vec<BlockRef>,
    ) {
        for block in blocks {
            core.accept_content(fx, &block);
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

    fn core() -> ChannelCore {
        ChannelCore::new(
            ChannelId::DEFAULT,
            PeerId(1),
            &(0..4).map(PeerId).collect::<Vec<_>>(),
            &(0..4).map(PeerId).collect::<Vec<_>>(),
            GossipConfig::original_fabric(),
        )
    }

    fn block(num: u64) -> BlockRef {
        BlockRef::new(Block::new(num, fabric_types::crypto::Hash256::ZERO, vec![]))
    }

    #[test]
    fn engine_alone_runs_a_round_and_requests_missing_blocks() {
        let mut c = core();
        let mut e = PullEngine::default();
        let mut fx = MockEffects::new(1);
        e.on_round(&mut c, &mut fx);
        let hellos = fx.take_sent();
        assert_eq!(hellos.len(), 3, "fin = 3 hellos");
        e.on_digest_response(&mut c, PeerId(2), 1, 2, 0b11);
        e.on_digest_wait(&mut c, &mut fx, 1);
        let requests = fx.take_sent();
        assert_eq!(requests.len(), 1);
        assert!(matches!(
            &requests[0].1,
            GossipMsg::PullRequest { block_nums, .. } if block_nums == &vec![1, 2]
        ));
        assert_eq!(c.stats.pull_rounds, 1);

        // A snapshot floor at 5, held 6, 7 and 9, a gap at 8: the bits
        // below the height are never visited, the rest ask the table. A
        // digest topped below the height adds nothing, nor does a bit
        // naming genesis or no block at all.
        c.store.adopt_snapshot(5);
        for n in [6, 7, 9] {
            c.store.insert(block(n));
        }
        assert_eq!(c.store.height(), 8);
        e.on_round(&mut c, &mut fx);
        fx.take_sent();
        e.on_digest_response(&mut c, PeerId(2), 2, 7, u64::MAX);
        e.on_digest_response(&mut c, PeerId(2), 2, 12, u64::MAX);
        let missing: Vec<u64> = (0..=12).filter(|n| !c.store.has(*n)).collect();
        assert_eq!(missing, [8, 10, 11, 12]);
        assert_eq!(e.offers.keys().copied().collect::<Vec<_>>(), missing);
    }

    #[test]
    fn stale_digests_are_dropped_and_requests_serve_the_store() {
        let mut c = core();
        let mut e = PullEngine::default();
        let mut fx = MockEffects::new(1);
        e.on_round(&mut c, &mut fx);
        fx.take_sent();
        e.on_round(&mut c, &mut fx); // nonce now 2; round 1 is stale
        fx.take_sent();
        e.on_digest_response(&mut c, PeerId(2), 1, 1, 1);
        e.on_digest_wait(&mut c, &mut fx, 1);
        assert!(fx.take_sent().is_empty(), "stale round must stay silent");

        c.store.insert(block(1));
        e.on_request(&mut c, &mut fx, PeerId(3), 2, vec![1, 9]);
        let sent = fx.take_sent();
        assert_eq!(sent.len(), 1);
        assert!(matches!(
            &sent[0].1,
            GossipMsg::PullResponse { blocks, .. } if blocks.len() == 1
        ));
        assert_eq!(c.stats.blocks_sent, 1);
    }
}
