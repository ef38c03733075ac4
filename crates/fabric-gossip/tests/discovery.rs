//! Wire-order properties of the discovery engine that need no network:
//! one peer, hand-fed messages. The multi-peer convergence properties
//! need a simulator and live in `fabric-experiments/tests/discovery.rs`.

use fabric_gossip::config::GossipConfig;
use fabric_gossip::messages::{GossipMsg, PeerAlive};
use fabric_gossip::peer::GossipPeer;
use fabric_gossip::testing::MockEffects;
use fabric_types::ids::{ChannelId, PeerId};
use proptest::prelude::*;

/// Protocol discovery with its timers tightened.
fn discovery_cfg() -> GossipConfig {
    GossipConfig::enhanced_f4().with_quick_discovery()
}

proptest! {
    /// Adversarial reordering of anti-entropy: a delayed stale
    /// `MembershipResponse` arriving after a newer exchange must never
    /// roll a claim backwards — freshness is monotonic per claim, not per
    /// arrival order.
    #[test]
    fn a_delayed_stale_response_never_rolls_a_claim_backwards(
        inc in 1u64..1_000,
        seq in 0u64..1_000,
        stale_inc_raw in 0u64..1_000,
        stale_seq_raw in 0u64..1_000,
    ) {
        let roster: Vec<PeerId> = (0..3).map(PeerId).collect();
        let mut peer = GossipPeer::with_channels(PeerId(0), discovery_cfg())
            .join_channel(ChannelId(0), &roster, &roster);
        let mut fx = MockEffects::new(7);
        peer.init(&mut fx);
        fx.take_sent_on();

        // A newer exchange teaches the fresh claim...
        let subject = PeerId(2);
        let fresh = PeerAlive { peer: subject, incarnation: inc, seq };
        peer.on_channel_message(
            &mut fx,
            ChannelId(0),
            PeerId(1),
            GossipMsg::MembershipResponse { entries: vec![fresh], dead: vec![] },
        );
        prop_assert_eq!(
            peer.discovery_on(ChannelId(0)).unwrap().claim_of(subject),
            Some(&fresh)
        );

        // ...then a response that was delayed in flight arrives, carrying
        // a claim that is not fresher (any (inc', seq') ≤ (inc, seq)).
        let stale_inc = stale_inc_raw.min(inc);
        let stale_seq = if stale_inc == inc { stale_seq_raw.min(seq) } else { stale_seq_raw };
        let stale = PeerAlive { peer: subject, incarnation: stale_inc, seq: stale_seq };
        prop_assert!(!stale.fresher_than(&fresh), "generator invariant");
        peer.on_channel_message(
            &mut fx,
            ChannelId(0),
            PeerId(1),
            GossipMsg::MembershipResponse { entries: vec![stale], dead: vec![] },
        );
        let held = *peer
            .discovery_on(ChannelId(0))
            .unwrap()
            .claim_of(subject)
            .expect("the claim must survive");
        prop_assert_eq!(held, fresh, "a delayed stale response rolled the claim backwards");
    }
}
