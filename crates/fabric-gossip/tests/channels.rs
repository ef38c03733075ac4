//! Cross-channel isolation at one peer, driven through `MockEffects`:
//! traffic tagged with a channel the peer never joined vanishes without a
//! trace. The network-wide halves of the multiplexer contract — blocks
//! never leak between channels, and per-channel counters sum to the peer
//! totals — run on the simulator
//! (`fabric-experiments/tests/lifecycle.rs`, `static_channels`).

use fabric_gossip::config::GossipConfig;
use fabric_gossip::messages::GossipMsg;
use fabric_gossip::peer::GossipPeer;
use fabric_gossip::testing::MockEffects;
use fabric_types::block::{Block, BlockRef};
use fabric_types::crypto::Hash256;
use fabric_types::ids::{ChannelId, PeerId};
use proptest::prelude::*;

/// Random overlapping memberships: each channel draws a subsequence of at
/// least two peers from the full roster.
fn membership_strategy(n: u32) -> impl Strategy<Value = Vec<Vec<PeerId>>> {
    let roster: Vec<PeerId> = (0..n).map(PeerId).collect();
    proptest::collection::vec(
        proptest::sample::subsequence(roster, 2..(n as usize + 1)),
        1..4,
    )
}

proptest! {
    #[test]
    fn stray_cross_channel_traffic_is_inert(
        memberships in membership_strategy(10),
    ) {
        for (c, members) in memberships.iter().enumerate() {
            let ch = ChannelId(c as u16);
            let Some(outsider) = (0..10).map(PeerId).find(|p| !members.contains(p)) else {
                continue; // channel spans everyone — nothing to test here
            };
            // The outsider joins every other channel it is a member of.
            let mut peer = GossipPeer::with_channels(outsider, GossipConfig::enhanced_f4());
            for (other, roster) in memberships.iter().enumerate() {
                if roster.contains(&outsider) {
                    peer = peer.join_channel(ChannelId(other as u16), roster, roster);
                }
            }
            let mut fx = MockEffects::new(2_000 + u64::from(outsider.0));
            // Deliver a full block AND a digest for the unjoined channel:
            // both must vanish without a trace.
            let block = BlockRef::new(Block::new(1, Hash256::ZERO, vec![]).with_padding(1_000));
            peer.on_channel_message(
                &mut fx,
                ch,
                members[0],
                GossipMsg::BlockPush { block, counter: 0 },
            );
            peer.on_channel_message(
                &mut fx,
                ch,
                members[0],
                GossipMsg::PushDigest { block_num: 1, counter: 1 },
            );
            prop_assert!(fx.take_sent_on().is_empty());
            prop_assert!(peer.store_on(ch).is_none());
            prop_assert!(fx.delivered.is_empty());
        }
    }
}
