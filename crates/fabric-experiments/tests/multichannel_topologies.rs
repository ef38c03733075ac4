//! The multi-channel runner on random topologies.
//!
//! The contract (`multichannel.rs` module docs): `run_multichannel` runs
//! every channel in one deployment and reads each off on its own. The
//! proptest below pins that over random overlap structure, from one
//! tangle of overlapping channels to fully disjoint ones, with peers that
//! sit in no channel. The `skewed` and `clustered` golden pins live in the
//! root `tests/multichannel.rs`.

use desim::Duration;
use fabric_experiments::multichannel::{run_multichannel, ChannelPlan, MultiChannelConfig};
use fabric_types::ids::PeerId;
use proptest::prelude::*;

/// The peer-id space of the random topologies.
const PEERS: usize = 30;

/// A random topology: channels as membership windows `[base, base+width)`
/// over the peer space. Windows overlap (or don't) arbitrarily, and the
/// peers they leave out idle.
fn topologies() -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..24, 4u32..9), 1..5)
}

fn config_of(windows: &[(u32, u32)]) -> MultiChannelConfig {
    let mut cfg = MultiChannelConfig::clustered(1, PEERS, 12);
    cfg.channels = windows
        .iter()
        .map(|&(base, width)| ChannelPlan {
            members: (base..(base + width).min(PEERS as u32))
                .map(PeerId)
                .collect(),
            ..cfg.channels[0].clone()
        })
        .collect();
    cfg.idle_tail = Duration::from_secs(1);
    cfg.seed = 0xC0FFEE;
    cfg
}

proptest! {
    /// On arbitrary topologies nothing leaks across channels or goes
    /// missing within one.
    #[test]
    fn every_channel_is_complete_on_its_own(windows in topologies()) {
        let cfg = config_of(&windows);
        let res = run_multichannel(&cfg);
        prop_assert!(res.events > 0, "runs must not be vacuous");

        // Every member of every channel got every block of that channel,
        // and every channel reports its plan's members.
        for (c, plan) in res.channels.iter().zip(&cfg.channels) {
            prop_assert!(c.blocks >= 1, "channel {} cut nothing", c.channel);
            prop_assert_eq!(c.completeness, 1.0, "channel {} starved", c.channel);
            let members: Vec<PeerId> = c.member_bytes.iter().map(|&(peer, _)| peer).collect();
            prop_assert_eq!(&members, &plan.members);
        }
    }
}
