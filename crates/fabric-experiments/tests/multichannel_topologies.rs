//! The multi-channel runner on random topologies.
//!
//! The contract (`multichannel.rs` module docs): `run_multichannel` runs
//! exactly `cfg.deployments()`, one per connected component of the
//! channel-overlap graph, and reads every channel off on its own. The
//! proptest below pins that over random overlap structure, so group
//! counts range from one component to one per channel. The `skewed` and
//! `large_smoke` golden pins live in the root `tests/multichannel.rs`.

use desim::Duration;
use fabric_experiments::multichannel::{run_multichannel, ChannelPlan, MultiChannelConfig};
use fabric_types::ids::PeerId;
use proptest::prelude::*;

/// Global peer-id space for the random topologies.
const PEERS: usize = 30;

/// A random topology: channels as membership windows `[base, base+width)`
/// over the peer space. Windows overlap (or don't) arbitrarily, so
/// `plan_groups` sees everything from a single component to fully
/// disjoint channels.
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
    /// On arbitrary topologies the runner's result is its deployments'
    /// work and internally consistent: nothing leaks across channels or
    /// goes missing within one.
    #[test]
    fn the_runner_is_its_deployments(windows in topologies()) {
        let cfg = config_of(&windows);
        let res = run_multichannel(&cfg);
        let deployments = cfg.deployments();

        prop_assert!(res.events > 0, "runs must not be vacuous");
        prop_assert_eq!(deployments.len(), res.groups);
        let events: u64 = deployments
            .into_iter()
            .map(|(_, d)| d.run().events_processed())
            .sum();
        prop_assert_eq!(events, res.events);

        // Every member of every channel got every block of that channel,
        // and every channel reports its plan's members in global ids.
        for (c, plan) in res.channels.iter().zip(&cfg.channels) {
            prop_assert!(c.blocks >= 1, "channel {} cut nothing", c.channel);
            prop_assert_eq!(c.completeness, 1.0, "channel {} starved", c.channel);
            let members: Vec<PeerId> = c.member_bytes.iter().map(|&(peer, _)| peer).collect();
            prop_assert_eq!(&members, &plan.members);
        }
        // The per-channel byte shares the fairness report is built from
        // account for every byte a peer sent, and for nothing else.
        let mut summed = vec![0u64; PEERS];
        for c in &res.channels {
            for &(peer, bytes) in &c.member_bytes {
                summed[peer.index()] += bytes;
            }
        }
        prop_assert_eq!(&summed, &res.peer_bytes);
    }
}
