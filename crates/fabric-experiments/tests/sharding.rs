//! Shard-count invariance of the multi-channel runner.
//!
//! The contract (`multichannel.rs` module docs): each group's content
//! hash, every per-channel metric and the fairness report are pure
//! functions of the configuration and seed, **independent of how many
//! worker shards execute the groups**. The proptest below pins that over
//! random multichannel topologies — random overlap structure, so group
//! counts range from one component to one per channel. The `large_smoke`
//! golden pin lives in the root `tests/multichannel.rs`.

use desim::Duration;
use fabric_experiments::multichannel::{run_multichannel, ChannelPlan, MultiChannelConfig};
use fabric_types::ids::PeerId;
use proptest::prelude::*;

/// Global peer-id space for the random topologies.
const PEERS: usize = 30;

/// A random topology: channels as membership windows `[base, base+width)`
/// over the peer space, plus a shard count. Windows overlap (or don't)
/// arbitrarily, so `plan_groups` sees everything from a single component
/// to fully disjoint channels.
fn topologies() -> impl Strategy<Value = (Vec<(u32, u32)>, usize)> {
    (
        proptest::collection::vec((0u32..24, 4u32..9), 1..5),
        2usize..5,
    )
}

fn config_of(windows: &[(u32, u32)], shards: usize) -> MultiChannelConfig {
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
    cfg.shards = shards;
    cfg.record_trace = true;
    cfg.idle_tail = Duration::from_secs(1);
    cfg.seed = 0xC0FFEE;
    cfg
}

proptest! {
    /// `shards = 1` and `shards = N` produce the identical result — group
    /// content hashes, per-channel metrics, fairness report — on arbitrary
    /// topologies, and that result is internally consistent: nothing leaks
    /// across channels or goes missing within one.
    #[test]
    fn shard_count_is_unobservable((windows, shards) in topologies()) {
        let a = run_multichannel(&config_of(&windows, 1));
        let b = run_multichannel(&config_of(&windows, shards));

        prop_assert!(b.events > 0, "runs must not be vacuous");
        prop_assert_eq!(b.group_hashes.as_ref().map(Vec::len), Some(b.groups));
        prop_assert_eq!(&a, &b);

        // Every member of every channel got every block of that channel.
        for c in &b.channels {
            prop_assert!(c.blocks >= 1, "channel {} cut nothing", c.channel);
            prop_assert_eq!(c.completeness, 1.0, "channel {} starved", c.channel);
        }
        // The per-channel byte shares the fairness report is built from
        // account for every byte a peer sent, and for nothing else.
        let mut summed = vec![0u64; PEERS];
        for c in &b.channels {
            for &(peer, bytes) in &c.member_bytes {
                summed[peer.index()] += bytes;
            }
        }
        prop_assert_eq!(&summed, &b.peer_bytes);
    }
}
