//! Tier-1 pins for the one multi-channel runner: both presets — `skewed`
//! (one connected component, so one `FabricNet` on the calling thread) and
//! `large_smoke` (six components) — go through the same
//! `run_multichannel`, give the identical result whether one shard or four
//! execute the groups, and do exactly the pinned simulated work: the event
//! count and, per group, the content hash of every handled event, so a
//! reordering cannot hide behind an unchanged count.

use fair_gossip::experiments::multichannel::{
    run_multichannel, MultiChannelConfig, MultiChannelResult,
};
use fair_gossip::sim::Duration;

/// Runs `cfg` traced on one shard and on four, asserts the two results are
/// identical — metrics, fairness report and group content hashes — and
/// returns one.
fn run_on_1_and_4_shards(mut cfg: MultiChannelConfig) -> MultiChannelResult {
    cfg.record_trace = true;
    cfg.shards = 1;
    let serial = run_multichannel(&cfg);
    cfg.shards = 4;
    let sharded = run_multichannel(&cfg);
    assert_eq!(serial, sharded, "shard count must be unobservable");
    for c in &serial.channels {
        assert!(c.blocks >= 1, "channel {} cut nothing", c.channel);
        assert_eq!(c.completeness, 1.0, "channel {} starved", c.channel);
    }
    serial
}

#[test]
fn skewed_smoke_is_one_group_and_pinned() {
    let res = run_on_1_and_4_shards(MultiChannelConfig::skewed(2, 30, 40));
    assert_eq!((res.groups, res.channels.len()), (1, 2));
    // Channel 1 runs 2× slower on half the blocks.
    assert_eq!((res.channels[0].blocks, res.channels[1].blocks), (40, 20));
    assert_eq!(res.blocks, 60);
    assert_eq!(res.events, 43_243, "event count shifted");
    assert_eq!(
        res.group_hashes,
        Some(vec![0x8348_d1d4_4926_886b]),
        "event content shifted"
    );
}

#[test]
fn large_smoke_is_six_groups_and_pinned() {
    let res = run_on_1_and_4_shards(MultiChannelConfig::large_smoke());
    assert_eq!((res.groups, res.channels.len()), (6, 12));
    assert_eq!(res.blocks, 24);
    assert_eq!(res.events, 25_230, "event count shifted");
    for c in &res.channels {
        assert_eq!(c.blocks, 2, "channel {} block count shifted", c.channel);
        assert!(c.p50 > Duration::ZERO && c.p999 >= c.p50);
    }
    assert_eq!(
        res.group_hashes,
        Some(vec![
            0xa442_1457_03a4_bfb6,
            0x07ef_724d_60cf_bdf5,
            0x2b94_ab15_6de0_b0f0,
            0x13ec_f4d9_532d_6b88,
            0x39e0_cf05_b7c6_de0b,
            0xb1ce_86f6_61c4_2e99,
        ]),
        "event content shifted"
    );
}
