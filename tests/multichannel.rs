//! Tier-1 pins for the one multi-channel runner: both presets — `skewed`
//! (one connected component, so one `FabricNet`) and `large_smoke` (six
//! components) — go through the same `run_multichannel` and do exactly the
//! pinned simulated work: the event count and, per group, the content hash
//! of every handled event of `cfg.deployments()` run traced, so a
//! reordering cannot hide behind an unchanged count.

use fair_gossip::experiments::multichannel::{
    run_multichannel, MultiChannelConfig, MultiChannelResult,
};
use fair_gossip::sim::Duration;

/// Runs `cfg` and asserts every channel cut blocks and reached all its
/// members; returns the result with each group's content hash, taken by
/// running `cfg.deployments()` out traced — which must do the runner's
/// work, event for event.
fn run_pinned(cfg: &MultiChannelConfig) -> (MultiChannelResult, Vec<u64>) {
    let res = run_multichannel(cfg);
    for c in &res.channels {
        assert!(c.blocks >= 1, "channel {} cut nothing", c.channel);
        assert_eq!(c.completeness, 1.0, "channel {} starved", c.channel);
    }
    let mut events = 0;
    let hashes = cfg
        .deployments()
        .into_iter()
        .map(|(_, d)| {
            let end = d.drain_until + d.idle_tail;
            let mut sim = d.start();
            sim.set_trace(true);
            sim.run_until(end);
            events += sim.events_processed();
            sim.content_hash().expect("the run was traced")
        })
        .collect();
    assert_eq!(events, res.events, "the runner runs its deployments");
    (res, hashes)
}

#[test]
fn skewed_smoke_is_one_group_and_pinned() {
    let (res, hashes) = run_pinned(&MultiChannelConfig::skewed(2, 30, 40));
    assert_eq!((res.groups, res.channels.len()), (1, 2));
    // Channel 1 runs 2× slower on half the blocks.
    assert_eq!((res.channels[0].blocks, res.channels[1].blocks), (40, 20));
    assert_eq!(res.blocks, 60);
    assert_eq!(res.events, 43_243, "event count shifted");
    assert_eq!(hashes, [0x8348_d1d4_4926_886b], "event content shifted");
    // The read-off: the pooled latency quantiles and the fairness built
    // from the per-member bytes.
    let ns = |c: usize| {
        let c = &res.channels[c];
        (c.p50.as_nanos(), c.p999.as_nanos(), c.max.as_nanos())
    };
    assert_eq!(ns(0), (17_179_140, 421_120_482, 421_120_482));
    assert_eq!(ns(1), (15_103_079, 354_795_770, 354_795_770));
    assert_eq!(res.fairness.overall_jain, 0.8284979802815126);
}

#[test]
fn large_smoke_is_six_groups_and_pinned() {
    let (res, hashes) = run_pinned(&MultiChannelConfig::large_smoke());
    assert_eq!((res.groups, res.channels.len()), (6, 12));
    assert_eq!(res.blocks, 24);
    assert_eq!(res.events, 25_230, "event count shifted");
    for c in &res.channels {
        assert_eq!(c.blocks, 2, "channel {} block count shifted", c.channel);
        assert!(c.p50 > Duration::ZERO && c.p999 >= c.p50);
    }
    assert_eq!(
        hashes,
        [
            0xa442_1457_03a4_bfb6,
            0x07ef_724d_60cf_bdf5,
            0x2b94_ab15_6de0_b0f0,
            0x13ec_f4d9_532d_6b88,
            0x39e0_cf05_b7c6_de0b,
            0xb1ce_86f6_61c4_2e99,
        ],
        "event content shifted"
    );
}
