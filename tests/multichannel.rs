//! Tier-1 pins for the multi-channel runner, which runs one deployment
//! whatever the channels' overlap: `skewed` (overlapping windows) and
//! `clustered` (clusters that share no peer, only the client and the
//! ordering service) do exactly the pinned simulated work — the event
//! count and the content hash of every handled event of
//! `cfg.deployment()` run traced, so a reordering cannot hide behind an
//! unchanged count.

use fair_gossip::experiments::multichannel::{run_multichannel, MultiChannelConfig};
use fair_gossip::experiments::ChurnResult;
use fair_gossip::sim::Duration;

/// Runs `cfg` and asserts every channel cut blocks, reached all its
/// members and is led by its roster minimum; returns the result with the
/// content hash taken by running `cfg.deployment()` out traced — which
/// must do the runner's work, event for event.
fn run_pinned(cfg: &MultiChannelConfig) -> (ChurnResult, u64) {
    let res = run_multichannel(cfg);
    for (c, plan) in res.channels.iter().zip(&cfg.channels) {
        assert!(c.blocks >= 1, "channel {} cut nothing", c.channel);
        assert_eq!(c.completeness, 1.0, "channel {} starved", c.channel);
        assert_eq!(c.leaders, [plan.members[0]], "channel {}", c.channel);
    }
    let d = cfg.deployment();
    let end = d.drain_until + d.idle_tail;
    let mut sim = d.start();
    sim.set_trace(true);
    sim.run_until(end);
    assert_eq!(
        sim.events_processed(),
        res.events,
        "the runner runs its deployment"
    );
    (res, sim.content_hash().expect("the run was traced"))
}

#[test]
fn skewed_smoke_is_pinned() {
    let (res, hash) = run_pinned(&MultiChannelConfig::skewed(2, 30, 40));
    assert_eq!(res.channels.len(), 2);
    // Channel 1 runs 2× slower on half the blocks.
    assert_eq!((res.channels[0].blocks, res.channels[1].blocks), (40, 20));
    assert_eq!(res.events, 43_106, "event count shifted");
    assert_eq!(hash, 0xfd15_0784_76aa_5b55, "event content shifted");
    // The read-off: the pooled latency quantiles and the fairness built
    // from the per-member bytes.
    let ns = |c: usize| {
        let c = &res.channels[c];
        (c.p50.as_nanos(), c.p999.as_nanos(), c.max.as_nanos())
    };
    assert_eq!(ns(0), (16_704_924, 466_676_258, 466_676_258));
    assert_eq!(ns(1), (15_235_785, 360_788_184, 360_788_184));
    assert_eq!(res.fairness.overall_jain, 0.840834053553788);
}

#[test]
fn disjoint_clusters_are_one_deployment_and_pinned() {
    let cfg = MultiChannelConfig::clustered(2, 9, 40);
    let (res, hash) = run_pinned(&cfg);
    assert_eq!(res.channels.len(), 4);
    // Every channel reports its plan's members, peers 9..18 included.
    for (c, plan) in res.channels.iter().zip(&cfg.channels) {
        let members: Vec<_> = c.member_bytes.iter().map(|&(peer, _)| peer).collect();
        assert_eq!(members, plan.members, "channel {}", c.channel);
        assert!(c.p50 > Duration::ZERO && c.p999 >= c.p50);
    }
    assert_eq!(res.events, 3_912, "event count shifted");
    assert_eq!(hash, 0xc94b_9a8f_1dfc_af4d, "event content shifted");
}
