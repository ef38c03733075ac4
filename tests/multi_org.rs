//! Multi-organization deployments (Fig. 1 of the paper): push and pull are
//! confined to each organization, the ordering service feeds one leader per
//! organization, and StateInfo/recovery cross organization boundaries.

use fair_gossip::experiments::deployment::Deployment;
use fair_gossip::experiments::net::NetParams;
use fair_gossip::experiments::scenario::ScenarioNet;
use fair_gossip::gossip::config::GossipConfig;
use fair_gossip::gossip::scenario::ScenarioOp;
use fair_gossip::orderer::cutter::BatchConfig;
use fair_gossip::orderer::service::OrdererConfig;
use fair_gossip::sim::{Duration, NetworkConfig};
use fair_gossip::types::ids::{ChannelId, PeerId};
use fair_gossip::workload::schedule::{payload_schedule, PayloadWorkload};

fn multi_org(peers: usize, orgs: usize, txs: usize, seed: u64) -> ScenarioNet {
    let orderer = OrdererConfig::kafka(BatchConfig::paper_dissemination());
    let mut params = NetParams::new(peers, GossipConfig::enhanced_f4(), orderer);
    params.orgs = orgs;
    let schedule = payload_schedule(&PayloadWorkload::shortened(txs));
    let network = NetworkConfig::lan(0);
    let d = Deployment::new(params, schedule, &network, seed, Duration::ZERO);
    ScenarioNet::over(d)
}

#[test]
fn three_orgs_have_one_static_leader_each() {
    let scenario = multi_org(60, 3, 50, 1);
    let net = scenario.sim().protocol();
    let leaders = net.current_leaders_on(ChannelId::DEFAULT);
    assert_eq!(leaders, vec![PeerId(0), PeerId(20), PeerId(40)]);
    for (i, leader) in leaders.iter().enumerate() {
        assert_eq!(net.org_of(*leader), i);
    }
}

#[test]
fn push_membership_is_org_confined_but_channel_view_is_global() {
    let scenario = multi_org(60, 3, 50, 1);
    let peer = scenario.gossip(25); // org 1 owns peers 20..40
    assert!(peer
        .membership()
        .peers()
        .iter()
        .all(|p| (20..40).contains(&p.index()) && p.index() != 25));
    assert_eq!(peer.membership().len(), 19);
    assert_eq!(peer.channel().len(), 59);
}

#[test]
fn every_peer_of_every_org_receives_every_block() {
    let mut scenario = multi_org(60, 3, 1_000, 3);
    scenario.run_for(Duration::from_secs(120));
    let net = scenario.sim().protocol();
    assert_eq!(net.blocks_cut(), 20);
    assert_eq!(
        net.latency().completeness(),
        1.0,
        "all three organizations must converge"
    );
    // Latency fairness across organizations: mean reception latency per
    // org should be in the same ballpark (no starved organization).
    let mut org_means = Vec::new();
    for org in 0..3 {
        let cdfs = net.latency().all_peer_cdfs();
        let mean: f64 = (org * 20..(org + 1) * 20)
            .map(|i| cdfs[i].mean().as_secs_f64())
            .sum::<f64>()
            / 20.0;
        org_means.push(mean);
    }
    let min = org_means.iter().copied().fold(f64::INFINITY, f64::min);
    let max = org_means.iter().copied().fold(0.0f64, f64::max);
    assert!(
        max / min < 3.0,
        "organizations should see comparable latencies: {org_means:?}"
    );
}

#[test]
fn org_without_a_live_leader_catches_up_via_cross_org_recovery() {
    // A static roster: when org 2's leader (peer 20) dies, no one inside
    // the org replaces it and the orderer cannot feed the org. Its peers
    // must still converge through the channel-wide StateInfo + recovery
    // path (§III: recovery is not limited to the organization).
    let mut net = multi_org(30, 3, 1_500, 7);
    let power_off = ScenarioOp::Power {
        peer: PeerId(20),
        on: false,
    };
    let script = [
        ScenarioOp::Wait { secs: 5 },
        power_off,
        ScenarioOp::Wait { secs: 175 },
    ];
    net.run_script(&script).unwrap();
    let reference = net.gossip(5).height(); // org 0 is fed normally
    assert!(reference > 25, "the fed organizations made progress");
    for i in 21..30 {
        let h = net.gossip(i).height();
        assert!(
            reference.saturating_sub(h) <= 2,
            "org-2 peer {i} must catch up via recovery: {h} vs {reference}"
        );
    }
}

#[test]
fn single_org_deployment_is_the_default_and_unchanged() {
    let net = multi_org(20, 1, 50, 1);
    assert_eq!(net.leaders(0), vec![PeerId(0)]);
    assert_eq!(net.gossip(5).membership().len(), 19);
    assert_eq!(net.gossip(5).channel().len(), 19);
}
