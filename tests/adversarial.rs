//! Free-riding peers (the paper's discussion section): peers that accept
//! blocks but never forward. The enhanced protocol's p_e margin and the
//! recovery component must absorb a sizable fraction of them.

use fair_gossip::experiments::deployment::Deployment;
use fair_gossip::experiments::net::NetParams;
use fair_gossip::experiments::scenario::ScenarioNet;
use fair_gossip::gossip::config::GossipConfig;
use fair_gossip::gossip::messages::GossipMsg;
use fair_gossip::gossip::peer::GossipPeer;
use fair_gossip::gossip::testing::MockEffects;
use fair_gossip::orderer::cutter::BatchConfig;
use fair_gossip::orderer::service::OrdererConfig;
use fair_gossip::sim::{Duration, NetworkConfig};
use fair_gossip::types::block::Block;
use fair_gossip::types::block::BlockRef;
use fair_gossip::types::ids::PeerId;
use fair_gossip::workload::schedule::{payload_schedule, PayloadWorkload};

#[test]
fn free_rider_receives_but_never_forwards() {
    let roster: Vec<PeerId> = (0..10).map(PeerId).collect();
    let mut peer = GossipPeer::new(PeerId(5), roster, GossipConfig::enhanced_f4());
    peer.set_forwarding(false);
    assert!(!peer.forwarding());
    let mut fx = MockEffects::new(1);

    let block = BlockRef::new(Block::new(
        1,
        fair_gossip::types::crypto::Hash256::ZERO,
        vec![],
    ));
    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::BlockPush { block, counter: 2 },
    );
    assert!(peer.store().has(1), "a free-rider still wants the chain");
    assert_eq!(fx.delivered_numbers(), vec![1]);
    assert!(fx.take_sent().is_empty(), "but it forwards nothing");

    // Digest for unknown content: it fetches (self-interest) without
    // re-announcing.
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::PushDigest {
            block_num: 2,
            counter: 3,
        },
    );
    let sent = fx.take_sent();
    assert_eq!(sent.len(), 1);
    assert!(matches!(
        sent[0].1,
        GossipMsg::PushRequest { block_num: 2, .. }
    ));

    // It still serves explicit requests — a silent dropper, not a liar.
    peer.on_message(
        &mut fx,
        PeerId(3),
        GossipMsg::PushRequest {
            block_num: 1,
            counter: 2,
        },
    );
    assert_eq!(fx.take_sent().len(), 1);
}

fn run_with_free_riders(fraction: f64, seed: u64) -> (f64, u64) {
    let peers = 60;
    let orderer = OrdererConfig::kafka(BatchConfig::paper_dissemination());
    let params = NetParams::new(peers, GossipConfig::enhanced_f4(), orderer);
    let schedule = payload_schedule(&PayloadWorkload::shortened(1_000));
    let network = NetworkConfig::lan(0);
    let mut d = Deployment::new(params, schedule, &network, seed, Duration::ZERO);
    // Mark the tail of the roster as free riders (never the leader: a
    // free-riding contact peer would nullify the experiment trivially).
    let riders = ((peers as f64) * fraction) as usize;
    for i in (peers - riders)..peers {
        d.net.set_forwarding(i, false);
    }
    let mut scenario = ScenarioNet::over(d);
    scenario.run_for(Duration::from_secs(150));
    let net = scenario.sim().protocol();
    (net.latency().completeness(), net.blocks_cut())
}

#[test]
fn enhanced_gossip_absorbs_twenty_percent_free_riders() {
    let (completeness, blocks) = run_with_free_riders(0.2, 5);
    assert_eq!(blocks, 20);
    assert_eq!(
        completeness, 1.0,
        "the p_e margin plus fetch/recovery must still inform everyone"
    );
}

#[test]
fn even_forty_percent_free_riders_eventually_converge_via_recovery() {
    let (completeness, _) = run_with_free_riders(0.4, 9);
    assert_eq!(
        completeness, 1.0,
        "recovery is the backstop once push coverage degrades"
    );
}
