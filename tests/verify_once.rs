//! Tier-1 pins for "hash each block once": the verdict and header hash a
//! `BlockRef` seals at construction replace a SHA-256 pass on every
//! reception, which must neither move one simulated event nor let a
//! doctored payload through. The counts below were taken at the commit
//! before the seal existed and re-taken once, when `desim`'s LAN jitter
//! became a ziggurat draw; they are pure functions of seed + protocol +
//! network model.

use fair_gossip::experiments::deployment::Deployment;
use fair_gossip::experiments::net::NetParams;
use fair_gossip::experiments::scenario::ScenarioNet;
use fair_gossip::gossip::config::GossipConfig;
use fair_gossip::gossip::messages::GossipMsg;
use fair_gossip::gossip::peer::GossipPeer;
use fair_gossip::gossip::scenario::{Equivocator, Predicate, ScenarioOp};
use fair_gossip::gossip::testing::MockEffects;
use fair_gossip::orderer::cutter::BatchConfig;
use fair_gossip::orderer::service::OrdererConfig;
use fair_gossip::sim::{Duration, NetworkConfig};
use fair_gossip::types::block::{Block, BlockRef};
use fair_gossip::types::crypto::Hash256;
use fair_gossip::types::ids::{ChannelId, PeerId};
use fair_gossip::workload::schedule::{payload_schedule, PayloadWorkload};

/// What the engine counted over one fixed-seed run.
#[derive(Debug, PartialEq)]
struct Work {
    events: u64,
    msgs_sent: u64,
    wire_bytes: u64,
}

/// 30 peers, 10 blocks of 50 transactions, LAN, seed 7.
fn disseminate(gossip: GossipConfig) -> Work {
    let orderer = OrdererConfig::kafka(BatchConfig::paper_dissemination());
    let params = NetParams::new(30, gossip, orderer);
    let schedule = payload_schedule(&PayloadWorkload::shortened(500));
    let network = NetworkConfig::lan(0);
    let d = Deployment::new(params, schedule, &network, 7, Duration::ZERO);
    let mut scenario = ScenarioNet::over(d);
    scenario.run_for(Duration::from_secs(60));
    let (sim, net) = (scenario.sim(), scenario.sim().protocol());
    assert_eq!(net.blocks_cut(), 10);
    assert_eq!(net.latency().completeness(), 1.0);
    Work {
        events: sim.events_processed(),
        msgs_sent: sim.metrics().kinds().map(|(_, k)| k.count).sum(),
        wire_bytes: sim.metrics().network_total_sent(),
    }
}

#[test]
fn original_gossip_does_the_same_simulated_work() {
    assert_eq!(
        disseminate(GossipConfig::original_fabric()),
        Work {
            events: 10_507,
            msgs_sent: 7_524,
            wire_bytes: 148_892_888,
        }
    );
}

#[test]
fn enhanced_gossip_does_the_same_simulated_work() {
    assert_eq!(
        disseminate(GossipConfig::enhanced_f4()),
        Work {
            events: 14_694,
            msgs_sent: 12_728,
            wire_bytes: 66_133_842,
        }
    );
}

/// Verifying once must still be verifying: an equivocator's doctored
/// payloads (genuine header, tampered transactions) are rejected and
/// counted exactly as when every reception re-hashed, nothing doctored is
/// stored or delivered, and honest redundancy still completes the chain.
#[test]
fn an_equivocator_is_still_rejected_counted_and_outlived() {
    let mut cfg = GossipConfig::enhanced_f4().with_quick_discovery();
    cfg.recovery.interval = Duration::from_secs(2);
    cfg.recovery.state_info_interval = Duration::from_secs(1);
    let members: Vec<PeerId> = (0..4).map(PeerId).collect();
    let mut net = ScenarioNet::new(NetworkConfig::lan(5), vec![members], &cfg, 7);
    net.set_byzantine(PeerId(1), Box::new(Equivocator));
    net.stream(0, 5);
    net.run_script(&[
        ScenarioOp::Wait { secs: 10 },
        ScenarioOp::Join {
            channel: 0,
            peer: PeerId(4),
        },
        ScenarioOp::Wait { secs: 30 },
        // Completeness 1.0: every member holds the gap-free chain.
        ScenarioOp::Assert(Predicate::GapFreeCatchup { channel: 0 }),
    ])
    .expect("equivocation must not break completeness");
    assert_eq!(net.head(0), 5);

    let (mut invalid, mut equivocations) = (0, 0);
    for i in 0..5usize {
        let stats = net.gossip(i).stats_on(ChannelId(0)).expect("a member");
        invalid += stats.invalid_payloads;
        equivocations += stats.equivocations_rejected;
        assert_eq!(net.gossip(i).height_on(ChannelId(0)), 6);
        // The audit re-hashes instead of reading the sealed verdict.
        let held = (1..=5).filter_map(|n| net.gossip(i).store().get(n));
        let committed = net.ledger(i, 0).expect("members keep a ledger").blocks();
        assert_eq!(committed.len(), 6, "peer {i} committed genesis + 5");
        for block in held.chain(committed) {
            assert!(
                Block::data_intact(block),
                "peer {i} kept a doctored block {}",
                block.number()
            );
        }
    }
    assert_eq!((invalid, equivocations), (10, 0));
}

/// The store's equivocation check compares sealed header hashes: a
/// separately allocated copy of the held block is a plain duplicate, a
/// self-consistent block with another header at that height is rejected.
#[test]
fn a_conflicting_header_is_equivocation_and_a_rebuilt_copy_is_a_duplicate() {
    let roster: Vec<PeerId> = (0..10).map(PeerId).collect();
    let mut peer = GossipPeer::new(PeerId(5), roster, GossipConfig::enhanced_f4());
    let mut fx = MockEffects::new(1);
    let push = |prev: Hash256| GossipMsg::BlockPush {
        block: BlockRef::new(Block::new(1, prev, vec![])),
        counter: 1,
    };
    peer.on_message(&mut fx, PeerId(1), push(Hash256::ZERO));
    peer.on_message(&mut fx, PeerId(2), push(Hash256::ZERO));
    peer.on_message(&mut fx, PeerId(3), push(Hash256([9; 32])));
    let stats = peer.stats();
    assert_eq!(stats.duplicate_blocks, 1);
    assert_eq!(stats.equivocations_rejected, 1);
    assert_eq!(stats.invalid_payloads, 0);
    let held = peer.store().get(1).expect("the first copy is held");
    assert_eq!(held.header.prev_hash, Hash256::ZERO);
    assert_eq!(fx.delivered_numbers(), vec![1]);
}
