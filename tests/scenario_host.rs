//! Tier-1 pins for "one simulator under every number": the scenario DSL
//! and the Byzantine catalog run on `Simulation<FabricNet>`, in whatever
//! network model they are given. (That the attacker edge is inert when
//! nothing is attached is `verify_once`'s two `Work` pins, unedited.)

use fair_gossip::experiments::scenario::ScenarioNet;
use fair_gossip::gossip::config::GossipConfig;
use fair_gossip::gossip::messages::GossipMsg;
use fair_gossip::gossip::scenario::{
    random_scenario, AttackCtx, Byzantine, Equivocator, Predicate, ScenarioOp, ScenarioShape,
    Withholder,
};
use fair_gossip::sim::{Duration, NetworkConfig};
use fair_gossip::types::block::Block;
use fair_gossip::types::ids::{ChannelId, PeerId};

/// Discovery and recovery timers tightened so a scenario settles in
/// seconds of simulated time (the shape the adversarial suite uses).
fn cfg() -> GossipConfig {
    let mut cfg = GossipConfig::enhanced_f4().with_quick_discovery();
    cfg.recovery.interval = Duration::from_secs(2);
    cfg.recovery.state_info_interval = Duration::from_secs(1);
    cfg
}

/// What a run leaves behind, for whole-run comparisons: the engine's
/// event count, then per peer its view, height and counters.
fn fingerprint(net: &ScenarioNet, peers: usize) -> (u64, Vec<String>) {
    let per_peer = (0..peers)
        .map(|i| {
            format!(
                "{:?} {} {:?}",
                net.view_of(PeerId(i as u32), 0),
                net.gossip(i).height_on(ChannelId(0)),
                net.gossip(i).stats_on(ChannelId(0))
            )
        })
        .collect();
    (net.sim().events_processed(), per_peer)
}

#[test]
fn the_same_script_seed_and_network_replay_event_for_event() {
    let initial: Vec<PeerId> = (0..5).map(PeerId).collect();
    let script = random_scenario(12345, &initial, &ScenarioShape::default());
    let run = |network: NetworkConfig, seed: u64| {
        let mut net = ScenarioNet::new(network, vec![initial.clone()], &cfg(), seed);
        net.stream(0, 3);
        net.run_script(&script).expect("invariants hold");
        fingerprint(&net, 8)
    };
    for network in [NetworkConfig::ideal(8), NetworkConfig::lan(8)] {
        assert_eq!(run(network.clone(), 7), run(network.clone(), 7));
        assert_ne!(run(network.clone(), 7), run(network, 8), "the seed is read");
    }
}

#[test]
fn a_withholder_and_an_equivocator_are_outlived_in_the_benchmarks_network_model() {
    // The first attackers to run where the performance numbers are taken:
    // 1 Gbps LAN latency and jitter, per-message processing delay, real
    // ledgers behind gossip. Seven sitting members, two of them
    // compromised, and a late joiner.
    let members: Vec<PeerId> = (0..7).map(PeerId).collect();
    let mut net = ScenarioNet::new(NetworkConfig::lan(8), vec![members], &cfg(), 7);
    net.set_byzantine(PeerId(1), Box::new(Equivocator));
    net.set_byzantine(PeerId(2), Box::new(Withholder::new(Vec::new())));
    net.stream(0, 6);
    net.run_script(&[
        ScenarioOp::Wait { secs: 10 },
        ScenarioOp::Assert(Predicate::GapFreeCatchup { channel: 0 }),
        ScenarioOp::Join {
            channel: 0,
            peer: PeerId(7),
        },
        ScenarioOp::Wait { secs: 30 },
        ScenarioOp::Assert(Predicate::ViewAgreement { channel: 0 }),
        ScenarioOp::Assert(Predicate::GapFreeCatchup { channel: 0 }),
        ScenarioOp::Assert(Predicate::ExactlyOneLeader { channel: 0 }),
    ])
    .expect("withholding and equivocation must not break completeness or leadership");
    assert_eq!(net.members(0).len(), 8);

    // Nothing doctored is stored or committed: the audit re-hashes instead
    // of reading the verdict sealed in the handle it is auditing.
    let mut invalid = 0;
    for i in 0..8usize {
        invalid += net
            .gossip(i)
            .stats_on(ChannelId(0))
            .expect("a member")
            .invalid_payloads;
        let held = (1..=6).filter_map(|n| net.gossip(i).store().get(n));
        let committed = net.ledger(i, 0).expect("members keep a ledger").blocks();
        // Genesis + 6 for a sitting member, the same for the joiner: it
        // replayed the chain (snapshots are off).
        assert_eq!(committed.len(), 7, "peer {i} committed the whole chain");
        for block in held.chain(committed) {
            assert!(
                Block::data_intact(block),
                "peer {i} kept a doctored block {}",
                block.number()
            );
        }
    }
    assert!(invalid > 0, "the doctored payloads must bounce somewhere");
    assert_eq!(net.sim().protocol().commit_errors(), 0);
}

/// Overrides every hook and changes nothing — and draws from the attack
/// generator on every call, which must not be the engine's.
#[derive(Debug)]
struct PassThrough;

impl Byzantine for PassThrough {
    fn name(&self) -> &'static str {
        "pass-through"
    }

    fn on_outbound(
        &mut self,
        ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        ctx.pick(channel);
        vec![(channel, to, msg)]
    }

    fn on_inbound(
        &mut self,
        ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        _msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        ctx.pick(channel);
        Vec::new()
    }

    fn on_step(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        ctx.pick(ChannelId(0));
        Vec::new()
    }
}

#[test]
fn attaching_a_behavior_that_changes_nothing_re_rolls_no_honest_draw() {
    let run = |attach: bool| {
        let members: Vec<PeerId> = (0..5).map(PeerId).collect();
        let mut net = ScenarioNet::new(NetworkConfig::lan(6), vec![members], &cfg(), 7);
        if attach {
            net.set_byzantine(PeerId(2), Box::new(PassThrough));
            net.set_byzantine(PeerId(3), Box::new(PassThrough));
        }
        net.stream(0, 4);
        net.join(0, PeerId(5));
        net.run_for(Duration::from_secs(20));
        fingerprint(&net, 6)
    };
    assert_eq!(run(false), run(true));
}
