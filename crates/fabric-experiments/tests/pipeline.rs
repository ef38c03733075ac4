//! Direct tests of the simulated Fabric pipeline (`FabricNet`): the
//! propose→endorse→submit→order→deliver flow, observed step by step.

use desim::{Duration, NetworkConfig, Simulation, Time};
use fabric_experiments::churn_waves::ChurnWavesConfig;
use fabric_experiments::deployment::Deployment;
use fabric_experiments::dissemination::DisseminationConfig;
use fabric_experiments::net::{ChurnAction, FabricNet, NetParams};
use fabric_gossip::config::GossipConfig;
use fabric_orderer::cutter::BatchConfig;
use fabric_orderer::service::OrdererConfig;
use fabric_workload::schedule::{increment_schedule, IncrementWorkload};

fn params(peers: usize, max_count: usize, timeout: Duration) -> NetParams {
    let batch = BatchConfig {
        max_message_count: max_count,
        preferred_max_bytes: 1 << 20,
        batch_timeout: timeout,
    };
    NetParams::new(
        peers,
        GossipConfig::enhanced_f4(),
        OrdererConfig::instant(batch),
    )
}

fn increment_sim(
    peers: usize,
    keys: usize,
    rounds: usize,
    max_count: usize,
    timeout: Duration,
) -> Simulation<FabricNet> {
    let workload = IncrementWorkload {
        keys,
        rounds,
        rate_per_sec: 10.0,
    };
    Deployment::new(
        params(peers, max_count, timeout),
        increment_schedule(&workload, 42),
        &NetworkConfig::lan(0),
        9,
        Duration::ZERO,
    )
    .start()
}

#[test]
fn client_issues_the_whole_schedule() {
    let mut sim = increment_sim(10, 5, 4, 10, Duration::from_millis(500));
    sim.run_until(Time::from_secs(30));
    let net = sim.protocol();
    assert_eq!(net.issued(), 20);
    assert_eq!(net.endorse_failures(), 0);
}

#[test]
fn blocks_cut_by_count_and_timeout_carry_all_transactions() {
    let mut sim = increment_sim(10, 6, 5, 4, Duration::from_secs(5));
    sim.run_until(Time::from_secs(60));
    let net = sim.protocol();
    // 30 transactions in blocks of ≤4: at least 8 blocks.
    assert!(net.blocks_cut() >= 8, "got {}", net.blocks_cut());
    let endorser = net.ledger(1).expect("endorser ledger");
    let stats = endorser.stats();
    assert_eq!(stats.valid_txs + stats.mvcc_conflicts, 30);
    assert_eq!(stats.endorsement_failures, 0);
}

#[test]
fn endorser_ledger_matches_gossip_delivery() {
    let mut sim = increment_sim(8, 4, 6, 10, Duration::from_millis(400));
    sim.run_until(Time::from_secs(40));
    let net = sim.protocol();
    let endorser = net.ledger(1).unwrap();
    // Ledger height = genesis + all cut blocks once validation drained.
    assert_eq!(endorser.height(), net.blocks_cut() + 1);
    // And the gossip store of a bystander peer agrees.
    assert_eq!(net.gossip(5).height(), net.blocks_cut() + 1);
}

#[test]
fn validation_delay_defers_commit_but_not_reception() {
    // One block of 5 transactions at 50 ms each: the endorser receives the
    // block promptly but commits only ~250 ms later.
    let workload = IncrementWorkload {
        keys: 5,
        rounds: 1,
        rate_per_sec: 100.0,
    };
    let schedule = increment_schedule(&workload, 1);
    let mut p = params(6, 5, Duration::from_secs(5));
    p.validation_per_tx = Duration::from_millis(50);
    let mut sim = Deployment::new(p, schedule, &NetworkConfig::ideal(0), 3, Duration::ZERO).start();

    // After the block reaches peers but before validation finishes, the
    // store has it and the ledger does not.
    sim.run_until(Time::from_millis(150));
    let net = sim.protocol();
    assert_eq!(net.blocks_cut(), 1);
    assert_eq!(net.gossip(1).height(), 2, "content received");
    assert_eq!(
        net.ledger(1).unwrap().height(),
        1,
        "commit still validating"
    );

    sim.run_until(Time::from_secs(2));
    assert_eq!(
        sim.protocol().ledger(1).unwrap().height(),
        2,
        "commit landed"
    );
}

#[test]
fn per_kind_accounting_covers_the_whole_pipeline() {
    let mut sim = increment_sim(10, 5, 4, 10, Duration::from_millis(500));
    sim.run_until(Time::from_secs(30));
    let m = sim.metrics();
    for kind in ["propose", "endorsed", "submit", "orderer-deliver", "block"] {
        assert!(
            m.kind(kind).map(|k| k.count).unwrap_or(0) > 0,
            "expected traffic of kind {kind}"
        );
    }
    assert_eq!(m.kind("propose").unwrap().count, 20);
    assert_eq!(m.kind("endorsed").unwrap().count, 20);
    assert_eq!(m.kind("submit").unwrap().count, 20);
}

/// Checks every sitting member's first-reception count against its row of
/// the channel's latency matrix, and returns how many members it checked.
/// Slots follow the layout `FabricNet::new` documents: initial members,
/// then scheduled joiners in plan order.
fn first_receptions_match_the_matrix(net: &FabricNet) -> usize {
    let params = net.params();
    let mut checked = 0;
    for spec in params.channel_specs() {
        let ch = spec.channel;
        let mut slots = spec.members.clone();
        for ev in &params.churn {
            if ev.channel == ch && ev.action == ChurnAction::Join && !slots.contains(&ev.peer) {
                slots.push(ev.peer);
            }
        }
        let matrix = net.latency_on(ch).expect("every spec has a channel");
        for member in net.members_on(ch) {
            let slot = slots
                .iter()
                .position(|p| p == member)
                .expect("a sitting member was initial or a scheduled joiner");
            let count = net
                .gossip(member.index())
                .stats_on(ch)
                .expect("a member has joined its channel")
                .first_seen
                .len();
            assert_eq!(count, matrix.peer_latencies(slot).len(), "{member} on {ch}");
            checked += 1;
        }
    }
    checked
}

/// A first reception is recorded once, in the latency matrix; the peer
/// keeps only a count, and the two agree for every member of a
/// dissemination run under either protocol and of a churned run with
/// joiners, leavers and a flash crowd.
#[test]
fn one_record_first_receptions_match_the_latency_matrix() {
    for base in [
        DisseminationConfig::fig04_06_original(),
        DisseminationConfig::fig07_09_enhanced_f4(),
    ] {
        let mut cfg = base.scaled(500);
        cfg.peers = 30;
        cfg.network = NetworkConfig::lan(32);
        let net = cfg.deployment().run().into_protocol();
        assert_eq!(first_receptions_match_the_matrix(&net), 30);
        assert_eq!(
            net.gossip(29).stats().first_seen.len(),
            10,
            "500 txs are 10 blocks"
        );
    }
    let net = ChurnWavesConfig::standard(2, 8, 20)
        .deployment()
        .run()
        .into_protocol();
    assert_eq!(first_receptions_match_the_matrix(&net), 46);
}
