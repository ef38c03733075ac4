//! Failure injection: packet loss, crashed followers, crashed and rebooted
//! leaders, network partitions and false reaps. The gossip layer must keep
//! every surviving peer converging.

use fair_gossip::experiments::churn_waves::{run_churn_waves, ChurnWavesConfig};
use fair_gossip::experiments::deployment::Deployment;
use fair_gossip::experiments::dissemination::{run_dissemination, DisseminationConfig};
use fair_gossip::experiments::net::NetParams;
use fair_gossip::experiments::scenario::ScenarioNet;
use fair_gossip::gossip::config::GossipConfig;
use fair_gossip::gossip::scenario::ScenarioOp;
use fair_gossip::orderer::cutter::BatchConfig;
use fair_gossip::orderer::service::OrdererConfig;
use fair_gossip::sim::{Duration, NetworkConfig};
use fair_gossip::types::ids::{ChannelId, PeerId};
use fair_gossip::workload::schedule::{payload_schedule, PayloadWorkload};

/// `peers` peers in the LAN model with the client issuing `txs`
/// transactions, started and not yet run.
fn deployment(peers: usize, txs: usize, gossip: GossipConfig, seed: u64) -> ScenarioNet {
    let orderer = OrdererConfig::kafka(BatchConfig::paper_dissemination());
    let params = NetParams::new(peers, gossip, orderer);
    let schedule = payload_schedule(&PayloadWorkload::shortened(txs));
    let network = NetworkConfig::lan(0);
    let d = Deployment::new(params, schedule, &network, seed, Duration::ZERO);
    ScenarioNet::over(d)
}

/// Messages of `kind` put on the wire so far (lost and dropped ones
/// included).
fn sent(net: &ScenarioNet, kind: &str) -> u64 {
    net.sim().metrics().kind(kind).map_or(0, |k| k.count)
}

/// Lets `secs` seconds of simulated time pass.
fn wait(secs: u64) -> ScenarioOp {
    ScenarioOp::Wait { secs }
}

/// Powers peer `p` off or on.
fn power(peer: u32, on: bool) -> ScenarioOp {
    let peer = PeerId(peer);
    ScenarioOp::Power { peer, on }
}

#[test]
fn enhanced_gossip_survives_two_percent_packet_loss() {
    let mut cfg = DisseminationConfig::fig07_09_enhanced_f4().scaled(800);
    cfg.peers = 50;
    cfg.network = NetworkConfig::lan(52);
    cfg.network.loss = 0.02;
    let res = run_dissemination(&cfg);
    assert_eq!(
        res.completeness, 1.0,
        "fetch retries + recovery must repair losses"
    );
}

#[test]
fn original_gossip_survives_packet_loss_via_pull() {
    let mut cfg = DisseminationConfig::fig04_06_original().scaled(800);
    cfg.peers = 50;
    cfg.network = NetworkConfig::lan(52);
    cfg.network.loss = 0.02;
    let res = run_dissemination(&cfg);
    assert_eq!(res.completeness, 1.0);
}

#[test]
fn crashed_follower_catches_up_through_recovery() {
    let mut net = deployment(30, 2_000, GossipConfig::enhanced_f4(), 5);
    // Reboot after 25 s — long enough to miss many blocks — then run past
    // the workload plus several recovery rounds.
    net.run_script(&[
        wait(10),
        power(9, false),
        wait(25),
        power(9, true),
        wait(105),
    ])
    .unwrap();
    let healthy = net.gossip(5).height();
    let rebooted = net.gossip(9).height();
    assert!(healthy > 30, "the network must have made progress");
    assert!(
        healthy.saturating_sub(rebooted) <= 1,
        "recovery must close the gap: healthy {healthy}, rebooted {rebooted}"
    );
}

/// Failover comes from gossiped discovery: the survivors reap the crashed
/// leader once its claim goes silent past the alive timeout, and the most
/// senior survivor claims the seat. (A static roster has no failover.)
#[test]
fn leader_crash_with_dynamic_election_keeps_blocks_flowing() {
    let gossip = GossipConfig::enhanced_f4().with_quick_discovery();
    for seed in [1, 2, 3, 4, 5, 6, 7, 13] {
        let mut net = deployment(30, 2_000, gossip.clone(), seed);
        net.run_for(Duration::from_secs(15));
        assert_eq!(net.leaders(0), [PeerId(0)], "seed {seed}");
        let height_before = net.gossip(20).height();

        net.run_script(&[power(0, false), wait(45)]).unwrap();
        assert_eq!(
            net.leaders(0),
            [PeerId(1)],
            "seed {seed}: the most senior survivor must take over"
        );
        let height_after = net.gossip(20).height();
        assert!(
            height_after > height_before + 10,
            "seed {seed}: blocks must keep flowing after failover \
             ({height_before} -> {height_after})"
        );
    }
}

/// Regression: `churn_waves` seed 5058 left channel 1 at completeness
/// 0.193. The orderer handed a block to the leader once, the leader left
/// while it was on the wire, and no member ever held it: recovery asks
/// peers only, and the orderer re-sent only while a whole organization
/// had no leader. The successor now seeks every block from its height as
/// it takes the seat, so each member reaches the head.
#[test]
fn leaders_seek_a_block_in_flight_to_a_leaver_reaches_every_member() {
    let gossip = GossipConfig::enhanced_f4().with_quick_discovery();
    let deliveries = |net: &ScenarioNet| sent(net, "orderer-deliver");
    for seed in [1, 2, 3] {
        let mut net = deployment(20, 1_000, gossip.clone(), seed);
        net.run_for(Duration::from_secs(10));
        assert_eq!(net.leaders(0), [PeerId(0)], "seed {seed}");
        let sent = deliveries(&net);
        let on_the_wire = net.step_until(Duration::from_secs(5), |net| deliveries(net) > sent);
        assert!(on_the_wire, "seed {seed}: no block left the orderer");
        let in_flight = net.head(0);
        net.leave(0, PeerId(0));
        net.run_for(Duration::from_secs(60));
        assert_eq!(net.leaders(0), [PeerId(1)], "seed {seed}");
        let head = net.head(0);
        assert!(
            head > in_flight,
            "seed {seed}: blocks must flow after the leave"
        );
        for &m in net.members(0) {
            let height = net.gossip(m.index()).height();
            assert_eq!(height, head + 1, "seed {seed}: {m} is short of head {head}");
        }
    }
}

/// A block the orderer sends to the leader is lost on the wire. No peer
/// holds it, so recovery, which asks peers only, cannot repair it, and the
/// leader's height stands still behind it. The next recovery round that
/// finds the height unmoved seeks the orderer again, and the block reaches
/// every member within two recovery rounds, with the seat never moving.
#[test]
fn leaders_seek_again_when_the_orderers_send_is_lost() {
    let gossip = GossipConfig::enhanced_f4();
    let rounds = gossip.recovery.interval * 2;
    let deliveries = |net: &ScenarioNet| sent(net, "orderer-deliver");
    for seed in [1, 2, 3] {
        let mut net = deployment(20, 1_000, gossip.clone(), seed);
        net.run_for(Duration::from_secs(10));
        assert_eq!(net.leaders(0), [PeerId(0)], "seed {seed}");
        let orderer = PeerId(net.sim().protocol().orderer_node().0);
        let (sends, seeks) = (deliveries(&net), sent(&net, "seek"));

        // Cut the orderer's link to the leader for exactly one send.
        net.set_link(orderer, PeerId(0), false);
        let dropped = net.step_until(Duration::from_secs(5), |net| deliveries(net) > sends);
        net.set_link(orderer, PeerId(0), true);
        assert!(dropped, "seed {seed}: no block left the orderer");
        assert_eq!(net.sim().metrics().drops_partition(), 1, "seed {seed}");
        let lost = net.head(0);

        let holds_lost = |net: &mut ScenarioNet| {
            let members = net.members(0);
            members
                .iter()
                .all(|m| net.gossip(m.index()).height() > lost)
        };
        let caught_up = net.time_until(rounds, holds_lost);
        assert!(
            caught_up.is_some(),
            "seed {seed}: block {lost} missing after two recovery rounds"
        );
        assert!(
            sent(&net, "seek") > seeks,
            "seed {seed}: the leader sought again"
        );
        assert_eq!(net.leaders(0), [PeerId(0)], "seed {seed}");

        net.run_for(Duration::from_secs(60));
        let head = net.head(0);
        for &m in net.members(0) {
            let height = net.gossip(m.index()).height();
            assert_eq!(height, head + 1, "seed {seed}: {m} is short of head {head}");
        }
    }
}

/// Regression: a crash clears the static seat and nothing restored it, so
/// a rebooted roster minimum never led again and the orderer had nobody to
/// deliver to.
#[test]
fn a_rebooted_static_leader_takes_its_seat_back() {
    let mut net = deployment(30, 2_000, GossipConfig::enhanced_f4(), 5);
    net.run_script(&[wait(10), power(0, false), wait(10), power(0, true), wait(5)])
        .unwrap();
    assert_eq!(net.leaders(0), [PeerId(0)]);
    let height_back = net.gossip(20).height();

    net.run_for(Duration::from_secs(115));
    let height_after = net.gossip(20).height();
    assert!(
        height_after > height_back + 10,
        "blocks must flow again after the reboot ({height_back} -> {height_after})"
    );
}

#[test]
fn partition_heals_and_recovery_reconciles() {
    let mut net = deployment(20, 1_500, GossipConfig::enhanced_f4(), 21);
    // Cut peers 15..20 off from the other peers (the orderer and the
    // client, in no group, keep every link; neither addresses them).
    let majority: Vec<PeerId> = (0..15).map(PeerId).collect();
    let minority: Vec<PeerId> = (15..20).map(PeerId).collect();
    let groups = vec![majority, minority];
    net.run_script(&[wait(8), ScenarioOp::Partition { groups }, wait(22)])
        .unwrap();
    let minority_height = net.gossip(17).height();
    let majority_height = net.gossip(3).height();
    assert!(
        majority_height > minority_height,
        "the cut-off peers must fall behind ({majority_height} vs {minority_height})"
    );

    net.run_script(&[ScenarioOp::Heal, wait(90)]).unwrap();
    let reference = net.gossip(3).height();
    for i in 15..20 {
        assert!(
            reference.saturating_sub(net.gossip(i).height()) <= 1,
            "peer {i} must reconcile after the partition heals"
        );
    }
}

/// Regression: nobody ever leaves the main channel, yet a false reap of
/// its leader spread as an obituary that tied with every view's claim,
/// and the leader's escape from it, a higher incarnation, ranked it junior
/// and moved the seat. Each of these seeds moved it once that way. Under
/// the dead list an obituary is the last claim held, so the leader's next
/// heartbeat undoes the reap in the same life.
#[test]
fn a_false_reap_never_moves_the_main_channels_seat() {
    for seed in [5, 27, 28] {
        let mut cfg = ChurnWavesConfig::standard(3, 16, 60);
        cfg.seed = seed;
        let main = &run_churn_waves(&cfg).channels[0];
        assert_eq!(
            main.handoffs, 0,
            "seed {seed}: the main channel's seat moved ({} false reaps)",
            main.false_reaps
        );
    }
}

/// Regression: a member that comes back in a new life before any view
/// reaped it (a renewal) was reported as a leave and then a join, and the
/// leave half of a sitting member counted as a false reap: power-cycling
/// one member for 1 s, inside the 5 s alive timeout, counted one false
/// reap per other member although no view reaped anyone.
#[test]
fn a_power_cycle_inside_the_alive_timeout_is_no_false_reap() {
    let gossip = GossipConfig::enhanced_f4().with_quick_discovery();
    for seed in [1, 2, 3] {
        let mut net = deployment(20, 1_000, gossip.clone(), seed);
        net.run_script(&[wait(10), power(7, false), wait(1), power(7, true), wait(10)])
            .unwrap();
        let fabric = net.sim().protocol();
        assert_eq!(fabric.false_reaps_on(ChannelId::DEFAULT), 0, "seed {seed}");
        assert_eq!(net.leaders(0), [PeerId(0)], "seed {seed}");
    }
}

/// A leave answered by a rejoin inside the alive timeout is a renewal in
/// every view that had not reaped the leaver yet: the join observation
/// settles both the leave record and the join record.
#[test]
fn a_rejoin_inside_the_alive_timeout_completes_both_convergence_records() {
    let gossip = GossipConfig::enhanced_f4().with_quick_discovery();
    let mut net = deployment(20, 1_000, gossip, 4);
    net.run_for(Duration::from_secs(10));
    net.leave(0, PeerId(7));
    net.run_for(Duration::from_secs(1));
    net.join(0, PeerId(7));
    net.run_for(Duration::from_secs(10));
    let records = net.sim().protocol().convergence_on(ChannelId::DEFAULT);
    let kinds: Vec<bool> = records.iter().map(|r| r.join).collect();
    assert_eq!(
        kinds,
        [false, true],
        "one leave record, then one join record"
    );
    for r in records {
        assert!(
            r.latency().is_some(),
            "the {} record of peer 7 never completed",
            if r.join { "join" } else { "leave" }
        );
    }
    assert_eq!(net.sim().protocol().false_reaps_on(ChannelId::DEFAULT), 0);
}

/// Regression: only a leave opened a leader gap, so powering a leader off
/// recorded the successor's hand-off and no gap. The seat is empty from
/// power-off until someone claims it: after the alive timeout under
/// discovery, at the reboot on a static roster.
#[test]
fn powering_a_leader_off_opens_its_leader_gap() {
    let main = ChannelId::DEFAULT;
    let gossip = GossipConfig::enhanced_f4().with_quick_discovery();
    for seed in [1, 2] {
        let mut net = deployment(20, 1_000, gossip.clone(), seed);
        net.run_script(&[wait(10), power(0, false), wait(20)])
            .unwrap();
        let fabric = net.sim().protocol();
        assert_eq!(net.leaders(0), [PeerId(1)], "seed {seed}");
        assert_eq!(fabric.handoffs_on(main), 1, "seed {seed}");
        let gaps = fabric.leader_gaps_on(main);
        assert_eq!(gaps.len(), 1, "seed {seed}: one closed gap");
        // The 5 s alive timeout runs from the leader's last heartbeat, at
        // most one 1 s alive period before it went dark.
        assert!(
            gaps[0] >= Duration::from_secs(4) && gaps[0] < Duration::from_secs(10),
            "seed {seed}: the seat must stay empty until the timeout: {}",
            gaps[0]
        );
        assert!(!fabric.leader_gap_open_on(main), "seed {seed}");
    }

    let mut net = deployment(20, 1_000, GossipConfig::enhanced_f4(), 5);
    net.run_script(&[wait(10), power(0, false), wait(10), power(0, true), wait(5)])
        .unwrap();
    let fabric = net.sim().protocol();
    assert_eq!(fabric.handoffs_on(main), 1);
    assert_eq!(fabric.leader_gaps_on(main), [Duration::from_secs(10)]);
    assert!(!fabric.leader_gap_open_on(main));
}

/// Regression: a churned channel's latency pool took every cell of a
/// joiner's slot, its catch-up receptions of blocks cut long before it
/// joined included, so `late_joiner(12, 30)`'s side channel read p99.9 =
/// max = 28.8 s of join lag. A joiner's cells up to its catch-up target
/// are timed by its catch-up record instead; the rest stay in the pool.
#[test]
fn a_joiners_catch_up_stays_out_of_the_channels_latency_pool() {
    let side = ChannelId(1);
    let res = run_churn_waves(&ChurnWavesConfig::late_joiner(12, 30));
    let net = &res.net;
    let rec = net.latency_on(side).unwrap();
    let worst = |cells: Vec<Duration>| cells.into_iter().max().unwrap();
    let initial = (0..12).map(|slot| worst(rec.peer_latencies(slot))).max();
    assert!(initial < Some(Duration::from_secs(1)), "{initial:?}");
    let mut pooled_max = initial.unwrap();
    assert_eq!(res.catchups.len(), 2);
    for c in &res.catchups {
        let slot = net.latency_slot_on(side, c.peer).unwrap();
        assert!(slot >= 12, "{} is a scheduled joiner", c.peer);
        assert!(c.target > 0, "{} caught up on nothing", c.peer);
        assert!(
            c.latency().is_some(),
            "{}'s catch-up never completed",
            c.peer
        );
        let catch_up = worst(rec.peer_latencies(slot));
        assert!(catch_up > Duration::from_secs(10), "{catch_up}");
        pooled_max = pooled_max.max(worst(rec.peer_latencies_from(slot, c.target + 1)));
    }
    let report = &res.channels[1];
    assert_eq!(report.max, pooled_max, "the pool is the live cells");
    assert!(report.p999 <= report.max && report.p50 <= report.p999);
    assert!(report.max < Duration::from_secs(1), "{}", report.max);
    // Nobody joins the main channel: its pool is every cell.
    let main = net.latency_on(ChannelId::DEFAULT).unwrap();
    let all = (0..main.peers()).flat_map(|slot| main.peer_latencies(slot));
    assert_eq!(res.channels[0].max, worst(all.collect()));
}
