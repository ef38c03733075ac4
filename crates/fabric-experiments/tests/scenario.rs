//! The adversarial suite: scripted and seeded-random scenarios over the
//! [`fabric_gossip::scenario`] DSL, with Byzantine fault injection, run by
//! [`ScenarioNet`] on the one simulator under [`NetworkConfig::ideal`] —
//! zero latency, no bandwidth cap: the world these bounds were calibrated
//! in. The same catalog under the LAN model is `run_adversarial` /
//! `run_tolerance` and the tier-1 `tests/scenario_host.rs`.
//!
//! Each of the five attackers gets (at least) one **asserted surviving
//! guarantee** and one **measured degradation**:
//!
//! | attacker             | survives (asserted)                       | degrades (measured)        |
//! |----------------------|-------------------------------------------|----------------------------|
//! | stale replay         | no resurrection below obituary            | alive-msg byte inflation   |
//! | obituary forgery     | refuted via incarnation bump, views heal  | disruption window seconds  |
//! | selective forwarding | joiner still converges                    | join convergence seconds   |
//! | flood amplification  | view agreement + one leader               | discovery byte inflation   |
//! | eclipse              | one honest seed defeats it                | time-to-escape seconds     |
//! | forger+suppressors   | refutation still wins the coalition       | widened disruption window  |
//! | leader hunter        | one leader after the adaptive campaign    | leadership churn observed  |
//! | withholder           | completeness 1.0 via honest redundancy    | catch-up delay seconds     |
//! | equivocator          | every conflicting payload hash-rejected   | rejected payload count     |
//! | snapshot poisoner    | joiner resumes to an honest server        | extra bootstrap requests   |
//!
//! The random proptests compose loss, partitions, crashes and a random
//! attacker — or a random *coalition* (membership is part of the shrunk
//! input) — and still demand post-heal convergence.
//! `FAIR_GOSSIP_ADVERSARIAL_SEED` shifts the generated scenario space (the
//! CI seed matrix).

use desim::{Duration, NetworkConfig};
use fabric_experiments::scenario::ScenarioNet;
use fabric_gossip::config::GossipConfig;
use fabric_gossip::scenario::{
    random_scenario, Byzantine, CoalitionForger, Eclipser, Equivocator, Flooder, LeaderHunter,
    ObituaryForger, Predicate, RefutationSuppressor, ScenarioOp, ScenarioShape, SelectiveForwarder,
    SideChannel, SnapshotPoisoner, StaleReplayer, Withholder,
};
use fabric_types::block::{Block, BlockRef};
use fabric_types::crypto::Hash256;
use fabric_types::ids::{ChannelId, PeerId};
use proptest::prelude::*;

/// Discovery timers tightened so convergence happens in seconds of
/// scripted time (same shape as the discovery suite).
fn discovery_cfg() -> GossipConfig {
    let mut cfg = GossipConfig::enhanced_f4().with_discovery_protocol();
    cfg.discovery.heartbeat_interval = Duration::from_secs(1);
    cfg.discovery.anti_entropy_interval = Duration::from_secs(1);
    cfg.membership.alive_timeout = Duration::from_secs(5);
    cfg
}

/// The CI seed matrix knob: shifts which random scenarios a run explores
/// without touching the test code.
fn env_seed() -> u64 {
    std::env::var("FAIR_GOSSIP_ADVERSARIAL_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// `n` peers in the ideal network, fixed simulation seed.
fn ideal(n: usize, memberships: Vec<Vec<PeerId>>, cfg: &GossipConfig) -> ScenarioNet {
    ScenarioNet::new(NetworkConfig::ideal(n), memberships, cfg, 9_000)
}

// ---------------------------------------------------------------------
// DSL ports of the hand-written discovery tests
// (`tests/discovery.rs`): the same timelines as scripts.
// ---------------------------------------------------------------------

#[test]
fn dsl_subsumes_the_partition_heal_refutation_test() {
    // Port of `a_partitioned_minority_is_reaped_and_resurrects_on_heal`:
    // the same timeline as a script, the same guarantees as predicates.
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let mut net = ideal(6, vec![members], &discovery_cfg());
    net.run_script(&[
        ScenarioOp::Wait { secs: 3 },
        ScenarioOp::Partition {
            groups: vec![(0..5).map(PeerId).collect::<Vec<_>>(), vec![PeerId(5)]],
        },
        ScenarioOp::Wait { secs: 12 },
    ])
    .expect("no asserts yet");
    assert!(
        !net.view_of(PeerId(0), 0).contains(&PeerId(5)),
        "majority reaps the cut-off peer"
    );
    net.run_script(&[
        ScenarioOp::Heal,
        ScenarioOp::Assert(Predicate::ConvergenceWithin {
            channel: 0,
            secs: 20,
        }),
        ScenarioOp::Assert(Predicate::ExactlyOneLeader { channel: 0 }),
        ScenarioOp::Assert(Predicate::NoResurrectionBelowObituary { channel: 0 }),
    ])
    .expect("the refutation machinery heals the partition");
}

#[test]
fn dsl_subsumes_the_false_death_incarnation_bump_test() {
    // Port of `rejoin_after_reap_carries_a_strictly_higher_incarnation`.
    let members: Vec<PeerId> = (0..4).map(PeerId).collect();
    let mut net = ideal(4, vec![members], &discovery_cfg());
    net.run_script(&[ScenarioOp::Wait { secs: 3 }]).unwrap();
    let first_life = net
        .gossip(0)
        .discovery_on(ChannelId(0))
        .unwrap()
        .claim_of(PeerId(3))
        .expect("peer 3 heartbeated")
        .incarnation;

    net.run_script(&[
        ScenarioOp::Leave {
            channel: 0,
            peer: PeerId(3),
        },
        ScenarioOp::Wait { secs: 15 },
        ScenarioOp::Assert(Predicate::ViewAgreement { channel: 0 }),
        ScenarioOp::Join {
            channel: 0,
            peer: PeerId(3),
        },
        ScenarioOp::Wait { secs: 15 },
        ScenarioOp::Assert(Predicate::ViewAgreement { channel: 0 }),
        ScenarioOp::Assert(Predicate::ExactlyOneLeader { channel: 0 }),
        ScenarioOp::Assert(Predicate::NoResurrectionBelowObituary { channel: 0 }),
    ])
    .expect("leave, reap, rejoin");

    let second_life = net
        .gossip(0)
        .discovery_on(ChannelId(0))
        .unwrap()
        .claim_of(PeerId(3))
        .expect("second life visible")
        .incarnation;
    assert!(
        second_life > first_life,
        "no resurrection without a higher incarnation: {first_life} -> {second_life}"
    );
}

#[test]
fn gap_free_catchup_holds_for_a_late_joiner_under_the_dsl() {
    let mut cfg = discovery_cfg();
    cfg.recovery.interval = Duration::from_secs(2);
    cfg.recovery.state_info_interval = Duration::from_secs(1);
    let members: Vec<PeerId> = (0..4).map(PeerId).collect();
    let mut net = ideal(5, vec![members], &cfg);
    let mut prev = Hash256::ZERO;
    for num in 1..=5u64 {
        let block = BlockRef::new(Block::new(num, prev, vec![]).with_padding(200));
        prev = block.hash();
        net.inject(0, block);
        net.run_for(Duration::from_millis(200));
    }
    net.run_script(&[
        ScenarioOp::Assert(Predicate::GapFreeCatchup { channel: 0 }),
        ScenarioOp::Join {
            channel: 0,
            peer: PeerId(4),
        },
        ScenarioOp::Wait { secs: 15 },
        ScenarioOp::Assert(Predicate::ViewAgreement { channel: 0 }),
        ScenarioOp::Assert(Predicate::GapFreeCatchup { channel: 0 }),
    ])
    .expect("the late joiner catches up gap-free");
    assert_eq!(net.head(0), 5);
}

// ---------------------------------------------------------------------
// The attacker catalog, one scenario each.
// ---------------------------------------------------------------------

#[test]
fn stale_replay_never_resurrects_a_reaped_peer_and_its_spam_is_measured() {
    let run = |attach: bool| -> (Result<(), String>, u64) {
        let members: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut net = ideal(6, vec![members], &discovery_cfg());
        if attach {
            net.set_byzantine(PeerId(4), Box::new(StaleReplayer::new(2)));
        }
        // Let the replayer record peer 3's first-life claims, then reap
        // peer 3: every replay of its stale claims must stay inert.
        let res = net
            .run_script(&[
                ScenarioOp::Wait { secs: 3 },
                ScenarioOp::Leave {
                    channel: 0,
                    peer: PeerId(3),
                },
                ScenarioOp::Wait { secs: 20 },
                ScenarioOp::Assert(Predicate::ViewAgreement { channel: 0 }),
                ScenarioOp::Assert(Predicate::ExactlyOneLeader { channel: 0 }),
                ScenarioOp::Assert(Predicate::NoResurrectionBelowObituary { channel: 0 }),
            ])
            .map_err(|e| e.to_string());
        (res, net.wire_bytes_of_kind("alive-msg"))
    };
    let (baseline, baseline_bytes) = run(false);
    baseline.expect("benign run holds");
    let (attacked, attacked_bytes) = run(true);
    attacked.expect("replay must not resurrect the reaped peer or split views");
    // The surviving guarantee is not free: the replays are real traffic.
    assert!(
        attacked_bytes > baseline_bytes,
        "replay spam must show up in the alive-msg bytes: {attacked_bytes} vs {baseline_bytes}"
    );
}

#[test]
fn forged_obituaries_are_refuted_within_the_incarnation_bump_bound() {
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let victim = PeerId(2);
    let mut net = ideal(6, vec![members], &discovery_cfg());
    net.run_for(Duration::from_secs(3));
    let inc_before = net
        .gossip(0)
        .discovery_on(ChannelId(0))
        .unwrap()
        .claim_of(victim)
        .expect("victim heartbeated")
        .incarnation;

    net.set_byzantine(PeerId(4), Box::new(ObituaryForger::new(victim, 2)));
    // Walk time in steps, observing the attack land (some honest view
    // drops the live victim) and measuring the disruption window until
    // the refutation heals every view again.
    let mut disrupted_at = None;
    let mut healed_at = None;
    for tick in 0..60u64 {
        net.run_for(Duration::from_millis(500));
        let converged = net.views_converged(0);
        if !converged && disrupted_at.is_none() {
            disrupted_at = Some(tick);
        }
        if converged && disrupted_at.is_some() {
            healed_at = Some(tick);
            break;
        }
    }
    let disrupted_at = disrupted_at.expect("the forged obituary must actually disrupt views");
    let healed_at = healed_at.expect("views must heal: the victim refutes the forgery");
    let disruption_ms = (healed_at - disrupted_at) * 500;
    assert!(
        disruption_ms <= 20_000,
        "refutation exceeded the bump bound: {disruption_ms} ms of disruption"
    );
    let inc_after = net
        .gossip(0)
        .discovery_on(ChannelId(0))
        .unwrap()
        .claim_of(victim)
        .expect("victim re-entered the views")
        .incarnation;
    assert!(
        inc_after > inc_before,
        "the refutation is an incarnation bump: {inc_before} -> {inc_after}"
    );
    assert_eq!(net.leaders(0).len(), 1);
    net.check(&Predicate::NoResurrectionBelowObituary { channel: 0 })
        .expect("the bump is a new life, not a resurrection of the old one");
}

#[test]
fn selective_forwarding_slows_but_does_not_stop_a_joiner() {
    // The attacker drops anti-entropy toward peers 0 and 1; a runtime
    // joiner must still converge through the redundant honest paths.
    let join_secs = |attach: bool| -> u64 {
        let members: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut net = ideal(8, vec![members], &discovery_cfg());
        if attach {
            net.set_byzantine(
                PeerId(4),
                Box::new(SelectiveForwarder::new(vec![PeerId(0), PeerId(1)])),
            );
        }
        net.run_for(Duration::from_secs(3));
        net.join(0, PeerId(6));
        let secs = net
            .converge_within(0, 30)
            .expect("selective forwarding must not stop convergence");
        assert_eq!(net.leaders(0).len(), 1);
        secs
    };
    let baseline = join_secs(false);
    let attacked = join_secs(true);
    assert!(
        attacked >= baseline,
        "dropping anti-entropy cannot speed convergence up: {attacked} < {baseline}"
    );
}

#[test]
fn flood_amplification_inflates_bytes_but_not_views() {
    let run = |attach: bool| -> u64 {
        let members: Vec<PeerId> = (0..6).map(PeerId).collect();
        let mut net = ideal(6, vec![members], &discovery_cfg());
        if attach {
            net.set_byzantine(PeerId(4), Box::new(Flooder::new(6)));
        }
        net.run_script(&[
            ScenarioOp::Wait { secs: 30 },
            ScenarioOp::Assert(Predicate::ViewAgreement { channel: 0 }),
            ScenarioOp::Assert(Predicate::ExactlyOneLeader { channel: 0 }),
        ])
        .expect("the flood is protocol-valid: views and leadership hold");
        net.discovery_wire_bytes()
    };
    let baseline = run(false);
    let attacked = run(true);
    assert!(
        attacked > baseline + baseline / 2,
        "a 6x flooder must inflate discovery bytes well past the benign run: \
         {attacked} vs {baseline}"
    );
}

#[test]
fn a_fully_eclipsed_joiner_sees_only_the_attacker() {
    // Peer 5 bootstraps through the attacker alone: the attacker answers
    // with an attacker-only world and scrubs the victim from its honest
    // traffic. With no honest seed there is no escape path.
    let members: Vec<PeerId> = (0..5).map(PeerId).collect();
    let attacker = PeerId(3);
    let victim = PeerId(5);
    let mut net = ideal(6, vec![members.clone()], &discovery_cfg());
    net.run_for(Duration::from_secs(3));
    net.set_byzantine(attacker, Box::new(Eclipser::new(victim)));
    net.join_via(0, victim, &[attacker]);
    net.run_for(Duration::from_secs(20));
    assert_eq!(
        net.view_of(victim, 0),
        vec![attacker],
        "the victim's world is the attacker"
    );
    // The honest majority is untouched: it still agrees on the pre-join
    // membership (it never learned the victim exists).
    let honest: Vec<PeerId> = members.iter().copied().filter(|p| *p != attacker).collect();
    assert!(
        net.views_agree_among(0, &honest, &members),
        "the eclipse must not leak into honest views"
    );
}

#[test]
fn one_honest_seed_defeats_the_eclipse_in_measured_time() {
    let members: Vec<PeerId> = (0..5).map(PeerId).collect();
    let attacker = PeerId(3);
    let victim = PeerId(5);
    let mut net = ideal(6, vec![members.clone()], &discovery_cfg());
    net.run_for(Duration::from_secs(3));
    net.set_byzantine(attacker, Box::new(Eclipser::new(victim)));
    // One honest bootstrap contact is the whole difference.
    net.join_via(0, victim, &[attacker, PeerId(0)]);
    let honest: Vec<PeerId> = members.iter().copied().filter(|p| *p != attacker).collect();
    let escape_secs = net
        .secs_until(60, |net| {
            let view = net.view_of(victim, 0);
            honest.iter().any(|h| view.contains(h))
        })
        .expect("an honest seed must break the eclipse");
    assert!(
        escape_secs <= 30,
        "escape took {escape_secs}s — the refutation path is too slow"
    );
    // Once the attacker is detected and cut off, full convergence follows.
    net.clear_byzantine(attacker);
    assert!(
        net.converge_within(0, 40).is_some(),
        "post-eclipse recovery: {:?}",
        net.divergent_views(0)
    );
    assert_eq!(net.leaders(0).len(), 1);
}

// ---------------------------------------------------------------------
// Coalitions: several compromised peers coordinating over a SideChannel,
// and an adaptive attacker whose campaign reacts to wiretapped state.
// ---------------------------------------------------------------------

#[test]
fn a_forger_suppressor_coalition_widens_the_window_but_the_refutation_still_wins() {
    // A lone forger buries the victim; paired with suppressors that scrub
    // the victim's fresher-than-buried claims from their own wires, the
    // refutation must fight through a thinner redundancy margin. The
    // guarantee under test: it still wins, within the same bump bound.
    let run = |suppressors: bool| -> (u64, Option<u64>) {
        let members: Vec<PeerId> = (0..7).map(PeerId).collect();
        let victim = PeerId(2);
        let mut net = ideal(7, vec![members], &discovery_cfg());
        net.run_for(Duration::from_secs(3));
        let inc_before = net
            .gossip(0)
            .discovery_on(ChannelId(0))
            .unwrap()
            .claim_of(victim)
            .expect("victim heartbeated")
            .incarnation;
        let side = SideChannel::new();
        net.set_byzantine(
            PeerId(4),
            Box::new(CoalitionForger::new(victim, 2, side.clone())),
        );
        if suppressors {
            net.set_byzantine(
                PeerId(5),
                Box::new(RefutationSuppressor::new(victim, side.clone())),
            );
            net.set_byzantine(
                PeerId(6),
                Box::new(RefutationSuppressor::new(victim, side.clone())),
            );
        }
        // Integrate disruption over the whole campaign (both shots land
        // inside the horizon): every 500 ms tick with divergent views is
        // disruption the coalition bought.
        let mut disrupted_ticks = 0u64;
        for _ in 0..60u64 {
            net.run_for(Duration::from_millis(500));
            if !net.views_converged(0) {
                disrupted_ticks += 1;
            }
        }
        assert!(
            disrupted_ticks > 0,
            "the coalition forgery must disrupt views"
        );
        assert!(
            net.converge_within(0, 40).is_some(),
            "views must heal: the victim refutes the coalition: {:?}",
            net.divergent_views(0)
        );
        let inc_after = net
            .gossip(0)
            .discovery_on(ChannelId(0))
            .unwrap()
            .claim_of(victim)
            .expect("victim re-entered the views")
            .incarnation;
        assert!(
            inc_after > inc_before,
            "the refutation is an incarnation bump: {inc_before} -> {inc_after}"
        );
        assert_eq!(net.leaders(0).len(), 1);
        net.check(&Predicate::NoResurrectionBelowObituary { channel: 0 })
            .expect("the bump is a new life, not a resurrection");
        (disrupted_ticks, side.read("forged-incarnation"))
    };
    // At this deployment (7 peers, 2 suppressors) the refutation's
    // redundancy swamps the suppression: both runs must disrupt, both
    // must heal fast. How the window *grows* with the suppressor count is
    // the tolerance sweep's job (`fabric_experiments::tolerance`), where
    // f increases until the bound falls — a single-trajectory comparison
    // here would measure simulation noise, not the attack.
    let (solo_ticks, _) = run(false);
    let (coalition_ticks, signal) = run(true);
    assert!(
        signal.is_some(),
        "the forger must coordinate through the side channel"
    );
    assert!(
        solo_ticks <= 40 && coalition_ticks <= 40,
        "the coalition must still lose well inside the horizon: \
         solo {solo_ticks}, coalition {coalition_ticks} disrupted ticks of 60"
    );
}

#[test]
fn an_adaptive_leader_hunter_causes_churn_but_leadership_recovers_to_one() {
    // Dynamic election so leadership is observable on the wire: the
    // hunter wiretaps LeaderHeartbeats, forges the current leader's
    // obituary at its freshest incarnation, and re-targets whatever new
    // state it observes (a successor standing up, a victim's bump).
    let mut cfg = discovery_cfg();
    cfg.election.dynamic = true;
    cfg.election.heartbeat_interval = Duration::from_secs(1);
    cfg.election.leader_timeout = Duration::from_secs(4);
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let mut net = ideal(6, vec![members], &cfg);
    net.run_for(Duration::from_secs(5));
    assert_eq!(
        net.leaders(0),
        vec![PeerId(0)],
        "warmup elects the lowest id"
    );
    let inc_before = net
        .gossip(1)
        .discovery_on(ChannelId(0))
        .unwrap()
        .claim_of(PeerId(0))
        .expect("leader heartbeated")
        .incarnation;

    net.set_byzantine(PeerId(4), Box::new(LeaderHunter::new(2)));
    let mut disrupted = false;
    for _ in 0..80u64 {
        net.run_for(Duration::from_millis(500));
        if !net.views_converged(0) || net.leaders(0).len() != 1 {
            disrupted = true;
        }
    }
    assert!(
        disrupted,
        "the hunter must observe a leader and actually depose it"
    );
    // Shots exhausted: the campaign is over, the network settles.
    assert!(
        net.converge_within(0, 40).is_some(),
        "post-campaign views: {:?}",
        net.divergent_views(0)
    );
    assert_eq!(
        net.leaders(0).len(),
        1,
        "exactly one leader after the hunt: {:?}",
        net.leaders(0)
    );
    net.check(&Predicate::NoResurrectionBelowObituary { channel: 0 })
        .expect("every deposed leader re-entered by bumping, not resurrecting");
    let inc_after = net
        .gossip(1)
        .discovery_on(ChannelId(0))
        .unwrap()
        .claim_of(PeerId(0))
        .expect("the hunted leader re-entered the views")
        .incarnation;
    assert!(
        inc_after > inc_before,
        "the hunted leader refuted by bumping: {inc_before} -> {inc_after}"
    );
}

// ---------------------------------------------------------------------
// Dissemination-layer attackers: the push/pull block engines under fire.
// ---------------------------------------------------------------------

#[test]
fn a_withholder_stalls_but_cannot_stop_block_catch_up() {
    // The attacker advertises blocks honestly but never serves a payload;
    // a late joiner whose fetches land on it must rotate to honest
    // advertisers. Completeness still reaches 1.0, measurably slower.
    let catchup_secs = |attach: bool| -> u64 {
        let mut cfg = discovery_cfg();
        cfg.recovery.interval = Duration::from_secs(2);
        cfg.recovery.state_info_interval = Duration::from_secs(1);
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut net = ideal(5, vec![members], &cfg);
        if attach {
            net.set_byzantine(PeerId(1), Box::new(Withholder::new(Vec::new())));
        }
        let mut prev = Hash256::ZERO;
        for num in 1..=5u64 {
            let block = BlockRef::new(Block::new(num, prev, vec![]).with_padding(200));
            prev = block.hash();
            net.inject(0, block);
            net.run_for(Duration::from_millis(200));
        }
        net.run_script(&[
            ScenarioOp::Wait { secs: 10 },
            ScenarioOp::Assert(Predicate::GapFreeCatchup { channel: 0 }),
        ])
        .expect("sitting members complete through honest redundancy");
        net.join(0, PeerId(4));
        let secs = net
            .secs_until(60, |net| net.gossip(4).height_on(ChannelId(0)) > 5)
            .expect("withholding must not stop the joiner's catch-up");
        net.run_script(&[ScenarioOp::Assert(Predicate::GapFreeCatchup { channel: 0 })])
            .expect("completeness reaches 1.0 despite the withholder");
        secs
    };
    let baseline = catchup_secs(false);
    let attacked = catchup_secs(true);
    assert!(
        attacked >= baseline,
        "withholding payloads cannot speed catch-up: {attacked} < {baseline}"
    );
}

#[test]
fn an_equivocators_conflicting_payloads_are_hash_rejected_and_completeness_holds() {
    // The attacker serves doctored payloads (original orderer-signed
    // header, tampered transactions) to even-id peers and genuine ones to
    // odd ids. Every doctored copy must fail `data_intact()` at the
    // receiver; the store must never hold one; completeness must still
    // reach 1.0 through honest redundancy.
    let members: Vec<PeerId> = (0..4).map(PeerId).collect();
    let mut cfg = discovery_cfg();
    cfg.recovery.interval = Duration::from_secs(2);
    cfg.recovery.state_info_interval = Duration::from_secs(1);
    let mut net = ideal(5, vec![members], &cfg);
    net.set_byzantine(PeerId(1), Box::new(Equivocator));
    // Chained from genesis, so every peer's ledger commits what gossip
    // delivers to it.
    let mut prev = Block::genesis().hash();
    for num in 1..=5u64 {
        let block = BlockRef::new(Block::new(num, prev, vec![]).with_padding(200));
        prev = block.hash();
        net.inject(0, block);
        net.run_for(Duration::from_millis(200));
    }
    net.run_script(&[
        ScenarioOp::Wait { secs: 10 },
        ScenarioOp::Assert(Predicate::GapFreeCatchup { channel: 0 }),
        ScenarioOp::Join {
            channel: 0,
            peer: PeerId(4),
        },
        ScenarioOp::Wait { secs: 30 },
        ScenarioOp::Assert(Predicate::GapFreeCatchup { channel: 0 }),
        ScenarioOp::Assert(Predicate::ViewAgreement { channel: 0 }),
    ])
    .expect("equivocation must not break completeness");
    assert_eq!(net.head(0), 5);

    // The rejections are visible and the stores are clean: every held or
    // delivered block carries an intact payload. The oracle re-hashes
    // (`Block::data_intact`) instead of reading the verdict sealed in the
    // handle it is auditing.
    let mut rejected = 0;
    for i in 0..5usize {
        if let Some(stats) = net.gossip(i).stats_on(ChannelId(0)) {
            rejected += stats.invalid_payloads;
        }
        for n in 1..=5u64 {
            if let Some(block) = net.gossip(i).store().get(n) {
                assert!(
                    Block::data_intact(block),
                    "peer {i} stored a tampered payload for block {n}"
                );
            }
        }
        let committed = net.ledger(i, 0).expect("members keep a ledger").blocks();
        assert_eq!(committed.len(), 6, "peer {i} committed genesis + 5");
        assert!(
            committed.iter().all(|b| Block::data_intact(b)),
            "peer {i} delivered a tampered payload"
        );
    }
    assert!(
        rejected > 0,
        "the doctored payloads must be rejected by hash verification somewhere"
    );
}

// ---------------------------------------------------------------------
// Anchor-peer entry composed with the eclipse surface: the joiner starts
// with a single anchor instead of a roster.
// ---------------------------------------------------------------------

#[test]
fn an_anchored_joiner_whose_anchor_is_the_attacker_is_eclipsed() {
    // The anchor entry narrows the bootstrap surface to one peer — when
    // that one peer is the attacker, the eclipse is total (the honest
    // majority never learns the victim exists).
    let members: Vec<PeerId> = (0..5).map(PeerId).collect();
    let attacker = PeerId(3);
    let victim = PeerId(5);
    let mut net = ideal(6, vec![members.clone()], &discovery_cfg());
    net.run_for(Duration::from_secs(3));
    net.set_byzantine(attacker, Box::new(Eclipser::new(victim)));
    net.join_via(0, victim, &[attacker]);
    net.run_for(Duration::from_secs(20));
    assert_eq!(
        net.view_of(victim, 0),
        vec![attacker],
        "an attacker anchor owns the victim's world"
    );
    let honest: Vec<PeerId> = members.iter().copied().filter(|p| *p != attacker).collect();
    assert!(
        net.views_agree_among(0, &honest, &members),
        "the eclipse must not leak into honest views"
    );
}

#[test]
fn one_honest_anchor_defeats_the_eclipse() {
    // The flip side: the joiner still knows only ONE peer — but it is
    // honest, and discovery push-pull widens the single-anchor roster to
    // the full membership despite the Eclipser scrubbing the victim from
    // the attacker's traffic.
    let members: Vec<PeerId> = (0..5).map(PeerId).collect();
    let attacker = PeerId(3);
    let victim = PeerId(5);
    let mut net = ideal(6, vec![members.clone()], &discovery_cfg());
    net.run_for(Duration::from_secs(3));
    net.set_byzantine(attacker, Box::new(Eclipser::new(victim)));
    net.join_via(0, victim, &[PeerId(0)]);
    let honest: Vec<PeerId> = members.iter().copied().filter(|p| *p != attacker).collect();
    let escape_secs = net
        .secs_until(60, |net| {
            let view = net.view_of(victim, 0);
            honest.iter().all(|h| view.contains(h))
        })
        .expect("one honest anchor must widen to the full honest membership");
    assert!(
        escape_secs <= 30,
        "anchored bootstrap took {escape_secs}s to learn the honest world"
    );
    assert!(
        !net.gossip(victim.index()).is_leader_on(ChannelId(0)),
        "an anchored joiner must not grab leadership while bootstrapping"
    );
    // With the attacker cut off, the widened roster converges fully.
    net.clear_byzantine(attacker);
    assert!(
        net.converge_within(0, 40).is_some(),
        "post-eclipse recovery: {:?}",
        net.divergent_views(0)
    );
    assert_eq!(net.leaders(0).len(), 1);
}

// ---------------------------------------------------------------------
// Snapshot-equivalence under faults: the ledger-level proptest
// (fabric-ledger/tests/snapshot_equivalence.rs) pins the contract on a
// quiet network; here the same contract must survive loss and
// partitions injected through the scenario DSL.
// ---------------------------------------------------------------------

/// [`discovery_cfg`] with snapshot bootstrap on and recovery timers
/// tightened (the catch-up happens within the scripted run).
fn snapshot_cfg(every: u64) -> GossipConfig {
    let mut cfg = discovery_cfg();
    cfg.recovery.interval = Duration::from_secs(2);
    cfg.recovery.state_info_interval = Duration::from_secs(1);
    cfg.with_snapshots(every)
}

fn endorsed_write(
    msp: &fabric_types::msp::Msp,
    led: &fabric_ledger::ledger::Ledger,
    id: u64,
    key: &str,
    value: u64,
) -> fabric_types::transaction::Transaction {
    use fabric_ledger::state::StateReader;
    let rwset = fabric_types::rwset::RwSet::builder()
        .read(key, led.state().get_version(&key.into()))
        .write_u64(key, value)
        .build();
    let mut tx = fabric_types::transaction::Transaction::new(
        fabric_types::ids::TxId(id),
        "increment",
        fabric_types::ids::ClientId(0),
        rwset,
    );
    tx.endorse(msp, PeerId(0));
    tx
}

/// The ledger the host stood up for `peer` from the snapshot gossip
/// installed, with the delivered tail committed on top, and the
/// snapshot's floor. One more simulated second first lets the last
/// delivery through the validation pipeline.
fn bootstrapped_ledger(
    net: &mut ScenarioNet,
    peer: PeerId,
) -> (&fabric_ledger::ledger::Ledger, u64) {
    net.run_for(Duration::from_secs(1));
    let ledger = net.ledger(peer.index(), 0).expect("members keep a ledger");
    let floor = ledger
        .base_height()
        .checked_sub(1)
        .expect("the lagging joiner must have installed a snapshot");
    assert_eq!(
        net.sim()
            .protocol()
            .committed_on(peer.index(), ChannelId(0)),
        ledger.blocks().len() as u64,
        "the absorbed prefix must never have been delivered: \
         every block the joiner ever committed is in the tail"
    );
    (ledger, floor)
}

proptest! {
    /// A chain streamed under message loss and a mid-stream partition,
    /// then a late joiner that bootstraps from a published snapshot: the
    /// ledger it reconstructs (snapshot + delivered tail) must be
    /// byte-identical in state hash to the genesis-replay ledger, while
    /// never having seen the absorbed prefix.
    #[test]
    fn snapshot_bootstrap_is_state_identical_under_loss_and_partitions(
        height in 8u64..22,
        every in 2u64..7,
        loss_milli in 50u32..250,
        cut in 1usize..3,
    ) {
        use fabric_ledger::ledger::Ledger;
        use fabric_types::msp::Msp;
        use fabric_types::transaction::EndorsementPolicy;
        use std::sync::Arc;

        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let joiner = PeerId(4);
        let mut net = ideal(5, vec![members.clone()], &snapshot_cfg(every));
        let msp = Arc::new(Msp::single_org(3));
        let mut genesis =
            Ledger::new(msp.clone(), EndorsementPolicy::AnyMember).with_checkpoints(every);

        // Stream the chain lossy, cutting `cut` sitting peers off for the
        // middle third of it.
        net.run_script(&[ScenarioOp::SetLoss { loss_milli }])
            .expect("no asserts");
        let mut published = 0u64;
        for n in 1..=height {
            if n == height / 3 {
                let keep = members[..members.len() - cut].to_vec();
                let lost = members[members.len() - cut..].to_vec();
                net.run_script(&[ScenarioOp::Partition { groups: vec![keep, lost] }])
                    .expect("no asserts");
            }
            if n == 2 * height / 3 {
                // Heal the links but keep the catch-up itself lossy.
                net.run_script(&[
                    ScenarioOp::Heal,
                    ScenarioOp::SetLoss { loss_milli: loss_milli / 2 },
                ])
                .expect("no asserts");
            }
            let tx = endorsed_write(&msp, &genesis, n, "k", n);
            let block = BlockRef::new(Block::new(n, genesis.latest_hash(), vec![tx]));
            genesis.commit(block.clone()).expect("endorsed write commits");
            net.inject(0, block);
            net.run_for(Duration::from_millis(300));
            if let Some(snap) = genesis.snapshot() {
                if snap.checkpoint.height > published {
                    published = snap.checkpoint.height;
                    for m in &members {
                        net.publish_snapshot(0, *m, snap.clone());
                    }
                }
            }
        }
        prop_assert!(published >= every, "the stream must emit a checkpoint");

        // The joiner enters under residual loss and catches up.
        net.join(0, joiner);
        let caught = net.secs_until(120, |net| {
            net.gossip(joiner.index()).height_on(ChannelId(0)) > height
        });
        prop_assert!(caught.is_some(), "catch-up stalled under residual loss");

        // It bootstrapped from a snapshot, not genesis replay...
        let (bootstrapped, floor) = bootstrapped_ledger(&mut net, joiner);
        prop_assert!(floor >= every, "installed snapshot below the first boundary");
        // ...and its ledger — the snapshot plus only the delivered tail —
        // is byte-identical to genesis replay.
        prop_assert_eq!(bootstrapped.height(), genesis.height());
        prop_assert_eq!(bootstrapped.latest_hash(), genesis.latest_hash());
        prop_assert_eq!(
            bootstrapped.state().state_hash(),
            genesis.state().state_hash(),
            "loss/partitions must not break snapshot equivalence"
        );
    }
}

/// Chunked transfer under fire: the joiner bootstraps through a lossy
/// link and a mid-transfer partition that cuts it off entirely. The
/// transfer must survive by resuming — re-requesting the missing chunk
/// suffix after the timeout instead of restarting or storming — and still
/// install exactly one verified snapshot.
#[test]
fn chunked_transfer_resumes_under_loss_and_a_mid_transfer_partition() {
    use fabric_ledger::ledger::Ledger;
    use fabric_types::msp::Msp;
    use fabric_types::transaction::EndorsementPolicy;
    use std::sync::Arc;

    let mut cfg = snapshot_cfg(4);
    cfg.snapshot.chunk_size = 256;
    cfg.snapshot.request_timeout = Duration::from_secs(4);

    let members: Vec<PeerId> = (0..4).map(PeerId).collect();
    let joiner = PeerId(4);
    let mut net = ideal(5, vec![members.clone()], &cfg);
    let msp = Arc::new(Msp::single_org(3));
    let mut genesis = Ledger::new(msp.clone(), EndorsementPolicy::AnyMember).with_checkpoints(4);

    // Stream 16 blocks cleanly, one unique key per block so the snapshot
    // spans several chunks at a 256-byte budget, publishing each fresh
    // checkpoint export to every sitting member.
    let height = 16u64;
    for n in 1..=height {
        let tx = endorsed_write(&msp, &genesis, n, &format!("k{n}"), n);
        let block = BlockRef::new(Block::new(n, genesis.latest_hash(), vec![tx]));
        genesis
            .commit(block.clone())
            .expect("endorsed write commits");
        net.inject(0, block);
        net.run_for(Duration::from_millis(300));
        if let Some(snap) = genesis.snapshot() {
            for m in &members {
                net.publish_snapshot(0, *m, snap.clone());
            }
        }
    }

    // The joiner enters on a 30%-lossy link; a few seconds in, a
    // partition cuts it off from every member mid-transfer.
    net.run_script(&[ScenarioOp::SetLoss { loss_milli: 300 }])
        .expect("no asserts");
    net.join(0, joiner);
    net.run_for(Duration::from_secs(4));
    net.run_script(&[ScenarioOp::Partition {
        groups: vec![members.clone(), vec![joiner]],
    }])
    .expect("no asserts");
    net.run_for(Duration::from_secs(12));
    net.run_script(&[ScenarioOp::Heal, ScenarioOp::SetLoss { loss_milli: 100 }])
        .expect("no asserts");

    let caught = net.secs_until(120, |net| {
        net.gossip(joiner.index()).height_on(ChannelId(0)) > height
    });
    assert!(
        caught.is_some(),
        "chunked catch-up stalled after the partition healed"
    );

    let stats = net
        .gossip(joiner.index())
        .stats_on(ChannelId(0))
        .expect("joiner is on the channel");
    assert_eq!(
        stats.snapshots_installed, 1,
        "loss and partition must not double-install"
    );
    assert!(
        stats.snapshot_chunks_received > 1,
        "the snapshot must have streamed as chunks, got {}",
        stats.snapshot_chunks_received
    );
    assert!(
        stats.snapshot_resumes >= 1,
        "a transfer interrupted by loss and a partition must resume, got {}",
        stats.snapshot_resumes
    );
    assert!(
        stats.snapshot_requests < 2 + 2 * stats.snapshot_resumes,
        "every request past the first must be a timed-out resume, not a storm: \
         {} requests for {} resumes",
        stats.snapshot_requests,
        stats.snapshot_resumes
    );

    // The install is the verified one: floor at a published boundary and
    // nothing below it was ever delivered as a block.
    let (_, floor) = bootstrapped_ledger(&mut net, joiner);
    assert!(floor >= 4, "installed snapshot below the first boundary");
}

/// Byzantine bootstrap servers composed with snapshot entry: every
/// sitting member serves doctored snapshot state (the checkpoint hash no
/// longer covers it), so the joiner's verification must reject each
/// install and the transfer must resume — until one server is cleaned and
/// the honest payload lands. The reconstructed ledger must still be
/// byte-identical in state hash to genesis replay.
#[test]
fn a_poisoned_bootstrap_is_rejected_and_the_joiner_resumes_to_an_honest_server() {
    use fabric_ledger::ledger::Ledger;
    use fabric_types::msp::Msp;
    use fabric_types::transaction::EndorsementPolicy;
    use std::sync::Arc;

    let mut cfg = snapshot_cfg(4);
    cfg.snapshot.request_timeout = Duration::from_secs(4);
    let members: Vec<PeerId> = (0..4).map(PeerId).collect();
    let joiner = PeerId(4);
    let mut net = ideal(5, vec![members.clone()], &cfg);
    let msp = Arc::new(Msp::single_org(3));
    let mut genesis = Ledger::new(msp.clone(), EndorsementPolicy::AnyMember).with_checkpoints(4);

    let height = 12u64;
    for n in 1..=height {
        let tx = endorsed_write(&msp, &genesis, n, &format!("k{n}"), n);
        let block = BlockRef::new(Block::new(n, genesis.latest_hash(), vec![tx]));
        genesis
            .commit(block.clone())
            .expect("endorsed write commits");
        net.inject(0, block);
        net.run_for(Duration::from_millis(300));
        if let Some(snap) = genesis.snapshot() {
            for m in &members {
                net.publish_snapshot(0, *m, snap.clone());
            }
        }
    }

    // Every server is malicious when the joiner arrives: the first
    // transfer is guaranteed to hit a poisoner and be rejected by
    // `Snapshot::verify()` at install time.
    for m in &members {
        net.set_byzantine(*m, Box::new(SnapshotPoisoner));
    }
    net.join(0, joiner);
    net.run_for(Duration::from_secs(5));
    // The fleet is cleaned after the first poisoned payload was rejected:
    // the timed-out transfer must resume — and this time land honestly.
    for m in &members {
        net.clear_byzantine(*m);
    }

    let caught = net.secs_until(120, |net| {
        net.gossip(joiner.index()).height_on(ChannelId(0)) > height
    });
    assert!(caught.is_some(), "catch-up stalled on poisoned servers");

    let stats = net
        .gossip(joiner.index())
        .stats_on(ChannelId(0))
        .expect("joiner is on the channel");
    assert_eq!(
        stats.snapshots_installed, 1,
        "exactly one verified install; every poisoned payload rejected"
    );
    assert!(
        stats.snapshot_resumes >= 1,
        "a rejected install must time out and resume elsewhere, got {}",
        stats.snapshot_resumes
    );
    assert!(
        stats.snapshot_requests > 1,
        "the poisoned first attempt must cost an extra request"
    );

    // The installed snapshot is the honest one: the joiner's ledger — it
    // plus the delivered tail — is byte-identical to genesis replay.
    let (bootstrapped, floor) = bootstrapped_ledger(&mut net, joiner);
    assert!(floor >= 4, "installed snapshot below the first boundary");
    assert_eq!(bootstrapped.height(), genesis.height());
    assert_eq!(
        bootstrapped.state().state_hash(),
        genesis.state().state_hash(),
        "poisoned servers must not corrupt the reconstructed state"
    );
}

// ---------------------------------------------------------------------
// Seeded-random scenarios: loss + partitions + crashes + a random
// attacker. Shrinking reduces a failing seed's script automatically (the
// script is a pure function of the seed).
// ---------------------------------------------------------------------

/// Runs one random scenario with the given attacker, in the scenario
/// space `env` selects ([`env_seed`]); the script's epilogue (heal,
/// settle, the three core invariants) is the assertion.
fn run_random_adversarial(seed: u64, env: u64, attacker_kind: u8) -> Result<(), String> {
    let initial: Vec<PeerId> = (0..5).map(PeerId).collect();
    let attacker = PeerId(4);
    let shape = ScenarioShape {
        deployment: 8,
        ops: 10,
        // The attacker, and one honest peer no attacker of the catalog
        // targets (the forger buries 1, the selective forwarder starves 0
        // and 2). Every guarantee here is "survived on redundancy", and
        // the generator may strip the channel down to whatever is not
        // protected: left alone with one of its own targets after a mutual
        // reap, the selective forwarder drops the very replies and probes
        // that would tell the target it was declared dead, and with no
        // honest relay the two views stay empty forever. Scripting the
        // redundancy away is not the attack under test.
        protected: vec![attacker, PeerId(3)],
        settle_secs: 40,
        ..ScenarioShape::default()
    };
    let mixed = seed.wrapping_add(env.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let script = random_scenario(mixed, &initial, &shape);
    let mut net = ideal(8, vec![initial], &discovery_cfg());
    let behavior: Box<dyn Byzantine> = match attacker_kind {
        0 => Box::new(StaleReplayer::new(2)),
        1 => Box::new(ObituaryForger::new(PeerId(1), 2)),
        2 => Box::new(SelectiveForwarder::new(vec![PeerId(0), PeerId(2)])),
        _ => Box::new(Flooder::new(4)),
    };
    net.set_byzantine(attacker, behavior);
    net.run_script(&script).map_err(|e| e.to_string())
}

proptest! {
    /// Random op sequences composed with a random attacker still settle
    /// to view agreement, one leader and no resurrection.
    #[test]
    fn random_adversarial_scenarios_converge_under_full_exchange(
        seed in 0u64..1 << 32,
        attacker_kind in 0u8..4,
    ) {
        let res = run_random_adversarial(seed, env_seed(), attacker_kind);
        prop_assert!(res.is_ok(), "attacker {attacker_kind}: {}", res.unwrap_err());
    }
}

/// The four inputs `FAIR_GOSSIP_ADVERSARIAL_SEED` = 3, 4, 5 and 8 used to
/// fail on, replayed whatever the environment says. Each script left the
/// selective forwarder (peer 4) alone with one of its own targets — "views
/// diverged from members [0 or 2, 4]: both views empty" — until the
/// generator had to keep an honest relay seated (see `protected` above).
#[test]
fn a_selective_forwarder_is_never_scripted_alone_with_its_own_target() {
    for (env, seed) in [
        (3, 316_435_429),
        (4, 616_758_632),
        (5, 586_551_350),
        (8, 2_931_840_221),
    ] {
        run_random_adversarial(seed, env, 2)
            .unwrap_or_else(|e| panic!("env seed {env}, input ({seed}, 2): {e}"));
    }
}

/// Runs one random scenario against a random *coalition*: the `mask` bits
/// pick which members of the forger/suppressor/flooder trio are live, so
/// a failing case shrinks over coalition membership (toward the smallest
/// colluding set that still breaks the guarantee) as well as over the
/// script.
fn run_random_coalition(seed: u64, mask: u8) -> Result<(), String> {
    let initial: Vec<PeerId> = (0..7).map(PeerId).collect();
    let coalition = [PeerId(4), PeerId(5), PeerId(6)];
    let victim = PeerId(1);
    let shape = ScenarioShape {
        deployment: 8,
        ops: 10,
        protected: coalition.to_vec(),
        settle_secs: 40,
        ..ScenarioShape::default()
    };
    let mixed = seed.wrapping_add(env_seed().wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let script = random_scenario(mixed, &initial, &shape);
    let mut net = ideal(8, vec![initial], &discovery_cfg());
    let side = SideChannel::new();
    if mask & 1 != 0 {
        net.set_byzantine(
            coalition[0],
            Box::new(CoalitionForger::new(victim, 2, side.clone())),
        );
    }
    if mask & 2 != 0 {
        net.set_byzantine(
            coalition[1],
            Box::new(RefutationSuppressor::new(victim, side.clone())),
        );
    }
    if mask & 4 != 0 {
        // A flooder screening the coalition: protocol-valid noise that
        // the forged-obituary traffic hides inside.
        net.set_byzantine(coalition[2], Box::new(Flooder::new(3)));
    }
    net.run_script(&script).map_err(|e| e.to_string())
}

proptest! {
    /// Random op sequences composed with a random coalition still settle
    /// to view agreement, one leader and no resurrection; a failure
    /// shrinks over the coalition membership mask too.
    #[test]
    fn random_coalition_scenarios_converge_and_shrink_over_membership(
        seed in 0u64..1 << 32,
        mask in 0u8..8,
    ) {
        let res = run_random_coalition(seed, mask);
        prop_assert!(res.is_ok(), "coalition mask {mask:03b}: {}", res.unwrap_err());
    }
}
