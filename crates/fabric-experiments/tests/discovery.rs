//! Convergence properties of the gossiped discovery protocol, driven
//! through [`ScenarioNet`] under [`NetworkConfig::ideal`] — nobody is
//! told anything: joins propagate only through the joiner's own
//! announcements, leaves only through alive-timeout expiry and obituary
//! spreading.
//!
//! The properties (satellites of the discovery tentpole):
//!
//! 1. **View agreement** — under arbitrary join/leave interleavings and
//!    message drops, all correct peers' alive views agree within a bounded
//!    number of heartbeat periods once the loss stops;
//! 2. **Leadership** — exactly one leader per channel survives the same
//!    churn;
//! 3. **No resurrection** — a reaped peer never re-enters any view without
//!    a strictly higher incarnation.

use desim::{Duration, NetworkConfig};
use fabric_experiments::scenario::ScenarioNet;
use fabric_gossip::config::GossipConfig;
use fabric_types::ids::{ChannelId, PeerId};
use proptest::prelude::*;

/// Discovery timers tightened so convergence happens in seconds of
/// scripted time: 1 s heartbeats/anti-entropy, 5 s alive timeout.
fn discovery_cfg() -> GossipConfig {
    GossipConfig::enhanced_f4().with_quick_discovery()
}

/// `n` peers in the ideal network, fixed simulation seed.
fn ideal(n: usize, memberships: Vec<Vec<PeerId>>, cfg: &GossipConfig) -> ScenarioNet {
    ScenarioNet::new(NetworkConfig::ideal(n), memberships, cfg, 9_000)
}

/// The settle window every scenario is allowed before convergence is
/// asserted: one alive timeout (a silent leaver must expire) plus ten
/// heartbeat periods (announcements and obituaries must spread).
fn settle(net: &mut ScenarioNet) {
    net.run_for(Duration::from_secs(5 + 10));
}

#[test]
fn a_join_propagates_through_gossip_alone() {
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let mut net = ideal(8, vec![members], &discovery_cfg());
    assert!(net.views_converged(0), "initial rosters already agree");

    net.join(0, PeerId(6));
    // Nobody was told: at join time only peers that already received the
    // announcement heartbeat know. Within a bounded number of heartbeat
    // periods the whole channel must know.
    let mut rounds = 0;
    while !net.views_converged(0) {
        rounds += 1;
        assert!(
            rounds <= 10,
            "join must converge within 10 heartbeat periods; stragglers: {:?}",
            net.divergent_views(0)
        );
        net.run_for(Duration::from_secs(1));
    }
    // The joiner itself sees every sitting member too.
    assert_eq!(net.view_of(PeerId(6), 0).len(), 6);
}

#[test]
fn a_leave_is_detected_by_timeout_and_spreads_as_an_obituary() {
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let mut net = ideal(6, vec![members], &discovery_cfg());
    net.run_for(Duration::from_secs(3)); // let real claims replace seeds

    net.leave(0, PeerId(3));
    assert!(
        net.view_of(PeerId(0), 0).contains(&PeerId(3)),
        "nobody was told: right after the leave the others still see the leaver"
    );
    settle(&mut net);
    assert!(
        net.views_converged(0),
        "leaver must be reaped everywhere: {:?}",
        net.divergent_views(0)
    );
    // The obituary survives: some member recorded the death.
    let obituary = net
        .gossip(0)
        .discovery_on(ChannelId(0))
        .unwrap()
        .obituary_of(PeerId(3));
    assert!(
        obituary.is_some(),
        "a reaped peer leaves an obituary behind"
    );
}

#[test]
fn leader_leave_hands_off_to_exactly_one_successor_by_timeout() {
    let members: Vec<PeerId> = (0..5).map(PeerId).collect();
    let mut net = ideal(5, vec![members], &discovery_cfg());
    assert_eq!(net.leaders(0), vec![PeerId(0)], "static leader seeded");

    net.leave(0, PeerId(0));
    // A leave is detected by timeout, not callback: immediately after, the
    // channel is still (stalely) led by nobody present.
    assert!(net.leaders(0).is_empty());
    settle(&mut net);
    assert_eq!(
        net.leaders(0),
        vec![PeerId(1)],
        "the most senior sitting member stands up once the leaver expires"
    );
    assert!(net.views_converged(0));
}

#[test]
fn rejoin_after_reap_carries_a_strictly_higher_incarnation() {
    let members: Vec<PeerId> = (0..4).map(PeerId).collect();
    let mut net = ideal(4, vec![members], &discovery_cfg());
    net.run_for(Duration::from_secs(3));
    // Capture the first life's incarnation as the sitting members saw it.
    let first_life = net
        .gossip(0)
        .discovery_on(ChannelId(0))
        .unwrap()
        .claim_of(PeerId(3))
        .expect("peer 3 heartbeated")
        .incarnation;

    net.leave(0, PeerId(3));
    settle(&mut net);
    assert!(net.views_converged(0), "leaver reaped everywhere");

    net.join(0, PeerId(3));
    settle(&mut net);
    assert!(
        net.views_converged(0),
        "rejoin must converge: {:?}",
        net.divergent_views(0)
    );
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
fn a_partitioned_minority_is_reaped_and_resurrects_on_heal() {
    let members: Vec<PeerId> = (0..6).map(PeerId).collect();
    let mut net = ideal(6, vec![members.clone()], &discovery_cfg());
    net.run_for(Duration::from_secs(3));

    // Cut peer 5 off. The majority reaps it; it reaps the majority.
    net.partition(&[(0..5).map(PeerId).collect::<Vec<_>>(), vec![PeerId(5)]]);
    net.run_for(Duration::from_secs(12));
    assert!(
        !net.view_of(PeerId(0), 0).contains(&PeerId(5)),
        "majority reaps the cut-off peer"
    );

    // Heal: the tombstone probes carry each side's claims, fresher than
    // the other side's obituaries of them, and bring it back in the same
    // life without any join event.
    net.heal();
    net.run_for(Duration::from_secs(20));
    assert!(
        net.views_converged(0),
        "views must re-agree after the partition heals: {:?}",
        net.divergent_views(0)
    );
    assert_eq!(net.leaders(0).len(), 1, "and exactly one leader remains");
}

#[test]
fn scripted_churn_under_loss_converges_once_the_loss_stops() {
    let members: Vec<PeerId> = (0..5).map(PeerId).collect();
    let mut net = ideal(8, vec![members], &discovery_cfg());
    net.set_loss(0.2);
    net.join(0, PeerId(5));
    net.run_for(Duration::from_secs(4));
    net.leave(0, PeerId(0));
    net.run_for(Duration::from_secs(4));
    net.join(0, PeerId(6));
    net.heal(); // loss stops; convergence must follow
    net.run_for(Duration::from_secs(30));
    assert!(
        net.views_converged(0),
        "failed to converge: {:?}",
        net.divergent_views(0)
    );
    assert_eq!(net.leaders(0).len(), 1);
}

/// One scripted churn step: kind 0 = join, 1 = leave, 2 = just let time
/// pass. The peer operand picks from the whole deployment.
fn apply_op(net: &mut ScenarioNet, op: (u8, u32), keep_one: bool) {
    let (kind, peer) = op;
    match kind {
        0 => net.join(0, PeerId(peer)),
        1 => {
            if !(keep_one && net.members(0).len() <= 1) {
                net.leave(0, PeerId(peer));
            }
        }
        _ => net.run_for(Duration::from_secs(1)),
    }
}

proptest! {
    /// Under arbitrary join/leave interleavings with lossy links, once the
    /// loss stops every correct peer's alive view agrees with the ground
    /// truth within a bounded settle window, exactly one leader stands,
    /// and no peer ever runs two lives under one incarnation.
    #[test]
    fn churn_with_drops_converges_to_agreement_and_one_leader(
        ops in proptest::collection::vec((0u8..3, 0u32..8), 1..20),
        loss_milli in 0u32..300,
    ) {
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut net = ideal(8, vec![members], &discovery_cfg());
        net.set_loss(loss_milli as f64 / 1000.0);
        for op in ops {
            apply_op(&mut net, op, true);
            net.run_for(Duration::from_secs(1));
        }
        // Loss stops; the protocol must converge within the settle window
        // (drops during churn may have reaped live peers — their next
        // claims have to repair exactly that).
        net.heal();
        net.run_for(Duration::from_secs(30));
        prop_assert!(
            net.views_converged(0),
            "views diverged: {:?} vs members {:?}",
            net.divergent_views(0),
            net.members(0)
        );
        if !net.members(0).is_empty() {
            let leaders = net.leaders(0);
            prop_assert!(
                leaders.len() == 1,
                "want exactly one leader, got {:?} among {:?}",
                leaders,
                net.members(0)
            );
        }
    }

    /// No reaped peer resurrects without a higher incarnation: after a
    /// leave is fully absorbed, replay windows of arbitrary length change
    /// nothing — the departed peer stays out of every view until (and
    /// unless) it rejoins, and a rejoin always shows a strictly higher
    /// incarnation than the obituary.
    #[test]
    fn reaped_peers_stay_dead_until_a_strictly_newer_life(
        silent_secs in 1u64..20,
        rejoin_raw in 0u32..2,
    ) {
        let members: Vec<PeerId> = (0..5).map(PeerId).collect();
        let mut net = ideal(5, vec![members], &discovery_cfg());
        net.run_for(Duration::from_secs(3));
        net.leave(0, PeerId(4));
        net.run_for(Duration::from_secs(16));
        prop_assert!(net.views_converged(0), "leaver reaped everywhere");
        let obituary = net
            .gossip(0)
            .discovery_on(ChannelId(0))
            .unwrap()
            .obituary_of(PeerId(4))
            .expect("an obituary was recorded")
            .incarnation;

        // Arbitrary quiet time: stale state must not decay into a
        // resurrection.
        net.run_for(Duration::from_secs(silent_secs));
        for m in net.members(0).to_vec() {
            prop_assert!(
                !net.view_of(m, 0).contains(&PeerId(4)),
                "peer {m} resurrected a reaped peer without a new life"
            );
        }

        if rejoin_raw == 1 {
            net.join(0, PeerId(4));
            net.run_for(Duration::from_secs(15));
            prop_assert!(net.views_converged(0), "{:?}", net.divergent_views(0));
            let new_life = net
                .gossip(0)
                .discovery_on(ChannelId(0))
                .unwrap()
                .claim_of(PeerId(4))
                .expect("new life visible")
                .incarnation;
            prop_assert!(new_life > obituary, "{new_life} must exceed {obituary}");
        }
    }

    /// Cross-channel isolation survives discovery churn: claims, joins and
    /// obituaries of one channel never touch another channel's views.
    #[test]
    fn discovery_stays_channel_scoped(
        ops in proptest::collection::vec((0u8..3, 0u32..6), 1..15),
    ) {
        // Channel 0 over peers 0..4, channel 1 over peers 4..8; churn only
        // channel 0.
        let memberships: Vec<Vec<PeerId>> = vec![
            (0..4).map(PeerId).collect(),
            (4..8).map(PeerId).collect(),
        ];
        let baseline: Vec<Vec<PeerId>> = (4..8)
            .map(|m| {
                let mut v: Vec<PeerId> =
                    (4..8).map(PeerId).filter(|p| p.0 != m).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let mut net = ideal(8, memberships, &discovery_cfg());
        for op in ops {
            apply_op(&mut net, op, true);
            net.run_for(Duration::from_secs(1));
        }
        net.run_for(Duration::from_secs(15));
        // Channel 1 never churned: every member still sees exactly its
        // original roster, whatever channel 0 went through.
        for (i, m) in (4..8).enumerate() {
            prop_assert_eq!(
                net.view_of(PeerId(m), 1),
                baseline[i].clone(),
                "channel 1 view of peer {} was disturbed by channel 0 churn",
                m
            );
        }
        prop_assert_eq!(net.leaders(1), vec![PeerId(4)]);
    }
}
