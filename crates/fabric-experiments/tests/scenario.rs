//! Scripted and seeded-random scenarios over the
//! [`fabric_gossip::scenario`] DSL, with Byzantine fault injection, run by
//! [`ScenarioNet`] on the one simulator under [`NetworkConfig::ideal`] —
//! zero latency, no bandwidth cap. The attacker catalog itself is measured
//! in the LAN model, as one f-swept table: `fabric_experiments::adversarial`
//! (and the tier-1 `tests/scenario_host.rs`). What stays here is what that
//! table does not run: the DSL ports of the discovery tests, an anchored
//! joiner against an eclipse, snapshot bootstrap under loss, partitions and
//! a poisoned server, and the random proptests, which compose loss,
//! partitions, crashes and a random attacker — or a random *coalition*
//! (membership is part of the shrunk input) — and still demand post-heal
//! convergence. `FAIR_GOSSIP_ADVERSARIAL_SEED` shifts the generated
//! scenario space (the CI seed matrix).

use desim::{Duration, NetworkConfig};
use fabric_experiments::scenario::ScenarioNet;
use fabric_gossip::config::GossipConfig;
use fabric_gossip::scenario::{
    random_scenario, Byzantine, CoalitionForger, Eclipser, Flooder, Predicate,
    RefutationSuppressor, ScenarioOp, ScenarioShape, SelectiveForwarder, SideChannel,
    SnapshotPoisoner, StaleReplayer,
};
use fabric_types::block::{Block, BlockRef};
use fabric_types::crypto::Hash256;
use fabric_types::ids::{ChannelId, PeerId};
use proptest::prelude::*;

/// Discovery timers tightened so convergence happens in seconds of
/// scripted time (same shape as the discovery suite).
fn discovery_cfg() -> GossipConfig {
    let mut cfg = GossipConfig::enhanced_f4().with_discovery_protocol();
    cfg.membership.alive_interval = Duration::from_secs(1);
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
// Anchor-peer entry composed with the eclipse surface: the joiner starts
// with a single anchor instead of a roster.
// ---------------------------------------------------------------------

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
    let escape = net
        .time_until(Duration::from_secs(60), |net| {
            let view = net.view_of(victim, 0);
            honest.iter().all(|h| view.contains(h))
        })
        .expect("one honest anchor must widen to the full honest membership");
    assert!(
        escape <= Duration::from_secs(30),
        "anchored bootstrap took {escape} to learn the honest world"
    );
    assert!(
        !net.gossip(victim.index()).is_leader_on(ChannelId(0)),
        "an anchored joiner must not grab leadership while bootstrapping"
    );
    // With the attacker cut off, the widened roster converges fully.
    net.clear_byzantine(attacker);
    assert!(
        net.time_until(Duration::from_secs(40), |net| net.views_converged(0))
            .is_some(),
        "post-eclipse recovery: {:?}",
        net.divergent_views(0)
    );
    assert_eq!(net.leaders(0).len(), 1);
}

/// Anchor-peer entry on a side channel: the joiner knows a single sitting
/// member and still catches up gap-free — the rest of the roster arrives
/// via discovery push-pull, and every sitting member admits it.
#[test]
fn anchored_join_catches_up_from_one_seed() {
    let mut cfg = discovery_cfg();
    cfg.recovery.interval = Duration::from_secs(2);
    cfg.recovery.state_info_interval = Duration::from_secs(1);
    let everyone: Vec<PeerId> = (0..9).map(PeerId).collect();
    let side: Vec<PeerId> = (0..8).map(PeerId).collect();
    let (anchor, joiner) = (PeerId(0), PeerId(8));
    let mut net = ideal(9, vec![everyone, side], &cfg);
    let mut prev = Hash256::ZERO;
    for num in 1..=20u64 {
        let block = BlockRef::new(Block::new(num, prev, vec![]).with_padding(200));
        prev = block.hash();
        net.inject(1, block);
        net.run_for(Duration::from_millis(200));
    }
    net.join_via(1, joiner, &[anchor]);
    let caught = net.time_until(Duration::from_secs(60), |net| {
        net.check(&Predicate::GapFreeCatchup { channel: 1 }).is_ok()
    });
    caught.expect("the anchored joiner catches up gap-free");
    // Discovery converged: every sitting member admitted the joiner.
    net.run_for(Duration::from_secs(10));
    let records = net.sim().protocol().convergence_on(ChannelId(1));
    let join = records.iter().find(|r| r.join).expect("join record");
    assert!(
        join.latency().is_some(),
        "all sitting members must learn of the anchored joiner"
    );
    // And the joiner's own view grew past its single anchor.
    let view = net.view_of(joiner, 1);
    assert!(
        view.len() > 2,
        "the joiner must discover members beyond its anchor, saw {view:?}"
    );
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
        let caught = net.time_until(Duration::from_secs(120), |net| {
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
    cfg.snapshot.as_mut().unwrap().chunk_size = 256;

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

    let caught = net.time_until(Duration::from_secs(120), |net| {
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

    let cfg = snapshot_cfg(4);
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

    let caught = net.time_until(Duration::from_secs(120), |net| {
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
    };
    let mixed = seed.wrapping_add(env.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let script = random_scenario(mixed, &initial, &shape);
    let mut net = ideal(8, vec![initial], &discovery_cfg());
    let behavior: Box<dyn Byzantine> = match attacker_kind {
        0 => Box::new(StaleReplayer::new(2)),
        1 => Box::new(CoalitionForger::new(PeerId(1), 2, SideChannel::new())),
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
        ops: 10,
        protected: coalition.to_vec(),
        settle_secs: 40,
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
