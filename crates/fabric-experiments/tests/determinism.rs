//! End-to-end determinism of the zero-copy dissemination pipeline.
//!
//! The `BlockRef` payload refactor (one shared allocation per block, cached
//! wire size) and the parallel experiment runner must not move a single
//! byte of any metric: same seed ⇒ identical latency CDFs, bandwidth
//! series, per-kind byte counts and per-peer duplicate accounting, whether
//! cells run serially or fanned out across cores.
//!
//! The discovery **golden trace** at the bottom goes further: a fixed-seed
//! two-channel protocol-discovery churn run is pinned to exact event
//! counts, discovery-byte totals and the content hash of every event, so
//! any future engine change that perturbs discovery traffic — an extra
//! heartbeat, a differently-sized digest, a reordered RNG draw or merge —
//! fails loudly instead of sliding into the baseline.

use desim::{Ctx, Duration, NetworkConfig, NodeId, Protocol, Simulation};
use fabric_experiments::churn::{run_churn, ChurnConfig, ChurnResult};
use fabric_experiments::churn_waves::{run_churn_waves, ChurnWavesConfig};
use fabric_experiments::conflicts::{run_conflicts, ConflictConfig};
use fabric_experiments::deployment::{run_out, Deployment};
use fabric_experiments::dissemination::{run_dissemination, DisseminationConfig};
use fabric_experiments::net::{FabricNet, NetMsg, NetTimer};
use fabric_gossip::config::GossipConfig;
use fabric_types::block::BlockRef;

fn quick(gossip: GossipConfig, seed: u64) -> DisseminationConfig {
    let mut cfg = DisseminationConfig::fig07_09_enhanced_f4().scaled(400);
    cfg.gossip = gossip;
    cfg.peers = 25;
    cfg.network = NetworkConfig::lan(27);
    cfg.seed = seed;
    cfg
}

/// Every metric of a dissemination run, flattened for exact comparison:
/// (events, latency samples, leader MB/s, regular MB/s, per-kind stats).
type Fingerprint = (u64, Vec<u64>, Vec<f64>, Vec<f64>, Vec<(String, u64, u64)>);

fn fingerprint(cfg: &DisseminationConfig) -> Fingerprint {
    let res = run_dissemination(cfg);
    let latency_ns: Vec<u64> = res
        .latency
        .all_peer_cdfs()
        .iter()
        .flat_map(|cdf| cdf.samples().iter().map(|d| d.as_nanos()))
        .collect();
    let kinds: Vec<(String, u64, u64)> = res
        .kinds
        .iter()
        .map(|(k, s)| (k.clone(), s.count, s.bytes))
        .collect();
    (
        res.events,
        latency_ns,
        res.bandwidth.leader.mbps.clone(),
        res.bandwidth.regular.mbps.clone(),
        kinds,
    )
}

#[test]
fn same_seed_runs_have_byte_identical_metrics() {
    for gossip in [GossipConfig::enhanced_f4(), GossipConfig::original_fabric()] {
        let cfg = quick(gossip, 11);
        let a = fingerprint(&cfg);
        let b = fingerprint(&cfg);
        assert_eq!(a.0, b.0, "event counts diverged");
        assert_eq!(a.1, b.1, "latency CDF samples diverged");
        assert_eq!(a.2, b.2, "leader bandwidth series diverged");
        assert_eq!(a.3, b.3, "regular bandwidth series diverged");
        assert_eq!(a.4, b.4, "per-kind byte counts diverged");
        assert!(
            !a.1.is_empty() && !a.4.is_empty(),
            "fingerprint must not be vacuous"
        );
    }
}

#[test]
fn parallel_batch_is_byte_identical_to_serial_cells() {
    let cells = vec![
        quick(GossipConfig::enhanced_f4(), 1),
        quick(GossipConfig::enhanced_f4(), 2),
        quick(GossipConfig::original_fabric(), 3),
        quick(GossipConfig::enhanced_f2(), 4),
    ];
    // Force the scoped-thread path (run_batch would fall back to the
    // serial loop on a single-core machine, leaving the concurrency
    // machinery unexercised).
    let parallel = desim::run_batch_with_workers(cells.clone(), 4, |cfg| run_dissemination(&cfg));
    for (cfg, par) in cells.iter().zip(&parallel) {
        let serial = run_dissemination(cfg);
        assert_eq!(serial.events, par.events, "seed {}", cfg.seed);
        assert_eq!(serial.blocks, par.blocks);
        assert_eq!(serial.bandwidth.leader.mbps, par.bandwidth.leader.mbps);
        assert_eq!(serial.bandwidth.regular.mbps, par.bandwidth.regular.mbps);
        assert_eq!(serial.kinds, par.kinds);
        let serial_lat: Vec<Vec<desim::Duration>> = serial
            .latency
            .all_peer_cdfs()
            .iter()
            .map(|c| c.samples().to_vec())
            .collect();
        let par_lat: Vec<Vec<desim::Duration>> = par
            .latency
            .all_peer_cdfs()
            .iter()
            .map(|c| c.samples().to_vec())
            .collect();
        assert_eq!(
            serial_lat, par_lat,
            "latency matrix diverged for seed {}",
            cfg.seed
        );
    }
}

/// Drives a FabricNet simulation directly so the per-peer gossip stats —
/// which `DisseminationResult` does not expose — can be inspected.
fn drive(gossip: GossipConfig, seed: u64, peers: usize, txs: usize) -> FabricNet {
    drive_sim(gossip, seed, peers, txs, false).into_protocol()
}

/// [`drive`], handing back the whole simulation; `trace` switches on
/// [`Simulation::content_hash`].
fn drive_sim(
    gossip: GossipConfig,
    seed: u64,
    peers: usize,
    txs: usize,
    trace: bool,
) -> Simulation<FabricNet> {
    // The dissemination preset's own deployment, drained and not run
    // through its idle tail.
    let mut cfg = quick(gossip, seed).scaled(txs);
    cfg.peers = peers;
    let d = cfg.deployment();
    let drain_until = d.drain_until;
    let mut sim = d.start();
    sim.set_trace(trace);
    sim.run_until(drain_until);
    sim
}

/// A protocol that forwards everything to the [`FabricNet`] inside and
/// counts what it forwarded — the shape of a span recorder.
struct PassThrough {
    inner: FabricNet,
    forwarded: u64,
}

impl Protocol for PassThrough {
    type Msg = NetMsg;
    type Timer = NetTimer;

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NetTimer>,
        to: NodeId,
        from: NodeId,
        msg: NetMsg,
    ) {
        self.forwarded += 1;
        self.inner.on_message(ctx, to, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>, node: NodeId, timer: NetTimer) {
        self.forwarded += 1;
        self.inner.on_timer(ctx, node, timer);
    }

    fn on_node_status(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>, node: NodeId, up: bool) {
        self.forwarded += 1;
        self.inner.on_node_status(ctx, node, up);
    }
}

/// Drives a [`Deployment`] from outside its module, the protocol wrapped:
/// the events the wrapper saw (all there were), and the finished network.
fn through_a_wrapper(d: Deployment) -> (u64, FabricNet) {
    let host = PassThrough {
        inner: d.net,
        forwarded: 0,
    };
    let mut sim = Simulation::new(host, d.network, d.seed);
    sim.with_ctx(|host, ctx| host.inner.start(ctx));
    run_out(&mut sim, d.drain_until, d.idle_tail);
    let events = sim.events_processed();
    let host = sim.into_protocol();
    assert_eq!(host.forwarded, events);
    (events, host.inner)
}

/// The seam a per-phase breakdown stands on: `cfg.deployment()` hands out
/// everything its `run_*` runs, so a caller that wraps the protocol and
/// drives the stages itself simulates the same run, event for event.
#[test]
fn a_deployment_driven_from_outside_is_the_run_its_runner_reports() {
    let dissemination = quick(GossipConfig::enhanced_f4(), 11);
    assert_eq!(
        through_a_wrapper(dissemination.deployment()).0,
        run_dissemination(&dissemination).events
    );

    let mut churn = ChurnConfig::standard(16, 8, 20);
    churn.seed = 42;
    assert_eq!(
        through_a_wrapper(churn.deployment()).0,
        run_churn(&churn).events
    );

    let mut waves = ChurnWavesConfig::standard(2, 8, 20);
    waves.seed = 3;
    assert_eq!(
        through_a_wrapper(waves.deployment()).0,
        run_churn_waves(&waves).events
    );

    // `ConflictResult` carries no event count: compare what the run left
    // on the endorser's ledger instead.
    let mut conflicts =
        ConflictConfig::paper(GossipConfig::enhanced_f4(), Duration::from_secs(1)).scaled(20, 10);
    conflicts.peers = 30;
    conflicts.seed = 3;
    let (_, net) = through_a_wrapper(conflicts.deployment());
    let stats = net.ledger(1).expect("the endorser's ledger").stats();
    let reported = run_conflicts(&conflicts);
    assert_eq!(
        (
            net.issued(),
            stats.mvcc_conflicts,
            stats.valid_txs,
            net.blocks_cut()
        ),
        (
            reported.issued,
            reported.conflicts,
            reported.valid,
            reported.blocks
        )
    );
}

/// The content pin of a traced run: the events it handled and `desim`'s
/// content hash over them ([`Simulation::content_hash`]).
fn pin(sim: &Simulation<FabricNet>) -> (u64, u64) {
    let hash = sim.content_hash().expect("the run was traced");
    (sim.events_processed(), hash)
}

/// Runs `d` out with the trace on: the finished simulation and its
/// [`pin`].
fn run_traced(d: Deployment) -> (Simulation<FabricNet>, (u64, u64)) {
    let (drain_until, idle_tail) = (d.drain_until, d.idle_tail);
    let mut sim = d.start();
    sim.set_trace(true);
    run_out(&mut sim, drain_until, idle_tail);
    let pin = pin(&sim);
    (sim, pin)
}

/// The content guard: `desim`'s hash over every protocol-visible event's
/// `(at, seq, class, node(s), kind, wire size)` of a 20-peer LAN run of
/// ten blocks under the paper's protocol. The count pins elsewhere in this
/// file cannot see an event whose `seq` shifted or two same-instant events
/// that swapped places; this can.
#[test]
fn event_content_hash_is_pinned() {
    let sim = drive_sim(GossipConfig::enhanced_f4(), 7, 20, 500, true);
    let pin = pin(&sim);
    assert_eq!(sim.protocol().committed(19), 10, "ten blocks everywhere");
    assert_eq!(
        pin,
        (10_417, 688_678_919_373_048_887),
        "event content moved"
    );
}

/// The same guard on the waves preset's discovery traffic: a rewrite of
/// the discovery tables that reordered merges, joins or reaps behind
/// unchanged counts moves this hash.
#[test]
fn churn_waves_event_content_is_pinned() {
    let (_, pin) = run_traced(ChurnWavesConfig::standard(2, 8, 40).deployment());
    assert_eq!(
        pin,
        (149_960, 12_442_827_001_134_104_137),
        "event content moved"
    );
}

/// The same guard on the conflicts pipeline at the benchmark's smoke scale
/// (30 peers, 200 transactions in 1 s blocks): client, endorser, orderer
/// and gossip traffic all at once, the densest same-instant mix of any
/// runner. A scheduler change that reorders equal-time events moves it.
#[test]
fn conflicts_event_content_is_pinned() {
    let mut cfg =
        ConflictConfig::paper(GossipConfig::enhanced_f4(), Duration::from_secs(1)).scaled(20, 10);
    cfg.peers = 30;
    cfg.network = NetworkConfig::lan(32);
    cfg.seed = 1;
    let (_, pin) = run_traced(cfg.deployment());
    assert_eq!(
        pin,
        (37_997, 11_872_763_678_379_628_262),
        "event content moved"
    );
}

/// The same guard on a snapshot-on run: the churn preset with checkpoints
/// every 8 blocks, so the joiner bootstraps from a served export. A change
/// to when a ledger checkpoints or exports, or to what a chunk carries,
/// moves it; the second pin splits the transfer into many chunks.
#[test]
fn snapshot_on_churn_event_content_is_pinned() {
    let mut cfg = ChurnConfig::standard(16, 8, 30).with_snapshots(8);
    cfg.network = NetworkConfig::lan(18);
    cfg.seed = 9;
    let (_, pin) = run_traced(cfg.deployment());
    assert_eq!(
        pin,
        (172_935, 12_970_766_335_894_880_139),
        "event content moved"
    );

    cfg.gossip.snapshot.as_mut().unwrap().chunk_size = 256;
    let (_, pin) = run_traced(cfg.deployment());
    assert_eq!(
        pin,
        (173_061, 7_977_248_603_006_877_930),
        "event content moved"
    );
}

#[test]
fn duplicate_block_accounting_is_unchanged_across_runs() {
    // Original Fabric gossip re-pushes aggressively (fout = 3 infect-and-die
    // plus a pull engine), so duplicate receptions are guaranteed — the
    // counters must be exercised AND reproducible.
    let a = drive(GossipConfig::original_fabric(), 5, 20, 300);
    let b = drive(GossipConfig::original_fabric(), 5, 20, 300);
    let dup_a: Vec<u64> = (0..20)
        .map(|i| a.gossip(i).stats().duplicate_blocks)
        .collect();
    let dup_b: Vec<u64> = (0..20)
        .map(|i| b.gossip(i).stats().duplicate_blocks)
        .collect();
    assert_eq!(
        dup_a, dup_b,
        "duplicate_blocks accounting must be deterministic"
    );
    assert!(
        dup_a.iter().sum::<u64>() > 0,
        "original gossip at this scale must produce duplicate receptions"
    );
    // The remaining per-peer counters must agree too.
    for i in 0..20 {
        let (sa, sb) = (a.gossip(i).stats(), b.gossip(i).stats());
        assert_eq!(sa.blocks_sent, sb.blocks_sent);
        assert_eq!(sa.digests_received, sb.digests_received);
        assert_eq!(sa.first_seen, sb.first_seen);
    }
}

/// The discovery golden trace: exact numbers from the fixed-seed
/// two-channel protocol-discovery churn run (16 peers, side channel of 8,
/// one runtime joiner, the side leader leaving, seed 42).
///
/// If this test fails after an intentional protocol change, re-derive the
/// constants from the new run and update them **in the same commit** as
/// the change — the point is that discovery traffic never shifts
/// silently.
#[test]
fn discovery_golden_trace_pins_events_and_byte_totals() {
    use fabric_types::ids::ChannelId;

    let mut cfg = ChurnConfig::standard(16, 8, 20);
    cfg.network = NetworkConfig::lan(18);
    cfg.seed = 42;
    let (sim, pin) = run_traced(cfg.deployment());
    let res = ChurnResult::read_off(sim);

    assert_eq!(res.events, 136_689, "simulation event count shifted");
    assert_eq!(
        pin,
        (136_689, 16_552_280_403_518_589_545),
        "event content moved"
    );

    let discovery_bytes = |ch: ChannelId| -> (u64, u64, u64) {
        let mut alive = 0;
        let mut req = 0;
        let mut resp = 0;
        for i in 0..16 {
            if let Some(s) = res.net.gossip(i).stats_on(ch) {
                alive += s.bytes_of_kind("alive-msg");
                req += s.bytes_of_kind("membership-request");
                resp += s.bytes_of_kind("membership-response");
            }
        }
        (alive, req, resp)
    };
    // Main channel: all 16 peers heartbeat and anti-entropy for the whole
    // run; request and response totals match exactly (every request is
    // answered, and both carry the same full-view payload on a channel
    // with no churn).
    assert_eq!(
        discovery_bytes(ChannelId(0)),
        (7_443_440, 2_287_656, 2_287_656)
    );
    // Side channel: fewer members, and tombstone probes to the departed
    // leader go unanswered — responses total less than requests.
    assert_eq!(
        discovery_bytes(ChannelId(1)),
        (3_656_648, 1_119_744, 653_472)
    );

    // The trace stays meaningful: both chains advanced and the leader
    // leave handed off exactly once.
    assert_eq!(res.channels[0].blocks, 20);
    assert_eq!(res.channels[1].blocks, 20);
    assert_eq!(res.channels[0].handoffs, 0);
    assert_eq!(res.channels[1].handoffs, 1);
}

/// The snapshot subsystem ships default-off, and off means *byte*-off:
/// every preset's gossip config leaves it disabled (`None`: a disabled
/// config has no snapshot settings that could be inert), and a disabled
/// run's StateInfo carries no checkpoint — zero extra wire bytes — so the
/// golden trace above (and every other pinned trace) is provably
/// untouched by the snapshot code paths.
#[test]
fn snapshots_default_off_cannot_perturb_the_golden_traces() {
    use desim::Message as _;
    use fabric_gossip::messages::GossipMsg;
    use fabric_types::snapshot::Checkpoint;

    for cfg in [
        GossipConfig::enhanced_f4(),
        GossipConfig::enhanced_f2(),
        GossipConfig::original_fabric(),
        ChurnConfig::standard(16, 8, 20).gossip,
    ] {
        assert!(cfg.snapshot.is_none(), "snapshot bootstrap must ship off");
    }
    // With snapshots off the recovery engine never advertises a
    // checkpoint, and an absent checkpoint costs nothing on the wire —
    // the default-off StateInfo format is byte-identical to the
    // pre-snapshot one.
    let bare = GossipMsg::StateInfo {
        height: 9,
        checkpoint: None,
    };
    let advertising = GossipMsg::StateInfo {
        height: 9,
        checkpoint: Some(Checkpoint {
            height: 8,
            state_hash: fabric_types::crypto::Hash256::ZERO,
        }),
    };
    assert_eq!(bare.wire_size() + Checkpoint::WIRE, advertising.wire_size());
}

#[test]
fn every_peer_shares_one_block_allocation() {
    // The zero-copy claim, observed directly: after a run, the same block
    // held by different peers' stores is the same `Arc` allocation — the
    // payload existed once per run, not once per hop or per peer.
    let net = drive(GossipConfig::enhanced_f4(), 7, 15, 200);
    let reference_height = net.gossip(0).height();
    assert!(
        reference_height > 1,
        "the run must have disseminated blocks"
    );
    for num in 1..reference_height {
        let first = net
            .gossip(0)
            .store()
            .get(num)
            .expect("peer 0 holds the chain");
        for peer in 1..15 {
            let other = net
                .gossip(peer)
                .store()
                .get(num)
                .unwrap_or_else(|| panic!("peer {peer} is missing block {num}"));
            assert!(
                BlockRef::ptr_eq(first, other),
                "peer {peer} holds a copied payload for block {num}"
            );
        }
    }
}
