//! Runtime channel-membership churn over the full transaction pipeline.
//!
//! The paper evaluates gossip on live Fabric channels where peers join,
//! catch up from the channel via pull/state transfer, and leave. This
//! scenario drives exactly that against the channel-routed
//! [`FabricNet`] pipeline: two channels carry independent payload
//! workloads end to end (client → endorser → orderer → leader → gossip),
//! and the *side channel* churns mid-run —
//!
//! * a **late joiner** enters at [`ChurnConfig::join_at`], announces
//!   itself through discovery and bootstraps to the channel head through
//!   the existing StateInfo + recovery machinery (its catch-up latency is
//!   measured);
//! * the side channel's **leader leaves** at
//!   [`ChurnConfig::leader_leave_at`] — in silence: the members reap it
//!   after the alive timeout and the most senior survivor stands up (one
//!   hand-off, counted through the `leadership_changed` effect) while the
//!   ordering service retries delivery until it does.
//!
//! Membership news travels by the gossiped discovery protocol alone, with
//! its timers tightened so far (100 ms heartbeats, a 1 s alive timeout)
//! that convergence is negligible next to the 2 s recovery rounds: what
//! the scenario measures is the pipeline's reaction to churn, not
//! discovery's (`churn_waves` measures that).
//!
//! The stable main channel doubles as the control group: its latency and
//! fairness must stay unremarkable while the side channel churns.
//!
//! This module also holds what both churn families and the multi-channel
//! runner share: the [`ChurnResult`] a run is read off into
//! ([`ChurnResult::read_off`], one [`ChannelReport`] per channel of the
//! deployment) and its one renderer, [`render_churn`]. `churn_waves` adds
//! only its configuration and wave plan, `multichannel` only its channel
//! plans.

use desim::{Duration, NetworkConfig, Simulation, Time};
use fabric_gossip::config::GossipConfig;
use fabric_orderer::cutter::BatchConfig;
use fabric_orderer::service::OrdererConfig;
use fabric_types::ids::{ChannelId, PeerId};
use fabric_types::transaction::EndorsementPolicy;
use fabric_workload::schedule::{
    merge_schedules, payload_schedule, retarget_schedule, PayloadWorkload, ScheduledInvocation,
};
use gossip_metrics::cdf::Cdf;
use gossip_metrics::fairness::FairnessReport;

use crate::deployment::Deployment;
use crate::net::{
    Catchup, ChannelSpec, ChurnAction, ChurnEvent, FabricNet, NetParams, ViewConvergence,
};

/// The per-kind metric tags that count as discovery overhead.
pub const DISCOVERY_KINDS: [&str; 3] = ["alive-msg", "membership-request", "membership-response"];

/// Everything a churn run needs.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Total peers. Every peer is a member of the main channel
    /// ([`ChannelId::DEFAULT`]); peers `0..side_members` start on the side
    /// channel (`ChannelId(1)`), and peer `side_members` enters it at
    /// runtime.
    pub peers: usize,
    /// Initial membership of the side channel (≥ 2: its static leader is
    /// peer 0 and its endorser peer 1).
    pub side_members: usize,
    /// When the late joiner enters the side channel.
    pub join_at: Time,
    /// When the side channel's leader (peer 0) leaves it, forcing a
    /// hand-off; `None` keeps the leader seated.
    pub leader_leave_at: Option<Time>,
    /// Gossip configuration shared by every peer (the preset tightens
    /// recovery so catch-up is observable at bench scale).
    pub gossip: GossipConfig,
    /// Ordering service configuration, shared by both channels' chains.
    pub orderer: OrdererConfig,
    /// The main channel's workload.
    pub main_workload: PayloadWorkload,
    /// The side channel's workload.
    pub side_workload: PayloadWorkload,
    /// Physical network model.
    pub network: NetworkConfig,
    /// Drain window after the last scheduled transaction.
    pub drain: Duration,
    /// Simulation seed.
    pub seed: u64,
    /// Maintain a ledger on every member of every channel, so checkpoint
    /// snapshots can be built and installed anywhere (off by default —
    /// the historical shape keeps ledgers on endorsers only).
    pub full_ledgers: bool,
}

impl ChurnConfig {
    /// The standard churn shape: `peers` peers, a side channel of
    /// `side_members` + 1 late joiner, `blocks` blocks per channel at the
    /// paper's 160 KB block size, join at one third of the run and the
    /// side leader leaving at two thirds. Recovery is tightened (2 s
    /// rounds, 64-block batches) so a joiner's catch-up completes within
    /// the run rather than across many 10 s default rounds, and discovery
    /// further still (100 ms heartbeats, 200 ms anti-entropy, a 1 s alive
    /// timeout): on the lossless [`NetworkConfig::lan`] the news of a join
    /// or a leave is everywhere long before the next recovery round.
    ///
    /// # Panics
    ///
    /// Panics when `side_members < 2` or `peers <= side_members` (the
    /// joiner must come from outside the side channel).
    pub fn standard(peers: usize, side_members: usize, blocks: u64) -> Self {
        assert!(side_members >= 2, "side channel needs a leader + endorser");
        assert!(peers > side_members, "no peer left to join late");
        let mut gossip = GossipConfig::enhanced_f4().with_discovery_protocol();
        gossip.recovery.interval = Duration::from_secs(2);
        gossip.recovery.batch_max = 64;
        gossip.membership.alive_interval = Duration::from_millis(100);
        gossip.discovery.anti_entropy_interval = Duration::from_millis(200);
        gossip.membership.alive_timeout = Duration::from_secs(1);
        let txs = (blocks * 50) as usize;
        let span = txs as f64 / PayloadWorkload::default().rate_per_sec;
        ChurnConfig {
            peers,
            side_members,
            join_at: Time::ZERO + Duration::from_secs_f64(span / 3.0),
            leader_leave_at: Some(Time::ZERO + Duration::from_secs_f64(2.0 * span / 3.0)),
            gossip,
            orderer: OrdererConfig::kafka(BatchConfig::paper_dissemination()),
            main_workload: PayloadWorkload::shortened(txs),
            side_workload: PayloadWorkload::shortened(txs),
            network: NetworkConfig::lan(peers + 2),
            drain: Duration::from_secs(40),
            seed: 1,
            full_ledgers: false,
        }
    }

    /// Turns on checkpoint snapshots at the given cadence and gives every
    /// member a ledger, so a late joiner bootstraps from the freshest
    /// full snapshot (streamed as bounded chunks) and replays only the
    /// tail (O(tail) instead of O(chain)).
    pub fn with_snapshots(mut self, interval: u64) -> Self {
        self.gossip = self.gossip.with_snapshots(interval);
        self.full_ledgers = true;
        self
    }

    /// The side channel's id.
    pub fn side_channel() -> ChannelId {
        ChannelId(1)
    }

    /// The deployment [`run_churn`] runs: both channels' payload
    /// schedules, the side channel over peers `0..side_members`, its join
    /// and the leader's leave as churn events, drained `drain` past the
    /// last transaction.
    ///
    /// # Panics
    ///
    /// Panics when the joiner is not an existing deployment peer.
    pub fn deployment(&self) -> Deployment {
        let side = ChurnConfig::side_channel();
        let mut params = NetParams::new(self.peers, self.gossip.clone(), self.orderer.clone());
        params.validation_per_tx = Duration::from_micros(300);
        params.full_ledgers = self.full_ledgers;
        params.extra_channels = vec![ChannelSpec {
            channel: side,
            members: (0..self.side_members as u32).map(PeerId).collect(),
            orgs: 1,
            endorsers: vec![PeerId(1)],
            policy: EndorsementPolicy::AnyMember,
        }];
        params.churn.push(ChurnEvent {
            at: self.join_at,
            peer: PeerId(self.side_members as u32),
            channel: side,
            action: ChurnAction::Join,
        });
        if let Some(at) = self.leader_leave_at {
            params.churn.push(ChurnEvent {
                at,
                peer: PeerId(0),
                channel: side,
                action: ChurnAction::Leave,
            });
        }
        assert!(
            self.side_members < self.peers,
            "the joiner must be an existing deployment peer"
        );
        Deployment::new(
            params,
            churned_schedule(&self.main_workload, &self.side_workload, 1),
            &self.network,
            self.seed,
            self.drain,
        )
    }
}

/// The main channel's payload schedule merged with `side_channels` copies
/// of the side workload, one per `ChannelId(1)..=ChannelId(side_channels)`
/// — the client traffic of both churn families.
pub(crate) fn churned_schedule(
    main: &PayloadWorkload,
    side: &PayloadWorkload,
    side_channels: usize,
) -> Vec<ScheduledInvocation> {
    let mut schedules = vec![payload_schedule(main)];
    for c in 1..=side_channels {
        schedules.push(retarget_schedule(
            payload_schedule(side),
            ChannelId(c as u16),
        ));
    }
    merge_schedules(schedules)
}

/// One channel's measured outcome — the per-channel row of every
/// multi-channel report ([`ChurnResult`]).
#[derive(Debug, Clone)]
pub struct ChannelReport {
    /// The channel.
    pub channel: ChannelId,
    /// Blocks cut on the channel.
    pub blocks: u64,
    /// Share of the blocks owed to the members sitting at end of run that
    /// they hold. A member is owed every block cut since it joined (an
    /// initial member, every block cut) and holds what its contiguous
    /// height covers, blocks absorbed through a snapshot included; a
    /// leaver owes nothing.
    pub completeness: f64,
    /// Median dissemination latency over all recorded cells.
    pub p50: Duration,
    /// 99.9th percentile of the same pool.
    pub p999: Duration,
    /// Worst cell of the same pool.
    pub max: Duration,
    /// Leadership acquisitions observed (hand-offs; static initial
    /// leaders are seeded, not counted).
    pub handoffs: u64,
    /// Closed leader-gap windows (leader leave → successor claim), in
    /// event order.
    pub leader_gaps: Vec<Duration>,
    /// Reaps of a peer that was still a member, one per observing view
    /// ([`FabricNet::false_reaps_on`]).
    pub false_reaps: u64,
    /// Peers claiming leadership at end of run.
    pub leaders: Vec<PeerId>,
    /// The members at end of run, each with the gossip bytes it sent on
    /// this channel — the rows the run's fairness report is computed from.
    pub member_bytes: Vec<(PeerId, u64)>,
    /// Bytes of [`ChannelReport::gossip_bytes`] spent on discovery
    /// (heartbeats + anti-entropy).
    pub discovery_bytes: u64,
}

impl ChannelReport {
    /// Reads `spec`'s channel off a finished run, in `net`'s own peer ids.
    /// The latency pool takes every slot: the initial members' and every
    /// scheduled joiner's.
    pub fn read_off(net: &FabricNet, spec: &ChannelSpec) -> Self {
        let channel = spec.channel;
        let rec = net.latency_on(channel).expect("channel exists");
        let blocks = net.blocks_cut_on(channel);
        let (mut owed, mut held) = (0, 0);
        for &m in net.members_on(channel) {
            let joined_at_head = net
                .catchups()
                .iter()
                .rev()
                .find(|c| c.peer == m && c.channel == channel)
                .map_or(0, |c| c.target.min(blocks));
            let contiguous = net.gossip(m.index()).height_on(channel).saturating_sub(1);
            owed += blocks - joined_at_head;
            held += contiguous.min(blocks).saturating_sub(joined_at_head);
        }
        // The recorder is sized over initial members + scheduled joiners —
        // NOT the end-of-run member count, which a leaver shrinks back.
        let pool = (0..rec.peers()).flat_map(|slot| rec.peer_latencies(slot));
        let cdf = Cdf::new(pool.collect());
        let (p50, p999) = if cdf.is_empty() {
            (Duration::ZERO, Duration::ZERO)
        } else {
            (cdf.quantile(0.5), cdf.quantile(0.999))
        };

        let mut discovery_bytes = 0u64;
        let member_bytes: Vec<(PeerId, u64)> = net
            .members_on(channel)
            .iter()
            .map(|&m| {
                let bytes = net.gossip(m.index()).stats_on(channel).map_or(0, |s| {
                    discovery_bytes += DISCOVERY_KINDS
                        .iter()
                        .map(|k| s.bytes_of_kind(k))
                        .sum::<u64>();
                    s.bytes_sent()
                });
                (m, bytes)
            })
            .collect();
        ChannelReport {
            channel,
            blocks,
            completeness: if owed == 0 {
                1.0
            } else {
                held as f64 / owed as f64
            },
            p50,
            p999,
            max: cdf.max(),
            handoffs: net.handoffs_on(channel),
            leader_gaps: net.leader_gaps_on(channel).to_vec(),
            false_reaps: net.false_reaps_on(channel),
            leaders: net.current_leaders_on(channel),
            member_bytes,
            discovery_bytes,
        }
    }

    /// Total gossip bytes sent by the channel's members on this channel.
    pub fn gossip_bytes(&self) -> u64 {
        self.member_bytes.iter().map(|&(_, bytes)| bytes).sum()
    }

    /// Share of the channel's gossip bytes spent on discovery, in `[0, 1]`.
    pub fn discovery_share(&self) -> f64 {
        match self.gossip_bytes() {
            0 => 0.0,
            total => self.discovery_bytes as f64 / total as f64,
        }
    }

    /// The report's one line of [`render_churn`].
    pub fn render(&self) -> String {
        let leaders: Vec<String> = self.leaders.iter().map(PeerId::to_string).collect();
        let gaps: Vec<String> = self.leader_gaps.iter().map(Duration::to_string).collect();
        format!(
            "{} {:>3} members | {:>4} blocks | completeness {:.4} | p50 {} | p99.9 {} | max {} | \
             handoffs {} | false reaps {} | leaders [{}] | discovery share {:.3} | gaps [{}]\n",
            self.channel,
            self.member_bytes.len(),
            self.blocks,
            self.completeness,
            self.p50,
            self.p999,
            self.max,
            self.handoffs,
            self.false_reaps,
            leaders.join(", "),
            self.discovery_share(),
            gaps.join(", "),
        )
    }
}

/// Per-channel and overall Jain fairness over the reports' member bytes.
fn fairness_of(channels: &[ChannelReport]) -> FairnessReport {
    let rows: Vec<(String, Vec<(usize, f64)>)> = channels
        .iter()
        .map(|c| {
            let shares = c
                .member_bytes
                .iter()
                .map(|&(peer, bytes)| (peer.index(), bytes as f64))
                .collect();
            (c.channel.to_string(), shares)
        })
        .collect();
    FairnessReport::from_per_channel(&rows)
}

/// What a multi-channel run — [`run_churn`],
/// [`run_churn_waves`](crate::churn_waves::run_churn_waves) or
/// [`run_multichannel`](crate::multichannel::run_multichannel) — produces.
#[derive(Debug)]
pub struct ChurnResult {
    /// Per-channel outcomes, channel order (default channel first).
    pub channels: Vec<ChannelReport>,
    /// Discovery-convergence records of every join and leave, event
    /// order per channel.
    pub convergence: Vec<ViewConvergence>,
    /// One record per runtime join: target head and catch-up latency.
    pub catchups: Vec<Catchup>,
    /// Per-channel and overall Jain fairness over per-member gossip bytes
    /// (members at end of run), discovery overhead included.
    pub fairness: FairnessReport,
    /// Simulation events processed.
    pub events: u64,
    /// Final virtual time.
    pub sim_end: Time,
    /// The final protocol state, for custom inspection.
    pub net: FabricNet,
}

impl ChurnResult {
    /// Reads a finished churned run off its simulation, one
    /// [`ChannelReport`] per channel of the deployment's
    /// [`NetParams::channel_specs`].
    pub fn read_off(sim: Simulation<FabricNet>) -> Self {
        let events = sim.events_processed();
        let sim_end = sim.now();
        let net = sim.into_protocol();
        let specs = net.params().channel_specs();
        let channels: Vec<ChannelReport> = specs
            .iter()
            .map(|spec| ChannelReport::read_off(&net, spec))
            .collect();
        ChurnResult {
            convergence: specs
                .iter()
                .flat_map(|spec| net.convergence_on(spec.channel).iter().cloned())
                .collect(),
            catchups: net.catchups().to_vec(),
            fairness: fairness_of(&channels),
            channels,
            events,
            sim_end,
            net,
        }
    }
}

/// Runs one churn experiment to completion.
///
/// # Panics
///
/// Panics on an invalid configuration (see [`ChurnConfig::standard`]).
pub fn run_churn(cfg: &ChurnConfig) -> ChurnResult {
    ChurnResult::read_off(cfg.deployment().run())
}

/// Plain-text rendering of a churned run, preset-report style: one line
/// per channel, per join / leave and per catch-up, then fairness.
pub fn render_churn(title: &str, result: &ChurnResult) -> String {
    let mut out = format!("== {title} ==\n");
    for c in &result.channels {
        out.push_str(&c.render());
    }
    for r in &result.convergence {
        let kind = if r.join { "join" } else { "leave" };
        let observers = r.expected.len();
        let outcome = match r.latency() {
            Some(lat) => format!("converged in {lat} ({observers} observers)"),
            None => format!(
                "NOT CONVERGED ({:.2} of {observers} observers)",
                r.fraction_at(result.sim_end)
            ),
        };
        out.push_str(&format!(
            "{kind} {} on {} at {} | {outcome}\n",
            r.peer, r.channel, r.at
        ));
    }
    for cu in &result.catchups {
        let outcome = match cu.latency() {
            Some(lat) if cu.snapshot_height > 0 => format!(
                "caught up in {lat} | {} catch-up bytes | snapshot@{} + {} replayed",
                cu.bytes, cu.snapshot_height, cu.blocks_replayed
            ),
            Some(lat) => format!(
                "caught up in {lat} | {} catch-up bytes | {} replayed",
                cu.bytes, cu.blocks_replayed
            ),
            None => format!("{} catch-up bytes so far | STILL CATCHING UP", cu.bytes),
        };
        out.push_str(&format!(
            "{} joined {} at {} | head {} | {outcome}\n",
            cu.peer, cu.channel, cu.joined_at, cu.target
        ));
    }
    out.push_str(&result.fairness.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> ChurnResult {
        let mut cfg = ChurnConfig::standard(24, 10, 20);
        cfg.network = NetworkConfig::lan(26);
        cfg.seed = seed;
        run_churn(&cfg)
    }

    #[test]
    fn joiner_reaches_the_join_time_head_and_beyond() {
        let res = quick(3);
        assert_eq!(res.catchups.len(), 1);
        // The run's one join and one leave each have a convergence record.
        let joins: Vec<bool> = res.convergence.iter().map(|r| r.join).collect();
        assert_eq!(joins, [true, false]);
        let cu = &res.catchups[0];
        assert_eq!(cu.peer, PeerId(10));
        assert_eq!(cu.channel, ChannelId(1));
        assert!(cu.target > 0, "the side channel must have a head to chase");
        let lat = cu.latency().expect("catch-up must complete within the run");
        assert!(lat > Duration::ZERO);
        // The joiner keeps converging after catch-up: by end of run it
        // holds (nearly) the full side chain, gap-free.
        let height = res.net.gossip(10).height_on(ChannelId(1));
        assert!(
            height > cu.target,
            "contiguous height {height} must pass the join-time head {}",
            cu.target
        );
        // The joiner owns a latency slot past the initial members, and its
        // post-join receptions are recorded there (the report's latency
        // pool draws on it even after the leaver shrinks the member list).
        let rec = res.net.latency_on(ChannelId(1)).unwrap();
        assert_eq!(rec.peers(), 11, "10 initial members + 1 joiner slot");
        assert!(
            !rec.peer_latencies(10).is_empty(),
            "the joiner's dissemination latencies must be recorded"
        );
    }

    #[test]
    fn leader_leave_forces_exactly_one_handoff() {
        let res = quick(5);
        let side = &res.channels[1];
        assert_eq!(side.handoffs, 1, "one hand-off after the leader left");
        assert_eq!(
            side.leaders,
            vec![PeerId(1)],
            "the next-lowest member stands up"
        );
        // Peer 0 still leads the stable main channel.
        let main = &res.channels[0];
        assert_eq!(main.handoffs, 0);
        assert_eq!(main.leaders, vec![PeerId(0)]);
        assert!(
            !res.net.gossip(0).has_channel(ChannelId(1)),
            "the leaver dropped its side-channel instance"
        );
        // Dissemination survived the hand-off: every member sitting at the
        // end holds every block cut since it joined.
        assert!(side.blocks > 10);
        assert_eq!(side.completeness, 1.0);
    }

    #[test]
    fn main_channel_is_undisturbed_by_side_churn() {
        let res = quick(7);
        let main = &res.channels[0];
        assert_eq!(
            main.completeness, 1.0,
            "the stable channel must deliver everything to everyone"
        );
        assert!(main.blocks >= 19);
        assert!(res.fairness.channels.len() == 2);
        assert!(
            res.fairness.channels[0].jain > 0.5,
            "main-channel load should stay broadly balanced: {}",
            res.fairness.channels[0].jain
        );
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let a = quick(11);
        let b = quick(11);
        assert_eq!(a.events, b.events);
        assert_eq!(a.catchups[0].completed_at, b.catchups[0].completed_at);
        assert_eq!(a.fairness.overall_jain, b.fairness.overall_jain);
        for (x, y) in a.channels.iter().zip(&b.channels) {
            assert_eq!(x.p50, y.p50);
            assert_eq!(x.p999, y.p999);
        }
    }

    /// What the retired oracle-equivalence test kept of the gossiped run:
    /// the join and the leader's leave both reach every member's view,
    /// the leaderless window is one finite gap, and the seat passes once,
    /// to the next most senior member.
    #[test]
    fn the_join_and_the_leave_converge_with_one_finite_gap_and_one_handoff() {
        let res = quick(3);
        let side = ChurnConfig::side_channel();
        let records = res.net.convergence_on(side);
        assert_eq!(records.len(), 2, "one join + one leave record");
        for r in records {
            assert!(
                r.latency().is_some(),
                "convergence incomplete for peer {} (join: {})",
                r.peer,
                r.join
            );
        }
        assert_eq!(res.net.leader_gaps_on(side).len(), 1);
        assert!(!res.net.leader_gap_open_on(side));
        assert_eq!(res.channels[1].handoffs, 1);
        assert_eq!(res.channels[1].leaders, vec![PeerId(1)]);
        assert_eq!(
            res.channels[1].member_bytes.len(),
            10,
            "10 + 1 joiner - 1 leaver"
        );
        res.catchups[0].latency().expect("catch-up completes");
    }

    #[test]
    fn render_reports_catchup_handoffs_and_fairness() {
        let res = quick(1);
        let text = render_churn("churn", &res);
        assert!(text.contains("ch0"));
        assert!(text.contains("ch1"));
        assert!(text.contains("caught up in"));
        assert!(text.contains("catch-up bytes"));
        assert!(text.contains("replayed"));
        assert!(text.contains("handoffs"));
        assert!(text.contains("discovery share"));
        assert!(text.contains("converged in"));
        assert!(text.contains("gaps ["));
        assert!(text.contains("jain"));
    }

    #[test]
    fn catchup_records_transfer_bytes_and_replayed_blocks() {
        let res = quick(3);
        let cu = &res.catchups[0];
        assert!(
            cu.bytes > 0,
            "a genesis-replay catch-up must receive recovery bytes"
        );
        assert_eq!(cu.snapshot_height, 0, "snapshots are off by default");
        assert!(
            cu.blocks_replayed >= cu.target,
            "genesis replay pulls the whole chain: {} replayed, head {}",
            cu.blocks_replayed,
            cu.target
        );
    }

    /// The snapshot-on churn smoke: same deployment, checkpoints every 8
    /// blocks — the joiner bootstraps from a snapshot and replays only the
    /// tail, with fewer catch-up bytes than the genesis-replay run.
    #[test]
    fn snapshot_bootstrap_replays_only_the_tail() {
        let mut base = ChurnConfig::standard(16, 8, 30);
        base.network = NetworkConfig::lan(18);
        base.seed = 9;
        let genesis = run_churn(&base);
        let snap = run_churn(&base.clone().with_snapshots(8));

        let g = &genesis.catchups[0];
        let s = &snap.catchups[0];
        assert_eq!(g.target, s.target, "both runs chase the same head");
        g.latency().expect("genesis catch-up completes");
        s.latency().expect("snapshot catch-up completes");
        assert!(
            s.snapshot_height >= 8,
            "the joiner must have installed a checkpoint snapshot, got floor {}",
            s.snapshot_height
        );
        assert!(
            s.blocks_replayed < g.blocks_replayed,
            "snapshot run must replay only the tail: {} vs {}",
            s.blocks_replayed,
            g.blocks_replayed
        );
        assert!(
            s.bytes < g.bytes,
            "snapshot catch-up must move fewer bytes: {} vs {}",
            s.bytes,
            g.bytes
        );
        assert_eq!(snap.net.commit_errors(), 0);

        // The joiner's ledger was stood up from the snapshot, not genesis.
        let joiner = &snap.catchups[0].peer;
        let ledger = snap
            .net
            .ledger_on(joiner.index(), ChannelId(1))
            .expect("full_ledgers gives the joiner a side-channel ledger");
        assert!(
            ledger.base_height() > 1,
            "the joiner's ledger must be snapshot-based, base {}",
            ledger.base_height()
        );
        assert_eq!(
            ledger.height(),
            snap.net.gossip(joiner.index()).height_on(ChannelId(1)),
            "ledger and gossip store agree on the contiguous height"
        );
    }

    /// No single snapshot-transfer wire message may exceed the configured
    /// chunk size: the snapshot arrives as a bounded chunk stream that
    /// reassembles to one verified install.
    #[test]
    fn chunked_bootstrap_bounds_the_largest_catchup_message() {
        let mut cfg = ChurnConfig::standard(16, 8, 30).with_snapshots(8);
        cfg.network = NetworkConfig::lan(18);
        cfg.seed = 9;
        let chunk_size = 256;
        cfg.gossip.snapshot.as_mut().unwrap().chunk_size = chunk_size;
        let run = run_churn(&cfg);

        let c = &run.catchups[0];
        c.latency().expect("catch-up completes");
        assert!(c.snapshot_height >= 8, "a snapshot must have installed");
        assert!(
            c.max_msg_bytes > 0 && c.max_msg_bytes as usize <= chunk_size,
            "no snapshot-transfer message may exceed {chunk_size}, got {}",
            c.max_msg_bytes
        );
        assert!(c.chunks > 1, "the snapshot must arrive in several chunks");
        assert_eq!(run.net.commit_errors(), 0);
        // A lossless LAN needs no resumes; the resume machinery is pinned
        // by the unit and scenario suites.
        assert_eq!(c.resumes, 0);
    }

    /// The endorser ledgers checkpoint every 8 blocks, and each checkpoint
    /// is the snapshot export served until the next one; the joiner
    /// bootstraps from one of them.
    #[test]
    fn every_checkpoint_is_the_served_export() {
        let mut cfg = ChurnConfig::standard(16, 8, 30).with_snapshots(8);
        cfg.network = NetworkConfig::lan(18);
        cfg.seed = 9;
        let run = run_churn(&cfg);

        // A sitting endorser's side-channel ledger.
        let ledger = run
            .net
            .ledger_on(1, ChannelId(1))
            .expect("sitting member keeps a side-channel ledger");
        let checkpoints = ledger.checkpoints();
        let heights: Vec<u64> = checkpoints.iter().map(|c| c.height).collect();
        let newest = (ledger.height() - 1) / 8 * 8;
        assert!(heights.len() >= 3, "several checkpoints fired: {heights:?}");
        assert_eq!(
            heights,
            (1..=newest / 8).map(|k| 8 * k).collect::<Vec<_>>(),
            "a checkpoint at every boundary"
        );
        let served = ledger.snapshot().expect("the endorser serves an export");
        assert!(served.verify());
        assert_eq!(
            Some(&served.checkpoint),
            checkpoints.last(),
            "the served export is the newest checkpoint"
        );
        let d = &run.catchups[0];
        d.latency().expect("catch-up completes");
        assert!(
            heights.contains(&d.snapshot_height),
            "the joiner installed one of the endorser's checkpoints, not {}",
            d.snapshot_height
        );
        assert_eq!(run.net.commit_errors(), 0);
    }
}
