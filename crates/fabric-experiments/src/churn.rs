//! What every multi-channel run shares: the [`ChurnResult`] a run is read
//! off into ([`ChurnResult::read_off`], one [`ChannelReport`] per channel
//! of the deployment) and its one renderer, [`render_churn`]. The churn
//! runner ([`run_churn_waves`](crate::churn_waves::run_churn_waves)) adds
//! only its configuration and wave plan, `multichannel` only its channel
//! plans.
//!
//! The tests here hold the late-joiner preset
//! ([`ChurnWavesConfig::late_joiner`](crate::churn_waves::ChurnWavesConfig::late_joiner))
//! to its guarantees: the joiner reaches the join-time head, the leader's
//! leave hands off exactly once, the stable main channel (the control
//! group) is undisturbed, and a snapshot-on joiner replays only the tail.

use desim::{Duration, Simulation, Time};
use fabric_types::ids::{ChannelId, PeerId};
use gossip_metrics::cdf::Cdf;
use gossip_metrics::fairness::FairnessReport;

use crate::net::{Catchup, ChannelSpec, FabricNet, ViewConvergence};

/// The per-kind metric tags that count as discovery overhead.
pub const DISCOVERY_KINDS: [&str; 3] = ["alive-msg", "membership-request", "membership-response"];

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
    /// Median dissemination latency over the recorded cells but a joiner's
    /// catch-up, which its [`Catchup`] record times.
    pub p50: Duration,
    /// 99.9th percentile of the same pool.
    pub p999: Duration,
    /// Worst cell of the same pool.
    pub max: Duration,
    /// Leadership acquisitions observed (hand-offs; static initial
    /// leaders are seeded, not counted).
    pub handoffs: u64,
    /// Closed leader-gap windows (leader leave or power-off → the next
    /// claim), in event order.
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
    /// scheduled joiner's, from the block after its first catch-up's
    /// target on (the blocks cut before it joined are its catch-up).
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
        let mut first = vec![0; rec.peers()];
        for c in net.catchups().iter().rev().filter(|c| c.channel == channel) {
            match net.latency_slot_on(channel, c.peer) {
                Some(slot) if slot >= spec.members.len() => first[slot] = c.target + 1,
                _ => {}
            }
        }
        let pool = (0..rec.peers()).flat_map(|slot| rec.peer_latencies_from(slot, first[slot]));
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

/// What a multi-channel run —
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
    /// [`NetParams::channel_specs`](crate::net::NetParams::channel_specs).
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
    use crate::churn_waves::{run_churn_waves, ChurnWavesConfig};

    /// The side channel of the late-joiner preset.
    const SIDE: ChannelId = ChannelId(1);

    /// Ten side members (0..10, endorser 9) and twelve peers: the flash
    /// joiner, peer 11, enters at a third of the run; at two thirds peer 0
    /// leaves and the wave joiner, peer 10, enters.
    fn quick(seed: u64) -> ChurnResult {
        let mut cfg = ChurnWavesConfig::late_joiner(10, 20);
        cfg.seed = seed;
        run_churn_waves(&cfg)
    }

    #[test]
    fn joiner_reaches_the_join_time_head_and_beyond() {
        let res = quick(3);
        // Two catch-ups (the flash joiner first), and three convergence
        // records: the two joins and the leader's leave.
        let joiners: Vec<PeerId> = res.catchups.iter().map(|c| c.peer).collect();
        assert_eq!(joiners, [PeerId(11), PeerId(10)]);
        let joins: Vec<bool> = res.convergence.iter().map(|r| r.join).collect();
        assert_eq!(joins, [true, true, false]);
        let cu = &res.catchups[0];
        assert_eq!(cu.channel, SIDE);
        assert!(cu.target > 0, "the side channel must have a head to chase");
        let lat = cu.latency().expect("catch-up must complete within the run");
        assert!(lat > Duration::ZERO);
        // The joiner keeps converging after catch-up: by end of run it
        // holds (nearly) the full side chain, gap-free.
        let height = res.net.gossip(11).height_on(SIDE);
        assert!(
            height > cu.target,
            "contiguous height {height} must pass the join-time head {}",
            cu.target
        );
        // Each joiner owns a latency slot past the initial members, and
        // its post-join receptions are recorded there (the report's
        // latency pool draws on them even after the leaver shrinks the
        // member list).
        let rec = res.net.latency_on(SIDE).unwrap();
        assert_eq!(rec.peers(), 12, "10 initial members + 2 joiner slots");
        for slot in [10, 11] {
            assert!(
                !rec.peer_latencies(slot).is_empty(),
                "slot {slot}: a joiner's dissemination latencies must be recorded"
            );
        }
    }

    #[test]
    fn leader_leave_forces_exactly_one_handoff() {
        let res = quick(5);
        let side = &res.channels[1];
        assert_eq!(side.handoffs, 1, "one hand-off after the leader left");
        assert_eq!(side.leader_gaps.len(), 1, "one closed gap");
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
            !res.net.gossip(0).has_channel(SIDE),
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
        assert_eq!((main.handoffs, main.leader_gaps.len()), (0, 0));
        assert_eq!(res.fairness.channels.len(), 2);
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
        let completed = |r: &ChurnResult| -> Vec<Option<Time>> {
            r.catchups.iter().map(|c| c.completed_at).collect()
        };
        assert_eq!(completed(&a), completed(&b));
        assert_eq!(a.fairness.overall_jain, b.fairness.overall_jain);
        for (x, y) in a.channels.iter().zip(&b.channels) {
            assert_eq!(x.p50, y.p50);
            assert_eq!(x.p999, y.p999);
        }
    }

    /// Both joins and the leader's leave reach every member's view, the
    /// leaderless window is one finite gap, and the seat passes once, to
    /// the next most senior member.
    #[test]
    fn the_join_and_the_leave_converge_with_one_finite_gap_and_one_handoff() {
        let res = quick(3);
        let records = res.net.convergence_on(SIDE);
        assert_eq!(records.len(), 3, "two join records + one leave record");
        for r in records {
            assert!(
                r.latency().is_some(),
                "convergence incomplete for peer {} (join: {})",
                r.peer,
                r.join
            );
        }
        assert_eq!(res.net.leader_gaps_on(SIDE).len(), 1);
        assert!(!res.net.leader_gap_open_on(SIDE));
        assert_eq!(res.channels[1].handoffs, 1);
        assert_eq!(res.channels[1].leaders, vec![PeerId(1)]);
        assert_eq!(
            res.channels[1].member_bytes.len(),
            11,
            "10 + 2 joiners - 1 leaver"
        );
        for cu in &res.catchups {
            cu.latency().expect("catch-up completes");
        }
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
        assert_eq!(res.catchups.len(), 2);
        for cu in &res.catchups {
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
    }

    /// The late-joiner preset over 8 side members and 30 blocks, seed 9.
    fn snapshot_base() -> ChurnWavesConfig {
        let mut cfg = ChurnWavesConfig::late_joiner(8, 30);
        cfg.seed = 9;
        cfg
    }

    /// The snapshot-on churn smoke: same deployment, checkpoints every 8
    /// blocks — the joiner bootstraps from a snapshot and replays only the
    /// tail, with fewer catch-up bytes than the genesis-replay run.
    #[test]
    fn snapshot_bootstrap_replays_only_the_tail() {
        let genesis = run_churn_waves(&snapshot_base());
        let snap = run_churn_waves(&snapshot_base().with_snapshots(8));

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
        let joiner = s.peer.index();
        let ledger = snap
            .net
            .ledger_on(joiner, SIDE)
            .expect("snapshots on give every member a side-channel ledger");
        assert!(
            ledger.base_height() > 1,
            "the joiner's ledger must be snapshot-based, base {}",
            ledger.base_height()
        );
        assert_eq!(
            ledger.height(),
            snap.net.gossip(joiner).height_on(SIDE),
            "ledger and gossip store agree on the contiguous height"
        );
    }

    /// No single snapshot-transfer wire message may exceed the configured
    /// chunk size: the snapshot arrives as a bounded chunk stream that
    /// reassembles to one verified install.
    #[test]
    fn chunked_bootstrap_bounds_the_largest_catchup_message() {
        let mut cfg = snapshot_base().with_snapshots(8);
        let chunk_size = 256;
        cfg.gossip.snapshot.as_mut().unwrap().chunk_size = chunk_size;
        let run = run_churn_waves(&cfg);

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

    /// The endorser's ledger checkpoints every 8 blocks, and each
    /// checkpoint is the snapshot export served until the next one; the
    /// joiner bootstraps from one of them.
    #[test]
    fn every_checkpoint_is_the_served_export() {
        let run = run_churn_waves(&snapshot_base().with_snapshots(8));

        // The side channel's endorser sits at the top of its id block.
        let ledger = run
            .net
            .ledger_on(7, SIDE)
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
