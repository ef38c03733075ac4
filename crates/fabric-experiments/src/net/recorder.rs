//! The run's one recorder: every metric a deployment reports, folded
//! from what its peers trace ([`ProtocolEvent`]) and the few facts only
//! the host sees ([`Fact`]).
//!
//! [`Recorder::record`] is the one way in. Each metric is a function of
//! the `(now, peer, channel, Fact)` stream, of the deployment's fixed
//! channel layout and of the channel's members handed in beside each
//! fact, so a stream replayed into a fresh recorder rebuilds the same
//! records (`one_recorder_` tests). The recorder keeps no membership and
//! nothing the simulation reads; outside tests it keeps no stream either.

use desim::{Duration, Time};
use fabric_gossip::effects::ProtocolEvent;
use fabric_types::ids::{ChannelId, PeerId};
use gossip_metrics::latency::LatencyRecorder;

use super::ChannelRuntime;

/// One input of the [`Recorder`], about one peer on one channel.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Fact {
    /// What the peer's channel instance traced.
    Traced(ProtocolEvent),
    /// The peer joined at runtime; the members handed in beside it are
    /// the sitting set that must notice, and `target` is the chain head
    /// its catch-up must pass.
    Joined { target: u64 },
    /// The peer left; the members handed in beside it are the ones left
    /// to notice.
    Left,
    /// The peer held the seat and lost it untraced, by leaving or powering
    /// off: the seat is empty until the next claim.
    Unseated,
    /// Block `n` reached the peer from the ordering service, the instant
    /// its dissemination starts (t0 of the latency matrix).
    Ordered(u64),
    /// A turn of the peer moved its block store: the store's contiguous
    /// `height` and snapshot `floor` after the turn, and the peer's
    /// snapshot `chunks` accepted and transfers `resumed` so far.
    Stored {
        height: u64,
        floor: u64,
        chunks: u64,
        resumes: u64,
    },
    /// The peer committed one block; `ok` is false on a chain violation.
    Committed { ok: bool },
    /// A catch-up transfer message of `bytes` on the wire reached the
    /// peer: a snapshot chunk (`chunk`) or a recovery batch.
    Transfer { bytes: u64, chunk: bool },
}

/// One captured input: a fact and the channel's members beside it.
#[cfg(test)]
pub(super) type Input = (Time, PeerId, ChannelId, Fact, Vec<PeerId>);

/// Every run metric of a deployment.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct Recorder {
    /// Per channel, channel order.
    pub(super) channels: Vec<ChannelRecord>,
    /// Catch-up records of every runtime join, in event order.
    pub(super) catchups: Vec<Catchup>,
    /// Commits that broke the chain, across every peer.
    pub(super) commit_errors: u64,
    /// The inputs, in order, while a test captures them.
    #[cfg(test)]
    pub(super) inputs: Option<Vec<Input>>,
}

/// What the [`Recorder`] keeps per channel.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct ChannelRecord {
    /// Per-(block, slot) dissemination latency (t0 = leader reception).
    pub(super) latency: LatencyRecorder,
    /// Seats claimed (every hand-off; seats held from the start are
    /// seeded, not claimed).
    pub(super) handoffs: u64,
    /// One record per join and leave, in event order.
    pub(super) convergence: Vec<ViewConvergence>,
    /// When the open leadership gap opened, until the next claim.
    pub(super) gap_open: Option<Time>,
    /// Closed leadership gaps (leader leave or power-off → next claim).
    pub(super) leader_gaps: Vec<Duration>,
    /// Reaps of a peer that was still a member.
    pub(super) false_reaps: u64,
    /// Blocks committed, per peer index.
    pub(super) committed: Vec<u64>,
}

impl Recorder {
    /// An empty recorder over `layout`: a latency slot for everyone ever a
    /// member of each channel, a commit count for every peer.
    pub(super) fn new(layout: &[ChannelRuntime]) -> Self {
        let channel = |rt: &ChannelRuntime| ChannelRecord {
            latency: LatencyRecorder::new(rt.slots.iter().flatten().count()),
            handoffs: 0,
            convergence: Vec::new(),
            gap_open: None,
            leader_gaps: Vec::new(),
            false_reaps: 0,
            committed: vec![0; rt.slots.len()],
        };
        Recorder {
            channels: layout.iter().map(channel).collect(),
            catchups: Vec::new(),
            commit_errors: 0,
            #[cfg(test)]
            inputs: None,
        }
    }

    /// Folds one fact about `peer` on `channel`, at `now`, into the
    /// records; `layout` is the deployment's fixed channel layout and
    /// `members` the channel's current members.
    pub(super) fn record(
        &mut self,
        layout: &[ChannelRuntime],
        members: &[PeerId],
        now: Time,
        peer: PeerId,
        channel: ChannelId,
        fact: Fact,
    ) {
        #[cfg(test)]
        if let Some(inputs) = &mut self.inputs {
            inputs.push((now, peer, channel, fact.clone(), members.to_vec()));
        }
        let rt = &mut self.channels[channel.index()];
        match fact {
            Fact::Traced(ProtocolEvent::Received(n)) => {
                if let Some(slot) = layout[channel.index()].slots[peer.index()] {
                    rt.latency.record(n, slot, now);
                }
            }
            Fact::Traced(ProtocolEvent::Seat(false)) => {}
            Fact::Traced(ProtocolEvent::Seat(true)) => {
                rt.handoffs += 1;
                if let Some(opened) = rt.gap_open.take() {
                    rt.leader_gaps.push(now.since(opened));
                }
            }
            Fact::Traced(ProtocolEvent::View {
                peer: subject,
                joined,
            }) => {
                // `peer`'s view just admitted (or reaped) `subject`:
                // complete the oldest matching record still waiting on
                // it. An admission also completes a leave record still
                // waiting on it: a view that never reaped the leaver
                // before its rejoin (a renewal) has seen its new life, so
                // it is past the leave.
                if !joined && members.contains(&subject) {
                    rt.false_reaps += 1;
                }
                let kinds: &[bool] = if joined { &[true, false] } else { &[false] };
                for &join in kinds {
                    if let Some(record) = rt.convergence.iter_mut().find(|r| {
                        r.peer == subject
                            && r.join == join
                            && r.expected.contains(&peer)
                            && !r.observed.iter().any(|(p, _)| *p == peer)
                    }) {
                        record.observed.push((peer, now));
                    }
                }
            }
            Fact::Joined { target } => {
                rt.convergence
                    .push(ViewConvergence::new(peer, channel, now, true, members));
                self.catchups.push(Catchup {
                    peer,
                    channel,
                    joined_at: now,
                    target,
                    completed_at: (target == 0).then_some(now),
                    bytes: 0,
                    blocks_replayed: 0,
                    snapshot_height: 0,
                    max_msg_bytes: 0,
                    chunks: 0,
                    resumes: 0,
                });
            }
            Fact::Left => {
                // A member that leaves before observing is excused.
                for record in &mut rt.convergence {
                    record.expected.retain(|p| *p != peer);
                }
                rt.convergence
                    .push(ViewConvergence::new(peer, channel, now, false, members));
            }
            Fact::Unseated => {
                rt.gap_open.get_or_insert(now);
            }
            Fact::Ordered(n) => rt.latency.start_block(n, now),
            Fact::Stored {
                height,
                floor,
                chunks,
                resumes,
            } => {
                // Once the store covers a join-time head, that catch-up is
                // complete, split into what a snapshot absorbed and what
                // was replayed block by block.
                for c in self
                    .catchups
                    .iter_mut()
                    .filter(|c| c.completed_at.is_none() && c.peer == peer && c.channel == channel)
                {
                    if height > c.target {
                        c.completed_at = Some(now);
                        c.snapshot_height = floor;
                        c.blocks_replayed = (height - 1).saturating_sub(floor);
                        (c.chunks, c.resumes) = (chunks, resumes);
                    }
                }
            }
            Fact::Committed { ok } => {
                rt.committed[peer.index()] += 1;
                self.commit_errors += u64::from(!ok);
            }
            Fact::Transfer { bytes, chunk } => {
                if let Some(c) = self
                    .catchups
                    .iter_mut()
                    .find(|c| c.completed_at.is_none() && c.peer == peer && c.channel == channel)
                {
                    c.bytes += bytes;
                    if chunk {
                        c.max_msg_bytes = c.max_msg_bytes.max(bytes);
                    }
                }
            }
        }
    }
}

/// The catch-up record of one runtime join: a late joiner must converge to
/// the chain head the channel had at join time.
#[derive(Debug, Clone, PartialEq)]
pub struct Catchup {
    /// The joining peer.
    pub peer: PeerId,
    /// The channel joined.
    pub channel: ChannelId,
    /// When the join happened.
    pub joined_at: Time,
    /// The channel's chain head (last cut block number) at join time.
    pub target: u64,
    /// When the joiner's contiguous height first covered `target`
    /// (`None` while still catching up).
    pub completed_at: Option<Time>,
    /// Catch-up transfer bytes received while open: recovery-response and
    /// snapshot-chunk wire bytes addressed to the joiner on this
    /// channel. Steady-state push/pull traffic is not counted — this is
    /// the cost of the bootstrap itself.
    pub bytes: u64,
    /// Blocks the joiner individually received and replayed to reach the
    /// head (filled at completion). Equals the full chain under genesis
    /// replay; only the tail above the snapshot floor with snapshots on.
    pub blocks_replayed: u64,
    /// Highest block number absorbed through an installed snapshot
    /// (0 = genesis replay; filled at completion).
    pub snapshot_height: u64,
    /// Largest single snapshot-chunk wire message addressed to the joiner
    /// while open — within the configured chunk size, however large the
    /// state (block-recovery batches are not chunked and not counted).
    pub max_msg_bytes: u64,
    /// Snapshot chunks the joiner accepted (filled at completion).
    pub chunks: u64,
    /// Snapshot transfers re-requested after a timeout or server
    /// departure (filled at completion).
    pub resumes: u64,
}

impl Catchup {
    /// Catch-up latency (join → head reached), when complete.
    pub fn latency(&self) -> Option<Duration> {
        self.completed_at.map(|t| t.since(self.joined_at))
    }
}

/// Discovery-convergence record of one churn event: how the news of a
/// join (or leave) spread through the sitting members' views.
///
/// For a **join**, an observation is the instant a member's discovery
/// engine admitted the joiner (the traced `ProtocolEvent::View` with
/// `joined: true`). For a **leave**, it is the instant a member reaped the
/// leaver (`joined: false`) — so the full-convergence latency of a leave *is*
/// the stale-view duration: how long some member still believed the
/// departed peer alive.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewConvergence {
    /// The peer that joined or left.
    pub peer: PeerId,
    /// The channel affected.
    pub channel: ChannelId,
    /// When the churn event happened.
    pub at: Time,
    /// `true` for a join, `false` for a leave.
    pub join: bool,
    /// Sitting members that must observe the change. Pruned when an
    /// expected observer itself leaves before observing.
    pub expected: Vec<PeerId>,
    /// First observation instant per member.
    pub observed: Vec<(PeerId, Time)>,
}

impl ViewConvergence {
    /// The record of `peer`'s join (or leave) at `at`, awaiting the
    /// sitting members `expected`.
    fn new(peer: PeerId, channel: ChannelId, at: Time, join: bool, expected: &[PeerId]) -> Self {
        ViewConvergence {
            peer,
            channel,
            at,
            join,
            expected: expected.to_vec(),
            observed: Vec::new(),
        }
    }

    /// Whether every expected member has observed the change.
    pub fn complete(&self) -> bool {
        self.expected
            .iter()
            .all(|m| self.observed.iter().any(|(p, _)| p == m))
    }

    /// Event → last expected observation (full convergence; the
    /// stale-view duration for a leave). `None` while incomplete.
    pub fn latency(&self) -> Option<Duration> {
        if !self.complete() {
            return None;
        }
        self.observed
            .iter()
            .filter(|(p, _)| self.expected.contains(p))
            .map(|(_, t)| *t)
            .max()
            .map(|t| t.since(self.at))
            .or(Some(Duration::ZERO)) // nobody to convince: instant
    }

    /// Fraction of expected members whose view includes the change at `t`.
    pub fn fraction_at(&self, t: Time) -> f64 {
        if self.expected.is_empty() {
            return 1.0;
        }
        let seen = self
            .expected
            .iter()
            .filter(|m| self.observed.iter().any(|(p, obs)| p == *m && *obs <= t))
            .count();
        seen as f64 / self.expected.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use desim::Duration;
    use fabric_types::ids::{ChannelId, PeerId};

    use super::{Fact, Recorder};
    use crate::churn::{render_churn, ChurnResult};
    use crate::churn_waves::ChurnWavesConfig;
    use crate::scenario::ScenarioNet;

    /// The recorder is a fold: the inputs of a churned run (two joins and
    /// a leader's leave, by genesis replay and by snapshot) replayed into
    /// a fresh recorder rebuild it exactly, and the run's report reads the
    /// same off either.
    #[test]
    fn one_recorder_replays_its_inputs_into_an_equal_recorder() {
        let plain = ChurnWavesConfig::late_joiner(12, 30);
        for cfg in [plain.clone(), plain.with_snapshots(8)] {
            let run = || {
                let mut d = cfg.deployment();
                d.net.recorder.inputs = Some(Vec::new());
                d.run()
            };
            let mut sim = run();
            let net = sim.protocol();
            let live = net.recorder.clone();
            let mut fresh = Recorder::new(&net.channels);
            fresh.inputs = Some(Vec::new());
            for (now, peer, channel, fact, members) in live.inputs.clone().unwrap() {
                fresh.record(&net.channels, &members, now, peer, channel, fact);
            }
            assert_eq!(fresh, live);
            assert_eq!(live.catchups.len(), 2);
            let installed = live.catchups.iter().any(|c| c.snapshot_height > 0);
            assert_eq!(installed, cfg.gossip.snapshot.is_some());

            let text = render_churn("late joiner", &ChurnResult::read_off(run()));
            sim.protocol_mut().recorder = fresh;
            let replayed = render_churn("late joiner", &ChurnResult::read_off(sim));
            assert_eq!(replayed, text);
        }
    }

    /// A crash leaves every channel and powers the node off: each seat
    /// the leader held empties once, opening one gap that its successor's
    /// claim closes.
    #[test]
    fn one_recorder_a_crashed_leader_opens_one_gap_per_seat() {
        let mut d = ChurnWavesConfig::late_joiner(12, 30).deployment();
        d.net.recorder.inputs = Some(Vec::new());
        let mut net = ScenarioNet::over(d);
        net.run_for(Duration::from_secs(2));
        let channels = [ChannelId(0), ChannelId(1)];
        assert_eq!([net.leaders(0), net.leaders(1)], [[PeerId(0)], [PeerId(0)]]);
        net.crash(PeerId(0));
        let fabric = net.sim().protocol();
        let inputs = fabric.recorder.inputs.as_ref().unwrap();
        let unseated = inputs
            .iter()
            .filter(|(.., fact, _)| *fact == Fact::Unseated);
        assert_eq!(
            unseated.map(|(_, _, c, ..)| *c).collect::<Vec<_>>(),
            channels
        );
        for c in channels {
            assert!(fabric.leader_gap_open_on(c));
            assert!(fabric.leader_gaps_on(c).is_empty());
        }

        net.run_for(Duration::from_secs(5));
        let fabric = net.sim().protocol();
        for c in channels {
            assert_eq!(net.leaders(c.index()), [PeerId(1)]);
            assert_eq!(fabric.handoffs_on(c), 1);
            assert_eq!(fabric.leader_gaps_on(c).len(), 1);
            assert!(!fabric.leader_gap_open_on(c));
        }
    }
}
