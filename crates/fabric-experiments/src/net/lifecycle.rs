//! Runtime membership: churn events, `join` / `leave` / `crash`, and the
//! catch-up and view-convergence bookkeeping that follows each change.

use desim::{Ctx, Duration, NodeId, Time};
use fabric_types::ids::{ChannelId, PeerId};
use fabric_workload::schedule::ScheduledInvocation;

use super::{channel_ledger, ChannelSpec, DiscoveryMode, FabricNet, NetMsg, NetTimer};

/// What a churn event does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// The peer joins the channel at runtime and catches up to the head
    /// via the StateInfo + recovery machinery.
    Join,
    /// The peer leaves the channel in silence: the remaining members reap
    /// it after the alive timeout and, if it led, the most senior
    /// survivor succeeds it.
    Leave,
}

/// One scheduled runtime-membership change.
///
/// Churned channels must be single-organization (`orgs == 1`): runtime
/// membership reshapes the roster, and the contiguous multi-organization
/// split is a static deployment concept.
#[derive(Debug, Clone)]
pub struct ChurnEvent {
    /// When the change happens.
    pub at: Time,
    /// The peer joining or leaving.
    pub peer: PeerId,
    /// The channel affected.
    pub channel: ChannelId,
    /// Join or leave.
    pub action: ChurnAction,
}

/// The catch-up record of one runtime join: a late joiner must converge to
/// the chain head the channel had at join time.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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

impl FabricNet {
    /// Marks pending catch-ups of this peer complete once its contiguous
    /// height covers the join-time head, recording how the head was
    /// reached: blocks individually replayed vs absorbed through a
    /// snapshot.
    pub(super) fn check_catchups(&mut self, node: NodeId, now: Time) {
        let peer = PeerId(node.0);
        for c in self
            .catchups
            .iter_mut()
            .filter(|c| c.completed_at.is_none() && c.peer == peer)
        {
            let gossip = &self.peers[node.index()].gossip;
            let height = gossip.height_on(c.channel);
            if height > c.target {
                c.completed_at = Some(now);
                let floor = gossip.store_on(c.channel).map_or(0, |s| s.snapshot_floor());
                c.snapshot_height = floor;
                c.blocks_replayed = (height - 1).saturating_sub(floor);
                if let Some(stats) = gossip.stats_on(c.channel) {
                    c.chunks = stats.snapshot_chunks_received;
                    c.resumes = stats.snapshot_resumes;
                }
            }
        }
    }

    /// Applies one churn event, now (`ev.at` is when a *scheduled* event
    /// is due; here it is not read): a runtime join knowing the whole
    /// sitting membership, or a leave.
    pub fn apply_churn(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>, ev: ChurnEvent) {
        match ev.action {
            ChurnAction::Join => {
                let seeds = self.members[ev.channel.index()].clone();
                self.join(ctx, ev.channel, ev.peer, seeds);
            }
            ChurnAction::Leave => self.leave(ctx, ev.channel, ev.peer),
        }
    }

    /// Runtime join of `peer` to `channel`, with catch-up tracking. The
    /// joiner's roster is `seeds` — the membership as it stood before the
    /// join for an ordinary joiner (a roster excluding self never
    /// self-elects statically: the late-joiner rule of `GossipPeer::new`),
    /// one anchor peer or any other subset for a joiner that must
    /// discover the rest through push-pull. A peer that crashed comes back
    /// up holding this one channel. A sitting member joining again is a
    /// stale or duplicate event and ignored.
    ///
    /// **Only the joiner acts** — it joins live and lets its discovery
    /// engine announce it — and a [`ViewConvergence`] record starts
    /// tracking how the news spreads through the sitting members' views.
    ///
    /// # Panics
    ///
    /// Panics under [`DiscoveryMode::Static`].
    pub fn join(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NetTimer>,
        channel: ChannelId,
        peer: PeerId,
        seeds: Vec<PeerId>,
    ) {
        self.assert_membership_may_change("join");
        let c = channel.index();
        if self.members[c].contains(&peer) {
            return;
        }
        let node = NodeId(peer.0);
        if !ctx.net().is_up(node) {
            ctx.net_mut().set_up(node, true);
        }
        let now = ctx.now();
        // Under full_ledgers a runtime joiner materializes its ledger at
        // join (build-time ledgers cover initial members only), so a
        // verified snapshot can seed it.
        if self.params.full_ledgers && self.peers[peer.index()].ledger(channel).is_none() {
            let ledger =
                channel_ledger(&self.msp, &self.channels[c].spec, &self.params.gossip, None)
                    .expect("only a snapshot can fail verification");
            self.peers[peer.index()].ledgers.push((channel, ledger));
        }
        {
            let (gossip, mut fx) = self.peer_fx(ctx, node);
            gossip.join_channel_live(&mut fx, channel, seeds);
        }
        // Nobody else is told: the join propagates through the joiner's
        // announcement heartbeats and anti-entropy.
        let sitting = self.members[c].clone();
        self.members[c].push(peer);
        self.channels[c].convergence.push(ViewConvergence {
            peer,
            channel,
            at: now,
            join: true,
            expected: sitting,
            observed: Vec::new(),
        });
        let target = self.orderer.chain_head_on(channel);
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

    /// Runtime leave of `peer` from `channel`. A non-member leaving is a
    /// stale or duplicate event and ignored.
    ///
    /// **Only the leaver acts** — it drops its instance and goes silent;
    /// the sitting members must detect the departure by alive-timeout
    /// expiry (and succeed it, if it led), tracked by a
    /// [`ViewConvergence`] record.
    ///
    /// # Panics
    ///
    /// Panics under [`DiscoveryMode::Static`], or when a deployment with a
    /// client schedule loses an endorser.
    pub fn leave(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>, channel: ChannelId, peer: PeerId) {
        self.assert_membership_may_change("leave");
        let c = channel.index();
        let Some(pos) = self.members[c].iter().position(|m| *m == peer) else {
            return;
        };
        assert!(
            may_leave(&self.channels[c].spec, &self.schedule, peer),
            "endorser {peer} must not leave channel {channel}"
        );
        let now = ctx.now();
        let led = self.peers[peer.index()].gossip.is_leader_on(channel);
        self.members[c].remove(pos);
        self.peers[peer.index()].gossip.leave_channel(channel);
        if led && self.channels[c].gap_open.is_none() {
            // A leadership gap opens the instant the leader leaves and
            // closes when a successor claims, once the leaver expired.
            self.channels[c].gap_open = Some(now);
        }
        // A member that leaves before observing is excused.
        for record in &mut self.channels[c].convergence {
            record.expected.retain(|p| *p != peer);
        }
        self.channels[c].convergence.push(ViewConvergence {
            peer,
            channel,
            at: now,
            join: false,
            expected: self.members[c].clone(),
            observed: Vec::new(),
        });
    }

    /// Process crash of `peer`, now: the node goes down (the engine drops
    /// its timers and whatever is sent to it), its volatile state and any
    /// attached behavior are lost, and it [leaves](FabricNet::leave) every
    /// channel it was in — in silence; the sitting members must reap it.
    /// A later [`FabricNet::join`] brings it back up into the channel that
    /// join names, and no other. (Powering a node off and on through the
    /// engine, [`Ctx::set_node_status_after`] or a scenario's
    /// `ScenarioOp::Power`, is a reboot into the same channels, not a
    /// membership change, and works on static rosters.)
    ///
    /// # Panics
    ///
    /// Panics under [`DiscoveryMode::Static`].
    pub fn crash(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>, peer: PeerId) {
        self.assert_membership_may_change("crash");
        let node = NodeId(peer.0);
        if !ctx.net().is_up(node) {
            return;
        }
        for c in 0..self.channels.len() {
            self.leave(ctx, ChannelId(c as u16), peer);
        }
        ctx.net_mut().set_up(node, false);
        self.on_node_down(ctx.now(), node);
        self.peers[peer.index()].byzantine = None;
    }

    /// Runtime membership changes travel by gossip or not at all: on a
    /// static roster there is nothing that would tell the sitting members.
    fn assert_membership_may_change(&self, entry_point: &str) {
        assert!(
            self.params.discovery == DiscoveryMode::Protocol,
            "{STATIC_MEMBERSHIP}: FabricNet::{entry_point} was called"
        );
    }

    /// What a node loses when it goes down: leadership, buffers, fetches
    /// and the RAM-only commit queue. A seat it held is empty from `now`
    /// until a successor (or, on a static roster, the rebooted leader)
    /// claims it.
    pub(super) fn on_node_down(&mut self, now: Time, node: NodeId) {
        for (c, rt) in self.channels.iter_mut().enumerate() {
            let led = self.peers[node.index()]
                .gossip
                .is_leader_on(ChannelId(c as u16));
            if led && rt.gap_open.is_none() {
                rt.gap_open = Some(now);
            }
        }
        let peer = &mut self.peers[node.index()];
        peer.gossip.on_crash();
        peer.pending_commits.clear();
        peer.validation_free = Time::ZERO;
    }
}

/// What every refusal of a runtime membership change on a static roster
/// says first.
pub(super) const STATIC_MEMBERSHIP: &str =
    "the rosters handed at build time are the membership for the whole \
     run (DiscoveryMode::Static); build the gossip configuration with \
     GossipConfig::with_discovery_protocol() to let peers join, leave or crash";

/// Endorsers are a channel's execution substrate: their ledgers freeze on
/// leave while the client keeps proposing to them, which would quietly
/// corrupt every later read set. Without a schedule there is no client,
/// and any member may go.
pub(super) fn may_leave(
    spec: &ChannelSpec,
    schedule: &[ScheduledInvocation],
    peer: PeerId,
) -> bool {
    schedule.is_empty() || !spec.endorsers.contains(&peer)
}
