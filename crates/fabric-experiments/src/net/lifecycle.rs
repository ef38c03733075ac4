//! Runtime membership: churn events and `join` / `leave` / `crash`, each
//! change reported to the recorder as it happens.

use desim::{Ctx, NodeId, Time};
use fabric_types::ids::{ChannelId, PeerId};
use fabric_workload::schedule::ScheduledInvocation;

use super::recorder::Fact;
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

impl FabricNet {
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
    /// engine announce it — and a
    /// [`ViewConvergence`](super::ViewConvergence) record starts tracking
    /// how the news spreads through the sitting members' views.
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
        let target = self.orderer.chain_head_on(channel);
        self.record(ctx.now(), peer, channel, Fact::Joined { target });
        self.members[c].push(peer);
    }

    /// Runtime leave of `peer` from `channel`. A non-member leaving is a
    /// stale or duplicate event and ignored.
    ///
    /// **Only the leaver acts** — it drops its instance and goes silent;
    /// the sitting members must detect the departure by alive-timeout
    /// expiry (and succeed it, if it led), tracked by a
    /// [`ViewConvergence`](super::ViewConvergence) record.
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
        let led = self.peers[peer.index()].gossip.is_leader_on(channel);
        self.members[c].remove(pos);
        self.peers[peer.index()].gossip.leave_channel(channel);
        let now = ctx.now();
        if led {
            // The seat stays empty until a successor claims it, once the
            // leaver expired.
            self.record(now, peer, channel, Fact::Unseated);
        }
        self.record(now, peer, channel, Fact::Left);
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
        let peer = PeerId(node.0);
        for c in 0..self.channels.len() {
            let channel = ChannelId(c as u16);
            if self.peers[node.index()].gossip.is_leader_on(channel) {
                self.record(now, peer, channel, Fact::Unseated);
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
