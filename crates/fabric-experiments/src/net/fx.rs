//! The glue between a gossip peer and the simulation: the [`Effects`]
//! adapter each handler runs against, with the peer's attached
//! [`Byzantine`] behavior, if any, on its wire.

use std::collections::VecDeque;
use std::sync::Arc;

use desim::{Ctx, Duration, NodeId, Time};
use fabric_gossip::effects::{Effects, ProtocolEvent};
use fabric_gossip::messages::{ChannelMsg, GossipMsg, GossipTimer};
use fabric_gossip::peer::GossipPeer;
use fabric_gossip::scenario::{AttackCtx, Byzantine};
use fabric_ledger::ledger::Ledger;
use fabric_types::block::BlockRef;
use fabric_types::ids::{ChannelId, PeerId};
use fabric_types::msp::Msp;
use rand::rngs::StdRng;

use super::recorder::{Fact, Recorder};
use super::{channel_ledger, ChannelRuntime, FabricNet, NetMsg, NetParams, NetTimer, PeerNode};

impl FabricNet {
    /// Runs one handler `turn` of `node`'s gossip against its effects.
    /// A turn that moved the channel's block store tells the recorder
    /// where the store stands.
    #[inline]
    pub(super) fn peer_turn(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NetTimer>,
        node: NodeId,
        turn: impl FnOnce(&mut GossipPeer, &mut SimFx<'_, '_>),
    ) {
        let (gossip, mut fx) = self.peer_fx(ctx, node);
        turn(gossip, &mut fx);
        let Some(channel) = fx.moved else {
            return;
        };
        let gossip = &self.peers[node.index()].gossip;
        let (Some(store), Some(stats)) = (gossip.store_on(channel), gossip.stats_on(channel))
        else {
            return;
        };
        let fact = Fact::Stored {
            height: store.height(),
            floor: store.snapshot_floor(),
            chunks: stats.snapshot_chunks_received,
            resumes: stats.snapshot_resumes,
        };
        self.record(ctx.now(), PeerId(node.0), channel, fact);
    }

    /// Splits the borrows one peer's handler needs, once: the peer's
    /// gossip state, and the [`Effects`] it runs against — with the
    /// peer's attached behavior, if any, on the outbound edge.
    #[inline]
    pub(super) fn peer_fx<'a, 'c>(
        &'a mut self,
        ctx: &'a mut Ctx<'c, NetMsg, NetTimer>,
        node: NodeId,
    ) -> (&'a mut GossipPeer, SimFx<'a, 'c>) {
        let PeerNode {
            gossip,
            ledgers,
            pending_commits,
            validation_free,
            byzantine,
            ..
        } = &mut self.peers[node.index()];
        let edge = byzantine.as_deref_mut().map(|behavior| Edge {
            behavior,
            rng: &mut self.attack_rng,
            members: &self.members,
        });
        let fx = SimFx {
            ctx,
            me: node,
            members: &self.members,
            pending_commits,
            validation_free,
            ledgers,
            msp: &self.msp,
            channels: &self.channels,
            recorder: &mut self.recorder,
            params: &self.params,
            edge,
            moved: None,
        };
        (gossip, fx)
    }
}

/// The [`Effects`] adapter: a gossip peer's view of the simulation.
pub(super) struct SimFx<'a, 'c> {
    ctx: &'a mut Ctx<'c, NetMsg, NetTimer>,
    me: NodeId,
    /// Ground-truth membership per channel.
    members: &'a [Vec<PeerId>],
    pending_commits: &'a mut VecDeque<(ChannelId, BlockRef)>,
    validation_free: &'a mut Time,
    ledgers: &'a mut Vec<(ChannelId, Ledger)>,
    msp: &'a Arc<Msp>,
    channels: &'a [ChannelRuntime],
    recorder: &'a mut Recorder,
    params: &'a NetParams,
    /// The behavior attached to this peer, if any: every send passes
    /// through it.
    edge: Option<Edge<'a>>,
    /// The channel whose block store this turn moved, if any.
    moved: Option<ChannelId>,
}

impl SimFx<'_, '_> {
    /// Gives the attached behavior, if any, a turn — a send of the peer's
    /// to transform, a delivery to wiretap, a timer of its own — and puts
    /// what it returns on the wire as sent by this peer.
    #[inline]
    pub(super) fn byzantine_turn(
        &mut self,
        turn: impl FnOnce(&mut dyn Byzantine, &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)>,
    ) {
        let Some(edge) = &mut self.edge else {
            return;
        };
        let mut actx = AttackCtx {
            self_id: PeerId(self.me.0),
            now: self.ctx.now(),
            rng: edge.rng,
            members: edge.members,
        };
        for (channel, to, msg) in turn(edge.behavior, &mut actx) {
            send_gossip(self.ctx, self.me, channel, to, msg);
        }
    }

    /// Queues every block `gossip` stores above this peer's ledgers back
    /// on the validation pipeline, in height order, as [`Effects::deliver`]
    /// queued it the first time: a rebooted peer redoes the validations
    /// its crash destroyed.
    pub(super) fn requeue_stored(&mut self, gossip: &GossipPeer) {
        for i in 0..self.ledgers.len() {
            let (channel, from) = (self.ledgers[i].0, self.ledgers[i].1.height());
            let Some(store) = gossip.store_on(channel) else {
                continue;
            };
            for n in from..store.height() {
                if let Some(block) = store.get(n) {
                    self.deliver(channel, block.clone());
                }
            }
        }
    }
}

/// A compromised peer's wire: its behavior, and what the behavior may
/// see ([`AttackCtx`]).
struct Edge<'a> {
    behavior: &'a mut dyn Byzantine,
    rng: &'a mut StdRng,
    members: &'a [Vec<PeerId>],
}

/// Puts one gossip message of `from` on the simulated wire.
#[inline]
fn send_gossip(
    ctx: &mut Ctx<'_, NetMsg, NetTimer>,
    from: NodeId,
    channel: ChannelId,
    to: PeerId,
    msg: GossipMsg,
) {
    ctx.send(
        from,
        NodeId(to.0),
        NetMsg::Gossip(ChannelMsg { channel, msg }),
    );
}

impl Effects for SimFx<'_, '_> {
    fn now(&self) -> Time {
        self.ctx.now()
    }

    fn send(&mut self, channel: ChannelId, to: PeerId, msg: GossipMsg) {
        if self.edge.is_none() {
            return send_gossip(self.ctx, self.me, channel, to, msg);
        }
        self.byzantine_turn(|behavior, actx| behavior.on_outbound(actx, channel, to, msg));
    }

    fn schedule(&mut self, after: Duration, channel: ChannelId, timer: GossipTimer) {
        self.ctx
            .set_timer(self.me, after, NetTimer::Peer { channel, timer });
    }

    fn rng(&mut self) -> &mut rand::rngs::StdRng {
        self.ctx.rng()
    }

    fn deliver(&mut self, channel: ChannelId, block: BlockRef) {
        // "New blocks are only used by peers after their validation, which
        // takes a time proportional to the number of transactions" (§V-D):
        // the block's writes become visible — and the endorser starts
        // reading them — only once the serial validation pipeline has
        // chewed through it. Proposals endorsed in the meantime read the
        // pre-commit state, exactly the window that produces conflicts.
        let cost = self.params.validation_per_tx * block.txs.len() as u64;
        let now = self.ctx.now();
        let start = now.max(*self.validation_free);
        let done = start + cost;
        *self.validation_free = done;
        self.moved = Some(channel);
        self.pending_commits.push_back((channel, block));
        self.ctx
            .set_timer(self.me, done.since(now), NetTimer::CommitDone);
    }

    fn trace(&mut self, channel: ChannelId, event: ProtocolEvent) {
        let (now, me) = (self.ctx.now(), PeerId(self.me.0));
        let members = &self.members[channel.index()];
        let fact = Fact::Traced(event);
        self.recorder
            .record(self.channels, members, now, me, channel, fact);
    }

    fn snapshot_installed(
        &mut self,
        channel: ChannelId,
        snapshot: &fabric_types::snapshot::SnapshotRef,
    ) {
        self.moved = Some(channel);
        // The gossip layer verified and adopted the snapshot; if this peer
        // maintains a ledger for the channel, stand it up from the same
        // snapshot so tail blocks commit against the adopted state instead
        // of replaying the whole chain.
        let Some(entry) = self.ledgers.iter_mut().find(|(ch, _)| *ch == channel) else {
            return;
        };
        if snapshot.checkpoint.height < entry.1.height() {
            return; // the ledger already replayed past the checkpoint
        }
        let spec = &self.channels[channel.index()].spec;
        if let Ok(ledger) =
            channel_ledger(self.msp, spec, &self.params.gossip, Some(snapshot.clone()))
        {
            entry.1 = ledger;
        }
    }
}
