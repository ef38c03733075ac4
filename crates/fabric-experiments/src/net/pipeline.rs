//! What travels and how it is dispatched: the wire and timer types, the
//! [`desim::Protocol`] impl, and the client → endorse → order → deliver
//! path of the execute-order-validate pipeline.

use desim::{Ctx, Duration, NodeId, Time};
use fabric_gossip::messages::{ChannelMsg, GossipMsg, GossipTimer};
use fabric_types::block::{Block, BlockRef};
use fabric_types::ids::{ChannelId, ClientId, PeerId, TxId};
use fabric_types::transaction::Transaction;
use fabric_workload::client::endorse_invocation;

use super::FabricNet;

/// Messages on the simulated wire.
#[derive(Debug, Clone)]
pub enum NetMsg {
    /// Peer-to-peer gossip: a channel-tagged envelope.
    Gossip(ChannelMsg),
    /// Client → endorsing peer: proposal `schedule[index]`.
    Propose {
        /// Index into the experiment's invocation schedule.
        index: usize,
    },
    /// Endorsing peer → client: the signed transaction for one proposal.
    Endorsed {
        /// Index into the experiment's invocation schedule.
        index: usize,
        /// The endorsed transaction (reads taken at this endorser's state).
        tx: Box<Transaction>,
    },
    /// Client → orderer: submit for ordering on `channel`.
    Submit {
        /// The channel whose chain will batch the transaction.
        channel: ChannelId,
        /// The endorsed transaction.
        tx: Box<Transaction>,
    },
    /// Orderer → leader peer: a freshly cut block of `channel`.
    DeliverBlock {
        /// The channel the block belongs to.
        channel: ChannelId,
        /// The cut block.
        block: BlockRef,
    },
}

impl desim::Message for NetMsg {
    fn wire_size(&self) -> usize {
        // The channel tag of Submit/DeliverBlock rides inside the fixed
        // framing overhead (like the channel MAC inside ChannelMsg's
        // envelope), so wire sizes match the historical single-channel
        // pipeline byte for byte.
        match self {
            NetMsg::Gossip(g) => g.wire_size(),
            NetMsg::Propose { .. } => 320, // chaincode name, args, client cert
            NetMsg::Endorsed { tx, .. } => 48 + tx.wire_size(),
            NetMsg::Submit { tx, .. } => 48 + tx.wire_size(),
            NetMsg::DeliverBlock { block, .. } => 48 + block.wire_size(),
        }
    }

    fn kind(&self) -> &'static str {
        match self.kind_index() {
            Ok(i) => PIPELINE_KINDS[i],
            Err(g) => g.kind(),
        }
    }

    fn kind_id(&self) -> desim::KindId {
        // Cached interning: the engine records a kind id per send, so the
        // default (registry lookup per call) would put a lock on the hot
        // path.
        static IDS: std::sync::OnceLock<[desim::KindId; PIPELINE_KINDS.len()]> =
            std::sync::OnceLock::new();
        match self.kind_index() {
            Ok(i) => IDS.get_or_init(|| PIPELINE_KINDS.map(desim::KindId::intern))[i],
            Err(g) => g.kind_id(),
        }
    }
}

/// The metrics tags of the pipeline's own messages, at their
/// [`NetMsg::kind_index`].
const PIPELINE_KINDS: [&str; 4] = ["propose", "endorsed", "submit", "orderer-deliver"];

/// CPU cost of simulating + signing one endorsement.
const ENDORSE_COST: Duration = Duration::from_millis(2);

impl NetMsg {
    /// Where this message's tag sits in [`PIPELINE_KINDS`], or the gossip
    /// envelope that carries its own.
    #[inline]
    fn kind_index(&self) -> Result<usize, &ChannelMsg> {
        match self {
            NetMsg::Gossip(g) => Err(g),
            NetMsg::Propose { .. } => Ok(0),
            NetMsg::Endorsed { .. } => Ok(1),
            NetMsg::Submit { .. } => Ok(2),
            NetMsg::DeliverBlock { .. } => Ok(3),
        }
    }
}

/// Timers of the simulated network.
#[derive(Debug)]
pub enum NetTimer {
    /// A gossip timer of one peer's channel instance.
    Peer {
        /// The channel instance the timer belongs to.
        channel: ChannelId,
        /// The gossip timer payload.
        timer: GossipTimer,
    },
    /// The client's next scheduled submission is due.
    ClientIssue,
    /// The orderer's batch timeout for `epoch` on `channel`.
    BatchTimeout {
        /// The channel whose pending batch the timer guards.
        channel: ChannelId,
        /// The per-channel batch epoch (stale epochs are ignored).
        epoch: u64,
    },
    /// Consensus finished for a cut block; deliver it to `channel`'s
    /// leader(s).
    DeliverCut {
        /// The channel the block belongs to.
        channel: ChannelId,
        /// The cut block.
        block: BlockRef,
    },
    /// A peer finished validating the oldest block in its commit queue.
    CommitDone,
    /// The churn event `params.churn[index]` is due.
    Churn {
        /// Index into [`NetParams::churn`](super::NetParams::churn).
        index: usize,
    },
}

impl FabricNet {
    /// Starts the experiment: initializes every peer's timers, arms the
    /// client's first submission and every churn event. Call once through
    /// `Simulation::with_ctx`.
    pub fn start(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>) {
        for i in 0..self.peers.len() {
            let (gossip, mut fx) = self.peer_fx(ctx, NodeId(i as u32));
            gossip.init(&mut fx);
        }
        if let Some(first) = self.schedule.first() {
            let delay = first.at.since(Time::ZERO);
            ctx.set_timer(self.client_node(), delay, NetTimer::ClientIssue);
        }
        for (index, ev) in self.params.churn.iter().enumerate() {
            ctx.set_timer(
                NodeId(ev.peer.0),
                ev.at.since(Time::ZERO),
                NetTimer::Churn { index },
            );
        }
    }

    fn peer_message(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NetTimer>,
        to: NodeId,
        from: NodeId,
        envelope: ChannelMsg,
    ) {
        // Catch-up transfer accounting: recovery batches and snapshot
        // chunks addressed to a still-catching-up joiner are the bytes
        // its bootstrap costs (steady-state push/pull is not).
        if !self.catchups.is_empty() {
            let is_chunk = matches!(envelope.msg, GossipMsg::SnapshotChunk { .. });
            if is_chunk || matches!(envelope.msg, GossipMsg::RecoveryResponse { .. }) {
                use desim::Message as _;
                let peer = PeerId(to.0);
                if let Some(c) = self.catchups.iter_mut().find(|c| {
                    c.completed_at.is_none() && c.peer == peer && c.channel == envelope.channel
                }) {
                    let wire = envelope.wire_size() as u64;
                    c.bytes += wire;
                    if is_chunk {
                        c.max_msg_bytes = c.max_msg_bytes.max(wire);
                    }
                }
            }
        }
        let from = PeerId(from.0);
        let (gossip, mut fx) = self.peer_fx(ctx, to);
        fx.byzantine_turn(|behavior, actx| {
            behavior.on_inbound(actx, envelope.channel, from, &envelope.msg)
        });
        gossip.on_channel_message(&mut fx, envelope.channel, from, envelope.msg);
        self.check_catchups(to, ctx.now());
    }

    /// Hands `block` of `channel` to peer `to` as coming from the ordering
    /// service: dissemination officially starts when the contact peer
    /// receives it.
    fn hand_block(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NetTimer>,
        to: NodeId,
        channel: ChannelId,
        block: BlockRef,
    ) {
        self.channels[channel.index()]
            .latency
            .start_block(block.number(), ctx.now());
        let (gossip, mut fx) = self.peer_fx(ctx, to);
        gossip.on_block_from_orderer_on(&mut fx, channel, block);
        self.check_catchups(to, ctx.now());
    }

    /// Hands `block` to `channel`'s lowest current member, now — the
    /// scripted stand-in for the orderer's [`NetMsg::DeliverBlock`] to the
    /// leader. Nothing happens on a channel everyone left.
    pub fn inject(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NetTimer>,
        channel: ChannelId,
        block: BlockRef,
    ) {
        if let Some(lowest) = self.members[channel.index()].iter().min() {
            self.hand_block(ctx, NodeId(lowest.0), channel, block);
        }
    }

    fn handle_propose(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>, to: NodeId, index: usize) {
        let invocation = &self.schedule[index];
        let endorser = PeerId(to.0);
        let channel = invocation.channel;
        debug_assert!(
            self.channels[channel.index()]
                .spec
                .endorsers
                .contains(&endorser),
            "proposals go to the channel's endorsers"
        );
        let state = self.peers[endorser.index()]
            .ledger(channel)
            .expect("every endorser maintains a ledger for its channel")
            .state();
        let tx_id = TxId(index as u64 + 1);
        match endorse_invocation(invocation, tx_id, ClientId(0), endorser, state, &self.msp) {
            Ok(tx) => {
                ctx.occupy(to, ENDORSE_COST);
                ctx.send(
                    to,
                    self.client_node(),
                    NetMsg::Endorsed {
                        index,
                        tx: Box::new(tx),
                    },
                );
            }
            Err(_) => {
                self.endorse_failures += 1;
            }
        }
    }

    /// Collects one endorsement; once all of the channel's endorsers
    /// answered, compares the read sets (the client-side detection of
    /// §II-C) and either submits the merged proposal on the channel or
    /// discards it as a proposal-time conflict.
    fn handle_endorsed(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NetTimer>,
        index: usize,
        tx: Transaction,
    ) {
        let channel = self.schedule[index].channel;
        let wanted = self.channels[channel.index()].spec.endorsers.len();
        let entry = self.pending_endorsements.entry(index).or_default();
        entry.push(tx);
        if entry.len() < wanted {
            return;
        }
        let mut collected = self
            .pending_endorsements
            .remove(&index)
            .expect("just inserted")
            .into_iter();
        let mut merged = collected.next().expect("at least one endorsement");
        let consistent = collected.as_slice().iter().all(|t| t.rwset == merged.rwset);
        if !consistent {
            // Version numbers differ across endorsements: the client
            // detects the mismatch, wastes the round trip, and must try
            // again later (not modeled — the paper's experiment does not
            // resubmit either).
            self.proposal_conflicts += 1;
            return;
        }
        // Identical read/write sets mean identical digests: merge every
        // endorser's signature into the first proposal, in order. The
        // transaction lives as long as its block, and its endorsement list
        // (an `InlineOne`) is exact by its type: one endorsement stays
        // inline, more take a slice of exactly their number.
        for other in collected {
            merged.endorsements.extend(other.endorsements);
        }
        ctx.send(
            self.client_node(),
            self.orderer_node(),
            NetMsg::Submit {
                channel,
                tx: Box::new(merged),
            },
        );
    }

    fn handle_submit(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NetTimer>,
        channel: ChannelId,
        tx: Transaction,
    ) {
        let outcome = self.orderer.submit_on(channel, tx);
        if let Some(epoch) = outcome.arm_timer {
            let timeout = self.orderer.batch_timeout();
            ctx.set_timer(
                self.orderer_node(),
                timeout,
                NetTimer::BatchTimeout { channel, epoch },
            );
        }
        for block in outcome.blocks {
            self.schedule_consensus(ctx, channel, block);
        }
    }

    fn schedule_consensus(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NetTimer>,
        channel: ChannelId,
        block: Block,
    ) {
        let delay = self.params.orderer.consensus_delay.sample(ctx.rng());
        ctx.set_timer(
            self.orderer_node(),
            delay,
            NetTimer::DeliverCut {
                channel,
                block: BlockRef::new(block),
            },
        );
    }

    fn deliver_cut(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NetTimer>,
        channel: ChannelId,
        block: BlockRef,
    ) {
        let rt = &self.channels[channel.index()];
        // One delivery per organization, to that organization's leader(s)
        // among the channel's current members.
        let leaders: Vec<NodeId> = self.members[channel.index()]
            .iter()
            .filter(|m| {
                self.peers[m.index()].gossip.is_leader_on(channel) && ctx.net().is_up(NodeId(m.0))
            })
            .map(|m| NodeId(m.0))
            .collect();
        let orgs_covered: std::collections::BTreeSet<usize> = leaders
            .iter()
            .filter_map(|n| rt.org_of[n.index()])
            .collect();
        if orgs_covered.len() < rt.spec.orgs {
            // Some organization has no live leader (a seat in hand-off, or
            // a static leader down until its reboot): retry shortly, like a
            // leader re-connecting to the ordering service would.
            // Re-delivery to covered organizations is harmless — peers
            // deduplicate content.
            ctx.set_timer(
                self.orderer_node(),
                Duration::from_millis(500),
                NetTimer::DeliverCut {
                    channel,
                    block: block.clone(),
                },
            );
        }
        for leader in leaders {
            ctx.send(
                self.orderer_node(),
                leader,
                NetMsg::DeliverBlock {
                    channel,
                    block: block.clone(),
                },
            );
        }
    }

    fn issue_due(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>) {
        let now = ctx.now();
        while self.next_invocation < self.schedule.len()
            && self.schedule[self.next_invocation].at <= now
        {
            let index = self.next_invocation;
            let channel = self.schedule[index].channel;
            self.next_invocation += 1;
            self.issued += 1;
            for endorser in &self.channels[channel.index()].spec.endorsers {
                ctx.send(
                    self.client_node(),
                    NodeId(endorser.0),
                    NetMsg::Propose { index },
                );
            }
        }
        if self.next_invocation < self.schedule.len() {
            let next_at = self.schedule[self.next_invocation].at;
            ctx.set_timer(
                self.client_node(),
                next_at.since(now),
                NetTimer::ClientIssue,
            );
        }
    }
}

impl desim::Protocol for FabricNet {
    type Msg = NetMsg;
    type Timer = NetTimer;

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, NetMsg, NetTimer>,
        to: NodeId,
        from: NodeId,
        msg: NetMsg,
    ) {
        match msg {
            NetMsg::Gossip(g) => self.peer_message(ctx, to, from, g),
            NetMsg::DeliverBlock { channel, block } => self.hand_block(ctx, to, channel, block),
            NetMsg::Propose { index } => self.handle_propose(ctx, to, index),
            NetMsg::Endorsed { index, tx } => {
                debug_assert_eq!(to, self.client_node());
                self.handle_endorsed(ctx, index, *tx);
            }
            NetMsg::Submit { channel, tx } => {
                debug_assert_eq!(to, self.orderer_node());
                self.handle_submit(ctx, channel, *tx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>, node: NodeId, timer: NetTimer) {
        match timer {
            NetTimer::Peer { channel, timer } => {
                let (gossip, mut fx) = self.peer_fx(ctx, node);
                gossip.on_channel_timer(&mut fx, channel, timer);
                fx.byzantine_turn(|behavior, actx| behavior.on_step(actx));
                self.check_catchups(node, ctx.now());
            }
            NetTimer::ClientIssue => self.issue_due(ctx),
            NetTimer::BatchTimeout { channel, epoch } => {
                if let Some(block) = self.orderer.on_batch_timeout_on(channel, epoch) {
                    self.schedule_consensus(ctx, channel, block);
                }
            }
            NetTimer::DeliverCut { channel, block } => self.deliver_cut(ctx, channel, block),
            NetTimer::CommitDone => {
                let peer = &mut self.peers[node.index()];
                let Some((channel, block)) = peer.pending_commits.pop_front() else {
                    return;
                };
                if let Some(ledger) = peer.ledger_mut(channel) {
                    if block.number() < ledger.height() {
                        // Absorbed by a snapshot installed while the block
                        // sat in the validation queue — its writes are
                        // already part of the adopted state.
                        return;
                    }
                    if ledger.commit(block).is_err() {
                        peer.commit_errors += 1;
                    }
                    // A commit landing on a checkpoint boundary refreshes
                    // the ledger's snapshot; hand it to gossip so this
                    // peer can serve joiners (freshness-gated, so the
                    // off-boundary case is a cheap height compare).
                    if let Some(snapshot) = peer.ledger(channel).and_then(|l| l.snapshot()) {
                        peer.gossip.publish_snapshot_on(channel, snapshot);
                    }
                }
                *peer.committed.entry(channel).or_insert(0) += 1;
            }
            NetTimer::Churn { index } => self.apply_churn(ctx, self.params.churn[index].clone()),
        }
    }

    fn on_node_status(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>, node: NodeId, up: bool) {
        if node.index() >= self.peers.len() {
            return;
        }
        if !up {
            self.on_node_down(ctx.now(), node);
            return;
        }
        // A rebooted peer re-arms its periodic timers (its old ones died
        // with it — the engine drops timers of down nodes) and re-validates
        // any stored blocks whose in-flight validation the crash destroyed.
        let (gossip, mut fx) = self.peer_fx(ctx, node);
        fx.requeue_stored(gossip);
        gossip.init(&mut fx);
    }
}
