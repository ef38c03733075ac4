//! Per-channel protocol state: the shared core and the engine bundle.
//!
//! A Fabric peer joined to several channels runs one independent gossip
//! instance per channel. [`ChannelState`] is that instance: it owns the
//! [`ChannelCore`] (membership views, block store, per-channel counters),
//! the protocol engines — [`crate::push::PushEngine`],
//! [`crate::pull::PullEngine`], [`crate::recovery::RecoveryEngine`] and
//! [`crate::discovery::DiscoveryEngine`] — and the leader seat, and
//! dispatches messages and timers to them. [`crate::peer::GossipPeer`]
//! is nothing more than a multiplexer over these values.
//!
//! Who leads follows the membership shape
//! ([`crate::config::DiscoveryConfig`]). On a static roster the roster
//! minimum leads for the whole run — a reboot takes the seat back, and
//! nobody else ever takes it (Fabric's `orgLeader`). Under gossiped
//! discovery the most senior live claim leads
//! ([`DiscoveryEngine::self_is_most_senior`]), re-enforced on every
//! discovery step: that is the failover path. The seat is the
//! organization's deliver client: it seeks the ordering service from its
//! store height when taken, and again when a recovery round finds the
//! height where the last one left it ([`Effects::seek`]).

use desim::{Duration, KindBytes, Message as _};
use rand::RngExt;

use fabric_types::block::BlockRef;
use fabric_types::ids::{ChannelId, PeerId};

use crate::config::GossipConfig;
use crate::discovery::{DiscoveryDelta, DiscoveryEngine};
use crate::effects::{Effects, ProtocolEvent};
use crate::membership::Membership;
use crate::messages::{GossipMsg, GossipTimer};
use crate::pull::PullEngine;
use crate::push::PushEngine;
use crate::recovery::RecoveryEngine;
use crate::store::BlockStore;

/// Counters exposed for experiments and tests, kept **per channel**.
///
/// A peer joined to several channels owns one `PeerStats` per channel; a
/// peer-wide figure is the sum of its channels' rows. Sent messages are
/// counted by [`ChannelCore::send`] alone.
#[derive(Debug, Clone, Default)]
pub struct PeerStats {
    /// How many blocks arrived for the first time. When each arrived is
    /// the host's one record ([`ProtocolEvent::Received`]).
    pub first_seen: FirstSeen,
    /// Content receptions for blocks already held.
    pub duplicate_blocks: u64,
    /// Push digests received.
    pub digests_received: u64,
    /// Full blocks sent (push, pull and recovery responses).
    pub blocks_sent: u64,
    /// Push digests sent.
    pub digests_sent: u64,
    /// Push content fetch requests sent.
    pub fetch_requests: u64,
    /// Pull rounds initiated.
    pub pull_rounds: u64,
    /// Snapshot requests sent (snapshot bootstrap).
    pub snapshot_requests: u64,
    /// Snapshots served to other peers.
    pub snapshots_served: u64,
    /// Snapshots verified and installed locally.
    pub snapshots_installed: u64,
    /// Distinct snapshot chunks absorbed into an assembly (duplicates and
    /// foreign-checkpoint chunks excluded).
    pub snapshot_chunks_received: u64,
    /// Snapshot transfers re-requested after an in-flight timeout — the
    /// server crashed, the response was lost, or the floor was pruned.
    pub snapshot_resumes: u64,
    /// Block payloads rejected because the data hash did not match the
    /// transactions ([`BlockRef::data_intact`]) — a tampered or
    /// equivocated payload, never honest traffic.
    pub invalid_payloads: u64,
    /// Block payloads rejected because a *different* block already occupies
    /// the same height ([`BlockStore::conflicts_with`]) — equivocation
    /// between otherwise self-consistent payloads. Honest duplicates are
    /// counted under `duplicate_blocks` instead.
    pub equivocations_rejected: u64,
    /// Bytes put on the wire by this channel instance, per message kind
    /// (the metrics tags of [`GossipMsg::kind`]), indexed by interned
    /// [`desim::KindId`] — a dense array add per send instead of the
    /// seed's string-keyed `BTreeMap` walk. Dissemination fairness is
    /// judged on this breakdown.
    pub bytes_sent_by_kind: KindBytes,
}

impl PeerStats {
    /// Total bytes sent across every message kind.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent_by_kind.total()
    }

    /// Bytes sent for one message kind (0 when the kind never occurred).
    pub fn bytes_of_kind(&self, kind: &str) -> u64 {
        self.bytes_sent_by_kind.get_named(kind)
    }
}

/// How many blocks have arrived for the first time: a count, not a table.
#[derive(Debug, Clone, Copy, Default)]
pub struct FirstSeen(u64);

impl FirstSeen {
    /// Blocks with a first reception.
    pub fn len(&self) -> usize {
        self.0 as usize
    }

    /// `true` when no block has arrived.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }
}

/// State shared by every engine of one channel instance: identity,
/// configuration, membership views, the block store and the counters.
///
/// Engines receive `&mut ChannelCore` alongside their own private state, so
/// each engine file reads as pure protocol logic over an explicit, shared
/// substrate — and each is unit-testable with a bare core plus
/// [`crate::testing::MockEffects`].
#[derive(Debug)]
pub struct ChannelCore {
    /// The channel this instance serves.
    pub channel: ChannelId,
    /// The local peer.
    pub self_id: PeerId,
    /// The active configuration.
    pub cfg: GossipConfig,
    /// Whether the organization roster passed at join time listed this
    /// peer (a runtime joiner under discovery lists itself): discovery
    /// tells a member from an observer by it, once per life.
    pub(crate) listed: bool,
    /// Whether this peer statically leads that roster (the rule of
    /// [`crate::peer::GossipPeer::new`]): its seat at the start, and on a
    /// static roster for the whole run.
    pub(crate) static_seat: bool,
    /// Same-organization peers: the only legal targets for push and pull.
    pub membership: Membership,
    /// All channel peers (every organization) when they differ from
    /// `membership`; `None` when the channel is one organization and the
    /// two views are one. Read through [`ChannelCore::channel_view`].
    wide: Option<Membership>,
    /// Whether this peer forwards blocks (false models a free-rider).
    pub forwarding: bool,
    /// The channel's block store.
    pub store: BlockStore,
    /// The latest snapshot this peer can serve: published by the embedding
    /// when its ledger checkpoints ([`crate::peer::GossipPeer::
    /// publish_snapshot_on`]) or installed from a completed
    /// [`GossipMsg::SnapshotChunk`] transfer. `None` unless snapshot
    /// bootstrap produced one.
    pub snapshot: Option<fabric_types::snapshot::SnapshotRef>,
    /// Per-channel protocol counters.
    pub stats: PeerStats,
}

impl ChannelCore {
    /// Builds the core for `self_id` on `channel` over the organization
    /// roster `org` and the channel roster `wide` (self listed or not in
    /// either). Equal rosters build one view, which serves as both. `cfg`
    /// is the caller's to validate.
    pub(crate) fn new(
        channel: ChannelId,
        self_id: PeerId,
        org: &[PeerId],
        wide: &[PeerId],
        cfg: GossipConfig,
    ) -> Self {
        ChannelCore {
            channel,
            self_id,
            cfg,
            listed: org.contains(&self_id),
            // The lowest-id *member* leads, and a peer alone: a roster
            // excluding `self_id` has a smaller minimum or only larger ids.
            static_seat: org.iter().min().is_none_or(|&lowest| lowest == self_id),
            membership: Membership::new(self_id, org),
            wide: (wide != org).then(|| Membership::new(self_id, wide)),
            forwarding: true,
            store: BlockStore::new(),
            snapshot: None,
            stats: PeerStats::default(),
        }
    }

    /// All channel peers (every organization): StateInfo and recovery may
    /// cross organization boundaries (§III of the paper).
    pub fn channel_view(&self) -> &Membership {
        self.wide.as_ref().unwrap_or(&self.membership)
    }

    /// Sends `msg` to `to` on this core's channel and counts it in
    /// [`PeerStats`] (blocks, digests, requests, bytes per kind). Every
    /// engine send goes through here; a Byzantine injection does not.
    pub fn send(&mut self, fx: &mut dyn Effects, to: PeerId, msg: GossipMsg) {
        match &msg {
            GossipMsg::BlockPush { .. } => self.stats.blocks_sent += 1,
            GossipMsg::PullResponse { blocks, .. } | GossipMsg::RecoveryResponse { blocks } => {
                self.stats.blocks_sent += blocks.len() as u64;
            }
            GossipMsg::PushDigest { .. } => self.stats.digests_sent += 1,
            GossipMsg::PushRequest { .. } => self.stats.fetch_requests += 1,
            GossipMsg::SnapshotRequest { .. } => self.stats.snapshot_requests += 1,
            _ => {}
        }
        self.stats
            .bytes_sent_by_kind
            .add(msg.kind_id(), msg.wire_size() as u64);
        fx.send(self.channel, to, msg);
    }

    /// Arms `timer` on this core's channel.
    pub fn schedule(&mut self, fx: &mut dyn Effects, after: Duration, timer: GossipTimer) {
        fx.schedule(after, self.channel, timer);
    }

    /// Stores new content, fires the reception hook and delivers any newly
    /// contiguous run. Returns whether the content was new. Common to every
    /// arrival path (push, pull, recovery).
    ///
    /// Hash verification gates the store: a payload whose data hash does
    /// not cover its transactions is forged or corrupted (a real peer
    /// verifies the orderer's signature over the header; here the header
    /// is the trusted part), and a self-consistent payload conflicting
    /// with the block already held at its height is equivocation. Both are
    /// rejected and counted — honest traffic never trips either check.
    ///
    /// Both checks read what [`BlockRef::new`] sealed into the handle, so a
    /// block is hashed once per distinct payload however many copies of it
    /// the epidemic delivers; a doctored payload is a different handle and
    /// carries its own (failing) verdict.
    pub fn accept_content(&mut self, fx: &mut dyn Effects, block: &BlockRef) -> bool {
        if !block.data_intact() {
            self.stats.invalid_payloads += 1;
            return false;
        }
        if self.store.conflicts_with(block) {
            self.stats.equivocations_rejected += 1;
            return false;
        }
        match self.store.insert(block.clone()) {
            None => {
                self.stats.duplicate_blocks += 1;
                false
            }
            Some(deliverable) => {
                let num = block.number();
                self.stats.first_seen.0 += 1;
                fx.trace(self.channel, ProtocolEvent::Received(num));
                for b in deliverable {
                    fx.deliver(self.channel, b);
                }
                true
            }
        }
    }
}

/// One channel's complete gossip instance: core + engines + leader seat.
#[derive(Debug)]
pub struct ChannelState {
    core: ChannelCore,
    /// Whether this instance leads its organization — pulls blocks from
    /// the ordering service. Moved only by [`ChannelState::set_leader`]
    /// (and silently cleared by a crash).
    is_leader: bool,
    /// The store's height at the last recovery round: a seat whose height
    /// stood still from one round to the next seeks again.
    round_height: u64,
    push: PushEngine,
    pull: PullEngine,
    recovery: RecoveryEngine,
    discovery: DiscoveryEngine,
}

impl ChannelState {
    /// Builds the instance over its finished core, seated when this peer
    /// statically leads; each engine is built once, spanning its view.
    pub(crate) fn new(core: ChannelCore) -> Self {
        ChannelState {
            is_leader: core.static_seat,
            round_height: 0,
            push: PushEngine::default(),
            pull: PullEngine::default(),
            recovery: RecoveryEngine::new(&core),
            discovery: DiscoveryEngine::new(&core),
            core,
        }
    }

    /// The discovery engine's state (claims, obituaries, incarnation) —
    /// read-only, for tests and embeddings that inspect convergence.
    pub fn discovery(&self) -> &DiscoveryEngine {
        &self.discovery
    }

    /// The shared core (membership views, store, counters).
    pub fn core(&self) -> &ChannelCore {
        &self.core
    }

    /// Mutable access to the shared core (free-rider toggling, a runtime
    /// joiner listing itself — the multiplexer's paths).
    pub fn core_mut(&mut self) -> &mut ChannelCore {
        &mut self.core
    }

    /// Whether this channel instance currently acts as organization leader.
    pub fn is_leader(&self) -> bool {
        self.is_leader
    }

    /// Moves the seat, tracing an actual change (and only that) as
    /// [`ProtocolEvent::Seat`]. A seat gained seeks the ordering service.
    fn set_leader(&mut self, fx: &mut dyn Effects, leads: bool) {
        if self.is_leader != leads {
            self.is_leader = leads;
            fx.trace(self.core.channel, ProtocolEvent::Seat(leads));
            if leads {
                self.seek(fx);
            }
        }
    }

    /// Asks the ordering service for every block from the store's height
    /// on ([`Effects::seek`]).
    fn seek(&self, fx: &mut dyn Effects) {
        fx.seek(self.core.channel, self.core.store.height());
    }

    /// Arms the periodic timers of this channel instance. Periods get a
    /// uniformly random initial phase so rounds de-synchronize across
    /// peers, as in a real deployment.
    pub fn init(&mut self, fx: &mut dyn Effects) {
        // A start in the seat seeks at once; a seat taken later seeks as
        // it is taken.
        if self.is_leader {
            self.seek(fx);
        }
        if let Some(pull) = &self.core.cfg.pull {
            let phase = random_phase(fx, pull.tpull);
            self.core.schedule(fx, phase, GossipTimer::PullRound);
        }
        let recovery_phase = random_phase(fx, self.core.cfg.recovery.interval);
        self.core
            .schedule(fx, recovery_phase, GossipTimer::RecoveryRound);
        let si_phase = random_phase(fx, self.core.cfg.recovery.state_info_interval);
        self.core
            .schedule(fx, si_phase, GossipTimer::StateInfoRound);
        if self.core.cfg.discovery.protocol {
            // Protocol discovery subsumes the static roster's alive
            // traffic: its heartbeats both announce this peer (the only
            // way a runtime joiner's join propagates) and keep liveness
            // fresh.
            self.discovery.init(&mut self.core, fx);
        } else {
            // A static seat is held for the whole run: a rebooted roster
            // minimum takes back the seat its crash cleared (silent on a
            // first start, where nothing changes).
            let seat = self.core.static_seat;
            self.set_leader(fx, seat);
            let alive_phase = random_phase(fx, self.core.cfg.membership.alive_interval);
            self.core.schedule(fx, alive_phase, GossipTimer::AliveRound);
        }
    }

    /// Models a process crash: volatile state — leadership, push buffers,
    /// fetches in flight, pull bookkeeping, discovery's claims — is lost.
    /// The block store survives (blocks are persisted through the ledger).
    pub fn on_crash(&mut self) {
        self.push.clear_volatile();
        self.pull.clear_volatile();
        self.is_leader = false;
        self.round_height = 0;
        self.recovery.clear_volatile();
        self.discovery.clear_volatile();
    }

    /// Entry point for a block delivered by the ordering service (the
    /// leader's path, or any peer an orderer chooses to seed).
    pub fn on_block_from_orderer(&mut self, fx: &mut dyn Effects, block: BlockRef) {
        self.push.on_block_from_orderer(&mut self.core, fx, block);
    }

    /// Entry point for every gossip message on this channel.
    pub fn on_message(&mut self, fx: &mut dyn Effects, from: PeerId, msg: GossipMsg) {
        self.discovery.heard_from(from, fx.now());
        match msg {
            GossipMsg::BlockPush { block, counter } => {
                self.push
                    .on_block_push(&mut self.core, fx, from, block, counter)
            }
            GossipMsg::PushDigest { block_num, counter } => {
                self.push
                    .on_push_digest(&mut self.core, fx, from, block_num, counter)
            }
            GossipMsg::PushRequest { block_num, counter } => {
                self.push
                    .on_push_request(&mut self.core, fx, from, block_num, counter)
            }
            GossipMsg::PullHello { nonce } => self.pull.on_hello(&mut self.core, fx, from, nonce),
            GossipMsg::PullDigestResponse { nonce, top, held } => {
                self.pull
                    .on_digest_response(&mut self.core, from, nonce, top, held)
            }
            GossipMsg::PullRequest { nonce, block_nums } => {
                self.pull
                    .on_request(&mut self.core, fx, from, nonce, block_nums)
            }
            GossipMsg::PullResponse { nonce: _, blocks } => {
                self.pull.on_response(&mut self.core, fx, blocks)
            }
            GossipMsg::StateInfo { height, checkpoint } => self
                .recovery
                .on_state_info(&self.core, from, height, checkpoint),
            GossipMsg::RecoveryRequest { from: lo, to } => {
                self.recovery
                    .on_recovery_request(&mut self.core, fx, from, lo, to)
            }
            GossipMsg::RecoveryResponse { blocks } => {
                for block in blocks {
                    self.core.accept_content(fx, &block);
                }
            }
            GossipMsg::SnapshotRequest { height, from_chunk } => {
                self.recovery
                    .on_snapshot_request(&mut self.core, fx, from, height, from_chunk)
            }
            GossipMsg::SnapshotChunk { chunk } => {
                self.recovery
                    .on_snapshot_chunk(&mut self.core, fx, from, chunk);
                // If that installed a snapshot, the push state about the
                // blocks it absorbed leaves with their store rows.
                self.push.release_through(self.core.store.snapshot_floor());
            }
            // Background load: nothing reads its receipt.
            GossipMsg::Alive => {}
            // A static roster never started its discovery engine: its
            // traffic is dropped, as `Alive` is.
            GossipMsg::AliveMsg(_)
            | GossipMsg::MembershipRequest { .. }
            | GossipMsg::MembershipResponse { .. }
                if !self.core.cfg.discovery.protocol => {}
            GossipMsg::AliveMsg(claim) => {
                let delta = self.discovery.on_alive(&mut self.core, fx, claim);
                self.apply_discovery(fx, delta);
            }
            GossipMsg::MembershipRequest { entries, dead } => {
                let delta =
                    self.discovery
                        .on_membership_request(&mut self.core, fx, from, entries, dead);
                self.apply_discovery(fx, delta);
            }
            GossipMsg::MembershipResponse { entries, dead } => {
                let delta =
                    self.discovery
                        .on_membership_response(&mut self.core, fx, entries, dead);
                self.apply_discovery(fx, delta);
            }
        }
    }

    /// Entry point for every timer armed through [`Effects::schedule`] on
    /// this channel.
    pub fn on_timer(&mut self, fx: &mut dyn Effects, timer: GossipTimer) {
        match timer {
            GossipTimer::PushFlush => self.push.on_flush(&mut self.core, fx),
            GossipTimer::PullRound => self.pull.on_round(&mut self.core, fx),
            GossipTimer::PullDigestWait { nonce } => {
                self.pull.on_digest_wait(&mut self.core, fx, nonce)
            }
            GossipTimer::RecoveryRound => {
                self.recovery.on_recovery_round(&mut self.core, fx);
                // No block for a whole round: what the ordering service
                // sent was lost, or never sent. The seat asks again.
                let height = self.core.store.height();
                if std::mem::replace(&mut self.round_height, height) == height && self.is_leader {
                    self.seek(fx);
                }
            }
            GossipTimer::StateInfoRound => self.recovery.on_state_info_round(&mut self.core, fx),
            GossipTimer::AliveRound => self.on_alive_round(fx),
            GossipTimer::DiscoveryRound => {
                let delta = self.discovery.on_round(&mut self.core, fx);
                self.apply_discovery(fx, delta);
            }
            GossipTimer::AntiEntropyRound => {
                self.discovery.on_anti_entropy_round(&mut self.core, fx)
            }
            GossipTimer::FetchRetry { block_num, attempt } => {
                self.push
                    .on_fetch_retry(&mut self.core, fx, block_num, attempt)
            }
        }
    }

    /// `(rows allocated, rows held)` of every table this instance keys by
    /// block number (the store, push's dedup memory and fetches, the pull
    /// round's offers), for the bound checks of the wire tests.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> [(usize, usize); 4] {
        let [seen, pending] = self.push.tables();
        [self.core.store.table(), seen, pending, self.pull.table()]
    }

    /// `(dense slots, spilled rows, rows)` of every table this instance
    /// keys by peer — discovery's claims and obituaries, recovery's
    /// heights and checkpoints — for the bound checks of the wire tests.
    #[cfg(test)]
    pub(crate) fn peer_tables(&self) -> [(usize, usize, usize); 4] {
        let [claims, obituaries] = self.discovery.tables();
        let [heights, checkpoints] = self.recovery.tables();
        [claims, obituaries, heights, checkpoints]
    }

    /// Whether each of those tables holds its dense array, in the same
    /// order.
    #[cfg(test)]
    pub(crate) fn dense_peer_tables(&self) -> [bool; 4] {
        let [claims, obituaries] = self.discovery.dense_allocated();
        let [heights, checkpoints] = self.recovery.dense_allocated();
        [claims, obituaries, heights, checkpoints]
    }

    /// Applies the membership consequences of one discovery step: joins
    /// and reaps edit both views (one edit when they are one) — membership
    /// changes are a *consequence of received gossip*, never of a
    /// callback — and each one is traced as a [`ProtocolEvent::View`] so
    /// the embedding can measure convergence.
    fn apply_discovery(&mut self, fx: &mut dyn Effects, delta: DiscoveryDelta) {
        let view = |peer, joined| ProtocolEvent::View { peer, joined };
        for peer in delta.joined {
            // Sampleable at once (a renewal is already in both views);
            // its reap deadline is discovery's, counted from the claim
            // just merged. Leadership follows seniority, so a newcomer
            // with a lower id does not depose a seated leader (Fabric's
            // `orgLeader` semantics).
            self.core.membership.add_peer(peer);
            if let Some(wide) = &mut self.core.wide {
                wide.add_peer(peer);
            }
            fx.trace(self.core.channel, view(peer, true));
        }
        for peer in &delta.left {
            let peer = *peer;
            if peer == self.core.self_id {
                continue;
            }
            self.core.membership.remove_peer(peer);
            if let Some(wide) = &mut self.core.wide {
                wide.remove_peer(peer);
            }
            self.recovery.forget_peer(peer);
            fx.trace(self.core.channel, view(peer, false));
        }
        // Re-enforce `is_leader == most-senior-in-view` on every discovery
        // step: reaps arrive in different orders on different peers, but
        // eventually-consistent views drive leadership to exactly one
        // claimant (the senior survivor claims within one alive period of
        // reaping its predecessor, stale claimants step down).
        let senior = self.discovery.self_is_most_senior(&self.core);
        self.set_leader(fx, senior);
    }

    /// Static-roster heartbeats: the background "alive" traffic of the
    /// paper's deployment, load only. Small enough to live on the
    /// dispatcher.
    fn on_alive_round(&mut self, fx: &mut dyn Effects) {
        let targets = {
            let k = self.core.cfg.fout;
            self.core.membership.sample(fx.rng(), k)
        };
        for t in targets {
            self.core.send(fx, t, GossipMsg::Alive);
        }
        let interval = self.core.cfg.membership.alive_interval;
        self.core.schedule(fx, interval, GossipTimer::AliveRound);
    }
}

/// Uniform random phase in `[0, period)`, so periodic rounds interleave
/// across peers instead of firing in lockstep.
pub(crate) fn random_phase(fx: &mut dyn Effects, period: Duration) -> Duration {
    if period.is_zero() {
        return Duration::ZERO;
    }
    Duration::from_nanos(fx.rng().random_range(0..period.as_nanos()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::PeerAlive;
    use crate::testing::MockEffects;
    use fabric_types::block::Block;

    #[test]
    fn core_send_accounts_bytes_per_kind() {
        let roster: Vec<_> = (0..4).map(PeerId).collect();
        let cfg = GossipConfig::enhanced_f4();
        let mut core = ChannelCore::new(ChannelId(3), PeerId(0), &roster, &roster, cfg);
        let mut fx = MockEffects::new(1);
        core.send(&mut fx, PeerId(1), GossipMsg::Alive);
        core.send(
            &mut fx,
            PeerId(2),
            GossipMsg::PushDigest {
                block_num: 1,
                counter: 0,
            },
        );
        assert_eq!(core.stats.bytes_of_kind("alive"), 150);
        assert!(core.stats.bytes_of_kind("push-digest") > 0);
        assert_eq!(fx.sent_on.len(), 2);
        assert!(fx.sent_on.iter().all(|(ch, _, _)| *ch == ChannelId(3)));
    }

    /// Peer `self_id` of the one-organization `roster`, not yet started.
    fn state(self_id: u32, roster: std::ops::Range<u32>, cfg: GossipConfig) -> ChannelState {
        let roster: Vec<_> = roster.map(PeerId).collect();
        let core = ChannelCore::new(ChannelId::DEFAULT, PeerId(self_id), &roster, &roster, cfg);
        ChannelState::new(core)
    }

    #[test]
    fn trace_dead_list_reap_comes_before_the_successors_seat() {
        // Peer 1 in a {0, 1, 2, 3} roster under discovery: peer 0 leads.
        let cfg = GossipConfig::enhanced_f4().with_discovery_protocol();
        let mut s = state(1, 0..4, cfg);
        let mut fx = MockEffects::new(1);
        s.init(&mut fx);
        assert!(!s.is_leader());
        let claim = |peer, incarnation, seq| PeerAlive {
            peer: PeerId(peer),
            incarnation,
            seq,
        };
        let obituary = |dead| GossipMsg::MembershipResponse {
            entries: vec![],
            dead: vec![dead],
        };
        // A discovery step that leaves the verdict where it was is silent.
        s.on_message(&mut fx, PeerId(2), GossipMsg::AliveMsg(claim(2, 1, 1)));
        assert!(fx.traced.is_empty(), "an unchanged verdict is silent");
        // Peer 0 is reaped: this peer is the most senior survivor.
        s.on_message(&mut fx, PeerId(2), obituary(claim(0, 1, 1)));
        assert!(s.is_leader(), "the senior survivor must claim leadership");
        // Its own obituary, even at the top of the order, changes nothing.
        let life = s.discovery().incarnation();
        s.on_message(&mut fx, PeerId(2), obituary(claim(1, u64::MAX, u64::MAX)));
        assert!(s.is_leader(), "an obituary about self moved the seat");
        assert_eq!(s.discovery().incarnation(), life);
        // Peer 0's next heartbeat undoes its reap in the same life, and the
        // seat goes back to it.
        s.on_message(&mut fx, PeerId(0), GossipMsg::AliveMsg(claim(0, 1, 2)));
        assert!(s.core().membership.contains(PeerId(0)));
        assert!(!s.is_leader(), "the falsely reaped leader is senior again");
        // One log: each reap or admission comes before the seat it moves.
        let peer = PeerId(0);
        let view = |joined| (ChannelId::DEFAULT, ProtocolEvent::View { peer, joined });
        let seat = |leads| (ChannelId::DEFAULT, ProtocolEvent::Seat(leads));
        let log = [view(false), seat(true), view(true), seat(false)];
        assert_eq!(fx.traced, log);
    }

    #[test]
    fn trace_a_rebooted_static_leader_takes_its_seat_back() {
        let mut fx = MockEffects::new(1);
        let mut leader = state(0, 0..4, GossipConfig::enhanced_f4());
        leader.init(&mut fx);
        assert!(leader.is_leader());
        assert!(fx.traced.is_empty(), "a first start changes nothing");
        leader.on_crash();
        assert!(!leader.is_leader(), "leadership is volatile");
        leader.init(&mut fx);
        assert!(leader.is_leader(), "the reboot re-seeds the static seat");
        let seated = [(ChannelId::DEFAULT, ProtocolEvent::Seat(true))];
        assert_eq!(fx.traced, seated);
        // Nobody else ever takes a static seat, through a reboot or not.
        let mut follower = state(1, 0..4, GossipConfig::enhanced_f4());
        follower.on_crash();
        follower.init(&mut fx);
        assert!(!follower.is_leader());
        assert_eq!(fx.traced, seated);
    }

    /// Block `num` of an unlinked test chain, as an arrival.
    fn arrive(s: &mut ChannelState, fx: &mut MockEffects, num: u64) {
        let block = Block::new(num, fabric_types::crypto::Hash256::ZERO, vec![]);
        assert!(s.core_mut().accept_content(fx, &BlockRef::new(block)));
    }

    #[test]
    fn leaders_seek_at_start_and_on_a_reboot() {
        let mut fx = MockEffects::new(1);
        let mut leader = state(0, 0..4, GossipConfig::enhanced_f4());
        leader.init(&mut fx);
        assert_eq!(fx.sought, [(ChannelId::DEFAULT, 1)], "a seated start");
        arrive(&mut leader, &mut fx, 1);
        leader.on_crash();
        leader.init(&mut fx);
        // Once, from the height the crash kept: the seat taken back seeks,
        // and the start does not seek again.
        assert_eq!(
            fx.sought,
            [(ChannelId::DEFAULT, 1), (ChannelId::DEFAULT, 2)]
        );
        let mut follower = state(1, 0..4, GossipConfig::enhanced_f4());
        follower.init(&mut fx);
        assert_eq!(fx.sought.len(), 2, "a follower never seeks");
    }

    #[test]
    fn leaders_seek_when_they_take_the_seat() {
        let cfg = GossipConfig::enhanced_f4().with_discovery_protocol();
        let mut s = state(1, 0..4, cfg);
        let mut fx = MockEffects::new(1);
        s.init(&mut fx);
        arrive(&mut s, &mut fx, 1);
        assert!(fx.sought.is_empty());
        let dead = PeerAlive {
            peer: PeerId(0),
            incarnation: 1,
            seq: 1,
        };
        let obituary = GossipMsg::MembershipResponse {
            entries: vec![],
            dead: vec![dead],
        };
        s.on_message(&mut fx, PeerId(2), obituary);
        assert!(s.is_leader());
        assert_eq!(fx.sought, [(ChannelId::DEFAULT, 2)], "the successor seeks");
    }

    #[test]
    fn leaders_seek_again_when_a_round_finds_the_height_unmoved() {
        let mut fx = MockEffects::new(1);
        let mut leader = state(0, 0..4, GossipConfig::enhanced_f4());
        let mut follower = state(1, 0..4, GossipConfig::enhanced_f4());
        leader.init(&mut fx);
        follower.init(&mut fx);
        let round = |s: &mut ChannelState, fx: &mut MockEffects| {
            s.on_timer(fx, GossipTimer::RecoveryRound);
            fx.sought.len()
        };
        // The first round only notes the height; the next finds it there.
        assert_eq!(round(&mut leader, &mut fx), 1);
        assert_eq!(round(&mut leader, &mut fx), 2);
        assert_eq!(fx.sought[1], (ChannelId::DEFAULT, 1));
        // A block in between: the height moved, nothing to ask for.
        arrive(&mut leader, &mut fx, 1);
        assert_eq!(round(&mut leader, &mut fx), 2);
        assert_eq!(round(&mut leader, &mut fx), 3);
        assert_eq!(fx.sought[2], (ChannelId::DEFAULT, 2));
        for _ in 0..3 {
            assert_eq!(round(&mut follower, &mut fx), 3, "a follower never seeks");
        }
    }

    /// A `MockEffects` that also writes each trace and delivery, in call
    /// order, to one log, so a test sees their order inside one call.
    struct OneLog(MockEffects, Vec<String>);

    impl Effects for OneLog {
        fn now(&self) -> desim::Time {
            self.0.now()
        }
        fn send(&mut self, channel: ChannelId, to: PeerId, msg: GossipMsg) {
            self.0.send(channel, to, msg)
        }
        fn schedule(&mut self, after: Duration, channel: ChannelId, timer: GossipTimer) {
            self.0.schedule(after, channel, timer)
        }
        fn rng(&mut self) -> &mut rand::rngs::StdRng {
            self.0.rng()
        }
        fn deliver(&mut self, channel: ChannelId, block: BlockRef) {
            self.1.push(format!("deliver {}", block.number()));
            self.0.deliver(channel, block)
        }
        fn seek(&mut self, channel: ChannelId, from: u64) {
            self.0.seek(channel, from)
        }
        fn trace(&mut self, channel: ChannelId, event: ProtocolEvent) {
            self.1.push(format!("{event:?}"));
            self.0.trace(channel, event)
        }
    }

    #[test]
    fn trace_reception_comes_before_the_delivery_it_unlocks() {
        let mut s = state(1, 0..4, GossipConfig::enhanced_f4());
        let mut fx = OneLog(MockEffects::new(1), vec![]);
        // Block 2 is traced on arrival and waits for block 1, whose
        // reception is traced before it delivers both.
        for num in [2, 1] {
            let block = Block::new(num, fabric_types::crypto::Hash256::ZERO, vec![]);
            assert!(s.core_mut().accept_content(&mut fx, &BlockRef::new(block)));
        }
        let log = ["Received(2)", "Received(1)", "deliver 1", "deliver 2"];
        assert_eq!(fx.1, log);
    }

    #[test]
    fn builder_static_roster_holds_no_dense_discovery_array() {
        let mut fx = MockEffects::new(1);
        let mut s = state(6, 5..9, GossipConfig::enhanced_f4());
        s.init(&mut fx);
        assert_eq!(s.dense_peer_tables(), [false; 4], "nothing written yet");
        let heartbeat = |seq| PeerAlive {
            peer: PeerId(7),
            incarnation: 1,
            seq,
        };
        for seq in 1..4 {
            s.on_message(&mut fx, PeerId(7), GossipMsg::AliveMsg(heartbeat(seq)));
            s.on_message(&mut fx, PeerId(8), GossipMsg::Alive);
            s.on_timer(&mut fx, GossipTimer::AliveRound);
        }
        let advert = GossipMsg::StateInfo {
            height: 3,
            checkpoint: None,
        };
        s.on_message(&mut fx, PeerId(7), advert);
        let [claims, obituaries, heights, checkpoints] = s.dense_peer_tables();
        assert!(!claims && !obituaries, "a static roster wrote discovery");
        assert!(heights, "an advert from a member is recorded densely");
        assert!(!checkpoints, "no checkpoint was advertised");
        let [.., (range, _, rows), _] = s.peer_tables();
        assert_eq!((range, rows), (9, 1));
    }

    #[test]
    fn static_roster_ignores_a_strangers_alive_claim() {
        let mut fx = MockEffects::new(1);
        let mut leader = state(5, 5..9, GossipConfig::enhanced_f4());
        leader.init(&mut fx);
        assert!(leader.is_leader());
        let stranger = PeerAlive {
            peer: PeerId(1),
            incarnation: 1,
            seq: 1,
        };
        leader.on_message(&mut fx, PeerId(6), GossipMsg::AliveMsg(stranger));
        assert!(leader.is_leader(), "a claim moved a static seat");
        assert!(fx.traced.is_empty());
        let core = leader.core();
        assert!(
            !core.membership.contains(PeerId(1)),
            "a stranger became a push target"
        );
        assert!(!core.channel_view().contains(PeerId(1)));
        assert_eq!(core.membership.peers(), [PeerId(6), PeerId(7), PeerId(8)]);
    }

    #[test]
    fn static_roster_ignores_a_forged_obituary_of_its_leader() {
        let dead = PeerAlive {
            peer: PeerId(5),
            incarnation: u64::MAX,
            seq: u64::MAX,
        };
        for self_id in [5, 6] {
            let mut fx = MockEffects::new(1);
            let mut s = state(self_id, 5..9, GossipConfig::enhanced_f4());
            s.init(&mut fx);
            let response = GossipMsg::MembershipResponse {
                entries: vec![],
                dead: vec![dead],
            };
            s.on_message(&mut fx, PeerId(7), response);
            let request = GossipMsg::MembershipRequest {
                entries: vec![],
                dead: vec![dead],
            };
            s.on_message(&mut fx, PeerId(8), request);
            assert_eq!(s.is_leader(), self_id == 5, "peer {self_id}'s seat moved");
            // Not even for a moment: a reap that unseats the leader and a
            // verdict that re-seats it would report both moves.
            assert!(fx.traced.is_empty(), "peer {self_id}: {:?}", fx.traced);
            let core = s.core();
            assert_eq!(core.membership.len(), 3, "peer {self_id} reaped a member");
            assert_eq!(core.channel_view().len(), 3, "peer {self_id}");
        }
    }
}
