//! The gossip peer: a thin multiplexer over per-channel protocol
//! instances.
//!
//! One [`GossipPeer`] value holds the gossip state of a single peer across
//! every channel it has joined. All protocol logic lives in the per-channel
//! engines ([`crate::push`], [`crate::pull`], [`crate::recovery`],
//! [`crate::discovery`]) bundled with a leader seat into a
//! [`ChannelState`] per joined channel; this type only routes entry points
//! to the right instance:
//!
//! * [`GossipPeer::init`], [`GossipPeer::on_crash`] — fan out to every
//!   channel;
//! * [`GossipPeer::on_channel_message`], [`GossipPeer::on_channel_timer`],
//!   [`GossipPeer::on_block_from_orderer_on`] — route to one channel;
//! * the historical single-channel entry points ([`GossipPeer::on_message`]
//!   et al.) operate on [`ChannelId::DEFAULT`], so single-channel code and
//!   tests read exactly as before.
//!
//! All I/O goes through [`Effects`], tagged with the channel it belongs to.

use fabric_types::block::BlockRef;
use fabric_types::ids::{ChannelId, PeerId};

use crate::channel::{ChannelCore, ChannelState};
use crate::config::GossipConfig;
use crate::effects::Effects;
use crate::membership::Membership;
use crate::messages::{GossipMsg, GossipTimer};
use crate::store::BlockStore;

pub use crate::channel::PeerStats;

/// The gossip state machine of one peer: per-channel instances behind a
/// multiplexer.
///
/// See the crate docs for a runnable end-to-end example.
#[derive(Debug)]
pub struct GossipPeer {
    id: PeerId,
    cfg: GossipConfig,
    /// Joined channels, sorted by [`ChannelId`] so `init`/`on_crash` fan
    /// out deterministically.
    channels: Vec<(ChannelId, ChannelState)>,
    /// Set by [`GossipPeer::init`]; guards the builder-only methods.
    initialized: bool,
}

impl GossipPeer {
    /// Creates the peer `id` within `roster` (all peers of the
    /// organization, self included or not — the peer never samples itself
    /// either way), joined to the single [`ChannelId::DEFAULT`] channel.
    ///
    /// The lowest-id peer of the roster is the leader from the start,
    /// mirroring a Fabric deployment with `orgLeader` pinned. On a static
    /// roster (the default) it keeps the seat for the whole run; under
    /// gossiped discovery the seat follows seniority from then on. Static
    /// leadership semantics, exactly:
    ///
    /// * roster **contains** `id` → this peer leads iff `id` is the
    ///   roster's minimum;
    /// * roster **is empty** → the peer is alone in its organization and
    ///   leads;
    /// * roster **excludes** `id` → the caller deliberately listed an
    ///   organization this peer is not a full member of (a late joiner or
    ///   observer): the peer never self-elects statically, *even if* its id
    ///   is lower than every roster entry. (The seed implementation
    ///   computed `min(roster ∪ {id})`, silently making such an observer
    ///   the leader; gossiped discovery
    ///   ([`crate::config::GossipConfig::with_discovery_protocol`]) is the
    ///   supported path for a peer that should eventually lead an
    ///   organization it joined late: it leads once it is the most senior
    ///   live member.)
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn new(id: PeerId, roster: Vec<PeerId>, cfg: GossipConfig) -> Self {
        Self::with_channels(id, cfg).join_channel(ChannelId::DEFAULT, &roster, &roster)
    }

    /// Builder entry point for multi-channel peers: a peer with **no**
    /// joined channels. Chain [`GossipPeer::join_channel`] once per
    /// channel, then call [`GossipPeer::init`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails validation.
    pub fn with_channels(id: PeerId, cfg: GossipConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid gossip config: {e}");
        }
        GossipPeer {
            id,
            cfg,
            channels: Vec::new(),
            initialized: false,
        }
    }

    /// Joins `channel` in one step: `org_roster` is the organization view
    /// (push and pull targets; the static leadership rule of
    /// [`GossipPeer::new`] applies per channel), `channel_roster` the
    /// channel-wide view (StateInfo and recovery cross organizations). A
    /// single-organization channel passes one roster twice and gets one
    /// view serving as both. Chains before [`GossipPeer::init`]; after it,
    /// [`GossipPeer::join_channel_live`] creates and arms an instance.
    ///
    /// # Panics
    ///
    /// Panics when called after [`GossipPeer::init`] (a builder-joined
    /// channel would sit timerless) or when `channel` is already joined.
    pub fn join_channel(
        mut self,
        channel: ChannelId,
        org_roster: &[PeerId],
        channel_roster: &[PeerId],
    ) -> Self {
        assert!(
            !self.initialized,
            "the consuming join_channel builder leaves the new channel timerless: \
             after init, join at runtime with join_channel_live"
        );
        self.insert_channel(channel, org_roster, channel_roster);
        self
    }

    /// Joins `channel` at runtime — the only way into a channel after
    /// [`GossipPeer::init`], and it needs protocol discovery
    /// ([`crate::config::DiscoveryConfig::protocol`]) to mean anything:
    /// `roster` is whatever the joiner knows of the sitting membership —
    /// all of it, or a single anchor peer (the anchor-peer entry of a
    /// Fabric channel configuration) — and nobody is told on its behalf.
    /// The new instance's discovery engine immediately **announces
    /// itself**, heartbeating its own `(incarnation, seq)` claim to the
    /// members it knows, who treat the unknown claim as the join; the rest
    /// of the channel — and the rest of the joiner's own view — converges
    /// through heartbeats and anti-entropy.
    ///
    /// The periodic timers are armed at once, so the late joiner starts
    /// broadcasting StateInfo and running recovery (and pull, if
    /// configured) right away — the existing state-transfer machinery
    /// bootstraps it to the channel head with no extra protocol. A roster
    /// excluding self never self-elects statically, so a joiner does not
    /// depose the seated leader whatever its id.
    ///
    /// Works before `init` too (equivalent to the builder form).
    ///
    /// # Panics
    ///
    /// Panics when `channel` is already joined.
    pub fn join_channel_live(
        &mut self,
        fx: &mut dyn Effects,
        channel: ChannelId,
        roster: Vec<PeerId>,
    ) {
        let (initialized, discovery) = (self.initialized, self.cfg.discovery.protocol);
        let state = self.insert_channel(channel, &roster, &roster);
        // Static leadership was just evaluated over the as-passed roster.
        // Under discovery, what the roster still decides is member or
        // observer: a peer handed a roster excluding it ranks junior to
        // everyone for life (see `DiscoveryEngine::init`), and a runtime
        // joiner is a member — junior by its late incarnation alone, so two
        // joiners outliving the initial members still elect exactly one of
        // themselves. On a static roster an observer stays one.
        state.core_mut().listed |= discovery;
        if initialized {
            state.init(fx);
        }
    }

    /// Publishes `snapshot` as the one this peer serves on `channel`
    /// (typically right after the embedding's ledger emitted a checkpoint).
    /// Freshness-gated: an older snapshot than the current one is ignored.
    /// Returns whether the snapshot was adopted (false when the channel is
    /// not joined or the snapshot is stale).
    pub fn publish_snapshot_on(
        &mut self,
        channel: ChannelId,
        snapshot: fabric_types::snapshot::SnapshotRef,
    ) -> bool {
        match self.state_mut(channel) {
            None => false,
            Some(state) => {
                let core = state.core_mut();
                let stale = core
                    .snapshot
                    .as_ref()
                    .is_some_and(|held| held.checkpoint.height >= snapshot.checkpoint.height);
                if stale {
                    return false;
                }
                core.snapshot = Some(snapshot);
                true
            }
        }
    }

    /// The snapshot this peer currently serves on `channel` (published by
    /// the embedding or installed from gossip), if any.
    pub fn snapshot_on(&self, channel: ChannelId) -> Option<&fabric_types::snapshot::SnapshotRef> {
        self.state(channel).and_then(|s| s.core().snapshot.as_ref())
    }

    /// Leaves `channel` at runtime: the instance is dropped wholesale —
    /// store, views, counters and engines. Pending timers of the departed
    /// channel become inert ([`GossipPeer::on_channel_timer`] drops timers
    /// of unjoined channels), so no cancellation round-trip is needed.
    /// Returns whether the channel was joined.
    ///
    /// Nobody is told: a leave is silence. Under protocol discovery the
    /// remaining members stop hearing the leaver, reap it after the alive
    /// timeout and spread the obituary, and the most senior survivor
    /// succeeds a leaver that led.
    pub fn leave_channel(&mut self, channel: ChannelId) -> bool {
        match self.channels.iter().position(|(ch, _)| *ch == channel) {
            Some(at) => {
                self.channels.remove(at);
                true
            }
            None => false,
        }
    }

    /// Builds the channel instance once and inserts it, keeping `channels`
    /// sorted. Shared by every join path (builder and live).
    fn insert_channel(
        &mut self,
        channel: ChannelId,
        org: &[PeerId],
        wide: &[PeerId],
    ) -> &mut ChannelState {
        assert!(
            !self.channels.iter().any(|(ch, _)| *ch == channel),
            "channel {channel} joined twice"
        );
        let core = ChannelCore::new(channel, self.id, org, wide, self.cfg.clone());
        let at = self.channels.partition_point(|(ch, _)| *ch < channel);
        self.channels.insert(at, (channel, ChannelState::new(core)));
        &mut self.channels[at].1
    }

    /// This peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The configuration every channel of this peer runs under.
    pub fn config(&self) -> &GossipConfig {
        &self.cfg
    }

    /// Channels this peer has joined, in id order.
    pub fn channel_ids(&self) -> Vec<ChannelId> {
        self.channels.iter().map(|(ch, _)| *ch).collect()
    }

    /// Whether `channel` is joined.
    pub fn has_channel(&self, channel: ChannelId) -> bool {
        self.state(channel).is_some()
    }

    fn state(&self, channel: ChannelId) -> Option<&ChannelState> {
        self.channels
            .iter()
            .find(|(ch, _)| *ch == channel)
            .map(|(_, s)| s)
    }

    fn state_mut(&mut self, channel: ChannelId) -> Option<&mut ChannelState> {
        self.channels
            .iter_mut()
            .find(|(ch, _)| *ch == channel)
            .map(|(_, s)| s)
    }

    /// `(rows allocated, rows held)` of every per-block table of every
    /// joined channel, for the bound checks of the wire tests.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> Vec<(usize, usize)> {
        self.channels
            .iter()
            .flat_map(|(_, state)| state.tables())
            .collect()
    }

    /// `(dense slots, spilled rows, rows)` of the default channel's
    /// per-peer tables (claims, obituaries, heights, checkpoints), for the
    /// bound checks of the wire tests.
    #[cfg(test)]
    pub(crate) fn peer_tables(&self) -> [(usize, usize, usize); 4] {
        self.default_state().peer_tables()
    }

    fn default_state(&self) -> &ChannelState {
        self.state(ChannelId::DEFAULT)
            .expect("peer has not joined the default channel; use the *_on accessors")
    }

    fn default_state_mut(&mut self) -> &mut ChannelState {
        self.state_mut(ChannelId::DEFAULT)
            .expect("peer has not joined the default channel; use the *_on accessors")
    }

    // ------------------------------------------------------------------
    // Single-channel (default-channel) view — the historical API
    // ------------------------------------------------------------------

    /// Whether this peer currently acts as the organization leader (on the
    /// default channel).
    pub fn is_leader(&self) -> bool {
        self.default_state().is_leader()
    }

    /// Contiguous ledger height (next expected block number) on the
    /// default channel.
    pub fn height(&self) -> u64 {
        self.default_state().core().store.height()
    }

    /// The gossip block store of the default channel.
    pub fn store(&self) -> &BlockStore {
        &self.default_state().core().store
    }

    /// Protocol counters of the default channel.
    pub fn stats(&self) -> &PeerStats {
        &self.default_state().core().stats
    }

    /// The same-organization membership view of the default channel.
    pub fn membership(&self) -> &Membership {
        &self.default_state().core().membership
    }

    /// The channel-wide membership view of the default channel (all
    /// organizations).
    pub fn channel(&self) -> &Membership {
        self.default_state().core().channel_view()
    }

    /// Turns this peer into a free-rider on every joined channel: it
    /// receives, stores and delivers blocks but never forwards anything
    /// (the adversarial behaviour the paper's discussion section raises).
    /// Pull and recovery requests are still answered — a silent dropper,
    /// not a liar.
    pub fn set_forwarding(&mut self, forwarding: bool) {
        for (_, state) in &mut self.channels {
            state.core_mut().forwarding = forwarding;
        }
    }

    /// Whether this peer forwards blocks (on the default channel).
    pub fn forwarding(&self) -> bool {
        self.default_state().core().forwarding
    }

    /// Entry point for a block delivered by the ordering service on the
    /// default channel.
    pub fn on_block_from_orderer(&mut self, fx: &mut dyn Effects, block: BlockRef) {
        self.default_state_mut().on_block_from_orderer(fx, block);
    }

    /// Entry point for every gossip message on the default channel.
    pub fn on_message(&mut self, fx: &mut dyn Effects, from: PeerId, msg: GossipMsg) {
        self.default_state_mut().on_message(fx, from, msg);
    }

    /// Entry point for every timer armed through [`Effects::schedule`] on
    /// the default channel.
    pub fn on_timer(&mut self, fx: &mut dyn Effects, timer: GossipTimer) {
        self.default_state_mut().on_timer(fx, timer);
    }

    // ------------------------------------------------------------------
    // Channel-aware entry points and accessors
    // ------------------------------------------------------------------

    /// Routes an incoming gossip message to its channel instance. Messages
    /// for channels this peer never joined are dropped — gossip scope is
    /// the isolation boundary, so stray cross-channel traffic must never
    /// touch any store.
    pub fn on_channel_message(
        &mut self,
        fx: &mut dyn Effects,
        channel: ChannelId,
        from: PeerId,
        msg: GossipMsg,
    ) {
        if let Some(state) = self.state_mut(channel) {
            state.on_message(fx, from, msg);
        }
    }

    /// Routes a timer to its channel instance (timers of unjoined channels
    /// are inert).
    pub fn on_channel_timer(
        &mut self,
        fx: &mut dyn Effects,
        channel: ChannelId,
        timer: GossipTimer,
    ) {
        if let Some(state) = self.state_mut(channel) {
            state.on_timer(fx, timer);
        }
    }

    /// Entry point for a block the ordering service delivers on `channel`.
    /// Blocks for unjoined channels are dropped (isolation again).
    pub fn on_block_from_orderer_on(
        &mut self,
        fx: &mut dyn Effects,
        channel: ChannelId,
        block: BlockRef,
    ) {
        if let Some(state) = self.state_mut(channel) {
            state.on_block_from_orderer(fx, block);
        }
    }

    /// Whether this peer leads `channel`'s organization (false when not
    /// joined).
    pub fn is_leader_on(&self, channel: ChannelId) -> bool {
        self.state(channel).is_some_and(|s| s.is_leader())
    }

    /// Contiguous ledger height on `channel` (0 when not joined).
    pub fn height_on(&self, channel: ChannelId) -> u64 {
        self.state(channel).map_or(0, |s| s.core().store.height())
    }

    /// The block store of `channel`, if joined.
    pub fn store_on(&self, channel: ChannelId) -> Option<&BlockStore> {
        self.state(channel).map(|s| &s.core().store)
    }

    /// The protocol counters of `channel`, if joined.
    pub fn stats_on(&self, channel: ChannelId) -> Option<&PeerStats> {
        self.state(channel).map(|s| &s.core().stats)
    }

    /// The organization membership view of `channel`, if joined.
    pub fn membership_on(&self, channel: ChannelId) -> Option<&Membership> {
        self.state(channel).map(|s| &s.core().membership)
    }

    /// The discovery engine of `channel`, if joined — claims, obituaries
    /// and this life's incarnation, for convergence inspection.
    pub fn discovery_on(&self, channel: ChannelId) -> Option<&crate::discovery::DiscoveryEngine> {
        self.state(channel).map(|s| s.discovery())
    }

    // ------------------------------------------------------------------
    // Lifecycle (all channels)
    // ------------------------------------------------------------------

    /// Arms the periodic timers of every joined channel, in channel-id
    /// order. Call once at startup (and again after a simulated reboot).
    /// Periods get a uniformly random initial phase so rounds
    /// de-synchronize across peers, as in a real deployment.
    pub fn init(&mut self, fx: &mut dyn Effects) {
        self.initialized = true;
        for (_, state) in &mut self.channels {
            state.init(fx);
        }
    }

    /// Models a process crash: volatile state — leadership, push buffers,
    /// fetches in flight, pull bookkeeping, discovery's claims — is lost
    /// on every channel. The block stores survive (blocks are persisted
    /// through the ledger). After a reboot, call [`GossipPeer::init`] to
    /// re-arm the timers (a static-roster leader also takes its seat back);
    /// recovery then catches the peer up.
    pub fn on_crash(&mut self) {
        for (_, state) in &mut self.channels {
            state.on_crash();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GossipConfig;
    use crate::testing::MockEffects;
    use fabric_types::block::Block;

    fn peers(ids: &[u32]) -> Vec<PeerId> {
        ids.iter().copied().map(PeerId).collect()
    }

    #[test]
    fn lowest_roster_member_statically_leads() {
        let roster = peers(&[0, 1, 2, 3]);
        assert!(
            GossipPeer::new(PeerId(0), roster.clone(), GossipConfig::enhanced_f4()).is_leader()
        );
        assert!(
            !GossipPeer::new(PeerId(1), roster.clone(), GossipConfig::enhanced_f4()).is_leader()
        );
        assert!(!GossipPeer::new(PeerId(3), roster, GossipConfig::enhanced_f4()).is_leader());
    }

    #[test]
    fn roster_minimum_leads_even_when_ids_are_sparse() {
        let roster = peers(&[5, 9, 12]);
        assert!(
            GossipPeer::new(PeerId(5), roster.clone(), GossipConfig::enhanced_f4()).is_leader()
        );
        assert!(!GossipPeer::new(PeerId(9), roster, GossipConfig::enhanced_f4()).is_leader());
    }

    #[test]
    fn peer_excluded_from_roster_never_statically_self_elects() {
        // The caller handed this peer a roster that deliberately excludes
        // it — a late joiner / observer. Before the fix, min(roster ∪ {id})
        // silently crowned it leader because its id is lowest.
        let observer = GossipPeer::new(PeerId(0), peers(&[1, 2, 3]), GossipConfig::enhanced_f4());
        assert!(
            !observer.is_leader(),
            "an observer excluded from the roster must not claim static leadership"
        );
        // Higher-id observers were never leaders; still are not.
        let late = GossipPeer::new(PeerId(7), peers(&[1, 2, 3]), GossipConfig::enhanced_f4());
        assert!(!late.is_leader());
    }

    #[test]
    fn empty_roster_means_alone_and_leading() {
        let alone = GossipPeer::new(PeerId(4), Vec::new(), GossipConfig::enhanced_f4());
        assert!(alone.is_leader());
        assert!(alone.membership().is_empty());
    }

    #[test]
    fn leadership_is_independent_per_channel() {
        let peer = GossipPeer::with_channels(PeerId(2), GossipConfig::enhanced_f4())
            .join_channel(ChannelId(0), &peers(&[0, 1, 2]), &peers(&[0, 1, 2]))
            .join_channel(ChannelId(1), &peers(&[2, 3, 4]), &peers(&[2, 3, 4]));
        assert!(!peer.is_leader_on(ChannelId(0)), "peer 0 leads channel 0");
        assert!(
            peer.is_leader_on(ChannelId(1)),
            "lowest member of channel 1"
        );
        assert!(!peer.is_leader_on(ChannelId(9)), "unjoined channel");
        assert_eq!(peer.channel_ids(), vec![ChannelId(0), ChannelId(1)]);
    }

    #[test]
    fn messages_for_unjoined_channels_never_touch_a_store() {
        let mut peer = GossipPeer::new(PeerId(1), peers(&[0, 1, 2]), GossipConfig::enhanced_f4());
        let mut fx = MockEffects::new(1);
        let block =
            fabric_types::block::BlockRef::new(Block::new(1, Block::genesis().hash(), vec![]));
        peer.on_channel_message(
            &mut fx,
            ChannelId(7),
            PeerId(0),
            GossipMsg::BlockPush { block, counter: 0 },
        );
        assert!(!peer.store().has(1), "stray channel traffic must not leak");
        assert!(fx.take_sent().is_empty());
        assert!(fx.delivered.is_empty());
    }

    /// What the two-step builder's view of `roster` held for `id`: the
    /// roster without `id`, in roster order.
    fn separately_built(id: PeerId, roster: &[PeerId]) -> Vec<PeerId> {
        roster.iter().copied().filter(|p| *p != id).collect()
    }

    /// `view` holds exactly `old`, answers `contains` as `old` does, and
    /// draws from a seeded generator what a partial shuffle of a copy of
    /// `old` draws from an equally seeded one — the sampler both builders
    /// ran, over the roster each held.
    fn assert_same_view(view: &Membership, old: &[PeerId], seed: u64) {
        use rand::{RngExt, SeedableRng};
        assert_eq!(view.peers(), old);
        for id in (0..12).map(PeerId) {
            assert_eq!(view.contains(id), old.contains(&id), "{id}");
        }
        let mut ours = rand::rngs::StdRng::seed_from_u64(seed);
        let mut theirs = rand::rngs::StdRng::seed_from_u64(seed);
        for k in [1, 2, 3, 4, 8, 16, 4] {
            let mut pool = old.to_vec();
            let take = k.min(pool.len());
            for i in 0..take {
                let j = theirs.random_range(i..pool.len());
                pool.swap(i, j);
            }
            assert_eq!(view.sample(&mut ours, k)[..], pool[..take]);
        }
        assert_eq!(ours.random::<u64>(), theirs.random::<u64>());
    }

    #[test]
    fn builder_one_step_join_matches_separately_built_views() {
        // Two organizations {0, 1, 2} and {3, 4, 5}: peer 1 pushes inside
        // the first, and its channel view spans both.
        let channel_roster = peers(&[0, 1, 2, 3, 4, 5]);
        let org = &channel_roster[..3];
        for cfg in [
            GossipConfig::enhanced_f4(),
            GossipConfig::enhanced_f4().with_discovery_protocol(),
        ] {
            let mut peer = GossipPeer::with_channels(PeerId(1), cfg).join_channel(
                ChannelId::DEFAULT,
                org,
                &channel_roster,
            );
            assert_same_view(peer.membership(), &separately_built(PeerId(1), org), 3);
            assert_same_view(
                peer.channel(),
                &separately_built(PeerId(1), &channel_roster),
                3,
            );
            assert!(!std::ptr::eq(peer.channel(), peer.membership()));
            assert!(!peer.is_leader(), "peer 0 leads the organization");
            // Each engine spans its own view: discovery the organization
            // (ids below 3), recovery the channel (ids below 6).
            let ranges = peer
                .default_state()
                .peer_tables()
                .map(|(range, _, _)| range);
            assert_eq!(ranges, [3, 3, 6, 6]);
            // A discovery join edits both views alike.
            let mut fx = MockEffects::new(1);
            peer.init(&mut fx);
            let stranger = crate::messages::PeerAlive {
                peer: PeerId(9),
                incarnation: 1,
                seq: 1,
            };
            peer.on_message(&mut fx, PeerId(0), GossipMsg::AliveMsg(stranger));
            let joined = peer.config().discovery.protocol;
            assert_eq!(peer.membership().contains(PeerId(9)), joined);
            assert_eq!(peer.channel().contains(PeerId(9)), joined);
        }
        // The same peers in another order are another view: the order
        // decides the draws.
        let reordered = peers(&[2, 1, 0]);
        let peer = GossipPeer::with_channels(PeerId(1), GossipConfig::enhanced_f4()).join_channel(
            ChannelId::DEFAULT,
            org,
            &reordered,
        );
        assert_same_view(peer.membership(), &separately_built(PeerId(1), org), 7);
        assert_same_view(peer.channel(), &separately_built(PeerId(1), &reordered), 7);
    }

    #[test]
    fn builder_one_org_channel_view_is_the_organization_view() {
        let roster = peers(&[0, 1, 2, 3]);
        let cfg = GossipConfig::enhanced_f4().with_discovery_protocol();
        let shorthand = GossipPeer::new(PeerId(2), roster.clone(), cfg.clone());
        let one_step = GossipPeer::with_channels(PeerId(2), cfg).join_channel(
            ChannelId::DEFAULT,
            &roster,
            &roster,
        );
        for mut peer in [shorthand, one_step] {
            assert!(std::ptr::eq(peer.channel(), peer.membership()));
            assert_same_view(peer.membership(), &separately_built(PeerId(2), &roster), 5);
            let mut fx = MockEffects::new(1);
            peer.init(&mut fx);
            let stranger = crate::messages::PeerAlive {
                peer: PeerId(9),
                incarnation: 1,
                seq: 1,
            };
            peer.on_message(&mut fx, PeerId(0), GossipMsg::AliveMsg(stranger));
            assert!(peer.channel().contains(PeerId(9)));
            assert!(std::ptr::eq(peer.channel(), peer.membership()));
        }
    }

    #[test]
    #[should_panic(expected = "joined twice")]
    fn joining_a_channel_twice_is_rejected() {
        let _ = GossipPeer::with_channels(PeerId(0), GossipConfig::enhanced_f4())
            .join_channel(ChannelId(0), &peers(&[0, 1]), &peers(&[0, 1]))
            .join_channel(ChannelId(0), &peers(&[0, 1]), &peers(&[0, 1]));
    }

    #[test]
    fn runtime_join_after_init_arms_the_new_channels_timers() {
        let mut peer = GossipPeer::new(PeerId(1), peers(&[0, 1, 2]), GossipConfig::enhanced_f4());
        let mut fx = MockEffects::new(1);
        peer.init(&mut fx);
        let armed_before = fx.take_scheduled_on();
        assert!(armed_before.iter().all(|(_, ch, _)| *ch == ChannelId(0)));

        peer.join_channel_live(&mut fx, ChannelId(3), peers(&[1, 2, 3]));
        assert!(peer.has_channel(ChannelId(3)));
        let armed = fx.take_scheduled_on();
        assert!(
            armed.iter().any(|(_, ch, _)| *ch == ChannelId(3)),
            "a live join must arm the new channel's timers immediately"
        );
        assert!(
            armed.iter().all(|(_, ch, _)| *ch == ChannelId(3)),
            "existing channels' timers must not be re-armed"
        );
    }

    #[test]
    #[should_panic(expected = "timerless")]
    fn builder_join_after_init_is_rejected_loudly() {
        let mut peer = GossipPeer::new(PeerId(0), peers(&[0, 1]), GossipConfig::enhanced_f4());
        let mut fx = MockEffects::new(1);
        peer.init(&mut fx);
        // The consuming builder would create a dormant, timerless channel;
        // post-init joins must go through join_channel_live.
        let _ = peer.join_channel(ChannelId(2), &peers(&[0, 1]), &peers(&[0, 1]));
    }

    #[test]
    fn runtime_join_before_init_stays_dormant_until_init() {
        let mut peer = GossipPeer::with_channels(PeerId(0), GossipConfig::enhanced_f4());
        let mut fx = MockEffects::new(1);
        peer.join_channel_live(&mut fx, ChannelId(0), peers(&[0, 1]));
        assert!(fx.take_scheduled_on().is_empty(), "not initialized yet");
        peer.init(&mut fx);
        assert!(!fx.take_scheduled_on().is_empty());
    }

    #[test]
    fn leaving_a_channel_makes_its_traffic_and_timers_inert() {
        let mut peer = GossipPeer::with_channels(PeerId(1), GossipConfig::enhanced_f4())
            .join_channel(ChannelId(0), &peers(&[0, 1, 2]), &peers(&[0, 1, 2]))
            .join_channel(ChannelId(1), &peers(&[1, 2, 3]), &peers(&[1, 2, 3]));
        let mut fx = MockEffects::new(1);
        peer.init(&mut fx);
        fx.take_scheduled_on();
        assert!(peer.leave_channel(ChannelId(1)));
        assert!(!peer.leave_channel(ChannelId(1)), "second leave is a no-op");
        assert_eq!(peer.channel_ids(), vec![ChannelId(0)]);
        // Stray traffic and timers of the departed channel vanish.
        let block = BlockRef::new(Block::new(1, Block::genesis().hash(), vec![]));
        peer.on_channel_message(
            &mut fx,
            ChannelId(1),
            PeerId(2),
            GossipMsg::BlockPush { block, counter: 0 },
        );
        peer.on_channel_timer(&mut fx, ChannelId(1), GossipTimer::RecoveryRound);
        assert!(fx.take_sent_on().is_empty());
        assert!(fx.take_scheduled_on().is_empty());
        assert!(fx.delivered.is_empty());
    }

    #[test]
    fn rejoining_a_left_channel_starts_fresh() {
        let mut peer = GossipPeer::new(PeerId(0), peers(&[0, 1]), GossipConfig::enhanced_f4());
        let mut fx = MockEffects::new(1);
        peer.init(&mut fx);
        let block = BlockRef::new(Block::new(1, Block::genesis().hash(), vec![]));
        peer.on_block_from_orderer(&mut fx, block);
        assert_eq!(peer.height(), 2);
        peer.leave_channel(ChannelId::DEFAULT);
        peer.join_channel_live(&mut fx, ChannelId::DEFAULT, peers(&[0, 1]));
        assert_eq!(peer.height(), 1, "a rejoin starts from an empty store");
    }

    #[test]
    fn publish_snapshot_is_freshness_gated_per_channel() {
        use fabric_types::snapshot::{Checkpoint, Snapshot, SnapshotRef};
        let snap = |height| {
            let entries = Vec::new();
            let state_hash = fabric_types::snapshot::hash_state_entries(std::iter::empty());
            SnapshotRef::new(Snapshot {
                checkpoint: Checkpoint { height, state_hash },
                last_block_hash: fabric_types::crypto::Hash256::ZERO,
                entries,
            })
        };
        let mut peer = GossipPeer::new(PeerId(0), peers(&[0, 1, 2]), GossipConfig::enhanced_f4());
        assert!(peer.snapshot_on(ChannelId::DEFAULT).is_none());
        assert!(!peer.publish_snapshot_on(ChannelId(9), snap(8)), "unjoined");
        assert!(peer.publish_snapshot_on(ChannelId::DEFAULT, snap(8)));
        assert!(
            !peer.publish_snapshot_on(ChannelId::DEFAULT, snap(8)),
            "same height is not fresher"
        );
        assert!(peer.publish_snapshot_on(ChannelId::DEFAULT, snap(16)));
        assert_eq!(
            peer.snapshot_on(ChannelId::DEFAULT)
                .map(|s| s.checkpoint.height),
            Some(16)
        );
        assert!(!peer.publish_snapshot_on(ChannelId::DEFAULT, snap(12)));
    }
}
