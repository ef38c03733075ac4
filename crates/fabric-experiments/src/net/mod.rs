//! The simulated Fabric network: client, ordering service and gossip peers
//! as one [`desim::Protocol`].
//!
//! Node layout for a deployment of `n` peers:
//!
//! * nodes `0 .. n` — the peers (gossip + optional ledgers);
//! * node `n` — the ordering service;
//! * node `n + 1` — the client application.
//!
//! The full execute-order-validate pipeline runs in virtual time and is
//! **channel-routed end to end**: every scheduled invocation names its
//! [`ChannelId`]; the client sends proposals to that channel's endorsers,
//! which simulate the chaincode against their committed per-channel state
//! and sign; the client forwards the endorsed transaction to the orderer,
//! whose per-channel block cutter batches it; consensus is modeled by the
//! configured latency; each cut block goes to the latest seeker of each
//! organization — the seated leader's deliver client, which asks for
//! every block from its store height on when it takes the seat — and the
//! channel's gossip instance takes it from there. Every peer pays
//! the configured validation cost per delivered transaction on a single
//! serial pipeline shared by its channels, which queues its message
//! processing exactly like a busy CPU would.
//!
//! Single-channel deployments (the paper's evaluation shape) configure
//! nothing: [`NetParams::new`] derives the [`ChannelId::DEFAULT`] channel
//! from the legacy fields, and every event, byte and RNG draw matches the
//! historical single-channel pipeline exactly. Multi-channel deployments
//! add [`ChannelSpec`]s; runtime membership churn — peers joining a
//! channel mid-run, catching up through StateInfo + recovery, and leaving
//! again, their seat succeeded by discovery seniority — is driven by
//! [`ChurnEvent`]s and needs the gossiped discovery protocol
//! ([`DiscoveryMode::Protocol`]): only the mover acts, nobody is told.
//!
//! The module is cut along five seams. This file holds what a deployment
//! *is*: its description ([`NetParams`], [`ChannelSpec`]), its state
//! ([`FabricNet`]), the constructor and the read accessors. `pipeline`
//! holds what travels and how it is dispatched — the wire and timer
//! types, the [`desim::Protocol`] impl, and the client → endorse → order →
//! deliver path; `lifecycle` runtime membership — churn events, `join` /
//! `leave` / `crash`; `recorder` every run metric, one fold over what
//! the peers trace and a few host facts (the accessors read it); `fx` the [`fabric_gossip::effects::Effects`]
//! adapter every gossip handler runs against, with the Byzantine edge on
//! its wire. Every public item is re-exported here, so paths are
//! `fabric_experiments::net::X` throughout.

use std::collections::VecDeque;
use std::sync::Arc;

use desim::{Duration, NodeId, Time};
use fabric_gossip::config::GossipConfig;
use fabric_gossip::peer::GossipPeer;
use fabric_gossip::scenario::Byzantine;
use fabric_ledger::ledger::{Ledger, SnapshotError};
use fabric_orderer::service::{OrdererConfig, OrderingService};
use fabric_types::block::{Block, BlockRef};
use fabric_types::ids::{ChannelId, PeerId};
use fabric_types::msp::Msp;
use fabric_types::snapshot::SnapshotRef;
use fabric_types::transaction::{EndorsementPolicy, Transaction};
use fabric_workload::schedule::ScheduledInvocation;
use gossip_metrics::latency::LatencyRecorder;
use rand::rngs::StdRng;
use rand::SeedableRng;

mod fx;
mod lifecycle;
mod pipeline;
mod recorder;

use lifecycle::{may_leave, STATIC_MEMBERSHIP};
pub use lifecycle::{ChurnAction, ChurnEvent};
use pipeline::Feed;
pub use pipeline::{NetMsg, NetTimer};
pub use recorder::{Catchup, ViewConvergence};
use recorder::{Fact, Recorder};

/// One channel of the deployment: membership, organization split and
/// endorsement configuration.
#[derive(Debug, Clone)]
pub struct ChannelSpec {
    /// The channel id. Specs must cover a dense `0..channels` range
    /// ([`ChannelId::DEFAULT`] is spec 0, derived from the legacy
    /// [`NetParams`] fields).
    pub channel: ChannelId,
    /// The peers joined to this channel at start of run, in ascending id
    /// order (enforced at build: latency slots and the contiguous
    /// organization split follow the listing, so one membership has one
    /// listing).
    pub members: Vec<PeerId>,
    /// Number of organizations; members are split contiguously. Push and
    /// pull stay inside each organization; StateInfo and recovery cross
    /// organizations, and the ordering service feeds one leader per
    /// organization — Fig. 1 of the paper.
    pub orgs: usize,
    /// The channel's endorsing peers (must be members with ledgers).
    pub endorsers: Vec<PeerId>,
    /// The channel's endorsement policy.
    pub policy: EndorsementPolicy,
}

impl ChannelSpec {
    /// Each organization's roster: the members split contiguously.
    fn org_rosters(&self) -> std::slice::Chunks<'_, PeerId> {
        self.members
            .chunks(self.members.len().div_ceil(self.orgs).max(1))
    }
}

/// Whether the deployment's membership can change at runtime — a mirror of
/// [`fabric_gossip::config::DiscoveryConfig::protocol`], from which
/// [`NetParams::new`] derives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiscoveryMode {
    /// The rosters handed at build time are the membership for the whole
    /// run (the paper's evaluation shape; the payload-less `Alive`
    /// heartbeat is the only membership traffic). Churn events and the
    /// imperative [`FabricNet::join`] / [`FabricNet::leave`] /
    /// [`FabricNet::crash`] are refused.
    #[default]
    Static,
    /// The gossiped discovery protocol: a joiner announces itself through
    /// its `AliveMsg` heartbeats, a leaver just goes silent, and every
    /// sitting member converges through heartbeats, anti-entropy and
    /// expiry — the one way membership changes. Discovery traffic is
    /// counted in [`fabric_gossip::peer::PeerStats`] (and therefore
    /// fairness) like any other message kind.
    Protocol,
}

/// Static parameters of the simulated deployment.
#[derive(Debug, Clone)]
pub struct NetParams {
    /// Total number of peers in the deployment (every channel's members
    /// draw from `0..peers`).
    pub peers: usize,
    /// Number of organizations of the **default channel**; peers are split
    /// contiguously (org `i` owns peers `[i·k, (i+1)·k)`).
    pub orgs: usize,
    /// Gossip configuration shared by every peer.
    pub gossip: GossipConfig,
    /// Ordering service configuration (batching + consensus latency),
    /// shared by every channel's chain.
    pub orderer: OrdererConfig,
    /// Validation CPU cost per transaction at commit (paper §V-D: 50 ms).
    pub validation_per_tx: Duration,
    /// The **default channel's** endorsing peers. §V-D uses one; with
    /// several, the client compares read sets across endorsements and
    /// discards mismatches — the paper's *proposal-time* conflicts (§II-C).
    pub endorsers: Vec<PeerId>,
    /// Maintain a full ledger on every member of every channel (`true`) or
    /// only on endorsers (`false`, saves memory in dissemination runs).
    pub full_ledgers: bool,
    /// The **default channel's** endorsement policy.
    pub policy: EndorsementPolicy,
    /// The **default channel's** members, in ascending id order. `None`
    /// (the historical shape) joins every peer of the deployment; the
    /// multi-channel runner sets an explicit subset so a group's default
    /// channel can coexist with other channels over the same peer pool.
    pub default_members: Option<Vec<PeerId>>,
    /// Further channels beyond the default one. Ids must continue the
    /// dense range (`ChannelId(1)`, `ChannelId(2)`, …).
    pub extra_channels: Vec<ChannelSpec>,
    /// Runtime membership changes, any order (each is armed as its own
    /// timer). Requires [`DiscoveryMode::Protocol`].
    pub churn: Vec<ChurnEvent>,
    /// Derived by [`NetParams::new`] from `gossip.discovery.protocol` —
    /// nothing in the tree sets it. The field (and the `Protocol` variant)
    /// stay public only because `benchmark/src/workloads.rs` assigns them
    /// and `benchmark/` was frozen when the oracle mode was retired; the
    /// next `benchmark` PR can drop that assignment, and then this field.
    pub discovery: DiscoveryMode,
}

impl NetParams {
    /// Sensible defaults for a dissemination experiment over `peers` peers
    /// on the single default channel.
    pub fn new(peers: usize, gossip: GossipConfig, orderer: OrdererConfig) -> Self {
        let discovery = if gossip.discovery.protocol {
            DiscoveryMode::Protocol
        } else {
            DiscoveryMode::Static
        };
        NetParams {
            peers,
            orgs: 1,
            gossip,
            orderer,
            validation_per_tx: Duration::from_micros(500),
            endorsers: vec![PeerId(1)],
            full_ledgers: false,
            policy: EndorsementPolicy::AnyMember,
            default_members: None,
            extra_channels: Vec::new(),
            churn: Vec::new(),
            discovery,
        }
    }

    /// Every channel of the deployment: the default channel derived from
    /// the legacy fields, then the extra specs.
    pub fn channel_specs(&self) -> Vec<ChannelSpec> {
        let mut specs = Vec::with_capacity(1 + self.extra_channels.len());
        specs.push(ChannelSpec {
            channel: ChannelId::DEFAULT,
            members: self
                .default_members
                .clone()
                .unwrap_or_else(|| (0..self.peers as u32).map(PeerId).collect()),
            orgs: self.orgs,
            endorsers: self.endorsers.clone(),
            policy: self.policy.clone(),
        });
        specs.extend(self.extra_channels.iter().cloned());
        specs
    }
}

/// Per-channel runtime state of the deployment.
#[derive(Debug)]
struct ChannelRuntime {
    spec: ChannelSpec,
    /// Peer index → latency-matrix slot. Sized over the peers that are
    /// ever members (initial members plus scheduled joiners).
    slots: Vec<Option<usize>>,
    /// Peer index → organization (fixed at build; joiners are org 0 —
    /// churned channels are single-organization).
    org_of: Vec<Option<usize>>,
}

#[derive(Debug)]
struct PeerNode {
    gossip: GossipPeer,
    /// One ledger per channel this peer endorses on (or every joined
    /// channel under `full_ledgers`).
    ledgers: Vec<(ChannelId, Ledger)>,
    /// Blocks delivered in order, awaiting the validation delay (one
    /// serial pipeline across channels).
    pending_commits: VecDeque<(ChannelId, BlockRef)>,
    /// Instant the peer's (serial) validation pipeline frees up.
    validation_free: Time,
    /// The behavior a compromised peer runs on its own wire (see
    /// [`FabricNet::set_byzantine`]).
    byzantine: Option<Box<dyn Byzantine>>,
}

impl PeerNode {
    fn ledger(&self, channel: ChannelId) -> Option<&Ledger> {
        self.ledgers
            .iter()
            .find(|(ch, _)| *ch == channel)
            .map(|(_, l)| l)
    }

    fn ledger_mut(&mut self, channel: ChannelId) -> Option<&mut Ledger> {
        self.ledgers
            .iter_mut()
            .find(|(ch, _)| *ch == channel)
            .map(|(_, l)| l)
    }
}

/// The whole simulated deployment, implementing [`desim::Protocol`].
#[derive(Debug)]
pub struct FabricNet {
    params: NetParams,
    msp: Arc<Msp>,
    peers: Vec<PeerNode>,
    channels: Vec<ChannelRuntime>,
    /// Current members per channel (spec members ± churn): the ground
    /// truth, which an attached attacker may read.
    members: Vec<Vec<PeerId>>,
    /// What attached behaviors draw from — never the engine's generator,
    /// so attaching one re-rolls no honest draw.
    attack_rng: StdRng,
    orderer: OrderingService,
    /// Per channel, what the ordering service delivered and to whom it
    /// streams.
    feeds: Vec<Feed>,
    /// The client's invocations in issue order: plain 24-byte rows of a
    /// time and a number, so the schedule holds nothing on the heap
    /// beyond its one buffer.
    schedule: Vec<ScheduledInvocation>,
    next_invocation: usize,
    issued: u64,
    endorse_failures: u64,
    /// Endorsed transactions collected per in-flight proposal.
    pending_endorsements: std::collections::BTreeMap<usize, Vec<Transaction>>,
    /// Proposals discarded because endorsers returned mismatched read sets.
    proposal_conflicts: u64,
    /// Every run metric, folded from the peers' traces and the host's
    /// own facts.
    recorder: Recorder,
}

impl FabricNet {
    /// Seed of the generator attached [`Byzantine`] behaviors draw from.
    pub const ATTACK_SEED: u64 = 4242;

    /// Builds the deployment. The network config passed to the simulation
    /// must have `params.peers + 2` nodes; a deployment with an empty
    /// `schedule` never addresses the orderer or the client and runs over
    /// `params.peers` nodes just as well.
    ///
    /// An empty `schedule` also means no client depends on the endorsers:
    /// a channel may then have none, and any member may leave or crash
    /// (a scripted deployment — blocks come from [`FabricNet::inject`],
    /// membership changes from [`FabricNet::apply_churn`] and its
    /// siblings).
    ///
    /// # Panics
    ///
    /// Panics on invalid gossip configuration, a channel spec whose
    /// members or endorsers fall outside the deployment, non-dense channel
    /// ids, churn events targeting multi-organization channels, or any
    /// churn event at all under [`DiscoveryMode::Static`].
    pub fn new(params: NetParams, schedule: Vec<ScheduledInvocation>) -> Self {
        let specs = params.channel_specs();
        for (c, spec) in specs.iter().enumerate() {
            assert_eq!(
                spec.channel.index(),
                c,
                "channel ids must be dense: spec {c} names {}",
                spec.channel
            );
            assert!(
                !spec.members.is_empty(),
                "channel {} has no members",
                spec.channel
            );
            assert!(
                spec.members.iter().all(|p| p.index() < params.peers),
                "channel {} member outside the deployment",
                spec.channel
            );
            assert!(
                schedule.is_empty() || !spec.endorsers.is_empty(),
                "channel {} needs at least one endorsing peer",
                spec.channel
            );
            assert!(
                spec.endorsers.iter().all(|e| spec.members.contains(e)),
                "channel {} endorsers must be members",
                spec.channel
            );
            assert!(
                spec.orgs >= 1 && spec.orgs <= spec.members.len(),
                "channel {} needs 1..=members organizations",
                spec.channel
            );
            assert!(
                spec.members.windows(2).all(|w| w[0] < w[1]),
                "channel {} members must be listed in ascending id order",
                spec.channel
            );
        }
        for ev in &params.churn {
            let spec = specs
                .get(ev.channel.index())
                .unwrap_or_else(|| panic!("churn targets unknown channel {}", ev.channel));
            assert!(
                spec.orgs == 1,
                "churned channel {} must be single-organization",
                ev.channel
            );
            assert!(
                ev.peer.index() < params.peers,
                "churn peer {} outside the deployment",
                ev.peer
            );
            assert!(
                ev.action == ChurnAction::Join || may_leave(spec, &schedule, ev.peer),
                "churn must not remove endorser {} from channel {}",
                ev.peer,
                ev.channel
            );
        }

        assert_eq!(
            params.discovery == DiscoveryMode::Protocol,
            params.gossip.discovery.protocol,
            "discovery mode and gossip config must agree: DiscoveryMode::Protocol requires \
             gossip.discovery.protocol (and vice versa)"
        );
        assert!(
            params.churn.is_empty() || params.discovery == DiscoveryMode::Protocol,
            "{STATIC_MEMBERSHIP}: {} churn events were scheduled",
            params.churn.len()
        );

        // MSP identities follow the default channel's organization split,
        // as in the historical single-channel deployment.
        let mut msp = Msp::new();
        let per_org = params.peers.div_ceil(params.orgs);
        for id in (0..params.peers as u32).map(PeerId) {
            msp.enroll(id, fabric_types::ids::OrgId((id.index() / per_org) as u16));
        }
        let msp = Arc::new(msp);

        // Per-channel runtime state. The latency matrix covers everyone
        // who is ever a member: initial members first (so single-channel
        // slots are the identity map), then scheduled joiners.
        let channels: Vec<ChannelRuntime> = specs
            .into_iter()
            .map(|spec| {
                let mut eligible = spec.members.clone();
                for ev in &params.churn {
                    if ev.channel == spec.channel
                        && ev.action == ChurnAction::Join
                        && !eligible.contains(&ev.peer)
                    {
                        eligible.push(ev.peer);
                    }
                }
                let mut slots = vec![None; params.peers];
                for (slot, member) in eligible.iter().enumerate() {
                    slots[member.index()] = Some(slot);
                }
                let mut org_of = vec![None; params.peers];
                for (org, roster) in spec.org_rosters().enumerate() {
                    roster.iter().for_each(|m| org_of[m.index()] = Some(org));
                }
                for joiner in &eligible[spec.members.len()..] {
                    org_of[joiner.index()] = Some(0);
                }
                ChannelRuntime {
                    slots,
                    org_of,
                    spec,
                }
            })
            .collect();

        // Gossip peers: one instance per (member, channel), built in one
        // step over the member's organization and the channel's members.
        let org_rosters: Vec<Vec<&[PeerId]>> = channels
            .iter()
            .map(|rt| rt.spec.org_rosters().collect())
            .collect();
        let peers: Vec<PeerNode> = (0..params.peers as u32)
            .map(PeerId)
            .map(|id| {
                let mut gossip = GossipPeer::with_channels(id, params.gossip.clone());
                let mut ledgers = Vec::new();
                for (rt, orgs) in channels.iter().zip(&org_rosters) {
                    let spec = &rt.spec;
                    // A scheduled joiner's slot follows the initial members'.
                    match (rt.slots[id.index()], rt.org_of[id.index()]) {
                        (Some(slot), Some(org)) if slot < spec.members.len() => {
                            gossip = gossip.join_channel(spec.channel, orgs[org], &spec.members)
                        }
                        _ => continue,
                    }
                    if params.full_ledgers || spec.endorsers.contains(&id) {
                        let ledger = channel_ledger(&msp, spec, &params.gossip, None)
                            .expect("only a snapshot can fail verification");
                        ledgers.push((spec.channel, ledger));
                    }
                }
                PeerNode {
                    gossip,
                    ledgers,
                    pending_commits: VecDeque::new(),
                    validation_free: Time::ZERO,
                    byzantine: None,
                }
            })
            .collect();

        let mut orderer = OrderingService::new(params.orderer.clone(), Block::genesis().hash(), 1);
        for rt in &channels[1..] {
            orderer.add_channel(rt.spec.channel, Block::genesis().hash(), 1);
        }
        FabricNet {
            recorder: Recorder::new(&channels),
            params,
            msp,
            peers,
            members: channels.iter().map(|rt| rt.spec.members.clone()).collect(),
            feeds: channels.iter().map(|rt| Feed::new(rt.spec.orgs)).collect(),
            channels,
            attack_rng: StdRng::seed_from_u64(Self::ATTACK_SEED),
            orderer,
            schedule,
            next_invocation: 0,
            issued: 0,
            endorse_failures: 0,
            pending_endorsements: std::collections::BTreeMap::new(),
            proposal_conflicts: 0,
        }
    }

    /// The node id of the ordering service.
    pub fn orderer_node(&self) -> NodeId {
        NodeId(self.params.peers as u32)
    }

    /// The node id of the client.
    pub fn client_node(&self) -> NodeId {
        NodeId(self.params.peers as u32 + 1)
    }

    /// Total nodes the network config must provide.
    pub fn node_count(params: &NetParams) -> usize {
        params.peers + 2
    }

    /// The experiment parameters.
    pub fn params(&self) -> &NetParams {
        &self.params
    }

    /// Proposals issued by the client so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Endorsement failures observed (should stay zero).
    pub fn endorse_failures(&self) -> u64 {
        self.endorse_failures
    }

    /// Proposals the client discarded because endorsers disagreed on read
    /// versions (proposal-time conflicts, §II-C).
    pub fn proposal_conflicts(&self) -> u64 {
        self.proposal_conflicts
    }

    /// Blocks cut by the ordering service across every channel.
    pub fn blocks_cut(&self) -> u64 {
        self.orderer.blocks_cut()
    }

    /// Blocks cut on `channel`.
    pub fn blocks_cut_on(&self, channel: ChannelId) -> u64 {
        self.orderer.blocks_cut_on(channel)
    }

    /// The default channel's latency matrix (t0 = leader reception).
    pub fn latency(&self) -> &LatencyRecorder {
        &self.recorder.channels[0].latency
    }

    /// The latency matrix of `channel`, if it exists. Slots follow the
    /// channel's initial member order, scheduled joiners appended.
    pub fn latency_on(&self, channel: ChannelId) -> Option<&LatencyRecorder> {
        self.recorder
            .channels
            .get(channel.index())
            .map(|c| &c.latency)
    }

    /// `peer`'s slot in `channel`'s latency matrix, if it is ever a member.
    pub fn latency_slot_on(&self, channel: ChannelId, peer: PeerId) -> Option<usize> {
        self.channels.get(channel.index())?.slots[peer.index()]
    }

    /// The current members of `channel` (spec members ± churn).
    pub fn members_on(&self, channel: ChannelId) -> &[PeerId] {
        &self.members[channel.index()]
    }

    /// Leadership acquisitions observed on `channel`, one per hand-off: a
    /// successor claiming the seat under gossiped discovery, or a rebooted
    /// static-roster leader taking its seat back. Seats held from the start
    /// are seeded at build time, not acquired, and count nothing.
    pub fn handoffs_on(&self, channel: ChannelId) -> u64 {
        self.recorder.channels[channel.index()].handoffs
    }

    /// Catch-up records of every runtime join so far, in event order.
    pub fn catchups(&self) -> &[Catchup] {
        &self.recorder.catchups
    }

    /// Discovery-convergence records of `channel`'s churn events, in event
    /// order.
    pub fn convergence_on(&self, channel: ChannelId) -> &[ViewConvergence] {
        &self.recorder.channels[channel.index()].convergence
    }

    /// Closed leadership-gap windows of `channel` (leader leave or
    /// power-off → the next claim), in event order.
    pub fn leader_gaps_on(&self, channel: ChannelId) -> &[Duration] {
        &self.recorder.channels[channel.index()].leader_gaps
    }

    /// Reaps observed on `channel` of a peer the ground truth still lists
    /// as a member: one per observing view, counted from the leave
    /// observations discovery reports.
    pub fn false_reaps_on(&self, channel: ChannelId) -> u64 {
        self.recorder.channels[channel.index()].false_reaps
    }

    /// Whether `channel` currently has an unclosed leadership gap.
    pub fn leader_gap_open_on(&self, channel: ChannelId) -> bool {
        self.recorder.channels[channel.index()].gap_open.is_some()
    }

    /// The gossip state of peer `i`.
    pub fn gossip(&self, i: usize) -> &GossipPeer {
        &self.peers[i].gossip
    }

    /// The default-channel ledger of peer `i`, if it maintains one.
    pub fn ledger(&self, i: usize) -> Option<&Ledger> {
        self.peers[i].ledger(ChannelId::DEFAULT)
    }

    /// The ledger peer `i` maintains for `channel`, if any.
    pub fn ledger_on(&self, i: usize, channel: ChannelId) -> Option<&Ledger> {
        self.peers[i].ledger(channel)
    }

    /// Blocks committed (delivered in order) by peer `i`, summed over its
    /// channels.
    pub fn committed(&self, i: usize) -> u64 {
        self.recorder.channels.iter().map(|c| c.committed[i]).sum()
    }

    /// Blocks peer `i` committed on `channel`.
    pub fn committed_on(&self, i: usize, channel: ChannelId) -> u64 {
        self.recorder
            .channels
            .get(channel.index())
            .map_or(0, |c| c.committed[i])
    }

    /// Turns peer `i` into a free-rider (or back): it keeps receiving and
    /// serving requests but stops forwarding (see
    /// [`GossipPeer::set_forwarding`]). Call before `start`.
    pub fn set_forwarding(&mut self, i: usize, forwarding: bool) {
        self.peers[i].gossip.set_forwarding(forwarding);
    }

    /// Commit errors across all peers (chain violations; should be zero).
    pub fn commit_errors(&self) -> u64 {
        self.recorder.commit_errors
    }

    /// Every peer currently claiming leadership on `channel`, in id order
    /// (normally one per organization).
    pub fn current_leaders_on(&self, channel: ChannelId) -> Vec<PeerId> {
        self.peers
            .iter()
            .filter(|p| p.gossip.is_leader_on(channel))
            .map(|p| p.gossip.id())
            .collect()
    }

    /// The organization (by index) of a peer on the default channel, per
    /// the contiguous split.
    pub fn org_of(&self, peer: PeerId) -> usize {
        self.channels[0].org_of[peer.index()].expect("every peer is on the default channel")
    }

    /// Hands `fact` about `peer` on `channel` to the recorder, at `now`.
    fn record(&mut self, now: Time, peer: PeerId, channel: ChannelId, fact: Fact) {
        let members = &self.members[channel.index()];
        self.recorder
            .record(&self.channels, members, now, peer, channel, fact);
    }

    /// Attaches `behavior` to `peer` (replacing any previous one). The
    /// peer keeps running the honest protocol; the behavior sits on its
    /// wire: every send of the peer passes through
    /// [`Byzantine::on_outbound`], every delivery to it is shown to
    /// [`Byzantine::on_inbound`], and each of its gossip timers ends with
    /// [`Byzantine::on_step`]. With nothing attached each of the three
    /// costs one branch.
    pub fn set_byzantine(&mut self, peer: PeerId, behavior: Box<dyn Byzantine>) {
        self.peers[peer.index()].byzantine = Some(behavior);
    }

    /// Detaches the behavior of `peer`, if any.
    pub fn clear_byzantine(&mut self, peer: PeerId) {
        self.peers[peer.index()].byzantine = None;
    }

    /// Publishes `snapshot` as the one `peer` serves on `channel` (what
    /// [`NetTimer::CommitDone`] does when the peer's own ledger emits a
    /// checkpoint). Returns whether the peer adopted it (see
    /// [`GossipPeer::publish_snapshot_on`]).
    pub fn publish_snapshot(
        &mut self,
        channel: ChannelId,
        peer: PeerId,
        snapshot: fabric_types::snapshot::SnapshotRef,
    ) -> bool {
        self.peers[peer.index()]
            .gossip
            .publish_snapshot_on(channel, snapshot)
    }
}

/// The one place a member's ledger for `spec`'s channel is built: from
/// genesis, or stood up from `from` once it verifies. With snapshots off
/// it never checkpoints (the byte-identical historical pipeline); with
/// them on it checkpoints every [`SnapshotConfig::interval`] blocks, each
/// checkpoint the export it serves until the next, so the served snapshot
/// is the newest boundary the ledger passed.
///
/// [`SnapshotConfig::interval`]: fabric_gossip::config::SnapshotConfig::interval
fn channel_ledger(
    msp: &Arc<Msp>,
    spec: &ChannelSpec,
    gossip: &GossipConfig,
    from: Option<SnapshotRef>,
) -> Result<Ledger, SnapshotError> {
    let ledger = match from {
        None => Ledger::new(msp.clone(), spec.policy.clone()),
        Some(snapshot) => Ledger::from_snapshot(msp.clone(), spec.policy.clone(), snapshot)?,
    };
    Ok(match &gossip.snapshot {
        Some(s) => ledger.with_checkpoints(s.interval),
        None => ledger,
    })
}

#[cfg(test)]
mod tests {
    use std::mem::{needs_drop, size_of};

    use fabric_workload::schedule::ScheduledInvocation;

    /// The client's schedule is plain data: a row holds a time and the
    /// number its endorser renders into a key, so nothing is allocated
    /// behind it at set-up and nothing is left to release once it is
    /// endorsed.
    #[test]
    fn held_once_scheduled_invocation_is_plain_data() {
        assert_eq!(size_of::<ScheduledInvocation>(), 24);
        assert!(!needs_drop::<ScheduledInvocation>());
    }
}
