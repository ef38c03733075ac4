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
//! configured latency; cut blocks go to the channel's current leader(s),
//! and the channel's gossip instance takes it from there. Every peer pays
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

use std::collections::VecDeque;
use std::sync::Arc;

use desim::{Ctx, Duration, NodeId, Time};
use fabric_gossip::config::GossipConfig;
use fabric_gossip::effects::Effects;
use fabric_gossip::messages::{ChannelMsg, GossipMsg, GossipTimer};
use fabric_gossip::peer::GossipPeer;
use fabric_gossip::scenario::{AttackCtx, Byzantine};
use fabric_ledger::ledger::{Ledger, SnapshotPolicy};
use fabric_orderer::service::{OrdererConfig, OrderingService};
use fabric_types::block::{Block, BlockRef};
use fabric_types::ids::{ChannelId, ClientId, PeerId, TxId};
use fabric_types::msp::Msp;
use fabric_types::transaction::{EndorsementPolicy, Transaction};
use fabric_workload::client::endorse_invocation;
use fabric_workload::schedule::ScheduledInvocation;
use gossip_metrics::latency::LatencyRecorder;
use rand::rngs::StdRng;
use rand::SeedableRng;

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
        match self {
            NetMsg::Gossip(g) => g.kind(),
            NetMsg::Propose { .. } => "propose",
            NetMsg::Endorsed { .. } => "endorsed",
            NetMsg::Submit { .. } => "submit",
            NetMsg::DeliverBlock { .. } => "orderer-deliver",
        }
    }

    fn kind_id(&self) -> desim::KindId {
        // Cached interning: the engine records a kind id per send, so the
        // default (registry lookup per call) would put a lock on the hot
        // path.
        struct PipelineKindIds {
            propose: desim::KindId,
            endorsed: desim::KindId,
            submit: desim::KindId,
            deliver: desim::KindId,
        }
        static IDS: std::sync::OnceLock<PipelineKindIds> = std::sync::OnceLock::new();
        let ids = IDS.get_or_init(|| PipelineKindIds {
            propose: desim::KindId::intern("propose"),
            endorsed: desim::KindId::intern("endorsed"),
            submit: desim::KindId::intern("submit"),
            deliver: desim::KindId::intern("orderer-deliver"),
        });
        match self {
            NetMsg::Gossip(g) => g.kind_id(),
            NetMsg::Propose { .. } => ids.propose,
            NetMsg::Endorsed { .. } => ids.endorsed,
            NetMsg::Submit { .. } => ids.submit,
            NetMsg::DeliverBlock { .. } => ids.deliver,
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
        /// Index into [`NetParams::churn`].
        index: usize,
    },
}

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

    /// Time from join until the peer serves the join-time head — the
    /// report-facing name for [`Catchup::latency`].
    pub fn time_to_serving(&self) -> Option<Duration> {
        self.latency()
    }
}

/// Discovery-convergence record of one churn event: how the news of a
/// join (or leave) spread through the sitting members' views.
///
/// For a **join**, an observation is the instant a member's discovery
/// engine admitted the joiner (the `discovery_event(..., joined = true)`
/// hook). For a **leave**, it is the instant a member reaped the leaver
/// (`joined = false`) — so the full-convergence latency of a leave *is*
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
    /// CPU cost of simulating + signing one endorsement.
    pub endorse_cost: Duration,
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
    /// (the historical shape) joins every peer of the deployment; sharded
    /// runners set an explicit subset so a shard-local default channel can
    /// coexist with other channels over the same peer pool.
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
    /// Runtime joiners enter knowing **one anchor peer** (the channel's
    /// lowest-id sitting member) instead of the full roster, and learn the
    /// rest through discovery push-pull.
    pub anchor_join: bool,
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
            endorse_cost: Duration::from_millis(2),
            endorsers: vec![PeerId(1)],
            full_ledgers: false,
            policy: EndorsementPolicy::AnyMember,
            default_members: None,
            extra_channels: Vec::new(),
            churn: Vec::new(),
            discovery,
            anchor_join: false,
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
    /// Per-(block, member-slot) dissemination latency (t0 = leader
    /// reception).
    latency: LatencyRecorder,
    /// Leadership acquisitions observed on this channel (initial election
    /// plus every hand-off).
    handoffs: u64,
    /// Discovery-convergence records of the channel's churn events.
    convergence: Vec<ViewConvergence>,
    /// Instant a leader-leave opened a leadership gap, until the next
    /// acquisition closes it.
    gap_open: Option<Time>,
    /// Closed leadership-gap windows (leader leave → successor claim).
    leader_gaps: Vec<Duration>,
}

struct PeerNode {
    gossip: GossipPeer,
    /// One ledger per channel this peer endorses on (or every joined
    /// channel under `full_ledgers`).
    ledgers: Vec<(ChannelId, Ledger)>,
    /// Blocks fully committed (validated + applied or counted), per
    /// channel.
    committed: std::collections::BTreeMap<ChannelId, u64>,
    /// Commit failures (chain violations) — should stay zero.
    commit_errors: u64,
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
    schedule: Arc<Vec<ScheduledInvocation>>,
    next_invocation: usize,
    issued: u64,
    endorse_failures: u64,
    /// Endorsed transactions collected per in-flight proposal.
    pending_endorsements: std::collections::BTreeMap<usize, Vec<Transaction>>,
    /// Proposals discarded because endorsers returned mismatched read sets.
    proposal_conflicts: u64,
    /// Catch-up records, one per runtime join, in event order.
    catchups: Vec<Catchup>,
}

impl std::fmt::Debug for PeerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PeerNode")
            .field("peer", &self.gossip.id())
            .field("committed", &self.committed)
            .finish_non_exhaustive()
    }
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
                let per_org = spec.members.len().div_ceil(spec.orgs);
                for (pos, member) in spec.members.iter().enumerate() {
                    org_of[member.index()] = Some(pos / per_org);
                }
                for joiner in &eligible[spec.members.len()..] {
                    org_of[joiner.index()] = Some(0);
                }
                let latency = LatencyRecorder::new(eligible.len());
                ChannelRuntime {
                    slots,
                    org_of,
                    latency,
                    handoffs: 0,
                    convergence: Vec::new(),
                    gap_open: None,
                    leader_gaps: Vec::new(),
                    spec,
                }
            })
            .collect();

        // Gossip peers: one instance per (member, channel), organization
        // rosters confined per channel, channel views widened to the full
        // membership.
        let peers: Vec<PeerNode> = (0..params.peers as u32)
            .map(PeerId)
            .map(|id| {
                let mut gossip = GossipPeer::with_channels(id, params.gossip.clone());
                let mut ledgers = Vec::new();
                for rt in &channels {
                    let spec = &rt.spec;
                    if !spec.members.contains(&id) {
                        continue;
                    }
                    let per_org = spec.members.len().div_ceil(spec.orgs);
                    let pos = spec.members.iter().position(|m| *m == id).expect("member");
                    let org_lo = (pos / per_org) * per_org;
                    let org_hi = (org_lo + per_org).min(spec.members.len());
                    let org_roster: Vec<PeerId> = spec.members[org_lo..org_hi].to_vec();
                    gossip = gossip
                        .join_channel(spec.channel, org_roster)
                        .widen_channel_view(spec.channel, spec.members.clone());
                    if params.full_ledgers || spec.endorsers.contains(&id) {
                        let mut ledger = Ledger::new(msp.clone(), spec.policy.clone());
                        if let Some(policy) = ledger_snapshot_policy(&params.gossip) {
                            ledger = ledger.with_snapshot_policy(policy);
                        }
                        ledgers.push((spec.channel, ledger));
                    }
                }
                PeerNode {
                    gossip,
                    ledgers,
                    committed: std::collections::BTreeMap::new(),
                    commit_errors: 0,
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
            params,
            msp,
            peers,
            members: channels.iter().map(|rt| rt.spec.members.clone()).collect(),
            channels,
            attack_rng: StdRng::seed_from_u64(Self::ATTACK_SEED),
            orderer,
            schedule: Arc::new(schedule),
            next_invocation: 0,
            issued: 0,
            endorse_failures: 0,
            pending_endorsements: std::collections::BTreeMap::new(),
            proposal_conflicts: 0,
            catchups: Vec::new(),
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
        &self.channels[0].latency
    }

    /// The latency matrix of `channel`, if it exists. Slots follow the
    /// channel's initial member order, scheduled joiners appended.
    pub fn latency_on(&self, channel: ChannelId) -> Option<&LatencyRecorder> {
        self.channels.get(channel.index()).map(|rt| &rt.latency)
    }

    /// The current members of `channel` (spec members ± churn).
    pub fn members_on(&self, channel: ChannelId) -> &[PeerId] {
        &self.members[channel.index()]
    }

    /// Leadership acquisitions observed on `channel`: the initial election
    /// under dynamic election (static leaders are seeded, not elected)
    /// plus one per hand-off.
    pub fn handoffs_on(&self, channel: ChannelId) -> u64 {
        self.channels[channel.index()].handoffs
    }

    /// Catch-up records of every runtime join so far, in event order.
    pub fn catchups(&self) -> &[Catchup] {
        &self.catchups
    }

    /// Discovery-convergence records of `channel`'s churn events, in event
    /// order.
    pub fn convergence_on(&self, channel: ChannelId) -> &[ViewConvergence] {
        &self.channels[channel.index()].convergence
    }

    /// Closed leadership-gap windows of `channel` (leader leave →
    /// successor claim), in event order.
    pub fn leader_gaps_on(&self, channel: ChannelId) -> &[Duration] {
        &self.channels[channel.index()].leader_gaps
    }

    /// Whether `channel` currently has an unclosed leadership gap.
    pub fn leader_gap_open_on(&self, channel: ChannelId) -> bool {
        self.channels[channel.index()].gap_open.is_some()
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
        self.peers[i].committed.values().sum()
    }

    /// Blocks peer `i` committed on `channel`.
    pub fn committed_on(&self, i: usize, channel: ChannelId) -> u64 {
        self.peers[i].committed.get(&channel).copied().unwrap_or(0)
    }

    /// Turns peer `i` into a free-rider (or back): it keeps receiving and
    /// serving requests but stops forwarding (see
    /// [`GossipPeer::set_forwarding`]). Call before `start`.
    pub fn set_forwarding(&mut self, i: usize, forwarding: bool) {
        self.peers[i].gossip.set_forwarding(forwarding);
    }

    /// Commit errors across all peers (chain violations; should be zero).
    pub fn commit_errors(&self) -> u64 {
        self.peers.iter().map(|p| p.commit_errors).sum()
    }

    /// The id of the peer currently acting as leader on the default
    /// channel, if any (first claimant in a multi-organization
    /// deployment).
    pub fn current_leader(&self) -> Option<PeerId> {
        self.current_leaders_on(ChannelId::DEFAULT).first().copied()
    }

    /// Every peer currently claiming leadership on the default channel
    /// (normally one per organization).
    pub fn current_leaders(&self) -> Vec<PeerId> {
        self.current_leaders_on(ChannelId::DEFAULT)
    }

    /// Every peer currently claiming leadership on `channel`.
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

    /// Splits the borrows one peer's handler needs, once: the peer's
    /// gossip state, and the [`Effects`] it runs against — with the
    /// peer's attached behavior, if any, on the outbound edge.
    #[inline]
    fn peer_fx<'a, 'c>(
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
            pending_commits,
            validation_free,
            ledgers,
            msp: &self.msp,
            channels: &mut self.channels,
            validation_per_tx: self.params.validation_per_tx,
            snapshot_policy: ledger_snapshot_policy(&self.params.gossip),
            edge,
        };
        (gossip, fx)
    }

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

    /// Marks pending catch-ups of this peer complete once its contiguous
    /// height covers the join-time head, recording how the head was
    /// reached: blocks individually replayed vs absorbed through a
    /// snapshot.
    fn check_catchups(&mut self, node: NodeId, now: Time) {
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

    /// Applies one churn event, now (`ev.at` is when a *scheduled* event
    /// is due; here it is not read): a runtime join — through the
    /// channel's lowest-id member alone under
    /// [`NetParams::anchor_join`], else knowing the whole sitting
    /// membership — or a leave.
    pub fn apply_churn(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>, ev: ChurnEvent) {
        match ev.action {
            ChurnAction::Join => {
                let sitting = &self.members[ev.channel.index()];
                let seeds = match sitting.iter().min() {
                    Some(anchor) if self.params.anchor_join => vec![*anchor],
                    _ => sitting.clone(),
                };
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
            let mut ledger = Ledger::new(self.msp.clone(), self.channels[c].spec.policy.clone());
            if let Some(policy) = ledger_snapshot_policy(&self.params.gossip) {
                ledger = ledger.with_snapshot_policy(policy);
            }
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
    /// join names, and no other. (Taking a node down and up through the
    /// engine, [`Ctx::set_node_status_after`], is a reboot into the same
    /// channels, not a membership change, and works on static rosters.)
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
        self.on_node_down(node);
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
    /// and the RAM-only commit queue.
    fn on_node_down(&mut self, node: NodeId) {
        let peer = &mut self.peers[node.index()];
        peer.gossip.on_crash();
        peer.pending_commits.clear();
        peer.validation_free = Time::ZERO;
    }

    fn handle_propose(&mut self, ctx: &mut Ctx<'_, NetMsg, NetTimer>, to: NodeId, index: usize) {
        let invocation = self.schedule[index].clone();
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
        match endorse_invocation(&invocation, tx_id, ClientId(0), endorser, state, &self.msp) {
            Ok(tx) => {
                ctx.occupy(to, self.params.endorse_cost);
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
        let collected = self
            .pending_endorsements
            .remove(&index)
            .expect("just inserted");
        let first = &collected[0];
        let consistent = collected.iter().all(|t| t.rwset == first.rwset);
        if !consistent {
            // Version numbers differ across endorsements: the client
            // detects the mismatch, wastes the round trip, and must try
            // again later (not modeled — the paper's experiment does not
            // resubmit either).
            self.proposal_conflicts += 1;
            return;
        }
        // Identical read/write sets mean identical digests: merge every
        // endorser's signature into one proposal.
        let mut merged = collected[0].clone();
        for other in &collected[1..] {
            merged
                .endorsements
                .extend(other.endorsements.iter().copied());
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
            // Some organization has no live leader (election in progress):
            // retry shortly, like a leader re-connecting to the ordering
            // service would. Re-delivery to covered organizations is
            // harmless — peers deduplicate content.
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
            self.on_node_down(node);
            return;
        }
        // A rebooted peer re-arms its periodic timers (its old ones died
        // with it — the engine drops timers of down nodes) and re-validates
        // any stored blocks whose in-flight validation the crash destroyed.
        let validation = self.params.validation_per_tx;
        let PeerNode {
            gossip,
            ledgers,
            pending_commits,
            validation_free,
            ..
        } = &mut self.peers[node.index()];
        for (channel, ledger) in ledgers.iter() {
            let Some(store) = gossip.store_on(*channel) else {
                continue;
            };
            for n in ledger.height()..store.height() {
                if let Some(block) = store.get(n) {
                    let cost = validation * block.txs.len() as u64;
                    let start = ctx.now().max(*validation_free);
                    let done = start + cost;
                    *validation_free = done;
                    pending_commits.push_back((*channel, block.clone()));
                    ctx.set_timer(node, done.since(ctx.now()), NetTimer::CommitDone);
                }
            }
        }
        let (gossip, mut fx) = self.peer_fx(ctx, node);
        gossip.init(&mut fx);
    }
}

/// The [`Effects`] adapter: a gossip peer's view of the simulation.
struct SimFx<'a, 'c> {
    ctx: &'a mut Ctx<'c, NetMsg, NetTimer>,
    me: NodeId,
    pending_commits: &'a mut VecDeque<(ChannelId, BlockRef)>,
    validation_free: &'a mut Time,
    ledgers: &'a mut Vec<(ChannelId, Ledger)>,
    msp: &'a Arc<Msp>,
    channels: &'a mut [ChannelRuntime],
    validation_per_tx: Duration,
    snapshot_policy: Option<SnapshotPolicy>,
    /// The behavior attached to this peer, if any: every send passes
    /// through it.
    edge: Option<Edge<'a>>,
}

impl SimFx<'_, '_> {
    /// Gives the attached behavior, if any, a turn — a send of the peer's
    /// to transform, a delivery to wiretap, a timer of its own — and puts
    /// what it returns on the wire as sent by this peer.
    #[inline]
    fn byzantine_turn(
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

/// What every refusal of a runtime membership change on a static roster
/// says first.
const STATIC_MEMBERSHIP: &str =
    "the rosters handed at build time are the membership for the whole \
     run (DiscoveryMode::Static); build the gossip configuration with \
     GossipConfig::with_discovery_protocol() to let peers join, leave or crash";

/// Endorsers are a channel's execution substrate: their ledgers freeze on
/// leave while the client keeps proposing to them, which would quietly
/// corrupt every later read set. Without a schedule there is no client,
/// and any member may go.
fn may_leave(spec: &ChannelSpec, schedule: &[ScheduledInvocation], peer: PeerId) -> bool {
    schedule.is_empty() || !spec.endorsers.contains(&peer)
}

/// The ledger-side snapshot policy implied by a gossip config: `None`
/// with snapshots off (checkpoint-free ledgers, the byte-identical
/// historical pipeline); otherwise a delta per checkpoint and a full
/// export every second one, so per-checkpoint retention stays flat as
/// state grows.
fn ledger_snapshot_policy(g: &GossipConfig) -> Option<SnapshotPolicy> {
    g.snapshot
        .enabled
        .then(|| SnapshotPolicy::delta(g.snapshot.interval, 2))
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

    fn block_received(&mut self, channel: ChannelId, block_num: u64) {
        let rt = &mut self.channels[channel.index()];
        if let Some(slot) = rt.slots[self.me.index()] {
            rt.latency.record(block_num, slot, self.ctx.now());
        }
    }

    fn deliver(&mut self, channel: ChannelId, block: BlockRef) {
        // "New blocks are only used by peers after their validation, which
        // takes a time proportional to the number of transactions" (§V-D):
        // the block's writes become visible — and the endorser starts
        // reading them — only once the serial validation pipeline has
        // chewed through it. Proposals endorsed in the meantime read the
        // pre-commit state, exactly the window that produces conflicts.
        let cost = self.validation_per_tx * block.txs.len() as u64;
        let now = self.ctx.now();
        let start = now.max(*self.validation_free);
        let done = start + cost;
        *self.validation_free = done;
        self.pending_commits.push_back((channel, block));
        self.ctx
            .set_timer(self.me, done.since(now), NetTimer::CommitDone);
    }

    fn leadership_changed(&mut self, channel: ChannelId, is_leader: bool) {
        if is_leader {
            let rt = &mut self.channels[channel.index()];
            rt.handoffs += 1;
            if let Some(opened) = rt.gap_open.take() {
                rt.leader_gaps.push(self.ctx.now().since(opened));
            }
        }
    }

    fn snapshot_installed(
        &mut self,
        channel: ChannelId,
        snapshot: &fabric_types::snapshot::SnapshotRef,
    ) {
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
        let policy = self.channels[channel.index()].spec.policy.clone();
        if let Ok(ledger) = Ledger::from_snapshot_with_policy(
            self.msp.clone(),
            policy,
            snapshot.clone(),
            self.snapshot_policy,
        ) {
            entry.1 = ledger;
        }
    }

    fn discovery_event(&mut self, channel: ChannelId, peer: PeerId, joined: bool) {
        // This member's view just admitted (or reaped) `peer`: complete
        // the oldest matching convergence record that still waits on us.
        let me = PeerId(self.me.0);
        let now = self.ctx.now();
        let rt = &mut self.channels[channel.index()];
        if let Some(record) = rt.convergence.iter_mut().find(|r| {
            r.peer == peer
                && r.join == joined
                && r.expected.contains(&me)
                && !r.observed.iter().any(|(p, _)| *p == me)
        }) {
            record.observed.push((me, now));
        }
    }
}
