//! The Byzantine catalog: what a compromised peer can do to its own wire.
//!
//! A [`Byzantine`] behavior is attached to one peer of a deployment by
//! the host that runs it (`fabric_experiments::net::FabricNet::set_byzantine`;
//! the scenario layer on top is `fabric_experiments::scenario::ScenarioNet`).
//! The peer keeps running the honest protocol; the host consults the
//! behavior on the peer's outbound edge ([`Byzantine::on_outbound`]: drop,
//! rewrite, amplify), on every delivery to it ([`Byzantine::on_inbound`]:
//! wiretap and inject) and after each of its gossip timers
//! ([`Byzantine::on_step`]: inject). Nothing here knows which host that
//! is — the hooks take an [`AttackCtx`] and return messages.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use desim::Time;
use rand::rngs::StdRng;
use rand::RngExt;

use fabric_types::block::BlockRef;
use fabric_types::ids::{ChannelId, ClientId, PeerId, TxId};
use fabric_types::rwset::RwSet;
use fabric_types::transaction::Transaction;

use crate::messages::{GossipMsg, PeerAlive};

/// What a [`Byzantine`] behavior sees of the world when it acts: the
/// compromised peer's identity, the simulated clock, a deterministic
/// attacker-private RNG, and the ground-truth membership (an omniscient
/// attacker — the strongest adversary the guarantees must survive).
#[derive(Debug)]
pub struct AttackCtx<'a> {
    /// The compromised peer.
    pub self_id: PeerId,
    /// The simulated clock's current instant.
    pub now: Time,
    /// Attacker-private RNG, one per deployment and apart from the
    /// engine's: what an attacker draws never re-rolls an honest draw.
    pub rng: &'a mut StdRng,
    /// Ground-truth membership per channel.
    pub members: &'a [Vec<PeerId>],
}

impl AttackCtx<'_> {
    /// Current members of `channel` other than the attacker itself.
    pub fn honest(&self, channel: ChannelId) -> Vec<PeerId> {
        self.members
            .get(channel.0 as usize)
            .map(|m| m.iter().copied().filter(|p| *p != self.self_id).collect())
            .unwrap_or_default()
    }

    /// One uniformly random member of `channel` other than the attacker.
    pub fn pick(&mut self, channel: ChannelId) -> Option<PeerId> {
        let others = self.honest(channel);
        if others.is_empty() {
            None
        } else {
            Some(others[self.rng.random_range(0..others.len())])
        }
    }
}

/// A Byzantine behavior attached to one peer of a deployment.
///
/// The compromised peer still runs the honest protocol underneath; the
/// behavior sits on its wire. Default implementations are transparent,
/// so an attacker only overrides the hooks it needs. To add a new
/// attacker: implement this trait and add a row to the family table of
/// `fabric_experiments::adversarial` that attaches it, asserts which
/// guarantees survive it and measures what degrades. `Send`, because the
/// deployment it is attached to may run on a worker thread.
pub trait Byzantine: fmt::Debug + Send {
    /// Short stable name; reports list each attacked peer under it.
    fn name(&self) -> &'static str;

    /// Transforms one protocol-emitted outbound message. Return the
    /// messages to actually put on the wire: empty drops it, one passes
    /// or rewrites it, several amplify it.
    fn on_outbound(
        &mut self,
        ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let _ = ctx;
        vec![(channel, to, msg)]
    }

    /// Wiretaps one message delivered to the compromised peer (which
    /// still processes it normally). Returned messages are injected.
    fn on_inbound(
        &mut self,
        ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let _ = (ctx, channel, from, msg);
        Vec::new()
    }

    /// Fires after each of the attacker's own timers: a clocked chance to
    /// inject spontaneous traffic.
    fn on_step(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let _ = ctx;
        Vec::new()
    }
}

/// Passive wiretap shared by the attackers: records, per `(channel,
/// peer)`, the freshest and the stalest claim ever seen in any message
/// delivered to the compromised peer. The wire carries no
/// authentication, so whatever an attacker has heard it can re-emit —
/// verbatim (replay) or doctored (forgery).
#[derive(Debug, Default, Clone)]
pub struct ClaimIntel {
    freshest: BTreeMap<(u16, PeerId), PeerAlive>,
    stalest: BTreeMap<(u16, PeerId), PeerAlive>,
}

impl ClaimIntel {
    /// Records every claim carried by `msg`.
    pub fn observe(&mut self, channel: ChannelId, msg: &GossipMsg) {
        let claims: &[PeerAlive] = match msg {
            GossipMsg::AliveMsg(c) => std::slice::from_ref(c),
            GossipMsg::MembershipRequest { entries, .. }
            | GossipMsg::MembershipResponse { entries, .. } => entries,
            _ => return,
        };
        for c in claims {
            let key = (channel.0, c.peer);
            match self.freshest.get(&key) {
                Some(old) if !c.fresher_than(old) => {}
                _ => {
                    self.freshest.insert(key, *c);
                }
            }
            match self.stalest.get(&key) {
                Some(old) if !old.fresher_than(c) => {}
                _ => {
                    self.stalest.insert(key, *c);
                }
            }
        }
    }

    /// The freshest claim heard about `peer` on `channel`.
    pub fn freshest_of(&self, channel: ChannelId, peer: PeerId) -> Option<PeerAlive> {
        self.freshest.get(&(channel.0, peer)).copied()
    }

    /// The stalest claim heard per peer on `channel` — replay ammunition.
    pub fn stale_claims(&self, channel: ChannelId) -> Vec<PeerAlive> {
        self.stalest
            .iter()
            .filter(|((c, _), _)| *c == channel.0)
            .map(|(_, claim)| *claim)
            .collect()
    }
}

/// Attacker 1 — **stale-incarnation replay**: wiretaps every claim it
/// ever hears and keeps re-emitting the *stalest* version of each as
/// spoofed `AliveMsg`s. Against a correct merge (monotonic
/// `(incarnation, seq)` freshness, obituaries blocking anything not
/// strictly newer) the replays must be inert: in particular a reaped
/// peer's old claims must never resurrect it.
#[derive(Debug, Default)]
pub struct StaleReplayer {
    intel: ClaimIntel,
    burst: usize,
}

impl StaleReplayer {
    /// Replays each stale claim to `burst` random targets per step.
    pub fn new(burst: usize) -> Self {
        StaleReplayer {
            intel: ClaimIntel::default(),
            burst,
        }
    }
}

impl Byzantine for StaleReplayer {
    fn name(&self) -> &'static str {
        "stale-replay"
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.intel.observe(channel, msg);
        Vec::new()
    }

    fn on_step(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let mut out = Vec::new();
        for c in 0..ctx.members.len() {
            let channel = ChannelId(c as u16);
            for claim in self.intel.stale_claims(channel) {
                for _ in 0..self.burst {
                    if let Some(target) = ctx.pick(channel) {
                        out.push((channel, target, GossipMsg::AliveMsg(claim)));
                    }
                }
            }
        }
        out
    }
}

/// One forged obituary: `victim` declared dead at `incarnation` (deaths
/// win ties, so honest peers apply it), sent as an unsolicited
/// `MembershipResponse` to every member of `channel` but the attacker and
/// the victim — the longer the victim takes to find its own obituary, the
/// longer the disruption.
fn obituary_shot(
    ctx: &AttackCtx<'_>,
    channel: ChannelId,
    victim: PeerId,
    incarnation: u64,
    out: &mut Vec<(ChannelId, PeerId, GossipMsg)>,
) {
    let forged = PeerAlive {
        peer: victim,
        incarnation,
        seq: 0,
    };
    for target in ctx.honest(channel) {
        if target != victim {
            out.push((
                channel,
                target,
                GossipMsg::MembershipResponse {
                    entries: Vec::new(),
                    dead: vec![forged],
                },
            ));
        }
    }
}

/// Attacker 2 — **selective forwarding**: passes heartbeats but silently
/// drops every anti-entropy message (requests and responses) addressed
/// to the chosen targets. Convergence must survive on
/// redundancy — the targets still exchange views with everyone else —
/// but it measurably slows.
#[derive(Debug)]
pub struct SelectiveForwarder {
    targets: Vec<PeerId>,
}

impl SelectiveForwarder {
    /// Drops anti-entropy traffic toward `targets`.
    pub fn new(targets: Vec<PeerId>) -> Self {
        SelectiveForwarder { targets }
    }
}

impl Byzantine for SelectiveForwarder {
    fn name(&self) -> &'static str {
        "selective-forwarding"
    }

    fn on_outbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        if msg.is_membership_exchange() && self.targets.contains(&to) {
            Vec::new()
        } else {
            vec![(channel, to, msg)]
        }
    }
}

/// Attacker 3 — **flood amplification**: every heartbeat and
/// anti-entropy request it would send goes out `amplification`-fold to
/// random extra targets, and each timer fire re-broadcasts its own
/// freshest claim. Views and leadership must hold (the spam is
/// protocol-valid and idempotent); the measurable damage is discovery
/// byte inflation.
#[derive(Debug)]
pub struct Flooder {
    amplification: usize,
    intel: ClaimIntel,
}

impl Flooder {
    /// Amplifies discovery traffic `amplification`-fold.
    pub fn new(amplification: usize) -> Self {
        Flooder {
            amplification,
            intel: ClaimIntel::default(),
        }
    }
}

impl Byzantine for Flooder {
    fn name(&self) -> &'static str {
        "flood-amplification"
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.intel.observe(channel, msg);
        Vec::new()
    }

    fn on_outbound(
        &mut self,
        ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let amplifiable = matches!(
            msg,
            GossipMsg::AliveMsg(_) | GossipMsg::MembershipRequest { .. }
        );
        let mut out = vec![(channel, to, msg.clone())];
        if amplifiable {
            for _ in 1..self.amplification {
                if let Some(target) = ctx.pick(channel) {
                    out.push((channel, target, msg.clone()));
                }
            }
        }
        out
    }

    fn on_step(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let mut out = Vec::new();
        for c in 0..ctx.members.len() {
            let channel = ChannelId(c as u16);
            let Some(own) = self.intel.freshest_of(channel, ctx.self_id) else {
                continue;
            };
            for _ in 0..self.amplification {
                if let Some(target) = ctx.pick(channel) {
                    out.push((channel, target, GossipMsg::AliveMsg(own)));
                }
            }
        }
        out
    }
}

/// Attacker 4 — **eclipse**: the attacker answers a runtime joiner that
/// bootstrapped through it (the host's `join_via`) with an
/// attacker-only world: its anti-entropy toward the victim carries only
/// the attacker's own claim (the channel "is" just the two of them), and
/// its traffic toward honest peers is scrubbed of the victim's claims so
/// they never learn the joiner exists.
///
/// The eclipse **starves** rather than murders: forging obituaries for
/// the honest members would hand the victim a dead-map full of
/// tombstones, and the tombstone-probe machinery would then contact
/// exactly those "dead" peers — leaking the victim to the honest world
/// and collapsing the eclipse on its own. By showing the victim nothing
/// at all, it has nobody to probe. A fully eclipsed victim (no honest
/// bootstrap seed) therefore cannot escape; one honest seed breaks the
/// eclipse in measurable time, because the attacker only controls its
/// own wire.
#[derive(Debug)]
pub struct Eclipser {
    victim: PeerId,
    intel: ClaimIntel,
}

impl Eclipser {
    /// Eclipses `victim`.
    pub fn new(victim: PeerId) -> Self {
        Eclipser {
            victim,
            intel: ClaimIntel::default(),
        }
    }
}

impl Byzantine for Eclipser {
    fn name(&self) -> &'static str {
        "eclipse"
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.intel.observe(channel, msg);
        Vec::new()
    }

    fn on_outbound(
        &mut self,
        ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        if to == self.victim {
            // Any view the protocol would share with the victim is
            // replaced by the attacker-only world (no obituaries: a
            // tombstone would give the victim someone to probe).
            if msg.is_membership_exchange() {
                let entries: Vec<PeerAlive> = self
                    .intel
                    .freshest_of(channel, ctx.self_id)
                    .into_iter()
                    .collect();
                return vec![(
                    channel,
                    to,
                    GossipMsg::MembershipResponse {
                        entries,
                        dead: Vec::new(),
                    },
                )];
            }
            return vec![(channel, to, msg)];
        }
        // Toward honest peers: scrub every trace of the victim.
        let victim = self.victim;
        let scrub = |entries: Vec<PeerAlive>| -> Vec<PeerAlive> {
            entries.into_iter().filter(|c| c.peer != victim).collect()
        };
        let scrubbed = match msg {
            GossipMsg::AliveMsg(c) if c.peer == victim => return Vec::new(),
            GossipMsg::MembershipRequest { entries, dead } => GossipMsg::MembershipRequest {
                entries: scrub(entries),
                dead: scrub(dead),
            },
            GossipMsg::MembershipResponse { entries, dead } => GossipMsg::MembershipResponse {
                entries: scrub(entries),
                dead: scrub(dead),
            },
            other => other,
        };
        vec![(channel, to, scrubbed)]
    }
}

/// Zero-latency coordination between the members of a Byzantine
/// *coalition*: pooled wiretap intel plus a small board of named signals,
/// shared outside the gossip wire (colluding processes talk out of band).
/// Cloning the handle shares the underlying state, so every member wired
/// with the same `SideChannel` reads and writes one pool. One simulation
/// runs on one thread, so the lock is never contended; it is there so a
/// deployment with a coalition attached stays `Send`.
#[derive(Debug, Clone, Default)]
pub struct SideChannel {
    inner: Arc<Mutex<SideState>>,
}

#[derive(Debug, Default)]
struct SideState {
    intel: ClaimIntel,
    signals: BTreeMap<&'static str, u64>,
}

impl SideChannel {
    /// A fresh, empty coalition blackboard.
    pub fn new() -> Self {
        SideChannel::default()
    }

    fn state(&self) -> MutexGuard<'_, SideState> {
        self.inner
            .lock()
            .expect("a coalition member panicked holding the side channel")
    }

    /// Pools every claim carried by `msg` into the coalition's shared
    /// intel — what *any* member hears, every member knows.
    pub fn observe(&self, channel: ChannelId, msg: &GossipMsg) {
        self.state().intel.observe(channel, msg);
    }

    /// The freshest claim any coalition member ever heard about `peer`.
    pub fn freshest_of(&self, channel: ChannelId, peer: PeerId) -> Option<PeerAlive> {
        self.state().intel.freshest_of(channel, peer)
    }

    /// The stalest pooled claim per peer — replay ammunition.
    pub fn stale_claims(&self, channel: ChannelId) -> Vec<PeerAlive> {
        self.state().intel.stale_claims(channel)
    }

    /// Posts a named signal (e.g. the incarnation a forger just buried)
    /// for the rest of the coalition to read.
    pub fn post(&self, key: &'static str, value: u64) {
        self.state().signals.insert(key, value);
    }

    /// Reads a posted signal, if any member posted it.
    pub fn read(&self, key: &'static str) -> Option<u64> {
        self.state().signals.get(key).copied()
    }
}

/// **Obituary forgery**, alone or in a coalition: declares a live victim
/// dead at the freshest incarnation *any* coalition member has wiretapped
/// (via the shared [`SideChannel`]; a forger with a `SideChannel` of its
/// own is a lone forger), and each shot posts the buried incarnation as
/// the `"forged-incarnation"` signal so [`RefutationSuppressor`]s know
/// exactly which refutation to hunt. The surviving guarantee is the
/// refutation bound: the victim finds its own obituary through
/// anti-entropy, bumps its incarnation, and re-enters every view — the
/// attack costs a bounded disruption window, not the victim's membership.
/// Suppressors on other wires thin the redundancy margin the bump must
/// fight through. `shots` bounds the campaign so scenarios can measure
/// recovery after it ends.
#[derive(Debug)]
pub struct CoalitionForger {
    victim: PeerId,
    shots: u32,
    side: SideChannel,
}

impl CoalitionForger {
    /// Forges `shots` obituary broadcasts against `victim`, coordinating
    /// through `side`.
    pub fn new(victim: PeerId, shots: u32, side: SideChannel) -> Self {
        CoalitionForger {
            victim,
            shots,
            side,
        }
    }
}

impl Byzantine for CoalitionForger {
    fn name(&self) -> &'static str {
        "coalition-forger"
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.side.observe(channel, msg);
        Vec::new()
    }

    fn on_step(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        if self.shots == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for c in 0..ctx.members.len() {
            let channel = ChannelId(c as u16);
            let Some(claim) = self.side.freshest_of(channel, self.victim) else {
                continue;
            };
            self.side.post("forged-incarnation", claim.incarnation);
            obituary_shot(ctx, channel, self.victim, claim.incarnation, &mut out);
        }
        if !out.is_empty() {
            self.shots -= 1;
        }
        out
    }
}

/// Coalition attacker — **refutation suppression**: feeds its wiretap
/// into the coalition's [`SideChannel`] and scrubs from its *own*
/// outbound anti-entropy every claim about the victim strictly fresher
/// than the incarnation the coalition's forger buried (the
/// `"forged-incarnation"` signal) — the refutation path, selectively.
/// Because [`Byzantine::on_inbound`] is wiretap-only (a compromised
/// process cannot stop a packet that already reached its honest engine),
/// the suppressor can only darken its own wire: the refutation must
/// survive on the redundancy of the remaining honest paths.
#[derive(Debug)]
pub struct RefutationSuppressor {
    victim: PeerId,
    side: SideChannel,
}

impl RefutationSuppressor {
    /// Suppresses `victim`'s refutations, coordinating through `side`.
    pub fn new(victim: PeerId, side: SideChannel) -> Self {
        RefutationSuppressor { victim, side }
    }
}

impl Byzantine for RefutationSuppressor {
    fn name(&self) -> &'static str {
        "refutation-suppressor"
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.side.observe(channel, msg);
        Vec::new()
    }

    fn on_outbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let Some(floor) = self.side.read("forged-incarnation") else {
            return vec![(channel, to, msg)];
        };
        if !msg.is_membership_exchange() {
            return vec![(channel, to, msg)];
        }
        let victim = self.victim;
        let scrub = |entries: Vec<PeerAlive>| -> Vec<PeerAlive> {
            entries
                .into_iter()
                .filter(|c| c.peer != victim || c.incarnation <= floor)
                .collect()
        };
        let scrubbed = match msg {
            GossipMsg::MembershipRequest { entries, dead } => GossipMsg::MembershipRequest {
                entries: scrub(entries),
                dead,
            },
            GossipMsg::MembershipResponse { entries, dead } => GossipMsg::MembershipResponse {
                entries: scrub(entries),
                dead,
            },
            other => other,
        };
        vec![(channel, to, scrubbed)]
    }
}

/// **Adaptive** attacker — instead of running a fixed campaign it watches
/// the wire ([`Byzantine::on_inbound`]) and decides each step, clocked by
/// its own timers ([`Byzantine::on_step`]), from the observed state; its
/// outbound traffic passes untouched (it attacks with injections, not
/// with its own wire). **Leader hunting**: infers who currently leads the
/// way the honest peers decide it — the live member whose freshest
/// wiretapped claim is most senior, the minimum `(incarnation.max(1), id)`
/// ([`crate::discovery::DiscoveryEngine::self_is_most_senior`]) — forges
/// *that* peer's obituary at the freshest incarnation it has heard, and
/// adapts on both axes: when leadership moves (say, because its own
/// forgery deposed the previous leader, whose refutation ranks it junior)
/// it re-targets the successor, and when a victim refutes by bumping its
/// incarnation it re-forges at the bumped value — each `(victim,
/// incarnation)` pair is shot at most once, so the campaign only ever
/// acts on *new* observed state. `shots` bounds the total. The guarantees
/// under test: leadership recovers to exactly one claimant and every
/// deposed victim re-enters the view.
#[derive(Debug)]
pub struct LeaderHunter {
    shots: u32,
    intel: ClaimIntel,
    /// `(channel, victim, incarnation)` triples already shot — firing
    /// again would waste a shot on state the network already refuted.
    fired: HashSet<(u16, u32, u64)>,
}

impl LeaderHunter {
    /// Hunts leaders with a budget of `shots` forgeries.
    pub fn new(shots: u32) -> Self {
        LeaderHunter {
            shots,
            intel: ClaimIntel::default(),
            fired: HashSet::new(),
        }
    }

    /// The member of `channel` whose freshest heard claim ranks most
    /// senior, with that claim; `None` before any claim was heard.
    fn senior(&self, ctx: &AttackCtx<'_>, channel: ChannelId) -> Option<PeerAlive> {
        ctx.members
            .get(channel.0 as usize)?
            .iter()
            .filter_map(|p| self.intel.freshest_of(channel, *p))
            .min_by_key(|c| (c.incarnation.max(1), c.peer))
    }
}

impl Byzantine for LeaderHunter {
    fn name(&self) -> &'static str {
        "leader-hunter"
    }

    fn on_inbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        _from: PeerId,
        msg: &GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        self.intel.observe(channel, msg);
        Vec::new()
    }

    fn on_step(&mut self, ctx: &mut AttackCtx<'_>) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        let mut out = Vec::new();
        for c in 0..ctx.members.len() {
            if self.shots == 0 {
                break;
            }
            let channel = ChannelId(c as u16);
            let Some(claim) = self.senior(ctx, channel) else {
                continue; // no claim heard yet: nothing to react to
            };
            let victim = claim.peer;
            if victim == ctx.self_id {
                continue;
            }
            if !self.fired.insert((channel.0, victim.0, claim.incarnation)) {
                continue; // already shot this life; wait for new state
            }
            obituary_shot(ctx, channel, victim, claim.incarnation, &mut out);
            self.shots -= 1;
        }
        out
    }
}

/// Dissemination-layer attacker — **withholding**: advertises blocks
/// honestly (push digests and pull digests flow, so targets form fetch
/// and pull plans around the attacker) but never serves the payload:
/// outbound [`GossipMsg::BlockPush`], [`GossipMsg::PullResponse`] and
/// [`GossipMsg::RecoveryResponse`] toward a target are dropped
/// ([`GossipMsg::carries_blocks`]). A stalled pull round re-offers the
/// block next round from a fresh random advertiser, and a stalled push
/// fetch rotates advertisers per retry — completeness must still reach
/// 1.0 through honest redundancy, measurably slower.
#[derive(Debug)]
pub struct Withholder {
    targets: Vec<PeerId>,
}

impl Withholder {
    /// Withholds payloads from `targets` (empty: from everyone).
    pub fn new(targets: Vec<PeerId>) -> Self {
        Withholder { targets }
    }
}

impl Byzantine for Withholder {
    fn name(&self) -> &'static str {
        "withholder"
    }

    fn on_outbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        if msg.carries_blocks() && (self.targets.is_empty() || self.targets.contains(&to)) {
            Vec::new()
        } else {
            vec![(channel, to, msg)]
        }
    }
}

/// Dissemination-layer attacker — **equivocation**: serves *conflicting*
/// block payloads for the same height to different peers. The attacker
/// cannot forge the ordering service's signature over the header, so its
/// doctored payload keeps the original header (number, previous hash,
/// data hash) with tampered transactions — peers with even ids receive
/// the doctored copy, odd ids the genuine one. Hash verification
/// ([`BlockRef::data_intact`], sealed when the doctored handle is built)
/// must reject every doctored payload at the receiver (counted in
/// [`crate::channel::PeerStats::invalid_payloads`]), the store must
/// never hold a non-matching block, and completeness must still reach
/// 1.0 through honest redundancy.
#[derive(Debug, Default)]
pub struct Equivocator;

impl Equivocator {
    /// The doctored copy of `block`: original header, tampered
    /// transaction list (an appended forged transaction the data hash
    /// does not cover).
    fn doctored(block: &BlockRef) -> BlockRef {
        let mut forged = (**block).clone();
        forged.txs.push(Transaction::new(
            TxId(u64::MAX),
            "equivocation",
            ClientId(u32::MAX),
            RwSet::default(),
        ));
        BlockRef::new(forged)
    }
}

impl Byzantine for Equivocator {
    fn name(&self) -> &'static str {
        "equivocator"
    }

    fn on_outbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        if msg.carries_blocks() && to.0.is_multiple_of(2) {
            vec![(channel, to, msg.map_blocks(|b| Self::doctored(&b)))]
        } else {
            vec![(channel, to, msg)]
        }
    }
}

/// Attacker — **snapshot poisoning**: a malicious bootstrap server. Every
/// chunk it serves is re-planned over state doctored *after* the
/// checkpoint hash was taken (the chunk's own entries, first value
/// overwritten, as a single-chunk plan under the genuine checkpoint), so
/// [`fabric_types::snapshot::Snapshot::verify`] must fail at the joiner:
/// the install is rejected, the in-flight transfer times out, the server
/// lands on the failed list and the joiner resumes from another server
/// (`snapshot_resumes` counts it). A chunk with no entries cannot be
/// doctored under its checkpoint; dropping it starves the transfer into
/// the same timeout-and-resume path.
#[derive(Debug, Default)]
pub struct SnapshotPoisoner;

impl Byzantine for SnapshotPoisoner {
    fn name(&self) -> &'static str {
        "snapshot-poisoner"
    }

    fn on_outbound(
        &mut self,
        _ctx: &mut AttackCtx<'_>,
        channel: ChannelId,
        to: PeerId,
        msg: GossipMsg,
    ) -> Vec<(ChannelId, PeerId, GossipMsg)> {
        use fabric_types::snapshot::{Snapshot, SnapshotChunk, SnapshotRef};
        let GossipMsg::SnapshotChunk { chunk } = msg else {
            return vec![(channel, to, msg)];
        };
        let mut entries = chunk.entries().to_vec();
        let Some(entry) = entries.first_mut() else {
            return Vec::new();
        };
        entry.1 = fabric_types::rwset::Value::from_u64(u64::MAX);
        let forged = SnapshotRef::new(Snapshot {
            checkpoint: chunk.checkpoint(),
            last_block_hash: chunk.last_block_hash(),
            entries,
        });
        SnapshotChunk::plan(&forged, usize::MAX)
            .into_iter()
            .map(|chunk| (channel, to, GossipMsg::SnapshotChunk { chunk }))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_channel_clones_share_intel_and_signals() {
        let side = SideChannel::new();
        let clone = side.clone();
        let claim = PeerAlive {
            peer: PeerId(3),
            incarnation: 7,
            seq: 2,
        };
        clone.observe(ChannelId(0), &GossipMsg::AliveMsg(claim));
        assert_eq!(
            side.freshest_of(ChannelId(0), PeerId(3)),
            Some(claim),
            "intel observed through one handle is visible through the other"
        );
        clone.post("forged-incarnation", 7);
        assert_eq!(side.read("forged-incarnation"), Some(7));
        assert_eq!(side.read("unposted"), None);
        assert_eq!(side.stale_claims(ChannelId(0)), vec![claim]);
    }

    #[test]
    fn equivocator_doctoring_keeps_the_header_and_breaks_the_data_hash() {
        use fabric_types::block::Block;
        use fabric_types::crypto::Hash256;
        let honest = BlockRef::new(Block::new(5, Hash256::ZERO, vec![]));
        let doctored = Equivocator::doctored(&honest);
        assert_eq!(doctored.hash(), honest.hash(), "header is signature-bound");
        // Uncached re-hash first, then the verdict the handle sealed.
        assert!(Block::data_intact(&honest) && honest.data_intact());
        assert!(
            !Block::data_intact(&doctored) && !doctored.data_intact(),
            "tampered txs must not match the data hash"
        );
    }
}
