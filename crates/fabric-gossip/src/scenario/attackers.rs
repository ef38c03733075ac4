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

use std::collections::BTreeMap;
use std::fmt;

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

/// **Obituary forgery**: declares a live victim dead at the freshest
/// claim of it this attacker has wiretapped, in an unsolicited
/// `MembershipResponse` to every member of the channel but itself and the
/// victim. A forgery is a claim like any other: a peer that heard the
/// victim since ignores it, one that holds the same claim reaps the
/// victim, and the victim's next heartbeat, fresher than the forgery,
/// re-admits it in the same life. `shots` bounds the campaign so a
/// scenario can measure recovery after it ends.
#[derive(Debug)]
pub struct ObituaryForger {
    victim: PeerId,
    shots: u32,
    intel: ClaimIntel,
}

impl ObituaryForger {
    /// Forges `shots` obituary broadcasts against `victim`.
    pub fn new(victim: PeerId, shots: u32) -> Self {
        ObituaryForger {
            victim,
            shots,
            intel: ClaimIntel::default(),
        }
    }
}

impl Byzantine for ObituaryForger {
    fn name(&self) -> &'static str {
        "obituary-forger"
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
        if self.shots == 0 {
            return Vec::new();
        }
        let mut out = Vec::new();
        for c in 0..ctx.members.len() {
            let channel = ChannelId(c as u16);
            let Some(forged) = self.intel.freshest_of(channel, self.victim) else {
                continue;
            };
            for target in ctx.honest(channel) {
                if target != self.victim {
                    let shot = GossipMsg::MembershipResponse {
                        entries: Vec::new(),
                        dead: vec![forged],
                    };
                    out.push((channel, target, shot));
                }
            }
        }
        if !out.is_empty() {
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
