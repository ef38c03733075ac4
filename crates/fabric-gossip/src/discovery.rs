//! Gossiped discovery: the one way channel membership changes at
//! runtime.
//!
//! Fabric peers do not learn channel membership from an omniscient
//! coordinator; they learn it from each other. Each peer periodically
//! gossips an [`GossipMsg::AliveMsg`] heartbeat carrying its own
//! [`PeerAlive`] claim — a `(incarnation, seq)` pair that is strictly
//! monotonic across that peer's lives — and periodically push–pulls its
//! whole alive view with one random peer
//! ([`GossipMsg::MembershipRequest`] / [`GossipMsg::MembershipResponse`]).
//! Receivers merge claims by freshness, so:
//!
//! * a **join** is simply the first claim heard about an unknown peer
//!   (directly from the joiner's announcement heartbeat, or relayed by
//!   anti-entropy);
//! * a **leave** is silence: each claim row carries the instant this peer
//!   last heard from (or, by a strictly fresher claim, about) its peer;
//!   once that is older than the alive timeout the sweep **reaps** the
//!   entry — recording an obituary, the last claim held about the peer,
//!   that anti-entropy then spreads, so one peer's timeout detection
//!   becomes everyone's (Fabric's dead list);
//! * a **false death** (drops or a partition) undoes itself: obituaries
//!   and claims are judged by the same `(incarnation, seq)` freshness, so
//!   the victim's next heartbeat is fresher than any report of its death
//!   and resurrects it in every view. Nobody bumps an incarnation for it,
//!   so the victim keeps its seniority and never loses its own seat (a
//!   view that reaped a leader may claim the seat until that heartbeat
//!   arrives).
//!
//! The engine owns only discovery-private state (claims with their
//! heard-at stamps, obituaries, its own incarnation/seq): liveness is
//! asked nowhere else. Everything shared lives in the
//! [`ChannelCore`]; membership *consequences* — view edits, the leader
//! seat — are returned as a [`DiscoveryDelta`] and applied
//! by [`crate::channel::ChannelState`], which also traces a
//! [`ProtocolEvent::View`](crate::effects::ProtocolEvent::View) per change
//! so embeddings can measure convergence and stale-view windows.

use desim::Time;
use rand::RngExt;

use crate::channel::{random_phase, ChannelCore};
use crate::effects::Effects;
use crate::messages::{GossipMsg, GossipTimer, PeerAlive};
use crate::peertable::PeerTable;
use fabric_types::ids::PeerId;

/// Membership consequences of one discovery step, to be applied by the
/// channel dispatcher (the engine cannot reach its sibling engines).
#[derive(Debug, Default)]
pub struct DiscoveryDelta {
    /// Peers that entered the alive view (joins and resurrections), and
    /// peers that started a new life without ever being reaped here (a
    /// renewal: a strictly higher incarnation displaced a live claim, so
    /// the peer left and rejoined faster than this view could expire it;
    /// the entry just stays).
    pub joined: Vec<PeerId>,
    /// Peers reaped from the alive view (expired silent or learned dead).
    pub left: Vec<PeerId>,
}

impl DiscoveryDelta {
    /// Whether the step changed nothing.
    pub fn is_empty(&self) -> bool {
        self.joined.is_empty() && self.left.is_empty()
    }
}

/// One row of the claim table.
#[derive(Debug)]
struct Row {
    /// The freshest claim held about the peer.
    claim: PeerAlive,
    /// When this peer last heard from the peer, or a strictly fresher
    /// claim about it; the reap deadline is one alive timeout later.
    heard: Time,
}

/// Discovery state of one channel instance.
///
/// Both tables are `PeerTable`s over the organization view's build-time
/// range: a merged claim costs one index load, and every walk (the shared
/// view, the obituaries, the reap sweep) runs in id order.
#[derive(Debug)]
pub struct DiscoveryEngine {
    /// This life's incarnation; 0 until [`DiscoveryEngine::init`] runs.
    incarnation: u64,
    /// Heartbeats emitted this life.
    seq: u64,
    /// Freshest claim held per peer (self excluded), with its heard-at
    /// stamp.
    view: PeerTable<Row>,
    /// Obituaries: the last claim held about each reaped peer. A claim
    /// only resurrects its peer when it is **strictly** fresher.
    dead: PeerTable<PeerAlive>,
    /// An observer life: this peer was handed a roster excluding itself
    /// (a deliberate non-member), so it ranks junior to every member and
    /// never claims static seniority while anyone else sits.
    junior: bool,
}

impl DiscoveryEngine {
    /// An engine for `core`'s channel instance, before its first life.
    pub fn new(core: &ChannelCore) -> Self {
        DiscoveryEngine {
            incarnation: 0,
            seq: 0,
            view: core.membership.table(),
            dead: core.membership.table(),
            junior: false,
        }
    }

    /// This life's incarnation (0 before init).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The freshest claim held about `peer`, if any.
    pub fn claim_of(&self, peer: PeerId) -> Option<&PeerAlive> {
        self.view.get(peer).map(|row| &row.claim)
    }

    /// The obituary of `peer` (its last claim held), if it was reaped.
    pub fn obituary_of(&self, peer: PeerId) -> Option<PeerAlive> {
        self.dead.get(peer).copied()
    }

    /// Every claim currently held about other peers, in id order.
    pub fn claims(&self) -> impl Iterator<Item = &PeerAlive> {
        self.view.values().map(|row| &row.claim)
    }

    /// A message from `peer` arrived at `now`: whatever it says, its
    /// sender is alive, so its reap deadline moves to `now` plus the alive
    /// timeout. A peer without a claim row (a stranger, or any sender on a
    /// static roster, whose engine never started) is not recorded.
    pub fn heard_from(&mut self, peer: PeerId, now: Time) {
        if let Some(row) = self.view.get_mut(peer) {
            row.heard = now;
        }
    }

    /// Every obituary held, in id order.
    pub fn obituary_iter(&self) -> impl Iterator<Item = &PeerAlive> {
        self.dead.values()
    }

    /// `(dense slots, spilled rows, rows)` of the claim and the obituary
    /// table, for the bound checks of the wire tests.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> [(usize, usize, usize); 2] {
        [self.view.shape(), self.dead.shape()]
    }

    /// Whether the claim and the obituary table hold their dense arrays.
    #[cfg(test)]
    pub(crate) fn dense_allocated(&self) -> [bool; 2] {
        [self.view.dense_allocated(), self.dead.dense_allocated()]
    }

    /// Drops what a process crash would lose: the merged view, the
    /// obituaries and the heartbeat counter. The incarnation is kept so
    /// the next [`DiscoveryEngine::init`] picks a strictly higher one.
    pub fn clear_volatile(&mut self) {
        self.view.clear();
        self.dead.clear();
        self.seq = 0;
    }

    /// Starts this life: picks a fresh incarnation (strictly above any
    /// previous one), seeds the view with the roster handed at join time
    /// (every member, seeded or already held, heard from at `now`, so each
    /// gets one full alive timeout to speak), **announces itself** with an
    /// immediate heartbeat to `fout` members — this is how a runtime
    /// joiner propagates its own join; nobody broadcasts on its behalf —
    /// and arms the periodic timers.
    pub fn init(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        let now = fx.now();
        self.incarnation = now.as_nanos().max(1).max(self.incarnation + 1);
        self.seq = 0;
        self.junior = self.junior || !core.listed;
        self.view.reserve(core.membership.len());
        for &peer in core.membership.peers() {
            let seed = Row {
                claim: PeerAlive {
                    peer,
                    incarnation: 0,
                    seq: 0,
                },
                heard: now,
            };
            self.view.get_or_insert(peer, seed).heard = now;
        }
        self.heartbeat(core, fx);
        let hb_phase = random_phase(fx, core.cfg.membership.alive_interval);
        core.schedule(fx, hb_phase, GossipTimer::DiscoveryRound);
        let ae_phase = random_phase(fx, core.cfg.discovery.anti_entropy_interval);
        core.schedule(fx, ae_phase, GossipTimer::AntiEntropyRound);
    }

    /// The DiscoveryRound timer: heartbeat, then sweep — reap every view
    /// entry last heard from more than `membership.alive_timeout` ago.
    pub fn on_round(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) -> DiscoveryDelta {
        self.heartbeat(core, fx);
        let mut delta = DiscoveryDelta::default();
        let now = fx.now();
        let timeout = core.cfg.membership.alive_timeout;
        let expired: Vec<PeerId> = self
            .view
            .iter()
            .filter(|(_, row)| now.since(row.heard) > timeout)
            .map(|(p, _)| p)
            .collect();
        for peer in expired {
            self.reap(peer, &mut delta);
        }
        let interval = core.cfg.membership.alive_interval;
        core.schedule(fx, interval, GossipTimer::DiscoveryRound);
        delta
    }

    /// The AntiEntropyRound timer: exchange the full membership view
    /// ([`GossipMsg::MembershipRequest`]) with one random live member —
    /// plus one **tombstone probe** to a random reaped peer. If the "dead"
    /// peer is in fact alive (a false death, e.g. across a healed
    /// partition), each side's claims are fresher than the other side's
    /// obituaries of them: the probe resurrects this side at the target,
    /// the reply resurrects the target's side here. That is the only way
    /// two sides that reaped each other ever meet again.
    pub fn on_anti_entropy_round(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        let live = core.membership.sample(fx.rng(), 1);
        let probe = if self.dead.is_empty() {
            None
        } else {
            let pick = fx.rng().random_range(0..self.dead.len());
            self.dead.iter().nth(pick).map(|(p, _)| p)
        };
        for to in live.into_iter().chain(probe) {
            let request = GossipMsg::MembershipRequest {
                entries: self.entries_with_self(core),
                dead: self.obituaries(),
            };
            core.send(fx, to, request);
        }
        let interval = core.cfg.discovery.anti_entropy_interval;
        core.schedule(fx, interval, GossipTimer::AntiEntropyRound);
    }

    /// An [`GossipMsg::AliveMsg`] heartbeat arrived.
    pub fn on_alive(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        claim: PeerAlive,
    ) -> DiscoveryDelta {
        let mut delta = DiscoveryDelta::default();
        self.merge(core, fx.now(), claim, &mut delta);
        delta
    }

    /// A [`GossipMsg::MembershipRequest`] arrived: merge the requester's
    /// view and obituaries, answer with ours.
    pub fn on_membership_request(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        from: PeerId,
        entries: Vec<PeerAlive>,
        dead: Vec<PeerAlive>,
    ) -> DiscoveryDelta {
        let mut delta = DiscoveryDelta::default();
        for claim in entries {
            self.merge(core, fx.now(), claim, &mut delta);
        }
        for obituary in dead {
            self.apply_death(core, obituary, &mut delta);
        }
        let response = GossipMsg::MembershipResponse {
            entries: self.entries_with_self(core),
            dead: self.obituaries(),
        };
        core.send(fx, from, response);
        delta
    }

    /// A [`GossipMsg::MembershipResponse`] arrived: merge the responder's
    /// view and apply its obituaries.
    pub fn on_membership_response(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        entries: Vec<PeerAlive>,
        dead: Vec<PeerAlive>,
    ) -> DiscoveryDelta {
        let mut delta = DiscoveryDelta::default();
        for claim in entries {
            self.merge(core, fx.now(), claim, &mut delta);
        }
        for obituary in dead {
            self.apply_death(core, obituary, &mut delta);
        }
        delta
    }

    /// Emits one heartbeat: bump `seq`, gossip the fresh claim to `fout`
    /// random members.
    fn heartbeat(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        self.seq += 1;
        let claim = PeerAlive {
            peer: core.self_id,
            incarnation: self.incarnation,
            seq: self.seq,
        };
        let targets = {
            let k = core.cfg.fout;
            core.membership.sample(fx.rng(), k)
        };
        for t in targets {
            core.send(fx, t, GossipMsg::AliveMsg(claim));
        }
    }

    /// Whether this peer is the most **senior** member it knows of:
    /// seniority ranks by `(incarnation, id)` — initial members (who all
    /// share the deployment-start incarnation) rank in id order, runtime
    /// joiners rank by join time, and a false death demotes nobody (the
    /// victim's life never changes). This is the leadership
    /// rule of protocol-discovery channels: because it is computed from
    /// the gossiped view, it converges to exactly one claimant as the
    /// views converge — something a roster-order rule cannot promise when
    /// peers reap and resurrect each other in different orders.
    ///
    /// Seeded entries (incarnation 0, placed at init for the handed
    /// roster) and genuine deployment-start claims (incarnation ≥ 1, all
    /// equal) are ranked alike via `max(1)`, so holding a seed instead of
    /// the real claim never changes the order.
    pub fn self_is_most_senior(&self, core: &ChannelCore) -> bool {
        let me = if self.junior {
            (u64::MAX, core.self_id)
        } else {
            (self.incarnation.max(1), core.self_id)
        };
        core.membership.peers().iter().all(|p| {
            let rank = self
                .claim_of(*p)
                .map_or((1, *p), |c| (c.incarnation.max(1), *p));
            me < rank
        })
    }

    /// The recorded obituaries, serialized for the wire.
    fn obituaries(&self) -> Vec<PeerAlive> {
        self.obituary_iter().copied().collect()
    }

    /// Every claim this peer would share: its own (current incarnation and
    /// seq) plus the whole merged view.
    fn entries_with_self(&self, core: &ChannelCore) -> Vec<PeerAlive> {
        let mut entries = Vec::with_capacity(1 + self.view.len());
        entries.push(PeerAlive {
            peer: core.self_id,
            incarnation: self.incarnation,
            seq: self.seq,
        });
        entries.extend(self.claims());
        entries
    }

    /// Merges one alive claim by freshness, heard at `now`. A claim about
    /// an unknown (or reaped-then-renewed) peer is a join; a strictly
    /// fresher claim about a known peer postpones its reap; anything else
    /// is stale noise.
    fn merge(
        &mut self,
        core: &ChannelCore,
        now: Time,
        claim: PeerAlive,
        delta: &mut DiscoveryDelta,
    ) {
        let peer = claim.peer;
        if peer == core.self_id {
            return; // nobody knows this peer's life better than itself
        }
        let row = Row { claim, heard: now };
        if let Some(obituary) = self.dead.get(peer) {
            if !claim.fresher_than(obituary) {
                return; // not heard after the death: an echo
            }
            self.dead.remove(peer);
            self.view.insert(peer, row);
            delta.joined.push(peer);
            return;
        }
        match self.view.get_mut(peer) {
            Some(held) => {
                if !claim.fresher_than(&held.claim) {
                    return; // stale relay: must not postpone the reap
                }
                // A higher incarnation over a *live* claim is a rejoin
                // this view never saw as a leave: a join. Seed
                // displacement (incarnation 0 → first real claim) is
                // first contact, not a renewal.
                if claim.incarnation > held.claim.incarnation && held.claim.incarnation > 0 {
                    delta.joined.push(peer);
                }
                *held = row;
            }
            None => {
                self.view.insert(peer, row);
                // Already a member (the seeded roster raced the claim) is
                // first contact; anyone else joins.
                if !core.membership.contains(peer) {
                    delta.joined.push(peer);
                }
            }
        }
    }

    /// Applies one obituary by the freshness order of [`Self::merge`]. A
    /// claim held that is fresher than the obituary was heard after that
    /// death and wins; otherwise (ties included) the peer is reaped, and
    /// the fresher of the two claims is kept as its obituary. An obituary
    /// about this peer itself changes nothing: its next heartbeat is
    /// fresher than any report of its death.
    fn apply_death(&mut self, core: &ChannelCore, obituary: PeerAlive, delta: &mut DiscoveryDelta) {
        let peer = obituary.peer;
        let outlived = self
            .claim_of(peer)
            .is_some_and(|held| held.fresher_than(&obituary));
        if peer == core.self_id || outlived {
            return;
        }
        self.reap(peer, delta);
        self.record_death(obituary);
    }

    /// Reaps `peer` at the claim currently held for it, if any.
    fn reap(&mut self, peer: PeerId, delta: &mut DiscoveryDelta) {
        if let Some(row) = self.view.remove(peer) {
            self.record_death(row.claim);
            delta.left.push(peer);
        }
    }

    /// Keeps the fresher of `claim` and the obituary already held.
    fn record_death(&mut self, claim: PeerAlive) {
        let held = self.dead.get_or_insert(claim.peer, claim);
        if claim.fresher_than(held) {
            *held = claim;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GossipConfig;
    use crate::effects::ProtocolEvent;
    use crate::peer::GossipPeer;
    use crate::testing::MockEffects;
    use desim::Duration;
    use fabric_types::ids::ChannelId;

    fn core(self_id: u32, n: u32) -> ChannelCore {
        ChannelCore::new(
            ChannelId::DEFAULT,
            PeerId(self_id),
            &(0..n).map(PeerId).collect::<Vec<_>>(),
            &(0..n).map(PeerId).collect::<Vec<_>>(),
            GossipConfig::enhanced_f4().with_discovery_protocol(),
        )
    }

    #[test]
    fn init_announces_and_arms_both_timers() {
        let mut c = core(1, 4);
        let mut e = DiscoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        fx.now = Time::from_secs(30);
        e.init(&mut c, &mut fx);
        assert!(e.incarnation() >= Time::from_secs(30).as_nanos());
        let sent = fx.take_sent();
        assert!(
            sent.iter()
                .all(|(_, m)| matches!(m, GossipMsg::AliveMsg(c) if c.peer == PeerId(1))),
            "init announces this peer's own claim"
        );
        assert!(!sent.is_empty());
        let timers: Vec<GossipTimer> = fx.take_scheduled().into_iter().map(|(_, t)| t).collect();
        assert!(timers.contains(&GossipTimer::DiscoveryRound));
        assert!(timers.contains(&GossipTimer::AntiEntropyRound));
        // Every seeded row was heard from at init: nobody is reaped yet.
        let delta = e.on_round(&mut c, &mut fx);
        assert!(delta.left.is_empty());
    }

    /// Peer 0 of the roster {0, 1, 2, 3} under discovery (alive timeout
    /// 25 s), started at time zero.
    fn started_peer(fx: &mut MockEffects) -> GossipPeer {
        let cfg = GossipConfig::enhanced_f4().with_discovery_protocol();
        let mut peer = GossipPeer::new(PeerId(0), (0..4).map(PeerId).collect(), cfg);
        peer.init(fx);
        peer
    }

    /// What the channel traces when its view admits `peer`.
    fn admitted(peer: u32) -> (ChannelId, ProtocolEvent) {
        let (peer, joined) = (PeerId(peer), true);
        (ChannelId::DEFAULT, ProtocolEvent::View { peer, joined })
    }

    /// Fires one discovery round at `secs`; returns the members it kept.
    fn round_at(peer: &mut GossipPeer, fx: &mut MockEffects, secs: u64) -> Vec<PeerId> {
        fx.now = Time::from_secs(secs);
        peer.on_timer(fx, GossipTimer::DiscoveryRound);
        peer.membership().peers().to_vec()
    }

    fn claim(peer: u32, incarnation: u64, seq: u64) -> PeerAlive {
        PeerAlive {
            peer: PeerId(peer),
            incarnation,
            seq,
        }
    }

    #[test]
    fn liveness_any_message_from_a_member_postpones_its_reap() {
        let mut fx = MockEffects::new(31);
        let mut peer = started_peer(&mut fx);
        fx.now = Time::from_secs(20);
        let advert = GossipMsg::StateInfo {
            height: 1,
            checkpoint: None,
        };
        peer.on_message(&mut fx, PeerId(1), advert);
        assert_eq!(round_at(&mut peer, &mut fx, 30), [PeerId(1)]);
        assert_eq!(round_at(&mut peer, &mut fx, 45), [PeerId(1)]);
        assert!(round_at(&mut peer, &mut fx, 46).is_empty());
    }

    #[test]
    fn liveness_a_stale_relay_does_not_postpone_a_reap() {
        let mut fx = MockEffects::new(32);
        let mut peer = started_peer(&mut fx);
        let own = GossipMsg::AliveMsg(claim(1, 1, 1));
        fx.now = Time::from_secs(1);
        peer.on_message(&mut fx, PeerId(1), own.clone());
        fx.now = Time::from_secs(20);
        peer.on_message(&mut fx, PeerId(2), own);
        assert_eq!(
            round_at(&mut peer, &mut fx, 30),
            [PeerId(2)],
            "the relay keeps its sender, not its subject"
        );
    }

    #[test]
    fn liveness_a_reboot_restarts_every_deadline() {
        let mut fx = MockEffects::new(33);
        let mut peer = started_peer(&mut fx);
        peer.on_crash();
        fx.now = Time::from_secs(20);
        peer.init(&mut fx);
        assert_eq!(round_at(&mut peer, &mut fx, 30), [1, 2, 3].map(PeerId));
        assert!(round_at(&mut peer, &mut fx, 46).is_empty());
    }

    /// A re-`init` over a view that already holds fresher claims than
    /// the seed keeps each claim and restamps when it was heard: every
    /// member gets one full alive timeout (25 s) from the reboot.
    #[test]
    fn liveness_a_reinit_keeps_held_claims_and_restamps_them() {
        let mut c = core(0, 4);
        let mut e = DiscoveryEngine::new(&c);
        let mut fx = MockEffects::new(34);
        e.init(&mut c, &mut fx);
        let held = [claim(1, 10, 3), claim(2, 11, 1), claim(3, 12, 7)];
        for claim in held {
            e.on_alive(&mut c, &mut fx, claim);
        }
        fx.now = Time::from_secs(20);
        e.init(&mut c, &mut fx);
        for claim in held {
            assert_eq!(e.claim_of(claim.peer), Some(&claim), "{claim:?}");
        }
        assert_eq!(e.claims().count(), 3, "nothing seeded twice");
        fx.now = Time::from_secs(45);
        assert!(e.on_round(&mut c, &mut fx).left.is_empty());
        fx.now = Time::from_secs(46);
        let delta = e.on_round(&mut c, &mut fx);
        assert_eq!(delta.left, [1, 2, 3].map(PeerId));
    }

    #[test]
    fn reinit_always_picks_a_strictly_higher_incarnation() {
        let mut c = core(0, 3);
        let mut e = DiscoveryEngine::new(&c);
        let mut fx = MockEffects::new(2);
        e.init(&mut c, &mut fx); // at t = 0: incarnation is the 1 floor
        let first = e.incarnation();
        e.clear_volatile();
        e.init(&mut c, &mut fx); // clock did not move
        assert!(e.incarnation() > first, "a reboot is a strictly newer life");
    }

    #[test]
    fn trace_unknown_claim_is_a_join_and_stale_claims_do_not_refresh() {
        let mut fx = MockEffects::new(3);
        let mut peer = started_peer(&mut fx);
        let newcomer = claim(9, 50, 4);
        fx.now = Time::from_secs(1);
        peer.on_message(&mut fx, PeerId(9), GossipMsg::AliveMsg(newcomer));
        assert_eq!(fx.traced, [admitted(9)]);
        assert!(peer.membership().contains(PeerId(9)));
        let engine = peer.discovery_on(ChannelId::DEFAULT).unwrap();
        assert_eq!(engine.claim_of(PeerId(9)), Some(&newcomer));

        // A stale relay (the same claim again) is not a join and must not
        // move the newcomer's reap deadline: 1 s plus the 25 s timeout.
        fx.now = Time::from_secs(20);
        peer.on_message(&mut fx, PeerId(2), GossipMsg::AliveMsg(newcomer));
        assert_eq!(fx.traced.len(), 1, "a relay is not a join");
        assert!(round_at(&mut peer, &mut fx, 26).contains(&PeerId(9)));
        assert!(!round_at(&mut peer, &mut fx, 27).contains(&PeerId(9)));
    }

    #[test]
    fn dead_list_silence_reaps_and_an_equal_claim_cannot_resurrect() {
        let mut c = core(0, 3);
        let mut e = DiscoveryEngine::new(&c);
        let mut fx = MockEffects::new(4);
        e.init(&mut c, &mut fx);
        let life = claim(1, 10, 3);
        e.on_alive(&mut c, &mut fx, life);
        // Silence past the alive timeout (25 s default): the sweep reaps,
        // and the obituary is the last claim held.
        fx.now = Time::from_secs(60);
        let delta = e.on_round(&mut c, &mut fx);
        assert!(delta.left.contains(&PeerId(1)));
        assert_eq!(e.obituary_of(PeerId(1)), Some(life));

        // The reaped claim and older ones of its life are stale echoes.
        for echo in [life, claim(1, 10, 2), claim(1, 9, 99)] {
            assert!(e.on_alive(&mut c, &mut fx, echo).is_empty(), "{echo:?}");
        }
        // The next heartbeat of the same life is fresher: the reap was
        // false, and it is undone without a new incarnation.
        let delta = e.on_alive(&mut c, &mut fx, claim(1, 10, 4));
        assert_eq!(delta.joined, vec![PeerId(1)]);
        assert_eq!(e.obituary_of(PeerId(1)), None);
        assert_eq!(e.claim_of(PeerId(1)), Some(&claim(1, 10, 4)));
    }

    #[test]
    fn faster_than_timeout_rejoin_is_reported_as_a_renewal() {
        let mut c = core(0, 3);
        let mut e = DiscoveryEngine::new(&c);
        let mut fx = MockEffects::new(11);
        e.init(&mut c, &mut fx);
        let first_life = PeerAlive {
            peer: PeerId(1),
            incarnation: 10,
            seq: 5,
        };
        // Displacing the seed (incarnation 0) is first contact, never a
        // renewal.
        assert!(e.on_alive(&mut c, &mut fx, first_life).is_empty());
        // The peer leaves and rejoins before this view's timeout expires:
        // the higher incarnation over a live claim is the only trace.
        let second_life = PeerAlive {
            peer: PeerId(1),
            incarnation: 20,
            seq: 1,
        };
        let delta = e.on_alive(&mut c, &mut fx, second_life);
        assert_eq!(delta.joined, vec![PeerId(1)]);
        assert!(delta.left.is_empty());
        // Same-incarnation progress is an ordinary refresh.
        let heartbeat = PeerAlive {
            peer: PeerId(1),
            incarnation: 20,
            seq: 2,
        };
        assert!(e.on_alive(&mut c, &mut fx, heartbeat).is_empty());
    }

    #[test]
    fn trace_renewal_is_a_join_and_no_reap() {
        let roster: Vec<PeerId> = (0..3).map(PeerId).collect();
        let cfg = GossipConfig::enhanced_f4().with_discovery_protocol();
        let mut peer = GossipPeer::new(PeerId(0), roster, cfg);
        let mut fx = MockEffects::new(12);
        peer.init(&mut fx);
        let alive = |inc, seq| {
            GossipMsg::AliveMsg(PeerAlive {
                peer: PeerId(1),
                incarnation: inc,
                seq,
            })
        };
        peer.on_channel_message(&mut fx, ChannelId::DEFAULT, PeerId(1), alive(10, 3));
        fx.traced.clear();
        peer.on_channel_message(&mut fx, ChannelId::DEFAULT, PeerId(1), alive(20, 1));
        assert_eq!(
            fx.traced,
            [admitted(1)],
            "a renewal is a join observation, and no reap"
        );
        // Membership itself never flinched.
        assert!(peer.membership().peers().contains(&PeerId(1)));
    }

    #[test]
    fn request_answers_with_view_and_obituaries() {
        let mut c = core(0, 3);
        let mut e = DiscoveryEngine::new(&c);
        let mut fx = MockEffects::new(5);
        e.init(&mut c, &mut fx);
        fx.take_sent();
        // Reap peer 2 first so the response carries an obituary.
        fx.now = Time::from_secs(60);
        e.on_round(&mut c, &mut fx);
        fx.take_sent();
        fx.take_scheduled();
        let delta = e.on_membership_request(&mut c, &mut fx, PeerId(1), vec![], vec![]);
        assert!(delta.is_empty(), "an empty digest teaches nothing");
        let sent = fx.take_sent();
        assert_eq!(sent.len(), 1);
        let (to, msg) = &sent[0];
        assert_eq!(*to, PeerId(1));
        match msg {
            GossipMsg::MembershipResponse { entries, dead } => {
                assert!(entries.iter().any(|e| e.peer == PeerId(0)), "self included");
                assert!(!dead.is_empty(), "obituaries travel with the response");
            }
            other => panic!("expected a membership response, got {other:?}"),
        }
    }

    #[test]
    fn dead_list_an_obituary_about_self_changes_nothing() {
        let mut c = core(0, 3);
        let mut e = DiscoveryEngine::new(&c);
        let mut fx = MockEffects::new(6);
        e.init(&mut c, &mut fx);
        let life = e.incarnation();
        for my_death in [
            claim(0, life, 0),
            claim(0, life + 1, 5),
            claim(0, u64::MAX, u64::MAX),
        ] {
            let delta = e.on_membership_response(&mut c, &mut fx, vec![], vec![my_death]);
            assert!(delta.is_empty(), "{my_death:?}");
            assert_eq!(e.incarnation(), life, "{my_death:?}: no bump");
            assert_eq!(e.obituary_iter().count(), 0, "{my_death:?}: not kept");
        }
    }

    #[test]
    fn dead_list_a_fresher_held_claim_survives_an_obituary_and_ties_reap() {
        let mut c = core(0, 5);
        let mut e = DiscoveryEngine::new(&c);
        let mut fx = MockEffects::new(7);
        e.init(&mut c, &mut fx);
        for held in [
            claim(1, 7, 2),
            claim(2, 9, 5),
            claim(3, 9, 1),
            claim(4, 7, 2),
        ] {
            e.on_alive(&mut c, &mut fx, held);
        }
        let deaths = vec![
            claim(1, 7, 2), // a tie: nothing was heard after that death
            claim(2, 9, 4), // seq 5 was heard after it
            claim(3, 8, 9), // a newer life was heard after it
            claim(4, 7, 3), // that death came after the claim held
        ];
        let delta = e.on_membership_response(&mut c, &mut fx, vec![], deaths);
        assert_eq!(delta.left, vec![PeerId(1), PeerId(4)]);
        assert!(e.claim_of(PeerId(2)).is_some() && e.claim_of(PeerId(3)).is_some());
        // Each obituary kept is the fresher of the claim held and the
        // one reported.
        assert_eq!(e.obituary_of(PeerId(1)), Some(claim(1, 7, 2)));
        assert_eq!(e.obituary_of(PeerId(4)), Some(claim(4, 7, 3)));
        // An obituary about a peer this view never held is kept as told,
        // and a staler report of the same death does not lower it.
        let stranger = vec![claim(9, 3, 3), claim(9, 3, 1)];
        assert!(e
            .on_membership_response(&mut c, &mut fx, vec![], stranger)
            .is_empty());
        assert_eq!(e.obituary_of(PeerId(9)), Some(claim(9, 3, 3)));
    }

    #[test]
    fn every_round_rearms_at_the_configured_heartbeat_interval() {
        let mut c = core(0, 4);
        let mut e = DiscoveryEngine::new(&c);
        let mut fx = MockEffects::new(26);
        e.init(&mut c, &mut fx);
        fx.take_scheduled();
        let base = c.cfg.membership.alive_interval;
        for _ in 0..6 {
            for p in 1..4 {
                e.heard_from(PeerId(p), fx.now);
            }
            e.on_round(&mut c, &mut fx);
            let timers = fx.take_scheduled();
            let (after, _) = timers
                .iter()
                .find(|(_, t)| *t == GossipTimer::DiscoveryRound)
                .expect("round rearms itself");
            assert_eq!(*after, base, "a quiet channel keeps the fixed cadence");
            fx.advance(*after);
        }
    }

    #[test]
    fn anti_entropy_round_targets_one_member() {
        let mut c = core(0, 5);
        let mut e = DiscoveryEngine::new(&c);
        let mut fx = MockEffects::new(8);
        e.init(&mut c, &mut fx);
        fx.take_sent();
        fx.take_scheduled();
        e.on_anti_entropy_round(&mut c, &mut fx);
        let sent = fx.take_sent();
        assert_eq!(sent.len(), 1);
        assert!(matches!(sent[0].1, GossipMsg::MembershipRequest { .. }));
        let timers: Vec<(Duration, GossipTimer)> = fx.take_scheduled();
        assert_eq!(
            timers,
            vec![(
                c.cfg.discovery.anti_entropy_interval,
                GossipTimer::AntiEntropyRound
            )]
        );
    }
}
