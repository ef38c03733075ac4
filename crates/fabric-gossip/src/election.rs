//! Leader election.
//!
//! The elected leader is the peer that pulls blocks from the ordering
//! service. Static election seats the most senior member of the
//! organization (re-enforced on every discovery step when membership can
//! change); dynamic election runs on leader heartbeats, the lowest live id
//! standing up when the leader goes silent.
//!
//! The engine owns only election-private state; everything shared lives in
//! the [`ChannelCore`] passed into every entry point.

use desim::Time;

use fabric_types::ids::PeerId;

use crate::channel::ChannelCore;
use crate::effects::Effects;
use crate::messages::{GossipMsg, GossipTimer};

/// Election state of one channel instance.
#[derive(Debug)]
pub struct ElectionEngine {
    is_leader: bool,
    last_leader_seen: Option<(PeerId, Time)>,
}

impl ElectionEngine {
    /// A fresh engine; `is_leader` seeds static leadership.
    pub fn new(is_leader: bool) -> Self {
        ElectionEngine {
            is_leader,
            last_leader_seen: None,
        }
    }

    /// Whether this channel instance currently acts as leader.
    pub fn is_leader(&self) -> bool {
        self.is_leader
    }

    /// Drops what a process crash would lose: leadership is volatile, as is
    /// the last-heartbeat memory.
    pub fn clear_volatile(&mut self) {
        self.is_leader = false;
        self.last_leader_seen = None;
    }

    /// Flips leadership and reports the change to the embedding.
    fn set_leader(&mut self, core: &ChannelCore, fx: &mut dyn Effects, leads: bool) {
        self.is_leader = leads;
        fx.leadership_changed(core.channel, leads);
    }

    /// Drops the heartbeat memory when `peer` was the last leader heard (so
    /// a dynamic election re-runs on the next tick instead of waiting out
    /// `leader_timeout`). Called when discovery reaps `peer`; who leads
    /// next is [`Self::set_static_claim`]'s call.
    pub fn forget_peer(&mut self, peer: PeerId) {
        if matches!(self.last_leader_seen, Some((l, _)) if l == peer) {
            self.last_leader_seen = None;
        }
    }

    /// Static election on a channel whose membership can change: enforce
    /// `is_leader == senior`, where `senior` is the caller's
    /// discovery-seniority verdict
    /// ([`crate::discovery::DiscoveryEngine::self_is_most_senior`]). Runs
    /// on every discovery step, so leadership converges with the views:
    /// the senior survivor claims within one heartbeat period of reaping
    /// its predecessor, and a stale claimant (deposed while presumed
    /// dead) steps down as soon as its view shows somebody more senior.
    /// Inert under dynamic election.
    pub fn set_static_claim(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects, senior: bool) {
        if core.cfg.election.dynamic || self.is_leader == senior {
            return;
        }
        self.set_leader(core, fx, senior);
    }

    /// Discovery refuted an obituary about **this** peer: while it was
    /// presumed dead, the other members reassigned its seat (static
    /// re-election promoted the next senior member), so any leadership
    /// claim it still holds is stale and must be dropped. Under dynamic
    /// election nothing is forced — the ordinary heartbeat machinery
    /// already resolves competing claimants (the lower id wins).
    pub fn on_self_deposed(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        if !core.cfg.election.dynamic && self.is_leader {
            self.set_leader(core, fx, false);
        }
    }

    /// A leader heartbeat arrived. One naming a peer outside the
    /// organization is dropped whole: election seats organization members
    /// only, and a claim by a non-member would otherwise both depose a
    /// higher-id leader and, as the last leader heard, keep everybody else
    /// from standing up.
    pub fn on_leader_heartbeat(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        leader: PeerId,
        now: Time,
    ) {
        if !core.membership.contains(leader) {
            return;
        }
        self.last_leader_seen = Some((leader, now));
        if self.is_leader && leader < core.self_id {
            // A lower-id leader exists: step down (deterministic tie-break).
            self.set_leader(core, fx, false);
        }
    }

    /// The ElectionTick timer: heartbeat while leading; stand up as the
    /// lowest live id when the leader went silent.
    pub fn on_election_tick(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        let now = fx.now();
        if self.is_leader {
            self.broadcast_leadership(core, fx);
        } else {
            let leader_fresh = matches!(
                self.last_leader_seen,
                Some((_, at)) if now.since(at) <= core.cfg.election.leader_timeout
            );
            if !leader_fresh {
                // No live leader. The lowest-id peer believed alive stands
                // up; everyone runs the same rule, so exactly the live
                // minimum claims leadership.
                let lowest_alive = core
                    .membership
                    .alive_peers(now)
                    .into_iter()
                    .fold(core.self_id, PeerId::min);
                if lowest_alive == core.self_id {
                    self.set_leader(core, fx, true);
                    self.broadcast_leadership(core, fx);
                }
            }
        }
        let interval = core.cfg.election.heartbeat_interval;
        core.schedule(fx, interval, GossipTimer::ElectionTick);
    }

    fn broadcast_leadership(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        let me = core.self_id;
        for p in core.membership.peers().to_vec() {
            core.send(fx, p, GossipMsg::LeaderHeartbeat { leader: me });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GossipConfig;
    use crate::recovery::RecoveryEngine;
    use crate::testing::MockEffects;
    use fabric_types::block::{Block, BlockRef};
    use fabric_types::ids::ChannelId;

    fn core(self_id: u32) -> ChannelCore {
        ChannelCore::new(
            ChannelId::DEFAULT,
            PeerId(self_id),
            (0..4).map(PeerId).collect(),
            GossipConfig::enhanced_f4(),
        )
    }

    #[test]
    fn serves_consecutive_runs_and_steps_down_for_lower_ids() {
        let mut c = core(1);
        let mut recovery = RecoveryEngine::default();
        let mut e = ElectionEngine::new(true);
        let mut fx = MockEffects::new(1);
        for n in 1..=3 {
            c.store.insert(BlockRef::new(Block::new(
                n,
                fabric_types::crypto::Hash256::ZERO,
                vec![],
            )));
        }
        recovery.on_recovery_request(&mut c, &mut fx, PeerId(3), 1, 3);
        let sent = fx.take_sent();
        assert!(matches!(
            &sent[0].1,
            GossipMsg::RecoveryResponse { blocks } if blocks.len() == 3
        ));

        e.on_leader_heartbeat(&mut c, &mut fx, PeerId(0), Time::ZERO);
        assert!(!e.is_leader(), "lower-id leader forces a step-down");
        assert_eq!(fx.leadership, vec![false]);
    }

    #[test]
    fn static_claim_follows_the_seniority_verdict_and_reports_each_change() {
        // Peer 1 in a {0, 1, 2, 3} roster: peer 0 statically leads.
        let mut c = core(1);
        let mut e = ElectionEngine::new(false);
        let mut fx = MockEffects::new(1);
        // Forgetting a reaped peer is bookkeeping: it promotes nobody.
        e.forget_peer(PeerId(3));
        e.forget_peer(PeerId(0));
        e.set_static_claim(&mut c, &mut fx, false);
        assert!(!e.is_leader());
        assert!(fx.leadership.is_empty(), "an unchanged verdict is silent");
        // Discovery finds this peer the most senior survivor: it stands up.
        e.set_static_claim(&mut c, &mut fx, true);
        assert!(e.is_leader(), "the senior survivor must claim leadership");
        // A more senior peer reappears in the view: the claim is dropped.
        e.set_static_claim(&mut c, &mut fx, false);
        assert_eq!(fx.leadership, vec![true, false]);
        // Dynamic election ignores the verdict.
        c.cfg.election.dynamic = true;
        e.set_static_claim(&mut c, &mut fx, true);
        assert!(!e.is_leader());
    }

    #[test]
    fn dynamic_departure_clears_the_heartbeat_memory_and_height() {
        let mut c = core(1);
        c.cfg.election.dynamic = true;
        let mut recovery = RecoveryEngine::default();
        let mut e = ElectionEngine::new(false);
        let mut fx = MockEffects::new(1);
        recovery.on_state_info(&c, PeerId(0), 12, None);
        e.on_leader_heartbeat(&mut c, &mut fx, PeerId(0), Time::from_secs(1));
        recovery.forget_peer(PeerId(0));
        e.forget_peer(PeerId(0));
        assert!(!e.is_leader(), "dynamic mode re-elects on the next tick");
        // The departed leader's height must not drive recovery requests.
        recovery.on_recovery_round(&mut c, &mut fx);
        assert!(
            !fx.take_sent()
                .iter()
                .any(|(_, m)| matches!(m, GossipMsg::RecoveryRequest { .. })),
            "no recovery request toward a departed peer"
        );
        // The very next election tick stands this peer up (lowest alive id
        // among the remaining members believed alive is irrelevant at time
        // zero grace — self is lowest surviving claimant here).
        fx.now = Time::from_secs(100);
        e.on_election_tick(&mut c, &mut fx);
        assert!(e.is_leader(), "a reaped leader skips the leader timeout");
    }
}
