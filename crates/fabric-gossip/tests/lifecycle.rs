//! Runtime channel-lifecycle invariants, driven through `MockEffects` and
//! a channel-aware lockstep router (no simulator involved).
//!
//! Three properties of the join/leave machinery:
//!
//! 1. **Catch-up** — a late joiner converges to the exact chain head with
//!    no gaps through the ordinary StateInfo + recovery machinery;
//! 2. **Leadership** — exactly one leader exists per channel after
//!    arbitrary leave sequences, under static and dynamic election alike;
//! 3. **Isolation** — blocks never leak across channels under arbitrary
//!    join/leave interleavings.
//!
//! The `ChurnNet` router models the pre-discovery embedding: an oracle
//! that calls `on_peer_joined`/`on_peer_left` on every sitting member
//! synchronously. That path is kept (it is still the
//! `DiscoveryMode::Oracle` escape hatch of the experiments). The same
//! lifecycle properties with the oracle removed — membership travelling
//! only through the gossiped discovery protocol — need a simulator and
//! live in `fabric-experiments/tests/lifecycle.rs` (`discovery_ported`).

use desim::Time;
use fabric_gossip::config::GossipConfig;
use fabric_gossip::messages::{GossipMsg, GossipTimer};
use fabric_gossip::peer::GossipPeer;
use fabric_gossip::testing::MockEffects;
use fabric_types::block::{Block, BlockRef};
use fabric_types::crypto::Hash256;
use fabric_types::ids::{ChannelId, PeerId};
use proptest::prelude::*;

/// Payload padding for channel `c`: distinct per channel so a leaked block
/// would be recognizable by size alone.
fn payload_of(c: usize) -> u32 {
    1_000 * (c as u32 + 1)
}

fn block_on(c: usize, num: u64) -> BlockRef {
    BlockRef::new(Block::new(num, Hash256::ZERO, vec![]).with_padding(payload_of(c)))
}

/// A lockstep network with runtime membership: routes every channel-tagged
/// message with zero latency until quiescence, and applies join/leave the
/// way an embedding's discovery layer would — the mover switches its own
/// instance, every sitting member is notified synchronously.
struct ChurnNet {
    peers: Vec<GossipPeer>,
    fxs: Vec<MockEffects>,
    /// Per channel: current members.
    members: Vec<Vec<PeerId>>,
    /// Per channel: blocks injected so far (the chain head).
    heads: Vec<u64>,
}

impl ChurnNet {
    /// `n` peers; peer `i` starts joined to every channel whose member
    /// list contains it.
    fn new(n: usize, memberships: Vec<Vec<PeerId>>, cfg: &GossipConfig) -> Self {
        let peers: Vec<GossipPeer> = (0..n as u32)
            .map(|i| {
                let mut peer = GossipPeer::with_channels(PeerId(i), cfg.clone());
                for (c, members) in memberships.iter().enumerate() {
                    if members.contains(&PeerId(i)) {
                        peer = peer.join_channel(ChannelId(c as u16), members.clone());
                    }
                }
                peer
            })
            .collect();
        let fxs: Vec<MockEffects> = (0..n as u64).map(|i| MockEffects::new(4_000 + i)).collect();
        let heads = vec![0; memberships.len()];
        ChurnNet {
            peers,
            fxs,
            members: memberships,
            heads,
        }
    }

    /// Routes messages until no peer has anything left to send.
    fn route(&mut self) {
        loop {
            let mut queue: Vec<(PeerId, ChannelId, PeerId, GossipMsg)> = Vec::new();
            for (i, fx) in self.fxs.iter_mut().enumerate() {
                for (ch, to, msg) in fx.take_sent_on() {
                    queue.push((PeerId(i as u32), ch, to, msg));
                }
            }
            if queue.is_empty() {
                return;
            }
            for (from, ch, to, msg) in queue {
                let idx = to.index();
                self.peers[idx].on_channel_message(&mut self.fxs[idx], ch, from, msg);
            }
        }
    }

    /// Runtime join: the joiner's roster is the membership as it stood
    /// before the join (the late-joiner rule — it never self-elects
    /// statically); sitting members learn through discovery.
    fn join(&mut self, c: usize, peer: PeerId) {
        if self.members[c].contains(&peer) {
            return;
        }
        let roster = self.members[c].clone();
        let idx = peer.index();
        self.peers[idx].join_channel_live(&mut self.fxs[idx], ChannelId(c as u16), roster);
        self.members[c].push(peer);
        for m in self.members[c].clone() {
            if m != peer {
                let i = m.index();
                self.peers[i].on_peer_joined(&mut self.fxs[i], ChannelId(c as u16), peer);
            }
        }
    }

    /// Runtime leave: the leaver drops its instance, sitting members are
    /// notified (forcing re-election when the leaver led).
    fn leave(&mut self, c: usize, peer: PeerId) {
        let Some(pos) = self.members[c].iter().position(|m| *m == peer) else {
            return;
        };
        self.members[c].remove(pos);
        self.peers[peer.index()].leave_channel(ChannelId(c as u16));
        for m in self.members[c].clone() {
            let i = m.index();
            self.peers[i].on_peer_left(&mut self.fxs[i], ChannelId(c as u16), peer);
        }
    }

    /// Injects the next block of channel `c` at its lowest current member
    /// and routes to quiescence.
    fn inject(&mut self, c: usize) {
        let Some(seed_peer) = self.members[c].iter().min().copied() else {
            return; // everyone left — nothing to disseminate to
        };
        self.heads[c] += 1;
        let b = block_on(c, self.heads[c]);
        let idx = seed_peer.index();
        self.peers[idx].on_block_from_orderer_on(&mut self.fxs[idx], ChannelId(c as u16), b);
        self.route();
    }

    /// Leaders of channel `c` among its current members.
    fn leaders(&self, c: usize) -> Vec<PeerId> {
        self.members[c]
            .iter()
            .copied()
            .filter(|m| self.peers[m.index()].is_leader_on(ChannelId(c as u16)))
            .collect()
    }
}

/// One churn step of the isolation property, decoded from a raw
/// `(kind, channel, peer)` tuple (the vendored proptest stand-in has no
/// `prop_oneof`): kind 0 = join, 1 = leave, 2 = inject.
fn apply_op(net: &mut ChurnNet, op: (u8, usize, u32)) {
    let (kind, channel, peer) = op;
    match kind {
        0 => net.join(channel, PeerId(peer)),
        1 => net.leave(channel, PeerId(peer)),
        _ => net.inject(channel),
    }
}

proptest! {
    /// A late joiner converges to the exact chain head, gap-free, through
    /// StateInfo + recovery alone.
    #[test]
    fn late_joiner_converges_to_the_exact_head_with_no_gaps(
        members in 3u32..8,
        head in 1u64..20,
    ) {
        let roster: Vec<PeerId> = (0..members).map(PeerId).collect();
        let mut net = ChurnNet::new(
            members as usize + 1,
            vec![roster],
            &GossipConfig::enhanced_f4(),
        );
        for _ in 0..head {
            net.inject(0);
        }
        let joiner = PeerId(members);
        net.join(0, joiner);
        prop_assert_eq!(net.peers[joiner.index()].height_on(ChannelId(0)), 1);

        // Drive the state-transfer machinery by hand (the lockstep router
        // does not fire timers): a member's StateInfo round advertises the
        // head, the joiner's recovery rounds then fetch consecutive runs —
        // batch_max 16 per round bounds the rounds needed.
        let teacher = PeerId(0);
        let mut rounds = 0;
        while net.peers[joiner.index()].height_on(ChannelId(0)) <= net.heads[0] {
            rounds += 1;
            prop_assert!(rounds <= 8, "catch-up must converge in bounded rounds");
            let h = net.peers[teacher.index()].height_on(ChannelId(0));
            net.peers[joiner.index()].on_channel_message(
                &mut net.fxs[joiner.index()],
                ChannelId(0),
                teacher,
                GossipMsg::StateInfo { height: h, checkpoint: None },
            );
            net.peers[joiner.index()].on_channel_timer(
                &mut net.fxs[joiner.index()],
                ChannelId(0),
                GossipTimer::RecoveryRound,
            );
            net.route();
        }

        let store = net.peers[joiner.index()]
            .store_on(ChannelId(0))
            .expect("joiner holds a store");
        prop_assert_eq!(store.height(), net.heads[0] + 1, "exact head reached");
        prop_assert_eq!(store.len() as u64, net.heads[0]);
        for num in 1..=net.heads[0] {
            prop_assert!(store.has(num), "no gap at block {}", num);
        }
        // And the joiner now receives fresh blocks first-class.
        net.inject(0);
        prop_assert!(net.peers[joiner.index()].store_on(ChannelId(0)).unwrap().has(net.heads[0]));
    }

    /// Exactly one leader per channel after arbitrary leave sequences
    /// (static election: departures promote the new lowest member
    /// synchronously).
    #[test]
    fn exactly_one_static_leader_survives_arbitrary_leaves(
        n in 3u32..10,
        leave_order in proptest::collection::vec(0u32..10, 1..9),
    ) {
        let roster: Vec<PeerId> = (0..n).map(PeerId).collect();
        let mut net = ChurnNet::new(n as usize, vec![roster], &GossipConfig::enhanced_f4());
        prop_assert_eq!(net.leaders(0), vec![PeerId(0)]);
        for raw in leave_order {
            let peer = PeerId(raw % n);
            if net.members[0].len() == 1 {
                break; // keep one peer seated so the channel stays alive
            }
            net.leave(0, peer);
            let leaders = net.leaders(0);
            prop_assert_eq!(
                leaders,
                vec![*net.members[0].iter().min().unwrap()],
                "the lowest sitting member must be the one leader"
            );
            // Dissemination still works after every departure.
            net.inject(0);
            let head = net.heads[0];
            for m in &net.members[0] {
                prop_assert!(
                    net.peers[m.index()].store_on(ChannelId(0)).unwrap().has(head),
                    "member {} missed block {} after a leave",
                    m,
                    head
                );
            }
        }
    }

    /// Exactly one leader survives arbitrary **mixed** join/leave
    /// sequences. This is the regression net for the roster-rank rule: a
    /// runtime joiner with a lower id than every sitting member ranks
    /// *last* (seniority), so a later leader departure must still promote
    /// exactly one peer — a min-over-roster rule would strand the channel
    /// with zero leaders (the joiner's own roster ranks it last) or crown
    /// a second one.
    #[test]
    fn exactly_one_static_leader_survives_arbitrary_churn(
        ops in proptest::collection::vec((0u8..2, 0usize..1, 0u32..8), 1..30),
    ) {
        let roster: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut net = ChurnNet::new(8, vec![roster], &GossipConfig::enhanced_f4());
        for op in ops {
            apply_op(&mut net, op);
            if net.members[0].is_empty() {
                continue;
            }
            let leaders = net.leaders(0);
            prop_assert!(
                leaders.len() == 1,
                "want exactly one leader, got {:?} among members {:?} after {:?}",
                leaders,
                net.members[0],
                op
            );
        }
    }

    /// Blocks never leak across channels, whatever join/leave/inject
    /// interleaving happens.
    #[test]
    fn blocks_never_leak_across_channels_under_churn(
        ops in proptest::collection::vec((0u8..3, 0usize..3, 0u32..10), 1..25),
    ) {
        let n = 10u32;
        // Three channels over overlapping thirds of the roster.
        let memberships: Vec<Vec<PeerId>> = vec![
            (0..5).map(PeerId).collect(),
            (3..8).map(PeerId).collect(),
            (5..10).map(PeerId).collect(),
        ];
        let mut net = ChurnNet::new(n as usize, memberships, &GossipConfig::enhanced_f4());
        for op in ops {
            apply_op(&mut net, op);
        }
        for c in 0..3 {
            let ch = ChannelId(c as u16);
            let expected_size = block_on(c, 1).wire_size();
            for p in 0..n {
                let peer = &net.peers[p as usize];
                match peer.store_on(ch) {
                    Some(store) => {
                        // Having an instance implies current membership.
                        prop_assert!(
                            net.members[c].contains(&PeerId(p)),
                            "peer {} holds an instance of {} it is no member of",
                            p,
                            ch
                        );
                        for num in 1..=net.heads[c] {
                            if let Some(held) = store.get(num) {
                                // A foreign block would betray itself by
                                // its per-channel payload size.
                                prop_assert_eq!(held.wire_size(), expected_size);
                            }
                        }
                        prop_assert!(
                            store.max_seen() <= net.heads[c],
                            "peer {} holds block numbers {} beyond {}'s head {}",
                            p,
                            store.max_seen(),
                            ch,
                            net.heads[c]
                        );
                    }
                    None => prop_assert!(
                        !net.members[c].contains(&PeerId(p)),
                        "member {} of {} lost its instance",
                        p,
                        ch
                    ),
                }
            }
        }
    }
}

/// The low-id-joiner scenario pinned deterministically: peer 0 joins a
/// sitting channel late (ranking last by seniority despite its id), the
/// leader leaves, and exactly one successor — the most senior sitting
/// member, not the joiner — stands up. Under a min-over-roster rule this
/// strands the channel with zero leaders: the joiner's own roster ranks
/// it last while every sitting member's min points at the joiner.
#[test]
fn low_id_late_joiner_neither_deadlocks_nor_usurps_the_succession() {
    let roster: Vec<PeerId> = (1..4).map(PeerId).collect(); // members 1, 2, 3
    let mut net = ChurnNet::new(4, vec![roster], &GossipConfig::enhanced_f4());
    assert_eq!(net.leaders(0), vec![PeerId(1)]);

    net.join(0, PeerId(0));
    assert_eq!(net.leaders(0), vec![PeerId(1)], "a join never deposes");

    net.leave(0, PeerId(1));
    assert_eq!(
        net.leaders(0),
        vec![PeerId(2)],
        "seniority promotes the sitting member, not the late joiner"
    );

    net.leave(0, PeerId(2));
    net.leave(0, PeerId(3));
    assert_eq!(
        net.leaders(0),
        vec![PeerId(0)],
        "the joiner leads once every senior member departed"
    );
}

/// Dynamic election under churn: after ticks-and-routing settle, exactly
/// one leader stands per channel, and a leave announcement skips the
/// leader timeout.
#[test]
fn dynamic_election_converges_to_one_leader_after_the_leader_leaves() {
    let mut cfg = GossipConfig::enhanced_f4();
    cfg.election.dynamic = true;
    let n = 6u32;
    let roster: Vec<PeerId> = (0..n).map(PeerId).collect();
    let mut net = ChurnNet::new(n as usize, vec![roster], &cfg);
    assert!(net.leaders(0).is_empty(), "dynamic mode starts leaderless");

    // A tick round at T: every member's election timer fires, claims are
    // routed (higher-id claimants step down on hearing a lower leader).
    let tick_round = |net: &mut ChurnNet, t: Time| {
        for m in net.members[0].clone() {
            let i = m.index();
            net.fxs[i].now = t;
            net.peers[i].on_channel_timer(&mut net.fxs[i], ChannelId(0), GossipTimer::ElectionTick);
        }
        net.route();
    };
    for round in 0..3 {
        tick_round(&mut net, Time::from_secs(40 + round * 5));
    }
    assert_eq!(
        net.leaders(0),
        vec![PeerId(0)],
        "lowest id wins the election"
    );

    // The leader leaves: the announcement clears the heartbeat memory, so
    // the very next tick round elects a successor without waiting out the
    // 15 s leader timeout.
    net.leave(0, PeerId(0));
    assert!(net.leaders(0).is_empty());
    for round in 0..3 {
        tick_round(&mut net, Time::from_secs(60 + round * 5));
    }
    assert_eq!(net.leaders(0), vec![PeerId(1)], "announced leave hands off");

    // And a non-leader leave changes nothing.
    net.leave(0, PeerId(4));
    tick_round(&mut net, Time::from_secs(80));
    assert_eq!(net.leaders(0), vec![PeerId(1)]);
}
