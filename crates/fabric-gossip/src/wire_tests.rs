//! Hostile block numbers, counters and adverts against one peer.
//!
//! Every table the per-message path keys by block number is indexed by
//! numbers that arrive from the wire — in `PushDigest`, `PushRequest`,
//! `PullDigestResponse`, `PullRequest`, `RecoveryRequest` and as the
//! number of a pushed, pulled or recovered payload. The property test
//! interleaves such messages, from members, strangers and the peer's own
//! id, with honest in-order traffic, on an honest peer or a free rider,
//! and checks after every step that nothing panicked, the chain still
//! grows in order, and no table outgrew the rows it holds plus [`SPAN`].
//! A hostile digest pairs such a top with an empty, full or lone-bit
//! mask, or one naming genesis and below: it adds at most 64 rows to the
//! round's offers, as an honest one can.
//!
//! `StateInfo` rides along, the tables it reaches being keyed by *peer*:
//! the recovery engine's height and checkpoint views never hold more rows
//! than the channel has members. Half the cases run on the roster `5..15`,
//! where the peer is the lowest member (so it holds the static seat) and
//! ids `0..5` are strangers that would outrank it; in every case no message
//! moves the seat.
//!
//! Under gossiped discovery the peer ids themselves come off the wire: a
//! claim about an unknown id is a join. The last test feeds one peer a
//! thousand such ids, the largest of them at the top of the id space, and
//! checks that each costs one row in every per-peer table while the dense
//! index keeps the range it was seeded with.
//!
//! An obituary is a claim like any other, and one naming the receiver
//! itself, even at `u64::MAX` incarnation and seq, moves nothing there: no
//! incarnation, no seat, no view.

use desim::Duration;
use fabric_types::block::{Block, BlockRef};
use fabric_types::crypto::Hash256;
use fabric_types::ids::{ChannelId, PeerId};
use fabric_types::snapshot::Checkpoint;
use proptest::prelude::*;

use crate::blockmap::SPAN;
use crate::config::GossipConfig;
use crate::messages::{GossipMsg, GossipTimer, PeerAlive};
use crate::peer::GossipPeer;
use crate::testing::MockEffects;

const ME: PeerId = PeerId(5);
/// A member of both rosters.
const HONEST: PeerId = PeerId(6);
const TTL: u32 = 9;

fn block(num: u64) -> BlockRef {
    BlockRef::new(Block::new(num, Hash256::ZERO, vec![]))
}

/// Members, a stranger and the peer itself (on the roster `5..15`, ids
/// `0..5` are strangers too).
fn sender(class: u8) -> PeerId {
    match class {
        0..=8 => PeerId(u32::from(class) + u32::from(class >= 5)),
        9 => PeerId(77),
        _ => ME,
    }
}

fn hostile_number(class: u8, height: u64) -> u64 {
    match class {
        0 => 0,
        1 => 1,
        2 => height.saturating_sub(2),
        3 => height.saturating_sub(1),
        4 => height,
        5 => height + 1,
        6 => height + 3,
        7 => 1 << 32,
        8 => u64::MAX - 1,
        _ => u64::MAX,
    }
}

/// Digest masks: empty, the top alone, all 64, the lowest alone, bits
/// naming genesis and nothing (from `top` up), and every other number.
fn hostile_mask(class: u8, top: u64) -> u64 {
    let from_top = u64::MAX << top.min(63);
    [0, 1, u64::MAX, 1 << 63, from_top, 0x5555_5555_5555_5555][usize::from(class)]
}

fn hostile_counter(class: u8) -> u32 {
    [0, TTL - 1, TTL, 63, 64, u32::MAX][usize::from(class)]
}

proptest! {
    #[test]
    fn wire_hostile_numbers_neither_panic_nor_grow_the_tables(
        mode in 0u8..16,
        ops in proptest::collection::vec((0u8..16, 0u8..10, 0u8..6, 0u8..11), 1..220),
    ) {
        let [enhanced, leading, snapshots, free_riding] = [1, 2, 4, 8].map(|bit| mode & bit != 0);
        let mut cfg = if enhanced {
            GossipConfig::enhanced(4, TTL, 2)
        } else {
            GossipConfig::original_fabric()
        };
        if snapshots {
            cfg = cfg.with_snapshots(8);
        }
        let batch_max = cfg.recovery.batch_max;
        let roster = if leading { 5..15 } else { 0..10 };
        let mut peer = GossipPeer::new(ME, roster.map(PeerId).collect(), cfg);
        peer.set_forwarding(!free_riding);
        let mut fx = MockEffects::new(11);
        peer.init(&mut fx);
        let seated = peer.is_leader();
        prop_assert_eq!(seated, leading);
        let mut honest_head = 0u64;
        let mut pull_rounds = 0u64;
        for (kind, num_class, counter_class, from_class) in ops {
            let before = peer.height();
            let num = hostile_number(num_class, before);
            let other = hostile_number(counter_class + 4, before);
            let counter = hostile_counter(counter_class);
            let from = sender(from_class);
            let msg = match kind {
                0 => GossipMsg::PushDigest { block_num: num, counter },
                1 => GossipMsg::PushRequest { block_num: num, counter },
                2 => GossipMsg::PullDigestResponse {
                    nonce: pull_rounds,
                    top: num,
                    held: hostile_mask(counter_class, num),
                },
                3 => GossipMsg::PullRequest { nonce: pull_rounds, block_nums: vec![num, other] },
                4 => GossipMsg::RecoveryRequest { from: num, to: other },
                5 => GossipMsg::RecoveryRequest { from: other, to: num },
                6 => GossipMsg::BlockPush { block: block(num), counter },
                7 => GossipMsg::PullResponse { nonce: pull_rounds, blocks: vec![block(num)] },
                8 => GossipMsg::RecoveryResponse { blocks: vec![block(num), block(other)] },
                9 => GossipMsg::PullHello { nonce: num },
                10 => {
                    // Every armed timer fires (periodic rounds re-arm once).
                    fx.advance(Duration::from_millis(500));
                    for (_, timer) in fx.take_scheduled() {
                        if matches!(timer, GossipTimer::PullRound) {
                            pull_rounds += 1;
                        }
                        peer.on_timer(&mut fx, timer);
                    }
                    continue;
                }
                14 => GossipMsg::StateInfo {
                    height: num,
                    checkpoint: (counter_class % 2 == 0)
                        .then_some(Checkpoint { height: num, state_hash: Hash256::ZERO }),
                },
                _ => {
                    // Honest traffic: the next block of the chain, announced
                    // then pushed, by a member.
                    honest_head += 1;
                    peer.on_message(
                        &mut fx,
                        HONEST,
                        GossipMsg::PushDigest { block_num: honest_head, counter: 3 },
                    );
                    GossipMsg::BlockPush { block: block(honest_head), counter: 3 }
                }
            };
            // The fourth table is the pull round's offers.
            let offers = peer.tables()[3].1;
            peer.on_message(&mut fx, from, msg);
            fx.take_sent();
            prop_assert!(peer.tables()[3].1 <= offers + 64, "a digest named over 64 numbers");

            let height = peer.height();
            prop_assert!(height >= before, "height went back");
            prop_assert!(height > honest_head, "an honest block is missing");
            let store = peer.store();
            prop_assert!((1..height).all(|n| store.get(n).is_some()), "gap below the height");
            prop_assert_eq!(fx.delivered_numbers(), (1..height).collect::<Vec<_>>());
            // The digest returns, naming exactly the numbers held among the
            // 64 from its top down, however far a hostile row put the top.
            let (top, held) = store.digest();
            prop_assert_eq!(top, store.max_seen());
            for i in 0..64 {
                prop_assert_eq!((held >> i) & 1 == 1, i < top && store.get(top - i).is_some());
            }
            // Whole-range queries cost what is held, or this never returns.
            prop_assert!(store.consecutive_run(0, u64::MAX, batch_max).is_empty());
            prop_assert_eq!(
                store.consecutive_run(1, u64::MAX, batch_max).len() as u64,
                (height - 1).min(batch_max)
            );
            for (allocated, held) in peer.tables() {
                prop_assert!(allocated <= held + SPAN, "{allocated} rows for {held} held");
            }
            let members = peer.channel().len();
            let [_, _, heights, checkpoints] = peer.peer_tables();
            for (_, _, rows) in [heights, checkpoints] {
                prop_assert!(rows <= members, "{rows} adverts kept from {members} members");
            }
            prop_assert_eq!(peer.is_leader(), seated, "a static seat moved");
        }
    }
}

#[test]
fn wire_hostile_discovery_ids_cost_one_row_each() {
    // Roster 0..10 without the peer itself: the dense range is 10 slots.
    const RANGE: usize = 10;
    let cfg = GossipConfig::enhanced(4, TTL, 2).with_discovery_protocol();
    let mut peer = GossipPeer::new(ME, (0..10).map(PeerId).collect(), cfg);
    let mut fx = MockEffects::new(3);
    peer.init(&mut fx);
    let claim = |peer, incarnation| PeerAlive {
        peer,
        incarnation,
        seq: 1,
    };
    let top = PeerId(u32::MAX - 1);
    peer.on_message(&mut fx, HONEST, GossipMsg::AliveMsg(claim(top, 1)));
    let strangers: Vec<PeerId> = (0..1_000).map(|i| PeerId(10 + i * 4_000_000)).collect();
    let response = GossipMsg::MembershipResponse {
        entries: strangers.iter().map(|p| claim(*p, 1)).collect(),
        dead: vec![],
    };
    peer.on_message(&mut fx, HONEST, response);
    for from in strangers.iter().chain([&top]) {
        let advert = GossipMsg::StateInfo {
            height: 3,
            checkpoint: Some(Checkpoint {
                height: 2,
                state_hash: Hash256::ZERO,
            }),
        };
        peer.on_message(&mut fx, *from, advert);
    }
    // Nine seeded members, the top id and the thousand: one row each, the
    // 1 001 above the range in the spill.
    let admitted = (RANGE - 1, 1_001);
    assert_eq!(peer.membership().len(), admitted.0 + admitted.1);
    let [claims, obituaries, heights, checkpoints] = peer.peer_tables();
    assert_eq!(claims, (RANGE, admitted.1, admitted.0 + admitted.1));
    assert_eq!(obituaries, (RANGE, 0, 0));
    assert_eq!(heights, (RANGE, admitted.1, admitted.1));
    assert_eq!(checkpoints, (RANGE, admitted.1, admitted.1));

    // Their obituaries: every stranger moves from the claims to the
    // obituaries, and recovery forgets it.
    let obituary = GossipMsg::MembershipResponse {
        entries: vec![],
        dead: strangers.iter().map(|p| claim(*p, 1)).collect(),
    };
    peer.on_message(&mut fx, HONEST, obituary);
    let [claims, obituaries, heights, checkpoints] = peer.peer_tables();
    assert_eq!(claims, (RANGE, 1, RANGE));
    assert_eq!(obituaries, (RANGE, 1_000, 1_000));
    assert_eq!(heights, (RANGE, 1, 1));
    assert_eq!(checkpoints, (RANGE, 1, 1));
}

#[test]
fn wire_hostile_obituary_of_the_receiver_at_the_top_changes_nothing() {
    // The seated peer 0 of the roster 0..4 under discovery.
    let cfg = GossipConfig::enhanced(4, TTL, 2).with_discovery_protocol();
    let mut peer = GossipPeer::new(PeerId(0), (0..4).map(PeerId).collect(), cfg);
    let mut fx = MockEffects::new(5);
    peer.init(&mut fx);
    fn discovery(peer: &GossipPeer) -> &crate::discovery::DiscoveryEngine {
        peer.discovery_on(ChannelId::DEFAULT).unwrap()
    }
    let life = discovery(&peer).incarnation();
    let seated = peer.is_leader();
    let views = (
        peer.membership().peers().to_vec(),
        peer.channel().peers().to_vec(),
    );
    let forged = PeerAlive {
        peer: PeerId(0),
        incarnation: u64::MAX,
        seq: u64::MAX,
    };
    for from in [PeerId(1), PeerId(77), PeerId(0)] {
        let response = GossipMsg::MembershipResponse {
            entries: vec![],
            dead: vec![forged],
        };
        peer.on_message(&mut fx, from, response);
        let request = GossipMsg::MembershipRequest {
            entries: vec![],
            dead: vec![forged],
        };
        peer.on_message(&mut fx, from, request);
        assert_eq!(discovery(&peer).incarnation(), life, "from {from}");
        assert_eq!(peer.is_leader(), seated, "from {from}");
        assert_eq!(
            (
                peer.membership().peers().to_vec(),
                peer.channel().peers().to_vec()
            ),
            views,
            "from {from}"
        );
        assert_eq!(discovery(&peer).obituary_iter().count(), 0, "from {from}");
    }
    assert!(seated && fx.traced.is_empty());
}
