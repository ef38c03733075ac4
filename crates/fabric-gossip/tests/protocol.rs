//! Protocol-level tests of the gossip state machine: one peer (or two,
//! routed by hand) driven through `MockEffects`, asserting the exact
//! messages and timers each input produces. What needs a whole network —
//! coverage, message economy, the paper's closed forms — runs on the one
//! simulator (`tests/conformance.rs` at the repository root).

use desim::{Duration, Message as _};
use fabric_gossip::config::{GossipConfig, PushMode};
use fabric_gossip::effects::ProtocolEvent;
use fabric_gossip::messages::{GossipMsg, GossipTimer};
use fabric_gossip::peer::GossipPeer;
use fabric_gossip::testing::MockEffects;
use fabric_types::block::{Block, BlockRef};
use fabric_types::ids::{ChannelId, PeerId};

fn block(num: u64) -> BlockRef {
    BlockRef::new(
        Block::new(num, fabric_types::crypto::Hash256::ZERO, vec![]).with_padding(160_000),
    )
}

fn roster(n: u32) -> Vec<PeerId> {
    (0..n).map(PeerId).collect()
}

#[test]
fn enhanced_leader_sends_exactly_f_leader_out_copies() {
    let cfg = GossipConfig::enhanced_f4();
    let ids = roster(10);
    let mut leader = GossipPeer::new(PeerId(0), ids, cfg);
    let mut fx = MockEffects::new(5);
    leader.on_block_from_orderer(&mut fx, block(1));
    let sent = fx.take_sent();
    assert_eq!(sent.len(), 1, "f_leader_out = 1 means one initial copy");
    assert!(matches!(sent[0].1, GossipMsg::BlockPush { counter: 0, .. }));
}

#[test]
fn infect_and_die_forwards_once_and_dies() {
    let mut cfg = GossipConfig::original_fabric();
    // Flush immediately so the test needs no timers.
    if let PushMode::InfectAndDie { tpush, .. } = &mut cfg.push {
        *tpush = Duration::ZERO;
    }
    let ids = roster(10);
    let mut peer = GossipPeer::new(PeerId(5), ids, cfg);
    let mut fx = MockEffects::new(9);

    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 0,
        },
    );
    let first = fx.take_sent();
    assert_eq!(first.len(), 3, "fout = 3 pushes on first reception");
    assert!(first.iter().all(|(_, m)| m.kind() == "block"));

    // Second reception of the same block: infected peers stay silent.
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 0,
        },
    );
    assert!(
        fx.take_sent().is_empty(),
        "infect-and-die must not forward twice"
    );
    assert_eq!(peer.stats().duplicate_blocks, 1);
}

#[test]
fn pull_received_blocks_are_not_pushed() {
    let mut cfg = GossipConfig::original_fabric();
    if let PushMode::InfectAndDie { tpush, .. } = &mut cfg.push {
        *tpush = Duration::ZERO;
    }
    let ids = roster(10);
    let mut peer = GossipPeer::new(PeerId(5), ids, cfg);
    let mut fx = MockEffects::new(9);

    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::PullResponse {
            nonce: 0,
            blocks: vec![block(1)],
        },
    );
    assert!(
        fx.take_sent().is_empty(),
        "blocks obtained via pull only feed pull responses, never push"
    );
    assert!(peer.store().has(1));
}

#[test]
fn ttl_stops_the_enhanced_dissemination() {
    let cfg = GossipConfig::enhanced(4, 9, 9); // all-direct, digests moot
    let ids = roster(10);
    let mut peer = GossipPeer::new(PeerId(5), ids, cfg);
    let mut fx = MockEffects::new(9);

    // Counter below TTL: forward with counter + 1.
    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 8,
        },
    );
    let sent = fx.take_sent();
    assert_eq!(sent.len(), 4);
    assert!(sent
        .iter()
        .all(|(_, m)| matches!(m, GossipMsg::BlockPush { counter: 9, .. })));

    // Counter at TTL: accept, do not forward.
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::BlockPush {
            block: block(2),
            counter: 9,
        },
    );
    assert!(
        fx.take_sent().is_empty(),
        "counter = TTL must not be forwarded"
    );
}

#[test]
fn same_pair_is_forwarded_once_but_new_counters_reinfect() {
    let cfg = GossipConfig::enhanced(2, 19, 19);
    let ids = roster(10);
    let mut peer = GossipPeer::new(PeerId(5), ids, cfg);
    let mut fx = MockEffects::new(9);

    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 3,
        },
    );
    assert_eq!(fx.take_sent().len(), 2);
    // Same (block, counter): ignored.
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 3,
        },
    );
    assert!(fx.take_sent().is_empty());
    // Same block, fresh counter: infect-upon-contagion forwards again.
    peer.on_message(
        &mut fx,
        PeerId(3),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 7,
        },
    );
    let sent = fx.take_sent();
    assert_eq!(sent.len(), 2);
    assert!(sent
        .iter()
        .all(|(_, m)| matches!(m, GossipMsg::BlockPush { counter: 8, .. })));
}

#[test]
fn digest_triggers_fetch_then_owed_forwards() {
    let cfg = GossipConfig::enhanced_f4(); // ttl 9, ttl_direct 2, digests on
    let ids = roster(10);
    let mut peer = GossipPeer::new(PeerId(5), ids, cfg);
    let mut fx = MockEffects::new(9);

    // Digest for unknown content: exactly one fetch request to the sender.
    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::PushDigest {
            block_num: 1,
            counter: 4,
        },
    );
    let sent = fx.take_sent();
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].0, PeerId(1));
    assert!(matches!(
        sent[0].1,
        GossipMsg::PushRequest {
            block_num: 1,
            counter: 4
        }
    ));
    // A second digest with another counter queues, without a second fetch.
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::PushDigest {
            block_num: 1,
            counter: 6,
        },
    );
    assert!(fx.take_sent().is_empty());

    // Content arrives (echoing counter 4): forwards are owed for counters 4
    // and 6, i.e. digests with counters 5 and 7 to fout = 4 targets each.
    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 4,
        },
    );
    let sent = fx.take_sent();
    let digests: Vec<u32> = sent
        .iter()
        .filter_map(|(_, m)| match m {
            GossipMsg::PushDigest { counter, .. } => Some(*counter),
            _ => None,
        })
        .collect();
    assert_eq!(sent.len(), 8);
    assert_eq!(digests.iter().filter(|c| **c == 5).count(), 4);
    assert_eq!(digests.iter().filter(|c| **c == 7).count(), 4);
}

#[test]
fn digest_for_known_content_forwards_without_fetch() {
    let cfg = GossipConfig::enhanced_f4();
    let ids = roster(10);
    let mut peer = GossipPeer::new(PeerId(5), ids, cfg);
    let mut fx = MockEffects::new(9);

    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 5,
        },
    );
    fx.take_sent();
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::PushDigest {
            block_num: 1,
            counter: 7,
        },
    );
    let sent = fx.take_sent();
    assert_eq!(sent.len(), 4, "known content reinfects straight away");
    assert!(sent
        .iter()
        .all(|(_, m)| matches!(m, GossipMsg::PushDigest { counter: 8, .. })));
    assert_eq!(peer.stats().fetch_requests, 0);
}

#[test]
fn ttl_direct_switches_between_blocks_and_digests() {
    let cfg = GossipConfig::enhanced(4, 9, 2);
    let ids = roster(10);
    let mut peer = GossipPeer::new(PeerId(5), ids, cfg);
    let mut fx = MockEffects::new(9);

    // counter 1 -> forwards counter 2 <= ttl_direct: full blocks.
    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 1,
        },
    );
    let sent = fx.take_sent();
    assert!(sent.iter().all(|(_, m)| m.kind() == "block"));

    // counter 2 -> forwards counter 3 > ttl_direct: digests.
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::BlockPush {
            block: block(2),
            counter: 2,
        },
    );
    let sent = fx.take_sent();
    assert!(sent.iter().all(|(_, m)| m.kind() == "push-digest"));
}

#[test]
fn push_request_is_served_from_the_store() {
    let cfg = GossipConfig::enhanced_f4();
    let ids = roster(10);
    let mut peer = GossipPeer::new(PeerId(5), ids, cfg);
    let mut fx = MockEffects::new(9);

    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 9,
        },
    );
    fx.take_sent();
    peer.on_message(
        &mut fx,
        PeerId(3),
        GossipMsg::PushRequest {
            block_num: 1,
            counter: 6,
        },
    );
    let sent = fx.take_sent();
    assert_eq!(sent.len(), 1);
    assert_eq!(sent[0].0, PeerId(3));
    assert!(matches!(sent[0].1, GossipMsg::BlockPush { counter: 6, .. }));

    // Unknown content: silence (the requester's retry timer handles it).
    peer.on_message(
        &mut fx,
        PeerId(3),
        GossipMsg::PushRequest {
            block_num: 99,
            counter: 1,
        },
    );
    assert!(fx.take_sent().is_empty());
}

#[test]
fn fetch_retry_rotates_advertisers_and_gives_up() {
    let ids = roster(10);
    let mut peer = GossipPeer::new(PeerId(5), ids, GossipConfig::enhanced_f4());
    let mut fx = MockEffects::new(9);

    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::PushDigest {
            block_num: 1,
            counter: 4,
        },
    );
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::PushDigest {
            block_num: 1,
            counter: 5,
        },
    );
    fx.take_sent();
    let retry = |attempt| GossipTimer::FetchRetry {
        block_num: 1,
        attempt,
    };

    // Each retry re-requests from the rotation's next advertiser: peer 1
    // was asked first, then 2, 1, 2 — four retries after the first ask.
    for (attempt, advertiser) in [(1, 2), (2, 1), (3, 2), (4, 1)] {
        peer.on_timer(&mut fx, retry(attempt));
        let sent = fx.take_sent();
        assert_eq!(sent.len(), 1, "attempt {attempt}");
        assert_eq!(sent[0].0, PeerId(advertiser), "attempt {attempt}");
        assert!(matches!(
            sent[0].1,
            GossipMsg::PushRequest { block_num: 1, .. }
        ));
    }

    // Attempt limit (5) reached: give up silently (recovery's job now).
    peer.on_timer(&mut fx, retry(5));
    assert!(fx.take_sent().is_empty());
    // After giving up, further retries are no-ops.
    peer.on_timer(&mut fx, retry(2));
    assert!(fx.take_sent().is_empty());
}

#[test]
fn pull_engine_four_phase_flow() {
    let cfg = GossipConfig::original_fabric();
    let ids = roster(3);
    let mut requester = GossipPeer::new(PeerId(1), ids.clone(), cfg.clone());
    let mut responder = GossipPeer::new(PeerId(2), ids, cfg);
    let mut rfx = MockEffects::new(1);
    let mut sfx = MockEffects::new(2);

    // Responder holds blocks 1..=3 (via pull so it does not push).
    responder.on_message(
        &mut sfx,
        PeerId(0),
        GossipMsg::PullResponse {
            nonce: 0,
            blocks: vec![block(1), block(2), block(3)],
        },
    );
    sfx.take_sent();

    // Phase 1: requester initiates a round; a fan-in of 3 reaches both
    // other members.
    requester.on_timer(&mut rfx, GossipTimer::PullRound);
    let hello = rfx.take_sent();
    assert_eq!(hello.len(), 2);
    let GossipMsg::PullHello { nonce } = hello[0].1 else {
        panic!("expected hello")
    };

    // Phase 2: responder answers with its digest.
    responder.on_message(&mut sfx, PeerId(1), GossipMsg::PullHello { nonce });
    let digest = sfx.take_sent();
    assert_eq!(digest.len(), 1);
    let GossipMsg::PullDigestResponse { top, held, .. } = digest[0].1 else {
        panic!("expected digest response")
    };
    assert_eq!((top, held), (3, 0b111), "blocks 3, 2 and 1");

    // Phase 3: digests accumulate during the digest-wait window; at its
    // expiry the requester asks for everything it lacks.
    requester.on_message(&mut rfx, PeerId(2), digest[0].1.clone());
    assert!(
        rfx.take_sent().is_empty(),
        "requests wait for the digest window"
    );
    requester.on_timer(&mut rfx, GossipTimer::PullDigestWait { nonce });
    let request = rfx.take_sent();
    assert_eq!(request.len(), 1);
    let GossipMsg::PullRequest { block_nums, .. } = &request[0].1 else {
        panic!("expected pull request")
    };
    assert_eq!(block_nums, &vec![1, 2, 3]);

    // Phase 4: responder serves the blocks; requester delivers in order.
    responder.on_message(&mut sfx, PeerId(1), request[0].1.clone());
    let response = sfx.take_sent();
    assert_eq!(response.len(), 1);
    requester.on_message(&mut rfx, PeerId(2), response[0].1.clone());
    assert_eq!(rfx.delivered_numbers(), vec![1, 2, 3]);
}

#[test]
fn stale_pull_responses_are_ignored() {
    let cfg = GossipConfig::original_fabric();
    let ids = roster(3);
    let mut peer = GossipPeer::new(PeerId(1), ids, cfg);
    let mut fx = MockEffects::new(1);

    peer.on_timer(&mut fx, GossipTimer::PullRound); // nonce becomes 1
    fx.take_sent();
    peer.on_timer(&mut fx, GossipTimer::PullRound); // nonce becomes 2
    fx.take_sent();

    // A digest for the first round must not trigger requests, even after
    // its (stale) digest-wait fires.
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::PullDigestResponse {
            nonce: 1,
            top: 2,
            held: 0b11,
        },
    );
    peer.on_timer(&mut fx, GossipTimer::PullDigestWait { nonce: 1 });
    assert!(fx.take_sent().is_empty());
}

#[test]
fn pull_round_requests_each_block_from_one_advertiser() {
    let cfg = GossipConfig::original_fabric();
    let ids = roster(4);
    let mut peer = GossipPeer::new(PeerId(1), ids, cfg);
    let mut fx = MockEffects::new(1);

    peer.on_timer(&mut fx, GossipTimer::PullRound);
    let hellos = fx.take_sent();
    assert_eq!(hellos.len(), 3);
    let GossipMsg::PullHello { nonce } = hellos[0].1 else {
        panic!()
    };

    // Two responders advertise overlapping digests within the wait window.
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::PullDigestResponse {
            nonce,
            top: 2,
            held: 0b11,
        },
    );
    peer.on_message(
        &mut fx,
        PeerId(3),
        GossipMsg::PullDigestResponse {
            nonce,
            top: 3,
            held: 0b11,
        },
    );
    assert!(fx.take_sent().is_empty());

    peer.on_timer(&mut fx, GossipTimer::PullDigestWait { nonce });
    let requests = fx.take_sent();
    // Every missing block requested exactly once across all targets.
    let mut requested: Vec<u64> = requests
        .iter()
        .flat_map(|(_, m)| match m {
            GossipMsg::PullRequest { block_nums, .. } => block_nums.clone(),
            _ => panic!("only requests expected"),
        })
        .collect();
    requested.sort_unstable();
    assert_eq!(requested, vec![1, 2, 3]);
    // Block 1 can only come from peer 2; block 3 only from peer 3.
    for (to, m) in &requests {
        let GossipMsg::PullRequest { block_nums, .. } = m else {
            unreachable!()
        };
        if block_nums.contains(&1) {
            assert_eq!(*to, PeerId(2));
        }
        if block_nums.contains(&3) {
            assert_eq!(*to, PeerId(3));
        }
    }
}

#[test]
fn recovery_catches_up_from_the_highest_peer() {
    let cfg = GossipConfig::enhanced_f4();
    let ids = roster(3);
    let mut behind = GossipPeer::new(PeerId(1), ids.clone(), cfg.clone());
    let mut ahead = GossipPeer::new(PeerId(2), ids, cfg);
    let mut bfx = MockEffects::new(1);
    let mut afx = MockEffects::new(2);

    for n in 1..=5 {
        ahead.on_message(
            &mut afx,
            PeerId(0),
            GossipMsg::BlockPush {
                block: block(n),
                counter: 9,
            },
        );
    }
    afx.take_sent();
    assert_eq!(ahead.height(), 6);

    // The behind peer learns the height, then runs its recovery round.
    behind.on_message(
        &mut bfx,
        PeerId(2),
        GossipMsg::StateInfo {
            height: 6,
            checkpoint: None,
        },
    );
    behind.on_timer(&mut bfx, GossipTimer::RecoveryRound);
    let sent = bfx.take_sent();
    let req = sent
        .iter()
        .find(|(_, m)| matches!(m, GossipMsg::RecoveryRequest { .. }))
        .expect("expected a recovery request");
    assert_eq!(req.0, PeerId(2));
    let GossipMsg::RecoveryRequest { from, to } = req.1 else {
        panic!()
    };
    assert_eq!(from, 1);
    assert_eq!(to, 5);

    ahead.on_message(&mut afx, PeerId(1), GossipMsg::RecoveryRequest { from, to });
    let resp = afx.take_sent();
    assert_eq!(resp.len(), 1);
    behind.on_message(&mut bfx, PeerId(2), resp[0].1.clone());
    assert_eq!(behind.height(), 6);
    assert_eq!(bfx.delivered_numbers(), vec![1, 2, 3, 4, 5]);
}

#[test]
fn recovery_stays_quiet_when_caught_up() {
    let cfg = GossipConfig::enhanced_f4();
    let ids = roster(3);
    let mut peer = GossipPeer::new(PeerId(1), ids, cfg);
    let mut fx = MockEffects::new(1);
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::StateInfo {
            height: 1,
            checkpoint: None,
        },
    );
    peer.on_timer(&mut fx, GossipTimer::RecoveryRound);
    let sent = fx.take_sent();
    assert!(
        sent.iter()
            .all(|(_, m)| !matches!(m, GossipMsg::RecoveryRequest { .. })),
        "no recovery when heights match"
    );
}

#[test]
fn static_leader_is_lowest_id() {
    let cfg = GossipConfig::enhanced_f4();
    let ids = roster(5);
    assert!(GossipPeer::new(PeerId(0), ids.clone(), cfg.clone()).is_leader());
    assert!(!GossipPeer::new(PeerId(3), ids, cfg).is_leader());
}

#[test]
fn every_peer_delivers_blocks_in_order_despite_shuffled_arrival() {
    let cfg = GossipConfig::enhanced_f4();
    let ids = roster(4);
    let mut peer = GossipPeer::new(PeerId(1), ids, cfg);
    let mut fx = MockEffects::new(1);
    for num in [3u64, 1, 4, 2] {
        peer.on_message(
            &mut fx,
            PeerId(0),
            GossipMsg::BlockPush {
                block: block(num),
                counter: 9,
            },
        );
    }
    assert_eq!(fx.delivered_numbers(), vec![1, 2, 3, 4]);
    let received = [3, 1, 4, 2].map(|n| (ChannelId::DEFAULT, ProtocolEvent::Received(n)));
    assert_eq!(fx.traced, received, "reception order is arrival order");
}

#[test]
fn crash_resets_volatile_state_but_keeps_the_store() {
    let cfg = GossipConfig::enhanced_f4();
    let ids = roster(6);
    let mut peer = GossipPeer::new(PeerId(0), ids, cfg);
    let mut fx = MockEffects::new(4);
    assert!(peer.is_leader(), "peer 0 is the static leader");

    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 9,
        },
    );
    // A digest leaves a fetch pending for block 2.
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::PushDigest {
            block_num: 2,
            counter: 3,
        },
    );
    fx.take_sent();

    peer.on_crash();
    assert!(!peer.is_leader(), "leadership is volatile");
    assert!(peer.store().has(1), "persisted blocks survive");
    // The fetch-retry timer for the pre-crash request must now be inert.
    peer.on_timer(
        &mut fx,
        GossipTimer::FetchRetry {
            block_num: 2,
            attempt: 1,
        },
    );
    assert!(
        fx.take_sent().is_empty(),
        "pending fetches died with the process"
    );
}

#[test]
fn buffered_enhanced_push_shares_one_target_sample() {
    // The t_push > 0 ablation: two pairs buffered within the window are
    // flushed to the same fout-peer sample — the bias §IV describes.
    let mut cfg = GossipConfig::enhanced(4, 9, 9); // direct mode, no digests
    if let PushMode::InfectUponContagion { tpush, .. } = &mut cfg.push {
        *tpush = Duration::from_millis(10);
    }
    let ids = roster(30);
    let mut peer = GossipPeer::new(PeerId(5), ids, cfg);
    let mut fx = MockEffects::new(6);

    peer.on_message(
        &mut fx,
        PeerId(1),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 1,
        },
    );
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::BlockPush {
            block: block(1),
            counter: 4,
        },
    );
    assert!(fx.take_sent().is_empty(), "forwards wait in the buffer");
    let timers = fx.take_scheduled();
    assert_eq!(
        timers
            .iter()
            .filter(|(_, t)| *t == GossipTimer::PushFlush)
            .count(),
        1,
        "one flush timer guards the buffer"
    );

    peer.on_timer(&mut fx, GossipTimer::PushFlush);
    let sent = fx.take_sent();
    assert_eq!(sent.len(), 8, "two pairs x fout targets");
    let mut targets_a: Vec<PeerId> = sent
        .iter()
        .filter(|(_, m)| matches!(m, GossipMsg::BlockPush { counter: 2, .. }))
        .map(|(to, _)| *to)
        .collect();
    let mut targets_b: Vec<PeerId> = sent
        .iter()
        .filter(|(_, m)| matches!(m, GossipMsg::BlockPush { counter: 5, .. }))
        .map(|(to, _)| *to)
        .collect();
    targets_a.sort_unstable();
    targets_b.sort_unstable();
    assert_eq!(
        targets_a, targets_b,
        "both pairs hit the SAME sample — the bias"
    );
}

#[test]
fn unbuffered_enhanced_push_samples_independently() {
    // With t_push = 0 (the paper's fix), each pair draws its own sample;
    // with 30 candidate peers two independent 4-subsets almost never
    // coincide, and across several blocks certainly not all of them.
    let cfg = GossipConfig::enhanced(4, 9, 9);
    let ids = roster(30);
    let mut peer = GossipPeer::new(PeerId(5), ids, cfg);
    let mut fx = MockEffects::new(6);
    let mut all_same = true;
    for b in 1..=6u64 {
        peer.on_message(
            &mut fx,
            PeerId(1),
            GossipMsg::BlockPush {
                block: block(b),
                counter: 1,
            },
        );
        let first: Vec<PeerId> = fx.take_sent().into_iter().map(|(to, _)| to).collect();
        peer.on_message(
            &mut fx,
            PeerId(2),
            GossipMsg::BlockPush {
                block: block(b),
                counter: 4,
            },
        );
        let second: Vec<PeerId> = fx.take_sent().into_iter().map(|(to, _)| to).collect();
        let mut a = first.clone();
        let mut b2 = second.clone();
        a.sort_unstable();
        b2.sort_unstable();
        if a != b2 {
            all_same = false;
        }
    }
    assert!(!all_same, "independent samples must differ for some block");
}
