//! Tier-1 pin: no block number or counter a message can carry takes a
//! peer down or leaves it unable to gossip.
//!
//! The gossip layer indexes its per-block tables by numbers that arrive
//! from the wire. Two well-typed digests used to panic a peer (the store
//! counts genesis and snapshot-absorbed numbers as present but holds no
//! block for them); the largest numbers the wire can carry must cost a row,
//! not a table. After all of them, an honest enhanced exchange still
//! delivers every block in order and forwards each (block, counter) pair
//! exactly once. Snapshot bootstrap has one door — a transfer this peer
//! asked for, fed by the server it asked — and no snapshot message from
//! anyone else installs or buffers anything. Recovery asks members only:
//! what a stranger advertises about its ledger is not recorded. Everything
//! goes through the public API.

use std::collections::BTreeMap;

use fair_gossip::gossip::config::GossipConfig;
use fair_gossip::gossip::messages::{GossipMsg, GossipTimer};
use fair_gossip::gossip::peer::GossipPeer;
use fair_gossip::gossip::testing::MockEffects;
use fair_gossip::types::block::{Block, BlockRef};
use fair_gossip::types::crypto::Hash256;
use fair_gossip::types::ids::PeerId;
use fair_gossip::types::rwset::{Key, Value, Version};
use fair_gossip::types::snapshot::{hash_state_entries, Checkpoint, Snapshot, SnapshotRef};

const FOUT: usize = 4;
const TTL: u32 = 9;
const SNAPSHOT_HEAD: u64 = 16;

fn block(num: u64) -> BlockRef {
    BlockRef::new(Block::new(num, Hash256::ZERO, vec![]))
}

/// A self-consistent snapshot covering blocks `1..=height`: eight keys,
/// each valued `height`, so two heights never share a state hash.
fn snapshot(height: u64) -> SnapshotRef {
    let entries: Vec<_> = (0..8)
        .map(|i| {
            (
                Key::from(format!("k{i}").as_str()),
                Value::from_u64(height),
                Version::new(1, 0),
            )
        })
        .collect();
    let state_hash = hash_state_entries(entries.iter().map(|(k, v, ver)| (k, v, *ver)));
    SnapshotRef::new(Snapshot {
        checkpoint: Checkpoint { height, state_hash },
        last_block_hash: Hash256::ZERO,
        entries,
    })
}

/// Peer `id` of a ten-member channel, snapshots on, chunks small enough
/// that [`snapshot`] spans several.
fn peer_with_id(id: u32) -> (GossipPeer, MockEffects) {
    let mut cfg = GossipConfig::enhanced(FOUT, TTL, 2).with_snapshots(8);
    cfg.snapshot.chunk_size = 256;
    let mut peer = GossipPeer::new(PeerId(id), (0..10).map(PeerId).collect(), cfg);
    let mut fx = MockEffects::new(1);
    peer.init(&mut fx);
    fx.take_scheduled();
    (peer, fx)
}

fn peer() -> (GossipPeer, MockEffects) {
    peer_with_id(5)
}

/// The chunk messages an honest member holding `snapshot` streams when
/// asked for all of it.
fn served_chunks(snapshot: SnapshotRef) -> Vec<GossipMsg> {
    let (mut server, mut fx) = peer_with_id(2);
    let request = GossipMsg::SnapshotRequest {
        height: snapshot.checkpoint.height,
        from_chunk: 0,
    };
    let channel = server.channel_ids()[0];
    assert!(server.publish_snapshot_on(channel, snapshot));
    server.on_message(&mut fx, PeerId(5), request);
    let chunks: Vec<_> = fx.take_sent().into_iter().map(|(_, msg)| msg).collect();
    assert!(chunks.len() > 1, "the snapshot must span several chunks");
    chunks
}

/// `server` advertises `snapshot`'s checkpoint; the next recovery round
/// must ask it — and nobody else — for all of that snapshot.
fn put_transfer_in_flight(
    peer: &mut GossipPeer,
    fx: &mut MockEffects,
    server: PeerId,
    snapshot: &SnapshotRef,
) {
    let checkpoint = snapshot.checkpoint;
    let height = checkpoint.height.saturating_add(1);
    advertise(peer, fx, server, height, Some(checkpoint));
    peer.on_timer(fx, GossipTimer::RecoveryRound);
    let sent = fx.take_sent();
    assert!(
        matches!(
            sent.as_slice(),
            [(to, GossipMsg::SnapshotRequest { height, from_chunk: 0 })]
                if *to == server && *height == checkpoint.height
        ),
        "one request, nothing else: {sent:?}"
    );
}

fn advertise(
    peer: &mut GossipPeer,
    fx: &mut MockEffects,
    from: PeerId,
    height: u64,
    checkpoint: Option<Checkpoint>,
) {
    peer.on_message(fx, from, GossipMsg::StateInfo { height, checkpoint });
}

/// Where the `RecoveryRequest`s of the next `rounds` recovery rounds go.
fn recovery_targets(peer: &mut GossipPeer, fx: &mut MockEffects, rounds: usize) -> Vec<PeerId> {
    let mut targets = Vec::new();
    for _ in 0..rounds {
        peer.on_timer(fx, GossipTimer::RecoveryRound);
        for (to, msg) in fx.take_sent() {
            match msg {
                GossipMsg::RecoveryRequest { .. } => targets.push(to),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    targets
}

fn assert_nothing_installed_or_buffered(peer: &GossipPeer, fx: &MockEffects) {
    assert_eq!(peer.height(), 1);
    assert_eq!(peer.store().len(), 0);
    assert_eq!(peer.stats().snapshots_installed, 0);
    assert_eq!(peer.stats().snapshot_chunks_received, 0);
    assert!(fx.installed.is_empty());
    assert!(fx.delivered.is_empty());
}

#[test]
fn a_digest_for_genesis_does_not_panic_the_peer() {
    let (mut peer, mut fx) = peer();
    let digest = GossipMsg::PushDigest {
        block_num: 0,
        counter: 0,
    };
    peer.on_message(&mut fx, PeerId(1), digest);
    assert_eq!(peer.stats().digests_received, 1);
    assert!(fx.take_sent().is_empty(), "nothing to forward or fetch");
}

#[test]
fn hostile_numbers_leave_an_honest_exchange_intact() {
    let (mut peer, mut fx) = peer();
    let stranger = PeerId(77);

    // A joiner bootstraps from a snapshot the way the protocol does — a
    // member advertises a checkpoint, the recovery round asks that member
    // for it, that member's chunks install — then late digests arrive for
    // the snapshot's head block and for one deep inside it.
    put_transfer_in_flight(&mut peer, &mut fx, PeerId(2), &snapshot(SNAPSHOT_HEAD));
    for chunk in served_chunks(snapshot(SNAPSHOT_HEAD)) {
        peer.on_message(&mut fx, PeerId(2), chunk);
    }
    assert_eq!(peer.stats().snapshots_installed, 1);
    assert_eq!(peer.height(), SNAPSHOT_HEAD + 1);
    for (block_num, counter) in [(SNAPSHOT_HEAD, 3), (4, TTL - 1), (0, 0)] {
        peer.on_message(
            &mut fx,
            PeerId(1),
            GossipMsg::PushDigest { block_num, counter },
        );
    }
    assert!(fx.take_sent().is_empty(), "absorbed numbers are inert");

    // The largest numbers and counters the wire can carry, from anyone.
    for block_num in [u64::MAX, u64::MAX - 1, 1 << 32] {
        for counter in [0, TTL, 63, 64, u32::MAX] {
            for from in [PeerId(1), stranger, PeerId(5)] {
                peer.on_message(&mut fx, from, GossipMsg::PushDigest { block_num, counter });
                peer.on_message(&mut fx, from, GossipMsg::PushRequest { block_num, counter });
            }
        }
        for (from, to) in [(0, block_num), (block_num, block_num), (block_num, 0)] {
            peer.on_message(&mut fx, stranger, GossipMsg::RecoveryRequest { from, to });
        }
        peer.on_message(
            &mut fx,
            stranger,
            GossipMsg::PullRequest {
                nonce: 0,
                block_nums: vec![block_num, 0],
            },
        );
    }
    let served = fx
        .take_sent()
        .into_iter()
        .filter(|(_, msg)| !matches!(msg, GossipMsg::PushRequest { .. }))
        .count();
    assert_eq!(served, 0, "a fetch per unknown number, nothing served");
    assert_eq!(peer.height(), SNAPSHOT_HEAD + 1);
    assert_eq!(peer.store().len(), 0);

    // 50 honest blocks: content once, then every counter as a digest,
    // each from two members.
    let first = SNAPSHOT_HEAD + 1;
    let mut forwards: BTreeMap<(u64, u32), usize> = BTreeMap::new();
    for num in first..first + 50 {
        peer.on_message(
            &mut fx,
            PeerId(3),
            GossipMsg::BlockPush {
                block: block(num),
                counter: 0,
            },
        );
        for counter in 0..=TTL {
            for from in [PeerId(1), PeerId(2)] {
                peer.on_message(
                    &mut fx,
                    from,
                    GossipMsg::PushDigest {
                        block_num: num,
                        counter,
                    },
                );
            }
        }
        for (_, msg) in fx.take_sent() {
            let pair = match msg {
                GossipMsg::BlockPush { block, counter } => (block.number(), counter),
                GossipMsg::PushDigest { block_num, counter } => (block_num, counter),
                other => panic!("unexpected {other:?}"),
            };
            *forwards.entry(pair).or_default() += 1;
        }
    }
    assert_eq!(
        fx.delivered_numbers(),
        (first..first + 50).collect::<Vec<_>>(),
        "every honest block, in order"
    );
    // Counter c arrives, c + 1 leaves — once, to `fout` targets.
    let expected: BTreeMap<(u64, u32), usize> = (first..first + 50)
        .flat_map(|num| (1..=TTL).map(move |counter| ((num, counter), FOUT)))
        .collect();
    assert_eq!(forwards, expected);
}

#[test]
fn snapshot_chunks_nobody_asked_for_are_inert() {
    let (mut peer, mut fx) = peer();
    let everyone = [PeerId(1), PeerId(2), PeerId(77), PeerId(5)];

    // No transfer in flight: nothing installs, nothing is buffered.
    for height in [SNAPSHOT_HEAD, u64::MAX] {
        for chunk in served_chunks(snapshot(height)) {
            for from in everyone {
                peer.on_message(&mut fx, from, chunk.clone());
            }
        }
    }
    assert_nothing_installed_or_buffered(&peer, &fx);

    // Mid-transfer: a self-consistent forgery, a foreign checkpoint and
    // the last number a checkpoint can carry, from everyone but the
    // server asked — and the last number from that server too.
    let honest = snapshot(SNAPSHOT_HEAD);
    put_transfer_in_flight(&mut peer, &mut fx, PeerId(2), &honest);
    for height in [4, SNAPSHOT_HEAD + 8, u64::MAX] {
        for chunk in served_chunks(snapshot(height)) {
            for from in [PeerId(1), PeerId(77), PeerId(5)] {
                peer.on_message(&mut fx, from, chunk.clone());
            }
        }
    }
    for chunk in served_chunks(snapshot(u64::MAX)) {
        peer.on_message(&mut fx, PeerId(2), chunk);
    }
    assert_nothing_installed_or_buffered(&peer, &fx);
    assert!(fx.take_sent().is_empty());

    // None of it cost the honest transfer anything.
    for chunk in served_chunks(honest.clone()) {
        peer.on_message(&mut fx, PeerId(2), chunk);
    }
    assert_eq!(peer.stats().snapshots_installed, 1);
    assert_eq!(peer.height(), SNAPSHOT_HEAD + 1);
    assert_eq!(fx.installed.len(), 1);
    assert_eq!(fx.installed[0].1.checkpoint, honest.checkpoint);
}

#[test]
fn hostile_snapshot_requests_and_adverts_are_shrugged_off() {
    let (mut peer, mut fx) = peer();
    let everyone = [PeerId(1), PeerId(77), PeerId(5)];
    let hostile = GossipMsg::SnapshotRequest {
        height: u64::MAX,
        from_chunk: u32::MAX,
    };

    // With nothing to serve, and with a snapshot held.
    for from in everyone {
        peer.on_message(&mut fx, from, hostile.clone());
    }
    let channel = peer.channel_ids()[0];
    assert!(peer.publish_snapshot_on(channel, snapshot(SNAPSHOT_HEAD)));
    for from in everyone {
        peer.on_message(&mut fx, from, hostile.clone());
        for (height, from_chunk) in [(SNAPSHOT_HEAD, u32::MAX), (0, u32::MAX), (u64::MAX, 0)] {
            peer.on_message(
                &mut fx,
                from,
                GossipMsg::SnapshotRequest { height, from_chunk },
            );
        }
    }
    assert!(fx.take_sent().is_empty(), "nothing served");
    assert_eq!(peer.stats().snapshots_served, 0);

    // A checkpoint advertised at the last number: the round that acts on
    // it asks for it, and no answer to that request can install.
    let unreachable = snapshot(u64::MAX);
    put_transfer_in_flight(&mut peer, &mut fx, PeerId(1), &unreachable);
    for chunk in served_chunks(unreachable) {
        peer.on_message(&mut fx, PeerId(1), chunk);
    }
    assert_nothing_installed_or_buffered(&peer, &fx);
}

/// Regression: `StateInfo` was recorded whoever sent it, the height table
/// keeps the maximum, and a recovery round asks only the peers at the best
/// height — so one advert from outside the channel took every later round.
#[test]
fn a_strangers_state_info_changes_no_recovery_target() {
    let (mut peer, mut fx) = peer();
    let honest = [PeerId(1), PeerId(2), PeerId(3)];
    for member in honest {
        advertise(&mut peer, &mut fx, member, 7, None);
    }
    for from in [PeerId(77), PeerId(5)] {
        for checkpoint in [None, Some(snapshot(u64::MAX).checkpoint)] {
            advertise(&mut peer, &mut fx, from, u64::MAX, checkpoint);
        }
    }
    let targets = recovery_targets(&mut peer, &mut fx, 20);
    assert_eq!(targets.len(), 20, "every round still asks for blocks");
    assert!(
        targets.iter().all(|to| honest.contains(to)),
        "only the members that advertised are asked: {targets:?}"
    );

    // A member's honest advert still moves the target.
    advertise(&mut peer, &mut fx, PeerId(4), 9, None);
    assert_eq!(recovery_targets(&mut peer, &mut fx, 20), [PeerId(4); 20]);
}

/// The same lie from a *member* still wins every round. A fix changes
/// which peer a round asks when adverts are lost, so it lands with its
/// re-measurement (ROADMAP item 4), not here.
#[test]
#[ignore = "ROADMAP 4"]
fn a_member_advertising_u64_max_captures_recovery() {
    let (mut peer, mut fx) = peer();
    for member in [PeerId(1), PeerId(2), PeerId(3)] {
        advertise(&mut peer, &mut fx, member, 7, None);
    }
    advertise(&mut peer, &mut fx, PeerId(4), u64::MAX, None);
    let targets = recovery_targets(&mut peer, &mut fx, 20);
    assert!(
        targets.iter().any(|to| *to != PeerId(4)),
        "all 20 rounds asked the liar"
    );
}
