//! Tier-1 pin: no block number or counter a message can carry takes a
//! peer down or leaves it unable to gossip.
//!
//! The gossip layer indexes its per-block tables by numbers that arrive
//! from the wire. Two well-typed digests used to panic a peer (the store
//! counts genesis and snapshot-absorbed numbers as present but holds no
//! block for them); the largest numbers the wire can carry must cost a row,
//! not a table. After all of them, an honest enhanced exchange still
//! delivers every block in order and forwards each (block, counter) pair
//! exactly once. Everything goes through the public API.

use std::collections::BTreeMap;

use fair_gossip::gossip::config::GossipConfig;
use fair_gossip::gossip::messages::GossipMsg;
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

/// A self-consistent snapshot covering blocks `1..=height`.
fn snapshot(height: u64) -> SnapshotRef {
    let entries = vec![(Key::from("k"), Value::from_u64(height), Version::new(1, 0))];
    let state_hash = hash_state_entries(entries.iter().map(|(k, v, ver)| (k, v, *ver)));
    SnapshotRef::new(Snapshot {
        checkpoint: Checkpoint { height, state_hash },
        last_block_hash: Hash256::ZERO,
        entries,
    })
}

fn peer() -> (GossipPeer, MockEffects) {
    let cfg = GossipConfig::enhanced(FOUT, TTL, 2).with_snapshots(8);
    let mut peer = GossipPeer::new(PeerId(5), (0..10).map(PeerId).collect(), cfg);
    let mut fx = MockEffects::new(1);
    peer.init(&mut fx);
    fx.take_scheduled();
    (peer, fx)
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

    // A joiner bootstraps from a snapshot, then late digests arrive for
    // the snapshot's head block and for one deep inside it.
    peer.on_message(
        &mut fx,
        PeerId(2),
        GossipMsg::SnapshotResponse {
            snapshot: snapshot(SNAPSHOT_HEAD),
        },
    );
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
