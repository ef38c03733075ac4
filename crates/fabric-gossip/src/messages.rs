//! Wire messages of the gossip layer.
//!
//! Sizes approximate Fabric's protobuf envelopes: every message carries a
//! fixed framing overhead, digests are tens of bytes, and block-bearing
//! messages are dominated by the block payload. The byte accounting of the
//! bandwidth figures rests on these sizes.

use std::sync::OnceLock;

use desim::KindId;
use fabric_types::block::BlockRef;
use fabric_types::ids::{ChannelId, PeerId};
use fabric_types::snapshot::{Checkpoint, SnapshotChunk};

/// Framing overhead per gossip envelope (signature, channel MAC, tags).
///
/// The channel MAC is part of this fixed overhead, so routing a message on
/// a non-default channel does not change its wire size — byte accounting is
/// identical whether a deployment runs one channel or many.
///
/// `pub(crate)` so the snapshot server can budget chunk payloads at
/// `chunk_size - ENVELOPE`, guaranteeing no chunk *message* exceeds the
/// configured `chunk_size`.
pub(crate) const ENVELOPE: usize = 16;

/// The wire unit between two peers: a [`GossipMsg`] tagged with the channel
/// it belongs to.
///
/// Fabric scopes gossip per channel; the envelope's channel MAC (already
/// counted in `ENVELOPE`) is what carries that scope on the wire, so the
/// tag adds no bytes — [`desim::Message::wire_size`] delegates to the
/// payload unchanged.
#[derive(Debug, Clone)]
pub struct ChannelMsg {
    /// The channel this envelope belongs to.
    pub channel: ChannelId,
    /// The gossip payload.
    pub msg: GossipMsg,
}

impl desim::Message for ChannelMsg {
    fn wire_size(&self) -> usize {
        self.msg.wire_size()
    }

    fn kind(&self) -> &'static str {
        self.msg.kind()
    }

    fn kind_id(&self) -> KindId {
        self.msg.kind_id()
    }
}

/// One peer's liveness claim, as carried by the discovery protocol.
///
/// Freshness is judged lexicographically on `(incarnation, seq)`:
/// `incarnation` is fixed for one life of the peer on the channel (a
/// rejoin or reboot picks a strictly higher one), `seq` increments with
/// every heartbeat of that life. A claim only displaces a stored one when
/// strictly fresher, so stale relays can never resurrect a reaped peer —
/// only a genuinely new life (higher incarnation) can.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerAlive {
    /// The peer the claim is about (not necessarily the sender: anti-
    /// entropy relays third-party claims).
    pub peer: PeerId,
    /// The claimed life of the peer; strictly increases across rejoins.
    pub incarnation: u64,
    /// Heartbeat counter within the incarnation.
    pub seq: u64,
}

impl PeerAlive {
    /// Whether this claim is strictly fresher than `other` (same peer
    /// assumed).
    pub fn fresher_than(&self, other: &PeerAlive) -> bool {
        (self.incarnation, self.seq) > (other.incarnation, other.seq)
    }

    /// Wire bytes of one serialized claim (peer id + incarnation + seq).
    pub(crate) const WIRE: usize = 24;
}

/// A gossip message between two peers of the same organization.
#[derive(Debug, Clone)]
pub enum GossipMsg {
    /// Full block content pushed with a dissemination counter (the counter
    /// is 0 for the orderer→leader-initiated send and is ignored by the
    /// infect-and-die protocol).
    BlockPush {
        /// The block being disseminated.
        block: BlockRef,
        /// The infect-upon-contagion round counter.
        counter: u32,
    },
    /// Enhanced push phase: announce a block instead of sending it.
    PushDigest {
        /// Number of the announced block.
        block_num: u64,
        /// The infect-upon-contagion round counter.
        counter: u32,
    },
    /// Enhanced push phase: request content after a [`GossipMsg::PushDigest`].
    PushRequest {
        /// Number of the requested block.
        block_num: u64,
        /// Counter copied from the digest, echoed back with the content.
        counter: u32,
    },
    /// Pull engine, phase 1: solicit digests.
    PullHello {
        /// Round nonce correlating the four pull phases.
        nonce: u64,
    },
    /// Pull engine, phase 2: recent block numbers held by the responder.
    PullDigestResponse {
        /// Echoed round nonce.
        nonce: u64,
        /// Block numbers the responder can serve.
        block_nums: Vec<u64>,
    },
    /// Pull engine, phase 3: request missing blocks.
    PullRequest {
        /// Echoed round nonce.
        nonce: u64,
        /// Block numbers the requester lacks.
        block_nums: Vec<u64>,
    },
    /// Pull engine, phase 4: the requested blocks.
    PullResponse {
        /// Echoed round nonce.
        nonce: u64,
        /// The served blocks.
        blocks: Vec<BlockRef>,
    },
    /// Ledger-height metadata, input to the recovery component.
    StateInfo {
        /// The sender's contiguous ledger height.
        height: u64,
        /// The sender's latest ledger checkpoint, when snapshot bootstrap
        /// is on ([`crate::config::GossipConfig::snapshot`]) and one
        /// exists. `None` adds zero wire bytes, so the default-off format
        /// is byte-identical to the pre-snapshot one.
        checkpoint: Option<Checkpoint>,
    },
    /// Recovery: request blocks `[from, to]` (inclusive).
    RecoveryRequest {
        /// First missing block number.
        from: u64,
        /// Last requested block number.
        to: u64,
    },
    /// Recovery: consecutive blocks answering a request.
    RecoveryResponse {
        /// The served blocks, in height order.
        blocks: Vec<BlockRef>,
    },
    /// Snapshot bootstrap: request the snapshot behind an advertised
    /// checkpoint.
    SnapshotRequest {
        /// Height of the checkpoint whose snapshot is wanted.
        height: u64,
        /// Resume offset: serve chunks starting at this index (0: the
        /// whole plan). A non-zero offset requires
        /// the server to hold *exactly* the requested checkpoint — chunk
        /// plans only line up across servers at identical checkpoints.
        from_chunk: u32,
    },
    /// Snapshot bootstrap: one slice of a snapshot transfer, at most
    /// [`crate::config::SnapshotConfig::chunk_size`] bytes on the wire.
    /// The receiver reassembles the full plan, verifies the state hash,
    /// then installs atomically.
    SnapshotChunk {
        /// The served chunk (an entry-range view over a shared snapshot —
        /// serving N chunks clones a reference count, not the entries).
        chunk: SnapshotChunk,
    },
    /// Membership heartbeat of a static-roster channel: no payload, and
    /// nothing reads its receipt — it is the background load of the
    /// paper's deployment.
    Alive,
    /// Discovery-protocol heartbeat: the sender's own liveness claim.
    /// Replaces [`GossipMsg::Alive`] when
    /// [`crate::config::DiscoveryConfig::protocol`] is on.
    AliveMsg(PeerAlive),
    /// Discovery anti-entropy, phase 1: the requester pushes its full
    /// alive view and obituaries and solicits the responder's. Also sent
    /// as a **tombstone probe** to one reaped peer per round — if that
    /// peer is in fact alive (a false death), the obituary it finds in
    /// here lets it refute, which is what reconnects healed partitions.
    MembershipRequest {
        /// Every alive claim the requester holds (its own included).
        entries: Vec<PeerAlive>,
        /// Reaped peers with the incarnation they died at.
        dead: Vec<PeerAlive>,
    },
    /// Discovery anti-entropy, phase 2: the responder's view plus its
    /// obituaries.
    MembershipResponse {
        /// Every alive claim the responder holds (its own included).
        entries: Vec<PeerAlive>,
        /// Reaped peers with the incarnation they died at; receivers apply
        /// the death unless they know a strictly higher incarnation.
        dead: Vec<PeerAlive>,
    },
}

impl GossipMsg {
    /// Whether this is a discovery anti-entropy exchange — either phase
    /// of the membership view swap. Byzantine wiretap code classifies
    /// traffic through this instead of enumerating variants.
    pub fn is_membership_exchange(&self) -> bool {
        matches!(
            self,
            GossipMsg::MembershipRequest { .. } | GossipMsg::MembershipResponse { .. }
        )
    }

    /// Whether this message carries full block payloads — push content,
    /// pull phase 4, or recovery content. This is the dissemination
    /// surface a withholding or equivocating attacker targets; digests and
    /// requests deliberately stay out so advertisement traffic keeps
    /// flowing while the payload is suppressed.
    pub fn carries_blocks(&self) -> bool {
        matches!(
            self,
            GossipMsg::BlockPush { .. }
                | GossipMsg::PullResponse { .. }
                | GossipMsg::RecoveryResponse { .. }
        )
    }

    /// Applies `f` to every block payload this message carries, leaving
    /// payload-free messages untouched — the wiretap hook a dissemination
    /// attacker uses to doctor served content without re-implementing the
    /// wire format.
    pub fn map_blocks(self, mut f: impl FnMut(BlockRef) -> BlockRef) -> GossipMsg {
        match self {
            GossipMsg::BlockPush { block, counter } => GossipMsg::BlockPush {
                block: f(block),
                counter,
            },
            GossipMsg::PullResponse { nonce, blocks } => GossipMsg::PullResponse {
                nonce,
                blocks: blocks.into_iter().map(&mut f).collect(),
            },
            GossipMsg::RecoveryResponse { blocks } => GossipMsg::RecoveryResponse {
                blocks: blocks.into_iter().map(&mut f).collect(),
            },
            other => other,
        }
    }
}

impl desim::Message for GossipMsg {
    fn wire_size(&self) -> usize {
        match self {
            GossipMsg::BlockPush { block, .. } => ENVELOPE + 12 + block.wire_size(),
            GossipMsg::PushDigest { .. } => ENVELOPE + 12,
            GossipMsg::PushRequest { .. } => ENVELOPE + 12,
            GossipMsg::PullHello { .. } => ENVELOPE + 8,
            GossipMsg::PullDigestResponse { block_nums, .. } => ENVELOPE + 8 + 8 * block_nums.len(),
            GossipMsg::PullRequest { block_nums, .. } => ENVELOPE + 8 + 8 * block_nums.len(),
            GossipMsg::PullResponse { blocks, .. } => {
                ENVELOPE + 8 + blocks.iter().map(|b| b.wire_size()).sum::<usize>()
            }
            // StateInfo carries channel MAC, ledger height and a signature;
            // an advertised checkpoint piggybacks its height + state hash.
            GossipMsg::StateInfo { checkpoint, .. } => {
                ENVELOPE + 104 + checkpoint.map_or(0, |_| Checkpoint::WIRE)
            }
            GossipMsg::RecoveryRequest { .. } => ENVELOPE + 16,
            GossipMsg::RecoveryResponse { blocks } => {
                ENVELOPE + 8 + blocks.iter().map(|b| b.wire_size()).sum::<usize>()
            }
            GossipMsg::SnapshotRequest { .. } => ENVELOPE + 20,
            GossipMsg::SnapshotChunk { chunk } => ENVELOPE + chunk.wire_size(),
            // Alive messages carry identity, endpoint and a signature.
            GossipMsg::Alive => ENVELOPE + 134,
            // AliveMsg adds the (incarnation, seq) pair to the legacy
            // identity + endpoint + signature payload.
            GossipMsg::AliveMsg(_) => ENVELOPE + 134 + 16,
            GossipMsg::MembershipRequest { entries, dead } => {
                ENVELOPE + 8 + PeerAlive::WIRE * (entries.len() + dead.len())
            }
            GossipMsg::MembershipResponse { entries, dead } => {
                ENVELOPE + 8 + PeerAlive::WIRE * (entries.len() + dead.len())
            }
        }
    }

    fn kind(&self) -> &'static str {
        KINDS[self.kind_index()]
    }

    fn kind_id(&self) -> KindId {
        // Resolved once per process, so the per-send metrics tag is an
        // atomic load plus a match instead of a registry lookup.
        static IDS: OnceLock<[KindId; KINDS.len()]> = OnceLock::new();
        IDS.get_or_init(|| KINDS.map(KindId::intern))[self.kind_index()]
    }
}

/// The metrics tag of every gossip kind, at its [`GossipMsg::kind_index`].
const KINDS: [&str; 16] = [
    "block",
    "push-digest",
    "push-request",
    "pull-hello",
    "pull-digest",
    "pull-request",
    "block-pull",
    "state-info",
    "recovery-request",
    "block-recovery",
    "snapshot-request",
    "snapshot-chunk",
    "alive",
    "alive-msg",
    "membership-request",
    "membership-response",
];

impl GossipMsg {
    /// Where this variant's tag sits in [`KINDS`] — the one place a variant
    /// is tied to its kind, so the name and the interned id cannot drift.
    #[inline]
    fn kind_index(&self) -> usize {
        match self {
            GossipMsg::BlockPush { .. } => 0,
            GossipMsg::PushDigest { .. } => 1,
            GossipMsg::PushRequest { .. } => 2,
            GossipMsg::PullHello { .. } => 3,
            GossipMsg::PullDigestResponse { .. } => 4,
            GossipMsg::PullRequest { .. } => 5,
            GossipMsg::PullResponse { .. } => 6,
            GossipMsg::StateInfo { .. } => 7,
            GossipMsg::RecoveryRequest { .. } => 8,
            GossipMsg::RecoveryResponse { .. } => 9,
            GossipMsg::SnapshotRequest { .. } => 10,
            GossipMsg::SnapshotChunk { .. } => 11,
            GossipMsg::Alive => 12,
            GossipMsg::AliveMsg(_) => 13,
            GossipMsg::MembershipRequest { .. } => 14,
            GossipMsg::MembershipResponse { .. } => 15,
        }
    }
}

/// Timers a gossip peer arms for itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GossipTimer {
    /// Flush the push buffer (`tpush`).
    PushFlush,
    /// Start a pull round (`tpull`).
    PullRound,
    /// The digest-gathering window of pull round `nonce` closed; send the
    /// block requests.
    PullDigestWait {
        /// The round this wait belongs to (stale rounds are ignored).
        nonce: u64,
    },
    /// Run the recovery check (`t_recovery`).
    RecoveryRound,
    /// Broadcast StateInfo metadata.
    StateInfoRound,
    /// Send membership heartbeats.
    AliveRound,
    /// Discovery protocol: emit an [`GossipMsg::AliveMsg`] heartbeat and
    /// run the expiry/reap sweep.
    DiscoveryRound,
    /// Discovery protocol: exchange membership views with one random
    /// peer.
    AntiEntropyRound,
    /// Retry fetching block content announced by a digest.
    FetchRetry {
        /// The block whose content is still missing.
        block_num: u64,
        /// Retry attempt number (1-based).
        attempt: u32,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Message as _;
    use fabric_types::block::Block;
    use fabric_types::snapshot::SnapshotRef;
    fn block(padding: u32) -> BlockRef {
        BlockRef::new(Block::genesis().with_padding(padding))
    }

    /// Every queued event and in-flight send holds a `GossipMsg` by value;
    /// what a `BlockRef` caches must live behind its `Arc`, never widen
    /// the message (56 bytes since the seed's two-word handle).
    #[test]
    fn the_message_does_not_grow_with_what_a_block_handle_caches() {
        assert!(std::mem::size_of::<GossipMsg>() <= 56);
    }

    #[test]
    fn block_push_size_is_dominated_by_payload() {
        let msg = GossipMsg::BlockPush {
            block: block(160_000),
            counter: 3,
        };
        assert!(msg.wire_size() > 160_000);
        assert!(msg.wire_size() < 161_000);
        assert_eq!(msg.kind(), "block");
    }

    #[test]
    fn digests_are_small() {
        let d = GossipMsg::PushDigest {
            block_num: 7,
            counter: 5,
        };
        assert!(d.wire_size() < 64);
        assert_eq!(d.kind(), "push-digest");
        let r = GossipMsg::PushRequest {
            block_num: 7,
            counter: 5,
        };
        assert!(r.wire_size() < 64);
    }

    #[test]
    fn pull_sizes_scale_with_content() {
        let digest = GossipMsg::PullDigestResponse {
            nonce: 1,
            block_nums: vec![1, 2, 3],
        };
        let digest_bigger = GossipMsg::PullDigestResponse {
            nonce: 1,
            block_nums: (0..10).collect(),
        };
        assert!(digest_bigger.wire_size() > digest.wire_size());
        let resp = GossipMsg::PullResponse {
            nonce: 1,
            blocks: vec![block(1000), block(1000)],
        };
        assert!(resp.wire_size() > 2000);
        assert_eq!(resp.kind(), "block-pull");
    }

    #[test]
    fn metadata_sizes_are_fixed() {
        let info = |height| GossipMsg::StateInfo {
            height,
            checkpoint: None,
        };
        assert_eq!(info(9).wire_size(), info(1_000_000).wire_size());
        assert_eq!(GossipMsg::Alive.wire_size(), 150);
        assert_eq!(GossipMsg::Alive.kind(), "alive");
    }

    #[test]
    fn state_info_checkpoint_costs_bytes_only_when_present() {
        use fabric_types::crypto::Hash256;
        let bare = GossipMsg::StateInfo {
            height: 64,
            checkpoint: None,
        };
        let advertising = GossipMsg::StateInfo {
            height: 64,
            checkpoint: Some(Checkpoint {
                height: 64,
                state_hash: Hash256([5; 32]),
            }),
        };
        // None is byte-identical to the pre-snapshot wire format.
        assert_eq!(bare.wire_size(), 16 + 104);
        assert_eq!(advertising.wire_size(), bare.wire_size() + Checkpoint::WIRE);
        assert_eq!(advertising.kind(), "state-info");
    }

    #[test]
    fn snapshot_messages_size_and_kind() {
        use fabric_types::crypto::Hash256;
        use fabric_types::rwset::{Key, Value, Version};
        use fabric_types::snapshot::{hash_state_entries, Snapshot};
        let req = GossipMsg::SnapshotRequest {
            height: 128,
            from_chunk: 0,
        };
        assert_eq!(req.wire_size(), 16 + 20, "height + resume offset");
        assert_eq!(req.kind(), "snapshot-request");

        let entries: Vec<_> = (0..10)
            .map(|i| {
                (
                    Key::from(format!("k{i}").as_str()),
                    Value::from_u64(i),
                    Version::new(i, 0),
                )
            })
            .collect();
        let state_hash = hash_state_entries(entries.iter().map(|(k, v, ver)| (k, v, *ver)));
        let snap = SnapshotRef::new(Snapshot {
            checkpoint: Checkpoint {
                height: 10,
                state_hash,
            },
            last_block_hash: Hash256([7; 32]),
            entries,
        });
        // Chunk messages: header + their entry slice, never the whole state.
        let chunks = SnapshotChunk::plan(&snap, SnapshotChunk::HEADER + 80);
        assert!(chunks.len() > 1);
        let total: usize = chunks
            .iter()
            .map(|c| {
                let msg = GossipMsg::SnapshotChunk { chunk: c.clone() };
                assert_eq!(msg.kind(), "snapshot-chunk");
                assert_eq!(msg.wire_size(), 16 + c.wire_size());
                assert!(msg.wire_size() < snap.wire_size());
                c.entries().len()
            })
            .sum();
        assert_eq!(total, snap.entries.len());
    }

    #[test]
    fn discovery_sizes_scale_with_entries_and_freshness_orders() {
        let entry = |inc, seq| PeerAlive {
            peer: PeerId(3),
            incarnation: inc,
            seq,
        };
        // A heartbeat costs one fixed claim; digests grow per entry.
        assert_eq!(GossipMsg::AliveMsg(entry(1, 1)).wire_size(), 166);
        let small = GossipMsg::MembershipRequest {
            entries: vec![entry(1, 1); 2],
            dead: vec![],
        };
        let large = GossipMsg::MembershipRequest {
            entries: vec![entry(1, 1); 10],
            dead: vec![],
        };
        assert_eq!(large.wire_size() - small.wire_size(), 8 * PeerAlive::WIRE);
        let resp = GossipMsg::MembershipResponse {
            entries: vec![entry(1, 1); 3],
            dead: vec![entry(2, 0); 2],
        };
        assert_eq!(resp.wire_size(), 16 + 8 + 5 * PeerAlive::WIRE);
        assert_eq!(resp.kind(), "membership-response");
        // Freshness: incarnation dominates, then seq.
        assert!(entry(2, 0).fresher_than(&entry(1, 99)));
        assert!(entry(1, 2).fresher_than(&entry(1, 1)));
        assert!(!entry(1, 1).fresher_than(&entry(1, 1)));
    }

    #[test]
    fn channel_tag_is_free_on_the_wire() {
        // The channel MAC lives inside ENVELOPE: tagging an envelope with
        // any channel must not change its size or kind — single-channel
        // byte accounting stays identical to the pre-channel wire format.
        let payload = GossipMsg::BlockPush {
            block: block(4_096),
            counter: 1,
        };
        let tagged = ChannelMsg {
            channel: ChannelId(7),
            msg: payload.clone(),
        };
        assert_eq!(tagged.wire_size(), payload.wire_size());
        assert_eq!(tagged.kind(), payload.kind());
        let default_tag = ChannelMsg {
            channel: ChannelId::DEFAULT,
            msg: payload.clone(),
        };
        assert_eq!(default_tag.wire_size(), tagged.wire_size());
    }

    #[test]
    fn every_variant_has_a_distinct_kind() {
        let kinds = [
            GossipMsg::BlockPush {
                block: block(0),
                counter: 0,
            }
            .kind(),
            GossipMsg::PushDigest {
                block_num: 0,
                counter: 0,
            }
            .kind(),
            GossipMsg::PushRequest {
                block_num: 0,
                counter: 0,
            }
            .kind(),
            GossipMsg::PullHello { nonce: 0 }.kind(),
            GossipMsg::PullDigestResponse {
                nonce: 0,
                block_nums: vec![],
            }
            .kind(),
            GossipMsg::PullRequest {
                nonce: 0,
                block_nums: vec![],
            }
            .kind(),
            GossipMsg::PullResponse {
                nonce: 0,
                blocks: vec![],
            }
            .kind(),
            GossipMsg::StateInfo {
                height: 0,
                checkpoint: None,
            }
            .kind(),
            GossipMsg::RecoveryRequest { from: 0, to: 0 }.kind(),
            GossipMsg::RecoveryResponse { blocks: vec![] }.kind(),
            GossipMsg::SnapshotRequest {
                height: 0,
                from_chunk: 0,
            }
            .kind(),
            GossipMsg::SnapshotChunk {
                chunk: SnapshotChunk::plan(
                    &SnapshotRef::new(fabric_types::snapshot::Snapshot {
                        checkpoint: Checkpoint {
                            height: 0,
                            state_hash: fabric_types::crypto::Hash256::ZERO,
                        },
                        last_block_hash: fabric_types::crypto::Hash256::ZERO,
                        entries: vec![],
                    }),
                    1024,
                )
                .remove(0),
            }
            .kind(),
            GossipMsg::Alive.kind(),
            GossipMsg::AliveMsg(PeerAlive {
                peer: PeerId(0),
                incarnation: 0,
                seq: 0,
            })
            .kind(),
            GossipMsg::MembershipRequest {
                entries: vec![],
                dead: vec![],
            }
            .kind(),
            GossipMsg::MembershipResponse {
                entries: vec![],
                dead: vec![],
            }
            .kind(),
        ];
        let mut unique = kinds.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), kinds.len());
    }

    #[test]
    fn kind_ids_agree_with_kind_names() {
        use desim::KindId;
        let samples = [
            GossipMsg::BlockPush {
                block: block(0),
                counter: 0,
            },
            GossipMsg::PullHello { nonce: 0 },
            GossipMsg::AliveMsg(PeerAlive {
                peer: PeerId(0),
                incarnation: 1,
                seq: 1,
            }),
            GossipMsg::MembershipRequest {
                entries: vec![],
                dead: vec![],
            },
            GossipMsg::MembershipResponse {
                entries: vec![],
                dead: vec![],
            },
            GossipMsg::SnapshotRequest {
                height: 1,
                from_chunk: 0,
            },
            GossipMsg::SnapshotChunk {
                chunk: SnapshotChunk::plan(
                    &SnapshotRef::new(fabric_types::snapshot::Snapshot {
                        checkpoint: Checkpoint {
                            height: 0,
                            state_hash: fabric_types::crypto::Hash256::ZERO,
                        },
                        last_block_hash: fabric_types::crypto::Hash256::ZERO,
                        entries: vec![],
                    }),
                    1024,
                )
                .remove(0),
            },
        ];
        for msg in samples {
            assert_eq!(msg.kind_id(), KindId::intern(msg.kind()), "{}", msg.kind());
        }
        let tagged = ChannelMsg {
            channel: ChannelId(3),
            msg: GossipMsg::PullHello { nonce: 1 },
        };
        assert_eq!(tagged.kind_id(), KindId::intern("pull-hello"));
    }
}
