//! # fabric-gossip — fair and efficient block dissemination
//!
//! The paper's contribution, as a reusable library: the gossip layer that
//! broadcasts new blocks from the organization's leader peer to every other
//! peer. Two complete protocols are provided behind one configuration type:
//!
//! * **Original Fabric v1.2 gossip** ([`GossipConfig::original_fabric`]):
//!   infect-and-die push (`fout = 3`, 10 ms buffer), a four-phase pull
//!   engine every 4 s, and 10 s recovery — the baseline whose heavy tail the
//!   paper measures;
//! * **Enhanced gossip** ([`GossipConfig::enhanced_f4`],
//!   [`GossipConfig::enhanced_f2`]): infect-upon-contagion push with a
//!   per-`(block, counter)` TTL, digests above `TTL_direct`, a randomized
//!   initial gossiper (`f_leader_out = 1`), and no pull.
//!
//! The state machine ([`peer::GossipPeer`]) is sans-io: it runs under two
//! hosts, the deterministic simulator's `SimFx` (crate
//! `fabric-experiments`) and [`testing::MockEffects`] in tests.
//!
//! ## Module map: multiplexer → engines → effects
//!
//! Gossip in Fabric is scoped per *channel*; a peer joined to several
//! channels runs one independent protocol instance per channel:
//!
//! * [`peer::GossipPeer`] — the **multiplexer**: routes messages, timers
//!   and orderer deliveries to the right channel instance and fans out
//!   lifecycle events (`init`, `on_crash`). Under protocol discovery
//!   channel membership is a runtime operation:
//!   [`peer::GossipPeer::join_channel_live`] creates an instance mid-run
//!   (the joiner announces itself and catches up through StateInfo +
//!   recovery) and [`peer::GossipPeer::leave_channel`] drops one (the
//!   leaver goes silent and is reaped) — only the mover acts, nobody is
//!   told;
//! * [`channel::ChannelState`] — one channel's instance: the shared
//!   [`channel::ChannelCore`] (membership views, block store, per-channel
//!   [`channel::PeerStats`]), the leader seat — the roster minimum on a
//!   static roster, the most senior live claim under discovery — and the
//!   four **engines**:
//!   * [`push::PushEngine`] — infect-and-die and infect-upon-contagion
//!     push, digests, content-fetch retries;
//!   * [`pull::PullEngine`] — the four-phase pull (hello → digest →
//!     request → response);
//!   * [`recovery::RecoveryEngine`] — state transfer: StateInfo heights,
//!     block recovery and snapshot bootstrap;
//!   * [`discovery::DiscoveryEngine`] — gossiped membership (when
//!     [`config::DiscoveryConfig::protocol`] is on): `AliveMsg`
//!     heartbeats with monotonic `(incarnation, seq)` claims,
//!     `MembershipRequest`/`MembershipResponse` anti-entropy, expiry of
//!     silent peers and a dead list of their last claims — joins and
//!     leaves are local consequences of received gossip. With it off the
//!     build-time roster is the membership for the whole run;
//! * [`effects::Effects`] — the side-effect boundary every engine drives;
//!   all I/O is tagged with its [`fabric_types::ids::ChannelId`], and the
//!   wire unit is [`messages::ChannelMsg`] (channel tag + payload).
//!
//! Beside the protocol, [`scenario`] holds the host-independent half of
//! the adversarial suite: the scenario script (ops, predicates, the
//! seeded-random generator) and the Byzantine catalog (what a compromised
//! peer does to its own wire). Neither simulates anything — the one
//! simulator is `desim`, the one host `fabric-experiments`' `FabricNet`,
//! and its `scenario::ScenarioNet` interprets the scripts.
//!
//! ```
//! use fabric_gossip::config::GossipConfig;
//! use fabric_gossip::peer::GossipPeer;
//! use fabric_gossip::testing::MockEffects;
//! use fabric_types::block::{Block, BlockRef};
//! use fabric_types::ids::PeerId;
//!
//! // A five-peer organization; peer 0 is the leader.
//! let roster: Vec<PeerId> = (0..5).map(PeerId).collect();
//! let mut leader = GossipPeer::new(PeerId(0), roster, GossipConfig::enhanced_f4());
//! let mut fx = MockEffects::new(1);
//! leader.init(&mut fx);
//!
//! // The ordering service hands the leader a block: with f_leader_out = 1
//! // it forwards the full content to exactly one random peer.
//! let block = BlockRef::new(Block::new(1, Block::genesis().hash(), vec![]));
//! leader.on_block_from_orderer(&mut fx, block);
//! assert_eq!(fx.sent_of_kind("block").len(), 1);
//! assert_eq!(fx.delivered_numbers(), vec![1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod blockmap;
pub mod channel;
pub mod config;
pub mod discovery;
pub mod effects;
pub mod membership;
pub mod messages;
pub mod peer;
mod peertable;
pub mod pull;
pub mod push;
pub mod recovery;
pub mod scenario;
pub mod store;
pub mod testing;
#[cfg(test)]
mod wire_tests;

pub use channel::{ChannelCore, ChannelState};
pub use config::{DiscoveryConfig, GossipConfig, PullConfig, PushMode, RecoveryConfig};
pub use discovery::{DiscoveryDelta, DiscoveryEngine};
pub use effects::Effects;
pub use membership::Membership;
pub use messages::{ChannelMsg, GossipMsg, GossipTimer, PeerAlive};
pub use peer::{GossipPeer, PeerStats};
pub use pull::PullEngine;
pub use push::PushEngine;
pub use recovery::RecoveryEngine;
pub use store::BlockStore;
