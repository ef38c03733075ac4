//! The side-effect boundary of the gossip state machine.
//!
//! [`crate::peer::GossipPeer`] is sans-io: it never sleeps, sends or reads a
//! clock directly. Every interaction with the outside world goes through an
//! [`Effects`] implementation. There are two: the discrete-event
//! simulation's `SimFx` (crate `fabric-experiments`), and
//! [`crate::testing::MockEffects`], which unit tests use to assert on
//! exactly what the protocol did.
//!
//! Every side effect is tagged with the [`ChannelId`] it belongs to: a peer
//! joined to several channels runs one protocol instance per channel, and
//! the host environment routes messages, timers and deliveries back to the
//! right instance. Single-channel deployments use [`ChannelId::DEFAULT`]
//! throughout.

use desim::{Duration, Time};
use rand::rngs::StdRng;

use fabric_types::block::BlockRef;
use fabric_types::ids::{ChannelId, PeerId};
use fabric_types::snapshot::SnapshotRef;

use crate::messages::{GossipMsg, GossipTimer};

/// Host environment of one gossip peer.
pub trait Effects {
    /// Current time.
    fn now(&self) -> Time;

    /// Sends `msg` to `to` on `channel` (another peer of the organization).
    fn send(&mut self, channel: ChannelId, to: PeerId, msg: GossipMsg);

    /// Arms `timer` to fire for this peer's `channel` instance `after` from
    /// now.
    fn schedule(&mut self, after: Duration, channel: ChannelId, timer: GossipTimer);

    /// Deterministic randomness source.
    fn rng(&mut self) -> &mut StdRng;

    /// Called exactly once per block per channel, on first reception of its
    /// content — the measurement point of the paper's latency figures, and
    /// the host's one record of when the block arrived: the peer keeps
    /// only a count ([`crate::channel::PeerStats::first_seen`]).
    fn block_received(&mut self, channel: ChannelId, block_num: u64) {
        let _ = (channel, block_num);
    }

    /// Called when `block` becomes deliverable in height order on
    /// `channel` — the ledger-commit point.
    fn deliver(&mut self, channel: ChannelId, block: BlockRef);

    /// Called when this peer gains or loses organization leadership on
    /// `channel`.
    fn leadership_changed(&mut self, channel: ChannelId, is_leader: bool) {
        let _ = (channel, is_leader);
    }

    /// Called when the **discovery protocol** changes this peer's view of
    /// `channel`'s membership: `joined = true` when `peer` entered the view
    /// through received gossip (a heartbeat or anti-entropy claim about an
    /// unknown or resurrected peer), `false` when it was reaped (expired
    /// silent or learned dead). Every runtime membership change fires it —
    /// there is no other way for a view to change — so it is the
    /// measurement point of discovery convergence and stale-view metrics.
    /// Never called on a static roster.
    fn discovery_event(&mut self, channel: ChannelId, peer: PeerId, joined: bool) {
        let _ = (channel, peer, joined);
    }

    /// Called when this peer verified and installed a received `snapshot`
    /// on `channel` — before the buffered tail above it is delivered. The
    /// embedding seeds its ledger from the snapshot here
    /// (`fabric_ledger::Ledger::from_snapshot`) so the tail commits have a
    /// state to land on.
    fn snapshot_installed(&mut self, channel: ChannelId, snapshot: &SnapshotRef) {
        let _ = (channel, snapshot);
    }
}
