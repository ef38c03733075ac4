//! The side-effect boundary of the gossip state machine.
//!
//! [`crate::peer::GossipPeer`] is sans-io: it never sleeps, sends or reads a
//! clock directly. Every interaction with the outside world goes through an
//! [`Effects`] implementation. There are two: the discrete-event
//! simulation's `SimFx` (crate `fabric-experiments`), and
//! [`crate::testing::MockEffects`], which unit tests use to assert on
//! exactly what the protocol did.
//!
//! What the host only observes arrives through one method,
//! [`Effects::trace`], as a [`ProtocolEvent`].
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

    /// Called when `block` becomes deliverable in height order on
    /// `channel` — the ledger-commit point.
    fn deliver(&mut self, channel: ChannelId, block: BlockRef);

    /// Reports an observation-only fact on `channel`, in protocol order;
    /// nothing the host does here feeds back into the protocol.
    fn trace(&mut self, channel: ChannelId, event: ProtocolEvent) {
        let _ = (channel, event);
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

/// An observation-only fact for [`Effects::trace`]: the three points the
/// paper reads its results at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolEvent {
    /// Block `n`'s content arrived for the first time (once per block per
    /// channel, before the deliveries it unlocks): the latency figures'
    /// measurement point and the host's one record of when — the peer keeps
    /// only a count ([`crate::channel::PeerStats::first_seen`]).
    Received(u64),
    /// The leader seat was gained (`true`) or lost; only a change is traced.
    Seat(bool),
    /// Discovery admitted `peer` to the view (`joined`: gossip claimed an
    /// unknown or resurrected peer) or reaped it (expired silent or learned
    /// dead). A view changes no other way, so this is where convergence and
    /// stale views are measured. Never traced on a static roster.
    View {
        /// The peer admitted or reaped.
        peer: PeerId,
        /// Admitted (`true`) or reaped.
        joined: bool,
    },
}
