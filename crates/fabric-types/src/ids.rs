//! Identifiers for the entities of a Fabric network.

use std::fmt;

/// Identity of a peer within the network.
///
/// Peers are numbered densely from zero so that per-peer state can live in
/// plain vectors. The simulation layer maps `PeerId(i)` to its own node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl PeerId {
    /// The peer's index, for direct vector addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

/// Identity of a Fabric *channel* — an independent ledger with its own
/// membership, leader election and gossip dissemination.
///
/// Channels are numbered densely from zero so per-channel state can live in
/// small vectors; [`ChannelId::DEFAULT`] is the single channel of the
/// paper's evaluation deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u16);

impl ChannelId {
    /// The implicit channel of single-channel deployments.
    pub const DEFAULT: ChannelId = ChannelId(0);

    /// The channel's index, for direct vector addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// Identity of an organization participating in the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrgId(pub u16);

impl fmt::Display for OrgId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "org{}", self.0)
    }
}

/// Identity of a transaction, unique within an experiment.
///
/// Real Fabric derives transaction ids from a client nonce and certificate;
/// a counter preserves uniqueness, which is the only property the pipeline
/// relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{:08x}", self.0)
    }
}

/// Identity of a client application submitting transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(PeerId(3).to_string(), "peer3");
        assert_eq!(OrgId(1).to_string(), "org1");
        assert_eq!(TxId(255).to_string(), "tx000000ff");
        assert_eq!(ClientId(0).to_string(), "client0");
    }

    #[test]
    fn peer_index_round_trips() {
        assert_eq!(PeerId(42).index(), 42);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(PeerId(1) < PeerId(2));
        assert!(TxId(1) < TxId(2));
    }
}
