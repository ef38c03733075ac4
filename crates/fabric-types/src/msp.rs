//! Simulated membership service provider (MSP).
//!
//! Fabric assumes a trusted authority that certifies the identity of every
//! infrastructure node. This module plays that role for the reproduction:
//! it enrolls peers into organizations, hands out deterministic signing
//! keys, and verifies signatures on behalf of any party (in the simulation
//! the MSP is the single source of truth for key material, which stands in
//! for certificate-based public-key verification).

use std::collections::BTreeMap;

use crate::crypto::{sign, verify, SecretKey, Signature};
use crate::ids::{OrgId, PeerId};

/// A certified identity: the binding of a peer to an organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Identity {
    /// The enrolled peer.
    pub peer: PeerId,
    /// The organization that owns the peer.
    pub org: OrgId,
    /// Serial number of the simulated enrollment certificate.
    pub cert_serial: u64,
}

/// The membership service provider for one channel.
///
/// ```
/// use fabric_types::ids::{OrgId, PeerId};
/// use fabric_types::msp::Msp;
///
/// let mut msp = Msp::new();
/// msp.enroll(PeerId(0), OrgId(0));
/// let sig = msp.sign_as(PeerId(0), b"hello").unwrap();
/// assert!(msp.verify(PeerId(0), b"hello", &sig));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Msp {
    members: BTreeMap<PeerId, (Identity, SecretKey)>,
    next_serial: u64,
}

impl Msp {
    /// An MSP with no enrolled members.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an MSP for a single organization with peers `0..n` — the
    /// paper's deployment shape (one organization of 100 peers).
    pub fn single_org(n: usize) -> Self {
        let mut msp = Msp::new();
        for i in 0..n {
            msp.enroll(PeerId(i as u32), OrgId(0));
        }
        msp
    }

    /// Enrolls `peer` into `org`, replacing any previous enrollment.
    /// Returns the certified identity.
    pub fn enroll(&mut self, peer: PeerId, org: OrgId) -> Identity {
        let serial = self.next_serial;
        self.next_serial += 1;
        let identity = Identity {
            peer,
            org,
            cert_serial: serial,
        };
        let key = SecretKey::derive("msp-enroll", u64::from(peer.0) << 16 | u64::from(org.0));
        self.members.insert(peer, (identity, key));
        identity
    }

    /// Whether `peer` is enrolled.
    pub fn is_member(&self, peer: PeerId) -> bool {
        self.members.contains_key(&peer)
    }

    /// The identity of `peer`, if enrolled.
    pub fn identity(&self, peer: PeerId) -> Option<Identity> {
        self.members.get(&peer).map(|(id, _)| *id)
    }

    /// The organization of `peer`, if enrolled.
    pub fn org_of(&self, peer: PeerId) -> Option<OrgId> {
        self.identity(peer).map(|id| id.org)
    }

    /// All enrolled peers, in id order.
    pub fn peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.members.keys().copied()
    }

    /// Number of enrolled peers.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` when no peer is enrolled.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Signs `message` with `peer`'s key; `None` if the peer is not enrolled.
    pub fn sign_as(&self, peer: PeerId, message: &[u8]) -> Option<Signature> {
        self.members.get(&peer).map(|(_, key)| sign(key, message))
    }

    /// Verifies `sig` as `peer`'s signature over `message`. Unenrolled
    /// signers always fail verification.
    pub fn verify(&self, peer: PeerId, message: &[u8], sig: &Signature) -> bool {
        match self.members.get(&peer) {
            Some((_, key)) => verify(key, message, sig),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enroll_and_query() {
        let mut msp = Msp::new();
        let id = msp.enroll(PeerId(7), OrgId(2));
        assert_eq!(id.peer, PeerId(7));
        assert_eq!(id.org, OrgId(2));
        assert!(msp.is_member(PeerId(7)));
        assert!(!msp.is_member(PeerId(8)));
        assert_eq!(msp.org_of(PeerId(7)), Some(OrgId(2)));
        assert_eq!(msp.org_of(PeerId(8)), None);
    }

    #[test]
    fn single_org_enrolls_dense_ids() {
        let msp = Msp::single_org(5);
        assert_eq!(msp.len(), 5);
        let peers: Vec<_> = msp.peers().collect();
        assert_eq!(peers, (0..5).map(PeerId).collect::<Vec<_>>());
        assert!(peers.iter().all(|&p| msp.org_of(p) == Some(OrgId(0))));
    }

    #[test]
    fn signatures_verify_only_for_the_right_signer() {
        let msp = Msp::single_org(3);
        let sig = msp.sign_as(PeerId(1), b"block 9").unwrap();
        assert!(msp.verify(PeerId(1), b"block 9", &sig));
        assert!(!msp.verify(PeerId(2), b"block 9", &sig));
        assert!(!msp.verify(PeerId(1), b"block 10", &sig));
        assert!(!msp.verify(PeerId(9), b"block 9", &sig));
        assert!(msp.sign_as(PeerId(9), b"x").is_none());
    }

    #[test]
    fn serials_increase_monotonically() {
        let mut msp = Msp::new();
        let a = msp.enroll(PeerId(0), OrgId(0));
        let b = msp.enroll(PeerId(1), OrgId(0));
        assert!(b.cert_serial > a.cert_serial);
    }

    #[test]
    fn re_enrollment_replaces_identity() {
        let mut msp = Msp::new();
        msp.enroll(PeerId(0), OrgId(0));
        let sig_old = msp.sign_as(PeerId(0), b"m").unwrap();
        msp.enroll(PeerId(0), OrgId(1));
        assert_eq!(msp.org_of(PeerId(0)), Some(OrgId(1)));
        // The key is org-bound, so the old signature no longer verifies.
        assert!(!msp.verify(PeerId(0), b"m", &sig_old));
        assert_eq!(msp.len(), 1);
    }
}
