//! Transactions, endorsements and endorsement policies.

use crypto::{Hash256, Sha256, Signature};

use crate::crypto;
use crate::ids::{ClientId, PeerId, TxId};
use crate::list::InlineOne;
use crate::msp::Msp;
use crate::rwset::RwSet;

/// An endorsement: a peer's signature over a transaction digest, attesting
/// that simulating the chaincode produced this read/write set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endorsement {
    /// The endorsing peer.
    pub endorser: PeerId,
    /// The endorser's signature over the transaction digest.
    pub signature: Signature,
}

/// An endorsement policy, checked at validation time.
///
/// Fabric policies are boolean expressions over principals; the two shapes
/// used in the paper's experiments (a single endorser, and k-out-of-n) are
/// covered here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndorsementPolicy {
    /// Any one valid endorsement from an enrolled peer satisfies the policy.
    AnyMember,
    /// At least `required` valid endorsements from the listed candidates.
    OutOf {
        /// Minimum number of distinct valid endorsements.
        required: usize,
        /// The peers whose endorsements count.
        candidates: Vec<PeerId>,
    },
}

impl EndorsementPolicy {
    /// A policy satisfied by one signature from the given peer.
    pub fn single(endorser: PeerId) -> Self {
        EndorsementPolicy::OutOf {
            required: 1,
            candidates: vec![endorser],
        }
    }

    /// Checks the policy against a transaction digest and its endorsements,
    /// verifying every counted signature through the MSP.
    pub fn is_satisfied(&self, msp: &Msp, digest: &Hash256, endorsements: &[Endorsement]) -> bool {
        match self {
            EndorsementPolicy::AnyMember => endorsements.iter().any(|e| {
                msp.is_member(e.endorser) && msp.verify(e.endorser, &digest.0, &e.signature)
            }),
            EndorsementPolicy::OutOf {
                required,
                candidates,
            } => {
                let mut seen: Vec<PeerId> = Vec::new();
                for e in endorsements {
                    if candidates.contains(&e.endorser)
                        && !seen.contains(&e.endorser)
                        && msp.verify(e.endorser, &digest.0, &e.signature)
                    {
                        seen.push(e.endorser);
                    }
                }
                seen.len() >= *required
            }
        }
    }
}

/// A transaction proposal as it travels through ordering and validation.
///
/// `payload_padding` inflates the wire size to emulate the parts of a real
/// Fabric transaction this model does not materialize (certificates,
/// chaincode arguments, channel headers); the dissemination experiments use
/// it to reach the paper's ~160 KB blocks of 50 transactions.
#[derive(Debug, Clone, PartialEq)]
pub struct Transaction {
    /// Unique transaction id.
    pub id: TxId,
    /// Name of the chaincode that produced the read/write set. It is a
    /// constant (`fabric_workload`'s `client::INCREMENT_NAME` and
    /// `client::PAYLOAD_NAME`), so no transaction allocates one.
    pub chaincode: &'static str,
    /// The submitting client.
    pub creator: ClientId,
    /// The simulated read/write set.
    pub rwset: RwSet,
    /// Endorsements collected by the client: one lives inline.
    pub endorsements: InlineOne<Endorsement>,
    /// Extra bytes accounted on the wire (see type docs).
    pub payload_padding: u32,
}

impl Transaction {
    /// Creates a transaction with no endorsements attached yet.
    pub fn new(id: TxId, chaincode: &'static str, creator: ClientId, rwset: RwSet) -> Self {
        Transaction {
            id,
            chaincode,
            creator,
            rwset,
            endorsements: InlineOne::default(),
            payload_padding: 0,
        }
    }

    /// Sets the wire-size padding (builder style).
    pub fn with_padding(mut self, padding: u32) -> Self {
        self.payload_padding = padding;
        self
    }

    /// The digest endorsers sign: covers id, chaincode, creator and rwset.
    pub fn digest(&self) -> Hash256 {
        let mut h = Sha256::new();
        h.update_u64(self.id.0);
        h.update(self.chaincode.as_bytes());
        h.update_u32(self.creator.0);
        for r in &self.rwset.reads {
            h.update(r.key.as_bytes());
            match r.version {
                Some(v) => {
                    h.update_u64(v.block_num);
                    h.update_u32(v.tx_num);
                }
                None => h.update(&[0xff]),
            }
        }
        for w in &self.rwset.writes {
            h.update(w.key.as_bytes());
            h.update(w.value.as_bytes());
        }
        h.finalize()
    }

    /// Appends `endorser`'s endorsement, signing through the MSP.
    /// Returns `false` if the peer is not enrolled.
    ///
    /// A transaction carries its endorsements for as long as its block
    /// lives, so the list holds no spare slot: it is an [`InlineOne`],
    /// which keeps one endorsement inline and more in an exact slice.
    pub fn endorse(&mut self, msp: &Msp, endorser: PeerId) -> bool {
        let digest = self.digest();
        match msp.sign_as(endorser, &digest.0) {
            Some(signature) => {
                self.endorsements.push(Endorsement {
                    endorser,
                    signature,
                });
                true
            }
            None => false,
        }
    }

    /// Size of the transaction on the wire, in bytes.
    pub fn wire_size(&self) -> usize {
        const HEADER: usize = 64; // ids, lengths, channel header
        HEADER
            + self.chaincode.len()
            + self.rwset.wire_size()
            + self.endorsements.len() * (Signature::WIRE_SIZE + 8)
            + self.payload_padding as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwset::Version;

    fn tx(id: u64) -> Transaction {
        let rwset = RwSet::builder()
            .read("counter1", Some(Version::new(1, 0)))
            .write_u64("counter1", 7)
            .build();
        Transaction::new(TxId(id), "increment", ClientId(0), rwset)
    }

    #[test]
    fn digest_changes_with_content() {
        let a = tx(1);
        let b = tx(2);
        assert_ne!(a.digest(), b.digest());
        let mut c = tx(1);
        assert_eq!(a.digest(), c.digest());
        c.rwset.writes[0].value = crate::rwset::Value::from_u64(8);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn endorse_attaches_verifiable_signature() {
        let msp = Msp::single_org(3);
        let mut t = tx(1);
        assert!(t.endorse(&msp, PeerId(2)));
        assert_eq!(t.endorsements.len(), 1);
        let e = &t.endorsements[0];
        assert!(msp.verify(e.endorser, &t.digest().0, &e.signature));
        assert!(!t.endorse(&msp, PeerId(99)));
    }

    #[test]
    fn any_member_policy() {
        let msp = Msp::single_org(3);
        let mut t = tx(1);
        let policy = EndorsementPolicy::AnyMember;
        assert!(!policy.is_satisfied(&msp, &t.digest(), &t.endorsements));
        t.endorse(&msp, PeerId(0));
        assert!(policy.is_satisfied(&msp, &t.digest(), &t.endorsements));
    }

    #[test]
    fn out_of_policy_counts_distinct_valid_candidates() {
        let msp = Msp::single_org(5);
        let mut t = tx(1);
        let policy = EndorsementPolicy::OutOf {
            required: 2,
            candidates: vec![PeerId(0), PeerId(1), PeerId(2)],
        };
        t.endorse(&msp, PeerId(0));
        assert!(!policy.is_satisfied(&msp, &t.digest(), &t.endorsements));
        // A duplicate endorsement from the same peer must not count twice.
        t.endorse(&msp, PeerId(0));
        assert!(!policy.is_satisfied(&msp, &t.digest(), &t.endorsements));
        // An endorsement from a non-candidate must not count.
        t.endorse(&msp, PeerId(4));
        assert!(!policy.is_satisfied(&msp, &t.digest(), &t.endorsements));
        t.endorse(&msp, PeerId(2));
        assert!(policy.is_satisfied(&msp, &t.digest(), &t.endorsements));
    }

    #[test]
    fn tampered_rwset_invalidates_endorsement() {
        let msp = Msp::single_org(2);
        let mut t = tx(1);
        t.endorse(&msp, PeerId(1));
        t.rwset.writes[0].value = crate::rwset::Value::from_u64(999);
        let policy = EndorsementPolicy::single(PeerId(1));
        assert!(!policy.is_satisfied(&msp, &t.digest(), &t.endorsements));
    }

    /// The layout the paper's 50 000 transactions are held in: a key and
    /// a value are 16 bytes each, inline or one shared pointer, the
    /// chaincode name is a static string, not a heap one, and a lone write
    /// and a lone endorsement live inside the transaction's 128 bytes.
    #[test]
    fn held_once_sizes_are_pinned() {
        use crate::rwset::{Key, Value, WriteItem};
        use std::mem::size_of;
        assert_eq!(size_of::<Key>(), 16);
        assert_eq!(size_of::<Value>(), 16);
        assert_eq!(size_of::<WriteItem>(), 32);
        assert_eq!(size_of::<InlineOne<WriteItem>>(), 40);
        assert_eq!(size_of::<InlineOne<Endorsement>>(), 40);
        assert_eq!(size_of::<Transaction>(), 128);
    }

    /// A transaction lives as long as its block: its read set, write set
    /// and endorsement list carry no spare slots (a growing `Vec`'s first
    /// push reserves four). The reads are a boxed slice and the other two
    /// are `InlineOne`s, so each holds exactly its items.
    #[test]
    fn held_once_lists_hold_no_spare_capacity() {
        let msp = Msp::single_org(3);
        let mut t = tx(1);
        assert!(t.endorse(&msp, PeerId(0)));
        assert!(t.endorse(&msp, PeerId(1)));
        assert_eq!(std::mem::take(&mut t.rwset.reads).into_vec().capacity(), 1);
        assert_eq!(t.rwset.writes.len(), 1);
        let endorsers: Vec<PeerId> = t.endorsements.into_iter().map(|e| e.endorser).collect();
        assert_eq!(endorsers, [PeerId(0), PeerId(1)]);
    }

    #[test]
    fn wire_size_includes_padding_and_endorsements() {
        let msp = Msp::single_org(2);
        let mut t = tx(1);
        let bare = t.wire_size();
        t.endorse(&msp, PeerId(0));
        let endorsed = t.wire_size();
        assert!(endorsed > bare);
        let padded = t.clone().with_padding(1000).wire_size();
        assert_eq!(padded, endorsed + 1000);
    }
}
