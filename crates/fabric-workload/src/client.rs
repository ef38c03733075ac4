//! Client-side transaction assembly: simulate at an endorser, sign, build
//! the proposal the orderer will batch.
//!
//! The paper's two chaincodes are plain functions from an invocation's one
//! argument (and, for the counter, the endorser's committed state) to the
//! read/write set an endorser signs:
//!
//! * [`increment`] — the Table II conflict workload: reads one of 100
//!   integer counters and writes it incremented;
//! * [`payload`] — the Fig. 4–14 dissemination workload, modeled on the
//!   `fabric-samples` high-throughput example: each invocation writes a
//!   fresh delta key (no read conflicts), and the transaction's padding
//!   carries the bulk of the paper's ~160 KB blocks.
//!
//! Both are deterministic: Fabric runs the same chaincode on mutually
//! untrusted endorsers and compares the read/write sets they return.

use std::fmt;

use fabric_ledger::state::StateDb;
use fabric_types::ids::{ClientId, PeerId, TxId};
use fabric_types::msp::Msp;
use fabric_types::rwset::{Key, RwSet, Value};
use fabric_types::transaction::Transaction;

use crate::schedule::{ChaincodeKind, ScheduledInvocation};

/// The registered name of [`increment`], stored by reference in every
/// transaction it endorses.
pub const INCREMENT_NAME: &str = "increment";

/// The registered name of [`payload`].
pub const PAYLOAD_NAME: &str = "high-throughput";

/// Why an endorser returned no transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EndorseError {
    /// The increment's key holds a value that is not a counter.
    NotACounter(Key),
    /// The endorser is not enrolled in the MSP.
    NotEnrolled(PeerId),
}

impl fmt::Display for EndorseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EndorseError::NotACounter(key) => write!(f, "key {key} does not hold a counter"),
            EndorseError::NotEnrolled(peer) => write!(f, "endorser {peer} not enrolled"),
        }
    }
}

impl std::error::Error for EndorseError {}

/// The Table II chaincode: increments the counter at `key`, an absent one
/// from zero. The read set records the version observed, so two increments
/// endorsed over the same version conflict at validation, earliest writer
/// wins.
///
/// # Errors
///
/// [`EndorseError::NotACounter`] when `key` holds a non-counter value.
pub fn increment(key: &str, state: &StateDb) -> Result<RwSet, EndorseError> {
    let key = Key::new(key);
    let (current, version) = match state.get(&key) {
        Some((value, version)) => match value.as_u64() {
            Some(n) => (n, Some(version)),
            None => return Err(EndorseError::NotACounter(key)),
        },
        None => (0, None),
    };
    // One allocation for the key: the read and the write share it.
    Ok(RwSet::builder()
        .read(key.clone(), version)
        .write_u64(key, current + 1)
        .build())
}

/// The dissemination chaincode: writes the unique delta row `delta:{row}`
/// (the generator names rows after transactions), conflict-free by
/// construction. The value stays tiny; the transaction's padding carries
/// the bulk, so the state database does not balloon over a long run.
pub fn payload(row: &str) -> RwSet {
    RwSet::builder()
        .write(Key::concat("delta:", row), Value::from_u64(1))
        .build()
}

/// Simulates `invocation` against `endorser_state` (the endorser's
/// committed world state), signs the result as `endorser`, and assembles
/// the transaction proposal.
///
/// This is the client↔endorser round trip of Fabric's execute phase,
/// collapsed into a function: the experiment layer accounts its latency
/// separately.
///
/// # Errors
///
/// [`EndorseError::NotACounter`] from [`increment`];
/// [`EndorseError::NotEnrolled`] when the endorser is not in the MSP.
pub fn endorse_invocation(
    invocation: &ScheduledInvocation,
    tx_id: TxId,
    client: ClientId,
    endorser: PeerId,
    endorser_state: &StateDb,
    msp: &Msp,
) -> Result<Transaction, EndorseError> {
    let arg = invocation.arg.as_str();
    let (name, rwset) = match invocation.chaincode {
        ChaincodeKind::Increment => (INCREMENT_NAME, increment(arg, endorser_state)?),
        ChaincodeKind::Payload => (PAYLOAD_NAME, payload(arg)),
    };
    let mut tx = Transaction::new(tx_id, name, client, rwset).with_padding(invocation.padding);
    if !tx.endorse(msp, endorser) {
        return Err(EndorseError::NotEnrolled(endorser));
    }
    Ok(tx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Time;
    use fabric_types::rwset::{Key, Value, Version, WriteItem};
    use fabric_types::transaction::EndorsementPolicy;

    use crate::schedule::InvocationArg;

    fn invocation(kind: ChaincodeKind, arg: &str) -> ScheduledInvocation {
        ScheduledInvocation {
            at: Time::ZERO,
            channel: fabric_types::ids::ChannelId::DEFAULT,
            chaincode: kind,
            arg: InvocationArg::new(arg),
            padding: 100,
        }
    }

    /// An increment reads the version the endorser committed and writes
    /// the counter bumped; the endorsement verifies under the policy.
    #[test]
    fn endorse_increment_reads_endorser_state() {
        let msp = Msp::single_org(3);
        let mut state = StateDb::new();
        state.apply(
            Version::new(5, 2),
            &[WriteItem {
                key: Key::from("counter3"),
                value: Value::from_u64(9),
            }],
        );
        let tx = endorse_invocation(
            &invocation(ChaincodeKind::Increment, "counter3"),
            TxId(1),
            ClientId(0),
            PeerId(1),
            &state,
            &msp,
        )
        .unwrap();
        assert_eq!(tx.chaincode, INCREMENT_NAME);
        assert_eq!(tx.rwset.reads[0].version, Some(Version::new(5, 2)));
        assert_eq!(tx.rwset.writes[0].value.as_u64(), Some(10));
        assert_eq!(tx.payload_padding, 100);
        let policy = EndorsementPolicy::single(PeerId(1));
        assert!(policy.is_satisfied(&msp, &tx.digest(), &tx.endorsements));
    }

    #[test]
    fn increment_of_absent_key_starts_at_one() {
        let rwset = increment("counter7", &StateDb::new()).unwrap();
        assert_eq!(rwset.reads[0].version, None);
        assert_eq!(rwset.writes[0].value.as_u64(), Some(1));
    }

    /// An increment builds its counter's key once: a short key is held
    /// inline by the read and the write, a long one is shared by both.
    #[test]
    fn held_once_increment_reads_and_writes_one_key() {
        let rwset = increment("counter7", &StateDb::new()).unwrap();
        let (read, write) = (&rwset.reads[0].key, &rwset.writes[0].key);
        assert!(inside(read, read.as_bytes().as_ptr()));
        assert!(inside(write, write.as_bytes().as_ptr()));
        let rwset = increment("counter-past-sixteen", &StateDb::new()).unwrap();
        assert_eq!(
            rwset.reads[0].key.as_bytes().as_ptr(),
            rwset.writes[0].key.as_bytes().as_ptr()
        );
    }

    #[test]
    fn increment_rejects_a_non_counter() {
        let mut state = StateDb::new();
        state.apply(
            Version::new(1, 0),
            &[WriteItem {
                key: Key::from("blob"),
                value: Value::from_bytes(&[1, 2, 3]),
            }],
        );
        assert_eq!(
            increment("blob", &state),
            Err(EndorseError::NotACounter(Key::from("blob")))
        );
    }

    /// A payload invocation reads nothing and writes its own delta row, so
    /// two rows never conflict.
    #[test]
    fn endorse_payload_writes_delta_row() {
        let msp = Msp::single_org(2);
        let state = StateDb::new();
        let endorse = |row| {
            endorse_invocation(
                &invocation(ChaincodeKind::Payload, row),
                TxId(2),
                ClientId(0),
                PeerId(0),
                &state,
                &msp,
            )
            .unwrap()
        };
        let (a, b) = (endorse("row42"), endorse("row43"));
        assert_eq!(a.chaincode, PAYLOAD_NAME);
        assert!(a.rwset.reads.is_empty());
        assert_eq!(a.rwset.writes[0].key, Key::from("delta:row42"));
        assert_ne!(a.rwset.writes[0].key, b.rwset.writes[0].key);
    }

    /// One increment and one payload transaction, endorsed as the
    /// pipeline endorses them: their signed digest and wire size are
    /// constants, so a change to how keys, values or chaincode names are
    /// held cannot move a byte that is hashed or put on the wire.
    #[test]
    fn endorsed_digest_and_wire_size_are_pinned() {
        let msp = Msp::single_org(3);
        let mut state = StateDb::new();
        state.apply(
            Version::new(5, 2),
            &[WriteItem {
                key: Key::from("counter3"),
                value: Value::from_u64(9),
            }],
        );
        let increment = endorse_invocation(
            &invocation(ChaincodeKind::Increment, "counter3"),
            TxId(17),
            ClientId(0),
            PeerId(1),
            &state,
            &msp,
        )
        .unwrap();
        let mut payload = invocation(ChaincodeKind::Payload, "18");
        payload.padding = 3_100;
        let payload =
            endorse_invocation(&payload, TxId(18), ClientId(0), PeerId(1), &state, &msp).unwrap();
        assert_eq!(
            increment.digest().to_hex(),
            "9b55feb4827b1b7658aedbdc65be597f9aea819a8a35e3a1b8735a80ccace825"
        );
        assert_eq!(increment.wire_size(), 309);
        assert_eq!(
            payload.digest().to_hex(),
            "5639651888d12a72c2d3609b436a772acefacc6d56c749241c32a7502c69f792"
        );
        assert_eq!(payload.wire_size(), 3291);
    }

    /// Whether `item` lies inside `holder` itself, not on the heap.
    fn inside<T, U>(holder: &T, item: *const U) -> bool {
        let start = holder as *const T as usize;
        (start..start + std::mem::size_of::<T>()).contains(&(item as usize))
    }

    /// The dissemination workload's 50 000 transactions live to the end
    /// of a run: each one, endorsed from a real schedule row, is its 128
    /// bytes and owns no heap chunk. Its one write and its one endorsement
    /// lie inside it, and it reads nothing. An increment keeps one heap
    /// list, its one read.
    #[test]
    fn held_once_payload_transaction_holds_no_heap() {
        use crate::schedule::{
            increment_schedule, payload_schedule, IncrementWorkload, PayloadWorkload,
        };

        let msp = Msp::single_org(2);
        let state = StateDb::new();
        let rows = payload_schedule(&PayloadWorkload::shortened(3));
        let tx =
            endorse_invocation(&rows[2], TxId(2), ClientId(0), PeerId(1), &state, &msp).unwrap();
        assert!(tx.rwset.reads.is_empty());
        assert_eq!((tx.rwset.writes.len(), tx.endorsements.len()), (1, 1));
        let write = &tx.rwset.writes[0];
        assert!(inside(&tx, write));
        assert!(inside(&tx, write.key.as_bytes().as_ptr()));
        assert!(inside(&tx, write.value.as_bytes().as_ptr()));
        assert!(inside(&tx, &tx.endorsements[0]));

        let rows = increment_schedule(&IncrementWorkload::default(), 7);
        let tx =
            endorse_invocation(&rows[0], TxId(0), ClientId(0), PeerId(1), &state, &msp).unwrap();
        assert_eq!(tx.rwset.reads.len(), 1);
        assert!(!inside(&tx, tx.rwset.reads.as_ptr()));
        assert!(inside(&tx, &tx.rwset.writes[0]));
        assert!(inside(&tx, &tx.endorsements[0]));
    }

    #[test]
    fn unenrolled_endorser_is_an_error() {
        let msp = Msp::single_org(1);
        let state = StateDb::new();
        let err = endorse_invocation(
            &invocation(ChaincodeKind::Payload, "row1"),
            TxId(3),
            ClientId(0),
            PeerId(9),
            &state,
            &msp,
        );
        assert_eq!(err.unwrap_err(), EndorseError::NotEnrolled(PeerId(9)));
    }
}
