//! Client-side transaction assembly: simulate at an endorser, sign, build
//! the proposal the orderer will batch.

use fabric_ledger::chaincode::{
    Chaincode, ChaincodeError, ChaincodeInput, IncrementChaincode, PayloadChaincode,
};
use fabric_ledger::state::StateDb;
use fabric_types::ids::{ClientId, PeerId, TxId};
use fabric_types::msp::Msp;
use fabric_types::transaction::Transaction;

use crate::schedule::{ChaincodeKind, ScheduledInvocation};

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
/// Propagates [`ChaincodeError`] from simulation; returns an error if the
/// endorser is not enrolled in the MSP.
pub fn endorse_invocation(
    invocation: &ScheduledInvocation,
    tx_id: TxId,
    client: ClientId,
    endorser: PeerId,
    endorser_state: &StateDb,
    msp: &Msp,
) -> Result<Transaction, ChaincodeError> {
    let input = ChaincodeInput::new([invocation.arg.as_str()]);
    let (name, rwset) = match invocation.chaincode {
        ChaincodeKind::Increment => {
            let cc = IncrementChaincode;
            (cc.name(), cc.simulate(&input, endorser_state)?)
        }
        ChaincodeKind::Payload => {
            let cc = PayloadChaincode::new(invocation.padding as usize);
            (cc.name(), cc.simulate(&input, endorser_state)?)
        }
    };
    let mut tx = Transaction::new(tx_id, name, client, rwset).with_padding(invocation.padding);
    if !tx.endorse(msp, endorser) {
        return Err(ChaincodeError::BadArguments(format!(
            "endorser {endorser} not enrolled"
        )));
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
        assert_eq!(tx.rwset.reads[0].version, Some(Version::new(5, 2)));
        assert_eq!(tx.rwset.writes[0].value.as_u64(), Some(10));
        assert_eq!(tx.payload_padding, 100);
        // The endorsement verifies under the policy.
        let policy = EndorsementPolicy::single(PeerId(1));
        assert!(policy.is_satisfied(&msp, &tx.digest(), &tx.endorsements));
    }

    #[test]
    fn endorse_payload_writes_delta_row() {
        let msp = Msp::single_org(2);
        let state = StateDb::new();
        let tx = endorse_invocation(
            &invocation(ChaincodeKind::Payload, "row42"),
            TxId(2),
            ClientId(0),
            PeerId(0),
            &state,
            &msp,
        )
        .unwrap();
        assert!(tx.rwset.reads.is_empty());
        assert_eq!(tx.rwset.writes[0].key, Key::from("delta:row42"));
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

    /// Whether `item` lies inside `tx` itself, not on the heap.
    fn inside<T>(tx: &Transaction, item: *const T) -> bool {
        let start = tx as *const Transaction as usize;
        (start..start + std::mem::size_of::<Transaction>()).contains(&(item as usize))
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
        assert!(err.is_err());
    }
}
