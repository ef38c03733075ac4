//! The paper's two schedules, pinned by content: every row's issue time,
//! channel, chaincode and padding, and the key its endorsement writes. A
//! change to how a row is held or generated must keep this hash.

use std::sync::Arc;

use fabric_ledger::ledger::Ledger;
use fabric_types::ids::{ClientId, PeerId, TxId};
use fabric_types::msp::Msp;
use fabric_types::transaction::EndorsementPolicy;
use fabric_workload::endorse_invocation;
use fabric_workload::schedule::{
    increment_schedule, payload_schedule, ChaincodeKind, IncrementWorkload, PayloadWorkload,
    ScheduledInvocation,
};

/// FNV-1a over each row's `at` nanos, channel, chaincode and padding, and
/// the write keys of its endorsement against a fresh ledger's state.
fn content_hash(rows: &[ScheduledInvocation]) -> u64 {
    let msp = Arc::new(Msp::single_org(1));
    let ledger = Ledger::new(msp.clone(), EndorsementPolicy::single(PeerId(0)));
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, row) in rows.iter().enumerate() {
        eat(&row.at.as_nanos().to_le_bytes());
        eat(&row.channel.0.to_le_bytes());
        eat(&[match row.chaincode {
            ChaincodeKind::Increment => 0,
            ChaincodeKind::Payload => 1,
        }]);
        eat(&row.padding.to_le_bytes());
        let tx = endorse_invocation(
            row,
            TxId(i as u64),
            ClientId(0),
            PeerId(0),
            ledger.state(),
            &msp,
        )
        .expect("a fresh state endorses every row");
        for write in tx.rwset.writes.iter() {
            eat(write.key.as_bytes());
            eat(&[0xff]);
        }
    }
    hash
}

#[test]
fn schedule_content_is_pinned() {
    let payload = payload_schedule(&PayloadWorkload::default());
    assert_eq!(payload.len(), 50_000);
    assert_eq!(content_hash(&payload), 5_084_044_778_699_618_288);
    let increment = increment_schedule(&IncrementWorkload::default(), 1);
    assert_eq!(increment.len(), 10_000);
    assert_eq!(content_hash(&increment), 17_487_969_523_676_992_794);
}
