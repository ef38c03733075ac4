//! Block validation: endorsement-policy and MVCC read-set checks.
//!
//! Fabric validates every transaction of a newly delivered block in order.
//! A transaction is valid when (a) its endorsements satisfy the channel's
//! endorsement policy and (b) every key it read still carries the version it
//! observed — taking into account the writes of *earlier valid transactions
//! in the same block* (Fabric's earliest-writer-wins rule). Invalid
//! transactions stay in the block but have no effect on state.

use std::collections::HashMap;

use fabric_types::block::Block;
use fabric_types::msp::Msp;
use fabric_types::rwset::{Key, Version};
use fabric_types::transaction::{EndorsementPolicy, Transaction};

use crate::state::StateDb;

/// The outcome of validating one transaction, mirroring Fabric's
/// `TxValidationCode` values relevant to this study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxValidation {
    /// The transaction is valid; its writes are applied.
    Valid,
    /// A read version no longer matches committed state (validation-time
    /// conflict — the quantity Table II counts).
    MvccConflict,
    /// The endorsements do not satisfy the policy.
    EndorsementFailure,
}

impl TxValidation {
    /// Whether the transaction's writes get applied.
    pub fn is_valid(self) -> bool {
        self == TxValidation::Valid
    }
}

/// Per-block validation outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockValidation {
    /// Validation flag per transaction, in block order.
    pub flags: Vec<TxValidation>,
}

/// Validates `block` against `state`, without mutating it.
///
/// The caller applies the writes of valid transactions afterwards (see
/// [`crate::ledger::Ledger::commit`]); keeping validation pure makes it
/// directly testable and lets the simulation account validation CPU cost
/// separately.
pub fn validate_block(
    msp: &Msp,
    policy: &EndorsementPolicy,
    block: &Block,
    state: &StateDb,
) -> BlockValidation {
    // Versions written by earlier *valid* transactions of this block.
    let mut overlay: HashMap<&Key, Version> = HashMap::new();
    let mut flags = Vec::with_capacity(block.txs.len());
    for (tx_num, tx) in block.txs.iter().enumerate() {
        let flag = validate_tx(msp, policy, tx, state, &overlay);
        if flag.is_valid() {
            let version = Version::new(block.number(), tx_num as u32);
            for w in &tx.rwset.writes {
                overlay.insert(&w.key, version);
            }
        }
        flags.push(flag);
    }
    BlockValidation { flags }
}

fn validate_tx(
    msp: &Msp,
    policy: &EndorsementPolicy,
    tx: &Transaction,
    state: &StateDb,
    overlay: &HashMap<&Key, Version>,
) -> TxValidation {
    if !policy.is_satisfied(msp, &tx.digest(), &tx.endorsements) {
        return TxValidation::EndorsementFailure;
    }
    for read in &tx.rwset.reads {
        let current = overlay
            .get(&read.key)
            .copied()
            .or_else(|| state.get_version(&read.key));
        if current != read.version {
            return TxValidation::MvccConflict;
        }
    }
    TxValidation::Valid
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::block::Block;
    use fabric_types::crypto::Hash256;
    use fabric_types::ids::{ClientId, PeerId, TxId};
    use fabric_types::rwset::{RwSet, Value, WriteItem};

    fn setup() -> (Msp, EndorsementPolicy, StateDb) {
        let msp = Msp::single_org(4);
        let policy = EndorsementPolicy::AnyMember;
        let mut state = StateDb::new();
        state.apply(
            Version::new(1, 0),
            &[WriteItem {
                key: Key::from("k"),
                value: Value::from_u64(0),
            }],
        );
        (msp, policy, state)
    }

    fn increment_tx(
        msp: &Msp,
        id: u64,
        read_version: Option<Version>,
        new_value: u64,
    ) -> Transaction {
        let rwset = RwSet::builder()
            .read("k", read_version)
            .write_u64("k", new_value)
            .build();
        let mut tx = Transaction::new(TxId(id), "increment", ClientId(0), rwset);
        tx.endorse(msp, PeerId(1));
        tx
    }

    #[test]
    fn fresh_read_validates() {
        let (msp, policy, state) = setup();
        let tx = increment_tx(&msp, 1, Some(Version::new(1, 0)), 1);
        let block = Block::new(2, Hash256::ZERO, vec![tx]);
        let v = validate_block(&msp, &policy, &block, &state);
        assert_eq!(v.flags, vec![TxValidation::Valid]);
    }

    #[test]
    fn stale_read_is_mvcc_conflict() {
        let (msp, policy, mut state) = setup();
        // Another write bumped k to version (2, 0) after the endorsement.
        state.apply(
            Version::new(2, 0),
            &[WriteItem {
                key: Key::from("k"),
                value: Value::from_u64(5),
            }],
        );
        let tx = increment_tx(&msp, 1, Some(Version::new(1, 0)), 1);
        let block = Block::new(3, Hash256::ZERO, vec![tx]);
        let v = validate_block(&msp, &policy, &block, &state);
        assert_eq!(v.flags, vec![TxValidation::MvccConflict]);
    }

    #[test]
    fn earliest_writer_wins_inside_a_block() {
        let (msp, policy, state) = setup();
        // Both transactions read version (1,0) of k; the first commits, the
        // second must conflict with the first one's in-block write.
        let tx1 = increment_tx(&msp, 1, Some(Version::new(1, 0)), 1);
        let tx2 = increment_tx(&msp, 2, Some(Version::new(1, 0)), 1);
        let block = Block::new(2, Hash256::ZERO, vec![tx1, tx2]);
        let v = validate_block(&msp, &policy, &block, &state);
        assert_eq!(
            v.flags,
            vec![TxValidation::Valid, TxValidation::MvccConflict]
        );
    }

    #[test]
    fn invalid_tx_writes_do_not_shadow_state() {
        let (msp, policy, state) = setup();
        // tx1 conflicts (stale read of a version that never existed); tx2
        // reads the committed version and must remain valid.
        let tx1 = increment_tx(&msp, 1, Some(Version::new(0, 0)), 1);
        let tx2 = increment_tx(&msp, 2, Some(Version::new(1, 0)), 1);
        let block = Block::new(2, Hash256::ZERO, vec![tx1, tx2]);
        let v = validate_block(&msp, &policy, &block, &state);
        assert_eq!(
            v.flags,
            vec![TxValidation::MvccConflict, TxValidation::Valid]
        );
    }

    #[test]
    fn missing_endorsement_fails_policy() {
        let (msp, policy, state) = setup();
        let rwset = RwSet::builder()
            .read("k", Some(Version::new(1, 0)))
            .write_u64("k", 1)
            .build();
        let tx = Transaction::new(TxId(1), "increment", ClientId(0), rwset);
        let block = Block::new(2, Hash256::ZERO, vec![tx]);
        let v = validate_block(&msp, &policy, &block, &state);
        assert_eq!(v.flags, vec![TxValidation::EndorsementFailure]);
    }

    #[test]
    fn read_of_absent_key_matches_none_version() {
        let (msp, policy, state) = setup();
        let rwset = RwSet::builder()
            .read("new-key", None)
            .write_u64("new-key", 1)
            .build();
        let mut tx = Transaction::new(TxId(9), "create", ClientId(0), rwset);
        tx.endorse(&msp, PeerId(0));
        let block = Block::new(2, Hash256::ZERO, vec![tx]);
        let v = validate_block(&msp, &policy, &block, &state);
        assert_eq!(v.flags, vec![TxValidation::Valid]);
    }

    #[test]
    fn two_creates_of_same_key_conflict_in_block() {
        let (msp, policy, state) = setup();
        let make = |id: u64| {
            let rwset = RwSet::builder()
                .read("fresh", None)
                .write_u64("fresh", 1)
                .build();
            let mut tx = Transaction::new(TxId(id), "create", ClientId(0), rwset);
            tx.endorse(&msp, PeerId(0));
            tx
        };
        let block = Block::new(2, Hash256::ZERO, vec![make(1), make(2)]);
        let v = validate_block(&msp, &policy, &block, &state);
        assert_eq!(
            v.flags,
            vec![TxValidation::Valid, TxValidation::MvccConflict]
        );
    }
}
