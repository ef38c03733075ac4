//! # fabric-ledger — the Fabric peer substrate
//!
//! Everything a peer does with a block once gossip delivers it: the
//! versioned state database ([`state::StateDb`]), endorsement-policy and
//! MVCC validation ([`validate`]), ledger commit ([`ledger::Ledger`]), and
//! the chaincodes endorsers simulate ([`chaincode`]).
//!
//! The split mirrors Fabric's execute-order-validate pipeline:
//!
//! 1. an endorser runs [`chaincode::Chaincode::simulate`] against its
//!    [`state::StateDb`] and signs the resulting read/write set;
//! 2. the ordering service (crate `fabric-orderer`) batches proposals into
//!    blocks;
//! 3. every peer validates the delivered block ([`validate::validate_block`])
//!    and commits it ([`ledger::Ledger::commit`]), applying only the writes
//!    of valid transactions — conflicting transactions stay in the chain,
//!    flagged invalid, exactly the waste the paper's faster gossip reduces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaincode;
pub mod ledger;
pub mod state;
pub mod validate;

pub use chaincode::{
    Chaincode, ChaincodeError, ChaincodeInput, IncrementChaincode, PayloadChaincode,
};
pub use ledger::{CommitError, CommitSummary, Ledger, LedgerStats};
pub use state::{StateDb, StateReader};
pub use validate::{validate_block, BlockValidation, TxValidation};

/// Whether `bytes` lie inside `holder` itself rather than on the heap: how
/// the `held_once_` pins tell an inline key or value from a shared one.
#[cfg(test)]
fn held_inline<T>(holder: &T, bytes: &[u8]) -> bool {
    let start = holder as *const T as usize;
    (start..start + std::mem::size_of::<T>()).contains(&(bytes.as_ptr() as usize))
}
