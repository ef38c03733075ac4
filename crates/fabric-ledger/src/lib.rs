//! # fabric-ledger — the Fabric peer substrate
//!
//! Everything a peer does with a block once gossip delivers it: the
//! versioned state database ([`state::StateDb`]), endorsement-policy and
//! MVCC validation ([`validate`]) and ledger commit ([`ledger::Ledger`]).
//!
//! The split mirrors Fabric's execute-order-validate pipeline:
//!
//! 1. an endorser simulates a chaincode against its [`state::StateDb`] and
//!    signs the resulting read/write set (crate `fabric-workload`, whose
//!    client calls the paper's two chaincodes);
//! 2. the ordering service (crate `fabric-orderer`) batches proposals into
//!    blocks;
//! 3. every peer validates the delivered block ([`validate::validate_block`])
//!    and commits it ([`ledger::Ledger::commit`]), applying only the writes
//!    of valid transactions — conflicting transactions stay in the chain,
//!    flagged invalid, exactly the waste the paper's faster gossip reduces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ledger;
pub mod state;
pub mod validate;

pub use ledger::{CommitError, Ledger, LedgerStats};
pub use state::StateDb;
pub use validate::{validate_block, BlockValidation, TxValidation};
