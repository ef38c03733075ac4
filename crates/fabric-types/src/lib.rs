//! # fabric-types — Hyperledger Fabric data model
//!
//! The pure data layer of the reproduction: identifiers, cryptographic
//! digests and simulated signatures, the membership service provider,
//! versioned read/write sets, transactions with endorsements, and
//! hash-chained blocks. No I/O, no simulation — everything here is
//! deterministic value manipulation, shared by the ledger, orderer, gossip
//! and workload crates.
//!
//! ```
//! use fabric_types::block::Block;
//! use fabric_types::ids::{ClientId, PeerId, TxId};
//! use fabric_types::msp::Msp;
//! use fabric_types::rwset::RwSet;
//! use fabric_types::transaction::{EndorsementPolicy, Transaction};
//!
//! let msp = Msp::single_org(4);
//! let mut tx = Transaction::new(
//!     TxId(1),
//!     "increment",
//!     ClientId(0),
//!     RwSet::builder().read("counter1", None).write_u64("counter1", 1).build(),
//! );
//! tx.endorse(&msp, PeerId(2));
//! assert!(EndorsementPolicy::AnyMember.is_satisfied(&msp, &tx.digest(), &tx.endorsements));
//!
//! let genesis = Block::genesis();
//! let block = Block::new(1, genesis.hash(), vec![tx]);
//! assert!(block.follows(&genesis));
//! ```

// One `unsafe` block, in `crypto`: the SHA-NI call behind its runtime check.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod block;
pub mod crypto;
pub mod ids;
pub mod list;
pub mod msp;
pub mod rwset;
pub mod snapshot;
pub mod transaction;

pub use block::{Block, BlockHeader, BlockRef};
pub use crypto::{sha256, Hash256, Signature};
pub use ids::{ClientId, OrgId, PeerId, TxId};
pub use msp::{Identity, Msp};
pub use rwset::{Key, RwSet, Value, Version};
pub use snapshot::{Checkpoint, Snapshot, SnapshotRef};
pub use transaction::{Endorsement, EndorsementPolicy, Transaction};
