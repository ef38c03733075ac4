//! # fair-gossip — Fair and Efficient Gossip in Hyperledger Fabric
//!
//! Umbrella crate for the reproduction of Berendea, Mercier, Onica and
//! Rivière, *"Fair and Efficient Gossip in Hyperledger Fabric"* (IEEE ICDCS
//! 2020). It re-exports the workspace crates under stable module names:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel;
//! * [`types`] — Fabric data model (blocks, transactions, identities);
//! * [`ledger`] — versioned state DB, validation, chaincodes;
//! * [`orderer`] — block cutter and ordering-service model;
//! * [`gossip`] — the paper's contribution: original and enhanced gossip;
//! * [`analysis`] — the paper's appendix, executable (p_e, TTL tables);
//! * [`metrics`] — latency/bandwidth/conflict measurement;
//! * [`workload`] — clients and the paper's two workloads;
//! * [`experiments`] — per-figure/per-table experiment presets and runners.
//!
//! See `README.md` ("Quickstart") for building and running; `repro`
//! (`crates/bench`) prints every table and figure next to the paper's
//! numbers.

#![forbid(unsafe_code)]

pub use desim as sim;
pub use fabric_experiments as experiments;
pub use fabric_gossip as gossip;
pub use fabric_ledger as ledger;
pub use fabric_orderer as orderer;
pub use fabric_types as types;
pub use fabric_workload as workload;
pub use gossip_analysis as analysis;
pub use gossip_metrics as metrics;
