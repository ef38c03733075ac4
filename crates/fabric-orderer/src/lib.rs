//! # fabric-orderer — ordering service substrate
//!
//! Fabric separates ordering from validation: orderers batch endorsed
//! proposals into hash-chained blocks using consensus, then deliver each new
//! block to one *leader peer* per organization, which starts the gossip
//! broadcast this project studies.
//!
//! This crate provides the block cutter with Fabric v1.x semantics
//! ([`cutter::BlockCutter`]) and a sans-io ordering-service state machine
//! ([`service::OrderingService`]) whose consensus pipeline is modeled by a
//! sampled latency distribution — the substitution for the paper's
//! Kafka/ZooKeeper deployment (README, "The channel-routed transaction
//! pipeline", places it in the run).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cutter;
pub mod service;

pub use cutter::{BatchConfig, BlockCutter};
pub use service::{OrdererConfig, OrderingService, SubmitOutcome};
