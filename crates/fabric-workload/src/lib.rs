//! # fabric-workload — the paper's workloads
//!
//! Schedules ([`schedule`]) and client logic ([`client`]) for the two
//! experiments of the evaluation:
//!
//! * the **dissemination workload** (§V-A, Figs. 4–14): 50 000 padded
//!   transactions producing 1 000 blocks of ≈160 KB, one every ≈1.5 s;
//! * the **conflict workload** (§V-D, Table II): 10 000 increments of 100
//!   shared counters at 5 tx/s, a fresh random permutation per round, a
//!   single endorsing peer — every validation-time conflict is a lost
//!   increment, so the final counter sum counts the damage.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod schedule;

pub use client::endorse_invocation;
pub use schedule::{
    increment_schedule, payload_schedule, ChaincodeKind, IncrementWorkload, InvocationArg,
    PayloadWorkload, ScheduledInvocation,
};
