//! # fabric-experiments — the paper's evaluation, end to end
//!
//! Wires every substrate into one deterministic simulation
//! ([`net::FabricNet`]): a client issuing the paper's workloads, an
//! ordering service cutting blocks, and an organization of gossip peers
//! validating and committing them. [`deployment::Deployment`] is the one
//! way such a network is stood up and run out; on top of it, one runner
//! per experiment family (`cfg.deployment().run()` + its own read-off):
//!
//! * [`dissemination`] — Figs. 4–14: latency and bandwidth of block
//!   dissemination, original vs enhanced, with the leader-fan-out and
//!   no-digest ablations; and [`dissemination::run_one_block`], the
//!   one-block push-only setting of the paper's closed forms (§IV and the
//!   appendix), on a [`scenario::ScenarioNet`];
//! * [`conflicts`] — Table II: invalidated transactions under different
//!   block periods;
//! * [`multichannel`] — beyond the paper: C channels × N peers with
//!   overlapping memberships and per-channel client workloads, one
//!   deployment with one client and ordering service for every channel,
//!   reporting the churn runners' per-channel row and Jain's fairness;
//! * [`churn_waves`] — beyond the paper: runtime channel membership over
//!   the full pipeline under the gossiped **discovery protocol**: waves
//!   of joiners/leavers and a flash crowd, reporting discovery
//!   convergence, stale-view windows, leader gaps and fairness including
//!   discovery overhead; its `late_joiner` preset is one joiner catching
//!   up via StateInfo + recovery (catch-up latency) and a departing
//!   leader handing off, with discovery's timers tightened out of the
//!   picture. Every churned and multi-channel run is read off by
//!   [`churn`]'s [`ChurnResult`];
//! * [`long_chain`] — beyond the paper: joiner catch-up cost vs chain
//!   height, genesis replay against checkpoint-snapshot bootstrap
//!   (O(chain) vs O(tail) bytes and time-to-serving);
//! * [`scenario`] — the interpreter of `fabric_gossip::scenario`'s op
//!   DSL ([`scenario::ScenarioNet`]): scripted joins, leaves, crashes,
//!   power cycles, partitions, loss and attached Byzantine behaviors over
//!   any [`deployment::Deployment`], in whatever `NetworkConfig` it is
//!   given — there is no other simulator under any number this crate
//!   reports;
//! * [`adversarial`] — beyond the paper: the Byzantine catalog as one
//!   table of attacker families (membership and dissemination
//!   attacks), each swept over the attacker count `f` at
//!   deployments of `N` in the LAN model, reporting per point whether the
//!   family's guarantee held and what the attack cost over the
//!   attacker-free baseline, and per family the measured `f*(N)`;
//! * [`mod@sweep`] — one churn preset over many seeds, a row per seed, the
//!   anomalous rows and a rule-of-three summary: what every claim over
//!   seeds reads;
//! * [`report`] — paper-style text rendering of every figure and table.
//!
//! ```no_run
//! use fabric_experiments::dissemination::{run_dissemination, DisseminationConfig};
//! let result = run_dissemination(&DisseminationConfig::fig07_09_enhanced_f4());
//! assert_eq!(result.completeness, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversarial;
pub mod churn;
pub mod churn_waves;
pub mod conflicts;
pub mod deployment;
pub mod dissemination;
pub mod long_chain;
pub mod multichannel;
pub mod net;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use adversarial::{
    render_adversarial, run_adversarial, AdversarialReport, Family, FamilyReport, Point,
};
pub use churn::ChurnResult;
pub use churn_waves::{run_churn_waves, ChurnWavesConfig};
pub use conflicts::{run_conflicts, run_table2, ConflictConfig, ConflictResult, Table2Row};
pub use deployment::Deployment;
pub use dissemination::{
    run_dissemination, run_one_block, DisseminationConfig, DisseminationResult, OneBlock,
    OneBlockRuns,
};
pub use long_chain::{
    render_long_chain, run_long_chain, LongChainConfig, LongChainResult, LongChainRow,
};
pub use multichannel::{run_multichannel, ChannelPlan, MultiChannelConfig};
pub use net::{
    ChannelSpec, ChurnAction, ChurnEvent, DiscoveryMode, FabricNet, NetMsg, NetParams, NetTimer,
    ViewConvergence,
};
pub use scenario::ScenarioNet;
pub use sweep::{sweep, SeedRow};
