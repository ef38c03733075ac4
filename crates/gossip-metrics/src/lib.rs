//! # gossip-metrics — measurement toolkit for the reproduction
//!
//! Everything needed to turn raw simulation events into the paper's tables
//! and figures:
//!
//! * [`latency`] — the per-(block, peer) latency matrix with peer-level and
//!   block-level CDF views and fastest/median/slowest selection;
//! * [`cdf`] — empirical CDFs, quantiles, and the logit-scaled probability
//!   plots (with the figures' exact y ticks);
//! * [`bandwidth`] — MB/s-per-10 s utilization series with background
//!   traffic and leader-vs-regular comparison;
//! * [`fairness`] — Jain's index and dispersion summaries;
//! * [`table`] — plain-text table rendering for bench output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bandwidth;
pub mod cdf;
pub mod fairness;
pub mod latency;
pub mod table;

pub use bandwidth::{BandwidthComparison, BandwidthSeries};
pub use cdf::{logistic_fit_r2, logit, Cdf, ProbabilityPlot, BLOCK_LEVEL_TICKS, PEER_LEVEL_TICKS};
pub use fairness::{jain_index, ChannelFairness, FairnessReport, Summary};
pub use latency::{Extremes, LatencyRecorder};
pub use table::render_table;
