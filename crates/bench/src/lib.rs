//! Shared plumbing for the benchmark targets and the `repro` CLI.
//!
//! Every figure and table of the paper maps to one function here; the
//! Criterion benches time the underlying runs and print the regenerated
//! series, while `repro` produces the full-scale outputs recorded in
//! `EXPERIMENTS.md`.

use fabric_experiments::churn::ChurnConfig;
use fabric_experiments::churn_waves::ChurnWavesConfig;
use fabric_experiments::dissemination::{
    run_dissemination, DisseminationConfig, DisseminationResult,
};
use fabric_experiments::long_chain::LongChainConfig;
use fabric_experiments::multichannel::MultiChannelConfig;

pub mod sched_bench;
pub mod zero_copy;

/// Scale of a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full paper scale: 100 peers, 1 000 blocks, five Table II runs.
    Full,
    /// Laptop-friendly: 100 peers, 120 blocks, two Table II runs.
    Quick,
    /// Smoke-test scale for CI and Criterion timing loops.
    Smoke,
}

impl Scale {
    /// Transactions for a dissemination run at this scale.
    pub fn dissemination_txs(self) -> usize {
        match self {
            Scale::Full => 50_000,
            Scale::Quick => 6_000,
            Scale::Smoke => 1_000,
        }
    }

    /// (keys, rounds, repetitions) for Table II at this scale.
    pub fn table2_shape(self) -> (usize, usize, usize) {
        match self {
            Scale::Full => (100, 100, 5),
            Scale::Quick => (100, 30, 2),
            Scale::Smoke => (40, 10, 1),
        }
    }

    /// Parses a CLI argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "quick" => Some(Scale::Quick),
            "smoke" => Some(Scale::Smoke),
            _ => None,
        }
    }
}

/// The multi-channel benchmark preset at this scale: overlapping
/// membership windows with skewed per-channel block rates (see
/// [`MultiChannelConfig::skewed`]).
pub fn multichannel_preset(scale: Scale) -> MultiChannelConfig {
    match scale {
        Scale::Full => MultiChannelConfig::skewed(8, 200, 1_000),
        Scale::Quick => MultiChannelConfig::skewed(4, 100, 240),
        Scale::Smoke => MultiChannelConfig::skewed(2, 30, 40),
    }
}

/// The churn benchmark preset at this scale: two full-pipeline channels
/// with a late joiner catching up mid-run and the side channel's leader
/// leaving (see [`ChurnConfig::standard`]).
pub fn churn_preset(scale: Scale) -> ChurnConfig {
    match scale {
        Scale::Full => ChurnConfig::standard(100, 40, 400),
        Scale::Quick => ChurnConfig::standard(40, 16, 100),
        Scale::Smoke => ChurnConfig::standard(16, 8, 20),
    }
}

/// The churn-waves benchmark preset at this scale: C churned side
/// channels under the gossiped discovery protocol — waves of
/// joiners/leavers plus a flash crowd, no membership oracle (see
/// [`ChurnWavesConfig::standard`]).
pub fn churn_waves_preset(scale: Scale) -> ChurnWavesConfig {
    match scale {
        Scale::Full => ChurnWavesConfig::standard(3, 16, 300),
        Scale::Quick => ChurnWavesConfig::standard(2, 10, 100),
        Scale::Smoke => ChurnWavesConfig::standard(2, 6, 20),
    }
}

/// The churn-waves preset under the byte-lean discovery wire format —
/// delta anti-entropy plus adaptive heartbeat cadence (see
/// [`ChurnWavesConfig::standard_delta`]). Same shape and seed as
/// [`churn_waves_preset`], so the two rows' discovery byte shares compare
/// one-to-one in `BENCH_dissemination.json`.
pub fn churn_waves_delta_preset(scale: Scale) -> ChurnWavesConfig {
    match scale {
        Scale::Full => ChurnWavesConfig::standard_delta(3, 16, 300),
        Scale::Quick => ChurnWavesConfig::standard_delta(2, 10, 100),
        Scale::Smoke => ChurnWavesConfig::standard_delta(2, 6, 20),
    }
}

/// The long-chain benchmark preset at this scale: joiner catch-up cost
/// swept over chain height, genesis replay vs checkpoint-snapshot
/// bootstrap (see [`LongChainConfig::standard`]). The recorded
/// `catchup_bytes` / `time_to_serving` columns are the snapshot path at
/// the tallest sweep point — the number the O(tail) claim bounds.
pub fn long_chain_preset(scale: Scale) -> LongChainConfig {
    match scale {
        Scale::Full => LongChainConfig::standard(),
        Scale::Quick => LongChainConfig::quick(),
        Scale::Smoke => LongChainConfig {
            heights: vec![16, 24],
            peers: 10,
            side_members: 5,
            ..LongChainConfig::standard()
        },
    }
}

/// Steady-state ops for the `scheduler` microbench at this scale.
pub fn scheduler_bench_ops(scale: Scale) -> u64 {
    match scale {
        Scale::Full => 4_000_000,
        Scale::Quick => 1_500_000,
        Scale::Smoke => 200_000,
    }
}

/// The `large` multi-channel preset at this scale: disjoint clusters of
/// overlapping channel pairs simulated as one run, partitioned across
/// worker shards (see [`MultiChannelConfig::clustered`]). Full scale is the
/// production-class deployment (2 016 peers, 252 channels) a single event
/// loop cannot cover in a bench-job budget.
pub fn large_preset(scale: Scale) -> MultiChannelConfig {
    match scale {
        Scale::Full => MultiChannelConfig::large(),
        Scale::Quick => MultiChannelConfig::large_quick(),
        Scale::Smoke => MultiChannelConfig::large_smoke(),
    }
}

/// Applies `scale` to a full-size dissemination preset and runs it.
pub fn run_scaled(preset: DisseminationConfig, scale: Scale) -> DisseminationResult {
    let cfg = match scale {
        Scale::Full => preset,
        _ => preset.scaled(scale.dissemination_txs()),
    };
    run_dissemination(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn scales_shrink_work() {
        assert!(Scale::Smoke.dissemination_txs() < Scale::Quick.dissemination_txs());
        assert!(Scale::Quick.dissemination_txs() < Scale::Full.dissemination_txs());
        let (k, r, reps) = Scale::Smoke.table2_shape();
        assert!(k * r > 0 && reps > 0);
    }
}
