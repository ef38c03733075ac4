//! Shared plumbing for the `repro` CLI: the three reproduction scales and
//! how a scale shrinks a preset (README, "Quickstart", has the commands).
//! Timing is `benchmark/`'s job (README, "Measuring").

#![forbid(unsafe_code)]

use fabric_experiments::dissemination::{
    run_dissemination, DisseminationConfig, DisseminationResult,
};

/// Scale of a reproduction run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full paper scale: 100 peers, 1 000 blocks, five Table II runs.
    Full,
    /// Laptop-friendly: 100 peers, 120 blocks, two Table II runs.
    Quick,
    /// Smoke-test scale for CI.
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

    /// Seeds per network model for `repro analysis`'s one-block runs.
    pub fn conformance_seeds(self) -> u64 {
        match self {
            Scale::Full => 1_000,
            Scale::Quick => 200,
            Scale::Smoke => 20,
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
        assert!(Scale::Smoke.conformance_seeds() < Scale::Quick.conformance_seeds());
        assert!(Scale::Quick.conformance_seeds() < Scale::Full.conformance_seeds());
        let (k, r, reps) = Scale::Smoke.table2_shape();
        assert!(k * r > 0 && reps > 0);
    }
}
