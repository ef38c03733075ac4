//! The conflict experiment (§V-D, Table II): counting invalidated
//! transactions under different block periods, original vs enhanced gossip.
//!
//! Workload: 100 integer counters, each incremented 100 times, order
//! freshly permuted per round, 5 tx/s, one endorsing peer, validation
//! ≈50 ms per transaction. Two increments endorsed over the same counter
//! version collide: the later one fails MVCC validation at commit. No
//! resubmission, so `issued − Σ counters = conflicts`.
//!
//! **Calibration note:** the absolute conflict counts depend on the
//! end-to-end delay between endorsement and commit-at-the-endorser. The
//! paper's testbed pays client↔peer RTTs, proposal forwarding and a loaded
//! Kafka ordering path that this model collapses into one sampled
//! `pipeline` latency; its default is calibrated once so the
//! *original-gossip* row lands in the paper's range, and then every
//! relative effect (protocol comparison, period sweep) is emergent.

use desim::{Duration, LatencyModel, NetworkConfig};
use fabric_gossip::config::GossipConfig;
use fabric_orderer::cutter::BatchConfig;
use fabric_orderer::service::OrdererConfig;
use fabric_types::ids::PeerId;
use fabric_workload::schedule::{increment_schedule, IncrementWorkload};

use crate::deployment::Deployment;
use crate::net::NetParams;

/// Parameters of one conflict run.
#[derive(Debug, Clone)]
pub struct ConflictConfig {
    /// Organization size (paper: 100).
    pub peers: usize,
    /// The gossip protocol under test.
    pub gossip: GossipConfig,
    /// Block generation period (Table II sweeps 2 s down to 0.75 s).
    pub period: Duration,
    /// The increment workload (paper: 100 × 100 at 5 tx/s).
    pub workload: IncrementWorkload,
    /// Physical network model.
    pub network: NetworkConfig,
    /// The collapsed client→orderer→consensus pipeline latency.
    pub pipeline: LatencyModel,
    /// Validation CPU cost per transaction (paper: ≈50 ms).
    pub validation_per_tx: Duration,
    /// Number of endorsing peers. The paper's Table II uses one (isolating
    /// validation-time conflicts); with more, the client compares read sets
    /// and the run also counts *proposal-time* conflicts (§II-C).
    pub endorsers: usize,
    /// Simulation seed (also seeds the workload permutations).
    pub seed: u64,
}

impl ConflictConfig {
    /// The paper's setup for one cell of Table II.
    pub fn paper(gossip: GossipConfig, period: Duration) -> Self {
        ConflictConfig {
            peers: 100,
            gossip,
            period,
            workload: IncrementWorkload::default(),
            network: NetworkConfig::lan(102),
            pipeline: Self::paper_pipeline(),
            validation_per_tx: Duration::from_millis(50),
            endorsers: 1,
            seed: 1,
        }
    }

    /// The calibrated end-to-end ordering pipeline (see module docs).
    pub fn paper_pipeline() -> LatencyModel {
        LatencyModel::Lan {
            base: Duration::from_millis(2_200),
            jitter: Duration::from_millis(300),
            spike_prob: 0.0,
            spike_mult: 1,
        }
    }

    /// A scaled-down copy (fewer keys/rounds) for tests and examples.
    pub fn scaled(mut self, keys: usize, rounds: usize) -> Self {
        self.workload = IncrementWorkload {
            keys,
            rounds,
            ..self.workload
        };
        self
    }

    /// The deployment [`run_conflicts`] runs: the increment schedule
    /// against `endorsers` endorsing peers behind the collapsed ordering
    /// pipeline, drained 60 s past the last transaction (pipeline +
    /// dissemination + validation, with margin).
    pub fn deployment(&self) -> Deployment {
        let orderer = OrdererConfig {
            batch: BatchConfig::paper_conflicts(self.period),
            consensus_delay: self.pipeline,
        };
        let mut params = NetParams::new(self.peers, self.gossip.clone(), orderer);
        params.validation_per_tx = self.validation_per_tx;
        params.endorsers = (1..=self.endorsers as u32).map(PeerId).collect();
        if self.endorsers > 1 {
            // Proposal-time experiments demand every endorser's signature,
            // as a real multi-endorser policy would.
            params.policy = fabric_types::transaction::EndorsementPolicy::OutOf {
                required: self.endorsers,
                candidates: params.endorsers.clone(),
            };
        }
        params.full_ledgers = false;
        Deployment::new(
            params,
            increment_schedule(&self.workload, self.seed),
            &self.network,
            self.seed,
            Duration::from_secs(60),
        )
    }
}

/// The outcome of one conflict run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictResult {
    /// Transactions issued by the client.
    pub issued: u64,
    /// MVCC (validation-time) conflicts at the endorser's ledger.
    pub conflicts: u64,
    /// Valid transactions committed.
    pub valid: u64,
    /// Final Σ over all counters — must equal `valid`.
    pub counter_sum: u64,
    /// Proposals discarded at the client for mismatched read sets
    /// (proposal-time conflicts; zero with a single endorser).
    pub proposal_conflicts: u64,
    /// Blocks cut by the ordering service.
    pub blocks: u64,
}

impl ConflictResult {
    /// Average transactions per block (Table II's second column).
    pub fn tx_per_block(&self) -> f64 {
        if self.blocks == 0 {
            return 0.0;
        }
        self.issued as f64 / self.blocks as f64
    }
}

/// Runs one conflict experiment to completion and audits the counts.
///
/// # Panics
///
/// Panics if the bookkeeping disagrees (issued ≠ valid + conflicts, or the
/// counter sum drifts from the valid count) — that would be a harness bug,
/// not a measurement.
pub fn run_conflicts(cfg: &ConflictConfig) -> ConflictResult {
    let net = cfg.deployment().run().into_protocol();
    let endorser = net.params().endorsers[0].index();
    let ledger = net
        .ledger(endorser)
        .expect("the endorser maintains a ledger");
    let stats = ledger.stats();
    let counter_sum = ledger.state().counter_sum().unwrap_or(0);
    let result = ConflictResult {
        issued: net.issued(),
        conflicts: stats.mvcc_conflicts,
        valid: stats.valid_txs,
        counter_sum,
        proposal_conflicts: net.proposal_conflicts(),
        blocks: net.blocks_cut(),
    };
    assert_eq!(
        result.issued,
        result.valid + result.conflicts + result.proposal_conflicts + stats.endorsement_failures,
        "transaction accounting must balance"
    );
    assert_eq!(
        result.counter_sum, result.valid,
        "every valid increment adds one"
    );
    assert_eq!(net.commit_errors(), 0, "no chain violations expected");
    result
}

/// One row of Table II, averaged over several seeds.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// Block generation period.
    pub period: Duration,
    /// Mean transactions per block.
    pub tx_per_block: f64,
    /// Mean conflicts with the original gossip.
    pub original: f64,
    /// Mean conflicts with the enhanced gossip.
    pub enhanced: f64,
}

impl Table2Row {
    /// Relative conflict reduction, as the paper's "Difference" column.
    pub fn difference_pct(&self) -> f64 {
        if self.original == 0.0 {
            return 0.0;
        }
        (self.enhanced - self.original) / self.original * 100.0
    }

    /// Validation time per block (50 ms × tx/block), Table II's third
    /// column.
    pub fn validation_time(&self) -> Duration {
        Duration::from_secs_f64(self.tx_per_block * 0.05)
    }
}

/// Regenerates Table II: for each period, `runs` seeds of both protocols,
/// averaged. `template` carries everything but period/gossip/seed (use
/// [`ConflictConfig::paper`] semantics via `ConflictConfig::scaled` for
/// quicker sweeps).
///
/// The `periods × runs × {original, enhanced}` grid is a set of fully
/// independent simulations, so the cells fan out across cores through
/// [`desim::run_batch`]; seeds per cell are identical to the serial
/// formulation, so the rows are too.
pub fn run_table2(template: &ConflictConfig, periods: &[Duration], runs: usize) -> Vec<Table2Row> {
    assert!(runs > 0, "at least one run per cell");
    let cells = table2_cells(template, periods, runs);
    let results = desim::run_batch(cells, |cell| run_conflicts(&cell));
    table2_rows(periods, runs, &results)
}

/// The conflict cells behind one Table II regeneration, in deterministic
/// order: for each period, for each run, the original-gossip cell then the
/// enhanced-gossip cell, both at the same seed.
fn table2_cells(
    template: &ConflictConfig,
    periods: &[Duration],
    runs: usize,
) -> Vec<ConflictConfig> {
    let mut cells = Vec::with_capacity(periods.len() * runs * 2);
    for &period in periods {
        for r in 0..runs {
            let seed = template.seed + 1000 * r as u64;
            for gossip in [GossipConfig::original_fabric(), GossipConfig::enhanced_f4()] {
                let mut cell = template.clone();
                cell.period = period;
                cell.gossip = gossip;
                cell.seed = seed;
                cells.push(cell);
            }
        }
    }
    cells
}

/// Folds the cell results of [`table2_cells`] back into per-period rows.
fn table2_rows(periods: &[Duration], runs: usize, results: &[ConflictResult]) -> Vec<Table2Row> {
    debug_assert_eq!(results.len(), periods.len() * runs * 2);
    results
        .chunks(runs * 2)
        .zip(periods)
        .map(|(chunk, &period)| {
            let mut original = 0.0;
            let mut enhanced = 0.0;
            let mut tx_per_block = 0.0;
            for pair in chunk.chunks(2) {
                original += pair[0].conflicts as f64;
                tx_per_block += pair[0].tx_per_block();
                enhanced += pair[1].conflicts as f64;
            }
            Table2Row {
                period,
                tx_per_block: tx_per_block / runs as f64,
                original: original / runs as f64,
                enhanced: enhanced / runs as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(gossip: GossipConfig, period_ms: u64, seed: u64) -> ConflictResult {
        let mut cfg =
            ConflictConfig::paper(gossip, Duration::from_millis(period_ms)).scaled(20, 10); // 200 transactions, 40 s of traffic
        cfg.peers = 30;
        cfg.network = NetworkConfig::lan(32);
        cfg.seed = seed;
        run_conflicts(&cfg)
    }

    #[test]
    fn accounting_balances_and_blocks_form() {
        let res = quick(GossipConfig::enhanced_f4(), 1000, 3);
        assert_eq!(res.issued, 200);
        assert_eq!(res.valid + res.conflicts, 200);
        assert!(res.blocks > 20, "40 s of traffic at 1 s periods");
        assert!(res.tx_per_block() > 3.0 && res.tx_per_block() < 7.0);
    }

    #[test]
    fn conflicts_happen_under_the_calibrated_pipeline() {
        // With a multi-second endorse→commit window and adjacent-round
        // permutation gaps, some increments must collide even at this
        // scale (20 keys ⇒ mean gap 4 s ≈ the window).
        let res = quick(GossipConfig::original_fabric(), 1000, 5);
        assert!(
            res.conflicts > 10,
            "expected collisions, got {}",
            res.conflicts
        );
        assert!(res.conflicts < res.issued / 2, "but not a meltdown");
    }

    #[test]
    fn enhanced_does_not_conflict_more_than_original() {
        // Averaged over a few seeds to damp noise at this tiny scale.
        let mut orig = 0u64;
        let mut enh = 0u64;
        for seed in 0..3 {
            orig += quick(GossipConfig::original_fabric(), 1000, seed).conflicts;
            enh += quick(GossipConfig::enhanced_f4(), 1000, seed).conflicts;
        }
        assert!(enh <= orig, "enhanced {enh} vs original {orig}");
    }

    #[test]
    fn table2_rows_have_consistent_columns() {
        let mut template =
            ConflictConfig::paper(GossipConfig::enhanced_f4(), Duration::from_secs(1))
                .scaled(15, 8);
        template.peers = 25;
        template.network = NetworkConfig::lan(27);
        let rows = run_table2(
            &template,
            &[Duration::from_secs(2), Duration::from_secs(1)],
            1,
        );
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.original >= 0.0 && row.enhanced >= 0.0);
            assert!(row.tx_per_block > 0.0);
            assert!(row.validation_time() > Duration::ZERO);
        }
        // Smaller periods mean fewer transactions per block.
        assert!(rows[1].tx_per_block < rows[0].tx_per_block);
    }

    #[test]
    fn single_endorser_never_sees_proposal_conflicts() {
        let res = quick(GossipConfig::enhanced_f4(), 1000, 3);
        assert_eq!(res.proposal_conflicts, 0);
    }

    #[test]
    fn multiple_endorsers_surface_proposal_time_conflicts() {
        // §II-C: endorsers at different ledger heights return different
        // read versions; the client detects the mismatch. A multi-second
        // pipeline guarantees windows in which one endorser has committed
        // a block the other has not.
        let mut cfg =
            ConflictConfig::paper(GossipConfig::original_fabric(), Duration::from_secs(1))
                .scaled(20, 10);
        cfg.peers = 30;
        cfg.network = NetworkConfig::lan(32);
        cfg.endorsers = 3;
        cfg.seed = 6;
        let res = run_conflicts(&cfg);
        assert!(
            res.proposal_conflicts > 0,
            "staggered endorser states must produce proposal conflicts"
        );
        // Accounting still balances (asserted inside run_conflicts), and
        // every submitted transaction carried all three signatures.
        assert_eq!(res.issued, 200);
    }

    #[test]
    fn enhanced_gossip_reduces_proposal_conflicts_too() {
        // Uniform dissemination keeps endorsers in sync — the fairness
        // story of the paper, measured on the second conflict type.
        let mut orig = 0u64;
        let mut enh = 0u64;
        for seed in 0..3 {
            for (gossip, total) in [
                (GossipConfig::original_fabric(), &mut orig),
                (GossipConfig::enhanced_f4(), &mut enh),
            ] {
                let mut cfg = ConflictConfig::paper(gossip, Duration::from_secs(1)).scaled(20, 10);
                cfg.peers = 30;
                cfg.network = NetworkConfig::lan(32);
                cfg.endorsers = 3;
                cfg.seed = 40 + seed;
                *total += run_conflicts(&cfg).proposal_conflicts;
            }
        }
        assert!(
            enh <= orig,
            "enhanced gossip must not increase proposal conflicts: {enh} vs {orig}"
        );
    }

    #[test]
    fn conflict_runs_are_deterministic() {
        let a = quick(GossipConfig::original_fabric(), 750, 9);
        let b = quick(GossipConfig::original_fabric(), 750, 9);
        assert_eq!(a, b);
    }
}
