//! From finished simulations to the reported numbers.
//!
//! Host times are at the reference clock ([`crate::clock`]). `run_wall_s`
//! is the fastest of an invocation's repetitions and `setup_s` the median
//! of its set-ups, with the quartiles and the values behind them kept.
//! Simulated metrics pool the repetitions' samples (latencies, blocks,
//! transactions) or take the median of a per-run quantity (traffic,
//! fairness); either way they are a pure function of `--seed` and
//! `--seconds`.

use fabric_experiments::churn_waves::DISCOVERY_KINDS;

use crate::direct::Direct;
use crate::metrics::{per_layer, END_TO_END, GOSSIP_KINDS, HOST_KINDS};
use crate::stats::{median, percentile, quartiles, small_median};
use crate::workloads::RunOutput;

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// The per-repetition values behind a host-time metric.
    pub reps: Vec<f64>,
    /// Samples behind a pooled percentile or share (0 when not pooled).
    pub samples: u64,
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn pooled_sorted(runs: &[RunOutput], pick: impl Fn(&RunOutput) -> &[u64]) -> Vec<u64> {
    let mut all: Vec<u64> = runs.iter().flat_map(|r| pick(r).iter().copied()).collect();
    all.sort_unstable();
    all
}

/// The end-to-end metrics of an invocation's timed repetitions.
///
/// # Errors
///
/// Names the percentile that has too few samples beyond it to report.
pub fn end_to_end(
    runs: &[RunOutput],
    extra_setups: &[f64],
    peak_rss_mb: f64,
) -> Result<Vec<Value>, String> {
    let latency = pooled_sorted(runs, |r| &r.latency_ns);
    let coverage = pooled_sorted(runs, |r| &r.coverage_ns);
    let pct = |sorted: &[u64], q: f64, name: &str| {
        percentile(sorted, q).map(ns_to_ms).ok_or_else(|| {
            format!(
                "{name}: {} samples leave fewer than ten beyond the percentile",
                sorted.len()
            )
        })
    };
    let per_run = |f: &dyn Fn(&RunOutput) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let issued: u64 = runs.iter().map(|r| r.issued).sum();
    let valid: u64 = runs.iter().map(|r| r.valid).sum();

    let mut setups = per_run(&|r| r.setup_s);
    setups.extend_from_slice(extra_setups);

    // What a neighbour on a shared box does to a run — beyond the clock
    // speed, which is taken out — only ever slows it, so the fastest
    // repetition is the steadiest estimate of what one simulation costs:
    // over twelve invocations per workload its run-to-run deviation was
    // 2.1–2.8 %, the median's 2.5–5.4 %.
    let fastest = |reps: Vec<f64>| (reps.iter().copied().fold(f64::MAX, f64::min), reps, 0);
    let pooled = |value: f64, samples: usize| (value, Vec::new(), samples as u64);
    let values = END_TO_END.iter().map(|m| {
        let (value, reps, samples) = match m.name {
            "setup_s" => (median(&setups), setups.clone(), 0),
            "run_wall_s" => fastest(per_run(&|r| r.run_wall_s)),
            "peak_rss_mb" => (peak_rss_mb, Vec::new(), 0),
            "latency_p50_ms" => pooled(pct(&latency, 0.5, m.name)?, latency.len()),
            "latency_p999_ms" => pooled(pct(&latency, 0.999, m.name)?, latency.len()),
            "coverage_p50_ms" => pooled(pct(&coverage, 0.5, m.name)?, coverage.len()),
            "peer_traffic_mb" => pooled(median(&per_run(&|r| r.peer_traffic_mb())), 0),
            "traffic_fairness" => pooled(median(&per_run(&|r| r.traffic_fairness())), 0),
            "valid_tx_share" => pooled(valid as f64 / issued as f64, issued as usize),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        Ok(Value {
            name: m.name.to_owned(),
            unit: m.unit,
            value,
            reps,
            samples,
        })
    });
    values.collect()
}

/// The per-layer metrics of an invocation: spans and counts of its traced
/// runs, the untraced runs of the same seeds beside them, and the direct
/// measurements. `untraced[i]` and `traced[i]` share a seed; the counts
/// reported are those of index 0, the invocation's first repetition.
pub fn layers(untraced: &[RunOutput], traced: &[RunOutput], direct: &[Direct]) -> Vec<Value> {
    let first = &traced[0];
    let traces: Vec<_> = traced
        .iter()
        .map(|r| r.trace.as_ref().expect("traced run carries its trace"))
        .collect();
    let root_ns: u64 = traces.iter().map(|t| t.root_ns).sum();
    let handler_ns: u64 = traces.iter().map(|t| t.handler_ns()).sum();
    let outer_ns: u64 = traces.iter().map(|t| t.engine_outer_ns()).sum();
    let events: u64 = traced.iter().map(|r| r.engine.events).sum();

    // Kinds not named in either table are the gossip layer's `other`.
    let named: Vec<&str> = GOSSIP_KINDS
        .iter()
        .chain(HOST_KINDS.iter())
        .copied()
        .filter(|k| *k != "other" && *k != "discovery")
        .chain(DISCOVERY_KINDS)
        .collect();
    // (calls in the reported seed's run, ns per call over every traced run)
    let kind_time = |kind: &str| -> (f64, f64) {
        let names: Vec<&str> = match kind {
            "discovery" => DISCOVERY_KINDS.to_vec(),
            "other" => traces
                .iter()
                .flat_map(|t| t.kinds.iter().map(|k| k.name))
                .filter(|n| !named.contains(n))
                .collect(),
            _ => vec![kind],
        };
        let (calls, ns) = traces
            .iter()
            .map(|t| t.time_of(&names))
            .fold((0, 0), |(c, n), (dc, dn)| (c + dc, n + dn));
        let per_call = if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        };
        (traces[0].time_of(&names).0 as f64, per_call)
    };

    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
    let p50_ms = |sorted: &[u64]| small_median(sorted).map_or(0.0, ns_to_ms);
    let mut convergence = first.churn.convergence_ns.clone();
    convergence.sort_unstable();
    let mut catchup = first.churn.catchup_ns.clone();
    catchup.sort_unstable();
    let peer_bytes = first.peer_bytes();
    let regular: Vec<f64> = peer_bytes[1..].iter().map(|b| *b as f64).collect();

    per_layer()
        .into_iter()
        .map(|m| {
            let name = m.name.as_str();
            // `<layer>.<kind>.calls` / `.ns_per_call` come from the spans.
            let handler = name
                .strip_prefix("fabric-gossip.")
                .or_else(|| name.strip_prefix("fabric-experiments.net."))
                .and_then(|rest| rest.rsplit_once('.'));
            let value = if let Some((kind, "calls")) = handler {
                kind_time(kind).0
            } else if let Some((kind, "ns_per_call")) = handler {
                kind_time(kind).1
            } else if let Some((_, v)) = direct.iter().find(|(n, _)| *n == name) {
                *v
            } else {
                match name {
                    "desim.events" => first.engine.events as f64,
                    "desim.msgs_sent" => first.engine.msgs_sent() as f64,
                    "desim.wire_mb" => first.engine.wire_bytes as f64 / 1e6,
                    "desim.events_per_s" => ratio(
                        untraced.iter().map(|r| r.engine.events).sum::<u64>() as f64,
                        untraced.iter().map(|r| r.loop_ns).sum::<u64>() as f64 / 1e9,
                    ),
                    "desim.engine_outer_ns_per_event" => ratio(outer_ns as f64, events as f64),
                    "desim.engine_outer_share" => ratio(outer_ns as f64, root_ns as f64),
                    "fabric-experiments.net.handler_share" => {
                        ratio(handler_ns as f64, root_ns as f64)
                    }
                    "fabric-gossip.block_dup_ratio" => ratio(
                        (first.first_receptions + first.duplicate_payloads) as f64,
                        first.first_receptions as f64,
                    ),
                    "fabric-gossip.msgs_per_delivery" => ratio(
                        first.engine.msgs_sent() as f64,
                        first.first_receptions as f64,
                    ),
                    "fabric-gossip.bytes_per_delivery" => ratio(
                        peer_bytes.iter().sum::<u64>() as f64,
                        first.first_receptions as f64,
                    ),
                    "fabric-gossip.leader_to_regular_bytes" => {
                        ratio(peer_bytes[0] as f64, median(&regular))
                    }
                    "fabric-gossip.discovery.byte_share" => ratio(
                        first.discovery_bytes() as f64,
                        peer_bytes.iter().sum::<u64>() as f64,
                    ),
                    "fabric-gossip.discovery.view_convergence_p50_ms" => p50_ms(&convergence),
                    "fabric-gossip.leadership.handoffs" => {
                        first.churn.handoffs.iter().sum::<u64>() as f64
                    }
                    "fabric-gossip.leadership.gaps" => first.churn.leader_gaps_ns.len() as f64,
                    "fabric-gossip.leadership.gap_max_ms" => ns_to_ms(
                        first
                            .churn
                            .leader_gaps_ns
                            .iter()
                            .copied()
                            .max()
                            .unwrap_or(0),
                    ),
                    "fabric-gossip.recovery.catchup_p50_ms" => p50_ms(&catchup),
                    "fabric-ledger.invalidated_tx_share" => {
                        ratio(first.mvcc_conflicts as f64, first.issued as f64)
                    }
                    "fabric-orderer.txs_per_block" => {
                        ratio(first.issued as f64, first.blocks as f64)
                    }
                    "gossip-metrics.report_ms" => {
                        let costs: Vec<f64> = traced
                            .iter()
                            .filter_map(|r| r.report_ns)
                            .map(ns_to_ms)
                            .collect();
                        median(&costs)
                    }
                    // Interference on a shared box only ever slows a run,
                    // so the fastest loop of each kind is the best estimate
                    // of its undisturbed cost.
                    "trace_overhead_pct" => {
                        let fastest = |runs: &[RunOutput]| {
                            runs.iter().map(|r| r.loop_ns).min().unwrap_or(0) as f64
                        };
                        (ratio(fastest(traced), fastest(untraced)) - 1.0) * 100.0
                    }
                    other => unreachable!("layer metric {other} has no measurement"),
                }
            };
            Value {
                name: m.name,
                unit: m.unit,
                value,
                reps: Vec::new(),
                samples: 0,
            }
        })
        .collect()
}

/// `[q1, median, q3]` of a value's repetitions, when it has any.
pub fn rep_quartiles(value: &Value) -> Option<[f64; 3]> {
    (!value.reps.is_empty()).then(|| quartiles(&value.reps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{run_once, Scale, Workload};

    fn smoke(w: Workload, seeds: &[u64], traced: bool) -> Vec<RunOutput> {
        seeds
            .iter()
            .map(|s| run_once(&w.config(Scale::Smoke, *s), traced))
            .collect()
    }

    #[test]
    fn end_to_end_reports_every_metric_nonzero_and_pools_the_reps() {
        let two = smoke(Workload::Conflicts1s, &[1, 1001], false);
        // Smoke scale has too few samples for p99.9 ...
        let err = end_to_end(&two[..1], &[], 10.0).unwrap_err();
        assert!(err.contains("latency_p999_ms"), "{err}");
        // ... until enough repetitions are pooled (the same two runs over
        // and over: this is about the arithmetic, not the simulation).
        let runs: Vec<RunOutput> = two.iter().cycle().take(12).cloned().collect();
        let pooled: usize = runs.iter().map(|r| r.latency_ns.len()).sum();
        assert!(pooled >= 10_000, "{pooled} samples");
        let values = end_to_end(&runs, &[0.5; 5], 10.0).unwrap();
        assert_eq!(values.len(), END_TO_END.len());
        for v in &values {
            assert!(v.value > 0.0, "{} = {}", v.name, v.value);
        }
        let get = |n: &str| values.iter().find(|v| v.name == n).unwrap();
        assert_eq!(get("latency_p50_ms").samples, pooled as u64);
        let wall = get("run_wall_s");
        assert_eq!(wall.reps.len(), 12);
        assert!(wall.reps.iter().all(|r| wall.value <= *r), "the fastest");
        assert_eq!(get("setup_s").reps.len(), 17);
        assert!(
            get("setup_s").value < 0.5,
            "median over runs and extra set-ups"
        );
        let issued: u64 = runs.iter().map(|r| r.issued).sum();
        let valid: u64 = runs.iter().map(|r| r.valid).sum();
        assert_eq!(get("valid_tx_share").value, valid as f64 / issued as f64);
        assert!(
            get("valid_tx_share").value < 1.0,
            "smoke conflicts do collide"
        );
        assert!(get("latency_p50_ms").value <= get("latency_p999_ms").value);
    }

    #[test]
    fn layers_report_every_metric_and_the_spans_split_the_loop() {
        let w = Workload::ChurnWaves;
        let untraced = smoke(w, &[2], false);
        let traced = smoke(w, &[2], true);
        let direct = crate::direct::measure(2);
        let values = layers(&untraced, &traced, &direct);
        assert_eq!(values.len(), per_layer().len());
        let get = |n: &str| values.iter().find(|v| v.name == n).unwrap().value;

        let calls: f64 = values
            .iter()
            .filter(|v| v.name.ends_with(".calls"))
            .map(|v| v.value)
            .sum();
        assert_eq!(
            calls,
            get("desim.events"),
            "every event is some kind's call"
        );
        let shares = get("desim.engine_outer_share") + get("fabric-experiments.net.handler_share");
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "handlers + engine-outer = the loop"
        );
        assert!(get("fabric-gossip.discovery.calls") > 0.0);
        assert!(get("fabric-experiments.net.timer.churn.calls") > 0.0);
        assert_eq!(get("fabric-gossip.leadership.handoffs"), 4.0);
        assert!(get("fabric-gossip.leadership.gap_max_ms") > 0.0);
        assert!(get("fabric-gossip.block_dup_ratio") >= 1.0);
        assert!(get("fabric-gossip.recovery.catchup_p50_ms") > 0.0);
        assert_eq!(get("fabric-ledger.invalidated_tx_share"), 0.0);
        assert_eq!(get("fabric-orderer.txs_per_block"), 50.0);
    }
}
