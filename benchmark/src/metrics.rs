//! The metric tables: every name the benchmark reports, with its unit,
//! which direction is better and, for the end-to-end metrics, the
//! regression bound. `BENCHMARK.json` is generated from these tables
//! (`manifest` subcommand) and a test holds the two together. Which
//! end-to-end metric each layer metric is expected to move, and on which
//! workload, is written down in `README.md`.

use crate::json::{obj, Json};
use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// Seconds one invocation measures; `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 27;

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The first three are host times (at the reference clock, see
/// [`crate::clock`]) and memory, and vary run to run; the rest are read
/// off the simulation and repeat exactly for a seed. The host bounds are
/// about three times the widest spread ten invocations showed (5.6 % for
/// `run_wall_s`; `setup_s`, a 3 ms quantity, up to 22 %, and the driver's
/// contract gives it the widest bound); the simulated ones are three or
/// more times the widest seed-to-seed spread (2.3 % for `latency_p999_ms`).
pub const END_TO_END: [EndToEnd; 9] = [
    // Schedule generation + FabricNet::new + Simulation::new + start, up
    // to the first event: median of an invocation's set-ups.
    end_to_end("setup_s", "s", Better::Lower, 0.25),
    // One simulation, first event to results extracted: fastest of an
    // invocation's repetitions.
    end_to_end("run_wall_s", "s", Better::Lower, 0.15),
    // VmHWM of the measuring process after its timed simulations.
    end_to_end("peak_rss_mb", "MB", Better::Lower, 0.10),
    // Orderer hand-off to first reception, over every (block, sitting
    // member) pair: median, and 99.9th percentile (reported only with at
    // least ten samples beyond it).
    end_to_end("latency_p50_ms", "ms", Better::Lower, 0.05),
    end_to_end("latency_p999_ms", "ms", Better::Lower, 0.12),
    // Median over blocks of the time until the last sitting member holds
    // the block.
    end_to_end("coverage_p50_ms", "ms", Better::Lower, 0.05),
    // Bytes sent by all peers in one simulation.
    end_to_end("peer_traffic_mb", "MB", Better::Lower, 0.02),
    // Jain index of per-peer bytes sent, leader included.
    end_to_end("traffic_fairness", "ratio", Better::Higher, 0.01),
    // Transactions committed valid at the endorser's ledger / issued.
    end_to_end("valid_tx_share", "ratio", Better::Higher, 0.003),
];

/// A metric of one layer. It has no bound: it explains an end-to-end
/// movement, it does not gate.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Handler kinds reported under `fabric-gossip.`: the gossip message
/// kinds, the five discovery kinds together, the peers' own timers, and
/// whatever else the gossip layer handles.
pub const GOSSIP_KINDS: [&str; 14] = [
    "block",
    "push-digest",
    "push-request",
    "pull-hello",
    "pull-digest",
    "pull-request",
    "block-pull",
    "state-info",
    "alive",
    "recovery-request",
    "block-recovery",
    "discovery",
    "timer.peer",
    "other",
];

/// Handler kinds reported under `fabric-experiments.net.`: the pipeline
/// messages and timers the `FabricNet` host handles itself.
pub const HOST_KINDS: [&str; 9] = [
    "propose",
    "endorsed",
    "submit",
    "orderer-deliver",
    "timer.client-issue",
    "timer.batch-timeout",
    "timer.deliver-cut",
    "timer.commit-done",
    "timer.churn",
];

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out = Vec::new();
    let mut add = |name: &str, unit: &'static str, better: Better| {
        out.push(PerLayer {
            name: name.to_owned(),
            unit,
            better,
        });
    };

    add("desim.events", "count", Lower);
    add("desim.msgs_sent", "count", Lower);
    add("desim.wire_mb", "MB", Lower);
    add("desim.events_per_s", "1/s", Higher);
    add("desim.engine_outer_ns_per_event", "ns", Lower);
    add("desim.engine_outer_share", "ratio", Lower);
    add("desim.sched.ns_per_op", "ns", Lower);
    add("desim.net.latency_sample_ns", "ns", Lower);
    add("desim.null_protocol_ns_per_event", "ns", Lower);

    for kind in GOSSIP_KINDS {
        add(&format!("fabric-gossip.{kind}.calls"), "count", Lower);
        add(&format!("fabric-gossip.{kind}.ns_per_call"), "ns", Lower);
    }
    add("fabric-gossip.block_dup_ratio", "ratio", Lower);
    add("fabric-gossip.msgs_per_delivery", "ratio", Lower);
    add("fabric-gossip.bytes_per_delivery", "B", Lower);
    add("fabric-gossip.leader_to_regular_bytes", "ratio", Lower);
    add("fabric-gossip.discovery.byte_share", "ratio", Lower);
    add(
        "fabric-gossip.discovery.view_convergence_p50_ms",
        "ms",
        Lower,
    );
    add("fabric-gossip.leadership.handoffs", "count", Lower);
    add("fabric-gossip.leadership.gaps", "count", Lower);
    add("fabric-gossip.leadership.gap_max_ms", "ms", Lower);
    add("fabric-gossip.recovery.catchup_p50_ms", "ms", Lower);
    add("fabric-gossip.peer.on_block_ns", "ns", Lower);
    add("fabric-gossip.peer.on_push_digest_ns", "ns", Lower);
    add("fabric-gossip.store.insert_ns", "ns", Lower);

    add("fabric-experiments.net.handler_share", "ratio", Lower);
    for kind in HOST_KINDS {
        add(
            &format!("fabric-experiments.net.{kind}.calls"),
            "count",
            Lower,
        );
        add(
            &format!("fabric-experiments.net.{kind}.ns_per_call"),
            "ns",
            Lower,
        );
    }

    add("fabric-types.block.data_intact_ns", "ns", Lower);
    add("fabric-types.block.hash_ns", "ns", Lower);
    add("fabric-types.sha256_mb_per_s", "MB/s", Higher);
    add("fabric-ledger.commit_ns_per_tx", "ns", Lower);
    add("fabric-ledger.validate_ns_per_tx", "ns", Lower);
    add("fabric-ledger.invalidated_tx_share", "ratio", Lower);
    add("fabric-orderer.submit_ns_per_tx", "ns", Lower);
    add("fabric-orderer.txs_per_block", "ratio", Higher);
    add("fabric-workload.endorse_ns_per_tx", "ns", Lower);
    add("fabric-workload.schedule_gen_ms", "ms", Lower);
    add("gossip-metrics.report_ms", "ms", Lower);
    // Run quality: how far the other numbers of this run can be trusted.
    add("trace_overhead_pct", "%", Lower);
    add("trace.record_ns_per_span", "ns", Lower);
    add("host.calib_ns", "ns", Lower);
    out
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    obj([
        (
            "command",
            Json::from(vec![
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", Json::from(vec!["benchmark"])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", Json::from(w.name())), ("why", Json::from(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name)),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                            ("bound", Json::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Json::from(m.name.as_str())),
                            ("unit", Json::from(m.unit)),
                            ("better", Json::from(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_respect_the_manifest_limits() {
        let layers = per_layer();
        assert!(
            (1..=128).contains(&layers.len()),
            "{} layer metrics",
            layers.len()
        );
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(layers.iter().map(|m| m.name.as_str()));
        names.extend(WORKLOADS.iter().map(|w| w.name()));
        for name in &names {
            assert!(well_formed_name(name), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");

        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16, "{unit}");
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(on_disk.len() <= 64 * 1024);
        assert_eq!(
            crate::json::parse(&on_disk).unwrap(),
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }
}
