//! `bench_dissemination` — the perf-trajectory emitter.
//!
//! Times the fig04 and fig07 dissemination presets plus the churn and
//! churn-waves presets (wall-clock and events/second), the
//! delta-discovery churn-waves variant (with its discovery byte share),
//! the skewed and `large` multi-channel presets (with their shard
//! counts), the `scheduler` microbench (seed-style binary heap vs timing
//! wheel) and the clone-per-hop vs zero-copy payload comparison, then writes
//! `BENCH_dissemination.json` (including the box's `threads` count, so
//! cross-machine numbers are interpretable) so future changes have a
//! baseline to compare against.
//!
//! ```text
//! bench_dissemination [smoke|quick|full] [output.json]
//! bench_dissemination compare <new.json> <baseline.json> [--fail-over <pct>]
//! ```
//!
//! `compare` is CI's perf gate: it diffs the two files' events/second and
//! wall-clock per preset and prints `::warning::` lines on regressions
//! past the noise thresholds. By default it always exits 0 (wall-clock
//! noise must not fail a PR, only surface on it); with `--fail-over <pct>`
//! it exits 1 when any preset loses more than `pct` percent events/second
//! against the baseline, or when a baseline preset is missing from the new
//! run (a renamed or deleted preset must not slip past the gate).

use std::time::Instant;

use bench::sched_bench::run_sched_bench;
use bench::zero_copy::{compare, FloodConfig};
use bench::{
    churn_preset, churn_waves_delta_preset, churn_waves_preset, large_preset, long_chain_preset,
    multichannel_preset, run_scaled, scheduler_bench_ops, Scale,
};
use fabric_experiments::churn::run_churn;
use fabric_experiments::churn_waves::{run_churn_waves, ChurnWavesConfig};
use fabric_experiments::dissemination::DisseminationConfig;
use fabric_experiments::long_chain::run_long_chain;
use fabric_experiments::multichannel::{run_multichannel, MultiChannelConfig};

#[derive(Default)]
struct PresetRow {
    name: &'static str,
    wall_secs: f64,
    events: u64,
    events_per_sec: f64,
    blocks: u64,
    completeness: f64,
    /// Discovery byte share of the run (churn-waves rows only).
    discovery_share: Option<f64>,
    /// Worker shards the run used (multi-channel rows only).
    shards: Option<usize>,
    /// Snapshot-bootstrap catch-up bytes at the tallest sweep point
    /// (long-chain row only).
    catchup_bytes: Option<u64>,
    /// Snapshot-bootstrap join -> serving seconds at the tallest sweep
    /// point (long-chain row only).
    time_to_serving: Option<f64>,
    /// Largest single snapshot-transfer wire message across the chunked
    /// sweep runs (long-chain row only; bounded by the chunk size).
    max_msg_bytes: Option<u64>,
    /// Per-checkpoint delta retention at the tallest sweep point
    /// (long-chain row only; flat where full exports grow linearly).
    delta_bytes: Option<u64>,
    /// Chunked-transfer resumes across the sweep (long-chain row only;
    /// 0 on the lossless LAN).
    resumes: Option<u64>,
}

fn time_preset(name: &'static str, preset: DisseminationConfig, scale: Scale) -> PresetRow {
    let start = Instant::now();
    let result = run_scaled(preset, scale);
    let wall = start.elapsed().as_secs_f64();
    PresetRow {
        name,
        wall_secs: wall,
        events: result.events,
        events_per_sec: result.events as f64 / wall.max(1e-9),
        blocks: result.blocks,
        completeness: result.completeness,
        ..Default::default()
    }
}

fn time_multichannel(name: &'static str, cfg: &MultiChannelConfig) -> PresetRow {
    let start = Instant::now();
    let result = run_multichannel(cfg);
    let wall = start.elapsed().as_secs_f64();
    let completeness = result.completeness();
    if completeness < 1.0 {
        eprintln!("::warning::{name} preset incomplete: completeness {completeness:.4}");
    }
    PresetRow {
        name,
        wall_secs: wall,
        events: result.events,
        events_per_sec: result.events as f64 / wall.max(1e-9),
        blocks: result.blocks,
        completeness,
        shards: Some(cfg.shards.clamp(1, result.groups)),
        ..Default::default()
    }
}

fn time_churn(scale: Scale) -> PresetRow {
    let cfg = churn_preset(scale);
    let start = Instant::now();
    let result = run_churn(&cfg);
    let wall = start.elapsed().as_secs_f64();
    // Meaningfulness guard: the preset must actually demonstrate churn —
    // a completed catch-up and a leader hand-off on the side channel.
    let caught_up = result.catchups.iter().all(|c| c.completed_at.is_some());
    let handed_off = result.channels[1].handoffs >= 1;
    if !caught_up || !handed_off {
        eprintln!(
            "::warning::churn preset degenerated: caught_up={caught_up} handed_off={handed_off}"
        );
    }
    PresetRow {
        name: "churn",
        wall_secs: wall,
        events: result.events,
        events_per_sec: result.events as f64 / wall.max(1e-9),
        blocks: result.channels.iter().map(|c| c.blocks).sum(),
        completeness: result
            .channels
            .iter()
            .map(|c| c.completeness)
            .fold(1.0f64, f64::min),
        ..Default::default()
    }
}

fn time_churn_waves(name: &'static str, cfg: &ChurnWavesConfig) -> PresetRow {
    let start = Instant::now();
    let result = run_churn_waves(cfg);
    let wall = start.elapsed().as_secs_f64();
    // Meaningfulness guard: every join/leave must converge through the
    // discovery protocol and every wave must hand leadership off.
    let total = result.convergence.len().max(1);
    let done = result
        .convergence
        .iter()
        .filter(|r| r.latency().is_some())
        .count();
    let converged = done == total;
    let handed_off = result.channels[1..]
        .iter()
        .all(|c| c.handoffs as usize == cfg.waves);
    if !converged || !handed_off {
        eprintln!(
            "::warning::{name} preset degenerated: converged={converged} handed_off={handed_off}"
        );
    }
    PresetRow {
        name,
        wall_secs: wall,
        events: result.events,
        events_per_sec: result.events as f64 / wall.max(1e-9),
        blocks: result.channels.iter().map(|c| c.blocks).sum(),
        // Convergence completeness stands in for delivery completeness:
        // the fraction of join/leave records that fully converged.
        completeness: done as f64 / total as f64,
        discovery_share: Some(result.overall_discovery_share()),
        ..Default::default()
    }
}

fn time_long_chain(scale: Scale) -> PresetRow {
    let cfg = long_chain_preset(scale);
    let start = Instant::now();
    let result = run_long_chain(&cfg);
    let wall = start.elapsed().as_secs_f64();
    // Meaningfulness guard: the sweep exists to show the snapshot path
    // growing strictly slower than genesis replay.
    let (genesis_growth, snapshot_growth) = result.bytes_growth();
    if snapshot_growth >= genesis_growth {
        eprintln!(
            "::warning::long_chain preset degenerated: snapshot byte growth \
             {snapshot_growth:.2}x did not trail genesis {genesis_growth:.2}x"
        );
    }
    let tallest = result.rows.last().expect("sweep is non-empty");
    // Meaningfulness guard: chunking exists to bound the wire — the
    // largest chunked snapshot message must stay within the chunk size.
    if result.max_msg_bytes() > cfg.chunk_size as u64 {
        eprintln!(
            "::warning::long_chain preset degenerated: chunked max message \
             {} B exceeds chunk size {} B",
            result.max_msg_bytes(),
            cfg.chunk_size
        );
    }
    PresetRow {
        name: "long_chain",
        wall_secs: wall,
        events: result.events,
        events_per_sec: result.events as f64 / wall.max(1e-9),
        blocks: result.blocks,
        completeness: 1.0, // run_long_chain panics on an incomplete catch-up
        catchup_bytes: Some(tallest.snapshot_bytes),
        time_to_serving: Some(tallest.snapshot_time_to_serving.as_secs_f64()),
        max_msg_bytes: Some(result.max_msg_bytes()),
        delta_bytes: Some(result.delta_bytes()),
        resumes: Some(result.resumes()),
        ..Default::default()
    }
}

/// Pulls a numeric field out of a one-preset-per-line JSON row. The emitter
/// above writes each preset on its own line, so a line-local scan is exact
/// (no vendored JSON parser exists in this offline workspace).
fn field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One parsed preset row: (name, wall seconds, events/second, chunked max
/// message bytes).
type Row = (String, f64, f64, Option<f64>);

fn parse_rows(text: &str) -> Vec<Row> {
    text.lines()
        .filter(|l| l.contains("\"name\": "))
        .filter_map(|l| {
            let name = l
                .split("\"name\": \"")
                .nth(1)?
                .split('"')
                .next()?
                .to_owned();
            Some((
                name,
                field(l, "wall_secs")?,
                field(l, "events_per_sec")?,
                field(l, "max_msg_bytes"),
            ))
        })
        .collect()
}

fn preset_rows(path: &str) -> Vec<Row> {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("::warning::perf-diff: cannot read {path}");
        return Vec::new();
    };
    parse_rows(&text)
}

/// Perf diff: tolerate 25 % wall-clock growth / 20 % events-per-second
/// loss before flagging (CI machines are noisy; the thresholds catch
/// engine regressions, not scheduler jitter). Warn-only by default; with
/// `fail_over = Some(pct)` the returned list names every preset that lost
/// more than `pct` percent events/second or vanished from the new run —
/// non-empty means the gate fails.
fn diff_rows(new: &[Row], base: &[Row], fail_over: Option<f64>) -> Vec<String> {
    let mut hard_regressions = Vec::new();
    for (name, wall, eps, max_msg) in new {
        let Some((_, base_wall, base_eps, base_max_msg)) =
            base.iter().find(|(n, _, _, _)| n == name)
        else {
            eprintln!("{name:<22} NEW (no baseline row)");
            continue;
        };
        let wall_ratio = wall / base_wall.max(1e-9);
        let eps_ratio = eps / base_eps.max(1e-9);
        eprintln!(
            "{name:<22} wall {wall:>8.3} s ({:+.1} %) | {eps:>12.0} events/s ({:+.1} %)",
            (wall_ratio - 1.0) * 100.0,
            (eps_ratio - 1.0) * 100.0,
        );
        if wall_ratio > 1.25 || eps_ratio < 0.80 {
            eprintln!(
                "::warning::perf regression in {name}: wall {base_wall:.3} s -> {wall:.3} s, \
                 {base_eps:.0} -> {eps:.0} events/s"
            );
        }
        // Warn-only wire-bound check: the chunked snapshot ceiling is a
        // correctness-ish number (it tracks the configured chunk size), so
        // any growth is suspicious even when throughput holds.
        if let (Some(m), Some(bm)) = (max_msg, base_max_msg) {
            if m > bm {
                eprintln!(
                    "::warning::perf-diff: {name} chunked max message grew {bm:.0} -> {m:.0} B"
                );
            }
        }
        if let Some(pct) = fail_over {
            if eps_ratio < 1.0 - pct / 100.0 {
                hard_regressions.push(format!(
                    "{name}: {base_eps:.0} -> {eps:.0} events/s ({:+.1} %)",
                    (eps_ratio - 1.0) * 100.0
                ));
            }
        }
    }
    for (name, _, _, _) in base {
        if !new.iter().any(|(n, _, _, _)| n == name) {
            eprintln!("::warning::perf-diff: preset {name} disappeared from the new run");
            if fail_over.is_some() {
                hard_regressions.push(format!("{name}: no row in the new run"));
            }
        }
    }
    hard_regressions
}

fn run_compare(new_path: &str, baseline_path: &str, fail_over: Option<f64>) {
    let new = preset_rows(new_path);
    let base = preset_rows(baseline_path);
    if new.is_empty() || base.is_empty() {
        // Warn-only mode tolerates a broken input (noise must not fail a
        // PR), but a hard gate that compared nothing must not pass green.
        if fail_over.is_some() {
            eprintln!("::error::perf-diff: missing preset rows; refusing to gate on nothing");
            std::process::exit(1);
        }
        eprintln!("::warning::perf-diff: missing preset rows; skipping comparison");
        return;
    }
    let mode = match fail_over {
        Some(pct) => format!("fail over {pct} % events/s loss"),
        None => "warn-only".to_owned(),
    };
    eprintln!("# perf diff: {new_path} vs baseline {baseline_path} ({mode})");
    let hard_regressions = diff_rows(&new, &base, fail_over);
    if !hard_regressions.is_empty() {
        for r in &hard_regressions {
            eprintln!("::error::perf regression past --fail-over threshold: {r}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        // Split flags (and their values) from positional paths so
        // `compare --fail-over 60 new.json baseline.json` parses the same
        // as the trailing-flag order.
        let mut positional: Vec<&str> = Vec::new();
        let mut fail_over: Option<f64> = None;
        let mut rest = args[1..].iter();
        while let Some(arg) = rest.next() {
            if arg == "--fail-over" {
                fail_over = rest.next().and_then(|v| v.parse::<f64>().ok());
                if fail_over.is_none() {
                    eprintln!("error: --fail-over requires a numeric percentage");
                    std::process::exit(2);
                }
            } else if arg.starts_with("--") {
                eprintln!("error: unknown compare flag {arg}");
                std::process::exit(2);
            } else {
                positional.push(arg);
            }
        }
        let new_path = positional.first().copied().unwrap_or("BENCH_new.json");
        let baseline = positional
            .get(1)
            .copied()
            .unwrap_or("BENCH_dissemination.json");
        run_compare(new_path, baseline, fail_over);
        return;
    }
    let scale = args
        .first()
        .and_then(|s| Scale::parse(s))
        .unwrap_or(Scale::Smoke);
    let out_path = args
        .get(1)
        .cloned()
        .unwrap_or_else(|| "BENCH_dissemination.json".to_owned());

    eprintln!("# bench_dissemination — scale {scale:?}");

    let presets = vec![
        time_preset(
            "fig04_06_original",
            DisseminationConfig::fig04_06_original(),
            scale,
        ),
        time_preset(
            "fig07_09_enhanced_f4",
            DisseminationConfig::fig07_09_enhanced_f4(),
            scale,
        ),
        time_multichannel("multichannel", &multichannel_preset(scale)),
        time_churn(scale),
        time_churn_waves("churn_waves", &churn_waves_preset(scale)),
        time_churn_waves("churn_waves_delta", &churn_waves_delta_preset(scale)),
        time_multichannel("large_sharded", &large_preset(scale)),
        time_long_chain(scale),
    ];
    for row in &presets {
        let share = row
            .discovery_share
            .map(|s| format!(" | discovery share {s:.4}"))
            .unwrap_or_default();
        let shards = row
            .shards
            .map(|s| format!(" | {s} shards"))
            .unwrap_or_default();
        let catchup = row
            .catchup_bytes
            .zip(row.time_to_serving)
            .map(|(b, t)| format!(" | catch-up {b} B, {t:.2} s to serving"))
            .unwrap_or_default();
        let chunked = row
            .max_msg_bytes
            .zip(row.delta_bytes)
            .zip(row.resumes)
            .map(|((m, d), r)| format!(" | chunked max {m} B, delta/ckpt {d} B, {r} resumes"))
            .unwrap_or_default();
        eprintln!(
            "{:<22} wall {:>8.3} s | {:>9} events | {:>12.0} events/s | {} blocks | completeness {:.4}{share}{shards}{catchup}{chunked}",
            row.name, row.wall_secs, row.events, row.events_per_sec, row.blocks, row.completeness
        );
    }
    let shares: Vec<(f64, &str)> = presets
        .iter()
        .filter_map(|r| r.discovery_share.map(|s| (s, r.name)))
        .collect();
    if let [(full, _), (delta, _)] = shares.as_slice() {
        if delta >= full {
            eprintln!(
                "::warning::delta discovery did not shrink the byte share: {delta:.4} vs {full:.4}"
            );
        }
    }

    // Scheduler microbench: the seed's binary heap vs the timing wheel on
    // an identical gossip-shaped op mix.
    let sched = run_sched_bench(scheduler_bench_ops(scale), 3);
    eprintln!(
        "scheduler microbench: heap {:>12.0} ops/s | wheel {:>12.0} ops/s | {:.2}x",
        sched.heap.ops_per_sec,
        sched.wheel.ops_per_sec,
        sched.speedup()
    );

    // Zero-copy vs clone-per-hop on the fig04 flood shape.
    let flood = FloodConfig::fig04(20);
    let (owned, shared) = compare(flood, 3);
    let speedup = owned.as_secs_f64() / shared.as_secs_f64().max(1e-9);
    eprintln!(
        "zero-copy speedup over clone-per-hop baseline: {speedup:.2}x (baseline {owned:?}, zero-copy {shared:?})"
    );

    let threads = std::thread::available_parallelism()
        .map(|cores| cores.get())
        .unwrap_or(1);

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"scale\": \"{scale:?}\",\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str("  \"presets\": [\n");
    for (i, row) in presets.iter().enumerate() {
        let share = row
            .discovery_share
            .map(|s| format!(", \"discovery_share\": {s:.6}"))
            .unwrap_or_default();
        let share = format!(
            "{share}{}{}",
            row.shards
                .map(|s| format!(", \"shards\": {s}"))
                .unwrap_or_default(),
            row.catchup_bytes
                .zip(row.time_to_serving)
                .map(|(b, t)| format!(", \"catchup_bytes\": {b}, \"time_to_serving\": {t:.6}"))
                .unwrap_or_default()
        );
        let share = format!(
            "{share}{}",
            row.max_msg_bytes
                .zip(row.delta_bytes)
                .zip(row.resumes)
                .map(|((m, d), r)| format!(
                    ", \"max_msg_bytes\": {m}, \"delta_bytes\": {d}, \"resumes\": {r}"
                ))
                .unwrap_or_default()
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_secs\": {:.6}, \"events\": {}, \"events_per_sec\": {:.1}, \"blocks\": {}, \"completeness\": {:.6}{share}}}{}\n",
            row.name,
            row.wall_secs,
            row.events,
            row.events_per_sec,
            row.blocks,
            row.completeness,
            if i + 1 < presets.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"scheduler\": {{\"heap_ops_per_sec\": {:.1}, \"wheel_ops_per_sec\": {:.1}, \"speedup\": {:.3}, \"ops\": {}}},\n",
        sched.heap.ops_per_sec,
        sched.wheel.ops_per_sec,
        sched.speedup(),
        sched.heap.ops
    ));
    json.push_str(&format!(
        "  \"zero_copy\": {{\"baseline_secs\": {:.6}, \"shared_secs\": {:.6}, \"speedup\": {:.3}, \"peers\": {}, \"blocks\": {}}}\n",
        owned.as_secs_f64(),
        shared.as_secs_f64(),
        speedup,
        flood.peers,
        flood.blocks
    ));
    json.push_str("}\n");

    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{"name": "fig04", "wall_secs": 1.0, "events_per_sec": 100.0}
{"name": "multichannel", "wall_secs": 1.0, "events_per_sec": 100.0}
{"name": "large_sharded", "wall_secs": 1.0, "events_per_sec": 100.0}"#;
    const RENAMED: &str = r#"{"name": "fig04", "wall_secs": 1.0, "events_per_sec": 100.0}
{"name": "multichannel", "wall_secs": 1.0, "events_per_sec": 100.0}
{"name": "large", "wall_secs": 1.0, "events_per_sec": 100.0}"#;

    #[test]
    fn a_vanished_baseline_preset_fails_only_the_hard_gate() {
        let (new, base) = (parse_rows(RENAMED), parse_rows(BASELINE));
        assert_eq!((new.len(), base.len()), (3, 3));
        assert!(diff_rows(&new, &base, None).is_empty(), "warn-only mode");
        let failures = diff_rows(&new, &base, Some(60.0));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("large_sharded"));
        assert!(diff_rows(&base, &base, Some(60.0)).is_empty());
    }
}
