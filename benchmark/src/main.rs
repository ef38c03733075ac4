//! The benchmark of record for the fair-gossip reproduction.
//!
//! ```text
//! fair-gossip-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fair-gossip-benchmark run [--seed <n>]
//! fair-gossip-benchmark compare <a.json> <b.json>
//! fair-gossip-benchmark manifest
//! ```
//!
//! The first form measures one workload and prints one JSON object as its
//! last line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `run` makes both measurements of every
//! workload, one child process of itself at a time, and writes
//! `benchmark/out/result.json`; `compare` judges two such files against
//! the bounds in `BENCHMARK.json`. Run from the repository root.

mod clock;
mod compare;
mod direct;
mod json;
mod metrics;
mod report;
mod stats;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::{obj, Json};
use metrics::RUN_SECONDS;
use report::Value;
use workloads::{
    matches_runner, run_once, same_simulation, Check, RunOutput, Scale, Workload, WORKLOADS,
};

/// Where invocations leave their files, relative to the repository root.
const OUT_DIR: &str = "benchmark/out";

/// Set-ups timed on their own per invocation (at least), so `setup_s` is
/// a median over enough samples to be steady (a set-up takes milliseconds).
const EXTRA_SETUPS: usize = 24;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(true)
        }
        Some(flag) if flag.starts_with("--") => measure(&args),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    format!(
        "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         run [--seed <n>]\n       compare <a.json> <b.json>\n       manifest",
        names.join("|")
    )
}

/// The value following `flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(at) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    args.get(at + 1)
        .and_then(|v| v.parse().ok())
        .map(Some)
        .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
}

/// One invocation of the driver's form: measures `--workload` and prints
/// the result line. `Ok(false)` when an output check failed.
fn measure(args: &[String]) -> Result<bool, String> {
    let name: String = flag(args, "--workload")?.ok_or_else(usage)?;
    let workload =
        Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}\n{}", usage()))?;
    let seed: u64 = flag(args, "--seed")?.ok_or_else(usage)?;
    let seconds: u64 = flag(args, "--seconds")?.unwrap_or(RUN_SECONDS);
    let trace: u8 = flag(args, "--trace")?.unwrap_or(0);
    if seconds == 0 || trace > 1 {
        return Err(usage());
    }
    // The driver's `--seconds` scales the repetitions of record.
    let reps = (workload.reps_of_record() * seconds / RUN_SECONDS).max(1) as usize;

    let measured = if trace == 0 {
        measure_end_to_end(workload, seed, reps)?
    } else {
        measure_layers(workload, seed, reps)
    };

    for check in &measured.checks {
        let mark = if check.holds { "ok  " } else { "FAIL" };
        println!("{mark} {} ({})", check.what, check.detail);
    }
    for v in &measured.values {
        println!("{:<52} {:>16} {}", v.name, format_value(v.value), v.unit);
    }
    let correct = measured.checks.iter().all(|c| c.holds);
    let detail = measured.detail(workload, seed, seconds, trace, correct);
    let path = Path::new(OUT_DIR).join(format!("{}.trace{trace}.json", workload.name()));
    if let Err(e) = write_file(&path, &detail.pretty()) {
        eprintln!("warning: {e}");
    }
    println!("{}", measured.result_line(correct).compact());
    Ok(correct)
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.5}")
    }
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// What one invocation measured.
struct Measured {
    seeds: Vec<u64>,
    attempted: u64,
    failed: u64,
    checks: Vec<Check>,
    values: Vec<Value>,
    /// Exact per-repetition counts, for comparing two sets of runs.
    counts: Json,
}

impl Measured {
    /// The contract's last line.
    fn result_line(&self, correct: bool) -> Json {
        obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "metrics",
                obj(self.values.iter().map(|v| {
                    (
                        v.name.clone(),
                        obj([("value", Json::from(v.value)), ("unit", Json::from(v.unit))]),
                    )
                })),
            ),
        ])
    }

    /// The invocation's detail file: what `run` folds into `result.json`.
    fn detail(
        &self,
        workload: Workload,
        seed: u64,
        seconds: u64,
        trace: u8,
        correct: bool,
    ) -> Json {
        let metrics = obj(self.values.iter().map(|v| {
            let mut fields = vec![
                ("value".to_owned(), Json::from(v.value)),
                ("unit".to_owned(), Json::from(v.unit)),
            ];
            if let Some([q1, _, q3]) = report::rep_quartiles(v) {
                fields.push(("q1".to_owned(), Json::from(q1)));
                fields.push(("q3".to_owned(), Json::from(q3)));
                fields.push(("n".to_owned(), Json::from(v.reps.len() as u64)));
                fields.push(("reps".to_owned(), Json::from(v.reps.clone())));
            } else if v.samples > 0 {
                fields.push(("n".to_owned(), Json::from(v.samples)));
            }
            (v.name.clone(), Json::Obj(fields))
        }));
        obj([
            ("workload", Json::from(workload.name())),
            ("seed", Json::from(seed)),
            ("seconds", Json::from(seconds)),
            ("trace", Json::from(u64::from(trace))),
            ("seeds", Json::from(self.seeds.clone())),
            ("correct", Json::from(correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            obj([
                                ("what", Json::from(c.what.as_str())),
                                ("holds", Json::from(c.holds)),
                                ("detail", Json::from(c.detail.as_str())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", metrics),
            ("counts", self.counts.clone()),
        ])
    }
}

fn counts_of(runs: &[RunOutput]) -> Json {
    let per_run =
        |f: &dyn Fn(&RunOutput) -> u64| Json::from(runs.iter().map(f).collect::<Vec<u64>>());
    obj([
        ("events", per_run(&|r| r.engine.events)),
        ("msgs_sent", per_run(&|r| r.engine.msgs_sent())),
        ("wire_bytes", per_run(&|r| r.engine.wire_bytes)),
        ("blocks", per_run(&|r| r.blocks)),
        ("issued", per_run(&|r| r.issued)),
        ("valid", per_run(&|r| r.valid)),
        ("attempted", per_run(&|r| r.attempted())),
        ("failed", per_run(&|r| r.failed())),
        // Not counts, but per repetition too: what the wall clock measured
        // before it was taken to the reference clock, and the clock read.
        (
            "raw_run_wall_s",
            Json::from(runs.iter().map(|r| r.raw_run_wall_s).collect::<Vec<f64>>()),
        ),
        (
            "clock_ns_per_step",
            Json::from(
                runs.iter()
                    .map(|r| r.clock_ns_per_step)
                    .collect::<Vec<f64>>(),
            ),
        ),
    ])
}

/// Folds per-run checks into one line per check: it holds when it held
/// for every seed, and its detail is the first failing seed's (else the
/// first seed's).
fn fold_checks(per_run: impl IntoIterator<Item = (u64, Check)>) -> Vec<Check> {
    let mut folded: Vec<(Check, usize)> = Vec::new();
    for (seed, check) in per_run {
        let detail = format!("seed {seed}: {}", check.detail);
        match folded.iter_mut().find(|(c, _)| c.what == check.what) {
            Some((sum, seeds)) => {
                *seeds += 1;
                if sum.holds && !check.holds {
                    sum.holds = false;
                    sum.detail = detail;
                }
            }
            None => folded.push((Check { detail, ..check }, 1)),
        }
    }
    folded
        .into_iter()
        .map(|(mut check, seeds)| {
            check.what = format!("{} [{seeds} seeds]", check.what);
            check
        })
        .collect()
}

fn run_checks(runs: &[RunOutput]) -> impl Iterator<Item = (u64, Check)> + '_ {
    runs.iter()
        .flat_map(|r| r.checks().into_iter().map(move |c| (r.seed, c)))
}

/// `--trace 0`: `reps` untraced repetitions, then the end-to-end metrics
/// over them.
fn measure_end_to_end(workload: Workload, seed: u64, reps: usize) -> Result<Measured, String> {
    let mut checks = vec![matches_runner(workload, seed)];

    let seeds = workload.rep_seeds(seed, reps);
    // A set-up is milliseconds against seconds of simulation: repeat it
    // alone so its median rests on more than a handful of samples, and
    // spread the repeats over the invocation so one slow moment of a shared
    // box does not shift them all.
    let setups_per_rep = EXTRA_SETUPS.div_ceil(reps);
    let mut extra_setups = Vec::with_capacity(setups_per_rep * reps);
    let mut runs = Vec::with_capacity(reps);
    for s in &seeds {
        let cfg = workload.config(Scale::Paper, *s);
        extra_setups.extend((0..setups_per_rep).map(|_| workloads::setup_only(&cfg)));
        runs.push(run_once(&cfg, false));
    }
    let peak_rss_mb = peak_rss_mb()?;

    checks.extend(fold_checks(run_checks(&runs)));
    let values = report::end_to_end(&runs, &extra_setups, peak_rss_mb)?;
    Ok(Measured {
        seeds,
        attempted: runs.iter().map(RunOutput::attempted).sum(),
        failed: runs.iter().map(RunOutput::failed).sum(),
        checks,
        values,
        counts: counts_of(&runs),
    })
}

/// `--trace 1`: pairs of an untraced and a traced run per seed, then the
/// direct measurements, then the per-layer metrics. The direct
/// measurements take the time of one of the `reps` repetitions a timed
/// invocation makes; the pairs share the rest.
fn measure_layers(workload: Workload, seed: u64, reps: usize) -> Measured {
    let pairs = ((reps - 1) / 2).max(1);
    let seeds = workload.rep_seeds(seed, pairs);
    let mut untraced = Vec::with_capacity(pairs);
    let mut traced = Vec::with_capacity(pairs);
    for s in &seeds {
        let cfg = workload.config(Scale::Paper, *s);
        untraced.push(run_once(&cfg, false));
        traced.push(run_once(&cfg, true));
    }
    let direct = direct::measure(seed);

    let same = untraced
        .iter()
        .zip(&traced)
        .map(|(plain, spans)| (plain.seed, same_simulation(plain, spans)));
    let mut checks = fold_checks(run_checks(&traced).chain(same));
    let trace = traced[0]
        .trace
        .as_ref()
        .expect("traced run carries its trace");
    // Engine-outer is the root's self time, so the spans and it add up to
    // the traced wall by construction; what can fail is a span missing or
    // the children outgrowing their parent.
    checks.push(Check::new(
        "one span per event, and the spans fit inside the root span",
        trace.spans == traced[0].engine.events && trace.handler_ns() <= trace.root_ns,
        format!(
            "{} spans for {} events, {} ns in handlers of a {} ns loop",
            trace.spans,
            traced[0].engine.events,
            trace.handler_ns(),
            trace.root_ns
        ),
    ));

    let path = Path::new(OUT_DIR).join(format!("trace-{}.json", workload.name()));
    if let Err(e) = write_file(&path, &trace_file(workload, seed, trace).pretty()) {
        eprintln!("warning: {e}");
    }

    Measured {
        values: report::layers(&untraced, &traced, &direct),
        attempted: traced.iter().map(RunOutput::attempted).sum(),
        failed: traced.iter().map(RunOutput::failed).sum(),
        checks,
        counts: counts_of(&traced),
        seeds,
    }
}

/// The spans of one traced run, as written to `trace-<workload>.json`:
/// the root span, handler time per kind, and an evenly spaced sample of
/// the raw child spans `[kind, start_ns, dur_ns]`.
fn trace_file(workload: Workload, seed: u64, trace: &traced::Trace) -> Json {
    obj([
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(seed)),
        (
            "root",
            obj([
                ("name", Json::from("event-loop")),
                ("start_ns", Json::from(0u64)),
                ("end_ns", Json::from(trace.root_ns)),
                ("children", Json::from(trace.spans)),
                ("children_ns", Json::from(trace.handler_ns())),
                ("self_ns", Json::from(trace.engine_outer_ns())),
            ]),
        ),
        (
            "by_kind",
            Json::Arr(
                trace
                    .kinds
                    .iter()
                    .map(|k| {
                        obj([
                            ("name", Json::from(k.name)),
                            ("calls", Json::from(k.calls)),
                            ("total_ns", Json::from(k.total_ns)),
                            ("p50_ns", Json::from(k.p50_ns)),
                            ("p99_ns", Json::from(k.p99_ns)),
                            ("max_ns", Json::from(k.max_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("sample_every", Json::from(trace.sample_every as u64)),
        (
            "spans",
            Json::Arr(
                trace
                    .sample
                    .iter()
                    .map(|(name, start, dur)| {
                        Json::Arr(vec![
                            Json::from(*name),
                            Json::from(*start),
                            Json::from(*dur),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Peak resident set of this process so far, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1e3)
        .ok_or_else(|| "peak_rss_mb: no VmHWM line in /proc/self/status".to_owned())
}

fn load_average() -> Vec<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| {
            s.split_whitespace()
                .take(3)
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// First line a command prints, or `"unknown"`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// `run`: every workload, timed then traced, one child of this program at
/// a time, folded into `benchmark/out/result.json`.
fn run_all(args: &[String]) -> Result<bool, String> {
    let seed: u64 = flag(args, "--seed")?.unwrap_or(1);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let load_start = load_average();
    if load_start.first().is_some_and(|l| *l > 1.0) {
        println!(
            "warning: load average {} at start exceeds 1.0; host-time metrics will be noisy",
            load_start[0]
        );
    }

    let mut all_correct = true;
    let mut workloads_json = Vec::new();
    for workload in WORKLOADS {
        let mut sections = Vec::new();
        for trace in [0u8, 1] {
            println!("== {} --trace {trace} ==", workload.name());
            let path =
                PathBuf::from(OUT_DIR).join(format!("{}.trace{trace}.json", workload.name()));
            // A child that dies early must not be read through the file an
            // earlier run left behind.
            let _ = std::fs::remove_file(&path);
            let status = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &RUN_SECONDS.to_string()])
                .args(["--trace", &trace.to_string()])
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("{} left no {}: {e}", workload.name(), path.display()))?;
            sections.push(json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        }
        let [timed, traced] = [&sections[0], &sections[1]];
        let pick = |section: &Json, key: &str| section.get(key).cloned().unwrap_or(Json::Null);
        let wall = |field: &str| {
            timed
                .get("metrics")
                .and_then(|m| m.get("run_wall_s"))
                .and_then(|m| m.get(field))
                .and_then(Json::as_f64)
        };
        if let (Some(q1), Some(q3), Some(value)) = (wall("q1"), wall("q3"), wall("value")) {
            let bound = metrics::END_TO_END
                .iter()
                .find(|m| m.name == "run_wall_s")
                .map_or(0.0, |m| m.bound);
            if (q3 - q1) / value > bound {
                println!(
                    "warning: {} run_wall_s quartile spread {:.1}% exceeds its {:.0}% bound",
                    workload.name(),
                    (q3 - q1) / value * 100.0,
                    bound * 100.0
                );
            }
        }
        workloads_json.push(obj([
            ("name", Json::from(workload.name())),
            (
                "correct",
                Json::from(
                    pick(timed, "correct") == Json::Bool(true)
                        && pick(traced, "correct") == Json::Bool(true),
                ),
            ),
            ("attempted", pick(timed, "attempted")),
            ("failed", pick(timed, "failed")),
            ("seeds", pick(timed, "seeds")),
            ("traced_seeds", pick(traced, "seeds")),
            (
                "checks",
                Json::Arr(
                    [timed, traced]
                        .iter()
                        .flat_map(|s| {
                            s.get("checks")
                                .and_then(Json::as_arr)
                                .unwrap_or_default()
                                .to_vec()
                        })
                        .collect(),
                ),
            ),
            ("end_to_end", pick(timed, "metrics")),
            ("per_layer", pick(traced, "metrics")),
            ("counts", pick(timed, "counts")),
            ("traced_counts", pick(traced, "counts")),
        ]));
    }

    let result = obj([
        (
            "conditions",
            obj([
                ("seed", Json::from(seed)),
                ("seconds", Json::from(RUN_SECONDS)),
                ("nproc", Json::from(nproc)),
                ("loadavg_start", Json::from(load_start)),
                ("loadavg_end", Json::from(load_average())),
                (
                    "git_commit",
                    Json::from(first_line_of("git", &["rev-parse", "HEAD"])),
                ),
                ("rustc", Json::from(first_line_of("rustc", &["--version"]))),
            ]),
        ),
        ("workloads", Json::Arr(workloads_json)),
    ]);
    let path = Path::new(OUT_DIR).join("result.json");
    write_file(&path, &result.pretty())?;
    println!(
        "{} -> {}",
        if all_correct {
            "every output check held"
        } else {
            "AN OUTPUT CHECK FAILED"
        },
        path.display()
    );
    Ok(all_correct)
}
