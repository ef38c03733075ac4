//! `compare <a.json> <b.json>`: one row per workload × end-to-end metric,
//! judged against the bounds stored in `BENCHMARK.json`.

use crate::json::{self, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The run-to-run spread is wider than the bound, so a change within
    /// the bound could not have been seen.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric of one result file: its value and, for host-time metrics,
/// the quartiles of the repetitions behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub value: f64,
    pub quartiles: Option<(f64, f64)>,
}

impl Side {
    /// Distance between the quartiles as a share of the value.
    fn spread(&self) -> f64 {
        match self.quartiles {
            Some((q1, q3)) if self.value != 0.0 => (q3 - q1) / self.value.abs(),
            _ => 0.0,
        }
    }
}

/// Judges `b` against `a`. `bound` is the share of `a` by which the
/// metric may get worse. A difference counts only when it exceeds both
/// the bound and the wider of the two run-to-run spreads; otherwise a
/// spread wider than the bound leaves the row unresolved.
pub fn judge(a: Side, b: Side, lower_is_better: bool, bound: f64) -> Verdict {
    // A share of zero is undefined: any move away from a zero `a` is
    // beyond every bound.
    let change = if a.value == b.value {
        0.0
    } else if a.value == 0.0 {
        f64::INFINITY.copysign(b.value)
    } else {
        (b.value - a.value) / a.value.abs()
    };
    let worse_by = if lower_is_better { change } else { -change };
    let spread = a.spread().max(b.spread());
    if worse_by.abs() > bound && worse_by.abs() > spread {
        if worse_by > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        }
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn side(workload: &Json, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        quartiles: m
            .get("q1")
            .and_then(Json::as_f64)
            .zip(m.get("q3").and_then(Json::as_f64)),
    })
}

fn workload_named<'a>(result: &'a Json, name: &str) -> Option<&'a Json> {
    result
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

/// A run condition both files must share for their rows to be comparable:
/// the simulated metrics are a function of the seed and of how many
/// repetitions `seconds` holds.
fn condition<'a>(result: &'a Json, path: &str, key: &str) -> Result<&'a Json, String> {
    result
        .get("conditions")
        .and_then(|c| c.get(key))
        .ok_or_else(|| format!("{path}: no conditions.{key}"))
}

fn failed_share(workload: &Json) -> Option<f64> {
    let failed = workload.get("failed")?.as_f64()?;
    let attempted = workload.get("attempted")?.as_f64()?;
    Some(failed / attempted)
}

/// Entry point. `Ok(false)` when any row is `worse` or an output check
/// failed on either side.
pub fn main(args: &[String]) -> Result<bool, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare <a.json> <b.json>".to_owned());
    };
    let manifest = read("BENCHMARK.json")
        .map_err(|e| format!("{e} (run from the repository root: the bounds live there)"))?;
    compare(
        (a_path, &read(a_path)?),
        (b_path, &read(b_path)?),
        &manifest,
    )
}

/// Prints the rows of result `b` against result `a` (each with the path it
/// was read from), judged by `manifest`'s bounds.
fn compare(
    (a_path, a): (&str, &Json),
    (b_path, b): (&str, &Json),
    manifest: &Json,
) -> Result<bool, String> {
    for key in ["seed", "seconds"] {
        let (ca, cb) = (condition(a, a_path, key)?, condition(b, b_path, key)?);
        if ca != cb {
            return Err(format!(
                "{key} differs ({} in {a_path}, {} in {b_path}): the files are not comparable",
                ca.compact(),
                cb.compact()
            ));
        }
    }
    let list = |key: &str| -> Result<&[Json], String> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))
    };

    println!(
        "{:<15} {:<18} {:>12} {:>21} {:>12} {:>21}  {:>7}  verdict",
        "workload", "metric", "a", "a q1..q3", "b", "b q1..q3", "bound"
    );
    let mut any_worse = false;
    for w in list("workloads")? {
        let name = w.get("name").and_then(Json::as_str).unwrap_or_default();
        let (Some(wa), Some(wb)) = (workload_named(a, name), workload_named(b, name)) else {
            return Err(format!("workload {name} is missing from a result file"));
        };
        for m in list("end_to_end")? {
            let metric = m.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = m.get("better").and_then(Json::as_str) != Some("higher");
            let (Some(sa), Some(sb)) = (side(wa, metric), side(wb, metric)) else {
                return Err(format!("{name}: {metric} is missing from a result file"));
            };
            let verdict = judge(sa, sb, lower, bound);
            any_worse |= verdict == Verdict::Worse;
            let quartiles = |s: Side| {
                s.quartiles
                    .map_or_else(String::new, |(q1, q3)| format!("{q1:.4}..{q3:.4}"))
            };
            println!(
                "{name:<15} {metric:<18} {:>12.5} {:>21} {:>12.5} {:>21}  {:>6.2}%  {}",
                sa.value,
                quartiles(sa),
                sb.value,
                quartiles(sb),
                bound * 100.0,
                verdict.as_str()
            );
        }
        // A side whose output checks failed measured a broken program:
        // its numbers are not evidence of anything.
        for (path, side) in [(a_path, wa), (b_path, wb)] {
            if side.get("correct") != Some(&Json::Bool(true)) {
                any_worse = true;
                println!("{name:<15} an output check failed in {path}: worse");
            }
        }
        // Any rise in the share of failed operations is worse.
        let (Some(fa), Some(fb)) = (failed_share(wa), failed_share(wb)) else {
            return Err(format!(
                "{name}: failed/attempted missing from a result file"
            ));
        };
        let verdict = if fb > fa {
            Verdict::Worse
        } else if fb < fa {
            Verdict::Better
        } else {
            Verdict::Same
        };
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{name:<15} {:<18} {fa:>12.5} {:>21} {fb:>12.5} {:>21}  {:>6.2}%  {}",
            "failed_share",
            "",
            "",
            0.0,
            verdict.as_str()
        );
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact(value: f64) -> Side {
        Side {
            value,
            quartiles: None,
        }
    }

    fn timed(value: f64, q1: f64, q3: f64) -> Side {
        Side {
            value,
            quartiles: Some((q1, q3)),
        }
    }

    #[test]
    fn exact_metrics_are_judged_by_the_bound_alone() {
        assert_eq!(judge(exact(100.0), exact(101.9), true, 0.02), Verdict::Same);
        assert_eq!(
            judge(exact(100.0), exact(102.1), true, 0.02),
            Verdict::Worse
        );
        assert_eq!(
            judge(exact(100.0), exact(97.0), true, 0.02),
            Verdict::Better
        );
        assert_eq!(judge(exact(0.0), exact(0.0), true, 0.1), Verdict::Same);
        assert_eq!(judge(exact(0.0), exact(0.5), true, 0.1), Verdict::Worse);
        assert_eq!(judge(exact(0.0), exact(0.5), false, 0.1), Verdict::Better);
    }

    #[test]
    fn direction_flips_for_higher_is_better() {
        assert_eq!(judge(exact(0.99), exact(0.97), false, 0.01), Verdict::Worse);
        assert_eq!(
            judge(exact(0.97), exact(0.99), false, 0.01),
            Verdict::Better
        );
        assert_eq!(judge(exact(0.99), exact(0.985), false, 0.01), Verdict::Same);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_same() {
        let noisy = timed(8.6, 8.0, 9.4); // 16% spread
        assert_eq!(
            judge(noisy, timed(8.8, 8.5, 9.0), true, 0.10),
            Verdict::Unresolved
        );
        // ... unless the difference clears the spread too.
        assert_eq!(
            judge(noisy, timed(11.0, 10.8, 11.2), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(noisy, timed(6.0, 5.9, 6.1), true, 0.10),
            Verdict::Better
        );
        // A steady pair within the bound is the same.
        assert_eq!(
            judge(timed(8.6, 8.5, 8.7), timed(8.8, 8.7, 8.9), true, 0.10),
            Verdict::Same
        );
    }

    /// A result file with one workload and one metric.
    fn result(seed: u64, correct: bool, value: f64) -> Json {
        let text = format!(
            r#"{{"conditions": {{"seed": {seed}, "seconds": 27}},
                "workloads": [{{"name": "w", "correct": {correct}, "attempted": 10, "failed": 0,
                               "end_to_end": {{"m": {{"value": {value}}}}}}}]}}"#
        );
        json::parse(&text).unwrap()
    }

    #[test]
    fn files_must_share_their_conditions_and_pass_their_checks() {
        let manifest = json::parse(
            r#"{"workloads": [{"name": "w"}],
                "end_to_end": [{"name": "m", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let run = |a: &Json, b: &Json| compare(("a.json", a), ("b.json", b), &manifest);
        assert_eq!(run(&result(1, true, 5.0), &result(1, true, 5.2)), Ok(true));
        assert_eq!(run(&result(1, true, 5.0), &result(1, true, 6.0)), Ok(false));
        let err = run(&result(1, true, 5.0), &result(2, true, 5.0)).unwrap_err();
        assert!(err.contains("seed differs"), "{err}");
        // Identical numbers, but one side failed an output check.
        assert_eq!(
            run(&result(1, true, 5.0), &result(1, false, 5.0)),
            Ok(false)
        );
        assert_eq!(
            run(&result(1, false, 5.0), &result(1, true, 5.0)),
            Ok(false)
        );
    }
}
