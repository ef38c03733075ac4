//! `tolerance_report` — the quantitative Byzantine-tolerance emitter.
//!
//! Sweeps every attacker family (obituary coalitions, adaptive leader
//! hunters, dissemination-layer withholders and equivocators) across
//! growing attacker counts `f` at each deployment size `N`, in the LAN
//! model of the benchmark of record
//! (`fabric_experiments::adversarial::world`), and writes
//! `TOLERANCE_report.json`: the measured `f*(N)` frontier plus the
//! degradation curve below it.
//!
//! ```text
//! tolerance_report [output.json]
//! ```
//!
//! Exits non-zero when any family's measured `f*` falls below the pinned
//! frontier: the sweep is deterministic, so a shrunken bound is a
//! regression, never noise.

use fabric_experiments::tolerance::{render_tolerance, run_tolerance, ToleranceConfig};

/// The pinned frontier: `(family, deployment N, measured f*)`, as measured
/// in the LAN model (every family holds to the sweep's structural cap,
/// `N - 3`, as it did in the zero-latency network the frontier was first
/// taken in). A change that shrinks any of these bounds fails CI.
const FLOORS: &[(&str, u32, u32)] = &[
    ("obituary-coalition", 6, 3),
    ("adaptive-leader-hunt", 6, 3),
    ("withholder", 6, 3),
    ("equivocator", 6, 3),
    ("obituary-coalition", 9, 6),
    ("adaptive-leader-hunt", 9, 6),
    ("withholder", 9, 6),
    ("equivocator", 9, 6),
];

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "TOLERANCE_report.json".to_owned());

    let report = run_tolerance(&ToleranceConfig::standard());
    eprint!("{}", render_tolerance(&report));

    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    if !report.meets_floors(FLOORS) {
        eprintln!("::error::tolerance frontier shrank below the pinned f* (see {out_path})");
        std::process::exit(1);
    }
}
