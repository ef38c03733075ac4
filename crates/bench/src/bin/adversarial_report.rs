//! `adversarial_report` — the robustness-trajectory emitter.
//!
//! Runs the full Byzantine attacker catalog (stale replay, obituary
//! forgery, selective forwarding, flood amplification, eclipse) in the
//! LAN model of the benchmark of record
//! (`fabric_experiments::adversarial::world`), and writes
//! `ADVERSARIAL_report.json`, so every change leaves a machine-readable
//! record of which guarantees survive each attacker and what the attacks
//! cost.
//!
//! ```text
//! adversarial_report [output.json]
//! ```
//!
//! Exits non-zero when any guarantee falls: unlike wall-clock perf, a
//! violated robustness guarantee is never noise.

use fabric_experiments::adversarial::{render_adversarial, run_adversarial, AdversarialConfig};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ADVERSARIAL_report.json".to_owned());

    let report = run_adversarial(&AdversarialConfig::standard());
    eprint!("{}", render_adversarial(&report));

    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    if !report.all_held() {
        eprintln!("::error::adversarial guarantees violated (see {out_path})");
        std::process::exit(1);
    }
}
