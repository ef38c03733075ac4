//! `adversarial_report` — the robustness-trajectory emitter.
//!
//! Runs the full Byzantine attacker catalog (stale replay, obituary
//! forgery, selective forwarding, flood amplification, eclipse) under
//! both anti-entropy wire formats, in the LAN model of the benchmark of
//! record (`fabric_experiments::adversarial::world`), and writes
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

    let full = run_adversarial(&AdversarialConfig::standard());
    eprint!("{}", render_adversarial(&full));
    let delta = run_adversarial(&AdversarialConfig::standard_delta());
    eprint!("{}", render_adversarial(&delta));

    let mut json = String::from("{\n  \"sweeps\": [\n");
    for (i, report) in [&full, &delta].iter().enumerate() {
        // Indent each sweep's own rendering under the wrapper array.
        let body = report
            .to_json()
            .trim_end()
            .lines()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join("\n");
        json.push_str(&body);
        json.push_str(if i == 0 { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    if !full.all_held() || !delta.all_held() {
        eprintln!("::error::adversarial guarantees violated (see {out_path})");
        std::process::exit(1);
    }
}
