//! `adversarial_report` — the Byzantine-tolerance emitter.
//!
//! Sweeps every attacker family of `fabric_experiments::adversarial`
//! (membership and dissemination attacks) over the
//! attacker count `f` at each deployment size `N`, in the LAN model of
//! the benchmark of record (`fabric_experiments::adversarial::world`),
//! and writes `ADVERSARIAL_report.json`: per family and `N` the measured
//! `f*`, and per point whether the guarantee held and what the attack
//! cost over the attacker-free baseline.
//!
//! ```text
//! adversarial_report [output.json]
//! ```
//!
//! Exits non-zero when any family's measured `f*` falls below the sweep's
//! cap `N − 3`, or below its pinned floor for the families measured under
//! the cap (`fabric_experiments::adversarial::FLOORS`): the sweep is
//! deterministic, so a fallen guarantee is a regression, never noise.

use fabric_experiments::adversarial::{render_adversarial, run_adversarial, FLOORS};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "ADVERSARIAL_report.json".to_owned());

    let report = run_adversarial();
    eprint!("{}", render_adversarial(&report));

    if let Err(e) = std::fs::write(&out_path, report.to_json()) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {out_path}");

    if !report.meets_floors(FLOORS) {
        eprintln!("::error::a family's f* fell below its pinned floor (see {out_path})");
        std::process::exit(1);
    }
}
