//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [full|quick|smoke] [figures|table2|analysis|proposal|ablations|long_chain|all]
//! ```
//!
//! Prints the series behind Figures 4–14, Table II, the §IV infect-and-die
//! claim and the appendix's p_e/TTL numbers, the last two measured on the
//! simulator next to their closed forms. `full` matches the paper's
//! scale (1 000 blocks, five Table II repetitions) and takes minutes;
//! `quick` keeps every protocol parameter but shortens the workloads.
//! `ablations` (seven sweeps over the design choices, each at twice the
//! scale's figure workload) and `long_chain` (joiner catch-up cost vs
//! chain height) are beyond the paper and not part of `all`. Defaults:
//! `quick all`.

use bench::{run_scaled, Scale};
use desim::{Duration, NetworkConfig};
use fabric_experiments::conflicts::{run_table2, ConflictConfig};
use fabric_experiments::dissemination::{run_dissemination, run_one_block, DisseminationConfig};
use fabric_experiments::long_chain::{render_long_chain, run_long_chain, LongChainConfig};
use fabric_experiments::report;
use fabric_gossip::config::{GossipConfig, PushMode};
use gossip_analysis::coverage::infect_and_die_expected_coverage;
use gossip_analysis::epidemic::{
    carrying_capacity, expected_digests, imperfect_dissemination_probability,
};
use gossip_analysis::ttl::{ttl_for, TtlTable};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = match args.first() {
        None => Scale::Quick,
        Some(s) => Scale::parse(s).unwrap_or_else(|| usage(&format!("unknown scale {s:?}"))),
    };
    let what = args.get(1).map_or("all", String::as_str);
    let run: fn(Scale) = match what {
        "figures" => figures,
        "table2" => table2,
        "analysis" => analysis,
        "proposal" => proposal_conflicts,
        "ablations" => ablations,
        "long_chain" => long_chain,
        "all" => |scale| {
            analysis(scale);
            figures(scale);
            table2(scale);
            proposal_conflicts(scale);
        },
        other => usage(&format!("unknown target {other:?}")),
    };

    println!("# fair-gossip reproduction — scale: {scale:?}, target: {what}\n");
    run(scale);
}

fn usage(problem: &str) -> ! {
    eprintln!("repro: {problem}");
    eprintln!(
        "usage: repro [full|quick|smoke] [figures|table2|analysis|proposal|ablations|long_chain|all]"
    );
    std::process::exit(2);
}

/// Joiner catch-up cost swept over chain height: genesis replay vs
/// snapshot bootstrap (see [`LongChainConfig::standard`]).
fn long_chain(scale: Scale) {
    let cfg = match scale {
        Scale::Full => LongChainConfig::standard(),
        Scale::Quick | Scale::Smoke => LongChainConfig::quick(),
    };
    println!("{}", render_long_chain("long_chain", &run_long_chain(&cfg)));
}

/// Proposal-time conflicts (§II-C): three endorsers, read sets compared at
/// the client. Not a paper table — the paper's Table II isolates
/// validation-time conflicts with one endorser — but the experiment its
/// §II-C analysis implies.
fn proposal_conflicts(scale: Scale) {
    let (keys, rounds, reps) = scale.table2_shape();
    println!(
        "== Proposal-time conflicts (3 endorsers, {keys} keys x {rounds} rounds, {reps} run(s)) =="
    );
    for (label, gossip) in [
        ("original", GossipConfig::original_fabric()),
        ("enhanced", GossipConfig::enhanced_f4()),
    ] {
        let mut proposal = 0u64;
        let mut validation = 0u64;
        for r in 0..reps {
            let mut cfg =
                ConflictConfig::paper(gossip.clone(), Duration::from_secs(1)).scaled(keys, rounds);
            cfg.endorsers = 3;
            cfg.seed = 1 + 1000 * r as u64;
            let res = fabric_experiments::conflicts::run_conflicts(&cfg);
            proposal += res.proposal_conflicts;
            validation += res.conflicts;
        }
        println!(
            "{label:<10} proposal-time {:>7.1}  validation-time {:>7.1}  (avg per run)",
            proposal as f64 / reps as f64,
            validation as f64 / reps as f64,
        );
    }
    println!();
}

fn figures(scale: Scale) {
    let runs: [(&str, &str, DisseminationConfig); 5] = [
        (
            "Figs 4/5/6",
            "original Fabric gossip",
            DisseminationConfig::fig04_06_original(),
        ),
        (
            "Figs 7/8/9",
            "enhanced fout=4 TTL=9",
            DisseminationConfig::fig07_09_enhanced_f4(),
        ),
        (
            "Fig 10",
            "enhanced, f_leader_out = fout = 4",
            DisseminationConfig::fig10_heavy_leader(),
        ),
        (
            "Fig 11",
            "enhanced without digests",
            DisseminationConfig::fig11_no_digests(),
        ),
        (
            "Figs 12/13/14",
            "enhanced fout=2 TTL=19",
            DisseminationConfig::fig12_14_enhanced_f2(),
        ),
    ];
    for (figs, label, preset) in runs {
        let result = run_scaled(preset, scale);
        println!(
            "{}",
            report::render_summary(&format!("{figs} ({label})"), &result)
        );
        println!(
            "{}",
            report::render_peer_level(&format!("{figs}: peer-level latency"), &result)
        );
        println!(
            "{}",
            report::render_block_level(&format!("{figs}: block-level latency"), &result)
        );
        println!(
            "{}",
            report::render_bandwidth(&format!("{figs}: bandwidth"), &result)
        );
    }
}

fn table2(scale: Scale) {
    let (keys, rounds, reps) = scale.table2_shape();
    let template = ConflictConfig::paper(GossipConfig::enhanced_f4(), Duration::from_secs(2))
        .scaled(keys, rounds);
    let periods = [
        Duration::from_secs(2),
        Duration::from_millis(1500),
        Duration::from_secs(1),
        Duration::from_millis(750),
    ];
    let rows = run_table2(&template, &periods, reps);
    println!("== Table II: invalidated transactions ({keys} keys x {rounds} rounds, {reps} run(s) averaged) ==");
    println!("{}", report::render_table2(&rows));
    println!("paper reference (100 x 100, 5 runs): 803/664 (-17%), 814/653 (-20%), 763/564 (-26%), 823/527 (-36%)\n");
}

/// The paper's closed forms next to what the simulator does with one
/// block, push only, in both network models (`run_one_block`), then the
/// appendix's tables.
fn analysis(scale: Scale) {
    let seeds = scale.conformance_seeds();
    println!(
        "== Section IV and appendix on the simulator: one block, push only, n=100, {seeds} seeds =="
    );
    println!(
        "{:<18} {:<6} {:>8} {:>6} {:>11} {:>13} {:>10}   closed form",
        "config", "net", "coverage", "σ", "block sends", "digests/block", "miss share"
    );
    for (label, gossip) in [
        ("original fout=3", GossipConfig::original_fabric()),
        ("enhanced (4,9,2)", GossipConfig::enhanced(4, 9, 2)),
        ("enhanced (2,19,3)", GossipConfig::enhanced(2, 19, 3)),
        ("enhanced (4,5,2)", GossipConfig::enhanced(4, 5, 2)),
    ] {
        let (n, f) = (100.0, gossip.fout as f64);
        let closed_form = match gossip.ttl() {
            0 => {
                let c = infect_and_die_expected_coverage(n, f);
                format!("c = {c:.2}, {f}c = {:.1} | paper: 94, 2.6, 282", f * c)
            }
            ttl => format!(
                "m = {:.1}, p_e <= {:.3e}",
                expected_digests(n, f, ttl),
                imperfect_dissemination_probability(n, f, ttl)
            ),
        };
        for (net, network) in [
            ("ideal", NetworkConfig::ideal(100)),
            ("lan", NetworkConfig::lan(100)),
        ] {
            let runs = run_one_block(&gossip, &network, 0..seeds);
            println!(
                "{label:<18} {net:<6} {:>8.2} {:>6.2} {:>11.1} {:>13.1} {:>10.3}   {closed_form}",
                runs.mean(|r| r.covered as f64),
                runs.std_dev(|r| r.covered as f64),
                runs.mean(|r| r.blocks_sent as f64),
                runs.mean(|r| r.digests_sent as f64),
                runs.miss_share(),
            );
        }
    }
    println!();

    println!("== Appendix: imperfect-dissemination probability at n=100 ==");
    for (fout, ttl) in [(4u32, 9u32), (2, 19), (4, 12)] {
        let pe = imperfect_dissemination_probability(100.0, f64::from(fout), ttl);
        println!("fout={fout:<2} TTL={ttl:<3} p_e <= {pe:.3e}");
    }
    println!("paper: (4, 9) and (2, 19) target 1e-6; (4, 12) reaches 1e-12\n");

    println!("== Appendix: carrying capacity γ/n ==");
    for f in [2.0, 3.0, 4.0, 6.0] {
        println!("fout={f}: γ/n = {:.4}", carrying_capacity(100.0, f) / 100.0);
    }
    println!();

    println!("== Appendix: TTL lookup table (p_e = 1e-6) ==");
    for fout in [2usize, 3, 4, 6] {
        let table = TtlTable::build(fout, 1e-6, TtlTable::default_grid());
        let row: Vec<String> = table
            .entries()
            .iter()
            .map(|(n, t)| format!("{n}->{t}"))
            .collect();
        println!("fout={fout}: {}", row.join("  "));
    }
    println!();
}

/// Ablations over the design choices the paper calls out: the `t_push = 0`
/// unbiased-randomness rule (§IV: buffering pairs for 10 ms merges their
/// target samples), `TTL_direct`, fan-out with the TTL the analysis
/// assigns to it, the original protocol's pull period (the tail's direct
/// driver), free riders, organizations and organization size.
fn ablations(scale: Scale) {
    let cell = |gossip: GossipConfig| {
        let mut cfg =
            DisseminationConfig::fig07_09_enhanced_f4().scaled(scale.dissemination_txs() * 2);
        cfg.gossip = gossip;
        cfg
    };
    let row = |label: &str, cfg: &DisseminationConfig| {
        let res = run_dissemination(cfg);
        let pooled = res.pooled_cdf();
        println!(
            "{label:<28} mean {:>10} p99.9 {:>10} max {:>10} traffic {:>8.1} MB completeness {:.4}",
            pooled.mean().to_string(),
            pooled.quantile(0.999).to_string(),
            pooled.max().to_string(),
            res.peer_traffic_mb,
            res.completeness,
        );
    };

    println!("== Ablation: enhanced push buffering (t_push) ==");
    for (label, tpush_ms) in [
        ("t_push = 0 (paper)", 0u64),
        ("t_push = 10 ms (biased)", 10),
    ] {
        let mut gossip = GossipConfig::enhanced_f4();
        if let PushMode::InfectUponContagion { tpush, .. } = &mut gossip.push {
            *tpush = Duration::from_millis(tpush_ms);
        }
        row(label, &cell(gossip));
    }
    println!();

    println!("== Ablation: TTL_direct (direct-push rounds before digests) ==");
    for ttl_direct in [0u32, 2, 4, 9] {
        let gossip = GossipConfig::enhanced(4, 9, ttl_direct);
        row(&format!("TTL_direct = {ttl_direct}"), &cell(gossip));
    }
    println!();

    println!("== Ablation: fan-out with analysis-assigned TTL (p_e = 1e-6) ==");
    for fout in [2usize, 3, 4, 6] {
        let ttl = ttl_for(100, fout, 1e-6);
        let ttl_direct = if fout >= 4 { 2 } else { 3 };
        let gossip = GossipConfig::enhanced(fout, ttl, ttl_direct.min(ttl));
        row(&format!("fout = {fout} (TTL = {ttl})"), &cell(gossip));
    }
    println!();

    println!("== Ablation: original gossip pull period (the tail driver) ==");
    for secs in [2u64, 4, 8] {
        let mut gossip = GossipConfig::original_fabric();
        gossip
            .pull
            .as_mut()
            .expect("the original protocol pulls")
            .tpull = Duration::from_secs(secs);
        row(&format!("t_pull = {secs} s"), &cell(gossip));
    }
    println!();

    println!("== Ablation: free-riding peers (receive, never forward) ==");
    for riders_pct in [0usize, 10, 20, 30] {
        let mut cfg = cell(GossipConfig::enhanced_f4());
        cfg.free_riders = cfg.peers * riders_pct / 100;
        row(&format!("{riders_pct}% free riders"), &cfg);
    }
    println!();

    println!("== Ablation: organizations (push confined per org) ==");
    for orgs in [1usize, 2, 4] {
        let mut cfg = cell(GossipConfig::enhanced_f4());
        cfg.orgs = orgs;
        row(&format!("{orgs} org(s)"), &cfg);
    }
    println!();

    println!("== Ablation: organization size (the paper's §VII scaling argument) ==");
    // TTL re-derived per n from the analysis; tail should grow ~log n while
    // per-peer traffic stays flat — "the good properties of epidemic
    // algorithms shine as the number of peers increases".
    for n in [50usize, 100, 200, 400] {
        let ttl = ttl_for(n, 4, 1e-6);
        let mut cfg = cell(GossipConfig::enhanced(4, ttl, 2));
        cfg.peers = n;
        cfg.network = desim::NetworkConfig::lan(n + 2);
        let res = run_dissemination(&cfg);
        let pooled = res.pooled_cdf();
        println!(
            "n = {n:<4} (TTL {ttl:>2})  mean {:>10}  p99.9 {:>10}  per-peer traffic {:>6.1} MB  completeness {:.4}",
            pooled.mean().to_string(),
            pooled.quantile(0.999).to_string(),
            res.peer_traffic_mb / n as f64,
            res.completeness,
        );
    }
    println!();
}
