//! The paper's closed forms, checked on the simulator behind every
//! figure: one block, push only, a 100-peer static roster
//! ([`run_one_block`]), in the ideal network and in the LAN model of the
//! benchmarks, over 200 seeds each. One test per configuration, so they
//! run in parallel.
//!
//! - §IV: infect-and-die at `fout = 3` reaches 94 ± 2.6 peers and sends
//!   the block in full 282 times (`infect_and_die_expected_coverage`).
//! - Appendix: infect-upon-contagion sends `m = expected_digests(n, f,
//!   TTL)` digests and misses someone with probability at most
//!   `p_e = n(1 − 1/n)^m` (`imperfect_dissemination_probability`). The
//!   paper's TTLs (9 at `fout = 4`, 19 at `fout = 2`) put `p_e` below
//!   1e-6; TTL 5 at `fout = 4` puts it at ≈ 0.27, where misses show.

use fair_gossip::analysis::coverage::infect_and_die_expected_coverage;
use fair_gossip::analysis::epidemic::{expected_digests, imperfect_dissemination_probability};
use fair_gossip::experiments::dissemination::{run_one_block, OneBlockRuns};
use fair_gossip::gossip::config::GossipConfig;
use fair_gossip::sim::NetworkConfig;

const PEERS: usize = 100;
const SEEDS: u64 = 200;

/// `gossip` over [`SEEDS`] seeds in each network model, labelled.
fn both_networks(gossip: &GossipConfig, seeds: u64) -> [(&'static str, OneBlockRuns); 2] {
    [
        ("ideal", NetworkConfig::ideal(PEERS)),
        ("lan", NetworkConfig::lan(PEERS)),
    ]
    .map(|(label, network)| (label, run_one_block(gossip, &network, 0..seeds)))
}

/// The digests sent per block are the appendix's `m` within 3 %. ψ is an
/// upper bound on the peers each round reaches, so `m` over-estimates the
/// digests: a measurement above it by more than the tolerance would mean
/// the protocol forwards more than the model allows; one far below, that
/// `m` (and so `p_e`) is loose.
fn assert_digests_near_m(net: &str, runs: &OneBlockRuns, fout: usize, ttl: u32) {
    let m = expected_digests(PEERS as f64, fout as f64, ttl);
    let digests = runs.mean(|r| r.digests_sent as f64);
    assert!(
        (digests / m - 1.0).abs() <= 0.03,
        "{net}: {digests:.1} digests per block vs m = {m:.1}"
    );
}

/// Checks an infect-upon-contagion configuration whose TTL the appendix
/// picked for `p_e ≤ 1e-6`: every seed reaches everyone, with `m`
/// digests. Returns the runs for further asserts.
fn reaches_everyone_with_m_digests(
    fout: usize,
    ttl: u32,
    ttl_direct: u32,
) -> [(&'static str, OneBlockRuns); 2] {
    let measured = both_networks(&GossipConfig::enhanced(fout, ttl, ttl_direct), SEEDS);
    for (net, runs) in &measured {
        for (seed, r) in runs.runs.iter().enumerate() {
            assert_eq!(r.covered, PEERS, "{net}, seed {seed}: {r:?}");
        }
        assert_digests_near_m(net, runs, fout, ttl);
    }
    measured
}

#[test]
fn infect_and_die_matches_section_iv() {
    let expected = infect_and_die_expected_coverage(PEERS as f64, 3.0);
    for (net, runs) in both_networks(&GossipConfig::original_fabric(), SEEDS) {
        for (seed, r) in runs.runs.iter().enumerate() {
            // Every peer that holds the block pushes it once, to fout = 3
            // others (the leader too: f_leader_out = fout), and nothing
            // else sends a block: sends are exactly 3·coverage, the
            // fixed point's `f·c`.
            assert_eq!(r.blocks_sent, 3 * r.covered as u64, "{net}, seed {seed}");
        }
        let coverage = runs.mean(|r| r.covered as f64);
        let sigma = runs.std_dev(|r| r.covered as f64);
        assert!(
            (coverage - expected).abs() <= 1.0,
            "{net}: mean coverage {coverage:.2} vs fixed point {expected:.2}"
        );
        assert!(
            (sigma - 2.6).abs() <= 0.8,
            "{net}: coverage σ {sigma:.2} vs the paper's 2.6"
        );
        // Hence the pull phase: push alone almost always misses someone.
        assert!(
            runs.miss_share() > 0.9,
            "{net}: miss share {:.3}",
            runs.miss_share()
        );
    }
}

#[test]
fn fout_4_ttl_9_reaches_everyone_with_n_plus_o_n_block_sends() {
    for (net, runs) in reaches_everyone_with_m_digests(4, 9, 2) {
        for (seed, r) in runs.runs.iter().enumerate() {
            // Digests carry the epidemic; full blocks go out about once
            // per peer — n + o(n).
            assert!(
                (99..=160).contains(&r.blocks_sent),
                "{net}, seed {seed}: {} full-block sends",
                r.blocks_sent
            );
            assert_eq!(
                r.digests_received, r.digests_sent,
                "{net}, seed {seed}: a lossless network conserves digests"
            );
            assert!(r.fetch_requests > 0, "{net}, seed {seed}: no fetches");
            assert_eq!(
                r.pull_rounds, 0,
                "{net}, seed {seed}: the enhanced protocol never pulls"
            );
        }
    }
}

#[test]
fn fout_2_ttl_19_reaches_everyone() {
    reaches_everyone_with_m_digests(2, 19, 3);
}

#[test]
fn fout_4_ttl_5_misses_no_more_often_than_p_e() {
    let bound = imperfect_dissemination_probability(PEERS as f64, 4.0, 5);
    // Three binomial standard deviations of a miss share whose true value
    // sits right at the bound.
    let slack = 3.0 * (bound * (1.0 - bound) / SEEDS as f64).sqrt();
    for (net, runs) in both_networks(&GossipConfig::enhanced(4, 5, 2), SEEDS) {
        let miss = runs.miss_share();
        assert!(
            miss <= bound + slack,
            "{net}: miss share {miss:.3} above p_e = {bound:.3} + {slack:.3}"
        );
        assert!(
            miss > bound / 100.0,
            "{net}: miss share {miss:.4} implausibly far below p_e = {bound:.3}"
        );
        assert_digests_near_m(net, &runs, 4, 5);
    }
    // And a TTL far below the analysis' stops the epidemic early: two
    // rounds at fout = 2 reach a handful of peers.
    let short = run_one_block(
        &GossipConfig::enhanced(2, 2, 2),
        &NetworkConfig::ideal(PEERS),
        0..20,
    );
    for (seed, r) in short.runs.iter().enumerate() {
        assert!(
            r.covered < 20,
            "seed {seed}: TTL 2 reached {} peers",
            r.covered
        );
    }
}

#[test]
fn without_digests_every_forward_is_a_full_block() {
    for (net, runs) in both_networks(&GossipConfig::enhanced_no_digests(), 5) {
        for (seed, r) in runs.runs.iter().enumerate() {
            assert_eq!(r.covered, PEERS, "{net}, seed {seed}");
            assert_eq!(r.digests_sent, 0, "{net}, seed {seed}");
            // Figure 11: traffic grows by about an order of magnitude.
            assert!(
                r.blocks_sent > 1_000,
                "{net}, seed {seed}: {} full-block sends",
                r.blocks_sent
            );
        }
    }
}
