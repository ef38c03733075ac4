//! End-to-end integration tests spanning every crate: the paper's headline
//! claims at reduced scale, ledger convergence, and determinism.

use fair_gossip::experiments::conflicts::{run_conflicts, ConflictConfig};
use fair_gossip::experiments::deployment::Deployment;
use fair_gossip::experiments::dissemination::{run_dissemination, DisseminationConfig};
use fair_gossip::experiments::net::NetParams;
use fair_gossip::experiments::scenario::ScenarioNet;
use fair_gossip::gossip::config::GossipConfig;
use fair_gossip::orderer::cutter::BatchConfig;
use fair_gossip::orderer::service::OrdererConfig;
use fair_gossip::sim::{Duration, NetworkConfig};
use fair_gossip::types::block::verify_chain;
use fair_gossip::workload::schedule::{payload_schedule, PayloadWorkload};

fn dissemination(
    preset: DisseminationConfig,
    peers: usize,
    txs: usize,
) -> fair_gossip::experiments::DisseminationResult {
    let mut cfg = preset.scaled(txs);
    cfg.peers = peers;
    cfg.network = NetworkConfig::lan(peers + 2);
    run_dissemination(&cfg)
}

#[test]
fn headline_claim_tail_latency_improves_by_an_order_of_magnitude() {
    let orig = dissemination(DisseminationConfig::fig04_06_original(), 60, 1500);
    let enh = dissemination(DisseminationConfig::fig07_09_enhanced_f4(), 60, 1500);
    assert_eq!(orig.completeness, 1.0);
    assert_eq!(enh.completeness, 1.0);
    let orig_tail = orig.pooled_cdf().quantile(0.999).as_secs_f64();
    let enh_tail = enh.pooled_cdf().quantile(0.999).as_secs_f64();
    assert!(
        orig_tail / enh_tail > 8.0,
        "paper claims >10x at n=100; measured {:.1}x at n=60 ({orig_tail:.3}s vs {enh_tail:.3}s)",
        orig_tail / enh_tail
    );
}

#[test]
fn headline_claim_bandwidth_drops_by_about_forty_percent() {
    let orig = dissemination(DisseminationConfig::fig04_06_original(), 60, 1500);
    let enh = dissemination(DisseminationConfig::fig07_09_enhanced_f4(), 60, 1500);
    let orig_avg = orig
        .bandwidth
        .regular
        .average(Some(orig.bandwidth.active_buckets));
    let enh_avg = enh
        .bandwidth
        .regular
        .average(Some(enh.bandwidth.active_buckets));
    let saving = 100.0 * (1.0 - enh_avg / orig_avg);
    assert!(
        (25.0..=60.0).contains(&saving),
        "paper reports >40% with background included; measured {saving:.0}% ({orig_avg:.3} -> {enh_avg:.3} MB/s)"
    );
}

#[test]
fn both_enhanced_configurations_deliver_everything_sub_second() {
    for preset in [
        DisseminationConfig::fig07_09_enhanced_f4(),
        DisseminationConfig::fig12_14_enhanced_f2(),
    ] {
        let res = dissemination(preset, 80, 1000);
        assert_eq!(res.completeness, 1.0);
        let max = res.pooled_cdf().max();
        assert!(
            max < Duration::from_secs(1),
            "enhanced worst case must stay sub-second, got {max}"
        );
    }
}

#[test]
fn conflicts_reduce_with_enhanced_gossip_on_average() {
    let mut orig_total = 0u64;
    let mut enh_total = 0u64;
    for seed in 0..4 {
        for (gossip, total) in [
            (GossipConfig::original_fabric(), &mut orig_total),
            (GossipConfig::enhanced_f4(), &mut enh_total),
        ] {
            let mut cfg = ConflictConfig::paper(gossip, Duration::from_secs(1)).scaled(40, 15);
            cfg.peers = 40;
            cfg.network = NetworkConfig::lan(42);
            cfg.seed = 100 + seed;
            *total += run_conflicts(&cfg).conflicts;
        }
    }
    assert!(
        enh_total < orig_total,
        "enhanced gossip must invalidate fewer transactions: {enh_total} vs {orig_total}"
    );
}

#[test]
fn every_ledger_converges_to_the_same_chain() {
    // Full ledgers on all peers: after dissemination, every copy must hold
    // the identical, hash-valid chain with identical validation stats.
    let peers = 25;
    let orderer = OrdererConfig::kafka(BatchConfig::paper_dissemination());
    let mut params = NetParams::new(peers, GossipConfig::enhanced_f4(), orderer);
    params.full_ledgers = true;
    let schedule = payload_schedule(&PayloadWorkload::shortened(500));
    let network = NetworkConfig::lan(0);
    let d = Deployment::new(params, schedule, &network, 11, Duration::ZERO);
    let mut scenario = ScenarioNet::over(d);
    scenario.run_for(Duration::from_secs(120));

    let net = scenario.sim().protocol();
    assert_eq!(net.commit_errors(), 0);
    let reference = net.ledger(0).unwrap();
    assert_eq!(
        reference.height(),
        net.blocks_cut() + 1,
        "genesis + every cut block"
    );
    assert_eq!(verify_chain(reference.blocks()), Ok(()));
    for i in 1..peers {
        let ledger = net.ledger(i).unwrap();
        assert_eq!(ledger.height(), reference.height(), "peer {i} height");
        assert_eq!(
            ledger.latest_hash(),
            reference.latest_hash(),
            "peer {i} tip"
        );
        assert_eq!(
            ledger.stats(),
            reference.stats(),
            "peer {i} validation stats"
        );
    }
}

#[test]
fn dissemination_is_deterministic_across_identical_runs() {
    let a = dissemination(DisseminationConfig::fig04_06_original(), 40, 800);
    let b = dissemination(DisseminationConfig::fig04_06_original(), 40, 800);
    assert_eq!(a.events, b.events);
    assert_eq!(a.blocks, b.blocks);
    assert_eq!(a.peer_traffic_mb, b.peer_traffic_mb);
    assert_eq!(a.pooled_cdf().samples(), b.pooled_cdf().samples());
}

#[test]
fn seeds_actually_change_the_execution() {
    let mut cfg = DisseminationConfig::fig07_09_enhanced_f4().scaled(500);
    cfg.peers = 40;
    cfg.network = NetworkConfig::lan(42);
    let a = run_dissemination(&cfg);
    cfg.seed += 1;
    let b = run_dissemination(&cfg);
    assert_ne!(
        a.pooled_cdf().samples(),
        b.pooled_cdf().samples(),
        "different seeds must explore different randomness"
    );
}

#[test]
fn enhanced_curves_are_near_linear_on_the_logit_plot() {
    // The paper: "the curves in Figures 7 and 8 are almost linear, which we
    // expect from probability plots with a logarithmic scale based on a
    // logistic distribution", while the original's fat pull tail breaks the
    // line. Quantified by the logistic-fit R² of the pooled latency CDF.
    use fair_gossip::metrics::cdf::logistic_fit_r2;
    let orig = dissemination(DisseminationConfig::fig04_06_original(), 60, 1500);
    let enh = dissemination(DisseminationConfig::fig07_09_enhanced_f4(), 60, 1500);
    let orig_fit = logistic_fit_r2(&orig.pooled_cdf());
    let enh_fit = logistic_fit_r2(&enh.pooled_cdf());
    assert!(
        enh_fit > orig_fit,
        "enhanced must look more logistic: R² {enh_fit:.4} vs original {orig_fit:.4}"
    );
    assert!(
        enh_fit > 0.8,
        "enhanced must be close to a straight line: R² {enh_fit:.4}"
    );
}
