//! Property-based tests over the core invariants, spanning crates.

use std::sync::Arc;

use proptest::prelude::*;

use fair_gossip::analysis::epidemic::{
    carrying_capacity, imperfect_dissemination_probability, psi,
};
use fair_gossip::analysis::lambert::lambert_w0;
use fair_gossip::analysis::ttl::ttl_for;
use fair_gossip::gossip::store::BlockStore;
use fair_gossip::ledger::ledger::Ledger;
use fair_gossip::metrics::cdf::Cdf;
use fair_gossip::metrics::fairness::jain_index;
use fair_gossip::orderer::cutter::{BatchConfig, BlockCutter};
use fair_gossip::sim::Duration;
use fair_gossip::types::block::Block;
use fair_gossip::types::crypto::{sha256, Hash256, Sha256};
use fair_gossip::types::ids::{ClientId, PeerId, TxId};
use fair_gossip::types::msp::Msp;
use fair_gossip::types::rwset::RwSet;
use fair_gossip::types::transaction::{EndorsementPolicy, Transaction};

proptest! {
    /// SHA-256 must not care how the input is chunked.
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                         cuts in proptest::collection::vec(0usize..2048, 0..8)) {
        let oneshot = sha256(&data);
        let mut hasher = Sha256::new();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
        cuts.push(0);
        cuts.push(data.len());
        cuts.sort_unstable();
        for pair in cuts.windows(2) {
            hasher.update(&data[pair[0]..pair[1]]);
        }
        prop_assert_eq!(hasher.finalize(), oneshot);
    }

    /// Distinct inputs produce distinct digests (collision resistance at
    /// property-test scale).
    #[test]
    fn sha256_distinguishes_inputs(a in proptest::collection::vec(any::<u8>(), 0..256),
                                   b in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(a != b);
        prop_assert_ne!(sha256(&a), sha256(&b));
    }

    /// The block store delivers every inserted block exactly once, in
    /// height order, whatever the arrival order.
    #[test]
    fn block_store_delivers_in_order(order in proptest::sample::subsequence((1u64..40).collect::<Vec<_>>(), 1..39)) {
        let mut shuffled = order.clone();
        shuffled.reverse();
        let mut store = BlockStore::new();
        let mut delivered = Vec::new();
        for n in &shuffled {
            if let Some(run) = store.insert(Block::new(*n, Hash256::ZERO, vec![]).into()) {
                delivered.extend(run.iter().map(|b| b.number()));
            }
        }
        // Delivered = the maximal contiguous prefix 1..=k of the inserted set.
        let mut expected = Vec::new();
        let mut k = 1;
        while shuffled.contains(&k) {
            expected.push(k);
            k += 1;
        }
        prop_assert_eq!(delivered, expected);
        prop_assert_eq!(store.height(), k);
    }

    /// ψ is monotone in the round number and bounded by n.
    #[test]
    fn psi_monotone_and_bounded(n in 2.0f64..500.0, fout in 1.0f64..8.0, r in 0u32..30) {
        let a = psi(n, fout, r);
        let b = psi(n, fout, r + 1);
        prop_assert!(b >= a - 1e-9);
        prop_assert!(b <= n + 1e-9);
    }

    /// The miss probability shrinks (weakly) with TTL and fan-out.
    #[test]
    fn pe_monotone(n in 10.0f64..300.0, fout in 2.0f64..6.0, ttl in 1u32..25) {
        let base = imperfect_dissemination_probability(n, fout, ttl);
        prop_assert!(imperfect_dissemination_probability(n, fout, ttl + 1) <= base + 1e-15);
        prop_assert!(imperfect_dissemination_probability(n, fout + 1.0, ttl) <= base + 1e-15);
    }

    /// `ttl_for` returns the minimal TTL meeting the target.
    #[test]
    fn ttl_for_is_minimal(n in 10usize..400, fout in 2usize..6) {
        let target = 1e-6;
        let ttl = ttl_for(n, fout, target);
        prop_assert!(imperfect_dissemination_probability(n as f64, fout as f64, ttl) <= target);
        if ttl > 1 {
            prop_assert!(imperfect_dissemination_probability(n as f64, fout as f64, ttl - 1) > target);
        }
    }

    /// The Lambert W identity holds across the domain.
    #[test]
    fn lambert_identity(x in -0.3678f64..1e4) {
        let w = lambert_w0(x);
        prop_assert!((w * w.exp() - x).abs() <= 1e-6 * (1.0 + x.abs()));
    }

    /// The carrying capacity is a fixed point of the epidemic map.
    #[test]
    fn carrying_capacity_fixed_point(n in 10.0f64..1000.0, fout in 1.5f64..8.0) {
        let gamma = carrying_capacity(n, fout);
        let c = gamma / n;
        prop_assert!((c - (1.0 - (-fout * c).exp())).abs() < 1e-8);
    }

    /// CDF quantiles are monotone and bracketed by the extreme samples.
    #[test]
    fn cdf_quantiles_monotone(mut samples in proptest::collection::vec(0u64..10_000_000, 1..200),
                              qa in 0.0f64..1.0, qb in 0.0f64..1.0) {
        let cdf = Cdf::new(samples.drain(..).map(Duration::from_nanos).collect());
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(cdf.quantile(lo) <= cdf.quantile(hi));
        prop_assert!(cdf.quantile(0.0) <= cdf.quantile(1.0));
    }

    /// Jain's index lives in [1/n, 1] and is scale invariant.
    #[test]
    fn jain_bounds(values in proptest::collection::vec(0.001f64..1e6, 1..64), scale in 0.001f64..1000.0) {
        let idx = jain_index(&values);
        prop_assert!(idx >= 1.0 / values.len() as f64 - 1e-9);
        prop_assert!(idx <= 1.0 + 1e-9);
        let scaled: Vec<f64> = values.iter().map(|v| v * scale).collect();
        prop_assert!((jain_index(&scaled) - idx).abs() < 1e-6);
    }

    /// The block cutter never loses or duplicates transactions, never
    /// exceeds the message cap, and preserves submission order.
    #[test]
    fn cutter_conserves_transactions(paddings in proptest::collection::vec(0u32..4000, 1..120),
                                     max_count in 1usize..20) {
        let mut cutter = BlockCutter::new(BatchConfig {
            max_message_count: max_count,
            preferred_max_bytes: 8_000,
            batch_timeout: Duration::from_secs(2),
        });
        let mut out: Vec<u64> = Vec::new();
        for (i, padding) in paddings.iter().enumerate() {
            let tx = Transaction::new(TxId(i as u64), "cc", ClientId(0), RwSet::default())
                .with_padding(*padding);
            let (batches, _) = cutter.ordered(tx);
            for batch in batches {
                prop_assert!(batch.len() <= max_count);
                out.extend(batch.iter().map(|t| t.id.0));
            }
        }
        out.extend(cutter.cut().iter().map(|t| t.id.0));
        let expected: Vec<u64> = (0..paddings.len() as u64).collect();
        prop_assert_eq!(out, expected);
    }

    /// Ledger commits preserve hash-chain integrity for arbitrary splits of
    /// transactions into blocks.
    #[test]
    fn ledger_chain_integrity(splits in proptest::collection::vec(1usize..5, 1..12)) {
        let msp = Arc::new(Msp::single_org(3));
        let mut ledger = Ledger::new(msp.clone(), EndorsementPolicy::AnyMember);
        let mut id = 0u64;
        for (height, split) in splits.iter().enumerate() {
            let txs: Vec<Transaction> = (0..*split)
                .map(|_| {
                    id += 1;
                    let rwset = RwSet::builder().write_u64(format!("k{id}"), id).build();
                    let mut tx = Transaction::new(TxId(id), "cc", ClientId(0), rwset);
                    tx.endorse(&msp, PeerId(1));
                    tx
                })
                .collect();
            let block = Block::new(height as u64 + 1, ledger.latest_hash(), txs).into();
            ledger.commit(block).unwrap();
            prop_assert_eq!(ledger.stats().invalid_txs(), 0);
        }
        prop_assert_eq!(fair_gossip::types::block::verify_chain(ledger.blocks()), Ok(()));
        prop_assert_eq!(ledger.stats().valid_txs, id);
    }
}
