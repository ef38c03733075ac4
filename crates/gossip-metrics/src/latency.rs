//! Per-(block, peer) dissemination latency recording.
//!
//! The paper measures, for every block, the time each peer takes to receive
//! it *counted from the start of its dissemination* — the moment the leader
//! (contact peer) gets it from the ordering service. Two views of the same
//! matrix produce the figures:
//!
//! * **peer level** (Figs. 4/7/12): one CDF per peer across blocks;
//! * **block level** (Figs. 5/8/13): one CDF per block across peers.
//!
//! The matrix holds one cell per (block, peer) for the whole run, so a
//! cell is 8 bytes: a `NonZeroU64` stamp, the latency in nanoseconds plus
//! one, and `None` for a peer the block has not reached needs no tag word.

use std::collections::BTreeMap;
use std::num::NonZeroU64;

use desim::{Duration, Time};

use crate::cdf::Cdf;

/// The latency matrix of one dissemination experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyRecorder {
    peers: usize,
    /// Per block: dissemination start and per-peer reception latency.
    blocks: BTreeMap<u64, BlockRecord>,
}

#[derive(Debug, Clone, PartialEq)]
struct BlockRecord {
    start: Time,
    /// Per peer: the stamp of the latency from `start` to its first
    /// reception.
    latencies: Vec<Option<NonZeroU64>>,
}

/// The latency a stamp holds.
fn latency(stamp: NonZeroU64) -> Duration {
    Duration::from_nanos(stamp.get() - 1)
}

impl LatencyRecorder {
    /// A recorder for `peers` peers.
    pub fn new(peers: usize) -> Self {
        LatencyRecorder {
            peers,
            blocks: BTreeMap::new(),
        }
    }

    /// Marks the start of `block`'s dissemination (leader reception).
    /// Re-marking an already started block is ignored.
    pub fn start_block(&mut self, block: u64, at: Time) {
        self.blocks.entry(block).or_insert_with(|| BlockRecord {
            start: at,
            latencies: vec![None; self.peers],
        });
    }

    /// Records `peer`'s first reception of `block` at `at`. Receptions for
    /// unstarted blocks or duplicate receptions are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the latency is the largest a [`Duration`] holds (`at` is
    /// [`Time::MAX`] and the block started at [`Time::ZERO`]).
    pub fn record(&mut self, block: u64, peer: usize, at: Time) {
        let Some(rec) = self.blocks.get_mut(&block) else {
            return;
        };
        let slot = &mut rec.latencies[peer];
        if slot.is_none() {
            let stamp = at.since(rec.start).as_nanos().checked_add(1);
            *slot = Some(
                stamp
                    .and_then(NonZeroU64::new)
                    .expect("Time::MAX is never an arrival"),
            );
        }
    }

    /// Number of peer slots in the matrix (as sized at construction).
    pub fn peers(&self) -> usize {
        self.peers
    }

    /// Number of blocks started.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Fraction of (block, peer) cells filled — 1.0 means every peer
    /// received every block.
    pub fn completeness(&self) -> f64 {
        let total = self.blocks.len() * self.peers;
        if total == 0 {
            return 1.0;
        }
        let filled: usize = self
            .blocks
            .values()
            .map(|r| r.latencies.iter().flatten().count())
            .sum();
        filled as f64 / total as f64
    }

    /// All latencies of one peer across blocks (missing cells skipped).
    pub fn peer_latencies(&self, peer: usize) -> Vec<Duration> {
        self.peer_latencies_from(peer, 0)
    }

    /// One peer's latencies of the blocks numbered `first` and above
    /// (missing cells skipped).
    pub fn peer_latencies_from(&self, peer: usize, first: u64) -> Vec<Duration> {
        self.blocks
            .range(first..)
            .filter_map(|(_, r)| r.latencies[peer].map(latency))
            .collect()
    }

    /// All latencies of one block across peers (missing cells skipped).
    pub fn block_latencies(&self, block: u64) -> Vec<Duration> {
        match self.blocks.get(&block) {
            Some(r) => r.latencies.iter().flatten().copied().map(latency).collect(),
            None => Vec::new(),
        }
    }

    /// Per-peer CDFs, one per peer, in peer order.
    pub fn all_peer_cdfs(&self) -> Vec<Cdf> {
        (0..self.peers)
            .map(|p| Cdf::new(self.peer_latencies(p)))
            .collect()
    }

    /// Per-block CDFs keyed by block number.
    pub fn all_block_cdfs(&self) -> BTreeMap<u64, Cdf> {
        self.blocks
            .keys()
            .map(|&b| (b, Cdf::new(self.block_latencies(b))))
            .collect()
    }

    /// The fastest, median and slowest *peers* by mean latency, as the
    /// paper's peer-level figures select their three series.
    /// `None` if no data was recorded.
    pub fn peer_extremes(&self) -> Option<Extremes> {
        Self::extremes(
            self.all_peer_cdfs()
                .into_iter()
                .enumerate()
                .map(|(i, c)| (i as u64, c)),
        )
    }

    /// The fastest, median and slowest *blocks* by mean latency
    /// (block-level figures). `None` if no data was recorded.
    pub fn block_extremes(&self) -> Option<Extremes> {
        Self::extremes(self.all_block_cdfs().into_iter())
    }

    fn extremes(cdfs: impl Iterator<Item = (u64, Cdf)>) -> Option<Extremes> {
        let mut ranked: Vec<(u64, Cdf)> = cdfs.filter(|(_, c)| !c.is_empty()).collect();
        if ranked.is_empty() {
            return None;
        }
        ranked.sort_by_key(|(_, c)| c.mean());
        let median_idx = ranked.len() / 2;
        let slowest = ranked.len() - 1;
        Some(Extremes {
            fastest: ranked[0].clone(),
            median: ranked[median_idx].clone(),
            slowest: ranked[slowest].clone(),
        })
    }
}

/// The three series the paper's latency figures draw.
#[derive(Debug, Clone)]
pub struct Extremes {
    /// Lowest mean latency: `(id, cdf)`.
    pub fastest: (u64, Cdf),
    /// Median mean latency.
    pub median: (u64, Cdf),
    /// Highest mean latency.
    pub slowest: (u64, Cdf),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    #[test]
    fn records_latency_relative_to_block_start() {
        let mut rec = LatencyRecorder::new(3);
        rec.start_block(1, t(100));
        rec.record(1, 0, t(100)); // the leader itself: zero latency
        rec.record(1, 1, t(150));
        rec.record(1, 2, t(400));
        let lats = rec.block_latencies(1);
        assert_eq!(
            lats,
            vec![
                Duration::ZERO,
                Duration::from_millis(50),
                Duration::from_millis(300),
            ]
        );
        assert_eq!(rec.completeness(), 1.0);
    }

    #[test]
    fn duplicate_and_unstarted_records_are_ignored() {
        let mut rec = LatencyRecorder::new(2);
        rec.record(9, 0, t(5)); // block 9 never started
        assert_eq!(rec.block_count(), 0);
        rec.start_block(1, t(0));
        rec.record(1, 0, t(10));
        rec.record(1, 0, t(99)); // duplicate: first reception stands
        assert_eq!(rec.block_latencies(1), vec![Duration::from_millis(10)]);
    }

    #[test]
    fn completeness_counts_missing_cells() {
        let mut rec = LatencyRecorder::new(2);
        rec.start_block(1, t(0));
        rec.start_block(2, t(10));
        rec.record(1, 0, t(1));
        rec.record(1, 1, t(2));
        rec.record(2, 0, t(11));
        assert!((rec.completeness() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn peer_and_block_views_are_transposes() {
        let mut rec = LatencyRecorder::new(2);
        rec.start_block(1, t(0));
        rec.start_block(2, t(100));
        rec.record(1, 0, t(10));
        rec.record(1, 1, t(20));
        rec.record(2, 0, t(130));
        rec.record(2, 1, t(140));
        assert_eq!(
            rec.peer_latencies(0),
            vec![Duration::from_millis(10), Duration::from_millis(30)]
        );
        assert_eq!(
            rec.block_latencies(2),
            vec![Duration::from_millis(30), Duration::from_millis(40)]
        );
    }

    #[test]
    fn extremes_rank_by_mean() {
        let mut rec = LatencyRecorder::new(3);
        for b in 1..=5u64 {
            rec.start_block(b, t(b * 1000));
            rec.record(b, 0, t(b * 1000 + 10)); // fast peer
            rec.record(b, 1, t(b * 1000 + 50)); // middle peer
            rec.record(b, 2, t(b * 1000 + 500)); // slow peer
        }
        let ex = rec.peer_extremes().unwrap();
        assert_eq!(ex.fastest.0, 0);
        assert_eq!(ex.median.0, 1);
        assert_eq!(ex.slowest.0, 2);
        assert_eq!(ex.slowest.1.mean(), Duration::from_millis(500));
    }

    #[test]
    fn extremes_of_empty_recorder_is_none() {
        let rec = LatencyRecorder::new(3);
        assert!(rec.peer_extremes().is_none());
        assert!(rec.block_extremes().is_none());
    }

    /// A cell is one word: no tag beside the latency.
    #[test]
    fn row_size_latency_cell_is_8_bytes() {
        let mut rec = LatencyRecorder::new(1);
        rec.start_block(1, t(0));
        assert_eq!(std::mem::size_of_val(&rec.blocks[&1].latencies[0]), 8);
    }

    #[test]
    #[should_panic(expected = "Time::MAX is never an arrival")]
    fn a_reception_at_never_is_refused() {
        let mut rec = LatencyRecorder::new(1);
        rec.start_block(1, Time::ZERO);
        rec.record(1, 0, Time::MAX);
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        /// The matrix as it was: one `Option<Duration>` per cell.
        #[derive(Default)]
        struct Model {
            blocks: BTreeMap<u64, (Time, Vec<Option<Duration>>)>,
        }

        proptest! {
            /// The nanosecond cells against `Option<Duration>` cells: the
            /// same views, completeness and counts, over block 0 and
            /// `u64::MAX`, starts at `Time::ZERO` and zero latencies.
            #[test]
            fn model_latency_cells_match_option_duration(
                peers in 1usize..5,
                ops in proptest::collection::vec((0u8..2, 0u8..4, 0usize..5, 0u8..4), 1..80),
            ) {
                let mut rec = LatencyRecorder::new(peers);
                let mut model = Model::default();
                let blocks = [0, 1, 2, u64::MAX];
                for (op, b, peer, when) in ops {
                    let block = blocks[usize::from(b)];
                    let offset = Duration::from_nanos([0, 1, 1_000_000, 1 << 50][usize::from(when)]);
                    if op == 0 {
                        let at = Time::ZERO + offset;
                        rec.start_block(block, at);
                        model.blocks.entry(block).or_insert((at, vec![None; peers]));
                    } else {
                        let peer = peer % peers;
                        let start = model.blocks.get(&block).map_or(Time::ZERO, |(s, _)| *s);
                        let at = start + offset;
                        rec.record(block, peer, at);
                        if let Some((start, cells)) = model.blocks.get_mut(&block) {
                            cells[peer].get_or_insert(at.since(*start));
                        }
                    }
                }
                prop_assert_eq!(rec.block_count(), model.blocks.len());
                let (filled, total) = model.blocks.values().fold((0, 0), |(f, n), (_, cells)| {
                    (f + cells.iter().flatten().count(), n + cells.len())
                });
                let completeness = if total == 0 { 1.0 } else { filled as f64 / total as f64 };
                prop_assert_eq!(rec.completeness(), completeness);
                for peer in 0..peers {
                    let column: Vec<Duration> =
                        model.blocks.values().filter_map(|(_, cells)| cells[peer]).collect();
                    prop_assert_eq!(rec.peer_latencies(peer), column);
                }
                for block in blocks {
                    let row: Vec<Duration> = model
                        .blocks
                        .get(&block)
                        .map_or(Vec::new(), |(_, cells)| cells.iter().flatten().copied().collect());
                    prop_assert_eq!(rec.block_latencies(block), row);
                }
            }
        }
    }
}
