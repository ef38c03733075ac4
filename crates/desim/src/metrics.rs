//! Byte and message accounting for the simulated network.
//!
//! Every message the engine transmits is recorded here: bytes sent are
//! attributed to the sender at departure time, bytes received to the receiver
//! at delivery time, both bucketed over fixed-width time windows (the paper
//! aggregates bandwidth over 10-second intervals). Message counts are also
//! tallied per message *kind* so experiments can separate block payloads from
//! digests, pull chatter and background traffic.
//!
//! Per-kind tallies are indexed by interned [`KindId`]s — a dense array add
//! on the hot path instead of the seed's per-record
//! `BTreeMap<&'static str, KindStats>` walk; the string-keyed views
//! ([`NetMetrics::kind`], [`NetMetrics::kinds`]) resolve names at read time
//! and stay byte-compatible with the old reports.

use crate::kind::KindId;
use crate::net::NodeId;
use crate::time::{Duration, Time};

/// Per-node, per-bucket byte counters plus per-kind message tallies.
#[derive(Debug, Clone)]
pub struct NetMetrics {
    bucket: Duration,
    /// Cached window of the last bucket index computed, so consecutive
    /// records inside one window (the overwhelmingly common case with
    /// 10-second buckets) skip the integer division.
    cached_idx: usize,
    cached_start_ns: u64,
    cached_end_ns: u64,
    sent: Vec<Vec<u64>>,
    received: Vec<Vec<u64>>,
    /// Dense per-kind tallies, indexed by `KindId`.
    kinds: Vec<KindStats>,
    dropped_loss: u64,
    dropped_down: u64,
    dropped_partition: u64,
}

/// Count and byte volume for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Number of messages sent of this kind.
    pub count: u64,
    /// Total bytes sent of this kind.
    pub bytes: u64,
}

impl NetMetrics {
    /// Creates a collector for `nodes` nodes with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    pub fn new(nodes: usize, bucket: Duration) -> Self {
        assert!(!bucket.is_zero(), "metrics bucket width must be positive");
        NetMetrics {
            bucket,
            cached_idx: 0,
            cached_start_ns: 0,
            cached_end_ns: bucket.as_nanos(),
            sent: vec![Vec::new(); nodes],
            received: vec![Vec::new(); nodes],
            kinds: Vec::new(),
            dropped_loss: 0,
            dropped_down: 0,
            dropped_partition: 0,
        }
    }

    /// The bucket width used for the time series.
    pub fn bucket_width(&self) -> Duration {
        self.bucket
    }

    fn bucket_index(&mut self, at: Time) -> usize {
        let ns = at.as_nanos();
        if ns >= self.cached_start_ns && ns < self.cached_end_ns {
            return self.cached_idx;
        }
        let width = self.bucket.as_nanos();
        let idx = ns / width;
        self.cached_idx = idx as usize;
        self.cached_start_ns = idx * width;
        self.cached_end_ns = self.cached_start_ns.saturating_add(width);
        self.cached_idx
    }

    /// Read-only bucket index (no cache update), for report queries.
    fn bucket_index_ro(&self, at: Time) -> usize {
        (at.as_nanos() / self.bucket.as_nanos()) as usize
    }

    fn add(series: &mut Vec<u64>, idx: usize, bytes: u64) {
        if series.len() <= idx {
            series.resize(idx + 1, 0);
        }
        series[idx] += bytes;
    }

    /// Records a sent message (called by the engine at departure time).
    pub fn record_sent(&mut self, from: NodeId, at: Time, bytes: usize, kind: KindId) {
        let idx = self.bucket_index(at);
        Self::add(&mut self.sent[from.index()], idx, bytes as u64);
        let k = kind.index();
        if self.kinds.len() <= k {
            self.kinds.resize(k + 1, KindStats::default());
        }
        let entry = &mut self.kinds[k];
        entry.count += 1;
        entry.bytes += bytes as u64;
    }

    /// Records a received message (called by the engine at delivery time).
    pub fn record_received(&mut self, to: NodeId, at: Time, bytes: usize) {
        let idx = self.bucket_index(at);
        Self::add(&mut self.received[to.index()], idx, bytes as u64);
    }

    /// Records a message lost to random packet loss.
    pub fn record_loss(&mut self) {
        self.dropped_loss += 1;
    }

    /// Records a message dropped because an endpoint was down.
    pub fn record_drop_down(&mut self) {
        self.dropped_down += 1;
    }

    /// Records a message dropped by a partitioned link.
    pub fn record_drop_partition(&mut self) {
        self.dropped_partition += 1;
    }

    /// Messages lost to random packet loss so far.
    pub fn losses(&self) -> u64 {
        self.dropped_loss
    }

    /// Messages dropped because an endpoint was down.
    pub fn drops_down(&self) -> u64 {
        self.dropped_down
    }

    /// Messages dropped on partitioned links.
    pub fn drops_partition(&self) -> u64 {
        self.dropped_partition
    }

    /// Raw per-bucket bytes sent by `node`.
    pub fn sent_series(&self, node: NodeId) -> &[u64] {
        &self.sent[node.index()]
    }

    /// Raw per-bucket bytes received by `node`.
    pub fn received_series(&self, node: NodeId) -> &[u64] {
        &self.received[node.index()]
    }

    /// Total bytes sent by `node`.
    pub fn total_sent(&self, node: NodeId) -> u64 {
        self.sent[node.index()].iter().sum()
    }

    /// Total bytes sent across all nodes.
    pub fn network_total_sent(&self) -> u64 {
        (0..self.sent.len())
            .map(|i| self.total_sent(NodeId(i as u32)))
            .sum()
    }

    /// Per-kind statistics, ordered by kind name (interning order never
    /// leaks into reports).
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, KindStats)> + '_ {
        let mut rows: Vec<(&'static str, KindStats)> = self
            .kinds
            .iter()
            .enumerate()
            .filter(|(_, s)| s.count > 0)
            .map(|(i, s)| (KindId::from_index(i).name(), *s))
            .collect();
        rows.sort_unstable_by_key(|(name, _)| *name);
        rows.into_iter()
    }

    /// Statistics for a single kind addressed by interned id.
    pub fn kind_stats(&self, kind: KindId) -> KindStats {
        self.kinds.get(kind.index()).copied().unwrap_or_default()
    }

    /// Statistics for a single kind, if any message of that kind was sent.
    pub fn kind(&self, kind: &str) -> Option<KindStats> {
        let id = KindId::lookup(kind)?;
        let stats = self.kind_stats(id);
        (stats.count > 0).then_some(stats)
    }

    /// Bandwidth series for `node` in MB/s per bucket, summing sent and
    /// received bytes as the paper's per-peer "network utilization" does.
    /// The series is padded with zeros up to `until`.
    pub fn utilization_mbps(&self, node: NodeId, until: Time) -> Vec<f64> {
        let buckets = self.bucket_index_ro(until) + 1;
        let secs = self.bucket.as_secs_f64();
        let sent = &self.sent[node.index()];
        let recv = &self.received[node.index()];
        (0..buckets)
            .map(|i| {
                let s = sent.get(i).copied().unwrap_or(0);
                let r = recv.get(i).copied().unwrap_or(0);
                (s + r) as f64 / 1e6 / secs
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(name: &'static str) -> KindId {
        KindId::intern(name)
    }

    #[test]
    fn buckets_accumulate_by_time_window() {
        let mut m = NetMetrics::new(2, Duration::from_secs(10));
        let n = NodeId(0);
        m.record_sent(n, Time::from_secs(1), 100, k("block"));
        m.record_sent(n, Time::from_secs(9), 50, k("block"));
        m.record_sent(n, Time::from_secs(10), 25, k("digest"));
        assert_eq!(m.sent_series(n), &[150, 25]);
        assert_eq!(m.total_sent(n), 175);
    }

    #[test]
    fn bucket_cache_survives_out_of_order_timestamps() {
        let mut m = NetMetrics::new(1, Duration::from_secs(10));
        let n = NodeId(0);
        // Forward past the cached window, then back into an earlier one —
        // the index must stay exact either way.
        m.record_sent(n, Time::from_secs(5), 1, k("block"));
        m.record_sent(n, Time::from_secs(25), 2, k("block"));
        m.record_sent(n, Time::from_secs(7), 4, k("block"));
        m.record_received(n, Time::from_secs(15), 8);
        assert_eq!(m.sent_series(n), &[5, 0, 2]);
        assert_eq!(m.received_series(n), &[0, 8]);
    }

    #[test]
    fn kind_stats_tally_count_and_bytes() {
        let mut m = NetMetrics::new(1, Duration::from_secs(1));
        let n = NodeId(0);
        m.record_sent(n, Time::ZERO, 10, k("block"));
        m.record_sent(n, Time::ZERO, 30, k("block"));
        m.record_sent(n, Time::ZERO, 5, k("digest"));
        assert_eq!(
            m.kind("block"),
            Some(KindStats {
                count: 2,
                bytes: 40
            })
        );
        assert_eq!(m.kind("digest"), Some(KindStats { count: 1, bytes: 5 }));
        assert_eq!(m.kind("pull-never-sent-here"), None);
        let kinds: Vec<_> = m.kinds().map(|(k, _)| k).collect();
        assert_eq!(kinds, vec!["block", "digest"]);
        assert_eq!(m.kind_stats(k("block")).bytes, 40);
        assert_eq!(m.kind_stats(k("pull-never-sent-here")).count, 0);
    }

    #[test]
    fn utilization_combines_directions_and_pads() {
        let mut m = NetMetrics::new(2, Duration::from_secs(10));
        let n = NodeId(1);
        m.record_sent(n, Time::from_secs(5), 10_000_000, k("block"));
        m.record_received(n, Time::from_secs(5), 10_000_000);
        let series = m.utilization_mbps(n, Time::from_secs(35));
        assert_eq!(series.len(), 4);
        assert!((series[0] - 2.0).abs() < 1e-9); // 20 MB over 10 s
        assert_eq!(series[1], 0.0);
    }

    #[test]
    fn drop_counters_are_independent() {
        let mut m = NetMetrics::new(1, Duration::from_secs(1));
        m.record_loss();
        m.record_loss();
        m.record_drop_down();
        m.record_drop_partition();
        assert_eq!(m.losses(), 2);
        assert_eq!(m.drops_down(), 1);
        assert_eq!(m.drops_partition(), 1);
    }

    #[test]
    fn network_total_sums_all_nodes() {
        let mut m = NetMetrics::new(3, Duration::from_secs(1));
        m.record_sent(NodeId(0), Time::ZERO, 1, k("x"));
        m.record_sent(NodeId(1), Time::ZERO, 2, k("x"));
        m.record_sent(NodeId(2), Time::ZERO, 3, k("x"));
        assert_eq!(m.network_total_sent(), 6);
    }
}
