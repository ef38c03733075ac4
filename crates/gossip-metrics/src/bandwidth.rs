//! Bandwidth-over-time series in the shape of the paper's Figs. 6/9/10/11/14.
//!
//! The figures plot per-peer network utilization (sent + received bytes)
//! aggregated over 10-second intervals, in MB/s, for the leader peer and a
//! regular peer, with dotted average lines. The simulation's byte
//! accounting provides the raw series; this module adds the constant
//! *background traffic* the paper observes (≈0.4 MB/s of non-dissemination
//! system chatter on an idle network) and computes the summary numbers.

/// One peer's utilization series plus its average.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthSeries {
    /// Series label (e.g. `"leader peer"`).
    pub label: String,
    /// MB/s per bucket.
    pub mbps: Vec<f64>,
    /// Width of each bucket in seconds.
    pub bucket_secs: f64,
}

impl BandwidthSeries {
    /// Wraps a raw MB/s series.
    pub fn new(label: impl Into<String>, mbps: Vec<f64>, bucket_secs: f64) -> Self {
        assert!(bucket_secs > 0.0, "bucket width must be positive");
        BandwidthSeries {
            label: label.into(),
            mbps,
            bucket_secs,
        }
    }

    /// Adds a constant background rate to every bucket (system chatter not
    /// modeled by the protocol: container runtime, monitoring, Kafka
    /// polling — the paper's idle-network floor).
    pub fn with_background(mut self, background_mbps: f64) -> Self {
        assert!(
            background_mbps >= 0.0,
            "background rate must be non-negative"
        );
        for v in &mut self.mbps {
            *v += background_mbps;
        }
        self
    }

    /// Average over the series (the figures' dotted line), restricted to
    /// the first `active_buckets` entries when given — the paper averages
    /// over the active phase, not the idle tail.
    pub fn average(&self, active_buckets: Option<usize>) -> f64 {
        let slice = match active_buckets {
            Some(k) => &self.mbps[..k.min(self.mbps.len())],
            None => &self.mbps[..],
        };
        if slice.is_empty() {
            return 0.0;
        }
        slice.iter().sum::<f64>() / slice.len() as f64
    }

    /// Peak bucket value.
    pub fn peak(&self) -> f64 {
        self.mbps.iter().copied().fold(0.0, f64::max)
    }

    /// Renders `time  MB/s` rows (the figure's data).
    pub fn render(&self) -> String {
        let mut out = format!("# {}\n", self.label);
        for (i, v) in self.mbps.iter().enumerate() {
            out.push_str(&format!(
                "{:>8.0}  {:>8.3}\n",
                i as f64 * self.bucket_secs,
                v
            ));
        }
        out
    }
}

/// The leader-vs-regular comparison a bandwidth figure shows.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthComparison {
    /// The leader peer's series.
    pub leader: BandwidthSeries,
    /// A representative regular peer's series.
    pub regular: BandwidthSeries,
    /// Buckets covered by the active (transaction-generating) phase.
    pub active_buckets: usize,
}

impl BandwidthComparison {
    /// Leader-to-regular average ratio over the active phase — the fairness
    /// headline of Figs. 9 vs 10.
    pub fn leader_ratio(&self) -> f64 {
        let r = self.regular.average(Some(self.active_buckets));
        if r == 0.0 {
            return f64::INFINITY;
        }
        self.leader.average(Some(self.active_buckets)) / r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> BandwidthSeries {
        BandwidthSeries::new("test", values.to_vec(), 10.0)
    }

    #[test]
    fn average_and_peak() {
        let s = series(&[1.0, 2.0, 3.0, 0.0]);
        assert!((s.average(None) - 1.5).abs() < 1e-12);
        assert!((s.average(Some(3)) - 2.0).abs() < 1e-12);
        assert_eq!(s.peak(), 3.0);
        assert_eq!(series(&[]).average(None), 0.0);
    }

    #[test]
    fn background_lifts_every_bucket() {
        let s = series(&[0.0, 1.0]).with_background(0.4);
        assert_eq!(s.mbps, vec![0.4, 1.4]);
    }

    #[test]
    fn leader_ratio_compares_active_phase() {
        let cmp = BandwidthComparison {
            leader: series(&[4.0, 4.0, 0.0]),
            regular: series(&[1.0, 1.0, 0.0]),
            active_buckets: 2,
        };
        assert!((cmp.leader_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_rows() {
        let text = series(&[1.25]).render();
        assert!(text.contains("test"));
        assert!(text.contains("1.250"));
    }
}
