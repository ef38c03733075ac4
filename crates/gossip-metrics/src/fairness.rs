//! Fairness statistics.
//!
//! "Fair" in the paper means two things: peers receive blocks at similar
//! times (no starving tail), and no peer — the leader in particular —
//! carries a disproportionate share of the traffic. Jain's fairness index
//! and simple dispersion summaries quantify both.

/// Jain's fairness index: `(Σx)² / (n·Σx²)`, 1.0 for perfectly equal
/// allocations, `1/n` for a single peer doing all the work.
///
/// Returns 1.0 for an empty or all-zero allocation (nothing is unfair
/// about nobody doing anything).
pub fn jain_index(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let sum: f64 = values.iter().sum();
    let sum_sq: f64 = values.iter().map(|v| v * v).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (values.len() as f64 * sum_sq)
}

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Computes the summary; `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Summary {
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }

    /// Coefficient of variation (`σ/μ`); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean
        }
    }
}

/// Fairness of one channel's traffic allocation across its member peers.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelFairness {
    /// Channel label (e.g. `"ch0"`).
    pub label: String,
    /// Jain's index over the channel's per-peer byte shares.
    pub jain: f64,
    /// Dispersion of the same shares (`None` for an empty channel).
    pub summary: Option<Summary>,
}

/// The dissemination fairness report: per-channel Jain indices plus the
/// peer-global view obtained by summing each peer's share across channels.
///
/// Judging fairness on peer-global bytes alone is misleading in a
/// multi-channel deployment: a peer can carry a perfectly average total
/// while dominating one channel and free-riding on another. The report
/// therefore consumes the **per-channel breakdown** — one byte share per
/// member peer per channel — and derives the global index from it, instead
/// of taking pre-summed peer-global bytes as input.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// One entry per channel, in input order.
    pub channels: Vec<ChannelFairness>,
    /// Jain's index over per-peer totals (each peer's shares summed across
    /// the channels it is a member of).
    pub overall_jain: f64,
}

impl FairnessReport {
    /// Builds the report from `(label, per-member byte shares)` rows, one
    /// row per channel. Peers are identified by `(peer_index, share)` pairs
    /// so overlapping memberships aggregate correctly.
    pub fn from_per_channel(rows: &[(String, Vec<(usize, f64)>)]) -> FairnessReport {
        let channels: Vec<ChannelFairness> = rows
            .iter()
            .map(|(label, shares)| {
                let values: Vec<f64> = shares.iter().map(|(_, v)| *v).collect();
                ChannelFairness {
                    label: label.clone(),
                    jain: jain_index(&values),
                    summary: Summary::of(&values),
                }
            })
            .collect();
        let mut totals: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
        for (_, shares) in rows {
            for (peer, v) in shares {
                *totals.entry(*peer).or_insert(0.0) += v;
            }
        }
        let total_values: Vec<f64> = totals.values().copied().collect();
        FairnessReport {
            channels,
            overall_jain: jain_index(&total_values),
        }
    }

    /// The lowest per-channel Jain index (1.0 for an empty report): the
    /// starving channel no global average can hide.
    pub fn worst_channel_jain(&self) -> f64 {
        self.channels.iter().map(|c| c.jain).fold(1.0f64, f64::min)
    }

    /// Plain-text rendering for bench and experiment output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.channels {
            match &c.summary {
                Some(s) => out.push_str(&format!(
                    "{:<8} jain {:.4} | mean {:>12.1} B | cv {:.3} | max/min {:.2}\n",
                    c.label,
                    c.jain,
                    s.mean,
                    s.cv(),
                    if s.min > 0.0 {
                        s.max / s.min
                    } else {
                        f64::INFINITY
                    },
                )),
                None => out.push_str(&format!("{:<8} (no members)\n", c.label)),
            }
        }
        out.push_str(&format!(
            "overall  jain {:.4} (per-peer totals across channels)\n",
            self.overall_jain
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_exposes_per_channel_unfairness_hidden_by_totals() {
        // Two channels, two peers. Peer 0 does all the work on ch0, peer 1
        // all of it on ch1: peer-global totals are perfectly equal, but
        // each channel is maximally unfair for n = 2.
        let rows = vec![
            ("ch0".to_owned(), vec![(0, 10.0), (1, 0.0)]),
            ("ch1".to_owned(), vec![(0, 0.0), (1, 10.0)]),
        ];
        let report = FairnessReport::from_per_channel(&rows);
        assert!((report.overall_jain - 1.0).abs() < 1e-12);
        assert!((report.worst_channel_jain() - 0.5).abs() < 1e-12);
        assert_eq!(report.channels.len(), 2);
        let text = report.render();
        assert!(text.contains("ch0"));
        assert!(text.contains("overall"));
    }

    #[test]
    fn report_aggregates_overlapping_memberships() {
        let rows = vec![
            ("ch0".to_owned(), vec![(0, 4.0), (1, 4.0)]),
            ("ch1".to_owned(), vec![(1, 4.0), (2, 8.0)]),
        ];
        let report = FairnessReport::from_per_channel(&rows);
        // Totals: peer0 = 4, peer1 = 8, peer2 = 8.
        let expected = jain_index(&[4.0, 8.0, 8.0]);
        assert!((report.overall_jain - expected).abs() < 1e-12);
        assert!((report.channels[0].jain - 1.0).abs() < 1e-12);
        assert!(report.channels[1].jain < 1.0);
    }

    #[test]
    fn empty_report_is_vacuously_fair() {
        let report = FairnessReport::from_per_channel(&[]);
        assert_eq!(report.worst_channel_jain(), 1.0);
        assert_eq!(report.overall_jain, 1.0);
    }

    #[test]
    fn jain_equal_allocation_is_one() {
        assert!((jain_index(&[5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jain_single_worker_is_one_over_n() {
        let idx = jain_index(&[10.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_is_scale_invariant() {
        let a = jain_index(&[1.0, 2.0, 3.0]);
        let b = jain_index(&[10.0, 20.0, 30.0]);
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn summary_statistics() {
        let s = Summary::of(&[2.0, 4.0, 6.0]).unwrap();
        assert!((s.mean - 4.0).abs() < 1e-12);
        assert!((s.std_dev - (8.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 6.0);
        assert!((s.cv() - s.std_dev / 4.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn cv_of_zero_mean_is_zero() {
        let s = Summary::of(&[0.0, 0.0]).unwrap();
        assert_eq!(s.cv(), 0.0);
    }
}
