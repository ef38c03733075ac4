//! Empirical distributions and the paper's probability plots.
//!
//! Figures 4/5/7/8/12/13 are probability plots with a logit-scaled y axis:
//! straight lines correspond to logistic distributions, which is how push
//! epidemics grow. [`Cdf`] holds sorted samples; [`ProbabilityPlot`]
//! extracts the latency at each of the paper's y ticks so a bench can print
//! exactly the series the figures draw.

use desim::Duration;

/// The y ticks of the paper's peer-level plots (Figs. 4, 7, 12).
pub const PEER_LEVEL_TICKS: &[f64] = &[
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999,
    0.9995, 0.9999,
];

/// The y ticks of the paper's block-level plots (Figs. 5, 8, 13).
pub const BLOCK_LEVEL_TICKS: &[f64] = &[
    0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995,
];

/// An empirical cumulative distribution over durations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cdf {
    sorted: Vec<Duration>,
}

impl Cdf {
    /// Builds a CDF from samples (any order).
    pub fn new(mut samples: Vec<Duration>) -> Self {
        samples.sort_unstable();
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// `true` when the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The samples in ascending order.
    pub fn samples(&self) -> &[Duration] {
        &self.sorted
    }

    /// The `q`-quantile (nearest-rank), `q ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Duration {
        assert!(!self.sorted.is_empty(), "quantile of an empty CDF");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let n = self.sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1]
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> Duration {
        if self.sorted.is_empty() {
            return Duration::ZERO;
        }
        let total: u128 = self.sorted.iter().map(|d| u128::from(d.as_nanos())).sum();
        Duration::from_nanos((total / self.sorted.len() as u128) as u64)
    }

    /// Largest sample.
    pub fn max(&self) -> Duration {
        self.sorted.last().copied().unwrap_or(Duration::ZERO)
    }
}

/// The logit transform `ln(p / (1 − p))` used by the figures' y axis.
///
/// # Panics
///
/// Panics unless `p ∈ (0, 1)`.
pub fn logit(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "logit needs p in (0, 1), got {p}");
    (p / (1.0 - p)).ln()
}

/// Goodness of a logistic fit: the R² of regressing `logit(p)` on the
/// latency at quantile `p` over the interior quantiles `0.05..=0.95`.
///
/// The paper plots its latency figures on a logit scale precisely because
/// push epidemics grow logistically — their curves are near-straight lines.
/// A distribution with a phase break (the original protocol's push→pull
/// transition) fits markedly worse than a pure push distribution, so this
/// statistic quantifies the "near-linear on the probability plot" claim.
/// Returns 1.0 for degenerate (constant) samples.
pub fn logistic_fit_r2(cdf: &Cdf) -> f64 {
    assert!(!cdf.is_empty(), "logistic fit of an empty CDF");
    let qs: Vec<f64> = (1..=19).map(|i| i as f64 * 0.05).collect();
    let points: Vec<(f64, f64)> = qs
        .iter()
        .map(|&q| (cdf.quantile(q).as_secs_f64(), logit(q)))
        .collect();
    let n = points.len() as f64;
    let mean_x = points.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = points.iter().map(|(_, y)| y).sum::<f64>() / n;
    let sxx: f64 = points
        .iter()
        .map(|(x, _)| (x - mean_x) * (x - mean_x))
        .sum();
    let sxy: f64 = points
        .iter()
        .map(|(x, y)| (x - mean_x) * (y - mean_y))
        .sum();
    let syy: f64 = points
        .iter()
        .map(|(_, y)| (y - mean_y) * (y - mean_y))
        .sum();
    // Guard against an (effectively) constant x with a relative epsilon:
    // plain `== 0.0` misses the rounding dust of the mean subtraction.
    if sxx <= 1e-24 * (1.0 + mean_x * mean_x) || syy == 0.0 {
        return 1.0; // a vertical/constant line fits trivially
    }
    let slope = sxy / sxx;
    let ss_res: f64 = points
        .iter()
        .map(|(x, y)| {
            let pred = mean_y + slope * (x - mean_x);
            (y - pred) * (y - pred)
        })
        .sum();
    1.0 - ss_res / syy
}

/// One series of a probability plot: the latency reaching each tick.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbabilityPlot {
    /// Series label (e.g. `"median peer"`).
    pub label: String,
    /// `(tick, latency)` points; ticks beyond the sample resolution are
    /// clamped to the extreme samples, as an empirical plot would show.
    pub points: Vec<(f64, Duration)>,
}

impl ProbabilityPlot {
    /// Extracts the plot for `cdf` at the given y `ticks`.
    pub fn from_cdf(label: impl Into<String>, cdf: &Cdf, ticks: &[f64]) -> Self {
        let points = ticks.iter().map(|&q| (q, cdf.quantile(q))).collect();
        ProbabilityPlot {
            label: label.into(),
            points,
        }
    }

    /// Renders the series as aligned text rows (`tick  latency`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.label));
        for (q, d) in &self.points {
            out.push_str(&format!("{:>8.4}  {:>12}\n", q, d.to_string()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn cdf_1_to_100() -> Cdf {
        Cdf::new((1..=100).rev().map(ms).collect())
    }

    #[test]
    fn quantiles_nearest_rank() {
        let c = cdf_1_to_100();
        assert_eq!(c.quantile(0.0), ms(1));
        assert_eq!(c.quantile(0.01), ms(1));
        assert_eq!(c.quantile(0.5), ms(50));
        assert_eq!(c.quantile(0.99), ms(99));
        assert_eq!(c.quantile(1.0), ms(100));
    }

    #[test]
    fn mean_and_max() {
        let c = Cdf::new(vec![ms(10), ms(20), ms(30)]);
        assert_eq!(c.mean(), ms(20));
        assert_eq!(c.max(), ms(30));
        assert_eq!(Cdf::default().mean(), Duration::ZERO);
        assert_eq!(Cdf::default().max(), Duration::ZERO);
    }

    #[test]
    fn logit_is_antisymmetric() {
        assert_eq!(logit(0.5), 0.0);
        assert!((logit(0.9) + logit(0.1)).abs() < 1e-12);
        assert!(logit(0.9999) > logit(0.99));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        Cdf::default().quantile(0.5);
    }

    #[test]
    fn probability_plot_uses_paper_ticks() {
        let c = cdf_1_to_100();
        let plot = ProbabilityPlot::from_cdf("median peer", &c, BLOCK_LEVEL_TICKS);
        assert_eq!(plot.points.len(), BLOCK_LEVEL_TICKS.len());
        assert_eq!(plot.points[0].0, 0.005);
        // Monotone latencies along the ticks.
        assert!(plot.points.windows(2).all(|w| w[0].1 <= w[1].1));
        let text = plot.render();
        assert!(text.contains("median peer"));
        assert!(text.contains("0.5000"));
    }

    #[test]
    fn logistic_fit_prefers_logistic_samples() {
        // A logistic distribution: latency(p) = mu + s*logit(p).
        let logistic: Vec<Duration> = (1..=999)
            .map(|i| {
                let p = i as f64 / 1000.0;
                Duration::from_secs_f64(0.5 + 0.05 * logit(p))
            })
            .collect();
        let good = logistic_fit_r2(&Cdf::new(logistic));
        assert!(good > 0.99, "a logistic sample must fit, R² = {good:.4}");

        // A two-phase distribution: 90% fast push, 10% slow pull plateau.
        let two_phase: Vec<Duration> = (1..=999)
            .map(|i| {
                if i <= 900 {
                    Duration::from_millis(50 + i / 10)
                } else {
                    Duration::from_millis(2_000 + (i - 900) * 40)
                }
            })
            .collect();
        let bad = logistic_fit_r2(&Cdf::new(two_phase));
        assert!(
            bad < good,
            "a phase break must fit worse: {bad:.4} vs {good:.4}"
        );
    }

    #[test]
    fn logistic_fit_degenerate_is_one() {
        let c = Cdf::new(vec![ms(5); 100]);
        assert_eq!(logistic_fit_r2(&c), 1.0);
    }

    #[test]
    fn tick_tables_match_the_figures() {
        assert_eq!(PEER_LEVEL_TICKS.len(), 17);
        assert_eq!(BLOCK_LEVEL_TICKS.len(), 11);
        assert!(PEER_LEVEL_TICKS.windows(2).all(|w| w[0] < w[1]));
        assert!(BLOCK_LEVEL_TICKS.windows(2).all(|w| w[0] < w[1]));
    }
}
