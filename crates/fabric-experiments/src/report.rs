//! Paper-style rendering of experiment results: the series behind each
//! figure and the rows of Table II, as plain text — what `repro` prints.

use desim::Duration;
use gossip_metrics::cdf::{ProbabilityPlot, BLOCK_LEVEL_TICKS, PEER_LEVEL_TICKS};
use gossip_metrics::table::render_table;

use crate::conflicts::Table2Row;
use crate::dissemination::DisseminationResult;

/// Renders a peer-level latency figure (Figs. 4/7/12): the three CDF
/// series at the paper's y ticks.
pub fn render_peer_level(title: &str, result: &DisseminationResult) -> String {
    render_extremes(
        title,
        result.peer_extremes.as_ref(),
        PEER_LEVEL_TICKS,
        "peer",
    )
}

/// Renders a block-level latency figure (Figs. 5/8/13).
pub fn render_block_level(title: &str, result: &DisseminationResult) -> String {
    render_extremes(
        title,
        result.block_extremes.as_ref(),
        BLOCK_LEVEL_TICKS,
        "block",
    )
}

fn render_extremes(
    title: &str,
    extremes: Option<&gossip_metrics::latency::Extremes>,
    ticks: &[f64],
    unit: &str,
) -> String {
    let mut out = format!("== {title} ==\n");
    let Some(ex) = extremes else {
        out.push_str("(no data)\n");
        return out;
    };
    for (label, (id, cdf)) in [
        ("fastest", &ex.fastest),
        ("median", &ex.median),
        ("slowest", &ex.slowest),
    ] {
        let plot = ProbabilityPlot::from_cdf(format!("{label} {unit} (#{id})"), cdf, ticks);
        out.push_str(&plot.render());
    }
    out
}

/// Renders a bandwidth figure (Figs. 6/9/10/11/14): averages, peak, ratio
/// and the 10-second series.
pub fn render_bandwidth(title: &str, result: &DisseminationResult) -> String {
    let bw = &result.bandwidth;
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!(
        "leader avg {:.3} MB/s | regular avg {:.3} MB/s | leader/regular {:.2} | regular peak {:.2} MB/s\n",
        bw.leader.average(Some(bw.active_buckets)),
        bw.regular.average(Some(bw.active_buckets)),
        bw.leader_ratio(),
        bw.regular.peak(),
    ));
    out.push_str(&bw.leader.render());
    out.push_str(&bw.regular.render());
    out
}

/// One-line dissemination summary used by comparison benches.
pub fn render_summary(title: &str, result: &DisseminationResult) -> String {
    let pooled = result.pooled_cdf();
    let (p50, p999, max) = if pooled.is_empty() {
        (Duration::ZERO, Duration::ZERO, Duration::ZERO)
    } else {
        (pooled.quantile(0.5), pooled.quantile(0.999), pooled.max())
    };
    format!(
        "{title}: {} blocks | completeness {:.4} | p50 {} | p99.9 {} | max {} | peer traffic {:.1} MB\n",
        result.blocks, result.completeness, p50, p999, max, result.peer_traffic_mb,
    )
}

/// Renders Table II with the paper's columns.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.2} s", r.period.as_secs_f64()),
                format!("{:.1}", r.tx_per_block),
                format!("{:.2} s", r.validation_time().as_secs_f64()),
                format!("{:.0}", r.original),
                format!("{:.0}", r.enhanced),
                format!("{:+.0}%", r.difference_pct()),
            ]
        })
        .collect();
    render_table(
        &[
            "Block period",
            "Tx/block",
            "Validation",
            "Original",
            "Enhanced",
            "Difference",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dissemination::{run_dissemination, DisseminationConfig};

    fn tiny_result() -> DisseminationResult {
        let mut cfg = DisseminationConfig::fig07_09_enhanced_f4().scaled(150);
        cfg.peers = 10;
        cfg.network = desim::NetworkConfig::lan(12);
        run_dissemination(&cfg)
    }

    #[test]
    fn renders_contain_the_expected_sections() {
        let res = tiny_result();
        let peer = render_peer_level("Fig 7", &res);
        assert!(peer.contains("Fig 7"));
        assert!(peer.contains("fastest peer"));
        assert!(peer.contains("slowest peer"));
        let block = render_block_level("Fig 8", &res);
        assert!(block.contains("median block"));
        let bw = render_bandwidth("Fig 9", &res);
        assert!(bw.contains("leader avg"));
        assert!(bw.contains("regular peer"));
        let sum = render_summary("enhanced", &res);
        assert!(sum.contains("completeness"));
    }

    #[test]
    fn table2_render_shows_paper_columns() {
        let rows = vec![Table2Row {
            period: Duration::from_secs(2),
            tx_per_block: 10.0,
            original: 803.0,
            enhanced: 664.0,
        }];
        let text = render_table2(&rows);
        assert!(text.contains("Block period"));
        assert!(text.contains("803"));
        assert!(text.contains("-17%"));
        assert!(text.contains("0.50 s"));
    }
}
