//! One seed sweep under every statistical claim: a churn preset run over
//! many seeds, one [`SeedRow`] per seed, fanned out by
//! [`desim::run_batch`].
//!
//! A row holds what a claim over seeds reads: per channel the blocks
//! cut, the members at the end, completeness, hand-offs, the longest
//! leader gap and false reaps; and the run's events and content hash.
//! [`render_sweep`] prints the anomalous rows — a channel short of its
//! blocks, or a hand-off on the main channel, whose leader never leaves —
//! then a summary with the rule-of-three bound: no failure in `n` seeds
//! puts the per-seed failure rate below `3 / n` at 95 % confidence.

use desim::Duration;
use fabric_types::ids::ChannelId;

use crate::churn::ChurnResult;
use crate::churn_waves::ChurnWavesConfig;

/// One channel of one seed's run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelRow {
    /// The channel.
    pub channel: ChannelId,
    /// Blocks cut on it.
    pub blocks: u64,
    /// Members sitting at the end.
    pub members: usize,
    /// Share of the blocks owed to those members that they hold
    /// ([`crate::churn::ChannelReport::completeness`]).
    pub completeness: f64,
    /// Seats claimed after the start.
    pub handoffs: u64,
    /// The longest closed leader gap (zero when none closed).
    pub longest_gap: Duration,
    /// Reaps of a peer still a member, one per observing view.
    pub false_reaps: u64,
}

impl ChannelRow {
    /// Whether the members at the end hold fewer blocks than they owe.
    pub fn short(&self) -> bool {
        self.completeness < 1.0
    }
}

/// One seed's run of the preset.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedRow {
    /// The seed.
    pub seed: u64,
    /// Per channel, the main channel first.
    pub channels: Vec<ChannelRow>,
    /// Simulation events handled.
    pub events: u64,
    /// `desim`'s content hash over them.
    pub content_hash: u64,
}

impl SeedRow {
    /// Whether a channel is short or the main channel handed its seat
    /// off.
    pub fn anomalous(&self) -> bool {
        self.channels.iter().any(ChannelRow::short) || self.channels[0].handoffs > 0
    }
}

/// Runs `preset` once per seed in `seeds`, traced, across the box's cores;
/// the rows come back in seed order.
pub fn sweep(preset: &ChurnWavesConfig, seeds: &[u64]) -> Vec<SeedRow> {
    desim::run_batch(seeds.to_vec(), |seed| {
        let d = ChurnWavesConfig {
            seed,
            ..preset.clone()
        }
        .deployment();
        let end = d.drain_until + d.idle_tail;
        let mut sim = d.start();
        sim.set_trace(true);
        sim.run_until(end);
        let content_hash = sim.content_hash().expect("the run was traced");
        let res = ChurnResult::read_off(sim);
        let channels = res
            .channels
            .iter()
            .map(|c| ChannelRow {
                channel: c.channel,
                blocks: c.blocks,
                members: c.member_bytes.len(),
                completeness: c.completeness,
                handoffs: c.handoffs,
                longest_gap: c.leader_gaps.iter().copied().max().unwrap_or_default(),
                false_reaps: c.false_reaps,
            })
            .collect();
        SeedRow {
            seed,
            channels,
            events: res.events,
            content_hash,
        }
    })
}

/// Every anomalous row of `rows`, one line per anomalous channel, then
/// the summary: short channels and main-channel hand-offs with their
/// rule-of-three bound, side-channel hand-offs, and false reaps on the
/// main and the side channels.
pub fn render_sweep(rows: &[SeedRow]) -> String {
    let mut out = String::new();
    for row in rows.iter().filter(|r| r.anomalous()) {
        for (i, c) in row.channels.iter().enumerate() {
            if c.short() || (i == 0 && c.handoffs > 0) {
                out.push_str(&format!(
                    "seed {} {} | {} members | {} blocks | completeness {:.3} | handoffs {} | \
                     longest gap {} | false reaps {}\n",
                    row.seed,
                    c.channel,
                    c.members,
                    c.blocks,
                    c.completeness,
                    c.handoffs,
                    c.longest_gap,
                    c.false_reaps
                ));
            }
        }
    }
    let n = rows.len();
    let side = |f: fn(&ChannelRow) -> u64| -> u64 {
        rows.iter().flat_map(|r| &r.channels[1..]).map(f).sum()
    };
    let main = |f: fn(&ChannelRow) -> u64| -> u64 { rows.iter().map(|r| f(&r.channels[0])).sum() };
    let short = rows
        .iter()
        .flat_map(|r| &r.channels)
        .filter(|c| c.short())
        .count();
    let failed = rows.iter().filter(|r| r.anomalous()).count();
    let bound = match failed {
        0 => format!(
            "below {:.2} % at 95 % (rule of three)",
            300.0 / n.max(1) as f64
        ),
        k => format!("{k} of {n}"),
    };
    out.push_str(&format!(
        "{n} seeds | anomalous seeds: {failed}, per-seed rate {bound}\n\
         short channels: {short} | main-channel handoffs: {} | side-channel handoffs: {}\n\
         false reaps: {} main / {} side\n",
        main(|c| c.handoffs),
        side(|c| c.handoffs),
        main(|c| c.false_reaps),
        side(|c| c.false_reaps),
    ));
    out
}

/// Parses a seed list: comma-separated numbers and inclusive ranges,
/// `1..=110,5001..=5110` or `7,52`.
///
/// # Errors
///
/// Returns the item that is neither a number nor an `a..=b` range.
pub fn parse_seeds(list: &str) -> Result<Vec<u64>, String> {
    let mut seeds = Vec::new();
    for item in list.split(',').map(str::trim) {
        let bad = || format!("not a seed or a range a..=b: {item:?}");
        match item.split_once("..=") {
            Some((lo, hi)) => {
                let lo: u64 = lo.parse().map_err(|_| bad())?;
                let hi: u64 = hi.parse().map_err(|_| bad())?;
                seeds.extend(lo..=hi);
            }
            None => seeds.push(item.parse().map_err(|_| bad())?),
        }
    }
    Ok(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_lists_take_numbers_and_inclusive_ranges() {
        assert_eq!(parse_seeds("1..=3,52").unwrap(), [1, 2, 3, 52]);
        assert_eq!(parse_seeds("7").unwrap(), [7]);
        assert!(parse_seeds("1..3").is_err());
        assert!(parse_seeds("x").is_err());
    }

    /// A sweep row is the run its seed makes: two seeds, each equal to
    /// its own run, and neither anomalous at this scale.
    #[test]
    fn a_sweep_row_is_its_seeds_run() {
        let preset = ChurnWavesConfig::standard(1, 6, 12);
        let rows = sweep(&preset, &[3, 4]);
        assert_eq!(rows.iter().map(|r| r.seed).collect::<Vec<_>>(), [3, 4]);
        assert_ne!(rows[0].content_hash, rows[1].content_hash);
        assert_eq!(sweep(&preset, &[4])[0], rows[1]);
        for row in &rows {
            assert_eq!(row.channels.len(), 2);
            assert!(!row.anomalous(), "{}", render_sweep(&rows));
        }
        let text = render_sweep(&rows);
        assert!(text.starts_with("2 seeds | anomalous seeds: 0"), "{text}");
    }
}
