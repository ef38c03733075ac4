//! Transaction schedules: what the client submits, and when.
//!
//! Two generators reproduce the paper's workloads:
//!
//! * [`payload_schedule`] — §V-A: 50 000 sequential transactions sized so
//!   that a 50-transaction block of ≈160 KB is cut roughly every 1.5 s
//!   (1 000 blocks total);
//! * [`increment_schedule`] — §V-D: 100 integer counters incremented 100
//!   times each (10 000 transactions) at a fixed 5 tx/s, with a fresh
//!   random permutation of the counter order in every round.
//!
//! A row is plain data, a time and a number: the payload row or the
//! counter key the invocation names, which the endorser renders into the
//! chaincode's key (`delta:row{n}` or `counter{n}`) when it simulates the
//! row. A schedule is one `Vec` of 24-byte rows with nothing on the heap
//! behind them: generating it writes that `Vec` and renders nothing, and
//! [`merge_schedules`] interleaves one per channel instant by instant.

use desim::{Duration, Time};
use fabric_types::ids::ChannelId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which chaincode an invocation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaincodeKind {
    /// [`increment`](crate::client::increment) — the conflict workload.
    Increment,
    /// [`payload`](crate::client::payload) — the dissemination workload.
    Payload,
}

/// One scheduled chaincode invocation: plain `Copy` data, 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledInvocation {
    /// When the client issues the proposal.
    pub at: Time,
    /// The channel the invocation targets: its endorsers simulate the
    /// chaincode, its ordering chain batches the transaction, its members
    /// receive the cut block. Generators produce [`ChannelId::DEFAULT`];
    /// retarget with [`retarget_schedule`].
    pub channel: ChannelId,
    /// Target chaincode.
    pub chaincode: ChaincodeKind,
    /// The invocation's one argument: the payload row or the counter key
    /// it names, which the endorser renders into the chaincode's key.
    pub number: u32,
    /// Wire padding applied to the resulting transaction.
    pub padding: u32,
}

/// Retargets a whole schedule at `channel` (workload generators emit
/// [`ChannelId::DEFAULT`]), in place.
pub fn retarget_schedule(
    mut schedule: Vec<ScheduledInvocation>,
    channel: ChannelId,
) -> Vec<ScheduledInvocation> {
    for row in &mut schedule {
        row.channel = channel;
    }
    schedule
}

/// Merges per-channel schedules into one time-sorted stream — the
/// multi-channel client workload. The merge is stable: invocations due at
/// the same instant keep their input-schedule order.
///
/// Every input must already be sorted by issue time, as the generators
/// emit it: the merge finds the earliest head instant across the inputs,
/// then takes each input's rows due at that instant in input order, into
/// a `Vec` of exactly the summed length; nothing is sorted and no heap is
/// kept. That costs O(k) per distinct instant over k inputs and O(1) per
/// row: every preset merges at most four inputs, each on the same
/// instants.
///
/// # Panics
///
/// If an input is not sorted by issue time.
pub fn merge_schedules(schedules: Vec<Vec<ScheduledInvocation>>) -> Vec<ScheduledInvocation> {
    let mut merged = Vec::with_capacity(schedules.iter().map(Vec::len).sum());
    // The next row of each input.
    let mut next = vec![0usize; schedules.len()];
    while let Some(at) = schedules
        .iter()
        .zip(&next)
        .filter_map(|(rows, &n)| rows.get(n).map(|row| row.at))
        .min()
    {
        for (i, (rows, n)) in schedules.iter().zip(&mut next).enumerate() {
            while let Some(&row) = rows.get(*n).filter(|row| row.at == at) {
                merged.push(row);
                *n += 1;
            }
            if let Some(row) = rows.get(*n) {
                assert!(
                    row.at >= at,
                    "schedule {i} is not sorted by issue time: row {n} is due at {:?}, before row {}",
                    row.at,
                    *n - 1
                );
            }
        }
    }
    merged
}

/// Parameters of the dissemination workload (§V-A).
#[derive(Debug, Clone, PartialEq)]
pub struct PayloadWorkload {
    /// Total transactions to issue (paper: 50 000).
    pub total_txs: usize,
    /// Issue rate in transactions per second (paper: one 50-tx block per
    /// ≈1.5 s ⇒ ≈33.3 tx/s).
    pub rate_per_sec: f64,
    /// Per-transaction wire padding; 50 × ≈3.2 KB ≈ the paper's 160 KB
    /// blocks.
    pub tx_padding: u32,
}

impl Default for PayloadWorkload {
    fn default() -> Self {
        PayloadWorkload {
            total_txs: 50_000,
            rate_per_sec: 50.0 / 1.5,
            tx_padding: 3_100,
        }
    }
}

impl PayloadWorkload {
    /// A scaled-down copy with `total_txs` transactions (same rate/sizes),
    /// for tests and quick examples.
    pub fn shortened(total_txs: usize) -> Self {
        PayloadWorkload {
            total_txs,
            ..Default::default()
        }
    }
}

/// Parameters of the conflict workload (§V-D).
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementWorkload {
    /// Number of distinct counters (paper: 100).
    pub keys: usize,
    /// Rounds; each round increments every counter once (paper: 100).
    pub rounds: usize,
    /// Issue rate in transactions per second (paper: 5).
    pub rate_per_sec: f64,
}

impl Default for IncrementWorkload {
    fn default() -> Self {
        IncrementWorkload {
            keys: 100,
            rounds: 100,
            rate_per_sec: 5.0,
        }
    }
}

impl IncrementWorkload {
    /// Total transactions the schedule will contain.
    pub fn total_txs(&self) -> usize {
        self.keys * self.rounds
    }
}

/// The most payload rows a schedule numbers: a row's number is a `u32`.
const MAX_PAYLOAD_TXS: usize = u32::MAX as usize + 1;

/// The most counter keys a schedule numbers: a key's number is a `u32`.
const MAX_COUNTER_KEYS: usize = u32::MAX as usize + 1;

/// When row `index` is issued: cast through `i64`, exact below 2^63, the
/// index converts in one instruction where the unsigned cast branches.
fn issue_time(index: usize, rate_per_sec: f64) -> Time {
    Time::ZERO + Duration::from_secs_f64(index as i64 as f64 / rate_per_sec)
}

/// Generates the dissemination schedule: conflict-free payload writes, one
/// unique delta row per transaction.
///
/// # Panics
///
/// If the rate is not positive or `total_txs` exceeds 2^32 (a row's
/// number is a `u32`).
pub fn payload_schedule(cfg: &PayloadWorkload) -> Vec<ScheduledInvocation> {
    assert!(cfg.rate_per_sec > 0.0, "rate must be positive");
    assert!(
        cfg.total_txs <= MAX_PAYLOAD_TXS,
        "at most {MAX_PAYLOAD_TXS} payload rows are numbered"
    );
    (0..cfg.total_txs)
        .map(|i| ScheduledInvocation {
            at: issue_time(i, cfg.rate_per_sec),
            channel: ChannelId::DEFAULT,
            chaincode: ChaincodeKind::Payload,
            number: i as u32,
            padding: cfg.tx_padding,
        })
        .collect()
}

/// Generates the conflict schedule: `rounds` random permutations of the
/// counter keys, issued back to back at the configured rate. Deterministic
/// in `seed`.
///
/// # Panics
///
/// If the rate is not positive, the workload is empty or `keys` exceeds
/// 2^32 (a key's number is a `u32`).
pub fn increment_schedule(cfg: &IncrementWorkload, seed: u64) -> Vec<ScheduledInvocation> {
    assert!(cfg.rate_per_sec > 0.0, "rate must be positive");
    assert!(cfg.keys > 0 && cfg.rounds > 0, "empty workload");
    assert!(
        cfg.keys <= MAX_COUNTER_KEYS,
        "at most {MAX_COUNTER_KEYS} counter keys are numbered"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<u32> = (0..cfg.keys).map(|key| key as u32).collect();
    let mut out = Vec::with_capacity(cfg.total_txs());
    let mut index = 0usize;
    for _ in 0..cfg.rounds {
        // Fresh Fisher–Yates permutation per round, as in the paper.
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for &key in &order {
            out.push(ScheduledInvocation {
                at: issue_time(index, cfg.rate_per_sec),
                channel: ChannelId::DEFAULT,
                chaincode: ChaincodeKind::Increment,
                number: key,
                padding: 64,
            });
            index += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn payload_schedule_matches_paper_scale() {
        let cfg = PayloadWorkload::default();
        let sched = payload_schedule(&cfg);
        assert_eq!(sched.len(), 50_000);
        // 50 000 tx at one 50-tx block per 1.5 s span 1 500 s.
        let last = sched.last().unwrap().at;
        assert!((last.as_secs_f64() - 1_500.0).abs() < 1.0);
        // All rows unique (conflict-free by construction).
        let rows: HashSet<u32> = sched.iter().map(|s| s.number).collect();
        assert_eq!(rows.len(), 50_000);
    }

    /// The generators number the rows and the counters they named before
    /// a row held a number in place of a rendered argument.
    #[test]
    fn generated_numbers_are_unchanged() {
        let sched = payload_schedule(&PayloadWorkload::default());
        assert_eq!(sched[0].number, 0);
        assert_eq!(sched[49_999].number, 49_999);
        let sched = increment_schedule(&IncrementWorkload::default(), 1);
        let keys: Vec<u32> = sched[..10].iter().map(|s| s.number).collect();
        assert_eq!(keys, [92, 96, 71, 52, 37, 73, 66, 80, 70, 78]);
    }

    #[test]
    #[should_panic(expected = "at most 4294967296 payload rows")]
    fn a_payload_schedule_past_its_limit_panics() {
        payload_schedule(&PayloadWorkload::shortened(MAX_PAYLOAD_TXS + 1));
    }

    #[test]
    #[should_panic(expected = "at most 4294967296 counter keys")]
    fn an_increment_schedule_past_its_limit_panics() {
        increment_schedule(
            &IncrementWorkload {
                keys: MAX_COUNTER_KEYS + 1,
                ..IncrementWorkload::default()
            },
            1,
        );
    }

    mod model {
        use super::*;
        use proptest::prelude::*;

        /// The rates the presets issue at: the paper's two workloads,
        /// the pipeline tests' and the `skewed` multi-channel plans'.
        const RATES: [f64; 8] = [
            50.0 / 1.5,
            5.0,
            10.0,
            100.0,
            20.0,
            20.0 / 3.0,
            20.0 / 7.0,
            2.0,
        ];

        proptest! {
            /// An issue time against the `f64::round` it was rounded by
            /// before `from_secs_f64` rounded without it, at every
            /// preset's rate for the first 10^6 rows.
            #[test]
            fn model_issue_time_matches_round(
                index in 0usize..1_000_000,
                rate in 0usize..RATES.len(),
            ) {
                let rate = RATES[rate];
                let nanos = (index as f64 / rate * 1e9).round() as u64;
                prop_assert_eq!(issue_time(index, rate), Time::from_nanos(nanos));
            }

            /// The one-pass merge against the flatten-and-stable-sort it
            /// replaced, over 0–12 presorted inputs: row `j` joins input
            /// `pick % inputs` `gap` ms after that input's last row, so
            /// inputs tie within themselves (gap 0) and across each other
            /// (the clocks stay small), and most of twelve inputs are
            /// empty or short.
            #[test]
            fn model_merge_schedules_matches_stable_sort(
                inputs in 0usize..13,
                rows in proptest::collection::vec((0usize..12, 0u64..3), 0..160),
            ) {
                let mut schedules = vec![Vec::new(); inputs];
                let mut clocks = vec![Time::ZERO; inputs];
                for (j, &(pick, gap)) in rows.iter().enumerate().filter(|_| inputs > 0) {
                    let i = pick % inputs;
                    clocks[i] += Duration::from_millis(gap);
                    schedules[i].push(ScheduledInvocation {
                        at: clocks[i],
                        channel: ChannelId(i as u16),
                        chaincode: ChaincodeKind::Payload,
                        number: j as u32,
                        padding: 0,
                    });
                }
                let mut sorted: Vec<ScheduledInvocation> =
                    schedules.iter().flatten().copied().collect();
                sorted.sort_by_key(|s| s.at);
                let merged = merge_schedules(schedules);
                prop_assert_eq!(merged.capacity(), merged.len());
                prop_assert_eq!(merged, sorted);
            }

            /// The merge on the presets' shape, against flatten and stable
            /// sort: up to twelve inputs, some empty, every other one on
            /// the same instant sequence (`gap` ms apart, ties within an
            /// input included), as the `churn_waves` and `multichannel`
            /// plans give every channel the same rate.
            #[test]
            fn model_merge_schedules_on_shared_instants(
                present in proptest::collection::vec(any::<bool>(), 0..13),
                gaps in proptest::collection::vec(0u64..3, 0..60),
            ) {
                let instants: Vec<Time> = gaps
                    .iter()
                    .scan(Time::ZERO, |at, &gap| {
                        *at += Duration::from_millis(gap);
                        Some(*at)
                    })
                    .collect();
                let schedules: Vec<Vec<ScheduledInvocation>> = present
                    .iter()
                    .enumerate()
                    .map(|(i, &present)| {
                        let instants = if present { &instants[..] } else { &[] };
                        instants
                            .iter()
                            .enumerate()
                            .map(|(j, &at)| ScheduledInvocation {
                                at,
                                channel: ChannelId(i as u16),
                                chaincode: ChaincodeKind::Payload,
                                number: j as u32,
                                padding: 0,
                            })
                            .collect()
                    })
                    .collect();
                let mut sorted: Vec<ScheduledInvocation> =
                    schedules.iter().flatten().copied().collect();
                sorted.sort_by_key(|s| s.at);
                let merged = merge_schedules(schedules);
                prop_assert_eq!(merged.capacity(), merged.len());
                prop_assert_eq!(merged, sorted);
            }
        }
    }

    /// An input out of time order is refused, not merged out of order.
    #[test]
    #[should_panic(expected = "schedule 1 is not sorted by issue time")]
    fn merging_an_unsorted_schedule_panics() {
        let sorted = payload_schedule(&PayloadWorkload::shortened(4));
        let mut unsorted = payload_schedule(&PayloadWorkload::shortened(4));
        unsorted.swap(1, 2);
        merge_schedules(vec![sorted, unsorted]);
    }

    #[test]
    fn payload_tx_padding_yields_160kb_blocks() {
        let cfg = PayloadWorkload::default();
        // 50 transactions of (padding + framing ≈ 100 B) ≈ 160 KB.
        let block_bytes = 50 * (cfg.tx_padding as usize + 100);
        assert!(
            (150_000..=170_000).contains(&block_bytes),
            "got {block_bytes}"
        );
    }

    #[test]
    fn increment_schedule_is_rounds_of_permutations() {
        let cfg = IncrementWorkload {
            keys: 10,
            rounds: 5,
            rate_per_sec: 5.0,
        };
        let sched = increment_schedule(&cfg, 42);
        assert_eq!(sched.len(), 50);
        for round in 0..5 {
            let keys: HashSet<u32> = sched[round * 10..(round + 1) * 10]
                .iter()
                .map(|s| s.number)
                .collect();
            assert_eq!(keys.len(), 10, "round {round} must touch every key once");
        }
    }

    #[test]
    fn increment_schedule_paces_at_the_configured_rate() {
        let cfg = IncrementWorkload::default();
        let sched = increment_schedule(&cfg, 1);
        assert_eq!(sched.len(), 10_000);
        let dt = sched[1].at.since(sched[0].at);
        assert_eq!(
            dt,
            Duration::from_millis(200),
            "5 tx/s means one every 200 ms"
        );
        let last = sched.last().unwrap().at;
        assert!((last.as_secs_f64() - 1_999.8).abs() < 0.5);
    }

    #[test]
    fn increment_schedule_is_deterministic_in_seed() {
        let cfg = IncrementWorkload {
            keys: 20,
            rounds: 3,
            rate_per_sec: 5.0,
        };
        assert_eq!(increment_schedule(&cfg, 7), increment_schedule(&cfg, 7));
        assert_ne!(increment_schedule(&cfg, 7), increment_schedule(&cfg, 8));
    }

    #[test]
    fn rounds_are_permuted_differently() {
        let cfg = IncrementWorkload {
            keys: 50,
            rounds: 2,
            rate_per_sec: 5.0,
        };
        let sched = increment_schedule(&cfg, 3);
        let round1: Vec<u32> = sched[..50].iter().map(|s| s.number).collect();
        let round2: Vec<u32> = sched[50..].iter().map(|s| s.number).collect();
        assert_ne!(
            round1, round2,
            "identical permutations are astronomically unlikely"
        );
    }

    #[test]
    fn schedules_are_time_sorted() {
        let sched = payload_schedule(&PayloadWorkload::shortened(100));
        assert!(sched.windows(2).all(|w| w[0].at <= w[1].at));
        let sched = increment_schedule(&IncrementWorkload::default(), 1);
        assert!(sched.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn generators_target_the_default_channel() {
        let sched = payload_schedule(&PayloadWorkload::shortened(10));
        assert!(sched.iter().all(|s| s.channel == ChannelId::DEFAULT));
    }

    #[test]
    fn retarget_and_merge_build_a_multichannel_workload() {
        let ch0 = payload_schedule(&PayloadWorkload::shortened(6));
        let ch1 = retarget_schedule(
            payload_schedule(&PayloadWorkload {
                total_txs: 4,
                rate_per_sec: 2.0,
                tx_padding: 100,
            }),
            ChannelId(1),
        );
        assert!(ch1.iter().all(|s| s.channel == ChannelId(1)));
        let merged = merge_schedules(vec![ch0.clone(), ch1.clone()]);
        assert_eq!(merged.len(), 10);
        assert!(merged.windows(2).all(|w| w[0].at <= w[1].at));
        // Stable at equal instants: both schedules start at t = 0 and the
        // ch0 entry must come first.
        assert_eq!(merged[0].channel, ChannelId::DEFAULT);
        assert_eq!(merged[1].channel, ChannelId(1));
        // Every input invocation survives the merge.
        let ch1_count = merged.iter().filter(|s| s.channel == ChannelId(1)).count();
        assert_eq!(ch1_count, 4);
    }
}
