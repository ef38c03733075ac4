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
//! A row is plain data: its one argument (`row{i}` or `counter{key}`) is an
//! [`InvocationArg`] rendered once, inline, when the generator writes the
//! row. A schedule is one `Vec` of 32-byte rows with nothing on the heap
//! behind them: generating it allocates that `Vec` and nothing else, and
//! an endorser passes the inline string straight to its chaincode.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::fmt;

use desim::{Duration, Time};
use fabric_types::ids::ChannelId;
use fabric_types::rwset::InlineBytes;
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

/// A chaincode argument of at most [`InvocationArg::CAPACITY`] bytes of
/// UTF-8, held inline: `Copy`, 16 bytes, nothing on the heap. Equality and
/// `Debug` go by the string.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct InvocationArg(InlineBytes);

impl InvocationArg {
    /// The most bytes an argument holds.
    pub const CAPACITY: usize = InlineBytes::CAPACITY;

    /// The argument `arg`, or `None` when it is longer than
    /// [`InvocationArg::CAPACITY`] bytes.
    fn try_new(arg: &str) -> Option<Self> {
        InlineBytes::try_concat(arg.as_bytes(), &[]).map(InvocationArg)
    }

    /// The argument `arg`.
    ///
    /// # Panics
    ///
    /// If `arg` is longer than [`InvocationArg::CAPACITY`] bytes.
    pub fn new(arg: &str) -> Self {
        Self::try_new(arg).unwrap_or_else(|| {
            panic!(
                "invocation argument {arg:?} is {} bytes; at most {} fit inline",
                arg.len(),
                Self::CAPACITY
            )
        })
    }

    /// `prefix` followed by the decimal digits of `n` — what
    /// `format!("{prefix}{n}")` renders — or `None` when that is longer
    /// than [`InvocationArg::CAPACITY`] bytes. The digits are written right
    /// to left straight into the inline buffer.
    fn numbered(prefix: &str, n: u64) -> Option<Self> {
        let digits = n.checked_ilog10().map_or(1, |d| d as usize + 1);
        InlineBytes::try_fill(prefix.len() + digits, |bytes| {
            let (head, tail) = bytes.split_at_mut(prefix.len());
            head.copy_from_slice(prefix.as_bytes());
            let mut rest = n;
            for digit in tail.iter_mut().rev() {
                *digit = b'0' + (rest % 10) as u8;
                rest /= 10;
            }
        })
        .map(InvocationArg)
    }

    /// The argument as a string.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.0.as_bytes()).expect("built from a str or from ASCII digits")
    }
}

impl fmt::Debug for InvocationArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

/// One scheduled chaincode invocation: plain `Copy` data, 32 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledInvocation {
    /// When the client issues the proposal.
    pub at: Time,
    /// The channel the invocation targets: its endorsers simulate the
    /// chaincode, its ordering chain batches the transaction, its members
    /// receive the cut block. Generators produce [`ChannelId::DEFAULT`];
    /// retarget with [`ScheduledInvocation::on_channel`] /
    /// [`retarget_schedule`].
    pub channel: ChannelId,
    /// Target chaincode.
    pub chaincode: ChaincodeKind,
    /// The invocation's one argument: the payload row or the counter key.
    pub arg: InvocationArg,
    /// Wire padding applied to the resulting transaction.
    pub padding: u32,
}

impl ScheduledInvocation {
    /// Retargets the invocation at `channel`.
    #[must_use]
    pub fn on_channel(mut self, channel: ChannelId) -> Self {
        self.channel = channel;
        self
    }
}

/// Retargets a whole schedule at `channel` (workload generators emit
/// [`ChannelId::DEFAULT`]).
pub fn retarget_schedule(
    schedule: Vec<ScheduledInvocation>,
    channel: ChannelId,
) -> Vec<ScheduledInvocation> {
    schedule
        .into_iter()
        .map(|s| s.on_channel(channel))
        .collect()
}

/// Merges per-channel schedules into one time-sorted stream — the
/// multi-channel client workload. The merge is stable: invocations due at
/// the same instant keep their input-schedule order.
///
/// Every input must already be sorted by issue time, as the generators
/// emit it: the merge is one pass over the inputs' heads (a min-heap
/// keyed on `(at, input)`) into a `Vec` of exactly the summed length, and
/// nothing is sorted.
///
/// # Panics
///
/// If an input is not sorted by issue time.
pub fn merge_schedules(schedules: Vec<Vec<ScheduledInvocation>>) -> Vec<ScheduledInvocation> {
    let mut merged = Vec::with_capacity(schedules.iter().map(Vec::len).sum());
    // The next row of each input, and each non-empty input's head as
    // `(at, input)`: the smallest pops first, the lower input on a tie.
    let mut next = vec![0usize; schedules.len()];
    let mut heads: BinaryHeap<Reverse<(Time, usize)>> = schedules
        .iter()
        .enumerate()
        .filter_map(|(i, rows)| rows.first().map(|row| Reverse((row.at, i))))
        .collect();
    while let Some(mut head) = heads.peek_mut() {
        let Reverse((at, i)) = *head;
        let rows = &schedules[i];
        merged.push(rows[next[i]]);
        next[i] += 1;
        match rows.get(next[i]) {
            Some(row) => {
                assert!(
                    row.at >= at,
                    "schedule {i} is not sorted by issue time: row {} is due at {:?}, before row {}",
                    next[i],
                    row.at,
                    next[i] - 1
                );
                *head = Reverse((row.at, i));
            }
            None => {
                PeekMut::pop(head);
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

/// Payload rows are numbered below this: `"row"` and twelve digits fill
/// an [`InvocationArg`].
const MAX_PAYLOAD_TXS: usize = 1_000_000_000_000;

/// Counter keys are numbered below this: `"counter"` and eight digits fill
/// an [`InvocationArg`].
const MAX_COUNTER_KEYS: usize = 100_000_000;

/// `prefix` and `n` rendered inline; the generators check their limits
/// first, so the argument always fits.
fn numbered_arg(prefix: &str, n: usize) -> InvocationArg {
    InvocationArg::numbered(prefix, n as u64).expect("within the generator's limit")
}

fn issue_time(index: usize, rate_per_sec: f64) -> Time {
    Time::ZERO + Duration::from_secs_f64(index as f64 / rate_per_sec)
}

/// Generates the dissemination schedule: conflict-free payload writes, one
/// unique delta row per transaction.
///
/// # Panics
///
/// If the rate is not positive or `total_txs` exceeds 10^12 (`"row"` and
/// twelve digits fill an [`InvocationArg`]).
pub fn payload_schedule(cfg: &PayloadWorkload) -> Vec<ScheduledInvocation> {
    assert!(cfg.rate_per_sec > 0.0, "rate must be positive");
    assert!(
        cfg.total_txs <= MAX_PAYLOAD_TXS,
        "at most {MAX_PAYLOAD_TXS} payload rows fit an inline argument"
    );
    (0..cfg.total_txs)
        .map(|i| ScheduledInvocation {
            at: issue_time(i, cfg.rate_per_sec),
            channel: ChannelId::DEFAULT,
            chaincode: ChaincodeKind::Payload,
            arg: numbered_arg("row", i),
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
/// 10^8 (`"counter"` and eight digits fill an [`InvocationArg`]).
pub fn increment_schedule(cfg: &IncrementWorkload, seed: u64) -> Vec<ScheduledInvocation> {
    assert!(cfg.rate_per_sec > 0.0, "rate must be positive");
    assert!(cfg.keys > 0 && cfg.rounds > 0, "empty workload");
    assert!(
        cfg.keys <= MAX_COUNTER_KEYS,
        "at most {MAX_COUNTER_KEYS} counter keys fit an inline argument"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..cfg.keys).collect();
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
                arg: numbered_arg("counter", key),
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
        let rows: HashSet<&str> = sched.iter().map(|s| s.arg.as_str()).collect();
        assert_eq!(rows.len(), 50_000);
    }

    /// The generators render the strings `format!` rendered before the
    /// arguments were held inline.
    #[test]
    fn generated_arguments_are_unchanged() {
        let sched = payload_schedule(&PayloadWorkload::default());
        assert_eq!(sched[0].arg.as_str(), "row0");
        assert_eq!(sched[49_999].arg.as_str(), "row49999");
        let sched = increment_schedule(&IncrementWorkload::default(), 1);
        let keys: Vec<&str> = sched[..10].iter().map(|s| s.arg.as_str()).collect();
        assert_eq!(
            keys,
            [
                "counter92",
                "counter96",
                "counter71",
                "counter52",
                "counter37",
                "counter73",
                "counter66",
                "counter80",
                "counter70",
                "counter78",
            ]
        );
    }

    #[test]
    #[should_panic(expected = "at most 15 fit inline")]
    fn an_argument_past_the_capacity_is_refused() {
        InvocationArg::new("counter123456789");
    }

    #[test]
    #[should_panic(expected = "at most 1000000000000 payload rows")]
    fn a_payload_schedule_past_its_limit_panics() {
        payload_schedule(&PayloadWorkload::shortened(MAX_PAYLOAD_TXS + 1));
    }

    #[test]
    #[should_panic(expected = "at most 100000000 counter keys")]
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

        const PREFIXES: [&str; 3] = ["row", "counter", ""];

        /// The largest number each prefix holds: the generators' limits,
        /// and fifteen digits for the bare number.
        const EDGES: [u64; 3] = [
            MAX_PAYLOAD_TXS as u64 - 1,
            MAX_COUNTER_KEYS as u64 - 1,
            999_999_999_999_999,
        ];

        proptest! {
            /// An inline argument against the `format!` string it
            /// replaced: same text for every prefix at 0, 9, 10, 99 999,
            /// each limit's edge and any number in between; one past the
            /// edge does not fit; and 16 bytes or more are refused (`new`
            /// panics on what `try_new` refuses).
            #[test]
            fn model_invocation_arg_matches_format(
                which in 0usize..3,
                pick in 0usize..6,
                any_n in 0u64..1_000_000_000_000_000,
                long in proptest::collection::vec(0u8..26, 16..24),
            ) {
                let (prefix, edge) = (PREFIXES[which], EDGES[which]);
                let n = [0, 9, 10, 99_999, edge, any_n % (edge + 1)][pick];
                let arg = InvocationArg::numbered(prefix, n).expect("within the limit");
                let rendered = format!("{prefix}{n}");
                prop_assert_eq!(arg.as_str(), rendered.as_str());
                prop_assert_eq!(arg, InvocationArg::new(&rendered));
                prop_assert_eq!(format!("{arg:?}"), format!("{rendered:?}"));
                prop_assert!(InvocationArg::numbered(prefix, edge + 1).is_none());

                let long: String = long.iter().map(|&c| char::from(b'a' + c)).collect();
                prop_assert!(InvocationArg::try_new(&long).is_none());
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
                        arg: numbered_arg("row", j),
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
            let keys: HashSet<&str> = sched[round * 10..(round + 1) * 10]
                .iter()
                .map(|s| s.arg.as_str())
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
        let round1: Vec<&str> = sched[..50].iter().map(|s| s.arg.as_str()).collect();
        let round2: Vec<&str> = sched[50..].iter().map(|s| s.arg.as_str()).collect();
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
