//! Scheduler equivalence: the timing wheel and the seed engine's binary
//! heap ([`HeapScheduler`], kept here as the oracle) must pop identical
//! `(time, seq, event)` streams — cancelled-ghost positions included — on
//! arbitrary workloads.
//!
//! The engine's determinism contract (same seed ⇒ byte-identical traces)
//! rests on the queue's exact `(time, insertion seq)` total order; these
//! properties pin the wheel to the reference under random pushes spanning
//! the near ring and the far-future heap, random cancellations (of live,
//! fired and double-cancelled events alike), and pops interleaved at
//! arbitrary points — the same interleaving a protocol produces when its
//! handlers schedule new work mid-drain.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use desim::sched::{Popped, Scheduler, TimingWheel};
use desim::{Duration, Time};
use proptest::prelude::*;

/// The seed engine's scheduler: one global `BinaryHeap` keyed on
/// `(time, insertion seq)` plus a cancelled set consulted at pop, so a
/// cancelled event still pops — as a ghost — at its original instant.
#[derive(Debug, Default)]
struct HeapScheduler {
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    cancelled: HashSet<u64>,
}

impl HeapScheduler {
    fn push(&mut self, at: Time, tag: u32) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at.as_nanos(), seq, tag)));
        seq
    }

    fn cancel(&mut self, seq: u64) {
        self.cancelled.insert(seq);
    }

    fn pop(&mut self) -> Option<Popped<u32>> {
        let Reverse((at_ns, seq, payload)) = self.heap.pop()?;
        let at = Time::from_nanos(at_ns);
        Some(if self.cancelled.remove(&seq) {
            Popped::Cancelled { at }
        } else {
            Popped::Event { at, seq, payload }
        })
    }
}

/// One scripted workload step.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event `offset_ns` after the last popped instant.
    Push { offset_ns: u64, tag: u32 },
    /// Cancel the `nth` pushed event (mod pushes so far), live or not.
    Cancel { nth: usize },
    /// Pop once.
    Pop,
}

/// Raw op tuples (the vendored proptest has no mapped strategies):
/// `(selector, offset_ns, tag, nth)` decoded by [`decode`].
fn raw_ops() -> impl Strategy<Value = Vec<(u8, u64, u32, usize)>> {
    proptest::collection::vec(
        (0u8..8, 0u64..40_000_000_000, 0u32..1_000_000, 0usize..512),
        1..300,
    )
}

fn decode(raw: &[(u8, u64, u32, usize)]) -> Vec<Op> {
    raw.iter()
        .map(|(sel, offset_ns, tag, nth)| match sel {
            // Half the pushes stay within one wheel bucket of "now" so the
            // draining-bucket insert path is exercised hard.
            0 | 1 => Op::Push {
                offset_ns: offset_ns % 2_000_000,
                tag: *tag,
            },
            2 | 3 => Op::Push {
                offset_ns: *offset_ns,
                tag: *tag,
            },
            4 => Op::Cancel { nth: *nth },
            _ => Op::Pop,
        })
        .collect()
}

/// Drives the wheel and the oracle through the script in lockstep,
/// demanding equal pops at every step. Pushes are anchored at the last
/// observed pop time (events are never scheduled in the past, as in the
/// engine), and the full pop stream — mid-script pops plus the final
/// drain — is returned.
fn run(script: &[Op]) -> Vec<Popped<u32>> {
    let mut wheel = TimingWheel::new();
    let mut heap = HeapScheduler::default();
    let mut now = Time::ZERO;
    let mut ids = Vec::new();
    let mut stream = Vec::new();
    let mut pop = |wheel: &mut TimingWheel<u32>, heap: &mut HeapScheduler, now: &mut Time| {
        let popped = wheel.pop();
        assert_eq!(popped, heap.pop(), "pop {} diverged", stream.len());
        let (Popped::Event { at, .. } | Popped::Cancelled { at }) = popped?;
        assert!(at >= *now, "pops must be monotone");
        *now = at;
        stream.push(popped?);
        popped
    };
    for op in script {
        match op {
            Op::Push { offset_ns, tag } => {
                let at = now + Duration::from_nanos(*offset_ns);
                ids.push((wheel.push(at, *tag), heap.push(at, *tag)));
            }
            Op::Cancel { nth } => {
                if !ids.is_empty() {
                    let (w, h) = ids[nth % ids.len()];
                    wheel.cancel(w);
                    heap.cancel(h);
                }
            }
            Op::Pop => {
                pop(&mut wheel, &mut heap, &mut now);
            }
        }
    }
    while pop(&mut wheel, &mut heap, &mut now).is_some() {}
    assert!(wheel.is_empty(), "a drained scheduler reports empty");
    stream
}

proptest! {
    /// The core property: identical pop streams on random workloads.
    #[test]
    fn wheel_and_heap_pop_identical_streams(raw in raw_ops()) {
        run(&decode(&raw));
    }

    /// Without cancellations, every pushed event pops exactly once, in
    /// global `(time, seq)` order.
    #[test]
    fn all_live_events_pop_sorted(
        offsets in proptest::collection::vec(0u64..60_000_000_000, 1..200)
    ) {
        let mut wheel = TimingWheel::new();
        for (i, off) in offsets.iter().enumerate() {
            wheel.push(Time::from_nanos(*off), i as u32);
        }
        let mut popped = Vec::new();
        while let Some(p) = wheel.pop() {
            match p {
                Popped::Event { at, seq, payload } => popped.push((at, seq, payload)),
                Popped::Cancelled { .. } => prop_assert!(false, "nothing was cancelled"),
            }
        }
        prop_assert_eq!(popped.len(), offsets.len());
        for w in popped.windows(2) {
            prop_assert!((w[0].0, w[0].1) < (w[1].0, w[1].1), "out of order: {w:?}");
        }
    }

    /// Cancelling everything leaves only ghosts, at the right instants.
    #[test]
    fn cancel_all_yields_only_ghosts(
        offsets in proptest::collection::vec(0u64..60_000_000_000, 1..100)
    ) {
        let mut wheel = TimingWheel::new();
        let ids: Vec<_> = offsets
            .iter()
            .enumerate()
            .map(|(i, off)| wheel.push(Time::from_nanos(*off), i as u32))
            .collect();
        for id in ids {
            wheel.cancel(id);
        }
        let mut sorted = offsets.clone();
        sorted.sort_unstable();
        let mut ghost_times = Vec::new();
        while let Some(p) = wheel.pop() {
            match p {
                Popped::Cancelled { at } => ghost_times.push(at.as_nanos()),
                Popped::Event { .. } => prop_assert!(false, "everything was cancelled"),
            }
        }
        prop_assert_eq!(ghost_times, sorted);
    }
}

/// A deterministic heavy mix shaped like a gossip run: dense same-bucket
/// bursts, periodic far-future timers, cancels of both live and dead ids.
#[test]
fn dense_gossip_shaped_workload_matches() {
    let mut script = Vec::new();
    let mut x: u64 = 0x243f_6a88_85a3_08d3; // fixed splitmix-style stream
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        x >> 16
    };
    for i in 0..4000u32 {
        let r = next();
        match r % 10 {
            0..=4 => script.push(Op::Push {
                offset_ns: r % 3_000_000, // same-bucket chatter
                tag: i,
            }),
            5 => script.push(Op::Push {
                offset_ns: 4_000_000_000 + r % 30_000_000_000, // periodic timers
                tag: i,
            }),
            6 => script.push(Op::Cancel {
                nth: (r % 997) as usize,
            }),
            _ => script.push(Op::Pop),
        }
    }
    let stream = run(&script);
    assert!(
        stream.iter().any(|p| matches!(p, Popped::Cancelled { .. })),
        "the mix must exercise cancellation ghosts"
    );
}

/// A hand-written script: ties on time, a cancel, a far-future entry.
#[test]
fn heap_reference_matches_wheel_on_a_small_script() {
    let push = |ms: u64, tag| Op::Push {
        offset_ns: ms * 1_000_000,
        tag,
    };
    let stream = run(&[
        push(4, 1),
        push(1, 2),
        push(9, 3),
        push(4, 4),
        push(30_000, 5),
        Op::Cancel { nth: 2 },
    ]);
    let tags: Vec<Option<u32>> = stream
        .iter()
        .map(|p| match p {
            Popped::Event { payload, .. } => Some(*payload),
            Popped::Cancelled { .. } => None,
        })
        .collect();
    assert_eq!(tags, [Some(2), Some(1), Some(4), None, Some(5)]);
}
