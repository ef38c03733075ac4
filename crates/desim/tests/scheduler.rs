//! Scheduler equivalence: the timing wheel and the seed engine's binary
//! heap ([`HeapScheduler`], kept here as the oracle) must pop identical
//! `(time, seq, event)` streams on arbitrary workloads.
//!
//! The engine's determinism contract (same seed ⇒ byte-identical traces)
//! rests on the queue's exact `(time, insertion seq)` total order; these
//! properties pin the wheel to the reference under random pushes spanning
//! the near ring and the far-future heap, pops interleaved at arbitrary
//! points — the same interleaving a protocol produces when its handlers
//! schedule new work mid-drain — in-place re-queues
//! ([`TimingWheel::requeue`], the engine's Arrive → Deliver hop), whose
//! oracle is a pop followed by a push of the same payload, and bounded
//! pops ([`TimingWheel::pop_held_by`], the engine's step), whose oracle
//! is a peek at the heap's head. Buckets whose chains load out of time
//! order, up to a fully reversed one, are scripted on their own.
//!
//! Below the lockstep properties, the engine-level consequences of the
//! one-slot life of a message: the slab does not grow per hop, and a
//! receiver that goes down between arrival and delivery costs one drop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use desim::sched::{Scheduler, TimingWheel, BUCKET_NS, HORIZON_NS};
use desim::{Ctx, Duration, Message, NetworkConfig, NodeId, Protocol, Simulation, Time};
use proptest::prelude::*;

/// One popped event: `(at, seq, payload)`.
type Ev = (Time, u64, u32);

/// The seed engine's scheduler: one global `BinaryHeap` keyed on
/// `(time, insertion seq)`.
#[derive(Debug, Default)]
struct HeapScheduler {
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl HeapScheduler {
    fn push(&mut self, at: Time, tag: u32) {
        self.heap.push(Reverse((at.as_nanos(), self.seq, tag)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<Ev> {
        let Reverse((at_ns, seq, payload)) = self.heap.pop()?;
        Some((Time::from_nanos(at_ns), seq, payload))
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap
            .peek()
            .map(|Reverse((at_ns, ..))| Time::from_nanos(*at_ns))
    }
}

/// Ring buckets: the horizon in bucket widths.
const RING: u64 = HORIZON_NS / BUCKET_NS;

/// Where a scripted push or re-queue lands, relative to the last popped
/// instant — which is in the bucket the wheel is draining — in the wheel's
/// own geometry.
#[derive(Debug, Clone, Copy)]
enum Lands {
    /// Inside the bucket being drained, at or after now.
    Draining(u64),
    /// `ns` after now.
    After(u64),
    /// On the first instant of the `n`-th bucket after the draining one
    /// or, with `before`, on the last instant ahead of it.
    Edge { n: u64, before: bool },
}

impl Lands {
    /// The `class`-th kind of landing (mod 4) drawn from `ns`: the
    /// draining bucket, anywhere within the ring, a bucket or horizon
    /// edge, or up to 40 horizons past the horizon.
    fn drawn(class: u8, ns: u64) -> Self {
        const EDGES: [u64; 5] = [1, 2, RING - 1, RING, RING + 1];
        match class % 4 {
            0 => Lands::Draining(ns),
            1 => Lands::After(ns % HORIZON_NS),
            2 => Lands::Edge {
                n: EDGES[(ns % 5) as usize],
                before: ns & 8 != 0,
            },
            _ => Lands::After(HORIZON_NS + ns % (40 * HORIZON_NS)),
        }
    }

    fn at(self, now: Time) -> Time {
        let now = now.as_nanos();
        Time::from_nanos(match self {
            Lands::Draining(ns) => now + ns % (BUCKET_NS - now % BUCKET_NS),
            Lands::After(ns) => now + ns,
            Lands::Edge { n, before } => (now / BUCKET_NS + n) * BUCKET_NS - u64::from(before),
        })
    }
}

/// One scripted workload step.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule an event where `at` lands.
    Push { at: Lands, tag: u32 },
    /// Pop once.
    Pop,
    /// Pop once and, if an event came out, schedule it again where `at`
    /// lands without moving its payload.
    Requeue { at: Lands },
    /// Pop once if the head is due by a limit drawn against it.
    PopBy { limit: Limit },
}

/// Where a bounded pop's limit lies, relative to the queue's head (to the
/// last popped instant when the queue is empty).
#[derive(Debug, Clone, Copy)]
enum Limit {
    /// One nanosecond before the head: nothing pops.
    JustBefore,
    /// On the head's instant: the head pops.
    At,
    /// `ns` past the head.
    Past(u64),
}

/// Raw op tuples (the vendored proptest has no mapped strategies):
/// `(selector, offset_ns, tag)` decoded by [`decode`].
fn raw_ops() -> impl Strategy<Value = Vec<(u8, u64, u32)>> {
    proptest::collection::vec((0u8..17, 0u64..u64::MAX / 2, 0u32..1_000_000), 1..300)
}

/// Pushes and re-queues in every landing class — the draining bucket
/// twice as often as the others, so the side heap and same-bucket ties
/// are exercised hard — plain pops, and pops bounded just before, at and
/// past the head.
fn decode(raw: &[(u8, u64, u32)]) -> Vec<Op> {
    raw.iter()
        .map(|(sel, ns, tag)| match sel {
            0..=4 => Op::Push {
                at: Lands::drawn(*sel, *ns),
                tag: *tag,
            },
            5..=9 => Op::Requeue {
                at: Lands::drawn(sel - 5, *ns),
            },
            14 => Op::PopBy {
                limit: Limit::JustBefore,
            },
            15 => Op::PopBy { limit: Limit::At },
            16 => Op::PopBy {
                limit: Limit::Past(ns % (2 * HORIZON_NS)),
            },
            _ => Op::Pop,
        })
        .collect()
}

/// The wheel and the oracle side by side, with everything the script has
/// observed so far.
#[derive(Default)]
struct Lockstep {
    wheel: TimingWheel<u32>,
    heap: HeapScheduler,
    /// The last popped instant: pushes are anchored here (events are
    /// never scheduled in the past, as in the engine).
    now: Time,
    stream: Vec<Ev>,
}

impl Lockstep {
    /// Pops the oracle and demands it agrees with what the wheel popped.
    fn observe(&mut self, popped: Option<Ev>) {
        assert_eq!(
            popped,
            self.heap.pop(),
            "pop {} diverged",
            self.stream.len()
        );
        if let Some(ev) = popped {
            assert!(ev.0 >= self.now, "pops must be monotone");
            self.now = ev.0;
            self.stream.push(ev);
        }
    }

    fn pop(&mut self) -> Option<Ev> {
        let popped = self
            .wheel
            .pop_held()
            .map(|(at, seq, held)| (at, seq, self.wheel.take(held)));
        self.observe(popped);
        popped
    }

    /// Pops the wheel only if its head is due by `limit` (drawn against
    /// the oracle's head): a head past the limit stays queued, untouched.
    fn pop_by(&mut self, limit: Limit) {
        let head = self.heap.peek_time().unwrap_or(self.now).as_nanos();
        let limit = Time::from_nanos(match limit {
            Limit::JustBefore => head.saturating_sub(1),
            Limit::At => head,
            Limit::Past(ns) => head + ns,
        });
        let queued = self.wheel.len();
        match self.wheel.pop_held_by(limit) {
            Some((at, seq, held)) => {
                assert!(at <= limit, "popped {at:?} past the limit {limit:?}");
                let payload = self.wheel.take(held);
                self.observe(Some((at, seq, payload)));
            }
            None => {
                assert_eq!(self.wheel.len(), queued, "a refused pop consumed");
                assert!(
                    self.heap.peek_time().is_none_or(|at| at > limit),
                    "the head is due by {limit:?} but did not pop"
                );
            }
        }
    }

    /// Pops the wheel without moving the payload and, if an event came
    /// out, re-queues it in place; the oracle pops and pushes.
    fn requeue(&mut self, lands: Lands) {
        let Some((at, seq, held)) = self.wheel.pop_held() else {
            return self.observe(None);
        };
        let payload = *self.wheel.payload_mut(&held);
        self.observe(Some((at, seq, payload)));
        let again = lands.at(self.now);
        self.wheel.requeue(held, again);
        self.heap.push(again, payload);
    }

    /// One script step on both sides, demanding equal pops.
    fn apply(&mut self, op: &Op) {
        match op {
            Op::Push { at, tag } => {
                let at = at.at(self.now);
                self.wheel.push(at, *tag);
                self.heap.push(at, *tag);
            }
            Op::Pop => {
                self.pop();
            }
            Op::Requeue { at } => self.requeue(*at),
            Op::PopBy { limit } => self.pop_by(*limit),
        }
    }

    /// Pops both sides dry.
    fn drain(&mut self) {
        while self.pop().is_some() {}
        assert!(self.wheel.is_empty(), "a drained scheduler reports empty");
    }
}

/// Drives the wheel and the oracle through the script in lockstep,
/// demanding equal pops at every step, and returns the full pop stream —
/// mid-script pops plus the final drain.
fn run(script: &[Op]) -> Vec<Ev> {
    let mut both = Lockstep::default();
    for op in script {
        both.apply(op);
    }
    both.drain();
    both.stream
}

/// The payloads of a pop stream, in order.
fn tags(stream: &[Ev]) -> Vec<u32> {
    stream.iter().map(|ev| ev.2).collect()
}

proptest! {
    /// The core property: identical pop streams on random workloads.
    #[test]
    fn wheel_and_heap_pop_identical_streams(raw in raw_ops()) {
        run(&decode(&raw));
    }

    /// Every pushed event pops exactly once, in global `(time, seq)`
    /// order.
    #[test]
    fn all_live_events_pop_sorted(
        offsets in proptest::collection::vec(0u64..60_000_000_000, 1..200)
    ) {
        let mut wheel = TimingWheel::new();
        for (i, off) in offsets.iter().enumerate() {
            wheel.push(Time::from_nanos(*off), i as u32);
        }
        let mut popped = Vec::new();
        while let Some((at, seq, held)) = wheel.pop_held() {
            popped.push((at, seq, wheel.take(held)));
        }
        prop_assert_eq!(popped.len(), offsets.len());
        for w in popped.windows(2) {
            prop_assert!((w[0].0, w[0].1) < (w[1].0, w[1].1), "out of order: {w:?}");
        }
    }
}

/// A deterministic heavy mix shaped like a gossip run under
/// `NetworkConfig::lan`: sends one 250 µs link floor plus exponential
/// jitter ahead, ingress re-queues at least 1.5 ms ahead, timers from
/// 0.5 s out to two horizons: the periodic rounds inside the ring, and
/// later ones (a churn plan, a sentinel) past it in the far heap.
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
    // An exponential draw of mean `mean_ns` from the 48-bit value `r`.
    let exp = |r: u64, mean_ns: f64| {
        let u = (r as f64 + 0.5) / (1u64 << 48) as f64;
        (-u.ln() * mean_ns) as u64
    };
    for i in 0..4000u32 {
        let r = next();
        match r % 10 {
            0..=3 => script.push(Op::Push {
                at: Lands::After(250_000 + exp(next(), 400_000.0)), // a hop
                tag: i,
            }),
            4 => script.push(Op::Requeue {
                at: Lands::After(1_500_000 + exp(next(), 2_000_000.0)), // ingress
            }),
            5 => script.push(Op::Push {
                at: Lands::After(500_000_000 + r % (2 * HORIZON_NS)), // timers
                tag: i,
            }),
            _ => script.push(Op::Pop),
        }
    }
    run(&script);
}

proptest! {
    /// Buckets loaded from chains out of time order: every push lands,
    /// before the first pop, on one of 64 instants in one of three
    /// buckets, so each chain holds its bucket in push order — ties,
    /// inversions and, past a few dozen pushes, more disorder than a load
    /// inserts before it sorts.
    #[test]
    fn out_of_order_chains_load_exactly(
        raw in proptest::collection::vec((1u64..4, 0u64..64), 1..200)
    ) {
        let script: Vec<Op> = raw
            .iter()
            .zip(0..)
            .map(|(&(bucket, instant), tag)| Op::Push {
                at: Lands::After(bucket * BUCKET_NS + instant * (BUCKET_NS / 64)),
                tag,
            })
            .collect();
        run(&script);
    }
}

/// Three buckets whose chains load in time order, five stubs out of
/// it, and fully reversed — 2 000 pushes, each earlier than the last, so
/// every stub the walk meets belongs in front — then bounded pops just
/// before, at and past a head: the refused ones leave it queued.
#[test]
fn reversed_and_shuffled_buckets_load_exactly() {
    let push = |ns, tag| Op::Push {
        at: Lands::After(ns),
        tag,
    };
    let mut script = Vec::new();
    for i in 0..100 {
        script.push(push(BUCKET_NS + i * 1_000, i as u32));
    }
    for i in 0..100 {
        // The first five pairs swapped: five inversions, fewer than a
        // load inserts before it sorts.
        let slot = if i < 10 { i ^ 1 } else { i };
        script.push(push(2 * BUCKET_NS + slot * 1_000, 100 + i as u32));
    }
    for i in 0..2_000 {
        script.push(push(4 * BUCKET_NS - 1 - i * 60, 200 + i as u32));
    }
    script.extend([
        Op::PopBy {
            limit: Limit::JustBefore,
        },
        Op::PopBy { limit: Limit::At },
        Op::PopBy {
            limit: Limit::JustBefore,
        },
        Op::PopBy {
            limit: Limit::Past(1),
        },
    ]);
    let stream = run(&script);
    assert_eq!(stream.len(), 2_200);
    let swapped = (0..100).map(|i| 100 + if i < 10 { i ^ 1 } else { i });
    let reversed = (0..2_000).rev().map(|i| 200 + i);
    let expected: Vec<u32> = (0..100).chain(swapped).chain(reversed).collect();
    assert_eq!(tags(&stream), expected);
}

/// A bounded pop never reaches past its limit, wherever the head lies:
/// in the draining bucket, in a later ring bucket, or in the far heap.
#[test]
fn a_bounded_pop_leaves_a_later_head_queued() {
    let mut wheel = TimingWheel::new();
    let times = [
        Time::from_nanos(100),
        Time::from_millis(3),
        Time::from_secs(40),
    ];
    for (tag, at) in times.into_iter().enumerate() {
        wheel.push(at, tag as u32);
    }
    for (tag, at) in times.into_iter().enumerate() {
        let before = Time::from_nanos(at.as_nanos() - 1);
        assert!(
            wheel.pop_held_by(before).is_none(),
            "head {tag} popped early"
        );
        assert_eq!(wheel.len(), times.len() - tag);
        let (popped_at, _, held) = wheel.pop_held_by(at).expect("due at its limit");
        assert_eq!((popped_at, wheel.take(held)), (at, tag as u32));
    }
    assert!(wheel.pop_held_by(Time::MAX).is_none());
}

/// A hand-written script: ties on time, a far-future entry.
#[test]
fn heap_reference_matches_wheel_on_a_small_script() {
    let push = |ms: u64, tag| Op::Push {
        at: Lands::After(ms * 1_000_000),
        tag,
    };
    let stream = run(&[
        push(4, 1),
        push(1, 2),
        push(9, 3),
        push(4, 4),
        push(30_000, 5),
    ]);
    assert_eq!(tags(&stream), [2, 1, 4, 3, 5]);
}

/// Re-queues land where a pop + push would: between the pending entries
/// of the bucket being drained, at the same instant again, in a later
/// ring bucket, and past the far-heap horizon.
#[test]
fn requeue_matches_pop_then_push_in_every_region() {
    let push = |ns, tag| Op::Push {
        at: Lands::After(ns),
        tag,
    };
    let requeue = |ns| Op::Requeue {
        at: Lands::After(ns),
    };
    let stream = run(&[
        push(100, 1),
        push(300, 2),
        push(5_000_000, 3),
        push(30_000_000_000, 4),
        requeue(100),            // 1 @100 ns -> @200 ns, ahead of 2
        requeue(0),              // 1 again, same instant, fresh seq
        requeue(5_050_000),      // 1 -> the bucket 3 waits in, behind it
        Op::Pop,                 // 2
        requeue(40_000_000_000), // 3 -> beyond the horizon, behind 4
    ]);
    assert_eq!(tags(&stream), [1, 1, 1, 2, 3, 1, 4, 3]);
}

#[derive(Clone, Debug)]
struct Ball(u32);

impl Message for Ball {
    fn wire_size(&self) -> usize {
        64
    }
}

/// Returns every ball to its sender until its hop budget runs out.
#[derive(Default)]
struct PingPong {
    received: u64,
}

impl Protocol for PingPong {
    type Msg = Ball;
    type Timer = ();
    fn on_message(&mut self, ctx: &mut Ctx<'_, Ball, ()>, to: NodeId, from: NodeId, msg: Ball) {
        self.received += 1;
        if msg.0 > 0 {
            ctx.send(to, from, Ball(msg.0 - 1));
        }
    }
    fn on_timer(&mut self, _: &mut Ctx<'_, Ball, ()>, _: NodeId, _: ()) {}
}

/// A message holds one slab slot from `send` to `on_message`: under the
/// LAN model (every hop is held back by a sampled ingress delay, so every
/// hop re-queues) 100 000 hops of three balls never need a fourth slot.
#[test]
fn ping_pong_keeps_the_slab_at_its_in_flight_depth() {
    const HOPS: u32 = 100_000;
    let mut sim = Simulation::new(PingPong::default(), NetworkConfig::lan(2), 3);
    sim.with_ctx(|_, ctx| {
        for _ in 0..3 {
            ctx.send(NodeId(0), NodeId(1), Ball(HOPS / 3));
        }
    });
    assert_eq!(sim.scheduler_slots(), 3);
    sim.run_until_idle();
    assert_eq!(sim.protocol().received, u64::from(HOPS / 3 + 1) * 3);
    assert_eq!(sim.scheduler_slots(), 3, "the slab grew with the hops");
}

/// A receiver that goes down between a message's arrival and its
/// delivery: the message is dropped once, counted once, and its slot
/// serves the next event.
#[test]
fn receiver_down_between_arrival_and_delivery_drops_once() {
    let mut cfg = NetworkConfig::ideal(2);
    cfg.latency = desim::LatencyModel::Constant(Duration::from_millis(1));
    cfg.proc_delay = desim::LatencyModel::Constant(Duration::from_millis(10));
    let mut sim = Simulation::new(PingPong::default(), cfg, 1);
    sim.with_ctx(|_, ctx| {
        ctx.send(NodeId(0), NodeId(1), Ball(0)); // arrives 1 ms, due 11 ms
        ctx.set_node_status_after(Duration::from_millis(5), NodeId(1), false);
        ctx.set_node_status_after(Duration::from_millis(20), NodeId(1), true);
    });
    sim.run_until_idle();
    assert_eq!(sim.now(), Time::from_millis(20));
    assert_eq!(sim.protocol().received, 0);
    assert_eq!(sim.metrics().drops_down(), 1);
    assert_eq!(sim.events_processed(), 2, "the two transitions alone");
    sim.with_ctx(|_, ctx| ctx.send(NodeId(0), NodeId(1), Ball(0)));
    sim.run_until_idle();
    assert_eq!(sim.protocol().received, 1);
    assert_eq!(sim.metrics().drops_down(), 1);
    assert_eq!(
        sim.scheduler_slots(),
        3,
        "the dropped message's slot was freed"
    );
}
