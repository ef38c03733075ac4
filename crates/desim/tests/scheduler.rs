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
//! handlers schedule new work mid-drain — and in-place re-queues
//! ([`TimingWheel::requeue`], the engine's Arrive → Deliver hop), whose
//! oracle is a pop followed by a push of the same payload.
//!
//! Below the lockstep properties, the engine-level consequences of the
//! one-slot life of a message: the slab does not grow per hop, and a
//! receiver that goes down between arrival and delivery costs one drop.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use desim::sched::{Popped, Scheduler, TimingWheel};
use desim::{Ctx, Duration, Message, NetworkConfig, NodeId, Protocol, Simulation, Time};
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
    /// Pop once and, if a live event came out, schedule it again
    /// `offset_ns` later without moving its payload.
    Requeue { offset_ns: u64 },
}

/// Raw op tuples (the vendored proptest has no mapped strategies):
/// `(selector, offset_ns, tag, nth)` decoded by [`decode`].
fn raw_ops() -> impl Strategy<Value = Vec<(u8, u64, u32, usize)>> {
    proptest::collection::vec(
        (0u8..10, 0u64..40_000_000_000, 0u32..1_000_000, 0usize..512),
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
            // Re-queues into the draining bucket, and anywhere up to and
            // past the far-heap horizon.
            8 => Op::Requeue {
                offset_ns: offset_ns % 2_000_000,
            },
            9 => Op::Requeue {
                offset_ns: *offset_ns,
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
    /// Every push's handle on either side, for `Op::Cancel`.
    ids: Vec<(desim::sched::EventId, u64)>,
    stream: Vec<Popped<u32>>,
}

impl Lockstep {
    /// Pops the oracle and demands it agrees with what the wheel popped.
    fn observe(&mut self, popped: Option<Popped<u32>>) -> Option<Popped<u32>> {
        assert_eq!(
            popped,
            self.heap.pop(),
            "pop {} diverged",
            self.stream.len()
        );
        let (Popped::Event { at, .. } | Popped::Cancelled { at }) = popped?;
        assert!(at >= self.now, "pops must be monotone");
        self.now = at;
        self.stream.push(popped?);
        popped
    }

    fn pop(&mut self) -> Option<Popped<u32>> {
        let popped = self.wheel.pop();
        self.observe(popped)
    }

    /// Pops the wheel without moving the payload and, if a live event
    /// came out, re-queues it in place; the oracle pops and pushes.
    fn requeue(&mut self, offset_ns: u64) {
        let (popped, held) = match self.wheel.pop_held() {
            Some(Popped::Event {
                at,
                seq,
                payload: held,
            }) => {
                let payload = *self.wheel.payload_mut(&held);
                (Some(Popped::Event { at, seq, payload }), Some(held))
            }
            Some(Popped::Cancelled { at }) => (Some(Popped::Cancelled { at }), None),
            None => (None, None),
        };
        self.observe(popped);
        if let (Some(held), Some(Popped::Event { seq, payload, .. })) = (held, popped) {
            let again = self.now + Duration::from_nanos(offset_ns);
            self.wheel.requeue(held, again);
            let fresh = self.heap.push(again, payload);
            // The wheel's id survives the re-queue; the oracle's is the
            // fresh seq.
            for (_, h) in self.ids.iter_mut().filter(|(_, h)| *h == seq) {
                *h = fresh;
            }
        }
    }
}

/// Drives the wheel and the oracle through the script in lockstep,
/// demanding equal pops at every step, and returns the full pop stream —
/// mid-script pops plus the final drain.
fn run(script: &[Op]) -> Vec<Popped<u32>> {
    let mut both = Lockstep::default();
    for op in script {
        match op {
            Op::Push { offset_ns, tag } => {
                let at = both.now + Duration::from_nanos(*offset_ns);
                both.ids
                    .push((both.wheel.push(at, *tag), both.heap.push(at, *tag)));
            }
            Op::Cancel { nth } => {
                if !both.ids.is_empty() {
                    let (w, h) = both.ids[nth % both.ids.len()];
                    both.wheel.cancel(w);
                    both.heap.cancel(h);
                }
            }
            Op::Pop => {
                both.pop();
            }
            Op::Requeue { offset_ns } => both.requeue(*offset_ns),
        }
    }
    while both.pop().is_some() {}
    assert!(both.wheel.is_empty(), "a drained scheduler reports empty");
    both.stream
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

/// Re-queues land where a pop + push would: between the pending entries
/// of the bucket being drained, at the same instant again, in a later
/// ring bucket, and past the far-heap horizon — and the id from the
/// first push still cancels the event after it moved.
#[test]
fn requeue_matches_pop_then_push_in_every_region() {
    let push = |offset_ns, tag| Op::Push { offset_ns, tag };
    let requeue = |offset_ns| Op::Requeue { offset_ns };
    let stream = run(&[
        push(100, 1),
        push(300, 2),
        push(5_000_000, 3),
        push(30_000_000_000, 4),
        requeue(100),            // 1 @100 ns -> @200 ns, ahead of 2
        requeue(0),              // 1 again, same instant, fresh seq
        requeue(6_000_000),      // 1 -> the bucket 3 waits in, behind it
        Op::Pop,                 // 2
        requeue(40_000_000_000), // 3 -> beyond the horizon, behind 4
        Op::Cancel { nth: 0 },   // 1, through its first id
    ]);
    let tags: Vec<Option<u32>> = stream
        .iter()
        .map(|p| match p {
            Popped::Event { payload, .. } => Some(*payload),
            Popped::Cancelled { .. } => None,
        })
        .collect();
    assert_eq!(
        tags,
        [
            Some(1),
            Some(1),
            Some(1),
            Some(2),
            Some(3),
            None,
            Some(4),
            Some(3)
        ]
    );
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
