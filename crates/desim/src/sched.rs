//! The event scheduler: a single-level timing wheel with a far heap.
//!
//! Events pop in exact `(time, insertion sequence)` order, each exactly
//! once: nothing is cancelled. Every protocol timer is a periodic round
//! that drops a stale firing itself (an epoch or nonce check), or dies with
//! its node. `tests/scheduler.rs` proptests the wheel against the seed
//! engine's scheduler — one global binary heap of full-size entries — kept
//! there as the oracle.
//!
//! ## The wheel
//!
//! [`TimingWheel`] buckets pending events by discrete sim time: one ring
//! of 2¹⁷ buckets of [`BUCKET_NS`] each (131 µs buckets over a
//! [`HORIZON_NS`] ≈ 17.2 s horizon), with a binary heap holding what lies
//! past the horizon. Payloads live in a slab and never move. A ring
//! bucket is one `u32`: the link to the head of an intrusive chain
//! threaded through the slab, each slot carrying its event's
//! `(time, seq)` and the link to the next slot in the same bucket, so an
//! insert is three stores and allocates nothing. A link to slot `s` is
//! stored as `s + 1` and `0` is the empty bucket, so the ring starts as
//! zero-filled memory: the allocator can hand its 512 KiB over without
//! writing them, and a page becomes resident only once the cursor or an
//! insert reaches it. The drain vector and the two heaps hold
//! `(time, seq, slot)` stubs instead.
//!
//! The bucket is narrower than `NetworkConfig::lan`'s 250 µs link-latency
//! floor, so under `lan` a send never lands in the bucket being drained,
//! and neither does an ingress re-queue. The horizon is longer than every
//! round a preset arms — the 10 s recovery round is the longest, and
//! `fabric-gossip` tests that each one fits — so pull, state-info, alive
//! and recovery rounds stay on the ring too. The far heap takes only what
//! is scheduled more than ≈ 17 s out: the joins and leaves a churn plan
//! arms at the start of a run, and rounds a run stretches to an hour to
//! keep them out of the way.
//!
//! ## The ordered drain
//!
//! When the cursor reaches a bucket, its chain is walked once into a
//! reused vector of stubs kept in `(time, seq)` order, descending, so each
//! pop is a `Vec::pop` off the end — no per-pop sift. The chain comes out
//! newest first, so `seq` falls along the walk, and each stub is inserted
//! behind every entry at or after its time: in the usual chain, whose
//! times fall with its `seq`, that is the end of the vector, and a load
//! costs one compare per stub and no sort. A chain further out of time
//! order (more than `LOAD_SHIFTS` = 16 entries moved) has the rest of its
//! stubs appended and is sorted once, so the worst load stays
//! O(n log n). Only what joins the bucket *while* it drains (a handler
//! scheduling inside the current 131 µs, or a far-heap entry the cursor
//! caught up with) goes through a small side min-heap; the next entry is
//! the smaller of the two heads. Both hold unique `(time, seq)` keys, so
//! the merged order is the exact total order.
//!
//! The engine pops through [`TimingWheel::pop_held_by`]: one call finds
//! the head, and either takes it or, when it lies past the step's limit,
//! leaves it queued. A bounded step does not peek first.
//!
//! ## One slot per message
//!
//! The engine pops a message twice — when it reaches the receiver's NIC
//! and, if the ingress queue holds it back, when it is delivered.
//! [`TimingWheel::pop_held`] pops the stub and leaves the payload in its
//! slot; the engine inspects it through [`TimingWheel::payload_mut`] and
//! then either [`TimingWheel::take`]s it (slot freed) or
//! [`TimingWheel::requeue`]s it: a fresh `seq`, same slot, re-linked into
//! its new bucket (or a new stub past the horizon); the payload does not
//! move. [`Scheduler::pop`] is `pop_held` + `take`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// log2 of the wheel bucket width in nanoseconds.
const BUCKET_SHIFT: u32 = 17;
/// Width of one ring bucket (131 µs): events inside the bucket being
/// drained pop through the side heap, later ones are chained.
pub const BUCKET_NS: u64 = 1 << BUCKET_SHIFT;
/// Number of ring buckets (power of two).
const NUM_BUCKETS: usize = 1 << 17;
const BUCKET_MASK: u64 = (NUM_BUCKETS as u64) - 1;
/// Words of the occupancy bitmap (power of two).
const WORDS: usize = NUM_BUCKETS / 64;
/// Span of the ring (≈ 17.2 s): an event whose bucket starts this far or
/// further past the draining bucket's start waits in the far heap.
pub const HORIZON_NS: u64 = (NUM_BUCKETS as u64) << BUCKET_SHIFT;
/// Entries a bucket load may move to insert its stubs in order; a chain
/// further out of time order is appended and sorted once.
const LOAD_SHIFTS: usize = 16;
/// The empty bucket head and the end of a bucket chain. A link to slot
/// `s` is stored as `s + 1`, so an empty ring is zero-filled memory.
const EMPTY: u32 = 0;

/// One scheduler pop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Popped<E> {
    /// A live event.
    Event {
        /// The instant the event was scheduled for.
        at: Time,
        /// Its global insertion sequence number.
        seq: u64,
        /// The scheduled payload.
        payload: E,
    },
    /// Never constructed: the scheduler cancels nothing. Kept only so that
    /// callers matching this arm still compile.
    Cancelled {
        /// The instant the event would have been scheduled for.
        at: Time,
    },
}

/// A popped event whose payload still sits in its slab slot — what
/// [`TimingWheel::pop_held`] hands out in place of the payload. Hand it
/// back exactly once, to [`TimingWheel::take`] (the event is over) or
/// [`TimingWheel::requeue`] (the same event fires again later). A dropped
/// `Held` leaks its slot.
#[derive(Debug)]
#[must_use = "a held event occupies its slab slot until taken or re-queued"]
pub struct Held {
    slot: u32,
}

/// The scheduling interface the engine drives.
pub trait Scheduler<E> {
    /// Schedules `payload` at `at`; `at` must be monotone with respect to
    /// the pops observed so far (events are never scheduled in the past).
    fn push(&mut self, at: Time, payload: E);
    /// Pops the next event in `(time, seq)` order, or `None` when the
    /// queue is empty.
    fn pop(&mut self) -> Option<Popped<E>>;
    /// The instant of the next event. The engine no longer calls it: a
    /// bounded step pops through [`TimingWheel::pop_held_by`], which finds
    /// the head once.
    fn peek_time(&mut self) -> Option<Time>;
    /// Events still queued.
    fn len(&self) -> usize;
    /// Whether nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An event stub: what the drain vector and both heaps hold.
#[derive(Debug, Clone, Copy)]
struct Stub {
    at_ns: u64,
    seq: u64,
    slot: u32,
}

impl Stub {
    fn key(&self) -> (u64, u64) {
        (self.at_ns, self.seq)
    }
}

/// Far-future stub with min-ordering for the overflow heap.
#[derive(Debug)]
struct FarStub(Stub);

impl PartialEq for FarStub {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl Eq for FarStub {}
impl PartialOrd for FarStub {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FarStub {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.key().cmp(&self.0.key()) // inverted: BinaryHeap is a max-heap
    }
}

#[derive(Debug)]
struct Slot<E> {
    /// The link to the next slot of this one's ring-bucket chain (`EMPTY`
    /// ends it); stale once the slot is unlinked.
    next: u32,
    /// The chained event's key; stale once the slot is unlinked.
    at_ns: u64,
    seq: u64,
    payload: Option<E>,
}

/// The production scheduler (see module docs).
#[derive(Debug)]
pub struct TimingWheel<E> {
    seq: u64,
    /// Events queued.
    pending: usize,
    slab: Vec<Slot<E>>,
    /// Vacant slab slots, reused last in, first out.
    free: Vec<u32>,
    /// The link to the first slot of each ring bucket's chain, `EMPTY`
    /// when the bucket is.
    heads: Vec<u32>,
    /// One occupancy bit per ring bucket.
    occupied: Vec<u64>,
    /// Absolute index of the bucket currently draining.
    cursor: u64,
    /// What the draining bucket's chain held when the cursor reached it,
    /// in `(time, seq)` order, descending: the next entry pops off the
    /// end.
    run: Vec<Stub>,
    /// What joined the draining bucket after it was loaded — inserts at
    /// or before the cursor, and far-heap entries the cursor caught up
    /// with — as a small min-heap: a standing population of same-bucket
    /// events (a long zero-latency burst) inserts in O(log k) instead of
    /// a memmove per push into `run`. The next entry to pop is the
    /// smaller of the two heads.
    cur: BinaryHeap<FarStub>,
    far: BinaryHeap<FarStub>,
}

impl<E> Default for TimingWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> TimingWheel<E> {
    /// An empty wheel anchored at `Time::ZERO`.
    pub fn new() -> Self {
        TimingWheel {
            seq: 0,
            pending: 0,
            slab: Vec::with_capacity(1024),
            free: Vec::with_capacity(1024),
            heads: vec![EMPTY; NUM_BUCKETS],
            occupied: vec![0; WORDS],
            cursor: 0,
            run: Vec::new(),
            cur: BinaryHeap::new(),
            far: BinaryHeap::new(),
        }
    }

    fn alloc(&mut self, payload: E) -> u32 {
        if let Some(s) = self.free.pop() {
            let slot = &mut self.slab[s as usize];
            debug_assert!(slot.payload.is_none());
            slot.payload = Some(payload);
            s
        } else {
            let s = self.slab.len() as u32;
            assert!(s < u32::MAX, "timing wheel slab full");
            self.slab.push(Slot {
                next: EMPTY,
                at_ns: 0,
                seq: 0,
                payload: Some(payload),
            });
            s
        }
    }

    /// Queues the event in `slot` at `(at_ns, seq)`.
    fn insert(&mut self, at_ns: u64, seq: u64, slot: u32) {
        let b = at_ns >> BUCKET_SHIFT;
        if b > self.cursor && b - self.cursor < NUM_BUCKETS as u64 {
            let s = (b & BUCKET_MASK) as usize;
            let entry = &mut self.slab[slot as usize];
            entry.at_ns = at_ns;
            entry.seq = seq;
            entry.next = self.heads[s];
            self.heads[s] = slot + 1;
            self.occupied[s >> 6] |= 1u64 << (s & 63);
            return;
        }
        let stub = FarStub(Stub { at_ns, seq, slot });
        if b <= self.cursor {
            // The event lands in (or before) the bucket being drained.
            // Everything already popped is strictly older (`at >= now` and
            // `seq` is the global maximum), so pushing into the side
            // min-heap keeps the pop order exact.
            self.cur.push(stub);
        } else {
            self.far.push(stub);
        }
    }

    /// Slab slots allocated so far: the most events that were ever queued
    /// (or held) at once.
    pub fn slots(&self) -> usize {
        self.slab.len()
    }

    /// [`Scheduler::pop`] that leaves the payload where it is, returning
    /// the event's `(at, seq)` and its [`Held`] slot: the engine looks at a
    /// message through [`TimingWheel::payload_mut`] and either takes it
    /// for the handler or re-queues it in place.
    pub fn pop_held(&mut self) -> Option<(Time, u64, Held)> {
        self.pop_held_by(Time::MAX)
    }

    /// [`TimingWheel::pop_held`] bounded by `limit`: the next event if it
    /// is due at or before `limit`, else `None` with nothing consumed.
    /// The head is found once, so a bounded step walks it once, not once
    /// to peek and again to pop.
    pub fn pop_held_by(&mut self, limit: Time) -> Option<(Time, u64, Held)> {
        let (stub, from_cur) = self.head()?;
        if stub.at_ns > limit.as_nanos() {
            return None;
        }
        if from_cur {
            self.cur.pop();
        } else {
            self.run.pop();
        }
        self.pending -= 1;
        let held = Held { slot: stub.slot };
        Some((Time::from_nanos(stub.at_ns), stub.seq, held))
    }

    /// The payload of a held event.
    pub fn payload_mut(&mut self, held: &Held) -> &mut E {
        self.slab[held.slot as usize]
            .payload
            .as_mut()
            .expect("held slot holds a payload")
    }

    /// Ends a held event: moves its payload out and frees the slot.
    pub fn take(&mut self, held: Held) -> E {
        let payload = self.slab[held.slot as usize]
            .payload
            .take()
            .expect("held slot holds a payload");
        self.free.push(held.slot);
        payload
    }

    /// Schedules a held event again at `at` (monotone, as for `push`)
    /// without moving its payload: same slot and a fresh `seq`, exactly
    /// the order a `pop` followed by a `push` would give it. Only the
    /// event's key is inserted.
    pub fn requeue(&mut self, held: Held, at: Time) {
        assert!(
            self.slab[held.slot as usize].payload.is_some(),
            "held slot holds a payload"
        );
        let seq = self.seq;
        self.seq += 1;
        self.insert(at.as_nanos(), seq, held.slot);
        self.pending += 1;
    }

    /// Ring-nearest occupied bucket strictly after the cursor, as an
    /// absolute index. All occupied buckets live in `(cursor, cursor + H)`,
    /// so the bitmap scan in ring order is also absolute order.
    fn next_occupied(&self) -> Option<u64> {
        let cursor_slot = (self.cursor & BUCKET_MASK) as usize;
        let start = (cursor_slot + 1) & (NUM_BUCKETS - 1);
        for step in 0..=WORDS {
            let wi = (start / 64 + step) & (WORDS - 1);
            let mut bits = self.occupied[wi];
            if step == 0 {
                bits &= !0u64 << (start & 63);
            }
            if step == WORDS {
                bits &= !(!0u64 << (start & 63));
            }
            if bits != 0 {
                let slot = wi * 64 + bits.trailing_zeros() as usize;
                let d = (slot + NUM_BUCKETS - cursor_slot) & (NUM_BUCKETS - 1);
                debug_assert!(d > 0);
                return Some(self.cursor + d as u64);
            }
        }
        None
    }

    /// The next entry to pop — the smaller `(time, seq)` of `run`'s and
    /// `cur`'s heads — and whether it is `cur`'s; when the draining bucket
    /// is spent, the cursor first advances to the next non-empty one.
    /// `None` when nothing is queued.
    fn head(&mut self) -> Option<(Stub, bool)> {
        loop {
            match (self.run.last(), self.cur.peek()) {
                (Some(r), Some(FarStub(c))) if c.key() < r.key() => return Some((*c, true)),
                (None, Some(FarStub(c))) => return Some((*c, true)),
                (Some(r), _) => return Some((*r, false)),
                (None, None) => {}
            }
            if self.pending == 0 {
                return None;
            }
            if !self.advance() {
                debug_assert!(false, "pending entries but no occupied bucket");
                return None;
            }
        }
    }

    /// Moves the cursor to the next non-empty bucket (near ring or far
    /// heap, whichever is earlier) and loads it: the ring bucket's chain
    /// is walked into `run`, each stub inserted in order (see the module
    /// docs), and far-heap entries of the same bucket spill into `cur`.
    /// Returns `false` when nothing is queued anywhere.
    fn advance(&mut self) -> bool {
        debug_assert!(
            self.run.is_empty() && self.cur.is_empty(),
            "advance over live entries"
        );
        let near = self.next_occupied();
        let far = self.far.peek().map(|f| f.0.at_ns >> BUCKET_SHIFT);
        let target = match (near, far) {
            (None, None) => return false,
            (Some(n), None) => n,
            (None, Some(f)) => f,
            (Some(n), Some(f)) => n.min(f),
        };
        self.cursor = target;
        let s = (target & BUCKET_MASK) as usize;
        if self.occupied[s >> 6] & (1u64 << (s & 63)) != 0 {
            let mut link = std::mem::replace(&mut self.heads[s], EMPTY);
            // Stubs moved so far to insert the walked one in order; past
            // `LOAD_SHIFTS` the rest is appended and sorted once.
            let mut shifts = 0;
            while link != EMPTY {
                let slot = &self.slab[link as usize - 1];
                let stub = Stub {
                    at_ns: slot.at_ns,
                    seq: slot.seq,
                    slot: link - 1,
                };
                link = slot.next;
                if shifts > LOAD_SHIFTS {
                    self.run.push(stub);
                    continue;
                }
                // The chain runs newest first, so `seq` falls along the
                // walk and the stub goes behind every entry at or after
                // its time: usually at the end.
                let mut at = self.run.len();
                while at > 0 && self.run[at - 1].at_ns < stub.at_ns {
                    at -= 1;
                }
                shifts += self.run.len() - at;
                self.run.insert(at, stub);
            }
            if shifts > LOAD_SHIFTS {
                self.run
                    .sort_unstable_by_key(|stub| std::cmp::Reverse(stub.key()));
            }
            self.occupied[s >> 6] &= !(1u64 << (s & 63));
        }
        while let Some(f) = self.far.peek() {
            if f.0.at_ns >> BUCKET_SHIFT == target {
                let stub = self.far.pop().expect("peeked");
                self.cur.push(stub);
            } else {
                break;
            }
        }
        true
    }
}

impl<E> Scheduler<E> for TimingWheel<E> {
    fn push(&mut self, at: Time, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        let slot = self.alloc(payload);
        self.insert(at.as_nanos(), seq, slot);
        self.pending += 1;
    }

    fn pop(&mut self) -> Option<Popped<E>> {
        let (at, seq, held) = self.pop_held()?;
        Some(Popped::Event {
            at,
            seq,
            payload: self.take(held),
        })
    }

    fn peek_time(&mut self) -> Option<Time> {
        self.head().map(|(stub, _)| Time::from_nanos(stub.at_ns))
    }

    fn len(&self) -> usize {
        self.pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn t(ms: u64) -> Time {
        Time::ZERO + Duration::from_millis(ms)
    }

    /// Pops `w` dry, payloads in pop order.
    fn drain<E>(w: &mut TimingWheel<E>) -> Vec<E> {
        std::iter::from_fn(|| w.pop_held().map(|(_, _, held)| w.take(held))).collect()
    }

    #[test]
    fn wheel_pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.push(t(5), "b");
        w.push(t(1), "a");
        w.push(t(5), "c");
        assert_eq!(
            w.pop(),
            Some(Popped::Event {
                at: t(1),
                seq: 1,
                payload: "a"
            })
        );
        assert_eq!(drain(&mut w), vec!["b", "c"]);
    }

    #[test]
    fn same_bucket_entries_respect_sub_bucket_times() {
        // Entries 100 ns apart land in the same 131 µs bucket and must
        // still pop in exact time order.
        let mut w = TimingWheel::new();
        for i in (0..50u64).rev() {
            w.push(Time::from_nanos(1000 + i * 100), i);
        }
        assert_eq!(drain(&mut w), (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn far_future_events_cross_the_horizon_correctly() {
        let mut w = TimingWheel::new();
        w.push(Time::from_secs(120), "far"); // beyond the ≈17 s horizon
        w.push(t(1), "near");
        w.push(Time::from_secs(119), "far-but-earlier");
        assert_eq!(w.len(), 3);
        assert_eq!(drain(&mut w), vec!["near", "far-but-earlier", "far"]);
    }

    #[test]
    fn inserts_into_the_draining_bucket_interleave_exactly() {
        let mut w = TimingWheel::new();
        w.push(Time::from_nanos(100), "first");
        w.push(Time::from_nanos(300), "third");
        let (_, _, held) = w.pop_held().expect("queued");
        assert_eq!(w.take(held), "first");
        // Same bucket, between the popped and the pending entry.
        w.push(Time::from_nanos(200), "second");
        assert_eq!(drain(&mut w), vec!["second", "third"]);
    }

    #[test]
    fn peek_advances_lazily_but_does_not_consume() {
        let mut w = TimingWheel::new();
        w.push(Time::from_secs(5), "x");
        assert_eq!(w.peek_time(), Some(Time::from_secs(5)));
        assert_eq!(w.peek_time(), Some(Time::from_secs(5)));
        assert!(matches!(w.pop(), Some(Popped::Event { .. })));
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn time_max_sentinel_is_schedulable() {
        let mut w = TimingWheel::new();
        w.push(Time::MAX, "eventually");
        w.push(t(1), "now");
        assert_eq!(w.peek_time(), Some(t(1)));
        assert_eq!(drain(&mut w).len(), 2);
    }
}
