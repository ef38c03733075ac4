//! The host's clock speed, read through a run.
//!
//! The box the benchmark was defined on changes speed by a quarter every
//! few tens of seconds, with how busy its neighbours are: a fixed chain of
//! integer operations took 2.0 ns per step in one minute and 2.6 in the
//! next, and every simulation's wall time moved with it (3.7 s against
//! 4.5 s for the same seed of `enhanced_100p`). No number of repetitions
//! inside an invocation averages that out.
//!
//! So every simulation reads the chain every few thousand events, and its
//! host times are reported *at the reference clock*: time measured ×
//! ([`REFERENCE_NS_PER_STEP`] ÷ ns per step read through the run). The
//! readings are spaced evenly in work, not in time, so their mean weights
//! each speed by the work done at it — as the run's wall time does. What
//! the chain cannot see (a neighbour's pressure on memory and the shared
//! cache) stays in the numbers; that residue is a few percent where the
//! swing as measured is twenty.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// What the chain takes per step at the reference clock: this box's
/// faster state, rounded. A box that runs the chain at this speed reports
/// its times as measured.
pub const REFERENCE_NS_PER_STEP: f64 = 2.0;

/// A reading is the fastest of a few short runs of the chain (≈4 µs
/// each), so that an interrupt or a preemption spoils one of them and not
/// the reading. Simulated events between two readings: 5–50 ms of the
/// workloads, so the readings are under 0.3 % of a run — and are taken out
/// of its time.
const STEPS_PER_TRY: u64 = 1 << 11;
const TRIES_PER_READING: u32 = 4;
pub const EVENTS_PER_READING: u32 = 1 << 13;

/// Four independent xorshift generators stepped side by side (not affine
/// recurrences, so the compiler cannot fold them): the same work on any
/// box, touching no memory. Four, because one dependent chain leaves most
/// of the core idle and so reads the core clock but not a busy sibling
/// hyperthread; the four together keep the core about as busy as the
/// simulation does, and tracked its wall time better on every workload
/// (per-run spread left after rescaling 3.5–5.4 % against 4.3–6.7 %, from
/// 7.5–10.5 % as measured). Each generator has its own shift triple, so
/// that they stay four scalar chains: with one triple the compiler packs
/// them into two vector chains, which are bound by latency again.
pub fn chain(steps: u64) -> u64 {
    let mut a = black_box(0x9e37_79b9_7f4a_7c15u64);
    let mut b = black_box(0xbf58_476d_1ce4_e5b9u64);
    let mut c = black_box(0x94d0_49bb_1331_11ebu64);
    let mut d = black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..steps {
        a ^= a << 13;
        b ^= b << 21;
        c ^= c << 17;
        d ^= d << 23;
        a ^= a >> 7;
        b ^= b >> 35;
        c ^= c >> 31;
        d ^= d >> 18;
        a ^= a << 17;
        b ^= b << 4;
        c ^= c << 8;
        d ^= d << 5;
    }
    black_box(a ^ b ^ c ^ d)
}

/// Readings of the chain taken so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClockReadings {
    /// Wall time the readings took, spoiled tries and all.
    spent: Duration,
    /// Σ over readings of the fastest try, and the steps of those tries.
    chain: Duration,
    steps: u64,
}

impl ClockReadings {
    /// Takes one reading.
    #[cold]
    #[inline(never)]
    pub fn read(&mut self) {
        let start = Instant::now();
        let (mut last, mut fastest) = (start, Duration::MAX);
        for _ in 0..TRIES_PER_READING {
            chain(STEPS_PER_TRY);
            let now = Instant::now();
            fastest = fastest.min(now - last);
            last = now;
        }
        self.spent += last - start;
        self.chain += fastest;
        self.steps += STEPS_PER_TRY;
    }

    /// Mean nanoseconds per step over the readings; the reference when
    /// there are none (a run of fewer events than one reading's interval).
    pub fn ns_per_step(&self) -> f64 {
        if self.steps == 0 {
            REFERENCE_NS_PER_STEP
        } else {
            self.chain.as_nanos() as f64 / self.steps as f64
        }
    }

    /// `measured`, which was taken around these readings, with the
    /// readings' own time removed and the rest rescaled to the reference
    /// clock.
    pub fn at_reference(&self, measured: Duration) -> Duration {
        measured
            .saturating_sub(self.spent)
            .mul_f64(REFERENCE_NS_PER_STEP / self.ns_per_step())
    }
}

/// Runs `work` between two readings and returns what it returned and the
/// time it took at the reference clock.
pub fn timed<T>(work: impl FnOnce() -> T) -> (T, Duration) {
    let mut clock = ClockReadings::default();
    clock.read();
    let start = Instant::now();
    let out = work();
    let measured = start.elapsed();
    clock.read();
    (
        out,
        measured.mul_f64(REFERENCE_NS_PER_STEP / clock.ns_per_step()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn times_are_rescaled_by_the_readings_and_exclude_them() {
        // Two readings that found the chain at twice the reference cost:
        // the box ran at half the reference clock.
        let slow = ClockReadings {
            spent: Duration::from_micros(30),
            chain: Duration::from_nanos((2.0 * REFERENCE_NS_PER_STEP * 2000.0) as u64),
            steps: 2000,
        };
        assert_eq!(slow.ns_per_step(), 2.0 * REFERENCE_NS_PER_STEP);
        let measured = Duration::from_millis(10) + slow.spent;
        assert_eq!(slow.at_reference(measured), Duration::from_millis(5));

        let none = ClockReadings::default();
        assert_eq!(none.at_reference(measured), measured);
    }

    #[test]
    fn a_reading_is_taken_and_accounted() {
        let mut clock = ClockReadings::default();
        clock.read();
        clock.read();
        assert_eq!(clock.steps, 2 * STEPS_PER_TRY);
        assert!(clock.spent >= clock.chain * TRIES_PER_READING);
        assert!(clock.ns_per_step() > 0.0);
        let (out, took) = timed(|| chain(1000));
        assert_eq!(out, chain(1000), "the chain is the same work every time");
        assert!(took > Duration::ZERO);
    }
}
