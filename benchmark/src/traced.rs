//! Per-layer spans taken from outside the program.
//!
//! [`Traced`] wraps any [`desim::Protocol`], forwards every callback to it
//! and records one span — what was handled, when it started, how long it
//! took — per call, in memory. The engine calls the protocol once per
//! simulated event, so the spans are the children of one root span (the
//! `run_until` loop) and the root's self time is what the engine spent
//! *outside* handlers: scheduler pop, ingress sampling, receive accounting
//! — and this wrapper's own two clock reads per event.
//!
//! Those reads use the CPU's time-stamp counter where there is one: two
//! `Instant::now()` per event cost ≈80 ns on the box this was written on,
//! against handlers of ≈300 ns, and put the tracing overhead of the
//! digest-heavy workloads at 15 %; the counter costs a fifth of that.
//! Ticks become nanoseconds once, at the end, by scaling the ticks the
//! root span took to the nanoseconds `Instant` says it took.
//!
//! Recording or not, the wrapper also reads the host's clock speed every
//! [`EVENTS_PER_READING`] events (see [`crate::clock`]), outside every
//! handler span, and reports the root span and its children at the
//! reference clock with the readings' own time taken out.
//!
//! A handler span includes everything the handler calls, `Ctx::send` and
//! timer arming among it. Splitting those out needs spans inside the
//! program; that is a later change.

use std::time::Instant;

use desim::{Ctx, Message, NodeId, Protocol};

use crate::clock::{ClockReadings, EVENTS_PER_READING, REFERENCE_NS_PER_STEP};

/// Span kinds below this are message kinds (the dense index of the
/// message's interned [`desim::KindId`]); timer kinds and the node-status
/// callback sit above it.
const TIMER_BASE: u32 = 1 << 16;
const NODE_STATUS: u32 = u32::MAX;

/// One handler call, in clock ticks (see [`ticks`]).
#[derive(Debug, Clone, Copy)]
struct Span {
    kind: u32,
    /// Duration (a handler never runs for the second or more a `u32` of
    /// ticks holds).
    dur: u32,
    /// Start, since [`Traced::begin`].
    start: u64,
}

/// Reads the span clock. On x86-64 it is the time-stamp counter; elsewhere
/// nanoseconds since `origin`.
#[inline(always)]
fn ticks(origin: Instant) -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        let _ = origin;
        // SAFETY: `rdtsc` has no operands and touches no memory; every
        // x86-64 CPU has it. Linux leaves it enabled in user mode (it backs
        // `clock_gettime` itself), and a kernel that disabled it would end
        // the process with a signal, not with undefined behaviour.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        origin.elapsed().as_nanos() as u64
    }
}

/// A protocol wrapper that, when recording, keeps a [`Span`] per callback;
/// when not, it only forwards.
#[derive(Debug)]
pub struct Traced<P: Protocol> {
    pub inner: P,
    recording: bool,
    origin: Instant,
    /// When the root span began and ended: wall clock, and span clock.
    began_at: Instant,
    ended_at: Instant,
    began: u64,
    ended: u64,
    /// The host's clock speed through the root span, and the events left
    /// until its next reading.
    clock: ClockReadings,
    until_reading: u32,
    spans: Vec<Span>,
    /// Message-kind index → kind name, filled on first sight.
    msg_names: Vec<&'static str>,
    /// Names a timer (`"timer.<x>"`); its index in `timer_names` is the
    /// timer's span kind.
    timer_name: fn(&P::Timer) -> &'static str,
    timer_names: Vec<&'static str>,
}

impl<P: Protocol> Traced<P> {
    /// Wraps `inner`; `timer_name` classifies its timers.
    pub fn new(inner: P, timer_name: fn(&P::Timer) -> &'static str, recording: bool) -> Self {
        let origin = Instant::now();
        Traced {
            inner,
            recording,
            origin,
            began_at: origin,
            ended_at: origin,
            began: 0,
            ended: 0,
            clock: ClockReadings::default(),
            until_reading: EVENTS_PER_READING,
            spans: Vec::new(),
            msg_names: Vec::new(),
            timer_name,
            timer_names: Vec::new(),
        }
    }

    /// Marks the start of the root span: span starts are relative to now.
    pub fn begin(&mut self) {
        self.began_at = Instant::now();
        self.began = ticks(self.origin);
    }

    /// Marks the end of the root span.
    pub fn end(&mut self) {
        self.ended = ticks(self.origin);
        self.ended_at = Instant::now();
    }

    /// The clock readings taken so far.
    pub fn clock(&self) -> &ClockReadings {
        &self.clock
    }

    /// Counts an event towards the next clock reading. Called before a
    /// handler's span starts, so a reading lies in no handler span.
    #[inline(always)]
    fn count_event(&mut self) {
        self.until_reading -= 1;
        if self.until_reading == 0 {
            self.until_reading = EVENTS_PER_READING;
            self.clock.read();
        }
    }

    // The counter is synchronised across cores wherever Linux uses it as
    // its clock source; should it ever step back, a span reads as empty
    // instead of wrapping.
    fn record(&mut self, kind: u32, start: u64, end: u64) {
        self.spans.push(Span {
            kind,
            dur: end.saturating_sub(start).min(u64::from(u32::MAX)) as u32,
            start: start.saturating_sub(self.began),
        });
    }

    /// Ends the trace: the spans grouped by kind name under the root span
    /// between [`Traced::begin`] and [`Traced::end`], at the reference
    /// clock.
    pub fn finish(self) -> (P, Trace) {
        let raw = self.ended_at.duration_since(self.began_at);
        let root_ns = self.clock.at_reference(raw).as_nanos() as u64;
        // Ticks to measured nanoseconds, and those to the reference clock.
        let root_ticks = self.ended.saturating_sub(self.began).max(1);
        let ns_per_tick = raw.as_nanos() as f64 / root_ticks as f64
            * (REFERENCE_NS_PER_STEP / self.clock.ns_per_step());
        let name_of = |kind: u32| -> &'static str {
            if kind == NODE_STATUS {
                "node-status"
            } else if kind >= TIMER_BASE {
                self.timer_names[(kind - TIMER_BASE) as usize]
            } else {
                self.msg_names[kind as usize]
            }
        };
        let trace = Trace::new(root_ns, ns_per_tick, &self.spans, name_of);
        (self.inner, trace)
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    type Msg = P::Msg;
    type Timer = P::Timer;

    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        to: NodeId,
        from: NodeId,
        msg: Self::Msg,
    ) {
        self.count_event();
        if !self.recording {
            return self.inner.on_message(ctx, to, from, msg);
        }
        let kind = msg.kind_id().index();
        if self.msg_names.get(kind).is_none_or(|n| n.is_empty()) {
            if self.msg_names.len() <= kind {
                self.msg_names.resize(kind + 1, "");
            }
            self.msg_names[kind] = msg.kind();
        }
        let start = ticks(self.origin);
        self.inner.on_message(ctx, to, from, msg);
        let end = ticks(self.origin);
        self.record(kind as u32, start, end);
    }

    fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        node: NodeId,
        timer: P::Timer,
    ) {
        self.count_event();
        if !self.recording {
            return self.inner.on_timer(ctx, node, timer);
        }
        let name = (self.timer_name)(&timer);
        let index = match self.timer_names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.timer_names.push(name);
                self.timer_names.len() - 1
            }
        };
        let start = ticks(self.origin);
        self.inner.on_timer(ctx, node, timer);
        let end = ticks(self.origin);
        self.record(TIMER_BASE + index as u32, start, end);
    }

    fn on_node_status(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        node: NodeId,
        up: bool,
    ) {
        self.count_event();
        if !self.recording {
            return self.inner.on_node_status(ctx, node, up);
        }
        let start = ticks(self.origin);
        self.inner.on_node_status(ctx, node, up);
        let end = ticks(self.origin);
        self.record(NODE_STATUS, start, end);
    }
}

/// Handler time of one span kind.
#[derive(Debug, Clone, PartialEq)]
pub struct KindTime {
    pub name: &'static str,
    pub calls: u64,
    pub total_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

/// A finished trace: the root span, per-kind handler time, and an evenly
/// spaced sample of the raw spans for the trace file.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Duration of the root span (the `run_until` loop), at the reference
    /// clock and without the clock readings taken inside it.
    pub root_ns: u64,
    /// Per-kind handler time, ordered by name.
    pub kinds: Vec<KindTime>,
    /// Spans recorded.
    pub spans: u64,
    /// Every `sample_every`-th span as `(kind name, start_ns, dur_ns)`.
    pub sample: Vec<(&'static str, u64, u64)>,
    pub sample_every: usize,
}

/// Raw spans kept for the trace file (the full list of a paper-scale run
/// is millions of entries).
const SAMPLE_SPANS: usize = 20_000;

impl Trace {
    /// Groups `spans` (in ticks of `ns_per_tick` nanoseconds) by kind.
    fn new(
        root_ns: u64,
        ns_per_tick: f64,
        spans: &[Span],
        name_of: impl Fn(u32) -> &'static str,
    ) -> Self {
        let ns = |ticks: u64| (ticks as f64 * ns_per_tick) as u64;
        let sample_every = spans.len().div_ceil(SAMPLE_SPANS).max(1);
        let mut by_kind: Vec<(u32, Vec<u32>)> = Vec::new();
        for span in spans {
            match by_kind.iter_mut().find(|(kind, _)| *kind == span.kind) {
                Some((_, durs)) => durs.push(span.dur),
                None => by_kind.push((span.kind, vec![span.dur])),
            }
        }
        let sample = spans
            .iter()
            .step_by(sample_every)
            .map(|s| (name_of(s.kind), ns(s.start), ns(u64::from(s.dur))))
            .collect();
        let mut kinds: Vec<KindTime> = by_kind
            .into_iter()
            .map(|(kind, mut durs)| {
                durs.sort_unstable();
                let at = |q: f64| ns(u64::from(durs[((durs.len() - 1) as f64 * q) as usize]));
                KindTime {
                    name: name_of(kind),
                    calls: durs.len() as u64,
                    // Summed in ticks and scaled once, rounding down: the
                    // kinds together never exceed the root they lie in.
                    total_ns: ns(durs.iter().map(|d| u64::from(*d)).sum()),
                    p50_ns: at(0.5),
                    p99_ns: at(0.99),
                    max_ns: at(1.0),
                }
            })
            .collect();
        kinds.sort_by_key(|k| k.name);
        Trace {
            root_ns,
            kinds,
            spans: spans.len() as u64,
            sample,
            sample_every,
        }
    }

    /// Time inside handlers: the sum of the root's child spans.
    pub fn handler_ns(&self) -> u64 {
        self.kinds.iter().map(|k| k.total_ns).sum()
    }

    /// The root span's self time: its duration minus what its children
    /// cover. Handlers run strictly inside the root and never overlap, so
    /// this cannot go negative.
    pub fn engine_outer_ns(&self) -> u64 {
        self.root_ns.saturating_sub(self.handler_ns())
    }

    /// Calls and total nanoseconds of the named kinds together.
    pub fn time_of(&self, names: &[&str]) -> (u64, u64) {
        self.kinds
            .iter()
            .filter(|k| names.contains(&k.name))
            .fold((0, 0), |(c, t), k| (c + k.calls, t + k.total_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{Duration, NetworkConfig, Simulation};

    #[derive(Debug, Clone)]
    enum Toy {
        Ping,
        Pong,
    }

    impl Message for Toy {
        fn wire_size(&self) -> usize {
            8
        }
        fn kind(&self) -> &'static str {
            match self {
                Toy::Ping => "toy-ping",
                Toy::Pong => "toy-pong",
            }
        }
    }

    /// Node 0 pings node 1 on a timer, node 1 answers; handlers burn a
    /// little real time so spans have width.
    #[derive(Debug, Default)]
    struct PingPong {
        pings: u64,
        pongs: u64,
    }

    impl Protocol for PingPong {
        type Msg = Toy;
        type Timer = u8;

        fn on_message(&mut self, ctx: &mut Ctx<'_, Toy, u8>, to: NodeId, from: NodeId, msg: Toy) {
            std::hint::black_box((0..200u64).sum::<u64>());
            match msg {
                Toy::Ping => {
                    self.pings += 1;
                    ctx.send(to, from, Toy::Pong);
                }
                Toy::Pong => self.pongs += 1,
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx<'_, Toy, u8>, node: NodeId, round: u8) {
            ctx.send(node, NodeId(1), Toy::Ping);
            if round > 1 {
                ctx.set_timer(node, Duration::from_millis(10), round - 1);
            }
        }
    }

    fn traced_run() -> (PingPong, Trace) {
        let traced = Traced::new(PingPong::default(), |_| "timer.round", true);
        let mut sim = Simulation::new(traced, NetworkConfig::lan(2), 7);
        sim.with_ctx(|_, ctx| {
            ctx.set_timer(NodeId(0), Duration::from_millis(1), 50);
        });
        sim.protocol_mut().begin();
        sim.run_until_idle();
        sim.protocol_mut().end();
        sim.into_protocol().finish()
    }

    #[test]
    fn every_callback_is_forwarded_and_recorded_once() {
        let (inner, trace) = traced_run();
        assert_eq!((inner.pings, inner.pongs), (50, 50));
        let calls: Vec<(&str, u64)> = trace.kinds.iter().map(|k| (k.name, k.calls)).collect();
        assert_eq!(
            calls,
            vec![("timer.round", 50), ("toy-ping", 50), ("toy-pong", 50)]
        );
        assert_eq!(trace.spans, 150);
        assert_eq!(trace.time_of(&["toy-ping", "toy-pong"]).0, 100);
    }

    #[test]
    fn without_recording_it_only_forwards() {
        let quiet = Traced::new(PingPong::default(), |_| "timer.round", false);
        let mut sim = Simulation::new(quiet, NetworkConfig::lan(2), 7);
        sim.with_ctx(|_, ctx| {
            ctx.set_timer(NodeId(0), Duration::from_millis(1), 50);
        });
        sim.run_until_idle();
        let (inner, trace) = sim.into_protocol().finish();
        assert_eq!((inner.pings, inner.pongs), (50, 50));
        assert_eq!(trace.spans, 0);
        assert!(trace.kinds.is_empty());
    }

    #[test]
    fn the_clock_is_read_once_per_interval_of_events() {
        let mut traced = Traced::new(PingPong::default(), |_| "timer.round", false);
        for _ in 1..EVENTS_PER_READING {
            traced.count_event();
        }
        assert_eq!(*traced.clock(), ClockReadings::default());
        traced.count_event();
        let one = *traced.clock();
        assert_ne!(one, ClockReadings::default());
        for _ in 1..EVENTS_PER_READING {
            traced.count_event();
        }
        assert_eq!(*traced.clock(), one);
    }

    #[test]
    fn handler_time_plus_engine_outer_is_the_root_span() {
        let (_, trace) = traced_run();
        assert!(trace.handler_ns() > 0);
        assert!(
            trace.handler_ns() <= trace.root_ns,
            "children lie inside the root"
        );
        assert_eq!(trace.handler_ns() + trace.engine_outer_ns(), trace.root_ns);
        for k in &trace.kinds {
            assert!(k.p50_ns <= k.p99_ns && k.p99_ns <= k.max_ns);
            assert!(k.total_ns >= k.max_ns);
        }
    }

    #[test]
    fn sampled_spans_start_inside_the_root_in_order() {
        let (_, trace) = traced_run();
        assert_eq!(trace.sample_every, 1);
        assert_eq!(trace.sample.len(), 150);
        assert!(trace.sample.windows(2).all(|w| w[0].1 <= w[1].1));
        let (_, start, dur) = *trace.sample.last().unwrap();
        assert!(start + dur <= trace.root_ns);
    }

    #[test]
    fn long_traces_are_thinned_for_the_file() {
        // 50 000 spans of 10 ticks, one every 20, two nanoseconds a tick.
        let spans: Vec<Span> = (0..50_000u64)
            .map(|i| Span {
                kind: 0,
                dur: 10,
                start: i * 20,
            })
            .collect();
        let trace = Trace::new(2_000_000, 2.0, &spans, |_| "k");
        assert_eq!(trace.sample_every, 3);
        assert_eq!(trace.sample.len(), 16_667);
        assert_eq!(trace.kinds[0].calls, 50_000);
        assert_eq!(trace.kinds[0].total_ns, 1_000_000);
        assert_eq!(trace.kinds[0].p50_ns, 20);
        assert_eq!(trace.sample[1], ("k", 120, 20));
        assert_eq!(trace.engine_outer_ns(), 1_000_000);
    }
}
