//! The event loop: a deterministic executor for message-passing protocols.
//!
//! A [`Protocol`] implementation owns the state of *all* simulated nodes and
//! reacts to message deliveries and timer expirations through a [`Ctx`]
//! handle that can send messages, arm timers and manipulate the network.
//! Events are totally ordered by `(time, insertion sequence)`, so a given
//! seed always replays the exact same execution.
//!
//! The event queue is a hierarchical [`TimingWheel`] (see [`crate::sched`]):
//! payloads sit still in a slab whose slots are chained into 131 µs time
//! buckets, and the pop order is the exact `(time, seq)` total order the
//! seed's global `BinaryHeap` produced — the scheduler-equivalence
//! proptest in `tests/scheduler.rs` pins the two against each other.
//!
//! ## The life of a message
//!
//! `send` draws the loss check and the link latency and pushes the
//! message once; from then until `on_message` it occupies that one slab
//! slot. Its first pop is the arrival at the receiver's NIC: the engine
//! looks at it in place, checks the receiver is up and draws the ingress
//! processing delay — at that point of the shared RNG's draw order, which
//! every golden trace depends on. If the ingress queue is idle and the
//! delay is zero the handler runs at once; otherwise the engine marks the
//! message processed and re-queues its *slot* for the delivery instant
//! (a fresh `seq`; the payload does not move). The second pop checks the
//! receiver again and hands the message over. Delivery cannot be computed
//! at send time instead: the ingress queue at arrival depends on every
//! [`Ctx::occupy`] a handler issues in between, and drawing the ingress
//! delay anywhere else re-rolls the one RNG stream — so the second pop
//! stays, and is cheap.

use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kind::KindId;
use crate::metrics::NetMetrics;
use crate::net::{NetState, NetworkConfig, NodeId};
use crate::sched::{Scheduler, TimingWheel};
use crate::time::{Duration, Time};

/// A wire message: anything the engine can transmit between nodes.
///
/// `wire_size` feeds both the bandwidth model (serialization delay) and the
/// byte accounting; `kind` tags the message for per-kind statistics.
pub trait Message: Clone + fmt::Debug {
    /// Size of the message on the wire, in bytes (headers included).
    fn wire_size(&self) -> usize;

    /// A short static tag used to group metrics (e.g. `"block"`, `"digest"`).
    fn kind(&self) -> &'static str {
        "message"
    }

    /// The interned id of [`Message::kind`], recorded per sent message.
    ///
    /// The default interns on every call, which takes a registry lock —
    /// correct everywhere, cheap in tests. High-volume message types
    /// should override this with a `OnceLock`-cached match so the hot
    /// path pays one atomic load instead.
    fn kind_id(&self) -> KindId {
        KindId::intern(self.kind())
    }
}

/// A protocol under simulation. One value of this type holds the state of
/// every node; the engine routes each event to it together with the node id
/// it concerns.
pub trait Protocol: Sized {
    /// The message type exchanged between nodes.
    type Msg: Message;
    /// The timer payload type.
    type Timer: fmt::Debug;

    /// Called when `msg` sent by `from` is delivered at `to`.
    fn on_message(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        to: NodeId,
        from: NodeId,
        msg: Self::Msg,
    );

    /// Called when a timer armed for `node` expires.
    fn on_timer(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        node: NodeId,
        timer: Self::Timer,
    );

    /// Called when a node transitions up or down (default: ignored).
    fn on_node_status(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        node: NodeId,
        up: bool,
    ) {
        let _ = (ctx, node, up);
    }
}

/// What a traced run keeps: a rolling FNV-1a hash over the content of
/// every event handled since tracing began.
///
/// Per event the hash takes `(at, seq, class, node)`, and for a delivery
/// also the sender, the message's kind and its wire size. The kind enters
/// by name, not by [`crate::KindId`]: ids are numbered in first-intern
/// order, which differs between processes.
struct Trace {
    hash: u64,
}

impl Trace {
    const DELIVER: u8 = 0;
    const TIMER: u8 = 1;
    const DOWN: u8 = 2;
    const UP: u8 = 3;

    fn new() -> Self {
        Trace {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn eat(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.hash = (self.hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes the fields every event has.
    fn record(&mut self, at: Time, seq: u64, class: u8, node: NodeId) {
        self.eat(&at.as_nanos().to_le_bytes());
        self.eat(&seq.to_le_bytes());
        self.eat(&[class]);
        self.eat(&node.0.to_le_bytes());
    }

    fn deliver<M: Message>(&mut self, at: Time, seq: u64, from: NodeId, to: NodeId, msg: &M) {
        self.record(at, seq, Trace::DELIVER, to);
        let kind = msg.kind();
        self.eat(&from.0.to_le_bytes());
        self.eat(&(kind.len() as u64).to_le_bytes());
        self.eat(kind.as_bytes());
        self.eat(&(msg.wire_size() as u64).to_le_bytes());
    }
}

enum EventKind<M, T> {
    /// A message in flight. It first pops when it reaches `to`'s NIC
    /// (`processed == false`: ingress processing not yet applied) and, if
    /// the ingress queue holds it back, once more when it is ready for
    /// the protocol handler (`processed == true`).
    Msg {
        from: NodeId,
        to: NodeId,
        msg: M,
        processed: bool,
    },
    Timer {
        node: NodeId,
        timer: T,
    },
    NodeStatus {
        node: NodeId,
        up: bool,
    },
}

struct EngineCore<M, T> {
    time: Time,
    queue: TimingWheel<EventKind<M, T>>,
    net: NetState,
    rng: StdRng,
    metrics: NetMetrics,
    events_processed: u64,
    /// The content hash; `None` (the default) records nothing.
    trace: Option<Trace>,
}

impl<M: Message, T> EngineCore<M, T> {
    fn push(&mut self, at: Time, kind: EventKind<M, T>) {
        self.queue.push(at, kind);
    }

    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        if !self.net.is_up(from) {
            self.metrics.record_drop_down();
            return;
        }
        let size = msg.wire_size();
        let kind = msg.kind_id();
        let depart = self.net.egress_departure(from, self.time, size);
        self.metrics.record_sent(from, depart, size, kind);
        let loss = self.net.config().loss;
        if loss > 0.0 && rand::RngExt::random::<f64>(&mut self.rng) < loss {
            self.metrics.record_loss();
            return;
        }
        if !self.net.link_up(from, to) {
            self.metrics.record_drop_partition();
            return;
        }
        let latency = self.net.config().latency.sample(&mut self.rng);
        self.push(
            depart + latency,
            EventKind::Msg {
                from,
                to,
                msg,
                processed: false,
            },
        );
    }
}

/// The engine handle passed to every protocol callback.
///
/// Through it the protocol reads the clock, draws randomness, sends
/// messages, arms timers, occupies node CPU and manipulates the network
/// (partitions, node crashes).
pub struct Ctx<'a, M: Message, T> {
    core: &'a mut EngineCore<M, T>,
}

impl<M: Message, T> Ctx<'_, M, T> {
    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.core.time
    }

    /// The simulation's deterministic RNG — the one generator the
    /// network model draws from too (see [`Simulation::new`]).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// Sends `msg` from `from` to `to`, subject to the network model.
    /// Messages to self are legal and traverse the loopback with the same
    /// latency model as any other link.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.core.send(from, to, msg);
    }

    /// Arms a timer for `node` that fires `after` from now. It cannot be
    /// cancelled: a protocol that no longer wants it ignores the firing.
    pub fn set_timer(&mut self, node: NodeId, after: Duration, timer: T) {
        let at = self.core.time + after;
        self.core.push(at, EventKind::Timer { node, timer });
    }

    /// Occupies `node`'s processing capacity for `dur`, queueing subsequent
    /// message deliveries behind the busy period (e.g. block validation).
    pub fn occupy(&mut self, node: NodeId, dur: Duration) {
        let now = self.core.time;
        self.core.net.occupy(node, now, dur);
    }

    /// Read access to the network accounting collected so far.
    pub fn metrics(&self) -> &NetMetrics {
        &self.core.metrics
    }

    /// Mutable access to the network state (partitions, links, node status).
    /// Prefer [`Ctx::set_node_status_after`] for node transitions so the
    /// protocol receives its `on_node_status` callback.
    pub fn net_mut(&mut self) -> &mut NetState {
        &mut self.core.net
    }

    /// Read access to the network state.
    pub fn net(&self) -> &NetState {
        &self.core.net
    }

    /// Sets the per-message loss probability from now on (see
    /// [`NetState::set_loss`]).
    pub fn set_loss(&mut self, loss: f64) {
        self.core.net.set_loss(loss);
    }

    /// Schedules a node up/down transition `after` from now; the protocol's
    /// `on_node_status` hook fires when it takes effect.
    pub fn set_node_status_after(&mut self, after: Duration, node: NodeId, up: bool) {
        let at = self.core.time + after;
        self.core.push(at, EventKind::NodeStatus { node, up });
    }
}

impl<M: Message, T> fmt::Debug for Ctx<'_, M, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ctx")
            .field("now", &self.core.time)
            .finish_non_exhaustive()
    }
}

/// A deterministic discrete-event simulation of one [`Protocol`].
///
/// ```
/// use desim::{Ctx, Duration, Message, NetworkConfig, NodeId, Protocol, Simulation};
///
/// #[derive(Clone, Debug)]
/// struct Ping(u32);
/// impl Message for Ping {
///     fn wire_size(&self) -> usize { 16 }
/// }
///
/// /// Forwards a token around the ring once.
/// struct Ring { n: u32, hops: u32 }
/// impl Protocol for Ring {
///     type Msg = Ping;
///     type Timer = ();
///     fn on_message(&mut self, ctx: &mut Ctx<'_, Ping, ()>, to: NodeId, _from: NodeId, msg: Ping) {
///         self.hops += 1;
///         if msg.0 > 0 {
///             ctx.send(to, NodeId((to.0 + 1) % self.n), Ping(msg.0 - 1));
///         }
///     }
///     fn on_timer(&mut self, _ctx: &mut Ctx<'_, Ping, ()>, _node: NodeId, _t: ()) {}
/// }
///
/// let mut sim = Simulation::new(Ring { n: 4, hops: 0 }, NetworkConfig::ideal(4), 42);
/// sim.with_ctx(|_, ctx| ctx.send(NodeId(0), NodeId(1), Ping(7)));
/// sim.run_until_idle();
/// assert_eq!(sim.protocol().hops, 8);
/// ```
pub struct Simulation<P: Protocol> {
    protocol: P,
    core: EngineCore<P::Msg, P::Timer>,
}

impl<P: Protocol> fmt::Debug for Simulation<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.core.time)
            .field("pending_events", &self.core.queue.len())
            .field("events_processed", &self.core.events_processed)
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> Simulation<P> {
    /// Creates a simulation over `config` with a deterministic `seed`.
    ///
    /// # Draw order
    ///
    /// One generator, seeded from `seed`, feeds everything, interleaved in
    /// event order: each send draws a loss check iff the network is lossy,
    /// then a link latency iff the message was neither lost nor cut by a
    /// partition; each arrival at an up node draws its ingress processing
    /// delay; protocol logic draws through [`Ctx::rng`]. A latency or
    /// processing draw takes one or more words: a `Lan` model's ziggurat
    /// jitter takes one in about 99 % of draws and two or more otherwise,
    /// then its spike check takes one (see [`crate::LatencyModel::sample`]).
    /// Every golden trace is a function of this order — moving *when* any
    /// category draws, or how many words a draw takes, re-rolls all the
    /// others.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(protocol: P, config: NetworkConfig, seed: u64) -> Self {
        // The paper aggregates bandwidth over 10-second windows.
        let metrics = NetMetrics::new(config.nodes, Duration::from_secs(10));
        Simulation {
            protocol,
            core: EngineCore {
                time: Time::ZERO,
                queue: TimingWheel::new(),
                net: NetState::new(config),
                rng: StdRng::seed_from_u64(seed),
                metrics,
                events_processed: 0,
                trace: None,
            },
        }
    }

    /// Enables (or disables) hashing every handled event into
    /// [`Simulation::content_hash`]. Used by the cross-shard equivalence
    /// tests and the golden content pins; costs one branch per event when
    /// off, so leave it off in production runs. Switching it on starts a
    /// fresh hash.
    pub fn set_trace(&mut self, on: bool) {
        self.core.trace = on.then(Trace::new);
    }

    /// A rolling FNV-1a hash over the content of every event handled since
    /// tracing was switched on — per event its instant, `seq`, class
    /// (delivery, timer, node down, node up) and node, and for a delivery
    /// the sender, message kind and wire size — or `None` when tracing is
    /// off. Two runs that handle the same events in the same order agree on
    /// it; an event that moved in time, shifted its `seq`, or swapped
    /// places with a same-instant one changes it where an event count
    /// cannot.
    pub fn content_hash(&self) -> Option<u64> {
        self.core.trace.as_ref().map(|t| t.hash)
    }

    /// Runs `f` with the protocol and a context at the current time; used to
    /// inject initial events or inspect state mid-run.
    pub fn with_ctx<R>(
        &mut self,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg, P::Timer>) -> R,
    ) -> R {
        let mut ctx = Ctx {
            core: &mut self.core,
        };
        f(&mut self.protocol, &mut ctx)
    }

    /// Processes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        self.step_until(Time::MAX)
    }

    /// Processes the next event due at or before `limit`. Returns `false`
    /// when there is none: the queue is empty or its head lies past
    /// `limit`. What the engine pops on the way to a handled event — a
    /// message to a down node, a message the receiver's ingress queue
    /// holds back, a timer of a down node — is due by `limit` too, so
    /// neither the clock nor any handler ever runs past it.
    pub fn step_until(&mut self, limit: Time) -> bool {
        loop {
            // `Time::MAX` bounds nothing, so a plain `step` skips the peek.
            if limit < Time::MAX && self.core.queue.peek_time().is_none_or(|at| at > limit) {
                return false;
            }
            let Some((at, seq, held)) = self.core.queue.pop_held() else {
                return false;
            };
            debug_assert!(at >= self.core.time, "event from the past");
            self.core.time = at;
            if let EventKind::Msg { to, processed, .. } = self.core.queue.payload_mut(&held) {
                let to = *to;
                if !self.core.net.is_up(to) {
                    drop(self.core.queue.take(held));
                    self.core.metrics.record_drop_down();
                    continue;
                }
                if !*processed {
                    let deliver_at = self.core.net.ingress_delivery(to, at, &mut self.core.rng);
                    if deliver_at != at {
                        // The ingress queue holds the message back: the
                        // same slot pops again at `deliver_at`.
                        *processed = true;
                        self.core.queue.requeue(held, deliver_at);
                        continue;
                    }
                }
            }
            match self.core.queue.take(held) {
                EventKind::Msg { from, to, msg, .. } => {
                    self.core.metrics.record_received(to, at, msg.wire_size());
                    self.core.events_processed += 1;
                    if let Some(trace) = self.core.trace.as_mut() {
                        trace.deliver(at, seq, from, to, &msg);
                    }
                    let mut ctx = Ctx {
                        core: &mut self.core,
                    };
                    self.protocol.on_message(&mut ctx, to, from, msg);
                }
                EventKind::Timer { node, timer } => {
                    if !self.core.net.is_up(node) {
                        continue;
                    }
                    self.core.events_processed += 1;
                    if let Some(trace) = self.core.trace.as_mut() {
                        trace.record(at, seq, Trace::TIMER, node);
                    }
                    let mut ctx = Ctx {
                        core: &mut self.core,
                    };
                    self.protocol.on_timer(&mut ctx, node, timer);
                }
                EventKind::NodeStatus { node, up } => {
                    self.core.net.set_up(node, up);
                    self.core.events_processed += 1;
                    if let Some(trace) = self.core.trace.as_mut() {
                        let class = if up { Trace::UP } else { Trace::DOWN };
                        trace.record(at, seq, class, node);
                    }
                    let mut ctx = Ctx {
                        core: &mut self.core,
                    };
                    self.protocol.on_node_status(&mut ctx, node, up);
                }
            }
            return true;
        }
    }

    /// Processes every event scheduled at or before `t`, and none after
    /// it, then advances the clock to exactly `t`.
    pub fn run_until(&mut self, t: Time) {
        while self.step_until(t) {}
        self.core.time = self.core.time.max(t);
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: Duration) {
        let target = self.core.time + d;
        self.run_until(target);
    }

    /// Processes events until the queue drains.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.core.time
    }

    /// Number of events handled so far (deliveries, timers, transitions).
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Scheduler slab slots allocated so far — the most events (messages
    /// in flight, timers, transitions) that were ever pending at once. A
    /// message holds one slot from `send` to `on_message`.
    pub fn scheduler_slots(&self) -> usize {
        self.core.queue.slots()
    }

    /// The network accounting collected so far.
    pub fn metrics(&self) -> &NetMetrics {
        &self.core.metrics
    }

    /// Read access to the network state (link, node and loss status).
    pub fn net(&self) -> &NetState {
        &self.core.net
    }

    /// Sets the per-message loss probability from now on (see
    /// [`NetState::set_loss`]).
    pub fn set_loss(&mut self, loss: f64) {
        self.core.net.set_loss(loss);
    }

    /// Shared access to the protocol state.
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Exclusive access to the protocol state.
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Consumes the simulation, returning the protocol state.
    pub fn into_protocol(self) -> P {
        self.protocol
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    struct Note(&'static str, u64);
    impl Message for Note {
        fn wire_size(&self) -> usize {
            self.1 as usize
        }
        fn kind(&self) -> &'static str {
            self.0
        }
    }

    /// Records every callback with its timestamp; sends/schedules nothing.
    #[derive(Default)]
    struct Recorder {
        log: Vec<(u64, String)>,
    }
    impl Protocol for Recorder {
        type Msg = Note;
        type Timer = &'static str;
        fn on_message(
            &mut self,
            ctx: &mut Ctx<'_, Note, &'static str>,
            to: NodeId,
            from: NodeId,
            msg: Note,
        ) {
            self.log.push((
                ctx.now().as_nanos(),
                format!("msg {} {}->{}", msg.0, from, to),
            ));
        }
        fn on_timer(
            &mut self,
            ctx: &mut Ctx<'_, Note, &'static str>,
            node: NodeId,
            timer: &'static str,
        ) {
            self.log
                .push((ctx.now().as_nanos(), format!("timer {timer} @{node}")));
        }
        fn on_node_status(
            &mut self,
            ctx: &mut Ctx<'_, Note, &'static str>,
            node: NodeId,
            up: bool,
        ) {
            self.log
                .push((ctx.now().as_nanos(), format!("status {node} up={up}")));
        }
    }

    fn ideal(n: usize) -> NetworkConfig {
        NetworkConfig::ideal(n)
    }

    #[test]
    fn same_timestamp_events_fire_in_insertion_order() {
        let mut sim = Simulation::new(Recorder::default(), ideal(3), 1);
        sim.with_ctx(|_, ctx| {
            ctx.set_timer(NodeId(0), Duration::from_secs(1), "a");
            ctx.set_timer(NodeId(1), Duration::from_secs(1), "b");
            ctx.set_timer(NodeId(2), Duration::from_secs(1), "c");
        });
        sim.run_until_idle();
        let names: Vec<_> = sim.protocol().log.iter().map(|(_, s)| s.clone()).collect();
        assert_eq!(names, vec!["timer a @n0", "timer b @n1", "timer c @n2"]);
    }

    #[test]
    fn run_until_stops_at_boundary_and_advances_clock() {
        let mut sim = Simulation::new(Recorder::default(), ideal(1), 1);
        sim.with_ctx(|_, ctx| {
            ctx.set_timer(NodeId(0), Duration::from_secs(1), "early");
            ctx.set_timer(NodeId(0), Duration::from_secs(5), "late");
        });
        sim.run_until(Time::from_secs(3));
        assert_eq!(sim.protocol().log.len(), 1);
        assert_eq!(sim.now(), Time::from_secs(3));
        sim.run_until_idle();
        assert_eq!(sim.protocol().log.len(), 2);
        assert_eq!(sim.now(), Time::from_secs(5));
    }

    /// A message the ingress queue holds back is re-queued on its first
    /// pop; the step that did so must not fall through to the next pop
    /// whatever its time.
    #[test]
    fn run_until_never_runs_an_event_after_its_bound() {
        let mut cfg = ideal(2);
        cfg.latency = crate::net::LatencyModel::Constant(Duration::from_millis(1));
        cfg.proc_delay = crate::net::LatencyModel::Constant(Duration::from_millis(10));
        let mut sim = Simulation::new(Recorder::default(), cfg, 1);
        sim.with_ctx(|_, ctx| {
            ctx.send(NodeId(0), NodeId(1), Note("x", 8)); // arrives 1 ms, due 11 ms
            ctx.set_timer(NodeId(0), Duration::from_millis(5), "late");
        });
        sim.run_until(Time::from_millis(2));
        assert!(sim.protocol().log.is_empty(), "{:?}", sim.protocol().log);
        assert_eq!(sim.now(), Time::from_millis(2));
    }

    #[test]
    fn messages_to_down_nodes_are_dropped_and_counted() {
        let mut sim = Simulation::new(Recorder::default(), ideal(2), 1);
        sim.with_ctx(|_, ctx| {
            ctx.net_mut().set_up(NodeId(1), false);
            ctx.send(NodeId(0), NodeId(1), Note("x", 8));
        });
        sim.run_until_idle();
        assert!(sim.protocol().log.is_empty());
        assert_eq!(sim.metrics().drops_down(), 1);
        // Bytes still count as sent: the sender did transmit.
        assert_eq!(sim.metrics().total_sent(NodeId(0)), 8);
    }

    #[test]
    fn partitioned_links_drop_messages() {
        let mut sim = Simulation::new(Recorder::default(), ideal(2), 1);
        sim.with_ctx(|_, ctx| {
            ctx.net_mut().set_link_down(NodeId(0), NodeId(1));
            ctx.send(NodeId(0), NodeId(1), Note("x", 8));
        });
        sim.run_until_idle();
        assert!(sim.protocol().log.is_empty());
        assert_eq!(sim.metrics().drops_partition(), 1);
    }

    #[test]
    fn node_status_transitions_invoke_hook() {
        let mut sim = Simulation::new(Recorder::default(), ideal(2), 1);
        sim.with_ctx(|_, ctx| {
            ctx.set_node_status_after(Duration::from_secs(1), NodeId(1), false);
            ctx.set_node_status_after(Duration::from_secs(2), NodeId(1), true);
        });
        sim.run_until_idle();
        let names: Vec<_> = sim.protocol().log.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(names, vec!["status n1 up=false", "status n1 up=true"]);
    }

    #[test]
    fn occupy_defers_delivery_and_preserves_order() {
        let mut cfg = ideal(2);
        cfg.proc_delay = LatencyModelFixture::zero();
        let mut sim = Simulation::new(Recorder::default(), cfg, 1);
        sim.with_ctx(|_, ctx| {
            ctx.occupy(NodeId(1), Duration::from_millis(50));
            ctx.send(NodeId(0), NodeId(1), Note("first", 8));
            ctx.send(NodeId(0), NodeId(1), Note("second", 8));
        });
        sim.run_until_idle();
        let log = &sim.protocol().log;
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].0, Duration::from_millis(50).as_nanos());
        assert!(log[0].1.contains("first"));
        assert!(log[1].1.contains("second"));
    }

    /// Tiny helper so the test above reads clearly.
    struct LatencyModelFixture;
    impl LatencyModelFixture {
        fn zero() -> crate::net::LatencyModel {
            crate::net::LatencyModel::ZERO
        }
    }

    #[test]
    fn lossy_network_drops_roughly_the_right_fraction() {
        let mut cfg = ideal(2);
        cfg.loss = 0.5;
        let mut sim = Simulation::new(Recorder::default(), cfg, 99);
        sim.with_ctx(|_, ctx| {
            for _ in 0..1000 {
                ctx.send(NodeId(0), NodeId(1), Note("x", 1));
            }
        });
        sim.run_until_idle();
        let delivered = sim.protocol().log.len();
        let lost = sim.metrics().losses() as usize;
        assert_eq!(delivered + lost, 1000);
        assert!((350..=650).contains(&lost), "lost {lost} of 1000 at p=0.5");
    }

    #[test]
    fn loss_set_mid_run_applies_from_then_on_and_only_until_reset() {
        let mut sim = Simulation::new(Recorder::default(), ideal(2), 99);
        let burst = |sim: &mut Simulation<Recorder>, loss: f64| {
            sim.set_loss(loss);
            assert_eq!(sim.net().config().loss, loss, "one source of truth");
            let (before, lost_before) = (sim.protocol().log.len(), sim.metrics().losses());
            sim.with_ctx(|_, ctx| {
                for _ in 0..1000 {
                    ctx.send(NodeId(0), NodeId(1), Note("x", 1));
                }
            });
            sim.run_for(Duration::from_secs(1));
            let delivered = sim.protocol().log.len() - before;
            let lost = (sim.metrics().losses() - lost_before) as usize;
            assert_eq!(delivered + lost, 1000);
            lost
        };
        assert_eq!(burst(&mut sim, 0.0), 0);
        let lost = burst(&mut sim, 0.5);
        assert!((350..=650).contains(&lost), "lost {lost} of 1000 at p=0.5");
        assert_eq!(burst(&mut sim, 0.0), 0);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn set_loss_rejects_what_validate_rejects() {
        Simulation::new(Recorder::default(), ideal(1), 1).set_loss(1.5);
    }

    #[test]
    fn identical_seeds_replay_identical_traces() {
        let run = |seed| {
            let mut cfg = NetworkConfig::lan(5);
            cfg.loss = 0.1;
            let mut sim = Simulation::new(Recorder::default(), cfg, seed);
            sim.with_ctx(|_, ctx| {
                for i in 0..20u32 {
                    ctx.send(NodeId(i % 5), NodeId((i + 1) % 5), Note("x", 100));
                    ctx.set_timer(NodeId(i % 5), Duration::from_millis(u64::from(i)), "t");
                }
            });
            sim.run_until_idle();
            sim.into_protocol().log
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn bandwidth_serialization_orders_departures() {
        // 8 Mbps => 1 ms per 1000-byte message.
        let mut cfg = ideal(3);
        cfg.egress_bandwidth_bps = Some(8_000_000);
        let mut sim = Simulation::new(Recorder::default(), cfg, 1);
        sim.with_ctx(|_, ctx| {
            ctx.send(NodeId(0), NodeId(1), Note("a", 1000));
            ctx.send(NodeId(0), NodeId(2), Note("b", 1000));
        });
        sim.run_until_idle();
        let log = &sim.protocol().log;
        assert_eq!(log[0].0, Duration::from_millis(1).as_nanos());
        assert_eq!(log[1].0, Duration::from_millis(2).as_nanos());
    }

    #[test]
    fn content_hash_sees_what_a_count_cannot() {
        let run = |first: NodeId, size: u64| {
            let mut sim = Simulation::new(Recorder::default(), ideal(3), 1);
            assert_eq!(sim.content_hash(), None, "off by default");
            sim.set_trace(true);
            sim.with_ctx(|_, ctx| {
                ctx.send(NodeId(0), first, Note("x", size));
                ctx.send(NodeId(0), NodeId(3 - first.0), Note("x", 8));
            });
            sim.run_until_idle();
            assert_eq!(sim.events_processed(), 2);
            sim.content_hash().expect("traced")
        };
        let base = run(NodeId(1), 8);
        assert_eq!(base, run(NodeId(1), 8), "same run, same hash");
        assert_ne!(
            base,
            run(NodeId(2), 8),
            "two same-instant deliveries swapped"
        );
        assert_ne!(base, run(NodeId(1), 9), "one message a byte longer");
    }

    #[test]
    fn events_processed_counts_work() {
        let mut sim = Simulation::new(Recorder::default(), ideal(2), 1);
        sim.with_ctx(|_, ctx| {
            ctx.send(NodeId(0), NodeId(1), Note("x", 1));
            ctx.set_timer(NodeId(0), Duration::from_secs(1), "t");
        });
        sim.run_until_idle();
        assert_eq!(sim.events_processed(), 2);
    }
}
