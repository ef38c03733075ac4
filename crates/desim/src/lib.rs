//! # desim — deterministic discrete-event simulation kernel
//!
//! A small, dependency-light simulation engine for message-passing
//! distributed protocols. It provides:
//!
//! * a virtual clock ([`Time`], [`Duration`]) with nanosecond resolution;
//! * an event queue with a total, replayable order;
//! * a network model ([`NetworkConfig`], [`LatencyModel`]) with per-node
//!   egress bandwidth queues, receiver processing delays, packet loss,
//!   link partitions and node crashes;
//! * byte/message accounting ([`NetMetrics`]) bucketed over time, as needed
//!   to reproduce bandwidth-over-time figures.
//!
//! Protocols implement [`Protocol`] and hold the state of every node; the
//! engine ([`Simulation`]) routes deliveries and timers to them through a
//! [`Ctx`] handle. Determinism contract: for a fixed protocol, network
//! configuration and seed, the execution trace is bit-for-bit identical
//! across runs — protocols must therefore avoid iterating hash maps when the
//! iteration order influences messages or RNG draws.
//!
//! ```
//! use desim::{Ctx, Duration, Message, NetworkConfig, NodeId, Protocol, Simulation};
//!
//! #[derive(Clone, Debug)]
//! struct Hello;
//! impl Message for Hello {
//!     fn wire_size(&self) -> usize { 5 }
//! }
//!
//! struct Count(u32);
//! impl Protocol for Count {
//!     type Msg = Hello;
//!     type Timer = ();
//!     fn on_message(&mut self, _: &mut Ctx<'_, Hello, ()>, _: NodeId, _: NodeId, _: Hello) {
//!         self.0 += 1;
//!     }
//!     fn on_timer(&mut self, ctx: &mut Ctx<'_, Hello, ()>, node: NodeId, _: ()) {
//!         ctx.send(node, NodeId(1), Hello);
//!     }
//! }
//!
//! let mut sim = Simulation::new(Count(0), NetworkConfig::ideal(2), 1);
//! sim.with_ctx(|_, ctx| { ctx.set_timer(NodeId(0), Duration::from_millis(5), ()); });
//! sim.run_until_idle();
//! assert_eq!(sim.protocol().0, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod engine;
mod kind;
mod metrics;
mod net;
pub mod sched;
mod time;

pub use batch::{run_batch, run_batch_with_workers};
pub use engine::{Ctx, Message, Protocol, Simulation};
pub use kind::{KindBytes, KindId};
pub use metrics::{KindStats, NetMetrics};
pub use net::{LatencyModel, NetState, NetworkConfig, NodeId};
pub use time::{Duration, Time};
