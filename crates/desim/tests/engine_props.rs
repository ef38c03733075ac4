//! Property tests for the simulation engine: causality, per-link FIFO,
//! byte accounting and replay determinism under arbitrary traffic.

use desim::{
    Ctx, Duration, LatencyModel, Message, NetworkConfig, NodeId, Protocol, Simulation, Time,
};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Packet {
    seq: u64,
    size: u16,
}

impl Message for Packet {
    fn wire_size(&self) -> usize {
        usize::from(self.size) + 1 // never zero bytes
    }
}

/// Records every delivery as (time, to, from, seq).
#[derive(Default)]
struct Sink {
    deliveries: Vec<(u64, u32, u32, u64)>,
}

impl Protocol for Sink {
    type Msg = Packet;
    type Timer = ();
    fn on_message(&mut self, ctx: &mut Ctx<'_, Packet, ()>, to: NodeId, from: NodeId, msg: Packet) {
        self.deliveries
            .push((ctx.now().as_nanos(), to.0, from.0, msg.seq));
    }
    fn on_timer(&mut self, _: &mut Ctx<'_, Packet, ()>, _: NodeId, _: ()) {}
}

/// A randomized traffic plan: (sender, receiver, size) triples.
fn traffic() -> impl Strategy<Value = Vec<(u32, u32, u16)>> {
    proptest::collection::vec((0u32..6, 0u32..6, 0u16..2000), 1..60)
}

fn run(plan: &[(u32, u32, u16)], cfg: NetworkConfig, seed: u64) -> Vec<(u64, u32, u32, u64)> {
    let mut sim = Simulation::new(Sink::default(), cfg, seed);
    sim.with_ctx(|_, ctx| {
        for (i, (from, to, size)) in plan.iter().enumerate() {
            ctx.send(
                NodeId(*from),
                NodeId(*to),
                Packet {
                    seq: i as u64,
                    size: *size,
                },
            );
        }
    });
    sim.run_until_idle();
    sim.into_protocol().deliveries
}

proptest! {
    /// No delivery can precede the message's send time plus the link's
    /// minimum latency.
    #[test]
    fn causality_holds(plan in traffic()) {
        let mut cfg = NetworkConfig::ideal(6);
        cfg.latency = LatencyModel::Lan {
            base: Duration::from_micros(50),
            jitter: Duration::from_micros(150),
            spike_prob: 0.0,
            spike_mult: 1,
        };
        let deliveries = run(&plan, cfg, 7);
        for (at, _, _, _) in &deliveries {
            prop_assert!(*at >= 50_000, "delivered at {at} ns, before min latency");
        }
        prop_assert_eq!(deliveries.len(), plan.len(), "lossless network delivers everything");
    }

    /// With constant latency and no processing jitter, each (from, to)
    /// pair's messages arrive in send order (FIFO links).
    #[test]
    fn constant_latency_links_are_fifo(plan in traffic()) {
        let mut cfg = NetworkConfig::ideal(6);
        cfg.latency = LatencyModel::Constant(Duration::from_micros(100));
        let deliveries = run(&plan, cfg, 3);
        for (a_idx, a) in deliveries.iter().enumerate() {
            for b in &deliveries[a_idx + 1..] {
                if a.1 == b.1 && a.2 == b.2 {
                    // Same link: later-listed delivery must not carry an
                    // earlier sequence number at an earlier time.
                    prop_assert!(a.0 <= b.0);
                    if a.0 == b.0 {
                        continue;
                    }
                    prop_assert!(a.3 < b.3, "link {}->{} reordered", a.2, a.1);
                }
            }
        }
    }

    /// Byte accounting equals the sum of wire sizes, per sender.
    #[test]
    fn byte_accounting_is_exact(plan in traffic()) {
        let cfg = NetworkConfig::ideal(6);
        let mut sim = Simulation::new(Sink::default(), cfg, 1);
        sim.with_ctx(|_, ctx| {
            for (i, (from, to, size)) in plan.iter().enumerate() {
                ctx.send(NodeId(*from), NodeId(*to), Packet { seq: i as u64, size: *size });
            }
        });
        sim.run_until_idle();
        for node in 0..6u32 {
            let expected: u64 = plan
                .iter()
                .filter(|(f, _, _)| *f == node)
                .map(|(_, _, s)| u64::from(*s) + 1)
                .sum();
            prop_assert_eq!(sim.metrics().total_sent(NodeId(node)), expected);
        }
    }

    /// The same seed replays the same trace; a different seed (with jitter
    /// in play) almost always differs in timing.
    #[test]
    fn replay_is_deterministic(plan in traffic(), seed in 0u64..1000) {
        let cfg = || {
            let mut c = NetworkConfig::lan(6);
            c.loss = 0.05;
            c
        };
        let a = run(&plan, cfg(), seed);
        let b = run(&plan, cfg(), seed);
        prop_assert_eq!(a, b);
    }

    /// run_until(t) then run_until_idle is equivalent to run_until_idle.
    #[test]
    fn split_runs_compose(plan in traffic(), split_us in 0u64..2000) {
        let cfg = || NetworkConfig::lan(6);
        let whole = run(&plan, cfg(), 5);

        let mut sim = Simulation::new(Sink::default(), cfg(), 5);
        sim.with_ctx(|_, ctx| {
            for (i, (from, to, size)) in plan.iter().enumerate() {
                ctx.send(NodeId(*from), NodeId(*to), Packet { seq: i as u64, size: *size });
            }
        });
        sim.run_until(Time::ZERO + Duration::from_micros(split_us));
        sim.run_until_idle();
        prop_assert_eq!(sim.into_protocol().deliveries, whole);
    }
}
