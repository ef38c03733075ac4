//! Direct calls into single layers, bypassing the simulation.
//!
//! The spans of a traced run time a layer where the workload uses it;
//! these time the same entry points alone, on fixed inputs, so a change in
//! a span can be told apart from a change in what surrounds it. Each
//! measurement is sized to take a tenth of a second or so.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use desim::sched::{Popped, Scheduler, TimingWheel};
use desim::{Ctx, Duration, Message, NetworkConfig, NodeId, Protocol, Simulation, Time};
use fabric_gossip::config::GossipConfig;
use fabric_gossip::messages::GossipMsg;
use fabric_gossip::peer::GossipPeer;
use fabric_gossip::store::BlockStore;
use fabric_gossip::testing::MockEffects;
use fabric_ledger::ledger::Ledger;
use fabric_ledger::validate::validate_block;
use fabric_orderer::cutter::BatchConfig;
use fabric_orderer::service::{OrdererConfig, OrderingService};
use fabric_types::block::{Block, BlockRef};
use fabric_types::crypto::sha256;
use fabric_types::ids::{ClientId, PeerId, TxId};
use fabric_types::msp::Msp;
use fabric_types::transaction::EndorsementPolicy;
use fabric_workload::client::endorse_invocation;
use fabric_workload::schedule::{
    increment_schedule, payload_schedule, IncrementWorkload, PayloadWorkload,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::traced::Traced;
use crate::workloads::conflict_chain;

/// One direct measurement: metric name and value (the unit is the
/// metric's, fixed in the metric table).
pub type Direct = (&'static str, f64);

/// Unoptimised builds (the tests) do a sixteenth of the iterations: their
/// timings mean nothing and the tests should take seconds.
const SHRINK: u64 = if cfg!(debug_assertions) { 16 } else { 1 };

fn ns_per(start: Instant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Runs every direct measurement.
pub fn measure(seed: u64) -> Vec<Direct> {
    let mut out = vec![("host.calib_ns", calibration_ns())];
    out.extend(desim_layer(seed));
    out.extend(payload_pipeline());
    out.extend(ledger_layer(seed));
    out.push(("fabric-workload.schedule_gen_ms", schedule_gen_ms(seed)));
    out
}

/// Nanoseconds per step of the calibration chain ([`crate::clock`]): the
/// clock the measurements of this file ran at. They are reported as
/// measured, so numbers from different boxes, or from this box's faster and
/// slower minutes, can be read side by side through it.
fn calibration_ns() -> f64 {
    const STEPS: u64 = (1 << 26) / SHRINK;
    let start = Instant::now();
    crate::clock::chain(STEPS);
    ns_per(start, STEPS)
}

/// A protocol that does nothing but keep messages in flight: what an
/// event costs the engine with no handler work.
#[derive(Debug)]
struct Relay {
    nodes: u32,
}

#[derive(Debug, Clone)]
struct Token;

impl Message for Token {
    fn wire_size(&self) -> usize {
        64
    }
    fn kind_id(&self) -> desim::KindId {
        static ID: std::sync::OnceLock<desim::KindId> = std::sync::OnceLock::new();
        *ID.get_or_init(|| desim::KindId::intern("token"))
    }
}

impl Protocol for Relay {
    type Msg = Token;
    type Timer = ();

    fn on_message(&mut self, ctx: &mut Ctx<'_, Token, ()>, to: NodeId, _from: NodeId, msg: Token) {
        let next = NodeId(ctx.rng().random_range(0..self.nodes));
        ctx.send(to, next, msg);
    }

    fn on_timer(&mut self, _: &mut Ctx<'_, Token, ()>, _: NodeId, _: ()) {}
}

fn desim_layer(seed: u64) -> Vec<Direct> {
    // Scheduler hold model: a queue held at a realistic depth, each step
    // popping the earliest event and scheduling one a random delay ahead.
    const DEPTH: u64 = 4096;
    const HOLDS: u64 = 1_000_000 / SHRINK;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wheel: TimingWheel<[u64; 6]> = TimingWheel::new();
    let mut now = Time::ZERO;
    let delay = |rng: &mut StdRng| Duration::from_nanos(rng.random_range(0..5_000_000u64));
    for i in 0..DEPTH {
        Scheduler::push(&mut wheel, now + delay(&mut rng), [i; 6]);
    }
    let start = Instant::now();
    for i in 0..HOLDS {
        if let Some(Popped::Event { at, .. } | Popped::Cancelled { at }) =
            Scheduler::pop(&mut wheel)
        {
            now = at;
        }
        Scheduler::push(&mut wheel, now + delay(&mut rng), [i; 6]);
    }
    let sched_ns = ns_per(start, 2 * HOLDS);
    black_box(Scheduler::len(&wheel));

    const SAMPLES: u64 = 4_000_000 / SHRINK;
    let model = NetworkConfig::lan(102).latency;
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..SAMPLES {
        acc = acc.wrapping_add(model.sample(&mut rng).as_nanos());
    }
    black_box(acc);
    let sample_ns = ns_per(start, SAMPLES);

    // The engine with no handler work, behind the span wrapper like every
    // simulation of the benchmark — not recording, then recording. The
    // difference is what recording one span costs. Three short rounds,
    // fastest of each: interference only ever adds.
    const EVENTS: u64 = 500_000 / SHRINK;
    let nodes = 102;
    let relay_ns = |recording: bool| {
        let host = Traced::new(Relay { nodes }, |_| "timer", recording);
        let mut sim = Simulation::new(host, NetworkConfig::lan(nodes as usize), seed);
        sim.with_ctx(|_, ctx| {
            for i in 0..64 {
                ctx.send(NodeId(i), NodeId(i + 1), Token);
            }
        });
        let start = Instant::now();
        while sim.events_processed() < EVENTS && sim.step() {}
        ns_per(start, sim.events_processed())
    };
    let (mut null_ns, mut recording_ns) = (f64::MAX, f64::MAX);
    for _ in 0..3 {
        null_ns = null_ns.min(relay_ns(false));
        recording_ns = recording_ns.min(relay_ns(true));
    }

    vec![
        ("desim.sched.ns_per_op", sched_ns),
        ("desim.net.latency_sample_ns", sample_ns),
        ("desim.null_protocol_ns_per_event", null_ns),
        (
            "trace.record_ns_per_span",
            (recording_ns - null_ns).max(0.0),
        ),
    ]
}

/// Endorses and orders the dissemination workload's first blocks, then
/// times what the gossip layer does with each: hash, integrity check,
/// store insert, and a peer's block and digest handlers on mock effects.
fn payload_pipeline() -> Vec<Direct> {
    const BLOCKS: usize = 60;
    const ROUNDS: usize = 20usize.div_ceil(SHRINK as usize);
    let txs_per_block = BatchConfig::paper_dissemination().max_message_count;
    let schedule = payload_schedule(&PayloadWorkload::shortened(BLOCKS * txs_per_block));
    let msp = Arc::new(Msp::single_org(100));
    let endorser = PeerId(1);
    let state = Ledger::new(msp.clone(), EndorsementPolicy::AnyMember);

    let start = Instant::now();
    let txs: Vec<_> = schedule
        .iter()
        .enumerate()
        .map(|(i, inv)| {
            endorse_invocation(
                inv,
                TxId(i as u64 + 1),
                ClientId(0),
                endorser,
                state.state(),
                &msp,
            )
            .expect("payload invocations always endorse")
        })
        .collect();
    let endorse_ns = ns_per(start, txs.len() as u64);

    let tx_count = txs.len() as u64;
    let mut orderer = OrderingService::new(
        OrdererConfig::instant(BatchConfig::paper_dissemination()),
        Block::genesis().hash(),
        1,
    );
    let mut blocks: Vec<BlockRef> = Vec::with_capacity(BLOCKS);
    let start = Instant::now();
    for tx in txs {
        blocks.extend(orderer.submit(tx).blocks.into_iter().map(BlockRef::new));
    }
    let submit_ns = ns_per(start, tx_count);
    assert_eq!(blocks.len(), BLOCKS, "the cutter cuts on message count");

    let calls = (ROUNDS * BLOCKS) as u64;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        for block in &blocks {
            black_box(black_box(block).hash());
        }
    }
    let hash_ns = ns_per(start, calls);

    let start = Instant::now();
    for _ in 0..ROUNDS {
        for block in &blocks {
            assert!(black_box(block).data_intact());
        }
    }
    let intact_ns = ns_per(start, calls);

    let start = Instant::now();
    for _ in 0..ROUNDS {
        let mut store = BlockStore::new();
        for block in &blocks {
            black_box(store.insert(block.clone()));
        }
    }
    let insert_ns = ns_per(start, calls);

    // One regular peer of a 100-peer organization under the enhanced
    // protocol. Per block it sees what a peer sees in the simulation: the
    // announcing digest, the content, and the digests of the other
    // forwarders that arrive after it already holds the block.
    const LATE_DIGESTS: usize = 3;
    let roster: Vec<PeerId> = (0..100).map(PeerId).collect();
    let (mut block_ns, mut digest_ns) = (0u128, 0u128);
    for round in 0..ROUNDS {
        let mut peer = GossipPeer::new(PeerId(5), roster.clone(), GossipConfig::enhanced_f4());
        let mut fx = MockEffects::new(round as u64);
        peer.init(&mut fx);
        for block in &blocks {
            let digest = |counter| GossipMsg::PushDigest {
                block_num: block.number(),
                counter,
            };
            let start = Instant::now();
            peer.on_message(&mut fx, PeerId(7), digest(1));
            digest_ns += start.elapsed().as_nanos();

            let push = GossipMsg::BlockPush {
                block: block.clone(),
                counter: 1,
            };
            let start = Instant::now();
            peer.on_message(&mut fx, PeerId(7), push);
            block_ns += start.elapsed().as_nanos();

            let start = Instant::now();
            for from in 0..LATE_DIGESTS {
                peer.on_message(&mut fx, PeerId(10 + from as u32), digest(2));
            }
            digest_ns += start.elapsed().as_nanos();
            fx.take_sent_on();
            fx.take_scheduled_on();
        }
        assert_eq!(peer.height(), BLOCKS as u64 + 1, "every block was taken in");
    }

    vec![
        ("fabric-workload.endorse_ns_per_tx", endorse_ns),
        ("fabric-orderer.submit_ns_per_tx", submit_ns),
        ("fabric-types.block.hash_ns", hash_ns),
        ("fabric-types.block.data_intact_ns", intact_ns),
        ("fabric-types.sha256_mb_per_s", sha256_mb_per_s()),
        ("fabric-gossip.store.insert_ns", insert_ns),
        (
            "fabric-gossip.peer.on_block_ns",
            block_ns as f64 / calls as f64,
        ),
        (
            "fabric-gossip.peer.on_push_digest_ns",
            digest_ns as f64 / (calls * (1 + LATE_DIGESTS as u64)) as f64,
        ),
    ]
}

fn sha256_mb_per_s() -> f64 {
    let buffer = vec![0xa5u8; 1 << 20];
    const PASSES: usize = 16 / SHRINK as usize;
    let start = Instant::now();
    for _ in 0..PASSES {
        black_box(sha256(black_box(&buffer)));
    }
    (PASSES * buffer.len()) as f64 / 1e6 / start.elapsed().as_secs_f64()
}

/// Replays the endorser's chain of a smoke-scale conflict run — real MVCC
/// conflicts among its transactions — into fresh ledgers.
fn ledger_layer(seed: u64) -> Vec<Direct> {
    const ROUNDS: usize = 40usize.div_ceil(SHRINK as usize);
    let (chain, peers) = conflict_chain(seed);
    let txs: u64 = chain.iter().map(|b| b.txs.len() as u64).sum();
    let msp = Arc::new(Msp::single_org(peers));
    let policy = EndorsementPolicy::AnyMember;
    let (mut validate_ns, mut commit_ns) = (0u128, 0u128);
    for _ in 0..ROUNDS {
        let mut ledger = Ledger::new(msp.clone(), policy.clone());
        for block in &chain {
            let start = Instant::now();
            black_box(validate_block(&msp, &policy, block, ledger.state()));
            validate_ns += start.elapsed().as_nanos();
            let start = Instant::now();
            ledger
                .commit(block.clone())
                .expect("the chain replays in order");
            commit_ns += start.elapsed().as_nanos();
        }
        assert_eq!(ledger.stats().valid_txs + ledger.stats().invalid_txs(), txs);
    }
    let per_tx = |ns: u128| ns as f64 / (ROUNDS as u64 * txs) as f64;
    vec![
        ("fabric-ledger.validate_ns_per_tx", per_tx(validate_ns)),
        ("fabric-ledger.commit_ns_per_tx", per_tx(commit_ns)),
    ]
}

/// Generating the two paper-scale schedules, milliseconds.
fn schedule_gen_ms(seed: u64) -> f64 {
    let start = Instant::now();
    black_box(payload_schedule(&PayloadWorkload::default()));
    black_box(increment_schedule(&IncrementWorkload::default(), seed));
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_direct_measurement_is_a_number_and_named_once() {
        let measured = measure(1);
        for (name, value) in &measured {
            assert!(value.is_finite() && *value >= 0.0, "{name} = {value}");
        }
        let mut names: Vec<&str> = measured.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), measured.len());
    }
}
