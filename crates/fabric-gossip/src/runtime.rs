//! A real-threads runtime for the gossip protocol.
//!
//! The same [`GossipPeer`] state machine that runs under the discrete-event
//! simulation runs here on OS threads connected by crossbeam channels, with
//! wall-clock timers. This demonstrates that the protocol layer is genuinely
//! transport-agnostic and gives examples/integration tests a way to exercise
//! the code under true concurrency.
//!
//! Every peer is one thread: it owns its [`GossipPeer`], drains its own
//! inbox, and fires its timers using `recv_timeout` against the earliest
//! deadline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use desim::{Duration, Time};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fabric_types::block::BlockRef;
use fabric_types::ids::{ChannelId, PeerId};

use crate::config::GossipConfig;
use crate::effects::Effects;
use crate::messages::{ChannelMsg, GossipMsg, GossipTimer};
use crate::peer::GossipPeer;

enum Envelope {
    Msg { from: PeerId, envelope: ChannelMsg },
    FromOrderer { channel: ChannelId, block: BlockRef },
    Shutdown,
}

#[derive(Debug)]
struct TimerEntry {
    at: Time,
    seq: u64,
    channel: ChannelId,
    timer: GossipTimer,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .cmp(&other.at)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

struct ThreadFx<'a> {
    start: Instant,
    me: PeerId,
    senders: &'a [Sender<Envelope>],
    timers: &'a mut BinaryHeap<Reverse<TimerEntry>>,
    timer_seq: &'a mut u64,
    rng: &'a mut StdRng,
    delivered: &'a mut Vec<u64>,
}

impl ThreadFx<'_> {
    fn wall_now(start: Instant) -> Time {
        Time::from_nanos(start.elapsed().as_nanos() as u64)
    }
}

impl Effects for ThreadFx<'_> {
    fn now(&self) -> Time {
        Self::wall_now(self.start)
    }

    fn send(&mut self, channel: ChannelId, to: PeerId, msg: GossipMsg) {
        if let Some(tx) = self.senders.get(to.index()) {
            // A receiver that already shut down is indistinguishable from a
            // crashed peer; dropping the message models exactly that.
            let _ = tx.send(Envelope::Msg {
                from: self.me,
                envelope: ChannelMsg { channel, msg },
            });
        }
    }

    fn schedule(&mut self, after: Duration, channel: ChannelId, timer: GossipTimer) {
        let at = self.now() + after;
        *self.timer_seq += 1;
        self.timers.push(Reverse(TimerEntry {
            at,
            seq: *self.timer_seq,
            channel,
            timer,
        }));
    }

    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    fn deliver(&mut self, _channel: ChannelId, block: BlockRef) {
        self.delivered.push(block.number());
    }
}

/// Outcome of one peer thread after shutdown.
#[derive(Debug)]
pub struct PeerOutcome {
    /// The final peer state (stats, store, ...).
    pub peer: GossipPeer,
    /// Block numbers delivered in order to the application.
    pub delivered: Vec<u64>,
}

/// A running in-process gossip network, one thread per peer.
///
/// ```no_run
/// use fabric_gossip::config::GossipConfig;
/// use fabric_gossip::runtime::ThreadedNet;
/// use fabric_types::block::{Block, BlockRef};
/// use fabric_types::ids::PeerId;
///
/// let net = ThreadedNet::spawn(8, GossipConfig::enhanced_f4(), 42);
/// net.inject_block(BlockRef::new(Block::new(1, Block::genesis().hash(), vec![])));
/// std::thread::sleep(std::time::Duration::from_millis(200));
/// let outcomes = net.shutdown();
/// assert!(outcomes.iter().all(|o| o.delivered == vec![1]));
/// ```
#[derive(Debug)]
pub struct ThreadedNet {
    senders: Vec<Sender<Envelope>>,
    handles: Vec<JoinHandle<PeerOutcome>>,
    leader: PeerId,
}

impl ThreadedNet {
    /// Spawns `n` peer threads sharing `cfg`. Peer 0 is the static leader.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the configuration is invalid.
    pub fn spawn(n: usize, cfg: GossipConfig, seed: u64) -> Self {
        assert!(n > 0, "a gossip network needs at least one peer");
        let roster: Vec<PeerId> = (0..n as u32).map(PeerId).collect();
        let (senders, inboxes): (Vec<Sender<Envelope>>, Vec<Receiver<Envelope>>) =
            (0..n).map(|_| unbounded()).unzip();
        let start = Instant::now();

        let handles = inboxes
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let peer = GossipPeer::new(PeerId(i as u32), roster.clone(), cfg.clone());
                let rng = StdRng::seed_from_u64(
                    seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(i as u64),
                );
                let senders = senders.clone();
                std::thread::spawn(move || run_peer(peer, rng, rx, senders, start))
            })
            .collect();
        ThreadedNet {
            senders,
            handles,
            leader: PeerId(0),
        }
    }

    /// The static leader's id.
    pub fn leader(&self) -> PeerId {
        self.leader
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// `true` when the network has no peers (never; `spawn` forbids it).
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Delivers `block` to the leader as the ordering service would (on
    /// the default channel).
    pub fn inject_block(&self, block: BlockRef) {
        self.inject_block_on(ChannelId::DEFAULT, block);
    }

    /// Delivers `block` to the leader on `channel`.
    pub fn inject_block_on(&self, channel: ChannelId, block: BlockRef) {
        let _ = self.senders[self.leader.index()].send(Envelope::FromOrderer { channel, block });
    }

    /// Stops every peer thread and returns the outcomes in peer order.
    pub fn shutdown(self) -> Vec<PeerOutcome> {
        for tx in &self.senders {
            let _ = tx.send(Envelope::Shutdown);
        }
        self.handles
            .into_iter()
            .map(|h| h.join().expect("peer thread panicked"))
            .collect()
    }
}

/// Runs one peer: its inbox, its timer heap, its RNG stream.
fn run_peer(
    mut peer: GossipPeer,
    mut rng: StdRng,
    rx: Receiver<Envelope>,
    senders: Vec<Sender<Envelope>>,
    start: Instant,
) -> PeerOutcome {
    let me = peer.id();
    let mut timers: BinaryHeap<Reverse<TimerEntry>> = BinaryHeap::new();
    let mut timer_seq = 0u64;
    let mut delivered = Vec::new();

    macro_rules! fx {
        () => {
            ThreadFx {
                start,
                me,
                senders: &senders,
                timers: &mut timers,
                timer_seq: &mut timer_seq,
                rng: &mut rng,
                delivered: &mut delivered,
            }
        };
    }

    peer.init(&mut fx!());

    loop {
        // Fire every due timer before blocking again.
        loop {
            let now = ThreadFx::wall_now(start);
            match timers.peek() {
                Some(Reverse(entry)) if entry.at <= now => {
                    let Reverse(entry) = timers.pop().expect("peeked");
                    peer.on_channel_timer(&mut fx!(), entry.channel, entry.timer);
                }
                _ => break,
            }
        }

        let wait = match timers.peek() {
            Some(Reverse(entry)) => {
                let now = ThreadFx::wall_now(start);
                std::time::Duration::from_nanos(entry.at.since(now.min(entry.at)).as_nanos())
            }
            None => std::time::Duration::from_millis(50),
        };

        match rx.recv_timeout(wait) {
            Ok(Envelope::Msg { from, envelope }) => {
                peer.on_channel_message(&mut fx!(), envelope.channel, from, envelope.msg);
            }
            Ok(Envelope::FromOrderer { channel, block }) => {
                peer.on_block_from_orderer_on(&mut fx!(), channel, block);
            }
            Ok(Envelope::Shutdown) => break,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }

    PeerOutcome { peer, delivered }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::block::Block;

    fn wait_until(deadline_ms: u64, mut done: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(deadline_ms) {
            if done() {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        done()
    }

    #[test]
    fn threaded_net_disseminates_blocks_to_everyone() {
        let net = ThreadedNet::spawn(8, GossipConfig::enhanced_f4(), 7);
        let genesis = Block::genesis();
        let b1 = BlockRef::new(Block::new(1, genesis.hash(), vec![]));
        let b2 = BlockRef::new(Block::new(2, b1.hash(), vec![]));
        net.inject_block(b1);
        net.inject_block(b2);
        assert!(wait_until(2_000, || true));
        std::thread::sleep(std::time::Duration::from_millis(300));
        let outcomes = net.shutdown();
        assert_eq!(outcomes.len(), 8);
        for o in &outcomes {
            assert_eq!(
                o.delivered,
                vec![1, 2],
                "peer {} missed blocks",
                o.peer.id()
            );
        }
    }

    #[test]
    fn discovery_protocol_runs_on_threads_and_still_disseminates() {
        // The protocol-discovery timers (DiscoveryRound / AntiEntropyRound)
        // replace the legacy AliveRound under the real-threads runtime too;
        // heartbeat traffic must coexist with block dissemination.
        let mut cfg = GossipConfig::enhanced_f4().with_discovery_protocol();
        cfg.membership.alive_interval = Duration::from_millis(50);
        cfg.discovery.anti_entropy_interval = Duration::from_millis(80);
        let net = ThreadedNet::spawn(6, cfg, 13);
        let b1 = BlockRef::new(Block::new(1, Block::genesis().hash(), vec![]));
        net.inject_block(b1);
        std::thread::sleep(std::time::Duration::from_millis(400));
        let outcomes = net.shutdown();
        for o in &outcomes {
            assert_eq!(
                o.delivered,
                vec![1],
                "peer {} missed the block",
                o.peer.id()
            );
            let stats = o.peer.stats();
            assert!(
                stats.bytes_of_kind("alive-msg") > 0,
                "peer {} sent no discovery heartbeats",
                o.peer.id()
            );
            assert_eq!(stats.bytes_of_kind("alive"), 0, "legacy alive replaced");
        }
    }

    #[test]
    fn original_protocol_also_runs_on_threads() {
        // With 8 peers and fout=3, push alone may miss someone; pull (4 s)
        // would be too slow for a unit test, so shrink it.
        let mut cfg = GossipConfig::original_fabric();
        cfg.pull.as_mut().unwrap().tpull = Duration::from_millis(100);
        cfg.pull.as_mut().unwrap().digest_wait = Duration::from_millis(30);
        let net = ThreadedNet::spawn(8, cfg, 11);
        let b1 = BlockRef::new(Block::new(1, Block::genesis().hash(), vec![]));
        net.inject_block(b1);
        std::thread::sleep(std::time::Duration::from_millis(600));
        let outcomes = net.shutdown();
        for o in &outcomes {
            assert_eq!(
                o.delivered,
                vec![1],
                "peer {} missed the block",
                o.peer.id()
            );
        }
    }
}
