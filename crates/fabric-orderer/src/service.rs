//! The ordering service: consensus pipeline model and block assembly.
//!
//! The paper's testbed ran a crash-fault-tolerant ordering service of four
//! Kafka brokers and three ZooKeeper nodes. Its internals never vary in the
//! evaluation — what matters to the gossip study is (a) Fabric's block
//! cutting behaviour and (b) the end-to-end delay a proposal experiences
//! between submission and the cut block leaving the orderer. This module
//! implements (a) exactly (see [`crate::cutter`]) and models (b) with a
//! sampled [`LatencyModel`] (`consensus_delay`), the calibration knob (the
//! calibration note is in `fabric_experiments::conflicts`' module docs).
//!
//! The service is a sans-io state machine: it never sleeps or sends — the
//! embedding (simulation or threads) arms batch timers when told to and
//! delivers cut blocks after the sampled consensus delay.
//!
//! Like a real Fabric ordering service, one instance orders **many
//! channels**: each registered channel owns an independent block cutter,
//! block numbering and prev-hash chain, multiplexed behind the shared
//! consenter model. [`OrderingService::new`] serves [`ChannelId::DEFAULT`],
//! and the one channel-less method, [`OrderingService::submit`], submits
//! on it (a single-channel embedding such as the benchmark's direct
//! orderer measurement); further channels are registered with
//! [`OrderingService::add_channel`], and everything else routes with the
//! `*_on` methods.
//! Batch epochs are per-channel, so an embedding arming timers must carry
//! the channel alongside the epoch.

use desim::{Duration, LatencyModel};

use fabric_types::block::Block;
use fabric_types::crypto::Hash256;
use fabric_types::ids::ChannelId;
use fabric_types::transaction::Transaction;

use crate::cutter::{BatchConfig, BlockCutter};

/// Ordering-service parameters.
#[derive(Debug, Clone)]
pub struct OrdererConfig {
    /// Block cutting parameters.
    pub batch: BatchConfig,
    /// End-to-end consensus pipeline delay per block: Kafka produce,
    /// replication, consume and block signing. Sampled once per cut block.
    pub consensus_delay: LatencyModel,
}

impl OrdererConfig {
    /// A Kafka-flavoured pipeline: mean delay a few hundred milliseconds,
    /// with jitter, roughly matching published Fabric v1.x ordering
    /// latencies under moderate load.
    pub fn kafka(batch: BatchConfig) -> Self {
        OrdererConfig {
            batch,
            consensus_delay: LatencyModel::Lan {
                base: Duration::from_millis(120),
                jitter: Duration::from_millis(80),
                spike_prob: 0.01,
                spike_mult: 5,
            },
        }
    }

    /// An idealized instant pipeline, for protocol-logic tests.
    pub fn instant(batch: BatchConfig) -> Self {
        OrdererConfig {
            batch,
            consensus_delay: LatencyModel::ZERO,
        }
    }
}

/// What a submission produced.
#[derive(Debug)]
pub struct SubmitOutcome {
    /// Blocks cut by this submission, in order (zero, one or two).
    pub blocks: Vec<Block>,
    /// When `Some(epoch)`, a fresh batch started pending and the embedding
    /// must arm the batch timer for that epoch.
    pub arm_timer: Option<u64>,
}

/// The ordering service state machine.
///
/// ```
/// use fabric_orderer::{BatchConfig, OrdererConfig, OrderingService};
/// use fabric_types::block::Block;
/// use fabric_types::ids::{ClientId, TxId};
/// use fabric_types::rwset::RwSet;
/// use fabric_types::transaction::Transaction;
///
/// let genesis = Block::genesis();
/// let mut orderer = OrderingService::new(
///     OrdererConfig::instant(BatchConfig::paper_dissemination()),
///     genesis.hash(),
///     1,
/// );
/// let mut outcome = None;
/// for i in 0..50 {
///     let tx = Transaction::new(TxId(i), "cc", ClientId(0), RwSet::default());
///     outcome = Some(orderer.submit(tx));
/// }
/// let blocks = outcome.unwrap().blocks;
/// assert_eq!(blocks.len(), 1);
/// assert!(blocks[0].follows(&genesis));
/// ```
#[derive(Debug)]
pub struct OrderingService {
    config: OrdererConfig,
    /// One independent chain per served channel, in registration order.
    chains: Vec<(ChannelId, ChannelChain)>,
}

/// The per-channel half of the ordering service: Fabric runs one block
/// cutter and one chain (independent numbering and prev-hash linkage) per
/// channel, multiplexed behind a single consenter set.
#[derive(Debug)]
struct ChannelChain {
    cutter: BlockCutter,
    next_number: u64,
    prev_hash: Hash256,
    /// Bumped every time the pending batch empties; stale batch timers
    /// compare epochs instead of being cancelled.
    batch_epoch: u64,
    blocks_cut: u64,
}

impl ChannelChain {
    fn new(batch: BatchConfig, prev_hash: Hash256, next_number: u64) -> Self {
        ChannelChain {
            cutter: BlockCutter::new(batch),
            next_number,
            prev_hash,
            batch_epoch: 0,
            blocks_cut: 0,
        }
    }

    fn submit(&mut self, tx: Transaction) -> SubmitOutcome {
        let (batches, started_fresh) = self.cutter.ordered(tx);
        let blocks: Vec<Block> = batches.into_iter().map(|b| self.assemble(b)).collect();
        let arm_timer = started_fresh.then_some(self.batch_epoch);
        SubmitOutcome { blocks, arm_timer }
    }

    fn on_batch_timeout(&mut self, epoch: u64) -> Option<Block> {
        if epoch != self.batch_epoch {
            return None;
        }
        let batch = self.cutter.cut();
        if batch.is_empty() {
            return None;
        }
        Some(self.assemble(batch))
    }

    fn assemble(&mut self, txs: Vec<Transaction>) -> Block {
        let block = Block::new(self.next_number, self.prev_hash, txs);
        self.prev_hash = block.hash();
        self.next_number += 1;
        self.batch_epoch += 1;
        self.blocks_cut += 1;
        block
    }
}

impl OrderingService {
    /// Creates the service ordering the single [`ChannelId::DEFAULT`]
    /// channel. `prev_hash` is the hash of the last block already on that
    /// chain (usually genesis), `next_number` the height the first cut
    /// block will carry. Register further channels with
    /// [`OrderingService::add_channel`].
    pub fn new(config: OrdererConfig, prev_hash: Hash256, next_number: u64) -> Self {
        let chain = ChannelChain::new(config.batch.clone(), prev_hash, next_number);
        OrderingService {
            config,
            chains: vec![(ChannelId::DEFAULT, chain)],
        }
    }

    /// Registers `channel` with its own block cutter and chain state
    /// (independent numbering and prev-hash linkage). Every channel shares
    /// the service-wide batching parameters and consensus-delay model.
    ///
    /// # Panics
    ///
    /// Panics when `channel` is already served.
    pub fn add_channel(&mut self, channel: ChannelId, prev_hash: Hash256, next_number: u64) {
        assert!(
            !self.chains.iter().any(|(ch, _)| *ch == channel),
            "channel {channel} already served"
        );
        let chain = ChannelChain::new(self.config.batch.clone(), prev_hash, next_number);
        self.chains.push((channel, chain));
    }

    /// The batch timeout the embedding should use when arming timers (one
    /// service-wide value; epochs are per-channel).
    pub fn batch_timeout(&self) -> Duration {
        self.config.batch.batch_timeout
    }

    fn chain(&self, channel: ChannelId) -> &ChannelChain {
        self.chains
            .iter()
            .find(|(ch, _)| *ch == channel)
            .map(|(_, c)| c)
            .unwrap_or_else(|| panic!("channel {channel} is not served by this orderer"))
    }

    fn chain_mut(&mut self, channel: ChannelId) -> &mut ChannelChain {
        self.chains
            .iter_mut()
            .find(|(ch, _)| *ch == channel)
            .map(|(_, c)| c)
            .unwrap_or_else(|| panic!("channel {channel} is not served by this orderer"))
    }

    /// Current batch epoch of `channel` (see [`SubmitOutcome::arm_timer`]).
    ///
    /// # Panics
    ///
    /// Panics when `channel` is not served.
    pub fn batch_epoch_on(&self, channel: ChannelId) -> u64 {
        self.chain(channel).batch_epoch
    }

    /// Number of blocks cut so far, summed over every channel.
    pub fn blocks_cut(&self) -> u64 {
        self.chains.iter().map(|(_, c)| c.blocks_cut).sum()
    }

    /// Number of blocks cut on `channel`.
    ///
    /// # Panics
    ///
    /// Panics when `channel` is not served.
    pub fn blocks_cut_on(&self, channel: ChannelId) -> u64 {
        self.chain(channel).blocks_cut
    }

    /// The number of the last block cut on `channel` (0 when the chain
    /// still sits at genesis) — the head a late joiner must catch up to.
    ///
    /// # Panics
    ///
    /// Panics when `channel` is not served.
    pub fn chain_head_on(&self, channel: ChannelId) -> u64 {
        self.chain(channel).next_number - 1
    }

    /// Transactions waiting in `channel`'s pending batch.
    ///
    /// # Panics
    ///
    /// Panics when `channel` is not served.
    pub fn pending_count_on(&self, channel: ChannelId) -> usize {
        self.chain(channel).cutter.pending_count()
    }

    /// Accepts a transaction proposal for the default channel in arrival
    /// order. Fabric orderers do not validate proposals — neither does
    /// this one.
    pub fn submit(&mut self, tx: Transaction) -> SubmitOutcome {
        self.submit_on(ChannelId::DEFAULT, tx)
    }

    /// Accepts a transaction proposal for `channel` in arrival order.
    ///
    /// # Panics
    ///
    /// Panics when `channel` is not served — submission routing is the
    /// embedding's contract, so a stray channel is a bug, not a condition.
    pub fn submit_on(&mut self, channel: ChannelId, tx: Transaction) -> SubmitOutcome {
        self.chain_mut(channel).submit(tx)
    }

    /// Batch timer expiry for `epoch` on `channel`. Returns the cut block,
    /// or `None` when the timer was stale (the batch it guarded was already
    /// cut) or nothing was pending.
    ///
    /// # Panics
    ///
    /// Panics when `channel` is not served.
    pub fn on_batch_timeout_on(&mut self, channel: ChannelId, epoch: u64) -> Option<Block> {
        self.chain_mut(channel).on_batch_timeout(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::block::verify_chain;
    use fabric_types::block::BlockRef;
    use fabric_types::ids::{ClientId, TxId};
    use fabric_types::rwset::RwSet;

    fn tx(id: u64) -> Transaction {
        Transaction::new(TxId(id), "cc", ClientId(0), RwSet::default())
    }

    fn service(max_count: usize) -> OrderingService {
        let batch = BatchConfig {
            max_message_count: max_count,
            preferred_max_bytes: 1 << 20,
            batch_timeout: Duration::from_secs(2),
        };
        OrderingService::new(OrdererConfig::instant(batch), Block::genesis().hash(), 1)
    }

    #[test]
    fn blocks_chain_in_order() {
        let mut orderer = service(2);
        let mut blocks = vec![BlockRef::new(Block::genesis())];
        for i in 0..10 {
            for b in orderer.submit(tx(i)).blocks {
                blocks.push(BlockRef::new(b));
            }
        }
        assert_eq!(blocks.len(), 6); // genesis + 5 blocks of 2
        assert_eq!(verify_chain(&blocks), Ok(()));
        assert_eq!(orderer.blocks_cut(), 5);
    }

    #[test]
    fn first_tx_requests_timer_with_epoch() {
        let mut orderer = service(10);
        let outcome = orderer.submit(tx(1));
        assert_eq!(outcome.arm_timer, Some(0));
        let outcome = orderer.submit(tx(2));
        assert_eq!(outcome.arm_timer, None);
    }

    #[test]
    fn timeout_cuts_pending_batch() {
        let mut orderer = service(10);
        let epoch = orderer.submit(tx(1)).arm_timer.unwrap();
        orderer.submit(tx(2));
        let block = orderer
            .on_batch_timeout_on(ChannelId::DEFAULT, epoch)
            .unwrap();
        assert_eq!(block.txs.len(), 2);
        assert_eq!(block.number(), 1);
        assert_eq!(orderer.pending_count_on(ChannelId::DEFAULT), 0);
    }

    #[test]
    fn stale_timeout_is_ignored() {
        let mut orderer = service(2);
        let epoch = orderer.submit(tx(1)).arm_timer.unwrap();
        // Fills the batch: cut happens by count, epoch advances.
        let cut = orderer.submit(tx(2));
        assert_eq!(cut.blocks.len(), 1);
        // New batch starts pending; the old timer must not cut it.
        orderer.submit(tx(3));
        assert_eq!(orderer.on_batch_timeout_on(ChannelId::DEFAULT, epoch), None);
        assert_eq!(orderer.pending_count_on(ChannelId::DEFAULT), 1);
    }

    #[test]
    fn empty_timeout_returns_none() {
        let mut orderer = service(10);
        assert_eq!(orderer.on_batch_timeout_on(ChannelId::DEFAULT, 0), None);
    }

    #[test]
    fn channels_cut_and_number_independently() {
        let mut orderer = service(2);
        orderer.add_channel(ChannelId(1), Block::genesis().hash(), 1);

        // Interleaved submissions: each channel batches on its own.
        orderer.submit_on(ChannelId(0), tx(1));
        orderer.submit_on(ChannelId(1), tx(2));
        let b0 = orderer.submit_on(ChannelId(0), tx(3)).blocks.pop().unwrap();
        let b1 = orderer.submit_on(ChannelId(1), tx(4)).blocks.pop().unwrap();
        assert_eq!(b0.number(), 1, "channel 0 numbers from 1");
        assert_eq!(b1.number(), 1, "channel 1 numbers from 1 independently");
        assert!(b0.follows(&Block::genesis()));
        assert!(b1.follows(&Block::genesis()));
        assert_eq!(orderer.blocks_cut_on(ChannelId(0)), 1);
        assert_eq!(orderer.blocks_cut_on(ChannelId(1)), 1);
        assert_eq!(orderer.blocks_cut(), 2, "totals sum over channels");
        assert_eq!(orderer.chain_head_on(ChannelId(0)), 1);

        // Chains stay linked per channel across further cuts.
        orderer.submit_on(ChannelId(1), tx(5));
        let b2 = orderer.submit_on(ChannelId(1), tx(6)).blocks.pop().unwrap();
        assert_eq!(b2.number(), 2);
        assert_eq!(b2.header.prev_hash, b1.hash());
    }

    #[test]
    fn batch_epochs_and_timeouts_are_per_channel() {
        let mut orderer = service(10);
        orderer.add_channel(ChannelId(1), Block::genesis().hash(), 1);
        let e0 = orderer.submit_on(ChannelId(0), tx(1)).arm_timer.unwrap();
        let e1 = orderer.submit_on(ChannelId(1), tx(2)).arm_timer.unwrap();
        assert_eq!((e0, e1), (0, 0), "both channels start a fresh batch");
        // Channel 0's timeout must not cut channel 1's pending batch.
        let cut = orderer.on_batch_timeout_on(ChannelId(0), e0).unwrap();
        assert_eq!(cut.txs.len(), 1);
        assert_eq!(orderer.pending_count_on(ChannelId(1)), 1);
        assert_eq!(orderer.batch_epoch_on(ChannelId(0)), 1);
        assert_eq!(orderer.batch_epoch_on(ChannelId(1)), 0);
        let cut = orderer.on_batch_timeout_on(ChannelId(1), e1).unwrap();
        assert_eq!(cut.number(), 1);
    }

    #[test]
    #[should_panic(expected = "already served")]
    fn registering_a_channel_twice_is_rejected() {
        let mut orderer = service(2);
        orderer.add_channel(ChannelId::DEFAULT, Block::genesis().hash(), 1);
    }

    #[test]
    #[should_panic(expected = "not served")]
    fn submitting_to_an_unregistered_channel_is_a_bug() {
        let mut orderer = service(2);
        orderer.submit_on(ChannelId(9), tx(1));
    }

    #[test]
    fn numbering_continues_across_timeout_and_count_cuts() {
        let mut orderer = service(2);
        orderer.submit(tx(1));
        let epoch = orderer.batch_epoch_on(ChannelId::DEFAULT);
        let b1 = orderer
            .on_batch_timeout_on(ChannelId::DEFAULT, epoch)
            .unwrap();
        assert_eq!(b1.number(), 1);
        orderer.submit(tx(2));
        let b2 = orderer.submit(tx(3)).blocks.pop().unwrap();
        assert_eq!(b2.number(), 2);
        assert!(b2.header.prev_hash == b1.hash());
    }
}
