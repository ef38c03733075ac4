//! Fabric's block cutter: batches proposals by count, size and timeout.
//!
//! Semantics follow `orderer/common/blockcutter` of Fabric v1.x:
//!
//! * a proposal larger than `preferred_max_bytes` first flushes the pending
//!   batch, then forms a batch of its own;
//! * a proposal that would push the pending batch past
//!   `preferred_max_bytes` flushes the pending batch and starts a new one;
//! * reaching `max_message_count` flushes immediately;
//! * otherwise a timer cuts whatever is pending after `batch_timeout`.

use desim::Duration;

use fabric_types::transaction::Transaction;

/// Batching parameters (Fabric's `BatchSize` / `BatchTimeout`).
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Maximum number of transactions per block.
    pub max_message_count: usize,
    /// Soft byte ceiling for a block's transaction payload.
    pub preferred_max_bytes: usize,
    /// Time after which a non-empty pending batch is cut regardless of size.
    pub batch_timeout: Duration,
}

impl BatchConfig {
    /// The configuration used by the paper's dissemination experiments:
    /// 50 transactions per block, 2 s timeout. `preferred_max_bytes`
    /// mirrors Fabric v1.2's default of 512 KB.
    pub fn paper_dissemination() -> Self {
        BatchConfig {
            max_message_count: 50,
            preferred_max_bytes: 512 * 1024,
            batch_timeout: Duration::from_secs(2),
        }
    }

    /// The Table II configuration: 50-message cap (never reached at
    /// 5 tx/s) with a variable block period.
    pub fn paper_conflicts(period: Duration) -> Self {
        BatchConfig {
            max_message_count: 50,
            preferred_max_bytes: 512 * 1024,
            batch_timeout: period,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_message_count == 0 {
            return Err("max_message_count must be positive".into());
        }
        if self.preferred_max_bytes == 0 {
            return Err("preferred_max_bytes must be positive".into());
        }
        if self.batch_timeout.is_zero() {
            return Err("batch_timeout must be positive".into());
        }
        Ok(())
    }
}

/// Stateful batcher of ordered transactions.
#[derive(Debug, Clone)]
pub struct BlockCutter {
    config: BatchConfig,
    pending: Vec<Transaction>,
    pending_bytes: usize,
}

impl BlockCutter {
    /// Creates a cutter with the given batching parameters.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: BatchConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid batch config: {e}");
        }
        BlockCutter {
            config,
            pending: Vec::new(),
            pending_bytes: 0,
        }
    }

    /// The batching parameters.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Number of transactions waiting for a cut.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Accepts the next ordered transaction. Returns the batches cut *now*
    /// (zero, one or two) and whether a fresh batch just started pending —
    /// the signal to arm the batch timer.
    pub fn ordered(&mut self, tx: Transaction) -> (Vec<Vec<Transaction>>, bool) {
        let mut batches = Vec::new();
        let size = tx.wire_size();

        if size > self.config.preferred_max_bytes {
            // Oversized message: flush what is pending, then isolate it.
            if !self.pending.is_empty() {
                batches.push(self.take_pending());
            }
            batches.push(vec![tx]);
            return (batches, false);
        }

        if !self.pending.is_empty() && self.pending_bytes + size > self.config.preferred_max_bytes {
            batches.push(self.take_pending());
        }

        let started_fresh = self.pending.is_empty();
        self.pending.push(tx);
        self.pending_bytes += size;

        if self.pending.len() >= self.config.max_message_count {
            batches.push(self.take_pending());
            return (batches, false);
        }
        (batches, started_fresh)
    }

    /// Cuts the pending batch (timer expiry). Empty when nothing pends.
    pub fn cut(&mut self) -> Vec<Transaction> {
        self.take_pending()
    }

    /// Hands over the pending batch with exactly its length. A cut block
    /// lives as long as the run, and so would the spare slots that the
    /// batch's doubling left: 14 of a 50-transaction block's 64.
    fn take_pending(&mut self) -> Vec<Transaction> {
        self.pending_bytes = 0;
        let mut batch = std::mem::take(&mut self.pending);
        batch.shrink_to_fit();
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::ids::{ClientId, TxId};
    use fabric_types::rwset::RwSet;

    fn config(count: usize, bytes: usize) -> BatchConfig {
        BatchConfig {
            max_message_count: count,
            preferred_max_bytes: bytes,
            batch_timeout: Duration::from_secs(2),
        }
    }

    fn tx(id: u64, padding: u32) -> Transaction {
        Transaction::new(TxId(id), "cc", ClientId(0), RwSet::default()).with_padding(padding)
    }

    #[test]
    fn cut_by_message_count() {
        let mut cutter = BlockCutter::new(config(3, 1 << 20));
        let (b, timer1) = cutter.ordered(tx(1, 0));
        assert!(b.is_empty());
        assert!(timer1, "first tx of a batch arms the timer");
        let (b, timer2) = cutter.ordered(tx(2, 0));
        assert!(b.is_empty());
        assert!(!timer2);
        let (b, _) = cutter.ordered(tx(3, 0));
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].len(), 3);
        assert_eq!(cutter.pending_count(), 0);
    }

    #[test]
    fn cut_by_preferred_bytes() {
        // Each padded tx is ~1100 bytes; ceiling 2000 forces a cut on the 2nd.
        let mut cutter = BlockCutter::new(config(100, 2000));
        cutter.ordered(tx(1, 1000));
        let (b, fresh) = cutter.ordered(tx(2, 1000));
        assert_eq!(b.len(), 1, "pending batch flushed before the new tx");
        assert_eq!(b[0].len(), 1);
        assert_eq!(cutter.pending_count(), 1);
        assert!(fresh, "the new tx starts a fresh pending batch");
    }

    #[test]
    fn oversized_tx_gets_own_batch() {
        let mut cutter = BlockCutter::new(config(100, 2000));
        cutter.ordered(tx(1, 100));
        let (b, fresh) = cutter.ordered(tx(2, 50_000));
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].len(), 1, "pending flushed first");
        assert_eq!(b[1].len(), 1, "oversized isolated");
        assert!(!fresh);
        assert_eq!(cutter.pending_count(), 0);
    }

    #[test]
    fn timeout_cut_returns_pending() {
        let mut cutter = BlockCutter::new(config(100, 1 << 20));
        assert!(cutter.cut().is_empty());
        cutter.ordered(tx(1, 0));
        cutter.ordered(tx(2, 0));
        let batch = cutter.cut();
        assert_eq!(batch.len(), 2);
        assert!(cutter.cut().is_empty());
    }

    /// Every way a batch is cut hands it over without spare slots.
    #[test]
    fn held_once_cut_batch_holds_no_spare_slots() {
        let exact = |batches: &[Vec<Transaction>]| {
            assert!(!batches.is_empty());
            assert!(batches
                .iter()
                .all(|b| !b.is_empty() && b.capacity() == b.len()));
        };
        // By count: five pushes leave eight slots.
        let mut cutter = BlockCutter::new(config(5, 1 << 20));
        let mut cut = Vec::new();
        for id in 0..5 {
            cut.extend(cutter.ordered(tx(id, 0)).0);
        }
        exact(&cut);
        // By bytes: three pending transactions flushed by a fourth.
        let mut cutter = BlockCutter::new(config(100, 3500));
        for id in 0..3 {
            cutter.ordered(tx(id, 1000));
        }
        exact(&cutter.ordered(tx(3, 1000)).0);
        // An oversized transaction: the pending flush and its own batch.
        let mut cutter = BlockCutter::new(config(100, 3500));
        for id in 0..3 {
            cutter.ordered(tx(id, 100));
        }
        let (cut, _) = cutter.ordered(tx(3, 50_000));
        assert_eq!(cut.len(), 2);
        exact(&cut);
        // By timeout: three pending transactions.
        for id in 4..7 {
            cutter.ordered(tx(id, 100));
        }
        exact(&[cutter.cut()]);
    }

    #[test]
    fn paper_configs_are_valid() {
        assert!(BatchConfig::paper_dissemination().validate().is_ok());
        assert!(BatchConfig::paper_conflicts(Duration::from_millis(750))
            .validate()
            .is_ok());
        assert_eq!(BatchConfig::paper_dissemination().max_message_count, 50);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(config(0, 1).validate().is_err());
        assert!(config(1, 0).validate().is_err());
        let mut c = config(1, 1);
        c.batch_timeout = Duration::ZERO;
        assert!(c.validate().is_err());
    }
}
