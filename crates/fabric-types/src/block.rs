//! Blocks and the hash chain.

use std::sync::Arc;

use crate::crypto::{Hash256, Sha256};
use crate::transaction::Transaction;

/// A block header: number, link to the previous block, and a digest of the
/// block's transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHeader {
    /// Height of this block; the genesis block is number 0.
    pub number: u64,
    /// Hash of the previous block's header ([`Hash256::ZERO`] for genesis).
    pub prev_hash: Hash256,
    /// Digest over the ordered transaction list.
    pub data_hash: Hash256,
}

impl BlockHeader {
    /// The header's own hash, which the next block must link to.
    pub fn hash(&self) -> Hash256 {
        let mut h = Sha256::new();
        h.update_u64(self.number);
        h.update(&self.prev_hash.0);
        h.update(&self.data_hash.0);
        h.finalize()
    }
}

/// A block: header, ordered transactions, and wire-size padding standing in
/// for metadata this model does not materialize (orderer signatures,
/// last-config pointers).
///
/// Blocks are immutable once cut; dissemination code shares them as
/// [`BlockRef`] so a 100-peer simulation stores each block once.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The chained header.
    pub header: BlockHeader,
    /// Transactions in commit order.
    pub txs: Vec<Transaction>,
    /// Extra bytes accounted on the wire.
    pub padding: u32,
}

/// Shared, zero-copy, hash-once handle to an immutable block.
///
/// The block content lives in one `Arc` allocation: cloning a `BlockRef`
/// (as every gossip hop does when fanning a block out to its targets) is a
/// reference-count bump, never a payload copy. Everything that is a pure
/// function of that content — the wire size, the header hash and the
/// [`Block::data_intact`] verdict — is computed once by [`BlockRef::new`]
/// and sealed into the same allocation, so a block costs one SHA-256 pass
/// per *distinct payload*, not one per reception: the hundreds of copies a
/// push epidemic delivers, the store's equivocation check and the ledger's
/// link check all read the sealed values.
///
/// The sealed values cannot go stale: no API hands out `&mut Block` behind
/// a handle, and a doctored payload can only travel as a *new* `BlockRef`,
/// which [`BlockRef::new`] hashes on its own. They are host-side
/// bookkeeping only — simulated validation delay is modelled in virtual
/// time — so no simulated event moves.
///
/// `BlockRef` dereferences to [`Block`], so all read accessors
/// (`number()`, `txs`, ...) are available directly. The inherent
/// [`BlockRef::wire_size`], [`BlockRef::hash`] and
/// [`BlockRef::data_intact`] shadow the [`Block`] methods of the same name
/// with the sealed values; an auditor that must not trust the seal calls
/// `Block::data_intact(&block)` and re-hashes.
#[derive(Debug, Clone)]
pub struct BlockRef(Arc<Sealed>);

/// A block together with the facts derived from its immutable content.
#[derive(Debug)]
struct Sealed {
    block: Block,
    hash: Hash256,
    wire_size: usize,
    data_intact: bool,
}

impl BlockRef {
    /// Wraps `block` in a shared handle, computing its wire size, header
    /// hash and data-hash verdict — the only time this payload is hashed.
    pub fn new(block: Block) -> Self {
        BlockRef(Arc::new(Sealed {
            hash: block.hash(),
            wire_size: block.wire_size(),
            data_intact: block.data_intact(),
            block,
        }))
    }

    /// Sealed size of the block on the wire, in bytes.
    pub fn wire_size(&self) -> usize {
        self.0.wire_size
    }

    /// Sealed header hash ([`Block::hash`], computed at construction).
    pub fn hash(&self) -> Hash256 {
        self.0.hash
    }

    /// Sealed verdict of [`Block::data_intact`], computed at construction:
    /// whether the header's data hash covers the transactions.
    pub fn data_intact(&self) -> bool {
        self.0.data_intact
    }

    /// Whether two handles share the same allocation: the store's free
    /// "honest duplicate" test, and how tests prove dissemination never
    /// duplicates a payload.
    pub fn ptr_eq(a: &BlockRef, b: &BlockRef) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl std::ops::Deref for BlockRef {
    type Target = Block;
    fn deref(&self) -> &Block {
        &self.0.block
    }
}

impl From<Block> for BlockRef {
    fn from(block: Block) -> Self {
        BlockRef::new(block)
    }
}

impl PartialEq for BlockRef {
    fn eq(&self, other: &Self) -> bool {
        // Pointer equality is the overwhelmingly common case (shared
        // payloads); fall back to structural comparison across runs.
        BlockRef::ptr_eq(self, other) || self.0.block == other.0.block
    }
}

impl Block {
    /// Builds a block linking to `prev_hash`, computing the data hash over
    /// the given transactions.
    pub fn new(number: u64, prev_hash: Hash256, txs: Vec<Transaction>) -> Self {
        let data_hash = Self::data_hash(&txs);
        Block {
            header: BlockHeader {
                number,
                prev_hash,
                data_hash,
            },
            txs,
            padding: 0,
        }
    }

    /// The genesis block: number 0, zero previous hash, no transactions.
    pub fn genesis() -> Self {
        Block::new(0, Hash256::ZERO, Vec::new())
    }

    /// Sets the wire-size padding (builder style).
    pub fn with_padding(mut self, padding: u32) -> Self {
        self.padding = padding;
        self
    }

    /// Digest over the ordered transaction list.
    pub fn data_hash(txs: &[Transaction]) -> Hash256 {
        let mut h = Sha256::new();
        h.update_u64(txs.len() as u64);
        for tx in txs {
            h.update(&tx.digest().0);
        }
        h.finalize()
    }

    /// This block's header hash.
    pub fn hash(&self) -> Hash256 {
        self.header.hash()
    }

    /// Height of this block.
    pub fn number(&self) -> u64 {
        self.header.number
    }

    /// Whether this block correctly chains onto `prev`: consecutive number
    /// and matching previous-hash link.
    pub fn follows(&self, prev: &Block) -> bool {
        self.header.number == prev.header.number + 1 && self.header.prev_hash == prev.hash()
    }

    /// Whether the stored data hash matches the transactions — detects a
    /// tampered or corrupted payload.
    pub fn data_intact(&self) -> bool {
        self.header.data_hash == Self::data_hash(&self.txs)
    }

    /// Size of the block on the wire, in bytes.
    pub fn wire_size(&self) -> usize {
        const HEADER: usize = 8 + 32 + 32 + 16; // number, two hashes, framing
        HEADER + self.txs.iter().map(Transaction::wire_size).sum::<usize>() + self.padding as usize
    }
}

/// Verifies the hash-chain integrity of a sequence of blocks starting at
/// any height. Returns the height of the first broken link, or `Ok(())`.
///
/// # Errors
///
/// Returns `Err(height)` for the first block that fails to chain onto its
/// predecessor or whose data hash does not match its transactions.
pub fn verify_chain(blocks: &[BlockRef]) -> Result<(), u64> {
    let mut prev: Option<&BlockRef> = None;
    for block in blocks {
        // `Block::follows`, against the predecessor's sealed hash.
        let linked = prev
            .is_none_or(|p| block.number() == p.number() + 1 && block.header.prev_hash == p.hash());
        if !block.data_intact() || !linked {
            return Err(block.number());
        }
        prev = Some(block);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, TxId};
    use crate::rwset::RwSet;

    fn tx(id: u64) -> Transaction {
        Transaction::new(
            TxId(id),
            "cc",
            ClientId(0),
            RwSet::builder().write_u64("k", id).build(),
        )
    }

    fn chain(len: usize) -> Vec<BlockRef> {
        let mut blocks = vec![BlockRef::new(Block::genesis())];
        for n in 1..len as u64 {
            let prev = blocks.last().unwrap().hash();
            blocks.push(BlockRef::new(Block::new(
                n,
                prev,
                vec![tx(n * 10), tx(n * 10 + 1)],
            )));
        }
        blocks
    }

    #[test]
    fn genesis_shape() {
        let g = Block::genesis();
        assert_eq!(g.number(), 0);
        assert_eq!(g.header.prev_hash, Hash256::ZERO);
        assert!(g.txs.is_empty());
        assert!(g.data_intact());
    }

    #[test]
    fn follows_checks_number_and_link() {
        let blocks = chain(3);
        assert!(blocks[1].follows(&blocks[0]));
        assert!(blocks[2].follows(&blocks[1]));
        assert!(!blocks[2].follows(&blocks[0]));
    }

    #[test]
    fn verify_chain_accepts_good_chain() {
        assert_eq!(verify_chain(&chain(10)), Ok(()));
        assert_eq!(verify_chain(&[]), Ok(()));
    }

    #[test]
    fn verify_chain_detects_broken_link() {
        let mut blocks = chain(5);
        // Replace block 3 with one that links to block 1 instead of 2.
        let bogus = Block::new(3, blocks[1].hash(), vec![tx(99)]);
        blocks[3] = BlockRef::new(bogus);
        assert_eq!(verify_chain(&blocks), Err(3));
    }

    #[test]
    fn verify_chain_detects_tampered_data() {
        let blocks = chain(3);
        let mut tampered = (*blocks[1]).clone();
        tampered.txs.push(tx(12345));
        let mut blocks2 = blocks.clone();
        blocks2[1] = BlockRef::new(tampered);
        assert_eq!(verify_chain(&blocks2), Err(1));
    }

    #[test]
    fn header_hash_depends_on_every_field() {
        let blocks = chain(2);
        let h = blocks[1].header;
        let mut n = h;
        n.number += 1;
        assert_ne!(h.hash(), n.hash());
        let mut p = h;
        p.prev_hash = Hash256([1; 32]);
        assert_ne!(h.hash(), p.hash());
        let mut d = h;
        d.data_hash = Hash256([2; 32]);
        assert_ne!(h.hash(), d.hash());
    }

    #[test]
    fn blockref_caches_wire_size_and_shares_the_allocation() {
        let block = Block::new(1, Hash256::ZERO, vec![tx(1), tx(2)]).with_padding(160_000);
        let computed = block.wire_size();
        let shared = BlockRef::new(block);
        assert_eq!(shared.wire_size(), computed);
        let hop = shared.clone();
        assert!(
            BlockRef::ptr_eq(&shared, &hop),
            "clone must be a pointer bump"
        );
        assert_eq!(hop.wire_size(), computed);
        assert_eq!(shared, hop);
        // A structurally equal but separately allocated block still compares
        // equal (cross-run comparisons in the determinism tests rely on it).
        let rebuilt =
            BlockRef::new(Block::new(1, Hash256::ZERO, vec![tx(1), tx(2)]).with_padding(160_000));
        assert!(!BlockRef::ptr_eq(&shared, &rebuilt));
        assert_eq!(shared, rebuilt);
    }

    #[test]
    fn wire_size_counts_txs_and_padding() {
        let b = Block::new(1, Hash256::ZERO, vec![tx(1), tx(2)]);
        let base = b.wire_size();
        assert!(base > 88);
        let padded = b.clone().with_padding(160_000);
        assert_eq!(padded.wire_size(), base + 160_000);
    }
}
