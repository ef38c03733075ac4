//! What `BlockRef::new` seals into the shared allocation must be exactly
//! what the uncached `Block` methods compute, for honest and doctored
//! payloads alike — the dissemination path trusts the seal instead of
//! re-hashing on every reception.

use proptest::prelude::*;

use fabric_types::block::{Block, BlockRef};
use fabric_types::crypto::Hash256;
use fabric_types::ids::{ClientId, TxId};
use fabric_types::rwset::RwSet;
use fabric_types::transaction::Transaction;

fn tx(id: u64) -> Transaction {
    Transaction::new(
        TxId(id),
        "cc",
        ClientId(0),
        RwSet::builder().write_u64("k", id).build(),
    )
}

/// `tamper` 0: honest. 1: transactions doctored under the genuine header
/// (the `Equivocator::doctored` shape). 2: header data hash doctored.
fn build(number: u64, prev: u8, ids: &[u64], padding: u32, tamper: u8) -> Block {
    let txs = ids.iter().copied().map(tx).collect();
    let mut block = Block::new(number, Hash256([prev; 32]), txs).with_padding(padding);
    match tamper {
        1 => block.txs.push(tx(u64::MAX)),
        2 => block.header.data_hash.0[0] ^= 1,
        _ => {}
    }
    block
}

proptest! {
    #[test]
    fn sealed_values_equal_the_uncached_ones(
        (number, prev) in (0u64..1_000_000, any::<u8>()),
        ids in proptest::collection::vec(0u64..1_000, 0..12),
        padding in 0u32..200_000,
        tamper in 0u8..3,
    ) {
        let block = build(number, prev, &ids, padding, tamper);
        let sealed = BlockRef::new(block.clone());
        prop_assert_eq!(Block::data_intact(&block), tamper == 0);
        prop_assert_eq!(sealed.data_intact(), Block::data_intact(&block));
        prop_assert_eq!(sealed.hash(), block.header.hash());
        prop_assert_eq!(sealed.wire_size(), Block::wire_size(&block));

        // A clone is the same allocation, hence the same verdict.
        let hop = sealed.clone();
        prop_assert!(BlockRef::ptr_eq(&sealed, &hop));
        prop_assert_eq!(hop.data_intact(), sealed.data_intact());
        prop_assert_eq!(hop.hash(), sealed.hash());

        // Doctoring a payload means building a new handle, which is
        // hashed on its own whatever the handle it was copied from says.
        let mut forged = (*sealed).clone();
        forged.txs.push(tx(u64::MAX - 1));
        let forged = BlockRef::new(forged);
        prop_assert!(!forged.data_intact());
        prop_assert_eq!(forged.hash(), sealed.hash());
    }
}

/// The cached fields live inside the `Arc`, not on the handle: messages,
/// the event queue and every store hold handles by value.
#[test]
fn the_handle_stays_within_two_words() {
    assert!(std::mem::size_of::<BlockRef>() <= 16);
}
