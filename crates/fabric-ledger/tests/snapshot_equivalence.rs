//! Property: a snapshot-bootstrapped ledger is byte-identical to a
//! genesis-replay ledger.
//!
//! For arbitrary chain heights and checkpoint cadences, grow a full
//! ledger from genesis, take the snapshot it serves (the export of its
//! newest checkpoint), stand a joiner up from it and replay only the tail. The joiner must reach the same
//! height, the same head hash and a byte-identical state hash while
//! physically holding only `height - checkpoint.height` blocks — the
//! O(tail) claim at the ledger layer.

use std::sync::Arc;

use fabric_ledger::ledger::Ledger;
use fabric_types::block::{Block, BlockRef};
use fabric_types::ids::{ClientId, PeerId, TxId};
use fabric_types::msp::Msp;
use fabric_types::rwset::RwSet;
use fabric_types::transaction::{EndorsementPolicy, Transaction};
use proptest::prelude::*;

fn msp() -> Arc<Msp> {
    Arc::new(Msp::single_org(3))
}

fn endorsed_write(msp: &Msp, led: &Ledger, id: u64, key: &str, value: u64) -> Transaction {
    let rwset = RwSet::builder()
        .read(key, led.state().get_version(&key.into()))
        .write_u64(key, value)
        .build();
    let mut tx = Transaction::new(TxId(id), "increment", ClientId(0), rwset);
    tx.endorse(msp, PeerId(0));
    tx
}

/// Commits blocks `from..=to`, spreading writes over `keys` keys so the
/// state the snapshot captures has more than one entry.
fn grow(msp: &Msp, led: &mut Ledger, from: u64, to: u64, keys: u64, salt: u64) {
    for n in from..=to {
        let key = format!("k{}", n % keys);
        let tx = endorsed_write(msp, led, n, &key, n.wrapping_mul(31).wrapping_add(salt));
        let block = BlockRef::new(Block::new(n, led.latest_hash(), vec![tx]));
        led.commit(block).expect("endorsed write commits cleanly");
    }
}

proptest! {
    #[test]
    fn snapshot_bootstrap_matches_genesis_replay(
        height in 1u64..61,
        every in 1u64..17,
        salt in 0u64..1_000,
    ) {
        // The vendored proptest derives strategies for up to 4-tuples;
        // the key spread rides on the salt.
        let keys = salt % 5 + 1;
        let msp = msp();
        let mut full =
            Ledger::new(msp.clone(), EndorsementPolicy::AnyMember).with_checkpoints(every);
        grow(&msp, &mut full, 1, height, keys, salt);

        let Some(snapshot) = full.snapshot() else {
            // Below the first boundary there is nothing to bootstrap from.
            prop_assert!(height < every);
            prop_assert!(full.checkpoints().is_empty());
            return Ok(());
        };
        let floor = snapshot.checkpoint.height;
        prop_assert_eq!(floor, (height / every) * every, "the served export is the newest boundary");
        prop_assert_eq!(Some(&snapshot.checkpoint), full.checkpoints().last());

        let mut joiner =
            Ledger::from_snapshot(msp.clone(), EndorsementPolicy::AnyMember, snapshot)
                .expect("a snapshot the full ledger served must verify")
                .with_checkpoints(every);
        prop_assert_eq!(joiner.height(), floor + 1);
        for n in (floor + 1)..=height {
            let block = full.block(n).expect("the full ledger holds its whole chain");
            joiner.commit(block.clone()).expect("tail replay commits cleanly");
        }

        // Byte-identical convergence...
        prop_assert_eq!(joiner.height(), full.height());
        prop_assert_eq!(joiner.latest_hash(), full.latest_hash());
        prop_assert_eq!(joiner.state().state_hash(), full.state().state_hash());
        // ...with every checkpoint emitted past the installed one agreeing
        // with the replayer's log at the same height...
        for cp in joiner.checkpoints() {
            prop_assert!(
                full.checkpoints().contains(cp),
                "checkpoint at height {} diverged",
                cp.height
            );
        }
        // ...while physically holding only the tail.
        prop_assert_eq!(joiner.blocks().len() as u64, height - floor);
        prop_assert_eq!(joiner.base_height(), floor + 1);
        prop_assert!(joiner.block(floor).is_none(), "absorbed blocks are not held");
    }
}
