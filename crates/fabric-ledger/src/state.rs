//! The versioned key/value state database of a peer.
//!
//! Every committed write stamps its key with the [`Version`] of the writing
//! transaction (`(block number, tx index)`). Endorsers record these versions
//! in read sets; validators compare them against the committed state.
//!
//! The rows live in key-ordered chunks of at most 32 (`CHUNK_ROWS`), each a
//! `Vec` exactly as long as it is: a new key grows its chunk by one slot,
//! and a full chunk splits in half. Beside them, one contiguous `Vec` of
//! each chunk's last key is what a lookup binary-searches, so a probe
//! reads one chunk only. A key costs its 48-byte row plus a share of its
//! chunk's header, about 50 bytes, where a `BTreeMap` node spent about 90.

use fabric_types::crypto::Hash256;
use fabric_types::rwset::{Key, Value, Version, WriteItem};
use fabric_types::snapshot::{hash_state_entries, StateEntry};

/// The most rows a chunk holds before it splits in half.
const CHUNK_ROWS: usize = 32;

/// One key's value and the version that wrote it.
type Row = (Key, Value, Version);

/// The materialized world state: latest value and version per key.
///
/// ```
/// use fabric_ledger::state::StateDb;
/// use fabric_types::rwset::{Key, Value, Version, WriteItem};
///
/// let mut db = StateDb::new();
/// db.apply(Version::new(1, 0), &[WriteItem { key: Key::from("a"), value: Value::from_u64(7) }]);
/// let (value, version) = db.get(&Key::from("a")).unwrap();
/// assert_eq!(value.as_u64(), Some(7));
/// assert_eq!(version, Version::new(1, 0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StateDb {
    /// Key-ordered rows; no chunk is empty, and each one's capacity is
    /// its length.
    chunks: Vec<Vec<Row>>,
    /// `last_keys[i]` is the key of `chunks[i]`'s last row.
    last_keys: Vec<Key>,
    /// Rows over all chunks.
    len: usize,
}

impl StateDb {
    /// An empty state database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies the writes of one committed transaction at `version`. A
    /// key or value of at most 15 bytes is copied inline; a longer one is
    /// shared with the transaction (a reference-count bump).
    pub fn apply(&mut self, version: Version, writes: &[WriteItem]) {
        for w in writes {
            self.insert((w.key.clone(), w.value.clone(), version));
        }
    }

    /// Writes `row`: over the row of its key, or as a new row in key order.
    fn insert(&mut self, row: Row) {
        // The first chunk whose last key is not below the key, or the last
        // chunk when the key is past them all.
        let c = self
            .last_keys
            .partition_point(|last| *last < row.0)
            .min(self.chunks.len().saturating_sub(1));
        let Some(chunk) = self.chunks.get_mut(c) else {
            self.last_keys.push(row.0.clone());
            self.chunks.push(vec![row]);
            self.len += 1;
            return;
        };
        let at = match chunk.binary_search_by(|r| r.0.cmp(&row.0)) {
            Ok(at) => {
                (chunk[at].1, chunk[at].2) = (row.1, row.2);
                return;
            }
            Err(at) => at,
        };
        self.len += 1;
        if chunk.len() < CHUNK_ROWS {
            chunk.reserve_exact(1);
            chunk.insert(at, row);
            if at + 1 == chunk.len() {
                self.last_keys[c] = chunk[at].0.clone();
            }
            return;
        }
        let half = CHUNK_ROWS / 2;
        let mut right = chunk.split_off(half);
        if at <= half {
            chunk.reserve_exact(1);
            chunk.insert(at, row);
        } else {
            right.reserve_exact(1);
            right.insert(at - half, row);
        }
        chunk.shrink_to_fit();
        self.last_keys[c] = chunk[chunk.len() - 1].0.clone();
        self.last_keys
            .insert(c + 1, right[right.len() - 1].0.clone());
        self.chunks.insert(c + 1, right);
    }

    /// The row of `key`, if present.
    fn row(&self, key: &Key) -> Option<&Row> {
        let chunk = self
            .chunks
            .get(self.last_keys.partition_point(|last| last < key))?;
        let at = chunk.binary_search_by(|r| r.0.cmp(key)).ok()?;
        Some(&chunk[at])
    }

    /// The current value and version of `key`, or `None` if absent.
    pub fn get(&self, key: &Key) -> Option<(&Value, Version)> {
        self.row(key).map(|(_, v, ver)| (v, *ver))
    }

    /// The current version of `key`, or `None` if absent.
    pub fn get_version(&self, key: &Key) -> Option<Version> {
        self.row(key).map(|(_, _, ver)| *ver)
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no key is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over `(key, value, version)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Value, Version)> + '_ {
        self.chunks.iter().flatten().map(|(k, v, ver)| (k, v, *ver))
    }

    /// The deterministic digest of the whole state
    /// ([`hash_state_entries`] over the key-ordered entries) — the
    /// checkpoint fingerprint. Two databases that applied the same writes
    /// in the same order hash identically, whether they were built by
    /// replaying from genesis or seeded from a snapshot and fed the tail.
    pub fn state_hash(&self) -> Hash256 {
        hash_state_entries(self.iter())
    }

    /// Exports every `(key, value, version)` in key order — the snapshot
    /// payload, with no spare slot. The entries share long keys and values
    /// with this state.
    pub fn export_entries(&self) -> Vec<StateEntry> {
        let mut entries = Vec::with_capacity(self.len);
        entries.extend(self.chunks.iter().flatten().cloned());
        entries
    }

    /// Rebuilds a database from exported entries (snapshot installation),
    /// keeping the entries' shared bytes. Key-ordered entries, as
    /// [`StateDb::export_entries`] gives them, are cut straight into full
    /// chunks; any others are written one by one, a repeated key keeping
    /// its last value.
    pub fn from_entries(entries: Vec<StateEntry>) -> Self {
        let mut db = StateDb::new();
        if !entries.windows(2).all(|pair| pair[0].0 < pair[1].0) {
            entries.into_iter().for_each(|row| db.insert(row));
            return db;
        }
        db.len = entries.len();
        let mut rows = entries.into_iter();
        while rows.len() > 0 {
            let chunk: Vec<Row> = rows.by_ref().take(CHUNK_ROWS).collect();
            db.last_keys.push(chunk[chunk.len() - 1].0.clone());
            db.chunks.push(chunk);
        }
        db
    }

    /// Sum of all `u64`-encoded counter values; `None` if any value is not a
    /// counter. The Table II experiment uses this to count conflicts: the
    /// number of invalidated increments equals `issued - sum`.
    pub fn counter_sum(&self) -> Option<u64> {
        let mut sum = 0u64;
        for (_, v, _) in self.iter() {
            sum += v.as_u64()?;
        }
        Some(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(key: &str, v: u64) -> WriteItem {
        WriteItem {
            key: Key::from(key),
            value: Value::from_u64(v),
        }
    }

    #[test]
    fn apply_overwrites_value_and_version() {
        let mut db = StateDb::new();
        db.apply(Version::new(1, 0), &[w("a", 1)]);
        db.apply(Version::new(2, 3), &[w("a", 2)]);
        let (value, version) = db.get(&Key::from("a")).unwrap();
        assert_eq!(value.as_u64(), Some(2));
        assert_eq!(version, Version::new(2, 3));
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn absent_keys_read_as_none() {
        let db = StateDb::new();
        assert!(db.get(&Key::from("missing")).is_none());
        assert!(db.get_version(&Key::from("missing")).is_none());
        assert!(db.is_empty());
    }

    #[test]
    fn iter_is_key_ordered() {
        let mut db = StateDb::new();
        db.apply(Version::new(1, 0), &[w("b", 2), w("a", 1), w("c", 3)]);
        let keys: Vec<_> = db.iter().map(|(k, _, _)| k.to_string()).collect();
        assert_eq!(keys, vec!["a", "b", "c"]);
    }

    #[test]
    fn state_hash_round_trips_through_export_import() {
        let mut db = StateDb::new();
        db.apply(Version::new(1, 0), &[w("b", 2), w("a", 1)]);
        db.apply(Version::new(2, 1), &[w("a", 3)]);
        let hash = db.state_hash();
        let rebuilt = StateDb::from_entries(db.export_entries());
        assert_eq!(rebuilt.state_hash(), hash);
        assert_eq!(rebuilt.len(), db.len());
        let (value, version) = rebuilt.get(&Key::from("a")).unwrap();
        assert_eq!(value.as_u64(), Some(3));
        assert_eq!(version, Version::new(2, 1));
        // The hash pins versions, not just values.
        let mut same_values = StateDb::new();
        same_values.apply(Version::new(9, 0), &[w("a", 3), w("b", 2)]);
        assert_ne!(same_values.state_hash(), hash);
    }

    /// The checkpoint fingerprint of a small state is a constant: how keys
    /// and values are held must not move a hashed byte.
    #[test]
    fn state_hash_is_pinned() {
        let mut db = StateDb::new();
        db.apply(Version::new(1, 0), &[w("counter1", 4), w("delta:7", 1)]);
        db.apply(
            Version::new(2, 3),
            &[
                w("counter1", 5),
                WriteItem {
                    key: Key::from("größe"),
                    value: Value::default(),
                },
            ],
        );
        assert_eq!(
            db.state_hash().to_hex(),
            "7264858de53bdd228ec898d0dde82459e19837c97a149198a505e7fbd0338c7a"
        );
    }

    #[test]
    fn from_entries_orders_unordered_entries() {
        let entry = |key: &str, v: u64| (Key::from(key), Value::from_u64(v), Version::new(v, 0));
        let db = StateDb::from_entries(vec![entry("b", 1), entry("a", 2), entry("b", 3)]);
        let rows: Vec<_> = db
            .iter()
            .map(|(k, v, ver)| (k.to_string(), v.as_u64(), ver))
            .collect();
        assert_eq!(
            rows,
            vec![
                ("a".to_string(), Some(2), Version::new(2, 0)),
                ("b".to_string(), Some(3), Version::new(3, 0)),
            ]
        );
        assert_exact_chunks(&db);
    }

    /// Every chunk is exactly as long as its `Vec` and no longer than
    /// [`CHUNK_ROWS`], none is empty, and `last_keys` names each one's
    /// last key.
    fn assert_exact_chunks(db: &StateDb) {
        assert_eq!(db.chunks.len(), db.last_keys.len());
        for (chunk, last) in db.chunks.iter().zip(&db.last_keys) {
            assert!(!chunk.is_empty() && chunk.len() <= CHUNK_ROWS);
            assert_eq!(chunk.capacity(), chunk.len());
            assert_eq!(&chunk[chunk.len() - 1].0, last);
        }
        assert_eq!(db.chunks.iter().map(Vec::len).sum::<usize>(), db.len());
    }

    /// The payload workload's 50 000 delta rows, applied in schedule order
    /// and rebuilt from their export, leave no spare slot in any chunk.
    #[test]
    fn held_once_state_db_holds_no_spare_slot() {
        let mut db = StateDb::new();
        for i in 0..50_000u32 {
            db.apply(
                Version::new(u64::from(i), 0),
                &[w(&format!("delta:row{i}"), 1)],
            );
        }
        assert_eq!(db.len(), 50_000);
        assert_exact_chunks(&db);
        let exported = db.export_entries();
        assert_eq!(exported.capacity(), exported.len());
        let rebuilt = StateDb::from_entries(exported);
        assert_exact_chunks(&rebuilt);
        assert_eq!(rebuilt.state_hash(), db.state_hash());
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// A key of 1 to 3 bytes or of 16 to 18: both sides of the inline
        /// limit, sharing prefixes often enough to overwrite.
        fn key_of(id: u16, long: bool) -> Key {
            let short = format!("{:x}", id % 1024);
            if long {
                Key::from(format!("long-key-prefix:{short}"))
            } else {
                Key::from(short)
            }
        }

        proptest! {
            /// The chunked state against the `BTreeMap` it replaced: the
            /// same reads, order, length and hash after every batch, and
            /// after a round trip through a snapshot export. The first
            /// batch writes `base` distinct keys out of order, so chunks
            /// split; the rest overwrite and add.
            #[test]
            fn model_state_db_matches_btree_map(
                base in 200u16..400,
                batches in proptest::collection::vec(
                    proptest::collection::vec((any::<u16>(), any::<bool>(), any::<u64>()), 1..40),
                    1..12,
                ),
            ) {
                let first = (0..base).map(|i| (i.wrapping_mul(389), i % 3 == 0, u64::from(i)));
                let batches = std::iter::once(first.collect()).chain(batches);
                let mut db = StateDb::new();
                let mut model = BTreeMap::new();
                for (block, batch) in batches.enumerate() {
                    let version = Version::new(block as u64, 0);
                    let writes: Vec<WriteItem> = batch
                        .iter()
                        .map(|&(id, long, v)| WriteItem {
                            key: key_of(id, long),
                            value: Value::from_u64(v),
                        })
                        .collect();
                    db.apply(version, &writes);
                    for w in writes {
                        model.insert(w.key, (w.value, version));
                    }
                    assert_exact_chunks(&db);
                    prop_assert_eq!(db.len(), model.len());
                    // The keys written, their other-length twins and their
                    // successors: present and absent alike.
                    for &(id, long, _) in &batch {
                        let near = [key_of(id, long), key_of(id, !long), key_of(id.wrapping_add(1), long)];
                        for key in near {
                            let want = model.get(&key).map(|(v, ver)| (v, *ver));
                            prop_assert_eq!(db.get(&key), want);
                            prop_assert_eq!(db.get_version(&key), want.map(|(_, ver)| ver));
                        }
                    }
                }
                let rows = || model.iter().map(|(k, (v, ver))| (k, v, *ver));
                prop_assert!(db.iter().eq(rows()));
                let hash = hash_state_entries(rows());
                prop_assert_eq!(db.state_hash(), hash);
                let rebuilt = StateDb::from_entries(db.export_entries());
                assert_exact_chunks(&rebuilt);
                prop_assert!(rebuilt.iter().eq(rows()));
                prop_assert_eq!(rebuilt.state_hash(), hash);
                for key in model.keys() {
                    prop_assert_eq!(rebuilt.get(key), db.get(key));
                }
            }
        }
    }

    #[test]
    fn counter_sum_adds_counters() {
        let mut db = StateDb::new();
        db.apply(Version::new(1, 0), &[w("a", 10), w("b", 32)]);
        assert_eq!(db.counter_sum(), Some(42));
        db.apply(
            Version::new(1, 1),
            &[WriteItem {
                key: Key::from("c"),
                value: Value::from_bytes(&[1]),
            }],
        );
        assert_eq!(db.counter_sum(), None);
    }
}
