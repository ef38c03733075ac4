//! The versioned key/value state database of a peer.
//!
//! Every committed write stamps its key with the [`Version`] of the writing
//! transaction (`(block number, tx index)`). Endorsers record these versions
//! in read sets; validators compare them against the committed state.

use std::collections::BTreeMap;

use fabric_types::crypto::Hash256;
use fabric_types::rwset::{Key, Value, Version, WriteItem};
use fabric_types::snapshot::{hash_state_entries, StateEntry};

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
    entries: BTreeMap<Key, (Value, Version)>,
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
            self.entries
                .insert(w.key.clone(), (w.value.clone(), version));
        }
    }

    /// The current value and version of `key`, or `None` if absent.
    pub fn get(&self, key: &Key) -> Option<(&Value, Version)> {
        self.entries.get(key).map(|(v, ver)| (v, *ver))
    }

    /// The current version of `key`, or `None` if absent.
    pub fn get_version(&self, key: &Key) -> Option<Version> {
        self.entries.get(key).map(|(_, ver)| *ver)
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no key is present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, value, version)` in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &Value, Version)> + '_ {
        self.entries.iter().map(|(k, (v, ver))| (k, v, *ver))
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
    /// payload. The entries share long keys and values with this state.
    pub fn export_entries(&self) -> Vec<StateEntry> {
        self.entries
            .iter()
            .map(|(k, (v, ver))| (k.clone(), v.clone(), *ver))
            .collect()
    }

    /// Rebuilds a database from exported entries (snapshot installation),
    /// keeping the entries' shared bytes.
    pub fn from_entries(entries: Vec<StateEntry>) -> Self {
        StateDb {
            entries: entries
                .into_iter()
                .map(|(k, v, ver)| (k, (v, ver)))
                .collect(),
        }
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
