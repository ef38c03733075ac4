//! State keys, values, versions and transaction read/write sets.
//!
//! Fabric's execute-order-validate model hinges on versioned reads: a
//! simulated chaincode records, for every key it reads, the version of the
//! value it observed (the `(block, tx)` coordinate of the write that
//! produced it). At validation time the read versions must still match the
//! committed state, otherwise the transaction is invalidated.

use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// A state key. Fabric keys are strings; experiments use short synthetic
/// names such as `"asset17"`.
///
/// The bytes are shared: a clone is a reference-count bump, so the write
/// set of a committed transaction and the world state that applied it hold
/// one copy of the key between them. Order, equality, hashing, `Debug` and
/// [`Key::wire_size`] are those of the string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Key(pub Arc<str>);

impl Key {
    /// Builds a key from anything string-like: a literal or a `String`
    /// costs one allocation, an existing [`Key`] none.
    pub fn new(s: impl Into<Key>) -> Self {
        s.into()
    }

    /// Byte length of the key on the wire.
    pub fn wire_size(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key(s.into())
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key(s.into())
    }
}

/// A state value: opaque bytes, with helpers for the integer counters used
/// by the paper's conflict workload.
///
/// Like [`Key`], the bytes are shared: a clone is a reference-count bump.
/// Equality, hashing, `Debug` and [`Value::wire_size`] are those of the
/// byte slice.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Value(pub Arc<[u8]>);

impl Value {
    /// Encodes a `u64` counter value.
    pub fn from_u64(v: u64) -> Self {
        Value(Arc::new(v.to_be_bytes()))
    }

    /// Decodes a counter value written by [`Value::from_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        let bytes: [u8; 8] = self.0[..].try_into().ok()?;
        Some(u64::from_be_bytes(bytes))
    }

    /// Byte length of the value on the wire.
    pub fn wire_size(&self) -> usize {
        self.0.len()
    }
}

/// The commit coordinate of a write: which transaction of which block
/// produced the current value of a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Version {
    /// Block number of the committing block.
    pub block_num: u64,
    /// Index of the transaction within that block.
    pub tx_num: u32,
}

impl Version {
    /// Builds a version from its coordinates.
    pub fn new(block_num: u64, tx_num: u32) -> Self {
        Version { block_num, tx_num }
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}.{}", self.block_num, self.tx_num)
    }
}

/// One read recorded during simulation: the key and the version observed
/// (`None` when the key did not exist yet).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadItem {
    /// The key that was read.
    pub key: Key,
    /// The version observed, or `None` for an absent key.
    pub version: Option<Version>,
}

/// One write recorded during simulation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteItem {
    /// The key being written.
    pub key: Key,
    /// The new value.
    pub value: Value,
}

/// The read/write set produced by simulating a chaincode.
///
/// ```
/// use fabric_types::rwset::{RwSet, Version};
/// let rwset = RwSet::builder()
///     .read("counter7", Some(Version::new(3, 1)))
///     .write_u64("counter7", 42)
///     .build();
/// assert_eq!(rwset.reads.len(), 1);
/// assert_eq!(rwset.writes.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RwSet {
    /// Keys read, with the versions observed.
    pub reads: Vec<ReadItem>,
    /// Keys written, with the new values.
    pub writes: Vec<WriteItem>,
}

impl RwSet {
    /// Starts building a read/write set.
    pub fn builder() -> RwSetBuilder {
        RwSetBuilder::default()
    }

    /// Whether the sets touch `key` at all.
    pub fn touches(&self, key: &Key) -> bool {
        self.reads.iter().any(|r| &r.key == key) || self.writes.iter().any(|w| &w.key == key)
    }

    /// Approximate wire size: keys, values, and a per-item version/length
    /// overhead comparable to Fabric's protobuf encoding.
    pub fn wire_size(&self) -> usize {
        const PER_ITEM: usize = 16;
        let reads: usize = self
            .reads
            .iter()
            .map(|r| r.key.wire_size() + PER_ITEM)
            .sum();
        let writes: usize = self
            .writes
            .iter()
            .map(|w| w.key.wire_size() + w.value.wire_size() + PER_ITEM)
            .sum();
        reads + writes
    }
}

/// Incremental builder for [`RwSet`].
///
/// Each record grows its list by exactly one slot, so a built set holds no
/// spare capacity: a committed transaction's set lives as long as its
/// block, and a chaincode records a handful of items.
#[derive(Debug, Default)]
pub struct RwSetBuilder {
    rwset: RwSet,
}

impl RwSetBuilder {
    /// Records a read of `key` at `version`.
    pub fn read(mut self, key: impl Into<Key>, version: Option<Version>) -> Self {
        self.rwset.reads.reserve_exact(1);
        self.rwset.reads.push(ReadItem {
            key: key.into(),
            version,
        });
        self
    }

    /// Records a write of `value` to `key`.
    pub fn write(mut self, key: impl Into<Key>, value: Value) -> Self {
        self.rwset.writes.reserve_exact(1);
        self.rwset.writes.push(WriteItem {
            key: key.into(),
            value,
        });
        self
    }

    /// Records a write of a counter value to `key`.
    pub fn write_u64(self, key: impl Into<Key>, value: u64) -> Self {
        self.write(key, Value::from_u64(value))
    }

    /// Finishes the build.
    pub fn build(self) -> RwSet {
        self.rwset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_ordering_is_block_then_tx() {
        assert!(Version::new(1, 5) < Version::new(2, 0));
        assert!(Version::new(2, 0) < Version::new(2, 1));
        assert_eq!(Version::new(3, 3), Version::new(3, 3));
    }

    #[test]
    fn value_u64_round_trip() {
        assert_eq!(Value::from_u64(12345).as_u64(), Some(12345));
        assert_eq!(Value(vec![1, 2, 3].into()).as_u64(), None);
        assert_eq!(Value::default().as_u64(), None);
    }

    #[test]
    fn builder_collects_items_in_order() {
        let s = RwSet::builder()
            .read("a", None)
            .read("b", Some(Version::new(1, 0)))
            .write_u64("b", 9)
            .build();
        assert_eq!(s.reads[0].key, Key::from("a"));
        assert_eq!(s.reads[0].version, None);
        assert_eq!(s.reads[1].version, Some(Version::new(1, 0)));
        assert_eq!(s.writes[0].value.as_u64(), Some(9));
    }

    #[test]
    fn touches_checks_both_sets() {
        let s = RwSet::builder().read("r", None).write_u64("w", 1).build();
        assert!(s.touches(&Key::from("r")));
        assert!(s.touches(&Key::from("w")));
        assert!(!s.touches(&Key::from("x")));
    }

    #[test]
    fn wire_size_grows_with_content() {
        let small = RwSet::builder().write_u64("k", 1).build();
        let big = RwSet::builder()
            .write_u64("k", 1)
            .write_u64("another-key", 2)
            .build();
        assert!(big.wire_size() > small.wire_size());
        assert_eq!(RwSet::default().wire_size(), 0);
    }

    #[test]
    fn held_once_clones_share_the_bytes() {
        let key = Key::new("asset1");
        assert!(Arc::ptr_eq(&key.clone().0, &key.0));
        assert!(Arc::ptr_eq(&Key::new(key.clone()).0, &key.0));
        let value = Value::from_u64(7);
        assert!(Arc::ptr_eq(&value.clone().0, &value.0));
        let s = RwSet::builder()
            .read(key.clone(), None)
            .write(key.clone(), value.clone())
            .build();
        assert!(Arc::ptr_eq(&s.reads[0].key.0, &key.0));
        assert!(Arc::ptr_eq(&s.writes[0].key.0, &key.0));
        assert!(Arc::ptr_eq(&s.writes[0].value.0, &value.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Version::new(4, 2).to_string(), "v4.2");
        assert_eq!(Key::from("asset1").to_string(), "asset1");
    }

    mod model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        /// Key pieces: empty, ASCII, two-, three- and four-byte UTF-8.
        const PIECES: [&str; 6] = ["", "a", "delta:", "é", "日", "🦀"];

        fn key_of(pieces: &[u8]) -> String {
            pieces.iter().map(|&i| PIECES[i as usize]).collect()
        }

        /// Empty, an 8-byte counter, or any short run of bytes.
        fn bytes_of(class: u8, word: u64, bytes: &[u8]) -> Vec<u8> {
            match class {
                0 => Vec::new(),
                1 => word.to_be_bytes().to_vec(),
                _ => bytes.to_vec(),
            }
        }

        fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }

        proptest! {
            /// `Key` against the `String` it held before its bytes were
            /// shared, and `Value` against the `Vec<u8>`: same order,
            /// equality, hash, `Display`, `Debug`, counter decoding and
            /// wire size, over empty, multi-byte UTF-8 and 8-byte inputs.
            #[test]
            fn model_key_value_match_owned_bytes(
                a in proptest::collection::vec(0u8..6, 0..5),
                b in proptest::collection::vec(0u8..6, 0..5),
                x in (0u8..3, any::<u64>(), proptest::collection::vec(any::<u8>(), 0..12)),
                y in (0u8..3, any::<u64>(), proptest::collection::vec(any::<u8>(), 0..12)),
            ) {
                let (sa, sb) = (key_of(&a), key_of(&b));
                let (ka, kb) = (Key::new(sa.as_str()), Key::from(sb.clone()));
                prop_assert_eq!(ka.cmp(&kb), sa.cmp(&sb));
                prop_assert_eq!(ka == kb, sa == sb);
                prop_assert_eq!(hash_of(&ka), hash_of(&sa));
                prop_assert_eq!(ka.to_string(), sa.clone());
                prop_assert_eq!(format!("{ka:?}"), format!("Key({sa:?})"));
                prop_assert_eq!(ka.wire_size(), sa.len());

                let (vx, vy) = (bytes_of(x.0, x.1, &x.2), bytes_of(y.0, y.1, &y.2));
                let (wx, wy) = (Value(vx.clone().into()), Value(vy.clone().into()));
                prop_assert_eq!(wx == wy, vx == vy);
                prop_assert_eq!(hash_of(&wx), hash_of(&vx));
                prop_assert_eq!(format!("{wx:?}"), format!("Value({vx:?})"));
                let counter = <[u8; 8]>::try_from(vx.as_slice()).ok().map(u64::from_be_bytes);
                prop_assert_eq!(wx.as_u64(), counter);
                prop_assert_eq!(wx.wire_size(), vx.len());
            }
        }
    }
}
