//! State keys, values, versions and transaction read/write sets.
//!
//! Fabric's execute-order-validate model hinges on versioned reads: a
//! simulated chaincode records, for every key it reads, the version of the
//! value it observed (the `(block, tx)` coordinate of the write that
//! produced it). At validation time the read versions must still match the
//! committed state, otherwise the transaction is invalidated.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU8;
use std::sync::Arc;

use crate::list::InlineOne;

/// At most [`InlineBytes::CAPACITY`] bytes held inline: `Copy`, 16 bytes,
/// nothing on the heap. A short [`Key`] or [`Value`] keeps its bytes in
/// one, and so does a scheduled invocation's argument. Equality goes by
/// the bytes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct InlineBytes {
    /// The length plus one. The zero it never holds is the niche that
    /// keeps a [`Key`] or a [`Value`] at 16 bytes.
    len: NonZeroU8,
    /// The bytes, then zeros: every constructor clears the tail, so the
    /// derived equality is the bytes'.
    bytes: [u8; InlineBytes::CAPACITY],
}

impl InlineBytes {
    /// The most bytes held inline.
    pub const CAPACITY: usize = 15;

    /// `len` bytes that `fill` writes into a zeroed buffer, or `None` when
    /// `len` is more than [`InlineBytes::CAPACITY`].
    pub fn try_fill(len: usize, fill: impl FnOnce(&mut [u8])) -> Option<Self> {
        if len > Self::CAPACITY {
            return None;
        }
        let mut bytes = [0; Self::CAPACITY];
        fill(&mut bytes[..len]);
        Some(InlineBytes {
            len: NonZeroU8::MIN.saturating_add(len as u8),
            bytes,
        })
    }

    /// `prefix` followed by `rest`, or `None` when together they are
    /// longer than [`InlineBytes::CAPACITY`] bytes.
    pub fn try_concat(prefix: &[u8], rest: &[u8]) -> Option<Self> {
        Self::try_fill(prefix.len() + rest.len(), |bytes| {
            let (head, tail) = bytes.split_at_mut(prefix.len());
            head.copy_from_slice(prefix);
            tail.copy_from_slice(rest);
        })
    }

    /// The bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len.get() - 1)]
    }
}

impl fmt::Debug for InlineBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("InlineBytes")
            .field(&self.as_bytes())
            .finish()
    }
}

/// The bytes of a [`Key`] or a [`Value`]: inline when they fit, otherwise
/// shared behind a thin reference count. Every constructor goes through
/// [`Bytes::new`], so bytes that fit are never shared. Equality and order
/// are the bytes'.
#[derive(Clone)]
enum Bytes {
    Inline(InlineBytes),
    Shared(Arc<Box<[u8]>>),
}

impl Bytes {
    fn new(bytes: &[u8]) -> Self {
        InlineBytes::try_concat(bytes, &[])
            .map_or_else(|| Bytes::Shared(Arc::new(bytes.into())), Bytes::Inline)
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Bytes::Inline(inline) => inline.as_bytes(),
            Bytes::Shared(shared) => shared,
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

/// A state key. Fabric keys are strings; experiments use short synthetic
/// names such as `"asset17"`.
///
/// A key of at most [`InlineBytes::CAPACITY`] bytes is held inline: a
/// clone is a 16-byte copy and touches no heap. A longer key is shared: a
/// clone is a reference-count bump, so the write set of a committed
/// transaction and the world state that applied it hold one copy of the
/// key between them. Order, equality, hashing, `Display`, `Debug` and
/// [`Key::wire_size`] are those of the string.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key(Bytes);

impl Key {
    /// Builds a key from anything string-like: a short one is copied
    /// inline, a long one is copied to the heap once, and an existing
    /// [`Key`] costs nothing.
    pub fn new(s: impl Into<Key>) -> Self {
        s.into()
    }

    /// `prefix` followed by `rest`, what `format!("{prefix}{rest}")`
    /// renders: written straight into the key when it fits inline.
    pub fn concat(prefix: &str, rest: &str) -> Self {
        match InlineBytes::try_concat(prefix.as_bytes(), rest.as_bytes()) {
            Some(inline) => Key(Bytes::Inline(inline)),
            None => Key::from([prefix, rest].concat()),
        }
    }

    /// The key as a string.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("a key is built from strings")
    }

    /// The key's UTF-8 bytes, without checking them again.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// Byte length of the key on the wire.
    pub fn wire_size(&self) -> usize {
        self.as_bytes().len()
    }
}

/// Hashes the bytes and then `0xff`, as `str` does.
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Key").field(&self.as_str()).finish()
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Self {
        Key(Bytes::new(s.as_bytes()))
    }
}

impl From<String> for Key {
    fn from(s: String) -> Self {
        Key::from(s.as_str())
    }
}

/// A state value: opaque bytes, with helpers for the integer counters used
/// by the paper's conflict workload.
///
/// Like a [`Key`], a value of at most [`InlineBytes::CAPACITY`] bytes (an
/// 8-byte counter, say) is held inline, and a longer one is shared: a
/// clone is a reference-count bump. Equality, hashing, `Debug` and
/// [`Value::wire_size`] are those of the byte slice.
#[derive(Clone, PartialEq, Eq)]
pub struct Value(Bytes);

impl Value {
    /// A value holding a copy of `bytes`.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Value(Bytes::new(bytes))
    }

    /// Encodes a `u64` counter value.
    pub fn from_u64(v: u64) -> Self {
        Value::from_bytes(&v.to_be_bytes())
    }

    /// Decodes a counter value written by [`Value::from_u64`].
    pub fn as_u64(&self) -> Option<u64> {
        self.as_bytes().try_into().ok().map(u64::from_be_bytes)
    }

    /// The value's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.0.as_bytes()
    }

    /// Byte length of the value on the wire.
    pub fn wire_size(&self) -> usize {
        self.as_bytes().len()
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::from_bytes(&[])
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_bytes().hash(state);
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Value").field(&self.as_bytes()).finish()
    }
}

/// The commit coordinate of a write: which transaction of which block
/// produced the current value of a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadItem {
    /// The key that was read.
    pub key: Key,
    /// The version observed, or `None` for an absent key.
    pub version: Option<Version>,
}

/// One write recorded during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RwSet {
    /// Keys read, with the versions observed.
    pub reads: Box<[ReadItem]>,
    /// Keys written, with the new values: one write lives inline.
    pub writes: InlineOne<WriteItem>,
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
/// A built set holds no spare capacity: a committed transaction's set
/// lives as long as its block, and a chaincode records a handful of items.
/// Reads grow by exactly one slot each and are boxed by [`build`]; the
/// writes are an [`InlineOne`], exact by its type, which holds a lone
/// write inside the set.
///
/// [`build`]: RwSetBuilder::build
#[derive(Debug, Default)]
pub struct RwSetBuilder {
    reads: Vec<ReadItem>,
    writes: InlineOne<WriteItem>,
}

impl RwSetBuilder {
    /// Records a read of `key` at `version`.
    pub fn read(mut self, key: impl Into<Key>, version: Option<Version>) -> Self {
        self.reads.reserve_exact(1);
        self.reads.push(ReadItem {
            key: key.into(),
            version,
        });
        self
    }

    /// Records a write of `value` to `key`.
    pub fn write(mut self, key: impl Into<Key>, value: Value) -> Self {
        self.writes.push(WriteItem {
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
        RwSet {
            reads: self.reads.into_boxed_slice(),
            writes: self.writes,
        }
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
        assert_eq!(Value::from_bytes(&[1, 2, 3]).as_u64(), None);
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

    /// Whether `bytes` lie inside `holder` itself, not on the heap.
    fn held_inline<T>(holder: &T, bytes: &[u8]) -> bool {
        let start = holder as *const T as usize;
        (start..start + std::mem::size_of::<T>()).contains(&(bytes.as_ptr() as usize))
    }

    /// A key or value of at most 15 bytes lives inside itself, so a clone
    /// copies 16 bytes and touches no heap; a longer one is shared, so a
    /// clone and the sets built from clones point at one copy.
    #[test]
    fn held_once_clones_share_the_bytes() {
        let (key, value) = (Key::new("fifteen-bytes:0"), Value::from_u64(7));
        let s = RwSet::builder()
            .read(key.clone(), None)
            .write(key.clone(), value.clone())
            .build();
        for k in [&key, &key.clone(), &s.reads[0].key, &s.writes[0].key] {
            assert!(held_inline(k, k.as_bytes()));
        }
        for v in [&value, &value.clone(), &s.writes[0].value] {
            assert!(held_inline(v, v.as_bytes()));
        }

        let (key, value) = (Key::new("sixteen-bytes:00"), Value::from_bytes(&[7; 16]));
        assert!(!held_inline(&key, key.as_bytes()));
        assert!(!held_inline(&value, value.as_bytes()));
        let s = RwSet::builder()
            .read(key.clone(), None)
            .write(Key::new(key.clone()), value.clone())
            .build();
        for k in [&key.clone(), &s.reads[0].key, &s.writes[0].key] {
            assert_eq!(k.as_bytes().as_ptr(), key.as_bytes().as_ptr());
        }
        for v in [&value.clone(), &s.writes[0].value] {
            assert_eq!(v.as_bytes().as_ptr(), value.as_bytes().as_ptr());
        }
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

        /// Key pieces: empty, ASCII, two-, three- and four-byte UTF-8, and
        /// a NUL, so two keys can differ only in a zero tail.
        const PIECES: [&str; 7] = ["", "a", "delta:", "é", "日", "🦀", "\0"];

        /// Keys of 15, 16 and 17 bytes, in ASCII and in multi-byte UTF-8:
        /// both sides of the inline limit.
        const EDGE_KEYS: [&str; 6] = [
            "fifteen-bytes:0",
            "sixteen-bytes:00",
            "seventeen-bytes:0",
            "delta:日日日",
            "🦀🦀🦀🦀",
            "aéééééééé",
        ];

        /// An edge key, or a string of pieces.
        fn key_of(edge: usize, pieces: &[u8]) -> String {
            match EDGE_KEYS.get(edge) {
                Some(key) => key.to_string(),
                None => pieces.iter().map(|&i| PIECES[i as usize]).collect(),
            }
        }

        /// Empty, an 8-byte counter, any run of up to 39 bytes, or a run
        /// of 15, 16 or 17 bytes.
        fn bytes_of(class: u8, word: u64, bytes: &[u8]) -> Vec<u8> {
            match class {
                0 => Vec::new(),
                1 => word.to_be_bytes().to_vec(),
                2 => bytes.to_vec(),
                _ => word.to_be_bytes().repeat(3)[..15 + (word % 3) as usize].to_vec(),
            }
        }

        fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        }

        proptest! {
            /// `Key` against the `String` it held before it was inlined,
            /// and `Value` against the `Vec<u8>`: same order, equality,
            /// hash, `Display`, `Debug`, counter decoding and wire size,
            /// over empty, multi-byte UTF-8, 8-byte and 15- to 17-byte
            /// inputs. At most 15 bytes are held inline, more are not.
            #[test]
            fn model_key_value_match_owned_bytes(
                a in (0usize..12, proptest::collection::vec(0u8..7, 0..5)),
                b in (0usize..12, proptest::collection::vec(0u8..7, 0..5)),
                x in (0u8..4, any::<u64>(), proptest::collection::vec(any::<u8>(), 0..40)),
                y in (0u8..4, any::<u64>(), proptest::collection::vec(any::<u8>(), 0..40)),
            ) {
                let (sa, sb) = (key_of(a.0, &a.1), key_of(b.0, &b.1));
                let (ka, kb) = (Key::new(sa.as_str()), Key::from(sb.clone()));
                prop_assert_eq!(ka.cmp(&kb), sa.cmp(&sb));
                prop_assert_eq!(ka == kb, sa == sb);
                prop_assert_eq!(hash_of(&ka), hash_of(&sa));
                prop_assert_eq!(hash_of(&kb), hash_of(&sb));
                prop_assert_eq!(ka.to_string(), sa.clone());
                prop_assert_eq!(format!("{ka:?}"), format!("Key({sa:?})"));
                prop_assert_eq!(ka.as_bytes(), sa.as_bytes());
                prop_assert_eq!(kb.as_str(), sb.as_str());
                prop_assert_eq!(ka.wire_size(), sa.len());
                prop_assert_eq!(Key::concat(&sa, &sb), Key::from(format!("{sa}{sb}")));
                prop_assert_eq!(held_inline(&ka, ka.as_bytes()), sa.len() <= 15);
                prop_assert_eq!(held_inline(&kb, kb.as_bytes()), sb.len() <= 15);

                let (vx, vy) = (bytes_of(x.0, x.1, &x.2), bytes_of(y.0, y.1, &y.2));
                let (wx, wy) = (Value::from_bytes(&vx), Value::from_bytes(&vy));
                prop_assert_eq!(wx == wy, vx == vy);
                prop_assert_eq!(hash_of(&wx), hash_of(&vx));
                prop_assert_eq!(format!("{wx:?}"), format!("Value({vx:?})"));
                prop_assert_eq!(wx.as_bytes(), vx.as_slice());
                let counter = <[u8; 8]>::try_from(vx.as_slice()).ok().map(u64::from_be_bytes);
                prop_assert_eq!(wx.as_u64(), counter);
                prop_assert_eq!(wx.wire_size(), vx.len());
                prop_assert_eq!(held_inline(&wx, wx.as_bytes()), vx.len() <= 15);
            }
        }
    }
}
