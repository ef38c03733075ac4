//! Interned message-kind identifiers.
//!
//! The seed accounted per-kind traffic through `BTreeMap<&'static str, _>`
//! lookups — a string-keyed tree walk on every recorded send, paid once in
//! the engine's [`crate::NetMetrics`] and again in every protocol-level
//! per-kind counter. A [`KindId`] replaces the string key with a small
//! dense index into a process-wide registry: interning happens once per
//! kind (protocols cache the ids in `OnceLock` statics), and the hot path
//! becomes a bounds-checked array add.
//!
//! Ids are assigned in first-intern order, so their numeric values are an
//! artifact of which code path ran first — never expose them in reports.
//! Reports read kinds by name: [`crate::NetMetrics::kinds`] resolves ids
//! back to names and sorts by name, and [`KindBytes::get_named`] looks one
//! up, keeping rendered output independent of interning order.

use std::sync::{Mutex, OnceLock};

/// A process-wide interned message-kind tag (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KindId(u32);

fn registry() -> &'static Mutex<Vec<&'static str>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

impl KindId {
    /// Interns `name`, returning its stable id. The first call for a given
    /// name registers it; later calls (from any thread) return the same id.
    ///
    /// This takes a registry lock and scans it — cheap, but not free. Hot
    /// paths should intern once and cache the id (e.g. in a `OnceLock`)
    /// rather than re-interning per message.
    pub fn intern(name: &'static str) -> KindId {
        let mut reg = registry().lock().expect("kind registry poisoned");
        if let Some(i) = reg.iter().position(|n| *n == name) {
            return KindId(i as u32);
        }
        let id = KindId(reg.len() as u32);
        reg.push(name);
        id
    }

    /// Looks a name up without registering it; `None` if never interned.
    pub fn lookup(name: &str) -> Option<KindId> {
        let reg = registry().lock().expect("kind registry poisoned");
        reg.iter()
            .position(|n| *n == name)
            .map(|i| KindId(i as u32))
    }

    /// The interned name of this id.
    pub fn name(self) -> &'static str {
        let reg = registry().lock().expect("kind registry poisoned");
        reg[self.0 as usize]
    }

    /// Dense index for direct array addressing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a dense index previously obtained via
    /// [`KindId::index`] (used when iterating dense stat arrays).
    pub(crate) fn from_index(i: usize) -> KindId {
        KindId(i as u32)
    }
}

/// Per-kind byte counters over interned ids: the dense replacement for the
/// protocol layer's `BTreeMap<&'static str, u64>` per-kind accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KindBytes {
    by_kind: Vec<u64>,
}

impl KindBytes {
    /// An empty counter set.
    pub fn new() -> Self {
        KindBytes::default()
    }

    /// Adds `bytes` to `kind`'s counter.
    pub fn add(&mut self, kind: KindId, bytes: u64) {
        let idx = kind.index();
        if self.by_kind.len() <= idx {
            self.by_kind.resize(idx + 1, 0);
        }
        self.by_kind[idx] += bytes;
    }

    /// Bytes recorded for `kind` (0 when the kind never occurred).
    pub fn get(&self, kind: KindId) -> u64 {
        self.by_kind.get(kind.index()).copied().unwrap_or(0)
    }

    /// Bytes recorded for a kind addressed by name (0 when absent).
    pub fn get_named(&self, name: &str) -> u64 {
        KindId::lookup(name).map_or(0, |id| self.get(id))
    }

    /// Total bytes across every kind.
    pub fn total(&self) -> u64 {
        self.by_kind.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_lookup_matches() {
        let a = KindId::intern("kindtest-alpha");
        let b = KindId::intern("kindtest-alpha");
        assert_eq!(a, b);
        assert_eq!(KindId::lookup("kindtest-alpha"), Some(a));
        assert_eq!(a.name(), "kindtest-alpha");
        assert_eq!(KindId::lookup("kindtest-never-interned"), None);
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let a = KindId::intern("kindtest-x");
        let b = KindId::intern("kindtest-y");
        assert_ne!(a, b);
        assert_ne!(a.index(), b.index());
    }

    #[test]
    fn kind_bytes_accumulate() {
        let blk = KindId::intern("kindtest-block");
        let dig = KindId::intern("kindtest-digest");
        let mut a = KindBytes::new();
        a.add(blk, 100);
        a.add(blk, 50);
        a.add(dig, 7);
        assert_eq!(a.get(blk), 150);
        assert_eq!(a.get_named("kindtest-digest"), 7);
        assert_eq!(a.get_named("kindtest-absent"), 0);
        assert_eq!(a.total(), 157);
        assert_eq!(a.get_named("kindtest-block"), 150);
    }
}
