//! TTL selection: from a target miss probability to a deployable lookup
//! table.
//!
//! "TTL varies slowly with n; we can therefore store a small number of TTL
//! values for (n, p_e) pairs in a lookup table. Peers can adjust TTL using
//! the lowest upper bound for the number of peers appearing in the table."

use crate::epidemic::imperfect_dissemination_probability;

/// The smallest TTL whose analytic miss probability is at most `target_pe`
/// for a network of `n` peers with fan-out `fout`.
///
/// # Panics
///
/// Panics if the target cannot be met within 10 000 rounds (it always can
/// for `fout ≥ 2` and sane targets).
///
/// ```
/// use gossip_analysis::ttl::ttl_for;
/// // The paper's two operating points at n = 100, p_e = 1e-6.
/// assert!(ttl_for(100, 4, 1e-6) <= 9);
/// assert!(ttl_for(100, 2, 1e-6) <= 19);
/// ```
pub fn ttl_for(n: usize, fout: usize, target_pe: f64) -> u32 {
    assert!(n >= 2, "need at least two peers");
    assert!(fout >= 2, "the push phase needs fout >= 2 to saturate");
    assert!(
        target_pe > 0.0 && target_pe < 1.0,
        "target_pe must be in (0, 1)"
    );
    for ttl in 1..10_000 {
        if imperfect_dissemination_probability(n as f64, fout as f64, ttl) <= target_pe {
            return ttl;
        }
    }
    panic!("no TTL below 10000 meets pe <= {target_pe} for n = {n}, fout = {fout}");
}

/// A deployable `(n, TTL)` lookup table for one `(fout, p_e)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct TtlTable {
    fout: usize,
    target_pe: f64,
    /// `(max_n, ttl)` entries with strictly increasing `max_n`.
    entries: Vec<(usize, u32)>,
}

impl TtlTable {
    /// Builds a table over the given network-size grid.
    ///
    /// # Panics
    ///
    /// Panics on an empty or unsorted grid, or invalid parameters.
    pub fn build(fout: usize, target_pe: f64, sizes: &[usize]) -> Self {
        assert!(!sizes.is_empty(), "the grid needs at least one size");
        assert!(
            sizes.windows(2).all(|w| w[0] < w[1]),
            "grid sizes must be strictly increasing"
        );
        let entries = sizes
            .iter()
            .map(|&n| (n, ttl_for(n, fout, target_pe)))
            .collect();
        TtlTable {
            fout,
            target_pe,
            entries,
        }
    }

    /// The default grid used in examples and benches: the paper's n = 100
    /// bracketed by one order of magnitude each way.
    pub fn default_grid() -> &'static [usize] {
        &[10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000]
    }

    /// The fan-out this table was built for.
    pub fn fout(&self) -> usize {
        self.fout
    }

    /// The miss-probability target this table guarantees.
    pub fn target_pe(&self) -> f64 {
        self.target_pe
    }

    /// The table rows as `(max_n, ttl)` pairs.
    pub fn entries(&self) -> &[(usize, u32)] {
        &self.entries
    }

    /// TTL for a network of `n` peers: the entry of the smallest grid size
    /// `≥ n` (the "lowest upper bound" rule). `None` if `n` exceeds the
    /// grid.
    pub fn lookup(&self, n: usize) -> Option<u32> {
        self.entries
            .iter()
            .find(|(max_n, _)| *max_n >= n)
            .map(|(_, ttl)| *ttl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_operating_points() {
        let t4 = ttl_for(100, 4, 1e-6);
        let t2 = ttl_for(100, 2, 1e-6);
        assert!((7..=9).contains(&t4), "fout=4 TTL = {t4} (paper: 9)");
        assert!((15..=19).contains(&t2), "fout=2 TTL = {t2} (paper: 19)");
        // pe = 1e-12 with fout = 4 needs at most the paper's TTL = 12.
        assert!(ttl_for(100, 4, 1e-12) <= 12);
    }

    #[test]
    fn ttl_grows_with_n_and_strictness() {
        assert!(ttl_for(1000, 4, 1e-6) >= ttl_for(100, 4, 1e-6));
        assert!(ttl_for(100, 4, 1e-12) > ttl_for(100, 4, 1e-3));
        assert!(ttl_for(100, 2, 1e-6) > ttl_for(100, 6, 1e-6));
    }

    #[test]
    fn ttl_varies_slowly_with_n() {
        // One order of magnitude in n costs only a few extra rounds —
        // the property that makes a small lookup table sufficient.
        let t100 = ttl_for(100, 4, 1e-6);
        let t1000 = ttl_for(1000, 4, 1e-6);
        assert!(t1000 - t100 <= 4, "t(1000) = {t1000}, t(100) = {t100}");
    }

    #[test]
    fn table_lookup_uses_lowest_upper_bound() {
        let table = TtlTable::build(4, 1e-6, &[50, 100, 1000]);
        assert_eq!(table.lookup(30), table.lookup(50));
        assert_eq!(table.lookup(100), Some(ttl_for(100, 4, 1e-6)));
        assert_eq!(table.lookup(101), Some(ttl_for(1000, 4, 1e-6)));
        assert_eq!(table.lookup(1001), None);
    }

    #[test]
    fn table_entries_are_monotone() {
        let table = TtlTable::build(4, 1e-6, TtlTable::default_grid());
        let ttls: Vec<u32> = table.entries().iter().map(|(_, t)| *t).collect();
        assert!(
            ttls.windows(2).all(|w| w[0] <= w[1]),
            "TTL must grow with n: {ttls:?}"
        );
        assert_eq!(table.fout(), 4);
        assert_eq!(table.target_pe(), 1e-6);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_grid_panics() {
        TtlTable::build(4, 1e-6, &[100, 50]);
    }
}
