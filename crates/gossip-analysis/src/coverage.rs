//! Coverage analysis of the *original* infect-and-die push.
//!
//! Section IV of the paper: "with a network of n = 100 peers and f_out = 3,
//! infect-and-die push disseminates each block to an average of 94 peers
//! with a standard deviation of 2.6, while transmitting each block in full
//! 282 times." The fixed point below gives the mean and, times `f_out`,
//! the transmissions; the root test `tests/conformance.rs` checks all
//! three numbers on the simulator.

/// Expected final coverage of infect-and-die push: the fixed point of
/// `c = n·(1 − (1 − 1/n)^{f·c})` (every informed peer transmits exactly
/// `f` copies, so transmissions = `f·c`).
pub fn infect_and_die_expected_coverage(n: f64, fout: f64) -> f64 {
    let q = 1.0 - 1.0 / n;
    // Iterate from full coverage; the map is monotone and contracts onto
    // the nontrivial fixed point.
    let mut c = n;
    for _ in 0..10_000 {
        let next = n * (1.0 - q.powf(fout * c));
        if (next - c).abs() < 1e-12 {
            return next;
        }
        c = next;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_matches_the_papers_94() {
        let c = infect_and_die_expected_coverage(100.0, 3.0);
        assert!((c - 94.0).abs() < 0.5, "expected ≈94, got {c:.2}");
        // Transmissions = f·c ≈ 282.
        assert!((3.0 * c - 282.0).abs() < 2.0);
    }

    #[test]
    fn fixed_point_tracks_fan_out() {
        let c2 = infect_and_die_expected_coverage(100.0, 2.0);
        let c4 = infect_and_die_expected_coverage(100.0, 4.0);
        assert!(c2 < c4);
        assert!((c2 - 79.7).abs() < 0.5);
        assert!((c4 - 98.0).abs() < 0.5);
    }
}
