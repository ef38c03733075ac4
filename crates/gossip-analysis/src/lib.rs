//! # gossip-analysis — the paper's appendix, executable
//!
//! Analytic machinery behind the enhanced gossip protocol's guarantee:
//!
//! * [`lambert`] — the principal branch of the Lambert W function;
//! * [`epidemic`] — the ψ recursion, the logistic growth `X(t)`, the
//!   carrying capacity γ, the expected digest count `m`, and the
//!   imperfect-dissemination probability bound
//!   `p_e ≤ n·(1 − 1/n)^m`;
//! * [`ttl`] — TTL selection and the `(n, TTL)` lookup table peers deploy;
//! * [`coverage`] — the infect-and-die coverage fixed point (the paper's
//!   "94 peers ± 2.6, 282 transmissions" claim);
//! * [`coupon`] — the appendix's coupon-collector refinement: the exact
//!   inclusion–exclusion miss probability next to the union bound.
//!
//! Nothing here simulates: the root test `tests/conformance.rs` checks
//! these forms against the one simulator every figure comes from.
//!
//! ```
//! use gossip_analysis::{epidemic, ttl};
//! // How many rounds does a 100-peer network need for a 1e-6 guarantee?
//! let t = ttl::ttl_for(100, 4, 1e-6);
//! assert!(epidemic::imperfect_dissemination_probability(100.0, 4.0, t) <= 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coupon;
pub mod coverage;
pub mod epidemic;
pub mod lambert;
pub mod ttl;

pub use coupon::{coupon_miss_probability, refined_pe};
pub use coverage::infect_and_die_expected_coverage;
pub use epidemic::{carrying_capacity, expected_digests, imperfect_dissemination_probability, psi};
pub use lambert::lambert_w0;
pub use ttl::{ttl_for, TtlTable};
