//! Adversarial scenarios, the host-independent half: the script a test
//! writes and the attackers it attaches.
//!
//! * [`script`](self) — [`ScenarioOp`]: `Join`, `Leave`, `Crash`,
//!   `Partition`, `Heal`, `DropLink`, `SetLoss`, `Wait` and
//!   `Assert(`[`Predicate`]`)`. Scripts are plain data: tests write them
//!   literally, property tests generate them with [`random_scenario`]
//!   and shrink them on failure.
//! * [`attackers`](self) — the [`Byzantine`] trait wraps a designated
//!   peer's traffic: every protocol-emitted outbound message passes
//!   through [`Byzantine::on_outbound`] (drop, rewrite, amplify), every
//!   delivery to the compromised peer is wiretapped by
//!   [`Byzantine::on_inbound`], and each of the attacker's timer fires
//!   grants an injection opportunity via [`Byzantine::on_step`]. The
//!   underlying peer keeps running the honest protocol — the attacker is
//!   a *man-on-its-own-wire*, exactly the power a compromised process
//!   has. Four discovery-layer behaviors ship: [`StaleReplayer`],
//!   [`SelectiveForwarder`], [`Flooder`] and [`Eclipser`]. On top of
//!   them:
//!
//!   - **Coalitions** — several Byzantine peers coordinate through a
//!     shared [`SideChannel`] (pooled wiretap intel plus named signals):
//!     [`CoalitionForger`] forges a victim's obituary at the coalition's
//!     *pooled* freshest incarnation and announces what it buried (with a
//!     `SideChannel` of its own it is a lone forger), and every
//!     [`RefutationSuppressor`] scrubs exactly that refutation from its
//!     own wire.
//!   - **Adaptive attackers** — [`LeaderHunter`] wiretaps through
//!     [`Byzantine::on_inbound`] and reacts on its own timers
//!     ([`Byzantine::on_step`]): it targets whichever peer currently
//!     claims leadership and re-forges after observing an incarnation
//!     bump.
//!   - **Dissemination-layer attackers** — [`Withholder`] advertises
//!     blocks but never serves payloads toward its targets;
//!     [`Equivocator`] serves conflicting payloads for the same height to
//!     different peers; [`SnapshotPoisoner`] serves corrupted snapshots.
//!     All are classified through the wiretap hooks on
//!     [`crate::messages::GossipMsg::carries_blocks`] /
//!     [`crate::messages::GossipMsg::map_blocks`].
//!
//! Neither half simulates anything. The one simulator is `desim`, the one
//! host `fabric_experiments::net::FabricNet`; the script interpreter and
//! the predicates' checks are `fabric_experiments::scenario::ScenarioNet`,
//! which runs a script in whatever `desim::NetworkConfig` it is given.
//! The catalog is measured once, by `fabric_experiments::adversarial`: one
//! table of attacker families, each swept over the attacker count `f` in
//! the LAN model the performance numbers are taken in.

mod attackers;
mod script;

pub use attackers::{
    AttackCtx, Byzantine, ClaimIntel, CoalitionForger, Eclipser, Equivocator, Flooder,
    LeaderHunter, RefutationSuppressor, SelectiveForwarder, SideChannel, SnapshotPoisoner,
    StaleReplayer, Withholder,
};
pub use script::{random_scenario, Predicate, ScenarioError, ScenarioOp, ScenarioShape};
