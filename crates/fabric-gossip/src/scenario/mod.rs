//! Adversarial scenarios, the host-independent half: the script a test
//! writes and the attackers it attaches.
//!
//! * [`script`](self) — [`ScenarioOp`]: `Join`, `Leave`, `Crash`,
//!   `Power`, `Partition`, `Heal`, `DropLink`, `SetLoss`, `Wait` and
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
//!   has. Five discovery-layer behaviors ship: [`StaleReplayer`],
//!   [`SelectiveForwarder`], [`Flooder`], [`Eclipser`] and
//!   [`ObituaryForger`], which wiretaps a victim's freshest claim and
//!   forges its obituary at exactly that claim (under the dead list a
//!   forgery any older is inert, and the victim's next heartbeat outruns
//!   this one). Three dissemination-layer behaviors ship beside them:
//!   [`Withholder`] advertises blocks but never serves payloads toward
//!   its targets; [`Equivocator`] serves conflicting payloads for the
//!   same height to different peers; [`SnapshotPoisoner`] serves
//!   corrupted snapshots. All three classify traffic through
//!   [`crate::messages::GossipMsg::carries_blocks`] /
//!   [`crate::messages::GossipMsg::map_blocks`].
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
    AttackCtx, Byzantine, ClaimIntel, Eclipser, Equivocator, Flooder, ObituaryForger,
    SelectiveForwarder, SnapshotPoisoner, StaleReplayer, Withholder,
};
pub use script::{random_scenario, Predicate, ScenarioError, ScenarioOp, ScenarioShape};
