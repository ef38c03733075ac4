//! The scenario script: ops, predicates and the seeded-random generator.
//!
//! Plain data, host-independent: a script is a `Vec<ScenarioOp>` that
//! tests write literally or generate with [`random_scenario`] (a pure
//! function of its seed, so a failing case shrinks). The interpreter —
//! `apply` / `run_script` / `check` — lives with the host, in
//! `fabric_experiments::scenario::ScenarioNet`.

use std::collections::HashSet;
use std::fmt;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use fabric_types::ids::PeerId;

/// One step of a scenario script.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioOp {
    /// Runtime join: only the joiner acts (discovery announces it). A
    /// crashed peer comes back up into exactly this channel.
    Join {
        /// Channel index.
        channel: usize,
        /// The joining peer.
        peer: PeerId,
    },
    /// Runtime leave: the leaver goes silent; others detect by timeout.
    Leave {
        /// Channel index.
        channel: usize,
        /// The leaving peer.
        peer: PeerId,
    },
    /// Silent process crash: the node goes down — its timers stop,
    /// inbound is dropped, nothing is announced — and it is out of every
    /// channel it was in until a `Join` names one.
    Crash {
        /// The crashing peer.
        peer: PeerId,
    },
    /// Partition the network into groups (cross-group links blocked;
    /// previously blocked links inside a group are restored — the loss
    /// rate is **not** touched).
    Partition {
        /// The groups; links between different groups are blocked.
        groups: Vec<Vec<PeerId>>,
    },
    /// Restore every link and stop message loss.
    Heal,
    /// Block one link, both directions.
    DropLink {
        /// One endpoint.
        a: PeerId,
        /// The other endpoint.
        b: PeerId,
    },
    /// Set the independent per-message loss probability, in thousandths
    /// (integer so generated scripts shrink cleanly).
    SetLoss {
        /// Loss in 1/1000 units (250 = 25 %).
        loss_milli: u32,
    },
    /// Let scripted time pass.
    Wait {
        /// Seconds to run.
        secs: u64,
    },
    /// Check an invariant; a failure aborts the script with the op index.
    Assert(Predicate),
}

/// A reusable invariant over the state of a scripted deployment.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Every current member's view equals the ground truth.
    ViewAgreement {
        /// Channel index.
        channel: usize,
    },
    /// Exactly one current member claims leadership (vacuous when the
    /// channel is empty).
    ExactlyOneLeader {
        /// Channel index.
        channel: usize,
    },
    /// No peer holds an alive claim at an incarnation less than or equal
    /// to an obituary *it itself* ever recorded for that peer — replays
    /// of a reaped life must stay dead.
    NoResurrectionBelowObituary {
        /// Channel index.
        channel: usize,
    },
    /// Every current member's store holds every injected block of the
    /// channel, gap-free up to the injection head.
    GapFreeCatchup {
        /// Channel index.
        channel: usize,
    },
    /// Views converge to the ground truth within the bound, advancing
    /// scripted time as needed.
    ConvergenceWithin {
        /// Channel index.
        channel: usize,
        /// The bound, in scripted seconds.
        secs: u64,
    },
}

/// Why a script aborted: which op, where, and what the predicate said.
#[derive(Debug, Clone)]
pub struct ScenarioError {
    /// Index of the failing op within the script (when known).
    pub op_index: Option<usize>,
    /// Rendering of the failing op.
    pub op: String,
    /// The predicate's failure message.
    pub message: String,
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.op_index {
            Some(i) => write!(f, "op #{i} {}: {}", self.op, self.message),
            None => write!(f, "{}: {}", self.op, self.message),
        }
    }
}

/// The channel a generated scenario acts on.
const CHANNEL: usize = 0;
/// Generated ops involve peers `0..DEPLOYMENT`.
const DEPLOYMENT: u32 = 8;
/// Generated `SetLoss` rates stay below this many thousandths.
const MAX_LOSS_MILLI: u32 = 300;

/// Shape of a seeded-random scenario (see [`random_scenario`]).
#[derive(Debug, Clone)]
pub struct ScenarioShape {
    /// Number of random ops before the settle-and-assert epilogue.
    pub ops: usize,
    /// Peers that never leave or crash (e.g. an attached attacker).
    pub protected: Vec<PeerId>,
    /// The epilogue's settle window, in seconds.
    pub settle_secs: u64,
}

impl Default for ScenarioShape {
    fn default() -> Self {
        ScenarioShape {
            ops: 12,
            protected: Vec::new(),
            settle_secs: 30,
        }
    }
}

/// Generates a seeded-random scenario on channel 0 over peers `0..8`:
/// `shape.ops` weighted fault ops — joins, leaves, crashes, partitions,
/// dropped links and loss below 30 % — each membership op followed by a
/// short wait so incarnations stay distinct, then a `Heal`, a settle
/// window and the three core invariant asserts. The same
/// `(seed, initial, shape)` always yields the same script.
pub fn random_scenario(seed: u64, initial: &[PeerId], shape: &ScenarioShape) -> Vec<ScenarioOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let c = CHANNEL;
    let mut members: Vec<PeerId> = initial.to_vec();
    let mut crashed: HashSet<u32> = HashSet::new();
    let mut ops: Vec<ScenarioOp> = Vec::with_capacity(2 * shape.ops + 5);
    for _ in 0..shape.ops {
        let roll = rng.random_range(0u32..12);
        let op = match roll {
            0..=2 => ScenarioOp::Wait {
                secs: rng.random_range(1u64..4),
            },
            3 | 4 => {
                let candidates: Vec<PeerId> = (0..DEPLOYMENT)
                    .map(PeerId)
                    .filter(|p| {
                        !members.contains(p)
                            && !crashed.contains(&p.0)
                            && !shape.protected.contains(p)
                    })
                    .collect();
                match candidates.is_empty() {
                    true => ScenarioOp::Wait { secs: 1 },
                    false => {
                        let peer = candidates[rng.random_range(0..candidates.len())];
                        members.push(peer);
                        ScenarioOp::Join { channel: c, peer }
                    }
                }
            }
            5 | 6 => match removable(&members, &shape.protected, &mut rng) {
                Some(peer) => {
                    members.retain(|m| *m != peer);
                    ScenarioOp::Leave { channel: c, peer }
                }
                None => ScenarioOp::Wait { secs: 1 },
            },
            7 => ScenarioOp::SetLoss {
                loss_milli: rng.random_range(0..MAX_LOSS_MILLI),
            },
            8 => match pick_two(&members, &mut rng) {
                Some((a, b)) => ScenarioOp::DropLink { a, b },
                None => ScenarioOp::Wait { secs: 1 },
            },
            9 => ScenarioOp::Heal,
            10 => match removable(&members, &shape.protected, &mut rng) {
                Some(peer) => {
                    members.retain(|m| *m != peer);
                    crashed.insert(peer.0);
                    ScenarioOp::Crash { peer }
                }
                None => ScenarioOp::Wait { secs: 1 },
            },
            11 if members.len() >= 2 => {
                let mut shuffled = members.clone();
                for i in (1..shuffled.len()).rev() {
                    let j = rng.random_range(0..i + 1);
                    shuffled.swap(i, j);
                }
                let cut = rng.random_range(1..shuffled.len());
                ScenarioOp::Partition {
                    groups: vec![shuffled[..cut].to_vec(), shuffled[cut..].to_vec()],
                }
            }
            _ => ScenarioOp::Wait { secs: 1 },
        };
        let membership_op = matches!(
            op,
            ScenarioOp::Join { .. } | ScenarioOp::Leave { .. } | ScenarioOp::Crash { .. }
        );
        ops.push(op);
        if membership_op {
            ops.push(ScenarioOp::Wait {
                secs: rng.random_range(1u64..3),
            });
        }
    }
    ops.push(ScenarioOp::Heal);
    ops.push(ScenarioOp::Wait {
        secs: shape.settle_secs,
    });
    ops.push(ScenarioOp::Assert(Predicate::ViewAgreement { channel: c }));
    ops.push(ScenarioOp::Assert(Predicate::ExactlyOneLeader {
        channel: c,
    }));
    ops.push(ScenarioOp::Assert(Predicate::NoResurrectionBelowObituary {
        channel: c,
    }));
    ops
}

/// A member that may leave or crash (keeps the channel ≥ 2 strong and
/// never touches protected peers).
fn removable(members: &[PeerId], protected: &[PeerId], rng: &mut StdRng) -> Option<PeerId> {
    if members.len() <= 2 {
        return None;
    }
    let candidates: Vec<PeerId> = members
        .iter()
        .copied()
        .filter(|m| !protected.contains(m))
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.random_range(0..candidates.len())])
    }
}

/// Two distinct members, if the channel has them.
fn pick_two(members: &[PeerId], rng: &mut StdRng) -> Option<(PeerId, PeerId)> {
    if members.len() < 2 {
        return None;
    }
    let a = rng.random_range(0..members.len());
    let mut b = rng.random_range(0..members.len() - 1);
    if b >= a {
        b += 1;
    }
    Some((members[a], members[b]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_scenarios_are_reproducible_and_well_formed() {
        let initial: Vec<PeerId> = (0..5).map(PeerId).collect();
        let shape = ScenarioShape::default();
        let a = random_scenario(7, &initial, &shape);
        let b = random_scenario(7, &initial, &shape);
        assert_eq!(a, b, "same seed, same script");
        let c = random_scenario(8, &initial, &shape);
        assert_ne!(a, c, "different seed, different script");
        assert!(
            matches!(a.last(), Some(ScenarioOp::Assert(_))),
            "scripts end in asserts"
        );
        // Protected peers never leave or crash; every op stays on the
        // channel, within the deployment and below the loss cap; and the
        // crash and partition branches do fire.
        let protected_shape = ScenarioShape {
            protected: vec![PeerId(1)],
            ops: 40,
            ..ScenarioShape::default()
        };
        let (mut crashes, mut partitions) = (0, 0);
        let in_deployment = |p: &PeerId| p.0 < DEPLOYMENT;
        for seed in 0..10u64 {
            for op in random_scenario(seed, &initial, &protected_shape) {
                match op {
                    ScenarioOp::Leave { peer, channel } => {
                        assert_ne!(peer, PeerId(1), "protected peer was removed");
                        assert_eq!(channel, CHANNEL);
                        assert!(in_deployment(&peer));
                    }
                    ScenarioOp::Crash { peer } => {
                        assert_ne!(peer, PeerId(1), "protected peer was removed");
                        assert!(in_deployment(&peer));
                        crashes += 1;
                    }
                    ScenarioOp::Join { peer, channel } => {
                        assert_eq!(channel, CHANNEL);
                        assert!(in_deployment(&peer));
                    }
                    ScenarioOp::SetLoss { loss_milli } => assert!(loss_milli < MAX_LOSS_MILLI),
                    ScenarioOp::Partition { groups } => {
                        assert!(groups.iter().flatten().all(in_deployment));
                        partitions += 1;
                    }
                    ScenarioOp::DropLink { a, b } => {
                        assert!(in_deployment(&a) && in_deployment(&b));
                    }
                    ScenarioOp::Assert(
                        Predicate::ViewAgreement { channel }
                        | Predicate::ExactlyOneLeader { channel }
                        | Predicate::NoResurrectionBelowObituary { channel },
                    ) => assert_eq!(channel, CHANNEL),
                    _ => {}
                }
            }
        }
        assert!(
            crashes > 0 && partitions > 0,
            "{crashes} crashes, {partitions} partitions"
        );
    }
}
