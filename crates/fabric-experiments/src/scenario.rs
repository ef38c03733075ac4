//! Scripted scenarios on the one simulator: the interpreter of
//! [`fabric_gossip::scenario`]'s op DSL and the checks behind its
//! predicates, over a [`desim::Simulation`] of a [`FabricNet`].
//!
//! [`ScenarioNet`] runs any [`Deployment`] ([`ScenarioNet::over`]): one
//! with a client schedule, an orderer and scheduled churn as well as the
//! schedule-less one [`ScenarioNet::new`] stands up, where no client and
//! no orderer traffic exist (blocks enter through
//! [`ScenarioNet::inject`]) and every member keeps a ledger. It models
//! nothing itself. Time is `desim`'s clock and timing wheel; latency,
//! bandwidth and processing delay are whatever the [`NetworkConfig`]
//! says ([`NetworkConfig::ideal`] for protocol logic,
//! [`NetworkConfig::lan`] for the model every benchmark workload runs in);
//! `Partition` / `Heal` / `DropLink` go to [`desim::NetState`], `SetLoss`
//! to [`Simulation::set_loss`], `Power` to the engine's node status;
//! `Join` / `Leave` / `Crash` are the runtime membership [`FabricNet`]
//! applies for its churn presets; attached [`Byzantine`] behaviors sit on
//! [`FabricNet`]'s outbound edge. What is left here is the script:
//! ground-truth accessors, `apply` / `run_script` / `check`, and the
//! obituary-floor ratchet behind
//! [`Predicate::NoResurrectionBelowObituary`].
//!
//! Nobody is ever told about a join or a leave — a join is only the
//! joiner's own announcement, a leave or a crash only silence. A
//! configuration without protocol discovery makes a static deployment: it
//! can be attacked, partitioned and power-cycled, but `Join`, `Leave` and
//! `Crash` panic (see [`FabricNet::join`]).
//!
//! ## Determinism contract
//!
//! There is one: [`Simulation::new`]'s documented draw order. The same
//! deployment and the same ops replay event for event, and a deployment
//! driven here handles exactly the events its runner's
//! [`Deployment::run`] does. Attached behaviors draw from [`FabricNet`]'s
//! separate attack generator ([`FabricNet::ATTACK_SEED`]), so attaching
//! one never re-rolls an honest draw.

use std::collections::BTreeMap;

use desim::{Duration, NetworkConfig, NodeId, Simulation};
use fabric_gossip::config::GossipConfig;
use fabric_gossip::messages::PeerAlive;
use fabric_gossip::peer::GossipPeer;
use fabric_gossip::scenario::{Byzantine, Predicate, ScenarioError, ScenarioOp};
use fabric_ledger::ledger::Ledger;
use fabric_orderer::cutter::BatchConfig;
use fabric_orderer::service::OrdererConfig;
use fabric_types::block::{Block, BlockRef};
use fabric_types::ids::{ChannelId, PeerId};
use fabric_types::snapshot::SnapshotRef;
use fabric_types::transaction::EndorsementPolicy;

use crate::churn_waves::DISCOVERY_KINDS;
use crate::deployment::Deployment;
use crate::net::{ChannelSpec, FabricNet, NetParams};

/// How often [`ScenarioNet::time_until`] looks: the resolution of every
/// time a scenario measures.
pub const POLL: Duration = Duration::from_millis(100);

/// A scripted deployment for discovery-protocol tests, adversarial
/// scenarios and fault injection. See the [module docs](self).
#[derive(Debug)]
pub struct ScenarioNet {
    sim: Simulation<FabricNet>,
    /// Freshest obituary each peer recorded in one life, keyed by
    /// `(observer index, channel, observer's incarnation, subject)` — the
    /// ratchet behind [`Predicate::NoResurrectionBelowObituary`]. Each
    /// life of an engine has its own incarnation, so a leave, crash or
    /// power cycle, which loses the obituaries, starts a fresh floor.
    obituary_floor: BTreeMap<(usize, u16, u64, u32), PeerAlive>,
    /// Highest injected block number per channel.
    injected: Vec<u64>,
}

impl ScenarioNet {
    /// Starts `d` ([`Deployment::start`]): every peer's timers, the
    /// client's first submission and the churn plan are armed, and
    /// nothing has run yet — like every op, the start happens at an
    /// instant and the simulation runs when told to
    /// ([`ScenarioNet::run_for`]).
    pub fn over(d: Deployment) -> Self {
        let channels = 1 + d.net.params().extra_channels.len();
        ScenarioNet {
            sim: d.start(),
            obituary_floor: BTreeMap::new(),
            injected: vec![0; channels],
        }
    }

    /// A schedule-less deployment of `network.nodes` peers in `network`
    /// (its simulated network also has the two nodes of the orderer and
    /// the client, which it never addresses), with a ledger on every
    /// member, run [over](ScenarioNet::over). Peer `i` starts joined to
    /// every channel whose member list (ascending ids) contains it.
    pub fn new(
        network: NetworkConfig,
        memberships: Vec<Vec<PeerId>>,
        cfg: &GossipConfig,
        seed: u64,
    ) -> Self {
        let mut params = NetParams::new(
            network.nodes,
            cfg.clone(),
            OrdererConfig::kafka(BatchConfig::paper_dissemination()),
        );
        params.endorsers = Vec::new();
        params.full_ledgers = true;
        let mut specs = memberships
            .into_iter()
            .enumerate()
            .map(|(c, members)| ChannelSpec {
                channel: ChannelId(c as u16),
                members,
                orgs: 1,
                endorsers: Vec::new(),
                policy: EndorsementPolicy::AnyMember,
            });
        params.default_members = specs.next().map(|spec| spec.members);
        params.extra_channels = specs.collect();
        let d = Deployment::new(params, Vec::new(), &network, seed, Duration::ZERO);
        Self::over(d)
    }

    /// The simulation underneath: clock, event count, network accounting,
    /// and through [`Simulation::protocol`] the deployment itself.
    pub fn sim(&self) -> &Simulation<FabricNet> {
        &self.sim
    }

    /// The gossip state of peer `i`.
    pub fn gossip(&self, i: usize) -> &GossipPeer {
        self.sim.protocol().gossip(i)
    }

    /// The ledger peer `i` keeps for channel `c`: what it validated and
    /// committed of the blocks gossip delivered, or stood up from an
    /// installed snapshot. `None` before the peer first joins `c`.
    pub fn ledger(&self, i: usize, c: usize) -> Option<&Ledger> {
        self.sim.protocol().ledger_on(i, ChannelId(c as u16))
    }

    /// Ground-truth members of channel `c` (what the script enacted).
    pub fn members(&self, c: usize) -> &[PeerId] {
        self.sim.protocol().members_on(ChannelId(c as u16))
    }

    /// The current per-message loss probability.
    pub fn loss(&self) -> f64 {
        self.sim.net().config().loss
    }

    /// The head of channel `c`: the highest block number injected or cut
    /// by the orderer.
    pub fn head(&self, c: usize) -> u64 {
        let cut = self.sim.protocol().blocks_cut_on(ChannelId(c as u16));
        self.injected[c].max(cut)
    }

    /// Whether `peer` is down: crashed, or powered off.
    pub fn is_crashed(&self, peer: PeerId) -> bool {
        !self.sim.net().is_up(NodeId(peer.0))
    }

    /// Offered wire bytes of one message kind so far (lost and cut-off
    /// messages included — they were put on the wire).
    pub fn wire_bytes_of_kind(&self, kind: &str) -> u64 {
        self.sim.metrics().kind(kind).map_or(0, |k| k.bytes)
    }

    /// Offered wire bytes of the discovery protocol (heartbeats plus all
    /// anti-entropy forms).
    pub fn discovery_wire_bytes(&self) -> u64 {
        DISCOVERY_KINDS
            .iter()
            .map(|k| self.wire_bytes_of_kind(k))
            .sum()
    }

    /// Sets the independent per-message loss probability.
    pub fn set_loss(&mut self, loss: f64) {
        self.sim.set_loss(loss);
    }

    /// Blocks (or unblocks) the link between `a` and `b`, both directions.
    pub fn set_link(&mut self, a: PeerId, b: PeerId, up: bool) {
        let (a, b) = (NodeId(a.0), NodeId(b.0));
        self.sim.with_ctx(|_, ctx| match up {
            true => ctx.net_mut().set_link_up(a, b),
            false => ctx.net_mut().set_link_down(a, b),
        });
    }

    /// Partitions the network into `groups`: every link between two
    /// different groups is blocked (links inside a group are restored).
    /// A node no group lists, such as the orderer or the client, keeps
    /// every link. A configured loss rate keeps applying — partition and
    /// loss compose.
    pub fn partition(&mut self, groups: &[Vec<PeerId>]) {
        let groups: Vec<Vec<NodeId>> = groups
            .iter()
            .map(|g| g.iter().map(|p| NodeId(p.0)).collect())
            .collect();
        self.sim.with_ctx(|_, ctx| ctx.net_mut().partition(&groups));
    }

    /// Restores every blocked link; the loss rate is untouched.
    pub fn restore_links(&mut self) {
        self.sim.with_ctx(|_, ctx| ctx.net_mut().heal());
    }

    /// Full fault recovery: restores every link **and** stops message
    /// loss.
    pub fn heal(&mut self) {
        self.restore_links();
        self.set_loss(0.0);
    }

    /// Attaches a Byzantine behavior to `peer` (see
    /// [`FabricNet::set_byzantine`]).
    pub fn set_byzantine(&mut self, peer: PeerId, behavior: Box<dyn Byzantine>) {
        self.sim.protocol_mut().set_byzantine(peer, behavior);
    }

    /// Detaches the Byzantine behavior of `peer`, if any.
    pub fn clear_byzantine(&mut self, peer: PeerId) {
        self.sim.protocol_mut().clear_byzantine(peer);
    }

    /// Runs the simulation for `d`, ratcheting the obituary floors after
    /// every event under protocol discovery (a static roster records no
    /// obituary, so there it runs straight through).
    pub fn run_for(&mut self, d: Duration) {
        self.advance(d, None);
    }

    /// Runs event by event until `done` holds after one, for at most
    /// `limit`, and returns whether it held: the event-grained sibling of
    /// [`ScenarioNet::time_until`], for a script that must act while a
    /// message is on the wire.
    pub fn step_until(
        &mut self,
        limit: Duration,
        mut done: impl FnMut(&ScenarioNet) -> bool,
    ) -> bool {
        self.advance(limit, Some(&mut done))
    }

    /// The one loop of [`ScenarioNet::run_for`] and
    /// [`ScenarioNet::step_until`]: it steps event by event while there
    /// are obituary floors to ratchet or a `done` to ask, and otherwise
    /// runs straight to the deadline.
    fn advance(
        &mut self,
        limit: Duration,
        mut done: Option<&mut dyn FnMut(&ScenarioNet) -> bool>,
    ) -> bool {
        let deadline = self.sim.now() + limit;
        let discovery = self.sim.protocol().params().gossip.discovery.protocol;
        if discovery || done.is_some() {
            while self.sim.step_until(deadline) {
                if discovery {
                    self.record_obituary_floors();
                }
                if done.as_mut().is_some_and(|done| done(self)) {
                    return true;
                }
            }
        }
        self.sim.run_until(deadline);
        false
    }

    /// Runtime join, discovery-style: **only the joiner acts** — it joins
    /// live with the sitting membership as its roster and its discovery
    /// engine announces the join; nobody else is told anything. A crashed
    /// peer comes back up into channel `c` alone.
    pub fn join(&mut self, c: usize, peer: PeerId) {
        let roster = self.members(c).to_vec();
        self.join_via(c, peer, &roster);
    }

    /// Runtime join whose bootstrap roster is `seeds` instead of the full
    /// sitting membership — one seed is the anchor-peer entry, and the
    /// eclipse surface: a joiner that only knows the attacker can only
    /// learn the world through the attacker.
    pub fn join_via(&mut self, c: usize, peer: PeerId, seeds: &[PeerId]) {
        if peer.index() >= self.sim.protocol().params().peers || self.members(c).contains(&peer) {
            return;
        }
        let (channel, seeds) = (ChannelId(c as u16), seeds.to_vec());
        self.sim
            .with_ctx(|net, ctx| net.join(ctx, channel, peer, seeds));
    }

    /// Publishes `snapshot` as the one `peer` serves on channel `c` (see
    /// [`FabricNet::publish_snapshot`]; a member's own ledger does the
    /// same whenever a commit emits a checkpoint). Returns whether the
    /// peer adopted it.
    pub fn publish_snapshot(&mut self, c: usize, peer: PeerId, snapshot: SnapshotRef) -> bool {
        self.sim
            .protocol_mut()
            .publish_snapshot(ChannelId(c as u16), peer, snapshot)
    }

    /// Runtime leave, discovery-style: **only the leaver acts** — it drops
    /// its instance and goes silent; the sitting members must detect the
    /// departure by alive-timeout expiry and spread the obituary.
    pub fn leave(&mut self, c: usize, peer: PeerId) {
        self.sim
            .with_ctx(|net, ctx| net.leave(ctx, ChannelId(c as u16), peer));
    }

    /// Silent crash (see [`FabricNet::crash`]): the node goes down with
    /// no leave announced, and is out of every channel — the network must
    /// reap it. A later [`ScenarioNet::join`] is its reboot.
    pub fn crash(&mut self, peer: PeerId) {
        if peer.index() >= self.sim.protocol().params().peers {
            return;
        }
        self.sim.with_ctx(|net, ctx| net.crash(ctx, peer));
    }

    /// Powers `peer`'s node off or on, as the engine's next event at the
    /// current instant. Off, the node loses what a crash loses (timers,
    /// buffers, leadership, discovery's views) but stays in every channel;
    /// on, it reboots into the same channels and re-arms its timers. Not a
    /// membership change, so it works on a static roster too, and the
    /// ground truth keeps listing the peer while it is off.
    pub fn power(&mut self, peer: PeerId, on: bool) {
        if peer.index() >= self.sim.protocol().params().peers {
            return;
        }
        let node = NodeId(peer.0);
        self.sim
            .with_ctx(|_, ctx| ctx.set_node_status_after(Duration::ZERO, node, on));
    }

    /// Hands `block` of channel `c` to its lowest current member, as the
    /// ordering service would (see [`FabricNet::inject`]).
    pub fn inject(&mut self, c: usize, block: BlockRef) {
        if self.members(c).is_empty() {
            return;
        }
        self.injected[c] = self.injected[c].max(block.number());
        self.sim
            .with_ctx(|net, ctx| net.inject(ctx, ChannelId(c as u16), block));
    }

    /// Injects blocks `1..=height` into channel `c`, chained from genesis
    /// (so every member's ledger commits what gossip delivers to it), 200
    /// bytes of padding each, 200 ms apart.
    pub fn stream(&mut self, c: usize, height: u64) {
        let mut prev = Block::genesis().hash();
        for num in 1..=height {
            let block = BlockRef::new(Block::new(num, prev, vec![]).with_padding(200));
            prev = block.hash();
            self.inject(c, block);
            self.run_for(Duration::from_millis(200));
        }
    }
    /// Peer `m`'s organization view of channel `c`, in id order.
    pub fn view_of(&self, m: PeerId, c: usize) -> Vec<PeerId> {
        let mut view = self
            .gossip(m.index())
            .membership_on(ChannelId(c as u16))
            .map(|mem| mem.peers().to_vec())
            .unwrap_or_default();
        view.sort_unstable();
        view
    }

    /// Whether every current member of channel `c` sees exactly the other
    /// current members — the convergence predicate of the discovery
    /// protocol.
    pub fn views_converged(&self, c: usize) -> bool {
        self.divergent_views(c).is_empty()
    }

    /// Members of channel `c` whose view does **not** match the ground
    /// truth, with their views — for assertion messages.
    pub fn divergent_views(&self, c: usize) -> Vec<(PeerId, Vec<PeerId>)> {
        let members = self.members(c);
        members
            .iter()
            .filter_map(|m| {
                let mut expected: Vec<PeerId> =
                    members.iter().copied().filter(|p| p != m).collect();
                expected.sort_unstable();
                let got = self.view_of(*m, c);
                (got != expected).then_some((*m, got))
            })
            .collect()
    }

    /// Whether every peer of `group` sees exactly `expected` (minus
    /// itself) on channel `c` — agreement over a subset, e.g. the honest
    /// majority under an eclipse.
    pub fn views_agree_among(&self, c: usize, group: &[PeerId], expected: &[PeerId]) -> bool {
        group.iter().all(|m| {
            let mut want: Vec<PeerId> = expected.iter().copied().filter(|p| p != m).collect();
            want.sort_unstable();
            self.view_of(*m, c) == want
        })
    }

    /// Current leaders of channel `c` among its current members.
    pub fn leaders(&self, c: usize) -> Vec<PeerId> {
        self.members(c)
            .iter()
            .copied()
            .filter(|m| self.gossip(m.index()).is_leader_on(ChannelId(c as u16)))
            .collect()
    }

    /// Polls `done` every [`POLL`] of simulated time (running the
    /// simulation in between) and returns the time elapsed when it first
    /// held, or `None` if it still did not after `limit`.
    pub fn time_until(
        &mut self,
        limit: Duration,
        mut done: impl FnMut(&mut ScenarioNet) -> bool,
    ) -> Option<Duration> {
        let mut elapsed = Duration::ZERO;
        loop {
            if done(self) {
                return Some(elapsed);
            }
            if elapsed >= limit {
                return None;
            }
            self.run_for(POLL);
            elapsed += POLL;
        }
    }

    /// Applies one scenario op; only a failed `Assert` returns an error.
    pub fn apply(&mut self, op: &ScenarioOp) -> Result<(), ScenarioError> {
        match op {
            ScenarioOp::Join { channel, peer } => self.join(*channel, *peer),
            ScenarioOp::Leave { channel, peer } => self.leave(*channel, *peer),
            ScenarioOp::Crash { peer } => self.crash(*peer),
            ScenarioOp::Power { peer, on } => self.power(*peer, *on),
            ScenarioOp::Partition { groups } => self.partition(groups),
            ScenarioOp::Heal => self.heal(),
            ScenarioOp::DropLink { a, b } => self.set_link(*a, *b, false),
            ScenarioOp::SetLoss { loss_milli } => self.set_loss(f64::from(*loss_milli) / 1000.0),
            ScenarioOp::Wait { secs } => self.run_for(Duration::from_secs(*secs)),
            ScenarioOp::Assert(pred) => {
                self.check(pred).map_err(|message| ScenarioError {
                    op_index: None,
                    op: format!("{op:?}"),
                    message,
                })?;
            }
        }
        Ok(())
    }

    /// Runs a whole script, aborting at the first failed `Assert` with
    /// its op index.
    pub fn run_script(&mut self, script: &[ScenarioOp]) -> Result<(), ScenarioError> {
        for (i, op) in script.iter().enumerate() {
            self.apply(op).map_err(|mut e| {
                e.op_index = Some(i);
                e
            })?;
        }
        Ok(())
    }

    /// Checks one invariant predicate against the current state
    /// ([`Predicate::ConvergenceWithin`] advances simulated time).
    pub fn check(&mut self, pred: &Predicate) -> Result<(), String> {
        match pred {
            Predicate::ViewAgreement { channel } => {
                let divergent = self.divergent_views(*channel);
                if divergent.is_empty() {
                    Ok(())
                } else {
                    Err(format!(
                        "views diverged from members {:?}: {divergent:?}",
                        self.members(*channel)
                    ))
                }
            }
            Predicate::ExactlyOneLeader { channel } => {
                if self.members(*channel).is_empty() {
                    return Ok(());
                }
                let leaders = self.leaders(*channel);
                if leaders.len() == 1 {
                    Ok(())
                } else {
                    Err(format!(
                        "want exactly one leader among {:?}, got {leaders:?}",
                        self.members(*channel)
                    ))
                }
            }
            Predicate::NoResurrectionBelowObituary { channel } => {
                let chan = ChannelId(*channel as u16);
                for i in 0..self.sim.protocol().params().peers {
                    let Some(engine) = self.gossip(i).discovery_on(chan) else {
                        continue;
                    };
                    let life = engine.incarnation();
                    for claim in engine.claims() {
                        let floor = self.obituary_floor.get(&(i, chan.0, life, claim.peer.0));
                        if let Some(floor) = floor.filter(|floor| !claim.fresher_than(floor)) {
                            return Err(format!(
                                "peer {i} holds {:?} at (incarnation, seq) ({}, {}), no fresher \
                                 than its own past obituary ({}, {}) — a resurrection below \
                                 the obituary",
                                claim.peer,
                                claim.incarnation,
                                claim.seq,
                                floor.incarnation,
                                floor.seq
                            ));
                        }
                    }
                }
                Ok(())
            }
            Predicate::GapFreeCatchup { channel } => {
                let head = self.head(*channel);
                let chan = ChannelId(*channel as u16);
                for m in self.members(*channel) {
                    let Some(store) = self.gossip(m.index()).store_on(chan) else {
                        return Err(format!("member {m:?} has no store on channel {channel}"));
                    };
                    for num in 1..=head {
                        if !store.has(num) {
                            return Err(format!(
                                "member {m:?} is missing block {num} of {head} — catch-up gap"
                            ));
                        }
                    }
                }
                Ok(())
            }
            Predicate::ConvergenceWithin { channel, secs } => {
                let limit = Duration::from_secs(*secs);
                match self.time_until(limit, |net| net.views_converged(*channel)) {
                    Some(_) => Ok(()),
                    None => Err(format!(
                        "still divergent after {secs}s: {:?}",
                        self.divergent_views(*channel)
                    )),
                }
            }
        }
    }

    /// Ratchets the per-observer obituary floors from every engine's
    /// current dead set.
    fn record_obituary_floors(&mut self) {
        let net = self.sim.protocol();
        for i in 0..net.params().peers {
            for c in 0..self.injected.len() {
                let chan = ChannelId(c as u16);
                let Some(engine) = net.gossip(i).discovery_on(chan) else {
                    continue;
                };
                let life = engine.incarnation();
                for obituary in engine.obituary_iter() {
                    let floor = self
                        .obituary_floor
                        .entry((i, chan.0, life, obituary.peer.0))
                        .or_insert(*obituary);
                    if obituary.fresher_than(floor) {
                        *floor = *obituary;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_gossip::scenario::{random_scenario, ScenarioShape};

    /// `n` peers in the ideal network, fixed simulation seed.
    fn ideal(n: usize, memberships: Vec<Vec<PeerId>>) -> ScenarioNet {
        let cfg = GossipConfig::enhanced_f4().with_quick_discovery();
        ScenarioNet::new(NetworkConfig::ideal(n), memberships, &cfg, 9_000)
    }

    #[test]
    fn partition_preserves_a_configured_loss_rate() {
        // Regression: partition() used to call heal(), silently zeroing
        // the loss rate — `set_loss(0.2); partition(...)` ran lossless.
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut net = ideal(4, vec![members.clone()]);
        net.set_loss(0.2);
        net.partition(&[vec![PeerId(0), PeerId(1)], vec![PeerId(2), PeerId(3)]]);
        assert_eq!(net.loss(), 0.2, "partition must not touch the loss rate");
        net.heal();
        assert_eq!(net.loss(), 0.0, "heal stops loss");
    }

    #[test]
    fn restore_links_is_heal_minus_loss() {
        let members: Vec<PeerId> = (0..3).map(PeerId).collect();
        let mut net = ideal(3, vec![members]);
        net.set_loss(0.1);
        net.set_link(PeerId(0), PeerId(1), false);
        net.restore_links();
        assert_eq!(net.loss(), 0.1, "restore_links leaves loss in place");
    }

    #[test]
    fn identical_scripts_replay_bit_identically() {
        // The determinism contract, end to end: same config, same script
        // → identical views, leaders and byte accounting.
        let script = random_scenario(
            12345,
            &(0..5).map(PeerId).collect::<Vec<_>>(),
            &ScenarioShape::default(),
        );
        let run = || {
            let members: Vec<PeerId> = (0..5).map(PeerId).collect();
            let mut net = ideal(8, vec![members]);
            net.run_script(&script).expect("invariants hold");
            let views: Vec<Vec<PeerId>> = net
                .members(0)
                .to_vec()
                .into_iter()
                .map(|m| net.view_of(m, 0))
                .collect();
            (views, net.leaders(0), net.discovery_wire_bytes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_crash_silences_without_a_leave_and_the_network_reaps_it() {
        let members: Vec<PeerId> = (0..5).map(PeerId).collect();
        let mut net = ideal(5, vec![members]);
        net.run_for(Duration::from_secs(3));
        net.crash(PeerId(4));
        assert!(net.is_crashed(PeerId(4)));
        assert!(
            net.view_of(PeerId(0), 0).contains(&PeerId(4)),
            "a crash is silent: nobody is told"
        );
        net.run_for(Duration::from_secs(15));
        assert!(
            net.views_converged(0),
            "the crashed peer must be reaped: {:?}",
            net.divergent_views(0)
        );
        assert_eq!(net.leaders(0).len(), 1);
    }

    #[test]
    fn a_crashed_peer_reboots_through_join_with_a_new_life() {
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut net = ideal(4, vec![members]);
        net.run_for(Duration::from_secs(3));
        net.crash(PeerId(3));
        net.run_for(Duration::from_secs(15));
        assert!(net.views_converged(0));
        net.join(0, PeerId(3));
        assert!(!net.is_crashed(PeerId(3)), "the join is the reboot");
        net.run_for(Duration::from_secs(15));
        assert!(
            net.views_converged(0),
            "reboot must rejoin cleanly: {:?}",
            net.divergent_views(0)
        );
        net.check(&Predicate::NoResurrectionBelowObituary { channel: 0 })
            .unwrap();

        // A power cycle is a new life in the same channel: while off the
        // peer is reaped, and its reboot seeds its view at (0, 0), below
        // its last life's obituaries (peer 3's first life among them),
        // which are no floor of the next.
        net.power(PeerId(0), false);
        net.run_for(Duration::from_secs(10));
        assert!(net.is_crashed(PeerId(0)) && net.members(0).len() == 4);
        assert!(!net.view_of(PeerId(1), 0).contains(&PeerId(0)));
        net.power(PeerId(0), true);
        for wait in [Duration::from_millis(1), Duration::from_secs(15)] {
            net.run_for(wait);
            net.check(&Predicate::NoResurrectionBelowObituary { channel: 0 })
                .unwrap();
        }
        assert!(net.views_converged(0), "{:?}", net.divergent_views(0));
        net.check(&Predicate::ExactlyOneLeader { channel: 0 })
            .unwrap();
    }

    #[test]
    fn a_crashed_member_of_two_channels_rejoins_only_the_one_it_names() {
        // Regression: a crash took the peer out of every channel's ground
        // truth, but the rejoin un-crashed it wholesale — on the channel
        // the join did not name it was left a live instance nobody
        // expected (and a reboot through `on_node_status` would have
        // re-armed and re-announced it there).
        let both: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut net = ideal(4, vec![both.clone(), both]);
        net.run_for(Duration::from_secs(3));
        net.crash(PeerId(3));
        assert!(net.members(0).len() == 3 && net.members(1).len() == 3);
        net.run_for(Duration::from_secs(15));
        assert!(net.views_converged(0) && net.views_converged(1));

        net.join(0, PeerId(3));
        for _ in 0..30 {
            net.run_for(Duration::from_secs(1));
            for m in 0..3 {
                assert!(
                    !net.view_of(PeerId(m), 1).contains(&PeerId(3)),
                    "peer {m} sees the rebooted peer on the channel it did not rejoin"
                );
            }
        }
        assert!(
            !net.gossip(3).has_channel(ChannelId(1)),
            "no instance there"
        );
        assert!(net.gossip(3).has_channel(ChannelId(0)));
        for c in 0..2 {
            assert!(net.views_converged(c), "{:?}", net.divergent_views(c));
            net.check(&Predicate::ExactlyOneLeader { channel: c })
                .unwrap();
        }
    }

    /// Four members of a five-peer deployment on a static roster: no
    /// discovery protocol, so nothing could tell anyone of a change.
    fn static_roster() -> ScenarioNet {
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let cfg = GossipConfig::enhanced_f4();
        ScenarioNet::new(NetworkConfig::ideal(5), vec![members], &cfg, 9_000)
    }

    #[test]
    #[should_panic(expected = "with_discovery_protocol")]
    fn a_static_deployment_refuses_a_runtime_join() {
        static_roster().join(0, PeerId(4));
    }

    #[test]
    #[should_panic(expected = "with_discovery_protocol")]
    fn a_static_deployment_refuses_a_runtime_leave() {
        static_roster().leave(0, PeerId(3));
    }

    #[test]
    #[should_panic(expected = "with_discovery_protocol")]
    fn a_static_deployment_refuses_a_crash() {
        static_roster().crash(PeerId(3));
    }

    #[test]
    #[should_panic(expected = "with_discovery_protocol")]
    fn a_static_deployment_refuses_scheduled_churn() {
        let mut params = NetParams::new(
            5,
            GossipConfig::enhanced_f4(),
            OrdererConfig::kafka(BatchConfig::paper_dissemination()),
        );
        params.churn.push(crate::net::ChurnEvent {
            at: desim::Time::from_secs(1),
            peer: PeerId(4),
            channel: ChannelId::DEFAULT,
            action: crate::net::ChurnAction::Leave,
        });
        FabricNet::new(params, Vec::new());
    }

    #[test]
    fn a_failed_assert_reports_its_op_index() {
        let members: Vec<PeerId> = (0..4).map(PeerId).collect();
        let mut net = ideal(4, vec![members]);
        // A leave with no settle time: views cannot agree yet.
        let script = vec![
            ScenarioOp::Wait { secs: 2 },
            ScenarioOp::Leave {
                channel: 0,
                peer: PeerId(3),
            },
            ScenarioOp::Assert(Predicate::ViewAgreement { channel: 0 }),
        ];
        let err = net.run_script(&script).expect_err("views still disagree");
        assert_eq!(err.op_index, Some(2));
        assert!(err.to_string().contains("ViewAgreement"), "{err}");
    }
}
