//! Beyond the paper (which assumes crash faults only): the Byzantine
//! catalog of [`fabric_gossip::scenario`], measured as one table of
//! attacker families.
//!
//! Each row of [`FAMILIES`] names a family, its class, the guarantee it
//! asserts, the metric it measures, and one `fn(n, f) -> Point` that runs
//! it with `f` attackers among `n` sitting members. [`run_adversarial`]
//! sweeps every row over `N ∈ {6, 9}` and `f = 0 ..= N − 3`: `f = 0` is
//! the attacker-free baseline every point's inflation is taken over, and
//! the cap leaves a victim and an honest rump. Attackers are the top `f`
//! ids; victims, targets, the leaver and the honest seed sit below
//! `N − f`, a runtime joiner is id `N`. A point holds when every assert of
//! its row held; a family's `f*` is the largest `f` up to which every
//! point held.
//!
//! | family               | class         | guarantee (asserted at every f)                   | metric                  |
//! |----------------------|---------------|---------------------------------------------------|-------------------------|
//! | stale-replay         | membership    | a reaped peer stays dead; views and leader settle | alive-msg bytes         |
//! | selective-forwarding | membership    | a joiner converges on redundancy, no faster       | join convergence (s)    |
//! | flood                | membership    | views agree with one leader                       | discovery bytes         |
//! | eclipse              | membership    | honest views clean; one honest seed escapes it    | time to escape (s)      |
//! | obituary-forgery     | membership    | the leader keeps its seat, views re-admit it fast | disruption (s)          |
//! | withholder           | dissemination | gap-free catch-up within bound, no faster         | time to completeness (s)|
//! | equivocator          | dissemination | doctored payloads rejected; completeness 1.0      | rejected payloads       |
//!
//! Adding a family is adding a row. Every run is a [`ScenarioNet`] — a
//! `desim` simulation of a [`crate::net::FabricNet`] — in [`world`]: the
//! LAN model of all four benchmark workloads (latency, bandwidth,
//! processing delay, ledgers). Nothing is configurable and everything is
//! deterministic (the [`crate::scenario`] determinism contract), so the
//! report is byte-identical from run to run; `adversarial_report` emits it
//! and fails when a family's `f*` falls below the sweep's cap, or below
//! its entry in [`FLOORS`] for the families measured under the cap.

use std::fmt::Write as _;

use desim::{Duration, NetworkConfig};
use fabric_gossip::config::GossipConfig;
use fabric_gossip::scenario::{
    Byzantine, Eclipser, Equivocator, Flooder, ObituaryForger, Predicate, ScenarioOp,
    SelectiveForwarder, StaleReplayer, Withholder,
};
use fabric_types::block::Block;
use fabric_types::ids::{ChannelId, PeerId};

use crate::net::FabricNet;
use crate::scenario::{ScenarioNet, POLL};

/// The simulation seed every run of the report uses.
pub const SEED: u64 = 7;

/// Name of the network model [`world`] builds, as the report prints it.
pub const WORLD: &str = "lan";

/// The network the report is measured in, over `peers` peers: the model
/// of the benchmark of record, so a robustness number and a performance
/// number describe the same world.
pub fn world(peers: usize) -> NetworkConfig {
    NetworkConfig::lan(peers)
}

/// The measured tolerance bounds `(family, N, f*)` of the swept
/// `(family, N)` that do not hold to the sweep's cap, `N − 3`; every other
/// one must reach the cap. Each is a finding (see the failing point's
/// detail): an attacked run that beat the attacker-free baseline's time
/// (selective forwarding), or an honest sitting member still missing a
/// block ten seconds after the last one (withholder: a recovery round asks
/// a random one of the most advanced advertisers, withholders advertise
/// honestly, and nothing remembers a target that never served, so a
/// lagging peer can draw withholders round after round).
pub const FLOORS: &[(&str, u32, u32)] = &[
    ("selective-forwarding", 9, 3),
    ("withholder", 6, 2),
    ("withholder", 9, 3),
];

/// The deployment sizes `N` every family is swept at.
const DEPLOYMENTS: [u32; 2] = [6, 9];

/// One attacker family: a row of [`FAMILIES`].
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// Stable name (`"stale-replay"`, ...).
    pub name: &'static str,
    /// Attack class: `"membership"` or `"dissemination"`.
    pub class: &'static str,
    /// The guarantee every point asserts.
    pub guarantee: &'static str,
    /// Name of the measured metric.
    pub metric: &'static str,
    /// Unit of the measured metric.
    pub unit: &'static str,
    /// What the attack must cost at every `f ≥ 1`, against the
    /// attacker-free baseline's metric (`f = 0`).
    pub cost: Cost,
    /// Runs the family with `f` attackers among `n` sitting members.
    pub run: fn(u32, u32) -> Point,
}

/// The cost assert of a [`Family`].
#[derive(Debug, Clone, Copy)]
pub enum Cost {
    /// Nothing is asserted about the metric.
    Free,
    /// The metric exceeds this multiple of the baseline's.
    Above(f64),
    /// The metric is at least the baseline's: the attack cannot help.
    NoBetter,
}

/// One run of a family: what `f` attackers did.
#[derive(Debug, Clone)]
pub struct Point {
    /// The attacker count.
    pub f: u32,
    /// Whether every assert of the family held.
    pub held: bool,
    /// The family's metric.
    pub metric: f64,
    /// Which peer ran which behavior, each under [`Byzantine::name`].
    pub roster: Vec<(PeerId, &'static str)>,
    /// What was observed, or which assert fell.
    pub detail: String,
}

/// One family swept over `f` at one deployment size.
#[derive(Debug, Clone)]
pub struct FamilyReport {
    /// The row that was swept.
    pub family: Family,
    /// Sitting members per channel.
    pub deployment: u32,
    /// One point per `f = 0 ..= deployment − 3`, ascending.
    pub points: Vec<Point>,
}

impl FamilyReport {
    /// The measured tolerance bound: the largest `f` such that every
    /// point up to and including it held; `None` when even the
    /// attacker-free baseline failed.
    pub fn f_star(&self) -> Option<u32> {
        self.points
            .iter()
            .take_while(|p| p.held)
            .last()
            .map(|p| p.f)
    }

    /// The smallest swept `f` at which the guarantee fell, if any.
    pub fn first_violation(&self) -> Option<u32> {
        self.points.iter().find(|p| !p.held).map(|p| p.f)
    }

    /// `point`'s metric over the `f = 0` baseline's. Always finite, so it
    /// can live in the JSON: over a zero baseline it is the metric itself,
    /// at least 1.0 (1.0 when the attack added nothing either).
    pub fn inflation(&self, point: &Point) -> f64 {
        let baseline = self.points[0].metric;
        if baseline > 0.0 {
            point.metric / baseline
        } else if point.metric == 0.0 {
            1.0
        } else {
            point.metric.max(1.0)
        }
    }
}

/// The machine-readable result of the sweep.
#[derive(Debug, Clone)]
pub struct AdversarialReport {
    /// The network model every point was simulated in ([`WORLD`]).
    pub network: &'static str,
    /// The simulation seed ([`SEED`]): with the network model and each
    /// point's roster, the file alone reproduces the sweep.
    pub seed: u64,
    /// The seed of the generator the attackers draw from
    /// ([`FabricNet::ATTACK_SEED`]), apart from the simulation's.
    pub attack_seed: u64,
    /// One entry per (family, deployment), families in table order.
    pub families: Vec<FamilyReport>,
}

impl AdversarialReport {
    /// The measured `f*` of one family at one deployment size.
    pub fn f_star_of(&self, family: &str, deployment: u32) -> Option<u32> {
        self.families
            .iter()
            .find(|r| r.family.name == family && r.deployment == deployment)
            .and_then(FamilyReport::f_star)
    }

    /// Whether every swept `(family, N)` reaches its floor: its entry in
    /// `below_cap` (`(family, N, f*)`, as [`FLOORS`]) or else the cap,
    /// `N − 3`. An entry naming nothing swept fails too.
    pub fn meets_floors(&self, below_cap: &[(&str, u32, u32)]) -> bool {
        below_cap
            .iter()
            .all(|(family, n, _)| self.f_star_of(family, *n).is_some())
            && self.families.iter().all(|r| {
                let floor = below_cap
                    .iter()
                    .find(|(family, n, _)| *family == r.family.name && *n == r.deployment)
                    .map_or(r.deployment - 3, |&(_, _, floor)| floor);
                r.f_star() >= Some(floor)
            })
    }

    /// Renders the report as JSON, one family entry per line.
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"network\": \"{}\",", escape(self.network));
        let _ = writeln!(json, "  \"seed\": {},", self.seed);
        let _ = writeln!(json, "  \"attack_seed\": {},", self.attack_seed);
        json.push_str("  \"families\": [\n");
        for (i, r) in self.families.iter().enumerate() {
            let points = r
                .points
                .iter()
                .map(|p| {
                    let roster = p
                        .roster
                        .iter()
                        .map(|(peer, behavior)| {
                            format!(
                                "{{\"peer\": {}, \"behavior\": \"{}\"}}",
                                peer.0,
                                escape(behavior)
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(", ");
                    format!(
                        "{{\"f\": {}, \"held\": {}, \"metric\": {:.3}, \"inflation\": {:.3}, \
                         \"roster\": [{roster}], \"detail\": \"{}\"}}",
                        p.f,
                        p.held,
                        p.metric,
                        r.inflation(p),
                        escape(&p.detail)
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                json,
                "    {{\"family\": \"{}\", \"class\": \"{}\", \"deployment\": {}, \
                 \"guarantee\": \"{}\", \"metric\": \"{}\", \"unit\": \"{}\", \"f_star\": {}, \
                 \"first_violation\": {}, \"points\": [{points}]}}{}",
                escape(r.family.name),
                escape(r.family.class),
                r.deployment,
                escape(r.family.guarantee),
                escape(r.family.metric),
                escape(r.family.unit),
                json_opt(r.f_star()),
                json_opt(r.first_violation()),
                if i + 1 < self.families.len() { "," } else { "" }
            );
        }
        json.push_str("  ]\n}\n");
        json
    }
}

/// A JSON number, or `null`.
fn json_opt(v: Option<u32>) -> String {
    v.map_or_else(|| "null".into(), |v| v.to_string())
}

/// Escapes `s` for a JSON string: quote, backslash and every control
/// character below U+0020 (short forms where JSON has one, `\uXXXX`
/// otherwise).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Runs every family at every deployment size.
pub fn run_adversarial() -> AdversarialReport {
    AdversarialReport {
        network: WORLD,
        seed: SEED,
        attack_seed: FabricNet::ATTACK_SEED,
        families: FAMILIES
            .iter()
            .flat_map(|family| DEPLOYMENTS.iter().map(|&n| family.sweep(n)))
            .collect(),
    }
}

impl Family {
    /// Runs this family at `f = 0 ..= n − 3` in a deployment of `n` and
    /// holds every `f ≥ 1` point to [`Family::cost`].
    fn sweep(&self, n: u32) -> FamilyReport {
        let mut points: Vec<Point> = (0..=n - 3).map(|f| (self.run)(n, f)).collect();
        let baseline = points[0].metric;
        for p in points.iter_mut().skip(1) {
            let shortfall = match self.cost {
                Cost::Free => None,
                Cost::Above(factor) => (p.metric <= factor * baseline)
                    .then(|| format!("is not above {factor} x the baseline's {baseline:.3}")),
                Cost::NoBetter => {
                    (p.metric < baseline).then(|| format!("beat the baseline's {baseline:.3}"))
                }
            };
            if let Some(shortfall) = shortfall {
                p.held = false;
                let _ = write!(p.detail, "; {} {shortfall}", self.metric);
            }
        }
        FamilyReport {
            family: *self,
            deployment: n,
            points,
        }
    }
}

/// Text rendering of the report.
pub fn render_adversarial(report: &AdversarialReport) -> String {
    let mut out = format!(
        "Adversarial sweep — {} network, seed {}\n",
        report.network, report.seed
    );
    for r in &report.families {
        let f = r.family;
        let _ = writeln!(
            out,
            "  {} ({}) at N={}: f* = {}{} — {}",
            f.name,
            f.class,
            r.deployment,
            r.f_star().map_or_else(|| "none".into(), |f| f.to_string()),
            match r.first_violation() {
                Some(v) => format!(" (first violation at f={v})"),
                None => String::new(),
            },
            f.guarantee
        );
        for p in &r.points {
            let _ = writeln!(
                out,
                "    f={}: [{}] {} = {:.2} {} ({:.2}x) — {}",
                p.f,
                if p.held { "ok" } else { "FAIL" },
                f.metric,
                p.metric,
                f.unit,
                r.inflation(p),
                p.detail
            );
        }
    }
    out
}

/// The attacker families, in report order.
pub const FAMILIES: [Family; 7] = [
    Family {
        name: "stale-replay",
        class: "membership",
        guarantee: "no-resurrection-below-obituary",
        metric: "alive_msg_bytes",
        unit: "bytes",
        cost: Cost::Above(1.0),
        run: stale_replay,
    },
    Family {
        name: "selective-forwarding",
        class: "membership",
        guarantee: "joiner-converges-on-redundancy",
        metric: "join_convergence",
        unit: "secs",
        cost: Cost::NoBetter,
        run: selective_forwarding,
    },
    Family {
        name: "flood",
        class: "membership",
        guarantee: "views-and-leadership-hold",
        metric: "discovery_bytes",
        unit: "bytes",
        cost: Cost::Above(1.5),
        run: flood,
    },
    Family {
        name: "eclipse",
        class: "membership",
        guarantee: "honest-views-clean-and-one-honest-seed-escapes",
        metric: "time_to_escape",
        unit: "secs",
        cost: Cost::Free,
        run: eclipse,
    },
    Family {
        name: "obituary-forgery",
        class: "membership",
        guarantee: "leader-keeps-its-seat-and-views-re-admit-it-within-bound",
        metric: "disruption",
        unit: "secs",
        cost: Cost::Free,
        run: obituary_forgery,
    },
    Family {
        name: "withholder",
        class: "dissemination",
        guarantee: "gap-free-catchup-within-bound",
        metric: "time_to_completeness",
        unit: "secs",
        cost: Cost::NoBetter,
        run: withholder,
    },
    Family {
        name: "equivocator",
        class: "dissemination",
        guarantee: "payloads-hash-rejected-completeness-holds",
        metric: "rejected_payloads",
        unit: "count",
        cost: Cost::Free,
        run: equivocator,
    },
];

/// The discovery protocol with timers tightened so convergence happens in
/// seconds of simulated time (the shape the discovery suite uses).
fn gossip() -> GossipConfig {
    GossipConfig::enhanced_f4().with_quick_discovery()
}

/// The honest seed a runtime joiner may bootstrap through, and the
/// seated leader the obituary forgers aim at.
const ANCHOR: PeerId = PeerId(0);
/// The peers the selective forwarders starve.
const TARGETS: [PeerId; 2] = [PeerId(0), PeerId(1)];
/// The member that leaves under the stale replayers.
const LEAVER: PeerId = PeerId(2);

/// Members `0..n` on channel 0 of `peers` peers in [`world`], seeded with
/// [`SEED`].
fn channel(n: u32, peers: u32, gossip: &GossipConfig) -> ScenarioNet {
    let members = vec![(0..n).map(PeerId).collect()];
    ScenarioNet::new(world(peers as usize), members, gossip, SEED)
}

/// The compromised set: the `f` highest ids of an `n`-member channel.
fn top_ids(n: u32, f: u32) -> Vec<PeerId> {
    (n - f..n).map(PeerId).collect()
}

/// Attaches `make(rank)` to the `rank`-th compromised id, lowest first,
/// and returns the roster.
fn attack(
    net: &mut ScenarioNet,
    n: u32,
    f: u32,
    mut make: impl FnMut(usize) -> Box<dyn Byzantine>,
) -> Vec<(PeerId, &'static str)> {
    top_ids(n, f)
        .into_iter()
        .enumerate()
        .map(|(rank, peer)| {
            let behavior = make(rank);
            let name = behavior.name();
            net.set_byzantine(peer, behavior);
            (peer, name)
        })
        .collect()
}

/// A measured time in seconds, or `limit`'s when it never came.
fn secs(time: Option<Duration>, limit: Duration) -> f64 {
    time.unwrap_or(limit).as_secs_f64()
}

/// A measured time for a detail line.
fn shown(time: Option<Duration>) -> String {
    time.map_or_else(|| "never".into(), |t| t.to_string())
}

/// The three core invariants every attacked network must settle to.
fn core_asserts() -> [ScenarioOp; 3] {
    [
        ScenarioOp::Assert(Predicate::ViewAgreement { channel: 0 }),
        ScenarioOp::Assert(Predicate::ExactlyOneLeader { channel: 0 }),
        ScenarioOp::Assert(Predicate::NoResurrectionBelowObituary { channel: 0 }),
    ]
}

/// `f` [`StaleReplayer`]s replay the stalest claims they heard while a
/// member leaves and is reaped: it must stay dead, views and leadership
/// must settle, and the spam shows in the alive-msg bytes.
fn stale_replay(n: u32, f: u32) -> Point {
    let mut net = channel(n, n, &gossip());
    let roster = attack(&mut net, n, f, |_| Box::new(StaleReplayer::new(2)));
    let mut script = vec![
        ScenarioOp::Wait { secs: 3 },
        ScenarioOp::Leave {
            channel: 0,
            peer: LEAVER,
        },
        ScenarioOp::Wait { secs: 20 },
    ];
    script.extend(core_asserts());
    let res = net.run_script(&script);
    Point {
        f,
        held: res.is_ok(),
        metric: net.wire_bytes_of_kind("alive-msg") as f64,
        roster,
        detail: res.map_or_else(
            |e| e.to_string(),
            |()| "the reaped peer stayed dead; views and leader settled".into(),
        ),
    }
}

/// `f` [`SelectiveForwarder`]s drop anti-entropy toward two targets; a
/// runtime joiner must still converge, with one leader, through the
/// redundant honest paths.
fn selective_forwarding(n: u32, f: u32) -> Point {
    const LIMIT: Duration = Duration::from_secs(30);
    let mut net = channel(n, n + 1, &gossip());
    let roster = attack(&mut net, n, f, |_| {
        Box::new(SelectiveForwarder::new(TARGETS.to_vec()))
    });
    net.run_for(Duration::from_secs(3));
    net.join(0, PeerId(n));
    let converged = net.time_until(LIMIT, |net| net.views_converged(0));
    let leaders = net.leaders(0);
    Point {
        f,
        held: converged.is_some() && leaders.len() == 1,
        metric: secs(converged, LIMIT),
        roster,
        detail: format!(
            "joiner's views converged after {}, leaders {leaders:?}",
            shown(converged)
        ),
    }
}

/// `f` [`Flooder`]s amplify their discovery traffic six-fold; the spam
/// is protocol-valid, so views, leadership and the obituary floor must
/// hold while the discovery byte bill grows.
fn flood(n: u32, f: u32) -> Point {
    let mut net = channel(n, n, &gossip());
    let roster = attack(&mut net, n, f, |_| Box::new(Flooder::new(6)));
    let mut script = vec![ScenarioOp::Wait { secs: 30 }];
    script.extend(core_asserts());
    let res = net.run_script(&script);
    Point {
        f,
        held: res.is_ok(),
        metric: net.discovery_wire_bytes() as f64,
        roster,
        detail: res.map_or_else(
            |e| e.to_string(),
            |()| "flooded views still agree with one leader".into(),
        ),
    }
}

/// `f` [`Eclipser`]s against runtime joiner `n`. Bootstrapping through
/// the attackers alone, the victim sees only them and never leaks into an
/// honest view; with the honest [`ANCHOR`] among its seeds it must learn
/// every honest member (the escape, in measured and non-zero time: the
/// victim knows the anchor before it has heard anything) and, with the
/// attackers cut off, converge to one leader.
fn eclipse(n: u32, f: u32) -> Point {
    const LIMIT: Duration = Duration::from_secs(60);
    const BOUND: Duration = Duration::from_secs(30);
    let victim = PeerId(n);
    let members: Vec<PeerId> = (0..n).map(PeerId).collect();
    let attackers = top_ids(n, f);
    let honest = &members[..(n - f) as usize];

    let mut eclipsed = Vec::new();
    let mut clean = true;
    if f > 0 {
        let mut net = channel(n, n + 1, &gossip());
        net.run_for(Duration::from_secs(3));
        attack(&mut net, n, f, |_| Box::new(Eclipser::new(victim)));
        net.join_via(0, victim, &attackers);
        net.run_for(Duration::from_secs(20));
        eclipsed = net.view_of(victim, 0);
        clean = eclipsed == attackers && net.views_agree_among(0, honest, &members);
    }

    let mut net = channel(n, n + 1, &gossip());
    net.run_for(Duration::from_secs(3));
    let roster = attack(&mut net, n, f, |_| Box::new(Eclipser::new(victim)));
    let mut seeds = attackers.clone();
    seeds.push(ANCHOR);
    net.join_via(0, victim, &seeds);
    let escape = net.time_until(LIMIT, |net| {
        let view = net.view_of(victim, 0);
        honest.iter().all(|h| view.contains(h))
    });
    for peer in &attackers {
        net.clear_byzantine(*peer);
    }
    let recovered = net
        .time_until(Duration::from_secs(40), |net| net.views_converged(0))
        .is_some()
        && net.leaders(0).len() == 1;
    Point {
        f,
        held: clean && escape.is_some_and(|t| !t.is_zero() && t <= BOUND) && recovered,
        metric: secs(escape, LIMIT),
        roster,
        detail: format!(
            "eclipsed victim sees {eclipsed:?}, honest views clean: {clean}; escaped through \
             the anchor after {}; recovered: {recovered}",
            shown(escape)
        ),
    }
}

/// `f` [`ObituaryForger`]s forge the seated leader's ([`ANCHOR`]'s)
/// obituary at the freshest claim of it they have wiretapped, two shots
/// each. A forgery is a claim like any other: it must land (some honest
/// view reaps the leader), yet the leader must keep its seat at every
/// poll, and no honest view may lack it for longer than one alive interval
/// plus one anti-entropy interval at a stretch — the leader's next
/// heartbeat reaches `fout` peers, the rest hear it through one exchange.
/// Afterwards the channel must settle on one leader with no resurrection
/// below an obituary, by `(incarnation, seq)`. The metric is the total
/// time some honest view lacked the leader.
fn obituary_forgery(n: u32, f: u32) -> Point {
    const HORIZON: Duration = Duration::from_secs(20);
    let gossip = gossip();
    let mut net = channel(n, n, &gossip);
    net.run_for(Duration::from_secs(5));
    let warm = net.leaders(0) == [ANCHOR];
    let roster = attack(&mut net, n, f, |_| Box::new(ObituaryForger::new(ANCHOR, 2)));
    // Per peer, how long its view has lacked the leader so far.
    let mut stretch = vec![Duration::ZERO; n as usize];
    let (mut seated, mut disrupted, mut longest) = (true, Duration::ZERO, Duration::ZERO);
    let mut elapsed = Duration::ZERO;
    while elapsed < HORIZON {
        net.run_for(POLL);
        elapsed += POLL;
        seated &= net.gossip(ANCHOR.index()).is_leader_on(ChannelId(0));
        let mut lacking = false;
        for m in (1..n - f).map(PeerId) {
            let absent = !net.view_of(m, 0).contains(&ANCHOR);
            let run = &mut stretch[m.index()];
            *run = if absent { *run + POLL } else { Duration::ZERO };
            longest = longest.max(*run);
            lacking |= absent;
        }
        if lacking {
            disrupted += POLL;
        }
    }
    let mut script = vec![ScenarioOp::Wait { secs: 5 }];
    script.extend(core_asserts());
    let settled = net.run_script(&script);
    let bound = gossip.membership.alive_interval + gossip.discovery.anti_entropy_interval;
    let landed = f == 0 || !disrupted.is_zero();
    Point {
        f,
        held: warm && landed && seated && longest <= bound && settled.is_ok(),
        metric: disrupted.as_secs_f64(),
        roster,
        detail: format!(
            "leader seated throughout: {seated}, longest absence from a view {longest}; {}",
            settled.map_or_else(
                |e| e.to_string(),
                |()| "one leader, views agree, no resurrection".into()
            )
        ),
    }
}

/// Blocks the dissemination families stream before the late join.
const HEIGHT: u64 = 6;
/// How long [`catch_up`] waits for the joiner.
const CATCH_UP_LIMIT: Duration = Duration::from_secs(45);

/// What [`catch_up`] left behind.
struct CatchUp {
    net: ScenarioNet,
    roster: Vec<(PeerId, &'static str)>,
    /// Whether the sitting members held every block before the join.
    sitting: bool,
    /// Time from the join until the whole channel was gap-free.
    caught: Option<Duration>,
}

/// The dissemination families' run, with every payload path armed (push,
/// pull and recovery, catch-up timers tightened): stream [`HEIGHT`]
/// blocks into an `n`-member channel with `make`'s `f` attackers
/// attached, check the sitting members hold them all, then time a late
/// joiner until the *whole channel*, joiner included, is gap-free —
/// completeness 1.0, the paper's dissemination guarantee.
fn catch_up(n: u32, f: u32, make: impl FnMut(usize) -> Box<dyn Byzantine>) -> CatchUp {
    let mut gossip = gossip();
    gossip.recovery.interval = Duration::from_secs(2);
    gossip.recovery.state_info_interval = Duration::from_secs(1);
    gossip.pull = GossipConfig::original_fabric().pull;
    let joiner = PeerId(n);
    let mut net = channel(n, n + 1, &gossip);
    let roster = attack(&mut net, n, f, make);
    net.stream(0, HEIGHT);
    net.run_for(Duration::from_secs(10));
    let sitting = net.check(&Predicate::GapFreeCatchup { channel: 0 }).is_ok();
    net.join(0, joiner);
    let caught = net.time_until(CATCH_UP_LIMIT, |net| {
        net.gossip(joiner.index()).height_on(ChannelId(0)) > HEIGHT
            && net.check(&Predicate::GapFreeCatchup { channel: 0 }).is_ok()
    });
    CatchUp {
        net,
        roster,
        sitting,
        caught,
    }
}

/// `f` [`Withholder`]s advertise blocks but never serve a payload: the
/// sitting members and a late joiner must still reach completeness 1.0
/// through honest redundancy.
fn withholder(n: u32, f: u32) -> Point {
    let run = catch_up(n, f, |_| Box::new(Withholder::new(Vec::new())));
    Point {
        f,
        held: run.sitting && run.caught.is_some(),
        metric: secs(run.caught, CATCH_UP_LIMIT),
        roster: run.roster,
        detail: format!(
            "sitting members gap-free: {}, channel gap-free {} after the join",
            run.sitting,
            shown(run.caught)
        ),
    }
}

/// `f` [`Equivocator`]s serve doctored payloads (genuine header, tampered
/// transactions) to even ids: the doctored copies must bounce on the hash
/// check (`invalid_payloads`), every stored or committed block must be
/// intact, completeness must reach 1.0, and views and every ledger
/// (genesis + [`HEIGHT`]) must settle. The metric is every rejected
/// payload, conflicting headers included.
fn equivocator(n: u32, f: u32) -> Point {
    let CatchUp {
        mut net,
        roster,
        sitting,
        caught,
    } = catch_up(n, f, |_| Box::new(Equivocator));
    let peers = n as usize + 1;
    let settled = net
        .time_until(Duration::from_secs(30), |net| {
            net.views_converged(0)
                && (0..peers).all(|i| {
                    net.ledger(i, 0)
                        .is_some_and(|l| l.blocks().len() as u64 == HEIGHT + 1)
                })
        })
        .is_some();
    let (mut invalid, mut rejected) = (0u64, 0u64);
    // The oracle re-hashes (`Block::data_intact`) instead of reading the
    // verdict sealed in the handle it is auditing.
    let mut intact = true;
    for i in 0..peers {
        if let Some(stats) = net.gossip(i).stats_on(ChannelId(0)) {
            invalid += stats.invalid_payloads;
            rejected += stats.invalid_payloads + stats.equivocations_rejected;
        }
        for num in 1..=HEIGHT {
            if let Some(block) = net.gossip(i).store().get(num) {
                intact &= Block::data_intact(block);
            }
        }
        if let Some(ledger) = net.ledger(i, 0) {
            intact &= ledger.blocks().iter().all(|b| Block::data_intact(b));
        }
    }
    Point {
        f,
        held: sitting && caught.is_some() && settled && intact && (f == 0 || invalid > 0),
        metric: rejected as f64,
        roster,
        detail: format!(
            "sitting members gap-free: {sitting}, channel gap-free {} after the join, views \
             and ledgers settled: {settled}, intact: {intact}, rejected payloads: {rejected} \
             ({invalid} on the hash check)",
            shown(caught)
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sweep_covers_every_family_holds_its_floors_and_is_byte_identical() {
        let report = run_adversarial();
        assert_eq!(report.families.len(), FAMILIES.len() * DEPLOYMENTS.len());
        for r in &report.families {
            let fs: Vec<u32> = r.points.iter().map(|p| p.f).collect();
            assert_eq!(fs, (0..=r.deployment - 3).collect::<Vec<_>>());
            assert!(r.points[0].roster.is_empty(), "f = 0 is attacker-free");
            assert!(
                r.points[0].held,
                "{}: {}",
                r.family.name, r.points[0].detail
            );
            for p in &r.points {
                assert_eq!(p.roster.len(), p.f as usize, "{}", r.family.name);
            }
        }
        let forgery = &report.families[8];
        assert_eq!(
            (forgery.family.name, forgery.deployment),
            ("obituary-forgery", 6)
        );
        assert_eq!(
            forgery.points[2].roster,
            [
                (PeerId(4), "obituary-forger"),
                (PeerId(5), "obituary-forger")
            ],
            "rosters name each attacker by its behavior, lowest id first"
        );
        assert!(
            report.meets_floors(FLOORS),
            "{}",
            render_adversarial(&report)
        );
        for (family, n, floor) in FLOORS {
            assert!(
                floor < &(n - 3),
                "{family} at N={n}: a floor at the cap is implied"
            );
        }
        assert!(!report.meets_floors(&[]), "the findings sit below the cap");
        for extra in [("eclipse", 6, 4), ("no-such-family", 6, 0)] {
            let floors = [FLOORS, &[extra]].concat();
            assert!(!report.meets_floors(&floors), "{extra:?}");
        }
        let json = report.to_json();
        assert!(
            !json.contains(": inf") && !json.contains(": NaN"),
            "non-finite values poison the artifact"
        );
        assert_eq!(json, run_adversarial().to_json(), "two runs, one report");
    }

    #[test]
    fn every_control_character_is_escaped() {
        for c in (0u32..0x20).filter_map(char::from_u32) {
            let escaped = escape(&c.to_string());
            assert!(escaped.starts_with('\\'), "{c:?} -> {escaped}");
            assert!(escaped.chars().all(|e| e >= ' '), "{c:?} -> {escaped}");
        }
        assert_eq!(escape("\u{1}\t\"\\é"), "\\u0001\\t\\\"\\\\é");
        assert_eq!(escape("\u{1f}\u{8}\u{c}\r\n"), "\\u001f\\b\\f\\r\\n");
    }

    #[test]
    fn inflation_is_finite_even_on_a_zero_baseline() {
        let point = |f, metric| Point {
            f,
            held: true,
            metric,
            roster: Vec::new(),
            detail: String::new(),
        };
        let report = |metrics: &[f64]| FamilyReport {
            family: FAMILIES[4],
            deployment: 6,
            points: metrics
                .iter()
                .enumerate()
                .map(|(f, m)| point(f as u32, *m))
                .collect(),
        };
        let zero = report(&[0.0, 0.0, 8.5, 0.25]);
        let ratios: Vec<f64> = zero.points.iter().map(|p| zero.inflation(p)).collect();
        assert_eq!(ratios, [1.0, 1.0, 8.5, 1.0]);
        let some = report(&[2.0, 3.0]);
        assert_eq!(some.inflation(&some.points[1]), 1.5);
    }
}
