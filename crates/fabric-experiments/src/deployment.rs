//! Standing a deployment up and running it out — the one place that
//! knows how.
//!
//! Every number this crate reports is three steps: assemble a
//! [`FabricNet`], drain it, read results off. The first two are here. A
//! runner's configuration produces a [`Deployment`] (`cfg.deployment()`)
//! and its `run_*` is `cfg.deployment().run()` plus a read-off of its
//! own; every runner takes this path. A caller that needs the
//! phases in between — set-up timed apart from the event loop, the
//! protocol wrapped for spans — takes the public fields and drives the
//! same stages itself: `Simulation::new(wrap(d.net), d.network, d.seed)`,
//! [`FabricNet::start`], then `sim.run_until(d.drain_until + d.idle_tail)`.
//! One that injects faults or checks invariants on the way runs it
//! through [`ScenarioNet::over`](crate::scenario::ScenarioNet::over).
//!
//! The fields are what a configuration *produced*, not options a run
//! reads: nothing branches on them.

use desim::{Duration, NetworkConfig, Simulation, Time};
use fabric_workload::schedule::ScheduledInvocation;

use crate::net::{FabricNet, NetParams};

/// An assembled deployment and how to drive it.
#[derive(Debug)]
pub struct Deployment {
    /// The deployment, built and not yet started.
    pub net: FabricNet,
    /// The physical network, sized to the deployment.
    pub network: NetworkConfig,
    /// The simulation seed.
    pub seed: u64,
    /// The simulated instant up to which the run drains: the schedule's
    /// last issue plus the runner's drain window.
    pub drain_until: Time,
    /// Simulated time run on top of that (the idle tail of the bandwidth
    /// figures; zero unless the runner sets it).
    pub idle_tail: Duration,
}

impl Deployment {
    /// Builds `params` over `schedule` in a copy of `network_template`
    /// resized to [`FabricNet::node_count`], to be drained until `drain`
    /// after the schedule's last issue.
    pub fn new(
        params: NetParams,
        schedule: Vec<ScheduledInvocation>,
        network_template: &NetworkConfig,
        seed: u64,
        drain: Duration,
    ) -> Self {
        let mut network = network_template.clone();
        network.nodes = FabricNet::node_count(&params);
        let drain_until = schedule.last().map_or(Time::ZERO, |s| s.at) + drain;
        Deployment {
            net: FabricNet::new(params, schedule),
            network,
            seed,
            drain_until,
            idle_tail: Duration::ZERO,
        }
    }

    /// The simulation with every peer's timers, the client's first
    /// submission and the churn plan armed, and nothing run yet.
    pub fn start(self) -> Simulation<FabricNet> {
        let mut sim = Simulation::new(self.net, self.network, self.seed);
        sim.with_ctx(|net, ctx| net.start(ctx));
        sim
    }

    /// [`Deployment::start`], then the drain and the idle tail.
    pub fn run(self) -> Simulation<FabricNet> {
        let end = self.drain_until + self.idle_tail;
        let mut sim = self.start();
        sim.run_until(end);
        sim
    }
}
