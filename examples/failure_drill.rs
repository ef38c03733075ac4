//! Failure drill: crash the leader mid-run under gossiped discovery (the
//! most senior survivor takes the seat over), crash and reboot a follower,
//! and watch recovery repair the damage.
//!
//! ```text
//! cargo run --release --example failure_drill
//! ```

use fair_gossip::experiments::deployment::Deployment;
use fair_gossip::experiments::dissemination::DisseminationConfig;
use fair_gossip::experiments::net::NetParams;
use fair_gossip::orderer::cutter::BatchConfig;
use fair_gossip::orderer::service::OrdererConfig;
use fair_gossip::sim::{Duration, NetworkConfig, NodeId};
use fair_gossip::workload::schedule::{payload_schedule, PayloadWorkload};

fn main() {
    let peers = 40;
    let mut gossip = DisseminationConfig::fig07_09_enhanced_f4()
        .gossip
        .with_discovery_protocol();
    gossip.membership.alive_interval = Duration::from_secs(1);
    gossip.discovery.anti_entropy_interval = Duration::from_secs(1);
    gossip.membership.alive_timeout = Duration::from_secs(5);

    let params = NetParams::new(
        peers,
        gossip,
        OrdererConfig::kafka(BatchConfig::paper_dissemination()),
    );
    let workload = PayloadWorkload {
        total_txs: 3_000,
        ..PayloadWorkload::default()
    };
    let schedule = payload_schedule(&workload);

    // Sized to the deployment below. No packet loss: the orderer hands each
    // cut block to the leader once, so a block lost on that one link is
    // lost to the whole channel — a defect of the orderer edge, not of the
    // failover this drill shows.
    let network = NetworkConfig::lan(0);

    // The drill is stepped by hand, so the drain window goes unused.
    let mut sim = Deployment::new(params, schedule, &network, 7, Duration::ZERO).start();

    // Let discovery settle and some blocks flow.
    sim.run_until(fair_gossip::sim::Time::from_secs(20));
    let leader_before = sim.protocol().current_leader().expect("a leader stood up");
    println!(
        "t=20s   leader is {leader_before}, height(peer 5) = {}",
        sim.protocol().gossip(5).height()
    );

    // Crash the leader and a follower.
    sim.with_ctx(|_, ctx| {
        ctx.set_node_status_after(Duration::ZERO, NodeId(leader_before.0), false);
        ctx.set_node_status_after(Duration::ZERO, NodeId(17), false);
    });
    println!("t=20s   crashed the leader ({leader_before}) and peer17");

    sim.run_until(fair_gossip::sim::Time::from_secs(40));
    let leader_after = sim.protocol().current_leader().expect("someone took over");
    println!("t=40s   new leader is {leader_after}, blocks keep flowing");
    assert_ne!(leader_after, leader_before);

    // Reboot the follower; recovery must catch it up from its peers.
    sim.with_ctx(|_, ctx| ctx.set_node_status_after(Duration::ZERO, NodeId(17), true));
    println!("t=40s   rebooted peer17 (it lost nothing on disk, but missed 20 s of blocks)");

    sim.run_until(fair_gossip::sim::Time::from_secs(120));
    let net = sim.protocol();
    let reference = net.gossip(5).height();
    let rebooted = net.gossip(17).height();
    println!("t=120s  height(peer 5) = {reference}, height(peer17) = {rebooted}");
    assert!(
        reference > 20,
        "the network made progress through the failures"
    );
    assert!(
        reference - rebooted <= 1,
        "recovery must have caught the rebooted peer up (gap {})",
        reference - rebooted
    );
    println!("\nleader failover and crash recovery both worked ✓");
}
