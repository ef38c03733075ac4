//! Failure drill: power the leader off mid-run under gossiped discovery
//! (the most senior survivor takes the seat over and seeks the orderer
//! from its height), power a follower off and on again, and watch
//! recovery repair the damage — at 1 % packet loss.
//!
//! ```text
//! cargo run --release --example failure_drill
//! ```

use fair_gossip::experiments::deployment::Deployment;
use fair_gossip::experiments::dissemination::DisseminationConfig;
use fair_gossip::experiments::net::NetParams;
use fair_gossip::experiments::scenario::ScenarioNet;
use fair_gossip::orderer::cutter::BatchConfig;
use fair_gossip::orderer::service::OrdererConfig;
use fair_gossip::sim::{Duration, NetworkConfig};
use fair_gossip::types::ids::{ChannelId, PeerId};
use fair_gossip::workload::schedule::{payload_schedule, PayloadWorkload};

fn main() {
    let peers = 40;
    let gossip = DisseminationConfig::fig07_09_enhanced_f4()
        .gossip
        .with_quick_discovery();

    let orderer = OrdererConfig::kafka(BatchConfig::paper_dissemination());
    let params = NetParams::new(peers, gossip, orderer);
    let schedule = payload_schedule(&PayloadWorkload::shortened(3_000));

    // Sized to the deployment below; 1 % of all packets are lost.
    let mut network = NetworkConfig::lan(0);
    network.loss = 0.01;

    // The drill is stepped by hand, so the drain window goes unused.
    let d = Deployment::new(params, schedule, &network, 7, Duration::ZERO);
    let mut net = ScenarioNet::over(d);

    // Let discovery settle and some blocks flow.
    net.run_for(Duration::from_secs(20));
    let leader_before = net
        .sim()
        .protocol()
        .current_leaders_on(ChannelId::DEFAULT)
        .first()
        .copied()
        .expect("a leader stood up");
    println!(
        "t=20s   leader is {leader_before}, height(peer 5) = {}",
        net.gossip(5).height()
    );

    // Power off the leader and a follower.
    net.power(leader_before, false);
    net.power(PeerId(17), false);
    println!("t=20s   powered off the leader ({leader_before}) and peer17");

    net.run_for(Duration::from_secs(20));
    let leader_after = net
        .sim()
        .protocol()
        .current_leaders_on(ChannelId::DEFAULT)
        .first()
        .copied()
        .expect("someone took over");
    println!("t=40s   new leader is {leader_after}, blocks keep flowing");
    assert_ne!(leader_after, leader_before);

    // Reboot the follower; recovery must catch it up from its peers.
    net.power(PeerId(17), true);
    println!("t=40s   rebooted peer17 (it lost nothing on disk, but missed 20 s of blocks)");

    net.run_for(Duration::from_secs(80));
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
    // Every block the orderer cut reached both peers: none was lost to
    // the channel on its way to a leader.
    let cut = net.sim().protocol().blocks_cut_on(ChannelId::DEFAULT);
    assert_eq!(reference, cut + 1, "peer 5 holds every cut block");
    assert_eq!(rebooted, cut + 1, "peer 17 holds every cut block");
    println!("\nleader failover and crash recovery both worked ✓");
}
