//! Multi-channel walkthrough: C channels × N peers with overlapping
//! memberships and skewed per-channel client traffic, on the full
//! execute-order-validate pipeline.
//!
//! ```text
//! cargo run --release --example multi_channel [channels] [peers] [blocks]
//! ```
//!
//! What it demonstrates, bottom-up:
//!
//! 1. every peer is a `GossipPeer` **multiplexer** over one `ChannelState`
//!    per joined channel, and every channel runs in one `FabricNet` with
//!    one client and one ordering service, as Fabric's channels share one;
//! 2. each channel has its own endorser, ordering chain, leader and push
//!    engine — blocks never cross channel boundaries;
//! 3. per-channel latency and Jain's fairness over the per-channel byte
//!    breakdown in `PeerStats`, the view peer-global totals hide.

use fair_gossip::experiments::churn::render_churn;
use fair_gossip::experiments::multichannel::{run_multichannel, MultiChannelConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let channels = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    let peers = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(60);
    let blocks = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(40);

    let config = MultiChannelConfig::skewed(channels, peers, blocks);
    println!(
        "Running {channels} channels over {peers} peers (channel 0 busiest: \
         {blocks} blocks; rates decay per channel)...\n"
    );
    for (c, plan) in config.channels.iter().enumerate() {
        println!(
            "  ch{c}: {} members ({}..{}), {} tx at {:.1} tx/s",
            plan.members.len(),
            plan.members.first().unwrap(),
            plan.members.last().unwrap(),
            plan.workload.total_txs,
            plan.workload.rate_per_sec,
        );
    }
    println!();

    let result = run_multichannel(&config);
    print!("{}", render_churn("multi-channel dissemination", &result));

    // A peer in the overlap of two channels carries both workloads; its
    // per-channel bytes expose the split its global counter would hide.
    let serving = |peer| {
        result
            .channels
            .iter()
            .filter_map(move |c| {
                let (_, bytes) = c.member_bytes.iter().find(|(p, _)| *p == peer)?;
                Some((c.channel, *bytes))
            })
            .collect::<Vec<_>>()
    };
    let overlap = config.channels[0]
        .members
        .iter()
        .map(|&peer| (peer, serving(peer)))
        .find(|(_, split)| split.len() >= 2);
    if let Some((peer, split)) = overlap {
        println!("\npeer {peer} serves {} channels:", split.len());
        for &(channel, bytes) in &split {
            println!("  {channel}: {:.2} MB sent", bytes as f64 / 1e6);
        }
        let total: u64 = split.iter().map(|&(_, bytes)| bytes).sum();
        println!("  total: {:.2} MB sent", total as f64 / 1e6);
    }

    println!(
        "\n{} blocks cut across {} channels \
         ({} simulation events over {} of virtual time)",
        result.channels.iter().map(|c| c.blocks).sum::<u64>(),
        result.channels.len(),
        result.events,
        result.sim_end,
    );
}
