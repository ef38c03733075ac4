//! Runtime channel-lifecycle walkthrough: a peer joins a live channel
//! mid-run, catches up to the head, and the channel's leader later leaves,
//! its seat passing to the next most senior member as one more peer
//! joins — all over the full channel-routed execute-order-validate
//! pipeline, with membership news travelling by gossiped discovery alone.
//!
//! ```text
//! cargo run --release --example channel_churn [side_members] [blocks]
//! ```
//!
//! What it demonstrates, bottom-up:
//!
//! 1. `FabricNet` drives **two channels** end to end: every scheduled
//!    invocation names its channel, the orderer multiplexes one block
//!    cutter + chain per channel, and cut blocks go to each channel's own
//!    leader;
//! 2. a **late joiner** enters the side channel at runtime
//!    (`GossipPeer::join_channel_live`), announces itself through its own
//!    discovery heartbeats and bootstraps to the join-time chain head
//!    through the ordinary StateInfo + recovery machinery — its catch-up
//!    latency is measured;
//! 3. the side channel's **leader leaves** in silence; the remaining
//!    members reap it after the (here 1 s) alive timeout, the most senior
//!    survivor claims the seat, the orderer re-targets delivery, and
//!    dissemination continues;
//! 4. per-channel Jain fairness over the per-channel byte breakdown —
//!    the stable main channel doubles as the control group.

use fair_gossip::experiments::churn::render_churn;
use fair_gossip::experiments::churn_waves::{run_churn_waves, ChurnWavesConfig};
use fair_gossip::types::ids::ChannelId;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let side = args.first().and_then(|s| s.parse().ok()).unwrap_or(12);
    let blocks = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(30);

    let config = ChurnWavesConfig::late_joiner(side, blocks);
    println!(
        "Running {} peers: main channel = everyone, side channel = peers 0..{side}.\n\
         Peer {} joins the side channel at {}; at {} its leader (peer 0) leaves \
         and peer {side} joins.\n",
        config.peers(),
        side + 1,
        config.flash_at,
        config.first_wave_at,
    );

    let result = run_churn_waves(&config);
    print!("{}", render_churn("channel churn", &result));

    // The first joiner's view after the run: it holds the side chain
    // gap-free from its catch-up onwards.
    let joiner = &result.catchups[0];
    let height = result
        .net
        .gossip(joiner.peer.index())
        .height_on(ChannelId(1));
    println!(
        "\n{} finished at contiguous side-channel height {height} \
         (join-time head was {}).",
        joiner.peer, joiner.target
    );
    match joiner.latency() {
        Some(lat) => println!("catch-up took {lat} of virtual time."),
        None => println!("catch-up did not complete — lengthen the run."),
    }
    println!(
        "side-channel leaders at end: {:?} (hand-offs: {})",
        result.channels[1].leaders, result.channels[1].handoffs,
    );
}
