//! Discovery-protocol walkthrough: churn waves and a flash crowd where
//! **nobody is told anything** — joins and leaves propagate only through
//! gossiped `AliveMsg` heartbeats and membership anti-entropy, the one way
//! membership changes at runtime.
//!
//! ```text
//! cargo run --release --example discovery_churn [side_channels] [side_members] [blocks]
//! ```
//!
//! What it demonstrates, bottom-up:
//!
//! 1. every peer runs the `DiscoveryEngine` alongside push/pull/leadership:
//!    periodic heartbeats carry a monotonic `(incarnation, seq)` claim, an
//!    anti-entropy round push–pulls the full alive view with one random
//!    member, peers silent for the alive timeout expire and
//!    are **reaped** (leaving an obituary that spreads, so one peer's
//!    detection becomes everyone's);
//! 2. at every wave instant, fresh peers **join** each side channel — each
//!    joiner announces *itself* (`join_channel_live` arms its discovery
//!    engine, whose first heartbeat is the join announcement) — while the
//!    sitting leader and its peers **leave silently**, so the members must
//!    detect each departure by timeout, not callback;
//! 3. leadership follows **discovery seniority** (`(incarnation, id)`): a
//!    reaped leader's successor stands up within one heartbeat period of
//!    the reap, and the leader-gap window (leave → successor claim) is
//!    measured per wave;
//! 4. discovery traffic competes with block dissemination on the same
//!    links and is counted in the same per-kind byte economy, so the
//!    closing fairness report shows the discovery share per channel.

use fair_gossip::experiments::churn::render_churn;
use fair_gossip::experiments::churn_waves::{run_churn_waves, ChurnWavesConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let side_channels = args.first().and_then(|s| s.parse().ok()).unwrap_or(2);
    let side_members = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(10);
    let blocks = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(60);

    let config = ChurnWavesConfig::standard(side_channels, side_members, blocks);
    println!(
        "Running {} peers: a stable main channel spanning everyone plus {side_channels} side \
         channel(s) of {side_members}.\n\
         {} waves of {} joiners/leavers per side channel starting at {}, every {};\n\
         a flash crowd of {} hits side channel 1 at {}.\n\
         Membership propagates ONLY through AliveMsg heartbeats ({} period) and\n\
         membership anti-entropy ({}); silence past {} means death.\n",
        config.peers(),
        config.waves,
        config.wave_size,
        config.first_wave_at,
        config.wave_interval,
        config.flash_crowd,
        config.flash_at,
        config.gossip.membership.alive_interval,
        config.gossip.discovery.anti_entropy_interval,
        config.gossip.membership.alive_timeout,
    );

    let result = run_churn_waves(&config);
    println!("{}", render_churn("churn_waves", &result));
    println!(
        "{} events in {} of virtual time.",
        result.events, result.sim_end
    );

    // Every join and leave must have converged — the acceptance bar of the
    // discovery protocol.
    let unconverged = result
        .convergence
        .iter()
        .filter(|r| r.latency().is_none())
        .count();
    if unconverged == 0 {
        println!(
            "All {} join/leave events converged through gossip alone.",
            result.convergence.len()
        );
    } else {
        println!("WARNING: {unconverged} events did not converge within the run.");
    }
}
