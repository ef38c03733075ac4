//! Multi-channel dissemination: C channels × N peers with overlapping
//! memberships and per-channel workloads, on one simulated deployment.
//!
//! Fabric scopes every protocol interaction — gossip, ordering, endorsement
//! — per channel, and channel count is a first-order throughput and
//! fairness lever (Wang & Chu's bottleneck analysis). As in Fabric, where
//! one ordering service serves every channel, a multi-channel run is one
//! [`Deployment`] ([`MultiChannelConfig::deployment`]): every peer under
//! its own id, plan `c` as `ChannelId(c)`, one client and one ordering
//! node for all channels — the same pipeline Figs. 4–9 run on. Channels
//! meet where they share peers (a shared peer's serial validation
//! pipeline) and, shared peers or not, at that client and orderer, each of
//! which handles one message per receiver processing delay (≈ 230 per
//! second under [`NetworkConfig::lan`]); the presets keep their summed
//! issue rate under that. [`run_multichannel`] is the deployment run and
//! read off by [`ChurnResult::read_off`], the churn runners' read-off: one
//! [`ChannelReport`](crate::churn::ChannelReport) per channel, rendered by
//! [`render_churn`](crate::churn::render_churn).

use desim::{Duration, NetworkConfig};
use fabric_gossip::config::GossipConfig;
use fabric_orderer::cutter::BatchConfig;
use fabric_orderer::service::OrdererConfig;
use fabric_types::ids::{ChannelId, PeerId};
use fabric_types::transaction::EndorsementPolicy;
use fabric_workload::schedule::{
    merge_schedules, payload_schedule, retarget_schedule, PayloadWorkload,
};

use crate::churn::ChurnResult;
use crate::deployment::Deployment;
use crate::net::{ChannelSpec, NetParams};

/// One channel of a multi-channel deployment: its membership and its
/// client workload.
#[derive(Debug, Clone)]
pub struct ChannelPlan {
    /// Members (the channel's single organization) in ascending peer-id
    /// order; the lowest id endorses.
    pub members: Vec<PeerId>,
    /// What the client issues on this channel.
    pub workload: PayloadWorkload,
}

/// Everything a multi-channel run needs.
#[derive(Debug, Clone)]
pub struct MultiChannelConfig {
    /// Total peers in the deployment (ids `0..peers`).
    pub peers: usize,
    /// The channels; plan `c` runs as `ChannelId(c)`.
    pub channels: Vec<ChannelPlan>,
    /// Gossip configuration shared by every channel instance.
    pub gossip: GossipConfig,
    /// Configuration of the one ordering service.
    pub orderer: OrdererConfig,
    /// Physical network template; `nodes` is sized to the deployment.
    pub network: NetworkConfig,
    /// Extra idle time simulated after the drain window.
    pub idle_tail: Duration,
    /// The simulation seed.
    pub seed: u64,
}

impl MultiChannelConfig {
    /// The defaults every preset shares: the paper's enhanced gossip, its
    /// dissemination orderer (50-tx blocks, 2 s batch timeout) and LAN.
    fn over(peers: usize, channels: Vec<ChannelPlan>) -> Self {
        MultiChannelConfig {
            peers,
            channels,
            gossip: GossipConfig::enhanced_f4(),
            orderer: OrdererConfig::kafka(BatchConfig::paper_dissemination()),
            network: NetworkConfig::lan(0),
            idle_tail: Duration::from_secs(5),
            seed: 1,
        }
    }

    /// The skewed preset: `channels` overlapping membership windows over
    /// `peers` peers, channel `c` running `(c + 1)`× slower than channel 0
    /// — the busiest — with block counts scaled so every channel stays
    /// active for a similar span.
    ///
    /// Windows are sized at roughly `2·peers/(channels+1)` with ~50 %
    /// overlap between neighbours, so interior peers serve two channels:
    /// the overlapping-org-membership shape of real consortium networks.
    /// The first window starts at peer 0 and the last ends at `peers`.
    ///
    /// The skew is client traffic: channel `c` is issued
    /// `10 · max(1, base_blocks / (c + 1))` paper-sized (≈ 3.2 KB)
    /// transactions at `10 / (0.5 s · (c + 1))` per second, and the
    /// preset's orderer cuts at 10 transactions — one ≈ 32 KB block per
    /// `0.5 s · (c + 1)`. Ten rather than the paper's 50 per block because
    /// all channels share one client and one orderer node, each ingesting ≈ 230 messages/s under [`NetworkConfig::lan`]'s
    /// receiver processing delay: at 50 per block eight channels issue
    /// 272 tx/s and the client's queue grows without bound, at 10 they
    /// issue 54.
    ///
    /// The orderer's 2 s batch timeout stays. A block fills in
    /// `0.45 s · (c + 1)`: up to channel index 2 it is cut by count and
    /// [`ChannelReport::blocks`](crate::churn::ChannelReport::blocks)
    /// equals the planned `txs / 10`; index 3 fills in 1.8 s, within one
    /// latency spike of the timeout; from index 4 up the timeout cuts
    /// more, smaller blocks. `ChannelReport::blocks` therefore always
    /// reports blocks **cut**, never the plan.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is 0 or `peers < 2 · channels`.
    pub fn skewed(channels: usize, peers: usize, base_blocks: u64) -> Self {
        assert!(channels >= 1, "need at least one channel");
        assert!(peers >= 2 * channels, "need >= 2 peers per channel");
        const BLOCK_TXS: u64 = 10;
        let window = (2 * peers).div_ceil(channels + 1).max(2);
        let plans = (0..channels)
            .map(|c| {
                let lo = c * (peers - window) / (channels - 1).max(1);
                let hi = lo + window;
                let slowdown = c as u64 + 1;
                ChannelPlan {
                    members: (lo as u32..hi as u32).map(PeerId).collect(),
                    workload: PayloadWorkload {
                        total_txs: (BLOCK_TXS * (base_blocks / slowdown).max(1)) as usize,
                        rate_per_sec: BLOCK_TXS as f64 / (0.5 * slowdown as f64),
                        tx_padding: 32_768 / BLOCK_TXS as u32,
                    },
                }
            })
            .collect();
        let mut cfg = Self::over(peers, plans);
        cfg.orderer.batch.max_message_count = BLOCK_TXS as usize;
        cfg
    }

    /// A deployment of `clusters` disjoint clusters, each `cluster_peers`
    /// wide with two overlapping channels (the consortium shape: an
    /// interior band of peers serves both), issuing `txs` transactions per
    /// channel at the paper's dissemination rate and size. The clusters
    /// share no peer, only the client and the ordering service.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_peers < 8` (the overlap windows need room).
    pub fn clustered(clusters: usize, cluster_peers: usize, txs: usize) -> Self {
        assert!(cluster_peers >= 8, "clusters need at least 8 peers");
        let window = cluster_peers * 2 / 3;
        let workload = PayloadWorkload::shortened(txs);
        let mut channels = Vec::with_capacity(clusters * 2);
        for g in 0..clusters {
            let base = (g * cluster_peers) as u32;
            let lo_b = base + (cluster_peers - window) as u32;
            for (lo, hi) in [
                (base, base + window as u32),
                (lo_b, base + cluster_peers as u32),
            ] {
                channels.push(ChannelPlan {
                    members: (lo..hi).map(PeerId).collect(),
                    workload: workload.clone(),
                });
            }
        }
        Self::over(clusters * cluster_peers, channels)
    }

    /// The deployment [`run_multichannel`] runs: every peer under its own
    /// id, plan `c` as `ChannelId(c)`, and one client issuing every
    /// channel's workload to one ordering service.
    ///
    /// # Panics
    ///
    /// Panics on an empty channel list or workload, and on memberships
    /// [`FabricNet::new`](crate::net::FabricNet::new) rejects.
    pub fn deployment(&self) -> Deployment {
        let mut specs = self
            .channels
            .iter()
            .enumerate()
            .map(|(c, plan)| ChannelSpec {
                channel: ChannelId(c as u16),
                endorsers: plan.members.iter().take(1).copied().collect(),
                members: plan.members.clone(),
                orgs: 1,
                policy: EndorsementPolicy::AnyMember,
            });
        let default = specs.next().expect("need at least one channel");

        let mut params = NetParams::new(self.peers, self.gossip.clone(), self.orderer.clone());
        // Dissemination-style commit cost, as in `run_dissemination`.
        params.validation_per_tx = Duration::from_micros(300);
        params.full_ledgers = false;
        params.orgs = default.orgs;
        params.endorsers = default.endorsers;
        params.policy = default.policy;
        params.default_members = Some(default.members);
        params.extra_channels = specs.collect();

        let schedule = merge_schedules(
            self.channels
                .iter()
                .enumerate()
                .map(|(c, plan)| {
                    let workload = &plan.workload;
                    assert!(workload.total_txs >= 1, "channel {c} has an empty workload");
                    retarget_schedule(payload_schedule(workload), ChannelId(c as u16))
                })
                .collect(),
        );
        let mut d = Deployment::new(
            params,
            schedule,
            &self.network,
            self.seed,
            Duration::from_secs(40),
        );
        d.idle_tail = self.idle_tail;
        d
    }
}

/// Runs one multi-channel experiment to completion: its one
/// [`MultiChannelConfig::deployment`], read off channel by channel.
///
/// # Panics
///
/// Panics where [`MultiChannelConfig::deployment`] does.
pub fn run_multichannel(cfg: &MultiChannelConfig) -> ChurnResult {
    ChurnResult::read_off(cfg.deployment().run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::render_churn;

    #[test]
    fn skewed_windows_overlap_with_distinct_leaders_and_cover_every_peer() {
        let cfg = MultiChannelConfig::skewed(3, 30, 6);
        let memberships: Vec<_> = cfg.channels.iter().map(|c| c.members.clone()).collect();
        // Consecutive channels share members (the overlap is the point)…
        assert!(memberships[0].iter().any(|p| memberships[1].contains(p)));
        // …but not their lowest id, the initial leader and endorser.
        assert_ne!(memberships[0][0], memberships[1][0]);
        // Skew: channel c runs (c + 1)× slower on (c + 1)× fewer blocks.
        assert_eq!(cfg.channels[0].workload.total_txs, 60);
        assert_eq!(cfg.channels[2].workload.total_txs, 20);
        let (fast, slow) = (
            cfg.channels[0].workload.rate_per_sec,
            cfg.channels[2].workload.rate_per_sec,
        );
        assert!((fast - 3.0 * slow).abs() < 1e-9);
        // The windows run from peer 0 to the last peer, whether or not
        // `peers - window` divides by `channels - 1`.
        for (channels, peers) in [(1, 10), (2, 30), (3, 30), (4, 60), (8, 120)] {
            let cfg = MultiChannelConfig::skewed(channels, peers, 4);
            let mut covered: Vec<PeerId> = cfg
                .channels
                .iter()
                .flat_map(|c| c.members.clone())
                .collect();
            covered.sort_unstable();
            covered.dedup();
            let all: Vec<PeerId> = (0..peers as u32).map(PeerId).collect();
            assert_eq!(covered, all, "skewed({channels}, {peers}, _)");
        }
        // Where it divides, the windows sit where they always did.
        let lows: Vec<PeerId> = MultiChannelConfig::skewed(4, 60, 40)
            .channels
            .iter()
            .map(|c| c.members[0])
            .collect();
        assert_eq!(lows, [PeerId(0), PeerId(12), PeerId(24), PeerId(36)]);
    }

    #[test]
    fn presets_stay_under_the_one_clients_ingress() {
        // Every channel's transactions reach the one client and the one
        // orderer node, each handling one message per processing delay: a
        // summed issue rate above that rate grows their queues without
        // bound.
        for cfg in [
            MultiChannelConfig::skewed(4, 60, 40),
            MultiChannelConfig::skewed(8, 120, 80),
            MultiChannelConfig::clustered(1, 30, 12),
            MultiChannelConfig::clustered(2, 9, 40),
            MultiChannelConfig::clustered(3, 9, 60),
        ] {
            let issued: f64 = cfg.channels.iter().map(|c| c.workload.rate_per_sec).sum();
            let ingress = 1.0 / cfg.network.proc_delay.mean().as_secs_f64();
            assert!(
                issued < ingress,
                "{} channels issue {issued:.1} tx/s, the client takes {ingress:.1}",
                cfg.channels.len()
            );
        }
    }

    #[test]
    fn every_channel_reaches_all_its_members() {
        let mut cfg = MultiChannelConfig::skewed(3, 30, 12);
        cfg.seed = 7;
        let res = run_multichannel(&cfg);
        assert_eq!(res.channels.len(), 3);
        for (c, plan) in res.channels.iter().zip(&cfg.channels) {
            assert_eq!(c.completeness, 1.0, "channel {} starved", c.channel);
            assert_eq!(
                c.blocks,
                plan.workload.total_txs as u64 / 10,
                "channel {}",
                c.channel
            );
            assert!(c.p50 > Duration::ZERO && c.p999 >= c.p50 && c.max >= c.p999);
            // Each channel's roster minimum leads it, seated from the start.
            assert_eq!(c.leaders, [plan.members[0]], "channel {}", c.channel);
            assert_eq!((c.handoffs, c.leader_gaps.len()), (0, 0));
            // A static roster's heartbeat is `alive`, not discovery.
            assert_eq!(c.discovery_bytes, 0, "channel {}", c.channel);
        }
        let blocks: u64 = res.channels.iter().map(|c| c.blocks).sum();
        assert_eq!(blocks, 12 + 6 + 4);
    }

    #[test]
    fn clustered_run_is_complete_and_deterministic() {
        let cfg = MultiChannelConfig::clustered(3, 9, 60);
        let a = run_multichannel(&cfg);
        let b = run_multichannel(&cfg);
        assert_eq!(a.channels.len(), 6);
        assert_eq!((a.events, a.sim_end), (b.events, b.sim_end));
        for (x, y) in a.channels.iter().zip(&b.channels) {
            assert_eq!((x.p50, x.p999), (y.p50, y.p999));
        }
        assert_eq!(a.fairness.overall_jain, b.fairness.overall_jain);
        // Clusters 1 and 2 start at peers 9 and 18: each channel reports
        // its plan's id, members and roster minimum as leader.
        for (c, (report, plan)) in a.channels.iter().zip(&cfg.channels).enumerate() {
            assert_eq!(report.channel, ChannelId(c as u16));
            assert!(report.blocks > 0, "channel {c} cut nothing");
            assert_eq!(report.completeness, 1.0, "channel {c} starved");
            assert_eq!(report.leaders, [plan.members[0]], "channel {c}");
            let members: Vec<PeerId> = report.member_bytes.iter().map(|&(p, _)| p).collect();
            assert_eq!(members, plan.members, "channel {c}");
        }
    }

    #[test]
    fn render_contains_per_channel_rows_and_fairness() {
        let res = run_multichannel(&MultiChannelConfig::skewed(2, 16, 4));
        let text = render_churn("multichannel", &res);
        // No churn: the channel rows and the fairness report, nothing else.
        let rows = res.channels.iter().map(|c| c.render());
        let expected: String = std::iter::once("== multichannel ==\n".to_string())
            .chain(rows)
            .chain([res.fairness.render()])
            .collect();
        assert_eq!(text, expected);
    }
}
