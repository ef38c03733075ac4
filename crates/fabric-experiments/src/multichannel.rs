//! Multi-channel dissemination: C channels × N peers with overlapping
//! memberships and per-channel workloads, on the one simulated deployment.
//!
//! Fabric scopes every protocol interaction — gossip, ordering, endorsement
//! — per channel, and channel count is a first-order throughput and
//! fairness lever (Wang & Chu's bottleneck analysis). Channels interact
//! only where they share peers (a shared peer's serial validation
//! pipeline, its per-peer stats), so the channel-overlap graph is the exact
//! coupling structure of a deployment: two channels with no member in
//! common cannot influence each other's events in any way.
//! [`plan_groups`] computes the connected components of that graph, and
//! [`MultiChannelConfig::deployments`] gives each component its own
//! [`Deployment`] — own client, ordering service, endorsers, validation and
//! virtual clock, the same pipeline Figs. 4–9 run on. [`run_multichannel`]
//! is those deployments run over [`desim::run_batch`], each read off into
//! one [`ChannelReport`] per channel (the read-off of the churn runners,
//! mapped back to global channel and peer ids), then merged.
//! A deployment whose channels all overlap ([`MultiChannelConfig::skewed`])
//! is one component and so one `FabricNet`;
//! [`MultiChannelConfig::large`] is 126 of them, same code.
//!
//! # Determinism
//!
//! Every result is a pure function of the configuration and seed,
//! **independent of the worker count**: each group's RNG seed mixes only
//! the run seed and the group's index (never a worker id), each group's
//! simulation is bit-for-bit replayable on its own, and `run_batch` returns
//! results in job order. Components that share peers are one group by
//! construction, so the merge concatenates already-closed per-group
//! results; it is not a synchronization protocol.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use desim::{run_batch, Duration, NetworkConfig, Time};
use fabric_gossip::config::GossipConfig;
use fabric_orderer::cutter::BatchConfig;
use fabric_orderer::service::OrdererConfig;
use fabric_types::ids::{ChannelId, PeerId};
use fabric_types::transaction::EndorsementPolicy;
use fabric_workload::schedule::{
    merge_schedules, payload_schedule, retarget_schedule, PayloadWorkload,
};
use gossip_metrics::fairness::FairnessReport;

use crate::churn::{fairness_of, ChannelReport};
use crate::deployment::Deployment;
use crate::net::{ChannelSpec, NetParams};

/// One channel of a multi-channel deployment: its membership and its
/// client workload.
#[derive(Debug, Clone)]
pub struct ChannelPlan {
    /// Members (the channel's single organization) in ascending **global**
    /// peer-id order; the lowest id endorses.
    pub members: Vec<PeerId>,
    /// Transactions the client issues on this channel.
    pub txs: usize,
    /// Issue rate, transactions per second.
    pub rate_per_sec: f64,
    /// Wire padding per transaction.
    pub tx_padding: u32,
}

/// Everything a multi-channel run needs.
#[derive(Debug, Clone)]
pub struct MultiChannelConfig {
    /// Total peers in the logical deployment (global ids `0..peers`).
    pub peers: usize,
    /// The channels; channel `c` keeps global index `c` in the results.
    pub channels: Vec<ChannelPlan>,
    /// Gossip configuration shared by every channel instance.
    pub gossip: GossipConfig,
    /// Ordering service configuration, shared by every group's orderer.
    pub orderer: OrdererConfig,
    /// Physical network template; `nodes` is overridden per group.
    pub network: NetworkConfig,
    /// Extra idle time simulated after each group's drain window.
    pub idle_tail: Duration,
    /// Run seed; group `g` derives its own seed from `(seed, g)` only.
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
    /// the overlapping-org-membership shape of real consortium networks
    /// (and one connected component, whatever `channels` is).
    ///
    /// The skew is client traffic: channel `c` is issued
    /// `10 · max(1, base_blocks / (c + 1))` paper-sized (≈ 3.2 KB)
    /// transactions at `10 / (0.5 s · (c + 1))` per second, and the
    /// preset's orderer cuts at 10 transactions — one ≈ 32 KB block per
    /// `0.5 s · (c + 1)`. Ten rather than the paper's 50 per block because
    /// all channels of a component share one client and one orderer node,
    /// each ingesting ≈ 230 messages/s under [`NetworkConfig::lan`]'s
    /// receiver processing delay: at 50 per block eight channels issue
    /// 272 tx/s and the client's queue grows without bound, at 10 they
    /// issue 54.
    ///
    /// The orderer's 2 s batch timeout stays. A block fills in
    /// `0.45 s · (c + 1)`: up to channel index 2 it is cut by count and
    /// [`ChannelReport::blocks`] equals the planned `txs / 10`; index 3
    /// fills in 1.8 s, within one latency spike of the timeout (61 cut for
    /// 60 planned at the quick bench scale); from index 4 up (only the
    /// 8-channel full scale has them) the timeout cuts more, smaller
    /// blocks. `ChannelReport::blocks` therefore always reports blocks
    /// **cut**, never the plan.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is 0 or `peers < 2 · channels`.
    pub fn skewed(channels: usize, peers: usize, base_blocks: u64) -> Self {
        assert!(channels >= 1, "need at least one channel");
        assert!(peers >= 2 * channels, "need >= 2 peers per channel");
        const BLOCK_TXS: u64 = 10;
        let window = (2 * peers).div_ceil(channels + 1).max(2);
        let stride = if channels == 1 {
            0
        } else {
            (peers - window) / (channels - 1)
        };
        let plans = (0..channels)
            .map(|c| {
                let lo = c * stride;
                let hi = (lo + window).min(peers);
                let slowdown = c as u64 + 1;
                ChannelPlan {
                    members: (lo as u32..hi as u32).map(PeerId).collect(),
                    txs: (BLOCK_TXS * (base_blocks / slowdown).max(1)) as usize,
                    rate_per_sec: BLOCK_TXS as f64 / (0.5 * slowdown as f64),
                    tx_padding: 32_768 / BLOCK_TXS as u32,
                }
            })
            .collect();
        let mut cfg = Self::over(peers, plans);
        cfg.orderer.batch.max_message_count = BLOCK_TXS as usize;
        cfg
    }

    /// A deployment of `groups` disjoint clusters, each `cluster_peers`
    /// wide with two overlapping channels (the consortium shape: an
    /// interior band of peers serves both), issuing `txs` transactions per
    /// channel at the paper's dissemination rate and size.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_peers < 8` (the overlap windows need room).
    pub fn clustered(groups: usize, cluster_peers: usize, txs: usize) -> Self {
        assert!(cluster_peers >= 8, "clusters need at least 8 peers");
        let window = cluster_peers * 2 / 3;
        let workload = PayloadWorkload::shortened(txs);
        let mut channels = Vec::with_capacity(groups * 2);
        for g in 0..groups {
            let base = (g * cluster_peers) as u32;
            let lo_b = base + (cluster_peers - window) as u32;
            for (lo, hi) in [
                (base, base + window as u32),
                (lo_b, base + cluster_peers as u32),
            ] {
                channels.push(ChannelPlan {
                    members: (lo..hi).map(PeerId).collect(),
                    txs,
                    rate_per_sec: workload.rate_per_sec,
                    tx_padding: workload.tx_padding,
                });
            }
        }
        Self::over(groups * cluster_peers, channels)
    }

    /// The `large` preset: thousands of peers across hundreds of channels,
    /// the production-scale class. It runs in 0.9–1.3 s on one core of a
    /// shared 2-core Xeon, and 0.46–0.61 s on both.
    pub fn large() -> Self {
        Self::clustered(126, 16, 600)
    }

    /// A smoke-sized `large` slice for tests and golden pins.
    pub fn large_smoke() -> Self {
        Self::clustered(6, 16, 100)
    }
}

/// One connected component of the channel-overlap graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelGroup {
    /// Global channel indices in this component, ascending.
    pub channels: Vec<usize>,
    /// Union of the channels' members, ascending global ids.
    pub members: Vec<PeerId>,
}

/// Partitions channels into connected components of the overlap graph:
/// channels sharing any member land in the same group (transitively).
/// Groups come back ordered by their smallest channel index.
pub fn plan_groups(memberships: &[Vec<PeerId>]) -> Vec<ChannelGroup> {
    let mut parent: Vec<usize> = (0..memberships.len()).collect();
    fn find(parent: &mut [usize], mut c: usize) -> usize {
        while parent[c] != c {
            parent[c] = parent[parent[c]];
            c = parent[c];
        }
        c
    }
    let mut first_channel_of_peer: HashMap<PeerId, usize> = HashMap::new();
    for (c, members) in memberships.iter().enumerate() {
        for &peer in members {
            match first_channel_of_peer.entry(peer) {
                Entry::Vacant(slot) => {
                    slot.insert(c);
                }
                Entry::Occupied(slot) => {
                    let a = find(&mut parent, *slot.get());
                    let b = find(&mut parent, c);
                    // Root at the smaller index so group order is stable.
                    let (lo, hi) = (a.min(b), a.max(b));
                    parent[hi] = lo;
                }
            }
        }
    }
    let mut groups: BTreeMap<usize, ChannelGroup> = BTreeMap::new();
    for c in 0..memberships.len() {
        let root = find(&mut parent, c);
        let group = groups.entry(root).or_insert_with(|| ChannelGroup {
            channels: Vec::new(),
            members: Vec::new(),
        });
        group.channels.push(c);
    }
    for group in groups.values_mut() {
        let mut members: Vec<PeerId> = group
            .channels
            .iter()
            .flat_map(|&c| memberships[c].iter().copied())
            .collect();
        members.sort_unstable();
        members.dedup();
        group.members = members;
    }
    groups.into_values().collect()
}

/// What a multi-channel run produces.
#[derive(Debug)]
pub struct MultiChannelResult {
    /// Per-channel outcomes, global channel order; channel `c` is
    /// `ChannelId(c)`, and its members and leaders carry global peer ids.
    pub channels: Vec<ChannelReport>,
    /// Per-channel and overall Jain fairness over per-member gossip bytes.
    pub fairness: FairnessReport,
    /// Gossip bytes each peer sent across all its channels, by global peer
    /// index (0 for a peer no channel covers): the channels'
    /// [`ChannelReport::member_bytes`] summed.
    pub peer_bytes: Vec<u64>,
    /// Connected components simulated (the parallelism grain).
    pub groups: usize,
    /// Blocks cut across all channels.
    pub blocks: u64,
    /// Simulation events processed across all groups.
    pub events: u64,
    /// Latest virtual end time over the groups.
    pub sim_end: Time,
}

impl MultiChannelResult {
    /// The run's completeness: the **lowest** per-channel completeness, so
    /// one starved channel cannot hide behind hundreds of healthy ones
    /// (the same rule as [`FairnessReport::worst_channel_jain`]).
    pub fn completeness(&self) -> f64 {
        self.channels
            .iter()
            .map(|c| c.completeness)
            .fold(1.0f64, f64::min)
    }
}

impl MultiChannelConfig {
    /// The deployments [`run_multichannel`] runs: one per connected
    /// component of the channel-overlap graph, in group order, each with
    /// its group's seed and [`MultiChannelConfig::idle_tail`].
    ///
    /// # Panics
    ///
    /// Panics on an empty channel list, unsorted or out-of-range
    /// memberships, or an empty workload.
    pub fn deployments(&self) -> Vec<(ChannelGroup, Deployment)> {
        self.groups()
            .into_iter()
            .enumerate()
            .map(|(g, group)| {
                let d = self.deployment(&group, g);
                (group, d)
            })
            .collect()
    }

    fn groups(&self) -> Vec<ChannelGroup> {
        assert!(!self.channels.is_empty(), "need at least one channel");
        for (c, chan) in self.channels.iter().enumerate() {
            assert!(!chan.members.is_empty(), "channel {c} has no members");
            assert!(
                chan.members.windows(2).all(|w| w[0] < w[1]),
                "channel {c} members must be ascending"
            );
            assert!(
                chan.members.iter().all(|p| p.index() < self.peers),
                "channel {c} member outside the deployment"
            );
            assert!(chan.txs >= 1, "channel {c} has an empty workload");
        }
        let memberships: Vec<Vec<PeerId>> =
            self.channels.iter().map(|c| c.members.clone()).collect();
        plan_groups(&memberships)
    }

    /// Group `group_index`'s own deployment, with densely remapped local
    /// peer ids (ascending order preserved, so the roster minimum leads
    /// the same relative peer as it would globally) and local channel
    /// `i` for the group's `i`-th channel.
    fn deployment(&self, group: &ChannelGroup, group_index: usize) -> Deployment {
        let local_of = |peer: PeerId| -> PeerId {
            let slot = group
                .members
                .binary_search(&peer)
                .expect("group members cover its channels");
            PeerId(slot as u32)
        };
        let mut specs = group.channels.iter().enumerate().map(|(local, &c)| {
            let members: Vec<PeerId> = self.channels[c]
                .members
                .iter()
                .map(|&p| local_of(p))
                .collect();
            ChannelSpec {
                channel: ChannelId(local as u16),
                endorsers: vec![members[0]],
                members,
                orgs: 1,
                policy: EndorsementPolicy::AnyMember,
            }
        });
        let default = specs.next().expect("a group has a channel");

        let mut params = NetParams::new(
            group.members.len(),
            self.gossip.clone(),
            self.orderer.clone(),
        );
        // Dissemination-style commit cost, as in `run_dissemination`.
        params.validation_per_tx = Duration::from_micros(300);
        params.full_ledgers = false;
        params.orgs = default.orgs;
        params.endorsers = default.endorsers;
        params.policy = default.policy;
        params.default_members = Some(default.members);
        params.extra_channels = specs.collect();

        let schedule = merge_schedules(
            group
                .channels
                .iter()
                .enumerate()
                .map(|(local, &c)| {
                    let chan = &self.channels[c];
                    let workload = PayloadWorkload {
                        total_txs: chan.txs,
                        rate_per_sec: chan.rate_per_sec,
                        tx_padding: chan.tx_padding,
                    };
                    retarget_schedule(payload_schedule(&workload), ChannelId(local as u16))
                })
                .collect(),
        );
        // Group seeds mix the run seed with the group index only — never a
        // worker id — so results cannot depend on the worker count.
        let seed = self
            .seed
            .wrapping_add((group_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut d = Deployment::new(
            params,
            schedule,
            &self.network,
            seed,
            Duration::from_secs(40),
        );
        d.idle_tail = self.idle_tail;
        d
    }
}

/// Runs one multi-channel experiment to completion: each of
/// [`MultiChannelConfig::deployments`], built and run in its own
/// [`run_batch`] job and read off channel by channel.
///
/// # Panics
///
/// Panics on an empty channel list, unsorted or out-of-range memberships,
/// or an empty workload.
pub fn run_multichannel(cfg: &MultiChannelConfig) -> MultiChannelResult {
    let groups = cfg.groups();
    let runs = run_batch(groups.iter().enumerate().collect(), |(g, group)| {
        let sim = cfg.deployment(group, g).run();
        let (events, end) = (sim.events_processed(), sim.now());
        let net = sim.into_protocol();
        let global = |local: &mut PeerId| *local = group.members[local.index()];
        let channels: Vec<ChannelReport> = net
            .params()
            .channel_specs()
            .iter()
            .zip(&group.channels)
            .map(|(spec, &c)| {
                let mut report = ChannelReport::read_off(&net, spec);
                report.channel = ChannelId(c as u16);
                report.leaders.iter_mut().for_each(global);
                report
                    .member_bytes
                    .iter_mut()
                    .for_each(|(peer, _)| global(peer));
                report
            })
            .collect();
        (channels, events, end)
    });

    let mut channels = Vec::with_capacity(cfg.channels.len());
    let mut peer_bytes = vec![0u64; cfg.peers];
    let mut events = 0;
    let mut sim_end = Time::ZERO;
    for (reports, group_events, end) in runs {
        for &(peer, bytes) in reports.iter().flat_map(|c| &c.member_bytes) {
            peer_bytes[peer.index()] += bytes;
        }
        channels.extend(reports);
        events += group_events;
        sim_end = sim_end.max(end);
    }
    channels.sort_by_key(|c| c.channel);
    MultiChannelResult {
        fairness: fairness_of(&channels),
        peer_bytes,
        groups: groups.len(),
        blocks: channels.iter().map(|c| c.blocks).sum(),
        events,
        sim_end,
        channels,
    }
}

/// Plain-text rendering of a multi-channel run, preset-report style.
pub fn render_multichannel(title: &str, result: &MultiChannelResult) -> String {
    let mut out = format!("== {title} ==\n");
    for c in &result.channels {
        out.push_str(&c.render());
    }
    out.push_str(&result.fairness.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peers(ids: &[u32]) -> Vec<PeerId> {
        ids.iter().copied().map(PeerId).collect()
    }

    #[test]
    fn disjoint_channels_form_their_own_groups() {
        let groups = plan_groups(&[peers(&[0, 1]), peers(&[2, 3]), peers(&[4, 5])]);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].channels, vec![0]);
        assert_eq!(groups[1].members, peers(&[2, 3]));
    }

    #[test]
    fn overlap_is_transitive() {
        // 0 ~ 1 (share peer 2), 1 ~ 2 (share peer 4) ⇒ one component,
        // channel 3 stays alone.
        let groups = plan_groups(&[
            peers(&[0, 1, 2]),
            peers(&[2, 3, 4]),
            peers(&[4, 5]),
            peers(&[9]),
        ]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].channels, vec![0, 1, 2]);
        assert_eq!(groups[0].members, peers(&[0, 1, 2, 3, 4, 5]));
        assert_eq!(groups[1].channels, vec![3]);
    }

    #[test]
    fn skewed_windows_overlap_into_one_group_with_distinct_leaders() {
        let cfg = MultiChannelConfig::skewed(3, 30, 6);
        let memberships: Vec<_> = cfg.channels.iter().map(|c| c.members.clone()).collect();
        // Consecutive channels share members (the overlap is the point)…
        assert!(memberships[0].iter().any(|p| memberships[1].contains(p)));
        assert_eq!(plan_groups(&memberships).len(), 1);
        // …but not their lowest id, the initial leader and endorser.
        assert_ne!(memberships[0][0], memberships[1][0]);
        // Skew: channel c runs (c + 1)× slower on (c + 1)× fewer blocks.
        assert_eq!(cfg.channels[0].txs, 60);
        assert_eq!(cfg.channels[2].txs, 20);
        let (fast, slow) = (cfg.channels[0].rate_per_sec, cfg.channels[2].rate_per_sec);
        assert!((fast - 3.0 * slow).abs() < 1e-9);
    }

    #[test]
    fn every_channel_reaches_all_its_members() {
        let mut cfg = MultiChannelConfig::skewed(3, 30, 12);
        cfg.seed = 7;
        let res = run_multichannel(&cfg);
        assert_eq!((res.channels.len(), res.groups), (3, 1));
        for (c, plan) in res.channels.iter().zip(&cfg.channels) {
            assert_eq!(c.completeness, 1.0, "channel {} starved", c.channel);
            assert_eq!(c.blocks, plan.txs as u64 / 10, "channel {}", c.channel);
            assert!(c.p50 > Duration::ZERO && c.p999 >= c.p50 && c.max >= c.p999);
            // Each channel's roster minimum leads it, seated from the start.
            assert_eq!(c.leaders, [plan.members[0]], "channel {}", c.channel);
            assert_eq!((c.handoffs, c.leader_gaps.len()), (0, 0));
            // A static roster's heartbeat is `alive`, not discovery.
            assert_eq!(c.discovery_bytes, 0, "channel {}", c.channel);
        }
        assert_eq!(res.completeness(), 1.0);
        assert_eq!(res.blocks, 12 + 6 + 4);
    }

    #[test]
    fn clustered_run_is_complete_and_deterministic() {
        let cfg = MultiChannelConfig::clustered(3, 9, 60);
        let a = run_multichannel(&cfg);
        let b = run_multichannel(&cfg);
        assert_eq!((a.groups, a.channels.len()), (3, 6));
        assert_eq!(a.completeness(), 1.0, "every member must get every block");
        assert!(a.blocks > 0);
        assert_eq!((a.events, a.sim_end), (b.events, b.sim_end));
        for (x, y) in a.channels.iter().zip(&b.channels) {
            assert_eq!((x.p50, x.p999), (y.p50, y.p999));
        }
        assert_eq!(a.fairness.overall_jain, b.fairness.overall_jain);
        // Groups 1 and 2 start at peers 9 and 18 and simulate their
        // channels as local channels 0 and 1: an id left local fails here.
        for (c, (report, plan)) in a.channels.iter().zip(&cfg.channels).enumerate() {
            assert_eq!(report.channel, ChannelId(c as u16));
            assert_eq!(report.leaders, [plan.members[0]], "channel {c}");
            let members: Vec<PeerId> = report.member_bytes.iter().map(|&(p, _)| p).collect();
            assert_eq!(members, plan.members, "channel {c}");
        }
    }

    #[test]
    fn deployments_are_one_per_group_and_the_runner_runs_them() {
        let cfg = MultiChannelConfig::clustered(3, 9, 40);
        let deployments = cfg.deployments();
        assert_eq!(deployments.len(), 3, "one deployment per group");
        let seeds: Vec<u64> = deployments.iter().map(|(_, d)| d.seed).collect();
        assert!(
            seeds[0] != seeds[1] && seeds[1] != seeds[2] && seeds[0] != seeds[2],
            "groups run different seeds"
        );
        for (group, d) in &deployments {
            assert_eq!(d.idle_tail, cfg.idle_tail);
            assert_eq!(d.net.params().peers, group.members.len());
        }
        let events: u64 = deployments
            .into_iter()
            .map(|(_, d)| d.run().events_processed())
            .sum();
        assert_eq!(run_multichannel(&cfg).events, events);
    }

    #[test]
    fn render_contains_per_channel_rows_and_fairness() {
        let res = run_multichannel(&MultiChannelConfig::skewed(2, 16, 4));
        let text = render_multichannel("multichannel", &res);
        assert!(text.contains("ch0"));
        assert!(text.contains("ch1"));
        assert!(text.contains("jain"));
        assert!(text.contains("overall"));
    }
}
