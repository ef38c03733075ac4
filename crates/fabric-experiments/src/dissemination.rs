//! The dissemination experiment (§V-A/B/C): 1 000 blocks of ≈160 KB
//! through a 100-peer organization, measuring per-peer and per-block
//! latency plus bandwidth — Figures 4 through 14. Also the setting of the
//! paper's closed forms (§IV, appendix): one block, push only
//! ([`run_one_block`]).

use std::ops::Range;

use desim::{Duration, KindStats, NetworkConfig, NodeId};
use fabric_gossip::config::GossipConfig;
use fabric_gossip::peer::PeerStats;
use fabric_orderer::cutter::BatchConfig;
use fabric_orderer::service::OrdererConfig;
use fabric_types::block::{Block, BlockRef};
use fabric_types::ids::PeerId;
use fabric_workload::schedule::{payload_schedule, PayloadWorkload};
use gossip_metrics::bandwidth::{BandwidthComparison, BandwidthSeries};
use gossip_metrics::latency::{Extremes, LatencyRecorder};

use crate::deployment::Deployment;
use crate::net::NetParams;
use crate::scenario::ScenarioNet;

/// Constant background traffic added to the bandwidth series (the paper's
/// ≈0.4 MB/s of non-dissemination system chatter).
const BACKGROUND_MBPS: f64 = 0.4;

/// Ordering lag + dissemination tail: the drain window after the last
/// transaction, before the idle tail the bandwidth figures show.
const DRAIN: Duration = Duration::from_secs(40);

/// The active phase (over which the figures' dotted averages run) ends
/// this long after the last transaction; the rest of the drain and the
/// idle tail only carry background chatter.
const ACTIVE_AFTER_LAST_ISSUE: Duration = Duration::from_secs(5);

/// Everything a dissemination run needs.
#[derive(Debug, Clone)]
pub struct DisseminationConfig {
    /// Organization size (paper: 100).
    pub peers: usize,
    /// The gossip protocol under test.
    pub gossip: GossipConfig,
    /// Transaction workload (paper: 50 000 tx ⇒ 1 000 blocks).
    pub workload: PayloadWorkload,
    /// Physical network model.
    pub network: NetworkConfig,
    /// Ordering service (batching + consensus latency).
    pub orderer: OrdererConfig,
    /// Extra idle time simulated after the last block, showing the
    /// background-traffic floor (Fig. 6 runs 500 s of idle tail).
    pub idle_tail: Duration,
    /// Number of organizations (contiguous peer split; 1 = the paper's
    /// evaluation deployment).
    pub orgs: usize,
    /// Peers (taken from the high end of the roster) that free-ride:
    /// receive and serve but never forward.
    pub free_riders: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl DisseminationConfig {
    fn base(gossip: GossipConfig) -> Self {
        DisseminationConfig {
            peers: 100,
            gossip,
            workload: PayloadWorkload::default(),
            network: NetworkConfig::lan(102),
            orderer: OrdererConfig::kafka(BatchConfig::paper_dissemination()),
            idle_tail: Duration::from_secs(500),
            orgs: 1,
            free_riders: 0,
            seed: 1,
        }
    }

    /// Figures 4, 5 and 6: the original Fabric gossip baseline.
    pub fn fig04_06_original() -> Self {
        Self::base(GossipConfig::original_fabric())
    }

    /// Figures 7, 8 and 9: enhanced gossip, `fout = 4`, `TTL = 9`.
    pub fn fig07_09_enhanced_f4() -> Self {
        Self::base(GossipConfig::enhanced_f4())
    }

    /// Figure 10: enhanced gossip with `f_leader_out = fout = 4` (the
    /// leader-overload ablation).
    pub fn fig10_heavy_leader() -> Self {
        Self::base(GossipConfig::enhanced_heavy_leader())
    }

    /// Figure 11: enhanced gossip without digests. The paper aborts this
    /// configuration after ≈160 s; 100 blocks cover the same span.
    pub fn fig11_no_digests() -> Self {
        let mut cfg = Self::base(GossipConfig::enhanced_no_digests());
        cfg.workload = PayloadWorkload::shortened(5_000); // 100 blocks
        cfg.idle_tail = Duration::from_secs(20);
        cfg
    }

    /// Figures 12, 13 and 14: enhanced gossip, `fout = 2`, `TTL = 19`.
    pub fn fig12_14_enhanced_f2() -> Self {
        Self::base(GossipConfig::enhanced_f2())
    }

    /// Scales the run down to `total_txs` transactions (tests, examples,
    /// quick benches). 50 transactions = one block.
    pub fn scaled(mut self, total_txs: usize) -> Self {
        self.workload.total_txs = total_txs;
        self.idle_tail = Duration::from_secs(20);
        self
    }

    /// The "regular peer chosen at random" of the bandwidth figures: the
    /// last *forwarding* peer — free riders sit at the high end of the
    /// roster and never forward, so sampling one would chart a peer that
    /// sends nothing.
    ///
    /// # Panics
    ///
    /// Panics when the free riders leave no forwarding peer besides the
    /// leader (peer 0) and the endorser (peer 1).
    pub fn regular_peer(&self) -> PeerId {
        let forwarding = self.peers.saturating_sub(self.free_riders);
        assert!(
            forwarding > 2,
            "{} free riders among {} peers leave no forwarding peer besides the leader and \
             the endorser",
            self.free_riders,
            self.peers
        );
        PeerId(forwarding as u32 - 1)
    }

    /// The deployment [`run_dissemination`] runs: the payload schedule
    /// over one channel of `peers`, free riders marked, drained 40 s past
    /// the last transaction and then through the idle tail.
    pub fn deployment(&self) -> Deployment {
        let mut params = NetParams::new(self.peers, self.gossip.clone(), self.orderer.clone());
        // Dissemination blocks carry 50 padded transactions; validation at
        // the paper's conflict-experiment cost would saturate peers, and
        // the paper does not report it as a factor here — keep it light
        // but nonzero.
        params.validation_per_tx = Duration::from_micros(300);
        params.endorsers = vec![PeerId(1)];
        params.full_ledgers = false;
        params.orgs = self.orgs;

        assert!(
            self.free_riders < self.peers,
            "at least one peer must forward"
        );
        let schedule = payload_schedule(&self.workload);
        let mut d = Deployment::new(params, schedule, &self.network, self.seed, DRAIN);
        d.idle_tail = self.idle_tail;
        for i in (self.peers - self.free_riders)..self.peers {
            d.net.set_forwarding(i, false);
        }
        d
    }
}

/// What a dissemination run produces.
#[derive(Debug)]
pub struct DisseminationResult {
    /// Blocks cut and disseminated.
    pub blocks: u64,
    /// Fraction of (block, peer) deliveries that happened (1.0 = every
    /// peer received every block).
    pub completeness: f64,
    /// Fastest/median/slowest peer CDFs (Figs. 4/7/12).
    pub peer_extremes: Option<Extremes>,
    /// Fastest/median/slowest block CDFs (Figs. 5/8/13).
    pub block_extremes: Option<Extremes>,
    /// Leader vs regular peer bandwidth (Figs. 6/9/10/11/14), background
    /// included.
    pub bandwidth: BandwidthComparison,
    /// Dissemination bytes sent by all peers (no background), in MB.
    pub peer_traffic_mb: f64,
    /// Bytes sent by the leader peer alone (no background), in MB.
    pub leader_sent_mb: f64,
    /// Bytes sent by the sampled regular peer (no background), in MB.
    pub regular_sent_mb: f64,
    /// Per-message-kind statistics.
    pub kinds: Vec<(String, KindStats)>,
    /// Simulation events processed (performance accounting).
    pub events: u64,
    /// The raw latency matrix for custom analysis.
    pub latency: LatencyRecorder,
}

impl DisseminationResult {
    /// Pooled latency CDF over every (block, peer) delivery.
    pub fn pooled_cdf(&self) -> gossip_metrics::cdf::Cdf {
        let peers = self.latency.all_peer_cdfs();
        let mut all = Vec::new();
        for c in peers {
            all.extend_from_slice(c.samples());
        }
        gossip_metrics::cdf::Cdf::new(all)
    }
}

/// Runs one dissemination experiment to completion.
pub fn run_dissemination(cfg: &DisseminationConfig) -> DisseminationResult {
    let d = cfg.deployment();
    let active_end = d.drain_until - (DRAIN - ACTIVE_AFTER_LAST_ISSUE);
    let sim = d.run();
    let end = sim.now();

    let bucket_secs = sim.metrics().bucket_width().as_secs_f64();
    let leader_node = NodeId(0);
    let regular_node = NodeId(cfg.regular_peer().0);
    let leader = BandwidthSeries::new(
        "leader peer",
        sim.metrics().utilization_mbps(leader_node, end),
        bucket_secs,
    )
    .with_background(BACKGROUND_MBPS);
    let regular = BandwidthSeries::new(
        "regular peer",
        sim.metrics().utilization_mbps(regular_node, end),
        bucket_secs,
    )
    .with_background(BACKGROUND_MBPS);
    let active_buckets = (active_end.as_secs_f64() / bucket_secs).ceil() as usize;

    let peer_traffic_mb = (0..cfg.peers)
        .map(|i| sim.metrics().total_sent(NodeId(i as u32)))
        .sum::<u64>() as f64
        / 1e6;
    let leader_sent_mb = sim.metrics().total_sent(leader_node) as f64 / 1e6;
    let regular_sent_mb = sim.metrics().total_sent(regular_node) as f64 / 1e6;
    let kinds: Vec<(String, KindStats)> = sim
        .metrics()
        .kinds()
        .map(|(k, v)| (k.to_owned(), v))
        .collect();
    let events = sim.events_processed();

    let net = sim.into_protocol();
    let latency = net.latency().clone();
    DisseminationResult {
        blocks: net.blocks_cut(),
        completeness: latency.completeness(),
        peer_extremes: latency.peer_extremes(),
        block_extremes: latency.block_extremes(),
        bandwidth: BandwidthComparison {
            leader,
            regular,
            active_buckets,
        },
        peer_traffic_mb,
        leader_sent_mb,
        regular_sent_mb,
        kinds,
        events,
        latency,
    }
}

/// What one block's push phase did on one seed of [`run_one_block`]:
/// coverage, and the counters summed over peers.
#[derive(Debug, Clone, Copy)]
pub struct OneBlock {
    /// Peers holding the block when the run ends, the leader included.
    pub covered: usize,
    /// Full-block sends.
    pub blocks_sent: u64,
    /// Push digests sent.
    pub digests_sent: u64,
    /// Push digests received.
    pub digests_received: u64,
    /// Content fetches (push requests) issued.
    pub fetch_requests: u64,
    /// Pull rounds started.
    pub pull_rounds: u64,
}

/// The runs of [`run_one_block`], one per seed, with the statistics the
/// closed forms predict.
#[derive(Debug, Clone)]
pub struct OneBlockRuns {
    /// Roster size.
    pub peers: usize,
    /// One entry per seed, in seed order.
    pub runs: Vec<OneBlock>,
}

impl OneBlockRuns {
    /// Mean of `f` over the runs.
    pub fn mean(&self, f: impl Fn(&OneBlock) -> f64) -> f64 {
        self.runs.iter().map(f).sum::<f64>() / self.runs.len() as f64
    }

    /// Population standard deviation of `f` over the runs.
    pub fn std_dev(&self, f: impl Fn(&OneBlock) -> f64) -> f64 {
        let mean = self.mean(&f);
        self.mean(|r| (f(r) - mean).powi(2)).sqrt()
    }

    /// Share of runs in which some peer never received the block.
    pub fn miss_share(&self) -> f64 {
        self.mean(|r| if r.covered < self.peers { 1.0 } else { 0.0 })
    }
}

/// The setting of the paper's closed forms on the one simulator: a static
/// roster of `network.nodes` peers under `gossip`'s push phase, one
/// ≈ 160 KB block handed to the leader, one second run, once per seed.
///
/// Only push moves the block. Pull is switched off, and recovery,
/// StateInfo and alive rounds come once an hour (each at a random phase in
/// it), so within the second none of them can carry the block.
pub fn run_one_block(
    gossip: &GossipConfig,
    network: &NetworkConfig,
    seeds: Range<u64>,
) -> OneBlockRuns {
    let hour = Duration::from_secs(3600);
    let mut gossip = gossip.clone();
    gossip.pull = None;
    gossip.recovery.interval = hour;
    gossip.recovery.state_info_interval = hour;
    gossip.membership.alive_interval = hour;
    let peers = network.nodes;
    let roster: Vec<PeerId> = (0..peers as u32).map(PeerId).collect();
    let block = BlockRef::new(Block::new(1, Block::genesis().hash(), vec![]).with_padding(160_000));
    let runs = seeds
        .map(|seed| {
            let mut net = ScenarioNet::new(network.clone(), vec![roster.clone()], &gossip, seed);
            net.inject(0, block.clone());
            net.run_for(Duration::from_secs(1));
            let sum = |f: fn(&PeerStats) -> u64| -> u64 {
                (0..peers).map(|i| f(net.gossip(i).stats())).sum()
            };
            OneBlock {
                covered: (0..peers).filter(|&i| net.gossip(i).store().has(1)).count(),
                blocks_sent: sum(|s| s.blocks_sent),
                digests_sent: sum(|s| s.digests_sent),
                digests_received: sum(|s| s.digests_received),
                fetch_requests: sum(|s| s.fetch_requests),
                pull_rounds: sum(|s| s.pull_rounds),
            }
        })
        .collect();
    OneBlockRuns { peers, runs }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(cfg: DisseminationConfig, txs: usize) -> DisseminationResult {
        let mut cfg = cfg.scaled(txs);
        cfg.peers = 40;
        cfg.network = NetworkConfig::lan(42);
        run_dissemination(&cfg)
    }

    #[test]
    fn enhanced_run_delivers_every_block_fast() {
        let res = quick(DisseminationConfig::fig07_09_enhanced_f4(), 500);
        assert_eq!(res.blocks, 10);
        assert_eq!(res.completeness, 1.0, "every peer must receive every block");
        assert_eq!(res.latency.block_count(), 10);
        let slowest = res.block_extremes.as_ref().unwrap().slowest.1.max();
        assert!(
            slowest < Duration::from_millis(800),
            "enhanced tail should be sub-second, got {slowest}"
        );
    }

    #[test]
    fn original_run_completes_but_with_a_heavy_tail() {
        let res = quick(DisseminationConfig::fig04_06_original(), 500);
        assert_eq!(
            res.completeness, 1.0,
            "pull must eventually deliver everything"
        );
        let slowest = res.block_extremes.as_ref().unwrap().slowest.1.max();
        assert!(
            slowest > Duration::from_millis(900),
            "original tail should span into the pull phase, got {slowest}"
        );
    }

    #[test]
    fn enhanced_beats_original_on_tail_latency_and_bandwidth() {
        let orig = quick(DisseminationConfig::fig04_06_original(), 1000);
        let enh = quick(DisseminationConfig::fig07_09_enhanced_f4(), 1000);
        let orig_tail = orig.pooled_cdf().quantile(0.999);
        let enh_tail = enh.pooled_cdf().quantile(0.999);
        assert!(
            enh_tail * 5 < orig_tail,
            "p99.9: enhanced {enh_tail} vs original {orig_tail}"
        );
        assert!(
            enh.peer_traffic_mb < orig.peer_traffic_mb * 0.75,
            "traffic: enhanced {:.1} MB vs original {:.1} MB",
            enh.peer_traffic_mb,
            orig.peer_traffic_mb
        );
    }

    #[test]
    fn heavy_leader_ablation_shows_the_imbalance() {
        let mut fair_ratios = Vec::new();
        let mut heavy_ratios = Vec::new();
        for seed in 1..=5 {
            let run = |mut cfg: DisseminationConfig| {
                cfg.seed = seed;
                quick(cfg, 600)
            };
            let fair = run(DisseminationConfig::fig07_09_enhanced_f4());
            let heavy = run(DisseminationConfig::fig10_heavy_leader());
            // With f_leader_out = 1 the leader injects each block once;
            // with f_leader_out = fout = 4 it injects four copies on top of
            // its regular forwarding share — on every seed.
            assert!(
                heavy.leader_sent_mb > fair.leader_sent_mb * 1.7,
                "seed {seed}: f_leader_out = fout must overload the leader's egress: \
                 fair {:.1} MB vs heavy {:.1} MB",
                fair.leader_sent_mb,
                heavy.leader_sent_mb
            );
            fair_ratios.push(fair.bandwidth.leader_ratio());
            heavy_ratios.push(heavy.bandwidth.leader_ratio());
        }
        // And the leader-vs-regular utilization gap widens as in Fig. 10.
        // The ratio is over one regular peer's egress, so a single
        // trajectory can land either way; the median over seeds cannot.
        let median = |v: &mut Vec<f64>| {
            v.sort_unstable_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (fair, heavy) = (median(&mut fair_ratios), median(&mut heavy_ratios));
        assert!(
            heavy > fair,
            "median utilization ratio: fair {fair:.2} {fair_ratios:.2?} vs \
             heavy {heavy:.2} {heavy_ratios:.2?}"
        );
    }

    #[test]
    fn no_digest_ablation_blows_up_traffic() {
        let with = quick(DisseminationConfig::fig07_09_enhanced_f4(), 600);
        let without = quick(DisseminationConfig::fig11_no_digests(), 600);
        assert!(
            without.peer_traffic_mb > with.peer_traffic_mb * 3.0,
            "no digests: {:.1} MB vs with digests: {:.1} MB",
            without.peer_traffic_mb,
            with.peer_traffic_mb
        );
    }

    #[test]
    fn the_regular_peer_is_never_a_free_rider_the_leader_or_the_endorser() {
        // 0 / 10 / 30 % riders of the paper's 100 peers. The parent sampled
        // `peers - 1`, which lies inside the rider range whenever that
        // range is non-empty.
        for free_riders in [0, 10, 30] {
            let mut cfg = DisseminationConfig::fig07_09_enhanced_f4();
            cfg.free_riders = free_riders;
            let regular = cfg.regular_peer().index();
            assert_eq!(regular, cfg.peers - free_riders - 1);
            assert!(!((cfg.peers - free_riders)..cfg.peers).contains(&regular));
            assert!(regular > 1, "neither the leader nor the endorser");
        }
        assert_eq!(
            DisseminationConfig::fig04_06_original().regular_peer(),
            PeerId(99),
            "unchanged without riders"
        );
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let a = quick(DisseminationConfig::fig07_09_enhanced_f4(), 300);
        let b = quick(DisseminationConfig::fig07_09_enhanced_f4(), 300);
        assert_eq!(a.events, b.events);
        assert_eq!(a.peer_traffic_mb, b.peer_traffic_mb);
        let qa = a.pooled_cdf().quantile(0.5);
        let qb = b.pooled_cdf().quantile(0.5);
        assert_eq!(qa, qb);
    }
}
