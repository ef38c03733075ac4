//! Runtime channel churn over the full transaction pipeline: waves of
//! joiners and leavers plus a flash crowd, with convergence measured end
//! to end.
//!
//! The paper evaluates gossip on live Fabric channels where peers join,
//! catch up from the channel via StateInfo + recovery, and leave. One
//! configuration, [`ChurnWavesConfig`], drives all of it against the
//! channel-routed pipeline (client → endorser → orderer → leader →
//! gossip): C side channels churn in **waves** — at every wave instant,
//! W fresh peers join each side channel (announcing themselves through
//! their own heartbeats) while the W most senior sitting members, the
//! current leader included, leave (silently: the sitting members must
//! detect each departure by alive-timeout expiry) — and side channel 1
//! additionally absorbs a **flash crowd** of F simultaneous joiners. The
//! stable default channel carries the main payload workload throughout,
//! the control group, so discovery traffic competes with block
//! dissemination for the same links — the bandwidth contention Wang &
//! Chu's bottleneck analysis of Fabric flags as first-order.
//!
//! Two presets:
//!
//! * [`ChurnWavesConfig::standard`] — discovery itself, at timers a
//!   deployment could run: two waves of two per side channel and a flash
//!   crowd of three (the `churn_waves` benchmark workload);
//! * [`ChurnWavesConfig::late_joiner`] — the pipeline's reaction to
//!   churn, with discovery's timers tightened out of the picture: one
//!   side channel, one late joiner catching up to the join-time head,
//!   then the leader leaving (one hand-off) as one more peer joins.
//!   [`ChurnWavesConfig::with_snapshots`] makes its joiners bootstrap
//!   from a checkpoint snapshot; `long_chain` sweeps that against
//!   genesis replay.
//!
//! Reported per run, in the [`ChurnResult`] /
//! [`render_churn`](crate::churn::render_churn) format:
//!
//! * **join convergence** — join → every sitting member's view includes
//!   the joiner, plus the ledger catch-up latency;
//! * **stale-view duration** — leave → the last member reaps the leaver;
//! * **leader-gap windows** — leader leave → successor claim (by
//!   discovery seniority, not callback);
//! * **fairness** — per-channel Jain over member bytes *including*
//!   discovery overhead, with the discovery byte share broken out.

use desim::{Duration, NetworkConfig, Time};
use fabric_gossip::config::GossipConfig;
use fabric_orderer::cutter::BatchConfig;
use fabric_orderer::service::OrdererConfig;
use fabric_types::ids::{ChannelId, PeerId};
use fabric_types::transaction::EndorsementPolicy;
use fabric_workload::schedule::{
    merge_schedules, payload_schedule, retarget_schedule, PayloadWorkload, ScheduledInvocation,
};

use crate::churn::ChurnResult;
pub use crate::churn::DISCOVERY_KINDS;
use crate::deployment::Deployment;
use crate::net::{ChannelSpec, ChurnAction, ChurnEvent, NetParams};

/// Everything a churn-waves run needs.
#[derive(Debug, Clone)]
pub struct ChurnWavesConfig {
    /// Number of churned side channels (`ChannelId(1)..=ChannelId(C)`);
    /// the stable default channel spans the whole deployment.
    pub side_channels: usize,
    /// Initial members per side channel (contiguous id blocks).
    pub side_members: usize,
    /// Join/leave wave pairs per side channel.
    pub waves: usize,
    /// Joiners *and* leavers per wave per channel.
    pub wave_size: usize,
    /// Time between waves (must exceed the discovery convergence time or
    /// the waves pile up).
    pub wave_interval: Duration,
    /// When the first wave hits.
    pub first_wave_at: Time,
    /// Flash-crowd size: this many peers join side channel 1 at once.
    pub flash_crowd: usize,
    /// When the flash crowd hits.
    pub flash_at: Time,
    /// Gossip configuration (must run protocol discovery; see
    /// [`ChurnWavesConfig::standard`] for the tuned preset).
    pub gossip: GossipConfig,
    /// Ordering service configuration, shared by every channel's chain.
    pub orderer: OrdererConfig,
    /// The stable main channel's workload.
    pub main_workload: PayloadWorkload,
    /// Each side channel's workload.
    pub side_workload: PayloadWorkload,
    /// Physical network model.
    pub network: NetworkConfig,
    /// Drain window after the last scheduled transaction.
    pub drain: Duration,
    /// Simulation seed.
    pub seed: u64,
}

impl ChurnWavesConfig {
    /// The standard waves shape over `side_channels` × `side_members`
    /// with `blocks` blocks per channel: two waves of two, a flash crowd
    /// of three on channel 1, discovery tuned for convergence within a
    /// wave interval (500 ms heartbeats, 700 ms anti-entropy, 3 s alive
    /// timeout) and recovery tightened (2 s rounds, 64-block batches) so
    /// catch-up completes at bench scale. The plan is checked when the
    /// deployment is built ([`ChurnWavesConfig::validate`]).
    pub fn standard(side_channels: usize, side_members: usize, blocks: u64) -> Self {
        let mut gossip = GossipConfig::enhanced_f4().with_discovery_protocol();
        gossip.membership.alive_interval = Duration::from_millis(500);
        gossip.discovery.anti_entropy_interval = Duration::from_millis(700);
        gossip.membership.alive_timeout = Duration::from_secs(3);
        gossip.recovery.interval = Duration::from_secs(2);
        gossip.recovery.batch_max = 64;
        let txs = (blocks * 50) as usize;
        let span = issue_span(blocks);
        let waves = 2;
        ChurnWavesConfig {
            side_channels,
            side_members,
            waves,
            wave_size: 2,
            wave_interval: Duration::from_secs_f64((span / (waves as f64 + 2.0)).max(8.0)),
            first_wave_at: Time::ZERO + Duration::from_secs_f64(span / 4.0),
            flash_crowd: 3,
            flash_at: Time::ZERO + Duration::from_secs_f64(span * 0.75),
            gossip,
            orderer: OrdererConfig::kafka(BatchConfig::paper_dissemination()),
            main_workload: PayloadWorkload::shortened(txs),
            side_workload: PayloadWorkload::shortened(txs),
            network: NetworkConfig::lan(0), // resized to the deployment below
            drain: Duration::from_secs(45),
            seed: 1,
        }
    }

    /// The late-joiner shape: one side channel of `side_members` and
    /// `blocks` blocks per channel. A flash crowd of one joins at a third
    /// of the issue span and catches up to the join-time head; at two
    /// thirds one wave of one removes the seated leader (peer 0), whose
    /// seat passes to peer 1, and adds one more joiner. Discovery's timers
    /// are tightened until they stop mattering (100 ms heartbeats, 200 ms
    /// anti-entropy, a 1 s alive timeout, next to 2 s recovery rounds):
    /// the run measures what the pipeline does with churn, not discovery.
    /// Drained 40 s past the last transaction; `side_members` must be at
    /// least 2 (the side channel keeps its endorser and needs a successor
    /// to the leader).
    pub fn late_joiner(side_members: usize, blocks: u64) -> Self {
        let span = issue_span(blocks);
        let mut cfg = ChurnWavesConfig {
            waves: 1,
            wave_size: 1,
            first_wave_at: Time::ZERO + Duration::from_secs_f64(2.0 * span / 3.0),
            flash_crowd: 1,
            flash_at: Time::ZERO + Duration::from_secs_f64(span / 3.0),
            drain: Duration::from_secs(40),
            ..Self::standard(1, side_members, blocks)
        };
        cfg.gossip.membership.alive_interval = Duration::from_millis(100);
        cfg.gossip.discovery.anti_entropy_interval = Duration::from_millis(200);
        cfg.gossip.membership.alive_timeout = Duration::from_secs(1);
        cfg
    }

    /// Turns on checkpoint snapshots every `interval` blocks. The
    /// deployment then keeps a ledger on every member, so a joiner
    /// bootstraps from the freshest served export (streamed as bounded
    /// chunks) and replays only the tail.
    pub fn with_snapshots(mut self, interval: u64) -> Self {
        self.gossip = self.gossip.with_snapshots(interval);
        self
    }

    /// Total peers the plan needs: the side-channel blocks, one reserved
    /// joiner per (wave, channel, slot), and the flash crowd.
    pub fn peers(&self) -> usize {
        self.side_channels * self.side_members
            + self.waves * self.side_channels * self.wave_size
            + self.flash_crowd
    }

    /// Initial members of side channel `c` (1-based): the contiguous
    /// block `[(c-1)·N, c·N)`.
    fn initial_members(&self, c: usize) -> Vec<PeerId> {
        let start = (c - 1) * self.side_members;
        (start..start + self.side_members)
            .map(|i| PeerId(i as u32))
            .collect()
    }

    /// The reserved joiner for wave `w`, channel `c` (1-based), slot `j`.
    fn wave_joiner(&self, w: usize, c: usize, j: usize) -> PeerId {
        let base = self.side_channels * self.side_members;
        let idx = (w * self.side_channels + (c - 1)) * self.wave_size + j;
        PeerId((base + idx) as u32)
    }

    /// The flash-crowd joiners (the tail of the peer range).
    fn flash_joiners(&self) -> Vec<PeerId> {
        let base = self.peers() - self.flash_crowd;
        (base..self.peers()).map(|i| PeerId(i as u32)).collect()
    }

    /// Checks the wave plan is feasible.
    ///
    /// # Panics
    ///
    /// Panics when a side channel would lose its endorser or all members,
    /// or when no side channel exists.
    pub fn validate(&self) {
        assert!(self.side_channels >= 1, "need at least one side channel");
        assert!(
            self.waves * self.wave_size < self.side_members,
            "waves would drain a side channel below its endorser"
        );
        assert!(
            self.side_members >= 2,
            "side channels need a leader and an endorser"
        );
    }

    /// The churn schedule the plan expands to: per wave and channel,
    /// `wave_size` joins (reserved peers) and `wave_size` leaves (the
    /// most senior sitting initial members — the current leader first;
    /// the endorser, pinned at the block's top id, never leaves), plus
    /// the flash crowd on channel 1.
    pub fn churn_events(&self) -> Vec<ChurnEvent> {
        let mut events = Vec::new();
        for w in 0..self.waves {
            let at = self.first_wave_at + self.wave_interval * w as u64;
            for c in 1..=self.side_channels {
                let channel = ChannelId(c as u16);
                let initial = self.initial_members(c);
                for j in 0..self.wave_size {
                    events.push(ChurnEvent {
                        at,
                        peer: self.wave_joiner(w, c, j),
                        channel,
                        action: ChurnAction::Join,
                    });
                    // Leavers walk the initial block from the senior end:
                    // wave w removes members w·W .. (w+1)·W, so every
                    // wave beheads the sitting leader.
                    events.push(ChurnEvent {
                        at,
                        peer: initial[w * self.wave_size + j],
                        channel,
                        action: ChurnAction::Leave,
                    });
                }
            }
        }
        for peer in self.flash_joiners() {
            events.push(ChurnEvent {
                at: self.flash_at,
                peer,
                channel: ChannelId(1),
                action: ChurnAction::Join,
            });
        }
        events
    }

    /// The deployment [`run_churn_waves`] runs: one payload schedule per
    /// channel, the side channels as contiguous id blocks, the wave plan
    /// as churn events, drained `drain` past the last transaction. With
    /// snapshots on, every member keeps a ledger, so any member can serve
    /// and install a checkpoint snapshot.
    ///
    /// # Panics
    ///
    /// Panics on an infeasible plan ([`ChurnWavesConfig::validate`]) or a
    /// gossip configuration without protocol discovery.
    pub fn deployment(&self) -> Deployment {
        self.validate();
        assert!(
            self.gossip.discovery.protocol,
            "churn_waves runs the discovery protocol; use ChurnWavesConfig::standard"
        );
        let mut params = NetParams::new(self.peers(), self.gossip.clone(), self.orderer.clone());
        params.validation_per_tx = Duration::from_micros(300);
        params.full_ledgers = self.gossip.snapshot.is_some();
        params.extra_channels = (1..=self.side_channels)
            .map(|c| {
                let members = self.initial_members(c);
                // The endorser sits at the top of the block: the wave plan
                // removes members from the senior (low-id) end, so the
                // endorser never leaves and blocks keep flowing.
                let endorser = *members.last().expect("side channels are non-empty");
                ChannelSpec {
                    channel: ChannelId(c as u16),
                    members,
                    orgs: 1,
                    endorsers: vec![endorser],
                    policy: EndorsementPolicy::AnyMember,
                }
            })
            .collect();
        params.churn = self.churn_events();
        Deployment::new(
            params,
            churned_schedule(&self.main_workload, &self.side_workload, self.side_channels),
            &self.network,
            self.seed,
            self.drain,
        )
    }
}

/// The main channel's payload schedule merged with `side_channels` copies
/// of the side workload, one per `ChannelId(1)..=ChannelId(side_channels)`
/// — the client traffic of every churn run. The side schedule is
/// generated once and copied per side channel.
fn churned_schedule(
    main: &PayloadWorkload,
    side: &PayloadWorkload,
    side_channels: usize,
) -> Vec<ScheduledInvocation> {
    let side = payload_schedule(side);
    let mut schedules = vec![payload_schedule(main)];
    for c in 1..=side_channels {
        schedules.push(retarget_schedule(side.clone(), ChannelId(c as u16)));
    }
    merge_schedules(schedules)
}

/// Seconds the client takes to issue `blocks` blocks of 50 transactions
/// at the payload workload's rate.
fn issue_span(blocks: u64) -> f64 {
    (blocks * 50) as f64 / PayloadWorkload::default().rate_per_sec
}

/// Runs one churn-waves experiment to completion.
///
/// # Panics
///
/// Panics on an invalid configuration (see [`ChurnWavesConfig::validate`]).
pub fn run_churn_waves(cfg: &ChurnWavesConfig) -> ChurnResult {
    ChurnResult::read_off(cfg.deployment().run())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(seed: u64) -> ChurnResult {
        let mut cfg = ChurnWavesConfig::standard(2, 8, 20);
        cfg.seed = seed;
        run_churn_waves(&cfg)
    }

    /// Both presets override discovery and recovery rounds; every delay
    /// they arm still fits on the engine's timing wheel ring.
    #[test]
    fn ring_holds_every_delay_the_churn_presets_arm() {
        let late = ChurnWavesConfig::late_joiner(10, 20)
            .with_snapshots(8)
            .gossip;
        let waves = ChurnWavesConfig::standard(2, 8, 20).gossip;
        for cfg in [late, waves] {
            for (name, delay) in cfg.timer_delays() {
                assert!(
                    delay.as_nanos() < desim::sched::HORIZON_NS,
                    "{name} = {delay:?} outgrows the ring"
                );
            }
        }
    }

    #[test]
    fn plan_reserves_distinct_joiners_and_never_drains_a_channel() {
        let cfg = ChurnWavesConfig::standard(2, 8, 20);
        assert_eq!(cfg.peers(), 2 * 8 + 2 * 2 * 2 + 3);
        let events = cfg.churn_events();
        let mut joiners: Vec<PeerId> = events
            .iter()
            .filter(|e| e.action == ChurnAction::Join)
            .map(|e| e.peer)
            .collect();
        let unique = {
            let mut u = joiners.clone();
            u.sort_unstable();
            u.dedup();
            u.len()
        };
        assert_eq!(unique, joiners.len(), "every joiner is a fresh peer");
        joiners.sort_unstable();
        // Joins and leaves balance per wave; the flash crowd is extra.
        let leaves = events
            .iter()
            .filter(|e| e.action == ChurnAction::Leave)
            .count();
        assert_eq!(joiners.len(), leaves + cfg.flash_crowd);
    }

    /// On every seed: every join and leave converges, a leave no sooner
    /// than the alive timeout; every wave beheads the side leader and one
    /// successor stands up after the timeout while blocks keep reaching
    /// the sitting members; the main channel never elects; the flash
    /// crowd catches up; and discovery bytes show in, without drowning,
    /// each channel's byte economy.
    #[test]
    fn the_waves_preset_keeps_its_guarantees() {
        let timeout = Duration::from_secs(3);
        for seed in [2, 3, 5] {
            let res = quick(seed);
            assert!(!res.convergence.is_empty());
            for r in &res.convergence {
                let lat = r.latency().unwrap_or_else(|| {
                    panic!(
                        "seed {seed}: unconverged {} of {} on {} (saw {:.2})",
                        if r.join { "join" } else { "leave" },
                        r.peer,
                        r.channel,
                        r.fraction_at(res.sim_end)
                    )
                });
                assert!(r.join || lat >= timeout, "a leave detected in {lat}");
            }
            for c in &res.channels[1..] {
                assert_eq!(c.handoffs, 2, "one hand-off per wave on {}", c.channel);
                assert_eq!(c.leader_gaps.len(), 2);
                for gap in &c.leader_gaps {
                    assert!(
                        *gap >= timeout && *gap < Duration::from_secs(10),
                        "a leader gap closes promptly after expiry: {gap}"
                    );
                }
                assert_eq!(c.leaders.len(), 1, "exactly one leader on {}", c.channel);
                assert_eq!(c.completeness, 1.0, "on {}", c.channel);
                assert!(c.p50 > Duration::ZERO);
            }
            assert_eq!(res.channels[0].handoffs, 0);
            assert!(res.channels[0].leader_gaps.is_empty());

            let flash = res.catchups.iter().filter(|c| c.channel == ChannelId(1));
            assert!(flash.count() >= 3, "flash crowd recorded");
            for cu in &res.catchups {
                assert!(cu.latency().is_some(), "{} on {}", cu.peer, cu.channel);
            }
            for c in &res.channels {
                let share = c.discovery_share();
                assert!(share > 0.0 && share < 0.9, "{}: {share}", c.channel);
            }
            assert_eq!(res.fairness.channels.len(), res.channels.len());
            assert!(res.fairness.overall_jain > 0.2);
        }
    }

    #[test]
    fn waves_are_deterministic_in_the_seed() {
        let a = quick(7);
        let b = quick(7);
        assert_eq!(a.events, b.events);
        let latencies = |r: &ChurnResult| -> Vec<Option<Duration>> {
            r.convergence.iter().map(|c| c.latency()).collect()
        };
        assert_eq!(latencies(&a), latencies(&b));
        assert_eq!(a.fairness.overall_jain, b.fairness.overall_jain);
    }

    /// The `churn_waves` benchmark workload's client schedule, pinned by
    /// content: FNV-1a over each merged row's `at` nanos, channel,
    /// chaincode and padding, and the key its endorsement writes against
    /// a fresh ledger's state.
    #[test]
    fn churned_schedule_content_is_pinned() {
        use std::sync::Arc;

        use fabric_ledger::ledger::Ledger;
        use fabric_types::ids::{ClientId, TxId};
        use fabric_types::msp::Msp;
        use fabric_workload::endorse_invocation;
        use fabric_workload::schedule::ChaincodeKind;

        let cfg = ChurnWavesConfig::standard(3, 16, 300);
        let rows = churned_schedule(&cfg.main_workload, &cfg.side_workload, cfg.side_channels);
        assert_eq!(rows.len(), 4 * 15_000);
        let msp = Arc::new(Msp::single_org(1));
        let ledger = Ledger::new(msp.clone(), EndorsementPolicy::single(PeerId(0)));
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (i, row) in rows.iter().enumerate() {
            eat(&row.at.as_nanos().to_le_bytes());
            eat(&row.channel.0.to_le_bytes());
            eat(&[match row.chaincode {
                ChaincodeKind::Increment => 0,
                ChaincodeKind::Payload => 1,
            }]);
            eat(&row.padding.to_le_bytes());
            let tx = endorse_invocation(
                row,
                TxId(i as u64),
                ClientId(0),
                PeerId(0),
                ledger.state(),
                &msp,
            )
            .expect("a fresh state endorses every row");
            for write in tx.rwset.writes.iter() {
                eat(write.key.as_bytes());
                eat(&[0xff]);
            }
        }
        assert_eq!(hash, 11_003_592_510_244_289_813);
    }
}
