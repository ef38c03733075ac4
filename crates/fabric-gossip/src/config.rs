//! Gossip configuration: the original Fabric parameters and the paper's
//! enhanced variants.
//!
//! Table I of the paper maps one-to-one onto fields here:
//!
//! | Enhancement | Field |
//! |---|---|
//! | Infect-upon-contagion push | [`PushMode::InfectUponContagion`] |
//! | Digests for the push phase | [`PushMode::InfectUponContagion::digests`] |
//! | Randomized initial gossiper | [`GossipConfig::f_leader_out`] ` = 1` |
//! | Removal of the pull component | [`GossipConfig::pull`] ` = None` |
//!
//! What has one value in every deployment is a named constant beside the
//! code that reads it, not a field: the infect-and-die burst of 10 blocks
//! (`push::PUSH_BURST`), the content-fetch retry policy of 500 ms and 5
//! attempts (`push::FETCH_TIMEOUT`, `push::FETCH_ATTEMPTS`), the pull
//! fan-in of 3 peers (`pull::FIN`), its 1 s digest wait
//! (`pull::DIGEST_WAIT`) and digest window of 64 blocks
//! (`pull::DIGEST_WINDOW`), and a snapshot request's first timeout of 8 s
//! (`recovery::SNAPSHOT_REQUEST_TIMEOUT`). Who leads is no setting either:
//! it follows the membership shape ([`DiscoveryConfig`]).

use desim::Duration;
use serde::{Deserialize, Serialize};

/// How the push phase forwards blocks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PushMode {
    /// Stock Fabric: a peer pushes a block once, on first reception, to
    /// `fout` random peers, then never again ("infect and die"). Newly
    /// received blocks wait in a buffer flushed after `tpush` or when it
    /// holds 10 blocks (Fabric's burst size); every flush shares one random
    /// target sample.
    InfectAndDie {
        /// Buffer flush timer (Fabric default: 10 ms).
        tpush: Duration,
    },
    /// The paper's protocol: a peer forwards a block once per *distinct
    /// counter value* it receives it with, until the counter reaches `ttl`.
    InfectUponContagion {
        /// Stop forwarding once a block's counter reaches this value.
        ttl: u32,
        /// Counters `<= ttl_direct` push the full block; larger counters
        /// push a digest first (ignored when `digests` is false).
        ttl_direct: u32,
        /// Whether to announce with digests instead of pushing full blocks.
        digests: bool,
        /// Forward buffering timer. The paper sets this to zero for data
        /// blocks to keep every `(block, counter)` pair on an independent
        /// random sample; nonzero values reproduce the bias ablation.
        tpush: Duration,
    },
}

/// Pull engine parameters (stock Fabric; removed by the enhanced protocol).
/// A round contacts `pull::FIN` = 3 peers and gathers digests for
/// `pull::DIGEST_WAIT` = 1 s (Fabric's `digestWaitTime`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PullConfig {
    /// Pull round period (Fabric: 4 s).
    pub tpull: Duration,
}

impl Default for PullConfig {
    fn default() -> Self {
        PullConfig {
            tpull: Duration::from_secs(4),
        }
    }
}

/// Recovery (anti-entropy/state transfer) parameters. Kept by both
/// protocols: it also serves crash recovery and late joiners.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryConfig {
    /// Recovery check period (Fabric: 10 s).
    pub interval: Duration,
    /// Maximum blocks per recovery request.
    pub batch_max: u64,
    /// StateInfo (ledger height metadata) broadcast period (Fabric: 4 s).
    pub state_info_interval: Duration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            interval: Duration::from_secs(10),
            batch_max: 16,
            state_info_interval: Duration::from_secs(4),
        }
    }
}

/// Membership heartbeat parameters (background "alive" traffic).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MembershipConfig {
    /// Alive heartbeat period (Fabric: 5 s), in either membership shape:
    /// the payload-less [`crate::messages::GossipMsg::Alive`] on a static
    /// roster, the [`crate::messages::GossipMsg::AliveMsg`] claim (and the
    /// expiry/reap sweep) under gossiped discovery.
    pub alive_interval: Duration,
    /// Under gossiped discovery, a peer unheard of for this long is
    /// reaped. Unread on a static roster.
    pub alive_timeout: Duration,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            alive_interval: Duration::from_secs(5),
            alive_timeout: Duration::from_secs(25),
        }
    }
}

/// Membership parameters: a roster fixed for the whole run, or gossiped
/// discovery. The shape also decides who leads — the peer that pulls
/// blocks from the ordering service.
///
/// When `protocol` is `false` (the default), the roster handed to a
/// channel at build time **is** its membership: nothing adds or removes a
/// peer at runtime, and the channel keeps the payload-less `Alive`
/// heartbeat as background liveness traffic — the static 100-peer
/// organization of the paper's figures. The roster minimum leads, for the
/// whole run and across reboots, with no failover (Fabric's `orgLeader`).
/// When `true`, the channel runs the
/// [`crate::discovery::DiscoveryEngine`]: periodic
/// [`crate::messages::GossipMsg::AliveMsg`] heartbeats carrying a
/// monotonic `(incarnation, seq)` pair, push–pull
/// `MembershipRequest`/`MembershipResponse` anti-entropy, and reaping of
/// peers silent for [`MembershipConfig::alive_timeout`] — joins and
/// leaves are *local consequences of received gossip*, and there is no
/// other way for membership to change. The most
/// senior live claim leads
/// ([`crate::discovery::DiscoveryEngine::self_is_most_senior`]), so a
/// reaped leader is succeeded: this is the failover path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiscoveryConfig {
    /// Run discovery as a gossip protocol; `false` freezes the membership
    /// at the build-time roster.
    pub protocol: bool,
    /// Anti-entropy (full membership view exchange) period.
    pub anti_entropy_interval: Duration,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            protocol: false,
            anti_entropy_interval: Duration::from_secs(4),
        }
    }
}

/// Snapshot-bootstrap parameters (checkpoints + snapshot transfer in the
/// recovery phase), present only when snapshots are on
/// ([`GossipConfig::snapshot`]).
///
/// Off by default: StateInfo broadcasts then carry no checkpoint and every
/// joiner catches up by block replay, byte-identical to the pre-snapshot
/// wire format. When on, StateInfo messages piggyback the sender's
/// latest [`fabric_types::Checkpoint`] (+40 wire bytes when present), and
/// a peer whose height trails the best advertised checkpoint by at least
/// one checkpoint `interval` requests the snapshot instead of replaying the
/// chain — O(state + tail) instead of O(chain). A steady-state straggler
/// less than one interval behind keeps the cheap block-recovery path.
///
/// The snapshot streams as [`fabric_types::snapshot::SnapshotChunk`]s of
/// at most `chunk_size` wire bytes, reassembled and verified by the
/// receiver and resumable from any server holding the same checkpoint.
/// A request in flight for `recovery::SNAPSHOT_REQUEST_TIMEOUT` (8 s,
/// doubling per failed attempt) gives its server up and resumes from a
/// different peer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotConfig {
    /// Checkpoint cadence in blocks: the embedding's ledger emits a
    /// checkpoint every `interval` blocks and exports the full snapshot it
    /// serves at the first checkpoint and every second one after it (see
    /// `fabric_ledger::ledger::SnapshotPolicy`). Also the lag (best
    /// advertised checkpoint height + 1 − own height) from which a peer
    /// prefers a snapshot over block replay.
    pub interval: u64,
    /// Upper bound on one snapshot-chunk message on the wire (envelope
    /// included). At least 128 bytes: a chunk must fit its header.
    pub chunk_size: usize,
}

/// Complete gossip-layer configuration for one peer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GossipConfig {
    /// Push fan-out for regular peers.
    pub fout: usize,
    /// Push fan-out of the leader peer when it receives a block from the
    /// ordering service. Stock Fabric uses `fout`; the enhanced protocol
    /// sets 1 and lets the chosen peer start the dissemination.
    pub f_leader_out: usize,
    /// Push phase behaviour.
    pub push: PushMode,
    /// Pull engine; `None` disables it (enhanced protocol).
    pub pull: Option<PullConfig>,
    /// Recovery / state transfer.
    pub recovery: RecoveryConfig,
    /// Membership heartbeats.
    pub membership: MembershipConfig,
    /// Gossiped discovery (off by default: the build-time roster is the
    /// membership, and its minimum the leader, as in the paper's
    /// evaluation).
    pub discovery: DiscoveryConfig,
    /// Snapshot bootstrap; `None` disables it (the default: wire format
    /// and golden traces are unchanged unless a deployment opts in).
    pub snapshot: Option<SnapshotConfig>,
}

impl GossipConfig {
    /// Stock Fabric v1.2 defaults: `fout = 3`, `tpush = 10 ms` infect-and-
    /// die push, `fin = 3` / `tpull = 4 s` pull, 10 s recovery.
    pub fn original_fabric() -> Self {
        GossipConfig {
            fout: 3,
            f_leader_out: 3,
            push: PushMode::InfectAndDie {
                tpush: Duration::from_millis(10),
            },
            pull: Some(PullConfig::default()),
            recovery: RecoveryConfig::default(),
            membership: MembershipConfig::default(),
            discovery: DiscoveryConfig::default(),
            snapshot: None,
        }
    }

    /// The paper's first enhanced configuration: `fout = ⌊ln 100⌋ = 4`,
    /// `TTL = 9`, `TTL_direct = 2` — imperfect-dissemination probability
    /// 1e-6 at n = 100. Pull removed, `f_leader_out = 1`, `tpush = 0`.
    pub fn enhanced_f4() -> Self {
        Self::enhanced(4, 9, 2)
    }

    /// The paper's second enhanced configuration: `fout = 2`, `TTL = 19`,
    /// `TTL_direct = 3` — same 1e-6 guarantee with smoother load.
    pub fn enhanced_f2() -> Self {
        Self::enhanced(2, 19, 3)
    }

    /// An enhanced configuration with explicit parameters.
    pub fn enhanced(fout: usize, ttl: u32, ttl_direct: u32) -> Self {
        GossipConfig {
            fout,
            f_leader_out: 1,
            push: PushMode::InfectUponContagion {
                ttl,
                ttl_direct,
                digests: true,
                tpush: Duration::ZERO,
            },
            pull: None,
            recovery: RecoveryConfig::default(),
            membership: MembershipConfig::default(),
            discovery: DiscoveryConfig::default(),
            snapshot: None,
        }
    }

    /// Flips discovery into protocol mode (see [`DiscoveryConfig`]):
    /// membership is then maintained by gossiped heartbeats and
    /// anti-entropy, and peers may join and leave at runtime.
    pub fn with_discovery_protocol(mut self) -> Self {
        self.discovery.protocol = true;
        self
    }

    /// Turns on snapshot bootstrap with checkpoints every `interval`
    /// blocks and 64 KiB chunks: a joiner more than one checkpoint behind
    /// takes the snapshot path, a steady-state straggler keeps cheap block
    /// recovery.
    pub fn with_snapshots(mut self, interval: u64) -> Self {
        self.snapshot = Some(SnapshotConfig {
            interval,
            chunk_size: 64 * 1024,
        });
        self
    }

    /// Figure 10's ablation: enhanced protocol but the leader keeps the
    /// full fan-out, overloading its NIC.
    pub fn enhanced_heavy_leader() -> Self {
        let mut cfg = Self::enhanced_f4();
        cfg.f_leader_out = cfg.fout;
        cfg
    }

    /// Figure 11's ablation: enhanced protocol without digests — every
    /// forward carries the full block, blowing bandwidth up by ~an order of
    /// magnitude.
    pub fn enhanced_no_digests() -> Self {
        let mut cfg = Self::enhanced_f4();
        if let PushMode::InfectUponContagion { digests, .. } = &mut cfg.push {
            *digests = false;
        }
        cfg
    }

    /// The TTL of the push phase (0 for infect-and-die).
    pub fn ttl(&self) -> u32 {
        match self.push {
            PushMode::InfectAndDie { .. } => 0,
            PushMode::InfectUponContagion { ttl, .. } => ttl,
        }
    }

    /// Every delay a channel instance under this configuration waits out,
    /// by name: its periodic rounds, the pull digest wait, the push flush
    /// and fetch retry, and a snapshot request's first timeout. The
    /// engine's timing wheel keeps a timer shorter than
    /// [`desim::sched::HORIZON_NS`] on its ring; a longer one waits in the
    /// far heap.
    pub fn timer_delays(&self) -> Vec<(&'static str, Duration)> {
        let tpush = match self.push {
            PushMode::InfectAndDie { tpush } | PushMode::InfectUponContagion { tpush, .. } => tpush,
        };
        let mut delays = vec![
            ("push.tpush", tpush),
            ("push::FETCH_TIMEOUT", crate::push::FETCH_TIMEOUT),
            ("recovery.interval", self.recovery.interval),
            (
                "recovery.state_info_interval",
                self.recovery.state_info_interval,
            ),
            ("membership.alive_interval", self.membership.alive_interval),
            (
                "discovery.anti_entropy_interval",
                self.discovery.anti_entropy_interval,
            ),
        ];
        if let Some(pull) = &self.pull {
            delays.push(("pull.tpull", pull.tpull));
            delays.push(("pull::DIGEST_WAIT", crate::pull::DIGEST_WAIT));
        }
        if self.snapshot.is_some() {
            delays.push((
                "recovery::SNAPSHOT_REQUEST_TIMEOUT",
                crate::recovery::SNAPSHOT_REQUEST_TIMEOUT,
            ));
        }
        delays
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.fout == 0 {
            return Err("fout must be positive".into());
        }
        if self.f_leader_out == 0 {
            return Err("f_leader_out must be positive".into());
        }
        if let PushMode::InfectUponContagion {
            ttl, ttl_direct, ..
        } = &self.push
        {
            if *ttl == 0 {
                return Err("TTL must be positive".into());
            }
            if ttl_direct > ttl {
                return Err(format!("TTL_direct {ttl_direct} exceeds TTL {ttl}"));
            }
        }
        if let Some(pull) = &self.pull {
            if crate::pull::DIGEST_WAIT >= pull.tpull {
                return Err("tpull must be longer than the 1 s digest wait".into());
            }
        }
        if self.recovery.interval.is_zero() || self.recovery.state_info_interval.is_zero() {
            return Err("recovery intervals must be positive".into());
        }
        if self.recovery.batch_max == 0 {
            return Err("recovery batch_max must be positive".into());
        }
        if self.membership.alive_interval.is_zero() {
            return Err("alive interval must be positive".into());
        }
        if self.discovery.anti_entropy_interval.is_zero() {
            return Err("discovery anti-entropy interval must be positive".into());
        }
        if self.discovery.protocol && self.membership.alive_timeout.is_zero() {
            return Err("alive timeout must be positive under discovery".into());
        }
        if let Some(snapshot) = &self.snapshot {
            if snapshot.interval == 0 {
                return Err("snapshot checkpoint interval must be positive".into());
            }
            if snapshot.chunk_size < 128 {
                return Err("snapshot chunk_size must be at least 128 bytes".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_presets_validate() {
        assert!(GossipConfig::original_fabric().validate().is_ok());
        assert!(GossipConfig::enhanced_f4().validate().is_ok());
        assert!(GossipConfig::enhanced_f2().validate().is_ok());
        assert!(GossipConfig::enhanced_heavy_leader().validate().is_ok());
        assert!(GossipConfig::enhanced_no_digests().validate().is_ok());
    }

    #[test]
    fn presets_match_paper_parameters() {
        let orig = GossipConfig::original_fabric();
        assert_eq!(orig.fout, 3);
        assert_eq!(orig.f_leader_out, 3);
        assert!(matches!(orig.push, PushMode::InfectAndDie { .. }));
        assert_eq!(orig.pull.as_ref().unwrap().tpull, Duration::from_secs(4));
        assert_eq!(orig.recovery.interval, Duration::from_secs(10));

        let e4 = GossipConfig::enhanced_f4();
        assert_eq!(e4.fout, 4);
        assert_eq!(e4.f_leader_out, 1);
        assert_eq!(e4.ttl(), 9);
        assert!(e4.pull.is_none());

        let e2 = GossipConfig::enhanced_f2();
        assert_eq!(e2.fout, 2);
        assert_eq!(e2.ttl(), 19);
    }

    #[test]
    fn ablation_presets_flip_the_right_knob() {
        let heavy = GossipConfig::enhanced_heavy_leader();
        assert_eq!(heavy.f_leader_out, heavy.fout);
        let plain = GossipConfig::enhanced_no_digests();
        assert!(matches!(
            plain.push,
            PushMode::InfectUponContagion { digests: false, .. }
        ));
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = GossipConfig::original_fabric();
        c.fout = 0;
        assert!(c.validate().is_err());

        let mut c = GossipConfig::enhanced_f4();
        if let PushMode::InfectUponContagion { ttl_direct, .. } = &mut c.push {
            *ttl_direct = 100;
        }
        assert!(c.validate().is_err());

        let mut c = GossipConfig::original_fabric();
        c.pull.as_mut().unwrap().tpull = crate::pull::DIGEST_WAIT;
        assert!(c.validate().is_err());

        let mut c = GossipConfig::original_fabric();
        c.recovery.batch_max = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn discovery_defaults_to_a_static_roster_and_validates() {
        let cfg = GossipConfig::enhanced_f4();
        assert!(!cfg.discovery.protocol, "a static roster is the default");
        let proto = GossipConfig::enhanced_f4().with_discovery_protocol();
        assert!(proto.discovery.protocol);
        assert!(proto.validate().is_ok());

        let mut bad = GossipConfig::enhanced_f4().with_discovery_protocol();
        bad.membership.alive_interval = Duration::ZERO;
        assert!(bad.validate().is_err());
        let mut bad = GossipConfig::enhanced_f4();
        bad.discovery.anti_entropy_interval = Duration::ZERO;
        assert!(bad.validate().is_err());
        // A zero timeout would reap every member on every round; a static
        // roster never reads it.
        let mut bad = GossipConfig::enhanced_f4().with_discovery_protocol();
        bad.membership.alive_timeout = Duration::ZERO;
        assert!(bad.validate().is_err());
        let mut fine = GossipConfig::enhanced_f4();
        fine.membership.alive_timeout = Duration::ZERO;
        assert!(fine.validate().is_ok());
    }

    #[test]
    fn snapshots_default_off_and_builder_validates() {
        let cfg = GossipConfig::enhanced_f4();
        assert!(cfg.snapshot.is_none(), "wire format unchanged by default");
        let snap = GossipConfig::enhanced_f4().with_snapshots(16);
        assert_eq!(
            snap.snapshot,
            Some(SnapshotConfig {
                interval: 16,
                chunk_size: 64 * 1024
            })
        );
        assert!(snap.validate().is_ok());

        let mut bad = GossipConfig::enhanced_f4().with_snapshots(16);
        bad.snapshot.as_mut().unwrap().interval = 0;
        assert!(bad.validate().is_err());
        let mut bad = GossipConfig::enhanced_f4().with_snapshots(16);
        bad.snapshot.as_mut().unwrap().chunk_size = 64;
        assert!(
            bad.validate().is_err(),
            "a chunk must fit at least a header"
        );
        bad.snapshot.as_mut().unwrap().chunk_size = 128;
        assert!(bad.validate().is_ok());
    }

    /// Every round and wait a preset arms fits on the engine's timing
    /// wheel ring: a preset that outgrows it fails here instead of sending
    /// its rounds through the far heap. The waits that are constants, not
    /// fields, are listed too.
    #[test]
    fn ring_holds_every_delay_a_preset_arms() {
        let names = |cfg: GossipConfig| -> Vec<&str> {
            cfg.timer_delays().into_iter().map(|(n, _)| n).collect()
        };
        assert!(names(GossipConfig::original_fabric()).contains(&"pull::DIGEST_WAIT"));
        let snap = names(GossipConfig::enhanced_f4().with_snapshots(16));
        assert!(snap.contains(&"recovery::SNAPSHOT_REQUEST_TIMEOUT"));
        assert!(
            !snap.contains(&"pull::DIGEST_WAIT"),
            "the enhanced preset runs no pull"
        );
        let presets = [
            GossipConfig::original_fabric(),
            GossipConfig::enhanced_f4(),
            GossipConfig::enhanced_f2(),
            GossipConfig::enhanced_heavy_leader(),
            GossipConfig::enhanced_no_digests(),
            GossipConfig::original_fabric().with_discovery_protocol(),
            GossipConfig::enhanced_f4()
                .with_discovery_protocol()
                .with_snapshots(16),
        ];
        for cfg in presets {
            for (name, delay) in cfg.timer_delays() {
                assert!(
                    delay.as_nanos() < desim::sched::HORIZON_NS,
                    "{name} = {delay:?} outgrows the ring"
                );
            }
        }
    }

    #[test]
    fn ttl_is_zero_for_infect_and_die() {
        assert_eq!(GossipConfig::original_fabric().ttl(), 0);
        assert_eq!(GossipConfig::enhanced_f2().ttl(), 19);
    }
}
