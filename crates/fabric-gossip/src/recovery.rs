//! State transfer: StateInfo heights, block recovery and snapshot bootstrap.
//!
//! StateInfo height metadata and the recovery (anti-entropy) rounds keep
//! every peer's ledger converging regardless of who leads — including
//! across organization boundaries (§III of the paper). Under snapshot
//! bootstrap a peer far behind the best advertised checkpoint fetches the
//! snapshot in chunks instead of replaying the chain.
//!
//! The engine owns only recovery-private state; everything shared lives in
//! the [`ChannelCore`] passed into every entry point.

use std::collections::BTreeSet;

use desim::{Duration, Time};
use rand::RngExt;

use fabric_types::ids::PeerId;
use fabric_types::snapshot::{Checkpoint, SnapshotAssembler, SnapshotChunk, SnapshotRef};

use crate::channel::ChannelCore;
use crate::effects::Effects;
use crate::messages::{GossipMsg, GossipTimer, ENVELOPE};
use crate::peertable::PeerTable;

/// How long a snapshot request stays in flight before the requester gives
/// the server up and resumes from a different peer. Doubles per failed
/// attempt (the fetch-retry idiom applied to bulk transfer).
pub(crate) const SNAPSHOT_REQUEST_TIMEOUT: Duration = Duration::from_secs(8);

/// One snapshot transfer in progress: the request this peer has in flight
/// and the partial assembly. The in-flight guard keeps every RecoveryRound
/// from re-requesting a multi-MB transfer that is merely still in transit;
/// the timeout (doubling per attempt) is what eventually routes around a
/// crashed, pruned or lying server.
#[derive(Debug)]
struct SnapshotTransfer {
    /// The peer the outstanding request went to.
    server: PeerId,
    /// When the outstanding request was sent.
    requested_at: Time,
    /// Requests sent for this transfer so far (drives the backoff).
    attempts: u32,
    /// Set when discovery reaped the server — treated as an instant
    /// timeout on the next round.
    server_gone: bool,
    /// Partial assembly; `None` until the first chunk arrives, and again
    /// after a completed assembly failed verification.
    assembler: Option<SnapshotAssembler>,
}

/// State-transfer state of one channel instance.
#[derive(Debug)]
pub struct RecoveryEngine {
    /// Last advertised ledger height per peer.
    peer_heights: PeerTable<u64>,
    /// Latest checkpoint advertised per peer (snapshot bootstrap only).
    peer_checkpoints: PeerTable<Checkpoint>,
    /// The snapshot transfer currently in flight, if any.
    inflight: Option<SnapshotTransfer>,
    /// Servers that timed out on this transfer — excluded from selection
    /// until the transfer completes or no candidate remains.
    failed_servers: BTreeSet<PeerId>,
}

impl RecoveryEngine {
    /// An engine for `core`'s channel instance: its per-peer tables span
    /// the channel-wide view, the only peers they ever record.
    pub fn new(core: &ChannelCore) -> Self {
        RecoveryEngine {
            peer_heights: core.channel_view.table(),
            peer_checkpoints: core.channel_view.table(),
            inflight: None,
            failed_servers: BTreeSet::new(),
        }
    }

    /// Drops what a process crash would lose — all of it: the height and
    /// checkpoint views and any half-finished snapshot transfer.
    pub fn clear_volatile(&mut self) {
        self.peer_heights.clear();
        self.peer_checkpoints.clear();
        self.inflight = None;
        self.failed_servers.clear();
    }

    /// `(dense slots, spilled rows, rows)` of the height and of the
    /// checkpoint view.
    #[cfg(test)]
    pub(crate) fn tables(&self) -> [(usize, usize, usize); 2] {
        [self.peer_heights.shape(), self.peer_checkpoints.shape()]
    }

    /// A peer advertised its ledger height (and, under snapshot bootstrap,
    /// possibly its latest checkpoint). Only channel members are recorded:
    /// the height table keeps each peer's maximum and a recovery round asks
    /// only the peers at the best height, so one advert from outside the
    /// channel would otherwise take every later round. It also bounds both
    /// tables by the channel view instead of by who writes in.
    pub fn on_state_info(
        &mut self,
        core: &ChannelCore,
        from: PeerId,
        height: u64,
        checkpoint: Option<Checkpoint>,
    ) {
        if !core.channel_view.contains(from) {
            return;
        }
        let entry = self.peer_heights.get_or_insert(from, 0);
        *entry = (*entry).max(height);
        if let Some(cp) = checkpoint {
            let held = self.peer_checkpoints.get_or_insert(from, cp);
            if cp.height > held.height {
                *held = cp;
            }
        }
    }

    /// The StateInfoRound timer: broadcast our height across the channel
    /// (piggybacking our latest checkpoint under snapshot bootstrap).
    pub fn on_state_info_round(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        let height = core.store.height();
        let checkpoint = core
            .cfg
            .snapshot
            .as_ref()
            .and(core.snapshot.as_ref())
            .map(|s| s.checkpoint);
        // StateInfo metadata crosses organization boundaries (§III).
        let targets = {
            let k = core.cfg.fout;
            core.channel_view.sample(fx.rng(), k)
        };
        for t in targets {
            core.send(fx, t, GossipMsg::StateInfo { height, checkpoint });
        }
        let interval = core.cfg.recovery.state_info_interval;
        core.schedule(fx, interval, GossipTimer::StateInfoRound);
    }

    /// The RecoveryRound timer: if somebody is ahead, ask one of the most
    /// advanced peers for the missing run. Under snapshot bootstrap, a peer
    /// lagging the best advertised checkpoint by at least one checkpoint
    /// [`crate::config::SnapshotConfig::interval`] requests the snapshot
    /// instead — O(state + tail) rather than O(chain) replay.
    pub fn on_recovery_round(&mut self, core: &mut ChannelCore, fx: &mut dyn Effects) {
        let my_height = core.store.height();
        if self.snapshot_round(core, fx, my_height) {
            let interval = core.cfg.recovery.interval;
            core.schedule(fx, interval, GossipTimer::RecoveryRound);
            return;
        }
        let best = self.peer_heights.values().copied().max().unwrap_or(0);
        if best > my_height {
            let candidates: Vec<PeerId> = self
                .peer_heights
                .iter()
                .filter(|(_, h)| **h == best)
                .map(|(p, _)| p)
                .collect();
            let pick = fx.rng().random_range(0..candidates.len());
            let target = candidates[pick];
            let to = (best - 1).min(my_height + core.cfg.recovery.batch_max - 1);
            core.send(
                fx,
                target,
                GossipMsg::RecoveryRequest {
                    from: my_height,
                    to,
                },
            );
        }
        let interval = core.cfg.recovery.interval;
        core.schedule(fx, interval, GossipTimer::RecoveryRound);
    }

    /// The snapshot half of a recovery round. Returns `true` when the
    /// round was consumed by the snapshot path — a transfer is in flight
    /// within its timeout, or a (re-)request just went out. Returns `false`
    /// to fall through to block recovery: snapshots are off, the lag
    /// trigger didn't fire, or no eligible server remains (every candidate
    /// timed out or departed, or the requested floor was pruned
    /// everywhere).
    fn snapshot_round(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        my_height: u64,
    ) -> bool {
        let Some(min_lag) = core.cfg.snapshot.as_ref().map(|s| s.interval) else {
            return false;
        };
        // Saturating: an advertised checkpoint at `u64::MAX` is a number
        // off the wire, not a reason to overflow.
        let trigger = move |cp_height: u64| cp_height.saturating_add(1) >= my_height + min_lag;
        let best_cp = self
            .peer_checkpoints
            .values()
            .map(|c| c.height)
            .max()
            .unwrap_or(0);
        if !trigger(best_cp) {
            return false;
        }
        // In-flight guard: while a request is pending and inside its
        // (doubling) timeout window, never re-send — a multi-MB response
        // in transit must not be requested again every round.
        if let Some(t) = &self.inflight {
            let backoff = 2u64.saturating_pow(t.attempts.saturating_sub(1).min(10));
            let timeout = SNAPSHOT_REQUEST_TIMEOUT * backoff;
            if !t.server_gone && fx.now().since(t.requested_at) < timeout {
                return true;
            }
            // Timed out (or the server was reaped): give the server up and
            // move the transfer elsewhere.
            self.failed_servers.insert(t.server);
        }
        // A partial assembly pins a checkpoint; its missing suffix
        // can only come from servers holding *exactly* that checkpoint
        // (chunk plans line up only at identical checkpoints).
        let pinned = self
            .inflight
            .as_ref()
            .and_then(|t| t.assembler.as_ref())
            .map(|a| a.checkpoint().height);
        let candidates_where = |ok: &dyn Fn(u64) -> bool| -> Vec<PeerId> {
            self.peer_checkpoints
                .iter()
                .filter(|(p, c)| ok(c.height) && !self.failed_servers.contains(p))
                .map(|(p, _)| p)
                .collect()
        };
        let mut resuming = false;
        let mut candidates = Vec::new();
        if let Some(h) = pinned {
            candidates = candidates_where(&|cp| cp == h);
            resuming = !candidates.is_empty();
        }
        if candidates.is_empty() {
            // Fresh request: spread uniformly over *every* peer clearing
            // the trigger floor, not just the best-checkpoint holders —
            // N joiners don't all pile onto one server.
            candidates = candidates_where(&trigger);
        }
        if candidates.is_empty() {
            // Nobody left to ask. Release the transfer and fall back to
            // block recovery; the blacklist resets so a later round can
            // try recovered servers afresh.
            self.inflight = None;
            self.failed_servers.clear();
            return false;
        }
        let pick = candidates[fx.rng().random_range(0..candidates.len())];
        let prior = self.inflight.take();
        if prior.is_some() {
            core.stats.snapshot_resumes += 1;
        }
        let (attempts, assembler) = match prior {
            Some(t) if resuming => (t.attempts + 1, t.assembler),
            Some(t) => (t.attempts + 1, None),
            None => (1, None),
        };
        let (height, from_chunk) = match &assembler {
            Some(a) if resuming => (a.checkpoint().height, a.first_missing()),
            _ => {
                let advertised = self.peer_checkpoints.get(pick);
                (advertised.expect("a candidate advertised").height, 0)
            }
        };
        core.send(fx, pick, GossipMsg::SnapshotRequest { height, from_chunk });
        self.inflight = Some(SnapshotTransfer {
            server: pick,
            requested_at: fx.now(),
            attempts,
            server_gone: false,
            assembler,
        });
        true
    }

    /// Serves a recovery request with a consecutive run from the store.
    pub fn on_recovery_request(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        from: PeerId,
        lo: u64,
        to: u64,
    ) {
        let blocks = core
            .store
            .consecutive_run(lo, to, core.cfg.recovery.batch_max);
        if !blocks.is_empty() {
            core.send(fx, from, GossipMsg::RecoveryResponse { blocks });
        }
    }

    /// Serves a snapshot request from the channel's retained snapshot.
    /// The served snapshot may be newer than the requested height (the
    /// server checkpointed again since advertising) — never older, so the
    /// requester always gains at least the height it asked for. The
    /// snapshot streams as chunk messages of at most
    /// [`crate::config::SnapshotConfig::chunk_size`] wire bytes, starting
    /// at the requested resume offset; a non-zero offset is only honored
    /// at an exact checkpoint match, since chunk plans of different
    /// checkpoints don't line up.
    pub fn on_snapshot_request(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        from: PeerId,
        height: u64,
        from_chunk: u32,
    ) {
        let (Some(snapshot), Some(cfg)) = (core.snapshot.clone(), &core.cfg.snapshot) else {
            return;
        };
        if snapshot.checkpoint.height < height {
            return;
        }
        if from_chunk > 0 && snapshot.checkpoint.height != height {
            return;
        }
        let budget = cfg.chunk_size.saturating_sub(ENVELOPE);
        let chunks = SnapshotChunk::plan(&snapshot, budget);
        if (from_chunk as usize) >= chunks.len() {
            return;
        }
        core.stats.snapshots_served += 1;
        for chunk in chunks.into_iter().skip(from_chunk as usize) {
            core.send(fx, from, GossipMsg::SnapshotChunk { chunk });
        }
    }

    /// One chunk arrived from `from`: absorb it into the in-flight
    /// transfer's assembly (pinning the checkpoint on the first chunk) and,
    /// once the plan is complete, reassemble, verify and install. Dropped
    /// without effect: chunks with no transfer in flight (e.g. arriving
    /// after install), chunks from a peer this transfer never asked — only
    /// the current server and the servers it already gave up on may feed
    /// it, so a stranger can neither complete a forged plan nor pin the
    /// assembly to a foreign checkpoint — and chunks that are stale,
    /// foreign to the pinned checkpoint, or duplicates.
    pub fn on_snapshot_chunk(
        &mut self,
        core: &mut ChannelCore,
        fx: &mut dyn Effects,
        from: PeerId,
        chunk: SnapshotChunk,
    ) {
        let Some(transfer) = &mut self.inflight else {
            return;
        };
        if from != transfer.server && !self.failed_servers.contains(&from) {
            return;
        }
        // Stale, or a height no chain reaches (the store cannot adopt it).
        let height = chunk.checkpoint().height;
        if height < core.store.height() || height == u64::MAX {
            return;
        }
        let accepted = match &mut transfer.assembler {
            Some(asm) => asm.accept(&chunk),
            None => {
                transfer.assembler = Some(SnapshotAssembler::new(&chunk));
                true
            }
        };
        if !accepted {
            return;
        }
        core.stats.snapshot_chunks_received += 1;
        let Some(snapshot) = transfer
            .assembler
            .as_ref()
            .and_then(SnapshotAssembler::assemble)
        else {
            return; // plan still incomplete
        };
        // Wrapped first, so the verdict is sealed in the handle the ledger
        // installs and the state is hashed once.
        let snapshot = SnapshotRef::new(snapshot);
        if !snapshot.verify() {
            // Entries don't hash to the checkpoint. Discard the assembly
            // but leave the request in flight: its timeout is what moves
            // the transfer off the server that fed it.
            transfer.assembler = None;
            return;
        }
        let run = core.store.adopt_snapshot(height);
        core.stats.snapshots_installed += 1;
        fx.snapshot_installed(core.channel, &snapshot);
        core.snapshot = Some(snapshot);
        self.inflight = None;
        self.failed_servers.clear();
        for block in run {
            fx.deliver(core.channel, block);
        }
    }

    /// Drops everything remembered about `peer` — its advertised height
    /// and checkpoint. A departed peer serving an in-flight snapshot
    /// transfer is marked gone, which the next recovery round treats as an
    /// instant timeout (resume elsewhere rather than waiting out the full
    /// window). Called when discovery reaps `peer`.
    pub fn forget_peer(&mut self, peer: PeerId) {
        self.peer_heights.remove(peer);
        self.peer_checkpoints.remove(peer);
        self.failed_servers.remove(&peer);
        if let Some(t) = &mut self.inflight {
            if t.server == peer {
                t.server_gone = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GossipConfig;
    use crate::testing::MockEffects;
    use fabric_types::block::{Block, BlockRef};
    use fabric_types::ids::ChannelId;

    fn core(self_id: u32) -> ChannelCore {
        ChannelCore::new(
            ChannelId::DEFAULT,
            PeerId(self_id),
            (0..4).map(PeerId).collect(),
            GossipConfig::enhanced_f4(),
        )
    }

    #[test]
    fn engine_alone_requests_recovery_from_the_highest_peer() {
        let mut c = core(1);
        let mut e = RecoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        e.on_state_info(&c, PeerId(2), 6, None);
        e.on_state_info(&c, PeerId(2), 4, None); // heights never regress
        e.on_recovery_round(&mut c, &mut fx);
        let sent = fx.take_sent();
        let req = sent
            .iter()
            .find(|(_, m)| matches!(m, GossipMsg::RecoveryRequest { .. }))
            .expect("a recovery request");
        assert_eq!(req.0, PeerId(2));
        assert!(matches!(
            req.1,
            GossipMsg::RecoveryRequest { from: 1, to: 5 }
        ));
        // A departed peer's height no longer drives recovery requests.
        e.forget_peer(PeerId(2));
        e.on_recovery_round(&mut c, &mut fx);
        assert!(
            !fx.take_sent()
                .iter()
                .any(|(_, m)| matches!(m, GossipMsg::RecoveryRequest { .. })),
            "no recovery request toward a departed peer"
        );
    }

    /// Small enough that the tiny test states span several chunks.
    const CHUNK: usize = 256;

    fn snapshot_cfg() -> GossipConfig {
        let mut cfg = GossipConfig::enhanced_f4().with_snapshots(8);
        cfg.snapshot.as_mut().unwrap().chunk_size = CHUNK;
        cfg
    }

    /// The chunk plan a server under [`snapshot_cfg`] streams.
    fn plan(snapshot: &SnapshotRef) -> Vec<SnapshotChunk> {
        SnapshotChunk::plan(snapshot, CHUNK - ENVELOPE)
    }

    /// Puts a transfer in flight toward `server`, the only peer
    /// advertising `snapshot`'s checkpoint.
    fn request_from(
        e: &mut RecoveryEngine,
        c: &mut ChannelCore,
        fx: &mut MockEffects,
        server: PeerId,
        snapshot: &SnapshotRef,
    ) {
        let cp = snapshot.checkpoint;
        e.on_state_info(c, server, cp.height + 1, Some(cp));
        e.on_recovery_round(c, fx);
        let sent = fx.take_sent();
        assert!(
            matches!(sent.as_slice(), [(to, GossipMsg::SnapshotRequest { .. })] if *to == server),
            "the transfer must be in flight toward {server}"
        );
    }

    fn test_snapshot(height: u64) -> SnapshotRef {
        use fabric_types::rwset::{Key, Value, Version};
        use fabric_types::snapshot::{hash_state_entries, Snapshot};
        let entries: Vec<_> = (0..height)
            .map(|i| {
                (
                    Key::from(format!("k{i}").as_str()),
                    Value::from_u64(i),
                    Version::new(i.max(1), 0),
                )
            })
            .collect();
        let state_hash = hash_state_entries(entries.iter().map(|(k, v, ver)| (k, v, *ver)));
        SnapshotRef::new(Snapshot {
            checkpoint: Checkpoint { height, state_hash },
            last_block_hash: fabric_types::crypto::Hash256([height as u8; 32]),
            entries,
        })
    }

    #[test]
    fn lagging_peer_requests_the_snapshot_instead_of_blocks() {
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_snapshots(8);
        let mut e = RecoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        let snap = test_snapshot(16);
        e.on_state_info(&c, PeerId(2), 17, Some(snap.checkpoint));
        e.on_recovery_round(&mut c, &mut fx);
        let sent = fx.take_sent();
        assert!(
            matches!(
                sent.as_slice(),
                [(
                    to,
                    GossipMsg::SnapshotRequest {
                        height: 16,
                        from_chunk: 0
                    }
                )] if *to == PeerId(2)
            ),
            "a fresh joiner far behind the checkpoint asks for the snapshot"
        );
        assert_eq!(c.stats.snapshot_requests, 1);
    }

    #[test]
    fn straggler_within_min_lag_keeps_block_recovery() {
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_snapshots(8);
        let mut e = RecoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        // Height 12 of 17: only 5 behind the checkpoint at 16 — under the
        // one-interval lag of 8 once the store is at 12.
        for n in 1..=11 {
            c.store.insert(BlockRef::new(Block::new(
                n,
                fabric_types::crypto::Hash256::ZERO,
                vec![],
            )));
        }
        assert_eq!(c.store.height(), 12);
        e.on_state_info(&c, PeerId(2), 17, Some(test_snapshot(16).checkpoint));
        e.on_recovery_round(&mut c, &mut fx);
        let sent = fx.take_sent();
        assert!(
            sent.iter()
                .any(|(_, m)| matches!(m, GossipMsg::RecoveryRequest { .. })),
            "a near straggler replays blocks, not the snapshot"
        );
        assert_eq!(c.stats.snapshot_requests, 0);
    }

    #[test]
    fn a_tampered_transfer_never_installs_and_resumes_elsewhere() {
        use desim::Duration;
        let mut c = core(1);
        c.cfg = snapshot_cfg();
        let mut e = RecoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        // Server 2 is asked (server 3 advertises the same checkpoint a
        // moment later) and answers with a plan whose entries no longer
        // hash to the checkpoint.
        let honest = test_snapshot(16);
        request_from(&mut e, &mut c, &mut fx, PeerId(2), &honest);
        e.on_state_info(&c, PeerId(3), 17, Some(honest.checkpoint));
        let mut forged = (*honest).clone();
        forged.entries[0].1 = fabric_types::rwset::Value::from_u64(999);
        for chunk in plan(&forged.into()) {
            e.on_snapshot_chunk(&mut c, &mut fx, PeerId(2), chunk);
        }
        assert_eq!(c.stats.snapshots_installed, 0);
        assert_eq!(c.store.height(), 1);
        assert!(fx.installed.is_empty());
        // The rejected assembly is gone but the request is still in
        // flight: no re-request inside the timeout, and past it the
        // transfer moves to the other server, from chunk 0.
        e.on_recovery_round(&mut c, &mut fx);
        assert!(fx.take_sent().is_empty());
        fx.advance(Duration::from_secs(10));
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_resumes, 1);
        assert!(matches!(
            fx.take_sent().as_slice(),
            [(to, GossipMsg::SnapshotRequest { height: 16, from_chunk: 0 })] if *to == PeerId(3)
        ));
        for chunk in plan(&honest) {
            e.on_snapshot_chunk(&mut c, &mut fx, PeerId(3), chunk);
        }
        assert_eq!(c.stats.snapshots_installed, 1);
    }

    /// Regression: the chunk handler ignored who sent a chunk, so with a
    /// transfer in flight a peer that was never asked could install a
    /// self-consistent snapshot of its own making as a single-chunk plan.
    #[test]
    fn a_stranger_cannot_complete_a_transfer_with_a_forged_snapshot() {
        let mut c = core(1);
        c.cfg = snapshot_cfg();
        let mut e = RecoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        request_from(&mut e, &mut c, &mut fx, PeerId(2), &test_snapshot(16));
        let forged = test_snapshot(1);
        assert!(forged.verify(), "the forgery is self-consistent");
        let forged = SnapshotChunk::plan(&forged, usize::MAX);
        assert_eq!(forged.len(), 1);
        for from in [PeerId(3), PeerId(77), PeerId(1)] {
            e.on_snapshot_chunk(&mut c, &mut fx, from, forged[0].clone());
        }
        assert_eq!(c.stats.snapshot_chunks_received, 0);
        assert_eq!(c.stats.snapshots_installed, 0);
        assert!(fx.installed.is_empty());
    }

    /// Regression, same cause: a stranger's chunk of a foreign checkpoint
    /// arriving first pinned the assembly, so the chunks of the server
    /// actually asked were rejected until the timeout blacklisted it.
    #[test]
    fn a_stranger_cannot_pin_the_assembly_to_a_foreign_checkpoint() {
        let mut c = core(1);
        c.cfg = snapshot_cfg();
        let mut e = RecoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        let snap = test_snapshot(16);
        request_from(&mut e, &mut c, &mut fx, PeerId(2), &snap);
        let foreign = plan(&test_snapshot(24));
        assert!(foreign.len() > 1, "one chunk must not complete the plan");
        e.on_snapshot_chunk(&mut c, &mut fx, PeerId(3), foreign[0].clone());
        for chunk in plan(&snap) {
            e.on_snapshot_chunk(&mut c, &mut fx, PeerId(2), chunk);
        }
        assert_eq!(c.stats.snapshots_installed, 1);
        assert_eq!(c.store.snapshot_floor(), 16);
    }

    #[test]
    fn empty_candidate_set_falls_back_to_block_recovery_instead_of_panicking() {
        // Regression: the lag trigger can still fire once every server that
        // advertised the checkpoint has failed or departed, leaving an
        // empty candidate list. The old code indexed a random element of it
        // and panicked; the round must instead fall through to block
        // recovery.
        use desim::Duration;
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_snapshots(8);
        let mut e = RecoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        let cp = test_snapshot(16).checkpoint;
        e.on_state_info(&c, PeerId(2), 17, Some(cp));
        e.on_state_info(&c, PeerId(3), 17, Some(cp));
        e.on_recovery_round(&mut c, &mut fx);
        let asked = fx.take_sent()[0].0;
        let other = if asked == PeerId(2) {
            PeerId(3)
        } else {
            PeerId(2)
        };
        // The other server departs; the one asked never answers.
        e.forget_peer(other);
        fx.advance(Duration::from_secs(10));
        e.on_recovery_round(&mut c, &mut fx); // must not panic
        assert_eq!(c.stats.snapshot_requests, 1, "nobody left to ask");
        assert!(
            fx.take_sent()
                .iter()
                .any(|(to, m)| *to == asked
                    && matches!(m, GossipMsg::RecoveryRequest { from: 1, .. })),
            "the round falls through to block recovery"
        );
    }

    #[test]
    fn inflight_guard_suppresses_request_storms_and_duplicate_installs() {
        use desim::Duration;
        let mut c = core(1);
        c.cfg = snapshot_cfg();
        let mut e = RecoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        let snap = test_snapshot(16);
        e.on_state_info(&c, PeerId(2), 17, Some(snap.checkpoint));
        e.on_state_info(&c, PeerId(3), 17, Some(snap.checkpoint));
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_requests, 1);
        let first_server = fx.take_sent()[0].0;
        // Rounds firing inside the request timeout re-send nothing — the
        // multi-MB response may simply still be in transit.
        for _ in 0..5 {
            fx.advance(Duration::from_secs(1));
            e.on_recovery_round(&mut c, &mut fx);
            assert!(fx.take_sent().is_empty(), "no duplicate request storm");
        }
        assert_eq!(c.stats.snapshot_requests, 1);
        // Past the timeout the transfer moves to the *other* eligible
        // server (the first is held failed) and counts as a resume.
        fx.advance(Duration::from_secs(10));
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_requests, 2);
        assert_eq!(c.stats.snapshot_resumes, 1);
        let sent = fx.take_sent();
        let retry = sent
            .iter()
            .find(|(_, m)| matches!(m, GossipMsg::SnapshotRequest { .. }))
            .expect("a retried snapshot request");
        assert_ne!(retry.0, first_server, "retry avoids the failed server");
        // Both servers eventually answer. The late chunks of the server
        // given up on still count (it was asked in this transfer); exactly
        // one install results and the straggler plan is dropped whole.
        let chunks = plan(&snap);
        e.on_snapshot_chunk(&mut c, &mut fx, first_server, chunks[0].clone());
        for chunk in &chunks {
            e.on_snapshot_chunk(&mut c, &mut fx, retry.0, chunk.clone());
        }
        assert_eq!(c.stats.snapshots_installed, 1);
        for chunk in &chunks[1..] {
            e.on_snapshot_chunk(&mut c, &mut fx, first_server, chunk.clone());
        }
        assert_eq!(c.stats.snapshots_installed, 1, "duplicate install dropped");
        assert_eq!(c.stats.snapshot_chunks_received, chunks.len() as u64);
        // Caught up: the next round has nothing snapshot-shaped to do.
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_requests, 2);
    }

    #[test]
    fn chunked_serving_bounds_message_size_and_reassembly_installs_once() {
        use desim::Message;
        // Server side: nothing to serve until a snapshot is retained; then
        // it streams as chunks, none larger on the wire than the
        // configured chunk size, whatever older height was asked for.
        let mut sc = core(2);
        sc.cfg = snapshot_cfg();
        let mut server = RecoveryEngine::new(&sc);
        let mut sfx = MockEffects::new(2);
        server.on_snapshot_request(&mut sc, &mut sfx, PeerId(1), 8, 0);
        assert!(sfx.take_sent().is_empty());
        let snap = test_snapshot(16);
        sc.snapshot = Some(snap.clone());
        server.on_snapshot_request(&mut sc, &mut sfx, PeerId(1), 8, 0);
        let sent = sfx.take_sent();
        assert!(sent.len() > 1, "a 16-entry snapshot needs several chunks");
        for (to, m) in &sent {
            assert_eq!(*to, PeerId(1));
            assert!(matches!(m, GossipMsg::SnapshotChunk { .. }));
            assert!(m.wire_size() <= CHUNK, "chunk message exceeds chunk_size");
        }
        assert_eq!(sc.stats.snapshots_served, 1);
        // Not served: a height above what is held, an offset past the end
        // of the plan, and a resume offset at any checkpoint but the exact
        // one the plan was cut from (pruned/advanced servers stay silent).
        for (height, from_chunk) in [(24, 0), (u64::MAX, u32::MAX), (16, u32::MAX), (8, 2)] {
            server.on_snapshot_request(&mut sc, &mut sfx, PeerId(1), height, from_chunk);
        }
        assert!(sfx.take_sent().is_empty());
        assert_eq!(sc.stats.snapshots_served, 1);

        // Joiner side: request in flight, chunks arrive out of order,
        // exactly one verified install results and the buffered tail
        // block above the snapshot becomes deliverable.
        let mut c = core(1);
        c.cfg = snapshot_cfg();
        let mut e = RecoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        c.store.insert(BlockRef::new(Block::new(
            17,
            fabric_types::crypto::Hash256::ZERO,
            vec![],
        )));
        // Unsolicited chunks (no transfer in flight) are dropped.
        if let GossipMsg::SnapshotChunk { chunk } = &sent[0].1 {
            e.on_snapshot_chunk(&mut c, &mut fx, PeerId(2), chunk.clone());
        }
        assert_eq!(c.stats.snapshot_chunks_received, 0);
        request_from(&mut e, &mut c, &mut fx, PeerId(2), &snap);
        for (_, m) in sent.iter().rev() {
            if let GossipMsg::SnapshotChunk { chunk } = m {
                e.on_snapshot_chunk(&mut c, &mut fx, PeerId(2), chunk.clone());
                // Replays of an already-absorbed chunk don't count twice.
                e.on_snapshot_chunk(&mut c, &mut fx, PeerId(2), chunk.clone());
            }
        }
        assert_eq!(c.stats.snapshot_chunks_received, sent.len() as u64);
        assert_eq!(c.stats.snapshots_installed, 1);
        assert_eq!(fx.installed.len(), 1, "embedding hook fired");
        assert_eq!(c.store.snapshot_floor(), 16);
        assert_eq!(c.store.height(), 18, "floor 16 plus the buffered 17");
        assert_eq!(fx.delivered_numbers(), vec![17]);
        assert!(
            c.snapshot.as_ref().is_some_and(|s| **s == *snap),
            "the installed snapshot is re-servable"
        );
        // A stale plan arriving over a later transfer changes nothing.
        request_from(&mut e, &mut c, &mut fx, PeerId(3), &test_snapshot(32));
        for chunk in plan(&test_snapshot(8)) {
            e.on_snapshot_chunk(&mut c, &mut fx, PeerId(3), chunk);
        }
        assert_eq!(c.stats.snapshots_installed, 1);
        assert_eq!(c.store.height(), 18);
    }

    #[test]
    fn partial_transfer_resumes_its_missing_suffix_from_another_server() {
        use desim::Duration;
        let mut c = core(1);
        c.cfg = snapshot_cfg();
        let mut e = RecoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        let snap = test_snapshot(16);
        e.on_state_info(&c, PeerId(2), 17, Some(snap.checkpoint));
        e.on_state_info(&c, PeerId(3), 17, Some(snap.checkpoint));
        e.on_recovery_round(&mut c, &mut fx);
        let first_server = fx.take_sent()[0].0;
        let chunks = plan(&snap);
        assert!(chunks.len() > 2);
        // The server crashes mid-stream: only the first two chunks land.
        for chunk in chunks.iter().take(2) {
            e.on_snapshot_chunk(&mut c, &mut fx, first_server, chunk.clone());
        }
        assert_eq!(c.stats.snapshots_installed, 0);
        fx.advance(Duration::from_secs(10));
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_resumes, 1);
        let sent = fx.take_sent();
        let (to, m) = sent
            .iter()
            .find(|(_, m)| matches!(m, GossipMsg::SnapshotRequest { .. }))
            .expect("a resume request");
        assert_ne!(*to, first_server, "the resume goes to a different server");
        assert!(
            matches!(
                m,
                GossipMsg::SnapshotRequest {
                    height: 16,
                    from_chunk: 2
                }
            ),
            "the resume asks for the first missing chunk, not the whole plan"
        );
        // The suffix arrives from the second server; the partial assembly
        // completes and installs exactly once.
        for chunk in chunks.iter().skip(2) {
            e.on_snapshot_chunk(&mut c, &mut fx, *to, chunk.clone());
        }
        assert_eq!(c.stats.snapshots_installed, 1);
        assert_eq!(c.store.snapshot_floor(), 16);
        assert_eq!(c.stats.snapshot_chunks_received, chunks.len() as u64);
    }

    #[test]
    fn pruned_floor_everywhere_falls_back_to_block_recovery() {
        use desim::Duration;
        // The only checkpoint holder pruned the export this joiner wants:
        // it serves nothing, the transfer times out, and with no eligible
        // server left the round falls back cleanly to block recovery.
        let mut c = core(1);
        c.cfg = snapshot_cfg();
        let mut e = RecoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        e.on_state_info(&c, PeerId(2), 17, Some(test_snapshot(16).checkpoint));
        e.on_state_info(&c, PeerId(3), 17, None);
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_requests, 1);
        fx.take_sent();
        fx.advance(Duration::from_secs(10));
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_requests, 1, "no snapshot retry loop");
        assert!(
            fx.take_sent()
                .iter()
                .any(|(_, m)| matches!(m, GossipMsg::RecoveryRequest { .. })),
            "blocks flow even though the snapshot floor is gone"
        );
    }

    #[test]
    fn departed_server_releases_the_transfer_without_waiting_out_the_timeout() {
        let mut c = core(1);
        c.cfg = GossipConfig::enhanced_f4().with_snapshots(8);
        let mut e = RecoveryEngine::new(&c);
        let mut fx = MockEffects::new(1);
        let snap = test_snapshot(16);
        e.on_state_info(&c, PeerId(2), 17, Some(snap.checkpoint));
        e.on_state_info(&c, PeerId(3), 17, Some(snap.checkpoint));
        e.on_recovery_round(&mut c, &mut fx);
        let first_server = fx.take_sent()[0].0;
        // The serving peer is reaped: its checkpoint is forgotten and the
        // very next round re-requests elsewhere — no waiting out the
        // request timeout for a peer known to be gone.
        e.forget_peer(first_server);
        e.on_recovery_round(&mut c, &mut fx);
        assert_eq!(c.stats.snapshot_requests, 2);
        assert_eq!(c.stats.snapshot_resumes, 1);
        let sent = fx.take_sent();
        let retry = sent
            .iter()
            .find(|(_, m)| matches!(m, GossipMsg::SnapshotRequest { .. }))
            .expect("an immediate re-request");
        assert_ne!(retry.0, first_server);
    }
}
