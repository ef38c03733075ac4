//! Joiner catch-up cost as a function of chain height: genesis replay vs
//! snapshot bootstrap.
//!
//! The dissemination experiments measure steady state; this sweep measures
//! the **cost of entering late**. For each chain height in the sweep, the
//! same deployment runs twice — snapshots off (the joiner replays the
//! whole chain through recovery) and snapshots on (the joiner installs
//! the freshest full snapshot, streamed as bounded chunks, and replays
//! only the tail) — and the per-join [`Catchup`] record reports the
//! transfer bytes, the time-to-serving and the blocks actually replayed.
//! The snapshot run's ledgers also report what a *sitting* peer pays to be
//! able to serve: the bytes of its largest full export.
//!
//! The paper's enhancement makes steady-state dissemination fair and
//! cheap; this sweep shows the complementary claim for bootstrap: genesis
//! replay grows O(chain) in bytes and time, snapshot bootstrap O(tail) —
//! the gap widens as the chain grows.

use desim::Duration;

use crate::churn::{run_churn, ChurnConfig};
use crate::net::Catchup;

/// Total peers of each deployment.
const PEERS: usize = 12;
/// Initial members of the churned side channel.
const SIDE_MEMBERS: usize = 6;
/// Checkpoint cadence of the snapshot-on runs.
const CHECKPOINT_INTERVAL: u64 = 8;
/// Chunk size of the snapshot-on runs: no snapshot-transfer wire message
/// may exceed this many bytes. Far below the gossip default because the
/// sweep's states are tiny.
const CHUNK_SIZE: usize = 512;

/// The sweep: chain heights over a 12-peer deployment whose side channel
/// starts with 6 members, checkpoints every 8 blocks.
#[derive(Debug, Clone)]
pub struct LongChainConfig {
    /// Blocks the side channel cuts per sweep point (the joiner enters at
    /// two thirds of the run, so the head it chases grows with this).
    pub heights: Vec<u64>,
}

impl LongChainConfig {
    /// The standard sweep: 20 → 40 → 80 blocks.
    pub fn standard() -> Self {
        LongChainConfig {
            heights: vec![20, 40, 80],
        }
    }

    /// A two-point sweep for tests and quick runs.
    pub fn quick() -> Self {
        LongChainConfig {
            heights: vec![16, 32],
        }
    }
}

/// One sweep point: the same join measured under both bootstrap modes.
#[derive(Debug, Clone)]
pub struct LongChainRow {
    /// Blocks scheduled on the side channel at this sweep point.
    pub blocks: u64,
    /// The head the genesis-replay joiner chased (its catch-up target).
    pub genesis_target: u64,
    /// Catch-up transfer bytes of the genesis-replay joiner.
    pub genesis_bytes: u64,
    /// Join → serving the head, genesis replay.
    pub genesis_time_to_serving: Duration,
    /// Blocks the genesis-replay joiner received and replayed.
    pub genesis_blocks_replayed: u64,
    /// The head the snapshot-bootstrapped joiner chased.
    pub snapshot_target: u64,
    /// Catch-up transfer bytes of the snapshot-bootstrapped joiner
    /// (snapshot chunks + tail recovery).
    pub snapshot_bytes: u64,
    /// Join → serving the head, snapshot bootstrap.
    pub snapshot_time_to_serving: Duration,
    /// Blocks the snapshot-bootstrapped joiner replayed (the tail).
    pub snapshot_blocks_replayed: u64,
    /// Height the installed snapshot absorbed (0 = none was installed).
    pub snapshot_height: u64,
    /// Largest single snapshot-transfer wire message — bounded by the
    /// configured chunk size however large the state.
    pub max_msg_bytes: u64,
    /// Snapshot chunks the joiner accepted.
    pub chunks: u64,
    /// Transfers the joiner re-requested after a timeout or server loss
    /// (0 on a lossless sweep).
    pub resumes: u64,
    /// Largest full snapshot export a sitting endorser took — grows
    /// linearly with state size.
    pub full_bytes_per_checkpoint: u64,
}

/// What a sweep produces.
#[derive(Debug, Clone)]
pub struct LongChainResult {
    /// One row per sweep height, in sweep order.
    pub rows: Vec<LongChainRow>,
}

impl LongChainResult {
    /// Bytes growth factor across the sweep (last / first), per mode.
    /// The acceptance claim is `snapshot < genesis`: snapshot catch-up
    /// grows strictly slower than genesis replay as the chain grows.
    pub fn bytes_growth(&self) -> (f64, f64) {
        let first = self.rows.first().expect("sweep is non-empty");
        let last = self.rows.last().expect("sweep is non-empty");
        (
            last.genesis_bytes as f64 / first.genesis_bytes.max(1) as f64,
            last.snapshot_bytes as f64 / first.snapshot_bytes.max(1) as f64,
        )
    }

    /// Time-to-serving growth factor across the sweep (last / first).
    pub fn time_growth(&self) -> (f64, f64) {
        let first = self.rows.first().expect("sweep is non-empty");
        let last = self.rows.last().expect("sweep is non-empty");
        (
            last.genesis_time_to_serving.as_secs_f64()
                / first.genesis_time_to_serving.as_secs_f64().max(1e-9),
            last.snapshot_time_to_serving.as_secs_f64()
                / first.snapshot_time_to_serving.as_secs_f64().max(1e-9),
        )
    }
}

fn completed_catchup(catchups: &[Catchup], blocks: u64, mode: &str) -> Catchup {
    let cu = catchups
        .first()
        .unwrap_or_else(|| panic!("{mode} run at {blocks} blocks recorded no join"));
    assert!(
        cu.completed_at.is_some(),
        "{mode} catch-up at {blocks} blocks did not complete within the run"
    );
    cu.clone()
}

/// Runs the sweep: each height twice (snapshots off, snapshots on), same
/// seed and workload, one late joiner chasing the side channel's head.
///
/// # Panics
///
/// Panics when a catch-up fails to complete within its run — the sweep's
/// numbers would be meaningless.
pub fn run_long_chain(cfg: &LongChainConfig) -> LongChainResult {
    let mut rows = Vec::with_capacity(cfg.heights.len());
    for &blocks in &cfg.heights {
        let mut base = ChurnConfig::standard(PEERS, SIDE_MEMBERS, blocks);
        base.leader_leave_at = None;
        base.full_ledgers = true;
        // Join late so the chain the joiner faces scales with the
        // sweep: two thirds of the issue span (standard joins at one
        // third).
        let third = base.join_at.since(desim::Time::ZERO);
        base.join_at = desim::Time::ZERO + third * 2;
        // Catch-up must finish even at the tallest sweep point.
        base.drain = Duration::from_secs(60);

        let genesis = run_churn(&base);
        let g = completed_catchup(&genesis.catchups, blocks, "genesis");

        let mut snap_cfg = base.with_snapshots(CHECKPOINT_INTERVAL);
        snap_cfg.gossip.snapshot.as_mut().unwrap().chunk_size = CHUNK_SIZE;
        let snap_run = run_churn(&snap_cfg);
        let s = completed_catchup(&snap_run.catchups, blocks, "snapshot");
        // What a sitting endorser retained to be able to serve.
        let log = snap_run
            .net
            .ledger_on(1, ChurnConfig::side_channel())
            .expect("sitting members keep side-channel ledgers under full_ledgers")
            .retention_log();

        rows.push(LongChainRow {
            blocks,
            genesis_target: g.target,
            genesis_bytes: g.bytes,
            genesis_time_to_serving: g.latency().expect("checked above"),
            genesis_blocks_replayed: g.blocks_replayed,
            snapshot_target: s.target,
            snapshot_bytes: s.bytes,
            snapshot_time_to_serving: s.latency().expect("checked above"),
            snapshot_blocks_replayed: s.blocks_replayed,
            snapshot_height: s.snapshot_height,
            max_msg_bytes: s.max_msg_bytes,
            chunks: s.chunks,
            resumes: s.resumes,
            full_bytes_per_checkpoint: log.iter().map(|r| r.full_bytes).max().unwrap_or(0),
        });
    }
    LongChainResult { rows }
}

/// Plain-text rendering of a sweep, preset-report style.
pub fn render_long_chain(title: &str, result: &LongChainResult) -> String {
    let mut out = format!("== {title} (checkpoints every {CHECKPOINT_INTERVAL} blocks) ==\n");
    for r in &result.rows {
        out.push_str(&format!(
            "{:>4} blocks | genesis: head {:>4}, {:>8} B, {} to serving, {:>4} replayed | \
             snapshot: head {:>4}, {:>8} B, {} to serving, {:>4} replayed (floor {})\n",
            r.blocks,
            r.genesis_target,
            r.genesis_bytes,
            r.genesis_time_to_serving,
            r.genesis_blocks_replayed,
            r.snapshot_target,
            r.snapshot_bytes,
            r.snapshot_time_to_serving,
            r.snapshot_blocks_replayed,
            r.snapshot_height,
        ));
        out.push_str(&format!(
            "            | transfer: max msg {:>6} B, {:>3} chunks, {} resumes | \
             full export {:>6} B\n",
            r.max_msg_bytes, r.chunks, r.resumes, r.full_bytes_per_checkpoint,
        ));
    }
    let (gb, sb) = result.bytes_growth();
    let (gt, st) = result.time_growth();
    out.push_str(&format!(
        "growth last/first | bytes: genesis {gb:.2}x vs snapshot {sb:.2}x | \
         time-to-serving: genesis {gt:.2}x vs snapshot {st:.2}x\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::ids::ChannelId;

    fn sweep() -> LongChainResult {
        run_long_chain(&LongChainConfig::quick())
    }

    #[test]
    fn snapshot_bootstrap_beats_genesis_replay_at_every_height() {
        let res = sweep();
        assert_eq!(res.rows.len(), 2);
        // A full export is cut every second checkpoint, so the freshest
        // servable floor trails the head by less than two intervals
        // wherever the chain stands. Inside that bound the tail is a
        // sawtooth in the chain height — the bound is the claim, not a
        // ratio between two samples of it.
        let period = 2 * CHECKPOINT_INTERVAL;
        for r in &res.rows {
            assert!(r.genesis_target > 0, "the joiner must have a head to chase");
            assert!(
                r.genesis_blocks_replayed >= r.genesis_target,
                "{} blocks: genesis replay must pull the whole chain",
                r.blocks
            );
            assert!(
                r.snapshot_blocks_replayed <= period,
                "{} blocks: tail {} exceeds the full-export period {period}",
                r.blocks,
                r.snapshot_blocks_replayed
            );
            assert!(
                r.snapshot_height >= CHECKPOINT_INTERVAL,
                "{} blocks: no snapshot was installed (floor {})",
                r.blocks,
                r.snapshot_height
            );
            assert!(
                r.snapshot_blocks_replayed < r.genesis_blocks_replayed,
                "{} blocks: tail replay {} not below full replay {}",
                r.blocks,
                r.snapshot_blocks_replayed,
                r.genesis_blocks_replayed
            );
            assert!(
                r.snapshot_bytes < r.genesis_bytes,
                "{} blocks: snapshot bytes {} not below genesis bytes {}",
                r.blocks,
                r.snapshot_bytes,
                r.genesis_bytes
            );
        }
        let (genesis_bytes, _) = res.bytes_growth();
        assert!(
            genesis_bytes > 1.2,
            "the sweep must actually grow the genesis cost, got {genesis_bytes:.2}x"
        );
    }

    #[test]
    fn render_tabulates_both_modes_and_growth() {
        let res = sweep();
        let text = render_long_chain("long_chain", &res);
        eprintln!("{text}");
        assert!(text.contains("genesis:"));
        assert!(text.contains("snapshot:"));
        assert!(text.contains("transfer:"));
        assert!(text.contains("full export"));
        assert!(text.contains("growth last/first"));
        assert!(text.contains("to serving"));
    }

    #[test]
    fn chunking_bounds_the_wire_while_the_state_grows() {
        let res = sweep();
        for r in &res.rows {
            assert!(
                r.max_msg_bytes > 0 && r.max_msg_bytes as usize <= CHUNK_SIZE,
                "{} blocks: snapshot message {} exceeds the {CHUNK_SIZE} budget",
                r.blocks,
                r.max_msg_bytes,
            );
            assert!(r.chunks > 1, "the transfer must actually chunk");
            assert_eq!(r.resumes, 0, "a lossless LAN sweep needs no resumes");
        }
        // The state a joiner installs outgrows the chunk budget many
        // times over; the largest message does not move.
        let last = res.rows.last().unwrap();
        assert!(last.full_bytes_per_checkpoint as usize > 10 * CHUNK_SIZE);
    }

    #[test]
    fn full_exports_grow_with_the_chain() {
        let res = sweep();
        let first = res.rows.first().unwrap();
        let last = res.rows.last().unwrap();
        // Full exports track state size — the doubled chain costs
        // meaningfully more per checkpoint.
        assert!(
            last.full_bytes_per_checkpoint > first.full_bytes_per_checkpoint,
            "full exports must grow with the chain: {} vs {}",
            first.full_bytes_per_checkpoint,
            last.full_bytes_per_checkpoint
        );
    }

    #[test]
    fn joiner_state_is_byte_identical_across_bootstrap_modes() {
        // The determinism contract end to end, within one run: the side
        // endorser replays every block from genesis while the joiner
        // bootstraps from a snapshot — their checkpoint streams must agree
        // on every common height, and at equal final height their state
        // hashes are byte-identical.
        let mut base = ChurnConfig::standard(10, 5, 24);
        base.leader_leave_at = None;
        base.drain = Duration::from_secs(60);
        // Join at two thirds of the run so the chain is deep enough for a
        // checkpoint to exist and the joiner's lag to clear min_lag.
        let third = base.join_at.since(desim::Time::ZERO);
        base.join_at = desim::Time::ZERO + third * 2;
        let snap = run_churn(&base.clone().with_snapshots(8));
        let side = ChannelId(1);
        let joiner = snap.catchups[0].peer.index();

        let genesis_ledger = snap.net.ledger_on(1, side).expect("endorser ledger");
        let joiner_ledger = snap.net.ledger_on(joiner, side).expect("joiner ledger");
        assert_eq!(genesis_ledger.base_height(), 0, "the endorser replays all");
        assert!(
            joiner_ledger.base_height() > 1,
            "the joiner must have bootstrapped from a snapshot"
        );
        assert!(
            !joiner_ledger.checkpoints().is_empty(),
            "the joiner keeps checkpointing past the installed snapshot"
        );
        for cp in joiner_ledger.checkpoints() {
            assert!(
                genesis_ledger.checkpoints().contains(cp),
                "checkpoint at height {} diverged between replay and bootstrap",
                cp.height
            );
        }
        assert_eq!(
            genesis_ledger.height(),
            joiner_ledger.height(),
            "both must converge to the full chain within the drain window"
        );
        assert_eq!(
            genesis_ledger.state().state_hash(),
            joiner_ledger.state().state_hash(),
            "equal heights must hash to byte-identical states"
        );
    }
}
