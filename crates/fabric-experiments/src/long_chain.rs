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
//! able to serve: the bytes of the export it serves, its newest
//! checkpoint's.
//!
//! The paper's enhancement makes steady-state dissemination fair and
//! cheap; this sweep shows the complementary claim for bootstrap: genesis
//! replay grows O(chain) in bytes and time, snapshot bootstrap O(tail) —
//! the gap widens as the chain grows.

use desim::Duration;
use fabric_types::ids::ChannelId;

use crate::churn_waves::{run_churn_waves, ChurnWavesConfig};
use crate::net::Catchup;

/// Initial members of the churned side channel (peers `0..6`, endorser
/// peer 5); peer 6 joins it late.
const SIDE_MEMBERS: usize = 6;
/// Checkpoint cadence of the snapshot-on runs.
const CHECKPOINT_INTERVAL: u64 = 8;
/// Chunk size of the snapshot-on runs: no snapshot-transfer wire message
/// may exceed this many bytes. Far below the gossip default because the
/// sweep's states are tiny.
const CHUNK_SIZE: usize = 512;

/// The sweep: chain heights over a 7-peer deployment whose side channel
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
    /// The genesis-replay joiner's catch-up: the head it chased, the
    /// bytes it received, the blocks it replayed.
    pub genesis: Catchup,
    /// The snapshot-bootstrapped joiner's catch-up: the same, plus the
    /// installed floor, the largest transfer message (bounded by the
    /// chunk size however large the state), chunks and resumes.
    pub snapshot: Catchup,
    /// The snapshot export a sitting endorser serves at the end of the
    /// run (its newest checkpoint's, the largest) — grows linearly with
    /// state size.
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
    /// Genesis replay grows with the chain; snapshot bytes are the state
    /// plus a tail that is a sawtooth in the chain height (shorter than a
    /// checkpoint interval, but still whole blocks), so their ratio
    /// between two sweep points is a sample of that sawtooth, not a
    /// growth rate.
    pub fn bytes_growth(&self) -> (f64, f64) {
        let first = self.rows.first().expect("sweep is non-empty");
        let last = self.rows.last().expect("sweep is non-empty");
        (
            last.genesis.bytes as f64 / first.genesis.bytes.max(1) as f64,
            last.snapshot.bytes as f64 / first.snapshot.bytes.max(1) as f64,
        )
    }

    /// Time-to-serving growth factor across the sweep (last / first).
    pub fn time_growth(&self) -> (f64, f64) {
        let first = self.rows.first().expect("sweep is non-empty");
        let last = self.rows.last().expect("sweep is non-empty");
        let growth = |first: &Catchup, last: &Catchup| {
            serving(last).as_secs_f64() / serving(first).as_secs_f64().max(1e-9)
        };
        (
            growth(&first.genesis, &last.genesis),
            growth(&first.snapshot, &last.snapshot),
        )
    }
}

/// Join → serving the head of a catch-up the sweep saw complete.
fn serving(cu: &Catchup) -> Duration {
    cu.latency().expect("a sweep row holds completed catch-ups")
}

/// One late join and nothing else: the late-joiner preset without its
/// wave (so the leader stays seated), the joiner entering at two thirds
/// of the issue span, where the wave would have hit, so the chain it
/// faces scales with `blocks`, and a 60 s drain so catch-up finishes
/// even at the tallest sweep point.
fn one_late_join(side_members: usize, blocks: u64) -> ChurnWavesConfig {
    let mut cfg = ChurnWavesConfig::late_joiner(side_members, blocks);
    cfg.waves = 0;
    cfg.flash_at = cfg.first_wave_at;
    cfg.drain = Duration::from_secs(60);
    cfg
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
        let base = one_late_join(SIDE_MEMBERS, blocks);
        let genesis = run_churn_waves(&base);
        let genesis = completed_catchup(&genesis.catchups, blocks, "genesis");

        let mut snap_cfg = base.with_snapshots(CHECKPOINT_INTERVAL);
        snap_cfg.gossip.snapshot.as_mut().unwrap().chunk_size = CHUNK_SIZE;
        let snap_run = run_churn_waves(&snap_cfg);
        let snapshot = completed_catchup(&snap_run.catchups, blocks, "snapshot");
        // What the sitting endorser exports to be able to serve: its
        // newest checkpoint's, the largest, as the state only grows.
        let served = snap_run
            .net
            .ledger_on(SIDE_MEMBERS - 1, ChannelId(1))
            .expect("the endorser keeps a side-channel ledger")
            .snapshot();

        rows.push(LongChainRow {
            blocks,
            genesis,
            snapshot,
            full_bytes_per_checkpoint: served.map_or(0, |s| s.wire_size() as u64),
        });
    }
    LongChainResult { rows }
}

/// Plain-text rendering of a sweep, preset-report style.
pub fn render_long_chain(title: &str, result: &LongChainResult) -> String {
    let mut out = format!("== {title} (checkpoints every {CHECKPOINT_INTERVAL} blocks) ==\n");
    for r in &result.rows {
        let (g, s) = (&r.genesis, &r.snapshot);
        out.push_str(&format!(
            "{:>4} blocks | genesis: head {:>4}, {:>8} B, {} to serving, {:>4} replayed | \
             snapshot: head {:>4}, {:>8} B, {} to serving, {:>4} replayed (floor {})\n",
            r.blocks,
            g.target,
            g.bytes,
            serving(g),
            g.blocks_replayed,
            s.target,
            s.bytes,
            serving(s),
            s.blocks_replayed,
            s.snapshot_height,
        ));
        out.push_str(&format!(
            "            | transfer: max msg {:>6} B, {:>3} chunks, {} resumes | \
             full export {:>6} B\n",
            s.max_msg_bytes, s.chunks, s.resumes, r.full_bytes_per_checkpoint,
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

    fn sweep() -> LongChainResult {
        run_long_chain(&LongChainConfig::quick())
    }

    #[test]
    fn snapshot_bootstrap_beats_genesis_replay_at_every_height() {
        let res = sweep();
        assert_eq!(res.rows.len(), 2);
        // Every checkpoint is the export it serves, so the freshest
        // servable floor trails the head by at most one interval wherever
        // the chain stands. Inside that bound the tail is a sawtooth in
        // the chain height — the bound is the claim, not a ratio between
        // two samples of it.
        let period = CHECKPOINT_INTERVAL;
        for r in &res.rows {
            assert!(r.genesis.target > 0, "the joiner must have a head to chase");
            assert!(
                r.genesis.blocks_replayed >= r.genesis.target,
                "{} blocks: genesis replay must pull the whole chain",
                r.blocks
            );
            assert!(
                r.snapshot.blocks_replayed <= period,
                "{} blocks: tail {} exceeds the checkpoint interval {period}",
                r.blocks,
                r.snapshot.blocks_replayed
            );
            assert!(
                r.snapshot.snapshot_height >= CHECKPOINT_INTERVAL,
                "{} blocks: no snapshot was installed (floor {})",
                r.blocks,
                r.snapshot.snapshot_height
            );
            assert!(
                r.snapshot.blocks_replayed < r.genesis.blocks_replayed,
                "{} blocks: tail replay {} not below full replay {}",
                r.blocks,
                r.snapshot.blocks_replayed,
                r.genesis.blocks_replayed
            );
            assert!(
                r.snapshot.bytes < r.genesis.bytes,
                "{} blocks: snapshot bytes {} not below genesis bytes {}",
                r.blocks,
                r.snapshot.bytes,
                r.genesis.bytes
            );
        }
        let (genesis_bytes, _) = res.bytes_growth();
        assert!(
            genesis_bytes > 1.2,
            "the sweep must actually grow the genesis cost, got {genesis_bytes:.2}x"
        );
    }

    /// The 40-block point of the standard sweep: the joiner chases head
    /// 26 and installs the export of checkpoint 24, the newest below it;
    /// it serves at height 29, so it replays five blocks.
    #[test]
    fn the_joiner_installs_the_newest_checkpoint_below_its_head() {
        let res = run_long_chain(&LongChainConfig { heights: vec![40] });
        let r = &res.rows[0];
        assert_eq!(
            (
                r.snapshot.target,
                r.snapshot.snapshot_height,
                r.snapshot.blocks_replayed
            ),
            (26, 24, 5)
        );
        assert!(r.snapshot.blocks_replayed < CHECKPOINT_INTERVAL);
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
                r.snapshot.max_msg_bytes > 0 && r.snapshot.max_msg_bytes as usize <= CHUNK_SIZE,
                "{} blocks: snapshot message {} exceeds the {CHUNK_SIZE} budget",
                r.blocks,
                r.snapshot.max_msg_bytes,
            );
            assert!(r.snapshot.chunks > 1, "the transfer must actually chunk");
            assert_eq!(
                r.snapshot.resumes, 0,
                "a lossless LAN sweep needs no resumes"
            );
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
        // Joining at two thirds of the run, the chain is deep enough for
        // a checkpoint to exist and the joiner's lag to clear min_lag.
        let snap = run_churn_waves(&one_late_join(5, 24).with_snapshots(8));
        let side = ChannelId(1);
        let joiner = snap.catchups[0].peer.index();

        let genesis_ledger = snap.net.ledger_on(4, side).expect("endorser ledger");
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
