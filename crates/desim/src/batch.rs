//! Parallel execution of independent simulation jobs.
//!
//! A figure or table of the paper is a grid of `(configuration, seed)`
//! cells, each a fully deterministic, self-contained event loop. Nothing
//! couples the cells, so they fan out across cores with zero effect on the
//! results: [`run_batch`] preserves input order and each job keeps its own
//! RNG, so a parallel sweep is byte-identical to the serial loop it
//! replaces.
//!
//! A batch runs on scoped threads ([`std::thread::scope`]) that live for
//! that one call, with the submitting thread as one of the workers. A
//! thread spawn costs tens of microseconds and a cell runs for 10⁵–10⁶ µs,
//! so there is no pool to keep warm; a job that itself calls [`run_batch`]
//! just opens its own scope.

use std::sync::Mutex;

/// Runs every job, fanning out across available cores, and returns the
/// results in input order.
///
/// Work is handed out dynamically (one shared queue), so uneven cell
/// durations — a 1 000-block original-gossip run next to a 100-block
/// ablation — still keep every core busy.
///
/// # Panics
///
/// Propagates a panicking job's panic once the batch unwinds.
pub fn run_batch<J, R, F>(jobs: Vec<J>, run: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|cores| cores.get())
        .unwrap_or(1);
    run_batch_with_workers(jobs, workers, run)
}

/// [`run_batch`] with an explicit worker count. `workers <= 1` runs the
/// jobs on the calling thread. Exposed so the concurrent path can be
/// exercised deterministically even on single-core machines (and so
/// callers can cap the fan-out below the core count).
///
/// `workers` counts the submitting thread: `workers - 1` scoped threads
/// work the batch alongside it.
pub fn run_batch_with_workers<J, R, F>(jobs: Vec<J>, workers: usize, run: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(J) -> R + Sync,
{
    let total = jobs.len();
    let workers = workers.min(total);
    if workers <= 1 {
        return jobs.into_iter().map(run).collect();
    }

    // Jobs are handed out one at a time, in input order, as workers free up.
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let drain = || {
        let mut done = Vec::new();
        loop {
            let next = queue
                .lock()
                .expect("no job runs under the queue lock")
                .next();
            let Some((index, job)) = next else {
                return done;
            };
            done.push((index, run(job)));
        }
    };

    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
        // A panic here unwinds out of the scope, which first joins the
        // helpers (they finish the remaining jobs) and then re-raises it.
        let mut done = drain();
        for helper in helpers {
            match helper.join() {
                Ok(more) => done.extend(more),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        done
    });
    done.sort_unstable_by_key(|(index, _)| *index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let jobs: Vec<u64> = (0..64).collect();
        let out = run_batch(jobs, |j| j * j);
        assert_eq!(out, (0..64).map(|j| j * j).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u32> = run_batch(Vec::<u32>::new(), |j| j);
        assert!(out.is_empty());
    }

    #[test]
    fn forced_multi_worker_path_matches_serial() {
        // Exercises the scoped threads even on one-core machines, where
        // `run_batch` would otherwise take the serial fallback.
        let jobs: Vec<u64> = (0..50).collect();
        let serial: Vec<u64> = jobs.iter().map(|j| j * 3 + 1).collect();
        let threaded = run_batch_with_workers(jobs, 4, |j| j * 3 + 1);
        assert_eq!(serial, threaded);
    }

    #[test]
    fn worker_count_exceeding_jobs_is_clamped() {
        let out = run_batch_with_workers(vec![1u32, 2], 16, |j| j + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn parallel_equals_serial() {
        // A job with real (deterministic) work: its result depends only on
        // its input, so scheduling order must not show.
        let work = |seed: u64| {
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            (0..1000)
                .map(|_| rng.random_range(0u64..1_000_000))
                .sum::<u64>()
        };
        let jobs: Vec<u64> = (0..32).collect();
        let serial: Vec<u64> = jobs.iter().map(|&j| work(j)).collect();
        let parallel = run_batch(jobs, work);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn nested_batches_complete_without_deadlock() {
        // Jobs that themselves fan out: each inner batch opens its own scope.
        let outer: Vec<u64> = (0..8).collect();
        let out = run_batch_with_workers(outer, 4, |j| {
            let inner: Vec<u64> = (0..8).map(|k| j * 10 + k).collect();
            run_batch_with_workers(inner, 4, |k| k + 1)
                .iter()
                .sum::<u64>()
        });
        let expected: Vec<u64> = (0..8)
            .map(|j| (0..8).map(|k| j * 10 + k + 1).sum::<u64>())
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn panics_propagate_to_the_submitter() {
        let result = std::panic::catch_unwind(|| {
            run_batch_with_workers((0..16u64).collect(), 4, |j| {
                if j == 7 {
                    panic!("boom at {j}");
                }
                j
            })
        });
        assert!(result.is_err(), "the job panic must reach the submitter");
        // The next batch is unaffected.
        let out = run_batch_with_workers(vec![1u64, 2, 3], 4, |j| j * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }
}
