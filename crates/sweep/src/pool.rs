//! A work-stealing thread pool on plain `std::thread`.
//!
//! The whole job list is known up front, so the pool needs no condition
//! variables or shutdown protocol: jobs are dealt round-robin into
//! per-worker deques, each worker drains its own deque from the front
//! and, when empty, steals from the *back* of a victim's deque (classic
//! Arora-Blumofe-Plotkin discipline — stealers take the coldest work).
//! A worker exits when every deque is empty, which is final because
//! nothing enqueues after start.
//!
//! Results are placed into a slot indexed by the job's position in the
//! input list, so the output order is deterministic no matter which
//! worker ran what — the property the sweep engine's byte-identical
//! serial/parallel guarantee rests on.

use dim_obs::{Clock as _, LogHistogram, MonotonicClock, ObjectWriter};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Execution statistics for one pool run. Wall-clock figures here are
/// host-dependent and must only ever feed timing reports
/// (`summary.json`), never deterministic artifacts.
#[derive(Debug)]
pub struct PoolStats {
    /// Worker count actually used.
    pub threads: usize,
    /// Jobs each worker executed (own + stolen).
    pub executed: Vec<u64>,
    /// Jobs each worker obtained by stealing.
    pub steals: Vec<u64>,
    /// Per-job wall-clock in microseconds.
    pub job_micros: LogHistogram,
}

impl PoolStats {
    /// Total jobs stolen across all workers.
    pub fn total_steals(&self) -> u64 {
        self.steals.iter().sum()
    }

    /// Total jobs executed across all workers.
    pub fn total_executed(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// JSON object for `summary.json`.
    pub fn to_json(&self) -> String {
        let list = |v: &[u64]| {
            let items: Vec<String> = v.iter().map(std::string::ToString::to_string).collect();
            format!("[{}]", items.join(","))
        };
        let mut w = ObjectWriter::new();
        w.field_u64("threads", self.threads as u64)
            .field_raw("executed_per_worker", &list(&self.executed))
            .field_raw("steals_per_worker", &list(&self.steals))
            .field_u64("total_steals", self.total_steals())
            .field_raw("job_micros", &self.job_micros.to_json());
        w.finish()
    }
}

/// Runs every job on `threads` workers and returns the results in input
/// order, plus pool statistics.
///
/// Each job receives the index (`0..threads`) of the worker that runs
/// it, so per-worker side channels (live status entries, flight
/// recorders) can be addressed without locking a shared allocator. The
/// index must never influence a job's *result* — only which reporting
/// slot it writes — or the serial/parallel determinism contract breaks.
///
/// `threads` is clamped to at least 1; with exactly 1 the pool degrades
/// to strict in-order serial execution on a single spawned worker.
pub fn execute_jobs<T, F>(jobs: Vec<F>, threads: usize) -> (Vec<T>, PoolStats)
where
    F: FnOnce(usize) -> T + Send,
    T: Send,
{
    let threads = threads.max(1);
    let n = jobs.len();

    let queues: Vec<Mutex<VecDeque<(usize, F)>>> =
        (0..threads).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, job) in jobs.into_iter().enumerate() {
        queues[i % threads].lock().unwrap().push_back((i, job));
    }

    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let executed: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let steals: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let job_micros = Mutex::new(LogHistogram::new());
    let clock = MonotonicClock::new();

    std::thread::scope(|scope| {
        for w in 0..threads {
            let queues = &queues;
            let results = &results;
            let executed = &executed;
            let steals = &steals;
            let job_micros = &job_micros;
            let clock = &clock;
            scope.spawn(move || loop {
                let local = queues[w].lock().unwrap().pop_front();
                let (index, job) = match local {
                    Some(pair) => pair,
                    None => {
                        // Own deque dry: steal the oldest job from the
                        // first non-empty victim, scanning round-robin
                        // from our right-hand neighbour.
                        let mut stolen = None;
                        for offset in 1..threads {
                            let victim = (w + offset) % threads;
                            if let Some(pair) = queues[victim].lock().unwrap().pop_back() {
                                stolen = Some(pair);
                                break;
                            }
                        }
                        match stolen {
                            Some(pair) => {
                                steals[w].fetch_add(1, Ordering::Relaxed);
                                pair
                            }
                            None => break,
                        }
                    }
                };
                let start = clock.now_nanos();
                let out = job(w);
                let micros = clock.now_nanos().saturating_sub(start) / 1_000;
                job_micros.lock().unwrap().record(micros);
                executed[w].fetch_add(1, Ordering::Relaxed);
                *results[index].lock().unwrap() = Some(out);
            });
        }
    });

    let results = results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every job ran exactly once")
        })
        .collect();
    let stats = PoolStats {
        threads,
        executed: executed
            .into_iter()
            .map(std::sync::atomic::AtomicU64::into_inner)
            .collect(),
        steals: steals
            .into_iter()
            .map(std::sync::atomic::AtomicU64::into_inner)
            .collect(),
        job_micros: job_micros.into_inner().unwrap(),
    };
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order() {
        for threads in [1, 2, 4, 7] {
            let jobs: Vec<_> = (0..40u64).map(|i| move |_w: usize| i * i).collect();
            let (out, stats) = execute_jobs(jobs, threads);
            assert_eq!(out, (0..40u64).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(stats.total_executed(), 40);
            assert_eq!(stats.threads, threads);
            assert_eq!(stats.job_micros.count(), 40);
        }
    }

    #[test]
    fn empty_job_list() {
        let jobs: Vec<fn(usize) -> u64> = Vec::new();
        let (out, stats) = execute_jobs(jobs, 4);
        assert!(out.is_empty());
        assert_eq!(stats.total_executed(), 0);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let jobs: Vec<_> = (0..3u64).map(|i| move |_w: usize| i).collect();
        let (out, stats) = execute_jobs(jobs, 0);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.total_steals(), 0);
    }

    #[test]
    fn imbalanced_jobs_get_stolen() {
        // Worker 0 receives every even-indexed job; make those slow so
        // other workers must steal to finish. With 4 workers and all
        // slow jobs on one deque, at least one steal is overwhelmingly
        // forced; assert only on correctness plus the counters being
        // self-consistent, since scheduling is timing-dependent.
        let jobs: Vec<Box<dyn FnOnce(usize) -> u64 + Send>> = (0..16u64)
            .map(|i| {
                let f: Box<dyn FnOnce(usize) -> u64 + Send> = if i % 4 == 0 {
                    Box::new(move |_w| {
                        std::thread::sleep(std::time::Duration::from_millis(2));
                        i
                    })
                } else {
                    Box::new(move |_w| i)
                };
                f
            })
            .collect();
        let (out, stats) = execute_jobs(jobs, 4);
        assert_eq!(out, (0..16u64).collect::<Vec<_>>());
        assert_eq!(stats.total_executed(), 16);
        assert!(stats.total_steals() <= 16);
    }

    #[test]
    fn stats_json_is_parseable() {
        let jobs: Vec<_> = (0..5u64).map(|i| move |_w: usize| i).collect();
        let (_, stats) = execute_jobs(jobs, 2);
        let parsed = dim_obs::parse_json(&stats.to_json()).unwrap();
        assert_eq!(
            parsed.get("threads").and_then(dim_obs::JsonValue::as_u64),
            Some(2)
        );
    }
}
