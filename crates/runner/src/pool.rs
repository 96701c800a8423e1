//! A work-stealing thread pool for benchmark jobs, built on `std::thread`
//! and channels only.
//!
//! Jobs are distributed round-robin over per-worker deques; a worker pops
//! from the front of its own deque and, when that runs dry, steals from the
//! back of a sibling's. Because the job set is static (no job spawns new
//! jobs), a worker may exit as soon as every deque is empty.
//!
//! Each job body runs on a dedicated thread so that the worker can enforce a
//! wall-clock timeout with `recv_timeout`: a job that overruns is abandoned
//! (its thread keeps running detached until process exit) and reported as
//! [`JobStatus::TimedOut`] without stalling the pool, and a job that panics
//! is caught and reported as [`JobStatus::Crashed`] while its siblings keep
//! going.

use crate::timing::measure;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// How the pool executes a batch of jobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Number of worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Per-job wall-clock budget; `None` means unlimited.
    pub timeout: Option<Duration>,
}

impl PoolConfig {
    /// One worker, no timeout — equivalent to the old serial harness loop.
    pub fn serial() -> Self {
        PoolConfig {
            jobs: 1,
            timeout: None,
        }
    }

    /// As many workers as the machine advertises, no timeout.
    pub fn parallel() -> Self {
        PoolConfig {
            jobs: thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            timeout: None,
        }
    }

    /// Overrides the per-job timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig::serial()
    }
}

/// A unit of work: an identifier plus a closure producing a `T`.
pub struct Job<T> {
    /// Identifier echoed into the [`JobResult`] (e.g. `benchmark::tool`).
    pub id: String,
    run: Box<dyn FnOnce() -> T + Send + 'static>,
}

impl<T> Job<T> {
    /// Wraps a closure as a job.
    pub fn new(id: impl Into<String>, run: impl FnOnce() -> T + Send + 'static) -> Self {
        Job {
            id: id.into(),
            run: Box::new(run),
        }
    }

    /// Splits the job into its identifier and body (for executors outside
    /// this module, e.g. the warm pool).
    pub(crate) fn into_parts(self) -> (String, Box<dyn FnOnce() -> T + Send + 'static>) {
        (self.id, self.run)
    }
}

/// How a job's execution ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// The job ran to completion.
    Ok,
    /// The job exceeded the pool's wall-clock budget and was abandoned.
    TimedOut,
    /// The job panicked; the panic was contained to the job's thread.
    Crashed,
}

impl JobStatus {
    /// Stable serialization name used by the JSON report.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::TimedOut => "timed_out",
            JobStatus::Crashed => "crashed",
        }
    }

    /// The more severe of two statuses (`Crashed` > `TimedOut` > `Ok`):
    /// the roll-up used when one entry reports on several jobs, e.g. a
    /// race's two engines or a family aggregate.
    pub fn worst(self, other: JobStatus) -> JobStatus {
        match (self, other) {
            (JobStatus::Crashed, _) | (_, JobStatus::Crashed) => JobStatus::Crashed,
            (JobStatus::TimedOut, _) | (_, JobStatus::TimedOut) => JobStatus::TimedOut,
            (JobStatus::Ok, JobStatus::Ok) => JobStatus::Ok,
        }
    }

    /// Inverse of [`JobStatus::as_str`].
    pub fn parse(s: &str) -> Option<JobStatus> {
        match s {
            "ok" => Some(JobStatus::Ok),
            "timed_out" => Some(JobStatus::TimedOut),
            "crashed" => Some(JobStatus::Crashed),
            _ => None,
        }
    }
}

/// The outcome of one job.
#[derive(Clone, Debug)]
pub struct JobResult<T> {
    /// The job's identifier.
    pub id: String,
    /// How execution ended.
    pub status: JobStatus,
    /// The job's value, present exactly when `status` is [`JobStatus::Ok`].
    pub output: Option<T>,
    /// Wall-clock time: the job body's own time when it completed, the
    /// budget when it timed out.
    pub elapsed: Duration,
    /// `true` when this job shared its sweep with an abandoned (timed-out)
    /// job thread. An abandoned thread keeps consuming CPU until process
    /// exit, so the wall-clock numbers of every job still running — or
    /// started — after the abandonment are inflated and should not gate
    /// slowdown comparisons.
    pub tainted: bool,
    /// Time the job spent queued before a worker picked it up. `Some` only
    /// on the [`WarmPool`](crate::WarmPool) path — the batch pool admits
    /// jobs straight onto workers, so there is no queue to wait in.
    pub queue_wait: Option<Duration>,
}

/// Runs every job and returns the results in submission order.
///
/// Results are position-stable: `results[i]` corresponds to `jobs[i]`
/// regardless of worker count or stealing, which is what makes the JSON
/// report deterministic across `--jobs 1` and `--jobs 8`.
pub fn run_jobs<T: Send + 'static>(jobs: Vec<Job<T>>, config: &PoolConfig) -> Vec<JobResult<T>> {
    let workers = config.jobs.max(1).min(jobs.len().max(1));
    let total = jobs.len();

    // Round-robin distribution over per-worker deques.
    type Deque<T> = Mutex<VecDeque<(usize, Job<T>)>>;
    let queues: Vec<Deque<T>> = (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (index, job) in jobs.into_iter().enumerate() {
        queues[index % workers]
            .lock()
            .unwrap()
            .push_back((index, job));
    }

    let slots: Vec<Mutex<Option<JobResult<T>>>> = (0..total).map(|_| Mutex::new(None)).collect();
    // Set when any job of this batch is abandoned on timeout; jobs finishing
    // afterwards are marked tainted (their timings overlapped a runaway
    // thread).
    let abandoned = AtomicBool::new(false);

    thread::scope(|scope| {
        for me in 0..workers {
            let queues = &queues;
            let slots = &slots;
            let abandoned = &abandoned;
            let timeout = config.timeout;
            scope.spawn(move || loop {
                // Own deque first (front), then steal from a sibling (back).
                // The own lock is released before stealing: two workers
                // each holding theirs while locking the other's deadlock.
                let own = queues[me].lock().unwrap().pop_front();
                let task = own.or_else(|| {
                    (1..workers)
                        .map(|offset| (me + offset) % workers)
                        .find_map(|victim| queues[victim].lock().unwrap().pop_back())
                });
                let Some((index, job)) = task else { break };
                *slots[index].lock().unwrap() = Some(execute(job, timeout, abandoned));
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every job produced a result")
        })
        .collect()
}

/// Runs one job on its own thread, enforcing the timeout from the worker.
/// `abandoned` is the batch-wide flag recording that some job thread has
/// been abandoned; a job finishing while it is set is marked tainted.
fn execute<T: Send + 'static>(
    job: Job<T>,
    timeout: Option<Duration>,
    abandoned: &AtomicBool,
) -> JobResult<T> {
    let Job { id, run } = job;
    let (tx, rx) = channel();
    let started = Instant::now();
    let spawned = thread::Builder::new()
        .name(format!("runner-job-{id}"))
        .spawn(move || {
            let (outcome, elapsed) = measure(|| catch_unwind(AssertUnwindSafe(run)));
            // The receiver is gone when the job already timed out; the
            // result is discarded in that case.
            let _ = tx.send((outcome, elapsed));
        });
    if spawned.is_err() {
        // Thread exhaustion (e.g. a long timeout-heavy sweep accumulating
        // abandoned job threads) must cost this one job, not panic the
        // scoped worker and lose every already-finished result.
        return JobResult {
            id,
            status: JobStatus::Crashed,
            output: None,
            elapsed: started.elapsed(),
            tainted: abandoned.load(Ordering::Acquire),
            queue_wait: None,
        };
    }

    let received = match timeout {
        Some(budget) => rx.recv_timeout(budget),
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
    };
    // Taint is assessed when the job *finishes*: any job still in flight —
    // or started — after an abandonment shares CPU with the runaway thread.
    match received {
        Ok((Ok(output), elapsed)) => JobResult {
            id,
            status: JobStatus::Ok,
            output: Some(output),
            elapsed,
            tainted: abandoned.load(Ordering::Acquire),
            queue_wait: None,
        },
        Ok((Err(_panic), elapsed)) => JobResult {
            id,
            status: JobStatus::Crashed,
            output: None,
            elapsed,
            tainted: abandoned.load(Ordering::Acquire),
            queue_wait: None,
        },
        Err(RecvTimeoutError::Timeout) => {
            abandoned.store(true, Ordering::Release);
            JobResult {
                id,
                status: JobStatus::TimedOut,
                output: None,
                elapsed: timeout.expect("timeout error implies a budget"),
                tainted: true,
                queue_wait: None,
            }
        }
        Err(RecvTimeoutError::Disconnected) => JobResult {
            id,
            status: JobStatus::Crashed,
            output: None,
            elapsed: started.elapsed(),
            tainted: abandoned.load(Ordering::Acquire),
            queue_wait: None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<Job<usize>> = (0..32)
            .map(|i| Job::new(format!("job-{i}"), move || i * i))
            .collect();
        let results = run_jobs(
            jobs,
            &PoolConfig {
                jobs: 8,
                timeout: None,
            },
        );
        assert_eq!(results.len(), 32);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.id, format!("job-{i}"));
            assert_eq!(r.status, JobStatus::Ok);
            assert_eq!(r.output, Some(i * i));
        }
    }

    #[test]
    fn workers_stealing_from_each_other_do_not_deadlock() {
        // Tiny jobs make workers run dry, and steal, at the same moment.
        let (tx, rx) = channel();
        thread::spawn(move || {
            for _ in 0..200 {
                let jobs: Vec<Job<usize>> = (0..16)
                    .map(|i| Job::new(format!("j{i}"), move || i))
                    .collect();
                let config = PoolConfig {
                    jobs: 8,
                    timeout: None,
                };
                assert_eq!(run_jobs(jobs, &config).len(), 16);
            }
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("200 small batches finish, not deadlock");
    }

    #[test]
    fn zero_workers_is_clamped_to_one() {
        let results = run_jobs(
            vec![Job::new("only", || 7)],
            &PoolConfig {
                jobs: 0,
                timeout: None,
            },
        );
        assert_eq!(results[0].output, Some(7));
    }

    #[test]
    fn empty_job_list_is_fine() {
        let results: Vec<JobResult<()>> = run_jobs(vec![], &PoolConfig::parallel());
        assert!(results.is_empty());
    }

    #[test]
    fn status_names_round_trip() {
        for status in [JobStatus::Ok, JobStatus::TimedOut, JobStatus::Crashed] {
            assert_eq!(JobStatus::parse(status.as_str()), Some(status));
        }
        assert_eq!(JobStatus::parse("nope"), None);
    }
}
