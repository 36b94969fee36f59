//! Resilient batch execution: run many simulation jobs to completion even
//! when individual runs panic, hang, or fail transiently.
//!
//! Design-space sweeps, arena races and the figure plan run hundreds of
//! independent configurations; one bad run must not take the whole batch
//! down. [`BatchRunner`] executes each
//! [`BatchJob`] once, on its own thread behind `catch_unwind`, and guards
//! it with a wall-clock watchdog. Jobs are deterministic, so a failure is
//! never retried: a second run would fail the same way.
//!
//! This module is the **only** place in the workspace allowed to call
//! `catch_unwind`; clippy's `disallowed-methods` enforces that. Everything below the harness
//! keeps the ordinary panic-is-a-bug discipline, and the harness converts
//! panics into structured [`JobStatus`] values at the boundary.

use hydra_types::Deadline;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::Duration;

/// One unit of batch work.
///
/// Jobs must be `Send + 'static` because each job moves onto a fresh
/// thread, and a timed-out job's thread is abandoned (it may still be
/// holding the job after the runner has moved on).
pub trait BatchJob: Send + 'static {
    /// The value a successful run produces.
    type Output: Send + 'static;

    /// Stable human-readable name.
    fn label(&self) -> String;

    /// Executes the job.
    ///
    /// # Errors
    ///
    /// Returns a description of the failure.
    fn run(&self) -> Result<Self::Output, String>;
}

/// Batch-runner policy knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Wall-clock watchdog per job. A job that outlives it is recorded as
    /// [`JobStatus::TimedOut`] and its thread abandoned.
    pub watchdog: Duration,
    /// Jobs run concurrently (0 counts as 1). With the default of 1 the
    /// jobs run one after another in submission order. Reports come back
    /// in submission order either way, and each job keeps its own
    /// isolation thread and watchdog.
    pub jobs: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            watchdog: Duration::from_secs(60),
            jobs: 1,
        }
    }
}

/// Terminal disposition of one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// The job returned `Ok`.
    Succeeded,
    /// The job returned `Err` or panicked.
    Failed {
        /// The job's error (panic payloads are prefixed `panic:`).
        error: String,
    },
    /// The job outlived the watchdog; its thread was abandoned.
    TimedOut,
}

impl JobStatus {
    /// True iff the job eventually succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, JobStatus::Succeeded)
    }
}

/// The record of one job's journey through the runner.
#[derive(Debug)]
pub struct JobReport<T> {
    /// The job's label.
    pub label: String,
    /// Terminal disposition.
    pub status: JobStatus,
    /// The job's output, if it succeeded.
    pub output: Option<T>,
}

/// The whole batch's outcome.
#[derive(Debug)]
pub struct BatchReport<T> {
    /// Per-job reports, in submission order.
    pub jobs: Vec<JobReport<T>>,
}

impl<T> BatchReport<T> {
    /// Jobs that succeeded.
    pub fn succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.status.is_success()).count()
    }

    /// Jobs that failed (including timeouts).
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.succeeded()
    }

    /// True iff every job succeeded.
    pub fn is_clean(&self) -> bool {
        self.failed() == 0
    }
}

/// Runs jobs on [`BatchConfig::jobs`] workers, each job isolated on its
/// own thread.
#[derive(Debug, Clone, Default)]
pub struct BatchRunner {
    config: BatchConfig,
}

impl BatchRunner {
    /// A runner with the given policy.
    pub fn new(config: BatchConfig) -> Self {
        BatchRunner { config }
    }

    /// The runner's policy.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Executes every job and reports, in submission order.
    ///
    /// Jobs are pulled off a shared queue, in submission order, by
    /// [`BatchConfig::jobs`] workers (one worker runs them one after
    /// another). Because every job is independent and reports are
    /// re-slotted by submission index, the returned [`BatchReport`] is
    /// identical (minus wall-clock) regardless of the worker count.
    #[expect(
        clippy::disallowed_methods,
        reason = "the batch harness owns its worker threads"
    )]
    pub fn run<J: BatchJob>(&self, jobs: Vec<J>) -> BatchReport<J::Output> {
        let n = jobs.len();
        let workers = self.config.jobs.clamp(1, n.max(1));
        let queue: Mutex<VecDeque<(usize, J)>> = Mutex::new(jobs.into_iter().enumerate().collect());
        let (tx, rx) = mpsc::channel();
        let mut slots: Vec<Option<JobReport<J::Output>>> = (0..n).map(|_| None).collect();
        thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let queue = &queue;
                scope.spawn(move || loop {
                    let next = match queue.lock() {
                        Ok(mut q) => q.pop_front(),
                        // Poisoned queue: a sibling worker died holding the
                        // lock; nothing more can be claimed safely.
                        Err(_) => None,
                    };
                    let Some((index, job)) = next else { return };
                    if tx.send((index, self.run_job(job))).is_err() {
                        return;
                    }
                });
            }
            drop(tx);
            while let Ok((index, report)) = rx.recv() {
                slots[index] = Some(report);
            }
        });
        let reports = slots
            .into_iter()
            .enumerate()
            .map(|(index, slot)| {
                // Reachable only if a worker died outside run_job's
                // isolation (a harness bug, not a job failure) — surface it
                // as a failed report rather than dropping the slot.
                slot.unwrap_or_else(|| JobReport {
                    label: format!("job-{index}"),
                    status: JobStatus::Failed {
                        error: "batch worker died before reporting".to_string(),
                    },
                    output: None,
                })
            })
            .collect();
        BatchReport { jobs: reports }
    }

    /// Runs one job on a fresh thread behind `catch_unwind`, bounded by the
    /// watchdog. On timeout the thread is abandoned, not joined — the
    /// receiver end is dropped, so a late completion dies quietly in its
    /// failed `send`.
    #[expect(
        clippy::disallowed_methods,
        reason = "the batch harness owns its job threads and is the one panic boundary"
    )]
    fn run_job<J: BatchJob>(&self, job: J) -> JobReport<J::Output> {
        let label = job.label();
        // Arm the watchdog before spawning so thread-creation time counts
        // against the budget: the shared `Deadline` (also used by the
        // daemon's connection watchdog) anchors once and saturates, with
        // an inclusive boundary — a budget that has exactly elapsed is
        // expired.
        let deadline = Deadline::after(self.config.watchdog);
        let (tx, rx) = mpsc::channel();
        let spawned = thread::Builder::new()
            .name(format!("batch-{label}"))
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| job.run()));
                let _ = tx.send(result);
            });
        let (status, output) = match spawned {
            Err(e) => (
                JobStatus::Failed {
                    error: format!("failed to spawn worker thread: {e}"),
                },
                None,
            ),
            Ok(handle) => match rx.recv_timeout(deadline.remaining()) {
                Ok(result) => {
                    // The worker has sent, so it is past its job; reap it.
                    let _ = handle.join();
                    match result {
                        Ok(Ok(output)) => (JobStatus::Succeeded, Some(output)),
                        Ok(Err(error)) => (JobStatus::Failed { error }, None),
                        Err(payload) => {
                            let error = format!("panic: {}", panic_message(payload));
                            (JobStatus::Failed { error }, None)
                        }
                    }
                }
                Err(_) => (JobStatus::TimedOut, None),
            },
        };
        JobReport {
            label,
            status,
            output,
        }
    }
}

/// Renders a panic payload: `&str` and `String` payloads verbatim,
/// anything else as a placeholder. Takes the box by value — downcasting
/// through `&Box<dyn Any>` would probe the box, not its contents.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "opaque panic payload".to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> BatchConfig {
        BatchConfig {
            watchdog: Duration::from_secs(5),
            jobs: 1,
        }
    }

    /// A job that succeeds, errors, panics, or hangs past a short watchdog.
    enum TestJob {
        Ok(u32),
        Fail,
        Panic,
        Hang,
    }
    impl BatchJob for TestJob {
        type Output = u32;
        fn label(&self) -> String {
            match self {
                TestJob::Ok(n) => format!("ok-{n}"),
                TestJob::Fail => "fail".to_string(),
                TestJob::Panic => "panic".to_string(),
                TestJob::Hang => "hang".to_string(),
            }
        }
        fn run(&self) -> Result<u32, String> {
            match self {
                TestJob::Ok(n) => Ok(n * 2),
                TestJob::Fail => Err("deterministic failure".to_string()),
                TestJob::Panic => panic!("job panicked"),
                TestJob::Hang => {
                    thread::sleep(Duration::from_secs(2));
                    Ok(0)
                }
            }
        }
    }

    #[test]
    fn clean_jobs_succeed() {
        let runner = BatchRunner::new(fast_config());
        let report = runner.run(vec![TestJob::Ok(1), TestJob::Ok(2), TestJob::Ok(3)]);
        assert!(report.is_clean());
        assert_eq!(report.succeeded(), 3);
        let outputs: Vec<u32> = report.jobs.iter().filter_map(|j| j.output).collect();
        assert_eq!(outputs, vec![2, 4, 6]);
        for job in &report.jobs {
            assert_eq!(job.status, JobStatus::Succeeded);
        }
    }

    #[test]
    fn errors_are_reported_once() {
        let report = BatchRunner::new(fast_config()).run(vec![TestJob::Fail]);
        assert_eq!(report.failed(), 1);
        assert_eq!(
            report.jobs[0].status,
            JobStatus::Failed {
                error: "deterministic failure".to_string()
            }
        );
        assert!(report.jobs[0].output.is_none());
    }

    #[test]
    fn panics_are_contained() {
        let report = BatchRunner::new(fast_config()).run(vec![TestJob::Panic]);
        assert_eq!(
            report.jobs[0].status,
            JobStatus::Failed {
                error: "panic: job panicked".to_string()
            }
        );
    }

    #[test]
    fn one_bad_job_does_not_sink_the_batch() {
        let runner = BatchRunner::new(fast_config());
        let report = runner.run(vec![TestJob::Panic, TestJob::Ok(0), TestJob::Fail]);
        assert_eq!(report.succeeded(), 1);
        assert_eq!(report.failed(), 2);
        assert!(report.jobs[1].status.is_success());
    }

    #[test]
    fn watchdog_times_out_hung_jobs() {
        let mut config = fast_config();
        config.watchdog = Duration::from_millis(50);
        let report = BatchRunner::new(config).run(vec![TestJob::Hang]);
        assert_eq!(report.failed(), 1);
        assert_eq!(report.jobs[0].status, JobStatus::TimedOut);
    }

    #[test]
    fn parallel_run_reports_in_submission_order() {
        let mut config = fast_config();
        config.jobs = 4;
        let runner = BatchRunner::new(config);
        let report = runner.run((0..12).map(TestJob::Ok).collect());
        assert!(report.is_clean());
        let outputs: Vec<u32> = report.jobs.iter().filter_map(|j| j.output).collect();
        assert_eq!(outputs, (0..12).map(|i| i * 2).collect::<Vec<_>>());
        let labels: Vec<String> = report.jobs.iter().map(|j| j.label.clone()).collect();
        assert_eq!(
            labels,
            (0..12).map(|i| format!("ok-{i}")).collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_run_matches_sequential_disposition() {
        // Same job mix through 1 and 4 workers: identical statuses and
        // outputs, submission order preserved.
        let build = || {
            vec![
                TestJob::Ok(0),
                TestJob::Fail,
                TestJob::Panic,
                TestJob::Ok(1),
            ]
        };
        let seq = BatchRunner::new(fast_config()).run(build());
        let mut config = fast_config();
        config.jobs = 4;
        let par = BatchRunner::new(config).run(build());
        assert_eq!(seq.jobs.len(), par.jobs.len());
        for (s, p) in seq.jobs.iter().zip(par.jobs.iter()) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.status, p.status);
            assert_eq!(s.output, p.output);
        }
    }

    #[test]
    fn parallel_run_contains_panicking_jobs() {
        let mut config = fast_config();
        config.jobs = 3;
        let runner = BatchRunner::new(config);
        let report = runner.run(vec![TestJob::Panic, TestJob::Ok(0), TestJob::Ok(1)]);
        assert_eq!(report.succeeded(), 2);
        assert_eq!(report.failed(), 1);
        assert!(!report.jobs[0].status.is_success());
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let mut config = fast_config();
        config.jobs = 64;
        let report = BatchRunner::new(config).run(vec![TestJob::Ok(7)]);
        assert!(report.is_clean());
        assert_eq!(report.jobs[0].output, Some(14));
    }

    #[test]
    fn parallel_run_with_zero_jobs_is_empty() {
        let mut config = fast_config();
        config.jobs = 8;
        let report = BatchRunner::new(config).run(Vec::<TestJob>::new());
        assert!(report.jobs.is_empty());
        assert!(report.is_clean());
    }
}
