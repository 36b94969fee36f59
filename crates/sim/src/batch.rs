//! Resilient batch execution: run many simulation jobs to completion even
//! when individual runs panic, hang, or fail transiently.
//!
//! Parameter sweeps (and the fault-injection campaigns in
//! `hydra-analysis`) run hundreds of independent configurations; one bad
//! run must not take the whole campaign down. [`BatchRunner`] executes each
//! [`BatchJob`] once, on its own thread behind `catch_unwind`, guards it
//! with a wall-clock watchdog, and — when a job fails — writes the job's
//! replay artifact (if it provides one) so the failure can be reproduced
//! deterministically offline. Jobs are deterministic, so a failure is
//! never retried: a second run would fail the same way.
//!
//! This module is the **only** place in the workspace allowed to call
//! `catch_unwind`; `hydra-verify lint` enforces that. Everything below the harness
//! keeps the ordinary panic-is-a-bug discipline, and the harness converts
//! panics into structured [`JobStatus`] values at the boundary.

use hydra_types::Deadline;
use std::any::Any;
use std::collections::VecDeque;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

/// One unit of batch work.
///
/// Jobs must be `Send + Sync + 'static` because each job runs on a fresh
/// thread, and a timed-out job's thread is abandoned (it may still be
/// holding the job after the runner has moved on).
pub trait BatchJob: Send + Sync + 'static {
    /// The value a successful run produces.
    type Output: Send + 'static;

    /// Stable human-readable name; also seeds the replay-artifact filename.
    fn label(&self) -> String;

    /// Executes the job.
    ///
    /// # Errors
    ///
    /// Returns a description of the failure.
    fn run(&self) -> Result<Self::Output, String>;

    /// A self-contained replay artifact reproducing this job, written to
    /// the artifact directory when the job fails. `None` (the default)
    /// means the job has nothing to persist.
    fn replay_artifact(&self) -> Option<String> {
        None
    }
}

/// Batch-runner policy knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Wall-clock watchdog per job. A job that outlives it is recorded as
    /// [`JobStatus::TimedOut`] and its thread abandoned.
    pub watchdog: Duration,
    /// Where to write replay artifacts of failed jobs.
    /// `None` disables artifact emission.
    pub artifact_dir: Option<PathBuf>,
    /// Jobs run concurrently. The default of 1 preserves the original
    /// strictly sequential execution (byte-identical output ordering for
    /// existing consumers); higher values fan jobs across worker threads.
    /// Reports are returned in submission order either way, and each job
    /// keeps its own isolation thread and watchdog.
    pub jobs: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            watchdog: Duration::from_secs(60),
            artifact_dir: None,
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
    /// Where the replay artifact was written, when one was.
    pub artifact_path: Option<PathBuf>,
    /// Why writing the replay artifact failed, when it did.
    pub artifact_error: Option<String>,
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

    /// Paths of all replay artifacts written for this batch.
    pub fn artifacts(&self) -> Vec<&Path> {
        self.jobs
            .iter()
            .filter_map(|j| j.artifact_path.as_deref())
            .collect()
    }
}

/// Runs jobs — sequentially by default, or fanned across worker threads
/// when [`BatchConfig::jobs`] > 1 — each job isolated on its own thread.
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
    /// With [`BatchConfig::jobs`] = 1 (the default) jobs run one at a time
    /// on the calling thread's schedule, exactly as the original sequential
    /// runner did. With more, jobs are pulled off a shared queue by that
    /// many workers; because every job is independent and reports are
    /// reordered by submission index, the returned [`BatchReport`] is
    /// identical (minus wall-clock) regardless of the worker count.
    pub fn run<J: BatchJob>(&self, jobs: Vec<J>) -> BatchReport<J::Output> {
        let n = jobs.len();
        let workers = self.config.jobs.max(1).min(n.max(1));
        if workers <= 1 {
            let reports = jobs.into_iter().map(|job| self.run_job(job)).collect();
            return BatchReport { jobs: reports };
        }
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
                    artifact_path: None,
                    artifact_error: None,
                })
            })
            .collect();
        BatchReport { jobs: reports }
    }

    /// Runs one job on a fresh thread behind `catch_unwind`, bounded by the
    /// watchdog, and writes its replay artifact if it fails. On timeout the
    /// thread is abandoned, not joined — the receiver end is dropped, so a
    /// late completion dies quietly in its failed `send`.
    fn run_job<J: BatchJob>(&self, job: J) -> JobReport<J::Output> {
        let label = job.label();
        let job = Arc::new(job);
        // Arm the watchdog before spawning so thread-creation time counts
        // against the budget: the shared `Deadline` (also used by the
        // daemon's connection watchdog) anchors once and saturates, with
        // an inclusive boundary — a budget that has exactly elapsed is
        // expired.
        let deadline = Deadline::after(self.config.watchdog);
        let (tx, rx) = mpsc::channel();
        let worker = Arc::clone(&job);
        let spawned = thread::Builder::new()
            .name(format!("batch-{label}"))
            .spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| worker.run()));
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
        let mut report = JobReport {
            label,
            status,
            output,
            artifact_path: None,
            artifact_error: None,
        };
        if report.status.is_success() {
            return report;
        }
        if let (Some(dir), Some(artifact)) = (&self.config.artifact_dir, job.replay_artifact()) {
            match write_artifact(dir, &report.label, &artifact) {
                Ok(path) => report.artifact_path = Some(path),
                Err(e) => report.artifact_error = Some(e.to_string()),
            }
        }
        report
    }
}

/// Writes `artifact` to `dir/<sanitized label>.replay`, creating `dir`.
fn write_artifact(dir: &Path, label: &str, artifact: &str) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let stem: String = label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = dir.join(format!("{stem}.replay"));
    fs::write(&path, artifact)?;
    Ok(path)
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
            artifact_dir: None,
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
        fn replay_artifact(&self) -> Option<String> {
            Some(format!("hydra-replay-v1\nlabel={}\n", self.label()))
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
    fn failure_writes_replay_artifact() {
        let dir = std::env::temp_dir().join(format!(
            "hydra-batch-test-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let mut config = fast_config();
        config.artifact_dir = Some(dir.clone());
        let runner = BatchRunner::new(config);
        let report = runner.run(vec![TestJob::Fail, TestJob::Ok(0)]);
        let artifacts = report.artifacts();
        assert_eq!(artifacts.len(), 1, "only the failed job writes one");
        let written = fs::read_to_string(artifacts[0]).expect("artifact readable");
        assert_eq!(written, "hydra-replay-v1\nlabel=fail\n");
        assert_eq!(
            report.jobs[0].artifact_path.as_deref(),
            Some(dir.join("fail.replay").as_path())
        );
        assert!(report.jobs[0].artifact_error.is_none());
        assert!(report.jobs[1].artifact_path.is_none());
        let _ = fs::remove_dir_all(&dir);
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
