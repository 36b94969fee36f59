//! Measurement plumbing shared by the workloads: spans recorded around
//! calls into the program's layers, the correctness ledger, the per-cell
//! watchdog and host memory.

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// One recorded span: a call into a layer, bracketed from outside.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name (`sim.run`, `engine.run_parallel`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the part covered by child spans.
    pub self_ns: u64,
}

/// Records spans in memory while enabled; a disabled tracer reads no
/// clock and only runs the wrapped closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` (nested under the innermost
    /// open span).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals and self times, in first-seen order.
    pub fn summary(&self) -> Vec<SpanSummary> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: Vec<SpanSummary> = Vec::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let total = span.end_ns - span.start_ns;
            let self_ns = total.saturating_sub(children);
            match out.iter_mut().find(|s| s.name == span.name) {
                Some(s) => {
                    s.count += 1;
                    s.total_ns += total;
                    s.self_ns += self_ns;
                }
                None => out.push(SpanSummary {
                    name: span.name,
                    count: 1,
                    total_ns: total,
                    self_ns,
                }),
            }
        }
        out
    }

    /// Appends another tracer's spans (e.g. from a watchdog cell thread),
    /// shifting their times onto this tracer's clock.
    pub fn absorb(&mut self, other: Tracer) {
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let base = self.spans.len();
        for span in other.spans {
            self.spans.push(Span {
                start_ns: span.start_ns + shift,
                end_ns: span.end_ns + shift,
                parent: span.parent.map(|p| p + base),
                ..span
            });
        }
    }
}

/// Operations attempted and failed, with a reason for each failure.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Operations attempted (layer calls plus correctness checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts `n` operations that completed.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        self.failures.push(reason.into());
    }

    /// Counts one correctness check, failing it unless `passed`.
    pub fn check(&mut self, passed: bool, what: impl FnOnce() -> String) {
        if passed {
            self.ok(1);
        } else {
            self.fail(what());
        }
    }
}

/// Runs `cell` on its own thread and waits at most `limit` for it.
///
/// A cell that does not finish in time is reported as an error and its
/// thread is left running: a livelocked simulation cannot be interrupted
/// from outside, so it ends when the benchmark process exits, which it
/// does right after printing the result.
pub fn watchdog<T: Send + 'static>(
    limit: Duration,
    cell: impl FnOnce() -> T + Send + 'static,
) -> Result<T, String> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("perfbench-cell".into())
        .spawn(move || {
            // The receiver is gone only after a timeout; nothing to report.
            let _ = tx.send(cell());
        })
        .map_err(|e| format!("cannot spawn cell thread: {e}"))?;
    match rx.recv_timeout(limit) {
        Ok(out) => {
            handle
                .join()
                .map_err(|_| "cell thread panicked after reporting".to_string())?;
            Ok(out)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Err(format!(
            "cell exceeded its {:.0} s watchdog",
            limit.as_secs_f64()
        )),
        Err(mpsc::RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => Err(format!("cell panicked: {}", panic_message(&*payload))),
            Ok(()) => Err("cell ended without a result".to_string()),
        },
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(2)));
        });
        let summary = t.summary();
        let outer = summary.iter().find(|s| s.name == "outer").unwrap();
        let inner = summary.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert!(inner.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn watchdog_returns_value_or_reports_timeout_and_panic() {
        assert_eq!(watchdog(Duration::from_secs(5), || 3), Ok(3));
        let slow = watchdog(Duration::from_millis(20), || {
            std::thread::sleep(Duration::from_millis(500))
        });
        assert!(slow.unwrap_err().contains("watchdog"));
        let boom: Result<(), String> = watchdog(Duration::from_secs(5), || panic!("boom"));
        assert!(boom.unwrap_err().contains("boom"));
    }

    #[test]
    fn ledger_counts_checks() {
        let mut l = Ledger::default();
        l.ok(3);
        l.check(true, || unreachable!());
        l.check(false, || "bad".into());
        assert_eq!((l.attempted, l.failed), (5, 1));
        assert_eq!(l.failures, vec!["bad".to_string()]);
    }
}
