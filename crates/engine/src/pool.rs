//! Hand-rolled worker pool with bounded MPSC work distribution.
//!
//! The build environment vendors its few dependencies, so there is no
//! `rayon`/`crossbeam` here: the pool is plain `std` — scoped worker
//! threads pulling `(index, item)` pairs off a *bounded*
//! [`mpsc::sync_channel`] and reporting results on an unbounded return
//! channel. The bound keeps memory flat when items are heavy (a sweep cell
//! owns its whole activation stream); the index makes output ordering
//! deterministic regardless of which worker finishes first.
//!
//! Panic policy: the pool contains **no** `catch_unwind` — that privilege
//! belongs to the batch harness (`hydra_sim::batch`), which the sweep
//! driver runs its cells through. A task that panics here kills only its
//! worker thread: the panic payload is recovered from the thread's join
//! handle and recorded as [`CellOutcome::Panicked`] against the item the
//! worker had claimed, and the surviving workers keep draining the queue.
//! Only items left unclaimed after *every* worker has died come back as
//! [`CellOutcome::Skipped`].

use std::any::Any;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;

pub use crate::protocol::CellOutcome;
use crate::protocol::{ProtocolVariant, Supervisor, WorkerMsg};

/// A fixed-width worker pool. Cheap to construct; each
/// [`run_ordered`](WorkerPool::run_ordered) call spawns fresh scoped
/// threads and tears them down before returning.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` over every item on the pool and returns one outcome per
    /// item, **in submission order** — completion order never shows
    /// through. Zero items return an empty vector without spawning
    /// anything; more workers than items spawn only `items.len()` workers.
    #[expect(
        clippy::disallowed_methods,
        reason = "the worker pool owns its scoped threads"
    )]
    pub fn run_ordered<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<CellOutcome<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        // Production always runs the faithful protocol; the mutations in
        // `ProtocolVariant` exist only for the schedule explorer (see
        // `crate::protocol`) and are never selected here.
        let variant = ProtocolVariant::Faithful;
        let workers = self.workers.min(n);

        // Bounded hand-off queue: the feeder blocks once `workers` items
        // are in flight. The receiver is shared via Arc so that when the
        // last worker exits (normally or by panic) the channel disconnects
        // and a blocked feeder unblocks with an error instead of
        // deadlocking.
        let (work_tx, work_rx) =
            mpsc::sync_channel::<(usize, T)>(variant.queue_capacity(workers, n));
        let work_rx = Arc::new(Mutex::new(work_rx));
        let (msg_tx, msg_rx) = mpsc::channel::<WorkerMsg<R>>();

        let mut supervisor = Supervisor::new(n, workers, variant);
        thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for worker in 0..workers {
                let work_rx = Arc::clone(&work_rx);
                let msg_tx = msg_tx.clone();
                let f = &f;
                handles.push(scope.spawn(move || loop {
                    let next = match work_rx.lock() {
                        Ok(rx) => rx.recv(),
                        // A poisoned queue lock means another worker died
                        // holding it; nothing more can be distributed.
                        Err(_) => return,
                    };
                    let Ok((index, item)) = next else { return };
                    if variant.claim_before_compute()
                        && msg_tx.send(WorkerMsg::Claimed { worker, index }).is_err()
                    {
                        return;
                    }
                    let result = f(index, item);
                    if msg_tx.send(WorkerMsg::Done { index, result }).is_err() {
                        return;
                    }
                }));
            }
            // The supervisor keeps no receiver handle of its own: dropping
            // these two ends makes channel disconnection equivalent to
            // "all workers gone".
            drop(work_rx);
            drop(msg_tx);

            for pair in items.into_iter().enumerate() {
                if work_tx.send(pair).is_err() {
                    break; // every worker died; remaining items stay Skipped
                }
            }
            drop(work_tx);

            while let Ok(msg) = msg_rx.recv() {
                supervisor.on_message(msg);
            }
            for (worker, handle) in handles.into_iter().enumerate() {
                if let Err(payload) = handle.join() {
                    supervisor.on_worker_panic(worker, panic_message(payload));
                }
            }
        });
        supervisor.into_outcomes()
    }
}

/// Renders a panic payload: `&str` and `String` payloads verbatim, anything
/// else as a placeholder.
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn zero_items_return_empty() {
        let pool = WorkerPool::new(4);
        let out: Vec<CellOutcome<u32>> = pool.run_ordered(Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_processes_everything_in_order() {
        let pool = WorkerPool::new(1);
        let out = pool.run_ordered((0..16u32).collect(), |_, x| x * 2);
        let values: Vec<u32> = out.into_iter().filter_map(CellOutcome::into_done).collect();
        assert_eq!(values, (0..16).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn more_workers_than_items_completes() {
        let pool = WorkerPool::new(64);
        let out = pool.run_ordered(vec![1u32, 2, 3], |_, x| x + 1);
        let values: Vec<u32> = out.into_iter().filter_map(CellOutcome::into_done).collect();
        assert_eq!(values, vec![2, 3, 4]);
    }

    #[test]
    fn ordering_is_deterministic_despite_completion_order() {
        // Earlier items sleep longer, so completion order is roughly the
        // reverse of submission order; the output must not care.
        let pool = WorkerPool::new(4);
        let out = pool.run_ordered((0..12u64).collect(), |_, x| {
            std::thread::sleep(Duration::from_millis(12u64.saturating_sub(x)));
            x * 10
        });
        let values: Vec<u64> = out.into_iter().filter_map(CellOutcome::into_done).collect();
        assert_eq!(values, (0..12).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_item_is_attributed_and_others_complete() {
        let pool = WorkerPool::new(2);
        let out = pool.run_ordered((0..8u32).collect(), |_, x| {
            if x == 3 {
                panic!("cell {x} exploded");
            }
            x
        });
        for (i, outcome) in out.iter().enumerate() {
            if i == 3 {
                match outcome {
                    CellOutcome::Panicked(msg) => assert!(msg.contains("cell 3 exploded")),
                    other => panic!("expected Panicked, got {other:?}"),
                }
            } else {
                assert_eq!(*outcome, CellOutcome::Done(i as u32), "item {i}");
            }
        }
    }

    #[test]
    fn sole_worker_panicking_skips_the_tail_without_deadlock() {
        // With one worker, a panic on the first item leaves the rest
        // unclaimed; the feeder must unblock (channel disconnect), not hang.
        let pool = WorkerPool::new(1);
        let out = pool.run_ordered((0..6u32).collect(), |_, x| {
            if x == 0 {
                panic!("first cell dies");
            }
            x
        });
        assert!(matches!(out[0], CellOutcome::Panicked(_)));
        assert!(out[1..].iter().all(|o| *o == CellOutcome::Skipped));
    }

    #[test]
    fn all_items_run_exactly_once() {
        let calls = AtomicUsize::new(0);
        let pool = WorkerPool::new(3);
        let out = pool.run_ordered((0..100u32).collect(), |_, x| {
            calls.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(calls.load(Ordering::SeqCst), 100);
        assert!(out.iter().all(CellOutcome::is_done));
    }
}
