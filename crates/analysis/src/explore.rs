//! Exhaustive schedule explorer for the engine worker-pool protocol — a
//! miniature model checker in the loom tradition.
//!
//! # What is being checked
//!
//! [`hydra_engine::pool::WorkerPool`] runs a small concurrent protocol:
//! a feeder pushes `(index, item)` pairs into a bounded queue, `W` workers
//! pull, announce `Claimed`, compute, announce `Done`, and a supervisor
//! settles outcomes and attributes panics at join time. Its correctness
//! claims — exactly-once delivery, submission-order re-slotting, panic
//! attribution, dead-pool ⇒ `Skipped` tail instead of deadlock — are
//! *interleaving* properties: no finite number of randomized runs can
//! establish them, because the adversary is the scheduler.
//!
//! This module rebuilds the protocol as an explicit state machine over the
//! **same** shared types the production pool executes
//! ([`hydra_engine::protocol`]: [`WorkerMsg`], [`ProtocolVariant`], the
//! [`Supervisor`] settlement logic verbatim), then DFS-enumerates every
//! reachable state under every scheduler choice, memoizing states so the
//! exploration is exhaustive over the *state graph* rather than the
//! exponentially larger path set. Safety properties are asserted at every
//! state (queue bound, at-most-once compute) and at every terminal state
//! (outcome correctness); a reachable non-terminal state with no enabled
//! transition is reported as a deadlock.
//!
//! # Teeth
//!
//! `hydra-engine` compiles three deliberately broken protocol variants
//! behind its `verify-mutations` feature. [`explore`] must find a
//! violating schedule for each of them and none for
//! [`ProtocolVariant::Faithful`]; the `explorer` integration test asserts
//! both directions, and [`random_walks`] shows why exhaustiveness matters:
//! single random schedules routinely miss the order-sensitive mutations.

use std::collections::VecDeque;
use std::fmt;

use hydra_types::hash::RowSet;

use hydra_engine::protocol::{CellOutcome, ProtocolVariant, Supervisor, WorkerMsg};

/// The deterministic "computation" the model runs for item `i`; chosen so
/// a result slotted at the wrong index is visibly wrong.
fn model_result(i: usize) -> u64 {
    (i as u64) * 10 + 7
}

/// One model configuration: pool shape, which items panic, which protocol
/// variant runs, and the exploration depth bound.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Worker thread count (≥ 1).
    pub workers: usize,
    /// Number of submitted items.
    pub items: usize,
    /// Item indices whose computation panics.
    pub panics: Vec<usize>,
    /// Protocol variant under test.
    pub variant: ProtocolVariant,
    /// Maximum schedule length explored; paths longer than this mark the
    /// report as truncated instead of looping forever.
    pub max_steps: usize,
}

impl ModelConfig {
    /// A faithful-protocol model with no panics and the default step bound.
    pub fn faithful(workers: usize, items: usize) -> Self {
        ModelConfig {
            workers: workers.max(1),
            items,
            panics: Vec::new(),
            variant: ProtocolVariant::Faithful,
            max_steps: default_step_bound(workers, items),
        }
    }

    /// The same model with the given panicking items.
    pub fn with_panics(mut self, panics: &[usize]) -> Self {
        self.panics = panics.to_vec();
        self
    }

    /// The same model under a different protocol variant.
    pub fn with_variant(mut self, variant: ProtocolVariant) -> Self {
        self.variant = variant;
        self
    }
}

/// A step bound comfortably above the longest possible schedule: each item
/// costs at most 4 worker steps + 1 feeder step, each worker 1 exit step,
/// the supervisor `items·2 + workers + 2` drain/join steps.
pub fn default_step_bound(workers: usize, items: usize) -> usize {
    6 * items + 3 * workers + 8
}

/// Lifecycle of one modeled worker thread.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum WorkerPhase {
    /// Blocked on (or about to) `work_rx.recv()`.
    Idle,
    /// Holds item `i`, has not yet sent `Claimed`.
    HasItem(usize),
    /// Sent `Claimed` (or skipped it, per variant); about to compute `i`.
    Ready(usize),
    /// Computed `i`; about to send `Done`.
    Computed(usize),
    /// Returned normally (queue disconnected).
    ExitedOk,
    /// Panicked while computing item `i`.
    ExitedPanic(usize),
}

impl WorkerPhase {
    fn exited(&self) -> bool {
        matches!(self, WorkerPhase::ExitedOk | WorkerPhase::ExitedPanic(_))
    }
}

/// Lifecycle of the modeled supervisor thread (the caller of
/// `run_ordered`): feed every item, drop the sender, drain messages, join
/// workers, settle.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MainPhase {
    /// Feeding item `next` into the bounded queue.
    Feeding(usize),
    /// All items fed (or the pool died); draining worker messages.
    Draining,
    /// Messages drained; joining worker `w`.
    Joining(usize),
    /// `run_ordered` returned.
    Terminal,
}

/// One global state of the model. `Hash`/`Eq` make the DFS memoizable, so
/// exploration covers the state *graph* (thousands of states) instead of
/// the path set (billions of schedules).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    main: MainPhase,
    workers: Vec<WorkerPhase>,
    /// The bounded submission queue (item indices in flight).
    queue: VecDeque<usize>,
    /// The unbounded worker→supervisor message channel.
    msgs: VecDeque<WorkerMsg<u64>>,
    /// The shared settlement state machine from `hydra_engine::protocol`.
    supervisor: Supervisor<u64>,
    /// How many times each item's computation has started (the
    /// exactly-once ledger; values above 1 are violations).
    computed: Vec<u8>,
}

impl State {
    fn initial(config: &ModelConfig) -> State {
        let workers = config.workers.min(config.items).max(1);
        State {
            main: MainPhase::Feeding(0),
            workers: vec![WorkerPhase::Idle; workers],
            queue: VecDeque::new(),
            msgs: VecDeque::new(),
            supervisor: Supervisor::new(config.items, workers, config.variant),
            computed: vec![0; config.items],
        }
    }

    fn all_workers_exited(&self) -> bool {
        self.workers.iter().all(WorkerPhase::exited)
    }
}

/// A scheduler choice: which thread takes its next atomic step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    /// The supervisor thread steps (feed / drain / join / settle).
    Main,
    /// Worker `w` steps.
    Worker(usize),
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Main => write!(f, "main"),
            Action::Worker(w) => write!(f, "worker{w}"),
        }
    }
}

/// A property violation, with the schedule that reaches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleViolation {
    /// What went wrong.
    pub property: String,
    /// The scheduler choices leading to the violation, oldest first.
    pub schedule: Vec<String>,
}

impl fmt::Display for ScheduleViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} via [{}]", self.property, self.schedule.join(" "))
    }
}

/// Result of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Distinct states visited.
    pub states: usize,
    /// Distinct terminal states reached.
    pub terminals: usize,
    /// The longest schedule examined.
    pub deepest: usize,
    /// True if some path hit the step bound (exploration incomplete).
    pub truncated: bool,
    /// The first property violation found, if any.
    pub violation: Option<ScheduleViolation>,
}

impl ExploreReport {
    /// True iff the protocol passed: every interleaving enumerated, no
    /// violation found, and the step bound never hit.
    pub fn passed(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

/// The transition function: applies `action` to `state`, returning the
/// successor, or `None` if the action is disabled (the thread is blocked).
/// Atomicity granularity matches the real pool's blocking points: one
/// channel operation or one computation per step.
fn step(config: &ModelConfig, state: &State, action: Action) -> Option<State> {
    let workers = state.workers.len();
    let cap = config.variant.queue_capacity(workers, config.items);
    match action {
        Action::Main => match state.main {
            MainPhase::Feeding(next) => {
                let mut s = state.clone();
                if state.all_workers_exited() {
                    // `work_tx.send` errors once every receiver clone is
                    // gone; the feeder breaks and the tail stays Skipped.
                    s.main = MainPhase::Draining;
                } else if next >= config.items {
                    // All fed; `drop(work_tx)` then drain.
                    s.main = MainPhase::Draining;
                } else if state.queue.len() < cap {
                    s.queue.push_back(next);
                    s.main = MainPhase::Feeding(next + 1);
                } else {
                    return None; // bounded send blocks
                }
                Some(s)
            }
            MainPhase::Draining => {
                let mut s = state.clone();
                if let Some(msg) = s.msgs.pop_front() {
                    s.supervisor.on_message(msg);
                } else if state.all_workers_exited() {
                    // Every msg_tx clone dropped: recv disconnects.
                    s.main = MainPhase::Joining(0);
                } else {
                    return None; // recv blocks awaiting messages
                }
                Some(s)
            }
            MainPhase::Joining(w) => {
                let mut s = state.clone();
                if w >= workers {
                    s.main = MainPhase::Terminal;
                } else {
                    if let WorkerPhase::ExitedPanic(i) = state.workers[w] {
                        s.supervisor
                            .on_worker_panic(w, format!("model panic on item {i}"));
                    }
                    s.main = MainPhase::Joining(w + 1);
                }
                Some(s)
            }
            MainPhase::Terminal => None,
        },
        Action::Worker(w) => {
            let feeder_done = !matches!(state.main, MainPhase::Feeding(_));
            match state.workers[w] {
                WorkerPhase::Idle => {
                    let mut s = state.clone();
                    if let Some(i) = s.queue.pop_front() {
                        s.workers[w] = WorkerPhase::HasItem(i);
                        Some(s)
                    } else if feeder_done {
                        // Queue empty and sender dropped: recv disconnects.
                        s.workers[w] = WorkerPhase::ExitedOk;
                        Some(s)
                    } else {
                        None // recv blocks awaiting work
                    }
                }
                WorkerPhase::HasItem(i) => {
                    let mut s = state.clone();
                    if config.variant.claim_before_compute() {
                        s.msgs.push_back(WorkerMsg::Claimed {
                            worker: w,
                            index: i,
                        });
                    }
                    s.workers[w] = WorkerPhase::Ready(i);
                    Some(s)
                }
                WorkerPhase::Ready(i) => {
                    let mut s = state.clone();
                    s.computed[i] = s.computed[i].saturating_add(1);
                    s.workers[w] = if config.panics.contains(&i) {
                        WorkerPhase::ExitedPanic(i)
                    } else {
                        WorkerPhase::Computed(i)
                    };
                    Some(s)
                }
                WorkerPhase::Computed(i) => {
                    let mut s = state.clone();
                    s.msgs.push_back(WorkerMsg::Done {
                        index: i,
                        result: model_result(i),
                    });
                    s.workers[w] = WorkerPhase::Idle;
                    Some(s)
                }
                WorkerPhase::ExitedOk | WorkerPhase::ExitedPanic(_) => None,
            }
        }
    }
}

/// Safety invariants checked at *every* reachable state.
fn check_invariants(config: &ModelConfig, state: &State) -> Option<String> {
    let workers = state.workers.len();
    let bound = workers.min(config.items);
    if state.queue.len() > bound {
        return Some(format!(
            "submission bound violated: {} items in flight, expected at most {bound} (workers)",
            state.queue.len()
        ));
    }
    if let Some(i) = state.computed.iter().position(|&c| c > 1) {
        return Some(format!("item {i} computed more than once"));
    }
    None
}

/// Correctness of a completed run, checked at every terminal state.
fn check_terminal(config: &ModelConfig, state: &State) -> Option<String> {
    let outcomes = state.supervisor.outcomes();
    let any_survivor = state
        .workers
        .iter()
        .any(|w| matches!(w, WorkerPhase::ExitedOk));
    for (i, outcome) in outcomes.iter().enumerate().take(config.items) {
        let computed = state.computed[i] > 0;
        let panicked = computed && config.panics.contains(&i);
        match outcome {
            CellOutcome::Done(r) => {
                if panicked {
                    return Some(format!("item {i} panicked but settled as Done"));
                }
                if !computed {
                    return Some(format!("item {i} settled as Done but never computed"));
                }
                if *r != model_result(i) {
                    return Some(format!(
                        "item {i} settled with result {r}, expected {} (submission-order re-slotting broken)",
                        model_result(i)
                    ));
                }
            }
            CellOutcome::Panicked(_) => {
                if !panicked {
                    return Some(format!("item {i} settled as Panicked but never panicked"));
                }
            }
            CellOutcome::Skipped => {
                if panicked {
                    return Some(format!(
                        "item {i} panicked on a worker but settled as Skipped (panic attribution lost)"
                    ));
                }
                if computed {
                    return Some(format!("item {i} completed but its result was lost"));
                }
                if any_survivor {
                    return Some(format!(
                        "item {i} skipped while a worker survived (lost item)"
                    ));
                }
            }
        }
    }
    None
}

/// Exhaustively explores every interleaving of the modeled protocol (DFS
/// over the memoized state graph), checking invariants at each state and
/// outcome correctness at each terminal. Deadlocks — reachable non-terminal
/// states with no enabled transition — are violations.
pub fn explore(config: &ModelConfig) -> ExploreReport {
    let initial = State::initial(config);
    let mut seen: RowSet<State> = RowSet::default();
    seen.insert(initial.clone());
    let mut report = ExploreReport {
        states: 1,
        terminals: 0,
        deepest: 0,
        truncated: false,
        violation: None,
    };
    let mut path: Vec<String> = Vec::new();
    dfs(config, &initial, &mut seen, &mut path, &mut report);
    report
}

fn dfs(
    config: &ModelConfig,
    state: &State,
    seen: &mut RowSet<State>,
    path: &mut Vec<String>,
    report: &mut ExploreReport,
) {
    if report.violation.is_some() {
        return;
    }
    report.deepest = report.deepest.max(path.len());
    if let Some(property) = check_invariants(config, state) {
        report.violation = Some(ScheduleViolation {
            property,
            schedule: path.clone(),
        });
        return;
    }
    if state.main == MainPhase::Terminal {
        report.terminals += 1;
        if let Some(property) = check_terminal(config, state) {
            report.violation = Some(ScheduleViolation {
                property,
                schedule: path.clone(),
            });
        }
        return;
    }
    if path.len() >= config.max_steps {
        report.truncated = true;
        return;
    }

    let mut any_enabled = false;
    for action in actions(state) {
        let Some(next) = step(config, state, action) else {
            continue;
        };
        any_enabled = true;
        if seen.contains(&next) {
            continue;
        }
        seen.insert(next.clone());
        report.states += 1;
        path.push(action.to_string());
        dfs(config, &next, seen, path, report);
        path.pop();
        if report.violation.is_some() {
            return;
        }
    }
    if !any_enabled {
        report.violation = Some(ScheduleViolation {
            property: "deadlock: no thread can make progress".to_string(),
            schedule: path.clone(),
        });
    }
}

fn actions(state: &State) -> impl Iterator<Item = Action> + '_ {
    std::iter::once(Action::Main).chain((0..state.workers.len()).map(Action::Worker))
}

/// Result of a randomized-schedule comparison run.
#[derive(Debug, Clone)]
pub struct RandomWalkReport {
    /// Schedules executed.
    pub walks: usize,
    /// How many of them hit a property violation.
    pub violating: usize,
}

/// Runs `walks` uniformly random schedules (deterministic in `seed`) and
/// counts how many stumble onto a violation. This is the foil for
/// [`explore`]: on order-sensitive bugs random sampling passes some —
/// often most — schedules, which is precisely why the gate is exhaustive.
pub fn random_walks(config: &ModelConfig, walks: usize, seed: u64) -> RandomWalkReport {
    let mut rng = seed;
    let mut violating = 0;
    for _ in 0..walks {
        let mut state = State::initial(config);
        let mut steps = 0;
        let violated = loop {
            if check_invariants(config, &state).is_some() {
                break true;
            }
            if state.main == MainPhase::Terminal {
                break check_terminal(config, &state).is_some();
            }
            if steps >= config.max_steps {
                break false;
            }
            let enabled: Vec<State> = actions(&state)
                .filter_map(|a| step(config, &state, a))
                .collect();
            if enabled.is_empty() {
                break true; // deadlock
            }
            rng = splitmix64(rng);
            let pick = (rng % enabled.len() as u64) as usize;
            state = enabled
                .into_iter()
                .nth(pick)
                .unwrap_or_else(State::initial_never);
            steps += 1;
        };
        if violated {
            violating += 1;
        }
    }
    RandomWalkReport { walks, violating }
}

impl State {
    /// Unreachable helper keeping `random_walks` free of `unwrap()`:
    /// `pick < enabled.len()` by construction.
    fn initial_never() -> State {
        State {
            main: MainPhase::Terminal,
            workers: Vec::new(),
            queue: VecDeque::new(),
            msgs: VecDeque::new(),
            supervisor: Supervisor::new(0, 0, ProtocolVariant::Faithful),
            computed: Vec::new(),
        }
    }
}

/// SplitMix64: the deterministic PRNG behind [`random_walks`].
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faithful_single_worker_single_item_passes() {
        let report = explore(&ModelConfig::faithful(1, 1));
        assert!(report.passed(), "{:?}", report.violation);
        assert!(report.terminals >= 1);
    }

    #[test]
    fn faithful_two_workers_two_items_passes() {
        let report = explore(&ModelConfig::faithful(2, 2));
        assert!(report.passed(), "{:?}", report.violation);
        // Concurrency is real: many distinct interleaved states.
        assert!(report.states > 50, "only {} states", report.states);
    }

    #[test]
    fn faithful_panics_settle_as_panicked() {
        let report = explore(&ModelConfig::faithful(2, 3).with_panics(&[1]));
        assert!(report.passed(), "{:?}", report.violation);
    }

    #[test]
    fn faithful_total_pool_death_skips_the_tail_without_deadlock() {
        // Sole worker panics on item 0: items 1.. must settle Skipped and
        // the feeder must never deadlock on the bounded queue.
        let report = explore(&ModelConfig::faithful(1, 3).with_panics(&[0]));
        assert!(report.passed(), "{:?}", report.violation);
    }

    #[test]
    fn step_bound_is_generous_enough_to_never_truncate() {
        for (w, n) in [(1, 1), (1, 3), (2, 2), (2, 3)] {
            let report = explore(&ModelConfig::faithful(w, n));
            assert!(!report.truncated, "({w},{n}) truncated");
        }
    }

    #[test]
    fn skip_claimed_mutation_is_detected() {
        let config = ModelConfig::faithful(2, 2)
            .with_panics(&[0])
            .with_variant(ProtocolVariant::SkipClaimedHandshake);
        let report = explore(&config);
        let violation = report.violation.expect("mutation must be detected");
        assert!(violation.property.contains("attribution"), "{violation}");
    }

    #[test]
    fn completion_order_mutation_is_detected() {
        let config =
            ModelConfig::faithful(2, 2).with_variant(ProtocolVariant::CompletionOrderDelivery);
        let report = explore(&config);
        assert!(report.violation.is_some(), "mutation must be detected");
    }

    #[test]
    fn unbounded_submission_mutation_is_detected() {
        let config = ModelConfig::faithful(2, 3).with_variant(ProtocolVariant::UnboundedSubmission);
        let report = explore(&config);
        let violation = report.violation.expect("mutation must be detected");
        assert!(violation.property.contains("bound"), "{violation}");
    }

    #[test]
    fn random_walks_are_deterministic_in_the_seed() {
        let config =
            ModelConfig::faithful(2, 2).with_variant(ProtocolVariant::CompletionOrderDelivery);
        let a = random_walks(&config, 200, 42);
        let b = random_walks(&config, 200, 42);
        assert_eq!(a.violating, b.violating);
        assert_eq!(a.walks, 200);
    }
}
