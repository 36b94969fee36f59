//! The activation daemon: a crash-isolated, backpressured multi-tenant
//! service over a Unix domain socket.
//!
//! # Thread topology
//!
//! ```text
//! listener ──accept──▶ connection threads (one per client)
//!                         │ Hello/Batch ──try_send──▶ tenant shard threads
//!                         │                              │ incidents
//!                         │ Subscribe ──register──▶ hub ─┴─▶ subscriber
//!                         ▼                               writer threads
//!                      replies (Ack/Busy/Reject) on the same stream
//! ```
//!
//! Robustness properties, each held by a dedicated mechanism and proven
//! by `tests/daemon_chaos.rs`:
//!
//! * **Malformed input cannot kill a connection** — the
//!   [`Decoder`] resynchronizes and every skipped
//!   byte-run is answered with a `Reject` frame and counted.
//! * **A panicking tenant cannot take the daemon down** — each tenant's
//!   pipeline runs on its own shard thread; a dead shard is detected at
//!   the channel seam, reaped via `JoinHandle::join`, and attributed
//!   with the engine supervisor protocol
//!   ([`Supervisor::on_worker_panic`]). Other tenants never notice.
//! * **A slow subscriber cannot wedge publishers** — incidents flow
//!   through per-subscriber [`BoundedBuf`]s; the publisher never blocks,
//!   evictions are counted, and the writer thread drains what survives.
//! * **Overload is shed, not absorbed** — a full shard queue yields a
//!   `Busy` reply with a retry hint instead of unbounded buffering.
//! * **Idle connections are reaped** — a [`Watchdog`] on the shared
//!   monotonic-clock helper closes connections that go silent.
//! * **Shutdown is graceful** — a `Drain` frame (or
//!   [`DaemonHandle::shutdown`]) stops the listener, joins connections,
//!   drains every shard, and renders the final [`ServeReport`].

#![expect(
    clippy::disallowed_types,
    reason = "the daemon owns the Unix socket and keys its tenants by name"
)]

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use hydra_engine::protocol::{ProtocolVariant, Supervisor, WorkerMsg};
use hydra_engine::CellOutcome;
use hydra_telemetry::BoundedBuf;
use hydra_types::{Deadline, MemGeometry, Stopwatch, Watchdog};

use crate::frame::{valid_tenant_name, DecodeEvent, Decoder, Frame, RejectReason};
use crate::session::{RecordedBatch, Session};
use crate::stats::{render_stats_json, MetricsSink, NoopMetrics, ServeMetrics, ServeStats};
use crate::tenant::{TenantPipeline, TenantSummary};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to bind.
    pub socket_path: PathBuf,
    /// Geometry name (`tiny` or `isca22`); must resolve via
    /// [`crate::session::geometry_by_name`].
    pub geometry_name: String,
    /// Memory geometry every tenant pipeline is built on.
    pub geometry: MemGeometry,
    /// Row-hammer threshold for every tenant tracker.
    pub t_rh: u32,
    /// Most tenants the daemon will host; further `Hello`s are shed.
    pub max_tenants: usize,
    /// Batches a tenant shard may have queued before `Busy` shedding.
    pub shard_queue: usize,
    /// Incident frames buffered per subscriber before eviction.
    pub subscriber_queue: usize,
    /// Idle watchdog: a connection silent this long is closed.
    pub idle_timeout: Duration,
    /// Read-poll granularity (bounds shutdown and watchdog latency).
    pub poll_interval: Duration,
    /// Retry hint carried in `Busy` replies, in milliseconds.
    pub busy_retry_ms: u32,
    /// Honor chaos `Crash` frames (deliberate shard panics). Off by
    /// default: a stray `Crash` is answered `Reject(not-allowed)`.
    pub allow_crash_frames: bool,
    /// Record accepted batches and outputs for session replay.
    pub record: bool,
    /// Enable the live metrics plane ([`ServeMetrics`]): latency
    /// histograms and per-tenant counters served via `StatsRequest`.
    /// Off by default — the bare daemon pays zero sampling cost, and
    /// the chaos suite proves enabling it keeps outputs digest-identical.
    pub metrics: bool,
}

impl ServeConfig {
    /// A config with production defaults on the given socket/geometry.
    pub fn new(socket_path: impl Into<PathBuf>, geometry_name: &str, t_rh: u32) -> Option<Self> {
        let geometry = crate::session::geometry_by_name(geometry_name)?;
        Some(ServeConfig {
            socket_path: socket_path.into(),
            geometry_name: geometry_name.to_string(),
            geometry,
            t_rh,
            max_tenants: 16,
            shard_queue: 8,
            subscriber_queue: 256,
            idle_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(25),
            busy_retry_ms: 20,
            allow_crash_frames: false,
            record: false,
            metrics: false,
        })
    }
}

/// A tenant shard that died by panic, attributed via the supervisor
/// protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// Tenant whose shard panicked.
    pub tenant: String,
    /// Recovered panic payload message.
    pub message: String,
}

/// Everything a daemon run produced.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Monotonic counters.
    pub stats: ServeStats,
    /// Surviving tenants' canonical summaries, sorted by name.
    pub tenants: Vec<TenantSummary>,
    /// Panicked tenant shards, sorted by name.
    pub crashed: Vec<CrashReport>,
    /// The recorded session, when [`ServeConfig::record`] was set.
    pub session: Option<Session>,
}

impl ServeReport {
    /// The summary for one tenant, if it survived to drain.
    pub fn tenant(&self, name: &str) -> Option<&TenantSummary> {
        self.tenants.iter().find(|t| t.tenant == name)
    }

    /// Grep-friendly exit report: stats counters, per-tenant summary
    /// lines, forensics retention overflow, and crash attributions.
    pub fn to_kv_lines(&self) -> String {
        let mut out = self.stats.to_kv_lines();
        for t in &self.tenants {
            out.push_str(&format!("serve.tenant {}\n", t.summary_line));
        }
        // A tenant past the probe's retention cap stops publishing
        // incidents; say so here, outside the canonical summary line.
        for t in self.tenants.iter().filter(|t| t.overflow_windows > 0) {
            out.push_str(&format!(
                "serve.tenant_overflow tenant={} windows={}\n",
                t.tenant, t.overflow_windows
            ));
        }
        for c in &self.crashed {
            out.push_str(&format!(
                "serve.crashed tenant={} message={:?}\n",
                c.tenant, c.message
            ));
        }
        out
    }
}

enum ShardMsg {
    Batch {
        seq: u64,
        rows: Vec<u64>,
        reply: SyncSender<Result<(u64, u32), RejectReason>>,
        /// Queue-wait stamp; `None` when metrics are off (zero-cost seam:
        /// the bare daemon never reads the clock here).
        enqueued_at: Option<Stopwatch>,
    },
    Crash,
    Drain,
}

struct ShardDone {
    summary: TenantSummary,
    record: Vec<RecordedBatch>,
}

struct TenantEntry {
    index: usize,
    tx: Option<SyncSender<ShardMsg>>, // None once crashed
    join: Option<JoinHandle<ShardDone>>,
}

struct TenantTable {
    entries: HashMap<String, TenantEntry>,
    names: Vec<String>, // by supervisor index
}

/// One subscriber's bounded queue. Publishers push (never block, evict
/// oldest); the subscriber's writer thread pops and writes.
struct SubQueue {
    state: Mutex<BoundedBuf<Vec<u8>>>,
    cv: Condvar,
    closed: AtomicBool,
}

impl SubQueue {
    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }

    /// Enqueues one out-of-band frame (e.g. a `StatsSnapshot` reply) for
    /// the owning writer thread. Non-blocking: bounded push + notify, so
    /// routing a stats reply through here can never wedge anything.
    fn push_frame(&self, bytes: Vec<u8>) {
        if self.closed.load(Ordering::SeqCst) {
            return;
        }
        if let Ok(mut state) = self.state.lock() {
            state.push(bytes);
        }
        self.cv.notify_one();
    }
}

struct Hub {
    subs: Mutex<Vec<Arc<SubQueue>>>,
}

impl Hub {
    /// Fans `bytes` out to every live subscriber queue. Returns the
    /// `(enqueued, evicted)` deltas for this publish so the caller can
    /// fold them into [`ServeStats`] *live* — mid-run snapshots see
    /// subscriber accounting as it happens, not only at drain.
    fn publish(&self, bytes: &[u8]) -> (u64, u64) {
        let (mut enqueued, mut evicted) = (0, 0);
        if let Ok(subs) = self.subs.lock() {
            for sub in subs.iter() {
                if sub.closed.load(Ordering::SeqCst) {
                    continue;
                }
                if let Ok(mut state) = sub.state.lock() {
                    if state.push(bytes.to_vec()).is_some() {
                        evicted += 1;
                    }
                    enqueued += 1;
                }
                sub.cv.notify_one();
            }
        }
        (enqueued, evicted)
    }

    fn register(&self, capacity: usize) -> Arc<SubQueue> {
        let sub = Arc::new(SubQueue {
            state: Mutex::new(BoundedBuf::new(capacity)),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
        });
        if let Ok(mut subs) = self.subs.lock() {
            subs.push(Arc::clone(&sub));
        }
        sub
    }

    fn close_all(&self) {
        if let Ok(subs) = self.subs.lock() {
            for sub in subs.iter() {
                sub.close();
            }
        }
    }
}

struct Shared {
    config: ServeConfig,
    stats: Mutex<ServeStats>,
    /// The metrics seam: [`ServeMetrics`] when enabled, [`NoopMetrics`]
    /// otherwise. Never consulted for control flow.
    metrics: Box<dyn MetricsSink>,
    tenants: Mutex<TenantTable>,
    supervisor: Mutex<Supervisor<()>>,
    hub: Hub,
    shutdown: AtomicBool,
    conn_joins: Mutex<Vec<JoinHandle<()>>>,
    writer_joins: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn with_stats(&self, f: impl FnOnce(&mut ServeStats)) {
        if let Ok(mut stats) = self.stats.lock() {
            f(&mut stats);
        }
    }

    /// Builds the current `StatsSnapshot` payload: counters cloned and
    /// `stats_served` bumped under one lock acquisition, latency plane
    /// snapshotted from the metrics seam.
    fn stats_snapshot_json(&self) -> String {
        let stats = match self.stats.lock() {
            Ok(mut stats) => {
                let snap = stats.clone();
                stats.stats_served += 1;
                snap
            }
            Err(_) => ServeStats::default(),
        };
        render_stats_json(&stats, self.metrics.snapshot().as_ref())
    }
}

/// Handle to a spawned daemon.
pub struct DaemonHandle {
    shared: Arc<Shared>,
    listener_join: JoinHandle<ServeReport>,
}

impl DaemonHandle {
    /// Path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.shared.config.socket_path
    }

    /// Blocks until the daemon exits (a client sends `Drain`, or
    /// [`shutdown`](Self::shutdown) was called from another handle).
    ///
    /// # Errors
    ///
    /// Returns an error if the daemon control thread itself panicked —
    /// which the chaos suite asserts never happens.
    pub fn join(self) -> Result<ServeReport, String> {
        self.listener_join
            .join()
            .map_err(|_| "daemon control thread panicked".to_string())
    }

    /// Requests a graceful drain and waits for the final report.
    ///
    /// # Errors
    ///
    /// Same as [`join`](Self::join).
    pub fn shutdown(self) -> Result<ServeReport, String> {
        request_shutdown(&self.shared);
        self.join()
    }
}

fn request_shutdown(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    // Wake the blocking accept() with a throwaway connection.
    let _ = UnixStream::connect(&shared.config.socket_path);
}

/// Binds the socket and spawns the daemon.
///
/// # Errors
///
/// Returns an I/O error if the socket cannot be bound, or a
/// configuration error (as `InvalidInput`) if the geometry/threshold
/// combination cannot build a tenant pipeline.
#[expect(
    clippy::disallowed_methods,
    reason = "the daemon starts its listener and shard threads"
)]
pub fn spawn(config: ServeConfig) -> std::io::Result<DaemonHandle> {
    // Validate the tenant-pipeline recipe once, up front, so per-tenant
    // creation cannot fail later for configuration reasons.
    TenantPipeline::new("probe", config.geometry, config.t_rh)
        .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;
    // A stale socket file from a dead daemon would make bind fail.
    let _ = std::fs::remove_file(&config.socket_path);
    let listener = UnixListener::bind(&config.socket_path)?;
    let max_tenants = config.max_tenants;
    let metrics: Box<dyn MetricsSink> = if config.metrics {
        Box::new(ServeMetrics::new())
    } else {
        Box::new(NoopMetrics)
    };
    let shared = Arc::new(Shared {
        config,
        stats: Mutex::new(ServeStats::default()),
        metrics,
        tenants: Mutex::new(TenantTable {
            entries: HashMap::new(),
            names: Vec::new(),
        }),
        supervisor: Mutex::new(Supervisor::new(
            max_tenants,
            max_tenants,
            ProtocolVariant::Faithful,
        )),
        hub: Hub {
            subs: Mutex::new(Vec::new()),
        },
        shutdown: AtomicBool::new(false),
        conn_joins: Mutex::new(Vec::new()),
        writer_joins: Mutex::new(Vec::new()),
    });
    let shared_for_listener = Arc::clone(&shared);
    let listener_join = std::thread::Builder::new()
        .name("hydra-serve-listener".to_string())
        .spawn(move || listener_main(listener, shared_for_listener))?;
    Ok(DaemonHandle {
        shared,
        listener_join,
    })
}

#[expect(clippy::disallowed_methods, reason = "one thread per connection")]
fn listener_main(listener: UnixListener, shared: Arc<Shared>) -> ServeReport {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.with_stats(|s| s.connections += 1);
        let conn_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("hydra-serve-conn".to_string())
            .spawn(move || conn_main(stream, conn_shared));
        if let Ok(handle) = spawned {
            if let Ok(mut joins) = shared.conn_joins.lock() {
                joins.push(handle);
            }
        }
    }
    drain_and_report(&shared)
}

fn drain_and_report(shared: &Shared) -> ServeReport {
    // 1. Join every connection thread (they observe the shutdown flag
    //    within one poll interval). No new batches can arrive after.
    let conn_joins = match shared.conn_joins.lock() {
        Ok(mut joins) => std::mem::take(&mut *joins),
        Err(_) => Vec::new(),
    };
    for handle in conn_joins {
        let _ = handle.join();
    }
    // 2. Drain every live shard: send Drain, join, settle the outcome
    //    through the supervisor protocol.
    let entries = match shared.tenants.lock() {
        Ok(mut table) => std::mem::take(&mut table.entries),
        Err(_) => HashMap::new(),
    };
    let mut summaries = Vec::new();
    let mut records = Vec::new();
    for (_, entry) in entries {
        if let Some(tx) = entry.tx {
            let _ = tx.send(ShardMsg::Drain);
            drop(tx);
        }
        let Some(join) = entry.join else { continue };
        match join.join() {
            Ok(done) => {
                if let Ok(mut sup) = shared.supervisor.lock() {
                    sup.on_message(WorkerMsg::Done {
                        index: entry.index,
                        result: (),
                    });
                }
                summaries.push(done.summary);
                records.extend(done.record);
            }
            Err(payload) => {
                settle_panic(shared, entry.index, panic_message(payload));
            }
        }
    }
    summaries.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    // 3. Close the hub and join the writers. Subscriber accounting is
    //    folded into stats live at publish time (so mid-run snapshots
    //    are consistent); joining here only guarantees the queues have
    //    flushed before the report is assembled.
    shared.hub.close_all();
    let writer_joins = match shared.writer_joins.lock() {
        Ok(mut joins) => std::mem::take(&mut *joins),
        Err(_) => Vec::new(),
    };
    for handle in writer_joins {
        let _ = handle.join();
    }
    // 4. Assemble the report.
    let mut crashed = Vec::new();
    let names = match shared.tenants.lock() {
        Ok(table) => table.names.clone(),
        Err(_) => Vec::new(),
    };
    if let Ok(sup) = shared.supervisor.lock() {
        for (index, outcome) in sup.outcomes().iter().enumerate() {
            if let CellOutcome::Panicked(message) = outcome {
                let tenant = names
                    .get(index)
                    .cloned()
                    .unwrap_or_else(|| format!("tenant-index-{index}"));
                crashed.push(CrashReport {
                    tenant,
                    message: message.clone(),
                });
            }
        }
    }
    crashed.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    let stats = match shared.stats.lock() {
        Ok(stats) => stats.clone(),
        Err(_) => ServeStats::default(),
    };
    let session = if shared.config.record {
        let mut session = Session {
            geometry: shared.config.geometry_name.clone(),
            t_rh: shared.config.t_rh,
            batches: records,
            outputs: summaries.clone(),
        };
        session.normalize();
        Some(session)
    } else {
        None
    };
    let _ = std::fs::remove_file(&shared.config.socket_path);
    ServeReport {
        stats,
        tenants: summaries,
        crashed,
        session,
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "opaque panic payload".to_string(),
        },
    }
}

fn settle_panic(shared: &Shared, index: usize, message: String) {
    if let Ok(mut sup) = shared.supervisor.lock() {
        sup.on_worker_panic(index, message);
    }
    shared.with_stats(|s| s.tenant_panics += 1);
}

/// Outcome of looking up (or creating) a tenant for `Hello`.
enum Registration {
    Ready(SyncSender<ShardMsg>),
    Crashed,
    Full,
}

#[expect(clippy::disallowed_methods, reason = "one shard thread per tenant")]
fn register_tenant(shared: &Arc<Shared>, name: &str) -> Registration {
    let Ok(mut table) = shared.tenants.lock() else {
        return Registration::Full;
    };
    if let Some(entry) = table.entries.get(name) {
        return match &entry.tx {
            Some(tx) => Registration::Ready(tx.clone()),
            None => Registration::Crashed,
        };
    }
    if table.names.len() >= shared.config.max_tenants {
        return Registration::Full;
    }
    let Ok(pipeline) = TenantPipeline::new(name, shared.config.geometry, shared.config.t_rh) else {
        return Registration::Full; // recipe was validated at spawn; defensive
    };
    let index = table.names.len();
    let (tx, rx) = sync_channel::<ShardMsg>(shared.config.shard_queue);
    let shard_shared = Arc::clone(shared);
    let shard_name = name.to_string();
    let spawned = std::thread::Builder::new()
        .name(format!("hydra-shard-{name}"))
        .spawn(move || shard_main(shard_name, pipeline, rx, shard_shared));
    let Ok(join) = spawned else {
        return Registration::Full;
    };
    // Claim-before-compute: the supervisor learns which tenant this
    // shard slot runs before any batch executes, so a panic is
    // attributable even if it happens on the first message.
    if let Ok(mut sup) = shared.supervisor.lock() {
        sup.on_message(WorkerMsg::Claimed {
            worker: index,
            index,
        });
    }
    table.names.push(name.to_string());
    table.entries.insert(
        name.to_string(),
        TenantEntry {
            index,
            tx: Some(tx.clone()),
            join: Some(join),
        },
    );
    Registration::Ready(tx)
}

/// Marks a tenant crashed (its channel receiver is gone), reaps the
/// shard thread, and attributes the panic.
fn reap_tenant(shared: &Shared, name: &str) {
    let (index, join) = {
        let Ok(mut table) = shared.tenants.lock() else {
            return;
        };
        let Some(entry) = table.entries.get_mut(name) else {
            return;
        };
        if entry.tx.is_none() {
            return; // already reaped
        }
        entry.tx = None;
        (entry.index, entry.join.take())
    };
    let Some(join) = join else { return };
    match join.join() {
        Err(payload) => settle_panic(shared, index, panic_message(payload)),
        Ok(_) => {
            // A shard cannot return while the table still holds its
            // sender, so a clean exit here means a logic bug — record it
            // as a panic-equivalent so it is never silent.
            settle_panic(shared, index, "shard exited without drain".to_string());
        }
    }
}

fn shard_main(
    tenant: String,
    mut pipeline: TenantPipeline,
    rx: Receiver<ShardMsg>,
    shared: Arc<Shared>,
) -> ShardDone {
    let mut record = Vec::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            ShardMsg::Batch {
                seq,
                rows,
                reply,
                enqueued_at,
            } => {
                if let Some(stamp) = enqueued_at {
                    shared.metrics.on_dequeue(&tenant, stamp.elapsed_micros());
                }
                match pipeline.apply_batch(seq, &rows) {
                    Ok(outcome) => {
                        if shared.config.record {
                            record.push(RecordedBatch {
                                tenant: tenant.clone(),
                                seq,
                                rows,
                            });
                        }
                        // `incidents_published` is bumped *before* the hub
                        // enqueues anything and `subscriber_queued` only as
                        // queues actually accept, so `queued ≤ published`
                        // holds at every mid-run snapshot.
                        let incidents = outcome.new_incidents.len() as u64;
                        shared.with_stats(|s| s.incidents_published += incidents);
                        if incidents > 0 {
                            shared.metrics.on_incidents(&tenant, incidents);
                        }
                        let produced_at = shared.metrics.is_enabled().then(Stopwatch::start);
                        for line in &outcome.new_incidents {
                            let frame = Frame::Incident {
                                tenant: tenant.clone(),
                                line: line.clone(),
                            };
                            let (enqueued, evicted) = shared.hub.publish(&frame.encode());
                            shared.with_stats(|s| {
                                s.subscriber_queued += enqueued;
                                s.subscriber_dropped += evicted;
                            });
                            if let Some(stamp) = produced_at {
                                shared.metrics.on_publish_lag(stamp.elapsed_micros());
                            }
                        }
                        let _ = reply.send(Ok((seq, outcome.accepted)));
                    }
                    Err(reason) => {
                        let _ = reply.send(Err(reason));
                    }
                }
            }
            ShardMsg::Crash => {
                // Deliberate chaos: prove the blast radius is one tenant.
                panic!("chaos crash frame for tenant {tenant}");
            }
            ShardMsg::Drain => break,
        }
    }
    ShardDone {
        summary: pipeline.finish(),
        record,
    }
}

fn write_frame(stream: &mut UnixStream, frame: &Frame) {
    // A peer that vanished mid-reply is not an error worth acting on;
    // its connection thread is about to see EOF anyway.
    let _ = stream.write_all(&frame.encode());
}

fn conn_main(mut stream: UnixStream, shared: Arc<Shared>) {
    if stream
        .set_read_timeout(Some(shared.config.poll_interval))
        .is_err()
    {
        return;
    }
    let mut decoder = Decoder::new();
    let mut watchdog = Watchdog::new(shared.config.idle_timeout);
    let mut tenant: Option<(String, SyncSender<ShardMsg>)> = None;
    let mut sub_queue: Option<Arc<SubQueue>> = None;
    let mut buf = [0u8; 4096];
    'conn: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                watchdog.feed();
                decoder.push(&buf[..n]);
                while let Some(event) = decoder.next_event() {
                    let keep_going =
                        handle_event(&mut stream, &shared, &mut tenant, &mut sub_queue, event);
                    if !keep_going {
                        break 'conn;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Subscribers are output-driven: they legitimately never
                // send another byte, so the idle watchdog spares them.
                if sub_queue.is_none() && watchdog.poll() {
                    shared.with_stats(|s| s.idle_reaped += 1);
                    break;
                }
            }
            Err(_) => break,
        }
    }
    // EOF or reap: account a torn trailing frame.
    // Dropping our read half is safe for subscribers: the writer thread
    // owns its own clone of the stream and outlives this thread.
    if let Some(DecodeEvent::Rejected { reason, .. }) = decoder.finish() {
        shared.with_stats(|s| s.record_reject(reason));
    }
}

/// Handles one decoded event. Returns `false` when the connection should
/// close.
#[expect(
    clippy::disallowed_methods,
    reason = "a subscriber gets its own writer thread"
)]
fn handle_event(
    stream: &mut UnixStream,
    shared: &Arc<Shared>,
    tenant: &mut Option<(String, SyncSender<ShardMsg>)>,
    sub_queue: &mut Option<Arc<SubQueue>>,
    event: DecodeEvent,
) -> bool {
    let frame = match event {
        DecodeEvent::Rejected { reason, .. } => {
            shared.with_stats(|s| s.record_reject(reason));
            write_frame(stream, &Frame::Reject { reason });
            return true;
        }
        DecodeEvent::Frame(frame) => frame,
    };
    shared.with_stats(|s| s.frames_ok += 1);
    match frame {
        Frame::Hello { tenant: name } => {
            if !valid_tenant_name(&name) {
                reject(stream, shared, RejectReason::BadPayload);
                return true;
            }
            match register_tenant(shared, &name) {
                Registration::Ready(tx) => {
                    *tenant = Some((name, tx));
                    write_frame(
                        stream,
                        &Frame::Ack {
                            seq: 0,
                            accepted: 0,
                        },
                    );
                }
                Registration::Crashed => reject(stream, shared, RejectReason::NotAllowed),
                Registration::Full => busy(stream, shared),
            }
        }
        Frame::Batch { seq, rows } => {
            let Some((name, tx)) = tenant.as_ref() else {
                reject(stream, shared, RejectReason::NotAllowed);
                return true;
            };
            // Metrics stamps are taken only when enabled, so the bare
            // daemon never reads the clock on this path.
            let ingest_at = shared.metrics.is_enabled().then(Stopwatch::start);
            let (reply_tx, reply_rx) = sync_channel(1);
            let msg = ShardMsg::Batch {
                seq,
                rows,
                reply: reply_tx,
                enqueued_at: ingest_at,
            };
            // Seam accounting: `offered` and its outcome (`enqueued`,
            // `shed` or `refused`) move in one critical section, so the
            // conservation identity holds at every mid-run snapshot.
            match tx.try_send(msg) {
                Ok(()) => {
                    shared.with_stats(|s| {
                        s.batches_offered += 1;
                        s.batches_enqueued += 1;
                    });
                    shared.metrics.on_enqueue(name);
                }
                Err(TrySendError::Full(_)) => {
                    shared.with_stats(|s| {
                        s.batches_offered += 1;
                        s.batches_shed += 1;
                        s.busy_shed += 1;
                    });
                    shared.metrics.on_shed(name);
                    write_frame(
                        stream,
                        &Frame::Busy {
                            retry_after_ms: shared.config.busy_retry_ms,
                        },
                    );
                    return true;
                }
                Err(TrySendError::Disconnected(_)) => {
                    shared.with_stats(|s| {
                        s.batches_offered += 1;
                        s.batches_refused += 1;
                    });
                    let name = name.clone();
                    reap_tenant(shared, &name);
                    *tenant = None;
                    reject(stream, shared, RejectReason::NotAllowed);
                    return true;
                }
            }
            // The shard normally answers promptly; a panic mid-batch
            // drops the reply sender and recv fails fast. The deadline
            // only guards against a pathologically stalled shard.
            let deadline = Deadline::after(shared.config.idle_timeout);
            match reply_rx.recv_timeout(deadline.remaining()) {
                Ok(Ok((seq, accepted))) => {
                    // Accepted-batch accounting happens here, after the
                    // enqueue accounting on this same thread, so
                    // `batches_accepted ≤ batches_enqueued` can never be
                    // observed violated by a concurrent snapshot.
                    shared.with_stats(|s| {
                        s.batches_accepted += 1;
                        s.rows_accepted += u64::from(accepted);
                    });
                    write_frame(stream, &Frame::Ack { seq, accepted });
                    if let Some(stamp) = ingest_at {
                        shared.metrics.on_batch_acked(
                            name,
                            u64::from(accepted),
                            stamp.elapsed_micros(),
                        );
                    }
                }
                Ok(Err(reason)) => reject(stream, shared, reason),
                Err(_) => {
                    let name = name.clone();
                    reap_tenant(shared, &name);
                    *tenant = None;
                    reject(stream, shared, RejectReason::NotAllowed);
                }
            }
        }
        Frame::Subscribe => {
            if sub_queue.is_some() {
                write_frame(
                    stream,
                    &Frame::Ack {
                        seq: 0,
                        accepted: 0,
                    },
                );
                return true;
            }
            let Ok(writer_stream) = stream.try_clone() else {
                reject(stream, shared, RejectReason::NotAllowed);
                return true;
            };
            let queue = shared.hub.register(shared.config.subscriber_queue);
            let writer_queue = Arc::clone(&queue);
            let spawned = std::thread::Builder::new()
                .name("hydra-serve-sub".to_string())
                .spawn(move || subscriber_writer(writer_stream, writer_queue));
            match spawned {
                Ok(handle) => {
                    if let Ok(mut joins) = shared.writer_joins.lock() {
                        joins.push(handle);
                    }
                    *sub_queue = Some(queue);
                    write_frame(
                        stream,
                        &Frame::Ack {
                            seq: 0,
                            accepted: 0,
                        },
                    );
                }
                Err(_) => reject(stream, shared, RejectReason::NotAllowed),
            }
        }
        Frame::StatsRequest => {
            let frame = Frame::StatsSnapshot {
                json: shared.stats_snapshot_json(),
            };
            match sub_queue.as_ref() {
                // On a subscriber connection the writer thread owns the
                // stream clone: route the reply through its queue so it
                // never interleaves with an incident frame mid-write and
                // never blocks the publisher (bounded push + notify).
                Some(queue) => queue.push_frame(frame.encode()),
                None => write_frame(stream, &frame),
            }
        }
        Frame::Crash => {
            if !shared.config.allow_crash_frames {
                reject(stream, shared, RejectReason::NotAllowed);
                return true;
            }
            let Some((_, tx)) = tenant.as_ref() else {
                reject(stream, shared, RejectReason::NotAllowed);
                return true;
            };
            let _ = tx.try_send(ShardMsg::Crash);
            write_frame(
                stream,
                &Frame::Ack {
                    seq: 0,
                    accepted: 0,
                },
            );
        }
        Frame::Drain => {
            write_frame(
                stream,
                &Frame::Ack {
                    seq: 0,
                    accepted: 0,
                },
            );
            request_shutdown(shared);
            return false;
        }
        // Server-to-client frames arriving at the server are protocol
        // violations from a confused or hostile peer.
        Frame::Ack { .. }
        | Frame::Busy { .. }
        | Frame::Reject { .. }
        | Frame::Incident { .. }
        | Frame::StatsSnapshot { .. } => {
            reject(stream, shared, RejectReason::NotAllowed);
        }
    }
    true
}

fn reject(stream: &mut UnixStream, shared: &Shared, reason: RejectReason) {
    shared.with_stats(|s| s.record_reject(reason));
    write_frame(stream, &Frame::Reject { reason });
}

fn busy(stream: &mut UnixStream, shared: &Shared) {
    shared.with_stats(|s| s.busy_shed += 1);
    write_frame(
        stream,
        &Frame::Busy {
            retry_after_ms: shared.config.busy_retry_ms,
        },
    );
}

/// Drains a subscriber's bounded queue onto its stream. Queue accounting
/// is folded into [`ServeStats`] live at publish time, so this thread
/// only moves bytes.
fn subscriber_writer(mut stream: UnixStream, queue: Arc<SubQueue>) {
    loop {
        let item = {
            let Ok(mut state) = queue.state.lock() else {
                break;
            };
            loop {
                if let Some(bytes) = state.pop() {
                    break Some(bytes);
                }
                if queue.closed.load(Ordering::SeqCst) {
                    break None;
                }
                state = match queue.cv.wait(state) {
                    Ok(guard) => guard,
                    Err(_) => break None,
                };
            }
            // Lock is released here, before the (possibly slow) write.
        };
        match item {
            Some(bytes) => {
                if stream.write_all(&bytes).is_err() {
                    queue.close(); // peer gone: stop buffering for it
                    break;
                }
            }
            None => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hub() -> Hub {
        Hub {
            subs: Mutex::new(Vec::new()),
        }
    }

    #[test]
    fn exit_report_names_tenants_past_the_retention_cap() {
        let summary = |tenant: &str, overflow_windows| TenantSummary {
            tenant: tenant.to_string(),
            batches: 1,
            rows: 1,
            invalid_rows: 0,
            incidents: Vec::new(),
            overflow_windows,
            summary_line: format!("tenant={tenant}"),
        };
        let report = ServeReport {
            stats: ServeStats::default(),
            tenants: vec![summary("a", 0), summary("b", 7)],
            crashed: Vec::new(),
            session: None,
        };
        let text = report.to_kv_lines();
        assert!(text.contains("serve.tenant tenant=a\n"), "{text}");
        assert!(text.contains("serve.tenant tenant=b\n"), "{text}");
        assert!(
            text.contains("serve.tenant_overflow tenant=b windows=7\n"),
            "{text}"
        );
        assert!(!text.contains("serve.tenant_overflow tenant=a"), "{text}");
    }

    #[test]
    fn hub_publish_evicts_oldest_and_accounts_without_blocking() {
        let hub = hub();
        let sub = hub.register(2);
        for i in 0..5u8 {
            hub.publish(&[i]);
        }
        let mut state = sub.state.lock().expect("queue lock");
        assert_eq!(state.pushed(), 5, "every publish is accounted");
        assert_eq!(state.dropped(), 3, "evictions are accounted, not silent");
        assert_eq!(state.pop(), Some(vec![3]));
        assert_eq!(state.pop(), Some(vec![4]));
        assert_eq!(state.pop(), None, "only the newest survive eviction");
    }

    #[test]
    fn closed_subscriber_stops_accumulating() {
        let hub = hub();
        let sub = hub.register(4);
        hub.publish(&[1]);
        sub.close();
        hub.publish(&[2]);
        let mut state = sub.state.lock().expect("queue lock");
        assert_eq!(state.pushed(), 1);
        assert_eq!(state.pop(), Some(vec![1]));
        assert_eq!(state.pop(), None);
    }
}
