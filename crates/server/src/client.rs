//! Client side of the serve protocol: a well-behaved [`Client`] with
//! exponential backoff on `Busy`, plus [`run_load`] — an adversarial
//! load generator that saturates a daemon with a mix of honest tenants,
//! a slow-reading subscriber, a frame corruptor driven by a
//! [`WireInjector`], a reconnect storm that tears connections
//! mid-frame, and (optionally) a tenant that asks its own shard to
//! panic.
//!
//! The load generator is the other half of the chaos gate: every honest
//! tenant locally replays its own batches through an identical
//! [`TenantPipeline`] and reports the
//! expected output digest, so a test (or the CI smoke job) can prove the
//! daemon computed exactly the same thing despite the adversaries —
//! zero cross-tenant interference, zero lost events.

#![expect(
    clippy::disallowed_types,
    reason = "the client end of the daemon's Unix socket"
)]

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use hydra_faults::WireInjector;
use hydra_forensics::attribution::pack_row;
use hydra_types::{Deadline, RowAddr};

use crate::frame::{DecodeEvent, Decoder, Frame};
use crate::session::geometry_by_name;
use crate::stats::StatsReading;
use crate::tenant::TenantPipeline;

/// How long [`Client::recv_event`] polls between reads.
const POLL: Duration = Duration::from_millis(10);

/// Per-reply deadline for well-behaved traffic.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Busy-retry attempts before a client gives up.
const MAX_BUSY_RETRIES: u32 = 12;

/// A protocol client over one Unix-socket connection.
pub struct Client {
    stream: UnixStream,
    decoder: Decoder,
    injector: Option<WireInjector>,
    /// How long to wait for each reply before giving up. Defaults to a
    /// patient five seconds; adversarial clients that expect their own
    /// frames to be swallowed shorten it.
    pub reply_timeout: Duration,
    /// `Busy` replies absorbed (each one retried with backoff).
    pub busy_retries: u64,
    /// `Reject` frames received.
    pub rejects_seen: u64,
}

impl Client {
    /// Connects to a daemon socket.
    ///
    /// # Errors
    ///
    /// Propagates connect/configuration I/O errors.
    pub fn connect(path: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(POLL))?;
        Ok(Client {
            stream,
            decoder: Decoder::new(),
            injector: None,
            reply_timeout: REPLY_TIMEOUT,
            busy_retries: 0,
            rejects_seen: 0,
        })
    }

    /// Routes every subsequent send through a wire-fault injector
    /// (bit flips, truncation, duplication, delay).
    pub fn with_injector(mut self, injector: WireInjector) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Sends one frame, applying wire faults when an injector is armed.
    ///
    /// # Errors
    ///
    /// Propagates write errors (daemon gone).
    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        let bytes = frame.encode();
        match self.injector.as_mut() {
            None => self.stream.write_all(&bytes),
            Some(injector) => {
                let delivery = injector.deliver(&bytes);
                if delivery.delay_ms > 0 {
                    std::thread::sleep(Duration::from_millis(delivery.delay_ms));
                }
                for chunk in &delivery.frames {
                    self.stream.write_all(chunk)?;
                }
                Ok(())
            }
        }
    }

    /// Receives the next decode event, waiting up to `timeout`.
    ///
    /// # Errors
    ///
    /// `Err("timeout")` when nothing arrived, `Err("eof")` when the
    /// daemon closed the connection.
    pub fn recv_event(&mut self, timeout: Duration) -> Result<DecodeEvent, String> {
        let deadline = Deadline::after(timeout);
        let mut buf = [0u8; 4096];
        loop {
            if let Some(event) = self.decoder.next_event() {
                return Ok(event);
            }
            if deadline.expired() {
                return Err("timeout".to_string());
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err("eof".to_string()),
                Ok(n) => self.decoder.push(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
                Err(e) => return Err(format!("read error: {e}")),
            }
        }
    }

    /// Sends `frame` and waits for its reply, absorbing `Busy` with
    /// exponential backoff (resending the same frame) and counting
    /// stray `Reject`s along the way. Incident frames are never a reply:
    /// on a subscriber the daemon may publish one before it acks the
    /// request (the subscription itself included), so they are skipped.
    ///
    /// # Errors
    ///
    /// `Err` on I/O failure, reply timeout, retry exhaustion, or when
    /// `accept_reject` is false and the daemon rejected the frame.
    fn request(&mut self, frame: &Frame, accept_reject: bool) -> Result<Frame, String> {
        let mut attempt: u32 = 0;
        let reply_timeout = self.reply_timeout;
        loop {
            self.send(frame).map_err(|e| format!("send: {e}"))?;
            loop {
                match self.recv_event(reply_timeout)? {
                    DecodeEvent::Frame(Frame::Busy { retry_after_ms }) => {
                        if attempt >= MAX_BUSY_RETRIES {
                            return Err("busy retries exhausted".to_string());
                        }
                        self.busy_retries += 1;
                        let backoff = u64::from(retry_after_ms) << attempt.min(6);
                        std::thread::sleep(Duration::from_millis(backoff.min(1000)));
                        attempt += 1;
                        break; // resend the same frame
                    }
                    DecodeEvent::Frame(Frame::Reject { reason }) => {
                        self.rejects_seen += 1;
                        if accept_reject {
                            return Ok(Frame::Reject { reason });
                        }
                        return Err(format!("rejected: {}", reason.as_str()));
                    }
                    DecodeEvent::Frame(Frame::Incident { .. }) => {}
                    DecodeEvent::Frame(other) => return Ok(other),
                    DecodeEvent::Rejected { .. } => {
                        // Corrupted daemon->client bytes never happen in
                        // these tests; tolerate and keep waiting.
                    }
                }
            }
        }
    }

    /// Registers this connection under `tenant`.
    ///
    /// # Errors
    ///
    /// `Err` if the daemon rejected or shed the registration.
    pub fn hello(&mut self, tenant: &str) -> Result<(), String> {
        match self.request(
            &Frame::Hello {
                tenant: tenant.to_string(),
            },
            false,
        )? {
            Frame::Ack { .. } => Ok(()),
            other => Err(format!("unexpected hello reply: {other:?}")),
        }
    }

    /// Sends one batch and waits for its `Ack`, retrying through `Busy`.
    ///
    /// # Errors
    ///
    /// `Err` on rejection, timeout, or I/O failure.
    pub fn send_batch(&mut self, seq: u64, rows: &[u64]) -> Result<u32, String> {
        match self.request(
            &Frame::Batch {
                seq,
                rows: rows.to_vec(),
            },
            false,
        )? {
            Frame::Ack { seq: got, accepted } if got == seq => Ok(accepted),
            other => Err(format!("unexpected batch reply: {other:?}")),
        }
    }

    /// Best-effort batch send for adversarial clients: `Ok(true)` on
    /// ack, `Ok(false)` on rejection (expected under fault injection).
    ///
    /// # Errors
    ///
    /// `Err` only on I/O failure or timeout with nothing decodable.
    pub fn send_batch_lossy(&mut self, seq: u64, rows: &[u64]) -> Result<bool, String> {
        match self.request(
            &Frame::Batch {
                seq,
                rows: rows.to_vec(),
            },
            true,
        )? {
            Frame::Ack { seq: got, .. } => Ok(got == seq),
            _ => Ok(false),
        }
    }

    /// Writes the first half of `frame`'s encoding and hangs up,
    /// consuming the client — the "killed mid-batch" adversary. The
    /// daemon must account the torn bytes as truncated and carry on.
    pub fn abandon_mid_frame(mut self, frame: &Frame) {
        let bytes = frame.encode();
        let _ = self.stream.write_all(&bytes[..bytes.len() / 2]);
        // Dropping the stream closes the connection with the frame torn.
    }

    /// Subscribes this connection to the incident feed.
    ///
    /// # Errors
    ///
    /// `Err` if the daemon did not acknowledge the subscription.
    pub fn subscribe(&mut self) -> Result<(), String> {
        match self.request(&Frame::Subscribe, false)? {
            Frame::Ack { .. } => Ok(()),
            other => Err(format!("unexpected subscribe reply: {other:?}")),
        }
    }

    /// Asks the daemon to panic this tenant's shard (chaos testing).
    ///
    /// # Errors
    ///
    /// `Err` if the daemon refused (not running with crash frames
    /// enabled) or the ack never arrived.
    pub fn crash_shard(&mut self) -> Result<(), String> {
        match self.request(&Frame::Crash, true)? {
            Frame::Ack { .. } => Ok(()),
            Frame::Reject { reason } => Err(format!("crash refused: {}", reason.as_str())),
            other => Err(format!("unexpected crash reply: {other:?}")),
        }
    }

    /// Requests a live stats snapshot and returns its raw JSON payload.
    ///
    /// Works on any connection: on a subscriber, incident frames that
    /// arrive before the snapshot are simply skipped (the daemon routes
    /// the reply through the subscriber queue, so ordering is FIFO but
    /// interleaved with the feed).
    ///
    /// # Errors
    ///
    /// `Err` on I/O failure, timeout, or an explicit daemon rejection.
    pub fn stats_json(&mut self) -> Result<String, String> {
        self.send(&Frame::StatsRequest)
            .map_err(|e| format!("send: {e}"))?;
        let deadline = Deadline::after(self.reply_timeout);
        loop {
            match self.recv_event(deadline.remaining())? {
                DecodeEvent::Frame(Frame::StatsSnapshot { json }) => return Ok(json),
                DecodeEvent::Frame(Frame::Reject { reason }) => {
                    self.rejects_seen += 1;
                    return Err(format!("stats rejected: {}", reason.as_str()));
                }
                DecodeEvent::Frame(_) | DecodeEvent::Rejected { .. } => {}
            }
        }
    }

    /// Requests a live stats snapshot, parsed and schema-checked.
    ///
    /// # Errors
    ///
    /// As [`stats_json`](Self::stats_json), plus payload parse errors.
    pub fn stats(&mut self) -> Result<StatsReading, String> {
        StatsReading::parse(&self.stats_json()?)
    }

    /// Requests a graceful daemon drain.
    ///
    /// # Errors
    ///
    /// `Err` if the drain was not acknowledged.
    pub fn drain(&mut self) -> Result<(), String> {
        match self.request(&Frame::Drain, false)? {
            Frame::Ack { .. } => Ok(()),
            other => Err(format!("unexpected drain reply: {other:?}")),
        }
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon socket to target.
    pub socket_path: PathBuf,
    /// Geometry name — must match the daemon's so local digests agree.
    pub geometry_name: String,
    /// Row-hammer threshold — must match the daemon's.
    pub t_rh: u32,
    /// Well-behaved tenants to run.
    pub tenants: usize,
    /// Batches per well-behaved tenant.
    pub batches_per_tenant: u64,
    /// Rows per batch.
    pub rows_per_batch: usize,
    /// Run the frame-corrupting adversary.
    pub corruptor: bool,
    /// Wire fault rate for the corruptor (per fault class).
    pub fault_rate: f64,
    /// Seed for the corruptor's deterministic fault stream.
    pub seed: u64,
    /// Run the slow-reading subscriber adversary.
    pub slow_reader: bool,
    /// Run the reconnect storm (connections torn mid-frame).
    pub reconnect_storm: bool,
    /// Run the tenant that crashes its own shard (daemon must allow
    /// crash frames).
    pub crash_tenant: bool,
    /// Send `Drain` when the mix completes, shutting the daemon down.
    pub drain: bool,
}

impl LoadConfig {
    /// The CI smoke preset: three honest tenants plus every adversary,
    /// ending in a drain.
    pub fn smoke(socket_path: impl Into<PathBuf>) -> Self {
        LoadConfig {
            socket_path: socket_path.into(),
            geometry_name: "tiny".to_string(),
            t_rh: 64,
            tenants: 3,
            batches_per_tenant: 24,
            rows_per_batch: 192,
            corruptor: true,
            fault_rate: 0.2,
            seed: 7,
            slow_reader: true,
            reconnect_storm: true,
            crash_tenant: true,
            drain: true,
        }
    }
}

/// One honest tenant's outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantLoadResult {
    /// Tenant name.
    pub tenant: String,
    /// Batches sent.
    pub sent: u64,
    /// Batches acknowledged by the daemon.
    pub acked: u64,
    /// `Busy` replies absorbed.
    pub busy_retries: u64,
    /// Digest of the locally computed expected output
    /// ([`crate::tenant::TenantSummary::digest`]).
    pub expected_digest: u64,
}

/// Aggregated load run outcome.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Per-honest-tenant results.
    pub tenants: Vec<TenantLoadResult>,
    /// Honest batches that were never acknowledged — the chaos gate
    /// requires this to be zero.
    pub lost_batches: u64,
    /// `Reject` frames the corruptor collected (must be nonzero when
    /// the corruptor ran with a nonzero fault rate).
    pub corruptor_rejects: u64,
    /// Corruptor batches that still made it through cleanly.
    pub corruptor_acked: u64,
    /// Incident frames the subscriber received.
    pub incidents_seen: u64,
    /// Connections the reconnect storm opened.
    pub reconnects: u64,
    /// Whether the crash tenant got its shard panic acknowledged.
    pub crash_acked: bool,
}

impl LoadReport {
    /// Grep-friendly `load.<name>=<value>` lines for the CI smoke job.
    pub fn to_kv_lines(&self) -> String {
        let mut out = String::new();
        let acked: u64 = self.tenants.iter().map(|t| t.acked).sum();
        let busy: u64 = self.tenants.iter().map(|t| t.busy_retries).sum();
        out.push_str(&format!("load.tenants={}\n", self.tenants.len()));
        out.push_str(&format!("load.acked_batches={acked}\n"));
        out.push_str(&format!("load.lost_batches={}\n", self.lost_batches));
        out.push_str(&format!("load.busy_retries={busy}\n"));
        out.push_str(&format!(
            "load.corruptor_rejects={}\n",
            self.corruptor_rejects
        ));
        out.push_str(&format!("load.corruptor_acked={}\n", self.corruptor_acked));
        out.push_str(&format!("load.incidents_seen={}\n", self.incidents_seen));
        out.push_str(&format!("load.reconnects={}\n", self.reconnects));
        out.push_str(&format!("load.crash_acked={}\n", self.crash_acked));
        for t in &self.tenants {
            out.push_str(&format!(
                "load.tenant name={} sent={} acked={} digest={:016x}\n",
                t.tenant, t.sent, t.acked, t.expected_digest
            ));
        }
        out
    }
}

/// Deterministic per-tenant batch generator: each honest tenant hammers
/// a pair of aggressor rows of its own, hard enough to cross the
/// daemon's mitigation threshold and produce forensics incidents.
pub fn tenant_batch(tenant_index: usize, seq: u64, rows_per_batch: usize) -> Vec<u64> {
    let bank = (tenant_index % 4) as u8;
    let base = 64 + (tenant_index as u32) * 8;
    (0..rows_per_batch)
        .map(|i| {
            let row = base + ((i as u32 + seq as u32) % 2) * 2;
            pack_row(RowAddr::new(0, 0, bank, row))
        })
        .collect()
}

fn honest_tenant(config: &LoadConfig, index: usize) -> Result<TenantLoadResult, String> {
    let tenant = format!("tenant-{index}");
    let geometry =
        geometry_by_name(&config.geometry_name).ok_or("unknown geometry in load config")?;
    let mut local = TenantPipeline::new(&tenant, geometry, config.t_rh)?;
    let mut client = Client::connect(&config.socket_path).map_err(|e| format!("connect: {e}"))?;
    client.hello(&tenant)?;
    let mut sent = 0;
    let mut acked = 0;
    for seq in 1..=config.batches_per_tenant {
        let rows = tenant_batch(index, seq, config.rows_per_batch);
        local
            .apply_batch(seq, &rows)
            .map_err(|r| format!("local pipeline rejected: {}", r.as_str()))?;
        sent += 1;
        client.send_batch(seq, &rows)?;
        acked += 1;
    }
    Ok(TenantLoadResult {
        tenant,
        sent,
        acked,
        busy_retries: client.busy_retries,
        expected_digest: local.finish().digest(),
    })
}

fn corruptor(config: &LoadConfig) -> Result<(u64, u64), String> {
    let mut client = Client::connect(&config.socket_path).map_err(|e| format!("connect: {e}"))?;
    // Register cleanly so the tenant exists, then arm the injector.
    client.hello("corruptor")?;
    let mut client = client.with_injector(WireInjector::new(config.fault_rate, config.seed));
    // Short patience: a truncated frame gets no reply until the next
    // send resynchronizes the daemon's decoder, so waiting the full
    // well-behaved timeout would stall the whole mix.
    client.reply_timeout = Duration::from_millis(250);
    let mut acked = 0;
    for seq in 1..=config.batches_per_tenant {
        let rows = tenant_batch(9, seq, config.rows_per_batch.min(64));
        // Few attempts, short patience: corrupted frames may simply be
        // swallowed until the next frame resyncs the decoder.
        for _ in 0..3 {
            match client.send_batch_lossy(seq, &rows) {
                Ok(true) => {
                    acked += 1;
                    break;
                }
                Ok(false) => continue,
                Err(e) if e == "timeout" => continue,
                Err(e) => return Err(format!("corruptor: {e}")),
            }
        }
    }
    Ok((client.rejects_seen, acked))
}

fn reconnect_storm(config: &LoadConfig) -> Result<u64, String> {
    let mut reconnects = 0;
    for round in 0..10u64 {
        let Ok(mut client) = Client::connect(&config.socket_path) else {
            continue;
        };
        reconnects += 1;
        if client.hello("storm").is_err() {
            continue;
        }
        let rows = tenant_batch(11, round + 1, 32);
        if round % 2 == 0 {
            let _ = client.send_batch(round + 1, &rows);
        } else {
            // Tear the connection mid-frame: the daemon must account it
            // as truncated and carry on.
            client.abandon_mid_frame(&Frame::Batch {
                seq: round + 1,
                rows,
            });
        }
    }
    Ok(reconnects)
}

fn subscriber(socket_path: &Path, done: &AtomicBool, slow: bool) -> Result<u64, String> {
    let mut client = Client::connect(socket_path).map_err(|e| format!("connect: {e}"))?;
    client.subscribe()?;
    let mut seen = 0;
    loop {
        match client.recv_event(Duration::from_millis(200)) {
            Ok(DecodeEvent::Frame(Frame::Incident { .. })) => {
                seen += 1;
                if slow {
                    // Deliberately lag so the daemon's bounded buffer
                    // has to evict (accounted as subscriber_dropped).
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            Ok(_) => {}
            Err(e) if e == "eof" => break,
            Err(_) => {
                if done.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    Ok(seen)
}

fn crash_tenant(config: &LoadConfig) -> Result<bool, String> {
    let mut client = Client::connect(&config.socket_path).map_err(|e| format!("connect: {e}"))?;
    client.hello("crasher")?;
    let rows = tenant_batch(13, 1, 64);
    client.send_batch(1, &rows)?;
    client.crash_shard()?;
    // The shard dies asynchronously; subsequent batches must be turned
    // away (not hung, not crossed into another tenant).
    let mut rejected = false;
    for seq in 2..=6u64 {
        match client.send_batch_lossy(seq, &rows) {
            Ok(false) => {
                rejected = true;
                break;
            }
            Ok(true) => std::thread::sleep(Duration::from_millis(20)),
            Err(_) => {
                rejected = true; // connection-level failure also counts
                break;
            }
        }
    }
    if !rejected {
        return Err("crashed shard kept accepting batches".to_string());
    }
    Ok(true)
}

/// Runs the full adversarial mix against a live daemon.
///
/// # Errors
///
/// Returns the first failure that violates the chaos gate: an honest
/// tenant losing a batch, the corruptor seeing zero rejects at a nonzero
/// fault rate, or a crashed shard continuing to accept work.
#[expect(
    clippy::disallowed_methods,
    reason = "the adversary mix runs one thread per client"
)]
pub fn run_load(config: &LoadConfig) -> Result<LoadReport, String> {
    let done = Arc::new(AtomicBool::new(false));
    let mut report = LoadReport::default();

    let sub_join = if config.slow_reader {
        let path = config.socket_path.clone();
        let done = Arc::clone(&done);
        std::thread::Builder::new()
            .name("load-subscriber".to_string())
            .spawn(move || subscriber(&path, &done, true))
            .ok()
    } else {
        None
    };

    let mut honest_joins = Vec::new();
    for index in 0..config.tenants {
        let cfg = config.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("load-tenant-{index}"))
            .spawn(move || honest_tenant(&cfg, index));
        honest_joins.push(spawned.map_err(|e| format!("spawn: {e}"))?);
    }
    let corruptor_join = if config.corruptor {
        let cfg = config.clone();
        std::thread::Builder::new()
            .name("load-corruptor".to_string())
            .spawn(move || corruptor(&cfg))
            .ok()
    } else {
        None
    };
    let storm_join = if config.reconnect_storm {
        let cfg = config.clone();
        std::thread::Builder::new()
            .name("load-storm".to_string())
            .spawn(move || reconnect_storm(&cfg))
            .ok()
    } else {
        None
    };
    let crash_join = if config.crash_tenant {
        let cfg = config.clone();
        std::thread::Builder::new()
            .name("load-crasher".to_string())
            .spawn(move || crash_tenant(&cfg))
            .ok()
    } else {
        None
    };

    for join in honest_joins {
        let result = join
            .join()
            .map_err(|_| "honest tenant thread panicked".to_string())??;
        report.lost_batches += result.sent - result.acked;
        report.tenants.push(result);
    }
    if let Some(join) = corruptor_join {
        let (rejects, acked) = join
            .join()
            .map_err(|_| "corruptor thread panicked".to_string())??;
        report.corruptor_rejects = rejects;
        report.corruptor_acked = acked;
    }
    if let Some(join) = storm_join {
        report.reconnects = join
            .join()
            .map_err(|_| "storm thread panicked".to_string())??;
    }
    if let Some(join) = crash_join {
        report.crash_acked = join
            .join()
            .map_err(|_| "crash-tenant thread panicked".to_string())??;
    }

    done.store(true, Ordering::SeqCst);
    if config.drain {
        let mut client =
            Client::connect(&config.socket_path).map_err(|e| format!("connect: {e}"))?;
        client.drain()?;
    }
    if let Some(join) = sub_join {
        report.incidents_seen = join
            .join()
            .map_err(|_| "subscriber thread panicked".to_string())??;
    }

    if report.lost_batches > 0 {
        return Err(format!(
            "chaos gate violated: {} honest batches lost",
            report.lost_batches
        ));
    }
    if config.corruptor && config.fault_rate > 0.0 && report.corruptor_rejects == 0 {
        return Err("corruptor saw zero rejects at a nonzero fault rate".to_string());
    }
    report.tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixListener;

    #[test]
    #[expect(clippy::disallowed_methods, reason = "a stand-in daemon thread")]
    fn subscribe_skips_an_incident_that_arrives_before_its_ack() {
        let path = std::env::temp_dir().join(format!(
            "hydra-client-subscribe-{}.sock",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        let daemon = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let incident = Frame::Incident {
                tenant: "t0".to_string(),
                line: "{}".to_string(),
            };
            stream.write_all(&incident.encode()).unwrap();
            let ack = Frame::Ack {
                seq: 0,
                accepted: 0,
            };
            stream.write_all(&ack.encode()).unwrap();
            // Hold the connection open until the client has read both.
            let mut sink = Vec::new();
            let _ = stream.read_to_end(&mut sink);
        });
        let mut client = Client::connect(&path).unwrap();
        let reply = client.subscribe();
        drop(client);
        daemon.join().unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(reply, Ok(()));
    }
}
