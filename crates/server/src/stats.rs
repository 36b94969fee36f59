//! Daemon-wide accounting and the live metrics plane.
//!
//! Two layers live here:
//!
//! 1. [`ServeStats`] — the conservation ledger: every frame the daemon
//!    rejects, every connection it sheds, every subscriber event it
//!    drops is counted. The chaos gate in `tests/daemon_chaos.rs` holds
//!    the daemon to a conservation law: adversarial traffic may be
//!    rejected, shed or dropped, but it must always be *accounted* —
//!    nothing disappears silently, and well-behaved tenants lose
//!    nothing at all. The ledger is **snapshot-consistent**: the seam
//!    counters for one offered batch are updated in a single critical
//!    section, so the identity `enqueued + shed + refused = offered`
//!    holds at *every* mid-run snapshot, not just at drain (see
//!    DESIGN.md §15.2).
//! 2. [`MetricsSink`] / [`ServeMetrics`] — the optional latency plane:
//!    per-tenant counters plus [`LatencyHistogram`]s for
//!    batch-ingest→Ack latency, shard-queue wait, and incident publish
//!    lag, sampled on the monotonic clock via
//!    [`hydra_types::Stopwatch`]. The seam mirrors the
//!    `EventSink`/`NoopSink` pattern from `hydra-telemetry`: the
//!    default [`NoopMetrics`] compiles to nothing and reports
//!    [`is_enabled`](MetricsSink::is_enabled)` = false`, so the bare
//!    daemon pays zero cost and the metered daemon stays
//!    digest-identical (proven by the chaos suite).
//!
//! Both layers are rendered into the schema-versioned
//! [`SERVE_STATS_SCHEMA_VERSION`] JSON payload carried by
//! `StatsSnapshot` frames and scraped by `hydra top`.

use std::collections::BTreeMap;

use hydra_telemetry::histogram::LatencyHistogram;
use hydra_types::json::{self, quote, JsonValue};
use hydra_types::Stopwatch;

use crate::frame::RejectReason;

/// Schema version tag for the live stats snapshot payload.
///
/// This is the single definition of the literal; the `repo_policy` test
/// of `hydra-analysis` enforces that no other library source repeats it.
pub const SERVE_STATS_SCHEMA_VERSION: &str = "hydra-serve-stats-v1";

/// Metric-name catalog: the JSON keys under which latency-plane series
/// are published in a [`SERVE_STATS_SCHEMA_VERSION`] snapshot.
///
/// This module is the single definition site for these strings;
/// `hydra-analysis`'s `repo_policy` test enforces that no other library
/// source repeats them, so a dashboard scraping one spelling
/// can never drift from a daemon publishing another.
pub mod names {
    /// Batch-ingest→Ack latency histogram (microseconds): stamped when a
    /// `Batch` frame is decoded, recorded when its `Ack` is written.
    pub const INGEST_US: &str = "ingest_us";
    /// Shard-queue wait histogram (microseconds): stamped at `try_send`,
    /// recorded when the shard dequeues the batch.
    pub const QUEUE_WAIT_US: &str = "queue_wait_us";
    /// Incident publish lag histogram (microseconds): stamped when a
    /// batch's incidents are produced, recorded as each one lands in the
    /// subscriber hub.
    pub const PUBLISH_LAG_US: &str = "publish_lag_us";
    /// Per-tenant shard-queue depth gauge (batches enqueued, not yet
    /// dequeued).
    pub const QUEUE_DEPTH: &str = "queue_depth";
    /// Monotonic microseconds since the daemon started sampling.
    pub const UPTIME_MICROS: &str = "uptime_micros";
}

/// Monotonic counters for one daemon run.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted by the listener.
    pub connections: u64,
    /// Connections closed by the idle watchdog.
    pub idle_reaped: u64,
    /// Well-formed frames decoded across all connections.
    pub frames_ok: u64,
    /// Batch frames from registered tenants that reached the shard-queue
    /// seam (`try_send`). Every offer lands in exactly one of
    /// [`batches_enqueued`](Self::batches_enqueued),
    /// [`batches_shed`](Self::batches_shed) or
    /// [`batches_refused`](Self::batches_refused), updated in the same
    /// critical section, so the identity holds at every snapshot.
    pub batches_offered: u64,
    /// Offered batches accepted into a shard queue.
    pub batches_enqueued: u64,
    /// Offered batches shed with `Busy` because the shard queue was full.
    pub batches_shed: u64,
    /// Offered batches refused because the tenant shard was gone
    /// (crashed between registration and offer).
    pub batches_refused: u64,
    /// Batches fully applied by tenant pipelines (Ack observed).
    pub batches_accepted: u64,
    /// Rows applied by tenant pipelines.
    pub rows_accepted: u64,
    /// `Busy` replies sent (load shed under backpressure): every shed
    /// batch offer, plus `Hello`s shed because the tenant table is full.
    pub busy_shed: u64,
    /// Tenant shards lost to panics (each one reaped and attributed).
    pub tenant_panics: u64,
    /// Incident frames published to the subscriber hub.
    pub incidents_published: u64,
    /// Incident frames enqueued across all subscriber buffers.
    pub subscriber_queued: u64,
    /// Incident frames evicted from slow subscribers' bounded buffers.
    pub subscriber_dropped: u64,
    /// `StatsSnapshot` frames served.
    pub stats_served: u64,
    /// Rejected frames/byte-runs by [`RejectReason`] name.
    pub rejects: BTreeMap<&'static str, u64>,
}

impl ServeStats {
    /// Counts one rejection.
    pub fn record_reject(&mut self, reason: RejectReason) {
        *self.rejects.entry(reason.as_str()).or_insert(0) += 1;
    }

    /// Total rejections across all reasons.
    pub fn rejected_total(&self) -> u64 {
        self.rejects.values().sum()
    }

    /// The scalar counters as stable `(name, value)` pairs — one source
    /// for both the kv exit report and the JSON snapshot payload.
    fn scalars(&self) -> [(&'static str, u64); 15] {
        [
            ("connections", self.connections),
            ("idle_reaped", self.idle_reaped),
            ("frames_ok", self.frames_ok),
            ("batches_offered", self.batches_offered),
            ("batches_enqueued", self.batches_enqueued),
            ("batches_shed", self.batches_shed),
            ("batches_refused", self.batches_refused),
            ("batches_accepted", self.batches_accepted),
            ("rows_accepted", self.rows_accepted),
            ("busy_shed", self.busy_shed),
            ("tenant_panics", self.tenant_panics),
            ("incidents_published", self.incidents_published),
            ("subscriber_queued", self.subscriber_queued),
            ("subscriber_dropped", self.subscriber_dropped),
            ("stats_served", self.stats_served),
        ]
    }

    /// Renders the counters as sorted `serve.<name>=<value>` lines —
    /// the daemon's exit report, grep-friendly for the CI smoke job.
    pub fn to_kv_lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.scalars() {
            out.push_str(&format!("serve.{name}={value}\n"));
        }
        out.push_str(&format!("serve.rejected_total={}\n", self.rejected_total()));
        for (reason, count) in &self.rejects {
            out.push_str(&format!("serve.reject.{reason}={count}\n"));
        }
        out
    }
}

/// Five-number summary of one [`LatencyHistogram`], in the histogram's
/// native unit (microseconds for every wire-path series).
#[derive(Debug, Clone, PartialEq)]
pub struct HistSummary {
    /// Samples recorded.
    pub count: u64,
    /// Exact mean of recorded values.
    pub mean: f64,
    /// Approximate median (log-bucketed, clamped to the true max).
    pub p50: f64,
    /// Approximate 99th percentile.
    pub p99: f64,
    /// Exact maximum recorded value.
    pub max: u64,
}

impl HistSummary {
    /// Summarizes a histogram.
    pub fn of(h: &LatencyHistogram) -> Self {
        HistSummary {
            count: h.count(),
            mean: h.mean(),
            p50: h.percentile(0.50),
            p99: h.percentile(0.99),
            max: h.max(),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
            self.count, self.mean, self.p50, self.p99, self.max
        )
    }

    fn parse(v: &JsonValue) -> Result<Self, String> {
        let field = |k: &str| -> Result<f64, String> {
            v.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("histogram summary missing numeric {k:?}"))
        };
        Ok(HistSummary {
            count: field("count")? as u64,
            mean: field("mean")?,
            p50: field("p50")?,
            p99: field("p99")?,
            max: field("max")? as u64,
        })
    }
}

/// One tenant's row in a metrics snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantRow {
    /// Tenant name.
    pub tenant: String,
    /// Batches Ack'd for this tenant.
    pub batches: u64,
    /// Rows (activations) applied for this tenant.
    pub rows: u64,
    /// `Busy` sheds at this tenant's shard-queue seam.
    pub sheds: u64,
    /// Incidents this tenant's pipeline produced.
    pub incidents: u64,
    /// Batches enqueued but not yet dequeued (gauge).
    pub queue_depth: u64,
    /// Ingest (Batch→Ack) latency summary for this tenant.
    pub ingest: HistSummary,
}

/// A point-in-time view of the latency plane, produced by
/// [`MetricsSink::snapshot`] when metrics are enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic microseconds since the daemon started sampling.
    pub uptime_micros: u64,
    /// Batch-ingest→Ack latency across all tenants.
    pub ingest: HistSummary,
    /// Shard-queue wait across all tenants.
    pub queue_wait: HistSummary,
    /// Incident publish lag (incident produced → hub enqueue).
    pub publish_lag: HistSummary,
    /// Per-tenant rows, sorted by tenant name.
    pub tenants: Vec<TenantRow>,
}

/// Where daemon hot paths report latency samples and per-tenant deltas.
///
/// Mirrors the `hydra_telemetry::EventSink` seam: every method has an
/// empty default, [`NoopMetrics`] keeps the bare daemon zero-cost (hot
/// paths gate their `Stopwatch` stamps on
/// [`is_enabled`](Self::is_enabled)), and the live [`ServeMetrics`]
/// registry aggregates under a single short-held mutex. Metrics must
/// never influence control flow — that is what keeps the metered daemon
/// digest-identical to bare.
pub trait MetricsSink: Send + Sync {
    /// True when samples are recorded; lets hot paths skip clock reads
    /// entirely when metrics are off.
    fn is_enabled(&self) -> bool {
        true
    }
    /// A batch entered `tenant`'s shard queue.
    fn on_enqueue(&self, _tenant: &str) {}
    /// A batch left `tenant`'s shard queue after waiting `wait_micros`.
    fn on_dequeue(&self, _tenant: &str, _wait_micros: u64) {}
    /// A batch offer for `tenant` was shed with `Busy`.
    fn on_shed(&self, _tenant: &str) {}
    /// A batch for `tenant` was Ack'd: `rows` applied, end-to-end
    /// ingest latency `ingest_micros`.
    fn on_batch_acked(&self, _tenant: &str, _rows: u64, _ingest_micros: u64) {}
    /// `tenant`'s pipeline produced `count` new incidents.
    fn on_incidents(&self, _tenant: &str, _count: u64) {}
    /// One incident reached the subscriber hub `lag_micros` after it was
    /// produced.
    fn on_publish_lag(&self, _lag_micros: u64) {}
    /// A consistent point-in-time view, or `None` when disabled.
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }
}

/// The do-nothing sink: the default when metrics are off.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopMetrics;

impl MetricsSink for NoopMetrics {
    #[inline(always)]
    fn is_enabled(&self) -> bool {
        false
    }
    #[inline(always)]
    fn on_enqueue(&self, _tenant: &str) {}
    #[inline(always)]
    fn on_dequeue(&self, _tenant: &str, _wait_micros: u64) {}
    #[inline(always)]
    fn on_shed(&self, _tenant: &str) {}
    #[inline(always)]
    fn on_batch_acked(&self, _tenant: &str, _rows: u64, _ingest_micros: u64) {}
    #[inline(always)]
    fn on_incidents(&self, _tenant: &str, _count: u64) {}
    #[inline(always)]
    fn on_publish_lag(&self, _lag_micros: u64) {}
}

#[derive(Debug, Default)]
struct TenantMetrics {
    batches: u64,
    rows: u64,
    sheds: u64,
    incidents: u64,
    enqueued: u64,
    dequeued: u64,
    ingest: LatencyHistogram,
}

#[derive(Debug, Default)]
struct MetricsInner {
    queue_wait: LatencyHistogram,
    publish_lag: LatencyHistogram,
    tenants: BTreeMap<String, TenantMetrics>,
}

impl MetricsInner {
    fn tenant(&mut self, name: &str) -> &mut TenantMetrics {
        // entry() would allocate a String on every hot-path call; probe
        // first so the steady state is allocation-free.
        if !self.tenants.contains_key(name) {
            self.tenants
                .insert(name.to_string(), TenantMetrics::default());
        }
        self.tenants
            .get_mut(name)
            .unwrap_or_else(|| unreachable!("tenant row inserted above"))
    }
}

/// The live metrics registry: per-tenant counters plus wire-path
/// latency histograms under one short-held mutex.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Stopwatch,
    inner: std::sync::Mutex<MetricsInner>,
}

impl ServeMetrics {
    /// A registry anchored now.
    pub fn new() -> Self {
        ServeMetrics {
            started: Stopwatch::start(),
            inner: std::sync::Mutex::new(MetricsInner::default()),
        }
    }

    fn with_inner(&self, f: impl FnOnce(&mut MetricsInner)) {
        if let Ok(mut inner) = self.inner.lock() {
            f(&mut inner);
        }
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl MetricsSink for ServeMetrics {
    fn on_enqueue(&self, tenant: &str) {
        self.with_inner(|m| m.tenant(tenant).enqueued += 1);
    }

    fn on_dequeue(&self, tenant: &str, wait_micros: u64) {
        self.with_inner(|m| {
            m.queue_wait.record(wait_micros);
            m.tenant(tenant).dequeued += 1;
        });
    }

    fn on_shed(&self, tenant: &str) {
        self.with_inner(|m| m.tenant(tenant).sheds += 1);
    }

    fn on_batch_acked(&self, tenant: &str, rows: u64, ingest_micros: u64) {
        self.with_inner(|m| {
            let t = m.tenant(tenant);
            t.batches += 1;
            t.rows += rows;
            t.ingest.record(ingest_micros);
        });
    }

    fn on_incidents(&self, tenant: &str, count: u64) {
        self.with_inner(|m| m.tenant(tenant).incidents += count);
    }

    fn on_publish_lag(&self, lag_micros: u64) {
        self.with_inner(|m| m.publish_lag.record(lag_micros));
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        let uptime_micros = self.started.elapsed_micros();
        let inner = self.inner.lock().ok()?;
        let mut ingest_all = LatencyHistogram::new();
        let mut tenants = Vec::with_capacity(inner.tenants.len());
        for (name, t) in &inner.tenants {
            ingest_all.merge(&t.ingest);
            tenants.push(TenantRow {
                tenant: name.clone(),
                batches: t.batches,
                rows: t.rows,
                sheds: t.sheds,
                incidents: t.incidents,
                queue_depth: t.enqueued.saturating_sub(t.dequeued),
                ingest: HistSummary::of(&t.ingest),
            });
        }
        Some(MetricsSnapshot {
            uptime_micros,
            ingest: HistSummary::of(&ingest_all),
            queue_wait: HistSummary::of(&inner.queue_wait),
            publish_lag: HistSummary::of(&inner.publish_lag),
            tenants,
        })
    }
}

/// Renders the [`SERVE_STATS_SCHEMA_VERSION`] JSON payload: the counter
/// ledger always, the latency plane when metrics are enabled (`null`
/// otherwise, so scrapers can tell "disabled" from "idle").
pub fn render_stats_json(stats: &ServeStats, metrics: Option<&MetricsSnapshot>) -> String {
    let mut out = String::with_capacity(1024);
    out.push_str("{\"schema\":");
    out.push_str(&quote(SERVE_STATS_SCHEMA_VERSION));
    out.push_str(",\"counters\":{");
    for (name, value) in stats.scalars() {
        out.push_str(&format!("{}:{value},", quote(name)));
    }
    out.push_str(&format!(
        "\"rejected_total\":{},\"rejects\":{{",
        stats.rejected_total()
    ));
    let mut first = true;
    for (reason, count) in &stats.rejects {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{}:{count}", quote(reason)));
    }
    out.push_str("}},\"metrics\":");
    match metrics {
        None => out.push_str("null"),
        Some(m) => {
            out.push_str(&format!(
                "{{\"{}\":{},\"{}\":{},\"{}\":{},\"{}\":{},\"tenants\":[",
                names::UPTIME_MICROS,
                m.uptime_micros,
                names::INGEST_US,
                m.ingest.to_json(),
                names::QUEUE_WAIT_US,
                m.queue_wait.to_json(),
                names::PUBLISH_LAG_US,
                m.publish_lag.to_json(),
            ));
            for (i, t) in m.tenants.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"tenant\":{},\"batches\":{},\"rows\":{},\"sheds\":{},\"incidents\":{},\"{}\":{},\"{}\":{}}}",
                    quote(&t.tenant),
                    t.batches,
                    t.rows,
                    t.sheds,
                    t.incidents,
                    names::QUEUE_DEPTH,
                    t.queue_depth,
                    names::INGEST_US,
                    t.ingest.to_json(),
                ));
            }
            out.push_str("]}");
        }
    }
    out.push('}');
    out
}

/// A parsed [`SERVE_STATS_SCHEMA_VERSION`] snapshot, as seen by `hydra
/// top`, the load client and the chaos tests.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReading {
    /// Scalar counters by ledger name (includes `rejected_total`).
    pub counters: BTreeMap<String, u64>,
    /// Reject counts by reason name.
    pub rejects: BTreeMap<String, u64>,
    /// The latency plane, when the daemon had metrics enabled.
    pub metrics: Option<MetricsSnapshot>,
}

impl StatsReading {
    /// One scalar counter (0 when absent, so identity checks read
    /// naturally).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Parses and schema-checks a snapshot payload.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: malformed
    /// JSON, a missing/foreign schema tag, or a non-numeric counter.
    pub fn parse(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let schema = v
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("snapshot missing schema tag")?;
        if schema != SERVE_STATS_SCHEMA_VERSION {
            return Err(format!(
                "snapshot schema {schema:?}, expected {SERVE_STATS_SCHEMA_VERSION:?}"
            ));
        }
        let Some(JsonValue::Obj(counter_map)) = v.get("counters") else {
            return Err("snapshot missing counters object".to_string());
        };
        let mut counters = BTreeMap::new();
        let mut rejects = BTreeMap::new();
        for (name, value) in counter_map {
            if name == "rejects" {
                let JsonValue::Obj(reject_map) = value else {
                    return Err("counters.rejects is not an object".to_string());
                };
                for (reason, count) in reject_map {
                    let count = count
                        .as_u64()
                        .ok_or_else(|| format!("reject count {reason:?} is not a u64"))?;
                    rejects.insert(reason.clone(), count);
                }
                continue;
            }
            let value = value
                .as_u64()
                .ok_or_else(|| format!("counter {name:?} is not a u64"))?;
            counters.insert(name.clone(), value);
        }
        let metrics = match v.get("metrics") {
            None | Some(JsonValue::Null) => None,
            Some(m) => Some(parse_metrics(m)?),
        };
        Ok(StatsReading {
            counters,
            rejects,
            metrics,
        })
    }
}

fn parse_metrics(v: &JsonValue) -> Result<MetricsSnapshot, String> {
    let uptime_micros = v
        .get(names::UPTIME_MICROS)
        .and_then(JsonValue::as_u64)
        .ok_or("metrics missing uptime")?;
    let hist = |k: &str| -> Result<HistSummary, String> {
        HistSummary::parse(v.get(k).ok_or_else(|| format!("metrics missing {k:?}"))?)
    };
    let mut tenants = Vec::new();
    for row in v
        .get("tenants")
        .and_then(JsonValue::as_array)
        .ok_or("metrics missing tenants array")?
    {
        let s = |k: &str| -> Result<u64, String> {
            row.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("tenant row missing {k:?}"))
        };
        tenants.push(TenantRow {
            tenant: row
                .get("tenant")
                .and_then(JsonValue::as_str)
                .ok_or("tenant row missing name")?
                .to_string(),
            batches: s("batches")?,
            rows: s("rows")?,
            sheds: s("sheds")?,
            incidents: s("incidents")?,
            queue_depth: s(names::QUEUE_DEPTH)?,
            ingest: HistSummary::parse(
                row.get(names::INGEST_US)
                    .ok_or("tenant row missing ingest histogram")?,
            )?,
        });
    }
    Ok(MetricsSnapshot {
        uptime_micros,
        ingest: hist(names::INGEST_US)?,
        queue_wait: hist(names::QUEUE_WAIT_US)?,
        publish_lag: hist(names::PUBLISH_LAG_US)?,
        tenants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reject_accounting_sums_by_reason() {
        let mut s = ServeStats::default();
        s.record_reject(RejectReason::BadMagic);
        s.record_reject(RejectReason::BadMagic);
        s.record_reject(RejectReason::Truncated);
        assert_eq!(s.rejected_total(), 3);
        assert_eq!(s.rejects.get("bad-magic"), Some(&2));
        assert_eq!(s.rejects.get("truncated"), Some(&1));
    }

    #[test]
    fn kv_lines_are_stable_and_complete() {
        let mut s = ServeStats {
            connections: 4,
            busy_shed: 2,
            batches_offered: 9,
            ..ServeStats::default()
        };
        s.record_reject(RejectReason::Oversize);
        let text = s.to_kv_lines();
        assert!(text.contains("serve.connections=4\n"));
        assert!(text.contains("serve.busy_shed=2\n"));
        assert!(text.contains("serve.batches_offered=9\n"));
        assert!(text.contains("serve.rejected_total=1\n"));
        assert!(text.contains("serve.reject.oversize=1\n"));
    }

    #[test]
    fn noop_metrics_is_disabled_and_snapshotless() {
        let m = NoopMetrics;
        assert!(!m.is_enabled());
        m.on_enqueue("a");
        m.on_batch_acked("a", 10, 5);
        assert_eq!(m.snapshot(), None);
    }

    #[test]
    fn serve_metrics_aggregates_per_tenant() {
        let m = ServeMetrics::new();
        assert!(m.is_enabled());
        for _ in 0..3 {
            m.on_enqueue("alpha");
        }
        m.on_dequeue("alpha", 7);
        m.on_batch_acked("alpha", 192, 120);
        m.on_shed("alpha");
        m.on_incidents("alpha", 2);
        m.on_publish_lag(33);
        m.on_batch_acked("beta", 10, 999);
        let snap = m.snapshot().expect("live metrics snapshot");
        assert_eq!(snap.tenants.len(), 2);
        let alpha = &snap.tenants[0];
        assert_eq!(alpha.tenant, "alpha");
        assert_eq!(alpha.batches, 1);
        assert_eq!(alpha.rows, 192);
        assert_eq!(alpha.sheds, 1);
        assert_eq!(alpha.incidents, 2);
        assert_eq!(alpha.queue_depth, 2, "3 enqueued, 1 dequeued");
        assert_eq!(alpha.ingest.count, 1);
        assert_eq!(snap.ingest.count, 2, "global ingest merges tenants");
        assert_eq!(snap.queue_wait.count, 1);
        assert_eq!(snap.publish_lag.count, 1);
        assert_eq!(snap.publish_lag.max, 33);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let mut s = ServeStats {
            connections: 2,
            frames_ok: 40,
            batches_offered: 12,
            batches_enqueued: 10,
            batches_shed: 2,
            batches_accepted: 10,
            rows_accepted: 1920,
            incidents_published: 3,
            subscriber_queued: 3,
            ..ServeStats::default()
        };
        s.record_reject(RejectReason::BadChecksum);
        let m = ServeMetrics::new();
        m.on_enqueue("t-0");
        m.on_dequeue("t-0", 4);
        m.on_batch_acked("t-0", 192, 88);
        let snap = m.snapshot().expect("snapshot");
        let json = render_stats_json(&s, Some(&snap));
        let reading = StatsReading::parse(&json).expect("parse rendered snapshot");
        assert_eq!(reading.counter("connections"), 2);
        assert_eq!(reading.counter("batches_offered"), 12);
        assert_eq!(reading.counter("rejected_total"), 1);
        assert_eq!(reading.rejects.get("bad-checksum"), Some(&1));
        let metrics = reading.metrics.expect("metrics present");
        assert_eq!(metrics, snap, "lossless histogram-summary round-trip");
    }

    #[test]
    fn snapshot_json_without_metrics_parses_as_none() {
        let json = render_stats_json(&ServeStats::default(), None);
        let reading = StatsReading::parse(&json).expect("parse bare snapshot");
        assert_eq!(reading.metrics, None);
        assert_eq!(reading.counter("connections"), 0);
        assert_eq!(reading.counter("no-such-counter"), 0);
    }

    #[test]
    fn foreign_schema_is_refused() {
        let err = StatsReading::parse("{\"schema\":\"other-v9\",\"counters\":{}}")
            .expect_err("foreign schema must not parse");
        assert!(err.contains("other-v9"), "{err}");
        assert!(
            StatsReading::parse("{\"counters\":{}}").is_err(),
            "missing schema tag must not parse"
        );
        assert!(StatsReading::parse("not json").is_err());
    }

    #[test]
    fn hostile_tenant_names_survive_the_json_round_trip() {
        let m = ServeMetrics::new();
        let hostile = "t\"quote\\slash"; // valid_tenant_name rejects these
        m.on_batch_acked(hostile, 1, 1); // on the wire, but stay robust
        let snap = m.snapshot().expect("snapshot");
        let json = render_stats_json(&ServeStats::default(), Some(&snap));
        let reading = StatsReading::parse(&json).expect("escaped names parse");
        let metrics = reading.metrics.expect("metrics present");
        assert_eq!(metrics.tenants[0].tenant, hostile);
    }
}
