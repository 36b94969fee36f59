//! `daemon_ingest`: an in-process `hydra_server` daemon (tiny geometry,
//! `T_RH = 64`, as in the CI smoke) and one client connection in a closed
//! loop: Hello, a fixed number of 512-row batches each waiting for its
//! Ack, then Drain. The only workload that measures the server and the
//! forensics probe.
//!
//! The batch count is fixed because a batch's cost grows as the probe's
//! retained windows fill towards their cap: `TenantPipeline` rebuilds every
//! retained incident after every batch. Cutting the session by time would
//! make the numbers depend on where that ramp is cut.

use crate::gen::mixed_stream;
use crate::harness::{secs_since, watchdog, Tracer};
use crate::{stats, CellTiming, Report, RunConfig, Scale, SETUP_REPS};
use hydra_core::{Hydra, HydraConfig, RowCountTable};
use hydra_dram::DramTiming;
use hydra_forensics::attribution::{pack_row, unpack_row};
use hydra_forensics::ForensicsProbe;
use hydra_server::{spawn, Client, DaemonHandle, ServeConfig, ServeReport, TenantPipeline};
use hydra_sim::{ActivationSim, ShadowOracle};
use hydra_types::MemGeometry;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The CI daemon's threshold.
const T_RH: u32 = 64;

/// Rows per batch.
const BATCH_ROWS: usize = 512;

/// The window compression `TenantPipeline` applies, mirrored here so the
/// benchmark's own oracle and forensics replays see the same windows.
const TENANT_WINDOW_SCALE: u64 = 10_000;

/// The only tenant.
const TENANT: &str = "bench";

/// A session (spawn, Hello, every batch, Drain) that takes longer than
/// this is counted as one failed operation.
const SESSION_LIMIT: Duration = Duration::from_secs(90);

/// Batches per session: five-segment rounds of one batch per segment.
fn rounds(scale: Scale) -> usize {
    match scale {
        Scale::Full => 50,
        Scale::Tiny => 2,
    }
}

fn timing() -> DramTiming {
    DramTiming::ddr4_3200().with_scaled_window(TENANT_WINDOW_SCALE)
}

/// The session's batches, as packed rows.
fn batches(config: &RunConfig) -> Vec<Vec<u64>> {
    let stream = mixed_stream(
        MemGeometry::tiny(),
        config.seed,
        BATCH_ROWS,
        rounds(config.scale),
        true,
    );
    stream
        .rows
        .chunks(BATCH_ROWS)
        .map(|chunk| chunk.iter().map(|r| pack_row(*r)).collect())
        .collect()
}

static SOCKETS: AtomicUsize = AtomicUsize::new(0);

/// A fresh socket path, relative to the working directory so the daemon
/// binds inside the checkout.
fn socket_path() -> PathBuf {
    let n = SOCKETS.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!(".perfbench-{}-{n}.sock", std::process::id()))
}

fn start_daemon() -> Result<(DaemonHandle, Client), String> {
    let path = socket_path();
    let config = ServeConfig::new(&path, "tiny", T_RH).ok_or("tiny geometry is known")?;
    let handle = spawn(config).map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::connect(&path).map_err(|e| format!("connect: {e}"))?;
    client.hello(TENANT)?;
    Ok((handle, client))
}

fn stop_daemon(handle: DaemonHandle, mut client: Client) -> Result<ServeReport, String> {
    let path = handle.socket_path().to_path_buf();
    let drained = client.drain();
    let report = handle.join();
    let _ = std::fs::remove_file(path);
    drained?;
    report
}

/// What one session produced.
struct Session {
    ack_s: Vec<f64>,
    acked_rows: u64,
    busy_retries: u64,
    served: ServeReport,
    traced: bool,
    spans: Tracer,
}

fn session(batches: &[Vec<u64>], traced: bool) -> Result<Session, String> {
    let mut spans = Tracer::new(traced);
    let (handle, mut client) = spans.span("server.spawn", |_| start_daemon())?;
    let mut ack_s = Vec::with_capacity(batches.len());
    let mut acked_rows = 0;
    for (i, rows) in batches.iter().enumerate() {
        let t = Instant::now();
        let accepted = spans.span("server.send_batch", |_| {
            client.send_batch(i as u64 + 1, rows)
        });
        ack_s.push(secs_since(t));
        match accepted {
            Ok(n) if n as usize == rows.len() => acked_rows += u64::from(n),
            Ok(n) => {
                return Err(format!(
                    "batch {} accepted {n} of {} rows",
                    i + 1,
                    rows.len()
                ))
            }
            Err(e) => return Err(format!("batch {}: {e}", i + 1)),
        }
    }
    let busy_retries = client.busy_retries;
    let served = spans.span("server.drain", |_| stop_daemon(handle, client))?;
    Ok(Session {
        ack_s,
        acked_rows,
        busy_retries,
        served,
        traced,
        spans,
    })
}

/// Reads `key=value` from a tenant summary line.
fn summary_field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::new("daemon_ingest");
    let mut setups = Vec::new();
    let mut gen_ns = 0.0;
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        inputs = batches(config);
        gen_ns = secs_since(t) * 1e9 / (inputs.len() * BATCH_ROWS) as f64;
        let started = start_daemon();
        setups.push(secs_since(t));
        match started.and_then(|(h, c)| stop_daemon(h, c)) {
            Ok(_) => {}
            Err(e) => {
                report.ledger.fail(format!("setup: {e}"));
                return report;
            }
        }
    }
    report.set("setup_s", stats::median(&setups));
    report.set("workloads.gen_ns_per_act", gen_ns);
    let inputs = Arc::new(inputs);

    let mut sessions: Vec<Session> = Vec::new();
    let mut tracer = Tracer::new(config.trace);
    'phases: for (traced, budget) in config.phases() {
        let start = Instant::now();
        loop {
            let batches = Arc::clone(&inputs);
            match watchdog(SESSION_LIMIT, move || session(&batches, traced)).and_then(|r| r) {
                Ok(mut s) => {
                    // Hello, every batch and Drain.
                    report.ledger.ok(s.ack_s.len() as u64 + 2);
                    tracer.absorb(std::mem::replace(&mut s.spans, Tracer::new(false)));
                    sessions.push(s);
                    report.first_cell_done();
                }
                Err(e) => {
                    report.ledger.fail(format!("session: {e}"));
                    break 'phases;
                }
            }
            if secs_since(start) >= budget {
                break;
            }
        }
    }
    if sessions.is_empty() {
        return report;
    }

    let local = local_replay(&inputs);
    for s in &sessions {
        let digest = s.served.tenant(TENANT).map(|t| t.digest());
        report.ledger.check(digest == Some(local.digest), || {
            "drained tenant digest differs from the local TenantPipeline replay".into()
        });
        report.ledger.check(s.served.crashed.is_empty(), || {
            "a tenant shard crashed".into()
        });
    }
    let summary = sessions[0]
        .served
        .tenant(TENANT)
        .map(|t| t.summary_line.clone())
        .unwrap_or_default();
    let field = |key: &str| summary_field(&summary, key).unwrap_or(0) as f64;
    let demand = field("acts");
    report.set("mitigations_per_mact", field("mitigations") / demand * 1e6);
    report.set(
        "dram_overhead_pct",
        (field("mitigation_acts") + field("side_reads") + field("side_writes")) / demand * 100.0,
    );
    let oracle = oracle_replay(&inputs);
    report.ledger.check(oracle.violations == 0, || {
        format!("{} shadow-oracle violations", oracle.violations)
    });
    report.ledger.check(oracle.summary_matches(&summary), || {
        format!("the benchmark's mirror of the tenant tracker disagrees: {summary}")
    });
    report.set(
        "max_unmitigated_frac",
        oracle.worst as f64 / f64::from(T_RH),
    );
    report.note(format!("daemon summary: {summary}"));

    let timed: Vec<&Session> = sessions
        .iter()
        .filter(|s| s.traced == config.trace)
        .collect();
    let acks: Vec<f64> = timed.iter().flat_map(|s| s.ack_s.iter().copied()).collect();
    let cells: Vec<CellTiming> = timed
        .iter()
        .map(|s| CellTiming {
            op_s: s.ack_s.clone(),
            acts: s.acked_rows,
            sim_cycles: s.acked_rows * timing().trc,
            // A batch is a few hand-offs between the client, connection
            // and shard threads; on a busy shared host a few percent of
            // them stall for a scheduler slice, many times the batch's own
            // cost. The session's throughput is therefore taken at its
            // median Ack latency, and stalls show in the tail.
            busy_s: s.ack_s.len() as f64 * stats::median(&s.ack_s),
        })
        .collect();
    report.set_timing(&cells, "acked batches");
    let tenth = (inputs.len() / 10).max(1);
    let early: Vec<f64> = timed
        .iter()
        .flat_map(|s| s.ack_s[..tenth].iter().map(|a| a * 1e3))
        .collect();
    let late: Vec<f64> = timed
        .iter()
        .flat_map(|s| s.ack_s[s.ack_s.len() - tenth..].iter().map(|a| a * 1e3))
        .collect();
    report.note(format!(
        "per-batch Ack p50: first tenth {:.3} ms, last tenth {:.3} ms \
         (incidents are rebuilt after every batch as retained windows grow)",
        stats::median(&early),
        stats::median(&late)
    ));

    if config.trace {
        let untraced: Vec<f64> = sessions
            .iter()
            .filter(|s| !s.traced)
            .flat_map(|s| s.ack_s.iter().copied())
            .collect();
        report.set(
            "trace_overhead_pct",
            (stats::mean(&acks) / stats::mean(&untraced) - 1.0) * 100.0,
        );
        let apply_us: Vec<f64> = local.apply_s.iter().map(|s| s * 1e6).collect();
        let apply_p50 = stats::median(&apply_us);
        report.set("server.apply_batch_us", apply_p50);
        report.set("server.wire_us", stats::median(&acks) * 1e6 - apply_p50);
        report.set(
            "server.busy_retries",
            timed.iter().map(|s| s.busy_retries).sum::<u64>() as f64,
        );
        forensics(
            &mut report,
            &inputs,
            local.apply_s.iter().sum(),
            &mut tracer,
        );
    }
    report.spans = tracer.summary();
    report
}

/// The daemon's pipeline replayed locally, batch by batch.
struct Local {
    digest: u64,
    apply_s: Vec<f64>,
}

fn local_replay(batches: &[Vec<u64>]) -> Local {
    let mut pipeline = TenantPipeline::new(TENANT, MemGeometry::tiny(), T_RH)
        .expect("the daemon built this pipeline");
    let mut apply_s = Vec::with_capacity(batches.len());
    for (i, rows) in batches.iter().enumerate() {
        let t = Instant::now();
        let outcome = pipeline.apply_batch(i as u64 + 1, rows);
        apply_s.push(secs_since(t));
        std::hint::black_box(outcome.is_ok());
    }
    Local {
        digest: pipeline.finish().digest(),
        apply_s,
    }
}

fn tenant_config() -> HydraConfig {
    HydraConfig::for_threshold(MemGeometry::tiny(), 0, T_RH).expect("the daemon's config is valid")
}

/// The tenant's tracker behind the shadow oracle.
struct OracleOutcome {
    violations: u64,
    worst: u64,
    counters: [u64; 5],
}

impl OracleOutcome {
    fn summary_matches(&self, summary: &str) -> bool {
        let keys = [
            "acts",
            "mitigation_acts",
            "mitigations",
            "side_reads",
            "side_writes",
        ];
        keys.iter()
            .zip(self.counters)
            .all(|(k, v)| summary_field(summary, k) == Some(v))
    }
}

fn oracle_replay(batches: &[Vec<u64>]) -> OracleOutcome {
    let hydra = Hydra::new(tenant_config()).expect("valid config");
    let mut sim = ActivationSim::new(MemGeometry::tiny(), ShadowOracle::new(hydra, T_RH))
        .with_timing(timing());
    for rows in batches {
        sim.run(rows.iter().map(|&p| unpack_row(p)));
    }
    let r = sim.report();
    let oracle = sim.tracker().report();
    OracleOutcome {
        violations: oracle.violations_total,
        worst: oracle.worst_unmitigated,
        counters: [
            r.demand_acts,
            r.mitigation_acts,
            r.mitigations,
            r.side_reads,
            r.side_writes,
        ],
    }
}

/// The forensics probe's share of batch time, and the cost of rebuilding
/// incidents after every batch.
fn forensics(report: &mut Report, batches: &[Vec<u64>], apply_total_s: f64, tracer: &mut Tracer) {
    let hydra = Hydra::new(tenant_config()).expect("valid config");
    let mut bare = ActivationSim::new(MemGeometry::tiny(), hydra).with_timing(timing());
    let t = Instant::now();
    tracer.span("core.bare_replay", |_| {
        for rows in batches {
            bare.run(rows.iter().map(|&p| unpack_row(p)));
        }
    });
    let bare_s = secs_since(t);
    report.set("forensics.share", 1.0 - bare_s / apply_total_s);
    report.set_path_shares(&bare.tracker().stats());

    let config = tenant_config();
    let probe = ForensicsProbe::new(config.t_h).with_workload(TENANT);
    let tracker: Hydra<RowCountTable, ForensicsProbe> =
        Hydra::with_probe(config, probe).expect("valid config");
    let mut probed = ActivationSim::new(MemGeometry::tiny(), tracker).with_timing(timing());
    let mut incidents_us = Vec::with_capacity(batches.len());
    for rows in batches {
        probed.run(rows.iter().map(|&p| unpack_row(p)));
        let t = Instant::now();
        let incidents = tracer.span("forensics.incidents", |_| {
            probed.tracker().probe().incidents()
        });
        incidents_us.push(secs_since(t) * 1e6);
        std::hint::black_box(incidents.len());
    }
    report.set("forensics.incidents_us", stats::median(&incidents_us));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_fields_parse() {
        let line = "tenant=bench batches=2 rows=1024 acts=1024 mitigation_acts=40 mitigations=10";
        assert_eq!(summary_field(line, "acts"), Some(1024));
        assert_eq!(summary_field(line, "mitigations"), Some(10));
        assert_eq!(summary_field(line, "side_reads"), None);
    }
}
