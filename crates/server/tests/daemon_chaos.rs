//! Chaos gate for the activation daemon.
//!
//! Every test spawns a real daemon on a throwaway Unix socket and
//! attacks it. The acceptance bar (ISSUE satellite 3 + chaos gate):
//!
//! * a client killed mid-batch leaves every other tenant's output
//!   **bit-identical** to an undisturbed run;
//! * a panicking tenant shard is reaped and attributed while other
//!   tenants never notice;
//! * overload is shed as `Busy` and accounted, never absorbed silently;
//! * idle connections are reaped by the watchdog;
//! * a recorded session replays byte-identically;
//! * under the full adversary mix the daemon stays up, honest tenants
//!   lose zero events, and every reject/shed/panic is accounted.

use std::path::PathBuf;
use std::time::Duration;

use hydra_server::client::{run_load, tenant_batch};
use hydra_server::{
    geometry_by_name, replay_check, spawn, Client, DecodeEvent, Frame, LoadConfig, ServeConfig,
    ServeReport, StatsReading, TenantPipeline,
};

/// Unique socket path per test so suites can run in parallel.
fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hydra-chaos-{}-{name}.sock", std::process::id()))
}

/// A fast-reacting config for tests: short watchdog, tight polling.
fn test_config(name: &str) -> ServeConfig {
    let mut config =
        ServeConfig::new(socket_path(name), "tiny", 64).expect("tiny geometry resolves");
    config.idle_timeout = Duration::from_secs(5);
    config.poll_interval = Duration::from_millis(5);
    config
}

/// Locally computes the canonical output an honest tenant expects the
/// daemon to produce for `tenant_batch(index, 1..=batches, rows)`.
fn expected_canon(tenant: &str, index: usize, batches: u64, rows: usize) -> String {
    let geometry = geometry_by_name("tiny").expect("tiny geometry resolves");
    let mut pipeline = TenantPipeline::new(tenant, geometry, 64).expect("pipeline builds");
    for seq in 1..=batches {
        pipeline
            .apply_batch(seq, &tenant_batch(index, seq, rows))
            .expect("local batch accepted");
    }
    pipeline.finish().canon_text()
}

fn daemon_canon(report: &ServeReport, tenant: &str) -> String {
    report
        .tenant(tenant)
        .unwrap_or_else(|| panic!("tenant {tenant} missing from report"))
        .canon_text()
}

#[test]
fn killed_client_mid_batch_leaves_others_bit_identical() {
    // Disturbed run: "steady" works while "victim" tears a batch frame
    // in half and vanishes, twice.
    let config = test_config("midkill");
    let handle = spawn(config).expect("daemon spawns");
    let path = handle.socket_path().to_path_buf();

    let mut steady = Client::connect(&path).expect("steady connects");
    steady.hello("steady").expect("steady registered");
    for round in 0..2u64 {
        let mut victim = Client::connect(&path).expect("victim connects");
        victim.hello("victim").expect("victim registered");
        // Interleave: steady lands a batch, victim dies mid-frame.
        let seq = round + 1;
        steady
            .send_batch(seq, &tenant_batch(0, seq, 96))
            .expect("steady batch acked");
        victim.abandon_mid_frame(&Frame::Batch {
            seq,
            rows: tenant_batch(1, seq, 96),
        });
    }
    for seq in 3..=6u64 {
        steady
            .send_batch(seq, &tenant_batch(0, seq, 96))
            .expect("steady batch acked");
    }
    drop(steady);
    let disturbed = handle.shutdown().expect("daemon drains cleanly");

    // Undisturbed run: only "steady", same batches.
    let handle = spawn(test_config("midkill-clean")).expect("daemon spawns");
    let path = handle.socket_path().to_path_buf();
    let mut steady = Client::connect(&path).expect("steady connects");
    steady.hello("steady").expect("steady registered");
    for seq in 1..=6u64 {
        steady
            .send_batch(seq, &tenant_batch(0, seq, 96))
            .expect("steady batch acked");
    }
    drop(steady);
    let clean = handle.shutdown().expect("daemon drains cleanly");

    assert_eq!(
        daemon_canon(&disturbed, "steady"),
        daemon_canon(&clean, "steady"),
        "a torn neighbor connection must not perturb another tenant's output"
    );
    assert_eq!(
        daemon_canon(&clean, "steady"),
        expected_canon("steady", 0, 6, 96),
        "daemon output matches the local pipeline replay"
    );
    // The victim's torn frames were accounted, not ignored: two halves
    // of a batch frame are each a truncated byte-run at connection EOF.
    assert!(
        disturbed
            .stats
            .rejects
            .get("truncated")
            .copied()
            .unwrap_or(0)
            >= 2,
        "torn frames must be accounted as truncated: {:?}",
        disturbed.stats.rejects
    );
}

#[test]
fn crashing_shard_is_reaped_attributed_and_isolated() {
    let mut config = test_config("crash");
    config.allow_crash_frames = true;
    let handle = spawn(config).expect("daemon spawns");
    let path = handle.socket_path().to_path_buf();

    let mut honest = Client::connect(&path).expect("honest connects");
    honest.hello("honest").expect("honest registered");
    honest
        .send_batch(1, &tenant_batch(0, 1, 128))
        .expect("batch before the crash");

    let mut doomed = Client::connect(&path).expect("doomed connects");
    doomed.hello("doomed").expect("doomed registered");
    doomed
        .send_batch(1, &tenant_batch(2, 1, 128))
        .expect("doomed batch acked before crash");
    doomed.crash_shard().expect("crash frame acknowledged");

    // The dead shard must turn away further work without hanging.
    let mut turned_away = false;
    for seq in 2..=6u64 {
        match doomed.send_batch_lossy(seq, &tenant_batch(2, seq, 16)) {
            Ok(false) | Err(_) => {
                turned_away = true;
                break;
            }
            Ok(true) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    assert!(turned_away, "a crashed shard must stop accepting batches");

    // The honest tenant keeps working after the neighbor's crash.
    for seq in 2..=4u64 {
        honest
            .send_batch(seq, &tenant_batch(0, seq, 128))
            .expect("honest batch after the crash");
    }
    drop(honest);
    drop(doomed);
    let report = handle.shutdown().expect("daemon survives the shard panic");

    assert_eq!(report.crashed.len(), 1, "exactly one shard crashed");
    assert_eq!(report.crashed[0].tenant, "doomed");
    assert!(
        report.crashed[0].message.contains("chaos crash frame"),
        "panic payload attributed verbatim: {:?}",
        report.crashed[0].message
    );
    assert_eq!(report.stats.tenant_panics, 1);
    assert!(
        report.tenant("doomed").is_none(),
        "a crashed tenant has no (partial) summary"
    );
    assert_eq!(
        daemon_canon(&report, "honest"),
        expected_canon("honest", 0, 4, 128),
        "the crash blast radius must be exactly one tenant"
    );
}

#[test]
fn tenant_capacity_overflow_is_shed_as_busy() {
    let mut config = test_config("shed");
    config.max_tenants = 1;
    config.busy_retry_ms = 1; // keep the client's backoff sum tiny
    let handle = spawn(config).expect("daemon spawns");
    let path = handle.socket_path().to_path_buf();

    let mut alpha = Client::connect(&path).expect("alpha connects");
    alpha.hello("alpha").expect("alpha registered");
    alpha
        .send_batch(1, &tenant_batch(0, 1, 64))
        .expect("alpha batch acked");

    let mut beta = Client::connect(&path).expect("beta connects");
    let err = beta.hello("beta").expect_err("beta must be shed");
    assert!(
        err.contains("busy retries exhausted"),
        "shedding surfaces as Busy + exhausted backoff, got: {err}"
    );
    assert!(beta.busy_retries > 0, "beta retried through Busy replies");

    // Shedding beta must not disturb alpha.
    alpha
        .send_batch(2, &tenant_batch(0, 2, 64))
        .expect("alpha still served");
    drop(alpha);
    drop(beta);
    let report = handle.shutdown().expect("daemon drains cleanly");
    assert!(
        report.stats.busy_shed > 0,
        "every shed is accounted: {:?}",
        report.stats
    );
    assert_eq!(
        daemon_canon(&report, "alpha"),
        expected_canon("alpha", 0, 2, 64),
        "load shedding must not perturb admitted tenants"
    );
}

#[test]
fn idle_connection_is_reaped_by_the_watchdog() {
    let mut config = test_config("idle");
    config.idle_timeout = Duration::from_millis(100);
    let handle = spawn(config).expect("daemon spawns");
    let path = handle.socket_path().to_path_buf();

    let mut lurker = Client::connect(&path).expect("lurker connects");
    lurker.hello("lurker").expect("lurker registered");
    // Go silent well past the watchdog boundary.
    std::thread::sleep(Duration::from_millis(400));
    let report = handle.shutdown().expect("daemon drains cleanly");
    assert!(
        report.stats.idle_reaped >= 1,
        "the watchdog must reap a silent connection: {:?}",
        report.stats
    );
}

#[test]
fn recorded_session_replays_byte_identically() {
    let mut config = test_config("record");
    config.record = true;
    let handle = spawn(config).expect("daemon spawns");
    let path = handle.socket_path().to_path_buf();

    for index in 0..2usize {
        let tenant = format!("tenant-{index}");
        let mut client = Client::connect(&path).expect("client connects");
        client.hello(&tenant).expect("tenant registered");
        for seq in 1..=8u64 {
            client
                .send_batch(seq, &tenant_batch(index, seq, 160))
                .expect("batch acked");
        }
    }
    let report = handle.shutdown().expect("daemon drains cleanly");
    let session = report.session.expect("recording was enabled");
    let text = session.to_text();
    replay_check(&text).expect("recorded session replays byte-identically");
    // And the recording is not vacuous.
    assert_eq!(session.batches.len(), 16);
    assert_eq!(session.outputs.len(), 2);
}

#[test]
fn full_adversary_mix_preserves_honest_tenants() {
    let mut config = test_config("mix");
    config.allow_crash_frames = true;
    config.record = true;
    let handle = spawn(config).expect("daemon spawns");
    let path = handle.socket_path().to_path_buf();

    let load = run_load(&LoadConfig::smoke(&path)).expect("chaos gate holds");
    // run_load's smoke preset ends with Drain, so join (not shutdown).
    let report = handle.join().expect("daemon survives the full mix");

    // Zero lost events: every honest tenant's daemon output matches the
    // digest its local pipeline computed independently.
    assert_eq!(load.tenants.len(), 3);
    for t in &load.tenants {
        assert_eq!(t.sent, t.acked, "{}: every batch acked", t.tenant);
        let summary = report
            .tenant(&t.tenant)
            .unwrap_or_else(|| panic!("{} missing from daemon report", t.tenant));
        assert_eq!(
            summary.digest(),
            t.expected_digest,
            "{}: daemon and local pipeline disagree",
            t.tenant
        );
    }

    // The adversaries actually ran and were all accounted.
    assert!(load.corruptor_rejects > 0, "corruptor must draw rejects");
    assert!(load.reconnects > 0, "storm must have connected");
    assert!(load.crash_acked, "crash tenant must have fired");
    assert!(load.incidents_seen > 0, "subscriber must see incidents");
    assert!(
        report.stats.rejected_total() > 0,
        "rejected frames are counted: {:?}",
        report.stats.rejects
    );
    assert_eq!(report.stats.tenant_panics, 1, "exactly the chaos crash");
    assert_eq!(report.crashed.len(), 1);
    assert_eq!(report.crashed[0].tenant, "crasher");

    // Incident conservation: nothing published bypasses the subscriber
    // queue accounting, and nothing seen was never queued.
    assert!(report.stats.subscriber_queued <= report.stats.incidents_published);
    assert!(load.incidents_seen <= report.stats.subscriber_queued);

    // The recorded session — taken under full adversarial fire —
    // replays byte-identically.
    let session = report.session.expect("recording was enabled");
    replay_check(&session.to_text()).expect("session replays byte-identically under chaos");
}

#[test]
fn metered_daemon_is_digest_identical_to_bare_under_chaos() {
    // Same full adversary mix as the bare-daemon chaos gate, but with
    // the metrics plane live. Metrics must never influence control flow:
    // every honest tenant's daemon digest still matches the digest its
    // local pipeline computed independently (the same bar the unmetered
    // run is held to), and the recorded session still replays
    // byte-identically.
    let mut config = test_config("metered-mix");
    config.allow_crash_frames = true;
    config.record = true;
    config.metrics = true;
    let handle = spawn(config).expect("daemon spawns");
    let path = handle.socket_path().to_path_buf();

    let load = run_load(&LoadConfig::smoke(&path)).expect("chaos gate holds with metrics on");
    let report = handle.join().expect("metered daemon survives the mix");

    assert_eq!(load.tenants.len(), 3);
    for t in &load.tenants {
        assert_eq!(t.sent, t.acked, "{}: every batch acked", t.tenant);
        let summary = report
            .tenant(&t.tenant)
            .unwrap_or_else(|| panic!("{} missing from daemon report", t.tenant));
        assert_eq!(
            summary.digest(),
            t.expected_digest,
            "{}: metering changed the daemon's output",
            t.tenant
        );
    }
    let session = report.session.expect("recording was enabled");
    replay_check(&session.to_text()).expect("metered session replays byte-identically");
}

/// Pulls the seam identities out of one snapshot and asserts them.
fn assert_snapshot_identities(r: &StatsReading) {
    let offered = r.counter("batches_offered");
    let enqueued = r.counter("batches_enqueued");
    let shed = r.counter("batches_shed");
    let refused = r.counter("batches_refused");
    assert_eq!(
        enqueued + shed + refused,
        offered,
        "every offered batch has exactly one outcome at every snapshot"
    );
    assert!(
        r.counter("batches_accepted") <= enqueued,
        "a batch is accounted enqueued before it can be acked"
    );
    assert!(
        r.counter("subscriber_queued") <= r.counter("incidents_published"),
        "an incident is accounted published before it is queued"
    );
    assert!(
        r.counter("subscriber_dropped") <= r.counter("subscriber_queued"),
        "an evicted incident was queued first"
    );
}

#[test]
fn stats_snapshots_stay_consistent_and_monotonic_under_chaos() {
    let mut config = test_config("statsmono");
    config.allow_crash_frames = true;
    config.metrics = true;
    let handle = spawn(config).expect("daemon spawns");
    let path = handle.socket_path().to_path_buf();

    // Chaos mix in the background; this thread scrapes snapshots while
    // the adversaries run.
    let load_path = path.clone();
    let load = std::thread::spawn(move || run_load(&LoadConfig::smoke(&load_path)));

    let mut snapshots: Vec<StatsReading> = Vec::new();
    let mut scraper: Option<Client> = None;
    loop {
        let client = match scraper.as_mut() {
            Some(c) => c,
            // (Re)connect lazily: the daemon may already be draining.
            None => match Client::connect(&path) {
                Ok(c) => scraper.insert(c),
                Err(_) => break,
            },
        };
        match client.stats() {
            Ok(reading) => snapshots.push(reading),
            Err(_) => break,
        }
    }
    let load = load.join().expect("load thread").expect("chaos gate holds");
    assert!(load.incidents_seen > 0, "mix produced incidents");
    assert!(
        snapshots.len() >= 3,
        "scraper landed only {} snapshot(s) mid-run",
        snapshots.len()
    );

    for (i, snap) in snapshots.iter().enumerate() {
        // The race-consistency identities hold at *every* mid-run
        // snapshot, not just at drain.
        assert_snapshot_identities(snap);
        // And every counter is monotonically non-decreasing between
        // successive snapshots.
        if i > 0 {
            let prev = &snapshots[i - 1];
            for (name, value) in &snap.counters {
                let before = prev.counter(name);
                assert!(
                    *value >= before,
                    "counter {name} went backwards between snapshots: {before} -> {value}"
                );
            }
        }
    }
    // The scrape itself is accounted.
    let last = snapshots.last().expect("nonempty");
    assert!(
        last.counter("stats_served") + 1 >= snapshots.len() as u64 - 1,
        "stats_served must count the scrapes"
    );
}

#[test]
fn stats_request_on_a_subscriber_never_blocks_the_publisher() {
    let mut config = test_config("statsub");
    config.metrics = true;
    let handle = spawn(config).expect("daemon spawns");
    let path = handle.socket_path().to_path_buf();

    let mut sub = Client::connect(&path).expect("subscriber connects");
    sub.subscribe().expect("subscribed");
    // Park a stats request on the subscriber connection and deliberately
    // do NOT read the reply yet: the snapshot must ride the subscriber
    // queue without stalling incident fan-out or batch ingest.
    sub.send(&Frame::StatsRequest).expect("stats request sent");

    let mut honest = Client::connect(&path).expect("honest connects");
    honest.hello("honest").expect("registered");
    for seq in 1..=16u64 {
        honest
            .send_batch(seq, &tenant_batch(0, seq, 192))
            .expect("batch acked while the subscriber sits on its reply");
    }

    // Now drain the subscriber queue: the snapshot must arrive among the
    // incidents, schema-stamped and parseable, with live metrics.
    let mut saw_snapshot = false;
    let mut incidents = 0u64;
    for _ in 0..200 {
        match sub.recv_event(Duration::from_millis(100)) {
            Ok(DecodeEvent::Frame(Frame::StatsSnapshot { json })) => {
                let reading = StatsReading::parse(&json).expect("snapshot parses");
                assert!(reading.metrics.is_some(), "metrics plane was enabled");
                saw_snapshot = true;
                break;
            }
            Ok(DecodeEvent::Frame(Frame::Incident { .. })) => incidents += 1,
            Ok(_) => {}
            Err(e) if e == "timeout" => break,
            Err(e) => panic!("subscriber read failed: {e}"),
        }
    }
    assert!(
        saw_snapshot,
        "snapshot never arrived on the subscriber queue ({incidents} incidents seen)"
    );
    drop(sub);
    drop(honest);
    let report = handle.shutdown().expect("daemon drains cleanly");
    assert!(report.stats.stats_served >= 1, "the scrape was accounted");
    assert_eq!(
        daemon_canon(&report, "honest"),
        expected_canon("honest", 0, 16, 192),
        "a parked stats reply must not perturb ingest"
    );
}
