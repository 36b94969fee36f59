//! `hydra` — command-line front end for the reproduction library.
//!
//! ```text
//! hydra storage                         # Tables 1/4/5 summary
//! hydra characterize gups [S]           # Table-3-style stats for a workload
//! hydra audit double_sided [ACTS]       # Theorem-1 audit of one pattern
//! hydra record mcf N out.trace [S]      # record a trace file
//! hydra hammer ROW [ACTS]               # hammer one row, print mitigations
//! hydra list                            # list the 36 workloads
//! hydra bench [--out F] [--jobs N]      # paper design point × workloads → BENCH_hydra.jsonl
//! hydra profile [flags]                 # differential cost of the tracker, GCT and RCC
//! hydra trace PATTERN [ACTS] [flags]    # JSONL telemetry event stream to stdout
//! hydra forensics FILE [--t-h N]        # classify a recorded trace, emit incidents
//! hydra sweep [--smoke] [--jobs N]      # design-space sweep → hydra-sweep-v1 JSONL
//! hydra sweep --arena [--smoke] [...]   # cross-tracker race → hydra-arena-v1 JSONL
//! hydra serve --socket PATH [flags]     # multi-tenant activation daemon
//! hydra load --socket PATH [--smoke]    # adversarial load mix against a daemon
//! hydra top --socket PATH [--watch N]   # live daemon stats scrape (hydra-serve-stats-v1)
//! hydra replay-session FILE             # byte-identical session replay check
//! ```

use hydra_repro::arena::{run_arena, run_sweep, workload_rows, ArenaGrid, SweepGrid};
use hydra_repro::baselines::storage::{Scheme, DDR4_BANKS_PER_RANK};
use hydra_repro::core::{Hydra, HydraConfig, HydraStorage};
use hydra_repro::dram::DramTiming;
use hydra_repro::forensics::{incidents_to_jsonl, parse_trace_meta, replay_trace, ForensicsProbe};
use hydra_repro::profiler::{measure, Variant};
use hydra_repro::server::stats::names as metric_names;
use hydra_repro::server::{replay_check, run_load, Client, LoadConfig, ServeConfig, StatsReading};
use hydra_repro::sim::batch::BatchConfig;
use hydra_repro::sim::{ActivationSim, ActivationSimReport, ShadowOracle};
use hydra_repro::telemetry::{EventKind, JsonlSink, KindFilterSink, TeeSink};
use hydra_repro::types::json::quote;
use hydra_repro::types::{ActivationKind, ActivationTracker, MemGeometry, NullTracker, RowAddr};
use hydra_repro::workloads::{registry, AttackPattern, TraceSource, TraceWriter};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("storage") => cmd_storage(),
        Some("list") => cmd_list(),
        Some("characterize") => cmd_characterize(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("record") => cmd_record(&args[1..]),
        Some("hammer") => cmd_hammer(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("forensics") => cmd_forensics(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("load") => cmd_load(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("replay-session") => cmd_replay_session(&args[1..]),
        _ => {
            eprintln!(
                "usage: hydra <storage|list|characterize|audit|record|hammer|bench|profile|trace|forensics|sweep|serve|load|top|replay-session> [args]"
            );
            eprintln!("  storage                      print the paper's storage tables");
            eprintln!("  list                         list the 36 registered workloads");
            eprintln!("  characterize <workload> [S]  Table-3 stats from the generator");
            eprintln!("  audit <pattern> [acts]       Theorem-1 audit (single_sided,");
            eprintln!(
                "                               double_sided, many_sided, half_double, thrash)"
            );
            eprintln!("  record <workload> <n> <file> [S]  record a trace file");
            eprintln!("  hammer <row> [acts]          hammer one row through Hydra");
            eprintln!("  bench [--out FILE] [--jobs N]");
            eprintln!(
                "                               paper design-point matrix → BENCH_hydra.jsonl"
            );
            eprintln!("  profile [--workload W] [--geometry G] [--acts N] [--smoke]");
            eprintln!("          [--out FILE] [--repeats N]");
            eprintln!(
                "                               differential cost of the tracker, GCT and RCC:"
            );
            eprintln!(
                "                               table on stdout, hydra-profile-v2 JSON to a file"
            );
            eprintln!("  trace <pattern> [acts] [--kinds K1,K2,..] [--limit N] [--forensics]");
            eprintln!("                               stream telemetry events as JSONL");
            eprintln!(
                "  forensics <file> [--t-h N]   classify a recorded trace, emit incident JSONL"
            );
            eprintln!("  sweep [--smoke] [--jobs N] [--out FILE] [--deterministic]");
            eprintln!("        [--geometry G] [--workloads W1,..] [--gct N1,..] [--rcc N1,..]");
            eprintln!("        [--t-rh N1,..] [--acts N] [--seed S]");
            eprintln!(
                "                               parallel design-space sweep → JSONL + Pareto"
            );
            eprintln!("  sweep --arena [--smoke] [--jobs N] [--out FILE] [--deterministic]");
            eprintln!("        [--geometry G] [--trackers T1,..] [--workloads W1,..]");
            eprintln!("        [--t-rh N1,..] [--acts N] [--seed S]");
            eprintln!("                               cross-tracker oracle-checked leaderboard");
            eprintln!("  serve --socket PATH [--geometry G] [--t-rh N] [--max-tenants N]");
            eprintln!("        [--idle-timeout-ms MS] [--record FILE] [--allow-crash-frames]");
            eprintln!("        [--metrics]            run the activation daemon until drained");
            eprintln!("  load --socket PATH [--smoke] [--tenants N] [--batches N] [--rows N]");
            eprintln!("        [--fault-rate F] [--seed S] [--no-drain | --drain-only]");
            eprintln!("                               adversarial load mix; kv report on stdout");
            eprintln!("  top --socket PATH [--watch N] [--json]");
            eprintln!(
                "                               live daemon stats: counters, latency, tenants"
            );
            eprintln!(
                "  replay-session <file>        re-run a recorded session; nonzero on divergence"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_storage() -> Result<(), String> {
    let geom = MemGeometry::isca22_baseline();
    let config = HydraConfig::isca22_default(geom, 0).map_err(|e| e.to_string())?;
    let storage = HydraStorage::for_system(&config, u32::from(geom.channels()));
    println!(
        "Hydra (32 GB system): GCT {} KB + RCC {} KB + RIT-ACT {} B",
        storage.gct_bytes / 1024,
        storage.rcc_bytes / 1024,
        storage.rit_bytes
    );
    println!(
        "  total SRAM {:.1} KB; in-DRAM RCT {} MB\n",
        storage.total_sram_bytes() as f64 / 1024.0,
        storage.rct_dram_bytes >> 20
    );
    println!("Prior schemes, per 16 GB rank:");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "T=250", "T=500", "T=1000", "T=32000"
    );
    for scheme in Scheme::ALL {
        let row: Vec<String> = [250u32, 500, 1000, 32_000]
            .iter()
            .map(|&t| {
                format!(
                    "{:.0} KB",
                    scheme.bytes_per_rank(t, DDR4_BANKS_PER_RANK) as f64 / 1024.0
                )
            })
            .collect();
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>10}",
            scheme.name(),
            row[0],
            row[1],
            row[2],
            row[3]
        );
    }
    Ok(())
}

fn cmd_list() -> Result<(), String> {
    println!(
        "{:<12} {:<10} {:>8} {:>12} {:>10} {:>10}",
        "workload", "suite", "MPKI", "unique rows", "ACT-250+", "ACTs/row"
    );
    for w in &registry::ALL {
        println!(
            "{:<12} {:<10} {:>8.2} {:>12} {:>10} {:>10.1}",
            w.name,
            w.suite.label(),
            w.mpki,
            w.unique_rows,
            w.act250_rows,
            w.acts_per_row
        );
    }
    Ok(())
}

fn cmd_characterize(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("characterize needs a workload name")?;
    let scale: u64 = args
        .get(1)
        .map_or(Ok(256), |s| s.parse().map_err(|_| "bad scale"))?;
    let spec = registry::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let geom = MemGeometry::isca22_baseline();
    let mut trace = spec.build(geom, scale, 42);
    let accesses = ((spec.expected_activations(scale) * spec.burst) as u64).max(10_000);
    let mut acts: HashMap<RowAddr, u64> = HashMap::new();
    let mut last = None;
    let mut gap_sum = 0u64;
    for _ in 0..accesses {
        let op = trace.next_op();
        gap_sum += u64::from(op.gap);
        let row = geom.row_of_line(op.addr);
        if last != Some(row) {
            *acts.entry(row).or_insert(0) += 1;
            last = Some(row);
        }
    }
    let unique = acts.len();
    let hot = acts.values().filter(|&&c| c > 250).count();
    let total: u64 = acts.values().sum();
    println!("{name} at scale {scale} ({accesses} accesses):");
    println!("  unique rows     : {unique}");
    println!("  rows > 250 ACTs : {hot}");
    println!(
        "  ACTs per row    : {:.1}",
        total as f64 / unique.max(1) as f64
    );
    println!(
        "  effective MPKI  : {:.2}",
        accesses as f64 * 1000.0 / (gap_sum + accesses) as f64
    );
    Ok(())
}

fn parse_pattern(name: &str, geom: MemGeometry) -> Result<AttackPattern, String> {
    AttackPattern::canonical(name, geom).ok_or_else(|| format!("unknown pattern {name}"))
}

fn cmd_audit(args: &[String]) -> Result<(), String> {
    let geom = MemGeometry::isca22_baseline();
    let pattern = parse_pattern(args.first().ok_or("audit needs a pattern")?, geom)?;
    let acts: u64 = args
        .get(1)
        .map_or(Ok(200_000), |s| s.parse().map_err(|_| "bad act count"))?;
    let hydra = Hydra::isca22_default(geom, 0).map_err(|e| e.to_string())?;
    // Theorem 1: Hydra lets a row reach at most T_H − 1 in each of two
    // adjacent windows, so the bound to check is T_RH = 2·T_H across the
    // two windows the shadow oracle tracks.
    let t_rh = 2 * hydra.config().t_h;
    let mut sim = ActivationSim::new(geom, ShadowOracle::new(hydra, t_rh));
    let mut rows = pattern.rows(geom);
    let mut mitigated: HashSet<RowAddr> = HashSet::new();
    for _ in 0..acts {
        let mut row = rows.next_row();
        row.channel = 0;
        sim.activate(row);
        mitigated.extend(sim.drain_mitigated());
    }
    let report = sim.report();
    let oracle = sim.tracker();
    println!("pattern          : {}", pattern.name());
    println!("demand acts      : {}", report.demand_acts);
    println!(
        "mitigations      : {} (over {} distinct rows)",
        report.mitigations,
        mitigated.len()
    );
    println!("mitigation acts  : {}", report.mitigation_acts);
    println!("bandwidth        : {:.2}x", report.bandwidth_inflation());
    println!(
        "worst unmitigated: {} (bound T_RH = {t_rh})",
        oracle.report().worst_unmitigated
    );
    if oracle.is_clean() {
        println!("verdict          : SECURE");
        Ok(())
    } else {
        Err("tracking guarantee violated".into())
    }
}

fn cmd_record(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("record needs a workload name")?;
    let n: u64 = args
        .get(1)
        .ok_or("record needs an op count")?
        .parse()
        .map_err(|_| "bad op count")?;
    let path = args.get(2).ok_or("record needs an output file")?;
    let scale: u64 = args
        .get(3)
        .map_or(Ok(256), |s| s.parse().map_err(|_| "bad scale"))?;
    let spec = registry::by_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let mut trace = spec.build(MemGeometry::isca22_baseline(), scale, 42);
    let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
    let mut writer = TraceWriter::new(std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
    writer.record(&mut trace, n).map_err(|e| e.to_string())?;
    println!("wrote {n} ops of {name} (scale {scale}) to {path}");
    Ok(())
}

fn cmd_hammer(args: &[String]) -> Result<(), String> {
    let row_index: u32 = args
        .first()
        .ok_or("hammer needs a row index")?
        .parse()
        .map_err(|_| "bad row index")?;
    let acts: u32 = args
        .get(1)
        .map_or(Ok(1000), |s| s.parse().map_err(|_| "bad act count"))?;
    let geom = MemGeometry::isca22_baseline();
    let mut hydra = Hydra::isca22_default(geom, 0).map_err(|e| e.to_string())?;
    let row = RowAddr::new(0, 0, 0, row_index % geom.rows_per_bank());
    let mut mitigated_at = Vec::new();
    for i in 1..=acts {
        let resp = hydra.on_activation(row, u64::from(i), ActivationKind::Demand);
        if !resp.mitigations.is_empty() {
            mitigated_at.push(i);
        }
    }
    println!("hammered {row} {acts} times");
    println!("mitigations at ACTs {mitigated_at:?}");
    println!();
    print!("{}", hydra.stats());
    Ok(())
}

/// Config for the default `profile` stream: a deliberately under-sized
/// 4-way/16-set RCC and low thresholds, so a short run arms per-row
/// tracking and then keeps every tracker path firing in every window.
/// `isca22_default` on the tiny geometry can never evict from the RCC
/// (4096 rows over 256 sets × 16 ways holds the whole channel), so the
/// RCT refetch path would stay dark under it.
fn coverage_config(geom: MemGeometry) -> Result<HydraConfig, String> {
    let rows = geom.rows_per_channel() as usize;
    let mut b = HydraConfig::builder(geom, 0);
    b.thresholds(24, 16)
        .gct_entries(rows) // one row per group: spills install single rows
        .rcc_entries(64)
        .rcc_ways(4);
    b.build().map_err(|e| e.to_string())
}

/// The default `profile` stream for [`coverage_config`]: 33 rows that all
/// collide in one 4-way RCC set (static indexer, 16 sets: set = row & 15)
/// interleaved with a resident two-row pair in another set. Once armed
/// past T_G the conflict rotation misses the RCC on every access — probe
/// miss, RCT fetch, fill + eviction writeback — while the pair keeps the
/// hit path and its fast mitigations warm.
fn coverage_rows(acts: u64) -> Vec<RowAddr> {
    let conflict: Vec<u32> = (0..33).map(|i| i * 16).collect();
    let pair = [1u32, 17];
    let mut out = Vec::with_capacity(acts as usize);
    let mut j = 0usize;
    for i in 0..acts {
        let row = if i % 4 == 3 {
            pair[(i / 4) as usize % 2]
        } else {
            j += 1;
            conflict[j % conflict.len()]
        };
        out.push(RowAddr::new(0, 0, 0, row));
    }
    out
}

/// One `hydra profile` replay: `rows` through `tracker` under a 1 000-cycle
/// tracking window, so even a short stream crosses many window resets.
fn replay_profile_stream<T: ActivationTracker>(
    geom: MemGeometry,
    rows: &[RowAddr],
    tracker: T,
) -> ActivationSimReport {
    let timing = DramTiming::ddr4_3200().with_scaled_window(1_000);
    ActivationSim::new(geom, tracker)
        .with_timing(timing)
        .run(rows.iter().copied())
}

/// The simulator counters of one replay, as a JSON object.
fn report_json(r: &ActivationSimReport) -> String {
    format!(
        "{{\"demand_acts\":{},\"mitigation_acts\":{},\"side_reads\":{},\"side_writes\":{},\
         \"mitigations\":{},\"window_resets\":{}}}",
        r.demand_acts,
        r.mitigation_acts,
        r.side_reads,
        r.side_writes,
        r.mitigations,
        r.window_resets
    )
}

/// `hydra profile`: what Hydra's structures cost in host time, measured
/// by removing them. Four variants replay the same stream through the
/// same `ActivationSim::run` loop — full Hydra, Hydra without the RCC,
/// Hydra without the GCT, and the null tracker — in interleaved rounds,
/// and the differences of their medians price the tracker, the GCT and
/// the RCC.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let mut workload = String::from("mix");
    let mut geometry = String::from("tiny");
    let mut acts_override: Option<u64> = None;
    let mut smoke = false;
    let mut out = PathBuf::from("PROFILE_hydra.json");
    let mut repeats: u32 = 9;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--workload" => {
                i += 1;
                workload = args.get(i).ok_or("--workload needs a value")?.clone();
            }
            "--geometry" => {
                i += 1;
                geometry = args.get(i).ok_or("--geometry needs a value")?.clone();
            }
            "--acts" => {
                i += 1;
                acts_override = Some(
                    args.get(i)
                        .ok_or("--acts needs a value")?
                        .parse()
                        .map_err(|_| "bad --acts")?,
                );
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(args.get(i).ok_or("--out needs a value")?);
            }
            "--repeats" => {
                i += 1;
                repeats = args
                    .get(i)
                    .ok_or("--repeats needs a value")?
                    .parse()
                    .map_err(|_| "bad --repeats")?;
                if repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
            }
            other => return Err(format!("unknown profile flag {other}")),
        }
        i += 1;
    }
    let acts = acts_override.unwrap_or(if smoke { 20_000 } else { 200_000 });

    let geom =
        MemGeometry::by_name(&geometry).ok_or_else(|| format!("unknown geometry {geometry}"))?;
    let (config, rows) = if workload == "mix" {
        if geometry != "tiny" {
            return Err("the mix stream is defined for --geometry tiny only".into());
        }
        (coverage_config(geom)?, coverage_rows(acts))
    } else {
        let config = HydraConfig::isca22_default(geom, 0).map_err(|e| e.to_string())?;
        (config, workload_rows(geom, &workload, acts, 42)?)
    };
    println!("profile: {workload}/{geometry}, {acts} acts, {repeats} rounds");

    let rows = &rows[..];
    let hydra = |config: HydraConfig| {
        move || {
            replay_profile_stream(
                geom,
                rows,
                Hydra::new(config.clone()).expect("valid config"),
            )
        }
    };
    let no_rcc = HydraConfig {
        use_rcc: false,
        ..config.clone()
    };
    let no_gct = HydraConfig {
        use_gct: false,
        ..config.clone()
    };
    let variants = vec![
        Variant::new("full", hydra(config)),
        Variant::new("no_rcc", hydra(no_rcc)),
        Variant::new("no_gct", hydra(no_gct)),
        Variant::new("null", || replay_profile_stream(geom, rows, NullTracker)),
    ];
    let profile = measure(repeats, acts, variants)?;
    let deltas = [
        profile.delta("tracker", "full", "null"),
        profile.delta("gct", "full", "no_gct"),
        profile.delta("rcc", "full", "no_rcc"),
    ]
    .map(|d| d.expect("every delta names a measured variant"));

    print!("{}", profile.render_table(&deltas));
    let meta = format!(
        "\"workload\":{},\"geometry\":{},\"acts\":{acts},",
        quote(&workload),
        quote(&geometry)
    );
    std::fs::write(&out, profile.to_json(&meta, &deltas, report_json))
        .map_err(|e| format!("{}: {e}", out.display()))?;
    println!("profile: wrote {}", out.display());
    Ok(())
}

/// `hydra bench`: Hydra at the paper's design point
/// ([`SweepGrid::design_point`]: `T_RH` = 500, `T_G` = 0.8·`T_H`, the
/// isca22 default GCT/RCC sizes) over a fixed workload matrix, one sweep
/// grid per geometry, written as the sweep's deterministic hydra-sweep-v1
/// lines. The run is deterministic, so the committed `BENCH_hydra.jsonl`
/// is checked byte for byte (`tests/cli_bench.rs`).
fn cmd_bench(args: &[String]) -> Result<(), String> {
    let mut out = PathBuf::from("BENCH_hydra.jsonl");
    let mut jobs: usize = 1;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--out" => out = PathBuf::from(value("--out")?),
            "--jobs" => jobs = parse_jobs(&value("--jobs")?)?,
            other => return Err(format!("unknown bench flag {other}")),
        }
        i += 1;
    }

    let workloads = ["gups", "mcf", "stream", "lbm", "double_sided", "many_sided"];
    let geometries = ["tiny", "isca22"];
    let acts = 200_000;
    println!(
        "bench: {} cell(s), {acts} acts each, {jobs} job(s) → {}",
        workloads.len() * geometries.len(),
        out.display()
    );
    let mut lines = Vec::new();
    let mut failed = 0;
    for geometry in geometries {
        let grid =
            SweepGrid::design_point(geometry, &workloads, acts).map_err(|e| e.to_string())?;
        let outcome = run_sweep(&grid, batch_config(jobs)).map_err(|e| e.to_string())?;
        for row in &outcome.rows {
            println!(
                "  {:<20} slowdown {:>8.3}%  windows {:>4}  mitigations {}",
                format!("{}/{}", row.workload, row.geometry),
                row.report.slowdown_pct(),
                row.report.window_resets,
                row.report.mitigations,
            );
        }
        for failure in &outcome.failures {
            println!("  FAILED {failure}");
        }
        failed += outcome.failures.len();
        lines.extend(outcome.deterministic_lines());
    }
    write_lines(&out, &lines)?;
    println!("bench: wrote {}", out.display());
    if failed > 0 {
        return Err(format!("{failed} bench cell(s) failed"));
    }
    Ok(())
}

fn parse_kinds(list: &str) -> Result<Vec<EventKind>, String> {
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(|name| {
            EventKind::from_name(name).ok_or_else(|| {
                let valid: Vec<&str> = EventKind::ALL.iter().map(|k| k.name()).collect();
                format!("unknown event kind {name:?}; valid: {}", valid.join(","))
            })
        })
        .collect()
}

fn report_trace_sink(sink: &JsonlSink, filtered: u64) {
    let mut note = format!("trace: {} event(s) on stdout", sink.written());
    if sink.truncated() > 0 {
        let _ = std::fmt::Write::write_fmt(
            &mut note,
            format_args!(", {} truncated past the cap", sink.truncated()),
        );
    }
    if filtered > 0 {
        let _ =
            std::fmt::Write::write_fmt(&mut note, format_args!(", {filtered} filtered by --kinds"));
    }
    eprintln!("{note}");
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut kinds: Option<Vec<EventKind>> = None;
    let mut limit: u64 = 1_000_000;
    let mut forensics = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--kinds" => {
                i += 1;
                kinds = Some(parse_kinds(args.get(i).ok_or("--kinds needs a value")?)?);
            }
            "--limit" => {
                i += 1;
                limit = args
                    .get(i)
                    .ok_or("--limit needs a value")?
                    .parse()
                    .map_err(|_| "bad --limit")?;
            }
            "--forensics" => forensics = true,
            flag if flag.starts_with("--") => return Err(format!("unknown trace flag {flag}")),
            _ => positional.push(&args[i]),
        }
        i += 1;
    }

    let geom = MemGeometry::isca22_baseline();
    let pattern = parse_pattern(positional.first().ok_or("trace needs a pattern")?, geom)?;
    let acts: u64 = positional
        .get(1)
        .map_or(Ok(2_000), |s| s.parse().map_err(|_| "bad act count"))?;
    let config = HydraConfig::isca22_default(geom, 0).map_err(|e| e.to_string())?;
    let t_h = config.t_h;

    // The kind filter sits in front of the JSONL recorder only: the
    // forensics probe always sees the unfiltered stream.
    let allowed: Vec<EventKind> = kinds.unwrap_or_else(|| EventKind::ALL.to_vec());
    let recorder = KindFilterSink::new(
        JsonlSink::with_limit(limit).with_meta(pattern.name(), t_h),
        &allowed,
    );

    if forensics {
        let probe = ForensicsProbe::new(t_h).with_workload(pattern.name());
        let tracker =
            Hydra::with_probe(config, TeeSink::new(recorder, probe)).map_err(|e| e.to_string())?;
        let tee = run_trace(geom, tracker, &pattern, acts);
        let (recorder, mut probe) = tee.into_parts();
        probe.finish();
        let filtered = recorder.filtered();
        let sink = recorder.into_inner();
        print!("{}", sink.as_str());
        // Incident records share stdout; their "schema" stamp keeps them
        // distinguishable from the "ev"-keyed trace lines.
        let incidents = probe.incidents();
        print!("{}", incidents_to_jsonl(&incidents));
        report_trace_sink(&sink, filtered);
        let verdict = probe.verdict();
        eprintln!(
            "forensics: {} window(s), {} attack, dominant {}, {} incident(s)",
            verdict.windows,
            verdict.attack_windows,
            verdict.dominant.name(),
            incidents.len()
        );
    } else {
        let tracker = Hydra::with_probe(config, recorder).map_err(|e| e.to_string())?;
        let recorder = run_trace(geom, tracker, &pattern, acts);
        let filtered = recorder.filtered();
        let sink = recorder.into_inner();
        print!("{}", sink.as_str());
        report_trace_sink(&sink, filtered);
    }
    Ok(())
}

/// Drives `acts` activations of `pattern` through a probed tracker and
/// hands the probe back.
fn run_trace<P: hydra_repro::telemetry::EventSink>(
    geom: MemGeometry,
    tracker: Hydra<hydra_repro::core::RowCountTable, P>,
    pattern: &AttackPattern,
    acts: u64,
) -> P {
    let mut sim = ActivationSim::new(geom, tracker);
    let mut rows = pattern.rows(geom);
    for _ in 0..acts {
        let mut row = rows.next_row();
        row.channel = 0;
        sim.activate(row);
    }
    sim.into_tracker().into_probe()
}

fn cmd_forensics(args: &[String]) -> Result<(), String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut t_h_override: Option<u32> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--t-h" => {
                i += 1;
                t_h_override = Some(
                    args.get(i)
                        .ok_or("--t-h needs a value")?
                        .parse()
                        .map_err(|_| "bad --t-h")?,
                );
            }
            flag if flag.starts_with("--") => return Err(format!("unknown forensics flag {flag}")),
            _ => positional.push(&args[i]),
        }
        i += 1;
    }
    let path = positional.first().ok_or("forensics needs a trace file")?;
    let text = std::fs::read_to_string(path.as_str()).map_err(|e| format!("{path}: {e}"))?;

    // The trace meta header carries the run's T_H and workload; an explicit
    // --t-h wins, and a headerless trace falls back to the default config.
    let meta = text.lines().next().and_then(parse_trace_meta);
    let default_t_h = HydraConfig::isca22_default(MemGeometry::isca22_baseline(), 0)
        .map_err(|e| e.to_string())?
        .t_h;
    let t_h = t_h_override
        .or(meta.as_ref().and_then(|m| m.t_h))
        .unwrap_or(default_t_h);
    let workload = meta.as_ref().and_then(|m| m.workload.clone());

    let mut probe = ForensicsProbe::new(t_h);
    if let Some(w) = &workload {
        probe = probe.with_workload(w);
    }
    let summary = replay_trace(&text, &mut probe);
    eprintln!(
        "forensics: {path}: {} event(s) replayed, {} skipped, {} malformed, t_h {t_h}{}",
        summary.events,
        summary.skipped,
        summary.malformed,
        workload
            .as_deref()
            .map(|w| format!(", workload {w}"))
            .unwrap_or_default(),
    );
    eprintln!(
        "{:<8} {:<14} {:>6} {:>10} {:>8} {:>8} {:>8}  reason",
        "window", "class", "conf", "acts", "per-row", "spills", "mitig"
    );
    for r in probe.reports() {
        eprintln!(
            "{:<8} {:<14} {:>6.2} {:>10} {:>8} {:>8} {:>8}  {}",
            r.signals.window,
            r.classification.class.name(),
            r.classification.confidence,
            r.signals.activations,
            r.signals.per_row,
            r.signals.spills,
            r.signals.mitigations,
            r.classification.reason,
        );
    }
    print!("{}", incidents_to_jsonl(&probe.incidents()));
    let verdict = probe.verdict();
    eprintln!(
        "verdict: {} ({}/{} attack window(s), max confidence {:.2})",
        verdict.dominant.name(),
        verdict.attack_windows,
        verdict.windows,
        verdict.max_confidence,
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    let mut geometry = "tiny".to_string();
    let mut t_rh: u32 = 64;
    let mut max_tenants: Option<usize> = None;
    let mut idle_timeout_ms: Option<u64> = None;
    let mut record: Option<PathBuf> = None;
    let mut allow_crash_frames = false;
    let mut metrics = false;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--geometry" => geometry = value("--geometry")?,
            "--t-rh" => t_rh = value("--t-rh")?.parse().map_err(|_| "bad --t-rh")?,
            "--max-tenants" => {
                max_tenants = Some(
                    value("--max-tenants")?
                        .parse()
                        .map_err(|_| "bad --max-tenants")?,
                );
            }
            "--idle-timeout-ms" => {
                idle_timeout_ms = Some(
                    value("--idle-timeout-ms")?
                        .parse()
                        .map_err(|_| "bad --idle-timeout-ms")?,
                );
            }
            "--record" => record = Some(PathBuf::from(value("--record")?)),
            "--allow-crash-frames" => allow_crash_frames = true,
            "--metrics" => metrics = true,
            other => return Err(format!("unknown serve flag {other}")),
        }
        i += 1;
    }
    let socket = socket.ok_or("serve needs --socket PATH")?;

    let mut config = ServeConfig::new(&socket, &geometry, t_rh)
        .ok_or_else(|| format!("unknown geometry {geometry} (tiny or isca22)"))?;
    if let Some(n) = max_tenants {
        if n == 0 {
            return Err("--max-tenants must be at least 1".into());
        }
        config.max_tenants = n;
    }
    if let Some(ms) = idle_timeout_ms {
        config.idle_timeout = Duration::from_millis(ms);
    }
    config.allow_crash_frames = allow_crash_frames;
    config.record = record.is_some();
    config.metrics = metrics;

    eprintln!(
        "serve: listening on {} (geometry {geometry}, t_rh {t_rh}); send a Drain frame to stop",
        socket.display()
    );
    // Runs until a client drains it; the kv report is the exit record the
    // CI smoke job greps.
    let handle = hydra_repro::server::spawn(config).map_err(|e| e.to_string())?;
    let report = handle.join()?;
    print!("{}", report.to_kv_lines());
    if let Some(path) = record {
        let session = report
            .session
            .as_ref()
            .ok_or("daemon produced no session despite --record")?;
        std::fs::write(&path, session.to_text()).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("serve: recorded session → {}", path.display());
    }
    Ok(())
}

fn cmd_load(args: &[String]) -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    let mut smoke = false;
    let mut tenants: Option<usize> = None;
    let mut batches: Option<u64> = None;
    let mut rows: Option<usize> = None;
    let mut fault_rate: Option<f64> = None;
    let mut seed: Option<u64> = None;
    let mut no_drain = false;
    let mut drain_only = false;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--smoke" => smoke = true,
            "--tenants" => {
                tenants = Some(value("--tenants")?.parse().map_err(|_| "bad --tenants")?);
            }
            "--batches" => {
                batches = Some(value("--batches")?.parse().map_err(|_| "bad --batches")?);
            }
            "--rows" => rows = Some(value("--rows")?.parse().map_err(|_| "bad --rows")?),
            "--fault-rate" => {
                fault_rate = Some(
                    value("--fault-rate")?
                        .parse()
                        .map_err(|_| "bad --fault-rate")?,
                );
            }
            "--seed" => seed = Some(value("--seed")?.parse().map_err(|_| "bad --seed")?),
            "--no-drain" => no_drain = true,
            "--drain-only" => drain_only = true,
            other => return Err(format!("unknown load flag {other}")),
        }
        i += 1;
    }
    let socket = socket.ok_or("load needs --socket PATH")?;
    // --smoke pins the CI mix (same idiom as `hydra sweep --smoke`).
    if smoke
        && (tenants.is_some()
            || batches.is_some()
            || rows.is_some()
            || fault_rate.is_some()
            || seed.is_some()
            || no_drain
            || drain_only)
    {
        return Err("--smoke pins the mix; drop it to customize".into());
    }
    if drain_only
        && (tenants.is_some()
            || batches.is_some()
            || rows.is_some()
            || fault_rate.is_some()
            || no_drain)
    {
        return Err("--drain-only sends nothing but the drain; drop the mix flags".into());
    }

    let mut config = LoadConfig::smoke(&socket);
    if drain_only {
        // Shut down a daemon left running by a --no-drain load (the
        // obs-smoke scrape pattern) without replaying the adversary mix
        // against its surviving per-tenant sequence state.
        config.tenants = 0;
        config.batches_per_tenant = 0;
        config.corruptor = false;
        config.fault_rate = 0.0;
        config.slow_reader = false;
        config.reconnect_storm = false;
        config.crash_tenant = false;
    }
    if let Some(n) = tenants {
        config.tenants = n;
    }
    if let Some(n) = batches {
        config.batches_per_tenant = n;
    }
    if let Some(n) = rows {
        config.rows_per_batch = n;
    }
    if let Some(f) = fault_rate {
        config.fault_rate = f;
    }
    if let Some(s) = seed {
        config.seed = s;
    }
    if no_drain {
        config.drain = false;
    }

    let report = run_load(&config)?;
    print!("{}", report.to_kv_lines());
    Ok(())
}

/// `hydra top`: scrape a running daemon's live stats over the wire
/// protocol and render them as per-tenant tables (or dump the raw
/// `hydra-serve-stats-v1` JSON with `--json`).
fn cmd_top(args: &[String]) -> Result<(), String> {
    let mut socket: Option<PathBuf> = None;
    let mut watch: Option<u64> = None;
    let mut json = false;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--watch" => {
                let secs: u64 = value("--watch")?.parse().map_err(|_| "bad --watch")?;
                if secs == 0 {
                    return Err("--watch must be at least 1 second".into());
                }
                watch = Some(secs);
            }
            "--json" => json = true,
            other => return Err(format!("unknown top flag {other}")),
        }
        i += 1;
    }
    let socket = socket.ok_or("top needs --socket PATH")?;

    loop {
        // Reconnect per sample: a watch interval longer than the daemon's
        // idle timeout would otherwise get the connection reaped between
        // scrapes, and a fresh Unix-socket connect is cheap.
        let mut client =
            Client::connect(&socket).map_err(|e| format!("{}: {e}", socket.display()))?;
        let raw = client.stats_json()?;
        if json {
            println!("{raw}");
        } else {
            let reading = StatsReading::parse(&raw)?;
            print!("{}", render_top(&reading));
        }
        match watch {
            Some(secs) => std::thread::sleep(Duration::from_secs(secs)),
            None => return Ok(()),
        }
    }
}

/// Renders one stats snapshot as the `hydra top` text screen.
fn render_top(r: &StatsReading) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "conns {}  frames_ok {}  rejects {}  panics {}  stats_served {}",
        r.counter("connections"),
        r.counter("frames_ok"),
        r.rejects.values().sum::<u64>(),
        r.counter("tenant_panics"),
        r.counter("stats_served"),
    );
    let _ = writeln!(
        out,
        "batches: offered {}  enqueued {}  shed {}  refused {}  acked {}  rows {}",
        r.counter("batches_offered"),
        r.counter("batches_enqueued"),
        r.counter("batches_shed"),
        r.counter("batches_refused"),
        r.counter("batches_accepted"),
        r.counter("rows_accepted"),
    );
    let _ = writeln!(
        out,
        "incidents: published {}  sub-queued {}  sub-evicted {}",
        r.counter("incidents_published"),
        r.counter("subscriber_queued"),
        r.counter("subscriber_dropped"),
    );
    let Some(m) = &r.metrics else {
        let _ = writeln!(
            out,
            "metrics: disabled (start the daemon with `hydra serve --metrics`)"
        );
        return out;
    };
    let uptime_secs = m.uptime_micros as f64 / 1e6;
    let _ = writeln!(out, "{}: {}", metric_names::UPTIME_MICROS, m.uptime_micros);
    for (name, h) in [
        (metric_names::INGEST_US, &m.ingest),
        (metric_names::QUEUE_WAIT_US, &m.queue_wait),
        (metric_names::PUBLISH_LAG_US, &m.publish_lag),
    ] {
        let _ = writeln!(
            out,
            "{name:<14} n {:>8}  mean {:>9.1}  p50 {:>9.1}  p99 {:>9.1}  max {:>8}",
            h.count, h.mean, h.p50, h.p99, h.max,
        );
    }
    let _ = writeln!(
        out,
        "{:<20} {:>9} {:>9} {:>10} {:>6} {:>9} {:>11} {:>9} {:>9}",
        "tenant",
        "acts/s",
        "batches",
        "rows",
        "sheds",
        "incidents",
        metric_names::QUEUE_DEPTH,
        "p50_us",
        "p99_us",
    );
    for t in &m.tenants {
        let _ = writeln!(
            out,
            "{:<20} {:>9.0} {:>9} {:>10} {:>6} {:>9} {:>11} {:>9.1} {:>9.1}",
            t.tenant,
            t.rows as f64 / uptime_secs.max(1e-9),
            t.batches,
            t.rows,
            t.sheds,
            t.incidents,
            t.queue_depth,
            t.ingest.p50,
            t.ingest.p99,
        );
    }
    out
}

fn cmd_replay_session(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("replay-session needs a session file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    replay_check(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("replay-session: {path}: byte-identical");
    Ok(())
}

/// Parses a comma-separated list with a custom element parser.
fn parse_list<T>(
    flag: &str,
    raw: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    let items: Option<Vec<T>> = raw.split(',').map(|s| parse(s.trim())).collect();
    match items {
        Some(v) if !v.is_empty() => Ok(v),
        _ => Err(format!("bad {flag} list: {raw}")),
    }
}

/// Parses a `--jobs` worker count (at least 1).
fn parse_jobs(raw: &str) -> Result<usize, String> {
    match raw.parse() {
        Ok(0) => Err("--jobs must be at least 1".into()),
        Ok(jobs) => Ok(jobs),
        Err(_) => Err("bad --jobs".into()),
    }
}

/// The batch policy every experiment grid runs under: a five-minute
/// watchdog per cell, `jobs` workers.
fn batch_config(jobs: usize) -> BatchConfig {
    BatchConfig {
        watchdog: Duration::from_secs(300),
        jobs,
    }
}

/// Writes JSONL `lines` to `path`, newline-terminated.
fn write_lines(path: &std::path::Path, lines: &[String]) -> Result<(), String> {
    let mut text = lines.join("\n");
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `hydra sweep`: Hydra's design space (hydra-sweep-v1), or with `--arena`
/// the whole tracker roster (Hydra, the baselines, and the
/// CoMeT/ABACuS/MINT/START successors) raced under the shadow oracle
/// (hydra-arena-v1). Both run through the same experiment core; the flags
/// that name a shared axis set it on both grids, and only the selected
/// grid runs.
fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let arena = args.iter().any(|a| a == "--arena");
    let tag = if arena { "arena" } else { "sweep" };
    let mut sweep = SweepGrid::smoke();
    let mut race = ArenaGrid::full();
    let mut smoke = false;
    let mut jobs: usize = 1;
    let mut out: Option<PathBuf> = None;
    let mut deterministic = false;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = |name: &str| {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag {
            "--arena" => {}
            "--smoke" => smoke = true,
            "--jobs" => jobs = parse_jobs(&value("--jobs")?)?,
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--deterministic" => deterministic = true,
            "--geometry" => {
                sweep.geometry = value("--geometry")?;
                race.geometry = sweep.geometry.clone();
            }
            "--workloads" => {
                sweep.workloads = parse_list("--workloads", &value("--workloads")?, |s| {
                    Some(s.to_string())
                })?;
                race.workloads = sweep.workloads.clone();
            }
            "--t-rh" => {
                sweep.t_rh = parse_list("--t-rh", &value("--t-rh")?, |s| s.parse().ok())?;
                race.t_rh = sweep.t_rh.clone();
            }
            "--acts" => {
                sweep.acts = value("--acts")?.parse().map_err(|_| "bad --acts")?;
                race.acts = sweep.acts;
            }
            "--seed" => {
                sweep.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?;
                race.seed = sweep.seed;
            }
            "--trackers" if arena => {
                race.trackers =
                    parse_list("--trackers", &value("--trackers")?, |s| Some(s.to_string()))?;
            }
            "--gct" if !arena => {
                sweep.gct_entries = parse_list("--gct", &value("--gct")?, |s| s.parse().ok())?;
            }
            "--rcc" if !arena => {
                sweep.rcc_entries = parse_list("--rcc", &value("--rcc")?, |s| s.parse().ok())?;
            }
            "--tg-pct" if !arena => {
                sweep.tg_pct = parse_list("--tg-pct", &value("--tg-pct")?, |s| s.parse().ok())?;
            }
            other => return Err(format!("unknown {tag} flag {other}")),
        }
        i += 1;
    }
    // --smoke pins the CI grid; without it the defaults apply but any axis
    // may be overridden. (The flag exists so scripts can say what they mean
    // and fail loudly if they also try to override an axis.)
    let axis = |a: &str| match a {
        "--geometry" | "--workloads" | "--t-rh" | "--acts" | "--seed" => true,
        "--trackers" => arena,
        "--gct" | "--rcc" | "--tg-pct" => !arena,
        _ => false,
    };
    if smoke && args.iter().any(|a| axis(a)) {
        return Err(format!(
            "--smoke pins the {tag} grid; drop it to customize axes"
        ));
    }
    let batch = batch_config(jobs);

    // Each front end runs its grid and renders its gate: the stderr check
    // lines, and the error a failed gate exits with.
    let (lines, checks, failed, gate) = if arena {
        if smoke {
            race = ArenaGrid::smoke();
        }
        let cells = race.cells().map_err(|e| e.to_string())?;
        eprintln!(
            "arena: {} cell(s) — {} tracker(s) × {} workload(s) × {} threshold(s), {} act(s) each, {jobs} job(s)",
            cells.len(),
            race.trackers.len(),
            race.workloads.len(),
            race.t_rh.len(),
            race.acts,
        );
        let outcome = run_arena(&race, batch).map_err(|e| e.to_string())?;
        let checks: Vec<String> = outcome
            .fig5_checks()
            .iter()
            .map(|c| {
                format!(
                    "  fig5 {}/t_rh{}: sram hydra {} vs graphene {} bits, slowdown {:.3}% vs {:.3}% [{}]",
                    c.workload,
                    c.t_rh,
                    c.hydra_sram_bits,
                    c.graphene_sram_bits,
                    c.hydra_slowdown_pct,
                    c.graphene_slowdown_pct,
                    if c.ok { "ok" } else { "REGRESSED" },
                )
            })
            .collect();
        // Fig. 5's claim is gated at the paper's design point (T_RH = 500),
        // where both Hydra and Graphene raced. (At relaxed thresholds
        // Graphene's table is legitimately small; the claim is not
        // expected to hold there.)
        let gate_at = 500;
        let gate = if !outcome.oracle_clean() {
            Some("shadow oracle flagged a tracker: a row crossed T_RH unmitigated or a clean row was refreshed".to_string())
        } else if race.t_rh.contains(&gate_at)
            && race.trackers.iter().any(|t| t == "hydra")
            && race.trackers.iter().any(|t| t == "graphene")
            && !outcome.fig5_ok_at(gate_at)
        {
            Some(format!(
                "Fig. 5 regressed at T_RH = {gate_at}: Hydra must undercut Graphene's SRAM without slowing down more"
            ))
        } else {
            None
        };
        let lines = if deterministic {
            outcome.deterministic_lines()
        } else {
            outcome.jsonl_lines()
        };
        (lines, checks, outcome.failures.len(), gate)
    } else {
        let cells = sweep.cells().map_err(|e| e.to_string())?;
        eprintln!(
            "sweep: {} cell(s) on geometry {}, {} act(s) each, {jobs} job(s)",
            cells.len(),
            sweep.geometry,
            sweep.acts
        );
        let outcome = run_sweep(&sweep, batch).map_err(|e| e.to_string())?;
        let trends = outcome.trend_checks();
        let checks = trends
            .iter()
            .map(|t| {
                format!(
                    "  trend {}/t_rh{}: gct {} → {}: mitigations {} → {}, slowdown {:.3}% → {:.3}% [{}]",
                    t.workload,
                    t.t_rh,
                    t.gct_low,
                    t.gct_high,
                    t.mitigations_low,
                    t.mitigations_high,
                    t.slowdown_low_pct,
                    t.slowdown_high_pct,
                    if t.ok { "ok" } else { "REGRESSED" },
                )
            })
            .collect();
        let gate = (!trends.iter().all(|t| t.ok)).then(|| {
            "GCT-size trend regressed: growing the GCT increased mitigations or slowdown"
                .to_string()
        });
        let lines = if deterministic {
            outcome.deterministic_lines()
        } else {
            outcome.jsonl_lines()
        };
        (lines, checks, outcome.failures.len(), gate)
    };

    match &out {
        Some(path) => {
            write_lines(path, &lines)?;
            eprintln!("{tag}: wrote {} line(s) to {}", lines.len(), path.display());
        }
        None => {
            for line in &lines {
                println!("{line}");
            }
        }
    }
    for check in &checks {
        eprintln!("{check}");
    }
    if failed > 0 {
        return Err(format!("{failed} {tag} cell(s) failed"));
    }
    gate.map_or(Ok(()), Err)
}
