//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints context lines and every metric by name with
//! its unit, and ends with one JSON result line. Exits 1 when any
//! correctness check failed, 2 on a usage error.

use hydra_perfbench::{result_json, run, RunConfig, Scale, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, RunConfig), String> {
    let mut workload = None;
    let mut config = RunConfig {
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => config.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                config.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad seconds {value}"))?;
            }
            "--trace" => {
                config.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of: {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok((workload, config))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, config) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = match run(&workload, &config) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let metrics = report.finish(config.trace);
    println!(
        "workload {} seed {} seconds {} trace {}",
        report.workload,
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    for note in &report.notes {
        println!("  {note}");
    }
    if config.trace {
        println!("  spans (name, count, total ms, self ms):");
        for s in &report.spans {
            println!(
                "    {:<28} {:>8} {:>12.3} {:>12.3}",
                s.name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
    }
    for (name, unit, value) in &metrics {
        println!("  metric {name} = {value} {unit}");
    }
    for failure in &report.ledger.failures {
        println!("  FAILED: {failure}");
    }
    println!("{}", result_json(&report, &metrics));
    // Exiting explicitly also ends a livelocked cell thread a watchdog
    // gave up on.
    std::process::exit(if report.correct() { 0 } else { 1 })
}
