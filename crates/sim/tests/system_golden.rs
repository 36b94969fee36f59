//! Cycle-exact golden values for `SystemSim`.
//!
//! Each case runs a small full-system simulation and pins everything it
//! reports: total cycles and instructions, every controller counter and
//! every DRAM channel counter. The values were captured from the reference
//! per-cycle scheduler, so any change to the simulator's fast paths
//! (skipping idle controller cycles, caching decoded channels, ...) must
//! leave every simulated number bit-identical.
//!
//! The scale is chosen so every case spans at least two tracking windows
//! and several refreshes, and the cases cover every path an idle controller
//! must wake up for or stay out of the way of: mitigation refreshes, heavy
//! side traffic (CRA with a tiny cache), rate-limit blacklisting and
//! row-swap copies. Two cases put two ranks on each channel, so that one
//! controller's wake-up meets per-rank tRRD, tFAW and staggered refresh
//! registers.

use hydra_baselines::{Cra, CraConfig};
use hydra_core::config::defaults;
use hydra_core::{Hydra, HydraConfig};
use hydra_sim::{SimResult, SystemConfig, SystemSim};
use hydra_types::mitigation::MitigationPolicy;
use hydra_types::tracker::ActivationTracker;
use hydra_types::MemGeometry;
use hydra_workloads::registry;

/// Window compression: the 64 ms window becomes 25 K memory cycles.
const WINDOW_SCALE: u64 = 4096;
/// Trace footprint scale, as in the paper-IPC benchmark: large enough that
/// both programs keep activating rows instead of living in open rows.
const TRACE_SCALE: u64 = 256;
const INSTRUCTIONS_PER_CORE: u64 = 100_000;
const SEED: u64 = 7;

#[derive(Clone, Copy)]
enum Tracker {
    Null,
    Hydra,
    Cra,
}

fn config(mitigation: MitigationPolicy) -> SystemConfig {
    let mut config = SystemConfig::scaled(WINDOW_SCALE);
    config.instructions_per_core = INSTRUCTIONS_PER_CORE;
    config.mitigation = mitigation;
    config
}

fn tracker(kind: Tracker, geometry: MemGeometry, channel: u8) -> Box<dyn ActivationTracker> {
    match kind {
        Tracker::Null => Box::new(hydra_types::tracker::NullTracker),
        // Hydra's tables shrunk with the window, as the figure runners do
        // (per-channel share divided by WINDOW_SCALE / 16), and its
        // thresholds halved so parest's hot rows draw mitigations within
        // this short run.
        Tracker::Hydra => {
            let mut builder = HydraConfig::builder(geometry, channel);
            builder
                .thresholds(defaults::T_H / 2, defaults::T_G / 2)
                .gct_entries(64)
                .rcc_entries(16)
                .rcc_ways(16);
            Box::new(Hydra::new(builder.build().expect("valid config")).expect("valid config"))
        }
        // A two-line metadata cache: nearly every ACT misses and queues
        // counter traffic, loading the side queue.
        Tracker::Cra => Box::new(
            Cra::new(CraConfig {
                geometry,
                channel,
                threshold: defaults::T_H,
                cache_bytes: 128,
                cache_ways: 2,
            })
            .expect("valid config"),
        ),
    }
}

fn run(program: &str, kind: Tracker, config: SystemConfig) -> (SimResult, Vec<u64>) {
    let geometry = config.geometry;
    let spec = registry::by_name(program).expect("registered program");
    let mut sim = SystemSim::new(config, |core| {
        spec.build(
            geometry,
            TRACE_SCALE,
            SEED ^ (core as u64).wrapping_mul(0x9E37_79B9),
        )
    })
    .with_trackers(|ch| tracker(kind, geometry, ch));
    let result = sim.run();
    let mut flat = vec![result.cycles, result.instructions];
    for (ch, c) in result.controllers.iter().enumerate() {
        flat.extend([
            c.reads_done,
            c.writes_done,
            c.read_latency_sum,
            c.demand_acts,
            c.rate_limited_rows,
            c.row_swaps,
            c.mitigation_acts,
            c.side_acts,
            c.side_done,
            c.window_resets,
        ]);
        let d = sim.controller(ch as u8).dram().stats();
        flat.extend([
            d.activations,
            d.reads,
            d.writes,
            d.precharges,
            d.refreshes,
            d.bus_busy_cycles,
        ]);
    }
    (result, flat)
}

fn check(program: &str, kind: Tracker, mitigation: MitigationPolicy, golden: &[u64]) -> SimResult {
    check_config(program, kind, config(mitigation), golden)
}

fn check_config(program: &str, kind: Tracker, config: SystemConfig, golden: &[u64]) -> SimResult {
    let (result, flat) = run(program, kind, config);
    assert_eq!(flat, golden, "{program}: simulated numbers moved");
    assert!(
        result.controllers.iter().all(|c| c.window_resets >= 2),
        "{program}: the case must span at least two tracking windows"
    );
    result
}

#[test]
fn mcf_untracked() {
    check(
        "mcf",
        Tracker::Null,
        MitigationPolicy::default(),
        &[
            72701, 800019, 6263, 2013, 735488, 6967, 0, 0, 0, 0, 0, 2, 6967, 6263, 2013, 6900, 5,
            33104, 5933, 1997, 676456, 6724, 0, 0, 0, 0, 0, 2, 6724, 5933, 1997, 6665, 5, 31720,
        ],
    );
}

#[test]
fn mcf_hydra() {
    let r = check(
        "mcf",
        Tracker::Hydra,
        MitigationPolicy::default(),
        &[
            74647, 800018, 6262, 2009, 811992, 6946, 0, 0, 0, 5, 1025, 2, 6951, 6775, 2521, 6888,
            5, 37184, 5933, 1997, 664208, 6699, 0, 0, 0, 0, 0, 2, 6699, 5933, 1997, 6633, 5, 31720,
        ],
    );
    assert!(r.controllers.iter().any(|c| c.side_acts > 0));
}

#[test]
fn parest_untracked() {
    check(
        "parest",
        Tracker::Null,
        MitigationPolicy::default(),
        &[
            62280, 800015, 8085, 3436, 767928, 3155, 0, 0, 0, 0, 0, 2, 3155, 8085, 3436, 3114, 4,
            46084, 6964, 3025, 654413, 2915, 0, 0, 0, 0, 0, 2, 2915, 6964, 3025, 2882, 4, 39956,
        ],
    );
}

#[test]
fn parest_hydra() {
    let r = check(
        "parest",
        Tracker::Hydra,
        MitigationPolicy::default(),
        &[
            207584, 800017, 8085, 3436, 3459762, 9536, 0, 0, 140, 365, 35038, 8, 10041, 25645,
            20914, 9838, 16, 186236, 6963, 3030, 620846, 3032, 0, 0, 0, 0, 0, 8, 3032, 6963, 3030,
            2929, 16, 39972,
        ],
    );
    assert!(r.controllers.iter().any(|c| c.mitigation_acts > 0));
}

#[test]
fn parest_hydra_rate_limit() {
    let r = check(
        "parest",
        Tracker::Hydra,
        MitigationPolicy::RateLimit,
        &[
            406801, 800011, 8085, 3434, 7980835, 13222, 82, 0, 0, 864, 81991, 16, 14086, 49116,
            44394, 13666, 32, 374040, 6962, 3029, 640242, 2983, 0, 0, 0, 0, 0, 16, 2983, 6962,
            3029, 2848, 32, 39964,
        ],
    );
    assert!(r.controllers.iter().any(|c| c.rate_limited_rows > 0));
}

#[test]
fn parest_hydra_row_swap() {
    let r = check(
        "parest",
        Tracker::Hydra,
        MitigationPolicy::RowSwap { seed: 11 },
        &[
            184314, 800020, 8085, 3436, 2905561, 6507, 0, 15, 0, 300, 29203, 7, 6807, 22696, 18028,
            6641, 14, 162896, 6964, 3029, 635687, 3048, 0, 0, 0, 0, 0, 7, 3048, 6964, 3029, 2939,
            14, 39972,
        ],
    );
    assert!(r.controllers.iter().any(|c| c.row_swaps > 0));
}

#[test]
fn mcf_cra_small_cache() {
    let r = check(
        "mcf",
        Tracker::Cra,
        MitigationPolicy::default(),
        &[
            142061, 800018, 6264, 2016, 1354772, 7160, 0, 0, 0, 7256, 14303, 5, 14416, 13421, 9162,
            14275, 11, 90332, 5933, 1984, 1183180, 6985, 0, 0, 0, 7109, 13942, 5, 14094, 12909,
            8950, 13956, 11, 87436,
        ],
    );
    assert!(r.controllers.iter().any(|c| c.side_done > 0));
}

/// The paper's capacity as 2 channels × 2 ranks × 8 banks: two ranks'
/// activate windows and refresh schedules per controller.
fn two_rank_config() -> SystemConfig {
    let mut config = config(MitigationPolicy::default());
    config.geometry = MemGeometry::new(2, 2, 8, 131_072, 8192).expect("valid geometry");
    config
}

#[test]
fn parest_hydra_two_ranks() {
    let r = check_config(
        "parest",
        Tracker::Hydra,
        two_rank_config(),
        &[
            115963, 800014, 8085, 3436, 1687198, 3898, 0, 0, 20, 95, 12322, 4, 4013, 14263, 9580,
            3914, 17, 95372, 6964, 3029, 679918, 3024, 0, 0, 0, 5, 1025, 4, 3029, 7477, 3541, 2955,
            17, 44072,
        ],
    );
    assert!(r.controllers.iter().any(|c| c.mitigation_acts > 0));
}

#[test]
fn mcf_cra_small_cache_two_ranks() {
    let r = check_config(
        "mcf",
        Tracker::Cra,
        two_rank_config(),
        &[
            148280, 800018, 6263, 2016, 1313742, 7661, 0, 0, 0, 7784, 15310, 5, 15445, 13924, 9665,
            15287, 22, 94356, 5930, 1994, 1158748, 7418, 0, 0, 0, 7553, 14810, 5, 14971, 13340,
            9394, 14816, 22, 90936,
        ],
    );
    assert!(r.controllers.iter().any(|c| c.side_done > 0));
}
