//! Property tests on the memory controller: conservation (everything
//! enqueued completes), legality (device asserts never fire), and
//! robustness of the scheduler under arbitrary request interleavings and
//! trackers.

use hydra_sim::{MemController, SystemConfig};
use hydra_types::tracker::NullTracker;
use hydra_types::{
    ActivationKind, ActivationTracker, MemCycle, MemGeometry, RowAddr, TrackerResponse,
};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Read { bank: u8, row: u32, col: u32 },
    Write { bank: u8, row: u32, col: u32 },
    Wait { cycles: u8 },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            3 => (0u8..4, 0u32..64, 0u32..16)
                .prop_map(|(bank, row, col)| Op::Read { bank, row, col }),
            2 => (0u8..4, 0u32..64, 0u32..16)
                .prop_map(|(bank, row, col)| Op::Write { bank, row, col }),
            1 => (1u8..50).prop_map(|cycles| Op::Wait { cycles }),
        ],
        1..200,
    )
}

/// Ticks the controller once; returns the number of reads it completed.
fn tick(controller: &mut MemController, now: MemCycle) -> u64 {
    let mut done = Vec::new();
    controller.tick(now, &mut done);
    done.len() as u64
}

/// Drives a controller with an arbitrary op sequence; returns
/// (reads enqueued, read completions observed, cycles to drain).
fn drive(mut controller: MemController, script: Vec<Op>) -> (u64, u64, MemCycle) {
    let geom = MemGeometry::tiny();
    let mut now: MemCycle = 0;
    let mut enqueued = 0u64;
    let mut completed = 0u64;
    for op in script {
        match op {
            Op::Read { bank, row, col } => {
                let addr = geom.line_of_row(RowAddr::new(0, 0, bank, row), col);
                // Retry until the queue accepts (bounded by queue drain).
                let mut guard = 0;
                while controller.enqueue_read(addr, 0, now).is_none() {
                    completed += tick(&mut controller, now);
                    now += 1;
                    guard += 1;
                    assert!(guard < 1_000_000, "read admission starved");
                }
                enqueued += 1;
            }
            Op::Write { bank, row, col } => {
                let addr = geom.line_of_row(RowAddr::new(0, 0, bank, row), col);
                let mut guard = 0;
                while !controller.enqueue_write(addr, now) {
                    completed += tick(&mut controller, now);
                    now += 1;
                    guard += 1;
                    assert!(guard < 1_000_000, "write admission starved");
                }
            }
            Op::Wait { cycles } => {
                for _ in 0..cycles {
                    completed += tick(&mut controller, now);
                    now += 1;
                }
            }
        }
        completed += tick(&mut controller, now);
        now += 1;
    }
    let mut guard = 0;
    while !controller.is_idle() {
        completed += tick(&mut controller, now);
        now += 1;
        guard += 1;
        assert!(guard < 5_000_000, "controller failed to drain");
    }
    (enqueued, completed, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every enqueued read completes exactly once, regardless of order.
    #[test]
    fn reads_are_conserved(script in ops()) {
        let config = SystemConfig::tiny_test();
        let controller = MemController::new(&config, 0, Box::new(NullTracker));
        let (enqueued, completed, _) = drive(controller, script);
        prop_assert_eq!(enqueued, completed);
    }

    /// The same holds with a Hydra tracker injecting side traffic and
    /// mitigations (no demand read may be lost to tracker activity).
    #[test]
    fn reads_are_conserved_under_hydra(script in ops()) {
        let geom = MemGeometry::tiny();
        let config = SystemConfig::tiny_test();
        let mut b = hydra_core::HydraConfig::builder(geom, 0);
        b.thresholds(12, 9).gct_entries(16).rcc_entries(8);
        let hydra = hydra_core::Hydra::new(b.build().unwrap()).unwrap();
        let controller = MemController::new(&config, 0, Box::new(hydra));
        let (enqueued, completed, _) = drive(controller, script);
        prop_assert_eq!(enqueued, completed);
    }

    /// A pathological tracker that mitigates on every activation must not
    /// deadlock or lose requests (mitigation storms are bounded because the
    /// test tracker ignores mitigation-refresh activations).
    #[test]
    fn mitigation_heavy_tracker_is_safe(script in ops()) {
        struct AlwaysMitigate;
        impl ActivationTracker for AlwaysMitigate {
            fn on_activation(
                &mut self,
                row: RowAddr,
                _now: MemCycle,
                kind: ActivationKind,
            ) -> TrackerResponse {
                if kind == ActivationKind::Demand {
                    TrackerResponse::mitigate(row)
                } else {
                    TrackerResponse::none()
                }
            }
            fn reset_window(&mut self, _now: MemCycle) {}
            fn name(&self) -> &str { "always" }
            fn sram_bytes(&self) -> u64 { 0 }
        }
        let config = SystemConfig::tiny_test();
        let controller = MemController::new(&config, 0, Box::new(AlwaysMitigate));
        let (enqueued, completed, _) = drive(controller, script);
        prop_assert_eq!(enqueued, completed);
    }

    /// Read latency is bounded: with a bounded script, the drain time is
    /// finite and every tick's completions carry plausible timestamps.
    #[test]
    fn drain_time_is_bounded(script in ops()) {
        let config = SystemConfig::tiny_test();
        let controller = MemController::new(&config, 0, Box::new(NullTracker));
        let n = script.len() as u64;
        let (_, _, cycles) = drive(controller, script);
        // Extremely loose bound: every op costs at most ~2 tRC + refresh.
        prop_assert!(cycles < 2000 * (n + 1), "drained in {cycles} cycles for {n} ops");
    }
}
