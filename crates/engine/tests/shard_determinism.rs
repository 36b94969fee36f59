//! The engine's headline guarantee, property-tested: a sharded
//! multi-channel run on the worker pool is **bit-identical** to the
//! sequential one-pass run, for arbitrary activation streams, channel
//! counts of 1, 2 and 4, and any worker count — and both are identical to
//! a partition-then-replay reference, so a routing bug the two engine
//! paths share cannot hide.
//!
//! Nothing here is statistical. Per-channel trackers share no state, the
//! merge is a commutative counter sum plus a sorted mitigation union, so
//! scheduling order must be invisible in the result — and this test is the
//! contract that keeps it that way.

use hydra_core::{Hydra, HydraConfig};
use hydra_dram::DramTiming;
use hydra_engine::{merge_shards, partition_by_channel, MergedRun, ShardResult};
use hydra_engine::{ShardedSim, WorkerPool};
use hydra_sim::ActivationSim;
use hydra_types::{MemGeometry, RowAddr};
use proptest::prelude::*;

const T_H: u32 = 16;
const T_G: u32 = 12;

fn geometry(channels: u8) -> MemGeometry {
    MemGeometry::tiny_with_channels(channels).expect("valid geometry")
}

/// Per-channel configs sized so short streams still trip spills, RCC
/// traffic, and mitigations.
fn configs(channels: u8) -> Vec<HydraConfig> {
    (0..channels)
        .map(|ch| {
            HydraConfig::builder(geometry(channels), ch)
                .thresholds(T_H, T_G)
                .gct_entries(64)
                .rcc_entries(16)
                .rcc_ways(4)
                .build()
                .expect("valid test config")
        })
        .collect()
}

/// A refresh window of about 350 activations per shard, so window resets
/// occur within the short proptest streams too.
fn timing() -> DramTiming {
    DramTiming::ddr4_3200().with_scaled_window(4_000)
}

/// A sharded simulator over `channels` tiny channels.
fn sharded(channels: u8) -> ShardedSim {
    ShardedSim::new(geometry(channels), configs(channels))
        .expect("valid shard plan")
        .with_timing(timing())
}

/// The partition-then-replay path the engine used before it dispatched in
/// one pass: copy the stream into per-channel substreams, then replay each
/// through a fresh `ActivationSim`.
fn partitioned_reference(channels: u8, rows: &[RowAddr]) -> MergedRun {
    let shards = partition_by_channel(channels, rows)
        .into_iter()
        .zip(configs(channels))
        .map(|(sub, config)| {
            let channel = config.channel;
            let tracker = Hydra::new(config).expect("valid test config");
            let mut sim = ActivationSim::new(geometry(channels), tracker).with_timing(timing());
            let report = sim.run(sub.iter().copied());
            ShardResult {
                channel,
                shard_acts: sub.len() as u64,
                stats: sim.tracker().stats(),
                report,
                mitigated: sim.drain_mitigated(),
            }
        })
        .collect();
    merge_shards(shards)
}

/// Compares `run` with `reference` one field at a time, so a failure names
/// the shard and field that diverged.
fn assert_matches(path: &str, run: &MergedRun, reference: &MergedRun) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        run.shards.len(),
        reference.shards.len(),
        "{}: shard count",
        path
    );
    for (got, want) in run.shards.iter().zip(&reference.shards) {
        let ch = want.channel;
        prop_assert_eq!(got.channel, ch, "{}: shard order", path);
        prop_assert_eq!(
            got.shard_acts,
            want.shard_acts,
            "{}: shard {} acts",
            path,
            ch
        );
        prop_assert_eq!(&got.stats, &want.stats, "{}: shard {} stats", path, ch);
        prop_assert_eq!(&got.report, &want.report, "{}: shard {} report", path, ch);
        prop_assert_eq!(
            &got.mitigated,
            &want.mitigated,
            "{}: shard {} mitigated",
            path,
            ch
        );
    }
    prop_assert_eq!(&run.stats, &reference.stats, "{}: merged stats", path);
    prop_assert_eq!(&run.report, &reference.report, "{}: merged report", path);
    prop_assert_eq!(
        &run.mitigated,
        &reference.mitigated,
        "{}: merged mitigated",
        path
    );
    Ok(())
}

/// Hammer-biased multi-channel streams: most activations collapse onto a
/// hot row set per channel so thresholds actually trip.
fn channel_stream(channels: u8) -> impl Strategy<Value = Vec<RowAddr>> {
    prop::collection::vec(
        (0..channels, 0u8..4, 0u32..1024).prop_map(|(ch, bank, row)| {
            let row = if row % 3 == 0 { row % 8 } else { row };
            RowAddr::new(ch, 0, bank, row)
        }),
        0..800,
    )
}

/// A channel count of 1, 2 or 4 and a hammer-biased stream over it. Release
/// builds also draw channel ids up to `channels + 2`, which both paths fold
/// modulo the channel count; debug builds keep every id in range, because
/// `Hydra` debug-asserts that each row belongs to its own channel.
fn folded_case() -> impl Strategy<Value = (u8, Vec<RowAddr>)> {
    let spill = if cfg!(debug_assertions) { 0 } else { 3 };
    (
        prop::sample::select(vec![1u8, 2, 4]),
        prop::collection::vec((0u8..7, 0u8..4, 0u32..1024), 0..800),
    )
        .prop_map(move |(channels, raw)| {
            let ids = channels + spill;
            let rows = raw
                .into_iter()
                .map(|(ch, bank, row)| {
                    let row = if row % 3 == 0 { row % 8 } else { row };
                    RowAddr::new(ch % ids, 0, bank, row)
                })
                .collect();
            (channels, rows)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two channels, any worker count: parallel == sequential, bit for bit.
    #[test]
    fn two_channel_parallel_is_bit_identical(
        stream in channel_stream(2),
        workers in 1usize..9,
    ) {
        let sim = sharded(2);
        let pool = WorkerPool::new(workers);
        let parallel = sim.run_parallel(&pool, &stream).expect("parallel run");
        let sequential = sim.run_sequential(&stream).expect("sequential run");
        prop_assert_eq!(parallel, sequential);
    }

    /// Four channels, any worker count: parallel == sequential, bit for bit.
    #[test]
    fn four_channel_parallel_is_bit_identical(
        stream in channel_stream(4),
        workers in 1usize..9,
    ) {
        let sim = sharded(4);
        let pool = WorkerPool::new(workers);
        let parallel = sim.run_parallel(&pool, &stream).expect("parallel run");
        let sequential = sim.run_sequential(&stream).expect("sequential run");
        prop_assert_eq!(parallel, sequential);
    }

    /// Repeated parallel runs of the same stream are identical to each
    /// other (no hidden scheduling nondeterminism between runs either).
    #[test]
    fn parallel_runs_are_self_consistent(stream in channel_stream(4)) {
        let sim = sharded(4);
        let first = sim.run_parallel(&WorkerPool::new(4), &stream).expect("run 1");
        let second = sim.run_parallel(&WorkerPool::new(3), &stream).expect("run 2");
        prop_assert_eq!(first, second);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both engine paths equal the partition-then-replay reference, field by
    /// field, on 1, 2 and 4 channels and any worker count.
    #[test]
    fn one_pass_matches_partitioned_reference(
        case in folded_case(),
        workers in 1usize..9,
    ) {
        let (channels, stream) = case;
        let sim = sharded(channels);
        let reference = partitioned_reference(channels, &stream);
        let sequential = sim.run_sequential(&stream).expect("sequential run");
        assert_matches("run_sequential", &sequential, &reference)?;
        let parallel = sim.run_parallel(&WorkerPool::new(workers), &stream).expect("parallel run");
        assert_matches("run_parallel", &parallel, &reference)?;
    }
}

/// A deterministic hammer stream dense enough to force mitigations, so the
/// bit-identity above is known to cover the non-trivial case (a vacuous
/// all-zero-stats equality would pass the proptests without proving much).
#[test]
fn dense_hammer_produces_mitigations_and_stays_identical() {
    let sim = sharded(2);
    let stream: Vec<RowAddr> = (0..12_000)
        .map(|i| {
            let ch = (i % 2) as u8;
            let row = if i % 4 < 3 {
                (i / 4 % 4) as u32
            } else {
                (i % 997) as u32
            };
            RowAddr::new(ch, 0, 0, row)
        })
        .collect();
    let parallel = sim
        .run_parallel(&WorkerPool::new(4), &stream)
        .expect("parallel run");
    let sequential = sim.run_sequential(&stream).expect("sequential run");
    assert_eq!(parallel, sequential);
    assert!(
        parallel.stats.mitigations > 0,
        "dense hammer must trip mitigations: {:?}",
        parallel.stats
    );
    assert!(!parallel.mitigated.is_empty());
    let mut sorted = parallel.mitigated.clone();
    sorted.sort_unstable();
    assert_eq!(parallel.mitigated, sorted, "merged mitigations are sorted");
}
