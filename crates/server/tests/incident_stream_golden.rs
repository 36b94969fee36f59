//! Golden incident stream: a seeded `tenant_batch` stream through one
//! `TenantPipeline`, pinned batch for batch against a committed fixture.
//!
//! Each fixture line records one batch: its sequence number, the rows it
//! applied, how many incidents it published, and the FNV-1a digest of
//! those incident lines (each followed by `\n`). The last line is the
//! final `TenantSummary::digest()`. A change to how the pipeline drains
//! incidents — publishing one twice, skipping one, or moving one to a
//! different batch — changes some line here.

use hydra_server::tenant::fnv1a64;
use hydra_server::{tenant_batch, TenantPipeline};
use hydra_types::MemGeometry;

/// Batches in the session: enough for several hundred windows.
const BATCHES: u64 = 600;

/// SplitMix64 step: the seeded source of each batch's shape.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One batch of the seeded stream. Most batches hammer one
/// `tenant_batch` row pair of a seeded size; about one in four instead
/// spreads two activations each over many row pairs, so runs of them
/// close windows the classifier labels benign.
fn batch(state: &mut u64, seq: u64) -> Vec<u64> {
    let r = splitmix(state);
    if r.is_multiple_of(4) {
        let pairs = 32 + (r >> 8) as usize % 96;
        (0..pairs)
            .flat_map(|_| tenant_batch((splitmix(state) % 120) as usize, seq, 2))
            .collect()
    } else {
        tenant_batch((r >> 8) as usize % 8, seq, 64 + (r >> 16) as usize % 449)
    }
}

/// Renders the per-batch lines and the final digest line for `seed`.
fn render(seed: u64) -> String {
    let mut pipeline =
        TenantPipeline::new("golden", MemGeometry::tiny(), 64).expect("tiny T_RH=64");
    let mut state = seed;
    let mut out = String::new();
    for seq in 1..=BATCHES {
        let rows = batch(&mut state, seq);
        let outcome = pipeline.apply_batch(seq, &rows).expect("accepted");
        let mut text = String::new();
        for line in &outcome.new_incidents {
            text.push_str(line);
            text.push('\n');
        }
        out.push_str(&format!(
            "seq={} accepted={} incidents={} fnv={:016x}\n",
            outcome.seq,
            outcome.accepted,
            outcome.new_incidents.len(),
            fnv1a64(text.as_bytes()),
        ));
    }
    let summary = pipeline.finish();
    out.push_str(&format!("summary={:016x}\n", summary.digest()));
    out
}

#[test]
fn incident_stream_matches_the_committed_fixture() {
    let text = render(0x0bad_5eed);
    let fixture = include_str!("fixtures/incident_stream_seed_0bad5eed.txt");
    assert_eq!(text.lines().count(), fixture.lines().count());
    for (n, (got, want)) in text.lines().zip(fixture.lines()).enumerate() {
        assert_eq!(got, want, "fixture line {} drifted", n + 1);
    }
}
