//! Table 5: total SRAM overhead for the 32 GB (2-rank) system at
//! T_RH = 500, DDR4 (16 banks/rank) versus DDR5 (32 banks/rank). Per-bank
//! trackers double on DDR5; Hydra does not (its structures scale with rows,
//! not banks).

use hydra_baselines::storage::{Scheme, DDR4_BANKS_PER_RANK, DDR5_BANKS_PER_RANK};
use hydra_bench::{fmt_bytes, Table};
use hydra_core::{HydraConfig, HydraStorage};
use hydra_types::MemGeometry;

fn main() {
    const RANKS: u64 = 2;
    let geom = MemGeometry::isca22_baseline();
    let hydra = HydraStorage::for_system(
        &HydraConfig::isca22_default(geom, 0).expect("config"),
        u32::from(geom.channels()),
    );

    println!("\n=== Table 5: total SRAM overhead, 32 GB system, T_RH = 500 ===\n");
    let mut table = Table::new(vec![
        "scheme",
        "DDR4 (16 banks/rank)",
        "DDR5 (32 banks/rank)",
    ]);
    for scheme in [Scheme::Graphene, Scheme::Twice, Scheme::Cat, Scheme::Dcbf] {
        let ddr4 = scheme.bytes_per_rank(500, DDR4_BANKS_PER_RANK) * RANKS;
        let ddr5 = if scheme.scales_with_banks() {
            scheme.bytes_per_rank(500, DDR5_BANKS_PER_RANK) * RANKS
        } else {
            // D-CBF is a rank-level filter: Table 5 keeps it constant.
            ddr4
        };
        table.row(vec![
            scheme.name().to_string(),
            fmt_bytes(ddr4),
            fmt_bytes(ddr5),
        ]);
    }
    table.row(vec![
        "Hydra".into(),
        fmt_bytes(hydra.total_sram_bytes()),
        fmt_bytes(hydra.total_sram_bytes()),
    ]);
    print!("{}", table.render());
    println!("\nPaper: Graphene 680 KB / 1.4 MB, TWiCE 4.6 / 9.2 MB, CAT 3 / 6 MB,");
    println!("       D-CBF 1.5 / 1.5 MB, Hydra 56.5 / 56.5 KB.");
    assert!(hydra.total_sram_bytes() < 64 * 1024);
}
