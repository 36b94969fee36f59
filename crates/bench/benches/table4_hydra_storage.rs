//! Table 4: Hydra's SRAM storage breakdown for the 32 GB / 2-channel
//! baseline — GCT 32 KB, RCC 24 KB, RIT-ACT 0.5 KB, total 56.5 KB — plus the
//! 4 MB in-DRAM RCT (< 0.02 % of capacity).

use hydra_bench::{fmt_bytes, Table};
use hydra_core::{HydraConfig, HydraStorage};
use hydra_types::MemGeometry;

fn main() {
    let geom = MemGeometry::isca22_baseline();
    let config = HydraConfig::isca22_default(geom, 0).expect("baseline config");
    let storage = HydraStorage::for_system(&config, u32::from(geom.channels()));

    println!("\n=== Table 4: Hydra storage overhead (32 GB memory, 2 channels) ===\n");
    let mut table = Table::new(vec!["structure", "entry", "entries", "cost"]);
    table.row(vec![
        "GCT".into(),
        "8-bit counter".into(),
        "32K".into(),
        fmt_bytes(storage.gct_bytes),
    ]);
    table.row(vec![
        "RCC".into(),
        "24-bit (valid+tag+SRRIP+count)".into(),
        "8K".into(),
        fmt_bytes(storage.rcc_bytes),
    ]);
    table.row(vec![
        "RIT-ACT".into(),
        "8-bit counter".into(),
        "512".into(),
        fmt_bytes(storage.rit_bytes),
    ]);
    table.row(vec![
        "Total SRAM".into(),
        "".into(),
        "".into(),
        fmt_bytes(storage.total_sram_bytes()),
    ]);
    print!("{}", table.render());

    let frac = storage.dram_overhead_fraction(geom.capacity_bytes());
    println!(
        "\nIn-DRAM RCT: {} ({:.4} % of the 32 GB capacity; paper: 4 MB, < 0.02 %)",
        fmt_bytes(storage.rct_dram_bytes),
        frac * 100.0
    );
    assert_eq!(
        storage.total_sram_bytes(),
        57_856,
        "must match the paper's 56.5 KB"
    );
}
