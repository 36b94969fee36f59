//! Table 1: per-rank SRAM/CAM storage required by prior trackers for a
//! 16 GB rank (16 banks, 8 KB rows), versus the ≤64 KB goal.
//!
//! Analytic: uses the calibrated storage models of
//! `hydra_baselines::storage`; paper-claimed values are printed alongside
//! for comparison.

use hydra_baselines::storage::{Scheme, DDR4_BANKS_PER_RANK};
use hydra_bench::{fmt_bytes, Table};

/// Paper-claimed Table 1 values in KB, by (threshold row, scheme column).
fn paper_claim(t_rh: u32, scheme: Scheme) -> &'static str {
    match (t_rh, scheme) {
        (250, Scheme::Graphene) => "679 KB",
        (250, Scheme::Twice) => ">2 MB",
        (250, Scheme::Cat) => ">2 MB",
        (250, Scheme::Dcbf) => "1.5 MB",
        (250, Scheme::Ocpr) => "2.0 MB",
        (500, Scheme::Graphene) => "340 KB",
        (500, Scheme::Twice) => "2.3 MB",
        (500, Scheme::Cat) => "1.5 MB",
        (500, Scheme::Dcbf) => "768 KB",
        (500, Scheme::Ocpr) => "2.3 MB",
        (1000, Scheme::Graphene) => "170 KB",
        (1000, Scheme::Twice) => "1.2 MB",
        (1000, Scheme::Cat) => "784 KB",
        (1000, Scheme::Dcbf) => "384 KB",
        (1000, Scheme::Ocpr) => "2.5 MB",
        (32_000, Scheme::Graphene) => "5 KB",
        (32_000, Scheme::Twice) => "37 KB",
        (32_000, Scheme::Cat) => "25 KB",
        (32_000, Scheme::Dcbf) => "53 KB",
        (32_000, Scheme::Ocpr) => "3.8 MB",
        _ => "?",
    }
}

fn main() {
    println!("\n=== Table 1: per-rank storage of prior trackers (16 GB rank, DDR4) ===\n");
    let mut table = Table::new(vec!["T_RH", "scheme", "model", "paper", "goal"]);
    for t_rh in [250u32, 500, 1000, 32_000] {
        for scheme in Scheme::ALL {
            let bytes = scheme.bytes_per_rank(t_rh, DDR4_BANKS_PER_RANK);
            table.row(vec![
                t_rh.to_string(),
                scheme.name().to_string(),
                fmt_bytes(bytes),
                paper_claim(t_rh, scheme).to_string(),
                if t_rh == 32_000 {
                    "-".into()
                } else {
                    "<= 64 KB".into()
                },
            ]);
        }
    }
    print!("{}", table.render());
    match table.export_csv("table1") {
        Ok(note) => print!("{note}"),
        Err(e) => eprintln!("{e}"),
    }
    println!("\nAll prior schemes exceed the 64 KB goal at T_RH <= 1000;");
    println!("Hydra's total is 56.5 KB for the whole 32 GB system (Table 4).");
}
