//! `hydra-verify` — the exhaustive pool-protocol schedule explorer, for CI.
//!
//! ```text
//! cargo run -p hydra-analysis --bin hydra-verify [-- explore]
//! ```
//!
//! Model-checks the worker-pool protocol over every interleaving, then
//! proves each seeded mutation is caught. Exits nonzero on any failure.

use hydra_analysis::explore::{default_step_bound, explore, random_walks, ModelConfig};
use hydra_engine::protocol::ProtocolVariant;
use std::process::ExitCode;

/// The acceptance envelope: every (workers, items) shape the explorer must
/// enumerate exhaustively, including worker-panic schedules.
const SHAPES: [(usize, usize); 4] = [(1, 1), (1, 3), (2, 2), (2, 3)];

fn run_explore() -> Result<(), String> {
    // 1. The faithful protocol survives every interleaving.
    for &(workers, items) in &SHAPES {
        let config = ModelConfig::faithful(workers, items);
        let report = explore(&config);
        if let Some(v) = &report.violation {
            return Err(format!("faithful {workers}x{items}: violation: {v}"));
        }
        if report.truncated {
            return Err(format!(
                "faithful {workers}x{items}: hit the step bound ({}) before closing the state space",
                default_step_bound(workers, items)
            ));
        }
        println!(
            "explore: faithful {workers}x{items}: {} states, {} terminals, depth {}: ok",
            report.states, report.terminals, report.deepest
        );
    }
    // Panic schedules: every subset of dying workers still settles.
    for &(workers, items) in &[(2usize, 3usize)] {
        for panics in [&[0usize][..], &[0, 1][..]] {
            let config = ModelConfig::faithful(workers, items).with_panics(panics);
            let report = explore(&config);
            if let Some(v) = &report.violation {
                return Err(format!(
                    "faithful {workers}x{items} panics={panics:?}: violation: {v}"
                ));
            }
            println!(
                "explore: faithful {workers}x{items} panics={panics:?}: {} states: ok",
                report.states
            );
        }
    }
    // 2. Every seeded protocol mutation is caught, and caught by the
    //    exhaustive pass even when random schedules miss it.
    // SkipClaimedHandshake's symptom is lost panic attribution, so its
    // schedule must include a dying worker; the other two corrupt healthy
    // runs directly.
    let mutations = [
        (
            ProtocolVariant::SkipClaimedHandshake,
            ModelConfig::faithful(2, 2)
                .with_panics(&[0])
                .with_variant(ProtocolVariant::SkipClaimedHandshake),
        ),
        (
            ProtocolVariant::CompletionOrderDelivery,
            ModelConfig::faithful(2, 2).with_variant(ProtocolVariant::CompletionOrderDelivery),
        ),
        (
            ProtocolVariant::UnboundedSubmission,
            ModelConfig::faithful(2, 3).with_variant(ProtocolVariant::UnboundedSubmission),
        ),
    ];
    for (variant, config) in mutations {
        let report = explore(&config);
        let Some(v) = &report.violation else {
            return Err(format!("mutation {variant:?} was NOT detected"));
        };
        let walks = random_walks(&config, 20, 0xda7a);
        println!(
            "explore: mutation {variant:?}: caught ({}); random walks caught {}/{}",
            v.property, walks.violating, walks.walks
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.as_slice() {
        [] => run_explore(),
        [command] if command == "explore" => run_explore(),
        _ => Err(format!(
            "unexpected arguments {args:?} (usage: hydra-verify [explore])"
        )),
    };
    match result {
        Ok(()) => {
            println!("hydra-verify: explorer passed");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("hydra-verify: {e}");
            ExitCode::FAILURE
        }
    }
}
