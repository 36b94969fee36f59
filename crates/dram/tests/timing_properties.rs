//! Property tests on the DRAM device model: no legal command sequence may
//! ever violate a JEDEC timing constraint, and the channel's accounting
//! must stay consistent under arbitrary interleavings.

use hydra_dram::{DramChannel, DramTiming};
use hydra_types::{MemCycle, MemGeometry};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Activate { bank: u8, row: u32 },
    Read { bank: u8 },
    Write { bank: u8 },
    Precharge { bank: u8 },
    Wait { cycles: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u32..64).prop_map(|(bank, row)| Op::Activate { bank, row }),
        (0u8..4).prop_map(|bank| Op::Read { bank }),
        (0u8..4).prop_map(|bank| Op::Write { bank }),
        (0u8..4).prop_map(|bank| Op::Precharge { bank }),
        (1u16..100).prop_map(|cycles| Op::Wait { cycles }),
    ]
}

/// Activate-heavy ops over two ranks of eight banks, so that tRRD and tFAW
/// windows fill up and bind.
fn rank_op_strategy() -> impl Strategy<Value = (u8, Op)> {
    let op = prop_oneof![
        6 => (0u8..8, 0u32..64).prop_map(|(bank, row)| Op::Activate { bank, row }),
        3 => (0u8..8).prop_map(|bank| Op::Precharge { bank }),
        1 => (0u8..8).prop_map(|bank| Op::Read { bank }),
        1 => (0u8..8).prop_map(|bank| Op::Write { bank }),
        1 => (1u16..100).prop_map(|cycles| Op::Wait { cycles }),
    ];
    (0u8..2, op)
}

/// Issues `op` on `(rank, op's bank)` if the channel says it is legal now;
/// a wait advances `now` instead.
fn apply(ch: &mut DramChannel, rank: u8, op: Op, now: &mut MemCycle) {
    match op {
        Op::Activate { bank, row } if ch.can_activate(rank, bank, *now) => {
            ch.activate(rank, bank, row, *now);
        }
        Op::Read { bank } if ch.can_read(rank, bank, *now) => {
            ch.read(rank, bank, *now);
        }
        Op::Write { bank } if ch.can_write(rank, bank, *now) => {
            ch.write(rank, bank, *now);
        }
        Op::Precharge { bank } if ch.can_precharge(rank, bank, *now) => {
            ch.precharge(rank, bank, *now);
        }
        Op::Wait { cycles } => *now += MemCycle::from(cycles),
        _ => {}
    }
}

/// Checks, at cycle `t`, that every bank's `can_*` predicate is its
/// bank-state condition AND `t >= *_ready_at`.
fn check_ready_at(ch: &DramChannel, geom: &MemGeometry, t: MemCycle) -> Result<(), TestCaseError> {
    for rank in 0..geom.ranks_per_channel() {
        for bank in 0..geom.banks_per_rank() {
            let open = ch.open_row(rank, bank).is_some();
            let column = open && t >= ch.column_ready_at(rank, bank);
            prop_assert_eq!(
                ch.can_activate(rank, bank, t),
                !open && t >= ch.activate_ready_at(rank, bank),
                "ACT rank {} bank {} t {}",
                rank,
                bank,
                t
            );
            prop_assert_eq!(
                ch.can_read(rank, bank, t),
                column,
                "RD rank {} bank {} t {}",
                rank,
                bank,
                t
            );
            prop_assert_eq!(
                ch.can_write(rank, bank, t),
                column,
                "WR rank {} bank {} t {}",
                rank,
                bank,
                t
            );
            prop_assert_eq!(
                ch.can_precharge(rank, bank, t),
                open && t >= ch.precharge_ready_at(rank, bank),
                "PRE rank {} bank {} t {}",
                rank,
                bank,
                t
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Issue ops only when the channel says they are legal; the channel's
    /// internal assertions must never fire and stats must match what we did.
    #[test]
    fn legal_sequences_never_violate_timing(ops in prop::collection::vec(op_strategy(), 1..300)) {
        let mut ch = DramChannel::new(MemGeometry::tiny(), DramTiming::ddr4_3200(), 0);
        let mut now: MemCycle = 0;
        let mut acts = 0u64;
        let mut reads = 0u64;
        let mut writes = 0u64;
        for op in ops {
            ch.maintain_refresh(now);
            match op {
                Op::Activate { bank, row } => {
                    if ch.can_activate(0, bank, now) {
                        ch.activate(0, bank, row, now);
                        acts += 1;
                        prop_assert_eq!(ch.open_row(0, bank), Some(row));
                    }
                }
                Op::Read { bank } => {
                    if ch.can_read(0, bank, now) {
                        let done = ch.read(0, bank, now);
                        prop_assert!(done > now);
                        reads += 1;
                    }
                }
                Op::Write { bank } => {
                    if ch.can_write(0, bank, now) {
                        let done = ch.write(0, bank, now);
                        prop_assert!(done > now);
                        writes += 1;
                    }
                }
                Op::Precharge { bank } => {
                    if ch.can_precharge(0, bank, now) {
                        ch.precharge(0, bank, now);
                        prop_assert_eq!(ch.open_row(0, bank), None);
                    }
                }
                Op::Wait { cycles } => now += MemCycle::from(cycles),
            }
            now += 1;
        }
        let stats = ch.stats();
        prop_assert_eq!(stats.activations, acts);
        prop_assert_eq!(stats.reads, reads);
        prop_assert_eq!(stats.writes, writes);
    }

    /// A column command can never be legal on a closed bank, and an
    /// activate can never be legal on an open one.
    #[test]
    fn state_machine_exclusivity(row in 0u32..64, delay in 0u64..200) {
        let mut ch = DramChannel::new(MemGeometry::tiny(), DramTiming::ddr4_3200(), 0);
        prop_assert!(!ch.can_read(0, 0, delay), "read on closed bank");
        prop_assert!(!ch.can_precharge(0, 0, delay), "precharge on closed bank");
        ch.activate(0, 0, row, 0);
        prop_assert!(!ch.can_activate(0, 0, delay), "activate on open bank");
    }

    /// Refresh keeps getting issued no matter what the traffic does, and
    /// each refresh closes every row in the rank.
    #[test]
    fn refresh_always_makes_progress(seed_rows in prop::collection::vec(0u32..64, 1..20)) {
        let timing = DramTiming::ddr4_3200();
        let mut ch = DramChannel::new(MemGeometry::tiny(), timing, 0);
        let mut now = 0;
        let horizon = timing.trefi * 5;
        let mut row_iter = seed_rows.iter().cycle();
        while now < horizon {
            ch.maintain_refresh(now);
            if ch.can_activate(0, 0, now) {
                ch.activate(0, 0, *row_iter.next().expect("cycle"), now);
            } else if ch.can_precharge(0, 0, now) {
                ch.precharge(0, 0, now);
            }
            now += 1;
        }
        // ~5 tREFI elapsed: at least 4 refreshes must have been issued.
        prop_assert!(ch.stats().refreshes >= 4, "refreshes {}", ch.stats().refreshes);
    }

    /// Between commands, each `*_ready_at` is the exact cycle its command
    /// becomes legal: at any probe cycle `t`, `can_activate` / `can_read` /
    /// `can_write` / `can_precharge` equal the bank-state condition (closed
    /// or open) AND `t >= *_ready_at`. The memory controller relies on this
    /// to sleep until a queued command becomes legal. Probes sit at random
    /// offsets and on both sides of every register, where a missing term
    /// shows; a short tREFI makes refreshes land inside the sequences.
    #[test]
    fn ready_at_matches_legality(
        ops in prop::collection::vec(rank_op_strategy(), 1..300),
        probes in prop::collection::vec(0u64..2_000, 4),
    ) {
        let geom = MemGeometry::new(1, 2, 8, 64, 1024).expect("valid geometry");
        let mut timing = DramTiming::ddr4_3200();
        timing.trefi = 2_000;
        let mut ch = DramChannel::new(geom, timing, 0);
        let mut now: MemCycle = 0;
        for (rank, op) in ops {
            ch.maintain_refresh(now);
            apply(&mut ch, rank, op, &mut now);
            let mut at = probes.iter().map(|p| now + p).collect::<Vec<_>>();
            for r in 0..geom.ranks_per_channel() {
                for b in 0..geom.banks_per_rank() {
                    for ready in [
                        ch.activate_ready_at(r, b),
                        ch.column_ready_at(r, b),
                        ch.precharge_ready_at(r, b),
                    ] {
                        at.extend([ready.saturating_sub(1), ready]);
                    }
                }
            }
            for t in at.into_iter().filter(|&t| t >= now) {
                check_ready_at(&ch, &geom, t)?;
            }
            now += 1;
        }
    }
}
