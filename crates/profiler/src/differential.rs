//! Interleaved differential timing of named variants.

use hydra_types::deadline::Stopwatch;
use hydra_types::json::quote;
use std::fmt::Write as _;

/// Schema tag of the profile JSON export. Single-sourced here (enforced by
/// `hydra-analysis`'s `repo_policy` test): every other call site imports
/// this constant.
pub const PROFILE_SCHEMA_VERSION: &str = "hydra-profile-v2";

/// One named replay to time: a closure that runs the same work on every
/// call and returns its deterministic outcome.
pub struct Variant<'a, O> {
    name: &'static str,
    run: Box<dyn FnMut() -> O + 'a>,
}

impl<'a, O> Variant<'a, O> {
    /// A variant called `name` that replays the work with `run`.
    pub fn new(name: &'static str, run: impl FnMut() -> O + 'a) -> Self {
        Variant {
            name,
            run: Box::new(run),
        }
    }
}

/// Minimum and quartiles of a sample set (linear interpolation between
/// order statistics).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// The quartiles of `samples`; all zero for an empty set.
    pub fn of(samples: &[f64]) -> Quartiles {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let pos = p * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Quartiles {
            min: at(0.0),
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    /// The interquartile range, `q3 − q1`.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// One variant's measured cost and its (round-invariant) outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantTiming<O> {
    /// The variant's name.
    pub name: &'static str,
    /// Nanoseconds per unit of work over the timed rounds.
    pub ns_per_unit: Quartiles,
    /// What every round of the variant returned.
    pub outcome: O,
}

/// The median difference between two variants, with its resolution band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Delta {
    /// What the delta prices (e.g. `tracker`).
    pub name: &'static str,
    /// The variant the other is subtracted from.
    pub of: &'static str,
    /// The variant subtracted.
    pub minus: &'static str,
    /// `median(of) − median(minus)`, nanoseconds per unit.
    pub delta_ns: f64,
    /// The larger of the two variants' interquartile ranges.
    pub band_ns: f64,
}

impl Delta {
    /// The delta `of − minus`.
    fn between<O>(name: &'static str, of: &VariantTiming<O>, minus: &VariantTiming<O>) -> Delta {
        Delta {
            name,
            of: of.name,
            minus: minus.name,
            delta_ns: of.ns_per_unit.median - minus.ns_per_unit.median,
            band_ns: of.ns_per_unit.iqr().max(minus.ns_per_unit.iqr()),
        }
    }

    /// True iff the delta is larger than its band, i.e. not explainable
    /// by run-to-run spread.
    pub fn resolved(&self) -> bool {
        self.delta_ns.abs() > self.band_ns
    }
}

/// The result of [`measure`]: every variant's timing, in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffProfile<O> {
    /// Timed rounds (the warm-up round is not counted).
    pub rounds: u32,
    /// Per-variant timings, in the order the variants were given.
    pub variants: Vec<VariantTiming<O>>,
}

/// Times `variants` over `rounds` interleaved rounds (clamped to at least
/// one) after one untimed warm-up round, dividing each replay's wall
/// clock by `units`. Round `r` starts with variant `r mod n` and runs the
/// rest in order, wrapping around.
///
/// # Errors
///
/// Names the variant and round when a variant's outcome differs from
/// what its warm-up run returned.
pub fn measure<O: PartialEq>(
    rounds: u32,
    units: u64,
    mut variants: Vec<Variant<'_, O>>,
) -> Result<DiffProfile<O>, String> {
    let rounds = rounds.max(1);
    let n = variants.len();
    let reference: Vec<O> = variants.iter_mut().map(|v| (v.run)()).collect();
    let mut samples = vec![Vec::with_capacity(rounds as usize); n];
    for round in 0..rounds as usize {
        for slot in 0..n {
            let i = (round + slot) % n;
            let sw = Stopwatch::start();
            let outcome = (variants[i].run)();
            let nanos = sw.elapsed_nanos();
            if outcome != reference[i] {
                return Err(format!(
                    "variant {} diverged from its warm-up run in round {round}",
                    variants[i].name
                ));
            }
            samples[i].push(nanos as f64 / units.max(1) as f64);
        }
    }
    let variants = variants
        .iter()
        .zip(reference)
        .zip(&samples)
        .map(|((v, outcome), s)| VariantTiming {
            name: v.name,
            ns_per_unit: Quartiles::of(s),
            outcome,
        })
        .collect();
    Ok(DiffProfile { rounds, variants })
}

impl<O> DiffProfile<O> {
    /// The timing of the variant called `name`.
    pub fn variant(&self, name: &str) -> Option<&VariantTiming<O>> {
        self.variants.iter().find(|v| v.name == name)
    }

    /// The delta `of − minus` between two named variants.
    pub fn delta(&self, name: &'static str, of: &str, minus: &str) -> Option<Delta> {
        Some(Delta::between(
            name,
            self.variant(of)?,
            self.variant(minus)?,
        ))
    }

    /// The human table: one line per variant, then one per delta.
    pub fn render_table(&self, deltas: &[Delta]) -> String {
        let mut out = format!(
            "{:<10} {:>9} {:>9} {:>9} {:>9}   (ns/act, {} rounds)\n",
            "variant", "min", "q1", "median", "q3", self.rounds
        );
        for v in &self.variants {
            let q = v.ns_per_unit;
            let _ = writeln!(
                out,
                "{:<10} {:>9.1} {:>9.1} {:>9.1} {:>9.1}",
                v.name, q.min, q.q1, q.median, q.q3
            );
        }
        for d in deltas {
            let verdict = if d.resolved() {
                "resolved"
            } else {
                "below resolution"
            };
            let _ = writeln!(
                out,
                "delta {:<8} = {:<7} - {:<7} {:>+8.1} ns/act  (band {:.1})  {verdict}",
                d.name, d.of, d.minus, d.delta_ns, d.band_ns
            );
        }
        out
    }

    /// The schema-versioned JSON document ([`PROFILE_SCHEMA_VERSION`]).
    /// `meta` must be empty or a comma-terminated list of JSON members
    /// (`"workload":"mix","acts":100,`); `outcome_json` renders one
    /// variant's outcome as a JSON value.
    pub fn to_json(
        &self,
        meta: &str,
        deltas: &[Delta],
        outcome_json: impl Fn(&O) -> String,
    ) -> String {
        let mut out = format!(
            "{{\"schema\":{},{meta}\"rounds\":{},\"variants\":[",
            quote(PROFILE_SCHEMA_VERSION),
            self.rounds
        );
        for (i, v) in self.variants.iter().enumerate() {
            let q = v.ns_per_unit;
            let _ = write!(
                out,
                "{}{{\"name\":{},\"min_ns\":{:.3},\"q1_ns\":{:.3},\"median_ns\":{:.3},\
                 \"q3_ns\":{:.3},\"outcome\":{}}}",
                if i > 0 { "," } else { "" },
                quote(v.name),
                q.min,
                q.q1,
                q.median,
                q.q3,
                outcome_json(&v.outcome)
            );
        }
        out.push_str("],\"deltas\":[");
        for (i, d) in deltas.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"name\":{},\"of\":{},\"minus\":{},\"delta_ns\":{:.3},\"band_ns\":{:.3},\
                 \"resolved\":{}}}",
                if i > 0 { "," } else { "" },
                quote(d.name),
                quote(d.of),
                quote(d.minus),
                d.delta_ns,
                d.band_ns,
                d.resolved()
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::time::Duration;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let q = Quartiles::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.min, q.q1, q.median, q.q3), (1.0, 2.0, 3.0, 4.0));
        assert_eq!(q.iqr(), 2.0);
        let q = Quartiles::of(&[4.0, 3.0, 2.0, 1.0]);
        assert_eq!((q.min, q.q1, q.median, q.q3), (1.0, 1.75, 2.5, 3.25));
        let q = Quartiles::of(&[7.0]);
        assert_eq!((q.min, q.q1, q.median, q.q3), (7.0, 7.0, 7.0, 7.0));
        assert_eq!(Quartiles::of(&[]).median, 0.0);
    }

    #[test]
    fn rounds_run_every_variant_once_and_rotate_the_first_slot() {
        let log = RefCell::new(Vec::new());
        let variant = |name: &'static str| {
            let log = &log;
            Variant::new(name, move || log.borrow_mut().push(name))
        };
        let profile = measure(3, 1, vec![variant("a"), variant("b"), variant("c")]).unwrap();
        assert_eq!(profile.rounds, 3);
        let log = log.into_inner();
        let rounds: Vec<&[&str]> = log.chunks(3).collect();
        assert_eq!(
            rounds,
            [
                ["a", "b", "c"], // warm-up
                ["a", "b", "c"],
                ["b", "c", "a"],
                ["c", "a", "b"],
            ]
        );
    }

    #[test]
    fn the_warm_up_round_is_not_counted() {
        let mut calls = 0u32;
        let slow_first = Variant::new("slow_first", move || {
            calls += 1;
            if calls == 1 {
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let profile = measure(3, 1, vec![slow_first]).unwrap();
        let q = profile.variants[0].ns_per_unit;
        assert!(q.q3 < 25e6, "warm-up leaked into the samples: {q:?}");
    }

    #[test]
    fn a_variant_that_diverges_across_rounds_is_an_error() {
        let mut calls = 0u32;
        let counting = Variant::new("counting", move || {
            calls += 1;
            calls
        });
        let err = measure(2, 1, vec![counting]).unwrap_err();
        assert!(err.contains("counting"), "{err}");
    }

    #[test]
    fn repeats_are_clamped_to_at_least_one() {
        let mut calls = 0u32;
        let profile = measure(0, 0, vec![Variant::new("v", || calls += 1)]).unwrap();
        assert_eq!(profile.rounds, 1);
        assert_eq!(calls, 2, "one warm-up plus one timed round");
    }

    fn timing(name: &'static str, q1: f64, median: f64, q3: f64) -> VariantTiming<()> {
        VariantTiming {
            name,
            ns_per_unit: Quartiles {
                min: q1,
                q1,
                median,
                q3,
            },
            outcome: (),
        }
    }

    #[test]
    fn a_delta_resolves_only_outside_the_larger_iqr() {
        let base = timing("base", 9.0, 10.0, 11.0); // IQR 2
        let wide = timing("wide", 10.0, 12.5, 14.0); // IQR 4
        let inside = timing("inside", 11.5, 11.99, 12.5); // IQR 1
        let outside = timing("outside", 11.5, 12.01, 12.5); // IQR 1
        let d = Delta::between("d", &inside, &base);
        assert_eq!(d.band_ns, 2.0);
        assert!(!d.resolved(), "{d:?}");
        assert!(Delta::between("d", &outside, &base).resolved());
        // Sign does not matter, and the wider band wins.
        assert!(Delta::between("d", &base, &outside).resolved());
        let d = Delta::between("d", &wide, &base);
        assert_eq!(d.band_ns, 4.0);
        assert!(!d.resolved());
    }

    #[test]
    fn the_json_document_carries_every_variant_and_delta() {
        let profile = DiffProfile {
            rounds: 2,
            variants: vec![timing("full", 1.0, 2.0, 3.0), timing("null", 0.5, 0.5, 0.5)],
        };
        let delta = profile.delta("tracker", "full", "null").unwrap();
        assert_eq!(delta.delta_ns, 1.5);
        assert!(profile.delta("x", "full", "missing").is_none());
        let text = profile.to_json("\"acts\":10,", &[delta], |_| "{}".to_string());
        let doc = hydra_types::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("schema").unwrap().as_str(),
            Some(PROFILE_SCHEMA_VERSION)
        );
        assert_eq!(doc.get("acts").unwrap().as_u64(), Some(10));
        assert_eq!(doc.get("variants").unwrap().as_array().unwrap().len(), 2);
        let d = &doc.get("deltas").unwrap().as_array().unwrap()[0];
        assert_eq!(d.get("resolved").unwrap().as_bool(), Some(false));
        assert_eq!(d.get("band_ns").unwrap().as_f64(), Some(2.0));
        assert!(profile.render_table(&[delta]).contains("below resolution"));
    }
}
