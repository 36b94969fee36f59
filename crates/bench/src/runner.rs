//! The scaled experiment configuration, the tracker factories, and the
//! single-cell runner the figure plan ([`crate::plan`]) runs every cell
//! through.

use hydra_baselines::{Cra, CraConfig, Graphene, GrapheneConfig, Ocpr, Para};
use hydra_core::{Hydra, HydraConfig};
use hydra_sim::{SimResult, SystemConfig, SystemSim};
use hydra_types::error::ConfigError;
use hydra_types::geometry::MemGeometry;
use hydra_types::mitigation::MitigationPolicy;
use hydra_types::tracker::{ActivationTracker, NullTracker};
use hydra_workloads::WorkloadSpec;

/// The time-compression configuration for an experiment run (see the crate
/// docs for the scaling argument).
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Time-compression factor `S`.
    pub scale: u64,
    /// Instructions each of the 8 cores retires per run.
    pub instructions_per_core: u64,
    /// RNG seed base.
    pub seed: u64,
}

impl ExperimentScale {
    /// Tracking windows every figure run completes at least.
    pub const WINDOWS: u64 = 3;

    /// Reads the time-compression factor from `HYDRA_SCALE` (see
    /// [`parse_scale`](Self::parse_scale)) and derives the instruction
    /// budget from it ([`ExperimentScale::at`]).
    ///
    /// # Errors
    ///
    /// Returns the message naming a set value that is not a positive
    /// integer.
    pub fn from_env() -> Result<Self, String> {
        let value = std::env::var_os("HYDRA_SCALE");
        let scale = Self::parse_scale(value.as_ref().map(|v| v.to_string_lossy()).as_deref())?;
        Ok(ExperimentScale::at(scale))
    }

    /// The time-compression factor `HYDRA_SCALE` names: 256 when unset.
    ///
    /// # Errors
    ///
    /// Returns a message naming the value when it is set but not a positive
    /// integer, so a typo such as `4k` fails at once instead of running at
    /// the default scale.
    pub fn parse_scale(value: Option<&str>) -> Result<u64, String> {
        let Some(v) = value else { return Ok(256) };
        let scale = v.parse().ok().filter(|&scale| scale > 0);
        scale.ok_or_else(|| format!("HYDRA_SCALE={v:?} is not a positive integer"))
    }

    /// The experiment at compression factor `scale`. Each core's budget is
    /// [`WINDOWS`](Self::WINDOWS) scaled tracking windows at its peak
    /// retire rate (`fetch_width × cpu_per_mem_cycle` per memory cycle), so
    /// no core can finish before that many windows have passed: 9.6 M
    /// instructions at S = 256.
    pub fn at(scale: u64) -> Self {
        let config = SystemConfig::scaled(scale);
        let peak_per_cycle = u64::from(config.fetch_width * config.cpu_per_mem_cycle);
        ExperimentScale {
            scale,
            instructions_per_core: Self::WINDOWS * config.timing.refresh_window * peak_per_cycle,
            seed: 0x5EED,
        }
    }

    /// The scaled system configuration (paper geometry, window / S).
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            instructions_per_core: self.instructions_per_core,
            ..SystemConfig::scaled(self.scale)
        }
    }

    /// The divisor applied to tracker structure sizes.
    ///
    /// Structures shrink less than the window does (S/16 instead of S):
    /// the paper's workloads utilize only a few percent of the DRAM
    /// activation budget per window (Table 3: ≤2 M ACTs against a 21.8 M
    /// per-channel budget), while our scaled runs drive the memory system
    /// much closer to saturation. Dividing structures by S/16 restores the
    /// paper's ratio of activations-per-window to GCT/RCC capacity — the
    /// quantity that determines filter rates (Fig. 6) and Hydra's overhead.
    pub fn structure_divisor(&self) -> u64 {
        (self.scale / 16).max(1)
    }

    /// Scaled structure size: `total / structure_divisor()`, floored at
    /// `min`, rounded to a power of two.
    pub fn scaled_entries(&self, total: usize, min: usize) -> usize {
        ((total as u64 / self.structure_divisor()).max(min as u64) as usize).next_power_of_two()
    }
}

/// Which tracker a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerKind {
    /// No mitigation: the non-secure baseline every figure normalizes to.
    Baseline,
    /// Hydra with a custom (T_H, T_G, GCT entries, RCC entries) — entries
    /// are *totals* (split across channels) at paper scale, scaled by S.
    /// [`TrackerKind::HYDRA`] is the paper's default design point.
    HydraCustom {
        /// Mitigation threshold.
        t_h: u32,
        /// GCT threshold.
        t_g: u32,
        /// Total GCT entries at paper scale.
        gct_total: usize,
        /// Total RCC entries at paper scale.
        rcc_total: usize,
        /// Disable the GCT (Fig. 8 ablation).
        use_gct: bool,
        /// Disable the RCC (Fig. 8 ablation).
        use_rcc: bool,
    },
    /// Graphene sized for T_RH = 500 (scaled ACT_max).
    Graphene,
    /// CRA with the given total metadata-cache bytes at paper scale.
    Cra {
        /// Total metadata cache size at paper scale (64 KB default).
        cache_bytes: usize,
    },
    /// PARA with p sized for T_RH = 500.
    Para,
    /// The exact one-counter-per-row oracle.
    Ocpr,
}

impl TrackerKind {
    /// Hydra at the paper's default design point: T_H = 250, T_G = 200, a
    /// 32K-entry GCT and an 8K-entry RCC (totals at paper scale).
    pub const HYDRA: TrackerKind = TrackerKind::HydraCustom {
        t_h: 250,
        t_g: 200,
        gct_total: 32_768,
        rcc_total: 8_192,
        use_gct: true,
        use_rcc: true,
    };

    /// Human-readable label for reports.
    pub fn label(&self) -> String {
        match self {
            TrackerKind::Baseline => "baseline".into(),
            TrackerKind::HydraCustom {
                t_h,
                t_g,
                gct_total,
                use_gct,
                use_rcc,
                ..
            } => {
                if !use_gct {
                    "hydra-nogct".into()
                } else if !use_rcc {
                    "hydra-norcc".into()
                } else {
                    format!("hydra(th={t_h},tg={t_g},gct={gct_total})")
                }
            }
            TrackerKind::Graphene => "graphene".into(),
            TrackerKind::Cra { cache_bytes } => format!("cra-{}KB", cache_bytes / 1024),
            TrackerKind::Para => "para".into(),
            TrackerKind::Ocpr => "ocpr".into(),
        }
    }

    /// Builds the tracker for one channel under the given scale.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the scaled configuration is invalid for
    /// the geometry (e.g. structures that cannot shrink far enough).
    pub fn build(
        &self,
        geometry: MemGeometry,
        channel: u8,
        scale: &ExperimentScale,
    ) -> Result<Box<dyn ActivationTracker>, ConfigError> {
        let channels = usize::from(geometry.channels());
        Ok(match *self {
            TrackerKind::Baseline => Box::new(NullTracker),
            TrackerKind::HydraCustom {
                t_h,
                t_g,
                gct_total,
                rcc_total,
                use_gct,
                use_rcc,
            } => Box::new(scaled_hydra(
                geometry, channel, scale, t_h, t_g, gct_total, rcc_total, use_gct, use_rcc,
            )?),
            TrackerKind::Graphene => {
                // ACT_max shrinks with the window.
                let act_max = 1_360_000 / scale.scale.max(1);
                let config =
                    GrapheneConfig::for_threshold(geometry, channel, 500, act_max.max(1000))?;
                Box::new(Graphene::new(config))
            }
            TrackerKind::Cra { cache_bytes } => {
                let scaled =
                    (cache_bytes as u64 / scale.structure_divisor()).max(512) as usize * channels;
                let config = CraConfig::for_threshold(geometry, channel, 500, scaled)?;
                Box::new(Cra::new(config)?)
            }
            TrackerKind::Para => Box::new(Para::for_threshold(
                500,
                1e-6,
                scale.seed ^ u64::from(channel),
            )?),
            TrackerKind::Ocpr => Box::new(Ocpr::new(geometry, channel, 250)?),
        })
    }
}

/// Builds a concrete scaled Hydra instance (entry totals given at paper
/// scale; divided by `S` and floored). Used by bench targets that need
/// Hydra-specific statistics (Figs. 6, 9, 10).
///
/// # Errors
///
/// Returns [`ConfigError`] if the scaled entry counts are invalid for the
/// geometry.
#[allow(clippy::too_many_arguments)]
pub fn scaled_hydra(
    geometry: MemGeometry,
    channel: u8,
    scale: &ExperimentScale,
    t_h: u32,
    t_g: u32,
    gct_total: usize,
    rcc_total: usize,
    use_gct: bool,
    use_rcc: bool,
) -> Result<Hydra, ConfigError> {
    let channels = usize::from(geometry.channels());
    let gct = scale.scaled_entries(gct_total / channels, 16);
    let rcc = scale.scaled_entries(rcc_total / channels, 8);
    let mut builder = HydraConfig::builder(geometry, channel);
    builder
        .thresholds(t_h, t_g)
        .gct_entries(gct)
        .rcc_entries(rcc)
        .rcc_ways(rcc.min(16));
    if !use_gct {
        builder.without_gct();
    }
    if !use_rcc {
        builder.without_rcc();
    }
    Hydra::new(builder.build()?)
}

/// One column of a figure: a tracker under a mitigation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variant {
    /// The per-channel tracker.
    pub tracker: TrackerKind,
    /// What the controller does when the tracker asks for a mitigation.
    pub policy: MitigationPolicy,
}

impl From<TrackerKind> for Variant {
    /// The tracker under the default victim-refresh policy.
    fn from(tracker: TrackerKind) -> Self {
        Variant {
            tracker,
            policy: MitigationPolicy::default(),
        }
    }
}

/// One workload's runs: the untracked baseline and one result per variant,
/// in the order the variants were given.
#[derive(Debug, Clone)]
pub struct WorkloadRuns {
    /// The workload.
    pub spec: &'static WorkloadSpec,
    /// The untracked baseline under the default policy.
    pub baseline: SimResult,
    /// One result per variant.
    pub variants: Vec<SimResult>,
}

impl WorkloadRuns {
    /// Each variant's performance normalized to the baseline (the y-axis of
    /// Figs. 2, 5 and 8).
    pub fn normalized(&self) -> Vec<f64> {
        self.variants
            .iter()
            .map(|r| r.normalized_to(&self.baseline))
            .collect()
    }

    /// Each variant's slowdown over the baseline, in percent.
    pub fn slowdown_pct(&self) -> Vec<f64> {
        self.variants
            .iter()
            .map(|r| r.slowdown_pct(&self.baseline))
            .collect()
    }

    /// Each variant's `1 + slowdown/100`: the ratio whose geomean Figs. 7, 9
    /// and 10 and the mitigation-policy extensions report.
    pub fn slowdown_ratios(&self) -> Vec<f64> {
        self.slowdown_pct()
            .into_iter()
            .map(|pct| 1.0 + pct / 100.0)
            .collect()
    }
}

/// Runs one workload under one variant at the given scale: one cell of the
/// figure plan.
pub(crate) fn simulate(
    spec: &WorkloadSpec,
    variant: Variant,
    scale: &ExperimentScale,
) -> Result<SimResult, ConfigError> {
    let mut config = scale.system_config();
    config.mitigation = variant.policy;
    let geometry = config.geometry;
    // Build (and thereby validate) all per-channel trackers up front, so
    // the infallible with_trackers closure only hands them out.
    let mut trackers: Vec<Option<Box<dyn ActivationTracker>>> = (0..geometry.channels())
        .map(|ch| variant.tracker.build(geometry, ch, scale).map(Some))
        .collect::<Result<_, _>>()?;
    let mut sim = SystemSim::new(config, |core| {
        spec.build(
            geometry,
            scale.scale,
            scale.seed ^ (core as u64).wrapping_mul(0x9E37),
        )
    })
    .with_trackers(|ch| {
        trackers
            .get_mut(usize::from(ch))
            .and_then(Option::take)
            .unwrap_or_else(|| Box::new(NullTracker))
    });
    Ok(sim.run())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_scale() -> ExperimentScale {
        ExperimentScale {
            scale: 1024,
            instructions_per_core: 5_000,
            seed: 7,
        }
    }

    #[test]
    fn tracker_labels_are_distinct() {
        let labels = [
            TrackerKind::Baseline.label(),
            TrackerKind::HYDRA.label(),
            TrackerKind::Graphene.label(),
            TrackerKind::Cra { cache_bytes: 65536 }.label(),
            TrackerKind::Para.label(),
            TrackerKind::Ocpr.label(),
        ];
        assert_eq!(labels[1], "hydra(th=250,tg=200,gct=32768)");
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn scaled_entries_floor_and_pow2() {
        let s = quick_scale(); // scale 1024 -> structure divisor 64
        assert_eq!(s.structure_divisor(), 64);
        assert_eq!(s.scaled_entries(32_768, 16), 512);
        assert_eq!(s.scaled_entries(100, 16), 16);
    }

    #[test]
    fn scale_parse_defaults_when_unset_and_names_a_bad_value() {
        assert_eq!(ExperimentScale::parse_scale(None), Ok(256));
        assert_eq!(ExperimentScale::parse_scale(Some("4096")), Ok(4096));
        for bad in ["4k", "0", "-1", "", " 256"] {
            let err = ExperimentScale::parse_scale(Some(bad)).expect_err(bad);
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn all_tracker_kinds_build() {
        let geom = MemGeometry::isca22_baseline();
        let s = quick_scale();
        for kind in [
            TrackerKind::Baseline,
            TrackerKind::HYDRA,
            TrackerKind::Graphene,
            TrackerKind::Cra { cache_bytes: 65536 },
            TrackerKind::Para,
            TrackerKind::Ocpr,
            TrackerKind::HydraCustom {
                t_h: 125,
                t_g: 100,
                gct_total: 65_536,
                rcc_total: 16_384,
                use_gct: true,
                use_rcc: false,
            },
        ] {
            let t = kind.build(geom, 0, &s).expect("tracker builds");
            assert!(!t.name().is_empty());
        }
    }
}
