//! The synthesizer front-end: profiles in, condensed hints bundle out.

use crate::generation::{GenerationConfig, HintGenerator, MIN_BUDGET_STEP_MS};
use crate::hints::{HintsBundle, HintsTable};
use janus_profiler::percentiles::PercentileGrid;
use janus_profiler::profile::WorkflowProfile;
use janus_simcore::time::SimDuration;
use std::time::Instant;

/// Which leading functions of every sub-workflow may explore percentiles
/// below the tail — the three late-binding variants of §V-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExplorationDepth {
    /// `Janus⁻`: no exploration, every function is planned at the tail
    /// percentile (P99).
    None,
    /// `Janus`: only the head function explores lower percentiles.
    HeadOnly,
    /// `Janus⁺`: the head and the next-to-head function explore.
    HeadAndNext,
}

impl ExplorationDepth {
    /// The number of leading functions that explore.
    pub(crate) fn depth(self) -> usize {
        match self {
            ExplorationDepth::None => 0,
            ExplorationDepth::HeadOnly => 1,
            ExplorationDepth::HeadAndNext => 2,
        }
    }

    /// Display name matching the paper's system names.
    pub fn variant_name(self) -> &'static str {
        match self {
            ExplorationDepth::None => "Janus-",
            ExplorationDepth::HeadOnly => "Janus",
            ExplorationDepth::HeadAndNext => "Janus+",
        }
    }
}

/// Synthesizer configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesizerConfig {
    /// Head-function weight `W` (Insight 4). The paper uses 1.0 by default
    /// and studies 1–3 in §V-E.
    pub weight: f64,
    /// Percentile exploration variant.
    pub exploration: ExplorationDepth,
    /// Candidate percentiles.
    pub percentiles: PercentileGrid,
    /// Budget sweep granularity in ms (1 ms in the paper).
    pub budget_step_ms: f64,
    /// Optional explicit budget range (ms) for the *full-workflow* table,
    /// mirroring §V-F where the range is configured per testbed (e.g. IA:
    /// 2–7 s). Sub-workflow tables always use their natural `[Tmin, Tmax]`.
    pub full_range_ms: Option<(f64, f64)>,
}

impl Default for SynthesizerConfig {
    fn default() -> Self {
        SynthesizerConfig {
            weight: 1.0,
            exploration: ExplorationDepth::HeadOnly,
            percentiles: PercentileGrid::paper_default(),
            budget_step_ms: 1.0,
            full_range_ms: None,
        }
    }
}

impl SynthesizerConfig {
    /// Validate parameters.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.weight.is_finite() && self.weight >= 1.0) {
            return Err(format!("weight must be >= 1.0, got {}", self.weight));
        }
        if !(self.budget_step_ms.is_finite() && self.budget_step_ms >= MIN_BUDGET_STEP_MS) {
            return Err(format!(
                "budget_step_ms must be >= {MIN_BUDGET_STEP_MS}, got {}",
                self.budget_step_ms
            ));
        }
        if let Some((lo, hi)) = self.full_range_ms {
            if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && hi > lo) {
                return Err(format!("invalid full budget range ({lo}, {hi})"));
            }
        }
        Ok(())
    }

    fn generation_config(&self) -> GenerationConfig {
        GenerationConfig {
            weight: self.weight,
            percentiles: self.percentiles.clone(),
            exploration_depth: self.exploration.depth(),
            budget_step_ms: self.budget_step_ms,
        }
    }
}

/// Statistics of one synthesis run (drives Figures 6b and 8 and §V-H).
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisReport {
    /// Workflow name.
    pub workflow: String,
    /// Concurrency the profiles were collected at.
    pub concurrency: u32,
    /// Head weight used.
    pub weight: f64,
    /// Variant used.
    pub variant: String,
    /// Wall-clock time spent generating and condensing, in milliseconds.
    pub synthesis_time_ms: f64,
    /// Raw hints generated before condensing.
    pub raw_hints: usize,
    /// Condensed hints across all tables.
    pub condensed_hints: usize,
    /// Overall compression ratio.
    pub compression_ratio: f64,
}

/// The developer-side synthesizer: turns a [`WorkflowProfile`] into a
/// [`HintsBundle`] plus a [`SynthesisReport`].
#[derive(Debug, Clone)]
pub struct Synthesizer {
    config: SynthesizerConfig,
}

impl Synthesizer {
    /// Create a synthesizer, validating its configuration.
    pub fn new(config: SynthesizerConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Synthesizer { config })
    }

    /// Synthesize the hints bundle for a workflow profile: one condensed
    /// table per sub-workflow suffix (the table consulted after `i` functions
    /// finished), generated with Algorithm 1 and condensed with Algorithm 2.
    pub fn synthesize(&self, profile: &WorkflowProfile) -> (HintsBundle, SynthesisReport) {
        // janus-lint: allow(nondeterminism) — times hint synthesis itself (Figure 6b); the bundle is a pure function of the profile
        let started = Instant::now();
        let gen_config = self.config.generation_config();
        let tail = self.config.percentiles.tail();

        let mut tables: Vec<HintsTable> = Vec::with_capacity(profile.len());
        let mut raw_total = 0usize;
        let suffixes = (0..).map_while(|start| Some((start, profile.suffix(start)?)));
        for (start, suffix) in suffixes {
            // Each DP stops where its table's sweep stops: the configured
            // range for the full workflow, else the suffix's own
            // `max_budget(tail)`. A DP entry reads only entries at budgets
            // no larger than its own, so budgets above that are never read.
            let (horizon, range) = match (start, self.config.full_range_ms) {
                (0, Some((lo, hi))) => {
                    let (lo, hi) = (SimDuration::from_millis(lo), SimDuration::from_millis(hi));
                    (hi, Some((lo, hi)))
                }
                _ => (suffix.max_budget(tail), None),
            };
            // `Synthesizer::new` validated the configuration this derives from.
            let generator = HintGenerator::with_valid_config(&suffix, &gen_config, horizon);
            let (table, raw) = generator.build_table(start, range);
            raw_total += raw;
            tables.push(table);
        }

        let bundle = HintsBundle {
            workflow: profile.workflow().to_string(),
            concurrency: profile.concurrency(),
            weight: self.config.weight,
            tables,
        };
        let report = SynthesisReport {
            workflow: profile.workflow().to_string(),
            concurrency: profile.concurrency(),
            weight: self.config.weight,
            variant: self.config.exploration.variant_name().to_string(),
            synthesis_time_ms: started.elapsed().as_secs_f64() * 1000.0,
            raw_hints: raw_total,
            condensed_hints: bundle.total_hints(),
            compression_ratio: if raw_total == 0 {
                0.0
            } else {
                1.0 - bundle.total_hints() as f64 / raw_total as f64
            },
        };
        (bundle, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::LookupOutcome;
    use janus_profiler::percentiles::Percentile;
    use janus_profiler::profiler::{Profiler, ProfilerConfig};
    use janus_simcore::resources::Millicores;
    use janus_workloads::apps::intelligent_assistant;

    fn ia_profile() -> WorkflowProfile {
        let profiler = Profiler::new(ProfilerConfig {
            samples_per_point: 300,
            ..ProfilerConfig::default()
        })
        .unwrap();
        profiler.profile_workflow(&intelligent_assistant(), 1)
    }

    fn quick_config(exploration: ExplorationDepth) -> SynthesizerConfig {
        SynthesizerConfig {
            exploration,
            // A 10 ms sweep keeps unit tests fast; the benches use 1 ms.
            budget_step_ms: 10.0,
            ..SynthesizerConfig::default()
        }
    }

    #[test]
    fn config_validation() {
        assert!(Synthesizer::new(SynthesizerConfig {
            weight: 0.5,
            ..SynthesizerConfig::default()
        })
        .is_err());
        assert!(Synthesizer::new(SynthesizerConfig {
            budget_step_ms: 0.0,
            ..SynthesizerConfig::default()
        })
        .is_err());
        assert!(Synthesizer::new(SynthesizerConfig {
            full_range_ms: Some((5000.0, 1000.0)),
            ..SynthesizerConfig::default()
        })
        .is_err());
        assert_eq!(ExplorationDepth::None.variant_name(), "Janus-");
        assert_eq!(ExplorationDepth::HeadOnly.variant_name(), "Janus");
        assert_eq!(ExplorationDepth::HeadAndNext.variant_name(), "Janus+");
        assert_eq!(ExplorationDepth::None.depth(), 0);
    }

    #[test]
    fn bundle_has_one_table_per_suffix_and_all_hit_in_range() {
        let profile = ia_profile();
        let synthesizer = Synthesizer::new(quick_config(ExplorationDepth::HeadOnly)).unwrap();
        let (bundle, report) = synthesizer.synthesize(&profile);
        assert_eq!(bundle.tables.len(), 3);
        assert_eq!(report.condensed_hints, bundle.total_hints());
        assert!(report.raw_hints > bundle.total_hints());
        assert!(
            report.compression_ratio > 0.5,
            "compression {}",
            report.compression_ratio
        );
        // A 3 s budget must be a hit for the full workflow at concurrency 1.
        let full = bundle.table_after(0).unwrap();
        assert!(full.lookup(SimDuration::from_secs(3.0)).is_hit());
        // The sub-workflow table after OD finishes covers ~2.x s budgets.
        let after_od = bundle.table_after(1).unwrap();
        assert!(after_od.lookup(SimDuration::from_secs(2.0)).is_hit());
    }

    /// Each sub-workflow's DP stops at the suffix's own maximum budget, yet
    /// every table equals the one a generator over the full workflow's
    /// horizon builds for that suffix.
    #[test]
    fn suffix_tables_match_generators_on_the_full_horizon() {
        let profile = ia_profile();
        let horizon = profile.max_budget(Percentile::P99);
        for exploration in [
            ExplorationDepth::None,
            ExplorationDepth::HeadOnly,
            ExplorationDepth::HeadAndNext,
        ] {
            for weight in [1.0, 2.0] {
                let config = SynthesizerConfig {
                    weight,
                    exploration,
                    ..SynthesizerConfig::default()
                };
                let (bundle, report) = Synthesizer::new(config.clone())
                    .unwrap()
                    .synthesize(&profile);
                let gen_config = config.generation_config();
                let mut raw_hints = 0;
                assert_eq!(bundle.tables.len(), profile.len());
                for (start, table) in bundle.tables.iter().enumerate() {
                    let suffix = profile.suffix(start).unwrap();
                    let generator = HintGenerator::new(&suffix, &gen_config, horizon).unwrap();
                    let (want, raw) = generator.build_table(start, None);
                    assert_eq!(
                        table,
                        &want,
                        "{} W={weight}: table after {start}",
                        exploration.variant_name()
                    );
                    raw_hints += raw;
                }
                assert_eq!(report.raw_hints, raw_hints);
            }
        }
    }

    #[test]
    fn hint_sizes_decrease_with_larger_budgets() {
        let profile = ia_profile();
        let synthesizer = Synthesizer::new(quick_config(ExplorationDepth::HeadOnly)).unwrap();
        let (bundle, _) = synthesizer.synthesize(&profile);
        let table = bundle.table_after(0).unwrap();
        let tight = table.lookup(SimDuration::from_millis(2850.0));
        let loose = table.lookup(SimDuration::from_millis(6000.0));
        let cores = |o: LookupOutcome| match o {
            LookupOutcome::Hit { head_cores } | LookupOutcome::AboveRange { head_cores } => {
                head_cores
            }
            LookupOutcome::Miss => Millicores::ZERO,
        };
        assert!(
            cores(tight) >= cores(loose),
            "tighter budgets need more cores"
        );
        assert_eq!(
            cores(loose),
            Millicores::new(1000),
            "loose budgets settle at Kmin"
        );
    }

    #[test]
    fn janus_minus_never_explores_below_the_tail() {
        let profile = ia_profile();
        let synthesizer = Synthesizer::new(quick_config(ExplorationDepth::None)).unwrap();
        let (bundle, _) = synthesizer.synthesize(&profile);
        for table in &bundle.tables {
            for row in table.rows() {
                assert_eq!(row.head_percentile, Percentile::P99);
            }
        }
    }

    #[test]
    fn janus_explores_lower_percentiles_for_heads() {
        let profile = ia_profile();
        let synthesizer = Synthesizer::new(quick_config(ExplorationDepth::HeadOnly)).unwrap();
        let (bundle, _) = synthesizer.synthesize(&profile);
        let explored = bundle
            .tables
            .iter()
            .flat_map(|t| t.rows())
            .any(|r| r.head_percentile.value() < 99.0);
        assert!(
            explored,
            "Janus should pick sub-P99 percentiles for some budgets"
        );
    }

    #[test]
    fn janus_is_no_worse_than_janus_minus_on_expected_cores() {
        let profile = ia_profile();
        let budget = SimDuration::from_secs(3.0);
        let cores_for = |exploration| {
            let cfg = quick_config(exploration);
            let gen_cfg = GenerationConfig {
                weight: cfg.weight,
                percentiles: cfg.percentiles.clone(),
                exploration_depth: match exploration {
                    ExplorationDepth::None => 0,
                    ExplorationDepth::HeadOnly => 1,
                    ExplorationDepth::HeadAndNext => 2,
                },
                budget_step_ms: cfg.budget_step_ms,
            };
            let generator =
                HintGenerator::new(&profile, &gen_cfg, SimDuration::from_secs(8.0)).unwrap();
            generator
                .generate(budget)
                .expect("3s budget feasible")
                .expected_cost
        };
        let janus = cores_for(ExplorationDepth::HeadOnly);
        let janus_minus = cores_for(ExplorationDepth::None);
        let janus_plus = cores_for(ExplorationDepth::HeadAndNext);
        assert!(
            janus <= janus_minus + 1e-9,
            "Janus {janus} vs Janus- {janus_minus}"
        );
        assert!(
            janus_plus <= janus + 1e-9,
            "Janus+ {janus_plus} vs Janus {janus}"
        );
    }

    #[test]
    fn higher_weight_shrinks_or_keeps_head_allocation() {
        // Table II: higher weights decrease the head allocation and percentile.
        let profile = ia_profile();
        let at_weight = |weight| {
            let config = SynthesizerConfig {
                weight,
                ..SynthesizerConfig::default()
            };
            Synthesizer::new(config).map(|s| s.synthesize(&profile).0)
        };
        assert!(at_weight(0.5).is_err());
        let head_at = |bundle: &HintsBundle, budget_ms: f64| match bundle
            .table_after(0)
            .unwrap()
            .lookup(SimDuration::from_millis(budget_ms))
        {
            LookupOutcome::Hit { head_cores } | LookupOutcome::AboveRange { head_cores } => {
                head_cores
            }
            LookupOutcome::Miss => Millicores::new(u32::MAX),
        };
        // Average over a few budgets in the interesting region.
        let budgets = [2800.0, 3000.0, 3200.0, 3600.0, 4000.0];
        let avg = |bundle: &HintsBundle| {
            budgets
                .iter()
                .map(|&b| f64::from(head_at(bundle, b).get()))
                .sum::<f64>()
                / budgets.len() as f64
        };
        let w1 = avg(&at_weight(1.0).unwrap());
        let w3 = avg(&at_weight(3.0).unwrap());
        assert!(w3 <= w1 + 1e-9, "weight 3 head avg {w3} vs weight 1 {w1}");
    }

    use crate::generation::GenerationConfig;
}
