//! The open scenario registry: arrival processes addressable by name.
//!
//! The generic [`Registry`] on the workload axis: a scenario is anything
//! that can build an [`ArrivalProcess`] from a [`ScenarioContext`] (the base
//! arrival rate, the request count and the session seed), registered under
//! a display name. The five built-ins cover
//! the load shapes of the paper's motivation section; downstream code
//! registers custom processes with [`ScenarioRegistry::register`] (or the
//! closure shorthand [`ScenarioRegistry::register_fn`]) and serves them by
//! name from sessions and CLI flags.
//!
//! Every built-in is normalized to the context's base rate: across
//! scenarios the long-run mean offered load is identical, only its shape
//! (constant, sinusoidal, on/off bursts, one spike, replayed trace) differs.

use crate::arrival::{
    ArrivalProcess, BurstyArrivals, DiurnalArrivals, FlashCrowd, PoissonArrivals, TraceReplay,
};
use janus_simcore::registry::{Entry, Factory, NamedFn, Registry};
use janus_simcore::time::SimDuration;
use janus_trace::{Trace, TraceConfig};
use std::sync::Arc;

/// Everything a factory may consult when instantiating an arrival process
/// for one serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioContext {
    /// Long-run mean arrival rate the scenario should offer (requests per
    /// second) — `Load::Open`'s `rps`.
    pub base_rps: f64,
    /// Number of requests the run will generate; built-ins use it to place
    /// rate features (spike windows, diurnal periods) inside the run span.
    pub requests: usize,
    /// Session seed, for scenarios that synthesize inputs (trace replay).
    pub seed: u64,
}

impl ScenarioContext {
    /// Expected span of the run at the base rate.
    fn expected_span(&self) -> SimDuration {
        SimDuration::from_secs(self.requests as f64 / self.base_rps)
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.base_rps.is_finite() && self.base_rps > 0.0) {
            return Err(format!(
                "scenario base rate must be positive, got {}",
                self.base_rps
            ));
        }
        if self.requests == 0 {
            return Err("scenario runs need at least one request".into());
        }
        Ok(())
    }
}

/// An object-safe factory that instantiates one named arrival process.
pub trait ScenarioFactory: Send + Sync {
    /// Display name the scenario is registered (and reported) under.
    fn name(&self) -> &str;

    /// Instantiate the arrival process for one serving run.
    fn build(&self, ctx: &ScenarioContext) -> Result<Box<dyn ArrivalProcess>, String>;
}

/// The ordered, open registry of [`ScenarioFactory`]s (see
/// [`janus_simcore::registry`]). Registration order drives sweep ordering;
/// registering under an existing name replaces the earlier entry in place,
/// so a sweep can override a built-in without forking the registry.
pub type ScenarioRegistry = Registry<dyn ScenarioFactory>;

impl Entry for dyn ScenarioFactory {
    const NOUN: &'static str = "scenario";

    fn key(&self) -> &str {
        self.name()
    }

    /// The five built-in load shapes: `poisson`, `diurnal`, `bursty`,
    /// `flash-crowd`, `trace-replay`.
    fn builtins(registry: &mut ScenarioRegistry) {
        registry.register_fn("poisson", |ctx| {
            Ok(Box::new(PoissonArrivals::new(ctx.base_rps)?))
        });
        registry.register_fn("diurnal", |ctx| {
            // Two full cycles over the run span, ±60 % around the base rate.
            let period = SimDuration::from_millis(ctx.expected_span().as_millis() / 2.0);
            Ok(Box::new(DiurnalArrivals::new(ctx.base_rps, 0.6, period)?))
        });
        registry.register_fn("bursty", |ctx| {
            // Symmetric on/off phases (~8 per run) at 1.8× / 0.2× the base
            // rate: long-run mean is exactly the base rate.
            let dwell = SimDuration::from_millis(ctx.expected_span().as_millis() / 8.0);
            Ok(Box::new(BurstyArrivals::new(
                1.8 * ctx.base_rps,
                0.2 * ctx.base_rps,
                dwell,
                dwell,
            )?))
        });
        registry.register_fn("flash-crowd", |ctx| {
            // A 4× spike over the middle fifth of the run. Baseline is scaled
            // so the time-averaged rate stays the base rate:
            // base · (0.8 + 0.2·4) = base · 1.6.
            let span_ms = ctx.expected_span().as_millis();
            Ok(Box::new(FlashCrowd::new(
                ctx.base_rps / 1.6,
                4.0 * ctx.base_rps / 1.6,
                SimDuration::from_millis(0.4 * span_ms),
                SimDuration::from_millis(0.2 * span_ms),
            )?))
        });
        registry.register_fn("trace-replay", |ctx| {
            // Synthesize an Azure-like trace from the session seed and replay
            // its (diurnally bursty) gaps, rescaled to the base rate.
            let trace = Trace::generate(&TraceConfig {
                functions: 100,
                invocations: ctx.requests.clamp(256, 5000),
                seed: ctx.seed ^ 0x7AACE,
                ..TraceConfig::default()
            })?;
            Ok(Box::new(
                TraceReplay::from_trace(&trace)?.scaled_to_rate(ctx.base_rps)?,
            ))
        });
    }
}

impl Factory for dyn ScenarioFactory {
    type Ctx<'a> = ScenarioContext;
    type Output = Box<dyn ArrivalProcess>;

    fn validate(ctx: &ScenarioContext) -> Result<(), String> {
        ctx.validate()
    }

    fn make(&self, ctx: &ScenarioContext) -> Result<Box<dyn ArrivalProcess>, String> {
        self.build(ctx)
    }

    fn from_fn<F>(name: String, f: F) -> Arc<Self>
    where
        F: Fn(&ScenarioContext) -> Result<Box<dyn ArrivalProcess>, String> + Send + Sync + 'static,
    {
        Arc::new(NamedFn { name, f })
    }
}

impl<F> ScenarioFactory for NamedFn<F>
where
    F: Fn(&ScenarioContext) -> Result<Box<dyn ArrivalProcess>, String> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self, ctx: &ScenarioContext) -> Result<Box<dyn ArrivalProcess>, String> {
        (self.f)(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ScenarioContext {
        ScenarioContext {
            base_rps: 25.0,
            requests: 3000,
            seed: 9,
        }
    }

    #[test]
    fn builtins_cover_the_five_load_shapes_in_order() {
        let registry = ScenarioRegistry::with_builtins();
        assert_eq!(
            registry.names(),
            vec![
                "poisson",
                "diurnal",
                "bursty",
                "flash-crowd",
                "trace-replay"
            ]
        );
        assert_eq!(registry.len(), 5);
        assert!(!registry.is_empty());
    }

    #[test]
    fn every_builtin_builds_and_offers_the_base_rate() {
        let registry = ScenarioRegistry::with_builtins();
        for name in registry.names() {
            let process = registry.build(name, &ctx()).unwrap();
            assert_eq!(process.name(), name);
            // One run of a bursty process covers few on/off cycles, so the
            // realized-rate estimate averages several seeded runs.
            let realized = (0..10)
                .map(|seed| {
                    let ts = process.timestamps(seed, 3000);
                    ts.len() as f64 / ts.last().unwrap().as_secs()
                })
                .sum::<f64>()
                / 10.0;
            assert!(
                (realized - 25.0).abs() / 25.0 < 0.2,
                "{name}: realized {realized} rps vs base 25"
            );
        }
    }

    #[test]
    fn unknown_names_and_invalid_contexts_are_rejected() {
        let registry = ScenarioRegistry::with_builtins();
        let err = registry.build("tsunami", &ctx()).unwrap_err();
        assert!(err.contains("unknown scenario `tsunami`"), "{err}");
        assert!(err.contains("flash-crowd"), "{err}");
        let err = registry
            .build(
                "poisson",
                &ScenarioContext {
                    base_rps: 0.0,
                    ..ctx()
                },
            )
            .unwrap_err();
        assert!(err.contains("positive"), "{err}");
        let err = registry
            .build(
                "poisson",
                &ScenarioContext {
                    requests: 0,
                    ..ctx()
                },
            )
            .unwrap_err();
        assert!(err.contains("at least one request"), "{err}");
    }

    #[test]
    fn custom_factories_can_replace_and_extend_builtins() {
        let mut registry = ScenarioRegistry::with_builtins();
        registry.register_fn("lockstep", |_ctx| {
            Ok(Box::new(
                TraceReplay::from_gaps(vec![500.0]).expect("static gaps"),
            ))
        });
        assert_eq!(registry.len(), 6);
        let process = registry.build("lockstep", &ctx()).unwrap();
        let ts = process.timestamps(0, 3);
        assert_eq!(ts[2].as_millis(), 1500.0);

        // Replacing keeps the original position.
        registry.register_fn("poisson", |ctx| {
            Ok(Box::new(PoissonArrivals::new(2.0 * ctx.base_rps)?))
        });
        assert_eq!(registry.len(), 6);
        assert_eq!(registry.names()[0], "poisson");
    }
}
