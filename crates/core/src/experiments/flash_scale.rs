//! Flash-crowd at 10⁸ requests: the bounded-memory proof of the streaming
//! open loop.
//!
//! Every arrival is drawn lazily from a merged set of per-tenant
//! flash-crowd streams as simulated time advances — one buffered head per
//! stream, one arrival held beside the event queue, nothing else resident.
//! Outcomes are folded into running sums the moment they complete and then
//! dropped, so the paper-scale run serves 100 million requests while the
//! peak number of materialized arrivals stays at `streams + 1`. The run
//! goes through elastic capacity control (autoscaler + admission shedding),
//! so the in-flight table is bounded too: the experiment demonstrates that
//! *no* component of the serving loop scales with the request count.
//!
//! [`FlashScaleResult::validate`] enforces the invariant — a run that
//! materializes more than `streams + 1` arrivals fails, which is what the
//! CI smoke step (`janus run flash_scale --quick`) asserts.

use crate::experiments::api::{ExperimentCtx, ExperimentOutput, Scale};
use janus_platform::capacity::{AdmissionRegistry, AutoscalerRegistry, CapacityContext};
use janus_platform::executor::ExecutorConfig;
use janus_platform::openloop::{CapacityControls, OpenLoopArena, OpenLoopSimulation};
use janus_platform::outcome::{RequestDisposition, RequestOutcome};
use janus_platform::policy::FixedSizingPolicy;
use janus_scenarios::{tenant_stream_seed, MergedRequestSource, ScenarioContext, ScenarioRegistry};
use janus_simcore::engine::EngineConfig;
use janus_simcore::resources::Millicores;
use janus_simcore::stats::StreamingSummary;
use janus_workloads::apps::PaperApp;
use janus_workloads::request::RequestInputGenerator;
use std::fmt;
use std::time::Instant;

use super::sweep::{rate_per_sec, MIN_WALL_MS};

/// Configuration of one flash-scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashScaleConfig {
    /// Application whose workflow is served.
    pub app: PaperApp,
    /// Arrival scenario every tenant stream draws from (resolved from the
    /// built-in scenario registry).
    pub scenario: String,
    /// Independent tenant streams merged into the arrival timeline. Each
    /// stream gets its own derived seed, so streams are decorrelated.
    pub streams: usize,
    /// Total request budget across all streams.
    pub requests: usize,
    /// Long-run mean arrival rate per stream, in requests/second.
    pub rps_per_stream: f64,
    /// Fixed per-function CPU allocation of the serving policy.
    pub allocation_mc: u32,
    /// Autoscaler name (resolved from the built-in registry).
    pub autoscaler: String,
    /// Admission policy name. The default `queue-shed` is what bounds the
    /// in-flight table under flash-crowd overload.
    pub admission: String,
    /// Request-generation seed.
    pub seed: u64,
}

impl FlashScaleConfig {
    /// Paper scale: 100 million requests — ~20 000× the serving sessions
    /// elsewhere in this crate, runnable only because arrivals stream.
    pub fn paper_default() -> Self {
        FlashScaleConfig {
            app: PaperApp::IntelligentAssistant,
            scenario: "flash-crowd".to_string(),
            streams: 4,
            requests: 100_000_000,
            rps_per_stream: 500.0,
            allocation_mc: 2000,
            autoscaler: "utilization".to_string(),
            admission: "queue-shed".to_string(),
            seed: 7,
        }
    }

    /// Reduced scale for smoke runs and CI (`--quick`): one million
    /// requests, same shape.
    pub fn quick() -> Self {
        FlashScaleConfig {
            requests: 1_000_000,
            ..Self::paper_default()
        }
    }

    /// The aggregate offered rate across all streams.
    fn total_rps(&self) -> f64 {
        self.rps_per_stream * self.streams as f64
    }
}

/// The outcome of a flash-scale run: serving tallies folded from the
/// outcome stream, plus the residency figures the experiment exists to
/// bound.
#[derive(Debug, Clone)]
pub struct FlashScaleResult {
    /// Configuration the run used.
    pub config: FlashScaleConfig,
    /// Arrivals drawn from the merged streams (equals `config.requests`).
    pub generated: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Requests shed by admission control at arrival.
    pub shed: usize,
    /// Admitted requests lost to faults (zero here; no injector attached).
    pub failed: usize,
    /// Served requests that met the SLO.
    pub slo_met: usize,
    /// Mean end-to-end latency of served requests, in ms.
    pub mean_served_e2e_ms: f64,
    /// Peak number of arrivals materialized at once: the buffered stream
    /// heads plus the one arrival held beside the event queue. Bounded by
    /// `streams + 1` regardless of `requests` — the invariant under test.
    pub peak_resident_arrivals: usize,
    /// Peak event-queue depth of the run.
    pub peak_queue_depth: usize,
    /// Peak admitted-and-unfinished request count (bounded by admission
    /// shedding, not by the request count).
    pub peak_inflight: usize,
    /// Peak node count the autoscaler grew the fleet to.
    pub peak_nodes: usize,
    /// Engine events processed.
    pub events: u64,
    /// Wall-clock time of the run, in ms.
    pub wall_ms: f64,
    /// Events per wall-clock second.
    pub events_per_sec: f64,
    /// Arrivals per wall-clock second.
    pub arrivals_per_sec: f64,
}

impl FlashScaleResult {
    /// Fraction of served requests that met the SLO.
    pub fn slo_attainment(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.slo_met as f64 / self.served as f64
        }
    }

    /// Fraction of generated requests shed at admission.
    pub fn shed_rate(&self) -> f64 {
        if self.generated == 0 {
            0.0
        } else {
            self.shed as f64 / self.generated as f64
        }
    }

    /// Structural invariants of a well-formed result — above all the
    /// bounded-memory invariant: peak resident arrivals may not exceed
    /// `streams + 1`, no matter how many requests the run generated.
    pub fn validate(&self) -> Result<(), String> {
        if self.generated != self.config.requests {
            return Err(format!(
                "flash_scale drew {} of {} requests",
                self.generated, self.config.requests
            ));
        }
        if self.served + self.shed + self.failed != self.generated {
            return Err(format!(
                "flash_scale outcomes do not tally: {} served + {} shed + {} failed != {} generated",
                self.served, self.shed, self.failed, self.generated
            ));
        }
        if self.peak_resident_arrivals == 0 {
            return Err("flash_scale reported zero resident arrivals".into());
        }
        if self.peak_resident_arrivals > self.config.streams + 1 {
            return Err(format!(
                "flash_scale materialized {} arrivals at once for {} streams; \
                 the bounded-memory invariant (streams + 1) is broken",
                self.peak_resident_arrivals, self.config.streams
            ));
        }
        if self.events == 0 {
            return Err("flash_scale processed no events".into());
        }
        if !(self.wall_ms.is_finite() && self.wall_ms > 0.0) {
            return Err(format!(
                "flash_scale reported non-positive wall time {}",
                self.wall_ms
            ));
        }
        Ok(())
    }
}

impl fmt::Display for FlashScaleResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Flash scale: {} requests over {} `{}` streams @ {} rps each ({} open loop)",
            self.generated,
            self.config.streams,
            self.config.scenario,
            self.config.rps_per_stream,
            self.config.app.short_name(),
        )?;
        writeln!(
            f,
            "served {} ({:.1}% SLO attainment, mean e2e {:.1} ms), shed {} ({:.1}%), failed {}",
            self.served,
            self.slo_attainment() * 100.0,
            self.mean_served_e2e_ms,
            self.shed,
            self.shed_rate() * 100.0,
            self.failed,
        )?;
        writeln!(
            f,
            "{} events in {:.0} ms wall ({:.0} events/sec, {:.0} arrivals/sec)",
            self.events, self.wall_ms, self.events_per_sec, self.arrivals_per_sec,
        )?;
        writeln!(
            f,
            "peak resident arrivals {} (bound: streams + 1 = {}); \
             peak queue {}, peak inflight {}, peak nodes {}",
            self.peak_resident_arrivals,
            self.config.streams + 1,
            self.peak_queue_depth,
            self.peak_inflight,
            self.peak_nodes,
        )?;
        Ok(())
    }
}

/// Run the flash-scale trajectory: stream `config.requests` arrivals from
/// the merged tenant streams through the capacity-controlled open loop,
/// folding every outcome into running sums as it completes.
fn flash_scale_run(config: &FlashScaleConfig) -> Result<FlashScaleResult, String> {
    if config.streams == 0 {
        return Err("flash_scale needs at least one stream".into());
    }
    if config.requests == 0 {
        return Err("flash_scale needs at least one request".into());
    }
    let workflow = config.app.workflow();
    let slo = config.app.default_slo(1);
    let registry = ScenarioRegistry::with_builtins();
    let mut generators = Vec::with_capacity(config.streams);
    for stream in 0..config.streams {
        let seed = tenant_stream_seed(config.seed, stream as u64);
        let ctx = ScenarioContext {
            base_rps: config.rps_per_stream,
            requests: config.requests,
            seed,
        };
        let process = registry
            .build(&config.scenario, &ctx)
            .map_err(|e| format!("scenario `{}`: {e}", config.scenario))?;
        generators.push(RequestInputGenerator::with_sampler(seed, process.sampler()));
    }
    let mut source = MergedRequestSource::new(generators, config.requests)?;

    let open_config = ExecutorConfig::paper_serving(slo, 1);
    let capacity_ctx = CapacityContext {
        base_rps: config.total_rps(),
        requests: config.requests,
        initial_nodes: open_config.cluster.nodes,
        slo,
    };
    let mut autoscaler = AutoscalerRegistry::with_builtins()
        .build(&config.autoscaler, &capacity_ctx)
        .map_err(|e| format!("autoscaler `{}`: {e}", config.autoscaler))?;
    let mut admission = AdmissionRegistry::with_builtins()
        .build(&config.admission, &capacity_ctx)
        .map_err(|e| format!("admission `{}`: {e}", config.admission))?;
    let mut policy =
        FixedSizingPolicy::uniform("fixed", &workflow, Millicores::new(config.allocation_mc))
            .map_err(|e| format!("flash_scale policy: {e}"))?;
    let sim = OpenLoopSimulation::new(workflow, open_config);
    // The default engine caps at 50M events as a runaway guard; a 10⁸-request
    // run legitimately processes ~4×10⁸, so the cap comes off. The horizon
    // stays off too: the run ends when the streams run dry and drain.
    let mut arena = OpenLoopArena::with_engine_config(EngineConfig {
        max_events: None,
        horizon: None,
    });

    // Running-sum aggregation: each outcome is folded and dropped — the
    // whole point of the streaming core is that nothing per-request
    // accumulates across the run.
    let mut served = 0usize;
    let mut failed = 0usize;
    let mut slo_met = 0usize;
    let mut e2e_ms = StreamingSummary::new();
    // janus-lint: allow(nondeterminism) — wall timing IS the measurement; the simulated tallies stay seed-pure
    let started = Instant::now();
    let capacity = sim.run_streaming(
        &mut policy,
        &mut source,
        &mut arena,
        None,
        Some(CapacityControls {
            autoscaler: autoscaler.as_mut(),
            admission: admission.as_mut(),
            faults: None,
        }),
        None,
        &mut |outcome: RequestOutcome| match outcome.disposition {
            RequestDisposition::Served => {
                served += 1;
                if outcome.slo_met {
                    slo_met += 1;
                }
                e2e_ms.record(outcome.e2e.as_millis());
            }
            RequestDisposition::Shed => {}
            RequestDisposition::Failed => failed += 1,
        },
    )?;
    let wall_ms = (started.elapsed().as_secs_f64() * 1000.0).max(MIN_WALL_MS);
    let capacity = capacity.ok_or("flash_scale ran without a capacity report")?;

    let events = arena.events_processed();
    let result = FlashScaleResult {
        config: config.clone(),
        generated: capacity.generated,
        served,
        shed: capacity.shed,
        failed,
        slo_met,
        mean_served_e2e_ms: e2e_ms.mean(),
        peak_resident_arrivals: arena.peak_resident_arrivals(),
        peak_queue_depth: arena.peak_queue_depth(),
        peak_inflight: capacity.peak_inflight,
        peak_nodes: capacity.peak_nodes,
        events,
        wall_ms,
        events_per_sec: rate_per_sec(events, wall_ms),
        arrivals_per_sec: rate_per_sec(capacity.generated as u64, wall_ms),
    };
    result.validate()?;
    Ok(result)
}

/// The `flash_scale` experiment: the 10⁸-request flash-crowd run that
/// proves arrivals stream in bounded memory.
pub(crate) fn run_flash_scale(ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
    let mut config = match ctx.scale {
        Scale::Paper => FlashScaleConfig::paper_default(),
        Scale::Quick => FlashScaleConfig::quick(),
    };
    if let Some(seed) = ctx.seed {
        config.seed = seed;
    }
    Ok(ExperimentOutput::single(flash_scale_run(&config)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> FlashScaleConfig {
        FlashScaleConfig {
            streams: 3,
            requests: 20_000,
            ..FlashScaleConfig::quick()
        }
    }

    #[test]
    fn flash_scale_streams_in_bounded_memory() {
        let result = flash_scale_run(&tiny_config()).unwrap();
        result.validate().unwrap();
        assert_eq!(result.generated, 20_000);
        assert_eq!(result.served + result.shed + result.failed, 20_000);
        // The headline invariant: residency is bounded by the stream count,
        // not the request count.
        assert!(
            result.peak_resident_arrivals <= 4,
            "resident arrivals {} exceed streams + 1",
            result.peak_resident_arrivals
        );
        // The flash crowd overloads the fleet; admission shedding is what
        // keeps the in-flight table bounded, so it must have engaged.
        assert!(result.shed > 0, "flash crowd should shed under overload");
        assert!(result.served > 0, "some requests must be served");
        assert!(result.peak_inflight > 0);
        assert!(result.peak_inflight < result.generated);
        assert!(result.events > 0);
        let shown = format!("{result}");
        assert!(shown.contains("peak resident arrivals"), "{shown}");
        assert!(shown.contains("bound: streams + 1 = 4"), "{shown}");
    }

    #[test]
    fn flash_scale_is_seed_deterministic() {
        let a = flash_scale_run(&tiny_config()).unwrap();
        let b = flash_scale_run(&tiny_config()).unwrap();
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.served, b.served);
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.slo_met, b.slo_met);
        assert_eq!(a.events, b.events);
        assert_eq!(a.mean_served_e2e_ms, b.mean_served_e2e_ms);
        let c = flash_scale_run(&FlashScaleConfig {
            seed: 8,
            ..tiny_config()
        })
        .unwrap();
        assert_ne!(
            (a.served, a.events),
            (c.served, c.events),
            "a different seed must change the run"
        );
    }

    #[test]
    fn flash_scale_rejects_degenerate_configs() {
        let err = flash_scale_run(&FlashScaleConfig {
            streams: 0,
            ..tiny_config()
        })
        .unwrap_err();
        assert!(err.contains("at least one stream"), "{err}");
        let err = flash_scale_run(&FlashScaleConfig {
            requests: 0,
            ..tiny_config()
        })
        .unwrap_err();
        assert!(err.contains("at least one request"), "{err}");
        let err = flash_scale_run(&FlashScaleConfig {
            scenario: "tsunami".into(),
            ..tiny_config()
        })
        .unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        let err = flash_scale_run(&FlashScaleConfig {
            autoscaler: "psychic".into(),
            ..tiny_config()
        })
        .unwrap_err();
        assert!(err.contains("psychic"), "{err}");
    }
}
