//! The generic sweep driver: execute a [`SweepSpec`] grid in parallel.
//!
//! [`run_sweep`] is the one grid engine: it runs `janus sweep <spec.json>`
//! and the `scenarios`, `capacity` and `chaos_resilience` experiments, whose
//! results are views over the [`SweepResult`] it returns. The spec's axes
//! expand into [`SessionSpec`] grid points (scenario-major, then load,
//! seed, autoscaler, admission, fault, observer); every point is one
//! paired, invariant-checked [`ServingSession`]. Results come back in grid
//! order regardless of scheduling, and sessions are seed-deterministic, so
//! a sweep is reproducible bit for bit.
//!
//! Set-up — profiling the workflow and building the policies — reads only a
//! few of a point's inputs (`SessionSpec::setup_key`); the scenario,
//! load, capacity, fault and observer axes are runtime conditions it never
//! sees. So the points that must run are sorted by (set-up key, grid index)
//! and cut into contiguous stripes, one per worker thread. Each worker runs
//! its stripe through
//! [`run_in`](crate::session::ServingSession::run_in) with one
//! [`OpenLoopArena`], one set of interned metric handles, and a one-entry
//! [`SetupMemo`] that is rebuilt whenever the key changes: engine heaps,
//! in-flight tables and metric interning are paid once per worker, and
//! set-up once per distinct key in its stripe. Memoized policies serve
//! every point from a fresh instance, and factories that read the request
//! set (the Optimal oracle) are rebuilt for every point. Because equal keys
//! are adjacent, a sweep builds each set-up at most once per worker that
//! its points span — at most `threads - 1` duplicate builds in all — with
//! no lock and no shared map.
//!
//! [`run_sweep_stored`] invokes a callback as each point completes (from
//! the worker thread that ran it) — the `janus` CLI uses it to print
//! progress lines while a long grid is still running — and adds the
//! content-addressed results store
//! (`janus-results`): before a point runs, the store is consulted under the
//! hash of the point's fully-resolved [`SessionSpec`] document plus
//! [`RESULTS_EPOCH`]; hits are replayed from disk without building a
//! session, and misses are written back atomically as they complete. A
//! replayed grid reproduces the cold run's [`SweepResult`] byte for byte:
//! every figure the aggregate carries — including per-point `wall_ms` — is
//! persisted in the cell file, not recomputed.
//!
//! [`SweepSpec::validate`] runs *before* anything else: it resolves every
//! name against the built-in registries and checks every point through the
//! session builder, and the error points at the offending spec key
//! (`` `policies[2]`: unknown policy … ``), so a typo or an unservable
//! point fails in milliseconds instead of after the first half of the grid.
//!
//! [`ServingSession`]: crate::session::ServingSession

use crate::experiments::spec::{SessionSpec, SetupKey, SweepSpec};
use crate::experiments::ToJson;
use crate::session::{PolicyReport, SessionReport, SetupMemo};
use janus_json::Value;
use janus_platform::metrics::ServingMetrics;
use janus_platform::openloop::OpenLoopArena;
use janus_results::ResultsStore;
use janus_simcore::metrics::MetricsRegistry;
use janus_simcore::parallel;
use std::fmt;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Cache epoch covered by every cell hash. Bump this when engine semantics
/// change — scheduler behaviour, metric definitions, scenario generators —
/// so every previously stored cell stops matching at once. Old-epoch files
/// are unreachable rather than invalid: the epoch is inside the hash, so a
/// stale file is simply never looked up again.
pub const RESULTS_EPOCH: u32 = 1;

/// Smallest wall-clock interval a cell is billed for, in ms (1 µs). Clamping
/// keeps throughput figures finite on `--quick` runs whose measured wall
/// time can round to ~0.
pub const MIN_WALL_MS: f64 = 1e-3;

/// `count` events over `wall_ms` as a per-second rate, guarded against
/// degenerate timings: a ~0 wall time would produce `inf` (and a NaN input
/// NaN), which the hand-rolled JSON writer encodes as `null` — breaking
/// every typed reader of the emitted artefact. Wall time is clamped to
/// [`MIN_WALL_MS`]; non-finite wall times yield a rate of 0.
pub fn rate_per_sec(count: u64, wall_ms: f64) -> f64 {
    if !wall_ms.is_finite() {
        return 0.0;
    }
    count as f64 / (wall_ms.max(MIN_WALL_MS) / 1000.0)
}

/// How a results store participates in a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Consult the store before each point; replay hits, run and save misses.
    Reuse,
    /// Ignore existing cells, run everything, overwrite the store.
    Force,
}

/// The summary figures one policy produced at one grid point — exactly the
/// numbers the sweep's table and JSON views publish. This is the unit the
/// results store persists: small enough to keep thousands of cells on disk,
/// complete enough that a cache replay renders identically to a live run.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCell {
    /// Registered policy name.
    pub name: String,
    /// Fraction of served requests inside SLO.
    pub slo_attainment: f64,
    /// Mean per-request CPU in millicores.
    pub mean_cpu_millicores: f64,
    /// p99 end-to-end latency in seconds (`None` when nothing was served).
    pub p99_e2e_s: Option<f64>,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests failed by faults.
    pub failed: u64,
    /// Requests retried after node loss.
    pub retried: u64,
    /// Nodes lost to injected faults.
    pub nodes_lost: u64,
    /// Node-seconds of fleet capacity (`None` without a capacity report).
    pub node_seconds: Option<f64>,
}

fn field_num(doc: &Value, key: &str) -> Result<f64, String> {
    doc.require(key)?
        .as_f64()
        .ok_or_else(|| format!("field `{key}` must be a number"))
}

fn field_opt_num(doc: &Value, key: &str) -> Result<Option<f64>, String> {
    match doc.require(key)? {
        Value::Null => Ok(None),
        v => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("field `{key}` must be a number or null")),
    }
}

fn field_count(doc: &Value, key: &str) -> Result<u64, String> {
    let n = field_num(doc, key)?;
    // janus-lint: allow(float-cmp) — exactness is the point: fract() must be exactly zero for an integer-valued f64
    if !n.is_finite() || n < 0.0 || n.fract() != 0.0 || n >= 9_007_199_254_740_992.0 {
        return Err(format!(
            "field `{key}` must be a non-negative integer, got {n}"
        ));
    }
    Ok(n as u64)
}

impl PolicyCell {
    /// Extract the published figures from a live policy report.
    pub fn from_report(report: &PolicyReport) -> Self {
        Self {
            name: report.name.clone(),
            slo_attainment: report.slo_attainment(),
            mean_cpu_millicores: report.serving.mean_cpu_millicores(),
            p99_e2e_s: report.serving.e2e_percentile(99.0).map(|d| d.as_secs()),
            served: report.serving.served_len() as u64,
            shed: report.serving.shed_len() as u64,
            failed: report.serving.failed_len() as u64,
            retried: report
                .serving
                .capacity
                .as_ref()
                .map_or(0, |c| c.retried as u64),
            nodes_lost: report
                .serving
                .capacity
                .as_ref()
                .map_or(0, |c| c.nodes_lost as u64),
            node_seconds: report.serving.capacity.as_ref().map(|c| c.node_seconds),
        }
    }

    /// The JSON object published per policy per point (the schema `--out`
    /// files have always carried; the results store reuses it verbatim).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            (
                "slo_attainment".to_string(),
                Value::Num(self.slo_attainment),
            ),
            (
                "mean_cpu_millicores".to_string(),
                Value::Num(self.mean_cpu_millicores),
            ),
            (
                "p99_e2e_s".to_string(),
                self.p99_e2e_s.map(Value::Num).unwrap_or(Value::Null),
            ),
            ("served".to_string(), Value::Num(self.served as f64)),
            ("shed".to_string(), Value::Num(self.shed as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("retried".to_string(), Value::Num(self.retried as f64)),
            ("nodes_lost".to_string(), Value::Num(self.nodes_lost as f64)),
            (
                "node_seconds".to_string(),
                self.node_seconds.map(Value::Num).unwrap_or(Value::Null),
            ),
        ])
    }

    /// Strict inverse of [`to_json`](PolicyCell::to_json): every field
    /// present and well-typed, errors naming the offending key.
    pub(crate) fn from_json(doc: &Value) -> Result<Self, String> {
        Ok(Self {
            name: doc
                .require("name")?
                .as_str()
                .ok_or_else(|| "field `name` must be a string".to_string())?
                .to_string(),
            slo_attainment: field_num(doc, "slo_attainment")?,
            mean_cpu_millicores: field_num(doc, "mean_cpu_millicores")?,
            p99_e2e_s: field_opt_num(doc, "p99_e2e_s")?,
            served: field_count(doc, "served")?,
            shed: field_count(doc, "shed")?,
            failed: field_count(doc, "failed")?,
            retried: field_count(doc, "retried")?,
            nodes_lost: field_count(doc, "nodes_lost")?,
            node_seconds: field_opt_num(doc, "node_seconds")?,
        })
    }
}

/// The result document a stored cell carries: the per-policy figures of one
/// grid point.
fn cell_result_json(policies: &[PolicyCell]) -> Value {
    Value::Obj(vec![(
        "policies".to_string(),
        Value::Arr(policies.iter().map(PolicyCell::to_json).collect()),
    )])
}

fn decode_cell_result(result: &Value) -> Result<Vec<PolicyCell>, String> {
    let arr = result
        .require("policies")?
        .as_array()
        .ok_or_else(|| "field `policies` must be an array".to_string())?;
    arr.iter()
        .enumerate()
        .map(|(i, v)| PolicyCell::from_json(v).map_err(|e| format!("`policies[{i}]`: {e}")))
        .collect()
}

/// One completed grid point: the session spec that described it and the
/// per-policy figures it produced — live or replayed from the results store.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Position in grid (expansion) order.
    pub index: usize,
    /// The resolved per-point spec.
    pub session: SessionSpec,
    /// Published figures, one [`PolicyCell`] per policy in spec order.
    pub policies: Vec<PolicyCell>,
    /// The full session report — present only when the point actually ran
    /// this process (`None` for cache replays, which carry just the
    /// published figures).
    pub report: Option<SessionReport>,
    /// Wall-clock time of the point, in ms (clamped to stay positive). For
    /// replayed points this is the *original* run's cost, read back from the
    /// store, so aggregates reproduce byte-identically.
    pub wall_ms: f64,
    /// Whether this point was replayed from the results store.
    pub cached: bool,
}

impl SweepPoint {
    /// The full report of a point that ran live in this process. Cache
    /// replays return `None`: the store keeps published figures, not raw
    /// per-request outcome vectors.
    pub fn live_report(&self) -> Option<&SessionReport> {
        self.report.as_ref()
    }

    /// One-line progress summary (`janus sweep` streams these as points
    /// complete).
    pub fn progress_line(&self, total: usize) -> String {
        let axes = [
            self.session.scenario.as_deref().map(|s| s.to_string()),
            self.session.rps.map(|r| format!("{r} rps")),
            Some(format!("seed {}", self.session.seed)),
            self.session.autoscaler.as_deref().map(str::to_string),
            self.session.admission.as_deref().map(str::to_string),
            self.session.fault.as_deref().map(str::to_string),
            self.session.observer.as_deref().map(str::to_string),
        ];
        let axes: Vec<String> = axes.into_iter().flatten().collect();
        let cost = if self.cached {
            "cached".to_string()
        } else {
            format!("{:.0} ms", self.wall_ms)
        };
        format!("[{}/{total}] {} ({cost})", self.index + 1, axes.join(" x "))
    }
}

/// The outcome of a sweep: every grid point in expansion order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The spec the sweep ran from.
    pub spec: SweepSpec,
    /// Completed points, in grid order.
    pub points: Vec<SweepPoint>,
    /// Aggregate compute cost in ms: the sum of per-point wall time. Cached
    /// points contribute their *original* cost, so a fully warm replay
    /// reports the same total as the cold run it reproduces.
    pub total_wall_ms: f64,
    /// How many points were replayed from the results store (0 for
    /// storeless runs). Not serialised: the JSON view must be byte-identical
    /// between cold and warm runs.
    pub cache_hits: usize,
    /// How many set-ups (profile plus policy builds) the live points were
    /// served from: one per run of equal set-up keys in each worker's
    /// stripe, 0 for a fully warm replay. Not serialised, like `cache_hits`.
    pub setups_built: usize,
}

impl SweepResult {
    /// The point matching the given axes (`None` arguments match points
    /// where that axis is unset).
    pub fn point(
        &self,
        scenario: &str,
        rps: f64,
        seed: u64,
        autoscaler: Option<&str>,
        admission: Option<&str>,
        fault: Option<&str>,
    ) -> Option<&SweepPoint> {
        self.points.iter().find(|p| {
            p.session.scenario.as_deref() == Some(scenario)
                && p.session.rps == Some(rps)
                && p.session.seed == seed
                && p.session.autoscaler.as_deref() == autoscaler
                && p.session.admission.as_deref() == admission
                && p.session.fault.as_deref() == fault
        })
    }

    /// Cross-point invariants on top of each session's own validation: the
    /// grid is complete, ordered exactly as the spec expands, and every
    /// point carries the spec's policies.
    pub fn validate(&self) -> Result<(), String> {
        let expected = self.spec.expand();
        if self.points.len() != expected.len() {
            return Err(format!(
                "sweep produced {} points for a {}-point grid",
                self.points.len(),
                expected.len()
            ));
        }
        for (i, (point, spec)) in self.points.iter().zip(&expected).enumerate() {
            if point.index != i {
                return Err(format!("point {i} carries index {}", point.index));
            }
            if &point.session != spec {
                return Err(format!("point {i} ran a different spec than expanded"));
            }
            let names: Vec<&str> = point.policies.iter().map(|c| c.name.as_str()).collect();
            let expected_names: Vec<&str> = self.spec.policies.iter().map(String::as_str).collect();
            if names != expected_names {
                return Err(format!(
                    "point {i} ran policies {names:?}, expected {expected_names:?}"
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for SweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "# Sweep `{}`: {} @ concurrency {}, {} requests/point, {} points in {:.0} ms",
            self.spec.name,
            self.spec.app.short_name(),
            self.spec.concurrency,
            self.spec.requests,
            self.points.len(),
            self.total_wall_ms
        )?;
        writeln!(
            f,
            "{:>14} {:>7} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>9} {:>7} {:>7}",
            "scenario",
            "rps",
            "seed",
            "autoscaler",
            "admission",
            "fault",
            "policy",
            "attain %",
            "cpu mc",
            "p99 s",
            "shed",
            "failed"
        )?;
        for point in &self.points {
            for cell in &point.policies {
                writeln!(
                    f,
                    "{:>14} {:>7} {:>6} {:>12} {:>12} {:>12} {:>12} {:>10.1} {:>10.1} {:>9} \
                     {:>7} {:>7}",
                    point.session.scenario.as_deref().unwrap_or("-"),
                    point.session.rps.unwrap_or(f64::NAN),
                    point.session.seed,
                    point.session.autoscaler.as_deref().unwrap_or("-"),
                    point.session.admission.as_deref().unwrap_or("-"),
                    point.session.fault.as_deref().unwrap_or("-"),
                    cell.name,
                    cell.slo_attainment * 100.0,
                    cell.mean_cpu_millicores,
                    cell.p99_e2e_s
                        .map(|s| format!("{s:.2}"))
                        .unwrap_or_else(|| "-".into()),
                    cell.shed,
                    cell.failed,
                )?;
            }
        }
        Ok(())
    }
}

impl ToJson for SweepResult {
    fn to_json(&self) -> Value {
        let points = self
            .points
            .iter()
            .map(|point| {
                Value::Obj(vec![
                    ("session".to_string(), point.session.to_json()),
                    (
                        "policies".to_string(),
                        Value::Arr(point.policies.iter().map(PolicyCell::to_json).collect()),
                    ),
                    ("wall_ms".to_string(), Value::Num(point.wall_ms)),
                    (
                        "points_per_sec".to_string(),
                        Value::Num(rate_per_sec(1, point.wall_ms)),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("experiment".to_string(), Value::Str("sweep".to_string())),
            ("name".to_string(), Value::Str(self.spec.name.clone())),
            ("spec".to_string(), self.spec.to_json()),
            ("points".to_string(), Value::Arr(points)),
            ("total_wall_ms".to_string(), Value::Num(self.total_wall_ms)),
        ])
    }
}

/// Run a sweep against an optional results store, invoking `on_point` as
/// each grid point completes (cache replays first, in grid order from the
/// calling thread; live points from the worker threads that ran them).
///
/// With `Some((store, StoreMode::Reuse))`, each expanded point is looked up
/// under `hash(session spec doc + RESULTS_EPOCH)` before anything is built:
/// hits replay from disk (no session, no arena), misses run as usual and
/// are written back atomically on completion. With `StoreMode::Force`, the
/// lookup is skipped and every completed point overwrites its cell. The
/// returned result is in grid order and byte-identical (Display and JSON)
/// whether points ran live or replayed.
pub fn run_sweep_stored(
    spec: &SweepSpec,
    store: Option<(&ResultsStore, StoreMode)>,
    on_point: &(dyn Fn(&SweepPoint) + Sync),
) -> Result<SweepResult, String> {
    spec.validate()?;
    let expanded = spec.expand();
    let total = expanded.len();

    // Partition the grid: replayable hits vs points that must run. The
    // lookup hashes the fully-resolved per-point document, so any edit to
    // any axis value changes the key and re-runs exactly the changed cells.
    let mut replayed: Vec<SweepPoint> = Vec::new();
    let mut to_run: Vec<(usize, SessionSpec)> = Vec::new();
    for (index, session_spec) in expanded.into_iter().enumerate() {
        let hit = match store {
            Some((s, StoreMode::Reuse)) => s.load(&session_spec.to_json(), RESULTS_EPOCH)?,
            _ => None,
        };
        match hit {
            Some(stored) => {
                let policies = decode_cell_result(&stored.result)
                    .map_err(|e| format!("cached point {index} (key `{}`): {e}", stored.key))?;
                let point = SweepPoint {
                    index,
                    session: session_spec,
                    policies,
                    report: None,
                    wall_ms: stored.wall_ms,
                    cached: true,
                };
                on_point(&point);
                replayed.push(point);
            }
            None => to_run.push((index, session_spec)),
        }
    }
    let cache_hits = replayed.len();

    // Key-ordered contiguous stripes, one per worker: points that share a
    // set-up are adjacent, so each worker builds a set-up once per key in
    // its stripe. Each stripe also shares one arena and one set of interned
    // metric handles across all its points.
    let mut to_run: Vec<(SetupKey, usize, SessionSpec)> = to_run
        .into_iter()
        .map(|(index, session_spec)| (session_spec.setup_key(), index, session_spec))
        .collect();
    to_run.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    let threads = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .min(to_run.len().max(1));
    let stripe_len = to_run.len().div_ceil(threads);
    let stripes: Vec<Vec<(SetupKey, usize, SessionSpec)>> = to_run
        .chunks(stripe_len.max(1))
        .map(<[_]>::to_vec)
        .collect();

    let completed: Vec<Result<(usize, Vec<SweepPoint>), String>> =
        parallel::map(stripes, |stripe| {
            let metrics_registry = MetricsRegistry::new();
            let metrics = ServingMetrics::intern(&metrics_registry);
            let mut arena = OpenLoopArena::new();
            let mut memo = SetupMemo::default();
            let mut memo_key: Option<SetupKey> = None;
            let mut setups_built = 0;
            let mut done = Vec::with_capacity(stripe.len());
            for (key, index, session_spec) in stripe {
                // janus-lint: allow(nondeterminism) — per-point wall cost for progress lines only
                let point_started = Instant::now();
                let context = |e: String| session_spec.at_point(index, e);
                if memo_key.as_ref() != Some(&key) {
                    memo = SetupMemo::default();
                    memo_key = Some(key);
                    setups_built += 1;
                }
                let session = session_spec.builder().build().map_err(context)?;
                let report = session
                    .run_in(&mut arena, &metrics_registry, &metrics, &mut memo)
                    .map_err(context)?;
                let policies: Vec<PolicyCell> = report
                    .policies
                    .iter()
                    .map(PolicyCell::from_report)
                    .collect();
                let wall_ms = (point_started.elapsed().as_secs_f64() * 1000.0).max(MIN_WALL_MS);
                if let Some((s, _)) = store {
                    s.save(
                        &session_spec.to_json(),
                        RESULTS_EPOCH,
                        wall_ms,
                        &cell_result_json(&policies),
                    )
                    .map_err(context)?;
                }
                let point = SweepPoint {
                    index,
                    session: session_spec,
                    policies,
                    report: Some(report),
                    wall_ms,
                    cached: false,
                };
                on_point(&point);
                done.push(point);
            }
            Ok((setups_built, done))
        });

    let mut points = replayed;
    points.reserve(total.saturating_sub(points.len()));
    let mut setups_built = 0;
    for stripe in completed {
        let (built, done) = stripe?;
        setups_built += built;
        points.extend(done);
    }
    points.sort_by_key(|p| p.index);

    let result = SweepResult {
        spec: spec.clone(),
        total_wall_ms: points
            .iter()
            .map(|p| p.wall_ms)
            .sum::<f64>()
            .max(MIN_WALL_MS),
        points,
        cache_hits,
        setups_built,
    };
    result.validate()?;
    Ok(result)
}

/// Run a sweep without progress streaming or a results store.
pub fn run_sweep(spec: &SweepSpec) -> Result<SweepResult, String> {
    run_sweep_stored(spec, None, &|_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_workloads::apps::PaperApp;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            name: "tiny".into(),
            app: PaperApp::IntelligentAssistant,
            concurrency: 1,
            policies: vec!["GrandSLAM".into(), "Janus".into()],
            scenarios: vec!["poisson".into(), "flash-crowd".into()],
            loads_rps: vec![2.0],
            seeds: vec![7, 11],
            autoscalers: None,
            admissions: None,
            faults: None,
            observers: None,
            cluster: None,
            tenants: None,
            requests: 30,
            samples_per_point: 250,
            budget_step_ms: 10.0,
        }
    }

    #[test]
    fn sweeps_cover_the_grid_in_order_and_stream_every_point() {
        let spec = tiny_spec();
        let streamed = AtomicUsize::new(0);
        let result = run_sweep_stored(&spec, None, &|point| {
            streamed.fetch_add(1, Ordering::SeqCst);
            assert!(point.progress_line(4).contains("rps"));
        })
        .unwrap();
        assert_eq!(streamed.load(Ordering::SeqCst), 4);
        assert_eq!(result.points.len(), 4);
        assert_eq!(result.cache_hits, 0);
        result.validate().unwrap();
        // Grid order: poisson/7, poisson/11, flash-crowd/7, flash-crowd/11.
        let scenarios: Vec<_> = result
            .points
            .iter()
            .map(|p| (p.session.scenario.clone().unwrap(), p.session.seed))
            .collect();
        assert_eq!(
            scenarios,
            vec![
                ("poisson".to_string(), 7),
                ("poisson".to_string(), 11),
                ("flash-crowd".to_string(), 7),
                ("flash-crowd".to_string(), 11)
            ]
        );
        // Seeds change the outcome; the same seed reproduces it.
        let a = result.point("poisson", 2.0, 7, None, None, None).unwrap();
        let b = result.point("poisson", 2.0, 11, None, None, None).unwrap();
        assert_ne!(
            a.live_report().unwrap().serving("Janus").unwrap(),
            b.live_report().unwrap().serving("Janus").unwrap()
        );
        let rerun = run_sweep(&spec).unwrap();
        for (x, y) in result.points.iter().zip(&rerun.points) {
            assert_eq!(
                x.live_report().unwrap().serving("GrandSLAM").unwrap(),
                y.live_report().unwrap().serving("GrandSLAM").unwrap()
            );
        }
        // Display and JSON views cover every point.
        let shown = format!("{result}");
        assert!(shown.contains("flash-crowd"), "{shown}");
        let doc = janus_json::parse(&result.to_json().to_pretty()).unwrap();
        assert_eq!(doc.require("points").unwrap().as_array().unwrap().len(), 4);
        assert_eq!(doc.require("experiment").unwrap().as_str(), Some("sweep"));
    }

    #[test]
    fn zero_duration_rates_stay_finite_and_json_safe() {
        // The guard itself: zero, sub-clamp, non-finite.
        assert!(rate_per_sec(1000, 0.0).is_finite());
        assert_eq!(rate_per_sec(1000, 0.0), 1000.0 / (MIN_WALL_MS / 1000.0));
        assert_eq!(rate_per_sec(0, 0.0), 0.0);
        assert!(rate_per_sec(1000, 1e-9).is_finite());
        assert_eq!(rate_per_sec(1000, f64::NAN), 0.0);
        assert_eq!(rate_per_sec(1000, f64::INFINITY), 0.0);
        // A point whose wall time reads 0 still round-trips through the
        // hand-rolled JSON with a numeric (non-null) rate field.
        let mut result = run_sweep(&SweepSpec {
            scenarios: vec!["poisson".into()],
            seeds: vec![7],
            ..tiny_spec()
        })
        .unwrap();
        result.points[0].wall_ms = 0.0;
        let doc = janus_json::parse(&result.to_json().to_pretty()).unwrap();
        let point = &doc.require("points").unwrap().as_array().unwrap()[0];
        let rate = point.require("points_per_sec").unwrap().as_f64();
        assert!(rate.is_some(), "rate must decode as a number, not null");
        assert!(rate.unwrap().is_finite() && rate.unwrap() > 0.0);
    }

    /// A cold sweep builds each distinct set-up at least once, and at most
    /// once more per stripe boundary it straddles.
    fn assert_setups_within_bounds(result: &SweepResult) {
        let mut keys: Vec<SetupKey> = result
            .points
            .iter()
            .map(|p| p.session.setup_key())
            .collect();
        keys.sort();
        keys.dedup();
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            .min(result.points.len());
        let built = result.setups_built;
        assert!(
            keys.len() <= built && built < keys.len() + threads,
            "{built} set-ups for {} keys on {threads} threads",
            keys.len()
        );
    }

    #[test]
    fn memoized_set_ups_serve_every_point_as_a_standalone_session() {
        use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
        use janus_simcore::resources::Millicores;
        // Four cells per set-up key (scenario x autoscaler at one seed),
        // with a request-reading policy (Optimal) beside three memoized ones.
        let spec = SweepSpec {
            policies: vec![
                "Optimal".into(),
                "ORION".into(),
                "GrandSLAM+".into(),
                "Janus".into(),
            ],
            loads_rps: vec![3.0],
            autoscalers: Some(vec!["static".into(), "queue-depth".into()]),
            faults: Some(vec!["zone-outage".into()]),
            observers: Some(vec!["flight-recorder".into()]),
            cluster: Some(ClusterConfig {
                nodes: 4,
                node_capacity: Millicores::from_cores(8),
                placement: PlacementPolicy::Spread,
                zones: 2,
            }),
            requests: 40,
            ..tiny_spec()
        };
        let result = run_sweep(&spec).unwrap();
        assert_eq!(result.points.len(), 8);
        assert_setups_within_bounds(&result);
        assert!(result.setups_built < result.points.len());
        for point in &result.points {
            let alone = point.session.builder().build().unwrap().run().unwrap();
            let swept = point.live_report().unwrap();
            for name in &spec.policies {
                let at = format!("point {} policy {name}", point.index);
                assert_eq!(swept.serving(name), alone.serving(name), "{at}");
                assert!(swept.flight(name).is_some(), "{at}");
                assert_eq!(swept.flight(name), alone.flight(name), "{at}");
            }
        }
    }

    #[test]
    fn policy_cells_round_trip_through_json() {
        let cell = PolicyCell {
            name: "Janus".into(),
            slo_attainment: 0.9725,
            mean_cpu_millicores: 412.03125,
            p99_e2e_s: Some(1.75),
            served: 58,
            shed: 2,
            failed: 0,
            retried: 3,
            nodes_lost: 1,
            node_seconds: Some(360.5),
        };
        let doc = janus_json::parse(&cell.to_json().to_pretty()).unwrap();
        assert_eq!(PolicyCell::from_json(&doc).unwrap(), cell);
        // Optional fields survive as null.
        let sparse = PolicyCell {
            p99_e2e_s: None,
            node_seconds: None,
            ..cell.clone()
        };
        let doc = janus_json::parse(&sparse.to_json().to_pretty()).unwrap();
        assert_eq!(PolicyCell::from_json(&doc).unwrap(), sparse);
        // Corrupt counts fail with the key named.
        let mut bad = doc.clone();
        if let Value::Obj(members) = &mut bad {
            for (k, v) in members.iter_mut() {
                if k == "served" {
                    *v = Value::Num(-3.0);
                }
            }
        }
        let err = PolicyCell::from_json(&bad).unwrap_err();
        assert!(err.contains("`served`"), "{err}");
    }

    fn temp_store(tag: &str) -> (ResultsStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("janus-sweep-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultsStore::open(&dir).expect("open store");
        (store, dir)
    }

    #[test]
    fn warm_store_replays_byte_identically_with_zero_sessions_run() {
        let spec = tiny_spec();
        let (store, dir) = temp_store("replay");

        let cold = run_sweep_stored(&spec, Some((&store, StoreMode::Reuse)), &|_| {}).unwrap();
        assert_eq!(cold.cache_hits, 0);
        assert_setups_within_bounds(&cold);
        assert_eq!(store.load_all().unwrap().len(), 4);

        let ran = AtomicUsize::new(0);
        let warm = run_sweep_stored(&spec, Some((&store, StoreMode::Reuse)), &|point| {
            if !point.cached {
                ran.fetch_add(1, Ordering::SeqCst);
            }
            assert!(point.progress_line(4).contains("cached"));
        })
        .unwrap();
        assert_eq!(
            ran.load(Ordering::SeqCst),
            0,
            "warm run must not run sessions"
        );
        assert_eq!(warm.cache_hits, 4);
        assert_eq!(warm.setups_built, 0, "a warm replay builds no set-up");
        assert!(warm.points.iter().all(|p| p.live_report().is_none()));

        // The aggregate views are byte-identical between cold and warm.
        assert_eq!(format!("{cold}"), format!("{warm}"));
        assert_eq!(cold.to_json().to_pretty(), warm.to_json().to_pretty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn editing_one_axis_reruns_only_the_changed_cells() {
        let spec = tiny_spec();
        let (store, dir) = temp_store("edit");
        run_sweep_stored(&spec, Some((&store, StoreMode::Reuse)), &|_| {}).unwrap();

        // Adding a seed keeps the original 4 cells warm and runs only the
        // 2 new (scenario x new-seed) points.
        let edited = SweepSpec {
            seeds: vec![7, 11, 13],
            ..tiny_spec()
        };
        let ran = AtomicUsize::new(0);
        let result = run_sweep_stored(&edited, Some((&store, StoreMode::Reuse)), &|point| {
            if !point.cached {
                ran.fetch_add(1, Ordering::SeqCst);
                assert_eq!(point.session.seed, 13, "only the new seed should run");
            }
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 2);
        assert_eq!(result.cache_hits, 4);
        assert_eq!(result.points.len(), 6);
        assert_eq!(store.load_all().unwrap().len(), 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn force_mode_reruns_everything_and_overwrites() {
        let spec = SweepSpec {
            scenarios: vec!["poisson".into()],
            seeds: vec![7],
            ..tiny_spec()
        };
        let (store, dir) = temp_store("force");
        run_sweep_stored(&spec, Some((&store, StoreMode::Reuse)), &|_| {}).unwrap();

        let ran = AtomicUsize::new(0);
        let forced = run_sweep_stored(&spec, Some((&store, StoreMode::Force)), &|point| {
            assert!(!point.cached);
            ran.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(forced.cache_hits, 0);
        assert!(forced.points[0].live_report().is_some());
        assert_eq!(
            store.load_all().unwrap().len(),
            1,
            "cell overwritten, not duplicated"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capacity_axes_flow_into_the_sessions() {
        use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
        use janus_simcore::resources::Millicores;
        let spec = SweepSpec {
            scenarios: vec!["flash-crowd".into()],
            policies: vec!["GrandSLAM".into()],
            loads_rps: vec![6.0],
            seeds: vec![7],
            autoscalers: Some(vec!["queue-depth".into()]),
            admissions: Some(vec!["token-bucket".into()]),
            cluster: Some(ClusterConfig {
                nodes: 2,
                node_capacity: Millicores::from_cores(8),
                placement: PlacementPolicy::Spread,
                zones: 1,
            }),
            requests: 60,
            ..tiny_spec()
        };
        let result = run_sweep(&spec).unwrap();
        assert_eq!(result.points.len(), 1);
        let report = result.points[0].live_report().unwrap();
        assert_eq!(report.autoscaler.as_deref(), Some("queue-depth"));
        assert_eq!(report.admission.as_deref(), Some("token-bucket"));
        let capacity = report
            .serving("GrandSLAM")
            .unwrap()
            .capacity
            .as_ref()
            .expect("capacity report present");
        assert_eq!(capacity.admitted + capacity.shed, 60);
    }

    #[test]
    fn fault_axes_flow_into_the_sessions_and_stay_deterministic() {
        use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
        use janus_simcore::resources::Millicores;
        let spec = SweepSpec {
            scenarios: vec!["flash-crowd".into()],
            policies: vec!["GrandSLAM".into()],
            loads_rps: vec![6.0],
            seeds: vec![7],
            autoscalers: Some(vec!["static".into()]),
            admissions: Some(vec!["admit-all".into()]),
            faults: Some(vec!["zone-outage".into()]),
            cluster: Some(ClusterConfig {
                nodes: 4,
                node_capacity: Millicores::from_cores(8),
                placement: PlacementPolicy::Spread,
                zones: 2,
            }),
            requests: 60,
            ..tiny_spec()
        };
        let result = run_sweep(&spec).unwrap();
        assert_eq!(result.points.len(), 1);
        let point = result
            .point(
                "flash-crowd",
                6.0,
                7,
                Some("static"),
                Some("admit-all"),
                Some("zone-outage"),
            )
            .unwrap();
        assert!(point.progress_line(1).contains("zone-outage"));
        let capacity = point
            .live_report()
            .unwrap()
            .serving("GrandSLAM")
            .unwrap()
            .capacity
            .clone()
            .expect("capacity report present");
        assert_eq!(capacity.injector.as_deref(), Some("zone-outage"));
        // Static fleet: the 4 nodes stay round-robined 2 per zone, so the
        // outage kills exactly the dying zone's pair.
        assert_eq!(capacity.nodes_lost, 2, "exactly one 2-node zone dies");
        assert_eq!(capacity.admitted + capacity.shed, 60);
        // Rerunning the spec reproduces the fault run bit for bit.
        let rerun = run_sweep(&spec).unwrap();
        assert_eq!(
            point.live_report().unwrap().serving("GrandSLAM").unwrap(),
            rerun.points[0]
                .live_report()
                .unwrap()
                .serving("GrandSLAM")
                .unwrap()
        );
        // The JSON view carries the failure accounting.
        let doc = janus_json::parse(&result.to_json().to_pretty()).unwrap();
        let policy = &doc.require("points").unwrap().as_array().unwrap()[0]
            .require("policies")
            .unwrap()
            .as_array()
            .unwrap()[0];
        for key in ["failed", "retried", "nodes_lost", "node_seconds"] {
            assert!(policy.get(key).is_some(), "missing `{key}`");
        }
    }

    #[test]
    fn tenant_specs_flow_into_every_grid_point() {
        use crate::session::TenantLoad;
        let spec = SweepSpec {
            scenarios: vec!["poisson".into()],
            policies: vec!["GrandSLAM".into()],
            seeds: vec![7],
            tenants: Some(vec![TenantLoad {
                count: 2,
                scenario: "bursty".into(),
                rps: 1.0,
                slo_ms: None,
            }]),
            requests: 40,
            ..tiny_spec()
        };
        // Tenants multiply the load at each point, not the grid.
        assert_eq!(spec.grid_size(), 1);
        let result = run_sweep(&spec).unwrap();
        let report = result.points[0].live_report().unwrap();
        assert_eq!(report.tenants.as_ref().map(Vec::len), Some(1));
        assert_eq!(report.serving("GrandSLAM").unwrap().len(), 40);
        // Unknown tenant scenarios fail fast, pointing at the key.
        let err = run_sweep(&SweepSpec {
            tenants: Some(vec![TenantLoad {
                count: 1,
                scenario: "tsunami".into(),
                rps: 1.0,
                slo_ms: None,
            }]),
            ..tiny_spec()
        })
        .unwrap_err();
        assert!(err.contains("`tenants[0].scenario`"), "{err}");
        assert!(err.contains("unknown scenario `tsunami`"), "{err}");
    }

    #[test]
    fn bad_names_fail_fast_and_point_at_the_key() {
        let err = run_sweep(&SweepSpec {
            policies: vec!["GrandSLAM".into(), "Janux".into()],
            ..tiny_spec()
        })
        .unwrap_err();
        assert!(
            err.contains("`policies[1]`: unknown policy `Janux`"),
            "{err}"
        );
        let err = run_sweep(&SweepSpec {
            scenarios: vec!["tsunami".into()],
            ..tiny_spec()
        })
        .unwrap_err();
        assert!(err.contains("`scenarios[0]`"), "{err}");
        assert!(err.contains("unknown scenario `tsunami`"), "{err}");
        let err = run_sweep(&SweepSpec {
            autoscalers: Some(vec!["hypergrowth".into()]),
            ..tiny_spec()
        })
        .unwrap_err();
        assert!(err.contains("`autoscalers[0]`"), "{err}");
        let err = run_sweep(&SweepSpec {
            admissions: Some(vec!["bouncer".into()]),
            ..tiny_spec()
        })
        .unwrap_err();
        assert!(err.contains("`admissions[0]`"), "{err}");
        let err = run_sweep(&SweepSpec {
            faults: Some(vec!["meteor-strike".into()]),
            ..tiny_spec()
        })
        .unwrap_err();
        assert!(err.contains("`faults[0]`"), "{err}");
        assert!(err.contains("unknown fault injector"), "{err}");
        let err = run_sweep(&SweepSpec {
            observers: Some(vec!["black-box".into()]),
            ..tiny_spec()
        })
        .unwrap_err();
        assert!(err.contains("`observers[0]`"), "{err}");
        assert!(err.contains("unknown observer `black-box`"), "{err}");
        let err = run_sweep(&SweepSpec {
            loads_rps: vec![],
            ..tiny_spec()
        })
        .unwrap_err();
        assert!(err.contains("`loads_rps`"), "{err}");
        let err = run_sweep(&SweepSpec {
            seeds: vec![7, 11, 7],
            ..tiny_spec()
        })
        .unwrap_err();
        assert!(err.contains("`seeds[2]`: duplicate of `seeds[0]`"), "{err}");
    }
}
