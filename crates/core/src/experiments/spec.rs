//! The declarative, serializable experiment data model: [`SessionSpec`] (one
//! serving session as data) and [`SweepSpec`] (a full evaluation grid as
//! data).
//!
//! A spec is the textual twin of the [`ServingSession`] builder: everything
//! the builder accepts programmatically — app, concurrency, policies, load,
//! scenario, cluster, autoscaler, admission, seed, profiling knobs — can be
//! written down as JSON, checked into `specs/`, and executed with
//! `janus sweep <spec.json>` without writing a line of Rust. Encoding and
//! decoding are hand-rolled over [`janus_json::Value`] (the workspace has
//! no external dependency; see `DESIGN.md` §4): [`SweepSpec::to_json`] and
//! [`SweepSpec::from_json`] round-trip byte-identically, and the decoder is
//! *strict* — unknown keys, wrong types and missing required fields all name
//! the offending key, so a typo in a spec file fails loudly instead of
//! silently running the wrong grid.
//!
//! [`SweepSpec::expand`] turns the axes into the cartesian grid of
//! [`SessionSpec`] points (scenario-major, then load, seed, autoscaler,
//! admission, fault, observer); the [`sweep`](crate::experiments::sweep)
//! driver runs them in parallel.

use crate::registry::PolicyRegistry;
use crate::session::{strictest_slo, Load, ServingSession, ServingSessionBuilder, TenantLoad};
use janus_chaos::FaultRegistry;
use janus_json::{parse, Value};
use janus_observe::ObserverRegistry;
use janus_platform::capacity::{AdmissionRegistry, AutoscalerRegistry};
use janus_scenarios::ScenarioRegistry;
use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
use janus_simcore::resources::Millicores;
use janus_workloads::apps::PaperApp;

/// One serving session described as data: a single point of a sweep grid,
/// or a standalone session spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Application under test.
    pub app: PaperApp,
    /// Batch size (concurrency) requests are served at.
    pub concurrency: u32,
    /// Policy names served on the shared request set (paired comparison).
    pub policies: Vec<String>,
    /// Requests generated per policy.
    pub requests: usize,
    /// Open-loop mean arrival rate; `None` runs the closed loop.
    pub rps: Option<f64>,
    /// Arrival scenario name (open loop only; `None` keeps plain Poisson).
    pub scenario: Option<String>,
    /// Autoscaler name (open loop only; `None` leaves capacity uncontrolled).
    pub autoscaler: Option<String>,
    /// Admission-policy name (open loop only).
    pub admission: Option<String>,
    /// Fault-injector name (open loop only; `None` runs fault-free).
    pub fault: Option<String>,
    /// Observer name (`None` runs unobserved — the zero-cost default).
    pub observer: Option<String>,
    /// Cluster layout; `None` keeps the paper's single 52-core node.
    pub cluster: Option<ClusterConfig>,
    /// Tenant classes merged into the arrival stream (open loop only;
    /// `None` runs the single-stream session).
    pub tenants: Option<Vec<TenantLoad>>,
    /// Request / profiling seed.
    pub seed: u64,
    /// Profiler samples per grid point.
    pub samples_per_point: usize,
    /// Synthesizer budget step in milliseconds.
    pub budget_step_ms: f64,
}

/// Everything a session's set-up stage reads — profiling and every policy
/// build — as one ordered value; see [`SessionSpec::setup_key`]. Sessions
/// with equal keys build identical profiles and policies.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SetupKey {
    app: &'static str,
    concurrency: u32,
    seed: u64,
    samples_per_point: usize,
    slo_ms_bits: u64,
    budget_step_ms_bits: u64,
}

impl SessionSpec {
    /// The set-up inputs of this session. The profiler reads the workflow
    /// (from `app`), `concurrency`, `samples_per_point` and `seed` (as
    /// `seed ^ 0x5EED`). The policy context adds the SLO (the app's default
    /// at `concurrency`, tightened by any tenant `slo_ms`), the seed, and the
    /// synthesis budget step; its remaining fields are the same for every
    /// spec — the paper's core grid, the paper-calibrated interference model
    /// of `ExecutorConfig::paper_serving` (which `cluster` does not change)
    /// and the head-function weight, which a session does not set: it is
    /// always `SynthesisSettings::default()`'s.
    ///
    /// Serve-only fields stay out: `scenario`, `rps`, `autoscaler`,
    /// `admission`, `fault`, `observer`, `cluster`, `tenants` (but for their
    /// SLO), `requests`, and `policies` (built and kept per name). Policies
    /// whose factories read the request set are rebuilt for every session,
    /// key or no key.
    pub(crate) fn setup_key(&self) -> SetupKey {
        let slo = strictest_slo(
            self.app.default_slo(self.concurrency),
            self.tenants.as_deref().unwrap_or_default(),
        );
        SetupKey {
            app: self.app.short_name(),
            concurrency: self.concurrency,
            seed: self.seed,
            samples_per_point: self.samples_per_point,
            slo_ms_bits: slo.as_millis().to_bits(),
            budget_step_ms_bits: self.budget_step_ms.to_bits(),
        }
    }

    /// Qualify error `e` of this spec, grid point `index` of a sweep, with
    /// the point's coordinates.
    pub(crate) fn at_point(&self, index: usize, e: String) -> String {
        format!(
            "point {index} (scenario `{}`, {} rps, seed {}): {e}",
            self.scenario.as_deref().unwrap_or("-"),
            self.rps.unwrap_or(f64::NAN),
            self.seed
        )
    }

    /// The equivalent [`ServingSession`] builder: apply every field of the
    /// spec, leave everything else at the builder's defaults.
    pub fn builder(&self) -> ServingSessionBuilder {
        let mut builder = ServingSession::builder()
            .app(self.app)
            .concurrency(self.concurrency)
            .policies(self.policies.clone())
            .seed(self.seed)
            .samples_per_point(self.samples_per_point)
            .budget_step_ms(self.budget_step_ms);
        builder = match self.rps {
            Some(rps) => builder.load(Load::Open {
                requests: self.requests,
                rps,
            }),
            None => builder.load(Load::Closed {
                requests: self.requests,
            }),
        };
        if let Some(scenario) = &self.scenario {
            builder = builder.scenario(scenario);
        }
        if let Some(cluster) = &self.cluster {
            builder = builder.cluster(cluster.clone());
        }
        if let Some(tenants) = &self.tenants {
            builder = builder.tenants(tenants.iter().cloned());
        }
        if let Some(autoscaler) = &self.autoscaler {
            builder = builder.autoscaler(autoscaler);
        }
        if let Some(admission) = &self.admission {
            builder = builder.admission(admission);
        }
        if let Some(fault) = &self.fault {
            builder = builder.fault(fault);
        }
        if let Some(observer) = &self.observer {
            builder = builder.observe(observer);
        }
        builder
    }

    /// Encode as a JSON object (optional fields omitted when unset).
    pub fn to_json(&self) -> Value {
        let mut members = vec![
            ("app".to_string(), Value::Str(self.app.short_name().into())),
            (
                "concurrency".to_string(),
                Value::Num(self.concurrency as f64),
            ),
            (
                "policies".to_string(),
                Value::Arr(
                    self.policies
                        .iter()
                        .map(|p| Value::Str(p.clone()))
                        .collect(),
                ),
            ),
            ("requests".to_string(), Value::Num(self.requests as f64)),
        ];
        if let Some(rps) = self.rps {
            members.push(("rps".to_string(), Value::Num(rps)));
        }
        for (key, field) in [
            ("scenario", &self.scenario),
            ("autoscaler", &self.autoscaler),
            ("admission", &self.admission),
            ("fault", &self.fault),
            ("observer", &self.observer),
        ] {
            if let Some(name) = field {
                members.push((key.to_string(), Value::Str(name.clone())));
            }
        }
        if let Some(cluster) = &self.cluster {
            members.push(("cluster".to_string(), cluster_to_json(cluster)));
        }
        if let Some(tenants) = &self.tenants {
            members.push(("tenants".to_string(), tenants_to_json(tenants)));
        }
        members.push(("seed".to_string(), Value::Num(self.seed as f64)));
        members.push((
            "samples_per_point".to_string(),
            Value::Num(self.samples_per_point as f64),
        ));
        members.push((
            "budget_step_ms".to_string(),
            Value::Num(self.budget_step_ms),
        ));
        Value::Obj(members)
    }
}

/// A full evaluation described as data: the cartesian grid of
/// scenarios × loads × seeds × autoscalers × admissions × faults ×
/// observers, each point serving every listed policy on a shared request
/// set.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Human-readable sweep name (reported in the output document).
    pub name: String,
    /// Application under test.
    pub app: PaperApp,
    /// Batch size (concurrency) requests are served at.
    pub concurrency: u32,
    /// Policy names served at every grid point (the paired axis).
    pub policies: Vec<String>,
    /// Arrival-scenario axis.
    pub scenarios: Vec<String>,
    /// Open-loop mean-arrival-rate axis (requests per second).
    pub loads_rps: Vec<f64>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Autoscaler axis; `None` leaves capacity uncontrolled everywhere.
    pub autoscalers: Option<Vec<String>>,
    /// Admission-policy axis; `None` admits everything everywhere.
    pub admissions: Option<Vec<String>>,
    /// Fault-injector axis; `None` runs every point fault-free.
    pub faults: Option<Vec<String>>,
    /// Observer axis; `None` runs every point unobserved.
    pub observers: Option<Vec<String>>,
    /// Cluster layout; `None` keeps the paper's single 52-core node.
    pub cluster: Option<ClusterConfig>,
    /// Tenant classes merged into every grid point's arrival stream
    /// (`None` runs single-stream sessions). Applies uniformly, like
    /// `cluster` — it multiplies the load at each point, not the grid.
    pub tenants: Option<Vec<TenantLoad>>,
    /// Requests generated per policy per grid point.
    pub requests: usize,
    /// Profiler samples per grid point.
    pub samples_per_point: usize,
    /// Synthesizer budget step in milliseconds.
    pub budget_step_ms: f64,
}

/// Reject the first value of axis `key` that repeats an earlier one.
fn no_duplicates<T: PartialEq>(key: &str, axis: &[T]) -> Result<(), String> {
    for (i, value) in axis.iter().enumerate() {
        if let Some(first) = axis[..i].iter().position(|earlier| earlier == value) {
            return Err(format!("`{key}[{i}]`: duplicate of `{key}[{first}]`"));
        }
    }
    Ok(())
}

impl SweepSpec {
    /// Check the spec before anything runs: every axis that must be
    /// non-empty is, no axis repeats a value, every rate is positive, and
    /// every name resolves against the built-in registries. Then every
    /// expanded point must pass [`ServingSessionBuilder::build`], the one
    /// session validator; a failure names the point and, where a spec key
    /// caused it, the key.
    pub fn validate(&self) -> Result<(), String> {
        for (key, empty) in [
            ("policies", self.policies.is_empty()),
            ("scenarios", self.scenarios.is_empty()),
            ("loads_rps", self.loads_rps.is_empty()),
            ("seeds", self.seeds.is_empty()),
            (
                "autoscalers",
                self.autoscalers.as_deref().is_some_and(<[_]>::is_empty),
            ),
            (
                "admissions",
                self.admissions.as_deref().is_some_and(<[_]>::is_empty),
            ),
            (
                "faults",
                self.faults.as_deref().is_some_and(<[_]>::is_empty),
            ),
            (
                "observers",
                self.observers.as_deref().is_some_and(<[_]>::is_empty),
            ),
        ] {
            if empty {
                return Err(format!("`{key}`: axis must not be empty"));
            }
        }
        if let Some(bad) = self
            .loads_rps
            .iter()
            .find(|rps| !(rps.is_finite() && **rps > 0.0))
        {
            return Err(format!("`loads_rps`: rate {bad} must be positive"));
        }
        // A repeated axis value would run its points twice, and only the
        // first copy is reachable through `SweepResult::point`.
        for (key, axis) in [
            ("policies", &self.policies[..]),
            ("scenarios", &self.scenarios[..]),
            (
                "autoscalers",
                self.autoscalers.as_deref().unwrap_or_default(),
            ),
            ("admissions", self.admissions.as_deref().unwrap_or_default()),
            ("faults", self.faults.as_deref().unwrap_or_default()),
            ("observers", self.observers.as_deref().unwrap_or_default()),
        ] {
            no_duplicates(key, axis)?;
        }
        no_duplicates("loads_rps", &self.loads_rps)?;
        no_duplicates("seeds", &self.seeds)?;
        self.resolve_names()?;
        for (index, point) in self.expand().iter().enumerate() {
            point
                .builder()
                .build()
                .map_err(|e| point.at_point(index, e))?;
        }
        Ok(())
    }

    /// Resolve every name in the spec against the built-in registries,
    /// reporting the offending spec key on failure.
    fn resolve_names(&self) -> Result<(), String> {
        let policies = PolicyRegistry::with_builtins();
        for (i, name) in self.policies.iter().enumerate() {
            policies
                .ensure_known(name)
                .map_err(|e| format!("`policies[{i}]`: {e}"))?;
        }
        let scenarios = ScenarioRegistry::with_builtins();
        for (i, name) in self.scenarios.iter().enumerate() {
            scenarios
                .ensure_known(name)
                .map_err(|e| format!("`scenarios[{i}]`: {e}"))?;
        }
        for (i, tenant) in self.tenants.iter().flatten().enumerate() {
            scenarios
                .ensure_known(&tenant.scenario)
                .map_err(|e| format!("`tenants[{i}].scenario`: {e}"))?;
        }
        let autoscalers = AutoscalerRegistry::with_builtins();
        for (i, name) in self.autoscalers.iter().flatten().enumerate() {
            autoscalers
                .ensure_known(name)
                .map_err(|e| format!("`autoscalers[{i}]`: {e}"))?;
        }
        let admissions = AdmissionRegistry::with_builtins();
        for (i, name) in self.admissions.iter().flatten().enumerate() {
            admissions
                .ensure_known(name)
                .map_err(|e| format!("`admissions[{i}]`: {e}"))?;
        }
        let faults = FaultRegistry::with_builtins();
        for (i, name) in self.faults.iter().flatten().enumerate() {
            faults
                .ensure_known(name)
                .map_err(|e| format!("`faults[{i}]`: {e}"))?;
        }
        let observers = ObserverRegistry::with_builtins();
        for (i, name) in self.observers.iter().flatten().enumerate() {
            observers
                .ensure_known(name)
                .map_err(|e| format!("`observers[{i}]`: {e}"))?;
        }
        Ok(())
    }

    /// Number of grid points the spec expands to.
    pub fn grid_size(&self) -> usize {
        self.scenarios.len()
            * self.loads_rps.len()
            * self.seeds.len()
            * self.autoscalers.as_ref().map_or(1, Vec::len)
            * self.admissions.as_ref().map_or(1, Vec::len)
            * self.faults.as_ref().map_or(1, Vec::len)
            * self.observers.as_ref().map_or(1, Vec::len)
    }

    /// Expand the axes into the cartesian grid of session specs, in
    /// deterministic order: scenario-major, then load, seed, autoscaler,
    /// admission, fault, observer.
    pub fn expand(&self) -> Vec<SessionSpec> {
        let optionals = |axis: &Option<Vec<String>>| -> Vec<Option<String>> {
            match axis {
                Some(names) => names.iter().cloned().map(Some).collect(),
                None => vec![None],
            }
        };
        let autoscalers = optionals(&self.autoscalers);
        let admissions = optionals(&self.admissions);
        let faults = optionals(&self.faults);
        let observers = optionals(&self.observers);
        let mut points = Vec::with_capacity(self.grid_size());
        for scenario in &self.scenarios {
            for &rps in &self.loads_rps {
                for &seed in &self.seeds {
                    for autoscaler in &autoscalers {
                        for admission in &admissions {
                            for fault in &faults {
                                for observer in &observers {
                                    points.push(SessionSpec {
                                        app: self.app,
                                        concurrency: self.concurrency,
                                        policies: self.policies.clone(),
                                        requests: self.requests,
                                        rps: Some(rps),
                                        scenario: Some(scenario.clone()),
                                        autoscaler: autoscaler.clone(),
                                        admission: admission.clone(),
                                        fault: fault.clone(),
                                        observer: observer.clone(),
                                        cluster: self.cluster.clone(),
                                        tenants: self.tenants.clone(),
                                        seed,
                                        samples_per_point: self.samples_per_point,
                                        budget_step_ms: self.budget_step_ms,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }

    /// Encode as a JSON object. `parse(spec.to_json().to_pretty())` decodes
    /// back to an equal spec, and re-encoding is byte-identical.
    pub fn to_json(&self) -> Value {
        let strings =
            |names: &[String]| Value::Arr(names.iter().map(|n| Value::Str(n.clone())).collect());
        let mut members = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("app".to_string(), Value::Str(self.app.short_name().into())),
            (
                "concurrency".to_string(),
                Value::Num(self.concurrency as f64),
            ),
            ("policies".to_string(), strings(&self.policies)),
            ("scenarios".to_string(), strings(&self.scenarios)),
            (
                "loads_rps".to_string(),
                Value::Arr(self.loads_rps.iter().map(|&r| Value::Num(r)).collect()),
            ),
            (
                "seeds".to_string(),
                Value::Arr(self.seeds.iter().map(|&s| Value::Num(s as f64)).collect()),
            ),
        ];
        if let Some(autoscalers) = &self.autoscalers {
            members.push(("autoscalers".to_string(), strings(autoscalers)));
        }
        if let Some(admissions) = &self.admissions {
            members.push(("admissions".to_string(), strings(admissions)));
        }
        if let Some(faults) = &self.faults {
            members.push(("faults".to_string(), strings(faults)));
        }
        if let Some(observers) = &self.observers {
            members.push(("observers".to_string(), strings(observers)));
        }
        if let Some(cluster) = &self.cluster {
            members.push(("cluster".to_string(), cluster_to_json(cluster)));
        }
        if let Some(tenants) = &self.tenants {
            members.push(("tenants".to_string(), tenants_to_json(tenants)));
        }
        members.push(("requests".to_string(), Value::Num(self.requests as f64)));
        members.push((
            "samples_per_point".to_string(),
            Value::Num(self.samples_per_point as f64),
        ));
        members.push((
            "budget_step_ms".to_string(),
            Value::Num(self.budget_step_ms),
        ));
        Value::Obj(members)
    }

    /// Decode a spec from a parsed JSON document. Strict: unknown keys,
    /// wrong types and missing required fields all report the offending key.
    pub fn from_json(doc: &Value) -> Result<SweepSpec, String> {
        let obj = Decoder::new(
            doc,
            &[
                "name",
                "app",
                "concurrency",
                "policies",
                "scenarios",
                "loads_rps",
                "seeds",
                "autoscalers",
                "admissions",
                "faults",
                "observers",
                "cluster",
                "tenants",
                "requests",
                "samples_per_point",
                "budget_step_ms",
            ],
        )?;
        let spec = SweepSpec {
            name: obj.string("name")?,
            app: obj.app("app")?,
            concurrency: obj.u32_or("concurrency", 1)?,
            policies: obj.string_list("policies")?,
            scenarios: obj.string_list("scenarios")?,
            loads_rps: obj.f64_list("loads_rps")?,
            seeds: obj.u64_list_or("seeds", &[7])?,
            autoscalers: obj.optional_string_list("autoscalers")?,
            admissions: obj.optional_string_list("admissions")?,
            faults: obj.optional_string_list("faults")?,
            observers: obj.optional_string_list("observers")?,
            cluster: obj.cluster("cluster")?,
            tenants: obj.tenants("tenants")?,
            requests: obj.usize("requests")?,
            samples_per_point: obj.usize_or("samples_per_point", 1000)?,
            budget_step_ms: obj.f64_or("budget_step_ms", 1.0)?,
        };
        spec.validate()?;
        Ok(spec)
    }
}

impl std::str::FromStr for SweepSpec {
    type Err = String;

    /// Decode a spec from JSON text (the `janus sweep <spec.json>` entry
    /// point).
    fn from_str(text: &str) -> Result<SweepSpec, String> {
        SweepSpec::from_json(&parse(text).map_err(|e| format!("spec is not valid JSON: {e}"))?)
    }
}

fn cluster_to_json(cluster: &ClusterConfig) -> Value {
    let mut members = vec![
        ("nodes".to_string(), Value::Num(cluster.nodes as f64)),
        (
            "node_capacity_mc".to_string(),
            Value::Num(cluster.node_capacity.get() as f64),
        ),
        (
            "placement".to_string(),
            Value::Str(
                match cluster.placement {
                    PlacementPolicy::Spread => "spread",
                    PlacementPolicy::PackSameFunction => "pack",
                }
                .to_string(),
            ),
        ),
    ];
    // Emitted only for multi-zone topologies, so single-zone specs written
    // before zones existed still round-trip byte-identically.
    if cluster.zones > 1 {
        members.push(("zones".to_string(), Value::Num(cluster.zones as f64)));
    }
    Value::Obj(members)
}

fn tenants_to_json(tenants: &[TenantLoad]) -> Value {
    Value::Arr(
        tenants
            .iter()
            .map(|tenant| {
                let mut members = vec![
                    ("count".to_string(), Value::Num(tenant.count as f64)),
                    ("scenario".to_string(), Value::Str(tenant.scenario.clone())),
                    ("rps".to_string(), Value::Num(tenant.rps)),
                ];
                // Emitted only when set, so SLO-less tenant specs round-trip
                // byte-identically.
                if let Some(ms) = tenant.slo_ms {
                    members.push(("slo_ms".to_string(), Value::Num(ms)));
                }
                Value::Obj(members)
            })
            .collect(),
    )
}

/// Strict object decoder with key-qualified error messages.
struct Decoder<'a> {
    obj: &'a [(String, Value)],
}

impl<'a> Decoder<'a> {
    fn new(doc: &'a Value, known_keys: &[&str]) -> Result<Self, String> {
        let Value::Obj(obj) = doc else {
            return Err("spec must be a JSON object".into());
        };
        for (key, _) in obj {
            if !known_keys.contains(&key.as_str()) {
                return Err(format!(
                    "unknown key `{key}`; expected one of: {}",
                    known_keys.join(", ")
                ));
            }
        }
        let mut seen: Vec<&str> = Vec::new();
        for (key, _) in obj {
            if seen.contains(&key.as_str()) {
                return Err(format!("duplicate key `{key}`"));
            }
            seen.push(key);
        }
        Ok(Decoder { obj })
    }

    fn get(&self, key: &str) -> Option<&'a Value> {
        self.obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn required(&self, key: &str) -> Result<&'a Value, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required key `{key}`"))
    }

    fn string(&self, key: &str) -> Result<String, String> {
        self.required(key)?
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| format!("`{key}`: expected a string"))
    }

    fn app(&self, key: &str) -> Result<PaperApp, String> {
        let name = self.string(key)?;
        PaperApp::ALL
            .into_iter()
            .find(|app| app.short_name() == name)
            .ok_or_else(|| {
                format!(
                    "`{key}`: unknown app `{name}`; expected one of: {}",
                    PaperApp::ALL.map(|a| a.short_name()).join(", ")
                )
            })
    }

    fn finite(&self, key: &str, value: &Value) -> Result<f64, String> {
        value
            .as_f64()
            .ok_or_else(|| format!("`{key}`: expected a number"))
    }

    fn integer(&self, key: &str, value: &Value) -> Result<u64, String> {
        // JSON numbers are f64s; above 2^53 an integer-looking value may
        // already have been rounded, so a spec carrying one would silently
        // run something other than what the file records. Reject it.
        const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        let n = self.finite(key, value)?;
        // janus-lint: allow(float-cmp) — exactness is the point: fract() must be exactly zero for an integer-valued f64
        if n < 0.0 || n.fract() != 0.0 || n > MAX_EXACT {
            return Err(format!(
                "`{key}`: expected a non-negative integer (at most 2^53), got {n}"
            ));
        }
        Ok(n as u64)
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        Ok(self.integer(key, self.required(key)?)? as usize)
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            Some(value) => Ok(self.integer(key, value)? as usize),
            None => Ok(default),
        }
    }

    fn u32_or(&self, key: &str, default: u32) -> Result<u32, String> {
        match self.get(key) {
            Some(value) => {
                let n = self.integer(key, value)?;
                u32::try_from(n).map_err(|_| format!("`{key}`: {n} does not fit in u32"))
            }
            None => Ok(default),
        }
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            Some(value) => self.finite(key, value),
            None => Ok(default),
        }
    }

    fn array(&self, key: &str, value: &'a Value) -> Result<&'a [Value], String> {
        value
            .as_array()
            .ok_or_else(|| format!("`{key}`: expected an array"))
    }

    fn string_list_from(&self, key: &str, value: &'a Value) -> Result<Vec<String>, String> {
        self.array(key, value)?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("`{key}[{i}]`: expected a string"))
            })
            .collect()
    }

    fn string_list(&self, key: &str) -> Result<Vec<String>, String> {
        self.string_list_from(key, self.required(key)?)
    }

    fn optional_string_list(&self, key: &str) -> Result<Option<Vec<String>>, String> {
        match self.get(key) {
            Some(value) => Ok(Some(self.string_list_from(key, value)?)),
            None => Ok(None),
        }
    }

    fn f64_list(&self, key: &str) -> Result<Vec<f64>, String> {
        self.array(key, self.required(key)?)?
            .iter()
            .enumerate()
            .map(|(i, v)| self.finite(&format!("{key}[{i}]"), v))
            .collect()
    }

    fn u64_list_or(&self, key: &str, default: &[u64]) -> Result<Vec<u64>, String> {
        match self.get(key) {
            Some(value) => self
                .array(key, value)?
                .iter()
                .enumerate()
                .map(|(i, v)| self.integer(&format!("{key}[{i}]"), v))
                .collect(),
            None => Ok(default.to_vec()),
        }
    }

    fn tenants(&self, key: &str) -> Result<Option<Vec<TenantLoad>>, String> {
        let Some(value) = self.get(key) else {
            return Ok(None);
        };
        let items = self.array(key, value)?;
        let mut tenants = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let label = format!("{key}[{i}]");
            let qualify = |e: String| format!("`{label}`: {e}");
            let obj = Decoder::new(item, &["count", "scenario", "rps", "slo_ms"])
                .map_err(|e| qualify(format!("tenant {e}")))?;
            let slo_ms = match obj.get("slo_ms") {
                Some(v) => Some(obj.finite(&format!("{label}.slo_ms"), v)?),
                None => None,
            };
            tenants.push(TenantLoad {
                count: obj.usize("count").map_err(qualify)?,
                scenario: obj.string("scenario").map_err(qualify)?,
                rps: obj.finite(
                    &format!("{label}.rps"),
                    obj.required("rps").map_err(qualify)?,
                )?,
                slo_ms,
            });
        }
        Ok(Some(tenants))
    }

    fn cluster(&self, key: &str) -> Result<Option<ClusterConfig>, String> {
        let Some(value) = self.get(key) else {
            return Ok(None);
        };
        let obj = Decoder::new(value, &["nodes", "node_capacity_mc", "placement", "zones"])
            .map_err(|e| format!("`{key}`: {e}"))?;
        let placement = match obj.string("placement")?.as_str() {
            "spread" => PlacementPolicy::Spread,
            "pack" => PlacementPolicy::PackSameFunction,
            other => {
                return Err(format!(
                    "`{key}.placement`: unknown placement `{other}`; expected `spread` or `pack`"
                ))
            }
        };
        let node_capacity = obj.usize("node_capacity_mc")?;
        let node_capacity = u32::try_from(node_capacity).map_err(|_| {
            format!("`{key}.node_capacity_mc`: {node_capacity} does not fit in u32")
        })?;
        Ok(Some(ClusterConfig {
            nodes: obj.usize("nodes")?,
            node_capacity: Millicores(node_capacity),
            placement,
            zones: obj.usize_or("zones", 1)?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr as _;

    pub(crate) fn tiny_spec() -> SweepSpec {
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
    fn expansion_is_the_ordered_cartesian_grid() {
        let mut spec = tiny_spec();
        spec.autoscalers = Some(vec!["static".into(), "queue-depth".into()]);
        spec.admissions = Some(vec!["token-bucket".into()]);
        assert_eq!(spec.grid_size(), 8);
        let points = spec.expand();
        assert_eq!(points.len(), spec.grid_size());
        // Scenario-major order; within a scenario, seeds then autoscalers.
        assert_eq!(points[0].scenario.as_deref(), Some("poisson"));
        assert_eq!(points[0].seed, 7);
        assert_eq!(points[0].autoscaler.as_deref(), Some("static"));
        assert_eq!(points[1].autoscaler.as_deref(), Some("queue-depth"));
        assert_eq!(points[2].seed, 11);
        assert_eq!(points[4].scenario.as_deref(), Some("flash-crowd"));
        for point in &points {
            assert_eq!(point.policies, spec.policies);
            assert_eq!(point.rps, Some(2.0));
            assert_eq!(point.admission.as_deref(), Some("token-bucket"));
        }
        // Without capacity axes, the grid leaves capacity uncontrolled.
        let plain = tiny_spec().expand();
        assert_eq!(plain.len(), 4);
        assert!(plain.iter().all(|p| p.autoscaler.is_none()));
    }

    #[test]
    fn specs_round_trip_through_json_byte_identically() {
        let mut spec = tiny_spec();
        spec.autoscalers = Some(vec!["utilization".into()]);
        spec.cluster = Some(ClusterConfig {
            nodes: 2,
            node_capacity: Millicores::from_cores(8),
            placement: PlacementPolicy::Spread,
            zones: 1,
        });
        let first = spec.to_json().to_pretty();
        let decoded = SweepSpec::from_str(&first).unwrap();
        assert_eq!(decoded, spec);
        assert_eq!(decoded.to_json().to_pretty(), first);
        // Session specs round-trip structurally too (their JSON view is
        // embedded in sweep outputs).
        let point = spec.expand().remove(0);
        let doc = point.to_json();
        assert_eq!(
            doc.get("scenario").and_then(|v| v.as_str()),
            Some("poisson")
        );
        assert_eq!(
            doc.get("cluster")
                .and_then(|c| c.get("node_capacity_mc"))
                .and_then(|v| v.as_f64()),
            Some(8000.0)
        );
    }

    #[test]
    fn fault_axis_and_zones_round_trip_and_expand_innermost() {
        let mut spec = tiny_spec();
        spec.scenarios = vec!["flash-crowd".into()];
        spec.seeds = vec![7];
        spec.autoscalers = Some(vec!["static".into(), "utilization".into()]);
        spec.faults = Some(vec!["zone-outage".into(), "node-crash".into()]);
        spec.cluster = Some(ClusterConfig {
            nodes: 4,
            node_capacity: Millicores::from_cores(8),
            placement: PlacementPolicy::Spread,
            zones: 2,
        });
        assert_eq!(spec.grid_size(), 4);
        let points = spec.expand();
        // Fault is the innermost axis.
        assert_eq!(points[0].fault.as_deref(), Some("zone-outage"));
        assert_eq!(points[1].fault.as_deref(), Some("node-crash"));
        assert_eq!(points[0].autoscaler, points[1].autoscaler);
        assert_eq!(points[2].autoscaler.as_deref(), Some("utilization"));
        // Byte-identical JSON round-trip, zones included.
        let text = spec.to_json().to_pretty();
        let decoded = SweepSpec::from_str(&text).unwrap();
        assert_eq!(decoded, spec);
        assert_eq!(decoded.to_json().to_pretty(), text);
        assert!(text.contains("\"zones\""), "{text}");
        // Single-zone clusters keep the pre-zones encoding (no `zones` key).
        let mut flat = tiny_spec();
        flat.cluster = Some(ClusterConfig {
            zones: 1,
            ..spec.cluster.clone().unwrap()
        });
        assert!(!flat.to_json().to_pretty().contains("\"zones\""));
        // Session specs carry the fault through to the JSON view.
        let doc = points[0].to_json();
        assert_eq!(
            doc.get("fault").and_then(|v| v.as_str()),
            Some("zone-outage")
        );
        // An empty faults axis is rejected like every other axis.
        let err = SweepSpec {
            faults: Some(vec![]),
            ..tiny_spec()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("`faults`"), "{err}");
    }

    #[test]
    fn observer_axis_rides_innermost_and_round_trips() {
        let mut spec = tiny_spec();
        spec.scenarios = vec!["flash-crowd".into()];
        spec.seeds = vec![7];
        spec.faults = Some(vec!["zone-outage".into()]);
        spec.observers = Some(vec!["flight-recorder".into(), "spans".into()]);
        assert_eq!(spec.grid_size(), 2);
        let points = spec.expand();
        assert_eq!(points[0].observer.as_deref(), Some("flight-recorder"));
        assert_eq!(points[1].observer.as_deref(), Some("spans"));
        assert_eq!(points[0].fault, points[1].fault);
        // Byte-identical JSON round-trip.
        let text = spec.to_json().to_pretty();
        let decoded = SweepSpec::from_str(&text).unwrap();
        assert_eq!(decoded, spec);
        assert_eq!(decoded.to_json().to_pretty(), text);
        // Session specs carry the observer through to the JSON view.
        let doc = points[0].to_json();
        assert_eq!(
            doc.get("observer").and_then(|v| v.as_str()),
            Some("flight-recorder")
        );
        // Unobserved specs keep the pre-observer encoding.
        assert!(!tiny_spec().to_json().to_pretty().contains("observers"));
        let err = SweepSpec {
            observers: Some(vec![]),
            ..tiny_spec()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("`observers`"), "{err}");
    }

    #[test]
    fn tenant_specs_round_trip_and_errors_name_the_tenant_key() {
        let mut spec = tiny_spec();
        spec.tenants = Some(vec![
            TenantLoad {
                count: 2,
                scenario: "bursty".into(),
                rps: 1.5,
                slo_ms: Some(1500.0),
            },
            TenantLoad {
                count: 1,
                scenario: "flash-crowd".into(),
                rps: 3.0,
                slo_ms: None,
            },
        ]);
        let text = spec.to_json().to_pretty();
        let decoded = SweepSpec::from_str(&text).unwrap();
        assert_eq!(decoded, spec);
        assert_eq!(decoded.to_json().to_pretty(), text);
        // Every expanded point carries the tenants through to its session
        // spec and JSON view.
        let points = spec.expand();
        assert!(points.iter().all(|p| p.tenants == spec.tenants));
        let doc = points[0].to_json();
        let tenants = doc.get("tenants").unwrap().as_array().unwrap();
        assert_eq!(tenants.len(), 2);
        assert_eq!(tenants[0].get("count").and_then(|v| v.as_f64()), Some(2.0));
        assert!(tenants[1].get("slo_ms").is_none());
        // Tenant-less specs keep the pre-tenancy encoding.
        assert!(!tiny_spec().to_json().to_pretty().contains("tenants"));
        // Strict decoding points at the offending tenant key.
        let base = r#""name": "x", "app": "IA", "policies": ["Janus"],
                       "scenarios": ["poisson"], "loads_rps": [1.0], "requests": 5"#;
        let cases: &[(&str, &str)] = &[
            (
                r#""tenants": [{"scenario": "bursty", "rps": 1.0}]"#,
                "`tenants[0]`: missing required key `count`",
            ),
            (
                r#""tenants": [{"count": 1, "scenario": "bursty", "rps": 1.0, "burst": 2}]"#,
                "`tenants[0]`: tenant unknown key `burst`",
            ),
            (
                r#""tenants": [{"count": 1, "scenario": "bursty", "rps": "fast"}]"#,
                "`tenants[0].rps`: expected a number",
            ),
            (
                r#""tenants": [{"count": 0, "scenario": "bursty", "rps": 1.0}]"#,
                "`tenants[0].count`: must be at least 1",
            ),
            (
                r#""tenants": [{"count": 1, "scenario": "bursty", "rps": 1.0,
                               "slo_ms": -5}]"#,
                "`tenants[0].slo_ms`: -5 must be positive",
            ),
            (r#""tenants": []"#, "`tenants`: must list at least one"),
        ];
        for (tenants, needle) in cases {
            let err = SweepSpec::from_str(&format!("{{{base}, {tenants}}}")).unwrap_err();
            assert!(err.contains(needle), "expected `{needle}` in `{err}`");
        }
    }

    #[test]
    fn decoding_applies_defaults_and_stays_minimal() {
        let spec = SweepSpec::from_str(
            r#"{
                "name": "minimal",
                "app": "VA",
                "policies": ["GrandSLAM"],
                "scenarios": ["bursty"],
                "loads_rps": [1.5],
                "requests": 50
            }"#,
        )
        .unwrap();
        assert_eq!(spec.app, PaperApp::VideoAnalyze);
        assert_eq!(spec.concurrency, 1);
        assert_eq!(spec.seeds, vec![7]);
        assert_eq!(spec.samples_per_point, 1000);
        assert!((spec.budget_step_ms - 1.0).abs() < 1e-12);
        assert!(spec.autoscalers.is_none() && spec.cluster.is_none());
    }

    #[test]
    fn decode_errors_name_the_offending_key() {
        let cases: &[(&str, &str)] = &[
            (r#"[1, 2]"#, "spec must be a JSON object"),
            (r#"{"nome": "x"}"#, "unknown key `nome`"),
            (r#"{"app": "IA"}"#, "missing required key `name`"),
            (
                r#"{"name": "x", "app": "Lambda", "policies": ["Janus"],
                    "scenarios": ["poisson"], "loads_rps": [1.0], "requests": 5}"#,
                "`app`: unknown app `Lambda`",
            ),
            (
                r#"{"name": "x", "app": "IA", "policies": ["Janus", 3],
                    "scenarios": ["poisson"], "loads_rps": [1.0], "requests": 5}"#,
                "`policies[1]`: expected a string",
            ),
            (
                r#"{"name": "x", "app": "IA", "policies": ["Janus"],
                    "scenarios": [], "loads_rps": [1.0], "requests": 5}"#,
                "`scenarios`: axis must not be empty",
            ),
            (
                r#"{"name": "x", "app": "IA", "policies": ["Janus"],
                    "scenarios": ["poisson"], "loads_rps": [-1.0], "requests": 5}"#,
                "`loads_rps`: rate -1 must be positive",
            ),
            (
                r#"{"name": "x", "app": "IA", "policies": ["Janus"],
                    "scenarios": ["poisson"], "loads_rps": [1.0], "requests": 5,
                    "seeds": [1.5]}"#,
                "`seeds[0]`: expected a non-negative integer",
            ),
            (
                // 2^64: integer-shaped but outside what an f64 represents
                // exactly; must be rejected, not saturated to u64::MAX.
                r#"{"name": "x", "app": "IA", "policies": ["Janus"],
                    "scenarios": ["poisson"], "loads_rps": [1.0], "requests": 5,
                    "seeds": [18446744073709551616]}"#,
                "`seeds[0]`: expected a non-negative integer",
            ),
            (
                r#"{"name": "x", "app": "IA", "policies": ["Janus"],
                    "scenarios": ["poisson"], "loads_rps": [1.0], "requests": 5,
                    "concurrency": 0}"#,
                "`concurrency`: must be at least 1",
            ),
            (
                r#"{"name": "x", "app": "IA", "policies": ["Janus"],
                    "scenarios": ["poisson"], "loads_rps": [1.0], "requests": 5,
                    "cluster": {"nodes": 2, "node_capacity_mc": 8000,
                                "placement": "tetris"}}"#,
                "`cluster.placement`: unknown placement `tetris`",
            ),
            (
                r#"{"name": "x", "app": "IA", "policies": ["Janus"],
                    "scenarios": ["poisson"], "loads_rps": [1.0], "requests": 5,
                    "cluster": {"nodes": 2}}"#,
                "missing required key `placement`",
            ),
            (
                r#"{"name": "x", "app": "IA", "policies": ["Janus"],
                    "scenarios": ["poisson"], "loads_rps": [1.0], "requests": 5,
                    "seeds": [7, 7]}"#,
                "`seeds[1]`: duplicate of `seeds[0]`",
            ),
            (
                r#"{"name": "x", "app": "IA", "policies": ["Janus"],
                    "scenarios": ["poisson", "bursty", "poisson"], "loads_rps": [1.0],
                    "requests": 5}"#,
                "`scenarios[2]`: duplicate of `scenarios[0]`",
            ),
            (
                r#"{"name": "x", "app": "IA", "policies": ["Janus"],
                    "scenarios": ["poisson"], "loads_rps": [1.0, 2.0, 1.0], "requests": 5}"#,
                "`loads_rps[2]`: duplicate of `loads_rps[0]`",
            ),
            (
                r#"{"name": "x", "app": "IA", "policies": ["Janus"],
                    "scenarios": ["poisson"], "loads_rps": [1.0], "requests": 5,
                    "faults": ["node-crash", "zone-outage", "zone-outage"]}"#,
                "`faults[2]`: duplicate of `faults[1]`",
            ),
            (
                r#"{"name": "x", "name": "y", "app": "IA", "policies": ["Janus"],
                    "scenarios": ["poisson"], "loads_rps": [1.0], "requests": 5}"#,
                "duplicate key `name`",
            ),
        ];
        for (text, needle) in cases {
            let err = SweepSpec::from_str(text).unwrap_err();
            assert!(err.contains(needle), "expected `{needle}` in `{err}`");
        }
    }

    #[test]
    fn every_value_the_session_builder_rejects_fails_decoding_at_its_key() {
        let base = r#""name": "x", "policies": ["Janus"], "scenarios": ["poisson"],
                       "loads_rps": [1.0]"#;
        let tenant = |fields: &str| format!(r#""app": "IA", "requests": 5, "tenants": [{fields}]"#);
        let cases: Vec<(String, &str)> = vec![
            (
                r#""app": "IA", "requests": 5, "concurrency": 0"#.into(),
                "`concurrency`: must be at least 1",
            ),
            (
                r#""app": "VA", "requests": 5, "concurrency": 2"#.into(),
                "`concurrency`: VA cannot batch",
            ),
            (r#""app": "IA", "requests": 0"#.into(), "`requests`:"),
            (
                r#""app": "IA", "requests": 5, "samples_per_point": 0"#.into(),
                "`samples_per_point`: must be at least 1",
            ),
            (
                r#""app": "IA", "requests": 5, "budget_step_ms": 0.05"#.into(),
                "`budget_step_ms`: 0.05 must be at least 0.1",
            ),
            (
                r#""app": "IA", "requests": 5,
                   "cluster": {"nodes": 0, "node_capacity_mc": 8000, "placement": "spread"}"#
                    .into(),
                "`cluster`: ",
            ),
            (
                r#""app": "IA", "requests": 5, "tenants": []"#.into(),
                "`tenants`: must list at least one tenant",
            ),
            (
                tenant(r#"{"count": 0, "scenario": "bursty", "rps": 1.0}"#),
                "`tenants[0].count`: must be at least 1",
            ),
            (
                tenant(r#"{"count": 1, "scenario": "bursty", "rps": 0}"#),
                "`tenants[0].rps`: rate 0 must be positive",
            ),
            (
                tenant(r#"{"count": 1, "scenario": "tsunami", "rps": 1.0}"#),
                "`tenants[0].scenario`: unknown scenario `tsunami`",
            ),
            (
                tenant(r#"{"count": 1, "scenario": "bursty", "rps": 1.0, "slo_ms": 0}"#),
                "`tenants[0].slo_ms`: 0 must be positive",
            ),
        ];
        for (fields, needle) in &cases {
            let err = SweepSpec::from_str(&format!("{{{base}, {fields}}}")).unwrap_err();
            assert!(err.contains(needle), "expected `{needle}` in `{err}`");
        }
        // Each of these is a builder error, found on an expanded point: the
        // message names the point before the key.
        let err = SweepSpec::from_str(&format!(
            r#"{{{base}, "app": "IA", "requests": 5, "budget_step_ms": 0.05}}"#
        ))
        .unwrap_err();
        assert!(
            err.starts_with("point 0 (scenario `poisson`, 1 rps, seed 7): "),
            "{err}"
        );
        // The same spec at the smallest accepted step decodes.
        SweepSpec::from_str(&format!(
            r#"{{{base}, "app": "IA", "requests": 5, "budget_step_ms": 0.1}}"#
        ))
        .unwrap();
    }

    #[test]
    fn setup_keys_change_with_every_set_up_input_and_no_serve_only_axis() {
        let base = tiny_spec().expand()[0].clone();
        let key = base.setup_key();
        let tenant = |slo_ms: Option<f64>| {
            Some(vec![TenantLoad {
                count: 2,
                scenario: "bursty".into(),
                rps: 1.0,
                slo_ms,
            }])
        };
        let set_up: Vec<(&str, SessionSpec)> = vec![
            (
                "app",
                SessionSpec {
                    app: PaperApp::VideoAnalyze,
                    ..base.clone()
                },
            ),
            (
                "concurrency",
                SessionSpec {
                    concurrency: 2,
                    ..base.clone()
                },
            ),
            (
                "seed",
                SessionSpec {
                    seed: base.seed + 1,
                    ..base.clone()
                },
            ),
            (
                "samples_per_point",
                SessionSpec {
                    samples_per_point: base.samples_per_point + 1,
                    ..base.clone()
                },
            ),
            (
                "budget_step_ms",
                SessionSpec {
                    budget_step_ms: base.budget_step_ms * 2.0,
                    ..base.clone()
                },
            ),
            (
                "a tenant SLO tighter than the app's",
                SessionSpec {
                    tenants: tenant(Some(1000.0)),
                    ..base.clone()
                },
            ),
        ];
        for (field, spec) in set_up {
            assert_ne!(spec.setup_key(), key, "{field} is a set-up input");
        }
        let serve_only: Vec<(&str, SessionSpec)> = vec![
            (
                "scenario",
                SessionSpec {
                    scenario: Some("bursty".into()),
                    ..base.clone()
                },
            ),
            (
                "rps",
                SessionSpec {
                    rps: Some(9.0),
                    ..base.clone()
                },
            ),
            (
                "closed loop",
                SessionSpec {
                    rps: None,
                    scenario: None,
                    ..base.clone()
                },
            ),
            (
                "autoscaler",
                SessionSpec {
                    autoscaler: Some("queue-depth".into()),
                    ..base.clone()
                },
            ),
            (
                "admission",
                SessionSpec {
                    admission: Some("token-bucket".into()),
                    ..base.clone()
                },
            ),
            (
                "fault",
                SessionSpec {
                    fault: Some("zone-outage".into()),
                    ..base.clone()
                },
            ),
            (
                "observer",
                SessionSpec {
                    observer: Some("flight-recorder".into()),
                    ..base.clone()
                },
            ),
            (
                "cluster",
                SessionSpec {
                    cluster: Some(ClusterConfig {
                        nodes: 4,
                        node_capacity: Millicores::from_cores(8),
                        placement: PlacementPolicy::Spread,
                        zones: 2,
                    }),
                    ..base.clone()
                },
            ),
            (
                "tenants",
                SessionSpec {
                    tenants: tenant(None),
                    ..base.clone()
                },
            ),
            (
                "a tenant SLO looser than the app's",
                SessionSpec {
                    tenants: tenant(Some(60_000.0)),
                    ..base.clone()
                },
            ),
            (
                "requests",
                SessionSpec {
                    requests: base.requests * 2,
                    ..base.clone()
                },
            ),
            (
                "policies",
                SessionSpec {
                    policies: vec!["ORION".into()],
                    ..base.clone()
                },
            ),
        ];
        for (field, spec) in serve_only {
            assert_eq!(spec.setup_key(), key, "{field} is serve-only");
        }
    }

    #[test]
    fn session_specs_build_runnable_sessions() {
        let spec = tiny_spec();
        let point = &spec.expand()[0];
        let session = point.builder().build().unwrap();
        assert_eq!(session.policies(), &["GrandSLAM", "Janus"]);
        // Closed-loop spec: rps omitted.
        let closed = SessionSpec {
            rps: None,
            scenario: None,
            ..point.clone()
        };
        let report = closed.builder().run().unwrap();
        assert_eq!(report.load, Load::Closed { requests: 30 });
    }
}
