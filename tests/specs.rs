//! End-to-end tests of the declarative experiment surface: the golden spec
//! files under `specs/` decode, run, and reproduce — bit for bit — what one
//! hand-wired session per grid point computes.

use janus_core::experiments::{run_sweep, SweepSpec, ToJson};
use janus_core::session::{Load, ServingSession, SessionReport};
use janus_observe::TraceReport;
use std::str::FromStr as _;

#[path = "../examples/flight_recorder.rs"]
mod flight_recorder;
#[path = "../examples/golden_policies.rs"]
mod golden_policies;

/// Read a committed spec file from the repo-root `specs/` directory.
fn golden_spec(file: &str) -> SweepSpec {
    let path = format!("{}/../../specs/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed spec {path}: {e}"));
    SweepSpec::from_str(&text).unwrap_or_else(|e| panic!("{file} does not decode: {e}"))
}

#[test]
fn smoke_spec_runs_end_to_end_and_is_deterministic() {
    let spec = golden_spec("smoke.json");
    assert_eq!(spec.name, "smoke");
    let first = run_sweep(&spec).unwrap();
    first.validate().unwrap();
    assert_eq!(first.points.len(), spec.grid_size());
    let second = run_sweep(&spec).unwrap();
    for (a, b) in first.points.iter().zip(&second.points) {
        assert_eq!(a.session, b.session);
        let (ra, rb) = (a.live_report().unwrap(), b.live_report().unwrap());
        for policy in &spec.policies {
            assert_eq!(
                ra.serving(policy).unwrap(),
                rb.serving(policy).unwrap(),
                "smoke sweep must be deterministic for its fixed seed"
            );
        }
        assert_eq!(ra.metrics, rb.metrics);
    }
    // The machine view decodes cleanly.
    let doc = janus_json::parse(&first.to_json().to_pretty()).unwrap();
    assert_eq!(doc.require("experiment").unwrap().as_str(), Some("sweep"));
    assert_eq!(
        doc.require("points").unwrap().as_array().unwrap().len(),
        first.points.len()
    );
}

/// The reference `run_sweep` must reproduce: one `ServingSession`
/// wired by hand per grid point, in the spec's grid order (scenario-major,
/// then load, seed, autoscaler, admission, fault), each run on its own with
/// no set-up memo, no shared arena and no stripes.
fn hand_wired_sessions(spec: &SweepSpec) -> Vec<SessionReport> {
    assert!(spec.observers.is_none() && spec.tenants.is_none());
    let axis = |names: &Option<Vec<String>>| -> Vec<Option<String>> {
        match names {
            Some(names) => names.iter().cloned().map(Some).collect(),
            None => vec![None],
        }
    };
    let mut regimes = Vec::new();
    for autoscaler in axis(&spec.autoscalers) {
        for admission in axis(&spec.admissions) {
            for fault in axis(&spec.faults) {
                regimes.push((autoscaler.clone(), admission.clone(), fault));
            }
        }
    }
    let mut reports = Vec::new();
    for scenario in &spec.scenarios {
        for &rps in &spec.loads_rps {
            for &seed in &spec.seeds {
                for (autoscaler, admission, fault) in &regimes {
                    let mut builder = ServingSession::builder()
                        .app(spec.app)
                        .concurrency(spec.concurrency)
                        .policies(spec.policies.clone())
                        .load(Load::Open {
                            requests: spec.requests,
                            rps,
                        })
                        .scenario(scenario)
                        .seed(seed)
                        .samples_per_point(spec.samples_per_point)
                        .budget_step_ms(spec.budget_step_ms);
                    if let Some(cluster) = &spec.cluster {
                        builder = builder.cluster(cluster.clone());
                    }
                    if let Some(name) = autoscaler {
                        builder = builder.autoscaler(name);
                    }
                    if let Some(name) = admission {
                        builder = builder.admission(name);
                    }
                    if let Some(name) = fault {
                        builder = builder.fault(name);
                    }
                    reports.push(builder.run().unwrap());
                }
            }
        }
    }
    reports
}

#[test]
fn grid_specs_reproduce_hand_wired_sessions_bit_for_bit() {
    // `run_sweep` memoizes set-ups per worker, reuses one arena
    // and one set of interned handles across a stripe, and runs stripes in
    // set-up-key order. None of that may show: every point must equal its
    // hand-wired session — same serving outcomes (capacity and fault
    // accounting included), same synthesis, same pooled metrics.
    for file in [
        "scenario_policy.json",
        "capacity_grid.json",
        "chaos_grid.json",
    ] {
        let spec = golden_spec(file);
        let reference = hand_wired_sessions(&spec);
        let spec_driven = run_sweep(&spec).unwrap();
        assert_eq!(spec_driven.points.len(), reference.len(), "{file}");
        for (point, expected) in spec_driven.points.iter().zip(&reference) {
            let at = format!("{file} point {}", point.index);
            let report = point.live_report().unwrap();
            assert_eq!(report.scenario, expected.scenario, "{at}");
            assert_eq!(report.autoscaler, expected.autoscaler, "{at}");
            assert_eq!(report.admission, expected.admission, "{at}");
            assert_eq!(report.fault, expected.fault, "{at}");
            assert_eq!(report.seed, expected.seed, "{at}");
            assert_eq!(report.names(), expected.names(), "{at}");
            for policy in &spec.policies {
                assert_eq!(
                    report.serving(policy).unwrap(),
                    expected.serving(policy).unwrap(),
                    "{at} / policy `{policy}` diverged from its hand-wired session"
                );
                // Synthesis artefacts match on everything but wall-clock time.
                let synth = |r: &SessionReport| {
                    r.report(policy).unwrap().synthesis.as_ref().map(|s| {
                        (
                            s.raw_hints,
                            s.condensed_hints,
                            s.compression_ratio.to_bits(),
                            s.variant.clone(),
                        )
                    })
                };
                assert_eq!(synth(report), synth(expected), "{at}");
            }
            assert_eq!(
                report.metrics, expected.metrics,
                "{at}: pooled hot-path metrics diverged"
            );
        }
    }
}

#[test]
fn capacity_grid_spec_expresses_what_the_old_binaries_could_not() {
    // flash-crowd × queue-depth autoscaler × token-bucket admission × 3
    // seeds: the retired `capacity` binary hard-coded {static, utilization}
    // × {admit-all, queue-shed} × 1 seed; this grid runs from a committed
    // spec file alone.
    let spec = golden_spec("capacity_grid.json");
    assert_eq!(spec.seeds, vec![7, 11, 13]);
    let result = run_sweep(&spec).unwrap();
    result.validate().unwrap();
    assert_eq!(result.points.len(), 3);
    for point in &result.points {
        let report = point.live_report().unwrap();
        assert_eq!(report.autoscaler.as_deref(), Some("queue-depth"));
        assert_eq!(report.admission.as_deref(), Some("token-bucket"));
        let serving = report.serving("GrandSLAM").unwrap();
        let capacity = serving.capacity.as_ref().expect("capacity-controlled run");
        assert_eq!(
            capacity.admitted + capacity.shed,
            spec.requests,
            "seed {}: requests not conserved",
            point.session.seed
        );
        assert!(capacity.node_seconds > 0.0);
    }
    // Different seeds genuinely vary the outcome.
    let by_seed = |seed| {
        result
            .point(
                "flash-crowd",
                6.0,
                seed,
                Some("queue-depth"),
                Some("token-bucket"),
                None,
            )
            .unwrap()
    };
    assert_ne!(
        by_seed(7)
            .live_report()
            .unwrap()
            .serving("GrandSLAM")
            .unwrap(),
        by_seed(11)
            .live_report()
            .unwrap()
            .serving("GrandSLAM")
            .unwrap()
    );
    // Valid, decode-checked JSON output from the spec run alone.
    let encoded = result.to_json().to_pretty();
    let doc = janus_json::parse(&encoded).unwrap();
    let points = doc.require("points").unwrap().as_array().unwrap();
    assert_eq!(points.len(), 3);
    for point in points {
        let policies = point.require("policies").unwrap().as_array().unwrap();
        assert_eq!(
            policies[0].require("name").unwrap().as_str(),
            Some("GrandSLAM")
        );
        assert!(policies[0]
            .require("slo_attainment")
            .unwrap()
            .as_f64()
            .is_some());
    }
}

#[test]
fn chaos_grid_spec_kills_a_zone_in_every_cell_and_stays_deterministic() {
    // flash-crowd × {static, utilization} × {admit-all, queue-shed} ×
    // zone-outage × 3 seeds, from the committed spec file alone. Every
    // cell loses nodes mid-run, every request is accounted for (served,
    // failed or shed — never silently dropped), and the whole grid is
    // bit-reproducible per seed.
    let spec = golden_spec("chaos_grid.json");
    assert_eq!(spec.faults.as_deref(), Some(&["zone-outage".into()][..]));
    assert_eq!(spec.seeds, vec![7, 11, 13]);
    let result = run_sweep(&spec).unwrap();
    result.validate().unwrap();
    assert_eq!(
        result.points.len(),
        12,
        "3 seeds x 2 autoscalers x 2 admissions"
    );
    for point in &result.points {
        let report = point.live_report().unwrap();
        assert_eq!(report.fault.as_deref(), Some("zone-outage"));
        let serving = report.serving("GrandSLAM").unwrap();
        let capacity = serving.capacity.as_ref().expect("capacity-controlled run");
        assert_eq!(capacity.injector.as_deref(), Some("zone-outage"));
        assert_eq!(capacity.faults_applied, 1, "one outage per run");
        assert!(
            capacity.nodes_lost >= 1,
            "the outage must land on live nodes"
        );
        assert_eq!(
            capacity.admitted + capacity.shed,
            spec.requests,
            "seed {}: requests not conserved at admission",
            point.session.seed
        );
        assert_eq!(
            capacity.admitted,
            serving.served_len() + serving.failed_len(),
            "seed {}: admitted requests must end served or failed",
            point.session.seed
        );
        assert_eq!(
            capacity.final_allocated_mc, 0,
            "seed {}: lost pods must release their allocations",
            point.session.seed
        );
    }
    // Bit-reproducible: a second run of the same spec matches exactly.
    let again = run_sweep(&spec).unwrap();
    for (a, b) in result.points.iter().zip(&again.points) {
        assert_eq!(a.session, b.session);
        assert_eq!(
            a.live_report().unwrap().serving("GrandSLAM").unwrap(),
            b.live_report().unwrap().serving("GrandSLAM").unwrap(),
            "chaos grid must replay identically under fixed seeds"
        );
    }
    // The machine view decodes cleanly and is NaN-free even where cells
    // failed requests (JSON has no NaN literal, so a decode pass proves it).
    let encoded = result.to_json().to_pretty();
    let doc = janus_json::parse(&encoded).unwrap();
    let points = doc.require("points").unwrap().as_array().unwrap();
    assert_eq!(points.len(), 12);
    for point in points {
        let session = point.require("session").unwrap();
        assert_eq!(
            session.require("fault").unwrap().as_str(),
            Some("zone-outage")
        );
        let policies = point.require("policies").unwrap().as_array().unwrap();
        let cell = &policies[0];
        for key in ["failed", "retried", "nodes_lost"] {
            assert!(
                cell.require(key).unwrap().as_f64().is_some(),
                "cell is missing `{key}`"
            );
        }
        assert!(cell.require("node_seconds").unwrap().as_f64().unwrap() > 0.0);
    }
}

#[test]
fn invalid_specs_point_at_the_offending_key() {
    // Unknown names fail decoding: `SweepSpec::validate` resolves every
    // name against the registries before anything runs, naming the
    // offending key.
    let unknown_policy = r#"{
        "name": "bad", "app": "IA",
        "policies": ["GrandSLAM", "Janux"],
        "scenarios": ["poisson"], "loads_rps": [1], "requests": 10
    }"#;
    let err = SweepSpec::from_str(unknown_policy).unwrap_err();
    assert!(err.contains("`policies[1]`"), "{err}");
    assert!(err.contains("unknown policy `Janux`"), "{err}");
    assert!(err.contains("GrandSLAM"), "error lists the registry: {err}");

    let unknown_scenario = r#"{
        "name": "bad", "app": "IA",
        "policies": ["GrandSLAM"],
        "scenarios": ["poisson", "tsunami"], "loads_rps": [1], "requests": 10
    }"#;
    let err = SweepSpec::from_str(unknown_scenario).unwrap_err();
    assert!(err.contains("`scenarios[1]`"), "{err}");
    assert!(err.contains("unknown scenario `tsunami`"), "{err}");

    // Structural mistakes fail at decode time, also naming the key.
    let err = SweepSpec::from_str(r#"{"name": "bad", "app": "IA"}"#).unwrap_err();
    assert!(err.contains("missing required key `policies`"), "{err}");
    let err = SweepSpec::from_str(
        r#"{"name": "bad", "app": "IA", "policies": ["Janus"],
            "scenarios": ["poisson"], "loads_rps": [1], "requests": 10,
            "autoscaler": ["static"]}"#,
    )
    .unwrap_err();
    assert!(err.contains("unknown key `autoscaler`"), "{err}");
    assert!(err.contains("autoscalers"), "suggests the real key: {err}");
}

#[test]
fn observe_grid_spec_sweeps_the_observer_axis_without_perturbing_serving() {
    let spec = golden_spec("observe_grid.json");
    assert_eq!(
        spec.observers.as_deref(),
        Some(
            &[
                "flight-recorder".to_string(),
                "spans".to_string(),
                "time-series".to_string()
            ][..]
        )
    );
    let result = run_sweep(&spec).unwrap();
    result.validate().unwrap();
    assert_eq!(result.points.len(), 3, "one grid point per observer");
    for point in &result.points {
        let observer = point
            .session
            .observer
            .as_deref()
            .expect("observer axis populates the session spec");
        let flight = point
            .live_report()
            .unwrap()
            .flight("GrandSLAM")
            .expect("observed cell must carry a flight report");
        assert_eq!(flight.observer, observer);
        assert!(flight.records_seen > 0, "{observer} saw the lifecycle");
        match observer {
            "flight-recorder" => {
                assert!(flight.trace.is_some());
                assert!(flight.spans.is_some());
                assert!(flight.time_series.is_some());
            }
            "spans" => {
                assert!(flight.spans.is_some());
                assert!(flight.trace.is_none());
            }
            "time-series" => {
                assert!(flight.time_series.is_some());
                assert!(flight.trace.is_none());
            }
            other => panic!("unexpected observer `{other}` in the grid"),
        }
    }
    // Observation is read-only: every observer cell serves identically to
    // the others (same seed, same grid point otherwise).
    let first = result.points[0]
        .live_report()
        .unwrap()
        .serving("GrandSLAM")
        .unwrap();
    for point in &result.points[1..] {
        assert_eq!(
            first,
            point.live_report().unwrap().serving("GrandSLAM").unwrap(),
            "observer `{}` perturbed the serving outcome",
            point.session.observer.as_deref().unwrap_or("?")
        );
    }
}

#[test]
fn golden_trace_artefact_is_reproducible_and_reportable() {
    // The committed artefact is what `examples/flight_recorder.rs` prints:
    // a flash crowd on a two-zone fleet losing a zone mid-spike, observed
    // by the flight recorder. Regenerate it with
    // `cargo run --example flight_recorder > specs/golden_trace.jsonl`.
    let path = format!(
        "{}/../../specs/golden_trace.jsonl",
        env!("CARGO_MANIFEST_DIR")
    );
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed trace {path}: {e}"));

    let run = || {
        flight_recorder::flight_recorder()
            .unwrap()
            .trace()
            .expect("flight recorder records a trace")
    };
    // Byte-identical under the fixed seed — twice, so the regeneration is
    // itself shown deterministic rather than accidentally matching.
    let fresh = run();
    assert_eq!(fresh, run(), "traced session must replay identically");
    assert_eq!(
        fresh, committed,
        "regenerated trace diverged from specs/golden_trace.jsonl — rerun \
         the flight_recorder example to refresh it if the change is intended"
    );

    // The artefact decodes into a renderable, CSV-exportable report.
    let report = TraceReport::from_jsonl(&committed).unwrap();
    assert_eq!(report.policies.len(), 1);
    let trace = &report.policies[0];
    assert_eq!(trace.policy, "GrandSLAM");
    assert_eq!(trace.spans.arrivals, 48);
    assert_eq!(trace.spans.served, 48);
    assert!(trace.spans.retries > 0, "the outage must void attempts");
    assert!(trace.time_series.len() > 4, "capacity ticks were sampled");
    assert!(
        committed.contains(r#""type":"fault","fault":"zone-outage""#),
        "the zone outage must be in the trace"
    );
    let rendered = report.render();
    assert!(rendered.contains("GrandSLAM"), "{rendered}");
    let csv = report.to_csv();
    assert!(csv.lines().count() > 4);
    for cell in csv.lines().skip(1).flat_map(|l| l.split(',').skip(1)) {
        let value: f64 = cell
            .parse()
            .unwrap_or_else(|e| panic!("CSV cell `{cell}` not a number: {e}"));
        assert!(value.is_finite(), "CSV cell `{cell}` is not finite");
    }
}

#[test]
fn golden_policies_artefact_is_reproducible() {
    // The committed artefact is what `examples/golden_policies.rs` prints:
    // the hints bundles of the three Janus variants plus the ORION and
    // GrandSLAM+ sizes, built from seeded profiles. Rewrites of the hint
    // synthesizer or the early-binding baselines must leave it byte-identical;
    // regenerate it with `cargo run --example golden_policies >
    // specs/golden_policies.json` only when a policy change is intended.
    let path = format!(
        "{}/../../specs/golden_policies.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read committed policies {path}: {e}"));
    let fresh = golden_policies::golden_policies().unwrap() + "\n";
    // `assert!`, not `assert_eq!`: a mismatch would print two 0.5 MB documents.
    assert!(
        fresh == committed,
        "regenerated policies diverged from specs/golden_policies.json — rerun \
         the golden_policies example to refresh it if the change is intended"
    );
    // Every embedded bundle still decodes through the provider-side parser.
    let doc = janus_json::parse(&committed).unwrap();
    for cell in doc.require("cells").unwrap().as_array().unwrap() {
        for entry in cell.require("janus").unwrap().as_array().unwrap() {
            let bundle = entry.require("bundle").unwrap().to_pretty();
            janus_core::synthesizer::hints::HintsBundle::from_json(&bundle).unwrap();
        }
    }
}

#[test]
fn multi_tenant_spec_merges_streams_at_every_point() {
    let spec = golden_spec("multi_tenant.json");
    // The committed file is the canonical encoder output byte for byte, so
    // the `tenants` formatting (and the copy-pasteable README example built
    // on it) never drifts from what the encoder writes.
    let path = format!(
        "{}/../../specs/multi_tenant.json",
        env!("CARGO_MANIFEST_DIR")
    );
    let committed = std::fs::read_to_string(&path).unwrap();
    assert_eq!(
        committed,
        format!("{}\n", spec.to_json().to_pretty()),
        "specs/multi_tenant.json is not the canonical encoding of itself"
    );

    let tenants = spec.tenants.as_deref().expect("tenant axis set");
    assert_eq!(tenants.len(), 2);
    let result = run_sweep(&spec).unwrap();
    result.validate().unwrap();
    // Tenants multiply the load at each point, not the grid.
    assert_eq!(result.points.len(), 1);
    let point = &result.points[0];
    let report = point.live_report().unwrap();
    assert_eq!(report.tenants.as_deref(), Some(tenants));
    let serving = report.serving("GrandSLAM").unwrap();
    // `requests` is the total budget across all merged streams.
    assert_eq!(serving.len(), spec.requests);
    // The strictest tenant SLO (1500 ms from the bursty class) clamps the
    // run below the app default.
    assert_eq!(
        serving.slo,
        janus_simcore::time::SimDuration::from_millis(1500.0)
    );
    // The merged timeline genuinely differs from the single-stream run of
    // the otherwise-identical spec…
    let mut single = spec.clone();
    single.tenants = None;
    let single = run_sweep(&single).unwrap();
    assert_ne!(
        serving,
        single.points[0]
            .live_report()
            .unwrap()
            .serving("GrandSLAM")
            .unwrap()
    );
    // …and replays bit-identically under the fixed seed.
    let again = run_sweep(&spec).unwrap();
    assert_eq!(
        serving,
        again.points[0]
            .live_report()
            .unwrap()
            .serving("GrandSLAM")
            .unwrap()
    );
}

#[test]
fn every_committed_spec_decodes_and_reencodes_canonically() {
    for file in [
        "smoke.json",
        "scenario_policy.json",
        "capacity_grid.json",
        "chaos_grid.json",
        "observe_grid.json",
        "multi_tenant.json",
    ] {
        let spec = golden_spec(file);
        spec.validate().unwrap_or_else(|e| panic!("{file}: {e}"));
        // Encode → decode → encode is stable, so artefacts embedding the
        // spec (sweep outputs) stay diffable.
        let encoded = spec.to_json().to_pretty();
        let decoded = SweepSpec::from_str(&encoded).unwrap();
        assert_eq!(decoded, spec, "{file} does not round-trip");
        assert_eq!(decoded.to_json().to_pretty(), encoded);
    }
}
