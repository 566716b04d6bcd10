//! The `janus` driver CLI: one binary for the whole evaluation.
//!
//! ```text
//! janus list                      # what can run, straight from the registries
//! janus run <experiment> [flags]  # one experiment by name
//! janus sweep <spec.json> [flags] # a declarative grid from a spec file
//!       [--results DIR]           # cache completed cells, skip warm ones
//!       [--resume] [--force]      # resume an interrupted sweep / rerun all
//! janus all [flags]               # every registered experiment
//! janus report <trace.jsonl>      # summarise a flight trace (--out writes CSV)
//! janus report <results-dir>      # aggregate a results store (--out writes CSV)
//! janus lint [--json]             # static analysis against the repo invariants
//! ```
//!
//! Parsing and execution are separated ([`parse`] / [`execute`]) so the
//! command surface is unit-testable without spawning processes; the `janus`
//! binary is a thin `main` over this module.

use crate::BenchFlags;
use janus_chaos::FaultRegistry;
use janus_core::experiments::{
    run_sweep_stored, ExperimentRegistry, ResultsReport, Scale, StoreMode, SweepSpec, TraceSink,
};
use janus_core::registry::PolicyRegistry;
use janus_json::Value;
use janus_observe::{ObserverRegistry, TraceReport};
use janus_platform::capacity::{AdmissionRegistry, AutoscalerRegistry};
use janus_scenarios::ScenarioRegistry;
use std::str::FromStr as _;
use std::time::Instant;

/// Usage string of the `janus` binary.
pub const USAGE: &str = "usage: janus <command> [flags]\n\
    commands:\n\
    \x20 list                 enumerate registered experiments, policies, scenarios,\n\
    \x20                      autoscalers, admission policies, fault injectors and\n\
    \x20                      observers\n\
    \x20 run <experiment>     run one experiment by name (see `janus list`)\n\
    \x20 sweep <spec.json>    run a declarative sweep grid from a JSON spec file;\n\
    \x20                      --results DIR caches completed cells content-addressed\n\
    \x20                      and skips warm ones, --resume requires DIR to exist\n\
    \x20                      (continue an interrupted sweep), --force reruns and\n\
    \x20                      overwrites every cell\n\
    \x20 all                  run every registered experiment\n\
    \x20 report <path>        summarise a JSONL flight trace, or aggregate a\n\
    \x20                      --results directory into per-axis tables (--out\n\
    \x20                      writes CSV either way)\n\
    \x20 lint [--json]        scan crates/*/src against the workspace lint rules and\n\
    \x20                      the committed specs/lint_baseline.json; --json prints\n\
    \x20                      the machine-readable artefact, --out writes and\n\
    \x20                      decode-checks it\n\
    flags: [--quick | --paper] [--seed N] [--out PATH] [--trace PATH] [--help]\n\
    \x20 --quick      reduced scale; sweeps clamp profiling cost (samples, budget step)\n\
    \x20 --paper      paper scale (default)\n\
    \x20 --seed N     override the experiment seed (sweeps: replaces the seed axis)\n\
    \x20 --out PATH   write the result as JSON to PATH, then decode-check it\n\
    \x20 --trace PATH write the run's JSONL flight trace to PATH (implies the\n\
    \x20              flight-recorder observer; `janus run` of a trace-capable\n\
    \x20              experiment only)\n\
    \x20 --help       print this message";

/// A parsed `janus` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `janus list`
    List,
    /// `janus run <experiment>`
    Run(String),
    /// `janus sweep <spec.json> [--results DIR] [--resume] [--force]`
    Sweep {
        /// Spec file path.
        spec: String,
        /// Results-store directory (`--results DIR`).
        results: Option<String>,
        /// Require the store directory to already exist (`--resume`).
        resume: bool,
        /// Rerun and overwrite every cell (`--force`).
        force: bool,
    },
    /// `janus all`
    All,
    /// `janus report <trace.jsonl>`
    Report(String),
    /// `janus lint [--json]`
    Lint {
        /// Print the machine-readable artefact instead of rendered findings.
        json: bool,
    },
}

/// Parse a `janus` argument list (without the program name) into a command
/// and the shared flags. Errors carry the reason only; the binary appends
/// [`USAGE`].
pub fn parse<I>(args: I) -> Result<(Command, BenchFlags), String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter();
    let word = args.next();
    let mut command = match word.as_deref() {
        None => return Err("missing command".into()),
        Some("list") => Command::List,
        Some("all") => Command::All,
        Some("run") => {
            let name = next_operand(&mut args, "run", "an experiment name")?;
            Command::Run(name)
        }
        Some("sweep") => {
            let path = next_operand(&mut args, "sweep", "a spec file path")?;
            Command::Sweep {
                spec: path,
                results: None,
                resume: false,
                force: false,
            }
        }
        Some("report") => {
            let path = next_operand(&mut args, "report", "a trace artefact path")?;
            Command::Report(path)
        }
        Some("lint") => Command::Lint { json: false },
        Some(other) => {
            return Err(format!(
                "unknown command `{other}`; expected list, run, sweep, all, report or lint"
            ))
        }
    };
    let mut rest: Vec<String> = args.collect();
    if command == Command::List && !rest.is_empty() {
        return Err("`janus list` takes no flags".into());
    }
    if let Command::Sweep {
        results,
        resume,
        force,
        ..
    } = &mut command
    {
        // The store flags belong to the sweep command, not the shared
        // experiment flags: strip them here before BenchFlags sees the rest.
        let mut kept = Vec::with_capacity(rest.len());
        let mut it = rest.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--results" => {
                    if results.is_some() {
                        return Err("--results given twice".into());
                    }
                    let value = it
                        .next()
                        .ok_or_else(|| "--results needs a directory".to_string())?;
                    if value.starts_with("--") {
                        return Err(format!("--results needs a directory, got flag `{value}`"));
                    }
                    *results = Some(value);
                }
                "--resume" => {
                    if *resume {
                        return Err("--resume given twice".into());
                    }
                    *resume = true;
                }
                "--force" => {
                    if *force {
                        return Err("--force given twice".into());
                    }
                    *force = true;
                }
                _ => kept.push(arg),
            }
        }
        rest = kept;
        if results.is_none() && (*resume || *force) {
            return Err(format!(
                "--{} needs --results DIR (there is no store to {} without one)",
                if *resume { "resume" } else { "force" },
                if *resume { "resume from" } else { "overwrite" },
            ));
        }
        if *resume && *force {
            return Err(
                "--resume and --force conflict: resume replays warm cells, force reruns them"
                    .into(),
            );
        }
    }
    if let Command::Lint { json } = &mut command {
        // Lint shares only `--out` with the experiment flags; scale, seed
        // and trace are meaningless for a static pass and are rejected so a
        // typo cannot silently no-op.
        let before = rest.len();
        rest.retain(|a| a != "--json");
        *json = rest.len() < before;
        if before - rest.len() > 1 {
            return Err("--json given twice".into());
        }
        let mut it = rest.iter();
        while let Some(arg) = it.next() {
            if arg == "--out" {
                it.next();
            } else {
                return Err(format!(
                    "`janus lint` takes only --json and --out, got `{arg}`"
                ));
            }
        }
    }
    let flags = BenchFlags::from_args(rest)?;
    // Only `janus run` writes a trace; refuse the flag elsewhere before a
    // command spends its work and writes nothing.
    if flags.trace.is_some() && !matches!(command, Command::Run(_)) {
        return Err(format!(
            "--trace: `janus {}` writes no trace; trace one experiment with \
             `janus run <experiment> --trace PATH`",
            word.unwrap_or_default()
        ));
    }
    Ok((command, flags))
}

fn next_operand(
    args: &mut impl Iterator<Item = String>,
    command: &str,
    what: &str,
) -> Result<String, String> {
    match args.next() {
        Some(value) if !value.starts_with("--") => Ok(value),
        Some(flag) => Err(format!("`janus {command}` needs {what}, got flag `{flag}`")),
        None => Err(format!("`janus {command}` needs {what}")),
    }
}

/// Execute a parsed command. Returns `Err` with a human-readable message on
/// failure; the caller maps it to the exit code.
pub fn execute(command: &Command, flags: &BenchFlags) -> Result<(), String> {
    match command {
        Command::List => {
            print!("{}", listing());
            Ok(())
        }
        Command::Run(name) => run_experiment(name, flags),
        Command::Sweep {
            spec,
            results,
            resume,
            force,
        } => run_sweep_file(spec, results.as_deref(), *resume, *force, flags),
        Command::All => run_all(flags),
        Command::Report(path) => run_report(path, flags),
        Command::Lint { json } => run_lint(*json, flags),
    }
}

/// The `janus list` text: every runnable name, straight from the registries
/// (so discoverability cannot drift from the code).
fn listing() -> String {
    let mut out = String::new();
    out.push_str("experiments (janus run <name>):\n");
    for experiment in ExperimentRegistry::with_builtins().iter() {
        let (name, describe) = (experiment.name, experiment.describe);
        out.push_str(&format!("  {name:<10} {describe}\n"));
    }
    let section = |out: &mut String, title: &str, names: Vec<&str>| {
        out.push_str(&format!("{title}: {}\n", names.join(", ")));
    };
    section(
        &mut out,
        "policies",
        PolicyRegistry::with_builtins().names(),
    );
    section(
        &mut out,
        "scenarios",
        ScenarioRegistry::with_builtins().names(),
    );
    section(
        &mut out,
        "autoscalers",
        AutoscalerRegistry::with_builtins().names(),
    );
    section(
        &mut out,
        "admission policies",
        AdmissionRegistry::with_builtins().names(),
    );
    section(
        &mut out,
        "fault injectors",
        FaultRegistry::with_builtins().names(),
    );
    section(
        &mut out,
        "observers",
        ObserverRegistry::with_builtins().names(),
    );
    out.push_str("lint rules (janus lint):\n");
    for rule in janus_lint::LintRegistry::with_builtins().iter() {
        let (name, describe) = (rule.name, rule.describe);
        out.push_str(&format!("  {name:<17} {describe}\n"));
    }
    out
}

fn run_experiment(name: &str, flags: &BenchFlags) -> Result<(), String> {
    let registry = ExperimentRegistry::with_builtins();
    let experiment = registry.lookup(name)?;
    if flags.trace.is_some() && !experiment.traces {
        let capable: Vec<&str> = registry
            .iter()
            .filter(|e| e.traces)
            .map(|e| e.name)
            .collect();
        return Err(format!(
            "--trace: experiment `{name}` emits no trace (trace-capable experiments: {})",
            capable.join(", ")
        ));
    }
    let mut ctx = flags.ctx();
    // `--trace` hands the experiment a shared sink; the context derives the
    // flight-recorder observer from its presence.
    let sink = flags.trace.as_ref().map(|_| TraceSink::new());
    if let Some(sink) = &sink {
        ctx = ctx.with_trace(sink.clone());
    }
    let output = (experiment.run)(&ctx)?;
    print!("{}", output.summary());
    if let (Some(path), Some(sink)) = (&flags.trace, &sink) {
        write_trace(path, name, sink)?;
    }
    let written = output.to_json();
    flags.write_out_value(&written);
    flags.verify_out(&written);
    Ok(())
}

/// Drain the trace sink to the `--trace` path. An empty sink is an error:
/// the user explicitly asked for a trace and silently writing nothing would
/// hide that a trace-capable experiment observed no session.
fn write_trace(path: &str, name: &str, sink: &TraceSink) -> Result<(), String> {
    let lines = sink.take();
    if lines.is_empty() {
        return Err(format!(
            "--trace: experiment `{name}` emitted no trace lines"
        ));
    }
    janus_results::write_atomic(std::path::Path::new(path), &lines)
        .map_err(|e| format!("failed to write trace {path}: {e}"))?;
    eprintln!("traced {path} ({} lines)", lines.lines().count());
    Ok(())
}

fn run_report(path: &str, flags: &BenchFlags) -> Result<(), String> {
    // A directory is a results store (`janus sweep --results DIR`); a file
    // is a JSONL flight trace. Either way `--out` writes CSV.
    if std::path::Path::new(path).is_dir() {
        let store = janus_results::ResultsStore::open_existing(std::path::Path::new(path))?;
        let report = ResultsReport::from_store(&store)?;
        print!("{}", report.render());
        write_csv_out(flags, &report.to_csv())?;
        return Ok(());
    }
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
    let report = TraceReport::from_jsonl(&text).map_err(|e| format!("trace `{path}`: {e}"))?;
    print!("{}", report.render());
    // The telemetry artefact is CSV, not JSON: a spreadsheet-ready table,
    // already decode-checked via from_jsonl.
    write_csv_out(flags, &report.to_csv())
}

fn write_csv_out(flags: &BenchFlags, csv: &str) -> Result<(), String> {
    let Some(out) = &flags.out else { return Ok(()) };
    janus_results::write_atomic(std::path::Path::new(out), csv)
        .map_err(|e| format!("failed to write {out}: {e}"))?;
    eprintln!(
        "wrote {out} (CSV, {} data rows)",
        csv.lines().count().saturating_sub(1)
    );
    Ok(())
}

/// `janus lint`: scan the workspace sources with the rule registry, apply
/// inline directives, and gate against the committed burn-down baseline.
/// `--json` prints the machine-readable artefact instead of rendered
/// findings; `--out` writes it and decode-checks the read-back (both the
/// raw JSON and the typed diagnostic decode).
fn run_lint(json: bool, flags: &BenchFlags) -> Result<(), String> {
    // The front end lints whichever workspace the user invoked it in, so
    // the cwd lookup is the sanctioned entry-point read.
    // janus-lint: allow(nondeterminism) — locating the workspace to lint, not simulation state
    let cwd = std::env::current_dir();
    let cwd = cwd.map_err(|e| format!("cannot read the current directory: {e}"))?;
    let root = janus_lint::find_workspace_root(&cwd).ok_or(
        "no workspace root (a directory holding Cargo.toml and crates/) above the current directory",
    )?;
    let registry = janus_lint::LintRegistry::with_builtins();
    let config = janus_lint::LintConfig::workspace_default();
    let run = janus_lint::lint_workspace(&root, &registry, &config)?;
    let baseline = janus_lint::load_baseline(&root)?;
    let verdict = janus_lint::compare_to_baseline(&run.diagnostics, &baseline);
    let artefact = janus_lint::run_to_json(&run);
    if json {
        println!("{}", artefact.to_pretty());
    } else {
        for diagnostic in &run.diagnostics {
            println!("{}", diagnostic.render());
        }
        println!(
            "linted {} files with {} rules: {} finding{} ({} suppressed by directives)",
            run.files_scanned,
            run.rules.len(),
            run.diagnostics.len(),
            if run.diagnostics.len() == 1 { "" } else { "s" },
            run.suppressed
        );
    }
    flags.write_out_value(&artefact);
    flags.verify_out(&artefact);
    if flags.out.is_some() {
        // Beyond the raw JSON round-trip: the typed decode must reproduce
        // the diagnostics exactly.
        let decoded = janus_lint::diagnostics_from_json(&artefact)?;
        if decoded != run.diagnostics {
            return Err("lint artefact did not decode back to the reported diagnostics".into());
        }
    }
    for (rule, path, current, allowed) in &verdict.improved {
        eprintln!(
            "baseline is stale: `{rule}` at {path} is down to {current} \
             (baseline tolerates {allowed}); tighten {}",
            janus_lint::BASELINE_PATH
        );
    }
    if verdict.is_clean() {
        return Ok(());
    }
    if verdict.regressions.is_empty() {
        return Err(format!(
            "lint baseline is stale: {} entr{} can be tightened; update {} \
             in the same change",
            verdict.improved.len(),
            if verdict.improved.len() == 1 {
                "y"
            } else {
                "ies"
            },
            janus_lint::BASELINE_PATH
        ));
    }
    let lines: Vec<String> = verdict
        .regressions
        .iter()
        .map(|(rule, path, current, allowed)| {
            format!("{path}: {current}x {rule} (baseline tolerates {allowed})")
        })
        .collect();
    Err(format!(
        "lint found {} (rule, file) group{} over the baseline:\n  {}\n\
         fix the findings, justify them with `// janus-lint: allow(rule)`, \
         or extend {}",
        lines.len(),
        if lines.len() == 1 { "" } else { "s" },
        lines.join("\n  "),
        janus_lint::BASELINE_PATH
    ))
}

/// Apply the flags to a decoded sweep spec: `--seed` replaces the seed axis
/// (one-off reproduction runs), `--quick` clamps the profiling cost knobs
/// (`samples_per_point` ≤ 300, `budget_step_ms` ≥ 5) while leaving the grid
/// axes exactly as written.
fn apply_flags_to_spec(spec: &mut SweepSpec, flags: &BenchFlags) {
    if let Some(seed) = flags.seed {
        spec.seeds = vec![seed];
    }
    if flags.scale == Scale::Quick {
        spec.samples_per_point = spec.samples_per_point.min(300);
        spec.budget_step_ms = spec.budget_step_ms.max(5.0);
    }
}

fn run_sweep_file(
    path: &str,
    results: Option<&str>,
    resume: bool,
    force: bool,
    flags: &BenchFlags,
) -> Result<(), String> {
    let store = match results {
        // `--resume` insists the directory exists: resuming a sweep that
        // never started is almost always a mistyped path.
        Some(dir) if resume => Some(janus_results::ResultsStore::open_existing(
            std::path::Path::new(dir),
        )?),
        Some(dir) => Some(janus_results::ResultsStore::open(std::path::Path::new(
            dir,
        ))?),
        None => None,
    };
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read spec `{path}`: {e}"))?;
    let mut spec = SweepSpec::from_str(&text).map_err(|e| format!("spec `{path}`: {e}"))?;
    // Flags apply before the store lookup so the cache is keyed by the
    // *effective* per-point spec: `--quick` and `--seed` runs hash to their
    // own cells rather than colliding with paper-scale ones.
    apply_flags_to_spec(&mut spec, flags);
    let total = spec.grid_size();
    println!(
        "sweep `{}`: {} grid points x {} policies",
        spec.name,
        total,
        spec.policies.len()
    );
    let mode = if force {
        StoreMode::Force
    } else {
        StoreMode::Reuse
    };
    let result = run_sweep_stored(&spec, store.as_ref().map(|s| (s, mode)), &|point| {
        println!("{}", point.progress_line(total));
    })?;
    print!("{result}");
    println!(
        "set-up: {} builds for {} points",
        result.setups_built,
        result.points.len()
    );
    if let Some(dir) = results {
        let hits = result.cache_hits;
        let ran = result.points.len() - hits;
        let pct = if result.points.is_empty() {
            100.0
        } else {
            hits as f64 * 100.0 / result.points.len() as f64
        };
        println!(
            "results {dir}: {hits}/{} cells cached ({pct:.0}%), {ran} run",
            result.points.len()
        );
    }
    let written = janus_core::experiments::ToJson::to_json(&result);
    flags.write_out_value(&written);
    flags.verify_out(&written);
    Ok(())
}

fn run_all(flags: &BenchFlags) -> Result<(), String> {
    let registry = ExperimentRegistry::with_builtins();
    let ctx = flags.ctx();
    let mut out: Vec<(String, Value)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut total_s = 0.0;
    for entry in registry.iter() {
        let experiment = entry.name;
        println!("===== {experiment} =====");
        // janus-lint: allow(nondeterminism) — per-experiment wall time, printed to stderr only; stdout and --out stay seed-pure
        let started = Instant::now();
        match (entry.run)(&ctx) {
            Ok(output) => {
                print!("{}", output.summary());
                if flags.out.is_some() {
                    out.push((experiment.to_string(), output.to_json()));
                }
            }
            // One broken experiment must not hide the remaining results;
            // collect and fail at the end.
            Err(e) => {
                eprintln!("{experiment} failed: {e}");
                failures.push(format!("{experiment}: {e}"));
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        total_s += wall_s;
        eprintln!("{experiment}: {wall_s:.3} s");
        println!();
    }
    eprintln!("total: {total_s:.3} s");
    // Write whatever completed even when something failed: a paper-scale
    // run is hours of compute, and the old `run_all` always wrote the
    // collected document.
    let written = Value::Obj(out);
    flags.write_out_value(&written);
    flags.verify_out(&written);
    if failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} experiments failed:\n  {}",
            failures.len(),
            registry.len(),
            failures.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_cli(args: &[&str]) -> Result<(Command, BenchFlags), String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn commands_parse_with_flags() {
        assert_eq!(parse_cli(&["list"]).unwrap().0, Command::List);
        assert_eq!(parse_cli(&["all"]).unwrap().0, Command::All);
        let (cmd, flags) = parse_cli(&["run", "table1", "--quick", "--seed", "3"]).unwrap();
        assert_eq!(cmd, Command::Run("table1".into()));
        assert_eq!(flags.scale, Scale::Quick);
        assert_eq!(flags.seed, Some(3));
        let (cmd, _) = parse_cli(&["sweep", "specs/smoke.json"]).unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                spec: "specs/smoke.json".into(),
                results: None,
                resume: false,
                force: false,
            }
        );
        // The store flags are sweep-specific and compose with shared flags.
        let (cmd, flags) =
            parse_cli(&["sweep", "s.json", "--results", "results", "--quick"]).unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                spec: "s.json".into(),
                results: Some("results".into()),
                resume: false,
                force: false,
            }
        );
        assert_eq!(flags.scale, Scale::Quick);
        let (cmd, _) = parse_cli(&["sweep", "s.json", "--resume", "--results", "results"]).unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                spec: "s.json".into(),
                results: Some("results".into()),
                resume: true,
                force: false,
            }
        );
        let (cmd, _) = parse_cli(&["sweep", "s.json", "--results", "r", "--force"]).unwrap();
        assert!(matches!(cmd, Command::Sweep { force: true, .. }));
        let (cmd, flags) = parse_cli(&["run", "capacity", "--trace", "out.jsonl"]).unwrap();
        assert_eq!(cmd, Command::Run("capacity".into()));
        assert_eq!(flags.trace.as_deref(), Some("out.jsonl"));
        let (cmd, _) = parse_cli(&["report", "out.jsonl"]).unwrap();
        assert_eq!(cmd, Command::Report("out.jsonl".into()));
        // lint: bare, --json, and --out all parse; --json is its own flag.
        let (cmd, flags) = parse_cli(&["lint"]).unwrap();
        assert_eq!(cmd, Command::Lint { json: false });
        assert_eq!(flags, BenchFlags::default());
        let (cmd, flags) = parse_cli(&["lint", "--json", "--out", "lint.json"]).unwrap();
        assert_eq!(cmd, Command::Lint { json: true });
        assert_eq!(flags.out.as_deref(), Some("lint.json"));
    }

    #[test]
    fn bad_invocations_error_with_the_reason() {
        assert!(parse_cli(&[]).unwrap_err().contains("missing command"));
        let err = parse_cli(&["rnu"]).unwrap_err();
        assert!(err.contains("unknown command `rnu`"), "{err}");
        let err = parse_cli(&["run"]).unwrap_err();
        assert!(err.contains("needs an experiment name"), "{err}");
        let err = parse_cli(&["run", "--quick"]).unwrap_err();
        assert!(err.contains("got flag `--quick`"), "{err}");
        let err = parse_cli(&["sweep"]).unwrap_err();
        assert!(err.contains("needs a spec file path"), "{err}");
        // Store-flag misuse fails in parse, before any session is spent.
        let err = parse_cli(&["sweep", "s.json", "--results"]).unwrap_err();
        assert!(err.contains("--results needs a directory"), "{err}");
        let err = parse_cli(&["sweep", "s.json", "--results", "--quick"]).unwrap_err();
        assert!(err.contains("got flag `--quick`"), "{err}");
        let err = parse_cli(&["sweep", "s.json", "--resume"]).unwrap_err();
        assert!(err.contains("--resume needs --results"), "{err}");
        let err = parse_cli(&["sweep", "s.json", "--force"]).unwrap_err();
        assert!(err.contains("--force needs --results"), "{err}");
        let err =
            parse_cli(&["sweep", "s.json", "--results", "r", "--resume", "--force"]).unwrap_err();
        assert!(err.contains("--resume and --force conflict"), "{err}");
        let err = parse_cli(&["sweep", "s.json", "--results", "r", "--results", "r"]).unwrap_err();
        assert!(err.contains("--results given twice"), "{err}");
        // Run/report do not accept the sweep-only store flags.
        let err = parse_cli(&["run", "table1", "--results", "r"]).unwrap_err();
        assert!(err.contains("unknown flag `--results`"), "{err}");
        let err = parse_cli(&["report"]).unwrap_err();
        assert!(err.contains("needs a trace artefact path"), "{err}");
        let err = parse_cli(&["report", "--quick"]).unwrap_err();
        assert!(err.contains("got flag `--quick`"), "{err}");
        let err = parse_cli(&["run", "table1", "--warp"]).unwrap_err();
        assert!(err.contains("unknown flag `--warp`"), "{err}");
        let err = parse_cli(&["list", "--quick"]).unwrap_err();
        assert!(err.contains("takes no flags"), "{err}");
        // Uniform across flag classes: even a no-op flag is rejected.
        let err = parse_cli(&["list", "--paper"]).unwrap_err();
        assert!(err.contains("takes no flags"), "{err}");
        // lint rejects the experiment flags — a static pass has no scale,
        // seed or trace — and duplicate --json.
        let err = parse_cli(&["lint", "--quick"]).unwrap_err();
        assert!(err.contains("takes only --json and --out"), "{err}");
        let err = parse_cli(&["lint", "--seed", "3"]).unwrap_err();
        assert!(err.contains("takes only --json and --out"), "{err}");
        let err = parse_cli(&["lint", "--json", "--json"]).unwrap_err();
        assert!(err.contains("--json given twice"), "{err}");
        // Only `run` writes a trace, so every other command refuses
        // --trace up front and points at the one that does.
        for args in [
            &["all", "--quick", "--trace", "t.jsonl"][..],
            &["sweep", "s.json", "--trace", "t.jsonl"][..],
            &["report", "t.jsonl", "--trace", "u.jsonl"][..],
            &["sweep", "s.json", "--results", "r", "--trace", "t.jsonl"][..],
        ] {
            let err = parse_cli(args).unwrap_err();
            assert!(err.contains("writes no trace"), "{err}");
            assert!(err.contains("janus run <experiment> --trace"), "{err}");
        }
    }

    #[test]
    fn unknown_experiments_fail_with_the_registered_list() {
        let err = execute(&Command::Run("fig99".into()), &BenchFlags::default()).unwrap_err();
        assert!(err.contains("unknown experiment `fig99`"), "{err}");
        assert!(err.contains("flash_scale"), "{err}");
        let err = execute(
            &Command::Sweep {
                spec: "specs/no_such_spec.json".into(),
                results: None,
                resume: false,
                force: false,
            },
            &BenchFlags::default(),
        )
        .unwrap_err();
        assert!(err.contains("cannot read spec"), "{err}");
        // `--resume` against a directory that was never created is an
        // error, caught before any cell runs.
        let err = execute(
            &Command::Sweep {
                spec: "specs/smoke.json".into(),
                results: Some(temp_path("janus_cli_never_created_store")),
                resume: true,
                force: false,
            },
            &BenchFlags::default(),
        )
        .unwrap_err();
        assert!(err.contains("nothing to resume"), "{err}");
    }

    #[test]
    fn listing_is_driven_by_the_registries() {
        let listing = listing();
        for needle in [
            "experiments (janus run <name>):",
            "fig1a",
            "flash_scale",
            "policies: Optimal, ORION, GrandSLAM+, GrandSLAM, Janus-, Janus, Janus+\n",
            "scenarios: poisson, diurnal, bursty, flash-crowd, trace-replay\n",
            "autoscalers: static, utilization, queue-depth",
            "admission policies: admit-all, token-bucket, queue-shed",
            "fault injectors: node-crash, spot-preempt, zone-outage, slow-node",
            "observers: ring, trace, spans, time-series, flight-recorder",
            "chaos_resilience",
            "lint rules (janus lint):",
            "nondeterminism",
            "unwrap-discipline",
            "emit-discipline",
            "unused-pub",
        ] {
            assert!(
                listing.contains(needle),
                "missing `{needle}` in:\n{listing}"
            );
        }
    }

    #[test]
    fn quick_flag_clamps_spec_cost_knobs_but_not_axes() {
        let mut spec = SweepSpec {
            name: "x".into(),
            app: janus_workloads::apps::PaperApp::IntelligentAssistant,
            concurrency: 1,
            policies: vec!["Janus".into()],
            scenarios: vec!["poisson".into(), "bursty".into()],
            loads_rps: vec![1.0, 4.0],
            seeds: vec![1, 2, 3],
            autoscalers: None,
            admissions: None,
            faults: None,
            observers: None,
            cluster: None,
            tenants: None,
            requests: 500,
            samples_per_point: 1000,
            budget_step_ms: 1.0,
        };
        let quick = BenchFlags {
            scale: Scale::Quick,
            ..BenchFlags::default()
        };
        apply_flags_to_spec(&mut spec, &quick);
        assert_eq!(spec.samples_per_point, 300);
        assert!((spec.budget_step_ms - 5.0).abs() < 1e-12);
        assert_eq!(spec.requests, 500, "grid axes stay as written");
        assert_eq!(spec.seeds, vec![1, 2, 3]);
        let seeded = BenchFlags {
            seed: Some(42),
            ..BenchFlags::default()
        };
        apply_flags_to_spec(&mut spec, &seeded);
        assert_eq!(spec.seeds, vec![42], "--seed replaces the seed axis");
    }

    fn temp_path(name: &str) -> String {
        std::env::temp_dir()
            .join(name)
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn trace_flag_writes_a_reportable_artefact_and_the_csv_has_no_degenerate_cells() {
        let trace_path = temp_path("janus_cli_trace_test.jsonl");
        let csv_path = temp_path("janus_cli_trace_test.csv");
        let flags = BenchFlags {
            scale: Scale::Quick,
            seed: Some(7),
            trace: Some(trace_path.clone()),
            ..BenchFlags::default()
        };
        execute(&Command::Run("capacity".into()), &flags).unwrap();
        let text = std::fs::read_to_string(&trace_path).expect("trace written");
        let decoded = TraceReport::from_jsonl(&text).expect("trace decodes");
        assert!(!decoded.policies.is_empty());

        // `janus report` renders the artefact and `--out` writes its CSV.
        let report_flags = BenchFlags {
            out: Some(csv_path.clone()),
            ..BenchFlags::default()
        };
        execute(&Command::Report(trace_path.clone()), &report_flags).unwrap();
        let csv = std::fs::read_to_string(&csv_path).expect("csv written");
        let mut lines = csv.lines();
        let header = lines.next().expect("csv header");
        assert!(header.starts_with("policy,at_ms,"), "{header}");
        let mut cells = 0usize;
        for line in lines {
            // Every numeric cell must round-trip as a finite f64 — a NaN or
            // inf cell would silently poison a spreadsheet import.
            for cell in line.split(',').skip(1) {
                let value: f64 = cell
                    .parse()
                    .unwrap_or_else(|e| panic!("cell `{cell}` in `{line}` is not a number: {e}"));
                assert!(value.is_finite(), "cell `{cell}` in `{line}`");
                cells += 1;
            }
        }
        assert!(cells > 0, "csv has data rows");

        // Experiments without a trace hook refuse --trace before running:
        // no `--out` artefact is written.
        let out_path = temp_path("janus_cli_trace_refused.json");
        let _ = std::fs::remove_file(&out_path);
        let refused = BenchFlags {
            out: Some(out_path.clone()),
            ..flags
        };
        let err = execute(&Command::Run("fig1a".into()), &refused).unwrap_err();
        assert!(
            err.contains("`fig1a` emits no trace")
                && err.contains("trace-capable experiments: capacity, chaos_resilience"),
            "{err}"
        );
        assert!(
            !std::path::Path::new(&out_path).exists(),
            "a refused --trace run wrote {out_path}"
        );
        let _ = std::fs::remove_file(&trace_path);
        let _ = std::fs::remove_file(&csv_path);
    }

    #[test]
    fn sweep_results_store_resumes_and_reports_end_to_end() {
        let spec_path = temp_path("janus_cli_store_spec.json");
        let dir = temp_path("janus_cli_store_results");
        let csv_path = temp_path("janus_cli_store_report.csv");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::write(
            &spec_path,
            r#"{
                "name": "cli-store",
                "app": "IA",
                "concurrency": 1,
                "policies": ["GrandSLAM"],
                "scenarios": ["poisson"],
                "loads_rps": [2],
                "seeds": [7, 11],
                "requests": 30,
                "samples_per_point": 250,
                "budget_step_ms": 10
            }"#,
        )
        .unwrap();
        let flags = BenchFlags {
            scale: Scale::Quick,
            ..BenchFlags::default()
        };
        let cold = Command::Sweep {
            spec: spec_path.clone(),
            results: Some(dir.clone()),
            resume: false,
            force: false,
        };
        execute(&cold, &flags).unwrap();
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            2,
            "one cell file per grid point"
        );
        // A warm `--resume` replays both cells without touching the store.
        let warm = Command::Sweep {
            spec: spec_path.clone(),
            results: Some(dir.clone()),
            resume: true,
            force: false,
        };
        execute(&warm, &flags).unwrap();

        // `janus report <dir>` aggregates the store; `--out` writes CSV.
        let report_flags = BenchFlags {
            out: Some(csv_path.clone()),
            ..BenchFlags::default()
        };
        execute(&Command::Report(dir.clone()), &report_flags).unwrap();
        let csv = std::fs::read_to_string(&csv_path).expect("csv written");
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + one row per (cell, policy): {csv}");
        assert!(lines[0].starts_with("scenario,rps,seed,"), "{csv}");
        assert!(lines[1].contains("GrandSLAM"), "{csv}");

        let _ = std::fs::remove_file(&spec_path);
        let _ = std::fs::remove_file(&csv_path);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lint_runs_clean_and_writes_a_decodable_artefact() {
        let out = temp_path("janus_cli_lint_artefact_test.json");
        let flags = BenchFlags {
            out: Some(out.clone()),
            ..BenchFlags::default()
        };
        // Clean against the committed baseline, or this (and CI) fails.
        execute(&Command::Lint { json: false }, &flags).unwrap();
        let doc = janus_json::parse(&std::fs::read_to_string(&out).expect("artefact written"))
            .expect("artefact is valid JSON");
        assert_eq!(doc.require("tool").unwrap().as_str(), Some("janus-lint"));
        assert_eq!(
            doc.require("rules").unwrap().as_array().map(<[_]>::len),
            Some(6)
        );
        // The typed decode accepts the artefact it just wrote.
        janus_lint::diagnostics_from_json(&doc).expect("artefact decodes to diagnostics");
        let _ = std::fs::remove_file(&out);
    }
}
