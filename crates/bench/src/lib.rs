//! # janus-bench
//!
//! The benchmark harness of the Janus reproduction, built around one
//! driver binary:
//!
//! * **`janus`** (`src/bin/janus.rs`) — the single experiment CLI.
//!   `janus list` enumerates every registered experiment, policy, scenario,
//!   autoscaler and admission policy straight from the registries;
//!   `janus run <experiment>` runs one of them; `janus sweep <spec.json>`
//!   executes a declarative grid from a spec file; `janus all` regenerates
//!   the full evaluation. The seventeen per-figure binaries this replaced
//!   (`fig1a` … `table2`, `scenarios`, `capacity`, `perf`, `overhead`) are
//!   gone — each one is now `janus run <same-name>`.
//!
//! Every invocation accepts the shared [`BenchFlags`]: `--quick` (reduced
//! scale for smoke runs), `--paper` (the default), `--seed N` (override the
//! serving/profiling seed), `--out PATH` (write the result as JSON next to
//! the stdout tables; the artefact is re-read and decode-checked before the
//! process exits 0), `--trace PATH` (write a JSONL flight trace, implying
//! the flight-recorder observer) and `--help`. Serving itself always goes
//! through
//! [`ServingSession`](janus_core::session::ServingSession).

pub mod cli;

use janus_core::experiments::ExperimentCtx;
use janus_json::Value;

pub use janus_core::experiments::Scale;

/// The flags every invocation shares, parsed by [`cli::parse`].
///
/// Recognised flags: `--quick`, `--paper` (default), `--seed <u64>`,
/// `--out <path>`, `--trace <path>`. Unknown or duplicated flags abort with
/// a usage message so typos cannot silently run a multi-minute experiment
/// at the wrong scale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchFlags {
    /// Experiment scale (`--quick` selects [`Scale::Quick`]).
    pub scale: Scale,
    /// Optional serving/profiling seed override (`--seed N`).
    pub seed: Option<u64>,
    /// Optional path the invocation writes its result to as JSON (`--out`),
    /// next to the stdout tables.
    pub out: Option<String>,
    /// Optional path a trace-capable experiment writes its JSONL flight
    /// trace to (`--trace`); implies the `flight-recorder` observer.
    pub trace: Option<String>,
}

impl Default for BenchFlags {
    fn default() -> Self {
        BenchFlags {
            scale: Scale::Paper,
            seed: None,
            out: None,
            trace: None,
        }
    }
}

impl BenchFlags {
    /// Parse from an explicit argument list. Every flag may appear at most
    /// once — a repeated or contradictory flag is an error, not a silent
    /// last-one-wins.
    pub(crate) fn from_args<I>(args: I) -> Result<BenchFlags, String>
    where
        I: IntoIterator<Item = String>,
    {
        let mut scale: Option<Scale> = None;
        let mut flags = BenchFlags::default();
        let set_scale = |which: &str, value: Scale, scale: &mut Option<Scale>| {
            if let Some(earlier) = scale {
                return Err(format!(
                    "{which} conflicts with the earlier {}",
                    match earlier {
                        Scale::Quick => "--quick",
                        Scale::Paper => "--paper",
                    }
                ));
            }
            *scale = Some(value);
            Ok(())
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => set_scale("--quick", Scale::Quick, &mut scale)?,
                "--paper" => set_scale("--paper", Scale::Paper, &mut scale)?,
                "--seed" => {
                    if flags.seed.is_some() {
                        return Err("--seed given twice".into());
                    }
                    let value = it
                        .next()
                        .ok_or_else(|| "--seed needs a value".to_string())?;
                    flags.seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("invalid --seed `{value}`: {e}"))?,
                    );
                }
                "--out" => {
                    if flags.out.is_some() {
                        return Err("--out given twice".into());
                    }
                    let value = it.next().ok_or_else(|| "--out needs a path".to_string())?;
                    if value.starts_with("--") {
                        return Err(format!("--out needs a path, got flag `{value}`"));
                    }
                    flags.out = Some(value);
                }
                "--trace" => {
                    if flags.trace.is_some() {
                        return Err("--trace given twice".into());
                    }
                    let value = it
                        .next()
                        .ok_or_else(|| "--trace needs a path".to_string())?;
                    if value.starts_with("--") {
                        return Err(format!("--trace needs a path, got flag `{value}`"));
                    }
                    flags.trace = Some(value);
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        flags.scale = scale.unwrap_or(Scale::Paper);
        Ok(flags)
    }

    /// The experiment context these flags describe (scale + seed override).
    pub(crate) fn ctx(&self) -> ExperimentCtx {
        ExperimentCtx::new(self.scale).with_seed(self.seed)
    }

    /// Write a result document as pretty-printed JSON to the `--out` path;
    /// a no-op without `--out`. Reports the written path on stderr so the
    /// stdout tables stay machine-clean; a failed write aborts the process
    /// with a non-zero exit code — an explicitly requested artefact must
    /// not be silently missing.
    pub(crate) fn write_out_value(&self, value: &Value) {
        let Some(path) = &self.out else { return };
        let mut doc = value.to_pretty();
        doc.push('\n');
        // Atomic (temp-file + rename): an interrupted run never truncates an
        // existing artefact; the path holds either the old document or the
        // new one, never a torn mix.
        match janus_results::write_atomic(std::path::Path::new(path), &doc) {
            Ok(()) => eprintln!("wrote {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    /// Re-read the artefact just written with `--out` and assert it decodes
    /// with [`janus_json`]'s parser back to exactly the document that was
    /// written. An artefact the caller explicitly requested must not be
    /// silently unparseable, so any mismatch aborts the process with a
    /// non-zero exit code. No-op without `--out`.
    pub(crate) fn verify_out(&self, written: &Value) {
        let Some(path) = &self.out else { return };
        match self.verify_out_inner(path, written) {
            Ok(()) => eprintln!("validated {path}: decodes back to the written document"),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }

    fn verify_out_inner(&self, path: &str, written: &Value) -> Result<(), String> {
        let doc = std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read back {path}: {e}"))?;
        let parsed =
            janus_json::parse(&doc).map_err(|e| format!("{path} is not valid JSON: {e}"))?;
        if &parsed != written {
            return Err(format!(
                "{path}: decoded document differs from the written result"
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janus_core::experiments::{ToJson, TABLE1_POLICIES};
    use janus_core::session::Load;
    use janus_workloads::apps::PaperApp;

    fn parse(args: &[&str]) -> Result<BenchFlags, String> {
        BenchFlags::from_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse_scale_and_seed() {
        assert_eq!(parse(&[]).unwrap(), BenchFlags::default());
        assert_eq!(parse(&["--quick"]).unwrap().scale, Scale::Quick);
        assert_eq!(parse(&["--paper"]).unwrap().scale, Scale::Paper);
        let flags = parse(&["--quick", "--seed", "99"]).unwrap();
        assert_eq!(flags.seed, Some(99));
        let served = flags
            .ctx()
            .session(PaperApp::IntelligentAssistant, 1)
            .policy("GrandSLAM")
            .load(Load::Closed { requests: 5 })
            .run()
            .unwrap();
        assert_eq!(served.seed, 99);
        assert_eq!(flags.ctx().seed_or(1), 99);
        assert_eq!(flags.ctx().scale, Scale::Quick);
    }

    #[test]
    fn flags_reject_typos_and_bad_seeds() {
        assert!(parse(&["--qiuck"]).unwrap_err().contains("unknown flag"));
        assert!(parse(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(parse(&["--seed", "abc"])
            .unwrap_err()
            .contains("invalid --seed"));
        assert!(parse(&["--out"]).unwrap_err().contains("needs a path"));
        assert!(parse(&["--out", "--quick"])
            .unwrap_err()
            .contains("needs a path, got flag"));
        assert!(parse(&["--trace"]).unwrap_err().contains("needs a path"));
        assert!(parse(&["--trace", "--quick"])
            .unwrap_err()
            .contains("needs a path, got flag"));
    }

    #[test]
    fn flags_reject_duplicates_and_conflicts() {
        let err = parse(&["--seed", "1", "--seed", "2"]).unwrap_err();
        assert!(err.contains("--seed given twice"), "{err}");
        let err = parse(&["--out", "a.json", "--out", "b.json"]).unwrap_err();
        assert!(err.contains("--out given twice"), "{err}");
        let err = parse(&["--trace", "a.jsonl", "--trace", "b.jsonl"]).unwrap_err();
        assert!(err.contains("--trace given twice"), "{err}");
        let err = parse(&["--quick", "--paper"]).unwrap_err();
        assert!(err.contains("--paper conflicts"), "{err}");
        let err = parse(&["--quick", "--quick"]).unwrap_err();
        assert!(err.contains("--quick conflicts"), "{err}");
    }

    #[test]
    fn out_flag_writes_and_verifies_parseable_json() {
        let path = std::env::temp_dir().join("janus_bench_out_flag_test.json");
        let path_str = path.to_string_lossy().to_string();
        let flags = parse(&["--quick", "--out", &path_str]).unwrap();
        assert_eq!(flags.out.as_deref(), Some(path_str.as_str()));

        let result = janus_core::experiments::fig1c_interference();
        let written = result.to_json();
        flags.write_out_value(&written);
        let doc = janus_json::parse(&std::fs::read_to_string(&path).expect("file written"))
            .expect("valid JSON");
        assert_eq!(doc.require("experiment").unwrap().as_str(), Some("fig1c"));
        // The read-back verification accepts its own artefact…
        flags.verify_out_inner(&path_str, &written).unwrap();
        // …and rejects a mismatching one.
        let err = flags
            .verify_out_inner(&path_str, &Value::Num(1.0))
            .unwrap_err();
        assert!(err.contains("differs"), "{err}");
        let _ = std::fs::remove_file(&path);
        let err = flags.verify_out_inner(&path_str, &written).unwrap_err();
        assert!(err.contains("failed to read back"), "{err}");

        // No --out: write and verify are no-ops.
        BenchFlags::default().write_out_value(&written);
        BenchFlags::default().verify_out(&written);
    }

    #[test]
    fn flags_produce_a_runnable_session_builder() {
        let flags = parse(&["--quick", "--seed", "5"]).unwrap();
        // Serving Table I's seven policies, appending one of them again is
        // rejected as a duplicate.
        let err = flags
            .ctx()
            .session(PaperApp::IntelligentAssistant, 1)
            .policies(TABLE1_POLICIES.iter().copied())
            .policy("GrandSLAM")
            .load(Load::Closed { requests: 5 })
            .build()
            .unwrap_err();
        assert!(err.contains("added twice"), "{err}");
        let session = flags
            .ctx()
            .session(PaperApp::IntelligentAssistant, 1)
            .policies(TABLE1_POLICIES.iter().copied())
            .load(Load::Closed { requests: 5 })
            .build()
            .unwrap();
        assert_eq!(session.policies().len(), 7);
        assert_eq!(session.policies()[0], "Optimal");
    }
}
