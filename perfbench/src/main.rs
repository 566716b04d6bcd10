//! Benchmark of the Janus reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_steady|chaos_sweep|paper_closed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` seconds, checks its simulated
//! outputs, and prints as the last line one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Any
//! failed check or violated operating point exits 1 without a result.
//! See `perfbench/README.md` for the workloads and metrics.

mod cells;
mod cpus;
mod figures;
mod reference;
mod serve;
mod trace;
mod workloads;

use janus_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sim_req_per_ref", "req/ref"),
    ("cells_per_ref", "cells/ref"),
    ("peak_rss_mb", "MB"),
    ("slo_attainment", "fraction"),
    ("served_fraction", "fraction"),
    ("sim_p99_e2e_ms", "ms"),
    ("janus_cpu_vs_orion", "ratio"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("profiler.profile_s", "s"),
    ("synthesizer.build_s", "s"),
    ("synthesizer.condensed_hints", "count"),
    ("synthesizer.compression_ratio", "ratio"),
    ("baselines.orion_build_s", "s"),
    ("baselines.optimal_build_s", "s"),
    ("workloads.generate_s", "s"),
    ("openloop.serve_s", "s"),
    ("openloop.events", "count"),
    ("openloop.ns_per_event", "ns"),
    ("openloop.peak_queue_depth", "count"),
    ("simcore.engine.push_pop_ns", "ns"),
    ("simcore.cluster.place_remove_ns", "ns"),
    ("simcore.pool.acquire_release_ns", "ns"),
    ("simcore.metrics.record_ns", "ns"),
    ("adapter.decide_ns", "ns"),
    ("adapter.hint_hit_rate", "fraction"),
    ("pool.warm_hit_rate", "fraction"),
    ("executor.serve_s", "s"),
    ("executor.requests", "count"),
    ("capacity.shed_fraction", "fraction"),
    ("capacity.scale_events", "count"),
    ("chaos.faults_applied", "count"),
    ("chaos.nodes_lost", "count"),
    ("chaos.retried", "count"),
    ("chaos.failed", "count"),
    ("observe.records", "count"),
    ("observe.trace_bytes", "bytes"),
    ("observe.overhead_frac", "fraction"),
    ("results.save_ms", "ms"),
    ("results.load_ms", "ms"),
    ("results.hit_ratio", "fraction"),
    ("results.bytes", "bytes"),
    ("sweep.cell_ms_p50", "ms"),
    ("sweep.cell_ms_max", "ms"),
    ("sweep.stripe_imbalance", "ratio"),
    ("trace.overhead_frac", "fraction"),
];

/// Named metric values, reported in the order of one of the lists above.
#[derive(Debug)]
pub struct Sheet {
    names: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Sheet {
    /// Every metric of `names`, all 0 until set.
    pub fn new(names: &'static [(&'static str, &'static str)]) -> Self {
        Sheet {
            names,
            values: vec![0.0; names.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let index = self
            .names
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the benchmark's list"));
        self.values[index] = value;
    }

    fn to_json(&self) -> Value {
        Value::Obj(
            self.names
                .iter()
                .zip(&self.values)
                .map(|((name, unit), value)| {
                    let metric = Value::Obj(vec![
                        ("value".into(), Value::Num(*value)),
                        ("unit".into(), Value::Str((*unit).into())),
                    ]);
                    (name.to_string(), metric)
                })
                .collect(),
        )
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run reports.
pub struct Outcome {
    /// Simulated requests generated in one pass of the workload.
    pub attempted: u64,
    /// Of those, requests shed at admission or failed by faults.
    pub failed: u64,
    /// SHA-256 over every simulated per-policy figure of one pass.
    pub digest: String,
    pub metrics: Sheet,
}

const USAGE: &str = "usage: janus-perfbench --workload <fleet_steady|chaos_sweep|paper_closed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown flag `{flag}`")),
        };
        if slot.replace(value.clone()).is_some() {
            return Err(format!("`{flag}` given twice"));
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = seed
        .ok_or("missing --seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = seconds
        .ok_or("missing --seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match trace.ok_or("missing --trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Opts {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Working space for spans and results stores, inside the benchmark's own
/// directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the Linux process CPU clock and /proc on 64-bit targets");

/// Seconds of the CPU clock `clock_id`.
fn cpu_clock_s(clock_id: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: on 64-bit Linux `struct timespec` is two 64-bit integers, so
    // `ts` is a valid, writable timespec, and clock_gettime writes only
    // into it.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has run, over all its threads, exited ones
/// included. Host timings use it instead of wall time: on a shared virtual
/// machine the wall clock also counts time the core spent on other tenants.
pub fn process_cpu_s() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has run.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Host high-water resident memory of this process, in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match workloads::run(&opts) {
        Ok(outcome) => {
            println!(
                "digest {} seed {}: {}",
                opts.workload, opts.seed, outcome.digest
            );
            let result = Value::Obj(vec![
                ("correct".into(), Value::Bool(true)),
                ("attempted".into(), Value::Num(outcome.attempted as f64)),
                ("failed".into(), Value::Num(outcome.failed as f64)),
                ("metrics".into(), outcome.metrics.to_json()),
            ]);
            println!("{}", result.to_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", opts.workload);
            ExitCode::FAILURE
        }
    }
}
