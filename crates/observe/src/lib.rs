//! # janus-observe
//!
//! The flight recorder: structured event tracing and time-series telemetry
//! for the serving simulation.
//!
//! Every run so far collapsed into end-of-run aggregates, so questions like
//! *where does an SLO-violating request spend its time* or *when did the
//! retry storm peak* were unanswerable without re-instrumenting by hand.
//! This crate adds observability as a first-class, registry-driven axis —
//! the generic [`Registry`] every other axis uses — so sessions and sweeps
//! resolve observers by name and downstream code can register its own.
//!
//! An [`Observer`] receives typed lifecycle [`Record`]s (arrival, admission
//! verdict, placement, cold start, execution start/end, retry, fault
//! delivery, scaling, shed/fail/completion) stamped with simulated time,
//! plus a [`TickSample`] of fleet telemetry at every capacity tick. The
//! execution loops in `janus-platform` emit these hooks only when an
//! observer is attached: with no observer the loops take the `None` arm of
//! an `Option` and construct nothing — no allocation, no virtual call — so
//! the observer-off path costs what the un-instrumented build cost (the
//! perf bench asserts this).
//!
//! Built-ins (see [`ObserverRegistry::with_builtins`]):
//!
//! * `ring` — bounded in-memory ring buffer of the most recent records.
//! * `trace` — JSONL sink: one compact JSON document per line, per-request
//!   sampled so traces stay bounded at any request count. The sink keeps
//!   typed entries (each kept [`Record`] copied onto a `Vec`, each tick
//!   with its position) in a [`Trace`], and the JSONL is encoded only when
//!   the trace is read ([`Trace::write_to`]), with janus-json's own number
//!   and string formatters, so it is byte-identical to encoding a `Value`
//!   tree. Sweeps that never read the text never pay for it.
//! * `spans` — per-request span builder deriving queue-wait / cold-start /
//!   execution / retry breakdowns and critical-path timings.
//! * `time-series` — capacity-tick sampler emitting a [`TimeSeriesReport`]
//!   (queue depth, active nodes per zone, utilization, pool size,
//!   shed/fail/retry counters).
//! * `flight-recorder` — all of the above in one observer; what
//!   `janus run <exp> --trace out.jsonl` attaches.
//!
//! Everything is seed-deterministic: observers hold no randomness, sampling
//! is a pure function of the request id, and records arrive in simulation
//! order — the same seed always produces a byte-identical trace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod report;

pub use report::{qualify_policy, PolicyTrace, TraceReport};

use janus_json::{write_number, write_string, Value};
use janus_simcore::idmap::IdMap;
use janus_simcore::registry::{Entry, Factory, NamedFn, Registry};
use janus_simcore::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Everything an observer may consult when it is built for one policy run —
/// the observer-side mirror of `FaultContext` / `CapacityContext`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObserverContext {
    /// The run seed (observers are deterministic; this is for labelling
    /// and for samplers that want a seed-stable hash salt).
    pub seed: u64,
    /// Name of the policy whose run is being observed.
    pub policy: String,
    /// Number of requests the run will generate; drives trace sampling.
    pub requests: usize,
    /// Availability zones the cluster is spread over.
    pub zones: usize,
    /// End-to-end latency SLO requests are served under.
    pub slo: SimDuration,
}

impl ObserverContext {
    /// Validate the context before any factory consumes it.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.policy.is_empty() {
            return Err("observer context needs a policy name".into());
        }
        if self.requests == 0 {
            return Err("observer context needs at least one request".into());
        }
        if self.zones == 0 {
            return Err("observer context needs at least one zone".into());
        }
        Ok(())
    }
}

/// One lifecycle event, stamped with the simulated instant it happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Simulated time of the event.
    pub at: SimTime,
    /// What happened.
    pub kind: RecordKind,
}

/// The typed lifecycle events the execution loops emit. All variants are
/// `Copy` scalars so constructing one never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordKind {
    /// A request arrived at the platform.
    Arrival {
        /// Request id.
        request: u64,
    },
    /// The admission policy ruled on a request.
    Admission {
        /// Request id.
        request: u64,
        /// `true` to admit, `false` to shed.
        admitted: bool,
    },
    /// A function invocation was placed on the fleet.
    Placement {
        /// Request id.
        request: u64,
        /// Function index within the workflow.
        function: usize,
        /// `true` when regular placement failed and the pod was placed
        /// over capacity.
        overcommitted: bool,
    },
    /// A placement paid a cold-start (pod startup) delay.
    ColdStart {
        /// Request id.
        request: u64,
        /// Function index within the workflow.
        function: usize,
        /// The startup delay paid before execution begins.
        delay: SimDuration,
    },
    /// A function invocation started executing.
    ExecStart {
        /// Request id.
        request: u64,
        /// Function index within the workflow.
        function: usize,
    },
    /// A function invocation finished executing.
    ExecEnd {
        /// Request id.
        request: u64,
        /// Function index within the workflow.
        function: usize,
        /// Pure execution time of the invocation (excludes startup delay).
        exec: SimDuration,
    },
    /// A fault voided a request's in-flight function; it will be retried.
    Retry {
        /// Request id.
        request: u64,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
        /// Wall time the voided attempt had already spent.
        lost: SimDuration,
    },
    /// A scheduled fault was delivered to the fleet.
    Fault {
        /// Stable action name: `crash`, `preempt`, `zone-outage` or
        /// `slow-nodes`.
        kind: &'static str,
    },
    /// The fleet changed size (autoscaling decision or fault).
    Scaling {
        /// Active nodes before.
        from_nodes: usize,
        /// Active nodes after.
        to_nodes: usize,
    },
    /// Admission control shed a request (terminal).
    Shed {
        /// Request id.
        request: u64,
    },
    /// A request failed after exhausting its retry budget (terminal).
    Failed {
        /// Request id.
        request: u64,
        /// End-to-end wall time accrued before the failure.
        e2e: SimDuration,
    },
    /// A request was served to completion (terminal).
    Completion {
        /// Request id.
        request: u64,
        /// End-to-end latency.
        e2e: SimDuration,
        /// `true` when the end-to-end latency met the SLO.
        slo_met: bool,
    },
}

/// Fault action names [`RecordKind::Fault`] may carry; decoding rejects
/// anything else so traces stay typed.
pub const FAULT_KINDS: [&str; 4] = ["crash", "preempt", "zone-outage", "slow-nodes"];

impl RecordKind {
    /// Stable type tag used as the `type` field of a trace line.
    pub fn kind_name(&self) -> &'static str {
        match self {
            RecordKind::Arrival { .. } => "arrival",
            RecordKind::Admission { .. } => "admission",
            RecordKind::Placement { .. } => "placement",
            RecordKind::ColdStart { .. } => "cold-start",
            RecordKind::ExecStart { .. } => "exec-start",
            RecordKind::ExecEnd { .. } => "exec-end",
            RecordKind::Retry { .. } => "retry",
            RecordKind::Fault { .. } => "fault",
            RecordKind::Scaling { .. } => "scaling",
            RecordKind::Shed { .. } => "shed",
            RecordKind::Failed { .. } => "failed",
            RecordKind::Completion { .. } => "completion",
        }
    }

    /// The request the event belongs to, if it is request-scoped
    /// (fault/scaling events are fleet-scoped).
    pub fn request(&self) -> Option<u64> {
        match *self {
            RecordKind::Arrival { request }
            | RecordKind::Admission { request, .. }
            | RecordKind::Placement { request, .. }
            | RecordKind::ColdStart { request, .. }
            | RecordKind::ExecStart { request, .. }
            | RecordKind::ExecEnd { request, .. }
            | RecordKind::Retry { request, .. }
            | RecordKind::Shed { request }
            | RecordKind::Failed { request, .. }
            | RecordKind::Completion { request, .. } => Some(request),
            RecordKind::Fault { .. } | RecordKind::Scaling { .. } => None,
        }
    }
}

impl Record {
    /// Decode a record from its JSON object form. Extra keys (such as the
    /// `policy` label trace lines carry) are ignored.
    pub fn from_json(value: &Value) -> Result<Record, String> {
        let at = SimTime::from_millis(decode_num(value, "at_ms")?);
        let tag = value
            .require("type")?
            .as_str()
            .ok_or("`type` not a string")?;
        let kind = match tag {
            "arrival" => RecordKind::Arrival {
                request: decode_uint(value, "request")?,
            },
            "admission" => RecordKind::Admission {
                request: decode_uint(value, "request")?,
                admitted: decode_bool(value, "admitted")?,
            },
            "placement" => RecordKind::Placement {
                request: decode_uint(value, "request")?,
                function: decode_uint(value, "function")? as usize,
                overcommitted: decode_bool(value, "overcommitted")?,
            },
            "cold-start" => RecordKind::ColdStart {
                request: decode_uint(value, "request")?,
                function: decode_uint(value, "function")? as usize,
                delay: SimDuration::from_millis(decode_num(value, "delay_ms")?),
            },
            "exec-start" => RecordKind::ExecStart {
                request: decode_uint(value, "request")?,
                function: decode_uint(value, "function")? as usize,
            },
            "exec-end" => RecordKind::ExecEnd {
                request: decode_uint(value, "request")?,
                function: decode_uint(value, "function")? as usize,
                exec: SimDuration::from_millis(decode_num(value, "exec_ms")?),
            },
            "retry" => RecordKind::Retry {
                request: decode_uint(value, "request")?,
                attempt: decode_uint(value, "attempt")? as u32,
                lost: SimDuration::from_millis(decode_num(value, "lost_ms")?),
            },
            "fault" => {
                let name = value
                    .require("fault")?
                    .as_str()
                    .ok_or("`fault` not a string")?;
                let kind = FAULT_KINDS
                    .iter()
                    .find(|k| **k == name)
                    .ok_or_else(|| format!("unknown fault kind `{name}`"))?;
                RecordKind::Fault { kind }
            }
            "scaling" => RecordKind::Scaling {
                from_nodes: decode_uint(value, "from_nodes")? as usize,
                to_nodes: decode_uint(value, "to_nodes")? as usize,
            },
            "shed" => RecordKind::Shed {
                request: decode_uint(value, "request")?,
            },
            "failed" => RecordKind::Failed {
                request: decode_uint(value, "request")?,
                e2e: SimDuration::from_millis(decode_num(value, "e2e_ms")?),
            },
            "completion" => RecordKind::Completion {
                request: decode_uint(value, "request")?,
                e2e: SimDuration::from_millis(decode_num(value, "e2e_ms")?),
                slo_met: decode_bool(value, "slo_met")?,
            },
            other => return Err(format!("unknown record type `{other}`")),
        };
        Ok(Record { at, kind })
    }
}

fn decode_num(value: &Value, key: &str) -> Result<f64, String> {
    value
        .require(key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` not a number"))
}

fn decode_uint(value: &Value, key: &str) -> Result<u64, String> {
    let n = decode_num(value, key)?;
    // janus-lint: allow(float-cmp) — exactness is the point: fract() must be exactly zero for an integer-valued f64
    if n < 0.0 || n.fract() != 0.0 {
        return Err(format!("`{key}` not a non-negative integer, got {n}"));
    }
    Ok(n as u64)
}

fn decode_bool(value: &Value, key: &str) -> Result<bool, String> {
    match value.require(key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(format!("`{key}` not a boolean")),
    }
}

/// One sample of fleet telemetry, taken at a capacity tick. Counters
/// (`shed`, `failed`, `retried`) are cumulative since the run started;
/// rates are derived at render time by differencing adjacent samples.
#[derive(Debug, Clone, PartialEq)]
pub struct TickSample {
    /// Simulated time of the tick.
    pub at: SimTime,
    /// Events pending in the simulation queue (arrivals not yet processed).
    pub queue_depth: usize,
    /// Requests admitted and not yet terminal.
    pub inflight: usize,
    /// Active (live, non-retired) nodes in the fleet.
    pub active_nodes: usize,
    /// Active nodes per availability zone, indexed by zone.
    pub nodes_per_zone: Vec<usize>,
    /// Fleet utilization in `[0, 1]`.
    pub utilization: f64,
    /// Warm pods available in the generic pool.
    pub pool_size: usize,
    /// Requests shed so far (cumulative).
    pub shed: u64,
    /// Requests failed so far (cumulative).
    pub failed: u64,
    /// Retries performed so far (cumulative).
    pub retried: u64,
}

/// One point of a [`TimeSeriesReport`] — the serializable form of a
/// [`TickSample`].
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesPoint {
    /// Simulated time of the sample, in milliseconds.
    pub at_ms: f64,
    /// Events pending in the simulation queue.
    pub queue_depth: u64,
    /// Requests admitted and not yet terminal.
    pub inflight: u64,
    /// Active nodes in the fleet.
    pub active_nodes: u64,
    /// Active nodes per availability zone.
    pub nodes_per_zone: Vec<u64>,
    /// Fleet utilization in `[0, 1]`.
    pub utilization: f64,
    /// Warm pods available in the generic pool.
    pub pool_size: u64,
    /// Requests shed so far (cumulative).
    pub shed: u64,
    /// Requests failed so far (cumulative).
    pub failed: u64,
    /// Retries performed so far (cumulative).
    pub retried: u64,
}

impl TimeSeriesPoint {
    /// Convert a live tick sample into its serializable form.
    pub fn from_sample(sample: &TickSample) -> TimeSeriesPoint {
        TimeSeriesPoint {
            at_ms: sample.at.as_millis(),
            queue_depth: sample.queue_depth as u64,
            inflight: sample.inflight as u64,
            active_nodes: sample.active_nodes as u64,
            nodes_per_zone: sample.nodes_per_zone.iter().map(|&n| n as u64).collect(),
            utilization: sample.utilization,
            pool_size: sample.pool_size as u64,
            shed: sample.shed,
            failed: sample.failed,
            retried: sample.retried,
        }
    }

    /// Encode as a `janus-json` object with a fixed key order.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("at_ms".to_string(), Value::Num(self.at_ms)),
            (
                "queue_depth".to_string(),
                Value::Num(self.queue_depth as f64),
            ),
            ("inflight".to_string(), Value::Num(self.inflight as f64)),
            (
                "active_nodes".to_string(),
                Value::Num(self.active_nodes as f64),
            ),
            (
                "nodes_per_zone".to_string(),
                Value::Arr(
                    self.nodes_per_zone
                        .iter()
                        .map(|&n| Value::Num(n as f64))
                        .collect(),
                ),
            ),
            ("utilization".to_string(), Value::Num(self.utilization)),
            ("pool_size".to_string(), Value::Num(self.pool_size as f64)),
            ("shed".to_string(), Value::Num(self.shed as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("retried".to_string(), Value::Num(self.retried as f64)),
        ])
    }

    /// Decode a point from its JSON object form. Extra keys are ignored.
    pub fn from_json(value: &Value) -> Result<TimeSeriesPoint, String> {
        let zones = value
            .require("nodes_per_zone")?
            .as_array()
            .ok_or("`nodes_per_zone` not an array")?
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| "`nodes_per_zone` entry not a number".to_string())
                    .map(|n| n as u64)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TimeSeriesPoint {
            at_ms: decode_num(value, "at_ms")?,
            queue_depth: decode_uint(value, "queue_depth")?,
            inflight: decode_uint(value, "inflight")?,
            active_nodes: decode_uint(value, "active_nodes")?,
            nodes_per_zone: zones,
            utilization: decode_num(value, "utilization")?,
            pool_size: decode_uint(value, "pool_size")?,
            shed: decode_uint(value, "shed")?,
            failed: decode_uint(value, "failed")?,
            retried: decode_uint(value, "retried")?,
        })
    }
}

/// The time-series half of a flight recording: one point per capacity tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeriesReport {
    /// Samples in tick order.
    pub points: Vec<TimeSeriesPoint>,
}

impl TimeSeriesReport {
    /// Append a live sample.
    pub(crate) fn push(&mut self, sample: &TickSample) {
        self.points.push(TimeSeriesPoint::from_sample(sample));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when nothing was sampled.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Encode as a `janus-json` object.
    pub(crate) fn to_json(&self) -> Value {
        Value::Obj(vec![(
            "points".to_string(),
            Value::Arr(self.points.iter().map(|p| p.to_json()).collect()),
        )])
    }
}

/// Per-request phase breakdowns aggregated over one policy run, derived by
/// [`SpanBuilder`] from the record stream. All means are over *served*
/// requests and degrade to `0.0` (never NaN) when nothing was served.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanSummary {
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests failed after exhausting retries.
    pub failed: u64,
    /// Retries performed.
    pub retries: u64,
    /// Cold starts paid.
    pub cold_starts: u64,
    /// Placements that had to overcommit a node.
    pub overcommitted: u64,
    /// Served requests that missed the SLO.
    pub slo_violations: u64,
    /// Mean time a served request spent waiting (e2e minus all other
    /// phases).
    pub mean_queue_ms: f64,
    /// Mean cold-start time per served request.
    pub mean_cold_ms: f64,
    /// Mean pure execution time per served request.
    pub mean_exec_ms: f64,
    /// Mean wall time lost to fault-voided attempts per served request.
    pub mean_retry_ms: f64,
    /// Mean end-to-end latency per served request.
    pub mean_e2e_ms: f64,
    /// Mean critical path (cold start + execution) per served request.
    pub mean_critical_path_ms: f64,
}

impl SpanSummary {
    /// Encode as a `janus-json` object with a fixed key order.
    pub(crate) fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("arrivals".to_string(), Value::Num(self.arrivals as f64)),
            ("served".to_string(), Value::Num(self.served as f64)),
            ("shed".to_string(), Value::Num(self.shed as f64)),
            ("failed".to_string(), Value::Num(self.failed as f64)),
            ("retries".to_string(), Value::Num(self.retries as f64)),
            (
                "cold_starts".to_string(),
                Value::Num(self.cold_starts as f64),
            ),
            (
                "overcommitted".to_string(),
                Value::Num(self.overcommitted as f64),
            ),
            (
                "slo_violations".to_string(),
                Value::Num(self.slo_violations as f64),
            ),
            ("mean_queue_ms".to_string(), Value::Num(self.mean_queue_ms)),
            ("mean_cold_ms".to_string(), Value::Num(self.mean_cold_ms)),
            ("mean_exec_ms".to_string(), Value::Num(self.mean_exec_ms)),
            ("mean_retry_ms".to_string(), Value::Num(self.mean_retry_ms)),
            ("mean_e2e_ms".to_string(), Value::Num(self.mean_e2e_ms)),
            (
                "mean_critical_path_ms".to_string(),
                Value::Num(self.mean_critical_path_ms),
            ),
        ])
    }
}

/// Accumulates [`Record`]s into per-request spans and aggregates them into
/// a [`SpanSummary`]. Functions of one request run sequentially, so a
/// single pending cold-start slot per request suffices.
#[derive(Debug, Clone, Default)]
pub struct SpanBuilder {
    /// Open spans by request id. Summaries read running sums and never
    /// iterate it.
    open: IdMap<u64, OpenSpan>,
    arrivals: u64,
    served: u64,
    shed: u64,
    failed: u64,
    retries: u64,
    cold_starts: u64,
    overcommitted: u64,
    slo_violations: u64,
    sum_queue_ms: f64,
    sum_cold_ms: f64,
    sum_exec_ms: f64,
    sum_retry_ms: f64,
    sum_e2e_ms: f64,
}

#[derive(Debug, Clone, Default)]
struct OpenSpan {
    cold_ms: f64,
    exec_ms: f64,
    retry_ms: f64,
    pending_cold_ms: f64,
}

impl SpanBuilder {
    /// A builder with no open spans.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Feed one record.
    pub(crate) fn observe(&mut self, record: &Record) {
        match record.kind {
            RecordKind::Arrival { request } => {
                self.arrivals += 1;
                self.open.insert(request, OpenSpan::default());
            }
            RecordKind::Admission { .. } | RecordKind::ExecStart { .. } => {}
            RecordKind::Placement { overcommitted, .. } => {
                if overcommitted {
                    self.overcommitted += 1;
                }
            }
            RecordKind::ColdStart { request, delay, .. } => {
                self.cold_starts += 1;
                if let Some(span) = self.open.get_mut(&request) {
                    span.pending_cold_ms = delay.as_millis();
                }
            }
            RecordKind::ExecEnd { request, exec, .. } => {
                if let Some(span) = self.open.get_mut(&request) {
                    span.exec_ms += exec.as_millis();
                    span.cold_ms += span.pending_cold_ms;
                    span.pending_cold_ms = 0.0;
                }
            }
            RecordKind::Retry { request, lost, .. } => {
                self.retries += 1;
                if let Some(span) = self.open.get_mut(&request) {
                    // The voided attempt's cold start never ran to use; the
                    // lost wall time already covers it.
                    span.pending_cold_ms = 0.0;
                    span.retry_ms += lost.as_millis();
                }
            }
            RecordKind::Fault { .. } | RecordKind::Scaling { .. } => {}
            RecordKind::Shed { request } => {
                self.shed += 1;
                self.open.remove(&request);
            }
            RecordKind::Failed { request, .. } => {
                self.failed += 1;
                self.open.remove(&request);
            }
            RecordKind::Completion {
                request,
                e2e,
                slo_met,
            } => {
                self.served += 1;
                if !slo_met {
                    self.slo_violations += 1;
                }
                let span = self.open.remove(&request).unwrap_or_default();
                let e2e_ms = e2e.as_millis();
                let queue_ms = (e2e_ms - span.cold_ms - span.exec_ms - span.retry_ms).max(0.0);
                self.sum_queue_ms += queue_ms;
                self.sum_cold_ms += span.cold_ms;
                self.sum_exec_ms += span.exec_ms;
                self.sum_retry_ms += span.retry_ms;
                self.sum_e2e_ms += e2e_ms;
            }
        }
    }

    /// The aggregate summary of everything observed so far.
    pub(crate) fn summary(&self) -> SpanSummary {
        let mean = |sum: f64| {
            if self.served == 0 {
                0.0
            } else {
                sum / self.served as f64
            }
        };
        SpanSummary {
            arrivals: self.arrivals,
            served: self.served,
            shed: self.shed,
            failed: self.failed,
            retries: self.retries,
            cold_starts: self.cold_starts,
            overcommitted: self.overcommitted,
            slo_violations: self.slo_violations,
            mean_queue_ms: mean(self.sum_queue_ms),
            mean_cold_ms: mean(self.sum_cold_ms),
            mean_exec_ms: mean(self.sum_exec_ms),
            mean_retry_ms: mean(self.sum_retry_ms),
            mean_e2e_ms: mean(self.sum_e2e_ms),
            mean_critical_path_ms: mean(self.sum_cold_ms + self.sum_exec_ms),
        }
    }
}

/// What one observer hands back when its run finishes. Which halves are
/// populated depends on the observer: the `trace` built-in fills `trace`,
/// `spans` fills `spans`, `time-series` fills `time_series`, and the
/// `flight-recorder` composite fills all three.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObserverReport {
    /// Name of the observer that produced the report.
    pub observer: String,
    /// Lifecycle records the observer was offered.
    pub records_seen: u64,
    /// Records (and tick samples) the observer kept after sampling.
    pub records_kept: u64,
    /// The kept trace entries, when the observer keeps a trace; encode
    /// them to JSONL with [`Trace::write_to`].
    pub trace: Option<Trace>,
    /// Per-request span breakdowns, when the observer derives them.
    pub spans: Option<SpanSummary>,
    /// Capacity-tick telemetry, when the observer samples it.
    pub time_series: Option<TimeSeriesReport>,
}

impl ObserverReport {
    /// Encode as a `janus-json` object. The trace *body* is deliberately
    /// excluded (it goes to its own `--trace` artefact); only its line
    /// count, counted without encoding, is reported here.
    pub fn to_json(&self) -> Value {
        let trace_lines = self
            .trace
            .as_ref()
            .map(|t| Value::Num(t.entries() as f64))
            .unwrap_or(Value::Null);
        Value::Obj(vec![
            ("observer".to_string(), Value::Str(self.observer.clone())),
            (
                "records_seen".to_string(),
                Value::Num(self.records_seen as f64),
            ),
            (
                "records_kept".to_string(),
                Value::Num(self.records_kept as f64),
            ),
            ("trace_lines".to_string(), trace_lines),
            (
                "spans".to_string(),
                self.spans
                    .as_ref()
                    .map(|s| s.to_json())
                    .unwrap_or(Value::Null),
            ),
            (
                "time_series".to_string(),
                self.time_series
                    .as_ref()
                    .map(|t| t.to_json())
                    .unwrap_or(Value::Null),
            ),
        ])
    }
}

/// An object-safe observer: receives every lifecycle record and capacity
/// tick of one policy run, in simulation order, and renders whatever it
/// accumulated into an [`ObserverReport`] at the end.
///
/// Observers must be deterministic: no wall clocks, no ambient randomness —
/// the same record stream must always produce the same report (the
/// determinism suite compares traces byte-for-byte across reruns).
pub trait Observer: Send {
    /// The name the observer was registered (and reports) under.
    fn name(&self) -> &str;

    /// Receive one lifecycle record.
    fn record(&mut self, record: &Record);

    /// Receive one capacity-tick telemetry sample. Closed-loop runs have
    /// no capacity tick, so the default ignores samples.
    fn tick(&mut self, _sample: &TickSample) {}

    /// Render the accumulated state into a report. Called exactly once,
    /// after the last record.
    fn finish(&mut self) -> ObserverReport;
}

/// Builds observers for policy runs. Factories are shared and immutable;
/// each policy run gets a fresh observer so paired comparisons never leak
/// state across policies.
pub trait ObserverFactory: Send + Sync + fmt::Debug {
    /// The name the factory is registered under.
    fn name(&self) -> &str;

    /// Build a fresh observer for one policy run.
    fn build(&self, ctx: &ObserverContext) -> Result<Box<dyn Observer>, String>;
}

/// The ordered, open registry of named [`ObserverFactory`]s (see
/// [`janus_simcore::registry`]).
pub type ObserverRegistry = Registry<dyn ObserverFactory>;

impl Entry for dyn ObserverFactory {
    const NOUN: &'static str = "observer";

    fn key(&self) -> &str {
        self.name()
    }

    /// The built-in observers, cheapest first: `ring`, `trace`, `spans`,
    /// `time-series`, `flight-recorder`.
    fn builtins(registry: &mut ObserverRegistry) {
        registry.register_fn("ring", |_ctx| Ok(Box::new(RingObserver::default())));
        registry.register_fn("trace", |ctx| Ok(Box::new(TraceObserver::new(ctx))));
        registry.register_fn("spans", |_ctx| Ok(Box::new(SpanObserver::default())));
        registry.register_fn("time-series", |_ctx| {
            Ok(Box::new(TimeSeriesObserver::default()))
        });
        registry.register_fn("flight-recorder", |ctx| {
            Ok(Box::new(FlightRecorder::new(ctx)))
        });
    }
}

impl Factory for dyn ObserverFactory {
    type Ctx<'a> = ObserverContext;
    type Output = Box<dyn Observer>;

    fn validate(ctx: &ObserverContext) -> Result<(), String> {
        ctx.validate()
    }

    fn make(&self, ctx: &ObserverContext) -> Result<Box<dyn Observer>, String> {
        self.build(ctx)
    }

    fn from_fn<F>(name: String, f: F) -> Arc<Self>
    where
        F: Fn(&ObserverContext) -> Result<Box<dyn Observer>, String> + Send + Sync + 'static,
    {
        Arc::new(NamedFn { name, f })
    }
}

impl<F> ObserverFactory for NamedFn<F>
where
    F: Fn(&ObserverContext) -> Result<Box<dyn Observer>, String> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn build(&self, ctx: &ObserverContext) -> Result<Box<dyn Observer>, String> {
        (self.f)(ctx)
    }
}

// ---------------------------------------------------------------------------
// Built-in observers
// ---------------------------------------------------------------------------

/// Requests a trace aims to keep when sampling; the stride grows with the
/// request count so traces stay bounded at any scale.
pub const TRACE_TARGET_REQUESTS: usize = 1024;

/// The per-request sampling stride for a run of `requests` requests: a
/// request is traced iff `id % stride == 0`. Pure and seed-independent so
/// identical runs trace identical requests.
fn sampling_stride(requests: usize) -> u64 {
    (requests / TRACE_TARGET_REQUESTS).max(1) as u64
}

/// Bounded in-memory ring buffer keeping the most recent records — the
/// cheapest observer; useful for tests and post-mortem inspection.
#[derive(Debug, Clone)]
pub struct RingObserver {
    capacity: usize,
    buffer: VecDeque<Record>,
    seen: u64,
}

impl RingObserver {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// A ring holding at most `capacity` records (the oldest are dropped).
    pub fn with_capacity(capacity: usize) -> Self {
        RingObserver {
            capacity: capacity.max(1),
            // Pre-size the deque, but never beyond the default: an absurd
            // requested capacity should grow lazily, not up front.
            buffer: VecDeque::with_capacity(capacity.clamp(1, Self::DEFAULT_CAPACITY)),
            seen: 0,
        }
    }

    /// The buffered records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.buffer.iter()
    }
}

impl Default for RingObserver {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }
}

impl Observer for RingObserver {
    fn name(&self) -> &str {
        "ring"
    }

    fn record(&mut self, record: &Record) {
        self.seen += 1;
        if self.buffer.len() == self.capacity {
            self.buffer.pop_front();
        }
        self.buffer.push_back(*record);
    }

    fn finish(&mut self) -> ObserverReport {
        ObserverReport {
            observer: "ring".to_string(),
            records_seen: self.seen,
            records_kept: self.buffer.len() as u64,
            ..ObserverReport::default()
        }
    }
}

/// JSONL trace sink: keeps every sampled record and every tick sample as a
/// typed entry of a [`Trace`], labelled with the policy the run belongs to.
/// Request-scoped records are sampled by `sampling_stride`; fleet-scoped
/// records and ticks are always kept. Keeping a record copies it onto a
/// `Vec`; the JSONL text is encoded only when the trace is read
/// ([`Trace::write_to`]).
#[derive(Debug, Clone)]
pub struct TraceObserver {
    stride: u64,
    trace: Trace,
    seen: u64,
}

impl TraceObserver {
    /// A trace sink for one policy run.
    pub fn new(ctx: &ObserverContext) -> Self {
        let mut prefix = String::from("{\"policy\":");
        write_string(&mut prefix, &ctx.policy);
        prefix.push(',');
        TraceObserver {
            stride: sampling_stride(ctx.requests),
            trace: Trace {
                prefix,
                records: Vec::new(),
                ticks: Vec::new(),
            },
            seen: 0,
        }
    }

    fn keeps(&self, kind: &RecordKind) -> bool {
        match kind.request() {
            Some(id) => id % self.stride == 0,
            None => true,
        }
    }
}

/// One policy run's flight trace: the kept records and tick samples, in
/// simulation order, encoded to JSONL only when read.
///
/// A record line is `{"policy":…,"at_ms":…,"type":…,<variant fields>}`
/// (decoded by [`Record::from_json`]) and a tick line is
/// `{"policy":…,"type":"tick",<fields in TimeSeriesPoint::to_json order>}`.
/// Lines are written with janus-json's own number and string formatters,
/// so they are byte-identical to encoding a `Value` tree. Equality compares
/// the typed entries and the policy, so two traces are equal exactly when
/// their texts are, except that an empty trace encodes to nothing whatever
/// its policy.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// `{"policy":"<escaped name>",` — the fixed head of every line.
    prefix: String,
    records: Vec<Record>,
    /// Each tick sample with the number of records kept before it.
    ticks: Vec<(usize, TimeSeriesPoint)>,
}

impl Trace {
    /// Lines in the encoded text: one per kept record and tick.
    fn entries(&self) -> usize {
        self.records.len() + self.ticks.len()
    }

    /// True when the trace kept nothing (and so encodes to no text).
    pub fn is_empty(&self) -> bool {
        self.entries() == 0
    }

    /// The encoded text's length in bytes. This encodes the trace to count
    /// it; nothing is cached.
    pub fn len(&self) -> usize {
        let mut text = String::new();
        self.write_to(&mut text);
        text.len()
    }

    /// Append the JSONL text — one compact JSON document per line — to
    /// `out`.
    pub fn write_to(&self, out: &mut String) {
        let mut encoder = LineEncoder::new(&self.prefix);
        let mut written = 0;
        for (before, point) in &self.ticks {
            for record in &self.records[written..*before] {
                encoder.write_record(out, record);
            }
            written = *before;
            encoder.write_tick(out, point);
        }
        for record in &self.records[written..] {
            encoder.write_record(out, record);
        }
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut text = String::new();
        self.write_to(&mut text);
        f.write_str(&text)
    }
}

/// Writes trace lines, keeping the JSON text of the last `at_ms` written:
/// the records of one event share an instant, so most lines reuse it.
struct LineEncoder<'a> {
    prefix: &'a str,
    /// `f64::to_bits` of the last `at_ms` written, and its JSON text.
    at_bits: u64,
    at_text: String,
}

impl<'a> LineEncoder<'a> {
    fn new(prefix: &'a str) -> Self {
        let mut at_text = String::new();
        write_number(&mut at_text, 0.0);
        LineEncoder {
            prefix,
            at_bits: 0.0f64.to_bits(),
            at_text,
        }
    }

    /// Append the policy prefix, the first key and the `at_ms` value,
    /// reformatting the timestamp only when it changed.
    fn begin_line(&mut self, out: &mut String, first_key: &str, ms: f64) {
        if ms.to_bits() != self.at_bits {
            self.at_bits = ms.to_bits();
            self.at_text.clear();
            write_number(&mut self.at_text, ms);
        }
        out.push_str(self.prefix);
        out.push_str(first_key);
        out.push_str(&self.at_text);
    }

    fn write_record(&mut self, out: &mut String, record: &Record) {
        self.begin_line(out, "\"at_ms\":", record.at.as_millis());
        out.push_str(",\"type\":");
        write_string(out, record.kind.kind_name());
        match record.kind {
            RecordKind::Arrival { request } | RecordKind::Shed { request } => {
                num_field(out, "request", request as f64);
            }
            RecordKind::Admission { request, admitted } => {
                num_field(out, "request", request as f64);
                bool_field(out, "admitted", admitted);
            }
            RecordKind::Placement {
                request,
                function,
                overcommitted,
            } => {
                num_field(out, "request", request as f64);
                num_field(out, "function", function as f64);
                bool_field(out, "overcommitted", overcommitted);
            }
            RecordKind::ColdStart {
                request,
                function,
                delay,
            } => {
                num_field(out, "request", request as f64);
                num_field(out, "function", function as f64);
                num_field(out, "delay_ms", delay.as_millis());
            }
            RecordKind::ExecStart { request, function } => {
                num_field(out, "request", request as f64);
                num_field(out, "function", function as f64);
            }
            RecordKind::ExecEnd {
                request,
                function,
                exec,
            } => {
                num_field(out, "request", request as f64);
                num_field(out, "function", function as f64);
                num_field(out, "exec_ms", exec.as_millis());
            }
            RecordKind::Retry {
                request,
                attempt,
                lost,
            } => {
                num_field(out, "request", request as f64);
                num_field(out, "attempt", attempt as f64);
                num_field(out, "lost_ms", lost.as_millis());
            }
            RecordKind::Fault { kind } => {
                out.push_str(",\"fault\":");
                write_string(out, kind);
            }
            RecordKind::Scaling {
                from_nodes,
                to_nodes,
            } => {
                num_field(out, "from_nodes", from_nodes as f64);
                num_field(out, "to_nodes", to_nodes as f64);
            }
            RecordKind::Failed { request, e2e } => {
                num_field(out, "request", request as f64);
                num_field(out, "e2e_ms", e2e.as_millis());
            }
            RecordKind::Completion {
                request,
                e2e,
                slo_met,
            } => {
                num_field(out, "request", request as f64);
                num_field(out, "e2e_ms", e2e.as_millis());
                bool_field(out, "slo_met", slo_met);
            }
        }
        out.push_str("}\n");
    }

    fn write_tick(&mut self, out: &mut String, point: &TimeSeriesPoint) {
        self.begin_line(out, "\"type\":\"tick\",\"at_ms\":", point.at_ms);
        num_field(out, "queue_depth", point.queue_depth as f64);
        num_field(out, "inflight", point.inflight as f64);
        num_field(out, "active_nodes", point.active_nodes as f64);
        out.push_str(",\"nodes_per_zone\":[");
        for (i, &n) in point.nodes_per_zone.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_number(out, n as f64);
        }
        out.push(']');
        num_field(out, "utilization", point.utilization);
        num_field(out, "pool_size", point.pool_size as f64);
        num_field(out, "shed", point.shed as f64);
        num_field(out, "failed", point.failed as f64);
        num_field(out, "retried", point.retried as f64);
        out.push_str("}\n");
    }
}

/// Append `,"<key>":<n>`. Keys are plain identifiers and need no escaping.
fn num_field(out: &mut String, key: &str, n: f64) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    write_number(out, n);
}

/// Append `,"<key>":true` or `,"<key>":false`.
fn bool_field(out: &mut String, key: &str, b: bool) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str(if b { "\":true" } else { "\":false" });
}

impl Observer for TraceObserver {
    fn name(&self) -> &str {
        "trace"
    }

    fn record(&mut self, record: &Record) {
        self.seen += 1;
        if self.keeps(&record.kind) {
            self.trace.records.push(*record);
        }
    }

    fn tick(&mut self, sample: &TickSample) {
        self.seen += 1;
        let before = self.trace.records.len();
        self.trace
            .ticks
            .push((before, TimeSeriesPoint::from_sample(sample)));
    }

    fn finish(&mut self) -> ObserverReport {
        ObserverReport {
            observer: "trace".to_string(),
            records_seen: self.seen,
            records_kept: self.trace.entries() as u64,
            trace: Some(std::mem::take(&mut self.trace)),
            ..ObserverReport::default()
        }
    }
}

/// Span-building observer: derives per-request phase breakdowns.
#[derive(Debug, Clone, Default)]
pub struct SpanObserver {
    builder: SpanBuilder,
    seen: u64,
}

impl Observer for SpanObserver {
    fn name(&self) -> &str {
        "spans"
    }

    fn record(&mut self, record: &Record) {
        self.seen += 1;
        self.builder.observe(record);
    }

    fn finish(&mut self) -> ObserverReport {
        ObserverReport {
            observer: "spans".to_string(),
            records_seen: self.seen,
            records_kept: self.seen,
            spans: Some(self.builder.summary()),
            ..ObserverReport::default()
        }
    }
}

/// Time-series sampling observer: keeps every capacity-tick sample.
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesObserver {
    series: TimeSeriesReport,
    seen: u64,
}

impl Observer for TimeSeriesObserver {
    fn name(&self) -> &str {
        "time-series"
    }

    fn record(&mut self, _record: &Record) {
        self.seen += 1;
    }

    fn tick(&mut self, sample: &TickSample) {
        self.seen += 1;
        self.series.push(sample);
    }

    fn finish(&mut self) -> ObserverReport {
        ObserverReport {
            observer: "time-series".to_string(),
            records_seen: self.seen,
            records_kept: self.series.len() as u64,
            time_series: Some(std::mem::take(&mut self.series)),
            ..ObserverReport::default()
        }
    }
}

/// The composite flight recorder: sampled JSONL trace + span breakdowns +
/// tick time series in one observer. This is what `--trace` attaches. The
/// trace keeps every tick, so the time series is read off it at finish:
/// each tick is converted once.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    trace: TraceObserver,
    builder: SpanBuilder,
    seen: u64,
}

impl FlightRecorder {
    /// A flight recorder for one policy run.
    pub fn new(ctx: &ObserverContext) -> Self {
        FlightRecorder {
            trace: TraceObserver::new(ctx),
            builder: SpanBuilder::new(),
            seen: 0,
        }
    }
}

impl Observer for FlightRecorder {
    fn name(&self) -> &str {
        "flight-recorder"
    }

    fn record(&mut self, record: &Record) {
        self.seen += 1;
        self.trace.record(record);
        self.builder.observe(record);
    }

    fn tick(&mut self, sample: &TickSample) {
        self.seen += 1;
        self.trace.tick(sample);
    }

    fn finish(&mut self) -> ObserverReport {
        let trace = self.trace.finish();
        let points = trace.trace.iter().flat_map(|t| &t.ticks);
        let time_series = TimeSeriesReport {
            points: points.map(|(_, point)| point.clone()).collect(),
        };
        ObserverReport {
            observer: "flight-recorder".to_string(),
            records_seen: self.seen,
            records_kept: trace.records_kept,
            trace: trace.trace,
            spans: Some(self.builder.summary()),
            time_series: Some(time_series),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ObserverContext {
        ObserverContext {
            seed: 42,
            policy: "ia-late".to_string(),
            requests: 120,
            zones: 2,
            slo: SimDuration::from_secs(3.0),
        }
    }

    fn at(ms: f64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn sample(ms: f64) -> TickSample {
        TickSample {
            at: at(ms),
            queue_depth: 7,
            inflight: 3,
            active_nodes: 4,
            nodes_per_zone: vec![2, 2],
            utilization: 0.5,
            pool_size: 12,
            shed: 1,
            failed: 0,
            retried: 2,
        }
    }

    #[test]
    fn builtins_register_cheapest_first() {
        let registry = ObserverRegistry::with_builtins();
        assert_eq!(
            registry.names(),
            vec!["ring", "trace", "spans", "time-series", "flight-recorder"]
        );
        assert_eq!(registry.len(), 5);
        assert!(!registry.is_empty());
    }

    #[test]
    fn registry_rejects_unknown_names_and_bad_contexts() {
        let registry = ObserverRegistry::with_builtins();
        let err = registry.ensure_known("black-box").unwrap_err();
        assert!(
            err.contains("unknown observer `black-box`"),
            "unexpected message: {err}"
        );
        assert!(err.contains("flight-recorder"), "should list names: {err}");

        let bad = ObserverContext {
            requests: 0,
            ..ctx()
        };
        let err = registry.build("ring", &bad).map(|_| ()).unwrap_err();
        assert!(err.contains("at least one request"), "got: {err}");
    }

    #[test]
    fn builtin_rows_build_observers_that_report_under_their_row_name() {
        let registry = ObserverRegistry::with_builtins();
        for name in registry.names() {
            let mut observer = registry.build(name, &ctx()).unwrap();
            assert_eq!(observer.name(), name);
            assert_eq!(observer.finish().observer, name);
        }
    }

    #[test]
    fn every_build_is_a_fresh_observer() {
        // Paired comparisons build one observer per policy run: state
        // recorded by one build must not show up in the next.
        let registry = ObserverRegistry::with_builtins();
        for name in registry.names() {
            let mut first = registry.build(name, &ctx()).unwrap();
            first.record(&Record {
                at: at(1.0),
                kind: RecordKind::Arrival { request: 0 },
            });
            let mut second = registry.build(name, &ctx()).unwrap();
            assert_eq!(second.finish().records_seen, 0, "{name}");
            assert_eq!(first.finish().records_seen, 1, "{name}");
        }
    }

    #[test]
    fn register_fn_replaces_in_place() {
        let mut registry = ObserverRegistry::with_builtins();
        registry.register_fn("trace", |_ctx| {
            Ok(Box::new(RingObserver::with_capacity(1)) as Box<dyn Observer>)
        });
        assert_eq!(
            registry.names(),
            vec!["ring", "trace", "spans", "time-series", "flight-recorder"],
            "replacement must keep the original position"
        );
        let observer = registry.build("trace", &ctx()).unwrap();
        assert_eq!(observer.name(), "ring");
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut ring = RingObserver::with_capacity(3);
        for id in 0..5 {
            ring.record(&Record {
                at: at(id as f64),
                kind: RecordKind::Arrival { request: id },
            });
        }
        let kept: Vec<u64> = ring.records().filter_map(|r| r.kind.request()).collect();
        assert_eq!(kept, vec![2, 3, 4]);
        let report = ring.finish();
        assert_eq!(report.records_seen, 5);
        assert_eq!(report.records_kept, 3);
        assert!(report.trace.is_none() && report.spans.is_none());
    }

    #[test]
    fn every_record_kind_round_trips_through_json() {
        let kinds = vec![
            RecordKind::Arrival { request: 3 },
            RecordKind::Admission {
                request: 3,
                admitted: false,
            },
            RecordKind::Placement {
                request: 3,
                function: 1,
                overcommitted: true,
            },
            RecordKind::ColdStart {
                request: 3,
                function: 1,
                delay: SimDuration::from_millis(125.0),
            },
            RecordKind::ExecStart {
                request: 3,
                function: 1,
            },
            RecordKind::ExecEnd {
                request: 3,
                function: 1,
                exec: SimDuration::from_millis(80.5),
            },
            RecordKind::Retry {
                request: 3,
                attempt: 1,
                lost: SimDuration::from_millis(40.0),
            },
            RecordKind::Fault {
                kind: "zone-outage",
            },
            RecordKind::Scaling {
                from_nodes: 4,
                to_nodes: 6,
            },
            RecordKind::Shed { request: 9 },
            RecordKind::Failed {
                request: 9,
                e2e: SimDuration::from_millis(500.0),
            },
            RecordKind::Completion {
                request: 3,
                e2e: SimDuration::from_millis(2750.0),
                slo_met: true,
            },
        ];
        for kind in kinds {
            let record = Record { at: at(12.5), kind };
            let mut observer = TraceObserver::new(&ctx());
            observer.record(&record);
            let trace = observer.finish().trace.unwrap().to_string();
            let decoded = Record::from_json(&janus_json::parse(trace.trim_end()).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", kind.kind_name()));
            assert_eq!(decoded, record, "round trip changed {}", kind.kind_name());
        }
    }

    #[test]
    fn record_decoding_rejects_unknown_types_and_fault_kinds() {
        let bad_type = janus_json::parse("{\"at_ms\":1,\"type\":\"warp\"}").unwrap();
        assert!(Record::from_json(&bad_type)
            .unwrap_err()
            .contains("unknown record type `warp`"));
        let bad_fault =
            janus_json::parse("{\"at_ms\":1,\"type\":\"fault\",\"fault\":\"gremlin\"}").unwrap();
        assert!(Record::from_json(&bad_fault)
            .unwrap_err()
            .contains("unknown fault kind `gremlin`"));
    }

    #[test]
    fn tick_sample_round_trips_through_json() {
        let point = TimeSeriesPoint::from_sample(&sample(1000.0));
        let decoded = TimeSeriesPoint::from_json(&point.to_json()).unwrap();
        assert_eq!(decoded, point);
        assert_eq!(decoded.nodes_per_zone, vec![2, 2]);
    }

    #[test]
    fn sampling_stride_bounds_trace_volume() {
        assert_eq!(sampling_stride(1), 1);
        assert_eq!(sampling_stride(TRACE_TARGET_REQUESTS), 1);
        assert_eq!(sampling_stride(10 * TRACE_TARGET_REQUESTS), 10);
    }

    #[test]
    fn trace_observer_samples_requests_but_keeps_fleet_events() {
        let mut observer = TraceObserver::new(&ObserverContext {
            requests: 2 * TRACE_TARGET_REQUESTS, // stride 2
            ..ctx()
        });
        for id in 0..4 {
            observer.record(&Record {
                at: at(id as f64),
                kind: RecordKind::Arrival { request: id },
            });
        }
        observer.record(&Record {
            at: at(9.0),
            kind: RecordKind::Fault { kind: "crash" },
        });
        observer.tick(&sample(10.0));
        let report = observer.finish();
        assert_eq!(report.records_seen, 6);
        // Arrivals 0 and 2 (stride 2) + the fault + the tick.
        assert_eq!(report.records_kept, 4);
        let trace = report.trace.unwrap().to_string();
        assert_eq!(trace.lines().count(), 4);
        for line in trace.lines() {
            let value = janus_json::parse(line).expect("every line is a JSON document");
            assert_eq!(value.get("policy").unwrap().as_str(), Some("ia-late"));
        }
        assert!(trace.contains("\"type\":\"tick\""));
    }

    #[test]
    fn span_builder_decomposes_a_request_with_retry() {
        let mut builder = SpanBuilder::new();
        let feed = |b: &mut SpanBuilder, ms: f64, kind: RecordKind| {
            b.observe(&Record { at: at(ms), kind })
        };
        feed(&mut builder, 0.0, RecordKind::Arrival { request: 1 });
        feed(
            &mut builder,
            0.0,
            RecordKind::ColdStart {
                request: 1,
                function: 0,
                delay: SimDuration::from_millis(100.0),
            },
        );
        feed(
            &mut builder,
            300.0,
            RecordKind::ExecEnd {
                request: 1,
                function: 0,
                exec: SimDuration::from_millis(200.0),
            },
        );
        // Second function is voided by a fault after 50ms, then retried.
        feed(
            &mut builder,
            350.0,
            RecordKind::ColdStart {
                request: 1,
                function: 1,
                delay: SimDuration::from_millis(100.0),
            },
        );
        feed(
            &mut builder,
            400.0,
            RecordKind::Retry {
                request: 1,
                attempt: 1,
                lost: SimDuration::from_millis(50.0),
            },
        );
        feed(
            &mut builder,
            650.0,
            RecordKind::ExecEnd {
                request: 1,
                function: 1,
                exec: SimDuration::from_millis(250.0),
            },
        );
        feed(
            &mut builder,
            650.0,
            RecordKind::Completion {
                request: 1,
                e2e: SimDuration::from_millis(650.0),
                slo_met: false,
            },
        );
        let summary = builder.summary();
        assert_eq!(summary.served, 1);
        assert_eq!(summary.retries, 1);
        assert_eq!(summary.cold_starts, 2);
        assert_eq!(summary.slo_violations, 1);
        assert!(
            (summary.mean_cold_ms - 100.0).abs() < 1e-9,
            "the retried attempt's cold start is folded into lost time, not cold time; got {}",
            summary.mean_cold_ms
        );
        assert!((summary.mean_exec_ms - 450.0).abs() < 1e-9);
        assert!((summary.mean_retry_ms - 50.0).abs() < 1e-9);
        assert!((summary.mean_queue_ms - 50.0).abs() < 1e-9);
        assert!((summary.mean_e2e_ms - 650.0).abs() < 1e-9);
        assert!((summary.mean_critical_path_ms - 550.0).abs() < 1e-9);
    }

    #[test]
    fn span_summary_is_nan_free_when_nothing_is_served() {
        let mut builder = SpanBuilder::new();
        builder.observe(&Record {
            at: at(0.0),
            kind: RecordKind::Arrival { request: 0 },
        });
        builder.observe(&Record {
            at: at(0.0),
            kind: RecordKind::Shed { request: 0 },
        });
        let summary = builder.summary();
        assert_eq!(summary.shed, 1);
        assert_eq!(summary.served, 0);
        for mean in [
            summary.mean_queue_ms,
            summary.mean_cold_ms,
            summary.mean_exec_ms,
            summary.mean_retry_ms,
            summary.mean_e2e_ms,
            summary.mean_critical_path_ms,
        ] {
            assert_eq!(mean, 0.0, "all-shed summaries must stay NaN-free");
        }
        let encoded = summary.to_json().to_pretty();
        assert!(!encoded.contains("null"), "no NaN-null cells: {encoded}");
    }

    #[test]
    fn flight_recorder_fills_all_three_halves() {
        let mut recorder = FlightRecorder::new(&ctx());
        recorder.record(&Record {
            at: at(0.0),
            kind: RecordKind::Arrival { request: 0 },
        });
        recorder.tick(&sample(1000.0));
        recorder.record(&Record {
            at: at(1500.0),
            kind: RecordKind::Completion {
                request: 0,
                e2e: SimDuration::from_millis(1500.0),
                slo_met: true,
            },
        });
        let report = recorder.finish();
        assert_eq!(report.observer, "flight-recorder");
        assert_eq!(report.records_seen, 3);
        let trace = report.trace.as_ref().unwrap().to_string();
        assert_eq!(trace.lines().count(), 3);
        let spans = report.spans.as_ref().unwrap();
        assert_eq!(spans.served, 1);
        let series = report.time_series.as_ref().unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series.points[0].nodes_per_zone, vec![2, 2]);
        // The JSON form reports the trace as a line count, not a body.
        let json = report.to_json();
        assert_eq!(json.get("trace_lines").unwrap().as_f64(), Some(3.0));
        assert!(json.get("trace").is_none());
    }

    #[test]
    fn identical_record_streams_produce_byte_identical_traces() {
        let run = || {
            let mut recorder = FlightRecorder::new(&ctx());
            for id in 0..10 {
                recorder.record(&Record {
                    at: at(id as f64 * 10.0),
                    kind: RecordKind::Arrival { request: id },
                });
                recorder.tick(&sample(id as f64 * 10.0 + 5.0));
                recorder.record(&Record {
                    at: at(id as f64 * 10.0 + 7.5),
                    kind: RecordKind::Completion {
                        request: id,
                        e2e: SimDuration::from_millis(7.5),
                        slo_met: true,
                    },
                });
            }
            recorder.finish()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.trace, b.trace, "traces must be byte-identical");
        assert_eq!(a, b);
    }
}
