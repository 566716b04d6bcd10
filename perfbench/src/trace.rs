//! In-memory spans recorded by the benchmark around each call into a layer.
//!
//! A span has a name, a start and end (seconds since the tracer was made),
//! the span it ran inside, and an id naming the policy, config or grid cell
//! it belongs to. Spans stay in memory until the run ends; then they are
//! written out as JSON lines and summarised in a self-time table.

use janus_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: String,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Span recorder. A disabled tracer calls straight through and records
/// nothing, so untraced runs pay one branch per layer call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, id: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_s = self.at(Instant::now());
        self.spans.push(Span {
            name,
            id: id.to_string(),
            start_s,
            end_s: start_s,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_s = self.at(Instant::now());
        out
    }

    /// Record a span measured elsewhere (a sweep cell timed by its worker
    /// thread) as a child of the span recorded at index `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        id: String,
        start: Instant,
        end: Instant,
        parent: usize,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            id,
            start_s: self.at(start),
            end_s: self.at(end),
            parent: Some(parent),
        };
        self.spans.push(span);
    }

    /// Index of the next span to be recorded: the index of the next
    /// [`span`](Tracer::span), and the start of the spans [`total_since`]
    /// totals.
    ///
    /// [`total_since`]: Tracer::total_since
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Summed duration of the spans named `name` recorded since `mark`.
    pub fn total_since(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .sum()
    }

    /// Per span name: count, total seconds and self seconds (total minus
    /// the time covered by child spans). Children of one parent run one
    /// after another except for sweep cells, which run on worker threads
    /// and may overlap; self time is clamped at zero.
    pub fn self_time_table(&self) -> String {
        let mut child_time = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_time[parent] += span.duration_s();
            }
        }
        let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_time) {
            let row = rows.entry(span.name).or_default();
            row.0 += 1;
            row.1 += span.duration_s();
            row.2 += (span.duration_s() - children).max(0.0);
        }
        let mut out = format!(
            "{:<28} {:>7} {:>12} {:>12}\n",
            "span", "count", "total s", "self s"
        );
        for (name, (count, total, own)) in rows {
            let _ = writeln!(out, "{name:<28} {count:>7} {total:>12.6} {own:>12.6}");
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let doc = Value::Obj(vec![
                ("index".into(), Value::Num(index as f64)),
                ("name".into(), Value::Str(span.name.into())),
                ("id".into(), Value::Str(span.id.clone())),
                ("start_s".into(), Value::Num(span.start_s)),
                ("end_s".into(), Value::Num(span.end_s)),
                (
                    "parent".into(),
                    span.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
            ]);
            out.push_str(&doc.to_compact());
            out.push('\n');
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}
