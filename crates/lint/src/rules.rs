//! The built-in lint rules: repo invariants clippy cannot express.
//!
//! Every rule is a single pass over a [`SourceFile`]'s token stream with
//! the precomputed context (test regions, item spans). Rules are
//! *syntactic heuristics*, not type analysis — each one documents exactly
//! which token shapes it fires on, so a silent pass is interpretable.
//! Suppressions (`// janus-lint: allow(rule)` directives and the committed
//! baseline) are applied by the driver, not here.

use crate::lexer::TokenKind;
use crate::model::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// One finding: which rule fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule name (registry key).
    pub rule: String,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Human explanation of the finding.
    pub message: String,
}

impl Diagnostic {
    /// Rustc-style rendering: `path:line:col: rule: message`.
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: {}: {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// One hot-path entry: a function (or `macro_rules!`) name inside a file,
/// matched by path suffix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotPath {
    /// Path suffix the file must end with (forward slashes).
    pub file_suffix: String,
    /// `fn` or `macro_rules!` item name whose body is a hot path.
    pub item: String,
}

/// Configuration shared by the built-in rules.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Crate names (the directory under `crates/`) whose state feeds
    /// simulation results: `HashMap`/`HashSet` iteration order there can
    /// leak into reports.
    pub sim_state_crates: Vec<String>,
    /// The hot-path function list for `hot-path-alloc`.
    pub hot_paths: Vec<HotPath>,
    /// Path suffixes where observer `Record` construction is legitimate
    /// (the observe crate itself and the `emit!` macro definition).
    pub record_construction_allowed: Vec<String>,
    /// Who names each identifier, for `unused-pub`. Built by
    /// [`crate::lint_workspace`] for each run; empty (the rule is silent)
    /// when a file is linted alone.
    pub(crate) callers: CallerIndex,
}

impl LintConfig {
    /// The workspace's own configuration: the five simulation-state crates,
    /// the per-event serving loops + `emit!` + metrics handles + the
    /// streaming-summary fold + placement, warm-pool, adapter-decision and
    /// event-queue calls + the in-place arrival draws + the flight
    /// recorder's per-record path as hot paths, and `Record` construction
    /// confined to observe and the macro.
    pub fn workspace_default() -> Self {
        let hot = |file_suffix: &str, item: &str| HotPath {
            file_suffix: file_suffix.to_string(),
            item: item.to_string(),
        };
        LintConfig {
            sim_state_crates: ["simcore", "platform", "chaos", "scenarios", "observe"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            hot_paths: vec![
                // The per-function step both serving loops share: start and
                // finish one function, and close a served request.
                hot("platform/src/fleet.rs", "start"),
                hot("platform/src/fleet.rs", "finish"),
                hot("platform/src/fleet.rs", "served"),
                // The open-loop event loop and its per-event helpers, the
                // capacity tick among them (the slice-backed `run_traced`
                // wrapper stays listed so an allocation sneaking back into
                // it is caught).
                hot("platform/src/openloop.rs", "run_streaming"),
                hot("platform/src/openloop.rs", "run_traced"),
                hot("platform/src/openloop.rs", "start_function"),
                hot("platform/src/openloop.rs", "draw_arrival"),
                hot("platform/src/openloop.rs", "capacity_tick"),
                hot("platform/src/openloop.rs", "deliver_faults"),
                // The closed-loop serving path: the run, whose per-request
                // body drives the shared step.
                hot("platform/src/executor.rs", "run_traced"),
                // The zero-cost-when-off observer hook.
                hot("platform/src/lib.rs", "emit"),
                // Pre-interned metric handles: every event records through
                // these.
                hot("simcore/src/metrics.rs", "incr"),
                hot("simcore/src/metrics.rs", "record"),
                // The streaming-summary fold the serving loops' tallies call
                // for every finished function and request.
                hot("simcore/src/stats.rs", "record"),
                hot("simcore/src/stats.rs", "bucket_index"),
                // Placement and the warm pool: every function invocation
                // acquires, places, removes and releases one pod, through
                // the id-taking methods (the name-taking ones wrap them).
                hot("simcore/src/cluster.rs", "place"),
                hot("simcore/src/cluster.rs", "place_id"),
                hot("simcore/src/cluster.rs", "place_overcommitted_id"),
                hot("simcore/src/cluster.rs", "function_count_id"),
                hot("simcore/src/cluster.rs", "remove"),
                hot("simcore/src/cluster.rs", "pick_node"),
                hot("simcore/src/cluster.rs", "last_max"),
                hot("simcore/src/cluster.rs", "attach"),
                hot("simcore/src/cluster.rs", "detach"),
                hot("simcore/src/pool.rs", "acquire"),
                hot("simcore/src/pool.rs", "acquire_id"),
                hot("simcore/src/pool.rs", "start"),
                hot("simcore/src/pool.rs", "release"),
                // The adapter's table search: every function start of a
                // late-binding policy asks it once.
                hot("adapter/src/adapter.rs", "decide"),
                hot("synthesizer/src/hints.rs", "lookup"),
                hot("synthesizer/src/hints.rs", "table_after"),
                // The event queue: every event is scheduled and popped once.
                hot("simcore/src/event.rs", "schedule"),
                hot("simcore/src/event.rs", "pop"),
                hot("simcore/src/engine.rs", "next_event"),
                hot("simcore/src/engine.rs", "step"),
                // Arrival draws: every arrival refills a recycled input in
                // place (the generator's draw and the slice's copy).
                hot("workloads/src/request.rs", "next_request_into"),
                // The flight recorder's per-record path: every observer's
                // `record`, the trace line writers and the span table.
                hot("observe/src/lib.rs", "record"),
                hot("observe/src/lib.rs", "write_record"),
                hot("observe/src/lib.rs", "write_tick"),
                hot("observe/src/lib.rs", "observe"),
            ],
            record_construction_allowed: vec![
                "crates/observe/src".to_string(),
                "crates/platform/src/lib.rs".to_string(),
            ],
            callers: CallerIndex::default(),
        }
    }

    fn crate_of<'a>(&self, path: &'a str) -> Option<&'a str> {
        let rest = path.strip_prefix("crates/")?;
        rest.split('/').next()
    }

    fn is_sim_state(&self, path: &str) -> bool {
        self.crate_of(path)
            .is_some_and(|c| self.sim_state_crates.iter().any(|s| s == c))
    }
}

/// Which compilation units name each identifier: the cross-file context of
/// `unused-pub`.
#[derive(Debug, Clone, Default)]
pub(crate) struct CallerIndex {
    owners: BTreeMap<String, BTreeSet<String>>,
}

impl CallerIndex {
    /// Record every name `file` mentions as named by the file's owner:
    /// its identifier tokens, test code included, and the identifier-shaped
    /// words of its comments (doc links and doctests).
    pub(crate) fn add(&mut self, file: &SourceFile) {
        let owner = owner_of(&file.path);
        for (i, t) in file.tokens.iter().enumerate() {
            if !matches!(
                t.kind,
                TokenKind::Ident | TokenKind::LineComment | TokenKind::BlockComment
            ) {
                continue;
            }
            let words = file
                .token_text(i)
                .split(|c: char| !(c.is_alphanumeric() || c == '_'));
            for word in words.filter(|w| !w.is_empty()) {
                let owners = self.owners.entry(word.to_string());
                owners.or_default().insert(owner.to_string());
            }
        }
    }

    fn named_outside(&self, name: &str, owner: &str) -> bool {
        self.owners
            .get(name)
            .is_some_and(|owners| owners.iter().any(|o| o != owner))
    }
}

/// The compilation unit a workspace-relative path belongs to: a library's
/// `crates/<name>/src`, or else the file itself (a binary under `src/bin/`,
/// an integration test, an example or a perfbench source, each of which
/// reaches a library only through its `pub` items).
fn owner_of(path: &str) -> &str {
    match path
        .strip_prefix("crates/")
        .and_then(|rest| rest.find("/src/"))
    {
        Some(end) if !path.contains("/src/bin/") => &path[.."crates/".len() + end + "/src".len()],
        _ => path,
    }
}

fn diag(file: &SourceFile, i: usize, rule: &str, message: String) -> Diagnostic {
    let t = &file.tokens[i];
    Diagnostic {
        rule: rule.to_string(),
        path: file.path.clone(),
        line: t.line,
        col: t.col,
        message,
    }
}

/// Whether token `i` is a non-test, non-comment identifier equal to `name`.
fn is_code_ident(file: &SourceFile, i: usize, name: &str) -> bool {
    file.tokens[i].kind == TokenKind::Ident
        && file.token_text(i) == name
        && !file.is_test_line(file.tokens[i].line)
}

fn prev_text(file: &SourceFile, i: usize) -> Option<&str> {
    file.prev_code(i).map(|p| file.token_text(p))
}

fn next_text(file: &SourceFile, i: usize) -> Option<&str> {
    file.next_code(i).map(|n| file.token_text(n))
}

/// `nondeterminism` — wall-clock / environment reads anywhere in library
/// code, plus `HashMap`/`HashSet` in simulation-state crates.
///
/// Fires on: `Instant::`/`SystemTime::` path uses and `std::env` reads in
/// any scanned file outside `src/bin/` (entry points own the real world);
/// `HashMap`/`HashSet` mentioned in a `use` declaration or qualified with
/// `::` inside a simulation-state crate. Bare uses of an imported name are
/// intentionally silent — the flagged import is the single audit point.
pub(crate) fn nondeterminism(file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "nondeterminism";
    if file.path.contains("/bin/") {
        return;
    }
    let sim_state = config.is_sim_state(&file.path);
    let mut in_use = false;
    for i in 0..file.tokens.len() {
        let text = file.token_text(i);
        if file.tokens[i].kind == TokenKind::Ident && !file.is_test_line(file.tokens[i].line) {
            match text {
                "use" => in_use = true,
                "Instant" | "SystemTime" if next_text(file, i) == Some("::") => {
                    out.push(diag(
                        file,
                        i,
                        RULE,
                        format!(
                            "`{text}::` reads the wall clock; results must be a function of \
                             the seed alone"
                        ),
                    ));
                }
                "env" if prev_text(file, i) == Some("::") => {
                    out.push(diag(
                        file,
                        i,
                        RULE,
                        "`std::env` reads process state the seed does not control".to_string(),
                    ));
                }
                "HashMap" | "HashSet"
                    if sim_state && (in_use || prev_text(file, i) == Some("::")) =>
                {
                    out.push(diag(
                        file,
                        i,
                        RULE,
                        format!(
                            "`{text}` iteration order is randomized per process; simulation \
                             state wants `BTreeMap`/`Vec` or a documented allow"
                        ),
                    ));
                }
                _ => {}
            }
        }
        if text == ";" {
            in_use = false;
        }
    }
}

/// `hot-path-alloc` — allocation-shaped calls inside the configured
/// hot-path items.
///
/// Fires on `format!` / `vec!`, `.to_string()` / `.to_owned()` /
/// `.to_vec()` / `.clone()`, and `Vec::new` / `String::new` / `Box::new`
/// inside the body of any configured `fn`/`macro_rules!` item.
pub(crate) fn hot_path_alloc(file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "hot-path-alloc";
    let mut ranges: Vec<(u32, u32, &str)> = Vec::new();
    for hot in &config.hot_paths {
        if !file.path.ends_with(&hot.file_suffix) {
            continue;
        }
        for (lo, hi) in file.item_ranges(&hot.item) {
            ranges.push((lo, hi, hot.item.as_str()));
        }
    }
    if ranges.is_empty() {
        return;
    }
    for i in 0..file.tokens.len() {
        let line = file.tokens[i].line;
        let Some((_, _, item)) = ranges
            .iter()
            .find(|&&(lo, hi, _)| (lo..=hi).contains(&line))
        else {
            continue;
        };
        if file.tokens[i].kind != TokenKind::Ident || file.is_test_line(line) {
            continue;
        }
        let text = file.token_text(i);
        let flagged = match text {
            "format" | "vec" => next_text(file, i) == Some("!"),
            "to_string" | "to_owned" | "to_vec" | "clone" => {
                prev_text(file, i) == Some(".") && next_text(file, i) == Some("(")
            }
            "Vec" | "String" | "Box" => {
                next_text(file, i) == Some("::")
                    && file
                        .next_code(i)
                        .and_then(|n| file.next_code(n))
                        .is_some_and(|n2| file.token_text(n2) == "new")
            }
            _ => false,
        };
        if flagged {
            out.push(diag(
                file,
                i,
                RULE,
                format!("`{text}` allocates inside hot path `{item}`"),
            ));
        }
    }
}

/// `unwrap-discipline` — no `.unwrap()` / `.expect(..)` in non-test
/// library code; propagate the error or prove infallibility with a
/// documented allow directive.
pub(crate) fn unwrap_discipline(
    file: &SourceFile,
    _config: &LintConfig,
    out: &mut Vec<Diagnostic>,
) {
    const RULE: &str = "unwrap-discipline";
    for i in 0..file.tokens.len() {
        let is_hit = (is_code_ident(file, i, "unwrap") || is_code_ident(file, i, "expect"))
            && prev_text(file, i) == Some(".")
            && next_text(file, i) == Some("(");
        if is_hit {
            out.push(diag(
                file,
                i,
                RULE,
                format!(
                    "`.{}()` panics in library code; propagate the error or document \
                     provable infallibility with an allow directive",
                    file.token_text(i)
                ),
            ));
        }
    }
}

/// `float-cmp` — `==` / `!=` adjacent to a float literal.
///
/// A literal-adjacency heuristic (no type inference): fires when either
/// operand token next to the operator is a float literal. Exactness checks
/// like `fract() == 0.0` are legitimate and carry allow directives.
pub(crate) fn float_cmp(file: &SourceFile, _config: &LintConfig, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "float-cmp";
    for i in 0..file.tokens.len() {
        let t = &file.tokens[i];
        if t.kind != TokenKind::Punct || file.is_test_line(t.line) {
            continue;
        }
        let op = file.token_text(i);
        if op != "==" && op != "!=" {
            continue;
        }
        let float_beside =
            |j: Option<usize>| j.is_some_and(|j| file.tokens[j].kind == TokenKind::Float);
        if float_beside(file.prev_code(i)) || float_beside(file.next_code(i)) {
            out.push(diag(
                file,
                i,
                RULE,
                format!(
                    "`{op}` against a float literal; compare with a tolerance or document \
                     the exactness requirement"
                ),
            ));
        }
    }
}

/// `emit-discipline` — observer `Record { .. }` construction outside the
/// observe crate and the `emit!` macro definition.
///
/// Serving loops must offer records through `emit!` so sessions without an
/// observer pay nothing; a bare `Record {` elsewhere bypasses that
/// zero-cost guarantee.
pub(crate) fn emit_discipline(file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "emit-discipline";
    if config.record_construction_allowed.iter().any(|allowed| {
        file.path.starts_with(allowed.as_str()) || file.path.contains(allowed.as_str())
    }) {
        return;
    }
    for i in 0..file.tokens.len() {
        if is_code_ident(file, i, "Record") && next_text(file, i) == Some("{") {
            out.push(diag(
                file,
                i,
                RULE,
                "observer records are constructed only through `emit!` (zero-cost when \
                 no observer is attached)"
                    .to_string(),
            ));
        }
    }
}

/// `unused-pub` — a `pub fn` outside test code whose name appears in no
/// file outside its own crate.
///
/// Fires on `pub fn name` (also `pub const fn`, `pub async fn`, `pub
/// unsafe fn`; `pub(crate)` and narrower are not `pub`) when the run's
/// caller index holds `name` only for the defining crate. Callers are the
/// other crates' sources, their binaries and integration tests, the
/// workspace's `tests/` and `examples/`, and `perfbench/src`; their code
/// and comments both count, so a doc link or doctest there keeps an item
/// public. A name match anywhere outside counts, so a common name (`new`,
/// `len`) never fires. An item that only its own crate's doctests call
/// needs a directive naming them.
pub(crate) fn unused_pub(file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "unused-pub";
    if config.callers.owners.is_empty() {
        return;
    }
    let owner = owner_of(&file.path);
    for i in 0..file.tokens.len() {
        if !is_code_ident(file, i, "pub") {
            continue;
        }
        let mut next = file.next_code(i);
        while let Some(q) =
            next.filter(|&q| matches!(file.token_text(q), "const" | "async" | "unsafe"))
        {
            next = file.next_code(q);
        }
        let Some(name) = next
            .filter(|&f| file.token_text(f) == "fn")
            .and_then(|f| file.next_code(f))
        else {
            continue;
        };
        let text = file.token_text(name);
        if !config.callers.named_outside(text, owner) {
            out.push(diag(
                file,
                name,
                RULE,
                format!(
                    "`pub fn {text}` is named nowhere outside its crate; narrow it to \
                     `pub(crate)` or private, or delete it"
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        rule: fn(&SourceFile, &LintConfig, &mut Vec<Diagnostic>),
        path: &str,
        src: &str,
    ) -> Vec<Diagnostic> {
        let file = SourceFile::parse(path, src).unwrap();
        let mut out = Vec::new();
        rule(&file, &LintConfig::workspace_default(), &mut out);
        out
    }

    #[test]
    fn nondeterminism_fires_on_clocks_env_and_sim_state_maps() {
        let hits = run(
            nondeterminism,
            "crates/core/src/lib.rs",
            "fn f() { let t = Instant::now(); }",
        );
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("wall clock"), "{:?}", hits[0]);
        assert_eq!((hits[0].line, hits[0].col), (1, 18));

        let hits = run(
            nondeterminism,
            "crates/core/src/lib.rs",
            "fn f() -> u64 { std::time::SystemTime::now(); std::env::var(\"X\"); 0 }",
        );
        assert_eq!(hits.len(), 2);

        // HashMap: only in sim-state crates, and only imports / qualified
        // paths.
        let import = "use std::collections::{HashMap, HashSet};\nfn f() {}\n";
        assert_eq!(
            run(nondeterminism, "crates/simcore/src/cluster.rs", import).len(),
            2
        );
        assert!(run(nondeterminism, "crates/core/src/lib.rs", import).is_empty());
        let qualified =
            "fn f() { let m: std::collections::HashMap<u32, u32> = Default::default(); m.len(); }";
        assert_eq!(
            run(nondeterminism, "crates/observe/src/lib.rs", qualified).len(),
            1
        );
        // Bare mentions of an imported name stay silent.
        let bare = "fn f(m: &HashMap<u32, u32>) -> usize { m.len() }";
        assert!(run(nondeterminism, "crates/simcore/src/pool.rs", bare).is_empty());
    }

    #[test]
    fn nondeterminism_skips_tests_bins_and_imports_of_clocks() {
        let test_code = "#[cfg(test)]\nmod tests {\n    fn f() { Instant::now(); }\n}\n";
        assert!(run(nondeterminism, "crates/core/src/lib.rs", test_code).is_empty());
        let entry = "fn main() { let args = std::env::args(); }";
        assert!(run(nondeterminism, "crates/bench/src/bin/janus.rs", entry).is_empty());
        // Importing the type is fine; *reading* the clock is the violation.
        let import_only = "use std::time::Instant;\nfn f(t: Instant) -> Instant { t }\n";
        assert!(run(nondeterminism, "crates/core/src/lib.rs", import_only).is_empty());
    }

    #[test]
    fn hot_path_alloc_fires_only_inside_configured_items() {
        let src = "\
impl Sim {
    fn run_traced(&mut self) {
        let label = format!(\"{}\", self.id);
        let name = self.name.to_string();
        let scratch = Vec::new();
        let copy = self.state.clone();
    }

    fn setup(&mut self) {
        let fine = format!(\"setup is cold: {}\", self.id);
    }
}
";
        let hits = run(hot_path_alloc, "crates/platform/src/openloop.rs", src);
        assert_eq!(hits.len(), 4, "{hits:#?}");
        assert!(hits.iter().all(|h| h.message.contains("run_traced")));
        // The same source in an unconfigured file is silent.
        assert!(run(hot_path_alloc, "crates/platform/src/capacity.rs", src).is_empty());
        // The flight recorder's line writers are hot paths too.
        let writer = "\
impl TraceObserver {
    fn write_record(&mut self, record: &Record) {
        let policy = self.policy.clone();
    }
    fn finish(&mut self) -> String {
        self.lines.clone()
    }
}
";
        let hits = run(hot_path_alloc, "crates/observe/src/lib.rs", writer);
        assert_eq!(hits.len(), 1, "{hits:#?}");
        assert!(hits[0]
            .message
            .contains("`clone` allocates inside hot path `write_record`"));
        // macro_rules bodies are matched too.
        let emit = "macro_rules! emit {\n    ($x:expr) => { $x.to_string() };\n}\n";
        let hits = run(hot_path_alloc, "crates/platform/src/lib.rs", emit);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("`to_string`"), "{:?}", hits[0]);
    }

    #[test]
    fn unwrap_discipline_separates_library_from_test_code() {
        let src = "\
fn lib_code(v: Option<u32>) -> u32 {
    v.unwrap()
}

fn also_lib(r: Result<u32, String>) -> u32 {
    r.expect(\"present\")
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        super::lib_code(Some(1)).to_string().parse::<u32>().unwrap();
    }
}
";
        let hits = run(unwrap_discipline, "crates/core/src/x.rs", src);
        assert_eq!(hits.len(), 2, "{hits:#?}");
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[1].line, 6);
        // `unwrap_or` and friends are different identifiers: silent.
        let fine = "fn f(v: Option<u32>) -> u32 { v.unwrap_or(0) }";
        assert!(run(unwrap_discipline, "crates/core/src/x.rs", fine).is_empty());
        // Doc-comment examples are comments, not code: silent.
        let doc = "/// ```\n/// x.unwrap();\n/// ```\nfn f() {}\n";
        assert!(run(unwrap_discipline, "crates/core/src/x.rs", doc).is_empty());
    }

    #[test]
    fn float_cmp_fires_on_literal_comparisons_only() {
        let src = "fn f(x: f64) -> bool { x == 0.0 }";
        let hits = run(float_cmp, "crates/core/src/x.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("tolerance"));
        assert_eq!(
            run(
                float_cmp,
                "crates/core/src/x.rs",
                "fn f(x: f64) -> bool { 1.5 != x }"
            )
            .len(),
            1
        );
        for fine in [
            "fn f(x: u32) -> bool { x == 0 }",
            "fn f(x: f64) -> bool { (x - 1.0).abs() < 1e-9 }",
            "fn f(x: f64) -> bool { x <= 0.0 }",
            "#[test]\nfn t() { assert!(x == 0.0); }",
        ] {
            assert!(
                run(float_cmp, "crates/core/src/x.rs", fine).is_empty(),
                "{fine}"
            );
        }
    }

    #[test]
    fn emit_discipline_confines_record_construction() {
        let src = "fn leak(o: &mut dyn Observer) { o.record(&Record { at, kind }); }";
        let hits = run(emit_discipline, "crates/platform/src/openloop.rs", src);
        assert_eq!(hits.len(), 1);
        // The observe crate and the macro's home file are exempt.
        assert!(run(emit_discipline, "crates/observe/src/lib.rs", src).is_empty());
        assert!(run(emit_discipline, "crates/platform/src/lib.rs", src).is_empty());
        // Passing a RecordKind *to* emit! is the sanctioned path.
        let fine = "fn ok() { emit!(observer, now, RecordKind::Arrival { request_id }); }";
        assert!(run(emit_discipline, "crates/platform/src/openloop.rs", fine).is_empty());
    }

    /// Lint `crates/a/src/lib.rs` (`src`) with an index over it and
    /// `others` (path, source).
    fn run_unused_pub(src: &str, others: &[(&str, &str)]) -> Vec<Diagnostic> {
        let file = SourceFile::parse("crates/a/src/lib.rs", src).unwrap();
        let mut config = LintConfig::workspace_default();
        config.callers.add(&file);
        for (path, text) in others {
            config
                .callers
                .add(&SourceFile::parse(*path, *text).unwrap());
        }
        let registry = crate::LintRegistry::with_builtins();
        let (mut hits, _) = crate::lint_file(&file, &registry, &config);
        hits.retain(|h| h.rule == "unused-pub");
        hits
    }

    #[test]
    fn unused_pub_fires_on_names_only_their_own_crate_mentions() {
        let src = "\
pub fn lonely() {}
pub const fn lonely_const() -> u32 { 0 }
pub fn called_by_b() {}
pub(crate) fn narrow() {}
fn private() { lonely(); narrow(); }
pub struct Lonely;
";
        let hits = run_unused_pub(
            src,
            &[("crates/b/src/lib.rs", "fn f() { a::called_by_b(); }")],
        );
        let lines: Vec<u32> = hits.iter().map(|h| h.line).collect();
        assert_eq!(lines, [1, 2], "{hits:#?}");
        assert!(hits[0].message.contains("`pub fn lonely`"), "{:?}", hits[0]);
        // A file sharing the crate's `src` is no outside caller.
        let same_crate = [("crates/a/src/other.rs", "fn f() { crate::lonely(); }")];
        assert_eq!(run_unused_pub("pub fn lonely() {}", &same_crate).len(), 1);
        // Linted alone, with no index, the rule cannot judge and stays silent.
        let mut out = Vec::new();
        let alone = SourceFile::parse("crates/a/src/lib.rs", "pub fn lonely() {}").unwrap();
        unused_pub(&alone, &LintConfig::workspace_default(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn unused_pub_reads_tests_examples_binaries_and_perfbench_as_callers() {
        let src = "pub fn used() {}";
        for caller in [
            "tests/api.rs",
            "examples/quickstart.rs",
            "perfbench/src/serve.rs",
            "crates/a/tests/workspace.rs",
            "crates/a/src/bin/tool.rs",
            "crates/b/src/deep/mod.rs",
        ] {
            assert!(
                run_unused_pub(src, &[(caller, "fn main() { used(); }")]).is_empty(),
                "{caller}"
            );
        }
        // A doc link or doctest in another crate is a caller too; a string
        // literal is not.
        let doc = "/// Follows [`a::used`] step for step.\nfn f() {}";
        assert!(run_unused_pub(src, &[("crates/b/src/lib.rs", doc)]).is_empty());
        let string = "fn f() -> &'static str { \"used\" }";
        assert_eq!(
            run_unused_pub(src, &[("crates/b/src/lib.rs", string)]).len(),
            1
        );
    }

    #[test]
    fn unused_pub_ignores_test_regions_and_honours_directives() {
        let src = "\
// janus-lint: allow(unused-pub) — the crate doc's doctest calls it
pub fn doctested() {}

#[cfg(test)]
mod tests {
    pub fn helper() {}
}
";
        assert!(run_unused_pub(src, &[]).is_empty());
    }
}
