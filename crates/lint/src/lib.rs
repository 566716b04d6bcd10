//! Determinism & hot-path static analysis for the workspace.
//!
//! The simulator's core guarantee — same seed ⇒ byte-identical reports,
//! traces, and fault schedules — and the zero-allocation ambition for the
//! per-event path are invariants clippy cannot express. `janus-lint`
//! enforces them syntactically: a hand-rolled Rust lexer (no external
//! dependencies, in the spirit of `janus-json`), a per-file source model
//! (test regions, inline directives, item spans), and an ordered open
//! [`LintRegistry`] of rules — the same generic registry as the
//! policy/scenario/fault/observer ones.
//!
//! Built-in rules:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `nondeterminism` | no wall-clock/env reads; no `HashMap`/`HashSet` in simulation-state crates |
//! | `hot-path-alloc` | no allocation-shaped calls in the configured hot-path functions |
//! | `unwrap-discipline` | no `.unwrap()` / `.expect()` in non-test library code |
//! | `float-cmp` | no `==` / `!=` against float literals |
//! | `emit-discipline` | observer `Record`s constructed only through `emit!` |
//! | `unused-pub` | every `pub fn` is named by some other crate, test, example or perfbench |
//!
//! The first five rules read one file at a time. `unused-pub` is the one
//! rule that also reads the workspace's `tests/` and `examples/` and
//! `perfbench/src`: [`lint_workspace`] indexes the names in those files and
//! in the linted sources once per run.
//!
//! Findings render rustc-style (`path:line:col: rule: message`). Two
//! suppression channels exist: inline `// janus-lint: allow(rule)`
//! directives (same line or the line above, with a justification), and the
//! committed burn-down baseline `specs/lint_baseline.json`, which CI
//! compares against so only *new* violations fail. `janus lint` in the
//! bench CLI is the front end.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod model;
pub mod registry;
pub mod report;
pub mod rules;

pub use lexer::{lex, Token, TokenKind};
pub use model::SourceFile;
pub use registry::{LintRegistry, LintRule};
pub use report::{
    compare_to_baseline, diagnostics_from_json, run_to_json, Baseline, BaselineVerdict,
};
pub use rules::{Diagnostic, HotPath, LintConfig};

use std::path::{Path, PathBuf};

/// The workspace-relative path of the committed burn-down baseline.
pub const BASELINE_PATH: &str = "specs/lint_baseline.json";

/// The outcome of linting a set of files.
#[derive(Debug, Clone, Default)]
pub struct LintRun {
    /// How many files were scanned.
    pub files_scanned: usize,
    /// Findings after directive suppression, sorted by path, line, col.
    pub diagnostics: Vec<Diagnostic>,
    /// How many findings inline `allow` directives suppressed.
    pub suppressed: usize,
    /// The rule names that ran, in registry order.
    pub rules: Vec<String>,
}

/// Ascend from `start` to the workspace root: the first directory holding
/// both a `Cargo.toml` and a `crates/` directory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Enumerate the lintable sources under `root`: every `.rs` file in
/// `crates/*/src`, recursively, in sorted (deterministic) order. Only
/// library and binary sources are linted. The `unused-pub` rule also reads
/// `crates/*/tests`, the workspace's `tests/` and `examples/`, and the
/// separate `perfbench/` package's `src`, as callers only.
fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    rs_files(crate_subdirs(root, "src")?)
}

/// The files `unused-pub` reads as callers besides the linted sources, in
/// sorted order; a missing directory contributes none.
fn caller_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut dirs = crate_subdirs(root, "tests")?;
    dirs.extend(["tests", "examples", "perfbench/src"].map(|d| root.join(d)));
    rs_files(dirs)
}

/// `crates/<name>/<sub>` for every crate, whether or not it exists.
fn crate_subdirs(root: &Path, sub: &str) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot list {}: {e}", crates_dir.display()))?;
    let mut dirs = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list crates/: {e}"))?;
        dirs.push(entry.path().join(sub));
    }
    Ok(dirs)
}

/// Every `.rs` file under the existing directories of `dirs`, sorted.
fn rs_files(dirs: Vec<PathBuf>) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_rs(dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint one parsed file: run every registered rule, then apply the file's
/// inline `allow` directives. Returns the surviving diagnostics and the
/// suppressed count.
pub(crate) fn lint_file(
    file: &SourceFile,
    registry: &LintRegistry,
    config: &LintConfig,
) -> (Vec<Diagnostic>, usize) {
    let mut all = Vec::new();
    for rule in registry.iter() {
        rule.check(file, config, &mut all);
    }
    let total = all.len();
    let kept: Vec<Diagnostic> = all
        .into_iter()
        .filter(|d| !file.allows(&d.rule, d.line))
        .collect();
    let suppressed = total - kept.len();
    (kept, suppressed)
}

/// Lint the whole workspace under `root` with the given registry and
/// configuration. The `unused-pub` caller index is built once per run,
/// over the linted `crates/*/src` sources and the callers in
/// `crates/*/tests`, `tests/`, `examples/` and `perfbench/src`. Paths in
/// diagnostics are workspace-relative with forward slashes; diagnostics are
/// sorted by path, line, column.
pub fn lint_workspace(
    root: &Path,
    registry: &LintRegistry,
    config: &LintConfig,
) -> Result<LintRun, String> {
    let paths = workspace_files(root)?;
    if paths.is_empty() {
        return Err(format!("no sources under {}/crates/*/src", root.display()));
    }
    let parse = |path: &PathBuf| {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        SourceFile::parse(rel, text)
    };
    let files = paths.iter().map(parse).collect::<Result<Vec<_>, _>>()?;
    let mut config = config.clone();
    for file in &files {
        config.callers.add(file);
    }
    for path in caller_files(root)? {
        config.callers.add(&parse(&path)?);
    }
    let mut run = LintRun {
        rules: registry.names().iter().map(|s| s.to_string()).collect(),
        ..LintRun::default()
    };
    for file in &files {
        let (mut diagnostics, suppressed) = lint_file(file, registry, &config);
        run.diagnostics.append(&mut diagnostics);
        run.suppressed += suppressed;
        run.files_scanned += 1;
    }
    run.diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, &a.rule).cmp(&(&b.path, b.line, b.col, &b.rule)));
    Ok(run)
}

/// Load the committed baseline under `root`, treating a missing file as an
/// empty baseline (the goal state).
pub fn load_baseline(root: &Path) -> Result<Baseline, String> {
    let path = root.join(BASELINE_PATH);
    match std::fs::read_to_string(&path) {
        Err(_) => Ok(Baseline::default()),
        Ok(text) => {
            let doc = janus_json::parse(&text)
                .map_err(|e| format!("{}: not valid JSON: {e}", path.display()))?;
            Baseline::from_json(&doc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directive_suppression_is_per_rule_and_counted() {
        let src = "\
fn f(v: Option<u32>) -> u32 {
    // janus-lint: allow(unwrap-discipline) — constructed two lines up, provably Some
    v.unwrap()
}

fn g(v: Option<u32>) -> u32 {
    v.unwrap()
}
";
        let file = SourceFile::parse("crates/x/src/a.rs", src).unwrap();
        let registry = LintRegistry::with_builtins();
        let config = LintConfig::workspace_default();
        let (diagnostics, suppressed) = lint_file(&file, &registry, &config);
        assert_eq!(suppressed, 1);
        assert_eq!(diagnostics.len(), 1);
        assert_eq!(diagnostics[0].line, 7);
        // A directive for one rule does not blanket others.
        let wrong = "// janus-lint: allow(float-cmp)\nlet t = Instant::now();\n";
        let file = SourceFile::parse("crates/x/src/b.rs", wrong).unwrap();
        let (diagnostics, suppressed) = lint_file(&file, &registry, &config);
        assert_eq!(suppressed, 0);
        assert_eq!(diagnostics.len(), 1);
        assert_eq!(diagnostics[0].rule, "nondeterminism");
    }

    #[test]
    fn workspace_root_is_found_from_nested_dirs() {
        let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(&manifest_dir).expect("workspace root");
        assert!(root.join("crates/lint/src/lib.rs").is_file());
        assert_eq!(
            find_workspace_root(&root).as_deref(),
            Some(root.as_path()),
            "already at the root is a fixed point"
        );
    }

    #[test]
    fn workspace_files_are_sorted_and_exclude_shims() {
        let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(&manifest_dir).unwrap();
        let files = workspace_files(&root).unwrap();
        assert!(files.len() > 30, "found {} files", files.len());
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "deterministic scan order");
        // Every file is a `.rs` file in some `<root>/crates/<name>/src/`.
        let crates = root.join("crates");
        for path in &files {
            let mut parts = path
                .strip_prefix(&crates)
                .unwrap_or_else(|_| panic!("{} is outside crates/", path.display()))
                .components();
            assert!(parts.next().is_some(), "{}", path.display());
            assert_eq!(
                parts.next().map(|c| c.as_os_str()),
                Some(std::ffi::OsStr::new("src")),
                "{}",
                path.display()
            );
            assert!(
                path.extension().is_some_and(|e| e == "rs"),
                "{}",
                path.display()
            );
        }
        assert!(files
            .iter()
            .any(|p| p.ends_with("crates/lint/src/lexer.rs")));
    }

    #[test]
    fn every_pub_fn_in_the_workspace_has_an_outside_caller() {
        let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(&manifest_dir).unwrap();
        let callers = caller_files(&root).unwrap();
        assert!(callers.iter().any(|p| p.ends_with("tests/invariants.rs")));
        assert!(callers
            .iter()
            .any(|p| p.ends_with("examples/quickstart.rs")));
        let registry = LintRegistry::with_builtins();
        let run = lint_workspace(&root, &registry, &LintConfig::workspace_default()).unwrap();
        let unused: Vec<String> = run
            .diagnostics
            .iter()
            .filter(|d| d.rule == "unused-pub")
            .map(Diagnostic::render)
            .collect();
        assert!(unused.is_empty(), "{}", unused.join("\n"));
    }
}
