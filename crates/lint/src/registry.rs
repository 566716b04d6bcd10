//! The open lint-rule registry: the generic [`Registry`] over
//! [`LintRule`] rows, so downstream crates add or override rules without
//! touching `janus-lint`.

use crate::rules::{self, Diagnostic, LintConfig};
use crate::SourceFile;
use janus_simcore::registry::{Entry, Registry};
use std::sync::Arc;

/// A lint rule: a named single-pass check over one file.
#[derive(Debug)]
pub struct LintRule {
    /// Registry key (`janus list` name, directive name, baseline key).
    pub name: &'static str,
    /// One-line description for `janus list`.
    pub describe: &'static str,
    /// Append findings for one file. Suppression (directives, baseline) is
    /// the driver's job; rules report every syntactic hit.
    pub check: fn(&SourceFile, &LintConfig, &mut Vec<Diagnostic>),
}

/// Ordered, open registry of lint rules.
///
/// Order is respected everywhere rules are enumerated (`janus list`,
/// diagnostics of one line), and `register` replaces an existing rule *in
/// place* so overriding a built-in keeps its position.
pub type LintRegistry = Registry<LintRule>;

impl Entry for LintRule {
    const NOUN: &'static str = "lint rule";

    fn key(&self) -> &str {
        self.name
    }

    /// The six built-in rules, in reporting order.
    fn builtins(registry: &mut LintRegistry) {
        let builtins: [LintRule; 6] = [
            LintRule {
                name: "nondeterminism",
                describe: "wall-clock/env reads, and HashMap/HashSet in simulation-state crates",
                check: rules::nondeterminism,
            },
            LintRule {
                name: "hot-path-alloc",
                describe: "allocation-shaped calls inside the configured hot-path functions",
                check: rules::hot_path_alloc,
            },
            LintRule {
                name: "unwrap-discipline",
                describe: "no .unwrap()/.expect() in non-test library code",
                check: rules::unwrap_discipline,
            },
            LintRule {
                name: "float-cmp",
                describe: "no ==/!= against float literals",
                check: rules::float_cmp,
            },
            LintRule {
                name: "emit-discipline",
                describe: "observer records constructed only through emit!",
                check: rules::emit_discipline,
            },
            LintRule {
                name: "unused-pub",
                describe: "pub fns that no other crate, test, example or perfbench names",
                check: rules::unused_pub,
            },
        ];
        for rule in builtins {
            registry.register(Arc::new(rule));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_register_in_reporting_order() {
        let registry = LintRegistry::with_builtins();
        assert_eq!(
            registry.names(),
            vec![
                "nondeterminism",
                "hot-path-alloc",
                "unwrap-discipline",
                "float-cmp",
                "emit-discipline",
                "unused-pub",
            ]
        );
        assert!(registry.ensure_known("float-cmp").is_ok());
        let err = registry.ensure_known("tabs-vs-spaces").unwrap_err();
        assert!(err.contains("unknown lint rule `tabs-vs-spaces`"), "{err}");
        assert!(err.contains("nondeterminism"), "{err}");
        let shown = format!("{registry:?}");
        assert!(shown.contains("emit-discipline"), "{shown}");
    }

    #[test]
    fn builtin_rows_report_under_their_own_names() {
        // One file that trips four of the six rules: every row's check fn
        // must label its findings with the row's name, since directives and
        // the baseline match on that label.
        let src = "\
fn f(x: Option<f64>, at: u64, kind: u8) -> bool {
    let _t = Instant::now();
    let _r = Record { at, kind };
    x.unwrap() == 0.5
}
";
        let file = SourceFile::parse("crates/core/src/a.rs", src).unwrap();
        let config = LintConfig::workspace_default();
        let mut fired = Vec::new();
        for rule in LintRegistry::with_builtins().iter() {
            let mut out = Vec::new();
            (rule.check)(&file, &config, &mut out);
            assert!(out.iter().all(|d| d.rule == rule.name), "{out:?}");
            if !out.is_empty() {
                fired.push(rule.name);
            }
        }
        assert_eq!(
            fired,
            [
                "nondeterminism",
                "unwrap-discipline",
                "float-cmp",
                "emit-discipline"
            ]
        );
    }

    #[test]
    fn custom_rules_append_and_overrides_keep_position() {
        let mut registry = LintRegistry::with_builtins();
        registry.register(Arc::new(LintRule {
            name: "no-todo",
            describe: "flags TODO comments",
            check: |file, _config, out| {
                for (i, t) in file.tokens.iter().enumerate() {
                    if file.token_text(i).contains("TODO") {
                        out.push(Diagnostic {
                            rule: "no-todo".into(),
                            path: file.path.clone(),
                            line: t.line,
                            col: t.col,
                            message: "unfinished work".into(),
                        });
                    }
                }
            },
        }));
        assert_eq!(registry.len(), 7);
        assert_eq!(registry.names()[6], "no-todo");
        let file = SourceFile::parse("crates/x/src/a.rs", "// TODO: later\nfn f() {}\n").unwrap();
        let (hits, suppressed) =
            crate::lint_file(&file, &registry, &LintConfig::workspace_default());
        assert_eq!(suppressed, 0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "no-todo");
        assert_eq!(
            hits[0].render(),
            "crates/x/src/a.rs:1:1: no-todo: unfinished work"
        );

        // Replacing a built-in keeps its slot.
        registry.register(Arc::new(LintRule {
            name: "float-cmp",
            describe: "stricter float rule",
            check: |_f, _c, _o| {},
        }));
        assert_eq!(registry.names()[3], "float-cmp");
        assert_eq!(
            registry.get("float-cmp").unwrap().describe,
            "stricter float rule"
        );
        assert_eq!(registry.len(), 7);
    }
}
