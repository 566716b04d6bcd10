//! The open lint-rule registry: the generic [`Registry`] over
//! [`LintRule`]s, so downstream crates add or override rules without
//! touching `janus-lint`.

use crate::rules::{self, Diagnostic, LintConfig};
use crate::SourceFile;
use janus_simcore::registry::{Entry, Registry};
use std::sync::Arc;

/// An object-safe lint rule: a named single-pass check over one file.
pub trait LintRule: Send + Sync {
    /// Registry key (`janus list` name, directive name, baseline key).
    fn name(&self) -> &str;
    /// One-line description for `janus list`.
    fn describe(&self) -> &str;
    /// Append findings for one file. Suppression (directives, baseline) is
    /// the driver's job; rules report every syntactic hit.
    fn check(&self, file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>);
}

/// Ordered, open registry of lint rules.
///
/// Order is respected everywhere rules are enumerated (`janus list`,
/// diagnostics of one line), and `register` replaces an existing rule *in
/// place* so overriding a built-in keeps its position.
pub type LintRegistry = Registry<dyn LintRule>;

impl Entry for dyn LintRule {
    const NOUN: &'static str = "lint rule";

    fn key(&self) -> &str {
        self.name()
    }

    /// The five built-in rules, in reporting order.
    fn builtins(registry: &mut LintRegistry) {
        let builtins: [FnRule; 5] = [
            FnRule {
                name: "nondeterminism",
                describe: "wall-clock/env reads, and HashMap/HashSet in simulation-state crates",
                check: rules::nondeterminism,
            },
            FnRule {
                name: "hot-path-alloc",
                describe: "allocation-shaped calls inside the configured hot-path functions",
                check: rules::hot_path_alloc,
            },
            FnRule {
                name: "unwrap-discipline",
                describe: "no .unwrap()/.expect() in non-test library code",
                check: rules::unwrap_discipline,
            },
            FnRule {
                name: "float-cmp",
                describe: "no ==/!= against float literals",
                check: rules::float_cmp,
            },
            FnRule {
                name: "emit-discipline",
                describe: "observer records constructed only through emit!",
                check: rules::emit_discipline,
            },
        ];
        for rule in builtins {
            registry.register(Arc::new(rule));
        }
    }
}

/// A rule that is a plain check function.
struct FnRule {
    name: &'static str,
    describe: &'static str,
    check: fn(&SourceFile, &LintConfig, &mut Vec<Diagnostic>),
}

impl LintRule for FnRule {
    fn name(&self) -> &str {
        self.name
    }

    fn describe(&self) -> &str {
        self.describe
    }

    fn check(&self, file: &SourceFile, config: &LintConfig, out: &mut Vec<Diagnostic>) {
        (self.check)(file, config, out);
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
    fn custom_rules_append_and_overrides_keep_position() {
        let mut registry = LintRegistry::with_builtins();
        registry.register(Arc::new(FnRule {
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
        assert_eq!(registry.len(), 6);
        assert_eq!(registry.names()[5], "no-todo");
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
        registry.register(Arc::new(FnRule {
            name: "float-cmp",
            describe: "stricter float rule",
            check: |_f, _c, _o| {},
        }));
        assert_eq!(registry.names()[3], "float-cmp");
        assert_eq!(
            registry.get("float-cmp").unwrap().describe(),
            "stricter float rule"
        );
        assert_eq!(registry.len(), 6);
    }
}
