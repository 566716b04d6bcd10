//! The machine-readable side of a lint run: the `--out` JSON artefact and
//! the committed burn-down baseline.
//!
//! The baseline (`specs/lint_baseline.json`) is a list of
//! `(rule, path, count)` entries: the number of *known, tolerated*
//! violations per rule per file. CI fails only when a run exceeds a
//! baseline entry (or hits a file/rule pair with no entry) — so new
//! violations are blocked while the existing debt is burned down entry by
//! entry. An empty baseline is the goal state: every remaining finding is
//! then either fixed or carries an inline justification.

use crate::rules::Diagnostic;
use crate::LintRun;
use janus_json::Value;

/// The `tool` tag of both the artefact and the baseline document.
pub const TOOL: &str = "janus-lint";

/// Encode a lint run as the `--out` artefact document.
pub fn run_to_json(run: &LintRun) -> Value {
    let diagnostics = run
        .diagnostics
        .iter()
        .map(|d| {
            Value::Obj(vec![
                ("rule".to_string(), Value::Str(d.rule.clone())),
                ("path".to_string(), Value::Str(d.path.clone())),
                ("line".to_string(), Value::Num(f64::from(d.line))),
                ("col".to_string(), Value::Num(f64::from(d.col))),
                ("message".to_string(), Value::Str(d.message.clone())),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("tool".to_string(), Value::Str(TOOL.to_string())),
        (
            "rules".to_string(),
            Value::Arr(run.rules.iter().cloned().map(Value::Str).collect()),
        ),
        (
            "files_scanned".to_string(),
            Value::Num(run.files_scanned as f64),
        ),
        ("suppressed".to_string(), Value::Num(run.suppressed as f64)),
        ("diagnostics".to_string(), Value::Arr(diagnostics)),
    ])
}

/// Decode an artefact document back into diagnostics — the round-trip
/// check every written artefact passes.
pub fn diagnostics_from_json(doc: &Value) -> Result<Vec<Diagnostic>, String> {
    let tool = doc
        .require("tool")
        .map_err(|e| format!("lint artefact: {e}"))?
        .as_str()
        .ok_or("lint artefact `tool` not a string")?;
    if tool != TOOL {
        return Err(format!(
            "lint artefact has tool `{tool}`, expected `{TOOL}`"
        ));
    }
    let entries = doc
        .require("diagnostics")
        .map_err(|e| format!("lint artefact: {e}"))?
        .as_array()
        .ok_or("lint artefact `diagnostics` not an array")?;
    let mut out = Vec::with_capacity(entries.len());
    for entry in entries {
        let field_str = |name: &str| -> Result<String, String> {
            Ok(entry
                .require(name)
                .map_err(|e| format!("lint diagnostic: {e}"))?
                .as_str()
                .ok_or_else(|| format!("lint diagnostic `{name}` not a string"))?
                .to_string())
        };
        let field_u32 = |name: &str| -> Result<u32, String> {
            entry
                .require(name)
                .map_err(|e| format!("lint diagnostic: {e}"))?
                .as_f64()
                .map(|n| n as u32)
                .ok_or_else(|| format!("lint diagnostic `{name}` not a number"))
        };
        out.push(Diagnostic {
            rule: field_str("rule")?,
            path: field_str("path")?,
            line: field_u32("line")?,
            col: field_u32("col")?,
            message: field_str("message")?,
        });
    }
    Ok(out)
}

/// The committed burn-down baseline: tolerated violation counts keyed by
/// `(rule, path)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Baseline {
    /// `(rule, path, count)` entries, in document order.
    pub entries: Vec<(String, String, usize)>,
}

impl Baseline {
    /// The tolerated count for one `(rule, path)` pair (0 when absent).
    pub fn allowed(&self, rule: &str, path: &str) -> usize {
        self.entries
            .iter()
            .find(|(r, p, _)| r == rule && p == path)
            .map(|&(_, _, n)| n)
            .unwrap_or(0)
    }

    /// Encode as the committed `specs/lint_baseline.json` document.
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("tool".to_string(), Value::Str(TOOL.to_string())),
            (
                "entries".to_string(),
                Value::Arr(
                    self.entries
                        .iter()
                        .map(|(rule, path, count)| {
                            Value::Obj(vec![
                                ("rule".to_string(), Value::Str(rule.clone())),
                                ("path".to_string(), Value::Str(path.clone())),
                                ("count".to_string(), Value::Num(*count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Decode a baseline document.
    pub fn from_json(doc: &Value) -> Result<Self, String> {
        let tool = doc
            .require("tool")
            .map_err(|e| format!("lint baseline: {e}"))?
            .as_str()
            .ok_or("lint baseline `tool` not a string")?;
        if tool != TOOL {
            return Err(format!(
                "lint baseline has tool `{tool}`, expected `{TOOL}`"
            ));
        }
        let entries = doc
            .require("entries")
            .map_err(|e| format!("lint baseline: {e}"))?
            .as_array()
            .ok_or("lint baseline `entries` not an array")?;
        let mut out = Vec::with_capacity(entries.len());
        for entry in entries {
            let rule = entry
                .require("rule")
                .map_err(|e| format!("baseline entry: {e}"))?
                .as_str()
                .ok_or("baseline entry `rule` not a string")?
                .to_string();
            let path = entry
                .require("path")
                .map_err(|e| format!("baseline entry: {e}"))?
                .as_str()
                .ok_or("baseline entry `path` not a string")?
                .to_string();
            let count = entry
                .require("count")
                .map_err(|e| format!("baseline entry: {e}"))?
                .as_f64()
                .filter(|n| n.fract() == 0.0 && *n >= 0.0) // janus-lint: allow(float-cmp) — exactness check: counts must decode as whole numbers
                .ok_or("baseline entry `count` not a non-negative integer")?
                as usize;
            out.push((rule, path, count));
        }
        Ok(Baseline { entries: out })
    }
}

/// The baseline comparison: what is new (gates CI) and what has been
/// burned down (prompts a baseline refresh).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BaselineVerdict {
    /// `(rule, path, current, allowed)` groups exceeding their baseline.
    pub regressions: Vec<(String, String, usize, usize)>,
    /// Baseline entries whose current count is below the tolerated count —
    /// progress; the committed baseline can be tightened.
    pub improved: Vec<(String, String, usize, usize)>,
}

impl BaselineVerdict {
    /// Whether the run matches the baseline exactly: nothing over it, and
    /// nothing under it either — a burned-down entry must be tightened in
    /// the same change, so the baseline only ever ratchets down.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty() && self.improved.is_empty()
    }
}

/// Compare a run's diagnostics against the baseline: group by
/// `(rule, path)` and flag groups exceeding their tolerated count.
pub fn compare_to_baseline(diagnostics: &[Diagnostic], baseline: &Baseline) -> BaselineVerdict {
    let mut counts: Vec<(String, String, usize)> = Vec::new();
    for d in diagnostics {
        match counts
            .iter_mut()
            .find(|(r, p, _)| r == &d.rule && p == &d.path)
        {
            Some(slot) => slot.2 += 1,
            None => counts.push((d.rule.clone(), d.path.clone(), 1)),
        }
    }
    let mut verdict = BaselineVerdict::default();
    for (rule, path, current) in &counts {
        let allowed = baseline.allowed(rule, path);
        if *current > allowed {
            verdict
                .regressions
                .push((rule.clone(), path.clone(), *current, allowed));
        } else if *current < allowed {
            verdict
                .improved
                .push((rule.clone(), path.clone(), *current, allowed));
        }
    }
    for (rule, path, allowed) in &baseline.entries {
        let current = counts
            .iter()
            .find(|(r, p, _)| r == rule && p == path)
            .map(|&(_, _, n)| n)
            .unwrap_or(0);
        if current == 0 && *allowed > 0 {
            verdict
                .improved
                .push((rule.clone(), path.clone(), 0, *allowed));
        }
    }
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(rule: &str, path: &str, line: u32) -> Diagnostic {
        Diagnostic {
            rule: rule.into(),
            path: path.into(),
            line,
            col: 1,
            message: "m".into(),
        }
    }

    #[test]
    fn artefacts_round_trip_through_json() {
        let run = LintRun {
            files_scanned: 3,
            suppressed: 2,
            rules: vec!["float-cmp".into()],
            diagnostics: vec![d("float-cmp", "crates/x/src/a.rs", 7)],
        };
        let doc = run_to_json(&run);
        let reparsed = janus_json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(reparsed, doc, "canonical encode→decode→encode identity");
        let decoded = diagnostics_from_json(&reparsed).unwrap();
        assert_eq!(decoded, run.diagnostics);
        assert_eq!(
            reparsed.require("files_scanned").unwrap().as_f64(),
            Some(3.0)
        );
        let err = diagnostics_from_json(&Value::Obj(vec![(
            "tool".to_string(),
            Value::Str("other".to_string()),
        )]))
        .unwrap_err();
        assert!(err.contains("expected `janus-lint`"), "{err}");
    }

    #[test]
    fn baselines_round_trip_and_tolerate_known_counts() {
        let baseline = Baseline {
            entries: vec![("unwrap-discipline".into(), "crates/x/src/a.rs".into(), 2)],
        };
        let decoded = Baseline::from_json(&baseline.to_json()).unwrap();
        assert_eq!(decoded, baseline);
        assert_eq!(decoded.allowed("unwrap-discipline", "crates/x/src/a.rs"), 2);
        assert_eq!(decoded.allowed("float-cmp", "crates/x/src/a.rs"), 0);

        // At the tolerated count: clean, nothing improved.
        let two = vec![
            d("unwrap-discipline", "crates/x/src/a.rs", 1),
            d("unwrap-discipline", "crates/x/src/a.rs", 9),
        ];
        let verdict = compare_to_baseline(&two, &baseline);
        assert!(verdict.is_clean());
        assert!(verdict.improved.is_empty());

        // One more than tolerated: a regression carrying both counts.
        let mut three = two.clone();
        three.push(d("unwrap-discipline", "crates/x/src/a.rs", 20));
        let verdict = compare_to_baseline(&three, &baseline);
        assert!(!verdict.is_clean());
        assert_eq!(
            verdict.regressions,
            vec![(
                "unwrap-discipline".to_string(),
                "crates/x/src/a.rs".to_string(),
                3,
                2
            )]
        );

        // Fewer than tolerated (including zero): burn-down progress, which
        // is not clean until the baseline is tightened.
        let verdict = compare_to_baseline(&two[..1], &baseline);
        assert!(!verdict.is_clean());
        assert!(verdict.regressions.is_empty());
        assert_eq!(verdict.improved.len(), 1);
        let verdict = compare_to_baseline(&[], &baseline);
        assert!(!verdict.is_clean());
        assert_eq!(
            verdict.improved,
            vec![(
                "unwrap-discipline".to_string(),
                "crates/x/src/a.rs".to_string(),
                0,
                2
            )]
        );

        // A brand-new (rule, path) pair has no entry: fails immediately.
        let verdict = compare_to_baseline(&[d("float-cmp", "crates/y/src/b.rs", 3)], &baseline);
        assert_eq!(verdict.regressions.len(), 1);
        assert_eq!(verdict.regressions[0].3, 0);
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        let err = Baseline::from_json(&Value::Obj(vec![(
            "tool".to_string(),
            Value::Str("clippy".to_string()),
        )]))
        .unwrap_err();
        assert!(err.contains("expected `janus-lint`"), "{err}");
        let doc = Value::Obj(vec![
            ("tool".to_string(), Value::Str(TOOL.to_string())),
            (
                "entries".to_string(),
                Value::Arr(vec![Value::Obj(vec![
                    ("rule".to_string(), Value::Str("x".to_string())),
                    ("path".to_string(), Value::Str("y".to_string())),
                    ("count".to_string(), Value::Num(1.5)),
                ])]),
            ),
        ]);
        let err = Baseline::from_json(&doc).unwrap_err();
        assert!(err.contains("non-negative integer"), "{err}");
    }
}
