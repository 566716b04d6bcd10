//! The source model rules analyse: one lexed file plus the syntactic
//! context rules need — which lines are test code, which lines carry
//! `janus-lint: allow(..)` directives, and where named functions and
//! macros begin and end.
//!
//! Everything here is computed once per file at parse time, so each rule's
//! `check` is a single pass over the token stream with O(1) context
//! queries.

use crate::lexer::{lex, Token, TokenKind};

/// The inline suppression introducer rules look for inside comments.
pub const DIRECTIVE: &str = "janus-lint:";

/// One parsed source file with its precomputed analysis context.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Full source text.
    pub text: String,
    /// Lexed token stream (comments included).
    pub tokens: Vec<Token>,
    /// 1-based line ranges (inclusive) of `#[test]` / `#[cfg(test)]` items.
    test_ranges: Vec<(u32, u32)>,
    /// `(rule, line)` pairs from `janus-lint: allow(rule)` directives; the
    /// directive suppresses that rule on its own line and the next.
    allows: Vec<(String, u32)>,
    /// `(name, first_line, last_line)` of every `fn` and `macro_rules!`
    /// item body (the name's line through the body's closing brace).
    items: Vec<(String, u32, u32)>,
}

impl SourceFile {
    /// Lex and analyse one file. Lexer errors are prefixed with the path.
    pub(crate) fn parse(path: impl Into<String>, text: impl Into<String>) -> Result<Self, String> {
        let path = path.into();
        let text = text.into();
        let tokens = lex(&text).map_err(|e| format!("{path}:{e}"))?;
        let test_ranges = find_test_ranges(&text, &tokens);
        let allows = find_allows(&text, &tokens);
        let items = find_items(&text, &tokens);
        Ok(SourceFile {
            path,
            text,
            tokens,
            test_ranges,
            allows,
            items,
        })
    }

    /// The text of token `i`.
    pub(crate) fn token_text(&self, i: usize) -> &str {
        self.tokens[i].text(&self.text)
    }

    /// Whether a line lies inside a `#[test]` fn or `#[cfg(test)]` item.
    pub(crate) fn is_test_line(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Whether a `janus-lint: allow(rule)` directive covers `line`: the
    /// directive's own line (trailing comment) or the line below it
    /// (annotation above the offending code).
    pub(crate) fn allows(&self, rule: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|(r, l)| r == rule && (line == *l || line == l + 1))
    }

    /// Line ranges (inclusive) of every `fn` or `macro_rules!` item named
    /// `name` in this file.
    pub(crate) fn item_ranges(&self, name: &str) -> Vec<(u32, u32)> {
        self.items
            .iter()
            .filter(|(n, _, _)| n == name)
            .map(|&(_, lo, hi)| (lo, hi))
            .collect()
    }

    /// Index of the previous non-comment token before `i`.
    pub(crate) fn prev_code(&self, i: usize) -> Option<usize> {
        self.tokens[..i].iter().rposition(|t| !is_comment(t.kind))
    }

    /// Index of the next non-comment token after `i`.
    pub(crate) fn next_code(&self, i: usize) -> Option<usize> {
        self.tokens[i + 1..]
            .iter()
            .position(|t| !is_comment(t.kind))
            .map(|off| i + 1 + off)
    }
}

fn is_comment(kind: TokenKind) -> bool {
    matches!(kind, TokenKind::LineComment | TokenKind::BlockComment)
}

/// Scan for `#[test]`-like attributes (any attribute containing the bare
/// identifier `test`, which covers `#[test]`, `#[cfg(test)]`,
/// `#[cfg(all(test, …))]` and `#[tokio::test]`) and resolve each marked
/// item's extent: through the matching close of its body braces, or to the
/// terminating semicolon for braceless items.
fn find_test_ranges(text: &str, tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].kind == TokenKind::Punct
            && tokens[i].text(text) == "#"
            && tokens.get(i + 1).map(|t| t.text(text)) == Some("["))
        {
            i += 1;
            continue;
        }
        let attr_line = tokens[i].line;
        // Walk the attribute's bracket group, noting a bare `test` ident.
        let mut depth = 0usize;
        let mut marked = false;
        let mut j = i + 1;
        while j < tokens.len() {
            match tokens[j].text(text) {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "test" if tokens[j].kind == TokenKind::Ident => marked = true,
                _ => {}
            }
            j += 1;
        }
        if !marked {
            i = j + 1;
            continue;
        }
        // Extent: from the attribute through the item body. Further
        // attributes between the marker and the item are skipped by the
        // brace scan (their brackets don't open a body).
        let mut brace_depth = 0usize;
        let mut k = j + 1;
        let mut end_line = attr_line;
        while k < tokens.len() {
            match tokens[k].text(text) {
                "{" => brace_depth += 1,
                // A close brace at depth 0 means the attribute dangled at
                // the end of a scope; stop rather than escape it.
                "}" if brace_depth == 0 => break,
                "}" => {
                    brace_depth -= 1;
                    if brace_depth == 0 {
                        end_line = tokens[k].line;
                        break;
                    }
                }
                ";" if brace_depth == 0 => {
                    end_line = tokens[k].line;
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        ranges.push((attr_line, end_line));
        i = k + 1;
    }
    ranges
}

/// Parse `janus-lint: allow(rule-a, rule-b)` out of comment tokens.
fn find_allows(text: &str, tokens: &[Token]) -> Vec<(String, u32)> {
    let mut allows = Vec::new();
    for token in tokens {
        if !is_comment(token.kind) {
            continue;
        }
        let comment = token.text(text);
        let Some(at) = comment.find(DIRECTIVE) else {
            continue;
        };
        let rest = comment[at + DIRECTIVE.len()..].trim_start();
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.find(')').map(|close| &r[..close]))
        else {
            continue;
        };
        for rule in args.split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                allows.push((rule.to_string(), token.line));
            }
        }
    }
    allows
}

/// Locate `fn name … { … }` and `macro_rules! name { … }` items. The body
/// is the first brace group at angle/paren-neutral depth after the name;
/// bodyless items (trait method signatures) are skipped.
fn find_items(text: &str, tokens: &[Token]) -> Vec<(String, u32, u32)> {
    let mut items = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let name_at = match tokens[i].text(text) {
            "fn" if tokens[i].kind == TokenKind::Ident => match tokens.get(i + 1) {
                Some(t) if t.kind == TokenKind::Ident => Some(i + 1),
                _ => None,
            },
            "macro_rules" => match (tokens.get(i + 1), tokens.get(i + 2)) {
                (Some(bang), Some(t)) if bang.text(text) == "!" && t.kind == TokenKind::Ident => {
                    Some(i + 2)
                }
                _ => None,
            },
            _ => None,
        };
        let Some(name_at) = name_at else {
            i += 1;
            continue;
        };
        let name = tokens[name_at].text(text).to_string();
        let start_line = tokens[name_at].line;
        // Find the body: first `{` after the signature; a `;` first means a
        // bodyless signature.
        let mut j = name_at + 1;
        let mut brace_depth = 0usize;
        let mut opened = false;
        let mut end_line = start_line;
        while j < tokens.len() {
            match tokens[j].text(text) {
                "{" => {
                    brace_depth += 1;
                    opened = true;
                }
                // A close brace before the body opened ends the enclosing
                // scope: treat like a bodyless signature.
                "}" if brace_depth == 0 => break,
                "}" => {
                    brace_depth -= 1;
                    if opened && brace_depth == 0 {
                        end_line = tokens[j].line;
                        break;
                    }
                }
                ";" if !opened => break,
                _ => {}
            }
            j += 1;
        }
        if opened {
            items.push((name, start_line, end_line));
            // Continue *inside* the body too: nested fns and closures may
            // define further named items.
            i = name_at + 1;
        } else {
            i = j + 1;
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("crates/x/src/lib.rs", src).unwrap()
    }

    #[test]
    fn cfg_test_modules_and_test_fns_are_test_regions() {
        let src = "\
pub fn real() -> u32 {
    1
}

#[cfg(test)]
mod tests {
    #[test]
    fn checks() {
        assert_eq!(super::real(), 1);
    }
}
";
        let f = file(src);
        assert!(!f.is_test_line(1));
        assert!(!f.is_test_line(2));
        assert!(f.is_test_line(5));
        assert!(f.is_test_line(9));
        assert!(f.is_test_line(11));

        let standalone = file("#[test]\nfn t() {\n    x();\n}\nfn real() {}\n");
        assert!(standalone.is_test_line(3));
        assert!(!standalone.is_test_line(5));

        // A braceless `#[cfg(test)] use …;` extends to its semicolon only.
        let braceless = file("#[cfg(test)]\nuse foo::bar;\nfn real() {}\n");
        assert!(braceless.is_test_line(2));
        assert!(!braceless.is_test_line(3));

        // `#[cfg(feature = \"test-utils\")]` is not a test marker: `test`
        // appears in a string, not as an identifier.
        let feature = file("#[cfg(feature = \"test-utils\")]\nfn real() {}\n");
        assert!(!feature.is_test_line(2));
    }

    #[test]
    fn allow_directives_cover_their_line_and_the_next() {
        let src = "\
// janus-lint: allow(nondeterminism) — justification here
use std::collections::HashMap;
use std::time::Instant; // janus-lint: allow(nondeterminism, float-cmp)
fn f() {}
";
        let f = file(src);
        assert!(f.allows("nondeterminism", 1));
        assert!(f.allows("nondeterminism", 2));
        assert!(f.allows("nondeterminism", 3));
        assert!(f.allows("float-cmp", 3));
        assert!(f.allows("float-cmp", 4));
        assert!(!f.allows("nondeterminism", 5));
        assert!(!f.allows("unwrap-discipline", 2));
    }

    #[test]
    fn item_ranges_cover_fn_and_macro_bodies() {
        let src = "\
fn outer(a: u32) -> u32 {
    let f = |x: u32| x + 1;
    f(a)
}

macro_rules! emit {
    ($x:expr) => {
        record($x)
    };
}

trait T {
    fn signature_only(&self);
}
";
        let f = file(src);
        assert_eq!(f.item_ranges("outer"), vec![(1, 4)]);
        assert_eq!(f.item_ranges("emit"), vec![(6, 10)]);
        assert!(f.item_ranges("signature_only").is_empty());
        assert!(f.item_ranges("missing").is_empty());
    }

    #[test]
    fn code_neighbours_skip_comments() {
        let src = "a /* mid */ == 1.0";
        let f = file(src);
        let eq = f
            .tokens
            .iter()
            .position(|t| t.text(&f.text) == "==")
            .unwrap();
        assert_eq!(f.token_text(f.prev_code(eq).unwrap()), "a");
        assert_eq!(f.token_text(f.next_code(eq).unwrap()), "1.0");
    }
}
