//! Integration tests: the linter against the real workspace, and a
//! SimRng-driven property test of the lexer.

use janus_lint::{
    compare_to_baseline, find_workspace_root, lex, lint_workspace, load_baseline, run_to_json,
    LintConfig, LintRegistry, TokenKind,
};
use janus_simcore::rng::SimRng;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    find_workspace_root(&manifest_dir).expect("workspace root above crates/lint")
}

/// The committed tree must lint clean against the committed baseline: every
/// finding is either inline-justified or covered by a burn-down entry. A
/// failure here means a change introduced a *new* violation (fix it or
/// justify it) or burned one down (tighten `specs/lint_baseline.json`).
#[test]
fn the_workspace_is_clean_against_the_committed_baseline() {
    let root = workspace_root();
    let registry = LintRegistry::with_builtins();
    let config = LintConfig::workspace_default();
    let run = lint_workspace(&root, &registry, &config).expect("workspace lints");
    assert!(run.files_scanned > 30, "scanned {}", run.files_scanned);
    assert_eq!(run.rules.len(), 6);
    let baseline = load_baseline(&root).expect("baseline decodes");
    let verdict = compare_to_baseline(&run.diagnostics, &baseline);
    assert!(
        verdict.regressions.is_empty(),
        "new lint violations over the baseline:\n{}",
        verdict
            .regressions
            .iter()
            .map(|(rule, path, current, allowed)| format!(
                "  {path}: {current}x {rule} (baseline tolerates {allowed})"
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Stale baseline entries are burn-down progress the committed file
    // must record; together with the check above this is `is_clean()`.
    assert!(
        verdict.improved.is_empty(),
        "baseline is stale; tighten these entries:\n{}",
        verdict
            .improved
            .iter()
            .map(|(rule, path, current, allowed)| format!(
                "  {path}: {rule} now {current}, baseline tolerates {allowed}"
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The artefact of the real run round-trips through the JSON layer.
    let doc = run_to_json(&run);
    let reparsed = janus_json::parse(&doc.to_pretty()).expect("artefact re-parses");
    let decoded = janus_lint::diagnostics_from_json(&reparsed).expect("artefact decodes");
    assert_eq!(decoded, run.diagnostics);
}

/// One generated token: its source text and the kind the lexer must give it.
fn gen_token(rng: &mut SimRng) -> (&'static str, TokenKind) {
    const IDENTS: &[&str] = &["foo", "x1", "_bar", "r#type", "some_long_name", "Vec"];
    const INTS: &[&str] = &["0", "42", "100000", "0xff", "1_000", "0b1010"];
    const FLOATS: &[&str] = &["1.5", "0.25", "123.456", "1e9", "2.5e-3", "7.0f64"];
    const STRS: &[&str] = &[
        "\"hello\"",
        "\"a b c\"",
        "\"esc \\\" quote\"",
        "r\"raw\"",
        "r#\"hash \" inside\"#",
        "\"\"",
    ];
    const CHARS: &[&str] = &["'a'", "'\\n'", "'\\''", "' '", "'0'"];
    const LIFETIMES: &[&str] = &["'a", "'static", "'de"];
    const PUNCTS: &[&str] = &[
        "+", "-", ";", "{", "}", "(", ")", "::", "->", "==", "!=", "..=", "<<=", "&&", ".", ",",
        "#", "!",
    ];
    const LINE_COMMENTS: &[&str] = &["// a line comment", "/// a doc comment"];
    const BLOCK_COMMENTS: &[&str] = &["/* block */", "/* nested /* inner */ outer */"];
    let pick = |rng: &mut SimRng, pool: &[&'static str]| {
        pool[(rng.next_u64() % pool.len() as u64) as usize]
    };
    match rng.next_u64() % 9 {
        0 => (pick(rng, IDENTS), TokenKind::Ident),
        1 => (pick(rng, INTS), TokenKind::Int),
        2 => (pick(rng, FLOATS), TokenKind::Float),
        3 => (pick(rng, STRS), TokenKind::Str),
        4 => (pick(rng, CHARS), TokenKind::Char),
        5 => (pick(rng, LIFETIMES), TokenKind::Lifetime),
        6 => (pick(rng, LINE_COMMENTS), TokenKind::LineComment),
        7 => (pick(rng, BLOCK_COMMENTS), TokenKind::BlockComment),
        _ => (pick(rng, PUNCTS), TokenKind::Punct),
    }
}

/// Property: any whitespace-separated stream of valid tokens lexes back to
/// exactly the generated sequence — same count, same kinds, same texts —
/// and every token's span reproduces its text. Seeded by SimRng, so a
/// failure reproduces from the printed round seed.
#[test]
fn lexer_round_trips_simrng_generated_token_streams() {
    let mut rng = SimRng::seed_from_u64(0x4a41_4e55_535f_4c54);
    for round in 0..64u64 {
        let mut round_rng = rng.fork(round);
        let count = 1 + (round_rng.next_u64() % 60) as usize;
        let mut expected: Vec<(&'static str, TokenKind)> = Vec::with_capacity(count);
        let mut source = String::new();
        for _ in 0..count {
            let (text, kind) = gen_token(&mut round_rng);
            source.push_str(text);
            // A line comment swallows everything to the newline; every other
            // pair of tokens is separated by a plain space.
            source.push(if kind == TokenKind::LineComment {
                '\n'
            } else {
                ' '
            });
            expected.push((text, kind));
        }
        let tokens = lex(&source).unwrap_or_else(|e| panic!("round {round}: lex failed: {e}"));
        assert_eq!(
            tokens.len(),
            expected.len(),
            "round {round}: token count for source:\n{source}"
        );
        for (token, (text, kind)) in tokens.iter().zip(&expected) {
            assert_eq!(
                token.text(&source),
                *text,
                "round {round}: span text for source:\n{source}"
            );
            assert_eq!(
                token.kind, *kind,
                "round {round}: kind of `{text}` in source:\n{source}"
            );
        }
    }
}
