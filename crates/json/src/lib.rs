//! Minimal JSON reader/writer shared by every text artefact of the
//! workspace.
//!
//! Three kinds of documents cross a process boundary as text: the hints
//! bundle (§III-A "submitted to the adapter"), the experiment reports the
//! `janus` CLI writes with `--out` (`BENCH_*.json`), and the declarative
//! sweep specs it reads with `janus sweep <spec.json>`. The workspace
//! builds offline with no serialisation framework, so this crate implements
//! just enough of RFC 8259 for all of them: objects, arrays, finite numbers and escaped strings.
//!
//! The encoder is canonical: for any [`Value`] containing only finite
//! numbers, `parse(v.to_pretty())` reproduces `v` exactly and re-encoding
//! reproduces the byte-identical document (property-tested below). Non-finite
//! numbers encode as `null` (serde_json's choice), which a typed reader then
//! rejects with a clear error instead of producing an unparseable document.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Member lookup, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Member lookup that reports a missing key as an error.
    pub fn require(&self, key: &str) -> Result<&Value, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Serialise with two-space indentation (mirrors `to_string_pretty`).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    /// Serialise on a single line with no whitespace (mirrors `to_string`).
    /// Uses the same canonical number/string formatting as [`to_pretty`],
    /// so `parse(v.to_compact()) == parse(v.to_pretty())`. This is the
    /// encoder JSONL artefacts (one document per line) must use.
    ///
    /// [`to_pretty`]: Value::to_pretty
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        let pad_in = "  ".repeat(indent + 1);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) => write_number(out, *n),
            Value::Str(s) => write_string(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad_in);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push(']');
            }
            Value::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(&pad_in);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

/// Append the canonical JSON spelling of `n`: integral values below 1e15
/// as integers, everything else in Rust's shortest round-trip form,
/// non-finite values as `null`. Every number the workspace writes goes
/// through here, so hand-rolled encoders stay byte-identical to [`Value`].
pub fn write_number(out: &mut String, n: f64) {
    // JSON has no NaN/Infinity; encode them as null (serde_json's choice),
    // which a typed reader then rejects with a clear "not a number" error
    // instead of producing an unparseable document.
    if !n.is_finite() {
        out.push_str("null");
        return;
    }
    if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

/// Append `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters. The single source of string escaping, shared with
/// [`Value`]'s encoders.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a JSON document.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        text: input,
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.text.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    /// The validated input; `pos` always sits on a char boundary of it.
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consume byte `b` or fail naming what was found instead.
    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found `{:?}`",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, String> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("invalid number `{text}`: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            if self.pos + 4 > self.text.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or("non-ascii \\u escape")?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| format!("bad \\u escape: {e}"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for the hints
                            // artefact (workflow names are BMP text).
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one code point. The input is a `&str`, so it
                    // is already valid UTF-8: decoding the next char is
                    // O(1), not a re-validation of the rest of the document.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("invalid utf-8 in string at byte {}", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return Err(format!("expected `,` or `]`, found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(members));
                }
                other => return Err(format!("expected `,` or `}}`, found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_nested_document() {
        let doc = Value::Obj(vec![
            ("name".into(), Value::Str("IA \"quoted\"\n".into())),
            ("count".into(), Value::Num(3.0)),
            ("ratio".into(), Value::Num(0.25)),
            (
                "rows".into(),
                Value::Arr(vec![Value::Num(1.0), Value::Bool(true), Value::Null]),
            ),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        let text = doc.to_pretty();
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, doc);
    }

    #[test]
    fn compact_encoding_is_one_line_and_parses_back() {
        let doc = Value::Obj(vec![
            ("type".into(), Value::Str("arrival\n".into())),
            ("at_ms".into(), Value::Num(12.5)),
            (
                "rows".into(),
                Value::Arr(vec![Value::Num(1.0), Value::Bool(false), Value::Null]),
            ),
            ("empty".into(), Value::Arr(vec![])),
        ]);
        let line = doc.to_compact();
        assert!(!line.contains('\n'), "compact output must stay one line");
        assert_eq!(
            line,
            "{\"type\":\"arrival\\n\",\"at_ms\":12.5,\"rows\":[1,false,null],\"empty\":[]}"
        );
        assert_eq!(parse(&line).unwrap(), doc);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , -2.5e1 ] , \"b\" : \"x\\u0041\\t\" } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1],
            Value::Num(-25.0)
        );
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "xA\t");
    }

    #[test]
    fn multi_byte_utf8_and_escapes_round_trip() {
        // 2-, 3- and 4-byte code points next to every escape the encoder
        // emits, and next to the `\u` and `\/` forms only the parser reads.
        let text = "é ß λ | 中 € ✓ | 🦀 𝄞 | \" \\ \n \r \t \u{0001} \u{001f} | end";
        let doc = Value::Arr(vec![
            Value::Str(text.into()),
            Value::Obj(vec![(text.into(), Value::Str("🦀".into()))]),
        ]);
        for encoded in [doc.to_compact(), doc.to_pretty()] {
            assert_eq!(parse(&encoded).unwrap(), doc, "{encoded}");
        }
        let v = parse("\"a\\u00e9\\u4e2d\\/b\"").unwrap();
        assert_eq!(v.as_str(), Some("aé中/b"));
    }

    #[test]
    fn large_documents_parse_in_linear_time() {
        // Several hundred KB of small string-heavy objects. Decoding each
        // string character once used to re-validate the whole remaining
        // document, which took seconds here even in release builds.
        let row = |i: usize| {
            Value::Obj(vec![
                ("policy".into(), Value::Str(format!("janus-λ-{i}"))),
                ("type".into(), Value::Str("completion".into())),
                ("at_ms".into(), Value::Num(i as f64 * 0.5)),
            ])
        };
        let doc = Value::Arr((0..10_000).map(row).collect());
        let text = doc.to_compact();
        assert!(text.len() >= 512 * 1024, "only {} bytes", text.len());
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    mod properties {
        //! Seeded property tests: random documents must survive
        //! encode → decode → encode byte-identically. This is the contract
        //! spec decoding and `BENCH_*.json` read-back rely on.

        use super::*;
        use janus_simcore::rng::SimRng;

        /// Draw a random value. Depth-bounded so the documents stay small
        /// enough to generate thousands per test run.
        fn arbitrary_value(rng: &mut SimRng, depth: usize) -> Value {
            // `int_range` is inclusive; cap at the leaf kinds when the depth
            // budget is spent so nesting terminates.
            let max_kind = if depth == 0 { 3 } else { 5 };
            match rng.int_range(0, max_kind) {
                0 => Value::Null,
                1 => Value::Bool(rng.uniform() < 0.5),
                2 => arbitrary_number(rng),
                3 => Value::Str(arbitrary_string(rng)),
                4 => {
                    let len = rng.int_range(0, 5) as usize;
                    Value::Arr((0..len).map(|_| arbitrary_value(rng, depth - 1)).collect())
                }
                _ => {
                    let len = rng.int_range(0, 5) as usize;
                    Value::Obj(
                        (0..len)
                            .map(|_| (arbitrary_string(rng), arbitrary_value(rng, depth - 1)))
                            .collect(),
                    )
                }
            }
        }

        /// Finite numbers across the shapes the encoder special-cases:
        /// small integers, large integers near the 1e15 integer-formatting
        /// cutoff, and fractional/scientific values.
        fn arbitrary_number(rng: &mut SimRng) -> Value {
            let n = match rng.int_range(0, 4) {
                0 => rng.int_range(0, 2000) as f64 - 1000.0,
                1 => (rng.uniform() - 0.5) * 1e16,
                2 => rng.uniform_range(-1.0, 1.0),
                _ => rng.lognormal(0.0, 5.0),
            };
            debug_assert!(n.is_finite());
            Value::Num(n)
        }

        /// Strings exercising escapes, control characters and multi-byte
        /// UTF-8.
        fn arbitrary_string(rng: &mut SimRng) -> String {
            const ALPHABET: &[char] = &[
                'a', 'b', 'z', 'A', '0', '9', ' ', '_', '-', '.', '"', '\\', '/', '\n', '\r', '\t',
                '\u{0001}', '\u{001f}', 'é', 'λ', '中', '🦀',
            ];
            let len = rng.int_range(0, 12) as usize;
            (0..len).map(|_| *rng.choose(ALPHABET)).collect()
        }

        #[test]
        fn encode_decode_encode_round_trips_byte_identically() {
            let mut rng = SimRng::seed_from_u64(0x8259);
            for case in 0..2000 {
                let value = arbitrary_value(&mut rng, 3);
                let first = value.to_pretty();
                let reparsed = parse(&first)
                    .unwrap_or_else(|e| panic!("case {case}: emitted invalid JSON ({e}): {first}"));
                assert_eq!(reparsed, value, "case {case}: decode changed the value");
                let second = reparsed.to_pretty();
                assert_eq!(
                    first, second,
                    "case {case}: re-encoding was not byte-identical"
                );
                let compact = value.to_compact();
                let from_compact = parse(&compact).unwrap_or_else(|e| {
                    panic!("case {case}: compact emitted invalid JSON ({e}): {compact}")
                });
                assert_eq!(
                    from_compact, value,
                    "case {case}: compact decode changed the value"
                );
            }
        }

        #[test]
        fn non_finite_numbers_degrade_to_null_and_stay_stable() {
            // NaN/Infinity have no JSON spelling; they encode as null, and
            // the re-encoded document (now genuinely null) is stable.
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let doc = Value::Arr(vec![Value::Num(bad), Value::Num(1.0)]).to_pretty();
                let parsed = parse(&doc).unwrap();
                assert_eq!(parsed, Value::Arr(vec![Value::Null, Value::Num(1.0)]));
                assert_eq!(parsed.to_pretty(), doc);
            }
        }
    }
}
