//! A minimal JSON value: recursive-descent parser and canonical writer.
//!
//! The DTOs in this crate serialize through [`Json`] rather than serde —
//! the build environment vendors serde as a no-op marker crate (see
//! `vendor/serde`), so the wire format is hand-rolled here, exactly like
//! the client payload in `gvdb-core::json`. The writer is canonical
//! (objects keep insertion order, no whitespace, shortest float
//! representation), which is what makes DTO round-trips byte-stable.
//!
//! Integers and floats are kept apart ([`Json::Int`] vs [`Json::Float`]):
//! row and session ids are `u64`-precise and must not round-trip through
//! an `f64` mantissa.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fractional part or exponent (id-safe).
    Int(i64),
    /// An integer above `i64::MAX` (the top half of the `u64` id space —
    /// hashed node ids land here).
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key–value list (no key dedup — the writer
    /// never emits duplicates, the reader takes the first match).
    Obj(Vec<(String, Json)>),
}

/// The member [`Json::parse_keeping`] validated in place, if any: the
/// index of its key in `keys` and its raw text.
pub type Kept<'t> = Option<(usize, &'t str)>;

impl Json {
    /// Parse one JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        Parser::new(text).document(&[])
    }

    /// [`Json::parse`], except that the first member of a top-level
    /// object whose key is one of `keys` is **validated in place** instead
    /// of built: it is checked against the same grammar (the same
    /// escapes, surrogate rules and number acceptance, so exactly the
    /// documents [`Json::parse`] accepts are accepted), left out of the
    /// returned tree and returned as a slice of `text`, byte for byte,
    /// with the index of its key in `keys`. Later members under any of
    /// `keys` are validated the same way and dropped. Row
    /// frames use this to hand their graph payload (or packed image)
    /// through without building a tree for it and printing it back.
    pub fn parse_keeping<'t>(text: &'t str, keys: &[&str]) -> Result<(Json, Kept<'t>), String> {
        let mut p = Parser::new(text);
        let value = p.document(keys)?;
        Ok((
            value,
            p.kept.map(|(key, start, end)| (key, &text[start..end])),
        ))
    }

    /// Member `key` of an object (None for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64` (integers only; negatives don't convert).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            Json::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// An integer value, choosing the variant that holds it exactly.
    pub fn uint(v: u64) -> Json {
        match i64::try_from(v) {
            Ok(small) => Json::Int(small),
            Err(_) => Json::UInt(v),
        }
    }

    /// The value as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as `f64` (every number variant converts).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::UInt(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialize canonically into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Float(v) => write_f64(*v, out),
            Json::Str(s) => {
                out.push('"');
                escape_into(s, out);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    escape_into(k, out);
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Shortest-round-trip float formatting; non-finite values (which JSON
/// cannot carry) degrade to `null`.
pub(crate) fn write_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let text = format!("{v}");
        // `{}` prints integral floats without a dot; keep the float-ness
        // visible so a reparse lands in the same variant.
        let needs_marker = !text.contains(['.', 'e', 'E']);
        out.push_str(&text);
        if needs_marker {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

/// JSON string escaping (quote, backslash, control characters). Runs
/// that need no escape are copied as whole slices; every byte that needs
/// one is ASCII, so the runs split on char boundaries.
pub fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1F => "",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        run = i + 1;
        if short.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xF)] as char);
        } else {
            out.push_str(short);
        }
    }
    out.push_str(&s[run..]);
}

/// Length of the longest prefix of `bytes` free of `"`, `\\` and
/// control bytes — what a string literal may hold unescaped. Eight bytes
/// are tested at a time: `quote`/`slash` zero exactly the matching bytes,
/// and the has-zero / has-less-than word tests are exact about whether
/// a word holds any match, so only the word that does is rescanned
/// bytewise.
fn plain_run(bytes: &[u8]) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let special = |b: u8| b == b'"' || b == b'\\' || b < 0x20;
    let mut words = bytes.chunks_exact(8);
    let mut run = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        let (quote, slash) = (w ^ (ONES * u64::from(b'"')), w ^ (ONES * u64::from(b'\\')));
        let zero = |x: u64| x.wrapping_sub(ONES) & !x & HIGH;
        let control = w.wrapping_sub(ONES * 0x20) & !w & HIGH;
        if zero(quote) | zero(slash) | control != 0 {
            return run
                + word
                    .iter()
                    .position(|&b| special(b))
                    .expect("word holds a match");
        }
        run += 8;
    }
    let rest = words.remainder();
    run + rest.iter().position(|&b| special(b)).unwrap_or(rest.len())
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Key index and byte range of the member [`Json::parse_keeping`]
    /// validated in place.
    kept: Option<(usize, usize, usize)>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            kept: None,
        }
    }

    /// One whole document; a top-level object's first member under one
    /// of `keep` is validated in place (see [`Json::parse_keeping`]).
    fn document(&mut self, keep: &[&str]) -> Result<Json, String> {
        self.skip_ws();
        let value = if self.peek() == Some(b'{') {
            self.object(keep)?
        } else {
            self.value()?
        };
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing bytes at offset {}", self.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq(b'[', b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => self.object(&[]),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte 0x{other:02x} at offset {}",
                self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    /// [`Parser::value`] without building anything: the same grammar,
    /// checks and errors, with strings validated in place and numbers
    /// held to the same acceptance.
    fn skip_value(&mut self) -> Result<(), String> {
        match self.peek() {
            Some(b'"') => self.string_into(None),
            Some(b'[') => self.seq(b'[', b']', Self::skip_value),
            Some(b'{') => self.seq(b'{', b'}', |p| {
                p.string_into(None)?;
                p.colon()?;
                p.skip_value()
            }),
            Some(b'-' | b'0'..=b'9') => {
                let (text, start, is_float) = self.number_token();
                // An integer token (`-`? digit*) always lands in Int, UInt
                // or, past u64, Float — except a bare `-`.
                if is_float || text == "-" {
                    text.parse::<f64>()
                        .map_err(|_| invalid_number(text, start))?;
                }
                Ok(())
            }
            // Literals allocate nothing; errors are worded the same.
            _ => self.value().map(drop),
        }
    }

    /// The bracketed list shape shared by arrays and objects: `open`,
    /// zero or more comma-separated `item`s, `close`.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected ',' or '{}' at offset {}",
                        close as char, self.pos
                    ))
                }
            }
        }
    }

    /// An object; its members under `keep` are validated in place, not
    /// built, and the first one's range is recorded.
    fn object(&mut self, keep: &[&str]) -> Result<Json, String> {
        let mut members = Vec::new();
        self.seq(b'{', b'}', |p| {
            let key = p.string()?;
            p.colon()?;
            if let Some(idx) = keep.iter().position(|k| *k == key) {
                let start = p.pos;
                p.skip_value()?;
                p.kept.get_or_insert((idx, start, p.pos));
            } else {
                members.push((key, p.value()?));
            }
            Ok(())
        })?;
        Ok(Json::Obj(members))
    }

    /// The `:` between an object key and its value.
    fn colon(&mut self) -> Result<(), String> {
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(())
    }

    fn string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        self.string_into(Some(&mut out))?;
        Ok(out)
    }

    /// One string literal, unescaped into `out` (`None` validates it
    /// without copying).
    fn string_into(&mut self, mut out: Option<&mut String>) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            let start = self.pos;
            // Fast path: the maximal escape-free run as one slice. It
            // starts and ends next to ASCII bytes, so on char boundaries.
            self.pos += plain_run(&self.bytes[start..]);
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.text[start..self.pos]);
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    if let Some(out) = out.as_deref_mut() {
                        out.push(c);
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    /// The character one escape sequence stands for (the backslash is
    /// already consumed).
    fn escape(&mut self) -> Result<char, String> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let cp = self.hex4()?;
                // Surrogate pair: a high surrogate must be followed by an
                // escaped low surrogate.
                let c = if (0xD800..0xDC00).contains(&cp) {
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        let combined =
                            0x10000 + ((cp - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF);
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(cp)
                };
                // hex4 already advanced past the digits.
                return c
                    .ok_or_else(|| format!("invalid \\u escape ending at offset {}", self.pos));
            }
            _ => return Err(format!("bad escape at offset {}", self.pos)),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let digits = self.text.get(self.pos..end).ok_or("truncated \\u escape")?;
        let cp = u32::from_str_radix(digits, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end;
        Ok(cp)
    }

    /// Scan one number token: its text, start offset and whether it has
    /// a fraction, exponent or inner sign.
    fn number_token(&mut self) -> (&'a str, usize, bool) {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        (&self.text[start..self.pos], start, is_float)
    }

    fn number(&mut self) -> Result<Json, String> {
        let (text, start, is_float) = self.number_token();
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
            // i64 overflow: the top half of the u64 id space.
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| invalid_number(text, start))
    }
}

fn invalid_number(text: &str, start: usize) -> String {
    format!("invalid number '{text}' at offset {start}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(text: &str) -> String {
        Json::parse(text).expect(text).to_string()
    }

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(roundtrip("null"), "null");
        assert_eq!(roundtrip("true"), "true");
        assert_eq!(roundtrip("false"), "false");
        assert_eq!(roundtrip("42"), "42");
        assert_eq!(roundtrip("-7"), "-7");
        assert_eq!(roundtrip("1.5"), "1.5");
        assert_eq!(roundtrip("\"hi\""), "\"hi\"");
    }

    #[test]
    fn ids_keep_u64_precision() {
        // RowId::to_u64 packs page<<16|slot: must not pass through f64.
        let big = (1u64 << 60) - 3;
        let v = Json::parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        // The top half of the u64 space (hashed ids) overflows i64 and
        // must land in the UInt variant, not degrade to a float.
        let huge = u64::MAX - 5;
        let v = Json::parse(&huge.to_string()).unwrap();
        assert_eq!(v, Json::UInt(huge));
        assert_eq!(v.as_u64(), Some(huge));
        assert_eq!(v.to_string(), huge.to_string());
        assert_eq!(Json::uint(huge), Json::UInt(huge));
        assert_eq!(Json::uint(big), Json::Int(big as i64));
    }

    #[test]
    fn nested_structures_roundtrip() {
        let text =
            r#"{"op":"window","window":{"min_x":-1.5,"max_x":3.0},"ids":[1,2,3],"tag":null}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("op").and_then(Json::as_str), Some("window"));
        assert_eq!(
            v.get("window")
                .and_then(|w| w.get("min_x"))
                .and_then(Json::as_f64),
            Some(-1.5)
        );
        assert_eq!(
            v.get("ids").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        // Canonical output reparses to the same tree.
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let v = Json::parse("3.0").unwrap();
        assert_eq!(v, Json::Float(3.0));
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v, "reparse of {text}");
    }

    #[test]
    fn escapes_roundtrip() {
        let original = Json::Str("a \"quote\", a \\ slash,\na tab\t, a nul \u{1} and a 😀".into());
        let text = original.to_string();
        assert_eq!(Json::parse(&text).unwrap(), original);
        // Escaped input parses to the unescaped value.
        let v = Json::parse(r#""Aé😀\t""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé😀\t"));
    }

    #[test]
    fn garbage_is_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"open",
            "{\"a\" 1}",
            "01a",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// `text` as the `graph` member of an otherwise valid rows frame.
    fn in_graph_member(text: &str) -> String {
        format!("{{\"frame\":\"rows\",\"nodes\":0,\"edges\":0,\"graph\":{text},\"reused\":false}}")
    }

    #[test]
    fn keeping_a_member_accepts_exactly_what_parse_accepts() {
        let rejected = [
            // The `garbage_is_rejected` corpus.
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "\"open",
            "{\"a\" 1}",
            "01a",
            // Numbers.
            "1.2.3",
            "-",
            "1e",
            "1e+",
            "--1",
            "1-2",
            "[-]",
            "{\"x\":-}",
            ".5",
            "+1",
            // Strings: lone and unpaired surrogates, bad escapes, raw
            // control bytes.
            "\"\\ud800\"",
            "\"\\ud800x\"",
            "\"\\udc00\"",
            "\"\\ud83d\\u12\"",
            "\"\\x41\"",
            "\"\\u12g4\"",
            "\"\\u12\"",
            "\"\\",
            "\"a\u{1}b\"",
            "\"tab\there\"",
            "\"new\nline\"",
            // Truncations and unbalanced brackets.
            "{\"nodes\":[{\"id\":1,\"label\":\"a\"",
            "{\"nodes\":[],\"edges\":[]",
            "{\"nodes\":[]]}",
            "[[1]",
            "[1]]",
            "{\"a\":1,}",
            "[1,]",
            "{,}",
            "{\"a\":1 \"b\":2}",
            "{1:2}",
            "nul",
            "falsey",
        ];
        for bad in rejected {
            let doc = in_graph_member(bad);
            assert!(Json::parse(&doc).is_err(), "parse accepted {doc:?}");
            assert!(
                Json::parse_keeping(&doc, &["graph"]).is_err(),
                "parse_keeping accepted {doc:?}"
            );
            // The bare value, kept as a member of a one-member object.
            let bare = format!("{{\"graph\":{bad}}}");
            assert!(Json::parse_keeping(&bare, &["graph"]).is_err(), "{bare:?}");
        }
        let accepted = [
            "null",
            "true",
            "-0",
            "01",
            "1.",
            "-1.5e+3",
            "1E-2",
            "1e400",
            "18446744073709551615",
            "-99999999999999999999",
            "\"\\ud83d\\ude00\"",
            // The escape decoder pairs a high surrogate with any \u escape.
            "\"\\ud800\\u0041\"",
            // `from_str_radix` takes a leading `+`.
            "\"\\u+041\"",
            "\"\\\"\\\\\\/\\b\\f\\n\\r\\t é😀\"",
            " [ 1 , { \"a\" : [ ] } ] ",
            "{\"nodes\":[{\"id\":1,\"label\":\"],\\\"edges\\\":[\",\"x\":-1.0}],\"edges\":[]}",
        ];
        for good in accepted {
            let doc = in_graph_member(good);
            let full = Json::parse(&doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
            let (tree, kept) = Json::parse_keeping(&doc, &["graph"]).unwrap();
            let kept = kept.map(|(_, slice)| slice);
            assert_eq!(kept, Some(good.trim()), "{doc:?}");
            // The kept member reparses to what the full tree holds.
            assert_eq!(
                Json::parse(kept.unwrap()).as_ref(),
                Ok(full.get("graph").unwrap())
            );
            // ... and the rest of the tree is unchanged, minus the member.
            let Json::Obj(mut members) = full else {
                unreachable!()
            };
            members.retain(|(k, _)| k != "graph");
            assert_eq!(tree, Json::Obj(members));
        }
    }

    #[test]
    fn keeping_takes_the_first_top_level_member_only() {
        let doc = r#"{"a":{"graph":1},"graph":[2],"graph":[3]}"#;
        let (tree, kept) = Json::parse_keeping(doc, &["graph"]).unwrap();
        assert_eq!(kept, Some((0, "[2]")));
        assert_eq!(tree, Json::parse(r#"{"a":{"graph":1}}"#).unwrap());
        // Not an object, or no such member: nothing is kept.
        assert_eq!(Json::parse_keeping("[1]", &["graph"]).unwrap().1, None);
        assert_eq!(
            Json::parse_keeping("{\"b\":1}", &["graph"]).unwrap().1,
            None
        );
        // Errors are worded as parse words them.
        for bad in [
            "{\"graph\":[1,}",
            "{\"graph\":\"\\q\"}",
            "{\"graph\":1.2.3}",
        ] {
            assert_eq!(
                Json::parse_keeping(bad, &["graph"]).unwrap_err(),
                Json::parse(bad).unwrap_err()
            );
        }
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : true } ").unwrap();
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
    }
}
