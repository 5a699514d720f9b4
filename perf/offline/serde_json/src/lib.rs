//! Offline stand-in for the `serde_json` calls this workspace makes:
//! `to_string`, `to_string_pretty`, `to_vec`, `from_str`, `from_slice`.
//!
//! Serialisation is the stand-in serde's direct JSON writer; this crate adds
//! the reader (a recursive-descent parser into [`Value`]) and the pretty
//! printer. The parser is total: any byte string yields `Ok` or `Err`,
//! never a panic, and nesting is capped so hostile input cannot overflow
//! the stack — the persist decoders are fuzzed on arbitrary bytes.

use serde::{Deserialize, Serialize};
pub use serde::{Error, Value};

pub type Result<T> = std::result::Result<T, Error>;

const MAX_DEPTH: usize = 128;

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out);
    Ok(out)
}

pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let tree: Value = from_str(&to_string(value)?)?;
    let mut out = String::new();
    pretty(&tree, 0, &mut out);
    Ok(out)
}

pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut p = Parser { bytes, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.error("trailing characters"));
    }
    T::from_value(value)
}

fn pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = |n: usize, out: &mut String| out.extend(std::iter::repeat_n(' ', 2 * n));
    match v {
        Value::Seq(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                pad(indent + 1, out);
                pretty(item, indent + 1, out);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(indent, out);
            out.push(']');
        }
        Value::Map(members) if !members.is_empty() => {
            out.push_str("{\n");
            for (i, (k, item)) in members.iter().enumerate() {
                pad(indent + 1, out);
                serde::write_str(k, out);
                out.push_str(": ");
                pretty(item, indent + 1, out);
                out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
            }
            pad(indent, out);
            out.push('}');
        }
        scalar_or_empty => scalar_or_empty.write_json(out),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value> {
        if depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Seq(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    if self.eat("]") {
                        return Ok(Value::Seq(items));
                    }
                    return Err(self.error("expected `,` or `]`"));
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Map(members));
                }
                loop {
                    self.skip_ws();
                    if self.bytes.get(self.pos) != Some(&b'"') {
                        return Err(self.error("expected a string key"));
                    }
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.error("expected `:`"));
                    }
                    members.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    if self.eat(",") {
                        continue;
                    }
                    if self.eat("}") {
                        return Ok(Value::Map(members));
                    }
                    return Err(self.error("expected `,` or `}`"));
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' | b'-' | b'+' => {}
                b'.' | b'e' | b'E' => float = true,
                _ => break,
            }
            self.pos += 1;
        }
        // The scanned run is ASCII by construction.
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        let parsed = if float {
            text.parse().ok().map(Value::F64)
        } else if text.starts_with('-') {
            text.parse().ok().map(Value::I64)
        } else {
            text.parse().ok().map(Value::U64)
        };
        // Integers too wide for 64 bits fall back to a float, as upstream does.
        parsed
            .or_else(|| text.parse().ok().map(Value::F64))
            .filter(|v| !matches!(v, Value::F64(f) if !f.is_finite()))
            .ok_or_else(|| {
                self.pos = start;
                self.error("invalid number")
            })
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|d| std::str::from_utf8(d).ok())
            .and_then(|d| u32::from_str_radix(d, 16).ok())
            .ok_or_else(|| self.error("invalid \\u escape"))?;
        self.pos += 4;
        Ok(digits)
    }

    fn string(&mut self) -> Result<String> {
        self.pos += 1; // opening quote
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one piece.
            let run = self.pos;
            while !matches!(self.bytes.get(self.pos), None | Some(b'"' | b'\\')) {
                if self.bytes[self.pos] < 0x20 {
                    return Err(self.error("control character in string"));
                }
                self.pos += 1;
            }
            let chunk = std::str::from_utf8(&self.bytes[run..self.pos])
                .map_err(|_| self.error("invalid UTF-8 in string"))?;
            out.push_str(chunk);
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    self.pos += 1;
                    let escape = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) {
                                if !self.eat("\\u") {
                                    return Err(self.error("lone surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.error("invalid surrogate pair"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid code point"))?,
                            );
                        }
                        _ => return Err(self.error("invalid escape")),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Dot,
        Circle(f64),
        Rect(f64, f64),
        Label { text: String, size: Option<u8> },
    }

    #[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
    struct Extra {
        level: u32,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Doc {
        id: u64,
        delta: i64,
        weights: Vec<f64>,
        shapes: Vec<Shape>,
        by_hour: BTreeMap<u64, f64>,
        pair: (u32, String),
        state: [u64; 4],
        note: Option<String>,
        #[serde(default)]
        extra: Extra,
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Wrapper(u64);

    fn doc() -> Doc {
        Doc {
            id: u64::MAX,
            delta: i64::MIN,
            weights: vec![0.1, -0.0, 1e300, 5e-324, 1.0, 0.1 + 0.2],
            shapes: vec![
                Shape::Dot,
                Shape::Circle(2.5),
                Shape::Rect(1.0, 2.0),
                Shape::Label {
                    text: "a \"quoted\"\n\\ line \u{1F600} \u{1}".into(),
                    size: None,
                },
            ],
            by_hour: [(3, 0.5), (7, 1.5)].into_iter().collect(),
            pair: (9, "x".into()),
            state: [1, 2, 3, u64::MAX],
            note: Some("n".into()),
            extra: Extra { level: 4 },
        }
    }

    #[test]
    fn round_trip_is_bit_exact_and_stable() {
        let d = doc();
        let json = to_string(&d).unwrap();
        let back: Doc = from_str(&json).unwrap();
        assert_eq!(back, d);
        for (a, b) in d.weights.iter().zip(&back.weights) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(to_string(&back).unwrap(), json);
        let pretty: Doc = from_str(&to_string_pretty(&d).unwrap()).unwrap();
        assert_eq!(pretty, d);
    }

    #[test]
    fn encodings_follow_upstream_shapes() {
        assert_eq!(to_string(&Shape::Dot).unwrap(), "\"Dot\"");
        assert_eq!(to_string(&Shape::Circle(1.0)).unwrap(), "{\"Circle\":1.0}");
        assert_eq!(
            to_string(&Shape::Rect(1.0, 2.0)).unwrap(),
            "{\"Rect\":[1.0,2.0]}"
        );
        assert_eq!(to_string(&Wrapper(7)).unwrap(), "7");
        assert_eq!(from_str::<Wrapper>("7").unwrap(), Wrapper(7));
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
    }

    #[test]
    fn missing_fields_follow_serde_rules() {
        let json = to_string(&doc()).unwrap();
        let tree: Value = from_str(&json).unwrap();
        let Value::Map(members) = tree else { panic!() };
        let without = |skip: &str| {
            let kept: Vec<_> = members.iter().filter(|(k, _)| k != skip).cloned().collect();
            to_string(&Value::Map(kept)).unwrap()
        };
        assert_eq!(
            from_str::<Doc>(&without("extra")).unwrap().extra,
            Extra::default()
        );
        assert_eq!(from_str::<Doc>(&without("note")).unwrap().note, None);
        assert!(from_str::<Doc>(&without("id")).is_err());
    }

    #[test]
    fn parser_is_total_on_garbage() {
        let inputs: [&[u8]; 10] = [
            b"",
            b"{",
            b"[1,",
            b"\"abc",
            b"{\"a\":}",
            b"nul",
            b"-",
            b"1e999",
            b"\"\\ud800\"",
            &[0xff, 0xfe, b'"'],
        ];
        for input in inputs {
            assert!(from_slice::<Value>(input).is_err(), "{input:?}");
        }
        let deep = "[".repeat(100_000);
        assert!(from_str::<Value>(&deep).is_err());
        assert!(from_str::<u8>("300").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert_eq!(
            from_str::<Value>(" [ 1 , -2 , 3.5 ] ").unwrap(),
            Value::Seq(vec![Value::U64(1), Value::I64(-2), Value::F64(3.5)])
        );
    }
}
