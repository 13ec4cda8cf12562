//! Minimal JSON support: the one writer and parser every report uses.
//!
//! The build container has no registry access, so the workspace has no
//! serde. Every JSON document the workspace emits — profiles, serve
//! reports, audit logs, scan and bench rows — is built as a [`JsonValue`]
//! and rendered by its one [`Display`](fmt::Display) impl, so there is one
//! escape rule and one float rule:
//!
//! - strings escape `"`, `\` and every control character (as `\u00XX`);
//! - floats render in their shortest round-trip form, and NaN or an
//!   infinity (which JSON cannot express) renders as `null`.
//!
//! The parser accepts the full JSON grammar, so what this module writes it
//! reads back, and documents from any other JSON library parse too.

use core::fmt::{self, Write as _};

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer.
    Number(u64),
    /// A signed integer. The parser yields it only for negative numbers;
    /// non-negative integers parse as [`JsonValue::Number`].
    Int(i64),
    /// A float (parsed from any number with a fraction or exponent).
    Float(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object as (key, value) pairs in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An object with `fields` in the given order.
    pub fn object<'k>(fields: impl IntoIterator<Item = (&'k str, JsonValue)>) -> JsonValue {
        JsonValue::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

macro_rules! impl_from {
    ($($t:ty => |$v:ident| $value:expr),* $(,)?) => {$(
        impl From<$t> for JsonValue {
            fn from($v: $t) -> JsonValue {
                $value
            }
        }
    )*};
}

impl_from! {
    bool => |b| JsonValue::Bool(b),
    u8 => |n| JsonValue::Number(n.into()),
    u32 => |n| JsonValue::Number(n.into()),
    u64 => |n| JsonValue::Number(n),
    usize => |n| JsonValue::Number(n as u64),
    i64 => |n| JsonValue::Int(n),
    f64 => |x| JsonValue::Float(x),
    &str => |s| JsonValue::String(s.to_string()),
    String => |s| JsonValue::String(s),
}

/// `None` renders as `null`.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(value: Option<T>) -> JsonValue {
        value.map_or(JsonValue::Null, Into::into)
    }
}

/// Collects into an array.
impl<T: Into<JsonValue>> FromIterator<T> for JsonValue {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> JsonValue {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

/// Compact JSON: no whitespace, keys in stored order.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Number(n) => write!(f, "{n}"),
            JsonValue::Int(n) => write!(f, "{n}"),
            // `{:?}` is the shortest form that parses back to the same
            // f64, and it always keeps a fraction or an exponent, so the
            // value reads back as a float rather than an integer.
            JsonValue::Float(x) if x.is_finite() => write!(f, "{x:?}"),
            JsonValue::Float(_) => f.write_str("null"),
            JsonValue::String(s) => write_string(f, s),
            JsonValue::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            JsonValue::Object(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write_string(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if c.is_control() => write!(f, "\\u{:04x}", u32::from(c))?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// A JSON syntax error with a byte offset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document (no trailing garbage).
pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes `byte` if it is next.
    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        if found {
            self.pos += 1;
        }
        found
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(format!("expected {:?}", byte as char)))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(c) => Err(self.error(format!("unexpected character {:?}", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected {word}")))
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(JsonValue::Object(fields));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or '}' in object"));
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(JsonValue::Array(items));
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or ']' in array"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| self.error("invalid UTF-8 in string"));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let c = self.escape()?;
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                Some(c) if c < 0x20 => return Err(self.error("unescaped control character")),
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    /// Decodes one escape, positioned just after its backslash.
    fn escape(&mut self) -> Result<char, JsonError> {
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
                let mut code = self.hex4()?;
                if (0xd800..0xdc00).contains(&code) {
                    // A high surrogate must pair with an escaped low one.
                    if !(self.eat(b'\\') && self.eat(b'u')) {
                        return Err(self.error("unpaired surrogate escape"));
                    }
                    let low = self.hex4()?;
                    if !(0xdc00..0xe000).contains(&low) {
                        return Err(self.error("unpaired surrogate escape"));
                    }
                    code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                }
                return char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate escape"));
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let code = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .and_then(|d| u32::from_str_radix(std::str::from_utf8(d).ok()?, 16).ok())
            .ok_or_else(|| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Consumes one or more ASCII digits.
    fn digits(&mut self) -> Result<(), JsonError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a digit"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        let negative = self.eat(b'-');
        self.digits()?;
        let mut float = false;
        if self.eat(b'.') {
            float = true;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("number is ascii");
        let parsed = if float {
            raw.parse().map(JsonValue::Float).ok()
        } else if negative {
            raw.parse().map(JsonValue::Int).ok()
        } else {
            raw.parse().map(JsonValue::Number).ok()
        };
        parsed.ok_or_else(|| JsonError { offset: start, message: "integer out of range".into() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_profile_shaped_document() {
        let doc = r#"
        {
          "shared_sites": [ { "func": 1, "block": 2, "site": 3 } ],
          "faults_observed": 42
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("faults_observed").and_then(JsonValue::as_u64), Some(42));
        let sites = v.get("shared_sites").and_then(JsonValue::as_array).unwrap();
        assert_eq!(sites[0].get("func").and_then(JsonValue::as_u64), Some(1));
    }

    #[test]
    fn rejects_trailing_garbage_and_bad_syntax() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("not json").is_err());
        assert!(parse("-").is_err());
        assert!(parse("1.").is_err());
        assert!(parse("\"raw\ttab\"").is_err());
        assert!(parse("\"\\ud800\"").is_err());
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(parse("[]").unwrap(), JsonValue::Array(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Object(vec![]));
    }

    #[test]
    fn writes_one_escape_and_one_float_rule() {
        let doc = JsonValue::object([
            ("s", "q\"b\\n\nt\tc\u{1}".into()),
            ("f", 0.5.into()),
            ("whole", 4.0.into()),
            ("nan", f64::NAN.into()),
            ("inf", f64::NEG_INFINITY.into()),
            ("neg", (-3i64).into()),
            ("none", None::<u64>.into()),
            ("list", [1u64, 2].into_iter().collect()),
        ]);
        assert_eq!(
            doc.to_string(),
            concat!(
                r#"{"s":"q\"b\\n\u000at\u0009c\u0001","f":0.5,"whole":4.0,"#,
                r#""nan":null,"inf":null,"neg":-3,"none":null,"list":[1,2]}"#
            )
        );
    }

    #[test]
    fn parses_every_escape_and_number_form() {
        let v = parse(r#"["\"\\\/\b\f\n\r\t\u00e9\ud83e\udd80", -7, 1e3, 2.5E-1, true, null]"#);
        assert_eq!(
            v.unwrap(),
            JsonValue::Array(vec![
                "\"\\/\u{8}\u{c}\n\r\té🦀".into(),
                JsonValue::Int(-7),
                JsonValue::Float(1000.0),
                JsonValue::Float(0.25),
                JsonValue::Bool(true),
                JsonValue::Null,
            ])
        );
    }

    /// Random nested values for the round-trip property.
    struct Values {
        depth: u32,
    }

    impl Strategy for Values {
        type Value = JsonValue;

        fn generate(&self, rng: &mut TestRng) -> JsonValue {
            const CHARS: &[char] = &[
                'a', 'Z', '0', ' ', '"', '\\', '/', '\t', '\r', '\n', '\u{1}', '\u{7f}', 'é', '🦀',
            ];
            let string = |rng: &mut TestRng| -> String {
                (0..rng.below(6)).map(|_| CHARS[rng.below(CHARS.len() as u64) as usize]).collect()
            };
            let leaves = if self.depth == 0 { 8 } else { 10 };
            match rng.below(leaves) {
                0 => JsonValue::Null,
                1 => JsonValue::Bool(rng.next_u64() & 1 == 1),
                2 => JsonValue::Number(rng.next_u64()),
                3 => JsonValue::Int((i64::MIN..0).generate(rng)),
                4 => JsonValue::Float(f64::from_bits(rng.next_u64())),
                5 => JsonValue::Float(
                    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e300, 3.0]
                        [rng.below(6) as usize],
                ),
                6 | 7 => JsonValue::String(string(rng)),
                8 => {
                    let inner = Values { depth: self.depth - 1 };
                    (0..rng.below(4)).map(|_| inner.generate(rng)).collect()
                }
                _ => {
                    let inner = Values { depth: self.depth - 1 };
                    JsonValue::Object(
                        (0..rng.below(4)).map(|_| (string(rng), inner.generate(rng))).collect(),
                    )
                }
            }
        }
    }

    /// What a value reads back as: JSON has no NaN or infinities.
    fn expected(value: JsonValue) -> JsonValue {
        match value {
            JsonValue::Float(x) if !x.is_finite() => JsonValue::Null,
            JsonValue::Array(items) => JsonValue::Array(items.into_iter().map(expected).collect()),
            JsonValue::Object(fields) => {
                JsonValue::Object(fields.into_iter().map(|(k, v)| (k, expected(v))).collect())
            }
            other => other,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn written_values_parse_back_equal(value in Values { depth: 3 }) {
            let text = value.to_string();
            prop_assert!(!text.chars().any(char::is_control), "raw control character in {}", text);
            prop_assert_eq!(parse(&text).map_err(|e| e.to_string()), Ok(expected(value)), "{}", text);
        }
    }
}
