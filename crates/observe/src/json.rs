//! The workspace's one JSON value: the writer every results file,
//! postmortem bundle and Chrome trace goes through, and the reader the
//! gates and tests hold them against.
//!
//! The build is offline (no serde), so this is a plain tree. Objects keep
//! insertion order, unsigned integers are exact ([`Json::U64`]), and
//! [`Display`](fmt::Display) is the one compact writer. [`Json::parse`]
//! is a strict recursive-descent reader: it accepts exactly the JSON
//! grammar, no extensions, and refuses nesting deeper than 128 levels
//! with an `Err` instead of overflowing the stack.

use std::fmt::{self, Write as _};

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// deepest documents the workspace writes nest 6 deep
/// (`runtime_scaling.json`, `tenant.json`, and a postmortem bundle's
/// `rings.lanes[].events[]` entries); at 128 levels the parser's
/// recursion stays far inside a 2 MiB thread stack, even in a debug
/// build.
const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer, exact through `u64::MAX`.
    U64(u64),
    /// Any other number. Integral values print without a fraction; a
    /// non-finite one renders as `null`.
    F64(f64),
    /// A string, escaped on render.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, for builder-style construction.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("field() on a non-object"),
        }
        self
    }

    /// The first value under `key`, if `self` is an object holding one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if `self` is one.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The string, if `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if `self` is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Reads one complete JSON document. A non-negative integer literal
    /// that fits is a [`Json::U64`]; every other number is a
    /// [`Json::F64`], correctly rounded.
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser { s, i: 0 };
        let value = p.value(0)?;
        p.ws();
        if p.i == s.len() {
            Ok(value)
        } else {
            Err(format!("byte {}: trailing garbage", p.i))
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

fn escape(s: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(n) => write!(f, "{n}"),
            Json::F64(x) if x.is_finite() => write!(f, "{x}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => escape(s, f),
            Json::Arr(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Obj(fields) => {
                f.write_char('{')?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    escape(k, f)?;
                    write!(f, ":{v}")?;
                }
                f.write_char('}')
            }
        }
    }
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("byte {}: expected {:?}", self.i, c as char))
        }
    }

    fn lit(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("byte {}: expected {word}", self.i))
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0;
        for _ in 0..4 {
            let h = self.peek().ok_or("truncated \\u escape")?;
            let d = char::from(h)
                .to_digit(16)
                .ok_or_else(|| format!("byte {}: bad \\u digit", self.i))?;
            v = v * 16 + d;
            self.i += 1;
        }
        Ok(v)
    }

    /// The character of a `\u` escape whose `\u` is consumed: a UTF-16
    /// surrogate must pair with the escaped low half that follows it.
    fn unicode(&mut self) -> Result<char, String> {
        let at = self.i;
        let code = match self.hex4()? {
            hi @ 0xd800..=0xdbff if self.s[self.i..].starts_with("\\u") => {
                self.i += 2;
                match self.hex4()? {
                    lo @ 0xdc00..=0xdfff => 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00),
                    _ => return Err(format!("byte {at}: unpaired surrogate")),
                }
            }
            0xd800..=0xdfff => return Err(format!("byte {at}: unpaired surrogate")),
            c => c,
        };
        Ok(char::from_u32(code).expect("a scalar value outside the surrogates"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        // Unescaped text is copied a run at a time; a run ends on an
        // ASCII byte, so every slice falls on a char boundary.
        let mut run = self.i;
        loop {
            match self.peek().ok_or("unterminated string")? {
                b'"' => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    let e = self.peek().ok_or("truncated escape")?;
                    self.i += 1;
                    out.push(match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode()?,
                        _ => return Err(format!("byte {}: bad escape", self.i)),
                    });
                    run = self.i;
                }
                0x00..=0x1f => return Err(format!("byte {}: raw control char", self.i)),
                _ => self.i += 1,
            }
        }
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.i;
        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            Err(format!("byte {}: expected digit", self.i))
        } else {
            Ok(())
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        let mut unsigned_integer = true;
        if self.peek() == Some(b'-') {
            self.i += 1;
            unsigned_integer = false;
        }
        if self.peek() == Some(b'0') {
            self.i += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
            unsigned_integer = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
            unsigned_integer = false;
        }
        let text = &self.s[start..self.i];
        match text.parse() {
            Ok(n) if unsigned_integer => Ok(Json::U64(n)),
            _ => text
                .parse()
                .map(Json::F64)
                .map_err(|e| format!("byte {start}: {e}")),
        }
    }

    /// The comma-separated items of an array or object whose opening
    /// bracket is consumed, through the `close` bracket.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(items);
                }
                _ => return Err(format!("byte {}: expected , or {}", self.i, close as char)),
            }
        }
    }

    /// One value inside `depth` open arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "byte {}: nested deeper than {MAX_DEPTH} levels",
                self.i
            )),
            Some(b'{') => {
                self.i += 1;
                let field = |p: &mut Self| {
                    p.ws();
                    let key = p.string()?;
                    p.ws();
                    p.eat(b':')?;
                    Ok((key, p.value(depth + 1)?))
                };
                self.items(b'}', field).map(Json::Obj)
            }
            Some(b'[') => {
                self.i += 1;
                self.items(b']', |p| p.value(depth + 1)).map(Json::Arr)
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("byte {}: expected a JSON value", self.i)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn validator_accepts_and_rejects() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "{\"a\":[1,2,{\"b\":\"x\\n\"}],\"c\":true}",
            "  [ 0.25 , \"\\u00e9\" ] ",
        ] {
            assert!(Json::parse(ok).is_ok(), "{ok}");
        }
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "01",
            "1 2",
            "\"unterminated",
            "{'a':1}",
            "NaN",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn renders_compactly_with_escapes_and_exact_integers() {
        let j = Json::obj()
            .field("s", "a\"b\\c\nd\t\r\u{1}\u{7f}é")
            .field("n", 42u64)
            .field("f", 1.5)
            .field("whole", 3.0)
            .field("nan", f64::NAN)
            .field("arr", vec![Json::Bool(true), Json::Null]);
        let s = j.to_string();
        assert_eq!(
            s,
            "{\"s\":\"a\\\"b\\\\c\\nd\\t\\r\\u0001\u{7f}é\",\"n\":42,\"f\":1.5,\"whole\":3,\
             \"nan\":null,\"arr\":[true,null]}"
        );
        let back = Json::parse(&s).expect("well-formed");
        assert_eq!(
            back.get("s").and_then(Json::as_str),
            Some("a\"b\\c\nd\t\r\u{1}\u{7f}é")
        );
        assert_eq!(back.get("f").and_then(Json::as_f64), Some(1.5));
        assert!(matches!(back.get("nan"), Some(Json::Null)));
        assert_eq!(
            back.get("arr").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
        assert!(back.get("missing").is_none() && back.get("n").unwrap().get("n").is_none());
    }

    #[test]
    fn integer_literals_read_back_exactly() {
        match Json::parse("18446744073709551615") {
            Ok(Json::U64(n)) => assert_eq!(n, u64::MAX),
            other => panic!("{other:?}"),
        }
        // One past u64 is still a number, just not an exact one.
        assert!(matches!(
            Json::parse("18446744073709551616"),
            Ok(Json::F64(x)) if x == 18446744073709551616.0
        ));
        assert!(
            matches!(Json::parse("-0"), Ok(Json::F64(x)) if x.to_bits() == (-0.0f64).to_bits())
        );
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_halves_are_errors() {
        let s = Json::parse(r#""\ud83d\ude00 \u00e9\u20ac""#).unwrap();
        assert_eq!(s.as_str(), Some("😀 é€"));
        for bad in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\ud83d\ud83d""#,
            r#""\u12""#,
            r#""\u12g4""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let e = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(e.contains("nested deeper"), "{e}");
        assert!(Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        // Past the depth where the recursion used to abort the process.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    /// Characters a writer has to get right: quotes, backslashes, every
    /// escape, raw control bytes, DEL, and one-to-four-byte UTF-8.
    const TRICKY: &[char] = &[
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'a', ' ',
        'é', '€', '😀',
    ];

    /// Arbitrary [`Json`] trees, at most `depth` containers deep.
    struct AnyJson {
        depth: u32,
    }

    fn any_string(rng: &mut TestRng) -> String {
        let len = rng.bits() % 12;
        (0..len)
            .map(|_| match rng.bits() % 4 {
                0 => char::from_u32(rng.bits() as u32 % 0x11_0000).unwrap_or('\u{fffd}'),
                _ => TRICKY[(rng.bits() % TRICKY.len() as u64) as usize],
            })
            .collect()
    }

    impl Strategy for AnyJson {
        type Value = Json;

        fn generate(&self, rng: &mut TestRng) -> Json {
            let kinds = if self.depth == 0 { 6 } else { 8 };
            let inner = AnyJson {
                depth: self.depth.saturating_sub(1),
            };
            match rng.bits() % kinds {
                0 => Json::Null,
                1 => Json::Bool(rng.bits() & 1 == 1),
                2 => Json::U64(match rng.bits() % 4 {
                    0 => u64::MAX - rng.bits() % 3,
                    1 => (1 << 53) + rng.bits() % 3,
                    _ => rng.bits() >> (rng.bits() % 64),
                }),
                3 => Json::F64(match f64::from_bits(rng.bits()) {
                    x if x.is_finite() => x,
                    _ => -0.0,
                }),
                4 => Json::F64((rng.bits() % 2_000_001) as f64 / 1000.0 - 1000.0),
                5 => Json::Str(any_string(rng)),
                6 => Json::Arr((0..rng.bits() % 4).map(|_| inner.generate(rng)).collect()),
                _ => Json::Obj(
                    (0..rng.bits() % 4)
                        .map(|_| (any_string(rng), inner.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    /// `read` is what parsing `wrote`'s rendering must give back: every
    /// `U64` and string exact, every finite `F64` to the bit (an
    /// integral one may come back as a `U64` of the same value).
    fn same(wrote: &Json, read: &Json) -> bool {
        match (wrote, read) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::U64(a), Json::U64(b)) => a == b,
            (Json::F64(x), r) => r.as_f64().is_some_and(|y| y.to_bits() == x.to_bits()),
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same(x, y))
            }
            (Json::Obj(a), Json::Obj(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((ka, va), (kb, vb))| ka == kb && same(va, vb))
            }
            _ => false,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn rendering_then_parsing_gives_the_value_back(v in AnyJson { depth: 4 }) {
            let text = v.to_string();
            let back = Json::parse(&text);
            prop_assert!(
                back.as_ref().is_ok_and(|b| same(&v, b)),
                "{v:?} wrote {text} and read back {back:?}"
            );
            prop_assert_eq!(back.unwrap().to_string(), text);
        }

        #[test]
        fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..96)) {
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn arbitrary_json_like_text_never_panics(
            picks in proptest::collection::vec(any::<u64>(), 0..96),
        ) {
            const ALPHABET: &[u8] = b"{}[]\",:\\/ u0123456789abcdefABCDEF.eE+-truefalsenull\n\t";
            let text: String = picks
                .iter()
                .map(|&p| match p % 8 {
                    0 => char::from_u32((p >> 8) as u32 % 0x11_0000).unwrap_or('\u{0}'),
                    _ => char::from(ALPHABET[(p >> 8) as usize % ALPHABET.len()]),
                })
                .collect();
            let _ = Json::parse(&text);
        }
    }
}
