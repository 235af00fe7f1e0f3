//! The one written form of what the workspace persists: a JSON value, its
//! text and its parser.
//!
//! ```
//! use disar_math::json::Json;
//!
//! let row = Json::obj([("seed", 20160627u64.into()), ("secs", 0.1.into())]);
//! assert_eq!(row.to_string(), r#"{"secs":0.1,"seed":20160627}"#);
//! assert_eq!(Json::parse(&row.pretty()).unwrap(), row);
//! assert_eq!(row.uint_at::<u64>("seed"), Ok(20160627));
//! ```
//!
//! A type that reaches a file has an inherent `to_json` (and `from_json` when
//! something reads it back) written on these values; there is no trait to
//! implement and nothing to derive. Objects keep their keys sorted, so equal
//! values have equal compact text, which is what the registry's output digest
//! hashes. An `f64` is written as the shortest text that reads back to the
//! same bits, an integer that fits `u64` stays an integer, and a non-finite
//! number, which JSON cannot hold, is written as `null`. [`Json::parse`] takes
//! text from outside the program: it never panics and never recurses deeper
//! than [`MAX_DEPTH`].

use std::collections::BTreeMap;
use std::fmt;

/// Arrays and objects may nest this deep in a parsed text, and no deeper.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A non-negative integer without fraction or exponent that fits `u64`.
    UInt(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys sorted.
    Obj(BTreeMap<String, Json>),
}

/// Why a text is not JSON, or why a value is not what its reader needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// The text stops being JSON at byte `offset`: the parser needed `expected`.
    Syntax {
        offset: usize,
        expected: &'static str,
    },
    /// The value is not an object, or the object lacks this field.
    MissingField(String),
    /// The field `field` holds something other than `expected`.
    WrongType {
        field: String,
        expected: &'static str,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { offset, expected } => {
                write!(f, "not JSON at byte {offset}: expected {expected}")
            }
            JsonError::MissingField(field) => write!(f, "no field `{field}`"),
            JsonError::WrongType { field, expected } => {
                write!(f, "field `{field}` is not {expected}")
            }
        }
    }
}

impl std::error::Error for JsonError {}

type Parsed<T> = Result<T, JsonError>;

macro_rules! json_from {
    ($($from:ty => |$x:ident| $json:expr,)*) => {$(
        impl From<$from> for Json {
            fn from($x: $from) -> Self {
                $json
            }
        }
    )*};
}

json_from! {
    bool => |b| Json::Bool(b),
    u64 => |n| Json::UInt(n),
    u32 => |n| Json::UInt(n.into()),
    usize => |n| Json::UInt(n as u64),
    f64 => |x| Json::Num(x),
    &str => |s| Json::Str(s.to_string()),
}

impl Json {
    /// An object of the given fields.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An array of the given items.
    pub fn arr<T: Into<Json>>(items: impl IntoIterator<Item = T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The field `key`, or [`JsonError::MissingField`] when `self` is not an
    /// object that has it.
    pub fn at(&self, key: &str) -> Result<&Json, JsonError> {
        match self {
            Json::Obj(fields) => fields.get(key),
            _ => None,
        }
        .ok_or_else(|| JsonError::MissingField(key.to_string()))
    }

    /// The integer field `key`, as whichever unsigned type the reader stores;
    /// an error when it is missing, not an integer, or too large for `T`.
    pub fn uint_at<T: TryFrom<u64>>(&self, key: &str) -> Result<T, JsonError> {
        match self.at(key)? {
            Json::UInt(n) => T::try_from(*n).ok(),
            _ => None,
        }
        .ok_or_else(|| wrong_type(key, "an integer in range"))
    }

    /// The number field `key` (an integer counts), or an error.
    pub fn f64_at(&self, key: &str) -> Result<f64, JsonError> {
        match self.at(key)? {
            Json::UInt(n) => Ok(*n as f64),
            Json::Num(x) => Ok(*x),
            _ => Err(wrong_type(key, "a number")),
        }
    }

    /// The string field `key`, or an error.
    pub fn str_at(&self, key: &str) -> Result<&str, JsonError> {
        match self.at(key)? {
            Json::Str(s) => Ok(s),
            _ => Err(wrong_type(key, "a string")),
        }
    }

    /// The array field `key`, or an error.
    pub fn arr_at(&self, key: &str) -> Result<&[Json], JsonError> {
        match self.at(key)? {
            Json::Arr(items) => Ok(items),
            _ => Err(wrong_type(key, "an array")),
        }
    }

    /// The text on several lines, nested values indented by two spaces.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out, Some(0))
            .expect("writing to a String cannot fail");
        out
    }

    /// Reads one JSON value, with nothing but white space around it, or
    /// answers [`JsonError::Syntax`] where the text cannot continue one:
    /// malformed or truncated text, a key an object already has, a number no
    /// finite `f64` holds, a surrogate escape without its pair, nesting
    /// beyond [`MAX_DEPTH`], or anything after the value.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_white_space();
        if parser.pos < text.len() {
            return parser.fail("the end of the text");
        }
        Ok(value)
    }

    /// `indent`: the nesting level of an indented text, `None` for the compact.
    fn write_to(&self, out: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
        match self {
            Json::Bool(b) => write!(out, "{b}"),
            Json::UInt(n) => write!(out, "{n}"),
            // `{:?}` prints the shortest digits that parse back to the same bits.
            Json::Num(x) if x.is_finite() => write!(out, "{x:?}"),
            Json::Null | Json::Num(_) => out.write_str("null"),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_items(out, indent, ['[', ']'], items, |out, item, at| {
                item.write_to(out, at)
            }),
            Json::Obj(fields) => write_items(out, indent, ['{', '}'], fields, |out, (k, v), at| {
                write_string(out, k)?;
                out.write_str(if at.is_some() { ": " } else { ":" })?;
                v.write_to(out, at)
            }),
        }
    }
}

fn wrong_type(field: &str, expected: &'static str) -> JsonError {
    let field = field.to_string();
    JsonError::WrongType { field, expected }
}

/// The compact text: no white space, keys sorted.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f, None)
    }
}

fn write_items<W: fmt::Write, I: IntoIterator>(
    out: &mut W,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: I,
    mut write_item: impl FnMut(&mut W, I::Item, Option<usize>) -> fmt::Result,
) -> fmt::Result {
    let inner = indent.map(|level| level + 1);
    let mut any = false;
    out.write_char(open)?;
    for item in items {
        if any {
            out.write_char(',')?;
        }
        any = true;
        write_line_break(out, inner)?;
        write_item(out, item, inner)?;
    }
    if any {
        write_line_break(out, indent)?;
    }
    out.write_char(close)
}

/// In an indented text, a new line and two spaces per nesting level.
fn write_line_break(out: &mut impl fmt::Write, indent: Option<usize>) -> fmt::Result {
    indent.map_or(Ok(()), |level| write!(out, "\n{:1$}", "", 2 * level))
}

fn write_string(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            '\0'..='\x1f' => write!(out, "\\u{:04x}", u32::from(c))?,
            _ => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// A cursor over the text. `pos` only ever stops on an ASCII byte or at the
/// end, so it is always a character boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn fail<T>(&self, expected: &'static str) -> Parsed<T> {
        let offset = self.pos;
        Err(JsonError::Syntax { offset, expected })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        self.pos += usize::from(found);
        found
    }

    fn skip_white_space(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Parsed<Json> {
        self.skip_white_space();
        match self.peek() {
            Some(b'n') => self.word("null", Json::Null),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[' | b'{') if depth == MAX_DEPTH => self.fail("nesting no deeper than 128"),
            Some(b'[') => {
                let mut items = Vec::new();
                self.items(b']', |p| p.value(depth + 1).map(|item| items.push(item)))?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut fields = BTreeMap::new();
                self.items(b'}', |p| p.field(depth, &mut fields))?;
                Ok(Json::Obj(fields))
            }
            _ => self.fail("a value"),
        }
    }

    fn word(&mut self, word: &'static str, value: Json) -> Parsed<Json> {
        if !self.text[self.pos..].starts_with(word) {
            return self.fail("`null`, `true` or `false`");
        }
        self.pos += word.len();
        Ok(value)
    }

    /// What follows an opening bracket: `item`s between commas, up to `close`.
    fn items(&mut self, close: u8, mut item: impl FnMut(&mut Self) -> Parsed<()>) -> Parsed<()> {
        self.pos += 1;
        self.skip_white_space();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_white_space();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return self.fail("`,` or the closing bracket");
            }
        }
    }

    /// One `"key": value` of an object, which must not have the key yet.
    fn field(&mut self, depth: usize, fields: &mut BTreeMap<String, Json>) -> Parsed<()> {
        self.skip_white_space();
        if self.peek() != Some(b'"') {
            return self.fail("a string key");
        }
        let key = self.string()?;
        self.skip_white_space();
        if !self.eat(b':') {
            return self.fail("`:`");
        }
        if fields.insert(key, self.value(depth + 1)?).is_some() {
            return self.fail("a key the object does not have yet");
        }
        Ok(())
    }

    fn digits(&mut self) -> Parsed<()> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return self.fail("a digit");
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Parsed<Json> {
        let start = self.pos;
        let mut integer = !self.eat(b'-');
        if !self.eat(b'0') {
            self.digits()?;
        }
        if self.eat(b'.') {
            integer = false;
            self.digits()?;
        }
        if self.eat(b'e') || self.eat(b'E') {
            integer = false;
            let _ = self.eat(b'+') || self.eat(b'-');
            self.digits()?;
        }
        let text = &self.text[start..self.pos];
        if let (true, Ok(n)) = (integer, text.parse()) {
            return Ok(Json::UInt(n));
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            _ => self.fail("a number a finite f64 holds"),
        }
    }

    fn string(&mut self) -> Parsed<String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1F)) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            if self.eat(b'"') {
                return Ok(out);
            }
            if !self.eat(b'\\') {
                return self.fail("the closing `\"`, and no raw control character before it");
            }
            out.push(self.escape()?);
        }
    }

    /// The character after a backslash.
    fn escape(&mut self) -> Parsed<char> {
        let known = b"\"\\/bfnrtu";
        let escape = self
            .peek()
            .and_then(|byte| known.iter().position(|&e| e == byte));
        let Some(escape) = escape else {
            return self.fail("one of `\"\\/bfnrtu`");
        };
        self.pos += 1;
        match b"\"\\/\x08\x0c\n\r\t".get(escape) {
            Some(&unescaped) => Ok(char::from(unescaped)),
            None => self.unicode_escape(),
        }
    }

    /// The code point after `\u`: four hex digits, or a surrogate pair.
    fn unicode_escape(&mut self) -> Parsed<char> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            let paired = self.eat(b'\\') && self.eat(b'u');
            let low = if paired { self.hex4()? } else { 0 };
            if !(0xDC00..0xE000).contains(&low) {
                return self.fail("the low half of a surrogate pair");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).map_or_else(|| self.fail("a code point, not half a pair"), Ok)
    }

    fn hex4(&mut self) -> Parsed<u32> {
        let digits = self.text.get(self.pos..self.pos + 4);
        let digits = digits.filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()));
        let Some(code) = digits.and_then(|d| u32::from_str_radix(d, 16).ok()) else {
            return self.fail("four hex digits");
        };
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::cases;

    fn round_trip(value: &Json) -> Json {
        let compact = Json::parse(&value.to_string()).expect("compact text parses");
        let indented = Json::parse(&value.pretty()).expect("indented text parses");
        assert_eq!(compact, indented);
        compact
    }

    fn offset_of(text: &str) -> usize {
        match Json::parse(text) {
            Err(JsonError::Syntax { offset, .. }) => offset,
            other => panic!("{text:?} must be a syntax error, got {other:?}"),
        }
    }

    fn assert_same_bits(x: f64) {
        let Json::Num(back) = round_trip(&Json::Num(x)) else {
            panic!("{x:?} did not come back as a number");
        };
        assert_eq!(back.to_bits(), x.to_bits(), "{x:?}");
    }

    #[test]
    fn f64_round_trips_bit_for_bit() {
        let edge = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
            0.1,
            1.0 / 3.0,
            1e15,
            1e16,
            1e21,
            1e-7,
            123456789012345680.0,
        ];
        edge.into_iter().for_each(assert_same_bits);
        cases(256, |rng| {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                assert_same_bits(x);
            }
        });
    }

    #[test]
    fn integers_that_fit_u64_stay_integers() {
        for n in [0, 1, 20160627, 1 << 32, (1 << 53) + 1, u64::MAX] {
            assert_eq!(round_trip(&Json::UInt(n)), Json::UInt(n));
        }
        assert_eq!(
            Json::parse("18446744073709551615"),
            Ok(Json::UInt(u64::MAX))
        );
        // One more than u64::MAX, a negative integer and an exponent are numbers.
        assert_eq!(
            Json::parse("18446744073709551616"),
            Ok(Json::Num(18446744073709551616.0))
        );
        assert_eq!(Json::parse("-3"), Ok(Json::Num(-3.0)));
        assert_eq!(Json::parse("1e2"), Ok(Json::Num(100.0)));
        // A reader of a number takes an integer; a reader of an integer no fraction.
        let row = Json::parse(r#"{"secs": 120, "seed": 7.0}"#).unwrap();
        assert_eq!(row.f64_at("secs"), Ok(120.0));
        assert!(matches!(
            row.uint_at::<u64>("seed"),
            Err(JsonError::WrongType { .. })
        ));
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let row = Json::arr([f64::NAN, f64::INFINITY, 1.5]);
        assert_eq!(row.to_string(), "[null,null,1.5]");
    }

    #[test]
    fn strings_escape_and_unescape() {
        let text = "quote \" backslash \\ slash / newline \n tab \t bell \x07 nul \0 \u{e9} \u{65e5} \u{1F600}";
        let value = Json::from(text);
        assert_eq!(round_trip(&value), value);
        assert_eq!(
            Json::from("a\"b\\c\nd\x01").to_string(),
            "\"a\\\"b\\\\c\\nd\\u0001\""
        );
        // Every escape JSON has, and a surrogate pair.
        assert_eq!(
            Json::parse(r#""\"\\\/\b\f\n\r\té😀""#),
            Ok(Json::from("\"\\/\x08\x0c\n\r\t\u{e9}\u{1F600}"))
        );
    }

    #[test]
    fn compact_text_is_sorted_and_equal_for_equal_values() {
        let a = Json::obj([("p", 1u64.into()), ("q", Json::arr([2.5, 3.0]))]);
        let b = Json::obj([("q", Json::arr([2.5, 3.0])), ("p", 1u64.into())]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), r#"{"p":1,"q":[2.5,3.0]}"#);
        assert_eq!(a.to_string(), b.to_string());
        assert_eq!(
            a.pretty(),
            "{\n  \"p\": 1,\n  \"q\": [\n    2.5,\n    3.0\n  ]\n}"
        );
        let empty = Json::obj([("a", Json::Arr(vec![])), ("o", Json::obj::<&str>([]))]);
        assert_eq!(empty.pretty(), "{\n  \"a\": [],\n  \"o\": {}\n}");
        assert_eq!(round_trip(&empty), empty);
    }

    #[test]
    fn typed_reads_name_the_field() {
        let row = Json::parse(r#"{"name": "ibk", "n": 3, "ok": true, "xs": [1, 2]}"#).unwrap();
        assert_eq!(row.str_at("name"), Ok("ibk"));
        assert_eq!(row.uint_at::<u32>("n"), Ok(3));
        assert_eq!(row.at("ok"), Ok(&Json::Bool(true)));
        assert_eq!(row.arr_at("xs").unwrap().len(), 2);
        assert_eq!(
            row.str_at("nope"),
            Err(JsonError::MissingField("nope".into()))
        );
        assert_eq!(Json::Null.at("x"), Err(JsonError::MissingField("x".into())));
        let wrong = row.uint_at::<u8>("name").unwrap_err();
        assert_eq!(wrong.to_string(), "field `name` is not an integer in range");
        let too_large = Json::parse(r#"{"n": 256}"#).unwrap();
        assert!(too_large.uint_at::<u8>("n").is_err());
    }

    #[test]
    fn every_truncation_of_a_document_is_an_error() {
        let sample = r#"{"schema_version": 1, "records": [{"cost": 0.29, "tenant": "aé\n", "ok": [true, false, null], "n": -1.5e-3}]}"#;
        assert!(Json::parse(sample).is_ok());
        for cut in (0..sample.len()).filter(|&cut| sample.is_char_boundary(cut)) {
            let offset = offset_of(&sample[..cut]);
            assert!(offset <= cut, "cut {cut}: offset {offset}");
        }
    }

    #[test]
    fn malformed_texts_are_errors_with_an_offset() {
        let table: &[(&str, usize)] = &[
            ("", 0),
            ("   ", 3),
            (r#"{"a": 1, "a": 2}"#, 15),
            (r#""\uD83D""#, 7),
            (r#""\uD83DA""#, 7),
            (r#""\uDE00""#, 7),
            (r#""\u12G4""#, 3),
            (r#""\x""#, 2),
            ("1e999", 5),
            ("-1e999", 6),
            ("\"a\x01b\"", 2),
            ("\"a\nb\"", 2),
            ("1 2", 2),
            ("{} x", 3),
            ("[1,]", 3),
            ("[1 2]", 3),
            (r#"{"a" 1}"#, 5),
            (r#"{a: 1}"#, 1),
            (r#"{"a": 1,}"#, 8),
            ("01", 1),
            ("-", 1),
            ("1.", 2),
            ("1e", 2),
            (".5", 0),
            ("+1", 0),
            ("nul", 0),
            ("tru", 0),
            ("NaN", 0),
            ("'a'", 0),
        ];
        for &(text, offset) in table {
            assert_eq!(offset_of(text), offset, "{text:?}");
        }
    }

    #[test]
    fn nesting_is_capped_not_recursed() {
        let deep = "[".repeat(100_000);
        assert_eq!(offset_of(&deep), MAX_DEPTH);
        let deep = "{\"a\":".repeat(100_000);
        assert_eq!(offset_of(&deep), MAX_DEPTH * 5);
        let allowed = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&allowed).is_ok());
        let one_more = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert_eq!(offset_of(&one_more), MAX_DEPTH);
    }
}
