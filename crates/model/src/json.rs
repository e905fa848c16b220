//! A small JSON codec: value tree, strict parser, compact and pretty
//! printers, and the [`json_struct!`](crate::json_struct) /
//! [`json_unit_enum!`](crate::json_unit_enum) field tables that give a type
//! its encoder and decoder.
//!
//! It sits next to the binary checkpoint codecs because `model` is the
//! lowest crate that the wire protocol (`serve`), the fleet router and the
//! experiment reports (`pipeline`) all depend on. The parser is the trust
//! boundary for bytes arriving over TCP, so it is strict: trailing bytes,
//! unknown escapes, lone surrogates, control characters inside strings,
//! leading zeros and nesting deeper than `MAX_DEPTH` are all rejected with
//! a [`JsonError`], never a panic. Non-negative integers that fit a `u64`
//! are kept exact ([`Value::UInt`]) — a sampling seed must not round-trip
//! through `f64`.
//!
//! # Example
//!
//! ```
//! use chipalign_model::json;
//!
//! let seed: u64 = json::from_str("18446744073709551615").unwrap();
//! assert_eq!(seed, u64::MAX);
//! let tags: Vec<String> = json::from_str(r#"["a","b"]"#).unwrap();
//! assert_eq!(json::to_string(&tags), r#"["a","b"]"#);
//! assert!(json::from_str::<Vec<u64>>("[1] trailing").is_err());
//! ```

use std::fmt::{self, Write as _};

/// Deepest array/object nesting `parse` accepts, so hostile input cannot
/// overflow the parser's (or a later `Drop`'s) stack.
pub(crate) const MAX_DEPTH: usize = 128;

/// An owned JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal that fits a `u64`, kept exact.
    UInt(u64),
    /// Any other number. Non-finite values print as `null`.
    Float(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; members keep insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Two-space-indented JSON.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        write_value(self, Some(0), &mut out);
        out
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "a boolean",
            Value::UInt(_) | Value::Float(_) => "a number",
            Value::String(_) => "a string",
            Value::Array(_) => "an array",
            Value::Object(_) => "an object",
        }
    }
}

impl fmt::Display for Value {
    /// Compact JSON: `"key":value`, no spaces.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_value(self, None, &mut out);
        f.write_str(&out)
    }
}

/// Why a document did not parse, or did not fit the requested type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl JsonError {
    /// An error carrying `detail`.
    #[must_use]
    pub fn new(detail: impl Into<String>) -> Self {
        JsonError(detail.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

/// Compact JSON for `value`.
#[must_use]
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    let mut out = String::new();
    write_value(&value.to_json(), None, &mut out);
    out
}

/// Parses `text` and decodes it as a `T`.
///
/// # Errors
///
/// Returns [`JsonError`] for malformed JSON or a document of the wrong
/// shape for `T`.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&parse(text)?)
}

// ---------------------------------------------------------------- printers

/// `indent` is `None` for compact output, or the current depth for pretty
/// output.
fn write_value(v: &Value, indent: Option<usize>, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(x) if x.is_finite() => {
            // `Debug` prints the shortest decimal that round-trips, always
            // with a `.0` or an exponent: valid JSON.
            let _ = write!(out, "{x:?}");
        }
        Value::Float(_) => out.push_str("null"),
        Value::String(s) => write_string(s, out),
        Value::Array(items) => write_seq(out, indent, ['[', ']'], items, |item, inner, out| {
            write_value(item, inner, out);
        }),
        Value::Object(members) => {
            write_seq(
                out,
                indent,
                ['{', '}'],
                members,
                |(key, item), inner, out| {
                    write_string(key, out);
                    out.push_str(if inner.is_some() { ": " } else { ":" });
                    write_value(item, inner, out);
                },
            );
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    [open, close]: [char; 2],
    items: &[T],
    mut write_item: impl FnMut(&T, Option<usize>, &mut String),
) {
    let inner = indent.map(|depth| depth + 1);
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(out, inner);
        write_item(item, inner, out);
    }
    if !items.is_empty() {
        newline(out, indent);
    }
    out.push(close);
}

fn newline(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_string(s: &str, out: &mut String) {
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

// ------------------------------------------------------------------ parser

/// Parses one JSON document (RFC 8259), rejecting anything after it but
/// whitespace.
///
/// # Errors
///
/// Returns [`JsonError`] naming the byte offset of the first violation.
pub(crate) fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        src: text.as_bytes(),
        pos: 0,
    };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> JsonError {
        JsonError(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let hit = self.src[self.pos..].starts_with(literal.as_bytes());
        if hit {
            self.pos += literal.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.items("]", |p| p.value(depth + 1)).map(Value::Array),
            Some(b'{') => self.items("}", |p| p.member(depth + 1)).map(Value::Object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a value")),
        }
    }

    /// The comma-separated items of an array or object up to `close`; `pos`
    /// is on the opening bracket.
    fn items<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, JsonError>,
    ) -> Result<Vec<T>, JsonError> {
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(",") {
                return Err(self.err("expected `,` or a closing bracket"));
            }
        }
    }

    fn member(&mut self, depth: usize) -> Result<(String, Value), JsonError> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string key"));
        }
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(":") {
            return Err(self.err("expected `:`"));
        }
        Ok((key, self.value(depth)?))
    }

    fn digits(&mut self) -> usize {
        let from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - from
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        let negative = self.eat("-");
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.src[self.pos - int_digits] == b'0') {
            return Err(self.err("invalid number"));
        }
        let mut integral = !negative;
        if self.eat(".") {
            integral = false;
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        if self.eat("e") || self.eat("E") {
            integral = false;
            let _ = self.eat("+") || self.eat("-");
            if self.digits() == 0 {
                return Err(self.err("invalid number"));
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii digits");
        if integral {
            if let Ok(n) = text.parse() {
                return Ok(Value::UInt(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Value::Float(x)),
            _ => Err(self.err("number out of range")),
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        let text = std::str::from_utf8(digits).expect("ascii hex digits");
        self.pos += 4;
        Ok(u32::from_str_radix(text, 16).expect("four hex digits fit a u32"))
    }

    /// A `\uXXXX` escape (the `\u` already consumed), pairing surrogates.
    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code) {
            if !self.eat("\\u") {
                return Err(self.err("lone surrogate"));
            }
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("lone surrogate"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        // Only a lone low surrogate is not a scalar value here.
        char::from_u32(code).ok_or_else(|| self.err("lone surrogate"))
    }

    /// Parses a string literal; `pos` is on the opening quote.
    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                0..=0x1f => return Err(self.err("control character in string")),
                other => out.push(other),
            }
        }
        // The input was a `&str`, quotes and backslashes are ASCII, and
        // escapes append whole chars, so the bytes are still valid UTF-8.
        String::from_utf8(out).map_err(|_| self.err("invalid utf-8 in string"))
    }
}

// ------------------------------------------------------- typed conversions

/// A type with a JSON encoding.
pub trait ToJson {
    /// The value tree for `self`.
    fn to_json(&self) -> Value;
}

/// A type decodable from a JSON value tree.
pub trait FromJson: Sized {
    /// Decodes `v`.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when `v` has the wrong shape for `Self`.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

fn expected<T>(what: &str, got: &Value) -> Result<T, JsonError> {
    Err(JsonError(format!("expected {what}, found {}", got.kind())))
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => expected("a boolean", other),
        }
    }
}

macro_rules! unsigned {
    ($($ty:ty),*) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                match v {
                    Value::UInt(n) => <$ty>::try_from(*n).map_err(|_| {
                        JsonError(format!("{n} out of range for {}", stringify!($ty)))
                    }),
                    other => expected("an unsigned integer", other),
                }
            }
        }
    )*};
}
unsigned!(u8, u32, u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Float(x) => Ok(*x),
            Value::UInt(n) => Ok(*n as f64),
            other => expected("a number", other),
        }
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Value {
        // Through the shortest decimal that round-trips the f32, so 0.1f32
        // is written "0.1" and not its widened binary expansion.
        Value::Float(self.to_string().parse().unwrap_or(f64::from(*self)))
    }
}

impl FromJson for f32 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let x = f64::from_json(v)?;
        let narrowed = x as f32;
        if narrowed.is_finite() {
            Ok(narrowed)
        } else {
            Err(JsonError(format!("{x:?} out of range for f32")))
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => expected("a string", other),
        }
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, ToJson::to_json)
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            other => expected("an array", other),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => expected("an array of two", other),
        }
    }
}

// --------------------------------------------- what the field tables expand to

fn lookup<'a>(members: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The members of `v`, which must be an object encoding a `what`.
///
/// # Errors
///
/// Returns [`JsonError`] when `v` is not an object.
pub fn object<'a>(v: &'a Value, what: &str) -> Result<&'a [(String, Value)], JsonError> {
    match v {
        Value::Object(members) => Ok(members),
        other => expected(&format!("an object for {what}"), other),
    }
}

/// Member `key` decoded as a `T`, or `None` when the object has no such
/// member (the caller supplies the default). Unknown members are ignored.
///
/// # Errors
///
/// Returns [`JsonError`], prefixed with `key`, when the member is present
/// but ill-typed.
pub fn field<T: FromJson>(members: &[(String, Value)], key: &str) -> Result<Option<T>, JsonError> {
    lookup(members, key)
        .map(|v| T::from_json(v).map_err(|e| JsonError(format!("{key}: {e}"))))
        .transpose()
}

/// Member `key` decoded as a `T`; the member must be present.
///
/// # Errors
///
/// Returns [`JsonError`] when the member is missing or ill-typed.
pub fn required<T: FromJson>(members: &[(String, Value)], key: &str) -> Result<T, JsonError> {
    field(members, key)?.ok_or_else(|| JsonError(format!("missing field `{key}`")))
}

/// Declares a struct from one field table and derives its JSON encoder
/// ([`ToJson`]: one object member per field, in declaration order, named as
/// the field) and decoder ([`FromJson`]: unknown members ignored; a field
/// written `name: Type = default` takes `default` when absent — what makes
/// a protocol addition backwards compatible — any other field is required).
///
/// ```
/// chipalign_model::json_struct! {
///     /// A point with an optional label.
///     #[derive(Debug, PartialEq)]
///     pub struct Point {
///         /// Abscissa.
///         pub x: u64,
///         /// Label, empty from older writers.
///         pub label: String = String::new(),
///     }
/// }
/// use chipalign_model::json;
/// let p: Point = json::from_str(r#"{"x":3}"#).unwrap();
/// assert_eq!(p, Point { x: 3, label: String::new() });
/// assert_eq!(json::to_string(&p), r#"{"x":3,"label":""}"#);
/// ```
#[macro_export]
macro_rules! json_struct {
    (@field $members:ident $field:ident) => {
        $crate::json::required($members, stringify!($field))?
    };
    (@field $members:ident $field:ident $default:expr) => {
        match $crate::json::field($members, stringify!($field))? {
            Some(value) => value,
            None => $default,
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty $(= $default:expr)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Object(vec![
                    $( (
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    ), )*
                ])
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                let members = $crate::json::object(v, stringify!($name))?;
                Ok($name {
                    $( $field: $crate::json_struct!(@field members $field $($default)?), )*
                })
            }
        }
    };
}

/// Declares a field-less enum from one `Variant = "wire_name"` table and
/// derives its JSON encoding: the wire name as a string.
///
/// ```
/// chipalign_model::json_unit_enum! {
///     /// Why a session ended.
///     #[derive(Debug, Clone, Copy, PartialEq, Eq)]
///     pub enum Finish {
///         /// End of sequence.
///         Eos = "eos",
///         /// Budget exhausted.
///         Length = "length",
///     }
/// }
/// use chipalign_model::json;
/// assert_eq!(json::to_string(&Finish::Length), r#""length""#);
/// assert_eq!(json::from_str::<Finish>(r#""eos""#).unwrap(), Finish::Eos);
/// assert!(json::from_str::<Finish>(r#""Eos""#).is_err());
/// ```
#[macro_export]
macro_rules! json_unit_enum {
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $( $(#[$vmeta:meta])* $variant:ident = $wire:literal ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $( $(#[$vmeta])* $variant, )*
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::String(match self {
                    $( $name::$variant => $wire, )*
                }.to_string())
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                match v {
                    $( $crate::json::Value::String(s) if s == $wire => Ok($name::$variant), )*
                    _ => Err($crate::json::JsonError::new(format!(
                        "expected one of {:?} for {}",
                        [$($wire),*],
                        stringify!($name),
                    ))),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_printers() {
        let v = Value::Object(vec![
            ("a".into(), Value::UInt(1)),
            (
                "b".into(),
                Value::Array(vec![Value::Float(0.5), Value::Null]),
            ),
            ("c".into(), Value::Object(vec![])),
            ("d".into(), Value::Array(vec![])),
        ]);
        assert_eq!(v.to_string(), r#"{"a":1,"b":[0.5,null],"c":{},"d":[]}"#);
        assert_eq!(
            v.to_pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    0.5,\n    null\n  ],\n  \"c\": {},\n  \"d\": []\n}"
        );
        assert_eq!(parse(&v.to_pretty()).expect("pretty parses"), v);
    }

    #[test]
    fn floats_print_as_valid_json_and_f32_prints_short() {
        assert_eq!(to_string(&0.1f32), "0.1");
        assert_eq!(to_string(&1.0f64), "1.0");
        assert_eq!(to_string(&1e21f64), "1e21");
        assert_eq!(to_string(&f64::NAN), "null");
        assert_eq!(to_string(&f64::INFINITY), "null");
        for x in [0.1f32, 1.0, 3.4e38, 1e-7, 0.6] {
            assert_eq!(from_str::<f32>(&to_string(&x)).expect("round trip"), x);
        }
    }

    #[test]
    fn u64_stays_exact_and_ranges_are_checked() {
        let max = u64::MAX.to_string();
        assert_eq!(parse(&max).expect("u64::MAX"), Value::UInt(u64::MAX));
        assert_eq!(from_str::<u64>(&max).expect("decode"), u64::MAX);
        assert_eq!(to_string(&u64::MAX), max);
        // One past u64::MAX is still a number, just not an exact one.
        assert!(matches!(parse("18446744073709551616"), Ok(Value::Float(_))));
        assert!(from_str::<u32>("4294967296").is_err());
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<u64>("1.0").is_err());
        assert!(from_str::<f32>("1e39").is_err(), "finite f64, infinite f32");
        assert_eq!(from_str::<f64>("7").expect("integers widen"), 7.0);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote\" slash\\ nl\n tab\t cr\r bell\u{7} é 漢 \u{1F600}".to_string();
        let json = to_string(&s);
        assert!(json.contains("\\u0007"));
        assert_eq!(from_str::<String>(&json).expect("round trip"), s);
        assert_eq!(
            from_str::<String>(r#""\ud83d\ude00 \u00e9 \/ \b\f""#).expect("escapes"),
            "\u{1F600} é / \u{8}\u{c}"
        );
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{a:1}",
            "[1] 2",
            "nul",
            "01",
            "1.",
            ".5",
            "1e",
            "1e999",
            "-1e999",
            "-",
            "+1",
            "\"unterminated",
            "\"bad \\x escape\"",
            "\"lone high \\ud83d\"",
            "\"lone high \\ud83d\\u0041\"",
            "\"lone low \\ude00\"",
            "\"short \\u12\"",
            "\"hex \\u12g4\"",
            "\"sign \\u+123\"",
            "\"raw \n newline\"",
            "\"trailing backslash\\",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let bomb = "[".repeat(100_000);
        assert!(parse(&bomb).is_err());
        let too_deep = format!("{}{}", "[".repeat(MAX_DEPTH + 2), "]".repeat(MAX_DEPTH + 2));
        assert!(parse(&too_deep).is_err());
    }

    crate::json_struct! {
        /// Test struct.
        #[derive(Debug, Clone, PartialEq)]
        struct Sample {
            name: String,
            seed: u64 = 7,
            deadline_ms: Option<u64> = None,
            rows: Vec<(String, Vec<f64>)> = Vec::new(),
        }
    }

    crate::json_unit_enum! {
        /// Test enum.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Mode {
            FastPath = "fast_path",
            Slow = "slow",
        }
    }

    #[test]
    fn struct_table_encodes_in_order_and_decodes_with_defaults() {
        let s = Sample {
            name: "n".into(),
            seed: u64::MAX,
            deadline_ms: Some(250),
            rows: vec![("r".into(), vec![1.5])],
        };
        let json = to_string(&s);
        assert_eq!(
            json,
            r#"{"name":"n","seed":18446744073709551615,"deadline_ms":250,"rows":[["r",[1.5]]]}"#
        );
        assert_eq!(from_str::<Sample>(&json).expect("round trip"), s);

        let minimal: Sample = from_str(r#"{"name":"n","unknown":[1,2]}"#).expect("defaults");
        assert_eq!(
            minimal,
            Sample {
                name: "n".into(),
                seed: 7,
                deadline_ms: None,
                rows: Vec::new()
            }
        );
        let explicit_null: Sample = from_str(r#"{"name":"n","deadline_ms":null}"#).expect("null");
        assert_eq!(explicit_null.deadline_ms, None);

        let missing = from_str::<Sample>(r#"{"seed":1}"#).expect_err("name is required");
        assert!(missing.to_string().contains("missing field `name`"));
        let ill_typed = from_str::<Sample>(r#"{"name":"n","seed":"x"}"#).expect_err("typed");
        assert!(ill_typed.to_string().starts_with("seed:"));
        assert!(from_str::<Sample>("[]").is_err());
    }

    #[test]
    fn unit_enum_table_uses_wire_names() {
        assert_eq!(to_string(&Mode::FastPath), "\"fast_path\"");
        assert_eq!(from_str::<Mode>("\"slow\"").expect("decode"), Mode::Slow);
        assert!(from_str::<Mode>("\"FastPath\"").is_err());
        assert!(from_str::<Mode>("3").is_err());
    }
}
