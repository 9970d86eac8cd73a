//! A small, self-describing JSON codec for the incident subsystem.
//!
//! The workspace builds from its own crates alone, so this module is its
//! one serialization layer: warehouse disk-spill, incident-store export, and
//! the query, trace, alert and metrics documents all go through it. It is a
//! hand-rolled JSON value model ([`JsonValue`]), a writer with full string
//! escaping, a positioned parser, and [`Encode`]/[`Decode`] impls for every
//! type an [`IncidentDossier`] closes over.
//!
//! Design constraints, in priority order:
//!
//! 1. **Exact round-trip.** `decode(parse(render(encode(x)))) == x` for every
//!    encodable type — byte-identity of spilled-vs-resident warehouse queries
//!    depends on it. All incident state is integers, strings, and unit enums,
//!    so exactness is achievable without float-format heroics (the one `f64`
//!    writer uses Rust's shortest-round-trip `Display`).
//! 2. **Self-describing documents.** Enums encode as their variant names,
//!    variant payloads as tagged objects (`{"type": "Eviction", ...}`), and
//!    top-level documents carry a `format`/`version` header — a segment file
//!    can be read (and rejected) without out-of-band schema knowledge.
//! 3. **Errors, never panics.** Parsing a corrupted segment returns a
//!    [`CodecError`] naming the byte offset, line, and column; decoding a
//!    well-formed but wrong-shaped document returns one naming the JSON path
//!    (`dossiers[3].capture.window[2].event`). Nothing outside the codec API
//!    leaks its shape.

use std::fmt;
use std::sync::Arc;

use byterobust_agent::DiagnosisConclusion;
use byterobust_cluster::{FaultCategory, FaultKind, MachineId, RootCause};
use byterobust_recovery::FailoverCost;
use byterobust_sim::{SimDuration, SimTime};
use byterobust_telemetry::{EventKind, SystemEvent};

use crate::classify::{Classification, Escalation, Severity};
use crate::mechanism::ResolutionMechanism;
use crate::postmortem::{PhaseCost, Postmortem};
use crate::recorder::{IncidentCapture, RecorderEntry, RecorderEvent, RecoveryPhase};
use crate::store::{IncidentDossier, IncidentStore};

/// Nesting depth at which the parser gives up: deep enough for any document
/// this workspace writes (dossier nesting is ~6 levels), shallow enough that
/// a corrupted `[[[[…` bomb errors out instead of overflowing the stack.
const MAX_DEPTH: usize = 128;

/// Format header written by [`IncidentStore::export_json`] and checked by
/// [`IncidentStore::import_json`].
pub const STORE_FORMAT: &str = "byterobust-incident-store";

/// Current on-disk format version for every document this module writes.
pub const FORMAT_VERSION: u64 = 1;

// ---------------------------------------------------------------------------
// Error type
// ---------------------------------------------------------------------------

/// Where a codec error was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorPosition {
    /// A text-level parse error: byte offset plus 1-based line and column.
    Byte {
        /// Byte offset into the document.
        offset: usize,
        /// 1-based line number.
        line: usize,
        /// 1-based column number.
        column: usize,
    },
    /// A structural decode error: the JSON path of the offending value
    /// (e.g. `dossiers[3].capture.window[2].event`). Empty at the root.
    Path(String),
}

/// A parse or decode failure. Always an error value, never a panic — a
/// corrupted segment file must degrade into a report, not a crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Where the failure was detected.
    pub at: ErrorPosition,
    /// What went wrong.
    pub message: String,
}

impl CodecError {
    /// A free-form error at the document root, for callers layering their
    /// own validation on top of the codec (e.g. segment-file headers).
    pub fn other(message: impl Into<String>) -> CodecError {
        CodecError {
            at: ErrorPosition::Path(String::new()),
            message: message.into(),
        }
    }

    /// A decode error at the current (relative) path root.
    fn decode(message: impl Into<String>) -> CodecError {
        CodecError {
            at: ErrorPosition::Path(String::new()),
            message: message.into(),
        }
    }

    /// Prefixes a field name onto the error's path (decode errors only).
    fn in_field(mut self, field: &str) -> CodecError {
        if let ErrorPosition::Path(path) = &mut self.at {
            if path.is_empty() {
                *path = field.to_string();
            } else if path.starts_with('[') {
                *path = format!("{field}{path}");
            } else {
                *path = format!("{field}.{path}");
            }
        }
        self
    }

    /// Prefixes an array index onto the error's path (decode errors only).
    fn in_index(mut self, index: usize) -> CodecError {
        if let ErrorPosition::Path(path) = &mut self.at {
            if path.is_empty() {
                *path = format!("[{index}]");
            } else if path.starts_with('[') {
                *path = format!("[{index}]{path}");
            } else {
                *path = format!("[{index}].{path}");
            }
        }
        self
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.at {
            ErrorPosition::Byte {
                offset,
                line,
                column,
            } => write!(
                f,
                "parse error at line {line}, column {column} (byte {offset}): {}",
                self.message
            ),
            ErrorPosition::Path(path) if path.is_empty() => {
                write!(f, "decode error at document root: {}", self.message)
            }
            ErrorPosition::Path(path) => write!(f, "decode error at {path}: {}", self.message),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// The value model
// ---------------------------------------------------------------------------

/// An in-memory JSON value. Object member order is preserved (a `Vec`, not a
/// map), so encoding is deterministic: the writer emits members in insertion
/// order and two encodes of equal values are byte-identical.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the common case: times, counts, ids).
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A finite float, written in Rust's shortest round-trip form.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, members in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs.
    pub fn object(members: Vec<(&str, JsonValue)>) -> JsonValue {
        JsonValue::Object(
            members
                .into_iter()
                .map(|(key, value)| (key.to_string(), value))
                .collect(),
        )
    }

    /// The member of an object, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members
                .iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// A one-word description of the value's kind, for error messages.
    fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::U64(_) | JsonValue::I64(_) => "integer",
            JsonValue::F64(_) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }

    /// Decodes the member `key` of an object into `T`, attributing errors to
    /// that key's path.
    pub fn field<T: Decode>(&self, key: &str) -> Result<T, CodecError> {
        match self.get(key) {
            Some(value) => T::decode(value).map_err(|err| err.in_field(key)),
            None => match self {
                JsonValue::Object(_) => Err(CodecError::decode(format!("missing field `{key}`"))),
                other => Err(CodecError::decode(format!(
                    "expected an object with field `{key}`, found {}",
                    other.kind()
                ))),
            },
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str, CodecError> {
        match self {
            JsonValue::Str(s) => Ok(s),
            other => Err(CodecError::decode(format!(
                "expected a string, found {}",
                other.kind()
            ))),
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, CodecError> {
        match self {
            JsonValue::U64(n) => Ok(*n),
            other => Err(CodecError::decode(format!(
                "expected an unsigned integer, found {}",
                other.kind()
            ))),
        }
    }

    // -----------------------------------------------------------------------
    // Writer
    // -----------------------------------------------------------------------

    /// Renders the value as a compact JSON document. Deterministic: equal
    /// values render to byte-identical text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            JsonValue::I64(n) => {
                let _ = fmt::Write::write_fmt(out, format_args!("{n}"));
            }
            JsonValue::F64(x) => {
                // Rust's `Display` for floats is the shortest string that
                // parses back to the same bits, so the round trip is exact.
                // Non-finite values are not representable in JSON; encoders
                // in this workspace never produce them (asserted).
                debug_assert!(x.is_finite(), "non-finite floats are not encodable");
                if x.is_finite() {
                    let _ = fmt::Write::write_fmt(out, format_args!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => render_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. The whole input must be one value (trailing
    /// non-whitespace is an error). Errors carry byte offset, line, column.
    pub fn parse(text: &str) -> Result<JsonValue, CodecError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        let value = parser.parse_value(0)?;
        parser.skip_whitespace();
        if parser.pos < parser.bytes.len() {
            return Err(parser.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

/// Writes a string literal with JSON escaping: quotes, backslashes, and all
/// control characters; non-ASCII passes through as UTF-8.
fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = fmt::Write::write_fmt(out, format_args!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: impl Into<String>) -> CodecError {
        self.error_at(self.pos, message)
    }

    fn error_at(&self, offset: usize, message: impl Into<String>) -> CodecError {
        let mut line = 1;
        let mut column = 1;
        for &b in &self.bytes[..offset.min(self.bytes.len())] {
            if b == b'\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        CodecError {
            at: ErrorPosition::Byte {
                offset,
                line,
                column,
            },
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), CodecError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!(
                "expected `{}`, found {}",
                byte as char,
                self.describe_next()
            )))
        }
    }

    fn describe_next(&self) -> String {
        match self.peek() {
            Some(b) if b.is_ascii_graphic() => format!("`{}`", b as char),
            Some(b) => format!("byte 0x{b:02x}"),
            None => "end of input".to_string(),
        }
    }

    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, CodecError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.skip_whitespace();
        match self.peek() {
            Some(b'{') => self.parse_object(depth),
            Some(b'[') => self.parse_array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error(format!("expected a value, found {}", self.describe_next()))),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, CodecError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, CodecError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            let value = self.parse_value(depth + 1)?;
            members.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => {
                    return Err(self.error(format!(
                        "expected `,` or `}}` in object, found {}",
                        self.describe_next()
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self, depth: usize) -> Result<JsonValue, CodecError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            items.push(self.parse_value(depth + 1)?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => {
                    return Err(self.error(format!(
                        "expected `,` or `]` in array, found {}",
                        self.describe_next()
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, CodecError> {
        if self.peek() != Some(b'"') {
            return Err(self.error(format!("expected a string, found {}", self.describe_next())));
        }
        let start = self.pos;
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error_at(start, "unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let unit = self.parse_hex4()?;
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                // High surrogate: a \uXXXX low surrogate must
                                // follow immediately.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.parse_hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("invalid surrogate pair"))?
                                } else {
                                    return Err(self.error("unpaired high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.error("unpaired low surrogate"));
                            } else {
                                char::from_u32(unit)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => {
                            return Err(
                                self.error(format!("invalid escape {}", self.describe_next()))
                            )
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("unescaped control character in string"));
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the byte
                    // stream is valid UTF-8 by construction).
                    let rest = &self.bytes[self.pos..];
                    let len = match rest[0] {
                        b if b < 0x80 => 1,
                        b if b >= 0xF0 => 4,
                        b if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let chunk = std::str::from_utf8(&rest[..len.min(rest.len())])
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, CodecError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a') as u32 + 10,
                Some(b @ b'A'..=b'F') => (b - b'A') as u32 + 10,
                _ => return Err(self.error("expected four hex digits after \\u")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<JsonValue, CodecError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        let is_integer = !text.contains(['.', 'e', 'E']);
        if is_integer {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::I64(n));
            }
        }
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(JsonValue::F64(x)),
            _ => Err(self.error_at(start, format!("invalid number `{text}`"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Encode / Decode traits and primitive impls
// ---------------------------------------------------------------------------

/// Turns a value into its [`JsonValue`] representation.
pub trait Encode {
    /// Encodes `self`.
    fn encode(&self) -> JsonValue;
}

/// Rebuilds a value from its [`JsonValue`] representation.
pub trait Decode: Sized {
    /// Decodes a value; errors name the offending JSON path.
    fn decode(value: &JsonValue) -> Result<Self, CodecError>;
}

/// Renders an encodable value as a compact JSON document.
pub fn to_json<T: Encode>(value: &T) -> String {
    value.encode().render()
}

/// Parses and decodes a JSON document in one step.
pub fn from_json<T: Decode>(text: &str) -> Result<T, CodecError> {
    T::decode(&JsonValue::parse(text)?)
}

/// Checks a document's `format`/`version` header against the expected pair.
pub fn check_format(document: &JsonValue, format: &str) -> Result<(), CodecError> {
    let found: String = document.field("format")?;
    if found != format {
        return Err(CodecError::decode(format!(
            "unexpected format `{found}` (expected `{format}`)"
        ))
        .in_field("format"));
    }
    let version: u64 = document.field("version")?;
    if version != FORMAT_VERSION {
        return Err(CodecError::decode(format!(
            "unsupported version {version} (this build reads version {FORMAT_VERSION})"
        ))
        .in_field("version"));
    }
    Ok(())
}

impl Encode for bool {
    fn encode(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl Decode for bool {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        match value {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(CodecError::decode(format!(
                "expected a bool, found {}",
                other.kind()
            ))),
        }
    }
}

impl Encode for u64 {
    fn encode(&self) -> JsonValue {
        JsonValue::U64(*self)
    }
}

impl Decode for u64 {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        value.as_u64()
    }
}

impl Encode for u32 {
    fn encode(&self) -> JsonValue {
        JsonValue::U64(u64::from(*self))
    }
}

impl Decode for u32 {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        u32::try_from(value.as_u64()?)
            .map_err(|_| CodecError::decode("integer out of range for u32"))
    }
}

impl Encode for usize {
    fn encode(&self) -> JsonValue {
        JsonValue::U64(*self as u64)
    }
}

impl Decode for usize {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        usize::try_from(value.as_u64()?)
            .map_err(|_| CodecError::decode("integer out of range for usize"))
    }
}

impl Encode for i64 {
    fn encode(&self) -> JsonValue {
        if *self >= 0 {
            JsonValue::U64(*self as u64)
        } else {
            JsonValue::I64(*self)
        }
    }
}

impl Decode for i64 {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        match value {
            JsonValue::I64(n) => Ok(*n),
            JsonValue::U64(n) => {
                i64::try_from(*n).map_err(|_| CodecError::decode("integer out of range for i64"))
            }
            other => Err(CodecError::decode(format!(
                "expected an integer, found {}",
                other.kind()
            ))),
        }
    }
}

impl Encode for f64 {
    fn encode(&self) -> JsonValue {
        JsonValue::F64(*self)
    }
}

impl Decode for f64 {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        match value {
            JsonValue::F64(x) => Ok(*x),
            JsonValue::U64(n) => Ok(*n as f64),
            JsonValue::I64(n) => Ok(*n as f64),
            other => Err(CodecError::decode(format!(
                "expected a number, found {}",
                other.kind()
            ))),
        }
    }
}

impl Encode for String {
    fn encode(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl Decode for String {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(value.as_str()?.to_string())
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(Encode::encode).collect())
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        match value {
            JsonValue::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::decode(item).map_err(|err| err.in_index(i)))
                .collect(),
            other => Err(CodecError::decode(format!(
                "expected an array, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Encode> Encode for Arc<[T]> {
    fn encode(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(Encode::encode).collect())
    }
}

impl<T: Decode> Decode for Arc<[T]> {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Vec::decode(value).map(Arc::from)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self) -> JsonValue {
        match self {
            Some(value) => value.encode(),
            None => JsonValue::Null,
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        match value {
            JsonValue::Null => Ok(None),
            other => T::decode(other).map(Some),
        }
    }
}

// ---------------------------------------------------------------------------
// Foreign scalar types
// ---------------------------------------------------------------------------

impl Encode for SimTime {
    fn encode(&self) -> JsonValue {
        JsonValue::U64(self.as_millis())
    }
}

impl Decode for SimTime {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(SimTime::from_millis(value.as_u64()?))
    }
}

impl Encode for SimDuration {
    fn encode(&self) -> JsonValue {
        JsonValue::U64(self.as_millis())
    }
}

impl Decode for SimDuration {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(SimDuration::from_millis(value.as_u64()?))
    }
}

impl Encode for MachineId {
    fn encode(&self) -> JsonValue {
        JsonValue::U64(u64::from(self.0))
    }
}

impl Decode for MachineId {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(MachineId(u32::decode(value)?))
    }
}

/// Generates string-tagged [`Encode`]/[`Decode`] impls for a unit enum: the
/// variant name is the wire form, unknown names are decode errors naming the
/// expected type.
macro_rules! string_enum_codec {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl Encode for $ty {
            fn encode(&self) -> JsonValue {
                JsonValue::Str(
                    match self {
                        $($ty::$variant => stringify!($variant),)+
                    }
                    .to_string(),
                )
            }
        }

        impl Decode for $ty {
            fn decode(value: &JsonValue) -> Result<Self, CodecError> {
                match value.as_str()? {
                    $(stringify!($variant) => Ok($ty::$variant),)+
                    other => Err(CodecError::decode(format!(
                        concat!("unknown ", stringify!($ty), " variant `{}`"),
                        other
                    ))),
                }
            }
        }
    };
}

string_enum_codec!(FaultCategory {
    Explicit,
    Implicit,
    ManualRestart
});
string_enum_codec!(FaultKind {
    CudaError,
    CpuOverload,
    CpuOom,
    InsufficientDiskSpace,
    InfinibandError,
    FilesystemMount,
    HdfsError,
    ContainerError,
    OsKernelPanic,
    GpuMemoryError,
    ExternalServiceError,
    GpuUnavailable,
    DiskFault,
    JobHang,
    MfuDecline,
    NanValue,
    CodeDataAdjustment,
});
string_enum_codec!(RootCause {
    Infrastructure,
    UserCode,
    Human,
    Transient
});
string_enum_codec!(ResolutionMechanism {
    ImmediateEviction,
    StopTimeEviction,
    Reattempt,
    Rollback,
    DualPhaseReplay,
    AnalyzerEviction,
    HotUpdate,
});
string_enum_codec!(Severity {
    Sev1,
    Sev2,
    Sev3,
    Sev4
});
string_enum_codec!(Escalation {
    PageOncall,
    HardwareTicket,
    StressTestSweep,
    CodeReviewAudit,
    CapacityReview,
});
string_enum_codec!(RecoveryPhase {
    Detection,
    Localization,
    Scheduling,
    PodBuild,
    CheckpointLoad,
    Recompute,
});
string_enum_codec!(DiagnosisConclusion {
    FaultyMachines,
    UserCodeSuspected,
    AllTestsPassed,
});
string_enum_codec!(EventKind {
    XidError,
    CudaRuntimeError,
    NicDown,
    NicFlapping,
    SwitchUnresponsive,
    DcgmQueryFailure,
    EccRowRemap,
    ThermalAlert,
    KernelPanic,
    OomKill,
    FilesystemMountLost,
    RemoteStorageError,
    ContainerFailure,
});

/// The stable `REC-*` codes the classification matrix can assign. `rec_code`
/// is `&'static str` in memory; decoding maps the wire string back onto the
/// canonical static — an unknown code is a decode error, not a dangling
/// reference.
const REC_CODES: [&str; 7] = [
    "REC-HU", "REC-RT", "REC-RB", "REC-EV1", "REC-EV2", "REC-RPL", "REC-AGG",
];

fn decode_rec_code(value: &JsonValue) -> Result<&'static str, CodecError> {
    let text = value.as_str()?;
    REC_CODES
        .iter()
        .find(|code| **code == text)
        .copied()
        .ok_or_else(|| CodecError::decode(format!("unknown REC code `{text}`")))
}

// ---------------------------------------------------------------------------
// Structs
// ---------------------------------------------------------------------------

impl Encode for FailoverCost {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("detection", self.detection.encode()),
            ("localization", self.localization.encode()),
            ("scheduling", self.scheduling.encode()),
            ("pod_build", self.pod_build.encode()),
            ("checkpoint_load", self.checkpoint_load.encode()),
            ("recompute", self.recompute.encode()),
        ])
    }
}

impl Decode for FailoverCost {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(FailoverCost {
            detection: value.field("detection")?,
            localization: value.field("localization")?,
            scheduling: value.field("scheduling")?,
            pod_build: value.field("pod_build")?,
            checkpoint_load: value.field("checkpoint_load")?,
            recompute: value.field("recompute")?,
        })
    }
}

impl Encode for SystemEvent {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("at", self.at.encode()),
            ("kind", self.kind.encode()),
            ("machine", self.machine.encode()),
        ])
    }
}

impl Decode for SystemEvent {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(SystemEvent {
            at: value.field("at")?,
            kind: value.field("kind")?,
            machine: value.field("machine")?,
        })
    }
}

impl Encode for Classification {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("severity", self.severity.encode()),
            ("rec_code", JsonValue::Str(self.rec_code.to_string())),
            ("escalations", self.escalations.encode()),
        ])
    }
}

impl Decode for Classification {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(Classification {
            severity: value.field("severity")?,
            rec_code: value
                .get("rec_code")
                .ok_or_else(|| CodecError::decode("missing field `rec_code`"))
                .and_then(decode_rec_code)
                .map_err(|err| err.in_field("rec_code"))?,
            escalations: value.field("escalations")?,
        })
    }
}

impl Encode for RecorderEvent {
    fn encode(&self) -> JsonValue {
        let tag = |name: &str, mut rest: Vec<(&str, JsonValue)>| {
            let mut members = vec![("type", JsonValue::Str(name.to_string()))];
            members.append(&mut rest);
            JsonValue::object(members)
        };
        match self {
            RecorderEvent::Telemetry(event) => tag("Telemetry", vec![("event", event.encode())]),
            RecorderEvent::Detected { kind, latency } => tag(
                "Detected",
                vec![("kind", kind.encode()), ("latency", latency.encode())],
            ),
            RecorderEvent::MonitorVerdict { machine, issue } => tag(
                "MonitorVerdict",
                vec![("machine", machine.encode()), ("issue", issue.encode())],
            ),
            RecorderEvent::DiagnosisDecision {
                conclusion,
                suspects,
                duration,
            } => tag(
                "DiagnosisDecision",
                vec![
                    ("conclusion", conclusion.encode()),
                    ("suspects", suspects.encode()),
                    ("duration", duration.encode()),
                ],
            ),
            RecorderEvent::AnalyzerDecision {
                machines,
                shared_group,
                outlier_ranks,
                over_evicts,
            } => tag(
                "AnalyzerDecision",
                vec![
                    ("machines", machines.encode()),
                    ("shared_group", shared_group.encode()),
                    ("outlier_ranks", outlier_ranks.encode()),
                    ("over_evicts", over_evicts.encode()),
                ],
            ),
            RecorderEvent::ReplayVerdict { suspects, duration } => tag(
                "ReplayVerdict",
                vec![
                    ("suspects", suspects.encode()),
                    ("duration", duration.encode()),
                ],
            ),
            RecorderEvent::PhaseTransition { phase, duration } => tag(
                "PhaseTransition",
                vec![("phase", phase.encode()), ("duration", duration.encode())],
            ),
            RecorderEvent::Eviction {
                machine,
                over_eviction,
            } => tag(
                "Eviction",
                vec![
                    ("machine", machine.encode()),
                    ("over_eviction", over_eviction.encode()),
                ],
            ),
            RecorderEvent::Rollback { to_version } => {
                tag("Rollback", vec![("to_version", to_version.encode())])
            }
            RecorderEvent::HotUpdateApplied { version } => {
                tag("HotUpdateApplied", vec![("version", version.encode())])
            }
            RecorderEvent::Resumed { step } => tag("Resumed", vec![("step", step.encode())]),
            RecorderEvent::CapacityStarvation {
                preempted,
                migrated,
                shortfall,
            } => tag(
                "CapacityStarvation",
                vec![
                    ("preempted", preempted.encode()),
                    ("migrated", migrated.encode()),
                    ("shortfall", shortfall.encode()),
                ],
            ),
        }
    }
}

impl Decode for RecorderEvent {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let tag: String = value.field("type")?;
        match tag.as_str() {
            "Telemetry" => Ok(RecorderEvent::Telemetry(value.field("event")?)),
            "Detected" => Ok(RecorderEvent::Detected {
                kind: value.field("kind")?,
                latency: value.field("latency")?,
            }),
            "MonitorVerdict" => Ok(RecorderEvent::MonitorVerdict {
                machine: value.field("machine")?,
                issue: value.field("issue")?,
            }),
            "DiagnosisDecision" => Ok(RecorderEvent::DiagnosisDecision {
                conclusion: value.field("conclusion")?,
                suspects: value.field("suspects")?,
                duration: value.field("duration")?,
            }),
            "AnalyzerDecision" => Ok(RecorderEvent::AnalyzerDecision {
                machines: value.field("machines")?,
                shared_group: value.field("shared_group")?,
                outlier_ranks: value.field("outlier_ranks")?,
                over_evicts: value.field("over_evicts")?,
            }),
            "ReplayVerdict" => Ok(RecorderEvent::ReplayVerdict {
                suspects: value.field("suspects")?,
                duration: value.field("duration")?,
            }),
            "PhaseTransition" => Ok(RecorderEvent::PhaseTransition {
                phase: value.field("phase")?,
                duration: value.field("duration")?,
            }),
            "Eviction" => Ok(RecorderEvent::Eviction {
                machine: value.field("machine")?,
                over_eviction: value.field("over_eviction")?,
            }),
            "Rollback" => Ok(RecorderEvent::Rollback {
                to_version: value.field("to_version")?,
            }),
            "HotUpdateApplied" => Ok(RecorderEvent::HotUpdateApplied {
                version: value.field("version")?,
            }),
            "Resumed" => Ok(RecorderEvent::Resumed {
                step: value.field("step")?,
            }),
            "CapacityStarvation" => Ok(RecorderEvent::CapacityStarvation {
                preempted: value.field("preempted")?,
                migrated: value.field("migrated")?,
                shortfall: value.field("shortfall")?,
            }),
            other => Err(
                CodecError::decode(format!("unknown RecorderEvent variant `{other}`"))
                    .in_field("type"),
            ),
        }
    }
}

impl Encode for RecorderEntry {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("at", self.at.encode()),
            ("event", self.event.encode()),
        ])
    }
}

impl Decode for RecorderEntry {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(RecorderEntry {
            at: value.field("at")?,
            event: value.field("event")?,
        })
    }
}

impl Encode for IncidentCapture {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("seq", self.seq.encode()),
            ("kind", self.kind.encode()),
            ("opened_at", self.opened_at.encode()),
            ("closed_at", self.closed_at.encode()),
            ("context", self.context.encode()),
            ("window", self.window.encode()),
        ])
    }
}

impl Decode for IncidentCapture {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(IncidentCapture {
            seq: value.field("seq")?,
            kind: value.field("kind")?,
            opened_at: value.field("opened_at")?,
            closed_at: value.field("closed_at")?,
            context: value.field("context")?,
            window: value.field("window")?,
        })
    }
}

impl Encode for IncidentDossier {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("seq", self.seq.encode()),
            ("at", self.at.encode()),
            ("kind", self.kind.encode()),
            ("category", self.category.encode()),
            ("root_cause", self.root_cause.encode()),
            ("concluded_cause", self.concluded_cause.encode()),
            ("mechanism", self.mechanism.encode()),
            ("cost", self.cost.encode()),
            ("evicted", self.evicted.encode()),
            ("over_evicted", self.over_evicted.encode()),
            ("resumed_step", self.resumed_step.encode()),
            ("classification", self.classification.encode()),
            ("capture", self.capture.encode()),
        ])
    }
}

impl Decode for IncidentDossier {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(IncidentDossier {
            seq: value.field("seq")?,
            at: value.field("at")?,
            kind: value.field("kind")?,
            category: value.field("category")?,
            root_cause: value.field("root_cause")?,
            concluded_cause: value.field("concluded_cause")?,
            mechanism: value.field("mechanism")?,
            cost: value.field("cost")?,
            evicted: value.field("evicted")?,
            over_evicted: value.field("over_evicted")?,
            resumed_step: value.field("resumed_step")?,
            classification: value.field("classification")?,
            capture: value.field("capture")?,
        })
    }
}

impl Encode for PhaseCost {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("phase", self.phase.encode()),
            ("duration", self.duration.encode()),
        ])
    }
}

impl Decode for PhaseCost {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(PhaseCost {
            phase: value.field("phase")?,
            duration: value.field("duration")?,
        })
    }
}

impl Encode for Postmortem {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![
            ("seq", self.seq.encode()),
            ("title", self.title.encode()),
            ("severity", self.severity.encode()),
            ("rec_code", JsonValue::Str(self.rec_code.to_string())),
            ("kind", self.kind.encode()),
            ("category", self.category.encode()),
            ("root_cause", self.root_cause.encode()),
            ("concluded_cause", self.concluded_cause.encode()),
            ("mechanism", self.mechanism.encode()),
            ("opened_at", self.opened_at.encode()),
            ("closed_at", self.closed_at.encode()),
            ("context", self.context.encode()),
            ("timeline", self.timeline.encode()),
            ("phase_costs", self.phase_costs.encode()),
            ("total_cost", self.total_cost.encode()),
            ("evicted", self.evicted.encode()),
            ("over_evicted", self.over_evicted.encode()),
            ("resumed_step", self.resumed_step.encode()),
            ("follow_ups", self.follow_ups.encode()),
        ])
    }
}

impl Decode for Postmortem {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(Postmortem {
            seq: value.field("seq")?,
            title: value.field("title")?,
            severity: value.field("severity")?,
            rec_code: value
                .get("rec_code")
                .ok_or_else(|| CodecError::decode("missing field `rec_code`"))
                .and_then(decode_rec_code)
                .map_err(|err| err.in_field("rec_code"))?,
            kind: value.field("kind")?,
            category: value.field("category")?,
            root_cause: value.field("root_cause")?,
            concluded_cause: value.field("concluded_cause")?,
            mechanism: value.field("mechanism")?,
            opened_at: value.field("opened_at")?,
            closed_at: value.field("closed_at")?,
            context: value.field("context")?,
            timeline: value.field("timeline")?,
            phase_costs: value.field("phase_costs")?,
            total_cost: value.field("total_cost")?,
            evicted: value.field("evicted")?,
            over_evicted: value.field("over_evicted")?,
            resumed_step: value.field("resumed_step")?,
            follow_ups: value.field("follow_ups")?,
        })
    }
}

impl Encode for IncidentStore {
    fn encode(&self) -> JsonValue {
        JsonValue::object(vec![(
            "dossiers",
            JsonValue::Array(self.all().iter().map(|d| d.as_ref().encode()).collect()),
        )])
    }
}

impl Decode for IncidentStore {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let dossiers: Vec<IncidentDossier> = value.field("dossiers")?;
        let mut store = IncidentStore::new();
        for dossier in dossiers {
            store.insert(dossier);
        }
        Ok(store)
    }
}

impl IncidentStore {
    /// Exports the store as a self-describing JSON document (format header
    /// plus every dossier). Deterministic: equal stores export byte-identical
    /// text.
    pub fn export_json(&self) -> String {
        JsonValue::object(vec![
            ("format", JsonValue::Str(STORE_FORMAT.to_string())),
            ("version", JsonValue::U64(FORMAT_VERSION)),
            (
                "dossiers",
                JsonValue::Array(self.all().iter().map(|d| d.as_ref().encode()).collect()),
            ),
        ])
        .render()
    }

    /// Imports a store previously written by [`IncidentStore::export_json`].
    /// Never panics: corruption and shape mismatches come back as a
    /// positioned [`CodecError`].
    pub fn import_json(text: &str) -> Result<IncidentStore, CodecError> {
        let document = JsonValue::parse(text)?;
        check_format(&document, STORE_FORMAT)?;
        let dossiers: Vec<IncidentDossier> = document.field("dossiers")?;
        let mut store = IncidentStore::new();
        for dossier in dossiers {
            store.insert(dossier);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{ClassificationInput, ClassificationMatrix};

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: &T) {
        let text = to_json(value);
        let back: T = from_json(&text).unwrap_or_else(|err| panic!("decode failed: {err}\n{text}"));
        assert_eq!(&back, value, "round trip changed the value\n{text}");
        // Re-encoding the decoded value is byte-identical: the writer is
        // deterministic and nothing was lost.
        assert_eq!(to_json(&back), text);
    }

    fn sample_dossier(seq: u64) -> IncidentDossier {
        let cost = FailoverCost {
            detection: SimDuration::from_secs(30),
            localization: SimDuration::from_secs(120),
            scheduling: SimDuration::from_secs(60),
            pod_build: SimDuration::from_secs(5),
            checkpoint_load: SimDuration::from_secs(20),
            recompute: SimDuration::from_secs(15),
        };
        let classification =
            ClassificationMatrix::byterobust_default().classify(&ClassificationInput {
                category: FaultCategory::Implicit,
                root_cause: RootCause::Infrastructure,
                mechanism: ResolutionMechanism::AnalyzerEviction,
                blast_radius: 2,
                over_evicted: true,
                reproducible: false,
                downtime: cost.total(),
            });
        let mut capture = IncidentCapture::empty(seq, FaultKind::JobHang, SimTime::from_hours(3));
        capture.closed_at = capture.opened_at + cost.total();
        capture.context = Arc::from([RecorderEntry {
            at: SimTime::from_hours(3),
            event: RecorderEvent::Telemetry(SystemEvent::new(
                SimTime::from_hours(3),
                EventKind::XidError,
                MachineId(7),
            )),
        }]);
        for event in every_recorder_event() {
            capture.window.push(RecorderEntry {
                at: capture.opened_at,
                event,
            });
        }
        IncidentDossier {
            seq,
            at: SimTime::from_hours(3),
            kind: FaultKind::JobHang,
            category: FaultCategory::Implicit,
            root_cause: RootCause::Infrastructure,
            concluded_cause: RootCause::Transient,
            mechanism: ResolutionMechanism::AnalyzerEviction,
            cost,
            evicted: vec![MachineId(7), MachineId(9)],
            over_evicted: true,
            resumed_step: 4321,
            classification,
            capture,
        }
    }

    /// One instance of every `RecorderEvent` variant, including
    /// `CapacityStarvation`, with payloads that exercise every field.
    fn every_recorder_event() -> Vec<RecorderEvent> {
        vec![
            RecorderEvent::Telemetry(SystemEvent::new(
                SimTime::from_secs(9),
                EventKind::NicDown,
                MachineId(3),
            )),
            RecorderEvent::Detected {
                kind: FaultKind::InfinibandError,
                latency: SimDuration::from_secs(12),
            },
            RecorderEvent::MonitorVerdict {
                machine: MachineId(5),
                issue: "GPU \"fell\" off the bus\n\ttab & non-ASCII: héllo 中文 🚂".to_string(),
            },
            RecorderEvent::DiagnosisDecision {
                conclusion: DiagnosisConclusion::FaultyMachines,
                suspects: vec![MachineId(1), MachineId(2)],
                duration: SimDuration::from_mins(8),
            },
            RecorderEvent::AnalyzerDecision {
                machines: vec![MachineId(4), MachineId(6)],
                shared_group: Some("PP".to_string()),
                outlier_ranks: 3,
                over_evicts: true,
            },
            RecorderEvent::AnalyzerDecision {
                machines: vec![],
                shared_group: None,
                outlier_ranks: 0,
                over_evicts: false,
            },
            RecorderEvent::ReplayVerdict {
                suspects: vec![MachineId(11)],
                duration: SimDuration::from_mins(30),
            },
            RecorderEvent::PhaseTransition {
                phase: RecoveryPhase::CheckpointLoad,
                duration: SimDuration::from_secs(90),
            },
            RecorderEvent::Eviction {
                machine: MachineId(8),
                over_eviction: true,
            },
            RecorderEvent::Rollback { to_version: 4 },
            RecorderEvent::HotUpdateApplied { version: 5 },
            RecorderEvent::Resumed { step: 123456 },
            RecorderEvent::CapacityStarvation {
                preempted: 2,
                migrated: 1,
                shortfall: 3,
            },
        ]
    }

    #[test]
    fn every_recorder_event_variant_round_trips() {
        let events = every_recorder_event();
        // The list covers the enum: one entry per variant (AnalyzerDecision
        // twice, for Some/None shared_group).
        let mut seen: Vec<&'static str> = events
            .iter()
            .map(|event| match event {
                RecorderEvent::Telemetry(_) => "Telemetry",
                RecorderEvent::Detected { .. } => "Detected",
                RecorderEvent::MonitorVerdict { .. } => "MonitorVerdict",
                RecorderEvent::DiagnosisDecision { .. } => "DiagnosisDecision",
                RecorderEvent::AnalyzerDecision { .. } => "AnalyzerDecision",
                RecorderEvent::ReplayVerdict { .. } => "ReplayVerdict",
                RecorderEvent::PhaseTransition { .. } => "PhaseTransition",
                RecorderEvent::Eviction { .. } => "Eviction",
                RecorderEvent::Rollback { .. } => "Rollback",
                RecorderEvent::HotUpdateApplied { .. } => "HotUpdateApplied",
                RecorderEvent::Resumed { .. } => "Resumed",
                RecorderEvent::CapacityStarvation { .. } => "CapacityStarvation",
            })
            .collect();
        seen.dedup();
        assert_eq!(seen.len(), 12, "one sample per RecorderEvent variant");
        for event in &events {
            roundtrip(event);
        }
    }

    #[test]
    fn scalar_and_enum_round_trips() {
        roundtrip(&SimTime::from_millis(u64::MAX / 2));
        roundtrip(&SimDuration::ZERO);
        roundtrip(&MachineId(u32::MAX));
        for kind in FaultKind::ALL {
            roundtrip(&kind);
        }
        for severity in Severity::ALL {
            roundtrip(&severity);
        }
        roundtrip(&RootCause::UserCode);
        roundtrip(&ResolutionMechanism::DualPhaseReplay);
        roundtrip(&Escalation::StressTestSweep);
        roundtrip(&Some("maybe".to_string()));
        roundtrip(&Option::<String>::None);
        roundtrip(&1.5f64);
        roundtrip(&0.1f64);
        roundtrip(&-3i64);
    }

    #[test]
    fn string_escaping_edge_cases_round_trip() {
        let cases = [
            "plain".to_string(),
            "with \"quotes\" and \\backslashes\\".to_string(),
            "newline\nreturn\rtab\tbackspace\u{08}formfeed\u{0C}".to_string(),
            "low controls: \u{01}\u{02}\u{1f}".to_string(),
            "non-ASCII: café 中文 κόσμος".to_string(),
            "astral: 🚂🔥 (surrogate-pair territory)".to_string(),
            String::new(),
            "ends with backslash \\".to_string(),
            "/slashes/ need no escape".to_string(),
        ];
        for case in &cases {
            roundtrip(case);
        }
    }

    #[test]
    fn parser_accepts_foreign_escapes_and_whitespace() {
        // Escaped solidus, \u escapes (including a surrogate pair), and
        // insignificant whitespace — all legal JSON this writer never emits
        // but an external producer might.
        let value = JsonValue::parse(
            " { \"a\" : \"\\/\\u0041\\ud83d\\ude80\" , \"b\" : [ 1 , -2 , 3.5 ] } ",
        )
        .expect("parses");
        assert_eq!(value.get("a").unwrap().as_str().unwrap(), "/A🚀");
        assert_eq!(
            value.get("b").unwrap(),
            &JsonValue::Array(vec![
                JsonValue::U64(1),
                JsonValue::I64(-2),
                JsonValue::F64(3.5)
            ])
        );
    }

    #[test]
    fn dossier_postmortem_and_store_round_trip() {
        let dossier = sample_dossier(42);
        roundtrip(&dossier);
        roundtrip(&Postmortem::for_dossier(&dossier));

        let mut store = IncidentStore::new();
        store.insert(sample_dossier(1));
        store.insert(sample_dossier(2));
        store.insert(sample_dossier(5));
        roundtrip(&store);

        let exported = store.export_json();
        let imported = IncidentStore::import_json(&exported).expect("import succeeds");
        assert_eq!(imported, store);
        assert_eq!(imported.export_json(), exported);
        // The postmortem rendered from the imported store is byte-identical.
        assert_eq!(
            imported.postmortem(5).unwrap().render(),
            store.postmortem(5).unwrap().render()
        );
    }

    #[test]
    fn corrupted_documents_fail_with_positioned_errors_not_panics() {
        let mut store = IncidentStore::new();
        store.insert(sample_dossier(1));
        let good = store.export_json();

        // Truncation: the parser reports where the text ended.
        let truncated = &good[..good.len() / 2];
        let err = IncidentStore::import_json(truncated).expect_err("truncated must fail");
        assert!(
            matches!(err.at, ErrorPosition::Byte { .. }),
            "truncation is a parse error with a byte position: {err}"
        );

        // A flipped structural character: positioned parse error.
        let flipped = good.replacen(':', ";", 1);
        let err = IncidentStore::import_json(&flipped).expect_err("corrupt must fail");
        let ErrorPosition::Byte { offset, line, .. } = err.at else {
            panic!("expected a byte-positioned error, got {err}");
        };
        assert!(offset > 0 && line >= 1);
        assert!(
            err.to_string().contains("line"),
            "error names its line: {err}"
        );

        // Well-formed JSON of the wrong shape: path-positioned decode error.
        let wrong_shape = good.replace("\"CudaError\"", "\"NotAFaultKind\"");
        let wrong_shape = wrong_shape.replace("\"JobHang\"", "\"NotAFaultKind\"");
        let err = IncidentStore::import_json(&wrong_shape).expect_err("bad enum must fail");
        let ErrorPosition::Path(path) = &err.at else {
            panic!("expected a path-positioned error, got {err}");
        };
        assert!(
            path.starts_with("dossiers[0]."),
            "decode error names the dossier path, got `{path}`"
        );

        // A foreign format header is rejected up front.
        let foreign = good.replace(STORE_FORMAT, "some-other-format");
        let err = IncidentStore::import_json(&foreign).expect_err("foreign format must fail");
        assert!(err.to_string().contains("unexpected format"), "{err}");

        // A future version is rejected, not misread.
        let future = good.replacen("\"version\":1", "\"version\":999", 1);
        let err = IncidentStore::import_json(&future).expect_err("future version must fail");
        assert!(err.to_string().contains("unsupported version"), "{err}");
    }

    #[test]
    fn parser_rejects_pathological_inputs_without_panicking() {
        for bad in [
            "",
            "   ",
            "{",
            "[1,",
            "{\"a\" 1}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "\"bad escape \\q\"",
            "\"lone surrogate \\ud800\"",
            "nul\u{0}l",
            "01x",
            "--5",
            "1e999",
        ] {
            let err = JsonValue::parse(bad).expect_err(bad);
            assert!(matches!(err.at, ErrorPosition::Byte { .. }), "{bad}: {err}");
        }
        // The depth bomb errors out instead of blowing the stack.
        let bomb = "[".repeat(MAX_DEPTH + 10);
        assert!(JsonValue::parse(&bomb).is_err());
    }

    #[test]
    fn deep_but_legal_nesting_parses() {
        let depth = MAX_DEPTH - 2;
        let doc = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&doc).is_ok());
    }
}
