//! A small, self-describing JSON codec for the incident subsystem.
//!
//! The workspace builds from its own crates alone, so this module is its
//! one serialization layer: warehouse disk-spill, incident-store export, and
//! the query, trace, alert and metrics documents all go through it. It has
//! two halves that share one wire format:
//!
//! - **Writing is one pass.** [`Encode::encode`] writes a value straight
//!   into a [`JsonWriter`], which owns the output `String` and keeps the
//!   comma state itself. Object keys are `&'static str`, integers are
//!   written without `fmt`, and strings are copied in runs of bytes that
//!   need no escape. No tree is built, so a spilled segment costs its text
//!   and nothing else.
//! - **Reading goes through a value model.** A positioned parser turns text
//!   into a [`JsonValue`] tree, and [`Decode`] impls read from it, so a
//!   decode error can name its JSON path. [`JsonValue`] is also
//!   [`Encode`], so a value still assembled as a tree renders through the
//!   same writer.
//!
//! [`Encode`]/[`Decode`] are implemented for every type an
//! [`IncidentDossier`] closes over.
//!
//! Design constraints, in priority order:
//!
//! 1. **Exact round-trip.** `from_json(&to_json(&x)) == x` for every
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
//!    (`dossiers[3].capture.evidence[2].event`). Nothing outside the codec API
//!    leaks its shape.
//!
//! # One wire schema per type
//!
//! Each wire shape is declared once.
//! [`struct_codec!`](crate::struct_codec) generates both impls for a struct
//! whose wire form is one member per field, keyed by the field name, in the
//! listed order. [`string_enum_codec!`](crate::string_enum_codec) does the
//! same for unit enums, keyed by variant name or by `label()`, and
//! [`tagged_enum_codec!`](crate::tagged_enum_codec) for enums with payloads
//! (`RecorderEvent`, `Detector`): a `type` member carries the variant's tag,
//! then one member per payload field. Every
//! top-level document goes through [`render_document`], which writes the
//! `format`/`version` header and then the body's members, and
//! [`parse_document`], which checks the header. A body is a closure that
//! writes members, so it cannot be anything but a member list; a
//! [`struct_codec!`](crate::struct_codec) type passes its
//! [`EncodeMembers`] impl.
//!
//! The impls still written by hand are the ones whose wire shape differs
//! from the in-memory type:
//!
//! - primitives, `str`, slices, `Option`, `SimTime`, `SimDuration` and
//!   `MachineId`: they are the leaves the macros build on. `String`,
//!   `Vec`, `Box` and `Arc` write what they point to, so a boxed slice
//!   travels exactly as a `Vec` and a boxed str exactly as a `String`;
//! - `FleetQuery` and `QueryResponse`: an `arm` tag selects a `body` whose
//!   shape differs per arm;
//! - `IncidentStore`: it holds shared dossiers and re-indexes them on
//!   decode, sharing one context allocation between neighbouring dossiers
//!   whose decoded contexts are equal, as the recorder does in memory;
//! - `HistogramSnapshot`: decode checks the bucket count;
//! - `EttrTracker`: it travels as a bare array of its `{duration,
//!   productive}` segments (in memory a segment packs both into one `u64`),
//!   and decode replays them to rederive its running end;
//! - `JobReport`: its incident records and loss curve are not written,
//!   since they are read off its incident store and MFU series, and decode
//!   derives them again;
//! - `WarehouseDigest`: its count pairs travel as named objects;
//! - `AlertQuery`: absent optional fields decode as `None`.

use std::fmt;
use std::sync::Arc;

use byterobust_agent::DiagnosisConclusion;
use byterobust_cluster::{FaultCategory, FaultKind, MachineId, RootCause};
use byterobust_parallelism::GroupKind;
use byterobust_recovery::FailoverCost;
use byterobust_sim::{SimDuration, SimTime};
use byterobust_telemetry::{EventKind, SystemEvent};

use crate::classify::Severity;
use crate::mechanism::ResolutionMechanism;
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
pub const FORMAT_VERSION: u64 = 3;

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
    /// (e.g. `dossiers[3].capture.evidence[2].event`). Empty at the root.
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
    /// A decode error at the current (relative) path root: the document
    /// root, until a caller up the decode stack prefixes its field or index.
    /// Callers layering their own validation on top of the codec (e.g.
    /// segment-file headers) use it too.
    pub fn other(message: impl Into<String>) -> CodecError {
        CodecError {
            at: ErrorPosition::Path(String::new()),
            message: message.into(),
        }
    }

    /// Prefixes a field name onto the error's path (decode errors only).
    pub fn in_field(mut self, field: &str) -> CodecError {
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
                JsonValue::Object(_) => Err(CodecError::other(format!("missing field `{key}`"))),
                other => Err(CodecError::other(format!(
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
            other => Err(CodecError::other(format!(
                "expected a string, found {}",
                other.kind()
            ))),
        }
    }

    /// The value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, CodecError> {
        match self {
            JsonValue::U64(n) => Ok(*n),
            other => Err(CodecError::other(format!(
                "expected an unsigned integer, found {}",
                other.kind()
            ))),
        }
    }

    /// Renders the value as a compact JSON document through the
    /// [`JsonWriter`]. Deterministic: equal values render to byte-identical
    /// text.
    pub fn render(&self) -> String {
        to_json(self)
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

impl Encode for JsonValue {
    fn encode(&self, w: &mut JsonWriter) {
        match self {
            JsonValue::Null => w.null(),
            JsonValue::Bool(b) => w.bool(*b),
            JsonValue::U64(n) => w.u64(*n),
            JsonValue::I64(n) => w.i64(*n),
            JsonValue::F64(x) => w.f64(*x),
            JsonValue::Str(s) => w.str(s),
            JsonValue::Array(items) => items.encode(w),
            JsonValue::Object(members) => w.object(|w| {
                for (key, value) in members {
                    w.dynamic_key(key);
                    value.encode(w);
                }
            }),
        }
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// The one-pass JSON writer every [`Encode`] impl writes into. It owns the
/// output text and the comma state, so an impl only says what comes next:
/// [`object`](JsonWriter::object) and [`array`](JsonWriter::array) around
/// a closure that writes the contents, [`member`](JsonWriter::member) for
/// a `"key":value` pair, and one call per scalar. The output is compact
/// (no whitespace) and deterministic.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next value or key at the current nesting level needs a
    /// leading comma. One flag is enough: opening a container clears it,
    /// and closing one sets it again, because the container was itself a
    /// value of its parent.
    needs_comma: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Starts a value: the comma that separates it from the one before.
    fn separate(&mut self) {
        if self.needs_comma {
            self.out.push(',');
        }
        self.needs_comma = true;
    }

    /// Writes an object whose members `members` writes.
    pub fn object(&mut self, members: impl FnOnce(&mut JsonWriter)) {
        self.separate();
        self.out.push('{');
        self.needs_comma = false;
        members(self);
        self.out.push('}');
        self.needs_comma = true;
    }

    /// Writes an array whose items `items` writes.
    pub fn array(&mut self, items: impl FnOnce(&mut JsonWriter)) {
        self.separate();
        self.out.push('[');
        self.needs_comma = false;
        items(self);
        self.out.push(']');
        self.needs_comma = true;
    }

    /// Writes an object key; the next value written is its member's value.
    /// Keys are identifiers in the source, which need no escape.
    pub fn key(&mut self, key: &'static str) {
        debug_assert!(
            key.bytes().all(|b| escape_of(b).is_none()),
            "object key `{key}` needs escaping"
        );
        self.separate();
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.needs_comma = false;
    }

    /// Writes a key that is data rather than source: escaped like a string.
    fn dynamic_key(&mut self, key: &str) {
        self.str(key);
        self.out.push(':');
        self.needs_comma = false;
    }

    /// Writes one `"key":value` object member.
    pub fn member<T: Encode + ?Sized>(&mut self, key: &'static str, value: &T) {
        self.key(key);
        value.encode(self);
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) {
        self.separate();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Writes a non-negative integer in decimal, without going through
    /// `fmt`.
    pub fn u64(&mut self, value: u64) {
        self.separate();
        push_decimal(&mut self.out, value);
    }

    /// Writes an integer in decimal.
    pub fn i64(&mut self, value: i64) {
        self.separate();
        if value < 0 {
            self.out.push('-');
        }
        push_decimal(&mut self.out, value.unsigned_abs());
    }

    /// Writes a finite float in Rust's shortest round-trip form, so the
    /// round trip is exact. Non-finite values are not representable in
    /// JSON; encoders in this workspace never produce them (asserted), and
    /// a release build writes `null`.
    pub fn f64(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "non-finite floats are not encodable");
        self.separate();
        if value.is_finite() {
            let _ = fmt::Write::write_fmt(&mut self.out, format_args!("{value:?}"));
        } else {
            self.out.push_str("null");
        }
    }

    /// Writes a string literal. Quotes, backslashes and control characters
    /// are escaped; everything else, DEL and non-ASCII included, is copied
    /// as it is, in whole runs between escapes.
    pub fn str(&mut self, value: &str) {
        self.separate();
        let out = &mut self.out;
        out.push('"');
        let mut run = 0;
        for (i, &byte) in value.as_bytes().iter().enumerate() {
            let Some(escape) = escape_of(byte) else {
                continue;
            };
            // `i` is an ASCII byte, so both ends of the run are char
            // boundaries.
            out.push_str(&value[run..i]);
            match escape {
                Escape::Short(text) => out.push_str(text),
                Escape::Unicode => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    out.push_str("\\u00");
                    out.push(char::from(HEX[usize::from(byte >> 4)]));
                    out.push(char::from(HEX[usize::from(byte & 0xf)]));
                }
            }
            run = i + 1;
        }
        out.push_str(&value[run..]);
        out.push('"');
    }
}

/// How one byte of a string is written, if not as itself.
enum Escape {
    /// A two-character escape such as `\n`.
    Short(&'static str),
    /// `\u00XX`, lowercase hex.
    Unicode,
}

/// The escape for one byte, or `None` when it is copied as it is. Every
/// byte that needs one is ASCII, so a multi-byte UTF-8 sequence is always
/// copied whole.
fn escape_of(byte: u8) -> Option<Escape> {
    match byte {
        b'"' => Some(Escape::Short("\\\"")),
        b'\\' => Some(Escape::Short("\\\\")),
        b'\n' => Some(Escape::Short("\\n")),
        b'\r' => Some(Escape::Short("\\r")),
        b'\t' => Some(Escape::Short("\\t")),
        0x08 => Some(Escape::Short("\\b")),
        0x0C => Some(Escape::Short("\\f")),
        0x00..=0x1F => Some(Escape::Unicode),
        _ => None,
    }
}

/// Appends `value` in decimal.
fn push_decimal(out: &mut String, mut value: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
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

/// Writes a value as JSON text, in one pass, through a [`JsonWriter`].
pub trait Encode {
    /// Writes `self` as one JSON value.
    fn encode(&self, w: &mut JsonWriter);
}

/// A value whose wire form is an object, written member by member. What
/// [`struct_codec!`](crate::struct_codec) generates beside [`Encode`], so
/// that the value can also be a document body ([`render_document`]).
pub trait EncodeMembers {
    /// Writes `self`'s members, without the braces around them.
    fn encode_members(&self, w: &mut JsonWriter);
}

/// Rebuilds a value from its [`JsonValue`] representation.
pub trait Decode: Sized {
    /// Decodes a value; errors name the offending JSON path.
    fn decode(value: &JsonValue) -> Result<Self, CodecError>;
}

/// Renders an encodable value as a compact JSON document.
pub fn to_json<T: Encode + ?Sized>(value: &T) -> String {
    let mut w = JsonWriter::new();
    value.encode(&mut w);
    w.finish()
}

/// Parses and decodes a JSON document in one step.
pub fn from_json<T: Decode>(text: &str) -> Result<T, CodecError> {
    T::decode(&JsonValue::parse(text)?)
}

/// Renders a top-level document: the `format`/`version` header, then the
/// members `body` writes, in order. [`parse_document`] reads it back.
pub fn render_document(format: &str, body: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.member("format", format);
        w.member("version", &FORMAT_VERSION);
        body(w);
    });
    w.finish()
}

/// Parses a document written by [`render_document`] and checks its
/// `format`/`version` header against `format` and [`FORMAT_VERSION`].
pub fn parse_document(text: &str, format: &str) -> Result<JsonValue, CodecError> {
    let document = JsonValue::parse(text)?;
    let found: String = document.field("format")?;
    if found != format {
        return Err(CodecError::other(format!(
            "unexpected format `{found}` (expected `{format}`)"
        ))
        .in_field("format"));
    }
    let version: u64 = document.field("version")?;
    if version != FORMAT_VERSION {
        return Err(CodecError::other(format!(
            "unsupported version {version} (this build reads version {FORMAT_VERSION})"
        ))
        .in_field("version"));
    }
    Ok(document)
}

impl Encode for bool {
    fn encode(&self, w: &mut JsonWriter) {
        w.bool(*self);
    }
}

impl Decode for bool {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        match value {
            JsonValue::Bool(b) => Ok(*b),
            other => Err(CodecError::other(format!(
                "expected a bool, found {}",
                other.kind()
            ))),
        }
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut JsonWriter) {
        w.u64(*self);
    }
}

impl Decode for u64 {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        value.as_u64()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut JsonWriter) {
        w.u64(u64::from(*self));
    }
}

impl Decode for u32 {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        u32::try_from(value.as_u64()?)
            .map_err(|_| CodecError::other("integer out of range for u32"))
    }
}

impl Encode for usize {
    fn encode(&self, w: &mut JsonWriter) {
        w.u64(*self as u64);
    }
}

impl Decode for usize {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        usize::try_from(value.as_u64()?)
            .map_err(|_| CodecError::other("integer out of range for usize"))
    }
}

impl Encode for i64 {
    fn encode(&self, w: &mut JsonWriter) {
        w.i64(*self);
    }
}

impl Decode for i64 {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        match value {
            JsonValue::I64(n) => Ok(*n),
            JsonValue::U64(n) => {
                i64::try_from(*n).map_err(|_| CodecError::other("integer out of range for i64"))
            }
            other => Err(CodecError::other(format!(
                "expected an integer, found {}",
                other.kind()
            ))),
        }
    }
}

impl Encode for f64 {
    fn encode(&self, w: &mut JsonWriter) {
        w.f64(*self);
    }
}

impl Decode for f64 {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        match value {
            JsonValue::F64(x) => Ok(*x),
            JsonValue::U64(n) => Ok(*n as f64),
            JsonValue::I64(n) => Ok(*n as f64),
            other => Err(CodecError::other(format!(
                "expected a number, found {}",
                other.kind()
            ))),
        }
    }
}

impl Encode for str {
    fn encode(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl Encode for String {
    fn encode(&self, w: &mut JsonWriter) {
        w.str(self);
    }
}

impl Decode for String {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(value.as_str()?.to_string())
    }
}

impl Decode for Box<str> {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(value.as_str()?.into())
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut JsonWriter) {
        w.array(|w| {
            for item in self {
                item.encode(w);
            }
        });
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut JsonWriter) {
        self.as_slice().encode(w);
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
            other => Err(CodecError::other(format!(
                "expected an array, found {}",
                other.kind()
            ))),
        }
    }
}

impl<T: Encode + ?Sized> Encode for Arc<T> {
    fn encode(&self, w: &mut JsonWriter) {
        (**self).encode(w);
    }
}

impl<T: Decode> Decode for Arc<[T]> {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Vec::decode(value).map(Arc::from)
    }
}

impl<T: Encode + ?Sized> Encode for Box<T> {
    fn encode(&self, w: &mut JsonWriter) {
        (**self).encode(w);
    }
}

impl<T: Decode> Decode for Box<[T]> {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Vec::decode(value).map(Vec::into_boxed_slice)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut JsonWriter) {
        match self {
            Some(value) => value.encode(w),
            None => w.null(),
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
    fn encode(&self, w: &mut JsonWriter) {
        w.u64(self.as_millis());
    }
}

impl Decode for SimTime {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(SimTime::from_millis(value.as_u64()?))
    }
}

impl Encode for SimDuration {
    fn encode(&self, w: &mut JsonWriter) {
        w.u64(self.as_millis());
    }
}

impl Decode for SimDuration {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(SimDuration::from_millis(value.as_u64()?))
    }
}

impl Encode for MachineId {
    fn encode(&self, w: &mut JsonWriter) {
        w.u64(u64::from(self.0));
    }
}

impl Decode for MachineId {
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        Ok(MachineId(u32::decode(value)?))
    }
}

/// Generates [`Encode`]/[`Decode`] impls for a unit enum that travels as a
/// string.
///
/// - `string_enum_codec!(Type { A, B })`: the variant name is the wire form;
///   an unknown name fails with ``unknown Type variant `name` ``.
/// - `string_enum_codec!(Type by label)`: the wire form is `Type::label()`,
///   and decoding searches `Type::ALL`; an unknown label fails with
///   ``unknown Type `label` ``.
#[macro_export]
macro_rules! string_enum_codec {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, w: &mut $crate::codec::JsonWriter) {
                w.str(match self {
                    $($ty::$variant => stringify!($variant),)+
                });
            }
        }

        impl $crate::codec::Decode for $ty {
            fn decode(
                value: &$crate::codec::JsonValue,
            ) -> Result<Self, $crate::codec::CodecError> {
                match value.as_str()? {
                    $(stringify!($variant) => Ok($ty::$variant),)+
                    other => Err($crate::codec::CodecError::other(format!(
                        concat!("unknown ", stringify!($ty), " variant `{}`"),
                        other
                    ))),
                }
            }
        }
    };
    ($ty:ident by label) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, w: &mut $crate::codec::JsonWriter) {
                w.str(self.label());
            }
        }

        impl $crate::codec::Decode for $ty {
            fn decode(
                value: &$crate::codec::JsonValue,
            ) -> Result<Self, $crate::codec::CodecError> {
                let text = value.as_str()?;
                $ty::ALL
                    .iter()
                    .find(|variant| variant.label() == text)
                    .copied()
                    .ok_or_else(|| {
                        $crate::codec::CodecError::other(format!(
                            concat!("unknown ", stringify!($ty), " `{}`"),
                            text
                        ))
                    })
            }
        }
    };
}

/// Generates [`Encode`]/[`EncodeMembers`]/[`Decode`] impls for a struct
/// whose wire form is an object with one member per listed field: the key is
/// the field name, in the listed order. Decoding reads the same keys in the same order, so a
/// missing or mistyped member fails with an error naming its path, and the
/// struct literal makes the compiler reject a list that omits a field.
///
/// ```
/// use byterobust_incident::codec::{from_json, to_json};
/// use byterobust_incident::struct_codec;
///
/// #[derive(Debug, PartialEq)]
/// struct Point {
///     x: u64,
///     label: String,
/// }
/// struct_codec!(Point { x, label });
///
/// let point = Point { x: 3, label: "a".to_string() };
/// assert_eq!(to_json(&point), r#"{"x":3,"label":"a"}"#);
/// assert_eq!(from_json::<Point>(r#"{"x":3,"label":"a"}"#).unwrap(), point);
/// ```
#[macro_export]
macro_rules! struct_codec {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::EncodeMembers for $ty {
            fn encode_members(&self, w: &mut $crate::codec::JsonWriter) {
                $(w.member(stringify!($field), &self.$field);)+
            }
        }

        impl $crate::codec::Encode for $ty {
            fn encode(&self, w: &mut $crate::codec::JsonWriter) {
                w.object(|w| $crate::codec::EncodeMembers::encode_members(self, w));
            }
        }

        impl $crate::codec::Decode for $ty {
            fn decode(
                value: &$crate::codec::JsonValue,
            ) -> Result<Self, $crate::codec::CodecError> {
                Ok($ty {
                    $($field: value.field(stringify!($field))?,)+
                })
            }
        }
    };
}

/// Generates [`Encode`]/[`Decode`] impls for an enum whose wire form is an
/// object tagged by a `type` member: the variant's tag, then one member per
/// payload field, keyed by the field name, in the listed order. Each variant
/// is declared once, with its tag; a struct variant lists its fields, and a
/// one-field tuple variant names the key its field travels under
/// (`Telemetry(event)`). Encoding is an exhaustive `match`, so a new variant
/// that is not listed does not compile. An unknown tag fails at path `type`
/// with ``unknown Type variant `tag` ``.
///
/// ```
/// use byterobust_incident::codec::{from_json, to_json};
/// use byterobust_incident::tagged_enum_codec;
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Circle { radius: u64 },
///     Named(String),
/// }
/// tagged_enum_codec!(Shape {
///     "circle" => Circle { radius },
///     "named" => Named(name),
/// });
///
/// let circle = Shape::Circle { radius: 2 };
/// assert_eq!(to_json(&circle), r#"{"type":"circle","radius":2}"#);
/// let named = from_json::<Shape>(r#"{"type":"named","name":"a"}"#).unwrap();
/// assert_eq!(named, Shape::Named("a".to_string()));
/// ```
#[macro_export]
macro_rules! tagged_enum_codec {
    ($ty:ident {
        $($tag:literal => $variant:ident $(($inner:ident))? $({ $($field:ident),+ $(,)? })?),+
        $(,)?
    }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, w: &mut $crate::codec::JsonWriter) {
                w.object(|w| match self {
                    $($ty::$variant $(($inner))? $({ $($field),+ })? => {
                        w.member("type", $tag);
                        $(w.member(stringify!($inner), $inner);)?
                        $($(w.member(stringify!($field), $field);)+)?
                    })+
                });
            }
        }

        impl $crate::codec::Decode for $ty {
            fn decode(
                value: &$crate::codec::JsonValue,
            ) -> Result<Self, $crate::codec::CodecError> {
                let tag: String = value.field("type")?;
                match tag.as_str() {
                    $($tag => Ok($ty::$variant
                        $((value.field(stringify!($inner))?))?
                        $({ $($field: value.field(stringify!($field))?),+ })?),)+
                    other => Err($crate::codec::CodecError::other(format!(
                        concat!("unknown ", stringify!($ty), " variant `{}`"),
                        other
                    ))
                    .in_field("type")),
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
// The variant names are the `Debug` names, which is how an analyzer
// decision's shared group has always been written.
string_enum_codec!(GroupKind {
    Tensor,
    Pipeline,
    Data,
    Expert,
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

// ---------------------------------------------------------------------------
// Structs
// ---------------------------------------------------------------------------

struct_codec!(FailoverCost {
    detection,
    localization,
    scheduling,
    pod_build,
    checkpoint_load,
    recompute,
});
struct_codec!(SystemEvent { at, kind, machine });

tagged_enum_codec!(RecorderEvent {
    "Telemetry" => Telemetry(event),
    "Detected" => Detected { kind, latency },
    "MonitorVerdict" => MonitorVerdict { machine, issue },
    "DiagnosisDecision" => DiagnosisDecision {
        conclusion,
        suspects,
        duration,
    },
    "AnalyzerDecision" => AnalyzerDecision {
        machines,
        shared_group,
        outlier_ranks,
        over_evicts,
    },
    "ReplayVerdict" => ReplayVerdict { suspects, duration },
    "PhaseTransition" => PhaseTransition { phase, duration },
    "Eviction" => Eviction {
        machine,
        over_eviction,
    },
    "Rollback" => Rollback { to_version },
    "HotUpdateApplied" => HotUpdateApplied { version },
    "Resumed" => Resumed { step },
    "CapacityStarvation" => CapacityStarvation {
        preempted,
        migrated,
        shortfall,
    },
});

struct_codec!(RecorderEntry { at, event });

struct_codec!(IncidentCapture { context, evidence });
struct_codec!(IncidentDossier {
    seq,
    at,
    kind,
    category,
    root_cause,
    concluded_cause,
    mechanism,
    cost,
    evicted,
    over_evicted,
    resumed_step,
    reproducible,
    capture,
});

impl EncodeMembers for IncidentStore {
    fn encode_members(&self, w: &mut JsonWriter) {
        w.member("dossiers", self.all());
    }
}

impl Encode for IncidentStore {
    fn encode(&self, w: &mut JsonWriter) {
        w.object(|w| self.encode_members(w));
    }
}

impl Decode for IncidentStore {
    /// Every dossier writes its context in full, but incidents opened while
    /// the recorder's ring was unchanged share one context allocation in
    /// memory. Decoding restores that sharing between neighbours: a dossier
    /// whose decoded context equals the previous dossier's takes the
    /// previous one's `Arc` and frees its own copy.
    fn decode(value: &JsonValue) -> Result<Self, CodecError> {
        let dossiers: Vec<IncidentDossier> = value.field("dossiers")?;
        let mut store = IncidentStore::new();
        let mut previous: Option<Arc<[RecorderEntry]>> = None;
        for mut dossier in dossiers {
            match &previous {
                Some(context) if *context == dossier.capture.context => {
                    dossier.capture.context = Arc::clone(context);
                }
                _ => previous = Some(Arc::clone(&dossier.capture.context)),
            }
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
        render_document(STORE_FORMAT, |w| self.encode_members(w))
    }

    /// Imports a store previously written by [`IncidentStore::export_json`].
    /// Never panics: corruption and shape mismatches come back as a
    /// positioned [`CodecError`].
    pub fn import_json(text: &str) -> Result<IncidentStore, CodecError> {
        IncidentStore::decode(&parse_document(text, STORE_FORMAT)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let capture = IncidentCapture {
            context: Arc::from([RecorderEntry {
                at: SimTime::from_hours(3),
                event: RecorderEvent::Telemetry(SystemEvent::new(
                    SimTime::from_hours(3),
                    EventKind::XidError,
                    MachineId(7),
                )),
            }]),
            // Every variant as evidence, the timeline variants included:
            // the codec writes the evidence as it is, whatever its kind.
            evidence: every_recorder_event()
                .into_iter()
                .map(|event| RecorderEntry {
                    at: SimTime::from_hours(3),
                    event,
                })
                .collect(),
        };
        IncidentDossier {
            seq,
            at: SimTime::from_hours(3),
            kind: FaultKind::JobHang,
            category: FaultCategory::Implicit,
            root_cause: RootCause::Infrastructure,
            concluded_cause: RootCause::Transient,
            mechanism: ResolutionMechanism::AnalyzerEviction,
            cost,
            evicted: Box::new([MachineId(7), MachineId(9)]),
            over_evicted: true,
            resumed_step: 4321,
            reproducible: false,
            capture,
        }
    }

    /// A monitor issue that exercises escaping and multi-byte UTF-8.
    const NON_ASCII_ISSUE: &str = "GPU \"fell\" off the bus\n\ttab & non-ASCII: héllo 中文 🚂";

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
                issue: NON_ASCII_ISSUE.into(),
            },
            RecorderEvent::DiagnosisDecision {
                conclusion: DiagnosisConclusion::FaultyMachines,
                suspects: Box::new([MachineId(1), MachineId(2)]),
                duration: SimDuration::from_mins(8),
            },
            RecorderEvent::AnalyzerDecision {
                machines: Box::new([MachineId(4), MachineId(6)]),
                shared_group: Some(GroupKind::Pipeline),
                outlier_ranks: 3,
                over_evicts: true,
            },
            RecorderEvent::AnalyzerDecision {
                machines: Box::new([]),
                shared_group: None,
                outlier_ranks: 0,
                over_evicts: false,
            },
            RecorderEvent::ReplayVerdict {
                suspects: Box::new([MachineId(11)]),
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
    fn an_unknown_tag_fails_at_path_type() {
        let text = to_json(&RecorderEvent::Resumed { step: 7 });
        let bad = text.replacen("\"Resumed\"", "\"Paused\"", 1);
        assert_ne!(bad, text, "the edit changed nothing");
        let err = from_json::<RecorderEvent>(&bad).expect_err("an unknown tag must fail");
        assert_eq!(err.at, ErrorPosition::Path("type".to_string()), "{err}");
        assert!(
            err.message
                .contains("unknown RecorderEvent variant `Paused`"),
            "{err}"
        );
    }

    #[test]
    fn every_group_kind_round_trips_through_an_analyzer_decision() {
        for group in [
            GroupKind::Tensor,
            GroupKind::Pipeline,
            GroupKind::Data,
            GroupKind::Expert,
        ] {
            let event = RecorderEvent::AnalyzerDecision {
                machines: Box::new([MachineId(1)]),
                shared_group: Some(group),
                outlier_ranks: 1,
                over_evicts: false,
            };
            roundtrip(&event);
            // The wire name is the `Debug` name every earlier build wrote.
            assert!(to_json(&event).contains(&format!("\"shared_group\":\"{group:?}\"")));
        }
    }

    #[test]
    fn an_unknown_shared_group_is_a_positioned_error() {
        let mut store = IncidentStore::new();
        store.insert(sample_dossier(1));
        let good = store.export_json();
        let needle = "\"shared_group\":\"Pipeline\"";
        assert!(good.contains(needle));
        let bad = good.replacen(needle, "\"shared_group\":\"PP\"", 1);
        let err = IncidentStore::import_json(&bad).expect_err("unknown group must fail");
        let ErrorPosition::Path(path) = &err.at else {
            panic!("expected a path-positioned error, got {err}");
        };
        assert!(path.ends_with("shared_group"), "{path}");
        assert!(err.message.contains("`PP`"), "{err}");
    }

    #[test]
    fn boxed_payloads_travel_exactly_as_vec_and_string() {
        let boxed: Box<str> = NON_ASCII_ISSUE.into();
        roundtrip(&boxed);
        assert_eq!(to_json(&boxed), to_json(&NON_ASCII_ISSUE.to_string()));
        let event = RecorderEvent::MonitorVerdict {
            machine: MachineId(5),
            issue: NON_ASCII_ISSUE.into(),
        };
        let text = to_json(&event);
        let RecorderEvent::MonitorVerdict { issue, .. } = from_json(&text).expect("decodes") else {
            panic!("decoded a different variant from {text}");
        };
        assert_eq!(issue.as_bytes(), NON_ASCII_ISSUE.as_bytes());

        let machines: Box<[MachineId]> = Box::new([MachineId(4), MachineId(6)]);
        roundtrip(&machines);
        assert_eq!(to_json(&machines), to_json(&machines.to_vec()));
        roundtrip(&Box::<[MachineId]>::default());
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
    fn writer_escapes_every_ascii_char_and_copies_the_rest_byte_for_byte() {
        // The exact bytes written for U+0000..U+001F, in order.
        const CONTROLS: [&str; 32] = [
            r"\u0000", r"\u0001", r"\u0002", r"\u0003", r"\u0004", r"\u0005", r"\u0006", r"\u0007",
            r"\b", r"\t", r"\n", r"\u000b", r"\f", r"\r", r"\u000e", r"\u000f", r"\u0010",
            r"\u0011", r"\u0012", r"\u0013", r"\u0014", r"\u0015", r"\u0016", r"\u0017", r"\u0018",
            r"\u0019", r"\u001a", r"\u001b", r"\u001c", r"\u001d", r"\u001e", r"\u001f",
        ];
        let mut all = String::new();
        let mut expected_all = String::from("\"");
        for code in 0u8..0x80 {
            let c = char::from(code);
            let expected = match c {
                '"' => r#"\""#.to_string(),
                '\\' => r"\\".to_string(),
                _ if code < 0x20 => CONTROLS[usize::from(code)].to_string(),
                // Printable ASCII and DEL are written as they are.
                _ => c.to_string(),
            };
            assert_eq!(
                to_json(&c.to_string()),
                format!("\"{expected}\""),
                "U+{code:04X}"
            );
            all.push(c);
            expected_all.push_str(&expected);
        }
        expected_all.push('"');
        // Escapes interleaved with plain runs, in one string.
        assert_eq!(to_json(&all), expected_all);
        roundtrip(&all);

        // Non-ASCII is copied as raw UTF-8, whole, between escapes.
        for (sample, expected) in [
            ("é", "\"é\""),
            ("中文", "\"中文\""),
            ("🚂🔥", "\"🚂🔥\""),
            ("a\u{7f}é\n🚂\"中", "\"a\u{7f}é\\n🚂\\\"中\""),
            ("\u{1}κόσμος\u{1f}", "\"\\u0001κόσμος\\u001f\""),
        ] {
            assert_eq!(to_json(sample), expected, "{sample:?}");
        }
        // A key that is data (a parsed object's) is escaped like a string.
        let object = JsonValue::Object(vec![("a\"b\n".to_string(), JsonValue::U64(1))]);
        assert_eq!(object.render(), r#"{"a\"b\n":1}"#);
    }

    #[test]
    fn writer_separates_nested_and_empty_containers() {
        let mut w = JsonWriter::new();
        w.array(|w| {
            w.array(|_| {});
            w.object(|_| {});
            w.array(|w| {
                w.u64(0);
                w.object(|w| {
                    w.key("a");
                    w.array(|_| {});
                    w.member("b", &u64::MAX);
                    w.member("c", &i64::MIN);
                    w.member("d", &None::<u64>);
                });
                w.bool(false);
            });
            w.f64(0.1);
            w.str("");
        });
        assert_eq!(
            w.finish(),
            r#"[[],{},[0,{"a":[],"b":18446744073709551615,"c":-9223372036854775808,"d":null},false],0.1,""]"#
        );
        let header_only = render_document("empty", |_| {});
        assert_eq!(
            header_only,
            format!(r#"{{"format":"empty","version":{FORMAT_VERSION}}}"#)
        );
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
        let current = format!("\"version\":{FORMAT_VERSION}");
        let future = good.replacen(&current, &format!("\"version\":{}", FORMAT_VERSION + 1), 1);
        assert_ne!(future, good, "the document has no `{current}` header");
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
