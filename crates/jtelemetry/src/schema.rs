//! Schema validation for the two machine-readable export formats.
//!
//! CI runs a short campaign with `--metrics-out`, then feeds the outputs
//! to `jtelemetry-check`, which calls [`validate_snapshot_line`] and
//! [`validate_prometheus`]. Validation is strict — unknown counter/gauge
//! keys, missing families, or a version bump without a schema update all
//! fail — so writer/reader drift is caught the moment it is introduced.
//!
//! The JSON parser below is the workspace's one JSON reader — telemetry
//! exports, campaign journals, corpus manifests and the daemon's request
//! bodies all go through [`parse_json`]. It is a deliberately small
//! hand-rolled subset (objects, arrays, strings, numbers, bools, null):
//! the workspace is dependency-free by construction.

use crate::export::PROM_PREFIX;
use crate::metrics::{Counter, Gauge, HIST_BUCKETS, SCHEMA_VERSION};
use std::collections::BTreeMap;

/// A parsed JSON value. Numbers keep their source text, so `u64` and
/// `f64` values both read back exactly (an `f64` holds integers only up
/// to 2^53); the typed accessors convert on demand and refuse what does
/// not fit.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// The number as written, already checked to read as an `f64`.
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The number as a `T`, when its text is exactly such a value: an
    /// integer accessor refuses fractions, exponents, signs and overflow.
    fn num<T: std::str::FromStr>(&self) -> Option<T> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        self.num()
    }

    pub fn as_u32(&self) -> Option<u32> {
        self.num()
    }

    pub fn as_usize(&self) -> Option<usize> {
        self.num()
    }

    /// The number as an `f64` (non-finite spellings included).
    pub fn as_f64(&self) -> Option<f64> {
        self.num()
    }
}

/// Member `key` of `obj`, or an error naming it.
pub fn req<'j>(obj: &'j Json, key: &str) -> Result<&'j Json, String> {
    obj.get(key).ok_or_else(|| format!("missing field {key:?}"))
}

/// String member `key` of `obj`.
pub fn req_str(obj: &Json, key: &str) -> Result<String, String> {
    req(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field {key:?} is not a string"))
}

/// Non-negative integer member `key` of `obj`, exact to the last bit.
pub fn req_u64(obj: &Json, key: &str) -> Result<u64, String> {
    req(obj, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not a u64"))
}

/// Numeric member `key` of `obj`.
pub fn req_f64(obj: &Json, key: &str) -> Result<f64, String> {
    req(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

/// Escapes `s` for a JSON string literal, without the surrounding quotes:
/// `"`, `\` and control characters (`\n`, `\r`, `\t` by name, the rest
/// as `\u00XX`). The one JSON string escaper every hand-written JSON
/// document of the workspace goes through — telemetry exports, campaign
/// journals, corpus manifests and the daemon's responses.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Deepest array/object nesting [`parse_json`] accepts. Documents this
/// workspace writes nest a few levels; the limit bounds the recursive
/// parser's stack use on hostile input, such as an HTTP body of a
/// million `[`.
pub const MAX_JSON_DEPTH: usize = 64;

/// Why [`parse_json`] rejected a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonError {
    /// Malformed text.
    Syntax(String),
    /// Arrays and objects nest deeper than [`MAX_JSON_DEPTH`].
    TooDeep {
        /// Byte offset of the bracket that crossed the limit.
        pos: usize,
    },
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(msg) => f.write_str(msg),
            JsonError::TooDeep { pos } => write!(
                f,
                "json parse error at byte {pos}: nesting deeper than {MAX_JSON_DEPTH} levels"
            ),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, what: &str) -> JsonError {
        JsonError::Syntax(format!("json parse error at byte {}: {what}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9' | b'N' | b'i') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses one array or object, one level deeper.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(JsonError::TooDeep { pos: self.pos });
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// A number, kept as its text. Besides JSON's own syntax this takes
    /// the non-finite spellings Rust's `{:?}` writes (`NaN`, `inf`,
    /// `-inf`), which journals carry for degenerate deltas.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let rest = &self.text[start..];
        if let Some(word) = ["NaN", "inf", "-inf"]
            .into_iter()
            .find(|w| rest.starts_with(w))
        {
            self.pos += word.len();
        } else {
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            ) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(_) => Ok(Json::Num(text.to_string())),
            Err(_) => Err(self.err(&format!("bad number '{text}'"))),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or escape in one go: both
            // are ASCII, so the run ends on a character boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .ok_or_else(|| self.err("bad \\u escape"))?;
                    let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                    // Only control characters are ever written as `\u`, so
                    // a surrogate (or any non-scalar) is corruption.
                    let c = char::from_u32(code)
                        .ok_or_else(|| self.err(&format!("invalid code point {code:#x}")))?;
                    out.push(c);
                    self.pos += 4;
                }
                _ => return Err(self.err("bad escape")),
            }
            self.pos += 1;
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed).
pub fn parse_json(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser::new(text);
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after value"));
    }
    Ok(value)
}

fn want<'a>(obj: &'a Json, key: &str, typ: &str) -> Result<&'a Json, String> {
    let v = obj.get(key).ok_or_else(|| format!("missing key '{key}'"))?;
    if v.type_name() != typ {
        return Err(format!(
            "key '{key}': expected {typ}, got {}",
            v.type_name()
        ));
    }
    Ok(v)
}

fn want_arr<'a>(obj: &'a Json, key: &str) -> Result<&'a [Json], String> {
    Ok(want(obj, key, "array")?.as_arr().unwrap_or_default())
}

/// A finite number: exports never write `NaN` or infinities, so one is
/// drift even though the parser reads them.
fn want_num(obj: &Json, key: &str) -> Result<f64, String> {
    match want(obj, key, "number")?.as_f64() {
        Some(n) if n.is_finite() => Ok(n),
        _ => Err(format!("key '{key}': expected a finite number")),
    }
}

fn check_key_set(obj: &Json, what: &str, expected: &[&str]) -> Result<(), String> {
    let map = match obj {
        Json::Obj(map) => map,
        _ => return Err(format!("{what}: expected object")),
    };
    for key in expected {
        if !map.contains_key(*key) {
            return Err(format!("{what}: missing key '{key}'"));
        }
    }
    for key in map.keys() {
        if !expected.contains(&key.as_str()) {
            return Err(format!("{what}: unknown key '{key}' (schema drift?)"));
        }
    }
    Ok(())
}

/// Validates one JSONL telemetry snapshot line against the current
/// schema. Strict: unknown counters/gauges or missing fields fail.
pub fn validate_snapshot_line(line: &str) -> Result<(), String> {
    let root = parse_json(line)?;
    match want(&root, "type", "string")? {
        Json::Str(s) if s == "telemetry" => {}
        other => return Err(format!("type: expected \"telemetry\", got {other:?}")),
    }
    let version = want_num(&root, "version")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!(
            "version: expected {SCHEMA_VERSION}, got {version} (schema drift?)"
        ));
    }
    want_num(&root, "elapsed_nanos")?;

    let counter_keys: Vec<&str> = Counter::ALL.iter().map(Counter::key).collect();
    check_key_set(
        want(&root, "counters", "object")?,
        "counters",
        &counter_keys,
    )?;
    let counters = root.get("counters").expect("checked");
    for key in &counter_keys {
        want_num(counters, key)?;
    }
    // Every execution-memo lookup is one tier run, executed or replayed,
    // and every tier run counts as an interpreter run.
    let memo = want_num(counters, "exec_memo_hits")? + want_num(counters, "exec_memo_misses")?;
    let runs = want_num(counters, "interp_runs")?;
    if memo > runs {
        return Err(format!(
            "counters: exec_memo_hits + exec_memo_misses = {memo} exceeds interp_runs = {runs}"
        ));
    }
    let gauge_keys: Vec<&str> = Gauge::ALL.iter().map(Gauge::key).collect();
    check_key_set(want(&root, "gauges", "object")?, "gauges", &gauge_keys)?;
    for key in &gauge_keys {
        want_num(root.get("gauges").expect("checked"), key)?;
    }

    let spans = want_arr(&root, "spans")?;
    for (i, span) in spans.iter().enumerate() {
        check_key_set(
            span,
            &format!("spans[{i}]"),
            &[
                "name",
                "count",
                "total_nanos",
                "self_nanos",
                "max_nanos",
                "buckets",
            ],
        )?;
        want(span, "name", "string")?;
        want_num(span, "count")?;
        want_num(span, "total_nanos")?;
        want_num(span, "self_nanos")?;
        want_num(span, "max_nanos")?;
        let buckets = want_arr(span, "buckets")?;
        if buckets.len() != HIST_BUCKETS {
            return Err(format!(
                "spans[{i}]: expected {HIST_BUCKETS} buckets, got {}",
                buckets.len()
            ));
        }
        if !buckets
            .iter()
            .all(|b| b.as_f64().is_some_and(f64::is_finite))
        {
            return Err(format!("spans[{i}]: non-numeric bucket"));
        }
    }

    let mutators = want_arr(&root, "mutators")?;
    for (i, m) in mutators.iter().enumerate() {
        check_key_set(
            m,
            &format!("mutators[{i}]"),
            &["name", "applies", "accepted", "rejected", "yield_sum"],
        )?;
        want(m, "name", "string")?;
        for key in ["applies", "accepted", "rejected", "yield_sum"] {
            want_num(m, key)?;
        }
    }

    let opcodes = want_arr(&root, "opcodes")?;
    for (i, o) in opcodes.iter().enumerate() {
        check_key_set(o, &format!("opcodes[{i}]"), &["name", "hits", "nanos"])?;
        want(o, "name", "string")?;
        want_num(o, "hits")?;
        want_num(o, "nanos")?;
    }

    let superops = want_arr(&root, "superops")?;
    for (i, s) in superops.iter().enumerate() {
        check_key_set(
            s,
            &format!("superops[{i}]"),
            &["kind", "comp", "hits", "nanos"],
        )?;
        want(s, "kind", "string")?;
        let comp = want_arr(s, "comp")?;
        if comp.is_empty() {
            return Err(format!("superops[{i}]: empty comp"));
        }
        if comp.iter().any(|n| n.as_str().is_none()) {
            return Err(format!("superops[{i}]: non-string opcode in comp"));
        }
        want_num(s, "hits")?;
        want_num(s, "nanos")?;
    }

    check_key_set(
        &root,
        "snapshot",
        &[
            "type",
            "version",
            "elapsed_nanos",
            "counters",
            "gauges",
            "spans",
            "mutators",
            "opcodes",
            "superops",
        ],
    )
}

/// Validates a Chrome trace-event JSON document produced by
/// [`crate::export::trace_json`]: the two top-level keys, per-event key
/// sets and types, `ph` limited to complete spans (`X`) and instants
/// (`i`), lane-unique ids, and — the property Perfetto cannot check for
/// us — that every non-zero `parent` id resolves to an event on the
/// same lane (no dangling parent links).
pub fn validate_trace(text: &str) -> Result<(), String> {
    let root = parse_json(text)?;
    check_key_set(&root, "trace", &["traceEvents", "otherData"])?;
    let events = want_arr(&root, "traceEvents")?;
    let other = want(&root, "otherData", "object")?;
    match other.get("schema_version") {
        Some(Json::Str(v)) if *v == SCHEMA_VERSION.to_string() => {}
        Some(Json::Str(v)) => {
            return Err(format!(
                "otherData.schema_version {v} != {SCHEMA_VERSION} (schema drift?)"
            ))
        }
        _ => return Err("otherData: missing string 'schema_version'".to_string()),
    }
    match other.get("clock") {
        Some(Json::Str(v)) if v == "manual" || v == "wall" => {}
        other => {
            return Err(format!(
                "otherData.clock: expected manual|wall, got {other:?}"
            ))
        }
    }

    let mut ids: std::collections::BTreeMap<(u64, u64), ()> = std::collections::BTreeMap::new();
    let mut links: Vec<(usize, u64, u64)> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let at = |msg: String| format!("traceEvents[{i}]: {msg}");
        let ph = want(event, "ph", "string").map_err(at)?.as_str();
        let keys: &[&str] = match ph.unwrap_or_default() {
            "X" => &["name", "ph", "ts", "dur", "pid", "tid", "args"],
            "i" => &["name", "ph", "s", "ts", "pid", "tid", "args"],
            other => return Err(at(format!("bad ph '{other}' (want X or i)"))),
        };
        check_key_set(event, &format!("traceEvents[{i}]"), keys)?;
        want(event, "name", "string").map_err(at)?;
        want_num(event, "ts").map_err(at)?;
        let pid = want_num(event, "pid").map_err(at)? as u64;
        want_num(event, "tid").map_err(at)?;
        if ph == Some("X") {
            want_num(event, "dur").map_err(at)?;
        }
        let args = want(event, "args", "object").map_err(at)?;
        let id_of = |key: &str| -> Result<u64, String> {
            match args.get(key) {
                Some(Json::Str(s)) => s
                    .parse::<u64>()
                    .map_err(|_| at(format!("args.{key} '{s}' is not a u64"))),
                _ => Err(at(format!("args: missing string '{key}'"))),
            }
        };
        let id = id_of("id")?;
        let parent = id_of("parent")?;
        if id == 0 {
            return Err(at("args.id must be non-zero".to_string()));
        }
        if ids.insert((pid, id), ()).is_some() {
            return Err(at(format!("duplicate id {id} on lane {pid}")));
        }
        links.push((i, pid, parent));
    }
    for (i, pid, parent) in links {
        if parent != 0 && !ids.contains_key(&(pid, parent)) {
            return Err(format!(
                "traceEvents[{i}]: dangling parent id {parent} on lane {pid}"
            ));
        }
    }
    Ok(())
}

/// Parses the inner text of a `{...}` label set into `(key, value)` pairs,
/// undoing the exposition format's `\\`, `\"`, and `\n` escapes.
fn parse_labels(s: &str) -> Result<Vec<(String, String)>, String> {
    let bytes = s.as_bytes();
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < bytes.len() {
        let start = pos;
        while pos < bytes.len() && bytes[pos] != b'=' {
            pos += 1;
        }
        if pos >= bytes.len() {
            return Err("label missing '='".to_string());
        }
        let key = s[start..pos].to_string();
        pos += 1;
        if bytes.get(pos) != Some(&b'"') {
            return Err(format!("label '{key}' value not quoted"));
        }
        pos += 1;
        let mut value = String::new();
        loop {
            match bytes.get(pos) {
                None => return Err(format!("label '{key}' value unterminated")),
                Some(b'\\') => {
                    match bytes.get(pos + 1) {
                        Some(b'"') => value.push('"'),
                        Some(b'\\') => value.push('\\'),
                        Some(b'n') => value.push('\n'),
                        _ => return Err(format!("label '{key}' has a bad escape")),
                    }
                    pos += 2;
                }
                Some(b'"') => {
                    pos += 1;
                    break;
                }
                Some(_) => {
                    let c = s[pos..].chars().next().expect("non-empty");
                    value.push(c);
                    pos += c.len_utf8();
                }
            }
        }
        out.push((key, value));
        match bytes.get(pos) {
            None => break,
            Some(b',') => pos += 1,
            _ => return Err("expected ',' between labels".to_string()),
        }
    }
    Ok(out)
}

/// Splits one exposition sample line into `(family, labels, value)`,
/// scanning the optional label set with quote/escape awareness: inside
/// a quoted label value, spaces and `}` are data and `\"`/`\\`/`\n` are
/// escapes. Unterminated quotes or label sets are rejected — which is
/// exactly what un-escaped quotes in a label value degenerate into.
fn split_sample_line(line: &str) -> Result<(&str, Option<&str>, &str), String> {
    let bytes = line.as_bytes();
    let mut pos = 0;
    while pos < bytes.len() && bytes[pos] != b' ' && bytes[pos] != b'{' {
        pos += 1;
    }
    if pos == 0 {
        return Err("sample line has no metric name".to_string());
    }
    let family = &line[..pos];
    let labels = if bytes.get(pos) == Some(&b'{') {
        let start = pos + 1;
        pos += 1;
        let mut in_quotes = false;
        loop {
            match bytes.get(pos) {
                None => {
                    return Err(if in_quotes {
                        "unterminated quote in label value (unescaped '\"'?)".to_string()
                    } else {
                        "unterminated label set".to_string()
                    })
                }
                Some(b'"') => {
                    in_quotes = !in_quotes;
                    pos += 1;
                }
                Some(b'\\') if in_quotes => {
                    pos += 1;
                    // Only an escaped quote/backslash alters scanning;
                    // other escape bytes are judged by `parse_labels`.
                    if matches!(bytes.get(pos), Some(b'"' | b'\\')) {
                        pos += 1;
                    }
                }
                Some(b'}') if !in_quotes => break,
                Some(_) => pos += 1,
            }
        }
        let text = &line[start..pos];
        pos += 1;
        Some(text)
    } else {
        None
    };
    let rest = &line[pos..];
    let Some(value) = rest.strip_prefix(' ') else {
        return Err("sample line has no value".to_string());
    };
    let value = value.trim();
    if value.is_empty() {
        return Err("sample line has no value".to_string());
    }
    Ok((family, labels, value))
}

/// Accumulated samples of one histogram series (one base family + one
/// non-`le` label combination).
#[derive(Default)]
struct HistSeries {
    /// `(le, cumulative count)` in emission order.
    buckets: Vec<(String, f64)>,
    sum: Option<f64>,
    count: Option<f64>,
}

/// Validates a Prometheus-style text page: every sample belongs to a
/// declared `# TYPE` family, every name carries the `mop_` prefix, all
/// expected families are present, histogram series are cumulative and
/// consistent (`_bucket` monotone, `+Inf` == `_count`), and
/// `mop_schema_version` matches.
pub fn validate_prometheus(page: &str) -> Result<(), String> {
    let mut declared: Vec<(String, String)> = Vec::new();
    let mut sampled: Vec<String> = Vec::new();
    let mut schema_version: Option<f64> = None;
    let mut histograms: BTreeMap<(String, String), HistSeries> = BTreeMap::new();

    for (lineno, line) in page.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("prometheus line {}: {msg}", lineno + 1);
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts
                .next()
                .ok_or_else(|| at("missing family name".to_string()))?;
            let typ = parts
                .next()
                .ok_or_else(|| at("missing family type".to_string()))?;
            if !matches!(typ, "counter" | "gauge" | "histogram") {
                return Err(at(format!("bad family type '{typ}'")));
            }
            if !name.starts_with(PROM_PREFIX) {
                return Err(at(format!("family '{name}' lacks {PROM_PREFIX} prefix")));
            }
            declared.push((name.to_string(), typ.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are fine
        }
        // Sample line: name[{labels}] value. The split must be
        // label-set aware: label *values* legally contain spaces and
        // '}' inside their quotes, so naive first-space / ends-with-'}'
        // parsing either rejects valid exposition or mis-splits it.
        let (family, labels_text, value_part) = split_sample_line(line).map_err(at)?;
        if !family.starts_with(PROM_PREFIX) {
            return Err(at(format!("sample '{family}' lacks {PROM_PREFIX} prefix")));
        }
        let value: f64 = value_part
            .parse()
            .map_err(|_| at(format!("bad sample value '{value_part}'")))?;
        // An exact declaration wins (so a gauge legitimately named
        // `*_count` is not mistaken for a histogram series); otherwise a
        // `_bucket`/`_sum`/`_count` suffix resolves to its histogram base.
        if declared.iter().any(|(d, _)| d == family) {
            // Labels still have to escape cleanly even when the family
            // needs no further interpretation.
            if let Some(text) = labels_text {
                parse_labels(text).map_err(at)?;
            }
            if family == format!("{PROM_PREFIX}schema_version") {
                schema_version = Some(value);
            }
            sampled.push(family.to_string());
            continue;
        }
        let hist = ["_bucket", "_sum", "_count"].iter().find_map(|suffix| {
            let base = family.strip_suffix(suffix)?;
            declared
                .iter()
                .any(|(d, t)| d == base && t == "histogram")
                .then(|| (base.to_string(), *suffix))
        });
        let Some((base, suffix)) = hist else {
            return Err(at(format!("sample '{family}' has no # TYPE declaration")));
        };
        let mut labels = match labels_text {
            Some(text) => parse_labels(text).map_err(at)?,
            None => Vec::new(),
        };
        let le = match suffix {
            "_bucket" => {
                let pos = labels
                    .iter()
                    .position(|(k, _)| k == "le")
                    .ok_or_else(|| at(format!("'{family}' bucket sample has no 'le' label")))?;
                let (_, le) = labels.remove(pos);
                if le != "+Inf" && le.parse::<f64>().is_err() {
                    return Err(at(format!("'{family}' has bad le value '{le}'")));
                }
                Some(le)
            }
            _ => None,
        };
        labels.sort();
        let series_key = labels
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Vec<_>>()
            .join(",");
        let series = histograms.entry((base.clone(), series_key)).or_default();
        match suffix {
            "_bucket" => series.buckets.push((le.expect("bucket has le"), value)),
            "_sum" => series.sum = Some(value),
            _ => series.count = Some(value),
        }
        sampled.push(base);
    }

    for ((family, series), hist) in &histograms {
        let fail = |msg: String| format!("prometheus histogram {family}{{{series}}}: {msg}");
        if hist.buckets.is_empty() {
            return Err(fail("no _bucket samples".to_string()));
        }
        for pair in hist.buckets.windows(2) {
            if pair[1].1 < pair[0].1 {
                return Err(fail(format!(
                    "buckets not cumulative: le={} count {} < le={} count {}",
                    pair[1].0, pair[1].1, pair[0].0, pair[0].1
                )));
            }
        }
        let (last_le, last_count) = hist.buckets.last().expect("non-empty");
        if last_le != "+Inf" {
            return Err(fail(format!("last bucket le is '{last_le}', not '+Inf'")));
        }
        let count = hist
            .count
            .ok_or_else(|| fail("missing _count sample".to_string()))?;
        if hist.sum.is_none() {
            return Err(fail("missing _sum sample".to_string()));
        }
        if *last_count != count {
            return Err(fail(format!(
                "+Inf bucket ({last_count}) != _count ({count})"
            )));
        }
    }

    let mut expected: Vec<String> = vec![
        format!("{PROM_PREFIX}schema_version"),
        format!("{PROM_PREFIX}elapsed_nanos"),
    ];
    expected.extend(
        Counter::ALL
            .iter()
            .map(|c| format!("{PROM_PREFIX}{}", c.key())),
    );
    expected.extend(
        Gauge::ALL
            .iter()
            .map(|g| format!("{PROM_PREFIX}{}", g.key())),
    );
    for family in &expected {
        if !sampled.iter().any(|s| s == family) {
            return Err(format!(
                "prometheus page: missing expected family '{family}' (schema drift?)"
            ));
        }
    }
    match schema_version {
        Some(v) if v == SCHEMA_VERSION as f64 => Ok(()),
        Some(v) => Err(format!(
            "prometheus page: schema_version {v} != {SCHEMA_VERSION}"
        )),
        None => Err("prometheus page: no mop_schema_version sample".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_basic_values() {
        let v = parse_json(r#"{"a":[1,2.5,-3],"b":"x\"y","c":true,"d":null}"#).unwrap();
        assert_eq!(v.get("b"), Some(&Json::Str("x\"y".to_string())));
        assert_eq!(v.get("c"), Some(&Json::Bool(true)));
        assert_eq!(v.get("d"), Some(&Json::Null));
        match v.get("a") {
            Some(Json::Arr(items)) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{}extra").is_err());
        assert!(parse_json("tru").is_err());
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nest(MAX_JSON_DEPTH)).is_ok());
        assert_eq!(
            parse_json(&nest(MAX_JSON_DEPTH + 1)),
            Err(JsonError::TooDeep {
                pos: MAX_JSON_DEPTH
            })
        );
        // A megabyte of `[` is rejected without recursing a million deep.
        let hostile = "[".repeat(1 << 20);
        assert!(matches!(
            parse_json(&hostile),
            Err(JsonError::TooDeep { .. })
        ));
        assert!(matches!(
            parse_json(&"{\"a\":".repeat(1 << 16)),
            Err(JsonError::TooDeep { .. })
        ));
    }

    #[test]
    fn numbers_keep_their_text() {
        let v = parse_json(
            r#"{"big":9007199254740993,"max":18446744073709551615,"over":18446744073709551616,
                "neg":-1,"frac":1.5,"exp":1e300,"nan":NaN,"inf":inf,"ninf":-inf}"#,
        )
        .unwrap();
        let num = |key: &str| v.get(key).unwrap();
        assert_eq!(num("big").as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(num("max").as_u64(), Some(u64::MAX));
        assert_eq!(req_u64(&v, "max"), Ok(u64::MAX));
        for inexact in ["over", "neg", "frac", "exp", "nan"] {
            assert_eq!(num(inexact).as_u64(), None, "{inexact}");
            assert!(req_u64(&v, inexact).is_err(), "{inexact}");
        }
        assert_eq!(num("big").as_u32(), None);
        assert_eq!(num("frac").as_f64(), Some(1.5));
        assert!(num("nan").as_f64().unwrap().is_nan());
        assert_eq!(num("inf").as_f64(), Some(f64::INFINITY));
        assert_eq!(req_f64(&v, "ninf"), Ok(f64::NEG_INFINITY));
        assert_eq!(
            req_f64(&v, "missing"),
            Err("missing field \"missing\"".to_string())
        );
        // `{:?}`'s spellings only: nothing longer, nothing negated twice.
        for bad in ["nan", "-NaN", "infinity", "Inf", "+1", "-", "1e"] {
            assert!(parse_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\r\t\u{1}é"), "\\r\\t\\u0001é");
        for text in [
            "q\"\\\u{1f}\n",
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "newline\nand\ttab and \r return",
            "control \u{1} char and unicode \u{fffd} é 日本",
            "",
        ] {
            let quoted = format!("\"{}\"", escape_json(text));
            assert_eq!(
                parse_json(&quoted),
                Ok(Json::Str(text.to_string())),
                "{text:?}"
            );
        }
        assert_eq!(
            parse_json(r#""\b\f\/\u00e9""#),
            Ok(Json::Str("\u{8}\u{c}/é".to_string()))
        );
        // A `\u` escape naming no scalar value is corruption, not U+FFFD.
        assert!(parse_json(r#""\ud800""#).is_err());
        assert!(parse_json(r#""\u12""#).is_err());
        assert!(parse_json(r#""\u+041""#).is_err());
    }

    #[test]
    fn validator_rejects_wrong_version() {
        let snap = crate::metrics::MetricsSnapshot {
            schema_version: SCHEMA_VERSION + 1,
            elapsed_nanos: 0,
            counters: Counter::ALL.iter().map(|c| (c.key(), 0)).collect(),
            gauges: Gauge::ALL.iter().map(|g| (g.key(), 0.0)).collect(),
            spans: Vec::new(),
            mutators: Vec::new(),
            opcodes: Vec::new(),
            superops: Vec::new(),
        };
        let line = crate::export::jsonl_line(&snap);
        let err = validate_snapshot_line(&line).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn validator_rejects_superop_without_composition() {
        let mut snap = crate::metrics::MetricsSnapshot::empty();
        snap.superops.push(crate::metrics::SuperopStat {
            kind: "Bin".to_string(),
            comp: Vec::new(),
            hits: 1,
            nanos: 0,
        });
        let line = crate::export::jsonl_line(&snap);
        let err = validate_snapshot_line(&line).unwrap_err();
        assert!(err.contains("empty comp"), "{err}");
        snap.superops[0].comp = vec!["Load".to_string(), "Arith".to_string()];
        validate_snapshot_line(&crate::export::jsonl_line(&snap)).expect("valid row");
    }

    #[test]
    fn validator_rejects_memo_lookups_beyond_interp_runs() {
        let mut snap = crate::metrics::MetricsSnapshot::empty();
        let set = |snap: &mut crate::metrics::MetricsSnapshot, key: &str, v: u64| {
            snap.counters.iter_mut().find(|c| c.0 == key).unwrap().1 = v;
        };
        set(&mut snap, "interp_runs", 10);
        set(&mut snap, "exec_memo_hits", 7);
        set(&mut snap, "exec_memo_misses", 3);
        validate_snapshot_line(&crate::export::jsonl_line(&snap)).expect("valid counts");
        set(&mut snap, "exec_memo_misses", 4);
        let err = validate_snapshot_line(&crate::export::jsonl_line(&snap)).unwrap_err();
        assert!(err.contains("exceeds interp_runs"), "{err}");
    }

    #[test]
    fn validator_rejects_non_finite_numbers() {
        let line = crate::export::jsonl_line(&crate::metrics::MetricsSnapshot::empty());
        validate_snapshot_line(&line).expect("valid row");
        let nan = line.replacen("\"interp_runs\":0", "\"interp_runs\":NaN", 1);
        assert_ne!(nan, line);
        let err = validate_snapshot_line(&nan).unwrap_err();
        assert!(err.contains("finite"), "{err}");
        let huge = line.replacen("\"elapsed_nanos\":0", "\"elapsed_nanos\":1e400", 1);
        assert_ne!(huge, line);
        assert!(validate_snapshot_line(&huge).is_err());

        let doc = trace_doc(&trace_event(1, 0).replace("\"ts\":0", "\"ts\":inf"));
        let err = validate_trace(&doc).unwrap_err();
        assert!(err.contains("finite"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_counter() {
        let snap = crate::metrics::MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            elapsed_nanos: 0,
            counters: Counter::ALL.iter().skip(1).map(|c| (c.key(), 0)).collect(),
            gauges: Gauge::ALL.iter().map(|g| (g.key(), 0.0)).collect(),
            spans: Vec::new(),
            mutators: Vec::new(),
            opcodes: Vec::new(),
            superops: Vec::new(),
        };
        let line = crate::export::jsonl_line(&snap);
        let err = validate_snapshot_line(&line).unwrap_err();
        assert!(err.contains("missing key"), "{err}");
    }

    #[test]
    fn prometheus_validator_rejects_undeclared_sample() {
        let page = "mop_rogue 1\n";
        let err = validate_prometheus(page).unwrap_err();
        assert!(err.contains("no # TYPE"), "{err}");
    }

    fn minimal_page_with(extra: &str) -> String {
        let mut page = format!(
            "# TYPE {p}schema_version gauge\n{p}schema_version {v}\n\
             # TYPE {p}elapsed_nanos gauge\n{p}elapsed_nanos 0\n",
            p = PROM_PREFIX,
            v = SCHEMA_VERSION
        );
        for c in Counter::ALL {
            page.push_str(&format!(
                "# TYPE {p}{k} counter\n{p}{k} 0\n",
                p = PROM_PREFIX,
                k = c.key()
            ));
        }
        for g in Gauge::ALL {
            page.push_str(&format!(
                "# TYPE {p}{k} gauge\n{p}{k} 0\n",
                p = PROM_PREFIX,
                k = g.key()
            ));
        }
        page.push_str(extra);
        page
    }

    #[test]
    fn prometheus_validator_accepts_well_formed_histogram() {
        let page = minimal_page_with(
            "# TYPE mop_h histogram\n\
             mop_h_bucket{span=\"x\",le=\"1\"} 1\n\
             mop_h_bucket{span=\"x\",le=\"+Inf\"} 2\n\
             mop_h_sum{span=\"x\"} 40\n\
             mop_h_count{span=\"x\"} 2\n",
        );
        validate_prometheus(&page).expect("histogram validates");
    }

    #[test]
    fn prometheus_validator_rejects_non_cumulative_histogram() {
        let page = minimal_page_with(
            "# TYPE mop_h histogram\n\
             mop_h_bucket{le=\"1\"} 3\n\
             mop_h_bucket{le=\"+Inf\"} 2\n\
             mop_h_sum 40\n\
             mop_h_count 2\n",
        );
        let err = validate_prometheus(&page).unwrap_err();
        assert!(err.contains("not cumulative"), "{err}");
    }

    #[test]
    fn prometheus_validator_rejects_inf_count_mismatch() {
        let page = minimal_page_with(
            "# TYPE mop_h histogram\n\
             mop_h_bucket{le=\"+Inf\"} 2\n\
             mop_h_sum 40\n\
             mop_h_count 3\n",
        );
        let err = validate_prometheus(&page).unwrap_err();
        assert!(err.contains("!= _count"), "{err}");
    }

    #[test]
    fn prometheus_validator_requires_all_families() {
        let page = format!(
            "# TYPE {p}schema_version gauge\n{p}schema_version {v}\n",
            p = PROM_PREFIX,
            v = SCHEMA_VERSION
        );
        let err = validate_prometheus(&page).unwrap_err();
        assert!(err.contains("missing expected family"), "{err}");
    }

    #[test]
    fn prometheus_validator_accepts_spaces_and_braces_in_label_values() {
        // Escaped quotes/backslashes plus raw spaces and '}' — all legal
        // exposition — used to trip the first-space/ends-with-'}' split.
        let page = minimal_page_with(
            "# TYPE mop_x counter\n\
             mop_x{name=\"a b} c\"} 1\n\
             mop_x{name=\"q\\\"uo\\\\te\"} 2\n\
             mop_x{name=\"line\\nbreak\"} 3\n",
        );
        validate_prometheus(&page).expect("quoted label values validate");
    }

    #[test]
    fn prometheus_validator_rejects_unescaped_quote() {
        // An unescaped quote inside a value desynchronizes the quoting:
        // the scanner runs off the end of the line.
        let page = minimal_page_with("# TYPE mop_x counter\nmop_x{name=\"a\"b\"} 1\n");
        let err = validate_prometheus(&page).unwrap_err();
        assert!(
            err.contains("unterminated") || err.contains("expected ','"),
            "{err}"
        );
    }

    #[test]
    fn prometheus_validator_rejects_bad_escape_in_declared_family() {
        let page = minimal_page_with("# TYPE mop_x counter\nmop_x{name=\"a\\qb\"} 1\n");
        let err = validate_prometheus(&page).unwrap_err();
        assert!(err.contains("bad escape"), "{err}");
    }

    #[test]
    fn prometheus_validator_rejects_unterminated_label_set() {
        let page = minimal_page_with("# TYPE mop_x counter\nmop_x{name=\"a\" 1\n");
        let err = validate_prometheus(&page).unwrap_err();
        assert!(err.contains("unterminated label set"), "{err}");
    }

    fn trace_doc(events: &str) -> String {
        format!(
            "{{\"traceEvents\":[{events}],\"otherData\":{{\
             \"schema_version\":\"{SCHEMA_VERSION}\",\"clock\":\"manual\"}}}}"
        )
    }

    fn trace_event(id: u64, parent: u64) -> String {
        format!(
            "{{\"name\":\"round\",\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":0,\"tid\":0,\
             \"args\":{{\"id\":\"{id}\",\"parent\":\"{parent}\",\
             \"dur_steps\":\"1\",\"wall_ns\":\"0\"}}}}"
        )
    }

    #[test]
    fn trace_validator_accepts_linked_events() {
        let doc = trace_doc(&format!("{},{}", trace_event(1, 0), trace_event(2, 1)));
        validate_trace(&doc).expect("linked events validate");
    }

    #[test]
    fn trace_validator_rejects_dangling_parent() {
        let doc = trace_doc(&trace_event(2, 7));
        let err = validate_trace(&doc).unwrap_err();
        assert!(err.contains("dangling parent id 7"), "{err}");
    }

    #[test]
    fn trace_validator_rejects_duplicate_ids_and_bad_ph() {
        let doc = trace_doc(&format!("{},{}", trace_event(1, 0), trace_event(1, 0)));
        let err = validate_trace(&doc).unwrap_err();
        assert!(err.contains("duplicate id 1"), "{err}");

        let bad_ph = trace_doc(
            "{\"name\":\"x\",\"ph\":\"B\",\"ts\":0,\"dur\":0,\"pid\":0,\"tid\":0,\
             \"args\":{\"id\":\"1\",\"parent\":\"0\"}}",
        );
        let err = validate_trace(&bad_ph).unwrap_err();
        assert!(err.contains("bad ph"), "{err}");
    }

    #[test]
    fn trace_validator_rejects_schema_drift() {
        let doc = format!(
            "{{\"traceEvents\":[],\"otherData\":{{\
             \"schema_version\":\"{}\",\"clock\":\"manual\"}}}}",
            SCHEMA_VERSION + 1
        );
        let err = validate_trace(&doc).unwrap_err();
        assert!(err.contains("schema drift"), "{err}");
    }
}
