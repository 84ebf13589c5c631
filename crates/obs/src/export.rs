//! Exporters for [`Snapshot`]: canonical JSON-lines, a parser for that
//! format, and a human-readable summary.
//!
//! The JSON-lines form is *canonical*: `serialize(parse(serialize(s)))`
//! is byte-identical to `serialize(s)`. That holds because map keys come
//! out of `BTreeMap`s in sorted order, spans keep their sequence
//! numbers, numbers are plain decimal `u64`s, and string escaping is
//! deterministic (`\"`, `\\`, `\n`, `\r`, `\t`, and `\u00XX` for other
//! control bytes — printable text is never escaped).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::{Histogram, BUCKETS};
use crate::registry::{EventRec, Snapshot, SpanRec};

/// Schema tag emitted on (and required in) the leading meta line.
pub const SCHEMA: &str = "incgraph-metrics/1";

/// Serializes a snapshot as canonical JSON-lines.
pub fn to_jsonl(s: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"type\":\"meta\",\"schema\":\"{SCHEMA}\",\"events_dropped\":{},\"spans_dropped\":{}}}",
        s.events_dropped, s.spans_dropped
    );
    for ((class, name), value) in &s.counters {
        let _ = writeln!(
            out,
            "{{\"type\":\"counter\",\"class\":\"{}\",\"name\":\"{}\",\"value\":{value}}}",
            escape(class),
            escape(name)
        );
    }
    for ((class, name), value) in &s.gauges {
        let _ = writeln!(
            out,
            "{{\"type\":\"gauge\",\"class\":\"{}\",\"name\":\"{}\",\"value\":{value}}}",
            escape(class),
            escape(name)
        );
    }
    for ((class, name), h) in &s.hists {
        let mut buckets = String::from("[");
        for (i, (idx, c)) in h.nonzero_buckets().iter().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            let _ = write!(buckets, "[{idx},{c}]");
        }
        buckets.push(']');
        let _ = writeln!(
            out,
            "{{\"type\":\"hist\",\"class\":\"{}\",\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":{buckets}}}",
            escape(class),
            escape(name),
            h.count(),
            h.sum(),
            h.min(),
            h.max()
        );
    }
    for e in &s.events {
        let _ = writeln!(
            out,
            "{{\"type\":\"event\",\"class\":\"{}\",\"name\":\"{}\",\"detail\":\"{}\"}}",
            escape(&e.class),
            escape(&e.name),
            escape(&e.detail)
        );
    }
    for sp in &s.spans {
        let _ = writeln!(
            out,
            "{{\"type\":\"span\",\"class\":\"{}\",\"name\":\"{}\",\"seq\":{},\"ns\":{}}}",
            escape(&sp.class),
            escape(&sp.name),
            sp.seq,
            sp.ns
        );
    }
    out
}

/// Parses canonical JSON-lines back into a [`Snapshot`].
pub fn parse_jsonl(text: &str) -> Result<Snapshot, String> {
    let mut snap = Snapshot::default();
    let mut saw_meta = false;
    for (lineno, line) in text.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields = parse_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let get = |k: &str| -> Result<&Value, String> {
            fields
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("line {}: missing key `{k}`", lineno + 1))
        };
        let str_of = |k: &str| -> Result<String, String> {
            match get(k)? {
                Value::Str(s) => Ok(s.clone()),
                _ => Err(format!("line {}: `{k}` is not a string", lineno + 1)),
            }
        };
        let num_of = |k: &str| -> Result<u64, String> {
            match get(k)? {
                Value::Num(n) => Ok(*n),
                _ => Err(format!("line {}: `{k}` is not a number", lineno + 1)),
            }
        };
        match str_of("type")?.as_str() {
            "meta" => {
                let schema = str_of("schema")?;
                if schema != SCHEMA {
                    return Err(format!("unsupported schema `{schema}`"));
                }
                snap.events_dropped = num_of("events_dropped")?;
                snap.spans_dropped = num_of("spans_dropped")?;
                saw_meta = true;
            }
            "counter" => {
                snap.counters
                    .insert((str_of("class")?, str_of("name")?), num_of("value")?);
            }
            "gauge" => {
                snap.gauges
                    .insert((str_of("class")?, str_of("name")?), num_of("value")?);
            }
            "hist" => {
                let pairs = match get("buckets")? {
                    Value::Pairs(p) => p.clone(),
                    _ => return Err(format!("line {}: `buckets` is not an array", lineno + 1)),
                };
                for &(i, _) in &pairs {
                    if i >= BUCKETS {
                        return Err(format!(
                            "line {}: bucket index {i} out of range",
                            lineno + 1
                        ));
                    }
                }
                let h = Histogram::from_parts(
                    num_of("count")?,
                    num_of("sum")?,
                    num_of("min")?,
                    num_of("max")?,
                    &pairs,
                );
                snap.hists.insert((str_of("class")?, str_of("name")?), h);
            }
            "event" => snap.events.push(EventRec {
                class: str_of("class")?,
                name: str_of("name")?,
                detail: str_of("detail")?,
            }),
            "span" => snap.spans.push(SpanRec {
                class: str_of("class")?,
                name: str_of("name")?,
                seq: num_of("seq")?,
                ns: num_of("ns")?,
            }),
            other => return Err(format!("line {}: unknown type `{other}`", lineno + 1)),
        }
    }
    if !saw_meta {
        return Err("missing meta line".to_string());
    }
    Ok(snap)
}

/// Renders a snapshot as an aligned, human-readable summary.
pub fn render_summary(s: &Snapshot) -> String {
    let mut out = String::new();
    let mut classes: Vec<&String> = Vec::new();
    for (class, _) in s
        .counters
        .keys()
        .chain(s.gauges.keys())
        .chain(s.hists.keys())
    {
        if !classes.contains(&class) {
            classes.push(class);
        }
    }
    classes.sort();
    for class in classes {
        let label = if class.is_empty() { "(session)" } else { class };
        let _ = writeln!(out, "[{label}]");
        let of_class = |m: &BTreeMap<(String, String), u64>| -> Vec<(String, u64)> {
            m.iter()
                .filter(|((c, _), _)| c == class)
                .map(|((_, n), v)| (n.clone(), *v))
                .collect()
        };
        for (name, v) in of_class(&s.counters) {
            let _ = writeln!(out, "  counter {name:<28} {v}");
        }
        for (name, v) in of_class(&s.gauges) {
            let _ = writeln!(out, "  gauge   {name:<28} {v}");
        }
        for ((c, name), h) in &s.hists {
            if c != class {
                continue;
            }
            let _ = writeln!(
                out,
                "  hist    {name:<28} count={} sum={} min={} mean={:.0} max={}",
                h.count(),
                h.sum(),
                h.min(),
                h.mean(),
                h.max()
            );
        }
    }
    let _ = writeln!(
        out,
        "events: {} ({} dropped)   spans: {} ({} dropped)",
        s.events.len(),
        s.events_dropped,
        s.spans.len(),
        s.spans_dropped
    );
    for e in &s.events {
        let label = if e.class.is_empty() {
            "(session)"
        } else {
            &e.class
        };
        let _ = writeln!(out, "  event [{label}] {}: {}", e.name, e.detail);
    }
    out
}

/// Deterministic JSON string escaping (see the module docs).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
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
    out
}

/// A parsed flat-JSON value: everything the exporter can emit.
#[derive(Clone, Debug)]
enum Value {
    Str(String),
    Num(u64),
    Pairs(Vec<(usize, u64)>),
}

/// Minimal parser for one flat JSON object line in the canonical form.
fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.expect(b'{')?;
    let mut fields = Vec::new();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            let key = p.string()?;
            p.expect(b':')?;
            let value = p.value()?;
            fields.push((key, value));
            match p.next_byte()? {
                b',' => continue,
                b'}' => break,
                c => return Err(format!("unexpected byte `{}`", c as char)),
            }
        }
    }
    if p.pos != p.bytes.len() {
        return Err("trailing bytes after object".to_string());
    }
    Ok(fields)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next_byte(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("unexpected end of line")?;
        self.pos += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next_byte()? {
            b if b == want => Ok(()),
            b => Err(format!("expected `{}`, got `{}`", want as char, b as char)),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next_byte()? {
                b'"' => return Ok(out),
                b'\\' => match self.next_byte()? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.next_byte()?;
                            code = code * 16 + (d as char).to_digit(16).ok_or("bad \\u escape")?;
                        }
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                    }
                    c => return Err(format!("bad escape `\\{}`", c as char)),
                },
                b if b < 0x80 => out.push(b as char),
                b => {
                    // Multi-byte UTF-8: copy the sequence through intact.
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 sequence")?);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err("expected a number".to_string());
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|_| "number out of range".to_string())
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek().ok_or("unexpected end of line")? {
            b'"' => Ok(Value::Str(self.string()?)),
            b'0'..=b'9' => Ok(Value::Num(self.number()?)),
            b'[' => {
                self.pos += 1;
                let mut pairs = Vec::new();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Pairs(pairs));
                }
                loop {
                    self.expect(b'[')?;
                    let idx = self.number()? as usize;
                    self.expect(b',')?;
                    let count = self.number()?;
                    self.expect(b']')?;
                    pairs.push((idx, count));
                    match self.next_byte()? {
                        b',' => continue,
                        b']' => break,
                        c => return Err(format!("unexpected byte `{}`", c as char)),
                    }
                }
                Ok(Value::Pairs(pairs))
            }
            c => Err(format!("unexpected byte `{}`", c as char)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::Recorder;

    fn sample() -> Snapshot {
        let r = Registry::with_trace();
        r.counter("sssp", "engine.pops", 41);
        r.counter("", "wal.records", 2);
        r.gauge("cc", "dataflow.state_bytes", 4);
        r.observe("sssp", "scope.size", 17);
        r.span("sssp", "engine.run", 120_000);
        r.span("", "wal.commit", 950);
        r.event(
            "sssp",
            "fallback",
            "scope_exceeded observed=9 limit=4\nsecond line \"q\"",
        );
        r.snapshot()
    }

    #[test]
    fn jsonl_round_trip_is_byte_identical() {
        let snap = sample();
        let first = to_jsonl(&snap);
        let parsed = parse_jsonl(&first).unwrap();
        assert_eq!(parsed, snap);
        let second = to_jsonl(&parsed);
        assert_eq!(first, second);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_jsonl("not json\n").is_err());
        assert!(parse_jsonl("{\"type\":\"counter\"}\n").is_err());
        assert!(parse_jsonl(
            "{\"type\":\"meta\",\"schema\":\"other/9\",\"events_dropped\":0,\"spans_dropped\":0}\n"
        )
        .is_err());
        // A counter line alone is valid JSON but the meta line is required.
        assert!(
            parse_jsonl("{\"type\":\"counter\",\"class\":\"\",\"name\":\"x\",\"value\":1}\n")
                .is_err()
        );
    }

    #[test]
    fn summary_lists_every_class() {
        let text = render_summary(&sample());
        assert!(text.contains("[sssp]"));
        assert!(text.contains("[(session)]"));
        assert!(text.contains("engine.pops"));
        assert!(text.contains("wal.commit"));
        assert!(text.contains("events: 1"));
    }
}
