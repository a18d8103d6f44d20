//! Exporters: JSONL trace dumps (with a round-tripping parser), CSV
//! time series from a [`MetricsLog`], and the Prometheus text format
//! (see [`MetricsRegistry::render_prometheus`]).
//!
//! No serde is available in this build environment, so the JSON
//! encoding is hand-rolled: one flat object per line, string values
//! only for `kind`/`class`, and `u64` fields printed as full-precision
//! decimal integers (key hashes exceed 2^53, so they must never pass
//! through `f64`).
//!
//! [`MetricsRegistry::render_prometheus`]: super::MetricsRegistry::render_prometheus

use std::collections::HashMap;
use std::fmt;
use std::io::{self, Write};

use crate::fault::ControlClass;
use crate::metrics::MetricsLog;

use super::trace::{TraceEvent, TraceEventKind};

/// Column header of the per-window CSV time series produced by
/// [`csv_rows`], ready for `CsvWriter::create` in the bench crate.
pub const CSV_HEADER: &[&str] = &[
    "window",
    "time_s",
    "emitted",
    "sink",
    "throughput",
    "local",
    "remote",
    "cross_rack",
    "network_bytes",
    "migrated_states",
    "migrated_bytes",
    "buffered",
    "late_forwarded",
    "max_queue_depth",
    "backlog",
    "dropped_control",
    "delayed_control",
    "crashes",
    "reconfig_errors",
];

/// Flattens a [`MetricsLog`] into one CSV row per window, matching
/// [`CSV_HEADER`].
#[must_use]
pub fn csv_rows(log: &MetricsLog) -> Vec<Vec<String>> {
    let dt = log.window_len();
    log.windows()
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let local: u64 = w.edges.iter().map(|e| e.local).sum();
            let remote: u64 = w.edges.iter().map(|e| e.remote).sum();
            let cross_rack: u64 = w.edges.iter().map(|e| e.cross_rack).sum();
            let bytes: u64 = w.edges.iter().map(|e| e.bytes).sum();
            vec![
                i.to_string(),
                format!("{:.3}", w.time),
                w.emitted.to_string(),
                w.sink_tuples.to_string(),
                format!("{:.1}", w.sink_tuples as f64 / dt),
                local.to_string(),
                remote.to_string(),
                cross_rack.to_string(),
                bytes.to_string(),
                w.migrated_states.to_string(),
                w.migrated_bytes.to_string(),
                w.buffered.to_string(),
                w.late_forwarded.to_string(),
                w.max_queue_depth.to_string(),
                w.backlog_messages.to_string(),
                w.dropped_control.to_string(),
                w.delayed_control.to_string(),
                w.crashes.to_string(),
                w.reconfig_errors.len().to_string(),
            ]
        })
        .collect()
}

fn class_name(class: ControlClass) -> &'static str {
    match class {
        ControlClass::SendReconf => "send_reconf",
        ControlClass::Propagate => "propagate",
        ControlClass::Migrate => "migrate",
    }
}

fn class_from_name(name: &str) -> Option<ControlClass> {
    Some(match name {
        "send_reconf" => ControlClass::SendReconf,
        "propagate" => ControlClass::Propagate,
        "migrate" => ControlClass::Migrate,
        _ => return None,
    })
}

/// Encodes one event as a single-line flat JSON object.
#[must_use]
pub fn event_to_json(e: &TraceEvent) -> String {
    use TraceEventKind as K;
    let mut s = format!(
        "{{\"seq\":{},\"window\":{},\"time\":{:?},\"wave\":",
        e.seq, e.window, e.time
    );
    match e.wave {
        Some(w) => s.push_str(&w.to_string()),
        None => s.push_str("null"),
    }
    let mut field = |name: &str, value: String| {
        s.push_str(",\"");
        s.push_str(name);
        s.push_str("\":");
        s.push_str(&value);
    };
    let kind = |k: &str| format!("\"{k}\"");
    field("kind", kind(e.kind.name()));
    match e.kind {
        K::GetMetrics { poi } => {
            field("poi", poi.to_string());
        }
        K::SendMetrics { poi, bytes } => {
            field("poi", poi.to_string());
            field("bytes", bytes.to_string());
        }
        K::WaveStarted {
            routers,
            migrations,
            attempt,
        } => {
            field("routers", routers.to_string());
            field("migrations", migrations.to_string());
            field("attempt", attempt.to_string());
        }
        K::SendReconf { poi } => {
            field("poi", poi.to_string());
        }
        K::AckReconf { poi, acks_pending } => {
            field("poi", poi.to_string());
            field("acks_pending", acks_pending.to_string());
        }
        K::Propagate { poi } => {
            field("poi", poi.to_string());
        }
        K::WaveApplied { poi } => {
            field("poi", poi.to_string());
        }
        K::RouterSwapped { poi, edge } => {
            field("poi", poi.to_string());
            field("edge", edge.to_string());
        }
        K::MigrateSent {
            from,
            to,
            key,
            bytes,
        } => {
            field("from", from.to_string());
            field("to", to.to_string());
            field("key", key.to_string());
            field("bytes", bytes.to_string());
        }
        K::MigrateApplied { poi, key } => {
            field("poi", poi.to_string());
            field("key", key.to_string());
        }
        K::BufferStall { poi, key } => {
            field("poi", poi.to_string());
            field("key", key.to_string());
        }
        K::ControlDropped { class } => {
            field("class", kind(class_name(class)));
        }
        K::ControlDelayed { class, windows } => {
            field("class", kind(class_name(class)));
            field("windows", windows.to_string());
        }
        K::MigrationLost { to, key } => {
            field("to", to.to_string());
            field("key", key.to_string());
        }
        K::PoiCrashed { poi } => {
            field("poi", poi.to_string());
        }
        K::ManagerKilled => {}
        K::WaveRolledBack { attempt } => {
            field("attempt", attempt.to_string());
        }
        K::WaveRetried { attempt } => {
            field("attempt", attempt.to_string());
        }
        K::WaveAborted => {}
        K::WaveCompleted { duration_windows } => {
            field("duration_windows", duration_windows.to_string());
        }
        K::DegradedToHash => {}
        K::SpanBegin { poi, key } => {
            field("poi", poi.to_string());
            field("key", key.to_string());
        }
        K::SpanHop {
            poi,
            key,
            queue_ns,
            proc_ns,
            remote,
        } => {
            field("poi", poi.to_string());
            field("key", key.to_string());
            field("queue_ns", queue_ns.to_string());
            field("proc_ns", proc_ns.to_string());
            field("remote", remote.to_string());
        }
        K::SpanEnd { poi, key, total_ns } => {
            field("poi", poi.to_string());
            field("key", key.to_string());
            field("total_ns", total_ns.to_string());
        }
    }
    s.push('}');
    s
}

/// Renders all events as JSONL (one JSON object per line).
#[must_use]
pub fn to_jsonl<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&event_to_json(e));
        out.push('\n');
    }
    out
}

/// Streams all events as JSONL into `w`.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
pub fn write_jsonl<'a, W: Write>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
    mut w: W,
) -> io::Result<()> {
    for e in events {
        writeln!(w, "{}", event_to_json(e))?;
    }
    Ok(())
}

/// Why a JSONL trace failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line the error occurred on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

/// One parsed JSON scalar, kept as raw text so `u64` fields never lose
/// precision through `f64`.
enum Scalar {
    Str(String),
    Raw(String),
}

/// Minimal parser for the flat single-line objects produced by
/// [`event_to_json`]: string, number, `null`, `true`/`false` values
/// only — no nesting, no escapes beyond `\"` and `\\`.
fn parse_flat_object(line: &str) -> Result<HashMap<String, Scalar>, String> {
    let line = line.trim();
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("not a JSON object")?;
    let mut fields = HashMap::new();
    let mut chars = inner.char_indices().peekable();
    while let Some(&(start, c)) = chars.peek() {
        if c == ',' || c.is_whitespace() {
            chars.next();
            continue;
        }
        if c != '"' {
            return Err(format!("expected key quote at byte {start}"));
        }
        chars.next();
        let key_start = start + 1;
        let mut key_end = None;
        for (i, c) in chars.by_ref() {
            if c == '"' {
                key_end = Some(i);
                break;
            }
        }
        let key_end = key_end.ok_or("unterminated key")?;
        let key = inner[key_start..key_end].to_owned();
        match chars.next() {
            Some((_, ':')) => {}
            _ => return Err(format!("missing ':' after key {key}")),
        }
        let value = match chars.peek() {
            Some(&(vs, '"')) => {
                chars.next();
                let mut out = String::new();
                let mut end = None;
                let mut escaped = false;
                for (i, c) in chars.by_ref() {
                    if escaped {
                        out.push(c);
                        escaped = false;
                    } else if c == '\\' {
                        escaped = true;
                    } else if c == '"' {
                        end = Some(i);
                        break;
                    } else {
                        out.push(c);
                    }
                }
                end.ok_or_else(|| format!("unterminated string at byte {vs}"))?;
                Scalar::Str(out)
            }
            Some(&(vs, _)) => {
                let mut end = inner.len();
                while let Some(&(i, c)) = chars.peek() {
                    if c == ',' {
                        end = i;
                        break;
                    }
                    chars.next();
                }
                let raw = inner[vs..end].trim();
                if raw.is_empty() {
                    return Err(format!("empty value for key {key}"));
                }
                // Basic sanity: numbers, null, true, false only.
                if !matches!(raw, "null" | "true" | "false")
                    && !raw
                        .bytes()
                        .all(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    return Err(format!("malformed value {raw:?} for key {key}"));
                }
                Scalar::Raw(raw.to_owned())
            }
            None => return Err(format!("missing value for key {key}")),
        };
        fields.insert(key, value);
    }
    Ok(fields)
}

struct FieldReader<'a> {
    fields: &'a HashMap<String, Scalar>,
}

impl FieldReader<'_> {
    fn u64(&self, key: &str) -> Result<u64, String> {
        match self.fields.get(key) {
            Some(Scalar::Raw(raw)) => raw.parse().map_err(|_| format!("bad u64 {key}={raw}")),
            _ => Err(format!("missing numeric field {key}")),
        }
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        self.u64(key).map(|v| v as usize)
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        match self.fields.get(key) {
            Some(Scalar::Raw(raw)) => raw.parse().map_err(|_| format!("bad u32 {key}={raw}")),
            _ => Err(format!("missing numeric field {key}")),
        }
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        match self.fields.get(key) {
            Some(Scalar::Raw(raw)) => raw.parse().map_err(|_| format!("bad f64 {key}={raw}")),
            _ => Err(format!("missing numeric field {key}")),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.fields.get(key) {
            Some(Scalar::Raw(raw)) if raw == "true" => Ok(true),
            Some(Scalar::Raw(raw)) if raw == "false" => Ok(false),
            _ => Err(format!("missing bool field {key}")),
        }
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        match self.fields.get(key) {
            Some(Scalar::Str(s)) => Ok(s),
            _ => Err(format!("missing string field {key}")),
        }
    }

    fn class(&self, key: &str) -> Result<ControlClass, String> {
        let name = self.str(key)?;
        class_from_name(name).ok_or_else(|| format!("unknown control class {name:?}"))
    }

    fn wave(&self) -> Result<Option<u64>, String> {
        match self.fields.get("wave") {
            Some(Scalar::Raw(raw)) if raw == "null" => Ok(None),
            Some(Scalar::Raw(raw)) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("bad wave id {raw}")),
            _ => Err("missing wave field".to_owned()),
        }
    }
}

fn parse_event(line: &str) -> Result<TraceEvent, String> {
    use TraceEventKind as K;
    let fields = parse_flat_object(line)?;
    let r = FieldReader { fields: &fields };
    let kind = match r.str("kind")? {
        "get_metrics" => K::GetMetrics { poi: r.usize("poi")? },
        "send_metrics" => K::SendMetrics {
            poi: r.usize("poi")?,
            bytes: r.u64("bytes")?,
        },
        "wave_started" => K::WaveStarted {
            routers: r.usize("routers")?,
            migrations: r.usize("migrations")?,
            attempt: r.u32("attempt")?,
        },
        "send_reconf" => K::SendReconf { poi: r.usize("poi")? },
        "ack_reconf" => K::AckReconf {
            poi: r.usize("poi")?,
            acks_pending: r.usize("acks_pending")?,
        },
        "propagate" => K::Propagate { poi: r.usize("poi")? },
        "wave_applied" => K::WaveApplied { poi: r.usize("poi")? },
        "router_swapped" => K::RouterSwapped {
            poi: r.usize("poi")?,
            edge: r.usize("edge")?,
        },
        "migrate_sent" => K::MigrateSent {
            from: r.usize("from")?,
            to: r.usize("to")?,
            key: r.u64("key")?,
            bytes: r.u64("bytes")?,
        },
        "migrate_applied" => K::MigrateApplied {
            poi: r.usize("poi")?,
            key: r.u64("key")?,
        },
        "buffer_stall" => K::BufferStall {
            poi: r.usize("poi")?,
            key: r.u64("key")?,
        },
        "control_dropped" => K::ControlDropped {
            class: r.class("class")?,
        },
        "control_delayed" => K::ControlDelayed {
            class: r.class("class")?,
            windows: r.u64("windows")?,
        },
        "migration_lost" => K::MigrationLost {
            to: r.usize("to")?,
            key: r.u64("key")?,
        },
        "poi_crashed" => K::PoiCrashed { poi: r.usize("poi")? },
        "manager_killed" => K::ManagerKilled,
        "wave_rolled_back" => K::WaveRolledBack {
            attempt: r.u32("attempt")?,
        },
        "wave_retried" => K::WaveRetried {
            attempt: r.u32("attempt")?,
        },
        "wave_aborted" => K::WaveAborted,
        "wave_completed" => K::WaveCompleted {
            duration_windows: r.u64("duration_windows")?,
        },
        "degraded_to_hash" => K::DegradedToHash,
        "span_begin" => K::SpanBegin {
            poi: r.usize("poi")?,
            key: r.u64("key")?,
        },
        "span_hop" => K::SpanHop {
            poi: r.usize("poi")?,
            key: r.u64("key")?,
            queue_ns: r.u64("queue_ns")?,
            proc_ns: r.u64("proc_ns")?,
            remote: r.bool("remote")?,
        },
        "span_end" => K::SpanEnd {
            poi: r.usize("poi")?,
            key: r.u64("key")?,
            total_ns: r.u64("total_ns")?,
        },
        other => return Err(format!("unknown event kind {other:?}")),
    };
    Ok(TraceEvent {
        seq: r.u64("seq")?,
        time: r.f64("time")?,
        window: r.u64("window")?,
        wave: r.wave()?,
        kind,
    })
}

/// Parses a JSONL trace dump back into events. Empty lines are
/// skipped.
///
/// # Errors
///
/// Returns a [`TraceParseError`] naming the first malformed line.
pub fn parse_jsonl(input: &str) -> Result<Vec<TraceEvent>, TraceParseError> {
    let mut events = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_event(line).map_err(|message| TraceParseError {
            line: i + 1,
            message,
        })?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        use TraceEventKind as K;
        let kinds = vec![
            K::GetMetrics { poi: 3 },
            K::SendMetrics { poi: 3, bytes: 640 },
            K::WaveStarted {
                routers: 3,
                migrations: 8,
                attempt: 0,
            },
            K::SendReconf { poi: 0 },
            K::AckReconf {
                poi: 0,
                acks_pending: 8,
            },
            K::Propagate { poi: 1 },
            K::WaveApplied { poi: 1 },
            K::RouterSwapped { poi: 1, edge: 1 },
            K::MigrateSent {
                from: 4,
                to: 5,
                key: u64::MAX - 1, // > 2^53: must not pass through f64
                bytes: 72,
            },
            K::MigrateApplied {
                poi: 5,
                key: u64::MAX - 1,
            },
            K::BufferStall { poi: 5, key: 7 },
            K::ControlDropped {
                class: ControlClass::Migrate,
            },
            K::ControlDelayed {
                class: ControlClass::Propagate,
                windows: 2,
            },
            K::MigrationLost { to: 5, key: 9 },
            K::PoiCrashed { poi: 4 },
            K::ManagerKilled,
            K::WaveRolledBack { attempt: 1 },
            K::WaveRetried { attempt: 2 },
            K::WaveAborted,
            K::WaveCompleted {
                duration_windows: 6,
            },
            K::DegradedToHash,
            K::SpanBegin {
                poi: 0,
                key: u64::MAX - 3, // > 2^53: must not pass through f64
            },
            K::SpanHop {
                poi: 2,
                key: u64::MAX - 3,
                queue_ns: 1_234_567_890_123, // > 2^32
                proc_ns: 450,
                remote: true,
            },
            K::SpanEnd {
                poi: 3,
                key: u64::MAX - 3,
                total_ns: 9_876_543_210_987,
            },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| TraceEvent {
                seq: i as u64,
                time: i as f64 * 0.1,
                window: i as u64,
                wave: if i % 3 == 0 { None } else { Some(i as u64 / 3) },
                kind,
            })
            .collect()
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let events = sample_events();
        let dump = to_jsonl(&events);
        let parsed = parse_jsonl(&dump).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let err = parse_jsonl("{\"seq\":0}\n\nnot json\n").unwrap_err();
        assert_eq!(err.line, 1); // first object is incomplete
        let err = parse_jsonl("garbage").unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn csv_rows_match_header_width() {
        let log = MetricsLog::new(0.1);
        assert!(csv_rows(&log).is_empty());
        assert_eq!(CSV_HEADER.len(), 19);
    }
}
