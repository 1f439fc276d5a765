//! The flight recorder: a bounded ring of recent request lifecycles,
//! dumped to disk when something goes wrong.
//!
//! Every handled request appends one [`FlightRecord`] — id, op, request
//! key, status, cache disposition, and the full per-phase timing
//! breakdown — to a fixed-capacity ring (`Mutex` + [`lock_unpoisoned`];
//! the recorder must keep working after a contained handler panic, which
//! is exactly when it is needed). When a `request_panic`, an injected
//! fault, a worker death, or a write-deadline shed fires, the daemon
//! calls `FlightRecorder::dump`, which writes the ring as JSONL into
//! `--flight-dir` under a deterministic sequence-numbered name, keeping
//! only the newest [`MAX_DUMPS`] of its own files. With no
//! `--flight-dir` configured, dumps are no-ops and the ring still serves
//! in-process inspection.
//!
//! Determinism: record *content* other than the `*_us` phase values is a
//! pure function of the request stream (ids, ops, fingerprints, statuses,
//! cache tags, ring order), and records carry no worker attribution at
//! all. [`normalize_flight_dump`] zeroes every `*_us` field so dumps from
//! the same request sequence compare byte-identical across runs and
//! `--jobs` levels — the chaos suite's jobs-1-vs-4 assertion.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ltsp_cache::Fingerprint;
use ltsp_telemetry::json::{self, JsonValue};
use ltsp_telemetry::lock_unpoisoned;
use ltsp_telemetry::phase::PhaseTimer;

use crate::proto::Request;

/// One request lifecycle as the recorder keeps it.
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Request id (client-supplied or content-derived).
    pub id: String,
    /// Request op tag.
    pub op: &'static str,
    /// The request's first-level cache key — op, loop text and every
    /// knob, the key its answer is cached and persisted under — carried
    /// over from where the request was read, not hashed again. `None`
    /// (rendered `-`) for ops that never cache.
    pub fingerprint: Option<Fingerprint>,
    /// Response status (`ok` | `rejected` | `error` | ...).
    pub status: &'static str,
    /// Cache disposition (`hit` | `miss` | `-`).
    pub cache: &'static str,
    /// Per-phase microseconds, every phase in fixed order (zeros kept so
    /// the record's shape is deterministic).
    pub phases: Vec<(&'static str, u64)>,
}

impl FlightRecord {
    /// Builds a record from a request's outcome and its phase timer.
    pub(crate) fn capture(
        req: &Request,
        key: Option<Fingerprint>,
        status: &'static str,
        cache: &'static str,
        phases: &PhaseTimer,
    ) -> FlightRecord {
        FlightRecord {
            id: req.id.clone(),
            op: req.op.tag(),
            fingerprint: key,
            status,
            cache,
            phases: phases
                .snapshot()
                .into_iter()
                .map(|(p, us)| (p.name(), us))
                .collect(),
        }
    }

    /// The record as one JSONL line (no trailing newline).
    pub(crate) fn to_json_line(&self) -> String {
        let mut out = format!(
            "{{\"id\":\"{}\",\"op\":\"{}\",\"fingerprint\":\"{}\",\"status\":\"{}\",\"cache\":\"{}\",\"phases\":{{",
            json::escape(&self.id),
            self.op,
            self.fingerprint
                .map_or_else(|| "-".to_string(), |key| key.short_hex()),
            self.status,
            self.cache,
        );
        for (i, (name, us)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}_us\":{us}"));
        }
        out.push_str("}}");
        out
    }
}

/// Dump files a recorder keeps on disk: each dump past this many deletes
/// the oldest, so a client that keeps tripping a trigger cannot fill the
/// disk.
pub const MAX_DUMPS: usize = 64;

/// The bounded ring plus its dump configuration.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<FlightRecord>>,
    cap: usize,
    dir: Option<PathBuf>,
    dumps: AtomicU64,
    /// The dump files on disk, oldest first.
    kept: Mutex<VecDeque<PathBuf>>,
}

impl FlightRecorder {
    /// A recorder keeping the last `cap` request lifecycles, dumping
    /// into `dir` when triggered (`None` disables dumping).
    pub(crate) fn new(cap: usize, dir: Option<PathBuf>) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            cap: cap.max(1),
            dir,
            dumps: AtomicU64::new(0),
            kept: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends one lifecycle, evicting the oldest past capacity.
    pub(crate) fn record(&self, rec: FlightRecord) {
        let mut ring = lock_unpoisoned(&self.ring);
        if ring.len() == self.cap {
            ring.pop_front();
        }
        ring.push_back(rec);
    }

    /// Records recorded and retained so far.
    pub(crate) fn len(&self) -> usize {
        lock_unpoisoned(&self.ring).len()
    }

    /// Dumps taken so far (attempted; a missing `--flight-dir` means
    /// triggers fire without producing files).
    pub(crate) fn dump_count(&self) -> u64 {
        self.dumps.load(Ordering::Relaxed)
    }

    /// The current ring contents, oldest first, as JSONL.
    pub(crate) fn render_jsonl(&self) -> String {
        let ring = lock_unpoisoned(&self.ring);
        let mut out = String::new();
        for rec in ring.iter() {
            out.push_str(&rec.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Writes the ring to `<dir>/flight-<seq>-<reason>.jsonl`, deletes
    /// the oldest dump past [`MAX_DUMPS`], and returns the path. `None`
    /// when no dump directory is configured; I/O failures are contained
    /// (observability must never take the daemon down) and reported as
    /// `None` too.
    pub(crate) fn dump(&self, reason: &str) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        // Held across the write, so files are kept in sequence order.
        let mut kept = lock_unpoisoned(&self.kept);
        let seq = self.dumps.fetch_add(1, Ordering::Relaxed) + 1;
        let path = dir.join(format!("flight-{seq:04}-{reason}.jsonl"));
        std::fs::create_dir_all(dir).ok()?;
        std::fs::write(&path, self.render_jsonl()).ok()?;
        kept.push_back(path.clone());
        if kept.len() > MAX_DUMPS {
            if let Some(oldest) = kept.pop_front() {
                let _ = std::fs::remove_file(oldest);
            }
        }
        Some(path)
    }
}

fn zero_us_fields(v: JsonValue) -> JsonValue {
    match v {
        JsonValue::Obj(fields) => JsonValue::Obj(
            fields
                .into_iter()
                .map(|(k, v)| {
                    if k.ends_with("_us") {
                        (k, JsonValue::Num(0.0))
                    } else {
                        (k, zero_us_fields(v))
                    }
                })
                .collect(),
        ),
        JsonValue::Arr(items) => JsonValue::Arr(items.into_iter().map(zero_us_fields).collect()),
        other => other,
    }
}

/// Normalizes a flight-recorder dump for cross-run comparison: every
/// `*_us` field (at any nesting depth) is zeroed; ids, ops,
/// fingerprints, statuses, cache tags, field order, and line order are
/// preserved. The flight-recorder analogue of
/// [`ltsp_telemetry::normalize_trace`].
#[must_use]
pub fn normalize_flight_dump(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        match json::parse(line) {
            Ok(v) => zero_us_fields(v).render(&mut out),
            Err(_) => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Reads every `flight-*.jsonl` dump in a directory, sorted by file
/// name (i.e. dump sequence), as `(file_name, contents)` pairs. Test
/// and tooling helper.
pub fn read_dumps(dir: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("flight-") && name.ends_with(".jsonl") {
            out.push((name, std::fs::read_to_string(entry.path())?));
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_telemetry::phase::Phase;

    fn rec(i: usize) -> FlightRecord {
        let req = Request {
            id: format!("r-{i}"),
            op: crate::proto::ReqOp::Compile,
            loop_text: format!("loop l{i} {{}}"),
            ..Request::default()
        };
        let t = PhaseTimer::new();
        t.add_us(Phase::Sched, 40 + i as u64);
        t.add_us(Phase::Handler, 100 + i as u64);
        let key = Fingerprint::of_str(&req.loop_text);
        FlightRecord::capture(&req, Some(key), "ok", "miss", &t)
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let fr = FlightRecorder::new(3, None);
        for i in 0..5 {
            fr.record(rec(i));
        }
        assert_eq!(fr.len(), 3);
        let jsonl = fr.render_jsonl();
        let ids: Vec<&str> = jsonl
            .lines()
            .inspect(|l| {
                json::parse(l).unwrap();
            })
            .collect();
        assert!(ids[0].contains("\"r-2\"") && ids[2].contains("\"r-4\""));
        // No dump dir: triggers are no-ops.
        assert_eq!(fr.dump("test"), None);
    }

    #[test]
    fn records_parse_and_carry_all_phases() {
        let line = rec(0).to_json_line();
        let v = json::parse(&line).expect("valid json");
        assert_eq!(v.get("id").unwrap().as_str(), Some("r-0"));
        assert_eq!(v.get("op").unwrap().as_str(), Some("compile"));
        let phases = v.get("phases").unwrap();
        assert_eq!(phases.get("sched_us").unwrap().as_u64(), Some(40));
        assert_eq!(phases.get("parse_us").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn normalization_zeroes_only_timings() {
        let a = rec(1);
        let mut b = rec(1);
        b.phases = b.phases.iter().map(|&(n, us)| (n, us * 3 + 1)).collect();
        let na = normalize_flight_dump(&a.to_json_line());
        let nb = normalize_flight_dump(&b.to_json_line());
        assert_eq!(na, nb, "same lifecycle, different wall clock");
        let nc = normalize_flight_dump(&rec(2).to_json_line());
        assert_ne!(na, nc, "different requests stay distinct");
    }

    #[test]
    fn dump_writes_jsonl_to_dir() {
        let dir = std::env::temp_dir().join(format!("ltsp-flight-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fr = FlightRecorder::new(8, Some(dir.clone()));
        fr.record(rec(0));
        fr.record(rec(1));
        let p1 = fr.dump("request-panic").expect("dump path");
        let p2 = fr.dump("write-shed").expect("dump path");
        assert!(p1.file_name().unwrap().to_str().unwrap().contains("0001"));
        assert!(p2.file_name().unwrap().to_str().unwrap().contains("0002"));
        let dumps = read_dumps(&dir).expect("readable");
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].1.lines().count(), 2);
        for line in dumps[0].1.lines() {
            json::parse(line).expect("parseable JSONL");
        }
        assert_eq!(fr.dump_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn only_the_newest_dumps_stay_on_disk() {
        let dir = std::env::temp_dir().join(format!("ltsp-flight-cap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fr = FlightRecorder::new(2, Some(dir.clone()));
        fr.record(rec(0));
        let triggers = MAX_DUMPS as u64 + 5;
        for _ in 0..triggers {
            fr.dump("write-shed").expect("dump path");
        }
        assert_eq!(fr.dump_count(), triggers, "every trigger is counted");
        let names: Vec<String> = read_dumps(&dir)
            .expect("readable")
            .into_iter()
            .map(|(name, _)| name)
            .collect();
        let newest: Vec<String> = (6..=triggers)
            .map(|seq| format!("flight-{seq:04}-write-shed.jsonl"))
            .collect();
        assert_eq!(names, newest);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
