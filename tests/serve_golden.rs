//! Golden script for the serving engine: pins everything `Engine::handle`
//! hands out — response lines, persist records, counters — so that a
//! change to *how* the engine gets there (how bodies are keyed, cached,
//! upgraded, counted) can be proven to move nothing.
//!
//! A serial script walks four corpus loops × {cold, repeat, re-formatted
//! text, changed knob} × every kind of cached body (heuristic, tiered,
//! tiered at a second trip, exact, adaptive, verify, oracle, oracle with
//! a one-node budget), then an oracle question past proof reach
//! (`rejected`) and the answers that never reach a scheduler (syntax
//! error, invalid loop, `ping`, the refused adaptive + exact
//! combination), waiting for the refine worker after every request so
//! upgrades land at a fixed point of the script. Pinned, in
//! `tests/serve_golden/`:
//!
//! - `responses.tsv` — status, cache tag, length and digest of every
//!   rendered response line, from a fresh engine and (second column
//!   group) from an engine that replayed `parent.log`;
//! - `records.tsv` — every persist record in append order;
//! - `stats.txt` — the final `stats` line of both engines;
//! - `metrics_fresh.prom`, `metrics_after.prom` — `render_prometheus()`
//!   before the first request and after the script (the wall-clock
//!   `ltsp_phase_us` samples are left to `PromSnapshot::parse`);
//! - `parent.log` — a log an earlier engine left behind after this script.
//!   It is never re-blessed: a new engine opened on a copy of it must
//!   answer the whole script without a single miss or append, and the
//!   log the script leaves now must be as long (its records, keys
//!   included, are `records.tsv`'s to pin).
//!
//! After an intentional change to what the engine *answers*, re-bless
//! (and review the diff):
//!
//! ```text
//! LTSP_BLESS=1 cargo test --test serve_golden
//! ```

mod common;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use common::fnv;

use ltsp::cache::persist::CacheLog;
use ltsp::ir::{DataClass, LoopBuilder};
use ltsp::server::{parse_request, Backend, Engine, EngineConfig, Request};
use ltsp::telemetry::prom::PromSnapshot;
use ltsp::telemetry::{json, Telemetry};

const LOOPS: [&str; 4] = ["saxpy", "mcf_refresh", "reduction_int", "stencil3"];

/// `(kind, the fields every request of the kind carries, the knob its
/// fourth variant adds)`. Order matters: a tiered refinement computes
/// the exact body the cold `exact` request then finds cached, so the
/// exact backend's own cold path runs under its changed budget.
const KINDS: [(&str, &str, &str); 8] = [
    ("heuristic", r#""op":"compile""#, r#""policy":"l3""#),
    (
        "tiered",
        r#""op":"compile","backend":"tiered""#,
        r#""policy":"l3""#,
    ),
    (
        "tiered-trip2",
        r#""op":"compile","backend":"tiered","trip":200"#,
        r#""threshold":8"#,
    ),
    (
        "exact",
        r#""op":"compile","backend":"exact""#,
        r#""budget":150000"#,
    ),
    (
        "adaptive",
        r#""op":"compile","mode":"adaptive""#,
        r#""policy":"l3""#,
    ),
    ("verify", r#""op":"verify""#, r#""policy":"baseline""#),
    ("oracle", r#""op":"oracle""#, r#""budget":150000"#),
    (
        "oracle-tiny",
        r#""op":"oracle","budget":1,"deadline_ms":0"#,
        r#""trip":7"#,
    ),
];

fn dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/serve_golden")
}

fn request(line: &str) -> Request {
    parse_request(line).unwrap_or_else(|e| panic!("{line}: {}", e.message))
}

fn script() -> Vec<Request> {
    let mut reqs = Vec::new();
    for name in LOOPS {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("loops/{name}.loop"));
        let text = std::fs::read_to_string(&path).expect("corpus loop");
        // Same loop, other bytes: the raw-request key moves, every
        // canonical key stays.
        let reformatted = format!("\n{}\n\n", text.replace("\n  ", "\n\t    "));
        assert_ne!(reformatted, text);
        for (kind, fields, knob) in KINDS {
            for (variant, text, knob) in [
                ("cold", &text, ""),
                ("repeat", &text, ""),
                ("reformat", &reformatted, ""),
                ("knob", &text, knob),
            ] {
                let sep = if knob.is_empty() { "" } else { "," };
                reqs.push(request(&format!(
                    r#"{{"id":"{name}/{kind}/{variant}",{fields},"loop":"{}"{sep}{knob}}}"#,
                    json::escape(text)
                )));
            }
        }
    }
    for id in ["syntax/cold", "syntax/repeat"] {
        reqs.push(request(&format!(
            r#"{{"op":"compile","id":"{id}","loop":"loop b {{\n  junk\n}}"}}"#
        )));
    }
    reqs.push(request(
        r#"{"op":"verify","id":"invalid","loop":"loop bad {\n  i0: add g1 = g2, g3\n}"}"#,
    ));
    // Past the oracle's instruction gate: a deterministic
    // `bounded-unknown`, the one `rejected` answer a sound compiler gives.
    let mut big = LoopBuilder::new("big");
    for k in 0..30u64 {
        let r = big.affine_ref(&format!("p{k}"), DataClass::Int, k << 22, 4, 4);
        let _ = big.load(r);
    }
    let big = big.build().expect("valid loop").to_string();
    for id in ["big/oracle/cold", "big/oracle/repeat"] {
        reqs.push(request(&format!(
            r#"{{"op":"oracle","id":"{id}","deadline_ms":0,"loop":"{}"}}"#,
            json::escape(&big)
        )));
    }
    reqs.push(request(r#"{"op":"ping","id":"ping"}"#));
    // `parse_request` refuses adaptive + exact; a hand-built request
    // gets the engine's own refusal.
    let mut both = request(&format!(
        r#"{{"op":"compile","id":"adaptive+exact","mode":"adaptive","loop":"{}"}}"#,
        json::escape("loop b {\n}")
    ));
    both.backend = Backend::Exact;
    reqs.push(both);
    reqs
}

/// One pass of the script: `status \t cache \t bytes \t digest` per
/// response (with the lines themselves, for the failure message), then
/// the `stats` line.
struct Pass {
    cells: Vec<String>,
    lines: Vec<String>,
    stats: String,
}

fn run(engine: &Engine, script: &[Request]) -> Pass {
    let tel = Telemetry::disabled();
    let mut pass = Pass {
        cells: Vec::new(),
        lines: Vec::new(),
        stats: String::new(),
    };
    for req in script {
        let resp = engine.handle(req, &tel);
        engine.refine_wait_idle();
        let line = resp.render();
        assert_eq!(resp.id, req.id);
        pass.cells.push(format!(
            "{}\t{}\t{}\t{:016x}",
            resp.status,
            resp.cache,
            line.len(),
            fnv(line.as_bytes())
        ));
        pass.lines.push(line);
    }
    pass.stats = engine
        .handle(&request(r#"{"op":"stats","id":"stats"}"#), &tel)
        .render();
    pass
}

fn stat(stats_line: &str, key: &str) -> u64 {
    json::parse(stats_line)
        .expect("stats is JSON")
        .get(key)
        .and_then(json::JsonValue::as_u64)
        .unwrap_or_else(|| panic!("stats has no {key}: {stats_line}"))
}

/// The exposition with the wall-clock histogram samples removed (their
/// well-formedness is `PromSnapshot::parse`'s to judge).
fn without_phase_samples(metrics: &str) -> String {
    PromSnapshot::parse(metrics).expect("exposition parses");
    metrics
        .lines()
        .filter(|l| !l.starts_with("ltsp_phase_us_"))
        .fold(String::new(), |mut out, l| {
            out.push_str(l);
            out.push('\n');
            out
        })
}

fn records_table(log: &Path) -> String {
    let (_, report) = CacheLog::open(log).expect("log opens");
    assert_eq!(report.dropped, 0, "the log is clean end to end");
    let mut out = String::from("# key\tstatus\tbody_bytes\tbody_digest\n");
    for r in &report.records {
        let _ = writeln!(
            out,
            "{:032x}\t{}\t{}\t{:016x}",
            r.key.0,
            r.status,
            r.body.len(),
            fnv(r.body.as_bytes())
        );
    }
    out
}

/// Compares `got` with the pinned file of that name, or writes it when
/// blessing.
fn pin(name: &str, got: &[u8]) {
    common::pin(&dir().join(name), got);
}

#[test]
fn the_script_matches_the_golden_and_the_committed_log_replays() {
    let tmp = std::env::temp_dir().join(format!("ltsp-serve-golden-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("mkdir");
    let script = script();

    // A fresh engine with an empty log.
    let fresh_log = tmp.join("fresh.log");
    let _ = std::fs::remove_file(&fresh_log);
    let engine = Engine::new(EngineConfig {
        persist_path: Some(fresh_log.clone()),
        ..EngineConfig::default()
    });
    pin("metrics_fresh.prom", engine.render_prometheus().as_bytes());
    let fresh = run(&engine, &script);
    pin(
        "metrics_after.prom",
        without_phase_samples(&engine.render_prometheus()).as_bytes(),
    );
    drop(engine);
    let log_bytes = std::fs::read(&fresh_log).expect("the script left a log");
    assert_eq!(
        stat(&fresh.stats, "persist_log_bytes"),
        log_bytes.len() as u64
    );
    pin("records.tsv", records_table(&fresh_log).as_bytes());

    // A new engine on a copy of the committed log: the whole script
    // again, answered from what the log replayed.
    let replay_log = tmp.join("replay.log");
    std::fs::copy(dir().join("parent.log"), &replay_log).expect("copy the committed log");
    let committed_len = std::fs::metadata(&replay_log).expect("stat").len();
    assert_eq!(
        log_bytes.len() as u64,
        committed_len,
        "the script's log and the committed one differ in length"
    );
    let engine = Engine::new(EngineConfig {
        persist_path: Some(replay_log.clone()),
        ..EngineConfig::default()
    });
    let replay = run(&engine, &script);
    drop(engine);
    assert_eq!(stat(&replay.stats, "result_cache_misses"), 0);
    assert_eq!(stat(&replay.stats, "persist_appended"), 0);
    assert_eq!(stat(&replay.stats, "upgrades_scheduled"), 0);
    assert_eq!(
        std::fs::metadata(&replay_log).expect("stat").len(),
        committed_len,
        "a replayed script appends nothing"
    );

    let mut table = String::from(
        "# id\tstatus\tcache\tbytes\tdigest\treplay_status\treplay_cache\treplay_bytes\treplay_digest\n",
    );
    for ((req, f), r) in script.iter().zip(&fresh.cells).zip(&replay.cells) {
        let _ = writeln!(table, "{}\t{f}\t{r}", req.id);
    }
    if !common::blessing() {
        // Name the first drifted line in full before the table diff.
        let want = std::fs::read_to_string(dir().join("responses.tsv")).unwrap_or_default();
        for (i, (w, g)) in want.lines().skip(1).zip(table.lines().skip(1)).enumerate() {
            assert_eq!(
                w, g,
                "response {i} drifted\nfresh:  {}\nreplay: {}",
                fresh.lines[i], replay.lines[i]
            );
        }
    }
    pin("responses.tsv", table.as_bytes());
    pin(
        "stats.txt",
        format!("{}\n{}\n", fresh.stats, replay.stats).as_bytes(),
    );
    let _ = std::fs::remove_dir_all(&tmp);
}
