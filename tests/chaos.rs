//! Chaos tests: `ltspd` under deterministic fault injection.
//!
//! The contract under test (DESIGN.md §13): with injected handler
//! panics, handler delays, torn writes, and connection drops, the
//! daemon never dies and never wedges — faulted requests get a
//! contained outcome (an `error` response or a closed connection), and
//! every **non-faulted** request's response stays byte-identical to a
//! fault-free run, at any `--jobs`. Fault decisions are pure functions
//! of `(seed, site, request id)` ([`FaultPlan::fires`]), so the tests
//! compute the expected faulted set up front.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ltsp::server::{spawn, FaultPlan, FaultSite, ServerConfig, ServerHandle};
use ltsp::telemetry::json;
use ltsp::workloads::random_loop;

fn start_with(jobs: usize, fault: FaultPlan) -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        fault,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

/// The request corpus every chaos test uses: explicit ids so the
/// expected fault set is computable, a *unique* loop per request so no
/// response's cache tag depends on whether an earlier request (possibly
/// a panicked one) populated a shared cache entry, and `deadline_ms:0`
/// so responses stay deterministic.
fn corpus(n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| {
            let id = format!("chaos-{i}");
            let line = request_line(&id, i);
            (id, line)
        })
        .collect()
}

/// The corpus's `i`-th request (its op and its loop) under any id: the
/// id decides which faults fire, the rest decides the cache key.
fn request_line(id: &str, i: usize) -> String {
    let op = if i % 3 == 2 { "verify" } else { "compile" };
    format!(
        "{{\"op\":\"{op}\",\"id\":\"{id}\",\"loop\":\"{}\",\"deadline_ms\":0}}",
        json::escape(&random_loop(i as u64).to_string())
    )
}

/// The `served_inline` counter, asked for under an id no fault of
/// `plan` fires on.
fn served_inline(handle: &ServerHandle, plan: &FaultPlan) -> u64 {
    let id = (0..)
        .map(|k| format!("stats-{k}"))
        .find(|id| !plan.fires(FaultSite::Panic, id) && !plan.fires(FaultSite::Drop, id))
        .expect("some id is not faulted");
    let stats = lone_round_trip(handle, &format!("{{\"op\":\"stats\",\"id\":\"{id}\"}}"))
        .expect("stats answered");
    json::parse(&stats)
        .expect("stats parse")
        .get("served_inline")
        .and_then(|n| n.as_u64())
        .expect("served_inline in stats")
}

/// Round-trips one request on its own connection; `None` means the
/// server closed the connection without answering (an injected drop).
fn lone_round_trip(handle: &ServerHandle, line: &str) -> Option<String> {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.write_all(line.as_bytes()).expect("send");
    stream.write_all(b"\n").expect("send newline");
    let mut resp = String::new();
    match BufReader::new(stream).read_line(&mut resp) {
        Ok(0) => None,
        Ok(_) => Some(resp),
        Err(e) => panic!("read wedged or failed under faults: {e}"),
    }
}

/// Fault-free golden responses for a corpus, keyed by request id.
fn golden(corpus: &[(String, String)]) -> Vec<String> {
    let handle = start_with(2, FaultPlan::default());
    let out = corpus
        .iter()
        .map(|(id, line)| lone_round_trip(&handle, line).unwrap_or_else(|| panic!("{id}: EOF")))
        .collect();
    handle.shutdown();
    out
}

/// The chaos matrix: jobs 1 and 4 × fault specs mixing panics, delays,
/// drops, and torn writes. Every faulted request has a contained,
/// *predicted* outcome; every non-faulted response byte-matches the
/// fault-free golden.
#[test]
fn non_faulted_responses_match_the_fault_free_golden() {
    let corpus = corpus(24);
    let golden = golden(&corpus);
    for spec in [
        "panic:0.3,seed:7",
        "drop:0.3,seed:7",
        "short:1.0",
        "panic:0.2,slow:5ms@0.2,drop:0.2,short:0.3,seed:3",
    ] {
        let plan = FaultPlan::parse(spec).expect("valid spec");
        for jobs in [1, 4] {
            let handle = start_with(jobs, plan.clone());
            for ((id, line), want) in corpus.iter().zip(&golden) {
                let got = lone_round_trip(&handle, line);
                if plan.fires(FaultSite::Drop, id) {
                    assert_eq!(
                        got, None,
                        "{spec}/jobs={jobs}: {id} should be dropped before the response"
                    );
                } else if plan.fires(FaultSite::Panic, id) {
                    let got = got.unwrap_or_else(|| panic!("{spec}: {id}: unexpected EOF"));
                    assert!(
                        got.contains("\"status\":\"error\"") && got.contains("panicked"),
                        "{spec}/jobs={jobs}: {id}: contained panic expected, got {got}"
                    );
                    assert!(got.contains(&format!("\"id\":\"{id}\"")), "{got}");
                } else {
                    // Not faulted (a torn write re-assembles to the same
                    // bytes; a slow handler changes nothing).
                    let got = got.unwrap_or_else(|| panic!("{spec}: {id}: unexpected EOF"));
                    assert_eq!(
                        &got, want,
                        "{spec}/jobs={jobs}: {id}: non-faulted response must be \
                         byte-identical to the fault-free run"
                    );
                }
            }
            // The warm pass: every id again, each asking for a key the
            // cold pass left cached (a panicked request cached nothing,
            // so it borrows the next warm entry's loop). A lone request
            // on an idle connection is answered by the reader thread,
            // and the same faults must fire there: same drops, same
            // contained panics, same bytes otherwise.
            let warm_key = |i: usize| {
                (i..i + corpus.len())
                    .map(|j| j % corpus.len())
                    .find(|&j| !plan.fires(FaultSite::Panic, &corpus[j].0))
                    .expect("some request did not panic")
            };
            let mut inline = 0;
            for (i, (id, _)) in corpus.iter().enumerate() {
                let j = warm_key(i);
                let got = lone_round_trip(&handle, &request_line(id, j));
                let panics = plan.fires(FaultSite::Panic, id);
                inline += u64::from(!panics);
                if plan.fires(FaultSite::Drop, id) {
                    assert_eq!(got, None, "{spec}/jobs={jobs}: warm {id} should be dropped");
                    continue;
                }
                let got = got.unwrap_or_else(|| panic!("{spec}: warm {id}: unexpected EOF"));
                if panics {
                    assert!(
                        got.contains("\"status\":\"error\"") && got.contains("panicked"),
                        "{spec}/jobs={jobs}: warm {id}: contained panic expected, got {got}"
                    );
                    assert!(got.contains(&format!("\"id\":\"{id}\"")), "{got}");
                } else {
                    let want = golden[j]
                        .replacen(
                            &format!("\"id\":\"{}\"", corpus[j].0),
                            &format!("\"id\":\"{id}\""),
                            1,
                        )
                        .replacen("\"cache\":\"miss\"", "\"cache\":\"hit\"", 1);
                    assert_eq!(got, want, "{spec}/jobs={jobs}: warm {id} (key of {j})");
                }
            }
            assert_eq!(
                served_inline(&handle, &plan),
                inline,
                "{spec}/jobs={jobs}: every warm request that did not panic was served inline"
            );
            handle.shutdown();
        }
    }
}

/// Pipelined chaos determinism: with panics, delays, and torn writes
/// active (no drops), the full response stream — contained panics
/// included — is byte-identical at jobs 1 and 4.
#[test]
fn chaos_response_stream_is_byte_identical_across_jobs() {
    let corpus = corpus(24);
    let plan = FaultPlan::parse("panic:0.25,slow:2ms@0.25,short:0.4,seed:5").expect("valid spec");
    assert!(
        corpus
            .iter()
            .any(|(id, _)| plan.fires(FaultSite::Panic, id)),
        "spec too weak: no panic fires on this corpus"
    );
    let run = |jobs: usize| {
        let handle = start_with(jobs, plan.clone());
        let writer = TcpStream::connect(handle.addr()).expect("connect");
        writer.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(writer.try_clone().expect("clone"));
        let mut writer = writer;
        // Pipeline everything so multi-request batches actually form.
        // Twice: the second pass asks for what the first left cached,
        // so its hits are answered by the reader thread whenever the
        // connection has nothing owed, and queued behind the (panicked,
        // hence still cold) rest otherwise — same bytes either way.
        let mut out = String::new();
        for _pass in 0..2 {
            for (_, line) in &corpus {
                writer.write_all(line.as_bytes()).expect("send");
                writer.write_all(b"\n").expect("send newline");
            }
            for _ in 0..corpus.len() {
                let before = out.len();
                reader.read_line(&mut out).expect("read");
                assert!(out.len() > before, "EOF mid-stream without drop faults");
            }
        }
        handle.shutdown();
        out
    };
    assert_eq!(run(1), run(4), "chaos response bytes depend on --jobs");
}

/// The stalled-reader regression: a client that never reads must shed
/// its *own* responses, not head-of-line-block the dispatcher. While a
/// non-reading connection floods requests, another connection's round
/// trips must complete promptly, and drain must still finish.
#[test]
fn stalled_reader_does_not_delay_other_connections() {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        outbound_max: 4,
        write_deadline: Duration::from_millis(250),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");

    // The stalled client: floods requests, never reads a byte.
    let mut stalled = TcpStream::connect(handle.addr()).expect("connect stalled");
    for i in 0..64 {
        let line = format!(
            "{{\"op\":\"compile\",\"id\":\"stall-{i}\",\"loop\":\"{}\"}}\n",
            json::escape(&random_loop(i % 4).to_string())
        );
        stalled.write_all(line.as_bytes()).expect("flood");
    }
    stalled.flush().expect("flush flood");

    // The well-behaved client: every round trip must complete while the
    // flood is pending; generous bound, but far below any "waits behind
    // 64 stalled responses" schedule.
    let mut live = TcpStream::connect(handle.addr()).expect("connect live");
    live.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(live.try_clone().expect("clone"));
    let t0 = Instant::now();
    for i in 0..8 {
        let line = format!(
            "{{\"op\":\"compile\",\"id\":\"live-{i}\",\"loop\":\"{}\"}}\n",
            json::escape(&random_loop(0).to_string())
        );
        live.write_all(line.as_bytes()).expect("send live");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("live response");
        assert!(
            resp.contains("\"status\":\"ok\"") || resp.contains("\"status\":\"overloaded\""),
            "live connection starved: {resp}"
        );
    }
    assert!(
        t0.elapsed() < Duration::from_secs(20),
        "live round trips took {:?} behind a stalled reader",
        t0.elapsed()
    );
    drop(stalled);
    // Bounded drain: shutdown() joining promptly (the test not hanging)
    // is the assertion.
    handle.shutdown();
}

/// Dispatcher death is loud and drains, never a silent wedge: with the
/// `dispatch` fault certain to fire, the in-flight request is answered
/// `error` (not abandoned), the daemon drains, and the listener closes.
#[test]
fn dispatcher_death_answers_queued_work_and_drains() {
    let handle = start_with(2, FaultPlan::parse("dispatch:1.0").expect("valid spec"));
    let addr = handle.addr();
    let resp = lone_round_trip(
        &handle,
        &format!(
            "{{\"op\":\"compile\",\"id\":\"doomed\",\"loop\":\"{}\"}}",
            json::escape(&random_loop(0).to_string())
        ),
    )
    .expect("queued request must be answered, not dropped");
    assert!(
        resp.contains("\"status\":\"error\"") && resp.contains("dispatcher died"),
        "expected a dispatcher-died error, got {resp}"
    );
    assert!(resp.contains("\"id\":\"doomed\""), "{resp}");
    handle.wait();
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener should be closed after the dispatcher-died drain"
    );
}

/// The flight recorder under panic faults: every contained panic dumps
/// the ring to `flight_dir`, the dump is parseable JSONL, it names the
/// faulted request with its full phase breakdown, and — after scrubbing
/// wall-clock fields — the jobs=1 and jobs=4 dumps are byte-identical.
#[test]
fn flight_recorder_dumps_faulted_lifecycles_deterministically() {
    use ltsp::server::{normalize_flight_dump, read_dumps};

    let corpus = corpus(12);
    let plan = FaultPlan::parse("panic:0.3,seed:7").expect("valid spec");
    let faulted: Vec<&str> = corpus
        .iter()
        .filter(|(id, _)| plan.fires(FaultSite::Panic, id))
        .map(|(id, _)| id.as_str())
        .collect();
    assert!(!faulted.is_empty(), "spec too weak: no panic fires");

    let run = |jobs: usize| -> Vec<(String, String)> {
        let dir =
            std::env::temp_dir().join(format!("ltsp-flight-test-{}-j{jobs}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create flight dir");
        let mut cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs,
            fault: plan.clone(),
            ..ServerConfig::default()
        };
        cfg.engine.flight_dir = Some(dir.clone());
        let handle = spawn(cfg).expect("bind ephemeral port");
        // Sequential lone round trips: the ring order (and so the dump
        // bytes) must not depend on worker interleaving.
        for (_, line) in &corpus {
            let _ = lone_round_trip(&handle, line);
        }
        handle.shutdown();
        let dumps = read_dumps(&dir).expect("read flight dumps");
        let _ = std::fs::remove_dir_all(&dir);
        dumps
    };

    let (d1, d4) = (run(1), run(4));
    assert_eq!(
        d1.len(),
        faulted.len(),
        "one dump per contained panic, got {:?}",
        d1.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
    );
    for (name, _) in &d1 {
        assert!(name.contains("request-panic"), "unexpected dump {name}");
    }

    // The final dump's ring holds every faulted lifecycle: parseable
    // JSONL, faulted id present, all-phase timing object attached.
    let last = &d1.last().expect("at least one dump").1;
    let records: Vec<json::JsonValue> = last
        .lines()
        .map(|l| json::parse(l).unwrap_or_else(|e| panic!("unparseable flight line {l}: {e}")))
        .collect();
    for id in &faulted {
        let rec = records
            .iter()
            .find(|r| r.get("id").and_then(|v| v.as_str()) == Some(id))
            .unwrap_or_else(|| panic!("faulted {id} missing from flight dump"));
        assert_eq!(
            rec.get("status").and_then(|v| v.as_str()),
            Some("error"),
            "faulted {id} should be recorded as a contained error"
        );
        let phases = rec
            .get("phases")
            .unwrap_or_else(|| panic!("{id}: no phase breakdown in flight record"));
        for key in ["parse_us", "queue_wait_us", "dispatch_us", "handler_us"] {
            assert!(
                phases.get(key).and_then(|v| v.as_u64()).is_some(),
                "{id}: flight record phases missing {key}"
            );
        }
    }

    // Determinism across --jobs once wall-clock micros are scrubbed.
    let scrub = |dumps: &[(String, String)]| -> Vec<(String, String)> {
        dumps
            .iter()
            .map(|(n, c)| (n.clone(), normalize_flight_dump(c)))
            .collect()
    };
    assert_eq!(
        scrub(&d1),
        scrub(&d4),
        "scrubbed flight dumps depend on --jobs"
    );
}

/// A connection the server kills (stalled past the write deadline) ends
/// in EOF for the client, and the daemon survives to serve others.
#[test]
fn write_deadline_sheds_only_the_stalled_connection() {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        outbound_max: 2,
        write_deadline: Duration::from_millis(100),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");

    let mut stalled = TcpStream::connect(handle.addr()).expect("connect");
    // Shrink the client's receive window so the server's socket buffer
    // actually fills and the write deadline trips.
    let _ = stalled.set_read_timeout(Some(Duration::from_secs(30)));
    for i in 0..128 {
        let line = format!(
            "{{\"op\":\"compile\",\"id\":\"s-{i}\",\"loop\":\"{}\"}}\n",
            json::escape(&random_loop(i % 8).to_string())
        );
        if stalled.write_all(line.as_bytes()).is_err() {
            break; // server already shed us — that's the mechanism working
        }
    }
    // Either the kernel buffered everything (responses shed via the
    // outbound cap) or the server killed the connection; both contained.
    // A healthy connection still gets served afterwards.
    let mut live = TcpStream::connect(handle.addr()).expect("connect live");
    live.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let line = format!(
        "{{\"op\":\"compile\",\"id\":\"after\",\"loop\":\"{}\"}}\n",
        json::escape(&random_loop(1).to_string())
    );
    live.write_all(line.as_bytes()).expect("send");
    let mut resp = String::new();
    BufReader::new(live).read_line(&mut resp).expect("read");
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");
    // The stalled connection must resolve to EOF/reset, not a hang.
    drop(stalled.shutdown(std::net::Shutdown::Write));
    let mut sink = Vec::new();
    let _ = stalled.read_to_end(&mut sink); // bounded by the read timeout
    handle.shutdown();
}

/// The warm-key variant: a client that asks only for cached answers and
/// never reads them is served by its connection's *reader* thread, whose
/// write runs under the same deadline and ends in the same shed. The
/// stalled connection is closed once its socket has been full for the
/// deadline; a well-behaved connection is answered without delay
/// meanwhile.
#[test]
fn write_deadline_sheds_a_stalled_connection_that_only_asks_for_hits() {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        outbound_max: 2,
        write_deadline: Duration::from_millis(100),
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let hit = format!(
        "{{\"op\":\"compile\",\"id\":\"h\",\"loop\":\"{}\"}}\n",
        json::escape(&ltsp::workloads::scheduling_heavy("big", 3, 13).to_string())
    );
    let warm = lone_round_trip(&handle, hit.trim_end()).expect("warm-up answered");
    assert!(warm.contains("\"cache\":\"miss\""), "{warm}");

    // The stalled client floods hits and never reads a byte. Its writes
    // start failing once the server has shed it; a write that instead
    // *times out* means the server stopped reading without closing.
    let mut stalled = TcpStream::connect(handle.addr()).expect("connect stalled");
    stalled
        .set_write_timeout(Some(Duration::from_secs(30)))
        .expect("write timeout");
    let t0 = Instant::now();
    let flood = std::thread::spawn(move || loop {
        if let Err(e) = stalled.write_all(hit.as_bytes()) {
            return e.kind();
        }
    });

    // Meanwhile a live connection's round trips — a hit the reader
    // answers, a miss the dispatcher answers — complete promptly.
    let mut live = TcpStream::connect(handle.addr()).expect("connect live");
    live.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(live.try_clone().expect("clone"));
    for i in 0..8 {
        let line = request_line(&format!("live-{i}"), i / 2);
        let sent = Instant::now();
        live.write_all(line.as_bytes()).expect("send live");
        live.write_all(b"\n").expect("send newline");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("live response");
        assert!(resp.contains("\"status\":\"ok\""), "live starved: {resp}");
        assert!(
            sent.elapsed() < Duration::from_secs(10),
            "live round trip took {:?} beside a stalled hit-only client",
            sent.elapsed()
        );
    }

    let ended = flood.join().expect("flood thread");
    assert!(
        !matches!(
            ended,
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "the stalled client was left hanging, not shed ({ended:?})"
    );
    assert!(
        t0.elapsed() < Duration::from_secs(25),
        "shedding a hit-only stalled client took {:?} under a 100 ms deadline",
        t0.elapsed()
    );
    let metrics = lone_round_trip(&handle, "{\"op\":\"metrics\",\"id\":\"m\"}").expect("metrics");
    assert!(
        !metrics.contains("ltsp_connections_shed_total 0"),
        "the shed was not accounted: {metrics}"
    );
    handle.shutdown();
}
