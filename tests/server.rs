//! End-to-end tests of the `ltspd` serving stack over real TCP: cache
//! warm/cold byte-identity, `--jobs` determinism, per-connection
//! ordering and line integrity with hits answered on the reader thread,
//! request framing, backpressure, protocol errors, and drain semantics.

mod common;

use std::io::{ErrorKind, Write};
use std::net::TcpStream;

use common::Client;
use ltsp::cache::Fingerprint;
use ltsp::server::{spawn, FaultPlan, FaultSite, ServerConfig, ServerHandle};
use ltsp::telemetry::json;
use ltsp::workloads::{random_loop, saxpy, scheduling_heavy};

fn start(jobs: usize, queue_high_water: usize) -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        queue_high_water,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

fn compile_request(id: &str, loop_text: &str) -> String {
    format!(
        "{{\"op\":\"compile\",\"id\":\"{id}\",\"loop\":\"{}\"}}",
        json::escape(loop_text)
    )
}

#[test]
fn warm_hit_is_byte_identical_to_cold_miss() {
    let handle = start(2, 256);
    let mut c = Client::connect(handle.addr());
    let line = compile_request("r", &saxpy("s").to_string());
    let cold = c.round_trip(&line);
    let warm = c.round_trip(&line);
    assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
    assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
    assert_eq!(
        cold.replacen("\"cache\":\"miss\"", "\"cache\":\"hit\"", 1),
        warm,
        "hit and miss responses differ beyond the cache tag"
    );
    handle.shutdown();
}

/// The determinism contract behind `--jobs`: the same pipelined request
/// stream produces the same response bytes whether the server schedules
/// batches on one worker or four.
#[test]
fn responses_are_byte_identical_across_jobs() {
    let run = |jobs: usize| {
        let handle = start(jobs, 1024);
        let mut c = Client::connect(handle.addr());
        // Pipeline everything first so multi-request batches actually form.
        let mut expected = 0;
        for i in 0..3 {
            for seed in 0..8u64 {
                let text = random_loop(seed).to_string();
                for op in ["compile", "verify", "oracle"] {
                    c.send(&format!(
                        "{{\"op\":\"{op}\",\"id\":\"{op}-{seed}-{i}\",\"loop\":\"{}\",\
                         \"deadline_ms\":0}}",
                        json::escape(&text)
                    ));
                    expected += 1;
                }
            }
        }
        let out: String = (0..expected).map(|_| c.recv()).collect();
        handle.shutdown();
        out
    };
    assert_eq!(run(1), run(4), "response bytes depend on --jobs");
}

/// One connection pipelines `[miss A, hit B, hit B, miss C, hit A,
/// hit B]` without reading. Whether a given hit is answered by the
/// reader thread (nothing owed at that moment) or queued behind the
/// misses depends on timing; the bytes must not: responses come back in
/// request order with the tags of a serial run, identical at any
/// `--jobs`.
#[test]
fn pipelined_hits_keep_request_order_and_serial_tags() {
    let run = |jobs: usize| {
        let handle = start(jobs, 1024);
        let mut c = Client::connect(handle.addr());
        let [a, b, other] = [1, 2, 3].map(|seed| random_loop(seed).to_string());
        let warm = c.round_trip(&compile_request("0-warm-b", &b));
        assert!(warm.contains("\"cache\":\"miss\""), "{warm}");
        let plan = [
            ("1-a", &a, "miss"),
            ("2-b", &b, "hit"),
            ("3-b", &b, "hit"),
            ("4-c", &other, "miss"),
            ("5-a", &a, "hit"),
            ("6-b", &b, "hit"),
        ];
        for (id, text, _) in plan {
            c.send(&compile_request(id, text));
        }
        let mut out = String::new();
        for (id, _, tag) in plan {
            let line = c.recv();
            let head = format!("{{\"id\":\"{id}\",\"status\":\"ok\",\"cache\":\"{tag}\",");
            assert!(
                line.starts_with(&head),
                "jobs={jobs}: wanted {head} got {line}"
            );
            out.push_str(&line);
        }
        handle.shutdown();
        out
    };
    assert_eq!(run(1), run(4), "response bytes depend on --jobs");
}

/// A connection's answers leave in request order even when a later job
/// finishes first: at `--jobs` 2 and 4, a compile the `slow` fault
/// delays, pipelined before a ping that another worker answers at once,
/// is still answered first.
#[test]
fn a_slow_job_is_not_overtaken_by_a_later_one() {
    let plan = FaultPlan::parse("slow:300ms@0.5").expect("valid spec");
    let ids: Vec<String> = (0..64).map(|i| format!("r{i}")).collect();
    let slow = ids.iter().find(|id| plan.fires(FaultSite::Slow, id));
    let fast = ids.iter().find(|id| !plan.fires(FaultSite::Slow, id));
    let (slow, fast) = (slow.expect("a slow id"), fast.expect("a fast id"));
    for jobs in [2, 4] {
        let handle = spawn(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs,
            fault: plan.clone(),
            ..ServerConfig::default()
        })
        .expect("bind ephemeral port");
        let mut c = Client::connect(handle.addr());
        c.send(&compile_request(slow, &saxpy("s").to_string()));
        c.send(&format!("{{\"op\":\"ping\",\"id\":\"{fast}\"}}"));
        let (first, second) = (c.recv(), c.recv());
        let order = format!("jobs={jobs}: {first}then {second}");
        assert!(
            first.starts_with(&format!("{{\"id\":\"{slow}\"")),
            "{order}"
        );
        assert!(
            second.starts_with(&format!("{{\"id\":\"{fast}\"")),
            "{order}"
        );
        handle.shutdown();
    }
}

/// A key runs on one worker at a time: the same uncached compile, sent
/// on four connections at once, is a miss once and a hit three times at
/// `--jobs 4`, exactly as at `--jobs 1`. The kernel is large enough that
/// its compile outlasts the four requests' arrival skew.
#[test]
fn a_key_in_flight_on_four_connections_misses_once() {
    let line = compile_request("dup", &scheduling_heavy("dup", 4, 40).to_string());
    let run = |jobs: usize| {
        let handle = start(jobs, 256);
        let mut conns: Vec<Client> = (0..4).map(|_| Client::connect(handle.addr())).collect();
        for c in &mut conns {
            c.send(&line);
        }
        let mut answers: Vec<String> = conns.iter_mut().map(Client::recv).collect();
        handle.shutdown();
        answers.sort();
        answers
    };
    let four = run(4);
    let misses = four
        .iter()
        .filter(|a| a.contains("\"cache\":\"miss\""))
        .count();
    assert_eq!(misses, 1, "{four:?}");
    assert_eq!(four, run(1), "answers depend on --jobs");
}

/// Four connections each pipeline 2 000 mixed requests (hits, misses,
/// uncacheable ops, malformed lines) while reading concurrently. Two
/// threads of a connection may both write to its socket over its life,
/// never at once: every line must be exactly one JSON object, every id
/// answered exactly once, and ids other than reader-side immediate
/// answers (which may overtake queued work, as they always could) in
/// request order.
#[test]
fn pipelined_mixed_traffic_never_interleaves_or_reorders() {
    const CONNS: usize = 4;
    const REQUESTS: usize = 2_000;
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 2,
        queue_high_water: 4 * REQUESTS,
        outbound_max: 4 * REQUESTS,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let hot: Vec<String> = (0..4).map(|s| random_loop(100 + s).to_string()).collect();
    {
        let mut c = Client::connect(handle.addr());
        for (i, text) in hot.iter().enumerate() {
            let warm = c.round_trip(&compile_request(&format!("warm-{i}"), text));
            assert!(warm.contains("\"status\":\"ok\""), "{warm}");
        }
    }
    std::thread::scope(|scope| {
        for conn in 0..CONNS {
            let (handle, hot) = (&handle, &hot);
            scope.spawn(move || {
                let mut c = Client::connect(handle.addr());
                let mut writer = c.writer();
                let sender = scope.spawn(move || {
                    for k in 0..REQUESTS {
                        let id = format!("c{conn}-{k}");
                        let line = match k % 20 {
                            7 => format!("{{\"op\":\"warp\",\"id\":\"{id}\"}}"),
                            11 => format!("{{\"op\":\"ping\",\"id\":\"{id}\"}}"),
                            13 => compile_request(
                                &id,
                                &random_loop((1000 + conn * REQUESTS + k) as u64).to_string(),
                            ),
                            _ => compile_request(&id, &hot[k % hot.len()]),
                        };
                        writer.write_all(line.as_bytes()).expect("write");
                        writer.write_all(b"\n").expect("write newline");
                    }
                });
                let mut seen = vec![false; REQUESTS];
                let mut last_in_order = None;
                for _ in 0..REQUESTS {
                    let line = c.recv();
                    let v = json::parse(&line).unwrap_or_else(|e| {
                        panic!("conn {conn}: not one JSON object ({e}): {line}")
                    });
                    let id = v.get("id").and_then(|i| i.as_str()).expect("id");
                    let k: usize = id
                        .strip_prefix(&format!("c{conn}-"))
                        .and_then(|k| k.parse().ok())
                        .unwrap_or_else(|| panic!("conn {conn}: foreign id {id}"));
                    assert!(
                        !std::mem::replace(&mut seen[k], true),
                        "{id} answered twice"
                    );
                    let status = v.get("status").and_then(|s| s.as_str()).expect("status");
                    if k % 20 == 7 {
                        assert_eq!(status, "error", "{line}");
                    } else {
                        assert_eq!(status, "ok", "{line}");
                        assert!(last_in_order < Some(k), "{id} overtook {last_in_order:?}");
                        last_in_order = Some(k);
                    }
                }
                sender.join().expect("sender");
            });
        }
    });
    // The reader-thread path was part of what just ran.
    let mut c = Client::connect(handle.addr());
    c.round_trip(&compile_request("closed-loop-hit", &hot[0]));
    let stats = json::parse(&c.round_trip("{\"op\":\"stats\"}")).expect("stats");
    assert!(stats.get("served_inline").and_then(|n| n.as_u64()) > Some(0));
    handle.shutdown();
}

/// A 1 MiB request that arrives in 1 KiB segments is reassembled byte
/// for byte: its content-derived id (a fingerprint of the whole line)
/// is the one computed locally, and the answer is the one the same
/// line gets in a single write.
#[test]
fn a_large_request_survives_segmentation() {
    let handle = start(1, 256);
    let mut c = Client::connect(handle.addr());
    let line = format!(
        "{{\"op\":\"compile\",\"pad\":\"{}\",\"loop\":\"{}\"}}",
        "x".repeat(1 << 20),
        json::escape(&saxpy("s").to_string())
    );
    let mut writer = c.writer();
    for segment in line.as_bytes().chunks(1024) {
        writer.write_all(segment).expect("write segment");
    }
    writer.write_all(b"\n").expect("write newline");
    let cold = c.recv();
    let id = format!("q{}", Fingerprint::of_str(&line).short_hex());
    assert!(
        cold.starts_with(&format!(
            "{{\"id\":\"{id}\",\"status\":\"ok\",\"cache\":\"miss\""
        )),
        "{cold}"
    );
    let warm = c.round_trip(&line);
    assert_eq!(
        cold.replacen("\"cache\":\"miss\"", "\"cache\":\"hit\"", 1),
        warm
    );
    handle.shutdown();
}

/// A client that never sends a newline is answered with a typed error
/// once its line passes the cap, and disconnected — the daemon neither
/// buffers the stream (peak memory stays far below what was sent) nor
/// rescans it.
#[test]
fn an_endless_request_line_is_refused_with_flat_memory() {
    const SENT: usize = 64 << 20;
    let handle = start(1, 256);
    let mut c = Client::connect(handle.addr());
    let before = peak_rss_bytes();
    let mut writer = c.writer();
    let flood = std::thread::spawn(move || {
        let block = vec![b'x'; 64 << 10];
        for _ in 0..SENT / block.len() {
            if writer.write_all(&block).is_err() {
                break; // disconnected, as promised
            }
        }
    });
    let answer = c.recv();
    assert!(answer.contains("\"status\":\"error\""), "{answer}");
    assert!(answer.contains("exceeds"), "{answer}");
    flood.join().expect("flood thread");
    assert_eq!(
        c.0.recv().map_err(|e| e.kind()),
        Err(ErrorKind::UnexpectedEof),
        "the connection is closed after the error"
    );
    if let (Some(before), Some(after)) = (before, peak_rss_bytes()) {
        assert!(
            after - before < SENT / 2,
            "peak RSS grew {} MiB under a {} MiB line",
            (after - before) >> 20,
            SENT >> 20
        );
    }
    handle.shutdown();
}

/// This process's peak resident set, where the platform reports one.
fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(
        kb.trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<usize>()
            .ok()?
            << 10,
    )
}

#[test]
fn overload_answers_instead_of_hanging() {
    let handle = start(1, 2);
    let mut c = Client::connect(handle.addr());
    let n = 64;
    for i in 0..n {
        c.send(&compile_request(
            &format!("b{i}"),
            &random_loop(i).to_string(),
        ));
    }
    let responses: Vec<String> = (0..n).map(|_| c.recv()).collect();
    let overloaded = responses
        .iter()
        .filter(|r| r.contains("\"status\":\"overloaded\""))
        .count();
    let ok = responses
        .iter()
        .filter(|r| r.contains("\"status\":\"ok\""))
        .count();
    assert!(
        overloaded > 0,
        "a 2-deep queue under a 64-request burst should shed load"
    );
    assert!(ok > 0, "admitted requests should still complete");
    assert_eq!(overloaded + ok, n as usize);
    handle.shutdown();
}

#[test]
fn malformed_requests_fail_soft() {
    let handle = start(1, 256);
    let mut c = Client::connect(handle.addr());
    let bad = c.round_trip("{\"op\":\"compile\",\"id\":\"x\",\"loop\":\"not a loop\"}");
    assert!(bad.contains("\"status\":\"error\""), "{bad}");
    assert!(
        bad.contains("\"id\":\"x\""),
        "error echoes the request id: {bad}"
    );
    let not_json = c.round_trip("this is not json");
    assert!(not_json.contains("\"status\":\"error\""), "{not_json}");
    // The connection survives both and still serves work.
    let ok = c.round_trip(&compile_request("y", &saxpy("s").to_string()));
    assert!(ok.contains("\"status\":\"ok\""), "{ok}");
    handle.shutdown();
}

/// A request line nested past the JSON depth bound is answered `error`
/// like any malformed line, and the daemon serves on.
#[test]
fn a_deeply_nested_line_is_refused_and_the_daemon_serves_on() {
    let handle = start(1, 256);
    common::assert_deep_nesting_is_refused(handle.addr());
    handle.shutdown();
}

/// Data speculation was removed: `"speculate":true` is refused with the
/// request's id, and `"speculate":false` is the request without it.
#[test]
fn speculation_is_refused_on_the_wire() {
    let handle = start(1, 256);
    let mut c = Client::connect(handle.addr());
    let text = json::escape(&saxpy("s").to_string());
    let refused = c.round_trip(&format!(
        "{{\"op\":\"compile\",\"id\":\"x\",\"loop\":\"{text}\",\"speculate\":true}}"
    ));
    let v = json::parse(&refused).unwrap();
    assert_eq!(v.get("id").unwrap().as_str(), Some("x"), "{refused}");
    assert_eq!(
        v.get("status").unwrap().as_str(),
        Some("error"),
        "{refused}"
    );
    assert!(
        refused.contains("data speculation is not supported"),
        "{refused}"
    );
    let plain = c.round_trip(&compile_request("y", &saxpy("s").to_string()));
    let off = c.round_trip(&format!(
        "{{\"op\":\"compile\",\"id\":\"y\",\"loop\":\"{text}\",\"speculate\":false}}"
    ));
    assert!(plain.contains("\"cache\":\"miss\""), "{plain}");
    assert_eq!(
        plain.replacen("\"cache\":\"miss\"", "\"cache\":\"hit\"", 1),
        off,
        "speculate:false must hit the plain request's entry with its bytes"
    );
    handle.shutdown();
}

#[test]
fn shutdown_acknowledges_then_drains() {
    let handle = start(2, 256);
    let addr = handle.addr();
    let mut c = Client::connect(handle.addr());
    c.send(&compile_request("w", &saxpy("s").to_string()));
    let first = c.recv();
    assert!(first.contains("\"status\":\"ok\""), "{first}");
    let ack = c.round_trip("{\"op\":\"shutdown\",\"id\":\"bye\"}");
    assert!(ack.contains("\"status\":\"draining\""), "{ack}");
    handle.wait(); // returns only once the listener closed and work drained
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener should be closed after drain"
    );
}
