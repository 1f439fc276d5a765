//! The tiered backend's upgrade-path guarantees, end to end: concurrent
//! requests observe heuristic bytes or exact bytes — never a torn mix —
//! the upgraded bytes are byte-identical across `--jobs`, and a warm
//! restart replays the upgraded entry (last-writer-wins) instead of
//! resurrecting the heuristic body.

mod common;

use common::Client;
use std::sync::Arc;

use ltsp::server::{spawn, Engine, EngineConfig, ServerConfig, ServerHandle};
use ltsp::telemetry::{json, Telemetry};
use ltsp::workloads::saxpy;

fn start(jobs: usize, engine: EngineConfig) -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        engine,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port")
}

fn tiered_request(id: &str, loop_text: &str) -> String {
    format!(
        "{{\"op\":\"compile\",\"id\":\"{id}\",\"loop\":\"{}\",\"backend\":\"tiered\"}}",
        json::escape(loop_text)
    )
}

/// The response body after the envelope (`id`/`status`/`cache` fields),
/// so bodies compare across differing ids and cache tags.
fn body_after_cache(line: &str) -> &str {
    let cache = line.find("\"cache\":\"").expect("cache field");
    let rest = &line[cache + 9..];
    let end = rest.find('"').expect("cache tag closes");
    &rest[end + 1..]
}

/// Engine-level race: four threads hammer the same tiered request while
/// the refinement worker upgrades the entry underneath them. Every
/// response must be exactly the heuristic bytes or exactly the exact
/// bytes — a torn body (upgrade observed mid-swap) fails loudly.
#[test]
fn concurrent_tiered_requests_never_observe_torn_bytes() {
    let e = Arc::new(Engine::new(EngineConfig::default()));
    let tel = Telemetry::disabled();
    let line = tiered_request("race", &saxpy("s").to_string());
    let req = ltsp::server::parse_request(&line).unwrap();

    let initial = e.handle(&req, &tel);
    assert_eq!(initial.status, "ok");
    let heuristic_body = initial.body.clone();

    let workers: Vec<_> = (0..4)
        .map(|_| {
            let e = Arc::clone(&e);
            let req = req.clone();
            std::thread::spawn(move || {
                let tel = Telemetry::disabled();
                let mut bodies = Vec::new();
                for _ in 0..200 {
                    bodies.push(e.handle(&req, &tel).body);
                }
                bodies
            })
        })
        .collect();
    e.refine_wait_idle();
    let exact_body = e.handle(&req, &tel).body;
    assert_ne!(exact_body, heuristic_body, "the upgrade really landed");
    for w in workers {
        for body in w.join().unwrap() {
            assert!(
                body == heuristic_body || body == exact_body,
                "torn or foreign body observed:\n{body}"
            );
        }
    }
}

/// Over TCP at `--jobs` 1 and 4: every response is one of the two
/// canonical bodies, and the post-upgrade (quiesced) bytes are
/// byte-identical across worker counts.
#[test]
fn tiered_upgrade_bytes_are_jobs_invariant() {
    let run = |jobs: usize| -> (String, String, String) {
        let handle = start(jobs, EngineConfig::default());
        let mut c = Client::connect(handle.addr());
        let text = saxpy("s").to_string();
        let line = tiered_request("t", &text);
        let cold = c.round_trip(&line);
        assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
        let heuristic = body_after_cache(&cold).to_string();
        let exact_line = format!(
            "{{\"op\":\"compile\",\"id\":\"t\",\"loop\":\"{}\",\"backend\":\"exact\"}}",
            json::escape(&text)
        );
        let exact = body_after_cache(&c.round_trip(&exact_line)).to_string();
        let mut upgraded = None;
        for _ in 0..500 {
            let resp = c.round_trip(&line);
            let body = body_after_cache(&resp);
            assert!(
                body == heuristic || body == exact,
                "torn body over the wire:\n{resp}"
            );
            if resp.contains("\"cache\":\"upgraded\"") {
                assert_eq!(body, exact, "upgraded bytes are the exact bytes");
                upgraded = Some(body.to_string());
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        handle.shutdown();
        (
            heuristic,
            exact,
            upgraded.expect("refinement landed within the polling window"),
        )
    };
    let (h1, e1, u1) = run(1);
    let (h4, e4, u4) = run(4);
    assert_eq!(h1, h4, "heuristic bytes depend on --jobs");
    assert_eq!(e1, e4, "exact bytes depend on --jobs");
    assert_eq!(u1, u4, "upgraded bytes depend on --jobs");
}

/// The second append wins across a restart: after an upgrade, a fresh
/// daemon on the same persistence log serves the exact bytes as a plain
/// warm hit.
#[test]
fn post_upgrade_warm_restart_serves_upgraded_bytes() {
    let dir = std::env::temp_dir().join(format!("ltsp-tiered-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.log");
    let _ = std::fs::remove_file(&path);
    let engine_cfg = || EngineConfig {
        persist_path: Some(path.clone()),
        ..EngineConfig::default()
    };
    let line = tiered_request("t", &saxpy("s").to_string());

    let upgraded = {
        let handle = start(2, engine_cfg());
        let mut c = Client::connect(handle.addr());
        let cold = c.round_trip(&line);
        assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
        let mut upgraded = None;
        for _ in 0..500 {
            let resp = c.round_trip(&line);
            if resp.contains("\"cache\":\"upgraded\"") {
                upgraded = Some(body_after_cache(&resp).to_string());
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        handle.shutdown();
        upgraded.expect("refinement landed within the polling window")
    };

    let handle = start(2, engine_cfg());
    let mut c = Client::connect(handle.addr());
    let replayed = c.round_trip(&line);
    assert!(
        replayed.contains("\"cache\":\"hit\""),
        "replayed entry serves warm: {replayed}"
    );
    assert_eq!(
        body_after_cache(&replayed),
        upgraded,
        "warm restart resurrected superseded bytes"
    );
    handle.shutdown();
}
