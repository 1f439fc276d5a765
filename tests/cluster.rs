//! End-to-end tests of the sharded serving layer (`ltsp_cluster`) over
//! real TCP: routing determinism, byte-identity through the router,
//! failover under dead/draining/killed shards, drain propagation,
//! aggregated metrics, and the persistent warm-start cache tier — in
//! process, and across real `ltspc serve` processes: a worker killed by a
//! fault, and a `--cluster 3` whose worker is SIGKILLed under load.

mod common;

use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener};
use std::time::{Duration, Instant};

use common::{Client, Serve};
use ltsp::cluster::ring::DEFAULT_VNODES;
use ltsp::cluster::{routing_key, spawn_router, Ring, RouterConfig, RouterHandle};
use ltsp::server::{spawn, ServerConfig, ServerHandle};
use ltsp::telemetry::json;
use ltsp::telemetry::prom::PromSnapshot;
use ltsp::workloads::{random_loop, saxpy};
use ltsp_bench::loadgen::{self, Plan};

fn start_shard() -> ServerHandle {
    spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs: 1,
        ..ServerConfig::default()
    })
    .expect("bind shard")
}

fn start_cluster(n: usize) -> (RouterHandle, Vec<ServerHandle>) {
    let shards: Vec<ServerHandle> = (0..n).map(|_| start_shard()).collect();
    let router = spawn_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shard_addrs: shards.iter().map(|s| s.addr().to_string()).collect(),
        cooldown: Duration::from_millis(200),
        ..RouterConfig::default()
    })
    .expect("bind router");
    (router, shards)
}

fn compile_request(id: &str, loop_text: &str) -> String {
    format!(
        "{{\"op\":\"compile\",\"id\":\"{id}\",\"loop\":\"{}\"}}",
        json::escape(loop_text)
    )
}

fn status_of(line: &str) -> String {
    json::parse(line.trim())
        .expect("valid response json")
        .get("status")
        .and_then(|s| s.as_str())
        .expect("status field")
        .to_string()
}

/// Routed responses are byte-for-byte what the owning shard produced —
/// and a warm hit through the router equals a warm hit taken directly
/// from the shard.
#[test]
fn router_responses_are_byte_identical_to_direct() {
    let (router, shards) = start_cluster(3);
    let line = compile_request("bi", &saxpy("bi").to_string());
    let owner = Ring::new(3, DEFAULT_VNODES).owner(routing_key(&line));

    let mut via_router = Client::connect(router.addr());
    let cold = via_router.round_trip(&line);
    let warm = via_router.round_trip(&line);
    assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
    assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
    assert_eq!(
        cold.replacen("\"cache\":\"miss\"", "\"cache\":\"hit\"", 1),
        warm,
        "hit and miss differ beyond the cache tag through the router"
    );

    // The same request sent straight to the owning shard must produce
    // the identical bytes the router proxied.
    let mut direct = Client::connect(shards[owner].addr());
    let direct_warm = direct.round_trip(&line);
    assert_eq!(direct_warm, warm, "router added or changed bytes");

    // Protocol errors are proxied too: a malformed line gets the exact
    // error the shard renders, not a router-invented one.
    let bad = "this is not json";
    let via = via_router.round_trip(bad);
    let owner_bad = Ring::new(3, DEFAULT_VNODES).owner(routing_key(bad));
    let mut direct_bad = Client::connect(shards[owner_bad].addr());
    assert_eq!(via, direct_bad.round_trip(bad));

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// A request line that never ends is refused by the router exactly as a
/// daemon refuses it — the same error line, then the connection closes —
/// instead of being buffered, and rescanned, without bound.
#[test]
fn an_endless_line_is_refused_through_the_router_as_directly() {
    const SENT: usize = 16 << 20;
    let (router, shards) = start_cluster(1);
    let refusal = |addr: SocketAddr| -> String {
        let mut c = Client::connect(addr);
        let mut writer = c.writer();
        let flood = std::thread::spawn(move || {
            let block = vec![b'x'; 64 << 10];
            for _ in 0..SENT / block.len() {
                if writer.write_all(&block).is_err() {
                    return; // refused and closed, as promised
                }
            }
            let _ = writer.shutdown(Shutdown::Write);
        });
        let answer = c.recv();
        flood.join().expect("flood thread");
        assert_eq!(
            c.0.recv().map_err(|e| e.kind()),
            Err(ErrorKind::UnexpectedEof),
            "{addr} closes the connection after the refusal"
        );
        answer
    };
    let t0 = Instant::now();
    let via_router = refusal(router.addr());
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "the router took {:?} to refuse",
        t0.elapsed()
    );
    assert!(via_router.contains("exceeds"), "{via_router}");
    assert_eq!(
        via_router,
        refusal(shards[0].addr()),
        "the router's refusal differs from the daemon's"
    );
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// The router parses every line it routes with the daemon's parser: a
/// line nested past the JSON depth bound is answered `error` through a
/// one-shard cluster, and the router serves on.
#[test]
fn a_deeply_nested_line_is_refused_through_the_router() {
    let (router, shards) = start_cluster(1);
    common::assert_deep_nesting_is_refused(router.addr());
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// The same loop always routes to the same shard (cache locality): N
/// distinct loops through the router leave exactly N result-cache
/// misses across all shards — repeats are all hits, never re-sharded.
#[test]
fn routing_is_sticky_per_loop() {
    let (router, shards) = start_cluster(3);
    let mut c = Client::connect(router.addr());
    let loops: Vec<String> = (0..12).map(|i| random_loop(i).to_string()).collect();
    for round in 0..3 {
        for (i, text) in loops.iter().enumerate() {
            let resp = c.round_trip(&compile_request(&format!("s{round}-{i}"), text));
            let want_hit = round > 0;
            assert_eq!(
                resp.contains("\"cache\":\"hit\""),
                want_hit,
                "round {round} loop {i}: {resp}"
            );
        }
    }
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// Killing a shard's process mid-run must not wedge or drop requests:
/// every request is answered (re-routed to a live shard or an explicit
/// `error`), and the router records failovers.
#[test]
fn failover_survives_a_dead_shard() {
    let (router, mut shards) = start_cluster(3);
    let mut c = Client::connect(router.addr());

    // Abruptly take shard 0 down (drains and closes its listener).
    shards.remove(0).shutdown();

    let n = 24;
    let mut answered = 0;
    let mut failed_over_ok = 0;
    for i in 0..n {
        let resp = c.round_trip(&compile_request(
            &format!("f{i}"),
            &random_loop(100 + i).to_string(),
        ));
        let status = status_of(&resp);
        assert!(
            ["ok", "rejected", "error"].contains(&status.as_str()),
            "unexpected status {status}: {resp}"
        );
        answered += 1;
        if status != "error" {
            failed_over_ok += 1;
        }
    }
    assert_eq!(answered, n, "no request silently dropped");
    // With 2 of 3 shards alive, the bulk must still be served.
    assert!(
        failed_over_ok >= n - 1,
        "only {failed_over_ok}/{n} served with 2 live shards"
    );

    let stats = c.round_trip("{\"op\":\"stats\",\"id\":\"st\"}");
    let v = json::parse(stats.trim()).unwrap();
    let failovers = v
        .get("router_failovers")
        .and_then(|x| x.as_u64())
        .unwrap_or(0);
    assert!(failovers > 0, "dead shard produced no failovers: {stats}");

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// With every shard unreachable, requests get an explicit `error`
/// response — bounded retry, never a hang, never silence.
#[test]
fn exhausted_failover_answers_error() {
    // Grab ports that nothing listens on.
    let dead: Vec<String> = (0..2)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        })
        .collect();
    let router = spawn_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shard_addrs: dead,
        connect_timeout: Duration::from_millis(500),
        ..RouterConfig::default()
    })
    .expect("bind router");
    let mut c = Client::connect(router.addr());
    let t0 = Instant::now();
    let resp = c.round_trip(&compile_request("dead", &saxpy("d").to_string()));
    assert_eq!(status_of(&resp), "error", "{resp}");
    assert!(resp.contains("no shard available"), "{resp}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "exhaustion took {:?} — retry is not bounded",
        t0.elapsed()
    );
    router.shutdown();
}

/// A client `shutdown` to the router drains the whole cluster: the ack
/// matches the daemon's shape, every shard drains, the router stops.
#[test]
fn shutdown_propagates_through_the_router() {
    let (router, shards) = start_cluster(2);
    let mut c = Client::connect(router.addr());
    let ack = c.round_trip("{\"op\":\"shutdown\",\"id\":\"sd\"}");
    assert!(ack.contains("\"status\":\"draining\""), "{ack}");
    assert!(ack.contains("\"op\":\"shutdown\""), "{ack}");
    for s in shards {
        s.wait(); // drains because the router broadcast shutdown
    }
    router.wait();
}

/// The router's `metrics` op aggregates every shard's snapshot with
/// `shard="N"` labels plus its own routing counters, and the result is
/// a well-formed Prometheus exposition.
#[test]
fn metrics_aggregate_per_shard() {
    let (router, shards) = start_cluster(3);
    let mut c = Client::connect(router.addr());
    for i in 0..6 {
        let resp = c.round_trip(&compile_request(
            &format!("m{i}"),
            &random_loop(200 + i).to_string(),
        ));
        assert_eq!(status_of(&resp), "ok", "{resp}");
    }
    let line = c.round_trip("{\"op\":\"metrics\",\"id\":\"mx\"}");
    let v = json::parse(line.trim()).unwrap();
    let text = v.get("metrics").and_then(|m| m.as_str()).unwrap();
    let snap = PromSnapshot::parse(text).expect("well-formed aggregated exposition");

    assert_eq!(
        snap.value("ltsp_router_proxied_total", &[]),
        Some(6.0),
        "proxied counter"
    );
    let mut shard_requests = 0.0;
    for i in 0..3 {
        let idx = i.to_string();
        assert_eq!(
            snap.value("ltsp_shard_up", &[("shard", &idx)]),
            Some(1.0),
            "shard {i} up"
        );
        for st in ["ok", "rejected", "error", "overloaded", "draining"] {
            shard_requests += snap
                .value("ltsp_requests_total", &[("shard", &idx), ("status", st)])
                .unwrap_or(0.0);
        }
    }
    assert_eq!(shard_requests, 6.0, "per-shard request totals add up");

    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}

/// The persistent tier's warm-start contract at the wire level: a
/// restarted shard replaying its log serves a **byte-identical** hit to
/// the pre-restart in-memory hit, from its very first request.
#[test]
fn warm_restart_hits_are_byte_identical() {
    let dir = std::env::temp_dir().join(format!("ltsp-warm-restart-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("shard.log");
    let _ = std::fs::remove_file(&log);

    let persist_cfg = || {
        let mut cfg = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: 1,
            ..ServerConfig::default()
        };
        cfg.engine.persist_path = Some(log.clone());
        cfg
    };

    let lines: Vec<String> = (0..5)
        .map(|i| compile_request(&format!("w{i}"), &random_loop(300 + i).to_string()))
        .collect();

    let first = spawn(persist_cfg()).expect("bind shard");
    let mut c = Client::connect(first.addr());
    let mut warm_before = Vec::new();
    for line in &lines {
        let cold = c.round_trip(line);
        assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
        warm_before.push(c.round_trip(line)); // in-memory hit
    }
    first.shutdown();

    let second = spawn(persist_cfg()).expect("rebind shard");
    let mut c = Client::connect(second.addr());
    for (line, before) in lines.iter().zip(&warm_before) {
        let after = c.round_trip(line);
        assert!(
            after.contains("\"cache\":\"hit\""),
            "not warm from request one: {after}"
        );
        assert_eq!(
            &after, before,
            "warm-from-disk hit differs from in-memory hit"
        );
    }
    second.shutdown();
}

/// Chaos: a real worker process killed mid-load by the `shardkill`
/// fault site (exit 113). The router must fail over — every request
/// answered, zero wedged connections, nonzero failovers — and the
/// killed process must have exited with the fault's code.
#[test]
fn shardkill_fault_process_failover() {
    // Shard 0 kills itself on the first handled request; shard 1 is
    // healthy.
    let mut doomed = Serve::start(
        1,
        &["--jobs", "1"],
        &[("LTSP_FAULT", "shardkill:1.0,seed:7")],
    );
    let mut healthy = Serve::start(1, &["--jobs", "1"], &[]);

    let router = spawn_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shard_addrs: vec![doomed.addr.clone(), healthy.addr.clone()],
        connect_timeout: Duration::from_secs(1),
        cooldown: Duration::from_secs(60), // once dead, stay dead for the test
        ..RouterConfig::default()
    })
    .expect("bind router");

    let mut c = Client::connect(router.addr());
    let n = 16;
    for i in 0..n {
        let resp = c.round_trip(&compile_request(
            &format!("k{i}"),
            &random_loop(400 + i).to_string(),
        ));
        let status = status_of(&resp);
        assert!(
            ["ok", "rejected", "error"].contains(&status.as_str()),
            "request {i} wedged or dropped: {resp}"
        );
    }

    let stats = c.round_trip("{\"op\":\"stats\",\"id\":\"cs\"}");
    let v = json::parse(stats.trim()).unwrap();
    assert!(
        v.get("router_failovers")
            .and_then(|x| x.as_u64())
            .unwrap_or(0)
            > 0,
        "shard kill produced no failovers: {stats}"
    );

    let killed = doomed.exit_within(Duration::from_secs(30));
    assert_eq!(
        killed.code(),
        Some(ltsp::server::SHARD_KILL_EXIT_CODE),
        "doomed shard exited with the wrong code"
    );

    // Drain the healthy worker and the router.
    let mut drain = Client::connect(&healthy.addr);
    let ack = drain.round_trip("{\"op\":\"shutdown\",\"id\":\"cleanup\"}");
    assert!(ack.contains("\"status\":\"draining\""), "{ack}");
    assert!(healthy.exit_within(Duration::from_secs(30)).success());
    router.shutdown();
}

/// SIGKILLs the `ltspc serve` process whose `--addr` is `addr`: a crash,
/// not a drain.
#[cfg(target_os = "linux")]
fn kill_process_serving(addr: &str) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGKILL: i32 = 9;
    let serving = |cmdline: &[u8]| {
        let args: Vec<&[u8]> = cmdline.split(|b| *b == 0).collect();
        args.windows(2)
            .any(|w| w[0] == b"--addr" && w[1] == addr.as_bytes())
    };
    let pids: Vec<i32> = std::fs::read_dir("/proc")
        .expect("/proc")
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
        .filter(|pid| std::fs::read(format!("/proc/{pid}/cmdline")).is_ok_and(|c| serving(&c)))
        .collect();
    assert_eq!(pids.len(), 1, "processes serving {addr}: {pids:?}");
    // SAFETY: `kill` takes a pid and a signal number and touches no
    // memory of this process.
    assert_eq!(unsafe { kill(pids[0], SIGKILL) }, 0, "kill {}", pids[0]);
}

/// `ltspc serve --cluster 3` end to end: a worker SIGKILLed mid-load is
/// failed over (every request answered, none with an error), respawned
/// by the supervisor and scrapeable again; after a drain, a restarted
/// cluster replays the shards' cache logs and answers the same workload
/// with zero misses.
#[cfg(target_os = "linux")]
#[test]
fn a_killed_shard_fails_over_respawns_and_the_cluster_restarts_warm() {
    let dir = std::env::temp_dir().join(format!("ltsp-cluster-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = dir.to_string_lossy().into_owned();
    let args = ["--cluster", "3", "--jobs", "2", "--persist-dir", &dir];
    let mut cluster = Serve::start(4, &args, &[]);
    let plan = Plan {
        addr: cluster.addr.clone(),
        conns: 4,
        requests: 1000,
        synthetic: 4,
        corpus: format!("{}/loops", env!("CARGO_MANIFEST_DIR")),
        ..Plan::default()
    };
    let (host, port) = cluster.addr.rsplit_once(':').expect("host:port");
    let victim = format!("{host}:{}", port.parse::<u16>().expect("port") + 1);

    // Kill shard 0 once the load is under way.
    let killer = {
        let addr = cluster.addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr);
            let proxied = |c: &mut Client| {
                let line = c.round_trip("{\"op\":\"stats\",\"id\":\"k\"}");
                let v = json::parse(line.trim()).expect("stats json");
                v.get("router_proxied").and_then(|x| x.as_u64())
            };
            while proxied(&mut c) < Some(200) {
                std::thread::sleep(Duration::from_millis(10));
            }
            kill_process_serving(&victim);
        })
    };
    let r = loadgen::run(&plan).expect("no connection wedges");
    killer.join().expect("killer thread");
    let Some(snap) = &r.cluster else {
        panic!("no router snapshot: {r:?}")
    };
    let v = |name: &str, labels: &[(&str, &str)]| snap.value(name, labels).unwrap_or(0.0);
    assert_eq!(snap.shard_ids(), [0, 1, 2]);
    assert_eq!(r.responses, 4 * 1000, "{r:?}");
    assert_eq!(r.status.error, 0, "{r:?}");
    assert!(v("ltsp_router_failovers_total", &[]) > 0.0, "no failover");
    assert_eq!(v("ltsp_router_retries_exhausted_total", &[]), 0.0);
    for shard in ["0", "1", "2"] {
        let up = v("ltsp_shard_up", &[("shard", shard)]);
        assert_eq!(up, 1.0, "shard {shard} down");
    }
    assert_eq!(v("ltsp_shard_respawns_total", &[("shard", "0")]), 1.0);

    // Requests that failed over while shard 0 was dead were computed and
    // persisted by a non-owner. One calm pass, once the router's 1 s
    // dead-mark cooldown has passed, sends every key back to its owner,
    // which persists what it missed.
    std::thread::sleep(Duration::from_secs(2));
    let repair = loadgen::run(&plan).expect("repair pass");
    assert_eq!(repair.status.error, 0, "{repair:?}");
    assert!(cluster.drain().success());

    // Fresh processes, same workload and seed: every shard replays its
    // log, so every request is a hit from request one.
    let mut cluster = Serve::start(4, &args, &[]);
    let warm = loadgen::run(&Plan {
        addr: cluster.addr.clone(),
        ..plan
    })
    .expect("warm restart pass");
    assert_eq!(warm.misses, 0, "{warm:?}");
    assert_eq!(warm.hit_rate(), 1.0, "{warm:?}");
    assert_eq!(warm.status.error, 0, "{warm:?}");
    let snap = PromSnapshot::parse(&cluster.metrics()).expect("well-formed exposition");
    if let Err(bad) = loadgen::cross_check(&warm, &snap) {
        panic!("router metrics disagree with the load generator: {bad:#?}");
    }
    assert!(cluster.drain().success());
}
