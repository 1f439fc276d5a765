//! `ltspc` usage errors and `ltspc serve` end to end: an unknown flag, a
//! zero where the daemon needs at least one, and a per-process file asked
//! of a whole cluster exit 2 before anything binds or is read; every op
//! served by `ltspc serve` and fetched with `ltspc remote` prints exactly
//! what the local run prints. The daemon drills drive a spawned `ltspc serve`
//! through the load generator (`ltsp_bench::loadgen`): a cold and an
//! all-warm pass, tiered and adaptive upgrades that land, and injected
//! faults that are contained, traced and dumped; each drains within 30 s
//! and writes what `--metrics-out`/`--trace-out` asked for.

mod common;

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use common::Serve;
use ltsp::server::client::Client;
use ltsp::server::{Backend, FaultPlan, FaultSite, Mode};
use ltsp::telemetry::json;
use ltsp::telemetry::prom::PromSnapshot;
use ltsp_bench::loadgen::{self, Plan, Report};

fn ltspc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ltspc"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run ltspc")
}

fn serve(args: &[&str]) -> Output {
    ltspc(&[&["serve", "--addr", "127.0.0.1:0"][..], args].concat())
}

fn corpus(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("loops")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    let saxpy = corpus("saxpy.loop");
    for args in [&["--speculate"][..], &["--bogus"], &[&saxpy, "--speculate"]] {
        let out = ltspc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: ltspc"), "{args:?}: {stderr}");
    }
    // The daemon answers one job at a time; there is no batch to size.
    let out = serve(&["--batch", "4"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("ltspc: serve: unknown flag --batch"),
        "{stderr}"
    );
    // `-` is stdin, not a flag.
    let out = Command::new(env!("CARGO_BIN_EXE_ltspc"))
        .arg("-")
        .stdin(std::fs::File::open(&saxpy).expect("corpus loop"))
        .output()
        .expect("run ltspc -");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(out.stdout, ltspc(&[&saxpy]).stdout);
}

/// A subcommand takes only the request flags whose fields it reads:
/// `verify` none, `oracle` only `--budget`, a local compile neither the
/// wall-clock `--deadline-ms` nor `--timings`, and `remote` not the
/// compile tuning knobs. A trip estimate the wire refuses is refused
/// before anything runs.
#[test]
fn a_request_flag_the_subcommand_does_not_read_is_a_usage_error() {
    let saxpy = corpus("saxpy.loop");
    let saxpy = saxpy.as_str();
    let remote = ["remote", "127.0.0.1:1", saxpy];
    let mut refused: Vec<Vec<&str>> = Vec::new();
    for flag in [
        &["--policy", "hlo"][..],
        &["--trip", "7"],
        &["--threshold", "8"],
        &["--no-prefetch"],
        &["--balanced"],
        &["--backend", "exact"],
        &["--mode", "static"],
        &["--adaptive"],
        &["--deadline-ms", "5"],
        &["--timings"],
    ] {
        refused.push([&["verify", saxpy][..], flag].concat());
        refused.push([&["oracle", saxpy][..], flag].concat());
    }
    refused.push(vec!["verify", saxpy, "--budget", "5"]);
    for flag in [&["--deadline-ms", "5"][..], &["--timings"]] {
        refused.push([&[saxpy][..], flag].concat());
    }
    for flag in [
        &["--threshold", "8"][..],
        &["--no-prefetch"],
        &["--balanced"],
    ] {
        refused.push([&remote[..], flag].concat());
    }
    for trip in ["-1", "NaN", "inf"] {
        refused.push(vec![saxpy, "--trip", trip]);
        refused.push([&remote[..], &["--trip", trip]].concat());
    }
    for args in &refused {
        let out = ltspc(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("usage: ltspc"), "{args:?}: {stderr}");
    }
    let out = ltspc(&["oracle", saxpy, "--budget", "5000"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn zero_is_a_usage_error_where_the_daemon_needs_one() {
    for flag in [
        "--queue",
        "--outbound",
        "--flight-len",
        "--write-deadline-ms",
        "--persist-warn-mb",
        "--jobs",
    ] {
        let out = serve(&[flag, "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        let diag = stderr.lines().next().unwrap_or_default();
        assert!(diag.contains(&flag[2..]), "names the flag: {stderr}");
    }
}

#[test]
fn a_cluster_refuses_per_process_files() {
    for args in [
        ["--flight-dir", "d"],
        ["--trace-out", "t.jsonl"],
        ["--metrics-out", "m.json"],
        ["--persist", "p.log"],
    ] {
        let out = serve(&[&["--cluster", "2"][..], &args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        let diag = stderr.lines().next().unwrap_or_default();
        assert!(diag.contains(args[0]), "names the flag: {stderr}");
    }
}

const PING: &str = r#"{"op":"ping","id":"p"}"#;

/// `ltspc serve` announces the address it bound, and only once it bound:
/// a port that cannot be bound prints no banner and exits 3 (I/O), and
/// port 0 is announced as the port the system picked.
#[test]
fn serve_announces_the_address_it_bound() {
    let out = ltspc(&["serve", "--addr", "127.0.0.1:234824"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{stderr}");
    assert!(!stderr.contains("serving on"), "{stderr}");

    let mut child = Command::new(env!("CARGO_BIN_EXE_ltspc"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ltspc serve");
    let banner = std::io::BufRead::lines(std::io::BufReader::new(
        child.stderr.take().expect("stderr"),
    ))
    .map_while(Result::ok)
    .find(|l| l.contains("serving on"));
    let addr: Option<std::net::SocketAddr> = banner
        .as_deref()
        .and_then(|l| l.strip_prefix("ltspc: serving on "))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|a| a.parse().ok());
    let answered = addr.is_some_and(|a| pinged(&a.to_string(), Duration::from_secs(5)));
    let _ = child.kill();
    let _ = child.wait();
    assert!(addr.is_some_and(|a| a.port() != 0), "{banner:?}");
    assert!(answered, "no ping answered on {banner:?}");
}

/// Whether a `ping` on a fresh connection is answered within `wait`.
fn pinged(addr: &str, wait: Duration) -> bool {
    Client::connect(addr, Some(wait))
        .and_then(|mut c| c.request(PING))
        .is_ok_and(|r| r.contains(r#""status":"ok""#))
}

/// Opens connections to a daemon limited to `fds` descriptors, pinging
/// on each, until one is refused; returns the ones served, still open.
/// The refused one is left open too until the caller's next step, in the
/// daemon's listen backlog or closed by it.
fn hold_until_refused(daemon: &Serve, fds: usize, ping: &str) -> (Vec<Client>, Option<Client>) {
    let mut held = Vec::new();
    loop {
        assert!(
            held.len() < 32,
            "32 connections served under {fds} descriptors"
        );
        let Ok(mut conn) = Client::connect(&daemon.addr, Some(Duration::from_secs(1))) else {
            return (held, None);
        };
        if conn.request(ping).is_err() {
            return (held, Some(conn));
        }
        held.push(conn);
    }
}

/// A daemon out of file descriptors refuses only the connections it
/// cannot hold: once they close, a new connection is served again.
#[cfg(unix)]
#[test]
fn accepting_resumes_once_file_descriptors_are_free_again() {
    let mut daemon = Serve::start_with_fd_limit(24, &[], &[]);
    let held = hold_until_refused(&daemon, 24, PING);
    // The daemon frees their descriptors as it reads their EOFs; until
    // then a new connection may still be refused.
    drop(held);
    let t0 = Instant::now();
    while !pinged(&daemon.addr, Duration::from_secs(1)) {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "no connection served once the held ones closed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(daemon.drain().success());
}

/// A drain that starts while the daemon is out of file descriptors, and
/// stays so for seconds, still ends once the connections that kept it
/// there close. Both parities of the
/// descriptor count are tried: one descriptor short of the limit, the
/// blocked `accept` holds the last one, so the wake-up cannot connect.
#[cfg(unix)]
#[test]
fn a_drain_begun_out_of_file_descriptors_ends_when_connections_close() {
    let spec = "slow:200ms@0.5";
    let faults = FaultPlan::parse(spec).expect("fault spec");
    let ping_where = |slow: bool| {
        let id = (0..)
            .map(|i| format!("p{i}"))
            .find(|id| faults.fires(FaultSite::Slow, id) == slow)
            .expect("an id");
        format!(r#"{{"op":"ping","id":"{id}"}}"#)
    };
    let (fast_ping, slow_ping) = (ping_where(false), ping_where(true));
    for fds in [24, 25] {
        let env = [("LTSP_FAULT", spec)];
        let mut daemon = Serve::start_with_fd_limit(fds as u32, &["--jobs", "1"], &env);
        let (mut held, refused) = hold_until_refused(&daemon, fds, &fast_ping);
        drop(refused);
        let mut asker = held.pop().expect("a connection served");
        // One slow ping keeps the dispatcher busy while one more per
        // connection queues behind it. Those then run as one batch,
        // answered together about two seconds after the drain begins:
        // until then every connection keeps its descriptors.
        for conn in &mut held {
            conn.set_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
        }
        held[0].send(&slow_ping).expect("send a slow ping");
        std::thread::sleep(Duration::from_millis(100));
        for conn in &mut held {
            conn.send(&slow_ping).expect("send a slow ping");
        }
        let mut answers = vec![held[0].recv()];
        asker.shutdown("drain").expect("shutdown acknowledged");
        answers.extend(held.iter_mut().map(Client::recv));
        for answer in answers {
            let answer = answer.expect("queued work is answered in a drain");
            assert!(answer.contains(r#""status":"ok""#), "{answer}");
        }
        drop((asker, held));
        let status = daemon.exit_within(Duration::from_secs(10));
        assert!(status.success(), "under {fds} descriptors: {status}");
    }
}

/// Context switches per second of an idle `ltspc serve --jobs JOBS` with
/// one connection open, summed over its worker threads (`ltspd-dispatch`)
/// across 3 s, after every worker has run a job: their wake-ups while
/// nothing happens. The reader's read-timeout wake-ups are left out.
#[cfg(target_os = "linux")]
fn idle_wakes_per_second(jobs: &str) -> f64 {
    let mut daemon = Serve::start(1, &["--jobs", jobs], &[]);
    let mut conn = Client::connect(&daemon.addr, Some(Duration::from_secs(10))).expect("connect");
    // Sixteen distinct cold compiles queued at once keep every worker busy.
    for k in 0..16 {
        let line =
            format!(r#"{{"op":"compile","id":"c{k}","loop":"loop k{k} {{\n  i0: movl g0 =\n}}"}}"#);
        conn.send(&line).expect("send a compile");
    }
    for _ in 0..16 {
        let answer = conn.recv().expect("a compile answered");
        assert!(answer.contains(r#""status":"ok""#), "{answer}");
    }
    std::thread::sleep(Duration::from_millis(300));
    let tasks = format!("/proc/{}/task", daemon.pid());
    let switches = || -> u64 {
        let tasks = std::fs::read_dir(&tasks).expect("the daemon's threads");
        let status = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("status"));
        tasks
            .filter_map(|t| status(t.ok()?).ok())
            .filter(|s| s.lines().next() == Some("Name:\tltspd-dispatch"))
            .flat_map(|s| {
                s.lines()
                    .filter(|l| l.contains("ctxt_switches:"))
                    .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
                    .collect::<Vec<_>>()
            })
            .sum()
    };
    let (before, t0) = (switches(), Instant::now());
    std::thread::sleep(Duration::from_secs(3));
    let rate = (switches() - before) as f64 / t0.elapsed().as_secs_f64();
    drop(conn);
    assert!(daemon.drain().success());
    rate
}

/// An idle daemon keeps one heartbeat however many workers it has: with
/// a connection open, one idle worker takes the timed `IDLE_WAKE` wait and
/// the others wait untimed, so the workers of `--jobs 4` wake about as
/// often as the one of `--jobs 1` (~200/s), where a timed wait per worker
/// made it four times that.
#[cfg(target_os = "linux")]
#[test]
fn idle_workers_share_one_heartbeat() {
    let (one, four) = (idle_wakes_per_second("1"), idle_wakes_per_second("4"));
    assert!(
        four < 2.0 * one,
        "--jobs 4 wakes {four:.0}/s against {one:.0}/s at --jobs 1"
    );
}

/// A connection's threads go when it closes, and a new connection is read
/// at once: 200 one-shot pings in a row leave the daemon's address space
/// where it was and take a few milliseconds apiece at most.
#[cfg(target_os = "linux")]
#[test]
fn one_shot_connections_are_served_at_once_and_leave_nothing_behind() {
    let mut daemon = Serve::start(1, &[], &[]);
    let status = format!("/proc/{}/status", daemon.pid());
    let vm_size_kb = || -> u64 {
        let status = std::fs::read_to_string(&status).expect("daemon status");
        let line = status.lines().find_map(|l| l.strip_prefix("VmSize:"));
        let kb = line.and_then(|l| l.trim().strip_suffix("kB"));
        kb.and_then(|kb| kb.trim().parse().ok())
            .expect("VmSize in kB")
    };
    // The allocator gives every thread running at once an arena of its
    // own, 64 MB of address space that is reused once the thread exits.
    // Eight connections held at once make more arenas than one-shot
    // connections in a row ever overlap on, so what is measured below is
    // what closed connections keep.
    let wait = Duration::from_secs(10);
    let warm: Vec<Client> = (0..8)
        .map(|_| {
            let mut c = Client::connect(&daemon.addr, Some(wait)).expect("connect");
            c.request(PING).expect("warm-up ping");
            c
        })
        .collect();
    drop(warm);
    let before = vm_size_kb();
    let t0 = Instant::now();
    for i in 0..200 {
        assert!(pinged(&daemon.addr, wait), "ping {i} unanswered");
    }
    let took = t0.elapsed();
    let grew_mb = vm_size_kb().saturating_sub(before) / 1024;
    assert!(
        grew_mb < 64,
        "VmSize grew {grew_mb} MB over 200 connections"
    );
    assert!(
        took < Duration::from_secs(2),
        "200 one-shot pings took {took:?}"
    );
    assert!(daemon.drain().success());
}

/// What a run printed: stdout, stderr and the exit code.
fn printed(out: &Output) -> (String, String, Option<i32>) {
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    (text(&out.stdout), text(&out.stderr), out.status.code())
}

/// Resends `remote` until it prints what `local` printed: the first
/// answer of a refining request is the fast tier, and the upgrade lands
/// asynchronously.
fn converges(local: &Output, remote: &[&str]) -> bool {
    let want = printed(local);
    (0..200).any(|_| {
        let same = printed(&ltspc(remote)) == want;
        if !same {
            std::thread::sleep(Duration::from_millis(100));
        }
        same
    })
}

/// Local runs answer through an in-process engine and `remote` through
/// the daemon's; one printer shows both. With no oracle deadline on
/// either side, every op prints the same stdout and stderr and exits
/// with the same code: compiles under each backend and mode (refining
/// ones once their upgrade lands), and verify and oracle over the corpus
/// plus a syntax error, a structurally invalid loop and a missing file.
#[test]
fn remote_compile_is_byte_identical_to_local() {
    let mut daemon = Serve::start(1, &["--jobs", "2", "--oracle-deadline-ms", "0"], &[]);
    for backend in ["heuristic", "exact"] {
        for name in ["saxpy.loop", "mcf_refresh.loop"] {
            let file = corpus(name);
            let local = ltspc(&[&file, "--backend", backend]);
            let remote = ltspc(&["remote", &daemon.addr, &file, "--backend", backend]);
            assert_eq!(local.status.code(), Some(0), "{name} {backend}: {local:?}");
            assert!(!local.stdout.is_empty());
            assert_eq!(
                printed(&remote),
                printed(&local),
                "{name} under --backend {backend}: remote differs from local"
            );
        }
    }
    // The same flags the wire refuses are refused the same way.
    let file = corpus("saxpy.loop");
    for trip in ["-1", "NaN"] {
        let local = ltspc(&[&file, "--trip", trip]);
        let remote = ltspc(&["remote", &daemon.addr, &file, "--trip", trip]);
        assert_eq!(local.status.code(), Some(2), "--trip {trip}: {local:?}");
        assert_eq!(printed(&remote), printed(&local), "--trip {trip}");
    }
    // A refining request prints its upgraded answer locally; the served
    // report converges to it once the refine worker lands.
    for (name, refine) in [
        ("saxpy.loop", "--adaptive"),
        ("triad.loop", "--adaptive"),
        ("saxpy.loop", "--backend tiered"),
        ("mcf_refresh.loop", "--backend tiered"),
    ] {
        let file = corpus(name);
        let flags: Vec<&str> = refine.split(' ').collect();
        let local = ltspc(&[&[file.as_str()][..], &flags].concat());
        assert_eq!(local.status.code(), Some(0), "{name} {refine}: {local:?}");
        // What lands is the refined answer, never the fast tier's: the
        // exact backend's report for tiered, the adaptive loop's for
        // adaptive mode.
        let stdout = printed(&local).0;
        let tier = printed(&ltspc(&[&file])).0;
        assert_ne!(
            stdout, tier,
            "{name} under {refine}: printed the unrefined tier"
        );
        if flags[0] == "--backend" {
            let exact = printed(&ltspc(&[&file, "--backend", "exact"])).0;
            assert_eq!(stdout, exact, "{name}: tiered lands the exact answer");
        }
        let remote = [&["remote", &daemon.addr, &file][..], &flags].concat();
        assert!(
            converges(&local, &remote),
            "{name} under {refine}: served bytes never converged to local"
        );
    }

    let dir = scratch("remote-vs-local");
    let bad = format!("{dir}/bad.loop");
    let invalid = format!("{dir}/invalid.loop");
    std::fs::write(&bad, "loop broken {\n  this is not an instruction\n}\n").unwrap();
    std::fs::write(&invalid, "loop inv {\n  i0: add g2 = g1, g0\n}\n").unwrap();
    let mut files: Vec<String> = std::fs::read_dir(corpus(""))
        .expect("corpus dir")
        .map(|e| {
            e.expect("corpus entry")
                .path()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|p| p.ends_with(".loop"))
        .collect();
    files.sort();
    files.extend([bad, invalid, format!("{dir}/missing.loop")]);
    let files: Vec<&str> = files.iter().map(String::as_str).collect();
    for op in ["verify", "oracle"] {
        let local = ltspc(&[&[op][..], &files].concat());
        let remote = ltspc(&[&["remote", &daemon.addr, "--op", op][..], &files].concat());
        let (out, err, code) = printed(&local);
        assert_eq!(
            code,
            Some(4),
            "{op}: the syntax error is the first failure: {err}"
        );
        assert_eq!(out.lines().count(), files.len() - 3, "{op}: {out}");
        assert_eq!(err.lines().count(), 3, "{op}: {err}");
        assert_eq!(
            printed(&remote),
            printed(&local),
            "{op}: remote differs from local"
        );
    }

    let out = ltspc(&["remote", &daemon.addr, "--shutdown"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(daemon.exit_within(Duration::from_secs(30)).success());
}

/// A fresh directory for one test's files.
fn scratch(test: &str) -> String {
    let dir = std::env::temp_dir().join(format!("ltsp-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.to_string_lossy().into_owned()
}

/// The closed-loop workload of the drills: the corpus on two connections.
fn plan(daemon: &Serve, requests: usize) -> Plan {
    Plan {
        addr: daemon.addr.clone(),
        conns: 2,
        requests,
        corpus: corpus(""),
        ..Plan::default()
    }
}

/// The daemon's metrics agree with what `report`'s run saw.
fn cross_check(report: &Report, daemon: &Serve) {
    let snap = PromSnapshot::parse(&daemon.metrics()).expect("well-formed exposition");
    if let Err(bad) = loadgen::cross_check(report, &snap) {
        panic!("metrics disagree with the load generator: {bad:#?}");
    }
}

/// Every request answered, none with an error or shed by backpressure.
fn assert_clean(report: &Report, responses: usize) {
    assert_eq!(report.responses, responses, "{report:?}");
    assert_eq!(report.status.error, 0, "{report:?}");
    assert_eq!(report.status.overloaded, 0, "{report:?}");
}

#[test]
fn a_cold_then_warm_load_is_counted_and_the_drain_writes_metrics() {
    let metrics = format!("{}/serve-metrics.json", scratch("serve-drill"));
    let mut daemon = Serve::start(1, &["--jobs", "2", "--metrics-out", &metrics], &[]);
    // Corpus plus scheduling-heavy kernels, with per-request timings.
    let cold_plan = Plan {
        synthetic: 4,
        timings: true,
        ..plan(&daemon, 60)
    };
    let cold = loadgen::run(&cold_plan).expect("cold pass");
    assert_clean(&cold, 120);
    assert!(cold.hits > 0, "no cache hit: {cold:?}");
    assert!(cold.phases.contains_key("handler"), "{:?}", cold.phases);
    cross_check(&cold, &daemon);

    // The exposition mid-load, through the CLI's own checker: every
    // compile and lifecycle phase histogram has samples.
    let phases = "parse,hlo,ddg,mrt,sched,regalloc,render,queue_wait,dispatch,handler,write";
    let probe = ["--op", "metrics", "--check-phases", phases];
    let out = ltspc(&[&["remote", &daemon.addr][..], &probe].concat());
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // The same seed again: every key is cached and every connection is
    // a closed loop, so hits are answered on the readers' own threads
    // (the cross-check holds handler = queue_wait + served inline).
    let warm_plan = Plan {
        timings: false,
        ..cold_plan
    };
    let warm = loadgen::run(&warm_plan).expect("warm pass");
    assert_clean(&warm, 120);
    assert_eq!(warm.misses, 0, "{warm:?}");
    assert!(warm.served_inline > 0, "{warm:?}");
    cross_check(&warm, &daemon);

    assert!(daemon.drain().success());
    let written = std::fs::metadata(&metrics).map_or(0, |m| m.len());
    assert!(written > 0, "the drain wrote no --metrics-out");
}

/// Runs `plan` against a daemon that persists its cache (`args`) and
/// checks that at least one refinement landed and was counted; returns
/// the exposition after the run.
fn upgrades_land(args: &[&str], plan: impl Fn(&Serve) -> Plan, stamp: &str) -> String {
    let mut daemon = Serve::start(1, args, &[]);
    let report = loadgen::run(&plan(&daemon)).expect("load pass");
    assert_eq!(report.status.error, 0, "{report:?}");
    let poll = report.tiered.or(report.adaptive).expect("an upgrade poll");
    assert!(poll.upgraded_observed > 0, "no upgrade landed: {poll:?}");
    assert!(report.to_json().contains(stamp), "the record lacks {stamp}");
    let metrics = daemon.metrics();
    let applied = "ltsp_upgrades_total{event=\"applied\"}";
    assert!(metrics.contains(applied), "{metrics}");
    assert!(daemon.drain().success());
    metrics
}

#[test]
fn tiered_upgrades_land_and_are_counted() {
    let log = format!("{}/cache.log", scratch("tiered-drill"));
    let tiered = |daemon: &Serve| Plan {
        backend: Some(Backend::Tiered),
        ..plan(daemon, 60)
    };
    let args = ["--jobs", "2", "--persist", &log];
    upgrades_land(&args, tiered, "\"backend\": \"tiered\"");
}

#[test]
fn adaptive_upgrades_land_and_are_counted() {
    let log = format!("{}/cache.log", scratch("adaptive-drill"));
    let adaptive = |daemon: &Serve| Plan {
        mode: Some(Mode::Adaptive),
        ..plan(daemon, 60)
    };
    let args = ["--jobs", "2", "--persist", &log, "--persist-warn-mb", "64"];
    let metrics = upgrades_land(&args, adaptive, "\"mode\": \"adaptive\"");
    let gauge = metrics
        .lines()
        .any(|l| l.starts_with("ltsp_persist_log_bytes "));
    assert!(gauge, "no persist-log gauge: {metrics}");
}

/// Deterministic fault injection: handler panics and delays, connection
/// drops and torn writes, all a pure function of (seed, site, request
/// id). Every request is answered or dropped by a fault, none wedges; the
/// panics are contained, traced and dumped by the flight recorder; and
/// the drain stays bounded and writes the trace and metrics.
#[test]
fn faults_are_contained_traced_and_dumped() {
    let dir = scratch("chaos-drill");
    let [flight, trace, metrics] =
        ["flight", "trace.jsonl", "metrics.json"].map(|f| format!("{dir}/{f}"));
    let args = [
        "--jobs",
        "2",
        "--write-deadline-ms",
        "2000",
        "--flight-dir",
        &flight,
        "--trace-out",
        &trace,
        "--metrics-out",
        &metrics,
    ];
    let fault = "panic:0.05,slow:20ms@0.05,drop:0.03,short:0.1,seed:11";
    let mut daemon = Serve::start(1, &args, &[("LTSP_FAULT", fault)]);
    // The burst doubles as the slow-client drill: responses pile onto
    // per-connection outbound queues while the client is not reading.
    let chaos = Plan {
        conns: 4,
        burst: 8,
        synthetic: 2,
        fault_mode: true,
        ..plan(&daemon, 40)
    };
    let r = loadgen::run(&chaos).expect("no connection wedges under faults");
    assert_eq!(r.responses + r.fault.lost as usize, 4 * (40 + 8), "{r:?}");
    assert!(r.status.error > 0, "no injected panic was contained: {r:?}");
    assert!(r.fault.reconnects > 0, "no injected drop: {r:?}");
    assert!(r.status.ok > 0, "{r:?}");

    // Every injected panic dumped the lifecycle ring as JSONL.
    let mut records = 0;
    for dump in std::fs::read_dir(&flight).expect("flight dir") {
        let dump = dump.expect("flight dump").path();
        for line in std::fs::read_to_string(&dump).expect("read dump").lines() {
            let rec = json::parse(line).unwrap_or_else(|e| panic!("{dump:?}: {e}: {line}"));
            assert!(rec.get("id").is_some(), "{line}");
            let phases = rec.get("phases").expect("phase breakdown");
            assert!(phases.get("handler_us").is_some(), "{line}");
            records += 1;
        }
    }
    assert!(records > 0, "no flight dump despite injected panics");

    // The drain stays bounded under faults and writes both artifacts.
    assert!(daemon.drain().success());
    assert!(std::fs::metadata(&metrics).is_ok_and(|m| m.len() > 0));
    let trace = std::fs::read_to_string(&trace).expect("the drain wrote --trace-out");
    let events: Vec<_> = trace.lines().filter_map(|l| json::parse(l).ok()).collect();
    for kind in ["fault_injected", "request_panic"] {
        let seen = events
            .iter()
            .any(|e| e.get("type").and_then(|t| t.as_str()) == Some(kind));
        assert!(seen, "no {kind} event in the trace");
    }
}
