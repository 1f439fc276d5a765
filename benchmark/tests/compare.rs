//! `compare`: bounds in each metric's own direction, refusals, exact counts.

use std::collections::BTreeMap;

use ltsp_benchmark::results::{compare, Host, ResultFile, WorkloadResult};

fn host() -> Host {
    Host {
        nproc: 2,
        cpu_model: "test cpu".to_string(),
        rustc: "rustc 1.0".to_string(),
        git_rev: "abc".to_string(),
        profile: "release",
    }
}

fn file(work_per_s: f64, p50: f64, setup_s: f64, quality: f64) -> ResultFile {
    let metric = |v: f64, u: &str| (v, u.to_string());
    let w = WorkloadResult {
        passes: 5,
        attempted: 100,
        failed: 0,
        metrics: BTreeMap::from([
            ("work_per_s".to_string(), metric(work_per_s, "1/s")),
            ("op_p50_us".to_string(), metric(p50, "us")),
            ("setup_s".to_string(), metric(setup_s, "s")),
            ("quality_cost".to_string(), metric(quality, "count")),
        ]),
        exact: BTreeMap::from([("quality_cost".to_string(), quality)]),
        info: BTreeMap::new(),
    };
    ResultFile {
        host: host(),
        seed: 42,
        traced: false,
        seconds: 10.0,
        workloads: BTreeMap::from([("sim_stream".to_string(), w)]),
    }
}

#[test]
fn a_file_agrees_with_itself_and_round_trips() {
    let a = file(40.0, 100.0, 0.2, 1000.0);
    let c = compare(&a, &a).unwrap();
    assert_eq!((c.exceeded, c.exact_differ), (0, 0));
    let back = ResultFile::parse(&a.render()).unwrap();
    assert_eq!(back, a);
}

#[test]
fn worsening_counts_in_the_metrics_own_direction() {
    let a = file(40.0, 100.0, 0.2, 1000.0);
    // Higher-is-better throughput halves: exceeded. Everything else equal.
    assert_eq!(
        compare(&a, &file(20.0, 100.0, 0.2, 1000.0))
            .unwrap()
            .exceeded,
        1
    );
    // Throughput doubles, latency halves: improvements never exceed.
    assert_eq!(
        compare(&a, &file(80.0, 50.0, 0.2, 1000.0))
            .unwrap()
            .exceeded,
        0
    );
    // Lower-is-better latency up by half: exceeded.
    assert_eq!(
        compare(&a, &file(40.0, 150.0, 0.2, 1000.0))
            .unwrap()
            .exceeded,
        1
    );
    // Within the bound: fine.
    assert_eq!(
        compare(&a, &file(39.0, 103.0, 0.2, 1000.0))
            .unwrap()
            .exceeded,
        0
    );
}

#[test]
fn setup_time_has_an_absolute_floor_and_exact_counts_are_marked() {
    let a = file(40.0, 100.0, 0.010, 1000.0);
    // +50% of 10 ms is 5 ms: under the 0.1 s floor, not a regression.
    assert_eq!(
        compare(&a, &file(40.0, 100.0, 0.015, 1000.0))
            .unwrap()
            .exceeded,
        0
    );
    let slow = file(40.0, 100.0, 1.0, 1000.0);
    assert_eq!(
        compare(&slow, &file(40.0, 100.0, 1.5, 1000.0))
            .unwrap()
            .exceeded,
        1
    );
    // A quality count that moves is both out of bound and marked.
    let c = compare(&a, &file(40.0, 100.0, 0.010, 1100.0)).unwrap();
    assert_eq!((c.exceeded, c.exact_differ), (1, 1));
    assert!(c.report.contains("exact count quality_cost differs"));
}

#[test]
fn files_that_cannot_be_compared_are_refused() {
    let a = file(40.0, 100.0, 0.2, 1000.0);
    let mut other_seed = a.clone();
    other_seed.seed = 7;
    assert!(compare(&a, &other_seed).unwrap_err().contains("seeds"));
    let mut other_host = a.clone();
    other_host.host.nproc = 64;
    assert!(compare(&a, &other_host).unwrap_err().contains("hosts"));
    let mut debug = a.clone();
    debug.host.profile = "debug";
    assert!(compare(&a, &debug).unwrap_err().contains("profiles"));
    let mut traced = a.clone();
    traced.traced = true;
    assert!(compare(&a, &traced).is_err());
    // A different commit or compiler is what compare is for.
    let mut other_rev = a.clone();
    other_rev.host.git_rev = "def".to_string();
    other_rev.host.rustc = "rustc 2.0".to_string();
    assert!(compare(&a, &other_rev).is_ok());
}

#[test]
fn failed_output_checks_and_missing_workloads_fail_the_comparison() {
    let a = file(40.0, 100.0, 0.2, 1000.0);
    let mut wrong = a.clone();
    wrong.workloads.get_mut("sim_stream").unwrap().failed = 3;
    assert_eq!(compare(&a, &wrong).unwrap().exceeded, 1);
    let mut empty = a.clone();
    empty.workloads.clear();
    assert_eq!(compare(&a, &empty).unwrap().exceeded, 1);
}
