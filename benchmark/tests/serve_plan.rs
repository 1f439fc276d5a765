//! `serve_churn` decides each request's cache outcome when it plans the
//! request. This runs one full-size pass and holds the plan against what
//! the daemon answered: a never-seen loop name must miss, every hot key
//! must still be resident when its turn comes round.

use ltsp_benchmark::workloads::{build, run_workload, RunOpts};

fn exact(o: &ltsp_benchmark::workloads::Outcome, name: &str) -> f64 {
    o.exact
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .expect(name)
}

#[test]
fn planned_hits_and_misses_are_what_the_daemon_answers() {
    let out_dir = std::env::temp_dir().join(format!("ltsp-bench-plan-{}", std::process::id()));
    let mut w = build("serve_churn", false).unwrap();
    let opts = RunOpts {
        seed: 7,
        seconds: 0.2,
        traced: false,
        quick: false,
        out_dir: out_dir.clone(),
    };
    let o = run_workload(w.as_mut(), &opts).unwrap();
    // Every response was checked for `cache:"hit"` / `cache:"miss"` as
    // planned (and its body against the local compile), and each pass
    // compared its planned with its observed hit count.
    assert_eq!(o.failed, 0, "{} of {} checks failed", o.failed, o.attempted);
    assert!(o.attempted > 6000);
    assert_eq!(exact(&o, "planned_hits"), 3000.0);
    assert_eq!(exact(&o, "planned_misses"), 3000.0);
    let _ = std::fs::remove_dir_all(out_dir);
}

#[test]
fn warm_traffic_never_misses() {
    let out_dir = std::env::temp_dir().join(format!("ltsp-bench-warm-{}", std::process::id()));
    let mut w = build("serve_warm", true).unwrap();
    let opts = RunOpts {
        seed: 7,
        seconds: 0.1,
        traced: false,
        quick: true,
        out_dir: out_dir.clone(),
    };
    let o = run_workload(w.as_mut(), &opts).unwrap();
    assert_eq!(o.failed, 0);
    assert_eq!(exact(&o, "planned_misses"), 0.0);
    let _ = std::fs::remove_dir_all(out_dir);
}
