//! `BENCHMARK.json` and the harness's metric catalogue must say the same
//! thing: the driver reads one, the harness prints from the other.

use ltsp_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER, WORKLOADS};
use ltsp_telemetry::json::{self, JsonValue};

fn manifest() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn names(v: &JsonValue, key: &str) -> Vec<String> {
    v.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{key} is a list"))
        .iter()
        .map(|e| {
            e.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn assert_same(listed: &JsonValue, defs: &[MetricDef], bounded: bool) {
    let listed = listed.as_array().expect("a list of metrics");
    assert_eq!(listed.len(), defs.len());
    for (j, d) in listed.iter().zip(defs) {
        let s = |k: &str| j.get(k).and_then(JsonValue::as_str).unwrap_or_default();
        assert_eq!(s("name"), d.name);
        assert_eq!(s("unit"), d.unit, "{}", d.name);
        assert_eq!(s("better"), d.better.tag(), "{}", d.name);
        assert_eq!(
            j.get("bound").and_then(JsonValue::as_f64),
            d.bound,
            "{}",
            d.name
        );
        assert_eq!(d.bound.is_some(), bounded, "{}", d.name);
        let keys = j.as_object().expect("an object").len();
        assert_eq!(keys, if bounded { 4 } else { 3 }, "{}", d.name);
    }
}

#[test]
fn workloads_and_metrics_match_the_catalogue() {
    let m = manifest();
    assert_eq!(names(&m, "workloads"), WORKLOADS);
    assert_same(m.get("end_to_end").expect("end_to_end"), &END_TO_END, true);
    assert_same(m.get("per_layer").expect("per_layer"), PER_LAYER, false);
}

#[test]
fn manifest_stays_inside_the_contract() {
    let m = manifest();
    let keys: Vec<&str> = m
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
    assert!(END_TO_END
        .iter()
        .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
    let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    all.extend(WORKLOADS);
    for name in &all {
        assert!(
            name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        );
    }
    all.sort_unstable();
    all.dedup();
    assert_eq!(
        all.len(),
        END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
        "names are used once"
    );
    let seconds = m
        .get("run_seconds")
        .and_then(JsonValue::as_u64)
        .expect("run_seconds");
    // 4 + 22 × workloads runs, each a set-up phase plus `seconds` of
    // measurement, must fit 3420 s with two builds to spare.
    let runs = 4 + 22 * WORKLOADS.len() as u64;
    assert!(
        runs * (seconds + 8) + 2 * 60 <= 3420,
        "{runs} runs of {seconds}s"
    );
    for w in m
        .get("workloads")
        .and_then(JsonValue::as_array)
        .expect("workloads")
    {
        let why = w.get("why").and_then(JsonValue::as_str).expect("why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
    }
}
