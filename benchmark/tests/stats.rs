//! Order statistics and span self-time: the arithmetic every reported
//! number goes through.

use std::time::Instant;

use ltsp_benchmark::stats::{median, percentile, tail_percentile_for};
use ltsp_benchmark::trace::{nesting_violations, summarize, summarize_under, Span, Tracer};

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[7.5]), 7.5);
}

#[test]
fn percentile_is_nearest_rank_and_always_a_sample() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&v, 0.5), 1.0);
    // Unsorted input, ties, and a percentile between ranks.
    assert_eq!(percentile(&[5.0, 1.0, 5.0, 2.0], 75.0), 5.0);
    assert_eq!(percentile(&[5.0, 1.0, 5.0, 2.0], 50.0), 2.0);
    assert_eq!(percentile(&[], 99.0), 0.0);
}

#[test]
fn tail_percentile_leaves_ten_samples_beyond_it() {
    assert_eq!(tail_percentile_for(50_000), 95.0);
    assert_eq!(tail_percentile_for(200), 95.0);
    assert_eq!(tail_percentile_for(199), 90.0);
    assert_eq!(tail_percentile_for(100), 90.0);
}

fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        op_id: 0,
        calls: 1,
    }
}

#[test]
fn self_time_is_duration_minus_direct_children() {
    let spans = vec![
        span("op", 0, 100, None),
        span("parse", 10, 30, Some(0)),
        span("compile", 30, 90, Some(0)),
        span("hlo", 35, 45, Some(2)),
        span("parse", 200, 230, None),
    ];
    let agg = summarize(&spans);
    assert_eq!(agg["op"].total_ns, 100);
    assert_eq!(agg["op"].self_ns, 100 - 20 - 60);
    assert_eq!(agg["compile"].self_ns, 60 - 10);
    assert_eq!(agg["parse"].spans, 2);
    assert_eq!(agg["parse"].total_ns, 50);
    assert_eq!(agg["parse"].self_ns, 50);
    assert_eq!(nesting_violations(&spans), 0);

    // Only direct children of "op": the top-level parse is not counted.
    let under = summarize_under(&spans, "op");
    assert_eq!(under["parse"].spans, 1);
    assert_eq!(under["compile"].self_ns, 50);
    assert!(!under.contains_key("hlo"));
}

#[test]
fn batch_spans_divide_by_calls() {
    let mut batch = span("entry", 0, 1_000_000, None);
    batch.calls = 500;
    let agg = summarize(&[batch]);
    assert_eq!(agg["entry"].us_per_call(), 2.0);
    assert_eq!(agg["entry"].us_per_span(), 1000.0);
}

#[test]
fn children_outside_or_longer_than_their_parent_are_violations() {
    let escapes = vec![span("p", 10, 20, None), span("c", 15, 25, Some(0))];
    assert_eq!(nesting_violations(&escapes), 1);
    let too_long = vec![
        span("p", 0, 10, None),
        span("a", 0, 8, Some(0)),
        span("b", 2, 10, Some(0)),
    ];
    assert_eq!(nesting_violations(&too_long), 1);
}

#[test]
fn recorded_spans_nest_and_a_disabled_tracer_records_nothing() {
    let mut tr = Tracer::new(Instant::now());
    tr.time("ignored", |_| ());
    assert!(tr.spans().is_empty());

    tr.set_enabled(true);
    tr.begin_op(7);
    let out = tr.time("outer", |tr| {
        tr.time("inner", |_| std::hint::black_box(41) + 1);
        tr.time_n("batch", 10, |_| ());
        42
    });
    assert_eq!(out, 42);
    let spans = tr.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].name, "outer");
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert_eq!(spans[2].calls, 10);
    assert!(spans.iter().all(|s| s.op_id == 7));
    assert_eq!(nesting_violations(spans), 0);
    let agg = tr.summary();
    assert!(agg["outer"].self_ns <= agg["outer"].total_ns);
}

#[test]
fn sampling_traces_every_other_op_and_flips_with_parity() {
    let mut tr = Tracer::new(Instant::now());
    tr.sample_ops(0);
    let traced: Vec<bool> = (0..6).map(|op| tr.begin_op(op)).collect();
    assert_eq!(traced, [false, true, false, true, false, true]);
    tr.sample_ops(1);
    let traced: Vec<bool> = (0..6).map(|op| tr.begin_op(op)).collect();
    assert_eq!(traced, [true, false, true, false, true, false]);
    // Probes switch sampling off again.
    tr.set_enabled(true);
    assert!(tr.begin_op(0) && tr.begin_op(1));
}

#[test]
fn absorbing_a_thread_tracer_rebases_parents() {
    let origin = Instant::now();
    let mut main = Tracer::new(origin);
    main.set_enabled(true);
    main.time("main", |_| ());
    let mut worker = Tracer::new(origin);
    worker.set_enabled(true);
    worker.time("op", |tr| tr.time("roundtrip", |_| ()));
    main.absorb(worker);
    let spans = main.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[2].name, "roundtrip");
    assert_eq!(spans[2].parent, Some(1));
    assert_eq!(nesting_violations(spans), 0);
}
