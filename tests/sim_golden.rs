//! Golden simulated-counter table: pins what the simulator *computes* so
//! that changes to how fast it computes it (host-side containers, hot-path
//! layout) can be proven to move nothing.
//!
//! Every case runs one [`Executor`] over several entries whose trip counts
//! straddle the kernel's stage count, and folds all 20 [`CycleCounters`]
//! fields, `ref_stats()` and `observations()` after *every* entry into one
//! FNV-1a digest; `AddressStreams` is pinned separately with a 10 000-address
//! digest per access-pattern kind. The table in `tests/sim_golden/` was
//! generated from the deque/`HashMap` implementation; after an intentional
//! change to the *model* re-bless it (and review the diff):
//!
//! ```text
//! LTSP_BLESS=1 cargo test --test sim_golden
//! ```

mod common;

use common::Fnv;
use ltsp::core::{compile_loop_with_profile, CompileConfig, LatencyPolicy};
use ltsp::ir::{DataClass, LoopBuilder, LoopIr, MemRefId};
use ltsp::machine::MachineModel;
use ltsp::memsim::{AddressStreams, Executor, ExecutorConfig, StreamMode};
use ltsp::workloads::{kernel_library, random_loop};
use std::fmt::Write as _;
use std::path::PathBuf;

const POLICIES: [LatencyPolicy; 4] = [
    LatencyPolicy::Baseline,
    LatencyPolicy::AllLoadsL3,
    LatencyPolicy::AllFpLoadsL2,
    LatencyPolicy::HloHints,
];
const MODES: [StreamMode; 2] = [StreamMode::Restart, StreamMode::Progressive];
/// `random_loop` seeds in the table.
const RANDOM_SEEDS: u64 = 40;
/// Trip estimate the kernels are compiled against (long enough that no
/// threshold suppresses a policy's boosts).
const TRIP_ESTIMATE: f64 = 1000.0;

/// Folds everything the executor reports into the digest.
fn fold(h: &mut Fnv, ex: &Executor<'_>) {
    let c = ex.counters();
    for v in [
        c.total,
        c.unstalled,
        c.be_exe_bubble,
        c.be_l1d_fpu_bubble,
        c.be_rse_bubble,
        c.be_flush_bubble,
        c.fe_bubble,
        c.kernel_iters,
        c.source_iters,
        c.entries,
        c.loads,
        c.l1_hits,
        c.l2_hits,
        c.l3_hits,
        c.mem_loads,
        c.inflight_merges,
        c.tlb_misses,
        c.prefetches,
        c.stores,
        c.ozq_full_cycles,
    ] {
        h.word(v);
    }
    for &(accesses, latency) in ex.ref_stats() {
        h.word(accesses);
        h.word(latency);
    }
    for o in ex.observations() {
        for v in [
            o.accesses,
            o.latency_sum,
            o.l1,
            o.l2,
            o.l3,
            o.mem,
            o.merged,
            o.prefetches,
            o.redundant_prefetches,
        ] {
            h.word(v);
        }
    }
}

/// Trip counts straddling the stage count (ramp-up never completes, just
/// completes, steady state of one iteration) plus two long entries.
fn trips(stages: u32) -> Vec<u64> {
    let s = u64::from(stages);
    [1, 2, s.saturating_sub(1), s, s + 1, 64, 1000]
        .into_iter()
        .filter(|&t| t > 0)
        .collect()
}

fn mode_name(m: StreamMode) -> &'static str {
    match m {
        StreamMode::Restart => "restart",
        StreamMode::Progressive => "progressive",
    }
}

fn loops() -> Vec<(String, LoopIr)> {
    let mut v: Vec<(String, LoopIr)> = kernel_library()
        .into_iter()
        .map(|(n, lp)| (n.to_string(), lp))
        .collect();
    v.extend((0..RANDOM_SEEDS).map(|s| (format!("random-{s}"), random_loop(s))));
    v
}

fn executor_table() -> String {
    let machine = MachineModel::itanium2();
    let mut out = String::from("# case\tstages\tii\ttotal_cycles\tdigest\n");
    let (mut predicated, mut carried) = (0, 0);
    for (idx, (name, lp)) in loops().iter().enumerate() {
        predicated += usize::from(lp.insts().iter().any(|i| i.qp().is_some()));
        carried += usize::from(lp.insts().iter().any(|i| i.reads().any(|s| s.omega > 0)));
        for policy in POLICIES {
            let c =
                compile_loop_with_profile(lp, &machine, &CompileConfig::new(policy), TRIP_ESTIMATE);
            for mode in MODES {
                let cfg = ExecutorConfig {
                    seed: 0x5EED ^ (idx as u64) << 8,
                    stream_mode: mode,
                    ..ExecutorConfig::default()
                };
                let mut ex = Executor::new(&c.lp, &c.kernel, &machine, c.regs_total, cfg);
                let mut h = Fnv::new();
                for trip in trips(c.kernel.stage_count()) {
                    ex.run_entry(trip);
                    fold(&mut h, &ex);
                }
                let _ = writeln!(
                    out,
                    "{name}/{policy}/{}\t{}\t{}\t{}\t{:016x}",
                    mode_name(mode),
                    c.kernel.stage_count(),
                    c.kernel.ii(),
                    ex.counters().total,
                    h.0
                );
            }
        }
    }
    // The IR is single-assignment, so "if-converted" means qualifying
    // predicates plus a `sel` join; both that and loop-carried (omega > 0)
    // reads must be in the table — they are where a scoreboard keyed on
    // (register, source iteration) could go wrong.
    assert!(predicated >= 8, "only {predicated} predicated loops");
    assert!(carried >= 16, "only {carried} loops with carried reads");

    // Trip-count versioning: a base and a boosted kernel of the same body
    // share one scoreboard, memory system and stream state.
    for (name, lp) in kernel_library() {
        if !matches!(name, "saxpy" | "mcf_refresh_predicated" | "reduction_int") {
            continue;
        }
        let base = compile_loop_with_profile(
            &lp,
            &machine,
            &CompileConfig::new(LatencyPolicy::Baseline),
            TRIP_ESTIMATE,
        );
        let boost = compile_loop_with_profile(
            &lp,
            &machine,
            &CompileConfig::new(LatencyPolicy::AllLoadsL3),
            TRIP_ESTIMATE,
        );
        assert_eq!(base.lp, boost.lp, "{name}: policies keep the body");
        let kernels = [base.kernel.clone(), boost.kernel.clone()];
        let regs = [base.regs_total, boost.regs_total];
        for mode in MODES {
            let cfg = ExecutorConfig {
                stream_mode: mode,
                ..ExecutorConfig::default()
            };
            let mut ex = Executor::new_versioned(&boost.lp, &kernels, &machine, &regs, cfg);
            let mut h = Fnv::new();
            for (n, trip) in trips(boost.kernel.stage_count())
                .into_iter()
                .chain([3, 200, 5, 1])
                .enumerate()
            {
                ex.run_entry_version(usize::from(trip >= 8 || n % 3 == 0), trip);
                fold(&mut h, &ex);
            }
            let _ = writeln!(
                out,
                "versioned:{name}/{}\t{}+{}\t{}+{}\t{}\t{:016x}",
                mode_name(mode),
                base.kernel.stage_count(),
                boost.kernel.stage_count(),
                base.kernel.ii(),
                boost.kernel.ii(),
                ex.counters().total,
                h.0
            );
        }
    }
    out
}

/// One memory reference of every pattern kind; the far deref and the
/// on-node field both hang off the chase.
fn pattern_loop() -> LoopIr {
    let mut b = LoopBuilder::new("patterns");
    let affine = b.affine_ref("affine", DataClass::Int, 0x1000, 8, 8);
    let idx = b.affine_ref("idx", DataClass::Int, 0x8000, 4, 4);
    let gather = b.gather_ref("gather", DataClass::Int, idx, 0x10_0000, 8, 1 << 16);
    let chase = b.chase_ref("chase", 0x4000_0000, 64, 1 << 20, 0.5);
    let field = b.deref_ref("chase->field", DataClass::Int, chase, 8, 1 << 20, 8);
    let far = b.deref_ref("chase->far", DataClass::Int, chase, 128, 1 << 22, 8);
    let symbolic = b.symbolic_ref("symbolic", DataClass::Fp, 0x6000_0000, 4096, 8);
    let invariant = b.invariant_ref("invariant", DataClass::Int, 0x7777_0000, 8);
    let refs = [affine, idx, gather, chase, field, far, symbolic, invariant];
    for r in refs {
        let _ = b.load(r);
    }
    b.build().expect("pattern loop is well-formed")
}

fn streams_table() -> String {
    const KINDS: [(&str, u32); 7] = [
        ("affine", 0),
        ("gather", 2),
        ("chase", 3),
        ("deref-field", 4),
        ("deref-far", 5),
        ("symbolic", 6),
        ("invariant", 7),
    ];
    /// Entries of 1000 iterations: 10 000 addresses per kind.
    const ENTRIES: u64 = 10;
    const TRIP: u64 = 1000;
    let lp = pattern_loop();
    let mut out = String::from("# streams case\taddresses\tdigest\n");
    for mode in MODES {
        for (kind, refidx) in KINDS {
            let m = MemRefId(refidx);
            let mut s = AddressStreams::new(&lp, mode, 0xA11CE);
            let mut h = Fnv::new();
            let mut n = 0u64;
            for _ in 0..ENTRIES {
                s.begin_entry();
                for i in 0..TRIP {
                    // The way pipeline stages ask: the newest iteration,
                    // a prefetch-style look ahead, then a lagging read of
                    // an older iteration (a later stage's field access).
                    h.word(s.address(m, i));
                    h.word(s.address_ahead(m, i, 7));
                    h.word(s.address(m, i.saturating_sub(5)));
                    n += 1;
                }
            }
            let _ = writeln!(out, "streams:{kind}/{}\t{n}\t{:016x}", mode_name(mode), h.0);
        }
    }
    out
}

#[test]
fn simulated_counters_match_the_golden_table() {
    common::pin(
        &PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/sim_golden/counters.tsv"),
        executor_table() + &streams_table(),
    );
}
