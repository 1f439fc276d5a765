//! The loop-kernel library the synthetic benchmarks are assembled from.
//!
//! Every kernel is a small, realistic innermost loop expressed in
//! [`ltsp_ir`]. Footprints are chosen relative to the modeled cache sizes
//! (16 KB L1D / 256 KB L2 / 12 MB L3): a kernel whose region fits a level
//! hits there once warm; streaming kernels in progressive mode never
//! re-touch lines and miss to memory at line-crossing rate.

use ltsp_ir::{DataClass, LoopBuilder, LoopIr};

/// Distinct, far-apart base addresses per logical array.
fn base(slot: u64) -> u64 {
    0x10_0000 + slot * 0x800_0000
}

/// `sum += a[i]` over a data class and stride (in bytes).
pub fn stream_sum(name: &str, data: DataClass, stride: i64) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let bytes = if data == DataClass::Fp { 8 } else { 4 };
    let a = b.affine_ref("a[i]", data, base(0), stride, bytes);
    let v = b.load(a);
    match data {
        DataClass::Fp => {
            let _ = b.fadd_reduce(v);
        }
        DataClass::Int => {
            let _ = b.add_reduce(v);
        }
    }
    b.build().expect("stream_sum is well-formed")
}

/// `y[i] = alpha * x[i] + y[i]` (BLAS saxpy): two FP streams, one store.
pub fn saxpy(name: &str) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let x = b.affine_ref("x[i]", DataClass::Fp, base(0), 8, 8);
    let y = b.affine_ref("y[i]", DataClass::Fp, base(1), 8, 8);
    let alpha = b.live_in_fr("alpha");
    let vx = b.load(x);
    let vy = b.load(y);
    let r = b.fma(alpha, vx, vy);
    b.store(y, r);
    b.build().expect("saxpy is well-formed")
}

/// `a[i] = b[i] + s * c[i]` (STREAM triad): three streams.
pub fn triad(name: &str) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let bb = b.affine_ref("b[i]", DataClass::Fp, base(0), 8, 8);
    let cc = b.affine_ref("c[i]", DataClass::Fp, base(1), 8, 8);
    let aa = b.affine_ref("a[i]", DataClass::Fp, base(2), 8, 8);
    let s = b.live_in_fr("s");
    let vb = b.load(bb);
    let vc = b.load(cc);
    let r = b.fma(s, vc, vb);
    b.store(aa, r);
    b.build().expect("triad is well-formed")
}

/// Three-point stencil `y[i] = c0*x[i-1] + c1*x[i] + c2*x[i+1]`; the three
/// x streams share lines (leading-reference dedup exercises here).
pub fn stencil3(name: &str) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let xm = b.affine_ref("x[i-1]", DataClass::Fp, base(0), 8, 8);
    let x0 = b.affine_ref("x[i]", DataClass::Fp, base(0) + 8, 8, 8);
    let xp = b.affine_ref("x[i+1]", DataClass::Fp, base(0) + 16, 8, 8);
    let y = b.affine_ref("y[i]", DataClass::Fp, base(1), 8, 8);
    let c0 = b.live_in_fr("c0");
    let c1 = b.live_in_fr("c1");
    let c2 = b.live_in_fr("c2");
    let vm = b.load(xm);
    let v0 = b.load(x0);
    let vp = b.load(xp);
    let t0 = b.fmul(c0, vm);
    let t1 = b.fma(c1, v0, t0);
    let t2 = b.fma(c2, vp, t1);
    b.store(y, t2);
    b.build().expect("stencil3 is well-formed")
}

/// `sum += a[b[i]]`: an affine index stream driving a gather over
/// `region_bytes` of data.
pub fn gather_update(name: &str, data: DataClass, region_bytes: u64) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let idx = b.affine_ref("b[i]", DataClass::Int, base(0), 4, 4);
    let elem = if data == DataClass::Fp { 8 } else { 4 };
    let tgt = b.gather_ref("a[b[i]]", data, idx, base(1), elem, region_bytes);
    let vi = b.load(idx);
    let vt = b.load(tgt);
    match data {
        DataClass::Fp => {
            let _ = b.fadd_reduce(vt);
        }
        DataClass::Int => {
            let s = b.add_reduce(vt);
            let _ = (vi, s);
        }
    }
    b.build().expect("gather_update is well-formed")
}

/// The 429.mcf `refresh_potential()` loop of the paper's Sec. 4.4:
///
/// ```c
/// while (node) {
///     node->potential = node->basic_arc->cost + node->pred->potential;
///     node = node->child;
/// }
/// ```
///
/// The chase (`node->child`) is a recurrence and cannot be prefetched; the
/// `basic_arc->cost` and `pred->potential` indirect loads are delinquent
/// (up to ~100-cycle latencies) but have slack — the paper's prime
/// candidates for latency-tolerant scheduling.
pub fn mcf_refresh(name: &str, region_bytes: u64) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let node = b.chase_ref("node->child", base(0), 64, region_bytes, 0.15);
    // On-node fields (same line as the node).
    let orientation = b.deref_ref(
        "node->orientation",
        DataClass::Int,
        node,
        0,
        region_bytes,
        4,
    );
    // Far pointers: basic_arc and pred live in other regions.
    let basic_arc_cost = b.deref_ref(
        "node->basic_arc->cost",
        DataClass::Int,
        node,
        128,
        region_bytes,
        8,
    );
    let pred_potential = b.deref_ref(
        "node->pred->potential",
        DataClass::Int,
        node,
        192,
        region_bytes,
        8,
    );
    let potential = b.deref_ref("node->potential", DataClass::Int, node, 16, region_bytes, 8);

    let _vnode = b.load(node);
    let vori = b.load(orientation);
    let vcost = b.load(basic_arc_cost);
    let vpred = b.load(pred_potential);
    let sum = b.add(vcost, vpred);
    let guard = b.cmp(vori, sum);
    let _ = guard;
    b.store(potential, sum);
    b.build().expect("mcf_refresh is well-formed")
}

/// The Sec. 4.4 loop with its *actual* control flow, if-converted: the
/// paper's source has `if (node->orientation == UP) ... else ...`; both
/// sides compute a potential and the join stores it. Exercises qualifying
/// predicates end to end (builder -> DDG -> schedule -> executor).
pub fn mcf_refresh_predicated(name: &str, region_bytes: u64) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let node = b.chase_ref("node->child", base(0), 64, region_bytes, 0.15);
    let orientation = b.deref_ref(
        "node->orientation",
        DataClass::Int,
        node,
        0,
        region_bytes,
        4,
    );
    let basic_arc_cost = b.deref_ref(
        "node->basic_arc->cost",
        DataClass::Int,
        node,
        128,
        region_bytes,
        8,
    );
    let pred_potential = b.deref_ref(
        "node->pred->potential",
        DataClass::Int,
        node,
        192,
        region_bytes,
        8,
    );
    let potential = b.deref_ref("node->potential", DataClass::Int, node, 16, region_bytes, 8);

    let _vnode = b.load(node);
    let vori = b.load(orientation);
    let up = b.live_in_gr("UP");
    let is_up = b.cmp(vori, up);

    // then: potential = basic_arc->cost + pred->potential — the
    // delinquent indirect loads fire only for UP nodes.
    b.begin_if(is_up);
    let vcost = b.load(basic_arc_cost);
    let vpred = b.load(pred_potential);
    let sum_up = b.add(vcost, vpred);
    // else: the paper elides the other branch ("..."); model it as a
    // cheap register-only computation.
    b.begin_else();
    let sum_down = b.sub(vori, up);
    b.end_if();

    let result = b.sel(is_up, sum_up, sum_down);
    b.store(potential, result);
    b.build().expect("mcf_refresh_predicated is well-formed")
}

/// The 464.h264ref `FastFullPelBlockMotionSearch()`-style loop: integer
/// loads over a small, re-visited search window (L1-resident when warm)
/// with a SAD-style accumulation. Low trip count, high entry rate.
pub fn motion_search(name: &str) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let cur = b.affine_ref("cur[i]", DataClass::Int, base(0), 4, 4);
    let refw = b.affine_ref("ref[i]", DataClass::Int, base(0) + 8192, 4, 4);
    let vc = b.load(cur);
    let vr = b.load(refw);
    let d = b.sub(vc, vr);
    let sq = b.mul(d, d);
    let _sad = b.add_reduce(sq);
    b.build().expect("motion_search is well-formed")
}

/// The 177.mesa `gl_write_texture_span()`-style loop: FP texel loads and
/// blending over a modest, warm working set. Prefetchable, so the HLO
/// assigns no hints — the loss this loop causes in headroom experiments
/// disappears under HLO-directed hints.
pub fn texture_span(name: &str) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let tex = b.affine_ref("texel[i]", DataClass::Fp, base(0), 8, 8);
    let span = b.affine_ref("span[i]", DataClass::Fp, base(1), 8, 8);
    let out = b.affine_ref("out[i]", DataClass::Fp, base(2), 8, 8);
    let blend = b.live_in_fr("blend");
    let vt = b.load(tex);
    let vs = b.load(span);
    let mixed = b.fma(blend, vt, vs);
    b.store(out, mixed);
    b.build().expect("texture_span is well-formed")
}

/// 445.gobmk-style board scan: indirect integer references into a small
/// (`region_bytes`, typically cache-resident) region — runtime latencies
/// are low even though the prefetcher marks them (heuristic 2b), and trip
/// counts are low. The worst case for hint-driven boosting without PGO.
pub fn hash_walk(name: &str, region_bytes: u64) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let idx = b.affine_ref("moves[i]", DataClass::Int, base(0), 4, 4);
    let board = b.gather_ref(
        "board[moves[i]]",
        DataClass::Int,
        idx,
        base(1),
        4,
        region_bytes,
    );
    let vi = b.load(idx);
    let vb = b.load(board);
    let s = b.add(vb, vi);
    let _acc = b.add_reduce(s);
    b.build().expect("hash_walk is well-formed")
}

/// Column walk with a symbolic stride (`a[i*n]`): the prefetcher clamps
/// the distance (TLB heuristic 2a) and marks the load.
pub fn symbolic_walk(name: &str, typical_stride: i64) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let a = b.symbolic_ref("a[i*n]", DataClass::Fp, base(0), typical_stride, 8);
    let s = b.live_in_fr("s");
    let v = b.load(a);
    let r = b.fmul(v, s);
    let _acc = b.fadd_reduce(r);
    b.build().expect("symbolic_walk is well-formed")
}

/// Walk of a pointer array: `p[i]->field` — the pointer stream prefetches
/// fine, the target gets a reduced distance (2b).
pub fn pointer_array_walk(name: &str, region_bytes: u64) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let parr = b.affine_ref("p[i]", DataClass::Int, base(0), 8, 8);
    let fld = b.deref_ref("p[i]->val", DataClass::Fp, parr, 512, region_bytes, 8);
    let _vp = b.load(parr);
    let vf = b.load(fld);
    let _acc = b.fadd_reduce(vf);
    b.build().expect("pointer_array_walk is well-formed")
}

/// FP-bound kernel with few memory references: little to gain from
/// latency scheduling (compute-dominated benchmarks).
pub fn compute_heavy(name: &str) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let x = b.affine_ref("x[i]", DataClass::Fp, base(0), 8, 8);
    let c0 = b.live_in_fr("c0");
    let c1 = b.live_in_fr("c1");
    let v = b.load(x);
    let t0 = b.fma(c0, v, c1);
    let t1 = b.fmul(t0, t0);
    let t2 = b.fma(c1, t1, t0);
    let t3 = b.fmul(t2, t1);
    let t4 = b.fma(c0, t3, t2);
    let y = b.affine_ref("y[i]", DataClass::Fp, base(1), 8, 8);
    b.store(y, t4);
    b.build().expect("compute_heavy is well-formed")
}

/// First-order IIR filter through memory: `a[i] = c·a[i-1] + b[i]`,
/// carried by a store→load memory-flow dependence the front end declares.
/// Its recurrence (store + FP-load + fma) far exceeds the Resource II, and
/// the store aliases the next iteration's load every time, so the II
/// stays at the RecMII (11): breaking the edge, as the paper's Sec. 3.3
/// data speculation would, needs a check and recovery this compiler does
/// not emit.
pub fn memory_recurrence(name: &str) -> LoopIr {
    use ltsp_ir::MemDepKind;
    let mut b = LoopBuilder::new(name);
    let a_prev = b.affine_ref("a[i-1]", DataClass::Fp, base(0), 8, 8);
    let bb = b.affine_ref("b[i]", DataClass::Fp, base(1), 8, 8);
    let a_out = b.affine_ref("a[i]", DataClass::Fp, base(0) + 8, 8, 8);
    let c = b.live_in_fr("c");
    let va = b.load(a_prev);
    let vb = b.load(bb);
    let r = b.fma(c, va, vb);
    let st = b.store(a_out, r);
    // a[i] written this iteration is a[i-1] next iteration.
    b.mem_dep(st, ltsp_ir::InstId(0), MemDepKind::Flow, 1);
    b.build().expect("memory_recurrence is well-formed")
}

/// Integer reduction over a byte-strided stream (bzip2/gzip-style scan).
pub fn reduction_int(name: &str, stride: i64) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let a = b.affine_ref("buf[i]", DataClass::Int, base(0), stride, 4);
    let v = b.load(a);
    let m = b.and(v, v);
    let _acc = b.add_reduce(m);
    b.build().expect("reduction_int is well-formed")
}

/// A deterministic scheduling-heavy kernel: `streams` FP streams, each
/// feeding a long dependent fma/fmul chain of the given `depth`, paired
/// with matching integer streams. Dozens to hundreds of instructions and
/// high register pressure make the modulo scheduler work for a living —
/// the workload class where compile latency is dominated by the MRT and
/// scheduler phases rather than by parsing or HLO.
///
/// `loadgen --synthetic` serves `scheduling_heavy(&format!("syn{i}"), 3,
/// 9 + i % 5)`; the compile-phases KPI harness scales `streams`/`depth`
/// up to measure the scheduler hot paths at realistic loop sizes.
pub fn scheduling_heavy(name: &str, streams: usize, depth: usize) -> LoopIr {
    let mut b = LoopBuilder::new(name);
    let c0 = b.live_in_fr("c0");
    let c1 = b.live_in_fr("c1");
    let k0 = b.live_in_gr("k0");
    for s in 0..streams {
        let su = s as u64 + 1;
        let x = b.affine_ref(&format!("x{s}[i]"), DataClass::Fp, su << 24, 8, 8);
        let v = b.load(x);
        let mut t = b.fma(c0, v, c1);
        for _ in 0..depth {
            t = b.fma(c0, t, c1);
            t = b.fmul(t, t);
        }
        let y = b.affine_ref(
            &format!("y{s}[i]"),
            DataClass::Fp,
            (su << 24) + (1 << 20),
            8,
            8,
        );
        b.store(y, t);
        // A matching integer stream keeps both register files and both
        // unit classes busy without tripping the rotating-FR supply.
        let p = b.affine_ref(
            &format!("p{s}[i]"),
            DataClass::Int,
            (su << 28) | 1 << 12,
            8,
            8,
        );
        let w = b.load(p);
        let mut u = b.add(w, k0);
        for _ in 0..depth {
            u = b.xor(u, k0);
            u = b.add(u, u);
        }
        let q = b.affine_ref(
            &format!("q{s}[i]"),
            DataClass::Int,
            (su << 28) | 1 << 16,
            8,
            8,
        );
        b.store(q, u);
    }
    b.build().expect("scheduling_heavy is well-formed")
}

/// The canonical kernel library: every kernel at the parameterization the
/// committed `loops/` corpus uses (regenerated by `examples/dump_loops`).
/// One list feeds the corpus dump, the oracle-gap experiment and the
/// corpus tests, so they cannot drift apart.
pub fn kernel_library() -> Vec<(&'static str, LoopIr)> {
    vec![
        ("stream_fp", stream_sum("stream_fp", DataClass::Fp, 8)),
        ("stream_int", stream_sum("stream_int", DataClass::Int, 256)),
        ("saxpy", saxpy("saxpy")),
        ("triad", triad("triad")),
        ("stencil3", stencil3("stencil3")),
        (
            "gather_fp",
            gather_update("gather_fp", DataClass::Fp, 1 << 24),
        ),
        (
            "gather_int",
            gather_update("gather_int", DataClass::Int, 1 << 22),
        ),
        ("mcf_refresh", mcf_refresh("mcf_refresh", 1 << 25)),
        (
            "mcf_refresh_predicated",
            mcf_refresh_predicated("mcf_refresh_predicated", 1 << 25),
        ),
        ("motion_search", motion_search("motion_search")),
        ("texture_span", texture_span("texture_span")),
        ("hash_walk", hash_walk("hash_walk", 1 << 17)),
        ("symbolic_walk", symbolic_walk("symbolic_walk", 4096)),
        (
            "pointer_array",
            pointer_array_walk("pointer_array", 1 << 24),
        ),
        ("compute_heavy", compute_heavy("compute_heavy")),
        ("reduction_int", reduction_int("reduction_int", 4)),
        ("memory_recurrence", memory_recurrence("memory_recurrence")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_names_are_unique_and_match_loop_names() {
        let lib = kernel_library();
        assert_eq!(lib.len(), 17);
        for (i, (name, lp)) in lib.iter().enumerate() {
            assert_eq!(*name, lp.name(), "entry {i}");
            assert!(
                lib[..i].iter().all(|(n, _)| n != name),
                "duplicate kernel name {name}"
            );
        }
    }

    #[test]
    fn all_kernels_build() {
        let kernels: Vec<LoopIr> = vec![
            stream_sum("s", DataClass::Fp, 8),
            stream_sum("si", DataClass::Int, 4),
            saxpy("saxpy"),
            triad("triad"),
            stencil3("stencil"),
            gather_update("g", DataClass::Fp, 1 << 24),
            mcf_refresh("mcf", 1 << 25),
            motion_search("h264"),
            texture_span("mesa"),
            hash_walk("gobmk", 8 * 1024),
            symbolic_walk("sym", 4096),
            pointer_array_walk("pa", 1 << 24),
            compute_heavy("ch"),
            reduction_int("ri", 1),
        ];
        for k in &kernels {
            assert!(!k.insts().is_empty(), "{} has a body", k.name());
        }
    }

    #[test]
    fn mcf_has_chase_and_derefs() {
        let lp = mcf_refresh("mcf", 1 << 25);
        let kinds: Vec<&str> = lp
            .memrefs()
            .iter()
            .map(|m| m.pattern().kind_name())
            .collect();
        assert!(kinds.contains(&"chase"));
        assert!(kinds.iter().filter(|&&k| k == "deref").count() >= 3);
    }

    #[test]
    fn stencil_refs_share_lines() {
        let lp = stencil3("st");
        // Bases 0, +8, +16: all within one 64B line at iteration 0.
        let bases: Vec<u64> = lp
            .memrefs()
            .iter()
            .filter_map(|m| match m.pattern() {
                ltsp_ir::AccessPattern::Affine { base, stride: 8 } => Some(*base),
                _ => None,
            })
            .collect();
        assert!(bases.len() >= 4);
        assert!(bases[1] - bases[0] < 64);
    }
}
