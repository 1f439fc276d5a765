//! `ModuloSchedule::rows` sorts a kernel into one flat array by counting;
//! the referee here is the order it replaced, one `Vec` per kernel cycle
//! sorted by (stage, inst), and the dump that printed it cell by cell
//! through `write!`. Both must agree byte for byte on every schedule the
//! compiler hands out: the library, 200 random loops and the
//! `compile_scale` kernels under all four policies, pipelined kernels and
//! acyclic fallbacks (whose II is the whole schedule length) alike.

use std::fmt::Write as _;

use ltsp::core::{compile_loop, CompileConfig, LatencyPolicy};
use ltsp::ir::{InstId, LoopIr};
use ltsp::machine::MachineModel;
use ltsp::pipeliner::{KernelSlot, ModuloSchedule};
use ltsp::workloads::{kernel_library, random_loop, scheduling_heavy};

const POLICIES: [LatencyPolicy; 4] = [
    LatencyPolicy::Baseline,
    LatencyPolicy::AllLoadsL3,
    LatencyPolicy::AllFpLoadsL2,
    LatencyPolicy::HloHints,
];

/// The kernel slots grouped by cycle, one `Vec` per row, each sorted by
/// (stage, inst).
fn referee_rows(s: &ModuloSchedule) -> Vec<Vec<KernelSlot>> {
    let ii = i64::from(s.ii());
    let mut rows = vec![Vec::new(); s.ii() as usize];
    for idx in 0..s.len() {
        let t = s.time(InstId(idx as u32));
        rows[(t % ii) as usize].push(KernelSlot {
            inst: InstId(idx as u32),
            stage: (t / ii) as u32,
        });
    }
    for row in &mut rows {
        row.sort_by_key(|s: &KernelSlot| (s.stage, s.inst));
    }
    rows
}

fn referee_dump(s: &ModuloSchedule, lp: &LoopIr) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "kernel II={} stages={} ({} insts)",
        s.ii(),
        s.stage_count(),
        s.len()
    );
    for (c, row) in referee_rows(s).iter().enumerate() {
        let _ = write!(out, "  cycle {c}:");
        for slot in row {
            let _ = write!(
                out,
                "  [s{}] {}",
                slot.stage,
                lp.inst(slot.inst).op().mnemonic()
            );
        }
        let _ = writeln!(out);
    }
    out
}

/// Compiles `loops` under every policy and holds each schedule's rows and
/// dump to the referee's; returns how many compiles fell back.
fn agree(loops: impl IntoIterator<Item = LoopIr>) -> usize {
    let machine = MachineModel::itanium2();
    let mut fallbacks = 0;
    for lp in loops {
        for policy in POLICIES {
            let c = compile_loop(&lp, &machine, &CompileConfig::new(policy));
            let rows = c.kernel.rows();
            let rows: Vec<&[KernelSlot]> = rows.iter().collect();
            assert_eq!(rows, referee_rows(&c.kernel), "{} {policy:?}", lp.name());
            assert_eq!(
                c.kernel.dump(&c.lp),
                referee_dump(&c.kernel, &c.lp),
                "{} {policy:?}",
                lp.name()
            );
            fallbacks += usize::from(!c.pipelined);
        }
    }
    fallbacks
}

#[test]
fn library_and_random_kernels_dump_as_the_referee() {
    agree(kernel_library().into_iter().map(|(_, lp)| lp));
    agree((0..200).map(random_loop));
}

/// Every depth a `compile_scale` seed can draw, for 3 to 5 streams: two
/// thirds of these compiles are acyclic fallbacks.
#[test]
fn scale_kernels_and_their_fallbacks_dump_as_the_referee() {
    let kernels = (3..=5).flat_map(|streams| {
        (9..=20).map(move |depth| scheduling_heavy(&format!("s{streams}x{depth}"), streams, depth))
    });
    assert!(agree(kernels) > 0, "no acyclic fallback was checked");
}
