//! The human-readable compile reports the engine's compile bodies carry:
//! what `ltspc` prints for a compile, local or remote.

use std::fmt::Write as _;

use ltsp_adaptive::AdaptiveResult;
use ltsp_core::{CompiledLoop, LatencyPolicy};
use ltsp_ir::LoopIr;
use ltsp_oracle::ExactCase;

/// Renders the compile report: the policy/HLO header line, the schedule
/// summary, the register line, a blank separator and the kernel dump.
pub fn render_compile_report(compiled: &CompiledLoop, policy: LatencyPolicy, trip: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: policy={} trip-estimate={} prefetches={} hinted-refs={}",
        compiled.lp.name(),
        policy,
        trip,
        compiled.hlo.prefetches_inserted,
        compiled.hlo.hinted
    );
    if let Some(stats) = compiled.stats {
        // `speculated=0` is a literal left from the removed data
        // speculation: persisted bodies and the `scale_golden` and
        // `serve_golden` tables pin this exact text.
        let _ = writeln!(
            out,
            "pipelined: II={} (ResMII={} RecMII={}) stages={} boosted={} critical={} speculated=0{}",
            compiled.kernel.ii(),
            stats.res_mii,
            stats.rec_mii,
            compiled.kernel.stage_count(),
            stats.boosted_loads,
            stats.critical_loads,
            if stats.dropped_boosts {
                " (boosts dropped by register pressure)"
            } else {
                ""
            }
        );
        if let Some(regs) = compiled.regs {
            let _ = writeln!(
                out,
                "registers: GR {} FR {} PR {} (rotating)",
                regs.rotating_gr, regs.rotating_fr, regs.rotating_pr
            );
        }
    } else {
        let _ = writeln!(
            out,
            "not pipelined (acyclic fallback): schedule length {}",
            compiled.kernel.ii()
        );
    }
    out.push('\n');
    out.push_str(&compiled.kernel.dump(&compiled.lp));
    out
}

/// Renders the exact backend's compile report: the optimality header,
/// the schedule/register summary, a blank separator and the kernel dump.
pub(crate) fn render_exact_report(lp: &LoopIr, case: &ExactCase) -> String {
    let mut out = String::new();
    let r = &case.result;
    let _ = writeln!(
        out,
        "{}: backend=exact heuristic-II={} emitted-II={}{}{}",
        case.name,
        case.heuristic_ii,
        r.schedule.ii(),
        if r.proven_optimal {
            " (proven optimal)"
        } else {
            " (optimality unresolved in budget)"
        },
        if r.refined { " [refined]" } else { "" },
    );
    let _ = writeln!(
        out,
        "exact: II={} stages={} search-nodes={}",
        r.schedule.ii(),
        r.schedule.stage_count(),
        r.nodes
    );
    let _ = writeln!(
        out,
        "registers: GR {} FR {} PR {} (rotating)",
        r.regs.rotating_gr, r.regs.rotating_fr, r.regs.rotating_pr
    );
    out.push('\n');
    out.push_str(&r.schedule.dump(lp));
    out
}

/// Renders the adaptive compile report: the convergence header, one
/// line per refinement round (fixpoint trace), the chosen schedule's
/// summary and register lines, a blank separator and the kernel dump.
pub fn render_adaptive_report(res: &AdaptiveResult, policy: LatencyPolicy, trip: f64) -> String {
    let mut out = String::new();
    let c = &res.compiled;
    let _ = writeln!(
        out,
        "{}: policy={} trip-estimate={} mode=adaptive static-II={} adaptive-II={} {}",
        c.lp.name(),
        policy,
        trip,
        res.static_ii(),
        res.ii(),
        if res.converged {
            "(fixpoint)"
        } else {
            "(round cap)"
        }
    );
    for r in &res.rounds {
        let _ = writeln!(
            out,
            "round {}: II={} covered={} deltas={} drops={} stalls={} cycles={}{}{}",
            r.round,
            r.ii,
            r.covered,
            r.hint_deltas,
            r.overlay.dropped_prefetches(),
            r.stall_cycles,
            r.total_cycles,
            if r.certified {
                " certified"
            } else {
                " UNCERTIFIED"
            },
            if r.round == res.chosen_round {
                " <= chosen"
            } else {
                ""
            }
        );
    }
    if c.pipelined {
        let _ = writeln!(
            out,
            "pipelined: II={} stages={}",
            c.kernel.ii(),
            c.kernel.stage_count()
        );
    } else {
        let _ = writeln!(
            out,
            "not pipelined (acyclic fallback): schedule length {}",
            c.kernel.ii()
        );
    }
    if let Some(regs) = c.regs {
        let _ = writeln!(
            out,
            "registers: GR {} FR {} PR {} (rotating)",
            regs.rotating_gr, regs.rotating_fr, regs.rotating_pr
        );
    }
    out.push('\n');
    out.push_str(&c.kernel.dump(&c.lp));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_core::{compile_loop_with_profile, CompileConfig};
    use ltsp_machine::MachineModel;
    use ltsp_telemetry::Telemetry;

    #[test]
    fn report_has_header_summary_and_kernel() {
        let lp = ltsp_workloads::saxpy("s");
        let m = MachineModel::itanium2();
        let cfg = CompileConfig::new(LatencyPolicy::HloHints);
        let c = compile_loop_with_profile(&lp, &m, &cfg, 100.0);
        let r = render_compile_report(&c, LatencyPolicy::HloHints, 100.0);
        assert!(
            r.starts_with("s: policy=hlo-hints trip-estimate=100 "),
            "{r}"
        );
        assert!(r.contains("pipelined: II="));
        assert!(r.contains("\n\n"), "blank line before the kernel dump");
        assert!(r.ends_with('\n'));
    }

    #[test]
    fn exact_report_has_header_summary_and_kernel() {
        let lp = ltsp_workloads::saxpy("s");
        let m = MachineModel::itanium2();
        let case =
            ltsp_oracle::exact_case(&lp, &m, &ltsp_oracle::OracleOptions::default()).unwrap();
        let r = render_exact_report(&lp, &case);
        assert!(r.starts_with("s: backend=exact heuristic-II="), "{r}");
        assert!(r.contains("proven optimal"), "{r}");
        assert!(r.contains("registers: GR "), "{r}");
        assert!(r.contains("\n\n"), "blank line before the kernel dump");
    }

    #[test]
    fn adaptive_report_has_round_trace_and_kernel() {
        let lp = ltsp_workloads::saxpy("s");
        let m = MachineModel::itanium2();
        let cfg = CompileConfig::new(LatencyPolicy::HloHints);
        let res = ltsp_adaptive::compile_loop_adaptive(
            &lp,
            &m,
            &cfg,
            100.0,
            &ltsp_adaptive::AdaptiveOptions::default(),
            &Telemetry::disabled(),
        );
        let r = render_adaptive_report(&res, LatencyPolicy::HloHints, 100.0);
        assert!(
            r.starts_with("s: policy=hlo-hints trip-estimate=100 mode=adaptive static-II="),
            "{r}"
        );
        assert!(r.contains("round 0: II="), "{r}");
        assert!(r.contains("<= chosen"), "{r}");
        assert!(r.contains(" certified"), "{r}");
        assert!(!r.contains("UNCERTIFIED"), "{r}");
        assert!(r.contains("\n\n"), "blank line before the kernel dump");
    }
}
