//! The typed compiler decision trace.
//!
//! Every consequential choice the compiler makes on its way to a kernel is
//! an [`Event`]: which HLO heuristic hinted a reference, how each load's
//! criticality verdict fell, what latency boost a load was assigned, every
//! II escalation during iterative modulo scheduling, and the
//! register-pressure fallbacks. Events carry only primitive fields so the
//! telemetry crate depends on nothing else in the workspace.

use crate::json::Scalar;

/// One compiler decision (or diagnostic) worth tracing.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The HLO prefetcher decided what to do with one memory reference
    /// (paper Sec. 3.2). `heuristic` identifies the rule that set the
    /// latency hint: `"1"` not-prefetchable, `"2a"` symbolic stride,
    /// `"2b"` indirect target, `"3"` OzQ pressure.
    HloDecision {
        /// Enclosing loop.
        loop_name: String,
        /// The reference's source name (e.g. `"a[i]"`).
        memref: String,
        /// Which hint heuristic fired, if any.
        heuristic: Option<&'static str>,
        /// The latency hint set (`"L2"`/`"L3"`), if any.
        hint: Option<&'static str>,
        /// Prefetch distance in iterations, when a prefetch was emitted.
        prefetch_distance: Option<u32>,
        /// Covered by a leading reference to the same stream.
        deduped: bool,
    },
    /// Recurrence-cycle enumeration finished on one dependence graph.
    CycleEnumeration {
        /// Cycles enumerated.
        cycles: u64,
        /// Enumeration cap.
        cap: u64,
        /// True when the cap stopped the enumeration early.
        truncated: bool,
    },
    /// The criticality verdict for one load (paper Sec. 3.3): boosting is
    /// allowed only when every recurrence cycle through the load keeps its
    /// implied II at or under the `threshold = max(ResMII, base RecMII)`.
    CriticalityVerdict {
        /// Enclosing loop.
        loop_name: String,
        /// The load instruction (IR id).
        load: String,
        /// True when the load must stay at its base latency.
        critical: bool,
        /// Worst implied II over raised cycles through this load (0 when
        /// the load sits on no recurrence cycle).
        implied_ii: u32,
        /// The II the loop must not exceed for boosting to be free.
        threshold: u32,
        /// `threshold − implied_ii`: headroom (negative = violation).
        slack: i64,
    },
    /// A load was scheduled at a boosted latency in the final kernel.
    /// The latency is realized as `d = (k−1)·II` extra buffer stages.
    BoostAssigned {
        /// Enclosing loop.
        loop_name: String,
        /// The load instruction (IR id).
        load: String,
        /// The HLO heuristic behind the hint (`"1"`, `"2a"`, `"2b"`,
        /// `"3"`), or `"policy"` for blanket policies, `"sampled"` for
        /// miss-sampled latencies.
        heuristic: &'static str,
        /// Base (L1) latency the baseline would schedule.
        base_latency: u32,
        /// The scheduled (boosted) latency.
        scheduled_latency: u32,
        /// Chosen stage count for the load: `k = ceil(latency / II)`.
        k: u32,
        /// Extra latency tolerance bought: `d = (k−1)·II`.
        boost: u32,
        /// The kernel's initiation interval.
        ii: u32,
        /// `k·II − scheduled_latency`: over-coverage of the chosen k.
        slack: i64,
    },
    /// One modulo-scheduling attempt (one II × latency setting).
    ScheduleAttempt {
        /// Enclosing loop.
        loop_name: String,
        /// The II tried.
        ii: u32,
        /// `"boosted"` or `"base"` latencies.
        latencies: &'static str,
        /// `"scheduled"`, `"infeasible"`, or `"budget-exhausted"`.
        outcome: &'static str,
    },
    /// Iterative modulo scheduling moved to a higher II.
    IiEscalation {
        /// Enclosing loop.
        loop_name: String,
        /// The II that failed.
        from_ii: u32,
        /// The II tried next.
        to_ii: u32,
        /// `"boosted"` or `"base"` phase of the fallback ladder.
        phase: &'static str,
    },
    /// Rotating register allocation failed; the fallback ladder reacts
    /// (paper Sec. 3.3: "first reduce the non-critical load latencies …,
    /// then continue to iterate at successively higher IIs"). The two
    /// floor actions report a failure that was certain before scheduling:
    /// the dependence graph alone demands more registers than exist.
    RegallocFallback {
        /// Enclosing loop.
        loop_name: String,
        /// The II whose schedule failed to allocate. For `"reject-floor"`
        /// the largest II in the budget; for `"skip-floor"` the last II
        /// skipped.
        ii: u32,
        /// Register class that overflowed (`"GR"`, `"FR"`, `"PR"`).
        class: &'static str,
        /// Registers the schedule needed; for the floor actions, the
        /// least any schedule at `ii` needs.
        needed: u32,
        /// Registers the machine has.
        available: u32,
        /// `"drop-boosts"` or `"escalate-ii"` after a failed allocation;
        /// `"reject-floor"` when no II in the budget can allocate and the
        /// ladder is not walked; `"skip-floor"` when the base-latency
        /// phase starts past IIs that cannot.
        action: &'static str,
    },
    /// Pipelining was rejected; the loop fell back to the acyclic
    /// list schedule.
    AcyclicFallback {
        /// Enclosing loop.
        loop_name: String,
        /// `schedule_at` calls actually made before giving up (0 after a
        /// `"reject-floor"`).
        attempts: u32,
        /// The Min II that could not be realized.
        min_ii: u32,
    },
    /// The exact-II oracle's verdict on one loop: whether the heuristic
    /// pipeliner's II is proven optimal, provably suboptimal, or
    /// unresolved within the search budget.
    OracleVerdict {
        /// The loop examined.
        loop_name: String,
        /// The II the heuristic pipeliner achieved.
        heuristic_ii: u32,
        /// The oracle's proven minimal II (`verdict == "exact"`), or the
        /// proven lower bound when the budget ran out.
        oracle_ii: u32,
        /// `"exact"` or `"bounded-unknown"`.
        verdict: &'static str,
        /// `heuristic_ii − oracle_ii`: 0 with an exact verdict means the
        /// heuristic is proven optimal; positive is the optimality gap.
        gap: i64,
        /// Search nodes the oracle expanded.
        nodes: u64,
    },
    /// One round of the adaptive feedback loop (crates/adaptive): the
    /// loop was compiled, certified and simulated, and the observed
    /// behaviour was folded into the next round's hint overlay.
    AdaptiveRound {
        /// The loop being refined.
        loop_name: String,
        /// Round index (0 = the static compile).
        round: u32,
        /// The II this round's schedule achieved.
        ii: u32,
        /// True when this round's schedule was software-pipelined.
        pipelined: bool,
        /// References with an observed verdict in this round's overlay
        /// (0 in round 0, which compiles statically).
        covered: u64,
        /// References whose verdict changed from the previous round's
        /// overlay (0 means the hints reached their fixpoint).
        hint_deltas: u64,
        /// Simulated stall cycles over the measurement window.
        stall_cycles: u64,
        /// Simulated total cycles over the measurement window.
        total_cycles: u64,
    },
    /// One work item executed on a pool worker thread
    /// (`ltsp-par`). Emitted by the pool when per-item telemetry buffers
    /// are spliced back in index order; the Chrome exporter renders these
    /// as complete events on per-worker lanes. Worker attribution and
    /// timing are scheduling-dependent and are stripped by
    /// [`crate::normalize_trace`]; `pool` and `item` are deterministic.
    WorkerSpan {
        /// The batch label (e.g. `"suite"`, `"fuzz"`).
        pool: String,
        /// Worker thread index within the pool (0-based).
        worker: u64,
        /// The item's input index — results and traces merge in this
        /// order.
        item: u64,
        /// Item start, µs since the parent sink's epoch.
        start_us: u64,
        /// Item wall-clock duration in µs.
        dur_us: u64,
    },
    /// One request served by the `ltspd` compilation daemon
    /// (`ltsp-server`). Carries only deterministic request-derived
    /// fields — wall-clock latency lives in the metrics histograms, so a
    /// trace stays byte-identical across worker counts and runs.
    ServerRequest {
        /// The client-supplied (or server-assigned) trace ID.
        trace_id: String,
        /// Request class: `"compile"`, `"verify"`, `"oracle"`, `"ping"`,
        /// `"stats"`, or `"shutdown"`.
        op: &'static str,
        /// Terminal status: `"ok"`, `"rejected"`, `"error"`,
        /// `"overloaded"`, or `"draining"`.
        status: &'static str,
        /// `"hit"`, `"miss"`, or `"-"` for uncacheable request classes.
        cache: &'static str,
        /// The loop the request concerned (empty for admin requests).
        loop_name: String,
    },
    /// A lifecycle transition of the `ltspd` daemon: listening, drain
    /// initiated, drain complete, or the dispatcher dying abnormally.
    ServerLifecycle {
        /// `"listen"`, `"drain"`, `"dispatcher-died"`, or `"stopped"`.
        phase: &'static str,
        /// Free-form detail (bind address, drain reason, request totals).
        detail: String,
    },
    /// A request handler panicked and the panic was contained: the
    /// daemon answered `status:"error"` and kept serving. The payload is
    /// the panic message (lossily stringified).
    RequestPanic {
        /// The request whose handler panicked.
        trace_id: String,
        /// Request class (`"compile"`, `"verify"`, `"oracle"`, …).
        op: &'static str,
        /// The panic payload, when it was a string (else a placeholder).
        payload: String,
    },
    /// The deterministic fault-injection harness fired at one of its
    /// named sites (`LTSP_FAULT`; see `ltsp_server::fault`).
    FaultInjected {
        /// The injection site: `"panic"`, `"slow"`, `"drop"`,
        /// `"short-write"`, or `"dispatch"`.
        site: &'static str,
        /// The request/response the fault keyed on.
        trace_id: String,
    },
    /// A free-form diagnostic (replaces ad-hoc `eprintln!`).
    Diagnostic {
        /// `"info"`, `"warn"`, or `"error"`.
        level: &'static str,
        /// The message.
        message: String,
    },
}

fn opt_str(v: &Option<&'static str>) -> Scalar {
    match v {
        Some(s) => Scalar::Str((*s).to_string()),
        None => Scalar::Str(String::new()),
    }
}

impl Event {
    /// The event's type tag (the `"type"` field of its JSONL record).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::HloDecision { .. } => "hlo_decision",
            Event::CycleEnumeration { .. } => "cycle_enumeration",
            Event::CriticalityVerdict { .. } => "criticality_verdict",
            Event::BoostAssigned { .. } => "boost_assigned",
            Event::ScheduleAttempt { .. } => "schedule_attempt",
            Event::IiEscalation { .. } => "ii_escalation",
            Event::RegallocFallback { .. } => "regalloc_fallback",
            Event::AcyclicFallback { .. } => "acyclic_fallback",
            Event::OracleVerdict { .. } => "oracle_verdict",
            Event::AdaptiveRound { .. } => "adaptive_round",
            Event::WorkerSpan { .. } => "worker_span",
            Event::ServerRequest { .. } => "server_request",
            Event::ServerLifecycle { .. } => "server_lifecycle",
            Event::RequestPanic { .. } => "request_panic",
            Event::FaultInjected { .. } => "fault_injected",
            Event::Diagnostic { .. } => "diagnostic",
        }
    }

    /// The event's payload as `(key, value)` pairs, in a stable order.
    pub(crate) fn fields(&self) -> Vec<(&'static str, Scalar)> {
        match self {
            Event::HloDecision {
                loop_name,
                memref,
                heuristic,
                hint,
                prefetch_distance,
                deduped,
            } => vec![
                ("loop", loop_name.clone().into()),
                ("memref", memref.clone().into()),
                ("heuristic", opt_str(heuristic)),
                ("hint", opt_str(hint)),
                (
                    "prefetch_distance",
                    Scalar::I64(prefetch_distance.map_or(-1, i64::from)),
                ),
                ("deduped", (*deduped).into()),
            ],
            Event::CycleEnumeration {
                cycles,
                cap,
                truncated,
            } => vec![
                ("cycles", (*cycles).into()),
                ("cap", (*cap).into()),
                ("truncated", (*truncated).into()),
            ],
            Event::CriticalityVerdict {
                loop_name,
                load,
                critical,
                implied_ii,
                threshold,
                slack,
            } => vec![
                ("loop", loop_name.clone().into()),
                ("load", load.clone().into()),
                ("critical", (*critical).into()),
                ("implied_ii", (*implied_ii).into()),
                ("threshold", (*threshold).into()),
                ("slack", Scalar::I64(*slack)),
            ],
            Event::BoostAssigned {
                loop_name,
                load,
                heuristic,
                base_latency,
                scheduled_latency,
                k,
                boost,
                ii,
                slack,
            } => vec![
                ("loop", loop_name.clone().into()),
                ("load", load.clone().into()),
                ("heuristic", (*heuristic).into()),
                ("base_latency", (*base_latency).into()),
                ("scheduled_latency", (*scheduled_latency).into()),
                ("k", (*k).into()),
                ("boost", (*boost).into()),
                ("ii", (*ii).into()),
                ("slack", Scalar::I64(*slack)),
            ],
            Event::ScheduleAttempt {
                loop_name,
                ii,
                latencies,
                outcome,
            } => vec![
                ("loop", loop_name.clone().into()),
                ("ii", (*ii).into()),
                ("latencies", (*latencies).into()),
                ("outcome", (*outcome).into()),
            ],
            Event::IiEscalation {
                loop_name,
                from_ii,
                to_ii,
                phase,
            } => vec![
                ("loop", loop_name.clone().into()),
                ("from_ii", (*from_ii).into()),
                ("to_ii", (*to_ii).into()),
                ("phase", (*phase).into()),
            ],
            Event::RegallocFallback {
                loop_name,
                ii,
                class,
                needed,
                available,
                action,
            } => vec![
                ("loop", loop_name.clone().into()),
                ("ii", (*ii).into()),
                ("class", (*class).into()),
                ("needed", (*needed).into()),
                ("available", (*available).into()),
                ("action", (*action).into()),
            ],
            Event::AcyclicFallback {
                loop_name,
                attempts,
                min_ii,
            } => vec![
                ("loop", loop_name.clone().into()),
                ("attempts", (*attempts).into()),
                ("min_ii", (*min_ii).into()),
            ],
            Event::OracleVerdict {
                loop_name,
                heuristic_ii,
                oracle_ii,
                verdict,
                gap,
                nodes,
            } => vec![
                ("loop", loop_name.clone().into()),
                ("heuristic_ii", (*heuristic_ii).into()),
                ("oracle_ii", (*oracle_ii).into()),
                ("verdict", (*verdict).into()),
                ("gap", Scalar::I64(*gap)),
                ("nodes", (*nodes).into()),
            ],
            Event::AdaptiveRound {
                loop_name,
                round,
                ii,
                pipelined,
                covered,
                hint_deltas,
                stall_cycles,
                total_cycles,
            } => vec![
                ("loop", loop_name.clone().into()),
                ("round", (*round).into()),
                ("ii", (*ii).into()),
                ("pipelined", Scalar::Bool(*pipelined)),
                ("covered", (*covered).into()),
                ("hint_deltas", (*hint_deltas).into()),
                ("stall_cycles", (*stall_cycles).into()),
                ("total_cycles", (*total_cycles).into()),
            ],
            Event::WorkerSpan {
                pool,
                worker,
                item,
                start_us,
                dur_us,
            } => vec![
                ("pool", pool.clone().into()),
                ("worker", (*worker).into()),
                ("item", (*item).into()),
                ("start_us", (*start_us).into()),
                ("dur_us", (*dur_us).into()),
            ],
            Event::ServerRequest {
                trace_id,
                op,
                status,
                cache,
                loop_name,
            } => vec![
                ("trace_id", trace_id.clone().into()),
                ("op", (*op).into()),
                ("status", (*status).into()),
                ("cache", (*cache).into()),
                ("loop", loop_name.clone().into()),
            ],
            Event::ServerLifecycle { phase, detail } => vec![
                ("phase", (*phase).into()),
                ("detail", detail.clone().into()),
            ],
            Event::RequestPanic {
                trace_id,
                op,
                payload,
            } => vec![
                ("trace_id", trace_id.clone().into()),
                ("op", (*op).into()),
                ("payload", payload.clone().into()),
            ],
            Event::FaultInjected { site, trace_id } => vec![
                ("site", (*site).into()),
                ("trace_id", trace_id.clone().into()),
            ],
            Event::Diagnostic { level, message } => vec![
                ("level", (*level).into()),
                ("message", message.clone().into()),
            ],
        }
    }

    /// A one-line human rendering (used for `-v` output on stderr).
    pub fn render_human(&self) -> String {
        match self {
            Event::HloDecision {
                loop_name,
                memref,
                heuristic,
                hint,
                prefetch_distance,
                deduped,
            } => {
                let mut s = format!("hlo {loop_name}/{memref}:");
                match prefetch_distance {
                    Some(d) => s.push_str(&format!(" prefetch dist={d}")),
                    None => s.push_str(" no prefetch"),
                }
                if let Some(h) = hint {
                    s.push_str(&format!(
                        " hint={h} (heuristic {})",
                        heuristic.unwrap_or("?")
                    ));
                }
                if *deduped {
                    s.push_str(" [deduped]");
                }
                s
            }
            Event::CycleEnumeration {
                cycles,
                cap,
                truncated,
            } => format!(
                "ddg: {cycles} recurrence cycles (cap {cap}{})",
                if *truncated { ", truncated" } else { "" }
            ),
            Event::CriticalityVerdict {
                loop_name,
                load,
                critical,
                implied_ii,
                threshold,
                slack,
            } => format!(
                "criticality {loop_name}/{load}: {} (implied II {implied_ii} vs threshold {threshold}, slack {slack})",
                if *critical { "CRITICAL" } else { "non-critical" }
            ),
            Event::BoostAssigned {
                loop_name,
                load,
                heuristic,
                base_latency,
                scheduled_latency,
                k,
                boost,
                ii,
                ..
            } => format!(
                "boost {loop_name}/{load}: {base_latency} -> {scheduled_latency} cycles \
                 (heuristic {heuristic}, k={k}, d=(k-1)*II={boost} at II={ii})"
            ),
            Event::ScheduleAttempt {
                loop_name,
                ii,
                latencies,
                outcome,
            } => format!("schedule {loop_name}: II={ii} ({latencies} latencies) -> {outcome}"),
            Event::IiEscalation {
                loop_name,
                from_ii,
                to_ii,
                phase,
            } => format!("escalate {loop_name}: II {from_ii} -> {to_ii} ({phase} phase)"),
            Event::RegallocFallback {
                loop_name,
                ii,
                class,
                needed,
                available,
                action,
            } => format!(
                "regalloc {loop_name}: II={ii} needs {}{needed} {class} regs \
                 (have {available}) -> {action}",
                if action.ends_with("-floor") {
                    "at least "
                } else {
                    ""
                }
            ),
            Event::AcyclicFallback {
                loop_name,
                attempts,
                min_ii,
            } => format!(
                "fallback {loop_name}: pipelining rejected after {attempts} attempts \
                 from Min II {min_ii}; acyclic schedule"
            ),
            Event::OracleVerdict {
                loop_name,
                heuristic_ii,
                oracle_ii,
                verdict,
                gap,
                nodes,
            } => format!(
                "oracle {loop_name}: heuristic II={heuristic_ii}, oracle II={oracle_ii} \
                 ({verdict}, gap {gap}, {nodes} nodes)"
            ),
            Event::AdaptiveRound {
                loop_name,
                round,
                ii,
                hint_deltas,
                stall_cycles,
                ..
            } => format!(
                "adaptive {loop_name}: round {round} II={ii} \
                 hint-deltas={hint_deltas} stall-cycles={stall_cycles}"
            ),
            Event::WorkerSpan {
                pool,
                worker,
                item,
                dur_us,
                ..
            } => format!(
                "pool {pool}: item {item} on worker {worker} ({:.3} ms)",
                *dur_us as f64 / 1e3
            ),
            Event::ServerRequest {
                trace_id,
                op,
                status,
                cache,
                loop_name,
            } => format!(
                "serve [{trace_id}] {op}{}: {status} (cache {cache})",
                if loop_name.is_empty() {
                    String::new()
                } else {
                    format!(" {loop_name}")
                }
            ),
            Event::ServerLifecycle { phase, detail } => format!("ltspd {phase}: {detail}"),
            Event::RequestPanic {
                trace_id,
                op,
                payload,
            } => format!("panic contained [{trace_id}] {op}: {payload}"),
            Event::FaultInjected { site, trace_id } => {
                format!("fault injected [{trace_id}] at {site}")
            }
            Event::Diagnostic { level, message } => format!("{level}: {message}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_match_kind() {
        let e = Event::BoostAssigned {
            loop_name: "ex".into(),
            load: "i0".into(),
            heuristic: "2b",
            base_latency: 1,
            scheduled_latency: 21,
            k: 21,
            boost: 20,
            ii: 1,
            slack: 0,
        };
        assert_eq!(e.kind(), "boost_assigned");
        let f = e.fields();
        assert!(f.iter().any(|(k, v)| *k == "k" && *v == Scalar::U64(21)));
        assert!(e.render_human().contains("heuristic 2b"));
    }

    #[test]
    fn diagnostics_have_no_loop() {
        let e = Event::Diagnostic {
            level: "info",
            message: "hello".into(),
        };
        assert_eq!(e.render_human(), "info: hello");
    }
}
