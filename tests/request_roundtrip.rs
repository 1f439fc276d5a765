//! `Request::to_line` is the inverse of `parse_request`: every valid
//! request survives the trip to its wire line and back unchanged — every
//! op, policy and allowed backend × mode pair, budgets, deadlines unset,
//! zero and set, fractional trips, and ids and loop text full of quotes,
//! backslashes, newlines, control bytes and non-ASCII.

use proptest::collection::vec;
use proptest::prelude::*;

use ltsp::core::LatencyPolicy;
use ltsp::server::{parse_request, Backend, Mode, ReqOp, Request};

const OPS: [ReqOp; 7] = [
    ReqOp::Compile,
    ReqOp::Verify,
    ReqOp::Oracle,
    ReqOp::Ping,
    ReqOp::Stats,
    ReqOp::Metrics,
    ReqOp::Shutdown,
];

const POLICIES: [LatencyPolicy; 4] = [
    LatencyPolicy::Baseline,
    LatencyPolicy::AllLoadsL3,
    LatencyPolicy::AllFpLoadsL2,
    LatencyPolicy::HloHints,
];

/// Every backend × mode pair a request may carry: adaptive mode refines
/// the heuristic backend only.
const PAIRS: [(Backend, Mode); 4] = [
    (Backend::Heuristic, Mode::Static),
    (Backend::Exact, Mode::Static),
    (Backend::Tiered, Mode::Static),
    (Backend::Heuristic, Mode::Adaptive),
];

/// What ids and loop text are drawn from: JSON's escapes, control
/// bytes, multi-byte UTF-8 and plain loop syntax.
const CHARS: [char; 16] = [
    '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', '→', '😀', 'l', '0', ' ', '{', '}', ':',
];

/// Numbers travel as JSON numbers: integers round-trip up to 2^53.
const MAX_EXACT: u64 = 1 << 53;

fn text(ixs: &[usize]) -> String {
    ixs.iter().map(|&i| CHARS[i]).collect()
}

fn round_trips(r: &Request) -> Result<(), TestCaseError> {
    let line = r.to_line();
    prop_assert!(!line.contains('\n'), "one line: {line}");
    let back = parse_request(&line).map_err(|e| TestCaseError::fail(format!("{e:?}: {line}")))?;
    prop_assert_eq!(&back, r, "{:?} != {:?} via {}", back, r, line);
    Ok(())
}

#[test]
fn every_op_policy_and_pair_round_trips() {
    for op in OPS {
        for policy in POLICIES {
            for (backend, mode) in PAIRS {
                let r = Request {
                    id: format!("{}-{policy}", op.tag()),
                    op,
                    loop_text: if matches!(op, ReqOp::Compile | ReqOp::Verify | ReqOp::Oracle) {
                        "loop x {\n}\n".to_string()
                    } else {
                        String::new()
                    },
                    policy,
                    backend,
                    mode,
                    ..Request::default()
                };
                round_trips(&r).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_requests_round_trip(
        kind in (0..OPS.len(), 0..POLICIES.len(), 0..PAIRS.len()),
        id in vec(0..CHARS.len(), 0..24),
        loop_text in vec(0..CHARS.len(), 0..48),
        trip in (0..3u8, 0..100_000u64, 0.0..1e6f64),
        knobs in (any::<u32>(), any::<bool>(), any::<bool>(), any::<bool>()),
        budget in (0..MAX_EXACT, 0..3u8, 1..MAX_EXACT),
    ) {
        let (op, policy, (backend, mode)) = (OPS[kind.0], POLICIES[kind.1], PAIRS[kind.2]);
        let carries_loop = matches!(op, ReqOp::Compile | ReqOp::Verify | ReqOp::Oracle);
        let (threshold, prefetch, balanced, timings) = knobs;
        let (budget, deadline_kind, deadline) = budget;
        let r = Request {
            id: text(&id),
            op,
            loop_text: if carries_loop { text(&loop_text) } else { String::new() },
            policy,
            trip: match trip.0 {
                0 => trip.1 as f64,
                1 => trip.2,
                _ => trip.2 / 7.0,
            },
            threshold,
            prefetch,
            balanced,
            backend,
            mode,
            budget,
            deadline_ms: match deadline_kind {
                0 => None,
                1 => Some(0),
                _ => Some(deadline),
            },
            timings,
        };
        round_trips(&r)?;
    }
}
