//! The server's counters, declared once.
//!
//! Every number the `stats` op, the Prometheus exposition and the
//! drain-time telemetry export report is one row of [`ROWS`]: where the
//! value comes from — a [`Counter`] the server bumps, or a sample of
//! state kept elsewhere (cache statistics, the persist log's size, the
//! flight ring) — its `stats` key, its Prometheus family and label
//! value, and its telemetry name. The three renderings are loops over
//! that table, so a number is added by adding a row (and, for one the
//! server owns, a variant), and cannot be reported under two names or
//! forgotten by one of the three.

use std::sync::atomic::{AtomicU64, Ordering};

use ltsp_cache::CacheStats;
use ltsp_telemetry::{prom, Telemetry};

use crate::proto::push_u64_field;

/// A number the server owns: monotonic for the `*_total` families,
/// last-write-wins for the gauges. Bumped by the engine, the refine
/// worker and the daemon's threads; one relaxed atomic each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Counter {
    /// `status:"ok"` responses.
    RequestsOk,
    /// `status:"rejected"` responses.
    RequestsRejected,
    /// `status:"error"` responses.
    RequestsError,
    /// `status:"overloaded"` responses (answered at admission).
    RequestsOverloaded,
    /// `status:"draining"` responses (answered at admission).
    RequestsDraining,
    /// Requests answered on their connection's own thread from a
    /// result-cache hit; the rest of the handled requests crossed the
    /// queue and a worker.
    ServedInline,
    /// Requests sitting in the admission queue right now.
    QueueDepth,
    /// Requests currently being handled by the workers.
    Inflight,
    /// Open client connections.
    Connections,
    /// Connections killed for missing the write deadline.
    ConnectionsShed,
    /// Responses dropped on shed or dead connections.
    ResponsesShed,
    /// Handler panics contained (real or injected).
    RequestPanics,
    /// Faults injected by the active [`crate::FaultPlan`].
    FaultsInjected,
    /// Dispatcher deaths survived (drain-and-exit path).
    DispatcherDeaths,
    /// Records replayed into the result cache at startup (after
    /// last-writer-wins collapse).
    PersistReplayed,
    /// Bad records dropped during startup replay (torn/corrupt tail).
    PersistDropped,
    /// Clean records superseded by a later append under the same key
    /// (in-place cache upgrades leave exactly one of these each).
    PersistSuperseded,
    /// Records appended since startup.
    PersistAppended,
    /// Append failures (the response is still served; the entry is just
    /// not durable).
    PersistAppendErrors,
    /// Refinement batches queued (one per cold refining compile whose
    /// work was not already in flight).
    UpgradesScheduled,
    /// Cold refining compiles coalesced onto an already-queued batch
    /// with the same refinement work (each still gets its own in-place
    /// upgrade, but the schedule is computed once).
    UpgradesCoalesced,
    /// Upgrades applied in place (raw-request and tier body entries
    /// swapped to the refined bytes, persisted again) — one per waiter,
    /// coalesced or not.
    UpgradesApplied,
    /// Applied upgrades whose refined schedule strictly improved the
    /// heuristic II.
    UpgradesRefined,
    /// Refinement jobs that failed (parse, emission, a rejected case, a
    /// contained panic) — the heuristic entry stays, correctness is
    /// unaffected.
    UpgradesFailed,
}

/// One atomic per [`Counter`].
#[derive(Debug)]
pub(crate) struct Counters([AtomicU64; Counter::UpgradesFailed as usize + 1]);

impl Default for Counters {
    fn default() -> Self {
        Counters(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

impl Counters {
    /// Adds `n` and returns the value before.
    pub(crate) fn add(&self, c: Counter, n: u64) -> u64 {
        self.0[c as usize].fetch_add(n, Ordering::Relaxed)
    }

    /// Takes `n` off a gauge.
    pub(crate) fn sub(&self, c: Counter, n: u64) {
        self.0[c as usize].fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrites a gauge.
    pub(crate) fn set(&self, c: Counter, v: u64) {
        self.0[c as usize].store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub(crate) fn get(&self, c: Counter) -> u64 {
        self.0[c as usize].load(Ordering::Relaxed)
    }

    /// Tallies one response by its final status.
    pub(crate) fn count_response(&self, status: &str) {
        let c = match status {
            "ok" => Counter::RequestsOk,
            "rejected" => Counter::RequestsRejected,
            "overloaded" => Counter::RequestsOverloaded,
            "draining" => Counter::RequestsDraining,
            _ => Counter::RequestsError,
        };
        self.add(c, 1);
    }

    fn value(&self, row: &Row, sampled: &Sampled) -> u64 {
        match row.source {
            Source::Own(c) => self.get(c),
            Source::Sample(read) => read(sampled),
        }
    }

    /// Appends every row that has a `stats` key to a response body.
    pub(crate) fn push_stats(&self, sampled: &Sampled, body: &mut String) {
        for row in ROWS.iter().filter(|r| !r.stats.is_empty()) {
            push_u64_field(body, row.stats, self.value(row, sampled));
        }
    }

    /// Appends every family, in exposition order, with its samples.
    pub(crate) fn push_prometheus(&self, sampled: &Sampled, out: &mut String) {
        for &(family, name, kind, label) in FAMILIES {
            prom::push_type(out, name, kind);
            for row in ROWS.iter().filter(|r| r.family == family) {
                let labels = [(label, row.label)];
                let labels = if label.is_empty() { &[][..] } else { &labels };
                prom::push_sample(out, name, labels, self.value(row, sampled) as f64);
            }
        }
    }

    /// Adds every row that has a telemetry name to `tel`'s registry.
    pub(crate) fn export(&self, sampled: &Sampled, tel: &Telemetry) {
        for row in ROWS.iter().filter(|r| !r.telemetry.is_empty()) {
            tel.counter_add(row.telemetry, self.value(row, sampled));
        }
    }
}

/// What the rows sample rather than own, read once per rendering so
/// that each cache's figures come from one instant.
#[derive(Debug, Default)]
pub(crate) struct Sampled {
    /// The compiled-artifact cache.
    pub(crate) compile: CacheStats,
    /// The result cache.
    pub(crate) result: CacheStats,
    /// On-disk size of the persist log (0 without one).
    pub(crate) log_bytes: u64,
    /// Lifecycles in the flight ring.
    pub(crate) flight_records: u64,
    /// Flight dumps written.
    pub(crate) flight_dumps: u64,
}

/// Where a row's value comes from.
#[derive(Clone, Copy)]
enum Source {
    Own(Counter),
    Sample(fn(&Sampled) -> u64),
}

/// One reported number.
struct Row {
    /// Key in the `stats` response (`""` = not reported there).
    stats: &'static str,
    family: Family,
    /// Value of the family's label key (`""` for an unlabelled family).
    label: &'static str,
    source: Source,
    /// Counter name in the drain-time telemetry export (`""` = not
    /// exported).
    telemetry: &'static str,
}

/// Declares [`Family`] and [`FAMILIES`] from `Variant = "name" kind
/// "label key";` lines in exposition order (`""` = a family of one
/// unlabelled sample).
macro_rules! families {
    ($($family:ident = $name:literal $kind:ident $label:literal;)*) => {
        /// A Prometheus family.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        enum Family {
            $($family,)*
        }

        /// `(family, name, kind, label key)`, in exposition order.
        const FAMILIES: &[(Family, &str, &str, &str)] =
            &[$((Family::$family, $name, stringify!($kind), $label),)*];
    };
}

/// Declares [`ROWS`] from `"stats key", Family, "label value", source;`
/// lines; an exported row names its telemetry counter last.
macro_rules! rows {
    ($($stats:literal, $family:ident, $label:literal, $source:expr $(, $telemetry:literal)?;)*) => {
        /// Every reported number, in `stats` order (the exposition
        /// takes its order from [`FAMILIES`], so rows without a `stats`
        /// key can go anywhere).
        const ROWS: &[Row] = &[$(Row {
            stats: $stats,
            family: Family::$family,
            label: $label,
            source: $source,
            telemetry: concat!($($telemetry)?),
        },)*];
    };
}

families! {
    Requests            = "ltsp_requests_total"              counter "status";
    CacheHits           = "ltsp_cache_hits_total"            counter "cache";
    CacheMisses         = "ltsp_cache_misses_total"          counter "cache";
    CacheEvictions      = "ltsp_cache_evictions_total"       counter "cache";
    CacheEntries        = "ltsp_cache_entries"               gauge   "cache";
    CacheBytes          = "ltsp_cache_bytes"                 gauge   "cache";
    QueueDepth          = "ltsp_queue_depth"                 gauge   "";
    Inflight            = "ltsp_inflight"                    gauge   "";
    Connections         = "ltsp_connections"                 gauge   "";
    ServedInline        = "ltsp_served_inline_total"         counter "";
    ConnectionsShed     = "ltsp_connections_shed_total"      counter "";
    ResponsesShed       = "ltsp_responses_shed_total"        counter "";
    RequestPanics       = "ltsp_request_panics_total"        counter "";
    FaultsInjected      = "ltsp_faults_injected_total"       counter "";
    DispatcherDeaths    = "ltsp_dispatcher_deaths_total"     counter "";
    PersistReplayed     = "ltsp_persist_replayed_records"    gauge   "";
    PersistDropped      = "ltsp_persist_dropped_records"     gauge   "";
    PersistSuperseded   = "ltsp_persist_superseded_records"  gauge   "";
    PersistAppended     = "ltsp_persist_appended_total"      counter "";
    PersistAppendErrors = "ltsp_persist_append_errors_total" counter "";
    PersistLogBytes     = "ltsp_persist_log_bytes"           gauge   "";
    Upgrades            = "ltsp_upgrades_total"              counter "event";
    FlightRecords       = "ltsp_flight_records"              gauge   "";
    FlightDumps         = "ltsp_flight_dumps_total"          counter "";
}

use Counter::*;
use Source::{Own, Sample};

rows! {
    "requests_ok",             Requests,            "ok",         Own(RequestsOk),
        "serve.requests.ok";
    "requests_rejected",       Requests,            "rejected",   Own(RequestsRejected),
        "serve.requests.rejected";
    "requests_error",          Requests,            "error",      Own(RequestsError),
        "serve.requests.error";
    "requests_overloaded",     Requests,            "overloaded", Own(RequestsOverloaded),
        "serve.requests.overloaded";
    "",                        Requests,            "draining",   Own(RequestsDraining);
    "served_inline",           ServedInline,        "",           Own(ServedInline);
    "compile_cache_hits",      CacheHits,           "compile",    Sample(|s| s.compile.hits);
    "compile_cache_misses",    CacheMisses,         "compile",    Sample(|s| s.compile.misses);
    "compile_cache_evictions", CacheEvictions,      "compile",    Sample(|s| s.compile.evictions);
    "compile_cache_entries",   CacheEntries,        "compile",    Sample(|s| s.compile.entries);
    "compile_cache_bytes",     CacheBytes,          "compile",    Sample(|s| s.compile.bytes);
    "result_cache_hits",       CacheHits,           "result",     Sample(|s| s.result.hits);
    "result_cache_misses",     CacheMisses,         "result",     Sample(|s| s.result.misses);
    "result_cache_evictions",  CacheEvictions,      "result",     Sample(|s| s.result.evictions);
    "result_cache_entries",    CacheEntries,        "result",     Sample(|s| s.result.entries);
    "result_cache_bytes",      CacheBytes,          "result",     Sample(|s| s.result.bytes);
    "persist_replayed",        PersistReplayed,     "",           Own(PersistReplayed);
    "persist_dropped",         PersistDropped,      "",           Own(PersistDropped);
    "persist_superseded",      PersistSuperseded,   "",           Own(PersistSuperseded);
    "persist_appended",        PersistAppended,     "",           Own(PersistAppended);
    "persist_append_errors",   PersistAppendErrors, "",           Own(PersistAppendErrors);
    "persist_log_bytes",       PersistLogBytes,     "",           Sample(|s| s.log_bytes);
    "upgrades_scheduled",      Upgrades,            "scheduled",  Own(UpgradesScheduled);
    "upgrades_coalesced",      Upgrades,            "coalesced",  Own(UpgradesCoalesced);
    "upgrades_applied",        Upgrades,            "applied",    Own(UpgradesApplied);
    "upgrades_refined",        Upgrades,            "refined",    Own(UpgradesRefined);
    "upgrades_failed",         Upgrades,            "failed",     Own(UpgradesFailed);
    "",                        QueueDepth,          "",           Own(QueueDepth);
    "",                        Inflight,            "",           Own(Inflight);
    "",                        Connections,         "",           Own(Connections);
    "",                        ConnectionsShed,     "",           Own(ConnectionsShed);
    "",                        ResponsesShed,       "",           Own(ResponsesShed);
    "",                        RequestPanics,       "",           Own(RequestPanics);
    "",                        FaultsInjected,      "",           Own(FaultsInjected);
    "",                        DispatcherDeaths,    "",           Own(DispatcherDeaths);
    "",                        FlightRecords,       "",           Sample(|s| s.flight_records);
    "",                        FlightDumps,         "",           Sample(|s| s.flight_dumps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A row added later cannot silently collide or mistype: names are
    /// unique, kinds follow the `_total` convention, every owned counter
    /// and every family is reported, and what the table renders parses.
    #[test]
    fn the_table_is_consistent_and_renders_a_valid_exposition() {
        let mut names = HashSet::new();
        for &(family, name, kind, _) in FAMILIES {
            assert!(names.insert(name), "{name}: declared twice");
            let want = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            assert_eq!(kind, want, "{name}");
            assert!(ROWS.iter().any(|r| r.family == family), "{name}: no sample");
        }
        let mut stats = HashSet::new();
        let mut samples = HashSet::new();
        let mut owned = HashSet::new();
        for row in ROWS {
            let (_, name, _, label) = FAMILIES[row.family as usize];
            assert!(
                row.stats.is_empty() || stats.insert(row.stats),
                "stats key {} declared twice",
                row.stats
            );
            assert!(
                samples.insert((name, row.label)),
                "{name}{{{label}={:?}}} declared twice",
                row.label
            );
            assert_eq!(label.is_empty(), row.label.is_empty(), "{name}");
            if let Source::Own(c) = row.source {
                assert!(owned.insert(c as usize), "{c:?} reported twice");
            }
        }
        assert_eq!(
            owned.len(),
            Counters::default().0.len(),
            "a counter has no row"
        );

        let counters = Counters::default();
        for i in 0..owned.len() {
            counters.0[i].store(i as u64 + 1, Ordering::Relaxed);
        }
        let mut out = String::new();
        counters.push_prometheus(&Sampled::default(), &mut out);
        let snap = prom::PromSnapshot::parse(&out).expect("exposition parses");
        assert_eq!(
            snap.value("ltsp_upgrades_total", &[("event", "failed")]),
            Some(counters.get(Counter::UpgradesFailed) as f64)
        );
        assert_eq!(snap.value("ltsp_queue_depth", &[]), Some(7.0));
    }
}
