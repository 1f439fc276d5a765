//! # ltsp-par — a dependency-free, deterministic scoped work pool
//!
//! The batch layers of this workspace (suite/policy sweeps, figure
//! regeneration, differential fuzzing) are embarrassingly parallel: many
//! independent items, each a pure function of its inputs. This crate runs
//! such batches on a fixed set of scoped worker threads — std only, no
//! external dependencies — under a hard **determinism contract**:
//!
//! - every item carries its index; per-item randomness must be split from
//!   the master seed by that index (never shared between items);
//! - results are merged in **input index order**, so the output of
//!   [`Pool::map`] is byte-for-byte independent of the worker count and of
//!   scheduling luck;
//! - per-item telemetry is recorded into forked buffers and spliced back
//!   in index order ([`Pool::map_traced`]), so one-thread and N-thread
//!   runs produce the same event stream;
//! - a panicking item aborts the whole batch and re-raises the **original
//!   panic payload** on the caller's thread.
//!
//! Work distribution is a chunked work-stealing scheme: the index space is
//! pre-split into one contiguous chunk per worker (owners drain their own
//! chunk front-to-back, preserving locality); an idle worker steals the
//! back half of a victim's remaining queue. Stealing only moves *which
//! thread* computes an item, never what the item computes or where its
//! result lands.
//!
//! ```
//! let pool = ltsp_par::Pool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4, 5], |_idx, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::panic::resume_unwind;
use std::sync::Mutex;
use std::time::Instant;

use ltsp_telemetry::{lock_unpoisoned, Event, Telemetry};

/// The worker count to use when the user does not specify one: the
/// machine's available parallelism (1 if it cannot be determined).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Validates a worker-count string (a `--jobs` flag or the `LTSP_JOBS`
/// environment variable): a positive integer, or a clear one-line
/// rejection — never a panic, never a silent default.
///
/// # Errors
///
/// A human-readable `invalid jobs value …` message naming the offending
/// input and the accepted form.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(0) => Err(format!(
            "invalid jobs value '{s}': must be a positive integer (at least 1)"
        )),
        Ok(j) => Ok(j),
        Err(_) => Err(format!(
            "invalid jobs value '{s}': must be a positive integer (e.g. --jobs 4)"
        )),
    }
}

/// A fixed-size scoped work pool. Threads are spawned per batch (scoped to
/// each [`Pool::map`] call), so a `Pool` is just a worker-count policy and
/// is trivially cheap to construct.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool with `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Pool {
            workers: workers.max(1),
        }
    }

    /// Applies `f` to every item and returns the results **in input
    /// order**, regardless of which worker computed what. `f` receives the
    /// item's index so callers can split per-item PRNG streams from a
    /// master seed.
    ///
    /// # Panics
    ///
    /// If any `f` invocation panics, the batch is abandoned and the first
    /// (lowest-index) captured panic payload is re-raised here.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_worker(items, |idx, item, _worker| f(idx, item))
    }

    /// Like [`Pool::map`], but each item runs against a **forked**
    /// telemetry buffer that is spliced back into `tel` in index order
    /// once the batch completes, followed by one
    /// [`Event::WorkerSpan`] per item recording which worker ran it and
    /// when. Trace *content and order* are therefore identical across
    /// worker counts; only wall-clock timestamps and worker attribution
    /// (both stripped by [`ltsp_telemetry::normalize_trace`]) vary.
    pub fn map_traced<T, R, F>(
        &self,
        tel: &Telemetry,
        pool_label: &str,
        items: &[T],
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&Telemetry, usize, &T) -> R + Sync,
    {
        if !tel.is_enabled() {
            let disabled = Telemetry::disabled();
            return self.map(items, |idx, item| f(&disabled, idx, item));
        }
        let outs = self.map_worker(items, |idx, item, worker| {
            let child = tel.fork();
            let start = Instant::now();
            let result = f(&child, idx, item);
            let dur_us = start.elapsed().as_micros() as u64;
            (result, child, worker, start, dur_us)
        });
        let mut results = Vec::with_capacity(outs.len());
        for (idx, (result, child, worker, start, dur_us)) in outs.into_iter().enumerate() {
            tel.emit(Event::WorkerSpan {
                pool: pool_label.to_string(),
                worker: worker as u64,
                item: idx as u64,
                start_us: tel.us_since_epoch(start),
                dur_us,
            });
            tel.absorb(child, worker as u32);
            results.push(result);
        }
        results
    }

    /// The scheduling core: `f(index, item, worker)` over a chunked
    /// work-stealing index space, results merged in index order.
    fn map_worker<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, usize) -> R + Sync,
    {
        let n = items.len();
        let w = self.workers.min(n);
        if w <= 1 {
            // Inline fast path: no threads for empty, single-item or
            // single-worker batches.
            return items.iter().enumerate().map(|(i, t)| f(i, t, 0)).collect();
        }

        // One contiguous chunk of the index space per worker; owners pop
        // from the front, thieves split off the back half.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..w)
            .map(|k| Mutex::new((n * k / w..n * (k + 1) / w).collect()))
            .collect();

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..w)
                .map(|k| {
                    let deques = &deques;
                    let f = &f;
                    scope.spawn(move || {
                        let mut local: Vec<(usize, R)> = Vec::new();
                        while let Some(i) = pop_or_steal(deques, k) {
                            local.push((i, f(i, &items[i], k)));
                        }
                        local
                    })
                })
                .collect();
            // Join every worker before propagating, so no handle outlives
            // the scope un-reaped and the first panic payload survives.
            let mut panic_payload = None;
            for h in handles {
                match h.join() {
                    Ok(local) => {
                        for (i, r) in local {
                            slots[i] = Some(r);
                        }
                    }
                    Err(payload) => {
                        panic_payload.get_or_insert(payload);
                    }
                }
            }
            if let Some(payload) = panic_payload {
                resume_unwind(payload);
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("work pool completed every item"))
            .collect()
    }
}

/// Pops the front of worker `k`'s own deque, or steals the back half of
/// the first non-empty victim queue (round-robin from `k+1`).
fn pop_or_steal(deques: &[Mutex<VecDeque<usize>>], k: usize) -> Option<usize> {
    if let Some(i) = lock_unpoisoned(&deques[k]).pop_front() {
        return Some(i);
    }
    let w = deques.len();
    for d in 1..w {
        let victim = (k + d) % w;
        let stolen = {
            let mut vq = lock_unpoisoned(&deques[victim]);
            let len = vq.len();
            if len == 0 {
                continue;
            }
            vq.split_off(len - len.div_ceil(2))
        };
        let mut own = lock_unpoisoned(&deques[k]);
        *own = stolen;
        if let Some(i) = own.pop_front() {
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parse_jobs_accepts_positive_and_rejects_the_rest() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs(" 8 "), Ok(8));
        for bad in ["0", "-1", "four", "", "1.5", "1x"] {
            let e = parse_jobs(bad).unwrap_err();
            assert!(
                e.contains(&format!("invalid jobs value '{bad}'")),
                "error names the input: {e}"
            );
            assert!(e.contains("positive integer"), "error says what's accepted");
            assert!(!e.contains('\n'), "one line: {e:?}");
        }
    }

    #[test]
    fn map_preserves_input_order() {
        for workers in [1, 2, 3, 8] {
            let pool = Pool::new(workers);
            let items: Vec<u64> = (0..97).collect();
            let out = pool.map(&items, |idx, &x| {
                assert_eq!(idx as u64, x);
                x * 3 + 1
            });
            assert_eq!(out, items.iter().map(|x| x * 3 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counts: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..64).collect();
        Pool::new(5).map(&items, |_idx, &i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "item {i}");
        }
    }

    #[test]
    fn panic_payload_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let err = std::panic::catch_unwind(|| {
            Pool::new(4).map(&items, |_idx, &x| {
                if x == 7 {
                    panic!("boom at {x}");
                }
                x
            });
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom at 7"), "{msg}");
    }

    #[test]
    fn empty_and_tiny_batches() {
        let pool = Pool::new(8);
        assert_eq!(pool.map(&[] as &[u8], |_, &x| x), Vec::<u8>::new());
        assert_eq!(pool.map(&[42u8], |_, &x| x), vec![42]);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        assert_eq!(Pool::new(0).workers, 1);
        assert!(default_parallelism() >= 1);
    }

    #[test]
    fn map_traced_splices_in_index_order() {
        let tel = Telemetry::enabled();
        let items: Vec<u64> = (0..12).collect();
        let out = Pool::new(4).map_traced(&tel, "test-pool", &items, |child, idx, &x| {
            child.info(format!("item {idx}"));
            child.counter_add("items", 1);
            x + 1
        });
        assert_eq!(out, (1..13).collect::<Vec<u64>>());
        assert_eq!(tel.metrics().counter("items"), 12);
        // Per item, in index order: one worker_span then the item's own
        // events.
        let events = tel.events();
        let mut expect = 0u64;
        for e in &events {
            if let Event::WorkerSpan { item, .. } = &e.event {
                assert_eq!(*item, expect, "worker spans in index order");
                expect += 1;
            }
        }
        assert_eq!(expect, 12);
        let diags: Vec<String> = events
            .iter()
            .filter_map(|e| match &e.event {
                Event::Diagnostic { message, .. } => Some(message.clone()),
                _ => None,
            })
            .collect();
        let sorted: Vec<String> = (0..12).map(|i| format!("item {i}")).collect();
        assert_eq!(diags, sorted, "item events spliced in index order");
    }

    #[test]
    fn map_traced_disabled_forwards_disabled_handles() {
        let tel = Telemetry::disabled();
        let out = Pool::new(3).map_traced(&tel, "p", &[1u8, 2, 3], |child, _i, &x| {
            assert!(!child.is_enabled());
            x
        });
        assert_eq!(out, vec![1, 2, 3]);
        assert!(tel.events().is_empty());
    }
}
