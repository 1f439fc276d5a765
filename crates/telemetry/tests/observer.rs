//! `Observer::time`, the one place a compile phase is timed: one clock
//! reading feeds both the phase timer and the trace, and the disabled
//! observer costs the compile path a branch — it allocates nothing (no
//! span name is formatted, no record is kept). Allocations are counted by
//! a global allocator that tallies the current thread's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ltsp_telemetry::{Observer, Phase, PhaseTimer, Telemetry};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tally is a const-initialised
// thread-local `Cell`, whose access neither allocates nor re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn observer_time_books_one_reading_twice() {
    let (tel, t) = (Telemetry::enabled(), PhaseTimer::new());
    let obs = Observer::new(&tel, Some(&t));
    for _ in 0..3 {
        let v = obs.time(Phase::Sched, "l", || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            3
        });
        assert_eq!(v, 3);
    }
    let spans = tel.spans();
    assert_eq!(spans.len(), 3);
    assert!(spans.iter().all(|s| s.name == "sched:l"));
    let traced: u64 = spans.iter().map(|s| s.dur_us).sum();
    assert_eq!(traced, t.get_us(Phase::Sched));
    assert!(traced >= 3_000);
    // A timer alone records no span; a sink alone still traces.
    Observer::new(&Telemetry::disabled(), Some(&t)).time(Phase::Hlo, "l", || ());
    Observer::new(&tel, None).time(Phase::Hlo, "l", || ());
    assert_eq!(tel.spans().len(), 4);
}

#[test]
fn timing_on_the_disabled_observer_allocates_nothing() {
    let obs = Observer::disabled();
    let scope = String::from("saxpy");
    let phases = [
        Phase::Hlo,
        Phase::Ddg,
        Phase::Mrt,
        Phase::Sched,
        Phase::Regalloc,
    ];
    let before = allocations();
    let mut sum = 0u64;
    for (i, phase) in phases.into_iter().cycle().take(10_000).enumerate() {
        sum += obs.time(phase, &scope, || i as u64);
    }
    assert_eq!(allocations(), before, "the disabled observer allocated");
    assert_eq!(sum, 10_000 * 9_999 / 2);

    // The counter sees what an enabled sink does: a span name per call.
    let tel = Telemetry::enabled();
    let before = allocations();
    Observer::new(&tel, None).time(Phase::Sched, &scope, || ());
    assert!(allocations() > before, "the allocator does not count");
}
