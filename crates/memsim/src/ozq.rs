//! The OzQ: the bounded queue of outstanding memory requests.

/// Models the out-of-order memory-request queue between L1 and L2 on the
/// Itanium 2 ("at least 48 outstanding requests can be active throughout
/// the memory hierarchy without stalling the execution pipeline", paper
/// Sec. 2). Every load, store and prefetch allocates an entry at issue and
/// frees it when the request completes; if the queue is full at issue, the
/// pipeline stalls until an entry retires — the `BE_L1D_FPU_BUBBLE`
/// component of Fig. 10.
#[derive(Debug, Clone)]
pub struct Ozq {
    capacity: usize,
    /// Completion times of outstanding requests (unsorted; small).
    outstanding: Vec<u64>,
    /// Minimum of `outstanding` (`u64::MAX` when empty). Nothing retires
    /// before this time, so [`Ozq::drain`] is O(1) until then.
    earliest: u64,
}

/// Drops the entries of `pending` that complete at or before `now` and
/// returns the earliest completion time left (`u64::MAX` when none is).
pub(crate) fn retire<T>(pending: &mut Vec<T>, now: u64, done: impl Fn(&T) -> u64) -> u64 {
    let mut earliest = u64::MAX;
    pending.retain(|entry| {
        let t = done(entry);
        if t > now {
            earliest = earliest.min(t);
        }
        t > now
    });
    earliest
}

impl Ozq {
    /// Creates an empty queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "OzQ capacity must be positive");
        Ozq {
            capacity: capacity as usize,
            outstanding: Vec::with_capacity(capacity as usize),
            earliest: u64::MAX,
        }
    }

    /// Retires entries that complete at or before `now`.
    pub fn drain(&mut self, now: u64) {
        if now >= self.earliest {
            self.earliest = retire(&mut self.outstanding, now, |&t| t);
        }
    }

    /// Entries held: the occupancy as of the last drain, and an upper
    /// bound on it at any later time.
    pub fn occupancy(&self) -> usize {
        self.outstanding.len()
    }

    /// True when no request could be accepted at `now`.
    pub fn is_full_at(&mut self, now: u64) -> bool {
        self.drain(now);
        self.outstanding.len() >= self.capacity
    }

    /// Allocates an entry for a request issued at `now` completing at
    /// `completion`. Returns the (possibly delayed) issue time: if the
    /// queue is full, issue waits for the earliest retirement.
    pub fn allocate(&mut self, now: u64, completion_latency: u32) -> u64 {
        self.drain(now);
        let mut issue = now;
        if self.outstanding.len() >= self.capacity {
            issue = issue.max(self.earliest);
            self.drain(issue);
        }
        self.push_completion(issue + u64::from(completion_latency));
        issue
    }

    /// Waits (logically) until a slot is free at or after `now`, returning
    /// the cycle at which issue can proceed. Does not allocate.
    pub fn wait_for_slot(&mut self, now: u64) -> u64 {
        self.drain(now);
        if self.outstanding.len() < self.capacity {
            return now;
        }
        let earliest = self.earliest;
        self.drain(earliest);
        earliest
    }

    /// Records an outstanding request completing at `completion`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the queue is already at capacity — call
    /// [`Ozq::wait_for_slot`] first.
    pub fn push_completion(&mut self, completion: u64) {
        debug_assert!(
            self.outstanding.len() < self.capacity,
            "OzQ overflow: wait_for_slot before pushing"
        );
        self.outstanding.push(completion);
        self.earliest = self.earliest.min(completion);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_stalls_until_retirement() {
        let mut q = Ozq::new(2);
        assert_eq!(q.allocate(0, 100), 0);
        assert_eq!(q.allocate(1, 50), 1);
        assert!(q.is_full_at(2));
        // Third request at t=2 must wait for the t=51 retirement.
        assert_eq!(q.allocate(2, 10), 51);
        assert_eq!(q.occupancy(), 2);
    }

    #[test]
    fn drain_retires_completed() {
        let mut q = Ozq::new(4);
        q.allocate(0, 10);
        q.allocate(0, 20);
        q.drain(15);
        assert_eq!(q.occupancy(), 1);
        q.drain(25);
        assert_eq!(q.occupancy(), 0);
    }

    #[test]
    fn no_stall_when_space() {
        let mut q = Ozq::new(48);
        for i in 0..48 {
            assert_eq!(q.allocate(i, 1000), i);
        }
        assert!(q.is_full_at(48));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Ozq::new(0);
    }
}
