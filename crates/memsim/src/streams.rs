//! Deterministic address streams derived from IR access patterns.

use std::collections::VecDeque;

use ltsp_ir::{AccessPattern, LoopIr, MemRefId, SplitMix64};

/// How streams behave across loop *entries* (executions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamMode {
    /// Every entry replays the same addresses (small working set revisited
    /// each call — e.g. the h264ref motion-search loop, which stays L1
    /// warm).
    Restart,
    /// Entries keep walking forward (streaming over a large data set).
    Progressive,
}

#[derive(Debug, Clone)]
struct ChaseState {
    /// Node addresses of the last (at most 256) iterations before
    /// `next_iter`, oldest first; pipeline stages read a bounded distance
    /// into the past.
    recent: VecDeque<u64>,
    next_iter: u64,
    addr: u64,
    rng: SplitMix64,
    /// Seed to restore on entry restarts so the walk replays exactly.
    rng_seed: u64,
}

/// Generates the concrete address visited by each memory reference at each
/// source iteration. Deterministic given the seed.
///
/// Data-dependent references use stateless hashing so that a prefetch
/// stream planted `d` iterations ahead produces exactly the future
/// addresses of its demand reference; pointer chases are stateful walks.
#[derive(Debug, Clone)]
pub struct AddressStreams {
    patterns: Vec<AccessPattern>,
    mode: StreamMode,
    seed: u64,
    /// Cumulative iterations completed in earlier entries (progressive
    /// mode offsets streams by this).
    cumulative: u64,
    /// Highest iteration seen this entry (to advance `cumulative`).
    entry_high: u64,
    chases: Vec<Option<ChaseState>>,
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut r = SplitMix64::new(
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F),
    );
    r.next_u64()
}

/// Deterministic per-reference region base for patterns that do not carry
/// one (deref targets), spread far apart so regions never overlap.
fn region_base(refidx: usize) -> u64 {
    0x1000_0000_0000 + (refidx as u64) * 0x1_0000_0000
}

impl AddressStreams {
    /// Builds streams for every memory reference of a loop.
    pub fn new(lp: &LoopIr, mode: StreamMode, seed: u64) -> Self {
        let patterns: Vec<AccessPattern> =
            lp.memrefs().iter().map(|m| m.pattern().clone()).collect();
        let chases = patterns
            .iter()
            .map(|p| {
                if let AccessPattern::PointerChase { base, .. } = p {
                    Some(ChaseState {
                        recent: VecDeque::new(),
                        next_iter: 0,
                        addr: *base,
                        rng: SplitMix64::new(seed ^ 0xC0FF_EE00),
                        rng_seed: seed ^ 0xC0FF_EE00,
                    })
                } else {
                    None
                }
            })
            .collect();
        AddressStreams {
            patterns,
            mode,
            seed,
            cumulative: 0,
            entry_high: 0,
            chases,
        }
    }

    /// Starts a new loop entry. In progressive mode, streams continue past
    /// the iterations consumed so far; in restart mode they replay.
    pub fn begin_entry(&mut self) {
        if self.mode == StreamMode::Progressive {
            self.cumulative += self.entry_high;
        }
        self.entry_high = 0;
        if self.mode == StreamMode::Restart {
            // Chase walks restart from their base.
            for (idx, ch) in self.chases.iter_mut().enumerate() {
                if let Some(c) = ch {
                    if let AccessPattern::PointerChase { base, .. } = &self.patterns[idx] {
                        c.recent.clear();
                        c.next_iter = 0;
                        c.addr = *base;
                        c.rng = SplitMix64::new(c.rng_seed);
                    }
                }
            }
        }
    }

    /// The iteration the streams are indexed by: in progressive mode
    /// entries continue where the last one stopped (`cumulative` stays 0
    /// in restart mode).
    fn global_iter(&self, iter: u64) -> u64 {
        self.cumulative + iter
    }

    fn chase_node_addr(&mut self, refidx: usize, iter: u64) -> u64 {
        let AccessPattern::PointerChase {
            base,
            node_bytes,
            region_bytes,
            locality,
        } = self.patterns[refidx]
        else {
            unreachable!("chase_node_addr on non-chase")
        };
        // In progressive mode the walk continues across entries, so the
        // logical iteration is the global one.
        let iter = self.global_iter(iter);
        let st = self.chases[refidx].as_mut().expect("chase state exists");
        // Advance the walk up to the requested iteration.
        while st.next_iter <= iter {
            let cur = st.addr;
            st.recent.push_back(cur);
            if st.recent.len() > 256 {
                st.recent.pop_front();
            }
            let nodes = (region_bytes / node_bytes).max(1);
            let next = if st.rng.next_f64() < locality {
                base + ((cur - base) / node_bytes + 1) % nodes * node_bytes
            } else {
                base + st.rng.next_below(nodes) * node_bytes
            };
            st.addr = next;
            st.next_iter += 1;
        }
        // `recent` holds the iterations up to `next_iter - 1`, contiguously.
        let oldest = st.next_iter - st.recent.len() as u64;
        let idx = iter
            .checked_sub(oldest)
            .expect("iteration is within the 256 most recent");
        st.recent[idx as usize]
    }

    /// The address reference `memref` touches at source iteration `iter`
    /// of the current entry.
    ///
    /// `lookahead_of` redirects a prefetch stream: pass the *demand*
    /// reference and a distance via [`AddressStreams::address_ahead`]
    /// instead of calling this with a synthetic reference.
    pub fn address(&mut self, memref: MemRefId, iter: u64) -> u64 {
        self.entry_high = self.entry_high.max(iter + 1);
        self.address_inner(memref.index(), iter)
    }

    /// The address `memref` will touch `distance` iterations in the
    /// future — what a software prefetch planted at distance `d` fetches.
    pub fn address_ahead(&mut self, memref: MemRefId, iter: u64, distance: u32) -> u64 {
        self.address_inner(memref.index(), iter + u64::from(distance))
    }

    fn address_inner(&mut self, refidx: usize, iter: u64) -> u64 {
        let g = self.global_iter(iter);
        match self.patterns[refidx] {
            AccessPattern::Affine { base, stride }
            | AccessPattern::SymbolicStride {
                base,
                typical_stride: stride,
            } => (base as i64 + stride * g as i64) as u64,
            AccessPattern::Invariant { addr } => addr,
            AccessPattern::Gather {
                base,
                elem_bytes,
                region_bytes,
                ..
            } => {
                let elems = (region_bytes / u64::from(elem_bytes)).max(1);
                let idx = mix(self.seed, refidx as u64, g) % elems;
                base + idx * u64::from(elem_bytes)
            }
            AccessPattern::Deref {
                pointer,
                offset,
                region_bytes,
            } => match self.patterns[pointer.index()] {
                // A field on the chased node itself: same line
                // neighbourhood as the node address.
                AccessPattern::PointerChase { node_bytes, .. } if offset < node_bytes => {
                    self.chase_node_addr(pointer.index(), iter) + offset
                }
                // A pointer loaded from elsewhere: effectively a random
                // location in the target region.
                _ => {
                    let slots = (region_bytes / 64).max(1);
                    region_base(refidx)
                        + (mix(self.seed, refidx as u64 ^ 0xDEAD, g) % slots) * 64
                        + offset % 64
                }
            },
            AccessPattern::PointerChase { node_bytes, .. } => {
                // The chase load reads the `next` field of the current node.
                self.chase_node_addr(refidx, iter) + node_bytes / 2
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltsp_ir::{DataClass, LoopBuilder};

    fn loop_with_patterns() -> LoopIr {
        let mut b = LoopBuilder::new("pat");
        let a = b.affine_ref("a", DataClass::Int, 0x1000, 8, 8);
        let idx = b.affine_ref("b", DataClass::Int, 0x8000, 4, 4);
        let g = b.gather_ref("a[b[i]]", DataClass::Int, idx, 0x10_0000, 8, 1 << 16);
        let node = b.chase_ref("n", 0x4000_0000, 64, 1 << 20, 0.5);
        let fld = b.deref_ref("n->f", DataClass::Int, node, 8, 1 << 20, 8);
        let far = b.deref_ref("n->arc", DataClass::Int, node, 128, 1 << 22, 8);
        let va = b.load(a);
        let vi = b.load(idx);
        let vg = b.load(g);
        let vn = b.load(node);
        let vf = b.load(fld);
        let vr = b.load(far);
        let s1 = b.add(va, vi);
        let s2 = b.add(vg, vn);
        let s3 = b.add(vf, vr);
        let _ = (s1, s2, s3);
        b.build().unwrap()
    }

    #[test]
    fn affine_walks_by_stride() {
        let lp = loop_with_patterns();
        let mut s = AddressStreams::new(&lp, StreamMode::Progressive, 1);
        assert_eq!(s.address(MemRefId(0), 0), 0x1000);
        assert_eq!(s.address(MemRefId(0), 1), 0x1008);
        assert_eq!(s.address(MemRefId(0), 5), 0x1028);
    }

    #[test]
    fn progressive_mode_continues_across_entries() {
        let lp = loop_with_patterns();
        let mut s = AddressStreams::new(&lp, StreamMode::Progressive, 1);
        s.begin_entry();
        let _ = s.address(MemRefId(0), 9); // 10 iterations worth
        s.begin_entry();
        assert_eq!(s.address(MemRefId(0), 0), 0x1000 + 10 * 8);
    }

    #[test]
    fn restart_mode_replays() {
        let lp = loop_with_patterns();
        let mut s = AddressStreams::new(&lp, StreamMode::Restart, 1);
        s.begin_entry();
        let first = s.address(MemRefId(0), 0);
        let _ = s.address(MemRefId(0), 9);
        s.begin_entry();
        assert_eq!(s.address(MemRefId(0), 0), first);
    }

    #[test]
    fn gather_is_deterministic_and_in_region() {
        let lp = loop_with_patterns();
        let mut s1 = AddressStreams::new(&lp, StreamMode::Progressive, 7);
        let mut s2 = AddressStreams::new(&lp, StreamMode::Progressive, 7);
        for i in 0..100 {
            let a = s1.address(MemRefId(2), i);
            assert_eq!(a, s2.address(MemRefId(2), i));
            assert!((0x10_0000..0x10_0000 + (1 << 16)).contains(&a));
        }
    }

    #[test]
    fn prefetch_lookahead_matches_future_demand() {
        let lp = loop_with_patterns();
        let mut s = AddressStreams::new(&lp, StreamMode::Progressive, 3);
        let ahead = s.address_ahead(MemRefId(2), 10, 5);
        let demand = s.address(MemRefId(2), 15);
        assert_eq!(ahead, demand, "prefetch targets the future address");
    }

    #[test]
    fn chase_field_shares_node_line() {
        let lp = loop_with_patterns();
        let mut s = AddressStreams::new(&lp, StreamMode::Progressive, 3);
        // The chase load and the on-node field at the same iteration
        // differ only by their field offsets.
        let chase = s.address(MemRefId(3), 4);
        let field = s.address(MemRefId(4), 4);
        assert_eq!(chase - 32, field - 8, "same node address");
    }

    #[test]
    fn chase_addresses_stay_in_region() {
        let lp = loop_with_patterns();
        let mut s = AddressStreams::new(&lp, StreamMode::Progressive, 3);
        for i in 0..1000 {
            let a = s.address(MemRefId(3), i);
            assert!((0x4000_0000..0x4000_0000 + (1 << 20) + 64).contains(&a));
        }
    }

    #[test]
    fn chase_tolerates_lagging_stage_reads() {
        let lp = loop_with_patterns();
        let mut s = AddressStreams::new(&lp, StreamMode::Progressive, 3);
        // A later-stage field read asks for an older iteration than the
        // chase has advanced to.
        let _ = s.address(MemRefId(3), 20);
        let old_field = s.address(MemRefId(4), 15);
        let chase_at_15 = s.address(MemRefId(3), 15);
        assert_eq!(chase_at_15 - 32, old_field - 8);
    }

    #[test]
    fn far_deref_is_outside_node_region() {
        let lp = loop_with_patterns();
        let mut s = AddressStreams::new(&lp, StreamMode::Progressive, 3);
        let a = s.address(MemRefId(5), 0);
        assert!(a >= 0x1000_0000_0000, "separate region for far derefs");
    }
}
