//! Memory-reference descriptors.
//!
//! Every load, store and prefetch instruction in a [`crate::LoopIr`] points
//! at a [`MemoryRef`] that describes *how* the reference walks memory across
//! source-loop iterations. The high-level optimizer (HLO) reads the access
//! pattern to decide prefetchability and to attach expected-latency hints;
//! the execution simulator reads it to produce the concrete address stream.

use std::fmt;

/// Whether a reference moves integer or floating-point data.
///
/// The distinction matters twice in the reproduced paper: FP loads bypass
/// the L1D cache on Itanium 2 (so their base latency is the L2 latency plus
/// one conversion cycle), and the HLO hint level differs (L2 hints for
/// integer loads, L3 hints for FP loads — one level below the highest cache
/// level each can hit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataClass {
    /// Integer or pointer data (may hit in L1D).
    Int,
    /// Floating-point data (bypasses L1D).
    Fp,
}

impl fmt::Display for DataClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataClass::Int => write!(f, "int"),
            DataClass::Fp => write!(f, "fp"),
        }
    }
}

/// A level of the data-cache hierarchy (plus main memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// First-level data cache.
    L1,
    /// Second-level cache.
    L2,
    /// Third-level cache.
    L3,
    /// Main memory (a miss in every cache).
    Memory,
}

impl CacheLevel {
    /// All levels ordered from closest to farthest.
    pub const ALL: [CacheLevel; 4] = [
        CacheLevel::L1,
        CacheLevel::L2,
        CacheLevel::L3,
        CacheLevel::Memory,
    ];
}

impl fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheLevel::L1 => write!(f, "L1"),
            CacheLevel::L2 => write!(f, "L2"),
            CacheLevel::L3 => write!(f, "L3"),
            CacheLevel::Memory => write!(f, "MEM"),
        }
    }
}

/// An expected-latency hint attached to a load by the HLO prefetcher.
///
/// Per Sec. 3.3 of the paper, the hint names a cache level but is translated
/// by the machine model into the *typical* (not best-case) latency of that
/// level, providing headroom for dynamic hazards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LatencyHint {
    /// Expect the load to be served from L2 (typical latency).
    L2,
    /// Expect the load to be served from L3 (typical latency).
    L3,
}

impl LatencyHint {
    /// The cache level the hint refers to.
    pub fn level(self) -> CacheLevel {
        match self {
            LatencyHint::L2 => CacheLevel::L2,
            LatencyHint::L3 => CacheLevel::L3,
        }
    }
}

impl fmt::Display for LatencyHint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.level())
    }
}

/// Identifier of a [`MemoryRef`] within one loop (dense index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemRefId(pub u32);

impl MemRefId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MemRefId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// How a memory reference's address evolves across source iterations.
///
/// The variants cover the access classes the paper's HLO heuristics
/// distinguish (Sec. 3.2): plain strided streams, symbolic strides (2a),
/// indirect `a[b[i]]` gathers (2b), pointer chases that defeat prefetching
/// entirely (heuristic 1, the 429.mcf case of Sec. 4.4), field loads off a
/// chased pointer, and loop-invariant addresses.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPattern {
    /// `base + i * stride` with a compile-time-known stride.
    Affine {
        /// Address at iteration zero.
        base: u64,
        /// Byte stride per source iteration.
        stride: i64,
    },
    /// Strided access whose stride is a runtime symbol; `typical_stride` is
    /// what the simulator uses, but the compiler must not rely on it.
    SymbolicStride {
        /// Address at iteration zero.
        base: u64,
        /// Stride actually used when generating the address stream.
        typical_stride: i64,
    },
    /// `a[b[i]]`: the address is computed from the value loaded by the
    /// `index` reference. `region_bytes` bounds the gather footprint.
    Gather {
        /// The reference producing the index values.
        index: MemRefId,
        /// Base address of the gathered array.
        base: u64,
        /// Element size in bytes.
        elem_bytes: u32,
        /// Footprint of the gathered region.
        region_bytes: u64,
    },
    /// `p->field` where `p` is the value loaded by another reference.
    Deref {
        /// The reference producing the pointer values.
        pointer: MemRefId,
        /// Field offset added to the loaded pointer.
        offset: u64,
        /// Footprint of the pointed-to region.
        region_bytes: u64,
    },
    /// `node = node->next`: the loaded value *is* the next address. This is
    /// a loop-carried recurrence through memory; it cannot be prefetched.
    PointerChase {
        /// Start of the region the chase walks.
        base: u64,
        /// Size of one node.
        node_bytes: u64,
        /// Footprint of the walked region.
        region_bytes: u64,
        /// Fraction (0..=1) of chase steps that stay within the current
        /// cache line's neighbourhood; models allocation-order locality.
        locality: f64,
    },
    /// The same address every iteration (scalar kept in memory).
    Invariant {
        /// The invariant address.
        addr: u64,
    },
}

impl AccessPattern {
    /// The reference this pattern's addresses are computed from, if any.
    pub(crate) fn address_source(&self) -> Option<MemRefId> {
        match self {
            AccessPattern::Gather { index, .. } => Some(*index),
            AccessPattern::Deref { pointer, .. } => Some(*pointer),
            _ => None,
        }
    }

    /// The size field, as the text format spells it, that is zero where
    /// the address stream divides by it: a gather's `elem` or a chase's
    /// `node`.
    pub(crate) fn zero_size(&self) -> Option<&'static str> {
        match self {
            AccessPattern::Gather { elem_bytes: 0, .. } => Some("elem"),
            AccessPattern::PointerChase { node_bytes: 0, .. } => Some("node"),
            _ => None,
        }
    }

    /// Short classification label used in dumps and reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            AccessPattern::Affine { .. } => "affine",
            AccessPattern::SymbolicStride { .. } => "symbolic",
            AccessPattern::Gather { .. } => "gather",
            AccessPattern::Deref { .. } => "deref",
            AccessPattern::PointerChase { .. } => "chase",
            AccessPattern::Invariant { .. } => "invariant",
        }
    }
}

/// A software-prefetch decision for one reference, produced by the HLO
/// prefetcher (Sec. 3.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchPlan {
    /// Number of source iterations ahead the prefetch runs (`Lat / II_est`,
    /// possibly clamped).
    pub distance: u32,
    /// Cache level the prefetch brings the line into. L2-only prefetching
    /// is chosen under OzQ pressure (heuristic 3).
    pub target: CacheLevel,
    /// True when the computed "optimal" distance was reduced (heuristics
    /// 2a/2b) — these loads get latency hints because more latency stays
    /// exposed.
    pub distance_reduced: bool,
}

/// One memory reference of a loop: access pattern plus HLO annotations.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryRef {
    name: String,
    data: DataClass,
    pattern: AccessPattern,
    access_bytes: u32,
    hint: Option<LatencyHint>,
    prefetch: Option<PrefetchPlan>,
}

impl MemoryRef {
    /// Creates a reference with no HLO annotations.
    pub fn new(
        name: impl Into<String>,
        data: DataClass,
        pattern: AccessPattern,
        access_bytes: u32,
    ) -> Self {
        MemoryRef {
            name: name.into(),
            data,
            pattern,
            access_bytes,
            hint: None,
            prefetch: None,
        }
    }

    /// Human-readable name (e.g. the source expression).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Integer or floating-point data.
    pub fn data_class(&self) -> DataClass {
        self.data
    }

    /// The access pattern.
    pub fn pattern(&self) -> &AccessPattern {
        &self.pattern
    }

    /// The expected-latency hint, if the HLO set one.
    pub fn hint(&self) -> Option<LatencyHint> {
        self.hint
    }

    /// Attaches (or clears) an expected-latency hint.
    pub fn set_hint(&mut self, hint: Option<LatencyHint>) {
        self.hint = hint;
    }

    /// The prefetch plan, if the HLO emitted one for this reference.
    pub fn prefetch(&self) -> Option<PrefetchPlan> {
        self.prefetch
    }

    /// Attaches (or clears) a prefetch plan.
    pub fn set_prefetch(&mut self, plan: Option<PrefetchPlan>) {
        self.prefetch = plan;
    }
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPattern::Affine { base, stride } => {
                write!(f, "affine(base={base:#x}, stride={stride})")
            }
            AccessPattern::SymbolicStride {
                base,
                typical_stride,
            } => write!(f, "symbolic(base={base:#x}, stride~{typical_stride})"),
            AccessPattern::Gather {
                index,
                base,
                elem_bytes,
                region_bytes,
            } => write!(
                f,
                "gather(index={index}, base={base:#x}, elem={elem_bytes}, region={region_bytes})"
            ),
            AccessPattern::Deref {
                pointer,
                offset,
                region_bytes,
            } => write!(f, "deref(ptr={pointer}, off={offset}, region={region_bytes})"),
            AccessPattern::PointerChase {
                base,
                node_bytes,
                region_bytes,
                locality,
            } => write!(
                f,
                "chase(base={base:#x}, node={node_bytes}, region={region_bytes}, locality={locality})"
            ),
            AccessPattern::Invariant { addr } => write!(f, "invariant(addr={addr:#x})"),
        }
    }
}

impl fmt::Display for MemoryRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "\"{}\" [{} {} {}B",
            self.name, self.data, self.pattern, self.access_bytes
        )?;
        if let Some(h) = self.hint {
            write!(f, " hint={h}")?;
        }
        if let Some(p) = self.prefetch {
            write!(
                f,
                " pf(d={},{}{})",
                p.distance,
                p.target,
                if p.distance_reduced { ",reduced" } else { "" }
            )?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_dependence_classification() {
        let affine = AccessPattern::Affine { base: 0, stride: 8 };
        assert_eq!(affine.address_source(), None);

        let gather = AccessPattern::Gather {
            index: MemRefId(0),
            base: 0x1000,
            elem_bytes: 8,
            region_bytes: 1 << 20,
        };
        assert_eq!(gather.address_source(), Some(MemRefId(0)));

        let chase = AccessPattern::PointerChase {
            base: 0,
            node_bytes: 64,
            region_bytes: 1 << 22,
            locality: 0.1,
        };
        assert_eq!(chase.address_source(), None, "chase feeds itself");
    }

    #[test]
    fn display_includes_annotations() {
        let mut r = MemoryRef::new(
            "a[b[i]]",
            DataClass::Int,
            AccessPattern::Affine { base: 0, stride: 4 },
            4,
        );
        r.set_hint(Some(LatencyHint::L2));
        r.set_prefetch(Some(PrefetchPlan {
            distance: 8,
            target: CacheLevel::L2,
            distance_reduced: true,
        }));
        let s = r.to_string();
        assert!(s.contains("hint=L2"), "{s}");
        assert!(s.contains("pf(d=8,L2,reduced)"), "{s}");
        assert!(s.contains("affine(base=0x0, stride=4)"), "{s}");
    }

    #[test]
    fn hint_levels() {
        assert_eq!(LatencyHint::L2.level(), CacheLevel::L2);
        assert_eq!(LatencyHint::L3.level(), CacheLevel::L3);
        assert!(CacheLevel::L1 < CacheLevel::Memory);
    }
}
