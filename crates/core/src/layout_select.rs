//! Memory layout as a policy.
//!
//! The paper's §IV-C2 promises layout transparency — user kernels index
//! fields through an abstract `(cell, component)` interface, so SoA vs
//! AoS is free to vary per field. [`recommend_layout`] turns a
//! [`LayoutPolicy`] and a field's access pattern into a [`MemLayout`] and
//! the reason for it.
//!
//! Fields are allocated before the skeleton compiles, so the choice is
//! made at allocation time: apps consult [`recommend_layout`] with the
//! skeleton's [`crate::SkeletonOptions::layout`]. The compiled plan does
//! not depend on it — a rebind recomputes the halo descriptors from the
//! instance's own fields — so SoA and AoS instances share one plan.
//!
//! The heuristic mirrors the halo-transfer arithmetic asserted by the
//! grid tests (`MemLayout::halo_transfers_per_pair`):
//!
//! * cardinality 1 — SoA and AoS coincide; SoA (the default) wins.
//! * cardinality > 1 and stencil-read with a live halo — AoS: halo planes
//!   are contiguous, 2 transfers per partition pair instead of `2·card`.
//! * cardinality > 1, map-only — SoA: component sweeps stay contiguous
//!   and vectorizable, and no halo traffic exists to amortize.

use neon_set::MemLayout;

/// How apps choose field layouts at allocation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LayoutPolicy {
    /// Recommend per field from the access pattern (the heuristic above).
    #[default]
    Auto,
    /// Recommend SoA for every field.
    FixedSoA,
    /// Recommend AoS for every field.
    FixedAoS,
}

/// The access summary [`recommend_layout`] decides from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessSummary {
    /// Field cardinality (components per cell).
    pub card: usize,
    /// Whether any access stencil-reads the object.
    pub stencil: bool,
    /// Whether a halo exchange with at least one transfer is attached.
    pub live_halo: bool,
}

/// The layout the policy recommends for one data object.
pub fn recommend_layout(policy: LayoutPolicy, s: AccessSummary) -> (MemLayout, &'static str) {
    match policy {
        LayoutPolicy::FixedSoA => (MemLayout::SoA, "policy=fixed-soa"),
        LayoutPolicy::FixedAoS => (MemLayout::AoS, "policy=fixed-aos"),
        LayoutPolicy::Auto => {
            if s.card <= 1 {
                (MemLayout::SoA, "scalar: layouts coincide")
            } else if s.stencil || s.live_halo {
                (MemLayout::AoS, "vector stencil: 2 halo transfers, not 2n")
            } else {
                (MemLayout::SoA, "vector map: contiguous component sweeps")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policies_override_everything() {
        let s = AccessSummary {
            card: 3,
            stencil: true,
            live_halo: true,
        };
        assert_eq!(
            recommend_layout(LayoutPolicy::FixedSoA, s).0,
            MemLayout::SoA
        );
        assert_eq!(
            recommend_layout(LayoutPolicy::FixedAoS, s).0,
            MemLayout::AoS
        );
    }

    #[test]
    fn auto_scalar_prefers_soa() {
        let (l, _) = recommend_layout(
            LayoutPolicy::Auto,
            AccessSummary {
                card: 1,
                stencil: true,
                live_halo: true,
            },
        );
        assert_eq!(l, MemLayout::SoA);
    }

    #[test]
    fn auto_vector_stencil_prefers_aos() {
        let (l, _) = recommend_layout(
            LayoutPolicy::Auto,
            AccessSummary {
                card: 19,
                stencil: true,
                live_halo: true,
            },
        );
        assert_eq!(l, MemLayout::AoS);
    }

    #[test]
    fn auto_vector_map_prefers_soa() {
        let (l, _) = recommend_layout(
            LayoutPolicy::Auto,
            AccessSummary {
                card: 3,
                stencil: false,
                live_halo: false,
            },
        );
        assert_eq!(l, MemLayout::SoA);
    }
}
