//! Memory layouts for vector fields.
//!
//! The layout lives at the Set layer (rather than in `neon-domain`)
//! because it is a *policy*, not a grid property: apps pick it per field
//! at allocation time from the field's access pattern
//! (`neon_core::recommend_layout`). The field views in `neon-domain` turn it into
//! strides once per view — element `(i, q)` of a run sits `i·cell +
//! q·comp` past the first, `(card, 1)` under AoS and `(1, pitch)` under
//! SoA — and address partition storage through those.

/// How a cardinality-`n` field organizes its components in memory.
///
/// The choice is transparent to user code (paper §IV-C2) but changes the
/// halo-exchange structure: SoA needs `2n` transfers per partition pair,
/// AoS needs 2 — asserted in the dense, element-sparse and block-sparse
/// grid tests of `neon-domain`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemLayout {
    /// Structure-of-Arrays: all cells of component 0, then component 1, …
    #[default]
    SoA,
    /// Array-of-Structures: all components of cell 0, then cell 1, …
    AoS,
}

impl MemLayout {
    /// Halo transfers one partition pair needs for a cardinality-`card`
    /// field in this layout: component planes are contiguous under AoS
    /// (2 copies) but strided under SoA (2 per component).
    pub fn halo_transfers_per_pair(self, card: usize) -> usize {
        match self {
            MemLayout::SoA => 2 * card,
            MemLayout::AoS => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halo_transfer_counts() {
        assert_eq!(MemLayout::SoA.halo_transfers_per_pair(1), 2);
        assert_eq!(MemLayout::SoA.halo_transfers_per_pair(3), 6);
        assert_eq!(MemLayout::AoS.halo_transfers_per_pair(3), 2);
    }
}
