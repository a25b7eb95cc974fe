//! Memory layouts for vector fields.
//!
//! The layout lives at the Set layer (rather than in `neon-domain`)
//! because it is a *policy*, not a grid property: the compile pipeline's
//! `layout-select` pass recommends a layout per data object from its
//! recorded access pattern. Field views address partition storage through
//! [`MemLayout::index`]: per element on the per-cell path, once per span
//! on the row path (under SoA a component's row is contiguous, under AoS
//! a span's whole block is).

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
    /// Element index of `(cell, comp)` given the per-component stride
    /// (total cells in the partition's storage) and cardinality.
    #[inline]
    pub fn index(self, cell: usize, comp: usize, stride: usize, card: usize) -> usize {
        match self {
            MemLayout::SoA => comp * stride + cell,
            MemLayout::AoS => cell * card + comp,
        }
    }

    /// Short label used in IR dumps and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            MemLayout::SoA => "soa",
            MemLayout::AoS => "aos",
        }
    }

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
    fn soa_strides_by_component() {
        assert_eq!(MemLayout::SoA.index(5, 0, 100, 3), 5);
        assert_eq!(MemLayout::SoA.index(5, 2, 100, 3), 205);
    }

    #[test]
    fn aos_interleaves() {
        assert_eq!(MemLayout::AoS.index(5, 0, 100, 3), 15);
        assert_eq!(MemLayout::AoS.index(5, 2, 100, 3), 17);
    }

    #[test]
    fn scalar_fields_agree() {
        for cell in 0..10 {
            assert_eq!(
                MemLayout::SoA.index(cell, 0, 64, 1),
                MemLayout::AoS.index(cell, 0, 64, 1)
            );
        }
    }

    #[test]
    fn halo_transfer_counts() {
        assert_eq!(MemLayout::SoA.halo_transfers_per_pair(1), 2);
        assert_eq!(MemLayout::SoA.halo_transfers_per_pair(3), 6);
        assert_eq!(MemLayout::AoS.halo_transfers_per_pair(3), 2);
    }
}
