//! Typed kernel shapes — the monomorphization contract between the
//! Domain layer and the executor.
//!
//! Every container carries an opaque compute lambda; that alone forces
//! the executor through a `dyn Fn` boundary whose per-cell cost dwarfs
//! the arithmetic of BLAS-grade kernels. A [`KernelShape`] names the
//! *algorithmic shape* of the kernel so that:
//!
//! * the Domain layer can register a **span-level** compute lambda
//!   (see `Container::compute_shaped`) — the virtual dispatch happens
//!   once per row run ([`crate::Span`]), and the body loops over the
//!   views' row slices, monomorphized over the grid's concrete view
//!   types;
//! * the compile pipeline can distinguish shaped programs from generic
//!   ones in the plan cache (the shape is folded into the sequence
//!   signature) and reason about access locality per shape;
//! * diagnostics (IR dumps, traces) can label launches by shape.
//!
//! A shape is a *claim about structure*, never about values: a shaped
//! kernel must be bit-identical to the equivalent per-cell `Generic`
//! kernel, which the proptests in `neon-core` enforce across layouts,
//! device counts, OCC levels and fusion settings.

/// The algorithmic shape of a container's compute kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KernelShape {
    /// Opaque per-cell lambda — the always-correct fallback.
    #[default]
    Generic,
    /// `dst[i] ← v`: pure fill, no reads.
    Fill,
    /// `dst[i] ← src[i]`: element copy.
    Copy,
    /// `y[i] ← a·x[i] + y[i]` (constant or launch-time scalar `a`).
    Axpy,
    /// `w[i] ← a·x[i] + b·y[i]`.
    Waxpby,
    /// `dst[i] ← a·dst[i]`.
    Scale,
    /// Dot-product partials accumulated span by span in cell order.
    DotChunk,
    /// 7-point (face-neighbour) stencil application.
    MapStencil7,
}

impl KernelShape {
    /// Short label used in IR dumps and traces.
    pub fn label(self) -> &'static str {
        match self {
            KernelShape::Generic => "generic",
            KernelShape::Fill => "fill",
            KernelShape::Copy => "copy",
            KernelShape::Axpy => "axpy",
            KernelShape::Waxpby => "waxpby",
            KernelShape::Scale => "scale",
            KernelShape::DotChunk => "dot-chunk",
            KernelShape::MapStencil7 => "map-stencil7",
        }
    }

    /// Stable byte for structural signatures (plan-cache keys must
    /// distinguish shaped from generic programs).
    pub fn signature_byte(self) -> u8 {
        match self {
            KernelShape::Generic => 0,
            KernelShape::Fill => 1,
            KernelShape::Copy => 2,
            KernelShape::Axpy => 3,
            KernelShape::Waxpby => 4,
            KernelShape::Scale => 5,
            KernelShape::DotChunk => 6,
            KernelShape::MapStencil7 => 7,
        }
    }
}

impl std::fmt::Display for KernelShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_bytes_are_distinct() {
        let all = [
            KernelShape::Generic,
            KernelShape::Fill,
            KernelShape::Copy,
            KernelShape::Axpy,
            KernelShape::Waxpby,
            KernelShape::Scale,
            KernelShape::DotChunk,
            KernelShape::MapStencil7,
        ];
        let mut labels = std::collections::HashSet::new();
        let mut bytes = std::collections::HashSet::new();
        for s in all {
            assert!(labels.insert(s.label()), "duplicate label {}", s);
            assert!(bytes.insert(s.signature_byte()), "duplicate byte {}", s);
        }
    }

    #[test]
    fn default_is_generic() {
        assert_eq!(KernelShape::default(), KernelShape::Generic);
    }
}
