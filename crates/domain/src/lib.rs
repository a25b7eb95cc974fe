//! # neon-domain — the Domain abstraction
//!
//! The third layer of the Neon programming model (paper §IV-C): grids and
//! fields, the domain-specific machinery that completes the multi-GPU
//! *data challenge* — automatic partitioning, data views and halo
//! coherency.
//!
//! * [`DenseGrid`] — every cell of the rectilinear domain is stored.
//! * [`SparseGrid`] — element-sparse: only masked-active cells, with a
//!   connectivity table.
//! * [`BlockSparseGrid`] — sparsity at `B³`-block granularity: per-block
//!   (not per-cell) connectivity at the cost of computing padding cells,
//!   built as the element-sparse grid of its block lattice.
//! * [`Field`] — scalar/vector quantities over a grid, SoA or AoS,
//!   loadable into containers with map/stencil/reduce patterns.
//! * [`Stencil`] — neighbour shapes (7-point, 27-point, D3Q19, D2Q9, …).
//! * [`ops`] — prebuilt BLAS-style containers (AXPY, dot, copy, …) with a
//!   unified interface across grid types.
//!
//! All three grids partition along z into slabs (each device talks to ≤ 2
//! neighbours), classify owned cells into *internal* / *boundary* views
//! based on the registered stencils, and lay boundary cells out
//! contiguously so halo updates are 2 copies per partition (2·cardinality
//! for SoA fields) with no marshaling — all as described in the paper.
//! One halo-pair rule turns each grid's two copies per partition pair
//! into the segments of either layout.

pub mod block;
pub mod dense;
pub mod field;
pub mod grid;
pub mod io;
pub mod layout;
pub mod ops;
pub mod sparse;
pub mod stencil;
pub mod view;

pub use block::{BlockSparseGrid, BlockStencil, BLOCK_NONE};
pub use dense::{DenseGrid, DenseStencil, PartitionStrategy};
pub use field::{Field, FieldHalo, GridExt};
pub use grid::{
    proportional_slab_partition, slab_partition, weighted_slab_partition, Dim3, FieldParts,
    GridLike,
};
pub use layout::MemLayout;
pub use sparse::{SparseGrid, SparseStencil, SPARSE_NONE};
pub use stencil::{
    d2q9_offsets, d3q19_offsets, union_offsets, velocity_components, Offset3, Stencil,
    D2Q9_OFFSETS, D3Q19_OFFSETS,
};
pub use view::{
    span_kernel, Aos, FieldRead, FieldStencil, FieldWrite, HaloSegment, Lanes, LanesMut, PartRead,
    PartWrite, Soa, SpanBody, Stride, Strides,
};

// Re-export the Set-layer vocabulary domain users constantly need.
pub use neon_set::{
    Cell, Container, DataView, KernelFn, Loader, Region, ScalarSet, Span, StorageMode, Sweep,
};
