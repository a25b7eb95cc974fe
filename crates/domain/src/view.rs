//! Field view traits, the cell-local views every grid shares, and halo
//! transfer segments.
//!
//! A compute lambda never touches raw storage; it goes through view objects
//! obtained from the [`crate::Loader`]. The traits here are the *common
//! interface* the dense and sparse grids both implement, which is what
//! makes user kernels grid-generic: the same lambda body compiles against
//! either grid's concrete view types (paper §VI-C: "the ease of changing
//! the data structures without changing the computation code").
//!
//! Every trait has two granularities. The per-cell accessors (`at`,
//! `ngh`, `set`) are the paper's interface. The **row accessors** (`row`,
//! `block`, `ngh_row`, `ngh_block` and the `_mut` forms) hand a span
//! kernel one contiguous slice per [`Span`] when the field's layout makes
//! the run contiguous, so the kernel's inner loop is a plain `zip` over
//! slices;
//! they return `None` otherwise and the kernel falls back to
//! `span.cells()`. Row accessors index partition storage as a slice, so
//! the storage bounds check is paid once per row instead of once per
//! element — it is never skipped.

use std::ops::Range;

use neon_set::{Cell, Elem, RawRead, RawWrite, Span};
use neon_sys::DeviceId;

use crate::grid::FieldParts;
use crate::layout::MemLayout;

/// Cell-local read access to a field partition.
pub trait FieldRead<T: Elem> {
    /// Value of component `comp` at `cell`.
    fn at(&self, cell: Cell, comp: usize) -> T;
    /// Number of components.
    fn card(&self) -> usize;
    /// Component `comp` over the cells of `span` as one contiguous slice
    /// (`row[i]` belongs to the span's `i`-th cell), or `None` when the
    /// layout strides the component (AoS with more than one component).
    fn row(&self, span: &Span, comp: usize) -> Option<&[T]> {
        let _ = (span, comp);
        None
    }
    /// All `len·card` elements of the cells of `span` as one contiguous
    /// block, cell-major (`block[i·card + k]` is component `k` of the
    /// `i`-th cell) — what an elementwise kernel needs under AoS. `None`
    /// when components live apart (SoA with more than one component).
    fn block(&self, span: &Span) -> Option<&[T]> {
        let _ = span;
        None
    }
}

/// Neighbourhood read access (stencil pattern).
///
/// Neighbours are addressed by *slot* into the grid's registered stencil
/// offsets. Reads outside the active domain return the field's
/// outside-domain value (paper Listing 1); `ngh_active` distinguishes a
/// real neighbour from the outside default (needed e.g. for bounce-back
/// boundary conditions in LBM).
pub trait FieldStencil<T: Elem>: FieldRead<T> {
    /// Component `comp` of the neighbour at `slot`, or the outside value.
    fn ngh(&self, cell: Cell, slot: usize, comp: usize) -> T;
    /// Whether the neighbour at `slot` is an active cell.
    fn ngh_active(&self, cell: Cell, slot: usize) -> bool;
    /// Number of neighbour slots.
    fn num_slots(&self) -> usize;
    /// Component `comp` of the `slot` neighbours of the cells of `span` as
    /// one contiguous slice (`row[i]` is the neighbour of the `i`-th
    /// cell). Only an [interior](Span::interior) span whose `slot`
    /// neighbours are consecutive in storage has one — always on the dense
    /// grid (a fixed linear distance), on the sparse grid when its
    /// connectivity table says so; `None` otherwise.
    fn ngh_row(&self, span: &Span, slot: usize, comp: usize) -> Option<&[T]> {
        let _ = (span, slot, comp);
        None
    }
    /// [`FieldStencil::ngh_row`] of slots `0..N`, when every one exists.
    #[inline]
    fn ngh_rows<const N: usize>(&self, span: &Span, comp: usize) -> Option<[&[T]; N]>
    where
        Self: Sized,
    {
        all_some(std::array::from_fn(|slot| self.ngh_row(span, slot, comp)))
    }
    /// All components of the `slot` neighbours of the cells of `span` as
    /// one contiguous block, cell-major (`block[i·card + k]` is component
    /// `k` of the neighbour of the `i`-th cell): the
    /// [`FieldRead::block`] form of [`FieldStencil::ngh_row`], for AoS
    /// fields, under the same conditions. `None` otherwise.
    fn ngh_block(&self, span: &Span, slot: usize) -> Option<&[T]> {
        let _ = (span, slot);
        None
    }
    /// [`FieldStencil::ngh_block`] of slots `0..N`, when every one exists.
    #[inline]
    fn ngh_blocks<const N: usize>(&self, span: &Span) -> Option<[&[T]; N]>
    where
        Self: Sized,
    {
        all_some(std::array::from_fn(|slot| self.ngh_block(span, slot)))
    }
}

/// `Some` of all the values when none is missing.
#[inline]
pub(crate) fn all_some<V: Copy + Default, const N: usize>(xs: [Option<V>; N]) -> Option<[V; N]> {
    let mut out = [V::default(); N];
    for (o, x) in out.iter_mut().zip(xs) {
        *o = x?;
    }
    Some(out)
}

/// Cell-local write access (own-compute rule: a kernel may write only the
/// cell it is invoked for; neighbour metadata is read-only).
pub trait FieldWrite<T: Elem> {
    /// Current value (for read-write accesses like AXPY's `y`).
    fn at(&self, cell: Cell, comp: usize) -> T;
    /// Store `v` into component `comp` at `cell`.
    fn set(&self, cell: Cell, comp: usize, v: T);
    /// Number of components.
    fn card(&self) -> usize;
    /// Writable form of [`FieldRead::row`]. Takes `&mut self`: two live
    /// rows of one view would be two `&mut` into one buffer.
    fn row_mut(&mut self, span: &Span, comp: usize) -> Option<&mut [T]> {
        let _ = (span, comp);
        None
    }
    /// Writable form of [`FieldRead::block`].
    fn block_mut(&mut self, span: &Span) -> Option<&mut [T]> {
        let _ = span;
        None
    }
}

/// How a field's `(cell, component)` pairs map to partition storage —
/// resolved once per view, shared by every grid.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Addr {
    card: usize,
    layout: MemLayout,
    /// Cells per component in the partition's storage (the SoA stride).
    stride: usize,
}

impl Addr {
    pub(crate) fn new<T: Elem>(parts: &FieldParts<T>, stride: usize) -> Self {
        Addr {
            card: parts.card,
            layout: parts.layout,
            stride,
        }
    }

    #[inline]
    pub(crate) fn card(&self) -> usize {
        self.card
    }

    #[inline]
    pub(crate) fn index(&self, lin: usize, comp: usize) -> usize {
        self.layout.index(lin, comp, self.stride, self.card)
    }

    /// Storage range of component `comp` over `len` cells from `lin`, when
    /// contiguous.
    #[inline]
    pub(crate) fn row(&self, lin: usize, len: usize, comp: usize) -> Option<Range<usize>> {
        if self.layout == MemLayout::SoA || self.card == 1 {
            let start = self.index(lin, comp);
            Some(start..start + len)
        } else {
            None
        }
    }

    /// Storage range of all components of `len` cells from `lin`, when
    /// contiguous.
    #[inline]
    pub(crate) fn block(&self, lin: usize, len: usize) -> Option<Range<usize>> {
        if self.layout == MemLayout::AoS || self.card == 1 {
            let start = self.index(lin, 0);
            Some(start..start + len * self.card)
        } else {
            None
        }
    }
}

/// Cell-local read view of one partition — the same on every grid, since
/// a cell's storage position depends only on its `lin` and the layout.
pub struct PartRead<T: Elem> {
    raw: RawRead<T>,
    addr: Addr,
}

impl<T: Elem> PartRead<T> {
    pub(crate) fn new(parts: &FieldParts<T>, dev: DeviceId, stride: usize, null: bool) -> Self {
        PartRead {
            raw: if null {
                parts.mem.null_read()
            } else {
                parts.mem.read(dev)
            },
            addr: Addr::new(parts, stride),
        }
    }

    /// Component `comp` of the stored cell `lin` (owned or halo).
    #[inline]
    pub(crate) fn get(&self, lin: usize, comp: usize) -> T {
        self.raw.get(self.addr.index(lin, comp))
    }

    /// Component `comp` of the `len` stored cells from `lin`, if contiguous.
    #[inline]
    pub(crate) fn row_at(&self, lin: usize, len: usize, comp: usize) -> Option<&[T]> {
        let range = self.addr.row(lin, len, comp)?;
        Some(&self.raw.as_slice()[range])
    }

    /// All components of the `len` stored cells from `lin`, if contiguous.
    #[inline]
    pub(crate) fn block_at(&self, lin: usize, len: usize) -> Option<&[T]> {
        let range = self.addr.block(lin, len)?;
        Some(&self.raw.as_slice()[range])
    }
}

impl<T: Elem> FieldRead<T> for PartRead<T> {
    #[inline]
    fn at(&self, cell: Cell, comp: usize) -> T {
        self.get(cell.idx(), comp)
    }
    fn card(&self) -> usize {
        self.addr.card()
    }
    #[inline]
    fn row(&self, span: &Span, comp: usize) -> Option<&[T]> {
        self.row_at(span.first.idx(), span.len(), comp)
    }
    #[inline]
    fn block(&self, span: &Span) -> Option<&[T]> {
        self.block_at(span.first.idx(), span.len())
    }
}

/// `FieldRead` for a stencil view that keeps its partition's [`PartRead`]
/// in a `cells` field: cell-local reads are the same on every grid.
macro_rules! read_through_cells {
    ($view:ident) => {
        impl<T: Elem> FieldRead<T> for $view<T> {
            #[inline]
            fn at(&self, cell: Cell, comp: usize) -> T {
                self.cells.at(cell, comp)
            }
            fn card(&self) -> usize {
                self.cells.card()
            }
            #[inline]
            fn row(&self, span: &Span, comp: usize) -> Option<&[T]> {
                self.cells.row(span, comp)
            }
            #[inline]
            fn block(&self, span: &Span) -> Option<&[T]> {
                self.cells.block(span)
            }
        }
    };
}
pub(crate) use read_through_cells;

/// Write view of one partition — the same on every grid.
pub struct PartWrite<T: Elem> {
    raw: RawWrite<T>,
    addr: Addr,
}

impl<T: Elem> PartWrite<T> {
    pub(crate) fn new(parts: &FieldParts<T>, dev: DeviceId, stride: usize, null: bool) -> Self {
        PartWrite {
            raw: if null {
                parts.mem.null_write()
            } else {
                parts.mem.write(dev)
            },
            addr: Addr::new(parts, stride),
        }
    }
}

impl<T: Elem> FieldWrite<T> for PartWrite<T> {
    #[inline]
    fn at(&self, cell: Cell, comp: usize) -> T {
        self.raw.get(self.addr.index(cell.idx(), comp))
    }
    #[inline]
    fn set(&self, cell: Cell, comp: usize, v: T) {
        self.raw.set(self.addr.index(cell.idx(), comp), v)
    }
    fn card(&self) -> usize {
        self.addr.card()
    }
    #[inline]
    fn row_mut(&mut self, span: &Span, comp: usize) -> Option<&mut [T]> {
        let range = self.addr.row(span.first.idx(), span.len(), comp)?;
        Some(&mut self.raw.as_mut_slice()[range])
    }
    #[inline]
    fn block_mut(&mut self, span: &Span) -> Option<&mut [T]> {
        let range = self.addr.block(span.first.idx(), span.len())?;
        Some(&mut self.raw.as_mut_slice()[range])
    }
}

/// One contiguous element range copied by a halo update.
///
/// Offsets and lengths are in *elements* of the field's scalar type,
/// relative to each partition's local storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloSegment {
    /// Source partition.
    pub src: DeviceId,
    /// Destination partition.
    pub dst: DeviceId,
    /// Element offset in the source partition.
    pub src_off: usize,
    /// Element offset in the destination partition.
    pub dst_off: usize,
    /// Number of elements.
    pub len: usize,
}
