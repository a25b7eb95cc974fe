//! Field view traits, the views every grid shares, the strided lanes span
//! kernels work on, and halo transfer segments.
//!
//! A compute lambda never touches raw storage; it goes through view objects
//! obtained from the [`crate::Loader`]. The traits here are the *common
//! interface* the dense and sparse grids both implement, which is what
//! makes user kernels grid-generic: the same lambda body compiles against
//! either grid's concrete view types (paper §VI-C: "the ease of changing
//! the data structures without changing the computation code").
//!
//! Every trait has two granularities. The per-cell accessors (`at`,
//! `ngh`, `set`) are the paper's interface. The **lanes** accessors
//! (`lanes`, `ngh_lanes`, `lanes_mut`) hand a span kernel every component
//! of a [`Span`]'s cells as one strided slice: element `(i, q)`, component
//! `q` of the span's `i`-th cell, sits `i·cell + q·comp` past the first,
//! which is `(card, 1)` under AoS and `(1, pitch)` under SoA.
//!
//! The layout is therefore a stride, not a code path. A span kernel is a
//! [`SpanBody`], written once and generic over a [`Stride`] type, and
//! [`span_kernel`] picks that type once per launch from its operands:
//! [`Soa`] or [`Aos`], whose cell strides are compile-time constants so
//! the inner loop indexes as tightly as a loop written for that layout, or
//! the run-time [`Strides`] when the operands' layouts differ. A kernel
//! reads single elements with `get`, and works on whole cells through
//! [`LanesMut::for_each_cell`], whose loop the stride type runs: [`Aos`]
//! hands over the stored cell as a `&mut [T; C]`, [`Soa`] one row per
//! component hoisted out of the loop. A body that needs no cell structure,
//! like an elementwise BLAS operation, takes [`Lanes::runs`] instead: the
//! lanes as contiguous runs, which line up across operands of one layout.
//! Lanes are cut from partition storage as one slice per span, so the
//! storage bounds check is paid once per run, and never skipped.

use std::array::from_fn;
use std::ops::Range;

use neon_set::{Cell, Elem, KernelFn, RawRead, RawWrite, Span, StorageMode};
use neon_sys::DeviceId;

use crate::grid::{FieldParts, GridLike};
use crate::layout::MemLayout;

/// Cell-local read access to a field partition.
pub trait FieldRead<T: Elem> {
    /// Value of component `comp` at `cell`.
    fn at(&self, cell: Cell, comp: usize) -> T;
    /// How the field's elements sit in storage.
    fn strides(&self) -> Strides;
    /// Number of components.
    fn card(&self) -> usize {
        self.strides().card
    }
    /// Every component of the cells of `span` (`(i, q)` is component `q`
    /// of the span's `i`-th cell). Panics when `S` is not the field's
    /// stride.
    fn lanes<S: Stride>(&self, span: &Span) -> Lanes<'_, T, S>;
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
    /// Every component of the `slot` neighbours of the cells of `span`
    /// (`(i, q)` is component `q` of the neighbour of the `i`-th cell).
    /// Only an [interior](Span::interior) span whose `slot` neighbours are
    /// consecutive in storage has them: always on the dense grid (a fixed
    /// linear distance), on the sparse grid when its connectivity table
    /// says so; `None` otherwise.
    fn ngh_lanes<S: Stride>(&self, span: &Span, slot: usize) -> Option<Lanes<'_, T, S>> {
        let _ = (span, slot);
        None
    }
}

/// Cell-local write access (own-compute rule: a kernel may write only the
/// cell it is invoked for; neighbour metadata is read-only).
pub trait FieldWrite<T: Elem> {
    /// Current value (for read-write accesses like AXPY's `y`).
    fn at(&self, cell: Cell, comp: usize) -> T;
    /// Store `v` into component `comp` at `cell`.
    fn set(&self, cell: Cell, comp: usize, v: T);
    /// How the field's elements sit in storage.
    fn strides(&self) -> Strides;
    /// Number of components.
    fn card(&self) -> usize {
        self.strides().card
    }
    /// Writable form of [`FieldRead::lanes`]. Takes `&mut self`: two live
    /// lanes of one view would be two `&mut` into one buffer.
    fn lanes_mut<S: Stride>(&mut self, span: &Span) -> LanesMut<'_, T, S>;
}

/// Where a field's elements sit: `card` components per cell, element
/// `(i, q)` of a run `i·cell + q·comp` past the run's first element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strides {
    card: usize,
    cell: usize,
    comp: usize,
}

impl Strides {
    /// The strides of a `card`-component field in `layout` whose partition
    /// stores `pitch` cells — the one place element addressing reads the
    /// layout.
    pub(crate) fn new(layout: MemLayout, card: usize, pitch: usize) -> Self {
        let (cell, comp) = match layout {
            MemLayout::AoS => (card, 1),
            MemLayout::SoA => (1, pitch),
        };
        Strides { card, cell, comp }
    }

    /// Components per cell.
    pub(crate) fn card(self) -> usize {
        self.card
    }
}

/// A lanes stride as a type: what [`SpanBody::span`] is generic over.
pub trait Stride: Copy + 'static {
    /// This type's form of `s`. Panics when `s` is not one of its strides.
    fn of(s: Strides) -> Self;
    /// The strides as values: compile-time constants but for the pitch.
    fn strides(self) -> Strides;

    /// Position of element `(i, q)`.
    #[inline(always)]
    fn at(self, i: usize, q: usize) -> usize {
        let s = self.strides();
        i * s.cell + q * s.comp
    }

    /// `f(i, cell, inputs)` for every cell `i` of a run of `len` cells, in
    /// order: `cell` is components `0..C` of cell `i` of the lanes `out`
    /// (what `f` leaves there is stored), `inputs` the same cell of each
    /// lanes in `ins`, which carry their own strides. The default gathers
    /// and scatters element by element; [`Aos`] and [`Soa`] hoist their
    /// cells or rows out of the loop, so its body indexes them without a
    /// bounds check.
    #[inline(always)]
    fn for_each_cell<T: Copy, const C: usize, const K: usize>(
        self,
        len: usize,
        out: &mut [T],
        ins: [(&[T], Self); K],
        mut f: impl FnMut(usize, &mut [T; C], [[T; C]; K]),
    ) {
        for i in 0..len {
            let cell = |d: &[T], s: Self| from_fn(|q| d[s.at(i, q)]);
            let mut v = cell(&*out, self);
            f(i, &mut v, from_fn(|k| cell(ins[k].0, ins[k].1)));
            for (q, v) in v.into_iter().enumerate() {
                out[self.at(i, q)] = v;
            }
        }
    }
}

impl Stride for Strides {
    #[inline(always)]
    fn of(s: Strides) -> Self {
        s
    }
    #[inline(always)]
    fn strides(self) -> Strides {
        self
    }
}

/// The AoS stride of a `C`-component field: a cell's components are
/// adjacent, so a cell is one `[T; C]` in place.
#[derive(Debug, Clone, Copy)]
pub struct Aos<const C: usize>;

impl<const C: usize> Stride for Aos<C> {
    #[inline(always)]
    fn of(s: Strides) -> Self {
        assert_eq!(s, Aos::<C>.strides(), "not an AoS stride");
        Aos
    }
    #[inline(always)]
    fn strides(self) -> Strides {
        Strides {
            card: C,
            cell: C,
            comp: 1,
        }
    }
    #[inline(always)]
    fn for_each_cell<T: Copy, const N: usize, const K: usize>(
        self,
        len: usize,
        out: &mut [T],
        ins: [(&[T], Self); K],
        mut f: impl FnMut(usize, &mut [T; N], [[T; N]; K]),
    ) {
        const { assert!(N == C, "a cell of an AoS stride has C components") };
        let out = &mut out.as_chunks_mut::<N>().0[..len];
        let ins = ins.map(|(d, _)| &d.as_chunks::<N>().0[..len]);
        for (i, o) in out.iter_mut().enumerate() {
            f(i, o, from_fn(|k| ins[k][i]));
        }
    }
}

/// The SoA stride of a `C`-component field: cells are adjacent, and
/// components lie `pitch` (the partition's stored cells) apart.
#[derive(Debug, Clone, Copy)]
pub struct Soa<const C: usize> {
    pitch: usize,
}

impl<const C: usize> Stride for Soa<C> {
    #[inline(always)]
    fn of(s: Strides) -> Self {
        let soa = Soa { pitch: s.comp };
        assert_eq!(s, soa.strides(), "not an SoA stride");
        soa
    }
    #[inline(always)]
    fn strides(self) -> Strides {
        Strides {
            card: C,
            cell: 1,
            comp: self.pitch,
        }
    }
    #[inline(always)]
    fn for_each_cell<T: Copy, const N: usize, const K: usize>(
        self,
        len: usize,
        out: &mut [T],
        ins: [(&[T], Self); K],
        mut f: impl FnMut(usize, &mut [T; N], [[T; N]; K]),
    ) {
        const { assert!(N == C, "a cell of an SoA stride has C components") };
        let p = self.pitch;
        let ins: [[&[T]; N]; K] = ins.map(|(d, s)| from_fn(|q| &d[q * s.pitch..q * s.pitch + len]));
        let mut rest = out;
        let mut out: [&mut [T]; N] = from_fn(|q| {
            let (row, tail) =
                std::mem::take(&mut rest).split_at_mut(if q + 1 < N { p } else { len });
            rest = tail;
            &mut row[..len]
        });
        for i in 0..len {
            let mut v = from_fn(|q| out[q][i]);
            f(i, &mut v, from_fn(|k| from_fn(|q| ins[k][q][i])));
            for (row, v) in out.iter_mut().zip(v) {
                row[i] = v;
            }
        }
    }
}

/// The stride of `strides` and the storage range of the lanes of the
/// `len ≥ 1` stored cells from `lin`, first element to last.
#[inline(always)]
fn cut<S: Stride>(strides: Strides, lin: usize, len: usize) -> (S, Range<usize>) {
    let stride = S::of(strides);
    let (s, start) = (stride.strides(), stride.at(lin, 0));
    let end = start + (len - 1) * s.cell + (s.card - 1) * s.comp + 1;
    (stride, start..end)
}

/// How the lanes of `len` cells with strides `s` split into contiguous
/// runs: how many, each one's length, and the distance from one run's
/// start to the next. A cell's components are adjacent under AoS, and a
/// one-component field has no second component, so both are one flat run
/// of `len·card` elements, cell-major; an SoA vector is one row of `len`
/// cells per component, `pitch` apart.
#[inline(always)]
fn run_shape(s: Strides, len: usize) -> (usize, usize, usize) {
    if s.card > 1 && s.cell == 1 {
        (s.card, len, s.comp)
    } else {
        (1, len * s.card, len * s.card)
    }
}

/// Every component of a run of cells, read-only: element `(i, q)` is
/// component `q` of the run's `i`-th cell (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct Lanes<'a, T, S> {
    data: &'a [T],
    len: usize,
    stride: S,
}

impl<'a, T: Copy, S: Stride> Lanes<'a, T, S> {
    /// Components per cell.
    #[inline(always)]
    pub fn card(&self) -> usize {
        self.stride.strides().card
    }

    /// Component `q` of cell `i`.
    #[inline(always)]
    pub fn get(&self, i: usize, q: usize) -> T {
        self.data[self.stride.at(i, q)]
    }

    /// The elements as contiguous runs, for bodies that need no cell
    /// structure: one run of `len·card` elements, cell-major, under AoS
    /// or for one component; one row of `len` cells per component under
    /// SoA. Lanes of one layout and cardinality split into runs of the
    /// same shape, element for element.
    #[inline(always)]
    pub fn runs(&self) -> impl ExactSizeIterator<Item = &'a [T]> {
        let (count, n, pitch) = run_shape(self.stride.strides(), self.len);
        let data = self.data;
        (0..count).map(move |r| &data[r * pitch..][..n])
    }
}

/// Every component of a run of cells, writable: the [`Lanes`] of a write
/// view. One `LanesMut` covers all components, so a kernel stores whole
/// cells through it.
#[derive(Debug)]
pub struct LanesMut<'a, T, S> {
    data: &'a mut [T],
    len: usize,
    stride: S,
}

impl<T: Copy, S: Stride> LanesMut<'_, T, S> {
    /// Components per cell.
    #[inline(always)]
    pub fn card(&self) -> usize {
        self.stride.strides().card
    }

    /// Component `q` of cell `i`.
    #[inline(always)]
    pub fn get(&self, i: usize, q: usize) -> T {
        self.data[self.stride.at(i, q)]
    }

    /// Store `v` into component `q` of cell `i`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, q: usize, v: T) {
        self.data[self.stride.at(i, q)] = v;
    }

    /// Writable form of [`Lanes::runs`].
    #[inline(always)]
    pub(crate) fn runs_mut(&mut self) -> impl Iterator<Item = &mut [T]> {
        let (_, n, pitch) = run_shape(self.stride.strides(), self.len);
        self.data.chunks_mut(pitch).map(move |run| &mut run[..n])
    }

    /// `f(i, cell, inputs)` for every cell `i` of the run, in order:
    /// `cell` is the run's `i`-th cell (what `f` leaves there is stored)
    /// and `inputs` the `i`-th cell of each of `ins`, which must have at
    /// least as many cells. See [`Stride::for_each_cell`].
    #[inline(always)]
    pub fn for_each_cell<const C: usize, const K: usize>(
        &mut self,
        ins: [&Lanes<'_, T, S>; K],
        f: impl FnMut(usize, &mut [T; C], [[T; C]; K]),
    ) {
        self.stride
            .for_each_cell(self.len, self.data, ins.map(|l| (l.data, l.stride)), f)
    }
}

/// A span kernel's body, written once for every stride type.
pub trait SpanBody {
    /// Run the body over `span`, taking its operands' lanes as `S`.
    fn span<S: Stride>(&mut self, span: &Span);
}

/// The span kernel that runs `body` with the stride type its `operands`
/// (every field view it takes lanes of) share: [`Soa`] when cells are
/// adjacent, [`Aos`] when each holds `C` adjacent components, and the
/// run-time [`Strides`] otherwise — mixed layouts, or a cardinality other
/// than `C`.
pub fn span_kernel<const C: usize>(
    operands: impl IntoIterator<Item = Strides>,
    mut body: impl SpanBody + Send + 'static,
) -> KernelFn {
    let (mut soa, mut aos) = (true, true);
    for s in operands {
        soa &= s.card == C && s.cell == 1;
        aos &= s == Aos::<C>.strides();
    }
    if soa {
        KernelFn::spans(move |span| body.span::<Soa<C>>(span))
    } else if aos {
        KernelFn::spans(move |span| body.span::<Aos<C>>(span))
    } else {
        KernelFn::spans(move |span| body.span::<Strides>(span))
    }
}

/// Cell-local read view of one partition — the same on every grid, since
/// a cell's storage position depends only on its `lin` and the strides.
pub struct PartRead<T: Elem> {
    raw: RawRead<T>,
    strides: Strides,
}

impl<T: Elem> PartRead<T> {
    pub(crate) fn new(
        grid: &impl GridLike,
        parts: &FieldParts<T>,
        dev: DeviceId,
        null: bool,
    ) -> Self {
        PartRead {
            raw: if null || grid.storage_mode() == StorageMode::Virtual {
                parts.mem.null_read()
            } else {
                parts.mem.read(dev)
            },
            strides: Strides::new(parts.layout, parts.card, grid.alloc_len(dev)),
        }
    }

    /// Component `comp` of the stored cell `lin` (owned or halo).
    #[inline]
    pub(crate) fn get(&self, lin: usize, comp: usize) -> T {
        self.raw.get(self.strides.at(lin, comp))
    }

    /// The lanes of the `len` stored cells from `lin`. Panics when they
    /// leave the partition.
    #[inline]
    pub(crate) fn lanes_at<S: Stride>(&self, lin: usize, len: usize) -> Lanes<'_, T, S> {
        let (stride, range) = cut(self.strides, lin, len);
        Lanes {
            data: &self.raw.as_slice()[range],
            len,
            stride,
        }
    }
}

impl<T: Elem> FieldRead<T> for PartRead<T> {
    #[inline]
    fn at(&self, cell: Cell, comp: usize) -> T {
        self.get(cell.idx(), comp)
    }
    fn strides(&self) -> Strides {
        self.strides
    }
    #[inline]
    fn lanes<S: Stride>(&self, span: &Span) -> Lanes<'_, T, S> {
        self.lanes_at(span.first.idx(), span.len())
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
            fn strides(&self) -> $crate::view::Strides {
                self.cells.strides()
            }
            #[inline]
            fn lanes<S: $crate::view::Stride>(&self, span: &Span) -> $crate::view::Lanes<'_, T, S> {
                self.cells.lanes(span)
            }
        }
    };
}
pub(crate) use read_through_cells;

/// Write view of one partition — the same on every grid.
pub struct PartWrite<T: Elem> {
    raw: RawWrite<T>,
    strides: Strides,
}

impl<T: Elem> PartWrite<T> {
    pub(crate) fn new(
        grid: &impl GridLike,
        parts: &FieldParts<T>,
        dev: DeviceId,
        null: bool,
    ) -> Self {
        PartWrite {
            raw: if null || grid.storage_mode() == StorageMode::Virtual {
                parts.mem.null_write()
            } else {
                parts.mem.write(dev)
            },
            strides: Strides::new(parts.layout, parts.card, grid.alloc_len(dev)),
        }
    }
}

impl<T: Elem> FieldWrite<T> for PartWrite<T> {
    #[inline]
    fn at(&self, cell: Cell, comp: usize) -> T {
        self.raw.get(self.strides.at(cell.idx(), comp))
    }
    #[inline]
    fn set(&self, cell: Cell, comp: usize, v: T) {
        self.raw.set(self.strides.at(cell.idx(), comp), v)
    }
    fn strides(&self) -> Strides {
        self.strides
    }
    #[inline]
    fn lanes_mut<S: Stride>(&mut self, span: &Span) -> LanesMut<'_, T, S> {
        let (stride, range) = cut(self.strides, span.first.idx(), span.len());
        LanesMut {
            data: &mut self.raw.as_mut_slice()[range],
            len: span.len(),
            stride,
        }
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

/// One halo copy of a partition pair: `(src_off, dst_off, len)` in
/// elements of one component.
pub(crate) type PairCopy = (usize, usize, usize);

/// The halo rule every grid shares: push the segments of one adjacent
/// pair, `lo` and `lo + 1`, onto `segs`. `up` copies `lo`'s boundary into
/// the upper partition's halo and `down` the other way; `strides` are the
/// two partitions' per-component storage lengths. SoA pushes up then down
/// for each component, AoS up then down once over interleaved cells.
/// Zero-length copies are skipped.
pub(crate) fn push_pair_segments(
    segs: &mut Vec<HaloSegment>,
    lo: DeviceId,
    (up, down): (PairCopy, PairCopy),
    (stride_lo, stride_hi): (usize, usize),
    card: usize,
    layout: MemLayout,
) {
    let hi = DeviceId(lo.0 + 1);
    let mut push = |src, dst, (src_off, dst_off, len): PairCopy| {
        if len > 0 {
            segs.push(HaloSegment {
                src,
                dst,
                src_off,
                dst_off,
                len,
            });
        }
    };
    match layout {
        MemLayout::SoA => {
            for c in 0..card {
                let (at_lo, at_hi) = (c * stride_lo, c * stride_hi);
                push(lo, hi, (at_lo + up.0, at_hi + up.1, up.2));
                push(hi, lo, (at_hi + down.0, at_lo + down.1, down.2));
            }
        }
        MemLayout::AoS => {
            let cells = |(src, dst, len): PairCopy| (src * card, dst * card, len * card);
            push(lo, hi, cells(up));
            push(hi, lo, cells(down));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_place_elements_by_layout() {
        let soa = Strides::new(MemLayout::SoA, 3, 100);
        let aos = Strides::new(MemLayout::AoS, 3, 100);
        assert_eq!((soa.at(5, 0), soa.at(5, 2)), (5, 205));
        assert_eq!((aos.at(5, 0), aos.at(5, 2)), (15, 17));
        for cell in 0..10 {
            let [soa, aos] = [MemLayout::SoA, MemLayout::AoS].map(|l| Strides::new(l, 1, 64));
            assert_eq!(soa.at(cell, 0), aos.at(cell, 0), "scalar fields agree");
        }
    }

    #[test]
    fn typed_strides_accept_only_their_layout() {
        let soa = Strides::new(MemLayout::SoA, 3, 100);
        let aos = Strides::new(MemLayout::AoS, 3, 100);
        assert_eq!(Soa::<3>::of(soa).strides(), soa);
        assert_eq!(Aos::<3>::of(aos).strides(), aos);
        assert!(std::panic::catch_unwind(|| Aos::<3>::of(soa)).is_err());
        assert!(std::panic::catch_unwind(|| Soa::<3>::of(aos)).is_err());
        assert!(std::panic::catch_unwind(|| Soa::<19>::of(soa)).is_err());
    }
}
