//! The dense grid: every cell of the rectilinear domain is represented.
//!
//! Storage layout per partition (one per device): the slab of owned
//! z-layers plus `radius` halo layers below and above, always allocated so
//! all partitions share one indexing rule:
//!
//! ```text
//! local z-layer  0 .. r      halo (lower neighbour's boundary cells)
//! local z-layer  r .. r+nz   owned cells   ← iteration spans
//! local z-layer  r+nz .. r+nz+r  halo (upper neighbour's boundary cells)
//! ```
//!
//! A cell's local linear index is `((z - z0 + r)·ny + y)·nx + x`, so a
//! neighbour at offset `(dx,dy,dz)` is exactly `lin + dz·nx·ny + dy·nx +
//! dx` away — stencil views need no divisions, and the grid computes that
//! delta once per slot. Boundary cells (the owned layers within `radius`
//! of an inter-partition edge) are contiguous, which is why a halo update
//! is two plain copies per partition (times the cardinality for SoA
//! fields).
//!
//! Iteration emits each x-row as one [`Span`]. A stencil-reading sweep
//! splits it at the stencils' x-reach: the middle run of a row that is
//! itself `reach` away from the y and z domain faces is *interior* —
//! every registered neighbour of every cell in it is in the domain — so
//! stencil views skip the domain test there. A sweep that reads no
//! neighbour has no use for the promise and keeps its rows whole.

use std::sync::Arc;

use neon_set::{Cell, DataView, Elem, IterationSpace, Region, Span, StorageMode, Sweep};
use neon_sys::{Backend, DeviceId, NeonSysError, Result};

use crate::grid::{proportional_slab_partition, slab_partition, Dim3, FieldParts, GridLike};
use crate::layout::MemLayout;
use crate::stencil::{union_offsets, Offset3, Stencil};
use crate::view::{
    push_pair_segments, FieldRead, FieldStencil, HaloSegment, Lanes, PartRead, Stride,
};

#[derive(Debug, Clone, Copy)]
struct DensePart {
    /// Owned global z-range `[z0, z1)`.
    z0: usize,
    z1: usize,
    /// Whether a lower / upper neighbouring partition exists.
    has_lo: bool,
    has_hi: bool,
}

impl DensePart {
    fn nz(&self) -> usize {
        self.z1 - self.z0
    }
}

#[derive(Debug)]
struct DenseInner {
    backend: Backend,
    dim: Dim3,
    radius: usize,
    /// Allocated ghost layers per neighbouring side (>= radius). The
    /// default equals the radius; temporal blocking allocates `k·radius`
    /// so one deep exchange can stage `k` iterations' worth of ghosts.
    halo_cap: usize,
    offsets: Vec<Offset3>,
    /// The registered offsets again, each with the distance in local
    /// linear indices from a cell to that neighbour (the same on every
    /// partition) — what a stencil view reads per access.
    slots: Arc<[Slot]>,
    /// Largest `|dx|`, `|dy|`, `|dz|` over the registered offsets: a cell
    /// at least this far from every domain face has all its neighbours in
    /// the domain.
    reach: [usize; 3],
    mode: StorageMode,
    parts: Vec<DensePart>,
}

/// One neighbour slot as a stencil view needs it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    offset: Offset3,
    /// `dz·nx·ny + dy·nx + dx`.
    delta: isize,
}

/// A dense rectilinear grid partitioned into z-slabs over the backend's
/// devices.
#[derive(Clone)]
pub struct DenseGrid {
    inner: Arc<DenseInner>,
}

impl std::fmt::Debug for DenseGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DenseGrid")
            .field("dim", &self.inner.dim)
            .field("radius", &self.inner.radius)
            .field("partitions", &self.inner.parts.len())
            .finish()
    }
}

/// How a dense grid splits its z-layers over the devices.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PartitionStrategy {
    /// Equal layer counts — correct for homogeneous systems.
    #[default]
    Even,
    /// Layers proportional to each device's effective memory bandwidth —
    /// load balance for heterogeneous systems (paper §VII future work).
    DeviceProportional,
    /// Layers proportional to explicit per-device shares — the feedback
    /// path for the straggler monitor, whose
    /// [`HealthReport::shares`](../../neon_core/health/struct.HealthReport.html)
    /// shrink a flagged device's slab on the next (re)build. Must hold
    /// one positive share per device.
    Shares(Vec<f64>),
}

impl DenseGrid {
    /// Create a dense grid over `backend`, registering `stencils` (their
    /// union determines the halo radius and the neighbour slots).
    pub fn new(
        backend: &Backend,
        dim: Dim3,
        stencils: &[&Stencil],
        mode: StorageMode,
    ) -> Result<Self> {
        DenseGrid::with_partitioning(backend, dim, stencils, mode, PartitionStrategy::Even)
    }

    /// [`DenseGrid::new`] with an explicit partitioning strategy.
    pub fn with_partitioning(
        backend: &Backend,
        dim: Dim3,
        stencils: &[&Stencil],
        mode: StorageMode,
        strategy: PartitionStrategy,
    ) -> Result<Self> {
        DenseGrid::build(backend, dim, stencils, mode, strategy, None)
    }

    /// [`DenseGrid::new`] allocating `halo_cap` ghost layers per
    /// neighbouring side instead of the stencil radius. A `Temporal(k)`
    /// super-step needs `k·radius` layers: rep 0 iterates `(k-1)·radius`
    /// ghost layers and its stencil reads reach `k·radius`. Partitions
    /// must be thick enough that a depth-`halo_cap` exchange still copies
    /// only owned cells.
    pub fn with_halo_capacity(
        backend: &Backend,
        dim: Dim3,
        stencils: &[&Stencil],
        mode: StorageMode,
        halo_cap: usize,
    ) -> Result<Self> {
        DenseGrid::build(
            backend,
            dim,
            stencils,
            mode,
            PartitionStrategy::Even,
            Some(halo_cap),
        )
    }

    fn build(
        backend: &Backend,
        dim: Dim3,
        stencils: &[&Stencil],
        mode: StorageMode,
        strategy: PartitionStrategy,
        halo_cap: Option<usize>,
    ) -> Result<Self> {
        if dim.count() == 0 {
            return Err(NeonSysError::InvalidConfig {
                what: format!("empty domain {dim}"),
            });
        }
        let n = backend.num_devices();
        if dim.z < n {
            return Err(NeonSysError::InvalidConfig {
                what: format!("{dim} has fewer z-layers than the {n} devices"),
            });
        }
        let offsets = union_offsets(stencils);
        let radius = offsets
            .iter()
            .map(|o| o.dz.unsigned_abs() as usize)
            .max()
            .unwrap_or(0);
        for o in &offsets {
            if o.dx.unsigned_abs() as usize >= dim.x || o.dy.unsigned_abs() as usize >= dim.y {
                return Err(NeonSysError::InvalidConfig {
                    what: format!("stencil offset {o} exceeds domain extent {dim}"),
                });
            }
        }
        let slabs = match strategy {
            PartitionStrategy::Even => slab_partition(dim.z, n),
            PartitionStrategy::DeviceProportional => {
                let shares: Vec<f64> = backend
                    .devices()
                    .iter()
                    .map(|d| d.mem_bandwidth_gb_s)
                    .collect();
                proportional_slab_partition(dim.z, &shares)
            }
            PartitionStrategy::Shares(ref shares) => {
                if shares.len() != n {
                    return Err(NeonSysError::InvalidConfig {
                        what: format!("{} partition shares for {n} devices", shares.len()),
                    });
                }
                if shares.iter().any(|s| !s.is_finite() || *s <= 0.0) {
                    return Err(NeonSysError::InvalidConfig {
                        what: format!("partition shares must be positive and finite: {shares:?}"),
                    });
                }
                proportional_slab_partition(dim.z, shares)
            }
        };
        let halo_cap = halo_cap.unwrap_or(radius);
        if halo_cap < radius {
            return Err(NeonSysError::InvalidConfig {
                what: format!("halo capacity {halo_cap} below stencil radius {radius}"),
            });
        }
        let parts: Vec<DensePart> = slabs
            .iter()
            .enumerate()
            .map(|(i, &(z0, z1))| DensePart {
                z0,
                z1,
                has_lo: i > 0,
                has_hi: i + 1 < n,
            })
            .collect();
        for p in &parts {
            let needed = p.has_lo as usize * halo_cap + p.has_hi as usize * halo_cap;
            if p.nz() < needed.max(1) {
                return Err(NeonSysError::InvalidConfig {
                    what: format!(
                        "partition [{}, {}) too thin for halo capacity {halo_cap}",
                        p.z0, p.z1
                    ),
                });
            }
            let alloc = dim.x * dim.y * (p.nz() + 2 * halo_cap);
            if alloc > u32::MAX as usize {
                return Err(NeonSysError::InvalidConfig {
                    what: format!("partition storage {alloc} exceeds 32-bit cell indices"),
                });
            }
        }
        let (row, plane) = (dim.x as isize, (dim.x * dim.y) as isize);
        let slots = offsets
            .iter()
            .map(|&offset| Slot {
                offset,
                delta: offset.dz as isize * plane + offset.dy as isize * row + offset.dx as isize,
            })
            .collect();
        let reach_of = |axis: fn(&Offset3) -> i32| {
            offsets
                .iter()
                .map(|o| axis(o).unsigned_abs() as usize)
                .max()
                .unwrap_or(0)
        };
        let reach = [reach_of(|o| o.dx), reach_of(|o| o.dy), radius];
        Ok(DenseGrid {
            inner: Arc::new(DenseInner {
                backend: backend.clone(),
                dim,
                radius,
                halo_cap,
                offsets,
                slots,
                reach,
                mode,
                parts,
            }),
        })
    }

    fn sxy(&self) -> usize {
        self.inner.dim.x * self.inner.dim.y
    }

    fn part(&self, dev: DeviceId) -> &DensePart {
        &self.inner.parts[dev.0]
    }

    /// Owned z-range of device `dev`.
    pub fn owned_z_range(&self, dev: DeviceId) -> (usize, usize) {
        let p = self.part(dev);
        (p.z0, p.z1)
    }

    /// Boundary layer counts `(below, above)` of `dev`'s slab.
    fn bnd_layers(&self, dev: DeviceId) -> (usize, usize) {
        let p = self.part(dev);
        (
            if p.has_lo { self.inner.radius } else { 0 },
            if p.has_hi { self.inner.radius } else { 0 },
        )
    }

    /// The owned z-ranges iterated for `view` on `dev` (global coords).
    /// At most two (the boundary view's low and high slabs); returned
    /// inline so per-launch queries stay off the heap.
    fn view_z_ranges(&self, dev: DeviceId, view: DataView) -> ([(usize, usize); 2], usize) {
        let p = self.part(dev);
        let (bl, bh) = self.bnd_layers(dev);
        let mut ranges = [(0, 0); 2];
        let n = match view {
            DataView::Standard => {
                ranges[0] = (p.z0, p.z1);
                1
            }
            DataView::Internal => {
                ranges[0] = (p.z0 + bl, p.z1 - bh);
                1
            }
            DataView::Boundary => {
                let mut n = 0;
                if bl > 0 {
                    ranges[n] = (p.z0, p.z0 + bl);
                    n += 1;
                }
                if bh > 0 {
                    ranges[n] = (p.z1 - bh, p.z1);
                    n += 1;
                }
                n
            }
        };
        (ranges, n)
    }

    #[inline]
    fn local_lin(&self, dev: DeviceId, x: usize, y: usize, z: usize) -> u32 {
        let p = self.part(dev);
        // `z` may sit up to `halo_cap` layers below `z0` (ghost iteration),
        // so add the capacity before subtracting to stay in `usize` range.
        let zl = z + self.inner.halo_cap - p.z0;
        ((zl * self.inner.dim.y + y) * self.inner.dim.x + x) as u32
    }

    /// Ghost-layer counts `(below, above)` device `dev` iterates when
    /// expanded by `depth` (clamped to allocation and domain edges).
    fn expand_layers(&self, dev: DeviceId, depth: usize) -> (usize, usize) {
        let p = self.part(dev);
        let d = depth.min(self.inner.halo_cap);
        (if p.has_lo { d } else { 0 }, if p.has_hi { d } else { 0 })
    }
}

impl IterationSpace for DenseGrid {
    fn num_partitions(&self) -> usize {
        self.inner.parts.len()
    }

    fn space_id(&self) -> Option<u64> {
        Some(Arc::as_ptr(&self.inner) as *const () as u64)
    }

    fn cell_count(&self, dev: DeviceId, view: DataView) -> u64 {
        let (ranges, n) = self.view_z_ranges(dev, view);
        ranges[..n]
            .iter()
            .map(|&(a, b)| ((b - a) * self.sxy()) as u64)
            .sum()
    }

    fn for_each_span(&self, dev: DeviceId, sweep: Sweep, f: &mut dyn FnMut(&Span)) {
        let dim = self.inner.dim;
        let (ranges, nr) = match sweep.region {
            Region::View(view) => self.view_z_ranges(dev, view),
            Region::Expanded(depth) => {
                assert!(
                    depth <= IterationSpace::ghost_capacity(self),
                    "expanded depth {depth} exceeds ghost capacity {}",
                    IterationSpace::ghost_capacity(self)
                );
                let p = self.part(dev);
                let (lo, hi) = self.expand_layers(dev, depth);
                ([(p.z0 - lo, p.z1 + hi), (0, 0)], 1)
            }
        };
        let [rx, ry, rz] = self.inner.reach;
        let nx = dim.x as u32;
        // x-extent of a row's interior run; empty on rows shorter than
        // the stencil is wide, and on every row of a sweep that reads no
        // neighbour, which gets whole rows.
        let (xa, xb) = if sweep.stencil_reads && 2 * rx < dim.x {
            (rx as u32, (dim.x - rx) as u32)
        } else {
            (0, 0)
        };
        for &(za, zb) in &ranges[..nr] {
            for z in za..zb {
                let z_inside = z >= rz && z + rz < dim.z;
                for y in 0..dim.y {
                    let row = self.local_lin(dev, 0, y, z);
                    let mut run = |x0: u32, x1: u32, interior: bool| {
                        if x0 < x1 {
                            let first = Cell {
                                lin: row + x0,
                                x: x0 as i32,
                                y: y as i32,
                                z: z as i32,
                                interior,
                            };
                            f(&Span::new(first, x1 - x0));
                        }
                    };
                    if z_inside && y >= ry && y + ry < dim.y && xa < xb {
                        run(0, xa, false);
                        run(xa, xb, true);
                        run(xb, nx, false);
                    } else {
                        run(0, nx, false);
                    }
                }
            }
        }
    }

    fn supports_functional(&self) -> bool {
        self.inner.mode == StorageMode::Real
    }

    fn ghost_capacity(&self) -> usize {
        // A rep iterating `e` ghost layers stencil-reads to depth
        // `e + radius`, which must stay within the allocation.
        self.inner.halo_cap - self.inner.radius
    }

    fn cell_count_expanded(&self, dev: DeviceId, depth: usize) -> u64 {
        let (lo, hi) = self.expand_layers(dev, depth);
        ((self.part(dev).nz() + lo + hi) * self.sxy()) as u64
    }
}

/// Neighbourhood read view of a dense partition.
pub struct DenseStencil<T: Elem> {
    cells: PartRead<T>,
    outside: T,
    slots: Arc<[Slot]>,
    dim: Dim3,
}

impl<T: Elem> DenseStencil<T> {
    /// Local linear index of the neighbour of the stored cell `lin` at
    /// `slot`. A delta that leaves the storage wraps to an index the
    /// storage bounds check rejects.
    #[inline]
    fn ngh_lin(lin: usize, slot: Slot) -> usize {
        lin.wrapping_add_signed(slot.delta)
    }

    /// Whether the neighbour of `cell` at `slot` is inside the domain box:
    /// the grid's word for interior cells, the six comparisons otherwise.
    #[inline]
    fn in_domain(&self, cell: Cell, slot: Slot) -> bool {
        let o = slot.offset;
        cell.interior
            || self
                .dim
                .contains(cell.x + o.dx, cell.y + o.dy, cell.z + o.dz)
    }

    /// Stored index of the `slot` neighbour of the first cell of an
    /// interior span; the rest follow it at the same linear distance.
    #[inline]
    fn ngh_run(&self, span: &Span, slot: usize) -> Option<usize> {
        span.interior()
            .then(|| Self::ngh_lin(span.first.idx(), self.slots[slot]))
    }
}

crate::view::read_through_cells!(DenseStencil);

impl<T: Elem> FieldStencil<T> for DenseStencil<T> {
    #[inline]
    fn ngh(&self, cell: Cell, slot: usize, comp: usize) -> T {
        let slot = self.slots[slot];
        if self.in_domain(cell, slot) {
            self.cells.get(Self::ngh_lin(cell.idx(), slot), comp)
        } else {
            self.outside
        }
    }

    #[inline]
    fn ngh_active(&self, cell: Cell, slot: usize) -> bool {
        self.in_domain(cell, self.slots[slot])
    }

    fn num_slots(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn ngh_lanes<S: Stride>(&self, span: &Span, slot: usize) -> Option<Lanes<'_, T, S>> {
        Some(self.cells.lanes_at(self.ngh_run(span, slot)?, span.len()))
    }
}

impl GridLike for DenseGrid {
    type StencilView<T: Elem> = DenseStencil<T>;

    fn backend(&self) -> &Backend {
        &self.inner.backend
    }

    fn dim(&self) -> Dim3 {
        self.inner.dim
    }

    fn storage_mode(&self) -> StorageMode {
        self.inner.mode
    }

    fn num_partitions(&self) -> usize {
        self.inner.parts.len()
    }

    fn radius(&self) -> usize {
        self.inner.radius
    }

    fn active_cells(&self) -> u64 {
        self.inner.dim.count()
    }

    fn owned_cells(&self, dev: DeviceId, view: DataView) -> u64 {
        self.cell_count(dev, view)
    }

    fn alloc_len(&self, dev: DeviceId) -> usize {
        self.sxy() * (self.part(dev).nz() + 2 * self.inner.halo_cap)
    }

    fn as_space(&self) -> Arc<dyn IterationSpace> {
        Arc::new(self.clone())
    }

    fn union_offsets(&self) -> &[Offset3] {
        &self.inner.offsets
    }

    fn stencil_extra_bytes_per_cell(&self) -> u64 {
        0
    }

    fn halo_segments(&self, card: usize, layout: MemLayout) -> Vec<HaloSegment> {
        self.halo_segments_depth(card, layout, self.inner.radius)
    }

    fn halo_capacity(&self) -> usize {
        self.inner.halo_cap
    }

    fn halo_segments_depth(
        &self,
        card: usize,
        layout: MemLayout,
        depth: usize,
    ) -> Vec<HaloSegment> {
        let cap = self.inner.halo_cap;
        assert!(
            depth <= cap,
            "halo depth {depth} exceeds allocated capacity {cap}"
        );
        let sxy = self.sxy();
        let mut segs = Vec::new();
        for p in 1..self.inner.parts.len() {
            let lo = DeviceId(p - 1);
            let nz_lo = self.part(lo).nz();
            // Element offsets within one component's storage: owned layers
            // occupy local z-layers [cap, cap + nz); a depth-d exchange
            // copies each side's d owned layers nearest the cut into the
            // d halo layers nearest the other side's owned region, so only
            // owner-computed values ever cross devices.
            let len = depth * sxy;
            // lo's top d owned layers → hi's halo layers [cap-d, cap).
            let up = ((cap + nz_lo - depth) * sxy, (cap - depth) * sxy, len);
            // hi's bottom d owned layers → lo's halo above its owned ones.
            let down = (cap * sxy, (cap + nz_lo) * sxy, len);
            let strides = (self.alloc_len(lo), self.alloc_len(DeviceId(p)));
            push_pair_segments(&mut segs, lo, (up, down), strides, card, layout);
        }
        segs
    }

    fn locate(&self, x: i32, y: i32, z: i32) -> Option<(DeviceId, u32)> {
        if !self.inner.dim.contains(x, y, z) {
            return None;
        }
        let (x, y, z) = (x as usize, y as usize, z as usize);
        let dev = self
            .inner
            .parts
            .iter()
            .position(|p| z >= p.z0 && z < p.z1)
            .map(DeviceId)?;
        Some((dev, self.local_lin(dev, x, y, z)))
    }

    fn for_each_owned(&self, dev: DeviceId, f: &mut dyn FnMut(Cell)) {
        self.for_each_cell(dev, DataView::Standard, f);
    }

    fn for_each_ghost_ring(&self, dev: DeviceId, level: usize, f: &mut dyn FnMut(Cell)) {
        assert!(level >= 1, "ghost rings start at level 1");
        if level > self.inner.halo_cap {
            return;
        }
        let dim = self.inner.dim;
        let p = self.part(dev);
        let mut ring = |z: usize| {
            for y in 0..dim.y {
                let row = self.local_lin(dev, 0, y, z);
                for x in 0..dim.x {
                    f(Cell::new(row + x as u32, x as i32, y as i32, z as i32));
                }
            }
        };
        if p.has_lo {
            ring(p.z0 - level);
        }
        if p.has_hi {
            ring(p.z1 - 1 + level);
        }
    }

    fn make_stencil_view<T: Elem>(
        &self,
        parts: &FieldParts<T>,
        dev: DeviceId,
        null: bool,
    ) -> DenseStencil<T> {
        DenseStencil {
            cells: PartRead::new(self, parts, dev, null),
            outside: parts.outside,
            slots: self.inner.slots.clone(),
            dim: self.inner.dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n_dev: usize, dim: Dim3) -> DenseGrid {
        let b = Backend::dgx_a100(n_dev);
        let s = Stencil::seven_point();
        DenseGrid::new(&b, dim, &[&s], StorageMode::Real).unwrap()
    }

    #[test]
    fn partition_geometry() {
        let g = grid(4, Dim3::new(8, 8, 16));
        assert_eq!(GridLike::num_partitions(&g), 4);
        assert_eq!(g.radius(), 1);
        assert_eq!(g.owned_z_range(DeviceId(0)), (0, 4));
        assert_eq!(g.owned_z_range(DeviceId(3)), (12, 16));
        // 4 owned layers + 2 halo layers of 64 cells each.
        assert_eq!(g.alloc_len(DeviceId(1)), 8 * 8 * 6);
    }

    #[test]
    fn view_counts_partition_standard() {
        let g = grid(4, Dim3::new(8, 8, 16));
        for d in 0..4 {
            let d = DeviceId(d);
            assert_eq!(
                g.cell_count(d, DataView::Internal) + g.cell_count(d, DataView::Boundary),
                g.cell_count(d, DataView::Standard)
            );
        }
        // Middle partitions have boundary layers on both sides.
        assert_eq!(g.cell_count(DeviceId(1), DataView::Boundary), 2 * 64);
        // Edge partitions only on the interior side.
        assert_eq!(g.cell_count(DeviceId(0), DataView::Boundary), 64);
        assert_eq!(g.cell_count(DeviceId(3), DataView::Boundary), 64);
    }

    #[test]
    fn single_device_has_no_boundary() {
        let g = grid(1, Dim3::cube(8));
        assert_eq!(g.cell_count(DeviceId(0), DataView::Boundary), 0);
        assert_eq!(g.cell_count(DeviceId(0), DataView::Internal), 512);
        assert!(g.halo_segments(1, MemLayout::SoA).is_empty());
    }

    #[test]
    fn iteration_covers_every_cell_once() {
        let g = grid(3, Dim3::new(4, 4, 9));
        let mut seen = std::collections::HashSet::new();
        for d in 0..3 {
            g.for_each_cell(DeviceId(d), DataView::Standard, &mut |c| {
                assert!(seen.insert((c.x, c.y, c.z)), "duplicate cell");
            });
        }
        assert_eq!(seen.len(), 4 * 4 * 9);
    }

    #[test]
    fn internal_and_boundary_disjoint_cover() {
        let g = grid(2, Dim3::new(4, 4, 8));
        for d in 0..2 {
            let mut cells = Vec::new();
            g.for_each_cell(DeviceId(d), DataView::Internal, &mut |c| {
                cells.push((c.z, false))
            });
            g.for_each_cell(DeviceId(d), DataView::Boundary, &mut |c| {
                cells.push((c.z, true))
            });
            assert_eq!(cells.len(), 4 * 4 * 4);
        }
        // Device 0 owns z in [0,4); boundary is z=3 only (no lower neighbour).
        let mut bnd_z = std::collections::HashSet::new();
        g.for_each_cell(DeviceId(0), DataView::Boundary, &mut |c| {
            bnd_z.insert(c.z);
        });
        assert_eq!(bnd_z, [3].into_iter().collect());
    }

    #[test]
    fn locate_round_trips_with_iteration() {
        let g = grid(2, Dim3::new(3, 5, 8));
        for d in 0..2 {
            g.for_each_cell(DeviceId(d), DataView::Standard, &mut |c| {
                let (dev, lin) = g.locate(c.x, c.y, c.z).unwrap();
                assert_eq!(dev, DeviceId(d));
                assert_eq!(lin, c.lin);
            });
        }
        assert!(g.locate(-1, 0, 0).is_none());
        assert!(g.locate(0, 0, 8).is_none());
    }

    #[test]
    fn halo_segment_counts_match_paper() {
        let g = grid(4, Dim3::new(8, 8, 16));
        // Scalar (or AoS): 2 transfers per partition pair.
        assert_eq!(g.halo_segments(1, MemLayout::SoA).len(), 2 * 3);
        assert_eq!(g.halo_segments(3, MemLayout::AoS).len(), 2 * 3);
        // SoA with n components: 2n per pair.
        assert_eq!(g.halo_segments(3, MemLayout::SoA).len(), 2 * 3 * 3);
    }

    #[test]
    fn halo_segments_have_correct_sizes() {
        let g = grid(2, Dim3::new(4, 4, 8));
        let segs = g.halo_segments(1, MemLayout::SoA);
        assert_eq!(segs.len(), 2);
        for s in &segs {
            assert_eq!(s.len, 16); // one z-layer of 4x4
        }
        let up = segs.iter().find(|s| s.src == DeviceId(0)).unwrap();
        // dev0 owns z [0,4): top owned layer is local z-layer 4 (offset 4*16).
        assert_eq!(up.src_off, 4 * 16);
        assert_eq!(up.dst_off, 0);
        let down = segs.iter().find(|s| s.src == DeviceId(1)).unwrap();
        assert_eq!(down.src_off, 16); // owned layer r=1
        assert_eq!(down.dst_off, (1 + 4) * 16); // above dev0's owned layers
    }

    #[test]
    fn thin_partition_rejected() {
        let b = Backend::dgx_a100(8);
        let s = Stencil::seven_point();
        // 8 layers over 8 devices = 1 layer each, but middle partitions
        // need ≥2 for radius-1 boundaries on both sides.
        let err = DenseGrid::new(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real);
        assert!(err.is_err());
    }

    #[test]
    fn wide_stencil_offset_rejected() {
        let b = Backend::dgx_a100(1);
        let s = Stencil::new("wide", vec![Offset3::new(5, 0, 0)]);
        let err = DenseGrid::new(&b, Dim3::new(4, 4, 4), &[&s], StorageMode::Real);
        assert!(err.is_err());
    }

    #[test]
    fn halo_capacity_expands_allocation_and_segments() {
        let b = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let g = DenseGrid::with_halo_capacity(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real, 3)
            .unwrap();
        assert_eq!(g.halo_capacity(), 3);
        assert_eq!(g.radius(), 1);
        assert_eq!(g.alloc_len(DeviceId(0)), 16 * (4 + 6));
        // A depth-3 exchange copies each side's 3 owned layers nearest
        // the cut.
        let segs = g.halo_segments_depth(1, MemLayout::SoA, 3);
        assert_eq!(segs.len(), 2);
        for s in &segs {
            assert_eq!(s.len, 3 * 16);
        }
        let up = segs.iter().find(|s| s.src == DeviceId(0)).unwrap();
        assert_eq!(up.src_off, (3 + 4 - 3) * 16);
        assert_eq!(up.dst_off, 0);
        let down = segs.iter().find(|s| s.src == DeviceId(1)).unwrap();
        assert_eq!(down.src_off, 3 * 16);
        assert_eq!(down.dst_off, (3 + 4) * 16);
        // The default radius-deep exchange copies the layers *nearest*
        // the owned region, nesting inside the capacity.
        let r1 = g.halo_segments(1, MemLayout::SoA);
        let up1 = r1.iter().find(|s| s.src == DeviceId(0)).unwrap();
        assert_eq!(up1.src_off, (3 + 4 - 1) * 16);
        assert_eq!(up1.dst_off, (3 - 1) * 16);
    }

    #[test]
    fn expanded_iteration_covers_ghost_layers() {
        let b = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let g = DenseGrid::with_halo_capacity(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real, 3)
            .unwrap();
        assert_eq!(IterationSpace::ghost_capacity(&g), 2);
        // Edge partitions only expand toward their one neighbour.
        assert_eq!(g.cell_count_expanded(DeviceId(0), 2), 16 * 6);
        assert_eq!(g.cell_count_expanded(DeviceId(1), 2), 16 * 6);
        let expanded = |dev: usize, depth: usize| {
            let mut cells = Vec::new();
            let sweep = Sweep::map(Region::Expanded(depth));
            g.for_each_span(DeviceId(dev), sweep, &mut |span| cells.extend(span.cells()));
            cells
        };
        let cells0 = expanded(0, 2);
        assert_eq!(cells0.len(), 16 * 6);
        for c in &cells0 {
            // Ghost cells carry valid local indices: round-trip via the
            // same indexing rule locate() uses.
            assert_eq!(
                c.lin,
                ((c.z as usize + 3) * 4 + c.y as usize) as u32 * 4 + c.x as u32
            );
        }
        let zs = |cells: &[Cell]| -> std::collections::BTreeSet<i32> {
            cells.iter().map(|c| c.z).collect()
        };
        assert_eq!(zs(&cells0), (0..6).collect());
        assert_eq!(zs(&expanded(1, 2)), (2..8).collect());
        // Depth 0 is exactly the standard view.
        let mut std_cells = Vec::new();
        g.for_each_cell(DeviceId(0), DataView::Standard, &mut |c| std_cells.push(c));
        assert_eq!(std_cells, expanded(0, 0));
    }

    #[test]
    fn ghost_rings_enumerate_layer_by_layer() {
        let b = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let g = DenseGrid::with_halo_capacity(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real, 3)
            .unwrap();
        let collect = |dev: usize, level: usize| {
            let mut zs = Vec::new();
            GridLike::for_each_ghost_ring(&g, DeviceId(dev), level, &mut |c| zs.push(c.z));
            zs
        };
        // Device 0 owns z [0,4): rings grow upward only (no lower
        // neighbour).
        assert_eq!(collect(0, 1), vec![4; 16]);
        assert_eq!(collect(0, 2), vec![5; 16]);
        assert_eq!(collect(1, 1), vec![3; 16]);
        assert_eq!(collect(1, 2), vec![2; 16]);
        // Beyond capacity: nothing.
        assert!(collect(0, 4).is_empty());
    }

    #[test]
    fn virtual_grid_reports_counts_but_not_iteration() {
        let b = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::cube(64), &[&s], StorageMode::Virtual).unwrap();
        assert!(!g.supports_functional());
        assert_eq!(g.cell_count(DeviceId(0), DataView::Standard), 64 * 64 * 32);
    }
}
