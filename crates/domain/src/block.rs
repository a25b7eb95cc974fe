//! A block-sparse grid: sparsity at the granularity of `B³` cell blocks.
//!
//! The third point in the data-structure design space the paper's §VI-C
//! explores (and the direction the Neon project's later `bGrid` took):
//!
//! * the **dense** grid stores everything — no per-cell metadata, wasted
//!   compute on inactive regions;
//! * the **element-sparse** grid stores exactly the active cells — but
//!   pays a per-cell × per-slot connectivity table;
//! * the **block-sparse** grid stores whole `B³` blocks whenever any cell
//!   of the block is active — connectivity shrinks to 27 entries *per
//!   block* (amortized `27·4/B³` bytes per cell ≈ 1.7 B at `B = 4`,
//!   versus `slots·4` bytes per cell for element-sparse), at the price of
//!   computing the inactive *padding* cells inside partially-active
//!   blocks.
//!
//! The grid is the element-sparse grid of its block lattice. The lattice
//! has `⌈dim/B⌉` blocks per axis, a block being active iff one of its
//! in-domain cells is, and goes through the element-sparse grid's core
//! ([`crate::sparse`]): z-slabs balanced by active blocks per block layer,
//! each stored in the class order `[internal | boundary-low |
//! boundary-high | halo-low | halo-high]` with one block layer of boundary
//! and of halo, a dense slab index for lookups, and the lattice's 27-point
//! connectivity, which is the block neighbour table. Every block is `B³`
//! cells, so a halo update is the element-sparse grid's two contiguous
//! copies per partition pair (× cardinality for SoA) scaled by `B³`. The
//! halo radius must not exceed `B` (one block layer of halo). The grid
//! itself adds the per-class in-domain cell counts, one span per block
//! row, the intra-block neighbour arithmetic, and ghost rings and host
//! lookups at cell depth.
//!
//! Block-level activity means a cell is iterated iff its block is active
//! *and* it lies inside the domain box; mask-inactive cells inside an
//! active block are computed as padding (their values are whatever the
//! kernels produce — the usual bGrid contract).

use std::sync::Arc;

use neon_set::{Cell, DataView, Elem, IterationSpace, Span, StorageMode, Sweep};
use neon_sys::{AllocationTicket, Backend, DeviceId, NeonSysError, Result};

use crate::grid::{Dim3, FieldParts, GridLike};
use crate::layout::MemLayout;
use crate::sparse::{class_halo_segments, partition_lattice, Classes, SlabIndex, SparsePart};
use crate::stencil::{union_offsets, Offset3, Stencil};
use crate::view::{FieldRead, FieldStencil, HaloSegment, PartRead};

/// Block-connectivity sentinel: the neighbouring block is inactive.
pub const BLOCK_NONE: u32 = crate::sparse::SPARSE_NONE;

#[derive(Debug)]
struct BlockPart {
    /// Owned global block-layer range `[bz0, bz1)`.
    bz0: usize,
    bz1: usize,
    /// Blocks per class.
    classes: Classes,
    /// In-domain cells (padding excluded) of the owned blocks, and of the
    /// internal ones.
    owned_cells: u64,
    internal_cells: u64,
    /// Origins (block coords) of stored blocks, class-ordered.
    origins: Vec<(i32, i32, i32)>,
    /// `owned × 27` block neighbour table (3×3×3, index `(dx+1) +
    /// 3(dy+1) + 9(dz+1)`). Shared with the stencil views, which index it
    /// directly.
    block_conn: Arc<[u32]>,
    /// Block coords → local block id (owned + halo).
    lookup: SlabIndex,
    _tickets: Vec<AllocationTicket>,
}

impl BlockPart {
    fn n_owned(&self) -> u32 {
        self.classes.n_owned()
    }
    fn n_stored(&self) -> u32 {
        self.classes.n_stored()
    }
}

#[derive(Debug)]
struct BlockInner {
    backend: Backend,
    dim: Dim3,
    block: usize,
    radius: usize,
    offsets: Arc<Vec<Offset3>>,
    mode: StorageMode,
    parts: Vec<BlockPart>,
    active_cells: u64,
}

/// A block-sparse grid with `B³` blocks, partitioned in block-layer
/// z-slabs balanced by active block count.
#[derive(Clone)]
pub struct BlockSparseGrid {
    inner: Arc<BlockInner>,
}

impl std::fmt::Debug for BlockSparseGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockSparseGrid")
            .field("dim", &self.inner.dim)
            .field("block", &self.inner.block)
            .field("active_cells", &self.inner.active_cells)
            .field("partitions", &self.inner.parts.len())
            .finish()
    }
}

impl BlockSparseGrid {
    /// Create a block-sparse grid with block edge `block` over the cells
    /// where `mask` is true (a block is active if any of its in-domain
    /// cells is).
    pub fn new(
        backend: &Backend,
        dim: Dim3,
        block: usize,
        stencils: &[&Stencil],
        mask: impl Fn(i32, i32, i32) -> bool,
        mode: StorageMode,
    ) -> Result<Self> {
        if dim.count() == 0 {
            return Err(NeonSysError::InvalidConfig {
                what: format!("empty domain {dim}"),
            });
        }
        if block < 2 {
            return Err(NeonSysError::InvalidConfig {
                what: "block edge must be at least 2".to_string(),
            });
        }
        let offsets = union_offsets(stencils);
        let radius = offsets.iter().map(|o| o.radius()).max().unwrap_or(0);
        if radius > block {
            return Err(NeonSysError::InvalidConfig {
                what: format!("stencil radius {radius} exceeds block edge {block}"),
            });
        }
        let n = backend.num_devices();
        let [nbx, nby, nbz] = [dim.x, dim.y, dim.z].map(|extent| extent.div_ceil(block));
        if nbz < n {
            return Err(NeonSysError::InvalidConfig {
                what: format!("{dim} has fewer block layers ({nbz}) than the {n} devices"),
            });
        }

        // One pass over the lattice: which blocks are active, and per block
        // layer the active blocks (the partition weights) and their
        // in-domain cells.
        let mut active = Vec::with_capacity(nbx * nby * nbz);
        let mut layer_blocks = vec![0u64; nbz];
        let mut layer_cells = vec![0u64; nbz];
        for bz in 0..nbz {
            for by in 0..nby {
                for bx in 0..nbx {
                    let (x0, y0, z0) = (bx * block, by * block, bz * block);
                    let (cx, cy, cz) = (
                        block.min(dim.x - x0),
                        block.min(dim.y - y0),
                        block.min(dim.z - z0),
                    );
                    let cell = |x: usize, y: usize, z: usize| {
                        mask((x0 + x) as i32, (y0 + y) as i32, (z0 + z) as i32)
                    };
                    let on = (0..cz).any(|z| (0..cy).any(|y| (0..cx).any(|x| cell(x, y, z))));
                    if on {
                        layer_blocks[bz] += 1;
                        layer_cells[bz] += (cx * cy * cz) as u64;
                    }
                    active.push(on);
                }
            }
        }
        if layer_blocks.iter().all(|&w| w == 0) {
            return Err(NeonSysError::InvalidConfig {
                what: "block-sparse grid has no active blocks".to_string(),
            });
        }

        // The blocks are the cells of an element-sparse lattice whose
        // 27-point connectivity, in slot order `(dx+1) + 3(dy+1) +
        // 9(dz+1)`, is the block neighbour table.
        let block_active = |bx: i32, by: i32, bz: i32| {
            active[(bz as usize * nby + by as usize) * nbx + bx as usize]
        };
        let block_offsets = Stencil::twenty_seven_point();
        let lattice_parts = partition_lattice(
            Dim3::new(nbx, nby, nbz),
            &layer_blocks,
            1,
            n,
            &block_active,
            block_offsets.offsets(),
            mode,
        )?;
        let mut parts = Vec::with_capacity(n);
        for (p, part) in lattice_parts.into_iter().enumerate() {
            let SparsePart {
                z0: bz0,
                z1: bz1,
                classes,
                cells: origins,
                conn: block_conn,
                index: lookup,
                ..
            } = part;
            // Account block metadata: 27×u32 connectivity + 3×i32 origin
            // per stored block.
            let ledger = backend.ledger(DeviceId(p));
            let stored = classes.n_stored() as u64;
            let tickets = vec![ledger.alloc(stored * 27 * 4)?, ledger.alloc(stored * 12)?];
            let sum = |a: usize, b: usize| layer_cells[a..b].iter().sum::<u64>();
            let (bl, bh) = (usize::from(p > 0), usize::from(p + 1 < n));
            parts.push(BlockPart {
                bz0,
                bz1,
                classes,
                owned_cells: sum(bz0, bz1),
                internal_cells: sum(bz0 + bl, bz1 - bh),
                origins,
                block_conn,
                lookup,
                _tickets: tickets,
            });
        }

        Ok(BlockSparseGrid {
            inner: Arc::new(BlockInner {
                backend: backend.clone(),
                dim,
                block,
                radius,
                offsets: Arc::new(offsets),
                mode,
                active_cells: parts.iter().map(|p| p.owned_cells).sum(),
                parts,
            }),
        })
    }

    fn part(&self, dev: DeviceId) -> &BlockPart {
        &self.inner.parts[dev.0]
    }

    /// Block edge length.
    pub fn block_edge(&self) -> usize {
        self.inner.block
    }

    /// Cells per block (`B³`).
    pub fn cells_per_block(&self) -> usize {
        self.inner.block * self.inner.block * self.inner.block
    }

    /// Stored blocks (owned + halo) on a device.
    pub fn stored_blocks(&self, dev: DeviceId) -> usize {
        self.part(dev).n_stored() as usize
    }

    /// Stored cells (incl. padding and halos) on a device — the storage
    /// overhead Fig. 9-style comparisons weigh against the dense grid.
    pub fn stored_cells(&self, dev: DeviceId) -> u64 {
        self.stored_blocks(dev) as u64 * self.cells_per_block() as u64
    }
}

impl IterationSpace for BlockSparseGrid {
    fn num_partitions(&self) -> usize {
        self.inner.parts.len()
    }

    fn space_id(&self) -> Option<u64> {
        Some(Arc::as_ptr(&self.inner) as *const () as u64)
    }

    fn cell_count(&self, dev: DeviceId, view: DataView) -> u64 {
        let p = self.part(dev);
        match view {
            DataView::Standard => p.owned_cells,
            DataView::Internal => p.internal_cells,
            DataView::Boundary => p.owned_cells - p.internal_cells,
        }
    }

    fn for_each_span(&self, dev: DeviceId, sweep: Sweep, f: &mut dyn FnMut(&Span)) {
        assert!(
            self.inner.mode == StorageMode::Real,
            "block-sparse grid has virtual storage"
        );
        let p = self.part(dev);
        let dim = self.inner.dim;
        let bb = self.inner.block;
        let (a, b) = match sweep.region.owned_view() {
            DataView::Standard => (0, p.n_owned()),
            DataView::Internal => (0, p.classes.n_int),
            DataView::Boundary => (p.classes.n_int, p.n_owned()),
        };
        // One span per x-row of a block, clipped to the domain box (the
        // padding past it is never iterated). An active block has a cell
        // inside the box, so every clipped extent is at least 1. Rows are
        // never cut and never interior, whether or not the sweep
        // stencil-reads.
        for bi in a..b {
            let (bx, by, bz) = p.origins[bi as usize];
            let (x0, y0, z0) = (bx as usize * bb, by as usize * bb, bz as usize * bb);
            let base = bi * (bb * bb * bb) as u32;
            let len = bb.min(dim.x - x0) as u32;
            for z in 0..bb.min(dim.z - z0) {
                for y in 0..bb.min(dim.y - y0) {
                    let lin = base + ((z * bb + y) * bb) as u32;
                    let first = Cell::new(lin, x0 as i32, (y0 + y) as i32, (z0 + z) as i32);
                    f(&Span::new(first, len));
                }
            }
        }
    }

    fn supports_functional(&self) -> bool {
        self.inner.mode == StorageMode::Real
    }
}

/// Neighbourhood read view: block-level connectivity + intra-block math.
pub struct BlockStencil<T: Elem> {
    cells: PartRead<T>,
    outside: T,
    /// The partition's block neighbour table, resolved once per view.
    block_conn: Arc<[u32]>,
    offsets: Arc<Vec<Offset3>>,
    dim: Dim3,
    block: i32,
}

crate::view::read_through_cells!(BlockStencil);

impl<T: Elem> BlockStencil<T> {
    #[inline]
    fn resolve(&self, cell: Cell, o: Offset3) -> Option<usize> {
        let (gx, gy, gz) = (cell.x + o.dx, cell.y + o.dy, cell.z + o.dz);
        if !self.dim.contains(gx, gy, gz) {
            return None;
        }
        let b = self.block;
        let bpb = (b * b * b) as u32;
        let my_block = cell.lin / bpb;
        // Intra coords of the current cell derive from its global coords.
        let (ix, iy, iz) = (
            cell.x.rem_euclid(b),
            cell.y.rem_euclid(b),
            cell.z.rem_euclid(b),
        );
        let (nx, ny, nz) = (ix + o.dx, iy + o.dy, iz + o.dz);
        let (sx, sy, sz) = (nx.div_euclid(b), ny.div_euclid(b), nz.div_euclid(b));
        let target = if (sx, sy, sz) == (0, 0, 0) {
            my_block
        } else {
            let slot = ((sx + 1) + 3 * (sy + 1) + 9 * (sz + 1)) as usize;
            let t = self.block_conn[my_block as usize * 27 + slot];
            if t == BLOCK_NONE {
                return None;
            }
            t
        };
        let (jx, jy, jz) = (nx.rem_euclid(b), ny.rem_euclid(b), nz.rem_euclid(b));
        let intra = ((jz * b + jy) * b + jx) as u32;
        Some((target * bpb + intra) as usize)
    }
}

impl<T: Elem> FieldStencil<T> for BlockStencil<T> {
    #[inline]
    fn ngh(&self, cell: Cell, slot: usize, comp: usize) -> T {
        match self.resolve(cell, self.offsets[slot]) {
            Some(idx) => self.cells.get(idx, comp),
            None => self.outside,
        }
    }

    #[inline]
    fn ngh_active(&self, cell: Cell, slot: usize) -> bool {
        self.resolve(cell, self.offsets[slot]).is_some()
    }

    fn num_slots(&self) -> usize {
        self.offsets.len()
    }
}

impl GridLike for BlockSparseGrid {
    type StencilView<T: Elem> = BlockStencil<T>;

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
        self.inner.active_cells
    }

    fn owned_cells(&self, dev: DeviceId, view: DataView) -> u64 {
        self.cell_count(dev, view)
    }

    fn alloc_len(&self, dev: DeviceId) -> usize {
        self.stored_blocks(dev) * self.cells_per_block()
    }

    fn as_space(&self) -> Arc<dyn IterationSpace> {
        Arc::new(self.clone())
    }

    fn union_offsets(&self) -> &[Offset3] {
        &self.inner.offsets
    }

    fn stencil_extra_bytes_per_cell(&self) -> u64 {
        // The block-connectivity row is shared by all B³ cells.
        (27 * 4) / self.cells_per_block() as u64 + 1
    }

    fn halo_segments(&self, card: usize, layout: MemLayout) -> Vec<HaloSegment> {
        if self.inner.radius == 0 {
            return Vec::new();
        }
        let classes = self.inner.parts.iter().map(|p| p.classes);
        class_halo_segments(classes, self.cells_per_block(), card, layout)
    }

    fn for_each_ghost_ring(&self, dev: DeviceId, level: usize, f: &mut dyn FnMut(Cell)) {
        assert!(level >= 1, "ghost rings are 1-indexed");
        // Halo storage is one full block layer per side: rings exist up to
        // depth `B` even though only `radius` layers are exchange-fresh.
        if self.inner.mode != StorageMode::Real || level > self.inner.block {
            return;
        }
        let p = self.part(dev);
        let bb = self.inner.block as i32;
        let bpb = (bb * bb * bb) as u32;
        let owned = p.n_owned();
        let halo_lo_end = owned + p.classes.n_halo_lo;
        // One intra-block z-layer of every halo block, in-domain cells only
        // (same padding contract as ordinary iteration).
        let scan_layer = |range: std::ops::Range<u32>, iz: i32, f: &mut dyn FnMut(Cell)| {
            for bi in range {
                let (bx, by, bz) = p.origins[bi as usize];
                let gz = bz * bb + iz;
                for y in 0..bb {
                    for x in 0..bb {
                        let (gx, gy) = (bx * bb + x, by * bb + y);
                        if self.inner.dim.contains(gx, gy, gz) {
                            let intra = ((iz * bb + y) * bb + x) as u32;
                            f(Cell::new(bi * bpb + intra, gx, gy, gz));
                        }
                    }
                }
            }
        };
        scan_layer(owned..halo_lo_end, bb - level as i32, f);
        scan_layer(halo_lo_end..p.n_stored(), level as i32 - 1, f);
    }

    fn locate(&self, x: i32, y: i32, z: i32) -> Option<(DeviceId, u32)> {
        if !self.inner.dim.contains(x, y, z) {
            return None;
        }
        let b = self.inner.block as i32;
        let (bx, by, bz) = (x.div_euclid(b), y.div_euclid(b), z.div_euclid(b));
        let dev = self
            .inner
            .parts
            .iter()
            .position(|p| (bz as usize) >= p.bz0 && (bz as usize) < p.bz1)
            .map(DeviceId)?;
        let part = self.part(dev);
        let bi = part.lookup.get(bx, by, bz)?;
        if bi >= part.n_owned() {
            return None; // halo copy, not owned here
        }
        let (ix, iy, iz) = (x.rem_euclid(b), y.rem_euclid(b), z.rem_euclid(b));
        let intra = ((iz * b + iy) * b + ix) as u32;
        Some((dev, bi * (b * b * b) as u32 + intra))
    }

    fn for_each_owned(&self, dev: DeviceId, f: &mut dyn FnMut(Cell)) {
        self.for_each_cell(dev, DataView::Standard, f);
    }

    fn make_stencil_view<T: Elem>(
        &self,
        parts: &FieldParts<T>,
        dev: DeviceId,
        null: bool,
    ) -> BlockStencil<T> {
        BlockStencil {
            cells: PartRead::new(self, parts, dev, null),
            outside: parts.outside,
            block_conn: self.part(dev).block_conn.clone(),
            offsets: self.inner.offsets.clone(),
            dim: self.inner.dim,
            block: self.inner.block as i32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Field;
    use neon_set::Loader;

    fn ball(dim: Dim3, r: f64) -> impl Fn(i32, i32, i32) -> bool + Copy {
        let c = (dim.x as f64 / 2.0, dim.y as f64 / 2.0, dim.z as f64 / 2.0);
        move |x, y, z| {
            let dx = x as f64 + 0.5 - c.0;
            let dy = y as f64 + 0.5 - c.1;
            let dz = z as f64 + 0.5 - c.2;
            (dx * dx + dy * dy + dz * dz).sqrt() <= r
        }
    }

    fn grid(ndev: usize) -> BlockSparseGrid {
        let b = Backend::dgx_a100(ndev);
        let st = Stencil::seven_point();
        let dim = Dim3::cube(16);
        BlockSparseGrid::new(&b, dim, 4, &[&st], ball(dim, 6.5), StorageMode::Real).unwrap()
    }

    /// Two block layers per device on up to four devices: the ball's
    /// equator disc, extruded along z.
    fn tall_grid(ndev: usize) -> BlockSparseGrid {
        let b = Backend::dgx_a100(ndev);
        let st = Stencil::seven_point();
        let disc = ball(Dim3::cube(16), 6.5);
        let mask = move |x, y, _| disc(x, y, 8);
        BlockSparseGrid::new(
            &b,
            Dim3::new(16, 16, 32),
            4,
            &[&st],
            mask,
            StorageMode::Real,
        )
        .unwrap()
    }

    #[test]
    fn blocks_cover_masked_cells() {
        let g = grid(2);
        let dim = g.dim();
        let mask = ball(dim, 6.5);
        // Every masked cell must be iterated; padding cells may be too.
        let mut seen = std::collections::HashSet::new();
        for d in 0..2 {
            g.for_each_cell(DeviceId(d), DataView::Standard, &mut |c| {
                assert!(seen.insert((c.x, c.y, c.z)), "duplicate cell");
            });
        }
        for z in 0..16 {
            for y in 0..16 {
                for x in 0..16 {
                    if mask(x, y, z) {
                        assert!(seen.contains(&(x, y, z)), "masked cell not covered");
                    }
                }
            }
        }
        // Padding exists but is bounded by block granularity.
        assert!(seen.len() as u64 >= g.active_cells());
    }

    #[test]
    fn views_partition_standard() {
        let g = tall_grid(4);
        for d in 0..4 {
            let d = DeviceId(d);
            assert_eq!(
                g.cell_count(d, DataView::Internal) + g.cell_count(d, DataView::Boundary),
                g.cell_count(d, DataView::Standard)
            );
        }
    }

    #[test]
    fn locate_round_trips() {
        let g = grid(2);
        for d in 0..2 {
            g.for_each_cell(DeviceId(d), DataView::Standard, &mut |c| {
                let (dev, lin) = g.locate(c.x, c.y, c.z).unwrap();
                assert_eq!((dev, lin), (DeviceId(d), c.lin));
            });
        }
    }

    #[test]
    fn stencil_reads_cross_blocks_and_partitions() {
        let b = Backend::dgx_a100(2);
        let st = Stencil::seven_point();
        let dim = Dim3::cube(16);
        let g =
            BlockSparseGrid::new(&b, dim, 4, &[&st], |_, _, _| true, StorageMode::Real).unwrap();
        let f = Field::<f64, _>::new(&g, "f", 1, -1.0, MemLayout::SoA).unwrap();
        f.fill(|x, y, z, _| (x + 100 * y + 10000 * z) as f64);
        for d in 0..2 {
            let mut ldr = Loader::for_execution(DeviceId(d), 2, DataView::Standard);
            let sv = ldr.read_stencil(&f);
            g.for_each_cell(DeviceId(d), DataView::Standard, &mut |c| {
                for (slot, o) in g.union_offsets().to_vec().iter().enumerate() {
                    let (nx, ny, nz) = (c.x + o.dx, c.y + o.dy, c.z + o.dz);
                    let expect = if dim.contains(nx, ny, nz) {
                        (nx + 100 * ny + 10000 * nz) as f64
                    } else {
                        -1.0
                    };
                    assert_eq!(
                        sv.ngh(c, slot, 0),
                        expect,
                        "at ({},{},{}) slot {slot}",
                        c.x,
                        c.y,
                        c.z
                    );
                }
            });
        }
    }

    #[test]
    fn halo_counts_match_paper_structure() {
        let g = tall_grid(4);
        let scalar = g.halo_segments(1, MemLayout::SoA).len();
        assert!(scalar <= 2 * 3);
        assert_eq!(g.halo_segments(2, MemLayout::SoA).len(), scalar * 2);
        assert_eq!(g.halo_segments(2, MemLayout::AoS).len(), scalar);
    }

    /// The `MemLayout` doc claim — SoA needs `2·card` transfers per
    /// partition pair, AoS needs 2 — asserted on the *block-sparse* grid
    /// (the dense and element-sparse grids assert it in their own tests).
    #[test]
    fn halo_transfers_per_pair_match_layout_claim() {
        use std::collections::HashMap;
        let g = tall_grid(4);
        for (layout, card) in [
            (MemLayout::SoA, 1),
            (MemLayout::SoA, 3),
            (MemLayout::AoS, 3),
        ] {
            let mut per_pair: HashMap<(usize, usize), usize> = HashMap::new();
            for s in g.halo_segments(card, layout) {
                *per_pair.entry((s.src.0, s.dst.0)).or_default() += 1;
            }
            assert!(
                !per_pair.is_empty(),
                "tall_grid(4) spans several partitions"
            );
            // Each ordered pair carries one directed half of the exchange,
            // so an unordered pair totals `halo_transfers_per_pair`.
            for (&(src, dst), &n) in &per_pair {
                assert_eq!(
                    n,
                    layout.halo_transfers_per_pair(card) / 2,
                    "{}→{} under {:?} card {}",
                    src,
                    dst,
                    layout,
                    card
                );
            }
        }
    }

    #[test]
    fn metadata_is_lighter_than_element_sparse() {
        let b = Backend::dgx_a100(1);
        let st = Stencil::twenty_seven_point();
        let dim = Dim3::cube(16);
        let before = b.ledger(DeviceId(0)).in_use();
        let bs =
            BlockSparseGrid::new(&b, dim, 4, &[&st], |_, _, _| true, StorageMode::Real).unwrap();
        let bs_meta = b.ledger(DeviceId(0)).in_use() - before;
        let before2 = b.ledger(DeviceId(0)).in_use();
        let es = crate::sparse::SparseGrid::new(&b, dim, &[&st], |_, _, _| true, StorageMode::Real)
            .unwrap();
        let es_meta = b.ledger(DeviceId(0)).in_use() - before2;
        assert!(
            bs_meta * 10 < es_meta,
            "block metadata {bs_meta} should be ≫ lighter than element-sparse {es_meta}"
        );
        assert_eq!(bs.active_cells(), es.active_cells());
    }

    #[test]
    fn virtual_mode_counts_match_real() {
        let b = Backend::dgx_a100(2);
        let st = Stencil::seven_point();
        let dim = Dim3::cube(16);
        let mask = ball(dim, 6.5);
        let real = BlockSparseGrid::new(&b, dim, 4, &[&st], mask, StorageMode::Real).unwrap();
        let virt = BlockSparseGrid::new(&b, dim, 4, &[&st], mask, StorageMode::Virtual).unwrap();
        for d in 0..2 {
            for v in [DataView::Standard, DataView::Internal, DataView::Boundary] {
                assert_eq!(
                    real.cell_count(DeviceId(d), v),
                    virt.cell_count(DeviceId(d), v)
                );
            }
            assert_eq!(real.alloc_len(DeviceId(d)), virt.alloc_len(DeviceId(d)));
        }
        assert_eq!(
            real.halo_segments(3, MemLayout::SoA),
            virt.halo_segments(3, MemLayout::SoA)
        );
    }

    #[test]
    fn ghost_rings_walk_halo_block_layers() {
        let g = grid(2);
        let dim = g.dim();
        for d in 0..2 {
            let dev = DeviceId(d);
            let p = &g.inner.parts[d];
            let (zlo, zhi) = (p.bz0 * g.block_edge(), (p.bz1 * g.block_edge()).min(dim.z));
            let mut total = 0u64;
            for level in 1..=g.block_edge() {
                g.for_each_ghost_ring(dev, level, &mut |c| {
                    // Exactly `level` layers outside the owned slab, inside
                    // the domain, indexed into a halo block.
                    assert!(
                        c.z == zlo as i32 - level as i32 || c.z == (zhi - 1 + level) as i32,
                        "ring {level} cell at z={}",
                        c.z
                    );
                    assert!(dim.contains(c.x, c.y, c.z));
                    let bi = c.lin / g.cells_per_block() as u32;
                    assert!(bi >= p.n_owned() && bi < p.n_stored());
                    total += 1;
                });
            }
            // Every in-domain cell of every halo block is in exactly one
            // ring (halo blocks span one full block layer per side).
            let halo_in_domain: u64 = p.origins[p.n_owned() as usize..p.n_stored() as usize]
                .iter()
                .map(|&(bx, by, bz)| {
                    let b = g.block_edge() as i32;
                    let cx = (dim.x as i32 - bx * b).clamp(0, b) as u64;
                    let cy = (dim.y as i32 - by * b).clamp(0, b) as u64;
                    let cz = (dim.z as i32 - bz * b).clamp(0, b) as u64;
                    cx * cy * cz
                })
                .sum();
            assert_eq!(total, halo_in_domain);
            g.for_each_ghost_ring(dev, g.block_edge() + 1, &mut |_| {
                panic!("ring beyond stored halo blocks")
            });
        }
    }

    #[test]
    fn radius_bigger_than_block_rejected() {
        let b = Backend::dgx_a100(1);
        let st = Stencil::star(3);
        assert!(BlockSparseGrid::new(
            &b,
            Dim3::cube(16),
            2,
            &[&st],
            |_, _, _| true,
            StorageMode::Real
        )
        .is_err());
    }

    #[test]
    fn one_layer_partition_between_two_neighbours_rejected() {
        let st = Stencil::seven_point();
        // Three block layers over three devices: the middle partition's
        // one layer would be both its low and its high boundary.
        let b = Backend::dgx_a100(3);
        let err = BlockSparseGrid::new(
            &b,
            Dim3::cube(12),
            4,
            &[&st],
            |_, _, _| true,
            StorageMode::Real,
        );
        assert!(
            matches!(err, Err(NeonSysError::InvalidConfig { ref what }) if what.contains("too thin")),
            "{err:?}"
        );
        // One layer with one neighbour is fine, and counts each block once.
        let b = Backend::dgx_a100(2);
        let g = BlockSparseGrid::new(
            &b,
            Dim3::cube(8),
            4,
            &[&st],
            |_, _, _| true,
            StorageMode::Real,
        )
        .unwrap();
        let iterated: u64 = (0..2)
            .map(|d| {
                let mut n = 0;
                g.for_each_cell(DeviceId(d), DataView::Standard, &mut |_| n += 1);
                n
            })
            .sum();
        assert_eq!(iterated, 8 * 8 * 8);
    }

    /// The grid built on the sparse core against the hash-map block build
    /// it replaced.
    mod oracle {
        use std::collections::HashMap;

        use proptest::prelude::*;

        use super::*;
        use crate::grid::weighted_slab_partition;

        /// One partition as the hash-map build made it.
        struct Part {
            bz0: usize,
            bz1: usize,
            /// Blocks per class, in storage order.
            counts: [u32; 5],
            origins: Vec<(i32, i32, i32)>,
            block_conn: Vec<u32>,
            lookup: HashMap<(i32, i32, i32), u32>,
            /// In-domain cells per owned block.
            cells_in_domain: Vec<u32>,
        }

        impl Part {
            fn n_owned(&self) -> u32 {
                self.counts[..3].iter().sum()
            }
            fn n_stored(&self) -> u32 {
                self.counts.iter().sum()
            }
        }

        /// The partitions the hash-map build made, or `None` where it
        /// rejected the grid (no active block, or a partition too thin).
        fn oracle_parts(
            dim: Dim3,
            block: usize,
            n: usize,
            mask: &impl Fn(i32, i32, i32) -> bool,
        ) -> Option<Vec<Part>> {
            let b = block as i32;
            let block_active = |bx: i32, by: i32, bz: i32| -> bool {
                for z in 0..b {
                    for y in 0..b {
                        for x in 0..b {
                            let (gx, gy, gz) = (bx * b + x, by * b + y, bz * b + z);
                            if dim.contains(gx, gy, gz) && mask(gx, gy, gz) {
                                return true;
                            }
                        }
                    }
                }
                false
            };
            let (nbx, nby, nbz) = (
                dim.x.div_ceil(block),
                dim.y.div_ceil(block),
                dim.z.div_ceil(block),
            );
            let collect = |bza: i64, bzb: i64| -> Vec<(i32, i32, i32)> {
                let (bza, bzb) = (bza.max(0) as usize, (bzb.max(0) as usize).min(nbz));
                let mut v = Vec::new();
                for bz in bza..bzb {
                    for by in 0..nby as i32 {
                        for bx in 0..nbx as i32 {
                            if block_active(bx, by, bz as i32) {
                                v.push((bx, by, bz as i32));
                            }
                        }
                    }
                }
                v
            };
            let weights: Vec<u64> = (0..nbz)
                .map(|bz| collect(bz as i64, bz as i64 + 1).len() as u64)
                .collect();
            if weights.iter().all(|&w| w == 0) {
                return None;
            }
            let mut parts = Vec::new();
            for (p, (bz0, bz1)) in weighted_slab_partition(&weights, n).into_iter().enumerate() {
                let (lo, hi) = (i64::from(p > 0), i64::from(p + 1 < n));
                if (lo + hi) as usize > bz1 - bz0 {
                    return None;
                }
                let (z0, z1) = (bz0 as i64, bz1 as i64);
                let classes = [
                    collect(z0 + lo, z1 - hi),
                    if lo > 0 {
                        collect(z0, z0 + 1)
                    } else {
                        Vec::new()
                    },
                    if hi > 0 {
                        collect(z1 - 1, z1)
                    } else {
                        Vec::new()
                    },
                    if lo > 0 {
                        collect(z0 - 1, z0)
                    } else {
                        Vec::new()
                    },
                    if hi > 0 {
                        collect(z1, z1 + 1)
                    } else {
                        Vec::new()
                    },
                ];
                let counts = classes.each_ref().map(|c| c.len() as u32);
                let origins = classes.concat();
                let n_owned = counts[..3].iter().sum::<u32>() as usize;
                let lookup: HashMap<(i32, i32, i32), u32> = origins
                    .iter()
                    .enumerate()
                    .map(|(i, &o)| (o, i as u32))
                    .collect();
                let mut block_conn = vec![BLOCK_NONE; n_owned * 27];
                for (i, &(bx, by, bz)) in origins[..n_owned].iter().enumerate() {
                    for dz in -1..=1i32 {
                        for dy in -1..=1i32 {
                            for dx in -1..=1i32 {
                                let s = ((dx + 1) + 3 * (dy + 1) + 9 * (dz + 1)) as usize;
                                if let Some(&t) = lookup.get(&(bx + dx, by + dy, bz + dz)) {
                                    block_conn[i * 27 + s] = t;
                                }
                            }
                        }
                    }
                }
                let in_domain = |o: i32, extent: usize| (extent as i32 - o * b).clamp(0, b) as u32;
                let cells_in_domain = origins[..n_owned]
                    .iter()
                    .map(|&(bx, by, bz)| {
                        in_domain(bx, dim.x) * in_domain(by, dim.y) * in_domain(bz, dim.z)
                    })
                    .collect();
                parts.push(Part {
                    bz0,
                    bz1,
                    counts,
                    origins,
                    block_conn,
                    lookup,
                    cells_in_domain,
                });
            }
            Some(parts)
        }

        /// The halo segments of the hash-map build.
        fn oracle_segments(
            parts: &[Part],
            bpb: usize,
            card: usize,
            layout: MemLayout,
        ) -> Vec<HaloSegment> {
            let mut segs = Vec::new();
            for i in 0..parts.len().saturating_sub(1) {
                let (lo, hi) = (DeviceId(i), DeviceId(i + 1));
                let (plo, phi) = (&parts[i], &parts[i + 1]);
                let up_src = (plo.counts[0] + plo.counts[1]) as usize * bpb;
                let up_dst = phi.n_owned() as usize * bpb;
                let up_len = plo.counts[2] as usize * bpb;
                let dn_src = phi.counts[0] as usize * bpb;
                let dn_dst = (plo.n_owned() + plo.counts[3]) as usize * bpb;
                let dn_len = phi.counts[1] as usize * bpb;
                let mut push = |src, dst, src_off, dst_off, len| {
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
                        let stride_lo = plo.n_stored() as usize * bpb;
                        let stride_hi = phi.n_stored() as usize * bpb;
                        for c in 0..card {
                            let (a, b) = (c * stride_lo, c * stride_hi);
                            push(lo, hi, a + up_src, b + up_dst, up_len);
                            push(hi, lo, b + dn_src, a + dn_dst, dn_len);
                        }
                    }
                    MemLayout::AoS => {
                        push(lo, hi, up_src * card, up_dst * card, up_len * card);
                        push(hi, lo, dn_src * card, dn_dst * card, dn_len * card);
                    }
                }
            }
            segs
        }

        /// Ring `level` of partition `part` as the hash-map build walked it:
        /// one intra-block layer of every halo block, in-domain cells only.
        fn oracle_ring(part: &Part, dim: Dim3, block: usize, level: usize) -> Vec<Cell> {
            let mut ring = Vec::new();
            if level > block {
                return ring;
            }
            let b = block as i32;
            let bpb = (b * b * b) as u32;
            let (owned, halo_lo_end) = (part.n_owned(), part.n_owned() + part.counts[3]);
            let mut scan_layer = |range: std::ops::Range<u32>, iz: i32| {
                for bi in range {
                    let (bx, by, bz) = part.origins[bi as usize];
                    let gz = bz * b + iz;
                    for y in 0..b {
                        for x in 0..b {
                            let (gx, gy) = (bx * b + x, by * b + y);
                            if dim.contains(gx, gy, gz) {
                                let intra = ((iz * b + y) * b + x) as u32;
                                ring.push(Cell::new(bi * bpb + intra, gx, gy, gz));
                            }
                        }
                    }
                }
            };
            scan_layer(owned..halo_lo_end, b - level as i32);
            scan_layer(halo_lo_end..part.n_stored(), level as i32 - 1);
            ring
        }

        /// `locate` as the hash-map build answered it.
        fn oracle_locate(
            parts: &[Part],
            dim: Dim3,
            block: usize,
            (x, y, z): (i32, i32, i32),
        ) -> Option<(DeviceId, u32)> {
            if !dim.contains(x, y, z) {
                return None;
            }
            let b = block as i32;
            let (bx, by, bz) = (x.div_euclid(b), y.div_euclid(b), z.div_euclid(b));
            let dev = parts
                .iter()
                .position(|p| (p.bz0..p.bz1).contains(&(bz as usize)))?;
            let part = &parts[dev];
            let bi = *part.lookup.get(&(bx, by, bz))?;
            if bi >= part.n_owned() {
                return None;
            }
            let intra = ((z.rem_euclid(b) * b + y.rem_euclid(b)) * b + x.rem_euclid(b)) as u32;
            Some((DeviceId(dev), bi * (b * b * b) as u32 + intra))
        }

        /// An axis-aligned box of removed cells: x, y and z ranges.
        type Hole = ((i32, i32), (i32, i32), (i32, i32));

        /// A random mask: the full box, the box with holes, or a speckle of
        /// isolated cells at one in `density`.
        #[derive(Debug, Clone)]
        struct Mask {
            kind: usize,
            seed: u64,
            density: u64,
            holes: Vec<Hole>,
        }

        impl Mask {
            fn active(&self, x: i32, y: i32, z: i32) -> bool {
                match self.kind {
                    0 => true,
                    1 => !self.holes.iter().any(|&((x0, x1), (y0, y1), (z0, z1))| {
                        (x0..x1).contains(&x) && (y0..y1).contains(&y) && (z0..z1).contains(&z)
                    }),
                    _ => {
                        let h = (x as u64)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add((y as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
                            .wrapping_add((z as u64).wrapping_mul(0x1656_67b1_9e37_79f9))
                            ^ self.seed;
                        (h.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32).is_multiple_of(self.density)
                    }
                }
            }
        }

        fn masks() -> impl Strategy<Value = Mask> {
            let hole = (0i32..12, 1i32..9, 0i32..12, 1i32..9, 0i32..24, 1i32..9)
                .prop_map(|(x, dx, y, dy, z, dz)| ((x, x + dx), (y, y + dy), (z, z + dz)));
            (
                0usize..3,
                any::<u64>(),
                1u64..200,
                prop::collection::vec(hole, 0..5),
            )
                .prop_map(|(kind, seed, density, holes)| Mask {
                    kind,
                    seed,
                    density,
                    holes,
                })
        }

        /// Rings `1..=B + 1` of partition `dev`, the last past the stored
        /// halo blocks.
        fn rings(g: &BlockSparseGrid, dev: DeviceId) -> Vec<Vec<Cell>> {
            (1..=g.block_edge() + 1)
                .map(|level| {
                    let mut ring = Vec::new();
                    g.for_each_ghost_ring(dev, level, &mut |c| ring.push(c));
                    ring
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]

            #[test]
            fn sparse_core_build_equals_the_hash_map_build(
                mask in masks(),
                size in (1usize..14, 1usize..14, 2usize..26),
                block in 2usize..=4,
                n_dev in 1usize..=4,
                stencil in 0usize..4,
            ) {
                let dim = Dim3::new(size.0, size.1, size.2);
                prop_assume!(dim.z.div_ceil(block) >= n_dev);
                let stencil = match stencil {
                    0 => Stencil::seven_point(),
                    1 => Stencil::d3q19(),
                    2 => Stencil::twenty_seven_point(),
                    _ => Stencil::star(2),
                };
                let active = |x, y, z| mask.active(x, y, z);
                let want = oracle_parts(dim, block, n_dev, &active);
                let bpb = block * block * block;
                for mode in [StorageMode::Real, StorageMode::Virtual] {
                    let backend = Backend::dgx_a100(n_dev);
                    let built = BlockSparseGrid::new(&backend, dim, block, &[&stencil], active, mode);
                    prop_assert_eq!(built.is_ok(), want.is_some(), "{:?}: accepted", mode);
                    let (Ok(g), Some(want)) = (built, want.as_ref()) else { continue };
                    let real = mode == StorageMode::Real;
                    for (p, (part, w)) in g.inner.parts.iter().zip(want).enumerate() {
                        let dev = DeviceId(p);
                        let c = part.classes;
                        prop_assert_eq!((part.bz0, part.bz1), (w.bz0, w.bz1));
                        prop_assert_eq!(
                            [c.n_int, c.n_bnd_lo, c.n_bnd_hi, c.n_halo_lo, c.n_halo_hi],
                            w.counts,
                            "{:?}: classes of partition {}", mode, p
                        );
                        if real {
                            prop_assert_eq!(&part.origins, &w.origins, "origins of {}", p);
                            prop_assert_eq!(&part.block_conn[..], &w.block_conn[..], "conn of {}", p);
                        } else {
                            prop_assert!(part.origins.is_empty() && part.block_conn.is_empty());
                        }
                        let cells = |r: std::ops::Range<u32>| -> u64 {
                            w.cells_in_domain[r.start as usize..r.end as usize]
                                .iter()
                                .map(|&c| c as u64)
                                .sum()
                        };
                        let n_int = w.counts[0];
                        prop_assert_eq!(g.cell_count(dev, DataView::Standard), cells(0..w.n_owned()));
                        prop_assert_eq!(g.cell_count(dev, DataView::Internal), cells(0..n_int));
                        prop_assert_eq!(
                            g.cell_count(dev, DataView::Boundary),
                            cells(n_int..w.n_owned())
                        );
                        prop_assert_eq!(g.alloc_len(dev), w.n_stored() as usize * bpb);
                        prop_assert_eq!(
                            backend.ledger(dev).in_use(),
                            w.n_stored() as u64 * (27 * 4 + 12),
                            "{:?}: ledger of {}", mode, p
                        );
                        let want_rings: Vec<Vec<Cell>> = (1..=block + 1)
                            .map(|level| if real { oracle_ring(w, dim, block, level) } else { Vec::new() })
                            .collect();
                        prop_assert_eq!(rings(&g, dev), want_rings, "{:?}: rings of {}", mode, p);
                    }
                    let total: u64 = want.iter().flat_map(|w| &w.cells_in_domain).map(|&c| c as u64).sum();
                    prop_assert_eq!(g.active_cells(), total);
                    for (card, layout) in [(1, MemLayout::SoA), (3, MemLayout::SoA), (3, MemLayout::AoS)] {
                        prop_assert_eq!(
                            g.halo_segments(card, layout),
                            oracle_segments(want, bpb, card, layout),
                            "{:?}: {} × {:?}", mode, card, layout
                        );
                    }
                    for z in -1..=dim.z as i32 {
                        for y in -1..=dim.y as i32 {
                            for x in -1..=dim.x as i32 {
                                let at = if real { oracle_locate(want, dim, block, (x, y, z)) } else { None };
                                prop_assert_eq!(g.locate(x, y, z), at, "{:?}: locate({}, {}, {})", mode, x, y, z);
                            }
                        }
                    }
                }
            }
        }
    }
}
