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
//! Layout per partition mirrors the element-sparse grid at block
//! granularity: `[internal | boundary-low | boundary-high | halo-low |
//! halo-high]` blocks, each `B³` cells, so halo updates are again two
//! contiguous copies per partition pair (× cardinality for SoA). The
//! halo radius must not exceed `B` (one block layer of halo).
//!
//! Block-level activity means a cell is iterated iff its block is active
//! *and* it lies inside the domain box; mask-inactive cells inside an
//! active block are computed as padding (their values are whatever the
//! kernels produce — the usual bGrid contract).

use std::collections::HashMap;
use std::sync::Arc;

use neon_set::{Cell, DataView, Elem, IterationSpace, Span, StorageMode, Sweep};
use neon_sys::{AllocationTicket, Backend, DeviceId, NeonSysError, Result};

use crate::grid::{weighted_slab_partition, Dim3, FieldParts, GridLike};
use crate::layout::MemLayout;
use crate::stencil::{union_offsets, Offset3, Stencil};
use crate::view::{FieldRead, FieldStencil, HaloSegment, PartRead};

/// Block-connectivity sentinel: the neighbouring block is inactive.
pub const BLOCK_NONE: u32 = u32::MAX;

#[derive(Debug)]
struct BlockPart {
    /// Owned global block-layer range `[bz0, bz1)`.
    bz0: usize,
    bz1: usize,
    n_int: u32,
    n_bnd_lo: u32,
    n_bnd_hi: u32,
    n_halo_lo: u32,
    n_halo_hi: u32,
    /// Origins (block coords) of stored blocks, class-ordered.
    origins: Vec<(i32, i32, i32)>,
    /// `stored × 27` block neighbour table (3×3×3, index `(dx+1) +
    /// 3(dy+1) + 9(dz+1)`), defined for owned blocks. Shared with the
    /// stencil views, which index it directly.
    block_conn: Arc<[u32]>,
    /// Block coords → local block id (owned + halo).
    lookup: HashMap<(i32, i32, i32), u32>,
    /// In-domain cell count per owned block (padding excluded).
    cells_in_domain: Vec<u32>,
    _tickets: Vec<AllocationTicket>,
}

impl BlockPart {
    fn n_owned(&self) -> u32 {
        self.n_int + self.n_bnd_lo + self.n_bnd_hi
    }
    fn n_stored(&self) -> u32 {
        self.n_owned() + self.n_halo_lo + self.n_halo_hi
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
        let nbx = dim.x.div_ceil(block);
        let nby = dim.y.div_ceil(block);
        let nbz = dim.z.div_ceil(block);
        if nbz < n {
            return Err(NeonSysError::InvalidConfig {
                what: format!("{dim} has fewer block layers ({nbz}) than the {n} devices"),
            });
        }

        // Which blocks are active, and active blocks per block-layer.
        let block_active = |bx: i32, by: i32, bz: i32| -> bool {
            for z in 0..block as i32 {
                for y in 0..block as i32 {
                    for x in 0..block as i32 {
                        let (gx, gy, gz) = (
                            bx * block as i32 + x,
                            by * block as i32 + y,
                            bz * block as i32 + z,
                        );
                        if dim.contains(gx, gy, gz) && mask(gx, gy, gz) {
                            return true;
                        }
                    }
                }
            }
            false
        };
        let mut layer_weights = vec![0u64; nbz];
        let mut any = false;
        for (bz, w) in layer_weights.iter_mut().enumerate() {
            for by in 0..nby as i32 {
                for bx in 0..nbx as i32 {
                    if block_active(bx, by, bz as i32) {
                        *w += 1;
                        any = true;
                    }
                }
            }
        }
        if !any {
            return Err(NeonSysError::InvalidConfig {
                what: "block-sparse grid has no active blocks".to_string(),
            });
        }
        let slabs = weighted_slab_partition(&layer_weights, n);

        // In-domain cell count of one block.
        let in_domain_count = |bx: i32, by: i32, bz: i32| -> u32 {
            let cx = (dim.x as i32 - bx * block as i32).clamp(0, block as i32);
            let cy = (dim.y as i32 - by * block as i32).clamp(0, block as i32);
            let cz = (dim.z as i32 - bz * block as i32).clamp(0, block as i32);
            (cx * cy * cz) as u32
        };

        let collect = |bza: i64, bzb: i64| -> Vec<(i32, i32, i32)> {
            let bza = bza.max(0) as usize;
            let bzb = (bzb.max(0) as usize).min(nbz);
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

        let mut parts = Vec::with_capacity(n);
        let mut active_cells = 0u64;
        for (p, &(bz0, bz1)) in slabs.iter().enumerate() {
            let has_lo = p > 0;
            let has_hi = p + 1 < n;
            // Each neighbour takes one block layer as boundary; a single
            // layer cannot be both boundaries without being counted twice.
            if usize::from(has_lo) + usize::from(has_hi) > bz1 - bz0 {
                return Err(NeonSysError::InvalidConfig {
                    what: format!(
                        "block-sparse partition of block layers [{bz0}, {bz1}) too thin \
                         for a boundary layer on both sides"
                    ),
                });
            }
            let internal = collect(
                bz0 as i64 + i64::from(has_lo),
                bz1 as i64 - i64::from(has_hi),
            );
            let bnd_lo = if has_lo {
                collect(bz0 as i64, bz0 as i64 + 1)
            } else {
                Vec::new()
            };
            let bnd_hi = if has_hi {
                collect(bz1 as i64 - 1, bz1 as i64)
            } else {
                Vec::new()
            };
            let halo_lo = if has_lo {
                collect(bz0 as i64 - 1, bz0 as i64)
            } else {
                Vec::new()
            };
            let halo_hi = if has_hi {
                collect(bz1 as i64, bz1 as i64 + 1)
            } else {
                Vec::new()
            };
            let (n_int, n_bnd_lo, n_bnd_hi) = (
                internal.len() as u32,
                bnd_lo.len() as u32,
                bnd_hi.len() as u32,
            );
            let (n_halo_lo, n_halo_hi) = (halo_lo.len() as u32, halo_hi.len() as u32);

            let mut origins = internal;
            origins.extend(bnd_lo);
            origins.extend(bnd_hi);
            let n_owned = origins.len();
            origins.extend(halo_lo);
            origins.extend(halo_hi);
            let n_stored = origins.len();

            let dev = DeviceId(p);
            // Account block metadata: 27×u32 connectivity + 3×i32 origin
            // per stored block.
            let tickets = vec![
                backend.ledger(dev).alloc(n_stored as u64 * 27 * 4)?,
                backend.ledger(dev).alloc(n_stored as u64 * 12)?,
            ];

            let (lookup, block_conn, cells_in_domain);
            if mode == StorageMode::Real {
                let lk: HashMap<(i32, i32, i32), u32> = origins
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| (b, i as u32))
                    .collect();
                let mut table: Arc<[u32]> = std::iter::repeat_n(BLOCK_NONE, n_owned * 27).collect();
                let conn = Arc::get_mut(&mut table).expect("freshly built table is unshared");
                for (i, &(bx, by, bz)) in origins[..n_owned].iter().enumerate() {
                    for dz in -1..=1i32 {
                        for dy in -1..=1i32 {
                            for dx in -1..=1i32 {
                                let s = ((dx + 1) + 3 * (dy + 1) + 9 * (dz + 1)) as usize;
                                if let Some(&t) = lk.get(&(bx + dx, by + dy, bz + dz)) {
                                    conn[i * 27 + s] = t;
                                }
                            }
                        }
                    }
                }
                let cid: Vec<u32> = origins[..n_owned]
                    .iter()
                    .map(|&(bx, by, bz)| in_domain_count(bx, by, bz))
                    .collect();
                lookup = lk;
                block_conn = table;
                cells_in_domain = cid;
            } else {
                // Virtual mode keeps only counts; compute the per-class
                // in-domain totals directly from the origins we already
                // gathered (then drop them).
                lookup = HashMap::new();
                block_conn = Arc::default();
                cells_in_domain = origins[..n_owned]
                    .iter()
                    .map(|&(bx, by, bz)| in_domain_count(bx, by, bz))
                    .collect();
            }
            active_cells += cells_in_domain.iter().map(|&c| c as u64).sum::<u64>();

            parts.push(BlockPart {
                bz0,
                bz1,
                n_int,
                n_bnd_lo,
                n_bnd_hi,
                n_halo_lo,
                n_halo_hi,
                origins: if mode == StorageMode::Real {
                    origins
                } else {
                    Vec::new()
                },
                block_conn,
                lookup,
                cells_in_domain,
                _tickets: tickets,
            });
        }
        for p in 0..n.saturating_sub(1) {
            assert_eq!(parts[p].n_bnd_hi, parts[p + 1].n_halo_lo);
            assert_eq!(parts[p + 1].n_bnd_lo, parts[p].n_halo_hi);
        }

        Ok(BlockSparseGrid {
            inner: Arc::new(BlockInner {
                backend: backend.clone(),
                dim,
                block,
                radius,
                offsets: Arc::new(offsets),
                mode,
                parts,
                active_cells,
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

    fn class_range(&self, dev: DeviceId, view: DataView) -> (u32, u32) {
        let p = self.part(dev);
        match view {
            DataView::Standard => (0, p.n_owned()),
            DataView::Internal => (0, p.n_int),
            DataView::Boundary => (p.n_int, p.n_owned()),
        }
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
        let (a, b) = self.class_range(dev, view);
        let p = self.part(dev);
        p.cells_in_domain[a as usize..b as usize]
            .iter()
            .map(|&c| c as u64)
            .sum()
    }

    fn for_each_span(&self, dev: DeviceId, sweep: Sweep, f: &mut dyn FnMut(&Span)) {
        assert!(
            self.inner.mode == StorageMode::Real,
            "block-sparse grid has virtual storage"
        );
        let p = self.part(dev);
        let dim = self.inner.dim;
        let bb = self.inner.block;
        let (a, b) = self.class_range(dev, sweep.region.owned_view());
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
        if self.inner.radius == 0 || self.inner.parts.len() == 1 {
            return Vec::new();
        }
        let bpb = self.cells_per_block();
        let mut segs = Vec::new();
        for i in 0..self.inner.parts.len() - 1 {
            let lo = DeviceId(i);
            let hi = DeviceId(i + 1);
            let plo = self.part(lo);
            let phi = self.part(hi);
            let up_src = (plo.n_int + plo.n_bnd_lo) as usize * bpb;
            let up_dst = phi.n_owned() as usize * bpb;
            let up_len = plo.n_bnd_hi as usize * bpb;
            let dn_src = phi.n_int as usize * bpb;
            let dn_dst = (plo.n_owned() + plo.n_halo_lo) as usize * bpb;
            let dn_len = phi.n_bnd_lo as usize * bpb;
            match layout {
                MemLayout::SoA => {
                    let stride_lo = self.alloc_len(lo);
                    let stride_hi = self.alloc_len(hi);
                    for c in 0..card {
                        if up_len > 0 {
                            segs.push(HaloSegment {
                                src: lo,
                                dst: hi,
                                src_off: c * stride_lo + up_src,
                                dst_off: c * stride_hi + up_dst,
                                len: up_len,
                            });
                        }
                        if dn_len > 0 {
                            segs.push(HaloSegment {
                                src: hi,
                                dst: lo,
                                src_off: c * stride_hi + dn_src,
                                dst_off: c * stride_lo + dn_dst,
                                len: dn_len,
                            });
                        }
                    }
                }
                MemLayout::AoS => {
                    if up_len > 0 {
                        segs.push(HaloSegment {
                            src: lo,
                            dst: hi,
                            src_off: up_src * card,
                            dst_off: up_dst * card,
                            len: up_len * card,
                        });
                    }
                    if dn_len > 0 {
                        segs.push(HaloSegment {
                            src: hi,
                            dst: lo,
                            src_off: dn_src * card,
                            dst_off: dn_dst * card,
                            len: dn_len * card,
                        });
                    }
                }
            }
        }
        segs
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
        let halo_lo_end = owned + p.n_halo_lo;
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
        let bi = *part.lookup.get(&(bx, by, bz))?;
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
}
