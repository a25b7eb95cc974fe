//! The element-sparse grid: only active cells are stored, with an explicit
//! connectivity table.
//!
//! The paper's second grid representation (§IV-C2). Cells of interest are
//! selected by a user mask; each partition stores its owned cells in class
//! order
//!
//! ```text
//! [ internal | boundary-low | boundary-high | halo-low | halo-high ]
//! ```
//!
//! so that the cells a neighbour needs (boundary) and the cells received
//! from a neighbour (halo) are contiguous — one copy per direction per
//! partition (times cardinality for SoA), exactly like the dense grid.
//!
//! Neighbour access goes through a per-cell **connectivity table**
//! (`owned_cells × slots` entries): entry `u32::MAX` means the neighbour
//! is inactive or outside, anything else is the local index of the
//! neighbour (owned or halo). The table's memory footprint and per-access
//! traffic are the sparse grid's overhead versus the dense grid — the
//! trade-off Fig. 9 of the paper explores.
//!
//! Iteration emits the x-runs of the class-ordered cell list as [`Span`]s
//! (cells consecutive in `x` are consecutive in storage). A
//! stencil-reading sweep cuts them where the per-cell *interior* bit
//! changes: a cell is interior when every entry of its connectivity row
//! names a stored cell. Run boundaries and bits are found once, at
//! construction. A row lies in one class (classes are z-ranges) and every
//! class is stored in (z, y, x) order, so the neighbours of an interior
//! run at one slot are consecutive stored cells: the stencil view hands
//! them out as one neighbour row, like the dense grid's. Any other sweep
//! gets each maximal x-run of a class as one span, merged from the cut
//! runs as they are emitted.
//!
//! Partitioning balances **active** cells per device: z-slabs are chosen
//! by per-layer active counts ([`crate::grid::weighted_slab_partition`]).
//!
//! The tables are built without hashing. Each partition first collects its
//! cells, class by class, from the mask. One pass over that list then fills
//! a dense **slab index**: one `u32` per box cell of the stored layers
//! (owned plus halo), holding the cell's local index or [`SPARSE_NONE`].
//! A cell at least the stencil's reach away from the box faces and from
//! the slab's ends finds its neighbour at slot `s` at `index[base +
//! delta[s]]`, with the linear deltas computed once per partition; the cells
//! near a face or a slab end take a bounds-checked lookup. The x-runs are
//! cut in the same pass. The index costs 4 B per box cell of the slab,
//! active or not (about 0.46 MB over both partitions of a 48³ box on two
//! devices). It stays with the partition, so [`GridLike::locate`], the
//! host's `Field::get`/`set`, is O(1). It is host memory and is not charged
//! to the device ledger. A grid with virtual storage builds no index.

use std::sync::Arc;

use neon_set::{Cell, DataView, Elem, IterationSpace, Span, StorageMode, Sweep};
use neon_sys::{AllocationTicket, Backend, DeviceId, NeonSysError, Result};

use crate::grid::{weighted_slab_partition, Dim3, FieldParts, GridLike};
use crate::layout::MemLayout;
use crate::stencil::{union_offsets, Offset3, Stencil};
use crate::view::{FieldRead, FieldStencil, HaloSegment, Lanes, PartRead, Stride};

/// Connectivity sentinel: neighbour is inactive or outside the domain.
pub const SPARSE_NONE: u32 = u32::MAX;

#[derive(Debug)]
struct SparsePart {
    z0: usize,
    z1: usize,
    n_int: u32,
    n_bnd_lo: u32,
    n_bnd_hi: u32,
    n_halo_lo: u32,
    n_halo_hi: u32,
    /// Coordinates of stored cells (owned then halo), class-ordered.
    /// Empty in virtual mode.
    cells: Vec<(i32, i32, i32)>,
    /// Connectivity: `owned × slots` local indices. Empty in virtual mode.
    /// Shared with the stencil views, which index it directly.
    conn: Arc<[u32]>,
    /// Start index of every x-run of owned cells, in cell order, closed by
    /// `n_owned`. A run is maximal among cells of one class with the same
    /// interior bit. Empty in virtual mode.
    run_starts: Vec<u32>,
    /// Per run: whether every connectivity entry of every cell in it names
    /// a stored cell (the span's `interior` bit).
    run_interior: Vec<bool>,
    /// How many of the runs are internal cells.
    n_int_runs: usize,
    /// Host lookup from coords to local index (owned + halo cells).
    /// Empty in virtual mode.
    index: SlabIndex,
    /// Ledger registrations for connectivity + cell-coordinate storage.
    _tickets: Vec<AllocationTicket>,
}

impl SparsePart {
    fn n_owned(&self) -> u32 {
        self.n_int + self.n_bnd_lo + self.n_bnd_hi
    }
    fn n_halo(&self) -> u32 {
        self.n_halo_lo + self.n_halo_hi
    }
    fn n_stored(&self) -> u32 {
        self.n_owned() + self.n_halo()
    }
}

#[derive(Debug)]
struct SparseInner {
    backend: Backend,
    dim: Dim3,
    radius: usize,
    offsets: Arc<Vec<Offset3>>,
    mode: StorageMode,
    parts: Vec<SparsePart>,
    total_active: u64,
}

/// An element-sparse grid partitioned into active-cell-balanced z-slabs.
#[derive(Clone)]
pub struct SparseGrid {
    inner: Arc<SparseInner>,
}

impl std::fmt::Debug for SparseGrid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseGrid")
            .field("dim", &self.inner.dim)
            .field("active", &self.inner.total_active)
            .field("radius", &self.inner.radius)
            .field("partitions", &self.inner.parts.len())
            .finish()
    }
}

impl SparseGrid {
    /// Create a sparse grid over the cells where `mask` is true.
    pub fn new(
        backend: &Backend,
        dim: Dim3,
        stencils: &[&Stencil],
        mask: impl Fn(i32, i32, i32) -> bool,
        mode: StorageMode,
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
        let nslots = offsets.len();
        let radius = offsets
            .iter()
            .map(|o| o.dz.unsigned_abs() as usize)
            .max()
            .unwrap_or(0);

        // One mask pass: per-layer active counts (both modes).
        let mut layer_counts = vec![0u64; dim.z];
        for (z, count) in layer_counts.iter_mut().enumerate() {
            for y in 0..dim.y as i32 {
                for x in 0..dim.x as i32 {
                    if mask(x, y, z as i32) {
                        *count += 1;
                    }
                }
            }
        }
        let total_active: u64 = layer_counts.iter().sum();
        if total_active == 0 {
            return Err(NeonSysError::InvalidConfig {
                what: "sparse grid has no active cells".to_string(),
            });
        }
        let slabs = weighted_slab_partition(&layer_counts, n);

        let layer_sum =
            |a: usize, b: usize| -> u64 { layer_counts[a.min(dim.z)..b.min(dim.z)].iter().sum() };

        let mut parts = Vec::with_capacity(n);
        for (p, &(z0, z1)) in slabs.iter().enumerate() {
            let has_lo = p > 0;
            let has_hi = p + 1 < n;
            let nz = z1 - z0;
            if (has_lo as usize + has_hi as usize) * radius > nz {
                return Err(NeonSysError::InvalidConfig {
                    what: format!("sparse partition [{z0}, {z1}) too thin for radius {radius}"),
                });
            }
            let bl = if has_lo { radius } else { 0 };
            let bh = if has_hi { radius } else { 0 };
            // The stored slab: the owned layers and, toward each
            // neighbour, `radius` halo layers.
            let (z_lo, z_hi) = (z0 - bl, (z1 + bh).min(dim.z));
            let n_bnd_lo = layer_sum(z0, z0 + bl) as u32;
            let n_bnd_hi = layer_sum(z1 - bh, z1) as u32;
            // Guard against double counting when bl + bh == nz.
            let n_owned = layer_sum(z0, z1) as u32;
            let n_int = n_owned - n_bnd_lo - n_bnd_hi;
            let n_halo_lo = layer_sum(z_lo, z0) as u32;
            let n_halo_hi = layer_sum(z1, z_hi) as u32;
            let n_stored = (n_owned + n_halo_lo + n_halo_hi) as u64;

            // Account device memory: connectivity (u32 per slot per owned
            // cell) + stored-cell coordinates (3 × i32).
            let dev = DeviceId(p);
            let conn_bytes = n_owned as u64 * nslots as u64 * 4;
            let coord_bytes = n_stored * 12;
            let tickets = vec![
                backend.ledger(dev).alloc(conn_bytes)?,
                backend.ledger(dev).alloc(coord_bytes)?,
            ];

            let tables = if mode == StorageMode::Real {
                build_partition_tables(
                    dim,
                    &mask,
                    &offsets,
                    (z0, z1),
                    (bl, bh),
                    (z_lo, z_hi),
                    n_stored as usize,
                )
            } else {
                PartitionTables::default()
            };

            if mode == StorageMode::Real {
                debug_assert_eq!(tables.cells.len() as u64, n_stored);
            }
            if n_stored > u32::MAX as u64 {
                return Err(NeonSysError::InvalidConfig {
                    what: "sparse partition exceeds 32-bit cell indices".to_string(),
                });
            }

            parts.push(SparsePart {
                z0,
                z1,
                n_int,
                n_bnd_lo,
                n_bnd_hi,
                n_halo_lo,
                n_halo_hi,
                cells: tables.cells,
                conn: tables.conn,
                run_starts: tables.run_starts,
                run_interior: tables.run_interior,
                n_int_runs: tables.n_int_runs,
                index: tables.index,
                _tickets: tickets,
            });
        }

        // Cross-partition consistency: boundary/halo mirrors must agree.
        for p in 0..n.saturating_sub(1) {
            assert_eq!(
                parts[p].n_bnd_hi,
                parts[p + 1].n_halo_lo,
                "boundary/halo mismatch between partitions {p} and {}",
                p + 1
            );
            assert_eq!(parts[p + 1].n_bnd_lo, parts[p].n_halo_hi);
        }

        Ok(SparseGrid {
            inner: Arc::new(SparseInner {
                backend: backend.clone(),
                dim,
                radius,
                offsets: Arc::new(offsets),
                mode,
                parts,
                total_active,
            }),
        })
    }

    fn part(&self, dev: DeviceId) -> &SparsePart {
        &self.inner.parts[dev.0]
    }

    /// Owned z-range of device `dev`.
    pub fn owned_z_range(&self, dev: DeviceId) -> (usize, usize) {
        let p = self.part(dev);
        (p.z0, p.z1)
    }

    /// Number of stored (owned + halo) cells on `dev`.
    pub fn stored_cells(&self, dev: DeviceId) -> u64 {
        self.part(dev).n_stored() as u64
    }
}

/// Cell list, connectivity table, slab index and x-runs of one partition.
#[derive(Default)]
struct PartitionTables {
    cells: Vec<(i32, i32, i32)>,
    conn: Arc<[u32]>,
    index: SlabIndex,
    run_starts: Vec<u32>,
    run_interior: Vec<bool>,
    n_int_runs: usize,
}

/// Build the cell list, connectivity table, slab index and x-runs of one
/// partition: owned layers `z0..z1` with `bl`/`bh` boundary layers at the
/// ends, stored layers `z_lo..z_hi`, `n_stored` active cells among those.
fn build_partition_tables(
    dim: Dim3,
    mask: &impl Fn(i32, i32, i32) -> bool,
    offsets: &[Offset3],
    (z0, z1): (usize, usize),
    (bl, bh): (usize, usize),
    (z_lo, z_hi): (usize, usize),
    n_stored: usize,
) -> PartitionTables {
    let collect_range = |cells: &mut Vec<_>, za: usize, zb: usize| {
        for z in za..zb {
            for y in 0..dim.y as i32 {
                for x in 0..dim.x as i32 {
                    if mask(x, y, z as i32) {
                        cells.push((x, y, z as i32));
                    }
                }
            }
        }
    };
    let mut cells = Vec::with_capacity(n_stored);
    collect_range(&mut cells, z0 + bl, z1 - bh);
    let n_int = cells.len();
    collect_range(&mut cells, z0, z0 + bl);
    collect_range(&mut cells, z1 - bh, z1);
    let n_owned = cells.len();
    collect_range(&mut cells, z_lo, z0);
    collect_range(&mut cells, z1, z_hi);
    connect_partition(dim, offsets, cells, n_int, n_owned, (z_lo, z_hi))
}

/// Dense map from the coordinates of a partition's stored slab (box layers
/// `z_lo..z_hi`) to local indices, [`SPARSE_NONE`] where no cell is stored:
/// one `u32` per box cell of the slab. Empty in virtual mode, where every
/// lookup misses.
#[derive(Debug, Default)]
struct SlabIndex {
    nx: usize,
    ny: usize,
    z_lo: usize,
    z_hi: usize,
    slots: Vec<u32>,
}

impl SlabIndex {
    /// Index `cells`, which all lie in the slab, by their position.
    fn new(dim: Dim3, (z_lo, z_hi): (usize, usize), cells: &[(i32, i32, i32)]) -> Self {
        let mut index = SlabIndex {
            nx: dim.x,
            ny: dim.y,
            z_lo,
            z_hi,
            slots: vec![SPARSE_NONE; dim.x * dim.y * (z_hi - z_lo)],
        };
        for (i, &(x, y, z)) in cells.iter().enumerate() {
            let at = index.linear(x as usize, y as usize, z as usize);
            index.slots[at] = i as u32;
        }
        index
    }

    #[inline]
    fn linear(&self, x: usize, y: usize, z: usize) -> usize {
        ((z - self.z_lo) * self.ny + y) * self.nx + x
    }

    /// The local index of the stored cell at `(x, y, z)`, if any.
    fn get(&self, x: i32, y: i32, z: i32) -> Option<u32> {
        let inside = (0..self.nx as i32).contains(&x)
            && (0..self.ny as i32).contains(&y)
            && (self.z_lo as i32..self.z_hi as i32).contains(&z);
        if !inside {
            return None;
        }
        let i = self.slots[self.linear(x as usize, y as usize, z as usize)];
        (i != SPARSE_NONE).then_some(i)
    }
}

/// The connectivity table, slab index and x-runs of one partition's cells
/// (`n_int` internal, then boundary up to `n_owned`, then halo), all in the
/// box layers `slab`.
///
/// A neighbour is active iff it is stored: the halo holds every active
/// cell within `radius ≥ |dz|` layers of the owned slab. A cell at least
/// the stencil's reach away from every box face and from both ends of the
/// slab reads each neighbour at a fixed linear offset into the index; the
/// others take the bounds-checked lookup. Taking no mask keeps this
/// function out of the mask's generic instantiation, so it is compiled
/// once, here, and the grid's build time does not depend on how a caller's
/// crate is split for code generation.
fn connect_partition(
    dim: Dim3,
    offsets: &[Offset3],
    cells: Vec<(i32, i32, i32)>,
    n_int: usize,
    n_owned: usize,
    slab: (usize, usize),
) -> PartitionTables {
    let index = SlabIndex::new(dim, slab, &cells);
    let reach = |axis: fn(&Offset3) -> i32| {
        offsets
            .iter()
            .map(|o| axis(o).unsigned_abs() as usize)
            .max()
            .unwrap_or(0)
    };
    let (rx, ry, rz) = (reach(|o| o.dx), reach(|o| o.dy), reach(|o| o.dz));
    let (nx, ny) = (dim.x as isize, dim.y as isize);
    let delta: Vec<isize> = offsets
        .iter()
        .map(|o| (o.dz as isize * ny + o.dy as isize) * nx + o.dx as isize)
        .collect();

    let nslots = offsets.len();
    let mut conn_table: Arc<[u32]> = std::iter::repeat_n(SPARSE_NONE, n_owned * nslots).collect();
    let conn = Arc::get_mut(&mut conn_table).expect("freshly built table is unshared");
    // The x-runs of the owned cells, internal cells first, cut where the
    // interior bit (every connectivity entry names a stored cell) changes.
    // Classes are collected in x-fastest order, so a run is a stretch where
    // x steps by one on the same row of one class.
    let mut run_starts = Vec::new();
    let mut run_interior = Vec::new();
    let mut prev = None;
    for (i, &(x, y, z)) in cells[..n_owned].iter().enumerate() {
        let row = &mut conn[i * nslots..(i + 1) * nslots];
        let (xu, yu, zu) = (x as usize, y as usize, z as usize);
        let away = xu >= rx
            && xu + rx < dim.x
            && yu >= ry
            && yu + ry < dim.y
            && zu >= slab.0 + rz
            && zu + rz < slab.1;
        if away {
            let base = index.linear(xu, yu, zu);
            for (entry, &d) in row.iter_mut().zip(&delta) {
                *entry = index.slots[base.wrapping_add_signed(d)];
            }
        } else {
            for (entry, o) in row.iter_mut().zip(offsets) {
                *entry = index
                    .get(x + o.dx, y + o.dy, z + o.dz)
                    .unwrap_or(SPARSE_NONE);
            }
        }
        let interior = row.iter().all(|&n| n != SPARSE_NONE);
        if i == n_int || prev != Some(((x - 1, y, z), interior)) {
            run_starts.push(i as u32);
            run_interior.push(interior);
        }
        prev = Some(((x, y, z), interior));
    }
    let n_int_runs = run_starts.partition_point(|&start| (start as usize) < n_int);
    run_starts.push(n_owned as u32);

    PartitionTables {
        cells,
        conn: conn_table,
        index,
        run_starts,
        run_interior,
        n_int_runs,
    }
}

impl IterationSpace for SparseGrid {
    fn num_partitions(&self) -> usize {
        self.inner.parts.len()
    }

    fn space_id(&self) -> Option<u64> {
        Some(Arc::as_ptr(&self.inner) as *const () as u64)
    }

    fn cell_count(&self, dev: DeviceId, view: DataView) -> u64 {
        let p = self.part(dev);
        match view {
            DataView::Standard => p.n_owned() as u64,
            DataView::Internal => p.n_int as u64,
            DataView::Boundary => (p.n_bnd_lo + p.n_bnd_hi) as u64,
        }
    }

    fn for_each_span(&self, dev: DeviceId, sweep: Sweep, f: &mut dyn FnMut(&Span)) {
        assert!(
            self.inner.mode == StorageMode::Real,
            "sparse grid has virtual storage; functional iteration unavailable"
        );
        let p = self.part(dev);
        let k = p.n_int_runs;
        let (starts, interior) = match sweep.region.owned_view() {
            DataView::Standard => (&p.run_starts[..], &p.run_interior[..]),
            DataView::Internal => (&p.run_starts[..=k], &p.run_interior[..k]),
            DataView::Boundary => (&p.run_starts[k..], &p.run_interior[k..]),
        };
        // The interior bit changes no per-cell answer (the connectivity
        // table gives those either way); it is what lets the stencil view
        // hand out neighbour lanes. A sweep that reads no neighbour has no
        // use for it, so a run there extends over every following run that
        // continues it in x: the table's runs are adjacent in storage, and
        // the cut between two on one row is an interior flip.
        let mut open: Option<Span> = None;
        for (run, &interior) in starts.windows(2).zip(interior) {
            let (x, y, z) = p.cells[run[0] as usize];
            let len = run[1] - run[0];
            if let Some(span) = open.as_mut() {
                let first = span.first;
                if !sweep.stencil_reads
                    && (first.y, first.z, first.x + span.len as i32) == (y, z, x)
                {
                    span.len += len;
                    continue;
                }
                f(span);
            }
            let first = Cell {
                interior: interior && sweep.stencil_reads,
                ..Cell::new(run[0], x, y, z)
            };
            open = Some(Span::new(first, len));
        }
        if let Some(span) = open {
            f(&span);
        }
    }

    fn supports_functional(&self) -> bool {
        self.inner.mode == StorageMode::Real
    }
}

/// Neighbourhood read view of a sparse partition (connectivity-table
/// based).
pub struct SparseStencil<T: Elem> {
    cells: PartRead<T>,
    outside: T,
    /// The partition's connectivity table, resolved once per view.
    conn: Arc<[u32]>,
    nslots: usize,
}

crate::view::read_through_cells!(SparseStencil);

impl<T: Elem> FieldStencil<T> for SparseStencil<T> {
    #[inline]
    fn ngh(&self, cell: Cell, slot: usize, comp: usize) -> T {
        let n = self.conn[cell.idx() * self.nslots + slot];
        if n == SPARSE_NONE {
            self.outside
        } else {
            self.cells.get(n as usize, comp)
        }
    }

    #[inline]
    fn ngh_active(&self, cell: Cell, slot: usize) -> bool {
        self.conn[cell.idx() * self.nslots + slot] != SPARSE_NONE
    }

    fn num_slots(&self) -> usize {
        self.nslots
    }

    #[inline]
    fn ngh_lanes<S: Stride>(&self, span: &Span, slot: usize) -> Option<Lanes<'_, T, S>> {
        Some(self.cells.lanes_at(self.ngh_run(span, slot)?, span.len()))
    }
}

impl<T: Elem> SparseStencil<T> {
    /// Stored index of the `slot` neighbour of the first cell of an
    /// interior span, when the span's `slot` neighbours are consecutive in
    /// storage. They are by construction — a row lies in one class and
    /// every class is stored in (z, y, x) order — but the table's last
    /// entry is checked too, so the row stays right if that ever changes.
    #[inline]
    fn ngh_run(&self, span: &Span, slot: usize) -> Option<usize> {
        if !span.interior() {
            return None;
        }
        let entry = |cell: usize| self.conn[cell * self.nslots + slot];
        let first = entry(span.first.idx());
        let last = entry(span.first.idx() + span.len() - 1);
        (first != SPARSE_NONE && first.checked_add(span.len - 1) == Some(last))
            .then_some(first as usize)
    }
}

impl GridLike for SparseGrid {
    type StencilView<T: Elem> = SparseStencil<T>;

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
        self.inner.total_active
    }

    fn owned_cells(&self, dev: DeviceId, view: DataView) -> u64 {
        self.cell_count(dev, view)
    }

    fn alloc_len(&self, dev: DeviceId) -> usize {
        self.part(dev).n_stored() as usize
    }

    fn as_space(&self) -> Arc<dyn IterationSpace> {
        Arc::new(self.clone())
    }

    fn union_offsets(&self) -> &[Offset3] {
        &self.inner.offsets
    }

    fn stencil_extra_bytes_per_cell(&self) -> u64 {
        // Each iterated cell streams its connectivity row.
        self.inner.offsets.len() as u64 * 4
    }

    fn halo_segments(&self, card: usize, layout: MemLayout) -> Vec<HaloSegment> {
        if self.inner.radius == 0 || self.inner.parts.len() == 1 {
            return Vec::new();
        }
        let mut segs = Vec::new();
        for i in 0..self.inner.parts.len() - 1 {
            let lo = DeviceId(i);
            let hi = DeviceId(i + 1);
            let plo = self.part(lo);
            let phi = self.part(hi);
            // Upward: lo's boundary-high → hi's halo-low.
            let up_src = (plo.n_int + plo.n_bnd_lo) as usize;
            let up_dst = phi.n_owned() as usize;
            let up_len = plo.n_bnd_hi as usize;
            // Downward: hi's boundary-low → lo's halo-high.
            let dn_src = phi.n_int as usize;
            let dn_dst = (plo.n_owned() + plo.n_halo_lo) as usize;
            let dn_len = phi.n_bnd_lo as usize;
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
        if self.inner.mode != StorageMode::Real || level > self.inner.radius {
            return;
        }
        let p = self.part(dev);
        let z_lo = p.z0 as i64 - level as i64;
        let z_hi = (p.z1 - 1 + level) as i64;
        // Halo classes are contiguous and collected in ascending z, so a
        // ring is a z-filter over the two halo ranges.
        let owned = p.n_owned() as usize;
        let halo_lo_end = owned + p.n_halo_lo as usize;
        for i in owned..halo_lo_end {
            let (x, y, z) = p.cells[i];
            if z as i64 == z_lo {
                f(Cell::new(i as u32, x, y, z));
            }
        }
        for i in halo_lo_end..p.n_stored() as usize {
            let (x, y, z) = p.cells[i];
            if z as i64 == z_hi {
                f(Cell::new(i as u32, x, y, z));
            }
        }
    }

    fn locate(&self, x: i32, y: i32, z: i32) -> Option<(DeviceId, u32)> {
        if !self.inner.dim.contains(x, y, z) {
            return None;
        }
        let z_us = z as usize;
        let dev = self
            .inner
            .parts
            .iter()
            .position(|p| z_us >= p.z0 && z_us < p.z1)
            .map(DeviceId)?;
        let p = self.part(dev);
        p.index.get(x, y, z).map(|lin| (dev, lin))
    }

    fn for_each_owned(&self, dev: DeviceId, f: &mut dyn FnMut(Cell)) {
        self.for_each_cell(dev, DataView::Standard, f);
    }

    fn make_stencil_view<T: Elem>(
        &self,
        parts: &FieldParts<T>,
        dev: DeviceId,
        null: bool,
    ) -> SparseStencil<T> {
        SparseStencil {
            cells: PartRead::new(self, parts, dev, null),
            outside: parts.outside,
            conn: self.part(dev).conn.clone(),
            nslots: self.inner.offsets.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A solid ball of radius `r` centred in the domain.
    fn ball_mask(dim: Dim3, r: f64) -> impl Fn(i32, i32, i32) -> bool {
        let cx = dim.x as f64 / 2.0;
        let cy = dim.y as f64 / 2.0;
        let cz = dim.z as f64 / 2.0;
        move |x, y, z| {
            let dx = x as f64 + 0.5 - cx;
            let dy = y as f64 + 0.5 - cy;
            let dz = z as f64 + 0.5 - cz;
            (dx * dx + dy * dy + dz * dz).sqrt() <= r
        }
    }

    fn grid(n_dev: usize) -> SparseGrid {
        let b = Backend::dgx_a100(n_dev);
        let s = Stencil::seven_point();
        let dim = Dim3::cube(16);
        SparseGrid::new(&b, dim, &[&s], ball_mask(dim, 6.0), StorageMode::Real).unwrap()
    }

    #[test]
    fn active_count_matches_mask() {
        let g = grid(2);
        let dim = g.dim();
        let mask = ball_mask(dim, 6.0);
        let mut expect = 0u64;
        for z in 0..16 {
            for y in 0..16 {
                for x in 0..16 {
                    if mask(x, y, z) {
                        expect += 1;
                    }
                }
            }
        }
        assert_eq!(g.active_cells(), expect);
        let per_dev: u64 = (0..2)
            .map(|d| g.cell_count(DeviceId(d), DataView::Standard))
            .sum();
        assert_eq!(per_dev, expect);
    }

    #[test]
    fn views_partition_standard() {
        let g = grid(4);
        for d in 0..4 {
            let d = DeviceId(d);
            assert_eq!(
                g.cell_count(d, DataView::Internal) + g.cell_count(d, DataView::Boundary),
                g.cell_count(d, DataView::Standard)
            );
        }
    }

    #[test]
    fn iteration_covers_active_cells_once() {
        let g = grid(2);
        let mut seen = std::collections::HashSet::new();
        for d in 0..2 {
            g.for_each_cell(DeviceId(d), DataView::Standard, &mut |c| {
                assert!(seen.insert((c.x, c.y, c.z)));
            });
        }
        assert_eq!(seen.len() as u64, g.active_cells());
    }

    #[test]
    fn locate_round_trips() {
        let g = grid(2);
        for d in 0..2 {
            g.for_each_cell(DeviceId(d), DataView::Standard, &mut |c| {
                let (dev, lin) = g.locate(c.x, c.y, c.z).unwrap();
                assert_eq!(dev, DeviceId(d));
                assert_eq!(lin, c.lin);
            });
        }
        // Corner of the box is outside the ball.
        assert!(g.locate(0, 0, 0).is_none());
    }

    #[test]
    fn connectivity_agrees_with_geometry() {
        let g = grid(2);
        let dim = g.dim();
        let mask = ball_mask(dim, 6.0);
        let offsets = g.union_offsets().to_vec();
        for d in 0..2 {
            let part = &g.inner.parts[d];
            let nslots = offsets.len();
            for i in 0..part.n_owned() as usize {
                let (x, y, z) = part.cells[i];
                for (s, o) in offsets.iter().enumerate() {
                    let n = part.conn[i * nslots + s];
                    let (nx, ny, nz) = (x + o.dx, y + o.dy, z + o.dz);
                    let active = dim.contains(nx, ny, nz) && mask(nx, ny, nz);
                    if active {
                        assert_ne!(n, SPARSE_NONE, "missing neighbour at ({nx},{ny},{nz})");
                        assert_eq!(part.cells[n as usize], (nx, ny, nz));
                    } else {
                        assert_eq!(n, SPARSE_NONE);
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_halo_mirror_counts() {
        let g = grid(4);
        for p in 0..3 {
            let a = &g.inner.parts[p];
            let b = &g.inner.parts[p + 1];
            assert_eq!(a.n_bnd_hi, b.n_halo_lo);
            assert_eq!(b.n_bnd_lo, a.n_halo_hi);
            // And the mirrored cells are the same coordinates in order.
            let a_bnd_hi: Vec<_> =
                a.cells[(a.n_int + a.n_bnd_lo) as usize..a.n_owned() as usize].to_vec();
            let b_halo_lo: Vec<_> =
                b.cells[b.n_owned() as usize..(b.n_owned() + b.n_halo_lo) as usize].to_vec();
            assert_eq!(a_bnd_hi, b_halo_lo);
        }
    }

    #[test]
    fn halo_segments_match_paper_counts() {
        let g = grid(4);
        let scalar = g.halo_segments(1, MemLayout::SoA);
        assert!(scalar.len() <= 2 * 3);
        let aos = g.halo_segments(3, MemLayout::AoS);
        assert_eq!(aos.len(), scalar.len());
        let soa = g.halo_segments(3, MemLayout::SoA);
        assert_eq!(soa.len(), scalar.len() * 3);
    }

    #[test]
    fn memory_accounted_for_connectivity() {
        let b = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let dim = Dim3::cube(16);
        let before: u64 = (0..2).map(|d| b.ledger(DeviceId(d)).in_use()).sum();
        let g = SparseGrid::new(&b, dim, &[&s], |_, _, _| true, StorageMode::Real).unwrap();
        let after: u64 = (0..2).map(|d| b.ledger(DeviceId(d)).in_use()).sum();
        let owned = g.active_cells();
        // conn: owned × 6 slots × 4 bytes; coords: stored × 12 bytes ≥ owned × 12.
        assert!(after - before >= owned * 24 + owned * 12);
    }

    #[test]
    fn virtual_mode_counts_without_tables() {
        let b = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let dim = Dim3::cube(16);
        let real = SparseGrid::new(&b, dim, &[&s], ball_mask(dim, 6.0), StorageMode::Real).unwrap();
        let virt =
            SparseGrid::new(&b, dim, &[&s], ball_mask(dim, 6.0), StorageMode::Virtual).unwrap();
        assert!(!virt.supports_functional());
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
            real.halo_segments(1, MemLayout::SoA),
            virt.halo_segments(1, MemLayout::SoA)
        );
    }

    #[test]
    fn empty_mask_rejected() {
        let b = Backend::dgx_a100(1);
        let s = Stencil::seven_point();
        let err = SparseGrid::new(&b, Dim3::cube(8), &[&s], |_, _, _| false, StorageMode::Real);
        assert!(err.is_err());
    }

    #[test]
    fn ghost_rings_cover_halo_classes() {
        let g = grid(2);
        let dim = g.dim();
        let mask = ball_mask(dim, 6.0);
        for d in 0..2 {
            let dev = DeviceId(d);
            let p = &g.inner.parts[d];
            let (z0, z1) = g.owned_z_range(dev);
            let mut ring_total = 0u64;
            for level in 1..=g.radius() {
                g.for_each_ghost_ring(dev, level, &mut |c| {
                    // Rings sit exactly `level` layers outside the owned
                    // slab, are active, and index into the halo classes.
                    assert!(
                        c.z == z0 as i32 - level as i32 || c.z == (z1 - 1 + level) as i32,
                        "ring {level} cell at z={}",
                        c.z
                    );
                    assert!(mask(c.x, c.y, c.z));
                    assert!(c.lin >= p.n_owned() && c.lin < p.n_stored());
                    ring_total += 1;
                });
            }
            // Every stored halo cell belongs to exactly one ring.
            assert_eq!(ring_total, p.n_halo() as u64);
            // Levels past the stored radius enumerate nothing.
            g.for_each_ghost_ring(dev, g.radius() + 1, &mut |_| {
                panic!("ring beyond halo storage")
            });
        }
    }

    #[test]
    fn load_balance_beats_naive_split() {
        // All active cells in the top half of z: a naive even split would
        // give the lower devices nothing.
        let b = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let dim = Dim3::new(8, 8, 32);
        let g = SparseGrid::new(&b, dim, &[&s], |_, _, z| z >= 16, StorageMode::Real).unwrap();
        let c0 = g.cell_count(DeviceId(0), DataView::Standard);
        let c1 = g.cell_count(DeviceId(1), DataView::Standard);
        let total = c0 + c1;
        assert_eq!(total, 8 * 8 * 16);
        let imbalance = c0.abs_diff(c1) as f64 / total as f64;
        assert!(imbalance < 0.2, "imbalance {imbalance}: {c0} vs {c1}");
    }

    /// The slab index against the hash-map build it replaced.
    mod oracle {
        use std::collections::HashMap;

        use proptest::prelude::*;

        use super::*;

        /// One partition's tables as the hash-map build made them: the
        /// class-ordered cells, a `HashMap` from coordinates to local index
        /// over owned and halo cells, connectivity through that map, and
        /// the x-runs.
        struct Oracle {
            cells: Vec<(i32, i32, i32)>,
            conn: Vec<u32>,
            lookup: HashMap<(i32, i32, i32), u32>,
            run_starts: Vec<u32>,
            run_interior: Vec<bool>,
            n_int_runs: usize,
        }

        #[allow(clippy::too_many_arguments)]
        fn oracle_partition(
            dim: Dim3,
            mask: &impl Fn(i32, i32, i32) -> bool,
            offsets: &[Offset3],
            radius: usize,
            z0: usize,
            z1: usize,
            has_lo: bool,
            has_hi: bool,
        ) -> Oracle {
            let collect_range = |za: i64, zb: i64| -> Vec<(i32, i32, i32)> {
                let za = za.max(0) as usize;
                let zb = (zb.max(0) as usize).min(dim.z);
                let mut v = Vec::new();
                for z in za..zb {
                    for y in 0..dim.y as i32 {
                        for x in 0..dim.x as i32 {
                            if mask(x, y, z as i32) {
                                v.push((x, y, z as i32));
                            }
                        }
                    }
                }
                v
            };
            let bl = if has_lo { radius } else { 0 };
            let bh = if has_hi { radius } else { 0 };
            let mut cells = collect_range((z0 + bl) as i64, (z1 - bh) as i64);
            let n_int = cells.len();
            cells.extend(collect_range(z0 as i64, (z0 + bl) as i64));
            cells.extend(collect_range((z1 - bh) as i64, z1 as i64));
            let n_owned = cells.len();
            if has_lo {
                cells.extend(collect_range(z0 as i64 - radius as i64, z0 as i64));
            }
            if has_hi {
                cells.extend(collect_range(z1 as i64, z1 as i64 + radius as i64));
            }

            let lookup: HashMap<(i32, i32, i32), u32> = cells
                .iter()
                .enumerate()
                .map(|(i, &c)| (c, i as u32))
                .collect();
            let nslots = offsets.len();
            let mut conn = vec![SPARSE_NONE; n_owned * nslots];
            for (i, &(x, y, z)) in cells[..n_owned].iter().enumerate() {
                for (s, o) in offsets.iter().enumerate() {
                    let (nx, ny, nz) = (x + o.dx, y + o.dy, z + o.dz);
                    if !dim.contains(nx, ny, nz) {
                        continue;
                    }
                    if let Some(&idx) = lookup.get(&(nx, ny, nz)) {
                        conn[i * nslots + s] = idx;
                    }
                }
            }

            let mut run_starts = Vec::new();
            let mut run_interior = Vec::new();
            let mut n_int_runs = 0;
            for class in [0..n_int, n_int..n_owned] {
                n_int_runs = run_starts.len();
                let mut prev = None;
                for i in class {
                    let (x, y, z) = cells[i];
                    let interior = conn[i * nslots..(i + 1) * nslots]
                        .iter()
                        .all(|&n| n != SPARSE_NONE);
                    if prev != Some(((x - 1, y, z), interior)) {
                        run_starts.push(i as u32);
                        run_interior.push(interior);
                    }
                    prev = Some(((x, y, z), interior));
                }
            }
            run_starts.push(n_owned as u32);

            Oracle {
                cells,
                conn,
                lookup,
                run_starts,
                run_interior,
                n_int_runs,
            }
        }

        /// An axis-aligned box of removed cells: x, y and z ranges.
        type Hole = ((i32, i32), (i32, i32), (i32, i32));

        /// A random mask on a box: the full box, the box with holes, empty
        /// rows and empty layers, or a speckle of isolated cells and
        /// one-cell runs.
        #[derive(Debug, Clone)]
        struct Mask {
            kind: usize,
            seed: u64,
            holes: Vec<Hole>,
            empty_rows: Vec<(i32, i32)>,
            empty_layers: Vec<i32>,
        }

        impl Mask {
            fn active(&self, x: i32, y: i32, z: i32) -> bool {
                match self.kind {
                    0 => true,
                    1 => {
                        !self.holes.iter().any(|&((x0, x1), (y0, y1), (z0, z1))| {
                            (x0..x1).contains(&x) && (y0..y1).contains(&y) && (z0..z1).contains(&z)
                        }) && !self.empty_rows.contains(&(y, z))
                            && !self.empty_layers.contains(&z)
                    }
                    _ => {
                        let h = (x as u64)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add((y as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f))
                            .wrapping_add((z as u64).wrapping_mul(0x1656_67b1_9e37_79f9))
                            ^ self.seed;
                        (h.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 61) < 5
                            && !self.empty_layers.contains(&z)
                    }
                }
            }
        }

        fn masks() -> impl Strategy<Value = Mask> {
            let hole = (0i32..9, 1i32..4, 0i32..9, 1i32..4, 0i32..20, 1i32..5)
                .prop_map(|(x, dx, y, dy, z, dz)| ((x, x + dx), (y, y + dy), (z, z + dz)));
            (
                0usize..3,
                any::<u64>(),
                prop::collection::vec(hole, 0..4),
                prop::collection::vec((0i32..9, 0i32..20), 0..4),
                prop::collection::vec(0i32..20, 0..3),
            )
                .prop_map(|(kind, seed, holes, empty_rows, empty_layers)| Mask {
                    kind,
                    seed,
                    holes,
                    empty_rows,
                    empty_layers,
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(160))]

            #[test]
            fn slab_index_tables_equal_the_hash_map_build(
                mask in masks(),
                size in (1usize..10, 1usize..10, 4usize..20),
                n_dev in 1usize..=4,
                stencil in 0usize..4,
            ) {
                let dim = Dim3::new(size.0, size.1, size.2);
                let stencil = match stencil {
                    0 => Stencil::seven_point(),
                    1 => Stencil::d3q19(),
                    2 => Stencil::twenty_seven_point(),
                    _ => Stencil::star(2),
                };
                prop_assume!(dim.z >= n_dev);
                let active = |x, y, z| mask.active(x, y, z);
                let backend = Backend::dgx_a100(n_dev);
                let grid = SparseGrid::new(&backend, dim, &[&stencil], active, StorageMode::Real);
                // Empty masks and partitions thinner than the halo are
                // rejected before any table is built.
                prop_assume!(grid.is_ok());
                let grid = grid.unwrap();
                let inner = &grid.inner;
                let oracles: Vec<Oracle> = inner
                    .parts
                    .iter()
                    .enumerate()
                    .map(|(p, part)| {
                        oracle_partition(
                            dim,
                            &active,
                            &inner.offsets,
                            inner.radius,
                            part.z0,
                            part.z1,
                            p > 0,
                            p + 1 < n_dev,
                        )
                    })
                    .collect();
                for (p, (part, want)) in inner.parts.iter().zip(&oracles).enumerate() {
                    prop_assert_eq!(&part.cells, &want.cells, "cells of partition {}", p);
                    prop_assert_eq!(&part.conn[..], &want.conn[..], "conn of partition {}", p);
                    prop_assert_eq!(&part.run_starts, &want.run_starts, "runs of partition {}", p);
                    prop_assert_eq!(&part.run_interior, &want.run_interior);
                    prop_assert_eq!(part.n_int_runs, want.n_int_runs);
                }
                for z in -1..=dim.z as i32 {
                    for y in -1..=dim.y as i32 {
                        for x in -1..=dim.x as i32 {
                            let want = inner
                                .parts
                                .iter()
                                .position(|p| (p.z0 as i32..p.z1 as i32).contains(&z))
                                .filter(|_| dim.contains(x, y, z))
                                .and_then(|p| {
                                    oracles[p].lookup.get(&(x, y, z)).map(|&i| (DeviceId(p), i))
                                });
                            prop_assert_eq!(grid.locate(x, y, z), want, "locate({}, {}, {})", x, y, z);
                        }
                    }
                }
            }
        }
    }
}
