//! The index-space vocabulary: cells, spans, data views and iteration
//! spaces.
//!
//! A [`Cell`] is the per-partition index handed to a compute lambda; it
//! carries both the local linear index (for direct addressing into field
//! storage) and the global grid coordinates (for geometry-dependent code
//! such as boundary conditions). Grids iterate in [`Span`]s — runs of
//! cells consecutive in `x` and in storage — so that no cell is ever
//! materialised in memory on the way to a kernel.
//!
//! A [`DataView`] selects which part of a partition a container launch
//! iterates over (paper §IV-C1, Fig. 3): *internal* cells depend only on
//! local data; *boundary* cells additionally read halo data received from
//! neighbouring partitions; *standard* is their union. OCC optimizations
//! work by launching the internal view while halo transfers are in flight.

use neon_sys::DeviceId;

/// One grid cell as seen by a compute lambda.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Local linear index within the partition's storage.
    pub lin: u32,
    /// Global x coordinate.
    pub x: i32,
    /// Global y coordinate.
    pub y: i32,
    /// Global z coordinate.
    pub z: i32,
    /// The grid's promise that every registered stencil slot of this cell
    /// is an active in-domain cell (see [`Span::interior`]). Sound, not
    /// complete: `false` promises nothing.
    pub interior: bool,
}

impl Cell {
    /// Construct a cell the grid promises nothing about.
    #[inline]
    pub fn new(lin: u32, x: i32, y: i32, z: i32) -> Self {
        Cell {
            lin,
            x,
            y,
            z,
            interior: false,
        }
    }

    /// The local linear index as `usize`.
    #[inline]
    pub fn idx(self) -> usize {
        self.lin as usize
    }
}

/// A run of `len` cells on one grid row: consecutive in `x` *and* in
/// `lin`, sharing `y`, `z` and the `interior` bit of the first cell.
///
/// Spans are what grids hand to kernels. A dense row is a span, an x-run
/// of an element-sparse cell list is a span, an x-row of a block is a
/// span. Only a [stencil-reading sweep](Sweep::stencil_reads) cuts them
/// further, so that runs can be `interior`: a dense row at the stencil's
/// x-reach, a sparse run where the `interior` bit changes. Nothing is
/// stored per cell: a span kernel works on whole runs through the views'
/// lanes, and a per-cell kernel gets its [`Cell`]s from [`Span::cells`],
/// computed from the loop counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// First (lowest-`x`) cell of the run.
    pub first: Cell,
    /// Number of cells.
    pub len: u32,
}

impl Span {
    /// A run of `len` cells starting at `first`.
    #[inline]
    pub fn new(first: Cell, len: u32) -> Self {
        Span { first, len }
    }

    /// Whether the grid promises that, for *every* cell of the run, every
    /// registered stencil slot is an active in-domain cell. Stencil views
    /// then hand out whole neighbour lanes, and the dense view skips the
    /// domain test per cell; the storage bounds check stays.
    #[inline]
    pub fn interior(self) -> bool {
        self.first.interior
    }

    /// Number of cells as `usize`.
    #[inline]
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the run is empty (grids never emit empty spans).
    #[inline]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The cells of the run in ascending `x`.
    #[inline]
    pub fn cells(self) -> impl Iterator<Item = Cell> {
        let first = self.first;
        (0..self.len).map(move |i| Cell {
            lin: first.lin + i,
            x: first.x + i as i32,
            ..first
        })
    }
}

/// Which cells of a partition a launch covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DataView {
    /// All owned cells (internal ∪ boundary).
    #[default]
    Standard,
    /// Cells whose stencil neighbourhood stays within the local partition.
    Internal,
    /// Cells whose stencil neighbourhood touches halo data.
    Boundary,
}

impl DataView {
    /// Short label used in node names and traces.
    pub fn label(self) -> &'static str {
        match self {
            DataView::Standard => "std",
            DataView::Internal => "int",
            DataView::Boundary => "bnd",
        }
    }
}

/// Which cells of a partition a sweep covers: a data view of the owned
/// cells, or the owned cells plus ghost layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Region {
    /// The owned cells of a [`DataView`].
    View(DataView),
    /// The owned cells plus this many ghost layers per neighbouring side
    /// — the expanded interior a temporally-blocked rep sweeps. Must not
    /// exceed [`IterationSpace::ghost_capacity`].
    Expanded(usize),
}

impl From<DataView> for Region {
    fn from(view: DataView) -> Self {
        Region::View(view)
    }
}

impl Region {
    /// The data view this region is on a grid without ghost iteration
    /// (`Expanded(0)` is the standard view).
    ///
    /// # Panics
    ///
    /// On `Expanded(depth)` with `depth > 0`.
    pub fn owned_view(self) -> DataView {
        match self {
            Region::View(view) => view,
            Region::Expanded(0) => DataView::Standard,
            Region::Expanded(depth) => {
                panic!("grid has no ghost-iteration support (depth {depth} requested)")
            }
        }
    }
}

/// What one launch sweeps on a partition: a [`Region`], and whether the
/// launch stencil-reads.
///
/// The second half decides how a grid cuts its runs. A grid promises
/// [`Span::interior`] only on a stencil-reading sweep, and cuts runs
/// where that promise changes: a dense row at the stencils' x-reach, a
/// sparse run where the interior bit flips. Any other sweep gets whole
/// runs — one span per dense row, one per maximal x-run of a sparse
/// class — with `interior` left `false`. The cells and their order are
/// the same either way. A container derives the flag from its access
/// records; nothing sets it by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    /// The cells covered.
    pub region: Region,
    /// Whether the launch reads a neighbour of any cell it covers.
    pub stencil_reads: bool,
}

/// A bare data view is a [stencil sweep](Sweep::stencil): its runs are
/// cut, so a caller that does not say otherwise sees every `interior`
/// span a grid can promise.
impl From<DataView> for Sweep {
    fn from(view: DataView) -> Self {
        Sweep::stencil(view)
    }
}

impl Sweep {
    /// The sweep of a launch that reads no neighbour: whole runs.
    pub fn map(region: impl Into<Region>) -> Self {
        Sweep {
            region: region.into(),
            stencil_reads: false,
        }
    }

    /// The sweep of a stencil-reading launch: runs cut where the
    /// `interior` promise changes.
    pub fn stencil(region: impl Into<Region>) -> Self {
        Sweep {
            region: region.into(),
            stencil_reads: true,
        }
    }
}

/// The iteration domain a container launches over — implemented by grids.
///
/// The paper creates a container *from* a multi-GPU data object which
/// provides the index space for each partition; this trait is that
/// interface, object-safe so containers can hold any grid.
pub trait IterationSpace: Send + Sync {
    /// Number of partitions (= devices).
    fn num_partitions(&self) -> usize;

    /// Number of cells device `dev` iterates for `view`.
    fn cell_count(&self, dev: DeviceId, view: DataView) -> u64;

    /// Invoke `f` with the [`Span`]s covering `sweep` on device `dev` —
    /// the one iteration primitive a grid implements. Every cell of the
    /// sweep's region lies in exactly one span, and the spans' cells in
    /// emission order are the grid's cell order, whether or not the sweep
    /// stencil-reads.
    ///
    /// Only meaningful for grids with real (non-virtual) storage; grids in
    /// timing-only mode may panic here.
    fn for_each_span(&self, dev: DeviceId, sweep: Sweep, f: &mut dyn FnMut(&Span));

    /// Invoke `f` for every cell of `view` on device `dev`, in span order.
    /// The cells come from a map sweep, so none is marked interior.
    fn for_each_cell(&self, dev: DeviceId, view: DataView, f: &mut dyn FnMut(Cell)) {
        self.for_each_span(dev, Sweep::map(view), &mut |span| {
            span.cells().for_each(&mut *f)
        });
    }

    /// Whether functional iteration is possible (false for virtual-storage
    /// grids used in timing-only benchmark sweeps).
    fn supports_functional(&self) -> bool {
        true
    }

    /// Stable identity of the underlying grid, if it has one.
    ///
    /// `as_space()` wraps the grid in a fresh `Arc` on every call, so
    /// pointer equality of spaces says nothing; grids instead expose the
    /// address of their shared interior here. Two spaces reporting the
    /// same id iterate the same cells in the same order on every device —
    /// the precondition for the fuse pass to merge their containers. The
    /// default `None` means "no identity": such containers never fuse.
    fn space_id(&self) -> Option<u64> {
        None
    }

    /// How many ghost layers beyond the owned region a partition can
    /// *iterate* while still reading a full stencil neighbourhood from
    /// allocated storage. Temporal blocking executes rep `j` of a `k`-rep
    /// super-step over the owned cells plus `(k-1-j)·r` ghost layers, so a
    /// grid must report at least `(k-1)·r` here to host a `Temporal(k)`
    /// super-step. The default `0` means "no ghost iteration support".
    fn ghost_capacity(&self) -> usize {
        0
    }

    /// Number of stored cells within `depth` ghost layers of the owned
    /// region on device `dev` (clamped to the allocated halo capacity).
    /// Used both to size expanded-interior launches and to price the
    /// memory footprint a temporally-blocked super-step sweeps.
    fn cell_count_expanded(&self, dev: DeviceId, depth: usize) -> u64 {
        let _ = depth;
        self.cell_count(dev, DataView::Standard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial 1-D iteration space used to test the trait contract.
    struct Line {
        len_per_dev: u32,
        devs: usize,
    }

    impl IterationSpace for Line {
        fn num_partitions(&self) -> usize {
            self.devs
        }
        fn cell_count(&self, _dev: DeviceId, view: DataView) -> u64 {
            match view {
                DataView::Standard => self.len_per_dev as u64,
                DataView::Internal => (self.len_per_dev - 2) as u64,
                DataView::Boundary => 2,
            }
        }
        fn for_each_span(&self, dev: DeviceId, sweep: Sweep, f: &mut dyn FnMut(&Span)) {
            let base = dev.0 as i32 * self.len_per_dev as i32;
            let n = self.len_per_dev;
            let mut run =
                |a: u32, b: u32| f(&Span::new(Cell::new(a, base + a as i32, 0, 0), b - a));
            match sweep.region.owned_view() {
                DataView::Standard => run(0, n),
                DataView::Internal => run(1, n - 1),
                DataView::Boundary => {
                    run(0, 1);
                    run(n - 1, n);
                }
            }
        }
    }

    #[test]
    fn views_partition_the_standard_view() {
        let l = Line {
            len_per_dev: 10,
            devs: 2,
        };
        let d = DeviceId(0);
        assert_eq!(
            l.cell_count(d, DataView::Internal) + l.cell_count(d, DataView::Boundary),
            l.cell_count(d, DataView::Standard)
        );
        let mut int_cells = Vec::new();
        let mut bnd_cells = Vec::new();
        l.for_each_cell(d, DataView::Internal, &mut |c| int_cells.push(c.lin));
        l.for_each_cell(d, DataView::Boundary, &mut |c| bnd_cells.push(c.lin));
        let mut all: Vec<u32> = int_cells.iter().chain(&bnd_cells).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cell_carries_global_coords() {
        let l = Line {
            len_per_dev: 4,
            devs: 2,
        };
        let mut xs = Vec::new();
        l.for_each_cell(DeviceId(1), DataView::Standard, &mut |c| xs.push(c.x));
        assert_eq!(xs, vec![4, 5, 6, 7]);
    }

    #[test]
    fn span_cells_step_x_and_lin_and_keep_the_rest() {
        let first = Cell {
            interior: true,
            ..Cell::new(40, 3, 5, 7)
        };
        let span = Span::new(first, 3);
        assert!(span.interior());
        assert_eq!(span.len(), 3);
        let cells: Vec<Cell> = span.cells().collect();
        assert_eq!(cells[0], first);
        for (i, c) in cells.iter().enumerate() {
            assert_eq!((c.lin, c.x, c.y, c.z), (40 + i as u32, 3 + i as i32, 5, 7));
            assert!(c.interior);
        }
        assert!(!Span::new(Cell::new(0, 0, 0, 0), 1).interior());
    }

    #[test]
    fn expanded_zero_is_the_standard_view() {
        assert_eq!(Region::Expanded(0).owned_view(), DataView::Standard);
        assert_eq!(
            Region::from(DataView::Boundary).owned_view(),
            DataView::Boundary
        );
    }

    #[test]
    #[should_panic(expected = "no ghost-iteration support")]
    fn expanded_sweep_needs_ghost_support() {
        Region::Expanded(1).owned_view();
    }

    #[test]
    fn a_bare_view_is_a_stencil_sweep() {
        let cut = Sweep::from(DataView::Internal);
        assert_eq!(cut, Sweep::stencil(DataView::Internal));
        assert!(cut.stencil_reads);
        assert!(!Sweep::map(Region::Expanded(2)).stencil_reads);
    }

    #[test]
    fn view_labels() {
        assert_eq!(DataView::Standard.label(), "std");
        assert_eq!(DataView::Internal.label(), "int");
        assert_eq!(DataView::Boundary.label(), "bnd");
    }
}
