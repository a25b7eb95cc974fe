//! The span iteration primitive, on every grid: `for_each_span` must cover
//! exactly the cells of the sweep, once, in storage order, in runs that
//! stay on one row; and a span the grid calls *interior* must really have
//! every neighbour of every cell in the domain — checked against the
//! stencil view's own domain test and against the field's values (per
//! cell, and by neighbour lanes under SoA and AoS), so a wrong slot delta
//! or a neighbour that lives in a halo layer shows. On the sparse grid the
//! bit is also complete: every cell whose neighbours are all active is in
//! an interior span. A sweep that reads no neighbour visits the same
//! cells in the same order in whole runs — one per dense row, one per
//! maximal x-run of a sparse class — and containers pick that sweep from
//! their access records.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use neon_domain::{
    Aos, BlockSparseGrid, Cell, Container, DataView, DenseGrid, Dim3, Field, FieldRead as _,
    FieldStencil as _, GridLike, KernelFn, Lanes, Loader, MemLayout, Offset3, Region, ScalarSet,
    Soa, Span, SparseGrid, Stencil, StorageMode, Stride, Sweep,
};
use neon_set::IterationSpace;
use neon_sys::{Backend, DeviceId};

const VIEWS: [DataView; 3] = [DataView::Standard, DataView::Internal, DataView::Boundary];
const OUTSIDE: f64 = -7.0;

fn value(x: i32, y: i32, z: i32) -> f64 {
    (x + 100 * y + 10_000 * z) as f64
}

fn spans_of<G: IterationSpace>(g: &G, dev: DeviceId, sweep: Sweep) -> Vec<Span> {
    let mut spans = Vec::new();
    g.for_each_span(dev, sweep, &mut |s| spans.push(*s));
    spans
}

fn cells_of(spans: &[Span]) -> Vec<Cell> {
    spans.iter().flat_map(|s| s.cells()).collect()
}

/// Whether span `b` continues span `a` on its row and in storage.
fn continues(a: &Span, b: &Span) -> bool {
    (a.first.y, a.first.z) == (b.first.y, b.first.z)
        && a.first.x + a.len as i32 == b.first.x
        && a.first.lin + a.len == b.first.lin
}

/// The map sweep of `region`: the stencil sweep's cells in the same
/// order, none promised interior, in maximal runs — no span continues the
/// one before it. Returns its spans.
fn check_map_sweep<G: IterationSpace>(g: &G, dev: DeviceId, region: Region) -> Vec<Span> {
    let map = spans_of(g, dev, Sweep::map(region));
    let plain = |spans: &[Span]| -> Vec<(u32, i32, i32, i32)> {
        cells_of(spans)
            .iter()
            .map(|c| (c.lin, c.x, c.y, c.z))
            .collect()
    };
    let stencil = spans_of(g, dev, Sweep::stencil(region));
    assert_eq!(plain(&map), plain(&stencil), "{region:?} on {dev:?}");
    assert!(
        map.iter().all(|s| !s.interior()),
        "a map sweep promised interior"
    );
    for pair in map.windows(2) {
        assert!(!continues(&pair[0], &pair[1]), "a map sweep cut {pair:?}");
    }
    map
}

/// A scalar SoA field and a 3-component AoS field over one grid, both
/// holding [`value`] (plus a quarter per component).
struct Fields<G: GridLike> {
    scalar: Field<f64, G>,
    vector: Field<f64, G>,
}

fn fields<G: GridLike>(g: &G) -> Fields<G> {
    let scalar = Field::<f64, _>::new(g, "f", 1, OUTSIDE, MemLayout::SoA).unwrap();
    scalar.fill(|x, y, z, _| value(x, y, z));
    let vector = Field::<f64, _>::new(g, "v", 3, OUTSIDE, MemLayout::AoS).unwrap();
    vector.fill(|x, y, z, k| value(x, y, z) + k as f64 * 0.25);
    Fields { scalar, vector }
}

/// Every element of the lanes of `span`, cell-major.
fn elems<S: Stride>(span: &Span, lanes: &Lanes<f64, S>) -> Vec<f64> {
    (0..span.len())
        .flat_map(|i| (0..lanes.card()).map(move |q| lanes.get(i, q)))
        .collect()
}

/// Everything that holds for any sweep of any grid: runs stay on a row,
/// storage order is ascending and duplicate-free, interior means what it
/// says, and every neighbour read — per cell, by SoA and by AoS lanes —
/// returns the neighbour's value. Returns how many cells were interior.
fn check_sweep<G: GridLike + IterationSpace>(
    g: &G,
    fields: &Fields<G>,
    dev: DeviceId,
    sweep: Sweep,
) -> usize {
    let spans = spans_of(g, dev, sweep);
    let mut ldr = Loader::for_execution(dev, GridLike::num_partitions(g), DataView::Standard);
    let sv = ldr.read_stencil(&fields.scalar);
    let vv = ldr.read_stencil(&fields.vector);
    let offsets = g.union_offsets().to_vec();
    let mut last_lin = None;
    let mut interior_cells = 0;
    for span in &spans {
        assert!(!span.is_empty(), "empty span emitted");
        let cells: Vec<Cell> = span.cells().collect();
        assert_eq!(cells.len(), span.len());
        for (i, c) in cells.iter().enumerate() {
            // One row, consecutive in x and in storage.
            assert_eq!(
                (c.y, c.z),
                (span.first.y, span.first.z),
                "span leaves its row"
            );
            assert_eq!(c.x, span.first.x + i as i32);
            assert_eq!(c.lin, span.first.lin + i as u32);
            assert_eq!(c.interior, span.interior());
            assert!(last_lin < Some(c.lin), "storage order not ascending");
            last_lin = Some(c.lin);
            // The cell's own value sits where its lin says.
            assert_eq!(sv.at(*c, 0), value(c.x, c.y, c.z), "cell {c:?}");
            let checked = Cell {
                interior: false,
                ..*c
            };
            for (slot, o) in offsets.iter().enumerate() {
                let (nx, ny, nz) = (c.x + o.dx, c.y + o.dy, c.z + o.dz);
                let active = g.locate(nx, ny, nz).is_some();
                let expect = if active { value(nx, ny, nz) } else { OUTSIDE };
                assert_eq!(sv.ngh(*c, slot, 0), expect, "{c:?} slot {slot} ({o})");
                assert_eq!(sv.ngh_active(*c, slot), active, "{c:?} slot {slot} ({o})");
                if c.interior {
                    // Sound: the view's own test agrees on every slot.
                    assert!(
                        sv.ngh_active(checked, slot),
                        "interior {c:?} has no neighbour at slot {slot} ({o})"
                    );
                    assert_eq!(sv.ngh(checked, slot, 0), expect);
                }
            }
        }
        if span.interior() {
            interior_cells += span.len();
        }
        // Lanes agree with the per-cell accessors.
        let want: Vec<f64> = cells.iter().map(|c| sv.at(*c, 0)).collect();
        assert_eq!(elems(span, &sv.lanes::<Soa<1>>(span)), want);
        for slot in 0..offsets.len() {
            match sv.ngh_lanes::<Soa<1>>(span, slot) {
                Some(lanes) => {
                    assert!(span.interior(), "neighbour lanes of a non-interior span");
                    let want: Vec<f64> = cells.iter().map(|c| sv.ngh(*c, slot, 0)).collect();
                    assert_eq!(elems(span, &lanes), want, "slot {slot}");
                }
                None => assert!(
                    !span.interior(),
                    "an interior span of an SoA field has neighbour lanes"
                ),
            }
            match vv.ngh_lanes::<Aos<3>>(span, slot) {
                Some(lanes) => {
                    assert!(span.interior(), "neighbour lanes of a non-interior span");
                    let want: Vec<f64> = cells
                        .iter()
                        .flat_map(|c| (0..3).map(|k| vv.ngh(*c, slot, k)))
                        .collect();
                    assert_eq!(elems(span, &lanes), want, "slot {slot}");
                }
                None => assert!(
                    !span.interior(),
                    "an interior span of an AoS field has neighbour lanes"
                ),
            }
        }
    }
    interior_cells
}

/// The owned views: Standard is exactly the cells `locate` assigns to the
/// device, Internal and Boundary split it, Internal reads no remote cell.
/// Returns the interior cell count of the standard view.
fn check_views<G: GridLike + IterationSpace>(g: &G, fields: &Fields<G>) -> usize {
    let dim = g.dim();
    let mut interior = 0;
    for d in 0..GridLike::num_partitions(g) {
        let dev = DeviceId(d);
        let mut owned = HashSet::new();
        for z in 0..dim.z as i32 {
            for y in 0..dim.y as i32 {
                for x in 0..dim.x as i32 {
                    if let Some((owner, lin)) = g.locate(x, y, z) {
                        if owner == dev {
                            owned.insert((lin, x, y, z));
                        }
                    }
                }
            }
        }
        let key = |c: &Cell| (c.lin, c.x, c.y, c.z);
        let mut per_view = Vec::new();
        for view in VIEWS {
            let n = check_sweep(g, fields, dev, Sweep::stencil(view));
            if view == DataView::Standard {
                interior += n;
            }
            assert_eq!(check_sweep(g, fields, dev, Sweep::map(view)), 0);
            let cells = cells_of(&spans_of(g, dev, Sweep::stencil(view)));
            assert_eq!(cells.len() as u64, g.cell_count(dev, view), "{view:?}");
            // The derived per-cell method is the map sweep's walk.
            let mut per_cell = Vec::new();
            g.for_each_cell(dev, view, &mut |c| per_cell.push(c));
            assert_eq!(per_cell, cells_of(&spans_of(g, dev, Sweep::map(view))));
            per_view.push(cells.iter().map(key).collect::<HashSet<_>>());
        }
        assert_eq!(per_view[0], owned, "standard view of device {d}");
        assert!(per_view[1].is_disjoint(&per_view[2]));
        let both: HashSet<_> = per_view[1].union(&per_view[2]).copied().collect();
        assert_eq!(both, owned, "internal ∪ boundary of device {d}");
        for &(_, x, y, z) in &per_view[1] {
            for o in g.union_offsets() {
                if let Some((owner, _)) = g.locate(x + o.dx, y + o.dy, z + o.dz) {
                    assert_eq!(owner, dev, "internal cell ({x},{y},{z}) reads remote data");
                }
            }
        }
        // Expanded(0) is the standard view.
        for sweep in [Sweep::map, Sweep::stencil] {
            assert_eq!(
                spans_of(g, dev, sweep(Region::Expanded(0))),
                spans_of(g, dev, sweep(DataView::Standard.into()))
            );
        }
    }
    interior
}

fn dense(n_dev: usize, dim: Dim3, st: &Stencil) -> DenseGrid {
    DenseGrid::new(&Backend::dgx_a100(n_dev), dim, &[st], StorageMode::Real).unwrap()
}

#[test]
fn dense_spans_cover_views_and_interior_is_sound() {
    let (st7, star2, d3q19) = (Stencil::seven_point(), Stencil::star(2), Stencil::d3q19());
    for n_dev in 1..=4 {
        for (dim, st) in [
            (Dim3::new(6, 5, 16), &st7),
            (Dim3::new(7, 6, 16), &star2),
            (Dim3::new(5, 5, 16), &d3q19),
        ] {
            let g = dense(n_dev, dim, st);
            let interior = check_views(&g, &fields(&g));
            // Interior is exactly the box `reach` away from every face.
            let r = st.radius();
            let expect: usize = [dim.x, dim.y, dim.z].iter().map(|n| n - 2 * r).product();
            assert_eq!(interior, expect, "{dim} {} on {n_dev} devices", st.name());
        }
    }
}

#[test]
fn dense_rows_too_short_for_the_stencil_have_no_interior() {
    let (st7, star2) = (Stencil::seven_point(), Stencil::star(2));
    let yz = Stencil::new(
        "yz-cross",
        vec![
            Offset3::new(0, -1, 0),
            Offset3::new(0, 1, 0),
            Offset3::new(0, 0, -1),
            Offset3::new(0, 0, 1),
        ],
    );
    for n_dev in [1, 2] {
        // nx = 2·rx: left and right edges meet.
        for (dim, st) in [(Dim3::new(2, 4, 8), &st7), (Dim3::new(4, 5, 8), &star2)] {
            let g = dense(n_dev, dim, st);
            assert_eq!(check_views(&g, &fields(&g)), 0, "{dim}");
        }
        // nx = 1 with no x-reach: the whole row is the interior run.
        let g = dense(n_dev, Dim3::new(1, 4, 8), &yz);
        assert_eq!(check_views(&g, &fields(&g)), 2 * 6);
        for span in spans_of(&g, DeviceId(0), Sweep::stencil(DataView::Standard)) {
            assert_eq!(span.len(), 1);
        }
    }
}

#[test]
fn dense_expanded_sweeps_add_the_ghost_rings() {
    let st = Stencil::seven_point();
    for (n_dev, nz) in [(1, 8), (2, 12), (3, 18), (4, 24)] {
        let b = Backend::dgx_a100(n_dev);
        let dim = Dim3::new(5, 4, nz);
        let g = DenseGrid::with_halo_capacity(&b, dim, &[&st], StorageMode::Real, 3).unwrap();
        let fields = fields(&g);
        check_views(&g, &fields);
        assert_eq!(IterationSpace::ghost_capacity(&g), 2);
        for d in 0..n_dev {
            let dev = DeviceId(d);
            for depth in 0..=2 {
                let region = Region::Expanded(depth);
                check_sweep(&g, &fields, dev, Sweep::stencil(region));
                check_sweep(&g, &fields, dev, Sweep::map(region));
                check_map_sweep(&g, dev, region);
                let cells = cells_of(&spans_of(&g, dev, Sweep::stencil(region)));
                assert_eq!(cells.len() as u64, g.cell_count_expanded(dev, depth));
                let mut expect = Vec::new();
                g.for_each_owned(dev, &mut |c| expect.push((c.lin, c.x, c.y, c.z)));
                for level in 1..=depth {
                    g.for_each_ghost_ring(dev, level, &mut |c| expect.push((c.lin, c.x, c.y, c.z)));
                }
                expect.sort_unstable();
                let got: Vec<_> = cells.iter().map(|c| (c.lin, c.x, c.y, c.z)).collect();
                assert_eq!(got, expect, "device {d} depth {depth}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "exceeds ghost capacity")]
fn dense_expanded_sweep_past_capacity_panics() {
    let g = dense(2, Dim3::new(4, 4, 8), &Stencil::seven_point());
    g.for_each_span(DeviceId(0), Sweep::map(Region::Expanded(1)), &mut |_| {});
}

#[test]
fn sparse_spans_are_the_x_runs_of_the_cell_list() {
    let (st7, star2, st27) = (
        Stencil::seven_point(),
        Stencil::star(2),
        Stencil::twenty_seven_point(),
    );
    let dim = Dim3::new(8, 6, 16);
    // A plate with a hole: rows break into several runs.
    let mask = |x: i32, y: i32, _z: i32| x != 3 && (y != 2 || x < 6);
    for n_dev in 1..=4 {
        for st in [&st7, &star2, &st27] {
            let b = Backend::dgx_a100(n_dev);
            let g = SparseGrid::new(&b, dim, &[st], mask, StorageMode::Real).unwrap();
            check_views(&g, &fields(&g));
            for d in 0..n_dev {
                let spans = spans_of(&g, DeviceId(d), Sweep::stencil(DataView::Standard));
                // Runs are maximal among runs with the same interior bit:
                // a span continues the one before it only across the
                // internal/boundary cut or where the bit flips.
                for pair in spans.windows(2) {
                    let (a, b) = (pair[0], pair[1]);
                    let class_cut = g.cell_count(DeviceId(d), DataView::Internal) as u32;
                    assert!(
                        !continues(&a, &b)
                            || b.first.lin == class_cut
                            || a.interior() != b.interior(),
                        "{a:?} then {b:?}"
                    );
                }
                // Complete: a cell is in an interior span if and only if
                // all its registered neighbours are active.
                for c in cells_of(&spans) {
                    let all_active = g
                        .union_offsets()
                        .iter()
                        .all(|o| g.locate(c.x + o.dx, c.y + o.dy, c.z + o.dz).is_some());
                    assert_eq!(c.interior, all_active, "{c:?} under {}", st.name());
                }
                for span in &spans {
                    assert!((span.first.x..span.first.x + span.len as i32).all(|x| x != 3));
                }
            }
        }
    }
}

#[test]
fn block_spans_are_block_rows_clipped_to_the_domain() {
    let st = Stencil::seven_point();
    // Extents that are not multiples of the block edge: clipped rows. A
    // mask uniform in z keeps every partition two block layers thick.
    let dim = Dim3::new(10, 9, 32);
    let disc = |x: i32, y: i32, _z: i32| {
        let (dx, dy) = (x as f64 - 4.5, y as f64 - 4.0);
        dx * dx + dy * dy <= 16.0
    };
    for n_dev in 1..=4 {
        let b = Backend::dgx_a100(n_dev);
        for full in [true, false] {
            let g = BlockSparseGrid::new(
                &b,
                dim,
                4,
                &[&st],
                move |x, y, z| full || disc(x, y, z),
                StorageMode::Real,
            )
            .unwrap();
            check_views(&g, &fields(&g));
            for d in 0..n_dev {
                for span in spans_of(&g, DeviceId(d), Sweep::stencil(DataView::Standard)) {
                    assert_eq!(span.first.x % 4, 0, "a block row starts at the block edge");
                    let clipped = (dim.x as i32 - span.first.x).min(4);
                    assert_eq!(span.len as i32, clipped);
                }
            }
        }
    }
}

#[test]
fn map_sweeps_take_whole_dense_rows_and_maximal_sparse_runs() {
    let (st7, st27) = (Stencil::seven_point(), Stencil::twenty_seven_point());
    let dim = Dim3::new(8, 6, 12);
    // The plate with a hole again: the interior bit flips inside rows.
    let mask = |x: i32, y: i32, _z: i32| x != 3 && (y != 2 || x < 6);
    for n_dev in 1..=3 {
        for st in [&st7, &st27] {
            let g = dense(n_dev, dim, st);
            let b = Backend::dgx_a100(n_dev);
            let sg = SparseGrid::new(&b, dim, &[st], mask, StorageMode::Real).unwrap();
            let (mut cut_dense, mut cut_sparse) = (0, 0);
            for d in 0..n_dev {
                let dev = DeviceId(d);
                for view in VIEWS {
                    let rows = check_map_sweep(&g, dev, view.into());
                    assert!(
                        rows.iter().all(|s| s.first.x == 0 && s.len() == dim.x),
                        "one span per dense row"
                    );
                    assert_eq!(rows.len() * dim.x, g.cell_count(dev, view) as usize);
                    cut_dense += spans_of(&g, dev, Sweep::stencil(view)).len() - rows.len();
                    let runs = check_map_sweep(&sg, dev, view.into());
                    cut_sparse += spans_of(&sg, dev, Sweep::stencil(view)).len() - runs.len();
                }
            }
            assert!(cut_dense > 0 && cut_sparse > 0, "{} cuts no run", st.name());
        }
    }
}

/// A container over `g` whose span kernel records the length of every
/// span it is handed. It reads `x`, through a stencil view if `stencil`,
/// and reduces into `sum` if given.
fn recording(
    g: &DenseGrid,
    x: &Field<f64, DenseGrid>,
    stencil: bool,
    sum: Option<&ScalarSet<f64>>,
    lens: &Arc<Mutex<Vec<u32>>>,
) -> Container {
    let (x, sum, lens) = (x.clone(), sum.cloned(), lens.clone());
    Container::compute("record", g.as_space(), move |ldr| {
        if stencil {
            ldr.read_stencil(&x);
        } else {
            ldr.read(&x);
        }
        if let Some(sum) = &sum {
            ldr.reduce(sum);
        }
        let lens = lens.clone();
        KernelFn::spans(move |span| lens.lock().unwrap().push(span.len))
    })
}

#[test]
fn containers_sweep_whole_rows_unless_they_stencil_read() {
    let dim = Dim3::new(6, 5, 8);
    let g = dense(2, dim, &Stencil::seven_point());
    let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let sum = ScalarSet::<f64>::new(2, "sum", 0.0, |a, b| a + b);
    let lens = Arc::new(Mutex::new(Vec::new()));
    let launch = |c: &Container| {
        for d in 0..2 {
            c.run_device(DeviceId(d), DataView::Standard);
        }
        std::mem::take(&mut *lens.lock().unwrap())
    };
    let map = || recording(&g, &x, false, None, &lens);
    let dot = recording(&g, &x, false, Some(&sum), &lens);
    let stencil = || recording(&g, &x, true, None, &lens);
    // Fused members run one after the other on each span.
    let twice = |lens: &[u32]| -> Vec<u32> { lens.iter().flat_map(|&l| [l, l]).collect() };

    let rows = vec![dim.x as u32; dim.y * dim.z];
    assert_eq!(launch(&map()), rows, "a map");
    assert_eq!(launch(&dot), rows, "a reduction");
    let chain = Container::fused("map+dot", vec![map(), dot.clone()]);
    assert_eq!(launch(&chain), twice(&rows), "a fused map chain");

    let split: Vec<u32> = (0..2)
        .flat_map(|d| spans_of(&g, DeviceId(d), Sweep::stencil(DataView::Standard)))
        .map(|s| s.len)
        .collect();
    assert!(split.len() > rows.len(), "the stencil sweep is cut");
    assert_eq!(launch(&stencil()), split, "a stencil");
    let group = Container::fused("stencil+dot", vec![stencil(), dot]);
    assert_eq!(launch(&group), twice(&split), "a fused stencil+dot");
}

/// Lanes of a `C`-component field in `layout` hold every component of
/// every cell, as the per-cell reads see them, both typed and at run time.
fn check_vector_lanes<const C: usize>(layout: MemLayout) {
    let g = dense(2, Dim3::new(6, 4, 8), &Stencil::seven_point());
    let f = Field::<f64, _>::new(&g, "v", C, OUTSIDE, layout).unwrap();
    f.fill(|x, y, z, k| value(x, y, z) + k as f64 * 0.25);
    let mut ldr = Loader::for_execution(DeviceId(1), 2, DataView::Standard);
    let rv = ldr.read(&f);
    for span in spans_of(&g, DeviceId(1), Sweep::map(DataView::Standard)) {
        let want: Vec<f64> = span
            .cells()
            .flat_map(|c| (0..C).map(move |k| (c, k)))
            .map(|(c, k)| rv.at(c, k))
            .collect();
        let typed = match layout {
            MemLayout::SoA => elems(&span, &rv.lanes::<Soa<C>>(&span)),
            MemLayout::AoS => elems(&span, &rv.lanes::<Aos<C>>(&span)),
        };
        assert_eq!(typed, want, "{layout:?}");
        let lanes = rv.lanes::<neon_domain::Strides>(&span);
        assert_eq!(elems(&span, &lanes), want);
        // Runs: the cell-major elements in one piece under AoS, one row
        // per component under SoA.
        let runs: Vec<Vec<f64>> = lanes.runs().map(<[f64]>::to_vec).collect();
        let rows: Vec<Vec<f64>> = (0..C)
            .map(|k| span.cells().map(|c| rv.at(c, k)).collect())
            .collect();
        match layout {
            MemLayout::AoS => assert_eq!(runs, vec![want]),
            MemLayout::SoA => assert_eq!(runs, rows),
        }
    }
}

#[test]
fn vector_fields_expose_rows_or_blocks_by_layout() {
    for layout in [MemLayout::SoA, MemLayout::AoS] {
        check_vector_lanes::<3>(layout);
        check_vector_lanes::<19>(layout);
    }
}

/// A stencil read through lanes of the last stored cell, claimed interior:
/// its +z neighbour would sit a whole plane past the end of the
/// partition.
fn forge_interior(layout: MemLayout) {
    let g = dense(1, Dim3::new(4, 4, 4), &Stencil::seven_point());
    let f = Field::<f64, _>::new(&g, "v", 3, OUTSIDE, layout).unwrap();
    let mut ldr = Loader::for_execution(DeviceId(0), 1, DataView::Standard);
    let sv = ldr.read_stencil(&f);
    let last = Cell {
        interior: true,
        ..Cell::new(4 * 4 * 6 - 1, 3, 3, 4)
    };
    let up = g.slot_of(Offset3::new(0, 0, 1)).unwrap();
    sv.ngh_lanes::<neon_domain::Strides>(&Span::new(last, 1), up);
}

#[test]
#[should_panic(expected = "out of range")]
fn a_forged_interior_bit_cannot_leave_the_storage() {
    let aos = std::panic::catch_unwind(|| forge_interior(MemLayout::AoS)).unwrap_err();
    let msg = aos
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    assert!(msg.contains("out of range"), "AoS: {msg}");
    forge_interior(MemLayout::SoA);
}
