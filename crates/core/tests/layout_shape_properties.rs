//! Property tests of the span kernel data path:
//!
//! * **Layout transparency** — the same shaped program over AoS fields
//!   and over SoA fields produces bit-identical results (the layout only
//!   moves bytes, never changes the arithmetic or its order).
//! * **Shape transparency** — every [`neon_domain::ops`] span kernel is
//!   bit-identical to its per-cell twin in
//!   [`neon_domain::ops::reference`], whichever of its paths a span takes
//!   (whole blocks, per-component rows, or cell by cell). The two share
//!   one plan-cache key, so the second of a pair usually runs a plan
//!   compiled for the first, rebound to its own containers.
//!
//! Both hold for randomized sequences on the dense, element-sparse and
//! block-sparse grids, scalar and 3-component fields, 1/2/4/8 devices,
//! every OCC level, and fusion on/off — the full cross product the plan
//! cache can serve. Fields are integer-valued so all f64 arithmetic is
//! exact; bit-identity is a real property, not a tolerance.

use neon_core::{FusionLevel, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    ops, BlockSparseGrid, Container, DenseGrid, Dim3, Field, GridLike, MemLayout, ScalarSet,
    SparseGrid, Stencil, StorageMode,
};
use neon_sys::Backend;
use proptest::prelude::*;

/// One step of a randomized BLAS-style sequence over the fields `x`, `y`,
/// `w` and the reduction scalar `acc`.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `y ← 0.5` (fill).
    FillY,
    /// `y ← x` (copy).
    CopyXy,
    /// `y ← 2·x + y` (axpy, constant coefficient).
    AxpyXy,
    /// `x ← acc·x` (scale by a reduction scalar).
    ScaleX,
    /// `w ← 3·x + 0.5·y` (waxpby).
    WaxpbyXy,
    /// `acc ← x·y` (dot).
    DotXy,
    /// `acc ← ‖x‖²` (norm2).
    NormX,
}

const OPS: [Op; 7] = [
    Op::FillY,
    Op::CopyXy,
    Op::AxpyXy,
    Op::ScaleX,
    Op::WaxpbyXy,
    Op::DotXy,
    Op::NormX,
];

/// Which grid a case runs on. All three hold 32 z-layers so that eight
/// devices still get partitions two (block) layers thick.
#[derive(Debug, Clone, Copy)]
enum GridKind {
    Dense,
    Sparse,
    Block,
}

const GRIDS: [GridKind; 3] = [GridKind::Dense, GridKind::Sparse, GridKind::Block];
const DIM: Dim3 = Dim3::new(5, 4, 32);

/// A plate with a notch: sparse rows break into runs of unequal length.
fn mask(x: i32, y: i32, _z: i32) -> bool {
    x != 2 || y == 0
}

/// How the three fields are laid out: all one layout, or `y` against the
/// grain of `x` and `w` so spans fall back to the per-cell path.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Layouts {
    All(MemLayout),
    Mixed,
}

struct Setup<G: GridLike> {
    backend: Backend,
    grid: G,
    x: Field<f64, G>,
    y: Field<f64, G>,
    w: Field<f64, G>,
    acc: ScalarSet<f64>,
}

fn setup<G: GridLike>(backend: Backend, grid: G, card: usize, layouts: Layouts) -> Setup<G> {
    let (lx, ly) = match layouts {
        Layouts::All(l) => (l, l),
        Layouts::Mixed => (MemLayout::SoA, MemLayout::AoS),
    };
    let x = Field::<f64, _>::new(&grid, "x", card, 0.0, lx).unwrap();
    let y = Field::<f64, _>::new(&grid, "y", card, 0.0, ly).unwrap();
    let w = Field::<f64, _>::new(&grid, "w", card, 0.0, lx).unwrap();
    x.fill(|a, b, c, k| ((a * 31 + b * 17 + c * 7 + k as i32) % 13) as f64 - 6.0);
    y.fill(|a, b, c, k| ((a * 5 + b * 3 + c + 2 * k as i32) % 7) as f64);
    let acc = ScalarSet::<f64>::new(backend.num_devices(), "acc", 0.0, |p, q| p + q);
    Setup {
        backend,
        grid,
        x,
        y,
        w,
        acc,
    }
}

/// Build the sequence from the span ops or their per-cell reference
/// twins.
fn build_sequence<G: GridLike>(s: &Setup<G>, ops_list: &[Op], shaped: bool) -> Vec<Container> {
    macro_rules! op {
        ($f:ident ( $($a:expr),* )) => {
            if shaped { ops::$f($($a),*) } else { ops::reference::$f($($a),*) }
        };
    }
    ops_list
        .iter()
        .map(|op| match op {
            Op::FillY => op!(set_value(&s.grid, &s.y, 0.5)),
            Op::CopyXy => op!(copy(&s.grid, &s.x, &s.y)),
            Op::AxpyXy => op!(axpy_const(&s.grid, 2.0, &s.x, &s.y)),
            Op::ScaleX => op!(scale_scalar(&s.grid, &s.acc, &s.x)),
            Op::WaxpbyXy => op!(waxpby_const(&s.grid, 3.0, &s.x, 0.5, &s.y, &s.w)),
            Op::DotXy => op!(dot(&s.grid, &s.x, &s.y, &s.acc)),
            Op::NormX => op!(norm2_sq(&s.grid, &s.x, &s.acc)),
        })
        .collect()
}

/// One point of the cross product a case runs at.
#[derive(Debug, Clone, Copy)]
struct Config {
    grid: GridKind,
    n_dev: usize,
    card: usize,
    layouts: Layouts,
    occ: OccLevel,
    fusion: FusionLevel,
}

/// Compile + run one randomized sequence, returning the full observable
/// state as bit patterns (fields in traversal order, then the scalar).
fn run_case(ops_list: &[Op], cfg: Config, shaped: bool) -> Vec<u64> {
    let backend = Backend::dgx_a100(cfg.n_dev);
    let st = Stencil::seven_point();
    match cfg.grid {
        GridKind::Dense => {
            let g = DenseGrid::new(&backend, DIM, &[&st], StorageMode::Real).unwrap();
            run_on(
                setup(backend, g, cfg.card, cfg.layouts),
                ops_list,
                cfg,
                shaped,
            )
        }
        GridKind::Sparse => {
            let g = SparseGrid::new(&backend, DIM, &[&st], mask, StorageMode::Real).unwrap();
            run_on(
                setup(backend, g, cfg.card, cfg.layouts),
                ops_list,
                cfg,
                shaped,
            )
        }
        GridKind::Block => {
            let g =
                BlockSparseGrid::new(&backend, DIM, 2, &[&st], mask, StorageMode::Real).unwrap();
            run_on(
                setup(backend, g, cfg.card, cfg.layouts),
                ops_list,
                cfg,
                shaped,
            )
        }
    }
}

fn run_on<G: GridLike>(s: Setup<G>, ops_list: &[Op], cfg: Config, shaped: bool) -> Vec<u64> {
    let seq = build_sequence(&s, ops_list, shaped);
    let mut sk = Skeleton::sequence(
        &s.backend,
        "layout-shape-prop",
        seq,
        SkeletonOptions {
            occ: cfg.occ,
            fusion: cfg.fusion,
            ..Default::default()
        },
    );
    sk.run();
    let mut bits = Vec::new();
    s.x.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    s.y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    s.w.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
    bits.push(s.acc.host_value().to_bits());
    bits
}

fn op_sequences() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0usize..OPS.len()).prop_map(|i| OPS[i]), 1..7)
}

/// Everything of a [`Config`] but the layouts.
fn configs() -> impl Strategy<Value = Config> {
    (
        0usize..3,
        0usize..4,
        any::<bool>(),
        0usize..4,
        any::<bool>(),
    )
        .prop_map(|(grid, dev, vector, occ, fuse)| Config {
            grid: GRIDS[grid],
            n_dev: [1, 2, 4, 8][dev],
            card: if vector { 3 } else { 1 },
            layouts: Layouts::All(MemLayout::SoA),
            occ: OccLevel::ALL[occ],
            fusion: if fuse {
                FusionLevel::Conservative
            } else {
                FusionLevel::Off
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// AoS and SoA runs of the same shaped program are bit-identical.
    #[test]
    fn aos_and_soa_are_bit_identical(ops_list in op_sequences(), cfg in configs()) {
        let with = |l: MemLayout| Config { layouts: Layouts::All(l), ..cfg };
        let soa = run_case(&ops_list, with(MemLayout::SoA), true);
        let aos = run_case(&ops_list, with(MemLayout::AoS), true);
        prop_assert_eq!(&aos, &soa, "layout changes bits for {:?} at {:?}", ops_list, cfg);
    }

    /// Span kernels and their Generic per-cell twins are bit-identical,
    /// on every path a span can take.
    #[test]
    fn shaped_matches_generic_reference(
        ops_list in op_sequences(),
        cfg in configs(),
        layout_pick in 0usize..3,
    ) {
        let layouts = [
            Layouts::All(MemLayout::SoA),
            Layouts::All(MemLayout::AoS),
            Layouts::Mixed,
        ][layout_pick];
        let cfg = Config { layouts, ..cfg };
        let fast = run_case(&ops_list, cfg, true);
        let generic = run_case(&ops_list, cfg, false);
        prop_assert_eq!(
            &fast, &generic,
            "span kernels change bits for {:?} at {:?}", ops_list, cfg
        );
    }
}
