//! The paper's evaluation (§VI) as data. One function per table, figure
//! or ablation runs it on the virtual clock and returns typed rows;
//! `tests/paper_shapes.rs` asserts every EXPERIMENTS.md verdict on those
//! rows, and the `repro` binary renders them into `results/*.txt` and the
//! EXPERIMENTS.md tables. Nothing here reads the host clock.

use neon_apps::fem::{ElasticitySolver, Material};
use neon_apps::lbm::d2q9::{KarmanParams, KarmanVortex};
use neon_apps::lbm::d3q19::stream_collide;
use neon_apps::lbm::{mlups, AnalyticLbm, LbmParams, LidDrivenCavity};
use neon_apps::PoissonSolver;
use neon_comm::{choose, choose_flat, Algorithm, CollectiveEngine, CollectiveKind, EngineConfig};
use neon_core::{
    apply_occ, build_dependency_graph, build_schedule, clear_plan_cache, to_multigpu_graph,
    FusionLevel, Graph, HaloPolicy, LayoutPolicy, OccLevel, Schedule, Skeleton, SkeletonOptions,
};
use neon_domain::{
    ops, BlockSparseGrid, Cell, Container, DenseGrid, Dim3, Field, FieldRead as _,
    FieldStencil as _, FieldWrite as _, GridLike, MemLayout, PartitionStrategy, ScalarSet,
    SparseGrid, Stencil, StorageMode,
};
use neon_sys::{
    Backend, BackendKind, DeviceId, DeviceModel, LinkKind, LinkModel, QueueSim, Result, SimTime,
    SpanKind, StreamId, Topology, Trace,
};

// ---------------------------------------------------------------- runners

/// Parallel efficiency as the paper defines it:
/// `Efficiency(n) = t_baseline / (n · t_n)`.
fn efficiency(t_baseline: SimTime, n: usize, t_n: SimTime) -> f64 {
    t_baseline.as_us() / (n as f64 * t_n.as_us())
}

/// `n` A100s whose links have no latency and unbounded bandwidth: a run
/// on them costs what the same run costs with free communication.
fn a100_free_links(n: usize) -> Backend {
    let dev = DeviceModel::a100_40gb();
    let free = LinkModel {
        kind: LinkKind::NvLink,
        latency_us: 0.0,
        bandwidth_gb_s: 1e9,
    };
    let local = LinkModel::local(dev.mem_bandwidth_gb_s);
    let topo = Topology::from_fn(n, move |s, d| if s == d { local } else { free });
    Backend::new(BackendKind::Gpu, vec![dev; n], topo).expect("valid backend")
}

fn virtual_grid(backend: &Backend, dim: Dim3, st: &Stencil) -> DenseGrid {
    DenseGrid::new(backend, dim, &[st], StorageMode::Virtual).expect("grid")
}

fn virtual_cube(backend: &Backend, n: usize, st: &Stencil) -> DenseGrid {
    virtual_grid(backend, Dim3::cube(n), st)
}

fn field(g: &DenseGrid, name: &str, card: usize, layout: MemLayout) -> Field<f64, DenseGrid> {
    Field::new(g, name, card, 0.0, layout).expect("field")
}

/// Per-iteration virtual time of the D3Q19 twoPop cavity on a timing-only
/// `n³` grid, its populations laid out by `layout`.
fn lbm_cavity_iter_time(
    backend: &Backend,
    n: usize,
    occ: OccLevel,
    layout: LayoutPolicy,
    iters: usize,
) -> SimTime {
    let g = virtual_cube(backend, n, &Stencil::d3q19());
    let options = SkeletonOptions {
        layout,
        ..SkeletonOptions::with_occ(occ)
    };
    let mut app = LidDrivenCavity::with_options(&g, LbmParams::default(), options).expect("fields");
    app.init();
    app.step(iters).time_per_execution()
}

/// Per-iteration virtual time of the Poisson CG solver on a timing-only
/// `n³` grid.
fn poisson_iter_time(backend: &Backend, n: usize, occ: OccLevel, iters: usize) -> SimTime {
    let g = virtual_cube(backend, n, &Stencil::seven_point());
    let mut solver = PoissonSolver::new(&g, occ).expect("fields");
    solver.solve_iters(iters).time_per_execution()
}

/// The paper's hand-tuned CUDA+cuBLAS Poisson baseline on one GPU:
/// UpdateP, unguarded 7-pt stencil, cuBLAS dot ×2, AXPY ×2, and two
/// host synchronizations per CG iteration — no framework overheads.
fn poisson_baseline_single_gpu(device: &DeviceModel, n: usize) -> SimTime {
    let cells = (n * n * n) as u64;
    // Bytes per cell: UpdateP (read r, read+write p), stencil (read p,
    // write Ap), dot(p, Ap), the two AXPYs, and dot(r, r) with its second
    // read cached.
    let mut t = SimTime::ZERO;
    for bytes in [24, 16, 16, 24, 24, 8] {
        t += device.kernel_time(cells * bytes, 0, 1.0);
    }
    t + device.sync_overhead() + device.sync_overhead()
}

/// The active cells of Fig. 9's sparse domains: a cube centred in x and y
/// with volume fraction `ratio` of the `n³` domain, anchored at `z = 0`
/// so the Dirichlet plane exists, and at least `min_depth` layers deep.
fn cube_mask(n: usize, ratio: f64, min_depth: usize) -> impl Fn(i32, i32, i32) -> bool {
    let side = (n as f64 * ratio.cbrt()).round().max(2.0) as i32;
    let lo = ((n as i32) - side) / 2;
    let (hi, depth) = (lo + side, side.max(min_depth as i32));
    move |x, y, z| z < depth && x >= lo && x < hi && y >= lo && y < hi
}

/// An element-sparse grid over `cube_mask`; every device keeps at least
/// one layer.
fn sparse_cube_grid(backend: &Backend, n: usize, ratio: f64) -> Result<SparseGrid> {
    let mask = cube_mask(n, ratio, backend.num_devices());
    let st = Stencil::twenty_seven_point();
    SparseGrid::new(backend, Dim3::cube(n), &[&st], mask, StorageMode::Virtual)
}

/// The largest per-device memory peak of `backend`, in bytes.
fn peak_device_demand(backend: &Backend) -> u64 {
    (0..backend.num_devices())
        .map(|d| backend.ledger(DeviceId(d)).peak())
        .max()
        .unwrap_or(0)
}

fn fem_iter_time<G: GridLike>(g: &G, iters: usize) -> Result<SimTime> {
    let mut solver =
        ElasticitySolver::new(g, Material::default(), MemLayout::SoA, OccLevel::Standard)?;
    Ok(solver.solve_iters(iters).time_per_execution())
}

fn seq_time(backend: &Backend, seq: Vec<Container>, options: SkeletonOptions) -> SimTime {
    Skeleton::sequence(backend, "repro", seq, options)
        .run_iters(5)
        .time_per_execution()
}

/// `y ← x` read through the first stencil neighbour: a minimal stencil.
fn shift_stencil(g: &DenseGrid, x: &Field<f64, DenseGrid>, y: &Field<f64, DenseGrid>) -> Container {
    let (xc, yc) = (x.clone(), y.clone());
    Container::compute("stn", g.as_space(), move |ldr| {
        let xv = ldr.read_stencil(&xc);
        let yv = ldr.write(&yc);
        Box::new(move |c: Cell| yv.set(c, 0, xv.ngh(c, 0, 0)))
    })
}

// ---------------------------------------------------------------- figures

/// One Fig. 1 timeline: a map then a stencil on two PCIe GPUs.
pub struct Fig1Row {
    pub makespan: SimTime,
    pub trace: Trace,
}

/// Fig. 1: the map+stencil pipeline at no, Standard and Extended OCC (in
/// that order), on the PCIe system (on NVLink the transfer is a sliver
/// and the three timelines nearly coincide), 8 components per cell so
/// the halo shows.
pub fn fig1() -> Vec<Fig1Row> {
    [OccLevel::None, OccLevel::Standard, OccLevel::Extended]
        .into_iter()
        .map(|occ| {
            let backend = Backend::gv100_pcie(2);
            let st = Stencil::seven_point();
            let g = virtual_grid(&backend, Dim3::new(256, 256, 64), &st);
            let [x, y] = ["X", "Y"].map(|n| field(&g, n, 8, MemLayout::SoA));
            let xc = x.clone();
            let map = Container::compute("map", g.as_space(), move |ldr| {
                let xv = ldr.read_write(&xc);
                Box::new(move |c: Cell| {
                    for k in 0..8 {
                        xv.set(c, k, 2.0 * xv.at(c, k) + 1.0);
                    }
                })
            });
            let stencil = Container::compute("stn", g.as_space(), move |ldr| {
                let xv = ldr.read_stencil(&x);
                let yv = ldr.write(&y);
                Box::new(move |c: Cell| {
                    for k in 0..8 {
                        let s: f64 = (0..6).map(|slot| xv.ngh(c, slot, k)).sum();
                        yv.set(c, k, s - 6.0 * xv.at(c, k));
                    }
                })
            });
            let options = SkeletonOptions {
                trace: true,
                ..SkeletonOptions::with_occ(occ)
            };
            let mut sk = Skeleton::sequence(&backend, "fig1", vec![map, stencil], options);
            let makespan = sk.run().makespan;
            let trace = sk.take_trace().expect("trace enabled");
            Fig1Row { makespan, trace }
        })
        .collect()
}

/// Figs. 4–6: the compile stages of the paper's axpy → laplace → dot
/// snippet on two GPUs.
pub struct Fig4 {
    pub dependency: Graph,
    pub multigpu: Graph,
    pub two_way_occ: Graph,
    pub schedule: Schedule,
}

pub fn fig4() -> Fig4 {
    let backend = Backend::dgx_a100(2);
    let st = Stencil::seven_point();
    let g = virtual_grid(&backend, Dim3::new(32, 32, 16), &st);
    let [x, y, l] = ["X", "Y", "L"].map(|name| field(&g, name, 1, MemLayout::SoA));
    let dot = ScalarSet::<f64>::new(2, "dot", 0.0, |a, b| a + b);
    let axpy = ops::axpy_const(&g, 2.0, &y, &x);
    let (xc, lc) = (x.clone(), l.clone());
    let laplace = Container::compute("laplace", g.as_space(), move |ldr| {
        let xv = ldr.read_stencil(&xc);
        let lv = ldr.write(&lc);
        Box::new(move |c| {
            let s: f64 = (0..6).map(|slot| xv.ngh(c, slot, 0)).sum();
            lv.set(c, 0, s - 6.0 * xv.at(c, 0));
        })
    });
    let dependency = build_dependency_graph(&[axpy, laplace, ops::dot(&g, &l, &l, &dot)]);
    let multigpu = to_multigpu_graph(&dependency, 2);
    let two_way_occ = apply_occ(&multigpu, OccLevel::TwoWayExtended);
    let schedule = build_schedule(&two_way_occ, 8);
    Fig4 {
        dependency,
        multigpu,
        two_way_occ,
        schedule,
    }
}

/// One Table I domain: Neon's D2Q9 Kármán vortex against the Taichi model.
pub struct Table1Row {
    pub nx: usize,
    pub ny: usize,
    pub neon_mlups: f64,
    pub taichi_mlups: f64,
}

impl Table1Row {
    pub fn speedup(&self) -> f64 {
        self.neon_mlups / self.taichi_mlups
    }
}

/// Table I: Neon vs Taichi on one A100 over growing 2-D domains.
pub fn table1() -> Vec<Table1Row> {
    let taichi = AnalyticLbm::taichi_d2q9();
    [(4096, 1024), (8192, 2048), (16384, 4096), (32768, 8192)]
        .into_iter()
        .map(|(nx, ny)| {
            let backend = Backend::dgx_a100(1);
            let st = Stencil::d2q9();
            let g = virtual_grid(&backend, Dim3::new(nx, ny, 1), &st);
            let params = KarmanParams::for_domain(nx, ny);
            let mut app = KarmanVortex::new(&g, params, OccLevel::None).expect("fields");
            app.init();
            let t = app.step(10).time_per_execution();
            let cells = (nx * ny) as u64;
            Table1Row {
                nx,
                ny,
                neon_mlups: mlups(cells, 1, t.as_us()),
                taichi_mlups: taichi.mlups(backend.device(DeviceId(0)), cells),
            }
        })
        .collect()
}

/// Table II: single-A100 D3Q19 cavity MLUPS at 256³, `(implementation,
/// MLUPS)` — Neon twoPop first, then cuboltz and the three stlbm variants.
pub fn table2() -> Vec<(&'static str, f64)> {
    const N: usize = 256;
    let backend = Backend::dgx_a100(1);
    let cells = (N * N * N) as u64;
    let t = lbm_cavity_iter_time(&backend, N, OccLevel::None, LayoutPolicy::Auto, 10);
    let mut rows = vec![("Neon twoPop", mlups(cells, 1, t.as_us()))];
    for c in [
        AnalyticLbm::cuboltz(),
        AnalyticLbm::stlbm_aa(),
        AnalyticLbm::stlbm_two_pop(),
        AnalyticLbm::stlbm_swap(),
    ] {
        rows.push((c.name, c.mlups(backend.device(DeviceId(0)), cells)));
    }
    rows
}

/// Fig. 7's domain sizes.
pub const FIG7_SIZES: [usize; 6] = [192, 256, 320, 384, 448, 512];

/// One Fig. 7 domain: per-iteration times of the cavity on one A100 and
/// on eight (NVLink) without and with Standard OCC, and on eight with a
/// free interconnect.
pub struct Fig7Row {
    pub n: usize,
    pub t1: SimTime,
    pub t8_none: SimTime,
    pub t8_occ: SimTime,
    pub t8_free: SimTime,
}

impl Fig7Row {
    pub fn eff_none(&self) -> f64 {
        efficiency(self.t1, 8, self.t8_none)
    }
    pub fn eff_occ(&self) -> f64 {
        efficiency(self.t1, 8, self.t8_occ)
    }
    /// Share of a no-OCC iteration that communication adds.
    pub fn comm_share(&self) -> f64 {
        1.0 - self.t8_free.as_us() / self.t8_none.as_us()
    }
}

/// Fig. 7: LBM twoPop efficiency on 8 A100s vs domain size, populations
/// laid out by `layout`. Fresh backends per run, so no ledger carries a
/// previous size's fields.
pub fn fig7(layout: LayoutPolicy, sizes: &[usize]) -> Vec<Fig7Row> {
    let t = |b: Backend, n, occ| lbm_cavity_iter_time(&b, n, occ, layout, 5);
    sizes
        .iter()
        .map(|&n| Fig7Row {
            n,
            t1: t(Backend::dgx_a100(1), n, OccLevel::None),
            t8_none: t(Backend::dgx_a100(8), n, OccLevel::None),
            t8_occ: t(Backend::dgx_a100(8), n, OccLevel::Standard),
            t8_free: t(a100_free_links(8), n, OccLevel::None),
        })
        .collect()
}

/// One Fig. 8 point: efficiency against the hand-tuned single-GPU
/// baseline's per-iteration time `baseline`, per OCC level in
/// `OccLevel::ALL` order. `x` is the GPU count (top plot) or the grid edge
/// (bottom plot).
pub struct Fig8Row {
    pub x: usize,
    pub baseline: SimTime,
    pub eff: [f64; 4],
}

impl Fig8Row {
    /// The most efficient level; the first one on a tie.
    pub fn best(&self) -> OccLevel {
        let best = (0..4).fold(0, |b, i| if self.eff[i] > self.eff[b] { i } else { b });
        OccLevel::ALL[best]
    }
}

fn fig8_row(backend: &Backend, n: usize, x: usize) -> Fig8Row {
    let baseline = poisson_baseline_single_gpu(backend.device(DeviceId(0)), n);
    let ndev = backend.num_devices();
    let eff = |occ| efficiency(baseline, ndev, poisson_iter_time(backend, n, occ, 5));
    Fig8Row {
        x,
        baseline,
        eff: OccLevel::ALL.map(eff),
    }
}

/// Fig. 8 top: Poisson 320³ on `ndevs` GPUs of `system`.
pub fn fig8_top(system: fn(usize) -> Backend, ndevs: &[usize]) -> Vec<Fig8Row> {
    ndevs
        .iter()
        .map(|&d| fig8_row(&system(d), 320, d))
        .collect()
}

/// Fig. 8 bottom: Poisson on 8 A100s across grid sizes.
pub fn fig8_bottom(sizes: &[usize]) -> Vec<Fig8Row> {
    sizes
        .iter()
        .map(|&n| fig8_row(&Backend::dgx_a100(8), n, n))
        .collect()
}

/// One Fig. 9 point: FEM elasticity per-CG-iteration time (`Err` on
/// simulated OOM) and peak per-device memory, dense vs element-sparse,
/// and the sparse grid's active cells (0 if it could not be built).
pub struct Fig9Row {
    pub dense: Result<SimTime>,
    pub sparse: Result<SimTime>,
    pub dense_bytes: u64,
    pub sparse_bytes: u64,
    pub sparse_cells: u64,
}

/// Fig. 9 at one grid size and sparsity ratio on a fresh `system`.
pub fn fig9(system: fn() -> Backend, n: usize, ratio: f64) -> Fig9Row {
    let (bd, bs) = (system(), system());
    let st = Stencil::twenty_seven_point();
    let dense = DenseGrid::new(&bd, Dim3::cube(n), &[&st], StorageMode::Virtual)
        .and_then(|g| fem_iter_time(&g, 3));
    let sparse = sparse_cube_grid(&bs, n, ratio);
    let sparse_cells = sparse.as_ref().map_or(0, |g| g.active_cells());
    Fig9Row {
        dense,
        sparse: sparse.and_then(|g| fem_iter_time(&g, 3)),
        dense_bytes: peak_device_demand(&bd),
        sparse_bytes: peak_device_demand(&bs),
        sparse_cells,
    }
}

// -------------------------------------------------------------- ablations

/// Ablation 1: the 256³ cavity on 8 GPUs per interconnect class,
/// `(class, no-OCC, Standard OCC)` per-iteration times.
pub fn ablation_interconnect() -> Vec<(&'static str, SimTime, SimTime)> {
    [
        ("NVLink (DGX A100)", Backend::dgx_a100(8)),
        ("PCIe Gen3 (GV100 box)", Backend::gv100_pcie(8)),
    ]
    .into_iter()
    .map(|(name, backend)| {
        let t = |occ| lbm_cavity_iter_time(&backend, 256, occ, LayoutPolicy::FixedSoA, 5);
        (name, t(OccLevel::None), t(OccLevel::Standard))
    })
    .collect()
}

/// Ablation 2: map + stencil + dot on 8 PCIe GPUs at two-way OCC, with
/// and without scheduling hints, `(hints, time)`. Fusion stays off: a
/// fused stencil+dot would leave OCC nothing to split.
pub fn ablation_hints() -> Vec<(bool, SimTime)> {
    [true, false]
        .into_iter()
        .map(|hints| {
            let backend = Backend::gv100_pcie(8);
            let st = Stencil::seven_point();
            let g = virtual_grid(&backend, Dim3::new(256, 256, 64), &st);
            let [x, y] = ["x", "y"].map(|n| field(&g, n, 8, MemLayout::SoA));
            let dot = ScalarSet::<f64>::new(8, "dot", 0.0, |a, b| a + b);
            let xc = x.clone();
            let map = Container::compute("map", g.as_space(), move |ldr| {
                let xv = ldr.read_write(&xc);
                Box::new(move |c: Cell| xv.set(c, 0, xv.at(c, 0) + 1.0))
            });
            let seq = vec![map, shift_stencil(&g, &x, &y), ops::dot(&g, &y, &y, &dot)];
            let options = SkeletonOptions {
                occ: OccLevel::TwoWayExtended,
                hints,
                fusion: FusionLevel::Off,
                ..Default::default()
            };
            (hints, seq_time(&backend, seq, options))
        })
        .collect()
}

/// Ablation 3: a 19-component stencil on 4 GPUs at 192³ per layout,
/// `(layout, halo transfers, time)`.
pub fn ablation_layout() -> Vec<(MemLayout, usize, SimTime)> {
    let backend = Backend::dgx_a100(4);
    let g = virtual_cube(&backend, 192, &Stencil::d3q19());
    [MemLayout::SoA, MemLayout::AoS]
        .into_iter()
        .map(|layout| {
            let (f, o) = (field(&g, "f", 19, layout), field(&g, "o", 19, layout));
            let options = SkeletonOptions::with_occ(OccLevel::None);
            let t = seq_time(&backend, vec![shift_stencil(&g, &f, &o)], options);
            (layout, g.halo_segments(19, layout).len(), t)
        })
        .collect()
}

/// The D3Q19 step on 8 A100s at 256³ under `options`.
fn lbm_step_time(options: SkeletonOptions) -> SimTime {
    let backend = Backend::dgx_a100(8);
    let g = virtual_cube(&backend, 256, &Stencil::d3q19());
    let [f0, f1] = ["f0", "f1"].map(|n| field(&g, n, 19, MemLayout::SoA));
    let step = stream_collide(&g, &f0, &f1, LbmParams::default());
    seq_time(&backend, vec![step], options)
}

/// Ablation 4: the kernel bandwidth model, `(concurrent, time)` — kernels
/// serialized per device (the default) or each granted full bandwidth.
pub fn ablation_kernel_concurrency() -> Vec<(bool, SimTime)> {
    [false, true]
        .into_iter()
        .map(|conc| {
            let options = SkeletonOptions {
                occ: OccLevel::Standard,
                kernel_concurrency: conc,
                ..Default::default()
            };
            (conc, lbm_step_time(options))
        })
        .collect()
}

/// Ablation 5: halo coherency, `(model, no-OCC, Standard OCC)` times of
/// the D3Q19 step — explicit transfers vs unified memory (paper §IV-C2).
pub fn ablation_unified_memory() -> Vec<(&'static str, SimTime, SimTime)> {
    [
        ("explicit transfers", HaloPolicy::ExplicitTransfers),
        ("unified memory", HaloPolicy::UnifiedMemory),
    ]
    .into_iter()
    .map(|(name, halo_policy)| {
        let t = |occ| {
            lbm_step_time(SkeletonOptions {
                occ,
                halo_policy,
                ..Default::default()
            })
        };
        (name, t(OccLevel::None), t(OccLevel::Standard))
    })
    .collect()
}

/// Ablation 6: FEM elasticity at 256³, ratio 0.2, on 8 GPUs per data
/// structure, `(structure, time, peak bytes per device)`.
pub fn ablation_data_structures() -> Vec<(&'static str, SimTime, u64)> {
    const N: usize = 256;
    let st = Stencil::twenty_seven_point();
    let b = [(); 3].map(|_| Backend::dgx_a100(8));
    let mask = cube_mask(N, 0.2, 8);
    let block = BlockSparseGrid::new(&b[2], Dim3::cube(N), 4, &[&st], mask, StorageMode::Virtual);
    let t = [
        fem_iter_time(&virtual_cube(&b[0], N, &st), 3),
        fem_iter_time(&sparse_cube_grid(&b[1], N, 0.2).expect("grid"), 3),
        fem_iter_time(&block.expect("grid"), 3),
    ];
    let names = ["dense", "element-sparse", "block-sparse (B=4)"];
    let peak = b.each_ref().map(peak_device_demand);
    let row = |i: usize| (names[i], *t[i].as_ref().expect("fits"), peak[i]);
    (0..3).map(row).collect()
}

/// Ablation 7: a 7-point stencil at 256³ on 2 A100s + 2 GV100s per
/// partitioning, `(strategy, layers per device, time)`.
pub fn ablation_heterogeneous() -> Vec<(&'static str, Vec<usize>, SimTime)> {
    let devices = [DeviceModel::a100_40gb(), DeviceModel::gv100()].map(|d| vec![d; 2]);
    let topo = Topology::nvlink_all_to_all(4, 1555.0);
    let backend = Backend::new(BackendKind::Gpu, devices.concat(), topo).expect("backend");
    let st = Stencil::seven_point();
    [
        ("even layers", PartitionStrategy::Even),
        (
            "bandwidth-proportional",
            PartitionStrategy::DeviceProportional,
        ),
    ]
    .into_iter()
    .map(|(name, strategy)| {
        let g = DenseGrid::with_partitioning(
            &backend,
            Dim3::cube(256),
            &[&st],
            StorageMode::Virtual,
            strategy,
        )
        .expect("grid");
        let [x, y] = ["x", "y"].map(|n| field(&g, n, 1, MemLayout::SoA));
        let options = SkeletonOptions::with_occ(OccLevel::Standard);
        let t = seq_time(&backend, vec![shift_stencil(&g, &x, &y)], options);
        let z_range = |d| g.owned_z_range(DeviceId(d));
        let layers = (0..4).map(z_range).map(|(a, b)| b - a).collect();
        (name, layers, t)
    })
    .collect()
}

/// Ablation 8: the plan cache across Poisson CG builds on 8 A100s,
/// `(build, per-iteration time, iteration plan from the cache)`. The
/// cache is cleared first, so the first build compiles.
pub fn ablation_plan_cache() -> Vec<(&'static str, SimTime, bool)> {
    clear_plan_cache();
    let backend = Backend::dgx_a100(8);
    let st = Stencil::seven_point();
    // Build all three before running any, so nothing compiled elsewhere
    // in the process can come between a build and its rebuild.
    let solvers: Vec<_> = [
        ("first build, 256^3", 256),
        ("rebuild, same shape", 256),
        ("rebuild, 320^3 grid", 320),
    ]
    .into_iter()
    .map(|(name, n)| {
        let g = virtual_cube(&backend, n, &st);
        let solver = PoissonSolver::new(&g, OccLevel::Standard).expect("fields");
        (name, solver)
    })
    .collect();
    solvers
        .into_iter()
        .map(|(name, mut s)| {
            let hit = s.cg.compile_stats().iter_from_cache;
            (name, s.solve_iters(3).time_per_execution(), hit)
        })
        .collect()
}

// ------------------------------------------------------------ collectives

/// One all-reduce of `bytes` on `topo` with a forced algorithm: makespan
/// and bytes over the slow host-root-complex path.
fn all_reduce(topo: &Topology, alg: Algorithm, bytes: u64) -> (SimTime, u64) {
    let n = topo.num_devices();
    let mut q = QueueSim::new(n, 1);
    let config = EngineConfig {
        algorithm: Some(alg),
        ..EngineConfig::default()
    };
    let engine = CollectiveEngine::with_config(topo.clone(), config);
    let zeros = vec![SimTime::ZERO; n];
    let t = engine.schedule(&mut q, CollectiveKind::AllReduce, bytes, &zeros, 0, "ar");
    (t.makespan(), q.slow_link_bytes())
}

/// All-reduce message sizes of the collectives sweep.
pub const MESSAGE_SIZES: [u64; 6] = [8, 1 << 10, 64 << 10, 1 << 20, 16 << 20, 64 << 20];

/// One collectives-sweep cell: all-reduce makespans per algorithm and the
/// automatic pick.
pub struct AllReduceRow {
    pub ndev: usize,
    pub bytes: u64,
    pub host_staged: SimTime,
    pub ring: SimTime,
    pub tree: SimTime,
    pub auto: Algorithm,
}

/// The all-reduce sweep over 2/4/8 devices of `make_topo` and every size
/// in [`MESSAGE_SIZES`].
pub fn all_reduce_sweep(make_topo: fn(usize) -> Topology) -> Vec<AllReduceRow> {
    let mut rows = Vec::new();
    for ndev in [2, 4, 8] {
        let topo = make_topo(ndev);
        for bytes in MESSAGE_SIZES {
            let t = |alg| all_reduce(&topo, alg, bytes).0;
            rows.push(AllReduceRow {
                ndev,
                bytes,
                host_staged: t(Algorithm::HostStaged),
                ring: t(Algorithm::Ring),
                tree: t(Algorithm::Tree),
                auto: choose(CollectiveKind::AllReduce, bytes, &topo),
            });
        }
    }
    rows
}

/// DGX-A100-class NVLink all-to-all.
pub fn nvlink(n: usize) -> Topology {
    Topology::nvlink_all_to_all(n, 1555.0)
}

/// A PCIe box staging every peer copy through the host root complex.
pub fn pcie(n: usize) -> Topology {
    Topology::pcie_host_staged(n, 870.0)
}

/// A 16 MiB all-reduce on NVLink islands joined through the host:
/// hierarchical against the flat selector's own pick.
pub struct IslandRow {
    pub shape: Vec<usize>,
    pub flat: Algorithm,
    pub flat_time: SimTime,
    pub flat_slow_bytes: u64,
    pub hier_time: SimTime,
    pub hier_slow_bytes: u64,
    pub auto: Algorithm,
}

/// Island shapes of the hierarchical comparison: mixed fleets, then a
/// pure one where hierarchical must degenerate to the flat pick.
pub const ISLAND_SHAPES: &[&[usize]] =
    &[&[2, 2], &[3, 1], &[4, 4], &[6, 2], &[2, 2, 2, 2], &[1, 1]];

pub fn island_all_reduce(shapes: &[&[usize]]) -> Vec<IslandRow> {
    const BYTES: u64 = 16 << 20;
    shapes
        .iter()
        .map(|&shape| {
            let topo = Topology::nvlink_islands(shape, 1555.0);
            let flat = choose_flat(CollectiveKind::AllReduce, BYTES, &topo);
            let (flat_time, flat_slow_bytes) = all_reduce(&topo, flat, BYTES);
            let (hier_time, hier_slow_bytes) = all_reduce(&topo, Algorithm::Hierarchical, BYTES);
            IslandRow {
                shape: shape.to_vec(),
                flat,
                flat_time,
                flat_slow_bytes,
                hier_time,
                hier_slow_bytes,
                auto: choose(CollectiveKind::AllReduce, BYTES, &topo),
            }
        })
        .collect()
}

/// Two 1 MiB PCIe peer copies through the host root complex: one alone,
/// both issued at once by different devices, and both back to back on
/// one stream, plus the contention events of the simultaneous case.
pub struct Contention {
    pub single: SimTime,
    pub simultaneous: SimTime,
    pub serialized: SimTime,
    pub events: u64,
}

pub fn contention() -> Contention {
    let topo = pcie(4);
    let dur = topo.transfer_time(DeviceId(0), DeviceId(1), 1 << 20);
    let run = |second_issuer: usize| {
        let mut q = QueueSim::new(4, 1);
        for (issuer, (a, b)) in [(0, (0, 1)), (second_issuer, (2, 3))] {
            let res = topo.link_resources(DeviceId(a), DeviceId(b)).to_vec();
            let stream = StreamId::new(DeviceId(issuer), 0);
            q.enqueue_transfer(stream, SimTime::ZERO, dur, &res, "copy", SpanKind::Transfer);
        }
        let events = (0..q.num_link_resources())
            .map(|r| q.link_contention_events(r))
            .sum();
        (q.makespan(), events)
    };
    let (simultaneous, events) = run(2);
    Contention {
        single: dur,
        simultaneous,
        serialized: run(0).0,
        events,
    }
}
