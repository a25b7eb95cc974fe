//! D3Q19 twoPop lid-driven cavity (paper §VI-A, Table II, Fig. 7).
//!
//! The *twoPop* variant keeps two 19-component population fields and swaps
//! them every iteration; collide and streaming are fused into a single
//! pull-form kernel, so each iteration is exactly one stencil container —
//! which is why the paper notes only Standard OCC applies to this
//! application.
//!
//! Boundary conditions: half-way bounce-back on all six cavity walls, with
//! the moving-wall momentum correction `6·w_q·(c_q · u_w)` on the lid
//! plane `y = ny−1` (fluid density ρ₀ = 1).

use neon_core::{ExecReport, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    span_kernel, velocity_components, Cell, Container, Dim3, Field, FieldRead as _, FieldStencil,
    FieldWrite, GridLike, KernelFn, Lanes, Span, SpanBody, Stride, D3Q19_OFFSETS,
};
use neon_sys::Result;

/// Achieved-bandwidth fraction of Neon's fused LBM kernel relative to the
/// device model's effective bandwidth. Calibrated so that single-GPU
/// MLUPS lands within 1 % of the native-CUDA `cuboltz` comparator, as the
/// paper reports (Table II).
pub const NEON_LBM_EFFICIENCY: f64 = 0.79;

/// FLOPs per lattice-site update of the fused D3Q19 BGK kernel
/// (macroscopic moments + 19 equilibrium evaluations).
pub const D3Q19_FLOPS_PER_CELL: u64 = 350;

/// D3Q19 quadrature weights, matching
/// [`neon_domain::d3q19_offsets`] slot order.
pub const D3Q19_WEIGHTS: [f64; 19] = {
    const W0: f64 = 1.0 / 3.0;
    const WF: f64 = 1.0 / 18.0;
    const WE: f64 = 1.0 / 36.0;
    [
        W0, WF, WF, WF, WF, WF, WF, WE, WE, WE, WE, WE, WE, WE, WE, WE, WE, WE, WE,
    ]
};

/// The D3Q19 directions by component, `D3Q19_C[axis][q]`, as the `f64`
/// factors the moment sums and the equilibrium multiply by.
pub const D3Q19_C: [[f64; 19]; 3] = velocity_components(&D3Q19_OFFSETS);

/// Opposite-direction table for the D3Q19 slot order.
pub const D3Q19_OPPOSITE: [usize; 19] = [
    0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17,
];

/// Physical parameters of the cavity benchmark.
#[derive(Debug, Clone, Copy)]
pub struct LbmParams {
    /// BGK relaxation rate ω = 1/τ.
    pub omega: f64,
    /// Lid velocity along +x.
    pub u_lid: f64,
}

impl Default for LbmParams {
    fn default() -> Self {
        LbmParams {
            omega: 1.0,
            u_lid: 0.1,
        }
    }
}

/// BGK equilibrium population for direction `q` (D3Q19).
#[inline]
pub fn equilibrium_d3q19(q: usize, rho: f64, ux: f64, uy: f64, uz: f64) -> f64 {
    let cu = D3Q19_C[0][q] * ux + D3Q19_C[1][q] * uy + D3Q19_C[2][q] * uz;
    let usq = ux * ux + uy * uy + uz * uz;
    equilibrium_at(q, rho, cu, usq)
}

/// The equilibrium of direction `q` from `c_q·u` and `|u|²`.
#[inline(always)]
fn equilibrium_at(q: usize, rho: f64, cu: f64, usq: f64) -> f64 {
    D3Q19_WEIGHTS[q] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq)
}

/// The fused collide-and-stream container `f_out ← C(S(f_in))`.
///
/// Grid-generic: works on dense and element-sparse grids. The grid must
/// have been constructed with [`neon_domain::Stencil::d3q19`] so the slot
/// order matches the velocity set.
pub fn stream_collide<G: GridLike>(
    grid: &G,
    f_in: &Field<f64, G>,
    f_out: &Field<f64, G>,
    params: LbmParams,
) -> Container {
    lbm_container(grid, f_in, f_out, params, true)
}

/// [`stream_collide`] with its per-cell body run cell by cell through
/// [`KernelFn::PerCell`], never over neighbour lanes: the bit-identity
/// oracle of the interior body.
pub fn stream_collide_per_cell<G: GridLike>(
    grid: &G,
    f_in: &Field<f64, G>,
    f_out: &Field<f64, G>,
    params: LbmParams,
) -> Container {
    lbm_container(grid, f_in, f_out, params, false)
}

fn lbm_container<G: GridLike>(
    grid: &G,
    f_in: &Field<f64, G>,
    f_out: &Field<f64, G>,
    params: LbmParams,
    lanes: bool,
) -> Container {
    assert_eq!(f_in.card(), 19);
    assert_eq!(f_out.card(), 19);
    let dim = grid.dim();
    let (fi, fo) = (f_in.clone(), f_out.clone());
    let name = format!("lbm({}->{})", f_in.name(), f_out.name());
    // A span kernel. An interior span (every neighbour of every cell
    // active, so no wall is crossed) pulls through its 19 neighbour lanes;
    // any other span runs the per-cell bounce-back body over
    // `span.cells()`.
    Container::compute_opts(
        &name,
        grid.as_space(),
        move |ldr| {
            let fin = ldr.read_stencil(&fi);
            let fout = ldr.write(&fo);
            if !lanes {
                return KernelFn::per_cell(move |c| pull_collide(&fin, &fout, c, dim, params));
            }
            let operands = [fin.strides(), fout.strides()];
            span_kernel::<19>(
                operands,
                Step {
                    fin,
                    fout,
                    dim,
                    params,
                },
            )
        },
        D3Q19_FLOPS_PER_CELL,
        NEON_LBM_EFFICIENCY,
    )
}

/// BGK collision of the pulled populations `f` into `out`: the moments,
/// the equilibrium at them, and the relaxation toward it. The one copy of
/// the arithmetic, shared by the interior and the per-cell body so the two
/// agree bit for bit. It fills `out` rather than returning an array, so
/// under AoS the interior body collides straight into the stored cell; a
/// returned array cost a 152-byte copy per cell.
///
/// The momenta and `c·u` add only the non-zero terms of the sums over
/// `D3Q19_C`, as `±f` and `±u` in slot order. IEEE arithmetic may not fold
/// `x · 0.0`, so the full sums execute 54 products by zero; leaving them
/// out is exact for finite populations. A sum that starts at `+0.0` never
/// becomes `−0.0`, and adding `±0.0` changes no other value. `c·u` may at
/// most change the sign of a zero, which `1.0 + 3·cu` absorbs.
#[inline(always)]
fn collide(f: &[f64; 19], omega: f64, out: &mut [f64; 19]) {
    let mut rho = 0.0;
    for fq in f {
        rho += fq;
    }
    let jx = 0.0 + f[1] - f[2] + f[7] - f[8] + f[9] - f[10] + f[11] - f[12] + f[13] - f[14];
    let jy = 0.0 + f[3] - f[4] + f[7] - f[8] - f[9] + f[10] + f[15] - f[16] + f[17] - f[18];
    let jz = 0.0 + f[5] - f[6] + f[11] - f[12] - f[13] + f[14] + f[15] - f[16] - f[17] + f[18];
    let (ux, uy, uz) = (jx / rho, jy / rho, jz / rho);
    let cu = [
        0.0,
        ux,
        -ux,
        uy,
        -uy,
        uz,
        -uz,
        ux + uy,
        -ux - uy,
        ux - uy,
        -ux + uy,
        ux + uz,
        -ux - uz,
        ux - uz,
        -ux + uz,
        uy + uz,
        -uy - uz,
        uy - uz,
        -uy + uz,
    ];
    let usq = ux * ux + uy * uy + uz * uz;
    for q in 0..19 {
        let feq = equilibrium_at(q, rho, cu[q], usq);
        out[q] = f[q] + omega * (feq - f[q]);
    }
}

/// The per-cell body: pull each population from its upstream neighbour
/// (direction −c_q), bouncing back off walls, then collide.
#[inline(always)]
fn pull_collide(
    fin: &impl FieldStencil<f64>,
    fout: &impl FieldWrite<f64>,
    c: Cell,
    dim: Dim3,
    params: LbmParams,
) {
    let f = std::array::from_fn(|q| {
        let qb = D3Q19_OPPOSITE[q];
        if fin.ngh_active(c, qb) {
            fin.ngh(c, qb, q)
        } else {
            // Half-way bounce-back off the wall crossed in direction
            // c_qb; the lid plane y = ny-1 moves.
            let wall_is_lid = c.y + D3Q19_OFFSETS[qb].dy >= dim.y as i32;
            let corr = if wall_is_lid {
                6.0 * D3Q19_WEIGHTS[q] * (D3Q19_C[0][q] * params.u_lid)
            } else {
                0.0
            };
            fin.at(c, qb) + corr
        }
    });
    let mut post = [0.0; 19];
    collide(&f, params.omega, &mut post);
    for (q, v) in post.into_iter().enumerate() {
        fout.set(c, q, v);
    }
}

/// One step's span kernel: the per-cell body on edge spans, and on an
/// interior span the same pull through the 19 neighbour lanes — cell `i`
/// takes population `q` from component `q` of lane `OPPOSITE[q]` and
/// collides into its own output cell.
struct Step<V, W> {
    fin: V,
    fout: W,
    dim: Dim3,
    params: LbmParams,
}

impl<V: FieldStencil<f64>, W: FieldWrite<f64>> SpanBody for Step<V, W> {
    fn span<S: Stride>(&mut self, span: &Span) {
        if !span.interior() {
            for c in span.cells() {
                pull_collide(&self.fin, &self.fout, c, self.dim, self.params);
            }
            return;
        }
        let ngh: [Lanes<f64, S>; 19] = std::array::from_fn(|slot| {
            self.fin
                .ngh_lanes(span, slot)
                .expect("an interior span has neighbour lanes")
        });
        let omega = self.params.omega;
        self.fout
            .lanes_mut::<S>(span)
            .for_each_cell([], |i, out, []| {
                let mut f = [0.0; 19];
                for (q, f) in f.iter_mut().enumerate() {
                    *f = ngh[D3Q19_OPPOSITE[q]].get(i, q);
                }
                collide(&f, omega, out);
            });
    }
}

/// The lid-driven cavity application: two population fields and two
/// skeletons (even and odd iterations of the twoPop swap).
pub struct LidDrivenCavity<G: GridLike> {
    grid: G,
    f: [Field<f64, G>; 2],
    params: LbmParams,
    skeletons: [Skeleton; 2],
    step: usize,
}

impl<G: GridLike> LidDrivenCavity<G> {
    /// Build the application on `grid` (constructed with the D3Q19
    /// stencil) with the chosen OCC level.
    pub fn new(grid: &G, params: LbmParams, occ: OccLevel) -> Result<Self> {
        Self::with_options(grid, params, SkeletonOptions::with_occ(occ))
    }

    /// Build the application with full skeleton options (OCC level,
    /// functional mode, tracing, layout policy, …), applied to both
    /// ping-pong skeletons.
    pub fn with_options(grid: &G, params: LbmParams, options: SkeletonOptions) -> Result<Self> {
        // Layout as policy: under `Auto`, `recommend_layout` picks for a
        // 19-component stencil-read field — AoS when halos are live (2
        // transfers per partition pair instead of 2·19), SoA on a single
        // partition. Numerics are layout-transparent, so any choice is exact.
        let layout = neon_core::recommend_layout(
            options.layout,
            neon_core::AccessSummary {
                card: 19,
                stencil: true,
                live_halo: grid.num_partitions() > 1,
            },
        )
        .0;
        let f0 = Field::<f64, G>::new(grid, "f0", 19, 0.0, layout)?;
        let f1 = Field::<f64, G>::new(grid, "f1", 19, 0.0, layout)?;
        let backend = grid.backend().clone();
        let even = Skeleton::sequence(
            &backend,
            "lbm-even",
            vec![stream_collide(grid, &f0, &f1, params)],
            options,
        );
        let odd = Skeleton::sequence(
            &backend,
            "lbm-odd",
            vec![stream_collide(grid, &f1, &f0, params)],
            options,
        );
        Ok(LidDrivenCavity {
            grid: grid.clone(),
            f: [f0, f1],
            params,
            skeletons: [even, odd],
            step: 0,
        })
    }

    /// Initialize populations to the rest equilibrium (ρ = 1, u = 0).
    pub fn init(&mut self) {
        if self.grid.storage_mode() == neon_domain::StorageMode::Real {
            self.f[0].fill(|_, _, _, q| D3Q19_WEIGHTS[q]);
            self.f[1].fill(|_, _, _, q| D3Q19_WEIGHTS[q]);
        }
        self.step = 0;
    }

    /// Advance `n` iterations, returning the aggregated timing report.
    pub fn step(&mut self, n: usize) -> ExecReport {
        let mut total = ExecReport::default();
        for _ in 0..n {
            let r = self.skeletons[self.step % 2].run();
            total.accumulate(r);
            self.step += 1;
        }
        total
    }

    /// The field currently holding the latest populations.
    pub fn current(&self) -> &Field<f64, G> {
        &self.f[self.step % 2]
    }

    /// Population field of one ping-pong parity (`0` or `1`) — migration
    /// copies both, since the next step reads the one the last step wrote.
    pub fn population(&self, parity: usize) -> &Field<f64, G> {
        &self.f[parity % 2]
    }

    /// The solver parameters.
    pub fn params(&self) -> LbmParams {
        self.params
    }

    /// Density and velocity at a cell (host-side diagnostic).
    pub fn macroscopic(&self, x: i32, y: i32, z: i32) -> Option<(f64, [f64; 3])> {
        let f = self.current();
        let mut rho = 0.0;
        let mut j = [0.0; 3];
        for q in 0..19 {
            let v = f.get(x, y, z, q)?;
            rho += v;
            for (j, c) in j.iter_mut().zip(&D3Q19_C) {
                *j += c[q] * v;
            }
        }
        Some((rho, [j[0] / rho, j[1] / rho, j[2] / rho]))
    }

    /// Total mass Σ f (conserved by bounce-back walls).
    pub fn total_mass(&self) -> f64 {
        let mut m = 0.0;
        self.current().for_each(|_, _, _, _, v| m += v);
        m
    }

    /// The even-iteration skeleton, for introspection.
    pub fn skeleton(&mut self) -> &mut Skeleton {
        &mut self.skeletons[0]
    }

    /// Completed time steps (the ping-pong parity: even steps read `f0`,
    /// odd steps read `f1`).
    pub fn step_index(&self) -> usize {
        self.step
    }

    /// Restore the step counter to `step` — the companion of a state
    /// rollback or migration: parity decides which population field
    /// [`LidDrivenCavity::current`] reads and which skeleton runs next, so
    /// restoring populations without restoring parity would corrupt the
    /// ping-pong.
    pub fn set_step_index(&mut self, step: usize) {
        self.step = step;
    }

    /// Type-erased state handles of *both* population fields, deduplicated
    /// — the union of the two ping-pong skeletons' write sets. A checkpoint
    /// at an iteration boundary must capture both parities: the next step
    /// reads the field the previous step wrote.
    pub fn checkpoint_handles(&self) -> Vec<std::sync::Arc<dyn neon_set::StateHandle>> {
        let mut seen = std::collections::HashSet::new();
        let mut out: Vec<std::sync::Arc<dyn neon_set::StateHandle>> = Vec::new();
        for sk in &self.skeletons {
            for h in sk.state_handles() {
                if seen.insert(h.state_uid()) {
                    out.push(h);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_domain::{DenseGrid, Dim3, Stencil, StorageMode};
    use neon_sys::Backend;

    /// The collision as the full sums over `D3Q19_C`, products by zero
    /// included: the oracle of [`collide`].
    fn collide_full_sums(f: &[f64; 19], omega: f64, out: &mut [f64; 19]) {
        let mut rho = 0.0;
        let (mut jx, mut jy, mut jz) = (0.0, 0.0, 0.0);
        for q in 0..19 {
            rho += f[q];
            jx += D3Q19_C[0][q] * f[q];
            jy += D3Q19_C[1][q] * f[q];
            jz += D3Q19_C[2][q] * f[q];
        }
        let (ux, uy, uz) = (jx / rho, jy / rho, jz / rho);
        for q in 0..19 {
            let feq = equilibrium_d3q19(q, rho, ux, uy, uz);
            out[q] = f[q] + omega * (feq - f[q]);
        }
    }

    #[test]
    fn collide_is_bit_identical_to_the_full_sums() {
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut unit = || (next() >> 11) as f64 / (1u64 << 53) as f64;
        for cell in 0..1_000_000 {
            let kind = cell % 4;
            let f: [f64; 19] = std::array::from_fn(|q| {
                let w = D3Q19_WEIGHTS[q];
                match kind {
                    // The rest state.
                    0 if cell % 64 == 0 => w,
                    // Near equilibrium, with exact zeros and negative
                    // populations mixed in.
                    0 | 1 => match (unit() * 8.0) as u32 {
                        0 => 0.0,
                        1 => -w * unit(),
                        _ => w * (1.0 + 0.2 * (unit() - 0.5)),
                    },
                    // Tiny populations, subnormal ones included.
                    2 => (unit() - 0.3) * 1e-300 * 10f64.powi(-((unit() * 20.0) as i32)),
                    // Wide magnitudes of either sign.
                    _ => (unit() - 0.4) * 10f64.powi((unit() * 20.0) as i32 - 10),
                }
            });
            let omega = [1.0, 1.7, 0.6][cell % 3];
            let (mut a, mut b) = ([0.0; 19], [0.0; 19]);
            collide(&f, omega, &mut a);
            collide_full_sums(&f, omega, &mut b);
            assert_eq!(
                a.map(f64::to_bits),
                b.map(f64::to_bits),
                "populations {f:?}"
            );
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let s: f64 = D3Q19_WEIGHTS.iter().sum();
        assert!((s - 1.0).abs() < 1e-15);
    }

    #[test]
    fn opposite_table_is_consistent() {
        let offs = D3Q19_OFFSETS;
        for q in 0..19 {
            assert_eq!(offs[D3Q19_OPPOSITE[q]], offs[q].opposite());
            assert_eq!(D3Q19_OPPOSITE[D3Q19_OPPOSITE[q]], q);
        }
    }

    #[test]
    fn equilibrium_moments() {
        // Σ feq = ρ and Σ c·feq = ρ·u (exact for the D3Q19 quadrature).
        let (rho, u) = (1.3, [0.05, -0.02, 0.01]);
        let mut s = 0.0;
        let mut j = [0.0; 3];
        for q in 0..19 {
            let f = equilibrium_d3q19(q, rho, u[0], u[1], u[2]);
            s += f;
            for (j, c) in j.iter_mut().zip(&D3Q19_C) {
                *j += c[q] * f;
            }
        }
        assert!((s - rho).abs() < 1e-12);
        for k in 0..3 {
            assert!((j[k] - rho * u[k]).abs() < 1e-12, "component {k}");
        }
    }

    #[test]
    fn mass_conserved_over_iterations() {
        let b = Backend::dgx_a100(2);
        let st = Stencil::d3q19();
        let g = DenseGrid::new(&b, Dim3::cube(12), &[&st], StorageMode::Real).unwrap();
        let mut app = LidDrivenCavity::new(&g, LbmParams::default(), OccLevel::Standard).unwrap();
        app.init();
        let m0 = app.total_mass();
        app.step(20);
        let m = app.total_mass();
        assert!((m - m0).abs() < 1e-9 * m0, "mass drifted: {m0} → {m}");
    }

    #[test]
    fn lid_drives_flow() {
        let b = Backend::dgx_a100(1);
        let st = Stencil::d3q19();
        let g = DenseGrid::new(&b, Dim3::cube(12), &[&st], StorageMode::Real).unwrap();
        let mut app = LidDrivenCavity::new(&g, LbmParams::default(), OccLevel::None).unwrap();
        app.init();
        app.step(50);
        // Near the lid the fluid moves in +x.
        let (_, u) = app.macroscopic(6, 10, 6).unwrap();
        assert!(u[0] > 1e-4, "no flow near lid: {u:?}");
        // At the bottom it's (much) slower.
        let (_, ub) = app.macroscopic(6, 1, 6).unwrap();
        assert!(ub[0].abs() < u[0]);
    }

    #[test]
    fn multi_gpu_matches_single_gpu_exactly() {
        let run = |n_dev: usize| {
            let b = Backend::dgx_a100(n_dev);
            let st = Stencil::d3q19();
            let g = DenseGrid::new(&b, Dim3::new(8, 8, 12), &[&st], StorageMode::Real).unwrap();
            let mut app =
                LidDrivenCavity::new(&g, LbmParams::default(), OccLevel::Standard).unwrap();
            app.init();
            app.step(12);
            let mut out = Vec::new();
            app.current().for_each(|_, _, _, _, v| out.push(v));
            out
        };
        let a = run(1);
        let bb = run(3);
        assert_eq!(a.len(), bb.len());
        for (x, y) in a.iter().zip(&bb) {
            assert!((x - y).abs() < 1e-13, "{x} vs {y}");
        }
    }

    #[test]
    fn layout_policy_picks_the_population_layout_bit_identically() {
        use neon_core::LayoutPolicy;
        use neon_domain::MemLayout;
        let b = Backend::dgx_a100(2);
        let st = Stencil::d3q19();
        let g = DenseGrid::new(&b, Dim3::new(8, 8, 12), &[&st], StorageMode::Real).unwrap();
        let run = |layout: LayoutPolicy| {
            let options = SkeletonOptions {
                layout,
                ..SkeletonOptions::with_occ(OccLevel::Standard)
            };
            let mut app = LidDrivenCavity::with_options(&g, LbmParams::default(), options).unwrap();
            app.init();
            app.step(6);
            let mut bits = Vec::new();
            app.current()
                .for_each(|_, _, _, _, v| bits.push(v.to_bits()));
            (app.current().layout(), bits)
        };
        let (soa, soa_bits) = run(LayoutPolicy::FixedSoA);
        let (aos, aos_bits) = run(LayoutPolicy::FixedAoS);
        assert_eq!((soa, aos), (MemLayout::SoA, MemLayout::AoS));
        assert_eq!(soa_bits, aos_bits, "populations depend on the layout");
        // Auto keeps picking AoS for live halos.
        assert_eq!(run(LayoutPolicy::Auto).0, MemLayout::AoS);
    }
}
