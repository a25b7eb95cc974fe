//! Every verdict EXPERIMENTS.md states, asserted on the rows the `repro`
//! printer renders. Thresholds are the numbers the verdicts quote; a
//! model change that moves a figure's shape fails here, not in review.

use neon_bench::*;
use neon_comm::Algorithm;
use neon_core::{LayoutPolicy, OccLevel};
use neon_domain::MemLayout;
use neon_sys::{Backend, LinkModel, SpanKind, Trace};

fn spans(t: &Trace, kind: SpanKind, prefix: &str) -> Vec<(f64, f64)> {
    let spans = t.spans().iter();
    let matching = spans.filter(|s| s.kind == kind && s.name.starts_with(prefix));
    matching.map(|s| (s.start.as_us(), s.end.as_us())).collect()
}

#[test]
fn fig1_each_occ_level_overlaps_more_of_the_halo() {
    let rows = fig1();
    let t: Vec<f64> = rows.iter().map(|r| r.makespan.as_us()).collect();
    assert!(t[0] / t[1] >= 1.15 && t[0] / t[2] >= 1.35, "{t:?}");
    let last_end = |tr, kind, p| spans(tr, kind, p).iter().map(|s| s.1).fold(0.0, f64::max);
    let first_start = |tr, kind, p| {
        spans(tr, kind, p)
            .iter()
            .map(|s| s.0)
            .fold(f64::MAX, f64::min)
    };
    // (a) the stencil waits for the whole halo.
    let a = &rows[0].trace;
    assert!(first_start(a, SpanKind::Kernel, "stn") >= last_end(a, SpanKind::Transfer, ""));
    // (b) the halo starts after the map, and the internal stencil runs
    // under it.
    let b = &rows[1].trace;
    assert!(first_start(b, SpanKind::Transfer, "") >= last_end(b, SpanKind::Kernel, "map"));
    let transfers = spans(b, SpanKind::Transfer, "");
    let under = |&(s, e): &(f64, f64)| transfers.iter().any(|&(ts, te)| s < te && ts < e);
    let overlaps = spans(b, SpanKind::Kernel, "stn").iter().any(under);
    assert!(overlaps, "no stencil span overlaps a transfer");
    // (c) the halo starts before the internal map ends.
    let c = &rows[2].trace;
    assert!(first_start(c, SpanKind::Transfer, "") < last_end(c, SpanKind::Kernel, "map"));
}

/// The sorted `from -> to Kind` edges of `g`, joined by "; ".
fn edges(g: &neon_core::Graph) -> String {
    let name = |id| g.node(id).name.as_str();
    let edge = |e: &neon_core::Edge| format!("{} -> {} {:?}", name(e.from), name(e.to), e.kind);
    let mut out: Vec<String> = g.edges().iter().map(edge).collect();
    out.sort();
    out.join("; ")
}

#[test]
fn figs4_to_6_compile_stages_match_the_paper() {
    let f = fig4();
    // 4b: RaW edges only; dot reads L, so no axpy -> dot edge.
    let dependency = "axpy(Y,X) -> laplace RaW; laplace -> dot(L,L) RaW";
    assert_eq!(edges(&f.dependency), dependency);
    // 4c: the halo update sits between the map and the stencil.
    let multigpu = "axpy(Y,X) -> halo(X) RaW; axpy(Y,X) -> laplace RaW; \
                    halo(X) -> laplace RaW; laplace -> dot(L,L) RaW";
    assert_eq!(edges(&f.multigpu), multigpu);
    // 4d: every compute node split; the halo gates only the boundary
    // stencil; the two-way hint runs the internal reduce before it.
    let occ = edges(&f.two_way_occ);
    assert_eq!(f.two_way_occ.len(), 7);
    for e in [
        "halo(X) -> laplace.bnd RaW",
        "axpy(Y,X).bnd -> halo(X) RaW",
        "dot(L,L).int -> laplace.bnd Sched",
    ] {
        assert!(occ.contains(e), "missing {e} in {occ}");
    }
    assert!(!occ.contains("halo(X) -> laplace.int"), "{occ}");
    // Fig. 5: four BFS levels; Fig. 6: one task per node.
    let g = &f.two_way_occ;
    let level = |l: &Vec<neon_core::NodeId>| {
        let names: Vec<&str> = l.iter().map(|&n| g.node(n).name.as_str()).collect();
        names.join(", ")
    };
    let levels: Vec<String> = g.bfs_levels(false).iter().map(level).collect();
    let want = [
        "axpy(Y,X).bnd, axpy(Y,X).int",
        "halo(X), laplace.int",
        "laplace.bnd, dot(L,L).int",
        "dot(L,L).bnd",
    ];
    assert_eq!(levels, want);
    assert_eq!(f.schedule.tasks.len(), 7);
}

#[test]
fn table1_neon_wins_the_smallest_domain_and_ties_the_rest() {
    let s: Vec<f64> = table1().iter().map(|r| r.speedup()).collect();
    assert!(s[0] >= 1.10, "smallest-domain speedup {s:?}");
    assert!(s[1..].iter().all(|x| (x - 1.0).abs() <= 0.03), "{s:?}");
    assert!(s.windows(2).all(|w| w[0] > w[1]), "{s:?}");
}

#[test]
fn table2_neon_is_within_reach_of_cuboltz_and_above_stlbm() {
    let rows = table2();
    let m = |name: &str| rows.iter().find(|r| r.0.starts_with(name)).expect(name).1;
    let neon = m("Neon");
    assert!((0.985..1.0).contains(&(neon / m("cuboltz"))), "{rows:?}");
    assert!(neon > m("stlbm AA") && m("stlbm AA") > m("stlbm twoPop"));
    assert!(m("stlbm twoPop") > m("stlbm swap"));
}

#[test]
fn fig7_soa_reproduces_the_paper_and_auto_hides_the_soa_halo_latency() {
    let soa = fig7(LayoutPolicy::FixedSoA, &FIG7_SIZES);
    let auto = fig7(LayoutPolicy::Auto, &FIG7_SIZES);
    let (first, last) = (&soa[0], &soa[soa.len() - 1]);
    assert!(first.comm_share() >= 0.45 && last.comm_share() <= 0.10);
    assert!(last.eff_occ() >= 0.99 && last.eff_none() >= 0.90);
    assert!(soa.iter().all(|r| r.eff_occ() >= r.eff_none()));
    assert!(soa.windows(2).all(|w| w[1].eff_none() > w[0].eff_none()));
    // Per direction a device pair exchanges 19 SoA messages against one
    // AoS message, and each extra message costs one link latency on the
    // no-OCC critical path: 18 latencies, whatever the size.
    let gap = 18.0 * LinkModel::nvlink().latency_us;
    for (s, a) in soa.iter().zip(&auto) {
        assert!(a.comm_share() < s.comm_share(), "{}^3", s.n);
        let d = s.t8_none.as_us() - a.t8_none.as_us();
        assert!((d - gap).abs() < 0.05, "{}^3: gap {d}", s.n);
    }
}

/// On one GPU every level runs the same plan, at 0.86 of the baseline or
/// better (the unfused CG sweeps `p` once more than the hand-tuned code).
fn levels_coincide_on_one_gpu(r: &Fig8Row) -> bool {
    r.x == 1 && r.eff.iter().all(|&e| e == r.eff[0] && e >= 0.86)
}

#[test]
fn fig8_top_standard_wins_on_nvlink() {
    let rows = fig8_top(Backend::dgx_a100, &[1, 2, 5, 8]);
    // The baseline streams 112 B a cell, 3.7 GB at 320^3, at the A100's
    // 1555 GB/s: bandwidth-bound, so a few milliseconds.
    let base = rows[0].baseline.as_ms();
    assert!(base > 2.0 && base < 5.0, "baseline {base} ms");
    assert!(levels_coincide_on_one_gpu(&rows[0]));
    assert!(rows[1..].iter().all(|r| r.best() == OccLevel::Standard));
}

#[test]
fn fig8_top_pcie_the_best_level_deepens_with_gpu_count() {
    let rows = fig8_top(Backend::gv100_pcie, &[1, 2, 3, 4, 5, 6, 7, 8]);
    assert!(levels_coincide_on_one_gpu(&rows[0]));
    assert_eq!(rows[1].best(), OccLevel::Standard);
    for r in &rows[2..6] {
        assert_eq!(r.best(), OccLevel::TwoWayExtended, "{} GPUs", r.x);
    }
    for r in &rows[6..] {
        // Extended and two-way tie once the serialized halo dominates.
        assert!((r.eff[2] - r.eff[3]).abs() < 5e-4, "{} GPUs", r.x);
        assert_ne!(r.best(), OccLevel::Standard, "{} GPUs", r.x);
    }
}

#[test]
fn fig8_bottom_efficiency_climbs_with_grid_size_and_standard_occ_leads() {
    let rows = fig8_bottom(&FIG7_SIZES);
    for level in 0..4 {
        assert!(rows.windows(2).all(|w| w[1].eff[level] > w[0].eff[level]));
    }
    let standard_leads = |r: &Fig8Row| r.best() == OccLevel::Standard && r.eff[1] > r.eff[0];
    assert!(rows.iter().all(standard_leads));
}

#[test]
fn fig9_sparse_wins_below_full_density_and_dense_wins_at_it() {
    let dgx = || Backend::dgx_a100(8);
    let (full, fifth) = (fig9(dgx, 256, 1.0), fig9(dgx, 256, 0.2));
    let us = |t: &neon_sys::Result<neon_sys::SimTime>| t.as_ref().unwrap().as_us();
    let speed = |r: &Fig9Row| us(&r.dense) / us(&r.sparse);
    assert!(speed(&full) <= 0.9 && speed(&fifth) >= 2.4);
    // The ratio column is the sparse grid's share of active cells.
    let share = |r: &Fig9Row| r.sparse_cells as f64 / 256f64.powi(3);
    assert_eq!(share(&full), 1.0);
    assert!((share(&fifth) - 0.2).abs() < 0.05, "{}", share(&fifth));
    assert!(full.dense_bytes < full.sparse_bytes);
}

#[test]
fn fig9_fully_dense_512_fits_one_gv100_both_ways() {
    let fits = fig9(|| Backend::gv100_pcie(1), 512, 1.0);
    assert!(fits.dense.is_ok() && fits.sparse.is_ok());
    assert!(fits.sparse_bytes as f64 >= 1.9 * fits.dense_bytes as f64);
}

#[test]
fn fig9_sparse_runs_out_of_memory_where_dense_still_fits() {
    let big = fig9(|| Backend::gv100_pcie(1), 640, 1.0);
    assert!(big.dense.is_ok() && big.sparse.is_err());
}

#[test]
fn ablation1_occ_pays_where_the_link_is_fast() {
    let rows = ablation_interconnect();
    let gain = |i: usize| rows[i].1.as_us() / rows[i].2.as_us();
    assert!(gain(0) >= 1.4 && gain(1) < 1.1);
}

#[test]
fn ablation2_hints_do_not_move_a_contention_bound_pipeline() {
    let rows = ablation_hints();
    assert!((rows[0].1.as_us() - rows[1].1.as_us()).abs() < 0.1);
}

#[test]
fn ablation3_soa_sends_2n_halo_transfers_and_aos_2() {
    let rows = ablation_layout();
    assert_eq!((rows[0].0, rows[0].1), (MemLayout::SoA, 114));
    assert_eq!((rows[1].0, rows[1].1), (MemLayout::AoS, 6));
    assert!(rows[0].2.as_us() / rows[1].2.as_us() >= 1.4);
}

#[test]
fn ablation4_full_bandwidth_per_kernel_undercounts() {
    let rows = ablation_kernel_concurrency();
    assert!(!rows[0].0 && rows[1].1 < rows[0].1);
}

#[test]
fn ablation5_unified_memory_is_slower_and_occ_recovers_nothing() {
    let rows = ablation_unified_memory();
    let (explicit, unified) = (&rows[0], &rows[1]);
    assert!(explicit.2 < explicit.1, "OCC must help explicit transfers");
    assert!(unified.1 > explicit.1 && unified.2 > explicit.2);
    assert!(unified.2 >= unified.1, "page faults serialize with kernels");
}

#[test]
fn ablation6_sparse_structures_are_faster_and_lighter_at_ratio_one_fifth() {
    let rows = ablation_data_structures();
    let (dense, sparse, block) = (&rows[0], &rows[1], &rows[2]);
    assert!(sparse.1 < dense.1 && block.1 < dense.1);
    assert!(block.2 < sparse.2 && sparse.2 < dense.2);
}

#[test]
fn ablation7_proportional_slabs_stop_slow_devices_dominating() {
    let rows = ablation_heterogeneous();
    assert_eq!(rows[0].1, [64, 64, 64, 64]);
    assert_eq!(rows[1].1, [82, 82, 46, 46]);
    assert!(rows[1].2.as_us() < 0.8 * rows[0].2.as_us());
}

#[test]
fn ablation8_rebuilds_rebind_the_cached_plan_across_grid_sizes() {
    let rows = ablation_plan_cache();
    let hits: Vec<bool> = rows.iter().map(|r| r.2).collect();
    assert_eq!(hits, [false, true, true]);
    assert_eq!(rows[0].1, rows[1].1);
    assert!(rows[2].1 > rows[1].1);
}

#[test]
fn collectives_latency_favours_tree_and_bandwidth_favours_ring_on_nvlink() {
    let rows = all_reduce_sweep(nvlink);
    // 8 devices, 8 B to 64 MiB.
    let eight = &rows[2 * MESSAGE_SIZES.len()..];
    let (small, big) = (&eight[0], &eight[MESSAGE_SIZES.len() - 1]);
    assert!(small.tree < small.ring && small.ring < small.host_staged);
    assert!(big.host_staged.as_us() / big.ring.as_us() >= 25.0);
    for r in eight {
        let want = if r.bytes <= 1 << 20 {
            Algorithm::Tree
        } else {
            Algorithm::Ring
        };
        assert_eq!(r.auto, want, "{} B", r.bytes);
    }
}

#[test]
fn collectives_pcie_falls_back_to_host_staging_for_small_messages() {
    for r in all_reduce_sweep(pcie) {
        if r.ndev >= 4 && r.bytes <= 64 << 10 {
            assert_eq!(r.auto, Algorithm::HostStaged, "{}x{} B", r.ndev, r.bytes);
        }
    }
    let c = contention();
    assert!(c.events >= 1 && c.simultaneous > c.serialized);
    assert!(c.simultaneous.as_us() > 2.0 * c.single.as_us());
}

#[test]
fn collectives_hierarchical_wins_on_mixed_islands_and_degenerates_on_pure() {
    let rows = island_all_reduce(ISLAND_SHAPES);
    assert_eq!(rows[0].shape, [2, 2]);
    let win = 1.0 - rows[0].hier_time.as_us() / rows[0].flat_time.as_us();
    assert!(
        win >= 0.2,
        "[2,2]: hierarchical {win:.3} under the flat pick"
    );
    for r in rows {
        if r.shape.iter().any(|&s| s > 1) {
            assert!(r.hier_time < r.flat_time, "{:?}", r.shape);
            assert!(r.hier_slow_bytes < r.flat_slow_bytes, "{:?}", r.shape);
            assert_eq!(r.auto, Algorithm::Hierarchical, "{:?}", r.shape);
        } else {
            assert_eq!(r.hier_time, r.flat_time);
            assert_eq!(r.auto, r.flat);
        }
    }
}
