//! The benchmark's definition: workloads, metrics, units, directions and
//! bounds. `BENCHMARK.json` at the repository root is this module printed
//! (`neon-benchmark manifest`); a unit test holds the two together.

use crate::json::Json;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`): the
/// shortest window in which every floor of every workload still has 200
/// samples on the 2-core host (README, "Window").
pub const RUN_SECONDS: u64 = 20;

/// The command the driver appends `--workload … --seed … --seconds …
/// --trace …` to, from the repository root.
pub const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "cg64_d2",
        why: "Poisson CG on a dense 64^3 grid, 2 devices: the canonical solve; kernel-bound, with six launches, a halo round and two all-reduces per iteration, so executor and comm show but do not dominate",
    },
    WorkloadDef {
        name: "lbm64_d2",
        why: "D3Q19 cavity step, 64^3: memory-bound, one launch per device per step; bypasses compiler, dispatch and collectives, so a gain there must show no change here",
    },
    WorkloadDef {
        name: "fem_sparse48_d2",
        why: "27-point elasticity CG on a masked sparse 48^3 grid: hashed neighbour lookup, vector fields, compute-bound; a dense-only gain that costs sparse shows here",
    },
    WorkloadDef {
        name: "paper_sweep_virtual",
        why: "The paper's Fig. 7/8/9 configurations on virtual storage: no kernel body runs, so compiler passes, plan cache, timing replay and the comm engine do all the work",
    },
    WorkloadDef {
        name: "serve_mix",
        why: "42 tiny jobs from three tenants through the server with one device loss: dispatch-bound; job build, cache-hit compile, checkpoints, rollback and scheduling dominate",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The nine end-to-end metrics; every workload reports all of them.
///
/// Compile bounds are three times the spread ten differently-seeded runs
/// showed on the 2-core host. `wall_ms_per_iter` and `setup_s` take the
/// widest bound allowed: between two run sets half an hour apart the
/// median of `lbm64_d2` moved by 18 % with the host's memory-side load.
/// The four virtual-clock metrics repeat
/// exactly for a given seed; their bounds are what the seed-to-seed
/// spread of `serve_mix` needs, because the acceptance rule draws a new
/// seed for every run (README, "Bounds").
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "wall_ms_per_iter",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "compile_cold_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "compile_hit_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "virt_us_per_iter",
        unit: "virt_us",
        better: Better::Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "virt_parallel_eff",
        unit: "frac",
        better: Better::Higher,
        bound: 0.03,
    },
    EndToEnd {
        name: "virt_p95_latency_us",
        unit: "virt_us",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "virt_goodput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.03,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The compile passes, in pipeline order, as `Skeleton::pass_timings`
/// names them.
pub const PASSES: [&str; 9] = [
    "dependency-graph",
    "fuse",
    "layout-select",
    "multi-gpu",
    "occ",
    "collective-lowering",
    "temporal-fuse",
    "schedule",
    "device-partition",
];

/// The per-layer metrics, by crate. Every traced run reports all of them;
/// a metric reads 0 on a workload that does not exercise it, which is
/// itself the statement that the workload bypasses that layer (README has
/// the table of which workload measures which metric, and which
/// end-to-end metric each should move).
pub const PER_LAYER: [PerLayer; 83] = [
    lower("sys.queue.op_ns", "ns"),
    lower("sys.pool.roundtrip_us", "us"),
    lower("sys.pool.spawn_us", "us"),
    lower("set.field.alloc_ms", "ms"),
    higher("set.checkpoint.capture_gb_per_s", "GB/s"),
    higher("set.checkpoint.restore_gb_per_s", "GB/s"),
    lower("set.checkpoint.bytes", "B"),
    lower("domain.dense.build_ms", "ms"),
    lower("domain.sparse.build_ms", "ms"),
    lower("domain.block.build_ms", "ms"),
    lower("domain.dense.map_ns_per_cell", "ns"),
    lower("domain.dense.stencil_ns_per_cell", "ns"),
    lower("domain.sparse.map_ns_per_cell", "ns"),
    lower("domain.sparse.stencil_ns_per_cell", "ns"),
    lower("domain.block.map_ns_per_cell", "ns"),
    lower("domain.block.stencil_ns_per_cell", "ns"),
    lower("core.pass.dependency-graph.us", "us"),
    lower("core.pass.fuse.us", "us"),
    lower("core.pass.layout-select.us", "us"),
    lower("core.pass.multi-gpu.us", "us"),
    lower("core.pass.occ.us", "us"),
    lower("core.pass.collective-lowering.us", "us"),
    lower("core.pass.temporal-fuse.us", "us"),
    lower("core.pass.schedule.us", "us"),
    lower("core.pass.device-partition.us", "us"),
    lower("core.compile.unattributed_us", "us"),
    higher("core.plan_cache.hit_frac", "frac"),
    lower("core.timing_replay.us_per_iter", "us"),
    lower("core.functional.us_per_iter", "us"),
    lower("core.exec.serial.us_per_launch", "us"),
    lower("core.exec.parallel.ms_per_iter", "ms"),
    higher("core.exec.parallel_speedup", "x"),
    lower("core.exec.parallel.us_per_launch", "us"),
    lower("core.launches_per_iter", "count"),
    lower("core.bytes_moved_per_iter", "B"),
    lower("core.halo_rounds_per_iter", "count"),
    lower("core.retries", "count"),
    lower("core.rollbacks", "count"),
    lower("core.replayed_iters", "count"),
    lower("core.resilient.overhead_frac", "frac"),
    lower("core.virt.kernel_us_per_iter", "virt_us"),
    lower("core.virt.transfer_us_per_iter", "virt_us"),
    lower("core.virt.collective_us_per_iter", "virt_us"),
    lower("core.virt.exposed_comm_frac", "frac"),
    higher("core.virt.eff_d8.lbm", "frac"),
    higher("core.virt.eff_d8.poisson", "frac"),
    higher("core.virt.eff_d8.fem", "frac"),
    lower("core.virt.model_err.table2_neon_vs_cuboltz", "frac"),
    lower("core.virt.model_err.fig7_eff_512", "frac"),
    lower("core.virt.model_err.fig7_comm_share_192", "frac"),
    lower("comm.allreduce.sim_us.8B", "us"),
    lower("comm.allreduce.sim_us.16MiB", "us"),
    lower("comm.allreduce.virt_us.8B_d4", "virt_us"),
    lower("comm.allreduce.virt_us.16MiB_i22", "virt_us"),
    lower("apps.poisson.apply_ns_per_cell", "ns"),
    lower("apps.lbm.ns_per_cell", "ns"),
    lower("apps.fem.apply_ns_per_cell.sparse", "ns"),
    lower("apps.fem.apply_ns_per_cell.dense", "ns"),
    higher("apps.lbm.computed_gb_per_s", "GB/s"),
    lower("apps.cg.iters_to_tol", "count"),
    lower("apps.poisson.overhead_vs_plain_x", "x"),
    lower("apps.lbm.overhead_vs_plain_x", "x"),
    lower("apps.job.build_ms.poisson", "ms"),
    lower("apps.job.build_ms.lbm", "ms"),
    lower("apps.job.advance_ms_per_quantum", "ms"),
    lower("apps.job.checkpoint_us", "us"),
    lower("serve.sched_us_per_job", "us"),
    lower("serve.sched_frac", "frac"),
    lower("serve.unattributed_ms_per_job", "ms"),
    lower("serve.virt_p95_us.l05", "virt_us"),
    lower("serve.virt_p95_us.l2", "virt_us"),
    lower("serve.shed_frac.l2", "frac"),
    higher("serve.jain.l2", "frac"),
    lower("serve.evictions", "count"),
    lower("serve.wasted_device_us", "virt_us"),
    lower("bench.wall_ms_per_iter.p50", "ms"),
    lower("bench.wall_ms_per_iter.p95", "ms"),
    higher("bench.samples", "count"),
    higher("bench.quiet_frac", "frac"),
    lower("bench.trace_overhead_frac", "frac"),
    lower("bench.host.calib_ms", "ms"),
    lower("bench.allocs_per_iter", "count"),
    lower("bench.alloc_bytes_per_iter", "B"),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// The `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn checked_in_manifest_is_this_module_printed() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            Json::parse(on_disk).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "BENCHMARK.json drifted: regenerate it with `neon-benchmark manifest`"
        );
    }

    #[test]
    fn manifest_meets_the_contract_limits() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for n in names {
            assert!(name_ok(n), "bad name {n}");
            assert!(seen.insert(n), "name used twice: {n}");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(unit_ok(u), "bad unit {u}");
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().pretty().len() < 64 * 1024);
        for pass in PASSES {
            let name = format!("core.pass.{pass}.us");
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "no metric for pass {pass}"
            );
        }
    }
}
