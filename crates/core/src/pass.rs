//! The pass-manager compile pipeline.
//!
//! [`crate::skeleton::Skeleton::sequence`] used to hard-wire its
//! compile stages as straight-line calls. This module makes the pipeline
//! explicit: each stage is a named [`Pass`] with a uniform interface over a
//! mutable [`Ir`], driven by a [`PassManager`] that
//!
//! * records per-pass wall-clock timings ([`PassTiming`]) and mirrors them
//!   as [`neon_sys::SpanKind::Compile`] trace spans,
//! * runs the [`crate::validate`] invariant checker after every pass, so a
//!   broken transform fails at the pass that broke it rather than as a
//!   wrong answer at execution time,
//! * emits a deterministic text dump of the IR after each pass (when the
//!   caller asks for dumps, or the `NEON_DUMP_IR` environment variable is
//!   set, which prints to stderr).
//!
//! The standard pipeline is
//!
//! ```text
//! dependency-graph → fuse → temporal-fuse → multi-gpu → occ
//!     → collective-lowering → schedule → device-partition
//! ```
//!
//! and its product is consumed by [`crate::plan::CompiledPlan`].

use std::time::Instant;

use neon_set::{uid_roles, Container};
use neon_sys::{Backend, DeviceId, SimTime, SpanKind, Trace, TraceSpan};

use crate::collective::{lower_collectives, merge_collectives};
use crate::devplan::{build_device_plan, DevicePlan};
use crate::fuse::{FusePass, FusionLevel};
use crate::graph::{build_dependency_graph, EdgeKind, Graph, NodeId, NodeKind};
use crate::multigpu::to_multigpu_graph;
use crate::occ::apply_occ;
use crate::plan::CompileKey;
use crate::schedule::{build_schedule_opts, Schedule};
use crate::temporal::TemporalFusePass;
use crate::validate::{validate_ir, ValidationError};

/// The compilation state threaded through the passes.
pub struct Ir {
    /// The user's container sequence, in program order.
    pub containers: Vec<Container>,
    /// The raw dependency graph, kept for introspection once the multi-GPU
    /// transform rewrites `graph`.
    pub dependency_graph: Option<Graph>,
    /// The current execution graph.
    pub graph: Graph,
    /// The execution plan, produced by the schedule pass.
    pub schedule: Option<Schedule>,
    /// The per-device task partition + event table, produced by the final
    /// pass from the schedule.
    pub device_plan: Option<DevicePlan>,
    /// Set once halo-update nodes have been inserted; enables the halo
    /// precedence invariant (meaningless on the raw dependency graph).
    pub halos_inserted: bool,
}

impl Ir {
    /// Fresh IR over a container sequence.
    pub fn new(containers: Vec<Container>) -> Self {
        Ir {
            containers,
            dependency_graph: None,
            graph: Graph::new(),
            schedule: None,
            device_plan: None,
            halos_inserted: false,
        }
    }

    /// Deduplicated data-edge parents of every node of the current graph.
    pub fn data_parent_lists(&self) -> Vec<Vec<NodeId>> {
        (0..self.graph.len())
            .map(|n| {
                let mut v: Vec<NodeId> = self.graph.data_parents(n).map(|e| e.from).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect()
    }

    /// Deterministic text rendering of the IR.
    ///
    /// Data objects are labelled by their *role* — first-occurrence index
    /// over the sequence's access declarations — rather than their raw
    /// [`neon_set::DataUid`], which is a process-global counter and differs
    /// run to run. Two structurally identical sequences therefore dump
    /// identically, which is what lets a golden file assert the pipeline's
    /// output shape.
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        // Fusion provenance: which sequence containers a fused node merges.
        let provenance = |n: &crate::graph::Node| -> String {
            if n.fused_sources.is_empty() {
                String::new()
            } else {
                format!(
                    " members={}",
                    n.fused_sources
                        .iter()
                        .map(|s| format!("c{s}"))
                        .collect::<Vec<_>>()
                        .join("+")
                )
            }
        };
        let roles = uid_roles(&self.containers);
        let label = |u: neon_set::DataUid| match roles.role(u) {
            Some(r) => format!("u{r}"),
            None => "u?".to_string(),
        };
        let mut out = String::new();
        let _ = writeln!(out, "nodes: {}", self.graph.len());
        for (i, n) in self.graph.nodes().iter().enumerate() {
            match &n.kind {
                NodeKind::Compute {
                    view,
                    reduce_init,
                    reduce_finalize,
                    ..
                } => {
                    let mut flags = String::new();
                    if *reduce_init {
                        flags.push_str(" init");
                    }
                    if *reduce_finalize {
                        flags.push_str(" finalize");
                    }
                    let _ = writeln!(
                        out,
                        "  n{i}: compute {} view={view:?}{flags}{}",
                        n.name,
                        provenance(n)
                    );
                }
                NodeKind::Halo { exchange } => {
                    let _ = writeln!(out, "  n{i}: halo data={}", label(exchange.data_uid()));
                }
                NodeKind::Host { .. } => {
                    let _ = writeln!(out, "  n{i}: host {}", n.name);
                }
                NodeKind::Collective { bytes, .. } => {
                    let _ = writeln!(
                        out,
                        "  n{i}: collective {} bytes={bytes}{}",
                        n.name,
                        provenance(n)
                    );
                }
            }
        }
        let kind_rank = |k: EdgeKind| match k {
            EdgeKind::RaW => 0u8,
            EdgeKind::WaR => 1,
            EdgeKind::WaW => 2,
            EdgeKind::Sched => 3,
        };
        let mut edges: Vec<_> = self.graph.edges().to_vec();
        edges.sort_by_key(|e| (e.from, e.to, kind_rank(e.kind)));
        let _ = writeln!(out, "edges: {}", edges.len());
        for e in &edges {
            let data = match e.data {
                Some(u) => label(u),
                None => "-".to_string(),
            };
            let _ = writeln!(out, "  n{} -> n{} {:?} {data}", e.from, e.to, e.kind);
        }
        if let Some(s) = &self.schedule {
            let _ = writeln!(
                out,
                "schedule: {} tasks, {} streams",
                s.tasks.len(),
                s.num_streams
            );
            for (i, t) in s.tasks.iter().enumerate() {
                let waits = if t.wait.is_empty() {
                    "-".to_string()
                } else {
                    t.wait
                        .iter()
                        .map(|w| format!("n{w}"))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let _ = writeln!(
                    out,
                    "  t{i}: n{} stream={} wait={waits} signals={}",
                    t.node, t.stream, t.signals
                );
            }
        }
        if let Some(dp) = &self.device_plan {
            out.push_str(&dp.dump(&self.graph));
        }
        out
    }
}

/// Read-only context shared by all passes of one compilation.
pub struct PassCtx {
    /// The target backend.
    pub backend: Backend,
    /// The plan-shaping options: all a pass can see of the skeleton's.
    pub key: CompileKey,
}

/// A compile-pipeline failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// A pass left the IR violating a pipeline invariant.
    Invariant {
        /// Name of the offending pass.
        pass: &'static str,
        /// The violated invariant.
        error: ValidationError,
    },
    /// The skeleton options are inconsistent; rejected before any pass
    /// runs (e.g. a resilience policy with zero attempts).
    InvalidOptions {
        /// What is wrong.
        reason: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Invariant { pass, error } => {
                write!(f, "after pass '{pass}': {error}")
            }
            CompileError::InvalidOptions { reason } => {
                write!(f, "invalid skeleton options: {reason}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// One named stage of the compile pipeline.
pub trait Pass {
    /// The pass's name (stable: used in timings, dumps and errors).
    fn name(&self) -> &'static str;
    /// Transform the IR in place.
    fn run(&self, ir: &mut Ir, cx: &PassCtx);
}

/// Wall-clock cost of one pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassTiming {
    /// The pass's name.
    pub name: &'static str,
    /// Wall-clock microseconds spent in the pass (validation and dump time
    /// excluded — they are diagnostics, not compilation).
    pub wall_us: f64,
}

/// Everything a pipeline run produces besides the IR itself.
#[derive(Debug, Clone, Default)]
pub struct CompileLog {
    /// Per-pass wall-clock timings, in pipeline order.
    pub timings: Vec<PassTiming>,
    /// `(pass name, dump)` pairs, one per pass, when dumps were requested.
    pub dumps: Vec<(String, String)>,
    /// The timings mirrored as [`SpanKind::Compile`] spans on a host lane,
    /// laid end to end from time zero.
    pub trace: Trace,
}

/// Extracts the data dependency graph from the containers' recorded
/// accesses (paper §V-A).
pub struct DependencyGraphPass;

impl Pass for DependencyGraphPass {
    fn name(&self) -> &'static str {
        "dependency-graph"
    }
    fn run(&self, ir: &mut Ir, _cx: &PassCtx) {
        ir.graph = build_dependency_graph(&ir.containers);
        ir.dependency_graph = Some(ir.graph.clone());
    }
}

/// Inserts halo-update nodes before boundary stencil reads and prunes
/// redundant edges (paper §V-B).
pub struct MultiGpuPass;

impl Pass for MultiGpuPass {
    fn name(&self) -> &'static str {
        "multi-gpu"
    }
    fn run(&self, ir: &mut Ir, cx: &PassCtx) {
        ir.graph = to_multigpu_graph(&ir.graph, cx.backend.num_devices());
        ir.halos_inserted = true;
    }
}

/// Splits kernels into internal/boundary halves at the configured OCC
/// level (paper §V-D).
pub struct OccPass;

impl Pass for OccPass {
    fn name(&self) -> &'static str {
        "occ"
    }
    fn run(&self, ir: &mut Ir, cx: &PassCtx) {
        ir.graph = apply_occ(&ir.graph, cx.key.occ);
    }
}

/// Lowers finalizing reduces to explicit collective nodes.
pub struct CollectivePass;

impl Pass for CollectivePass {
    fn name(&self) -> &'static str {
        "collective-lowering"
    }
    fn run(&self, ir: &mut Ir, cx: &PassCtx) {
        ir.graph = lower_collectives(&ir.graph, cx.backend.num_devices());
        if cx.key.fusion != FusionLevel::Off {
            ir.graph = merge_collectives(&ir.graph);
        }
    }
}

/// Cap on concurrent compute streams per device.
const MAX_STREAMS: usize = 8;

/// Maps nodes to streams, organizes events and fixes the enqueue order
/// (paper §V-C).
pub struct SchedulePass;

impl Pass for SchedulePass {
    fn name(&self) -> &'static str {
        "schedule"
    }
    fn run(&self, ir: &mut Ir, cx: &PassCtx) {
        let streams = if cx.backend.concurrent_kernels() {
            MAX_STREAMS
        } else {
            1 // the CPU back end runs one kernel at a time (paper §IV-A)
        };
        ir.schedule = Some(build_schedule_opts(&ir.graph, streams, cx.key.hints));
    }
}

/// Partitions the schedule's tasks over the device workers and lowers
/// every data dependency to an event-slot wait (the table the functional
/// executor's worker pool synchronizes on).
pub struct DevicePartitionPass;

impl Pass for DevicePartitionPass {
    fn name(&self) -> &'static str {
        "device-partition"
    }
    fn run(&self, ir: &mut Ir, cx: &PassCtx) {
        let schedule = ir
            .schedule
            .as_ref()
            .expect("device-partition requires the schedule pass to have run");
        let parents = ir.data_parent_lists();
        ir.device_plan = Some(build_device_plan(
            &ir.graph,
            schedule,
            &parents,
            cx.backend.num_devices(),
        ));
    }
}

/// Runs an ordered list of passes over an [`Ir`], validating and logging
/// between them.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
}

impl PassManager {
    /// The standard eight-pass skeleton pipeline.
    pub fn standard() -> Self {
        PassManager {
            passes: vec![
                Box::new(DependencyGraphPass),
                Box::new(FusePass),
                Box::new(TemporalFusePass),
                Box::new(MultiGpuPass),
                Box::new(OccPass),
                Box::new(CollectivePass),
                Box::new(SchedulePass),
                Box::new(DevicePartitionPass),
            ],
        }
    }

    /// A pipeline over caller-chosen passes (ablations, tests).
    pub fn with_passes(passes: Vec<Box<dyn Pass>>) -> Self {
        PassManager { passes }
    }

    /// The pass names, in order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Run every pass over `ir`.
    ///
    /// After each pass the invariant validator runs and an IR dump is
    /// captured (if `dump`) or printed to stderr (if `NEON_DUMP_IR` is set
    /// in the environment).
    pub fn run(&self, ir: &mut Ir, cx: &PassCtx, dump: bool) -> Result<CompileLog, CompileError> {
        let env_dump = std::env::var_os("NEON_DUMP_IR").is_some();
        let mut log = CompileLog::default();
        let mut clock_us = 0.0f64;
        for pass in &self.passes {
            let t = Instant::now();
            pass.run(ir, cx);
            let wall_us = t.elapsed().as_secs_f64() * 1e6;
            log.timings.push(PassTiming {
                name: pass.name(),
                wall_us,
            });
            log.trace.push(TraceSpan {
                device: DeviceId(0),
                stream: 0,
                name: pass.name().to_string(),
                kind: SpanKind::Compile,
                start: SimTime::from_us(clock_us),
                end: SimTime::from_us(clock_us + wall_us),
            });
            clock_us += wall_us;
            validate_ir(
                &ir.graph,
                ir.schedule.as_ref(),
                cx.backend.num_devices(),
                ir.halos_inserted,
            )
            .map_err(|error| CompileError::Invariant {
                pass: pass.name(),
                error,
            })?;
            if dump || env_dump {
                let text = ir.dump();
                if env_dump {
                    eprintln!("== NEON_DUMP_IR: after {} ==\n{text}", pass.name());
                }
                if dump {
                    log.dumps.push((pass.name().to_string(), text));
                }
            }
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::SkeletonOptions;
    use neon_domain::{ops, DenseGrid, Dim3, Field, MemLayout, ScalarSet, Stencil, StorageMode};

    fn sequence(ndev: usize) -> (Backend, Vec<Container>) {
        let b = Backend::dgx_a100(ndev);
        let s = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 1.0, MemLayout::SoA).unwrap();
        let dot = ScalarSet::<f64>::new(ndev, "dot", 0.0, |a, b| a + b);
        let seq = vec![ops::set_value(&g, &x, 2.0), ops::dot(&g, &x, &x, &dot)];
        (b, seq)
    }

    #[test]
    fn standard_pipeline_produces_schedule_and_timings() {
        let (b, seq) = sequence(2);
        let mut ir = Ir::new(seq);
        let cx = PassCtx {
            backend: b,
            key: SkeletonOptions::default().compile_key(),
        };
        let log = PassManager::standard().run(&mut ir, &cx, false).unwrap();
        assert!(ir.schedule.is_some());
        assert!(ir.dependency_graph.is_some());
        assert!(ir.device_plan.is_some());
        assert_eq!(
            log.timings.iter().map(|t| t.name).collect::<Vec<_>>(),
            vec![
                "dependency-graph",
                "fuse",
                "temporal-fuse",
                "multi-gpu",
                "occ",
                "collective-lowering",
                "schedule",
                "device-partition"
            ]
        );
        assert_eq!(log.trace.spans().len(), 8);
        assert!(log
            .trace
            .spans()
            .iter()
            .all(|s| s.kind == SpanKind::Compile));
    }

    #[test]
    fn dump_ir_captures_one_dump_per_pass() {
        let (b, seq) = sequence(2);
        let mut ir = Ir::new(seq);
        let cx = PassCtx {
            backend: b,
            key: SkeletonOptions::default().compile_key(),
        };
        let log = PassManager::standard().run(&mut ir, &cx, true).unwrap();
        assert_eq!(log.dumps.len(), 8);
        // The raw dependency graph uses role labels, never raw uids.
        assert!(log.dumps[0].1.contains("u0"));
        // From the fuse pass on, the map+dot pair is one provenanced node.
        assert!(log.dumps[1..]
            .iter()
            .all(|(_, d)| d.contains("members=c0+c1")));
        // The final dump includes the schedule and the device plan.
        assert!(log.dumps.last().unwrap().1.contains("schedule:"));
        assert!(log.dumps.last().unwrap().1.contains("device-plan:"));
    }

    #[test]
    fn dumps_are_stable_across_recompiles() {
        // Two structurally identical sequences over *fresh* data must dump
        // identically (role labels, not raw uids).
        let (b1, seq1) = sequence(2);
        let (_b2, seq2) = sequence(2);
        let mut ir1 = Ir::new(seq1);
        let mut ir2 = Ir::new(seq2);
        let cx1 = PassCtx {
            backend: b1.clone(),
            key: SkeletonOptions::default().compile_key(),
        };
        let log1 = PassManager::standard().run(&mut ir1, &cx1, true).unwrap();
        let log2 = PassManager::standard().run(&mut ir2, &cx1, true).unwrap();
        assert_eq!(log1.dumps, log2.dumps);
    }
}
