//! # neon-core — the Skeleton abstraction
//!
//! The highest layer of the Neon programming model (paper §V): users
//! describe an application as a *sequential* list of containers; the
//! Skeleton turns it into an optimized multi-GPU execution —
//!
//! * [`graph`] — the data dependency graph inferred from Loader records
//!   (RaW / WaR / WaW edges), with BFS levels and transitive reduction;
//! * [`fuse`] — the container-fusion pass merging map chains and a
//!   trailing reduction into single fused sweeps (fewer launches, fewer
//!   field re-reads);
//! * [`multigpu`] — the multi-GPU transform inserting halo-update nodes;
//! * [`occ`] — the overlap-computation-and-communication optimizations
//!   (*Standard*, *Extended*, *Two-way Extended*) via internal/boundary
//!   node splitting and scheduling hints;
//! * [`schedule`] — the greedy three-phase scheduler (stream mapping,
//!   event organization, task ordering);
//! * [`pass`] — the pass manager driving those stages as a uniform,
//!   timed, validated pipeline over a compilation IR;
//! * [`validate`] — the inter-pass invariant checker (acyclicity,
//!   conflict ordering, halo precedence, schedule/event soundness);
//! * [`plan`] — immutable [`CompiledPlan`]s and the process-wide plan
//!   cache keyed by sequence signature × backend fingerprint × options;
//! * [`skeleton`] — the [`Skeleton`]: compiles a sequence and runs it,
//!   each execution a virtual-clock timing replay plus a functional replay
//!   of the kernels on real partition data, borrowing plan data by index;
//! * [`exec`] — the execution types: run-time settings, the per-execution
//!   [`ExecReport`] and [`ExecError`];
//! * `timing` — the timing replay's pre-priced program: launches, halo
//!   transfers and collective schedules priced once per skeleton, so an
//!   iteration only folds completion times;
//! * `functional` — the functional replay: the serial reference walk and
//!   the event-driven per-device worker pool.
//!
//! ```no_run
//! # use neon_core::{Skeleton, SkeletonOptions, OccLevel};
//! # use neon_sys::Backend;
//! # let backend = Backend::dgx_a100(8);
//! # let containers = vec![];
//! let mut app = Skeleton::sequence(
//!     &backend,
//!     "my-solver",
//!     containers, // map/stencil/reduce containers, in program order
//!     SkeletonOptions::with_occ(OccLevel::TwoWayExtended),
//! );
//! let report = app.run_iters(100);
//! println!("per iteration: {}", report.time_per_execution());
//! ```

pub mod collective;
pub mod devplan;
pub mod exec;
mod functional;
pub mod fuse;
pub mod graph;
pub mod health;
pub mod layout_select;
pub mod multigpu;
pub mod occ;
pub mod pass;
pub mod plan;
pub mod schedule;
pub mod skeleton;
pub mod temporal;
mod timing;
pub mod validate;
#[cfg(test)]
mod validate_differential;

pub use collective::{lower_collectives, merge_collectives, CollectiveMode};
pub use devplan::{build_device_plan, DevAction, DevStep, DevicePlan};
pub use exec::{CommMode, ExecError, ExecReport, FunctionalMode, HaloPolicy};
pub use fuse::{fuse_graph, FusePass, FusionLevel};
pub use graph::{build_dependency_graph, Edge, EdgeKind, Graph, Node, NodeId, NodeKind};
pub use health::{HealthReport, StragglerMonitor, StragglerPolicy};
pub use layout_select::{recommend_layout, AccessSummary, LayoutPolicy};
pub use multigpu::to_multigpu_graph;
pub use neon_comm::Algorithm as CollectiveAlgorithm;
pub use neon_sys::{FaultPlan, FaultSite, FaultSiteKind, LinkEvent, PermanentFault, RetryPolicy};
pub use occ::{apply_occ, OccLevel};
pub use pass::{CompileError, CompileLog, Ir, Pass, PassCtx, PassManager, PassTiming};
pub use plan::{
    clear_plan_cache, heal_backend, invalidate_backend, plan_cache_capacity, plan_cache_stats,
    set_plan_cache_capacity, CacheStats, CompileKey, CompiledPlan, PlanKey,
    DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use schedule::{build_schedule, build_schedule_opts, Schedule, Task};
pub use skeleton::{ResilienceOptions, ResilientError, ResilientRun, Skeleton, SkeletonOptions};
pub use temporal::TemporalFusePass;
pub use validate::{validate_graph, validate_ir, validate_schedule, ValidationError};
