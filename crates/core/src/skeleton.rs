//! The Skeleton — Neon's orchestrator (paper §V).
//!
//! Users hand the Skeleton a *sequential* list of containers and a
//! backend; it compiles them through the pass pipeline
//! ([`crate::pass::PassManager`]):
//!
//! 1. `dependency-graph` — extract the data dependency graph from the
//!    containers' recorded accesses,
//! 2. `fuse` — merge legal map chains (and a trailing reduction) into
//!    single fused sweeps,
//! 3. `temporal-fuse` — under `FusionLevel::Temporal(k)`, collapse one
//!    legal stencil sweep into a `k`-iteration super-step,
//! 4. `multi-gpu` — insert halo updates, prune redundant edges,
//! 5. `occ` — split kernels at the configured OCC level,
//! 6. `collective-lowering` — turn finalizing reduces into collective
//!    nodes (merging independent same-level collectives when fusion is
//!    on),
//! 7. `schedule` — map nodes to streams, organize events, fix the enqueue
//!    order,
//! 8. `device-partition` — per-device step lists and event-slot waits,
//!
//! validating pipeline invariants after every pass, and then executes the
//! resulting [`CompiledPlan`] — repeatedly, for iterative solvers —
//! entirely without user intervention. The skeleton owns everything a run
//! needs besides the plan: the virtual clock, the pre-priced timing
//! program, the functional replay's workers, the fault injector and the
//! straggler monitor, each configured by the [`SkeletonOptions`] it was
//! built with.
//!
//! Plans are cached process-wide (see [`crate::plan`]): a solver that
//! rebuilds a skeleton for the same sequence shape, backend and
//! [`CompileKey`] reuses the compiled graph and schedule, paying only a
//! cheap rebinding of its containers.

use std::collections::HashSet;
use std::sync::Arc;

use neon_comm::{CollectiveEngine, EngineConfig};
use neon_set::{Checkpoint, ComputePattern, Container, StateHandle};
use neon_sys::{Backend, FaultInjector, FaultPlan, QueueSim, RetryPolicy, SimTime, Trace};

use crate::collective::CollectiveMode;
use crate::exec::{CommMode, ExecError, ExecReport, FunctionalMode, HaloPolicy};
use crate::functional::{self, ParallelReplay};
use crate::fuse::FusionLevel;
use crate::graph::Graph;
use crate::health::{HealthReport, StragglerMonitor, StragglerPolicy};
use crate::layout_select::LayoutPolicy;
use crate::occ::OccLevel;
use crate::pass::{CompileError, PassTiming};
use crate::plan::{self, CompileKey, CompiledPlan};
use crate::schedule::Schedule;
use crate::timing::{TimingProgram, TimingScratch};

/// Fault-recovery policy of a skeleton (paper-style self-healing: retry
/// transient faults, checkpoint periodically, roll back when retry is
/// exhausted).
///
/// Pure runtime policy — not part of the [`CompileKey`], so it never
/// changes the compiled plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilienceOptions {
    /// Master switch. When off, any injected fault escapes on its first
    /// failure (`max_attempts` is treated as 1) and surfaces as a
    /// structured [`ExecError`] from the `try_*` entry points.
    pub enabled: bool,
    /// Attempts allowed per faulted operation, including the first.
    /// Must be at least 1.
    pub max_attempts: u32,
    /// Base backoff before the first re-attempt, in virtual µs; doubles
    /// per retry. Must be finite and non-negative.
    pub backoff_us: f64,
    /// A checkpoint is captured every this many iterations in
    /// [`Skeleton::run_iters_resilient`]. Must be at least 1.
    pub checkpoint_interval: u32,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            enabled: false,
            max_attempts: 3,
            backoff_us: 50.0,
            checkpoint_interval: 4,
        }
    }
}

impl ResilienceOptions {
    /// The retry policy faults are judged against ([`RetryPolicy`] with a
    /// single attempt when recovery is disabled).
    pub fn retry_policy(&self) -> RetryPolicy {
        if self.enabled {
            RetryPolicy {
                max_attempts: self.max_attempts,
                backoff: SimTime::from_us(self.backoff_us),
            }
        } else {
            RetryPolicy {
                max_attempts: 1,
                backoff: SimTime::ZERO,
            }
        }
    }

    fn validate(&self) -> Result<(), CompileError> {
        if self.max_attempts == 0 {
            return Err(CompileError::InvalidOptions {
                reason: "resilience.max_attempts must be at least 1 \
                         (the first attempt counts)"
                    .to_string(),
            });
        }
        if self.checkpoint_interval == 0 {
            return Err(CompileError::InvalidOptions {
                reason: "resilience.checkpoint_interval must be at least 1".to_string(),
            });
        }
        if !self.backoff_us.is_finite() || self.backoff_us < 0.0 {
            return Err(CompileError::InvalidOptions {
                reason: format!(
                    "resilience.backoff_us must be finite and non-negative, got {}",
                    self.backoff_us
                ),
            });
        }
        Ok(())
    }
}

/// Configuration of a skeleton.
///
/// Three fields shape the compiled plan and form its [`CompileKey`] (see
/// [`SkeletonOptions::compile_key`]): `occ`, `hints` and `fusion`. The
/// rest configure the run, the cache, allocation or diagnostics;
/// skeletons differing only there share one plan.
#[derive(Debug, Clone, Copy)]
pub struct SkeletonOptions {
    /// The OCC optimization level (a single switch, as the paper argues a
    /// system should offer — no best level exists for all configurations).
    pub occ: OccLevel,
    /// Honour scheduling hints in the task ordering (ablation switch).
    pub hints: bool,
    /// Model concurrent kernels as each getting full bandwidth (ablation
    /// switch; physically kernels share a device's bandwidth, so the
    /// default serializes them per device).
    pub kernel_concurrency: bool,
    /// Halo coherency implementation (paper §IV-C2): explicit peer
    /// transfers (default — required for OCC) or driver-managed unified
    /// memory (page faults serialize with the consuming kernels).
    pub halo_policy: HaloPolicy,
    /// How the functional replay parallelizes across devices: the serial
    /// reference, or the event-driven persistent worker pool (default).
    pub functional_mode: FunctionalMode,
    /// Record an execution trace (timeline spans).
    pub trace: bool,
    /// Container fusion (the `fuse` compile pass): merge contiguous
    /// same-grid map chains — and the map side of a trailing reduction —
    /// into single fused sweeps, and combine independent same-level
    /// collectives into one multi-scalar all-reduce. `Conservative`
    /// (default) only fuses when provably bit-identical to `Off`.
    pub fusion: FusionLevel,
    /// How multi-device reductions are realized: lowered to collective
    /// nodes whose algorithm (ring / tree / host-staged / hierarchical)
    /// is picked from the topology and payload (`Auto`), or forced
    /// (`Fixed`).
    pub collectives: CollectiveMode,
    /// How communication completion gates downstream compute: whole-node
    /// epochs (default) or per-chunk events, where halo payloads stream
    /// in chunks and consuming kernels split into an interior span that
    /// overlaps in-flight chunks and a boundary span gated on the last
    /// arrival. A timing-replay setting only: it is not part of the
    /// [`CompileKey`], so both modes share one plan.
    pub comm: CommMode,
    /// Consult the process-wide plan cache (same sequence shape + backend
    /// + [`CompileKey`] ⇒ reuse the compiled graph and schedule).
    pub cache: bool,
    /// Capture a text IR dump after every pass (see
    /// [`Skeleton::dump_ir`]). The dumps pin this run of the passes, so a
    /// dumping compile neither reads nor fills the plan cache.
    /// Independently, setting the `NEON_DUMP_IR` environment variable
    /// prints dumps to stderr.
    pub dump_ir: bool,
    /// Fault-recovery policy (runtime only). Validated by
    /// [`Skeleton::try_sequence`].
    pub resilience: ResilienceOptions,
    /// How apps pick field memory layouts when they allocate (see
    /// [`crate::recommend_layout`]). Not part of the [`CompileKey`]: a
    /// rebind recomputes halo descriptors from the instance's own fields,
    /// so instances of one program in different layouts share one plan.
    pub layout: LayoutPolicy,
}

impl Default for SkeletonOptions {
    fn default() -> Self {
        SkeletonOptions {
            occ: OccLevel::Standard,
            hints: true,
            kernel_concurrency: false,
            halo_policy: HaloPolicy::ExplicitTransfers,
            functional_mode: FunctionalMode::default(),
            trace: false,
            fusion: FusionLevel::default(),
            collectives: CollectiveMode::Auto,
            comm: CommMode::Epoch,
            cache: true,
            dump_ir: false,
            resilience: ResilienceOptions::default(),
            layout: LayoutPolicy::default(),
        }
    }
}

impl SkeletonOptions {
    /// The fields that shape the compiled plan: the passes' whole view of
    /// these options, and the options part of the plan-cache key.
    pub fn compile_key(&self) -> CompileKey {
        CompileKey {
            occ: self.occ,
            hints: self.hints,
            fusion: self.fusion,
        }
    }

    /// Options with a given OCC level and **fusion off** — the paper's
    /// baseline executor, where the OCC level under study is what shapes
    /// the graph. Fusing a trailing reduction produces a node OCC leaves
    /// whole (see the `fuse` pass), which would flatten every OCC
    /// comparison built on this constructor; opt into fusion explicitly
    /// via `Default::default()` or the `fusion` field.
    pub fn with_occ(occ: OccLevel) -> Self {
        SkeletonOptions {
            occ,
            fusion: FusionLevel::Off,
            ..Default::default()
        }
    }
}

/// A compiled, executable application sequence, and its run-time state.
pub struct Skeleton {
    name: String,
    options: SkeletonOptions,
    plan: Arc<CompiledPlan>,
    from_cache: bool,
    backend: Backend,
    /// The virtual clock. Lanes per device: `[0, compute_streams)`
    /// kernels, then two transfer lanes, the host lane and the collective
    /// lane.
    queue: QueueSim,
    /// Lowers collectives under `options.collectives`.
    engine: CollectiveEngine,
    /// Whether kernels run on real data (vs. timing-only).
    functional: bool,
    /// The plan lowered to pre-priced timing steps: built on the first
    /// execution, so a plan-cache hit that never runs pays nothing for
    /// it. Boxed: a skeleton that never runs stays small.
    timing: Option<Box<TimingProgram>>,
    /// The timing replay's per-iteration tables, reused across executions.
    timing_scratch: TimingScratch,
    /// The parallel functional replay's workers and event slots.
    parallel: ParallelReplay,
    /// Fault injector shared with the virtual-clock queue (kernel faults
    /// are observed inside its enqueue; transfer faults at halo nodes).
    injector: Option<Arc<FaultInjector>>,
    /// Logical solver iteration of the *next* execution — the coordinate
    /// fault plans target. Advanced by each successful execution; a
    /// resilient runner rewinds it on rollback.
    logical_iteration: u64,
    /// Per-iteration makespans of the most recent [`Skeleton::run_iters`].
    iter_makespans: Vec<SimTime>,
    /// Optional straggler monitor, fed one per-device kernel-span sample
    /// per execution.
    monitor: Option<StragglerMonitor>,
}

impl Skeleton {
    /// Compile `containers` (in program order) for `backend`.
    ///
    /// Panics if a compile pass violates a pipeline invariant — which
    /// means a bug in the pipeline, not in user code. Use
    /// [`Skeleton::try_sequence`] to handle it as an error.
    pub fn sequence(
        backend: &Backend,
        name: &str,
        containers: Vec<Container>,
        options: SkeletonOptions,
    ) -> Self {
        Self::try_sequence(backend, name, containers, options)
            .unwrap_or_else(|e| panic!("compiling skeleton '{name}': {e}"))
    }

    /// [`Skeleton::sequence`], returning compile-pipeline failures.
    pub fn try_sequence(
        backend: &Backend,
        name: &str,
        containers: Vec<Container>,
        options: SkeletonOptions,
    ) -> Result<Self, CompileError> {
        options.resilience.validate()?;
        let (plan, from_cache) = plan::compile(backend, containers, options)?;
        Ok(Self::from_plan(backend, name, plan, options, from_cache))
    }

    /// A skeleton running an already compiled `plan` under `options`.
    /// Functional execution is enabled iff every compute node's iteration
    /// space has real storage.
    pub(crate) fn from_plan(
        backend: &Backend,
        name: &str,
        plan: Arc<CompiledPlan>,
        options: SkeletonOptions,
        from_cache: bool,
    ) -> Self {
        let mut queue = QueueSim::new(backend.num_devices(), plan.schedule().num_streams + 4);
        if options.trace {
            queue.enable_trace();
        }
        let engine = CollectiveEngine::with_config(
            Arc::clone(backend.shared_topology()),
            EngineConfig {
                algorithm: options.collectives.fixed_algorithm(),
                ..EngineConfig::default()
            },
        );
        Skeleton {
            name: name.to_string(),
            options,
            functional: functional::has_real_storage(plan.graph()),
            parallel: ParallelReplay::new(plan.device_plan()),
            plan,
            from_cache,
            backend: backend.clone(),
            queue,
            engine,
            timing: None,
            timing_scratch: TimingScratch::default(),
            injector: None,
            logical_iteration: 0,
            iter_makespans: Vec::new(),
            monitor: None,
        }
    }

    /// The skeleton's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configured options.
    pub fn options(&self) -> &SkeletonOptions {
        &self.options
    }

    /// The compiled plan (graph + schedule + bindings).
    pub fn plan(&self) -> &Arc<CompiledPlan> {
        &self.plan
    }

    /// Whether this skeleton's plan came from the plan cache (rebound)
    /// rather than a fresh pipeline run.
    pub fn compiled_from_cache(&self) -> bool {
        self.from_cache
    }

    /// Logical iterations one [`Skeleton::run`] performs: `k` when the
    /// temporal-fuse pass built a `k`-iteration super-step, 1 otherwise.
    /// A solver wanting `n` logical iterations calls
    /// `run_iters(n / logical_iters_per_execution())`.
    pub fn logical_iters_per_execution(&self) -> usize {
        self.plan.temporal_k()
    }

    /// Per-pass compile wall-clock timings (empty for a cache hit).
    pub fn pass_timings(&self) -> &[PassTiming] {
        self.plan.pass_timings()
    }

    /// Total compile wall-clock time (zero for a cache hit).
    pub fn compile_time(&self) -> SimTime {
        // fold, not sum: an empty f64 sum is -0.0, which prints as "-0".
        let us = self
            .plan
            .pass_timings()
            .iter()
            .fold(0.0, |a, t| a + t.wall_us);
        SimTime::from_us(us)
    }

    /// The per-pass IR dumps, concatenated (requires `options.dump_ir`;
    /// empty otherwise). Deterministic across runs — data objects are
    /// labelled by role, not raw uid.
    pub fn dump_ir(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (pass, dump) in self.plan.dumps() {
            let _ = writeln!(out, "== after {pass} ==");
            out.push_str(dump);
        }
        out
    }

    /// Compile-time trace spans ([`neon_sys::SpanKind::Compile`]), kept
    /// separate from the execution trace so execution timelines stay
    /// undistorted.
    pub fn compile_trace(&self) -> &Trace {
        self.plan.compile_trace()
    }

    /// The raw data dependency graph (before the multi-GPU transform).
    pub fn dependency_graph(&self) -> &Graph {
        self.plan.dependency_graph()
    }

    /// The final (multi-GPU, OCC-optimized) execution graph.
    pub fn graph(&self) -> &Graph {
        self.plan.graph()
    }

    /// The execution plan.
    pub fn schedule(&self) -> &Schedule {
        self.plan.schedule()
    }

    /// Whether kernels run on real data.
    pub fn is_functional(&self) -> bool {
        self.functional
    }

    /// Force timing-only execution (for huge benchmark domains).
    pub fn set_functional(&mut self, on: bool) {
        assert!(
            !on || functional::has_real_storage(self.plan.graph()),
            "cannot enable functional execution on virtual storage"
        );
        self.functional = on;
    }

    /// Change how the functional replay parallelizes (see
    /// [`FunctionalMode`]). Takes effect on the next run.
    pub fn set_functional_mode(&mut self, mode: FunctionalMode) {
        self.options.functional_mode = mode;
    }

    /// How the functional replay currently parallelizes.
    pub fn functional_mode(&self) -> FunctionalMode {
        self.options.functional_mode
    }

    /// Makespans of the individual iterations of the most recent
    /// [`Skeleton::run_iters`], in order.
    ///
    /// [`ExecReport::time_per_execution`] only exposes the mean; this is
    /// the full per-iteration distribution for variance reporting.
    pub fn per_iteration_makespans(&self) -> &[SimTime] {
        &self.iter_makespans
    }

    /// Execute the sequence once.
    ///
    /// Panics on a structural failure or an unrecovered fault; use
    /// [`Skeleton::try_run`] to handle those as values.
    pub fn run(&mut self) -> ExecReport {
        self.try_run()
            .unwrap_or_else(|e| panic!("execution failed: {e}"))
    }

    /// Execute the sequence `n` times (an iterative solver's outer loop).
    ///
    /// Individual iteration makespans are readable via
    /// [`Skeleton::per_iteration_makespans`] until the next call. With a
    /// straggler monitor enabled, each iteration contributes one
    /// per-device kernel-span sample to the EWMA.
    ///
    /// When tracing, asserts (debug builds) that each iteration emits the
    /// same number of spans — the compiled schedule is replayed verbatim,
    /// so a drifting span count means the run grew hidden state.
    pub fn run_iters(&mut self, n: usize) -> ExecReport {
        let mut total = ExecReport::default();
        let mut spans_per_iter: Option<usize> = None;
        // Reserve up front so the steady-state loop never reallocates.
        self.iter_makespans.clear();
        self.iter_makespans.reserve(n);
        for _ in 0..n {
            let before = self.queue.trace().map(|t| t.spans().len());
            let report = self.run();
            self.iter_makespans.push(report.makespan);
            total.accumulate(report);
            // With a fault injector installed the span count legitimately
            // varies per iteration (retry spans appear where faults fire),
            // so the stability check only applies to clean runs.
            if self.injector.is_some() {
                continue;
            }
            if let (Some(b), Some(t)) = (before, self.queue.trace()) {
                let delta = t.spans().len() - b;
                if let Some(expected) = spans_per_iter {
                    debug_assert_eq!(
                        expected, delta,
                        "trace span count must be stable across iterations"
                    );
                }
                spans_per_iter = Some(delta);
            }
        }
        total
    }

    /// Take the recorded trace (requires `options.trace`).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.queue.take_trace()
    }

    /// Install a fault plan, replacing any previous one. Faults are
    /// delivered deterministically by `(iteration, device, kind, nth)`;
    /// retry behavior follows `options.resilience` (recovery disabled ⇒
    /// single attempt, every fault escapes as a structured error), with
    /// exponential backoff on the virtual clock.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        let policy = self.options.resilience.retry_policy();
        let injector = FaultInjector::new(plan, policy, self.backend.num_devices());
        self.queue.set_fault_injector(Some(Arc::clone(&injector)));
        self.injector = Some(injector);
    }

    /// Execute the sequence once, reporting failures as values instead of
    /// panicking.
    ///
    /// With a fault plan installed, recovered transients show up only as
    /// extra virtual time and report counters. A fault that escapes retry
    /// aborts the functional replay exactly at the faulted operation —
    /// earlier operations of the iteration have already mutated data, so
    /// the caller must restore a checkpoint before continuing. A scheduled
    /// device loss fails every execution from its iteration on.
    pub fn try_run(&mut self) -> Result<ExecReport, ExecError> {
        let report = self.execute()?;
        if let Some(m) = &mut self.monitor {
            m.observe(self.timing_scratch.dev_kernel());
        }
        Ok(report)
    }

    /// One execution: the virtual-timing replay, then (when functional)
    /// the functional replay in the configured mode.
    fn execute(&mut self) -> Result<ExecReport, ExecError> {
        // Clone the Arc so plan data can be borrowed by index while the
        // queue (and scratch) are mutated — nothing inside is copied.
        let plan = Arc::clone(&self.plan);
        let t0 = self.queue.makespan();
        let link_busy_before = self.queue.link_busy_total();
        let iteration = self.logical_iteration;
        let stats_before = self.injector.as_ref().map(|i| i.stats());
        if let Some(inj) = &self.injector {
            if let Err(fault) = inj.begin_iteration(iteration) {
                return Err(ExecError::from_permanent(fault, iteration));
            }
        }
        let mut report = ExecReport {
            executions: 1,
            ..Default::default()
        };
        let program = match &mut self.timing {
            Some(program) => program,
            slot @ None => slot.insert(Box::new(TimingProgram::build(
                &plan,
                &self.backend,
                &self.engine,
                &self.options,
            )?)),
        };
        let abort = program.replay(
            &plan,
            &mut self.queue,
            self.injector.as_ref(),
            &mut self.timing_scratch,
            t0,
            &mut report,
        );
        if self.functional {
            let ndev = self.backend.num_devices();
            match (abort, self.options.functional_mode) {
                (Some(at), _) => functional::run_serial(&plan, ndev, Some(&at)),
                (None, FunctionalMode::Serial) => functional::run_serial(&plan, ndev, None),
                (None, FunctionalMode::Parallel) => self.parallel.run(&plan)?,
            }
        }

        // Align all streams at the end of one execution so iterations
        // measure cleanly (a zero-cost barrier on the virtual clock).
        let end = self.queue.sync_all();
        report.makespan = end - t0;
        report.link_busy = self.queue.link_busy_total() - link_busy_before;
        if let (Some(before), Some(inj)) = (stats_before, &self.injector) {
            let after = inj.stats();
            report.faults_injected = after.injected - before.injected;
            report.faults_recovered = after.recovered - before.recovered;
            report.retries = after.retries - before.retries;
        }
        if self.queue.trace().is_some() {
            let topo = self.backend.topology();
            let stats: Vec<(String, f64, u64)> = (0..topo.num_link_resources())
                .map(|r| {
                    (
                        topo.link_resource_name(r).to_string(),
                        self.queue.link_busy_time(r).as_us(),
                        self.queue.link_contention_events(r),
                    )
                })
                .collect();
            if let Some(trace) = self.queue.trace_mut() {
                for (name, busy, contended) in stats {
                    trace.set_counter(&format!("link:{name}:busy_us"), busy);
                    trace.set_counter(&format!("link:{name}:contended"), contended as f64);
                }
            }
        }
        if let (Some(at), Some(inj)) = (abort, &self.injector) {
            // The iteration aborted: leave `logical_iteration` in place so
            // a bare retry re-runs the same iteration (its fault specs are
            // consumed, so the re-run is clean).
            return Err(ExecError::TransientFaultEscaped {
                device: at.site.device,
                kind: at.site.kind,
                iteration,
                attempts: inj.policy().max_attempts,
            });
        }
        self.logical_iteration = iteration + 1;
        Ok(report)
    }

    /// Enable the deterministic straggler monitor: every execution routed
    /// through this skeleton's run entry points feeds one per-device
    /// kernel-busy sample (off the virtual clock) into an EWMA judged by
    /// `policy`. Replaces any previous monitor.
    pub fn enable_straggler_monitor(&mut self, policy: StragglerPolicy) {
        self.monitor = Some(StragglerMonitor::new(self.backend.num_devices(), policy));
    }

    /// The current fleet-health snapshot, if a monitor is enabled.
    pub fn health_report(&self) -> Option<HealthReport> {
        self.monitor.as_ref().map(|m| m.report())
    }

    /// Type-erased state handles of every data object the sequence
    /// writes (fields written or read-written by kernels, reduction
    /// scalars), deduplicated — exactly the set a checkpoint must capture
    /// for a rollback to restore the iteration boundary.
    pub fn state_handles(&self) -> Vec<Arc<dyn StateHandle>> {
        let mut seen: HashSet<neon_set::DataUid> = HashSet::new();
        let mut out: Vec<Arc<dyn StateHandle>> = Vec::new();
        for c in self.plan.containers() {
            for a in c.accesses() {
                if !(a.mode.writes() || a.pattern == ComputePattern::Reduce) {
                    continue;
                }
                if let Some(h) = &a.state {
                    if seen.insert(h.state_uid()) {
                        out.push(Arc::clone(h));
                    }
                }
            }
        }
        out
    }

    /// Snapshot the sequence's write set. `iteration` is the first
    /// iteration to (re-)execute after a restore.
    pub fn capture_checkpoint(&self, iteration: u64) -> Checkpoint {
        Checkpoint::capture(iteration, &self.state_handles())
    }

    /// Run iterations `start .. start + n` with periodic checkpoints and
    /// automatic rollback.
    ///
    /// A transient fault that escapes retry restores the last checkpoint
    /// and replays from it (fault specs are consumed once, so the replay
    /// passes clean — and because recovered faults have no data effects,
    /// the final state is bit-identical to a fault-free run). A device
    /// loss cannot be healed at this level: the last checkpoint is
    /// restored and the error is returned so the caller can rebuild on
    /// the surviving devices and resume from `completed`.
    pub fn run_iters_resilient(
        &mut self,
        start: u64,
        n: usize,
    ) -> Result<ResilientRun, Box<ResilientError>> {
        let interval = u64::from(self.options.resilience.checkpoint_interval.max(1));
        let handles = self.state_handles();
        let mut checkpoint = Checkpoint::capture(start, &handles);
        let mut report = ExecReport::default();
        let mut rollbacks = 0u64;
        let mut replayed = 0u64;
        let end = start + n as u64;
        let mut i = start;
        while i < end {
            self.logical_iteration = i;
            match self.try_run() {
                Ok(r) => {
                    report.accumulate(r);
                    i += 1;
                    if (i - start).is_multiple_of(interval) && i < end {
                        checkpoint = Checkpoint::capture(i, &handles);
                    }
                }
                Err(ExecError::TransientFaultEscaped { .. }) => {
                    checkpoint.restore();
                    rollbacks += 1;
                    replayed += i - checkpoint.iteration();
                    i = checkpoint.iteration();
                }
                Err(error) => {
                    checkpoint.restore();
                    let completed = checkpoint.iteration();
                    return Err(Box::new(ResilientError {
                        error,
                        checkpoint,
                        completed,
                    }));
                }
            }
        }
        Ok(ResilientRun {
            report,
            rollbacks,
            replayed,
        })
    }
}

/// Outcome of a completed [`Skeleton::run_iters_resilient`].
#[derive(Debug)]
pub struct ResilientRun {
    /// Aggregated report over every *successful* iteration (aborted
    /// iterations contribute no report; their virtual time still advanced
    /// the clock, which is how recovery overhead shows up in makespans).
    pub report: ExecReport,
    /// Checkpoint restores performed.
    pub rollbacks: u64,
    /// Successful iterations that had to be re-executed after rollbacks.
    pub replayed: u64,
}

/// A failure [`Skeleton::run_iters_resilient`] could not heal. The data
/// objects have already been restored to `checkpoint`'s state.
#[derive(Debug)]
pub struct ResilientError {
    /// The unhealable failure (device loss, or a structural error).
    pub error: ExecError,
    /// The checkpoint that was restored (its `iteration()` is the first
    /// iteration to re-run after the caller recovers).
    pub checkpoint: Checkpoint,
    /// Iterations committed before the failure.
    pub completed: u64,
}

impl std::fmt::Display for ResilientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} iterations committed, state rolled back)",
            self.error, self.completed
        )
    }
}

impl std::error::Error for ResilientError {}
