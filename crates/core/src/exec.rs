//! Executing a compiled plan.
//!
//! The executor holds an immutable, shareable [`CompiledPlan`] and splits
//! every execution into two replays:
//!
//! * **Virtual-timing replay** ([`Executor::execute`]'s first half) —
//!   enqueues every task on the owning stream of the
//!   [`neon_sys::QueueSim`] virtual clock: kernels cost
//!   `launch + bytes/bandwidth` (roofline), halo transfers cost
//!   `latency + bytes/link-bandwidth` per segment on dedicated per-device
//!   transfer lanes (one per direction, modelling a GPU's copy engines),
//!   host steps synchronize all devices. Every overlap the schedule
//!   enables shows up as reduced makespan — this is how the paper's OCC
//!   figures are reproduced without hardware. The prices are computed
//!   once per executor (the `timing` module): the first execution lowers
//!   the plan to a pre-priced program, later ones only fold completion
//!   times over it, and the setters it is priced under drop it.
//!
//! * **Functional replay** — actually runs the compute lambdas over the
//!   partition data. In the default [`FunctionalMode::Parallel`] mode a
//!   persistent per-device [`neon_sys::WorkerPool`] walks the compiled
//!   [`DevicePlan`]: each worker executes *its* device's steps in schedule
//!   order and synchronizes with the other workers through atomic event
//!   slots exactly where the event table says to wait — so internal
//!   kernels, boundary kernels and halo copies really overlap on the host,
//!   mirroring the virtual-clock model (paper §IV-D). The
//!   [`FunctionalMode::Serial`] reference walks tasks strictly in order on
//!   the calling thread; parity tests pin the two bit for bit.
//!
//! Tasks, nodes, parent lists, halo descriptors and the event table are
//! *borrowed from the plan by index* — the hot loop clones nothing per
//! task and allocates nothing in steady state; the per-node
//! completion-time table and every other per-iteration table are scratch
//! buffers reused across iterations.
//!
//! Event semantics are per-device: a kernel on device *d* waits for its
//! data parents on *d*; a halo transfer waits for its sources' and
//! destination's parents; a host step waits for everything.

#![allow(clippy::needless_range_loop)] // device loops index per-device tables

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use neon_comm::{CollectiveEngine, EngineConfig};
use neon_sys::{
    Backend, DeviceId, FaultInjector, FaultPlan, FaultSite, FaultSiteKind, FaultStats,
    PermanentFault, QueueSim, RetryPolicy, SimTime, Trace, WorkerPool,
};

use crate::collective::CollectiveMode;
use crate::devplan::{DevAction, DevicePlan};
use crate::graph::{Graph, NodeKind};
use crate::plan::CompiledPlan;
use crate::timing::{TimingProgram, TimingScratch, TimingSettings};

/// How halo coherency is realized (paper §IV-C2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HaloPolicy {
    /// Explicit peer-to-peer copies on dedicated transfer lanes — the
    /// model the paper's grids use, and the one OCC can overlap.
    ExplicitTransfers,
    /// Driver-managed unified memory: remote pages migrate on first
    /// touch *inside* the consuming kernel, so migration time serializes
    /// with computation on the device's compute lane and no overlap is
    /// possible — the performance penalty the paper cites for rejecting
    /// this design. Priced with typical NVLink-system parameters: 2 MiB
    /// pages, 25 µs per page fault, 50 GB/s migration bandwidth.
    UnifiedMemory,
}

/// How communication completion is signaled to downstream compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CommMode {
    /// Whole-transfer epochs: a consumer on device *d* waits for the
    /// entire halo node to finish on *d* — every arriving payload **and**
    /// the device's own outgoing sends — before any of its cells run.
    #[default]
    Epoch,
    /// Per-chunk events: the timing replay streams halo payloads in
    /// chunks sized by [`neon_comm::ChunkPolicy::for_topology`] and
    /// splits a consuming kernel into an *interior* span (starts as soon
    /// as its non-halo inputs are ready — it touches no halo layer) and a
    /// *boundary* span gated only on the last arriving chunk, so interior
    /// work overlaps in-flight communication and a device's own outgoing
    /// sends never gate its compute. Collective steps already stream
    /// per-chunk inside the engine; this mode extends the same
    /// granularity to halo exchanges. A pricing decision only: the
    /// compiled plan and its event table are the ones [`CommMode::Epoch`]
    /// uses, so the functional result is bit-identical.
    ChunkEvents,
}

/// How the functional replay runs the compute lambdas on host threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FunctionalMode {
    /// Walk tasks strictly in schedule order on the calling thread: the
    /// bit-exactness reference.
    Serial,
    /// Event-driven replay on a persistent per-device worker pool walking
    /// the compiled [`DevicePlan`] — cross-task overlap exactly where the
    /// event table allows it, no thread spawns in steady state.
    #[default]
    Parallel,
}

/// A structured execution failure.
///
/// The executor's hot path reports malformed plans and injected faults as
/// values instead of panicking: a solver embedding the executor can retry,
/// roll back or evict a device without unwinding through foreign frames.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A transient injected fault failed every allowed attempt. The
    /// iteration aborted mid-replay (earlier nodes already ran), so the
    /// caller must roll back to the last checkpoint before continuing.
    TransientFaultEscaped {
        /// Device whose operation kept failing.
        device: DeviceId,
        /// Kind of operation that failed.
        kind: FaultSiteKind,
        /// Logical iteration that aborted.
        iteration: u64,
        /// Attempts made (the policy's bound).
        attempts: u32,
    },
    /// A device was lost permanently. Every subsequent execution fails the
    /// same way until the caller rebuilds the plan on the survivors.
    DeviceLost {
        /// The dead device.
        device: DeviceId,
        /// Logical iteration at whose start the loss was detected.
        iteration: u64,
    },
    /// A link was severed permanently: the topology the plan was compiled
    /// on no longer exists, so its halo schedules and collective routes are
    /// stale. Every subsequent execution fails the same way until the
    /// caller recompiles on the backend [`crate::heal_backend`] returns.
    /// All devices survive, so the partitioning is unchanged — resume from
    /// the last checkpoint.
    LinkLost {
        /// One endpoint of the dead wire.
        src: DeviceId,
        /// The other endpoint.
        dst: DeviceId,
        /// Logical iteration at whose start the loss was detected.
        iteration: u64,
    },
    /// A link was permanently degraded to a fraction of its bandwidth.
    /// Like [`ExecError::LinkLost`], the compiled plan's timing model is
    /// stale; rebuild on the backend [`crate::heal_backend`] returns.
    LinkDegraded {
        /// One endpoint of the degraded wire.
        src: DeviceId,
        /// The other endpoint.
        dst: DeviceId,
        /// Remaining bandwidth fraction in `(0, 1]`.
        factor: f64,
        /// Logical iteration at whose start the degrade was detected.
        iteration: u64,
    },
    /// [`crate::heal_backend`] refused a permanent fault: it names a device
    /// or link the backend does not have, or evicting the device would
    /// leave no device at all.
    Unhealable {
        /// The fault that could not be healed.
        fault: PermanentFault,
        /// Why the backend refused it.
        reason: String,
    },
    /// A compute node carries no iteration space.
    MissingIterationSpace {
        /// Name of the offending node.
        node: String,
    },
    /// A reduce/host/collective step's node carries no container.
    MissingContainer {
        /// Name of the offending node.
        node: String,
    },
    /// A device-plan step references a node of an incompatible kind.
    MalformedStep {
        /// Name of the offending node.
        node: String,
    },
    /// The parallel replay was poisoned before this worker could finish
    /// (the root cause is reported by the worker that failed).
    ReplayPoisoned,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::TransientFaultEscaped {
                device,
                kind,
                iteration,
                attempts,
            } => write!(
                f,
                "transient {kind} fault on device {} escaped retry \
                 (iteration {iteration}, {attempts} attempts); roll back required",
                device.0
            ),
            ExecError::DeviceLost { device, iteration } => {
                write!(f, "device {} lost at iteration {iteration}", device.0)
            }
            ExecError::LinkLost {
                src,
                dst,
                iteration,
            } => write!(
                f,
                "link {}<->{} lost at iteration {iteration}; recompile on the \
                 degraded topology",
                src.0, dst.0
            ),
            ExecError::LinkDegraded {
                src,
                dst,
                factor,
                iteration,
            } => write!(
                f,
                "link {}<->{} degraded to {:.0}% bandwidth at iteration \
                 {iteration}; recompile on the degraded topology",
                src.0,
                dst.0,
                factor * 100.0
            ),
            ExecError::Unhealable { fault, reason } => write!(f, "cannot heal {fault}: {reason}"),
            ExecError::MissingIterationSpace { node } => {
                write!(f, "compute node '{node}' has no iteration space")
            }
            ExecError::MissingContainer { node } => {
                write!(f, "node '{node}' has no container")
            }
            ExecError::MalformedStep { node } => {
                write!(
                    f,
                    "device-plan step references node '{node}' of incompatible kind"
                )
            }
            ExecError::ReplayPoisoned => f.write_str("parallel replay poisoned"),
        }
    }
}

impl std::error::Error for ExecError {}

impl ExecError {
    /// The error a permanent `fault` detected at the start of `iteration`
    /// surfaces as; the inverse of [`ExecError::permanent_fault`].
    pub fn from_permanent(fault: PermanentFault, iteration: u64) -> Self {
        match fault {
            PermanentFault::DeviceLoss(device) => ExecError::DeviceLost { device, iteration },
            PermanentFault::LinkLoss(src, dst) => ExecError::LinkLost {
                src,
                dst,
                iteration,
            },
            PermanentFault::LinkDegrade(src, dst, factor) => ExecError::LinkDegraded {
                src,
                dst,
                factor,
                iteration,
            },
        }
    }

    /// The permanent fault this error reports — heal it with
    /// [`crate::heal_backend`] — or `None` for transient and structural
    /// errors.
    pub fn permanent_fault(&self) -> Option<PermanentFault> {
        match *self {
            ExecError::DeviceLost { device, .. } => Some(PermanentFault::DeviceLoss(device)),
            ExecError::LinkLost { src, dst, .. } => Some(PermanentFault::LinkLoss(src, dst)),
            ExecError::LinkDegraded {
                src, dst, factor, ..
            } => Some(PermanentFault::LinkDegrade(src, dst, factor)),
            _ => None,
        }
    }
}

/// Timing summary of one or more executions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecReport {
    /// Wall-clock (virtual) time from first enqueue to last completion.
    pub makespan: SimTime,
    /// Total kernel busy time summed over all streams and devices.
    pub kernel_time: SimTime,
    /// Total transfer busy time summed over all lanes.
    pub transfer_time: SimTime,
    /// Total host-step time.
    pub host_time: SimTime,
    /// Total collective-communication busy time over all lanes.
    pub collective_time: SimTime,
    /// Kernel launches enqueued (one per compute node per device with a
    /// non-empty partition; fusion shrinks this).
    pub launches: u64,
    /// Bytes swept by those kernels (cells × the container's per-cell
    /// bytes, summed over launches; fused reads of just-written fields
    /// count zero).
    pub bytes_moved: u64,
    /// FLOPs spent recomputing ghost cells another device owns (temporal
    /// blocking's overlapped tiling; zero without a super-step).
    pub redundant_flops: u64,
    /// Halo-exchange rounds executed (one per halo node per execution,
    /// whatever its depth — temporal blocking trades `k` depth-`r` rounds
    /// for one depth-`k·r` round).
    pub halo_rounds: u64,
    /// Link busy time summed over every link resource (transfers and
    /// collectives on the wires; an NVLink pair and the PCIe root complex
    /// count alike).
    pub link_busy: SimTime,
    /// Number of executions aggregated.
    pub executions: u64,
    /// Fault events injected during these executions (transient specs
    /// fired plus device losses).
    pub faults_injected: u64,
    /// Transient faults absorbed by retry (no rollback needed).
    pub faults_recovered: u64,
    /// Failed attempts that were re-tried.
    pub retries: u64,
}

impl ExecReport {
    /// Fold another report into this one (used when aggregating across
    /// iterations, rollback segments, or recovery epochs).
    pub fn accumulate(&mut self, other: ExecReport) {
        // Exhaustive on purpose: a field added to the report and not
        // folded here is a compile error, not a silently lost count.
        let ExecReport {
            makespan,
            kernel_time,
            transfer_time,
            host_time,
            collective_time,
            launches,
            bytes_moved,
            redundant_flops,
            halo_rounds,
            link_busy,
            executions,
            faults_injected,
            faults_recovered,
            retries,
        } = other;
        self.makespan += makespan;
        self.kernel_time += kernel_time;
        self.transfer_time += transfer_time;
        self.host_time += host_time;
        self.collective_time += collective_time;
        self.launches += launches;
        self.bytes_moved += bytes_moved;
        self.redundant_flops += redundant_flops;
        self.halo_rounds += halo_rounds;
        self.link_busy += link_busy;
        self.executions += executions;
        self.faults_injected += faults_injected;
        self.faults_recovered += faults_recovered;
        self.retries += retries;
    }

    /// Average makespan per execution.
    ///
    /// Every execution ends with a [`neon_sys::QueueSim::sync_all`] — a
    /// zero-cost *alignment barrier* on the virtual clock that raises all
    /// streams to the global maximum. Because of that barrier, successive
    /// iterations cannot overlap on the virtual clock, the summed
    /// `makespan` is exactly the sum of the individual iteration
    /// makespans, and this average is exact — but it also flattens any
    /// per-iteration variance. Use
    /// [`Executor::per_iteration_makespans`] when the distribution
    /// matters.
    pub fn time_per_execution(&self) -> SimTime {
        if self.executions == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_us(self.makespan.as_us() / self.executions as f64)
        }
    }
}

/// Iterations a waiter spins before parking on the condvar, scaled to
/// the host: with enough cores to run every device worker concurrently,
/// slots are signaled microseconds apart and a longer spin catches them
/// without two context switches per dependency edge; on an oversubscribed
/// host spinning steals cycles from the very worker being waited for, so
/// the budget collapses (to zero on a single core).
fn wait_spin() -> usize {
    match neon_sys::host_cores() {
        0 | 1 => 0,
        2 | 3 => 64,
        _ => 512,
    }
}

/// The event table of the parallel functional replay: one atomic epoch
/// counter per [`DevicePlan`] slot.
///
/// A slot stores the executor epoch in which it was last signaled; a
/// waiter for epoch `e` proceeds once the slot holds `>= e`. Nothing is
/// ever cleared — bumping the epoch invalidates all slots at once, which
/// also makes slots left behind by a panicked (poisoned) replay harmless.
struct EventSlots {
    slots: Vec<AtomicU64>,
    lock: Mutex<()>,
    cv: Condvar,
    poisoned: AtomicBool,
}

impl EventSlots {
    fn new(n: usize) -> Self {
        EventSlots {
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn signal(&self, slot: usize, epoch: u64) {
        self.slots[slot].store(epoch, Ordering::Release);
        // The empty critical section pairs with the waiter's
        // check-then-wait under the same lock: no lost wakeups. The lock
        // guards no data, so a poisoned mutex (a worker panicked while
        // holding it) is harmless — take it anyway.
        drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }

    /// Wait until `slot` reaches `epoch`. Returns false if the replay was
    /// poisoned by a panicking worker — the caller must abandon its walk.
    fn wait(&self, slot: usize, epoch: u64) -> bool {
        for _ in 0..wait_spin() {
            if self.slots[slot].load(Ordering::Acquire) >= epoch {
                return true;
            }
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.slots[slot].load(Ordering::Acquire) >= epoch {
                return true;
            }
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            // The timeout is belt-and-braces only; the signal-side lock
            // bracket already rules out lost wakeups.
            let (g, _) = self
                .cv
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }

    fn clear_poison(&self) {
        self.poisoned.store(false, Ordering::Release);
    }
}

/// Replays a compiled plan on the virtual clock and (optionally) the real
/// data.
pub struct Executor {
    backend: Backend,
    plan: Arc<CompiledPlan>,
    queue: QueueSim,
    functional: bool,
    functional_mode: FunctionalMode,
    kernel_concurrency: bool,
    halo_policy: HaloPolicy,
    engine: CollectiveEngine,
    collective_mode: CollectiveMode,
    comm_mode: CommMode,
    /// The plan lowered to pre-priced timing steps: built on the first
    /// execution (so a plan-cache hit pays nothing for it) and dropped by
    /// every setter it is priced under. Boxed: an executor that never runs
    /// (a batch of plan-cache hits) stays small.
    timing: Option<Box<TimingProgram>>,
    /// The timing replay's per-iteration tables, reused across executions.
    timing_scratch: TimingScratch,
    /// The plan's per-device task partition + event table.
    devplan: Arc<DevicePlan>,
    /// Persistent per-device workers, spawned on the first parallel
    /// functional replay and parked between jobs.
    pool: Option<WorkerPool>,
    /// Event slots backing the parallel replay, sized to the device plan.
    events: EventSlots,
    /// Current replay epoch (bumped once per parallel functional replay).
    func_epoch: u64,
    /// Fault injector shared with the virtual-clock queue (kernel faults
    /// are observed inside `enqueue_from`; transfer faults at halo nodes).
    injector: Option<Arc<FaultInjector>>,
    /// Logical solver iteration of the *next* execution — the coordinate
    /// fault plans target. Advanced by each successful execution; a
    /// resilient runner rewinds it on rollback.
    logical_iteration: u64,
    /// Graph node at which a [`FaultSiteKind::Link`] escape fired during
    /// the timing replay: link faults are observed inside the collective
    /// engine (no per-device occurrence counters on this side), so the
    /// functional replay aborts at node granularity — the whole collective
    /// is uncommitted.
    escape_node: Option<usize>,
    /// Per-iteration makespans of the most recent `execute_iters` call.
    iter_makespans: Vec<SimTime>,
}

impl Executor {
    /// Build an executor over a shared compiled plan. Functional execution
    /// is enabled iff every compute node's iteration space has real
    /// storage.
    pub fn from_plan(backend: Backend, plan: Arc<CompiledPlan>) -> Self {
        let compute_streams = plan.schedule().num_streams;
        // lanes: [0, compute_streams) kernels, +0/+1 transfers, +2 host,
        // +3 collectives.
        let queue = QueueSim::new(backend.num_devices(), compute_streams + 4);
        let engine = CollectiveEngine::new(Arc::clone(backend.shared_topology()));
        let functional = has_real_storage(plan.graph());
        let devplan = Arc::clone(plan.device_plan());
        let events = EventSlots::new(devplan.num_slots());
        Executor {
            backend,
            plan,
            queue,
            functional,
            functional_mode: FunctionalMode::default(),
            kernel_concurrency: false,
            halo_policy: HaloPolicy::ExplicitTransfers,
            engine,
            collective_mode: CollectiveMode::default(),
            comm_mode: CommMode::default(),
            timing: None,
            timing_scratch: TimingScratch::default(),
            devplan,
            pool: None,
            events,
            func_epoch: 0,
            injector: None,
            logical_iteration: 0,
            escape_node: None,
            iter_makespans: Vec::new(),
        }
    }

    /// The plan this executor replays.
    pub fn plan(&self) -> &Arc<CompiledPlan> {
        &self.plan
    }

    /// Select the halo coherency model (see [`HaloPolicy`]).
    pub fn set_halo_policy(&mut self, policy: HaloPolicy) {
        self.halo_policy = policy;
        self.timing = None;
    }

    /// Select how collective nodes pick their algorithm (default:
    /// [`CollectiveMode::Auto`]).
    pub fn set_collective_mode(&mut self, mode: CollectiveMode) {
        self.collective_mode = mode;
        self.timing = None;
        self.engine.set_config(EngineConfig {
            algorithm: mode.fixed_algorithm(),
            ..EngineConfig::default()
        });
    }

    /// Select how communication completion gates downstream compute
    /// (default: [`CommMode::Epoch`]).
    pub fn set_comm_mode(&mut self, mode: CommMode) {
        self.comm_mode = mode;
        self.timing = None;
    }

    /// The configured communication-signaling mode.
    pub fn comm_mode(&self) -> CommMode {
        self.comm_mode
    }

    /// The virtual-clock simulator (link utilization counters live here).
    pub fn queue(&self) -> &QueueSim {
        &self.queue
    }

    /// Let kernels of different streams run concurrently at full modelled
    /// bandwidth each.
    ///
    /// Off by default: the applications here are memory-bound, and a real
    /// GPU's bandwidth is shared between concurrent kernels, so the
    /// faithful model serializes a device's kernels on one lane (transfers
    /// keep their own DMA lanes). Enabling this reproduces the unphysical
    /// super-linear efficiencies the ablation demonstrates.
    pub fn set_kernel_concurrency(&mut self, on: bool) {
        self.kernel_concurrency = on;
        self.timing = None;
    }

    /// Whether kernels actually run on data (vs. timing-only).
    pub fn is_functional(&self) -> bool {
        self.functional
    }

    /// Force timing-only execution (used by large benchmark sweeps).
    pub fn set_functional(&mut self, on: bool) {
        assert!(
            !on || has_real_storage(self.plan.graph()),
            "cannot enable functional execution on virtual storage"
        );
        self.functional = on;
    }

    /// Select how the functional replay parallelizes (default:
    /// [`FunctionalMode::Parallel`]).
    pub fn set_functional_mode(&mut self, mode: FunctionalMode) {
        self.functional_mode = mode;
    }

    /// The current functional replay mode.
    pub fn functional_mode(&self) -> FunctionalMode {
        self.functional_mode
    }

    /// Per-device kernel busy time of the most recent execution, indexed
    /// by device rank. This is the deterministic sample the straggler
    /// monitor ([`crate::health::StragglerMonitor`]) folds into its EWMA:
    /// it comes straight off the virtual clock, so two runs of the same
    /// plan produce bit-identical health histories.
    pub fn per_device_kernel_time(&self) -> &[SimTime] {
        self.timing_scratch.dev_kernel()
    }

    /// Makespans of the individual iterations of the most recent
    /// [`Executor::execute_iters`] call, in order.
    ///
    /// [`ExecReport::time_per_execution`] only exposes the mean; this is
    /// the full per-iteration distribution for variance reporting.
    pub fn per_iteration_makespans(&self) -> &[SimTime] {
        &self.iter_makespans
    }

    /// Install a fault plan, replacing any previous one. Faults are
    /// delivered deterministically by `(iteration, device, kind, nth)`;
    /// transient faults are retried up to `policy.max_attempts` with
    /// exponential backoff on the virtual clock.
    pub fn install_fault_plan(&mut self, plan: FaultPlan, policy: RetryPolicy) {
        let injector = FaultInjector::new(plan, policy, self.backend.num_devices());
        self.queue.set_fault_injector(Some(Arc::clone(&injector)));
        self.injector = Some(injector);
    }

    /// Remove the installed fault plan (executions run clean again).
    pub fn clear_fault_plan(&mut self) {
        self.queue.set_fault_injector(None);
        self.injector = None;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Lifetime fault counters (zero without an installed plan).
    pub fn fault_stats(&self) -> FaultStats {
        self.injector
            .as_ref()
            .map(|i| i.stats())
            .unwrap_or_default()
    }

    /// Set the logical iteration the next execution runs as (the
    /// coordinate fault plans target). Resilient runners rewind this after
    /// a rollback so the replayed iterations keep their original numbers.
    pub fn set_logical_iteration(&mut self, iteration: u64) {
        self.logical_iteration = iteration;
    }

    /// The logical iteration of the next execution.
    pub fn logical_iteration(&self) -> u64 {
        self.logical_iteration
    }

    /// Enable span recording on the virtual clock.
    pub fn enable_trace(&mut self) {
        self.queue.enable_trace();
    }

    /// Take the recorded trace (if tracing was enabled).
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.queue.take_trace()
    }

    /// Execute the plan once: the virtual-timing replay, then (when
    /// functional) the functional replay in the configured mode.
    ///
    /// Panics on a structural failure or an unrecovered fault; use
    /// [`Executor::try_execute`] to handle those as values.
    pub fn execute(&mut self) -> ExecReport {
        self.try_execute()
            .unwrap_or_else(|e| panic!("execution failed: {e}"))
    }

    /// [`Executor::execute`], reporting failures as [`ExecError`].
    ///
    /// With a fault plan installed, recovered transients show up only as
    /// extra virtual time and report counters. A fault that escapes retry
    /// aborts the functional replay exactly at the faulted operation —
    /// earlier nodes of the iteration have already mutated data, so the
    /// caller must restore a checkpoint before continuing. A scheduled
    /// device loss fails every execution from its iteration on.
    pub fn try_execute(&mut self) -> Result<ExecReport, ExecError> {
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
        let settings = TimingSettings {
            kernel_concurrency: self.kernel_concurrency,
            halo_policy: self.halo_policy,
            comm_mode: self.comm_mode,
        };
        let program = match &mut self.timing {
            Some(program) => program,
            slot @ None => slot.insert(Box::new(TimingProgram::build(
                &plan,
                &self.backend,
                &self.engine,
                settings,
            )?)),
        };
        self.escape_node = program.replay(
            &plan,
            &mut self.queue,
            self.injector.as_ref(),
            &mut self.timing_scratch,
            t0,
            &mut report,
        );
        let escape = self.injector.as_ref().and_then(|i| i.escape_site());
        if self.functional {
            match escape {
                Some(site) => self.replay_functional_serial(&plan, Some(site))?,
                None => self.replay_functional(&plan)?,
            }
        }

        // Align all streams at the end of one execution so iterations
        // measure cleanly (a zero-cost barrier on the virtual clock).
        let end = self.queue.sync_all();
        report.makespan = end - t0;
        report.link_busy = self.queue.link_busy_total() - link_busy_before;
        if let Some(before) = stats_before {
            let after = self.fault_stats();
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
        if let Some(site) = escape {
            // The iteration aborted: leave `logical_iteration` in place so
            // a bare retry re-runs the same iteration (its fault specs are
            // consumed, so the re-run is clean).
            let attempts = self
                .injector
                .as_ref()
                .map(|i| i.policy().max_attempts)
                .unwrap_or(1);
            return Err(ExecError::TransientFaultEscaped {
                device: site.device,
                kind: site.kind,
                iteration,
                attempts,
            });
        }
        self.logical_iteration = iteration + 1;
        Ok(report)
    }

    /// The functional half of one execution.
    fn replay_functional(&mut self, plan: &CompiledPlan) -> Result<(), ExecError> {
        match self.functional_mode {
            FunctionalMode::Parallel => self.replay_functional_parallel(plan),
            FunctionalMode::Serial => self.replay_functional_serial(plan, None),
        }
    }

    /// Reference replay: strictly in task order, devices in rank order,
    /// everything on the calling thread.
    ///
    /// With `stop` set, this is the *prefix* of an iteration whose fault at
    /// that site escaped retry: every operation before the faulted one runs
    /// (mutating data — this is what makes the rollback genuinely
    /// necessary), the faulted operation and everything after it never
    /// execute. The abort runs serially regardless of the configured mode —
    /// the partial state is about to be wiped by a checkpoint restore, and
    /// a serial walk keeps the abort point deterministic.
    ///
    /// Occurrence counting mirrors the timing replay exactly: kernels
    /// count per device only when the partition is non-empty, halo
    /// transfers count once per (node, destination) in descriptor order.
    /// Link faults carry no functional counter: the engine observed them
    /// mid-collective, so the abort lands on the collective *node* the
    /// timing replay recorded (`escape_node`) — the fold never committed,
    /// skipping the whole node is exact.
    fn replay_functional_serial(
        &self,
        plan: &CompiledPlan,
        stop: Option<FaultSite>,
    ) -> Result<(), ExecError> {
        let ndev = self.backend.num_devices();
        // Per-device `[kernel, transfer]` occurrence counters (stop only).
        let mut seen = vec![[0u32; 2]; if stop.is_some() { ndev } else { 0 }];
        // Whether the next occurrence of `kind` on `dev` is the stop site.
        let mut reached = |kind: FaultSiteKind, dev: DeviceId| {
            let Some(site) = stop else { return false };
            let slot = &mut seen[dev.0][usize::from(kind == FaultSiteKind::Transfer)];
            let nth = *slot;
            *slot += 1;
            site.kind == kind && site.device == dev && site.nth == nth
        };
        for task in &plan.schedule().tasks {
            match &plan.graph().node(task.node).kind {
                NodeKind::Compute {
                    container,
                    view,
                    reduce_init,
                    reduce_finalize,
                } => {
                    let space = stop
                        .map(|_| {
                            container
                                .space()
                                .ok_or_else(|| ExecError::MissingIterationSpace {
                                    node: plan.graph().node(task.node).name.clone(),
                                })
                        })
                        .transpose()?;
                    if *reduce_init {
                        container.reduce_init();
                    }
                    for d in 0..ndev {
                        let dev = DeviceId(d);
                        if let Some(space) = space {
                            if space.cell_count(dev, *view) == 0 {
                                continue; // the timing replay skipped it too
                            }
                            if reached(FaultSiteKind::Kernel, dev) {
                                // Launch-failure semantics: the faulted
                                // kernel never ran, devices before it in
                                // rank order already did.
                                return Ok(());
                            }
                        }
                        container.run_device(dev, *view);
                    }
                    if *reduce_finalize {
                        container.reduce_finalize();
                    }
                }
                NodeKind::Halo { exchange } => {
                    if stop.is_some() {
                        let mut counted = vec![false; ndev];
                        for desc in plan.halo_descriptors(task.node) {
                            if !std::mem::replace(&mut counted[desc.dst.0], true)
                                && reached(FaultSiteKind::Transfer, desc.dst)
                            {
                                // The corrupted payload was dropped before
                                // commit: no destination of this exchange
                                // is updated.
                                return Ok(());
                            }
                        }
                    }
                    exchange.execute();
                }
                NodeKind::Host { container } => container.run_host(),
                NodeKind::Collective { container, .. } => {
                    if stop.is_some_and(|s| s.kind == FaultSiteKind::Link)
                        && self.escape_node == Some(task.node)
                    {
                        // The collective aborted mid-flight: no rank holds
                        // the folded value, so the finalize (and everything
                        // after) never runs.
                        return Ok(());
                    }
                    // Canonical rank-order fold: bit-identical to the
                    // host-staged merge regardless of algorithm.
                    container.reduce_finalize();
                }
            }
        }
        // A stop site that was not reached means the counters drifted from
        // the timing replay, which is a bug; the caller still rolls back,
        // so data stays consistent, but surface it loudly in debug builds.
        debug_assert!(
            stop.is_none(),
            "escape site {stop:?} not found in functional replay"
        );
        Ok(())
    }

    /// Event-driven replay on the persistent worker pool.
    fn replay_functional_parallel(&mut self, plan: &CompiledPlan) -> Result<(), ExecError> {
        let ndev = self.devplan.ndev();
        // Take the pool out of `self` for the duration of the run: the
        // worker closure borrows `self`'s plan data immutably, and this
        // sidesteps both the borrow conflict and the old
        // `expect("pool was just created")`. If a worker panic unwinds
        // through `run`, the pool is dropped and respawned fresh next time.
        let pool = self.pool.take().unwrap_or_else(|| WorkerPool::new(ndev));
        self.func_epoch += 1;
        let epoch = self.func_epoch;
        self.events.clear_poison();

        let graph = plan.graph();
        let devplan: &DevicePlan = &self.devplan;
        let events = &self.events;
        // First structural error reported by a worker; later workers see
        // the poisoned events and abandon their walks.
        let first_error: Mutex<Option<ExecError>> = Mutex::new(None);
        pool.run(|d| {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                walk_device(graph, devplan, events, epoch, d)
            }));
            match result {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    let mut slot = first_error.lock().unwrap_or_else(|p| p.into_inner());
                    slot.get_or_insert(e);
                    drop(slot);
                    // Wake the siblings out of their event waits so the
                    // pool drains instead of deadlocking.
                    events.poison();
                }
                Err(payload) => {
                    events.poison();
                    // Let the pool deliver the payload to the caller.
                    panic::resume_unwind(payload);
                }
            }
        });
        self.pool = Some(pool);
        match first_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Execute the plan `n` times, aggregating the report.
    ///
    /// Individual iteration makespans are recorded and readable via
    /// [`Executor::per_iteration_makespans`] until the next call.
    ///
    /// When tracing, asserts (debug builds) that each iteration emits the
    /// same number of spans — the compiled schedule is replayed verbatim,
    /// so a drifting span count means the executor grew hidden state.
    pub fn execute_iters(&mut self, n: usize) -> ExecReport {
        let mut total = ExecReport::default();
        let mut spans_per_iter: Option<usize> = None;
        // Reserve up front so the steady-state loop never reallocates.
        self.iter_makespans.clear();
        self.iter_makespans.reserve(n);
        for _ in 0..n {
            let before = self.queue.trace().map(|t| t.spans().len());
            let report = self.execute();
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

    /// [`Executor::execute_iters`], stopping at the first failure.
    pub fn try_execute_iters(&mut self, n: usize) -> Result<ExecReport, ExecError> {
        let mut total = ExecReport::default();
        self.iter_makespans.clear();
        self.iter_makespans.reserve(n);
        for _ in 0..n {
            let report = self.try_execute()?;
            self.iter_makespans.push(report.makespan);
            total.accumulate(report);
        }
        Ok(total)
    }
}

/// Whether every compute node's iteration space has real storage, so the
/// kernels can run on data (a node without a space fails at execution).
fn has_real_storage(graph: &Graph) -> bool {
    graph.nodes().iter().all(|n| match &n.kind {
        NodeKind::Compute { container, .. } => container
            .space()
            .map(|s| s.supports_functional())
            .unwrap_or(true),
        _ => true,
    })
}

/// One worker's walk over its device's step list: wait on the event table
/// where the plan says to, execute, signal. A malformed step is reported
/// as an error (the worker stores it and poisons the replay) rather than
/// panicking through the pool.
fn walk_device(
    graph: &Graph,
    dp: &DevicePlan,
    events: &EventSlots,
    epoch: u64,
    d: usize,
) -> Result<(), ExecError> {
    for step in dp.steps(d) {
        for &w in dp.waits_of(step) {
            if !events.wait(w as usize, epoch) {
                // Poisoned: a sibling worker failed and is reporting the
                // root cause; abandon the walk quietly.
                return Ok(());
            }
        }
        let node_id = step.node as usize;
        let node = graph.node(node_id);
        let missing = || ExecError::MissingContainer {
            node: node.name.clone(),
        };
        let malformed = || ExecError::MalformedStep {
            node: node.name.clone(),
        };
        match step.action {
            DevAction::ReduceInit => {
                let c = node.container().ok_or_else(missing)?;
                c.reduce_init();
                events.signal(dp.aux_init(node_id), epoch);
            }
            DevAction::Kernel => {
                match &node.kind {
                    NodeKind::Compute {
                        container, view, ..
                    } => container.run_device(DeviceId(d), *view),
                    _ => return Err(malformed()),
                }
                events.signal(dp.slot(node_id, d), epoch);
            }
            DevAction::HaloPull => {
                match &node.kind {
                    NodeKind::Halo { exchange } => exchange.execute_for_dst(DeviceId(d)),
                    _ => return Err(malformed()),
                }
                events.signal(dp.slot(node_id, d), epoch);
            }
            DevAction::Host => {
                let c = node.container().ok_or_else(missing)?;
                c.run_host();
                events.signal(dp.aux_done(node_id), epoch);
            }
            DevAction::Collective | DevAction::ReduceFinalize => {
                let c = node.container().ok_or_else(missing)?;
                c.reduce_finalize();
                events.signal(dp.aux_done(node_id), epoch);
            }
        }
    }
    Ok(())
}
