//! The public execution types.
//!
//! A [`crate::Skeleton`] runs its compiled plan as two replays per
//! execution. The *virtual-timing replay* (the `timing` module) enqueues
//! every task on the owning stream of the [`neon_sys::QueueSim`] virtual
//! clock: kernels cost `launch + bytes/bandwidth` (roofline), halo
//! transfers cost `latency + bytes/link-bandwidth` per segment on dedicated
//! per-device transfer lanes, host steps synchronize all devices, so every
//! overlap the schedule enables shows up as reduced makespan — this is how
//! the paper's OCC figures are reproduced without hardware. The
//! *functional replay* (the `functional` module) actually runs the compute
//! lambdas over the partition data, serially or on a per-device worker
//! pool ([`FunctionalMode`]).
//!
//! This module holds what those replays are configured with and report:
//! [`HaloPolicy`], [`CommMode`] and [`FunctionalMode`] (fields of
//! [`crate::SkeletonOptions`]), the [`ExecReport`] every execution returns,
//! and the [`ExecError`] a failed one returns instead.

use neon_sys::{DeviceId, FaultSiteKind, PermanentFault, SimTime};

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
    /// the compiled [`crate::DevicePlan`] — cross-task overlap exactly where the
    /// event table allows it, no thread spawns in steady state.
    #[default]
    Parallel,
}

/// A structured execution failure.
///
/// An execution reports malformed plans and injected faults as values
/// instead of panicking: a solver embedding a skeleton can retry,
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
    /// [`crate::Skeleton::per_iteration_makespans`] when the distribution
    /// matters.
    pub fn time_per_execution(&self) -> SimTime {
        if self.executions == 0 {
            SimTime::ZERO
        } else {
            SimTime::from_us(self.makespan.as_us() / self.executions as f64)
        }
    }
}
