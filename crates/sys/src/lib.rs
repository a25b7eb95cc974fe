//! # neon-sys — the System abstraction
//!
//! The lowest layer of the Neon programming model (paper §IV-A). It shields
//! the rest of the stack from architecture- and hardware-specific mechanisms
//! by providing:
//!
//! * **Device models** ([`device::DeviceModel`]) — simulated accelerators with
//!   a roofline-style performance model (memory bandwidth, peak FLOP/s,
//!   kernel-launch overhead) and a memory capacity.
//! * **Interconnect topologies** ([`topology::Topology`]) — NVLink- and
//!   PCIe-class link models used to time inter-device transfers.
//! * **Memory management** ([`memory::MemoryLedger`]) — per-device allocation
//!   accounting with out-of-memory detection, mirroring a real allocator.
//! * **A queue-based runtime model** ([`queue::QueueSim`]) — virtual-clock
//!   streams and events with CUDA-like semantics (`record`, `wait`,
//!   `synchronize`), which the Skeleton layer schedules onto.
//! * **Execution traces** ([`trace::Trace`]) — per-stream span recording,
//!   exportable as Chrome `about:tracing` JSON.
//!
//! ## Why simulated devices?
//!
//! This crate reproduces the *runtime* behaviour that the Neon paper's
//! orchestration layer exercises — asynchronous queues, cross-device events,
//! transfer/kernel overlap — without requiring CUDA hardware. Kernels still
//! execute functionally (on host threads, one per device) while durations are
//! produced by the analytic model, so scheduling decisions such as
//! overlapping computation and communication (OCC) have observable,
//! reproducible effects on the simulated makespan.

pub mod backend;
pub mod clock;
pub mod device;
pub mod error;
pub mod fault;
pub mod hash;
pub mod memory;
pub mod pool;
pub mod queue;
pub mod topology;
pub mod trace;

pub use backend::{Backend, BackendKind};
pub use clock::SimTime;
pub use device::{DeviceId, DeviceKind, DeviceModel};
pub use error::{NeonSysError, Result};
pub use fault::{
    FaultInjector, FaultPlan, FaultSite, FaultSiteKind, FaultSpec, FaultStats, FaultVerdict,
    LinkEvent, PermanentFault, RetryPolicy,
};
pub use hash::StableHasher;
pub use memory::{AllocationTicket, MemoryLedger};
pub use pool::{host_cores, WorkerPool};
pub use queue::{EventId, QueueSim, StreamId};
pub use topology::{LinkKind, LinkModel, LinkResourceId, Topology};
pub use trace::{SpanKind, Trace, TraceSpan};
