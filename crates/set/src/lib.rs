//! # neon-set — the Set abstraction
//!
//! The second layer of the Neon programming model (paper §IV-B). A
//! multi-device system is modelled by *parameterizing every mechanism over
//! the available devices*: data and kernels are vectors whose i-th entry
//! belongs to the i-th device.
//!
//! This crate provides:
//!
//! * [`MemSet`] — the simplest multi-GPU data object: one buffer per device
//!   with a contiguous host logical view and per-partition local views.
//! * [`Container`] — the multi-GPU kernel concept: a *loading lambda* runs
//!   once per device, declares its data accesses through a [`Loader`]
//!   (solving the paper's *dependency-graph challenge* without a compiler),
//!   and returns the per-device *compute lambda*.
//! * [`ScalarSet`] — a reduction target: one partial accumulator per device
//!   plus a host value, with a user-supplied associative combine operator.
//! * [`access`] — runtime read/write tracking per partition, the safety net
//!   that replaces C++'s "trust the user" with a checked own-compute rule.
//! * [`cell`] — the index space vocabulary shared with the Domain layer:
//!   [`Cell`], [`Span`], [`DataView`] and the [`IterationSpace`] trait.
//! * [`manual`] — the Set level's parametric run-time model: hand-driven
//!   multi-GPU streams and events for launching containers without the
//!   Skeleton's automation (paper §IV-B4).

pub mod access;
pub mod cell;
pub mod checkpoint;
pub mod container;
pub mod dataset;
pub mod elem;
pub mod layout;
pub mod loader;
pub mod manual;
pub mod memset;
pub mod scalar;
pub mod signature;
pub mod uid;

pub use access::{AccessConflict, AccessTracker, TrackerGuard};
pub use cell::{Cell, DataView, IterationSpace, Region, Span, Sweep};
pub use checkpoint::{Checkpoint, StateBlob, StateHandle};
pub use container::{ComputeFn, HostFn, KernelFn, SpanFn};
pub use container::{Container, ContainerKind, HaloDescriptor, HaloExchange};
pub use dataset::DataSet;
pub use elem::Elem;
pub use layout::MemLayout;
pub use loader::{
    AccessMode, AccessRecord, ComputePattern, Loadable, Loader, ReduceHooks, ScalarReader,
    ScalarWriter,
};
pub use manual::{EventSetId, ManualRuntime, StreamSetId};
pub use memset::{MemSet, RawRead, RawWrite, StorageMode};
pub use scalar::{ScalarSet, ScalarView};
pub use signature::{sequence_signature, signature_over_roles, uid_roles, UidRoles};
pub use uid::DataUid;
