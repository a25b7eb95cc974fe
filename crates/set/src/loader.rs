//! The `Loader` — explicit access declaration, Neon's answer to the
//! dependency-graph challenge.
//!
//! As a library (not a compiler), Neon cannot parse a kernel to discover
//! which data it touches. Instead, the *loading lambda* of every container
//! receives a [`Loader`] and explicitly extracts partition-local views from
//! each multi-GPU data object, declaring the access mode (read / write /
//! read-write) and compute pattern (map / stencil / reduce) in the process
//! (paper §IV-B2/3). The loader records these [`AccessRecord`]s; the
//! Skeleton layer turns them into a data dependency graph.
//!
//! A loader runs in one of two modes:
//!
//! * **recording** (dry-run) — at container construction: records accesses
//!   and hands out *null* views that must not be dereferenced; the returned
//!   compute lambda is dropped immediately.
//! * **execution** — at launch time, once per device: hands out real views
//!   for that device's partition.

use std::sync::Arc;

use neon_sys::DeviceId;

use crate::cell::DataView;
use crate::checkpoint::StateHandle;
use crate::container::HaloExchange;
use crate::elem::Elem;
use crate::scalar::{ScalarSet, ScalarView};
use crate::uid::DataUid;

/// Declared access mode for a data object within a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Read only.
    Read,
    /// Write only (previous contents may be fully overwritten).
    Write,
    /// Read and write (e.g. `y ← a·x + y`).
    ReadWrite,
}

impl AccessMode {
    /// Whether the mode reads the previous contents.
    pub fn reads(self) -> bool {
        matches!(self, AccessMode::Read | AccessMode::ReadWrite)
    }

    /// Whether the mode writes.
    pub fn writes(self) -> bool {
        matches!(self, AccessMode::Write | AccessMode::ReadWrite)
    }
}

/// Declared compute pattern for a data object within a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ComputePattern {
    /// Cell-local access.
    Map,
    /// Neighbourhood access — requires coherent halos.
    Stencil,
    /// Reduction into a scalar.
    Reduce,
}

/// Reduce lifecycle hooks carried by reduce access records.
#[derive(Clone)]
pub struct ReduceHooks {
    /// Reset partials to the identity (run before the first sub-launch).
    pub init: Arc<dyn Fn() + Send + Sync>,
    /// Fold partials into the host value (run after the last sub-launch).
    pub finalize: Arc<dyn Fn() + Send + Sync>,
}

impl std::fmt::Debug for ReduceHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReduceHooks")
    }
}

/// One declared access of a container.
#[derive(Clone)]
pub struct AccessRecord {
    /// Identity of the multi-GPU data object.
    pub uid: DataUid,
    /// Its name (diagnostics). Shared: composing containers copies
    /// records, not names.
    pub name: Arc<str>,
    /// Declared access mode.
    pub mode: AccessMode,
    /// Declared compute pattern.
    pub pattern: ComputePattern,
    /// Bytes this access reads per iterated cell (performance model).
    pub read_bytes_per_cell: u64,
    /// Bytes this access writes per iterated cell.
    pub write_bytes_per_cell: u64,
    /// Halo-exchange implementation, present for stencil reads of fields.
    pub halo: Option<Arc<dyn HaloExchange>>,
    /// The field's halo-exchange implementation regardless of pattern —
    /// recorded for *every* access of a field that has one, unlike `halo`
    /// which only stencil reads carry. The temporal-fuse pass uses this to
    /// refresh ghost copies of fields a super-step reads cell-locally
    /// (e.g. a Jacobi right-hand side): ghost-zone recompute evaluates map
    /// reads at ghost cells too, so their halo copies must be coherent.
    /// Downstream passes that key on `halo` are unaffected.
    pub field_exchange: Option<Arc<dyn HaloExchange>>,
    /// Reduce lifecycle hooks, present for reduce accesses.
    pub reduce_hooks: Option<ReduceHooks>,
    /// Checkpoint capture handle, present for written objects (the
    /// self-healing executor snapshots these for rollback).
    pub state: Option<Arc<dyn StateHandle>>,
}

impl std::fmt::Debug for AccessRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AccessRecord")
            .field("uid", &self.uid)
            .field("name", &self.name)
            .field("mode", &self.mode)
            .field("pattern", &self.pattern)
            .field("read_bytes_per_cell", &self.read_bytes_per_cell)
            .field("write_bytes_per_cell", &self.write_bytes_per_cell)
            .field("has_halo", &self.halo.is_some())
            .field("has_field_exchange", &self.field_exchange.is_some())
            .field("has_state", &self.state.is_some())
            .finish()
    }
}

/// A data object that can be loaded into a container through a [`Loader`].
///
/// Implemented by `MemSet`, fields (in `neon-domain`) and any user data
/// structure that wants to participate in dependency analysis.
pub trait Loadable {
    /// Read view type handed to compute lambdas.
    type ReadView: Send + 'static;
    /// Stencil (neighbourhood read) view type.
    type StencilView: Send + 'static;
    /// Write view type.
    type WriteView: Send + 'static;

    /// Identity for dependency analysis.
    fn data_uid(&self) -> DataUid;
    /// Name for diagnostics.
    fn data_name(&self) -> String;
    /// Bytes one cell-iteration of this data object moves (per access).
    fn bytes_per_cell(&self) -> u64;
    /// Bytes a *stencil* access moves per cell (may exceed
    /// [`Loadable::bytes_per_cell`], e.g. sparse connectivity traffic).
    fn stencil_bytes_per_cell(&self) -> u64 {
        self.bytes_per_cell()
    }
    /// The halo-exchange implementation (only fields on partitioned grids
    /// have one).
    fn halo_exchange(&self) -> Option<Arc<dyn HaloExchange>>;
    /// A checkpoint capture handle for this object's state (attached to
    /// write accesses so the self-healing executor can snapshot the write
    /// set). `None` opts the object out of checkpointing.
    fn state_handle(&self) -> Option<Arc<dyn StateHandle>> {
        None
    }

    /// Create the read view for `dev` (`null` for dry runs).
    fn make_read_view(&self, dev: DeviceId, null: bool) -> Self::ReadView;
    /// Create the stencil view for `dev` (`null` for dry runs).
    fn make_stencil_view(&self, dev: DeviceId, null: bool) -> Self::StencilView;
    /// Create the write view for `dev` (`null` for dry runs).
    fn make_write_view(&self, dev: DeviceId, null: bool) -> Self::WriteView;
}

enum LoaderState<'a> {
    Recording { records: &'a mut Vec<AccessRecord> },
    Executing { dev: DeviceId },
}

/// Hands partition-local views to loading lambdas and records accesses.
pub struct Loader<'a> {
    state: LoaderState<'a>,
    n_devices: usize,
    view: DataView,
}

impl<'a> Loader<'a> {
    /// A dry-run loader that appends into `records`.
    pub fn for_recording(records: &'a mut Vec<AccessRecord>, n_devices: usize) -> Self {
        Loader {
            state: LoaderState::Recording { records },
            n_devices,
            view: DataView::Standard,
        }
    }

    /// An execution loader for device `dev` launching `view`.
    pub fn for_execution(dev: DeviceId, n_devices: usize, view: DataView) -> Self {
        Loader {
            state: LoaderState::Executing { dev },
            n_devices,
            view,
        }
    }

    /// Whether this is a dry run.
    pub fn is_recording(&self) -> bool {
        matches!(self.state, LoaderState::Recording { .. })
    }

    /// The device this loader serves (device 0 during dry runs — the
    /// loader hides the SPMD nature of the container, like an MPI rank).
    pub fn device(&self) -> DeviceId {
        match &self.state {
            LoaderState::Recording { .. } => DeviceId(0),
            LoaderState::Executing { dev } => *dev,
        }
    }

    /// Number of devices in the launch.
    pub fn num_devices(&self) -> usize {
        self.n_devices
    }

    /// The data view of the current launch.
    pub fn view(&self) -> DataView {
        self.view
    }

    /// Append the record `make` builds — during a dry run only. At launch
    /// time nothing is built, so loading a view costs no name `String`,
    /// no hook `Arc`s: a launch's loader calls stay off the heap.
    fn record(&mut self, make: impl FnOnce() -> AccessRecord) {
        if let LoaderState::Recording { records } = &mut self.state {
            records.push(make());
        }
    }

    /// The record of a cell-local or neighbourhood access to `d`. Every
    /// access of a field carries its exchange as `field_exchange`; only a
    /// stencil read needs it run (`halo`), only a write is checkpointed.
    fn field_record<L: Loadable>(d: &L, mode: AccessMode, pattern: ComputePattern) -> AccessRecord {
        let stencil = pattern == ComputePattern::Stencil;
        let field_exchange = d.halo_exchange();
        AccessRecord {
            uid: d.data_uid(),
            name: d.data_name().into(),
            mode,
            pattern,
            read_bytes_per_cell: match (mode.reads(), stencil) {
                (false, _) => 0,
                (true, false) => d.bytes_per_cell(),
                (true, true) => d.stencil_bytes_per_cell(),
            },
            write_bytes_per_cell: if mode.writes() { d.bytes_per_cell() } else { 0 },
            halo: if stencil {
                field_exchange.clone()
            } else {
                None
            },
            field_exchange,
            reduce_hooks: None,
            state: if mode.writes() {
                d.state_handle()
            } else {
                None
            },
        }
    }

    /// The record of a scalar access that moves no per-cell bytes.
    fn scalar_record<T: Elem>(
        s: &ScalarSet<T>,
        mode: AccessMode,
        pattern: ComputePattern,
    ) -> AccessRecord {
        AccessRecord {
            uid: s.uid(),
            name: s.name().into(),
            mode,
            pattern,
            read_bytes_per_cell: 0,
            write_bytes_per_cell: 0,
            halo: None,
            field_exchange: None,
            reduce_hooks: None,
            state: if mode.writes() {
                Some(Arc::new(s.clone()) as Arc<dyn StateHandle>)
            } else {
                None
            },
        }
    }

    /// Load a cell-local read view (map pattern).
    pub fn read<L: Loadable>(&mut self, d: &L) -> L::ReadView {
        self.record(|| Self::field_record(d, AccessMode::Read, ComputePattern::Map));
        d.make_read_view(self.device(), self.is_recording())
    }

    /// Load a neighbourhood read view (stencil pattern).
    ///
    /// Declaring a stencil read is what makes the Skeleton insert a halo
    /// update (and flags the container node as *incoherent*, paper §V-A).
    pub fn read_stencil<L: Loadable>(&mut self, d: &L) -> L::StencilView {
        self.record(|| Self::field_record(d, AccessMode::Read, ComputePattern::Stencil));
        d.make_stencil_view(self.device(), self.is_recording())
    }

    /// Load a cell-local write view.
    pub fn write<L: Loadable>(&mut self, d: &L) -> L::WriteView {
        self.record(|| Self::field_record(d, AccessMode::Write, ComputePattern::Map));
        d.make_write_view(self.device(), self.is_recording())
    }

    /// Load a cell-local read-write view (e.g. AXPY's `y`).
    ///
    /// Costs two accesses' worth of bytes (a load and a store per cell).
    pub fn read_write<L: Loadable>(&mut self, d: &L) -> L::WriteView {
        self.record(|| Self::field_record(d, AccessMode::ReadWrite, ComputePattern::Map));
        d.make_write_view(self.device(), self.is_recording())
    }

    /// Load a reduction accumulator view for this device.
    pub fn reduce<T: Elem>(&mut self, s: &ScalarSet<T>) -> ScalarView<T> {
        self.record(|| {
            let (s_init, s_fin) = (s.clone(), s.clone());
            AccessRecord {
                reduce_hooks: Some(ReduceHooks {
                    init: Arc::new(move || s_init.init_partials()),
                    finalize: Arc::new(move || s_fin.finalize()),
                }),
                ..Self::scalar_record(s, AccessMode::Write, ComputePattern::Reduce)
            }
        });
        s.view(self.device())
    }

    /// Read the current host value of a scalar (e.g. CG's `alpha` inside a
    /// map container). Recorded as a read dependency on the scalar.
    pub fn scalar<T: Elem>(&mut self, s: &ScalarSet<T>) -> T {
        self.record(|| Self::scalar_record(s, AccessMode::Read, ComputePattern::Map));
        s.host_value()
    }

    /// A deferred host-side reader of a scalar (host containers).
    pub fn scalar_reader<T: Elem>(&mut self, s: &ScalarSet<T>) -> ScalarReader<T> {
        self.record(|| Self::scalar_record(s, AccessMode::Read, ComputePattern::Map));
        ScalarReader { set: s.clone() }
    }

    /// A deferred host-side writer of a scalar (host containers).
    pub fn scalar_writer<T: Elem>(&mut self, s: &ScalarSet<T>) -> ScalarWriter<T> {
        self.record(|| Self::scalar_record(s, AccessMode::Write, ComputePattern::Map));
        ScalarWriter { set: s.clone() }
    }
}

/// Deferred host read of a [`ScalarSet`].
pub struct ScalarReader<T: Elem> {
    set: ScalarSet<T>,
}

impl<T: Elem> ScalarReader<T> {
    /// The scalar's current host value.
    pub fn get(&self) -> T {
        self.set.host_value()
    }
}

/// Deferred host write of a [`ScalarSet`].
pub struct ScalarWriter<T: Elem> {
    set: ScalarSet<T>,
}

impl<T: Elem> ScalarWriter<T> {
    /// Overwrite the scalar's host value.
    pub fn set(&self, v: T) {
        self.set.set_host(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memset::{MemSet, StorageMode};
    use neon_sys::Backend;

    #[test]
    fn recording_collects_access_records() {
        let b = Backend::dgx_a100(2);
        let x = MemSet::<f64>::new(&b, "x", &[4, 4], StorageMode::Real).unwrap();
        let y = MemSet::<f64>::new(&b, "y", &[4, 4], StorageMode::Real).unwrap();
        let mut recs = Vec::new();
        {
            let mut ldr = Loader::for_recording(&mut recs, 2);
            assert!(ldr.is_recording());
            let _xr = ldr.read(&x);
            let _yw = ldr.read_write(&y);
        }
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].uid, x.uid());
        assert_eq!(recs[0].mode, AccessMode::Read);
        assert_eq!(recs[1].mode, AccessMode::ReadWrite);
        assert_eq!(recs[1].read_bytes_per_cell, 8);
        assert_eq!(recs[1].write_bytes_per_cell, 8);
    }

    #[test]
    fn recording_views_are_null_and_take_no_lease() {
        let b = Backend::dgx_a100(1);
        let x = MemSet::<f64>::new(&b, "x", &[4], StorageMode::Real).unwrap();
        let mut recs = Vec::new();
        let mut ldr = Loader::for_recording(&mut recs, 1);
        let v = ldr.read(&x);
        assert!(v.is_empty());
        assert!(x.tracker(DeviceId(0)).is_free());
    }

    #[test]
    fn execution_views_are_real() {
        let b = Backend::dgx_a100(2);
        let x = MemSet::<f64>::new(&b, "x", &[4, 4], StorageMode::Real).unwrap();
        x.from_host(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        let mut ldr = Loader::for_execution(DeviceId(1), 2, DataView::Standard);
        assert!(!ldr.is_recording());
        assert_eq!(ldr.device(), DeviceId(1));
        let v = ldr.read(&x);
        assert_eq!(v.get(0), 5.0);
    }

    #[test]
    fn stencil_read_recorded_as_stencil() {
        let b = Backend::dgx_a100(1);
        let x = MemSet::<f64>::new(&b, "x", &[4], StorageMode::Real).unwrap();
        let mut recs = Vec::new();
        let mut ldr = Loader::for_recording(&mut recs, 1);
        let _ = ldr.read_stencil(&x);
        assert_eq!(recs[0].pattern, ComputePattern::Stencil);
    }

    #[test]
    fn reduce_records_hooks() {
        let s = ScalarSet::<f64>::new(2, "dot", 0.0, |a, b| a + b);
        let mut recs = Vec::new();
        {
            let mut ldr = Loader::for_recording(&mut recs, 2);
            let _v = ldr.reduce(&s);
        }
        assert_eq!(recs[0].pattern, ComputePattern::Reduce);
        let hooks = recs[0].reduce_hooks.clone().unwrap();
        s.view(DeviceId(0)).set(5.0);
        (hooks.init)();
        assert_eq!(s.partial(DeviceId(0)), 0.0);
        s.view(DeviceId(0)).set(2.0);
        s.view(DeviceId(1)).set(3.0);
        (hooks.finalize)();
        assert_eq!(s.host_value(), 5.0);
    }

    #[test]
    fn scalar_read_returns_host_value() {
        let s = ScalarSet::<f64>::new(1, "alpha", 0.0, |a, b| a + b);
        s.set_host(2.5);
        let mut recs = Vec::new();
        let mut ldr = Loader::for_recording(&mut recs, 1);
        let v = ldr.scalar(&s);
        assert_eq!(v, 2.5);
        assert_eq!(recs[0].mode, AccessMode::Read);
    }

    #[test]
    fn scalar_reader_writer_defer() {
        let a = ScalarSet::<f64>::new(1, "a", 0.0, |x, y| x + y);
        let bscalar = ScalarSet::<f64>::new(1, "b", 0.0, |x, y| x + y);
        let mut recs = Vec::new();
        let mut ldr = Loader::for_recording(&mut recs, 1);
        let r = ldr.scalar_reader(&a);
        let w = ldr.scalar_writer(&bscalar);
        a.set_host(4.0);
        w.set(r.get() * 2.0);
        assert_eq!(bscalar.host_value(), 8.0);
        assert_eq!(recs.len(), 2);
    }

    #[test]
    fn access_mode_predicates() {
        assert!(AccessMode::Read.reads());
        assert!(!AccessMode::Read.writes());
        assert!(AccessMode::Write.writes());
        assert!(!AccessMode::Write.reads());
        assert!(AccessMode::ReadWrite.reads() && AccessMode::ReadWrite.writes());
    }
}
