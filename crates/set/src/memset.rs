//! `MemSet<T>` — the simplest multi-GPU data object.
//!
//! A `MemSet` owns one buffer per device (paper §IV-B1). It registers its
//! footprint with each device's memory ledger, offers a contiguous *host
//! logical view* (`to_host` / `from_host`) and per-partition *local views*
//! ([`RawRead`] / [`RawWrite`]) guarded by access trackers.
//!
//! ## Storage modes
//!
//! * [`StorageMode::Real`] — buffers are actual `Vec<T>`s; kernels can run
//!   functionally.
//! * [`StorageMode::Virtual`] — only the ledger accounting exists. Used by
//!   large benchmark sweeps that exercise the scheduler and performance
//!   model without paying host RAM for 512³ fields. Any attempt to touch
//!   the data panics.
//!
//! ## Safety
//!
//! Partition buffers sit behind `UnsafeCell` so that a compute lambda can
//! hold a writable view as a plain value. Soundness is enforced at runtime:
//! every view creation takes a lease on the partition's
//! [`AccessTracker`], so a second conflicting view panics instead of
//! aliasing. Views bounds-check every access.

use std::cell::UnsafeCell;
use std::sync::Arc;

use neon_sys::{AllocationTicket, Backend, DeviceId, Result};

use crate::access::{AccessTracker, TrackerGuard};
use crate::elem::Elem;
use crate::uid::DataUid;

/// Whether buffers are materialized or accounting-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageMode {
    /// Materialized buffers; functional execution possible.
    #[default]
    Real,
    /// Ledger accounting only; timing-only execution.
    Virtual,
}

struct PartitionStorage<T> {
    data: UnsafeCell<Vec<T>>,
    len: usize,
    tracker: AccessTracker,
    _ticket: AllocationTicket,
}

// SAFETY: access to `data` is mediated by the partition's `AccessTracker`
// (shared/exclusive leases acquired at view creation); views never outlive
// the `Arc`ed storage they point into.
unsafe impl<T: Elem> Send for PartitionStorage<T> {}
unsafe impl<T: Elem> Sync for PartitionStorage<T> {}

struct MemSetInner<T> {
    uid: DataUid,
    name: String,
    mode: StorageMode,
    parts: Vec<PartitionStorage<T>>,
}

/// One buffer per device, with host and partition views.
pub struct MemSet<T: Elem> {
    inner: Arc<MemSetInner<T>>,
}

impl<T: Elem> Clone for MemSet<T> {
    fn clone(&self) -> Self {
        MemSet {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Elem> std::fmt::Debug for MemSet<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemSet")
            .field("uid", &self.inner.uid)
            .field("name", &self.inner.name)
            .field("mode", &self.inner.mode)
            .field(
                "part_lens",
                &self.inner.parts.iter().map(|p| p.len).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl<T: Elem> MemSet<T> {
    /// Allocate a buffer of `sizes[d]` elements on each device `d`.
    ///
    /// Fails with a simulated OOM if a device's ledger capacity would be
    /// exceeded.
    pub fn new(backend: &Backend, name: &str, sizes: &[usize], mode: StorageMode) -> Result<Self> {
        assert_eq!(
            sizes.len(),
            backend.num_devices(),
            "one size per device required"
        );
        let mut parts = Vec::with_capacity(sizes.len());
        for (i, &len) in sizes.iter().enumerate() {
            let dev = DeviceId(i);
            let bytes = (len as u64) * T::BYTES;
            let ticket = backend.ledger(dev).alloc(bytes)?;
            let data = match mode {
                StorageMode::Real => vec![T::default(); len],
                StorageMode::Virtual => Vec::new(),
            };
            parts.push(PartitionStorage {
                data: UnsafeCell::new(data),
                len,
                tracker: AccessTracker::new(),
                _ticket: ticket,
            });
        }
        Ok(MemSet {
            inner: Arc::new(MemSetInner {
                uid: DataUid::fresh(),
                name: name.to_string(),
                mode,
                parts,
            }),
        })
    }

    /// The data object's unique id.
    pub fn uid(&self) -> DataUid {
        self.inner.uid
    }

    /// The data object's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Storage mode.
    pub fn mode(&self) -> StorageMode {
        self.inner.mode
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.inner.parts.len()
    }

    /// Element count of device `d`'s partition.
    pub fn part_len(&self, d: DeviceId) -> usize {
        self.inner.parts[d.0].len
    }

    /// Total element count across partitions.
    pub fn total_len(&self) -> usize {
        self.inner.parts.iter().map(|p| p.len).sum()
    }

    /// The access tracker of device `d`'s partition.
    pub fn tracker(&self, d: DeviceId) -> &AccessTracker {
        &self.inner.parts[d.0].tracker
    }

    fn part(&self, d: DeviceId) -> &PartitionStorage<T> {
        &self.inner.parts[d.0]
    }

    fn assert_real(&self) {
        assert!(
            self.inner.mode == StorageMode::Real,
            "MemSet '{}' has virtual storage; functional access is not available",
            self.inner.name
        );
    }

    /// Acquire a read view of device `d`'s partition.
    pub fn read(&self, d: DeviceId) -> RawRead<T> {
        self.assert_real();
        let p = self.part(d);
        let guard = p.tracker.read(&self.inner.name);
        RawRead {
            ptr: unsafe { (*p.data.get()).as_ptr() },
            len: p.len,
            _guard: Some(guard),
            _keepalive: Some(self.inner.clone()),
        }
    }

    /// Acquire a write view of device `d`'s partition.
    pub fn write(&self, d: DeviceId) -> RawWrite<T> {
        self.assert_real();
        let p = self.part(d);
        let guard = p.tracker.write(&self.inner.name);
        RawWrite {
            ptr: unsafe { (*p.data.get()).as_mut_ptr() },
            len: p.len,
            _guard: Some(guard),
            _keepalive: Some(self.inner.clone()),
        }
    }

    /// A null read view (used during loader dry-runs and virtual storage).
    pub fn null_read(&self) -> RawRead<T> {
        RawRead {
            ptr: std::ptr::null(),
            len: 0,
            _guard: None,
            _keepalive: None,
        }
    }

    /// A null write view (used during loader dry-runs and virtual storage).
    pub fn null_write(&self) -> RawWrite<T> {
        RawWrite {
            ptr: std::ptr::null_mut(),
            len: 0,
            _guard: None,
            _keepalive: None,
        }
    }

    /// Run `f` on an immutable slice of device `d`'s partition.
    pub fn with_part<R>(&self, d: DeviceId, f: impl FnOnce(&[T]) -> R) -> R {
        self.assert_real();
        let p = self.part(d);
        let _guard = p.tracker.read(&self.inner.name);
        f(unsafe { (*p.data.get()).as_slice() })
    }

    /// Run `f` on a mutable slice of device `d`'s partition.
    pub fn with_part_mut<R>(&self, d: DeviceId, f: impl FnOnce(&mut [T]) -> R) -> R {
        self.assert_real();
        let p = self.part(d);
        let _guard = p.tracker.write(&self.inner.name);
        f(unsafe { (*p.data.get()).as_mut_slice() })
    }

    /// Host logical view: all partitions concatenated in device order.
    pub fn to_host(&self) -> Vec<T> {
        self.assert_real();
        let mut out = Vec::with_capacity(self.total_len());
        for d in 0..self.num_partitions() {
            self.with_part(DeviceId(d), |s| out.extend_from_slice(s));
        }
        out
    }

    /// Scatter a contiguous host buffer back into the partitions.
    pub fn from_host(&self, host: &[T]) {
        self.assert_real();
        assert_eq!(host.len(), self.total_len(), "host buffer length mismatch");
        let mut off = 0;
        for d in 0..self.num_partitions() {
            let len = self.part_len(DeviceId(d));
            self.with_part_mut(DeviceId(d), |s| {
                s.copy_from_slice(&host[off..off + len]);
            });
            off += len;
        }
    }

    /// Copy `len` elements from one partition into another (the functional
    /// side of a halo exchange). No-op for virtual storage.
    pub fn copy_between(
        &self,
        src: DeviceId,
        src_off: usize,
        dst: DeviceId,
        dst_off: usize,
        len: usize,
    ) {
        if self.inner.mode == StorageMode::Virtual {
            return;
        }
        let sp = self.part(src);
        let dp = self.part(dst);
        assert!(src_off + len <= sp.len, "copy_between: source out of range");
        assert!(
            dst_off + len <= dp.len,
            "copy_between: destination out of range"
        );
        let _rg = sp.tracker.read(&self.inner.name);
        // Same-partition copies take a single exclusive lease instead.
        if src == dst {
            drop(_rg);
            let _wg = dp.tracker.write(&self.inner.name);
            unsafe {
                let base = (*dp.data.get()).as_mut_ptr();
                std::ptr::copy(base.add(src_off), base.add(dst_off), len);
            }
        } else {
            let _wg = dp.tracker.write(&self.inner.name);
            unsafe {
                let s = (*sp.data.get()).as_ptr().add(src_off);
                let d = (*dp.data.get()).as_mut_ptr().add(dst_off);
                std::ptr::copy_nonoverlapping(s, d, len);
            }
        }
    }

    /// [`MemSet::copy_between`] without acquiring tracker leases.
    ///
    /// The access tracker leases whole partitions, but a halo copy only
    /// reads the source's owned boundary cells and only writes the
    /// destination's halo layers — ranges that are disjoint from what an
    /// overlapping *internal*-view kernel touches. The event-driven
    /// executor's dependency table orders every genuinely conflicting
    /// access, so it uses this lease-free path to allow the overlap the
    /// whole-partition lease would falsely reject. The serial reference
    /// path keeps the fully tracked [`MemSet::copy_between`]; parity tests
    /// compare the two bit for bit.
    ///
    /// Callers must guarantee (e.g. via an event table) that no concurrent
    /// access overlaps the copied ranges. Distinct partitions required.
    pub fn copy_between_untracked(
        &self,
        src: DeviceId,
        src_off: usize,
        dst: DeviceId,
        dst_off: usize,
        len: usize,
    ) {
        if self.inner.mode == StorageMode::Virtual {
            return;
        }
        assert_ne!(src, dst, "copy_between_untracked: partitions must differ");
        let sp = self.part(src);
        let dp = self.part(dst);
        assert!(src_off + len <= sp.len, "copy_between: source out of range");
        assert!(
            dst_off + len <= dp.len,
            "copy_between: destination out of range"
        );
        unsafe {
            let s = (*sp.data.get()).as_ptr().add(src_off);
            let d = (*dp.data.get()).as_mut_ptr().add(dst_off);
            std::ptr::copy_nonoverlapping(s, d, len);
        }
    }
}

/// Immutable, bounds-checked view of one partition.
pub struct RawRead<T> {
    ptr: *const T,
    len: usize,
    _guard: Option<TrackerGuard>,
    _keepalive: Option<Arc<MemSetInner<T>>>,
}

// SAFETY: the view's partition is leased via the tracker; `T: Elem` is
// `Send + Sync`, and the pointee is kept alive by `_keepalive`.
unsafe impl<T: Elem> Send for RawRead<T> {}

impl<T: Elem> RawRead<T> {
    /// Element `i` of the partition.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        assert!(
            i < self.len,
            "read index {i} out of bounds (len {})",
            self.len
        );
        unsafe { *self.ptr.add(i) }
    }

    /// Number of elements visible.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty (true for null views).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole partition as a slice (empty for null views).
    ///
    /// What the Domain layer's lanes are cut from: a field view sub-slices
    /// this once per span (`FieldRead::lanes` in `neon-domain`), so a span
    /// kernel pays the storage bounds check once per run, as the
    /// slice-index check, and loops over a `&[T]` the optimizer can
    /// vectorize.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        if self.ptr.is_null() {
            &[]
        } else {
            // SAFETY: ptr/len describe the leased partition buffer, kept
            // alive by `_keepalive`; the tracker lease guarantees no
            // aliasing writer while `self` is live.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }
}

/// Mutable, bounds-checked view of one partition.
///
/// `set` takes `&self`: the exclusive tracker lease guarantees this view is
/// the only live access to the partition, and each view is used by a single
/// device thread.
pub struct RawWrite<T> {
    ptr: *mut T,
    len: usize,
    _guard: Option<TrackerGuard>,
    _keepalive: Option<Arc<MemSetInner<T>>>,
}

// SAFETY: see `RawRead`; exclusivity is enforced by the tracker lease.
unsafe impl<T: Elem> Send for RawWrite<T> {}

impl<T: Elem> RawWrite<T> {
    /// Element `i` of the partition.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        assert!(
            i < self.len,
            "read index {i} out of bounds (len {})",
            self.len
        );
        unsafe { *self.ptr.add(i) }
    }

    /// Store `v` at element `i`.
    #[inline]
    pub fn set(&self, i: usize, v: T) {
        assert!(
            i < self.len,
            "write index {i} out of bounds (len {})",
            self.len
        );
        unsafe { *self.ptr.add(i) = v }
    }

    /// Number of elements visible.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty (true for null views).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole partition as a mutable slice (empty for null views).
    ///
    /// Counterpart of [`RawRead::as_slice`]; writable lanes are cut from
    /// it.
    /// Takes `&mut self` even though `set` takes `&self`: a slice borrow
    /// must be unique for its lifetime, and the exclusive tracker lease
    /// only guarantees exclusivity *between* views, not within one. That
    /// is why span kernels are `FnMut` and hold their write views mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        if self.ptr.is_null() {
            &mut []
        } else {
            // SAFETY: ptr/len describe the exclusively leased partition
            // buffer (kept alive by `_keepalive`); `&mut self` makes this
            // the only live borrow through the view.
            unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
        }
    }
}

impl<T: Elem> crate::loader::Loadable for MemSet<T> {
    type ReadView = RawRead<T>;
    type StencilView = RawRead<T>;
    type WriteView = RawWrite<T>;

    fn data_uid(&self) -> DataUid {
        self.uid()
    }
    fn data_name(&self) -> String {
        self.name().to_string()
    }
    fn bytes_per_cell(&self) -> u64 {
        T::BYTES
    }
    fn halo_exchange(&self) -> Option<Arc<dyn crate::container::HaloExchange>> {
        None
    }
    fn state_handle(&self) -> Option<Arc<dyn crate::checkpoint::StateHandle>> {
        Some(Arc::new(self.clone()))
    }
    fn make_read_view(&self, dev: DeviceId, null: bool) -> Self::ReadView {
        if null || self.mode() == StorageMode::Virtual {
            self.null_read()
        } else {
            self.read(dev)
        }
    }
    fn make_stencil_view(&self, dev: DeviceId, null: bool) -> Self::StencilView {
        self.make_read_view(dev, null)
    }
    fn make_write_view(&self, dev: DeviceId, null: bool) -> Self::WriteView {
        if null || self.mode() == StorageMode::Virtual {
            self.null_write()
        } else {
            self.write(dev)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> Backend {
        Backend::dgx_a100(2)
    }

    #[test]
    fn alloc_and_host_round_trip() {
        let b = backend();
        let m = MemSet::<f64>::new(&b, "m", &[3, 2], StorageMode::Real).unwrap();
        assert_eq!(m.total_len(), 5);
        m.from_host(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(m.to_host(), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        m.with_part(DeviceId(1), |s| assert_eq!(s, &[4.0, 5.0]));
    }

    #[test]
    fn ledger_accounts_bytes() {
        let b = backend();
        let before = b.ledger(DeviceId(0)).in_use();
        {
            let _m = MemSet::<f64>::new(&b, "m", &[100, 100], StorageMode::Real).unwrap();
            assert_eq!(b.ledger(DeviceId(0)).in_use(), before + 800);
        }
        assert_eq!(b.ledger(DeviceId(0)).in_use(), before);
    }

    #[test]
    fn virtual_storage_accounts_but_rejects_access() {
        let b = backend();
        let m = MemSet::<f64>::new(&b, "m", &[1000, 1000], StorageMode::Virtual).unwrap();
        assert_eq!(b.ledger(DeviceId(0)).in_use(), 8000);
        assert_eq!(m.part_len(DeviceId(0)), 1000);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.to_host()));
        assert!(r.is_err(), "virtual access should panic");
    }

    #[test]
    fn oom_on_overcommit() {
        let b = backend();
        // 40 GB capacity per device; ask for 6G f64 elements = 48 GB.
        let err = MemSet::<f64>::new(&b, "big", &[6_000_000_000, 1], StorageMode::Virtual);
        assert!(err.is_err());
    }

    #[test]
    fn raw_views_read_write() {
        let b = backend();
        let m = MemSet::<i32>::new(&b, "m", &[4, 4], StorageMode::Real).unwrap();
        {
            let w = m.write(DeviceId(0));
            w.set(0, 7);
            w.set(3, 9);
            assert_eq!(w.get(0), 7);
        }
        let r = m.read(DeviceId(0));
        assert_eq!(r.get(0), 7);
        assert_eq!(r.get(3), 9);
        assert_eq!(r.get(1), 0);
    }

    #[test]
    #[should_panic(expected = "access conflict")]
    fn conflicting_views_panic() {
        let b = backend();
        let m = MemSet::<i32>::new(&b, "m", &[4, 4], StorageMode::Real).unwrap();
        let _w = m.write(DeviceId(0));
        let _r = m.read(DeviceId(0));
    }

    #[test]
    fn views_on_distinct_devices_coexist() {
        let b = backend();
        let m = MemSet::<i32>::new(&b, "m", &[4, 4], StorageMode::Real).unwrap();
        let _w0 = m.write(DeviceId(0));
        let _w1 = m.write(DeviceId(1));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_bounds_checked() {
        let b = backend();
        let m = MemSet::<i32>::new(&b, "m", &[4, 4], StorageMode::Real).unwrap();
        let r = m.read(DeviceId(0));
        r.get(4);
    }

    #[test]
    fn copy_between_moves_halo_data() {
        let b = backend();
        let m = MemSet::<f64>::new(&b, "m", &[4, 4], StorageMode::Real).unwrap();
        m.with_part_mut(DeviceId(0), |s| s.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]));
        // Send dev0's last two elements into dev1's first two slots.
        m.copy_between(DeviceId(0), 2, DeviceId(1), 0, 2);
        m.with_part(DeviceId(1), |s| assert_eq!(s, &[3.0, 4.0, 0.0, 0.0]));
    }

    #[test]
    fn copy_between_same_device_overlapping() {
        let b = backend();
        let m = MemSet::<i32>::new(&b, "m", &[4, 4], StorageMode::Real).unwrap();
        m.with_part_mut(DeviceId(0), |s| s.copy_from_slice(&[1, 2, 3, 4]));
        m.copy_between(DeviceId(0), 0, DeviceId(0), 1, 3);
        m.with_part(DeviceId(0), |s| assert_eq!(s, &[1, 1, 2, 3]));
    }

    #[test]
    fn null_views_are_empty() {
        let b = backend();
        let m = MemSet::<f64>::new(&b, "m", &[4, 4], StorageMode::Real).unwrap();
        let r = m.null_read();
        assert!(r.is_empty());
        let w = m.null_write();
        assert!(w.is_empty());
        // Null views take no lease:
        let _w2 = m.write(DeviceId(0));
    }

    #[test]
    fn guards_release_on_view_drop() {
        let b = backend();
        let m = MemSet::<f64>::new(&b, "m", &[4, 4], StorageMode::Real).unwrap();
        drop(m.write(DeviceId(0)));
        drop(m.read(DeviceId(0)));
        assert!(m.tracker(DeviceId(0)).is_free());
    }
}
