//! Failure-injection and contract tests for the Set layer: what happens
//! when user code breaks the rules — conflicting view declarations,
//! out-of-bounds access, panicking kernels, virtual-storage touches.
//! The API must fail loudly and leave no poisoned state behind.

use std::sync::Arc;

use neon_set::{
    Cell, Container, DataView, IterationSpace, ManualRuntime, MemSet, ScalarSet, Span, StorageMode,
    Sweep,
};
use neon_sys::{Backend, DeviceId};

struct Line {
    len: u32,
    devs: usize,
}
impl IterationSpace for Line {
    fn num_partitions(&self) -> usize {
        self.devs
    }
    fn cell_count(&self, _d: DeviceId, view: DataView) -> u64 {
        match view {
            DataView::Standard => self.len as u64,
            DataView::Internal => self.len as u64 - 2,
            DataView::Boundary => 2,
        }
    }
    fn for_each_span(&self, dev: DeviceId, sweep: Sweep, f: &mut dyn FnMut(&Span)) {
        let base = dev.0 as i32 * self.len as i32;
        let mut run = |a: u32, b: u32| f(&Span::new(Cell::new(a, base + a as i32, 0, 0), b - a));
        match sweep.region.owned_view() {
            DataView::Standard => run(0, self.len),
            DataView::Internal => run(1, self.len - 1),
            DataView::Boundary => {
                run(0, 1);
                run(self.len - 1, self.len);
            }
        }
    }
}

fn setup() -> (Backend, Arc<dyn IterationSpace>, MemSet<f64>) {
    let b = Backend::dgx_a100(2);
    let space = Arc::new(Line { len: 8, devs: 2 }) as Arc<dyn IterationSpace>;
    let m = MemSet::<f64>::new(&b, "m", &[8, 8], StorageMode::Real).unwrap();
    (b, space, m)
}

#[test]
fn undeclared_write_read_conflict_panics_at_launch() {
    // Loading the same data as read AND write (instead of read_write)
    // must trip the access tracker when real views are created.
    let (_, space, m) = setup();
    let mc = m.clone();
    let c = Container::compute("bad", space, move |ldr| {
        let r = ldr.read(&mc);
        let w = ldr.write(&mc); // conflicts with the live read view
        Box::new(move |cell: Cell| w.set(cell.idx(), r.get(cell.idx())))
    });
    // Construction (dry run, null views) succeeds — the conflict is a
    // runtime property of real views.
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.run_device(DeviceId(0), DataView::Standard)
    }));
    assert!(err.is_err(), "conflicting views must panic");
    // The tracker recovered: the read guard was dropped during unwind.
    assert!(m.tracker(DeviceId(0)).is_free(), "tracker poisoned");
}

#[test]
fn out_of_bounds_kernel_access_panics_cleanly() {
    let (_, space, m) = setup();
    let mc = m.clone();
    let c = Container::compute("oob", space, move |ldr| {
        let w = ldr.write(&mc);
        Box::new(move |_cell: Cell| w.set(999, 1.0))
    });
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.run_device(DeviceId(0), DataView::Standard)
    }));
    assert!(err.is_err());
    assert!(m.tracker(DeviceId(0)).is_free());
    // The data object remains usable afterwards.
    m.with_part_mut(DeviceId(0), |s| s[0] = 42.0);
    assert_eq!(m.to_host()[0], 42.0);
}

#[test]
fn panicking_kernel_releases_all_leases() {
    let (_, space, m) = setup();
    let s = ScalarSet::<f64>::new(2, "acc", 0.0, |a, b| a + b);
    let (mc, sc) = (m.clone(), s.clone());
    let c = Container::compute("boom", space, move |ldr| {
        let w = ldr.write(&mc);
        let acc = ldr.reduce(&sc);
        Box::new(move |cell: Cell| {
            acc.update(|a| a + 1.0);
            if cell.idx() == 3 {
                panic!("injected kernel failure");
            }
            w.set(cell.idx(), 0.0);
        })
    });
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.run_device(DeviceId(0), DataView::Standard)
    }));
    assert!(err.is_err());
    // Both the field partition and the scalar partial are free again.
    assert!(m.tracker(DeviceId(0)).is_free());
    let v = s.view(DeviceId(0)); // would panic if the lease leaked
    drop(v);
}

#[test]
fn virtual_storage_launch_panics_with_message() {
    let b = Backend::dgx_a100(1);
    let space = Arc::new(Line { len: 8, devs: 1 }) as Arc<dyn IterationSpace>;
    let m = MemSet::<f64>::new(&b, "virt", &[8], StorageMode::Virtual).unwrap();
    let mc = m.clone();
    let c = Container::compute("k", space, move |ldr| {
        let w = ldr.write(&mc);
        Box::new(move |cell: Cell| w.set(cell.idx(), 1.0))
    });
    // Virtual MemSet hands out null views; the write is then out of
    // bounds — loud failure rather than silent no-op.
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.run_device(DeviceId(0), DataView::Standard)
    }));
    assert!(err.is_err());
}

#[test]
fn reduce_without_finalize_leaves_host_value_stale() {
    // Documented lifecycle: partials are only folded by reduce_finalize.
    let (_, space, m) = setup();
    m.from_host(&[1.0; 16]);
    let s = ScalarSet::<f64>::new(2, "sum", 0.0, |a, b| a + b);
    let (mc, sc) = (m.clone(), s.clone());
    let c = Container::compute("sum", space, move |ldr| {
        let r = ldr.read(&mc);
        let acc = ldr.reduce(&sc);
        Box::new(move |cell: Cell| acc.update(|a| a + r.get(cell.idx())))
    });
    s.set_host(-7.0);
    c.reduce_init();
    c.run_device(DeviceId(0), DataView::Standard);
    c.run_device(DeviceId(1), DataView::Standard);
    assert_eq!(s.host_value(), -7.0, "host value untouched before finalize");
    c.reduce_finalize();
    assert_eq!(s.host_value(), 16.0);
}

#[test]
fn manual_runtime_functional_matches_container_direct() {
    let (b, space, m) = setup();
    let mc = m.clone();
    let c = Container::compute("inc", space, move |ldr| {
        let w = ldr.read_write(&mc);
        Box::new(move |cell: Cell| w.set(cell.idx(), w.get(cell.idx()) + 1.0))
    });
    let mut rt = ManualRuntime::new(&b, 1);
    let s0 = rt.stream_set(0);
    rt.launch(&c, DataView::Standard, s0);
    rt.launch(&c, DataView::Standard, s0);
    assert_eq!(m.to_host(), vec![2.0; 16]);
}

#[test]
fn host_container_never_touches_devices() {
    let s = ScalarSet::<f64>::new(4, "x", 0.0, |a, b| a + b);
    let sc = s.clone();
    let c = Container::host("set-x", 4, move |ldr| {
        let w = ldr.scalar_writer(&sc);
        Box::new(move || w.set(9.0))
    });
    assert!(c.space().is_none());
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        c.run_device(DeviceId(0), DataView::Standard)
    }));
    assert!(err.is_err(), "run_device on a host container must panic");
    c.run_host();
    assert_eq!(s.host_value(), 9.0);
}

#[test]
fn zero_cell_views_launch_as_noops() {
    // A 1-device line has no boundary cells in our Line fixture? It does
    // (first/last), so use Internal on a minimal line instead: len 2 →
    // internal is empty.
    let b = Backend::dgx_a100(1);
    let space = Arc::new(Line { len: 2, devs: 1 }) as Arc<dyn IterationSpace>;
    let m = MemSet::<f64>::new(&b, "m", &[2], StorageMode::Real).unwrap();
    let mc = m.clone();
    let c = Container::compute("noop", space, move |ldr| {
        let w = ldr.write(&mc);
        Box::new(move |cell: Cell| w.set(cell.idx(), 5.0))
    });
    c.run_device(DeviceId(0), DataView::Internal);
    assert_eq!(m.to_host(), vec![0.0, 0.0], "internal view is empty");
    c.run_device(DeviceId(0), DataView::Boundary);
    assert_eq!(m.to_host(), vec![5.0, 5.0]);
}
