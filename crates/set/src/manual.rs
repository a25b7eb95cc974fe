//! Manual multi-GPU runtime — the Set level's parametric run-time model
//! (paper §IV-B4).
//!
//! The Set abstraction extends the System's queue-based model to multiple
//! devices: a *multi-GPU Stream* is a vector with one stream per device,
//! a *multi-GPU Event* one event per device. "At this abstraction level,
//! users can manually manage multi-GPU Streams and multi-GPU Events to
//! manage the execution of Containers; higher levels in Neon will manage
//! them automatically."
//!
//! [`ManualRuntime`] is that lower level: launch containers on chosen
//! stream sets, run halo exchanges, record/wait event sets, synchronize —
//! with the same virtual-clock timing model the Skeleton executor uses,
//! but every ordering decision in the user's hands. It exists both for
//! paper fidelity and as the ground truth the Skeleton's automation is
//! tested against.

use neon_sys::{Backend, DeviceId, EventId, QueueSim, Result, SimTime, SpanKind, StreamId, Trace};

use crate::cell::DataView;
use crate::container::{Container, HaloExchange};

/// Handle to a multi-GPU stream (one queue per device).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSetId(usize);

/// Handle to a multi-GPU event (one event per device).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSetId(usize);

/// A hand-driven multi-device queue runtime.
pub struct ManualRuntime {
    backend: Backend,
    queue: QueueSim,
    num_streams: usize,
    /// events[e] = one `EventId` per device.
    events: Vec<Vec<EventId>>,
    functional: bool,
}

impl ManualRuntime {
    /// Create a runtime with `num_streams` multi-GPU streams.
    pub fn new(backend: &Backend, num_streams: usize) -> Self {
        assert!(num_streams >= 1);
        let streams = if backend.concurrent_kernels() {
            num_streams
        } else {
            1
        };
        ManualRuntime {
            backend: backend.clone(),
            queue: QueueSim::new(backend.num_devices(), streams),
            num_streams: streams,
            events: Vec::new(),
            functional: true,
        }
    }

    /// Disable functional execution (timing-only).
    pub fn set_functional(&mut self, on: bool) {
        self.functional = on;
    }

    /// Enable trace recording.
    pub fn enable_trace(&mut self) {
        self.queue.enable_trace();
    }

    /// Take the recorded trace.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.queue.take_trace()
    }

    /// A multi-GPU stream handle (stream `i` on every device).
    pub fn stream_set(&self, i: usize) -> StreamSetId {
        assert!(i < self.num_streams, "stream {i} not allocated");
        StreamSetId(i)
    }

    /// Allocate a fresh multi-GPU event.
    pub fn event_set(&mut self) -> EventSetId {
        let per_dev = (0..self.backend.num_devices())
            .map(|_| self.queue.create_event())
            .collect();
        self.events.push(per_dev);
        EventSetId(self.events.len() - 1)
    }

    /// Launch `container` over `view` on stream set `s` — the manual
    /// version of what the Skeleton executor does per task.
    pub fn launch(&mut self, container: &Container, view: DataView, s: StreamSetId) {
        let space = container
            .space()
            .expect("manual launch requires a compute container")
            .clone();
        let bytes = container.bytes_per_cell();
        let flops = container.flops_per_cell();
        let eff = container.bw_efficiency();
        for d in 0..self.backend.num_devices() {
            let dev = DeviceId(d);
            let cells = space.cell_count(dev, view);
            if cells == 0 {
                continue;
            }
            let dur = self
                .backend
                .device(dev)
                .kernel_time(cells * bytes, cells * flops, eff);
            self.queue.enqueue(
                StreamId::new(dev, s.0),
                dur,
                container.name(),
                SpanKind::Kernel,
            );
        }
        if self.functional && space.supports_functional() {
            if container.is_reduce() {
                container.reduce_init();
            }
            for d in 0..self.backend.num_devices() {
                container.run_device(DeviceId(d), view);
            }
            if container.is_reduce() {
                container.reduce_finalize();
            }
        }
    }

    /// Run a halo exchange with its transfers enqueued on stream set `s`
    /// of each source device.
    pub fn halo_update(&mut self, exchange: &dyn HaloExchange, s: StreamSetId) {
        for desc in exchange.descriptors() {
            let dur = self
                .backend
                .topology()
                .transfer_time(desc.src, desc.dst, desc.bytes);
            // A peer copy must also wait until the destination stream has
            // drained (the data being overwritten may still be in use).
            let earliest = self.queue.now(StreamId::new(desc.dst, s.0));
            self.queue.enqueue_from(
                StreamId::new(desc.src, s.0),
                earliest,
                dur,
                &format!("halo({})", exchange.data_name()),
                SpanKind::Transfer,
            );
        }
        if self.functional {
            exchange.execute();
        }
    }

    /// Record event set `e` on stream set `s` (per device).
    pub fn record(&mut self, s: StreamSetId, e: EventSetId) {
        for d in 0..self.backend.num_devices() {
            let ev = self.events[e.0][d];
            self.queue.record_event(StreamId::new(DeviceId(d), s.0), ev);
        }
    }

    /// Make stream set `s` wait for event set `e` — on **all** devices
    /// (the conservative multi-GPU event semantics of the paper's
    /// Skeleton).
    pub fn wait(&mut self, s: StreamSetId, e: EventSetId) -> Result<()> {
        let ndev = self.backend.num_devices();
        for d in 0..ndev {
            for src in 0..ndev {
                let ev = self.events[e.0][src];
                self.queue.wait_event(StreamId::new(DeviceId(d), s.0), ev)?;
            }
        }
        Ok(())
    }

    /// Global barrier; returns the synchronized time.
    pub fn sync(&mut self) -> SimTime {
        self.queue.sync_all()
    }

    /// The virtual makespan so far.
    pub fn makespan(&self) -> SimTime {
        self.queue.makespan()
    }

    /// The backend this runtime drives.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, IterationSpace, Span, Sweep};
    use crate::memset::{MemSet, StorageMode};
    use std::sync::Arc;

    /// 1-D space, `len` cells per device.
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
            let mut run =
                |a: u32, b: u32| f(&Span::new(Cell::new(a, base + a as i32, 0, 0), b - a));
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
    fn manual_launch_runs_functionally_and_advances_clock() {
        let (b, space, m) = setup();
        let mc = m.clone();
        let c = Container::compute("fill", space, move |ldr| {
            let w = ldr.write(&mc);
            Box::new(move |cell: Cell| w.set(cell.idx(), 3.0))
        });
        let mut rt = ManualRuntime::new(&b, 2);
        let s0 = rt.stream_set(0);
        rt.launch(&c, DataView::Standard, s0);
        assert!(rt.makespan().as_us() > 0.0);
        assert_eq!(m.to_host(), vec![3.0; 16]);
    }

    #[test]
    fn different_streams_overlap_same_stream_serializes() {
        let (b, space, m) = setup();
        let mk = |name: &str| {
            let mc = m.clone();
            Container::compute(name, space.clone(), move |ldr| {
                let w = ldr.read(&mc);
                Box::new(move |cell: Cell| {
                    let _ = w.get(cell.idx());
                })
            })
        };
        let (c1, c2) = (mk("a"), mk("b"));
        let mut serial = ManualRuntime::new(&b, 2);
        serial.set_functional(false);
        let s0 = serial.stream_set(0);
        serial.launch(&c1, DataView::Standard, s0);
        serial.launch(&c2, DataView::Standard, s0);
        let t_serial = serial.makespan();

        let mut parallel = ManualRuntime::new(&b, 2);
        parallel.set_functional(false);
        let (p0, p1) = (parallel.stream_set(0), parallel.stream_set(1));
        parallel.launch(&c1, DataView::Standard, p0);
        parallel.launch(&c2, DataView::Standard, p1);
        let t_parallel = parallel.makespan();
        assert!(
            t_parallel < t_serial,
            "independent streams should overlap: {t_parallel} vs {t_serial}"
        );
    }

    #[test]
    fn events_order_cross_stream_work() {
        let (b, space, m) = setup();
        let mc = m.clone();
        let c = Container::compute("k", space, move |ldr| {
            let w = ldr.read(&mc);
            Box::new(move |cell: Cell| {
                let _ = w.get(cell.idx());
            })
        });
        let mut rt = ManualRuntime::new(&b, 2);
        rt.set_functional(false);
        let (s0, s1) = (rt.stream_set(0), rt.stream_set(1));
        let e = rt.event_set();
        rt.launch(&c, DataView::Standard, s0);
        rt.record(s0, e);
        rt.wait(s1, e).unwrap();
        let before = rt.makespan();
        rt.launch(&c, DataView::Standard, s1);
        // The second launch starts only after the first finished.
        assert!(rt.makespan().as_us() >= before.as_us() + 1.0);
    }

    #[test]
    #[should_panic(expected = "not allocated")]
    fn invalid_stream_rejected() {
        let b = Backend::dgx_a100(1);
        let rt = ManualRuntime::new(&b, 2);
        rt.stream_set(5);
    }

    #[test]
    fn cpu_backend_collapses_to_one_stream() {
        let b = Backend::cpu();
        let rt = ManualRuntime::new(&b, 4);
        // Only stream 0 exists on the CPU back end.
        rt.stream_set(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| rt.stream_set(1)));
        assert!(caught.is_err());
    }
}
