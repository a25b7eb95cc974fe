//! Queue-based runtime model on a virtual clock.
//!
//! This module mirrors the CUDA execution model the paper builds on
//! (§IV-A): each device owns a set of *streams* (in-order command queues)
//! and *events* (markers recorded on one stream and awaited by others). The
//! difference is that our queues advance a **virtual clock** instead of real
//! hardware: enqueueing an operation of duration `d` on a stream moves that
//! stream's clock forward by `d` starting from the stream's current ready
//! time; waiting on an event raises the stream clock to the event's recorded
//! time.
//!
//! This is sufficient to faithfully replay any schedule the Skeleton layer
//! produces and to measure its makespan, including every overlap effect that
//! OCC optimizations are designed to exploit.
//!
//! The only tallies kept here are per link resource (busy time, contention
//! events, bytes), because only the queue sees transfers contend. Kernel
//! work (launches, bytes swept, halo rounds) is counted once, by the
//! executor, in the report each execution returns.

use std::sync::Arc;

use crate::clock::SimTime;
use crate::device::DeviceId;
use crate::error::{NeonSysError, Result};
use crate::fault::{FaultInjector, FaultSiteKind, FaultVerdict};
use crate::topology::LinkResourceId;
use crate::trace::{SpanKind, Trace, TraceSpan};

/// Identifier of a stream: a queue on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId {
    /// Owning device.
    pub device: DeviceId,
    /// Queue index within the device.
    pub index: usize,
}

impl StreamId {
    /// Convenience constructor.
    pub fn new(device: DeviceId, index: usize) -> Self {
        StreamId { device, index }
    }
}

/// Identifier of an event within a [`QueueSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub usize);

/// Occupancy bookkeeping for one physical link resource.
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    /// Time until which the resource is held by an in-flight transfer.
    busy_until: SimTime,
    /// Total time the resource has been occupied (utilization counter).
    busy_total: SimTime,
    /// Number of transfers that found the resource busy and were delayed.
    contended: u64,
    /// Payload bytes moved over the resource (utilization counter; only
    /// sized enqueues contribute).
    bytes_total: u64,
}

/// Virtual-clock simulator for a set of devices' stream queues.
#[derive(Debug)]
pub struct QueueSim {
    /// `clocks[device][stream]` = time at which that queue becomes idle.
    clocks: Vec<Vec<SimTime>>,
    /// Recorded completion time per event (`None` until recorded).
    events: Vec<Option<SimTime>>,
    /// Occupancy per link resource (indexed by [`LinkResourceId`]; grown on
    /// demand by [`QueueSim::enqueue_transfer`]).
    links: Vec<LinkState>,
    /// Extra delay paid by a transfer that found one of its link resources
    /// busy — models root-complex / switch arbitration.
    link_arbitration: SimTime,
    trace: Option<Trace>,
    /// Fault injector consulted for kernel launches (transfers are consulted
    /// by the executor at halo-node granularity instead).
    injector: Option<Arc<FaultInjector>>,
}

impl QueueSim {
    /// Create a simulator for `num_devices` devices with `streams_per_device`
    /// queues each.
    pub fn new(num_devices: usize, streams_per_device: usize) -> Self {
        assert!(num_devices > 0, "need at least one device");
        assert!(streams_per_device > 0, "need at least one stream");
        QueueSim {
            clocks: vec![vec![SimTime::ZERO; streams_per_device]; num_devices],
            events: Vec::new(),
            links: Vec::new(),
            link_arbitration: SimTime::from_us(2.0),
            trace: None,
            injector: None,
        }
    }

    /// Install (or clear) the fault injector consulted by kernel enqueues.
    /// Injected failed attempts show up as [`SpanKind::Fault`] spans followed
    /// by exponential backoff idle time on the stream.
    pub fn set_fault_injector(&mut self, injector: Option<Arc<FaultInjector>>) {
        self.injector = injector;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Model `failed` consecutive failed attempts of an operation of length
    /// `duration` starting no earlier than `ready`: each attempt occupies the
    /// stream for the operation's duration (recorded as a [`SpanKind::Fault`]
    /// span), then backs off exponentially before the next attempt. Returns
    /// the time at which the next (re-)attempt may start.
    fn faulty_attempts(
        &mut self,
        s: StreamId,
        mut ready: SimTime,
        duration: SimTime,
        name: &str,
        failed: u32,
        backoff: SimTime,
    ) -> SimTime {
        for a in 0..failed {
            let start = ready;
            let end = start + duration;
            if let Some(trace) = &mut self.trace {
                trace.push(TraceSpan {
                    device: s.device,
                    stream: s.index,
                    name: format!("{name}!fail{a}"),
                    kind: SpanKind::Fault,
                    start,
                    end,
                });
            }
            let factor = 1u64 << a.min(16);
            ready = end + SimTime::from_us(backoff.as_us() * factor as f64);
        }
        ready
    }

    /// Set the arbitration penalty paid by contended transfers
    /// (default 2 µs).
    pub fn set_link_arbitration(&mut self, t: SimTime) {
        self.link_arbitration = t;
    }

    /// Enable span recording. Disabled by default to keep hot paths cheap.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(Trace::new());
        }
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Take ownership of the recorded trace, leaving tracing enabled.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.as_mut().map(std::mem::take)
    }

    /// Mutable access to the recorded trace, if tracing is enabled (used to
    /// attach utilization counters).
    pub fn trace_mut(&mut self) -> Option<&mut Trace> {
        self.trace.as_mut()
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.clocks.len()
    }

    /// Number of streams per device.
    pub fn streams_per_device(&self) -> usize {
        self.clocks[0].len()
    }

    fn clock_mut(&mut self, s: StreamId) -> &mut SimTime {
        &mut self.clocks[s.device.0][s.index]
    }

    /// Current ready time of a stream.
    pub fn now(&self, s: StreamId) -> SimTime {
        self.clocks[s.device.0][s.index]
    }

    /// Allocate a fresh, unrecorded event.
    pub fn create_event(&mut self) -> EventId {
        self.events.push(None);
        EventId(self.events.len() - 1)
    }

    /// Enqueue an operation of length `duration` on stream `s`, not starting
    /// before `earliest`. Returns the `(start, end)` span.
    ///
    /// If a fault injector is installed and `kind` is [`SpanKind::Kernel`],
    /// the injector is consulted: a recovered fault prepends failed-attempt
    /// spans plus backoff before the successful launch; an escaped fault
    /// records only the failed attempts (the launch never succeeds) and
    /// returns the span of the failed episode.
    pub fn enqueue_from(
        &mut self,
        s: StreamId,
        earliest: SimTime,
        duration: SimTime,
        name: &str,
        kind: SpanKind,
    ) -> (SimTime, SimTime) {
        if kind == SpanKind::Kernel {
            if let Some(inj) = self.injector.clone() {
                let verdict = inj.observe(s.device, FaultSiteKind::Kernel);
                if verdict != FaultVerdict::Clean {
                    let policy = inj.policy();
                    let first = self.now(s).max(earliest);
                    return match verdict {
                        FaultVerdict::Recovered { failed_attempts } => {
                            let ready = self.faulty_attempts(
                                s,
                                first,
                                duration,
                                name,
                                failed_attempts,
                                policy.backoff,
                            );
                            self.enqueue_from_clean(s, ready, duration, name, kind)
                        }
                        FaultVerdict::Escaped { failed_attempts } => {
                            // All attempts fail; no successful span. The last
                            // backoff gap is not paid (there is no re-attempt).
                            let ready = self.faulty_attempts(
                                s,
                                first,
                                duration,
                                name,
                                failed_attempts,
                                policy.backoff,
                            );
                            let last_gap = 1u64 << failed_attempts.saturating_sub(1).min(16);
                            let end =
                                ready - SimTime::from_us(policy.backoff.as_us() * last_gap as f64);
                            *self.clock_mut(s) = end;
                            (first, end)
                        }
                        FaultVerdict::Clean => unreachable!(),
                    };
                }
            }
        }
        self.enqueue_from_clean(s, earliest, duration, name, kind)
    }

    /// [`QueueSim::enqueue_from`] without the fault-injection consult.
    fn enqueue_from_clean(
        &mut self,
        s: StreamId,
        earliest: SimTime,
        duration: SimTime,
        name: &str,
        kind: SpanKind,
    ) -> (SimTime, SimTime) {
        let start = self.now(s).max(earliest);
        let end = start + duration;
        *self.clock_mut(s) = end;
        if let Some(trace) = &mut self.trace {
            trace.push(TraceSpan {
                device: s.device,
                stream: s.index,
                name: name.to_string(),
                kind,
                start,
                end,
            });
        }
        (start, end)
    }

    /// Enqueue a transfer occupying the given link `resources`.
    ///
    /// Like [`QueueSim::enqueue_from`], but the transfer additionally holds
    /// every resource in `resources` for its duration: it cannot start while
    /// any of them is still held by an earlier transfer, and if it *was*
    /// delayed by one — i.e. the resources freed up later than the stream and
    /// `earliest` would otherwise allow — it pays the arbitration penalty on
    /// top. This serializes concurrent transfers through a shared physical
    /// link (notably the PCIe host root complex) while leaving transfers on
    /// dedicated links (NVLink pairs) unaffected.
    ///
    /// Per-resource busy totals and contention counts are accumulated as
    /// utilization counters (see [`QueueSim::link_busy_time`]).
    pub fn enqueue_transfer(
        &mut self,
        s: StreamId,
        earliest: SimTime,
        duration: SimTime,
        resources: &[LinkResourceId],
        name: &str,
        kind: SpanKind,
    ) -> (SimTime, SimTime) {
        self.enqueue_transfer_sized(s, earliest, duration, resources, 0, name, kind)
    }

    /// [`QueueSim::enqueue_transfer`] that additionally attributes `bytes`
    /// of payload to every occupied resource, feeding the per-resource
    /// byte counters ([`QueueSim::link_bytes`], [`QueueSim::slow_link_bytes`]).
    /// The timing model is identical to the unsized variant.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_transfer_sized(
        &mut self,
        s: StreamId,
        earliest: SimTime,
        duration: SimTime,
        resources: &[LinkResourceId],
        bytes: u64,
        name: &str,
        kind: SpanKind,
    ) -> (SimTime, SimTime) {
        if let Some(&max) = resources.iter().max() {
            if max >= self.links.len() {
                self.links.resize(max + 1, LinkState::default());
            }
        }
        let stream_ready = self.now(s).max(earliest);
        let res_ready = resources
            .iter()
            .map(|&r| self.links[r].busy_until)
            .fold(SimTime::ZERO, SimTime::max);
        let contended = res_ready > stream_ready;
        let mut start = stream_ready.max(res_ready);
        if contended {
            start += self.link_arbitration;
        }
        let end = start + duration;
        *self.clock_mut(s) = end;
        for &r in resources {
            let l = &mut self.links[r];
            l.busy_until = end;
            l.busy_total += end - start;
            l.bytes_total += bytes;
            if contended {
                l.contended += 1;
            }
        }
        if let Some(trace) = &mut self.trace {
            trace.push(TraceSpan {
                device: s.device,
                stream: s.index,
                name: name.to_string(),
                kind,
                start,
                end,
            });
        }
        (start, end)
    }

    /// [`QueueSim::enqueue_transfer`] with a fault verdict applied.
    ///
    /// Transfers are consulted for faults by the executor at halo-node
    /// granularity (one verdict per destination device), so the verdict is
    /// passed in rather than looked up here. A recovered fault prepends
    /// failed-attempt spans (the corrupted payloads, dropped at the receiver
    /// before commit) plus backoff; an escaped fault records only the failed
    /// attempts and never occupies the link with a successful transfer.
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue_transfer_with_faults(
        &mut self,
        s: StreamId,
        earliest: SimTime,
        duration: SimTime,
        resources: &[LinkResourceId],
        bytes: u64,
        name: &str,
        kind: SpanKind,
        verdict: FaultVerdict,
        backoff: SimTime,
    ) -> (SimTime, SimTime) {
        match verdict {
            FaultVerdict::Clean => {
                self.enqueue_transfer_sized(s, earliest, duration, resources, bytes, name, kind)
            }
            FaultVerdict::Recovered { failed_attempts } => {
                let first = self.now(s).max(earliest);
                let ready =
                    self.faulty_attempts(s, first, duration, name, failed_attempts, backoff);
                self.enqueue_transfer_sized(s, ready, duration, resources, bytes, name, kind)
            }
            FaultVerdict::Escaped { failed_attempts } => {
                let first = self.now(s).max(earliest);
                let ready =
                    self.faulty_attempts(s, first, duration, name, failed_attempts, backoff);
                let last_gap = 1u64 << failed_attempts.saturating_sub(1).min(16);
                let end = ready - SimTime::from_us(backoff.as_us() * last_gap as f64);
                *self.clock_mut(s) = end;
                (first, end)
            }
        }
    }

    /// Busy time summed over every link resource since construction (a
    /// caller meters a window by the difference across it).
    pub fn link_busy_total(&self) -> SimTime {
        self.links.iter().map(|l| l.busy_total).sum()
    }

    /// Total occupied time of a link resource (utilization counter; zero for
    /// resources never used).
    pub fn link_busy_time(&self, r: LinkResourceId) -> SimTime {
        self.links.get(r).map_or(SimTime::ZERO, |l| l.busy_total)
    }

    /// Number of transfers that found link resource `r` busy and were
    /// delayed behind it.
    pub fn link_contention_events(&self, r: LinkResourceId) -> u64 {
        self.links.get(r).map_or(0, |l| l.contended)
    }

    /// Payload bytes attributed to link resource `r` by sized transfers
    /// (utilization counter; zero for resources never used).
    pub fn link_bytes(&self, r: LinkResourceId) -> u64 {
        self.links.get(r).map_or(0, |l| l.bytes_total)
    }

    /// Bytes moved through the shared host root complex (link resource 0
    /// by [`Topology`] convention) — the slow path on PCIe boxes and on
    /// mixed NVLink-island topologies, where every cross-island transfer
    /// lands here. Hierarchical collectives exist to shrink this number.
    ///
    /// [`Topology`]: crate::topology::Topology
    pub fn slow_link_bytes(&self) -> u64 {
        self.link_bytes(0)
    }

    /// Number of link resources touched so far.
    pub fn num_link_resources(&self) -> usize {
        self.links.len()
    }

    /// Enqueue an operation of length `duration` on stream `s` at the
    /// stream's current ready time. Returns the `(start, end)` span.
    pub fn enqueue(
        &mut self,
        s: StreamId,
        duration: SimTime,
        name: &str,
        kind: SpanKind,
    ) -> (SimTime, SimTime) {
        self.enqueue_from(s, SimTime::ZERO, duration, name, kind)
    }

    /// Record `event` as completing at stream `s`'s current ready time.
    ///
    /// Re-recording overwrites the previous time (CUDA semantics).
    pub fn record_event(&mut self, s: StreamId, event: EventId) {
        let t = self.now(s);
        self.events[event.0] = Some(t);
    }

    /// Make stream `s` wait for `event`: its clock is raised to the event's
    /// recorded time (no-op if the event completed earlier than `now`).
    pub fn wait_event(&mut self, s: StreamId, event: EventId) -> Result<()> {
        let t = self.events[event.0].ok_or(NeonSysError::EventNeverRecorded { event: event.0 })?;
        let c = self.clock_mut(s);
        *c = c.max(t);
        Ok(())
    }

    /// The recorded time of an event, if any.
    pub fn event_time(&self, event: EventId) -> Option<SimTime> {
        self.events[event.0]
    }

    /// Device-wide synchronization: every stream of `device` is raised to the
    /// device's latest stream time. Returns that time.
    pub fn sync_device(&mut self, device: DeviceId) -> SimTime {
        let t = self.clocks[device.0]
            .iter()
            .copied()
            .fold(SimTime::ZERO, SimTime::max);
        for c in &mut self.clocks[device.0] {
            *c = t;
        }
        t
    }

    /// Global barrier: all streams of all devices are raised to the global
    /// maximum. Returns that time.
    pub fn sync_all(&mut self) -> SimTime {
        let t = self.makespan();
        for dev in &mut self.clocks {
            for c in dev.iter_mut() {
                *c = t;
            }
        }
        t
    }

    /// Latest ready time over all streams — the makespan so far.
    pub fn makespan(&self) -> SimTime {
        self.clocks
            .iter()
            .flat_map(|d| d.iter().copied())
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Reset all clocks and forget all events. The trace, if any, is kept,
    /// and so are the per-link utilization counters; only the links'
    /// `busy_until` occupancy is rewound with the clocks.
    pub fn reset(&mut self) {
        for dev in &mut self.clocks {
            for c in dev.iter_mut() {
                *c = SimTime::ZERO;
            }
        }
        for l in &mut self.links {
            l.busy_until = SimTime::ZERO;
        }
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(d: usize, i: usize) -> StreamId {
        StreamId::new(DeviceId(d), i)
    }

    #[test]
    fn sequential_enqueue_advances_clock() {
        let mut q = QueueSim::new(1, 1);
        let (a0, a1) = q.enqueue(s(0, 0), SimTime::from_us(10.0), "k1", SpanKind::Kernel);
        let (b0, b1) = q.enqueue(s(0, 0), SimTime::from_us(5.0), "k2", SpanKind::Kernel);
        assert_eq!(a0.as_us(), 0.0);
        assert_eq!(a1.as_us(), 10.0);
        assert_eq!(b0.as_us(), 10.0);
        assert_eq!(b1.as_us(), 15.0);
        assert_eq!(q.makespan().as_us(), 15.0);
    }

    #[test]
    fn parallel_streams_overlap() {
        let mut q = QueueSim::new(1, 2);
        q.enqueue(s(0, 0), SimTime::from_us(10.0), "compute", SpanKind::Kernel);
        q.enqueue(s(0, 1), SimTime::from_us(8.0), "copy", SpanKind::Transfer);
        // Overlapped: makespan is max, not sum.
        assert_eq!(q.makespan().as_us(), 10.0);
    }

    #[test]
    fn event_synchronization_orders_streams() {
        let mut q = QueueSim::new(2, 1);
        let e = q.create_event();
        q.enqueue(s(0, 0), SimTime::from_us(10.0), "produce", SpanKind::Kernel);
        q.record_event(s(0, 0), e);
        q.wait_event(s(1, 0), e).unwrap();
        let (start, _) = q.enqueue(s(1, 0), SimTime::from_us(5.0), "consume", SpanKind::Kernel);
        assert_eq!(start.as_us(), 10.0);
    }

    #[test]
    fn waiting_on_past_event_is_noop() {
        let mut q = QueueSim::new(1, 2);
        let e = q.create_event();
        q.record_event(s(0, 0), e); // recorded at t=0
        q.enqueue(s(0, 1), SimTime::from_us(20.0), "busy", SpanKind::Kernel);
        q.wait_event(s(0, 1), e).unwrap();
        assert_eq!(q.now(s(0, 1)).as_us(), 20.0);
    }

    #[test]
    fn unrecorded_event_errors() {
        let mut q = QueueSim::new(1, 1);
        let e = q.create_event();
        assert!(matches!(
            q.wait_event(s(0, 0), e),
            Err(NeonSysError::EventNeverRecorded { event: 0 })
        ));
    }

    #[test]
    fn sync_device_aligns_streams() {
        let mut q = QueueSim::new(2, 2);
        q.enqueue(s(0, 0), SimTime::from_us(10.0), "a", SpanKind::Kernel);
        q.enqueue(s(0, 1), SimTime::from_us(4.0), "b", SpanKind::Kernel);
        q.enqueue(s(1, 0), SimTime::from_us(99.0), "c", SpanKind::Kernel);
        let t = q.sync_device(DeviceId(0));
        assert_eq!(t.as_us(), 10.0);
        assert_eq!(q.now(s(0, 1)).as_us(), 10.0);
        // Other device untouched by device-local sync.
        assert_eq!(q.now(s(1, 0)).as_us(), 99.0);
    }

    #[test]
    fn sync_all_is_global_barrier() {
        let mut q = QueueSim::new(2, 1);
        q.enqueue(s(0, 0), SimTime::from_us(3.0), "a", SpanKind::Kernel);
        q.enqueue(s(1, 0), SimTime::from_us(7.0), "b", SpanKind::Kernel);
        let t = q.sync_all();
        assert_eq!(t.as_us(), 7.0);
        assert_eq!(q.now(s(0, 0)).as_us(), 7.0);
    }

    #[test]
    fn enqueue_from_respects_earliest() {
        let mut q = QueueSim::new(1, 1);
        let (start, end) = q.enqueue_from(
            s(0, 0),
            SimTime::from_us(50.0),
            SimTime::from_us(5.0),
            "late",
            SpanKind::Kernel,
        );
        assert_eq!(start.as_us(), 50.0);
        assert_eq!(end.as_us(), 55.0);
    }

    #[test]
    fn trace_records_spans() {
        let mut q = QueueSim::new(1, 1);
        q.enable_trace();
        q.enqueue(s(0, 0), SimTime::from_us(10.0), "k", SpanKind::Kernel);
        let tr = q.trace().unwrap();
        assert_eq!(tr.spans().len(), 1);
        assert_eq!(tr.spans()[0].name, "k");
    }

    #[test]
    fn reset_clears_clocks_and_events() {
        let mut q = QueueSim::new(1, 1);
        let e = q.create_event();
        q.enqueue(s(0, 0), SimTime::from_us(10.0), "k", SpanKind::Kernel);
        q.record_event(s(0, 0), e);
        q.reset();
        assert_eq!(q.makespan(), SimTime::ZERO);
        let e2 = q.create_event();
        assert_eq!(e2.0, 0);
    }

    #[test]
    fn shared_link_serializes_concurrent_transfers() {
        let mut q = QueueSim::new(2, 1);
        let d = SimTime::from_us(10.0);
        // Two transfers issued at t=0 on different devices, same resource.
        let (a0, a1) =
            q.enqueue_transfer(s(0, 0), SimTime::ZERO, d, &[0], "t0", SpanKind::Transfer);
        let (b0, b1) =
            q.enqueue_transfer(s(1, 0), SimTime::ZERO, d, &[0], "t1", SpanKind::Transfer);
        assert_eq!(a0.as_us(), 0.0);
        assert_eq!(a1.as_us(), 10.0);
        // Second waits for the link, plus the 2 us arbitration penalty.
        assert_eq!(b0.as_us(), 12.0);
        assert_eq!(b1.as_us(), 22.0);
        assert_eq!(q.link_contention_events(0), 1);
        // Longer than the same two transfers serialized on one stream (20 us).
        assert!(q.makespan().as_us() > 20.0);
    }

    #[test]
    fn dedicated_links_do_not_contend() {
        let mut q = QueueSim::new(2, 1);
        let d = SimTime::from_us(10.0);
        q.enqueue_transfer(s(0, 0), SimTime::ZERO, d, &[1], "t0", SpanKind::Transfer);
        let (b0, _) = q.enqueue_transfer(s(1, 0), SimTime::ZERO, d, &[2], "t1", SpanKind::Transfer);
        assert_eq!(b0.as_us(), 0.0, "different resources overlap fully");
        assert_eq!(q.link_contention_events(1), 0);
        assert_eq!(q.link_contention_events(2), 0);
    }

    #[test]
    fn back_to_back_same_stream_pays_no_penalty() {
        let mut q = QueueSim::new(1, 1);
        let d = SimTime::from_us(10.0);
        q.enqueue_transfer(s(0, 0), SimTime::ZERO, d, &[0], "t0", SpanKind::Transfer);
        let (b0, b1) =
            q.enqueue_transfer(s(0, 0), SimTime::ZERO, d, &[0], "t1", SpanKind::Transfer);
        // The stream itself was busy until 10, so the link being busy until
        // the same moment is not contention.
        assert_eq!(b0.as_us(), 10.0);
        assert_eq!(b1.as_us(), 20.0);
        assert_eq!(q.link_contention_events(0), 0);
        assert_eq!(q.link_busy_time(0).as_us(), 20.0);
    }

    #[test]
    fn link_utilization_counters_accumulate() {
        let mut q = QueueSim::new(2, 1);
        let d = SimTime::from_us(5.0);
        q.enqueue_transfer(s(0, 0), SimTime::ZERO, d, &[3], "a", SpanKind::Transfer);
        q.enqueue_transfer(s(1, 0), SimTime::ZERO, d, &[3], "b", SpanKind::Collective);
        assert_eq!(q.num_link_resources(), 4);
        assert_eq!(q.link_busy_time(3).as_us(), 10.0);
        assert_eq!(q.link_busy_time(99), SimTime::ZERO);
        q.enqueue_transfer(s(0, 0), SimTime::ZERO, d, &[1], "c", SpanKind::Transfer);
        assert_eq!(q.link_busy_total().as_us(), 15.0, "summed over resources");
        q.reset();
        // Counters survive reset; occupancy does not.
        assert_eq!(q.link_busy_time(3).as_us(), 10.0);
        let (c0, _) = q.enqueue_transfer(s(0, 0), SimTime::ZERO, d, &[3], "d", SpanKind::Transfer);
        assert_eq!(c0.as_us(), 0.0);
    }

    #[test]
    fn injected_kernel_fault_costs_attempts_plus_backoff() {
        use crate::fault::{FaultInjector, FaultPlan, RetryPolicy};
        let mut q = QueueSim::new(1, 1);
        q.enable_trace();
        let plan = FaultPlan::none().with_kernel_fault(0, DeviceId(0), 1, 2);
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff: SimTime::from_us(5.0),
        };
        let inj = FaultInjector::new(plan, policy, 1);
        inj.begin_iteration(0).unwrap();
        q.set_fault_injector(Some(inj));
        let d = SimTime::from_us(10.0);
        q.enqueue(s(0, 0), d, "k0", SpanKind::Kernel);
        // Second kernel: fails twice (10 + 5, 10 + 10), then succeeds.
        let (start, end) = q.enqueue(s(0, 0), d, "k1", SpanKind::Kernel);
        assert_eq!(start.as_us(), 45.0);
        assert_eq!(end.as_us(), 55.0);
        let tr = q.trace().unwrap();
        let faults: Vec<_> = tr
            .spans()
            .iter()
            .filter(|sp| sp.kind == SpanKind::Fault)
            .collect();
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].start.as_us(), 10.0);
        assert_eq!(faults[1].start.as_us(), 25.0);
    }

    #[test]
    fn escaped_kernel_fault_never_succeeds() {
        use crate::fault::{FaultInjector, FaultPlan, RetryPolicy};
        let mut q = QueueSim::new(1, 1);
        q.enable_trace();
        let plan = FaultPlan::none().with_kernel_fault(0, DeviceId(0), 0, 99);
        let policy = RetryPolicy {
            max_attempts: 2,
            backoff: SimTime::from_us(5.0),
        };
        let inj = FaultInjector::new(plan, policy, 1);
        inj.begin_iteration(0).unwrap();
        q.set_fault_injector(Some(inj.clone()));
        let d = SimTime::from_us(10.0);
        // Two failed attempts: [0,10] then backoff 5, [15,25]. No final gap.
        let (start, end) = q.enqueue(s(0, 0), d, "k", SpanKind::Kernel);
        assert_eq!(start.as_us(), 0.0);
        assert_eq!(end.as_us(), 25.0);
        assert!(inj.escape_site().is_some());
        let tr = q.trace().unwrap();
        assert!(tr.spans().iter().all(|sp| sp.kind == SpanKind::Fault));
        assert_eq!(tr.spans().len(), 2);
    }

    #[test]
    fn faulted_transfer_retries_before_occupying_link() {
        use crate::fault::FaultVerdict;
        let mut q = QueueSim::new(1, 1);
        let d = SimTime::from_us(10.0);
        let (start, end) = q.enqueue_transfer_with_faults(
            s(0, 0),
            SimTime::ZERO,
            d,
            &[0],
            256,
            "t",
            SpanKind::Transfer,
            FaultVerdict::Recovered { failed_attempts: 1 },
            SimTime::from_us(5.0),
        );
        // One corrupted send [0,10], backoff 5, clean send [15,25].
        assert_eq!(start.as_us(), 15.0);
        assert_eq!(end.as_us(), 25.0);
        // Only the successful transfer holds the link.
        assert_eq!(q.link_busy_time(0).as_us(), 10.0);
        // And only the committed payload is counted.
        assert_eq!(q.link_bytes(0), 256);
    }

    #[test]
    fn sized_transfers_attribute_bytes_per_resource() {
        let mut q = QueueSim::new(2, 1);
        let d = SimTime::from_us(10.0);
        // Resource 0 is the host root complex by Topology convention: its
        // traffic is `slow_link_bytes`.
        q.enqueue_transfer_sized(
            s(0, 0),
            SimTime::ZERO,
            d,
            &[0],
            100,
            "slow",
            SpanKind::Transfer,
        );
        q.enqueue_transfer_sized(
            s(1, 0),
            SimTime::ZERO,
            d,
            &[1],
            70,
            "fast",
            SpanKind::Transfer,
        );
        q.enqueue_transfer(
            s(1, 0),
            SimTime::ZERO,
            d,
            &[0],
            "unsized",
            SpanKind::Transfer,
        );
        assert_eq!(q.link_bytes(0), 100);
        assert_eq!(q.link_bytes(1), 70);
        assert_eq!(q.link_bytes(99), 0);
        assert_eq!(q.slow_link_bytes(), 100);
        // A second sized transfer over the same resource adds to its count.
        q.enqueue_transfer_sized(
            s(0, 0),
            SimTime::ZERO,
            d,
            &[0],
            25,
            "slow2",
            SpanKind::Transfer,
        );
        assert_eq!(q.link_bytes(0), 125);
        assert_eq!(q.slow_link_bytes(), 125);
        // reset() keeps byte counters.
        q.reset();
        assert_eq!(q.link_bytes(0), 125);
        assert_eq!(q.slow_link_bytes(), 125);
    }

    #[test]
    fn re_recording_event_overwrites() {
        let mut q = QueueSim::new(1, 1);
        let e = q.create_event();
        q.record_event(s(0, 0), e);
        q.enqueue(s(0, 0), SimTime::from_us(10.0), "k", SpanKind::Kernel);
        q.record_event(s(0, 0), e);
        assert_eq!(q.event_time(e).unwrap().as_us(), 10.0);
    }
}
