//! The virtual-timing replay, priced once per skeleton.
//!
//! Everything about an iteration's timing that does not depend on *when*
//! its inputs become ready is fixed by the compiled plan, the backend and
//! the skeleton's options. [`TimingProgram::build`] lowers the plan to a
//! program once, on a skeleton's first execution:
//!
//! * per compute node and device, the launch's duration, bytes, redundant
//!   flops and lane (kernels cost `launch + bytes/bandwidth`, roofline),
//!   and under [`CommMode::ChunkEvents`] its interior/boundary split — or
//!   a marker that the partition is empty;
//! * per halo descriptor, its transfer lane, link resources and per-chunk
//!   durations and bytes (`latency + bytes/link-bandwidth`), or under
//!   [`HaloPolicy::UnifiedMemory`] its migration time;
//! * per host step or reduce finalize, its sync cost;
//! * per collective, a lowered [`CollectiveSchedule`] (algorithm chosen
//!   once, every chunk send priced).
//!
//! [`TimingProgram::replay`] then walks the program in schedule order and
//! only does max/add over it: fold each node's parent completion times,
//! enqueue the priced spans on the [`QueueSim`] virtual clock, record the
//! completions. It allocates nothing once its [`TimingScratch`] is warm.
//!
//! Halo chunking is decided here and nowhere else: under chunk events a
//! halo payload is split by the backend's [`ChunkPolicy::for_topology`]
//! (the type whose rule also splits the collective engine's steps), while
//! the compiled plan and its event table are the same for every
//! [`CommMode`].
//!
//! Fault observation is exactly that of an unpriced walk: the kernel
//! verdict inside [`QueueSim::enqueue_from`], one transfer verdict per
//! (halo node, destination), one link verdict per collective chunk. A
//! fault that escapes retry stops the replay after its task, and the
//! replay reports that task as an [`Abort`]: the functional replay runs
//! exactly the work before it.

use std::sync::Arc;

use neon_comm::{
    ChunkPolicy, CollectiveEngine, CollectiveKind, CollectiveSchedule, CollectiveScratch,
};
use neon_sys::topology::LinkResourceId;
use neon_sys::{
    Backend, DeviceId, FaultInjector, FaultSite, FaultSiteKind, FaultVerdict, QueueSim, SimTime,
};
use neon_sys::{SpanKind, StreamId};

use crate::exec::{CommMode, ExecError, ExecReport, HaloPolicy};
use crate::graph::NodeKind;
use crate::plan::CompiledPlan;
use crate::skeleton::SkeletonOptions;

/// Unified-memory migration page size, in bytes (2 MiB on modern GPUs).
const UM_PAGE_BYTES: u64 = 2 << 20;
/// Unified-memory fault-handling latency per page, in µs.
const UM_FAULT_US: f64 = 25.0;
/// Unified-memory sustained migration bandwidth, in GB/s.
const UM_BANDWIDTH_GB_S: f64 = 50.0;

/// Where a fault that escaped retry stopped an iteration's timing replay.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Abort {
    /// Index of the schedule task whose operation failed.
    pub task: usize,
    /// The escaped fault; for a kernel, `site.device` is the device whose
    /// launch failed.
    pub site: FaultSite,
}

/// A pre-priced kernel launch on one device.
#[derive(Debug, Clone, Copy)]
struct Launch {
    dur: SimTime,
    bytes: u64,
    redundant: u64,
    lane: usize,
    /// Chunk events: `(interior, boundary)` shares of `dur` when the
    /// launch consumes halo bytes.
    split: Option<(SimTime, SimTime)>,
}

/// One pre-priced explicit halo transfer.
#[derive(Debug, Clone, Copy)]
struct Transfer {
    src: usize,
    dst: usize,
    lane: usize,
    /// `start..end` in [`TimingProgram::res`].
    res: (u32, u32),
    /// `start..end` in [`TimingProgram::chunks`].
    chunks: (u32, u32),
}

/// One chunk of a [`Transfer`]: the first pays the link latency, follow-on
/// chunks ride the open channel at pure bandwidth.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    dur: SimTime,
    bytes: u64,
}

/// One pre-priced unified-memory migration.
#[derive(Debug, Clone, Copy)]
struct Migration {
    src: usize,
    dst: usize,
    dur: SimTime,
}

/// One schedule task, lowered.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `launches[first..first + ndev]`, one per device; `finalize` is the
    /// host sync of a reduce that folds partials on the host.
    Compute {
        node: usize,
        first: usize,
        finalize: Option<SimTime>,
    },
    /// `transfers[first..end]`.
    Halo {
        node: usize,
        first: usize,
        end: usize,
    },
    /// `migrations[first..end]`.
    Migrate {
        node: usize,
        first: usize,
        end: usize,
    },
    Host {
        node: usize,
        sync: SimTime,
    },
    /// `collectives[schedule]`.
    Collective {
        node: usize,
        schedule: usize,
    },
}

/// A compiled plan lowered to pre-priced timing steps (see the module
/// docs).
#[derive(Debug)]
pub(crate) struct TimingProgram {
    ndev: usize,
    steps: Vec<Step>,
    /// `None` marks an empty partition.
    launches: Vec<Option<Launch>>,
    transfers: Vec<Transfer>,
    chunks: Vec<Chunk>,
    migrations: Vec<Migration>,
    res: Vec<LinkResourceId>,
    collectives: Vec<CollectiveSchedule>,
    host_lane: usize,
    collective_lane: usize,
    /// Whether halo arrivals gate consumers per chunk.
    chunked: bool,
    /// `("<name>:int", "<name>:bnd")` per compute node (chunk events only).
    split_names: Vec<(String, String)>,
    /// `"<name>(um)"` per halo node (unified memory only).
    um_names: Vec<String>,
}

/// Per-iteration tables of [`TimingProgram::replay`], reused across
/// executions.
#[derive(Debug, Default)]
pub(crate) struct TimingScratch {
    /// Completion time of each node on each device, flat `node × device`.
    ends: Vec<SimTime>,
    /// Per-device kernel busy time (the straggler monitor's sample).
    dev_kernel: Vec<SimTime>,
    /// Per-device halo staging `[constraint | into | from]`, or a
    /// collective's per-device input readiness.
    lanes: Vec<SimTime>,
    /// Chunk events, flat `node × device`: when a halo's inputs were
    /// ready, and when its last chunk arrived.
    h_ready: Vec<SimTime>,
    h_arrive: Vec<SimTime>,
    /// Per-device transfer observations so far this iteration.
    xfer_seen: Vec<u32>,
    /// The current halo node's verdict per destination device.
    verdicts: Vec<Option<(FaultVerdict, u32)>>,
    collective: CollectiveScratch,
}

impl TimingScratch {
    /// Per-device kernel busy time of the most recent replay.
    pub(crate) fn dev_kernel(&self) -> &[SimTime] {
        &self.dev_kernel
    }
}

impl TimingProgram {
    /// Price every task of `plan` on `backend` under the `kernel_concurrency`,
    /// `halo_policy` and `comm` of `options`; collectives are lowered by
    /// `engine`, which carries `options.collectives`.
    pub(crate) fn build(
        plan: &CompiledPlan,
        backend: &Backend,
        engine: &CollectiveEngine,
        options: &SkeletonOptions,
    ) -> Result<Self, ExecError> {
        let graph = plan.graph();
        let ndev = backend.num_devices();
        let topo = backend.topology();
        // Lanes: [0, compute_streams) kernels, +0/+1 transfers, +2 host,
        // +3 collectives.
        let compute_streams = plan.schedule().num_streams;
        // Unified memory has no explicit transfers to chunk, so chunk
        // events only apply to the explicit-transfer policy.
        let chunked = options.comm == CommMode::ChunkEvents
            && options.halo_policy == HaloPolicy::ExplicitTransfers;
        let chunk_policy = ChunkPolicy::for_topology(topo);
        let sync = backend.device(DeviceId(0)).sync_overhead();
        let mut p = TimingProgram {
            ndev,
            steps: Vec::with_capacity(plan.schedule().tasks.len()),
            launches: Vec::new(),
            transfers: Vec::new(),
            chunks: Vec::new(),
            migrations: Vec::new(),
            res: Vec::new(),
            collectives: Vec::new(),
            host_lane: compute_streams + 2,
            collective_lane: compute_streams + 3,
            chunked,
            split_names: Vec::new(),
            um_names: Vec::new(),
        };
        // Halo bytes arriving into each device, flat `node × device`.
        let mut halo_in = vec![0u64; if chunked { graph.len() * ndev } else { 0 }];
        if chunked {
            for (id, n) in graph.nodes().iter().enumerate() {
                for desc in plan.halo_descriptors(id) {
                    halo_in[id * ndev + desc.dst.0] += desc.bytes;
                }
                p.split_names.push(match n.kind {
                    NodeKind::Compute { .. } => {
                        (format!("{}:int", n.name), format!("{}:bnd", n.name))
                    }
                    _ => (String::new(), String::new()),
                });
            }
        }
        if options.halo_policy == HaloPolicy::UnifiedMemory {
            p.um_names = graph
                .nodes()
                .iter()
                .map(|n| {
                    if n.is_halo() {
                        format!("{}(um)", n.name)
                    } else {
                        String::new()
                    }
                })
                .collect();
        }

        for task in &plan.schedule().tasks {
            let node = task.node;
            let n = graph.node(node);
            let step = match &n.kind {
                NodeKind::Compute {
                    container,
                    view,
                    reduce_finalize,
                    ..
                } => {
                    let space =
                        container
                            .space()
                            .ok_or_else(|| ExecError::MissingIterationSpace {
                                node: n.name.clone(),
                            })?;
                    let bytes_per_cell = container.bytes_per_cell();
                    let flops_per_cell = container.flops_per_cell();
                    let eff = container.bw_efficiency();
                    let temporal = container.temporal_spec();
                    let first = p.launches.len();
                    for d in 0..ndev {
                        let dev = DeviceId(d);
                        let cells = space.cell_count(dev, *view);
                        if cells == 0 {
                            p.launches.push(None);
                            continue;
                        }
                        // A temporal super-step runs k reps in one launch:
                        // rep j sweeps the interior expanded by (k-1-j)·r
                        // ghost layers. The memory system streams the
                        // expanded footprint once; flops accrue per rep,
                        // and those spent on cells another device owns are
                        // the scheme's redundant-recompute overhead.
                        let (bytes, flops, redundant) = match temporal {
                            Some(spec) => {
                                let k = spec.k as usize;
                                let footprint =
                                    space.cell_count_expanded(dev, (k - 1) * spec.radius);
                                let mut flops = 0u64;
                                let mut redundant = 0u64;
                                for j in 0..k {
                                    let swept =
                                        space.cell_count_expanded(dev, (k - 1 - j) * spec.radius);
                                    flops += swept * flops_per_cell;
                                    redundant += (swept - cells) * flops_per_cell;
                                }
                                (footprint * bytes_per_cell, flops, redundant)
                            }
                            None => (cells * bytes_per_cell, cells * flops_per_cell, 0),
                        };
                        let dur = backend.device(dev).kernel_time(bytes, flops, eff);
                        // Chunk events split the launch around its halo
                        // inputs: the boundary share is the fraction of
                        // the swept bytes that arrive as halo payload.
                        let hbytes: u64 = match chunked {
                            true => plan
                                .data_parents(node)
                                .iter()
                                .map(|&q| halo_in[q * ndev + d])
                                .sum(),
                            false => 0,
                        };
                        let split = (hbytes > 0).then(|| {
                            let frac = (hbytes as f64 / bytes.max(1) as f64).min(1.0);
                            let bnd = SimTime::from_us(dur.as_us() * frac);
                            (dur - bnd, bnd)
                        });
                        p.launches.push(Some(Launch {
                            dur,
                            bytes,
                            redundant,
                            lane: if options.kernel_concurrency {
                                task.stream
                            } else {
                                0
                            },
                            split,
                        }));
                    }
                    Step::Compute {
                        node,
                        first,
                        finalize: reduce_finalize.then_some(sync),
                    }
                }
                NodeKind::Halo { .. } => match options.halo_policy {
                    HaloPolicy::ExplicitTransfers => {
                        let first = p.transfers.len();
                        for desc in plan.halo_descriptors(node) {
                            let (src, dst) = (desc.src, desc.dst);
                            let res_start = p.res.len() as u32;
                            p.res.extend_from_slice(topo.link_resources(src, dst));
                            // Chunk events stream the payload in
                            // policy-sized chunks, pipelined DMA-style.
                            let (cnum, cb) = if chunked {
                                chunk_policy.chunks(desc.bytes)
                            } else {
                                (1, desc.bytes)
                            };
                            let latency = topo.transfer_time(src, dst, 0);
                            let chunk_start = p.chunks.len() as u32;
                            let mut remaining = desc.bytes;
                            for k in 0..cnum {
                                let b = cb.min(remaining);
                                remaining -= b;
                                let mut dur = topo.transfer_time(src, dst, b);
                                if k > 0 {
                                    dur = (dur - latency).max(SimTime::ZERO);
                                }
                                p.chunks.push(Chunk { dur, bytes: b });
                            }
                            p.transfers.push(Transfer {
                                src: src.0,
                                dst: dst.0,
                                lane: compute_streams + usize::from(dst.0 < src.0),
                                res: (res_start, p.res.len() as u32),
                                chunks: (chunk_start, p.chunks.len() as u32),
                            });
                        }
                        Step::Halo {
                            node,
                            first,
                            end: p.transfers.len(),
                        }
                    }
                    HaloPolicy::UnifiedMemory => {
                        let first = p.migrations.len();
                        for desc in plan.halo_descriptors(node) {
                            let pages = desc.bytes.div_ceil(UM_PAGE_BYTES);
                            p.migrations.push(Migration {
                                src: desc.src.0,
                                dst: desc.dst.0,
                                dur: SimTime::from_us(
                                    pages as f64 * UM_FAULT_US
                                        + desc.bytes as f64 / UM_BANDWIDTH_GB_S * 1e-3,
                                ),
                            });
                        }
                        Step::Migrate {
                            node,
                            first,
                            end: p.migrations.len(),
                        }
                    }
                },
                NodeKind::Host { .. } => Step::Host { node, sync },
                NodeKind::Collective { bytes, .. } => {
                    p.collectives
                        .push(engine.lower(CollectiveKind::AllReduce, *bytes));
                    Step::Collective {
                        node,
                        schedule: p.collectives.len() - 1,
                    }
                }
            };
            p.steps.push(step);
        }
        Ok(p)
    }

    /// Replay one iteration starting at `t0`, accumulating into `report`.
    ///
    /// Returns where a fault that escaped retry stopped the iteration, if
    /// one did.
    pub(crate) fn replay(
        &self,
        plan: &CompiledPlan,
        queue: &mut QueueSim,
        injector: Option<&Arc<FaultInjector>>,
        scratch: &mut TimingScratch,
        t0: SimTime,
        report: &mut ExecReport,
    ) -> Option<Abort> {
        let graph = plan.graph();
        let ndev = self.ndev;
        let backoff = injector.map_or(SimTime::ZERO, |i| i.policy().backoff);
        let TimingScratch {
            ends,
            dev_kernel,
            lanes,
            h_ready,
            h_arrive,
            xfer_seen,
            verdicts,
            collective,
        } = scratch;
        ends.clear();
        ends.resize(graph.len() * ndev, t0);
        dev_kernel.clear();
        dev_kernel.resize(ndev, SimTime::ZERO);
        xfer_seen.clear();
        xfer_seen.resize(ndev, 0);
        if self.chunked {
            h_ready.clear();
            h_ready.resize(graph.len() * ndev, t0);
            h_arrive.clear();
            h_arrive.resize(graph.len() * ndev, t0);
        }
        let ready = |ends: &[SimTime], parents: &[usize], d: usize| {
            parents
                .iter()
                .map(|&p| ends[p * ndev + d])
                .fold(t0, SimTime::max)
        };

        for (task, step) in self.steps.iter().enumerate() {
            match *step {
                Step::Compute {
                    node,
                    first,
                    finalize,
                } => {
                    let parents = plan.data_parents(node);
                    for d in 0..ndev {
                        let Some(l) = &self.launches[first + d] else {
                            ends[node * ndev + d] = ready(ends, parents, d);
                            continue;
                        };
                        let stream = StreamId::new(DeviceId(d), l.lane);
                        let e = match l.split {
                            // Interior cells read no halo layer, so that
                            // share starts once the *non-halo* inputs (plus
                            // the halo's own input readiness, for
                            // transitive ordering) are done; the boundary
                            // share waits only for the last chunk
                            // *arriving* into this device — never for its
                            // outgoing sends. Both spans ride the same
                            // lane, so they serialize like a split launch.
                            Some((interior, bnd)) => {
                                let mut e0 = t0;
                                let mut arrive = t0;
                                for &p in parents {
                                    if graph.node(p).is_halo() {
                                        e0 = e0.max(h_ready[p * ndev + d]);
                                        arrive = arrive.max(h_arrive[p * ndev + d]);
                                    } else {
                                        e0 = e0.max(ends[p * ndev + d]);
                                    }
                                }
                                let (int_name, bnd_name) = &self.split_names[node];
                                let (_, ie) = queue.enqueue_from(
                                    stream,
                                    e0,
                                    interior,
                                    int_name,
                                    SpanKind::Kernel,
                                );
                                let at = ie.max(arrive);
                                queue
                                    .enqueue_from(stream, at, bnd, bnd_name, SpanKind::Kernel)
                                    .1
                            }
                            None => {
                                let at = ready(ends, parents, d);
                                let name = &graph.node(node).name;
                                queue
                                    .enqueue_from(stream, at, l.dur, name, SpanKind::Kernel)
                                    .1
                            }
                        };
                        report.kernel_time += l.dur;
                        dev_kernel[d] += l.dur;
                        report.launches += 1;
                        report.bytes_moved += l.bytes;
                        report.redundant_flops += l.redundant;
                        ends[node * ndev + d] = e;
                    }
                    if let Some(sync) = finalize {
                        // Folding partials into the host value synchronizes
                        // the devices and pays a host round trip.
                        let row = &mut ends[node * ndev..(node + 1) * ndev];
                        let gmax = row.iter().copied().fold(t0, SimTime::max) + sync;
                        report.host_time += sync;
                        row.fill(gmax);
                    }
                }
                Step::Halo { node, first, end } => {
                    self.begin_halo(plan, node, ends, lanes, h_ready, verdicts, t0);
                    report.halo_rounds += 1;
                    let name = &graph.node(node).name;
                    for t in &self.transfers[first..end] {
                        let (verdict, nth) = consult(injector, verdicts, xfer_seen, t.dst);
                        let earliest = lanes[t.src].max(lanes[t.dst]);
                        let stream = StreamId::new(DeviceId(t.src), t.lane);
                        let res = &self.res[t.res.0 as usize..t.res.1 as usize];
                        let chunks = &self.chunks[t.chunks.0 as usize..t.chunks.1 as usize];
                        // A retry verdict lands on the faulted chunk's own
                        // slot (`nth` mod the chunk count), other chunks
                        // ride clean; an escaped chunk aborts the rest of
                        // the payload.
                        let fault_chunk = nth as usize % chunks.len();
                        for (k, c) in chunks.iter().enumerate() {
                            let v = if k == fault_chunk {
                                verdict
                            } else {
                                FaultVerdict::Clean
                            };
                            let (s, e) = queue.enqueue_transfer_with_faults(
                                stream,
                                earliest,
                                c.dur,
                                res,
                                c.bytes,
                                name,
                                SpanKind::Transfer,
                                v,
                                backoff,
                            );
                            report.transfer_time += e - s;
                            lanes[ndev + t.dst] = lanes[ndev + t.dst].max(e);
                            lanes[2 * ndev + t.src] = lanes[2 * ndev + t.src].max(e);
                            if matches!(v, FaultVerdict::Escaped { .. }) {
                                break;
                            }
                        }
                        if matches!(verdict, FaultVerdict::Escaped { .. }) {
                            // The destination never receives a clean
                            // payload; the iteration is aborting.
                            break;
                        }
                    }
                    self.end_halo(node, ends, lanes, h_arrive);
                }
                Step::Migrate { node, first, end } => {
                    // Pages migrate on first touch in the consuming kernel:
                    // the cost lands on the DESTINATION device's compute
                    // lane (lane 0), serializing with kernels — OCC cannot
                    // hide it.
                    self.begin_halo(plan, node, ends, lanes, h_ready, verdicts, t0);
                    report.halo_rounds += 1;
                    for m in &self.migrations[first..end] {
                        let (verdict, _) = consult(injector, verdicts, xfer_seen, m.dst);
                        let mut earliest = lanes[m.src].max(lanes[m.dst]);
                        match verdict {
                            FaultVerdict::Escaped { .. } => break,
                            // Failed migrations repeat the sweep and pay
                            // the backoff before the clean pass.
                            FaultVerdict::Recovered { failed_attempts } => {
                                if let Some(inj) = injector {
                                    earliest = earliest
                                        + inj.policy().backoff_total(failed_attempts)
                                        + SimTime::from_us(m.dur.as_us() * failed_attempts as f64);
                                }
                            }
                            FaultVerdict::Clean => {}
                        }
                        let (_, e) = queue.enqueue_from(
                            StreamId::new(DeviceId(m.dst), 0),
                            earliest,
                            m.dur,
                            &self.um_names[node],
                            SpanKind::Transfer,
                        );
                        report.transfer_time += m.dur;
                        lanes[ndev + m.dst] = lanes[ndev + m.dst].max(e);
                        lanes[2 * ndev + m.src] = lanes[2 * ndev + m.src].max(e);
                    }
                    self.end_halo(node, ends, lanes, h_arrive);
                }
                Step::Host { node, sync } => {
                    // Host steps synchronize against every parent on every
                    // device, pay a sync + host overhead, and gate everyone.
                    let earliest = plan
                        .data_parents(node)
                        .iter()
                        .flat_map(|&p| &ends[p * ndev..(p + 1) * ndev])
                        .copied()
                        .fold(t0, SimTime::max);
                    let stream = StreamId::new(DeviceId(0), self.host_lane);
                    let name = &graph.node(node).name;
                    let (_, e) = queue.enqueue_from(stream, earliest, sync, name, SpanKind::Host);
                    report.host_time += sync;
                    ends[node * ndev..(node + 1) * ndev].fill(e);
                }
                Step::Collective { node, schedule } => {
                    // Per-device readiness: a device joins the collective as
                    // soon as ITS parents are done — no global barrier.
                    let parents = plan.data_parents(node);
                    lanes.clear();
                    lanes.extend((0..ndev).map(|d| ready(ends, parents, d)));
                    report.collective_time += self.collectives[schedule].run(
                        queue,
                        lanes,
                        self.collective_lane,
                        &graph.node(node).name,
                        collective,
                    );
                    ends[node * ndev..(node + 1) * ndev].copy_from_slice(collective.done());
                }
            }
            if let Some(site) = injector.and_then(|i| i.escape_site()) {
                // The iteration is aborting: the rest of it never runs, so
                // later operations must not advance the clock or consume
                // fault specs (the injector also stops matching once the
                // escape marker is set — stopping here just saves the work).
                return Some(Abort { task, site });
            }
        }
        None
    }

    /// Stage a halo node's per-device input readiness into `lanes`
    /// (`[constraint | into | from]`, each `ndev` wide) and reset the
    /// node's per-destination verdicts.
    #[allow(clippy::too_many_arguments)]
    fn begin_halo(
        &self,
        plan: &CompiledPlan,
        node: usize,
        ends: &[SimTime],
        lanes: &mut Vec<SimTime>,
        h_ready: &mut [SimTime],
        verdicts: &mut Vec<Option<(FaultVerdict, u32)>>,
        t0: SimTime,
    ) {
        let ndev = self.ndev;
        let parents = plan.data_parents(node);
        lanes.clear();
        lanes.resize(3 * ndev, t0);
        for d in 0..ndev {
            let c = parents
                .iter()
                .map(|&p| ends[p * ndev + d])
                .fold(t0, SimTime::max);
            lanes[d] = c;
            lanes[ndev + d] = c;
            lanes[2 * ndev + d] = c;
            if self.chunked {
                h_ready[node * ndev + d] = c;
            }
        }
        verdicts.clear();
        verdicts.resize(ndev, None);
    }

    /// A halo node completes on a device once everything into and out of
    /// it has landed.
    fn end_halo(
        &self,
        node: usize,
        ends: &mut [SimTime],
        lanes: &[SimTime],
        h_arrive: &mut [SimTime],
    ) {
        let ndev = self.ndev;
        for d in 0..ndev {
            ends[node * ndev + d] = lanes[ndev + d].max(lanes[2 * ndev + d]);
            if self.chunked {
                // Consumers' boundary spans gate on arrivals only; `ends`
                // keeps the conservative epoch meaning for every other
                // consumer kind.
                h_arrive[node * ndev + d] = lanes[ndev + d];
            }
        }
    }
}

/// One transfer-fault verdict per destination device per halo node: the
/// first descriptor into a destination carries the retry cost, later ones
/// ride clean. The returned `nth` is the observation's per-device
/// occurrence index, which selects the chunk the verdict is charged to.
fn consult(
    injector: Option<&Arc<FaultInjector>>,
    verdicts: &mut [Option<(FaultVerdict, u32)>],
    xfer_seen: &mut [u32],
    dst: usize,
) -> (FaultVerdict, u32) {
    let Some(inj) = injector else {
        return (FaultVerdict::Clean, 0);
    };
    match verdicts[dst] {
        Some((_, nth)) => (FaultVerdict::Clean, nth),
        None => {
            let nth = xfer_seen[dst];
            xfer_seen[dst] += 1;
            let verdict = inj.observe(DeviceId(dst), FaultSiteKind::Transfer);
            verdicts[dst] = Some((verdict, nth));
            (verdict, nth)
        }
    }
}

#[cfg(test)]
mod tests {
    use neon_set::{Container, DataView};
    use neon_sys::Backend;

    use crate::exec::ExecError;
    use crate::graph::{Graph, Node, NodeKind};
    use crate::plan::CompiledPlan;
    use crate::schedule::build_schedule;
    use crate::skeleton::{Skeleton, SkeletonOptions};

    #[test]
    fn a_compute_node_without_iteration_space_fails_every_execution() {
        let mut g = Graph::new();
        let spaceless = Container::host("spaceless", 2, |_| Box::new(|| {}));
        g.add_node(Node::new(
            "spaceless",
            NodeKind::Compute {
                container: spaceless,
                view: DataView::Standard,
                reduce_init: false,
                reduce_finalize: false,
            },
        ));
        let schedule = build_schedule(&g, 1);
        let plan = CompiledPlan::from_parts(g, schedule);
        let options = SkeletonOptions {
            trace: true,
            ..Default::default()
        };
        let mut sk = Skeleton::from_plan(&Backend::dgx_a100(2), "spaceless", plan, options, false);
        for _ in 0..2 {
            match sk.try_run() {
                Err(ExecError::MissingIterationSpace { node }) => assert_eq!(node, "spaceless"),
                other => panic!("expected MissingIterationSpace, got {other:?}"),
            }
        }
        let trace = sk.take_trace().expect("tracing is on");
        assert!(trace.spans().is_empty(), "nothing enqueued");
    }
}
