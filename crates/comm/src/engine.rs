//! Timing schedules for the collectives on a [`QueueSim`] virtual clock.
//!
//! The engine turns one collective call into a set of transfer spans on the
//! participating devices' collective lanes. Every span goes through
//! [`QueueSim::enqueue_transfer`] with the link resources named by the
//! [`Topology`], so shared physical links (the PCIe host root complex)
//! serialize concurrent steps while dedicated NVLink pairs overlap freely.
//!
//! Large payloads are **pipelined**: each logical step is split into
//! chunks by [`EngineConfig::chunks`] (a [`ChunkPolicy`]), and a chunk of
//! step `t+1` may start as soon as that chunk of step `t` has arrived —
//! the classic bandwidth optimization that lets a ring approach link rate
//! instead of paying the full store-and-forward delay per step.
//!
//! A collective is priced in two halves. [`CollectiveEngine::lower`] chooses
//! the algorithm once and emits a [`CollectiveSchedule`]: a flat list of
//! pre-priced chunk sends (duration, bytes, link resources, which readiness
//! slot each send waits for and which it feeds). [`CollectiveSchedule::run`]
//! replays that list into caller-owned [`CollectiveScratch`] and allocates
//! nothing, so an executor lowers each collective node once and replays it
//! every iteration. [`CollectiveEngine::schedule`] is `lower` + `run` for
//! one-off calls.
//!
//! Only *timing* lives here; the data semantics are in [`crate::buffers`].
//! Reduction compute time is folded into the link latency term, as in the
//! rest of the simulator's calibration.
//!
//! [`QueueSim`]: neon_sys::QueueSim
//! [`QueueSim::enqueue_transfer`]: neon_sys::QueueSim::enqueue_transfer
//! [`Topology`]: neon_sys::Topology

use std::sync::Arc;

use neon_sys::clock::SimTime;
use neon_sys::queue::{QueueSim, StreamId};
use neon_sys::topology::Topology;
use neon_sys::trace::SpanKind;
use neon_sys::{DeviceId, FaultSiteKind, FaultVerdict};

use crate::algorithm::{choose, Algorithm, CollectiveKind};
use crate::chunk::ChunkPolicy;

/// Tunables of a [`CollectiveEngine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Force a specific algorithm; `None` selects automatically per call.
    pub algorithm: Option<Algorithm>,
    /// Pipelining granularity: how each step is split into chunks.
    pub chunks: ChunkPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            algorithm: None,
            chunks: ChunkPolicy::DEFAULT,
        }
    }
}

/// Result of scheduling one collective.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveTiming {
    /// Algorithm that was actually used.
    pub algorithm: Algorithm,
    /// Per-device completion time (when the result is usable on the device).
    pub done: Vec<SimTime>,
    /// Total link-occupied time: the sum of the collective's own span
    /// durations (`end − start` of every send, failed attempts of an
    /// escaped send included). Idle waits for late inputs do not count.
    pub busy: SimTime,
}

impl CollectiveTiming {
    /// The collective's overall completion time.
    pub fn makespan(&self) -> SimTime {
        self.done.iter().copied().fold(SimTime::ZERO, SimTime::max)
    }
}

/// Where a lowered send takes its ready time from.
#[derive(Debug, Clone, Copy)]
enum ReadyFrom {
    /// A `device × chunk` slot of the live readiness table.
    Slot(u32),
    /// The same slot as it stood at the start of the current ring step.
    Prev(u32),
    /// The latest chunk of a device (a root scattering its result).
    Device(u32),
    /// The host staging point (every upload has landed).
    Host,
}

/// How a lowered send's arrival updates the readiness table.
#[derive(Debug, Clone, Copy)]
enum ArriveInto {
    /// A reduce combines with the receiver's operand: keep the later time.
    Max(u32),
    /// A broadcast replaces it.
    Set(u32),
    /// A scattered shard lands on every chunk of the device.
    Device(u32),
    /// An upload to the host staging point.
    Host,
}

/// The trace label of a lowered send, formatted only when tracing.
#[derive(Debug, Clone, Copy)]
enum Label {
    Ring { step: u32, k: u32 },
    Tree { dir: &'static str, k: u32 },
    Scatter,
    HierScatter,
    D2h,
    H2d,
}

/// One pre-priced transfer of a lowered collective.
#[derive(Debug, Clone, Copy)]
struct Send {
    /// Device whose collective lane carries the send.
    src: u32,
    /// Device the fault injector observes the send on (the receiver; the
    /// staging device for host copies).
    dst: u32,
    dur: SimTime,
    bytes: u64,
    /// Staged through the host (its root complex) instead of a peer link.
    via_host: bool,
    from: ReadyFrom,
    into: ArriveInto,
    label: Label,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Snapshot the readiness table (a ring step reads its inputs as they
    /// stood before the step's own arrivals).
    Snapshot,
    Send(Send),
}

/// One collective lowered for a fixed topology, kind and payload: the
/// algorithm is chosen once and every transfer is priced once, so a
/// replay only does max/add over a flat send list.
#[derive(Debug, Clone)]
pub struct CollectiveSchedule {
    topo: Arc<Topology>,
    algorithm: Algorithm,
    /// Chunks per device in the readiness table.
    chunks: usize,
    ops: Vec<Op>,
}

/// Caller-owned scratch for [`CollectiveSchedule::run`]: reused across
/// runs, so a warm replay allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct CollectiveScratch {
    ready: Vec<SimTime>,
    prev: Vec<SimTime>,
    done: Vec<SimTime>,
}

impl CollectiveScratch {
    /// Per-device completion times of the most recent run.
    pub fn done(&self) -> &[SimTime] {
        &self.done
    }
}

impl CollectiveSchedule {
    /// The algorithm the schedule was lowered with.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// Replay the schedule on `q`.
    ///
    /// `earliest[d]` is the time device `d`'s contribution is ready; spans
    /// are enqueued on stream `lane` of each device and labelled after
    /// `name` (formatted only when `q` records a trace). Per-device
    /// completion times land in [`CollectiveScratch::done`]; the return
    /// value is the collective's busy time (see [`CollectiveTiming::busy`]).
    /// With a single device this is a no-op completing at `earliest[0]`.
    pub fn run(
        &self,
        q: &mut QueueSim,
        earliest: &[SimTime],
        lane: usize,
        name: &str,
        scratch: &mut CollectiveScratch,
    ) -> SimTime {
        let n = self.topo.num_devices();
        assert_eq!(earliest.len(), n, "one ready time per device");
        let c = self.chunks;
        let CollectiveScratch { ready, prev, done } = scratch;
        done.clear();
        if n <= 1 {
            done.extend_from_slice(earliest);
            return SimTime::ZERO;
        }
        ready.clear();
        ready.extend(earliest.iter().flat_map(|&t| std::iter::repeat_n(t, c)));
        let mut host = SimTime::ZERO;
        let mut busy = SimTime::ZERO;
        for op in &self.ops {
            let s = match op {
                Op::Snapshot => {
                    prev.clear();
                    prev.extend_from_slice(ready);
                    continue;
                }
                Op::Send(s) => s,
            };
            let at = match s.from {
                ReadyFrom::Slot(i) => ready[i as usize],
                ReadyFrom::Prev(i) => prev[i as usize],
                ReadyFrom::Device(d) => {
                    let d = d as usize;
                    ready[d * c..(d + 1) * c]
                        .iter()
                        .copied()
                        .fold(SimTime::ZERO, SimTime::max)
                }
                ReadyFrom::Host => host,
            };
            let (start, end) = self.send_chunk(q, s, at, lane, name);
            busy += end - start;
            match s.into {
                ArriveInto::Max(i) => ready[i as usize] = ready[i as usize].max(end),
                ArriveInto::Set(i) => ready[i as usize] = end,
                ArriveInto::Device(d) => {
                    let d = d as usize;
                    ready[d * c..(d + 1) * c].fill(end);
                }
                ArriveInto::Host => host = host.max(end),
            }
        }
        // The later of each device's last chunk arrival and its own lane
        // clock (its sends must retire too).
        done.extend((0..n).map(|d| {
            ready[d * c..(d + 1) * c]
                .iter()
                .copied()
                .fold(q.now(StreamId::new(DeviceId(d), lane)), SimTime::max)
        }));
        busy
    }

    /// Enqueue one chunk through the fault-aware queue path. When the queue
    /// carries a fault injector, the chunk is observed as a
    /// [`FaultSiteKind::Link`] operation on `s.dst`: transient verdicts
    /// charge the failed attempts plus exponential backoff on the sender's
    /// lane at **chunk granularity** (only the faulted chunk repeats, the
    /// rest of the step streams on), and an escaped verdict marks the
    /// injector's escape site without ever occupying the wire — the
    /// executor aborts the iteration before the collective commits.
    fn send_chunk(
        &self,
        q: &mut QueueSim,
        s: &Send,
        ready: SimTime,
        lane: usize,
        name: &str,
    ) -> (SimTime, SimTime) {
        let (verdict, backoff) = match q.fault_injector() {
            Some(inj) => (
                inj.observe(DeviceId(s.dst as usize), FaultSiteKind::Link),
                inj.policy().backoff,
            ),
            None => (FaultVerdict::Clean, SimTime::ZERO),
        };
        let label = q.trace().map_or_else(String::new, |_| s.label(name));
        let (src, dst) = (DeviceId(s.src as usize), DeviceId(s.dst as usize));
        let res = match s.via_host {
            true => self.topo.host_resources(),
            false => self.topo.link_resources(src, dst),
        };
        q.enqueue_transfer_with_faults(
            StreamId::new(src, lane),
            ready,
            s.dur,
            res,
            s.bytes,
            &label,
            SpanKind::Collective,
            verdict,
            backoff,
        )
    }
}

impl Send {
    fn label(&self, name: &str) -> String {
        let (src, dst) = (self.src, self.dst);
        match self.label {
            Label::Ring { step, k } => format!("{name}:ring{step}.{k}:{src}->{dst}"),
            Label::Tree { dir, k } => format!("{name}:{dir}.{k}:{src}->{dst}"),
            Label::Scatter => format!("{name}:scatter:{src}->{dst}"),
            Label::HierScatter => format!("{name}:hier-scatter:{src}->{dst}"),
            Label::D2h => format!("{name}:d2h:{dst}"),
            Label::H2d => format!("{name}:h2d:{dst}"),
        }
    }
}

/// Schedules collectives over a fixed topology. The topology is shared,
/// not copied: an engine over a backend's `Arc<Topology>` costs no link
/// matrix.
#[derive(Debug, Clone)]
pub struct CollectiveEngine {
    topo: Arc<Topology>,
    config: EngineConfig,
}

impl CollectiveEngine {
    /// Engine with default configuration (automatic algorithm selection).
    pub fn new(topo: impl Into<Arc<Topology>>) -> Self {
        Self::with_config(topo, EngineConfig::default())
    }

    /// Engine with an explicit configuration.
    pub fn with_config(topo: impl Into<Arc<Topology>>, config: EngineConfig) -> Self {
        CollectiveEngine {
            topo: topo.into(),
            config,
        }
    }

    /// The topology this engine schedules against.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The algorithm that will be used for a payload of `bytes`.
    pub fn select(&self, kind: CollectiveKind, bytes: u64) -> Algorithm {
        self.config
            .algorithm
            .unwrap_or_else(|| choose(kind, bytes, &self.topo))
    }

    /// Schedule one collective of `bytes` total payload on `q`: a one-off
    /// [`CollectiveEngine::lower`] followed by [`CollectiveSchedule::run`].
    ///
    /// `earliest[d]` is the time device `d`'s contribution is ready; spans
    /// are enqueued on stream `lane` of each device. Returns per-device
    /// completion times. With a single device this is a no-op completing at
    /// `earliest[0]`.
    pub fn schedule(
        &self,
        q: &mut QueueSim,
        kind: CollectiveKind,
        bytes: u64,
        earliest: &[SimTime],
        lane: usize,
        name: &str,
    ) -> CollectiveTiming {
        let lowered = self.lower(kind, bytes);
        let mut scratch = CollectiveScratch::default();
        let busy = lowered.run(q, earliest, lane, name, &mut scratch);
        CollectiveTiming {
            algorithm: lowered.algorithm,
            done: scratch.done,
            busy,
        }
    }

    /// Lower one collective of `bytes` total payload: choose the algorithm
    /// once and price every chunk send. The schedule replays any number of
    /// times against this engine's topology.
    pub fn lower(&self, kind: CollectiveKind, bytes: u64) -> CollectiveSchedule {
        let algorithm = self.select(kind, bytes);
        let n = self.topo.num_devices();
        let step_bytes = match (algorithm, kind) {
            (Algorithm::Ring, CollectiveKind::Broadcast) => bytes,
            (Algorithm::Ring, _) => bytes.div_ceil(n as u64),
            _ => bytes,
        };
        let (c, cb) = match algorithm {
            Algorithm::HostStaged => (1, bytes),
            _ => self.config.chunks.chunks(step_bytes),
        };
        // Upper bounds on the op count, so lowering never regrows the list.
        let ops = match algorithm {
            Algorithm::HostStaged => 2 * n,
            Algorithm::Ring => 2 * n * (n * c + 1),
            Algorithm::Tree | Algorithm::Hierarchical => 2 * n * c + n,
        };
        let mut l = Lowering {
            topo: &self.topo,
            chunks: c,
            ops: Vec::with_capacity(if n > 1 { ops } else { 0 }),
        };
        if n > 1 {
            match algorithm {
                Algorithm::HostStaged => l.host_staged(kind, bytes),
                Algorithm::Ring => l.ring(kind, cb),
                Algorithm::Tree => l.tree(kind, bytes, cb),
                Algorithm::Hierarchical => l.hierarchical(kind, bytes, cb),
            }
        }
        CollectiveSchedule {
            topo: Arc::clone(&self.topo),
            algorithm,
            chunks: c,
            ops: l.ops,
        }
    }
}

/// The lowering of one collective: appends priced sends in replay order.
struct Lowering<'a> {
    topo: &'a Topology,
    chunks: usize,
    ops: Vec<Op>,
}

impl Lowering<'_> {
    /// The `device × chunk` slot of chunk `k` on device `d`.
    fn slot(&self, d: usize, k: usize) -> u32 {
        (d * self.chunks + k) as u32
    }

    #[allow(clippy::too_many_arguments)]
    fn send(
        &mut self,
        src: usize,
        dst: usize,
        dur: SimTime,
        via_host: bool,
        bytes: u64,
        from: ReadyFrom,
        into: ArriveInto,
        label: Label,
    ) {
        self.ops.push(Op::Send(Send {
            src: src as u32,
            dst: dst as u32,
            dur,
            bytes,
            via_host,
            from,
            into,
            label,
        }));
    }

    /// Ring schedule. All-reduce runs `2(n−1)` shard steps (reduce-scatter
    /// phase then all-gather phase); reduce-scatter / all-gather run one
    /// phase; broadcast pipelines the payload along the ring. A chunk of
    /// step `t+1` may start as soon as that chunk of step `t` has arrived.
    fn ring(&mut self, kind: CollectiveKind, chunk_bytes: u64) {
        let topo = self.topo;
        let n = topo.num_devices();
        let steps = match kind {
            CollectiveKind::AllReduce => 2 * (n - 1),
            _ => n - 1,
        };
        for step in 0..steps {
            self.ops.push(Op::Snapshot);
            for src in 0..n {
                // Broadcast flows strictly root→…→last; reductions use the
                // full ring every step.
                if kind == CollectiveKind::Broadcast && src != step {
                    continue;
                }
                let dst = (src + 1) % n;
                let (s, d) = (DeviceId(src), DeviceId(dst));
                let dur = topo.transfer_time(s, d, chunk_bytes);
                for k in 0..self.chunks {
                    self.send(
                        src,
                        dst,
                        dur,
                        false,
                        chunk_bytes,
                        ReadyFrom::Prev(self.slot(src, k)),
                        ArriveInto::Max(self.slot(dst, k)),
                        Label::Ring {
                            step: step as u32,
                            k: k as u32,
                        },
                    );
                }
            }
        }
    }

    /// Binomial-tree schedule: reduce to rank 0 in `⌈log₂ n⌉` rounds, then
    /// broadcast back out in the mirror order. Broadcast-only collectives
    /// run just the second half; reduce-scatter runs the first half plus a
    /// shard scatter from the root.
    fn tree(&mut self, kind: CollectiveKind, bytes: u64, chunk_bytes: u64) {
        let n = self.topo.num_devices();
        let mut r = 1;
        if needs_reduce(kind) {
            while r < n {
                for dst in (0..n).step_by(2 * r) {
                    let src = dst + r;
                    if src < n {
                        self.tree_send(src, dst, chunk_bytes, "tree-up", true);
                    }
                }
                r *= 2;
            }
        } else {
            while r < n {
                r *= 2;
            }
        }
        match kind {
            CollectiveKind::AllReduce | CollectiveKind::Broadcast | CollectiveKind::AllGather => {
                while r > 1 {
                    r /= 2;
                    for src in (0..n).step_by(2 * r) {
                        let dst = src + r;
                        if dst < n {
                            self.tree_send(src, dst, chunk_bytes, "tree-down", false);
                        }
                    }
                }
            }
            CollectiveKind::ReduceScatter => {
                self.scatter(0, bytes.div_ceil(n as u64), Label::Scatter);
            }
        }
    }

    /// Every chunk from `src` to `dst`: a reduce (`combine`) keeps the
    /// later of the arrival and the receiver's operand, a broadcast
    /// replaces it.
    fn tree_send(
        &mut self,
        src: usize,
        dst: usize,
        chunk_bytes: u64,
        dir: &'static str,
        combine: bool,
    ) {
        let topo = self.topo;
        let (s, d) = (DeviceId(src), DeviceId(dst));
        let dur = topo.transfer_time(s, d, chunk_bytes);
        for k in 0..self.chunks {
            let to = self.slot(dst, k);
            self.send(
                src,
                dst,
                dur,
                false,
                chunk_bytes,
                ReadyFrom::Slot(self.slot(src, k)),
                if combine {
                    ArriveInto::Max(to)
                } else {
                    ArriveInto::Set(to)
                },
                Label::Tree { dir, k: k as u32 },
            );
        }
    }

    /// The root scatters shard-sized results to every other rank once all
    /// of its chunks are in.
    fn scatter(&mut self, root: usize, shard: u64, label: Label) {
        let topo = self.topo;
        for dst in (0..topo.num_devices()).filter(|&d| d != root) {
            let (s, d) = (DeviceId(root), DeviceId(dst));
            self.send(
                root,
                dst,
                topo.transfer_time(s, d, shard),
                false,
                shard,
                ReadyFrom::Device(root as u32),
                ArriveInto::Device(dst as u32),
                label,
            );
        }
    }

    /// Hierarchical schedule: binomial reduce to each NVLink island's
    /// leader over the island's dedicated links (islands overlap), a
    /// sequential representative exchange across the slow cross-island
    /// links (they share the host root complex, so a sequential schedule
    /// costs the same serialization without arbitration penalties), then
    /// binomial broadcast back inside each island. The slow path is
    /// crossed `2(r−1)` times for `r` islands — the spanning minimum —
    /// instead of on every flat ring/tree step. Degenerates gracefully:
    /// one island is a plain binomial tree, all-singleton islands a
    /// sequential leader exchange; island sizes may be arbitrary (uneven,
    /// non-power-of-two survivor subsets included).
    fn hierarchical(&mut self, kind: CollectiveKind, bytes: u64, chunk_bytes: u64) {
        let n = self.topo.num_devices();
        let islands = self.topo.islands();
        // Leaders: each island's smallest member. Island 0 contains device
        // 0, so the global root is rank 0 — same convention as the flat
        // algorithms.
        let leaders: Vec<usize> = islands.iter().map(|i| i[0].0).collect();
        if needs_reduce(kind) {
            for island in &islands {
                self.island_sweep(island, chunk_bytes, true);
            }
            for &l in leaders.iter().skip(1) {
                self.tree_send(l, leaders[0], chunk_bytes, "inter-up", true);
            }
        }
        match kind {
            CollectiveKind::AllReduce | CollectiveKind::Broadcast | CollectiveKind::AllGather => {
                for &l in leaders.iter().skip(1) {
                    self.tree_send(leaders[0], l, chunk_bytes, "inter-down", false);
                }
                for island in &islands {
                    self.island_sweep(island, chunk_bytes, false);
                }
            }
            CollectiveKind::ReduceScatter => {
                // The global root scatters shard-sized results directly.
                self.scatter(leaders[0], bytes.div_ceil(n as u64), Label::HierScatter);
            }
        }
    }

    /// One binomial sweep inside an island: `combine == true` reduces the
    /// members onto the leader (`island[0]`), `combine == false`
    /// broadcasts the leader's payload out in mirror order. Positions are
    /// island-relative, so arbitrary (renumbered, uneven) member sets
    /// work.
    fn island_sweep(&mut self, island: &[DeviceId], chunk_bytes: u64, combine: bool) {
        let m = island.len();
        let mut r = 1;
        if combine {
            while r < m {
                for i in (0..m).step_by(2 * r) {
                    if i + r < m {
                        let (src, dst) = (island[i + r].0, island[i].0);
                        self.tree_send(src, dst, chunk_bytes, "intra-up", true);
                    }
                }
                r *= 2;
            }
        } else {
            while r < m {
                r *= 2;
            }
            while r > 1 {
                r /= 2;
                for i in (0..m).step_by(2 * r) {
                    if i + r < m {
                        let (src, dst) = (island[i].0, island[i + r].0);
                        self.tree_send(src, dst, chunk_bytes, "intra-down", false);
                    }
                }
            }
        }
    }

    /// Host-staged schedule: every device copies its payload to the host,
    /// then copies the combined result back. All copies share the host root
    /// complex, so concurrent ones serialize (with arbitration penalties) —
    /// exactly the naive baseline the peer algorithms exist to beat. A
    /// device is done when its download (its lane's last span) retires.
    fn host_staged(&mut self, kind: CollectiveKind, bytes: u64) {
        let topo = self.topo;
        let n = topo.num_devices();
        let shard = bytes.div_ceil(n as u64);
        // A broadcast uploads only the root's payload.
        let (uploads, up_bytes, down_bytes) = match kind {
            CollectiveKind::AllReduce => (n, bytes, bytes),
            CollectiveKind::ReduceScatter => (n, bytes, shard),
            CollectiveKind::AllGather => (n, shard, bytes),
            CollectiveKind::Broadcast => (1, bytes, bytes),
        };
        let dur = topo.host_transfer_time(up_bytes);
        for d in 0..uploads {
            let slot = self.slot(d, 0);
            let (from, into) = (ReadyFrom::Slot(slot), ArriveInto::Host);
            self.send(d, d, dur, true, up_bytes, from, into, Label::D2h);
        }
        let dur = topo.host_transfer_time(down_bytes);
        for d in 0..n {
            if kind == CollectiveKind::Broadcast && d == 0 {
                continue;
            }
            let into = ArriveInto::Set(self.slot(d, 0));
            self.send(
                d,
                d,
                dur,
                true,
                down_bytes,
                ReadyFrom::Host,
                into,
                Label::H2d,
            );
        }
    }
}

/// Whether `kind` combines partials (and so runs a reduce phase).
fn needs_reduce(kind: CollectiveKind) -> bool {
    matches!(
        kind,
        CollectiveKind::AllReduce | CollectiveKind::ReduceScatter | CollectiveKind::AllGather
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zeros(n: usize) -> Vec<SimTime> {
        vec![SimTime::ZERO; n]
    }

    fn run(
        topo: Topology,
        alg: Algorithm,
        kind: CollectiveKind,
        bytes: u64,
    ) -> (CollectiveTiming, QueueSim) {
        let n = topo.num_devices();
        let mut q = QueueSim::new(n, 1);
        let engine = CollectiveEngine::with_config(
            topo,
            EngineConfig {
                algorithm: Some(alg),
                ..EngineConfig::default()
            },
        );
        let t = engine.schedule(&mut q, kind, bytes, &zeros(n), 0, "ar");
        (t, q)
    }

    #[test]
    fn ring_beats_host_staged_on_8_dev_nvlink() {
        for bytes in [8u64, 1 << 10, 1 << 20, 64 << 20] {
            let (ring, _) = run(
                Topology::nvlink_all_to_all(8, 1555.0),
                Algorithm::Ring,
                CollectiveKind::AllReduce,
                bytes,
            );
            let (host, _) = run(
                Topology::nvlink_all_to_all(8, 1555.0),
                Algorithm::HostStaged,
                CollectiveKind::AllReduce,
                bytes,
            );
            assert!(
                ring.makespan() < host.makespan(),
                "{bytes} B: ring {} !< host-staged {}",
                ring.makespan(),
                host.makespan()
            );
        }
    }

    #[test]
    fn tree_beats_ring_for_tiny_nvlink_payloads() {
        let (tree, _) = run(
            Topology::nvlink_all_to_all(8, 1555.0),
            Algorithm::Tree,
            CollectiveKind::AllReduce,
            8,
        );
        let (ring, _) = run(
            Topology::nvlink_all_to_all(8, 1555.0),
            Algorithm::Ring,
            CollectiveKind::AllReduce,
            8,
        );
        assert!(tree.makespan() < ring.makespan());
    }

    #[test]
    fn ring_all_reduce_has_expected_step_count() {
        // 4 devices, tiny payload, no chunk split: 2·3 steps of ≥ latency
        // each, overlapped across devices ⇒ makespan ≈ 6 × 9.5 µs.
        let (t, _) = run(
            Topology::nvlink_all_to_all(4, 1555.0),
            Algorithm::Ring,
            CollectiveKind::AllReduce,
            8,
        );
        let us = t.makespan().as_us();
        assert!((us - 6.0 * 9.5).abs() < 1.0, "got {us}");
    }

    #[test]
    fn pipelining_helps_large_chained_broadcasts() {
        // A store-and-forward chain pays the full payload per hop; chunking
        // lets hop `h+1` forward chunk 0 while chunk 1 is still arriving.
        let topo = Topology::nvlink_all_to_all(4, 1555.0);
        let bytes = 64 << 20;
        let (piped, _) = run(
            topo.clone(),
            Algorithm::Ring,
            CollectiveKind::Broadcast,
            bytes,
        );
        let engine = CollectiveEngine::with_config(
            topo,
            EngineConfig {
                algorithm: Some(Algorithm::Ring),
                chunks: ChunkPolicy {
                    max_chunks: 1,
                    ..ChunkPolicy::DEFAULT
                },
            },
        );
        let mut q = QueueSim::new(4, 1);
        let whole = engine.schedule(&mut q, CollectiveKind::Broadcast, bytes, &zeros(4), 0, "bc");
        assert!(
            piped.makespan() < whole.makespan(),
            "chunked {} !< unchunked {}",
            piped.makespan(),
            whole.makespan()
        );
    }

    #[test]
    fn pcie_steps_serialize_through_root_complex() {
        // On the PCIe box every ring step shares the host root complex; the
        // contention counters must show it.
        let (_, q) = run(
            Topology::pcie_host_staged(4, 870.0),
            Algorithm::Ring,
            CollectiveKind::AllReduce,
            1 << 20,
        );
        assert!(q.link_contention_events(0) > 0);
        assert!(q.link_busy_time(0) > SimTime::ZERO);
    }

    #[test]
    fn nvlink_ring_never_contends() {
        let topo = Topology::nvlink_all_to_all(4, 1555.0);
        let nres = topo.num_link_resources();
        let (_, q) = run(topo, Algorithm::Ring, CollectiveKind::AllReduce, 1 << 20);
        for r in 0..nres {
            assert_eq!(q.link_contention_events(r), 0, "resource {r} contended");
        }
    }

    #[test]
    fn respects_earliest_times() {
        let topo = Topology::nvlink_all_to_all(2, 1555.0);
        let engine = CollectiveEngine::new(topo);
        let mut q = QueueSim::new(2, 1);
        let late = SimTime::from_us(500.0);
        let t = engine.schedule(
            &mut q,
            CollectiveKind::AllReduce,
            8,
            &[SimTime::ZERO, late],
            0,
            "ar",
        );
        assert!(t.makespan() > late, "cannot finish before the last input");
    }

    #[test]
    fn single_device_is_free() {
        let topo = Topology::nvlink_all_to_all(1, 1555.0);
        let engine = CollectiveEngine::new(topo);
        let mut q = QueueSim::new(1, 1);
        let t0 = SimTime::from_us(42.0);
        let t = engine.schedule(&mut q, CollectiveKind::AllReduce, 1 << 20, &[t0], 0, "ar");
        assert_eq!(t.done, vec![t0]);
        assert_eq!(t.busy, SimTime::ZERO);
    }

    #[test]
    fn all_kinds_schedule_on_all_algorithms() {
        for alg in Algorithm::ALL {
            for kind in [
                CollectiveKind::AllReduce,
                CollectiveKind::ReduceScatter,
                CollectiveKind::AllGather,
                CollectiveKind::Broadcast,
            ] {
                let (t, _) = run(Topology::nvlink_all_to_all(3, 1555.0), alg, kind, 4 << 10);
                assert!(t.makespan() > SimTime::ZERO, "{alg}/{kind}");
                assert!(t.busy > SimTime::ZERO, "{alg}/{kind}");
                assert_eq!(t.done.len(), 3);
            }
        }
    }

    #[test]
    fn hierarchical_beats_flat_ring_on_two_islands() {
        // 2 islands × 2 devices, 16 MiB: the flat ring pays the slow PCIe
        // cross-links on 2 of its 4 edges every step; hierarchical crosses
        // them exactly twice.
        let topo = Topology::nvlink_islands(&[2, 2], 1555.0);
        let bytes = 16 << 20;
        let (hier, hq) = run(
            topo.clone(),
            Algorithm::Hierarchical,
            CollectiveKind::AllReduce,
            bytes,
        );
        let (ring, rq) = run(topo, Algorithm::Ring, CollectiveKind::AllReduce, bytes);
        assert!(
            hier.makespan().as_us() < 0.8 * ring.makespan().as_us(),
            "hierarchical {} !< 0.8 × ring {}",
            hier.makespan(),
            ring.makespan()
        );
        let hier_slow = hq.slow_link_bytes();
        let ring_slow = rq.slow_link_bytes();
        assert!(
            hier_slow < ring_slow,
            "slow-link bytes {hier_slow} !< {ring_slow}"
        );
    }

    #[test]
    fn hierarchical_handles_every_kind_on_uneven_islands() {
        for sizes in [&[3usize, 1][..], &[2, 1, 1], &[1, 4], &[2, 3, 2]] {
            for kind in [
                CollectiveKind::AllReduce,
                CollectiveKind::ReduceScatter,
                CollectiveKind::AllGather,
                CollectiveKind::Broadcast,
            ] {
                let topo = Topology::nvlink_islands(sizes, 1555.0);
                let n = topo.num_devices();
                let (t, _) = run(topo, Algorithm::Hierarchical, kind, 4 << 10);
                assert!(t.makespan() > SimTime::ZERO, "{sizes:?}/{kind}");
                assert_eq!(t.done.len(), n);
            }
        }
    }

    #[test]
    fn hierarchical_on_one_island_matches_tree() {
        let topo = Topology::nvlink_all_to_all(4, 1555.0);
        let (hier, _) = run(
            topo.clone(),
            Algorithm::Hierarchical,
            CollectiveKind::AllReduce,
            1 << 20,
        );
        let (tree, _) = run(topo, Algorithm::Tree, CollectiveKind::AllReduce, 1 << 20);
        assert_eq!(hier.makespan(), tree.makespan());
    }

    #[test]
    fn auto_selection_picks_hierarchical_on_mixed_topology() {
        let engine = CollectiveEngine::new(Topology::nvlink_islands(&[2, 2], 1555.0));
        assert_eq!(
            engine.select(CollectiveKind::AllReduce, 1 << 20),
            Algorithm::Hierarchical
        );
        let mut q = QueueSim::new(4, 1);
        let t = engine.schedule(
            &mut q,
            CollectiveKind::AllReduce,
            1 << 20,
            &zeros(4),
            0,
            "ar",
        );
        assert_eq!(t.algorithm, Algorithm::Hierarchical);
    }

    #[test]
    fn link_faults_charge_retry_at_chunk_granularity() {
        use neon_sys::{FaultInjector, FaultPlan, RetryPolicy};
        let topo = Topology::nvlink_all_to_all(4, 1555.0);
        let engine = CollectiveEngine::with_config(
            topo,
            EngineConfig {
                algorithm: Some(Algorithm::Ring),
                ..EngineConfig::default()
            },
        );
        let bytes = 8 << 20;
        let mut clean_q = QueueSim::new(4, 1);
        let clean = engine.schedule(
            &mut clean_q,
            CollectiveKind::AllReduce,
            bytes,
            &zeros(4),
            0,
            "ar",
        );
        // A recovered transient on the second chunk sent toward rank 2.
        let mut q = QueueSim::new(4, 1);
        let plan = FaultPlan::none().with_link_fault(0, DeviceId(2), 1, 1);
        let inj = FaultInjector::new(plan, RetryPolicy::default(), 4);
        inj.begin_iteration(0).unwrap();
        q.set_fault_injector(Some(inj));
        let faulted = engine.schedule(&mut q, CollectiveKind::AllReduce, bytes, &zeros(4), 0, "ar");
        assert!(
            faulted.makespan() > clean.makespan(),
            "retry must cost virtual time: {} !> {}",
            faulted.makespan(),
            clean.makespan()
        );
        let stats = q.fault_injector().unwrap().stats();
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.escaped, 0);
    }

    #[test]
    fn escaped_link_fault_marks_the_site_and_skips_the_wire() {
        use neon_sys::{FaultInjector, FaultPlan, RetryPolicy};
        let topo = Topology::nvlink_all_to_all(2, 1555.0);
        let nres = topo.num_link_resources();
        let engine = CollectiveEngine::with_config(
            topo,
            EngineConfig {
                algorithm: Some(Algorithm::Tree),
                ..EngineConfig::default()
            },
        );
        let mut q = QueueSim::new(2, 1);
        let plan = FaultPlan::none().with_link_fault(0, DeviceId(0), 0, 99);
        let inj = FaultInjector::new(plan, RetryPolicy::default(), 2);
        inj.begin_iteration(0).unwrap();
        q.set_fault_injector(Some(inj));
        engine.schedule(&mut q, CollectiveKind::AllReduce, 8, &zeros(2), 0, "ar");
        let inj = q.fault_injector().unwrap();
        let site = inj.escape_site().expect("escape recorded");
        assert_eq!(site.kind, FaultSiteKind::Link);
        assert_eq!(site.device, DeviceId(0));
        assert_eq!(inj.stats().escaped, 1);
        // The first transfer (toward the root, rank 0) escaped, so the
        // wire it would have used stays idle; later sends observe Clean.
        assert!((0..nres).any(|r| q.link_busy_time(r) == SimTime::ZERO));
    }

    #[test]
    fn clean_injector_is_bit_identical_to_no_injector() {
        use neon_sys::{FaultInjector, FaultPlan, RetryPolicy};
        for alg in Algorithm::ALL {
            let topo = Topology::nvlink_islands(&[2, 2], 1555.0);
            let engine = CollectiveEngine::with_config(
                topo,
                EngineConfig {
                    algorithm: Some(alg),
                    ..EngineConfig::default()
                },
            );
            let mut bare = QueueSim::new(4, 1);
            let a = engine.schedule(
                &mut bare,
                CollectiveKind::AllReduce,
                3 << 20,
                &zeros(4),
                0,
                "ar",
            );
            let mut faulty = QueueSim::new(4, 1);
            let inj = FaultInjector::new(FaultPlan::none(), RetryPolicy::default(), 4);
            inj.begin_iteration(0).unwrap();
            faulty.set_fault_injector(Some(inj));
            let b = engine.schedule(
                &mut faulty,
                CollectiveKind::AllReduce,
                3 << 20,
                &zeros(4),
                0,
                "ar",
            );
            assert_eq!(a, b, "{alg}");
        }
    }

    #[test]
    fn busy_sums_own_spans_not_idle_waits() {
        // An 8-device NVLink tree all-reduce: every send has a dedicated
        // wire, so busy is exactly the link-busy time it adds, and inputs
        // that arrive late only shift the spans, never lengthen them.
        let topo = Topology::nvlink_all_to_all(8, 1555.0);
        let nres = topo.num_link_resources();
        let engine = CollectiveEngine::with_config(
            topo,
            EngineConfig {
                algorithm: Some(Algorithm::Tree),
                ..EngineConfig::default()
            },
        );
        let link_busy = |q: &QueueSim| (0..nres).map(|r| q.link_busy_time(r)).sum::<SimTime>();
        let mut q = QueueSim::new(8, 1);
        let early = engine.schedule(&mut q, CollectiveKind::AllReduce, 8, &zeros(8), 0, "ar");
        let linked = link_busy(&q).as_us();
        assert!(
            (early.busy.as_us() - linked).abs() <= 1e-9 * linked,
            "busy {} != link busy {linked}",
            early.busy
        );
        let mut q = QueueSim::new(8, 1);
        let late = vec![SimTime::from_us(500.0); 8];
        let late = engine.schedule(&mut q, CollectiveKind::AllReduce, 8, &late, 0, "ar");
        assert!(late.makespan() > SimTime::from_us(500.0));
        // Equal up to the rounding of `end − start` at a later offset.
        assert!(
            (late.busy.as_us() - early.busy.as_us()).abs() <= 1e-12 * linked,
            "a late input must not count as busy: {} vs {}",
            late.busy,
            early.busy
        );
    }

    #[test]
    fn lowered_schedule_replays_like_schedule() {
        // One lowering, replayed twice into the same scratch, prices every
        // run exactly as a fresh `schedule` call on an identical queue.
        let engine = CollectiveEngine::new(Topology::nvlink_islands(&[2, 2], 1555.0));
        let lowered = engine.lower(CollectiveKind::AllReduce, 3 << 20);
        assert_eq!(lowered.algorithm(), Algorithm::Hierarchical);
        let (mut a, mut b) = (QueueSim::new(4, 1), QueueSim::new(4, 1));
        let mut scratch = CollectiveScratch::default();
        let earliest = [0.0, 3.0, 1.0, 7.0].map(SimTime::from_us);
        for _ in 0..2 {
            let t = engine.schedule(
                &mut a,
                CollectiveKind::AllReduce,
                3 << 20,
                &earliest,
                0,
                "ar",
            );
            let busy = lowered.run(&mut b, &earliest, 0, "ar", &mut scratch);
            assert_eq!(t.done, scratch.done());
            assert_eq!(t.busy, busy);
        }
    }

    #[test]
    fn auto_selection_matches_choose() {
        let topo = Topology::nvlink_all_to_all(8, 1555.0);
        let engine = CollectiveEngine::new(topo.clone());
        for bytes in [8u64, 1 << 16, 64 << 20] {
            assert_eq!(
                engine.select(CollectiveKind::AllReduce, bytes),
                crate::algorithm::choose(CollectiveKind::AllReduce, bytes, &topo)
            );
        }
    }
}
