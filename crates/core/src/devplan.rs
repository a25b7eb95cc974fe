//! Per-device task partitions and the event dependency table.
//!
//! The virtual-clock replay models per-GPU streams and events; the
//! functional replay should *realize* them. A [`DevicePlan`] is the
//! compile-time product that makes this possible without any allocation in
//! the hot loop: the compiled schedule's task list is partitioned into one
//! step list per device worker, and every cross-device ordering constraint
//! is lowered to a wait on an *event slot* — an atomic epoch counter the
//! producing step signals when it completes (paper §IV-D's stream/event
//! mapping, realized on host threads).
//!
//! ## Slot layout
//!
//! Every graph node owns `ndev + 2` consecutive slots:
//!
//! * `slot(n, d)` (`d < ndev`) — device `d`'s share of node `n` is done
//!   (kernel launch finished, or halo copies *into* `d` finished);
//! * `aux_init(n)` — node `n`'s reduction partials were reset;
//! * `aux_done(n)` — node `n`'s owner-side epilogue is done (host step,
//!   collective fold, or reduce finalize).
//!
//! A slot stores the executor epoch in which it was last signaled, so
//! nothing is cleared between iterations and stale values from an aborted
//! (panicked) replay are automatically invalid.
//!
//! ## Wait rules
//!
//! For a consumer step of node `u` running on device `d`, each data parent
//! `p` (from the precomputed parent lists) contributes:
//!
//! * `p` = host / collective / finalizing compute → `aux_done(p)`;
//! * `p` = plain compute → `slot(p, d)` — the per-device relaxation that
//!   creates real overlap: kernels only touch their own partition's
//!   storage, so device `d` never needs to wait for a parent's launch on
//!   another device;
//! * `p` = halo → `slot(p, d)` plus `slot(p, e)` for every device `e` that
//!   pulls *from* `d` — those pulls read `d`'s boundary cells, so anything
//!   that may overwrite them must wait for the remote readers too.
//!
//! Owner-side steps (reduce init/finalize, host, collective) wait
//! conservatively on every parent over every device.
//!
//! The table is a function of the schedule and the data parents alone.
//! How finely a halo payload is chunked is a pricing decision of the
//! timing replay ([`CommMode::ChunkEvents`]), not an ordering one: a pull
//! lands whole before its slot is signalled, so per-chunk slots would
//! order nothing the whole-pull slot does not.
//!
//! Deadlock freedom: each worker walks its steps in schedule order, and a
//! step only waits on slots of earlier tasks or on the fixed intra-task
//! chain `init → kernels → finalize` — induction over the task index.
//!
//! [`CommMode::ChunkEvents`]: crate::exec::CommMode::ChunkEvents

use crate::graph::{Graph, NodeId, NodeKind};
use crate::schedule::Schedule;

/// What a single per-device step executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DevAction {
    /// Reset reduction partials (owner only, before the kernels).
    ReduceInit,
    /// Run the node's compute lambda over this device's partition.
    Kernel,
    /// Execute the halo copies whose destination is this device.
    HaloPull,
    /// Run a host container (owner only).
    Host,
    /// Fold collective partials into the host value (owner only).
    Collective,
    /// Fold reduction partials into the host value (owner only).
    ReduceFinalize,
}

/// One entry of a device's step list.
#[derive(Debug, Clone, Copy)]
pub struct DevStep {
    /// The graph node this step belongs to.
    pub node: u32,
    /// What to execute.
    pub action: DevAction,
    /// Start of this step's wait-slot range in the plan's flat wait pool
    /// (resolve with [`DevicePlan::waits_of`]).
    pub wait_start: u32,
    /// Length of the wait-slot range.
    pub wait_len: u32,
}

/// The compiled per-device task partition + event table of one schedule.
///
/// Purely structural (node indices and slot numbers, no containers), so a
/// rebound plan can share it unchanged whenever the graph structure and
/// halo src/dst pairs are unchanged.
#[derive(Debug, Clone)]
pub struct DevicePlan {
    ndev: usize,
    slots_per_node: usize,
    num_slots: usize,
    /// One step list per device, each in schedule task order.
    steps: Vec<Vec<DevStep>>,
    /// Flat pool of wait slots, referenced by [`DevStep`] ranges.
    waits: Vec<u32>,
}

impl DevicePlan {
    /// Number of devices (= worker threads).
    pub fn ndev(&self) -> usize {
        self.ndev
    }

    /// Total number of event slots an executor must allocate.
    pub fn num_slots(&self) -> usize {
        self.num_slots
    }

    /// Event slot for device `dev`'s share of `node`.
    #[inline]
    pub fn slot(&self, node: usize, dev: usize) -> usize {
        node * self.slots_per_node + dev
    }

    /// Event slot for `node`'s reduction-partial reset.
    #[inline]
    pub fn aux_init(&self, node: usize) -> usize {
        node * self.slots_per_node + self.ndev
    }

    /// Event slot for `node`'s owner-side epilogue.
    #[inline]
    pub fn aux_done(&self, node: usize) -> usize {
        node * self.slots_per_node + self.ndev + 1
    }

    /// Device `dev`'s step list, in execution order.
    pub fn steps(&self, dev: usize) -> &[DevStep] {
        &self.steps[dev]
    }

    /// The event slots `step` must wait for.
    #[inline]
    pub fn waits_of(&self, step: &DevStep) -> &[u32] {
        &self.waits[step.wait_start as usize..(step.wait_start + step.wait_len) as usize]
    }

    /// Total number of steps across all devices.
    pub fn total_steps(&self) -> usize {
        self.steps.iter().map(Vec::len).sum()
    }

    /// Deterministic text rendering (for IR dumps).
    pub fn dump(&self, g: &Graph) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "device-plan: {} devices, {} slots",
            self.ndev, self.num_slots
        );
        for (d, list) in self.steps.iter().enumerate() {
            let _ = writeln!(out, "  dev{d}: {} steps", list.len());
            for s in list {
                let waits = self.waits_of(s);
                let w = if waits.is_empty() {
                    "-".to_string()
                } else {
                    waits
                        .iter()
                        .map(|x| format!("e{x}"))
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let _ = writeln!(
                    out,
                    "    {:?} n{} ({}) wait={w}",
                    s.action,
                    s.node,
                    g.node(s.node as usize).name
                );
            }
        }
        out
    }
}

/// How a parent node publishes its completion — decides which slots its
/// consumers wait on.
#[derive(Clone, Copy)]
enum ParentSignal {
    /// Per-device slots (plain compute launches).
    PerDevice,
    /// Per-device slots, plus cross-waits for writers (halo exchanges; the
    /// index selects the node's `srcs`/`dsts` tables).
    Halo(usize),
    /// A single owner-side done slot.
    AuxDone,
}

/// Partition `schedule`'s tasks over `ndev` device workers and lower every
/// data dependency to event-slot waits.
///
/// `parents[n]` must be the deduplicated data-edge parents of node `n`
/// (as precomputed by the plan layer).
pub fn build_device_plan(
    graph: &Graph,
    schedule: &Schedule,
    parents: &[Vec<NodeId>],
    ndev: usize,
) -> DevicePlan {
    assert!(ndev >= 1);
    let n = graph.len();
    let slots_per_node = ndev + 2;

    // Per halo node: which devices each device's pulls read from, and
    // which devices pull *from* each device.
    let mut halo_srcs: Vec<Vec<Vec<usize>>> = Vec::new(); // [halo][dst] -> srcs
    let mut halo_dsts: Vec<Vec<Vec<usize>>> = Vec::new(); // [halo][src] -> dsts
    let mut signal_of: Vec<ParentSignal> = Vec::with_capacity(n);
    for node in graph.nodes() {
        signal_of.push(match &node.kind {
            NodeKind::Compute {
                reduce_finalize, ..
            } => {
                if *reduce_finalize {
                    ParentSignal::AuxDone
                } else {
                    ParentSignal::PerDevice
                }
            }
            NodeKind::Halo { exchange } => {
                let mut srcs = vec![Vec::new(); ndev];
                let mut dsts = vec![Vec::new(); ndev];
                for d in exchange.descriptors() {
                    if !srcs[d.dst.0].contains(&d.src.0) {
                        srcs[d.dst.0].push(d.src.0);
                    }
                    if !dsts[d.src.0].contains(&d.dst.0) {
                        dsts[d.src.0].push(d.dst.0);
                    }
                }
                halo_srcs.push(srcs);
                halo_dsts.push(dsts);
                ParentSignal::Halo(halo_srcs.len() - 1)
            }
            NodeKind::Host { .. } | NodeKind::Collective { .. } => ParentSignal::AuxDone,
        });
    }

    let mut plan = DevicePlan {
        ndev,
        slots_per_node,
        num_slots: n * slots_per_node,
        steps: vec![Vec::new(); ndev],
        waits: Vec::new(),
    };

    // Slots a consumer on device `d` waits for, for parent `p`.
    let parent_waits = |out: &mut Vec<u32>, p: NodeId, d: usize| match signal_of[p] {
        ParentSignal::AuxDone => out.push((p * slots_per_node + ndev + 1) as u32),
        ParentSignal::PerDevice => out.push((p * slots_per_node + d) as u32),
        ParentSignal::Halo(h) => {
            out.push((p * slots_per_node + d) as u32);
            // Remote pulls still reading `d`'s boundary: writers on `d`
            // must not proceed until they finish.
            for &e in &halo_dsts[h][d] {
                out.push((p * slots_per_node + e) as u32);
            }
        }
    };
    // Conservative variant: every parent over every device.
    let all_dev_waits = |out: &mut Vec<u32>, ps: &[NodeId]| {
        for &p in ps {
            match signal_of[p] {
                ParentSignal::AuxDone => out.push((p * slots_per_node + ndev + 1) as u32),
                ParentSignal::PerDevice | ParentSignal::Halo(_) => {
                    for d in 0..ndev {
                        out.push((p * slots_per_node + d) as u32);
                    }
                }
            }
        }
    };

    let mut scratch: Vec<u32> = Vec::new();
    let push_step = |plan: &mut DevicePlan,
                     dev: usize,
                     node: usize,
                     action: DevAction,
                     waits: &mut Vec<u32>| {
        waits.sort_unstable();
        waits.dedup();
        let wait_start = plan.waits.len() as u32;
        plan.waits.extend_from_slice(waits);
        plan.steps[dev].push(DevStep {
            node: node as u32,
            action,
            wait_start,
            wait_len: waits.len() as u32,
        });
        waits.clear();
    };

    for task in &schedule.tasks {
        let node_id = task.node;
        let ps = &parents[node_id];
        match &graph.node(node_id).kind {
            NodeKind::Compute {
                container,
                reduce_init,
                reduce_finalize,
                ..
            } => {
                if *reduce_init {
                    // Reset partials before any kernel half runs. The
                    // other OCC half (if any) is ordered behind this one
                    // by its int→bnd data edge, so one init gate suffices.
                    all_dev_waits(&mut scratch, ps);
                    push_step(&mut plan, 0, node_id, DevAction::ReduceInit, &mut scratch);
                }
                for d in 0..ndev {
                    for &p in ps {
                        parent_waits(&mut scratch, p, d);
                    }
                    if *reduce_init {
                        scratch.push(plan.aux_init(node_id) as u32);
                    }
                    push_step(&mut plan, d, node_id, DevAction::Kernel, &mut scratch);
                }
                if *reduce_finalize {
                    for d in 0..ndev {
                        scratch.push(plan.slot(node_id, d) as u32);
                    }
                    push_step(
                        &mut plan,
                        0,
                        node_id,
                        DevAction::ReduceFinalize,
                        &mut scratch,
                    );
                }
                let _ = container;
            }
            NodeKind::Halo { .. } => {
                let h = match signal_of[node_id] {
                    ParentSignal::Halo(h) => h,
                    _ => unreachable!("halo node classified above"),
                };
                for (d, srcs) in halo_srcs[h].iter().enumerate() {
                    // The pull into `d` writes `d`'s halo layers and reads
                    // each source's boundary cells: wait for the parents on
                    // `d` and on every source device.
                    for &p in ps {
                        parent_waits(&mut scratch, p, d);
                        for &e in srcs {
                            parent_waits(&mut scratch, p, e);
                        }
                    }
                    push_step(&mut plan, d, node_id, DevAction::HaloPull, &mut scratch);
                }
            }
            NodeKind::Host { .. } => {
                all_dev_waits(&mut scratch, ps);
                push_step(&mut plan, 0, node_id, DevAction::Host, &mut scratch);
            }
            NodeKind::Collective { .. } => {
                all_dev_waits(&mut scratch, ps);
                push_step(&mut plan, 0, node_id, DevAction::Collective, &mut scratch);
            }
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{Ir, PassCtx, PassManager};
    use crate::skeleton::SkeletonOptions;
    use neon_domain::{
        ops, Container, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike as _,
        MemLayout, ScalarSet, Stencil, StorageMode,
    };
    use neon_sys::Backend;

    fn compiled(ndev: usize) -> (Graph, Schedule, Vec<Vec<NodeId>>) {
        let b = Backend::dgx_a100(ndev);
        let st = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, 16), &[&st], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 1.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
        let dot = ScalarSet::<f64>::new(ndev, "dot", 0.0, |a, b| a + b);
        let lap = {
            let (xc, yc) = (x.clone(), y.clone());
            Container::compute("lap", g.as_space(), move |ldr| {
                let xv = ldr.read_stencil(&xc);
                let yv = ldr.write(&yc);
                Box::new(move |c| {
                    let mut s = 0.0;
                    for slot in 0..6 {
                        s += xv.ngh(c, slot, 0);
                    }
                    yv.set(c, 0, s);
                })
            })
        };
        let seq = vec![ops::set_value(&g, &x, 2.0), lap, ops::dot(&g, &y, &y, &dot)];
        let mut ir = Ir::new(seq);
        let cx = PassCtx {
            backend: b,
            key: SkeletonOptions::default().compile_key(),
        };
        PassManager::standard().run(&mut ir, &cx, false).unwrap();
        let schedule = ir.schedule.take().unwrap();
        let parents: Vec<Vec<NodeId>> = (0..ir.graph.len())
            .map(|n| {
                let mut v: Vec<NodeId> = ir.graph.data_parents(n).map(|e| e.from).collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();
        (ir.graph, schedule, parents)
    }

    #[test]
    fn every_node_gets_steps_and_waits_point_backwards() {
        let (graph, schedule, parents) = compiled(4);
        let dp = build_device_plan(&graph, &schedule, &parents, 4);
        assert_eq!(dp.ndev(), 4);
        // Every device's list is ordered by schedule task index, and every
        // wait references a slot of a strictly earlier task or this node's
        // own aux-init slot.
        let task_pos: Vec<usize> = {
            let mut pos = vec![0usize; graph.len()];
            for (i, t) in schedule.tasks.iter().enumerate() {
                pos[t.node] = i;
            }
            pos
        };
        for d in 0..4 {
            let mut last = 0usize;
            for s in dp.steps(d) {
                let p = task_pos[s.node as usize];
                assert!(p >= last, "steps must follow task order");
                last = p;
                for &w in dp.waits_of(s) {
                    let w_node = w as usize / (4 + 2);
                    if w_node == s.node as usize {
                        // Intra-node: kernels gate on init, finalize on
                        // kernels.
                        continue;
                    }
                    assert!(
                        task_pos[w_node] < p,
                        "wait on a later task would deadlock: {} waits {}",
                        graph.node(s.node as usize).name,
                        graph.node(w_node).name
                    );
                }
            }
        }
    }

    #[test]
    fn kernels_exist_on_every_device_and_owner_steps_on_dev0() {
        let (graph, schedule, parents) = compiled(2);
        let dp = build_device_plan(&graph, &schedule, &parents, 2);
        for (i, node) in graph.nodes().iter().enumerate() {
            match &node.kind {
                NodeKind::Compute { .. } => {
                    for d in 0..2 {
                        assert!(dp
                            .steps(d)
                            .iter()
                            .any(|s| s.node as usize == i && s.action == DevAction::Kernel));
                    }
                }
                NodeKind::Halo { .. } => {
                    for d in 0..2 {
                        assert!(dp
                            .steps(d)
                            .iter()
                            .any(|s| s.node as usize == i && s.action == DevAction::HaloPull));
                    }
                }
                NodeKind::Host { .. } | NodeKind::Collective { .. } => {
                    assert!(dp.steps(0).iter().any(|s| s.node as usize == i
                        && matches!(s.action, DevAction::Host | DevAction::Collective)));
                }
            }
        }
    }

    #[test]
    fn single_device_plan_is_fully_serial_on_worker_zero() {
        let (graph, schedule, parents) = compiled(1);
        let dp = build_device_plan(&graph, &schedule, &parents, 1);
        assert_eq!(dp.ndev(), 1);
        assert_eq!(dp.total_steps(), dp.steps(0).len());
        assert!(dp.total_steps() >= graph.len());
    }
}
