//! Immutable compiled execution plans and the process-wide plan cache.
//!
//! A [`CompiledPlan`] is the product of the pass pipeline: the final
//! execution graph, its schedule, and precomputed per-node parent lists,
//! all behind an `Arc` so the executor borrows task and node data by index
//! instead of cloning per task per iteration.
//!
//! Plans are cached by [`PlanKey`]:
//!
//! * the **sequence signature** ([`neon_set::sequence_signature`]) — a
//!   structural hash of the container sequence over *normalized* data-uid
//!   and grid roles, deliberately excluding cell counts and per-cell costs
//!   (those are read from the bound containers at execution time), so the
//!   same solver over a different grid size still hits;
//! * the **backend fingerprint** ([`neon_sys::Backend::fingerprint`]) —
//!   device models plus topology;
//! * the **compile key** ([`CompileKey`]) — the five
//!   [`SkeletonOptions`] fields the passes read, compared by value. It is
//!   all the passes see, so the executor's runtime settings share a plan.
//!
//! On a hit the cached plan is *rebound* to the new instance, which pays
//! only for what it owns:
//!
//! * **rebuilt per hit:** the node containers — each distinct container
//!   of the cached plan once, so the rebound plan shares instances exactly
//!   as a fresh compile does (a compute node and its `:allreduce`, the
//!   OCC `.int`/`.bnd` halves), with fused groups, merged reductions and
//!   temporal super-steps recomposed over the new members by provenance —
//!   the halo exchanges (resolved from the rebuilt containers' stencil
//!   reads, never carried over from the cached instance), the halo
//!   descriptors, edge data uids (mapped role for role) and node names;
//! * **shared:** the schedule, the data-parent lists, and the device plan
//!   while the halo src/dst pairs are unchanged;
//! * **deferred:** the dependency graph, a function of the containers
//!   alone that only diagnostics read, built on first use.
//!
//! The new sequence's roles ([`neon_set::uid_roles`]) are computed once
//! per request and serve both the key and the rebind; a plan keeps the
//! roles of the instance it is bound to, so a hit builds nothing for the
//! old one. `Arc::ptr_eq` on the schedule is proof that a sequence
//! compiled once.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use neon_set::{
    sequence_signature, signature_over_roles, uid_roles, Container, DataUid, HaloDescriptor,
    HaloExchange, UidRoles,
};
use neon_sys::{Backend, PermanentFault, Trace};

use crate::devplan::{build_device_plan, DevicePlan};
use crate::exec::ExecError;
use crate::fuse::FusionLevel;
use crate::graph::{build_dependency_graph, Edge, Graph, Node, NodeId, NodeKind};
use crate::occ::OccLevel;
use crate::pass::{CompileError, Ir, PassCtx, PassManager, PassTiming};
use crate::schedule::Schedule;
use crate::skeleton::SkeletonOptions;

/// The immutable result of compiling a container sequence.
pub struct CompiledPlan {
    containers: Vec<Container>,
    /// The uids of `containers` in role order: what a rebind maps this
    /// instance's data onto the next one's by.
    roles: UidRoles,
    /// A function of `containers` alone, so a rebound plan builds it only
    /// when asked (diagnostics read it; execution does not).
    dependency_graph: OnceLock<Graph>,
    graph: Graph,
    schedule: Arc<Schedule>,
    device_plan: Arc<DevicePlan>,
    /// Shape-only, so shared by every instance rebound from one compile.
    data_parents: Arc<[Vec<NodeId>]>,
    /// Per-node halo transfer descriptors (empty for non-halo nodes),
    /// cached so the executor's hot loop never calls the allocating
    /// `HaloExchange::descriptors()`.
    halo_descs: Vec<Vec<HaloDescriptor>>,
    timings: Vec<PassTiming>,
    dumps: Vec<(String, String)>,
    compile_trace: Trace,
}

impl CompiledPlan {
    /// The raw dependency graph (before the multi-GPU transform).
    pub fn dependency_graph(&self) -> &Graph {
        self.dependency_graph
            .get_or_init(|| build_dependency_graph(&self.containers))
    }

    /// The final (multi-GPU, OCC-optimized, lowered) execution graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The execution plan.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The schedule's shared handle (`Arc::ptr_eq` across two plans proves
    /// they came from one compilation).
    pub fn schedule_arc(&self) -> &Arc<Schedule> {
        &self.schedule
    }

    /// The bound container sequence, in program order.
    pub fn containers(&self) -> &[Container] {
        &self.containers
    }

    /// Data-edge parents of a node (precomputed at compile time).
    pub fn data_parents(&self, node: NodeId) -> &[NodeId] {
        &self.data_parents[node]
    }

    /// The per-device task partition + event table (shared handle).
    pub fn device_plan(&self) -> &Arc<DevicePlan> {
        &self.device_plan
    }

    /// Cached halo transfer descriptors of a node (empty unless the node
    /// is a halo update).
    pub fn halo_descriptors(&self, node: NodeId) -> &[HaloDescriptor] {
        &self.halo_descs[node]
    }

    /// Per-pass compile timings. Empty for a rebound (cache-hit) plan —
    /// no compilation happened.
    pub fn pass_timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// `(pass name, dump)` pairs captured when `dump_ir` was on.
    pub fn dumps(&self) -> &[(String, String)] {
        &self.dumps
    }

    /// Compile-time [`neon_sys::SpanKind::Compile`] spans, one per pass
    /// (empty for a rebound plan).
    pub fn compile_trace(&self) -> &Trace {
        &self.compile_trace
    }

    /// Logical iterations one `execute()` of this plan performs: `k` when
    /// the temporal-fuse pass built a super-step, 1 otherwise. Callers
    /// running `n` logical iterations execute the plan `n / k` times.
    pub fn temporal_k(&self) -> usize {
        self.graph
            .nodes()
            .iter()
            .filter_map(|n| n.container().and_then(|c| c.temporal_spec()))
            .map(|spec| spec.k as usize)
            .max()
            .unwrap_or(1)
    }

    /// Wrap an already-built graph and schedule (no containers, no
    /// dependency graph, no timings), for a skeleton built directly from a
    /// plan in a unit test; compiled plans carry the full state.
    #[cfg(test)]
    pub(crate) fn from_parts(graph: Graph, schedule: Schedule) -> Arc<CompiledPlan> {
        let data_parents = precompute_parents(&graph);
        // No backend here: infer the device count from the graph itself.
        let ndev = infer_ndev(&graph);
        let device_plan = Arc::new(build_device_plan(&graph, &schedule, &data_parents, ndev));
        let halo_descs = precompute_halo_descs(&graph);
        Arc::new(CompiledPlan {
            containers: Vec::new(),
            roles: UidRoles::default(),
            dependency_graph: OnceLock::from(Graph::new()),
            graph,
            schedule: Arc::new(schedule),
            device_plan,
            data_parents,
            halo_descs,
            timings: Vec::new(),
            dumps: Vec::new(),
            compile_trace: Trace::new(),
        })
    }
}

fn precompute_parents(g: &Graph) -> Arc<[Vec<NodeId>]> {
    (0..g.len())
        .map(|n| {
            let mut v: Vec<NodeId> = g.data_parents(n).map(|e| e.from).collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect()
}

fn precompute_halo_descs(g: &Graph) -> Vec<Vec<neon_set::HaloDescriptor>> {
    g.nodes()
        .iter()
        .map(|n| match &n.kind {
            NodeKind::Halo { exchange } => exchange.descriptors(),
            _ => Vec::new(),
        })
        .collect()
}

/// Largest device index referenced by the graph, for
/// [`CompiledPlan::from_parts`], which has no backend in hand.
#[cfg(test)]
fn infer_ndev(g: &Graph) -> usize {
    let mut n = 1usize;
    for node in g.nodes() {
        match &node.kind {
            NodeKind::Compute { container, .. } => n = n.max(container.num_devices()),
            NodeKind::Halo { exchange } => {
                for d in exchange.descriptors() {
                    n = n.max(d.src.0 + 1).max(d.dst.0 + 1);
                }
            }
            _ => {}
        }
    }
    n
}

/// The options that shape a compiled plan, and nothing else: the passes
/// read only this (through [`PassCtx`]), so every other
/// [`SkeletonOptions`] field is runtime policy by construction. Built by
/// [`SkeletonOptions::compile_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CompileKey {
    /// OCC level (the `occ` pass).
    pub occ: OccLevel,
    /// Honour scheduling hints (the `schedule` pass).
    pub hints: bool,
    /// Fusion level (the `fuse`, `temporal-fuse` and
    /// `collective-lowering` passes).
    pub fusion: FusionLevel,
}

/// Cache key of a compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Structural signature of the container sequence.
    pub seq: u64,
    /// Backend fingerprint (device models + topology).
    pub backend: u64,
    /// The plan-shaping options.
    pub opts: CompileKey,
}

impl PlanKey {
    /// The key for compiling `containers` on `backend` under `opts`.
    pub fn new(backend: &Backend, containers: &[Container], opts: CompileKey) -> PlanKey {
        PlanKey {
            seq: sequence_signature(containers),
            backend: backend.fingerprint(),
            opts,
        }
    }
}

/// Counters of the process-wide plan cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a plan (each hit skips a full pipeline run).
    pub hits: u64,
    /// Lookups that compiled fresh.
    pub misses: u64,
    /// Plans pushed out by the capacity bound (FIFO order). Backend
    /// invalidations and explicit clears are not counted here.
    pub evictions: u64,
    /// Plans currently cached.
    pub entries: usize,
    /// Current capacity bound (see [`set_plan_cache_capacity`]).
    pub capacity: usize,
}

struct CacheInner {
    map: HashMap<PlanKey, Arc<CompiledPlan>>,
    order: VecDeque<PlanKey>,
    hits: u64,
    misses: u64,
    evictions: u64,
    capacity: usize,
}

impl CacheInner {
    fn new(capacity: usize) -> Self {
        CacheInner {
            map: HashMap::new(),
            order: VecDeque::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
            capacity,
        }
    }

    /// Evict FIFO until the entry count fits `capacity`, counting evictions.
    fn enforce_capacity(&mut self, headroom: usize) {
        while self.map.len().saturating_add(headroom) > self.capacity {
            match self.order.pop_front() {
                Some(old) => {
                    if self.map.remove(&old).is_some() {
                        self.evictions += 1;
                    }
                }
                None => break,
            }
        }
    }

    /// Drop every entry (counters are kept).
    fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Drop every entry compiled for the backend with `fingerprint`,
    /// returning how many went.
    fn invalidate(&mut self, fingerprint: u64) -> usize {
        let before = self.map.len();
        self.map.retain(|k, _| k.backend != fingerprint);
        self.order.retain(|k| k.backend != fingerprint);
        before - self.map.len()
    }

    /// Cache a freshly compiled plan, making room FIFO if the key is new.
    fn insert_compiled(&mut self, key: PlanKey, plan: Arc<CompiledPlan>) {
        if !self.map.contains_key(&key) {
            self.enforce_capacity(1);
            self.order.push_back(key);
        }
        self.map.insert(key, plan);
    }

    /// Keep the most recently bound instance of a hit, so a later
    /// identical request shares its containers too. A key evicted or
    /// invalidated since the lookup stays gone: re-inserting it would
    /// leave an entry outside `order`, never evicted. Returns the
    /// displaced plan, for the caller to drop outside the lock.
    fn replace_rebound(
        &mut self,
        key: &PlanKey,
        plan: Arc<CompiledPlan>,
    ) -> Option<Arc<CompiledPlan>> {
        self.map
            .get_mut(key)
            .map(|slot| std::mem::replace(slot, plan))
    }
}

/// Default plan-cache capacity (plans, not bytes).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 32;

fn cache() -> &'static Mutex<CacheInner> {
    static CACHE: OnceLock<Mutex<CacheInner>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(CacheInner::new(DEFAULT_PLAN_CACHE_CAPACITY)))
}

/// Current plan-cache counters.
pub fn plan_cache_stats() -> CacheStats {
    let c = cache().lock().unwrap();
    CacheStats {
        hits: c.hits,
        misses: c.misses,
        evictions: c.evictions,
        entries: c.map.len(),
        capacity: c.capacity,
    }
}

/// Bound the process-wide plan cache to `capacity` plans (clamped to at
/// least 1). Shrinking below the current entry count evicts FIFO immediately.
/// A serving deployment sizes this to its working set of distinct
/// (program structure × backend fingerprint × options) keys.
pub fn set_plan_cache_capacity(capacity: usize) {
    let mut c = cache().lock().unwrap();
    c.capacity = capacity.max(1);
    c.enforce_capacity(0);
}

/// Current plan-cache capacity bound.
pub fn plan_cache_capacity() -> usize {
    cache().lock().unwrap().capacity
}

/// Drop every cached plan (counters are kept; tests diff them).
pub fn clear_plan_cache() {
    cache().lock().unwrap().clear();
}

/// Drop every cached plan compiled for the backend with `fingerprint`,
/// returning how many were evicted. [`heal_backend`] calls this when a
/// permanent fault retires a backend: plans compiled for the dead topology
/// must not be rebound.
pub fn invalidate_backend(fingerprint: u64) -> usize {
    cache().lock().unwrap().invalidate(fingerprint)
}

/// Heal `backend` of a permanent `fault`: evict the dead device, or sever
/// or degrade the faulted link, then drop every cached plan compiled for
/// the old fingerprint (the healed backend has a different one and
/// compiles fresh). This is the only place a fault maps onto hardware;
/// a recovery driver rebuilds its solver on the result and migrates the
/// rolled-back state there ([`ExecError::permanent_fault`] names the fault
/// a failed run reports).
///
/// A fault naming a device or link the backend does not have, or a loss
/// of its only device, is refused as [`ExecError::Unhealable`] and purges
/// nothing.
pub fn heal_backend(backend: &Backend, fault: PermanentFault) -> Result<Backend, ExecError> {
    let healed = match fault {
        PermanentFault::DeviceLoss(dead) => backend.without_device(dead),
        PermanentFault::LinkLoss(src, dst) => backend.without_link(src, dst),
        PermanentFault::LinkDegrade(src, dst, factor) => {
            backend.with_degraded_link(src, dst, factor)
        }
    }
    .map_err(|e| ExecError::Unhealable {
        fault,
        reason: e.to_string(),
    })?;
    invalidate_backend(backend.fingerprint());
    Ok(healed)
}

/// Compile `containers`, consulting the plan cache when `options.cache`.
/// Returns the plan and whether it came from the cache. A `dump_ir`
/// compile is a diagnostics request for this run of the passes: it
/// neither reads nor fills the cache.
pub(crate) fn compile(
    backend: &Backend,
    containers: Vec<Container>,
    options: SkeletonOptions,
) -> Result<(Arc<CompiledPlan>, bool), CompileError> {
    let opts = options.compile_key();
    let roles = uid_roles(&containers);
    if !options.cache || options.dump_ir {
        return Ok((
            compile_fresh(backend, containers, roles, opts, options.dump_ir)?,
            false,
        ));
    }
    let key = PlanKey {
        seq: signature_over_roles(&containers, &roles),
        backend: backend.fingerprint(),
        opts,
    };
    let cached = cache().lock().unwrap().map.get(&key).cloned();
    if let Some(plan) = cached {
        let rebound = rebind(&plan, containers, roles);
        let displaced = {
            let mut c = cache().lock().unwrap();
            c.hits += 1;
            c.replace_rebound(&key, Arc::clone(&rebound))
        };
        drop(displaced);
        return Ok((rebound, true));
    }
    let plan = compile_fresh(backend, containers, roles, opts, false)?;
    let mut c = cache().lock().unwrap();
    c.misses += 1;
    c.insert_compiled(key, Arc::clone(&plan));
    Ok((plan, false))
}

/// Run the standard pass pipeline to a fresh plan, capturing per-pass IR
/// dumps when `dump`.
fn compile_fresh(
    backend: &Backend,
    containers: Vec<Container>,
    roles: UidRoles,
    key: CompileKey,
    dump: bool,
) -> Result<Arc<CompiledPlan>, CompileError> {
    let mut ir = Ir::new(containers);
    let cx = PassCtx {
        backend: backend.clone(),
        key,
    };
    let log = PassManager::standard().run(&mut ir, &cx, dump)?;
    let schedule = ir
        .schedule
        .take()
        .expect("schedule pass produced a schedule");
    let device_plan = ir
        .device_plan
        .take()
        .expect("device-partition pass ran last and produced a device plan");
    let graph = ir.graph;
    let data_parents = precompute_parents(&graph);
    let halo_descs = precompute_halo_descs(&graph);
    Ok(Arc::new(CompiledPlan {
        containers: ir.containers,
        roles,
        dependency_graph: ir.dependency_graph.map(OnceLock::from).unwrap_or_default(),
        graph,
        schedule: Arc::new(schedule),
        device_plan: Arc::new(device_plan),
        data_parents,
        halo_descs,
        timings: log.timings,
        dumps: log.dumps,
        compile_trace: log.trace,
    }))
}

/// The new instance's counterparts of a cached plan's containers, each
/// built once: a composite is memoised by the identity of the cached one,
/// so every node that shared it shares the rebuilt one.
struct Counterparts<'a> {
    /// The new instance's sequence.
    new: &'a [Container],
    /// `(cached composite, its rebuilt counterpart)`.
    memo: Vec<(Container, Container)>,
}

impl Counterparts<'_> {
    /// The counterpart of `old`, the container of cached node `n`. Every
    /// pass gives a container node its provenance: a `source` index, or
    /// `fused_sources` for a composite.
    fn of(&mut self, n: &Node, old: &Container) -> Container {
        match n.source {
            Some(i) => self.new[i].clone(),
            None => self.composite(old, &mut n.fused_sources.iter().copied()),
        }
    }

    /// Rebuild `old` over the new instance. A composite's provenance list
    /// is its leaves in depth-first order (a fused member of a temporal
    /// super-step or of a merged all-reduce contributed its own members),
    /// so the walk consumes one index per leaf.
    fn composite(
        &mut self,
        old: &Container,
        leaves: &mut impl Iterator<Item = usize>,
    ) -> Container {
        if !old.is_fused() {
            return self.new[leaves.next().expect("provenance covers every member")].clone();
        }
        if let Some((_, new)) = self.memo.iter().find(|(o, _)| o.same_instance(old)) {
            let new = new.clone();
            for _ in 0..leaf_count(old) {
                leaves.next();
            }
            return new;
        }
        let members = old
            .fused_members()
            .iter()
            .map(|m| self.composite(m, leaves))
            .collect();
        let new = old.recomposed(members);
        self.memo.push((old.clone(), new.clone()));
        new
    }
}

fn leaf_count(c: &Container) -> usize {
    if c.is_fused() {
        c.fused_members().iter().map(leaf_count).sum()
    } else {
        1
    }
}

/// Re-bind a cached plan to a new, structurally identical instance of its
/// sequence, whose `roles` the key lookup computed: rebuild what the new
/// instance owns (see the module doc), share the rest.
fn rebind(plan: &CompiledPlan, containers: Vec<Container>, roles: UidRoles) -> Arc<CompiledPlan> {
    let map_uid = |u: DataUid| -> DataUid {
        plan.roles
            .role(u)
            .and_then(|r| roles.uid(r))
            .expect("every uid of a plan plays a role in its sequence")
    };
    let mut counterparts = Counterparts {
        new: &containers,
        memo: Vec::new(),
    };
    let cached = &plan.graph;
    let swapped: Vec<Option<Container>> = cached
        .nodes()
        .iter()
        .map(|n| n.container().map(|c| counterparts.of(n, c)))
        .collect();
    // A halo node refreshes what a stencil read of the rebuilt plan needs,
    // at the cached exchange's depth (a temporal super-step's deep exchange
    // is the one its own records carry) — exactly the exchange the
    // multi-GPU pass would pick on a fresh compile.
    let exchange_for = |old: &Arc<dyn HaloExchange>| -> Arc<dyn HaloExchange> {
        let uid = map_uid(old.data_uid());
        swapped
            .iter()
            .flatten()
            .flat_map(|c| c.stencil_reads())
            .filter(|a| a.uid == uid)
            .filter_map(|a| a.halo.as_ref())
            .find(|h| h.depth() == old.depth())
            .map(Arc::clone)
            .expect("a halo node's field is stencil-read by the plan at the node's depth")
    };
    let nodes = cached
        .nodes()
        .iter()
        .zip(&swapped)
        .map(|(n, new)| {
            if let NodeKind::Halo { exchange } = &n.kind {
                let exchange = exchange_for(exchange);
                let name = format!("halo({})", exchange.data_name());
                return Node::new(name, NodeKind::Halo { exchange });
            }
            let mut node = n.clone();
            if let NodeKind::Compute { container, .. }
            | NodeKind::Host { container }
            | NodeKind::Collective { container, .. } = &mut node.kind
            {
                *container = new.clone().expect("every node but a halo update has one");
            }
            node
        })
        .collect();
    let edges = cached
        .edges()
        .iter()
        .map(|e| Edge {
            data: e.data.map(map_uid),
            ..*e
        })
        .collect();
    let graph = Graph::from_parts(nodes, edges);
    // Descriptor byte sizes change with grid size, so recompute the cache;
    // the device plan only depends on the src/dst pair structure and can
    // be shared when that is unchanged (the common case).
    let halo_descs = precompute_halo_descs(&graph);
    let same_pairs = halo_descs.len() == plan.halo_descs.len()
        && halo_descs.iter().zip(&plan.halo_descs).all(|(a, b)| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| x.src == y.src && x.dst == y.dst)
        });
    let device_plan = if same_pairs {
        Arc::clone(&plan.device_plan)
    } else {
        Arc::new(build_device_plan(
            &graph,
            &plan.schedule,
            &plan.data_parents,
            plan.device_plan.ndev(),
        ))
    };
    Arc::new(CompiledPlan {
        containers,
        roles,
        dependency_graph: OnceLock::new(),
        graph,
        schedule: Arc::clone(&plan.schedule),
        device_plan,
        data_parents: Arc::clone(&plan.data_parents),
        halo_descs,
        timings: Vec::new(),
        dumps: Vec::new(),
        compile_trace: Trace::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_domain::{ops, DenseGrid, Dim3, Field, MemLayout, ScalarSet, Stencil, StorageMode};

    fn sequence(ndev: usize, nz: usize) -> (Backend, Vec<Container>) {
        let b = Backend::dgx_a100(ndev);
        let s = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, nz), &[&s], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 1.0, MemLayout::SoA).unwrap();
        let dot = ScalarSet::<f64>::new(ndev, "dot", 0.0, |a, b| a + b);
        let seq = vec![ops::set_value(&g, &x, 2.0), ops::dot(&g, &x, &x, &dot)];
        (b, seq)
    }

    #[test]
    fn identical_sequences_share_one_compilation() {
        let opts = SkeletonOptions::default();
        let (b, seq1) = sequence(2, 8);
        let (p1, hit1) = compile(&b, seq1, opts).unwrap();
        let (_b2, seq2) = sequence(2, 8);
        let (p2, hit2) = compile(&b, seq2, opts).unwrap();
        assert!(
            !hit1 || hit2,
            "second lookup cannot be colder than the first"
        );
        assert!(hit2, "structurally identical sequence must hit");
        assert!(
            Arc::ptr_eq(p1.schedule_arc(), p2.schedule_arc()),
            "schedule compiled once, shared"
        );
        // The rebound plan is bound to the *new* containers.
        assert!(!p2.containers().is_empty());
        assert!(
            p2.pass_timings().is_empty(),
            "cache hit does no compile work"
        );
    }

    #[test]
    fn grid_size_does_not_fragment_the_cache() {
        let opts = SkeletonOptions::default();
        let (b, small) = sequence(2, 8);
        let (_, _) = compile(&b, small, opts).unwrap();
        let (_b, large) = sequence(2, 64);
        let (_, hit) = compile(&b, large, opts).unwrap();
        assert!(hit, "same structure over a bigger grid reuses the plan");
    }

    #[test]
    fn options_and_backend_fragment_the_cache() {
        let (b, seq1) = sequence(2, 8);
        let (_, _) = compile(&b, seq1, SkeletonOptions::default()).unwrap();
        let (_b, seq2) = sequence(2, 8);
        let (_, hit) = compile(
            &b,
            seq2,
            SkeletonOptions::with_occ(OccLevel::TwoWayExtended),
        )
        .unwrap();
        assert!(!hit, "different OCC level compiles fresh");
        let (b4, seq3) = sequence(4, 8);
        let (_, hit) = compile(&b4, seq3, SkeletonOptions::default()).unwrap();
        assert!(!hit, "different device count compiles fresh");
    }

    #[test]
    fn cache_opt_out_always_compiles_fresh() {
        let opts = SkeletonOptions {
            cache: false,
            ..Default::default()
        };
        let (b, seq1) = sequence(2, 8);
        let (p1, hit1) = compile(&b, seq1, opts).unwrap();
        let (_b, seq2) = sequence(2, 8);
        let (p2, hit2) = compile(&b, seq2, opts).unwrap();
        assert!(!hit1 && !hit2);
        assert!(!Arc::ptr_eq(p1.schedule_arc(), p2.schedule_arc()));
    }

    #[test]
    fn every_compile_key_field_fragments_the_cache() {
        // Each field of the key shapes the plan, so flipping any one of
        // them must compile fresh. The field is named apart from the
        // other tests' sequences: the cache is process-wide.
        let flips = [
            SkeletonOptions {
                occ: OccLevel::TwoWayExtended,
                ..Default::default()
            },
            SkeletonOptions {
                hints: false,
                ..Default::default()
            },
            SkeletonOptions {
                fusion: FusionLevel::Temporal(2),
                ..Default::default()
            },
        ];
        let keyed = || {
            let b = Backend::dgx_a100(2);
            let g = DenseGrid::new(&b, Dim3::new(4, 4, 8), &[], StorageMode::Real).unwrap();
            let x = Field::<f64, _>::new(&g, "key-flip", 1, 1.0, MemLayout::SoA).unwrap();
            (b, vec![ops::scale_const(&g, 2.0, &x)])
        };
        let (b, seq) = keyed();
        compile(&b, seq, SkeletonOptions::default()).unwrap();
        for opts in flips {
            let (_, seq) = keyed();
            let (_, hit) = compile(&b, seq, opts).unwrap();
            assert!(!hit, "{:?} must miss the plan cache", opts.compile_key());
        }
    }

    #[test]
    fn a_hit_never_reinserts_an_entry_that_went_meanwhile() {
        // A hit rebinds with the lock released, then stores its plan. The
        // key may have gone in between — evicted FIFO by a concurrent
        // miss, invalidated with its backend, or cleared. Storing must
        // not bring it back: it would sit outside `order`, never evicted.
        // The interleavings are replayed on a private cache, in order.
        let (b, seq) = sequence(2, 8);
        let opts = SkeletonOptions::default().compile_key();
        let plan = compile_fresh(&b, seq.clone(), uid_roles(&seq), opts, false).unwrap();
        let key = PlanKey::new(&b, &seq, opts);
        let other = PlanKey {
            seq: key.seq ^ 1,
            ..key
        };
        let consistent = |c: &CacheInner| {
            c.map.len() <= c.capacity
                && c.map.len() == c.order.len()
                && c.order.iter().all(|k| c.map.contains_key(k))
        };
        let mut c = CacheInner::new(1);

        // Evicted: a miss on `other` pushes `key` out of a one-plan cache.
        c.insert_compiled(key, Arc::clone(&plan));
        c.insert_compiled(other, Arc::clone(&plan));
        assert_eq!(c.evictions, 1);
        assert!(c.replace_rebound(&key, Arc::clone(&plan)).is_none());
        assert!(!c.map.contains_key(&key) && consistent(&c));

        // Invalidated with its backend.
        assert_eq!(c.invalidate(b.fingerprint()), 1);
        assert!(c.replace_rebound(&other, Arc::clone(&plan)).is_none());
        assert!(c.map.is_empty() && consistent(&c));

        // Cleared.
        c.insert_compiled(key, Arc::clone(&plan));
        c.clear();
        assert!(c.replace_rebound(&key, Arc::clone(&plan)).is_none());
        assert!(c.map.is_empty() && consistent(&c));

        // Still present: the rebound instance replaces the cached one.
        c.insert_compiled(key, Arc::clone(&plan));
        let (_, seq2) = sequence(2, 8);
        let rebound = rebind(&plan, seq2.clone(), uid_roles(&seq2));
        let displaced = c.replace_rebound(&key, Arc::clone(&rebound));
        assert!(displaced.is_some_and(|d| Arc::ptr_eq(&d, &plan)));
        assert!(Arc::ptr_eq(&c.map[&key], &rebound) && consistent(&c));
    }

    #[test]
    fn fusion_level_fragments_the_cache() {
        let (b, seq1) = sequence(2, 8);
        let _ = compile(&b, seq1, SkeletonOptions::default()).unwrap();
        let (_b, seq2) = sequence(2, 8);
        let (_, hit) = compile(
            &b,
            seq2,
            SkeletonOptions {
                fusion: FusionLevel::Off,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!hit, "different fusion level compiles fresh");
    }
}
