//! `Container` — the multi-GPU kernel concept.
//!
//! A container generalizes a kernel to a multi-device launch (paper
//! §IV-B2). It is built from an iteration space (a grid) and a *loading
//! lambda*: a closure that receives a [`Loader`], extracts partition-local
//! views from the multi-GPU data it uses, and returns the *compute lambda*
//! that runs per cell.
//!
//! At construction the loading lambda is dry-run once with a recording
//! loader; the collected [`AccessRecord`]s give the Skeleton everything it
//! needs for dependency analysis — which data is used, the access mode and
//! the compute pattern — without a compiler (the paper's
//! dependency-graph-challenge solution).
//!
//! At execution the loading lambda runs once per device per launch, so
//! captured host state (e.g. CG's `alpha` scalar) is re-read at each
//! iteration.

use std::sync::Arc;

use neon_sys::DeviceId;

use crate::cell::{Cell, DataView, IterationSpace, Region, Span, Sweep};
use crate::loader::{AccessRecord, ComputePattern, Loader, ReduceHooks};
use crate::uid::DataUid;

/// What kind of node a container contributes to the execution graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerKind {
    /// Cell-local computation.
    Map,
    /// Neighbourhood computation — needs coherent halos.
    Stencil,
    /// Reduction into a scalar.
    Reduce,
    /// Host-side computation (scalar algebra between device phases).
    Host,
}

/// The per-device kernel produced by a loading lambda (per-cell form).
pub type ComputeFn = Box<dyn Fn(Cell) + Send>;

/// The per-device kernel in span form: invoked once per [`Span`], so the
/// `dyn` boundary is crossed per row run and the inner loop — over the
/// views' row slices, or over `span.cells()` — stays monomorphized in the
/// kernel. `FnMut` because write rows borrow their view mutably; each
/// kernel is built per launch and driven by one thread.
pub type SpanFn = Box<dyn FnMut(&Span) + Send>;

/// The host action produced by a host container's loading lambda.
pub type HostFn = Box<dyn FnOnce() + Send>;

/// A compute lambda in either dispatch granularity.
///
/// `PerCell` is the paper-faithful form every user kernel starts with;
/// `Spans` is the row-level form of the prebuilt operations and the
/// apps' interior bodies. Which one a loading lambda returns is invisible
/// to the compiler: the two forms of one program share a plan. The
/// executor iterates both through the grid's one primitive,
/// [`IterationSpace::for_each_span`] — for `PerCell` it walks
/// `span.cells()` itself, so the two forms visit cells in the identical
/// order and must agree bit for bit.
pub enum KernelFn {
    /// One virtual call per cell.
    PerCell(ComputeFn),
    /// One virtual call per span.
    Spans(SpanFn),
}

impl KernelFn {
    /// Wrap a per-cell closure.
    pub fn per_cell(f: impl Fn(Cell) + Send + 'static) -> Self {
        KernelFn::PerCell(Box::new(f))
    }

    /// Wrap a span-level closure.
    pub fn spans(f: impl FnMut(&Span) + Send + 'static) -> Self {
        KernelFn::Spans(Box::new(f))
    }

    /// Apply the kernel to one span, in cell order.
    #[inline]
    pub fn run_span(&mut self, span: &Span) {
        match self {
            KernelFn::PerCell(f) => span.cells().for_each(f),
            KernelFn::Spans(f) => f(span),
        }
    }
}

/// A boxed per-cell closure, as a loading lambda returns it.
impl<F: Fn(Cell) + Send + 'static> From<Box<F>> for KernelFn {
    fn from(f: Box<F>) -> Self {
        KernelFn::PerCell(f)
    }
}

impl From<ComputeFn> for KernelFn {
    fn from(f: ComputeFn) -> Self {
        KernelFn::PerCell(f)
    }
}

type GenFn = dyn Fn(&mut Loader) -> KernelFn + Send + Sync;
type HostGenFn = dyn Fn(&mut Loader) -> HostFn + Send + Sync;

/// One directed inter-device transfer of a halo exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HaloDescriptor {
    /// Source device.
    pub src: DeviceId,
    /// Destination device.
    pub dst: DeviceId,
    /// Payload size in bytes.
    pub bytes: u64,
}

/// Halo-coherency implementation exposed by fields (paper §IV-C2).
///
/// `descriptors` drive the performance model (one timed transfer each);
/// `execute` performs the actual copies for functional execution.
pub trait HaloExchange: Send + Sync {
    /// Uid of the field this exchange belongs to.
    fn data_uid(&self) -> DataUid;
    /// Field name (diagnostics / trace labels).
    fn data_name(&self) -> String;
    /// The transfers one halo update performs.
    fn descriptors(&self) -> Vec<HaloDescriptor>;
    /// Whether one halo update performs any transfer: `descriptors()` is
    /// non-empty. Implementations answer without allocating; plan-cache
    /// lookups ask it once per access.
    fn has_transfers(&self) -> bool {
        !self.descriptors().is_empty()
    }
    /// Perform the copies (no-op on virtual storage).
    fn execute(&self);
    /// Perform only the copies whose destination is `dst`: the parallel
    /// executor runs each destination device's incoming copies on that
    /// device's worker. Calling every destination exactly once must be
    /// equivalent to one [`HaloExchange::execute`] call.
    fn execute_for_dst(&self, dst: DeviceId);
    /// How many ghost layers one round of this exchange refreshes.
    /// Defaults to 1 — the classic exchange-per-iteration depth.
    fn depth(&self) -> usize {
        1
    }
    /// A variant of this exchange refreshing `depth` ghost layers per
    /// round, or `None` if the field's allocation cannot hold that many.
    /// Temporal blocking trades one depth-`k·r` exchange for `k`
    /// depth-`r` rounds; a `None` here makes the temporal-fuse pass fall
    /// back to per-iteration exchanges for the whole graph.
    fn at_depth(&self, depth: usize) -> Option<Arc<dyn HaloExchange>> {
        let _ = depth;
        None
    }
}

/// Temporal-blocking execution parameters of a super-step container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalSpec {
    /// Iterations executed per launch of the super-step.
    pub k: u8,
    /// Maximum stencil radius among the member sweeps: the ghost zone
    /// shrinks by this much per rep.
    pub radius: usize,
}

struct ContainerInner {
    /// Shared, so a rebuilt composite keeps its name without copying it.
    name: Arc<str>,
    kind: ContainerKind,
    space: Option<Arc<dyn IterationSpace>>,
    gen: Option<Arc<GenFn>>,
    host_gen: Option<Arc<HostGenFn>>,
    accesses: Vec<AccessRecord>,
    bytes_per_cell: u64,
    flops_per_cell: u64,
    bw_efficiency: f64,
    reduce_hooks: Vec<ReduceHooks>,
    /// Member containers of a fused container (empty for ordinary ones).
    members: Vec<Container>,
    /// Present for temporal super-steps built by [`Container::temporal`]:
    /// one launch executes `k` whole iterations of the member sweeps over
    /// a ghost zone that shrinks by `radius` layers per rep.
    temporal: Option<TemporalSpec>,
}

/// `Σ_uid max(read bytes) + Σ_uid max(write bytes)` over the recorded
/// accesses: reads of the same data object by several accesses count
/// once (on a real device the second read hits cache), writes likewise.
/// Computed once at construction — the executor reads it per launch. A
/// container declares a handful of accesses, so each uid's maxima are
/// folded at its first record by scanning the rest; nothing is allocated.
fn bytes_per_cell_of(accesses: &[AccessRecord]) -> u64 {
    let mut total = 0;
    for (i, a) in accesses.iter().enumerate() {
        if accesses[..i].iter().any(|b| b.uid == a.uid) {
            continue;
        }
        let (r, w) = accesses[i..]
            .iter()
            .filter(|b| b.uid == a.uid)
            .fold((0, 0), |(r, w), b| {
                (r.max(b.read_bytes_per_cell), w.max(b.write_bytes_per_cell))
            });
        total += r + w;
    }
    total
}

/// Whether any of `accesses` writes `uid`.
fn writes_uid(accesses: &[AccessRecord], uid: crate::uid::DataUid) -> bool {
    accesses.iter().any(|a| a.uid == uid && a.mode.writes())
}

/// A multi-device kernel (or host step) with declared data accesses.
#[derive(Clone)]
pub struct Container {
    inner: Arc<ContainerInner>,
}

impl std::fmt::Debug for Container {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Container")
            .field("name", &self.inner.name)
            .field("kind", &self.inner.kind)
            .field("accesses", &self.inner.accesses)
            .finish()
    }
}

impl Container {
    /// Build a compute container over `space` from a loading lambda.
    ///
    /// The lambda returns either a boxed per-cell closure or a
    /// [`KernelFn`] (e.g. a span kernel). The kind (map / stencil /
    /// reduce) is inferred from the recorded access patterns, exactly as
    /// the paper's Loader-based design intends.
    pub fn compute<K: Into<KernelFn>>(
        name: &str,
        space: Arc<dyn IterationSpace>,
        gen: impl Fn(&mut Loader) -> K + Send + Sync + 'static,
    ) -> Self {
        Container::compute_opts(name, space, gen, 0, 1.0)
    }

    /// [`Container::compute`] with performance-model overrides:
    /// `flops_per_cell` for compute-bound kernels and `bw_efficiency`
    /// scaling the achieved bandwidth (Neon's bound-checks cost a few
    /// percent versus a hardwired kernel, paper §VI-B).
    pub fn compute_opts<K: Into<KernelFn>>(
        name: &str,
        space: Arc<dyn IterationSpace>,
        gen: impl Fn(&mut Loader) -> K + Send + Sync + 'static,
        flops_per_cell: u64,
        bw_efficiency: f64,
    ) -> Self {
        let gen: Arc<GenFn> = Arc::new(move |ldr: &mut Loader| gen(ldr).into());
        let mut accesses = Vec::new();
        {
            let mut loader = Loader::for_recording(&mut accesses, space.num_partitions());
            // Dry run: records accesses; the produced kernel (over null
            // views) is dropped unused.
            let _ = gen(&mut loader);
        }
        let kind = infer_kind(&accesses);
        let reduce_hooks = accesses
            .iter()
            .filter_map(|a| a.reduce_hooks.clone())
            .collect();
        Container {
            inner: Arc::new(ContainerInner {
                name: name.into(),
                kind,
                space: Some(space),
                gen: Some(gen),
                host_gen: None,
                bytes_per_cell: bytes_per_cell_of(&accesses),
                accesses,
                flops_per_cell,
                bw_efficiency,
                reduce_hooks,
                members: Vec::new(),
                temporal: None,
            }),
        }
    }

    /// Build a host container: a scalar-algebra step between device phases
    /// (e.g. CG's `alpha = rs / pAp`). The loading lambda declares scalar
    /// reads/writes and returns the deferred host action.
    pub fn host(
        name: &str,
        num_devices: usize,
        gen: impl Fn(&mut Loader) -> HostFn + Send + Sync + 'static,
    ) -> Self {
        let mut accesses = Vec::new();
        {
            let mut loader = Loader::for_recording(&mut accesses, num_devices);
            let _ = gen(&mut loader);
        }
        Container {
            inner: Arc::new(ContainerInner {
                name: name.into(),
                kind: ContainerKind::Host,
                space: None,
                gen: None,
                host_gen: Some(Arc::new(gen)),
                bytes_per_cell: bytes_per_cell_of(&accesses),
                accesses,
                flops_per_cell: 0,
                bw_efficiency: 1.0,
                reduce_hooks: Vec::new(),
                members: Vec::new(),
                temporal: None,
            }),
        }
    }

    /// Compose several compute containers into one fused kernel (built by
    /// the fuse pass): a single traversal that applies every member's
    /// compute lambda per cell, in member order.
    ///
    /// The merged access list drives dependency inference exactly as if
    /// the members had been declared in one loading lambda. A read of a
    /// data object written by an *earlier* member costs zero bytes — the
    /// value is still in registers within the fused sweep — which is where
    /// fusion saves memory traffic; the write itself is kept, so later
    /// unfused consumers of the field stay correct.
    ///
    /// # Panics
    ///
    /// If fewer than two members are given, if any member is not a compute
    /// container, or if the members do not share one iteration space (as
    /// reported by [`IterationSpace::space_id`]).
    pub fn fused(name: &str, members: Vec<Container>) -> Self {
        Self::fused_named(name.into(), members)
    }

    fn fused_named(name: Arc<str>, members: Vec<Container>) -> Self {
        assert!(members.len() >= 2, "fusing fewer than two containers");
        let space = members[0]
            .inner
            .space
            .clone()
            .expect("fused members must be compute containers");
        let sid = space.space_id();
        assert!(sid.is_some(), "fused members need a grid identity");
        let mut accesses: Vec<AccessRecord> =
            Vec::with_capacity(members.iter().map(|m| m.inner.accesses.len()).sum());
        let mut flops_per_cell = 0u64;
        let mut bw_efficiency = f64::INFINITY;
        for m in &members {
            let ms = m
                .inner
                .space
                .as_ref()
                .expect("fused members must be compute containers");
            assert!(
                ms.space_id() == sid,
                "fused members must share one iteration space"
            );
            assert!(
                m.inner.gen.is_some(),
                "fused members must be compute containers"
            );
            // Earlier members' records are the ones already merged.
            let earlier = accesses.len();
            for a in &m.inner.accesses {
                let mut a = a.clone();
                if writes_uid(&accesses[..earlier], a.uid) {
                    a.read_bytes_per_cell = 0;
                }
                accesses.push(a);
            }
            flops_per_cell += m.inner.flops_per_cell;
            bw_efficiency = bw_efficiency.min(m.inner.bw_efficiency);
        }
        let kind = infer_kind(&accesses);
        let reduce_hooks = accesses
            .iter()
            .filter_map(|a| a.reduce_hooks.clone())
            .collect();
        let gens: Vec<Arc<GenFn>> = members
            .iter()
            .map(|m| m.inner.gen.clone().expect("checked above"))
            .collect();
        // One loading lambda running every member's: in execution mode the
        // loader's record() is a no-op, so sharing it is safe; each member
        // still builds its own device views. The members' views of one
        // partition belong to a single launch, so their leases coalesce
        // under a FusedScope instead of conflicting (see `access`).
        // Member kernels are chained per *span*, not per cell. This is
        // bit-identical to per-cell chaining because fusion legality
        // forbids a member stencil-reading data an earlier member wrote:
        // every member is cell-local over the span (maps, or reduces
        // accumulating in ascending cell order), so running member k over
        // cells [a..b] before member k+1 touches them computes the same
        // values as interleaving per cell. The merged records decide the
        // spans: whole rows for a chain of maps and reductions, runs cut
        // at the interior edges once any member stencil-reads.
        let gen = move |ldr: &mut Loader| -> KernelFn {
            let _scope = crate::access::FusedScope::enter();
            let mut kernels: Vec<KernelFn> = gens.iter().map(|g| g(ldr)).collect();
            KernelFn::spans(move |span: &Span| {
                for k in &mut kernels {
                    k.run_span(span);
                }
            })
        };
        Container {
            inner: Arc::new(ContainerInner {
                name,
                kind,
                space: Some(space),
                gen: Some(Arc::new(gen)),
                host_gen: None,
                bytes_per_cell: bytes_per_cell_of(&accesses),
                accesses,
                flops_per_cell,
                bw_efficiency,
                reduce_hooks,
                members,
                temporal: None,
            }),
        }
    }

    /// Merge several finalizing reduce containers into one collective-only
    /// container (built by collective fusion): it is never launched — only
    /// its [`Container::reduce_finalize`] runs, folding every member's
    /// partials in a single multi-scalar all-reduce round. Members may
    /// live on different grids; only their access records and reduce hooks
    /// are combined.
    pub fn fused_reductions(name: &str, members: Vec<Container>) -> Self {
        Self::fused_reductions_named(name.into(), members)
    }

    fn fused_reductions_named(name: Arc<str>, members: Vec<Container>) -> Self {
        let accesses: Vec<AccessRecord> = members
            .iter()
            .flat_map(|m| m.inner.accesses.iter().cloned())
            .collect();
        let reduce_hooks = accesses
            .iter()
            .filter_map(|a| a.reduce_hooks.clone())
            .collect();
        Container {
            inner: Arc::new(ContainerInner {
                name,
                kind: ContainerKind::Reduce,
                space: members.first().and_then(|m| m.inner.space.clone()),
                gen: None,
                host_gen: None,
                bytes_per_cell: bytes_per_cell_of(&accesses),
                accesses,
                flops_per_cell: 0,
                bw_efficiency: 1.0,
                reduce_hooks,
                members,
                temporal: None,
            }),
        }
    }

    /// Compose compute containers into one *temporal super-step*: a single
    /// launch that executes `k` whole iterations of the member sweeps, in
    /// member order, over an expanded interior whose ghost zone shrinks by
    /// the stencil radius each rep (overlapped tiling with ghost-zone
    /// recompute). Built by the temporal-fuse pass, which checks legality:
    /// compute-only members sharing one grid, no reductions, and no member
    /// stencil-reading data an *earlier* member of the step wrote.
    ///
    /// The merged access records promote every field read *before* its
    /// first write in the step to a stencil read carrying a depth-`k·r`
    /// halo exchange: rep 0 sweeps `(k-1)·r` ghost layers and stencil
    /// reads reach `k·r`, so one deep exchange up front replaces `k`
    /// per-iteration rounds. Each later rep's reads land on ghost cells
    /// the previous rep recomputed — deterministically identical to the
    /// values the owning device computes, so results match the unfused
    /// run bit for bit.
    ///
    /// # Panics
    ///
    /// If `k < 2`, members are empty or not compute containers, members
    /// do not share one iteration space, or a read-before-write field
    /// lacks a deep-halo-capable exchange (the pass checks all of these
    /// before constructing).
    pub fn temporal(name: &str, members: Vec<Container>, k: u8) -> Self {
        Self::temporal_named(name.into(), members, k)
    }

    fn temporal_named(name: Arc<str>, members: Vec<Container>, k: u8) -> Self {
        assert!(k >= 2, "temporal super-step needs k >= 2");
        assert!(!members.is_empty(), "temporal super-step needs members");
        let space = members[0]
            .inner
            .space
            .clone()
            .expect("temporal members must be compute containers");
        let sid = space.space_id();
        assert!(sid.is_some(), "temporal members need a grid identity");
        let mut radius = 1usize;
        for m in &members {
            let ms = m
                .inner
                .space
                .as_ref()
                .expect("temporal members must be compute containers");
            assert!(
                ms.space_id() == sid,
                "temporal members must share one iteration space"
            );
            assert!(
                m.inner.gen.is_some(),
                "temporal members must be compute containers"
            );
            assert!(
                m.inner.reduce_hooks.is_empty(),
                "reductions close super-steps; cannot cross iterations"
            );
            for a in &m.inner.accesses {
                if a.pattern == ComputePattern::Stencil && a.mode.reads() {
                    radius = radius.max(a.halo.as_ref().map_or(1, |h| h.depth()));
                }
            }
        }
        let deep = k as usize * radius;
        // Merge access records like `fused`, and promote reads that happen
        // before the step's first write of their field to deep stencil
        // reads: the multi-GPU pass then inserts one depth-`k·r` halo
        // node per such field in front of the super-step.
        let mut accesses: Vec<AccessRecord> = Vec::new();
        let mut flops_per_cell = 0u64;
        let mut bw_efficiency = f64::INFINITY;
        for m in &members {
            // Walk accesses in recorded (program) order so a read landing
            // after the step's first write of its field — even inside one
            // fused member — reads recomputed values, not the pre-step
            // state, and therefore needs no deep exchange.
            for a in &m.inner.accesses {
                let mut a = a.clone();
                if writes_uid(&accesses, a.uid) {
                    a.read_bytes_per_cell = 0;
                } else if a.mode.reads() {
                    if let Some(fx) = &a.field_exchange {
                        if fx.has_transfers() {
                            let deep_ex = fx.at_depth(deep).unwrap_or_else(|| {
                                panic!("field '{}' cannot host a depth-{} halo", a.name, deep)
                            });
                            a.pattern = ComputePattern::Stencil;
                            a.halo = Some(deep_ex);
                        }
                    }
                }
                accesses.push(a);
            }
            flops_per_cell += m.inner.flops_per_cell;
            bw_efficiency = bw_efficiency.min(m.inner.bw_efficiency);
        }
        let kind = infer_kind(&accesses);
        Container {
            inner: Arc::new(ContainerInner {
                name,
                kind,
                space: Some(space),
                gen: None,
                host_gen: None,
                bytes_per_cell: bytes_per_cell_of(&accesses),
                accesses,
                flops_per_cell,
                bw_efficiency,
                reduce_hooks: Vec::new(),
                members,
                temporal: Some(TemporalSpec { k, radius }),
            }),
        }
    }

    /// Whether this container was composed by [`Container::fused`],
    /// [`Container::fused_reductions`] or [`Container::temporal`].
    pub fn is_fused(&self) -> bool {
        !self.inner.members.is_empty()
    }

    /// This composite rebuilt the way it was built — fused kernel, merged
    /// reductions or temporal super-step, same name — over `members`,
    /// which stand in for its own members one for one. Plan rebinding
    /// uses it to give a new program instance a cached plan's
    /// compositions.
    ///
    /// # Panics
    ///
    /// If `self` is not a composite, if the member count differs, or on
    /// any panic of the constructor it repeats.
    pub fn recomposed(&self, members: Vec<Container>) -> Container {
        assert!(self.is_fused(), "'{}' is not a composite", self.name());
        assert_eq!(
            members.len(),
            self.inner.members.len(),
            "'{}' recomposed over a different member count",
            self.name()
        );
        let name = Arc::clone(&self.inner.name);
        match (self.inner.temporal, &self.inner.gen) {
            (Some(spec), _) => Container::temporal_named(name, members, spec.k),
            (None, Some(_)) => Container::fused_named(name, members),
            (None, None) => Container::fused_reductions_named(name, members),
        }
    }

    /// Member containers of a fused container (empty for ordinary ones).
    pub fn fused_members(&self) -> &[Container] {
        &self.inner.members
    }

    /// Temporal-blocking parameters, present for super-steps built by
    /// [`Container::temporal`].
    pub fn temporal_spec(&self) -> Option<TemporalSpec> {
        self.inner.temporal
    }

    /// Whether this container is a temporal super-step.
    pub fn is_temporal(&self) -> bool {
        self.inner.temporal.is_some()
    }

    /// Container name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// Whether `self` and `other` are clones of the same container
    /// instance (pointer identity). OCC split halves share one instance;
    /// the pipeline validator uses this to tell "two halves of one launch"
    /// from "two launches racing on the same data".
    pub fn same_instance(&self, other: &Container) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Inferred kind.
    pub fn kind(&self) -> ContainerKind {
        self.inner.kind
    }

    /// Declared accesses (recorded at construction).
    pub fn accesses(&self) -> &[AccessRecord] {
        &self.inner.accesses
    }

    /// The iteration space (None for host containers).
    pub fn space(&self) -> Option<&Arc<dyn IterationSpace>> {
        self.inner.space.as_ref()
    }

    /// Number of devices the container launches over (1 for host).
    pub fn num_devices(&self) -> usize {
        self.inner
            .space
            .as_ref()
            .map(|s| s.num_partitions())
            .unwrap_or(1)
    }

    /// Total bytes moved per iterated cell.
    ///
    /// Reads of the same data object by several accesses are counted once
    /// (on a real device the second read hits cache), writes likewise:
    /// `Σ_uid max(read bytes) + Σ_uid max(write bytes)`. Precomputed at
    /// construction, free to call per launch.
    pub fn bytes_per_cell(&self) -> u64 {
        self.inner.bytes_per_cell
    }

    /// FLOPs per iterated cell (user hint; 0 = bandwidth-bound).
    pub fn flops_per_cell(&self) -> u64 {
        self.inner.flops_per_cell
    }

    /// Achieved-bandwidth fraction of this kernel (1.0 = model peak).
    pub fn bw_efficiency(&self) -> f64 {
        self.inner.bw_efficiency
    }

    /// Stencil-read accesses that require a halo update before launch.
    pub fn stencil_reads(&self) -> impl Iterator<Item = &AccessRecord> {
        self.inner
            .accesses
            .iter()
            .filter(|a| a.pattern == ComputePattern::Stencil && a.mode.reads())
    }

    /// Whether the container performs a reduction.
    pub fn is_reduce(&self) -> bool {
        self.inner.kind == ContainerKind::Reduce
    }

    /// Reset the partials of every reduction target (call before the first
    /// sub-launch of a reduce container).
    pub fn reduce_init(&self) {
        for h in &self.inner.reduce_hooks {
            (h.init)();
        }
    }

    /// Fold partials into host values (call after the last sub-launch).
    pub fn reduce_finalize(&self) {
        for h in &self.inner.reduce_hooks {
            (h.finalize)();
        }
    }

    /// Functionally execute this container's `view` on device `dev`.
    ///
    /// Runs the loading lambda (building real views for `dev`), then the
    /// compute lambda over every cell of the view.
    pub fn run_device(&self, dev: DeviceId, view: DataView) {
        let space = self
            .inner
            .space
            .as_ref()
            .expect("run_device on a host container");
        assert!(
            space.supports_functional(),
            "container '{}' runs on a virtual-storage grid; functional execution unavailable",
            self.inner.name
        );
        if let Some(spec) = self.inner.temporal {
            assert!(
                view == DataView::Standard,
                "temporal super-steps launch the standard view only"
            );
            return self.run_device_temporal(dev, spec);
        }
        let gen = self.inner.gen.as_ref().expect("compute container");
        let mut loader = Loader::for_execution(dev, space.num_partitions(), view);
        let sweep = self.sweep(view.into());
        // One virtual call per span. A span-level kernel is handed to the
        // grid as it is; a per-cell kernel is unrolled here from the span's
        // counters, so both visit cells in the identical order.
        match gen(&mut loader) {
            KernelFn::PerCell(kernel) => {
                space.for_each_span(dev, sweep, &mut |span| span.cells().for_each(&kernel))
            }
            KernelFn::Spans(mut kernel) => space.for_each_span(dev, sweep, &mut *kernel),
        }
    }

    /// The sweep of one launch of this container over `region`: runs are
    /// cut for interior spans only if the container stencil-reads. A
    /// fused container's records are its members', so a fused map chain
    /// sweeps whole rows and a group with a stencil member is split.
    fn sweep(&self, region: Region) -> Sweep {
        Sweep {
            region,
            stencil_reads: self.stencil_reads().next().is_some(),
        }
    }

    /// One launch of a temporal super-step on `dev`: `k` reps of the
    /// member sweeps, rep `j` covering the owned cells plus `(k-1-j)·r`
    /// ghost layers. Rep 0's stencil reads reach depth `k·r` — valid
    /// because the deep halo exchange ran just before the launch — and
    /// every later rep reads ghost values the previous rep recomputed
    /// locally, so no cross-device traffic happens inside the step and
    /// the result is bit-identical to `k` separate exchanged sweeps.
    fn run_device_temporal(&self, dev: DeviceId, spec: TemporalSpec) {
        let space = self.inner.space.as_ref().expect("checked by caller");
        let k = spec.k as usize;
        // Build each member's kernel once; the views live for the whole
        // step. Like `fused`, the members' leases on one partition belong
        // to a single launch and coalesce under a FusedScope.
        let _scope = crate::access::FusedScope::enter();
        // Each member sweeps by its own records: the step's promoted deep
        // reads feed its halo exchange, not a member map's kernel.
        let mut kernels: Vec<(&Container, KernelFn)> = self
            .inner
            .members
            .iter()
            .map(|m| {
                let gen = m
                    .inner
                    .gen
                    .as_ref()
                    .expect("temporal members are compute containers");
                let mut loader =
                    Loader::for_execution(dev, space.num_partitions(), DataView::Standard);
                (m, gen(&mut loader))
            })
            .collect();
        for j in 0..k {
            let depth = (k - 1 - j) * spec.radius;
            for (m, kern) in &mut kernels {
                let sweep = m.sweep(Region::Expanded(depth));
                space.for_each_span(dev, sweep, &mut |span| kern.run_span(span));
            }
        }
    }

    /// Functionally execute a host container.
    pub fn run_host(&self) {
        let gen = self
            .inner
            .host_gen
            .as_ref()
            .expect("run_host on a compute container");
        let mut loader = Loader::for_execution(DeviceId(0), 1, DataView::Standard);
        let action = gen(&mut loader);
        action();
    }
}

fn infer_kind(accesses: &[AccessRecord]) -> ContainerKind {
    let mut kind = ContainerKind::Map;
    for a in accesses {
        match a.pattern {
            ComputePattern::Reduce => return ContainerKind::Reduce,
            ComputePattern::Stencil => kind = ContainerKind::Stencil,
            ComputePattern::Map => {}
        }
    }
    kind
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memset::{MemSet, StorageMode};
    use crate::scalar::ScalarSet;
    use neon_sys::Backend;

    /// Simple 1-D space: `len` cells per device, first/last cell boundary.
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

    fn setup() -> (Backend, Arc<dyn IterationSpace>) {
        (
            Backend::dgx_a100(2),
            Arc::new(Line { len: 8, devs: 2 }) as Arc<dyn IterationSpace>,
        )
    }

    #[test]
    fn map_container_runs_per_device() {
        let (b, space) = setup();
        let x = MemSet::<f64>::new(&b, "x", &[8, 8], StorageMode::Real).unwrap();
        let y = MemSet::<f64>::new(&b, "y", &[8, 8], StorageMode::Real).unwrap();
        x.from_host(&[1.0; 16]);
        let xc = x.clone();
        let yc = y.clone();
        let c = Container::compute("axpy", space, move |ldr| {
            let xv = ldr.read(&xc);
            let yv = ldr.read_write(&yc);
            Box::new(move |cell: Cell| {
                yv.set(cell.idx(), yv.get(cell.idx()) + 2.0 * xv.get(cell.idx()));
            })
        });
        assert_eq!(c.kind(), ContainerKind::Map);
        assert_eq!(c.accesses().len(), 2);
        c.run_device(DeviceId(0), DataView::Standard);
        c.run_device(DeviceId(1), DataView::Standard);
        assert_eq!(y.to_host(), vec![2.0; 16]);
    }

    #[test]
    fn stencil_kind_inferred() {
        let (b, space) = setup();
        let x = MemSet::<f64>::new(&b, "x", &[8, 8], StorageMode::Real).unwrap();
        let y = MemSet::<f64>::new(&b, "y", &[8, 8], StorageMode::Real).unwrap();
        let xc = x.clone();
        let yc = y.clone();
        let c = Container::compute("lap", space, move |ldr| {
            let xv = ldr.read_stencil(&xc);
            let yv = ldr.write(&yc);
            Box::new(move |cell: Cell| {
                // 1-D "stencil" clamped to the partition: just exercise
                // reads; real stencils live in neon-domain.
                let i = cell.idx();
                let left = if i > 0 { xv.get(i - 1) } else { 0.0 };
                yv.set(i, left + xv.get(i));
            })
        });
        assert_eq!(c.kind(), ContainerKind::Stencil);
        assert_eq!(c.stencil_reads().count(), 1);
    }

    #[test]
    fn reduce_container_lifecycle() {
        let (b, space) = setup();
        let x = MemSet::<f64>::new(&b, "x", &[8, 8], StorageMode::Real).unwrap();
        x.from_host(&(1..=16).map(f64::from).collect::<Vec<_>>());
        let s = ScalarSet::<f64>::new(2, "sum", 0.0, |a, b| a + b);
        let xc = x.clone();
        let sc = s.clone();
        let c = Container::compute("sum", space, move |ldr| {
            let xv = ldr.read(&xc);
            let acc = ldr.reduce(&sc);
            Box::new(move |cell: Cell| acc.update(|a| a + xv.get(cell.idx())))
        });
        assert_eq!(c.kind(), ContainerKind::Reduce);
        assert!(c.is_reduce());
        c.reduce_init();
        c.run_device(DeviceId(0), DataView::Standard);
        c.run_device(DeviceId(1), DataView::Standard);
        c.reduce_finalize();
        assert_eq!(s.host_value(), 136.0); // 1+2+...+16
    }

    #[test]
    fn reduce_split_views_accumulate() {
        let (b, space) = setup();
        let x = MemSet::<f64>::new(&b, "x", &[8, 8], StorageMode::Real).unwrap();
        x.from_host(&[1.0; 16]);
        let s = ScalarSet::<f64>::new(2, "sum", 0.0, |a, b| a + b);
        let xc = x.clone();
        let sc = s.clone();
        let c = Container::compute("sum", space, move |ldr| {
            let xv = ldr.read(&xc);
            let acc = ldr.reduce(&sc);
            Box::new(move |cell: Cell| acc.update(|a| a + xv.get(cell.idx())))
        });
        // Two-way OCC style: internal then boundary, one init, one finalize.
        c.reduce_init();
        for d in 0..2 {
            c.run_device(DeviceId(d), DataView::Internal);
        }
        for d in 0..2 {
            c.run_device(DeviceId(d), DataView::Boundary);
        }
        c.reduce_finalize();
        assert_eq!(s.host_value(), 16.0);
    }

    #[test]
    fn host_container_runs_scalar_algebra() {
        let rs = ScalarSet::<f64>::new(1, "rs", 0.0, |a, b| a + b);
        let pap = ScalarSet::<f64>::new(1, "pap", 0.0, |a, b| a + b);
        let alpha = ScalarSet::<f64>::new(1, "alpha", 0.0, |a, b| a + b);
        rs.set_host(6.0);
        pap.set_host(2.0);
        let (rsc, papc, alphac) = (rs.clone(), pap.clone(), alpha.clone());
        let c = Container::host("alpha", 1, move |ldr| {
            let r = ldr.scalar_reader(&rsc);
            let p = ldr.scalar_reader(&papc);
            let a = ldr.scalar_writer(&alphac);
            Box::new(move || a.set(r.get() / p.get()))
        });
        assert_eq!(c.kind(), ContainerKind::Host);
        assert_eq!(c.accesses().len(), 3);
        c.run_host();
        assert_eq!(alpha.host_value(), 3.0);
    }

    #[test]
    fn bytes_per_cell_sums_accesses() {
        let (b, space) = setup();
        let x = MemSet::<f64>::new(&b, "x", &[8, 8], StorageMode::Real).unwrap();
        let y = MemSet::<f64>::new(&b, "y", &[8, 8], StorageMode::Real).unwrap();
        let (xc, yc) = (x.clone(), y.clone());
        let c = Container::compute("axpy", space, move |ldr| {
            let xv = ldr.read(&xc);
            let yv = ldr.read_write(&yc);
            Box::new(move |cell: Cell| yv.set(cell.idx(), xv.get(cell.idx())))
        });
        // read x (8) + read-write y (16)
        assert_eq!(c.bytes_per_cell(), 24);
    }

    #[test]
    fn gen_reruns_pick_up_fresh_scalars() {
        let (b, space) = setup();
        let y = MemSet::<f64>::new(&b, "y", &[8, 8], StorageMode::Real).unwrap();
        let alpha = ScalarSet::<f64>::new(2, "alpha", 0.0, |a, b| a + b);
        let (yc, ac) = (y.clone(), alpha.clone());
        let c = Container::compute("scale", space, move |ldr| {
            let a = ldr.scalar(&ac);
            let yv = ldr.write(&yc);
            Box::new(move |cell: Cell| yv.set(cell.idx(), a))
        });
        alpha.set_host(1.5);
        c.run_device(DeviceId(0), DataView::Standard);
        alpha.set_host(2.5);
        c.run_device(DeviceId(1), DataView::Standard);
        let host = y.to_host();
        assert_eq!(host[0], 1.5);
        assert_eq!(host[8], 2.5);
    }
}
