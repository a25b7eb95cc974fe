//! Differential test of the validator and of transitive reduction against
//! their earlier `HashSet` implementations, kept below as oracles.
//!
//! Random container sequences go through the compile stages at every OCC
//! level on 1–4 devices, long enough that graphs pass 64 and 128 nodes (so
//! reachability rows span several words). Every stage's graph and the final
//! schedule are checked as built, where both must validate, and after one
//! seeded corruption; both implementations must return the same verdict,
//! and both reductions the same edge list, in order.

use neon_domain::{
    DenseGrid, Dim3, Field, GridLike as _, MemLayout, ScalarSet, Stencil, StorageMode,
};
use neon_set::Container;
use neon_sys::Backend;
use proptest::test_runner::TestRng;

use crate::collective::lower_collectives;
use crate::graph::{build_dependency_graph, Edge, EdgeKind, Graph};
use crate::multigpu::to_multigpu_graph;
use crate::occ::{apply_occ, OccLevel};
use crate::schedule::{build_schedule, Schedule};
use crate::validate::{data_name, validate_graph, validate_ir, validate_schedule, ValidationError};

/// The validator and transitive reduction as they were before bitset
/// reachability, verbatim but for `self` becoming `g`.
mod oracle {
    use std::collections::{HashMap, HashSet};

    use neon_set::{ComputePattern, DataUid, DataView};

    use crate::graph::{Graph, NodeId, NodeKind};
    use crate::schedule::Schedule;
    use crate::validate::ValidationError;

    /// Per-node summary of how one data object is used.
    #[derive(Default, Clone, Copy)]
    struct UidUse {
        reads: bool,
        writes: bool,
        stencil: bool,
    }

    /// Collect each data object a node touches, with the aggregated mode and
    /// whether any access to it is a stencil (non-local) access.
    ///
    /// Halo nodes report nothing (their conflicts are covered by the halo
    /// precedence check); collective nodes report only the reduced scalars —
    /// the carried container's field reads belong to the accumulating kernel,
    /// not to the communication step.
    fn node_uses(kind: &NodeKind) -> HashMap<DataUid, UidUse> {
        let mut uses: HashMap<DataUid, UidUse> = HashMap::new();
        match kind {
            NodeKind::Halo { .. } => {}
            NodeKind::Collective { container, .. } => {
                for a in container.accesses() {
                    if a.pattern == ComputePattern::Reduce {
                        let u = uses.entry(a.uid).or_default();
                        u.reads = true;
                        u.writes = true;
                    }
                }
            }
            NodeKind::Compute { container, .. } | NodeKind::Host { container } => {
                for a in container.accesses() {
                    let u = uses.entry(a.uid).or_default();
                    u.reads |= a.mode.reads();
                    u.writes |= a.mode.writes();
                    u.stencil |= a.pattern == ComputePattern::Stencil;
                }
            }
        }
        uses
    }

    /// Kahn's algorithm over data + hint edges; returns a topological order or
    /// the set of nodes stuck on a cycle.
    fn check_acyclic(g: &Graph) -> Result<Vec<NodeId>, ValidationError> {
        let n = g.len();
        let mut indeg = vec![0usize; n];
        for e in g.edges() {
            indeg[e.to] += 1;
        }
        let mut stack: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = stack.pop() {
            order.push(u);
            for e in g.edges() {
                if e.from == u {
                    indeg[e.to] -= 1;
                    if indeg[e.to] == 0 {
                        stack.push(e.to);
                    }
                }
            }
        }
        if order.len() == n {
            Ok(order)
        } else {
            let stuck: Vec<String> = (0..n)
                .filter(|&i| indeg[i] > 0)
                .map(|i| g.node(i).name.clone())
                .collect();
            Err(ValidationError::Cycle { nodes: stuck })
        }
    }

    /// `reach[u]` = nodes reachable from `u` via data edges (u excluded).
    fn data_reachability(g: &Graph, topo: &[NodeId]) -> Vec<HashSet<NodeId>> {
        let mut reach: Vec<HashSet<NodeId>> = vec![HashSet::new(); g.len()];
        for &u in topo.iter().rev() {
            let mut r = HashSet::new();
            for e in g.data_children(u) {
                r.insert(e.to);
                r.extend(reach[e.to].iter().copied());
            }
            reach[u] = r;
        }
        reach
    }

    /// Whether two views iterate provably disjoint cell sets.
    fn views_disjoint(a: DataView, b: DataView) -> bool {
        matches!(
            (a, b),
            (DataView::Internal, DataView::Boundary) | (DataView::Boundary, DataView::Internal)
        )
    }

    /// Validate a graph's structural invariants (checks 1–3 above).
    ///
    /// `check_halos` is off before the multi-GPU pass has run (the raw
    /// dependency graph legitimately has stencil readers with no halo nodes
    /// yet).
    pub fn validate_graph(
        g: &Graph,
        ndev: usize,
        check_halos: bool,
    ) -> Result<(), ValidationError> {
        let topo = check_acyclic(g)?;
        let reach = data_reachability(g, &topo);

        // Check 2: conflicting accesses are ordered (or provably race-free).
        let uses: Vec<HashMap<DataUid, UidUse>> =
            g.nodes().iter().map(|n| node_uses(&n.kind)).collect();
        let mut uid_names: HashMap<DataUid, String> = HashMap::new();
        for n in g.nodes() {
            if let Some(c) = n.container() {
                for a in c.accesses() {
                    uid_names.entry(a.uid).or_insert_with(|| a.name.to_string());
                }
            }
        }
        for a in 0..g.len() {
            for b in (a + 1)..g.len() {
                let (na, nb) = (g.node(a), g.node(b));
                if let (Some(ca), Some(cb)) = (na.container(), nb.container()) {
                    if ca.same_instance(cb) {
                        continue; // split halves / kernel+collective of one launch
                    }
                }
                for (uid, ua) in &uses[a] {
                    let Some(ub) = uses[b].get(uid) else {
                        continue;
                    };
                    if !(ua.writes || ub.writes) {
                        continue; // two readers never conflict
                    }
                    let cell_local = !ua.stencil && !ub.stencil;
                    if cell_local && views_disjoint(na.view(), nb.view()) {
                        continue; // disjoint iteration sets cannot race
                    }
                    if !reach[a].contains(&b) && !reach[b].contains(&a) {
                        return Err(ValidationError::UnorderedConflict {
                            a: na.name.clone(),
                            b: nb.name.clone(),
                            data: uid_names
                                .get(uid)
                                .cloned()
                                .unwrap_or_else(|| format!("{uid:?}")),
                        });
                    }
                }
            }
        }

        // Check 3: every boundary-touching stencil read has a halo ancestor.
        if check_halos && ndev >= 2 {
            for (id, n) in g.nodes().iter().enumerate() {
                if n.view() == DataView::Internal {
                    continue; // internal cells never touch halo data
                }
                let Some(c) = n.container() else { continue };
                for acc in c.stencil_reads() {
                    let live = acc
                        .halo
                        .as_ref()
                        .map(|h| h.has_transfers())
                        .unwrap_or(false);
                    if !live {
                        continue;
                    }
                    let covered = (0..g.len()).any(|h| {
                        matches!(&g.node(h).kind, NodeKind::Halo { exchange }
                            if exchange.data_uid() == acc.uid)
                            && reach[h].contains(&id)
                    });
                    if !covered {
                        return Err(ValidationError::MissingHalo {
                            node: n.name.clone(),
                            data: acc.name.to_string(),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Validate a schedule against its graph (check 4 above).
    pub fn validate_schedule(g: &Graph, s: &Schedule) -> Result<(), ValidationError> {
        if s.tasks.len() != g.len() {
            return Err(ValidationError::TaskCountMismatch {
                tasks: s.tasks.len(),
                nodes: g.len(),
            });
        }
        let mut pos = vec![usize::MAX; g.len()];
        for (i, t) in s.tasks.iter().enumerate() {
            if pos[t.node] != usize::MAX {
                return Err(ValidationError::DuplicateTask {
                    node: g.node(t.node).name.clone(),
                });
            }
            pos[t.node] = i;
        }
        if let Some(missing) = (0..g.len()).find(|&n| pos[n] == usize::MAX) {
            return Err(ValidationError::DuplicateTask {
                node: g.node(missing).name.clone(),
            });
        }

        // Data edges respected by the enqueue order, and evented when they
        // cross streams or involve halo/collective endpoints.
        for e in g.edges() {
            if !e.kind.is_data() {
                continue;
            }
            if pos[e.from] >= pos[e.to] {
                return Err(ValidationError::NotTopological {
                    from: g.node(e.from).name.clone(),
                    to: g.node(e.to).name.clone(),
                });
            }
            let needs_event = s.stream_of[e.from] != s.stream_of[e.to]
                || g.node(e.from).is_halo()
                || g.node(e.to).is_halo()
                || g.node(e.from).is_collective()
                || g.node(e.to).is_collective();
            if needs_event && !s.tasks[pos[e.to]].wait.contains(&e.from) {
                return Err(ValidationError::MissingEvent {
                    from: g.node(e.from).name.clone(),
                    to: g.node(e.to).name.clone(),
                });
            }
        }

        // Event begin/end pairing.
        let mut waited: HashSet<NodeId> = HashSet::new();
        for (i, t) in s.tasks.iter().enumerate() {
            for &w in &t.wait {
                waited.insert(w);
                if pos[w] >= i {
                    return Err(ValidationError::WaitNotEarlier {
                        task: g.node(t.node).name.clone(),
                        waited: g.node(w).name.clone(),
                    });
                }
                if !s.tasks[pos[w]].signals {
                    return Err(ValidationError::WaitWithoutSignal {
                        task: g.node(t.node).name.clone(),
                        waited: g.node(w).name.clone(),
                    });
                }
            }
        }
        for t in &s.tasks {
            if t.signals && !waited.contains(&t.node) {
                return Err(ValidationError::SignalWithoutWait {
                    task: g.node(t.node).name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Validate the full IR state: the graph always, the schedule if present.
    pub fn validate_ir(
        g: &Graph,
        schedule: Option<&Schedule>,
        ndev: usize,
        check_halos: bool,
    ) -> Result<(), ValidationError> {
        validate_graph(g, ndev, check_halos)?;
        if let Some(s) = schedule {
            validate_schedule(g, s)?;
        }
        Ok(())
    }

    /// Remove data edges implied by transitivity (paper §V-B removes the
    /// map→dot edge as redundant). Hints are never removed.
    pub fn transitive_reduce(g: &mut Graph) {
        let n = g.nodes().len();
        // reach[u] = set of nodes reachable from u via data edges.
        let order = g.bfs_levels(false);
        let mut reach: Vec<std::collections::HashSet<NodeId>> =
            vec![std::collections::HashSet::new(); n];
        for level in order.iter().rev() {
            for &u in level {
                let children: Vec<NodeId> = g
                    .edges()
                    .iter()
                    .filter(|e| e.from == u && e.kind.is_data())
                    .map(|e| e.to)
                    .collect();
                let mut r = std::collections::HashSet::new();
                for c in children {
                    r.insert(c);
                    r.extend(reach[c].iter().copied());
                }
                reach[u] = r;
            }
        }
        let edges = std::mem::take(g.edges_mut());
        *g.edges_mut() = edges
            .into_iter()
            .filter(|e| {
                if !e.kind.is_data() {
                    return true;
                }
                // Redundant if another node lies on a from→…→to path.
                // Halo nodes are not valid intermediates: OCC later narrows
                // halo edges to boundary halves, so a path through a halo
                // node cannot substitute for a direct data dependency.
                let redundant = g.nodes().iter().enumerate().any(|(m, node)| {
                    m != e.to
                        && m != e.from
                        && !node.is_halo()
                        && reach[e.from].contains(&m)
                        && reach[m].contains(&e.to)
                });
                !redundant
            })
            .collect();
    }

    /// The data objects both nodes use where at least one writes.
    pub fn shared_written(g: &Graph, a: NodeId, b: NodeId) -> Vec<DataUid> {
        let (ua, ub) = (node_uses(&g.node(a).kind), node_uses(&g.node(b).kind));
        ua.iter()
            .filter_map(|(uid, x)| {
                let y = ub.get(uid)?;
                (x.writes || y.writes).then_some(*uid)
            })
            .collect()
    }
}

/// Three fields and two scalars over one small virtual grid.
struct Setup {
    grid: DenseGrid,
    fields: Vec<Field<f64, DenseGrid>>,
    scalars: Vec<ScalarSet<f64>>,
}

impl Setup {
    fn new(ndev: usize) -> Self {
        let backend = Backend::dgx_a100(ndev);
        let st = Stencil::seven_point();
        let grid =
            DenseGrid::new(&backend, Dim3::new(4, 4, 16), &[&st], StorageMode::Virtual).unwrap();
        let fields = ["x", "y", "z"]
            .map(|n| Field::<f64, _>::new(&grid, n, 1, 0.0, MemLayout::SoA).unwrap())
            .to_vec();
        let scalars = ["a", "b"]
            .map(|n| ScalarSet::<f64>::new(ndev, n, 0.0, |p, q| p + q))
            .to_vec();
        Setup {
            grid,
            fields,
            scalars,
        }
    }

    /// A random container with a unique name. The bodies never run; only
    /// the recorded accesses matter here.
    fn random_op(&self, i: usize, rng: &mut TestRng) -> Container {
        let mut pick = |n: usize| rng.below(n as u64) as usize;
        // Two distinct fields and two (possibly equal) scalars.
        let f = pick(3);
        let (fa, fb) = (
            self.fields[f].clone(),
            self.fields[(f + 1 + pick(2)) % 3].clone(),
        );
        let (s, t) = (self.scalars[pick(2)].clone(), self.scalars[pick(2)].clone());
        let space = self.grid.as_space();
        match pick(7) {
            0 => Container::compute(&format!("c{i}:map"), space, move |ldr| {
                let _ = ldr.read_write(&fa);
                Box::new(|_| {})
            }),
            1 => Container::compute(&format!("c{i}:map2"), space, move |ldr| {
                let _ = (ldr.read_write(&fa), ldr.read_write(&fb));
                Box::new(|_| {})
            }),
            2 => Container::compute(&format!("c{i}:copy"), space, move |ldr| {
                let _ = (ldr.read(&fa), ldr.write(&fb));
                Box::new(|_| {})
            }),
            3 => Container::compute(&format!("c{i}:stencil"), space, move |ldr| {
                let _ = (ldr.read_stencil(&fa), ldr.write(&fb));
                Box::new(|_| {})
            }),
            4 => Container::compute(&format!("c{i}:dot"), space, move |ldr| {
                let _ = (ldr.read(&fa), ldr.read(&fb), ldr.reduce(&s));
                Box::new(|_| {})
            }),
            5 => Container::compute(&format!("c{i}:axpy"), space, move |ldr| {
                let _ = (ldr.scalar(&s), ldr.read(&fa), ldr.read_write(&fb));
                Box::new(|_| {})
            }),
            _ => Container::host(
                &format!("c{i}:host"),
                self.scalars[0].num_devices(),
                move |ldr| {
                    let _ = (ldr.scalar_reader(&s), ldr.scalar_writer(&t));
                    Box::new(|| {})
                },
            ),
        }
    }
}

/// Assert that both validators reached the same verdict on `g`. The
/// `data` of an unordered conflict may differ only when the pair shares
/// more than one written object (the oracle iterated a `HashMap`).
fn assert_same_verdict(
    new: Result<(), ValidationError>,
    old: Result<(), ValidationError>,
    g: &Graph,
    what: &str,
) {
    if let (
        Err(ValidationError::UnorderedConflict { a, b, data }),
        Err(ValidationError::UnorderedConflict {
            a: a0,
            b: b0,
            data: data0,
        }),
    ) = (&new, &old)
    {
        assert_eq!((a, b), (a0, b0), "{what}");
        if data != data0 {
            let id = |name: &str| (0..g.len()).find(|&i| g.node(i).name == name).unwrap();
            let shared = oracle::shared_written(g, id(a), id(b));
            let names: Vec<String> = shared.iter().map(|&u| data_name(g, u)).collect();
            assert!(
                names.len() > 1 && names.contains(data) && names.contains(data0),
                "{what}: {data} vs {data0} among {names:?}"
            );
        }
    } else {
        assert_eq!(new, old, "{what}");
    }
}

/// The corruptions, one applied per checked graph.
const GRAPH_CORRUPTIONS: [&str; 3] = ["drop-edge", "back-edge", "sever-halo"];
const SCHEDULE_CORRUPTIONS: [&str; 3] = ["reverse", "swap", "clear-wait"];

/// Apply one seeded graph corruption; returns its name (or `None` when
/// the graph offers nothing to corrupt).
fn corrupt_graph(g: &mut Graph, rng: &mut TestRng) -> Option<&'static str> {
    let kind = GRAPH_CORRUPTIONS[rng.below(3) as usize];
    let data: Vec<usize> = (0..g.edges().len())
        .filter(|&i| g.edges()[i].kind.is_data())
        .collect();
    let halos: Vec<usize> = (0..g.len()).filter(|&i| g.node(i).is_halo()).collect();
    match kind {
        "drop-edge" if !data.is_empty() => {
            let i = data[rng.below(data.len() as u64) as usize];
            g.edges_mut().remove(i);
        }
        "back-edge" if !data.is_empty() => {
            let e = g.edges()[data[rng.below(data.len() as u64) as usize]];
            let kind = if rng.below(2) == 0 {
                EdgeKind::RaW
            } else {
                EdgeKind::Sched
            };
            g.edges_mut().push(Edge {
                from: e.to,
                to: e.from,
                kind,
                data: e.data,
            });
        }
        "sever-halo" if !halos.is_empty() => {
            let h = halos[rng.below(halos.len() as u64) as usize];
            g.edges_mut().retain(|e| e.from != h);
        }
        _ => return None,
    }
    Some(kind)
}

/// Apply one seeded schedule corruption; returns its name.
fn corrupt_schedule(s: &mut Schedule, rng: &mut TestRng) -> Option<&'static str> {
    let kind = SCHEDULE_CORRUPTIONS[rng.below(3) as usize];
    let n = s.tasks.len();
    let waiting: Vec<usize> = (0..n).filter(|&i| !s.tasks[i].wait.is_empty()).collect();
    match kind {
        "reverse" => s.tasks.reverse(),
        "swap" if n >= 2 => {
            let (i, j) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
            s.tasks.swap(i, j);
        }
        "clear-wait" if !waiting.is_empty() => {
            s.tasks[waiting[rng.below(waiting.len() as u64) as usize]]
                .wait
                .clear();
        }
        _ => return None,
    }
    Some(kind)
}

/// What the sweep covered.
#[derive(Default)]
struct Tally {
    max_nodes: usize,
    over_128: usize,
    corruptions: usize,
    errors: usize,
    reductions: usize,
}

/// Both validators agree on `g` as built and once corrupted, and both
/// reductions agree wherever the graph is acyclic.
fn check_graph(g: &Graph, ndev: usize, halos: bool, rng: &mut TestRng, what: &str, t: &mut Tally) {
    let mut corrupted = g.clone();
    let kind = corrupt_graph(&mut corrupted, rng);
    for (g, label) in [(g, "as built"), (&corrupted, kind.unwrap_or("untouched"))] {
        let what = format!("{what}, {label}");
        let old = oracle::validate_graph(g, ndev, halos);
        let new = validate_graph(g, ndev, halos);
        if label == "as built" {
            assert_eq!(new, Ok(()), "{what}: the pipeline's own output");
        }
        assert_same_verdict(new, old.clone(), g, &what);
        t.errors += usize::from(old.is_err());
        if !matches!(old, Err(ValidationError::Cycle { .. })) {
            let (mut new, mut old) = (g.clone(), g.clone());
            new.transitive_reduce();
            oracle::transitive_reduce(&mut old);
            assert_eq!(new.edges(), old.edges(), "{what}: reduced edges");
            t.reductions += 1;
        }
    }
    t.max_nodes = t.max_nodes.max(g.len());
    t.over_128 += usize::from(g.len() > 128);
    t.corruptions += usize::from(kind.is_some());
}

#[test]
fn bitset_validator_and_reduction_match_the_hashset_oracles() {
    let mut rng = TestRng::new(0x5eed_0c0d_e5a1_1d47);
    let mut t = Tally::default();
    for case in 0..24 {
        let ndev = 1 + case % 4;
        // Short, medium and long sequences: long ones pass 128 nodes.
        let len = [4, 30, 84][case / 4 % 3] + rng.below(12) as usize;
        let setup = Setup::new(ndev);
        let seq: Vec<Container> = (0..len).map(|i| setup.random_op(i, &mut rng)).collect();
        let what = format!("case {case} ({len} ops, {ndev} dev)");
        let dep = build_dependency_graph(&seq);
        let mg = to_multigpu_graph(&dep, ndev);
        let mut graphs = Vec::new();
        for level in OccLevel::ALL {
            let what = format!("{what} {level}");
            let occ = apply_occ(&mg, level);
            let lowered = lower_collectives(&occ, ndev);
            let schedule = build_schedule(&lowered, 8);
            let mut bad = schedule.clone();
            let kind = corrupt_schedule(&mut bad, &mut rng);
            for (s, label) in [(&schedule, "as built"), (&bad, kind.unwrap_or("untouched"))] {
                let what = format!("{what} schedule, {label}");
                let old = oracle::validate_ir(&lowered, Some(s), ndev, true);
                let new = validate_ir(&lowered, Some(s), ndev, true);
                if label == "as built" {
                    assert_eq!(new, Ok(()), "{what}: the pipeline's own output");
                }
                assert_same_verdict(new, old.clone(), &lowered, &what);
                assert_eq!(
                    validate_schedule(&lowered, s),
                    oracle::validate_schedule(&lowered, s),
                    "{what}"
                );
                t.errors += usize::from(old.is_err());
            }
            t.corruptions += usize::from(kind.is_some());
            graphs.push((occ, true, format!("{what} occ")));
            graphs.push((lowered, true, format!("{what} collective-lowering")));
        }
        graphs.push((dep, false, format!("{what} dependency-graph")));
        graphs.push((mg, true, format!("{what} multi-gpu")));
        for (g, halos, what) in &graphs {
            check_graph(g, ndev, *halos, &mut rng, what, &mut t);
        }
    }
    // The sweep exercised multi-word rows and had teeth.
    assert!(
        t.max_nodes > 128 && t.over_128 >= 8,
        "max {} nodes",
        t.max_nodes
    );
    assert!(t.corruptions > 250, "{} corruptions", t.corruptions);
    assert!(t.errors > 200, "{} rejected", t.errors);
    assert!(t.reductions > 350, "{} reductions", t.reductions);
}
