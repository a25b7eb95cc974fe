//! Overlap of computation and communication (paper §V-B).
//!
//! OCC works by splitting launches into an **internal** half (cells whose
//! stencil neighbourhood is partition-local) and a **boundary** half
//! (cells that need halo data), so halo transfers can run while internal
//! cells compute:
//!
//! * **Standard** — split every stencil node fed by a halo update. The
//!   boundary half waits for the halo; the internal half does not.
//! * **Extended** — additionally split the *map* nodes that produce the
//!   halo-exchanged field. The halo transfer then only waits for the
//!   boundary map half, overlapping with the internal map *and* the
//!   internal stencil.
//! * **Two-way Extended** — additionally split map/reduce nodes that
//!   consume the stencil's output. Their internal halves run during the
//!   halo too. A split reduction gains an internal→boundary *data* edge
//!   because both halves accumulate into the same per-device partials.
//!
//! Scheduling hints (orange arrows in the paper's Fig. 4d) bias the final
//! task order: boundary maps launch before internal maps (so the halo
//! starts early), internal stencil/reduce halves launch before boundary
//! halves (so the stream isn't blocked waiting on the halo).

use std::collections::HashSet;

use neon_set::{ComputePattern, Container, ContainerKind, DataUid, DataView};

use crate::graph::{Edge, EdgeKind, Graph, Node, NodeId, NodeKind};
use crate::validate;

/// The OCC optimization level of a skeleton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OccLevel {
    /// No overlap: halo updates serialize with computation.
    None,
    /// Split stencil nodes (the classic technique).
    #[default]
    Standard,
    /// Also split map nodes feeding the halo-exchanged fields.
    Extended,
    /// Also split map/reduce nodes consuming the stencil output.
    TwoWayExtended,
}

impl OccLevel {
    /// All levels, for sweeps.
    pub const ALL: [OccLevel; 4] = [
        OccLevel::None,
        OccLevel::Standard,
        OccLevel::Extended,
        OccLevel::TwoWayExtended,
    ];

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            OccLevel::None => "no-OCC",
            OccLevel::Standard => "OCC",
            OccLevel::Extended => "eOCC",
            OccLevel::TwoWayExtended => "2-eOCC",
        }
    }
}

impl std::fmt::Display for OccLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[derive(Clone, Copy)]
enum Mapped {
    One(NodeId),
    Two { int: NodeId, bnd: NodeId },
}

impl Mapped {
    /// The output nodes standing for one input node.
    fn nodes(self) -> impl Iterator<Item = NodeId> {
        let (a, b) = match self {
            Mapped::One(a) => (a, None),
            Mapped::Two { int, bnd } => (int, Some(bnd)),
        };
        std::iter::once(a).chain(b)
    }
}

fn accesses_via_stencil(c: &Container, uid: DataUid) -> bool {
    c.accesses()
        .iter()
        .any(|a| a.uid == uid && a.pattern == ComputePattern::Stencil)
}

fn is_splittable_compute(node: &Node) -> bool {
    // Temporal super-steps iterate an *expanded* interior whose ghost zone
    // shrinks per rep — there is no Internal/Boundary decomposition of that
    // footprint, so OCC never splits them.
    let temporal = node
        .container()
        .map(Container::is_temporal)
        .unwrap_or(false);
    !temporal
        && matches!(
            &node.kind,
            NodeKind::Compute {
                view: DataView::Standard,
                ..
            }
        )
}

/// Apply an OCC level to a multi-GPU graph, producing the optimized graph.
pub fn apply_occ(g: &Graph, level: OccLevel) -> Graph {
    if level == OccLevel::None {
        return g.clone();
    }

    // --- choose the nodes to split -------------------------------------
    let halo_nodes: Vec<NodeId> = (0..g.len()).filter(|&i| g.node(i).is_halo()).collect();

    // Stencil nodes fed by a halo update.
    let mut stencil_splits: HashSet<NodeId> = HashSet::new();
    for &h in &halo_nodes {
        for e in g.data_children(h) {
            let n = g.node(e.to);
            if is_splittable_compute(n)
                && n.container().map(Container::kind) == Some(ContainerKind::Stencil)
            {
                stencil_splits.insert(e.to);
            }
        }
    }

    // Extended: map nodes feeding those halos.
    let mut map_splits: HashSet<NodeId> = HashSet::new();
    if matches!(level, OccLevel::Extended | OccLevel::TwoWayExtended) {
        for &h in &halo_nodes {
            let feeds_split = g.data_children(h).any(|e| stencil_splits.contains(&e.to));
            if !feeds_split {
                continue;
            }
            for e in g.data_parents(h) {
                if e.kind != EdgeKind::RaW {
                    continue;
                }
                let n = g.node(e.from);
                if is_splittable_compute(n)
                    && n.container().map(Container::kind) == Some(ContainerKind::Map)
                {
                    map_splits.insert(e.from);
                }
            }
        }
    }

    // Two-way: map/reduce consumers of split stencils.
    let mut succ_splits: HashSet<NodeId> = HashSet::new();
    if level == OccLevel::TwoWayExtended {
        for &s in &stencil_splits {
            for e in g.data_children(s) {
                if e.kind != EdgeKind::RaW {
                    continue;
                }
                let id = e.to;
                if stencil_splits.contains(&id) || map_splits.contains(&id) {
                    continue;
                }
                let n = g.node(id);
                // A fused node containing a reduction is never split: its
                // member kernels interleave per cell, so an int/bnd split
                // would reorder the accumulation relative to the unfused
                // sequence and break fusion's bit-identity guarantee.
                let fused_reduce = n
                    .container()
                    .map(|c| c.is_fused() && c.is_reduce())
                    .unwrap_or(false);
                if is_splittable_compute(n)
                    && !fused_reduce
                    && matches!(
                        n.container().map(Container::kind),
                        Some(ContainerKind::Map) | Some(ContainerKind::Reduce)
                    )
                {
                    succ_splits.insert(id);
                }
            }
        }
    }

    // --- build the split graph -----------------------------------------
    let mut out = Graph::new();
    // `mapping[id]`: what input node `id` became.
    let mut mapping: Vec<Mapped> = Vec::with_capacity(g.len());

    for (id, node) in g.nodes().iter().enumerate() {
        let split =
            stencil_splits.contains(&id) || map_splits.contains(&id) || succ_splits.contains(&id);
        if !split {
            let nid = out.add_node(node.clone());
            mapping.push(Mapped::One(nid));
            continue;
        }
        let NodeKind::Compute {
            container,
            reduce_init,
            reduce_finalize,
            ..
        } = &node.kind
        else {
            unreachable!("only Standard compute nodes are split");
        };
        let make = |view: DataView, init: bool, fin: bool| Node {
            name: format!("{}.{}", node.name, view.label()),
            kind: NodeKind::Compute {
                container: container.clone(),
                view,
                reduce_init: init,
                reduce_finalize: fin,
            },
            source: node.source,
            fused_sources: node.fused_sources.clone(),
        };
        // Boundary maps go first in id order so ties in the final BFS
        // ordering favour them; internal halves first for stencil/reduce.
        let boundary_first = map_splits.contains(&id);
        let (int, bnd) = if boundary_first {
            let bnd = out.add_node(make(DataView::Boundary, false, false));
            let int = out.add_node(make(DataView::Internal, *reduce_init, *reduce_finalize));
            (int, bnd)
        } else {
            let int = out.add_node(make(DataView::Internal, *reduce_init, false));
            let bnd = out.add_node(make(DataView::Boundary, false, *reduce_finalize));
            (int, bnd)
        };
        mapping.push(Mapped::Two { int, bnd });

        if container.is_reduce() && !boundary_first {
            // Both halves accumulate into the same partials: serialize.
            out.add_edge(Edge {
                from: int,
                to: bnd,
                kind: EdgeKind::RaW,
                data: None,
            });
        }
        if boundary_first {
            out.add_edge(Edge {
                from: bnd,
                to: int,
                kind: EdgeKind::Sched,
                data: None,
            });
        } else {
            out.add_edge(Edge {
                from: int,
                to: bnd,
                kind: EdgeKind::Sched,
                data: None,
            });
        }
    }

    // --- rewire edges ----------------------------------------------------
    for e in g.edges() {
        let mu = mapping[e.from];
        let mv = mapping[e.to];
        let mut push = |from: NodeId, to: NodeId| {
            if from != to {
                out.add_edge(Edge {
                    from,
                    to,
                    kind: e.kind,
                    data: e.data,
                });
            }
        };
        match (mu, mv) {
            (Mapped::One(a), Mapped::One(b)) => push(a, b),
            (Mapped::Two { int, bnd }, Mapped::One(b)) => {
                if g.node(e.to).is_halo() {
                    // The halo reads (RaW) or overwrites data read by (WaR)
                    // boundary-region cells only: the internal half is
                    // independent — this is what creates the overlap window.
                    push(bnd, b);
                } else {
                    push(int, b);
                    push(bnd, b);
                }
            }
            (Mapped::One(a), Mapped::Two { int, bnd }) => {
                if g.node(e.from).is_halo() {
                    // Only boundary cells consume halo data.
                    push(a, bnd);
                } else {
                    push(a, int);
                    push(a, bnd);
                }
            }
            (Mapped::Two { int: ui, bnd: ub }, Mapped::Two { int: vi, bnd: vb }) => {
                let nonlocal = match e.data {
                    Some(uid) => {
                        let u_st = g
                            .node(e.from)
                            .container()
                            .map(|c| accesses_via_stencil(c, uid))
                            .unwrap_or(true);
                        let v_st = g
                            .node(e.to)
                            .container()
                            .map(|c| accesses_via_stencil(c, uid))
                            .unwrap_or(true);
                        u_st || v_st
                    }
                    None => true,
                };
                if nonlocal {
                    push(ui, vi);
                    push(ui, vb);
                    push(ub, vi);
                    push(ub, vb);
                } else {
                    // Cell-local dependency: classes align one-to-one.
                    push(ui, vi);
                    push(ub, vb);
                }
            }
        }
    }

    order_split_conflicts(&mut out, &mapping);

    // Paper Fig. 4d hint: launch the successor-internal halves before the
    // stencil-boundary halves, so they fill the halo-wait gap on the
    // compute stream. Added after rewiring so we can refuse hints that
    // would close a cycle (possible when the successor also write-
    // conflicts with the stencil's input, creating S_bnd → R_int data
    // edges).
    if level == OccLevel::TwoWayExtended {
        let reaches = |g: &Graph, from: NodeId, to: NodeId| -> bool {
            let mut stack = vec![from];
            let mut seen = vec![false; g.len()];
            while let Some(u) = stack.pop() {
                if u == to {
                    return true;
                }
                if std::mem::replace(&mut seen[u], true) {
                    continue;
                }
                for e in g.edges() {
                    if e.from == u && !seen[e.to] {
                        stack.push(e.to);
                    }
                }
            }
            false
        };
        for &sid in &stencil_splits {
            let Mapped::Two { bnd: s_bnd, .. } = mapping[sid] else {
                continue;
            };
            for e in g.data_children(sid) {
                if succ_splits.contains(&e.to) {
                    if let Mapped::Two { int: r_int, .. } = mapping[e.to] {
                        if !reaches(&out, s_bnd, r_int) {
                            out.add_edge(Edge {
                                from: r_int,
                                to: s_bnd,
                                kind: EdgeKind::Sched,
                                data: None,
                            });
                        }
                    }
                }
            }
        }
    }

    out
}

/// Order every two output nodes that stand for different input nodes,
/// conflict on a data object, and are left unordered by the rewiring.
///
/// The rewiring preserves each input edge, but an input pair ordered only
/// through a third node loses its ordering when that node splits: the
/// multi-GPU pass's transitive reduction drops `u → v` when `u → m → v`
/// implies it, and if the `m` edges are cell-local they are rewired half to
/// half, so nothing orders `u`'s internal half before `v`'s boundary half.
/// Each such pair gains one edge, on the data object they conflict on, in
/// input order: the input orders every two conflicting nodes, and some
/// half of the earlier one still reaches a half of the later one. Only
/// pairs with a split end can lose their ordering, and a graph that
/// already orders every conflict gains nothing.
fn order_split_conflicts(out: &mut Graph, mapping: &[Mapped]) {
    if mapping.iter().all(|m| matches!(m, Mapped::One(_))) {
        return;
    }
    let acyclic = "edges in input order keep the graph acyclic";
    let mut reach = out.reachability().expect(acyclic);
    for (u, &mu) in mapping.iter().enumerate() {
        for &mv in &mapping[u + 1..] {
            if matches!((mu, mv), (Mapped::One(_), Mapped::One(_))) {
                continue;
            }
            for a in mu.nodes() {
                for b in mv.nodes() {
                    if reach.reaches(a, b) || reach.reaches(b, a) {
                        continue;
                    }
                    let forward = mu.nodes().any(|x| mv.nodes().any(|y| reach.reaches(x, y)));
                    let (from, to) = if forward { (a, b) } else { (b, a) };
                    if let Some((uid, kind)) = validate::conflict(out, from, to) {
                        out.add_edge(Edge {
                            from,
                            to,
                            kind,
                            data: Some(uid),
                        });
                        reach = out.reachability().expect(acyclic);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_dependency_graph;
    use crate::multigpu::to_multigpu_graph;
    use neon_domain::{
        ops, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike, MemLayout,
        ScalarSet, Stencil, StorageMode,
    };
    use neon_sys::Backend;

    struct Fx {
        g: DenseGrid,
        x: Field<f64, DenseGrid>,
        y: Field<f64, DenseGrid>,
        dot: ScalarSet<f64>,
    }

    fn fixtures(n_dev: usize) -> Fx {
        let b = Backend::dgx_a100(n_dev);
        let s = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, 16), &[&s], StorageMode::Real).unwrap();
        Fx {
            x: Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap(),
            y: Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap(),
            dot: ScalarSet::<f64>::new(n_dev, "dot", 0.0, |a, b| a + b),
            g,
        }
    }

    fn laplace(fx: &Fx) -> neon_set::Container {
        let (xc, yc) = (fx.x.clone(), fx.y.clone());
        neon_set::Container::compute("laplace", fx.g.as_space(), move |ldr| {
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
    }

    /// map (writes x) → stencil (reads x, writes y) → dot(y).
    fn fig4_graph(fx: &Fx) -> Graph {
        let seq = vec![
            ops::set_value(&fx.g, &fx.x, 1.0),
            laplace(fx),
            ops::dot(&fx.g, &fx.y, &fx.y, &fx.dot),
        ];
        to_multigpu_graph(&build_dependency_graph(&seq), fx.g.num_partitions())
    }

    fn names(g: &Graph) -> Vec<String> {
        g.nodes().iter().map(|n| n.name.clone()).collect()
    }

    fn id(g: &Graph, name: &str) -> NodeId {
        g.nodes()
            .iter()
            .position(|n| n.name == name)
            .unwrap_or_else(|| panic!("node {name} not in {:?}", names(g)))
    }

    fn has_edge(g: &Graph, from: &str, to: &str) -> bool {
        let (f, t) = (id(g, from), id(g, to));
        g.edges()
            .iter()
            .any(|e| e.from == f && e.to == t && e.kind.is_data())
    }

    #[test]
    fn none_level_is_identity() {
        let fx = fixtures(2);
        let mg = fig4_graph(&fx);
        let occ = apply_occ(&mg, OccLevel::None);
        assert_eq!(occ.len(), mg.len());
    }

    #[test]
    fn standard_splits_only_stencil() {
        let fx = fixtures(2);
        let occ = apply_occ(&fig4_graph(&fx), OccLevel::Standard);
        let n = names(&occ);
        assert!(n.contains(&"laplace.int".to_string()), "{n:?}");
        assert!(n.contains(&"laplace.bnd".to_string()));
        assert!(n.iter().any(|s| s.starts_with("set(x)")));
        assert!(!n.iter().any(|s| s.starts_with("set(x).")));
        // Halo feeds only the boundary half.
        assert!(has_edge(&occ, "halo(x)", "laplace.bnd"));
        assert!(!has_edge(&occ, "halo(x)", "laplace.int"));
        // Both halves feed the (unsplit) dot.
        assert!(has_edge(&occ, "laplace.int", "dot(y,y)"));
        assert!(has_edge(&occ, "laplace.bnd", "dot(y,y)"));
    }

    #[test]
    fn extended_splits_preceding_map() {
        let fx = fixtures(2);
        let occ = apply_occ(&fig4_graph(&fx), OccLevel::Extended);
        let n = names(&occ);
        assert!(n.contains(&"set(x).bnd".to_string()), "{n:?}");
        assert!(n.contains(&"set(x).int".to_string()));
        // The halo now depends only on the boundary map half.
        assert!(has_edge(&occ, "set(x).bnd", "halo(x)"));
        assert!(!has_edge(&occ, "set(x).int", "halo(x)"));
        // Stencil halves still read the whole field: both map halves feed
        // both stencil halves (stencil access is non-local).
        assert!(has_edge(&occ, "set(x).int", "laplace.int"));
        assert!(has_edge(&occ, "set(x).bnd", "laplace.int"));
        assert!(has_edge(&occ, "set(x).int", "laplace.bnd"));
    }

    #[test]
    fn two_way_splits_following_reduce_with_serial_edge() {
        let fx = fixtures(2);
        let occ = apply_occ(&fig4_graph(&fx), OccLevel::TwoWayExtended);
        let n = names(&occ);
        assert!(n.contains(&"dot(y,y).int".to_string()), "{n:?}");
        assert!(n.contains(&"dot(y,y).bnd".to_string()));
        // Aligned edges: stencil.int → dot.int, stencil.bnd → dot.bnd
        // (dot reads y cell-locally).
        assert!(has_edge(&occ, "laplace.int", "dot(y,y).int"));
        assert!(has_edge(&occ, "laplace.bnd", "dot(y,y).bnd"));
        assert!(!has_edge(&occ, "laplace.bnd", "dot(y,y).int"));
        // Reduce halves are serialized by a data edge (paper §V-B).
        assert!(has_edge(&occ, "dot(y,y).int", "dot(y,y).bnd"));
    }

    #[test]
    fn reduce_flags_assigned_to_halves() {
        let fx = fixtures(2);
        let occ = apply_occ(&fig4_graph(&fx), OccLevel::TwoWayExtended);
        let int_node = occ.node(id(&occ, "dot(y,y).int"));
        let bnd_node = occ.node(id(&occ, "dot(y,y).bnd"));
        match (&int_node.kind, &bnd_node.kind) {
            (
                NodeKind::Compute {
                    reduce_init: ii,
                    reduce_finalize: fi,
                    ..
                },
                NodeKind::Compute {
                    reduce_init: ib,
                    reduce_finalize: fb,
                    ..
                },
            ) => {
                assert!(*ii && !*fi, "internal initializes");
                assert!(!*ib && *fb, "boundary finalizes");
            }
            _ => panic!("expected compute nodes"),
        }
    }

    #[test]
    fn scheduling_hints_present() {
        let fx = fixtures(2);
        let occ = apply_occ(&fig4_graph(&fx), OccLevel::Extended);
        let hints: Vec<_> = occ
            .edges()
            .iter()
            .filter(|e| e.kind == EdgeKind::Sched)
            .collect();
        assert!(!hints.is_empty());
        // Boundary map before internal map.
        let (mb, mi) = (id(&occ, "set(x).bnd"), id(&occ, "set(x).int"));
        assert!(hints.iter().any(|e| e.from == mb && e.to == mi));
        // Internal stencil before boundary stencil.
        let (si, sb) = (id(&occ, "laplace.int"), id(&occ, "laplace.bnd"));
        assert!(hints.iter().any(|e| e.from == si && e.to == sb));
    }

    #[test]
    fn single_device_graph_not_split() {
        let fx = fixtures(1);
        let mg = fig4_graph(&fx);
        let occ = apply_occ(&mg, OccLevel::TwoWayExtended);
        assert_eq!(occ.len(), mg.len(), "no halo → nothing to split");
    }

    #[test]
    fn occ_graph_is_acyclic() {
        let fx = fixtures(4);
        for level in OccLevel::ALL {
            let occ = apply_occ(&fig4_graph(&fx), level);
            let order = occ.topo_order(); // panics on cycles
            assert_eq!(order.len(), occ.len());
        }
    }
}
