//! Lowering multi-device reductions to collective communication nodes.
//!
//! The original executor realized a reduce container's finalization as a
//! host-staged merge with **zero modeled transfer cost**: every device's
//! partial was folded on the host behind a global synchronization. This
//! pass replaces that with explicit [`NodeKind::Collective`] nodes, so the
//! combine participates in scheduling like any other graph node — it gets
//! a stream lane, events, and real transfer spans from `neon-comm`'s
//! ring / tree / host-staged algorithms over the backend's topology.
//!
//! The pass runs after OCC (so it sees the boundary half that carries the
//! `reduce_finalize` flag) and before scheduling (so the collective node is
//! part of the task list and `tasks.len() == graph.len()` holds). For each
//! finalizing compute node it:
//!
//! 1. clears the node's `reduce_finalize` flag (the kernel now only
//!    accumulates partials);
//! 2. appends a `Collective` node carrying the container and the payload
//!    size (8 bytes per reduced scalar);
//! 3. re-points the finalizer's outgoing data edges *on the reduced
//!    scalars* — RaW to consumers, and WaR/WaW toward the next writer of
//!    the partials — to leave from the collective instead, and adds a
//!    RaW edge compute → collective.
//!
//! Single-device backends are left untouched: there is nothing to
//! communicate, and the old fold-on-host path is exact.

use neon_comm::Algorithm;
use neon_set::ComputePattern;

use crate::graph::{Edge, EdgeKind, Graph, Node, NodeKind};

/// How multi-device reductions are realized (see [`lower_collectives`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveMode {
    /// Pick the algorithm per collective from the topology's link class and
    /// the payload size (ring for bandwidth, tree for latency, host-staged
    /// when serialization makes peer algorithms pointless).
    #[default]
    Auto,
    /// Force one algorithm for every collective (used by the ablations and
    /// the host-staged baseline comparisons).
    Fixed(Algorithm),
}

impl CollectiveMode {
    /// The forced algorithm, if any.
    pub fn fixed_algorithm(self) -> Option<Algorithm> {
        match self {
            CollectiveMode::Auto => None,
            CollectiveMode::Fixed(a) => Some(a),
        }
    }
}

/// Lower every finalizing reduce node of `g` to a compute + collective
/// pair. Returns `g` unchanged (cloned) for single-device backends.
pub fn lower_collectives(g: &Graph, ndev: usize) -> Graph {
    let mut out = g.clone();
    if ndev < 2 {
        return out;
    }
    let original = out.len();
    let mut lowered: Vec<(
        crate::graph::NodeId,
        crate::graph::NodeId,
        Vec<neon_set::DataUid>,
    )> = Vec::new();
    for id in 0..original {
        let (container, uids) = match &out.node(id).kind {
            NodeKind::Compute {
                container,
                reduce_finalize: true,
                ..
            } => {
                let uids: Vec<_> = container
                    .accesses()
                    .iter()
                    .filter(|a| a.pattern == ComputePattern::Reduce)
                    .map(|a| a.uid)
                    .collect();
                (container.clone(), uids)
            }
            _ => continue,
        };
        let uids_for_anchor = uids.clone();
        if let NodeKind::Compute {
            reduce_finalize, ..
        } = &mut out.node_mut(id).kind
        {
            *reduce_finalize = false;
        }
        let bytes = 8 * uids.len().max(1) as u64;
        let name = format!("{}:allreduce", out.node(id).name);
        let source = out.node(id).source;
        let fused_sources = out.node(id).fused_sources.clone();
        let cid = out.add_node(Node {
            name,
            kind: NodeKind::Collective { container, bytes },
            source,
            fused_sources,
        });
        // The collective is now the producer of the reduced scalars: its
        // consumers (RaW) and the partials' next writers (WaR/WaW) must
        // order against it, not the accumulating kernel.
        for e in out.edges_mut() {
            if e.from == id && e.kind.is_data() && e.data.is_some_and(|u| uids.contains(&u)) {
                e.from = cid;
            }
        }
        out.add_edge(Edge {
            from: id,
            to: cid,
            kind: EdgeKind::RaW,
            data: uids.first().copied(),
        });
        lowered.push((id, cid, uids_for_anchor));
    }
    // Transitive reduction may have deleted the direct edge between a
    // reduce kernel and a later toucher of its scalar (a longer path
    // through other data already orders the two kernels), and OCC rewires
    // a split reduce's cell-local edges half to half, so a later toucher
    // may follow only the internal half. Repointing then finds nothing to
    // move and the collective dangles, unordered against the scalar's
    // next use. Re-anchor: order each collective before every later
    // toucher of its uids — one the kernel or its other OCC half reaches —
    // that is not already ordered against it.
    let reaches = |out: &Graph, from: crate::graph::NodeId, to: crate::graph::NodeId| -> bool {
        let mut stack = vec![from];
        let mut seen = vec![false; out.len()];
        while let Some(u) = stack.pop() {
            if u == to {
                return true;
            }
            if std::mem::replace(&mut seen[u], true) {
                continue;
            }
            for e in out.edges() {
                if e.from == u && e.kind.is_data() && !seen[e.to] {
                    stack.push(e.to);
                }
            }
        }
        false
    };
    for (id, cid, uids) in lowered {
        // The reduce's other OCC half, if it was split: it accumulates
        // into the same partials.
        let others: Vec<_> = (0..original)
            .filter(|&k| k != id)
            .filter(|&k| {
                let c = out.node(k).container();
                c.zip(out.node(id).container())
                    .is_some_and(|(a, b)| a.same_instance(b))
            })
            .collect();
        for uid in uids {
            let touchers: Vec<_> = (0..out.len())
                .filter(|&m| m != id && m != cid && !others.contains(&m))
                .filter(|&m| {
                    out.node(m)
                        .container()
                        .is_some_and(|c| c.accesses().iter().any(|a| a.uid == uid))
                })
                .collect();
            for m in touchers {
                // A toucher the kernel reaches cannot reach the collective,
                // whose only in-edge leaves the kernel; one only the other
                // half reaches might.
                let later = reaches(&out, id, m)
                    || others
                        .iter()
                        .any(|&k| reaches(&out, k, m) && !reaches(&out, m, cid));
                if later && !reaches(&out, cid, m) {
                    out.add_edge(Edge {
                        from: cid,
                        to: m,
                        kind: EdgeKind::RaW,
                        data: Some(uid),
                    });
                }
            }
        }
    }
    out.dedup_edges();
    out
}

/// Collective fusion: merge independent all-reduce rounds into one
/// multi-scalar round.
///
/// Collective nodes on the same BFS level have no dependency path between
/// them, so their payloads can ride one collective instead of paying one
/// latency-bound round each. Every same-level group is replaced by a
/// single node at the first member's position carrying the summed payload
/// and a [`neon_set::Container::fused_reductions`] container whose
/// finalize folds every member's partials; the graph is rebuilt without
/// the merged-away nodes. Members must carry provenance (`source` or
/// `fused_sources`) so a cached plan can rebind them; nodes without it
/// are left alone.
pub fn merge_collectives(g: &Graph) -> Graph {
    use std::collections::HashMap;

    // Any-edge reachability (hints included): insurance against merging
    // nodes that a scheduling hint chain secretly orders.
    let reaches = |from: crate::graph::NodeId, to: crate::graph::NodeId| -> bool {
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

    let mut groups: Vec<Vec<crate::graph::NodeId>> = Vec::new();
    for level in g.bfs_levels(false) {
        let mut group: Vec<crate::graph::NodeId> = Vec::new();
        for id in level {
            let n = g.node(id);
            if !n.is_collective() || (n.source.is_none() && n.fused_sources.is_empty()) {
                continue;
            }
            if group.iter().any(|&m| reaches(m, id) || reaches(id, m)) {
                continue;
            }
            group.push(id);
        }
        if group.len() >= 2 {
            groups.push(group);
        }
    }
    if groups.is_empty() {
        return g.clone();
    }

    // Map every node to its representative (first group member), then
    // rebuild the graph without the merged-away nodes.
    let mut rep: HashMap<crate::graph::NodeId, crate::graph::NodeId> = HashMap::new();
    for grp in &groups {
        for &m in grp {
            rep.insert(m, grp[0]);
        }
    }
    let mut out = Graph::new();
    let mut remap: HashMap<crate::graph::NodeId, crate::graph::NodeId> = HashMap::new();
    for (id, n) in g.nodes().iter().enumerate() {
        let r = rep.get(&id).copied().unwrap_or(id);
        if r != id {
            continue; // merged into its representative
        }
        let new_id = if let Some(grp) = groups.iter().find(|grp| grp[0] == id) {
            let members: Vec<_> = grp
                .iter()
                .map(|&m| g.node(m).container().expect("collective").clone())
                .collect();
            let name = grp
                .iter()
                .map(|&m| g.node(m).name.as_str())
                .collect::<Vec<_>>()
                .join("+");
            let bytes = grp
                .iter()
                .map(|&m| match &g.node(m).kind {
                    NodeKind::Collective { bytes, .. } => *bytes,
                    _ => unreachable!("group members are collectives"),
                })
                .sum();
            let fused_sources = grp
                .iter()
                .flat_map(|&m| {
                    let n = g.node(m);
                    if n.fused_sources.is_empty() {
                        vec![n.source.expect("provenance checked above")]
                    } else {
                        n.fused_sources.clone()
                    }
                })
                .collect();
            out.add_node(Node::with_fused_sources(
                name,
                NodeKind::Collective {
                    container: neon_set::Container::fused_reductions("merged-allreduce", members),
                    bytes,
                },
                fused_sources,
            ))
        } else {
            out.add_node(n.clone())
        };
        remap.insert(id, new_id);
    }
    for e in g.edges() {
        let from = remap[&rep.get(&e.from).copied().unwrap_or(e.from)];
        let to = remap[&rep.get(&e.to).copied().unwrap_or(e.to)];
        if from != to {
            out.add_edge(Edge { from, to, ..*e });
        }
    }
    out.dedup_edges();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_dependency_graph;
    use crate::multigpu::to_multigpu_graph;
    use crate::occ::{apply_occ, OccLevel};
    use neon_domain::{
        ops, DenseGrid, Dim3, Field, GridLike as _, MemLayout, ScalarSet, Stencil, StorageMode,
    };
    use neon_set::Container;
    use neon_sys::Backend;

    fn dot_pipeline(ndev: usize) -> (Graph, neon_set::DataUid) {
        let b = Backend::dgx_a100(ndev.max(1));
        let s = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 1.0, MemLayout::SoA).unwrap();
        let dot = ScalarSet::<f64>::new(g.num_partitions(), "dot", 0.0, |a, b| a + b);
        let host = {
            let d = dot.clone();
            Container::host("consume", g.num_partitions(), move |ldr| {
                let r = ldr.scalar_reader(&d);
                Box::new(move || {
                    let _ = r.get();
                })
            })
        };
        let graph = build_dependency_graph(&[ops::dot(&g, &x, &x, &dot), host]);
        (graph, dot.uid())
    }

    #[test]
    fn single_device_is_untouched() {
        let (g, _) = dot_pipeline(1);
        let lowered = lower_collectives(&g, 1);
        assert_eq!(lowered.len(), g.len());
        assert!(!lowered.nodes().iter().any(|n| n.is_collective()));
    }

    #[test]
    fn reduce_gains_collective_node_and_loses_finalize() {
        let (g, _) = dot_pipeline(2);
        let lowered = lower_collectives(&g, 2);
        assert_eq!(lowered.len(), g.len() + 1);
        let c = lowered
            .nodes()
            .iter()
            .position(|n| n.is_collective())
            .expect("collective node added");
        match &lowered.node(c).kind {
            NodeKind::Collective { bytes, .. } => assert_eq!(*bytes, 8),
            _ => unreachable!(),
        }
        for n in lowered.nodes() {
            if let NodeKind::Compute {
                reduce_finalize, ..
            } = &n.kind
            {
                assert!(!reduce_finalize, "finalize moved to the collective");
            }
        }
    }

    #[test]
    fn consumer_edges_repoint_to_collective() {
        let (g, uid) = dot_pipeline(2);
        let lowered = lower_collectives(&g, 2);
        let c = lowered
            .nodes()
            .iter()
            .position(|n| n.is_collective())
            .unwrap();
        // host "consume" (node 1) now reads from the collective…
        assert!(lowered
            .edges()
            .iter()
            .any(|e| e.from == c && e.to == 1 && e.kind == EdgeKind::RaW && e.data == Some(uid)));
        // …and no longer directly from the dot (node 0).
        assert!(!lowered
            .edges()
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.data == Some(uid)));
        // The dot feeds the collective.
        assert!(lowered
            .edges()
            .iter()
            .any(|e| e.from == 0 && e.to == c && e.kind == EdgeKind::RaW));
        // Result stays acyclic and schedulable.
        lowered.bfs_levels(true);
    }

    #[test]
    fn occ_boundary_half_is_the_lowered_node() {
        let (g, _) = dot_pipeline(4);
        let mg = to_multigpu_graph(&g, 4);
        let occ = apply_occ(&mg, OccLevel::Standard);
        let lowered = lower_collectives(&occ, 4);
        assert_eq!(lowered.len(), occ.len() + 1);
        let c = lowered
            .nodes()
            .iter()
            .position(|n| n.is_collective())
            .unwrap();
        // The boundary (finalizing) half feeds the collective.
        let feeder = lowered
            .edges()
            .iter()
            .find(|e| e.to == c)
            .map(|e| e.from)
            .unwrap();
        assert!(lowered.node(feeder).name.contains("dot"));
        lowered.bfs_levels(true);
    }

    #[test]
    fn mode_fixed_algorithm_accessor() {
        assert_eq!(CollectiveMode::Auto.fixed_algorithm(), None);
        assert_eq!(
            CollectiveMode::Fixed(Algorithm::Ring).fixed_algorithm(),
            Some(Algorithm::Ring)
        );
        assert_eq!(CollectiveMode::default(), CollectiveMode::Auto);
    }
}
