//! The multi-GPU graph transform (paper §V-B).
//!
//! Takes the data dependency graph and makes it executable on a
//! partitioned back end: every stencil launch whose input field's halos
//! may be stale gets a halo-update node inserted in front of it, wired so
//! that
//!
//! * the halo update waits for the field's last writer (RaW),
//! * earlier stencil readers of the field finish before their halo data
//!   is overwritten (WaR), and
//! * the stencil launch waits for the halo update (RaW).
//!
//! Afterwards redundant transitive edges are pruned (the paper drops the
//! map→dot edge of its running example).

use std::collections::HashMap;

use neon_set::DataUid;

use crate::graph::{Edge, EdgeKind, Graph, Node, NodeId, NodeKind};

/// Insert halo-update nodes for a `num_devices`-way partitioned backend.
///
/// With one device no halos exist and the graph is returned (reduced)
/// unchanged.
pub fn to_multigpu_graph(g: &Graph, num_devices: usize) -> Graph {
    let mut out = Graph::new();
    // Old node id → new node id (halo nodes are appended between).
    let mut remap: Vec<NodeId> = Vec::with_capacity(g.len());
    // Per data object: who wrote it last / which halo node covers the
    // current contents / who read it through a stencil since.
    let mut last_writer: HashMap<DataUid, NodeId> = HashMap::new();
    let mut valid_halo: HashMap<DataUid, NodeId> = HashMap::new();
    let mut stencil_readers: HashMap<DataUid, Vec<NodeId>> = HashMap::new();

    // First copy nodes in order, injecting halo nodes where needed.
    for (old_id, node) in g.nodes().iter().enumerate() {
        // Which fields does this node read through a stencil?
        let mut halo_deps: Vec<NodeId> = Vec::new();
        if let Some(c) = node.container() {
            for a in c.stencil_reads() {
                let Some(exchange) = a.halo.clone() else {
                    continue; // unpartitioned data: nothing to update
                };
                if num_devices < 2 || !exchange.has_transfers() {
                    continue;
                }
                let uid = a.uid;
                let halo_id = if let Some(&h) = valid_halo.get(&uid) {
                    h
                } else {
                    let h = out.add_node(Node::new(
                        format!("halo({})", exchange.data_name()),
                        NodeKind::Halo { exchange },
                    ));
                    // Halo waits for the last writer of the field.
                    if let Some(&w) = last_writer.get(&uid) {
                        out.add_edge(Edge {
                            from: w,
                            to: h,
                            kind: EdgeKind::RaW,
                            data: Some(uid),
                        });
                    }
                    // Halo overwrites halo regions read by earlier stencil
                    // consumers of the field.
                    for &r in stencil_readers.get(&uid).into_iter().flatten() {
                        out.add_edge(Edge {
                            from: r,
                            to: h,
                            kind: EdgeKind::WaR,
                            data: Some(uid),
                        });
                    }
                    valid_halo.insert(uid, h);
                    stencil_readers.insert(uid, Vec::new());
                    h
                };
                halo_deps.push(halo_id);
            }
        }

        let new_id = out.add_node(node.clone());
        remap.push(new_id);

        for h in halo_deps {
            out.add_edge(Edge {
                from: h,
                to: new_id,
                kind: EdgeKind::RaW,
                data: None,
            });
        }

        // Copy original in-edges.
        for e in g.all_parents(old_id) {
            out.add_edge(Edge {
                from: remap[e.from],
                to: new_id,
                kind: e.kind,
                data: e.data,
            });
        }

        // Update tracking from this node's accesses.
        if let Some(c) = node.container() {
            for a in c.accesses() {
                if a.mode.writes() {
                    last_writer.insert(a.uid, new_id);
                    valid_halo.remove(&a.uid);
                }
                if a.mode.reads() && a.halo.is_some() {
                    stencil_readers.entry(a.uid).or_default().push(new_id);
                }
            }
        }
    }

    out.transitive_reduce();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_dependency_graph;
    use neon_domain::{
        ops, Container, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike as _,
        MemLayout, ScalarSet, Stencil, StorageMode,
    };
    use neon_sys::Backend;

    fn fixtures(
        n_dev: usize,
    ) -> (
        DenseGrid,
        Field<f64, DenseGrid>,
        Field<f64, DenseGrid>,
        ScalarSet<f64>,
    ) {
        let b = Backend::dgx_a100(n_dev);
        let s = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, 16), &[&s], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
        let d = ScalarSet::<f64>::new(n_dev, "dot", 0.0, |a, b| a + b);
        (g, x, y, d)
    }

    fn laplace(g: &DenseGrid, x: &Field<f64, DenseGrid>, y: &Field<f64, DenseGrid>) -> Container {
        let (xc, yc) = (x.clone(), y.clone());
        Container::compute("laplace", g.as_space(), move |ldr| {
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

    #[test]
    fn halo_node_inserted_before_stencil() {
        let (g, x, y, dot_s) = fixtures(2);
        let seq = vec![
            ops::set_value(&g, &x, 1.0),
            laplace(&g, &x, &y),
            ops::dot(&g, &y, &y, &dot_s),
        ];
        let dep = build_dependency_graph(&seq);
        let mg = to_multigpu_graph(&dep, 2);
        assert_eq!(mg.len(), 4, "one halo node added");
        let halo = mg.nodes().iter().position(|n| n.is_halo()).unwrap();
        let stencil = mg.nodes().iter().position(|n| n.name == "laplace").unwrap();
        let writer = mg
            .nodes()
            .iter()
            .position(|n| n.name.starts_with("set"))
            .unwrap();
        // writer → halo → stencil.
        assert!(mg.edges().iter().any(|e| e.from == writer && e.to == halo));
        assert!(mg.edges().iter().any(|e| e.from == halo && e.to == stencil));
    }

    #[test]
    fn no_halo_on_single_device() {
        let (g, x, y, dot_s) = fixtures(1);
        let seq = vec![
            ops::set_value(&g, &x, 1.0),
            laplace(&g, &x, &y),
            ops::dot(&g, &y, &y, &dot_s),
        ];
        let dep = build_dependency_graph(&seq);
        let mg = to_multigpu_graph(&dep, 1);
        assert_eq!(mg.len(), 3);
        assert!(!mg.nodes().iter().any(|n| n.is_halo()));
    }

    #[test]
    fn halo_reused_when_field_unchanged() {
        // Two stencils on the same unmodified field need one halo update.
        let (g, x, y, _) = fixtures(2);
        let seq = vec![
            ops::set_value(&g, &x, 1.0),
            laplace(&g, &x, &y),
            laplace(&g, &x, &y),
        ];
        let dep = build_dependency_graph(&seq);
        let mg = to_multigpu_graph(&dep, 2);
        let halos = mg.nodes().iter().filter(|n| n.is_halo()).count();
        assert_eq!(halos, 1);
    }

    #[test]
    fn halo_reinserted_after_write() {
        // Write between stencils invalidates the halo.
        let (g, x, y, _) = fixtures(2);
        let seq = vec![
            ops::set_value(&g, &x, 1.0),
            laplace(&g, &x, &y),
            ops::set_value(&g, &x, 2.0),
            laplace(&g, &x, &y),
        ];
        let dep = build_dependency_graph(&seq);
        let mg = to_multigpu_graph(&dep, 2);
        let halos = mg.nodes().iter().filter(|n| n.is_halo()).count();
        assert_eq!(halos, 2);
        // The second write must wait for the first stencil's read of x
        // (WaR edge), which transitively orders the second halo after it.
        let second_writer = mg
            .nodes()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.name.starts_with("set"))
            .map(|(i, _)| i)
            .max()
            .unwrap();
        let first_stencil = mg.nodes().iter().position(|n| n.name == "laplace").unwrap();
        assert!(mg
            .edges()
            .iter()
            .any(|e| e.from == first_stencil && e.to == second_writer && e.kind == EdgeKind::WaR));
    }

    #[test]
    fn redundant_map_to_dot_edge_removed() {
        // Paper Fig. 4c: the axpy→dot dependency is removed as redundant.
        let (g, x, y, dot_s) = fixtures(2);
        let axpy = ops::axpy_const(&g, 1.0, &y, &x); // writes x, reads y
        let lap = laplace(&g, &x, &y); // reads x (stencil), writes y
        let dotc = ops::dot(&g, &x, &y, &dot_s); // reads x and y
        let dep = build_dependency_graph(&[axpy, lap, dotc]);
        let mg = to_multigpu_graph(&dep, 2);
        let axpy_id = mg
            .nodes()
            .iter()
            .position(|n| n.name.starts_with("axpy"))
            .unwrap();
        let dot_id = mg
            .nodes()
            .iter()
            .position(|n| n.name.starts_with("dot"))
            .unwrap();
        assert!(
            !mg.edges()
                .iter()
                .any(|e| e.from == axpy_id && e.to == dot_id),
            "axpy→dot is transitively implied and should be removed"
        );
    }
}
