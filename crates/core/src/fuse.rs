//! Container fusion (compile pass).
//!
//! Grid computations spend their time streaming fields through memory:
//! every container launch is one full sweep over its iteration space, so a
//! chain of cell-local maps re-reads and re-writes the same fields once per
//! link. This pass merges maximal runs of fusible containers into a single
//! [`Container::fused`] node that performs **one** traversal per partition
//! and applies every member kernel per cell, eliding the redundant
//! intermediate loads (a field written by an earlier member is re-read
//! in-register by later members for free).
//!
//! # Legality (Conservative)
//!
//! The pass scans the dependency graph in node order (node ids are program
//! order before the multi-GPU transform, and all data edges point from
//! lower to higher ids) and greedily grows a group. A candidate joins the
//! open group iff
//!
//! * it is a compute node whose iteration space has a stable identity
//!   ([`neon_set::IterationSpace::space_id`]) equal to the group's — same grid, same
//!   cardinality, same partitioning;
//! * it does not **stencil-read** a field the group writes (the
//!   neighbourhood would observe a mix of old and new values; a halo
//!   update must run in between);
//! * it does not **write** a field the group stencil-reads (the group's
//!   neighbourhood reads of remote halo cells would race the overwrite);
//! * no scalar reduced by one side is accessed by the other (the reduced
//!   host value only materialises at the fused node's finalize, so a
//!   member reading it through [`neon_set::Loader::scalar`] would observe a stale
//!   value);
//! * the group holds no reduction yet — a reduce member *closes* the
//!   group, so reductions only appear as the trailing member (the paper's
//!   `map+dot` shape) and the fused node keeps single init/finalize
//!   semantics.
//!
//! Plain map reads of group-written fields are legal: members run per cell
//! in sequence order, so the read observes the freshly computed value
//! exactly as the unfused schedule would — and it is exactly these reads
//! whose bytes the fused container elides. Because groups are contiguous
//! runs of node ids and data edges are monotone, fusing can never create a
//! cycle through an external node, and edge monotonicity (which the
//! multi-GPU transform relies on) is preserved.
//!
//! Host nodes and any legality failure close the group; only groups of two
//! or more members are materialised. Everything downstream — OCC
//! splitting, collective lowering, scheduling, device partitioning — sees
//! an ordinary compute node (with [`Node::fused_sources`] provenance for
//! plan rebinding and IR dumps).

use std::collections::{HashMap, HashSet};

use neon_set::{ComputePattern, Container, DataUid};

use crate::graph::{Edge, Graph, Node, NodeId, NodeKind};
use crate::pass::{Ir, Pass, PassCtx};
use neon_set::DataView;

/// How aggressively the skeleton fuses containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FusionLevel {
    /// No fusion: one launch per container, as authored.
    Off,
    /// Fuse contiguous same-grid map chains and a trailing reduction when
    /// provably legal (no stencil/scalar hazards). Bit-identical to `Off`.
    #[default]
    Conservative,
    /// Everything `Conservative` does, plus temporal blocking: when the
    /// whole post-fuse graph is one legal stencil sweep, rewrite it into a
    /// super-step executing `k` iterations per launch with an expanded
    /// (depth `k·r`) halo and deterministic ghost-zone recompute. Falls
    /// back to `Conservative` behaviour whenever the legality checks fail.
    /// Bit-identical to `Off`.
    Temporal(u8),
}

/// Per-node access summary used by the legality checks.
#[derive(Default)]
struct AccessSets {
    writes: HashSet<DataUid>,
    stencil_reads: HashSet<DataUid>,
    reduce_writes: HashSet<DataUid>,
    accessed: HashSet<DataUid>,
}

impl AccessSets {
    fn of(c: &Container) -> Self {
        let mut s = AccessSets::default();
        for a in c.accesses() {
            s.accessed.insert(a.uid);
            if a.mode.writes() {
                s.writes.insert(a.uid);
            }
            if a.pattern == ComputePattern::Stencil && a.mode.reads() {
                s.stencil_reads.insert(a.uid);
            }
            if a.pattern == ComputePattern::Reduce {
                s.reduce_writes.insert(a.uid);
            }
        }
        s
    }

    fn absorb(&mut self, other: &AccessSets) {
        self.writes.extend(other.writes.iter().copied());
        self.stencil_reads
            .extend(other.stencil_reads.iter().copied());
        self.reduce_writes
            .extend(other.reduce_writes.iter().copied());
        self.accessed.extend(other.accessed.iter().copied());
    }

    fn disjoint(a: &HashSet<DataUid>, b: &HashSet<DataUid>) -> bool {
        a.iter().all(|u| !b.contains(u))
    }
}

/// A fusible compute node: its id, its space identity and access summary.
struct Eligible {
    id: NodeId,
    space_id: u64,
    sets: AccessSets,
}

fn eligible(g: &Graph, id: NodeId) -> Option<Eligible> {
    let n = g.node(id);
    let NodeKind::Compute { container, .. } = &n.kind else {
        return None;
    };
    let space_id = container.space().and_then(|s| s.space_id())?;
    Some(Eligible {
        id,
        space_id,
        sets: AccessSets::of(container),
    })
}

/// Compute the fusion groups (each a contiguous run of node ids, length
/// ≥ 2) of a dependency graph.
fn fusion_groups(g: &Graph) -> Vec<Vec<NodeId>> {
    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    let mut run: Vec<NodeId> = Vec::new();
    let mut run_sets = AccessSets::default();
    let mut run_space = 0u64;
    let mut run_has_reduce = false;

    let mut flush = |run: &mut Vec<NodeId>| {
        if run.len() >= 2 {
            groups.push(std::mem::take(run));
        } else {
            run.clear();
        }
    };

    for id in 0..g.len() {
        let Some(cand) = eligible(g, id) else {
            flush(&mut run);
            run_has_reduce = false;
            continue;
        };
        let joins = !run.is_empty()
            && !run_has_reduce
            && cand.space_id == run_space
            && AccessSets::disjoint(&cand.sets.stencil_reads, &run_sets.writes)
            && AccessSets::disjoint(&cand.sets.writes, &run_sets.stencil_reads)
            && AccessSets::disjoint(&cand.sets.reduce_writes, &run_sets.accessed)
            && AccessSets::disjoint(&cand.sets.accessed, &run_sets.reduce_writes);
        if !joins {
            flush(&mut run);
            run_sets = AccessSets::default();
            run_has_reduce = false;
            run_space = cand.space_id;
        }
        run_has_reduce |= !cand.sets.reduce_writes.is_empty();
        run_sets.absorb(&cand.sets);
        run.push(cand.id);
    }
    flush(&mut run);
    groups
}

/// Apply `fusion_groups` to a graph: rebuild it with each group replaced
/// by a single fused compute node at the first member's position, edges
/// remapped (intra-group edges dropped, duplicates collapsed).
pub fn fuse_graph(g: &Graph, containers: &[Container]) -> Graph {
    let groups = fusion_groups(g);
    if groups.is_empty() {
        return g.clone();
    }

    // Member node → index of its group.
    let mut group_of: HashMap<NodeId, usize> = HashMap::new();
    for (gi, grp) in groups.iter().enumerate() {
        for &m in grp {
            group_of.insert(m, gi);
        }
    }

    let mut out = Graph::new();
    let mut remap: HashMap<NodeId, NodeId> = HashMap::new();
    for (id, n) in g.nodes().iter().enumerate() {
        let Some(&gi) = group_of.get(&id) else {
            let nid = out.add_node(n.clone());
            remap.insert(id, nid);
            continue;
        };
        let grp = &groups[gi];
        if grp[0] != id {
            continue; // emitted at the first member's position
        }
        let srcs: Vec<usize> = grp
            .iter()
            .map(|&m| {
                g.node(m)
                    .source
                    .expect("fusible compute nodes carry a sequence index")
            })
            .collect();
        let members: Vec<Container> = srcs.iter().map(|&s| containers[s].clone()).collect();
        let name = format!(
            "fused{{{}}}",
            grp.iter()
                .map(|&m| g.node(m).name.as_str())
                .collect::<Vec<_>>()
                .join("+")
        );
        let fused = Container::fused(&name, members);
        let is_reduce = fused.is_reduce();
        let nid = out.add_node(Node::with_fused_sources(
            name,
            NodeKind::Compute {
                container: fused,
                view: DataView::Standard,
                reduce_init: is_reduce,
                reduce_finalize: is_reduce,
            },
            srcs,
        ));
        for &m in grp {
            remap.insert(m, nid);
        }
    }
    for e in g.edges() {
        let (from, to) = (remap[&e.from], remap[&e.to]);
        if from != to {
            out.add_edge(Edge {
                from,
                to,
                kind: e.kind,
                data: e.data,
            });
        }
    }
    out.dedup_edges();
    out
}

/// The fuse pass: rewrites `ir.graph` per [`FusionLevel`]. A no-op at
/// `Off` (the pass still runs, so pipelines have the same shape in both
/// settings).
pub struct FusePass;

impl Pass for FusePass {
    fn name(&self) -> &'static str {
        "fuse"
    }

    fn run(&self, ir: &mut Ir, cx: &PassCtx) {
        if cx.key.fusion == FusionLevel::Off {
            return;
        }
        ir.graph = fuse_graph(&ir.graph, &ir.containers);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::build_dependency_graph;
    use neon_domain::{
        ops, DenseGrid, Dim3, Field, FieldRead as _, FieldStencil as _, FieldWrite as _,
        GridLike as _, MemLayout, ScalarSet, Stencil, StorageMode,
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
        let g = DenseGrid::new(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real).unwrap();
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
    fn map_chain_fuses_into_one_node() {
        let (g, x, y, _) = fixtures(2);
        let seq = vec![
            ops::set_value(&g, &x, 1.0),
            ops::axpy_const(&g, 2.0, &x, &y),
            ops::copy(&g, &y, &x),
        ];
        let dep = build_dependency_graph(&seq);
        let fused = fuse_graph(&dep, &seq);
        assert_eq!(fused.len(), 1, "three maps fuse into one node");
        let n = fused.node(0);
        assert_eq!(n.fused_sources, vec![0, 1, 2]);
        assert!(n.name.starts_with("fused{"));
        let c = n.container().unwrap();
        assert!(c.is_fused());
        assert!(!c.is_reduce());
    }

    #[test]
    fn trailing_dot_joins_and_closes_the_group() {
        let (g, x, y, d) = fixtures(2);
        let seq = vec![
            ops::axpy_const(&g, 2.0, &x, &y),
            ops::dot(&g, &y, &y, &d),
            ops::set_value(&g, &x, 0.5),
        ];
        let dep = build_dependency_graph(&seq);
        let fused = fuse_graph(&dep, &seq);
        // {axpy, dot} fuse; the reduce closes the group, so scale stays out.
        assert_eq!(fused.len(), 2);
        let n = fused.node(0);
        assert_eq!(n.fused_sources, vec![0, 1]);
        assert!(n.container().unwrap().is_reduce());
        match &n.kind {
            NodeKind::Compute {
                reduce_init,
                reduce_finalize,
                ..
            } => assert!(reduce_init & reduce_finalize),
            _ => panic!("fused node is a compute node"),
        }
        assert_eq!(fused.node(1).source, Some(2));
    }

    #[test]
    fn stencil_read_of_written_field_blocks_fusion() {
        let (g, x, y, _) = fixtures(2);
        let seq = vec![ops::set_value(&g, &x, 1.0), laplace(&g, &x, &y)];
        let dep = build_dependency_graph(&seq);
        let fused = fuse_graph(&dep, &seq);
        assert_eq!(fused.len(), 2, "halo must run between writer and stencil");
        assert!(fused.nodes().iter().all(|n| n.fused_sources.is_empty()));
    }

    #[test]
    fn stencil_and_cell_local_consumer_fuse() {
        // laplace writes y cell-locally; dot reads y cell-locally → legal,
        // and the group inherits the stencil read of x (halo still
        // inserted in front of the fused node by the multi-GPU pass).
        let (g, x, y, d) = fixtures(2);
        let seq = vec![laplace(&g, &x, &y), ops::dot(&g, &y, &y, &d)];
        let dep = build_dependency_graph(&seq);
        let fused = fuse_graph(&dep, &seq);
        assert_eq!(fused.len(), 1);
        let c = fused.node(0).container().unwrap();
        assert!(c.is_reduce());
        assert_eq!(c.stencil_reads().count(), 1);
    }

    #[test]
    fn host_node_closes_the_group() {
        let (g, x, y, d) = fixtures(1);
        let dc = d.clone();
        let seq = vec![
            ops::set_value(&g, &x, 1.0),
            ops::set_value(&g, &y, 2.0),
            Container::host("host", 1, move |ldr| {
                let s = ldr.scalar_reader(&dc);
                Box::new(move || {
                    let _ = s.get();
                })
            }),
            ops::set_value(&g, &x, 0.5),
            ops::set_value(&g, &y, 2.0),
        ];
        let dep = build_dependency_graph(&seq);
        let fused = fuse_graph(&dep, &seq);
        // {set,set} + host + {scale,scale}
        assert_eq!(fused.len(), 3);
        assert_eq!(fused.node(0).fused_sources, vec![0, 1]);
        assert!(fused.node(1).container().unwrap().kind() == neon_set::ContainerKind::Host);
        assert_eq!(fused.node(2).fused_sources, vec![3, 4]);
    }

    #[test]
    fn different_grids_do_not_fuse() {
        let b = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let g1 = DenseGrid::new(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real).unwrap();
        let g2 = DenseGrid::new(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g1, "x", 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g2, "y", 1, 0.0, MemLayout::SoA).unwrap();
        let seq = vec![ops::set_value(&g1, &x, 1.0), ops::set_value(&g2, &y, 2.0)];
        let dep = build_dependency_graph(&seq);
        let fused = fuse_graph(&dep, &seq);
        assert_eq!(fused.len(), 2, "identical shape but distinct grid identity");
    }

    #[test]
    fn scalar_consumer_of_group_reduction_stays_out() {
        // axpy reads the scalar the dot reduces into → fusing all three
        // would read a stale value; the scalar hazard must split them.
        let (g, x, y, d) = fixtures(2);
        let dc = d.clone();
        let (xc, yc) = (x.clone(), y.clone());
        let consumer = Container::compute("consume", g.as_space(), move |ldr| {
            let s = ldr.scalar(&dc);
            let xv = ldr.read(&xc);
            let yv = ldr.write(&yc);
            Box::new(move |c| yv.set(c, 0, s + xv.at(c, 0)))
        });
        let seq = vec![ops::dot(&g, &x, &x, &d), consumer];
        let dep = build_dependency_graph(&seq);
        let fused = fuse_graph(&dep, &seq);
        assert_eq!(fused.len(), 2, "stale-scalar hazard blocks fusion");
    }

    #[test]
    fn edges_are_remapped_and_deduped() {
        let (g, x, y, d) = fixtures(2);
        let seq = vec![
            ops::set_value(&g, &x, 1.0),
            laplace(&g, &x, &y), // blocked from fusing with set (stencil read of x)
            ops::axpy_const(&g, 1.0, &x, &y),
            ops::dot(&g, &y, &y, &d),
        ];
        let dep = build_dependency_graph(&seq);
        let fused = fuse_graph(&dep, &seq);
        // set | {laplace, scale, dot}: laplace writes y cell-locally, scale
        // rw y cell-locally, dot reads y — all legal.
        assert_eq!(fused.len(), 2);
        assert_eq!(fused.node(1).fused_sources, vec![1, 2, 3]);
        // One edge set→fused remains; intra-group edges are gone and the
        // remapped duplicates collapsed.
        assert_eq!(fused.edges().len(), 1);
        let e = fused.edges()[0];
        assert_eq!((e.from, e.to), (0, 1));
        // Edge monotonicity (required by the multi-GPU transform) holds.
        assert!(fused.edges().iter().all(|e| e.from < e.to));
    }

    #[test]
    fn fused_bytes_elide_intermediate_reads() {
        let (g, x, y, _) = fixtures(1);
        let seq = vec![
            ops::set_value(&g, &x, 1.0),      // write x: 8 B
            ops::axpy_const(&g, 2.0, &x, &y), // read x + rw y: 24 B
        ];
        let unfused: u64 = seq.iter().map(|c| c.bytes_per_cell()).sum();
        let dep = build_dependency_graph(&seq);
        let fused = fuse_graph(&dep, &seq);
        let c = fused.node(0).container().unwrap();
        // x's read is elided (written by the first member in-register).
        assert_eq!(unfused, 32);
        assert_eq!(c.bytes_per_cell(), 24);
    }

    #[test]
    fn fusion_level_off_leaves_graph_alone() {
        use crate::skeleton::SkeletonOptions;
        let opts = SkeletonOptions {
            fusion: FusionLevel::Off,
            ..Default::default()
        };
        assert_eq!(opts.fusion, FusionLevel::Off);
        assert_eq!(SkeletonOptions::default().fusion, FusionLevel::Conservative);
    }
}
