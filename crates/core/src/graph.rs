//! The data dependency graph (paper §V-A).
//!
//! Nodes are containers (plus halo-update and sync nodes added by the
//! multi-GPU transform); edges are read-after-write, write-after-read and
//! write-after-write dependencies between containers that touch the same
//! multi-GPU data object — discovered entirely from the access records the
//! Loaders captured, with no compiler support.
//!
//! Scheduling *hints* (paper's orange arrows) are a separate edge kind:
//! they influence only the final task ordering, never correctness.

use std::collections::HashMap;
use std::sync::Arc;

use neon_set::{Container, DataUid, DataView, HaloExchange};

/// Index of a node within a [`Graph`].
pub type NodeId = usize;

/// What a graph node executes.
#[derive(Clone)]
pub enum NodeKind {
    /// A container launch over a data view.
    Compute {
        /// The container.
        container: Container,
        /// The view it iterates (Standard, or Internal/Boundary after an
        /// OCC split).
        view: DataView,
        /// Whether this launch resets reduction partials first.
        reduce_init: bool,
        /// Whether this launch folds partials into host values after.
        reduce_finalize: bool,
    },
    /// A halo update of one field.
    Halo {
        /// The exchange implementation.
        exchange: Arc<dyn HaloExchange>,
    },
    /// A host-side step (scalar algebra between device phases).
    Host {
        /// The host container.
        container: Container,
    },
    /// A collective communication step (all-reduce of a reduce container's
    /// partials), scheduled by `neon-comm` over the backend's topology.
    Collective {
        /// The reduce container whose partials are combined.
        container: Container,
        /// Total payload in bytes (8 bytes per reduced scalar).
        bytes: u64,
    },
}

impl std::fmt::Debug for NodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeKind::Compute {
                container, view, ..
            } => write!(f, "Compute({}, {})", container.name(), view.label()),
            NodeKind::Halo { exchange } => write!(f, "Halo({})", exchange.data_name()),
            NodeKind::Host { container } => write!(f, "Host({})", container.name()),
            NodeKind::Collective { container, bytes } => {
                write!(f, "Collective({}, {bytes} B)", container.name())
            }
        }
    }
}

/// One node of the execution graph.
#[derive(Clone, Debug)]
pub struct Node {
    /// Display name (container name plus view suffix).
    pub name: String,
    /// Payload.
    pub kind: NodeKind,
    /// Index of the originating container in the compiled sequence (`None`
    /// for synthesized nodes such as halo updates). Plan rebinding uses it
    /// to swap a cached plan's containers for a new instance's.
    pub source: Option<usize>,
    /// For nodes produced by fusion: the sequence indices of every member
    /// container, in fused order (`source` is `None` then). Plan rebinding
    /// re-fuses the new instance's containers from this list; IR dumps
    /// render it as provenance.
    pub fused_sources: Vec<usize>,
}

impl Node {
    /// A node with no container provenance.
    pub fn new(name: impl Into<String>, kind: NodeKind) -> Self {
        Node {
            name: name.into(),
            kind,
            source: None,
            fused_sources: Vec::new(),
        }
    }

    /// A node originating from `containers[source]` of the compiled
    /// sequence.
    pub fn with_source(name: impl Into<String>, kind: NodeKind, source: usize) -> Self {
        Node {
            name: name.into(),
            kind,
            source: Some(source),
            fused_sources: Vec::new(),
        }
    }

    /// A fused node originating from `containers[i]` for each member `i`.
    pub fn with_fused_sources(
        name: impl Into<String>,
        kind: NodeKind,
        members: Vec<usize>,
    ) -> Self {
        Node {
            name: name.into(),
            kind,
            source: None,
            fused_sources: members,
        }
    }

    /// The node's container, if it has one.
    pub fn container(&self) -> Option<&Container> {
        match &self.kind {
            NodeKind::Compute { container, .. }
            | NodeKind::Host { container }
            | NodeKind::Collective { container, .. } => Some(container),
            NodeKind::Halo { .. } => None,
        }
    }

    /// The data view of a compute node (Standard otherwise).
    pub fn view(&self) -> DataView {
        match &self.kind {
            NodeKind::Compute { view, .. } => *view,
            _ => DataView::Standard,
        }
    }

    /// Whether this is a halo-update node.
    pub fn is_halo(&self) -> bool {
        matches!(self.kind, NodeKind::Halo { .. })
    }

    /// Whether this is a collective communication node.
    pub fn is_collective(&self) -> bool {
        matches!(self.kind, NodeKind::Collective { .. })
    }
}

/// The dependency type of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Read-after-write: consumer must see producer's data.
    RaW,
    /// Write-after-read: writer must wait for earlier readers.
    WaR,
    /// Write-after-write: order of writes preserved.
    WaW,
    /// Scheduling hint (ordering preference, not a data dependency).
    Sched,
}

impl EdgeKind {
    /// Whether the edge constrains correctness (vs. a hint).
    pub fn is_data(self) -> bool {
        !matches!(self, EdgeKind::Sched)
    }
}

/// A directed edge `from → to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Producer / predecessor node.
    pub from: NodeId,
    /// Consumer / successor node.
    pub to: NodeId,
    /// Dependency type.
    pub kind: EdgeKind,
    /// The data object the dependency is about (None for hints).
    pub data: Option<DataUid>,
}

/// A DAG of containers, halo updates and host steps.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// A graph of `nodes` and `edges` taken as they are: the caller
    /// guarantees in-range, duplicate-free edges (plan rebinding copies a
    /// built graph's).
    pub(crate) fn from_parts(nodes: Vec<Node>, edges: Vec<Edge>) -> Self {
        Graph { nodes, edges }
    }

    /// Append a node, returning its id.
    pub fn add_node(&mut self, node: Node) -> NodeId {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Append an edge if an identical one is not already present.
    pub fn add_edge(&mut self, edge: Edge) {
        assert!(edge.from < self.nodes.len() && edge.to < self.nodes.len());
        assert_ne!(
            edge.from, edge.to,
            "self edge on {}",
            self.nodes[edge.from].name
        );
        if !self.edges.contains(&edge) {
            self.edges.push(edge);
        }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Mutable access to a node (for lowering passes).
    pub(crate) fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id]
    }

    /// Mutable access to the edge list (for lowering passes). Callers must
    /// preserve acyclicity and should call [`Graph::dedup_edges`] after
    /// re-pointing edges.
    pub(crate) fn edges_mut(&mut self) -> &mut Vec<Edge> {
        &mut self.edges
    }

    /// Drop duplicate edges (re-pointing can alias previously distinct
    /// edges onto the same endpoints).
    pub(crate) fn dedup_edges(&mut self) {
        let mut seen = std::collections::HashSet::new();
        self.edges.retain(|e| seen.insert(*e));
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Data-dependency parents of `n` (edges into `n`, hints excluded).
    pub fn data_parents(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges
            .iter()
            .filter(move |e| e.to == n && e.kind.is_data())
    }

    /// Data-dependency children of `n`.
    pub fn data_children(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges
            .iter()
            .filter(move |e| e.from == n && e.kind.is_data())
    }

    /// All parents including scheduling hints.
    pub fn all_parents(&self, n: NodeId) -> impl Iterator<Item = &Edge> {
        self.edges.iter().filter(move |e| e.to == n)
    }

    /// BFS levels over the chosen edge set: each level contains nodes whose
    /// parents all sit in earlier levels (paper Fig. 5). Panics on cycles.
    pub fn bfs_levels(&self, include_hints: bool) -> Vec<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if e.kind.is_data() || include_hints {
                indeg[e.to] += 1;
            }
        }
        let mut levels = Vec::new();
        let mut frontier: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = frontier.len();
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                for e in &self.edges {
                    if e.from == u && (e.kind.is_data() || include_hints) {
                        indeg[e.to] -= 1;
                        if indeg[e.to] == 0 {
                            next.push(e.to);
                            seen += 1;
                        }
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            levels.push(std::mem::take(&mut frontier));
            frontier = next;
        }
        assert_eq!(seen, n, "cycle detected in execution graph");
        levels
    }

    /// A topological order over data + hint edges.
    pub fn topo_order(&self) -> Vec<NodeId> {
        self.bfs_levels(true).into_iter().flatten().collect()
    }

    /// Render the graph in Graphviz DOT format: compute nodes as boxes
    /// (internal/boundary halves tinted), halo nodes as ellipses, host
    /// nodes as diamonds; data edges solid (WaR/WaW dashed), scheduling
    /// hints dotted orange — matching the paper's figure conventions.
    pub fn to_dot(&self, title: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{title}\" {{");
        let _ = writeln!(out, "  rankdir=TB; node [fontname=\"monospace\"];");
        for (i, n) in self.nodes.iter().enumerate() {
            let (shape, fill) = match &n.kind {
                NodeKind::Compute { view, .. } => (
                    "box",
                    match view {
                        neon_set::DataView::Standard => "white",
                        neon_set::DataView::Internal => "palegreen",
                        neon_set::DataView::Boundary => "lightpink",
                    },
                ),
                NodeKind::Halo { .. } => ("ellipse", "lightblue"),
                NodeKind::Host { .. } => ("diamond", "lightyellow"),
                NodeKind::Collective { .. } => ("hexagon", "lightcoral"),
            };
            let _ = writeln!(
                out,
                "  n{i} [label=\"{}\", shape={shape}, style=filled, fillcolor={fill}];",
                n.name.replace('"', "'")
            );
        }
        for e in &self.edges {
            let style = match e.kind {
                EdgeKind::RaW => "[color=black]",
                EdgeKind::WaR | EdgeKind::WaW => "[color=gray, style=dashed]",
                EdgeKind::Sched => "[color=orange, style=dotted]",
            };
            let _ = writeln!(out, "  n{} -> n{} {style};", e.from, e.to);
        }
        out.push_str("}\n");
        out
    }

    /// Data-edge reachability: Kahn's algorithm over data + hint edges,
    /// then one reverse-topological sweep that folds every node's data
    /// children into its bitset row. `Err` holds the nodes Kahn's
    /// algorithm could not order (a superset of one cycle), in id order.
    pub(crate) fn reachability(&self) -> Result<Reachability, Vec<NodeId>> {
        let n = self.nodes.len();
        let mut by_source: Vec<&Edge> = self.edges.iter().collect();
        by_source.sort_unstable_by_key(|e| e.from);
        let by_source = &by_source;
        let out = move |u: NodeId| {
            let first = by_source.partition_point(|e| e.from < u);
            by_source[first..].iter().take_while(move |e| e.from == u)
        };

        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.to] += 1;
        }
        // `order` doubles as Kahn's queue.
        let mut order: Vec<NodeId> = (0..n).filter(|&u| indeg[u] == 0).collect();
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for e in out(u) {
                indeg[e.to] -= 1;
                if indeg[e.to] == 0 {
                    order.push(e.to);
                }
            }
        }
        if order.len() < n {
            return Err((0..n).filter(|&u| indeg[u] > 0).collect());
        }

        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        for &u in order.iter().rev() {
            for e in out(u).filter(|e| e.kind.is_data()) {
                bits[u * words + e.to / 64] |= 1 << (e.to % 64);
                for k in 0..words {
                    bits[u * words + k] |= bits[e.to * words + k];
                }
            }
        }
        Ok(Reachability { words, bits })
    }

    /// Remove data edges implied by transitivity (paper §V-B removes the
    /// map→dot edge as redundant). Hints are never removed. Panics on
    /// cycles.
    pub fn transitive_reduce(&mut self) {
        let reach = self
            .reachability()
            .expect("cycle detected in execution graph");
        let nodes = &self.nodes;
        // Redundant if another node lies on a from→…→to path. Halo nodes
        // are not valid intermediates: OCC later narrows halo edges to
        // boundary halves, so a path through a halo node cannot substitute
        // for a direct data dependency.
        self.edges.retain(|e| {
            !e.kind.is_data()
                || !(0..nodes.len()).any(|m| {
                    !nodes[m].is_halo() && reach.reaches(e.from, m) && reach.reaches(m, e.to)
                })
        });
    }
}

/// Data-edge reachability of an acyclic [`Graph`] (see
/// [`Graph::reachability`]): one row of `⌈n/64⌉` words per node, bit `b`
/// of row `a` set iff a data-edge path leads from `a` to `b`.
pub(crate) struct Reachability {
    words: usize,
    bits: Vec<u64>,
}

impl Reachability {
    /// Whether a data-edge path leads from `a` to `b` (never `a` to `a`).
    pub(crate) fn reaches(&self, a: NodeId, b: NodeId) -> bool {
        self.bits[a * self.words + b / 64] >> (b % 64) & 1 == 1
    }
}

/// Build the data dependency graph of a container sequence (paper §V-A).
pub fn build_dependency_graph(containers: &[Container]) -> Graph {
    let mut g = Graph::new();
    let mut last_writer: HashMap<DataUid, NodeId> = HashMap::new();
    let mut readers_since_write: HashMap<DataUid, Vec<NodeId>> = HashMap::new();

    for (ci, c) in containers.iter().enumerate() {
        let kind = match c.kind() {
            neon_set::ContainerKind::Host => NodeKind::Host {
                container: c.clone(),
            },
            _ => NodeKind::Compute {
                container: c.clone(),
                view: DataView::Standard,
                reduce_init: c.is_reduce(),
                reduce_finalize: c.is_reduce(),
            },
        };
        let id = g.add_node(Node::with_source(c.name(), kind, ci));
        for a in c.accesses() {
            if a.mode.reads() {
                if let Some(&w) = last_writer.get(&a.uid) {
                    if w != id {
                        g.add_edge(Edge {
                            from: w,
                            to: id,
                            kind: EdgeKind::RaW,
                            data: Some(a.uid),
                        });
                    }
                }
            }
            if a.mode.writes() {
                for &r in readers_since_write.get(&a.uid).into_iter().flatten() {
                    if r != id {
                        g.add_edge(Edge {
                            from: r,
                            to: id,
                            kind: EdgeKind::WaR,
                            data: Some(a.uid),
                        });
                    }
                }
                if let Some(&w) = last_writer.get(&a.uid) {
                    if w != id {
                        g.add_edge(Edge {
                            from: w,
                            to: id,
                            kind: EdgeKind::WaW,
                            data: Some(a.uid),
                        });
                    }
                }
            }
        }
        // Update tracking after all accesses are wired.
        for a in c.accesses() {
            if a.mode.writes() {
                last_writer.insert(a.uid, id);
                readers_since_write.insert(a.uid, Vec::new());
            }
            if a.mode.reads() {
                readers_since_write.entry(a.uid).or_default().push(id);
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_domain::{
        ops, DenseGrid, Dim3, Field, GridLike as _, MemLayout, ScalarSet, Stencil, StorageMode,
    };
    use neon_sys::Backend;

    fn fixtures() -> (
        DenseGrid,
        Field<f64, DenseGrid>,
        Field<f64, DenseGrid>,
        ScalarSet<f64>,
    ) {
        let b = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
        let dot = ScalarSet::<f64>::new(2, "dot", 0.0, |a, b| a + b);
        (g, x, y, dot)
    }

    #[test]
    fn raw_edge_between_writer_and_reader() {
        let (g, x, y, _) = fixtures();
        let c1 = ops::copy(&g, &x, &y); // writes y
        let c2 = ops::axpy_const(&g, 1.0, &y, &x); // reads y, writes x
        let graph = build_dependency_graph(&[c1, c2]);
        assert_eq!(graph.len(), 2);
        assert!(graph.edges().iter().any(|e| e.from == 0
            && e.to == 1
            && e.kind == EdgeKind::RaW
            && e.data == Some(y.uid())));
    }

    #[test]
    fn war_edge_between_reader_and_writer() {
        let (g, x, y, _) = fixtures();
        let c1 = ops::axpy_const(&g, 1.0, &x, &y); // reads x
        let c2 = ops::set_value(&g, &x, 0.0); // writes x
        let graph = build_dependency_graph(&[c1, c2]);
        assert!(graph
            .edges()
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == EdgeKind::WaR));
    }

    #[test]
    fn waw_edge_between_writers() {
        let (g, x, _, _) = fixtures();
        let c1 = ops::set_value(&g, &x, 1.0);
        let c2 = ops::set_value(&g, &x, 2.0);
        let graph = build_dependency_graph(&[c1, c2]);
        assert!(graph
            .edges()
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == EdgeKind::WaW));
    }

    #[test]
    fn independent_containers_have_no_edges() {
        let (g, x, y, _) = fixtures();
        let c1 = ops::set_value(&g, &x, 1.0);
        let c2 = ops::set_value(&g, &y, 2.0);
        let graph = build_dependency_graph(&[c1, c2]);
        assert!(graph.edges().is_empty());
        let levels = graph.bfs_levels(false);
        assert_eq!(levels.len(), 1);
        assert_eq!(levels[0].len(), 2);
    }

    #[test]
    fn paper_fig4_example_graph() {
        // axpy (map on X,Y) → laplace (stencil X→Y? in the paper: laplace
        // reads X writes L) → dot(L,L).
        let (g, x, y, dot_s) = fixtures();
        let axpy = ops::axpy_const(&g, 2.0, &y, &x); // writes x
        let laplace = {
            let (xc, yc) = (x.clone(), y.clone());
            neon_set::Container::compute("laplace", g.as_space(), move |ldr| {
                use neon_domain::{FieldRead as _, FieldStencil as _, FieldWrite as _};
                let xv = ldr.read_stencil(&xc);
                let yv = ldr.write(&yc);
                Box::new(move |c| {
                    let mut s = 0.0;
                    for slot in 0..6 {
                        s += xv.ngh(c, slot, 0);
                    }
                    yv.set(c, 0, s - 6.0 * xv.at(c, 0));
                })
            })
        };
        let dotc = ops::dot(&g, &y, &y, &dot_s);
        let graph = build_dependency_graph(&[axpy, laplace, dotc]);
        assert_eq!(graph.len(), 3);
        // axpy → laplace RaW on x; laplace also WaR on y (axpy read y).
        assert!(graph.edges().iter().any(|e| e.from == 0
            && e.to == 1
            && e.kind == EdgeKind::RaW
            && e.data == Some(x.uid())));
        assert!(graph.edges().iter().any(|e| e.from == 0
            && e.to == 1
            && e.kind == EdgeKind::WaR
            && e.data == Some(y.uid())));
        // laplace → dot RaW on y.
        assert!(graph.edges().iter().any(|e| e.from == 1
            && e.to == 2
            && e.kind == EdgeKind::RaW
            && e.data == Some(y.uid())));
    }

    #[test]
    fn transitive_reduction_removes_redundant_edge() {
        let (g, x, y, dot_s) = fixtures();
        // c0 writes x; c1 reads x writes y; c2 reads x AND y.
        let c0 = ops::set_value(&g, &x, 1.0);
        let c1 = ops::copy(&g, &x, &y);
        let c2 = ops::dot(&g, &x, &y, &dot_s);
        let mut graph = build_dependency_graph(&[c0, c1, c2]);
        assert!(graph
            .edges()
            .iter()
            .any(|e| e.from == 0 && e.to == 2 && e.kind.is_data()));
        graph.transitive_reduce();
        // 0→2 should be gone: implied through 0→1→2.
        assert!(!graph.edges().iter().any(|e| e.from == 0 && e.to == 2));
        assert!(graph.edges().iter().any(|e| e.from == 0 && e.to == 1));
        assert!(graph.edges().iter().any(|e| e.from == 1 && e.to == 2));
    }

    #[test]
    fn bfs_levels_respect_dependencies() {
        let (g, x, y, dot_s) = fixtures();
        let c0 = ops::set_value(&g, &x, 1.0);
        let c1 = ops::copy(&g, &x, &y);
        let c2 = ops::dot(&g, &x, &y, &dot_s);
        let graph = build_dependency_graph(&[c0, c1, c2]);
        let levels = graph.bfs_levels(false);
        assert_eq!(levels, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn cycle_detection() {
        let mut g = Graph::new();
        let a = g.add_node(Node::new(
            "a",
            NodeKind::Host {
                container: Container::host("a", 1, |_| Box::new(|| {})),
            },
        ));
        let b = g.add_node(Node::new(
            "b",
            NodeKind::Host {
                container: Container::host("b", 1, |_| Box::new(|| {})),
            },
        ));
        g.add_edge(Edge {
            from: a,
            to: b,
            kind: EdgeKind::RaW,
            data: None,
        });
        g.add_edge(Edge {
            from: b,
            to: a,
            kind: EdgeKind::RaW,
            data: None,
        });
        g.bfs_levels(false);
    }

    #[test]
    fn duplicate_edges_deduped() {
        let (g, x, y, _) = fixtures();
        // axpy reads x twice conceptually (read + rw): edges dedupe.
        let c0 = ops::set_value(&g, &x, 1.0);
        let c1 = ops::axpy_const(&g, 1.0, &x, &y);
        let graph = build_dependency_graph(&[c0, c1]);
        let n = graph
            .edges()
            .iter()
            .filter(|e| e.from == 0 && e.to == 1 && e.kind == EdgeKind::RaW)
            .count();
        assert_eq!(n, 1);
    }

    #[test]
    fn scalar_dependencies_tracked() {
        let (g, x, y, dot_s) = fixtures();
        let alpha = ScalarSet::<f64>::new(2, "alpha", 0.0, |a, b| a + b);
        let c_dot = ops::dot(&g, &x, &y, &dot_s); // writes dot_s
        let c_alpha = {
            let (d, a) = (dot_s.clone(), alpha.clone());
            Container::host("alpha", 2, move |ldr| {
                let dv = ldr.scalar_reader(&d);
                let aw = ldr.scalar_writer(&a);
                Box::new(move || aw.set(dv.get() * 2.0))
            })
        };
        let c_apply = ops::axpy_scalar(&g, &alpha, 1.0, &x, &y); // reads alpha
        let graph = build_dependency_graph(&[c_dot, c_alpha, c_apply]);
        // dot → alpha (RaW on dot scalar), alpha → apply (RaW on alpha).
        assert!(graph
            .edges()
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == EdgeKind::RaW));
        assert!(graph
            .edges()
            .iter()
            .any(|e| e.from == 1 && e.to == 2 && e.kind == EdgeKind::RaW));
    }
}
