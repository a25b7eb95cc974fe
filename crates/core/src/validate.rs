//! Inter-pass invariant validation for the compile pipeline.
//!
//! Every pass of the [`crate::pass::PassManager`] must hand the next pass a
//! well-formed IR. The validator makes that contract executable; it checks:
//!
//! 1. **Acyclicity** — the graph (data + hint edges) admits a topological
//!    order.
//! 2. **Conflict ordering** — any two nodes that touch the same data object
//!    where at least one writes are connected by a directed data-edge path,
//!    unless they provably cannot race: clones of one container instance
//!    (OCC split halves, a reduce kernel and its lowered collective), or
//!    cell-local accesses over disjoint views (an internal half and a
//!    boundary half iterate disjoint cells). This is what "WaR/WaW edges
//!    preserved across OCC splitting" means once splitting multiplies the
//!    endpoints.
//! 3. **Halo precedence** — every node that stencil-reads a partitioned
//!    field over a view containing boundary cells has a halo-update node for
//!    that field among its data-edge ancestors (multi-device backends only;
//!    internal halves are exempt by construction).
//! 4. **Schedule soundness** — one task per node, data edges respected by
//!    the enqueue order, and event begin/end pairing: every cross-stream /
//!    halo / collective data edge appears in the consumer's wait list, every
//!    waited-on task signals, every signalling task has a waiter, and waits
//!    reference earlier tasks only.

use std::cmp::Ordering;

use neon_set::{ComputePattern, DataUid, DataView};

use crate::graph::{EdgeKind, Graph, NodeId, NodeKind};
use crate::schedule::Schedule;

/// A violated pipeline invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// The graph contains a cycle through the named nodes.
    Cycle {
        /// Nodes left unprocessed by Kahn's algorithm (a superset of one
        /// cycle).
        nodes: Vec<String>,
    },
    /// Two nodes conflict on a data object but no data-edge path orders
    /// them.
    UnorderedConflict {
        /// One conflicting node.
        a: String,
        /// The other conflicting node.
        b: String,
        /// The shared data object's name.
        data: String,
    },
    /// A stencil reader has no halo-update ancestor for the field it reads.
    MissingHalo {
        /// The reading node.
        node: String,
        /// The stencil-read field's name.
        data: String,
    },
    /// The schedule's task count does not match the graph's node count.
    TaskCountMismatch {
        /// Tasks in the schedule.
        tasks: usize,
        /// Nodes in the graph.
        nodes: usize,
    },
    /// A node appears in more than one task (or not at all).
    DuplicateTask {
        /// The node's name.
        node: String,
    },
    /// A data edge runs against the task order.
    NotTopological {
        /// The producer node.
        from: String,
        /// The consumer node enqueued too early.
        to: String,
    },
    /// A data edge that needs an event is missing from the consumer's wait
    /// list.
    MissingEvent {
        /// The producer node.
        from: String,
        /// The consumer node.
        to: String,
    },
    /// A task waits on a node whose task does not signal (no event was
    /// recorded to wait for).
    WaitWithoutSignal {
        /// The waiting task's node.
        task: String,
        /// The awaited node.
        waited: String,
    },
    /// A task waits on a node enqueued after it.
    WaitNotEarlier {
        /// The waiting task's node.
        task: String,
        /// The awaited node.
        waited: String,
    },
    /// A task signals but nothing ever waits on it (dangling event begin).
    SignalWithoutWait {
        /// The signalling task's node.
        task: String,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::Cycle { nodes } => {
                write!(f, "cycle through {}", nodes.join(", "))
            }
            ValidationError::UnorderedConflict { a, b, data } => {
                write!(f, "'{a}' and '{b}' conflict on {data} but are unordered")
            }
            ValidationError::MissingHalo { node, data } => {
                write!(f, "'{node}' stencil-reads {data} with no halo ancestor")
            }
            ValidationError::TaskCountMismatch { tasks, nodes } => {
                write!(f, "{tasks} tasks for {nodes} graph nodes")
            }
            ValidationError::DuplicateTask { node } => {
                write!(f, "node '{node}' is not scheduled exactly once")
            }
            ValidationError::NotTopological { from, to } => {
                write!(f, "'{to}' enqueued before its producer '{from}'")
            }
            ValidationError::MissingEvent { from, to } => {
                write!(
                    f,
                    "edge '{from}' -> '{to}' crosses streams without an event"
                )
            }
            ValidationError::WaitWithoutSignal { task, waited } => {
                write!(f, "'{task}' waits on '{waited}', which never signals")
            }
            ValidationError::WaitNotEarlier { task, waited } => {
                write!(f, "'{task}' waits on '{waited}', enqueued later")
            }
            ValidationError::SignalWithoutWait { task } => {
                write!(f, "'{task}' signals an event nobody waits on")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// How a node uses one data object: a union of these flags.
const READ: u8 = 1;
const WRITE: u8 = 2;
/// Any access to the object is a stencil (non-local) access.
const STENCIL: u8 = 4;

/// One `(data object, use flags)` entry per access of a node of `kind`.
///
/// Halo nodes report nothing (their conflicts are covered by the halo
/// precedence check); collective nodes report only the reduced scalars —
/// the carried container's field reads belong to the accumulating kernel,
/// not to the communication step.
fn node_uses(kind: &NodeKind) -> impl Iterator<Item = (DataUid, u8)> + '_ {
    let (container, collective) = match kind {
        NodeKind::Halo { .. } => (None, false),
        NodeKind::Collective { container, .. } => (Some(container), true),
        NodeKind::Compute { container, .. } | NodeKind::Host { container } => {
            (Some(container), false)
        }
    };
    container
        .into_iter()
        .flat_map(|c| c.accesses())
        .filter(move |a| !collective || a.pattern == ComputePattern::Reduce)
        .map(move |a| {
            if collective {
                return (a.uid, READ | WRITE);
            }
            let flag = |on: bool, f: u8| if on { f } else { 0 };
            let use_ = flag(a.mode.reads(), READ)
                | flag(a.mode.writes(), WRITE)
                | flag(a.pattern == ComputePattern::Stencil, STENCIL);
            (a.uid, use_)
        })
}

/// Whether two nodes using one data object with flags `fa` and `fb` race
/// when unordered: two readers never do, and cell-local accesses over
/// `disjoint` iteration sets cannot.
fn races(fa: u8, fb: u8, disjoint: bool) -> bool {
    let both = fa | fb;
    both & WRITE != 0 && (both & STENCIL != 0 || !disjoint)
}

/// Whether the views of two nodes iterate provably disjoint cell sets.
fn disjoint_views(a: DataView, b: DataView) -> bool {
    matches!(
        (a, b),
        (DataView::Internal, DataView::Boundary) | (DataView::Boundary, DataView::Internal)
    )
}

/// The first data object on which nodes `a` and `b` of `g` race if
/// unordered (check 2's rule), with the kind of an `a → b` edge ordering
/// them; `None` if they cannot race.
pub(crate) fn conflict(g: &Graph, a: NodeId, b: NodeId) -> Option<(DataUid, EdgeKind)> {
    let (na, nb) = (g.node(a), g.node(b));
    if let (Some(ca), Some(cb)) = (na.container(), nb.container()) {
        if ca.same_instance(cb) {
            return None;
        }
    }
    let disjoint = disjoint_views(na.view(), nb.view());
    // A node's flags on `uid`, folded over its accesses; `None` if it has
    // none.
    let flags = |kind: &NodeKind, uid: DataUid| {
        node_uses(kind)
            .filter(|&(u, _)| u == uid)
            .map(|(_, f)| f)
            .reduce(|f, g| f | g)
    };
    node_uses(&na.kind).find_map(|(uid, fa)| {
        let fa = flags(&na.kind, uid).unwrap_or(fa);
        let fb = flags(&nb.kind, uid)?;
        races(fa, fb, disjoint).then(|| {
            let kind = match (fa & WRITE != 0, fb & READ != 0) {
                (true, true) => EdgeKind::RaW,
                (true, false) => EdgeKind::WaW,
                (false, _) => EdgeKind::WaR,
            };
            (uid, kind)
        })
    })
}

/// The name of a data object: its first access record in node order.
pub(crate) fn data_name(g: &Graph, uid: DataUid) -> String {
    g.nodes()
        .iter()
        .filter_map(|n| n.container())
        .flat_map(|c| c.accesses())
        .find(|a| a.uid == uid)
        .map_or_else(|| format!("{uid:?}"), |a| a.name.to_string())
}

/// Validate a graph's structural invariants (checks 1–3 above).
///
/// `check_halos` is off before the multi-GPU pass has run (the raw
/// dependency graph legitimately has stencil readers with no halo nodes
/// yet).
pub fn validate_graph(g: &Graph, ndev: usize, check_halos: bool) -> Result<(), ValidationError> {
    // Check 1: acyclic over data + hint edges.
    let reach = g.reachability().map_err(|stuck| ValidationError::Cycle {
        nodes: stuck.into_iter().map(|i| g.node(i).name.clone()).collect(),
    })?;

    // Check 2: conflicting accesses are ordered (or provably race-free).
    // One entry per (node, data object), its flags folded over every
    // access; node `i`'s entries are `uses[offsets[i]..offsets[i + 1]]`.
    let mut uses = Vec::new();
    for (i, n) in g.nodes().iter().enumerate() {
        uses.extend(node_uses(&n.kind).map(|(uid, f)| (i, uid, f)));
    }
    uses.sort_unstable_by_key(|&(i, uid, _)| (i, uid));
    uses.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.2 |= next.2;
        }
        same
    });
    let offsets: Vec<usize> = (0..=g.len())
        .map(|i| uses.partition_point(|u| u.0 < i))
        .collect();
    for a in 0..g.len() {
        for b in (a + 1)..g.len() {
            if reach.reaches(a, b) || reach.reaches(b, a) {
                continue;
            }
            let (na, nb) = (g.node(a), g.node(b));
            if let (Some(ca), Some(cb)) = (na.container(), nb.container()) {
                if ca.same_instance(cb) {
                    continue; // split halves / kernel+collective of one launch
                }
            }
            let disjoint = disjoint_views(na.view(), nb.view());
            let (ua, ub) = (
                &uses[offsets[a]..offsets[a + 1]],
                &uses[offsets[b]..offsets[b + 1]],
            );
            // Merge the two uid-sorted lists.
            let (mut i, mut j) = (0, 0);
            while i < ua.len() && j < ub.len() {
                let ((_, uid, fa), (_, other, fb)) = (ua[i], ub[j]);
                match uid.cmp(&other) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        (i, j) = (i + 1, j + 1);
                        if races(fa, fb, disjoint) {
                            return Err(ValidationError::UnorderedConflict {
                                a: na.name.clone(),
                                b: nb.name.clone(),
                                data: data_name(g, uid),
                            });
                        }
                    }
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
                        && reach.reaches(h, id)
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
    // As many tasks as nodes and none twice: every node is scheduled.

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
    let mut waited = vec![false; g.len()];
    for (i, t) in s.tasks.iter().enumerate() {
        for &w in &t.wait {
            waited[w] = true;
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
        if t.signals && !waited[t.node] {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::lower_collectives;
    use crate::graph::{build_dependency_graph, Edge, EdgeKind};
    use crate::multigpu::to_multigpu_graph;
    use crate::occ::{apply_occ, OccLevel};
    use crate::schedule::build_schedule;
    use neon_domain::{
        ops, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike as _, MemLayout,
        ScalarSet, Stencil, StorageMode,
    };
    use neon_sys::Backend;

    /// map(x) → laplace(x→y) → dot(y,y), 2 devices, 7-point stencil.
    fn pipeline(ndev: usize, level: OccLevel) -> Graph {
        let b = Backend::dgx_a100(ndev);
        let s = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, 16), &[&s], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
        let dot = ScalarSet::<f64>::new(ndev, "dot", 0.0, |a, b| a + b);
        let laplace = {
            let (xc, yc) = (x.clone(), y.clone());
            neon_set::Container::compute("laplace", g.as_space(), move |ldr| {
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
        let seq = vec![
            ops::set_value(&g, &x, 1.0),
            laplace,
            ops::dot(&g, &y, &y, &dot),
        ];
        let mg = to_multigpu_graph(&build_dependency_graph(&seq), ndev);
        lower_collectives(&apply_occ(&mg, level), ndev)
    }

    #[test]
    fn valid_pipeline_passes_at_all_occ_levels() {
        for ndev in [1, 2, 4] {
            for level in OccLevel::ALL {
                let g = pipeline(ndev, level);
                validate_graph(&g, ndev, true).unwrap_or_else(|e| {
                    panic!("ndev={ndev} level={level}: {e}");
                });
                let s = build_schedule(&g, 8);
                validate_schedule(&g, &s).unwrap_or_else(|e| {
                    panic!("ndev={ndev} level={level} schedule: {e}");
                });
            }
        }
    }

    #[test]
    fn missing_halo_edge_rejected() {
        let mut g = pipeline(2, OccLevel::None);
        let halo = (0..g.len()).find(|&i| g.node(i).is_halo()).unwrap();
        // Corrupt: sever every edge out of the halo node.
        g.edges_mut().retain(|e| e.from != halo);
        let err = validate_graph(&g, 2, true).unwrap_err();
        assert!(
            matches!(err, ValidationError::MissingHalo { .. }),
            "got {err}"
        );
    }

    #[test]
    fn unordered_conflict_rejected() {
        let mut g = pipeline(2, OccLevel::None);
        // Corrupt: drop every edge out of the stencil node. Its halo stays
        // ordered before it, so the one fault left is the dot reading `y`
        // unordered against the stencil that writes it.
        let stencil = (0..g.len()).find(|&i| g.node(i).name == "laplace").unwrap();
        g.edges_mut().retain(|e| e.from != stencil);
        let err = validate_graph(&g, 2, true).unwrap_err();
        assert!(
            matches!(
                &err,
                ValidationError::UnorderedConflict { a, b, data }
                    if (a.as_str(), b.as_str(), data.as_str()) == ("laplace", "dot(y,y)", "y")
            ),
            "got {err}"
        );
    }

    #[test]
    fn cycle_rejected() {
        let mut g = pipeline(1, OccLevel::None);
        let last = g.len() - 1;
        g.edges_mut().push(Edge {
            from: last,
            to: 0,
            kind: EdgeKind::RaW,
            data: None,
        });
        let err = validate_graph(&g, 1, true).unwrap_err();
        assert!(matches!(err, ValidationError::Cycle { .. }), "got {err}");
    }

    #[test]
    fn tampered_schedule_rejected() {
        let g = pipeline(2, OccLevel::Standard);
        let good = build_schedule(&g, 8);
        validate_schedule(&g, &good).unwrap();

        // Reverse the task order: breaks topology.
        let mut bad = good.clone();
        bad.tasks.reverse();
        assert!(validate_schedule(&g, &bad).is_err());

        // Drop all wait lists: breaks event pairing.
        let mut bad = good.clone();
        for t in &mut bad.tasks {
            t.wait.clear();
        }
        assert!(matches!(
            validate_schedule(&g, &bad).unwrap_err(),
            ValidationError::MissingEvent { .. }
        ));

        // Truncate: breaks the count.
        let mut bad = good.clone();
        bad.tasks.pop();
        assert!(matches!(
            validate_schedule(&g, &bad).unwrap_err(),
            ValidationError::TaskCountMismatch { .. }
        ));
    }
}
