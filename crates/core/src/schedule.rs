//! Scheduling a multi-GPU graph (paper §V-C).
//!
//! The greedy three-phase algorithm from the paper:
//!
//! 1. **Mapping nodes to streams** — BFS levels over the data edges
//!    (Fig. 5); the widest level determines how many streams are needed;
//!    within a level each node prefers a stream one of its parents used,
//!    which skips event synchronizations later.
//! 2. **Organizing event synchronization** — an edge whose endpoints sit
//!    on different streams needs a completion event from the parent in
//!    the child's wait list.
//! 3. **Task list order** — a second BFS including the *scheduling hint*
//!    edges produces the order in which the host enqueues tasks; this is
//!    what realizes OCC (e.g. internal halves enqueued before boundary
//!    halves so a stream never idles waiting for a halo).

use crate::graph::{Graph, NodeId};

/// One enqueue operation of the execution plan.
#[derive(Debug, Clone)]
pub struct Task {
    /// The graph node to execute.
    pub node: NodeId,
    /// The multi-GPU stream (same index on every device) it runs on.
    pub stream: usize,
    /// Parents on *other* streams whose completion events must be awaited.
    pub wait: Vec<NodeId>,
    /// Whether any child waits on this task's completion event.
    pub signals: bool,
}

/// An ordered execution plan for a graph.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Tasks in host enqueue order (a topological order incl. hints).
    pub tasks: Vec<Task>,
    /// Number of compute streams used.
    pub num_streams: usize,
    /// Stream assigned to each node.
    pub stream_of: Vec<usize>,
}

impl Schedule {
    /// The task index of a node.
    pub fn task_of(&self, node: NodeId) -> Option<usize> {
        self.tasks.iter().position(|t| t.node == node)
    }

    /// Render the plan as a table: enqueue order, node, stream, events —
    /// the structure the paper describes in §V-C.
    pub fn render(&self, g: &Graph) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let header = format!(
            "{0:>3}  {1:<28} {2:>6}  {3:<20} signals",
            "#", "node", "stream", "waits on"
        );
        let _ = writeln!(out, "{header}");
        for (i, t) in self.tasks.iter().enumerate() {
            let waits = if t.wait.is_empty() {
                "-".to_string()
            } else {
                t.wait
                    .iter()
                    .map(|&n| g.node(n).name.clone())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            let _ = writeln!(
                out,
                "{i:>3}  {:<28} {:>6}  {:<20} {}",
                g.node(t.node).name,
                t.stream,
                waits,
                if t.signals { "yes" } else { "" }
            );
        }
        out
    }
}

/// Build the execution plan for `g` with at most `stream_cap` concurrent
/// streams (1 for the CPU back end, which runs one kernel at a time).
pub fn build_schedule(g: &Graph, stream_cap: usize) -> Schedule {
    build_schedule_opts(g, stream_cap, true)
}

/// [`build_schedule`] with the scheduling hints optionally ignored
/// (ablation: the paper argues hints are what turns *potential* overlap
/// into actual overlap).
pub fn build_schedule_opts(g: &Graph, stream_cap: usize, use_hints: bool) -> Schedule {
    assert!(stream_cap >= 1);
    let n = g.len();
    if n == 0 {
        return Schedule {
            tasks: Vec::new(),
            num_streams: 1,
            stream_of: Vec::new(),
        };
    }

    // Phase 1: stream mapping over data-only BFS levels.
    let levels = g.bfs_levels(false);
    let width = levels.iter().map(Vec::len).max().unwrap_or(1);
    let num_streams = width.clamp(1, stream_cap);
    let mut stream_of = vec![usize::MAX; n];
    for level in &levels {
        let mut used = vec![false; num_streams];
        let mut pending: Vec<NodeId> = Vec::new();
        for &u in level {
            // Prefer a parent's stream that is still free in this level.
            let parent_stream = g
                .data_parents(u)
                .map(|e| stream_of[e.from])
                .find(|&s| s != usize::MAX && !used[s]);
            if let Some(s) = parent_stream {
                stream_of[u] = s;
                used[s] = true;
            } else {
                pending.push(u);
            }
        }
        let mut next_free = 0usize;
        for u in pending {
            while next_free < num_streams && used[next_free] {
                next_free += 1;
            }
            if next_free < num_streams {
                stream_of[u] = next_free;
                used[next_free] = true;
            } else {
                // More nodes than streams: round-robin reuse.
                stream_of[u] = u % num_streams;
            }
        }
    }

    // Phase 3 first (ordering), then phase 2 per ordered task.
    let order: Vec<NodeId> = g.bfs_levels(use_hints).into_iter().flatten().collect();

    // Phase 2: events where an edge crosses streams.
    let mut signals = vec![false; n];
    let mut tasks: Vec<Task> = Vec::with_capacity(n);
    for &u in &order {
        let mut wait: Vec<NodeId> = g
            .data_parents(u)
            .filter(|e| {
                stream_of[e.from] != stream_of[u]
                    || g.node(e.from).is_halo()
                    || g.node(u).is_halo()
                    || g.node(e.from).is_collective()
                    || g.node(u).is_collective()
            })
            .map(|e| e.from)
            .collect();
        wait.sort_unstable();
        wait.dedup();
        for &p in &wait {
            signals[p] = true;
        }
        tasks.push(Task {
            node: u,
            stream: stream_of[u],
            wait,
            signals: false,
        });
    }
    for t in &mut tasks {
        t.signals = signals[t.node];
    }

    Schedule {
        tasks,
        num_streams,
        stream_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Edge, EdgeKind, Graph, Node, NodeKind};
    use neon_set::Container;

    fn host_node(name: &str) -> Node {
        Node::new(
            name,
            NodeKind::Host {
                container: Container::host(name, 1, |_| Box::new(|| {})),
            },
        )
    }

    fn edge(from: NodeId, to: NodeId, kind: EdgeKind) -> Edge {
        Edge {
            from,
            to,
            kind,
            data: None,
        }
    }

    /// Diamond: a → (b, c) → d.
    fn diamond() -> Graph {
        let mut g = Graph::new();
        for n in ["a", "b", "c", "d"] {
            g.add_node(host_node(n));
        }
        g.add_edge(edge(0, 1, EdgeKind::RaW));
        g.add_edge(edge(0, 2, EdgeKind::RaW));
        g.add_edge(edge(1, 3, EdgeKind::RaW));
        g.add_edge(edge(2, 3, EdgeKind::RaW));
        g
    }

    #[test]
    fn diamond_uses_two_streams() {
        let s = build_schedule(&diamond(), 8);
        assert_eq!(s.num_streams, 2);
        assert_ne!(s.stream_of[1], s.stream_of[2], "b and c run concurrently");
    }

    #[test]
    fn child_prefers_parent_stream() {
        let s = build_schedule(&diamond(), 8);
        // d shares a stream with b or c; a shares with one of them too.
        assert!(s.stream_of[3] == s.stream_of[1] || s.stream_of[3] == s.stream_of[2]);
    }

    #[test]
    fn cross_stream_edges_get_events() {
        let s = build_schedule(&diamond(), 8);
        let d_task = s.tasks.iter().find(|t| t.node == 3).unwrap();
        // d waits at least on the parent from the other stream.
        assert!(!d_task.wait.is_empty());
        let other = if s.stream_of[3] == s.stream_of[1] {
            2
        } else {
            1
        };
        assert!(d_task.wait.contains(&other));
        // That parent signals.
        assert!(s.tasks.iter().find(|t| t.node == other).unwrap().signals);
    }

    #[test]
    fn same_stream_chain_skips_events() {
        let mut g = Graph::new();
        for n in ["a", "b", "c"] {
            g.add_node(host_node(n));
        }
        g.add_edge(edge(0, 1, EdgeKind::RaW));
        g.add_edge(edge(1, 2, EdgeKind::RaW));
        let s = build_schedule(&g, 8);
        assert_eq!(s.num_streams, 1);
        for t in &s.tasks {
            assert!(
                t.wait.is_empty(),
                "linear chain on one stream needs no events"
            );
        }
    }

    #[test]
    fn task_order_is_topological() {
        let g = diamond();
        let s = build_schedule(&g, 8);
        let pos: Vec<usize> = (0..4).map(|n| s.task_of(n).unwrap()).collect();
        for e in g.edges() {
            assert!(pos[e.from] < pos[e.to]);
        }
    }

    #[test]
    fn hints_shape_the_order() {
        // a → b, a → c (data); hint c → b forces c before b.
        let mut g = Graph::new();
        for n in ["a", "b", "c"] {
            g.add_node(host_node(n));
        }
        g.add_edge(edge(0, 1, EdgeKind::RaW));
        g.add_edge(edge(0, 2, EdgeKind::RaW));
        g.add_edge(edge(2, 1, EdgeKind::Sched));
        let s = build_schedule(&g, 8);
        assert!(s.task_of(2).unwrap() < s.task_of(1).unwrap());
        // Hints don't influence stream width (b and c still concurrent).
        assert_eq!(s.num_streams, 2);
    }

    #[test]
    fn stream_cap_respected() {
        // Five independent nodes, cap at 2 streams.
        let mut g = Graph::new();
        for i in 0..5 {
            g.add_node(host_node(&format!("n{i}")));
        }
        let s = build_schedule(&g, 2);
        assert_eq!(s.num_streams, 2);
        assert!(s.stream_of.iter().all(|&x| x < 2));
    }

    #[test]
    fn empty_graph() {
        let s = build_schedule(&Graph::new(), 4);
        assert!(s.tasks.is_empty());
    }
}
