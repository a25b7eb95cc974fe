//! Temporal blocking: the `temporal-fuse` pass.
//!
//! Under [`FusionLevel::Temporal(k)`](crate::fuse::FusionLevel), this pass
//! rewrites a post-fuse graph that is one legal stencil sweep into a single
//! *super-step* node executing `k` whole iterations per launch. The
//! super-step's halo reads are promoted to depth `k·r` (one deep exchange
//! replaces `k` rounds of depth `r`), and each rep recomputes the ghost
//! zone it will read next rep — exactly the values the owning device
//! computes, so results stay bit-identical to the unfused run.
//!
//! # Legality (whole graph or nothing)
//!
//! The rewrite collapses the entire sweep into one node, so it applies only
//! when the *whole* graph qualifies:
//!
//! - every node is a pure compute launch (no host steps, no reduction
//!   init/finalize — reductions observe a globally folded scalar each
//!   iteration and therefore close super-steps);
//! - all members iterate one shared grid;
//! - at least one member stencil-reads (otherwise there is nothing to
//!   block — map chains have no cross-device dependence);
//! - no member stencil-reads a field an *earlier* member of the same
//!   iteration wrote: the ghost zone shrinks by `r` per *rep*, so data
//!   flowing through a stencil *within* one rep would need ghost layers
//!   the schedule never refreshed;
//! - the grid stores enough ghost layers to iterate `(k-1)·r` beyond the
//!   owned interior, and every read-before-write field can host a
//!   depth-`k·r` exchange.
//!
//! Any failure leaves the graph untouched: `Temporal(k)` then behaves
//! exactly like `Conservative` (which already ran), preserving
//! bit-identical results with the same halo traffic.

use neon_set::{ComputePattern, Container, DataUid, DataView};

use crate::fuse::FusionLevel;
use crate::graph::{Graph, Node, NodeKind};
use crate::pass::{Ir, Pass, PassCtx};

/// Rewrites a repeated-sweep graph into one `k`-iteration super-step.
pub struct TemporalFusePass;

impl Pass for TemporalFusePass {
    fn name(&self) -> &'static str {
        "temporal-fuse"
    }

    fn run(&self, ir: &mut Ir, cx: &PassCtx) {
        let k = match cx.key.fusion {
            FusionLevel::Temporal(k) if k >= 2 => k,
            _ => return,
        };
        if let Some(node) = super_step(&ir.graph, k) {
            let mut g = Graph::new();
            g.add_node(node);
            ir.graph = g;
        }
    }
}

/// Build the super-step node if the whole graph qualifies, else `None`.
fn super_step(g: &Graph, k: u8) -> Option<Node> {
    if g.is_empty() {
        return None;
    }
    // Gather members (and their sequence indices) in node order, unwrapping
    // nothing: a fused node contributes its fused wrapper as one member, and
    // its own `fused_sources`, so the provenance list stays the members'
    // leaves in depth-first order — the order plan rebinding walks.
    let mut members: Vec<Container> = Vec::new();
    let mut sources: Vec<usize> = Vec::new();
    for n in g.nodes() {
        match &n.kind {
            NodeKind::Compute {
                container,
                view: DataView::Standard,
                reduce_init: false,
                reduce_finalize: false,
            } => {
                if n.fused_sources.is_empty() {
                    sources.push(n.source?);
                } else {
                    sources.extend(n.fused_sources.iter().copied());
                }
                members.push(container.clone());
            }
            _ => return None,
        }
    }

    // One shared grid, with identity (anonymous spaces cannot prove it).
    let space = members[0].space()?.clone();
    let sid = space.space_id()?;
    let mut radius = 1usize;
    let mut any_stencil = false;
    for m in &members {
        if m.space()?.space_id() != Some(sid) {
            return None;
        }
        for a in m.accesses() {
            if a.reduce_hooks.is_some() {
                return None;
            }
            if a.pattern == ComputePattern::Stencil && a.mode.reads() {
                any_stencil = true;
                radius = radius.max(a.halo.as_ref().map_or(1, |h| h.depth()));
            }
        }
    }
    if !any_stencil {
        return None;
    }

    // No intra-iteration stencil RAW, walking flattened member order (a
    // fused wrapper's merged records preserve that order).
    let mut written: std::collections::HashSet<DataUid> = std::collections::HashSet::new();
    let deep = k as usize * radius;
    for m in &members {
        // Access-record order is program order — mirror the promotion walk
        // in `Container::temporal` exactly.
        for a in m.accesses() {
            if a.pattern == ComputePattern::Stencil && a.mode.reads() && written.contains(&a.uid) {
                return None;
            }
            // Reads of fields not yet written this step become the deep
            // exchange — the field must be able to host one.
            if a.mode.reads() && !written.contains(&a.uid) {
                if let Some(fx) = &a.field_exchange {
                    if fx.has_transfers() && fx.at_depth(deep).is_none() {
                        return None;
                    }
                }
            }
            if a.mode.writes() {
                written.insert(a.uid);
            }
        }
    }

    // Rep 0 iterates `(k-1)·r` layers past the owned interior.
    if space.ghost_capacity() < (k as usize - 1) * radius {
        return None;
    }

    let name = format!(
        "temporal{{{}}}x{}",
        members
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>()
            .join("+"),
        k
    );
    let container = Container::temporal(&name, members, k);
    Some(Node::with_fused_sources(
        name,
        NodeKind::Compute {
            container,
            view: DataView::Standard,
            reduce_init: false,
            reduce_finalize: false,
        },
        sources,
    ))
}
