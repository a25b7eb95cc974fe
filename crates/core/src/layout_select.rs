//! The `layout-select` compile pass: memory layout as a compile *policy*.
//!
//! The paper's §IV-C2 promises layout transparency — user kernels index
//! fields through an abstract `(cell, component)` interface, so SoA vs
//! AoS is free to vary per field. This pass makes the choice part of the
//! compile pipeline instead of a hard-coded per-field default: from each
//! data object's recorded access pattern it derives a **recommended**
//! [`MemLayout`] and the reason, annotated on the IR (and visible in IR
//! dumps).
//!
//! The pass is *advisory*: fields are allocated before the skeleton
//! compiles, so the pipeline cannot relocate storage in flight. Apps
//! consult [`recommend_layout`] (directly or via the skeleton's
//! [`LayoutPolicy`]) at allocation time; the policy is a field of the
//! plan's [`crate::CompileKey`], so plans compiled under different layout
//! policies never alias.
//!
//! The heuristic mirrors the halo-transfer arithmetic asserted by the
//! grid tests (`MemLayout::halo_transfers_per_pair`):
//!
//! * cardinality 1 — SoA and AoS coincide; SoA (the default) wins.
//! * cardinality > 1 and stencil-read with a live halo — AoS: halo planes
//!   are contiguous, 2 transfers per partition pair instead of `2·card`.
//! * cardinality > 1, map-only — SoA: component sweeps stay contiguous
//!   and vectorizable, and no halo traffic exists to amortize.

use neon_set::{uid_roles, ComputePattern, Container, MemLayout};

use crate::pass::{Ir, Pass, PassCtx};

/// How the skeleton chooses field layouts (a field of the plan key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LayoutPolicy {
    /// Recommend per field from the access pattern (the heuristic above).
    #[default]
    Auto,
    /// Recommend SoA for every field.
    FixedSoA,
    /// Recommend AoS for every field.
    FixedAoS,
}

impl LayoutPolicy {
    /// Short label used in IR dumps and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            LayoutPolicy::Auto => "auto",
            LayoutPolicy::FixedSoA => "fixed-soa",
            LayoutPolicy::FixedAoS => "fixed-aos",
        }
    }
}

/// One per-data-object recommendation produced by the pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutRec {
    /// The data object's role (first-occurrence index; see
    /// [`neon_set::uid_roles`]) — stable across runs, unlike raw uids.
    pub role: usize,
    /// The data object's name (diagnostics).
    pub name: String,
    /// The recommended layout.
    pub layout: MemLayout,
    /// Why (short, stable phrase — appears in golden IR dumps).
    pub reason: &'static str,
}

/// The access summary [`recommend_layout`] decides from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessSummary {
    /// Field cardinality (components per cell).
    pub card: usize,
    /// Whether any access stencil-reads the object.
    pub stencil: bool,
    /// Whether a halo exchange with at least one transfer is attached.
    pub live_halo: bool,
}

/// The layout the policy recommends for one data object.
pub fn recommend_layout(policy: LayoutPolicy, s: AccessSummary) -> (MemLayout, &'static str) {
    match policy {
        LayoutPolicy::FixedSoA => (MemLayout::SoA, "policy=fixed-soa"),
        LayoutPolicy::FixedAoS => (MemLayout::AoS, "policy=fixed-aos"),
        LayoutPolicy::Auto => {
            if s.card <= 1 {
                (MemLayout::SoA, "scalar: layouts coincide")
            } else if s.stencil || s.live_halo {
                (MemLayout::AoS, "vector stencil: 2 halo transfers, not 2n")
            } else {
                (MemLayout::SoA, "vector map: contiguous component sweeps")
            }
        }
    }
}

/// Summarize every data object's accesses across a container sequence,
/// in role order. Cardinality is estimated from the largest per-cell
/// byte count any access declares (all shipped fields are `f64`); the
/// estimate only needs to distinguish scalar from vector.
pub fn summarize_accesses(containers: &[Container]) -> Vec<(usize, String, AccessSummary)> {
    let roles = uid_roles(containers);
    let mut out: Vec<Option<(String, AccessSummary)>> = vec![None; roles.len()];
    for c in containers {
        for a in c.accesses() {
            let role = roles.role(a.uid).expect("roles cover the sequence");
            let entry =
                out[role].get_or_insert_with(|| (a.name.to_string(), AccessSummary::default()));
            let bytes = a.read_bytes_per_cell.max(a.write_bytes_per_cell);
            entry.1.card = entry.1.card.max((bytes / 8).max(1) as usize);
            if a.pattern == ComputePattern::Stencil && a.mode.reads() {
                entry.1.stencil = true;
            }
            if a.halo.as_ref().map(|h| h.has_transfers()).unwrap_or(false) {
                entry.1.live_halo = true;
            }
        }
    }
    out.into_iter()
        .enumerate()
        .filter_map(|(role, e)| e.map(|(name, s)| (role, name, s)))
        .collect()
}

/// The `layout-select` pass: annotate the IR with one [`LayoutRec`] per
/// data object.
pub struct LayoutSelectPass;

impl Pass for LayoutSelectPass {
    fn name(&self) -> &'static str {
        "layout-select"
    }
    fn run(&self, ir: &mut Ir, cx: &PassCtx) {
        ir.layout_policy = cx.key.layout;
        ir.layout_recs = summarize_accesses(&ir.containers)
            .into_iter()
            .map(|(role, name, s)| {
                let (layout, reason) = recommend_layout(cx.key.layout, s);
                LayoutRec {
                    role,
                    name,
                    layout,
                    reason,
                }
            })
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policies_override_everything() {
        let s = AccessSummary {
            card: 3,
            stencil: true,
            live_halo: true,
        };
        assert_eq!(
            recommend_layout(LayoutPolicy::FixedSoA, s).0,
            MemLayout::SoA
        );
        assert_eq!(
            recommend_layout(LayoutPolicy::FixedAoS, s).0,
            MemLayout::AoS
        );
    }

    #[test]
    fn auto_scalar_prefers_soa() {
        let (l, _) = recommend_layout(
            LayoutPolicy::Auto,
            AccessSummary {
                card: 1,
                stencil: true,
                live_halo: true,
            },
        );
        assert_eq!(l, MemLayout::SoA);
    }

    #[test]
    fn auto_vector_stencil_prefers_aos() {
        let (l, _) = recommend_layout(
            LayoutPolicy::Auto,
            AccessSummary {
                card: 19,
                stencil: true,
                live_halo: true,
            },
        );
        assert_eq!(l, MemLayout::AoS);
    }

    #[test]
    fn auto_vector_map_prefers_soa() {
        let (l, _) = recommend_layout(
            LayoutPolicy::Auto,
            AccessSummary {
                card: 3,
                stencil: false,
                live_halo: false,
            },
        );
        assert_eq!(l, MemLayout::SoA);
    }
}
