//! Stable structural signatures of container sequences.
//!
//! [`DataUid`]s come from a process-global counter: rebuilding the same
//! solver twice yields different raw uids, and no uid survives a process
//! restart. To let a plan cache recognise "the same program", the signature
//! replaces every uid with its **role**: the first-occurrence index of that
//! uid across the sequence's access records; grids get roles the same
//! way. Two sequences get the same signature exactly when they have the
//! same shape — same container names, kinds, grid roles and ghost depths,
//! and access structure (role / mode / pattern / halo presence) — no
//! matter which concrete data objects they were built over.
//!
//! Per-cell byte counts, FLOP hints and bandwidth efficiencies are
//! deliberately **excluded**: they parameterize the performance model at
//! execution time (read from the rebound containers), not the shape of the
//! compiled graph. A CG solver on a 1e6-cell grid therefore shares a plan
//! with the same solver on a 1e7-cell grid. So is a kernel's dispatch form
//! ([`crate::KernelFn`]): a rebound plan runs whatever kernels the new
//! containers build, so a span-kernel program and its per-cell twin share
//! a plan.

use std::hash::{Hash, Hasher};

use neon_sys::hash::StableHasher;

use crate::container::{Container, ContainerKind};
use crate::loader::ComputePattern;
use crate::uid::DataUid;

/// The data objects a sequence accesses, in role order: role `r` is the
/// `r`-th distinct uid met in declaration order (container order, then
/// access order within a container). A sequence touches a handful of
/// objects, so lookups scan one short vector instead of hashing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UidRoles(Vec<DataUid>);

impl UidRoles {
    /// The role of `uid`, if the sequence accesses it.
    pub fn role(&self, uid: DataUid) -> Option<usize> {
        self.0.iter().position(|&u| u == uid)
    }

    /// The uid playing `role`.
    pub fn uid(&self, role: usize) -> Option<DataUid> {
        self.0.get(role).copied()
    }

    /// Number of distinct data objects.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the sequence accesses no data.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// Assign every uid accessed by the sequence its role: the index of its
/// first occurrence in declaration order (container order, then access
/// order within a container).
pub fn uid_roles(containers: &[Container]) -> UidRoles {
    let mut roles = Vec::with_capacity(containers.iter().map(|c| c.accesses().len()).sum());
    for c in containers {
        for a in c.accesses() {
            if !roles.contains(&a.uid) {
                roles.push(a.uid);
            }
        }
    }
    UidRoles(roles)
}

/// Stable structural signature of a container sequence.
///
/// Covers, per container: name, inferred kind, the grid it iterates as a
/// role (the first container on the same grid) and how deep a ghost zone
/// that grid can sweep, and per access the uid *role* (see
/// [`uid_roles`]), whether the mode reads/writes, the compute pattern,
/// and whether a halo exchange with at least one transfer is attached, as
/// the access's stencil exchange and as its field's exchange. Everything
/// identifying concrete data instances or grid sizes stays out.
pub fn sequence_signature(containers: &[Container]) -> u64 {
    signature_over_roles(containers, &uid_roles(containers))
}

/// [`sequence_signature`] over roles the caller already computed with
/// [`uid_roles`] (a plan-cache lookup needs them again to rebind).
/// Allocates nothing.
pub fn signature_over_roles(containers: &[Container], roles: &UidRoles) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(containers.len() as u64);
    let grid = |c: &Container| c.space().and_then(|s| s.space_id());
    for (i, c) in containers.iter().enumerate() {
        c.name().hash(&mut h);
        h.write_u8(match c.kind() {
            ContainerKind::Map => 0,
            ContainerKind::Stencil => 1,
            ContainerKind::Reduce => 2,
            ContainerKind::Host => 3,
        });
        // Fusion merges only containers on one grid, and temporal blocking
        // needs the ghost depth: a rebind must be able to rebuild both.
        let grid_role =
            grid(c).and_then(|g| containers[..=i].iter().position(|d| grid(d) == Some(g)));
        h.write_u64(grid_role.map_or(u64::MAX, |r| r as u64));
        h.write_u64(c.space().map_or(0, |s| s.ghost_capacity()) as u64);
        h.write_u64(c.accesses().len() as u64);
        for a in c.accesses() {
            let role = roles.role(a.uid).expect("roles cover the sequence");
            h.write_u64(role as u64);
            h.write_u8(u8::from(a.mode.reads()) | (u8::from(a.mode.writes()) << 1));
            h.write_u8(match a.pattern {
                ComputePattern::Map => 0,
                ComputePattern::Stencil => 1,
                ComputePattern::Reduce => 2,
            });
            let live = |x: &Option<std::sync::Arc<dyn crate::HaloExchange>>| {
                x.as_ref().is_some_and(|x| x.has_transfers())
            };
            h.write_u8(u8::from(live(&a.halo)) | (u8::from(live(&a.field_exchange)) << 1));
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::cell::{Cell, DataView, IterationSpace, Span, Sweep};
    use crate::memset::{MemSet, StorageMode};
    use neon_sys::{Backend, DeviceId};

    struct Line {
        len: u32,
        devs: usize,
    }

    impl IterationSpace for Line {
        fn num_partitions(&self) -> usize {
            self.devs
        }
        fn cell_count(&self, _d: DeviceId, view: DataView) -> u64 {
            match view {
                DataView::Standard => self.len as u64,
                DataView::Internal => self.len as u64 - 2,
                DataView::Boundary => 2,
            }
        }
        fn for_each_span(&self, dev: DeviceId, sweep: Sweep, f: &mut dyn FnMut(&Span)) {
            let base = dev.0 as i32 * self.len as i32;
            let mut run =
                |a: u32, b: u32| f(&Span::new(Cell::new(a, base + a as i32, 0, 0), b - a));
            match sweep.region.owned_view() {
                DataView::Standard => run(0, self.len),
                DataView::Internal => run(1, self.len - 1),
                DataView::Boundary => {
                    run(0, 1);
                    run(self.len - 1, self.len);
                }
            }
        }
    }

    fn axpy_like(b: &Backend, len: usize) -> Vec<Container> {
        let space = Arc::new(Line {
            len: len as u32,
            devs: b.num_devices(),
        }) as Arc<dyn IterationSpace>;
        let x = MemSet::<f64>::new(b, "x", &[len, len], StorageMode::Real).unwrap();
        let y = MemSet::<f64>::new(b, "y", &[len, len], StorageMode::Real).unwrap();
        let (xc, yc) = (x.clone(), y.clone());
        vec![Container::compute("axpy", space, move |ldr| {
            let xv = ldr.read(&xc);
            let yv = ldr.read_write(&yc);
            Box::new(move |cell: Cell| yv.set(cell.idx(), xv.get(cell.idx())))
        })]
    }

    #[test]
    fn same_shape_same_signature_despite_fresh_uids() {
        let b = Backend::dgx_a100(2);
        let s1 = sequence_signature(&axpy_like(&b, 8));
        let s2 = sequence_signature(&axpy_like(&b, 8));
        assert_eq!(s1, s2, "fresh uids must not change the signature");
    }

    #[test]
    fn grid_size_does_not_change_signature() {
        let b = Backend::dgx_a100(2);
        assert_eq!(
            sequence_signature(&axpy_like(&b, 8)),
            sequence_signature(&axpy_like(&b, 64))
        );
    }

    #[test]
    fn name_and_structure_change_signature() {
        let b = Backend::dgx_a100(2);
        let base = sequence_signature(&axpy_like(&b, 8));

        let space = Arc::new(Line { len: 8, devs: 2 }) as Arc<dyn IterationSpace>;
        let x = MemSet::<f64>::new(&b, "x", &[8, 8], StorageMode::Real).unwrap();
        let y = MemSet::<f64>::new(&b, "y", &[8, 8], StorageMode::Real).unwrap();
        let (xc, yc) = (x.clone(), y.clone());
        let renamed = vec![Container::compute("copy", space.clone(), {
            let (xc, yc) = (xc.clone(), yc.clone());
            move |ldr| {
                let xv = ldr.read(&xc);
                let yv = ldr.read_write(&yc);
                Box::new(move |cell: Cell| yv.set(cell.idx(), xv.get(cell.idx())))
            }
        })];
        assert_ne!(base, sequence_signature(&renamed));

        // Same names, but y is now read-only and x written: different roles.
        let swapped = vec![Container::compute("axpy", space, move |ldr| {
            let yv = ldr.read(&yc);
            let xv = ldr.read_write(&xc);
            Box::new(move |cell: Cell| xv.set(cell.idx(), yv.get(cell.idx())))
        })];
        // Structurally identical (read first, read-write second) — roles are
        // positional, so this *should* collide with the base signature.
        assert_eq!(base, sequence_signature(&swapped));
    }

    #[test]
    fn uid_roles_are_first_occurrence_order() {
        let b = Backend::dgx_a100(2);
        let seq = axpy_like(&b, 8);
        let roles = uid_roles(&seq);
        let accs = seq[0].accesses();
        assert_eq!(roles.role(accs[0].uid), Some(0));
        assert_eq!(roles.role(accs[1].uid), Some(1));
        assert_eq!(roles.uid(1), Some(accs[1].uid));
    }
}
