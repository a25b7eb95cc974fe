//! The `GridLike` trait — the contract between grids, fields and kernels.
//!
//! A grid is the blueprint of the computational layout (paper §III): it
//! owns the domain extent, the sparsity pattern, the partitioning over
//! devices and the data-view classification (internal / boundary). Fields
//! are created *from* a grid and inherit all of this; containers are
//! created from a grid's iteration space.
//!
//! Both provided grids partition the Cartesian domain along **z only**
//! (paper §IV-C2: with few GPUs per node, 1-D slabs mean each device talks
//! to at most two neighbours, and boundary cells land in contiguous
//! memory segments so halo updates need no marshaling).

use std::fmt;
use std::sync::Arc;

use neon_set::{Cell, DataView, Elem, IterationSpace, MemSet, StorageMode};
use neon_sys::{Backend, DeviceId};

use crate::layout::MemLayout;
use crate::stencil::Offset3;
use crate::view::{FieldStencil, HaloSegment};

/// Extent of a 3-D rectilinear domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim3 {
    /// Cells along x.
    pub x: usize,
    /// Cells along y.
    pub y: usize,
    /// Cells along z (the partition axis).
    pub z: usize,
}

impl Dim3 {
    /// Construct an extent.
    pub const fn new(x: usize, y: usize, z: usize) -> Self {
        Dim3 { x, y, z }
    }

    /// Cubic extent `n³`.
    pub const fn cube(n: usize) -> Self {
        Dim3 { x: n, y: n, z: n }
    }

    /// Total number of cells.
    pub fn count(&self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }

    /// Whether `(x, y, z)` lies inside the extent.
    #[inline]
    pub fn contains(&self, x: i32, y: i32, z: i32) -> bool {
        x >= 0
            && y >= 0
            && z >= 0
            && (x as usize) < self.x
            && (y as usize) < self.y
            && (z as usize) < self.z
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.x, self.y, self.z)
    }
}

/// The storage a field hands to its grid's view factories.
pub struct FieldParts<T: Elem> {
    /// Per-device buffers.
    pub mem: MemSet<T>,
    /// Number of components.
    pub card: usize,
    /// Component layout.
    pub layout: MemLayout,
    /// Outside-domain value returned by stencil reads that leave the
    /// active domain.
    pub outside: T,
}

/// The grid interface: domain geometry, partitioning, views and halos.
pub trait GridLike: Clone + Send + Sync + Sized + 'static {
    /// Concrete neighbourhood read view. Cell-local read and write views
    /// are the same on every grid: [`crate::PartRead`] and
    /// [`crate::PartWrite`].
    type StencilView<T: Elem>: FieldStencil<T> + Send + 'static;

    /// The backend this grid is distributed over.
    fn backend(&self) -> &Backend;

    /// Domain extent.
    fn dim(&self) -> Dim3;

    /// Real or virtual (timing-only) storage.
    fn storage_mode(&self) -> StorageMode;

    /// Number of partitions (= devices).
    fn num_partitions(&self) -> usize;

    /// Halo radius in z-layers (max |dz| over registered stencils).
    fn radius(&self) -> usize;

    /// Number of active cells in the whole domain.
    fn active_cells(&self) -> u64;

    /// Number of cells device `dev` owns in `view`.
    fn owned_cells(&self, dev: DeviceId, view: DataView) -> u64;

    /// Per-component storage length of device `dev` (owned + halo cells).
    fn alloc_len(&self, dev: DeviceId) -> usize;

    /// This grid as a container iteration space.
    fn as_space(&self) -> Arc<dyn IterationSpace>;

    /// The union of registered stencil offsets, in slot order.
    fn union_offsets(&self) -> &[Offset3];

    /// The slot of `offset` in the union, if registered.
    fn slot_of(&self, offset: Offset3) -> Option<usize> {
        self.union_offsets().iter().position(|&o| o == offset)
    }

    /// Extra bytes a stencil access moves per cell beyond the field data
    /// itself (e.g. the sparse grid's connectivity-table traffic).
    fn stencil_extra_bytes_per_cell(&self) -> u64;

    /// The halo transfers one update of a `card`-component field with
    /// `layout` performs.
    fn halo_segments(&self, card: usize, layout: MemLayout) -> Vec<HaloSegment>;

    /// Ghost layers each partition *allocates* per neighbouring side. At
    /// least [`GridLike::radius`]; grids built for temporal blocking
    /// allocate `k·radius` so one deep exchange can stage `k` iterations'
    /// worth of ghost data.
    fn halo_capacity(&self) -> usize {
        self.radius()
    }

    /// The halo transfers refreshing `depth` ghost layers per side (the
    /// deepened form of [`GridLike::halo_segments`]). Grids whose
    /// allocation is fixed at `radius` only support `depth == radius`;
    /// capacity-aware grids override this for any `depth <=
    /// halo_capacity()`.
    fn halo_segments_depth(
        &self,
        card: usize,
        layout: MemLayout,
        depth: usize,
    ) -> Vec<HaloSegment> {
        assert!(
            depth == self.radius(),
            "grid only supports halo exchanges at its stencil radius ({}), not depth {depth}",
            self.radius()
        );
        self.halo_segments(card, layout)
    }

    /// Enumerate the ghost cells exactly `level` layers outside device
    /// `dev`'s owned region (level 1 = the innermost ghost ring). Temporal
    /// blocking recomputes rings `1..=(k-1)·radius`; diagnostics and tests
    /// use this to address individual rings. Grids without addressable
    /// ghost storage enumerate nothing.
    fn for_each_ghost_ring(&self, dev: DeviceId, level: usize, f: &mut dyn FnMut(Cell)) {
        let _ = (dev, level, f);
    }

    /// Locate the partition and local linear index of an active cell
    /// (`None` if outside the domain or inactive). Host-side only.
    fn locate(&self, x: i32, y: i32, z: i32) -> Option<(DeviceId, u32)>;

    /// Iterate device `dev`'s owned cells (host-side fills/verification).
    fn for_each_owned(&self, dev: DeviceId, f: &mut dyn FnMut(Cell));

    /// Build a stencil view of `parts` for `dev` (`null` during dry runs).
    fn make_stencil_view<T: Elem>(
        &self,
        parts: &FieldParts<T>,
        dev: DeviceId,
        null: bool,
    ) -> Self::StencilView<T>;
}

/// Split `total` z-layers into `parts` contiguous, balanced slabs.
///
/// Earlier slabs get the remainder layer, matching the paper's
/// load-balanced 1-D decomposition.
pub fn slab_partition(total: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts > 0, "need at least one partition");
    assert!(
        total >= parts,
        "cannot split {total} z-layers over {parts} devices"
    );
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut z = 0;
    for p in 0..parts {
        let nz = base + usize::from(p < extra);
        out.push((z, z + nz));
        z += nz;
    }
    debug_assert_eq!(z, total);
    out
}

/// Split `total` z-layers proportionally to `shares` (e.g. relative
/// device throughputs on a heterogeneous backend — the paper's §VII
/// future-work direction), largest-remainder rounded, every slab ≥ 1.
pub fn proportional_slab_partition(total: usize, shares: &[f64]) -> Vec<(usize, usize)> {
    let parts = shares.len();
    assert!(parts > 0, "need at least one partition");
    assert!(
        total >= parts,
        "cannot split {total} z-layers over {parts} devices"
    );
    assert!(shares.iter().all(|&s| s > 0.0), "shares must be positive");
    let sum: f64 = shares.iter().sum();
    // Start everyone at 1 layer, distribute the rest by largest remainder.
    let mut sizes = vec![1usize; parts];
    let mut remaining = total - parts;
    let ideal: Vec<f64> = shares.iter().map(|s| s / sum * total as f64).collect();
    while remaining > 0 {
        let (best, _) = ideal
            .iter()
            .enumerate()
            .map(|(i, &want)| (i, want - sizes[i] as f64))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        sizes[best] += 1;
        remaining -= 1;
    }
    let mut out = Vec::with_capacity(parts);
    let mut z = 0;
    for nz in sizes {
        out.push((z, z + nz));
        z += nz;
    }
    debug_assert_eq!(z, total);
    out
}

/// Split z-layers so that each slab holds a near-equal share of `weights`
/// (per-layer active cell counts) — the sparse grid's load balancing.
pub fn weighted_slab_partition(weights: &[u64], parts: usize) -> Vec<(usize, usize)> {
    assert!(parts > 0, "need at least one partition");
    assert!(
        weights.len() >= parts,
        "cannot split {} z-layers over {parts} devices",
        weights.len()
    );
    let total: u64 = weights.iter().sum();
    let mut out = Vec::with_capacity(parts);
    let mut z = 0usize;
    let mut acc = 0u64;
    for p in 0..parts {
        let z0 = z;
        let target = total * (p as u64 + 1) / parts as u64;
        // Ensure every remaining partition can still get ≥1 layer.
        let max_z1 = weights.len() - (parts - 1 - p);
        while z < max_z1 && (acc < target || z == z0) {
            acc += weights[z];
            z += 1;
            // Stop early if taking more layers would starve the balance:
            if acc >= target && z > z0 {
                break;
            }
        }
        if p == parts - 1 {
            z = weights.len();
        }
        out.push((z0, z.max(z0 + 1)));
        z = z.max(z0 + 1);
    }
    // Normalize: the loop guarantees monotone non-empty ranges covering all.
    out.last_mut().unwrap().1 = weights.len();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_basics() {
        let d = Dim3::new(4, 5, 6);
        assert_eq!(d.count(), 120);
        assert!(d.contains(0, 0, 0));
        assert!(d.contains(3, 4, 5));
        assert!(!d.contains(4, 0, 0));
        assert!(!d.contains(-1, 0, 0));
        assert_eq!(Dim3::cube(8), Dim3::new(8, 8, 8));
        assert_eq!(format!("{d}"), "4x5x6");
    }

    #[test]
    fn slab_partition_covers_exactly() {
        for (total, parts) in [(64, 8), (65, 8), (71, 8), (10, 3), (8, 8)] {
            let slabs = slab_partition(total, parts);
            assert_eq!(slabs.len(), parts);
            assert_eq!(slabs[0].0, 0);
            assert_eq!(slabs.last().unwrap().1, total);
            for w in slabs.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            let sizes: Vec<usize> = slabs.iter().map(|(a, b)| b - a).collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1, "balanced: {sizes:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn slab_partition_rejects_too_many_parts() {
        slab_partition(4, 8);
    }

    #[test]
    fn weighted_partition_balances_active_cells() {
        // All weight in the first half: partitions should crowd there.
        let mut weights = vec![100u64; 32];
        weights.extend(vec![1u64; 32]);
        let slabs = weighted_slab_partition(&weights, 4);
        assert_eq!(slabs.len(), 4);
        assert_eq!(slabs[0].0, 0);
        assert_eq!(slabs.last().unwrap().1, 64);
        for w in slabs.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        let loads: Vec<u64> = slabs
            .iter()
            .map(|&(a, b)| weights[a..b].iter().sum())
            .collect();
        let total: u64 = weights.iter().sum();
        let ideal = total / 4;
        for l in &loads {
            assert!(
                *l <= ideal * 2,
                "load {l} too far from ideal {ideal}: {loads:?}"
            );
        }
    }

    #[test]
    fn weighted_partition_uniform_equals_slab() {
        let weights = vec![10u64; 64];
        let w = weighted_slab_partition(&weights, 8);
        let s = slab_partition(64, 8);
        assert_eq!(w, s);
    }

    #[test]
    fn weighted_partition_every_slab_nonempty() {
        let weights = vec![0u64, 0, 0, 1000, 0, 0, 0, 0];
        let slabs = weighted_slab_partition(&weights, 4);
        for (a, b) in slabs {
            assert!(b > a, "empty slab");
        }
    }
}
