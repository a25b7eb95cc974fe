//! `Field<T, G>` — physical quantities on a grid.
//!
//! A field stores `card` components of type `T` per active cell of its
//! grid (paper §III, Listing 1). It is created *from* a grid and inherits
//! its partitioning, data views and halo structure. The component layout
//! (SoA / AoS) and the outside-domain value are field properties; neither
//! affects user computation code.
//!
//! `Field` implements [`Loadable`], so loading it through a container's
//! [`neon_set::Loader`] records the access for dependency analysis, and
//! its [`HaloExchange`] implementation gives the Skeleton everything
//! needed to insert halo-update nodes before stencil launches.

use std::sync::Arc;

use neon_set::{DataUid, Elem, HaloDescriptor, HaloExchange, Loadable, MemSet};
use neon_sys::{DeviceId, Result};

use crate::grid::{FieldParts, GridLike};
use crate::layout::MemLayout;
use crate::view::{HaloSegment, PartRead, PartWrite, Stride as _, Strides};

/// A scalar or vector quantity over a grid's active cells.
pub struct Field<T: Elem, G: GridLike> {
    grid: G,
    parts: Arc<FieldParts<T>>,
    halo: Option<Arc<FieldHalo<T>>>,
}

impl<T: Elem, G: GridLike> Clone for Field<T, G> {
    fn clone(&self) -> Self {
        Field {
            grid: self.grid.clone(),
            parts: self.parts.clone(),
            halo: self.halo.clone(),
        }
    }
}

impl<T: Elem, G: GridLike> std::fmt::Debug for Field<T, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Field")
            .field("name", &self.parts.mem.name())
            .field("card", &self.parts.card)
            .field("layout", &self.parts.layout)
            .finish()
    }
}

impl<T: Elem, G: GridLike> Field<T, G> {
    /// Allocate a field of `card` components on `grid`.
    ///
    /// `outside` is the value stencil reads return beyond the active
    /// domain (paper Listing 1's `outsideDomainValue`).
    pub fn new(grid: &G, name: &str, card: usize, outside: T, layout: MemLayout) -> Result<Self> {
        assert!(card > 0, "cardinality must be positive");
        let sizes: Vec<usize> = (0..grid.num_partitions())
            .map(|d| grid.alloc_len(DeviceId(d)) * card)
            .collect();
        let mem = MemSet::new(grid.backend(), name, &sizes, grid.storage_mode())?;
        let segs = grid.halo_segments(card, layout);
        let parts = Arc::new(FieldParts {
            mem: mem.clone(),
            card,
            layout,
            outside,
        });
        let halo = if segs.is_empty() {
            None
        } else {
            let g = grid.clone();
            let capacity = grid.halo_capacity();
            let segs_at: SegsAtDepth =
                Arc::new(move |d: usize| g.halo_segments_depth(card, layout, d));
            Some(Arc::new(FieldHalo {
                mem,
                segs,
                depth: grid.radius(),
                capacity,
                segs_at,
            }))
        };
        Ok(Field {
            grid: grid.clone(),
            parts,
            halo,
        })
    }

    /// The grid this field lives on.
    pub fn grid(&self) -> &G {
        &self.grid
    }

    /// Field name.
    pub fn name(&self) -> &str {
        self.parts.mem.name()
    }

    /// Number of components per cell.
    pub fn card(&self) -> usize {
        self.parts.card
    }

    /// Component layout.
    pub fn layout(&self) -> MemLayout {
        self.parts.layout
    }

    /// The outside-domain value.
    pub fn outside_value(&self) -> T {
        self.parts.outside
    }

    /// Unique id (for dependency analysis and tests).
    pub fn uid(&self) -> DataUid {
        self.parts.mem.uid()
    }

    /// The field's halo exchange, if the grid is partitioned.
    pub fn halo(&self) -> Option<Arc<FieldHalo<T>>> {
        self.halo.clone()
    }

    /// Total device memory this field occupies, in bytes.
    pub fn bytes_allocated(&self) -> u64 {
        self.parts.mem.total_len() as u64 * T::BYTES
    }

    /// How the field's elements sit in partition `dev`'s storage.
    fn strides(&self, dev: DeviceId) -> Strides {
        Strides::new(self.parts.layout, self.parts.card, self.grid.alloc_len(dev))
    }

    fn locate_idx(&self, dev: DeviceId, lin: u32, comp: usize) -> usize {
        self.strides(dev).at(lin as usize, comp)
    }

    /// Host read of one component of one cell (None outside the active
    /// domain). Host-side only; requires real storage.
    pub fn get(&self, x: i32, y: i32, z: i32, comp: usize) -> Option<T> {
        let (dev, lin) = self.grid.locate(x, y, z)?;
        let idx = self.locate_idx(dev, lin, comp);
        Some(self.parts.mem.with_part(dev, |s| s[idx]))
    }

    /// Host write of one component of one cell. Returns false outside the
    /// active domain.
    pub fn set(&self, x: i32, y: i32, z: i32, comp: usize, v: T) -> bool {
        match self.grid.locate(x, y, z) {
            Some((dev, lin)) => {
                let idx = self.locate_idx(dev, lin, comp);
                self.parts.mem.with_part_mut(dev, |s| s[idx] = v);
                true
            }
            None => false,
        }
    }

    /// Fill every owned cell from `f(x, y, z, comp)`, then refresh halos.
    pub fn fill(&self, f: impl Fn(i32, i32, i32, usize) -> T) {
        let card = self.parts.card;
        for d in 0..self.grid.num_partitions() {
            let dev = DeviceId(d);
            let strides = self.strides(dev);
            self.parts.mem.with_part_mut(dev, |s| {
                self.grid.for_each_owned(dev, &mut |c| {
                    for comp in 0..card {
                        s[strides.at(c.idx(), comp)] = f(c.x, c.y, c.z, comp);
                    }
                });
            });
        }
        self.update_halos();
    }

    /// Visit every owned cell: `f(x, y, z, comp, value)`.
    pub fn for_each(&self, mut f: impl FnMut(i32, i32, i32, usize, T)) {
        let card = self.parts.card;
        for d in 0..self.grid.num_partitions() {
            let dev = DeviceId(d);
            let strides = self.strides(dev);
            self.parts.mem.with_part(dev, |s| {
                self.grid.for_each_owned(dev, &mut |c| {
                    for comp in 0..card {
                        f(c.x, c.y, c.z, comp, s[strides.at(c.idx(), comp)]);
                    }
                });
            });
        }
    }

    /// Manually run this field's halo exchange (the Skeleton does this
    /// automatically before stencil launches; tests and hand-rolled
    /// harnesses call it directly). Refreshes the field's *full* allocated
    /// ghost capacity, so fields on deep-halo grids start temporal
    /// super-steps with every stored ghost layer coherent.
    pub fn update_halos(&self) {
        if let Some(h) = &self.halo {
            match h.at_depth(h.capacity) {
                Some(deep) => deep.execute(),
                None => h.execute(),
            }
        }
    }
}

/// Paper-style field construction sugar (Listing 1: `grid.newField(...)`).
pub trait GridExt: GridLike {
    /// Allocate a `card`-component field of `T` on this grid.
    fn new_field<T: Elem>(
        &self,
        name: &str,
        card: usize,
        outside: T,
        layout: MemLayout,
    ) -> Result<Field<T, Self>> {
        Field::new(self, name, card, outside, layout)
    }
}

impl<G: GridLike> GridExt for G {}

/// Computes the transfer segments refreshing a given ghost depth —
/// captures the grid so [`FieldHalo`] stays generic over `T` only.
type SegsAtDepth = Arc<dyn Fn(usize) -> Vec<HaloSegment> + Send + Sync>;

/// The explicit-transfer halo coherency implementation (paper §IV-C2).
pub struct FieldHalo<T: Elem> {
    mem: MemSet<T>,
    segs: Vec<HaloSegment>,
    /// Ghost layers one round of *this* exchange refreshes.
    depth: usize,
    /// Ghost layers the field's allocation can hold per side.
    capacity: usize,
    segs_at: SegsAtDepth,
}

impl<T: Elem> FieldHalo<T> {
    /// The transfer segments (element granularity).
    pub fn segments(&self) -> &[HaloSegment] {
        &self.segs
    }

    /// Ghost layers the field's allocation can hold per side.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl<T: Elem> HaloExchange for FieldHalo<T> {
    fn data_uid(&self) -> DataUid {
        self.mem.uid()
    }

    fn data_name(&self) -> String {
        self.mem.name().to_string()
    }

    fn descriptors(&self) -> Vec<HaloDescriptor> {
        self.segs
            .iter()
            .map(|s| HaloDescriptor {
                src: s.src,
                dst: s.dst,
                bytes: s.len as u64 * T::BYTES,
            })
            .collect()
    }

    fn has_transfers(&self) -> bool {
        !self.segs.is_empty()
    }

    fn execute(&self) {
        for s in &self.segs {
            self.mem
                .copy_between(s.src, s.src_off, s.dst, s.dst_off, s.len);
        }
    }

    fn execute_for_dst(&self, dst: DeviceId) {
        // Lease-free: the parallel executor's event table orders this
        // against every conflicting access, and taking whole-partition
        // leases here would falsely reject the internal-kernel ∥ halo
        // overlap the schedule legitimately allows.
        for s in self.segs.iter().filter(|s| s.dst == dst) {
            self.mem
                .copy_between_untracked(s.src, s.src_off, s.dst, s.dst_off, s.len);
        }
    }

    fn depth(&self) -> usize {
        self.depth
    }

    fn at_depth(&self, depth: usize) -> Option<Arc<dyn HaloExchange>> {
        if depth == 0 || depth > self.capacity {
            return None;
        }
        if depth == self.depth {
            // Avoid recomputing segments for the common identity case.
            return Some(Arc::new(FieldHalo {
                mem: self.mem.clone(),
                segs: self.segs.clone(),
                depth,
                capacity: self.capacity,
                segs_at: self.segs_at.clone(),
            }));
        }
        Some(Arc::new(FieldHalo {
            mem: self.mem.clone(),
            segs: (self.segs_at)(depth),
            depth,
            capacity: self.capacity,
            segs_at: self.segs_at.clone(),
        }))
    }
}

impl<T: Elem, G: GridLike> Loadable for Field<T, G> {
    type ReadView = PartRead<T>;
    type StencilView = G::StencilView<T>;
    type WriteView = PartWrite<T>;

    fn data_uid(&self) -> DataUid {
        self.uid()
    }

    fn data_name(&self) -> String {
        self.name().to_string()
    }

    fn bytes_per_cell(&self) -> u64 {
        self.parts.card as u64 * T::BYTES
    }

    fn stencil_bytes_per_cell(&self) -> u64 {
        self.bytes_per_cell() + self.grid.stencil_extra_bytes_per_cell()
    }

    fn halo_exchange(&self) -> Option<Arc<dyn HaloExchange>> {
        self.halo.clone().map(|h| h as Arc<dyn HaloExchange>)
    }

    fn state_handle(&self) -> Option<Arc<dyn neon_set::StateHandle>> {
        // Checkpoint the backing MemSet: halo layers are captured along
        // with owned cells, so a restore needs no halo refresh.
        Some(Arc::new(self.parts.mem.clone()))
    }

    fn make_read_view(&self, dev: DeviceId, null: bool) -> Self::ReadView {
        PartRead::new(&self.grid, &self.parts, dev, null)
    }

    fn make_stencil_view(&self, dev: DeviceId, null: bool) -> Self::StencilView {
        self.grid.make_stencil_view(&self.parts, dev, null)
    }

    fn make_write_view(&self, dev: DeviceId, null: bool) -> Self::WriteView {
        PartWrite::new(&self.grid, &self.parts, dev, null)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseGrid;
    use crate::grid::Dim3;
    use crate::sparse::SparseGrid;
    use crate::stencil::Stencil;
    use crate::view::{FieldStencil as _, FieldWrite as _};
    use neon_set::{DataView, IterationSpace, Loader, Region, StorageMode, Sweep};
    use neon_sys::Backend;

    fn dense(n: usize) -> DenseGrid {
        let b = Backend::dgx_a100(n);
        let s = Stencil::seven_point();
        DenseGrid::new(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real).unwrap()
    }

    #[test]
    fn fill_and_get_round_trip() {
        let g = dense(2);
        let f = Field::<f64, _>::new(&g, "f", 2, 0.0, MemLayout::SoA).unwrap();
        f.fill(|x, y, z, c| (x + 10 * y + 100 * z) as f64 + c as f64 * 0.5);
        assert_eq!(f.get(1, 2, 3, 0), Some(321.0));
        assert_eq!(f.get(1, 2, 3, 1), Some(321.5));
        assert_eq!(f.get(1, 2, 7, 0), Some(721.0)); // second partition
        assert_eq!(f.get(4, 0, 0, 0), None); // outside
    }

    #[test]
    fn set_updates_single_cell() {
        let g = dense(2);
        let f = Field::<f64, _>::new(&g, "f", 1, 0.0, MemLayout::AoS).unwrap();
        assert!(f.set(2, 3, 5, 0, 9.0));
        assert_eq!(f.get(2, 3, 5, 0), Some(9.0));
        assert!(!f.set(0, 0, 99, 0, 1.0));
    }

    #[test]
    fn halo_update_makes_neighbour_data_visible() {
        let g = dense(2);
        let f = Field::<f64, _>::new(&g, "f", 1, -1.0, MemLayout::SoA).unwrap();
        f.fill(|_, _, z, _| z as f64);
        // Read across the partition edge (z=3 on dev0 reading z=4 on dev1)
        // via a stencil view; halo was refreshed by fill().
        let mut ldr = Loader::for_execution(DeviceId(0), 2, DataView::Standard);
        let sv = ldr.read_stencil(&f);
        let up = g.slot_of(crate::stencil::Offset3::new(0, 0, 1)).unwrap();
        let mut checked = 0;
        g.for_each_cell(DeviceId(0), DataView::Boundary, &mut |c| {
            assert_eq!(sv.ngh(c, up, 0), (c.z + 1) as f64);
            checked += 1;
        });
        assert_eq!(checked, 16);
    }

    #[test]
    fn stencil_outside_returns_default() {
        let g = dense(1);
        let f = Field::<f64, _>::new(&g, "f", 1, -7.5, MemLayout::SoA).unwrap();
        f.fill(|_, _, _, _| 1.0);
        let mut ldr = Loader::for_execution(DeviceId(0), 1, DataView::Standard);
        let sv = ldr.read_stencil(&f);
        let left = g.slot_of(crate::stencil::Offset3::new(-1, 0, 0)).unwrap();
        g.for_each_cell(DeviceId(0), DataView::Standard, &mut |c| {
            if c.x == 0 {
                assert_eq!(sv.ngh(c, left, 0), -7.5);
                assert!(!sv.ngh_active(c, left));
            } else {
                assert_eq!(sv.ngh(c, left, 0), 1.0);
            }
        });
    }

    #[test]
    fn halo_descriptor_bytes() {
        let g = dense(2);
        let f = Field::<f64, _>::new(&g, "f", 3, 0.0, MemLayout::SoA).unwrap();
        let h = f.halo().unwrap();
        let descs = h.descriptors();
        assert_eq!(descs.len(), 6); // 2 directions x 3 components
        for d in &descs {
            assert_eq!(d.bytes, 16 * 8); // one 4x4 layer of f64
        }
    }

    #[test]
    fn aos_and_soa_agree_through_host_api() {
        let g = dense(2);
        let a = Field::<f64, _>::new(&g, "a", 3, 0.0, MemLayout::SoA).unwrap();
        let b = Field::<f64, _>::new(&g, "b", 3, 0.0, MemLayout::AoS).unwrap();
        let f = |x: i32, y: i32, z: i32, c: usize| (x * 7 + y * 3 + z + c as i32) as f64;
        a.fill(f);
        b.fill(f);
        a.for_each(|x, y, z, c, v| {
            assert_eq!(b.get(x, y, z, c), Some(v));
        });
    }

    #[test]
    fn sparse_field_works_like_dense_on_full_mask() {
        let bk = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let dim = Dim3::new(4, 4, 8);
        let g = SparseGrid::new(&bk, dim, &[&s], |_, _, _| true, StorageMode::Real).unwrap();
        let f = Field::<f64, _>::new(&g, "f", 1, 0.0, MemLayout::SoA).unwrap();
        f.fill(|x, y, z, _| (x + y + z) as f64);
        assert_eq!(f.get(1, 1, 1, 0), Some(3.0));
        // Stencil read across partitions after fill's halo refresh.
        let mut ldr = Loader::for_execution(DeviceId(0), 2, DataView::Standard);
        let sv = ldr.read_stencil(&f);
        let up = g.slot_of(crate::stencil::Offset3::new(0, 0, 1)).unwrap();
        g.for_each_cell(DeviceId(0), DataView::Boundary, &mut |c| {
            assert_eq!(sv.ngh(c, up, 0), (c.x + c.y + c.z + 1) as f64);
        });
    }

    #[test]
    fn write_view_respects_layout() {
        let g = dense(1);
        let f = Field::<f64, _>::new(&g, "f", 2, 0.0, MemLayout::AoS).unwrap();
        {
            let mut ldr = Loader::for_execution(DeviceId(0), 1, DataView::Standard);
            let wv = ldr.write(&f);
            g.for_each_cell(DeviceId(0), DataView::Standard, &mut |c| {
                wv.set(c, 0, c.x as f64);
                wv.set(c, 1, c.y as f64);
            });
        }
        assert_eq!(f.get(3, 2, 1, 0), Some(3.0));
        assert_eq!(f.get(3, 2, 1, 1), Some(2.0));
    }

    #[test]
    fn stencil_bytes_include_sparse_connectivity() {
        let bk = Backend::dgx_a100(1);
        let s = Stencil::seven_point();
        let dim = Dim3::cube(4);
        let dense_g = DenseGrid::new(&bk, dim, &[&s], StorageMode::Real).unwrap();
        let sparse_g = SparseGrid::new(&bk, dim, &[&s], |_, _, _| true, StorageMode::Real).unwrap();
        let fd = Field::<f64, _>::new(&dense_g, "fd", 1, 0.0, MemLayout::SoA).unwrap();
        let fs = Field::<f64, _>::new(&sparse_g, "fs", 1, 0.0, MemLayout::SoA).unwrap();
        assert_eq!(fd.stencil_bytes_per_cell(), 8);
        assert_eq!(fs.stencil_bytes_per_cell(), 8 + 6 * 4);
    }

    #[test]
    fn deep_halo_exchange_fills_capacity() {
        let b = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let g = DenseGrid::with_halo_capacity(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real, 3)
            .unwrap();
        let f = Field::<f64, _>::new(&g, "f", 1, -1.0, MemLayout::SoA).unwrap();
        // fill() refreshes the *full* ghost capacity, so cell-local reads
        // of ghost cells 2 layers deep see the owner's values — the read
        // path a temporal super-step's rep 0 exercises.
        f.fill(|_, _, z, _| 10.0 * z as f64);
        let h = f.halo().unwrap();
        assert_eq!(h.capacity(), 3);
        assert_eq!(HaloExchange::depth(h.as_ref()), 1);
        let deep = h.at_depth(3).expect("capacity allows depth 3");
        assert_eq!(HaloExchange::depth(deep.as_ref()), 3);
        assert!(h.at_depth(4).is_none(), "beyond capacity");
        for dev in 0..2 {
            let mut ldr = Loader::for_execution(DeviceId(dev), 2, DataView::Standard);
            let rv = ldr.read(&f);
            let sweep = Sweep::map(Region::Expanded(2));
            g.for_each_span(DeviceId(dev), sweep, &mut |span| {
                for c in span.cells() {
                    assert_eq!(
                        crate::view::FieldRead::at(&rv, c, 0),
                        10.0 * c.z as f64,
                        "dev {dev} cell ({}, {}, {})",
                        c.x,
                        c.y,
                        c.z
                    );
                }
            });
        }
    }

    #[test]
    fn bytes_allocated_counts_all_partitions() {
        let g = dense(2);
        let f = Field::<f64, _>::new(&g, "f", 1, 0.0, MemLayout::SoA).unwrap();
        // Each device: 4x4 x (4 owned + 2 halo) layers = 96 cells x 8 B.
        assert_eq!(f.bytes_allocated(), 2 * 96 * 8);
    }
}
