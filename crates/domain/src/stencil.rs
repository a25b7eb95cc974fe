//! Stencil shapes.
//!
//! A [`Stencil`] is an ordered list of neighbour offsets. Grids register
//! the stencils an application will use at construction time (paper
//! §IV-C1: "Neon determines which cells are boundary or internal based on
//! the user-provided stencils at initialization"); the union of all
//! registered offsets determines the halo radius and, for sparse grids,
//! the connectivity table width.

use std::fmt;

/// A relative cell offset `(dx, dy, dz)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Offset3 {
    /// x displacement.
    pub dx: i32,
    /// y displacement.
    pub dy: i32,
    /// z displacement.
    pub dz: i32,
}

impl Offset3 {
    /// Construct an offset.
    pub const fn new(dx: i32, dy: i32, dz: i32) -> Self {
        Offset3 { dx, dy, dz }
    }

    /// The zero offset.
    pub const ZERO: Offset3 = Offset3::new(0, 0, 0);

    /// Chebyshev radius (max absolute component).
    pub fn radius(&self) -> usize {
        self.dx
            .unsigned_abs()
            .max(self.dy.unsigned_abs())
            .max(self.dz.unsigned_abs()) as usize
    }

    /// The opposite offset.
    pub fn opposite(&self) -> Offset3 {
        Offset3::new(-self.dx, -self.dy, -self.dz)
    }
}

impl fmt::Display for Offset3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{},{})", self.dx, self.dy, self.dz)
    }
}

/// An ordered set of neighbour offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stencil {
    name: String,
    offsets: Vec<Offset3>,
}

impl Stencil {
    /// Build from explicit offsets (order is preserved; it defines the
    /// neighbour *slots* kernels index with).
    pub fn new(name: &str, offsets: Vec<Offset3>) -> Self {
        assert!(!offsets.is_empty(), "stencil must have at least one offset");
        Stencil {
            name: name.to_string(),
            offsets,
        }
    }

    /// Name of the stencil.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The offsets, in slot order.
    pub fn offsets(&self) -> &[Offset3] {
        &self.offsets
    }

    /// Number of neighbour slots.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// Whether the stencil is empty (never for a valid stencil).
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// Halo radius required by this stencil (max |dz|, the partition axis;
    /// x/y extents stay within a slab partition).
    pub fn z_radius(&self) -> usize {
        self.offsets
            .iter()
            .map(|o| o.dz.unsigned_abs() as usize)
            .max()
            .unwrap_or(0)
    }

    /// Chebyshev radius over all axes.
    pub fn radius(&self) -> usize {
        self.offsets.iter().map(|o| o.radius()).max().unwrap_or(0)
    }

    /// The slot of `offset`, if present.
    pub fn slot_of(&self, offset: Offset3) -> Option<usize> {
        self.offsets.iter().position(|&o| o == offset)
    }

    /// The classic 7-point (von Neumann) Laplacian stencil: the six face
    /// neighbours. The centre cell is addressed directly, not via a slot.
    pub fn seven_point() -> Self {
        Stencil::new(
            "7-point",
            vec![
                Offset3::new(-1, 0, 0),
                Offset3::new(1, 0, 0),
                Offset3::new(0, -1, 0),
                Offset3::new(0, 1, 0),
                Offset3::new(0, 0, -1),
                Offset3::new(0, 0, 1),
            ],
        )
    }

    /// The 27-point (Moore) stencil: all neighbours in the 3³ cube,
    /// including the centre (slot 13), in z-major order — the layout
    /// finite-element kernels expect.
    pub fn twenty_seven_point() -> Self {
        let mut offsets = Vec::with_capacity(27);
        for dz in -1..=1 {
            for dy in -1..=1 {
                for dx in -1..=1 {
                    offsets.push(Offset3::new(dx, dy, dz));
                }
            }
        }
        Stencil::new("27-point", offsets)
    }

    /// The D3Q19 lattice of the Lattice-Boltzmann method: the rest
    /// direction plus 18 neighbours (6 faces + 12 edges). Slot order
    /// follows the conventional D3Q19 velocity-set enumeration.
    pub fn d3q19() -> Self {
        Stencil::new("D3Q19", D3Q19_OFFSETS.to_vec())
    }

    /// The D2Q9 lattice (2-D LBM): rest + 8 neighbours in the z=0 plane.
    pub fn d2q9() -> Self {
        Stencil::new("D2Q9", D2Q9_OFFSETS.to_vec())
    }

    /// A star stencil of radius `r`: `±1..±r` along each axis (the shape
    /// of higher-order finite differences, e.g. `r = 2` for 4th order).
    pub fn star(r: usize) -> Self {
        assert!(r >= 1, "star stencil needs radius >= 1");
        let r = r as i32;
        let mut offsets = Vec::with_capacity(6 * r as usize);
        for d in 1..=r {
            offsets.push(Offset3::new(-d, 0, 0));
            offsets.push(Offset3::new(d, 0, 0));
            offsets.push(Offset3::new(0, -d, 0));
            offsets.push(Offset3::new(0, d, 0));
            offsets.push(Offset3::new(0, 0, -d));
            offsets.push(Offset3::new(0, 0, d));
        }
        Stencil::new(&format!("star-{r}"), offsets)
    }

    /// The 5-point stencil in the z=0 plane (2-D Laplacian).
    pub fn five_point_2d() -> Self {
        Stencil::new(
            "5-point-2d",
            vec![
                Offset3::new(-1, 0, 0),
                Offset3::new(1, 0, 0),
                Offset3::new(0, -1, 0),
                Offset3::new(0, 1, 0),
            ],
        )
    }
}

/// The D3Q19 velocity set, slot `q` ↔ `D3Q19_OFFSETS[q]`.
pub const D3Q19_OFFSETS: [Offset3; 19] = [
    Offset3::new(0, 0, 0),
    Offset3::new(1, 0, 0),
    Offset3::new(-1, 0, 0),
    Offset3::new(0, 1, 0),
    Offset3::new(0, -1, 0),
    Offset3::new(0, 0, 1),
    Offset3::new(0, 0, -1),
    Offset3::new(1, 1, 0),
    Offset3::new(-1, -1, 0),
    Offset3::new(1, -1, 0),
    Offset3::new(-1, 1, 0),
    Offset3::new(1, 0, 1),
    Offset3::new(-1, 0, -1),
    Offset3::new(1, 0, -1),
    Offset3::new(-1, 0, 1),
    Offset3::new(0, 1, 1),
    Offset3::new(0, -1, -1),
    Offset3::new(0, 1, -1),
    Offset3::new(0, -1, 1),
];

/// The D2Q9 velocity set, slot `q` ↔ `D2Q9_OFFSETS[q]`.
pub const D2Q9_OFFSETS: [Offset3; 9] = [
    Offset3::new(0, 0, 0),
    Offset3::new(1, 0, 0),
    Offset3::new(0, 1, 0),
    Offset3::new(-1, 0, 0),
    Offset3::new(0, -1, 0),
    Offset3::new(1, 1, 0),
    Offset3::new(-1, 1, 0),
    Offset3::new(-1, -1, 0),
    Offset3::new(1, -1, 0),
];

/// [`D3Q19_OFFSETS`] by value.
#[inline]
pub fn d3q19_offsets() -> [Offset3; 19] {
    D3Q19_OFFSETS
}

/// [`D2Q9_OFFSETS`] by value.
#[inline]
pub fn d2q9_offsets() -> [Offset3; 9] {
    D2Q9_OFFSETS
}

/// The three components of a velocity set as `f64` rows `[x, y, z]`, for
/// `const` tables: lattice kernels multiply by them once per direction
/// per cell.
pub const fn velocity_components<const Q: usize>(offsets: &[Offset3; Q]) -> [[f64; Q]; 3] {
    let mut c = [[0.0; Q]; 3];
    let mut q = 0;
    while q < Q {
        c[0][q] = offsets[q].dx as f64;
        c[1][q] = offsets[q].dy as f64;
        c[2][q] = offsets[q].dz as f64;
        q += 1;
    }
    c
}

/// Union of several stencils' offsets, preserving first-occurrence order
/// (so a single registered stencil keeps its slot numbering verbatim).
pub fn union_offsets(stencils: &[&Stencil]) -> Vec<Offset3> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for s in stencils {
        for &o in s.offsets() {
            if seen.insert(o) {
                out.push(o);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seven_point_shape() {
        let s = Stencil::seven_point();
        assert_eq!(s.len(), 6);
        assert_eq!(s.z_radius(), 1);
        assert_eq!(s.radius(), 1);
        assert!(s.slot_of(Offset3::ZERO).is_none());
    }

    #[test]
    fn twenty_seven_point_contains_centre() {
        let s = Stencil::twenty_seven_point();
        assert_eq!(s.len(), 27);
        assert_eq!(s.slot_of(Offset3::ZERO), Some(13));
    }

    #[test]
    fn d3q19_has_19_unique_offsets_with_opposites() {
        let s = Stencil::d3q19();
        assert_eq!(s.len(), 19);
        let set: std::collections::HashSet<_> = s.offsets().iter().collect();
        assert_eq!(set.len(), 19);
        // Every non-rest direction has its opposite in the set.
        for o in s.offsets().iter().skip(1) {
            assert!(s.slot_of(o.opposite()).is_some(), "missing opposite of {o}");
        }
        // No offset exceeds radius 1 and none moves along all three axes.
        for o in s.offsets() {
            assert!(o.radius() <= 1);
            assert!(o.dx.abs() + o.dy.abs() + o.dz.abs() <= 2);
        }
    }

    #[test]
    fn d2q9_is_planar() {
        let s = Stencil::d2q9();
        assert_eq!(s.len(), 9);
        assert!(s.offsets().iter().all(|o| o.dz == 0));
        assert_eq!(s.z_radius(), 0);
    }

    #[test]
    fn union_preserves_first_stencil_slots() {
        let a = Stencil::d3q19();
        let b = Stencil::seven_point();
        let u = union_offsets(&[&a, &b]);
        assert_eq!(&u[..19], a.offsets());
        // 7-point offsets are all contained in D3Q19.
        assert_eq!(u.len(), 19);
    }

    #[test]
    fn union_appends_new_offsets() {
        let a = Stencil::seven_point();
        let b = Stencil::twenty_seven_point();
        let u = union_offsets(&[&a, &b]);
        assert_eq!(u.len(), 27);
        assert_eq!(&u[..6], a.offsets());
    }

    #[test]
    fn opposite_round_trip() {
        let o = Offset3::new(1, -1, 0);
        assert_eq!(o.opposite().opposite(), o);
    }

    #[test]
    #[should_panic(expected = "at least one offset")]
    fn empty_stencil_rejected() {
        Stencil::new("empty", vec![]);
    }

    #[test]
    fn star_radius_two() {
        let s = Stencil::star(2);
        assert_eq!(s.len(), 12);
        assert_eq!(s.z_radius(), 2);
        assert_eq!(s.radius(), 2);
        assert!(s.slot_of(Offset3::new(0, 0, 2)).is_some());
        assert!(s.slot_of(Offset3::new(1, 1, 0)).is_none());
    }

    #[test]
    fn star_one_equals_seven_point_set() {
        let a: std::collections::HashSet<_> = Stencil::star(1).offsets().iter().copied().collect();
        let b: std::collections::HashSet<_> =
            Stencil::seven_point().offsets().iter().copied().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn five_point_is_planar() {
        let s = Stencil::five_point_2d();
        assert_eq!(s.len(), 4);
        assert_eq!(s.z_radius(), 0);
    }
}
