//! Prebuilt BLAS-style containers with a unified interface for every grid
//! type (paper §III: "Neon also offers a set of well-optimized standard
//! BLAS operations (e.g., dot product) … to facilitate rapid
//! prototyping").
//!
//! All operations work on any cardinality and any grid implementing
//! [`GridLike`].
//!
//! Every operation here registers a **span-level** kernel: the `dyn` boundary is crossed once per row run,
//! and the body is a [`SpanBody`] over every operand's lanes. Vector
//! operands of one layout are looped over as contiguous
//! [runs](crate::Lanes::runs) — one flat run of `len·card` elements under
//! AoS, one row per component under SoA — so the loop is as plain at any
//! cardinality as a scalar one on `Soa<1>` lanes. A dot product does so
//! only on SoA rows, a block of cells at a time; its AoS cells are already
//! adjacent. Other operands go element by element, through the stride
//! [`span_kernel`] picks.
//!
//! The [`mod@reference`] module keeps the per-cell forms as the
//! bit-identity oracle; the two families visit cells and update reduction
//! partials in the identical order, so they must agree bit for bit
//! (enforced by proptests in `neon-core`).

use std::array::from_fn;

use neon_set::{Cell, Container, KernelFn, ScalarSet, ScalarView, Span};

use crate::field::Field;
use crate::grid::GridLike;
use crate::layout::MemLayout;
use crate::view::{
    span_kernel, FieldRead, FieldWrite, PartRead, PartWrite, SpanBody, Stride, Strides,
};

/// `dst[e] ← f(dst[e], [src[e]; N])` for every element `e` (cell ×
/// component) of a span — the body of every elementwise operation.
struct Update<F, const N: usize> {
    dst: PartWrite<f64>,
    srcs: [PartRead<f64>; N],
    f: F,
}

impl<F: Fn(f64, [f64; N]) -> f64, const N: usize> SpanBody for Update<F, N> {
    #[inline]
    fn span<S: Stride>(&mut self, span: &Span) {
        let mut d = self.dst.lanes_mut::<S>(span);
        let s = self.srcs.each_ref().map(|s| s.lanes::<S>(span));
        for i in 0..span.len() {
            for q in 0..d.card() {
                d.set(i, q, (self.f)(d.get(i, q), from_fn(|k| s[k].get(i, q))));
            }
        }
    }
}

impl<F: Fn(f64, [f64; N]) -> f64, const N: usize> Update<F, N> {
    /// The body over contiguous runs, for operands of one layout: their
    /// runs line up element for element.
    #[inline]
    fn runs(&mut self, span: &Span) {
        let mut d = self.dst.lanes_mut::<Strides>(span);
        let s = self.srcs.each_ref().map(|s| s.lanes::<Strides>(span));
        let mut ins: [_; N] = from_fn(|k| s[k].runs());
        for out in d.runs_mut() {
            let ins: [&[f64]; N] = from_fn(|k| &ins[k].next().expect("one layout")[..out.len()]);
            for (e, o) in out.iter_mut().enumerate() {
                *o = (self.f)(*o, from_fn(|k| ins[k][e]));
            }
        }
    }
}

/// Whether a kernel over `operands` loops over runs: vector fields of one
/// layout. A scalar span is one run already, which the typed `Soa<1>`
/// element loop indexes directly.
fn one_vector_layout(operands: impl IntoIterator<Item = Strides>) -> bool {
    let mut operands = operands.into_iter();
    let first = operands.next().expect("a kernel has operands");
    first.card() > 1 && operands.all(|s| s == first)
}

/// The span kernel of [`Update`].
fn update<const N: usize>(
    dst: PartWrite<f64>,
    srcs: [PartRead<f64>; N],
    f: impl Fn(f64, [f64; N]) -> f64 + Send + 'static,
) -> KernelFn {
    let operands = [dst.strides()]
        .into_iter()
        .chain(srcs.each_ref().map(|s| s.strides()));
    let runs = one_vector_layout(operands.clone());
    let mut body = Update { dst, srcs, f };
    if runs {
        KernelFn::spans(move |span| body.runs(span))
    } else {
        span_kernel::<1>(operands, body)
    }
}

/// `out ← Σ_i Σ_k x[i,k]·y[i,k]`, one per-cell product sum folded into the
/// device partial per cell, in ascending cell order: the per-cell
/// reference's floating-point association, so the two are bit-identical.
struct Dot {
    x: PartRead<f64>,
    y: PartRead<f64>,
    acc: ScalarView<f64>,
}

impl SpanBody for Dot {
    #[inline]
    fn span<S: Stride>(&mut self, span: &Span) {
        let (x, y) = (self.x.lanes::<S>(span), self.y.lanes::<S>(span));
        let mut partial = self.acc.get();
        for i in 0..span.len() {
            let mut s = 0.0;
            for q in 0..x.card() {
                s += x.get(i, q) * y.get(i, q);
            }
            partial += s;
        }
        self.acc.set(partial);
    }
}

/// Cells whose product sums [`Dot::rows`] builds at once.
const DOT_BLOCK: usize = 64;

impl Dot {
    /// The body over SoA rows, for `x` and `y` of one layout: a block of
    /// cells' sums gains its components in order, then folds in cell
    /// order.
    #[inline]
    fn rows(&mut self, span: &Span) {
        let (x, y) = (self.x.lanes::<Strides>(span), self.y.lanes::<Strides>(span));
        let mut partial = self.acc.get();
        for start in (0..span.len()).step_by(DOT_BLOCK) {
            let cells = start..span.len().min(start + DOT_BLOCK);
            let mut sums = [0.0; DOT_BLOCK];
            for (a, b) in x.runs().zip(y.runs()) {
                let rows = a[cells.clone()].iter().zip(&b[cells.clone()]);
                for (s, (a, b)) in sums.iter_mut().zip(rows) {
                    *s += a * b;
                }
            }
            for s in &sums[..cells.len()] {
                partial += s;
            }
        }
        self.acc.set(partial);
    }
}

/// `dst[i] ← v` for every component.
pub fn set_value<G: GridLike>(grid: &G, dst: &Field<f64, G>, v: f64) -> Container {
    let dst = dst.clone();
    Container::compute(
        &format!("set({})", dst.name()),
        grid.as_space(),
        move |ldr| update(ldr.write(&dst), [], move |_, []| v),
    )
}

/// `dst[i] ← src[i]`.
pub fn copy<G: GridLike>(grid: &G, src: &Field<f64, G>, dst: &Field<f64, G>) -> Container {
    assert_eq!(src.card(), dst.card(), "cardinality mismatch");
    let (src, dst) = (src.clone(), dst.clone());
    Container::compute(
        &format!("copy({}->{})", src.name(), dst.name()),
        grid.as_space(),
        move |ldr| {
            let s = ldr.read(&src);
            update(ldr.write(&dst), [s], |_, [s]| s)
        },
    )
}

/// `y[i] ← a·x[i] + y[i]` with a compile-time constant `a`.
pub fn axpy_const<G: GridLike>(
    grid: &G,
    a: f64,
    x: &Field<f64, G>,
    y: &Field<f64, G>,
) -> Container {
    assert_eq!(x.card(), y.card(), "cardinality mismatch");
    let (x, y) = (x.clone(), y.clone());
    Container::compute(
        &format!("axpy({},{})", x.name(), y.name()),
        grid.as_space(),
        move |ldr| {
            let xv = ldr.read(&x);
            update(ldr.read_write(&y), [xv], move |y, [x]| a * x + y)
        },
    )
}

/// `y[i] ← sign·alpha·x[i] + y[i]` where `alpha` is a host scalar read at
/// launch time (CG-style dynamic coefficients).
pub fn axpy_scalar<G: GridLike>(
    grid: &G,
    alpha: &ScalarSet<f64>,
    sign: f64,
    x: &Field<f64, G>,
    y: &Field<f64, G>,
) -> Container {
    assert_eq!(x.card(), y.card(), "cardinality mismatch");
    let (x, y, alpha) = (x.clone(), y.clone(), alpha.clone());
    Container::compute(
        &format!("axpy[{}]({},{})", alpha.name(), x.name(), y.name()),
        grid.as_space(),
        move |ldr| {
            let a = sign * ldr.scalar(&alpha);
            let xv = ldr.read(&x);
            update(ldr.read_write(&y), [xv], move |y, [x]| a * x + y)
        },
    )
}

/// `dst[i] ← a·dst[i]` with a constant `a`.
pub fn scale_const<G: GridLike>(grid: &G, a: f64, dst: &Field<f64, G>) -> Container {
    let dst = dst.clone();
    Container::compute(
        &format!("scale({})", dst.name()),
        grid.as_space(),
        move |ldr| update(ldr.read_write(&dst), [], move |d, []| a * d),
    )
}

/// `out ← Σ_i Σ_k x[i,k]·y[i,k]` (all components contribute), summed as
/// the per-cell reference sums it, so the two are bit-identical.
pub fn dot<G: GridLike>(
    grid: &G,
    x: &Field<f64, G>,
    y: &Field<f64, G>,
    out: &ScalarSet<f64>,
) -> Container {
    assert_eq!(x.card(), y.card(), "cardinality mismatch");
    let (x, y, out_c) = (x.clone(), y.clone(), out.clone());
    Container::compute(
        &format!("dot({},{})", x.name(), y.name()),
        grid.as_space(),
        move |ldr| {
            let (xv, yv) = (ldr.read(&x), ldr.read(&y));
            let operands = [xv.strides(), yv.strides()];
            let acc = ldr.reduce(&out_c);
            let mut body = Dot { x: xv, y: yv, acc };
            if one_vector_layout(operands) && x.layout() == MemLayout::SoA {
                KernelFn::spans(move |span| body.rows(span))
            } else {
                span_kernel::<1>(operands, body)
            }
        },
    )
}

/// `w[i] ← a·x[i] + b·y[i]` with constants (BLAS `waxpby`).
pub fn waxpby_const<G: GridLike>(
    grid: &G,
    a: f64,
    x: &Field<f64, G>,
    b: f64,
    y: &Field<f64, G>,
    w: &Field<f64, G>,
) -> Container {
    assert_eq!(x.card(), y.card(), "cardinality mismatch");
    assert_eq!(x.card(), w.card(), "cardinality mismatch");
    let (x, y, w) = (x.clone(), y.clone(), w.clone());
    Container::compute(
        &format!("waxpby({},{},{})", x.name(), y.name(), w.name()),
        grid.as_space(),
        move |ldr| {
            let (xv, yv) = (ldr.read(&x), ldr.read(&y));
            update(ldr.write(&w), [xv, yv], move |_, [x, y]| a * x + b * y)
        },
    )
}

/// `out ← Σ_i Σ_k x[i,k]²` — the squared L² norm (`dot(x, x)` with the
/// single-operand traffic of a BLAS `nrm2`).
pub fn norm2_sq<G: GridLike>(grid: &G, x: &Field<f64, G>, out: &ScalarSet<f64>) -> Container {
    dot(grid, x, x, out)
}

/// `dst[i] ← s·dst[i]` where `s` is a host scalar read at launch time.
pub fn scale_scalar<G: GridLike>(grid: &G, s: &ScalarSet<f64>, dst: &Field<f64, G>) -> Container {
    let (s, dst) = (s.clone(), dst.clone());
    Container::compute(
        &format!("scale[{}]({})", s.name(), dst.name()),
        grid.as_space(),
        move |ldr| {
            let a = ldr.scalar(&s);
            update(ldr.read_write(&dst), [], move |d, []| a * d)
        },
    )
}

/// The original per-cell forms of every operation above.
///
/// These are the bit-identity oracle for the span kernels: same container
/// names, same access records, same per-cell math — only the kernel's
/// dispatch form differs, so a program and its reference twin share one
/// compiled plan, and their results must be bit-for-bit equal.
pub mod reference {
    use super::*;

    /// Per-cell form of [`super::set_value`].
    pub fn set_value<G: GridLike>(grid: &G, dst: &Field<f64, G>, v: f64) -> Container {
        let dst = dst.clone();
        let card = dst.card();
        Container::compute(
            &format!("set({})", dst.name()),
            grid.as_space(),
            move |ldr| {
                let d = ldr.write(&dst);
                Box::new(move |c: Cell| {
                    for k in 0..card {
                        d.set(c, k, v);
                    }
                })
            },
        )
    }

    /// Per-cell form of [`super::copy`].
    pub fn copy<G: GridLike>(grid: &G, src: &Field<f64, G>, dst: &Field<f64, G>) -> Container {
        assert_eq!(src.card(), dst.card(), "cardinality mismatch");
        let (src, dst) = (src.clone(), dst.clone());
        let card = src.card();
        Container::compute(
            &format!("copy({}->{})", src.name(), dst.name()),
            grid.as_space(),
            move |ldr| {
                let s = ldr.read(&src);
                let d = ldr.write(&dst);
                Box::new(move |c: Cell| {
                    for k in 0..card {
                        d.set(c, k, s.at(c, k));
                    }
                })
            },
        )
    }

    /// Per-cell form of [`super::axpy_const`].
    pub fn axpy_const<G: GridLike>(
        grid: &G,
        a: f64,
        x: &Field<f64, G>,
        y: &Field<f64, G>,
    ) -> Container {
        assert_eq!(x.card(), y.card(), "cardinality mismatch");
        let (x, y) = (x.clone(), y.clone());
        let card = x.card();
        Container::compute(
            &format!("axpy({},{})", x.name(), y.name()),
            grid.as_space(),
            move |ldr| {
                let xv = ldr.read(&x);
                let yv = ldr.read_write(&y);
                Box::new(move |c: Cell| {
                    for k in 0..card {
                        yv.set(c, k, a * xv.at(c, k) + yv.at(c, k));
                    }
                })
            },
        )
    }

    /// Per-cell form of [`super::axpy_scalar`].
    pub fn axpy_scalar<G: GridLike>(
        grid: &G,
        alpha: &ScalarSet<f64>,
        sign: f64,
        x: &Field<f64, G>,
        y: &Field<f64, G>,
    ) -> Container {
        assert_eq!(x.card(), y.card(), "cardinality mismatch");
        let (x, y, alpha) = (x.clone(), y.clone(), alpha.clone());
        let card = x.card();
        Container::compute(
            &format!("axpy[{}]({},{})", alpha.name(), x.name(), y.name()),
            grid.as_space(),
            move |ldr| {
                let a = sign * ldr.scalar(&alpha);
                let xv = ldr.read(&x);
                let yv = ldr.read_write(&y);
                Box::new(move |c: Cell| {
                    for k in 0..card {
                        yv.set(c, k, a * xv.at(c, k) + yv.at(c, k));
                    }
                })
            },
        )
    }

    /// Per-cell form of [`super::scale_const`].
    pub fn scale_const<G: GridLike>(grid: &G, a: f64, dst: &Field<f64, G>) -> Container {
        let dst = dst.clone();
        let card = dst.card();
        Container::compute(
            &format!("scale({})", dst.name()),
            grid.as_space(),
            move |ldr| {
                let d = ldr.read_write(&dst);
                Box::new(move |c: Cell| {
                    for k in 0..card {
                        d.set(c, k, a * d.at(c, k));
                    }
                })
            },
        )
    }

    /// Per-cell form of [`super::dot`].
    pub fn dot<G: GridLike>(
        grid: &G,
        x: &Field<f64, G>,
        y: &Field<f64, G>,
        out: &ScalarSet<f64>,
    ) -> Container {
        assert_eq!(x.card(), y.card(), "cardinality mismatch");
        let (x, y, out_c) = (x.clone(), y.clone(), out.clone());
        let card = x.card();
        Container::compute(
            &format!("dot({},{})", x.name(), y.name()),
            grid.as_space(),
            move |ldr| {
                let xv = ldr.read(&x);
                let yv = ldr.read(&y);
                let acc = ldr.reduce(&out_c);
                Box::new(move |c: Cell| {
                    let mut s = 0.0;
                    for k in 0..card {
                        s += xv.at(c, k) * yv.at(c, k);
                    }
                    acc.update(|a| a + s);
                })
            },
        )
    }

    /// Per-cell form of [`super::waxpby_const`].
    pub fn waxpby_const<G: GridLike>(
        grid: &G,
        a: f64,
        x: &Field<f64, G>,
        b: f64,
        y: &Field<f64, G>,
        w: &Field<f64, G>,
    ) -> Container {
        assert_eq!(x.card(), y.card(), "cardinality mismatch");
        assert_eq!(x.card(), w.card(), "cardinality mismatch");
        let (x, y, w) = (x.clone(), y.clone(), w.clone());
        let card = x.card();
        Container::compute(
            &format!("waxpby({},{},{})", x.name(), y.name(), w.name()),
            grid.as_space(),
            move |ldr| {
                let xv = ldr.read(&x);
                let yv = ldr.read(&y);
                let wv = ldr.write(&w);
                Box::new(move |c: Cell| {
                    for k in 0..card {
                        wv.set(c, k, a * xv.at(c, k) + b * yv.at(c, k));
                    }
                })
            },
        )
    }

    /// Per-cell form of [`super::norm2_sq`].
    pub fn norm2_sq<G: GridLike>(grid: &G, x: &Field<f64, G>, out: &ScalarSet<f64>) -> Container {
        dot(grid, x, x, out)
    }

    /// Per-cell form of [`super::scale_scalar`].
    pub fn scale_scalar<G: GridLike>(
        grid: &G,
        s: &ScalarSet<f64>,
        dst: &Field<f64, G>,
    ) -> Container {
        let (s, dst) = (s.clone(), dst.clone());
        let card = dst.card();
        Container::compute(
            &format!("scale[{}]({})", s.name(), dst.name()),
            grid.as_space(),
            move |ldr| {
                let a = ldr.scalar(&s);
                let d = ldr.read_write(&dst);
                Box::new(move |c: Cell| {
                    for k in 0..card {
                        d.set(c, k, a * d.at(c, k));
                    }
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseGrid;
    use crate::grid::Dim3;
    use crate::stencil::Stencil;
    use neon_set::{ContainerKind, DataView, StorageMode};
    use neon_sys::{Backend, DeviceId};

    fn setup() -> (DenseGrid, Field<f64, DenseGrid>, Field<f64, DenseGrid>) {
        let b = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, 8), &[&s], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
        (g, x, y)
    }

    fn run_all(c: &Container, n_dev: usize) {
        if c.is_reduce() {
            c.reduce_init();
        }
        for d in 0..n_dev {
            c.run_device(DeviceId(d), DataView::Standard);
        }
        if c.is_reduce() {
            c.reduce_finalize();
        }
    }

    #[test]
    fn set_and_copy() {
        let (g, x, y) = setup();
        run_all(&set_value(&g, &x, 3.0), 2);
        run_all(&copy(&g, &x, &y), 2);
        y.for_each(|_, _, _, _, v| assert_eq!(v, 3.0));
    }

    #[test]
    fn reference_twins_share_the_sequence_signature() {
        let (g, x, y) = setup();
        let out = ScalarSet::<f64>::new(2, "dot", 0.0, |a, b| a + b);
        let span = [
            copy(&g, &x, &y),
            axpy_const(&g, 2.0, &x, &y),
            dot(&g, &x, &y, &out),
        ];
        let cell = [
            reference::copy(&g, &x, &y),
            reference::axpy_const(&g, 2.0, &x, &y),
            reference::dot(&g, &x, &y, &out),
        ];
        assert_eq!(
            neon_set::sequence_signature(&span),
            neon_set::sequence_signature(&cell),
            "same names and accesses: the dispatch form must not split the plan key"
        );
    }

    #[test]
    fn axpy_const_math() {
        let (g, x, y) = setup();
        x.fill(|_, _, _, _| 2.0);
        y.fill(|_, _, _, _| 1.0);
        run_all(&axpy_const(&g, 3.0, &x, &y), 2);
        y.for_each(|_, _, _, _, v| assert_eq!(v, 7.0));
    }

    #[test]
    fn axpy_scalar_reads_alpha_at_launch() {
        let (g, x, y) = setup();
        x.fill(|_, _, _, _| 1.0);
        y.fill(|_, _, _, _| 0.0);
        let alpha = ScalarSet::<f64>::new(2, "alpha", 0.0, |a, b| a + b);
        let c = axpy_scalar(&g, &alpha, -1.0, &x, &y);
        alpha.set_host(4.0);
        run_all(&c, 2);
        y.for_each(|_, _, _, _, v| assert_eq!(v, -4.0));
        alpha.set_host(1.0);
        run_all(&c, 2);
        y.for_each(|_, _, _, _, v| assert_eq!(v, -5.0));
    }

    #[test]
    fn dot_product() {
        let (g, x, y) = setup();
        x.fill(|_, _, _, _| 2.0);
        y.fill(|_, _, _, _| 3.0);
        let out = ScalarSet::<f64>::new(2, "dot", 0.0, |a, b| a + b);
        let c = dot(&g, &x, &y, &out);
        assert_eq!(c.kind(), ContainerKind::Reduce);
        run_all(&c, 2);
        assert_eq!(out.host_value(), 6.0 * 128.0);
    }

    #[test]
    fn dot_multicomponent() {
        let b = Backend::dgx_a100(1);
        let s = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::cube(4), &[&s], StorageMode::Real).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 3, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 3, 0.0, MemLayout::AoS).unwrap();
        x.fill(|_, _, _, c| (c + 1) as f64);
        y.fill(|_, _, _, _| 1.0);
        let out = ScalarSet::<f64>::new(1, "dot", 0.0, |a, b| a + b);
        run_all(&dot(&g, &x, &y, &out), 1);
        assert_eq!(out.host_value(), 6.0 * 64.0); // (1+2+3) per cell
    }

    #[test]
    fn scale_in_place() {
        let (g, x, _) = setup();
        x.fill(|_, _, _, _| 2.0);
        run_all(&scale_const(&g, 0.5, &x), 2);
        x.for_each(|_, _, _, _, v| assert_eq!(v, 1.0));
    }

    #[test]
    fn waxpby_combines() {
        let (g, x, y) = setup();
        let w = Field::<f64, _>::new(&g, "w", 1, 0.0, MemLayout::SoA).unwrap();
        x.fill(|_, _, _, _| 2.0);
        y.fill(|_, _, _, _| 5.0);
        run_all(&waxpby_const(&g, 3.0, &x, -1.0, &y, &w), 2);
        w.for_each(|_, _, _, _, v| assert_eq!(v, 1.0));
        // Inputs untouched.
        x.for_each(|_, _, _, _, v| assert_eq!(v, 2.0));
    }

    #[test]
    fn norm2_matches_dot_with_self() {
        let (g, x, _) = setup();
        x.fill(|xx, yy, zz, _| (xx + yy + zz) as f64);
        let a = ScalarSet::<f64>::new(2, "a", 0.0, |p, q| p + q);
        let b = ScalarSet::<f64>::new(2, "b", 0.0, |p, q| p + q);
        run_all(&norm2_sq(&g, &x, &a), 2);
        run_all(&dot(&g, &x, &x, &b), 2);
        assert_eq!(a.host_value(), b.host_value());
        assert!(a.host_value() > 0.0);
    }

    #[test]
    fn scale_scalar_reads_at_launch() {
        let (g, x, _) = setup();
        x.fill(|_, _, _, _| 2.0);
        let s = ScalarSet::<f64>::new(2, "s", 0.0, |p, q| p + q);
        let c = scale_scalar(&g, &s, &x);
        s.set_host(3.0);
        run_all(&c, 2);
        x.for_each(|_, _, _, _, v| assert_eq!(v, 6.0));
        s.set_host(0.5);
        run_all(&c, 2);
        x.for_each(|_, _, _, _, v| assert_eq!(v, 3.0));
    }

    #[test]
    fn repeated_dot_reinitializes() {
        let (g, x, y) = setup();
        x.fill(|_, _, _, _| 1.0);
        y.fill(|_, _, _, _| 1.0);
        let out = ScalarSet::<f64>::new(2, "dot", 0.0, |a, b| a + b);
        let c = dot(&g, &x, &y, &out);
        run_all(&c, 2);
        run_all(&c, 2);
        assert_eq!(out.host_value(), 128.0, "second run must not accumulate");
    }

    /// Every shaped op must be bit-identical to its reference twin.
    #[test]
    fn shaped_ops_match_reference_bitwise() {
        let (g, x, y) = setup();
        let (g2, x2, y2) = setup();
        let seed = |f: &Field<f64, DenseGrid>, salt: f64| {
            f.fill(|xx, yy, zz, _| ((xx * 31 + yy * 7 + zz) as f64).sin() * salt)
        };
        seed(&x, 1.0);
        seed(&x2, 1.0);
        seed(&y, 0.5);
        seed(&y2, 0.5);
        run_all(&axpy_const(&g, 1.25, &x, &y), 2);
        run_all(&reference::axpy_const(&g2, 1.25, &x2, &y2), 2);
        let collect = |f: &Field<f64, DenseGrid>| {
            let mut v = Vec::new();
            f.for_each(|_, _, _, _, val| v.push(val.to_bits()));
            v
        };
        assert_eq!(collect(&y), collect(&y2));
        let d1 = ScalarSet::<f64>::new(2, "d1", 0.0, |p, q| p + q);
        let d2 = ScalarSet::<f64>::new(2, "d2", 0.0, |p, q| p + q);
        run_all(&dot(&g, &x, &y, &d1), 2);
        run_all(&reference::dot(&g2, &x2, &y2, &d2), 2);
        assert_eq!(d1.host_value().to_bits(), d2.host_value().to_bits());
    }

    /// Vector ops run over contiguous runs when the layouts agree, and
    /// element by element when they do not: both must stay bit-identical
    /// to the per-cell twin. Values are inexact and rows are longer than
    /// [`DOT_BLOCK`], so a changed summation order shows.
    #[test]
    fn vector_ops_match_reference_bitwise_in_every_layout() {
        use MemLayout::{AoS, SoA};
        let b = Backend::dgx_a100(2);
        let s = Stencil::seven_point();
        let g =
            DenseGrid::new(&b, Dim3::new(DOT_BLOCK + 7, 2, 4), &[&s], StorageMode::Real).unwrap();
        for (lx, ly) in [(SoA, SoA), (AoS, AoS), (AoS, SoA), (SoA, AoS)] {
            let run = |shaped: bool| {
                let x = Field::<f64, _>::new(&g, "x", 3, 0.0, lx).unwrap();
                let y = Field::<f64, _>::new(&g, "y", 3, 0.0, ly).unwrap();
                x.fill(|a, b, c, k| ((a * 31 + b * 7 + c + k as i32) as f64).sin());
                y.fill(|a, b, c, k| ((a * 5 + b * 3 + c * 11 + 2 * k as i32) as f64).cos());
                let d = ScalarSet::<f64>::new(2, "d", 0.0, |p, q| p + q);
                if shaped {
                    run_all(&axpy_const(&g, 0.37, &x, &y), 2);
                    run_all(&dot(&g, &x, &y, &d), 2);
                } else {
                    run_all(&reference::axpy_const(&g, 0.37, &x, &y), 2);
                    run_all(&reference::dot(&g, &x, &y, &d), 2);
                }
                let mut bits = vec![d.host_value().to_bits()];
                y.for_each(|_, _, _, _, v| bits.push(v.to_bits()));
                bits
            };
            assert_eq!(run(true), run(false), "x {lx:?}, y {ly:?}");
        }
    }
}
