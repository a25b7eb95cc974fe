//! Matrix-free CG for the 7-point negative Laplacian on an `n³` box with
//! homogeneous Dirichlet boundaries, over flat arrays.
//!
//! Arrays carry a one-cell zero rim, so the stencil needs no bounds test;
//! the sweeps are fused the way a hand-written solver fuses them (three
//! passes over memory per iteration).

pub struct PlainCg {
    n: usize,
    x: Vec<f64>,
    b: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    rs_old: f64,
    beta: f64,
}

impl PlainCg {
    /// A solver for right-hand side `rhs(x, y, z)`, reset and ready.
    pub fn new(n: usize, rhs: impl Fn(i32, i32, i32) -> f64) -> Self {
        let len = (n + 2).pow(3);
        let mut s = PlainCg {
            n,
            x: vec![0.0; len],
            b: vec![0.0; len],
            r: vec![0.0; len],
            p: vec![0.0; len],
            ap: vec![0.0; len],
            rs_old: 0.0,
            beta: 0.0,
        };
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let i = s.idx(x, y, z);
                    s.b[i] = rhs(x as i32, y as i32, z as i32);
                }
            }
        }
        s.reset();
        s
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        let w = self.n + 2;
        ((z + 1) * w + (y + 1)) * w + (x + 1)
    }

    /// `x ← 0`, `p ← 0`, `r ← b`, `rs_old ← r·r`, `β ← 0`.
    pub fn reset(&mut self) {
        self.x.fill(0.0);
        self.p.fill(0.0);
        self.r.copy_from_slice(&self.b);
        self.rs_old = self.r.iter().map(|v| v * v).sum();
        self.beta = 0.0;
    }

    /// One CG iteration; returns the new `r·r`.
    pub fn iterate(&mut self) -> f64 {
        let n = self.n;
        let w = n + 2;
        let (sy, sz) = (w, w * w);
        // p ← r + β·p
        for z in 0..n {
            for y in 0..n {
                let row = self.idx(0, y, z);
                for i in row..row + n {
                    self.p[i] = self.r[i] + self.beta * self.p[i];
                }
            }
        }
        // Ap ← A·p, pAp ← p·Ap
        let mut p_ap = 0.0;
        for z in 0..n {
            for y in 0..n {
                let row = self.idx(0, y, z);
                for i in row..row + n {
                    let p = &self.p;
                    let v = 6.0 * p[i]
                        - p[i - 1]
                        - p[i + 1]
                        - p[i - sy]
                        - p[i + sy]
                        - p[i - sz]
                        - p[i + sz];
                    self.ap[i] = v;
                    p_ap += p[i] * v;
                }
            }
        }
        let alpha = if p_ap != 0.0 { self.rs_old / p_ap } else { 0.0 };
        // x ← x + α·p, r ← r − α·Ap, rs ← r·r
        let mut rs = 0.0;
        for z in 0..n {
            for y in 0..n {
                let row = self.idx(0, y, z);
                for i in row..row + n {
                    self.x[i] += alpha * self.p[i];
                    let r = self.r[i] - alpha * self.ap[i];
                    self.r[i] = r;
                    rs += r * r;
                }
            }
        }
        self.beta = if self.rs_old != 0.0 {
            rs / self.rs_old
        } else {
            0.0
        };
        self.rs_old = rs;
        rs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_on_a_small_box() {
        let mut cg = PlainCg::new(8, |x, y, z| ((x * 3 + y * 5 + z * 7) % 11) as f64 - 5.0);
        let r0 = cg.rs_old;
        let mut rs = r0;
        for _ in 0..200 {
            rs = cg.iterate();
        }
        assert!(rs < 1e-20 * r0, "did not converge: {rs} from {r0}");
        cg.reset();
        assert_eq!(cg.rs_old, r0);
    }
}
