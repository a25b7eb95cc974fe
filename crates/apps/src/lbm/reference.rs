//! Plain-Rust host reference of the D3Q19 lid-driven cavity.
//!
//! Written independently of the Neon stack (flat arrays, explicit loops):
//! the same pull-form fused collide-and-stream with half-way bounce-back.
//! Used to validate the Neon implementation field-by-field.

use neon_domain::D3Q19_OFFSETS;

use super::d3q19::{equilibrium_d3q19, LbmParams, D3Q19_C, D3Q19_OPPOSITE, D3Q19_WEIGHTS};

/// A minimal host LBM simulation on a dense `nx × ny × nz` box.
pub struct ReferenceCavity {
    /// Domain extent.
    pub nx: usize,
    /// Domain extent.
    pub ny: usize,
    /// Domain extent.
    pub nz: usize,
    params: LbmParams,
    f: [Vec<f64>; 2],
    cur: usize,
}

impl ReferenceCavity {
    /// Create and initialize to the rest equilibrium.
    pub fn new(nx: usize, ny: usize, nz: usize, params: LbmParams) -> Self {
        let n = nx * ny * nz;
        let mut f0 = vec![0.0; n * 19];
        for i in 0..n {
            for q in 0..19 {
                f0[i * 19 + q] = D3Q19_WEIGHTS[q];
            }
        }
        let f1 = f0.clone();
        ReferenceCavity {
            nx,
            ny,
            nz,
            params,
            f: [f0, f1],
            cur: 0,
        }
    }

    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        (z * self.ny + y) * self.nx + x
    }

    /// Advance one iteration.
    pub fn step(&mut self) {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let (omega, u_lid) = (self.params.omega, self.params.u_lid);
        let (src, dst) = if self.cur == 0 {
            let (a, b) = self.f.split_at_mut(1);
            (&a[0], &mut b[0])
        } else {
            let (a, b) = self.f.split_at_mut(1);
            (&b[0], &mut a[0])
        };
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let i = (z * ny + y) * nx + x;
                    let mut f = [0.0f64; 19];
                    for q in 0..19 {
                        let qb = D3Q19_OPPOSITE[q];
                        let o = D3Q19_OFFSETS[qb];
                        let (sx, sy, sz) = (x as i32 + o.dx, y as i32 + o.dy, z as i32 + o.dz);
                        let inside = sx >= 0
                            && sy >= 0
                            && sz >= 0
                            && (sx as usize) < nx
                            && (sy as usize) < ny
                            && (sz as usize) < nz;
                        if inside {
                            let si = (sz as usize * ny + sy as usize) * nx + sx as usize;
                            f[q] = src[si * 19 + q];
                        } else {
                            let corr = if sy >= ny as i32 {
                                6.0 * D3Q19_WEIGHTS[q] * (D3Q19_C[0][q] * u_lid)
                            } else {
                                0.0
                            };
                            f[q] = src[i * 19 + qb] + corr;
                        }
                    }
                    let mut rho = 0.0;
                    let (mut jx, mut jy, mut jz) = (0.0, 0.0, 0.0);
                    for q in 0..19 {
                        rho += f[q];
                        jx += D3Q19_C[0][q] * f[q];
                        jy += D3Q19_C[1][q] * f[q];
                        jz += D3Q19_C[2][q] * f[q];
                    }
                    let (ux, uy, uz) = (jx / rho, jy / rho, jz / rho);
                    for q in 0..19 {
                        let feq = equilibrium_d3q19(q, rho, ux, uy, uz);
                        dst[i * 19 + q] = f[q] + omega * (feq - f[q]);
                    }
                }
            }
        }
        self.cur ^= 1;
    }

    /// Population `q` at a cell.
    pub fn get(&self, x: usize, y: usize, z: usize, q: usize) -> f64 {
        self.f[self.cur][self.idx(x, y, z) * 19 + q]
    }

    /// Total mass.
    pub fn total_mass(&self) -> f64 {
        self.f[self.cur].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lbm::d3q19::LidDrivenCavity;
    use neon_core::OccLevel;
    use neon_domain::{DenseGrid, Dim3, Stencil, StorageMode};
    use neon_sys::Backend;

    #[test]
    fn reference_conserves_mass() {
        let mut r = ReferenceCavity::new(8, 8, 8, LbmParams::default());
        let m0 = r.total_mass();
        for _ in 0..10 {
            r.step();
        }
        assert!((r.total_mass() - m0).abs() < 1e-10 * m0);
    }

    #[test]
    fn neon_matches_reference() {
        let (nx, ny, nz) = (6, 6, 8);
        let params = LbmParams {
            omega: 0.9,
            u_lid: 0.08,
        };
        let mut reference = ReferenceCavity::new(nx, ny, nz, params);
        for _ in 0..8 {
            reference.step();
        }

        let b = Backend::dgx_a100(2);
        let st = Stencil::d3q19();
        let g = DenseGrid::new(&b, Dim3::new(nx, ny, nz), &[&st], StorageMode::Real).unwrap();
        let mut app = LidDrivenCavity::new(&g, params, OccLevel::TwoWayExtended).unwrap();
        app.init();
        app.step(8);

        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    for q in 0..19 {
                        let n = app.current().get(x as i32, y as i32, z as i32, q).unwrap();
                        let r = reference.get(x, y, z, q);
                        assert!(
                            (n - r).abs() < 1e-12,
                            "mismatch at ({x},{y},{z}) q{q}: {n} vs {r}"
                        );
                    }
                }
            }
        }
    }
}
