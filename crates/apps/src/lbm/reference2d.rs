//! Plain-Rust host reference of the D2Q9 Kármán benchmark.
//!
//! An independent implementation (flat arrays, explicit loops) of the
//! same pull-form fused kernel with cylinder/channel boundaries, used to
//! validate the Neon D2Q9 kernel cell-by-cell.

use neon_domain::D2Q9_OFFSETS;

use super::d2q9::{equilibrium_d2q9, KarmanParams, D2Q9_C, D2Q9_OPPOSITE, D2Q9_WEIGHTS};

/// Host D2Q9 channel-with-cylinder simulation.
pub struct ReferenceKarman {
    /// Channel extent.
    pub nx: usize,
    /// Channel extent.
    pub ny: usize,
    params: KarmanParams,
    f: [Vec<f64>; 2],
    cur: usize,
}

impl ReferenceKarman {
    /// Create and initialize to the free-stream equilibrium.
    pub fn new(nx: usize, ny: usize, params: KarmanParams) -> Self {
        let n = nx * ny;
        let mut f0 = vec![0.0; n * 9];
        for i in 0..n {
            for q in 0..9 {
                f0[i * 9 + q] = equilibrium_d2q9(q, 1.0, params.u_in, 0.0);
            }
        }
        let f1 = f0.clone();
        ReferenceKarman {
            nx,
            ny,
            params,
            f: [f0, f1],
            cur: 0,
        }
    }

    /// Advance one iteration.
    pub fn step(&mut self) {
        let (nx, ny) = (self.nx as i32, self.ny as i32);
        let p = self.params;
        let (src, dst) = if self.cur == 0 {
            let (a, b) = self.f.split_at_mut(1);
            (&a[0], &mut b[0])
        } else {
            let (a, b) = self.f.split_at_mut(1);
            (&b[0], &mut a[0])
        };
        for y in 0..ny {
            for x in 0..nx {
                let i = (y * nx + x) as usize;
                if p.in_cylinder(x, y) {
                    for q in 0..9 {
                        dst[i * 9 + q] = D2Q9_WEIGHTS[q];
                    }
                    continue;
                }
                let mut f = [0.0f64; 9];
                for q in 0..9 {
                    let qb = D2Q9_OPPOSITE[q];
                    let o = D2Q9_OFFSETS[qb];
                    let (sx, sy) = (x + o.dx, y + o.dy);
                    if sx < 0 || sx >= nx {
                        f[q] = equilibrium_d2q9(q, 1.0, p.u_in, 0.0);
                    } else if sy < 0 || sy >= ny || p.in_cylinder(sx, sy) {
                        f[q] = src[i * 9 + qb];
                    } else {
                        let si = (sy * nx + sx) as usize;
                        f[q] = src[si * 9 + q];
                    }
                }
                let mut rho = 0.0;
                let (mut jx, mut jy) = (0.0, 0.0);
                for q in 0..9 {
                    rho += f[q];
                    jx += D2Q9_C[0][q] * f[q];
                    jy += D2Q9_C[1][q] * f[q];
                }
                let (ux, uy) = (jx / rho, jy / rho);
                for q in 0..9 {
                    let feq = equilibrium_d2q9(q, rho, ux, uy);
                    dst[i * 9 + q] = f[q] + p.omega * (feq - f[q]);
                }
            }
        }
        self.cur ^= 1;
    }

    /// Population `q` at a cell.
    pub fn get(&self, x: usize, y: usize, q: usize) -> f64 {
        self.f[self.cur][(y * self.nx + x) * 9 + q]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lbm::d2q9::KarmanVortex;
    use neon_core::OccLevel;
    use neon_domain::{DenseGrid, Dim3, Stencil, StorageMode};
    use neon_sys::Backend;

    #[test]
    fn neon_d2q9_matches_reference() {
        let (nx, ny) = (40, 16);
        let params = KarmanParams::for_domain(nx, ny);
        let mut reference = ReferenceKarman::new(nx, ny, params);
        for _ in 0..12 {
            reference.step();
        }

        let b = Backend::dgx_a100(1);
        let st = Stencil::d2q9();
        let g = DenseGrid::new(&b, Dim3::new(nx, ny, 1), &[&st], StorageMode::Real).unwrap();
        let mut app = KarmanVortex::new(&g, params, OccLevel::None).unwrap();
        app.init();
        app.step(12);

        // Compare populations cell-by-cell through the host API: the two
        // independently written kernels must agree to round-off.
        let f = {
            // Access the current field via velocity()? We need raw f:
            // reconstruct via macroscopic quantities instead — compare
            // velocity fields, which determine the flow.
            app
        };
        for y in 0..ny as i32 {
            for x in 0..nx as i32 {
                let (un_x, un_y) = f.velocity(x, y).unwrap();
                // Reference macroscopic velocity.
                let mut rho = 0.0;
                let (mut jx, mut jy) = (0.0, 0.0);
                for q in 0..9 {
                    let v = reference.get(x as usize, y as usize, q);
                    rho += v;
                    jx += D2Q9_C[0][q] * v;
                    jy += D2Q9_C[1][q] * v;
                }
                let (ur_x, ur_y) = (jx / rho, jy / rho);
                assert!(
                    (un_x - ur_x).abs() < 1e-12 && (un_y - ur_y).abs() < 1e-12,
                    "velocity mismatch at ({x},{y}): ({un_x},{un_y}) vs ({ur_x},{ur_y})"
                );
            }
        }
    }

    #[test]
    fn reference_stays_finite_and_subsonic() {
        let (nx, ny) = (60, 20);
        let params = KarmanParams::for_domain(nx, ny);
        let mut r = ReferenceKarman::new(nx, ny, params);
        for _ in 0..100 {
            r.step();
        }
        for y in 0..ny {
            for x in 0..nx {
                for q in 0..9 {
                    let v = r.get(x, y, q);
                    assert!(v.is_finite() && v > -0.5 && v < 2.0, "f out of range: {v}");
                }
            }
        }
    }
}
