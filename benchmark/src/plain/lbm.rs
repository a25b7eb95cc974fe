//! D3Q19 twoPop lid-driven cavity on an `n³` box over flat arrays:
//! pull-form fused collide-and-stream, half-way bounce-back on the six
//! walls, moving lid at `y = n−1`. Interior cells take a branch-free path
//! with precomputed neighbour strides, as a hand-written solver would.

pub struct PlainCavity {
    n: usize,
    omega: f64,
    u_lid: f64,
    f: [Vec<f64>; 2],
    cur: usize,
    c: [[i32; 3]; 19],
    w: [f64; 19],
    opp: [usize; 19],
}

impl PlainCavity {
    /// A cavity at the rest equilibrium (ρ = 1, u = 0).
    pub fn new(n: usize, omega: f64, u_lid: f64) -> Self {
        // The direction order is the framework's, so populations compare
        // index by index; weights and opposites follow from the vectors.
        let offs = neon_domain::d3q19_offsets();
        let mut c = [[0i32; 3]; 19];
        let mut w = [0.0; 19];
        for q in 0..19 {
            c[q] = [offs[q].dx, offs[q].dy, offs[q].dz];
            w[q] = match c[q].iter().map(|v| v * v).sum::<i32>() {
                0 => 1.0 / 3.0,
                1 => 1.0 / 18.0,
                _ => 1.0 / 36.0,
            };
        }
        let mut opp = [0usize; 19];
        for q in 0..19 {
            opp[q] = (0..19)
                .find(|&o| c[o] == [-c[q][0], -c[q][1], -c[q][2]])
                .expect("D3Q19 is symmetric");
        }
        let cells = n * n * n;
        let mut f0 = vec![0.0; cells * 19];
        for cell in f0.chunks_exact_mut(19) {
            cell.copy_from_slice(&w);
        }
        let f1 = f0.clone();
        PlainCavity {
            n,
            omega,
            u_lid,
            f: [f0, f1],
            cur: 0,
            c,
            w,
            opp,
        }
    }

    /// Advance one time step.
    pub fn step(&mut self) {
        let n = self.n;
        let (c, w, opp) = (self.c, self.w, self.opp);
        let (omega, u_lid) = (self.omega, self.u_lid);
        // Linear offset of the upstream neighbour each direction pulls from.
        let mut pull = [0isize; 19];
        for q in 0..19 {
            let o = c[opp[q]];
            pull[q] =
                ((o[2] as isize * n as isize + o[1] as isize) * n as isize + o[0] as isize) * 19;
        }
        let (a, b) = self.f.split_at_mut(1);
        let (src, dst) = if self.cur == 0 {
            (&a[0], &mut b[0])
        } else {
            (&b[0], &mut a[0])
        };
        let interior = |v: usize| v >= 1 && v + 1 < n;
        for z in 0..n {
            for y in 0..n {
                for x in 0..n {
                    let i = ((z * n + y) * n + x) * 19;
                    let mut f = [0.0f64; 19];
                    if interior(x) && interior(y) && interior(z) {
                        for q in 0..19 {
                            f[q] = src[(i as isize + pull[q]) as usize + q];
                        }
                    } else {
                        for q in 0..19 {
                            let qb = opp[q];
                            let o = c[qb];
                            let (sx, sy, sz) = (x as i32 + o[0], y as i32 + o[1], z as i32 + o[2]);
                            let inside = |v: i32| v >= 0 && (v as usize) < n;
                            f[q] = if inside(sx) && inside(sy) && inside(sz) {
                                src[(i as isize + pull[q]) as usize + q]
                            } else {
                                // Half-way bounce-back; the lid plane moves.
                                let lid = sy >= n as i32;
                                let corr = if lid {
                                    6.0 * w[q] * (c[q][0] as f64 * u_lid)
                                } else {
                                    0.0
                                };
                                src[i + qb] + corr
                            };
                        }
                    }
                    let mut rho = 0.0;
                    let (mut jx, mut jy, mut jz) = (0.0, 0.0, 0.0);
                    for q in 0..19 {
                        rho += f[q];
                        jx += c[q][0] as f64 * f[q];
                        jy += c[q][1] as f64 * f[q];
                        jz += c[q][2] as f64 * f[q];
                    }
                    let (ux, uy, uz) = (jx / rho, jy / rho, jz / rho);
                    let usq = ux * ux + uy * uy + uz * uz;
                    for q in 0..19 {
                        let cu = c[q][0] as f64 * ux + c[q][1] as f64 * uy + c[q][2] as f64 * uz;
                        let feq = w[q] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * usq);
                        dst[i + q] = f[q] + omega * (feq - f[q]);
                    }
                }
            }
        }
        self.cur ^= 1;
    }

    /// Population `q` at a cell.
    pub fn get(&self, x: usize, y: usize, z: usize, q: usize) -> f64 {
        self.f[self.cur][((z * self.n + y) * self.n + x) * 19 + q]
    }

    /// Total mass Σ f, conserved by bounce-back walls.
    #[cfg(test)]
    pub fn total_mass(&self) -> f64 {
        self.f[self.cur].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conserves_mass_and_drives_a_flow() {
        let mut c = PlainCavity::new(8, 1.0, 0.1);
        let m0 = c.total_mass();
        for _ in 0..10 {
            c.step();
        }
        assert!((c.total_mass() - m0).abs() < 1e-12 * m0);
        // The lid drags the top layer along +x.
        let mut jx = 0.0;
        for q in 0..19 {
            jx += c.c[q][0] as f64 * c.get(4, 7, 4, q);
        }
        assert!(jx > 1e-4, "lid did not move the fluid: {jx}");
    }
}
