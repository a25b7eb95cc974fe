//! Benchmark-owned plain baselines: single-thread loops over flat arrays,
//! the code one would write by hand for one CPU core.
//!
//! They are the yardstick of `apps.*.overhead_vs_plain_x`, the
//! host-independent reading of `wall_ms_per_iter` behind the paper's
//! "minimal overhead against hand-written code". They live here, and use
//! nothing of the crates but the D3Q19 direction table, so that a change
//! to the crates cannot move the yardstick. Each is checked against the
//! framework's result on 16³ in every run.

pub mod cg;
pub mod lbm;
