//! The five workloads. Each names, in `BENCHMARK.json`, the layer that
//! does most of the work in it.

mod cg;
mod common;
mod lbm;
mod serve;
mod sweep;

use crate::harness::{Cfg, Workload};
use crate::tracer::Tracer;

/// Set up workload `name`: the complete set-up `setup_s` times.
pub fn build(name: &str, cfg: Cfg, tr: &mut Tracer) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cg64_d2" => Box::new(cg::cg64(cfg, tr)),
        "lbm64_d2" => Box::new(lbm::Lbm64::new(cfg, tr)),
        "fem_sparse48_d2" => Box::new(cg::fem48(cfg, tr)),
        "paper_sweep_virtual" => Box::new(sweep::Sweep::new(cfg, tr)),
        "serve_mix" => Box::new(serve::ServeMix::new(cfg, tr)),
        _ => return None,
    })
}
