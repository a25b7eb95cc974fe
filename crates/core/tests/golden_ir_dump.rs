//! Golden test for the per-pass IR dumps: the canonical 2-device
//! map → 7-point stencil → dot sequence, dumped after every pass of the
//! pipeline and compared against a checked-in reference.
//!
//! The dump is deterministic by construction — data objects are labelled
//! by first-occurrence role (`u0`, `u1`, …) rather than raw uid, and
//! edges are sorted — so any diff is a real change to the compiler's
//! output. To regenerate after an intentional pipeline change:
//!
//! ```text
//! NEON_UPDATE_GOLDEN=1 cargo test -p neon-core --test golden_ir_dump
//! ```

use neon_core::{CommMode, OccLevel, Skeleton, SkeletonOptions};
use neon_domain::{
    ops, Container, DenseGrid, Dim3, Field, FieldStencil as _, FieldWrite as _, GridLike as _,
    MemLayout, ScalarSet, Stencil, StorageMode,
};
use neon_sys::Backend;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/ir_dump_2dev_7pt.txt"
);

fn pipeline_dump(comm: CommMode) -> String {
    let b = Backend::dgx_a100(2);
    let st = Stencil::seven_point();
    let g = DenseGrid::new(&b, Dim3::new(4, 4, 16), &[&st], StorageMode::Virtual).unwrap();
    let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
    let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
    let dot = ScalarSet::<f64>::new(2, "dot", 0.0, |a, b| a + b);
    let map = {
        let xc = x.clone();
        Container::compute("map", g.as_space(), move |ldr| {
            let xv = ldr.read_write(&xc);
            Box::new(move |c| xv.set(c, 0, xv.at(c, 0) + 1.0))
        })
    };
    let sten = {
        let (xc, yc) = (x.clone(), y.clone());
        Container::compute("laplace", g.as_space(), move |ldr| {
            let xv = ldr.read_stencil(&xc);
            let yv = ldr.write(&yc);
            Box::new(move |c| yv.set(c, 0, xv.ngh(c, 0, 0)))
        })
    };
    let opts = SkeletonOptions {
        occ: OccLevel::TwoWayExtended,
        // A dumping compile never comes from the plan cache, so the dump
        // pins this run of the passes.
        dump_ir: true,
        comm,
        ..Default::default()
    };
    let sk = Skeleton::sequence(
        &b,
        "golden",
        vec![map, sten, ops::dot(&g, &y, &y, &dot)],
        opts,
    );
    sk.dump_ir()
}

#[test]
fn golden_ir_dump_matches() {
    let dump = pipeline_dump(CommMode::Epoch);
    // Sanity before comparing: one section per pass, in pipeline order.
    for pass in [
        "dependency-graph",
        "fuse",
        "temporal-fuse",
        "multi-gpu",
        "occ",
        "collective-lowering",
        "schedule",
    ] {
        assert!(
            dump.contains(&format!("== after {pass} ==")),
            "dump is missing the {pass} section:\n{dump}"
        );
    }
    if std::env::var_os("NEON_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &dump).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH).expect(
        "golden file missing — regenerate with NEON_UPDATE_GOLDEN=1 \
         cargo test -p neon-core --test golden_ir_dump",
    );
    assert_eq!(
        dump, golden,
        "IR dump drifted from tests/golden/ir_dump_2dev_7pt.txt; if the \
         pipeline change is intentional, regenerate with NEON_UPDATE_GOLDEN=1"
    );
    // Chunking is priced by the timing replay alone: a chunk-events
    // compile runs the same passes to the same device plan.
    assert_eq!(
        pipeline_dump(CommMode::ChunkEvents),
        golden,
        "the comm mode reached the compiled plan"
    );
}

#[test]
fn dumping_compiles_bypass_the_plan_cache() {
    let run = |cache: bool| {
        let b = Backend::dgx_a100(2);
        let st = Stencil::seven_point();
        let g = DenseGrid::new(&b, Dim3::new(4, 4, 16), &[&st], StorageMode::Virtual).unwrap();
        let x = Field::<f64, _>::new(&g, "x", 1, 0.0, MemLayout::SoA).unwrap();
        let y = Field::<f64, _>::new(&g, "y", 1, 0.0, MemLayout::SoA).unwrap();
        let sten = {
            let (xc, yc) = (x.clone(), y.clone());
            Container::compute("laplace", g.as_space(), move |ldr| {
                let xv = ldr.read_stencil(&xc);
                let yv = ldr.write(&yc);
                Box::new(move |c| yv.set(c, 0, xv.ngh(c, 0, 0)))
            })
        };
        let opts = SkeletonOptions {
            occ: OccLevel::Standard,
            dump_ir: true,
            cache,
            ..Default::default()
        };
        let sk = Skeleton::sequence(&b, "rebind-dump", vec![sten], opts);
        assert!(!sk.compiled_from_cache(), "a dump is never rebound");
        sk.dump_ir()
    };
    let fresh = run(false);
    let warm1 = run(true);
    let warm2 = run(true);
    assert_eq!(fresh, warm1);
    assert_eq!(warm1, warm2);
}
