//! # neon-comm — collective communication over simulated devices
//!
//! NCCL-style collective primitives for the Neon stack: `all_reduce`,
//! `reduce_scatter`, `all_gather` and `broadcast`, each a **timing
//! schedule** on a [`QueueSim`] virtual clock
//! ([`engine::CollectiveEngine`]) implementing four algorithms —
//! host-staged (the naive baseline: every partial staged through the
//! host), **ring** (bandwidth-optimal, `2(n−1)` shard-sized steps with
//! chunk-level pipelining), **binomial tree** (latency-optimal,
//! `2⌈log₂ n⌉` rounds) and **hierarchical** (topology-aware: reduce
//! inside each NVLink island, exchange one representative per island
//! across the slow cross-island links, broadcast back inside) — with
//! automatic selection driven by the topology's link class, island
//! structure and the message size ([`algorithm::choose`]).
//!
//! The values do not pass through this crate: the executor folds a
//! reduction's per-device partials in rank order
//! (`neon_set::ScalarSet::finalize`), so the result is bit-identical
//! whichever algorithm the timing layer picks.
//!
//! Transfers are enqueued through [`QueueSim::enqueue_transfer`], so they
//! occupy the physical link resources named by the [`Topology`]: collective
//! steps on a PCIe box contend for the host root complex and serialize,
//! while NVLink rings run fully overlapped on dedicated per-pair links.
//!
//! [`QueueSim`]: neon_sys::QueueSim
//! [`QueueSim::enqueue_transfer`]: neon_sys::QueueSim::enqueue_transfer
//! [`Topology`]: neon_sys::Topology

// Collective algorithms are written over explicit device ranks; the loop
// index *is* the rank identity (src/dst/round partner), so iterator-style
// rewrites obscure the communication pattern.
#![allow(clippy::needless_range_loop)]

pub mod algorithm;
pub mod chunk;
pub mod engine;

pub use algorithm::{
    choose, choose_flat, estimate_hierarchical_us, estimate_us, Algorithm, CollectiveKind,
};
pub use chunk::ChunkPolicy;
pub use engine::{
    CollectiveEngine, CollectiveSchedule, CollectiveScratch, CollectiveTiming, EngineConfig,
};
