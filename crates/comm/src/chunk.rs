//! How a transfer is split into pipelined chunks.
//!
//! One rule serves every streamed transfer in the stack: the collective
//! engine's pipelined steps ([`crate::EngineConfig::chunks`]) and the halo
//! payloads of an executor's chunk-events timing replay. Chunking is a
//! pricing decision only — it shapes how transfer spans land on the
//! virtual clock, never what data moves or in which order.

use neon_sys::topology::{LinkModel, Topology};
use neon_sys::DeviceId;

/// How payloads are split into pipelined chunks.
///
/// A chunk should be large enough that the per-chunk round-trip latency
/// amortizes, and small enough that the first chunk lands early (that
/// early arrival is what lets a consumer start on it while the rest of the
/// stream is in flight). The classic sizing rule is a small multiple of
/// the link's *bandwidth–delay product* — the bytes in flight on the wire
/// at full rate — so [`ChunkPolicy::for_link`] derives `chunk_bytes` from
/// `latency × bandwidth` instead of hard-coding one size for every
/// interconnect: a PCIe 3 link (18 µs × 6.5 GB/s ≈ 114 KiB BDP) chunks at
/// 1 MiB, an NVLink wire (9.5 µs × 173 GB/s ≈ 1.6 MiB BDP) at 16 MiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPolicy {
    /// Target bytes per chunk (power of two).
    pub chunk_bytes: u64,
    /// Cap on chunks per transfer (bounds simulation cost).
    pub max_chunks: u64,
}

impl ChunkPolicy {
    /// The historical fixed policy (1 MiB chunks, at most 8), which is
    /// also what [`ChunkPolicy::for_link`] derives for a PCIe-class link.
    pub const DEFAULT: ChunkPolicy = ChunkPolicy {
        chunk_bytes: 1 << 20,
        max_chunks: 8,
    };

    /// Derive the policy from one link: chunks of 8× the bandwidth–delay
    /// product, rounded up to a power of two and clamped to
    /// `[1 MiB, 16 MiB]`.
    pub fn for_link(link: &LinkModel) -> ChunkPolicy {
        // µs × GB/s = 1e-6 s × 1e9 B/s = 1e3 bytes.
        let bdp_bytes = link.latency_us * link.bandwidth_gb_s * 1e3;
        let target = (8.0 * bdp_bytes).max(1.0) as u64;
        ChunkPolicy {
            chunk_bytes: target.next_power_of_two().clamp(1 << 20, 16 << 20),
            max_chunks: 8,
        }
    }

    /// Derive the policy from a topology's *slowest* distinct-pair link
    /// (smallest bandwidth, then largest latency): halos cross every kind
    /// of wire the partition touches, and chunking for the slowest one
    /// keeps the policy a single constant per topology. Single-device
    /// topologies fall back to [`ChunkPolicy::DEFAULT`].
    pub fn for_topology(topo: &Topology) -> ChunkPolicy {
        let n = topo.num_devices();
        let mut slowest: Option<LinkModel> = None;
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let l = *topo.link(DeviceId(s), DeviceId(d));
                let worse = slowest.is_none_or(|b| {
                    l.bandwidth_gb_s < b.bandwidth_gb_s
                        || (l.bandwidth_gb_s == b.bandwidth_gb_s && l.latency_us > b.latency_us)
                });
                if worse {
                    slowest = Some(l);
                }
            }
        }
        slowest.map_or(ChunkPolicy::DEFAULT, |l| ChunkPolicy::for_link(&l))
    }

    /// Split a transfer of `bytes` into `(chunks, bytes_per_chunk)`.
    pub fn chunks(&self, bytes: u64) -> (usize, u64) {
        if bytes == 0 {
            return (1, 0);
        }
        let c = bytes
            .div_ceil(self.chunk_bytes.max(1))
            .clamp(1, self.max_chunks.max(1));
        (c as usize, bytes.div_ceil(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neon_sys::Backend;

    #[test]
    fn chunk_policy_is_stable() {
        let p = ChunkPolicy::DEFAULT;
        assert_eq!(p.chunks(0), (1, 0));
        assert_eq!(p.chunks(1), (1, 1));
        assert_eq!(p.chunks(1 << 20), (1, 1 << 20));
        let (c, cb) = p.chunks(3 << 20);
        assert_eq!(c, 3);
        assert_eq!(cb, 1 << 20);
        // Above 8 MiB the chunk count saturates and the chunks grow.
        let (c, cb) = p.chunks(64 << 20);
        assert_eq!(c, 8);
        assert_eq!(cb, 8 << 20);
    }

    #[test]
    fn chunk_policy_follows_the_bandwidth_delay_product() {
        // PCIe 3: 18 µs × 6.5 GB/s ≈ 114 KiB BDP; ×8 ≈ 0.9 MiB rounds up
        // to the 1 MiB floor — exactly the historical fixed policy, so
        // PCIe-era timings are unchanged.
        let pcie = ChunkPolicy::for_link(&LinkModel::pcie3());
        assert_eq!(pcie.chunk_bytes, 1 << 20);
        assert_eq!(pcie, ChunkPolicy::DEFAULT);
        // NVLink: 9.5 µs × 173 GB/s ≈ 1.6 MiB BDP; ×8 ≈ 13 MiB rounds up
        // to 16 MiB — a fat wire wants much coarser chunks before the
        // per-chunk latency amortizes.
        let nv = ChunkPolicy::for_link(&LinkModel::nvlink());
        assert_eq!(nv.chunk_bytes, 16 << 20);

        // Topology derivation picks the slowest wire: an all-PCIe box
        // chunks at 1 MiB, a pure NVLink island at 16 MiB, and a mixed
        // multi-island machine (NVLink inside, PCIe across) stays at the
        // PCIe policy because halos cross the slow wire too.
        let pcie_box = Backend::gv100_pcie(4);
        assert_eq!(
            ChunkPolicy::for_topology(pcie_box.topology()).chunk_bytes,
            1 << 20
        );
        let nv_island = Backend::dgx_a100(4);
        assert_eq!(
            ChunkPolicy::for_topology(nv_island.topology()).chunk_bytes,
            16 << 20
        );
        let mixed = Backend::dgx_islands(&[2, 2]);
        assert_eq!(
            ChunkPolicy::for_topology(mixed.topology()).chunk_bytes,
            1 << 20
        );

        // The NVLink policy actually coarsens the split.
        assert_eq!(nv.chunks(8 << 20), (1, 8 << 20));
        assert_eq!(ChunkPolicy::DEFAULT.chunks(8 << 20), (8, 1 << 20));
    }
}
