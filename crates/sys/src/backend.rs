//! Back-end configuration: the set of devices an application runs on.
//!
//! A [`Backend`] bundles the device models, the interconnect topology and
//! one [`MemoryLedger`] per device. Every higher layer (grids, fields,
//! skeletons) is parameterized by a `Backend`, which is what lets the same
//! user code run on 1 GPU, 8 GPUs, or a CPU without modification — the
//! paper's portability goal.

use std::sync::Arc;

use crate::device::{DeviceId, DeviceModel};
use crate::error::{NeonSysError, Result};
use crate::memory::MemoryLedger;
use crate::topology::Topology;

/// Class of a backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// One or more (simulated) GPUs.
    Gpu,
    /// Single-node CPU execution (one kernel at a time, as in the paper).
    Cpu,
}

#[derive(Debug)]
struct BackendInner {
    kind: BackendKind,
    devices: Vec<DeviceModel>,
    topology: Arc<Topology>,
    ledgers: Vec<MemoryLedger>,
    /// [`Backend::fingerprint`], computed once: a backend is immutable.
    fingerprint: u64,
}

/// A set of devices with their interconnect and memory accounting.
#[derive(Debug, Clone)]
pub struct Backend {
    inner: Arc<BackendInner>,
}

impl Backend {
    /// Build a backend from explicit devices and topology.
    pub fn new(kind: BackendKind, devices: Vec<DeviceModel>, topology: Topology) -> Result<Self> {
        if devices.is_empty() {
            return Err(NeonSysError::InvalidConfig {
                what: "backend requires at least one device".to_string(),
            });
        }
        if topology.num_devices() != devices.len() {
            return Err(NeonSysError::InvalidConfig {
                what: format!(
                    "topology covers {} devices but {} device models were given",
                    topology.num_devices(),
                    devices.len()
                ),
            });
        }
        let ledgers = devices
            .iter()
            .enumerate()
            .map(|(i, d)| MemoryLedger::new(DeviceId(i), d.mem_capacity_bytes))
            .collect();
        let fingerprint = fingerprint_of(kind, &devices, &topology);
        Ok(Backend {
            inner: Arc::new(BackendInner {
                kind,
                devices,
                topology: Arc::new(topology),
                ledgers,
                fingerprint,
            }),
        })
    }

    /// DGX-A100-like backend: `n` A100-40GB GPUs, NVLink all-to-all.
    pub fn dgx_a100(n: usize) -> Self {
        let dev = DeviceModel::a100_40gb();
        let local_bw = dev.mem_bandwidth_gb_s;
        Backend::new(
            BackendKind::Gpu,
            vec![dev; n],
            Topology::nvlink_all_to_all(n, local_bw),
        )
        .expect("valid preset")
    }

    /// Multi-box backend: A100 GPUs in NVLink islands of the given sizes,
    /// bridged across islands over PCIe Gen3 through the host root
    /// complex. `dgx_islands(&[4, 4])` models two 4-GPU boxes — the mixed
    /// regime where hierarchical collectives beat flat ring/tree.
    pub fn dgx_islands(sizes: &[usize]) -> Self {
        let dev = DeviceModel::a100_40gb();
        let local_bw = dev.mem_bandwidth_gb_s;
        let n: usize = sizes.iter().sum();
        Backend::new(
            BackendKind::Gpu,
            vec![dev; n],
            Topology::nvlink_islands(sizes, local_bw),
        )
        .expect("valid preset")
    }

    /// GV100-box-like backend: `n` GV100 GPUs over PCIe Gen3.
    pub fn gv100_pcie(n: usize) -> Self {
        let dev = DeviceModel::gv100();
        let local_bw = dev.mem_bandwidth_gb_s;
        Backend::new(
            BackendKind::Gpu,
            vec![dev; n],
            Topology::pcie_host_staged(n, local_bw),
        )
        .expect("valid preset")
    }

    /// Single-socket CPU backend (serial debugging back end, paper §IV-A).
    pub fn cpu() -> Self {
        let dev = DeviceModel::cpu_socket();
        let local_bw = dev.mem_bandwidth_gb_s;
        Backend::new(
            BackendKind::Cpu,
            vec![dev],
            Topology::nvlink_all_to_all(1, local_bw),
        )
        .expect("valid preset")
    }

    /// Backend kind.
    pub fn kind(&self) -> BackendKind {
        self.inner.kind
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.inner.devices.len()
    }

    /// Iterate over the device ids of this backend.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.num_devices()).map(DeviceId)
    }

    /// The model of device `d`.
    pub fn device(&self, d: DeviceId) -> &DeviceModel {
        &self.inner.devices[d.0]
    }

    /// All device models.
    pub fn devices(&self) -> &[DeviceModel] {
        &self.inner.devices
    }

    /// The interconnect topology.
    pub fn topology(&self) -> &Topology {
        &self.inner.topology
    }

    /// The interconnect topology's shared handle, for consumers that keep
    /// it (a collective engine) without copying the link matrix.
    pub fn shared_topology(&self) -> &Arc<Topology> {
        &self.inner.topology
    }

    /// The memory ledger of device `d`.
    pub fn ledger(&self, d: DeviceId) -> &MemoryLedger {
        &self.inner.ledgers[d.0]
    }

    /// The backend with device `dead` evicted: its model and topology row
    /// are removed, survivors are renumbered contiguously, and fresh
    /// memory ledgers are created (data objects must be rebuilt — the
    /// self-healing executor restores them from a checkpoint). The new
    /// backend has a different [`Backend::fingerprint`], so stale compiled
    /// plans cannot be rebound to it by accident.
    pub fn without_device(&self, dead: DeviceId) -> Result<Self> {
        self.check_device(dead)?;
        if self.num_devices() == 1 {
            return Err(NeonSysError::InvalidConfig {
                what: "cannot evict the only device of a backend".to_string(),
            });
        }
        let keep: Vec<DeviceId> = self.device_ids().filter(|d| *d != dead).collect();
        self.with_devices(&keep)
    }

    /// The sub-backend induced by the device subset `keep` (space sharing):
    /// device `keep[i]` of `self` becomes device `i` of the result, with its
    /// model, the induced sub-topology and a *fresh* memory ledger. `keep`
    /// must be non-empty, sorted, duplicate-free and in range.
    ///
    /// On a homogeneous fleet every equal-size subset produces the same
    /// [`Backend::fingerprint`], so tenants running on disjoint subsets of
    /// one fleet still share compiled plans through the plan cache.
    pub fn with_devices(&self, keep: &[DeviceId]) -> Result<Self> {
        if keep.is_empty() {
            return Err(NeonSysError::InvalidConfig {
                what: "device subset must be non-empty".to_string(),
            });
        }
        for w in keep.windows(2) {
            if w[0].0 >= w[1].0 {
                return Err(NeonSysError::InvalidConfig {
                    what: format!("device subset must be sorted and unique, got {keep:?}"),
                });
            }
        }
        self.check_device(keep[keep.len() - 1])?;
        let devices = keep
            .iter()
            .map(|d| self.inner.devices[d.0].clone())
            .collect();
        Backend::new(
            self.inner.kind,
            devices,
            self.inner.topology.with_devices(keep),
        )
    }

    /// The backend with the peer link between `src` and `dst` severed
    /// (both directions): same devices, fresh ledgers, and the degraded
    /// topology of [`Topology::without_link`]. The fingerprint changes, so
    /// plans compiled for the healthy interconnect cannot be rebound.
    pub fn without_link(&self, src: DeviceId, dst: DeviceId) -> Result<Self> {
        self.check_device(src)?;
        self.check_device(dst)?;
        if src == dst {
            return Err(NeonSysError::InvalidConfig {
                what: "cannot sever a device's local link".to_string(),
            });
        }
        Backend::new(
            self.inner.kind,
            self.inner.devices.clone(),
            self.inner.topology.without_link(src, dst),
        )
    }

    /// The backend with the peer link between `src` and `dst` degraded to
    /// `factor` of its bandwidth (both directions); see
    /// [`Topology::with_degraded_link`].
    pub fn with_degraded_link(&self, src: DeviceId, dst: DeviceId, factor: f64) -> Result<Self> {
        self.check_device(src)?;
        self.check_device(dst)?;
        if src == dst || !factor.is_finite() || factor <= 0.0 || factor > 1.0 {
            return Err(NeonSysError::InvalidConfig {
                what: format!(
                    "link degrade needs two distinct devices and a factor in (0, 1], \
                     got {}<->{} at {factor}",
                    src.0, dst.0
                ),
            });
        }
        Backend::new(
            self.inner.kind,
            self.inner.devices.clone(),
            self.inner.topology.with_degraded_link(src, dst, factor),
        )
    }

    /// Validate a device id against this backend.
    pub fn check_device(&self, d: DeviceId) -> Result<()> {
        if d.0 < self.num_devices() {
            Ok(())
        } else {
            Err(NeonSysError::InvalidDevice {
                device: d,
                num_devices: self.num_devices(),
            })
        }
    }

    /// Whether concurrent kernels on one device are allowed.
    ///
    /// The CPU back end is modelled with a single queue (paper: "we limit
    /// the system to only one kernel at the time").
    pub fn concurrent_kernels(&self) -> bool {
        self.inner.kind == BackendKind::Gpu
    }

    /// Stable fingerprint of the hardware configuration: backend kind, every
    /// device's performance parameters, and the topology fingerprint.
    ///
    /// Two backends with the same fingerprint time every kernel and transfer
    /// identically, so a compiled plan keyed on this value is reusable across
    /// them. Memory-ledger *state* deliberately stays out of the hash. A
    /// backend is immutable, so the hash is computed once, at construction;
    /// a plan-cache lookup reads it without touching the link matrix.
    pub fn fingerprint(&self) -> u64 {
        self.inner.fingerprint
    }
}

fn fingerprint_of(kind: BackendKind, devices: &[DeviceModel], topology: &Topology) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = crate::hash::StableHasher::new();
    h.write_u8(match kind {
        BackendKind::Gpu => 0,
        BackendKind::Cpu => 1,
    });
    h.write_u64(devices.len() as u64);
    for d in devices {
        d.name.hash(&mut h);
        h.write_u8(match d.kind {
            crate::device::DeviceKind::Gpu => 0,
            crate::device::DeviceKind::Cpu => 1,
        });
        h.write_u64(d.mem_bandwidth_gb_s.to_bits());
        h.write_u64(d.peak_gflop_s.to_bits());
        h.write_u64(d.kernel_launch_us.to_bits());
        h.write_u64(d.sync_overhead_us.to_bits());
        h.write_u64(d.mem_capacity_bytes);
    }
    h.write_u64(topology.fingerprint());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::LinkKind;

    #[test]
    fn dgx_preset() {
        let b = Backend::dgx_a100(8);
        assert_eq!(b.num_devices(), 8);
        assert_eq!(b.kind(), BackendKind::Gpu);
        assert_eq!(
            b.topology().link(DeviceId(0), DeviceId(7)).kind,
            LinkKind::NvLink
        );
        assert!(b.concurrent_kernels());
        assert_eq!(b.ledger(DeviceId(3)).capacity(), 40 << 30);
    }

    #[test]
    fn pcie_preset() {
        let b = Backend::gv100_pcie(4);
        assert_eq!(
            b.topology().link(DeviceId(1), DeviceId(2)).kind,
            LinkKind::PciE3
        );
    }

    #[test]
    fn islands_preset() {
        let b = Backend::dgx_islands(&[2, 2]);
        assert_eq!(b.num_devices(), 4);
        assert_eq!(
            b.topology().link(DeviceId(0), DeviceId(1)).kind,
            LinkKind::NvLink
        );
        assert_eq!(
            b.topology().link(DeviceId(1), DeviceId(2)).kind,
            LinkKind::PciE3
        );
        assert_eq!(b.topology().islands().len(), 2);
        assert_ne!(b.fingerprint(), Backend::dgx_a100(4).fingerprint());
        assert_ne!(b.fingerprint(), Backend::gv100_pcie(4).fingerprint());
    }

    #[test]
    fn cpu_preset_single_queue() {
        let b = Backend::cpu();
        assert_eq!(b.num_devices(), 1);
        assert!(!b.concurrent_kernels());
    }

    #[test]
    fn mismatched_topology_rejected() {
        let err = Backend::new(
            BackendKind::Gpu,
            vec![DeviceModel::a100_40gb(); 3],
            Topology::nvlink_all_to_all(2, 1555.0),
        )
        .unwrap_err();
        assert!(matches!(err, NeonSysError::InvalidConfig { .. }));
    }

    #[test]
    fn empty_backend_rejected() {
        let err = Backend::new(
            BackendKind::Gpu,
            vec![],
            Topology::nvlink_all_to_all(1, 1555.0),
        )
        .unwrap_err();
        assert!(matches!(err, NeonSysError::InvalidConfig { .. }));
    }

    #[test]
    fn check_device_bounds() {
        let b = Backend::dgx_a100(2);
        assert!(b.check_device(DeviceId(1)).is_ok());
        assert!(b.check_device(DeviceId(2)).is_err());
    }

    #[test]
    fn fingerprint_stable_and_sensitive() {
        assert_eq!(
            Backend::dgx_a100(2).fingerprint(),
            Backend::dgx_a100(2).fingerprint()
        );
        assert_ne!(
            Backend::dgx_a100(2).fingerprint(),
            Backend::dgx_a100(4).fingerprint()
        );
        assert_ne!(
            Backend::dgx_a100(2).fingerprint(),
            Backend::gv100_pcie(2).fingerprint()
        );
        assert_ne!(
            Backend::cpu().fingerprint(),
            Backend::dgx_a100(1).fingerprint()
        );
    }

    #[test]
    fn without_device_renumbers_survivors() {
        let b = Backend::dgx_a100(4);
        let evicted = b.without_device(DeviceId(1)).unwrap();
        assert_eq!(evicted.num_devices(), 3);
        assert_eq!(evicted.topology().num_devices(), 3);
        // Survivors keep their models and their links stay NVLink.
        assert_eq!(evicted.device(DeviceId(2)).name, b.device(DeviceId(3)).name);
        assert_eq!(
            evicted.topology().link(DeviceId(0), DeviceId(2)).kind,
            LinkKind::NvLink
        );
        // Eviction changes the fingerprint, so cached plans cannot rebind.
        assert_ne!(evicted.fingerprint(), b.fingerprint());
        assert_eq!(evicted.fingerprint(), Backend::dgx_a100(3).fingerprint());
    }

    #[test]
    fn without_device_rejects_bad_evictions() {
        let b = Backend::dgx_a100(2);
        assert!(b.without_device(DeviceId(5)).is_err());
        let one = b.without_device(DeviceId(0)).unwrap();
        assert!(one.without_device(DeviceId(0)).is_err());
    }

    #[test]
    fn without_device_preserves_host_link() {
        let b = Backend::gv100_pcie(3);
        let evicted = b.without_device(DeviceId(0)).unwrap();
        assert_eq!(
            evicted.topology().host_link().kind,
            b.topology().host_link().kind
        );
        assert_eq!(
            evicted.topology().link(DeviceId(0), DeviceId(1)).kind,
            LinkKind::PciE3
        );
    }

    #[test]
    fn without_link_keeps_devices_and_changes_fingerprint() {
        let b = Backend::dgx_islands(&[2, 2]);
        let cut = b.without_link(DeviceId(0), DeviceId(1)).unwrap();
        assert_eq!(cut.num_devices(), 4);
        assert_eq!(
            cut.topology().link(DeviceId(0), DeviceId(1)).kind,
            LinkKind::PciE3
        );
        // The first box split into singletons; the second is intact.
        assert_eq!(cut.topology().islands().len(), 3);
        assert_ne!(cut.fingerprint(), b.fingerprint());
        assert!(b.without_link(DeviceId(1), DeviceId(1)).is_err());
        assert!(b.without_link(DeviceId(0), DeviceId(9)).is_err());
    }

    #[test]
    fn with_degraded_link_keeps_kind_and_changes_fingerprint() {
        let b = Backend::dgx_a100(4);
        let slow = b.with_degraded_link(DeviceId(0), DeviceId(1), 0.5).unwrap();
        assert_eq!(
            slow.topology().link(DeviceId(0), DeviceId(1)).kind,
            LinkKind::NvLink
        );
        assert_ne!(slow.fingerprint(), b.fingerprint());
        assert!(b.with_degraded_link(DeviceId(0), DeviceId(1), 0.0).is_err());
        assert!(b.with_degraded_link(DeviceId(0), DeviceId(1), 1.5).is_err());
        assert!(b.with_degraded_link(DeviceId(2), DeviceId(2), 0.5).is_err());
    }

    #[test]
    fn with_devices_equal_size_subsets_share_fingerprint() {
        let fleet = Backend::dgx_a100(4);
        let a = fleet.with_devices(&[DeviceId(0), DeviceId(1)]).unwrap();
        let b = fleet.with_devices(&[DeviceId(2), DeviceId(3)]).unwrap();
        assert_eq!(a.num_devices(), 2);
        // Homogeneous fleet: any equal-size subset is plan-compatible.
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), Backend::dgx_a100(2).fingerprint());
        assert_ne!(a.fingerprint(), fleet.fingerprint());
        // Subsets get fresh ledgers, not the fleet's.
        assert_eq!(a.ledger(DeviceId(0)).capacity(), 40 << 30);
    }

    #[test]
    fn with_devices_rejects_bad_subsets() {
        let fleet = Backend::dgx_a100(4);
        assert!(fleet.with_devices(&[]).is_err());
        assert!(fleet.with_devices(&[DeviceId(1), DeviceId(1)]).is_err());
        assert!(fleet.with_devices(&[DeviceId(2), DeviceId(1)]).is_err());
        assert!(fleet.with_devices(&[DeviceId(0), DeviceId(4)]).is_err());
    }

    #[test]
    fn with_devices_preserves_links_of_kept_devices() {
        let fleet = Backend::gv100_pcie(4);
        let sub = fleet.with_devices(&[DeviceId(1), DeviceId(3)]).unwrap();
        assert_eq!(
            sub.topology().link(DeviceId(0), DeviceId(1)).kind,
            LinkKind::PciE3
        );
        assert_eq!(
            sub.topology().host_link().kind,
            fleet.topology().host_link().kind
        );
    }

    #[test]
    fn device_ids_iterates_all() {
        let b = Backend::dgx_a100(3);
        let ids: Vec<_> = b.device_ids().collect();
        assert_eq!(ids, vec![DeviceId(0), DeviceId(1), DeviceId(2)]);
    }
}
