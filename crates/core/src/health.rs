//! Deterministic device-health tracking: straggler detection over the
//! virtual clock.
//!
//! A *straggler* is a device that is consistently slower than its peers —
//! thermal throttling, a flaky VRM, a neighbour hammering the same PCIe
//! switch. On real clusters stragglers are detected from noisy wall-clock
//! samples; here every kernel span comes off the deterministic virtual
//! clock (each execution's per-device kernel busy time, which a
//! [`crate::Skeleton`] feeds its monitor), so the monitor's
//! entire history — EWMAs, flag decisions, re-weighting — is bit-identical
//! across runs and can be asserted in tests.
//!
//! The pieces:
//!
//! * [`StragglerMonitor`] folds one per-device kernel-busy sample per
//!   iteration into an exponentially-weighted moving average (EWMA).
//! * [`HealthReport`] is the monitor's snapshot: per-device EWMAs, the
//!   fleet mean, and which devices the policy currently flags.
//! * [`StragglerPolicy`] turns a report into action: it decides when a
//!   deviation is worth reacting to and computes a re-weighted partition
//!   share per device (slow devices get proportionally less work), which
//!   a scheduler can apply at the next replan boundary.
//!
//! The monitor deliberately has no opinion about *why* a device is slow.
//! Permanent faults (device loss, link loss) surface through
//! [`crate::ExecError`] and the recovery tiers; the monitor covers the
//! gray zone below them — the device still answers, just late.

use neon_sys::{DeviceId, SimTime};

/// When to flag a straggler and how hard to shift work away from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerPolicy {
    /// EWMA weight of the newest sample, in `(0, 1]`. Higher reacts
    /// faster; 1.0 degenerates to "last sample only".
    pub alpha: f64,
    /// A device is flagged when its EWMA exceeds `threshold ×` the fleet
    /// mean (must be `> 1`).
    pub threshold: f64,
    /// Samples to accumulate before flagging anything — the EWMA needs a
    /// few iterations to forget its zero start.
    pub min_samples: u64,
    /// Lower bound on a re-weighted share, in `(0, 1]`: even a badly
    /// lagging device keeps this fraction of an even split, because
    /// shrinking a partition to nothing just moves the bottleneck to
    /// halo surface area.
    pub floor: f64,
}

impl Default for StragglerPolicy {
    fn default() -> Self {
        StragglerPolicy {
            alpha: 0.25,
            threshold: 1.25,
            min_samples: 4,
            floor: 0.5,
        }
    }
}

impl StragglerPolicy {
    /// Panics unless every knob is in range.
    pub fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha <= 1.0,
            "EWMA alpha must be in (0, 1]"
        );
        assert!(self.threshold > 1.0, "straggler threshold must exceed 1");
        assert!(
            self.floor > 0.0 && self.floor <= 1.0,
            "share floor must be in (0, 1]"
        );
    }
}

/// A deterministic snapshot of fleet health.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Per-device EWMA of kernel busy time, µs, indexed by rank.
    pub ewma_us: Vec<f64>,
    /// Mean of `ewma_us` over the fleet.
    pub mean_us: f64,
    /// Devices the policy currently flags, ascending by rank. Empty while
    /// the monitor is still warming up.
    pub stragglers: Vec<DeviceId>,
    /// Samples folded in so far (one per observed iteration).
    pub samples: u64,
    /// Re-weighted partition shares, normalized to mean 1.0: a device with
    /// share 0.8 should own 80% of an even split's cells. All 1.0 while
    /// warming up or when nothing is flagged.
    pub shares: Vec<f64>,
}

impl HealthReport {
    /// Whether the policy currently wants a repartition.
    pub fn wants_rebalance(&self) -> bool {
        !self.stragglers.is_empty()
    }
}

/// EWMA-based straggler detector. Feed it one per-device kernel-busy
/// sample per iteration ([`crate::Skeleton::enable_straggler_monitor`]
/// does so on every run).
#[derive(Debug, Clone)]
pub struct StragglerMonitor {
    policy: StragglerPolicy,
    ewma_us: Vec<f64>,
    samples: u64,
}

impl StragglerMonitor {
    /// A monitor over `ndev` devices. Panics on an out-of-range policy.
    pub fn new(ndev: usize, policy: StragglerPolicy) -> Self {
        policy.validate();
        assert!(ndev > 0, "monitor needs at least one device");
        StragglerMonitor {
            policy,
            ewma_us: vec![0.0; ndev],
            samples: 0,
        }
    }

    /// The policy this monitor judges against.
    pub fn policy(&self) -> StragglerPolicy {
        self.policy
    }

    /// Samples folded in so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Fold one iteration's per-device kernel busy times into the EWMA.
    /// The first sample seeds the average directly (no zero bias).
    pub fn observe(&mut self, spans: &[SimTime]) {
        assert_eq!(
            spans.len(),
            self.ewma_us.len(),
            "sample width must match the fleet"
        );
        let a = self.policy.alpha;
        for (e, s) in self.ewma_us.iter_mut().zip(spans) {
            let us = s.as_us();
            *e = if self.samples == 0 {
                us
            } else {
                a * us + (1.0 - a) * *e
            };
        }
        self.samples += 1;
    }

    /// Snapshot health: EWMAs, flags, and the policy's re-weighted shares.
    pub fn report(&self) -> HealthReport {
        let n = self.ewma_us.len();
        let mean_us = self.ewma_us.iter().sum::<f64>() / n as f64;
        let warmed = self.samples >= self.policy.min_samples;
        let stragglers: Vec<DeviceId> = if warmed && mean_us > 0.0 {
            self.ewma_us
                .iter()
                .enumerate()
                .filter(|(_, &e)| e > self.policy.threshold * mean_us)
                .map(|(d, _)| DeviceId(d))
                .collect()
        } else {
            Vec::new()
        };
        // Shares are inverse-EWMA, floored, then renormalized to mean 1 so
        // the total cell count is conserved. Only computed once something
        // is flagged: constant small jitter must not thrash the partition.
        let shares = if stragglers.is_empty() {
            vec![1.0; n]
        } else {
            let raw: Vec<f64> = self
                .ewma_us
                .iter()
                .map(|&e| (mean_us / e).max(self.policy.floor))
                .collect();
            let scale = n as f64 / raw.iter().sum::<f64>();
            raw.iter().map(|r| r * scale).collect()
        };
        HealthReport {
            ewma_us: self.ewma_us.clone(),
            mean_us,
            stragglers,
            samples: self.samples,
            shares,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: f64) -> SimTime {
        SimTime::from_us(v)
    }

    #[test]
    fn warmup_never_flags() {
        let mut m = StragglerMonitor::new(4, StragglerPolicy::default());
        for _ in 0..3 {
            m.observe(&[us(100.0), us(100.0), us(100.0), us(500.0)]);
            assert!(m.report().stragglers.is_empty(), "still warming up");
            assert_eq!(m.report().shares, vec![1.0; 4]);
        }
        m.observe(&[us(100.0), us(100.0), us(100.0), us(500.0)]);
        assert_eq!(m.report().stragglers, vec![DeviceId(3)]);
    }

    #[test]
    fn balanced_fleet_stays_unflagged_and_unweighted() {
        let mut m = StragglerMonitor::new(4, StragglerPolicy::default());
        for i in 0..16 {
            let v = 100.0 + (i % 3) as f64; // small deterministic jitter
            m.observe(&[us(v); 4]);
        }
        let r = m.report();
        assert!(r.stragglers.is_empty());
        assert!(!r.wants_rebalance());
        assert_eq!(r.shares, vec![1.0; 4]);
    }

    #[test]
    fn straggler_share_shrinks_and_total_is_conserved() {
        let mut m = StragglerMonitor::new(4, StragglerPolicy::default());
        for _ in 0..8 {
            m.observe(&[us(100.0), us(100.0), us(100.0), us(300.0)]);
        }
        let r = m.report();
        assert_eq!(r.stragglers, vec![DeviceId(3)]);
        assert!(r.shares[3] < 1.0, "flagged device sheds work");
        assert!(r.shares[0] > 1.0, "healthy peers absorb it");
        let total: f64 = r.shares.iter().sum();
        assert!((total - 4.0).abs() < 1e-12, "cells conserved: {total}");
        // mean=150: raw shares are (1.5, 1.5, 1.5, max(0.5, 0.5)) — the
        // floor binds exactly — then ×4/5 renormalization gives 0.4.
        assert!((r.shares[3] - 0.4).abs() < 1e-12, "{}", r.shares[3]);
    }

    #[test]
    fn ewma_history_is_deterministic() {
        let run = || {
            let mut m = StragglerMonitor::new(2, StragglerPolicy::default());
            for i in 0..32u64 {
                let v = 100.0 + (i * 37 % 11) as f64;
                m.observe(&[us(v), us(v * 1.5)]);
            }
            m.report()
        };
        assert_eq!(run(), run(), "bit-identical health history");
    }

    #[test]
    fn recovery_unflags_after_the_ewma_catches_up() {
        let mut m = StragglerMonitor::new(2, StragglerPolicy::default());
        for _ in 0..8 {
            m.observe(&[us(100.0), us(400.0)]);
        }
        assert_eq!(m.report().stragglers, vec![DeviceId(1)]);
        // The device recovers; alpha=0.25 needs a few samples to forgive.
        for _ in 0..16 {
            m.observe(&[us(100.0), us(100.0)]);
        }
        let r = m.report();
        assert!(r.stragglers.is_empty(), "recovered: {:?}", r.ewma_us);
        assert_eq!(r.shares, vec![1.0; 2]);
    }

    #[test]
    #[should_panic(expected = "sample width")]
    fn sample_width_is_checked() {
        let mut m = StragglerMonitor::new(3, StragglerPolicy::default());
        m.observe(&[us(1.0); 2]);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn policy_is_validated() {
        StragglerMonitor::new(
            2,
            StragglerPolicy {
                threshold: 0.9,
                ..StragglerPolicy::default()
            },
        );
    }
}
