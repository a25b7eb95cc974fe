//! Integration tests for the serving layer: bit-identity under
//! multiplexing, weighted fairness, admission shedding, device-loss
//! recovery, and cross-tenant plan sharing.

use neon_apps::JobSpec;
use neon_core::{ExecReport, OccLevel, SkeletonOptions};
use neon_serve::{
    solo_run_bits, DeviceLoss, JobRequest, LinkFault, SchedPolicy, ServeConfig, Server, TenantSpec,
};
use neon_sys::{Backend, DeviceId};

fn options() -> SkeletonOptions {
    SkeletonOptions::with_occ(OccLevel::Standard)
}

fn poisson(dim: u32, iters: u64, rhs_seed: u64) -> JobSpec {
    JobSpec::Poisson {
        dim,
        iters,
        rhs_seed,
    }
}

fn lbm(dim: u32, iters: u64) -> JobSpec {
    JobSpec::Lbm { dim, iters }
}

/// A mixed request stream: two tenants interleaving Poisson and LBM jobs
/// of different sizes and device counts.
fn mixed_requests() -> Vec<JobRequest> {
    vec![
        JobRequest {
            tenant: 0,
            spec: poisson(8, 6, 11),
            ndev: 1,
            arrival_us: 0.0,
        },
        JobRequest {
            tenant: 1,
            spec: poisson(10, 5, 23),
            ndev: 2,
            arrival_us: 5.0,
        },
        JobRequest {
            tenant: 0,
            spec: lbm(6, 8),
            ndev: 1,
            arrival_us: 10.0,
        },
        JobRequest {
            tenant: 1,
            spec: poisson(8, 7, 31),
            ndev: 1,
            arrival_us: 12.0,
        },
        JobRequest {
            tenant: 0,
            spec: poisson(10, 4, 7),
            ndev: 2,
            arrival_us: 40.0,
        },
    ]
}

#[test]
fn multiplexed_jobs_are_bit_identical_to_solo_runs() {
    let fleet = Backend::dgx_a100(4);
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0), TenantSpec::new("b", 2.0)],
        ServeConfig {
            quantum_iters: 2,
            ..ServeConfig::default()
        },
    );
    let report = server.run(mixed_requests());

    assert_eq!(report.shed, 0);
    for o in &report.outcomes {
        assert!(o.completed, "every job should finish: {:?}", o.spec);
        let solo = solo_run_bits(
            &fleet,
            o.spec,
            o.first_ndev.expect("ran"),
            options(),
            &o.evictions,
        )
        .expect("solo replay");
        assert_eq!(
            o.result_bits,
            Some(solo),
            "multiplexed result must match solo run for {:?}",
            o.spec
        );
    }
    // The shared plan cache should have served repeat compiles: five jobs,
    // but only a handful of distinct (program, fingerprint) keys.
    assert!(
        report.cache_hits > 0,
        "expected cross-job plan-cache hits, got {} hits / {} misses",
        report.cache_hits,
        report.cache_misses
    );
}

/// Per-tenant accounting is the sum of the tenant's quantum reports, so it
/// must equal the sum of its jobs' solo `advance(total)` reports — the
/// cg-init setup a Poisson job folds into its first quantum included.
#[test]
fn tenant_accounts_sum_their_jobs_solo_reports() {
    let fleet = Backend::dgx_a100(4);
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0), TenantSpec::new("b", 2.0)],
        ServeConfig {
            quantum_iters: 2,
            ..ServeConfig::default()
        },
    );
    let report = server.run(mixed_requests());

    let mut solo = vec![ExecReport::default(); report.tenants.len()];
    for o in &report.outcomes {
        assert!(o.completed && o.evictions.is_empty(), "{:?}", o.spec);
        let subset: Vec<DeviceId> = (0..o.first_ndev.expect("ran")).map(DeviceId).collect();
        let backend = fleet.with_devices(&subset).unwrap();
        let mut job = o.spec.build(&backend, options()).unwrap();
        solo[o.tenant].accumulate(job.advance(job.total()));
    }
    for (t, s) in report.tenants.iter().zip(&solo) {
        assert_eq!(t.launches, s.launches, "launches of {}", t.name);
        assert_eq!(t.bytes_moved, s.bytes_moved, "bytes of {}", t.name);
        let link_us = s.link_busy.as_us();
        assert!(link_us > 0.0, "{} runs 2-device jobs", t.name);
        assert!(
            (t.link_busy_us - link_us).abs() <= 1e-9 * link_us,
            "link busy of {}: {} vs solo {link_us}",
            t.name,
            t.link_busy_us
        );
    }
}

#[test]
fn weighted_fair_queueing_tracks_weights() {
    let fleet = Backend::dgx_a100(2);
    // Two backlogged tenants, weight 1 vs 3, each submitting a long train
    // of identical single-device jobs at t=0: service should split ~1:3.
    let mut requests = Vec::new();
    for i in 0..8 {
        requests.push(JobRequest {
            tenant: 0,
            spec: poisson(8, 6, 100 + i),
            ndev: 1,
            arrival_us: 0.0,
        });
        requests.push(JobRequest {
            tenant: 1,
            spec: poisson(8, 6, 200 + i),
            ndev: 1,
            arrival_us: 0.0,
        });
    }
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("light", 1.0), TenantSpec::new("heavy", 3.0)],
        ServeConfig {
            queue_capacity: 64,
            quantum_iters: 2,
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    // Both tenants are fully served (equal finite demand), so *end-state*
    // service is equal by construction — weighted fairness shows up in
    // *when* service was delivered. The weight-3 tenant must drain its
    // jobs markedly earlier and wait less overall than the weight-1 one.
    let light = &report.tenants[0];
    let heavy = &report.tenants[1];
    assert!(light.jobs_completed == 8 && heavy.jobs_completed == 8);
    let mean_finish = |tenant: usize| -> f64 {
        let f: Vec<f64> = report
            .outcomes
            .iter()
            .filter(|o| o.tenant == tenant)
            .map(|o| o.finish_us.expect("completed"))
            .collect();
        f.iter().sum::<f64>() / f.len() as f64
    };
    assert!(
        mean_finish(1) * 1.2 < mean_finish(0),
        "heavy tenant should drain sooner: heavy {:.0}us vs light {:.0}us",
        mean_finish(1),
        mean_finish(0)
    );
    assert!(
        heavy.queue_wait_us < light.queue_wait_us,
        "heavy tenant waited {:.0}us, light {:.0}us",
        heavy.queue_wait_us,
        light.queue_wait_us
    );
}

#[test]
fn admission_control_sheds_past_queue_capacity() {
    let fleet = Backend::dgx_a100(2);
    // Ten simultaneous arrivals into a queue of 3: some must be shed, and
    // shed jobs never run.
    let requests: Vec<JobRequest> = (0..10)
        .map(|i| JobRequest {
            tenant: 0,
            spec: poisson(8, 4, i),
            ndev: 2,
            arrival_us: 0.0,
        })
        .collect();
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("only", 1.0)],
        ServeConfig {
            queue_capacity: 3,
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert!(report.shed > 0, "tiny queue must shed under a burst");
    assert_eq!(report.tenants[0].jobs_shed, report.shed);
    let completed = report.outcomes.iter().filter(|o| o.completed).count() as u64;
    assert_eq!(completed + report.shed, 10);
    for o in &report.outcomes {
        if !o.admitted {
            assert!(o.start_us.is_none() && o.result_bits.is_none());
        }
    }
}

#[test]
fn device_loss_survivors_match_solo_replay() {
    let fleet = Backend::dgx_a100(4);
    // A loss early enough that multi-device jobs are mid-flight. Device 1
    // dies; jobs pinned to it re-plan and must still produce solo bits.
    let requests = vec![
        JobRequest {
            tenant: 0,
            spec: poisson(10, 10, 5),
            ndev: 2,
            arrival_us: 0.0,
        },
        JobRequest {
            tenant: 1,
            spec: poisson(10, 10, 9),
            ndev: 2,
            arrival_us: 0.0,
        },
        JobRequest {
            tenant: 0,
            spec: lbm(6, 10),
            ndev: 1,
            arrival_us: 2.0,
        },
    ];
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0), TenantSpec::new("b", 1.0)],
        ServeConfig {
            quantum_iters: 3,
            device_loss: Some(DeviceLoss {
                at_us: 40.0,
                device: 1,
            }),
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert_eq!(report.device_losses, 1);
    let evicted: usize = report.outcomes.iter().map(|o| o.evictions.len()).sum();
    assert!(
        evicted > 0,
        "the loss must have forced at least one re-plan"
    );
    for o in &report.outcomes {
        assert!(o.completed, "every job must survive the loss: {:?}", o.spec);
        let solo = solo_run_bits(
            &fleet,
            o.spec,
            o.first_ndev.expect("ran"),
            options(),
            &o.evictions,
        )
        .expect("solo replay");
        assert_eq!(
            o.result_bits,
            Some(solo),
            "post-loss result must match eviction-replaying solo run for {:?}",
            o.spec
        );
    }
    // Aborted quantum time is charged as waste, not service.
    let wasted: f64 = report.tenants.iter().map(|t| t.wasted_device_us).sum();
    assert!(
        wasted > 0.0,
        "an in-flight quantum should have been aborted"
    );
}

/// The ordered dispatch index must reproduce WFQ's `(vtime, seq)` order
/// exactly. One device serializes dispatches, identical job specs give
/// every quantum the same virtual cost `d`, and weight 2 halves tenant 1's
/// vtime increments — halving is exact in f64, so the whole schedule is
/// hand-computable: t0 runs (v0: 0→d), then t1 twice (v1: 0→d/2→d), then
/// the (d, seq) tie goes to t0's seq 2, then t1's seq 5 (d < 2d), then t0.
#[test]
fn wfq_dispatch_order_is_hand_computable() {
    let fleet = Backend::dgx_a100(1);
    let requests: Vec<JobRequest> = (0..6)
        .map(|i| JobRequest {
            tenant: (i % 2) as usize,
            spec: poisson(8, 4, 300 + i),
            ndev: 1,
            arrival_us: 0.0,
        })
        .collect();
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("w1", 1.0), TenantSpec::new("w2", 2.0)],
        ServeConfig {
            queue_capacity: 16,
            quantum_iters: 64, // each job runs in one quantum
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert!(report.outcomes.iter().all(|o| o.completed));
    let mut starts: Vec<(f64, usize)> = report
        .outcomes
        .iter()
        .enumerate()
        .map(|(i, o)| (o.start_us.expect("ran"), i))
        .collect();
    starts.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    let order: Vec<usize> = starts.into_iter().map(|(_, i)| i).collect();
    assert_eq!(
        order,
        vec![0, 1, 3, 2, 5, 4],
        "WFQ dispatch order drifted from the hand-computed schedule"
    );
}

#[test]
fn fifo_baseline_serializes_and_wfq_beats_it_on_makespan() {
    let fleet = Backend::dgx_a100(4);
    let requests: Vec<JobRequest> = (0..6)
        .map(|i| JobRequest {
            tenant: (i % 2) as usize,
            spec: poisson(8, 6, 50 + i),
            ndev: 1,
            arrival_us: 0.0,
        })
        .collect();
    let tenants = || vec![TenantSpec::new("a", 1.0), TenantSpec::new("b", 1.0)];

    let fifo = Server::new(
        &fleet,
        tenants(),
        ServeConfig {
            policy: SchedPolicy::FifoExclusive,
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    )
    .run(requests.clone());
    let wfq = Server::new(
        &fleet,
        tenants(),
        ServeConfig {
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    )
    .run(requests);

    // FIFO runs one 1-device job at a time on a 4-device fleet; WFQ
    // space-shares four at once.
    assert!(fifo.outcomes.iter().all(|o| o.completed));
    assert!(wfq.outcomes.iter().all(|o| o.completed));
    assert!(
        wfq.makespan.as_us() * 1.3 < fifo.makespan.as_us(),
        "space sharing should beat exclusive FIFO by >1.3x: wfq {:.0}us fifo {:.0}us",
        wfq.makespan.as_us(),
        fifo.makespan.as_us()
    );
    // Same work either way: identical bits per submission index.
    for (a, b) in fifo.outcomes.iter().zip(wfq.outcomes.iter()) {
        assert_eq!(a.result_bits, b.result_bits);
    }
}

/// On a two-box island fleet the recorded collective route must track the
/// island structure of each job's pinned subset: subsets spanning both
/// islands route hierarchically, subsets inside one island stay flat —
/// and the routing never perturbs the bits.
#[test]
fn island_fleet_records_hierarchical_routes_and_stays_bit_identical() {
    use neon_core::CollectiveAlgorithm;

    let fleet = Backend::dgx_islands(&[4, 4]);
    // FIFO-exclusive pins each job to the first `ndev` fleet devices, so
    // the island split of every subset is known: 8 → [4,4], 5 → [4,1],
    // 4 → one whole island.
    let requests = vec![
        JobRequest {
            tenant: 0,
            spec: poisson(16, 6, 71),
            ndev: 8,
            arrival_us: 0.0,
        },
        JobRequest {
            tenant: 1,
            spec: poisson(10, 6, 72),
            ndev: 5,
            arrival_us: 1.0,
        },
        JobRequest {
            tenant: 0,
            spec: lbm(8, 6),
            ndev: 4,
            arrival_us: 2.0,
        },
    ];
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0), TenantSpec::new("b", 1.0)],
        ServeConfig {
            policy: SchedPolicy::FifoExclusive,
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);

    let routes: Vec<_> = report
        .outcomes
        .iter()
        .map(|o| o.collective_route.expect("every job ran"))
        .collect();
    assert_eq!(routes[0], CollectiveAlgorithm::Hierarchical, "8 over [4,4]");
    assert_eq!(routes[1], CollectiveAlgorithm::Hierarchical, "5 over [4,1]");
    assert_ne!(
        routes[2],
        CollectiveAlgorithm::Hierarchical,
        "4 inside one island is pure NVLink"
    );
    for o in &report.outcomes {
        assert!(o.completed);
        let solo = solo_run_bits(
            &fleet,
            o.spec,
            o.first_ndev.expect("ran"),
            options(),
            &o.evictions,
        )
        .expect("solo replay");
        assert_eq!(
            o.result_bits,
            Some(solo),
            "island-fleet result must match solo run for {:?}",
            o.spec
        );
    }
}

/// Severing the NVLink inside an island mid-run splits the island: the
/// job pinned across it aborts its in-flight quantum, re-plans on the
/// degraded fleet with the *same* devices, and its collective route flips
/// from hierarchical to a flat schedule — recorded as a [`RouteChange`] —
/// while the results stay bit-identical to a healthy solo run (link speed
/// never enters the numerics). The checkpoint that made the rollback
/// possible is priced on the virtual clock and charged to the tenant.
#[test]
fn link_fault_splits_island_reroutes_and_stays_bit_identical() {
    use neon_core::CollectiveAlgorithm;

    // Islands {0,1} and {2,3}; a 3-device job pins {0,1,2} under
    // FIFO-exclusive-style first-fit (it is the only job), straddling the
    // 0↔1 NVLink and the cross-island wire.
    let fleet = Backend::dgx_islands(&[2, 2]);
    let requests = vec![JobRequest {
        tenant: 0,
        spec: poisson(10, 12, 77),
        ndev: 3,
        arrival_us: 0.0,
    }];
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0)],
        ServeConfig {
            quantum_iters: 3,
            link_fault: Some(LinkFault {
                at_us: 40.0,
                src: 0,
                dst: 1,
                factor: None,
            }),
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert_eq!(report.link_faults, 1);
    assert_eq!(report.device_losses, 0);

    let o = &report.outcomes[0];
    assert!(o.completed);
    assert!(o.evictions.is_empty(), "no device died, no eviction");
    // The healthy {0,1},{2} subset routed hierarchically; the severed one
    // is three singleton islands and must have flipped to a flat schedule.
    assert_eq!(o.route_changes.len(), 1, "{:?}", o.route_changes);
    assert_eq!(o.route_changes[0].from, CollectiveAlgorithm::Hierarchical);
    assert_ne!(o.route_changes[0].to, CollectiveAlgorithm::Hierarchical);
    assert_eq!(o.collective_route, Some(o.route_changes[0].to));

    // Bit-identity against a *healthy* solo run with no migrations: the
    // repair kept every device, so the numerics never saw the fault.
    let solo = solo_run_bits(&fleet, o.spec, 3, options(), &[]).expect("solo replay");
    assert_eq!(o.result_bits, Some(solo));

    // The aborted quantum is charged as waste, and the checkpoints that
    // guarded it are priced in bytes and virtual microseconds.
    let t = &report.tenants[0];
    assert!(t.wasted_device_us > 0.0, "in-flight quantum aborted");
    assert!(t.checkpoint_bytes > 0, "captures staged state to the host");
    assert!(t.checkpoint_us > 0.0, "captures cost virtual time");
}

/// A bandwidth degrade re-plans without flipping the route when the link
/// class is unchanged: the job recompiles on the slower wire, records no
/// route change, and still matches the healthy solo bits.
#[test]
fn link_degrade_replans_without_route_change() {
    let fleet = Backend::dgx_a100(4);
    let requests = vec![JobRequest {
        tenant: 0,
        spec: poisson(10, 12, 81),
        ndev: 4,
        arrival_us: 0.0,
    }];
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0)],
        ServeConfig {
            quantum_iters: 3,
            link_fault: Some(LinkFault {
                at_us: 40.0,
                src: 1,
                dst: 2,
                factor: Some(0.25),
            }),
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert_eq!(report.link_faults, 1);
    let o = &report.outcomes[0];
    assert!(o.completed);
    assert!(
        o.route_changes.is_empty(),
        "degrading one NVLink of a flat single-island box keeps the route: {:?}",
        o.route_changes
    );
    let solo = solo_run_bits(&fleet, o.spec, 4, options(), &[]).expect("solo replay");
    assert_eq!(o.result_bits, Some(solo));
}

/// A device loss on an island fleet leaves an asymmetric survivor subset
/// (3+4 across the boxes); the re-plan must refresh the route to the
/// hierarchical schedule and the migrated job must still replay solo.
#[test]
fn island_survivor_subset_routes_hierarchical_after_loss() {
    use neon_core::CollectiveAlgorithm;

    let fleet = Backend::dgx_islands(&[4, 4]);
    let requests = vec![JobRequest {
        tenant: 0,
        spec: poisson(16, 12, 91),
        ndev: 8,
        arrival_us: 0.0,
    }];
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0)],
        ServeConfig {
            quantum_iters: 3,
            device_loss: Some(DeviceLoss {
                at_us: 40.0,
                device: 2,
            }),
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert_eq!(report.device_losses, 1);

    let o = &report.outcomes[0];
    assert!(o.completed);
    assert!(!o.evictions.is_empty(), "the loss must force a re-plan");
    assert_eq!(
        o.collective_route,
        Some(CollectiveAlgorithm::Hierarchical),
        "the 3+4 survivor subset straddles both islands"
    );
    let solo = solo_run_bits(
        &fleet,
        o.spec,
        o.first_ndev.expect("ran"),
        options(),
        &o.evictions,
    )
    .expect("solo replay");
    assert_eq!(o.result_bits, Some(solo));
}

/// A device loss and a link fault in one run, at different times, both
/// take the one fault path: each fires once, the loss re-plans the jobs
/// pinned to the dead device, and every job still replays solo — link
/// speed never enters the numerics, so the eviction history alone
/// reproduces the bits.
#[test]
fn compound_loss_and_link_fault_both_fire_and_replay_solo() {
    let fleet = Backend::dgx_a100(4);
    let requests: Vec<JobRequest> = (0..4)
        .map(|i| JobRequest {
            tenant: (i % 2) as usize,
            spec: poisson(10, 24, 200 + i),
            ndev: 2,
            arrival_us: i as f64,
        })
        .collect();
    let mut server = Server::new(
        &fleet,
        vec![TenantSpec::new("a", 1.0), TenantSpec::new("b", 1.0)],
        ServeConfig {
            quantum_iters: 3,
            device_loss: Some(DeviceLoss {
                at_us: 40.0,
                device: 1,
            }),
            link_fault: Some(LinkFault {
                at_us: 120.0,
                src: 2,
                dst: 3,
                factor: None,
            }),
            ..ServeConfig::default()
        },
    );
    let report = server.run(requests);
    assert_eq!(report.device_losses, 1);
    assert_eq!(report.link_faults, 1);
    let evicted: usize = report.outcomes.iter().map(|o| o.evictions.len()).sum();
    assert!(
        evicted > 0,
        "the loss must have forced at least one re-plan"
    );
    // The job pinned across the severed 2<->3 wire re-planned on the
    // re-wired fleet and changed its collective route.
    let rerouted: usize = report.outcomes.iter().map(|o| o.route_changes.len()).sum();
    assert!(rerouted > 0, "the link fault must have re-planned a job");
    for o in &report.outcomes {
        assert!(
            o.completed,
            "every job must survive both faults: {:?}",
            o.spec
        );
        let solo = solo_run_bits(
            &fleet,
            o.spec,
            o.first_ndev.expect("ran"),
            options(),
            &o.evictions,
        )
        .expect("solo replay");
        assert_eq!(
            o.result_bits,
            Some(solo),
            "compound-fault run of {:?}",
            o.spec
        );
    }
}

/// Splitmix-style generator: the load-sweep arrivals must be identical
/// run to run and policy to policy.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z ^= z >> 27;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival time with the given mean.
    fn exp(&mut self, mean: f64) -> f64 {
        let u = self.next_f64().clamp(1e-12, 1.0 - 1e-12);
        -mean * (1.0 - u).ln()
    }
}

/// The load gate. Three tenants weighted 1/2/4 offer a weight-proportional
/// mix of small Poisson and LBM jobs to a 4-device fleet as Poisson
/// arrivals at 0.5×, 1×, 2× and 4× fleet capacity (measured from solo
/// runs). Every job completed under WFQ and under exclusive FIFO matches
/// its solo run bit for bit; at 2× load WFQ sustains at least 1.3× FIFO's
/// throughput with Jain's index at least 0.9; and re-serving the 2×
/// stream with device 1 lost 30 % into it evicts, completes every
/// admitted job and stays bit-identical. Under `--nocapture` it prints
/// README's serving table.
#[test]
fn load_sweep_wfq_beats_fifo_fairly_and_survives_device_loss() {
    const NDEV: usize = 4;
    let fleet = Backend::dgx_a100(NDEV);
    let weights = [1.0, 2.0, 4.0];
    let tenants = || {
        vec![
            TenantSpec::new("bronze", 1.0),
            TenantSpec::new("silver", 2.0),
            TenantSpec::new("gold", 4.0),
        ]
    };
    let config = |policy, device_loss| ServeConfig {
        queue_capacity: 3,
        quantum_iters: 4,
        policy,
        device_loss,
        ..ServeConfig::default()
    };
    let mix = [
        (poisson(8, 8, 0), 1),
        (poisson(10, 6, 0), 2),
        (lbm(6, 8), 1),
    ];
    let demand_us = |&(spec, ndev): &(JobSpec, usize)| {
        let subset: Vec<DeviceId> = (0..ndev).map(DeviceId).collect();
        let backend = fleet.with_devices(&subset).unwrap();
        let mut job = spec.build(&backend, options()).unwrap();
        job.advance(job.total()).makespan.as_us() * ndev as f64
    };
    let mean_demand_us = mix.iter().map(demand_us).sum::<f64>() / mix.len() as f64;
    let requests = |load: f64| {
        let wsum: f64 = weights.iter().sum();
        let mut reqs = Vec::new();
        for (t, &w) in weights.iter().enumerate() {
            // Each tenant offers its weight's share of `load` × capacity,
            // over the same virtual window whatever its weight.
            let rate = load * NDEV as f64 * (w / wsum) / mean_demand_us;
            let n = ((4.0 * load * 3.0 * w / wsum).round() as usize).max(2);
            let seed = 0x5EED + 1009 * t as u64 + (load * 16.0) as u64;
            let mut rng = Rng(seed ^ 0x243F_6A88_85A3_08D3);
            let mut at = 0.0;
            for j in 0..n {
                at += rng.exp(1.0 / rate);
                let (spec, ndev) = mix[(t + j) % mix.len()];
                let spec = match spec {
                    JobSpec::Poisson { dim, iters, .. } => {
                        poisson(dim, iters, ((t as u64) << 32) | j as u64)
                    }
                    lbm => lbm,
                };
                reqs.push(JobRequest {
                    tenant: t,
                    spec,
                    ndev,
                    arrival_us: at,
                });
            }
        }
        reqs
    };
    // WFQ and FIFO serve the same streams, so most solo replays repeat:
    // run each (spec, devices, evictions) once.
    let solo = std::cell::RefCell::new(Vec::new());
    let assert_solo_bits = |report: &neon_serve::ServeReport| {
        for o in report.outcomes.iter().filter(|o| o.completed) {
            let key = (
                o.spec,
                o.first_ndev.expect("completed jobs ran"),
                o.evictions.clone(),
            );
            let known = solo.borrow().iter().find(|(k, _)| *k == key).map(|e| e.1);
            let bits = known.unwrap_or_else(|| {
                let bits = solo_run_bits(&fleet, key.0, key.1, options(), &key.2).unwrap();
                solo.borrow_mut().push((key, bits));
                bits
            });
            assert_eq!(o.result_bits, Some(bits), "{:?} diverges from solo", o.spec);
        }
    };

    let print_row = |load: f64, policy: &str, report: &neon_serve::ServeReport| {
        let done = report.outcomes.iter().filter(|o| o.completed).count();
        let (p50, p99) = report.latency_percentiles_us();
        println!(
            "| {load}× | {policy} | {done} / {} | {} | {:.1} | {p50:.0} | {p99:.0} | {:.3} |",
            report.outcomes.len(),
            report.shed,
            report.jobs_per_sec(),
            report.jain_fairness()
        );
    };
    for load in [0.5, 1.0, 2.0, 4.0] {
        let serve = |policy| {
            let report = Server::new(&fleet, tenants(), config(policy, None)).run(requests(load));
            assert_solo_bits(&report);
            report
        };
        let wfq = serve(SchedPolicy::WeightedFair);
        let fifo = serve(SchedPolicy::FifoExclusive);
        print_row(load, "wfq", &wfq);
        print_row(load, "fifo", &fifo);
        if load == 2.0 {
            let speedup = wfq.jobs_per_sec() / fifo.jobs_per_sec();
            assert!(speedup >= 1.3, "wfq/fifo throughput at 2x = {speedup:.2}");
            let jain = wfq.jain_fairness();
            assert!(jain >= 0.9, "Jain's index at 2x = {jain:.3}");

            let loss = DeviceLoss {
                at_us: wfq.makespan.as_us() * 0.3,
                device: 1,
            };
            let lossy = Server::new(
                &fleet,
                tenants(),
                config(SchedPolicy::WeightedFair, Some(loss)),
            )
            .run(requests(load));
            assert_solo_bits(&lossy);
            print_row(load, "wfq, device 1 lost", &lossy);
            assert!(lossy.outcomes.iter().any(|o| !o.evictions.is_empty()));
            assert!(lossy.outcomes.iter().all(|o| o.completed || !o.admitted));
        }
    }
}
