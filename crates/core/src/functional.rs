//! The functional replay: running a compiled plan's compute lambdas over
//! the partition data.
//!
//! In the default [`FunctionalMode::Parallel`] mode a persistent
//! per-device [`WorkerPool`] walks the compiled [`DevicePlan`]: each
//! worker executes *its* device's steps in schedule order and synchronizes
//! with the other workers through atomic event slots exactly where the
//! event table says to wait — so internal kernels, boundary kernels and
//! halo copies really overlap on the host, mirroring the virtual-clock
//! model (paper §IV-D). The [`FunctionalMode::Serial`] reference walks
//! tasks strictly in order on the calling thread; parity tests pin the two
//! bit for bit.
//!
//! The serial walk also runs the *prefix* of an iteration whose fault
//! escaped retry: the timing replay reports where it stopped (an
//! [`Abort`]), and the walk runs exactly what came before that point.
//!
//! [`FunctionalMode::Parallel`]: crate::FunctionalMode::Parallel
//! [`FunctionalMode::Serial`]: crate::FunctionalMode::Serial

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use neon_sys::{DeviceId, WorkerPool};

use crate::devplan::{DevAction, DevicePlan};
use crate::exec::ExecError;
use crate::graph::{Graph, NodeKind};
use crate::plan::CompiledPlan;
use crate::timing::Abort;

/// Iterations a waiter spins before parking on the condvar, scaled to
/// the host: with enough cores to run every device worker concurrently,
/// slots are signaled microseconds apart and a longer spin catches them
/// without two context switches per dependency edge; on an oversubscribed
/// host spinning steals cycles from the very worker being waited for, so
/// the budget collapses (to zero on a single core).
fn wait_spin() -> usize {
    match neon_sys::host_cores() {
        0 | 1 => 0,
        2 | 3 => 64,
        _ => 512,
    }
}

/// The event table of the parallel functional replay: one atomic epoch
/// counter per [`DevicePlan`] slot.
///
/// A slot stores the replay epoch in which it was last signaled; a waiter
/// for epoch `e` proceeds once the slot holds `>= e`. Nothing is ever
/// cleared — bumping the epoch invalidates all slots at once, which also
/// makes slots left behind by a panicked (poisoned) replay harmless.
struct EventSlots {
    slots: Vec<AtomicU64>,
    lock: Mutex<()>,
    cv: Condvar,
    poisoned: AtomicBool,
}

impl EventSlots {
    fn new(n: usize) -> Self {
        EventSlots {
            slots: (0..n).map(|_| AtomicU64::new(0)).collect(),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
        }
    }

    fn signal(&self, slot: usize, epoch: u64) {
        self.slots[slot].store(epoch, Ordering::Release);
        // The empty critical section pairs with the waiter's
        // check-then-wait under the same lock: no lost wakeups. The lock
        // guards no data, so a poisoned mutex (a worker panicked while
        // holding it) is harmless — take it anyway.
        drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }

    /// Wait until `slot` reaches `epoch`. Returns false if the replay was
    /// poisoned by a panicking worker — the caller must abandon its walk.
    fn wait(&self, slot: usize, epoch: u64) -> bool {
        for _ in 0..wait_spin() {
            if self.slots[slot].load(Ordering::Acquire) >= epoch {
                return true;
            }
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if self.slots[slot].load(Ordering::Acquire) >= epoch {
                return true;
            }
            if self.poisoned.load(Ordering::Acquire) {
                return false;
            }
            // The timeout is belt-and-braces only; the signal-side lock
            // bracket already rules out lost wakeups.
            let (g, _) = self
                .cv
                .wait_timeout(guard, Duration::from_millis(1))
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }

    fn clear_poison(&self) {
        self.poisoned.store(false, Ordering::Release);
    }
}

/// The parallel replay's state, kept across executions: the worker pool,
/// the event slots it synchronizes on, and the current epoch.
pub(crate) struct ParallelReplay {
    /// Persistent per-device workers, spawned on the first parallel
    /// replay and parked between jobs.
    pool: Option<WorkerPool>,
    /// Event slots, sized to the device plan.
    events: EventSlots,
    /// Current replay epoch (bumped once per parallel replay).
    epoch: u64,
}

impl ParallelReplay {
    /// Replay state for `devplan`; no worker is spawned until the first
    /// replay.
    pub(crate) fn new(devplan: &DevicePlan) -> Self {
        ParallelReplay {
            pool: None,
            events: EventSlots::new(devplan.num_slots()),
            epoch: 0,
        }
    }

    /// Event-driven replay of `plan` on the persistent worker pool.
    pub(crate) fn run(&mut self, plan: &CompiledPlan) -> Result<(), ExecError> {
        let devplan: &DevicePlan = plan.device_plan();
        // Take the pool out of `self` for the duration of the run: if a
        // worker panic unwinds through `run`, the pool is dropped and
        // respawned fresh next time.
        let pool = self
            .pool
            .take()
            .unwrap_or_else(|| WorkerPool::new(devplan.ndev()));
        self.epoch += 1;
        let epoch = self.epoch;
        self.events.clear_poison();

        let graph = plan.graph();
        let events = &self.events;
        // First structural error reported by a worker; later workers see
        // the poisoned events and abandon their walks.
        let first_error: Mutex<Option<ExecError>> = Mutex::new(None);
        pool.run(|d| {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                walk_device(graph, devplan, events, epoch, d)
            }));
            match result {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    let mut slot = first_error.lock().unwrap_or_else(|p| p.into_inner());
                    slot.get_or_insert(e);
                    drop(slot);
                    // Wake the siblings out of their event waits so the
                    // pool drains instead of deadlocking.
                    events.poison();
                }
                Err(payload) => {
                    events.poison();
                    // Let the pool deliver the payload to the caller.
                    panic::resume_unwind(payload);
                }
            }
        });
        self.pool = Some(pool);
        match first_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Reference replay: strictly in task order, devices in rank order,
/// everything on the calling thread.
///
/// With `abort` set, this is the *prefix* of an iteration whose fault at
/// that point escaped retry: every task before the aborted one runs whole
/// (mutating data — this is what makes the rollback genuinely necessary).
/// Of the aborted task itself, a compute task runs its reduce init and the
/// devices before the faulted one (launch-failure semantics: the faulted
/// kernel never ran); a halo exchange or a collective runs nothing, since
/// its payload or fold was never committed. The abort runs serially
/// regardless of the configured mode — the partial state is about to be
/// wiped by a checkpoint restore, and a serial walk keeps it
/// deterministic.
pub(crate) fn run_serial(plan: &CompiledPlan, ndev: usize, abort: Option<&Abort>) {
    let tasks = &plan.schedule().tasks;
    let whole = abort.map_or(tasks.len(), |a| a.task);
    for task in &tasks[..whole] {
        match &plan.graph().node(task.node).kind {
            NodeKind::Compute {
                container,
                view,
                reduce_init,
                reduce_finalize,
            } => {
                if *reduce_init {
                    container.reduce_init();
                }
                for d in 0..ndev {
                    container.run_device(DeviceId(d), *view);
                }
                if *reduce_finalize {
                    container.reduce_finalize();
                }
            }
            NodeKind::Halo { exchange } => exchange.execute(),
            NodeKind::Host { container } => container.run_host(),
            // Canonical rank-order fold: bit-identical to the host-staged
            // merge regardless of algorithm.
            NodeKind::Collective { container, .. } => container.reduce_finalize(),
        }
    }
    let Some(abort) = abort else { return };
    if let NodeKind::Compute {
        container,
        view,
        reduce_init,
        ..
    } = &plan.graph().node(tasks[abort.task].node).kind
    {
        if *reduce_init {
            container.reduce_init();
        }
        for d in 0..abort.site.device.0 {
            container.run_device(DeviceId(d), *view);
        }
    }
}

/// Whether every compute node's iteration space has real storage, so the
/// kernels can run on data (a node without a space fails at execution).
pub(crate) fn has_real_storage(graph: &Graph) -> bool {
    graph.nodes().iter().all(|n| match &n.kind {
        NodeKind::Compute { container, .. } => container
            .space()
            .map(|s| s.supports_functional())
            .unwrap_or(true),
        _ => true,
    })
}

/// One worker's walk over its device's step list: wait on the event table
/// where the plan says to, execute, signal. A malformed step is reported
/// as an error (the worker stores it and poisons the replay) rather than
/// panicking through the pool.
fn walk_device(
    graph: &Graph,
    dp: &DevicePlan,
    events: &EventSlots,
    epoch: u64,
    d: usize,
) -> Result<(), ExecError> {
    for step in dp.steps(d) {
        for &w in dp.waits_of(step) {
            if !events.wait(w as usize, epoch) {
                // Poisoned: a sibling worker failed and is reporting the
                // root cause; abandon the walk quietly.
                return Ok(());
            }
        }
        let node_id = step.node as usize;
        let node = graph.node(node_id);
        let missing = || ExecError::MissingContainer {
            node: node.name.clone(),
        };
        let malformed = || ExecError::MalformedStep {
            node: node.name.clone(),
        };
        match step.action {
            DevAction::ReduceInit => {
                let c = node.container().ok_or_else(missing)?;
                c.reduce_init();
                events.signal(dp.aux_init(node_id), epoch);
            }
            DevAction::Kernel => {
                match &node.kind {
                    NodeKind::Compute {
                        container, view, ..
                    } => container.run_device(DeviceId(d), *view),
                    _ => return Err(malformed()),
                }
                events.signal(dp.slot(node_id, d), epoch);
            }
            DevAction::HaloPull => {
                match &node.kind {
                    NodeKind::Halo { exchange } => exchange.execute_for_dst(DeviceId(d)),
                    _ => return Err(malformed()),
                }
                events.signal(dp.slot(node_id, d), epoch);
            }
            DevAction::Host => {
                let c = node.container().ok_or_else(missing)?;
                c.run_host();
                events.signal(dp.aux_done(node_id), epoch);
            }
            DevAction::Collective | DevAction::ReduceFinalize => {
                let c = node.container().ok_or_else(missing)?;
                c.reduce_finalize();
                events.signal(dp.aux_done(node_id), epoch);
            }
        }
    }
    Ok(())
}
