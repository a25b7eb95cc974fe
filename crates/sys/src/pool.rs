//! Persistent per-device worker pool.
//!
//! The functional execution path runs one host thread per simulated device.
//! Spawning a fresh `std::thread::scope` for every kernel launch costs a
//! thread create/join round-trip per launch — thousands per solver run. A
//! [`WorkerPool`] instead spawns its workers **once** (per `Skeleton`) and
//! parks them on a condvar between jobs, so the steady-state dispatch cost
//! is a mutex round-trip plus a wake-up.
//!
//! ## Job model
//!
//! [`WorkerPool::run`] hands every worker the *same* closure and each worker
//! calls it with its own index (`0..num_workers`). The closure borrows from
//! the caller's stack; the pool erases the lifetime internally and `run`
//! does not return until every worker has finished the call, which keeps the
//! erasure sound (see the safety comment in [`WorkerPool::run`]).
//!
//! ## Panics
//!
//! A panicking job does not poison the pool: each worker catches unwinds,
//! the first captured payload is re-raised on the *caller's* thread by
//! `run`, and the pool remains usable for subsequent jobs. Dropping the pool
//! signals shutdown and joins all workers.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Number of physical cores the host offers, probed once.
///
/// Drives every spin-vs-park decision in the functional runtime (and the
/// multi-core gates of the reproduction benches): on a single-core host
/// spinning steals cycles from the very thread being waited for, so all
/// spin budgets collapse to zero there.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Iterations a pool participant spins before parking on a condvar.
///
/// Back-to-back kernel launches post jobs microseconds apart; on a host
/// with enough cores to run every worker concurrently, a short spin lets
/// workers catch the next epoch without a park/wake round-trip (two
/// context switches each). Oversubscribed hosts get no spin at all.
pub(crate) fn wake_spin() -> usize {
    match host_cores() {
        0 | 1 => 0,
        2 | 3 => 64,
        _ => 512,
    }
}

/// The type every job is erased to. `Sync` because all workers share one
/// reference; the `usize` argument is the worker index.
type Job = &'static (dyn Fn(usize) + Sync);

struct State {
    /// Incremented for every submitted job; workers trigger on the change.
    epoch: u64,
    /// The current job, valid only while `remaining > 0` for this epoch.
    job: Option<Job>,
    /// Workers that have not finished the current job yet.
    remaining: usize,
    /// First panic payload captured from a worker during the current job.
    panic: Option<Box<dyn Any + Send>>,
    /// Set once by `Drop`; workers exit their loop when they observe it.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signaled when a new job is posted or shutdown is requested.
    go: Condvar,
    /// Signaled by the last worker to finish the current job.
    done: Condvar,
    /// Lock-free mirror of `state.epoch`, stored before waking workers so
    /// spinning workers catch a fresh job without a mutex round-trip.
    posted: AtomicU64,
    /// Epoch of the last fully completed job; the caller spins on it
    /// briefly before parking on `done` (short kernels finish in
    /// microseconds — a park/wake round-trip would dominate them).
    completed: AtomicU64,
}

/// A fixed-size pool of persistent worker threads, one per simulated
/// device. See the [module docs](self) for the job and panic model.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("num_workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn `num_workers` parked worker threads.
    pub fn new(num_workers: usize) -> Self {
        assert!(num_workers > 0, "a worker pool needs at least one worker");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            go: Condvar::new(),
            done: Condvar::new(),
            posted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let workers = (0..num_workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("neon-worker-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Run `f(idx)` on every worker concurrently and wait for all of them.
    ///
    /// If any worker panics inside `f`, the first captured payload is
    /// re-raised here after *all* workers have finished; the pool stays
    /// usable.
    pub fn run<F: Fn(usize) + Sync>(&self, f: F) {
        // SAFETY: we erase `&f`'s lifetime to `'static` to store it in the
        // shared state. This is sound because `run` blocks until
        // `remaining == 0`, i.e. every worker has returned from its call
        // into the job, and the job slot is cleared before `run` returns —
        // no worker can observe the pointer after `f` is dropped.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                &f as &(dyn Fn(usize) + Sync),
            )
        };
        let payload = {
            let mut st = self.shared.state.lock().unwrap();
            assert_eq!(st.remaining, 0, "WorkerPool::run is not reentrant");
            st.epoch += 1;
            let epoch = st.epoch;
            st.job = Some(job);
            st.remaining = self.workers.len();
            st.panic = None;
            drop(st);
            // Publish the epoch lock-free first: workers spinning between
            // jobs pick it up without waiting for the condvar wake to
            // percolate through the scheduler.
            self.shared.posted.store(epoch, Ordering::Release);
            self.shared.go.notify_all();

            // Spin briefly before parking — on a multi-core host a short
            // job completes while a park/wake round-trip would still be in
            // flight. The condvar loop below remains the source of truth.
            for _ in 0..wake_spin() {
                if self.shared.completed.load(Ordering::Acquire) >= epoch {
                    break;
                }
                std::hint::spin_loop();
            }
            let mut st = self.shared.state.lock().unwrap();
            while st.remaining != 0 {
                st = self.shared.done.wait(st).unwrap();
            }
            st.job = None;
            st.panic.take()
        };
        if let Some(p) = payload {
            panic::resume_unwind(p);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.go.notify_all();
        for w in self.workers.drain(..) {
            // A worker only terminates by observing `shutdown`; it never
            // panics outside a caught job, so join errors are impossible in
            // practice. Ignore them to keep Drop infallible regardless.
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, idx: usize) {
    let mut last_epoch = 0u64;
    loop {
        // Catch back-to-back launches lock-free: the caller publishes the
        // new epoch to `posted` before notifying, so a short spin here
        // skips the park/wake round-trip entirely on busy solvers. The
        // spin budget is zero on single-core hosts, and bounded otherwise
        // so shutdown (observed under the lock) is never delayed long.
        for _ in 0..wake_spin() {
            if shared.posted.load(Ordering::Acquire) != last_epoch {
                break;
            }
            std::hint::spin_loop();
        }
        let job = {
            let mut st = shared.state.lock().unwrap();
            while st.epoch == last_epoch && !st.shutdown {
                st = shared.go.wait(st).unwrap();
            }
            if st.shutdown {
                return;
            }
            last_epoch = st.epoch;
            st.job.expect("job must be posted for a new epoch")
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| job(idx)));
        let mut st = shared.state.lock().unwrap();
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            drop(st);
            // Publish completion for the caller's spin loop, then wake it.
            // Only one thread ever waits on `done` (`run` is not
            // reentrant), so a single wake-up suffices — `notify_all` here
            // would batch-wake nobody else.
            shared.completed.store(last_epoch, Ordering::Release);
            shared.done.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_worker_with_its_index() {
        let pool = WorkerPool::new(4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        pool.run(|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn reusable_across_many_rounds() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 300);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(|i| {
                if i == 1 {
                    panic!("kernel exploded");
                }
            });
        }));
        assert!(caught.is_err(), "worker panic must reach the caller");
        // The pool is still functional after the panic.
        let ok = AtomicUsize::new(0);
        pool.run(|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(2);
        pool.run(|_| {});
        drop(pool); // must not hang
    }

    #[test]
    fn two_pools_coexist() {
        let a = WorkerPool::new(2);
        let b = WorkerPool::new(3);
        let na = AtomicUsize::new(0);
        let nb = AtomicUsize::new(0);
        a.run(|_| {
            na.fetch_add(1, Ordering::SeqCst);
        });
        b.run(|_| {
            nb.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(na.load(Ordering::SeqCst), 2);
        assert_eq!(nb.load(Ordering::SeqCst), 3);
    }
}
