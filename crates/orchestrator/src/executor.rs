//! The shared scheduler every kind of verification work runs on.
//!
//! Two pieces cooperate:
//!
//! * [`Pool`] — a work-stealing pool of worker threads fed by **dynamically
//!   spawned** tasks: any task may spawn further tasks while the pool runs
//!   (the orchestrator's explore jobs unlock composition jobs through
//!   [`Latch`]es rather than a pre-built DAG). Each worker owns a deque: it
//!   pops its own work LIFO (fresh jobs are cache-hot) and steals FIFO from
//!   its peers when idle.
//! * [`ThreadBudget`] — the pool-wide ledger of how many threads may do
//!   verification work at once. Pool workers hold a permit while running a
//!   task and release it when the task ends, panicking or not. The
//!   invariant: live working threads never exceed the single pool size.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A counting ledger of concurrently working threads, held by the pool's
/// workers while they run a task. Tracks the high-water mark so runs can
/// assert the bound they promise.
#[derive(Debug)]
pub struct ThreadBudget {
    total: usize,
    free: Mutex<usize>,
    freed: Condvar,
    in_use_peak: AtomicUsize,
}

impl ThreadBudget {
    /// A budget of `total` simultaneous working threads (at least 1).
    pub fn new(total: usize) -> Arc<Self> {
        let total = total.max(1);
        Arc::new(ThreadBudget {
            total,
            free: Mutex::new(total),
            freed: Condvar::new(),
            in_use_peak: AtomicUsize::new(0),
        })
    }

    /// The budget's size.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Block until a permit is free, then take it.
    pub fn acquire_one(&self) {
        let mut free = self.free.lock().expect("budget lock");
        while *free == 0 {
            free = self.freed.wait(free).expect("budget lock");
        }
        *free -= 1;
        self.note_in_use(self.total - *free);
    }

    /// Return `n` permits.
    pub fn release(&self, n: usize) {
        if n == 0 {
            return;
        }
        // Called while a panicking task unwinds (see `Retire`), so it
        // must not panic on a lock poisoned elsewhere: a bare counter.
        let mut free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        *free += n;
        assert!(*free <= self.total, "budget over-released");
        drop(free);
        self.freed.notify_all();
    }

    fn note_in_use(&self, in_use: usize) {
        self.in_use_peak.fetch_max(in_use, Ordering::Relaxed);
    }

    /// The most permits ever simultaneously in use — i.e. the peak number of
    /// live working (solver) threads this budget admitted.
    pub fn peak_in_use(&self) -> usize {
        self.in_use_peak.load(Ordering::Relaxed)
    }

    /// Reset the high-water mark (between runs that want per-run peaks).
    pub fn reset_peak(&self) {
        self.in_use_peak.store(0, Ordering::Relaxed);
    }
}

/// A task: receives the pool so it can spawn follow-up work.
pub type Job<'env> = Box<dyn FnOnce(&Pool<'env>) + Send + 'env>;

/// The dynamic work-stealing pool. Create-and-run with [`Pool::run`]; tasks
/// spawned at any point (from the seeder or from running tasks) are executed
/// before `run` returns.
pub struct Pool<'env> {
    queues: Vec<Mutex<VecDeque<Job<'env>>>>,
    /// Tasks spawned but not yet finished.
    pending: AtomicUsize,
    /// Round-robin cursor for queue placement.
    place: AtomicUsize,
    /// Parked-worker wakeup: the epoch bumps whenever new work may exist.
    signal: (Mutex<u64>, Condvar),
    budget: Arc<ThreadBudget>,
}

impl<'env> Pool<'env> {
    /// Run a pool of `threads` workers over `budget`. `seed` is called with
    /// the pool to spawn the initial tasks; `run` returns when every task
    /// (including all dynamically spawned ones) has completed.
    pub fn run(threads: usize, budget: Arc<ThreadBudget>, seed: impl FnOnce(&Pool<'env>)) {
        let threads = threads.max(1);
        let pool = Pool {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            place: AtomicUsize::new(0),
            signal: (Mutex::new(0), Condvar::new()),
            budget,
        };
        seed(&pool);
        if pool.pending.load(Ordering::Acquire) == 0 {
            return;
        }
        std::thread::scope(|scope| {
            for me in 0..threads {
                let pool = &pool;
                scope.spawn(move || pool.worker(me));
            }
        });
    }

    /// The budget this pool's workers draw from.
    pub fn budget(&self) -> &Arc<ThreadBudget> {
        &self.budget
    }

    /// Spawn a task; it will run on some worker before [`Pool::run`]
    /// returns.
    pub fn spawn(&self, job: Job<'env>) {
        self.pending.fetch_add(1, Ordering::AcqRel);
        let at = self.place.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[at].lock().expect("queue lock").push_back(job);
        self.wake();
    }

    fn wake(&self) {
        // Also called while unwinding: see `ThreadBudget::release`.
        let mut epoch = self.signal.0.lock().unwrap_or_else(PoisonError::into_inner);
        *epoch += 1;
        self.signal.1.notify_all();
    }

    fn worker(&self, me: usize) {
        loop {
            // Snapshot the epoch before looking for work: any spawn after
            // this point bumps it, so the parked wait cannot miss a wake-up.
            let seen_epoch = *self.signal.0.lock().expect("signal lock");
            // Own work first (LIFO), then steal (FIFO).
            let job = {
                let own = self.queues[me].lock().expect("queue lock").pop_back();
                own.or_else(|| {
                    (1..self.queues.len()).find_map(|offset| {
                        let victim = (me + offset) % self.queues.len();
                        self.queues[victim].lock().expect("queue lock").pop_front()
                    })
                })
            };
            match job {
                Some(job) => {
                    // Hold a budget permit exactly while working.
                    self.budget.acquire_one();
                    let _retire = Retire(self);
                    job(self);
                }
                None => {
                    if self.pending.load(Ordering::Acquire) == 0 {
                        return;
                    }
                    let mut epoch = self.signal.0.lock().expect("signal lock");
                    while *epoch == seen_epoch && self.pending.load(Ordering::Acquire) > 0 {
                        epoch = self.signal.1.wait(epoch).expect("signal lock");
                    }
                }
            }
        }
    }
}

/// Ends one running task, on return or unwind alike: gives back its budget
/// permit and retires it from `pending`, waking the other workers when it
/// was the last. A panicking task thus never leaks a permit or strands the
/// pool: the others drain the queues and exit, and the thread scope of
/// [`Pool::run`] re-raises the panic.
struct Retire<'a, 'env>(&'a Pool<'env>);

impl Drop for Retire<'_, '_> {
    fn drop(&mut self) {
        self.0.budget.release(1);
        if self.0.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.0.wake();
        }
    }
}

/// A countdown gate: holds a job until `deps` prerequisite completions have
/// been signalled, then spawns it on the pool. This is how dependency edges
/// (explore jobs → composition jobs) are expressed on a dynamic pool.
pub struct Latch<'env> {
    remaining: AtomicUsize,
    job: Mutex<Option<Job<'env>>>,
}

impl<'env> Latch<'env> {
    /// A latch releasing `job` after `deps` completions. With `deps == 0`
    /// the caller should invoke [`Latch::ready`] once (or just spawn the job
    /// directly).
    pub fn new(deps: usize, job: Job<'env>) -> Arc<Self> {
        Arc::new(Latch {
            remaining: AtomicUsize::new(deps.max(1)),
            job: Mutex::new(Some(job)),
        })
    }

    /// Signal one completed dependency; the last signal spawns the job.
    pub fn ready(&self, pool: &Pool<'env>) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let job = self
                .job
                .lock()
                .expect("latch job")
                .take()
                .expect("latch released twice");
            pool.spawn(job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn runs_every_seeded_task_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let budget = ThreadBudget::new(4);
        Pool::run(4, budget, |pool| {
            for _ in 0..100 {
                let counter = counter.clone();
                pool.spawn(Box::new(move |_| {
                    counter.fetch_add(1, Ordering::Relaxed);
                }));
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tasks_spawned_from_tasks_run_before_the_pool_exits() {
        // A 3-level dynamic fan-out: 4 roots each spawn 4 children, each
        // child spawns 2 grandchildren — none of which exist when the pool
        // starts.
        let counter = Arc::new(AtomicUsize::new(0));
        let budget = ThreadBudget::new(4);
        Pool::run(4, budget, |pool| {
            for _ in 0..4 {
                let counter = counter.clone();
                pool.spawn(Box::new(move |pool| {
                    for _ in 0..4 {
                        let counter = counter.clone();
                        pool.spawn(Box::new(move |pool| {
                            for _ in 0..2 {
                                let counter = counter.clone();
                                pool.spawn(Box::new(move |_| {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                }));
                            }
                        }));
                    }
                }));
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn latches_enforce_dependency_order() {
        // 2 roots -> 8 middles -> 1 sink, with order witnessed by a clock.
        let clock = Arc::new(AtomicUsize::new(1));
        let stamps: Arc<Vec<AtomicUsize>> =
            Arc::new((0..11).map(|_| AtomicUsize::new(0)).collect());
        let budget = ThreadBudget::new(4);
        Pool::run(4, budget, |pool| {
            let stamp = |i: usize| {
                let clock = clock.clone();
                let stamps = stamps.clone();
                move || stamps[i].store(clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst)
            };
            let sink = Latch::new(8, {
                let s = stamp(10);
                Box::new(move |_| s())
            });
            let middles: Vec<Arc<Latch>> = (0..8)
                .map(|i| {
                    let s = stamp(2 + i);
                    let sink = sink.clone();
                    Latch::new(
                        2,
                        Box::new(move |pool| {
                            s();
                            sink.ready(pool);
                        }),
                    )
                })
                .collect();
            for r in 0..2 {
                let s = stamp(r);
                let middles = middles.clone();
                pool.spawn(Box::new(move |pool| {
                    s();
                    for m in &middles {
                        m.ready(pool);
                    }
                }));
            }
        });
        let at = |i: usize| stamps[i].load(Ordering::SeqCst);
        for m in 2..10 {
            assert!(at(m) > at(0) && at(m) > at(1), "middle {m} ran early");
            assert!(at(10) > at(m), "sink ran before middle {m}");
        }
    }

    #[test]
    fn budget_bounds_concurrent_work_and_tracks_the_peak() {
        // 32 tasks on a 3-permit budget with 8 workers: no more than 3 may
        // ever be inside a task at once.
        let live = Arc::new(AtomicUsize::new(0));
        let observed_max = Arc::new(AtomicUsize::new(0));
        let budget = ThreadBudget::new(3);
        Pool::run(8, budget.clone(), |pool| {
            for _ in 0..32 {
                let live = live.clone();
                let observed_max = observed_max.clone();
                pool.spawn(Box::new(move |_| {
                    let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                    observed_max.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    live.fetch_sub(1, Ordering::SeqCst);
                }));
            }
        });
        assert!(
            observed_max.load(Ordering::SeqCst) <= 3,
            "more than 3 tasks ran concurrently"
        );
        assert!(budget.peak_in_use() <= 3);
        assert!(budget.peak_in_use() >= 1);
        budget.reset_peak();
        assert_eq!(budget.peak_in_use(), 0);
    }

    /// Run `f` on a helper thread and return what it returns; fail with
    /// `what` if that takes over five seconds, so a stranded pool fails
    /// the test instead of hanging the suite.
    fn within_5s<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        let value = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .unwrap_or_else(|_| panic!("{what}"));
        helper.join().expect("helper thread");
        value
    }

    #[test]
    fn a_panicking_task_fails_the_pool_without_stranding_it() {
        for threads in [1usize, 2, 4] {
            // One task panics beside three that do nothing: the panic must
            // come out of `run`.
            let budget = ThreadBudget::new(threads);
            let pool_budget = budget.clone();
            let never_returned = format!("{threads} threads: the pool never returned");
            let panicked = within_5s(&never_returned, move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    Pool::run(threads, pool_budget, |pool| {
                        pool.spawn(Box::new(|_| panic!("task failure")));
                        for _ in 0..3 {
                            pool.spawn(Box::new(|_| {}));
                        }
                    })
                }))
                .is_err()
            });
            assert!(panicked, "{threads} threads: the panic was swallowed");

            // Every permit came back: a second pool on the same budget holds
            // all of them at once (each task waits for all the others).
            within_5s(&format!("{threads} threads: a permit leaked"), move || {
                let all = Arc::new(std::sync::Barrier::new(threads));
                Pool::run(threads, budget, |pool| {
                    for _ in 0..threads {
                        let all = all.clone();
                        pool.spawn(Box::new(move |_| {
                            all.wait();
                        }));
                    }
                });
            });
        }
    }

    #[test]
    fn empty_pool_is_a_no_op() {
        Pool::run(4, ThreadBudget::new(4), |_| {});
    }
}
