//! Width-capped scoped worker jobs for fleet-scale shard execution.
//!
//! All the fleet layer needs is "run shard *i* on some thread and hand the
//! result back in spec order". A [`WorkerPool`] is therefore only a width
//! cap: each batch runs inside one [`std::thread::scope`], so tasks borrow
//! the caller's data (no `'static`, no `Arc`) and nothing outlives the call.
//! The traffic is one batch per fleet run and one per gateway tick. A fleet
//! run's batch is long; a gateway tick's is not: on a 2-vCPU host
//! `gateway_serve`'s median tick (`step_ms`, width 2) is 0.33–0.52 ms, and
//! the one empty scoped spawn+join a width-2 batch adds costs 25–30 µs
//! there, 5–9 % of a tick. Nor is a job stateless: every helper thread
//! starts with a cold `SCRATCH` thread-local (`agent::dqn`'s training and
//! serving scratch), which `greedy_action` fills on serving ticks. A
//! persistent thread set would amortize both; it is a measured candidate,
//! not yet the design (EXPERIMENTS.md, "Fleet, gateway and durability").
//!
//! * **Determinism.** The pool never influences results: a ticket is only an
//!   index, every shard is self-contained, and [`WorkerPool::map`] returns
//!   results in item order. Which job ran which ticket is unobservable in
//!   the output, so `FleetReport::digest` is bit-identical at any width by
//!   construction.
//! * **The submitter is job 0.** A batch of width `w` spawns `w - 1` helper
//!   threads (`kwo-fleet-{i}`) and runs the remaining job on the calling
//!   thread: width 1 spawns nothing, and a helper that fails to spawn only
//!   lowers the width.
//! * **Panic safety.** A panicking ticket is caught where it ran, ends that
//!   job's participation, and is re-raised on the submitting thread once the
//!   scope has joined. The pool holds no state a panic could poison.
//! * **Work stealing.** Jobs claim tickets off one atomic cursor, so a job
//!   that finishes a cheap shard takes the next index instead of idling
//!   behind a static partition.
//!
//! Observability: `keebo.fleet.pool.workers` (the configured width),
//! `keebo.fleet.pool.busy_workers` and `keebo.fleet.pool.ticket_panics`
//! through the global [`keebo_obs`] registry.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering from poisoning: every lock here guards plain
/// data and is never held across a ticket.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cap on how many threads one batch of indexed tickets may use. Create
/// once, reuse across any number of fleet runs.
#[derive(Debug)]
pub struct WorkerPool {
    size: usize,
}

impl WorkerPool {
    /// A pool whose batches run on at most `size` threads.
    ///
    /// # Panics
    /// Panics if `size` is zero.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "worker pool needs at least one worker");
        keebo_obs::global()
            .gauge("keebo.fleet.pool.workers")
            .set(size as f64);
        Self { size }
    }

    /// Maximum number of threads a batch may use.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Runs `task(i)` for every ticket `i in 0..tickets` on at most
    /// `parallelism` threads (clamped to the pool size and the ticket
    /// count), the calling thread among them, and returns once the whole
    /// batch has drained. Ticket assignment is work-stealing and racy by
    /// design; callers must keep results independent per index.
    ///
    /// # Panics
    /// Re-raises the first ticket panic after the batch drains. The job
    /// that caught it claims no further tickets; the batch's other jobs
    /// finish the rest.
    pub fn run_indexed(&self, tickets: usize, parallelism: usize, task: impl Fn(usize) + Sync) {
        if tickets == 0 {
            return;
        }
        let width = parallelism.clamp(1, self.size).min(tickets);
        let next = AtomicUsize::new(0);
        let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let job = || {
            let _busy = keebo_obs::global()
                .gauge("keebo.fleet.pool.busy_workers")
                .add_scoped(1.0);
            loop {
                // lint: allow(D11) — ticket claim: RMW atomicity alone guarantees unique indices; results are published by the scope's join
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= tickets {
                    break;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| task(index))) {
                    lock(&first_panic).get_or_insert(payload);
                    keebo_obs::global()
                        .counter("keebo.fleet.pool.ticket_panics")
                        .inc();
                    break;
                }
            }
        };
        std::thread::scope(|scope| {
            for i in 1..width {
                let helper = std::thread::Builder::new().name(format!("kwo-fleet-{i}"));
                if helper.spawn_scoped(scope, job).is_err() {
                    break;
                }
            }
            job();
        });
        let payload = first_panic
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Runs `f(i, item)` for every item on at most `parallelism` threads and
    /// returns the results in item order, whichever job ran which item.
    /// Items are moved into `f`, so they may be borrows (`&T`, `&mut T`) of
    /// the caller's data or owned values.
    ///
    /// # Panics
    /// Re-raises the first panic out of `f`; no result is returned then.
    pub fn map<I: Send, O: Send>(
        &self,
        items: Vec<I>,
        parallelism: usize,
        f: impl Fn(usize, I) -> O + Sync,
    ) -> Vec<O> {
        // One slot per item: the item until its ticket takes it, then the
        // result. Each slot is locked only by the one job that claimed its
        // index, and never while `f` runs.
        let slots: Vec<Mutex<(Option<I>, Option<O>)>> = items
            .into_iter()
            .map(|item| Mutex::new((Some(item), None)))
            .collect();
        self.run_indexed(slots.len(), parallelism, |i| {
            let item = lock(&slots[i]).0.take();
            if let Some(item) = item {
                let out = f(i, item);
                lock(&slots[i]).1 = Some(out);
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                let (_, out) = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
                #[expect(
                    clippy::expect_used,
                    reason = "run_indexed returned, so every ticket ran to completion"
                )]
                out.expect("every item maps to a result")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_every_ticket_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        pool.run_indexed(100, 4, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        for _ in 0..5 {
            pool.run_indexed(10, 2, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn parallelism_is_clamped_not_fatal() {
        let pool = WorkerPool::new(2);
        let total = AtomicU64::new(0);
        // More requested parallelism than workers, more tickets than both.
        pool.run_indexed(7, 64, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        // Zero parallelism clamps up to one worker.
        pool.run_indexed(3, 0, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn width_one_batch_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let check = |_| assert_eq!(std::thread::current().id(), caller);
        // Width 1 by request, by pool size, and by ticket count.
        WorkerPool::new(4).run_indexed(16, 1, check);
        WorkerPool::new(1).run_indexed(16, 8, check);
        WorkerPool::new(4).run_indexed(1, 4, check);
    }

    #[test]
    fn ticket_panic_surfaces_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(4, 2, |i| {
                if i == 2 {
                    panic!("ticket boom");
                }
            });
        }));
        let payload = res.expect_err("batch panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "ticket boom");

        // The pool is not poisoned: the next batch runs normally.
        let total = AtomicU64::new(0);
        pool.run_indexed(8, 2, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 8);

        // Same contract through `map`: the closure's payload re-raises, and
        // every other item was either mapped whole or never touched.
        let mut cells = vec![0u64; 64];
        let res = catch_unwind(AssertUnwindSafe(|| {
            pool.map(cells.iter_mut().collect(), 2, |i, cell: &mut u64| {
                if i == 5 {
                    panic!("map boom");
                }
                *cell = i as u64 + 1;
            })
        }));
        let payload = res.expect_err("map panic must propagate");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "map boom");
        assert_eq!(cells[5], 0);
        for (i, &cell) in cells.iter().enumerate() {
            assert!(cell == 0 || cell == i as u64 + 1, "item {i} torn: {cell}");
        }
        assert_eq!(pool.map(vec![1, 2, 3], 2, |_, x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn zero_tickets_is_a_noop() {
        let pool = WorkerPool::new(1);
        pool.run_indexed(0, 1, |_| panic!("never called"));
        assert!(pool.map(Vec::<u8>::new(), 1, |_, x| x).is_empty());
    }

    #[test]
    fn map_returns_results_in_item_order_at_every_width() {
        let pool = WorkerPool::new(8);
        let expected: Vec<usize> = (0..257).map(|x| x * x).collect();
        for width in [1, 2, 8] {
            let owned = pool.map((0..257usize).collect(), width, |i, x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(owned, expected, "owned items, width {width}");
            // The gateway-tick shape: `&mut` state zipped with a per-item
            // input, mutated in place, one value handed back per item.
            let mut state: Vec<usize> = (0..257).collect();
            let inputs: Vec<usize> = (0..257).rev().collect();
            let sums = pool.map(
                state.iter_mut().zip(inputs).collect(),
                width,
                |_, (s, input): (&mut usize, usize)| {
                    *s *= *s;
                    *s + input
                },
            );
            assert_eq!(state, expected, "mutated items, width {width}");
            let want: Vec<usize> = (0..257).map(|x| x * x + 256 - x).collect();
            assert_eq!(sums, want, "mutated items, width {width}");
        }
    }

    #[test]
    fn a_ticket_may_submit_a_batch_to_its_own_pool() {
        // Driven from a helper thread so a deadlock fails instead of hanging.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let pool = WorkerPool::new(1);
            let inner_hits = AtomicU64::new(0);
            pool.run_indexed(1, 1, |_| {
                pool.run_indexed(4, 1, |_| {
                    inner_hits.fetch_add(1, Ordering::Relaxed);
                });
            });
            let _ = tx.send(inner_hits.load(Ordering::Relaxed));
        });
        let hits = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("nested batch deadlocked");
        assert_eq!(hits, 4);
    }
}
