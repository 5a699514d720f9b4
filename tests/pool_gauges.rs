//! Regression net for worker-pool gauge accounting under panics.
//!
//! `keebo.fleet.pool.busy_workers` is drop-guard maintained: a ticket
//! panic (or anything else unwinding out of ticket handling) must restore
//! it to zero once the batch drains, and the submitter must not deadlock.
//! Before the guard, the busy gauge could drift up permanently.
//!
//! Lives in its own integration binary: these assertions read the
//! process-global metrics registry, which other test binaries' pool
//! traffic would race.

use keebo::WorkerPool;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn busy() -> f64 {
    keebo::obs::global()
        .gauge("keebo.fleet.pool.busy_workers")
        .get()
}

#[test]
fn gauges_return_to_zero_after_ticket_panic() {
    let pool = WorkerPool::new(2);

    // Healthy batch first: the gauge settles at zero.
    pool.run_indexed(8, 2, |_| {});
    assert_eq!(busy(), 0.0, "busy_workers after a clean batch");

    // A panicking ticket: the panic re-raises on the submitter after the
    // batch drains, and the gauge still settles at zero.
    let res = catch_unwind(AssertUnwindSafe(|| {
        pool.run_indexed(8, 2, |i| {
            if i == 3 {
                panic!("ticket 3 exploded");
            }
        });
    }));
    assert!(res.is_err(), "ticket panic must re-raise on the submitter");
    assert_eq!(busy(), 0.0, "busy_workers drifted after a ticket panic");

    // The pool is still fully usable and accounting stays clean.
    pool.run_indexed(4, 2, |_| {});
    assert_eq!(busy(), 0.0, "busy_workers after reusing the pool");
    assert!(
        keebo::obs::global()
            .counter("keebo.fleet.pool.ticket_panics")
            .get()
            >= 1,
        "panic must be counted"
    );
}
