//! The training step allocates nothing once its scratch is warm.
//!
//! A counting `#[global_allocator]` needs a test binary of its own, which is
//! why this is not a unit test. Counts are per thread, so the harness's own
//! threads cannot disturb them.

use agent::{AgentAction, DqnAgent, DqnConfig, Transition, STATE_DIM};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: reading it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` with the arguments it was given;
// the counter never influences what is allocated or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // A thread being torn down has no counter left; nothing to count for.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn transition(rng: &mut StdRng) -> Transition {
    let state = |rng: &mut StdRng| (0..STATE_DIM).map(|_| rng.gen_range(-1.0..2.0)).collect();
    Transition {
        state: state(rng),
        action: rng.gen_range(0..AgentAction::COUNT),
        reward: rng.gen_range(-1.0..1.0),
        next_state: state(rng),
        next_mask: [true; AgentAction::COUNT],
        terminal: rng.gen_range(0..4) == 0,
    }
}

#[test]
fn a_warm_training_step_allocates_nothing() {
    let mut rng = StdRng::seed_from_u64(7);
    let config = DqnConfig {
        replay_capacity: 256,
        target_sync_interval: 10, // the 100 steps below cross ten syncs
        epsilon_start: 1.0,       // and every selection explores
        epsilon_end: 1.0,
        ..DqnConfig::default()
    };
    let mut agent = DqnAgent::new(config, &mut rng);
    // One fill of the ring: a full ring overwrites its oldest entry in place.
    for _ in 0..256 {
        agent.observe(transition(&mut rng));
    }
    assert!(agent.train_step(&mut rng).is_some(), "warm-up step");

    let in_steps = allocations_in(|| {
        for _ in 0..100 {
            agent.train_step(&mut rng);
        }
    });
    assert_eq!(in_steps, 0, "100 train steps on a full buffer");

    // `observe` borrows the transition and copies its rows into the ring.
    let incoming: Vec<Transition> = (0..100).map(|_| transition(&mut rng)).collect();
    let in_observe = allocations_in(|| incoming.iter().for_each(|t| agent.observe(t)));
    assert_eq!(in_observe, 0, "100 observes into a full ring");

    let mut mask = [true; AgentAction::COUNT];
    mask[3] = false;
    let in_explore = allocations_in(|| {
        for _ in 0..100 {
            let action = agent.select_action(&[0.0; STATE_DIM], &mask, &mut rng, true);
            assert_ne!(action.index(), 3);
        }
    });
    assert_eq!(in_explore, 0, "100 exploring selections");

    // A greedy selection forwards through the thread's scratch trace.
    let in_exploit = allocations_in(|| {
        for _ in 0..100 {
            let action = agent.greedy_action(&[0.5; STATE_DIM], &mask);
            assert_ne!(action.index(), 3);
        }
    });
    assert_eq!(in_exploit, 0, "100 greedy selections");
}
