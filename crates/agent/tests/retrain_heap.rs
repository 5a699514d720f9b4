//! Nothing of the learner survives a retrain.
//!
//! Between retrains an agent is its online network, its config and two
//! counters; the target network, the Adam moments and the replay ring live
//! for one `train_on_workload` call. A counting `#[global_allocator]` (a
//! test binary of its own, as in `train_step_allocs.rs`) holds the heap to
//! that: what a retrain allocates and keeps is what it returns to the
//! caller, and it returns nothing on the heap. Counts are per thread, so the
//! harness's own threads cannot disturb them.

use agent::{train_on_workload, ConstraintSet, DqnAgent, DqnConfig, EpisodeConfig, SliderPosition};
use cdw_sim::{QuerySpec, WarehouseConfig, WarehouseSize, HOUR_MS, MINUTE_MS};
use rand::{rngs::StdRng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialised and without a destructor: touching it never allocates.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    // A thread being torn down has no counter left; nothing to count for.
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + delta));
}

struct Counting;

// SAFETY: every method forwards to `System` with the arguments it was given;
// the counter never influences what is allocated or freed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A day of a few queries an hour on an oversized warehouse.
fn specs() -> Vec<QuerySpec> {
    (0..24u64)
        .map(|h| {
            QuerySpec::builder(h)
                .work_ms_xs(30_000.0)
                .arrival_ms(h * HOUR_MS + 5 * MINUTE_MS)
                .build()
        })
        .collect()
}

fn retrain(agent: &mut DqnAgent, specs: &[QuerySpec], seed: u64) {
    let config = WarehouseConfig::new(WarehouseSize::Large).with_auto_suspend_secs(3600);
    let (slider, rules) = (SliderPosition::Balanced, ConstraintSet::new());
    let episodes = EpisodeConfig::default();
    train_on_workload(agent, specs, &config, slider, &rules, &episodes, 2, seed);
}

#[test]
fn a_retrain_returns_every_byte_it_allocated() {
    let new_agent = |seed| DqnAgent::new(DqnConfig::default(), &mut StdRng::seed_from_u64(seed));
    let specs = specs();
    // Warm-up, on another agent of the same shape: the thread's training
    // scratch is sized by the first retrain and kept, per thread, for the
    // next.
    retrain(&mut new_agent(9), &specs, 2);
    let mut agent = new_agent(1);
    for seed in 3..6 {
        let before = LIVE_BYTES.with(Cell::get);
        retrain(&mut agent, &specs, seed);
        let kept = LIVE_BYTES.with(Cell::get) - before;
        assert_eq!(kept, 0, "retrain {seed} kept {kept} bytes");
        assert!(agent.learner().is_none());
    }
    assert!(agent.train_steps() > 0, "the retrains trained");
}

#[test]
fn a_default_agent_between_retrains_is_one_network() {
    let mut agent = DqnAgent::new(DqnConfig::default(), &mut StdRng::seed_from_u64(1));
    retrain(&mut agent, &specs(), 2);
    // 14 -> 64 -> 32 -> 8: 3 304 parameters of eight bytes. Around them
    // the network's layer sizes (a count and four words), its activation
    // byte and layer count, and per layer the matrix's rows, cols and two
    // counts; then the config's twelve words and the two counters. The
    // target network and the Adam moments were three more copies of the
    // parameters, ≈ 106 KB a section.
    let parameters = 14 * 64 + 64 + 64 * 32 + 32 + 32 * 8 + 8;
    assert_eq!(parameters, 3_304);
    let network = 8 * parameters + 8 * 5 + 1 + 8 + 3 * 8 * 4;
    let bytes = agent.to_bytes().len();
    assert_eq!(bytes, network + 8 * 12 + 8 * 2);
    assert!(bytes <= 27 * 1024, "{bytes} bytes");
}
