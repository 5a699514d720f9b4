//! Ingesting into a per-warehouse store allocates for vector growth only:
//! records share the account's name handle, so a stored copy of a record
//! owns no heap of its own.
//!
//! A counting `#[global_allocator]` needs a test binary of its own, which is
//! why this is not a unit test. Counts are per thread, so the harness's own
//! threads cannot disturb them.

use cdw_sim::{
    ActionSource, QueryRecord, WarehouseEventKind, WarehouseEventRecord, WarehouseName,
    WarehouseSize,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use telemetry::TelemetryStore;

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

const RECORDS: u64 = 1_000;

/// What 1 000 appends to one empty vector may cost: its first allocation
/// and one reallocation per doubling, plus the map node holding its key.
const GROWTH: u64 = 2 + (u64::BITS - RECORDS.leading_zeros()) as u64;

fn query(warehouse: &WarehouseName, id: u64) -> QueryRecord {
    QueryRecord {
        query_id: id,
        warehouse: warehouse.clone(),
        size: WarehouseSize::Small,
        cluster_count: 1,
        text_hash: id,
        template_hash: id % 7,
        arrival: id * 1_000,
        start: id * 1_000,
        end: id * 1_000 + 500,
        bytes_scanned: 0,
        cache_warm_fraction: 0.0,
    }
}

fn event(warehouse: &WarehouseName, at: u64) -> WarehouseEventRecord {
    WarehouseEventRecord {
        warehouse: warehouse.clone(),
        at,
        kind: WarehouseEventKind::Resumed,
        source: ActionSource::System,
        size: WarehouseSize::Small,
        running_clusters: 1,
        auto_suspend_ms: 600_000,
        min_clusters: 1,
        max_clusters: 1,
        scaling_policy: Default::default(),
    }
}

#[test]
fn ingest_allocates_for_vector_growth_only() {
    let own = WarehouseName::from("WH");
    let other = WarehouseName::from("OTHER");
    // Interleaved with a foreign warehouse's records, which the store drops,
    // and delivered in batches of a hundred, the way the fetcher delivers.
    let queries: Vec<QueryRecord> = (0..RECORDS)
        .flat_map(|i| [query(&own, i), query(&other, i)])
        .collect();
    let events: Vec<WarehouseEventRecord> = (0..RECORDS)
        .flat_map(|i| [event(&own, i), event(&other, i)])
        .collect();
    let mut store = TelemetryStore::for_warehouse(own.clone());

    let in_queries = allocations_in(|| {
        for batch in queries.chunks(200) {
            store.ingest_queries(batch);
        }
    });
    let in_events = allocations_in(|| {
        for batch in events.chunks(200) {
            store.ingest_events(batch);
        }
    });
    assert!(
        in_queries <= GROWTH,
        "{in_queries} allocations for {RECORDS} query records"
    );
    assert!(
        in_events <= GROWTH,
        "{in_events} allocations for {RECORDS} events"
    );

    let stored = store.queries("WH");
    assert_eq!(stored.len() as u64, RECORDS);
    assert!(stored
        .iter()
        .all(|r| WarehouseName::ptr_eq(&r.warehouse, &own)));
    assert_eq!(store.queries("OTHER").len(), 0);
    assert_eq!(store.events_in("WH", 0, u64::MAX).len() as u64, RECORDS);
}
