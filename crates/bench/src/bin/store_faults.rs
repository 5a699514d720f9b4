//! Store benchmark: crash drills under injected faults.
//!
//! Drives the shared `keebo::drill` harness across both store media —
//! [`keebo::MemStore`] and [`keebo::FileStore`], healthy and behind a
//! [`keebo::FaultyStore`] under seeded fault plans — cycling media, fault
//! plans, scenarios, and compaction policies cell by cell. Every cell kills
//! the control plane at a seeded tick, restores from the surviving store, and
//! compares the finished run bit-for-bit against an uninterrupted baseline. A slice of the file-backed
//! cells also tears the WAL mid-frame at the kill: those must recover and
//! report the truncated bytes, but legitimately lose the final record, so
//! bit-identity is asserted on the clean cells only. Any divergence exits
//! non-zero; a diverging file-backed cell keeps its WAL directory on disk
//! (`STORE_wal/cell<N>/`) for CI artifact upload.
//!
//! Writes `BENCH_store.json` with recovery-latency and replay-length
//! statistics.
//!
//! Usage: `store_faults [--smoke] [--seed N] [--cells N]` — `--smoke` is
//! the bounded CI configuration (9 cells); the default campaign is 30.

use bench::mean;
use bench::report::{header, write_json};
use keebo::drill::{run_cell, run_uninterrupted, DrillBackend, DrillCell, SCENARIOS};
use keebo::{SnapshotPolicy, StoreFaultPlan};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct StoreFaultsOutput {
    smoke: bool,
    start_seed: u64,
    cells: usize,
    mem_cells: usize,
    file_cells: usize,
    /// Cells (of either medium) run behind a fault plan.
    faulted_cells: usize,
    torn_cells: usize,
    wal_bytes_truncated_total: u64,
    digest_matches: usize,
    wall_secs: f64,
    recovery_ms_mean: f64,
    recovery_ms_max: f64,
    replayed_records_mean: f64,
    replayed_records_max: u64,
    snapshot_bytes_mean: f64,
    snapshot_bytes_max: u64,
    faulted_recovery_ms_mean: f64,
}

/// Mild fault plans for the faulted cells: rates stay far inside the
/// orchestrator's retry budgets so a drilled store never detaches (a detach
/// would legitimately break bit-identity).
fn fault_plan(k: u64) -> StoreFaultPlan {
    match k % 3 {
        0 => StoreFaultPlan {
            seed: 0xBEEF ^ k,
            latency_us: 400,
            ..StoreFaultPlan::none()
        },
        1 => StoreFaultPlan {
            seed: 0xBEEF ^ k,
            append_error_ppm: 30_000,
            latency_us: 900,
            ..StoreFaultPlan::none()
        },
        _ => StoreFaultPlan {
            seed: 0xBEEF ^ k,
            append_error_ppm: 20_000,
            snapshot_error_ppm: 200_000,
            read_timeout_ppm: 60_000,
            latency_us: 1500,
        },
    }
}

/// The tight compaction policy half the cells run (odd indices); even
/// cells run the default 48-tick cadence.
fn tight_policy() -> SnapshotPolicy {
    SnapshotPolicy {
        interval_ticks: 7,
        max_wal_bytes: 0,
        max_wal_records: 12,
        retain_snapshots: 2,
    }
}

fn main() {
    let smoke = bench::args::flag("--smoke");
    let start_seed = bench::args::value("--seed").unwrap_or(0);
    let cells = bench::args::value("--cells").unwrap_or(if smoke { 9 } else { 30 });
    header(&format!(
        "store-faults campaign: {cells} crash-drill cells from seed {start_seed}{}",
        if smoke { " [smoke]" } else { "" }
    ));

    let wal_root = PathBuf::from("STORE_wal");
    let start = Instant::now();

    let mut digest_matches = 0usize;
    let mut torn_cells = 0usize;
    let mut truncated_total = 0u64;
    let mut file_cells = 0usize;
    let mut recovery_ms = Vec::with_capacity(cells);
    let mut faulted_recovery_ms = Vec::new();
    let mut replayed = Vec::with_capacity(cells);
    let mut snapshot_bytes = Vec::with_capacity(cells);
    let mut failed = false;

    for i in 0..cells {
        let seed = start_seed + i as u64 * 7 + 11;
        let scenario = i % SCENARIOS;
        let dir = wal_root.join(format!("cell{i}"));
        // Cells cycle healthy mem / healthy file / faulted; every other
        // faulted cell is file-backed too.
        let faulted = i % 3 == 2;
        let backend = if i % 3 == 1 || i % 6 == 5 {
            std::fs::remove_dir_all(&dir).ok();
            file_cells += 1;
            DrillBackend::File(dir.clone())
        } else {
            DrillBackend::Mem
        };
        let cell = DrillCell {
            scenario,
            seed,
            crash_seed: seed.wrapping_mul(1_000) + i as u64,
            backend,
            faults: if faulted {
                fault_plan(seed)
            } else {
                StoreFaultPlan::none()
            },
            policy: (i % 2 == 1).then(tight_policy),
            // Every other file-backed cell is killed mid-write.
            torn: i % 6 == 4,
        };

        let baseline = run_uninterrupted(scenario, seed);
        let out = match run_cell(&cell) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("cell {i} (seed {seed}): drill failed: {e}");
                failed = true;
                continue;
            }
        };
        recovery_ms.push(out.stats.recovery_wall_ms);
        if faulted {
            faulted_recovery_ms.push(out.stats.recovery_wall_ms);
        }
        replayed.push(out.stats.replayed_records);
        snapshot_bytes.push(out.stats.snapshot_bytes);
        truncated_total += out.stats.wal_truncated_bytes;

        if cell.torn {
            torn_cells += 1;
            if out.stats.wal_truncated_bytes > 0 {
                digest_matches += 1;
                std::fs::remove_dir_all(&dir).ok();
            } else {
                eprintln!("cell {i} (seed {seed}): torn WAL tail went unreported");
                failed = true;
            }
        } else if out.fingerprint == baseline {
            digest_matches += 1;
            if matches!(cell.backend, DrillBackend::File(_)) {
                std::fs::remove_dir_all(&dir).ok();
            }
        } else {
            eprintln!(
                "cell {i} (seed {seed}, scenario {scenario}, crash tick {}): digest mismatch \
                 (baseline log {} / credits {:#x}, recovered log {} / credits {:#x}){}",
                out.crash_tick,
                baseline.0.len(),
                baseline.1,
                out.fingerprint.0.len(),
                out.fingerprint.1,
                if matches!(cell.backend, DrillBackend::File(_)) {
                    format!("; WAL kept at {}", dir.display())
                } else {
                    String::new()
                }
            );
            failed = true;
        }
    }

    let wall = start.elapsed().as_secs_f64();
    let out = StoreFaultsOutput {
        smoke,
        start_seed,
        cells,
        mem_cells: cells - file_cells,
        file_cells,
        faulted_cells: faulted_recovery_ms.len(),
        torn_cells,
        wal_bytes_truncated_total: truncated_total,
        digest_matches,
        wall_secs: wall,
        recovery_ms_mean: mean(&recovery_ms),
        recovery_ms_max: recovery_ms.iter().copied().fold(0.0, f64::max),
        replayed_records_mean: mean(&replayed.iter().map(|&r| r as f64).collect::<Vec<_>>()),
        replayed_records_max: replayed.iter().copied().max().unwrap_or(0),
        snapshot_bytes_mean: mean(&snapshot_bytes.iter().map(|&b| b as f64).collect::<Vec<_>>()),
        snapshot_bytes_max: snapshot_bytes.iter().copied().max().unwrap_or(0),
        faulted_recovery_ms_mean: mean(&faulted_recovery_ms),
    };
    println!(
        "{}/{} digests matched ({} mem / {} file, {} of them faulted; {} torn, {} WAL bytes \
         truncated) in {:.2}s; recovery mean {:.2}ms max {:.2}ms (faulted mean {:.2}ms); \
         replayed mean {:.1} max {}; snapshot mean {:.0}B max {}B",
        out.digest_matches,
        out.cells,
        out.mem_cells,
        out.file_cells,
        out.faulted_cells,
        out.torn_cells,
        out.wal_bytes_truncated_total,
        wall,
        out.recovery_ms_mean,
        out.recovery_ms_max,
        out.faulted_recovery_ms_mean,
        out.replayed_records_mean,
        out.replayed_records_max,
        out.snapshot_bytes_mean,
        out.snapshot_bytes_max,
    );
    write_json("BENCH_store.json", &out);

    if failed {
        eprintln!("store-faults campaign FAILED; any offending WAL dirs kept under STORE_wal/");
        std::process::exit(1);
    }
    std::fs::remove_dir_all(&wal_root).ok();
    println!("all drills bit-identical across both media, healthy and faulted");
}
