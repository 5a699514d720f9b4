//! Host-speed calibration.
//!
//! The sandbox's speed is not constant: on an otherwise idle 2-vCPU guest
//! the same workload ran 1.25–1.5× slower for ten minutes at a time
//! (neighbours on the host come and go; README, "Reference-host time", has
//! the passes). A slow phase outlasts a run, so repeating the drive inside
//! one run cannot average it away, and two passes a quarter of an hour apart
//! differ by more than any bound the benchmark contract allows.
//!
//! So the three end-to-end timings are reported in *reference-host time*:
//! between drives the run times a fixed kernel that belongs to the benchmark
//! and never touches the system under test, and divides wall time by how
//! much slower than the reference the host currently runs it. A change to
//! the program moves the drive and not the kernel, so gains and regressions
//! pass through unchanged; host drift moves both and largely cancels. The
//! wall figures are printed next to the corrected ones as `info raw.*`.
//!
//! The kernel runs in a child process (`perf calibrate`), so its buffers are
//! not part of the measured process's `peak_rss_mb` and its allocations do
//! not shape the measured process's heap. It mixes what the control plane
//! does a lot of — allocation churn, ordered-map traffic, sorting — with a
//! dependent-load chase over a 16 MiB cycle, because part of the drift is
//! cache and memory contention that compute-only code does not feel.

use perf::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Burst median on the reference host (2 vCPU Sapphire Rapids guest) in a
/// quiet phase. It only fixes the unit — it cancels in every comparison of
/// two runs: a host that runs the kernel in this time reports wall time
/// unchanged.
const REFERENCE_KERNEL_MS: f64 = 6.2;

const CHASE_ENTRIES: usize = 4 << 20;
const CHASE_STEPS: usize = 14_000;
/// Kernel runs per sampling point.
const BURST: usize = 31;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One random cycle through all entries: every load depends on the last.
fn chase_cycle() -> Vec<u32> {
    let mut order: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
    let mut x = 0xDEAD_BEEF_CAFE_F00D_u64;
    for i in (1..CHASE_ENTRIES).rev() {
        let j = (xorshift(&mut x) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let mut cycle = vec![0u32; CHASE_ENTRIES];
    for w in 0..CHASE_ENTRIES {
        cycle[order[w] as usize] = order[(w + 1) % CHASE_ENTRIES];
    }
    cycle
}

fn kernel(cycle: &[u32], at: &mut u32) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..200 {
        let rows: Vec<Vec<f64>> = (0..64)
            .map(|_| (0..32).map(|_| (xorshift(&mut x) % 1000) as f64).collect())
            .collect();
        acc = acc.wrapping_add(
            rows.iter()
                .map(|r| r.iter().sum::<f64>() as u64)
                .sum::<u64>(),
        );
    }
    let mut map = BTreeMap::new();
    for _ in 0..20_000 {
        *map.entry(xorshift(&mut x) % 50_000).or_insert(0u64) += 1;
    }
    acc = acc.wrapping_add(map.values().sum::<u64>());
    let mut keys: Vec<u64> = (0..60_000).map(|_| xorshift(&mut x)).collect();
    keys.sort_unstable();
    acc = acc.wrapping_add(keys[30_000]);
    for _ in 0..CHASE_STEPS {
        *at = cycle[*at as usize];
    }
    acc.wrapping_add(*at as u64)
}

/// `perf calibrate`, the child's side: the median time of a burst of kernel
/// runs, in milliseconds.
pub fn burst_ms() -> f64 {
    let cycle = chase_cycle();
    let mut at = 0;
    let times: Vec<f64> = (0..BURST)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel(&cycle, &mut at));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// The host-speed samples of one run.
#[derive(Default)]
pub struct HostSpeed {
    bursts_ms: Vec<f64>,
}

impl HostSpeed {
    /// Runs one burst in a child process and waits for it; call between
    /// drives.
    pub fn sample(&mut self) {
        let exe = std::env::current_exe().expect("own executable path");
        let out = Command::new(exe)
            .arg("calibrate")
            .output()
            .expect("perf calibrate runs");
        let ms = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse::<f64>()
            .expect("perf calibrate prints one number");
        self.bursts_ms.push(ms);
    }

    pub fn kernel_ms(&self) -> f64 {
        median(&self.bursts_ms)
    }

    /// How much slower than the reference the host ran over this run: wall
    /// time ÷ this is reference-host time.
    pub fn slowdown(&self) -> f64 {
        self.kernel_ms() / REFERENCE_KERNEL_MS
    }
}
