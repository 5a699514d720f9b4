//! Per-second billing with a 60-second minimum, rolled up hourly.
//!
//! Snowflake charges for each second a cluster runs, with a minimum of 60
//! billable seconds every time a cluster starts, at an hourly credit rate set
//! by the warehouse size. The paper's warehouse cost model (§5.1) reproduces
//! exactly this arithmetic during query replay, so the simulator and the cost
//! model share the billing semantics defined here.

#![warn(clippy::as_conversions)]

use crate::size::WarehouseSize;
use crate::time::{hour_index, ms_to_billing_seconds, SimTime, SECOND_MS};
use keebo_obs::Counter;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Minimum billable seconds per cluster start.
pub const MIN_BILL_SECONDS: u64 = 60;

/// Largest integer a f64 represents exactly (2^53). Sim times are
/// milliseconds, so the exact range covers ~285,000 years of simulation;
/// crossing it means an upstream arithmetic bug, not a long run.
pub const F64_EXACT_MAX: u64 = 1 << 53;

/// Counts u64→f64 conversions beyond the exact range and negative-duration
/// spans (see [`exact_f64`] / [`span_ms`]).
fn lossy_cast_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| keebo_obs::global().counter("cdw_sim.billing.lossy_cast"))
}

/// Checked widening of a count/duration to f64.
///
/// Exact for every value up to [`F64_EXACT_MAX`]; beyond that the
/// conversion rounds, which is counted in `cdw_sim.billing.lossy_cast`
/// (and trips a `debug_assert!`) instead of silently corrupting credit
/// arithmetic. This is the funnel for `u64 → f64` on billing/costmodel
/// paths, where `clippy::as_conversions` (rule D6) rejects bare casts.
#[inline]
#[expect(clippy::as_conversions, reason = "this is the checked funnel itself")]
pub fn exact_f64(n: u64) -> f64 {
    if n > F64_EXACT_MAX {
        lossy_cast_counter().inc();
        debug_assert!(false, "u64→f64 conversion of {n} exceeds the exact range");
    }
    n as f64
}

/// [`exact_f64`] for `usize` counts (observation/window tallies).
#[inline]
pub fn count_f64(n: usize) -> f64 {
    #[expect(
        clippy::as_conversions,
        reason = "usize→u64 is lossless on every supported target"
    )]
    exact_f64(n as u64)
}

/// Checked `f64 → SimTime` for rounded durations: exactly `x as SimTime`,
/// but NaN, negatives and values from 2^64 up (which `as` saturates) mean
/// an upstream arithmetic bug, so they are counted in
/// `cdw_sim.billing.lossy_cast` (and trip a `debug_assert!`).
#[inline]
#[expect(clippy::as_conversions, reason = "this is the checked funnel itself")]
pub fn sim_time_from_f64(x: f64) -> SimTime {
    // 2^64, the first f64 above every SimTime.
    const LIMIT: f64 = 18_446_744_073_709_551_616.0;
    if !(0.0..LIMIT).contains(&x) {
        lossy_cast_counter().inc();
        debug_assert!(false, "f64 {x} is outside SimTime's range");
    }
    x as SimTime
}

/// Credits for `secs` billed seconds at `credits_per_second`.
#[inline]
pub fn credits_from_secs(secs: u64, credits_per_second: f64) -> f64 {
    exact_f64(secs) * credits_per_second
}

/// Duration of the span `[start, end)`, guarding inversion: a negative
/// duration (end before start) indicates an upstream event-ordering bug;
/// it is clamped to zero and counted in `cdw_sim.billing.lossy_cast`
/// rather than wrapping around u64 and billing ~585 million years.
#[inline]
pub fn span_ms(start: SimTime, end: SimTime) -> SimTime {
    match end.checked_sub(start) {
        Some(d) => d,
        None => {
            lossy_cast_counter().inc();
            debug_assert!(false, "span inverted: start {start} > end {end}");
            0
        }
    }
}

/// The ratio `numer_ms / denom_ms` as f64 (0.0 when the denominator is
/// zero), both sides converted through [`exact_f64`].
#[inline]
pub fn ms_fraction(numer_ms: SimTime, denom_ms: SimTime) -> f64 {
    if denom_ms == 0 {
        return 0.0;
    }
    exact_f64(numer_ms) / exact_f64(denom_ms)
}

/// Counts credit amounts rejected by [`HourlyCredits::add`] (non-finite or
/// negative). A production-style run surfaces upstream arithmetic bugs in
/// the metrics snapshot instead of aborting mid-flight.
fn invalid_credit_counter() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| keebo_obs::global().counter("cdw_sim.billing.invalid_credit"))
}

/// Credits billed for one cluster session of `duration_ms` at `size`.
///
/// The 60-second minimum applies per session (per cluster start).
pub fn session_credits(size: WarehouseSize, duration_ms: SimTime) -> f64 {
    let secs = ms_to_billing_seconds(duration_ms).max(MIN_BILL_SECONDS);
    credits_from_secs(secs, size.credits_per_second())
}

/// Credits accumulated per hour bucket for one warehouse (or overhead
/// category). Key is the hour index from simulation start.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HourlyCredits {
    buckets: BTreeMap<u64, f64>,
}

impl HourlyCredits {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `credits` attributed to the hour containing `at`.
    ///
    /// Non-finite or negative amounts indicate an upstream arithmetic bug;
    /// they are dropped and counted in `cdw_sim.billing.invalid_credit`
    /// (and trip a `debug_assert!` in debug builds) rather than aborting a
    /// fleet run mid-flight.
    pub fn add(&mut self, at: SimTime, credits: f64) {
        // Exact zero is the sentinel for "nothing billed", not a tolerance.
        if credits == 0.0 {
            return;
        }
        if !(credits > 0.0 && credits.is_finite()) {
            invalid_credit_counter().inc();
            debug_assert!(false, "bad credit amount {credits}");
            return;
        }
        *self.buckets.entry(hour_index(at)).or_insert(0.0) += credits;
    }

    /// Attributes a session `[start, end)` at `size` across hour buckets:
    /// usage credits are split proportionally to the seconds falling into
    /// each hour; the minimum top-up (if the session ran under 60 s) is
    /// charged to the start hour, which is where Snowflake's bill shows it.
    ///
    /// The final hour slice absorbs the partial-second round-up so that
    /// [`HourlyCredits::total`] equals [`session_credits`] exactly — the
    /// ledger and the cost model's replay arithmetic must never disagree.
    pub fn add_session(&mut self, size: WarehouseSize, start: SimTime, end: SimTime) {
        assert!(end >= start, "session ends before it starts");
        let duration = end - start;
        let billed_secs = ms_to_billing_seconds(duration);
        let min_topup_secs = MIN_BILL_SECONDS.saturating_sub(billed_secs);
        if min_topup_secs > 0 {
            self.add(
                start,
                credits_from_secs(min_topup_secs, size.credits_per_second()),
            );
        }
        // Walk hour boundaries, attributing each slice. Non-final slices
        // bill raw fractional seconds; the final slice takes whatever
        // remains of the rounded-up total, keeping the sum exact.
        let usage_secs = exact_f64(billed_secs);
        let mut attributed = 0.0;
        let mut t = start;
        while t < end {
            let hour_end = (hour_index(t) + 1) * crate::time::HOUR_MS;
            let slice_end = hour_end.min(end);
            let slice_ms = slice_end - t;
            let slice_secs = if slice_end == end {
                (usage_secs - attributed).max(0.0)
            } else {
                ms_fraction(slice_ms, SECOND_MS)
            };
            self.add(t, slice_secs * size.credits_per_second());
            attributed += slice_secs;
            t = slice_end;
        }
        if duration == 0 && min_topup_secs == 0 {
            // Unreachable: zero duration always yields a top-up. Kept as a
            // defensive invariant for future edits.
            unreachable!("zero-duration session must bill the minimum");
        }
    }

    /// Credits in a specific hour bucket.
    pub fn hour(&self, hour: u64) -> f64 {
        self.buckets.get(&hour).copied().unwrap_or(0.0)
    }

    /// Total credits across all hours.
    pub fn total(&self) -> f64 {
        self.buckets.values().sum()
    }

    /// Total credits in the hour range `[from_hour, to_hour)`.
    pub fn range_total(&self, from_hour: u64, to_hour: u64) -> f64 {
        self.buckets.range(from_hour..to_hour).map(|(_, v)| v).sum()
    }

    /// Iterates (hour, credits) in hour order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.buckets.iter().map(|(&h, &c)| (h, c))
    }

    /// Per-day totals (24-hour buckets), keyed by day index.
    pub fn daily_totals(&self) -> BTreeMap<u64, f64> {
        let mut days = BTreeMap::new();
        for (&h, &c) in &self.buckets {
            *days.entry(h / 24).or_insert(0.0) += c;
        }
        days
    }
}

/// One closed cluster billing session as recorded by the ledger. Every
/// credit a warehouse accrues flows through exactly one of these (the
/// `record_session` funnel), which is what makes an independent billing
/// oracle possible: replaying the session log must reproduce the hourly
/// buckets to within float tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionRecord {
    /// Size the session was billed at (resize closes the old-rate session).
    pub size: WarehouseSize,
    /// Cluster start (or resize) time, ms.
    pub start: SimTime,
    /// Cluster stop / suspend / resize time, ms.
    pub end: SimTime,
}

/// Applies `f` to `map[key]`, inserting `V::default()` first on a miss: the
/// key is copied into the map only then, where `entry(key.to_string())`
/// copies it on every call.
fn with_slot<V: Default>(map: &mut BTreeMap<String, V>, key: &str, f: impl FnOnce(&mut V)) {
    match map.get_mut(key) {
        Some(v) => f(v),
        None => f(map.entry(key.to_string()).or_default()),
    }
}

/// Account-wide billing ledger: one [`HourlyCredits`] per warehouse name,
/// plus a separate overhead category for metadata/actuation queries (this
/// separation is what Fig. 6 of the paper plots).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BillingLedger {
    per_warehouse: BTreeMap<String, HourlyCredits>,
    overhead: HourlyCredits,
    sessions: BTreeMap<String, Vec<SessionRecord>>,
}

impl BillingLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a cluster session for a warehouse.
    pub fn record_session(
        &mut self,
        warehouse: &str,
        size: WarehouseSize,
        start: SimTime,
        end: SimTime,
    ) {
        with_slot(&mut self.per_warehouse, warehouse, |h| {
            h.add_session(size, start, end)
        });
        with_slot(&mut self.sessions, warehouse, |s| {
            s.push(SessionRecord { size, start, end })
        });
    }

    /// Records overhead credits (telemetry fetch, actuator commands).
    pub fn record_overhead(&mut self, at: SimTime, credits: f64) {
        self.overhead.add(at, credits);
    }

    /// Hourly credits for one warehouse (empty if unknown).
    pub fn warehouse(&self, name: &str) -> HourlyCredits {
        self.per_warehouse.get(name).cloned().unwrap_or_default()
    }

    /// Borrowed access without cloning.
    pub fn warehouse_ref(&self, name: &str) -> Option<&HourlyCredits> {
        self.per_warehouse.get(name)
    }

    /// Overhead category.
    pub fn overhead(&self) -> &HourlyCredits {
        &self.overhead
    }

    /// Total credits across every warehouse (excluding overhead).
    pub fn total_credits(&self) -> f64 {
        self.per_warehouse.values().map(HourlyCredits::total).sum()
    }

    /// Total including overhead.
    pub fn total_with_overhead(&self) -> f64 {
        self.total_credits() + self.overhead.total()
    }

    /// Warehouse names present in the ledger.
    pub fn warehouse_names(&self) -> impl Iterator<Item = &str> {
        self.per_warehouse.keys().map(String::as_str)
    }

    /// Closed billing sessions for one warehouse, in recording order
    /// (session end times are non-decreasing because the simulator clock
    /// is monotone). Empty for unknown warehouses.
    pub fn sessions(&self, warehouse: &str) -> &[SessionRecord] {
        self.sessions
            .get(warehouse)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

#[cfg(test)]
#[allow(clippy::as_conversions)]
mod tests {
    use super::*;
    use crate::time::HOUR_MS;

    #[test]
    fn exact_f64_is_exact_through_2_to_53() {
        assert_eq!(exact_f64(0), 0.0);
        assert_eq!(exact_f64(1), 1.0);
        assert_eq!(exact_f64(F64_EXACT_MAX), 9_007_199_254_740_992.0);
        // The exact boundary round-trips bit-for-bit.
        assert_eq!(exact_f64(F64_EXACT_MAX) as u64, F64_EXACT_MAX);
        // 2^53 - 1 is the last value where every integer below is exact.
        assert_eq!(exact_f64(F64_EXACT_MAX - 1) as u64, F64_EXACT_MAX - 1);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds the exact range")]
    fn exact_f64_beyond_2_to_53_trips_debug_assert() {
        exact_f64(F64_EXACT_MAX + 1);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn exact_f64_beyond_2_to_53_is_counted_not_fatal() {
        let counter = keebo_obs::global().counter("cdw_sim.billing.lossy_cast");
        let before = counter.get();
        // 2^53 + 1 is the first unrepresentable integer: it rounds to 2^53.
        assert_eq!(exact_f64(F64_EXACT_MAX + 1), 9_007_199_254_740_992.0);
        assert_eq!(counter.get(), before + 1);
    }

    #[test]
    fn sim_time_from_f64_is_exact_below_2_to_64() {
        assert_eq!(sim_time_from_f64(1.0), 1);
        assert_eq!(sim_time_from_f64(9_007_199_254_740_992.0), F64_EXACT_MAX);
        // The largest f64 below 2^64 is 2^64 - 2^11.
        let below = 18_446_744_073_709_549_568.0;
        assert_eq!(sim_time_from_f64(below), u64::MAX - 2_047);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside SimTime's range")]
    fn sim_time_from_f64_at_2_to_64_trips_debug_assert() {
        sim_time_from_f64(u64::MAX as f64);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn sim_time_from_f64_out_of_range_saturates_and_is_counted() {
        let counter = keebo_obs::global().counter("cdw_sim.billing.lossy_cast");
        let before = counter.get();
        // `u64::MAX as f64` rounds up to 2^64: one past the range.
        assert_eq!(sim_time_from_f64(u64::MAX as f64), u64::MAX);
        assert_eq!(sim_time_from_f64(1e300), u64::MAX);
        assert_eq!(sim_time_from_f64(-1.0), 0);
        // Other tests bump the same global counter concurrently.
        assert!(counter.get() >= before + 3);
    }

    #[test]
    fn count_f64_matches_exact_f64() {
        assert_eq!(count_f64(12_345).to_bits(), exact_f64(12_345).to_bits());
    }

    #[test]
    fn credits_from_secs_scales_rate() {
        let rate = WarehouseSize::XSmall.credits_per_second();
        assert_eq!(credits_from_secs(0, rate), 0.0);
        assert!((credits_from_secs(3_600, rate) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn span_ms_measures_forward_spans() {
        assert_eq!(span_ms(100, 250), 150);
        assert_eq!(span_ms(7, 7), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "span inverted")]
    fn span_ms_inversion_trips_debug_assert() {
        span_ms(100, 50);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn span_ms_inversion_is_clamped_not_wrapped() {
        let counter = keebo_obs::global().counter("cdw_sim.billing.lossy_cast");
        let before = counter.get();
        assert_eq!(span_ms(100, 50), 0, "negative duration clamps to zero");
        assert_eq!(counter.get(), before + 1);
    }

    #[test]
    fn ms_fraction_guards_zero_denominator() {
        assert_eq!(ms_fraction(500, 1_000), 0.5);
        assert_eq!(ms_fraction(0, 1_000), 0.0);
        assert_eq!(ms_fraction(1_000, 1_000), 1.0);
        assert_eq!(ms_fraction(42, 0), 0.0);
    }

    #[test]
    fn short_session_bills_sixty_second_minimum() {
        // 10 s on an X-Small: billed 60 s = 1/60 credit.
        let c = session_credits(WarehouseSize::XSmall, 10 * SECOND_MS);
        assert!((c - 60.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn long_session_bills_per_second() {
        // 2 h on a Small (2 credits/h) = 4 credits.
        let c = session_credits(WarehouseSize::Small, 2 * HOUR_MS);
        assert!((c - 4.0).abs() < 1e-9);
    }

    #[test]
    fn partial_seconds_round_up() {
        let c = session_credits(WarehouseSize::XSmall, 61 * SECOND_MS + 1);
        assert!((c - 62.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn hourly_attribution_splits_across_boundaries() {
        let mut h = HourlyCredits::new();
        // Session from 0:30:00 to 1:30:00 on X-Small: 0.5 credits per hour bucket.
        h.add_session(WarehouseSize::XSmall, HOUR_MS / 2, HOUR_MS + HOUR_MS / 2);
        assert!((h.hour(0) - 0.5).abs() < 1e-9);
        assert!((h.hour(1) - 0.5).abs() < 1e-9);
        assert!((h.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn minimum_topup_lands_in_start_hour() {
        let mut h = HourlyCredits::new();
        // 10 s session just before the hour boundary: 10 s spill into usage,
        // 50 s of top-up charged at the start hour.
        h.add_session(
            WarehouseSize::XSmall,
            HOUR_MS - 5 * SECOND_MS,
            HOUR_MS + 5 * SECOND_MS,
        );
        let per_sec = WarehouseSize::XSmall.credits_per_second();
        assert!((h.hour(0) - 55.0 * per_sec).abs() < 1e-12);
        assert!((h.hour(1) - 5.0 * per_sec).abs() < 1e-12);
        assert!((h.total() - 60.0 * per_sec).abs() < 1e-12);
    }

    #[test]
    fn session_total_matches_session_credits() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Exact: the final hour slice absorbs the partial-second round-up,
        // so the ledger agrees with session_credits.
        let check = |label: &str, size: WarehouseSize, start: SimTime, dur: SimTime| {
            let mut h = HourlyCredits::new();
            h.add_session(size, start, start + dur);
            let direct = session_credits(size, dur);
            assert!(
                (h.total() - direct).abs() <= 1e-9,
                "{label}: {size:?} start {start} dur {dur}: {} vs {direct}",
                h.total()
            );
        };
        for dur in [0u64, 500, 59_999, 60_000, 61_500, 3 * HOUR_MS + 17] {
            check("edge", WarehouseSize::Medium, 12_345, dur);
        }
        for case in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let size = WarehouseSize::ALL[rng.gen_range(0..WarehouseSize::ALL.len())];
            let start = rng.gen_range(0..48 * HOUR_MS);
            let dur = rng.gen_range(0..6 * HOUR_MS);
            check(&format!("case {case}"), size, start, dur);
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "bad credit amount")]
    fn invalid_credit_trips_debug_assert() {
        let mut h = HourlyCredits::new();
        h.add(0, f64::NAN);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn invalid_credit_is_counted_not_fatal() {
        let counter = keebo_obs::global().counter("cdw_sim.billing.invalid_credit");
        let before = counter.get();
        let mut h = HourlyCredits::new();
        h.add(0, f64::NAN);
        h.add(0, -1.0);
        h.add(0, f64::INFINITY);
        assert_eq!(h.total(), 0.0, "invalid amounts are dropped");
        assert_eq!(counter.get(), before + 3);
    }

    #[test]
    fn daily_totals_aggregate_hours() {
        let mut h = HourlyCredits::new();
        h.add(0, 1.0);
        h.add(23 * HOUR_MS, 2.0);
        h.add(24 * HOUR_MS, 4.0);
        let days = h.daily_totals();
        assert_eq!(days[&0], 3.0);
        assert_eq!(days[&1], 4.0);
    }

    #[test]
    fn range_total_is_half_open() {
        let mut h = HourlyCredits::new();
        h.add(0, 1.0);
        h.add(HOUR_MS, 2.0);
        h.add(2 * HOUR_MS, 4.0);
        assert_eq!(h.range_total(0, 2), 3.0);
        assert_eq!(h.range_total(1, 3), 6.0);
    }

    #[test]
    fn ledger_separates_warehouses_and_overhead() {
        let mut l = BillingLedger::new();
        l.record_session("A", WarehouseSize::XSmall, 0, HOUR_MS);
        l.record_session("B", WarehouseSize::Small, 0, HOUR_MS);
        l.record_overhead(0, 0.01);
        assert!((l.warehouse("A").total() - 1.0).abs() < 1e-9);
        assert!((l.warehouse("B").total() - 2.0).abs() < 1e-9);
        assert!((l.total_credits() - 3.0).abs() < 1e-9);
        assert!((l.total_with_overhead() - 3.01).abs() < 1e-9);
        assert_eq!(l.warehouse("missing").total(), 0.0);
    }

    #[test]
    fn ledger_records_session_log() {
        let mut l = BillingLedger::new();
        l.record_session("A", WarehouseSize::XSmall, 0, HOUR_MS);
        l.record_session("A", WarehouseSize::Small, HOUR_MS, 2 * HOUR_MS);
        let log = l.sessions("A");
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].size, WarehouseSize::XSmall);
        assert_eq!(log[1].start, HOUR_MS);
        assert!(l.sessions("missing").is_empty());
    }

    #[test]
    #[should_panic(expected = "session ends before it starts")]
    fn inverted_session_panics() {
        let mut h = HourlyCredits::new();
        h.add_session(WarehouseSize::XSmall, 100, 50);
    }
}
