//! Simulation time.
//!
//! Time is a `u64` count of milliseconds since the start of the simulation.
//! Milliseconds are fine-grained enough for sub-second query latencies (the
//! paper's Fig. 7 reports average latencies around 1.4 s) while keeping all
//! arithmetic exact and deterministic.

#![warn(clippy::as_conversions)]

/// Milliseconds since simulation start.
pub type SimTime = u64;

/// One second in [`SimTime`] units.
pub const SECOND_MS: SimTime = 1_000;
/// One minute in [`SimTime`] units.
pub const MINUTE_MS: SimTime = 60 * SECOND_MS;
/// One hour in [`SimTime`] units.
pub const HOUR_MS: SimTime = 60 * MINUTE_MS;
/// One day in [`SimTime`] units.
pub const DAY_MS: SimTime = 24 * HOUR_MS;

/// Index of the hour bucket containing `t` (hour 0 = [0, 1h)).
#[inline]
pub fn hour_index(t: SimTime) -> u64 {
    t / HOUR_MS
}

/// Index of the day containing `t` (day 0 = [0, 24h)).
#[inline]
pub fn day_index(t: SimTime) -> u64 {
    t / DAY_MS
}

/// Fraction of the day elapsed at `t`, in [0, 1).
#[inline]
pub fn time_of_day_fraction(t: SimTime) -> f64 {
    crate::billing::ms_fraction(t % DAY_MS, DAY_MS)
}

/// Hour of day in [0, 24).
#[inline]
pub fn hour_of_day(t: SimTime) -> f64 {
    time_of_day_fraction(t) * 24.0
}

/// Day of week in [0, 7), with day 0 of the simulation being weekday 0.
#[inline]
#[expect(clippy::as_conversions, reason = "a remainder mod 7 always fits in u8")]
pub fn day_of_week(t: SimTime) -> u8 {
    (day_index(t) % 7) as u8
}

/// True when `t` falls on a weekend (weekdays 5 and 6 of the sim week).
#[inline]
pub fn is_weekend(t: SimTime) -> bool {
    day_of_week(t) >= 5
}

/// Converts milliseconds to whole billing seconds, rounding up (Snowflake
/// bills any started second).
#[inline]
pub fn ms_to_billing_seconds(ms: SimTime) -> u64 {
    ms.div_ceil(SECOND_MS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_index_buckets_boundaries_correctly() {
        assert_eq!(hour_index(0), 0);
        assert_eq!(hour_index(HOUR_MS - 1), 0);
        assert_eq!(hour_index(HOUR_MS), 1);
        assert_eq!(hour_index(25 * HOUR_MS + 1), 25);
    }

    #[test]
    fn day_index_and_week_wrap() {
        assert_eq!(day_index(0), 0);
        assert_eq!(day_index(DAY_MS), 1);
        assert_eq!(day_of_week(6 * DAY_MS), 6);
        assert_eq!(day_of_week(7 * DAY_MS), 0);
    }

    #[test]
    fn weekend_detection() {
        assert!(!is_weekend(0));
        assert!(!is_weekend(4 * DAY_MS));
        assert!(is_weekend(5 * DAY_MS));
        assert!(is_weekend(6 * DAY_MS + HOUR_MS));
        assert!(!is_weekend(7 * DAY_MS));
    }

    #[test]
    fn time_of_day_fraction_is_periodic() {
        assert_eq!(time_of_day_fraction(0), 0.0);
        assert!((time_of_day_fraction(12 * HOUR_MS) - 0.5).abs() < 1e-12);
        assert!((time_of_day_fraction(DAY_MS + 6 * HOUR_MS) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn hour_of_day_spans_24() {
        assert!((hour_of_day(23 * HOUR_MS) - 23.0).abs() < 1e-9);
        assert!(hour_of_day(DAY_MS - 1) < 24.0);
    }

    #[test]
    fn billing_seconds_round_up() {
        assert_eq!(ms_to_billing_seconds(0), 0);
        assert_eq!(ms_to_billing_seconds(1), 1);
        assert_eq!(ms_to_billing_seconds(999), 1);
        assert_eq!(ms_to_billing_seconds(1000), 1);
        assert_eq!(ms_to_billing_seconds(1001), 2);
    }
}
