//! Figure 4 — "Keebo offers significant savings" (§7.1).
//!
//! Reproduces both subfigures: daily credit usage (bars) and daily p99
//! latency (line) for 14 simulated days, with KWO enabled from day 8
//! (index 7). Variant `a` is the unpredictable ad-hoc warehouse (paper:
//! −59.7%, 10.4 → 4.2 credits/day); variant `b` is the predictable ETL
//! warehouse (paper: −13.2%, 26.9 → 23.4 credits/day, with p99 *lower*
//! under KWO thanks to steadier, warmer warehouses).
//!
//! Usage: `cargo run --release -p bench --bin fig4 -- [--variant a|b|both] [--seed N]`

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

use bench::report::{bar_row, header, pct, row, table};
use bench::{fig4, fig4_scenario, reduction, Fig4Variant};
use std::str::FromStr;

/// The `--variant` option: one subfigure, or both.
#[derive(Debug, PartialEq, Eq)]
struct Variants(&'static [Fig4Variant]);

const BOTH: Variants = Variants(&[Fig4Variant::A, Fig4Variant::B]);

impl FromStr for Variants {
    type Err = ();

    fn from_str(s: &str) -> Result<Self, ()> {
        match s {
            "a" => Ok(Variants(&[Fig4Variant::A])),
            "b" => Ok(Variants(&[Fig4Variant::B])),
            "both" => Ok(BOTH),
            _ => Err(()),
        }
    }
}

fn main() {
    let Variants(variants) = bench::args::value("--variant").unwrap_or(BOTH);
    let seed: Option<u64> = bench::args::value("--seed");
    for &variant in variants {
        let mut scenario = fig4_scenario(variant);
        scenario.seed = seed.unwrap_or(scenario.seed);
        header(match variant {
            Fig4Variant::A => "Figure 4a — unpredictable warehouse (ad-hoc analytics)",
            Fig4Variant::B => "Figure 4b — predictable warehouse (recurring ETL)",
        });
        let f = fig4(&scenario);

        let max = f.daily_credits.iter().cloned().fold(0.0, f64::max);
        println!("daily credits (days 1-7 = before Keebo, days 8-14 = with Keebo):");
        for (d, (&c, &l)) in f.daily_credits.iter().zip(&f.daily_p99_ms).enumerate() {
            let tag = if d < f.observe_days { "pre " } else { "KWO " };
            bar_row(&format!("{tag}day {:2}", d + 1), c, max, 40);
            println!("{:>12} |   p99 latency {:>8.1} s", "", l / 1000.0);
        }

        let (before, after) = f.before_after(&f.daily_credits);
        let (p99_before, p99_after) = f.before_after(&f.daily_p99_ms);
        println!();
        table(&[
            row(&["metric", "before", "with KWO", "change"]),
            vec![
                "credits/day".into(),
                format!("{before:.1}"),
                format!("{after:.1}"),
                pct(reduction(before, after)),
            ],
            vec![
                "p99 latency (s)".into(),
                format!("{:.1}", p99_before / 1000.0),
                format!("{:.1}", p99_after / 1000.0),
                pct(reduction(p99_before, p99_after)),
            ],
        ]);
        println!(
            "actions applied: {}   (failures: {})",
            f.actions_applied, f.action_failures
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_parses_a_b_or_both_and_nothing_else() {
        assert_eq!("a".parse(), Ok(Variants(&[Fig4Variant::A])));
        assert_eq!("b".parse(), Ok(Variants(&[Fig4Variant::B])));
        assert_eq!("both".parse(), Ok(BOTH));
        for bad in ["z", "", "A", "ab", "a,b"] {
            assert_eq!(bad.parse::<Variants>(), Err(()), "{bad:?}");
        }
    }
}
