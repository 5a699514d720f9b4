//! Value-based pricing (§4.7).
//!
//! "Customers are charged a percentage of the actual savings realized as a
//! direct result of KWO's actions ... there is no lock-in or upfront cost
//! ... customers only pay for the value already delivered."

#![warn(clippy::as_conversions)]

use costmodel::SavingsReport;
use serde::{Deserialize, Serialize};

/// An invoice line derived from a savings report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Invoice {
    /// Savings the charge is based on (clamped at zero: "no savings, no
    /// charges", C1).
    pub billable_savings_credits: f64,
    /// Keebo's share.
    pub charge_credits: f64,
    /// What the customer keeps.
    pub customer_net_credits: f64,
}

/// Percentage-of-savings pricing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValueBasedPricing {
    /// Fraction of savings charged, in [0, 1].
    pub rate: f64,
}

impl Default for ValueBasedPricing {
    fn default() -> Self {
        Self { rate: 0.3 }
    }
}

impl ValueBasedPricing {
    /// Creates a pricing scheme.
    ///
    /// # Panics
    /// Panics unless `rate` is in [0, 1].
    pub fn new(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        Self { rate }
    }

    /// Prices a savings report.
    pub fn invoice(&self, report: &SavingsReport) -> Invoice {
        let billable = report.estimated_savings.max(0.0);
        let charge = billable * self.rate;
        Invoice {
            billable_savings_credits: billable,
            charge_credits: charge,
            customer_net_credits: billable - charge,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use costmodel::ReplayOutcome;

    fn report(savings: f64) -> SavingsReport {
        SavingsReport {
            window_start: 0,
            window_end: 1,
            estimated_without_keebo: 100.0,
            actual_with_keebo: 100.0 - savings,
            estimated_savings: savings,
            savings_fraction: savings / 100.0,
            replay: ReplayOutcome {
                estimated_credits: 100.0,
                hourly: cdw_sim::HourlyCredits::new(),
                active_ms: 0,
                sessions: 0,
                replayed_queries: 0,
            },
        }
    }

    #[test]
    fn charge_is_a_fraction_of_savings() {
        let inv = ValueBasedPricing::new(0.3).invoice(&report(40.0));
        assert!((inv.charge_credits - 12.0).abs() < 1e-12);
        assert!((inv.customer_net_credits - 28.0).abs() < 1e-12);
    }

    #[test]
    fn no_savings_no_charge() {
        let inv = ValueBasedPricing::default().invoice(&report(0.0));
        assert_eq!(inv.charge_credits, 0.0);
    }

    #[test]
    fn negative_savings_never_bill_the_customer() {
        let inv = ValueBasedPricing::default().invoice(&report(-5.0));
        assert_eq!(inv.billable_savings_credits, 0.0);
        assert_eq!(inv.charge_credits, 0.0);
    }

    #[test]
    #[should_panic(expected = "rate must be in [0, 1]")]
    fn invalid_rate_panics() {
        let _ = ValueBasedPricing::new(1.5);
    }
}
