//! Billing policies.
//!
//! 2016-era EC2 billed on-demand instances by the *full hour*; the paper's
//! Table II nevertheless reports sub-cent per-simulation costs, i.e. the
//! prorated share of an hour each short simulation consumed. Both views are
//! provided: [`BillingPolicy`] computes the amount actually invoiced,
//! [`prorated_cost`] the economic cost a per-simulation accounting assigns.

use crate::CloudError;

/// How uptime is turned into an invoice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BillingPolicy {
    /// Each started hour is billed in full (EC2 on-demand, 2016).
    PerHour,
    /// Per-second billing with a minimum billed duration (modern clouds).
    PerSecond {
        /// Minimum billed seconds per instance launch.
        min_secs: f64,
    },
}

impl BillingPolicy {
    /// Invoiced amount for a cluster of `n_nodes` instances at
    /// `hourly_rate` each, up for `uptime_secs`.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::InvalidParameter`] for negative uptime, a
    /// non-positive rate, or zero nodes.
    pub fn cost(
        &self,
        uptime_secs: f64,
        hourly_rate: f64,
        n_nodes: usize,
    ) -> Result<f64, CloudError> {
        if uptime_secs < 0.0 {
            return Err(CloudError::InvalidParameter("uptime must be >= 0"));
        }
        if hourly_rate <= 0.0 {
            return Err(CloudError::InvalidParameter("hourly_rate must be > 0"));
        }
        if n_nodes == 0 {
            return Err(CloudError::InvalidParameter("n_nodes must be > 0"));
        }
        let per_node = match self {
            BillingPolicy::PerHour => (uptime_secs / 3600.0).ceil().max(1.0) * hourly_rate,
            BillingPolicy::PerSecond { min_secs } => {
                uptime_secs.max(*min_secs) / 3600.0 * hourly_rate
            }
        };
        Ok(per_node * n_nodes as f64)
    }
}

/// Prorated (fractional-hour) cost — the per-simulation accounting of
/// Table II.
///
/// # Errors
///
/// Same validation as [`BillingPolicy::cost`].
pub fn prorated_cost(
    uptime_secs: f64,
    hourly_rate: f64,
    n_nodes: usize,
) -> Result<f64, CloudError> {
    if uptime_secs < 0.0 {
        return Err(CloudError::InvalidParameter("uptime must be >= 0"));
    }
    if hourly_rate <= 0.0 {
        return Err(CloudError::InvalidParameter("hourly_rate must be > 0"));
    }
    if n_nodes == 0 {
        return Err(CloudError::InvalidParameter("n_nodes must be > 0"));
    }
    Ok(uptime_secs / 3600.0 * hourly_rate * n_nodes as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_hour_rounds_up() {
        let p = BillingPolicy::PerHour;
        assert_eq!(p.cost(1.0, 1.0, 1).unwrap(), 1.0);
        assert_eq!(p.cost(3600.0, 1.0, 1).unwrap(), 1.0);
        assert_eq!(p.cost(3601.0, 1.0, 1).unwrap(), 2.0);
        // Zero uptime still bills one hour (instance was started).
        assert_eq!(p.cost(0.0, 1.0, 1).unwrap(), 1.0);
    }

    #[test]
    fn per_second_has_minimum() {
        let p = BillingPolicy::PerSecond { min_secs: 60.0 };
        assert!((p.cost(10.0, 3600.0, 1).unwrap() - 60.0).abs() < 1e-9);
        assert!((p.cost(120.0, 3600.0, 1).unwrap() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn cost_scales_with_nodes() {
        let p = BillingPolicy::PerHour;
        assert_eq!(p.cost(100.0, 0.84, 4).unwrap(), 4.0 * 0.84);
    }

    #[test]
    fn prorated_matches_fraction() {
        // 180 s on a $0.84/h instance ≈ $0.042 — the Table II ballpark.
        let c = prorated_cost(180.0, 0.84, 1).unwrap();
        assert!((c - 0.042).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(BillingPolicy::PerHour.cost(-1.0, 1.0, 1).is_err());
        assert!(BillingPolicy::PerHour.cost(1.0, 0.0, 1).is_err());
        assert!(BillingPolicy::PerHour.cost(1.0, 1.0, 0).is_err());
        assert!(prorated_cost(-1.0, 1.0, 1).is_err());
        assert!(prorated_cost(1.0, -1.0, 1).is_err());
        assert!(prorated_cost(1.0, 1.0, 0).is_err());
    }
}
