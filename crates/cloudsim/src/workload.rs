//! Workload descriptions — the interface between DISAR's EEBs and the
//! simulated cloud.
//!
//! A [`Workload`] is what the scheduler knows about a job *a priori*: its
//! abstract compute size, memory footprint, data volume and serial
//! fraction. The hidden performance model turns it into a realized duration
//! on specific hardware; the provisioner's ML models must learn that
//! mapping from observations.

use crate::CloudError;

/// The resource profile of one distributed job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Total compute size in abstract work units (≈ single reference-core
    /// seconds).
    pub work_units: f64,
    /// Peak memory footprint in GiB (split across nodes when distributed).
    pub memory_gib: f64,
    /// Total scattered + gathered data in MiB.
    pub transfer_mib: f64,
    /// Amdahl serial fraction in `[0, 1)` — the part of the job that cannot
    /// be parallelized (orchestration, final aggregation).
    pub serial_fraction: f64,
}

impl Workload {
    /// Creates a workload description.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::InvalidParameter`] for work that is not a
    /// finite positive number, memory/transfer that is not a finite
    /// non-negative number, or a serial fraction outside `[0, 1)`.
    pub fn new(
        work_units: f64,
        memory_gib: f64,
        transfer_mib: f64,
        serial_fraction: f64,
    ) -> Result<Self, CloudError> {
        if !(work_units > 0.0 && work_units.is_finite()) {
            return Err(CloudError::InvalidParameter(
                "work_units must be finite and > 0",
            ));
        }
        if !(memory_gib >= 0.0 && memory_gib.is_finite()) {
            return Err(CloudError::InvalidParameter(
                "memory_gib must be finite and >= 0",
            ));
        }
        if !(transfer_mib >= 0.0 && transfer_mib.is_finite()) {
            return Err(CloudError::InvalidParameter(
                "transfer_mib must be finite and >= 0",
            ));
        }
        if !(0.0..1.0).contains(&serial_fraction) {
            return Err(CloudError::InvalidParameter(
                "serial_fraction must be in [0, 1)",
            ));
        }
        Ok(Workload {
            work_units,
            memory_gib,
            transfer_mib,
            serial_fraction,
        })
    }

    /// Merges two workloads that run as one job (work and memory add,
    /// serial fractions combine work-weighted).
    pub fn merge(&self, other: &Workload) -> Workload {
        let w = self.work_units + other.work_units;
        Workload {
            work_units: w,
            memory_gib: self.memory_gib + other.memory_gib,
            transfer_mib: self.transfer_mib + other.transfer_mib,
            serial_fraction: (self.serial_fraction * self.work_units
                + other.serial_fraction * other.work_units)
                / w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Workload::new(0.0, 1.0, 1.0, 0.1).is_err());
        assert!(Workload::new(1.0, -1.0, 1.0, 0.1).is_err());
        assert!(Workload::new(1.0, 1.0, -1.0, 0.1).is_err());
        assert!(Workload::new(1.0, 1.0, 1.0, 1.0).is_err());
        assert!(Workload::new(1.0, 1.0, 1.0, 0.0).is_ok());
    }

    #[test]
    fn non_finite_workload_fields_are_typed_errors() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for args in [
                (bad, 1.0, 1.0, 0.1),
                (1.0, bad, 1.0, 0.1),
                (1.0, 1.0, bad, 0.1),
                (1.0, 1.0, 1.0, bad),
            ] {
                assert!(matches!(
                    Workload::new(args.0, args.1, args.2, args.3),
                    Err(CloudError::InvalidParameter(_))
                ));
            }
        }
    }

    #[test]
    fn merge_adds_and_weights() {
        let a = Workload::new(100.0, 2.0, 10.0, 0.1).unwrap();
        let b = Workload::new(300.0, 6.0, 30.0, 0.3).unwrap();
        let m = a.merge(&b);
        assert_eq!(m.work_units, 400.0);
        assert_eq!(m.memory_gib, 8.0);
        assert_eq!(m.transfer_mib, 40.0);
        assert!((m.serial_fraction - 0.25).abs() < 1e-12);
    }
}
