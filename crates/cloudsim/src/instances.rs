//! Virtualized-architecture catalog.
//!
//! "The user of the system can specify a set of available virtualized
//! architectures, along with its capabilities (in terms of, e.g., CPU power,
//! and RAM) and cost per hour" (§III). The built-in catalog is the paper's
//! §IV list with 2016-era us-east-1 on-demand prices; users can register
//! additional types.

use crate::CloudError;
use std::collections::BTreeMap;
use std::fmt;

/// One virtualized hardware configuration (`m ∈ M` in Algorithm 1).
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceType {
    /// EC2-style name, e.g. `"c3.4xlarge"`.
    pub name: String,
    /// Virtual CPU count.
    pub vcpus: u32,
    /// Memory in GiB.
    pub memory_gib: f64,
    /// On-demand price per hour in USD.
    pub hourly_cost: f64,
    /// Relative per-core speed (1.0 = the m4 Haswell baseline; compute-
    /// optimized families clock higher).
    pub per_core_speed: f64,
}

impl InstanceType {
    /// Creates an instance type.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::InvalidParameter`] for zero vCPUs or a
    /// memory/cost/speed that is not a finite positive number.
    pub fn new(
        name: &str,
        vcpus: u32,
        memory_gib: f64,
        hourly_cost: f64,
        per_core_speed: f64,
    ) -> Result<Self, CloudError> {
        if vcpus == 0 {
            return Err(CloudError::InvalidParameter("vcpus must be > 0"));
        }
        if !(memory_gib > 0.0 && memory_gib.is_finite()) {
            return Err(CloudError::InvalidParameter(
                "memory_gib must be finite and > 0",
            ));
        }
        if !(hourly_cost > 0.0 && hourly_cost.is_finite()) {
            return Err(CloudError::InvalidParameter(
                "hourly_cost must be finite and > 0",
            ));
        }
        if !(per_core_speed > 0.0 && per_core_speed.is_finite()) {
            return Err(CloudError::InvalidParameter(
                "per_core_speed must be finite and > 0",
            ));
        }
        Ok(InstanceType {
            name: name.to_string(),
            vcpus,
            memory_gib,
            hourly_cost,
            per_core_speed,
        })
    }

    /// Aggregate compute capability (vCPUs × per-core speed), the
    /// first-order throughput driver.
    pub fn compute_power(&self) -> f64 {
        self.vcpus as f64 * self.per_core_speed
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} vCPU, {} GiB, ${}/h)",
            self.name, self.vcpus, self.memory_gib, self.hourly_cost
        )
    }
}

/// The set `M` of available virtualized architectures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InstanceCatalog {
    types: BTreeMap<String, InstanceType>,
}

impl InstanceCatalog {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// The six instance types used in §IV of the paper, with 2016-era
    /// on-demand pricing (USD/hour, us-east-1) and per-core speed factors
    /// reflecting the Ivy Bridge (c3), Haswell (c4/m4) generations.
    pub fn paper_catalog() -> Self {
        let mut c = InstanceCatalog::new();
        for it in [
            InstanceType::new("m4.4xlarge", 16, 64.0, 0.958, 1.00),
            InstanceType::new("m4.10xlarge", 40, 160.0, 2.394, 1.00),
            InstanceType::new("c3.4xlarge", 16, 30.0, 0.840, 1.06),
            InstanceType::new("c3.8xlarge", 32, 60.0, 1.680, 1.06),
            InstanceType::new("c4.4xlarge", 16, 30.0, 0.838, 1.18),
            InstanceType::new("c4.8xlarge", 36, 60.0, 1.675, 1.18),
        ] {
            c.register(it.expect("catalog constants are valid"));
        }
        c
    }

    /// Adds (or replaces) an instance type.
    pub fn register(&mut self, instance: InstanceType) {
        self.types.insert(instance.name.clone(), instance);
    }

    /// Looks an instance type up by name.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::UnknownInstanceType`] when absent.
    pub fn get(&self, name: &str) -> Result<&InstanceType, CloudError> {
        self.types
            .get(name)
            .ok_or_else(|| CloudError::UnknownInstanceType(name.to_string()))
    }

    /// Iterates the catalog in deterministic (name) order.
    pub fn iter(&self) -> impl Iterator<Item = &InstanceType> {
        self.types.values()
    }

    /// Instance-type names in deterministic order.
    pub fn names(&self) -> Vec<String> {
        self.types.keys().cloned().collect()
    }

    /// Number of registered types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// `true` when no types are registered.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_catalog_has_six_types() {
        let c = InstanceCatalog::paper_catalog();
        assert_eq!(c.len(), 6);
        for name in [
            "m4.4xlarge",
            "m4.10xlarge",
            "c3.4xlarge",
            "c3.8xlarge",
            "c4.4xlarge",
            "c4.8xlarge",
        ] {
            assert!(c.get(name).is_ok(), "{name} missing");
        }
    }

    #[test]
    fn paper_specs_match_section_iv() {
        let c = InstanceCatalog::paper_catalog();
        let m410 = c.get("m4.10xlarge").unwrap();
        assert_eq!(m410.vcpus, 40);
        assert_eq!(m410.memory_gib, 160.0);
        let c34 = c.get("c3.4xlarge").unwrap();
        assert_eq!(c34.vcpus, 16);
        assert_eq!(c34.memory_gib, 30.0);
        let c48 = c.get("c4.8xlarge").unwrap();
        assert_eq!(c48.vcpus, 36);
    }

    #[test]
    fn unknown_type_is_an_error() {
        let c = InstanceCatalog::paper_catalog();
        assert!(matches!(
            c.get("t2.nano"),
            Err(CloudError::UnknownInstanceType(_))
        ));
    }

    #[test]
    fn register_custom_type() {
        let mut c = InstanceCatalog::paper_catalog();
        c.register(InstanceType::new("x1.32xlarge", 128, 1952.0, 13.338, 0.95).unwrap());
        assert_eq!(c.len(), 7);
        assert_eq!(c.get("x1.32xlarge").unwrap().vcpus, 128);
    }

    #[test]
    fn compute_power_ranks_families() {
        let c = InstanceCatalog::paper_catalog();
        // c4.4xlarge has faster cores than m4.4xlarge at equal count.
        assert!(
            c.get("c4.4xlarge").unwrap().compute_power()
                > c.get("m4.4xlarge").unwrap().compute_power()
        );
        // m4.10xlarge has the most vCPUs.
        let max = c.iter().max_by_key(|i| i.vcpus).unwrap();
        assert_eq!(max.name, "m4.10xlarge");
    }

    #[test]
    fn validation_rejects_nonsense() {
        assert!(InstanceType::new("z", 0, 1.0, 1.0, 1.0).is_err());
        assert!(InstanceType::new("z", 1, 0.0, 1.0, 1.0).is_err());
        assert!(InstanceType::new("z", 1, 1.0, 0.0, 1.0).is_err());
        assert!(InstanceType::new("z", 1, 1.0, 1.0, 0.0).is_err());
    }

    #[test]
    fn non_finite_instance_fields_are_typed_errors() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for args in [(bad, 1.0, 1.0), (1.0, bad, 1.0), (1.0, 1.0, bad)] {
                assert!(matches!(
                    InstanceType::new("z", 1, args.0, args.1, args.2),
                    Err(CloudError::InvalidParameter(_))
                ));
            }
        }
    }

    #[test]
    fn iteration_order_is_deterministic() {
        let c = InstanceCatalog::paper_catalog();
        let names1 = c.names();
        let names2 = c.names();
        assert_eq!(names1, names2);
        let mut sorted = names1.clone();
        sorted.sort();
        assert_eq!(names1, sorted);
    }
}
