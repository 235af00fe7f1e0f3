//! Communication-cost model for MPI-style scatter/gather.
//!
//! DISAR's type-B phase is embarrassingly parallel: data is scattered once,
//! nodes compute independently, and locally computed averages are gathered
//! and combined at the end (§III). We model each collective with the
//! classical `α + β·bytes` LogP-style cost: a latency term growing
//! logarithmically in the node count (tree-structured collectives) plus a
//! bandwidth term for the payload.

use crate::CloudError;

/// Latency/bandwidth model of the cluster interconnect.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommModel {
    /// Per-hop latency in seconds (EC2 ~2016: a few hundred µs within a
    /// placement group).
    pub latency_secs: f64,
    /// Interconnect bandwidth in MiB/s per node.
    pub bandwidth_mib_per_sec: f64,
}

impl CommModel {
    /// Creates a model.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::InvalidParameter`] for negative latency or
    /// non-positive bandwidth.
    pub fn new(latency_secs: f64, bandwidth_mib_per_sec: f64) -> Result<Self, CloudError> {
        if latency_secs < 0.0 {
            return Err(CloudError::InvalidParameter("latency must be >= 0"));
        }
        if bandwidth_mib_per_sec <= 0.0 {
            return Err(CloudError::InvalidParameter("bandwidth must be > 0"));
        }
        Ok(CommModel {
            latency_secs,
            bandwidth_mib_per_sec,
        })
    }

    /// 2016-EC2-like defaults: 0.5 ms latency, 10 Gb/s ≈ 1200 MiB/s.
    pub fn ec2_like() -> Self {
        CommModel {
            latency_secs: 5e-4,
            bandwidth_mib_per_sec: 1200.0,
        }
    }

    /// Time for a tree-structured collective (scatter *or* gather) moving
    /// `data_mib` total across `n_nodes`.
    ///
    /// Single-node jobs pay nothing: the data never leaves the machine.
    pub fn collective_secs(&self, n_nodes: usize, data_mib: f64) -> f64 {
        if n_nodes <= 1 {
            return 0.0;
        }
        let hops = (n_nodes as f64).log2().ceil().max(1.0);
        self.latency_secs * hops + data_mib / self.bandwidth_mib_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_node_is_free() {
        let c = CommModel::ec2_like();
        assert_eq!(c.collective_secs(1, 1000.0), 0.0);
    }

    #[test]
    fn cost_grows_with_nodes_and_data() {
        let c = CommModel::ec2_like();
        assert!(c.collective_secs(8, 100.0) > c.collective_secs(2, 100.0));
        assert!(c.collective_secs(4, 1000.0) > c.collective_secs(4, 10.0));
    }

    #[test]
    fn latency_term_is_logarithmic() {
        let c = CommModel::new(1.0, 1e12).unwrap(); // isolate latency
        let t16 = c.collective_secs(16, 0.0);
        let t256 = c.collective_secs(256, 0.0);
        assert!((t16 - 4.0).abs() < 1e-9);
        assert!((t256 - 8.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_term_is_linear() {
        let c = CommModel::new(0.0, 100.0).unwrap();
        assert!((c.collective_secs(2, 500.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(CommModel::new(-1.0, 100.0).is_err());
        assert!(CommModel::new(0.0, 0.0).is_err());
    }
}
