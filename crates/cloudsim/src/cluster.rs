//! VM and cluster lifecycle on the event kernel.
//!
//! StarCluster "allows to activate any number of VMs on Amazon EC2" (§III):
//! a cluster request boots `n` identical VMs (each with its own boot
//! latency), runs the job, and terminates. This module simulates that
//! lifecycle; the job phases themselves are driven by
//! [`crate::provider::CloudProvider`].

use crate::event::{EventQueue, SimTime};
use crate::instances::InstanceType;
use crate::CloudError;
use disar_math::rng::stream_rng;

/// Mean VM boot-and-configure latency (EC2 2016 + StarCluster setup).
pub(crate) const BOOT_BASE_SECS: f64 = 55.0;
/// Uniform half-width of the boot-latency jitter.
const BOOT_JITTER_SECS: f64 = 25.0;

/// One booted virtual machine.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtualMachine {
    /// Node index within its cluster.
    pub node_id: usize,
    /// Instance-type name.
    pub instance: String,
    /// Simulated time at which the VM became ready.
    pub ready_at: SimTime,
}

/// A provisioned cluster: `n` identical VMs, ready when the slowest one is.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// The VMs, indexed by node id.
    pub vms: Vec<VirtualMachine>,
    /// Time the whole cluster became usable (max boot time).
    pub ready_at: SimTime,
}

impl Cluster {
    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.vms.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum BootEvent {
    NodeReady(usize),
}

/// Boots a cluster of `n_nodes` VMs of `instance` on the event queue,
/// returning the cluster once every node is up.
///
/// Boot latencies are drawn deterministically from `seed` (uniform
/// `BOOT_BASE ± BOOT_JITTER`, floored at 10 s).
///
/// # Errors
///
/// Returns [`CloudError::InvalidRequest`] if `n_nodes == 0`.
pub fn provision_cluster(
    instance: &InstanceType,
    n_nodes: usize,
    seed: u64,
) -> Result<Cluster, CloudError> {
    if n_nodes == 0 {
        return Err(CloudError::InvalidRequest(
            "cluster must have at least one node".to_string(),
        ));
    }
    let mut rng = stream_rng(seed, 0xB007);
    let mut queue: EventQueue<BootEvent> = EventQueue::new();
    for node in 0..n_nodes {
        let boot =
            (BOOT_BASE_SECS + rng.gen_range(-BOOT_JITTER_SECS..=BOOT_JITTER_SECS)).max(10.0);
        queue.schedule(boot, BootEvent::NodeReady(node));
    }
    let mut vms: Vec<Option<VirtualMachine>> = vec![None; n_nodes];
    while let Some((at, BootEvent::NodeReady(node))) = queue.pop() {
        vms[node] = Some(VirtualMachine {
            node_id: node,
            instance: instance.name.clone(),
            ready_at: at,
        });
    }
    let vms: Vec<VirtualMachine> = vms
        .into_iter()
        .map(|v| v.expect("every node got a boot event"))
        .collect();
    let ready_at = vms
        .iter()
        .map(|v| v.ready_at)
        .fold(0.0_f64, f64::max);
    Ok(Cluster { vms, ready_at })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::InstanceCatalog;

    fn inst() -> InstanceType {
        InstanceCatalog::paper_catalog()
            .get("c3.4xlarge")
            .unwrap()
            .clone()
    }

    #[test]
    fn cluster_ready_when_slowest_node_is() {
        let c = provision_cluster(&inst(), 8, 1).unwrap();
        assert_eq!(c.n_nodes(), 8);
        let max = c.vms.iter().map(|v| v.ready_at).fold(0.0_f64, f64::max);
        assert_eq!(c.ready_at, max);
        for v in &c.vms {
            assert!(v.ready_at >= 10.0);
            assert!(v.ready_at <= BOOT_BASE_SECS + BOOT_JITTER_SECS + 1e-9);
        }
    }

    #[test]
    fn node_ids_are_dense() {
        let c = provision_cluster(&inst(), 5, 3).unwrap();
        for (i, v) in c.vms.iter().enumerate() {
            assert_eq!(v.node_id, i);
            assert_eq!(v.instance, "c3.4xlarge");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = provision_cluster(&inst(), 4, 9).unwrap();
        let b = provision_cluster(&inst(), 4, 9).unwrap();
        assert_eq!(a, b);
        let c = provision_cluster(&inst(), 4, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn zero_nodes_rejected() {
        assert!(provision_cluster(&inst(), 0, 1).is_err());
    }

    #[test]
    fn more_nodes_usually_slower_ready() {
        // With more draws, the max boot latency stochastically dominates.
        let small = provision_cluster(&inst(), 1, 7).unwrap();
        let large = provision_cluster(&inst(), 64, 7).unwrap();
        assert!(large.ready_at >= small.ready_at);
    }
}
