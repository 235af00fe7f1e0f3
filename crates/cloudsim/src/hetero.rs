//! Heterogeneous (mixed-instance-type) cluster execution.
//!
//! The paper's stated future work: "So far, our system considers
//! homogeneous deploys, namely it does not consider the possibility of
//! employing VMs instantiated using different virtualized hardware
//! configurations. Introducing this additional variability aspect will be
//! the subject of future work" (§VI). This module implements it: a job can
//! be split across *groups* of different instance types, each group
//! receiving an explicit share of the parallel work. The gather barrier
//! still waits for the slowest group, so a bad split wastes money exactly
//! like idle homogeneous nodes do — which is what the provisioning layer
//! must learn to avoid.

use crate::billing::prorated_cost;
use crate::cluster::provision_cluster;
use crate::provider::CloudProvider;
use crate::workload::Workload;
use crate::CloudError;

/// One homogeneous group within a heterogeneous deploy.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeGroup {
    /// Instance-type name.
    pub instance: String,
    /// Number of nodes of this type.
    pub n_nodes: usize,
    /// Fraction of the parallel work assigned to this group (the shares of
    /// a deploy must sum to 1).
    pub work_share: f64,
}

impl NodeGroup {
    /// Creates a group.
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::InvalidParameter`] for zero nodes or a share
    /// outside `(0, 1]`.
    pub fn new(instance: &str, n_nodes: usize, work_share: f64) -> Result<Self, CloudError> {
        if n_nodes == 0 {
            return Err(CloudError::InvalidParameter("n_nodes must be > 0"));
        }
        if !(work_share > 0.0 && work_share <= 1.0) {
            return Err(CloudError::InvalidParameter("work_share must be in (0, 1]"));
        }
        Ok(NodeGroup {
            instance: instance.to_string(),
            n_nodes,
            work_share,
        })
    }
}

/// Outcome of a heterogeneous run.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroReport {
    /// Job execution time (slowest group bounds the barrier).
    pub duration_secs: f64,
    /// Cluster uptime (boot + execution).
    pub uptime_secs: f64,
    /// Prorated cost across all groups.
    pub prorated_cost: f64,
    /// Per-group realized compute time (before the barrier).
    pub group_secs: Vec<f64>,
    /// Per-group idle fraction at the barrier.
    pub group_idle: Vec<f64>,
}

impl CloudProvider {
    /// Runs a job split across heterogeneous node groups.
    ///
    /// Each group executes `work_share` of the parallel work on its own
    /// nodes (with the usual noise/straggler model); the job completes when
    /// the *slowest group* reaches the gather barrier. The serial fraction
    /// runs on the first group's master node.
    ///
    /// # Errors
    ///
    /// - [`CloudError::InvalidRequest`] for an empty group list or shares
    ///   that do not sum to 1 (±1e-6);
    /// - [`CloudError::UnknownInstanceType`] for unknown instance names.
    pub fn run_hetero_job_with_seed(
        &self,
        groups: &[NodeGroup],
        workload: &Workload,
        seed: u64,
    ) -> Result<HeteroReport, CloudError> {
        if groups.is_empty() {
            return Err(CloudError::InvalidRequest("no node groups".to_string()));
        }
        let total_share: f64 = groups.iter().map(|g| g.work_share).sum();
        if (total_share - 1.0).abs() > 1e-6 {
            return Err(CloudError::InvalidRequest(format!(
                "work shares sum to {total_share}, expected 1"
            )));
        }

        let total_nodes: usize = groups.iter().map(|g| g.n_nodes).sum();
        let perf = self.ground_truth();
        let comm = crate::comm::CommModel::ec2_like();

        // Boot: the cluster is ready when the slowest VM of any group is.
        let mut boot_secs = 0.0_f64;
        for (gi, g) in groups.iter().enumerate() {
            let inst = self.catalog().get(&g.instance)?;
            let cluster = provision_cluster(inst, g.n_nodes, seed ^ (0xB007 + gi as u64))?;
            boot_secs = boot_secs.max(cluster.ready_at);
        }

        let scatter = comm.collective_secs(total_nodes, workload.transfer_mib / 2.0);
        let gather = comm.collective_secs(total_nodes, workload.transfer_mib / 2.0);

        // Per-group compute: scale the workload to the group's share and
        // memory slice, then take the group's straggler-bound max.
        let mut group_secs = Vec::with_capacity(groups.len());
        for (gi, g) in groups.iter().enumerate() {
            let inst = self.catalog().get(&g.instance)?;
            let share_wl = Workload {
                work_units: workload.work_units * g.work_share,
                memory_gib: workload.memory_gib * g.work_share,
                transfer_mib: workload.transfer_mib * g.work_share,
                serial_fraction: 0.0,
            };
            let times = perf.node_compute_secs(&share_wl, inst, g.n_nodes, seed ^ (gi as u64) << 16);
            group_secs.push(times.into_iter().fold(0.0_f64, f64::max));
        }
        let compute = group_secs.iter().cloned().fold(0.0_f64, f64::max);
        let serial = {
            let inst = self.catalog().get(&groups[0].instance)?;
            perf.serial_secs(
                &Workload {
                    serial_fraction: workload.serial_fraction,
                    ..*workload
                },
                inst,
            )
        };
        let duration_secs = scatter + compute + serial + gather;
        let uptime_secs = boot_secs + duration_secs;

        let mut cost = 0.0;
        for g in groups {
            let inst = self.catalog().get(&g.instance)?;
            cost += prorated_cost(uptime_secs, inst.hourly_cost, g.n_nodes)
                .expect("validated inputs");
        }
        let group_idle = group_secs
            .iter()
            .map(|&t| if compute > 0.0 { (compute - t) / compute } else { 0.0 })
            .collect();
        Ok(HeteroReport {
            duration_secs,
            uptime_secs,
            prorated_cost: cost,
            group_secs,
            group_idle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::InstanceCatalog;

    fn provider() -> CloudProvider {
        CloudProvider::new(InstanceCatalog::paper_catalog(), 3)
    }

    fn wl() -> Workload {
        Workload::new(50_000.0, 16.0, 100.0, 0.05).unwrap()
    }

    #[test]
    fn shares_must_sum_to_one() {
        let p = provider();
        let groups = vec![
            NodeGroup::new("c3.4xlarge", 1, 0.5).unwrap(),
            NodeGroup::new("m4.4xlarge", 1, 0.4).unwrap(),
        ];
        assert!(matches!(
            p.run_hetero_job_with_seed(&groups, &wl(), 1),
            Err(CloudError::InvalidRequest(_))
        ));
        assert!(p.run_hetero_job_with_seed(&[], &wl(), 1).is_err());
    }

    #[test]
    fn single_group_close_to_homogeneous_run() {
        // A 1-group hetero deploy is the same physics as a homogeneous run;
        // boot/noise streams differ, so compare within tolerance.
        let p = provider();
        let hetero = p
            .run_hetero_job_with_seed(&[NodeGroup::new("c3.4xlarge", 4, 1.0).unwrap()], &wl(), 9)
            .unwrap();
        let homo = p.run_job_with_seed("c3.4xlarge", 4, &wl(), 9).unwrap();
        let rel = (hetero.duration_secs - homo.duration_secs).abs() / homo.duration_secs;
        assert!(rel < 0.25, "relative gap {rel}");
    }

    #[test]
    fn balanced_split_beats_bad_split() {
        // c4.8xlarge is ~2.3x the throughput of m4.4xlarge; giving both the
        // same share starves the fast group and the barrier waits on the
        // slow one. A throughput-proportional split must be faster.
        let p = provider();
        let naive = vec![
            NodeGroup::new("c4.8xlarge", 1, 0.5).unwrap(),
            NodeGroup::new("m4.4xlarge", 1, 0.5).unwrap(),
        ];
        let perf = p.ground_truth();
        let cat = p.catalog();
        let t_fast = perf.node_throughput(cat.get("c4.8xlarge").unwrap());
        let t_slow = perf.node_throughput(cat.get("m4.4xlarge").unwrap());
        let share_fast = t_fast / (t_fast + t_slow);
        let tuned = vec![
            NodeGroup::new("c4.8xlarge", 1, share_fast).unwrap(),
            NodeGroup::new("m4.4xlarge", 1, 1.0 - share_fast).unwrap(),
        ];
        let r_naive = p.run_hetero_job_with_seed(&naive, &wl(), 5).unwrap();
        let r_tuned = p.run_hetero_job_with_seed(&tuned, &wl(), 5).unwrap();
        assert!(
            r_tuned.duration_secs < r_naive.duration_secs,
            "tuned {} vs naive {}",
            r_tuned.duration_secs,
            r_naive.duration_secs
        );
        // The naive split leaves the fast group mostly idle.
        assert!(r_naive.group_idle[0] > 0.3, "idle {:?}", r_naive.group_idle);
    }

    #[test]
    fn hetero_can_beat_homogeneous_cost_at_deadline() {
        // Mixing one fast and one cheap node can undercut a homogeneous
        // two-fast-node deploy when the deadline allows it: the report
        // exposes the numbers the provisioner would weigh.
        let p = provider();
        let perf = p.ground_truth();
        let cat = p.catalog();
        let t_fast = perf.node_throughput(cat.get("c4.8xlarge").unwrap());
        let t_cheap = perf.node_throughput(cat.get("c3.4xlarge").unwrap());
        let share = t_fast / (t_fast + t_cheap);
        let mixed = vec![
            NodeGroup::new("c4.8xlarge", 1, share).unwrap(),
            NodeGroup::new("c3.4xlarge", 1, 1.0 - share).unwrap(),
        ];
        let r_mixed = p.run_hetero_job_with_seed(&mixed, &wl(), 7).unwrap();
        let r_homo = p.run_job_with_seed("c4.8xlarge", 2, &wl(), 7).unwrap();
        assert!(r_mixed.prorated_cost < r_homo.prorated_cost);
        // And it is slower — the provisioner trades time for money.
        assert!(r_mixed.duration_secs > r_homo.duration_secs);
    }

    #[test]
    fn deterministic_per_seed() {
        let p = provider();
        let groups = vec![
            NodeGroup::new("c3.8xlarge", 2, 0.6).unwrap(),
            NodeGroup::new("m4.4xlarge", 1, 0.4).unwrap(),
        ];
        let a = p.run_hetero_job_with_seed(&groups, &wl(), 11).unwrap();
        let b = p.run_hetero_job_with_seed(&groups, &wl(), 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn group_validation() {
        assert!(NodeGroup::new("x", 0, 0.5).is_err());
        assert!(NodeGroup::new("x", 1, 0.0).is_err());
        assert!(NodeGroup::new("x", 1, 1.5).is_err());
    }

    #[test]
    fn report_consistency() {
        let p = provider();
        let groups = vec![
            NodeGroup::new("c4.4xlarge", 2, 0.7).unwrap(),
            NodeGroup::new("m4.4xlarge", 1, 0.3).unwrap(),
        ];
        let r = p.run_hetero_job_with_seed(&groups, &wl(), 13).unwrap();
        assert_eq!(r.group_secs.len(), 2);
        assert!(r.uptime_secs > r.duration_secs);
        let max_group = r.group_secs.iter().cloned().fold(0.0_f64, f64::max);
        assert!(r.duration_secs >= max_group);
        assert!(r.group_idle.contains(&0.0));
        assert!(r.prorated_cost > 0.0);
    }
}
