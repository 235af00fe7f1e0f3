//! The cloud-provider façade — the StarCluster/EC2 stand-in.
//!
//! [`CloudProvider::run_job`] plays out one full deploy in the fixed order
//! of §III: boot the cluster, scatter the input, compute on every node (with
//! noise and stragglers), wait for the slowest node, run the serial
//! aggregation and gather the partial results. Because the order is fixed,
//! a run is a sum of phase lengths and one max over the nodes. It returns a
//! [`JobReport`] with the realized execution time and cost — the *only*
//! signal the provisioning layer is allowed to see (see [`crate::perf`] for
//! the access contract).

use crate::billing::{prorated_cost, BillingPolicy};
use crate::comm::CommModel;
use crate::drift::DriftModel;
use crate::instances::InstanceCatalog;
use crate::perf::PerformanceModel;
use crate::workload::Workload;
use crate::CloudError;
use disar_math::rng::{split_seed, stream_rng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Mean VM boot-and-configure latency (EC2 2016 + StarCluster setup).
const BOOT_BASE_SECS: f64 = 55.0;
/// Uniform half-width of the boot-latency jitter.
const BOOT_JITTER_SECS: f64 = 25.0;

/// Boot latency of an `n_nodes` cluster, which is ready when its slowest VM
/// is: each VM draws `BOOT_BASE_SECS ± BOOT_JITTER_SECS` uniformly, floored
/// at 10 s, in node order from `seed`'s stream.
fn boot_secs(n_nodes: usize, seed: u64) -> f64 {
    let mut rng = stream_rng(seed, 0xB007);
    (0..n_nodes)
        .map(|_| (BOOT_BASE_SECS + rng.gen_range(-BOOT_JITTER_SECS..=BOOT_JITTER_SECS)).max(10.0))
        .fold(0.0_f64, f64::max)
}

/// Outcome of one cloud job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Instance-type name the job ran on.
    pub instance: String,
    /// Number of nodes.
    pub n_nodes: usize,
    /// Job execution time in seconds (scatter + compute + gather; the ML
    /// target Θ of the paper).
    pub duration_secs: f64,
    /// Cluster uptime (boot + execution), the billable interval.
    pub uptime_secs: f64,
    /// Invoiced cost under the provider's billing policy.
    pub billed_cost: f64,
    /// Prorated (fractional-hour) cost — Table II's per-simulation figure.
    pub prorated_cost: f64,
    /// Boot latency of the slowest VM: the cluster is ready when it is.
    pub boot_secs: f64,
    /// Total communication time (scatter + gather).
    pub comm_secs: f64,
    /// Compute-phase length (slowest node, i.e. barrier-bound).
    pub compute_secs: f64,
    /// Per-node idle fraction while waiting at the gather barrier — the
    /// waste Algorithm 1 implicitly penalizes via cost.
    pub idle_fractions: Vec<f64>,
}

/// Noise-free expected outcome of one configuration under the (possibly
/// drifted) ground truth at a given run index — what
/// [`CloudProvider::oracle_plan`] returns for oracle baselines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OraclePlan {
    /// Expected execution time (scatter + compute + serial + gather),
    /// with zero jitter and no stragglers.
    pub duration_secs: f64,
    /// Expected prorated cost, assuming mean boot latency.
    pub prorated_cost: f64,
}

/// The simulated cloud: catalog + hidden performance model + per-hour
/// billing.
#[derive(Debug)]
pub struct CloudProvider {
    catalog: InstanceCatalog,
    perf: PerformanceModel,
    comm: CommModel,
    drift: DriftModel,
    master_seed: u64,
    run_counter: AtomicU64,
}

impl CloudProvider {
    /// Creates a provider with the default hidden performance model,
    /// EC2-like interconnect, per-hour billing, and a stationary cloud
    /// ([`DriftModel::None`]).
    pub fn new(catalog: InstanceCatalog, master_seed: u64) -> Self {
        CloudProvider {
            catalog,
            perf: PerformanceModel::default(),
            comm: CommModel::ec2_like(),
            drift: DriftModel::None,
            master_seed,
            run_counter: AtomicU64::new(0),
        }
    }

    /// Makes the hidden performance model non-stationary (drift ablations).
    /// [`DriftModel::None`] runs the base model at price factor 1.0 — bit-
    /// identical to a provider built without this call.
    pub fn with_drift(mut self, drift: DriftModel) -> Self {
        self.drift = drift;
        self
    }

    /// The configured drift model.
    pub fn drift(&self) -> &DriftModel {
        &self.drift
    }

    /// The instance catalog.
    pub fn catalog(&self) -> &InstanceCatalog {
        &self.catalog
    }

    /// Read-only access to the ground-truth model — for oracle baselines in
    /// benchmarks only; the provisioner must not call this.
    pub fn ground_truth(&self) -> &PerformanceModel {
        &self.perf
    }

    /// Runs a job with an internally advanced noise stream (every call sees
    /// fresh cloud conditions, like consecutive real deploys).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::UnknownInstanceType`] or
    /// [`CloudError::InvalidRequest`] for a malformed request, and
    /// [`CloudError::InvalidRequest`] for a run with no finite duration (a
    /// drifted ground truth whose cores have stopped, say).
    pub fn run_job(
        &self,
        instance: &str,
        n_nodes: usize,
        workload: &Workload,
    ) -> Result<JobReport, CloudError> {
        let run = self.run_counter.fetch_add(1, Ordering::Relaxed);
        self.run_job_at(instance, n_nodes, workload, run)
    }

    /// Runs a job under the noise conditions of the `run_index`-th call of
    /// the [`CloudProvider::run_job`] stream.
    fn run_job_at(
        &self,
        instance: &str,
        n_nodes: usize,
        workload: &Workload,
        run_index: u64,
    ) -> Result<JobReport, CloudError> {
        let seed = split_seed(self.master_seed, run_index);
        let (perf, price_factor) = self.ground_truth_at(run_index);
        self.execute_with(instance, n_nodes, workload, seed, &perf, price_factor)
    }

    /// The drifted ground-truth conditions at run `run_index`: the
    /// effective performance model and hourly-price multiplier — for
    /// oracle baselines in benchmarks only; the provisioner must not call
    /// this (see [`crate::perf`] for the access contract).
    pub fn ground_truth_at(&self, run_index: u64) -> (PerformanceModel, f64) {
        self.drift
            .effective(&self.perf, run_index)
            .unwrap_or_else(|| (self.perf.clone(), 1.0))
    }

    /// Noise-free oracle outcome of one configuration at run `run_index`
    /// under the drifted ground truth: the expected duration and prorated
    /// cost the `run_index`-th job would see with zero jitter, no
    /// stragglers, and mean boot latency.
    ///
    /// This is what selection regret compares realized decisions against —
    /// for oracle baselines in benchmarks only; the provisioner must not
    /// call this.
    ///
    /// # Errors
    ///
    /// Same contract as [`CloudProvider::run_job`].
    pub fn oracle_plan(
        &self,
        instance: &str,
        n_nodes: usize,
        workload: &Workload,
        run_index: u64,
    ) -> Result<OraclePlan, CloudError> {
        let inst = self.catalog.get(instance)?;
        if n_nodes == 0 {
            return Err(CloudError::InvalidRequest("n_nodes must be > 0".into()));
        }
        let (perf, price_factor) = self.ground_truth_at(run_index);
        let comm_secs = 2.0 * self.comm.collective_secs(n_nodes, workload.transfer_mib / 2.0);
        let duration_secs = comm_secs
            + perf.noise_free_compute_secs(workload, inst, n_nodes)
            + perf.serial_secs(workload, inst);
        if !duration_secs.is_finite() {
            return Err(CloudError::InvalidRequest(format!(
                "{instance} x {n_nodes} has no finite duration under this ground truth"
            )));
        }
        let uptime_secs = BOOT_BASE_SECS + duration_secs;
        let prorated = prorated_cost(uptime_secs, inst.hourly_cost * price_factor, n_nodes)
            .expect("validated inputs");
        Ok(OraclePlan {
            duration_secs,
            prorated_cost: prorated,
        })
    }

    /// Runs a job with an explicit noise seed (reproducible tests).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::UnknownInstanceType`] for a name not in the
    /// catalog and [`CloudError::InvalidRequest`] for zero nodes or a run
    /// with no finite duration.
    pub fn run_job_with_seed(
        &self,
        instance: &str,
        n_nodes: usize,
        workload: &Workload,
        seed: u64,
    ) -> Result<JobReport, CloudError> {
        self.execute_with(instance, n_nodes, workload, seed, &self.perf, 1.0)
    }

    /// Plays one job out under an explicit performance model and price
    /// multiplier — the shared engine behind [`CloudProvider::run_job_with_seed`]
    /// (base model, factor 1.0) and [`CloudProvider::run_job_at`] (the
    /// ground truth at the run's index). The job ends at `boot + scatter +
    /// max_i(t_i) + serial + gather`, added in that order.
    fn execute_with(
        &self,
        instance: &str,
        n_nodes: usize,
        workload: &Workload,
        seed: u64,
        perf: &PerformanceModel,
        price_factor: f64,
    ) -> Result<JobReport, CloudError> {
        let inst = self.catalog.get(instance)?;
        if n_nodes == 0 {
            return Err(CloudError::InvalidRequest("n_nodes must be > 0".into()));
        }

        let boot_secs = boot_secs(n_nodes, seed ^ 0xB007);
        let node_secs = perf.node_compute_secs(workload, inst, n_nodes, seed ^ 0xC0DE);
        let serial_secs = perf.serial_secs(workload, inst);
        // Scatter and gather each move half of the transferred data.
        let scatter_secs = self
            .comm
            .collective_secs(n_nodes, workload.transfer_mib / 2.0);
        let gather_secs = scatter_secs;

        // The nodes start together once the input is scattered; the serial
        // aggregation and the gather wait for the slowest of them.
        let compute_start = boot_secs + scatter_secs;
        let node_finish: Vec<f64> = node_secs.iter().map(|t| compute_start + t).collect();
        let compute_end = node_finish.iter().copied().fold(compute_start, f64::max);
        let job_end = compute_end + serial_secs + gather_secs;
        // `!(t >= 0.0)` also rejects NaN, which the max above would skip.
        if !job_end.is_finite() || node_secs.iter().any(|&t| !(t >= 0.0)) {
            return Err(CloudError::InvalidRequest(format!(
                "{instance} x {n_nodes} has no finite duration under this ground truth"
            )));
        }

        let compute_secs = compute_end - compute_start;
        let idle_fractions: Vec<f64> = node_finish
            .iter()
            .map(|&f| {
                if compute_secs <= 0.0 {
                    0.0
                } else {
                    (compute_end - f) / compute_secs
                }
            })
            .collect();

        let duration_secs = job_end - boot_secs;
        let uptime_secs = job_end;
        let hourly_rate = inst.hourly_cost * price_factor;
        let billed_cost = BillingPolicy::PerHour
            .cost(uptime_secs, hourly_rate, n_nodes)
            .expect("validated inputs");
        let prorated = prorated_cost(uptime_secs, hourly_rate, n_nodes).expect("validated inputs");
        Ok(JobReport {
            instance: inst.name.clone(),
            n_nodes,
            duration_secs,
            uptime_secs,
            billed_cost,
            prorated_cost: prorated,
            boot_secs,
            comm_secs: scatter_secs + gather_secs,
            compute_secs,
            idle_fractions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider() -> CloudProvider {
        CloudProvider::new(InstanceCatalog::paper_catalog(), 2024)
    }

    fn wl() -> Workload {
        Workload::new(20_000.0, 16.0, 200.0, 0.05).unwrap()
    }

    #[test]
    fn report_is_internally_consistent() {
        let p = provider();
        let r = p.run_job_with_seed("c3.4xlarge", 4, &wl(), 7).unwrap();
        assert_eq!(r.n_nodes, 4);
        assert!(r.duration_secs > 0.0);
        assert!((r.uptime_secs - (r.boot_secs + r.duration_secs)).abs() < 1e-9);
        assert!(r.compute_secs <= r.duration_secs);
        assert!(r.comm_secs < r.duration_secs);
        assert_eq!(r.idle_fractions.len(), 4);
        for &f in &r.idle_fractions {
            assert!((0.0..=1.0).contains(&f));
        }
        // At least one node is never idle (the straggler itself).
        assert!(r.idle_fractions.contains(&0.0));
        assert!(r.billed_cost >= r.prorated_cost);
    }

    #[test]
    fn more_nodes_faster_but_dearer() {
        let p = provider();
        let r1 = p.run_job_with_seed("c4.4xlarge", 1, &wl(), 3).unwrap();
        let r8 = p.run_job_with_seed("c4.4xlarge", 8, &wl(), 3).unwrap();
        assert!(r8.duration_secs < r1.duration_secs);
        assert!(r8.billed_cost > r1.billed_cost);
    }

    #[test]
    fn bigger_instance_is_faster_single_node() {
        let p = provider();
        let small = p.run_job_with_seed("m4.4xlarge", 1, &wl(), 5).unwrap();
        let big = p.run_job_with_seed("m4.10xlarge", 1, &wl(), 5).unwrap();
        assert!(big.duration_secs < small.duration_secs);
    }

    #[test]
    fn unknown_instance_or_zero_nodes_rejected() {
        let p = provider();
        assert!(p.run_job_with_seed("nope.large", 1, &wl(), 1).is_err());
        assert!(p.run_job_with_seed("c3.4xlarge", 0, &wl(), 1).is_err());
    }

    #[test]
    fn seeded_runs_reproduce() {
        let p = provider();
        let a = p.run_job_with_seed("c3.8xlarge", 3, &wl(), 11).unwrap();
        let b = p.run_job_with_seed("c3.8xlarge", 3, &wl(), 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_job_advances_noise_stream() {
        let p = provider();
        let a = p.run_job("c3.8xlarge", 3, &wl()).unwrap();
        let b = p.run_job("c3.8xlarge", 3, &wl()).unwrap();
        assert_ne!(
            a.duration_secs, b.duration_secs,
            "consecutive runs should see different cloud noise"
        );
    }

    #[test]
    fn run_job_at_i_is_the_ith_run_job() {
        // The drift tests below index runs by position through run_job_at,
        // so run_job_at(i) must be exactly what the i-th run_job call sees.
        let p = provider();
        let reports: Vec<JobReport> = (0..5)
            .map(|_| p.run_job("c3.8xlarge", 3, &wl()).unwrap())
            .collect();
        let fresh = provider();
        for i in [4usize, 0, 2, 1, 3] {
            let r = fresh.run_job_at("c3.8xlarge", 3, &wl(), i as u64).unwrap();
            assert_eq!(r, reports[i]);
        }
    }

    #[test]
    fn drift_none_is_bit_identical_to_undrifted_provider() {
        let plain = provider();
        let drifted = provider().with_drift(DriftModel::None);
        for _ in 0..5 {
            let a = plain.run_job("c3.4xlarge", 3, &wl()).unwrap();
            let b = drifted.run_job("c3.4xlarge", 3, &wl()).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn step_regime_changes_outcomes_only_after_the_boundary() {
        let base = provider();
        let stepped = provider().with_drift(DriftModel::StepRegime {
            period: 3,
            speed_factor: 1.6,
            price_factor: 0.9,
        });
        for i in 0..6u64 {
            let a = base.run_job_at("c4.4xlarge", 2, &wl(), i).unwrap();
            let b = stepped.run_job_at("c4.4xlarge", 2, &wl(), i).unwrap();
            if i < 3 {
                // Generation 0: the drifted provider replays the stationary
                // stream exactly.
                assert_eq!(a, b, "run {i} diverged before the regime change");
            } else {
                // Generation 1: faster hardware, cheaper prices.
                assert!(b.duration_secs < a.duration_secs, "run {i}");
                assert!(b.prorated_cost < a.prorated_cost, "run {i}");
            }
        }
    }

    #[test]
    fn oracle_plan_tracks_the_drifted_ground_truth() {
        let p = provider().with_drift(DriftModel::StepRegime {
            period: 5,
            speed_factor: 2.0,
            price_factor: 1.0,
        });
        let before = p.oracle_plan("c3.4xlarge", 2, &wl(), 0).unwrap();
        let after = p.oracle_plan("c3.4xlarge", 2, &wl(), 5).unwrap();
        assert!(after.duration_secs < before.duration_secs);
        assert!(after.prorated_cost < before.prorated_cost);
        // The oracle duration sits near the realized (noisy) duration.
        let realized = p.run_job_at("c3.4xlarge", 2, &wl(), 0).unwrap();
        let rel = (before.duration_secs - realized.duration_secs).abs()
            / realized.duration_secs;
        assert!(rel < 0.25, "oracle {} vs realized {}", before.duration_secs, realized.duration_secs);
        assert!(p.oracle_plan("nope.large", 1, &wl(), 0).is_err());
        assert!(p.oracle_plan("c3.4xlarge", 0, &wl(), 0).is_err());
    }

    #[test]
    fn boot_draws_lie_in_the_jitter_band() {
        // One node's boot is its single draw.
        for seed in 0..200 {
            let b = boot_secs(1, seed);
            assert!(
                (10.0..=BOOT_BASE_SECS + BOOT_JITTER_SECS).contains(&b),
                "seed {seed}: {b}"
            );
        }
    }

    #[test]
    fn boot_is_deterministic_per_seed() {
        assert_eq!(boot_secs(4, 9).to_bits(), boot_secs(4, 9).to_bits());
        assert_ne!(boot_secs(4, 9), boot_secs(4, 10));
    }

    #[test]
    fn more_nodes_are_never_ready_sooner() {
        // At one seed the draws of n nodes are a prefix of those of n + 1,
        // so the cluster's boot (their max) never shrinks as it grows.
        for seed in [1, 7, 2024] {
            assert!(boot_secs(64, seed) >= boot_secs(1, seed));
            for n in 1..64 {
                assert!(
                    boot_secs(n + 1, seed) >= boot_secs(n, seed),
                    "seed {seed}, n {n}"
                );
            }
        }
    }

    #[test]
    fn a_run_without_a_finite_duration_is_a_typed_error() {
        // From the second run on, every core has speed 0: the compute and
        // serial phases never end.
        let p = CloudProvider::new(InstanceCatalog::paper_catalog(), 1).with_drift(
            DriftModel::StepRegime {
                period: 1,
                speed_factor: 0.0,
                price_factor: 1.0,
            },
        );
        let first = p.run_job("c3.4xlarge", 2, &wl()).unwrap();
        assert!(first.duration_secs.is_finite());
        assert!(matches!(
            p.run_job("c3.4xlarge", 2, &wl()),
            Err(CloudError::InvalidRequest(_))
        ));
        assert!(p.oracle_plan("c3.4xlarge", 2, &wl(), 0).is_ok());
        assert!(matches!(
            p.oracle_plan("c3.4xlarge", 2, &wl(), 1),
            Err(CloudError::InvalidRequest(_))
        ));
    }

    #[test]
    fn duration_excludes_boot_cost_includes_it() {
        let p = provider();
        let r = p.run_job_with_seed("m4.4xlarge", 2, &wl(), 13).unwrap();
        assert!(r.boot_secs >= 10.0);
        assert!(r.uptime_secs > r.duration_secs);
    }

    #[test]
    fn speedup_shape_matches_figure_4() {
        // Single-node speedups over the sequential baseline must be ordered
        // by effective compute power and land in Figure 4's 4–10 band.
        let p = provider();
        let w = Workload::new(100_000.0, 8.0, 100.0, 0.05).unwrap();
        let seq = p.ground_truth().sequential_secs(&w);
        let mut speedups = Vec::new();
        for name in ["m4.4xlarge", "c3.4xlarge", "c4.4xlarge", "c3.8xlarge", "c4.8xlarge", "m4.10xlarge"] {
            let r = p.run_job_with_seed(name, 1, &w, 21).unwrap();
            speedups.push((name, seq / r.duration_secs));
        }
        for (name, s) in &speedups {
            assert!((3.0..12.0).contains(s), "{name}: {s}");
        }
        // 16-vCPU types must trail the 32+-vCPU types.
        let get = |n: &str| speedups.iter().find(|(x, _)| *x == n).unwrap().1;
        assert!(get("m4.4xlarge") < get("m4.10xlarge"));
        assert!(get("c3.4xlarge") < get("c3.8xlarge"));
        assert!(get("c4.4xlarge") < get("c4.8xlarge"));
    }
}
