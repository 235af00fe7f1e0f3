//! The hidden performance model — the simulator's ground truth.
//!
//! **Contract:** only the [`crate::provider::CloudProvider`] may consult
//! this model when *executing* jobs. The provisioning layer (`disar-core`)
//! must treat realized durations as opaque observations, exactly as the
//! paper's system treats EC2: the whole point of the ML knowledge base is
//! to *learn* this mapping. Benchmarks may use it only to compute oracle
//! baselines, and must say so.
//!
//! The model composes five effects, all of which exist on real EC2:
//!
//! 1. **Per-core speed** differences across instance families;
//! 2. **Intra-node scaling loss** — memory-bandwidth contention makes
//!    throughput sublinear in vCPUs (`1 / (1 + κ ln v)`);
//! 3. **Amdahl's law** for the job's serial fraction, plus MPI collective
//!    costs across nodes;
//! 4. **Memory pressure** — when the per-node footprint exceeds the
//!    instance's RAM, the job slows down (spill/paging);
//! 5. **Noise and stragglers** — per-node lognormal jitter and occasional
//!    noisy-neighbour slowdowns; the barrier waits for the slowest node.

use crate::instances::InstanceType;
use crate::workload::Workload;
use disar_math::rng::stream_rng;

/// Ground-truth execution-time model (see module docs for the access
/// contract).
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceModel {
    /// Work units per second of one reference core (speed 1.0).
    pub units_per_core_sec: f64,
    /// Intra-node contention coefficient κ in `1 / (1 + κ ln v)`.
    pub contention: f64,
    /// Lognormal σ of per-node runtime jitter.
    pub noise_sigma: f64,
    /// Probability that a node is a straggler (noisy neighbour).
    pub straggler_prob: f64,
    /// Runtime multiplier applied to straggler nodes.
    pub straggler_factor: f64,
    /// Slowdown per unit of memory-overcommit ratio.
    pub memory_penalty: f64,
}

impl Default for PerformanceModel {
    fn default() -> Self {
        PerformanceModel {
            units_per_core_sec: 1.0,
            contention: 0.45,
            noise_sigma: 0.04,
            straggler_prob: 0.02,
            straggler_factor: 1.5,
            memory_penalty: 2.0,
        }
    }
}

impl PerformanceModel {
    /// Effective parallel throughput (work units/sec) of one node of the
    /// given instance type, including intra-node contention.
    pub fn node_throughput(&self, instance: &InstanceType) -> f64 {
        let v = instance.vcpus as f64;
        let eff = 1.0 / (1.0 + self.contention * v.ln());
        v * eff * instance.per_core_speed * self.units_per_core_sec
    }

    /// Deterministic (noise-free) sequential execution time of the workload
    /// on a single reference core — the Figure 4 speedup baseline.
    pub fn sequential_secs(&self, workload: &Workload) -> f64 {
        workload.work_units / self.units_per_core_sec
    }

    /// Memory-pressure slowdown factor for one node of `instance` running
    /// `1/n_nodes` of the workload.
    pub fn memory_factor(&self, workload: &Workload, instance: &InstanceType, n_nodes: usize) -> f64 {
        let per_node = workload.memory_gib / n_nodes as f64;
        if per_node <= instance.memory_gib {
            1.0
        } else {
            1.0 + self.memory_penalty * (per_node / instance.memory_gib - 1.0)
        }
    }

    /// Noise-free per-node compute time (seconds) for the parallel portion
    /// of `workload` split evenly over `n_nodes` nodes — the deterministic
    /// base every node's jittered time in
    /// [`PerformanceModel::node_compute_secs`] multiplies.
    ///
    /// Oracle baselines use this to rank configurations on the true
    /// expected times without consuming any noise stream.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes == 0`.
    pub fn noise_free_compute_secs(
        &self,
        workload: &Workload,
        instance: &InstanceType,
        n_nodes: usize,
    ) -> f64 {
        assert!(n_nodes > 0, "n_nodes must be positive");
        let parallel_work = workload.work_units * (1.0 - workload.serial_fraction);
        let share = parallel_work / n_nodes as f64;
        share / self.node_throughput(instance) * self.memory_factor(workload, instance, n_nodes)
    }

    /// Simulated per-node compute times (seconds) for the parallel portion
    /// of `workload` split evenly over `n_nodes` nodes, with noise and
    /// stragglers drawn deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes == 0`.
    pub fn node_compute_secs(
        &self,
        workload: &Workload,
        instance: &InstanceType,
        n_nodes: usize,
        seed: u64,
    ) -> Vec<f64> {
        let base = self.noise_free_compute_secs(workload, instance, n_nodes);

        let mut rng = stream_rng(seed, 0x9EF2);
        let mut gauss = disar_math::rng::StandardNormal::new();
        (0..n_nodes)
            .map(|_| {
                let jitter = (self.noise_sigma * gauss.sample(&mut rng)).exp();
                let straggle = if rng.gen_bool(self.straggler_prob) {
                    self.straggler_factor
                } else {
                    1.0
                };
                base * jitter * straggle
            })
            .collect()
    }

    /// Time for the serial portion of the workload, executed on one core of
    /// the given instance (the master node).
    pub fn serial_secs(&self, workload: &Workload, instance: &InstanceType) -> f64 {
        workload.work_units * workload.serial_fraction
            / (instance.per_core_speed * self.units_per_core_sec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::InstanceCatalog;

    fn wl() -> Workload {
        Workload::new(10_000.0, 16.0, 100.0, 0.05).unwrap()
    }

    #[test]
    fn throughput_sublinear_in_vcpus() {
        let m = PerformanceModel::default();
        let cat = InstanceCatalog::paper_catalog();
        let small = cat.get("m4.4xlarge").unwrap(); // 16 vCPU
        let big = cat.get("m4.10xlarge").unwrap(); // 40 vCPU
        let t_small = m.node_throughput(small);
        let t_big = m.node_throughput(big);
        assert!(t_big > t_small, "more cores must help");
        assert!(
            t_big / t_small < 40.0 / 16.0,
            "scaling must be sublinear: {t_small} -> {t_big}"
        );
    }

    #[test]
    fn compute_optimized_beats_general_at_equal_cores() {
        let m = PerformanceModel::default();
        let cat = InstanceCatalog::paper_catalog();
        assert!(
            m.node_throughput(cat.get("c4.4xlarge").unwrap())
                > m.node_throughput(cat.get("m4.4xlarge").unwrap())
        );
    }

    #[test]
    fn more_nodes_less_per_node_time() {
        let m = PerformanceModel::default();
        let cat = InstanceCatalog::paper_catalog();
        let inst = cat.get("c3.4xlarge").unwrap();
        let t1 = m.node_compute_secs(&wl(), inst, 1, 1);
        let t4 = m.node_compute_secs(&wl(), inst, 4, 1);
        assert!(t4.iter().cloned().fold(0.0, f64::max) < t1[0]);
        assert_eq!(t4.len(), 4);
    }

    #[test]
    fn memory_pressure_kicks_in() {
        let m = PerformanceModel::default();
        let cat = InstanceCatalog::paper_catalog();
        let c3 = cat.get("c3.4xlarge").unwrap(); // 30 GiB
        let heavy = Workload::new(1000.0, 120.0, 10.0, 0.0).unwrap();
        assert!(m.memory_factor(&heavy, c3, 1) > 1.0);
        assert_eq!(m.memory_factor(&heavy, c3, 4), 1.0); // 30 GiB each
        let m4 = cat.get("m4.10xlarge").unwrap(); // 160 GiB
        assert_eq!(m.memory_factor(&heavy, m4, 1), 1.0);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let m = PerformanceModel::default();
        let cat = InstanceCatalog::paper_catalog();
        let inst = cat.get("m4.4xlarge").unwrap();
        let a = m.node_compute_secs(&wl(), inst, 8, 42);
        let b = m.node_compute_secs(&wl(), inst, 8, 42);
        assert_eq!(a, b);
        let c = m.node_compute_secs(&wl(), inst, 8, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_is_small_relative_to_base() {
        let m = PerformanceModel::default();
        let cat = InstanceCatalog::paper_catalog();
        let inst = cat.get("c4.8xlarge").unwrap();
        let times = m.node_compute_secs(&wl(), inst, 200, 7);
        let mean = disar_math::stats::mean(&times);
        let sd = disar_math::stats::std_dev(&times);
        // Mostly 4% jitter with rare 1.5× stragglers.
        assert!(sd / mean < 0.25, "cv {}", sd / mean);
    }

    #[test]
    fn overall_speedup_in_paper_range() {
        // Single-node speedup vs the sequential baseline should land in the
        // 4–10× band Figure 4 reports for these instance types.
        let m = PerformanceModel {
            noise_sigma: 0.0,
            straggler_prob: 0.0,
            ..PerformanceModel::default()
        };
        let cat = InstanceCatalog::paper_catalog();
        let w = Workload::new(50_000.0, 8.0, 100.0, 0.05).unwrap();
        let seq = m.sequential_secs(&w);
        for name in cat.names() {
            let inst = cat.get(&name).unwrap();
            let par = m.serial_secs(&w, inst)
                + m.node_compute_secs(&w, inst, 1, 0)[0];
            let speedup = seq / par;
            assert!(
                (3.0..12.0).contains(&speedup),
                "{name}: speedup {speedup}"
            );
        }
    }

    #[test]
    fn serial_secs_scales_with_fraction() {
        let m = PerformanceModel::default();
        let cat = InstanceCatalog::paper_catalog();
        let inst = cat.get("m4.4xlarge").unwrap();
        let none = Workload::new(1000.0, 1.0, 1.0, 0.0).unwrap();
        let half = Workload::new(1000.0, 1.0, 1.0, 0.5).unwrap();
        assert_eq!(m.serial_secs(&none, inst), 0.0);
        assert!((m.serial_secs(&half, inst) - 500.0).abs() < 1e-9);
    }
}
