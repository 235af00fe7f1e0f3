//! Heterogeneous configuration selection — the paper's §VI future work,
//! implemented.
//!
//! Algorithm 1 generalizes naturally: a *mixed* deploy pairs two instance
//! groups and splits the parallel work so both groups finish together. If
//! the (homogeneous) predictors estimate that the whole job would take
//! `t_1` on group 1 and `t_2` on group 2, the barrier-balancing split gives
//! group 1 the share `s_1 = t_2 / (t_1 + t_2)`, and the predicted makespan
//! is the "parallel resistor" combination
//!
//! ```text
//! t_mix = t_1 · t_2 / (t_1 + t_2)
//! ```
//!
//! — always faster than either group alone. Crucially, the predictions
//! come from the *same knowledge base* of homogeneous runs: no new
//! training data is needed to start exploring mixed deploys, which is why
//! the paper could leave this as a drop-in extension.

use crate::predictor::{GridScratch, TimePredictor};
use crate::profile::JobProfile;
use crate::CoreError;
use disar_cloudsim::{InstanceCatalog, InstanceType, NodeGroup};
use disar_math::parallel::parallel_map_with;
use disar_math::rng::stream_rng;

/// A candidate (possibly mixed) configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroCandidate {
    /// The node groups (one = homogeneous, two = mixed).
    pub groups: Vec<NodeGroup>,
    /// Predicted makespan in seconds.
    pub predicted_secs: f64,
    /// Predicted prorated cost in USD.
    pub predicted_cost: f64,
}

/// The outcome of heterogeneous selection.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroSelection {
    /// The chosen candidate.
    pub chosen: HeteroCandidate,
    /// `true` when the ε-branch fired.
    pub explored: bool,
    /// All feasible candidates sorted by cost (head = greedy choice).
    pub feasible: Vec<HeteroCandidate>,
}

/// Runs the heterogeneous generalization of Algorithm 1: all homogeneous
/// configurations plus all two-type mixes with `n1 + n2 <= max_nodes`,
/// barrier-balanced work splits, `T_max` filtering, cost minimization and
/// ε-greedy exploration.
///
/// # Errors
///
/// Same contract as [`crate::select_configuration`]:
/// [`CoreError::InvalidParameter`] for bad arguments, [`CoreError::Ml`] for
/// an untrained family, [`CoreError::NoFeasibleConfiguration`] when the
/// deadline is unattainable.
pub fn select_hetero_configuration<P: TimePredictor + ?Sized>(
    family: &P,
    catalog: &InstanceCatalog,
    profile: &JobProfile,
    t_max: f64,
    max_nodes: usize,
    epsilon: f64,
    seed: u64,
) -> Result<HeteroSelection, CoreError> {
    select_hetero_configuration_threads(family, catalog, profile, t_max, max_nodes, epsilon, seed, 1)
}

/// [`select_hetero_configuration`] with the homogeneous prediction grid
/// spread over up to `n_threads` worker threads.
///
/// Only the `|M| · max_nodes` ensemble predictions run in parallel — the
/// mixing step is pure arithmetic on their results and stays sequential —
/// so the selection is bit-identical to `n_threads = 1`.
///
/// # Errors
///
/// Same contract as [`select_hetero_configuration`], plus
/// [`CoreError::InvalidParameter`] for `n_threads == 0`.
#[allow(clippy::too_many_arguments)]
pub fn select_hetero_configuration_threads<P: TimePredictor + ?Sized>(
    family: &P,
    catalog: &InstanceCatalog,
    profile: &JobProfile,
    t_max: f64,
    max_nodes: usize,
    epsilon: f64,
    seed: u64,
    n_threads: usize,
) -> Result<HeteroSelection, CoreError> {
    if !(t_max > 0.0) {
        return Err(CoreError::InvalidParameter("t_max must be positive"));
    }
    if max_nodes == 0 {
        return Err(CoreError::InvalidParameter("max_nodes must be > 0"));
    }
    if !(0.0..=1.0).contains(&epsilon) {
        return Err(CoreError::InvalidParameter("epsilon must be in [0, 1]"));
    }
    if catalog.is_empty() {
        return Err(CoreError::InvalidParameter("catalog is empty"));
    }
    if n_threads == 0 {
        return Err(CoreError::InvalidParameter("n_threads must be > 0"));
    }

    // Homogeneous predictions t[(m, n)] reused by the mixing step, laid
    // out in the sequential loop's (type-major, node-minor) order. One
    // worker takes one instance type, featurizes its whole node column
    // once and reads every member's batched kernel from a single
    // `predict_grid` pass; the per-node mean is summed in member order and
    // clamped exactly like `predict_mean(...)?.max(1e-9)` was, so the
    // values are bit-identical to the per-cell path.
    let names = catalog.names();
    let insts: Vec<&InstanceType> = names
        .iter()
        .map(|name| catalog.get(name))
        .collect::<Result<_, _>>()?;
    let nodes: Vec<usize> = (1..=max_nodes).collect();
    let per_type: Vec<Result<Vec<f64>, CoreError>> = parallel_map_with(
        insts.len(),
        n_threads,
        || (GridScratch::new(), Vec::new()),
        |mi, (scratch, block)| {
            let members = family.predict_grid(profile, insts[mi], &nodes, block, scratch)?;
            Ok((0..nodes.len())
                .map(|i| {
                    let mut sum = 0.0;
                    for m in 0..members {
                        sum += block[m * nodes.len() + i];
                    }
                    (sum / members as f64).max(0.0).max(1e-9)
                })
                .collect())
        },
    );
    let mut homo: Vec<(usize, usize, f64)> = Vec::with_capacity(insts.len() * max_nodes);
    for (mi, res) in per_type.into_iter().enumerate() {
        let means = res?;
        debug_assert_eq!(means.len(), nodes.len());
        for (&n, &t) in nodes.iter().zip(&means) {
            homo.push((mi, n, t));
        }
    }

    let mut feasible: Vec<HeteroCandidate> = Vec::new();
    let mut best_predicted = f64::INFINITY;
    let mut consider = |groups: Vec<NodeGroup>, secs: f64, cost: f64| {
        best_predicted = best_predicted.min(secs);
        if secs <= t_max {
            feasible.push(HeteroCandidate {
                groups,
                predicted_secs: secs,
                predicted_cost: cost,
            });
        }
    };

    // Homogeneous candidates (exactly Algorithm 1's set).
    for &(mi, n, t) in &homo {
        let inst = catalog.get(&names[mi])?;
        let cost = inst.hourly_cost * (t / 3600.0) * n as f64;
        consider(
            vec![NodeGroup::new(&names[mi], n, 1.0).expect("valid group")],
            t,
            cost,
        );
    }

    // Mixed candidates: unordered pairs of distinct types.
    for &(mi, ni, ti) in &homo {
        for &(mj, nj, tj) in &homo {
            if mj <= mi || ni + nj > max_nodes {
                continue;
            }
            let share_i = tj / (ti + tj);
            let t_mix = ti * tj / (ti + tj);
            let inst_i = catalog.get(&names[mi])?;
            let inst_j = catalog.get(&names[mj])?;
            let cost = (inst_i.hourly_cost * ni as f64 + inst_j.hourly_cost * nj as f64)
                * (t_mix / 3600.0);
            consider(
                vec![
                    NodeGroup::new(&names[mi], ni, share_i).expect("share in (0,1)"),
                    NodeGroup::new(&names[mj], nj, 1.0 - share_i).expect("share in (0,1)"),
                ],
                t_mix,
                cost,
            );
        }
    }

    if feasible.is_empty() {
        return Err(CoreError::NoFeasibleConfiguration {
            t_max,
            best_predicted,
        });
    }
    feasible.sort_by(|a, b| {
        a.predicted_cost
            .partial_cmp(&b.predicted_cost)
            .expect("finite costs")
            .then_with(|| a.groups.len().cmp(&b.groups.len()))
            .then_with(|| a.groups[0].instance.cmp(&b.groups[0].instance))
            .then_with(|| a.groups[0].n_nodes.cmp(&b.groups[0].n_nodes))
    });

    let mut rng = stream_rng(seed, 0x43E7);
    let explored = rng.gen_range(0.0..1.0) < epsilon;
    let chosen = if explored {
        feasible[rng.gen_range(0..feasible.len())].clone()
    } else {
        feasible[0].clone()
    };
    Ok(HeteroSelection {
        chosen,
        explored,
        feasible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::{KnowledgeBase, RunRecord};
    use crate::predictor::{PredictorFamily, RetrainMode};
    use disar_engine::EebCharacteristics;

    fn profile(contracts: usize) -> JobProfile {
        JobProfile {
            characteristics: EebCharacteristics {
                representative_contracts: contracts,
                max_horizon: 20,
                fund_assets: 30,
                risk_factors: 2,
            },
            n_outer: 1000,
            n_inner: 50,
        }
    }

    fn trained_family() -> (PredictorFamily, InstanceCatalog) {
        let cat = InstanceCatalog::paper_catalog();
        let names = cat.names();
        let mut kb = KnowledgeBase::new();
        for i in 0..400 {
            let inst = cat.get(&names[i % names.len()]).unwrap();
            let nodes = i % 6 + 1;
            let contracts = 50 + (i * 53) % 400;
            let time =
                40_000.0 * contracts as f64 / 100.0 / (inst.compute_power() * nodes as f64);
            kb.record(RunRecord::new(profile(contracts), inst, nodes, time, 0.0));
        }
        let mut fam = PredictorFamily::new(5, 2);
        fam.retrain(&kb, RetrainMode::Full, 1).unwrap();
        (fam, cat)
    }

    #[test]
    fn hetero_set_contains_all_homogeneous_candidates() {
        let (fam, cat) = trained_family();
        let homo =
            crate::select_configuration(&fam, &cat, &profile(200), 50_000.0, 4, 0.0, 1).unwrap();
        let hetero =
            select_hetero_configuration(&fam, &cat, &profile(200), 50_000.0, 4, 0.0, 1).unwrap();
        let homo_in_hetero = hetero
            .feasible
            .iter()
            .filter(|c| c.groups.len() == 1)
            .count();
        assert_eq!(homo_in_hetero, homo.feasible.len());
        // Hetero strictly enlarges the candidate set.
        assert!(hetero.feasible.len() > homo.feasible.len());
    }

    #[test]
    fn hetero_never_costs_more_than_homogeneous_greedy() {
        // The homogeneous optimum is in the hetero candidate set, so the
        // hetero greedy pick can only match or beat it on predicted cost.
        let (fam, cat) = trained_family();
        let homo =
            crate::select_configuration(&fam, &cat, &profile(200), 2_000.0, 6, 0.0, 1).unwrap();
        let hetero =
            select_hetero_configuration(&fam, &cat, &profile(200), 2_000.0, 6, 0.0, 1).unwrap();
        assert!(hetero.chosen.predicted_cost <= homo.chosen.predicted_cost + 1e-9);
    }

    #[test]
    fn mixed_candidates_balance_the_barrier() {
        let (fam, cat) = trained_family();
        let sel =
            select_hetero_configuration(&fam, &cat, &profile(300), 50_000.0, 6, 0.0, 1).unwrap();
        for c in sel.feasible.iter().filter(|c| c.groups.len() == 2) {
            let shares: f64 = c.groups.iter().map(|g| g.work_share).sum();
            assert!((shares - 1.0).abs() < 1e-9);
            // Mixed time must beat either group running everything alone —
            // the parallel-resistor identity.
            assert!(c.predicted_secs > 0.0);
        }
    }

    #[test]
    fn tight_deadline_may_need_a_mix() {
        // Find a deadline between the best homogeneous time and the best
        // mixed time: hetero still returns a pick, homogeneous may not.
        let (fam, cat) = trained_family();
        let all = select_hetero_configuration(&fam, &cat, &profile(400), 1e9, 3, 0.0, 1).unwrap();
        let best_mixed = all
            .feasible
            .iter()
            .filter(|c| c.groups.len() == 2)
            .map(|c| c.predicted_secs)
            .fold(f64::INFINITY, f64::min);
        let best_homo = all
            .feasible
            .iter()
            .filter(|c| c.groups.len() == 1)
            .map(|c| c.predicted_secs)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_mixed < best_homo,
            "a two-type mix on 3 nodes should beat any single type on <=3 nodes"
        );
        let t_max = (best_mixed + best_homo) / 2.0;
        let hetero =
            select_hetero_configuration(&fam, &cat, &profile(400), t_max, 3, 0.0, 1).unwrap();
        assert_eq!(hetero.chosen.groups.len(), 2, "only a mix meets {t_max}");
        assert!(matches!(
            crate::select_configuration(&fam, &cat, &profile(400), t_max, 3, 0.0, 1),
            Err(CoreError::NoFeasibleConfiguration { .. })
        ));
    }

    #[test]
    fn epsilon_explores_deterministically() {
        let (fam, cat) = trained_family();
        let a = select_hetero_configuration(&fam, &cat, &profile(200), 50_000.0, 4, 0.5, 9)
            .unwrap();
        let b = select_hetero_configuration(&fam, &cat, &profile(200), 50_000.0, 4, 0.5, 9)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parameter_validation() {
        let (fam, cat) = trained_family();
        let p = profile(100);
        assert!(select_hetero_configuration(&fam, &cat, &p, 0.0, 4, 0.0, 1).is_err());
        assert!(select_hetero_configuration(&fam, &cat, &p, 100.0, 0, 0.0, 1).is_err());
        assert!(select_hetero_configuration(&fam, &cat, &p, 100.0, 4, -0.1, 1).is_err());
        assert!(
            select_hetero_configuration_threads(&fam, &cat, &p, 100.0, 4, 0.0, 1, 0).is_err()
        );
    }

    #[test]
    fn threaded_hetero_is_bit_identical_to_sequential() {
        let (fam, cat) = trained_family();
        let p = profile(250);
        let seq =
            select_hetero_configuration_threads(&fam, &cat, &p, 50_000.0, 5, 0.4, 11, 1).unwrap();
        for threads in [2, 4, 9] {
            let par =
                select_hetero_configuration_threads(&fam, &cat, &p, 50_000.0, 5, 0.4, 11, threads)
                    .unwrap();
            assert_eq!(seq, par, "divergence at n_threads = {threads}");
        }
    }

    #[test]
    fn selected_mix_runs_on_the_simulated_cloud() {
        // End-to-end: train on *real* simulator observations (like the
        // production loop does), pick a mixed configuration, execute it,
        // and check the realized makespan is in the prediction's ballpark.
        let provider = disar_cloudsim::CloudProvider::new(InstanceCatalog::paper_catalog(), 1);
        let cat = provider.catalog().clone();
        let names = cat.names();
        let workload_of = |contracts: usize| {
            disar_cloudsim::Workload::new(
                30.0 * contracts as f64,
                0.02 * contracts as f64,
                0.8 * contracts as f64,
                0.05,
            )
            .unwrap()
        };
        let mut kb = KnowledgeBase::new();
        for i in 0..240 {
            let contracts = 50 + (i * 53) % 400;
            let inst = cat.get(&names[i % names.len()]).unwrap();
            let nodes = i % 4 + 1;
            let r = provider
                .run_job_with_seed(&inst.name, nodes, &workload_of(contracts), i as u64)
                .unwrap();
            kb.record(RunRecord::new(
                profile(contracts),
                inst,
                nodes,
                r.duration_secs,
                r.prorated_cost,
            ));
        }
        let mut fam = PredictorFamily::new(5, 2);
        fam.retrain(&kb, RetrainMode::Full, 1).unwrap();

        let sel =
            select_hetero_configuration(&fam, &cat, &profile(300), 50_000.0, 4, 0.0, 1).unwrap();
        let mixed = sel
            .feasible
            .iter()
            .find(|c| c.groups.len() == 2)
            .expect("some mix is feasible");
        let r = provider
            .run_hetero_job_with_seed(&mixed.groups, &workload_of(300), 3)
            .unwrap();
        assert!(r.duration_secs > 0.0);
        let rel = (r.duration_secs - mixed.predicted_secs).abs() / mixed.predicted_secs;
        assert!(
            rel < 0.6,
            "prediction {} vs realized {}",
            mixed.predicted_secs,
            r.duration_secs
        );
    }
}
