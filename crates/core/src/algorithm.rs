//! Algorithm 1 — selection of the best-suited configuration.
//!
//! Faithful implementation of the paper's pseudocode:
//!
//! ```text
//! C = ∅
//! for n ∈ [1, max]:
//!   for m ∈ M:
//!     time ← (Σ_x p_x(m, n, f)) / |X|
//!     if time ≤ Tmax:
//!       cost ← hour_cost · time
//!       C ← C ∪ ⟨m, n, cost⟩
//! if RAND() < ε: selected ← random element of C
//! else:          selected ← argmin_cost C
//! ```
//!
//! The ε-branch "allows to enlarge the knowledge base, possibly reducing
//! the number of false positives on the expected execution time".

use crate::predictor::{GridScratch, TimePredictor};
use crate::profile::JobProfile;
use crate::CoreError;
use disar_cloudsim::InstanceCatalog;
use disar_math::rng::stream_rng;
use disar_ml::MlError;

/// Reusable buffers for repeated Algorithm 1 sweeps.
///
/// The sweep needs a feature matrix with the member kernels' scratch, the
/// member-major prediction block of one instance type, and the folded
/// per-cell evaluations of the whole grid. A warm workspace retains all of
/// them between selections, so a steady-state deployer sweeping the same
/// catalog allocates nothing per decision (see `tests/alloc_selection.rs`).
#[derive(Debug, Default)]
pub struct SelectionWorkspace {
    /// Featurization + member-kernel scratch, reused for every type.
    scratch: GridScratch,
    /// Member-major `members × nodes` predictions of the type in hand.
    members: Vec<f64>,
    /// Type-major `(mean, filter_time)` pairs of every cell.
    evals: Vec<(f64, f64)>,
    /// The node axis `1..=max_nodes`, rebuilt in place each selection.
    nodes: Vec<usize>,
}

impl SelectionWorkspace {
    /// An empty workspace; every buffer is sized lazily on first use.
    pub fn new() -> Self {
        SelectionWorkspace::default()
    }
}

/// One feasible deploy configuration `⟨m, n, cost⟩`.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateConfig {
    /// Instance-type name (`m`).
    pub instance: String,
    /// Node count (`n`).
    pub n_nodes: usize,
    /// Ensemble-averaged predicted execution time (seconds).
    pub predicted_secs: f64,
    /// Predicted cost: `hour_cost · time · n` (USD).
    pub predicted_cost: f64,
}

/// The outcome of Algorithm 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// The chosen configuration.
    pub chosen: CandidateConfig,
    /// `true` when the ε-branch fired (random exploration).
    pub explored: bool,
    /// Every feasible configuration, sorted by cost ascending (diagnostic;
    /// the head is the greedy choice).
    pub feasible: Vec<CandidateConfig>,
    /// Number of `(m, n)` cells whose ensemble-mean prediction was
    /// non-positive and therefore rejected before candidate construction.
    /// A non-positive predicted time would yield `predicted_cost = 0`,
    /// which sorts first and wins the greedy argmin — a nonsense pick the
    /// paper's deadline discussion warns about. Non-zero values signal the
    /// family is extrapolating badly for this job.
    pub rejected_nonpositive: usize,
}

/// How the per-model predictions are combined into the `time` Algorithm 1
/// filters on.
///
/// The paper observes that "while an overestimation only implies a higher
/// outlay, an underestimation might violate the timing constraints which
/// are fundamental to meet the deadlines imposed by the Directive" (§IV).
/// [`TimeEstimate::Conservative`] acts on that asymmetry: it filters on
/// the *worst* (largest) family member prediction instead of the mean,
/// trading cost for deadline safety. The ablation harness quantifies the
/// trade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeEstimate {
    /// The paper's rule: arithmetic mean of the six models.
    EnsembleMean,
    /// Deadline-safe rule: the maximum of the six models (costs are still
    /// computed from the mean, which is the better point estimate).
    Conservative,
}

/// Runs Algorithm 1 over the catalog `M` and node counts `1..=max_nodes`.
///
/// When no configuration's averaged prediction meets `t_max`, returns
/// [`CoreError::NoFeasibleConfiguration`] carrying the best predicted time
/// (so callers can e.g. relax the deadline) — the paper leaves this case to
/// the operator.
///
/// # Errors
///
/// - [`CoreError::InvalidParameter`] for a non-positive `t_max`,
///   `max_nodes == 0`, ε outside `[0, 1]`, or an empty catalog;
/// - [`CoreError::Ml`] if the family is untrained, or if a cell's member
///   predictions sum to NaN;
/// - [`CoreError::NoFeasibleConfiguration`] when the deadline is
///   unattainable.
pub fn select_configuration<P: TimePredictor + ?Sized>(
    family: &P,
    catalog: &InstanceCatalog,
    profile: &JobProfile,
    t_max: f64,
    max_nodes: usize,
    epsilon: f64,
    seed: u64,
) -> Result<Selection, CoreError> {
    select_configuration_with_workspace(
        family,
        catalog,
        profile,
        t_max,
        max_nodes,
        epsilon,
        seed,
        TimeEstimate::EnsembleMean,
        1,
        &mut SelectionWorkspace::new(),
    )
}

/// Algorithm 1 in full: [`select_configuration`] with an explicit
/// deadline-filter `rule` and a caller-owned [`SelectionWorkspace`] — the
/// entry point for deployers that select repeatedly, where a warm
/// workspace's buffers are reused instead of reallocated.
///
/// The sweep is one loop over the catalog: for each instance type it
/// featurizes the whole node column once and runs every family member's
/// batched kernel over it
/// ([`crate::predictor::PredictorFamily::predict_grid`]). Both the mean and
/// the Conservative maximum are folded from that member-major block, so
/// each member is evaluated exactly once per `(m, n)` cell; the cells are
/// then visited in the nested loop's node-major order, which fixes the
/// `feasible` ordering, `best_predicted` and tie-breaks.
///
/// `n_threads` is ignored: the sweep runs on the calling thread. The
/// argument stays until the benchmark's frozen adapter stops passing it.
///
/// # Errors
///
/// Same contract as [`select_configuration`].
#[allow(clippy::too_many_arguments)]
pub fn select_configuration_with_workspace<P: TimePredictor + ?Sized>(
    family: &P,
    catalog: &InstanceCatalog,
    profile: &JobProfile,
    t_max: f64,
    max_nodes: usize,
    epsilon: f64,
    seed: u64,
    rule: TimeEstimate,
    _n_threads: usize,
    ws: &mut SelectionWorkspace,
) -> Result<Selection, CoreError> {
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

    let SelectionWorkspace {
        scratch,
        members,
        evals,
        nodes,
    } = ws;
    nodes.clear();
    nodes.extend(1..=max_nodes);
    evals.clear();

    // Per instance type: featurize the node column once, run each member's
    // batched kernel over it, and fold the member-major block into per-node
    // `(mean, filter_time)` pairs. The mean is summed in member order and
    // the Conservative max folded from `NEG_INFINITY` in member order —
    // term for term the expressions of the per-cell `predict_each` path, so
    // the results are bit-identical to it.
    for inst in catalog.iter() {
        let count = family.predict_grid(profile, inst, nodes, members, scratch)?;
        for (i, &n) in nodes.iter().enumerate() {
            let mut sum = 0.0;
            let mut worst = f64::NEG_INFINITY;
            for m in 0..count {
                let t = members[m * nodes.len() + i];
                sum += t;
                worst = worst.max(t.max(0.0));
            }
            // `f64::max` would turn a NaN mean into `0.0`, and the cell
            // would pass for a non-positive one.
            if sum.is_nan() {
                return Err(CoreError::Ml(MlError::Numerical(format!(
                    "the ensemble mean of {} on {n} nodes is NaN",
                    inst.name
                ))));
            }
            let time = (sum / count as f64).max(0.0);
            let filter_time = match rule {
                TimeEstimate::EnsembleMean => time,
                TimeEstimate::Conservative => worst,
            };
            evals.push((time, filter_time));
        }
    }

    // Fold in the sequential nested loop's node-major order.
    let mut feasible: Vec<CandidateConfig> = Vec::new();
    let mut best_predicted = f64::INFINITY;
    let mut rejected_nonpositive = 0usize;
    for (i, n) in nodes.iter().copied().enumerate() {
        for (g, inst) in catalog.iter().enumerate() {
            let (time, filter_time) = evals[g * nodes.len() + i];
            // A non-positive mean prediction is a model artefact, not a
            // 0-second job: it would produce `predicted_cost = 0` and steal
            // the greedy argmin, so the cell is rejected outright — and it
            // is not the best predicted time an infeasible deadline reports.
            if time <= 0.0 {
                rejected_nonpositive += 1;
                continue;
            }
            best_predicted = best_predicted.min(filter_time);
            if filter_time <= t_max {
                feasible.push(CandidateConfig {
                    instance: inst.name.clone(),
                    n_nodes: n,
                    predicted_secs: time,
                    predicted_cost: inst.hourly_cost * (time / 3600.0) * n as f64,
                });
            }
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
            .then_with(|| a.instance.cmp(&b.instance))
            .then_with(|| a.n_nodes.cmp(&b.n_nodes))
    });

    let mut rng = stream_rng(seed, 0xA160);
    let explored = rng.gen_range(0.0..1.0) < epsilon;
    let chosen = if explored {
        feasible[rng.gen_range(0..feasible.len())].clone()
    } else {
        feasible[0].clone()
    };
    Ok(Selection {
        chosen,
        explored,
        feasible,
        rejected_nonpositive,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::{KnowledgeBase, RunRecord};
    use crate::predictor::{PredictorFamily, RetrainMode};
    use disar_cloudsim::InstanceType;
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

    /// A family trained on a synthetic law: time = K / (power · nodes).
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
    fn greedy_picks_cheapest_feasible() {
        let (fam, cat) = trained_family();
        let sel = select_configuration(&fam, &cat, &profile(200), 10_000.0, 6, 0.0, 1).unwrap();
        assert!(!sel.explored);
        assert_eq!(sel.chosen, sel.feasible[0]);
        // Sorted by cost.
        for w in sel.feasible.windows(2) {
            assert!(w[0].predicted_cost <= w[1].predicted_cost + 1e-12);
        }
    }

    #[test]
    fn tight_deadline_shrinks_feasible_set() {
        let (fam, cat) = trained_family();
        let loose = select_configuration(&fam, &cat, &profile(200), 10_000.0, 6, 0.0, 1).unwrap();
        let tight = select_configuration(&fam, &cat, &profile(200), 700.0, 6, 0.0, 1).unwrap();
        assert!(tight.feasible.len() < loose.feasible.len());
        for c in &tight.feasible {
            assert!(c.predicted_secs <= 700.0);
        }
    }

    #[test]
    fn impossible_deadline_reports_best() {
        let (fam, cat) = trained_family();
        let err = select_configuration(&fam, &cat, &profile(400), 1e-3, 6, 0.0, 1).unwrap_err();
        match err {
            CoreError::NoFeasibleConfiguration { t_max, best_predicted } => {
                assert_eq!(t_max, 1e-3);
                assert!(best_predicted > 1e-3);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn epsilon_one_always_explores() {
        let (fam, cat) = trained_family();
        let sel = select_configuration(&fam, &cat, &profile(200), 10_000.0, 6, 1.0, 3).unwrap();
        assert!(sel.explored);
        // Exploration picks a feasible config, not an arbitrary one.
        assert!(sel.feasible.contains(&sel.chosen));
    }

    #[test]
    fn epsilon_exploration_depends_on_seed_not_luck() {
        let (fam, cat) = trained_family();
        // With ε = 0.5, some seeds explore, some don't; both must be
        // deterministic per seed.
        let a1 = select_configuration(&fam, &cat, &profile(200), 10_000.0, 6, 0.5, 7).unwrap();
        let a2 = select_configuration(&fam, &cat, &profile(200), 10_000.0, 6, 0.5, 7).unwrap();
        assert_eq!(a1, a2);
        let outcomes: Vec<bool> = (0..40)
            .map(|s| {
                select_configuration(&fam, &cat, &profile(200), 10_000.0, 6, 0.5, s)
                    .unwrap()
                    .explored
            })
            .collect();
        assert!(outcomes.iter().any(|&e| e));
        assert!(outcomes.iter().any(|&e| !e));
    }

    #[test]
    fn cost_formula_matches_paper() {
        let (fam, cat) = trained_family();
        let sel = select_configuration(&fam, &cat, &profile(200), 10_000.0, 4, 0.0, 1).unwrap();
        for c in &sel.feasible {
            let inst = cat.get(&c.instance).unwrap();
            let expect = inst.hourly_cost * (c.predicted_secs / 3600.0) * c.n_nodes as f64;
            assert!((c.predicted_cost - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn less_powerful_but_cheaper_instance_can_win() {
        // The paper stresses that "less powerful virtualized architectures
        // could be selected in place of more powerful ones, provided that
        // they allow to meet the time constraints". With a loose deadline
        // the cheapest-per-work instance must win over the biggest one.
        let (fam, cat) = trained_family();
        let sel =
            select_configuration(&fam, &cat, &profile(100), 100_000.0, 6, 0.0, 1).unwrap();
        assert_ne!(
            sel.chosen.instance, "m4.10xlarge",
            "the premium instance should not win on cost: {:?}",
            sel.chosen
        );
    }

    #[test]
    fn conservative_rule_is_a_subset_of_mean_rule() {
        // Filtering on the max of the six predictions can only shrink the
        // feasible set relative to filtering on their mean.
        let (fam, cat) = trained_family();
        let p = profile(250);
        let t_max = 900.0;
        let mean_sel =
            select_configuration(&fam, &cat, &p, t_max, 6, 0.0, 1).unwrap();
        let cons_sel = select_configuration_with_workspace(
            &fam,
            &cat,
            &p,
            t_max,
            6,
            0.0,
            1,
            TimeEstimate::Conservative,
            1,
            &mut SelectionWorkspace::new(),
        )
        .unwrap();
        assert!(cons_sel.feasible.len() <= mean_sel.feasible.len());
        // Every conservative candidate is also mean-feasible.
        for c in &cons_sel.feasible {
            assert!(mean_sel
                .feasible
                .iter()
                .any(|m| m.instance == c.instance && m.n_nodes == c.n_nodes));
        }
    }

    #[test]
    fn mean_rule_equals_default_entry_point() {
        let (fam, cat) = trained_family();
        let p = profile(150);
        let a = select_configuration(&fam, &cat, &p, 5_000.0, 4, 0.0, 3).unwrap();
        let b = select_configuration_with_workspace(
            &fam,
            &cat,
            &p,
            5_000.0,
            4,
            0.0,
            3,
            TimeEstimate::EnsembleMean,
            1,
            &mut SelectionWorkspace::new(),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parameter_validation() {
        let (fam, cat) = trained_family();
        let p = profile(100);
        assert!(select_configuration(&fam, &cat, &p, 0.0, 4, 0.0, 1).is_err());
        assert!(select_configuration(&fam, &cat, &p, 100.0, 0, 0.0, 1).is_err());
        assert!(select_configuration(&fam, &cat, &p, 100.0, 4, 1.5, 1).is_err());
        let empty = InstanceCatalog::new();
        assert!(select_configuration(&fam, &empty, &p, 100.0, 4, 0.0, 1).is_err());
    }

    /// A family trained on `time = base − slope · (nodes − 1)`: positive at
    /// low node counts, increasingly negative beyond — the regime where the
    /// clamped ensemble mean collapses to exactly `0.0`.
    fn decreasing_target_family() -> (PredictorFamily, InstanceCatalog) {
        let cat = InstanceCatalog::paper_catalog();
        let names = cat.names();
        let mut kb = KnowledgeBase::new();
        for i in 0..400 {
            let inst = cat.get(&names[i % names.len()]).unwrap();
            let nodes = i % 6 + 1;
            let contracts = 50 + (i * 53) % 400;
            let time = 500.0 - 400.0 * (nodes as f64 - 1.0);
            kb.record(RunRecord::new(profile(contracts), inst, nodes, time, 0.0));
        }
        let mut fam = PredictorFamily::new(5, 2);
        fam.retrain(&kb, RetrainMode::Full, 1).unwrap();
        (fam, cat)
    }

    #[test]
    fn all_negative_predictions_are_rejected() {
        // Every training target is negative, so every cell's clamped
        // ensemble mean is 0.0. Before the non-positive guard, all cells
        // were "feasible" at predicted_cost = 0 and the argmin returned a
        // nonsense free configuration; now the sweep must report that no
        // usable configuration exists.
        let cat = InstanceCatalog::paper_catalog();
        let names = cat.names();
        let mut kb = KnowledgeBase::new();
        for i in 0..400 {
            let inst = cat.get(&names[i % names.len()]).unwrap();
            let nodes = i % 6 + 1;
            let contracts = 50 + (i * 53) % 400;
            let time = -(100.0 + contracts as f64);
            kb.record(RunRecord::new(profile(contracts), inst, nodes, time, 0.0));
        }
        let mut fam = PredictorFamily::new(5, 2);
        fam.retrain(&kb, RetrainMode::Full, 1).unwrap();
        let err = select_configuration(&fam, &cat, &profile(200), 10_000.0, 6, 0.0, 1)
            .unwrap_err();
        assert!(
            matches!(err, CoreError::NoFeasibleConfiguration { .. }),
            "expected NoFeasibleConfiguration, got {err}"
        );
    }

    #[test]
    fn zero_cost_candidates_never_win() {
        // Mixed regime: low node counts predict positive times, high node
        // counts collapse to the 0.0 clamp. The zero-cost cells must be
        // counted in the diagnostics and excluded from the feasible set —
        // previously one of them won the greedy argmin at cost 0.
        let (fam, cat) = decreasing_target_family();
        let sel =
            select_configuration(&fam, &cat, &profile(200), 100_000.0, 6, 0.0, 1).unwrap();
        assert!(
            sel.rejected_nonpositive > 0,
            "high-node cells should hit the clamp: {sel:?}"
        );
        for c in &sel.feasible {
            assert!(c.predicted_secs > 0.0, "non-positive time survived: {c:?}");
            assert!(c.predicted_cost > 0.0, "zero-cost candidate survived: {c:?}");
        }
        assert!(sel.chosen.predicted_cost > 0.0);
    }

    /// A stub predictor: negative times from three nodes up, times above
    /// any deadline below 1 000 s on one and two nodes.
    struct NegativeOrSlowPredictor;

    impl TimePredictor for NegativeOrSlowPredictor {
        fn predict_each(
            &self,
            _profile: &JobProfile,
            instance: &InstanceType,
            n_nodes: usize,
        ) -> Result<Vec<(&'static str, f64)>, CoreError> {
            let t = if n_nodes >= 3 {
                -50.0
            } else {
                1_000.0 + (n_nodes * instance.vcpus as usize) as f64
            };
            Ok(vec![("M0", t), ("M1", t)])
        }
    }

    #[test]
    fn rejected_cells_do_not_set_the_best_predicted_time() {
        let cat = InstanceCatalog::paper_catalog();
        let stub = NegativeOrSlowPredictor;
        let err = select_configuration(&stub, &cat, &profile(100), 500.0, 4, 0.0, 1).unwrap_err();
        let smallest = cat
            .iter()
            .map(|inst| 1_000.0 + inst.vcpus as f64)
            .fold(f64::INFINITY, f64::min);
        match err {
            CoreError::NoFeasibleConfiguration {
                t_max,
                best_predicted,
            } => {
                assert_eq!(t_max, 500.0);
                assert_eq!(best_predicted, smallest);
            }
            other => panic!("unexpected error {other}"),
        }
    }

    /// A stub predictor whose first member predicts NaN for `c4.4xlarge` on
    /// two nodes, and every other prediction is a plain positive time.
    struct NanMemberPredictor;

    impl TimePredictor for NanMemberPredictor {
        fn predict_each(
            &self,
            _profile: &JobProfile,
            instance: &InstanceType,
            n_nodes: usize,
        ) -> Result<Vec<(&'static str, f64)>, CoreError> {
            let t = 100.0 * n_nodes as f64;
            let first = if instance.name == "c4.4xlarge" && n_nodes == 2 {
                f64::NAN
            } else {
                t
            };
            Ok(vec![("M0", first), ("M1", t)])
        }
    }

    #[test]
    fn a_nan_member_prediction_is_a_numerical_error() {
        let cat = InstanceCatalog::paper_catalog();
        for rule in [TimeEstimate::EnsembleMean, TimeEstimate::Conservative] {
            let err = select_configuration_with_workspace(
                &NanMemberPredictor,
                &cat,
                &profile(100),
                1e9,
                3,
                0.0,
                1,
                rule,
                1,
                &mut SelectionWorkspace::new(),
            )
            .unwrap_err();
            match err {
                CoreError::Ml(MlError::Numerical(what)) => {
                    assert!(what.contains("c4.4xlarge on 2 nodes"), "{rule:?}: {what}");
                }
                other => panic!("{rule:?}: unexpected error {other}"),
            }
        }
    }

    /// A stub predictor whose `predict_each` counts member evaluations —
    /// every call evaluates all `members` stub models once.
    struct CountingPredictor {
        members: usize,
        member_evals: std::sync::atomic::AtomicUsize,
    }

    impl TimePredictor for CountingPredictor {
        fn predict_each(
            &self,
            _profile: &JobProfile,
            instance: &InstanceType,
            n_nodes: usize,
        ) -> Result<Vec<(&'static str, f64)>, CoreError> {
            const NAMES: [&str; 8] = ["M0", "M1", "M2", "M3", "M4", "M5", "M6", "M7"];
            self.member_evals
                .fetch_add(self.members, std::sync::atomic::Ordering::Relaxed);
            Ok((0..self.members)
                .map(|m| {
                    let t = 100.0 + m as f64 + n_nodes as f64 * instance.vcpus as f64;
                    (NAMES[m], t)
                })
                .collect())
        }
    }

    #[test]
    fn each_member_is_evaluated_exactly_once_per_cell() {
        // Regression: the Conservative rule used to run the ensemble mean
        // *and* a second full `predict_each` per cell — a 2× member-eval
        // bug. Both rules must now evaluate each member exactly once per
        // grid cell.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cat = InstanceCatalog::paper_catalog();
        let max_nodes = 4;
        let cells = max_nodes * cat.iter().count();
        let stub = CountingPredictor {
            members: 6,
            member_evals: AtomicUsize::new(0),
        };
        for rule in [TimeEstimate::EnsembleMean, TimeEstimate::Conservative] {
            stub.member_evals.store(0, Ordering::Relaxed);
            select_configuration_with_workspace(
                &stub,
                &cat,
                &profile(100),
                1e9,
                max_nodes,
                0.0,
                1,
                rule,
                1,
                &mut SelectionWorkspace::new(),
            )
            .unwrap();
            assert_eq!(
                stub.member_evals.load(Ordering::Relaxed),
                cells * stub.members,
                "rule {rule:?} must evaluate each member exactly once per cell"
            );
        }
    }
}
