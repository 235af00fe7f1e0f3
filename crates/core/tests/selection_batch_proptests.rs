//! Selection-level bit-identity of the batched grid sweep.
//!
//! The member-level property (`predict_batch == predict`, see disar-ml's
//! `batch_proptests`) lifts to Algorithm 1: running the sweep through
//! [`PredictorFamily::predict_grid`]'s batched kernels must return the
//! *same* [`Selection`] — same chosen cell, same feasible ordering, same
//! costs bit for bit — as the per-cell scalar `predict_each` path. The
//! scalar baseline is recovered by hiding the family behind a wrapper that
//! only implements `predict_each`, so the trait's default `predict_grid`
//! (a per-cell scalar loop) kicks in.

use disar_cloudsim::InstanceType;
use disar_core::{
    select_configuration_with_workspace, CoreError, GridScratch, JobProfile, PredictorFamily,
    SelectionWorkspace, TimeEstimate, TimePredictor,
};
use disar_math::check::cases;

mod common;
use common::{family, profile};

/// A [`PredictorFamily`] with its batched `predict_grid` override hidden:
/// only `predict_each` is implemented, so every grid query runs the
/// trait's default per-cell scalar loop.
struct ScalarOnly<'a>(&'a PredictorFamily);

impl TimePredictor for ScalarOnly<'_> {
    fn predict_each(
        &self,
        profile: &JobProfile,
        instance: &InstanceType,
        n_nodes: usize,
    ) -> Result<Vec<(&'static str, f64)>, CoreError> {
        self.0.predict_each(profile, instance, n_nodes)
    }
}

/// For random jobs, deadlines, grids and rules, the
/// batched sweep's Selection equals the scalar sweep's bit for bit —
/// including with a warm workspace left over from a *different*
/// previous selection.
#[test]
fn batched_selection_is_bit_identical_to_scalar() {
    cases(24, |rng| {
        let p = profile(rng.gen_range(60usize..420));
        let (t_max, max_nodes) = (rng.gen_range(200.0..50_000.0), rng.gen_range(1usize..8));
        let (epsilon, seed) = (rng.gen_range(0.0..1.0), rng.gen_range(0u64..500));
        let rules = [TimeEstimate::Conservative, TimeEstimate::EnsembleMean];
        let rule = rules[rng.gen_range(0..rules.len())];
        let (fam, cat) = family();
        let mut ws = SelectionWorkspace::new();
        // Dirty the workspace with an unrelated selection so the property
        // also covers warm-buffer reuse, the deployer's steady state.
        let _ = select_configuration_with_workspace(
            fam,
            cat,
            &profile(100),
            1e9,
            3,
            0.0,
            7,
            TimeEstimate::EnsembleMean,
            1,
            &mut ws,
        );
        let batched = select_configuration_with_workspace(
            fam, cat, &p, t_max, max_nodes, epsilon, seed, rule, 1, &mut ws,
        );
        let scalar = select_configuration_with_workspace(
            &ScalarOnly(fam),
            cat,
            &p,
            t_max,
            max_nodes,
            epsilon,
            seed,
            rule,
            1,
            &mut SelectionWorkspace::new(),
        );
        match (batched, scalar) {
            (Ok(b), Ok(s)) => {
                assert_eq!(&b, &s);
                // `==` on f64 admits 0.0 == -0.0; pin the exact bits too.
                assert_eq!(
                    b.chosen.predicted_secs.to_bits(),
                    s.chosen.predicted_secs.to_bits()
                );
                assert_eq!(
                    b.chosen.predicted_cost.to_bits(),
                    s.chosen.predicted_cost.to_bits()
                );
                for (x, y) in b.feasible.iter().zip(&s.feasible) {
                    assert_eq!(x.predicted_secs.to_bits(), y.predicted_secs.to_bits());
                    assert_eq!(x.predicted_cost.to_bits(), y.predicted_cost.to_bits());
                }
            }
            (
                Err(CoreError::NoFeasibleConfiguration {
                    t_max: tb,
                    best_predicted: bb,
                }),
                Err(CoreError::NoFeasibleConfiguration {
                    t_max: ts,
                    best_predicted: bs,
                }),
            ) => {
                assert_eq!(tb.to_bits(), ts.to_bits());
                assert_eq!(bb.to_bits(), bs.to_bits());
            }
            (b, s) => panic!("outcomes diverge: {b:?} vs {s:?}"),
        }
    });
}

/// The grid kernel itself: `predict_grid`'s member-major block equals
/// per-cell `predict_each` bitwise for arbitrary node runs.
#[test]
fn predict_grid_matches_predict_each() {
    cases(24, |rng| {
        let p = profile(rng.gen_range(60usize..420));
        let nodes: Vec<usize> = (1..=rng.gen_range(1usize..9)).collect();
        let (fam, cat) = family();
        let mut block = Vec::new();
        let mut scratch = GridScratch::new();
        for inst in cat.iter() {
            let members = fam
                .predict_grid(&p, inst, &nodes, &mut block, &mut scratch)
                .expect("trained");
            assert_eq!(block.len(), members * nodes.len());
            for (i, &n) in nodes.iter().enumerate() {
                let each = fam.predict_each(&p, inst, n).expect("trained");
                assert_eq!(each.len(), members);
                for (m, (_, want)) in each.iter().enumerate() {
                    assert_eq!(
                        block[m * nodes.len() + i].to_bits(),
                        want.to_bits(),
                        "member {m} diverges at n = {n} on {}",
                        inst.name
                    );
                }
            }
        }
    });
}
