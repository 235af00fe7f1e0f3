//! K-fold cross-validation and CV-driven hyper-parameter selection.
//!
//! Weka's evaluation panel defaults to 10-fold cross-validation and its
//! `IBk -X` option picks `k` by hold-one-out validation; this module
//! provides both so the provisioner can be tuned the same way the paper's
//! Weka setup would have been.

use crate::dataset::Dataset;
use crate::ibk::IbK;
use crate::metrics::evaluate;
use crate::regressor::Regressor;
use crate::MlError;
use disar_math::rng::stream_rng;
use disar_math::stats;

/// Result of a k-fold cross-validation.
#[derive(Debug, Clone, PartialEq)]
pub struct CrossValidation {
    /// Number of folds.
    pub folds: usize,
    /// RMSE of each fold.
    pub fold_rmse: Vec<f64>,
    /// Mean RMSE across folds.
    pub mean_rmse: f64,
    /// Mean signed bias across folds.
    pub mean_bias: f64,
}

/// Partitions `0..n` into `k` disjoint folds of near-equal size, shuffled
/// deterministically by `seed`.
///
/// # Errors
///
/// Returns [`MlError::InvalidHyperparameter`] unless `2 <= k <= n`.
pub fn kfold_indices(n: usize, k: usize, seed: u64) -> Result<Vec<Vec<usize>>, MlError> {
    if k < 2 || k > n {
        return Err(MlError::InvalidHyperparameter("need 2 <= folds <= n"));
    }
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = stream_rng(seed, 0xF01D);
    rng.shuffle(&mut idx);
    let mut folds = vec![Vec::new(); k];
    for (pos, i) in idx.into_iter().enumerate() {
        folds[pos % k].push(i);
    }
    Ok(folds)
}

/// Cross-validates a model family: `make_model(fold)` builds a fresh
/// untrained model per fold, which is fitted on the other folds and scored
/// on the held-out one.
///
/// # Errors
///
/// Propagates fold-construction, training and evaluation failures.
pub fn cross_validate<F>(
    data: &Dataset,
    k: usize,
    seed: u64,
    mut make_model: F,
) -> Result<CrossValidation, MlError>
where
    F: FnMut(usize) -> Box<dyn Regressor>,
{
    let folds = kfold_indices(data.len(), k, seed)?;
    let mut fold_rmse = Vec::with_capacity(k);
    let mut biases = Vec::with_capacity(k);
    for (f, test_idx) in folds.iter().enumerate() {
        let in_test = |i: usize| test_idx.contains(&i);
        let train = data.filter(|i| !in_test(i));
        let test = data.filter(in_test);
        let mut model = make_model(f);
        model.fit(&train)?;
        let ev = evaluate(model.as_ref(), &test)?;
        fold_rmse.push(ev.rmse);
        biases.push(ev.bias);
    }
    Ok(CrossValidation {
        folds: k,
        mean_rmse: stats::mean(&fold_rmse),
        mean_bias: stats::mean(&biases),
        fold_rmse,
    })
}

/// Picks the `k` for [`IbK`] minimizing cross-validated RMSE over the
/// candidate list (Weka's `-X` in spirit).
///
/// # Errors
///
/// Returns [`MlError::InvalidHyperparameter`] for an empty candidate list
/// and propagates CV failures.
pub fn select_k_for_ibk(
    data: &Dataset,
    candidates: &[usize],
    folds: usize,
    seed: u64,
) -> Result<usize, MlError> {
    if candidates.is_empty() {
        return Err(MlError::InvalidHyperparameter("no candidate k values"));
    }
    let mut best: Option<(f64, usize)> = None;
    for &k in candidates {
        if k == 0 {
            return Err(MlError::InvalidHyperparameter("k must be > 0"));
        }
        let cv = cross_validate(data, folds, seed, |_| Box::new(IbK::new(k)))?;
        if best.is_none_or(|(r, _)| cv.mean_rmse < r) {
            best = Some((cv.mean_rmse, k));
        }
    }
    Ok(best.expect("candidates non-empty").1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RandomTree;

    fn noisy_linear(n: usize) -> Dataset {
        use disar_math::rng::{stream_rng, StandardNormal};
        let mut rng = stream_rng(4, 0);
        let mut g = StandardNormal::new();
        let mut d = Dataset::new(vec!["x".into()]);
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..10.0);
            d.push(vec![x], 3.0 * x + g.sample(&mut rng)).unwrap();
        }
        d
    }

    #[test]
    fn folds_partition_everything() {
        let folds = kfold_indices(103, 10, 5).unwrap();
        assert_eq!(folds.len(), 10);
        let mut all: Vec<usize> = folds.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..103).collect::<Vec<_>>());
        // Near-equal sizes.
        let sizes: Vec<usize> = folds.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn fold_bounds_validated() {
        assert!(kfold_indices(10, 1, 0).is_err());
        assert!(kfold_indices(10, 11, 0).is_err());
        assert!(kfold_indices(10, 10, 0).is_ok());
    }

    #[test]
    fn cv_scores_are_sane() {
        let d = noisy_linear(200);
        let cv = cross_validate(&d, 5, 1, |f| Box::new(RandomTree::with_defaults(f as u64)))
            .unwrap();
        assert_eq!(cv.fold_rmse.len(), 5);
        assert!(cv.mean_rmse > 0.0);
        // Noise sd is 1.0; a tree should get within a small multiple.
        assert!(cv.mean_rmse < 5.0, "rmse {}", cv.mean_rmse);
        assert!(cv.mean_bias.abs() < 1.0);
    }

    #[test]
    fn cv_is_deterministic() {
        let d = noisy_linear(120);
        let a = cross_validate(&d, 4, 9, |_| Box::new(IbK::new(3))).unwrap();
        let b = cross_validate(&d, 4, 9, |_| Box::new(IbK::new(3))).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn k_selection_prefers_smoothing_under_noise() {
        // With unit noise on a linear signal, k = 1 memorizes noise; CV
        // should prefer a larger k.
        let d = noisy_linear(300);
        let k = select_k_for_ibk(&d, &[1, 5, 15], 5, 2).unwrap();
        assert!(k > 1, "selected k = {k}");
    }

    #[test]
    fn k_selection_validates() {
        let d = noisy_linear(50);
        assert!(select_k_for_ibk(&d, &[], 5, 0).is_err());
        assert!(select_k_for_ibk(&d, &[0], 5, 0).is_err());
    }
}
