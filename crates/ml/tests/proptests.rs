//! Property tests of the ML substrate.

use disar_math::check::cases;
use disar_math::rng::Xoshiro256PlusPlus;
use disar_ml::regressor::ModelKind;
use disar_ml::{
    Dataset, FeatureMatrix, IbK, IncrementalRegressor, KStar, PredictScratch, Regressor, Scaler,
};

mod common;
use common::{any_dataset, any_tied_dataset};

/// The `..split` prefix of a dataset.
fn prefix_of(data: &Dataset, split: usize) -> Dataset {
    Dataset::from_rows(
        data.feature_names().to_vec(),
        data.rows()[..split].to_vec(),
        data.targets()[..split].to_vec(),
    )
    .expect("prefix is consistent")
}

/// A query of `dim` coordinates in `±span`.
fn any_query(rng: &mut Xoshiro256PlusPlus, dim: usize, span: f64) -> Vec<f64> {
    (0..dim).map(|_| rng.gen_range(-span..span)).collect()
}

/// Every instance-based / tree model predicts within the convex hull of the
/// training targets (they only average observed targets).
#[test]
fn hull_bound_for_averaging_models() {
    cases(64, |rng| {
        let data = any_dataset(rng);
        let lo = data.targets().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data
            .targets()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let q = any_query(rng, data.dim(), 200.0);
        for kind in [
            ModelKind::RandomTree,
            ModelKind::RandomForest,
            ModelKind::IbK,
            ModelKind::KStar,
            ModelKind::DecisionTable,
        ] {
            let mut m = kind.instantiate(1);
            m.fit(&data).expect("training succeeds");
            let y = m.predict(&q).expect("fitted");
            assert!(
                y >= lo - 1e-9 && y <= hi + 1e-9,
                "{kind}: {y} outside [{lo}, {hi}]"
            );
        }
    });
}

/// The dataset split partitions rows exactly.
#[test]
fn split_partitions() {
    cases(64, |rng| {
        let data = any_dataset(rng);
        let (frac, seed) = (rng.gen_range(0.1..0.9), rng.gen_range(0u64..100));
        let (train, test) = data.split(frac, seed).expect("valid split");
        assert_eq!(train.len() + test.len(), data.len());
        assert!(!train.is_empty() && !test.is_empty());
        let mut all: Vec<f64> = train
            .targets()
            .iter()
            .chain(test.targets())
            .copied()
            .collect();
        let mut orig: Vec<f64> = data.targets().to_vec();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        orig.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert_eq!(all, orig);
    });
}

/// Scaler maps every training row into [0, 1] exactly.
#[test]
fn scaler_unit_interval() {
    cases(64, |rng| {
        let data = any_dataset(rng);
        let s = Scaler::fit(&data).expect("non-empty");
        for row in data.rows() {
            for v in s.transform(row) {
                assert!((-1e-12..=1.0 + 1e-12).contains(&v));
            }
        }
    });
}

/// Refitting on the same data is idempotent for deterministic models.
#[test]
fn deterministic_models_idempotent_refit() {
    cases(64, |rng| {
        let data = any_dataset(rng);
        let q = any_query(rng, data.dim(), 150.0);
        for kind in [ModelKind::IbK, ModelKind::KStar, ModelKind::DecisionTable] {
            let mut m = kind.instantiate(7);
            m.fit(&data).expect("training succeeds");
            let y1 = m.predict(&q).expect("fitted");
            m.fit(&data).expect("training succeeds");
            let y2 = m.predict(&q).expect("fitted");
            assert_eq!(y1, y2, "{kind} refit changed prediction");
        }
    });
}

/// Fitting a prefix and `partial_fit`-ing the rest is bit-identical to a
/// from-scratch `fit` for both incremental models — on tie-heavy data where
/// the lowest-row-index neighbour tie-break is load-bearing.
#[test]
fn partial_fit_bit_identical_to_full_fit() {
    cases(64, |rng| {
        let data = any_tied_dataset(rng);
        let split = rng.gen_range(1..data.len());
        let prefix = prefix_of(&data, split);

        let mut full_ibk = IbK::new();
        full_ibk.fit(&data).expect("fits");
        let mut inc_ibk = IbK::new();
        inc_ibk.fit(&prefix).expect("fits");
        inc_ibk.partial_fit(&data, split).expect("prefix extends");
        assert_eq!(inc_ibk.fitted_len(), data.len());

        let mut full_ks = KStar::new();
        full_ks.fit(&data).expect("fits");
        let mut inc_ks = KStar::new();
        inc_ks.fit(&prefix).expect("fits");
        inc_ks.partial_fit(&data, split).expect("prefix extends");
        assert_eq!(inc_ks.fitted_len(), data.len());

        for q in data.rows() {
            let a = full_ibk.predict(q).expect("fitted");
            let b = inc_ibk.predict(q).expect("fitted");
            assert_eq!(a.to_bits(), b.to_bits(), "IBk diverges at {q:?}");
            let a = full_ks.predict(q).expect("fitted");
            let b = inc_ks.predict(q).expect("fitted");
            assert_eq!(a.to_bits(), b.to_bits(), "KStar diverges at {q:?}");
        }
    });
}

/// IBk's batch is its early-abandon row loop, bit for bit, and each row's
/// one-row batch: the same neighbours, in the same order, with the same
/// tie-breaks. Duplicate-heavy stores with one dead column; grid columns that
/// vary in the first, a middle, the last and the dead feature, so the batch
/// shares the terms of the features before the varying one; a batch of store
/// rows and off-grid rows, which is no column; NaN query values: in a live
/// column of a whole grid column and of one row (every distance NaN, so the
/// row loop answers), and in the dead column (standardized to 0); and an
/// infinite one, at which every distance ties at infinity.
#[test]
fn ibk_batch_matches_the_row_loop() {
    cases(64, |rng| {
        let (dim, n) = (rng.gen_range(3usize..6), rng.gen_range(4usize..40));
        let dead = rng.gen_range(0..dim);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..dim)
                    .map(|j| {
                        if j == dead {
                            2.0
                        } else {
                            f64::from(rng.gen_range(0i32..4))
                        }
                    })
                    .collect()
            })
            .collect();
        let ys = (0..n).map(|_| f64::from(rng.gen_range(0i32..3))).collect();
        let names = (0..dim).map(|i| format!("f{i}")).collect();
        let data = Dataset::from_rows(names, rows, ys).expect("finite values");
        let mut m = IbK::new();
        m.fit(&data).expect("fits");

        let off_grid = |rng: &mut Xoshiro256PlusPlus| -> Vec<f64> {
            (0..dim).map(|_| rng.gen_range(-1.0..5.0)).collect()
        };
        let base = if rng.gen_bool(0.5) {
            data.rows()[rng.gen_range(0..n)].clone()
        } else {
            off_grid(rng)
        };
        let column = |v: usize| -> Vec<Vec<f64>> {
            (0..8)
                .map(|i| {
                    let mut row = base.clone();
                    row[v] = f64::from(i) * 0.5 - 0.5;
                    row
                })
                .collect()
        };
        let mut batches: Vec<Vec<Vec<f64>>> = [0, dim / 2, dim - 1, dead]
            .into_iter()
            .map(column)
            .collect();
        let mut mixed: Vec<Vec<f64>> = data.rows().iter().take(5).cloned().collect();
        mixed.extend((0..3).map(|_| off_grid(rng)));
        batches.push(mixed.clone());
        let (v, live) = (dim - 1 - usize::from(dead == dim - 1), (dead + 1) % dim);
        for w in [live, dead] {
            let mut shared_nan = column(if w == v { (w + 1) % dim } else { v });
            for row in &mut shared_nan {
                row[w] = f64::NAN;
            }
            batches.push(shared_nan);
        }
        mixed[2][live] = f64::NAN;
        mixed[4][live] = f64::INFINITY;
        batches.push(mixed);

        let mut scratch = PredictScratch::new();
        for batch in &batches {
            let mut xs = FeatureMatrix::new();
            for row in batch {
                xs.push_row(row);
            }
            let mut out = vec![0.0; batch.len()];
            m.predict_batch(&xs, &mut out, &mut scratch)
                .expect("fitted");
            for (q, got) in batch.iter().zip(out) {
                let linear = m.predict_linear(q).expect("fitted");
                let alone = m.predict(q).expect("fitted");
                assert_eq!(
                    got.to_bits(),
                    linear.to_bits(),
                    "batch vs row loop at {q:?}"
                );
                assert_eq!(
                    alone.to_bits(),
                    linear.to_bits(),
                    "one row vs row loop at {q:?}"
                );
            }
        }
    });
}

/// All six models tolerate constant-target datasets and reproduce the
/// constant (within loose tolerance for the MLP).
#[test]
fn constant_target_recovered() {
    cases(64, |rng| {
        let (c, n): (f64, usize) = (rng.gen_range(-100.0..100.0), rng.gen_range(5..25));
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let data = Dataset::from_rows(vec!["x".into()], rows, vec![c; n]).expect("finite");
        for kind in ModelKind::ALL {
            let mut m = kind.instantiate(3);
            m.fit(&data).expect("training succeeds");
            let y = m.predict(&[(n / 2) as f64]).expect("fitted");
            let tol = if kind == ModelKind::Mlp {
                1.0 + 0.05 * c.abs()
            } else {
                1e-6
            };
            assert!((y - c).abs() <= tol, "{kind}: {y} vs constant {c}");
        }
    });
}
