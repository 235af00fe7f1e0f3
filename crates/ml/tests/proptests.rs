//! Property-based tests of the ML substrate.

use disar_ml::regressor::ModelKind;
use disar_ml::{Dataset, Ensemble, IbK, IncrementalRegressor, KStar, Regressor, Scaler};
use proptest::prelude::*;

/// Strategy: a random regression dataset with 1–3 features.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
    (1usize..4, 5usize..40).prop_flat_map(|(dim, n)| {
        (
            prop::collection::vec(
                prop::collection::vec(-100.0f64..100.0, dim..=dim),
                n..=n,
            ),
            prop::collection::vec(-1000.0f64..1000.0, n..=n),
        )
            .prop_map(move |(rows, ys)| {
                let names = (0..dim).map(|i| format!("f{i}")).collect();
                Dataset::from_rows(names, rows, ys).expect("finite values")
            })
    })
}

/// Strategy: a duplicate-heavy dataset (tiny value alphabet), so neighbour
/// ties — where the lowest-row-index tie-break matters — are the common
/// case rather than the corner case.
fn tied_dataset_strategy() -> impl Strategy<Value = Dataset> {
    (1usize..3, 6usize..32).prop_flat_map(|(dim, n)| {
        (
            prop::collection::vec(prop::collection::vec(0i32..4, dim..=dim), n..=n),
            prop::collection::vec(0i32..3, n..=n),
        )
            .prop_map(move |(rows, ys)| {
                let names = (0..dim).map(|i| format!("f{i}")).collect();
                let rows = rows
                    .into_iter()
                    .map(|r| r.into_iter().map(f64::from).collect())
                    .collect();
                let ys = ys.into_iter().map(f64::from).collect();
                Dataset::from_rows(names, rows, ys).expect("finite values")
            })
    })
}

/// The `..split` prefix of a dataset.
fn prefix_of(data: &Dataset, split: usize) -> Dataset {
    Dataset::from_rows(
        data.feature_names().to_vec(),
        data.rows()[..split].to_vec(),
        data.targets()[..split].to_vec(),
    )
    .expect("prefix is consistent")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every instance-based / tree model predicts within the convex hull
    /// of the training targets (they only average observed targets).
    #[test]
    fn hull_bound_for_averaging_models(data in dataset_strategy(), qseed in 0u64..100) {
        use disar_math::rng::stream_rng;
        let lo = data.targets().iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.targets().iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut rng = stream_rng(qseed, 0);
        let q: Vec<f64> = (0..data.dim()).map(|_| rng.gen_range(-200.0..200.0)).collect();
        for kind in [ModelKind::RandomTree, ModelKind::RandomForest, ModelKind::IbK, ModelKind::KStar, ModelKind::DecisionTable] {
            let mut m = kind.instantiate(1);
            m.fit(&data).expect("training succeeds");
            let y = m.predict(&q).expect("fitted");
            prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9, "{kind}: {y} outside [{lo}, {hi}]");
        }
    }

    /// The dataset split partitions rows exactly.
    #[test]
    fn split_partitions(data in dataset_strategy(), frac in 0.1f64..0.9, seed in 0u64..100) {
        prop_assume!(data.len() >= 2);
        let (train, test) = data.split(frac, seed).expect("valid split");
        prop_assert_eq!(train.len() + test.len(), data.len());
        prop_assert!(!train.is_empty() && !test.is_empty());
        let mut all: Vec<f64> = train.targets().iter().chain(test.targets()).copied().collect();
        let mut orig: Vec<f64> = data.targets().to_vec();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        orig.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        prop_assert_eq!(all, orig);
    }

    /// Scaler maps every training row into [0, 1] exactly.
    #[test]
    fn scaler_unit_interval(data in dataset_strategy()) {
        let s = Scaler::fit(&data).expect("non-empty");
        for row in data.rows() {
            for v in s.transform(row) {
                prop_assert!((-1e-12..=1.0 + 1e-12).contains(&v));
            }
        }
    }

    /// The ensemble mean is bounded by its members' extremes.
    #[test]
    fn ensemble_between_members(data in dataset_strategy(), qseed in 0u64..100) {
        use disar_math::rng::stream_rng;
        let mut members: Vec<Box<dyn Regressor>> = vec![
            ModelKind::IbK.instantiate(1),
            ModelKind::RandomTree.instantiate(2),
            ModelKind::DecisionTable.instantiate(3),
        ];
        for m in &mut members {
            m.fit(&data).expect("training succeeds");
        }
        let mut rng = stream_rng(qseed, 1);
        let q: Vec<f64> = (0..data.dim()).map(|_| rng.gen_range(-150.0..150.0)).collect();
        let preds: Vec<f64> = members.iter().map(|m| m.predict(&q).expect("fitted")).collect();
        let lo = preds.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = preds.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut ens = Ensemble::new(members);
        ens.fit(&data).expect("training succeeds");
        let y = ens.predict(&q).expect("fitted");
        prop_assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
    }

    /// Refitting on the same data is idempotent for deterministic models.
    #[test]
    fn deterministic_models_idempotent_refit(data in dataset_strategy(), qseed in 0u64..50) {
        use disar_math::rng::stream_rng;
        let mut rng = stream_rng(qseed, 2);
        let q: Vec<f64> = (0..data.dim()).map(|_| rng.gen_range(-150.0..150.0)).collect();
        for kind in [ModelKind::IbK, ModelKind::KStar, ModelKind::DecisionTable] {
            let mut m = kind.instantiate(7);
            m.fit(&data).expect("training succeeds");
            let y1 = m.predict(&q).expect("fitted");
            m.fit(&data).expect("training succeeds");
            let y2 = m.predict(&q).expect("fitted");
            prop_assert_eq!(y1, y2, "{} refit changed prediction", kind);
        }
    }

    /// Fitting a prefix and `partial_fit`-ing the rest is bit-identical to
    /// a from-scratch `fit` for both incremental models — on tie-heavy data
    /// where the lowest-row-index neighbour tie-break is load-bearing.
    #[test]
    fn partial_fit_bit_identical_to_full_fit(
        data in tied_dataset_strategy(),
        split_ppm in 0u32..1_000_000,
    ) {
        let split = 1 + split_ppm as usize * (data.len() - 1) / 1_000_000;
        let prefix = prefix_of(&data, split);

        let mut full_ibk = IbK::new(3);
        full_ibk.fit(&data).expect("fits");
        let mut inc_ibk = IbK::new(3);
        inc_ibk.fit(&prefix).expect("fits");
        inc_ibk.partial_fit(&data, split).expect("prefix extends");
        prop_assert_eq!(inc_ibk.fitted_len(), data.len());

        let mut full_ks = KStar::new(20.0);
        full_ks.fit(&data).expect("fits");
        let mut inc_ks = KStar::new(20.0);
        inc_ks.fit(&prefix).expect("fits");
        inc_ks.partial_fit(&data, split).expect("prefix extends");
        prop_assert_eq!(inc_ks.fitted_len(), data.len());

        for q in data.rows() {
            let a = full_ibk.predict(q).expect("fitted");
            let b = inc_ibk.predict(q).expect("fitted");
            prop_assert_eq!(a.to_bits(), b.to_bits(), "IBk diverges at {:?}", q);
            let a = full_ks.predict(q).expect("fitted");
            let b = inc_ks.predict(q).expect("fitted");
            prop_assert_eq!(a.to_bits(), b.to_bits(), "KStar diverges at {:?}", q);
        }
    }

    /// IBk's indexed prediction is bit-identical to the linear-scan
    /// reference — same neighbours, same tie-breaks — for on-grid queries
    /// (exact ties everywhere) and off-grid ones.
    #[test]
    fn ibk_index_matches_linear_scan(
        data in tied_dataset_strategy(),
        k in 1usize..6,
        qseed in 0u64..100,
    ) {
        use disar_math::rng::stream_rng;
        let mut m = IbK::new(k);
        m.fit(&data).expect("fits");
        let mut rng = stream_rng(qseed, 4);
        let off_grid: Vec<Vec<f64>> = (0..8)
            .map(|_| (0..data.dim()).map(|_| rng.gen_range(-1.0..5.0)).collect())
            .collect();
        for q in data.rows().iter().chain(&off_grid) {
            let indexed = m.predict(q).expect("fitted");
            let linear = m.predict_linear(q).expect("fitted");
            prop_assert_eq!(indexed.to_bits(), linear.to_bits(), "diverges at {:?}", q);
        }
    }

    /// All six models tolerate constant-target datasets and reproduce the
    /// constant (within loose tolerance for the MLP).
    #[test]
    fn constant_target_recovered(c in -100.0f64..100.0, n in 5usize..25) {
        let rows: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
        let data = Dataset::from_rows(vec!["x".into()], rows, vec![c; n]).expect("finite");
        for kind in ModelKind::ALL {
            let mut m = kind.instantiate(3);
            m.fit(&data).expect("training succeeds");
            let y = m.predict(&[(n / 2) as f64]).expect("fitted");
            let tol = if kind == ModelKind::Mlp { 1.0 + 0.05 * c.abs() } else { 1e-6 };
            prop_assert!((y - c).abs() <= tol, "{kind}: {y} vs constant {c}");
        }
    }
}
