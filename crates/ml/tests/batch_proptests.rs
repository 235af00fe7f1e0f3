//! Bit-identity of the batched prediction kernels.
//!
//! `Regressor::predict_batch` exists purely for speed: for every member of
//! the paper's model family it must return, slot for slot, the *same bits*
//! as the scalar `Regressor::predict` on the same row. These properties pin
//! that contract across random datasets, random query batches of widths
//! 1 / 2 / 7 / 64, and duplicate-heavy data where neighbour tie-breaks are
//! the common case.

use disar_math::check::cases;
use disar_math::rng::stream_rng;
use disar_ml::ibk::Weighting;
use disar_ml::{
    Dataset, DecisionTable, FeatureMatrix, IbK, KStar, Mlp, PredictScratch, RandomForest,
    RandomTree, Regressor,
};

mod common;
use common::{any_dataset, any_tied_dataset};

/// The ISSUE batch widths: degenerate, tiny, odd, and one full MLP block.
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 64];

/// Deterministic query batch of `n` rows spanning well past the training
/// hull (so scaler clipping-free extrapolation paths are exercised too).
fn query_batch(dim: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = stream_rng(seed, 0xBA7C);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-200.0..200.0)).collect())
        .collect()
}

/// Asserts `predict_batch` matches `predict` bit for bit on every row, for
/// every batch width, reusing one scratch (and one output buffer) across
/// all batches the way the grid sweep does.
fn assert_bit_identical(model: &dyn Regressor, data: &Dataset, seed: u64) {
    let mut scratch = PredictScratch::new();
    let mut xs = FeatureMatrix::new();
    let mut out = Vec::new();
    for n in BATCH_SIZES {
        let queries = query_batch(data.dim(), n, seed);
        xs.clear();
        for q in &queries {
            xs.push_row(q);
        }
        out.clear();
        out.resize(n, f64::NAN);
        model
            .predict_batch(&xs, &mut out, &mut scratch)
            .expect("fitted model accepts a well-shaped batch");
        for (q, &got) in queries.iter().zip(&out) {
            let want = model.predict(q).expect("scalar path");
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{}: batch width {n}, query {q:?}: batched {got} != scalar {want}",
                model.name()
            );
        }
    }
}

/// The family members with hand-tuned cheap hyper-parameters (the MLP in
/// particular trains with a reduced epoch budget — bit-identity holds for
/// any fitted weights).
fn family(seed: u64) -> Vec<Box<dyn Regressor>> {
    vec![
        Box::new(Mlp::new(3, 0.3, 0.2, 20, seed).expect("valid mlp")),
        Box::new(RandomTree::with_defaults(seed)),
        Box::new(RandomForest::new(8, 1, 64, seed).expect("valid forest")),
        Box::new(IbK::new(3)),
        Box::new(IbK::with_weighting(2, Weighting::InverseDistance).expect("valid ibk")),
        Box::new(KStar::new(20.0)),
        Box::new(DecisionTable::with_defaults()),
    ]
}

/// Every member's batched kernel is bit-identical to its scalar path.
#[test]
fn members_batch_matches_scalar() {
    cases(24, |rng| {
        let (data, seed) = (any_dataset(rng), rng.gen_range(0u64..1000));
        for mut m in family(seed) {
            m.fit(&data).expect("training succeeds");
            assert_bit_identical(m.as_ref(), &data, seed);
        }
    });
}

/// Same property on duplicate-heavy data, where the kd-tree models'
/// lowest-row-index tie-breaks decide the neighbour sets.
#[test]
fn neighbour_models_batch_matches_scalar_under_ties() {
    cases(24, |rng| {
        let (data, seed) = (any_tied_dataset(rng), rng.gen_range(0u64..1000));
        let models: Vec<Box<dyn Regressor>> = vec![
            Box::new(IbK::new(3)),
            Box::new(IbK::with_weighting(4, Weighting::InverseDistance).expect("valid ibk")),
            Box::new(KStar::new(0.0)),
            Box::new(KStar::new(20.0)),
        ];
        for mut m in models {
            m.fit(&data).expect("training succeeds");
            assert_bit_identical(m.as_ref(), &data, seed);
        }
    });
}

#[test]
fn batch_errors_and_empty_batches() {
    let mut xs = FeatureMatrix::new();
    let mut scratch = PredictScratch::new();

    // Unfitted models refuse batches just like scalar predict...
    xs.push_row(&[1.0]);
    let mut out = vec![0.0];
    for m in family(7) {
        assert!(matches!(
            m.predict_batch(&xs, &mut out, &mut scratch),
            Err(disar_ml::MlError::NotFitted)
        ));
    }

    let mut d = Dataset::new(vec!["x".into()]);
    for i in 0..12 {
        d.push(vec![i as f64], i as f64).unwrap();
    }
    for mut m in family(7) {
        m.fit(&d).expect("training succeeds");
        // ...a mis-sized output slice is a shape error...
        let mut short = vec![0.0; 0];
        assert!(matches!(
            m.predict_batch(&xs, &mut short, &mut scratch),
            Err(disar_ml::MlError::BatchShapeMismatch { rows: 1, out: 0 })
        ));
        // ...a wrong-dimension batch is a dimension error...
        let mut wide = FeatureMatrix::new();
        wide.push_row(&[1.0, 2.0]);
        assert!(matches!(
            m.predict_batch(&wide, &mut out, &mut scratch),
            Err(disar_ml::MlError::FeatureDimensionMismatch {
                expected: 1,
                got: 2
            })
        ));
        // ...and the empty batch succeeds as a no-op.
        let empty = FeatureMatrix::new();
        let mut none: Vec<f64> = Vec::new();
        m.predict_batch(&empty, &mut none, &mut scratch)
            .expect("empty batch is a no-op");
    }
}
