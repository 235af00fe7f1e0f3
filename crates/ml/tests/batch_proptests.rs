//! The batched prediction kernels against the rows they batch.
//!
//! `Regressor::predict_batch` is each member's one prediction kernel, and
//! `Regressor::predict` is a batch of one row. A row's prediction must not
//! depend on the batch around it: for every member of the paper's model
//! family an n-row batch returns, slot for slot, the *same bits* as the n
//! one-row batches of its rows. These properties pin that across random
//! datasets, random query batches of widths 1 / 2 / 7 / 64, and
//! duplicate-heavy data where neighbour tie-breaks are the common case. The
//! MLP's 64-row blocked kernel is also held to its forward pass written one
//! row at a time (`mlp_forward`), and a model fitted on no columns answers
//! the empty row through the same kernel. The trees answer a grid column
//! (rows that differ in one feature) with one walk per tree, which random
//! rows never reach: a column case holds it to the one-row batches too.

use disar_math::check::cases;
use disar_math::rng::stream_rng;
use disar_ml::{
    Dataset, DecisionTable, FeatureMatrix, IbK, KStar, MlError, Mlp, ModelKind, PredictScratch,
    RandomForest, RandomTree, Regressor,
};

mod common;
use common::{any_dataset, any_tied_dataset};

/// The batch widths: degenerate, tiny, odd, and one full MLP block.
const BATCH_SIZES: [usize; 4] = [1, 2, 7, 64];

/// Deterministic query batch of `n` rows spanning well past the training
/// hull (so scaler clipping-free extrapolation paths are exercised too).
fn query_batch(dim: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = stream_rng(seed, 0xBA7C);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-200.0..200.0)).collect())
        .collect()
}

/// Runs `model` over the query batch of every width, reusing one scratch
/// (and one output buffer) across all batches the way the grid sweep does,
/// and hands each row with its batched prediction to `check`.
fn for_each_batched_row(
    model: &dyn Regressor,
    dim: usize,
    seed: u64,
    mut check: impl FnMut(usize, &[f64], f64),
) {
    let mut scratch = PredictScratch::new();
    let mut xs = FeatureMatrix::new();
    let mut out = Vec::new();
    for n in BATCH_SIZES {
        let queries = query_batch(dim, n, seed);
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
            check(n, q, got);
        }
    }
}

/// Asserts every row of every batch width has the bits of its own one-row
/// batch.
fn assert_rows_alone_match(model: &dyn Regressor, data: &Dataset, seed: u64) {
    for_each_batched_row(model, data.dim(), seed, |n, q, got| {
        let want = model.predict(q).expect("one-row batch");
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{}: batch width {n}, query {q:?}: batched {got} != alone {want}",
            model.name()
        );
    });
}

/// The MLP's forward pass one row at a time, written the plain way: the
/// standardized live columns into each hidden unit's sigmoid, the hidden
/// units into the linear output in unit order, un-scaled to a time.
fn mlp_forward(mlp: &Mlp, x: &[f64]) -> f64 {
    let f = mlp.network().expect("fitted");
    let (d, h) = (x.len(), f.w1.len());
    let xn = f.scaler.transform(x);
    let mut out = f.w2[h];
    for (hu, w) in f.w1.iter().enumerate() {
        let mut a = w[d];
        for &j in &f.live {
            a += w[j] * xn[j];
        }
        out += f.w2[hu] * (1.0 / (1.0 + (-a).exp()));
    }
    out * f.target_std + f.target_mean
}

/// The family's six members, as `default_family` builds them.
fn family(seed: u64) -> Vec<Box<dyn Regressor>> {
    vec![
        Box::new(Mlp::new(seed)),
        Box::new(RandomTree::new(seed)),
        Box::new(RandomForest::new(seed)),
        Box::new(IbK::new()),
        Box::new(KStar::new()),
        Box::new(DecisionTable::new()),
    ]
}

/// Every member's batch answers each row as its one-row batch does, and the
/// MLP's blocked kernel answers each row as its per-row forward pass does.
#[test]
fn members_batch_matches_one_row_batches() {
    cases(24, |rng| {
        let (data, seed) = (any_dataset(rng), rng.gen_range(0u64..1000));
        for mut m in family(seed) {
            m.fit(&data).expect("training succeeds");
            assert_rows_alone_match(m.as_ref(), &data, seed);
        }
        let mut mlp = Mlp::new(seed);
        mlp.fit(&data).expect("training succeeds");
        for_each_batched_row(&mlp, data.dim(), seed, |n, q, got| {
            let want = mlp_forward(&mlp, q);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "MLP: batch width {n}, query {q:?}: batched {got} != per-row {want}"
            );
        });
    });
}

/// Same property on duplicate-heavy data, where the kd-tree models'
/// lowest-row-index tie-breaks decide the neighbour sets.
#[test]
fn neighbour_models_batch_matches_one_row_batches_under_ties() {
    cases(24, |rng| {
        let (data, seed) = (any_tied_dataset(rng), rng.gen_range(0u64..1000));
        let models: Vec<Box<dyn Regressor>> = vec![Box::new(IbK::new()), Box::new(KStar::new())];
        for mut m in models {
            m.fit(&data).expect("training succeeds");
            assert_rows_alone_match(m.as_ref(), &data, seed);
        }
    });
}

#[test]
fn batch_errors_and_empty_batches() {
    let mut xs = FeatureMatrix::new();
    let mut scratch = PredictScratch::new();

    // Unfitted models refuse batches...
    xs.push_row(&[1.0]);
    let mut out = vec![0.0];
    for m in family(7) {
        assert!(matches!(
            m.predict_batch(&xs, &mut out, &mut scratch),
            Err(MlError::NotFitted)
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
            Err(MlError::BatchShapeMismatch { rows: 1, out: 0 })
        ));
        // ...a wrong-dimension batch is a dimension error...
        let mut wide = FeatureMatrix::new();
        wide.push_row(&[1.0, 2.0]);
        assert!(matches!(
            m.predict_batch(&wide, &mut out, &mut scratch),
            Err(MlError::FeatureDimensionMismatch {
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

/// A row without values is a batch of width 0: every member refuses it
/// unfitted or fitted on a column, and fitted on 12 rows without columns
/// (targets 0 to 11) answers it, alone and three to a batch, with the
/// values the members gave it before a one-row prediction was a batch.
#[test]
fn zero_width_rows_predict_through_the_batch() {
    let expected: [f64; 6] = [5.500742996501422, 5.5, 5.547170216951951, 1.0, 5.5, 5.5];
    let targets: Vec<f64> = (0..12).map(f64::from).collect();
    let one_column = Dataset::from_rows(
        vec!["x".into()],
        targets.iter().map(|&y| vec![y]).collect(),
        targets.clone(),
    )
    .expect("finite values");
    let no_columns =
        Dataset::from_rows(Vec::new(), vec![Vec::new(); 12], targets).expect("finite values");
    let mut xs = FeatureMatrix::new();
    for _ in 0..3 {
        xs.push_row(&[]);
    }
    for (kind, want) in ModelKind::ALL.into_iter().zip(expected) {
        let mut m = kind.instantiate(7);
        assert!(matches!(m.predict(&[]), Err(MlError::NotFitted)), "{kind}");
        m.fit(&one_column).expect("training succeeds");
        assert!(
            matches!(
                m.predict(&[]),
                Err(MlError::FeatureDimensionMismatch {
                    expected: 1,
                    got: 0
                })
            ),
            "{kind}"
        );
        let mut m = kind.instantiate(7);
        m.fit(&no_columns).expect("training succeeds");
        let alone = m.predict(&[]).expect("fitted on no columns");
        assert_eq!(alone.to_bits(), want.to_bits(), "{kind}: {alone}");
        let mut out = [f64::NAN; 3];
        m.predict_batch(&xs, &mut out, &mut PredictScratch::new())
            .expect("fitted on no columns");
        for y in out {
            assert_eq!(y.to_bits(), want.to_bits(), "{kind}: batched {y}");
        }
    }
}

/// A tied training alphabet: the trees' thresholds are the midpoints -3, 0,
/// 3 and 5 of neighbouring values.
const TREE_ALPHABET: [f64; 5] = [-4.0, -2.0, 2.0, 4.0, 6.0];

/// The values a column case draws: the alphabet, every threshold, both
/// zeros, and one value past each end.
const COLUMN_VALUES: [f64; 12] = [
    -5.0, -4.0, -3.0, -2.0, -0.0, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
];

/// The column widths: one row, a pair, odd, even, and a grid's longest
/// column.
const COLUMN_WIDTHS: [usize; 5] = [1, 2, 7, 8, 64];

/// RT and RF answer a base row with one varying column, drawn with ties,
/// ±0.0, values on the thresholds and in any order, as they answer each of
/// its rows alone; so do an ascending column, an all-equal batch, and the
/// two shapes that fall back to the per-row path: a NaN in the varying
/// column and a second varying column.
#[test]
fn trees_answer_a_column_as_its_rows_alone() {
    cases(24, |rng| {
        let (dim, n) = (rng.gen_range(2usize..5), rng.gen_range(8usize..40));
        let mut pick = |values: &[f64]| values[rng.gen_range(0..values.len())];
        let rows = (0..n)
            .map(|_| (0..dim).map(|_| pick(&TREE_ALPHABET)).collect())
            .collect();
        let ys = (0..n).map(|_| pick(&[-3.0, 1.0, 10.0, 250.0])).collect();
        let names = (0..dim).map(|i| format!("f{i}")).collect();
        let data = Dataset::from_rows(names, rows, ys).expect("finite values");

        let base: Vec<f64> = (0..dim).map(|_| pick(&COLUMN_VALUES)).collect();
        let j = rng.gen_range(0..dim);
        let mut column = |width: usize| -> Vec<Vec<f64>> {
            (0..width)
                .map(|_| {
                    let mut row = base.clone();
                    row[j] = COLUMN_VALUES[rng.gen_range(0..COLUMN_VALUES.len())];
                    row
                })
                .collect()
        };
        let mut batches: Vec<Vec<Vec<f64>>> = COLUMN_WIDTHS.iter().map(|&w| column(w)).collect();
        let mut ascending = column(64);
        ascending.sort_by(|a, b| a[j].total_cmp(&b[j]));
        let mut nan = column(8);
        nan[3][j] = f64::NAN;
        let mut two = column(8);
        let k = (j + 1) % dim;
        (two[0][k], two[5][k]) = (-5.0, 7.0);
        batches.extend([ascending, vec![base.clone(); 8], nan, two]);

        let seed = rng.gen_range(0u64..1000);
        let trees: [Box<dyn Regressor>; 2] = [
            Box::new(RandomTree::new(seed)),
            Box::new(RandomForest::new(seed)),
        ];
        for mut m in trees {
            m.fit(&data).expect("training succeeds");
            let mut scratch = PredictScratch::new();
            for batch in &batches {
                let mut xs = FeatureMatrix::new();
                for row in batch {
                    xs.push_row(row);
                }
                let mut out = vec![f64::NAN; batch.len()];
                m.predict_batch(&xs, &mut out, &mut scratch)
                    .expect("fitted model accepts a well-shaped batch");
                for (row, got) in batch.iter().zip(out) {
                    let want = m.predict(row).expect("one-row batch");
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{}: column {j} of width {}, row {row:?}: batched {got} != alone {want}",
                        m.name(),
                        batch.len()
                    );
                }
            }
        }
    });
}
