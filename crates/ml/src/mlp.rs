//! Multi-Layer Perceptron regressor.
//!
//! Mirrors Weka's `MultilayerPerceptron` defaults, which are its only
//! settings: one hidden layer with `(attributes + classes) / 2` sigmoid units
//! (at least 2), a linear output unit for regression, stochastic gradient
//! descent with learning rate 0.3 and momentum 0.2, 500 training epochs, and
//! min–max normalization of the inputs. Targets are standardized internally
//! and predictions un-scaled on the way out.
//!
//! [`Regressor::fit`] always starts from freshly drawn weights.
//! [`Regressor::fit_appended`], the retrain after the training set grew by
//! appending rows to the exact prefix the last fit covered, continues from
//! the last fit's weights instead, for `WARM_EPOCHS` epochs, when that fit
//! covered at least `WARM_MIN_ROWS` rows. It first re-expresses the old
//! network under the grown set's min–max scaler and target mean and
//! standard deviation, so that before any epoch runs it computes the
//! function the old fit computed: a first-layer weight is multiplied by
//! `range_new / range_old` and the shift of the column's minimum is folded
//! into the unit's bias; a column that was constant and now varies starts
//! at weight 0; the output weights are multiplied by `std_old / std_new`
//! and the output bias is re-centred on the new mean. The epochs then run
//! as a cold fit's do, with the learning rate decayed over the shorter
//! budget, and their shuffles come from a stream that depends on the seed
//! and the row count alone. A continued model is therefore a pure function
//! of the sequence of training sets it was fitted on, but not the model a
//! cold fit on the last set would give.

use crate::batch::{check_out_len, FeatureMatrix, PredictScratch};
use crate::dataset::{Dataset, Scaler};
use crate::regressor::Regressor;
use crate::MlError;
use disar_math::rng::{split_seed, stream_rng};

/// SGD's learning rate, decayed over the epochs.
const LEARNING_RATE: f64 = 0.3;
/// SGD's momentum.
const MOMENTUM: f64 = 0.2;
/// Epochs of a cold fit.
const EPOCHS: usize = 500;
/// Epochs of a continuation ([`Regressor::fit_appended`]).
const WARM_EPOCHS: usize = 10;
/// The fewest rows a fit must have covered to be continued: the paper's
/// bootstrap size, below which predictions are not trusted. A smaller fit is
/// cheap to redo from scratch and worth little as a start.
const WARM_MIN_ROWS: usize = 30;

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

/// The hidden-layer width for `dim` attributes (Weka's "a" wildcard).
fn hidden_units(dim: usize) -> usize {
    dim.div_ceil(2).max(2)
}

/// A fitted network ([`Mlp::network`]).
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct Fitted {
    /// The number of training rows: a continuation needs the grown set to
    /// extend exactly these.
    rows: usize,
    pub scaler: Scaler,
    /// The columns that vary over the training rows, ascending: the only
    /// ones a fit or a prediction reads.
    pub live: Vec<usize>,
    pub target_mean: f64,
    pub target_std: f64,
    /// `w1[h][j]` — weight from input `j` to hidden unit `h`; last entry of
    /// each row is the bias.
    pub w1: Vec<Vec<f64>>,
    /// Weight from hidden unit `h` to the output; last entry is the bias.
    pub w2: Vec<f64>,
}

/// A single-hidden-layer perceptron with sigmoid hidden units and a linear
/// output, trained by SGD with momentum.
///
/// # Example
///
/// ```
/// use disar_ml::{Dataset, Mlp, Regressor};
///
/// let mut data = Dataset::new(vec!["x".into()]);
/// for i in 0..50 {
///     data.push(vec![i as f64], 3.0 * i as f64).unwrap();
/// }
/// let mut mlp = Mlp::new(42);
/// mlp.fit(&data).unwrap();
/// let y = mlp.predict(&[25.0]).unwrap();
/// assert!((y - 75.0).abs() < 15.0);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    seed: u64,
    fitted: Option<Fitted>,
}

impl Mlp {
    /// An unfitted MLP whose weights and shuffles are drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        Mlp { seed, fitted: None }
    }

    /// The fitted network, `None` before a fit. Not API: it is what
    /// `tests/batch_proptests.rs` evaluates the per-row forward pass on.
    #[doc(hidden)]
    pub fn network(&self) -> Option<&Fitted> {
        self.fitted.as_ref()
    }

    /// SGD training core of [`Regressor::fit`] and
    /// [`Regressor::fit_appended`]. A cold fit (`warm` is `None`) draws the
    /// initial weights and the shuffles of its `EPOCHS` epochs from one
    /// rng, stream `0x4141` of the seed. A continuation of `(old, epochs)`
    /// starts from `old` re-expressed under `scaler` and runs `epochs` epochs
    /// whose shuffles are stream `n` (the row count) of the seed's warm
    /// stream.
    fn train(
        &self,
        data: &Dataset,
        scaler: Scaler,
        warm: Option<(Fitted, usize)>,
    ) -> Result<Fitted, MlError> {
        let (d, n) = (data.dim(), data.len());
        let h = hidden_units(d);

        let tmean = disar_math::stats::mean(data.targets());
        let tstd = {
            let s = disar_math::stats::std_dev(data.targets());
            if s == 0.0 {
                1.0
            } else {
                s
            }
        };

        // A column that never varies scales to 0.0: it adds ±0.0 to an
        // activation and 0.0 to a velocity, so its weights stay as they start
        // and SGD runs over the others alone: row `i` of `xs` is
        // `xs[i * l..][..l]`.
        let live = scaler.live_columns();
        let l = live.len();
        let mut xs = Vec::with_capacity(n * l);
        for r in data.rows() {
            xs.extend(live.iter().map(|&j| scaler.scale(j, r[j])));
        }
        let ys: Vec<f64> = data.targets().iter().map(|y| (y - tmean) / tstd).collect();

        // The starting weights in the full layout, `d + 1` per hidden unit.
        let (mut rng, epochs, start, w2) = match warm {
            None => {
                // Drawn for all `d` columns in their order, as ever: the
                // stream, and with it every live weight's start, does not
                // depend on `live`.
                let mut rng = stream_rng(self.seed, 0x4141);
                let mut init = |len: usize| (0..len).map(|_| rng.gen_range(-0.5..0.5)).collect();
                let (drawn, w2): (Vec<f64>, Vec<f64>) = (init(h * (d + 1)), init(h + 1));
                (rng, EPOCHS, drawn, w2)
            }
            Some((old, epochs)) => {
                let (w1, w2) = old.reexpress(&scaler, tmean, tstd);
                let rng = stream_rng(split_seed(self.seed, 0x5741), n as u64);
                (rng, epochs, w1, w2)
            }
        };
        let bias_last = |w: &[f64]| live.iter().map(|&j| w[j]).chain([w[d]]).collect::<Vec<_>>();
        let mut net = Net {
            l,
            w1: start.chunks_exact(d + 1).flat_map(bias_last).collect(),
            w2,
            v1: vec![0.0; h * (l + 1)],
            v2: vec![0.0; h + 1],
            hid: vec![0.0; h],
        };

        // Weka decays the learning rate towards zero over the epoch budget.
        let mut order: Vec<usize> = (0..n).collect();
        for epoch in 0..epochs {
            let lr = LEARNING_RATE * (1.0 - epoch as f64 / epochs as f64).max(0.05);
            rng.shuffle(&mut order);
            net.epoch(&xs, &ys, &order, lr);
        }

        let Net { w1, w2, .. } = net;
        if w2.iter().chain(&w1).any(|w| !w.is_finite()) {
            return Err(MlError::Numerical("MLP training diverged".into()));
        }
        // Back in the full layout, a dead column's weights as they started.
        let full = |(start, trained): (&[f64], &[f64])| {
            let mut w = start.to_vec();
            for (&j, &t) in live.iter().zip(trained) {
                w[j] = t;
            }
            w[d] = trained[l];
            w
        };
        let w1 = start
            .chunks_exact(d + 1)
            .zip(w1.chunks_exact(l + 1))
            .map(full)
            .collect();

        Ok(Fitted {
            rows: n,
            scaler,
            live,
            target_mean: tmean,
            target_std: tstd,
            w1,
            w2,
        })
    }
}

impl Fitted {
    /// This network's weights in the full layout (`d + 1` per hidden unit,
    /// then the output layer) re-expressed under `scaler` and the target
    /// moments `(tmean, tstd)`, so that they compute the same function of the
    /// raw features. `scaler` must bound the rows this fit's scaler bounds.
    fn reexpress(self, scaler: &Scaler, tmean: f64, tstd: f64) -> (Vec<f64>, Vec<f64>) {
        let d = scaler.dim();
        let (old, new) = (&self.scaler, scaler);
        let mut w1 = Vec::with_capacity(self.w1.len() * (d + 1));
        for mut w in self.w1 {
            for j in (0..d).filter(|&j| new.varies(j)) {
                if old.varies(j) {
                    w[d] += w[j] * (new.mins()[j] - old.mins()[j]) / old.ranges()[j];
                    w[j] *= new.ranges()[j] / old.ranges()[j];
                } else {
                    w[j] = 0.0;
                }
            }
            w1.extend(w);
        }
        let mut w2 = self.w2;
        let (bias, hidden) = w2.split_last_mut().expect("an output bias");
        for v in hidden {
            *v *= self.target_std / tstd;
        }
        *bias = (*bias * self.target_std + self.target_mean - tmean) / tstd;
        (w1, w2)
    }
}

/// The weights SGD moves, their velocities and the hidden activations of the
/// sample in hand. Flat: hidden unit `hu` owns `w1[hu * (l + 1)..][..=l]`
/// with its bias last.
struct Net {
    l: usize,
    w1: Vec<f64>,
    w2: Vec<f64>,
    v1: Vec<f64>,
    v2: Vec<f64>,
    hid: Vec<f64>,
}

impl Net {
    /// One pass of SGD with momentum over the rows `order` names, in that
    /// order; row `i` is `xs[i * l..][..l]`.
    fn epoch(&mut self, xs: &[f64], ys: &[f64], order: &[usize], lr: f64) {
        let Net {
            l,
            w1,
            w2,
            v1,
            v2,
            hid,
        } = self;
        let (l, h) = (*l, hid.len());
        for &i in order {
            let x = &xs[i * l..(i + 1) * l];
            // Forward pass.
            for (hv, w) in hid.iter_mut().zip(w1.chunks_exact(l + 1)) {
                let mut a = w[l];
                for (wj, xj) in w.iter().zip(x) {
                    a += wj * xj;
                }
                *hv = sigmoid(a);
            }
            let mut out = w2[h];
            for (w, hv) in w2.iter().zip(&*hid) {
                out += w * hv;
            }
            // Backward pass: linear output, squared error.
            let err = out - ys[i];
            let rows = w1.chunks_exact_mut(l + 1).zip(v1.chunks_exact_mut(l + 1));
            for (hu, (wrow, vrow)) in rows.enumerate() {
                let g2 = err * hid[hu];
                v2[hu] = MOMENTUM * v2[hu] - lr * g2;
                let delta_h = err * w2[hu] * hid[hu] * (1.0 - hid[hu]);
                w2[hu] += v2[hu];
                for ((wj, vj), xj) in wrow.iter_mut().zip(vrow.iter_mut()).zip(x) {
                    let g1 = delta_h * xj;
                    *vj = MOMENTUM * *vj - lr * g1;
                    *wj += *vj;
                }
                vrow[l] = MOMENTUM * vrow[l] - lr * delta_h;
                wrow[l] += vrow[l];
            }
            v2[h] = MOMENTUM * v2[h] - lr * err;
            w2[h] += v2[h];
        }
    }
}

impl Regressor for Mlp {
    fn fit(&mut self, data: &Dataset) -> Result<(), MlError> {
        if data.is_empty() {
            return Err(MlError::EmptyTrainingSet);
        }
        let scaler = Scaler::fit(data)?;
        self.fitted = Some(self.train(data, scaler, None)?);
        Ok(())
    }

    /// Continues from the last fit for `WARM_EPOCHS` epochs when that fit
    /// covered exactly `from` rows of the same dimension, at least
    /// `WARM_MIN_ROWS`; otherwise a cold [`Regressor::fit`]. See the module
    /// docs.
    fn fit_appended(&mut self, data: &Dataset, from: usize) -> Result<(), MlError> {
        let extends = |f: &mut Fitted| {
            f.rows == from
                && (WARM_MIN_ROWS..=data.len()).contains(&from)
                && f.scaler.dim() == data.dim()
        };
        let Some(old) = self.fitted.take_if(extends) else {
            return self.fit(data);
        };
        match self.train(data, Scaler::fit(data)?, Some((old, WARM_EPOCHS))) {
            Ok(fitted) => {
                self.fitted = Some(fitted);
                Ok(())
            }
            // A continuation that diverged is retried from fresh weights.
            Err(_) => self.fit(data),
        }
    }

    /// Blocked forward pass: the live columns of the rows are standardized
    /// 64 rows at a time into one reused buffer and each hidden unit's weight
    /// row streams over the whole block before the next (weight rows stay
    /// hot in cache). A row's output is `w2[h] + Σ_hu w2[hu]·σ(a_hu)`, added
    /// in hidden-unit order, with each activation `a_hu = w[d] + Σⱼ w[j]·xn[j]`
    /// summed left to right over the live `j`, so it has the same bits in a
    /// block of any width (`tests/batch_proptests.rs` holds it to the
    /// formula).
    fn predict_batch(
        &self,
        xs: &FeatureMatrix,
        out: &mut [f64],
        scratch: &mut PredictScratch,
    ) -> Result<(), MlError> {
        check_out_len(xs.len(), out)?;
        if xs.is_empty() {
            return Ok(());
        }
        let f = self.fitted.as_ref().ok_or(MlError::NotFitted)?;
        if xs.dim() != f.scaler.dim() {
            return Err(MlError::FeatureDimensionMismatch {
                expected: f.scaler.dim(),
                got: xs.dim(),
            });
        }
        const BLOCK: usize = 64;
        let (d, l, h) = (xs.dim(), f.live.len(), f.w1.len());
        let block = &mut scratch.block;
        let mut start = 0;
        while start < xs.len() {
            let end = (start + BLOCK).min(xs.len());
            block.clear();
            for i in start..end {
                let x = xs.row(i);
                block.extend(f.live.iter().map(|&j| f.scaler.scale(j, x[j])));
            }
            let out_b = &mut out[start..end];
            for slot in out_b.iter_mut() {
                *slot = f.w2[h];
            }
            for (hu, w) in f.w1.iter().enumerate() {
                for (r, slot) in out_b.iter_mut().enumerate() {
                    let xn = &block[r * l..(r + 1) * l];
                    let mut a = w[d];
                    for (&j, xj) in f.live.iter().zip(xn) {
                        a += w[j] * xj;
                    }
                    *slot += f.w2[hu] * sigmoid(a);
                }
            }
            for slot in out_b.iter_mut() {
                *slot = *slot * f.target_std + f.target_mean;
            }
            start = end;
        }
        Ok(())
    }

    fn name(&self) -> &'static str {
        "MLP"
    }

    fn clone_box(&self) -> Box<dyn Regressor> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_data(n: usize) -> Dataset {
        let mut d = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..n {
            let a = (i % 17) as f64;
            let b = (i % 5) as f64;
            d.push(vec![a, b], 10.0 + 4.0 * a - 2.0 * b).unwrap();
        }
        d
    }

    #[test]
    fn hidden_default_sizing() {
        assert_eq!(hidden_units(1), 2);
        assert_eq!(hidden_units(7), 4);
    }

    #[test]
    fn learns_linear_function() {
        let data = linear_data(200);
        let mut m = Mlp::new(3);
        m.fit(&data).unwrap();
        let preds: Vec<f64> = data
            .rows()
            .iter()
            .map(|r| m.predict(r).unwrap())
            .collect();
        let rmse = disar_math::stats::rmse(&preds, data.targets());
        let spread = disar_math::stats::std_dev(data.targets());
        assert!(rmse < 0.25 * spread, "rmse {rmse} vs spread {spread}");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = linear_data(60);
        let mut m1 = Mlp::new(5);
        let mut m2 = Mlp::new(5);
        m1.fit(&data).unwrap();
        m2.fit(&data).unwrap();
        assert_eq!(m1.predict(&[3.0, 1.0]).unwrap(), m2.predict(&[3.0, 1.0]).unwrap());
    }

    #[test]
    fn different_seeds_differ() {
        let data = linear_data(60);
        let mut m1 = Mlp::new(1);
        let mut m2 = Mlp::new(2);
        m1.fit(&data).unwrap();
        m2.fit(&data).unwrap();
        assert_ne!(m1.predict(&[3.0, 1.0]).unwrap(), m2.predict(&[3.0, 1.0]).unwrap());
    }

    #[test]
    fn predict_checks_dimension() {
        let data = linear_data(30);
        let mut m = Mlp::new(0);
        m.fit(&data).unwrap();
        assert!(matches!(
            m.predict(&[1.0]),
            Err(MlError::FeatureDimensionMismatch { .. })
        ));
    }

    #[test]
    fn constant_target_is_learned() {
        let mut d = Dataset::new(vec!["x".into()]);
        for i in 0..20 {
            d.push(vec![i as f64], 7.0).unwrap();
        }
        let mut m = Mlp::new(0);
        m.fit(&d).unwrap();
        let y = m.predict(&[10.0]).unwrap();
        assert!((y - 7.0).abs() < 0.5, "got {y}");
    }

    /// SGD with momentum written the plain way — nested rows, indexed scalar
    /// loops — returning `(w1, w2)`.
    fn reference_train(m: &Mlp, data: &Dataset) -> (Vec<Vec<f64>>, Vec<f64>) {
        let (d, h) = (data.dim(), hidden_units(data.dim()));
        let scaler = Scaler::fit(data).unwrap();
        let tmean = disar_math::stats::mean(data.targets());
        let tstd = Some(disar_math::stats::std_dev(data.targets()));
        let tstd = tstd.filter(|&s| s != 0.0).unwrap_or(1.0);
        let xs: Vec<Vec<f64>> = data.rows().iter().map(|r| scaler.transform(r)).collect();
        let ys: Vec<f64> = data.targets().iter().map(|y| (y - tmean) / tstd).collect();
        let mut rng = stream_rng(m.seed, 0x4141);
        let mut w1: Vec<Vec<f64>> = (0..h)
            .map(|_| (0..=d).map(|_| rng.gen_range(-0.5..0.5)).collect())
            .collect();
        let mut w2: Vec<f64> = (0..=h).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let (mut v1, mut v2) = (vec![vec![0.0; d + 1]; h], vec![0.0; h + 1]);
        let mut order: Vec<usize> = (0..xs.len()).collect();
        let mut hid = vec![0.0; h];
        for epoch in 0..EPOCHS {
            let lr = LEARNING_RATE * (1.0 - epoch as f64 / EPOCHS as f64).max(0.05);
            rng.shuffle(&mut order);
            for &i in &order {
                for hu in 0..h {
                    let mut a = w1[hu][d];
                    for j in 0..d {
                        a += w1[hu][j] * xs[i][j];
                    }
                    hid[hu] = 1.0 / (1.0 + (-a).exp());
                }
                let mut out = w2[h];
                for hu in 0..h {
                    out += w2[hu] * hid[hu];
                }
                let err = out - ys[i];
                for hu in 0..h {
                    v2[hu] = MOMENTUM * v2[hu] - lr * (err * hid[hu]);
                    let delta_h = err * w2[hu] * hid[hu] * (1.0 - hid[hu]);
                    w2[hu] += v2[hu];
                    for j in 0..d {
                        v1[hu][j] = MOMENTUM * v1[hu][j] - lr * (delta_h * xs[i][j]);
                        w1[hu][j] += v1[hu][j];
                    }
                    v1[hu][d] = MOMENTUM * v1[hu][d] - lr * delta_h;
                    w1[hu][d] += v1[hu][d];
                }
                v2[h] = MOMENTUM * v2[h] - lr * err;
                w2[h] += v2[h];
            }
        }
        (w1, w2)
    }

    fn weight_bits(w1: &[Vec<f64>], w2: &[f64]) -> Vec<u64> {
        w1.iter().flatten().chain(w2).map(|w| w.to_bits()).collect()
    }

    #[test]
    fn train_matches_the_nested_scalar_reference_bitwise() {
        // d = 1; d = 10 with the knowledge base's constant columns, whose
        // scaled value is 0.0.
        let mut narrow = Dataset::new(vec!["x".into()]);
        for i in 0..90 {
            let x = (i % 17) as f64;
            narrow.push(vec![x], 4.0 * x + (x * 0.9).sin()).unwrap();
        }
        let wide = crate::dataset::tests::kb_shaped(150, 2);
        for data in [narrow, wide] {
            for mut m in [Mlp::new(9), Mlp::new(4)] {
                m.fit(&data).unwrap();
                let reference = reference_train(&m, &data);
                let f = m.fitted.as_ref().unwrap();
                assert_eq!(
                    weight_bits(&f.w1, &f.w2),
                    weight_bits(&reference.0, &reference.1)
                );
            }
        }
    }

    /// The forward pass over every column of the transformed query, dead
    /// ones included, on the full-layout weights.
    fn reference_predict(f: &Fitted, x: &[f64]) -> f64 {
        let (xn, d, h) = (f.scaler.transform(x), x.len(), f.w1.len());
        let mut out = f.w2[h];
        for hu in 0..h {
            let mut a = f.w1[hu][d];
            for (w, xj) in f.w1[hu].iter().zip(&xn) {
                a += w * xj;
            }
            out += f.w2[hu] * (1.0 / (1.0 + (-a).exp()));
        }
        out * f.target_std + f.target_mean
    }

    #[test]
    fn train_on_the_live_columns_matches_the_nested_scalar_reference_bitwise() {
        use crate::dataset::tests::shard_shaped;
        disar_math::check::cases(6, |rng| {
            let n = rng.gen_range(7usize..90);
            // Seven dead columns of ten; none live; one live of four.
            let shard = shard_shaped(n, rng.next_u64());
            let mut equal = Dataset::new(vec!["a".into(), "b".into()]);
            let mut single = Dataset::new((0..4).map(|j| format!("c{j}")).collect());
            for i in 0..n {
                equal
                    .push(vec![3.5, -0.0], rng.gen_range(-9.0..9.0))
                    .unwrap();
                let x = (i % 13) as f64;
                single
                    .push(vec![7.0, 0.0, x, -2.5], 2.0 * x + rng.gen_range(0.0..1.0))
                    .unwrap();
            }
            for (data, live) in [(shard, 3), (equal, 0), (single, 1)] {
                let seed = rng.next_u64();
                let mut m = Mlp::new(seed);
                m.fit(&data).unwrap();
                let reference = reference_train(&m, &data);
                let f = m.fitted.as_ref().unwrap();
                assert_eq!(f.live.len(), live);
                assert_eq!(
                    weight_bits(&f.w1, &f.w2),
                    weight_bits(&reference.0, &reference.1)
                );
                // A query may hold anything where the fit saw one value.
                let mut odd = data.rows()[0].clone();
                odd.iter_mut().for_each(|v| *v = 1.5 * *v - 4.0);
                for x in data.rows().iter().take(5).chain([&odd]) {
                    let y = m.predict(x).unwrap();
                    assert_eq!(y.to_bits(), reference_predict(f, x).to_bits());
                }
            }
        });
    }

    /// 40 rows where `b` and `c` never vary, then 25 appended rows that
    /// move `a`'s minimum and maximum, make `b` vary and move the target's
    /// mean and spread; `c` stays constant.
    fn grown_data() -> (Dataset, Dataset) {
        let mut old = Dataset::new(vec!["a".into(), "b".into(), "c".into()]);
        for i in 0..40 {
            let a = 10.0 + (i % 13) as f64;
            old.push(vec![a, 4.0, -1.0], 50.0 + 3.0 * a + (0.7 * a).sin())
                .unwrap();
        }
        let mut grown = old.clone();
        for i in 0..25 {
            let (a, b) = (2.0 + (i % 29) as f64, (i % 5) as f64);
            grown
                .push(vec![a, b, -1.0], 400.0 + 9.0 * a - 20.0 * b)
                .unwrap();
        }
        (old, grown)
    }

    #[test]
    fn continuation_with_no_epochs_computes_the_previous_fit() {
        let (old, grown) = grown_data();
        for mut m in [Mlp::new(21), Mlp::new(4)] {
            m.fit(&old).unwrap();
            let before = m.clone();
            let (scaler, start) = (Scaler::fit(&grown).unwrap(), m.fitted.take());
            m.fitted = Some(m.train(&grown, scaler, start.zip(Some(0))).unwrap());
            let f = m.fitted.as_ref().unwrap();
            assert_eq!((f.rows, f.live.clone()), (65, vec![0, 1]));
            for x in grown.rows() {
                let (was, is) = (before.predict(x).unwrap(), m.predict(x).unwrap());
                assert!(
                    (is - was).abs() <= 1e-12 * was.abs(),
                    "{x:?}: {was} then {is}"
                );
            }
        }
    }

    #[test]
    fn continuation_moves_towards_the_grown_rows() {
        let (old, grown) = grown_data();
        let rmse = |m: &Mlp| {
            let preds: Vec<f64> = grown.rows().iter().map(|r| m.predict(r).unwrap()).collect();
            disar_math::stats::rmse(&preds, grown.targets())
        };
        let mut m = Mlp::new(8);
        m.fit(&old).unwrap();
        let stale = rmse(&m);
        m.fit_appended(&grown, old.len()).unwrap();
        assert!(rmse(&m) < 0.5 * stale, "rmse {} against {stale}", rmse(&m));
    }

    #[test]
    fn continuation_needs_a_fit_of_exactly_the_prefix() {
        let (old, grown) = grown_data();
        let mut cold = Mlp::new(5);
        cold.fit(&grown).unwrap();
        // Unfitted, fitted on a row count other than `from`, or on fewer
        // than `WARM_MIN_ROWS`: a cold fit.
        let mut m = Mlp::new(5);
        m.fit_appended(&grown, old.len()).unwrap();
        assert_eq!(m.fitted, cold.fitted);
        m.fit(&old).unwrap();
        m.fit_appended(&grown, old.len() - 1).unwrap();
        assert_eq!(m.fitted, cold.fitted);
        let few = WARM_MIN_ROWS - 1;
        let head = Dataset::from_rows(
            old.feature_names().to_vec(),
            old.rows()[..few].to_vec(),
            old.targets()[..few].to_vec(),
        )
        .unwrap();
        m.fit(&head).unwrap();
        m.fit_appended(&grown, few).unwrap();
        assert_eq!(m.fitted, cold.fitted);
        // A continuation is a pure function of the sequence of fits.
        let mut a = Mlp::new(5);
        a.fit(&old).unwrap();
        let mut b = a.clone();
        a.fit_appended(&grown, old.len()).unwrap();
        b.fit_appended(&grown, old.len()).unwrap();
        assert_eq!(a.fitted, b.fitted);
        assert_ne!(a.fitted, cold.fitted);
    }

    #[test]
    fn refit_replaces_model() {
        let d1 = linear_data(50);
        let mut d2 = Dataset::new(vec!["a".into(), "b".into()]);
        for i in 0..50 {
            d2.push(vec![i as f64, 0.0], -5.0 * i as f64).unwrap();
        }
        let mut m = Mlp::new(9);
        m.fit(&d1).unwrap();
        let before = m.predict(&[8.0, 2.0]).unwrap();
        m.fit(&d2).unwrap();
        let after = m.predict(&[8.0, 2.0]).unwrap();
        assert_ne!(before, after);
        assert!(after < 0.0, "after refit should track the new data: {after}");
    }
}
