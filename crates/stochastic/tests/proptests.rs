//! Property tests of the stochastic substrate.

use disar_math::check::cases;
use disar_math::rng::{stream_rng, StandardNormal, Xoshiro256PlusPlus};
use disar_stochastic::drivers::{Cir, FxRate, Gbm, RiskDriver, Vasicek};
use disar_stochastic::scenario::{
    Measure, ScenarioBuffer, ScenarioGenerator, ScenarioView, TimeGrid,
};
use disar_stochastic::CorrelationMatrix;

fn any_measure(rng: &mut Xoshiro256PlusPlus) -> Measure {
    if rng.gen_bool(0.5) {
        Measure::RiskNeutral
    } else {
        Measure::RealWorld
    }
}

/// GBM paths stay strictly positive whatever the shocks.
#[test]
fn gbm_positive() {
    cases(64, |rng| {
        let (s0, mu) = (rng.gen_range(0.1..1000.0), rng.gen_range(-0.5..0.5));
        let (sigma, shock) = (rng.gen_range(0.0..1.0), rng.gen_range(-6.0..6.0));
        let dt = rng.gen_range(0.001..1.0);
        let g = Gbm::new(s0, mu, sigma, 0.02).expect("valid");
        let next = g.step(s0, dt, shock, Measure::RealWorld);
        assert!(next > 0.0);
        assert!(next.is_finite());
    });
}

/// CIR full-truncation never goes negative.
#[test]
fn cir_non_negative() {
    cases(64, |rng| {
        let x0 = rng.gen_range(0.0..0.5);
        let (a, b) = (rng.gen_range(0.01..3.0), rng.gen_range(0.0..0.3));
        let (sigma, shock) = (rng.gen_range(0.0..1.0), rng.gen_range(-6.0..6.0));
        // Even a (numerically) negative incoming state.
        let state = rng.gen_range(-0.1..0.5);
        let c = Cir::short_rate(x0, a, b, sigma, 0.0).expect("valid");
        let next = c.step(state, 1.0 / 12.0, shock, Measure::RiskNeutral);
        assert!(next >= 0.0);
    });
}

/// Vasicek's exact step is linear in the shock with the documented
/// conditional moments.
#[test]
fn vasicek_conditional_moments() {
    cases(64, |rng| {
        let r = rng.gen_range(-0.05..0.15);
        let (a, b) = (rng.gen_range(0.05..2.0), rng.gen_range(0.0..0.1));
        let (sigma, dt): (f64, f64) = (rng.gen_range(0.0001..0.05), rng.gen_range(0.01..1.0));
        let v = Vasicek::new(r, a, b, sigma, 0.0).expect("valid");
        let at_zero = v.step(r, dt, 0.0, Measure::RiskNeutral);
        let e = (-a * dt).exp();
        assert!((at_zero - (b + (r - b) * e)).abs() < 1e-12);
        let plus = v.step(r, dt, 1.0, Measure::RiskNeutral);
        let sd = (sigma * sigma / (2.0 * a) * (1.0 - e * e)).sqrt();
        assert!((plus - at_zero - sd).abs() < 1e-12);
    });
}

/// FX under parity with zero shock compounds at the rate differential.
#[test]
fn fx_parity_deterministic_step() {
    cases(64, |rng| {
        let (x0, diff): (f64, f64) = (rng.gen_range(0.1..10.0), rng.gen_range(-0.05..0.05));
        let dt = rng.gen_range(0.01..1.0);
        let f = FxRate::new(x0, 0.0, 0.0, diff).expect("valid");
        let next = f.step(x0, dt, 0.0, Measure::RiskNeutral);
        assert!((next - x0 * (diff * dt).exp()).abs() < 1e-12);
    });
}

/// Any correlation matrix built as ρ on the off-diagonal with |ρ| < 1 is
/// valid for dimension 2, and correlate preserves the first shock.
#[test]
fn two_dim_correlation_valid() {
    cases(64, |rng| {
        let rho: f64 = rng.gen_range(-0.99..0.99);
        let (z0, z1): (f64, f64) = (rng.gen_range(-3.0..3.0), rng.gen_range(-3.0..3.0));
        let c =
            CorrelationMatrix::new(vec![vec![1.0, rho], vec![rho, 1.0]]).expect("PD for |rho|<1");
        let out = c.correlate(&[z0, z1]);
        assert!((out[0] - z0).abs() < 1e-12);
        // Cholesky row: out[1] = rho z0 + sqrt(1-rho²) z1.
        let expect = rho * z0 + (1.0 - rho * rho).sqrt() * z1;
        assert!((out[1] - expect).abs() < 1e-12);
    });
}

/// Generated scenario sets are reproducible and respect anchoring.
#[test]
fn generation_reproducible_and_anchored() {
    cases(64, |rng| {
        let (seed, n_paths) = (rng.gen_range(0u64..500), rng.gen_range(1usize..10));
        let (r0, s0) = (rng.gen_range(0.0..0.08), rng.gen_range(10.0..500.0));
        let gen = ScenarioGenerator::builder()
            .driver(Box::new(
                Vasicek::new(0.02, 0.5, 0.03, 0.01, 0.0).expect("valid"),
            ))
            .driver(Box::new(Gbm::new(100.0, 0.05, 0.2, 0.02).expect("valid")))
            .grid(TimeGrid::new(2.0, 4).expect("valid"))
            .build()
            .expect("valid");
        let anchor = [r0, s0];
        let (mut a, mut b) = (ScenarioBuffer::new(), ScenarioBuffer::new());
        for buf in [&mut a, &mut b] {
            gen.generate_into(Measure::RiskNeutral, n_paths, seed, Some(&anchor), buf)
                .expect("ok");
        }
        let (a, b) = (a.view(), b.view());
        assert_eq!(a, b);
        for p in 0..n_paths {
            assert_eq!(a.value(p, 0, 0), r0);
            assert_eq!(a.value(p, 1, 0), s0);
        }
    });
}

/// Discount factors are in (0, 1] for non-negative-rate models and
/// non-increasing along the grid.
#[test]
fn discount_factors_monotone() {
    cases(64, |rng| {
        let gen = ScenarioGenerator::builder()
            .driver(Box::new(
                Cir::short_rate(0.03, 0.5, 0.03, 0.05, 0.0).expect("valid"),
            ))
            .grid(TimeGrid::new(5.0, 12).expect("valid"))
            .build()
            .expect("valid");
        let seed = rng.gen_range(0u64..300);
        let mut buf = ScenarioBuffer::new();
        gen.generate_into(Measure::RiskNeutral, 2, seed, None, &mut buf)
            .expect("ok");
        let set = buf.view();
        for p in 0..2 {
            let mut prev = 1.0;
            for step in 0..=set.grid().n_steps() {
                let df = set.discount_factor(p, step);
                assert!(df > 0.0 && df <= 1.0 + 1e-12);
                assert!(df <= prev + 1e-12);
                prev = df;
            }
        }
    });
}

/// The rate + equity generator the buffer-reuse properties run against.
fn buffered_generator() -> ScenarioGenerator {
    ScenarioGenerator::builder()
        .driver(Box::new(
            Vasicek::new(0.02, 0.5, 0.03, 0.01, 0.1).expect("valid"),
        ))
        .driver(Box::new(Gbm::new(100.0, 0.05, 0.2, 0.02).expect("valid")))
        .correlation(CorrelationMatrix::new(vec![vec![1.0, -0.3], vec![-0.3, 1.0]]).expect("valid"))
        .grid(TimeGrid::new(2.0, 4).expect("valid"))
        .build()
        .expect("valid")
}

/// Every value, the layout metadata, and the per-step discount factors of a
/// reused buffer's view must match a fresh buffer's view bit-for-bit.
fn assert_view_bitwise(view: &ScenarioView<'_>, reference: &ScenarioView<'_>) {
    assert_eq!(view.n_paths(), reference.n_paths());
    assert_eq!(view.n_drivers(), reference.n_drivers());
    assert_eq!(view.measure(), reference.measure());
    for p in 0..view.n_paths() {
        for d in 0..view.n_drivers() {
            for step in 0..=view.grid().n_steps() {
                assert_eq!(
                    view.value(p, d, step).to_bits(),
                    reference.value(p, d, step).to_bits()
                );
            }
        }
        assert_eq!(
            view.discount_factor(p, view.grid().n_steps()).to_bits(),
            reference
                .discount_factor(p, reference.grid().n_steps())
                .to_bits()
        );
    }
}

/// A fill into a reused buffer is bit-identical to the same fill into a
/// fresh one for arbitrary measures, seeds and overrides — even when the
/// buffer is polluted by a previous, differently-shaped fill.
#[test]
fn reused_buffer_fill_bitwise_matches_a_fresh_buffer() {
    cases(32, |rng| {
        let (seed, pollute_seed) = (rng.gen_range(0u64..1000), rng.gen_range(0u64..1000));
        let (n_paths, pollute_paths) = (rng.gen_range(1usize..8), rng.gen_range(1usize..13));
        let (measure, with_override) = (any_measure(rng), rng.gen_bool(0.5));
        let overrides = [rng.gen_range(0.0..0.08), rng.gen_range(10.0..500.0)];
        let gen = buffered_generator();
        let ov = with_override.then_some(&overrides[..]);
        let mut fresh = ScenarioBuffer::new();
        gen.generate_into(measure, n_paths, seed, ov, &mut fresh)
            .expect("ok");
        let mut buf = ScenarioBuffer::new();
        gen.generate_into(
            Measure::RealWorld,
            pollute_paths,
            pollute_seed,
            None,
            &mut buf,
        )
        .expect("ok");
        gen.generate_into(measure, n_paths, seed, ov, &mut buf)
            .expect("ok");
        assert_view_bitwise(&buf.view(), &fresh.view());
    });
}

// ---------------------------------------------------------------------------
// Fill identity: the fill vs a per-path reimplementation of the scalar
// generation loop.
// ---------------------------------------------------------------------------

/// One of each built-in driver, with spiky parameters (CIR violating the
/// Feller condition) so the truncation branches get exercised.
fn kernel_drivers() -> Vec<Box<dyn RiskDriver>> {
    vec![
        Box::new(Vasicek::new(0.02, 0.5, 0.03, 0.01, 0.1).expect("valid")),
        Box::new(Gbm::new(100.0, 0.05, 0.2, 0.02).expect("valid")),
        Box::new(FxRate::new(1.1, 0.02, 0.1, 0.015).expect("valid")),
        Box::new(Cir::default_intensity(0.01, 0.3, 0.02, 0.5).expect("valid")),
    ]
}

fn kernel_correlation() -> CorrelationMatrix {
    CorrelationMatrix::new(vec![
        vec![1.0, -0.3, 0.1, 0.0],
        vec![-0.3, 1.0, 0.2, 0.0],
        vec![0.1, 0.2, 1.0, 0.0],
        vec![0.0, 0.0, 0.0, 1.0],
    ])
    .expect("valid")
}

fn kernel_generator() -> ScenarioGenerator {
    let mut b = ScenarioGenerator::builder();
    for d in kernel_drivers() {
        b = b.driver(d);
    }
    b.correlation(kernel_correlation())
        .grid(TimeGrid::new(1.5, 4).expect("valid"))
        .build()
        .expect("valid")
}

/// The scalar generation loop: path-major iteration, one draw per driver and
/// step, the correlation entry by entry, one `RiskDriver::step` call per
/// `(path, step, driver)`. The fill must reproduce this to the bit — the
/// reference shares no code with it.
fn reference_scalar_paths(
    drivers: &[Box<dyn RiskDriver>],
    corr: &CorrelationMatrix,
    grid: TimeGrid,
    measure: Measure,
    n_paths: usize,
    seed: u64,
    overrides: Option<&[f64]>,
) -> Vec<f64> {
    let n_drivers = drivers.len();
    let n_steps = grid.n_steps();
    let dt = grid.dt();
    let stride = n_steps + 1;
    let initials: Vec<f64> = match overrides {
        Some(o) => o.to_vec(),
        None => drivers.iter().map(|d| d.initial_value()).collect(),
    };
    let mut data = vec![0.0; n_paths * n_drivers * stride];
    let mut raw = vec![0.0; n_drivers];
    let mut shocks = vec![0.0; n_drivers];
    let chol = corr.cholesky();
    for p in 0..n_paths {
        let mut rng = stream_rng(seed, p as u64);
        let mut gauss = StandardNormal::new();
        let mut state = initials.clone();
        for d in 0..n_drivers {
            data[(p * n_drivers + d) * stride] = initials[d];
        }
        for step in 1..=n_steps {
            for z in raw.iter_mut() {
                *z = gauss.sample(&mut rng);
            }
            // `L · raw` entry by entry: `0.0`, then `L[d][j] · raw[j]` for
            // `j ≤ d` in order of `j`.
            for (d, shock) in shocks.iter_mut().enumerate() {
                let mut sum = 0.0;
                for (j, z) in raw[..=d].iter().enumerate() {
                    sum += chol[(d, j)] * z;
                }
                *shock = sum;
            }
            for d in 0..n_drivers {
                state[d] = drivers[d].step(state[d], dt, shocks[d], measure);
                data[(p * n_drivers + d) * stride + step] = state[d];
            }
        }
    }
    data
}

fn assert_view_matches_flat(view: &ScenarioView<'_>, flat: &[f64], stride: usize) {
    for p in 0..view.n_paths() {
        for d in 0..view.n_drivers() {
            for step in 0..stride {
                let reference = flat[(p * view.n_drivers() + d) * stride + step];
                assert_eq!(
                    view.value(p, d, step).to_bits(),
                    reference.to_bits(),
                    "path {p} driver {d} step {step}"
                );
            }
        }
    }
}

/// The fill reproduces the scalar reference loop to the bit for any path
/// count, with and without re-anchoring overrides.
#[test]
fn lane_fill_bitwise_matches_scalar_reference() {
    cases(32, |rng| {
        let (seed, n_paths) = (rng.gen_range(0u64..1000), rng.gen_range(1usize..40));
        let measure = any_measure(rng);
        let with_override = rng.gen_bool(0.5);
        let overrides = [
            rng.gen_range(0.0..0.08),
            rng.gen_range(10.0..500.0),
            rng.gen_range(0.5..2.0),
            rng.gen_range(0.0..0.05),
        ];
        let gen = kernel_generator();
        let drivers = kernel_drivers();
        let corr = kernel_correlation();
        let ov = with_override.then_some(&overrides[..]);
        let reference =
            reference_scalar_paths(&drivers, &corr, gen.grid(), measure, n_paths, seed, ov);
        let stride = gen.grid().n_steps() + 1;
        let mut buf = ScenarioBuffer::new();
        gen.generate_into(measure, n_paths, seed, ov, &mut buf)
            .expect("ok");
        assert_view_matches_flat(&buf.view(), &reference, stride);
    });
}
