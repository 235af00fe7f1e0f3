//! Property-based tests of the stochastic substrate.

use disar_stochastic::drivers::{Cir, FxRate, Gbm, RiskDriver, Vasicek};
use disar_stochastic::scenario::{
    Measure, ScenarioBuffer, ScenarioGenerator, ScenarioSet, ScenarioView, TimeGrid,
};
use disar_stochastic::CorrelationMatrix;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GBM paths stay strictly positive whatever the shocks.
    #[test]
    fn gbm_positive(
        s0 in 0.1f64..1000.0,
        mu in -0.5f64..0.5,
        sigma in 0.0f64..1.0,
        shock in -6.0f64..6.0,
        dt in 0.001f64..1.0,
    ) {
        let g = Gbm::new(s0, mu, sigma, 0.02).expect("valid");
        let next = g.step(s0, dt, shock, Measure::RealWorld);
        prop_assert!(next > 0.0);
        prop_assert!(next.is_finite());
    }

    /// CIR full-truncation never goes negative.
    #[test]
    fn cir_non_negative(
        x0 in 0.0f64..0.5,
        a in 0.01f64..3.0,
        b in 0.0f64..0.3,
        sigma in 0.0f64..1.0,
        shock in -6.0f64..6.0,
        state in -0.1f64..0.5, // even a (numerically) negative incoming state
    ) {
        let c = Cir::short_rate(x0, a, b, sigma, 0.0).expect("valid");
        let next = c.step(state, 1.0 / 12.0, shock, Measure::RiskNeutral);
        prop_assert!(next >= 0.0);
    }

    /// Vasicek's exact step is linear in the shock with the documented
    /// conditional moments.
    #[test]
    fn vasicek_conditional_moments(
        r in -0.05f64..0.15,
        a in 0.05f64..2.0,
        b in 0.0f64..0.1,
        sigma in 0.0001f64..0.05,
        dt in 0.01f64..1.0,
    ) {
        let v = Vasicek::new(r, a, b, sigma, 0.0).expect("valid");
        let at_zero = v.step(r, dt, 0.0, Measure::RiskNeutral);
        let e = (-a * dt).exp();
        prop_assert!((at_zero - (b + (r - b) * e)).abs() < 1e-12);
        let plus = v.step(r, dt, 1.0, Measure::RiskNeutral);
        let sd = (sigma * sigma / (2.0 * a) * (1.0 - e * e)).sqrt();
        prop_assert!((plus - at_zero - sd).abs() < 1e-12);
    }

    /// FX under parity with zero shock compounds at the rate differential.
    #[test]
    fn fx_parity_deterministic_step(
        x0 in 0.1f64..10.0,
        diff in -0.05f64..0.05,
        dt in 0.01f64..1.0,
    ) {
        let f = FxRate::new(x0, 0.0, 0.0, diff).expect("valid");
        let next = f.step(x0, dt, 0.0, Measure::RiskNeutral);
        prop_assert!((next - x0 * (diff * dt).exp()).abs() < 1e-12);
    }

    /// Any correlation matrix built as ρ on the off-diagonal with |ρ| < 1
    /// is valid for dimension 2, and correlate preserves the first shock.
    #[test]
    fn two_dim_correlation_valid(rho in -0.99f64..0.99, z0 in -3.0f64..3.0, z1 in -3.0f64..3.0) {
        let c = CorrelationMatrix::new(vec![vec![1.0, rho], vec![rho, 1.0]]).expect("PD for |rho|<1");
        let out = c.correlate(&[z0, z1]);
        prop_assert!((out[0] - z0).abs() < 1e-12);
        // Cholesky row: out[1] = rho z0 + sqrt(1-rho²) z1.
        let expect = rho * z0 + (1.0 - rho * rho).sqrt() * z1;
        prop_assert!((out[1] - expect).abs() < 1e-12);
    }

    /// Generated scenario sets are reproducible and respect anchoring.
    #[test]
    fn generation_reproducible_and_anchored(
        seed in 0u64..500,
        n_paths in 1usize..10,
        r0 in 0.0f64..0.08,
        s0 in 10.0f64..500.0,
    ) {
        let gen = ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.02, 0.5, 0.03, 0.01, 0.0).expect("valid")))
            .driver(Box::new(Gbm::new(100.0, 0.05, 0.2, 0.02).expect("valid")))
            .grid(TimeGrid::new(2.0, 4).expect("valid"))
            .build()
            .expect("valid");
        let anchor = vec![r0, s0];
        let a = gen.generate(Measure::RiskNeutral, n_paths, seed, Some(&anchor)).expect("ok");
        let b = gen.generate(Measure::RiskNeutral, n_paths, seed, Some(&anchor)).expect("ok");
        prop_assert_eq!(&a, &b);
        for p in 0..n_paths {
            prop_assert_eq!(a.value(p, 0, 0), r0);
            prop_assert_eq!(a.value(p, 1, 0), s0);
        }
    }

    /// Discount factors are in (0, 1] for non-negative-rate models and
    /// non-increasing along the grid.
    #[test]
    fn discount_factors_monotone(seed in 0u64..300) {
        let gen = ScenarioGenerator::builder()
            .driver(Box::new(Cir::short_rate(0.03, 0.5, 0.03, 0.05, 0.0).expect("valid")))
            .grid(TimeGrid::new(5.0, 12).expect("valid"))
            .build()
            .expect("valid");
        let set = gen.generate(Measure::RiskNeutral, 2, seed, None).expect("ok");
        for p in 0..2 {
            let mut prev = 1.0;
            for step in 0..=set.grid().n_steps() {
                let df = set.discount_factor(p, step);
                prop_assert!(df > 0.0 && df <= 1.0 + 1e-12);
                prop_assert!(df <= prev + 1e-12);
                prev = df;
            }
        }
    }
}

/// The rate + equity generator the buffer-reuse properties run against.
fn buffered_generator() -> ScenarioGenerator {
    ScenarioGenerator::builder()
        .driver(Box::new(Vasicek::new(0.02, 0.5, 0.03, 0.01, 0.1).expect("valid")))
        .driver(Box::new(Gbm::new(100.0, 0.05, 0.2, 0.02).expect("valid")))
        .correlation(
            CorrelationMatrix::new(vec![vec![1.0, -0.3], vec![-0.3, 1.0]]).expect("valid"),
        )
        .grid(TimeGrid::new(2.0, 4).expect("valid"))
        .build()
        .expect("valid")
}

/// Every value, the layout metadata, and the per-step discount factors of a
/// buffer view must match the allocating reference set bit-for-bit.
fn assert_view_bitwise(view: &ScenarioView<'_>, reference: &ScenarioSet) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.n_paths(), reference.n_paths());
    prop_assert_eq!(view.n_drivers(), reference.n_drivers());
    prop_assert_eq!(view.measure(), reference.measure());
    for p in 0..view.n_paths() {
        for d in 0..view.n_drivers() {
            for step in 0..=view.grid().n_steps() {
                prop_assert_eq!(
                    view.value(p, d, step).to_bits(),
                    reference.value(p, d, step).to_bits()
                );
            }
        }
        prop_assert_eq!(
            view.discount_factor(p, view.grid().n_steps()).to_bits(),
            reference.discount_factor(p, reference.grid().n_steps()).to_bits()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `generate_into` is bit-identical to the allocating `generate` for
    /// arbitrary measures, seeds and overrides — even when the buffer is
    /// polluted by a previous, differently-shaped antithetic fill.
    #[test]
    fn generate_into_bitwise_matches_generate(
        seed in 0u64..1000,
        pollute_seed in 0u64..1000,
        n_paths in 1usize..8,
        pollute_pairs in 1usize..7,
        risk_neutral in proptest::bool::ANY,
        with_override in proptest::bool::ANY,
        r0 in 0.0f64..0.08,
        s0 in 10.0f64..500.0,
    ) {
        let gen = buffered_generator();
        let measure = if risk_neutral { Measure::RiskNeutral } else { Measure::RealWorld };
        let overrides = [r0, s0];
        let ov = with_override.then_some(&overrides[..]);
        let reference = gen.generate(measure, n_paths, seed, ov).expect("ok");
        let mut buf = ScenarioBuffer::new();
        gen.generate_antithetic_into(Measure::RealWorld, pollute_pairs, pollute_seed, None, &mut buf)
            .expect("ok");
        gen.generate_into(measure, n_paths, seed, ov, &mut buf).expect("ok");
        assert_view_bitwise(&buf.view(), &reference)?;
    }

    /// Antithetic counterpart: `generate_antithetic_into` matches
    /// `generate_antithetic` bit-for-bit through a polluted buffer.
    #[test]
    fn generate_antithetic_into_bitwise_matches(
        seed in 0u64..1000,
        pollute_seed in 0u64..1000,
        n_pairs in 1usize..6,
        pollute_paths in 1usize..13,
        risk_neutral in proptest::bool::ANY,
        with_override in proptest::bool::ANY,
        r0 in 0.0f64..0.08,
        s0 in 10.0f64..500.0,
    ) {
        let gen = buffered_generator();
        let measure = if risk_neutral { Measure::RiskNeutral } else { Measure::RealWorld };
        let overrides = [r0, s0];
        let ov = with_override.then_some(&overrides[..]);
        let reference = gen.generate_antithetic(measure, n_pairs, seed, ov).expect("ok");
        let mut buf = ScenarioBuffer::new();
        gen.generate_into(Measure::RiskNeutral, pollute_paths, pollute_seed, None, &mut buf)
            .expect("ok");
        gen.generate_antithetic_into(measure, n_pairs, seed, ov, &mut buf).expect("ok");
        assert_view_bitwise(&buf.view(), &reference)?;
    }
}

// ---------------------------------------------------------------------------
// Block-kernel identity: step_block vs scalar step, and the block fill vs a
// per-path reimplementation of the scalar generation loop.
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

/// The scalar generation loop: path-major iteration, one
/// `RiskDriver::step` call per `(path, step, driver)`. The block fill must
/// reproduce this to the bit — the reference shares no code with it.
#[allow(clippy::too_many_arguments)]
fn reference_scalar_paths(
    drivers: &[Box<dyn RiskDriver>],
    corr: &CorrelationMatrix,
    grid: TimeGrid,
    measure: Measure,
    n_units: usize,
    seed: u64,
    overrides: Option<&[f64]>,
    antithetic: bool,
) -> Vec<f64> {
    let n_drivers = drivers.len();
    let n_steps = grid.n_steps();
    let dt = grid.dt();
    let stride = n_steps + 1;
    let n_paths = if antithetic { 2 * n_units } else { n_units };
    let initials: Vec<f64> = match overrides {
        Some(o) => o.to_vec(),
        None => drivers.iter().map(|d| d.initial_value()).collect(),
    };
    let mut data = vec![0.0; n_paths * n_drivers * stride];
    let mut raw = vec![0.0; n_drivers];
    let mut shocks = vec![0.0; n_drivers];
    for unit in 0..n_units {
        let mut rng = disar_math::rng::stream_rng(seed, unit as u64);
        let mut gauss = disar_math::rng::StandardNormal::new();
        let mut state_pos = initials.clone();
        let mut state_neg = initials.clone();
        let p_pos = if antithetic { 2 * unit } else { unit };
        for d in 0..n_drivers {
            data[(p_pos * n_drivers + d) * stride] = initials[d];
            if antithetic {
                data[((p_pos + 1) * n_drivers + d) * stride] = initials[d];
            }
        }
        for step in 1..=n_steps {
            for z in raw.iter_mut() {
                *z = gauss.sample(&mut rng);
            }
            corr.correlate_into(&raw, &mut shocks);
            for d in 0..n_drivers {
                state_pos[d] = drivers[d].step(state_pos[d], dt, shocks[d], measure);
                data[(p_pos * n_drivers + d) * stride + step] = state_pos[d];
                if antithetic {
                    state_neg[d] = drivers[d].step(state_neg[d], dt, -shocks[d], measure);
                    data[((p_pos + 1) * n_drivers + d) * stride + step] = state_neg[d];
                }
            }
        }
    }
    data
}

fn assert_view_matches_flat(
    view: &ScenarioView<'_>,
    flat: &[f64],
    stride: usize,
) -> Result<(), TestCaseError> {
    for p in 0..view.n_paths() {
        for d in 0..view.n_drivers() {
            for step in 0..stride {
                let reference = flat[(p * view.n_drivers() + d) * stride + step];
                prop_assert_eq!(
                    view.value(p, d, step).to_bits(),
                    reference.to_bits(),
                    "path {} driver {} step {}",
                    p,
                    d,
                    step
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `step_block` is bit-identical to a per-lane scalar `step` loop for
    /// every built-in driver, arbitrary block lengths, states, shocks, step
    /// widths and measures.
    #[test]
    fn step_block_bitwise_matches_scalar(
        len in 1usize..40,
        dt in 0.001f64..1.0,
        risk_neutral in proptest::bool::ANY,
        state_seed in 0u64..1000,
        shock_seed in 0u64..1000,
    ) {
        let measure = if risk_neutral { Measure::RiskNeutral } else { Measure::RealWorld };
        // Shocks and (possibly negative) states from dedicated streams.
        let shocks = disar_math::rng::normal_vec(shock_seed, 0, len);
        let raw_states = disar_math::rng::normal_vec(state_seed, 1, len);
        for d in kernel_drivers() {
            let scale = d.initial_value();
            let states: Vec<f64> = raw_states.iter().map(|z| scale * (1.0 + 0.3 * z)).collect();
            let coeffs = d.step_coeffs(dt, measure);
            let expect: Vec<f64> = states
                .iter()
                .zip(&shocks)
                .map(|(s, z)| d.step(*s, dt, *z, measure))
                .collect();
            let mut block = states.clone();
            d.step_block(&mut block, &shocks, dt, &coeffs, measure);
            for (i, (a, b)) in block.iter().zip(&expect).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "{} lane {}", d.name(), i);
            }
        }
    }

    /// The block fill reproduces the scalar reference loop to the bit for
    /// unit counts below, at and beyond the block width — plain and
    /// antithetic, with and without re-anchoring overrides.
    #[test]
    fn lane_fill_bitwise_matches_scalar_reference(
        seed in 0u64..1000,
        n_units in 1usize..40,
        risk_neutral in proptest::bool::ANY,
        with_override in proptest::bool::ANY,
        antithetic in proptest::bool::ANY,
        r0 in 0.0f64..0.08,
        s0 in 10.0f64..500.0,
        fx0 in 0.5f64..2.0,
        c0 in 0.0f64..0.05,
    ) {
        let gen = kernel_generator();
        let drivers = kernel_drivers();
        let corr = kernel_correlation();
        let measure = if risk_neutral { Measure::RiskNeutral } else { Measure::RealWorld };
        let overrides = [r0, s0, fx0, c0];
        let ov = with_override.then_some(&overrides[..]);
        let reference = reference_scalar_paths(
            &drivers, &corr, gen.grid(), measure, n_units, seed, ov, antithetic,
        );
        let stride = gen.grid().n_steps() + 1;
        let mut buf = ScenarioBuffer::new();
        if antithetic {
            gen.generate_antithetic_into(measure, n_units, seed, ov, &mut buf)
                .expect("ok");
        } else {
            gen.generate_into(measure, n_units, seed, ov, &mut buf)
                .expect("ok");
        }
        assert_view_matches_flat(&buf.view(), &reference, stride)?;
    }
}
