//! Cross-crate property tests on the system's core invariants.

use disar_bench::campaign::{build_knowledge_base, CampaignConfig, EebJob};
use disar_suite::actuarial::contracts::ProfitSharing;
use disar_suite::actuarial::lapse::{ConstantLapse, LapseModel};
use disar_suite::actuarial::mortality::LifeTable;
use disar_suite::cloudsim::billing::{prorated_cost, BillingPolicy};
use disar_suite::cloudsim::{CloudProvider, InstanceCatalog, Workload};
use disar_suite::core::{select_configuration, CoreError, PredictorFamily, RetrainMode};
use disar_suite::math::check::{cases, vec_of};
use disar_suite::math::poly::MultiBasis;
use disar_suite::math::stats;
use std::sync::OnceLock;

/// One trained family shared across `predicted_cost_matches_prorated_billing`
/// cases — retraining on every case would dominate the run time.
fn trained_family() -> &'static (PredictorFamily, Vec<EebJob>) {
    static FAMILY: OnceLock<(PredictorFamily, Vec<EebJob>)> = OnceLock::new();
    FAMILY.get_or_init(|| {
        let (kb, _, jobs) = build_knowledge_base(&CampaignConfig {
            n_runs: 120,
            n_outer: 200,
            n_inner: 20,
            max_nodes: 4,
            seed: 11,
        });
        let mut family = PredictorFamily::new(1, 2);
        family
            .retrain(&kb, RetrainMode::Full, 1)
            .expect("120 runs are enough");
        (family, jobs)
    })
}

/// Eq. (2)–(3): the readjustment factor is always ≥ 1 (the technical
/// guarantee is a floor) and multiplicative over path splits.
#[test]
fn readjustment_factor_floor_and_multiplicativity() {
    cases(256, |rng| {
        let (beta, tech) = (rng.gen_range(0.01..0.99), rng.gen_range(0.0..0.05));
        let returns = vec_of(rng, 1..30, |rng| rng.gen_range(-0.5..0.5));
        let split = rng.gen_range(0usize..30);
        let ps = ProfitSharing::new(beta, tech).unwrap();
        let phi = ps.readjustment_factor(&returns);
        assert!(phi >= 1.0 - 1e-12);
        let k = split.min(returns.len());
        let left = ps.readjustment_factor(&returns[..k]);
        let right = ps.readjustment_factor(&returns[k..]);
        assert!((phi - left * right).abs() < 1e-9 * phi.max(1.0));
    });
}

/// Readjustment is monotone in the participation coefficient.
#[test]
fn readjustment_monotone_in_beta() {
    cases(256, |rng| {
        let (beta1, delta): (f64, f64) = (rng.gen_range(0.01..0.98), rng.gen_range(0.001..0.01));
        let (tech, ret) = (rng.gen_range(0.0..0.05), rng.gen_range(-0.5..0.5));
        let lo = ProfitSharing::new(beta1, tech).unwrap();
        let hi = ProfitSharing::new((beta1 + delta).min(0.99), tech).unwrap();
        assert!(hi.readjustment_rate(ret) >= lo.readjustment_rate(ret) - 1e-15);
    });
}

/// Survival probabilities multiply: `t+s p_x = t p_x · s p_{x+t}`.
#[test]
fn survival_chain_rule() {
    cases(256, |rng| {
        let age = rng.gen_range(20u32..90);
        let (t, s) = (rng.gen_range(0u32..30), rng.gen_range(0u32..30));
        let table = LifeTable::italian_population();
        let joint = table.survival_probability(age, t + s);
        let chained = table.survival_probability(age, t) * table.survival_probability(age + t, s);
        assert!((joint - chained).abs() < 1e-12);
    });
}

/// Persistency is a product of per-year factors, so it never increases
/// with time.
#[test]
fn persistency_monotone() {
    cases(256, |rng| {
        let (rate, t) = (rng.gen_range(0.0..0.5), rng.gen_range(1u32..50));
        let l = ConstantLapse::new(rate).unwrap();
        assert!(l.persistency(t) <= l.persistency(t - 1) + 1e-15);
    });
}

/// Billing: the per-hour invoice never undercuts the prorated cost and
/// both scale linearly in node count.
#[test]
fn billing_dominance_and_linearity() {
    cases(256, |rng| {
        let (secs, rate) = (rng.gen_range(0.0..100_000.0), rng.gen_range(0.01..20.0));
        let n = rng.gen_range(1usize..64);
        let billed = BillingPolicy::PerHour.cost(secs, rate, n).unwrap();
        let pro = prorated_cost(secs, rate, n).unwrap();
        assert!(billed + 1e-9 >= pro);
        let billed1 = BillingPolicy::PerHour.cost(secs, rate, 1).unwrap();
        assert!((billed - billed1 * n as f64).abs() < 1e-9 * billed.max(1.0));
    });
}

/// Quantiles are monotone in p and bounded by the sample extremes.
#[test]
fn quantile_monotonicity() {
    cases(256, |rng| {
        let xs = vec_of(rng, 1..200, |rng| rng.gen_range(-1e6..1e6));
        let (p1, p2): (f64, f64) = (rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0));
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let qlo = stats::quantile(&xs, lo);
        let qhi = stats::quantile(&xs, hi);
        assert!(qlo <= qhi + 1e-9);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(qlo >= min - 1e-9 && qhi <= max + 1e-9);
    });
}

/// The multivariate basis always has C(dim + deg, dim) functions and a
/// constant leading term.
#[test]
fn basis_size_and_constant() {
    cases(256, |rng| {
        let (dim, deg) = (rng.gen_range(1usize..5), rng.gen_range(0usize..5));
        let b = MultiBasis::new(dim, deg);
        // C(dim+deg, dim)
        let mut expect = 1usize;
        for i in 0..dim {
            expect = expect * (deg + i + 1) / (i + 1);
        }
        assert_eq!(b.len(), expect);
        let x = vec![0.3; dim];
        assert_eq!(b.eval(&x)[0], 1.0);
    });
}

/// Cloud invariants for arbitrary workloads: duration positive, cost
/// consistent with the billing identities, idle fractions in [0, 1].
#[test]
fn cloud_job_invariants() {
    cases(256, |rng| {
        let (work, mem) = (rng.gen_range(10.0..1e6), rng.gen_range(0.0..200.0));
        let (transfer, serial) = (rng.gen_range(0.0..1000.0), rng.gen_range(0.0..0.3));
        let (n, seed) = (rng.gen_range(1usize..16), rng.gen_range(0u64..1000));
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 0);
        let wl = Workload::new(work, mem, transfer, serial).unwrap();
        let r = provider
            .run_job_with_seed("c4.8xlarge", n, &wl, seed)
            .unwrap();
        assert!(r.duration_secs > 0.0);
        assert!(r.uptime_secs >= r.duration_secs);
        assert!(r.billed_cost + 1e-9 >= r.prorated_cost);
        for f in &r.idle_fractions {
            assert!((0.0..=1.0).contains(f));
        }
        // Slowest node defines the barrier: someone has zero idle.
        assert!(r.idle_fractions.iter().any(|&f| f < 1e-9));
    });
}

/// Algorithm 1's `predicted_cost` is exactly the prorated bill for the
/// predicted duration (`cloudsim::billing::prorated_cost`) and is
/// strictly positive for every feasible candidate — non-positive
/// predicted times are rejected before candidates are built.
#[test]
fn predicted_cost_matches_prorated_billing() {
    cases(256, |rng| {
        let (t_max, max_nodes) = (rng.gen_range(500.0..200_000.0), rng.gen_range(1usize..8));
        let (job_i, seed) = (rng.gen_range(0usize..15), rng.gen_range(0u64..64));
        let (family, jobs) = trained_family();
        let catalog = InstanceCatalog::paper_catalog();
        match select_configuration(
            family,
            &catalog,
            &jobs[job_i].profile,
            t_max,
            max_nodes,
            0.1,
            seed,
        ) {
            Ok(sel) => {
                for c in sel.feasible.iter().chain(std::iter::once(&sel.chosen)) {
                    let inst = catalog.get(&c.instance).expect("candidate from catalog");
                    let pro = prorated_cost(c.predicted_secs, inst.hourly_cost, c.n_nodes)
                        .expect("positive predicted time");
                    assert!(c.predicted_secs > 0.0);
                    assert!(c.predicted_cost > 0.0);
                    assert!(
                        (c.predicted_cost - pro).abs() <= 1e-9 * pro.max(1.0),
                        "cost {} != prorated {pro}",
                        c.predicted_cost
                    );
                }
            }
            Err(CoreError::NoFeasibleConfiguration { .. }) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    });
}
