//! Cross-crate property-based tests (proptest) on the system's core
//! invariants.

use disar_bench::campaign::{build_knowledge_base, CampaignConfig, EebJob};
use disar_suite::actuarial::contracts::ProfitSharing;
use disar_suite::actuarial::lapse::{ConstantLapse, LapseModel};
use disar_suite::actuarial::mortality::LifeTable;
use disar_suite::cloudsim::billing::{prorated_cost, BillingPolicy};
use disar_suite::cloudsim::{CloudProvider, InstanceCatalog, Workload};
use disar_suite::core::{select_configuration, CoreError, PredictorFamily, RetrainMode};
use disar_suite::math::poly::{MultiBasis, PolyFamily};
use disar_suite::math::stats;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One trained family shared across `predicted_cost_matches_prorated_billing`
/// cases — retraining on every proptest case would dominate the run time.
fn trained_family() -> &'static (PredictorFamily, Vec<EebJob>) {
    static FAMILY: OnceLock<(PredictorFamily, Vec<EebJob>)> = OnceLock::new();
    FAMILY.get_or_init(|| {
        let (kb, _, jobs) = build_knowledge_base(
            &CampaignConfig::builder()
                .n_runs(120)
                .n_outer(200)
                .n_inner(20)
                .max_nodes(4)
                .seed(11)
                .n_threads(1)
                .build(),
        );
        let mut family = PredictorFamily::new(1, 2);
        family
            .retrain(&kb, RetrainMode::Full, 1)
            .expect("120 runs are enough");
        (family, jobs)
    })
}

proptest! {
    /// Eq. (2)–(3): the readjustment factor is always ≥ 1 (the technical
    /// guarantee is a floor) and multiplicative over path splits.
    #[test]
    fn readjustment_factor_floor_and_multiplicativity(
        beta in 0.01f64..0.99,
        tech in 0.0f64..0.05,
        returns in prop::collection::vec(-0.5f64..0.5, 1..30),
        split in 0usize..30,
    ) {
        let ps = ProfitSharing::new(beta, tech).unwrap();
        let phi = ps.readjustment_factor(&returns);
        prop_assert!(phi >= 1.0 - 1e-12);
        let k = split.min(returns.len());
        let left = ps.readjustment_factor(&returns[..k]);
        let right = ps.readjustment_factor(&returns[k..]);
        prop_assert!((phi - left * right).abs() < 1e-9 * phi.max(1.0));
    }

    /// Readjustment is monotone in the participation coefficient.
    #[test]
    fn readjustment_monotone_in_beta(
        beta1 in 0.01f64..0.98,
        delta in 0.001f64..0.01,
        tech in 0.0f64..0.05,
        ret in -0.5f64..0.5,
    ) {
        let lo = ProfitSharing::new(beta1, tech).unwrap();
        let hi = ProfitSharing::new((beta1 + delta).min(0.99), tech).unwrap();
        prop_assert!(hi.readjustment_rate(ret) >= lo.readjustment_rate(ret) - 1e-15);
    }

    /// Survival probabilities multiply: `t+s p_x = t p_x · s p_{x+t}`.
    #[test]
    fn survival_chain_rule(age in 20u32..90, t in 0u32..30, s in 0u32..30) {
        let table = LifeTable::italian_population();
        let joint = table.survival_probability(age, t + s);
        let chained = table.survival_probability(age, t)
            * table.survival_probability(age + t, s);
        prop_assert!((joint - chained).abs() < 1e-12);
    }

    /// Persistency is a product of per-year factors, so it never increases
    /// with time.
    #[test]
    fn persistency_monotone(rate in 0.0f64..0.5, t in 1u32..50) {
        let l = ConstantLapse::new(rate).unwrap();
        prop_assert!(l.persistency(t) <= l.persistency(t - 1) + 1e-15);
    }

    /// Billing: the per-hour invoice never undercuts the prorated cost and
    /// both scale linearly in node count.
    #[test]
    fn billing_dominance_and_linearity(
        secs in 0.0f64..100_000.0,
        rate in 0.01f64..20.0,
        n in 1usize..64,
    ) {
        let billed = BillingPolicy::PerHour.cost(secs, rate, n).unwrap();
        let pro = prorated_cost(secs, rate, n).unwrap();
        prop_assert!(billed + 1e-9 >= pro);
        let billed1 = BillingPolicy::PerHour.cost(secs, rate, 1).unwrap();
        prop_assert!((billed - billed1 * n as f64).abs() < 1e-9 * billed.max(1.0));
    }

    /// Quantiles are monotone in p and bounded by the sample extremes.
    #[test]
    fn quantile_monotonicity(
        xs in prop::collection::vec(-1e6f64..1e6, 1..200),
        p1 in 0.0f64..1.0,
        p2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let qlo = stats::quantile(&xs, lo);
        let qhi = stats::quantile(&xs, hi);
        prop_assert!(qlo <= qhi + 1e-9);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(qlo >= min - 1e-9 && qhi <= max + 1e-9);
    }

    /// The multivariate basis always has C(dim + deg, dim) functions and a
    /// constant leading term.
    #[test]
    fn basis_size_and_constant(dim in 1usize..5, deg in 0usize..5) {
        let b = MultiBasis::new(PolyFamily::Hermite, dim, deg);
        // C(dim+deg, dim)
        let mut expect = 1usize;
        for i in 0..dim {
            expect = expect * (deg + i + 1) / (i + 1);
        }
        prop_assert_eq!(b.len(), expect);
        let x = vec![0.3; dim];
        prop_assert_eq!(b.eval(&x)[0], 1.0);
    }

    /// Cloud invariants for arbitrary workloads: duration positive, cost
    /// consistent with the billing identities, idle fractions in [0, 1].
    #[test]
    fn cloud_job_invariants(
        work in 10.0f64..1e6,
        mem in 0.0f64..200.0,
        transfer in 0.0f64..1000.0,
        serial in 0.0f64..0.3,
        n in 1usize..16,
        seed in 0u64..1000,
    ) {
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 0);
        let wl = Workload::new(work, mem, transfer, serial).unwrap();
        let r = provider.run_job_with_seed("c4.8xlarge", n, &wl, seed).unwrap();
        prop_assert!(r.duration_secs > 0.0);
        prop_assert!(r.uptime_secs >= r.duration_secs);
        prop_assert!(r.billed_cost + 1e-9 >= r.prorated_cost);
        for f in &r.idle_fractions {
            prop_assert!((0.0..=1.0).contains(f));
        }
        // Slowest node defines the barrier: someone has zero idle.
        prop_assert!(r.idle_fractions.iter().any(|&f| f < 1e-9));
    }

    /// Algorithm 1's `predicted_cost` is exactly the prorated bill for the
    /// predicted duration (`cloudsim::billing::prorated_cost`) and is
    /// strictly positive for every feasible candidate — non-positive
    /// predicted times are rejected before candidates are built.
    #[test]
    fn predicted_cost_matches_prorated_billing(
        t_max in 500.0f64..200_000.0,
        max_nodes in 1usize..8,
        job_i in 0usize..15,
        seed in 0u64..64,
    ) {
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
                    prop_assert!(c.predicted_secs > 0.0);
                    prop_assert!(c.predicted_cost > 0.0);
                    prop_assert!(
                        (c.predicted_cost - pro).abs() <= 1e-9 * pro.max(1.0),
                        "cost {} != prorated {pro}", c.predicted_cost
                    );
                }
            }
            Err(CoreError::NoFeasibleConfiguration { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error: {e}"),
        }
    }
}
