//! Full Solvency II internal-model valuation: nested Monte Carlo vs the
//! LSMC shortcut on the same book, with the SCR and its statistical error.
//!
//! This is the workload the paper's cloud deploy exists to serve — the
//! "consistent evaluation and continuous monitoring of risks" the Directive
//! mandates.
//!
//! ```text
//! cargo run --release --example solvency_valuation
//! ```

use disar_suite::actuarial::contracts::{Contract, ProductKind, ProfitSharing};
use disar_suite::actuarial::engine::ActuarialEngine;
use disar_suite::actuarial::lapse::DurationLapse;
use disar_suite::actuarial::model_points::ModelPoint;
use disar_suite::actuarial::mortality::{Gender, LifeTable};
use disar_suite::alm::liability::LiabilityPosition;
use disar_suite::alm::lsmc::{Lsmc, LsmcConfig};
use disar_suite::alm::nested::{NestedConfig, NestedMonteCarlo};
use disar_suite::alm::SegregatedFund;
use disar_suite::stochastic::drivers::{Gbm, Vasicek};
use disar_suite::stochastic::scenario::{ScenarioGenerator, TimeGrid};
use disar_suite::stochastic::CorrelationMatrix;

fn market(horizon: f64) -> Result<ScenarioGenerator, Box<dyn std::error::Error>> {
    Ok(ScenarioGenerator::builder()
        .driver(Box::new(Vasicek::new(0.025, 0.4, 0.028, 0.009, 0.15)?))
        .driver(Box::new(Gbm::new(100.0, 0.065, 0.17, 0.025)?))
        .correlation(CorrelationMatrix::new(vec![
            vec![1.0, -0.25],
            vec![-0.25, 1.0],
        ])?)
        .grid(TimeGrid::new(horizon, 12)?)
        .build()?)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The liability book: three endowment cohorts with different
    // guarantees, evaluated through DiActEng first.
    let table = LifeTable::italian_population();
    let lapse = DurationLapse::italian_typical();
    let act = ActuarialEngine::new(&table, &lapse);
    let mut positions = Vec::new();
    for (age, term, tech) in [(45u32, 15u32, 0.0f64), (55, 10, 0.01), (62, 8, 0.02)] {
        let ps = ProfitSharing::new(0.8, tech)?;
        let contract =
            Contract::new(ProductKind::Endowment, age, Gender::Female, term, 100_000.0, ps)?;
        let mp = ModelPoint {
            contract,
            policy_count: 250,
        };
        positions.push(LiabilityPosition {
            schedule: act.cash_flow_schedule(&mp)?,
            profit_sharing: ps,
        });
    }
    println!("book: {} cohorts, {} expected benefit units",
        positions.len(),
        positions
            .iter()
            .map(|p| p.schedule.total_expected_benefits())
            .sum::<f64>() as i64
    );

    let outer = market(1.0)?;
    let inner = market(15.0)?;
    let fund = SegregatedFund::italian_typical(40);

    // Plain nested Monte Carlo (the reference method).
    let nested = NestedMonteCarlo::new(&outer, &inner, &fund, 1, 0)?;
    let t0 = std::time::Instant::now();
    let nres = nested.run(
        &positions,
        &NestedConfig {
            n_outer: 500,
            n_inner: 50,
            seed: 2024,
            threads: 4,
        },
    )?;
    let nested_wall = t0.elapsed().as_secs_f64();
    println!(
        "\nnested MC (500 x 50, 4 threads): {:.1}s\n  BEL = {:.0}   E[Y1] = {:.0} ± {:.0}\n  q99.5(Y1) = {:.0}   SCR = {:.0}",
        nested_wall, nres.bel, nres.mean, nres.std_error, nres.var_quantile, nres.scr
    );

    // LSMC: calibrate on a small sample, evaluate the expansion on the
    // full outer set — the inner-simulation bill disappears.
    let lsmc = Lsmc::new(&outer, &inner, &fund, 1, 0)?;
    let t1 = std::time::Instant::now();
    let lres = lsmc.run(
        &positions,
        &LsmcConfig {
            calibration_outer: 100,
            calibration_inner: 50,
            n_outer: 500,
            ..LsmcConfig::paper_defaults(2024)
        },
    )?;
    let lsmc_wall = t1.elapsed().as_secs_f64();
    println!(
        "LSMC (calibrate 100 x 50, evaluate 500): {:.1}s ({:.1}x faster)\n  BEL = {:.0}   E[Y1] = {:.0}\n  q99.5(Y1) = {:.0}   SCR = {:.0}",
        lsmc_wall,
        nested_wall / lsmc_wall.max(1e-9),
        lres.bel,
        lres.mean,
        lres.var_quantile,
        lres.scr
    );
    println!(
        "\nmean-Y1 agreement: {:.2}%",
        100.0 * (lres.mean - nres.mean).abs() / nres.mean
    );

    // Compose the regulatory balance sheet from the nested valuation,
    // assuming assets at 125 % of BEL and a 7-year liability duration.
    let report =
        disar_suite::alm::SolvencyReport::from_valuation(1.25 * nres.bel, &nres, 7.0)?;
    println!(
        "\nSolvency II position (assets at 125% of BEL):\n  \
         technical provisions = {:.0} (BEL {:.0} + risk margin {:.0})\n  \
         own funds            = {:.0}\n  \
         SCR                  = {:.0}\n  \
         solvency ratio       = {:.0}%{}",
        report.technical_provisions,
        report.bel,
        report.risk_margin,
        report.own_funds,
        report.scr,
        report.solvency_ratio * 100.0,
        if report.is_compliant() { "  [compliant]" } else { "  [BREACH]" }
    );
    Ok(())
}
