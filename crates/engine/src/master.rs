//! DiMaS — the Disar Master Service.
//!
//! "DiMaS divides all the input data in EEBs, thus it acts as the
//! orchestrator of the system. It defines … the elementary elaboration
//! blocks, estimates the complexity of the elaborations, establishes the
//! elaboration schedule, distributes the elementary requests to the
//! processing units and monitors the process" (§II).
//!
//! Two execution backends are provided:
//!
//! - [`DisarMaster::run_local`] — a *local grid* of worker threads doing the
//!   real nested Monte Carlo valuation (DiActEng + DiAlmEng): one nested
//!   run over all type-B EEBs, the outer paths shared among the workers.
//!   This path produces true SCR numbers and true wall-clock times;
//! - [`DisarMaster::run_cloud`] — the *transparent cloud deploy*: the merged
//!   type-B workload is handed to the simulated cloud, which returns the
//!   realized duration and cost that feed the provisioning knowledge base.

use crate::complexity::ComplexityModel;
use crate::eeb::{decompose, Eeb, EebCharacteristics, EebKind};
use crate::simulation::SimulationSpec;
use crate::EngineError;
use disar_actuarial::engine::ActuarialEngine;
use disar_actuarial::lapse::DurationLapse;
use disar_actuarial::mortality::LifeTable;
use disar_alm::liability::LiabilityPosition;
use disar_alm::nested::{NestedMonteCarlo, SCR_CONFIDENCE};
use disar_cloudsim::{CloudProvider, JobReport, Workload};
use std::time::Instant;

/// Result of a full local (real-computation) run.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalOutcome {
    /// Aggregate Solvency Capital Requirement across all EEBs.
    pub scr: f64,
    /// Aggregate best-estimate liability.
    pub bel: f64,
    /// Mean of the aggregate `Y_1` distribution.
    pub mean_y1: f64,
    /// Quantile of the aggregate `Y_1` distribution at [`SCR_CONFIDENCE`].
    pub var_quantile: f64,
    /// Wall-clock seconds the run took.
    pub wall_secs: f64,
    /// Number of type-B EEBs processed.
    pub n_type_b: usize,
}

/// The master service, configured for one simulation.
pub struct DisarMaster {
    spec: SimulationSpec,
    complexity: ComplexityModel,
    n_blocks: usize,
}

impl DisarMaster {
    /// Creates a master for the given spec with the paper's 15-EEB-like
    /// default block count (clamped to the portfolio size).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidParameter`] for an invalid spec.
    pub fn new(spec: SimulationSpec) -> Result<Self, EngineError> {
        spec.validate()?;
        let n_blocks = 5.min(spec.portfolio.model_points.len());
        Ok(DisarMaster {
            spec,
            complexity: ComplexityModel::default(),
            n_blocks,
        })
    }

    /// Overrides the number of type-B blocks the portfolio is split into.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidParameter`] for zero or more blocks
    /// than model points.
    pub fn with_blocks(mut self, n_blocks: usize) -> Result<Self, EngineError> {
        if n_blocks == 0 || n_blocks > self.spec.portfolio.model_points.len() {
            return Err(EngineError::InvalidParameter(
                "n_blocks must be in 1..=model_points",
            ));
        }
        self.n_blocks = n_blocks;
        Ok(self)
    }

    /// The simulation spec this master orchestrates.
    pub fn spec(&self) -> &SimulationSpec {
        &self.spec
    }

    /// Decomposes the portfolio into EEBs (type A + type B pairs).
    ///
    /// # Errors
    ///
    /// Propagates [`crate::eeb::decompose`] failures.
    pub fn eebs(&self) -> Result<Vec<Eeb>, EngineError> {
        decompose(&self.spec, self.n_blocks)
    }

    /// Job-level characteristic parameters (the merged feature vector `f`
    /// the provisioner predicts on).
    ///
    /// # Errors
    ///
    /// Propagates decomposition failures.
    pub fn characteristics(&self) -> Result<EebCharacteristics, EngineError> {
        let eebs = self.eebs()?;
        let type_b: Vec<&Eeb> = eebs
            .iter()
            .filter(|e| e.kind == EebKind::AlmValuation)
            .collect();
        Ok(EebCharacteristics {
            representative_contracts: type_b
                .iter()
                .map(|e| e.characteristics.representative_contracts)
                .sum(),
            max_horizon: type_b
                .iter()
                .map(|e| e.characteristics.max_horizon)
                .max()
                .unwrap_or(0),
            fund_assets: self.spec.fund.asset_count(),
            risk_factors: self.spec.market.risk_factors(),
        })
    }

    /// The merged type-B cloud workload of the whole simulation.
    ///
    /// # Errors
    ///
    /// Propagates decomposition/estimation failures.
    pub fn cloud_workload(&self) -> Result<Workload, EngineError> {
        let eebs = self.eebs()?;
        self.complexity.merged_workload(&eebs, &self.spec)
    }

    /// Runs the simulation on the simulated cloud: the transparent deploy
    /// path. Returns the cloud's job report (realized duration and cost).
    ///
    /// # Errors
    ///
    /// Propagates estimation and cloud failures.
    pub fn run_cloud(
        &self,
        provider: &CloudProvider,
        instance: &str,
        n_nodes: usize,
    ) -> Result<JobReport, EngineError> {
        let workload = self.cloud_workload()?;
        provider
            .run_job(instance, n_nodes, &workload)
            .map_err(EngineError::from)
    }

    /// Runs the *real* valuation on a local grid of `threads` computing
    /// units: type-A EEBs through DiActEng, then all type-B EEBs through one
    /// nested Monte Carlo run whose outer paths the units share.
    ///
    /// All type-B EEBs share the same seed, hence the same scenarios, which
    /// are generated once per valuation (`NestedMonteCarlo::run_blocks`).
    /// Their `Y_1` vectors are comonotone by scenario and add element-wise;
    /// the SCR is computed on the aggregate distribution (as DISAR combines
    /// locally-computed values after the gather).
    ///
    /// # Errors
    ///
    /// Propagates actuarial, stochastic and ALM failures.
    pub fn run_local(&self, threads: usize) -> Result<LocalOutcome, EngineError> {
        if threads == 0 {
            return Err(EngineError::InvalidParameter("threads must be > 0"));
        }
        let start = Instant::now();
        let blocks = Self::type_b_positions(&self.eebs()?)?;

        // DiAlmEng: one nested Monte Carlo run over every type-B EEB.
        let horizon = self.characteristics()?.max_horizon.max(1) as f64;
        let market = self.spec.market;
        let outer_gen = market.build_generator(1.0, self.spec.steps_per_year)?;
        let inner_gen = market.build_generator(horizon, self.spec.steps_per_year)?;
        let nested = NestedMonteCarlo::new(
            &outer_gen,
            &inner_gen,
            &self.spec.fund,
            market.equity_driver(),
            market.rate_driver(),
        )?;
        let mut config = self.spec.nested_config();
        config.threads = threads;
        let block_refs: Vec<&[LiabilityPosition]> = blocks.iter().map(Vec::as_slice).collect();
        let results = nested.run_blocks(&block_refs, &config)?;

        // Gather: element-wise aggregation of Y_1 across EEBs, in block order.
        let mut y1_total: Vec<f64> = vec![0.0; self.spec.n_outer];
        let mut bel = 0.0;
        for res in &results {
            for (t, y) in y1_total.iter_mut().zip(&res.y1) {
                *t += y;
            }
            bel += res.bel;
        }
        let mean_y1 = disar_math::stats::mean(&y1_total);
        let var_quantile = disar_math::stats::quantile(&y1_total, SCR_CONFIDENCE);
        // The blocks share the outer paths, so each carries the discount the
        // nested run applies to its own SCR.
        Ok(LocalOutcome {
            scr: (var_quantile - mean_y1) * results[0].mean_df1,
            bel,
            mean_y1,
            var_quantile,
            wall_secs: start.elapsed().as_secs_f64(),
            n_type_b: results.len(),
        })
    }

    /// DiActEng: the probabilized schedules of every type-B block of `eebs`
    /// (the type-A work, cheap and done up front), in block order; a typed
    /// error if there is no such block.
    fn type_b_positions(eebs: &[Eeb]) -> Result<Vec<Vec<LiabilityPosition>>, EngineError> {
        let table = LifeTable::italian_population();
        let lapse = DurationLapse::italian_typical();
        let act = ActuarialEngine::new(&table, &lapse);
        let blocks = eebs
            .iter()
            .filter(|e| e.kind == EebKind::AlmValuation)
            .map(|eeb| {
                eeb.model_points
                    .iter()
                    .map(|mp| {
                        Ok(LiabilityPosition {
                            schedule: act.cash_flow_schedule(mp)?,
                            profit_sharing: mp.contract.profit_sharing,
                        })
                    })
                    .collect()
            })
            .collect::<Result<Vec<_>, EngineError>>()?;
        if blocks.is_empty() {
            return Err(EngineError::InvalidParameter("no type-B block to value"));
        }
        Ok(blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::MarketModel;
    use disar_actuarial::portfolio::PortfolioSpec;
    use disar_alm::SegregatedFund;
    use disar_cloudsim::InstanceCatalog;

    fn tiny_spec(seed: u64) -> SimulationSpec {
        let portfolio = PortfolioSpec {
            n_policies: 150,
            term_range: (5, 10),
            product_weights: (0.4, 0.6, 0.0, 0.0),
            ..PortfolioSpec::default()
        }
        .generate("t", seed)
        .unwrap();
        SimulationSpec {
            portfolio,
            fund: SegregatedFund::italian_typical(20),
            market: MarketModel::RatesEquity,
            n_outer: 40,
            n_inner: 8,
            steps_per_year: 4,
            seed,
            lane: crate::simulation::DEFAULT_LANE,
        }
    }

    #[test]
    fn local_run_produces_sane_scr() {
        let master = DisarMaster::new(tiny_spec(3)).unwrap().with_blocks(3).unwrap();
        let out = master.run_local(2).unwrap();
        assert!(out.bel > 0.0);
        assert!(out.scr >= 0.0);
        assert!(out.var_quantile >= out.mean_y1);
        assert!(out.wall_secs > 0.0);
        assert_eq!(out.n_type_b, 3);
    }

    #[test]
    fn local_run_thread_count_invariant() {
        let master = DisarMaster::new(tiny_spec(5)).unwrap().with_blocks(3).unwrap();
        let a = master.run_local(1).unwrap();
        let b = master.run_local(3).unwrap();
        assert_eq!(a.scr, b.scr, "results must not depend on the thread count");
        assert_eq!(a.bel, b.bel);
    }

    #[test]
    fn cloud_run_reports_duration_and_cost() {
        let master = DisarMaster::new(tiny_spec(7)).unwrap();
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 99);
        let r = master.run_cloud(&provider, "c3.4xlarge", 4).unwrap();
        assert_eq!(r.n_nodes, 4);
        assert!(r.duration_secs > 0.0);
        assert!(r.prorated_cost > 0.0);
    }

    #[test]
    fn characteristics_aggregate_over_blocks() {
        let master = DisarMaster::new(tiny_spec(9)).unwrap().with_blocks(4).unwrap();
        let c = master.characteristics().unwrap();
        assert_eq!(
            c.representative_contracts,
            master.spec().portfolio.model_points.len()
        );
        assert!(c.max_horizon >= 5 && c.max_horizon <= 10);
        assert_eq!(c.risk_factors, 2);
        assert_eq!(c.fund_assets, 20);
    }

    #[test]
    fn workload_positive() {
        let master = DisarMaster::new(tiny_spec(11)).unwrap();
        let wl = master.cloud_workload().unwrap();
        assert!(wl.work_units > 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let master = DisarMaster::new(tiny_spec(13)).unwrap();
        assert!(master.run_local(0).is_err());
        let n = tiny_spec(13).portfolio.model_points.len();
        assert!(DisarMaster::new(tiny_spec(13))
            .unwrap()
            .with_blocks(n + 1)
            .is_err());
        assert!(DisarMaster::new(tiny_spec(13))
            .unwrap()
            .with_blocks(0)
            .is_err());
    }

    /// The per-EEB algorithm the shared run replaced: each block through
    /// its own nested run (regenerating the scenarios), `y1` and `bel`
    /// summed in block order.
    fn per_block_reference(master: &DisarMaster) -> LocalOutcome {
        let spec = &master.spec;
        let blocks = DisarMaster::type_b_positions(&master.eebs().unwrap()).unwrap();
        let horizon = f64::from(master.characteristics().unwrap().max_horizon);
        let outer_gen = spec
            .market
            .build_generator(1.0, spec.steps_per_year)
            .unwrap();
        let inner_gen = spec
            .market
            .build_generator(horizon, spec.steps_per_year)
            .unwrap();
        let nested = NestedMonteCarlo::new(&outer_gen, &inner_gen, &spec.fund, 1, 0).unwrap();
        let config = spec.nested_config();
        let mut y1_total = vec![0.0; master.spec.n_outer];
        let (mut bel, mut mean_df1) = (0.0, 0.0);
        for block in &blocks {
            let res = nested.run(block, &config).unwrap();
            for (t, y) in y1_total.iter_mut().zip(&res.y1) {
                *t += y;
            }
            bel += res.bel;
            mean_df1 = res.mean_df1;
        }
        let mean_y1 = disar_math::stats::mean(&y1_total);
        let var_quantile = disar_math::stats::quantile(&y1_total, SCR_CONFIDENCE);
        LocalOutcome {
            scr: (var_quantile - mean_y1) * mean_df1,
            bel,
            mean_y1,
            var_quantile,
            wall_secs: 0.0,
            n_type_b: blocks.len(),
        }
    }

    #[test]
    fn shared_run_matches_per_block_runs_bitwise() {
        let master = DisarMaster::new(tiny_spec(21))
            .unwrap()
            .with_blocks(5)
            .unwrap();
        let reference = per_block_reference(&master);
        for threads in 1..=4 {
            let out = master.run_local(threads).unwrap();
            assert_eq!(out.n_type_b, reference.n_type_b);
            for (a, b) in [
                (out.scr, reference.scr),
                (out.bel, reference.bel),
                (out.mean_y1, reference.mean_y1),
                (out.var_quantile, reference.var_quantile),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn one_block_takes_the_nested_runs_confidence_level() {
        // With one type-B block the aggregate is that block's `Y_1`, so the
        // master's quantile and the nested run's are of the same numbers at
        // the same level, and the master's SCR is the nested run's: the same
        // spread discounted at the same mean factor.
        let master = DisarMaster::new(tiny_spec(25))
            .unwrap()
            .with_blocks(1)
            .unwrap();
        let spec = master.spec();
        let blocks = DisarMaster::type_b_positions(&master.eebs().unwrap()).unwrap();
        assert_eq!(blocks.len(), 1);
        let horizon = master.characteristics().unwrap().max_horizon.max(1) as f64;
        let market = spec.market;
        let outer_gen = market.build_generator(1.0, spec.steps_per_year).unwrap();
        let inner_gen = market
            .build_generator(horizon, spec.steps_per_year)
            .unwrap();
        let (equity, rate) = (market.equity_driver(), market.rate_driver());
        let nested =
            NestedMonteCarlo::new(&outer_gen, &inner_gen, &spec.fund, equity, rate).unwrap();
        let alone = nested
            .run_blocks(&[&blocks[0]], &spec.nested_config())
            .unwrap();
        let out = master.run_local(1).unwrap();
        assert_eq!(out.var_quantile.to_bits(), alone[0].var_quantile.to_bits());
        assert_eq!(out.scr.to_bits(), alone[0].scr.to_bits());
    }

    #[test]
    fn no_type_b_block_is_a_typed_error() {
        let master = DisarMaster::new(tiny_spec(23)).unwrap();
        let type_a: Vec<Eeb> = master
            .eebs()
            .unwrap()
            .into_iter()
            .filter(|e| e.kind == EebKind::ActuarialValuation)
            .collect();
        assert!(matches!(
            DisarMaster::type_b_positions(&type_a),
            Err(EngineError::InvalidParameter(_))
        ));
    }

    #[test]
    fn thread_count_does_not_change_the_bits() {
        // Five blocks, the outer paths split between two workers.
        let master = DisarMaster::new(tiny_spec(3)).unwrap().with_blocks(5).unwrap();
        let one = master.run_local(1).unwrap();
        let two = master.run_local(2).unwrap();
        for (a, b) in [
            (one.scr, two.scr),
            (one.bel, two.bel),
            (one.mean_y1, two.mean_y1),
            (one.var_quantile, two.var_quantile),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
        }
    }

    #[test]
    fn unknown_instance_propagates() {
        let master = DisarMaster::new(tiny_spec(15)).unwrap();
        let provider = CloudProvider::new(InstanceCatalog::paper_catalog(), 1);
        assert!(matches!(
            master.run_cloud(&provider, "q9.giant", 2),
            Err(EngineError::Cloud(_))
        ));
    }
}
