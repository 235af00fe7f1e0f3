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
//!   real nested Monte Carlo valuation (DiActEng + DiAlmEng), with EEBs
//!   distributed by LPT scheduling. This path produces true SCR numbers and
//!   true wall-clock times;
//! - [`DisarMaster::run_cloud`] — the *transparent cloud deploy*: the merged
//!   type-B workload is handed to the simulated cloud, which returns the
//!   realized duration and cost that feed the provisioning knowledge base.

use crate::complexity::ComplexityModel;
use crate::eeb::{decompose, Eeb, EebCharacteristics, EebKind};
use crate::scheduler::lpt_schedule;
use crate::simulation::SimulationSpec;
use crate::EngineError;
use disar_actuarial::engine::ActuarialEngine;
use disar_actuarial::lapse::DurationLapse;
use disar_actuarial::mortality::LifeTable;
use disar_alm::liability::LiabilityPosition;
use disar_alm::nested::NestedMonteCarlo;
use disar_alm::ValuationWorkspace;
use disar_cloudsim::{CloudProvider, JobReport, Workload};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Result of a full local (real-computation) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalOutcome {
    /// Aggregate Solvency Capital Requirement across all EEBs.
    pub scr: f64,
    /// Aggregate best-estimate liability.
    pub bel: f64,
    /// Mean of the aggregate `Y_1` distribution.
    pub mean_y1: f64,
    /// 99.5 % quantile of the aggregate `Y_1` distribution.
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
    /// units: type-A EEBs through DiActEng, type-B EEBs through nested
    /// Monte Carlo, distributed by LPT on estimated complexity.
    ///
    /// All type-B EEBs share the same outer-path seed, so their `Y_1`
    /// vectors are comonotone by scenario and add element-wise; the SCR is
    /// computed on the aggregate distribution (as DISAR combines
    /// locally-computed values after the gather).
    ///
    /// # Errors
    ///
    /// Propagates actuarial, stochastic and ALM failures.
    pub fn run_local(&self, threads: usize) -> Result<LocalOutcome, EngineError> {
        self.run_local_monitored(threads, &crate::progress::NoopMonitor)
    }

    /// [`DisarMaster::run_local`] with a [`crate::progress::ProgressMonitor`]
    /// observing EEB lifecycle events (the DiInt view).
    ///
    /// # Errors
    ///
    /// Same contract as [`DisarMaster::run_local`].
    pub fn run_local_monitored(
        &self,
        threads: usize,
        monitor: &dyn crate::progress::ProgressMonitor,
    ) -> Result<LocalOutcome, EngineError> {
        if threads == 0 {
            return Err(EngineError::InvalidParameter("threads must be > 0"));
        }
        let start = Instant::now();
        let eebs = self.eebs()?;
        monitor.on_event(crate::progress::ProgressEvent::Decomposed {
            n_type_b: eebs
                .iter()
                .filter(|e| e.kind == EebKind::AlmValuation)
                .count(),
        });

        // DiActEng: probabilized schedules for every type-B block (the
        // type-A work, cheap and done up front).
        let table = LifeTable::italian_population();
        let lapse = DurationLapse::italian_typical();
        let act = ActuarialEngine::new(&table, &lapse);
        let type_b: Vec<&Eeb> = eebs
            .iter()
            .filter(|e| e.kind == EebKind::AlmValuation)
            .collect();
        let mut positions_per_eeb: Vec<Vec<LiabilityPosition>> = Vec::with_capacity(type_b.len());
        for eeb in &type_b {
            let mut positions = Vec::with_capacity(eeb.model_points.len());
            for mp in &eeb.model_points {
                positions.push(LiabilityPosition {
                    schedule: act.cash_flow_schedule(mp)?,
                    profit_sharing: mp.contract.profit_sharing,
                });
            }
            positions_per_eeb.push(positions);
        }

        // DiAlmEng: nested Monte Carlo per type-B EEB, scheduled by LPT.
        let horizon = self
            .characteristics()?
            .max_horizon
            .max(1) as f64;
        let outer_gen = self.spec.market.build_generator(1.0, self.spec.steps_per_year)?;
        let inner_gen = self
            .spec
            .market
            .build_generator(horizon, self.spec.steps_per_year)?;
        let costs: Vec<f64> = type_b
            .iter()
            .map(|e| self.complexity.work_units(e, &self.spec))
            .collect();
        let schedule = lpt_schedule(&costs, threads.min(type_b.len()))?;

        let nested = NestedMonteCarlo::new(
            &outer_gen,
            &inner_gen,
            &self.spec.fund,
            self.spec.market.equity_driver(),
            self.spec.market.rate_driver(),
        )?;
        let config = self.spec.nested_config();

        // One worker per schedule unit, each draining its EEB list.
        let positions_ref = &positions_per_eeb;
        let nested_ref = &nested;
        let config_ref = &config;
        let results: Vec<Result<Vec<(usize, disar_alm::NestedResult)>, EngineError>> =
            crossbeam::thread::scope(|s| {
                let handles: Vec<_> = schedule
                    .assignment
                    .iter()
                    .enumerate()
                    .map(|(unit, unit_items)| {
                        let items = unit_items.clone();
                        s.spawn(move |_| {
                            let mut out = Vec::with_capacity(items.len());
                            // One workspace per worker, reused across the
                            // sequential nested runs of its whole EEB list.
                            let mut ws = ValuationWorkspace::new();
                            for i in items {
                                monitor.on_event(
                                    crate::progress::ProgressEvent::EebStarted { eeb: i, unit },
                                );
                                let res = nested_ref
                                    .run_with_workspace(&positions_ref[i], config_ref, &mut ws)
                                    .map_err(EngineError::from)?;
                                monitor.on_event(
                                    crate::progress::ProgressEvent::EebCompleted { eeb: i, unit },
                                );
                                out.push((i, res));
                            }
                            Ok(out)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            })
            .expect("thread scope failed");

        // Gather: element-wise aggregation of Y_1 across EEBs, summed in
        // block-index order — which unit ran a block depends on the thread
        // count, and the sums must not.
        let mut blocks = Vec::with_capacity(type_b.len());
        for unit in results {
            blocks.extend(unit?);
        }
        blocks.sort_unstable_by_key(|&(i, _)| i);
        let mut y1_total: Vec<f64> = vec![0.0; self.spec.n_outer];
        let mut bel = 0.0;
        for (_, res) in &blocks {
            for (t, y) in y1_total.iter_mut().zip(&res.y1) {
                *t += y;
            }
            bel += res.bel;
        }
        monitor.on_event(crate::progress::ProgressEvent::Gathered);
        let mean_y1 = disar_math::stats::mean(&y1_total);
        let var_quantile = disar_math::stats::quantile(&y1_total, 0.995);
        // Approximate aggregate discount with BEL/mean ratio when positive.
        let avg_df = if mean_y1 > 0.0 {
            (bel / mean_y1).min(1.0)
        } else {
            1.0
        };
        Ok(LocalOutcome {
            scr: (var_quantile - mean_y1) * avg_df,
            bel,
            mean_y1,
            var_quantile,
            wall_secs: start.elapsed().as_secs_f64(),
            n_type_b: type_b.len(),
        })
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
        assert_eq!(a.scr, b.scr, "results must not depend on the schedule");
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

    #[test]
    fn thread_count_does_not_change_the_bits() {
        // Five blocks on two units: LPT interleaves them, so schedule order
        // and block order differ.
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
    fn monitor_sees_full_lifecycle() {
        use crate::progress::{ProgressEvent, RecordingMonitor};
        let master = DisarMaster::new(tiny_spec(17)).unwrap().with_blocks(3).unwrap();
        let monitor = RecordingMonitor::new();
        let out = master.run_local_monitored(2, &monitor).unwrap();
        let events = monitor.events();
        assert_eq!(events[0], ProgressEvent::Decomposed { n_type_b: 3 });
        assert_eq!(*events.last().unwrap(), ProgressEvent::Gathered);
        assert_eq!(monitor.completed(), out.n_type_b);
        // Every EEB starts before it completes.
        for eeb in 0..3 {
            let start = events
                .iter()
                .position(|e| matches!(e, ProgressEvent::EebStarted { eeb: i, .. } if *i == eeb));
            let done = events
                .iter()
                .position(|e| matches!(e, ProgressEvent::EebCompleted { eeb: i, .. } if *i == eeb));
            assert!(start.unwrap() < done.unwrap());
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
