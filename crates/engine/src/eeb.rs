//! Elementary elaboration blocks (EEBs).
//!
//! "DISAR allows an efficient parallelization of the computation because it
//! relies on elementary elaboration blocks (EEB), which are a set of
//! elaborations identified by common characteristics that make them
//! identical from the point of view of risks. In particular, two types of
//! EEBs are considered: A) actuarial valuation … and B) Asset-Liability
//! Management valuation" (§II).
//!
//! An [`Eeb`] is a slice of the portfolio (a group of model points sharing
//! product characteristics) tagged with its type and with the
//! characteristic parameters the paper feeds to the ML models:
//! representative-contract count, maximum horizon, segregated-fund asset
//! number and financial risk-factor count.

use crate::simulation::SimulationSpec;
use crate::EngineError;
use disar_actuarial::model_points::ModelPoint;
use disar_math::json::{Json, JsonError};

/// The two EEB types of §II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EebKind {
    /// Type A: actuarial valuation (probabilized cash flows) — DiActEng.
    ActuarialValuation,
    /// Type B: market-consistent ALM valuation — DiAlmEng. The
    /// time-dominant kind the paper offloads to the cloud.
    AlmValuation,
}

/// The characteristic parameters of an EEB — "the parameters … that induce
/// the highest variability in the execution time" (§III), i.e. the ML
/// feature vector `f`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EebCharacteristics {
    /// Number of representative contracts in the block.
    pub representative_contracts: usize,
    /// Maximum time horizon (years) over the block's contracts.
    pub max_horizon: u32,
    /// Segregated-fund asset count.
    pub fund_assets: usize,
    /// Number of financial risk factors of the market model.
    pub risk_factors: usize,
}

impl EebCharacteristics {
    /// Flattens into the ML feature order used across the workspace.
    pub fn to_features(&self) -> Vec<f64> {
        let mut f = Vec::with_capacity(4);
        self.features_into(&mut f);
        f
    }

    /// Appends the features of [`EebCharacteristics::to_features`] onto
    /// `out` — the allocation-free variant for batched featurization.
    pub fn features_into(&self, out: &mut Vec<f64>) {
        out.push(self.representative_contracts as f64);
        out.push(self.max_horizon as f64);
        out.push(self.fund_assets as f64);
        out.push(self.risk_factors as f64);
    }

    /// The feature names matching [`EebCharacteristics::to_features`].
    pub fn feature_names() -> Vec<String> {
        vec![
            "representative_contracts".to_string(),
            "max_horizon".to_string(),
            "fund_assets".to_string(),
            "risk_factors".to_string(),
        ]
    }

    /// The characteristics as they sit inside a knowledge-base record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "representative_contracts",
                self.representative_contracts.into(),
            ),
            ("max_horizon", self.max_horizon.into()),
            ("fund_assets", self.fund_assets.into()),
            ("risk_factors", self.risk_factors.into()),
        ])
    }

    /// Reads the characteristics back from [`EebCharacteristics::to_json`]'s
    /// object.
    ///
    /// # Errors
    ///
    /// Names the first field that is missing or holds another type.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(EebCharacteristics {
            representative_contracts: json.uint_at("representative_contracts")?,
            max_horizon: json.uint_at("max_horizon")?,
            fund_assets: json.uint_at("fund_assets")?,
            risk_factors: json.uint_at("risk_factors")?,
        })
    }
}

/// One elementary elaboration block.
#[derive(Debug, Clone, PartialEq)]
pub struct Eeb {
    /// Stable identifier within the simulation.
    pub id: usize,
    /// Block type (A or B).
    pub kind: EebKind,
    /// The model points this block elaborates.
    pub model_points: Vec<ModelPoint>,
    /// The characteristic parameters of the block.
    pub characteristics: EebCharacteristics,
}

/// Splits a simulation's portfolio into `n_blocks` type-B EEBs (plus their
/// type-A siblings), balancing representative contracts across blocks.
///
/// The paper uses 15 EEBs over three portfolios; the decomposition here
/// deals model points round-robin after sorting by horizon so blocks get
/// heterogeneous-but-balanced work, then derives each block's
/// characteristics.
///
/// # Errors
///
/// Returns [`EngineError::InvalidParameter`] if `n_blocks` is zero or
/// exceeds the number of model points.
pub fn decompose(spec: &SimulationSpec, n_blocks: usize) -> Result<Vec<Eeb>, EngineError> {
    spec.validate()?;
    let points = &spec.portfolio.model_points;
    if n_blocks == 0 {
        return Err(EngineError::InvalidParameter("n_blocks must be > 0"));
    }
    if n_blocks > points.len() {
        return Err(EngineError::InvalidParameter(
            "n_blocks exceeds available model points",
        ));
    }

    // Sort indices by horizon (descending) and deal round-robin.
    let omega = 120;
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(points[i].contract.term_years(omega)));
    let mut buckets: Vec<Vec<ModelPoint>> = vec![Vec::new(); n_blocks];
    for (pos, &i) in order.iter().enumerate() {
        buckets[pos % n_blocks].push(points[i].clone());
    }

    let mut eebs = Vec::with_capacity(2 * n_blocks);
    let mut id = 0;
    for bucket in buckets {
        let characteristics = EebCharacteristics {
            representative_contracts: bucket.len(),
            max_horizon: bucket
                .iter()
                .map(|p| p.contract.term_years(omega))
                .max()
                .unwrap_or(0),
            fund_assets: spec.fund.asset_count(),
            risk_factors: spec.market.risk_factors(),
        };
        // Each bucket yields a type-A block (cheap) and a type-B block
        // (the cloud-offloaded one) over the same policies.
        eebs.push(Eeb {
            id,
            kind: EebKind::ActuarialValuation,
            model_points: bucket.clone(),
            characteristics,
        });
        id += 1;
        eebs.push(Eeb {
            id,
            kind: EebKind::AlmValuation,
            model_points: bucket,
            characteristics,
        });
        id += 1;
    }
    Ok(eebs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::MarketModel;
    use disar_actuarial::portfolio::PortfolioSpec;
    use disar_alm::SegregatedFund;

    fn spec() -> SimulationSpec {
        let portfolio = PortfolioSpec {
            n_policies: 2_000,
            ..PortfolioSpec::default()
        }
        .generate("t", 3)
        .unwrap();
        SimulationSpec {
            portfolio,
            fund: SegregatedFund::italian_typical(25),
            market: MarketModel::Full,
            n_outer: 100,
            n_inner: 20,
            steps_per_year: 12,
            seed: 1,
            lane: crate::simulation::DEFAULT_LANE,
        }
    }

    #[test]
    fn decompose_produces_a_and_b_pairs() {
        let s = spec();
        let eebs = decompose(&s, 5).unwrap();
        assert_eq!(eebs.len(), 10);
        let a = eebs
            .iter()
            .filter(|e| e.kind == EebKind::ActuarialValuation)
            .count();
        assert_eq!(a, 5);
    }

    #[test]
    fn every_model_point_lands_in_exactly_one_type_b_block() {
        let s = spec();
        let total = s.portfolio.model_points.len();
        let eebs = decompose(&s, 4).unwrap();
        let in_blocks: usize = eebs
            .iter()
            .filter(|e| e.kind == EebKind::AlmValuation)
            .map(|e| e.model_points.len())
            .sum();
        assert_eq!(in_blocks, total);
    }

    #[test]
    fn characteristics_are_consistent() {
        let s = spec();
        let eebs = decompose(&s, 3).unwrap();
        for e in &eebs {
            assert_eq!(e.characteristics.representative_contracts, e.model_points.len());
            assert_eq!(e.characteristics.fund_assets, 25);
            assert_eq!(e.characteristics.risk_factors, 4);
            let max_h = e
                .model_points
                .iter()
                .map(|p| p.contract.term_years(120))
                .max()
                .unwrap();
            assert_eq!(e.characteristics.max_horizon, max_h);
        }
    }

    #[test]
    fn blocks_are_balanced() {
        let s = spec();
        let eebs = decompose(&s, 5).unwrap();
        let sizes: Vec<usize> = eebs
            .iter()
            .filter(|e| e.kind == EebKind::AlmValuation)
            .map(|e| e.model_points.len())
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1, "round-robin must balance: {sizes:?}");
    }

    #[test]
    fn feature_vector_roundtrip() {
        let c = EebCharacteristics {
            representative_contracts: 120,
            max_horizon: 35,
            fund_assets: 30,
            risk_factors: 2,
        };
        let f = c.to_features();
        assert_eq!(f, vec![120.0, 35.0, 30.0, 2.0]);
        assert_eq!(EebCharacteristics::feature_names().len(), f.len());
    }

    #[test]
    fn invalid_block_counts_rejected() {
        let s = spec();
        assert!(decompose(&s, 0).is_err());
        assert!(decompose(&s, s.portfolio.model_points.len() + 1).is_err());
    }

    #[test]
    fn ids_are_unique() {
        let s = spec();
        let eebs = decompose(&s, 6).unwrap();
        let mut ids: Vec<usize> = eebs.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), eebs.len());
    }
}
