//! Representative contracts ("model points").
//!
//! The paper's first ML feature is "the number of representative
//! contracts — that is, the policies with equal insurance parameters (same
//! readjustment rate parameters, same age, gender, etc.)". This module
//! groups a raw policy list into such representatives: policies that are
//! identical from the point of view of risk are merged, summing insured
//! sums, which is what makes DISAR's elementary elaboration blocks
//! independent of raw portfolio size.

use crate::contracts::{Contract, ProductKind};
use crate::mortality::Gender;
use crate::ActuarialError;
use std::collections::BTreeMap;

/// A group of identical policies: one representative [`Contract`] plus the
/// number of underlying policies it stands for. The representative's
/// `insured_sum` is the *total* insured sum of the group.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPoint {
    /// The representative contract (insured sum = group total).
    pub contract: Contract,
    /// Number of underlying policies merged into this point.
    pub policy_count: usize,
}

impl ModelPoint {
    /// Wraps a single contract as its own model point.
    pub fn from_contract(contract: Contract) -> Self {
        ModelPoint {
            contract,
            policy_count: 1,
        }
    }
}

/// Grouping key: every field that makes two policies "identical from the
/// point of view of risks".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    kind: ProductKind,
    age: u32,
    gender: Gender,
    term: u32,
    // Basis points to keep the key hashable/orderable.
    participation_bp: u32,
    technical_rate_bp: u32,
    surrender_bp: u32,
}

impl PartialOrd for ProductKind {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ProductKind {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(k: &ProductKind) -> u8 {
            match k {
                ProductKind::PureEndowment => 0,
                ProductKind::Endowment => 1,
                ProductKind::TermInsurance => 2,
                ProductKind::WholeLife => 3,
                ProductKind::LifeAnnuity => 4,
            }
        }
        rank(self).cmp(&rank(other))
    }
}

impl PartialOrd for Gender {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Gender {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(g: &Gender) -> u8 {
            match g {
                Gender::Male => 0,
                Gender::Female => 1,
            }
        }
        rank(self).cmp(&rank(other))
    }
}

fn key_of(c: &Contract) -> Key {
    Key {
        kind: c.kind,
        age: c.age,
        gender: c.gender,
        term: c.term,
        participation_bp: (c.profit_sharing.participation * 10_000.0).round() as u32,
        technical_rate_bp: (c.profit_sharing.technical_rate * 10_000.0).round() as u32,
        surrender_bp: (c.surrender_factor * 10_000.0).round() as u32,
    }
}

/// Groups raw policies into model points (deterministic order: sorted by
/// the grouping key).
///
/// # Errors
///
/// Returns [`ActuarialError::EmptyPortfolio`] for an empty input.
///
/// # Example
///
/// ```
/// use disar_actuarial::contracts::{Contract, ProductKind, ProfitSharing};
/// use disar_actuarial::model_points::group_into_model_points;
/// use disar_actuarial::mortality::Gender;
///
/// let ps = ProfitSharing::new(0.8, 0.02).unwrap();
/// let c = Contract::new(ProductKind::PureEndowment, 40, Gender::Male, 10, 100.0, ps).unwrap();
/// let points = group_into_model_points(vec![c.clone(), c]).unwrap();
/// assert_eq!(points.len(), 1);
/// assert_eq!(points[0].policy_count, 2);
/// assert_eq!(points[0].contract.insured_sum, 200.0);
/// ```
pub fn group_into_model_points(
    contracts: Vec<Contract>,
) -> Result<Vec<ModelPoint>, ActuarialError> {
    if contracts.is_empty() {
        return Err(ActuarialError::EmptyPortfolio);
    }
    let mut groups: BTreeMap<Key, ModelPoint> = BTreeMap::new();
    for c in contracts {
        let key = key_of(&c);
        groups
            .entry(key)
            .and_modify(|mp| {
                mp.policy_count += 1;
                mp.contract.insured_sum += c.insured_sum;
            })
            .or_insert_with(|| ModelPoint::from_contract(c));
    }
    Ok(groups.into_values().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::ProfitSharing;

    fn contract(age: u32, term: u32, sum: f64) -> Contract {
        Contract::new(
            ProductKind::Endowment,
            age,
            Gender::Female,
            term,
            sum,
            ProfitSharing::new(0.8, 0.02).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn identical_policies_merge() {
        let pts =
            group_into_model_points(vec![contract(40, 10, 100.0), contract(40, 10, 250.0)])
                .unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].policy_count, 2);
        assert_eq!(pts[0].contract.insured_sum, 350.0);
    }

    #[test]
    fn different_ages_stay_separate() {
        let pts =
            group_into_model_points(vec![contract(40, 10, 100.0), contract(41, 10, 100.0)])
                .unwrap();
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn different_profit_sharing_stay_separate() {
        let mut c2 = contract(40, 10, 100.0);
        c2.profit_sharing = ProfitSharing::new(0.85, 0.02).unwrap();
        let pts = group_into_model_points(vec![contract(40, 10, 100.0), c2]).unwrap();
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn total_sum_preserved() {
        let contracts: Vec<Contract> = (0..100)
            .map(|i| contract(30 + (i % 5), 5 + (i % 3), 10.0 + i as f64))
            .collect();
        let total: f64 = contracts.iter().map(|c| c.insured_sum).sum();
        let pts = group_into_model_points(contracts).unwrap();
        let grouped: f64 = pts.iter().map(|p| p.contract.insured_sum).sum();
        assert!((total - grouped).abs() < 1e-9);
        let count: usize = pts.iter().map(|p| p.policy_count).sum();
        assert_eq!(count, 100);
    }

    #[test]
    fn deterministic_order() {
        let a = group_into_model_points(vec![contract(45, 10, 1.0), contract(40, 10, 1.0)])
            .unwrap();
        let b = group_into_model_points(vec![contract(40, 10, 1.0), contract(45, 10, 1.0)])
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(a[0].contract.age, 40);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(
            group_into_model_points(vec![]),
            Err(ActuarialError::EmptyPortfolio)
        ));
    }
}
