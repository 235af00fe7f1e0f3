//! Scenario-wise liability valuation.
//!
//! Combines the three ingredients the DISAR factorization separates:
//!
//! 1. the *probabilized cash-flow schedule* from DiActEng (actuarial
//!    decrements, financial-independent);
//! 2. the *fund return series* `I_t` from the segregated fund on one
//!    scenario;
//! 3. the *readjustment* `Φ_t` of Eq. (2) and the scenario's discount
//!    factors.
//!
//! The present value of a schedule on a scenario is
//!
//! ```text
//! PV = Σ_t  flow_t · Φ_t · df(t)
//! ```
//!
//! where `flow_t` are pre-readjustment currency units (benefits are linear
//! in the readjusted insured sum, so this is exact, "without loss of
//! information").

use crate::fund::SegregatedFund;
use crate::AlmError;
use disar_actuarial::contracts::ProfitSharing;
use disar_actuarial::engine::CashFlowSchedule;
use disar_math::rng::{stream_rng, StandardNormal};
use disar_stochastic::annual::AnnualRatesEquity;
use disar_stochastic::scenario::ScenarioView;
use std::collections::HashMap;

/// One liability position to value: a probabilized schedule plus its
/// profit-sharing parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LiabilityPosition {
    /// The type-A output for this model point.
    pub schedule: CashFlowSchedule,
    /// The contract's profit-sharing parameters (drives `Φ_t`).
    pub profit_sharing: ProfitSharing,
}

/// Values a set of liability positions on one scenario path.
///
/// Fund returns are computed once per path and shared across positions —
/// the same economy of work DISAR exploits when it groups policies into
/// EEBs on the same segregated fund.
///
/// Flows beyond the scenario horizon are conservatively valued as paid at
/// the horizon (they keep the last available `Φ` and discount factor); in
/// practice generators are built with `horizon ≥ max term` so this is a
/// documented edge case, not the normal path.
///
/// # Errors
///
/// Propagates [`AlmError::ScenarioMismatch`] from the fund-return
/// computation.
pub fn value_positions_on_path(
    positions: &[LiabilityPosition],
    fund: &SegregatedFund,
    set: &ScenarioView<'_>,
    path: usize,
    equity_driver: usize,
    rate_driver: usize,
) -> Result<f64, AlmError> {
    let (mut returns, mut dfs) = (Vec::new(), Vec::new());
    fund.annual_returns_into(set, path, equity_driver, rate_driver, &mut returns)?;
    set.year_discount_factors_into(path, returns.len(), &mut dfs);
    let mut total = 0.0;
    for pos in positions {
        total += position_value(pos, &returns, &dfs);
    }
    Ok(total)
}

/// PV of one position on a path with the given annual fund returns and
/// per-year discount factors.
fn position_value(pos: &LiabilityPosition, returns: &[f64], dfs: &[f64]) -> f64 {
    let n_years = returns.len();
    // Cumulative readjustment factor Φ_t for this position's (β, i).
    let mut phi = 1.0;
    let mut pv = 0.0;
    for flow in &pos.schedule.flows {
        let k = flow.year as usize; // 1-based
        let idx = k.min(n_years); // clamp beyond-horizon flows
        if k <= n_years {
            phi *= 1.0 + pos.profit_sharing.readjustment_rate(returns[k - 1]);
        }
        pv += flow.total() * phi * dfs[idx - 1];
    }
    pv
}

/// Like [`value_positions_on_path`] but returning one PV per position
/// (fund returns still computed once). The nested Monte Carlo needs the
/// per-position split because each position carries its own realized
/// first-year readjustment `Φ_1`.
///
/// # Errors
///
/// Propagates [`AlmError::ScenarioMismatch`] from the fund-return
/// computation.
pub fn value_each_position_on_path(
    positions: &[LiabilityPosition],
    fund: &SegregatedFund,
    set: &ScenarioView<'_>,
    path: usize,
    equity_driver: usize,
    rate_driver: usize,
) -> Result<Vec<f64>, AlmError> {
    let (mut returns, mut dfs) = (Vec::new(), Vec::new());
    fund.annual_returns_into(set, path, equity_driver, rate_driver, &mut returns)?;
    set.year_discount_factors_into(path, returns.len(), &mut dfs);
    let mut out = Vec::with_capacity(positions.len());
    value_each_position_from_series(positions, &returns, &dfs, &mut out);
    Ok(out)
}

/// The one-path position-valuation core behind
/// [`value_each_position_on_path`]: one PV per position written into
/// `out` (cleared first), computed from an already-materialized annual
/// fund-return series and the matching per-year discount factors.
/// `returns.len()` defines the path horizon in years; `dfs` must have the
/// same length.
///
/// It folds `Φ` per position and flow, which on a single path shares
/// nothing worth a table. The nested run values many paths against the same
/// positions and goes through a `LiabilityBook` instead, which sums over the
/// paths before the flows; this kernel is the reference the book is held to
/// within a rounding bound.
pub fn value_each_position_from_series(
    positions: &[LiabilityPosition],
    returns: &[f64],
    dfs: &[f64],
    out: &mut Vec<f64>,
) {
    debug_assert_eq!(returns.len(), dfs.len(), "return/discount series mismatch");
    out.clear();
    out.extend(
        positions
            .iter()
            .map(|pos| position_value(pos, returns, dfs)),
    );
}

/// Year-major panels of the inner paths' annual fund returns and discount
/// factors: entry `[k * n_paths + q]` of `returns` (`dfs`) is year `k + 1` on
/// inner path `q`, so one year's values across all paths are contiguous
/// (what [`LiabilityBook::residuals_over_paths`] reads a row at a time).
/// Every field is rewritten by [`ValuationPanels::fill`] before it is read.
#[derive(Debug, Clone, Default)]
pub(crate) struct ValuationPanels {
    /// One path's standard normals, three per policy year.
    draws: Vec<f64>,
    pub(crate) returns: Vec<f64>,
    pub(crate) dfs: Vec<f64>,
}

impl ValuationPanels {
    /// Reserves the panels for `n_paths` paths of `n_years` years.
    pub(crate) fn reserve(&mut self, n_paths: usize, n_years: usize) {
        let reserve = |v: &mut Vec<f64>, need: usize| v.reserve(need.saturating_sub(v.len()));
        reserve(&mut self.draws, 3 * n_years);
        reserve(&mut self.returns, n_paths * n_years);
        reserve(&mut self.dfs, n_paths * n_years);
    }

    /// Fills the panels for `n_paths` inner paths opening at rate
    /// `rate_start`, each drawn one policy year at a time from `law`.
    ///
    /// Path `q` takes `3 · n_years` normals from `stream_rng(seed, q)`. Per
    /// year the path's draw gives the equity return `exp(X) − 1` and the
    /// average rate `Σ / (spy + 1)` to the fund's
    /// [`SegregatedFund::close_year`], and the trapezoid integral
    /// `dt · (Σ − (r_a + r_b)/2)` to the running discount integral, whose
    /// `exp(−·)` is the year's discount factor. The year closes at `r_b`,
    /// which opens the next.
    pub(crate) fn fill(
        &mut self,
        fund: &SegregatedFund,
        law: &AnnualRatesEquity,
        rate_start: f64,
        seed: u64,
        n_paths: usize,
    ) {
        let n_years = law.n_years();
        let points = (law.steps_per_year() + 1) as f64;
        let dt = law.dt();
        // `resize` without `clear`: every slot is overwritten below.
        self.draws.resize(3 * n_years, 0.0);
        self.returns.resize(n_years * n_paths, 0.0);
        self.dfs.resize(n_years * n_paths, 0.0);
        let mut gauss = StandardNormal::new();
        for q in 0..n_paths {
            gauss.fill(&mut stream_rng(seed, q as u64), &mut self.draws);
            let mut accounts = fund.opening_accounts();
            let (mut rate, mut integral) = (rate_start, 0.0_f64);
            for (k, z) in self.draws.chunks(3).enumerate() {
                let year = law.draw(rate, [z[0], z[1], z[2]]);
                let at = k * n_paths + q;
                self.returns[at] = fund.close_year(
                    &mut accounts,
                    year.log_return.exp() - 1.0,
                    year.rate_sum / points,
                );
                integral += dt * (year.rate_sum - 0.5 * (rate + year.rate_end));
                self.dfs[at] = (-integral).exp();
                rate = year.rate_end;
            }
        }
    }
}

/// Shifts a schedule forward by `years`: flows already paid are dropped and
/// the remaining flow years are renumbered relative to the new valuation
/// date. Used to value the *remaining* liability at `t = 1` in the nested
/// procedure.
pub fn shift_schedule(schedule: &CashFlowSchedule, years: u32) -> CashFlowSchedule {
    let flows: Vec<_> = schedule
        .flows
        .iter()
        .filter(|f| f.year > years)
        .map(|f| disar_actuarial::engine::YearFlow {
            year: f.year - years,
            ..*f
        })
        .collect();
    CashFlowSchedule {
        term: schedule.term.saturating_sub(years),
        flows,
        residual_in_force: schedule.residual_in_force,
    }
}

/// One block's figures on one outer path of a nested run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PathValue {
    /// `Y_1`: the block's liability value at `t = 1`.
    pub(crate) y1: f64,
    /// The block's year-1 flows, readjusted and discounted to `t = 0`.
    pub(crate) year1: f64,
    /// The outer path's discount factor to `t = 1`.
    pub(crate) df1: f64,
}

/// One position of a [`LiabilityBook`]: its flows are `totals[start..end]`,
/// policy year 1 first, and its parameters `sharings[sharing]`.
#[derive(Debug, Clone, Copy)]
struct BookEntry {
    start: usize,
    end: usize,
    sharing: usize,
}

/// What a nested run reads of its positions, laid out once per run: the
/// blocks' positions back to back, every flow reduced to its
/// `YearFlow::total()`, and the distinct [`ProfitSharing`] pairs. `Φ`
/// depends on a position only through its pair, so the inner stage sums the
/// discounted `Φ` over the paths once per *pair* and year
/// ([`LiabilityBook::residuals_over_paths`]), not once per position and flow.
/// The residual liability at `t = 1` is `totals[start + 1..end]`, policy year
/// `k + 1` read as residual year `k` (what [`shift_schedule`] builds by
/// cloning); hence the insistence on "one flow per policy year".
#[derive(Debug, Default)]
pub(crate) struct LiabilityBook {
    totals: Vec<f64>,
    entries: Vec<BookEntry>,
    sharings: Vec<ProfitSharing>,
    /// Where each block ends in `entries`.
    block_ends: Vec<usize>,
}

impl LiabilityBook {
    /// Lays out `blocks`, keeping block and position order.
    ///
    /// # Errors
    ///
    /// [`AlmError::InvalidParameter`] for an empty block (list) or flow
    /// years other than `1..=len`: past a gap, flows would be read early.
    pub(crate) fn new(blocks: &[&[LiabilityPosition]]) -> Result<Self, AlmError> {
        if blocks.is_empty() || blocks.iter().any(|b| b.is_empty()) {
            return Err(AlmError::InvalidParameter("no liability positions"));
        }
        let mut book = LiabilityBook::default();
        let mut sharing_of = HashMap::new();
        for block in blocks {
            for pos in *block {
                let flows = &pos.schedule.flows;
                if !flows.iter().zip(1u32..).all(|(f, year)| f.year == year) {
                    return Err(AlmError::InvalidParameter("flow years must be 1..=len"));
                }
                let ps = pos.profit_sharing;
                let key = (ps.participation.to_bits(), ps.technical_rate.to_bits());
                let sharing = *sharing_of.entry(key).or_insert_with(|| {
                    book.sharings.push(ps);
                    book.sharings.len() - 1
                });
                let start = book.totals.len();
                book.totals.extend(flows.iter().map(|f| f.total()));
                let end = book.totals.len();
                book.entries.push(BookEntry {
                    start,
                    end,
                    sharing,
                });
            }
            book.block_ends.push(book.entries.len());
        }
        Ok(book)
    }

    /// A position's residual flows at `t = 1`.
    fn residual(&self, e: &BookEntry) -> &[f64] {
        &self.totals[(e.start + 1).min(e.end)..e.end]
    }

    pub(crate) fn n_positions(&self) -> usize {
        self.entries.len()
    }

    /// Writes into `acc[i]` position `i`'s residual PV at `t = 1` summed
    /// over all `n_paths` inner paths, given the year-major panels of
    /// [`ValuationPanels`]. `phi` and `table` are scratch.
    ///
    /// Summed path by path, `acc[i] = Σ_q Σ_k total_ik · Φ_{k+1}[q] ·
    /// df_k[q]`, and `Φ` depends on a position only through its pair `p`.
    /// So the sums are taken the other way round. Per pair, `phi` folds one
    /// row at a time from `1.0`, times `1 + ρ(returns[k][q])` per path (the
    /// `phi` fold of [`position_value`]), and row `k` of `table` is
    /// `T_p[k] = Σ_q Φ_{k+1}[q] · df_k[q]`, `q` ascending. Per position,
    /// `acc[i] = Σ_k total_ik · T_p[min(k, last)]`, `k` ascending: flows past
    /// the horizon take the last row, as in [`position_value`]. That is one
    /// multiply-add per flow instead of one per flow and path. The exchange
    /// is exact in real arithmetic; in floating point it moves `acc[i]` by
    /// rounding only (DESIGN.md §10.5 bounds it).
    pub(crate) fn residuals_over_paths(
        &self,
        returns: &[f64],
        dfs: &[f64],
        n_paths: usize,
        phi: &mut Vec<f64>,
        table: &mut Vec<f64>,
        acc: &mut [f64],
    ) {
        let n_years = dfs.len() / n_paths;
        table.clear();
        for ps in &self.sharings {
            phi.clear();
            phi.resize(n_paths, 1.0);
            for (returns, dfs) in returns.chunks(n_paths).zip(dfs.chunks(n_paths)) {
                let mut sum = 0.0;
                for ((phi, &r), df) in phi.iter_mut().zip(returns).zip(dfs) {
                    *phi *= 1.0 + ps.readjustment_rate(r);
                    sum += *phi * df;
                }
                table.push(sum);
            }
        }
        for (e, acc) in self.entries.iter().zip(acc) {
            let t = &table[e.sharing * n_years..][..n_years];
            let mut sum = 0.0;
            for (k, total) in self.residual(e).iter().enumerate() {
                sum += total * t[k.min(n_years - 1)];
            }
            *acc = sum;
        }
    }

    /// Closes one outer path with first-year fund return `i1` and discount
    /// factor `df1`: one [`PathValue`] per block from the positions' inner
    /// PVs summed over `n_inner` paths, each sum running over the block's
    /// positions in order. `phi1` is scratch for the pairs' `Φ_1`.
    pub(crate) fn block_values(
        &self,
        i1: f64,
        df1: f64,
        acc: &[f64],
        n_inner: f64,
        phi1: &mut Vec<f64>,
        out: &mut [PathValue],
    ) {
        self.first_year_values(i1, df1, phi1, out);
        let mut first = 0;
        for (&end, slot) in self.block_ends.iter().zip(out) {
            let block = &self.entries[first..end];
            slot.y1 = block
                .iter()
                .zip(&acc[first..end])
                .map(|(e, a)| phi1[e.sharing] * a / n_inner)
                .sum();
            first = end;
        }
    }

    /// What an outer path fixes of each block before any inner path: the
    /// pairs' `Φ_1` into `phi1`, and per block a [`PathValue`] with the
    /// year-1 flows readjusted by `Φ_1` and discounted at `df1`, and `y1`
    /// zero. [`LiabilityBook::block_values`] then adds `y1`; the LSMC
    /// evaluation, whose `y1` comes from its regression, reads these alone.
    pub(crate) fn first_year_values(
        &self,
        i1: f64,
        df1: f64,
        phi1: &mut Vec<f64>,
        out: &mut [PathValue],
    ) {
        phi1.clear();
        for ps in &self.sharings {
            phi1.push(1.0 + ps.readjustment_rate(i1));
        }
        let mut first = 0;
        for (&end, slot) in self.block_ends.iter().zip(out) {
            let mut year1 = 0.0;
            for e in self.entries[first..end].iter().filter(|e| e.start < e.end) {
                year1 += self.totals[e.start] * phi1[e.sharing] * df1;
            }
            *slot = PathValue {
                y1: 0.0,
                year1,
                df1,
            };
            first = end;
        }
    }
}

/// Values the positions on *every* path of the set, returning one PV per
/// path (the inner-simulation work unit of the nested procedure).
///
/// # Errors
///
/// Propagates errors from [`value_positions_on_path`].
pub fn value_positions_all_paths(
    positions: &[LiabilityPosition],
    fund: &SegregatedFund,
    set: &ScenarioView<'_>,
    equity_driver: usize,
    rate_driver: usize,
) -> Result<Vec<f64>, AlmError> {
    (0..set.n_paths())
        .map(|p| value_positions_on_path(positions, fund, set, p, equity_driver, rate_driver))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use disar_actuarial::contracts::{Contract, ProductKind, ProfitSharing};
    use disar_actuarial::engine::ActuarialEngine;
    use disar_actuarial::lapse::ConstantLapse;
    use disar_actuarial::model_points::ModelPoint;
    use disar_actuarial::mortality::{Gender, LifeTable};
    use disar_math::stats;
    use disar_stochastic::drivers::{Gbm, Vasicek};
    use disar_stochastic::scenario::{Measure, ScenarioBuffer, ScenarioGenerator, TimeGrid};
    use disar_stochastic::CorrelationMatrix;

    fn make_position(term: u32, beta: f64, tech: f64) -> LiabilityPosition {
        let table = LifeTable::italian_population();
        let lapse = ConstantLapse::new(0.03).unwrap();
        let engine = ActuarialEngine::new(&table, &lapse);
        let ps = ProfitSharing::new(beta, tech).unwrap();
        let c =
            Contract::new(ProductKind::Endowment, 45, Gender::Male, term, 1000.0, ps).unwrap();
        let mp = ModelPoint {
            contract: c,
            policy_count: 1,
        };
        LiabilityPosition {
            schedule: engine.cash_flow_schedule(&mp).unwrap(),
            profit_sharing: ps,
        }
    }

    /// `n_paths` risk-neutral paths of `gen` filled into a fresh buffer.
    fn filled(gen: ScenarioGenerator, n_paths: usize, seed: u64) -> ScenarioBuffer {
        let mut buf = ScenarioBuffer::new();
        gen.generate_into(Measure::RiskNeutral, n_paths, seed, None, &mut buf)
            .unwrap();
        buf
    }

    fn q_set(horizon: f64, n_paths: usize, seed: u64) -> ScenarioBuffer {
        let gen = ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.03, 0.5, 0.03, 0.008, 0.0).unwrap()))
            .driver(Box::new(Gbm::new(100.0, 0.06, 0.18, 0.03).unwrap()))
            .grid(TimeGrid::new(horizon, 12).unwrap())
            .build()
            .unwrap();
        filled(gen, n_paths, seed)
    }

    #[test]
    fn pv_is_positive_and_below_undiscounted_max() {
        let pos = make_position(10, 0.8, 0.02);
        let buf = q_set(12.0, 20, 5);
        let set = buf.view();
        let fund = SegregatedFund::italian_typical(20);
        for p in 0..set.n_paths() {
            let pv = value_positions_on_path(std::slice::from_ref(&pos), &fund, &set, p, 1, 0).unwrap();
            assert!(pv > 0.0);
            // Φ is bounded on these scenarios and discounting shrinks, so a
            // loose sanity ceiling: 3× the expected nominal benefits.
            assert!(pv < 3.0 * pos.schedule.total_expected_benefits());
        }
    }

    #[test]
    fn higher_participation_is_worth_more() {
        // Everything else equal, a larger participation coefficient β can
        // only increase ρ_t (max(βI, i) is non-decreasing in β), hence Φ_t
        // and the liability value. (Note the technical rate i is *not*
        // monotone this way: Eq. 2 normalizes it out of the crediting.)
        let lo = make_position(15, 0.70, 0.01);
        let hi = make_position(15, 0.95, 0.01);
        let buf = q_set(16.0, 50, 7);
        let set = buf.view();
        let fund = SegregatedFund::italian_typical(20);
        let pv_lo: f64 = value_positions_all_paths(std::slice::from_ref(&lo), &fund, &set, 1, 0)
            .unwrap()
            .iter()
            .sum();
        let pv_hi: f64 = value_positions_all_paths(&[hi], &fund, &set, 1, 0)
            .unwrap()
            .iter()
            .sum();
        assert!(pv_hi > pv_lo, "higher participation must raise value");
    }

    #[test]
    fn valuation_is_additive_over_positions() {
        let a = make_position(10, 0.8, 0.02);
        let b = make_position(20, 0.85, 0.01);
        let buf = q_set(21.0, 5, 9);
        let set = buf.view();
        let fund = SegregatedFund::italian_typical(20);
        for p in 0..set.n_paths() {
            let sep = value_positions_on_path(std::slice::from_ref(&a), &fund, &set, p, 1, 0).unwrap()
                + value_positions_on_path(std::slice::from_ref(&b), &fund, &set, p, 1, 0).unwrap();
            let joint =
                value_positions_on_path(&[a.clone(), b.clone()], &fund, &set, p, 1, 0).unwrap();
            assert!((sep - joint).abs() < 1e-9);
        }
    }

    /// The one-year law of `q_set`'s market over `horizon` years.
    fn inner_law(horizon: f64) -> AnnualRatesEquity {
        ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.03, 0.5, 0.03, 0.008, 0.0).unwrap()))
            .driver(Box::new(Gbm::new(100.0, 0.06, 0.18, 0.03).unwrap()))
            .grid(TimeGrid::new(horizon, 12).unwrap())
            .build()
            .unwrap()
            .annual_rates_equity(Measure::RiskNeutral, 0, 1)
            .unwrap()
    }

    /// One inner path's annual fund returns and discount factors, drawn year
    /// by year from `law` with the normals `z`, the fund folded and the
    /// discount integral summed per year.
    fn drawn_series(
        fund: &SegregatedFund,
        law: &AnnualRatesEquity,
        rate_start: f64,
        z: &[f64],
    ) -> (Vec<f64>, Vec<f64>) {
        let points = (law.steps_per_year() + 1) as f64;
        let mut accounts = fund.opening_accounts();
        let (mut rate, mut integral) = (rate_start, 0.0);
        let (mut returns, mut dfs) = (Vec::new(), Vec::new());
        for k in 0..law.n_years() {
            let year = law.draw(rate, [z[3 * k], z[3 * k + 1], z[3 * k + 2]]);
            let eq_return = year.log_return.exp() - 1.0;
            returns.push(fund.close_year(&mut accounts, eq_return, year.rate_sum / points));
            integral += law.dt() * (year.rate_sum - 0.5 * (rate + year.rate_end));
            dfs.push((-integral).exp());
            rate = year.rate_end;
        }
        (returns, dfs)
    }

    #[test]
    fn valuation_panels_bitwise_match_per_path_kernel() {
        let law = inner_law(16.0);
        let n_years = law.n_years();
        assert_eq!(n_years, 16);
        let fund = SegregatedFund::italian_typical(20);
        // Pre-polluted panels, then each shape's leftovers for the next: the
        // fill must fully overwrite them.
        let mut panels = ValuationPanels {
            draws: vec![f64::NAN; 5],
            returns: vec![f64::NAN; 3],
            dfs: vec![f64::NAN; 999],
        };
        for n_paths in [7, 8, 1, 2] {
            panels.fill(&fund, &law, 0.041, 11, n_paths);
            assert_eq!(panels.returns.len(), n_paths * n_years);
            assert_eq!(panels.dfs.len(), n_paths * n_years);
            // Path `q` draws from stream `q`. Year-major: entry `[k][q]` is
            // path `q`'s year `k + 1`.
            for q in 0..n_paths {
                let mut z = vec![0.0; 3 * n_years];
                StandardNormal::new().fill(&mut stream_rng(11, q as u64), &mut z);
                let (returns, dfs) = drawn_series(&fund, &law, 0.041, &z);
                for k in 0..n_years {
                    let at = k * n_paths + q;
                    let what = format!("{n_paths} paths, path {q} year {k}");
                    assert_eq!(panels.returns[at].to_bits(), returns[k].to_bits(), "{what}");
                    assert_eq!(panels.dfs[at].to_bits(), dfs[k].to_bits(), "{what}");
                }
            }
        }
    }

    #[test]
    fn drawn_panels_match_grid_paths_in_law() {
        // What the fill folds from each drawn year (the equity return, the
        // average rate, the discount integral) against what the fund and
        // the discount factors read of step-by-step paths from the same
        // opening rate: per year, the means of the returns and of the
        // discount factors agree within four standard errors.
        const PATHS: usize = 20_000;
        let gen = ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.03, 0.5, 0.03, 0.008, 0.0).unwrap()))
            .driver(Box::new(Gbm::new(100.0, 0.06, 0.18, 0.03).unwrap()))
            .correlation(CorrelationMatrix::new(vec![vec![1.0, -0.3], vec![-0.3, 1.0]]).unwrap())
            .grid(TimeGrid::new(5.0, 4).unwrap())
            .build()
            .unwrap();
        let law = gen.annual_rates_equity(Measure::RiskNeutral, 0, 1).unwrap();
        let fund = SegregatedFund::italian_typical(20);
        let rate_start = 0.045;
        let mut panels = ValuationPanels::default();
        panels.fill(&fund, &law, rate_start, 3, PATHS);
        let mut buf = ScenarioBuffer::new();
        gen.generate_into(
            Measure::RiskNeutral,
            PATHS,
            4,
            Some(&[rate_start, 100.0]),
            &mut buf,
        )
        .unwrap();
        let view = buf.view();
        let (mut grid_returns, mut grid_dfs) = (vec![Vec::new(); 5], vec![Vec::new(); 5]);
        let (mut returns, mut dfs) = (Vec::new(), Vec::new());
        for q in 0..PATHS {
            fund.annual_returns_into(&view, q, 1, 0, &mut returns)
                .unwrap();
            view.year_discount_factors_into(q, 5, &mut dfs);
            for k in 0..5 {
                grid_returns[k].push(returns[k]);
                grid_dfs[k].push(dfs[k]);
            }
        }
        for k in 0..5 {
            let row = k * PATHS..(k + 1) * PATHS;
            for (what, drawn, grid) in [
                (
                    "fund return",
                    &panels.returns[row.clone()],
                    &grid_returns[k],
                ),
                ("discount factor", &panels.dfs[row], &grid_dfs[k]),
            ] {
                let se = ((stats::variance(drawn) + stats::variance(grid)) / PATHS as f64).sqrt();
                let diff = stats::mean(drawn) - stats::mean(grid);
                assert!(
                    diff.abs() < 4.0 * se,
                    "year {}: {what} off by {} standard errors",
                    k + 1,
                    diff / se
                );
            }
        }
    }

    /// The book's order written out for one position, from each path's own
    /// series: `Φ` folded per path, `T[k] = Σ_q Φ_{k+1}[q] · df_k[q]` with
    /// `q` ascending, then `Σ_k total_k · T[min(k, last)]` with `k`
    /// ascending.
    fn exchanged_reference(pos: &LiabilityPosition, series: &[(Vec<f64>, Vec<f64>)]) -> f64 {
        let n_years = series[0].0.len();
        let mut phis = vec![1.0; series.len()];
        let mut t = Vec::new();
        for k in 0..n_years {
            let mut sum = 0.0;
            for (phi, (returns, dfs)) in phis.iter_mut().zip(series) {
                *phi *= 1.0 + pos.profit_sharing.readjustment_rate(returns[k]);
                sum += *phi * dfs[k];
            }
            t.push(sum);
        }
        let mut acc = 0.0;
        for flow in &pos.schedule.flows {
            acc += flow.total() * t[(flow.year as usize).min(n_years) - 1];
        }
        acc
    }

    /// Every term `total_k · Φ_{k+1}[q] · df_k[q]` of one position's
    /// residual PV over the paths, in absolute value, and how many flows
    /// (`K`) it has.
    fn abs_terms(pos: &LiabilityPosition, series: &[(Vec<f64>, Vec<f64>)]) -> (f64, usize) {
        let mut sum = 0.0;
        for (returns, dfs) in series {
            let n_years = returns.len();
            let mut phi = 1.0;
            for flow in &pos.schedule.flows {
                let k = flow.year as usize;
                if k <= n_years {
                    phi *= 1.0 + pos.profit_sharing.readjustment_rate(returns[k - 1]);
                }
                sum += (flow.total() * phi * dfs[k.min(n_years) - 1]).abs();
            }
        }
        (sum, pos.schedule.flows.len())
    }

    #[test]
    fn book_bitwise_matches_series_kernel_on_shifted_schedules() {
        // Two blocks; a pair that owns most positions, two that own one
        // each and one that owns none; a 1-year position (no residual
        // flow); and terms past the 6-year horizon up to a 19-year
        // residual.
        let terms = [12, 1, 5, 8, 12, 20, 3, 5, 9];
        let positions: Vec<LiabilityPosition> = terms
            .iter()
            .enumerate()
            .map(|(i, &term)| match i {
                1 | 4 => make_position(term, 0.9, 0.01),
                3 => make_position(term, 0.7, 0.0),
                _ => make_position(term, 0.8, 0.02),
            })
            .collect();
        let (a, b) = positions.split_at(2);
        let mut book = LiabilityBook::new(&[a, b]).unwrap();
        assert_eq!((book.n_positions(), book.sharings.len()), (9, 3));
        book.sharings.push(ProfitSharing::new(0.6, 0.03).unwrap());
        let shifted: Vec<LiabilityPosition> = positions
            .iter()
            .map(|p| LiabilityPosition {
                schedule: shift_schedule(&p.schedule, 1),
                profit_sharing: p.profit_sharing,
            })
            .collect();

        let fund = SegregatedFund::italian_typical(20);
        let law = inner_law(6.0);
        let n_years = law.n_years();
        assert_eq!(n_years, 6);
        let mut panels = ValuationPanels::default();
        // NaN-polluted scratch, then each shape's leftovers for the next:
        // the kernel must not read them.
        let (mut phi, mut table) = (vec![f64::NAN; 5], vec![f64::NAN; 40]);
        let mut acc = vec![f64::NAN; positions.len()];
        for n_paths in [1, 9, 50] {
            panels.fill(&fund, &law, 0.03, 17, n_paths);
            book.residuals_over_paths(
                &panels.returns,
                &panels.dfs,
                n_paths,
                &mut phi,
                &mut table,
                &mut acc,
            );

            // Each path's own series, read back out of the panels.
            let column = |panel: &[f64], q: usize| -> Vec<f64> {
                (0..n_years).map(|k| panel[k * n_paths + q]).collect()
            };
            let series: Vec<(Vec<f64>, Vec<f64>)> = (0..n_paths)
                .map(|q| (column(&panels.returns, q), column(&panels.dfs, q)))
                .collect();
            // The semantic reference: path by path through the one-path
            // kernel, accumulated in path order.
            let mut path_by_path = vec![0.0; positions.len()];
            let mut vals = Vec::new();
            for (returns, dfs) in &series {
                value_each_position_from_series(&shifted, returns, dfs, &mut vals);
                for (a, v) in path_by_path.iter_mut().zip(&vals) {
                    *a += *v;
                }
            }
            for (i, pos) in shifted.iter().enumerate() {
                let exchanged = exchanged_reference(pos, &series);
                assert_eq!(
                    acc[i].to_bits(),
                    exchanged.to_bits(),
                    "{n_paths} paths, position {i}"
                );
                // Both sums take every term `total · Φ · df` through K + Q
                // roundings: path by path, two products, K − 1 additions
                // within the path and Q − 1 across paths; the book, the
                // product `Φ · df`, Q − 1 additions across paths, the product
                // by `total` and K − 1 additions across flows (an addition
                // to the starting 0.0 is exact). With u = ε/2 each is within
                // γ_{K+Q} · Σ|terms| of the exact sum, γ_n = n·u / (1 − n·u),
                // so the two are within 2·γ_{K+Q} · Σ|terms|.
                let (sum_abs, k) = abs_terms(pos, &series);
                let n = (k + n_paths) as f64;
                let bound = n * f64::EPSILON / (1.0 - n * f64::EPSILON / 2.0) * sum_abs;
                assert!(
                    (acc[i] - path_by_path[i]).abs() <= bound,
                    "{n_paths} paths, position {i}: {} vs {} (bound {bound})",
                    acc[i],
                    path_by_path[i]
                );
            }
            assert_eq!(acc[1], 0.0, "a 1-year position has no residual value");
            assert!(acc.iter().enumerate().all(|(i, &a)| i == 1 || a > 0.0));
        }

        // Closing an outer path: the per-position formulas the book replaces.
        let n_inner = 50.0;
        for (i1, df1) in [
            (0.031, 0.97),
            (0.0473, 0.9583),
            (-0.02, 1.0131),
            (0.0811, 0.9417),
        ] {
            let mut out = [PathValue::default(); 2];
            book.block_values(i1, df1, &acc, n_inner, &mut Vec::new(), &mut out);
            for (block, (got, accs)) in [a, b].iter().zip(out.iter().zip([&acc[..2], &acc[2..]])) {
                let phis: Vec<f64> = block
                    .iter()
                    .map(|p| 1.0 + p.profit_sharing.readjustment_rate(i1))
                    .collect();
                let mut year1 = 0.0;
                for (pos, phi) in block.iter().zip(&phis) {
                    year1 += pos.schedule.flows[0].total() * phi * df1;
                }
                let y1: f64 = accs
                    .iter()
                    .zip(&phis)
                    .map(|(a, phi)| phi * a / n_inner)
                    .sum();
                assert_eq!(got.y1.to_bits(), y1.to_bits());
                assert_eq!(got.year1.to_bits(), year1.to_bits());
                assert_eq!(got.df1, df1);
            }
        }
    }

    #[test]
    fn zero_rates_zero_equity_gives_nominal_floor() {
        // Deterministic degenerate economy: rate pinned at 0 (sigma 0,
        // r0 = b = 0), equity flat, guarantee 0 ⇒ Φ = 1, df = 1, so PV =
        // sum of expected nominal benefits.
        let gen = ScenarioGenerator::builder()
            .driver(Box::new(Vasicek::new(0.0, 0.5, 0.0, 0.0, 0.0).unwrap()))
            .driver(Box::new(Gbm::new(100.0, 0.0, 0.0, 0.0).unwrap()))
            .grid(TimeGrid::new(12.0, 12).unwrap())
            .build()
            .unwrap();
        let buf = filled(gen, 1, 0);
        let set = buf.view();
        // Fund with zero book yield and no dividends returns exactly zero.
        let fund = SegregatedFund::new(1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 5).unwrap();
        let pos = make_position(10, 0.8, 0.0);
        let pv = value_positions_on_path(std::slice::from_ref(&pos), &fund, &set, 0, 1, 0).unwrap();
        let nominal = pos.schedule.total_expected_benefits();
        assert!((pv - nominal).abs() < 1e-9, "pv {pv} vs nominal {nominal}");
    }

    #[test]
    fn flows_beyond_horizon_are_clamped_not_dropped() {
        let pos = make_position(20, 0.8, 0.02);
        let buf = q_set(5.0, 3, 11);
        let short = buf.view();
        let fund = SegregatedFund::italian_typical(10);
        let pv = value_positions_on_path(&[pos], &fund, &short, 0, 1, 0).unwrap();
        assert!(pv > 0.0, "clamped valuation must still count the flows");
    }

    #[test]
    fn per_position_values_sum_to_joint() {
        let a = make_position(10, 0.8, 0.02);
        let b = make_position(20, 0.85, 0.01);
        let buf = q_set(21.0, 4, 13);
        let set = buf.view();
        let fund = SegregatedFund::italian_typical(20);
        for p in 0..set.n_paths() {
            let each =
                value_each_position_on_path(&[a.clone(), b.clone()], &fund, &set, p, 1, 0)
                    .unwrap();
            let joint =
                value_positions_on_path(&[a.clone(), b.clone()], &fund, &set, p, 1, 0).unwrap();
            assert!((each.iter().sum::<f64>() - joint).abs() < 1e-9);
        }
    }

    #[test]
    fn shift_schedule_drops_and_renumbers() {
        let pos = make_position(10, 0.8, 0.02);
        let shifted = shift_schedule(&pos.schedule, 1);
        assert_eq!(shifted.term, 9);
        assert_eq!(shifted.flows.len(), pos.schedule.flows.len() - 1);
        assert_eq!(shifted.flows[0].year, 1);
        // Amounts preserved, only renumbered.
        assert_eq!(
            shifted.flows[0].death_benefit,
            pos.schedule.flows[1].death_benefit
        );
    }

    #[test]
    fn shift_by_zero_is_identity() {
        let pos = make_position(5, 0.8, 0.02);
        assert_eq!(shift_schedule(&pos.schedule, 0), pos.schedule);
    }
}
