//! Residual-based drift detection.
//!
//! The paper assumes a stationary cloud: the knowledge base only ever
//! grows and every observation remains representative. Real clouds drift —
//! hardware generations change `(m, n, f) → time`, contention creeps up,
//! prices get revised — and a family trained on the full history then
//! *underfits the present*. This module supplies the adaptation loop:
//!
//! - a [Page–Hinkley](https://doi.org/10.1093/biomet/41.1-2.100) test
//!   watches the stream of per-deploy prediction residuals that the
//!   deployers already compute on the feedback path;
//! - [`DriftConfig`] is the policy block selecting a detector and the
//!   windowed-retrain shape, **off by default** so a default policy stays
//!   bit-identical to the stationary system;
//! - [`DriftState`] owns one test per model shard and the escalation
//!   ladder: a fire escalates the next retrain from the policy's base mode
//!   to [`RetrainMode::Windowed`], a second fire before that retrain lands
//!   escalates to [`RetrainMode::Full`], and an applied escalated retrain
//!   resets the ladder. Detectors never change *whether* a retrain fires —
//!   only which mode it uses — so deploy outcomes keep their
//!   count-determined cadence.

use crate::predictor::RetrainMode;

/// Which change detector monitors the residual stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DetectorKind {
    /// No detection: retrains always use the policy's base mode. The
    /// stationary, bit-identity-preserving default.
    #[default]
    Off,
    /// Page–Hinkley test on the running residual mean — cheap (O(1) per
    /// observation), directional (detects residual *increases*), the
    /// classic sequential change-point test.
    PageHinkley,
}

fn default_threshold() -> f64 {
    2.5
}

fn default_delta() -> f64 {
    0.05
}

fn default_window() -> usize {
    64
}

fn default_decay() -> f64 {
    0.25
}

/// The drift-adaptation block of a deploy policy: detector choice,
/// sensitivity, and the shape of the escalated windowed retrain.
///
/// The default ([`DetectorKind::Off`]) never fires, so policies that do
/// not opt in keep every retrain on the base mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Residual-stream change detector.
    pub detector: DetectorKind,
    /// Fire threshold: Page–Hinkley's λ on the cumulative deviation
    /// statistic (in residual units).
    pub threshold: f64,
    /// Page–Hinkley's drift allowance δ (tolerated mean creep per step).
    pub delta: f64,
    /// `window` of the escalated [`RetrainMode::Windowed`] retrain.
    pub window: usize,
    /// `decay` of the escalated [`RetrainMode::Windowed`] retrain.
    pub decay: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            detector: DetectorKind::Off,
            threshold: default_threshold(),
            delta: default_delta(),
            window: default_window(),
            decay: default_decay(),
        }
    }
}

impl DriftConfig {
    /// `true` when a detector is configured (the drift path is live).
    pub fn enabled(&self) -> bool {
        self.detector != DetectorKind::Off
    }
}

/// Page–Hinkley test for an increase in the residual mean.
///
/// Maintains the running mean `μ̂` and the cumulative deviation
/// `m_t = Σ (x_i − μ̂_i − δ)`; fires when `m_t − min m` exceeds `λ`.
/// Fires only on *increases* — a model getting better never triggers a
/// retrain escalation.
#[derive(Debug, Clone)]
pub struct PageHinkley {
    threshold: f64,
    delta: f64,
    n: u64,
    mean: f64,
    cum: f64,
    min_cum: f64,
}

impl PageHinkley {
    /// A fresh test with fire threshold `λ = threshold` and drift
    /// allowance `δ = delta`.
    pub fn new(threshold: f64, delta: f64) -> Self {
        PageHinkley {
            threshold,
            delta,
            n: 0,
            mean: 0.0,
            cum: 0.0,
            min_cum: 0.0,
        }
    }

    fn reset(&mut self) {
        self.n = 0;
        self.mean = 0.0;
        self.cum = 0.0;
        self.min_cum = 0.0;
    }

    /// Feeds one residual; returns `true` when a change is detected. The
    /// test re-arms itself after firing (its state resets to the
    /// post-change regime).
    pub fn update(&mut self, residual: f64) -> bool {
        self.n += 1;
        self.mean += (residual - self.mean) / self.n as f64;
        self.cum += residual - self.mean - self.delta;
        self.min_cum = self.min_cum.min(self.cum);
        if self.cum - self.min_cum > self.threshold {
            self.reset();
            true
        } else {
            false
        }
    }
}

/// Escalation rung the next retrain will use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Escalation {
    /// No unabsorbed fire: retrain with the policy's base mode.
    #[default]
    Calm,
    /// One fire since the last escalated retrain: retrain windowed.
    Windowed,
    /// A second fire before the windowed retrain landed: full refit.
    Full,
}

/// Per-shard drift state: the configured Page–Hinkley test plus the
/// Incremental → Windowed → Full escalation ladder.
///
/// The state machine is strictly mode-modulating: [`DriftState::observe`]
/// consumes residuals and moves the ladder, [`DriftState::next_mode`]
/// reports the retrain mode the ladder currently prescribes, and
/// [`DriftState::on_retrain_applied`] resets the ladder once an escalated
/// retrain actually ran (a base-mode retrain leaves an armed ladder
/// armed).
#[derive(Debug, Clone, Default)]
pub struct DriftState {
    detector: Option<PageHinkley>,
    escalation: Escalation,
}

impl DriftState {
    /// Builds the state the config asks for; [`DetectorKind::Off`] yields
    /// an inert state whose `observe` is a no-op returning `false`.
    pub fn new(cfg: &DriftConfig) -> Self {
        let detector = match cfg.detector {
            DetectorKind::Off => None,
            DetectorKind::PageHinkley => Some(PageHinkley::new(cfg.threshold, cfg.delta)),
        };
        DriftState {
            detector,
            escalation: Escalation::Calm,
        }
    }

    /// Feeds one prediction residual. Returns `true` when the detector
    /// fired, in which case the escalation ladder has already advanced.
    pub fn observe(&mut self, residual: f64) -> bool {
        let fired = self.detector.as_mut().is_some_and(|d| d.update(residual));
        if fired {
            self.escalation = match self.escalation {
                Escalation::Calm => Escalation::Windowed,
                Escalation::Windowed | Escalation::Full => Escalation::Full,
            };
        }
        fired
    }

    /// The retrain mode the ladder currently prescribes, given the
    /// policy's base mode and drift config.
    pub fn next_mode(&self, base: RetrainMode, cfg: &DriftConfig) -> RetrainMode {
        match self.escalation {
            Escalation::Calm => base,
            Escalation::Windowed => RetrainMode::Windowed {
                window: cfg.window,
                decay: cfg.decay,
            },
            Escalation::Full => RetrainMode::Full,
        }
    }

    /// `true` when a fire has escalated the next retrain.
    pub fn escalated(&self) -> bool {
        self.escalation != Escalation::Calm
    }

    /// Acknowledges that a retrain ran with [`DriftState::next_mode`]'s
    /// prescription; an escalated ladder resets to calm.
    pub fn on_retrain_applied(&mut self) {
        self.escalation = Escalation::Calm;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A residual stream that sits at `lo` for `n_pre` steps, then jumps
    /// to `hi`. Small deterministic alternation keeps the variance
    /// non-degenerate.
    fn stream(n_pre: usize, n_post: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n_pre + n_post)
            .map(|i| {
                let base = if i < n_pre { lo } else { hi };
                base * if i % 2 == 0 { 0.9 } else { 1.1 }
            })
            .collect()
    }

    #[test]
    fn page_hinkley_fires_after_the_change_never_before() {
        let mut d = PageHinkley::new(default_threshold(), default_delta());
        let xs = stream(200, 50, 0.1, 2.0);
        let mut fired_at = None;
        for (i, &x) in xs.iter().enumerate() {
            if d.update(x) {
                fired_at = Some(i);
                break;
            }
        }
        let at = fired_at.expect("a 20× residual jump must fire");
        assert!(at >= 200, "fired during the stationary prefix at {at}");
        assert!(at < 220, "fired too late at {at}");
    }

    #[test]
    fn page_hinkley_is_one_sided() {
        // Residuals *improving* must never fire.
        let mut d = PageHinkley::new(default_threshold(), default_delta());
        for &x in &stream(200, 200, 2.0, 0.1) {
            assert!(!d.update(x), "improvement fired the detector");
        }
    }

    #[test]
    fn off_state_is_inert() {
        let mut s = DriftState::new(&DriftConfig::default());
        for _ in 0..100 {
            assert!(!s.observe(1e9));
        }
        assert!(!s.escalated());
        assert_eq!(
            s.next_mode(RetrainMode::Incremental, &DriftConfig::default()),
            RetrainMode::Incremental
        );
    }

    #[test]
    fn escalation_ladder_steps_windowed_then_full_then_resets() {
        let cfg = DriftConfig {
            detector: DetectorKind::PageHinkley,
            ..DriftConfig::default()
        };
        let mut s = DriftState::new(&cfg);
        assert_eq!(s.next_mode(RetrainMode::Incremental, &cfg), RetrainMode::Incremental);

        // A low baseline, then a jump: the first fire. (On a constant
        // stream Page–Hinkley's statistic stays at zero and never fires.)
        let fires_within = |s: &mut DriftState, residual: f64, steps: usize| {
            (0..steps).any(|_| s.observe(residual))
        };
        assert!(!fires_within(&mut s, 0.1, 20), "fired on the baseline");
        assert!(fires_within(&mut s, 3.0, 20), "a 30× jump must fire");
        assert!(s.escalated());
        assert_eq!(
            s.next_mode(RetrainMode::Incremental, &cfg),
            RetrainMode::Windowed {
                window: cfg.window,
                decay: cfg.decay
            }
        );

        // A second fire before the retrain lands escalates to Full (the
        // detector re-armed itself, so it needs a baseline again).
        assert!(!fires_within(&mut s, 0.1, 20), "fired on the baseline");
        assert!(fires_within(&mut s, 9.0, 20), "a 90× jump must fire");
        assert_eq!(s.next_mode(RetrainMode::Incremental, &cfg), RetrainMode::Full);

        // The applied retrain resets the ladder to the base mode.
        s.on_retrain_applied();
        assert!(!s.escalated());
        assert_eq!(
            s.next_mode(RetrainMode::Incremental, &cfg),
            RetrainMode::Incremental
        );
    }

    #[test]
    fn drift_config_defaults_to_off() {
        assert!(!DriftConfig::default().enabled());
    }
}
