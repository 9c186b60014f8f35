//! Scenario construction.

use oes_units::Kilowatts;
use oes_wpt::{ChargingSection, Olev};

use crate::engine::Game;
use crate::error::GameError;
use crate::payment::Scheduler;
use crate::pricing::{NonlinearPricing, OverloadPenalty, PricingPolicy, SectionCost};
use crate::satisfaction::{LogSatisfaction, Satisfaction};
use crate::schedule::{PowerSchedule, RESYNC_WRITES};
use crate::state::{ScheduleState, DEFAULT_RESYNC_EVERY};
use crate::waterfill::WaterLevels;

/// Builds a [`Game`].
///
/// # Examples
///
/// The quickstart scenario — a charging lane under the paper's nonlinear
/// policy, run to the social optimum:
///
/// ```
/// use oes_game::{GameBuilder, NonlinearPricing, PricingPolicy, UpdateOrder};
/// use oes_units::Kilowatts;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut game = GameBuilder::new()
///     .sections(20, Kilowatts::new(60.0))     // 20 road sections, 60 kW each
///     .olevs(8, Kilowatts::new(50.0))         // 8 OLEVs, P_OLEV = 50 kW
///     .pricing(PricingPolicy::Nonlinear(NonlinearPricing::paper_default(15.0)))
///     .eta(0.9)
///     .build()?;
/// let outcome = game.run(UpdateOrder::RoundRobin, 2_000)?;
/// assert!(outcome.converged());
/// assert!(game.welfare() > 0.0);
/// # Ok(())
/// # }
/// ```
pub struct GameBuilder {
    caps: Vec<f64>,
    olevs: Vec<OlevSpecEntry>,
    policy: PricingPolicy,
    kappa: Option<f64>,
    eta: f64,
    tolerance: f64,
    scheduler_override: Option<Scheduler>,
    welfare_resync_every: usize,
    schedule_resync_writes: usize,
    warm_start: WarmStart,
}

/// How [`GameBuilder::build`] seeds the initial [`PowerSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmStart {
    /// The paper's cold start: an all-zero schedule, best responses climb
    /// the potential from the origin.
    #[default]
    Cold,
    /// Seed every row from the [mean-field limit](crate::meanfield): each
    /// OLEV starts at its type representative's equilibrium allocation, so
    /// the exact engine only burns down the O(1/N) mean-field bias instead
    /// of climbing from zero — same equilibrium (within the engine's
    /// tolerance), far fewer updates. Requires a scenario the mean-field
    /// contract covers, else [`GameBuilder::build`] returns
    /// [`GameError::MeanFieldUnsupported`].
    MeanField,
}

/// One OLEV as accumulated by the builder: capacity bound, satisfaction,
/// and an optional accessible-section window (`None` = the full corridor).
struct OlevSpecEntry {
    p_max: f64,
    satisfaction: Box<dyn Satisfaction>,
    window: Option<(usize, usize)>,
}

impl core::fmt::Debug for GameBuilder {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("GameBuilder")
            .field("sections", &self.caps.len())
            .field("olevs", &self.olevs.len())
            .field("eta", &self.eta)
            .finish_non_exhaustive()
    }
}

impl GameBuilder {
    /// Starts a builder with the paper's defaults: nonlinear pricing at an
    /// LBMP of $15/MWh, `η = 0.9`, overload stiffness `κ = β̃`.
    ///
    /// The default κ is deliberately *moderate*: a stiffer overload penalty
    /// pins congestion harder to the Eq. 4 knee but ill-conditions the
    /// best-response dynamics (the knee's curvature ratio governs the
    /// Gauss–Seidel rate) — the `ablation` bench quantifies the trade-off.
    #[must_use]
    pub fn new() -> Self {
        Self {
            caps: Vec::new(),
            olevs: Vec::new(),
            policy: PricingPolicy::Nonlinear(NonlinearPricing::paper_default(15.0)),
            kappa: None,
            eta: 0.9,
            tolerance: 1e-7,
            scheduler_override: None,
            welfare_resync_every: DEFAULT_RESYNC_EVERY,
            schedule_resync_writes: RESYNC_WRITES,
            warm_start: WarmStart::Cold,
        }
    }

    /// Adds `count` identical sections of the given capacity.
    #[must_use]
    pub fn sections(mut self, count: usize, capacity: Kilowatts) -> Self {
        self.caps
            .extend(std::iter::repeat_n(capacity.value(), count));
        self
    }

    /// Adds one section of the given capacity.
    #[must_use]
    pub fn section(mut self, capacity: Kilowatts) -> Self {
        self.caps.push(capacity.value());
        self
    }

    /// Adds `count` identical OLEVs with capacity bound `p_max` and unit-
    /// weight log satisfaction.
    #[must_use]
    pub fn olevs(self, count: usize, p_max: Kilowatts) -> Self {
        self.olevs_weighted(count, p_max, 1.0)
    }

    /// Adds `count` identical OLEVs with the given satisfaction weight.
    #[must_use]
    pub fn olevs_weighted(mut self, count: usize, p_max: Kilowatts, weight: f64) -> Self {
        for _ in 0..count {
            self.olevs.push(OlevSpecEntry {
                p_max: p_max.value(),
                satisfaction: Box::new(LogSatisfaction::new(weight)),
                window: None,
            });
        }
        self
    }

    /// Adds `count` identical unit-weight OLEVs restricted to the
    /// half-open section window `window` — a corridor span, the physical
    /// reality that a vehicle traversing sections `[a, b)` can only draw
    /// power there. The serial and parallel in-process engines schedule such
    /// an OLEV over its window only (its row stays zero outside), which is
    /// what gives fleets on disjoint spans genuinely disjoint section
    /// footprints — the structural independence
    /// [`crate::parallel::ApplyMode::Partitioned`] commits exploit.
    ///
    /// Window bounds are validated at [`GameBuilder::build`] (sections may be
    /// added after OLEVs): an empty or out-of-range window is rejected.
    #[must_use]
    pub fn olevs_in(self, count: usize, p_max: Kilowatts, window: core::ops::Range<usize>) -> Self {
        self.olevs_weighted_in(count, p_max, 1.0, window)
    }

    /// [`GameBuilder::olevs_in`] with an explicit satisfaction weight.
    #[must_use]
    pub fn olevs_weighted_in(
        mut self,
        count: usize,
        p_max: Kilowatts,
        weight: f64,
        window: core::ops::Range<usize>,
    ) -> Self {
        for _ in 0..count {
            self.olevs.push(OlevSpecEntry {
                p_max: p_max.value(),
                satisfaction: Box::new(LogSatisfaction::new(weight)),
                window: Some((window.start, window.end)),
            });
        }
        self
    }

    /// Adds one OLEV with a custom satisfaction function.
    #[must_use]
    pub fn olev_with(mut self, p_max: Kilowatts, satisfaction: Box<dyn Satisfaction>) -> Self {
        self.olevs.push(OlevSpecEntry {
            p_max: p_max.value(),
            satisfaction,
            window: None,
        });
        self
    }

    /// Sets the pricing policy (default: nonlinear at $15/MWh).
    #[must_use]
    pub fn pricing(mut self, policy: PricingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the safety factor `η` of Eq. 4 (default 0.9).
    #[must_use]
    pub fn eta(mut self, eta: f64) -> Self {
        self.eta = eta;
        self
    }

    /// Sets the overload stiffness κ (default `β̃`).
    #[must_use]
    pub fn overload(mut self, kappa: f64) -> Self {
        self.kappa = Some(kappa);
        self
    }

    /// Sets the convergence tolerance on `|Δp_n|` (default `1e-7` kW).
    #[must_use]
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Sets how many applied rows pass between exact recomputes of the
    /// incremental welfare sums (default
    /// [`DEFAULT_RESYNC_EVERY`]). An
    /// interval of 1 reproduces the naive recompute path bit-for-bit; larger
    /// intervals amortize the O(N·C) resync across more O(C) updates. The
    /// parallel engine snapshots the same cached state, so this is also its
    /// snapshot-refresh cadence.
    ///
    /// ```
    /// use oes_game::{GameBuilder, UpdateOrder};
    /// use oes_units::Kilowatts;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// // Interval 1 = resync after every update: the incremental welfare is
    /// // bit-identical to the naive recompute at every step.
    /// let mut exact = GameBuilder::new()
    ///     .sections(6, Kilowatts::new(60.0))
    ///     .olevs(3, Kilowatts::new(40.0))
    ///     .welfare_resync_interval(1)
    ///     .build()?;
    /// let mut cached = GameBuilder::new()
    ///     .sections(6, Kilowatts::new(60.0))
    ///     .olevs(3, Kilowatts::new(40.0))
    ///     .build()?;
    /// let we = exact.run(UpdateOrder::RoundRobin, 500)?.final_welfare();
    /// let wc = cached.run(UpdateOrder::RoundRobin, 500)?.final_welfare();
    /// assert!((we - wc).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn welfare_resync_interval(mut self, every: usize) -> Self {
        self.welfare_resync_every = every;
        self
    }

    /// Sets how many schedule row writes pass between exact recomputes of
    /// the cached section loads/totals (default
    /// [`RESYNC_WRITES`]). An interval of 1
    /// keeps the caches bit-identical to the naive column/row sums — the
    /// reference configuration the equivalence tests pin against.
    #[must_use]
    pub fn schedule_resync_writes(mut self, writes: usize) -> Self {
        self.schedule_resync_writes = writes;
        self
    }

    /// Chooses how the initial schedule is seeded (default
    /// [`WarmStart::Cold`]).
    ///
    /// ```
    /// use oes_game::{GameBuilder, UpdateOrder, WarmStart};
    /// use oes_units::Kilowatts;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let build = |ws| {
    ///     GameBuilder::new()
    ///         .sections(8, Kilowatts::new(60.0))
    ///         .olevs(128, Kilowatts::new(50.0))
    ///         .warm_start(ws)
    ///         .build()
    /// };
    /// let warm = build(WarmStart::MeanField)?.run(UpdateOrder::RoundRobin, 512 * 128)?;
    /// let cold = build(WarmStart::Cold)?.run(UpdateOrder::RoundRobin, 512 * 128)?;
    /// // Same equilibrium, fewer updates to reach it.
    /// assert!((warm.final_welfare() - cold.final_welfare()).abs() < 1e-9);
    /// assert!(warm.updates() < cold.updates());
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn warm_start(mut self, warm_start: WarmStart) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Forces a specific scheduler instead of the one the pricing policy
    /// admits — an ablation knob (e.g. nonlinear pricing *with greedy
    /// filling* shows the load balance of Fig. 5(c) needs the water-filling
    /// scheduler, not just the convex prices).
    ///
    /// Forcing water-filling onto the linear policy is rejected at build
    /// time since Lemma IV.1 needs strict convexity.
    #[must_use]
    pub fn force_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler_override = Some(scheduler);
        self
    }

    /// Populates sections and OLEVs from WPT-substrate objects: section
    /// capacities come from Eq. 1 at each OLEV's common velocity and the
    /// given traffic flow; OLEV bounds come from Eq. 2.
    ///
    /// # Panics
    ///
    /// Panics if `olevs` is empty (the common velocity is their mean).
    #[must_use]
    pub fn from_wpt(
        mut self,
        olevs: &[Olev],
        sections: &[ChargingSection],
        passes_per_hour: f64,
    ) -> Self {
        assert!(!olevs.is_empty(), "need at least one OLEV for a velocity");
        let mean_vel = olevs.iter().map(|o| o.velocity().value()).sum::<f64>() / olevs.len() as f64;
        let vel = oes_units::MetersPerSecond::new(mean_vel);
        for s in sections {
            self.caps
                .push(s.sustained_capacity(vel, passes_per_hour).value());
        }
        for o in olevs {
            self.olevs.push(OlevSpecEntry {
                p_max: o.receivable_power().value(),
                satisfaction: Box::new(LogSatisfaction::new(1.0)),
                window: None,
            });
        }
        self
    }

    /// Builds the game with an all-zero initial schedule.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::NoSections`] / [`GameError::NoOlevs`] for empty
    /// scenarios and [`GameError::InvalidParameter`] for non-positive
    /// capacities, non-finite bounds, or an out-of-range `η`/κ/tolerance.
    /// With [`WarmStart::MeanField`], scenarios outside the mean-field
    /// contract are rejected with [`GameError::MeanFieldUnsupported`].
    pub fn build(self) -> Result<Game, GameError> {
        if self.caps.is_empty() {
            return Err(GameError::NoSections);
        }
        if self.olevs.is_empty() {
            return Err(GameError::NoOlevs);
        }
        for &cap in &self.caps {
            if !(cap > 0.0 && cap.is_finite()) {
                return Err(GameError::InvalidParameter {
                    name: "section capacity",
                    value: cap,
                });
            }
        }
        for o in &self.olevs {
            if !(o.p_max >= 0.0 && o.p_max.is_finite()) {
                return Err(GameError::InvalidParameter {
                    name: "olev p_max",
                    value: o.p_max,
                });
            }
            if let Some((start, end)) = o.window {
                if start >= end || end > self.caps.len() {
                    return Err(GameError::InvalidParameter {
                        name: "olev section window",
                        value: end as f64,
                    });
                }
            }
        }
        if !(self.eta > 0.0 && self.eta <= 1.0) {
            return Err(GameError::InvalidParameter {
                name: "eta",
                value: self.eta,
            });
        }
        if !(self.tolerance > 0.0 && self.tolerance.is_finite()) {
            return Err(GameError::InvalidParameter {
                name: "tolerance",
                value: self.tolerance,
            });
        }
        if self.welfare_resync_every == 0 {
            return Err(GameError::InvalidParameter {
                name: "welfare resync interval",
                value: 0.0,
            });
        }
        if self.schedule_resync_writes == 0 {
            return Err(GameError::InvalidParameter {
                name: "schedule resync writes",
                value: 0.0,
            });
        }
        let beta = match &self.policy {
            PricingPolicy::Nonlinear(p) => p.beta,
            PricingPolicy::Linear(p) => p.beta,
        };
        let kappa = self.kappa.unwrap_or(beta);
        if !(kappa >= 0.0 && kappa.is_finite()) {
            return Err(GameError::InvalidParameter {
                name: "kappa",
                value: kappa,
            });
        }
        let cost = SectionCost::new(self.policy, OverloadPenalty::new(kappa), self.eta);
        let scheduler = match self.scheduler_override {
            Some(Scheduler::WaterFilling) if !cost.supports_waterfilling() => {
                return Err(GameError::InvalidParameter {
                    name: "scheduler (water-filling needs strictly convex Z)",
                    value: 0.0,
                });
            }
            Some(s) => s,
            None => Scheduler::for_cost(&cost),
        };
        let full_window = (0, self.caps.len());
        let mut p_max = Vec::with_capacity(self.olevs.len());
        let mut satisfactions: Vec<Box<dyn Satisfaction>> = Vec::with_capacity(self.olevs.len());
        let mut windows = Vec::with_capacity(self.olevs.len());
        for o in self.olevs {
            p_max.push(o.p_max);
            satisfactions.push(o.satisfaction);
            windows.push(o.window.unwrap_or(full_window));
        }
        let schedule = PowerSchedule::zeros(p_max.len(), self.caps.len());
        let mut state = ScheduleState::new(schedule, &satisfactions, &cost, &self.caps);
        state.set_resync_interval(self.welfare_resync_every);
        state.set_schedule_resync_writes(self.schedule_resync_writes);
        let scratch_loads = Vec::with_capacity(self.caps.len());
        let scratch_row = vec![0.0; self.caps.len()];
        let cap_sum = self.caps.iter().sum();
        let mut game = Game {
            satisfactions,
            p_max,
            caps: self.caps,
            cost,
            scheduler,
            state,
            tolerance: self.tolerance,
            scratch_loads,
            scratch_row,
            levels: WaterLevels::default(),
            cap_sum,
            windows,
            welfare_resync_every: self.welfare_resync_every,
            schedule_resync_writes: self.schedule_resync_writes,
        };
        if self.warm_start == WarmStart::MeanField {
            game.warm_start_mean_field()?;
        }
        Ok(game)
    }
}

impl Default for GameBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::LinearPricing;
    use oes_units::{MetersPerSecond, OlevId, SectionId, StateOfCharge};
    use oes_wpt::OlevSpec;

    #[test]
    fn builds_a_valid_game() {
        let g = GameBuilder::new()
            .sections(5, Kilowatts::new(60.0))
            .olevs(3, Kilowatts::new(40.0))
            .build()
            .unwrap();
        assert_eq!(g.olev_count(), 3);
        assert_eq!(g.section_count(), 5);
        assert_eq!(g.schedule().total(), 0.0);
        assert_eq!(g.scheduler(), Scheduler::WaterFilling);
    }

    #[test]
    fn linear_policy_selects_greedy_scheduler() {
        let g = GameBuilder::new()
            .sections(2, Kilowatts::new(60.0))
            .olevs(1, Kilowatts::new(40.0))
            .pricing(PricingPolicy::Linear(LinearPricing::paper_default(20.0)))
            .build()
            .unwrap();
        assert_eq!(g.scheduler(), Scheduler::Greedy);
    }

    #[test]
    fn empty_scenarios_rejected() {
        assert_eq!(
            GameBuilder::new()
                .olevs(1, Kilowatts::new(1.0))
                .build()
                .unwrap_err(),
            GameError::NoSections
        );
        assert_eq!(
            GameBuilder::new()
                .sections(1, Kilowatts::new(1.0))
                .build()
                .unwrap_err(),
            GameError::NoOlevs
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        let err = GameBuilder::new()
            .section(Kilowatts::new(-5.0))
            .olevs(1, Kilowatts::new(1.0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            GameError::InvalidParameter {
                name: "section capacity",
                ..
            }
        ));

        // Regression for the zero-capacity congestion guard: a 0 kW section
        // must be rejected here, before it can poison `P_c / cap` gauges.
        let err = GameBuilder::new()
            .section(Kilowatts::new(0.0))
            .olevs(1, Kilowatts::new(1.0))
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            GameError::InvalidParameter {
                name: "section capacity",
                ..
            }
        ));

        let err = GameBuilder::new()
            .sections(1, Kilowatts::new(10.0))
            .olevs(1, Kilowatts::new(1.0))
            .eta(0.0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            GameError::InvalidParameter { name: "eta", .. }
        ));
    }

    #[test]
    fn from_wpt_wires_eq1_and_eq2() {
        let spec = OlevSpec::chevy_spark_default();
        let mut olevs: Vec<Olev> = (0..3)
            .map(|i| {
                Olev::new(
                    OlevId(i),
                    spec,
                    StateOfCharge::saturating(0.4),
                    StateOfCharge::saturating(0.8),
                )
            })
            .collect();
        for o in &mut olevs {
            o.set_velocity(MetersPerSecond::new(26.8224));
        }
        let sections: Vec<ChargingSection> = (0..4)
            .map(|i| ChargingSection::paper_default(SectionId(i)))
            .collect();
        let g = GameBuilder::new()
            .from_wpt(&olevs, &sections, 300.0)
            .build()
            .unwrap();
        assert_eq!(g.olev_count(), 3);
        assert_eq!(g.section_count(), 4);
        // Eq. 2 with (0.8 − 0.4 + 0.2): 0.6 × 95.76 × 0.85 / 0.9.
        let expected = 0.6 * 95.76 * 0.85 / 0.9;
        assert!((g.p_max()[0] - expected).abs() < 1e-9);
        // Eq. 1-derived sustained capacity is positive and uniform.
        assert!(g.caps()[0] > 0.0);
        assert_eq!(g.caps()[0], g.caps()[3]);
    }

    #[test]
    fn force_scheduler_ablation_knob() {
        // Nonlinear pricing with greedy filling is allowed (ablation)...
        let g = GameBuilder::new()
            .sections(2, Kilowatts::new(60.0))
            .olevs(1, Kilowatts::new(40.0))
            .force_scheduler(Scheduler::Greedy)
            .build()
            .unwrap();
        assert_eq!(g.scheduler(), Scheduler::Greedy);
        // ...but water-filling on the linear policy violates Lemma IV.1.
        let err = GameBuilder::new()
            .sections(2, Kilowatts::new(60.0))
            .olevs(1, Kilowatts::new(40.0))
            .pricing(PricingPolicy::Linear(LinearPricing::paper_default(15.0)))
            .force_scheduler(Scheduler::WaterFilling)
            .build()
            .unwrap_err();
        assert!(matches!(err, GameError::InvalidParameter { .. }));
    }

    #[test]
    fn zero_resync_intervals_rejected_at_build() {
        let err = GameBuilder::new()
            .sections(2, Kilowatts::new(60.0))
            .olevs(1, Kilowatts::new(40.0))
            .welfare_resync_interval(0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            GameError::InvalidParameter {
                name: "welfare resync interval",
                ..
            }
        ));
        let err = GameBuilder::new()
            .sections(2, Kilowatts::new(60.0))
            .olevs(1, Kilowatts::new(40.0))
            .schedule_resync_writes(0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            GameError::InvalidParameter {
                name: "schedule resync writes",
                ..
            }
        ));
    }

    #[test]
    fn builder_resync_intervals_survive_reset() {
        use crate::engine::UpdateOrder;
        // Interval-1 via the builder must reproduce the naive-path welfare
        // bit-for-bit even after `reset()` rebuilds the incremental state —
        // the regression the durable `Game` fields exist for.
        let build = |exact: bool| {
            let b = GameBuilder::new()
                .sections(4, Kilowatts::new(60.0))
                .olevs(3, Kilowatts::new(40.0));
            let b = if exact {
                b.welfare_resync_interval(1).schedule_resync_writes(1)
            } else {
                b
            };
            b.build().unwrap()
        };
        let mut exact = build(true);
        let mut cached = build(false);
        exact.run(UpdateOrder::RoundRobin, 100).unwrap();
        cached.run(UpdateOrder::RoundRobin, 100).unwrap();
        exact.reset();
        cached.reset();
        let oe = exact.run(UpdateOrder::RoundRobin, 300).unwrap();
        let oc = cached.run(UpdateOrder::RoundRobin, 300).unwrap();
        assert_eq!(oe.converged(), oc.converged());
        assert!((oe.final_welfare() - oc.final_welfare()).abs() < 1e-9);
        // And the exact game's cached loads equal a from-scratch resync bit
        // for bit (schedule interval 1).
        let mut resynced = exact.schedule().clone();
        resynced.resync();
        for (a, b) in exact.schedule().loads().iter().zip(resynced.loads()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn heterogeneous_olevs_supported() {
        let g = GameBuilder::new()
            .sections(2, Kilowatts::new(60.0))
            .olev_with(Kilowatts::new(20.0), Box::new(LogSatisfaction::new(5.0)))
            .olevs_weighted(2, Kilowatts::new(40.0), 0.5)
            .build()
            .unwrap();
        assert_eq!(g.olev_count(), 3);
        assert_eq!(g.p_max(), &[20.0, 40.0, 40.0]);
    }
}
