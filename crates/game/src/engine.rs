//! The asynchronous best-response engine (Sections IV.D–IV.G).
//!
//! The smart grid repeatedly picks one OLEV, posts it the updated payment
//! function (Eq. 20), receives its best-response request (Eq. 21), and
//! re-schedules it cost-minimally (Lemma IV.1). Theorem IV.1 guarantees the
//! process converges to the socially optimal schedule; the engine detects
//! convergence when a full cycle of updates moves nobody by more than the
//! tolerance.
//!
//! An update needs only the OLEV's new total and row, so under water-filling
//! [`Game::update_olev`] runs the best response's move kernel into buffers
//! the game owns (its level table and scratch row) and never builds the
//! priced [`crate::best_response::BestResponse`]: no payment, no utility,
//! no allocation per update. Greedy scheduling keeps the full best
//! response. The capacity sum behind [`Game::system_congestion`] is taken
//! once at build.

use oes_telemetry::Telemetry;
use oes_units::rng::ChaCha8Rng;
use oes_units::{OlevId, SectionId};

use crate::best_response::{best_response, waterfilling_move};
use crate::error::GameError;
use crate::payment::{payment_for_schedule, Scheduler};
use crate::pricing::SectionCost;
use crate::satisfaction::Satisfaction;
use crate::schedule::PowerSchedule;
use crate::state::ScheduleState;
use crate::waterfill::WaterLevels;

/// The order in which the grid polls OLEVs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOrder {
    /// Cyclic polling (the paper's cycle-length-`N` guarantee).
    RoundRobin,
    /// Uniformly random polling, seeded for reproducibility (the paper's
    /// "randomly chosen OLEV").
    Random {
        /// RNG seed.
        seed: u64,
    },
}

/// One recorded point of a run's trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Update counter (1-based).
    pub update: usize,
    /// System congestion degree: total load over total capacity.
    pub congestion: f64,
    /// Social welfare at this point.
    pub welfare: f64,
    /// `|Δp_n|` of the update that produced this snapshot.
    pub change: f64,
}

/// The result of running the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub(crate) converged: bool,
    pub(crate) updates: usize,
    /// One snapshot per update, in order.
    pub trajectory: Vec<Snapshot>,
    pub(crate) degradation: crate::faults::DegradationReport,
    /// Welfare of the schedule when the run ended — the fallback for
    /// [`Outcome::final_welfare`] when the trajectory is empty (a zero-update
    /// budget, or a hardened run where every OLEV was evicted before an
    /// update applied).
    pub(crate) end_welfare: f64,
}

impl Outcome {
    /// Whether a full cycle of updates moved nobody by more than the
    /// tolerance before the update budget ran out.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// What the network did to the run: drops, retries, timeouts, and
    /// evictions. The in-process engine always reports a clean run; the
    /// decentralized runtime fills this in.
    #[must_use]
    pub fn degradation(&self) -> &crate::faults::DegradationReport {
        &self.degradation
    }

    /// How many single-OLEV updates ran.
    #[must_use]
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// The welfare at the end of the run: the last snapshot's welfare, or the
    /// welfare of the schedule as the run ended when no update was recorded
    /// (zero-update budget, or a hardened run that evicted everyone before an
    /// update applied).
    #[must_use]
    pub fn final_welfare(&self) -> f64 {
        self.trajectory
            .last()
            .map_or(self.end_welfare, |s| s.welfare)
    }

    /// The update index from which congestion *stayed at or above* `fraction`
    /// of its final value — the convergence-speed measure of Figs. 5(d)/6(d).
    ///
    /// # Examples
    ///
    /// ```
    /// use oes_game::{GameBuilder, UpdateOrder};
    /// use oes_units::Kilowatts;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut game = GameBuilder::new()
    ///     .sections(8, Kilowatts::new(60.0))
    ///     .olevs(5, Kilowatts::new(40.0))
    ///     .build()?;
    /// let outcome = game.run(UpdateOrder::RoundRobin, 1_000)?;
    /// // The fleet reaches 95% of its final congestion within the run, and
    /// // the trajectory records one snapshot per applied update.
    /// let ramp = outcome.updates_to_reach(0.95).expect("non-zero load");
    /// assert!(ramp <= outcome.updates());
    /// assert_eq!(outcome.trajectory.len(), outcome.updates());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// Scans for the last crossing, so a transient early spike on a
    /// non-monotone trajectory does not count as "reached". Returns `None`
    /// for an empty trajectory or a run that ended with zero congestion: a
    /// fleet that never drew power has no ramp-up time (the old
    /// first-crossing scan reported a spurious `Some(1)` there, because the
    /// target `0 × fraction` is trivially met by the first snapshot).
    #[must_use]
    pub fn updates_to_reach(&self, fraction: f64) -> Option<usize> {
        let last = self.trajectory.last()?;
        if last.congestion <= 0.0 {
            return None;
        }
        let target = last.congestion * fraction;
        let mut reached = None;
        for s in self.trajectory.iter().rev() {
            if s.congestion >= target {
                reached = Some(s.update);
            } else {
                break;
            }
        }
        reached
    }
}

/// A configured pricing game between `N` OLEVs and `C` charging sections.
///
/// Build one with [`crate::GameBuilder`]. The state is the current power
/// schedule; [`Game::run`] advances it by asynchronous best responses.
pub struct Game {
    pub(crate) satisfactions: Vec<Box<dyn Satisfaction>>,
    pub(crate) p_max: Vec<f64>,
    pub(crate) caps: Vec<f64>,
    pub(crate) cost: SectionCost,
    pub(crate) scheduler: Scheduler,
    pub(crate) state: ScheduleState,
    pub(crate) tolerance: f64,
    /// Reusable `P_{-n,c}` buffer so the hot update path does not allocate.
    pub(crate) scratch_loads: Vec<f64>,
    /// Reusable full-width row buffer the next row is written into.
    pub(crate) scratch_row: Vec<f64>,
    /// Reusable water-filling level table of the move kernel.
    pub(crate) levels: WaterLevels,
    /// `Σ_c caps[c]`, summed once at build in `caps` order.
    pub(crate) cap_sum: f64,
    /// Per-OLEV accessible-section windows `[start, end)` — the corridor
    /// span the OLEV can draw power on. Defaults to the full section range.
    pub(crate) windows: Vec<(usize, usize)>,
    /// Applied rows between exact welfare resyncs; survives
    /// [`Game::set_schedule`] / [`Game::reset`].
    pub(crate) welfare_resync_every: usize,
    /// Schedule writes between exact aggregate resyncs; survives
    /// [`Game::set_schedule`] / [`Game::reset`].
    pub(crate) schedule_resync_writes: usize,
}

impl core::fmt::Debug for Game {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Game")
            .field("olevs", &self.p_max.len())
            .field("sections", &self.caps.len())
            .field("scheduler", &self.scheduler)
            .field("tolerance", &self.tolerance)
            .finish_non_exhaustive()
    }
}

impl Game {
    /// Number of OLEVs.
    #[must_use]
    pub fn olev_count(&self) -> usize {
        self.p_max.len()
    }

    /// Number of charging sections.
    #[must_use]
    pub fn section_count(&self) -> usize {
        self.caps.len()
    }

    /// Per-section capacities `P_line` (kW).
    #[must_use]
    pub fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// Per-OLEV capacity bounds `P_OLEV` (kW).
    #[must_use]
    pub fn p_max(&self) -> &[f64] {
        &self.p_max
    }

    /// The section cost `Z`.
    #[must_use]
    pub fn cost(&self) -> &SectionCost {
        &self.cost
    }

    /// The grid's scheduler.
    #[must_use]
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// The satisfaction functions (grid-side code never calls these in the
    /// decentralized path; they are exposed for analysis and ground truth).
    #[must_use]
    pub fn satisfactions(&self) -> &[Box<dyn Satisfaction>] {
        &self.satisfactions
    }

    /// Per-OLEV accessible-section windows `[start, end)` — the corridor
    /// span each OLEV can draw power on ([`crate::GameBuilder::olevs_in`]).
    /// OLEVs without an explicit window cover the full section range. Honored
    /// by the in-process engines (serial and parallel); the decentralized
    /// runtime plays full-width best responses.
    #[must_use]
    pub fn windows(&self) -> &[(usize, usize)] {
        &self.windows
    }

    /// The current power schedule.
    #[must_use]
    pub fn schedule(&self) -> &PowerSchedule {
        self.state.schedule()
    }

    /// Replaces the current schedule (e.g. to warm-start from a solution),
    /// recomputing the incremental welfare state exactly.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions mismatch.
    pub fn set_schedule(&mut self, schedule: PowerSchedule) {
        assert_eq!(
            schedule.olev_count(),
            self.olev_count(),
            "OLEV count mismatch"
        );
        assert_eq!(
            schedule.section_count(),
            self.section_count(),
            "section count mismatch"
        );
        self.state = ScheduleState::new(schedule, &self.satisfactions, &self.cost, &self.caps);
        self.state.set_resync_interval(self.welfare_resync_every);
        self.state
            .set_schedule_resync_writes(self.schedule_resync_writes);
    }

    /// Solves the [mean-field limit](crate::meanfield) of this game and
    /// seeds the schedule from it (every OLEV starts at its type
    /// representative's equilibrium row), returning the solution. The exact
    /// engine then only has to burn down the O(1/N) mean-field bias —
    /// [`Game::reset`] returns to the cold all-zero start.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::MeanFieldUnsupported`] when the scenario falls
    /// outside the mean-field contract (see [`crate::meanfield`]).
    pub fn warm_start_mean_field(
        &mut self,
    ) -> Result<crate::meanfield::MeanFieldSolution, GameError> {
        let solution = crate::meanfield::solve_mean_field(self)?;
        self.set_schedule(solution.to_schedule());
        Ok(solution)
    }

    /// Resets the schedule to all-zero.
    pub fn reset(&mut self) {
        self.set_schedule(PowerSchedule::zeros(
            self.olev_count(),
            self.section_count(),
        ));
    }

    /// Sets how often the incremental welfare state performs an exact
    /// from-scratch resync (every `every` applied updates). The default
    /// ([`crate::state::DEFAULT_RESYNC_EVERY`]) keeps drift far below the
    /// engine tolerance; an interval of 1 reproduces the naive recompute
    /// path exactly.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn set_welfare_resync_interval(&mut self, every: usize) {
        self.state.set_resync_interval(every);
        self.welfare_resync_every = every;
    }

    /// Sets how often the schedule's cached aggregates (loads, totals — the
    /// parallel engine's per-round snapshot source) are recomputed exactly
    /// (every `writes` row writes). The default
    /// ([`crate::schedule::RESYNC_WRITES`]) keeps drift far below the engine
    /// tolerance; an interval of 1 keeps the caches bit-identical to the
    /// naive column/row sums.
    ///
    /// # Panics
    ///
    /// Panics if `writes` is zero.
    pub fn set_schedule_resync_writes(&mut self, writes: usize) {
        self.state.set_schedule_resync_writes(writes);
        self.schedule_resync_writes = writes;
    }

    /// Current per-section loads `P_c`.
    #[must_use]
    pub fn section_loads(&self) -> Vec<f64> {
        self.state.schedule().section_loads()
    }

    /// System congestion degree (total load over total capacity).
    #[must_use]
    pub fn system_congestion(&self) -> f64 {
        self.state.schedule().congestion_over(self.cap_sum)
    }

    /// Current social welfare `W(p)` (Eq. 7), from the incrementally
    /// maintained sums — O(1).
    #[must_use]
    pub fn welfare(&self) -> f64 {
        self.state.welfare()
    }

    /// Total payment `Σ_n ξ_n` collected at the current schedule.
    #[must_use]
    pub fn total_payment(&self) -> f64 {
        let schedule = self.state.schedule();
        let mut loads_excl = Vec::with_capacity(self.section_count());
        let mut total = 0.0;
        for n in 0..self.olev_count() {
            let id = OlevId(n);
            schedule.loads_excluding_into(id, &mut loads_excl);
            total += payment_for_schedule(&self.cost, &self.caps, &loads_excl, schedule.row(id));
        }
        total
    }

    /// The average unit payment in $/MWh (total payment over total energy,
    /// with the crate's kWh-scale costs converted back to the LBMP scale) —
    /// the y-axis of Figs. 5(a)/6(a). Returns zero with no allocation.
    #[must_use]
    pub fn unit_payment_dollars_per_mwh(&self) -> f64 {
        let power = self.state.schedule().total();
        if power <= 0.0 {
            return 0.0;
        }
        self.total_payment() / power * 1000.0
    }

    /// Runs one best-response update for OLEV `n` (Eqs. 20–21) and returns
    /// `|Δp_n|`. The row written is the one [`crate::best_response()`]
    /// returns against the current `P_{-n,c}`, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::UnknownOlev`] if `n` is out of range.
    pub fn update_olev(&mut self, n: usize) -> Result<f64, GameError> {
        if n >= self.olev_count() {
            return Err(GameError::UnknownOlev(n));
        }
        let id = OlevId(n);
        self.state.loads_excluding_into(id, &mut self.scratch_loads);
        let before = self.state.schedule().olev_total(id);
        let (w0, w1) = self.windows[n];
        if (w0, w1) != (0, self.caps.len()) {
            // The schedule stays zero outside the OLEV's corridor span.
            self.scratch_row.fill(0.0);
        }
        let caps = &self.caps[w0..w1];
        let loads_excl = &self.scratch_loads[w0..w1];
        let shares = &mut self.scratch_row[w0..w1];
        let satisfaction = self.satisfactions[n].as_ref();
        let total = match self.scheduler {
            Scheduler::WaterFilling => {
                waterfilling_move(
                    satisfaction,
                    &self.cost,
                    caps,
                    loads_excl,
                    self.p_max[n],
                    &mut self.levels,
                    shares,
                )
                .0
            }
            Scheduler::Greedy => {
                let br = best_response(
                    satisfaction,
                    &self.cost,
                    caps,
                    loads_excl,
                    self.p_max[n],
                    self.scheduler,
                );
                shares.copy_from_slice(&br.allocation.shares);
                br.total
            }
        };
        self.state.apply_row(
            id,
            &self.scratch_row,
            &self.satisfactions,
            &self.cost,
            &self.caps,
        );
        Ok((total - before).abs())
    }

    /// Runs asynchronous best responses until convergence or `max_updates`.
    ///
    /// Convergence: `N` consecutive updates (one full cycle) each changed an
    /// OLEV's total by less than the tolerance — `4N` under random polling,
    /// which must also have polled every OLEV at least once.
    ///
    /// # Errors
    ///
    /// Returns [`GameError`] if the scenario is degenerate (cannot happen for
    /// builder-constructed games).
    ///
    /// # Examples
    ///
    /// The polling order never changes the equilibrium (Theorem IV.1), only
    /// the path to it:
    ///
    /// ```
    /// use oes_game::{GameBuilder, UpdateOrder};
    /// use oes_units::Kilowatts;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let build = || GameBuilder::new()
    ///     .sections(10, Kilowatts::new(60.0))
    ///     .olevs(6, Kilowatts::new(45.0))
    ///     .build();
    /// let mut cyclic = build()?;
    /// let mut random = build()?;
    /// let a = cyclic.run(UpdateOrder::RoundRobin, 2_000)?;
    /// let b = random.run(UpdateOrder::Random { seed: 42 }, 2_000)?;
    /// assert!(a.converged() && b.converged());
    /// assert!((cyclic.welfare() - random.welfare()).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run(&mut self, order: UpdateOrder, max_updates: usize) -> Result<Outcome, GameError> {
        self.run_with(order, max_updates, &Telemetry::disabled())
    }

    /// [`Game::run`] with telemetry: each best-response update is wrapped in
    /// an `engine.update` span (keyed by OLEV), and each iteration emits
    /// `engine.welfare` / `engine.congestion` / `engine.change` gauges keyed
    /// by the update counter. With a disabled handle this is exactly
    /// [`Game::run`].
    ///
    /// # Errors
    ///
    /// Returns [`GameError`] if the scenario is degenerate (cannot happen for
    /// builder-constructed games).
    pub fn run_with(
        &mut self,
        order: UpdateOrder,
        max_updates: usize,
        telemetry: &Telemetry,
    ) -> Result<Outcome, GameError> {
        let n_olevs = self.olev_count();
        let mut rng = match order {
            UpdateOrder::Random { seed } => Some(ChaCha8Rng::seed_from_u64(seed)),
            UpdateOrder::RoundRobin => None,
        };
        let mut trajectory = Vec::with_capacity(max_updates.min(4096));
        // Accumulated across the whole run; every exit path returns this
        // same report so early convergence cannot zero the counters.
        let mut report = crate::faults::DegradationReport::default();
        let mut calm_streak = 0usize;
        let mut updates = 0usize;
        // OLEVs not yet polled: a calm streak that never reached one of
        // them says nothing about its best response.
        let mut polled = vec![false; n_olevs];
        let mut unpolled = n_olevs;
        while updates < max_updates {
            let n = match &mut rng {
                Some(r) => r.gen_range(0..n_olevs),
                None => updates % n_olevs,
            };
            if !polled[n] {
                polled[n] = true;
                unpolled -= 1;
            }
            let change = {
                let _span = telemetry.span("engine.update", n as i64);
                self.update_olev(n)?
            };
            updates += 1;
            // The in-process engine "posts" one offer per update; the same
            // accounting the decentralized coordinator does on a clean link.
            report.offers_sent += 1;
            let snapshot = Snapshot {
                update: updates,
                congestion: self.system_congestion(),
                welfare: self.welfare(),
                change,
            };
            let key = updates as i64;
            telemetry.gauge("engine.welfare", key, snapshot.welfare);
            telemetry.gauge("engine.congestion", key, snapshot.congestion);
            telemetry.gauge("engine.change", key, snapshot.change);
            trajectory.push(snapshot);
            if change < self.tolerance {
                calm_streak += 1;
            } else {
                calm_streak = 0;
            }
            // A full calm cycle: with round-robin that provably covers every
            // OLEV; with random polling we require a longer streak so that
            // every OLEV has overwhelming probability of being included, and
            // every OLEV polled at least once.
            let needed = match order {
                UpdateOrder::RoundRobin => n_olevs,
                UpdateOrder::Random { .. } => 4 * n_olevs,
            };
            if calm_streak >= needed && unpolled == 0 {
                telemetry.counter("engine.converged", -1, 1);
                return Ok(Outcome {
                    converged: true,
                    updates,
                    trajectory,
                    degradation: report,
                    end_welfare: self.welfare(),
                });
            }
        }
        Ok(Outcome {
            converged: false,
            updates,
            trajectory,
            degradation: report,
            end_welfare: self.welfare(),
        })
    }

    /// Congestion degree of one section.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[must_use]
    pub fn section_congestion(&self, c: usize) -> f64 {
        self.state
            .schedule()
            .congestion_degree(SectionId(c), self.caps[c])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GameBuilder;
    use crate::pricing::{LinearPricing, NonlinearPricing, PricingPolicy};
    use oes_units::Kilowatts;

    fn small_game() -> Game {
        GameBuilder::new()
            .sections(8, Kilowatts::new(60.0))
            .olevs(4, Kilowatts::new(50.0))
            .pricing(PricingPolicy::Nonlinear(NonlinearPricing::paper_default(
                15.0,
            )))
            .build()
            .expect("valid scenario")
    }

    #[test]
    fn run_converges_round_robin() {
        let mut g = small_game();
        let out = g.run(UpdateOrder::RoundRobin, 1000).unwrap();
        assert!(out.converged());
        assert!(out.updates() < 1000);
        assert!(out.final_welfare().is_finite());
    }

    #[test]
    fn run_converges_random_order_to_same_welfare() {
        let mut a = small_game();
        let mut b = small_game();
        let wa = a
            .run(UpdateOrder::RoundRobin, 2000)
            .unwrap()
            .final_welfare();
        let wb = b
            .run(UpdateOrder::Random { seed: 9 }, 2000)
            .unwrap()
            .final_welfare();
        // Theorem IV.1: the optimum is unique, so the order cannot matter.
        assert!((wa - wb).abs() < 1e-6, "{wa} vs {wb}");
    }

    #[test]
    fn welfare_is_monotone_along_best_responses() {
        // The exact-potential property in action: every best response can
        // only raise W.
        let mut g = small_game();
        let mut last = g.welfare();
        for k in 0..40 {
            g.update_olev(k % 4).unwrap();
            let w = g.welfare();
            assert!(
                w >= last - 1e-9,
                "welfare dropped at update {k}: {last} -> {w}"
            );
            last = w;
        }
    }

    #[test]
    fn nonlinear_equilibrium_is_load_balanced() {
        let mut g = small_game();
        g.run(UpdateOrder::RoundRobin, 2000).unwrap();
        let loads = g.section_loads();
        let min = loads.iter().fold(f64::INFINITY, |m, &l| m.min(l));
        let max = loads.iter().fold(0.0f64, |m, &l| m.max(l));
        assert!(max - min < 1e-6, "imbalance {min}..{max}");
    }

    #[test]
    fn linear_equilibrium_is_unbalanced() {
        let mut g = GameBuilder::new()
            .sections(8, Kilowatts::new(60.0))
            .olevs(4, Kilowatts::new(50.0))
            .pricing(PricingPolicy::Linear(LinearPricing::paper_default(15.0)))
            .build()
            .unwrap();
        g.run(UpdateOrder::RoundRobin, 2000).unwrap();
        let loads = g.section_loads();
        let min = loads.iter().fold(f64::INFINITY, |m, &l| m.min(l));
        let max = loads.iter().fold(0.0f64, |m, &l| m.max(l));
        assert!(
            max - min > 1.0,
            "greedy filling should be uneven: {loads:?}"
        );
    }

    #[test]
    fn unknown_olev_rejected() {
        let mut g = small_game();
        assert_eq!(g.update_olev(99), Err(GameError::UnknownOlev(99)));
    }

    #[test]
    fn reset_zeroes_the_schedule() {
        let mut g = small_game();
        g.run(UpdateOrder::RoundRobin, 100).unwrap();
        assert!(g.schedule().total() > 0.0);
        g.reset();
        assert_eq!(g.schedule().total(), 0.0);
        assert_eq!(g.system_congestion(), 0.0);
    }

    #[test]
    fn unit_payment_zero_without_allocation() {
        let g = small_game();
        assert_eq!(g.unit_payment_dollars_per_mwh(), 0.0);
    }

    #[test]
    fn trajectory_congestion_is_nondecreasing_from_cold_start() {
        // From the all-zero schedule, requests only grow toward equilibrium
        // in a symmetric scenario (Figs. 5(d)/6(d) show this ramp).
        let mut g = small_game();
        let out = g.run(UpdateOrder::RoundRobin, 500).unwrap();
        let first = out.trajectory.first().unwrap().congestion;
        let last = out.trajectory.last().unwrap().congestion;
        assert!(last >= first);
        assert!(out.updates_to_reach(0.95).is_some());
    }

    #[test]
    fn early_convergence_keeps_accumulated_degradation_counters() {
        // Regression: the convergence exit path used to return a fresh
        // `DegradationReport::default()`, wiping the per-update accounting.
        let mut g = small_game();
        let out = g.run(UpdateOrder::RoundRobin, 1000).unwrap();
        assert!(out.converged(), "must exercise the early-convergence path");
        assert_eq!(
            out.degradation().offers_sent,
            out.updates(),
            "one offer per update must survive the early return"
        );
        assert!(out.degradation().is_clean(), "in-process runs are clean");
    }

    #[test]
    fn instrumented_run_emits_per_update_metrics_without_changing_outcome() {
        use oes_telemetry::{RingBufferRecorder, Telemetry};
        use std::sync::Arc;

        let mut plain = small_game();
        let baseline = plain.run(UpdateOrder::RoundRobin, 1000).unwrap();

        let ring = Arc::new(RingBufferRecorder::new(1 << 14));
        let telemetry = Telemetry::new(ring.clone());
        let mut instrumented = small_game();
        let out = instrumented
            .run_with(UpdateOrder::RoundRobin, 1000, &telemetry)
            .unwrap();

        // Recorder neutrality: bit-identical trajectory and schedule.
        assert_eq!(out, baseline);
        assert_eq!(instrumented.schedule(), plain.schedule());

        let events = ring.events();
        let gauges = events.iter().filter(|e| e.name == "engine.welfare").count();
        assert_eq!(gauges, out.updates());
        let exits = events
            .iter()
            .filter(|e| {
                e.name == "engine.update"
                    && matches!(e.sample, oes_telemetry::Sample::SpanExit { .. })
            })
            .count();
        assert_eq!(exits, out.updates());
        assert_eq!(ring.counter_total("engine.converged"), 1);
        assert_eq!(
            ring.last_gauge("engine.welfare"),
            Some(baseline.final_welfare())
        );
    }

    #[test]
    fn outcome_updates_to_reach_handles_thresholds() {
        let mut g = small_game();
        let out = g.run(UpdateOrder::RoundRobin, 500).unwrap();
        let early = out.updates_to_reach(0.5).unwrap();
        let late = out.updates_to_reach(0.99).unwrap();
        assert!(early <= late);
    }

    #[test]
    fn zero_update_run_reports_current_welfare_without_panicking() {
        // Regression: `final_welfare()` used to panic on an empty trajectory.
        let mut g = small_game();
        let out = g.run(UpdateOrder::RoundRobin, 0).unwrap();
        assert_eq!(out.updates(), 0);
        assert!(!out.converged());
        assert!(out.trajectory.is_empty());
        assert_eq!(out.final_welfare().to_bits(), g.welfare().to_bits());
        assert_eq!(out.updates_to_reach(0.95), None);

        // Same from a warm start: the fallback is the *current* welfare, not
        // a hardcoded zero.
        g.run(UpdateOrder::RoundRobin, 50).unwrap();
        let warm = g.run(UpdateOrder::RoundRobin, 0).unwrap();
        assert!(warm.final_welfare() > 0.0);
        assert_eq!(warm.final_welfare().to_bits(), g.welfare().to_bits());
    }

    #[test]
    fn updates_to_reach_is_none_when_the_fleet_never_draws_power() {
        // Regression: a run whose final congestion is 0 used to report
        // `Some(1)` because the target `0 × fraction` was trivially met by
        // the first snapshot.
        let mut g = GameBuilder::new()
            .sections(4, Kilowatts::new(60.0))
            .olevs_weighted(2, Kilowatts::new(50.0), 1e-9)
            .pricing(PricingPolicy::Nonlinear(NonlinearPricing::paper_default(
                15.0,
            )))
            .build()
            .expect("valid scenario");
        let out = g.run(UpdateOrder::RoundRobin, 100).unwrap();
        assert!(out.updates() > 0, "the engine must actually poll the fleet");
        let last = out.trajectory.last().unwrap();
        assert_eq!(last.congestion, 0.0, "weightless fleet draws nothing");
        assert_eq!(out.updates_to_reach(0.95), None);
        // A zero-update run likewise has no ramp point.
        assert_eq!(out.updates_to_reach(0.0), None);
    }

    #[test]
    fn updates_to_reach_takes_the_last_crossing_on_non_monotone_trajectories() {
        let snap = |update, congestion| Snapshot {
            update,
            congestion,
            welfare: 0.0,
            change: 0.0,
        };
        // Transient spike above the final level, then a dip, then the ramp.
        let out = Outcome {
            converged: true,
            updates: 4,
            trajectory: vec![snap(1, 0.9), snap(2, 0.2), snap(3, 0.75), snap(4, 0.8)],
            degradation: crate::faults::DegradationReport::default(),
            end_welfare: 0.0,
        };
        // First crossing of 0.72 would be update 1 (the spike); the ramp that
        // *stays* above it starts at update 3.
        assert_eq!(out.updates_to_reach(0.9), Some(3));
        assert_eq!(out.updates_to_reach(1.0), Some(4));
    }

    #[test]
    fn incremental_welfare_matches_the_naive_path_along_a_run() {
        // The core refactor equivalence: the default resync interval must
        // land on the same equilibrium, update count, and welfare (within
        // 1e-9) as the resync-every-update configuration, which reproduces
        // the naive recompute path exactly.
        let mut cached = small_game();
        let mut naive = small_game();
        naive.set_welfare_resync_interval(1);
        let out_cached = cached.run(UpdateOrder::RoundRobin, 1000).unwrap();
        let out_naive = naive.run(UpdateOrder::RoundRobin, 1000).unwrap();
        assert_eq!(out_cached.converged(), out_naive.converged());
        assert_eq!(out_cached.updates(), out_naive.updates());
        assert!(
            (out_cached.final_welfare() - out_naive.final_welfare()).abs() < 1e-9,
            "{} vs {}",
            out_cached.final_welfare(),
            out_naive.final_welfare()
        );
        for (a, b) in out_cached.trajectory.iter().zip(&out_naive.trajectory) {
            assert!((a.welfare - b.welfare).abs() < 1e-9);
            assert!((a.congestion - b.congestion).abs() < 1e-9);
        }
        assert_eq!(cached.schedule(), naive.schedule());
    }
}
