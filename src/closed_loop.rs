//! The full paper system, closed loop: microscopic traffic, live batteries,
//! and the pricing game scheduling actual transfer power.
//!
//! [`crate::wpt::CoSimulation`] charges at the span's full rating —
//! uncoordinated. Here the smart grid is in the loop: every `replan_every`
//! seconds it collects the OLEVs currently on the approach (their Eq. 2
//! bounds from *live* SOC), plays the pricing game, and the resulting
//! per-OLEV power — not the line rating — is what flows while that OLEV
//! overlaps an energized span. Between replans the allocation stands, as it
//! would over a V2I round-trip.

use std::collections::BTreeMap;

use oes_game::{GameBuilder, NonlinearPricing, PricingPolicy, UpdateOrder};
use oes_traffic::energy::EnergyModel;
use oes_traffic::sim::Simulation;
use oes_traffic::vehicle::VehicleId;
use oes_units::rng::ChaCha8Rng;
use oes_units::{KilowattHours, Kilowatts, OlevId, Seconds, StateOfCharge};
use oes_wpt::cosim::ChargingSpan;
use oes_wpt::{Olev, OlevSpec};

/// Configuration of the closed loop.
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoopConfig {
    /// Probability a spawned vehicle is a charging OLEV.
    pub participation: f64,
    /// Spawn state of charge.
    pub initial_soc: StateOfCharge,
    /// Trip SOC requirement (Eq. 2's `SOC_req`).
    pub soc_required: StateOfCharge,
    /// Seconds between grid replans (a V2I negotiation cadence).
    pub replan_every: Seconds,
    /// Per-section game capacity (kW) — Eq. 1 at the corridor's speed.
    pub section_capacity: Kilowatts,
    /// LBMP β for the pricing policy, $/MWh.
    pub beta: f64,
    /// Safety factor η.
    pub eta: f64,
    /// RNG seed (participation draws).
    pub seed: u64,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        Self {
            participation: 0.5,
            initial_soc: StateOfCharge::saturating(0.5),
            soc_required: StateOfCharge::saturating(0.9),
            replan_every: Seconds::new(30.0),
            section_capacity: Kilowatts::new(25.0),
            beta: 15.0,
            eta: 0.9,
            seed: 0,
        }
    }
}

/// Aggregate results of a closed-loop run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ClosedLoopStats {
    /// Energy transferred under game allocations (kWh).
    pub energy_transferred: f64,
    /// Payments collected by the grid ($).
    pub revenue: f64,
    /// Number of grid replans executed.
    pub replans: usize,
    /// Replans that failed and fell back to the previous allocation.
    pub failed_replans: usize,
    /// Peak number of OLEVs in one game.
    pub peak_players: usize,
    /// Highest per-section congestion degree any replan scheduled.
    pub peak_congestion: f64,
    /// Best-response updates the replans' games ran, summed.
    pub game_updates: usize,
    /// Replans whose game hit its update cap before converging; their
    /// allocation still stands.
    pub unconverged_replans: usize,
}

/// The closed-loop co-simulation.
pub struct ClosedLoop {
    sim: Simulation,
    spans: Vec<ChargingSpan>,
    energy_model: EnergyModel,
    spec: OlevSpec,
    config: ClosedLoopConfig,
    rng: ChaCha8Rng,
    fleet: BTreeMap<VehicleId, Olev>,
    seen: BTreeMap<VehicleId, bool>,
    prev_speed: BTreeMap<VehicleId, f64>,
    /// Standing per-OLEV allocation (kW) from the last replan.
    allocation: BTreeMap<VehicleId, f64>,
    since_replan: f64,
    stats: ClosedLoopStats,
    /// The error of the most recent failed replan, if any.
    last_replan_error: Option<oes_game::GameError>,
}

impl core::fmt::Debug for ClosedLoop {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ClosedLoop")
            .field("active_olevs", &self.fleet.len())
            .field("replans", &self.stats.replans)
            .finish_non_exhaustive()
    }
}

impl ClosedLoop {
    /// Wraps a traffic simulation.
    #[must_use]
    pub fn new(sim: Simulation, spec: OlevSpec, config: ClosedLoopConfig) -> Self {
        Self {
            sim,
            spans: Vec::new(),
            energy_model: EnergyModel::chevy_spark_ev(),
            spec,
            config,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            fleet: BTreeMap::new(),
            seen: BTreeMap::new(),
            prev_speed: BTreeMap::new(),
            allocation: BTreeMap::new(),
            since_replan: f64::INFINITY, // replan immediately on first step
            stats: ClosedLoopStats::default(),
            last_replan_error: None,
        }
    }

    /// Adds an energized span.
    pub fn add_span(&mut self, span: ChargingSpan) {
        self.spans.push(span);
    }

    /// Read access to the traffic simulation.
    #[must_use]
    pub fn traffic(&self) -> &Simulation {
        &self.sim
    }

    /// Mutable access (attach demand, signals).
    pub fn traffic_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    /// Run statistics so far.
    #[must_use]
    pub fn stats(&self) -> ClosedLoopStats {
        self.stats
    }

    /// Currently active OLEVs.
    #[must_use]
    pub fn active_olevs(&self) -> usize {
        self.fleet.len()
    }

    /// The error of the most recent failed replan, if any replan has failed.
    #[must_use]
    pub fn last_replan_error(&self) -> Option<&oes_game::GameError> {
        self.last_replan_error.as_ref()
    }

    /// Advances one traffic step, replanning the game on cadence.
    ///
    /// A failed replan degrades gracefully: the previous standing
    /// allocation stays in force (as it would over a dead V2I round-trip),
    /// the failure is counted in [`ClosedLoopStats::failed_replans`], and
    /// the error is kept in [`Self::last_replan_error`].
    ///
    /// # Errors
    ///
    /// None currently; the `Result` is kept for traffic-side failures.
    pub fn step(&mut self) -> Result<(), oes_game::GameError> {
        let dt = self.sim.config().step;
        self.sim.step();

        // Classify arrivals, drain batteries with the speed trace. The rows
        // come out sorted by vehicle id.
        let states: Vec<(VehicleId, oes_traffic::EdgeId, f64, f64, f64)> = self
            .sim
            .vehicles()
            .map(|v| {
                (
                    v.id,
                    v.current_edge(),
                    v.position.value(),
                    v.params.length.value(),
                    v.speed.value(),
                )
            })
            .collect();
        for (id, edge, pos, len, speed) in &states {
            if !self.seen.contains_key(id) {
                let is_olev = self.rng.gen_bool(self.config.participation);
                self.seen.insert(*id, is_olev);
                if is_olev {
                    self.fleet.insert(
                        *id,
                        Olev::new(
                            OlevId(id.0 as usize),
                            self.spec,
                            self.config.initial_soc,
                            self.config.soc_required,
                        ),
                    );
                }
            }
            let Some(olev) = self.fleet.get_mut(id) else {
                continue;
            };
            let before = self.prev_speed.get(id).copied().unwrap_or(*speed);
            let drain = self.energy_model.energy_over_step(
                oes_units::MetersPerSecond::new(before),
                oes_units::MetersPerSecond::new(*speed),
                dt,
            );
            if drain.value() >= 0.0 {
                olev.battery_mut().discharge(drain);
            } else {
                olev.battery_mut().charge(-drain);
            }
            // Transfer at the *allocated* power while over a span.
            let allocated = self.allocation.get(id).copied().unwrap_or(0.0);
            if allocated > 0.0 {
                let on_span = self.spans.iter().any(|s| {
                    s.covers(
                        *edge,
                        oes_units::Meters::new(*pos),
                        oes_units::Meters::new(*len),
                    )
                });
                if on_span {
                    let offered = allocated
                        * dt.to_hours().value()
                        * self.spec.transfer_efficiency.fraction();
                    let headroom = (self.spec.soc_max.fraction() - olev.battery().soc().fraction())
                        .max(0.0)
                        * self.spec.battery.energy_capacity().value();
                    let absorbed = olev
                        .battery_mut()
                        .charge(KilowattHours::new(offered.min(headroom)));
                    self.stats.energy_transferred += absorbed.value();
                }
            }
        }
        for (id, _, _, _, speed) in &states {
            self.prev_speed.insert(*id, *speed);
        }

        // Retire exited OLEVs and drop the bookkeeping of every vehicle
        // that left the road. Vehicle ids never recur, so classification
        // stays one-shot and the participation draws are unchanged.
        let on_road = |id: &VehicleId| states.binary_search_by_key(id, |s| s.0).is_ok();
        self.fleet.retain(|id, _| on_road(id));
        self.allocation.retain(|id, _| on_road(id));
        self.prev_speed.retain(|id, _| on_road(id));
        self.seen.retain(|id, _| on_road(id));

        // Replan on cadence; a failed round keeps the standing allocation.
        self.since_replan += dt.value();
        if self.since_replan >= self.config.replan_every.value() {
            self.since_replan = 0.0;
            if let Err(error) = self.replan() {
                self.stats.failed_replans += 1;
                self.last_replan_error = Some(error);
            }
        }
        Ok(())
    }

    /// Runs the loop for a duration.
    ///
    /// # Errors
    ///
    /// As for [`Self::step`].
    pub fn run_for(&mut self, duration: Seconds) -> Result<(), oes_game::GameError> {
        let end = self.sim.time() + duration;
        while self.sim.time() < end {
            self.step()?;
        }
        Ok(())
    }

    /// One grid replan: the active OLEVs play the game with live Eq. 2
    /// bounds; the equilibrium totals become standing allocations. The
    /// standing allocation is replaced only once the round has fully
    /// succeeded, so a failure leaves the previous plan intact.
    fn replan(&mut self) -> Result<(), oes_game::GameError> {
        let players: Vec<(VehicleId, f64)> = self
            .fleet
            .iter()
            .map(|(id, olev)| (*id, olev.receivable_power().value()))
            .filter(|(_, p)| *p > 1e-9)
            .collect();
        self.stats.replans += 1;
        self.stats.peak_players = self.stats.peak_players.max(players.len());
        if players.is_empty() || self.spans.is_empty() {
            self.allocation.clear();
            return Ok(());
        }
        // The operational grid enforces its safety knee hard (stiff κ):
        // under heavy crowding the scheduled load must stay near η·P_line.
        let mut builder = GameBuilder::new()
            .sections(self.spans.len(), self.config.section_capacity)
            .pricing(PricingPolicy::Nonlinear(NonlinearPricing::paper_default(
                self.config.beta,
            )))
            .overload(10.0 * self.config.beta / 1000.0)
            .eta(self.config.eta);
        for (_, p_max) in &players {
            builder = builder.olevs(1, Kilowatts::new(*p_max));
        }
        let mut game = builder.build()?;
        let outcome = game.run(
            UpdateOrder::Random {
                seed: self.config.seed.wrapping_add(self.stats.replans as u64),
            },
            20_000,
        )?;
        self.stats.game_updates += outcome.updates();
        if !outcome.converged() {
            self.stats.unconverged_replans += 1;
        }
        let mut fresh = BTreeMap::new();
        for (n, (id, _)) in players.iter().enumerate() {
            fresh.insert(*id, game.schedule().olev_total(OlevId(n)));
        }
        self.allocation = fresh;
        self.stats.revenue += game.total_payment();
        let peak = game
            .section_loads()
            .iter()
            .zip(game.caps())
            .map(|(l, c)| l / c)
            .fold(0.0f64, f64::max);
        self.stats.peak_congestion = self.stats.peak_congestion.max(peak);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oes_traffic::counts::HourlyCounts;
    use oes_traffic::CorridorBuilder;
    use oes_units::{Meters, SectionId};
    use oes_wpt::ChargingSection;

    fn closed_loop(participation: f64, eta: f64) -> ClosedLoop {
        let mut builder = CorridorBuilder::new();
        builder
            .blocks(3, Meters::new(250.0))
            .counts(HourlyCounts::new(vec![500]))
            .seed(4);
        let sim = builder.build();
        let mut cl = ClosedLoop::new(
            sim,
            OlevSpec::chevy_spark_default(),
            ClosedLoopConfig {
                participation,
                eta,
                seed: 4,
                ..ClosedLoopConfig::default()
            },
        );
        for (i, span) in [(0usize, 50.0), (1, 25.0)].iter().enumerate() {
            cl.add_span(ChargingSpan {
                edge: oes_traffic::EdgeId(span.0),
                start: Meters::new(span.1),
                end: Meters::new(span.1 + 200.0),
                section: ChargingSection::paper_default(SectionId(i)),
            });
        }
        cl
    }

    #[test]
    fn closed_loop_transfers_and_collects() {
        let mut cl = closed_loop(0.8, 0.9);
        cl.run_for(Seconds::new(900.0)).unwrap();
        let s = cl.stats();
        assert!(s.energy_transferred > 0.0, "no energy moved");
        assert!(s.revenue > 0.0, "no revenue collected");
        assert!(s.replans >= 29, "replans {}", s.replans);
        assert!(s.peak_players > 0);
    }

    #[test]
    fn game_keeps_scheduled_congestion_near_the_knee() {
        let mut cl = closed_loop(1.0, 0.9);
        cl.run_for(Seconds::new(900.0)).unwrap();
        // However many OLEVs crowd the approach, the stiff overload penalty
        // keeps the *scheduled* load pinned close to the η = 0.9 knee.
        assert!(
            cl.stats().peak_congestion < 1.0,
            "scheduled congestion {}",
            cl.stats().peak_congestion
        );
        assert!(cl.stats().peak_congestion > 0.5, "lane barely used");
    }

    #[test]
    fn zero_participation_means_no_game_activity() {
        let mut cl = closed_loop(0.0, 0.9);
        cl.run_for(Seconds::new(600.0)).unwrap();
        let s = cl.stats();
        assert_eq!(s.energy_transferred, 0.0);
        assert_eq!(s.revenue, 0.0);
        assert_eq!(s.peak_players, 0);
    }

    #[test]
    fn failed_replans_degrade_gracefully() {
        // An invalid grid parameter makes every populated replan fail; the
        // loop must keep running on the standing (empty) allocation and
        // account for the failures instead of aborting.
        let mut builder = CorridorBuilder::new();
        builder
            .blocks(3, Meters::new(250.0))
            .counts(HourlyCounts::new(vec![500]))
            .seed(4);
        let sim = builder.build();
        let mut cl = ClosedLoop::new(
            sim,
            OlevSpec::chevy_spark_default(),
            ClosedLoopConfig {
                participation: 0.8,
                section_capacity: Kilowatts::new(-25.0),
                seed: 4,
                ..ClosedLoopConfig::default()
            },
        );
        cl.add_span(ChargingSpan {
            edge: oes_traffic::EdgeId(0),
            start: Meters::new(50.0),
            end: Meters::new(250.0),
            section: ChargingSection::paper_default(SectionId(0)),
        });
        cl.run_for(Seconds::new(300.0)).unwrap();
        let s = cl.stats();
        assert!(s.failed_replans > 0, "expected failing replans");
        assert!(s.replans >= s.failed_replans);
        assert_eq!(s.energy_transferred, 0.0, "no allocation should ever stand");
        assert!(matches!(
            cl.last_replan_error(),
            Some(oes_game::GameError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn bookkeeping_maps_do_not_leak_exited_vehicles() {
        let mut cl = closed_loop(0.5, 0.9);
        cl.run_for(Seconds::new(1800.0)).unwrap();
        let active = cl.traffic().active_count();
        let exited = cl.traffic().exited();
        assert!(exited > 5, "vehicles must have exited ({exited})");
        assert!(cl.seen.len() <= active, "seen leaks: {}", cl.seen.len());
        assert!(
            cl.prev_speed.len() <= active,
            "prev_speed leaks: {}",
            cl.prev_speed.len()
        );
    }

    #[test]
    fn replans_count_their_game_updates() {
        let mut cl = closed_loop(0.8, 0.9);
        let mut games = 0;
        for _ in 0..900 {
            let before = cl.stats();
            cl.step().unwrap();
            let after = cl.stats();
            if after.replans == before.replans {
                assert_eq!(after.game_updates, before.game_updates);
                continue;
            }
            let players = cl
                .fleet
                .values()
                .filter(|olev| olev.receivable_power().value() > 1e-9)
                .count();
            let updates = after.game_updates - before.game_updates;
            if players == 0 {
                assert_eq!(updates, 0, "no game, no updates");
            } else {
                // Random-order convergence takes a calm streak of 4N.
                games += 1;
                assert!(
                    updates >= 4 * players,
                    "{updates} updates, {players} players"
                );
            }
        }
        assert!(games > 0, "no replan played a game");
        assert_eq!(cl.stats().unconverged_replans, 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = || {
            let mut cl = closed_loop(0.6, 0.9);
            cl.run_for(Seconds::new(600.0)).unwrap();
            let s = cl.stats();
            (
                s.energy_transferred.to_bits(),
                s.revenue.to_bits(),
                s.replans,
            )
        };
        assert_eq!(run(), run());
    }
}
