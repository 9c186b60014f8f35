//! Day-scale orchestration: the full paper pipeline, hour by hour.
//!
//! Section III of the paper argues in one direction (traffic → load →
//! deficiency → prices) and Section IV prices in the other (prices →
//! requests). This module runs the loop for a whole day:
//!
//! 1. simulate a grid-operator day ([`oes_grid`]) — the hourly LBMP is the
//!    pricing policy's β;
//! 2. derive the hourly OLEV fleet from a traffic-count profile and a
//!    participation rate ([`oes_traffic::counts`]);
//! 3. run one pricing game per hour ([`oes_game`]) with Eq. 1/Eq. 2-derived
//!    capacities;
//! 4. overlay the resulting OLEV energy back onto the grid day
//!    ([`oes_grid::ev_load`]) to quantify the added deficiency and price
//!    pressure the paper warns about.

use oes_game::{GameBuilder, NonlinearPricing, PricingPolicy, UpdateOrder};
use oes_grid::{overlay_ev_load, DaySeries, GridOperator, OperatorConfig};
use oes_traffic::HourlyCounts;
use oes_units::{Kilowatts, MilesPerHour, OlevId, SectionId, StateOfCharge};
use oes_wpt::{ChargingSection, Olev, OlevSpec};

/// Configuration of a day run.
#[derive(Debug, Clone)]
pub struct DailyConfig {
    /// Hourly vehicle counts on the charging corridor.
    pub counts: HourlyCounts,
    /// Fraction of counted vehicles that are charging OLEVs.
    pub participation: f64,
    /// Prevailing corridor velocity (drives Eq. 1 capacity).
    pub velocity_mph: f64,
    /// Number of charging sections.
    pub sections: usize,
    /// Vehicle passes per hour scaling Eq. 1 into sustained capacity.
    pub passes_per_hour: f64,
    /// Safety factor η of Eq. 4.
    pub eta: f64,
    /// Log-satisfaction weight of the OLEVs.
    pub satisfaction_weight: f64,
    /// Grid-operator and game seed.
    pub seed: u64,
    /// Cap on OLEVs per hourly game (keeps the largest hours tractable).
    pub max_fleet_per_hour: usize,
}

impl Default for DailyConfig {
    fn default() -> Self {
        Self {
            counts: HourlyCounts::nyc_arterial_like(700, 0),
            participation: 0.1,
            velocity_mph: 60.0,
            sections: 50,
            passes_per_hour: 170.0,
            eta: 0.9,
            satisfaction_weight: 1.0,
            seed: 42,
            max_fleet_per_hour: 120,
        }
    }
}

/// One hour of the day run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HourOutcome {
    /// Hour of day.
    pub hour: usize,
    /// OLEVs that played this hour's game.
    pub olevs: usize,
    /// The LBMP used as β, $/MWh.
    pub beta: f64,
    /// Social welfare at equilibrium.
    pub welfare: f64,
    /// System congestion degree at equilibrium.
    pub congestion: f64,
    /// Average unit payment, $/MWh.
    pub unit_payment: f64,
    /// Energy transferred this hour, MWh.
    pub energy_mwh: f64,
    /// Grid revenue this hour, $.
    pub revenue: f64,
    /// Best-response updates the hour's game ran (zero without OLEVs).
    pub updates: usize,
    /// Whether the hour's game converged within its update cap; an hour
    /// without OLEVs plays no game and counts as converged.
    pub converged: bool,
}

/// The full day: per-hour outcomes plus the grid day before and after the
/// OLEV load overlay.
#[derive(Debug, Clone)]
pub struct DailyReport {
    /// One entry per hour.
    pub hours: Vec<HourOutcome>,
    /// The operator's day without OLEVs.
    pub grid_base: DaySeries,
    /// The same day re-priced with the OLEV load added.
    pub grid_with_olevs: DaySeries,
}

impl DailyReport {
    /// Total energy transferred over the day, MWh.
    #[must_use]
    pub fn total_energy_mwh(&self) -> f64 {
        self.hours.iter().map(|h| h.energy_mwh).sum()
    }

    /// Total grid revenue over the day, $.
    #[must_use]
    pub fn total_revenue(&self) -> f64 {
        self.hours.iter().map(|h| h.revenue).sum()
    }

    /// How much the OLEV overlay raised the day's peak absolute deficiency.
    #[must_use]
    pub fn added_peak_deficiency_mwh(&self) -> f64 {
        self.grid_with_olevs.max_abs_deficiency().value()
            - self.grid_base.max_abs_deficiency().value()
    }
}

/// Runs the full pipeline for one day.
///
/// # Errors
///
/// Propagates [`oes_game::GameError`] from any hourly game.
pub fn run_day(config: &DailyConfig) -> Result<DailyReport, oes_game::GameError> {
    let operator_config = OperatorConfig::nyiso_like();
    let grid_base = GridOperator::new(operator_config.clone(), config.seed).simulate_day();

    let velocity = MilesPerHour::new(config.velocity_mph).to_meters_per_second();
    let section = ChargingSection::paper_default(SectionId(0));
    let cap = section.sustained_capacity(velocity, config.passes_per_hour);
    let p_max = Olev::new(
        OlevId(0),
        OlevSpec::chevy_spark_default(),
        StateOfCharge::saturating(0.4),
        StateOfCharge::saturating(0.9),
    )
    .receivable_power();

    let mut hours = Vec::with_capacity(24);
    let mut ev_hourly_mwh = vec![0.0; 24];
    #[allow(clippy::needless_range_loop)] // hour indexes two things at once
    for hour in 0..24 {
        let fleet = ((f64::from(config.counts.at(hour)) * config.participation).round() as usize)
            .min(config.max_fleet_per_hour);
        let beta = grid_base.at_hour(hour as f64 + 0.5).lbmp.value();
        if fleet == 0 {
            hours.push(HourOutcome {
                hour,
                olevs: 0,
                beta,
                welfare: 0.0,
                congestion: 0.0,
                unit_payment: 0.0,
                energy_mwh: 0.0,
                revenue: 0.0,
                updates: 0,
                converged: true,
            });
            continue;
        }
        let mut game = GameBuilder::new()
            .sections(config.sections, Kilowatts::new(cap.value()))
            .olevs_weighted(
                fleet,
                Kilowatts::new(p_max.value()),
                config.satisfaction_weight,
            )
            .pricing(PricingPolicy::Nonlinear(NonlinearPricing::paper_default(
                beta,
            )))
            .eta(config.eta)
            .build()?;
        let outcome = game.run(
            UpdateOrder::Random {
                seed: config.seed.wrapping_add(hour as u64),
            },
            30_000,
        )?;
        // Power sustained for the hour = energy in kWh numerically.
        let energy_mwh = game.schedule().total() / 1000.0;
        ev_hourly_mwh[hour] = energy_mwh;
        hours.push(HourOutcome {
            hour,
            olevs: fleet,
            beta,
            welfare: game.welfare(),
            congestion: game.system_congestion(),
            unit_payment: game.unit_payment_dollars_per_mwh(),
            energy_mwh,
            revenue: game.total_payment(),
            updates: outcome.updates(),
            converged: outcome.converged(),
        });
    }
    let grid_with_olevs = overlay_ev_load(&grid_base, &ev_hourly_mwh, &operator_config);
    Ok(DailyReport {
        hours,
        grid_base,
        grid_with_olevs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> DailyConfig {
        DailyConfig {
            counts: HourlyCounts::new(vec![40, 400, 40, 0]),
            participation: 0.25,
            sections: 10,
            max_fleet_per_hour: 30,
            ..DailyConfig::default()
        }
    }

    #[test]
    fn day_runs_and_accounts() {
        let report = run_day(&small_config()).unwrap();
        assert_eq!(report.hours.len(), 24);
        assert!(report.total_energy_mwh() > 0.0);
        assert!(report.total_revenue() > 0.0);
        // The zero-count hour plays no game (profile wraps every 4 hours).
        assert_eq!(report.hours[3].olevs, 0);
        assert_eq!(report.hours[3].energy_mwh, 0.0);
    }

    #[test]
    fn busier_hours_move_more_energy() {
        let report = run_day(&small_config()).unwrap();
        // Hour 1 (400 vehicles) vs hour 0 (40 vehicles).
        assert!(report.hours[1].olevs > report.hours[0].olevs);
        assert!(report.hours[1].energy_mwh > report.hours[0].energy_mwh);
    }

    #[test]
    fn overlay_feeds_back_into_the_grid_day() {
        let report = run_day(&small_config()).unwrap();
        // OLEV load must not lower any price and must raise some deficiency.
        let raised = report
            .grid_base
            .points()
            .iter()
            .zip(report.grid_with_olevs.points())
            .any(|(a, b)| b.deficiency > a.deficiency);
        assert!(raised);
        assert!(
            report.grid_with_olevs.max_abs_deficiency() >= report.grid_base.max_abs_deficiency()
        );
    }

    #[test]
    fn hours_report_their_game_convergence() {
        let report = run_day(&small_config()).unwrap();
        for h in &report.hours {
            assert!(h.converged, "hour {} did not converge", h.hour);
            if h.olevs == 0 {
                assert_eq!(h.updates, 0, "hour {} played no game", h.hour);
            } else {
                // Random-order convergence takes a calm streak of 4N.
                assert!(h.updates >= 4 * h.olevs, "hour {}: {h:?}", h.hour);
            }
        }
        assert!(report.hours.iter().any(|h| h.updates > 0));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_day(&small_config()).unwrap();
        let b = run_day(&small_config()).unwrap();
        assert_eq!(a.hours, b.hours);
    }
}
