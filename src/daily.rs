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
//!    capacities. The hours are independent, so their games play
//!    concurrently on `min(available_parallelism, hours with OLEVs)` threads,
//!    largest fleet first; each game is built and seeded from its hour
//!    alone, so the report is the same bits as an hour-by-hour replay;
//! 4. overlay the resulting OLEV energy back onto the grid day
//!    ([`oes_grid::ev_load`]) to quantify the added deficiency and price
//!    pressure the paper warns about.

use std::cmp::Reverse;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

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
/// The hourly games are independent, so they play concurrently on
/// `min(available_parallelism, hours with OLEVs)` threads, the calling one
/// included. Each game is built and seeded from its hour alone, so the
/// report is the same bits for any thread count.
///
/// # Errors
///
/// Propagates [`oes_game::GameError`] from the earliest hourly game that
/// fails.
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

    let hours: Vec<HourPlan> = (0..24)
        .map(|hour| HourPlan {
            hour,
            fleet: ((f64::from(config.counts.at(hour)) * config.participation).round() as usize)
                .min(config.max_fleet_per_hour),
            beta: grid_base.at_hour(hour as f64 + 0.5).lbmp.value(),
        })
        .collect();
    let played = play_hours(&hours, |plan| {
        play_hour(config, plan, cap.value(), p_max.value())
    });

    let mut outcomes = Vec::with_capacity(24);
    let mut ev_hourly_mwh = vec![0.0; 24];
    for (plan, result) in hours.iter().zip(played) {
        let outcome = match result {
            Some(result) => result?,
            None => HourOutcome {
                hour: plan.hour,
                olevs: 0,
                beta: plan.beta,
                welfare: 0.0,
                congestion: 0.0,
                unit_payment: 0.0,
                energy_mwh: 0.0,
                revenue: 0.0,
                updates: 0,
                converged: true,
            },
        };
        ev_hourly_mwh[plan.hour] = outcome.energy_mwh;
        outcomes.push(outcome);
    }
    let grid_with_olevs = overlay_ev_load(&grid_base, &ev_hourly_mwh, &operator_config);
    Ok(DailyReport {
        hours: outcomes,
        grid_base,
        grid_with_olevs,
    })
}

/// What one hour's game is played with.
struct HourPlan {
    hour: usize,
    fleet: usize,
    /// The hour's LBMP, $/MWh.
    beta: f64,
}

/// Plays every hour with a fleet, largest fleet first, on
/// `min(available_parallelism, hours with a fleet)` threads that pull hours
/// off a shared counter; the calling thread is one of them. Returns one slot
/// per hour, in hour order, empty for hours without a fleet.
fn play_hours<T: Send>(hours: &[HourPlan], play: impl Fn(&HourPlan) -> T + Sync) -> Vec<Option<T>> {
    let mut queue: Vec<usize> = (0..hours.len()).filter(|&h| hours[h].fleet > 0).collect();
    // Stable: equal fleets keep hour order.
    queue.sort_by_key(|&h| Reverse(hours[h].fleet));
    let threads = thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(queue.len());
    // Relaxed is enough: the counter only hands out queue positions, and
    // the results come back through `join`, which synchronizes.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        while let Some(&h) = queue.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((h, play(&hours[h])));
        }
        done
    };
    let done = thread::scope(|scope| {
        let workers: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for worker in workers {
            // A panicking hour re-raises its panic here.
            done.extend(
                worker
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        done
    });
    let mut slots: Vec<Option<T>> = hours.iter().map(|_| None).collect();
    for (h, result) in done {
        slots[h] = Some(result);
    }
    slots
}

/// Builds and runs one hour's pricing game.
fn play_hour(
    config: &DailyConfig,
    plan: &HourPlan,
    cap_kw: f64,
    p_max_kw: f64,
) -> Result<HourOutcome, oes_game::GameError> {
    let mut game = GameBuilder::new()
        .sections(config.sections, Kilowatts::new(cap_kw))
        .olevs_weighted(
            plan.fleet,
            Kilowatts::new(p_max_kw),
            config.satisfaction_weight,
        )
        .pricing(PricingPolicy::Nonlinear(NonlinearPricing::paper_default(
            plan.beta,
        )))
        .eta(config.eta)
        .build()?;
    let outcome = game.run(
        UpdateOrder::Random {
            seed: config.seed.wrapping_add(plan.hour as u64),
        },
        30_000,
    )?;
    Ok(HourOutcome {
        hour: plan.hour,
        olevs: plan.fleet,
        beta: plan.beta,
        welfare: game.welfare(),
        congestion: game.system_congestion(),
        unit_payment: game.unit_payment_dollars_per_mwh(),
        // Power sustained for the hour = energy in kWh numerically.
        energy_mwh: game.schedule().total() / 1000.0,
        revenue: game.total_payment(),
        updates: outcome.updates(),
        converged: outcome.converged(),
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
