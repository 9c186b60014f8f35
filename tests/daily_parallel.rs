//! `run_day` plays its hourly games concurrently. Each game is built and
//! seeded from its hour alone, so the report must be the bits a plain
//! hour-by-hour replay through the public API produces, whatever the thread
//! count and whichever hour finishes first.

use oes::daily::{run_day, DailyConfig, DailyReport, HourOutcome};
use oes::game::{GameBuilder, GameError, NonlinearPricing, PricingPolicy, UpdateOrder};
use oes::grid::{overlay_ev_load, GridOperator, OperatorConfig};
use oes::units::{Kilowatts, MilesPerHour, OlevId, SectionId, StateOfCharge};
use oes::wpt::{ChargingSection, Olev, OlevSpec};

/// `run_day`'s per-game update cap.
const UPDATE_CAP: usize = 30_000;

/// The day `run_day` documents, one hour after another on this thread.
fn sequential_day(config: &DailyConfig) -> DailyReport {
    let operator_config = OperatorConfig::nyiso_like();
    let grid_base = GridOperator::new(operator_config.clone(), config.seed).simulate_day();
    let velocity = MilesPerHour::new(config.velocity_mph).to_meters_per_second();
    let cap = ChargingSection::paper_default(SectionId(0))
        .sustained_capacity(velocity, config.passes_per_hour);
    let p_max = Olev::new(
        OlevId(0),
        OlevSpec::chevy_spark_default(),
        StateOfCharge::saturating(0.4),
        StateOfCharge::saturating(0.9),
    )
    .receivable_power();

    let mut hours = Vec::with_capacity(24);
    let mut ev_hourly_mwh = vec![0.0; 24];
    for (hour, ev_mwh) in ev_hourly_mwh.iter_mut().enumerate() {
        let olevs = ((f64::from(config.counts.at(hour)) * config.participation).round() as usize)
            .min(config.max_fleet_per_hour);
        let beta = grid_base.at_hour(hour as f64 + 0.5).lbmp.value();
        let mut outcome = HourOutcome {
            hour,
            olevs,
            beta,
            welfare: 0.0,
            congestion: 0.0,
            unit_payment: 0.0,
            energy_mwh: 0.0,
            revenue: 0.0,
            updates: 0,
            converged: true,
        };
        if olevs > 0 {
            let mut game = GameBuilder::new()
                .sections(config.sections, Kilowatts::new(cap.value()))
                .olevs_weighted(
                    olevs,
                    Kilowatts::new(p_max.value()),
                    config.satisfaction_weight,
                )
                .pricing(PricingPolicy::Nonlinear(NonlinearPricing::paper_default(
                    beta,
                )))
                .eta(config.eta)
                .build()
                .expect("valid hour");
            let run = game
                .run(
                    UpdateOrder::Random {
                        seed: config.seed.wrapping_add(hour as u64),
                    },
                    UPDATE_CAP,
                )
                .expect("builder-made game");
            outcome.welfare = game.welfare();
            outcome.congestion = game.system_congestion();
            outcome.unit_payment = game.unit_payment_dollars_per_mwh();
            outcome.energy_mwh = game.schedule().total() / 1000.0;
            outcome.revenue = game.total_payment();
            outcome.updates = run.updates();
            outcome.converged = run.converged();
        }
        *ev_mwh = outcome.energy_mwh;
        hours.push(outcome);
    }
    let grid_with_olevs = overlay_ev_load(&grid_base, &ev_hourly_mwh, &operator_config);
    DailyReport {
        hours,
        grid_base,
        grid_with_olevs,
    }
}

/// Every float of an hour, as bits.
fn hour_bits(h: &HourOutcome) -> [u64; 6] {
    [
        h.beta,
        h.welfare,
        h.congestion,
        h.unit_payment,
        h.energy_mwh,
        h.revenue,
    ]
    .map(f64::to_bits)
}

#[test]
fn run_day_is_the_sequential_replay_bit_for_bit() {
    for seed in [1, 9176] {
        let config = DailyConfig {
            seed,
            ..DailyConfig::default()
        };
        let day = run_day(&config).expect("valid day");
        let replay = sequential_day(&config);
        assert_eq!(day.hours.len(), 24);
        assert!(day.hours.iter().filter(|h| h.olevs > 0).count() > 1);
        for (a, b) in day.hours.iter().zip(&replay.hours) {
            assert_eq!(
                (a.hour, a.olevs, a.updates, a.converged),
                (b.hour, b.olevs, b.updates, b.converged),
                "seed {seed}"
            );
            assert_eq!(hour_bits(a), hour_bits(b), "seed {seed} hour {}", a.hour);
        }
        // Debug prints every float round-trippably, so equal text is equal
        // bits.
        for (a, b) in [
            (&day.grid_base, &replay.grid_base),
            (&day.grid_with_olevs, &replay.grid_with_olevs),
        ] {
            assert_eq!(a, b, "seed {seed}");
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
        }
    }
}

#[test]
fn an_invalid_config_is_an_error_not_a_panic() {
    let config = DailyConfig {
        eta: 1.5,
        ..DailyConfig::default()
    };
    match run_day(&config) {
        Err(GameError::InvalidParameter { name: "eta", .. }) => {}
        other => panic!("expected the eta rejection, got {other:?}"),
    }
}
