//! Integration tests for Theorem IV.1: the asynchronous best-response
//! dynamics converge to the unique socially optimal schedule, regardless of
//! update order or runtime.

use oes::game::{
    solve_centralized, DistributedGame, GameBuilder, LogSatisfaction, NonlinearPricing,
    PricingPolicy, UpdateOrder,
};
use oes::units::Kilowatts;

fn builder(sections: usize, olevs: usize) -> GameBuilder {
    GameBuilder::new()
        .sections(sections, Kilowatts::new(60.0))
        .olevs(olevs, Kilowatts::new(80.0))
        .pricing(PricingPolicy::Nonlinear(NonlinearPricing::paper_default(
            15.0,
        )))
}

#[test]
fn round_robin_and_random_orders_agree() {
    let mut a = builder(20, 10).build().unwrap();
    let mut b = builder(20, 10).build().unwrap();
    let mut c = builder(20, 10).build().unwrap();
    assert!(a.run(UpdateOrder::RoundRobin, 5000).unwrap().converged());
    assert!(b
        .run(UpdateOrder::Random { seed: 1 }, 5000)
        .unwrap()
        .converged());
    assert!(c
        .run(UpdateOrder::Random { seed: 99 }, 5000)
        .unwrap()
        .converged());
    assert!((a.welfare() - b.welfare()).abs() < 1e-5);
    assert!((a.welfare() - c.welfare()).abs() < 1e-5);
    // Not just the welfare: the schedules themselves coincide (uniqueness).
    for (la, lb) in a.section_loads().iter().zip(b.section_loads()) {
        assert!((la - lb).abs() < 1e-3, "loads differ: {la} vs {lb}");
    }
}

#[test]
fn threaded_runtime_matches_in_process_engine() {
    let mut engine = builder(15, 8).build().unwrap();
    let mut threaded = builder(15, 8).build().unwrap();
    engine.run(UpdateOrder::RoundRobin, 5000).unwrap();
    let out = DistributedGame::new(&mut threaded).run(5000).unwrap();
    assert!(out.converged());
    assert!((engine.welfare() - threaded.welfare()).abs() < 1e-9);
}

#[test]
fn decentralized_equilibrium_is_the_welfare_maximizer() {
    // The headline claim: best responses with *payments* end up maximizing
    // *welfare*, verified against the game-free centralized solver.
    let mut game = builder(12, 6).build().unwrap();
    game.run(UpdateOrder::RoundRobin, 5000).unwrap();
    let central = solve_centralized(&builder(12, 6).build().unwrap(), 50_000);
    let rel = (game.welfare() - central.welfare).abs() / central.welfare.abs().max(1.0);
    assert!(
        rel < 2e-3,
        "decentralized {} vs centralized {} (rel {rel})",
        game.welfare(),
        central.welfare
    );
    // And no one can profitably deviate: every best response is a no-op.
    for n in 0..game.olev_count() {
        let change = game.update_olev(n).unwrap();
        assert!(change < 1e-5, "OLEV {n} still wants to move by {change}");
    }
}

#[test]
fn heterogeneous_olevs_converge_and_sort_by_eagerness() {
    let mut game = GameBuilder::new()
        .sections(10, Kilowatts::new(50.0))
        .olev_with(Kilowatts::new(100.0), Box::new(LogSatisfaction::new(4.0)))
        .olev_with(Kilowatts::new(100.0), Box::new(LogSatisfaction::new(2.0)))
        .olev_with(Kilowatts::new(100.0), Box::new(LogSatisfaction::new(1.0)))
        .build()
        .unwrap();
    assert!(game.run(UpdateOrder::RoundRobin, 5000).unwrap().converged());
    let totals: Vec<f64> = (0..3)
        .map(|n| game.schedule().olev_total(oes::units::OlevId(n)))
        .collect();
    assert!(totals[0] > totals[1] && totals[1] > totals[2], "{totals:?}");
}

#[test]
fn welfare_never_decreases_along_the_trajectory() {
    let mut game = builder(10, 8).build().unwrap();
    let out = game.run(UpdateOrder::Random { seed: 3 }, 3000).unwrap();
    let mut last = f64::NEG_INFINITY;
    for s in &out.trajectory {
        assert!(
            s.welfare >= last - 1e-9,
            "welfare dropped at update {}",
            s.update
        );
        last = s.welfare;
    }
}

#[test]
fn convergence_from_a_warm_start() {
    // Start from an arbitrary feasible schedule instead of zero: same
    // equilibrium (global, not path-dependent).
    let mut cold = builder(8, 4).build().unwrap();
    cold.run(UpdateOrder::RoundRobin, 5000).unwrap();

    let mut warm = builder(8, 4).build().unwrap();
    let mut schedule = oes::game::PowerSchedule::zeros(4, 8);
    for n in 0..4 {
        let row: Vec<f64> = (0..8).map(|c| ((n * 8 + c) % 5) as f64).collect();
        schedule.set_row(oes::units::OlevId(n), &row);
    }
    warm.set_schedule(schedule);
    warm.run(UpdateOrder::RoundRobin, 5000).unwrap();
    assert!((cold.welfare() - warm.welfare()).abs() < 1e-5);
}

#[test]
fn more_olevs_need_more_updates() {
    // Fig. 5(d)'s qualitative claim: larger N converges in more updates.
    let updates = |n: usize| {
        let mut g = GameBuilder::new()
            .sections(30, Kilowatts::new(60.0))
            .olevs_weighted(n, Kilowatts::new(70.0), 3.0)
            .build()
            .unwrap();
        g.run(UpdateOrder::RoundRobin, 20_000).unwrap().updates()
    };
    let (u10, u40) = (updates(10), updates(40));
    assert!(u40 > u10, "N=40 took {u40} vs N=10 {u10}");
}

#[test]
fn random_order_polls_every_olev_before_declaring_convergence() {
    // Regression: with random polling, a calm streak of 4N updates used to
    // declare convergence even when one OLEV had never been drawn, leaving
    // it at zero power. Seed 10076 does exactly that on this game: the four
    // polled OLEVs settle and are redrawn 4N times before the fifth comes up.
    let build = || {
        GameBuilder::new()
            .sections(50, Kilowatts::new(60.0))
            .olevs_weighted(5, Kilowatts::new(80.0), 1.0)
            .build()
            .unwrap()
    };
    let mut game = build();
    let out = game
        .run(UpdateOrder::Random { seed: 10_076 }, 30_000)
        .unwrap();
    assert!(out.converged());
    for n in 0..game.olev_count() {
        let total = game.schedule().olev_total(oes::units::OlevId(n));
        assert!(total > 0.0, "OLEV {n} never drew power");
    }
    let central = solve_centralized(&build(), 20_000).welfare;
    assert!(
        (central - game.welfare()).abs() <= 1e-6 * central.abs(),
        "engine {} vs centralized {central}",
        game.welfare()
    );
}
