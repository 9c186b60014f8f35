//! Chaos suite: the decentralized runtime under deterministic fault injection.
//!
//! Theorem IV.1 makes the best-response dynamics an exact potential game, so
//! the equilibrium is invariant to *which* OLEV updates when — the hardened
//! runtime leans on that to survive drops, duplicates, reordering, stalls,
//! crashes, and departures. These tests pin the three acceptance properties:
//!
//! 1. **Eventual delivery ⇒ fault-free welfare.** If no OLEV is evicted, the
//!    faulted run converges to the same social welfare as a fault-free run of
//!    the full fleet (within 1e-6).
//! 2. **Evictions shrink the quorum, not the guarantee.** With evictions, the
//!    survivors converge to the optimum of the *surviving* fleet (evicted
//!    rows are zeroed and `U(0) = 0`, so welfare is directly comparable).
//! 3. **Bit determinism.** Two runs with the same seed produce identical
//!    `Outcome` trajectories, identical degradation reports, and bit-equal
//!    welfare (single-offer window only; see the `distributed` module docs).
//!
//! No lost message may ever deadlock `run`, and no slow one may be timed
//! out: the fault verdicts that make a transmission futile are known at send
//! time and expired at their deadline on a virtual clock (bounded by a
//! finite retry budget), so a 100%-loss plan fails fast, and every other
//! offer is waited for until it is answered.

use std::time::{Duration, Instant};

use oes::game::{
    ApplyMode, DistributedGame, EvictionReason, FaultPlan, GameBuilder, GameError, LogSatisfaction,
    Outcome, ParallelConfig, Satisfaction, UpdateOrder,
};
use oes::telemetry::Telemetry;
use oes::units::Kilowatts;

#[macro_use]
mod prop;

const SECTION_CAP: f64 = 60.0;

/// A uniform fleet: `olevs` identical OLEVs over `sections` sections.
fn build(sections: usize, olevs: usize, p_max: f64) -> oes::game::Game {
    GameBuilder::new()
        .sections(sections, Kilowatts::new(SECTION_CAP))
        .olevs(olevs, Kilowatts::new(p_max))
        .build()
        .expect("valid scenario")
}

/// Fault-free ground truth: the in-process engine on the same uniform fleet.
///
/// Because evicted rows are zeroed and `LogSatisfaction` has `U(0) = 0`, the
/// welfare of a faulted run with `k` survivors is comparable to a fresh
/// `k`-OLEV fleet.
fn reference_welfare(sections: usize, olevs: usize, p_max: f64) -> f64 {
    let mut game = build(sections, olevs, p_max);
    let outcome = game
        .run(UpdateOrder::RoundRobin, 20_000)
        .expect("reference run");
    assert!(outcome.converged(), "reference must converge");
    game.welfare()
}

/// Run a faulted single-window game and return `(outcome, welfare)`.
fn run_faulted(
    sections: usize,
    olevs: usize,
    p_max: f64,
    plan: FaultPlan,
    budget: u32,
) -> Result<(Outcome, f64), GameError> {
    let mut game = build(sections, olevs, p_max);
    let outcome = DistributedGame::new(&mut game)
        .with_faults(plan)
        .offer_timeout(Duration::from_millis(10))
        .retry_budget(budget)
        .run(8_000)?;
    let welfare = game.welfare();
    Ok((outcome, welfare))
}

// ---------------------------------------------------------------------------
// Acceptance scenario: ≤20% drop + duplication + reordering + one crash.
// ---------------------------------------------------------------------------

#[test]
fn chaos_with_one_crash_matches_surviving_fleet_and_is_deterministic() {
    let plan = || {
        FaultPlan::new(2024)
            .drop_probability(0.2)
            .duplicate_probability(0.2)
            .max_delay_ms(25)
            .crash(2, 1)
    };

    let (first, first_welfare) = run_faulted(6, 5, 50.0, plan(), 12).expect("survivors converge");
    let (second, second_welfare) = run_faulted(6, 5, 50.0, plan(), 12).expect("survivors converge");

    // Bit determinism: trajectories, degradation reports, and welfare.
    assert_eq!(first, second, "same seed must replay the same Outcome");
    assert_eq!(first_welfare.to_bits(), second_welfare.to_bits());

    assert!(first.converged(), "survivors must still converge");
    let report = first.degradation();
    assert_eq!(
        report.evictions.len(),
        1,
        "exactly the crashed OLEV is evicted"
    );
    assert_eq!(report.evictions[0].olev, 2);
    assert!(
        matches!(report.evictions[0].reason, EvictionReason::Crashed(_)),
        "crash must be attributed, got {:?}",
        report.evictions[0].reason
    );
    // The crash itself forces at least one real (non-virtual) timeout.
    assert!(report.timeouts >= 1);
    assert_eq!(report.survivors(5), vec![0, 1, 3, 4]);

    // Welfare matches the fault-free optimum of the 4 survivors.
    let reference = reference_welfare(6, 4, 50.0);
    assert!(
        (first_welfare - reference).abs() < 1e-6,
        "survivor welfare {first_welfare} vs reference {reference}"
    );
}

// ---------------------------------------------------------------------------
// Lossy-but-eventual delivery leaves the equilibrium untouched.
// ---------------------------------------------------------------------------

#[test]
fn duplicates_and_reordering_alone_cost_nothing() {
    let reference = reference_welfare(5, 4, 45.0);
    let mut duplicates_seen = 0usize;
    for seed in 0..4 {
        let plan = FaultPlan::new(seed)
            .duplicate_probability(0.3)
            .max_delay_ms(25);
        let (outcome, welfare) = run_faulted(5, 4, 45.0, plan, 12).expect("no evictions expected");
        assert!(outcome.converged());
        assert!(outcome.degradation().evictions.is_empty());
        duplicates_seen += outcome.degradation().duplicates;
        assert!(
            (welfare - reference).abs() < 1e-6,
            "seed {seed}: welfare {welfare} vs reference {reference}"
        );
    }
    assert!(
        duplicates_seen > 0,
        "0.3 duplication over 4 seeds must duplicate something"
    );
}

#[test]
fn lossless_fault_plan_replays_the_clean_run_exactly() {
    let mut clean_game = build(6, 4, 50.0);
    let clean = DistributedGame::new(&mut clean_game)
        .run(2_000)
        .expect("clean run");

    let mut faulted_game = build(6, 4, 50.0);
    let faulted = DistributedGame::new(&mut faulted_game)
        .with_faults(FaultPlan::new(99))
        .run(2_000)
        .expect("lossless faulted run");

    assert_eq!(
        clean, faulted,
        "a lossless plan must not perturb the runtime"
    );
    assert_eq!(
        clean_game.welfare().to_bits(),
        faulted_game.welfare().to_bits()
    );
    assert!(faulted.degradation().is_clean());
}

#[test]
fn corrupted_replies_are_quarantined_not_believed() {
    let reference = reference_welfare(5, 4, 50.0);
    let mut corruption_seen = false;
    for seed in 0..6 {
        let plan = FaultPlan::new(seed).corrupt_probability(0.15);
        match run_faulted(5, 4, 50.0, plan, 20) {
            Ok((outcome, welfare)) => {
                let report = outcome.degradation();
                if report.invalid_replies > 0 || report.clamped_replies > 0 {
                    corruption_seen = true;
                }
                // NaN/negative replies are retried, overlarge ones clamped;
                // a fully surviving fleet must still land on the optimum.
                if report.evictions.is_empty() {
                    assert!(outcome.converged());
                    assert!(
                        (welfare - reference).abs() < 1e-6,
                        "seed {seed}: welfare {welfare} vs reference {reference}"
                    );
                } else {
                    corruption_seen = true;
                    assert!(report
                        .evictions
                        .iter()
                        .all(|e| matches!(e.reason, EvictionReason::Misbehaving)));
                }
            }
            // A persistently lying fleet may be evicted wholesale.
            Err(GameError::OlevEvicted(_)) => corruption_seen = true,
            Err(other) => panic!("unexpected error under corruption: {other}"),
        }
    }
    assert!(
        corruption_seen,
        "15% corruption over 6 seeds must corrupt something"
    );
}

/// A satisfaction whose every marginal evaluation outlasts the 1 ms offer
/// deadline used below.
struct Sluggish(LogSatisfaction);

impl Satisfaction for Sluggish {
    fn value(&self, p: f64) -> f64 {
        self.0.value(p)
    }

    fn derivative(&self, p: f64) -> f64 {
        std::thread::sleep(Duration::from_millis(2));
        self.0.derivative(p)
    }

    fn name(&self) -> &str {
        "sluggish"
    }
}

#[test]
fn slow_workers_are_never_timed_out_by_the_wall_clock() {
    let mut game = GameBuilder::new()
        .sections(3, Kilowatts::new(SECTION_CAP))
        .olev_with(
            Kilowatts::new(50.0),
            Box::new(Sluggish(LogSatisfaction::new(1.0))),
        )
        .olev_with(
            Kilowatts::new(40.0),
            Box::new(Sluggish(LogSatisfaction::new(2.0))),
        )
        .build()
        .expect("valid scenario");
    // A lossless plan turns fault tolerance on without injecting anything:
    // every reply is late by the wall clock, none is lost.
    let outcome = DistributedGame::new(&mut game)
        .with_faults(FaultPlan::new(17))
        .offer_timeout(Duration::from_millis(1))
        .run(2_000)
        .expect("slow but reliable workers converge");

    assert!(outcome.converged());
    let report = outcome.degradation();
    assert_eq!(
        report.retries, 0,
        "a slow reply is not a lost one: {report:?}"
    );
    assert!(
        report.is_clean(),
        "slow workers degraded the run: {report:?}"
    );
}

/// A satisfaction whose worker panics on its first best response: a fault
/// no plan scheduled.
struct Diverging;

impl Satisfaction for Diverging {
    fn value(&self, p: f64) -> f64 {
        p.ln_1p()
    }

    fn derivative(&self, _p: f64) -> f64 {
        panic!("satisfaction model diverged")
    }

    fn name(&self) -> &str {
        "diverging"
    }
}

#[test]
fn an_unplanned_worker_panic_aborts_strict_runs_and_evicts_in_tolerant_ones() {
    let build = || {
        GameBuilder::new()
            .sections(4, Kilowatts::new(SECTION_CAP))
            .olevs(2, Kilowatts::new(50.0))
            .olev_with(Kilowatts::new(50.0), Box::new(Diverging))
            .build()
            .expect("valid scenario")
    };
    // Without a plan the first fault ends the run, panic payload included.
    match DistributedGame::new(&mut build()).run(2_000) {
        Err(GameError::WorkerFailed(msg)) => {
            assert!(msg.contains("model diverged"), "payload lost: {msg}");
        }
        other => panic!("expected WorkerFailed, got {other:?}"),
    }
    // With one, the worker's death notice evicts it and the rest converge.
    let mut game = build();
    let outcome = DistributedGame::new(&mut game)
        .with_faults(FaultPlan::new(3))
        .run(2_000)
        .expect("survivors converge");
    assert!(outcome.converged());
    let report = outcome.degradation();
    assert_eq!(report.evicted(), vec![2]);
    assert!(
        matches!(&report.evictions[0].reason,
                 EvictionReason::Crashed(msg) if msg.contains("model diverged")),
        "panic must be attributed, got {:?}",
        report.evictions[0].reason
    );
}

// ---------------------------------------------------------------------------
// Departures and total loss: bounded, attributed, never deadlocked.
// ---------------------------------------------------------------------------

#[test]
fn departures_shrink_the_quorum_gracefully() {
    let plan = FaultPlan::new(7).depart(0, 6).depart(3, 6);
    let (outcome, welfare) = run_faulted(5, 4, 50.0, plan, 6).expect("survivors converge");

    assert!(outcome.converged());
    let report = outcome.degradation();
    assert_eq!(report.evicted(), vec![0, 3]);
    assert!(report
        .evictions
        .iter()
        .all(|e| matches!(e.reason, EvictionReason::Departed)));
    assert_eq!(report.survivors(4), vec![1, 2]);
    // Departure is cooperative: everyone said hello, everyone said goodbye.
    assert_eq!(report.hellos, 4);
    assert_eq!(report.goodbyes, 4);

    let reference = reference_welfare(5, 2, 50.0);
    assert!(
        (welfare - reference).abs() < 1e-6,
        "survivor welfare {welfare} vs reference {reference}"
    );
}

#[test]
fn total_packet_loss_fails_fast_instead_of_deadlocking() {
    let started = Instant::now();
    let plan = FaultPlan::new(11).drop_probability(1.0);
    let result = run_faulted(4, 3, 40.0, plan, 4);
    // Drop verdicts are plan-derived, so the coordinator expires them
    // virtually: exhausting every retry budget takes milliseconds, not
    // `budget × timeout` of wall clock.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "100% loss must fail fast, took {:?}",
        started.elapsed()
    );
    match result {
        Err(GameError::OlevEvicted(olev)) => assert_eq!(olev, 2, "round-robin evicts 0, 1, 2"),
        other => panic!("expected every OLEV evicted, got {other:?}"),
    }
}

#[test]
fn a_permanently_stalled_fleet_is_evicted_in_bounded_time() {
    let started = Instant::now();
    let plan = FaultPlan::new(13).stall_probability(1.0);
    let result = run_faulted(4, 3, 40.0, plan, 3);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stall storm must stay bounded, took {:?}",
        started.elapsed()
    );
    assert!(
        matches!(result, Err(GameError::OlevEvicted(_))),
        "silent workers must be evicted, got {result:?}"
    );
}

// ---------------------------------------------------------------------------
// Stale windows under faults (welfare only — no bit-determinism claim).
// ---------------------------------------------------------------------------

#[test]
fn stale_window_survives_lossy_links() {
    let mut game = build(6, 4, 50.0);
    let plan = FaultPlan::new(41)
        .drop_probability(0.15)
        .duplicate_probability(0.1)
        .max_delay_ms(25);
    let outcome = DistributedGame::new(&mut game)
        .window(3)
        .with_faults(plan)
        .offer_timeout(Duration::from_millis(10))
        .retry_budget(12)
        .run(8_000)
        .expect("stale chaos run");

    assert!(outcome.converged());
    assert!(outcome.degradation().evictions.is_empty());
    let reference = reference_welfare(6, 4, 50.0);
    let welfare = game.welfare();
    assert!(
        (welfare - reference).abs() < 1e-6,
        "stale chaos welfare {welfare} vs reference {reference}"
    );
}

// ---------------------------------------------------------------------------
// Heterogeneous fleet under faults: eviction zeroes exactly one row.
// ---------------------------------------------------------------------------

#[test]
fn heterogeneous_fleet_survives_a_crash() {
    let mut game = GameBuilder::new()
        .sections(6, Kilowatts::new(SECTION_CAP))
        .olevs_weighted(1, Kilowatts::new(60.0), 1.0)
        .olevs_weighted(1, Kilowatts::new(30.0), 2.0)
        .olevs_weighted(1, Kilowatts::new(45.0), 0.5)
        .build()
        .expect("valid scenario");
    let plan = FaultPlan::new(5).drop_probability(0.1).crash(0, 1);
    let outcome = DistributedGame::new(&mut game)
        .with_faults(plan)
        .offer_timeout(Duration::from_millis(10))
        .retry_budget(12)
        .run(8_000)
        .expect("survivors converge");

    assert!(outcome.converged());
    assert_eq!(outcome.degradation().evicted(), vec![0]);

    // Reference: the surviving two OLEVs, fault-free, in process.
    let mut reference_game = GameBuilder::new()
        .sections(6, Kilowatts::new(SECTION_CAP))
        .olevs_weighted(1, Kilowatts::new(30.0), 2.0)
        .olevs_weighted(1, Kilowatts::new(45.0), 0.5)
        .build()
        .expect("valid scenario");
    reference_game
        .run(UpdateOrder::RoundRobin, 20_000)
        .expect("reference run");
    let reference = reference_game.welfare();
    let welfare = game.welfare();
    assert!(
        (welfare - reference).abs() < 1e-6,
        "heterogeneous survivor welfare {welfare} vs reference {reference}"
    );
}

// ---------------------------------------------------------------------------
// Fault plans compose with the in-process parallel sweep engine.
// ---------------------------------------------------------------------------

#[test]
fn parallel_sweeps_compose_with_fault_plans() {
    // The same deterministic fault plans that drive the decentralized
    // runtime drive `run_parallel_faulted`: dropped uplinks discard moves
    // (retried next sweep), departures evict, and the whole composition
    // stays bit-deterministic under sharding.
    let run = || {
        let mut game = build(6, 5, 50.0);
        let plan = FaultPlan::new(2031).drop_probability(0.2).depart(1, 40);
        let outcome = game
            .run_parallel_faulted(
                UpdateOrder::Random { seed: 9 },
                20_000,
                ParallelConfig::new(4),
                &plan,
                &Telemetry::disabled(),
            )
            .expect("faulted parallel run");
        let welfare = game.welfare();
        (outcome, welfare)
    };
    let (first, first_welfare) = run();
    let (second, second_welfare) = run();

    assert_eq!(first, second, "same seed must replay the same Outcome");
    assert_eq!(first_welfare.to_bits(), second_welfare.to_bits());

    assert!(first.converged(), "survivors must still converge");
    let report = first.degradation();
    assert_eq!(report.evicted(), vec![1], "the departed OLEV is evicted");
    assert!(
        report.drops > 0,
        "20% uplink loss over a long run must drop something"
    );

    // Welfare matches the fault-free optimum of the 4 survivors.
    let reference = reference_welfare(6, 4, 50.0);
    assert!(
        (first_welfare - reference).abs() < 1e-6,
        "survivor welfare {first_welfare} vs reference {reference}"
    );
}

#[test]
fn partitioned_apply_composes_with_fault_plans() {
    // Same composition as above, but with the concurrent-commit apply
    // path: dropped uplinks and mid-run departures must neither break
    // same-seed bit-determinism nor pull the survivors off the fault-free
    // optimum when commits are guarded per partition.
    let run = || {
        let mut game = build(6, 5, 50.0);
        let plan = FaultPlan::new(2031).drop_probability(0.2).depart(1, 40);
        let outcome = game
            .run_parallel_faulted(
                UpdateOrder::Random { seed: 9 },
                20_000,
                ParallelConfig::new(4).with_apply(ApplyMode::Partitioned),
                &plan,
                &Telemetry::disabled(),
            )
            .expect("faulted partitioned run");
        let welfare = game.welfare();
        (outcome, welfare)
    };
    let (first, first_welfare) = run();
    let (second, second_welfare) = run();

    assert_eq!(first, second, "same seed must replay the same Outcome");
    assert_eq!(first_welfare.to_bits(), second_welfare.to_bits());

    assert!(first.converged(), "survivors must still converge");
    let report = first.degradation();
    assert_eq!(report.evicted(), vec![1], "the departed OLEV is evicted");

    let reference = reference_welfare(6, 4, 50.0);
    assert!(
        (first_welfare - reference).abs() < 1e-6,
        "survivor welfare {first_welfare} vs reference {reference}"
    );
}

// ---------------------------------------------------------------------------
// Property tests: determinism and eventual-delivery welfare over random plans.
// ---------------------------------------------------------------------------

properties! {
    cases = 10;

    /// Same seed ⇒ identical `Outcome` (trajectory, counters, evictions) and
    /// bit-equal welfare, for any mix of drops, duplicates, and reordering.
    fn same_seed_replays_bit_identically(g) {
        let seed = g.u64();
        let drop_p = g.range(0.0f64..0.2);
        let dup_p = g.range(0.0f64..0.2);
        let delay = g.range(0u64..25);
        let sections = g.range(4usize..8);
        let olevs = g.range(3usize..6);
        let plan = || FaultPlan::new(seed)
            .drop_probability(drop_p)
            .duplicate_probability(dup_p)
            .max_delay_ms(delay);
        let (first, first_welfare) = match run_faulted(sections, olevs, 50.0, plan(), 12) {
            Ok(run) => run,
            Err(GameError::OlevEvicted(_)) => return,
            Err(other) => panic!("unexpected error: {other}"),
        };
        let (second, second_welfare) =
            run_faulted(sections, olevs, 50.0, plan(), 12).expect("first run succeeded");
        assert_eq!(first, second);
        assert_eq!(first_welfare.to_bits(), second_welfare.to_bits());
    }

    /// Eventual delivery with no evictions ⇒ the faulted equilibrium welfare
    /// equals the fault-free full-fleet optimum within 1e-6; with evictions,
    /// it equals the optimum of the surviving fleet.
    fn lossy_runs_land_on_the_survivors_optimum(g) {
        let seed = g.u64();
        let drop_p = g.range(0.0f64..0.2);
        let dup_p = g.range(0.0f64..0.2);
        let delay = g.range(0u64..25);
        let sections = g.range(4usize..8);
        let olevs = g.range(3usize..6);
        let plan = FaultPlan::new(seed)
            .drop_probability(drop_p)
            .duplicate_probability(dup_p)
            .max_delay_ms(delay);
        let (outcome, welfare) = match run_faulted(sections, olevs, 50.0, plan, 12) {
            Ok(run) => run,
            Err(GameError::OlevEvicted(_)) => return,
            Err(other) => panic!("unexpected error: {other}"),
        };
        assert!(outcome.converged(), "lossy-but-delivered runs must converge");
        let survivors = outcome.degradation().survivors(olevs).len();
        assert!(survivors > 0);
        let reference = reference_welfare(sections, survivors, 50.0);
        assert!(
            (welfare - reference).abs() < 1e-6,
            "welfare {} vs {}-OLEV reference {}", welfare, survivors, reference
        );
    }
}
