//! Differential suite for the water-filling kernel.
//!
//! The production scheduler and best response sweep the sorted breakpoints
//! of the piecewise-linear `A(μ)` and invert its affine pieces exactly. The
//! oracles here are the bisection versions they replaced: a level search
//! whose every probe bisects each section's `Z'` for `x_c(μ)`, and the
//! best response that bisects its first-order condition in `μ` and then
//! quotes the total through that level search. Both read nothing but
//! `Z'`, so they share no structure with the sweep.
//!
//! The engine's update runs the same sweep through a move kernel that
//! writes its row in place and skips the pricing; the last properties pin
//! one `Game::update_olev` to the public `best_response` bit for bit.

use oes::game::waterfill::{marginal_waterfill, water_level, waterfill, y_function};
use oes::game::{
    best_response, payment_for_schedule, Game, GameBuilder, LinearPricing, LogSatisfaction,
    NonlinearPricing, OverloadPenalty, PricingPolicy, Satisfaction, Scheduler, SectionCost,
    SqrtSatisfaction,
};
use oes::units::{Kilowatts, OlevId};

#[macro_use]
mod prop;

use prop::{check, Gen, DEFAULT_CASES};

/// Bisection steps of every oracle search.
const ITERS: usize = 60;

/// Agreement demanded of the kernel: absolute below one, relative above.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1.0)
}

/// A grid: a strictly convex cost and sections of heterogeneous capacity,
/// each loaded nowhere, below its knee, at it, or past it.
struct Grid {
    cost: SectionCost,
    caps: Vec<f64>,
    loads: Vec<f64>,
}

fn grid(g: &mut Gen) -> Grid {
    let beta = g.range(5.0f64..100.0);
    // No overload, the paper's κ, and the closed loop's stiff knee.
    let kappa = match g.range(0u32..3) {
        0 => 0.0,
        1 => 0.15,
        _ => 10.0 * beta / 1000.0,
    };
    let eta = g.range(0.5f64..1.0);
    let cost = SectionCost::new(
        PricingPolicy::Nonlinear(NonlinearPricing::paper_default(beta)),
        OverloadPenalty::new(kappa),
        eta,
    );
    let caps = g.vec(1..24, |g| g.range(5.0f64..120.0));
    let loads = caps
        .iter()
        .map(|&cap| {
            let knee = eta * cap;
            match g.range(0u32..4) {
                0 => 0.0,
                1 => g.range(0.0..knee),
                2 => knee,
                _ => g.range(knee..1.6 * cap),
            }
        })
        .collect();
    Grid { cost, caps, loads }
}

/// Zero, tiny, moderate or large.
fn total(g: &mut Gen) -> f64 {
    match g.range(0u32..4) {
        0 => 0.0,
        1 => g.range(0.0f64..1e-6),
        2 => g.range(0.0f64..50.0),
        _ => g.range(50.0f64..2000.0),
    }
}

/// `x_c(μ)`: the load at which `Z'` reaches `μ`, by bisection on a
/// bracket doubled until it holds.
fn oracle_x(cost: &SectionCost, cap: f64, load: f64, mu: f64) -> f64 {
    if cost.z_prime(load, cap) >= mu {
        return load;
    }
    let mut span = 1.0;
    while cost.z_prime(load + span, cap) < mu {
        span *= 2.0;
    }
    let mut hi = load + span;
    let mut lo = load;
    for _ in 0..ITERS {
        let mid = 0.5 * (lo + hi);
        if cost.z_prime(mid, cap) < mu {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// The bisection `marginal_waterfill`: shares and the level `μ`.
fn oracle_waterfill(grid: &Grid, total: f64) -> (Vec<f64>, f64) {
    let Grid { cost, caps, loads } = grid;
    let c_count = caps.len();
    let mu_lo = (0..c_count)
        .map(|c| cost.z_prime(loads[c], caps[c]))
        .fold(f64::INFINITY, f64::min);
    if total == 0.0 {
        return (vec![0.0; c_count], mu_lo);
    }
    let mu_hi = (0..c_count)
        .map(|c| cost.z_prime(loads[c] + total, caps[c]))
        .fold(0.0f64, f64::max);
    let x_of_mu = |c: usize, mu: f64| oracle_x(cost, caps[c], loads[c], mu);
    let allocated = |mu: f64| -> f64 { (0..c_count).map(|c| x_of_mu(c, mu) - loads[c]).sum() };
    let (mut lo, mut hi) = (mu_lo, mu_hi);
    for _ in 0..ITERS {
        let mid = 0.5 * (lo + hi);
        if allocated(mid) < total {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let mu = 0.5 * (lo + hi);
    let mut shares: Vec<f64> = (0..c_count).map(|c| x_of_mu(c, mu) - loads[c]).collect();
    let sum: f64 = shares.iter().sum();
    if sum > 0.0 {
        for s in &mut shares {
            *s *= total / sum;
        }
    }
    (shares, mu)
}

/// The bisection best response in marginal-price space: total, shares,
/// level and payment.
fn oracle_response(sat: &dyn Satisfaction, grid: &Grid, p_max: f64) -> (f64, Vec<f64>, f64, f64) {
    let Grid { cost, caps, loads } = grid;
    let demand = |mu: f64| -> f64 {
        (0..caps.len())
            .map(|c| oracle_x(cost, caps[c], loads[c], mu) - loads[c])
            .sum()
    };
    let mu_min = (0..caps.len())
        .map(|c| cost.z_prime(loads[c], caps[c]))
        .fold(f64::INFINITY, f64::min);
    let u0 = sat.derivative(0.0);
    let total = if p_max == 0.0 || u0 <= mu_min {
        0.0
    } else if demand(sat.derivative(p_max)) >= p_max {
        p_max
    } else {
        let (mut lo, mut hi) = (mu_min, u0);
        for _ in 0..ITERS {
            let mid = 0.5 * (lo + hi);
            if sat.derivative(demand(mid)) - mid > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        demand(0.5 * (lo + hi)).min(p_max)
    };
    let (shares, mu) = oracle_waterfill(grid, total);
    let payment = payment_for_schedule(cost, caps, loads, &shares);
    (total, shares, mu, payment)
}

/// The kernel's invariants for a schedule of `total` at level `mu`: finite
/// non-negative shares summing to `total`, equal `Z'` on the sections that
/// received power, and no cheaper section left out.
fn assert_waterfilled(grid: &Grid, shares: &[f64], mu: f64, total: f64) {
    assert!(mu.is_finite(), "level {mu}");
    assert!(
        shares.iter().all(|s| s.is_finite() && *s >= 0.0),
        "{shares:?}"
    );
    let sum: f64 = shares.iter().sum();
    assert!(close(sum, total), "shares sum to {sum}, not {total}");
    for (c, &share) in shares.iter().enumerate() {
        let z = grid.cost.z_prime(grid.loads[c] + share, grid.caps[c]);
        if share > 0.0 {
            assert!(close(z, mu), "section {c}: Z' {z} off the level {mu}");
        } else {
            assert!(
                z >= mu - 1e-9 * mu.abs().max(1.0),
                "section {c} left out below {mu}"
            );
        }
    }
}

#[test]
fn marginal_waterfill_matches_the_bisection_oracle() {
    check(
        "marginal_waterfill_matches_the_bisection_oracle",
        DEFAULT_CASES,
        |g| {
            let grid = grid(g);
            let total = total(g);
            let fast = marginal_waterfill(&grid.cost, &grid.caps, &grid.loads, total);
            let (shares, mu) = oracle_waterfill(&grid, total);
            assert_waterfilled(&grid, &fast.shares, fast.marginal, total);
            assert!(close(fast.marginal, mu), "level {} vs {mu}", fast.marginal);
            for (c, (a, b)) in fast.shares.iter().zip(&shares).enumerate() {
                assert!(close(*a, *b), "section {c}: {a} vs {b}");
            }
        },
    );
}

#[test]
fn best_response_matches_the_bisection_oracle() {
    // Which case of Eq. 22 each generated response fell in.
    let (mut idle, mut bound, mut interior) = (0, 0, 0);
    check(
        "best_response_matches_the_bisection_oracle",
        DEFAULT_CASES,
        |g| {
            let grid = grid(g);
            let weight = 10f64.powf(g.range(-2.0f64..2.0));
            let sat: Box<dyn Satisfaction> = if g.bool() {
                Box::new(LogSatisfaction::new(weight))
            } else {
                Box::new(SqrtSatisfaction::new(weight))
            };
            // Zero, likely binding, or slack.
            let p_max = match g.range(0u32..3) {
                0 => 0.0,
                1 => g.range(0.1f64..10.0),
                _ => g.range(1e3f64..1e4),
            };
            let fast = best_response(
                sat.as_ref(),
                &grid.cost,
                &grid.caps,
                &grid.loads,
                p_max,
                Scheduler::WaterFilling,
            );
            let (total, shares, mu, payment) = oracle_response(sat.as_ref(), &grid, p_max);
            assert!(close(fast.total, total), "total {} vs {total}", fast.total);
            assert!(
                close(fast.allocation.marginal, mu),
                "level {} vs {mu}",
                fast.allocation.marginal
            );
            for (c, (a, b)) in fast.allocation.shares.iter().zip(&shares).enumerate() {
                assert!(close(*a, *b), "section {c}: {a} vs {b}");
            }
            assert!(
                close(fast.payment, payment),
                "payment {} vs {payment}",
                fast.payment
            );
            assert!(fast.total >= 0.0 && fast.total <= p_max);
            assert!(fast.payment >= 0.0 && fast.utility.is_finite());
            assert_waterfilled(
                &grid,
                &fast.allocation.shares,
                fast.allocation.marginal,
                fast.total,
            );
            if fast.total == 0.0 {
                idle += 1;
            } else if fast.total == p_max {
                bound += 1;
            } else {
                interior += 1;
            }
        },
    );
    for (case, count) in [("zero", idle), ("bound", bound), ("interior", interior)] {
        assert!(count >= 10, "only {count} {case} responses were generated");
    }
}

properties! {
    cases = DEFAULT_CASES;

    fn water_level_matches_the_bisection_oracle(g) {
        let loads = g.vec(1..24, |g| g.range(0.0f64..100.0));
        let total = total(g);
        let lambda = water_level(&loads, total);
        let lo0 = loads.iter().fold(f64::INFINITY, |m, &l| m.min(l));
        let (mut lo, mut hi) = (lo0, loads.iter().fold(0.0f64, |m, &l| m.max(l)) + total);
        for _ in 0..ITERS {
            let mid = 0.5 * (lo + hi);
            if y_function(&loads, mid) < total {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let oracle = if total == 0.0 { lo0 } else { 0.5 * (lo + hi) };
        assert!(close(lambda, oracle), "λ* {lambda} vs {oracle}");
        let shares = waterfill(&loads, total);
        assert!(shares.iter().all(|s| s.is_finite() && *s >= 0.0));
        assert!(close(shares.iter().sum(), total));
        for (s, l) in shares.iter().zip(&loads) {
            assert!(close(*s, (oracle - l).max(0.0)), "{s} vs [{oracle} − {l}]⁺");
        }
    }
}

/// Zero, likely binding, or slack.
fn p_max(g: &mut Gen) -> f64 {
    match g.range(0u32..3) {
        0 => 0.0,
        1 => g.range(0.1f64..10.0),
        _ => g.range(1e3f64..1e4),
    }
}

/// A random game on heterogeneous sections: windowed log OLEVs, full-width
/// log and sqrt OLEVs, every `P_OLEV` zero, binding or slack, and a
/// schedule left wherever a few random updates took it.
fn random_game(g: &mut Gen, policy: PricingPolicy) -> Game {
    let mut builder = GameBuilder::new()
        .pricing(policy)
        .overload(g.range(0.0f64..0.5))
        .eta(g.range(0.5f64..1.0));
    let sections = g.range(1usize..16);
    for _ in 0..sections {
        builder = builder.section(Kilowatts::new(g.range(5.0f64..120.0)));
    }
    for _ in 0..g.range(1usize..8) {
        let p_max = Kilowatts::new(p_max(g));
        let weight = 10f64.powf(g.range(-1.0f64..1.0));
        builder = match g.range(0u32..3) {
            0 => {
                let start = g.range(0..sections);
                let end = g.range(start + 1..sections + 1);
                builder.olevs_weighted_in(1, p_max, weight, start..end)
            }
            1 => builder.olev_with(p_max, Box::new(LogSatisfaction::new(weight))),
            _ => builder.olev_with(p_max, Box::new(SqrtSatisfaction::new(weight))),
        };
    }
    let mut game = builder.build().expect("valid game");
    let olevs = game.olev_count();
    for _ in 0..g.range(0..3 * olevs) {
        game.update_olev(g.range(0..olevs)).expect("in range");
    }
    game
}

/// Runs one `update_olev(n)` and asserts that it wrote exactly the row and
/// total `best_response` gives on the pre-update `P_{-n,c}`: the response's
/// shares inside the OLEV's window, zeros outside, the other rows untouched.
/// Returns the response's total.
fn assert_update_is_best_response(game: &mut Game, n: usize) -> f64 {
    let id = OlevId(n);
    let before = game.schedule().clone();
    let loads_excl = before.loads_excluding(id);
    let (w0, w1) = game.windows()[n];
    let br = best_response(
        game.satisfactions()[n].as_ref(),
        game.cost(),
        &game.caps()[w0..w1],
        &loads_excl[w0..w1],
        game.p_max()[n],
        game.scheduler(),
    );
    let change = game.update_olev(n).expect("in range");
    assert_eq!(
        change.to_bits(),
        (br.total - before.olev_total(id)).abs().to_bits(),
        "OLEV {n}: |Δp| {change} vs best response total {}",
        br.total
    );
    let row = game.schedule().row(id);
    for (c, &v) in row.iter().enumerate() {
        let expected = if (w0..w1).contains(&c) {
            br.allocation.shares[c - w0]
        } else {
            0.0
        };
        assert_eq!(
            v.to_bits(),
            expected.to_bits(),
            "OLEV {n} section {c}: {v} vs {expected}"
        );
    }
    for m in (0..game.olev_count()).filter(|&m| m != n) {
        assert_eq!(
            game.schedule().row(OlevId(m)),
            before.row(OlevId(m)),
            "OLEV {m} moved"
        );
    }
    br.total
}

#[test]
fn engine_update_is_the_best_response_bit_for_bit() {
    // Which case of Eq. 22 each checked update fell in, and how many were
    // windowed.
    let (mut idle, mut bound, mut interior, mut windowed) = (0, 0, 0, 0);
    check(
        "engine_update_is_the_best_response_bit_for_bit",
        DEFAULT_CASES,
        |g| {
            let beta = g.range(5.0f64..100.0);
            let mut game = random_game(
                g,
                PricingPolicy::Nonlinear(NonlinearPricing::paper_default(beta)),
            );
            assert_eq!(game.scheduler(), Scheduler::WaterFilling);
            for n in 0..game.olev_count() {
                let total = assert_update_is_best_response(&mut game, n);
                let p_max = game.p_max()[n];
                if total == 0.0 {
                    idle += 1;
                } else if total == p_max {
                    bound += 1;
                } else {
                    interior += 1;
                }
                if game.windows()[n] != (0, game.section_count()) {
                    windowed += 1;
                }
            }
        },
    );
    for (case, count) in [
        ("zero", idle),
        ("bound", bound),
        ("interior", interior),
        ("windowed", windowed),
    ] {
        assert!(count >= 10, "only {count} {case} updates were checked");
    }
}

#[test]
fn greedy_engine_update_is_the_best_response_bit_for_bit() {
    check(
        "greedy_engine_update_is_the_best_response_bit_for_bit",
        DEFAULT_CASES / 4,
        |g| {
            let beta = g.range(5.0f64..100.0);
            let mut game =
                random_game(g, PricingPolicy::Linear(LinearPricing::paper_default(beta)));
            assert_eq!(game.scheduler(), Scheduler::Greedy);
            for n in 0..game.olev_count() {
                assert_update_is_best_response(&mut game, n);
            }
        },
    );
}
