//! The OLEV's best response (Lemma IV.3).
//!
//! Facing the posted payment function `Ψ_n`, OLEV `n` maximizes its utility
//! `F_n(p_n) = U_n(p_n) − Ψ_n(p_n)` over `[0, P_OLEV]`. `U_n` is strictly
//! concave and `Ψ_n` convex with non-decreasing marginal (the water level
//! rises with the request), so the first-order condition
//! `U'_n(p_n) = Ψ'_n(p_n)` has at most one root; the three cases of Eq. 22
//! are exactly the boundary/interior split below. The marginal of the quote,
//! `Ψ'_n(p_n)`, is `Z'` at the water level `λ*(p_n)` — the grid never needs
//! to reveal the other OLEVs' schedules.
//!
//! For the water-filling scheduler the root is found in marginal-price space
//! on the grid's water levels: the piecewise-linear `A(μ)` locates the
//! affine piece on which `U'(A(μ)) − μ` changes sign, a scalar root solve
//! with O(1) probes finishes inside it, and the schedule is read off at that
//! level — no level search at all. Greedy scheduling (the linear baseline)
//! keeps the request-space solve.
//!
//! That water-filling solve is one crate-private move kernel. The engine's
//! update calls it with a level table and row it owns and keeps only the
//! total and the shares; [`best_response`] calls it with fresh buffers and
//! then prices the move (payment and utility), so the two agree bit for
//! bit.

use crate::payment::{payment_for_schedule, quote, Scheduler};
use crate::pricing::SectionCost;
use crate::satisfaction::Satisfaction;
use crate::waterfill::{Allocation, WaterLevels};

/// Bisection iterations for the interior root of Eq. 22 under greedy
/// scheduling.
const BISECT_ITERS: usize = 60;

/// Probe budget of the scalar root solve inside one piece of `A`; the
/// false-position steps below collapse the bracket to adjacent floats in
/// far fewer.
const ROOT_PROBES: usize = 100;

/// The outcome of one best response.
#[derive(Debug, Clone, PartialEq)]
pub struct BestResponse {
    /// The optimal total request `p*_n`.
    pub total: f64,
    /// The grid's schedule for it.
    pub allocation: Allocation,
    /// The payment `Ψ_n(p*_n)`.
    pub payment: f64,
    /// The achieved utility `F_n = U_n − Ψ_n`.
    pub utility: f64,
}

/// Computes OLEV `n`'s best response (Lemma IV.3 / Eq. 22).
///
/// `loads_excl` is `P_{-n,c}`; `p_max` is the Eq. 2/3 capacity bound.
///
/// # Panics
///
/// Panics if `p_max` is negative or inputs are inconsistent lengths.
#[must_use]
pub fn best_response(
    satisfaction: &dyn Satisfaction,
    cost: &SectionCost,
    caps: &[f64],
    loads_excl: &[f64],
    p_max: f64,
    scheduler: Scheduler,
) -> BestResponse {
    assert!(
        p_max >= 0.0 && p_max.is_finite(),
        "p_max must be non-negative"
    );
    assert_eq!(caps.len(), loads_excl.len(), "caps/loads length mismatch");

    if scheduler == Scheduler::WaterFilling {
        return waterfilling_response(satisfaction, cost, caps, loads_excl, p_max);
    }

    let marginal_at = |p: f64| scheduler.allocate(cost, caps, loads_excl, p).marginal;
    let foc = |p: f64| satisfaction.derivative(p) - marginal_at(p);

    // Eq. 22, case 1: already unprofitable at zero.
    let total = if p_max == 0.0 || foc(0.0) <= 0.0 {
        0.0
    } else if foc(p_max) >= 0.0 {
        // Case 2: still profitable at the capacity bound.
        p_max
    } else {
        // Case 3: interior root by bisection (U' decreasing, Ψ' increasing).
        let (mut lo, mut hi) = (0.0, p_max);
        for _ in 0..BISECT_ITERS {
            let mid = 0.5 * (lo + hi);
            if foc(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };

    let q = quote(cost, caps, loads_excl, scheduler, total);
    let utility = satisfaction.value(total) - q.payment;
    BestResponse {
        total,
        allocation: q.allocation,
        payment: q.payment,
        utility,
    }
}

/// Eq. 22 solved in marginal-price space, priced: [`waterfilling_move`]
/// into a fresh level table and share vector, then the payment `Ψ_n(p*_n)`
/// and utility of the move.
fn waterfilling_response(
    satisfaction: &dyn Satisfaction,
    cost: &SectionCost,
    caps: &[f64],
    loads_excl: &[f64],
    p_max: f64,
) -> BestResponse {
    let mut levels = WaterLevels::default();
    let mut shares = vec![0.0; caps.len()];
    let (total, mu) = waterfilling_move(
        satisfaction,
        cost,
        caps,
        loads_excl,
        p_max,
        &mut levels,
        &mut shares,
    );
    let payment = payment_for_schedule(cost, caps, loads_excl, &shares);
    let utility = satisfaction.value(total) - payment;
    BestResponse {
        total,
        allocation: Allocation {
            shares,
            marginal: mu,
        },
        payment,
        utility,
    }
}

/// The water-filling move kernel: OLEV `n`'s best-response total and the
/// grid's schedule for it, without the payment or utility that only a
/// [`BestResponse`] reports. [`crate::Game::update_olev`] calls it with a
/// level table and row slice it owns, so an engine update allocates
/// nothing; [`best_response`] calls it and then prices the move, so both
/// produce the same bits.
///
/// Rebuilds `levels` against `loads_excl`, writes the renormalized shares
/// into `shares` (one slot per entry of `caps`) and returns the total and
/// the water level `μ` it sits at.
///
/// The grid's quote has marginal `Ψ'_n(p) = μ` where `A(μ) = p`, and `A` is
/// the piecewise-linear total the water-filling schedule hands out at price
/// level `μ` (`WaterLevels`). The interior FOC `U'(p) = Ψ'(p)` therefore
/// reads `g(μ) = U'(A(μ)) − μ = 0` with `g` strictly decreasing, bracketed
/// by `[Ψ'(0), Ψ'(P_OLEV)]`. Testing `g` at the breakpoints of `A` finds the
/// affine piece `A(μ) = sμ + t` holding the root; there `U'(sμ + t) = μ` is
/// a scalar equation with O(1) probes, and the schedule is `A`'s own split
/// at the root level.
pub(crate) fn waterfilling_move(
    satisfaction: &dyn Satisfaction,
    cost: &SectionCost,
    caps: &[f64],
    loads_excl: &[f64],
    p_max: f64,
    levels: &mut WaterLevels,
    shares: &mut [f64],
) -> (f64, f64) {
    levels.rebuild(cost, caps, loads_excl);
    let floor = levels.floor();
    let (total, mu) = if p_max == 0.0 || satisfaction.derivative(0.0) <= floor {
        // Case 1: already unprofitable at zero.
        (0.0, floor)
    } else {
        let mu_max = levels.level(p_max);
        if satisfaction.derivative(p_max) >= mu_max {
            // Case 2: still profitable at the capacity bound.
            (p_max, mu_max)
        } else {
            // Case 3: interior root of g(μ) = U'(A(μ)) − μ.
            let piece = levels.crossing(mu_max, |mu, a| satisfaction.derivative(a) - mu);
            let mu = decreasing_root(
                |mu| satisfaction.derivative(piece.total_at(mu)) - mu,
                piece.lo,
                piece.hi,
            );
            (piece.total_at(mu).min(p_max), mu)
        }
    };
    levels.write_shares(mu, total, shares);
    (total, mu)
}

/// The root of a strictly decreasing `h` on `[lo, hi]` by false position
/// with the Illinois correction: each probe keeps the root bracketed, and
/// an endpoint kept twice in a row has its value halved so both ends
/// converge. A probe that would not land strictly inside the bracket (an
/// unbounded `U'(0)` at the left end, say) is replaced by the midpoint.
/// Returns an endpoint when `h` does not change sign.
fn decreasing_root(h: impl Fn(f64) -> f64, mut lo: f64, mut hi: f64) -> f64 {
    let (mut h_lo, mut h_hi) = (h(lo), h(hi));
    if h_lo <= 0.0 {
        return lo;
    }
    if h_hi >= 0.0 {
        return hi;
    }
    // Which end the last probe replaced: −1 the low one, 1 the high one.
    let mut moved = 0;
    for _ in 0..ROOT_PROBES {
        let mut mu = hi - h_hi * (hi - lo) / (h_hi - h_lo);
        if !(mu > lo && mu < hi) {
            mu = 0.5 * (lo + hi);
            if !(mu > lo && mu < hi) {
                break; // the bracket is two adjacent floats
            }
        }
        let v = h(mu);
        if v > 0.0 {
            lo = mu;
            h_lo = v;
            if moved == -1 {
                h_hi *= 0.5;
            }
            moved = -1;
        } else if v < 0.0 {
            hi = mu;
            h_hi = v;
            if moved == 1 {
                h_lo *= 0.5;
            }
            moved = 1;
        } else {
            return mu;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::{LinearPricing, NonlinearPricing, OverloadPenalty, PricingPolicy};
    use crate::satisfaction::LogSatisfaction;

    fn nl_cost() -> SectionCost {
        SectionCost::new(
            PricingPolicy::Nonlinear(NonlinearPricing::paper_default(15.0)),
            OverloadPenalty::new(0.15),
            0.9,
        )
    }

    #[test]
    fn interior_root_satisfies_foc() {
        let sat = LogSatisfaction::new(1.0);
        let cost = nl_cost();
        let caps = [60.0; 4];
        let loads = [0.0; 4];
        let br = best_response(&sat, &cost, &caps, &loads, 500.0, Scheduler::WaterFilling);
        assert!(br.total > 0.0 && br.total < 500.0);
        let marginal = Scheduler::WaterFilling
            .allocate(&cost, &caps, &loads, br.total)
            .marginal;
        assert!(
            (sat.derivative(br.total) - marginal).abs() < 1e-6,
            "FOC residual at p*={}",
            br.total
        );
    }

    #[test]
    fn capacity_bound_binds_for_eager_olev() {
        // A huge satisfaction weight: always worth taking the maximum.
        let sat = LogSatisfaction::new(1000.0);
        let br = best_response(
            &sat,
            &nl_cost(),
            &[60.0; 4],
            &[0.0; 4],
            30.0,
            Scheduler::WaterFilling,
        );
        assert_eq!(br.total, 30.0);
    }

    #[test]
    fn zero_response_when_price_exceeds_marginal_satisfaction() {
        // Congested sections and a lukewarm OLEV: requesting is unprofitable.
        let sat = LogSatisfaction::new(0.001);
        let cost = nl_cost();
        let loads = [55.0; 4]; // past the knee, Z' is steep
        let br = best_response(
            &sat,
            &cost,
            &[60.0; 4],
            &loads,
            30.0,
            Scheduler::WaterFilling,
        );
        assert_eq!(br.total, 0.0);
        assert_eq!(br.payment, 0.0);
        assert_eq!(br.utility, 0.0);
    }

    #[test]
    fn zero_capacity_yields_zero() {
        let sat = LogSatisfaction::new(10.0);
        let br = best_response(
            &sat,
            &nl_cost(),
            &[60.0],
            &[0.0],
            0.0,
            Scheduler::WaterFilling,
        );
        assert_eq!(br.total, 0.0);
    }

    #[test]
    fn best_response_is_a_maximizer() {
        // Sample the utility curve: no sampled request may beat p*.
        let sat = LogSatisfaction::new(2.0);
        let cost = nl_cost();
        let caps = [60.0; 3];
        let loads = [12.0, 40.0, 3.0];
        let br = best_response(&sat, &cost, &caps, &loads, 200.0, Scheduler::WaterFilling);
        for i in 0..=40 {
            let p = i as f64 * 5.0;
            let q = quote(&cost, &caps, &loads, Scheduler::WaterFilling, p);
            let u = sat.value(p) - q.payment;
            assert!(u <= br.utility + 1e-6, "p={p} gives {u} > {}", br.utility);
        }
    }

    #[test]
    fn marginal_space_solve_matches_request_space_solve() {
        // The μ-space fast path must land on the same root the pre-existing
        // request-space bisection finds, across boundary and interior cases.
        let cost = nl_cost();
        let caps = [60.0, 45.0, 80.0, 60.0];
        let loads = [12.0, 40.0, 3.0, 55.0];
        for (weight, p_max) in [
            (0.001, 30.0),  // case 1: zero response
            (1000.0, 25.0), // case 2: bound binds
            (2.0, 200.0),   // case 3: interior root
            (0.7, 90.0),    // another interior root
        ] {
            let sat = LogSatisfaction::new(weight);
            let fast = best_response(&sat, &cost, &caps, &loads, p_max, Scheduler::WaterFilling);
            // Reproduce the request-space solve the fast path replaced.
            let marginal_at = |p: f64| {
                Scheduler::WaterFilling
                    .allocate(&cost, &caps, &loads, p)
                    .marginal
            };
            let foc = |p: f64| sat.derivative(p) - marginal_at(p);
            let slow_total = if foc(0.0) <= 0.0 {
                0.0
            } else if foc(p_max) >= 0.0 {
                p_max
            } else {
                let (mut lo, mut hi) = (0.0, p_max);
                for _ in 0..BISECT_ITERS {
                    let mid = 0.5 * (lo + hi);
                    if foc(mid) > 0.0 {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                0.5 * (lo + hi)
            };
            assert!(
                (fast.total - slow_total).abs() < 1e-6,
                "w={weight}: μ-space {} vs p-space {slow_total}",
                fast.total
            );
        }
    }

    #[test]
    fn linear_policy_has_closed_form_response() {
        // Under linear pricing below the knees, Ψ' = β̃, so the interior
        // optimum is U'(p) = β̃ ⇒ p = w/β̃ − 1.
        let sat = LogSatisfaction::new(1.0);
        let lin = SectionCost::new(
            PricingPolicy::Linear(LinearPricing::paper_default(15.0)),
            OverloadPenalty::new(0.15),
            0.9,
        );
        // Plenty of knee headroom so the overload never engages.
        let caps = [2000.0; 4];
        let loads = [0.0; 4];
        let br = best_response(&sat, &lin, &caps, &loads, 5000.0, Scheduler::Greedy);
        let expected = 1.0 / 0.015 - 1.0;
        assert!(
            (br.total - expected).abs() < 1e-3,
            "{} vs {expected}",
            br.total
        );
    }

    #[test]
    fn congestion_lowers_the_response() {
        let sat = LogSatisfaction::new(1.0);
        let cost = nl_cost();
        let caps = [60.0; 4];
        let idle = best_response(
            &sat,
            &cost,
            &caps,
            &[0.0; 4],
            500.0,
            Scheduler::WaterFilling,
        );
        let busy = best_response(
            &sat,
            &cost,
            &caps,
            &[45.0; 4],
            500.0,
            Scheduler::WaterFilling,
        );
        assert!(busy.total < idle.total, "{} !< {}", busy.total, idle.total);
    }
}
