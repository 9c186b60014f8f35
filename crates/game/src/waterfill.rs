//! The smart grid's cost-minimizing schedulers.
//!
//! **Water-filling (Lemma IV.1).** For a strictly convex `Z`, the schedule
//! minimizing `Σ_c Z(P_{-n,c} + p_{n,c})` subject to `Σ_c p_{n,c} = p_n`
//! equalizes marginal costs across the touched sections: there is a unique
//! level such that `p_{n,c} = [x_c(μ*) − P_{-n,c}]⁺` with `Z'(x_c(μ*)) = μ*`.
//! `Z'` is piecewise linear (the nonlinear `V` plus the quadratic overload of
//! Eq. 6), so the total handed out at level `μ`,
//! `A(μ) = Σ_c [x_c(μ) − P_{-n,c}]⁺` — the paper's `Y` of Eq. 24, which
//! Section IV.F solves by bisection — is piecewise linear too, with at most
//! `2C` breakpoints: each section's activation price `Z'(P_{-n,c})` and its
//! knee price `Z'(η·P_line)`. `WaterLevels` sorts them once and sweeps the
//! slope of `A`; the level of a total is then the exact inverse of the affine
//! piece that brackets it. With identical sections this reduces to the
//! paper's load-level form `p_{n,c} = [λ* − P_{-n,c}]⁺` (Eq. 12), whose
//! breakpoints are the loads themselves.
//!
//! **Greedy filling.** Under the linear baseline `Z'` is flat below the knee,
//! the minimizer is not unique, and nothing pushes the grid to balance; this
//! fallback fills sections in index order — producing the load imbalance the
//! paper observes in Figs. 5(c)/6(c).

use crate::pricing::SectionCost;

/// One grid-side allocation of a total request across sections.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// Per-section shares (kW), summing to the requested total.
    pub shares: Vec<f64>,
    /// The marginal price of the last unit allocated — `Z'` at the water
    /// level for water-filling, `Z'` at the last touched section for greedy.
    pub marginal: f64,
}

impl Allocation {
    /// Total allocated power.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.shares.iter().sum()
    }
}

/// The paper's `Y(x) = Σ_c [x − P_{-n,c}]⁺` (Eq. 24).
#[must_use]
pub fn y_function(loads: &[f64], level: f64) -> f64 {
    loads.iter().map(|&l| (level - l).max(0.0)).sum()
}

/// Finds the unique load level `λ*` with `Y(λ*) = total` (Section IV.F).
///
/// # Panics
///
/// Panics if `loads` is empty, `total` is negative, or any value is not
/// finite.
#[must_use]
pub fn water_level(loads: &[f64], total: f64) -> f64 {
    identical_levels(loads, total).level(total)
}

/// Eq. 12: the load-level water-filling schedule `[λ* − P_{-n,c}]⁺` for
/// identical sections.
///
/// # Panics
///
/// As for [`water_level`].
#[must_use]
pub fn waterfill(loads: &[f64], total: f64) -> Vec<f64> {
    identical_levels(loads, total).allocate(total).shares
}

/// Eq. 12 as the identical-section case of [`WaterLevels`]: the level is a
/// load, and each section takes one unit per unit of level above its own
/// load, so the breakpoints are the loads.
fn identical_levels(loads: &[f64], total: f64) -> WaterLevels {
    assert!(!loads.is_empty(), "need at least one section");
    assert!(
        total >= 0.0 && total.is_finite(),
        "total must be non-negative"
    );
    assert!(
        loads.iter().all(|l| l.is_finite() && *l >= 0.0),
        "loads must be non-negative"
    );
    WaterLevels::from_pieces(
        loads
            .iter()
            .map(|&start| Piece {
                start,
                knee: f64::INFINITY,
                below: 1.0,
                past: 1.0,
            })
            .collect(),
    )
}

/// Marginal-cost water-filling for (possibly) heterogeneous sections: finds
/// `μ*` such that `Σ_c [x_c(μ*) − load_c]⁺ = total`, where `Z'(x_c) = μ*`.
///
/// Requires a strictly convex cost ([`SectionCost::supports_waterfilling`]).
///
/// # Panics
///
/// Panics on empty inputs, mismatched lengths, a negative total, or a cost
/// without strict convexity.
#[must_use]
pub fn marginal_waterfill(
    cost: &SectionCost,
    caps: &[f64],
    loads: &[f64],
    total: f64,
) -> Allocation {
    assert!(
        total >= 0.0 && total.is_finite(),
        "total must be non-negative"
    );
    WaterLevels::new(cost, caps, loads).allocate(total)
}

/// One section's share of the water-filling total as a function of the
/// level `μ`: zero up to `start`, then rising at `below` per unit of `μ` up
/// to `knee`, then at `past`. The rates are `1/Z''` on each piece of `Z'`.
#[derive(Debug, Clone, Copy)]
struct Piece {
    start: f64,
    knee: f64,
    below: f64,
    past: f64,
}

impl Piece {
    fn share(&self, mu: f64) -> f64 {
        if mu <= self.start {
            0.0
        } else if mu <= self.knee {
            (mu - self.start) * self.below
        } else {
            (self.knee - self.start) * self.below + (mu - self.knee) * self.past
        }
    }
}

/// A breakpoint of `A`: its price, `A` there, and the slope of `A` up to
/// the next breakpoint.
#[derive(Debug, Clone, Copy)]
struct Breakpoint {
    price: f64,
    total: f64,
    slope: f64,
}

/// One affine piece of `A`: `A(μ) = total + slope · (μ − lo)` on
/// `[lo, hi]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    /// Where the piece starts.
    pub(crate) lo: f64,
    /// Where it ends.
    pub(crate) hi: f64,
    /// `A(lo)`.
    total: f64,
    /// `dA/dμ` on the piece.
    slope: f64,
}

impl Segment {
    /// `A(μ)` on this piece.
    pub(crate) fn total_at(&self, mu: f64) -> f64 {
        self.total + self.slope * (mu - self.lo)
    }
}

/// The water-filling grid's response to one OLEV against fixed loads
/// `P_{-n,c}`: the piecewise-linear `A(μ) = Σ_c [x_c(μ) − P_{-n,c}]⁺`, kept
/// as its sorted breakpoints with `A` and its slope at each.
///
/// Building it costs one O(C log C) sort; [`WaterLevels::level`] then
/// inverts `A` exactly, and the best response finds its first-order root
/// on the same table ([`WaterLevels::crossing`]). The engine keeps one and
/// [`rebuilds`](WaterLevels::rebuild) it in place for every update, so its
/// buffers are allocated once per game.
#[derive(Debug, Default)]
pub(crate) struct WaterLevels {
    pieces: Vec<Piece>,
    breakpoints: Vec<Breakpoint>,
}

impl WaterLevels {
    /// The level structure of a strictly convex cost over sections of
    /// capacities `caps` carrying `loads`.
    ///
    /// # Panics
    ///
    /// As [`WaterLevels::rebuild`].
    pub(crate) fn new(cost: &SectionCost, caps: &[f64], loads: &[f64]) -> Self {
        let mut levels = Self::default();
        levels.rebuild(cost, caps, loads);
        levels
    }

    /// Replaces the level structure with [`WaterLevels::new`]'s for these
    /// inputs, reusing the buffers.
    ///
    /// # Panics
    ///
    /// Panics on empty inputs, mismatched lengths, or a cost without strict
    /// convexity.
    pub(crate) fn rebuild(&mut self, cost: &SectionCost, caps: &[f64], loads: &[f64]) {
        assert!(!caps.is_empty(), "need at least one section");
        assert_eq!(caps.len(), loads.len(), "caps/loads length mismatch");
        self.pieces.clear();
        self.pieces
            .extend(caps.iter().zip(loads).map(|(&cap, &load)| {
                let (below, past) = cost
                    .z_prime_slopes(cap)
                    .expect("water-filling needs a strictly convex cost");
                let start = cost.z_prime(load, cap);
                let knee = cost.z_prime(cost.knee(cap), cap);
                if start < knee {
                    Piece {
                        start,
                        knee,
                        below: 1.0 / below,
                        past: 1.0 / past,
                    }
                } else {
                    // Already at or past the knee: one piece of Z' is left.
                    Piece {
                        start,
                        knee: start,
                        below: 1.0 / past,
                        past: 1.0 / past,
                    }
                }
            }));
        self.sweep();
    }

    /// The level structure of the given pieces.
    fn from_pieces(pieces: Vec<Piece>) -> Self {
        let mut levels = Self {
            pieces,
            breakpoints: Vec::new(),
        };
        levels.sweep();
        levels
    }

    /// Sorts the pieces' breakpoints and sweeps `A` and its slope across
    /// them.
    fn sweep(&mut self) {
        let breakpoints = &mut self.breakpoints;
        breakpoints.clear();
        breakpoints.reserve(2 * self.pieces.len());
        for p in &self.pieces {
            // Until the sweep below, `slope` holds the change of slope.
            breakpoints.push(Breakpoint {
                price: p.start,
                total: 0.0,
                slope: p.below,
            });
            if p.past != p.below {
                breakpoints.push(Breakpoint {
                    price: p.knee,
                    total: 0.0,
                    slope: p.past - p.below,
                });
            }
        }
        breakpoints.sort_unstable_by(|a, b| a.price.total_cmp(&b.price));
        let (mut total, mut slope, mut price) = (0.0, 0.0, breakpoints[0].price);
        for b in breakpoints.iter_mut() {
            total += slope * (b.price - price);
            slope += b.slope;
            price = b.price;
            b.total = total;
            b.slope = slope;
        }
    }

    /// `Ψ'(0)`: the cheapest section's current marginal cost, below which
    /// the grid hands out nothing.
    pub(crate) fn floor(&self) -> f64 {
        self.breakpoints[0].price
    }

    /// The level `μ` with `A(μ) = total`: `A` is strictly increasing above
    /// [`WaterLevels::floor`], so the affine piece that brackets `total`
    /// inverts exactly. A zero total sits at the floor.
    pub(crate) fn level(&self, total: f64) -> f64 {
        let k = self.breakpoints.partition_point(|b| b.total <= total);
        let b = self.breakpoints[k.saturating_sub(1)];
        b.price + (total - b.total) / b.slope
    }

    /// The piece of `A` on which the strictly decreasing `g(μ, A(μ))`
    /// changes sign below `cap`, found by testing `g` at the breakpoints.
    /// Expects `g > 0` at the floor and `g ≤ 0` at `cap`.
    pub(crate) fn crossing(&self, cap: f64, g: impl Fn(f64, f64) -> f64) -> Segment {
        let below = self.breakpoints.partition_point(|b| b.price < cap);
        let k = self.breakpoints[..below]
            .partition_point(|b| g(b.price, b.total) > 0.0)
            .saturating_sub(1);
        let b = self.breakpoints[k];
        Segment {
            lo: b.price,
            hi: self
                .breakpoints
                .get(k + 1)
                .map_or(cap, |next| next.price.min(cap)),
            total: b.total,
            slope: b.slope,
        }
    }

    /// The grid's schedule at level `mu`, scaled to sum to exactly `total`
    /// (the level's rounding would otherwise accumulate over thousands of
    /// updates).
    pub(crate) fn allocation(&self, mu: f64, total: f64) -> Allocation {
        let mut shares = vec![0.0; self.pieces.len()];
        self.write_shares(mu, total, &mut shares);
        Allocation {
            shares,
            marginal: mu,
        }
    }

    /// [`WaterLevels::allocation`]'s shares, written into `shares` (one
    /// slot per section) instead of a new vector.
    pub(crate) fn write_shares(&self, mu: f64, total: f64, shares: &mut [f64]) {
        debug_assert_eq!(shares.len(), self.pieces.len(), "one share per section");
        for (share, piece) in shares.iter_mut().zip(&self.pieces) {
            *share = piece.share(mu);
        }
        renormalize(shares, total);
    }

    /// The grid's schedule for `total`: [`WaterLevels::allocation`] at
    /// [`WaterLevels::level`].
    pub(crate) fn allocate(&self, total: f64) -> Allocation {
        self.allocation(self.level(total), total)
    }
}

/// Greedy sequential filling for the linear baseline: fill each section in
/// index order up to its knee; spill any remainder evenly beyond the knees.
///
/// # Panics
///
/// Panics on empty inputs, mismatched lengths, or a negative total.
#[must_use]
pub fn greedy_fill(cost: &SectionCost, caps: &[f64], loads: &[f64], total: f64) -> Allocation {
    assert!(!caps.is_empty(), "need at least one section");
    assert_eq!(caps.len(), loads.len(), "caps/loads length mismatch");
    assert!(
        total >= 0.0 && total.is_finite(),
        "total must be non-negative"
    );

    let mut shares = vec![0.0; caps.len()];
    let mut remaining = total;
    let mut last_touched = 0;
    for c in 0..caps.len() {
        if remaining <= 0.0 {
            break;
        }
        let headroom = (cost.knee(caps[c]) - loads[c]).max(0.0);
        let take = headroom.min(remaining);
        if take > 0.0 {
            shares[c] = take;
            remaining -= take;
            last_touched = c;
        }
    }
    if remaining > 1e-12 {
        // Every knee is full: spill evenly (the overload cost then punishes
        // everyone alike, and the next best responses shrink requests).
        let spill = remaining / caps.len() as f64;
        for s in shares.iter_mut() {
            *s += spill;
        }
        last_touched = (0..caps.len())
            .max_by(|&a, &b| {
                let za = cost.z_prime(loads[a] + shares[a], caps[a]);
                let zb = cost.z_prime(loads[b] + shares[b], caps[b]);
                za.partial_cmp(&zb).expect("costs are finite")
            })
            .expect("nonempty");
    }
    let marginal = cost.z_prime(
        loads[last_touched] + shares[last_touched],
        caps[last_touched],
    );
    Allocation { shares, marginal }
}

/// Scales shares so they sum to exactly `total`.
fn renormalize(shares: &mut [f64], total: f64) {
    let sum: f64 = shares.iter().sum();
    if sum > 0.0 && total > 0.0 {
        let scale = total / sum;
        for s in shares.iter_mut() {
            *s *= scale;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pricing::{LinearPricing, NonlinearPricing, OverloadPenalty, PricingPolicy};

    fn nl_cost() -> SectionCost {
        SectionCost::new(
            PricingPolicy::Nonlinear(NonlinearPricing::paper_default(15.0)),
            OverloadPenalty::new(0.15),
            0.9,
        )
    }

    fn lin_cost() -> SectionCost {
        SectionCost::new(
            PricingPolicy::Linear(LinearPricing::paper_default(15.0)),
            OverloadPenalty::new(0.15),
            0.9,
        )
    }

    #[test]
    fn y_function_is_piecewise_linear() {
        let loads = [1.0, 3.0];
        assert_eq!(y_function(&loads, 0.5), 0.0);
        assert_eq!(y_function(&loads, 2.0), 1.0);
        assert_eq!(y_function(&loads, 4.0), 4.0);
    }

    #[test]
    fn water_level_solves_y() {
        let loads = [0.0, 2.0, 5.0];
        let total = 4.0;
        let lambda = water_level(&loads, total);
        assert!((y_function(&loads, lambda) - total).abs() < 1e-9);
        // Hand calculation: λ = 3 gives (3) + (1) + 0 = 4.
        assert!((lambda - 3.0).abs() < 1e-9);
    }

    #[test]
    fn waterfill_tops_up_lowest_loads_first() {
        let shares = waterfill(&[0.0, 2.0, 5.0], 4.0);
        assert!((shares[0] - 3.0).abs() < 1e-9);
        assert!((shares[1] - 1.0).abs() < 1e-9);
        assert!((shares[2] - 0.0).abs() < 1e-12);
        assert!((shares.iter().sum::<f64>() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn waterfill_equalizes_equal_loads() {
        let shares = waterfill(&[1.0, 1.0, 1.0, 1.0], 8.0);
        for s in &shares {
            assert!((s - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn zero_total_allocates_nothing() {
        assert_eq!(waterfill(&[1.0, 2.0], 0.0), vec![0.0, 0.0]);
        let a = marginal_waterfill(&nl_cost(), &[60.0, 60.0], &[1.0, 2.0], 0.0);
        assert_eq!(a.shares, vec![0.0, 0.0]);
    }

    #[test]
    fn marginal_waterfill_matches_load_level_form_for_identical_sections() {
        // With identical sections, equal marginals ⇔ equal loads, so the
        // generalized scheduler must reproduce Eq. 12 exactly.
        let cost = nl_cost();
        let caps = [60.0; 4];
        let loads = [5.0, 20.0, 11.0, 0.0];
        let total = 30.0;
        let a = marginal_waterfill(&cost, &caps, &loads, total);
        let expected = waterfill(&loads, total);
        for (got, want) in a.shares.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
        assert!((a.total() - total).abs() < 1e-9);
        // The reported marginal equals Z' at the water level.
        let level = water_level(&loads, total);
        assert!((a.marginal - cost.z_prime(level, 60.0)).abs() < 1e-6);
    }

    #[test]
    fn marginal_waterfill_equalizes_marginals_for_heterogeneous_caps() {
        let cost = nl_cost();
        let caps = [40.0, 80.0, 120.0];
        let loads = [0.0, 0.0, 0.0];
        let a = marginal_waterfill(&cost, &caps, &loads, 60.0);
        // Every section that received power sits at (nearly) the same Z'.
        let margins: Vec<f64> = (0..3)
            .filter(|&c| a.shares[c] > 1e-9)
            .map(|c| cost.z_prime(loads[c] + a.shares[c], caps[c]))
            .collect();
        for m in &margins {
            assert!(
                (m - a.marginal).abs() < 1e-6,
                "marginal {m} vs μ {}",
                a.marginal
            );
        }
        // Bigger sections absorb more at equal marginal cost.
        assert!(a.shares[2] > a.shares[1]);
        assert!(a.shares[1] > a.shares[0]);
    }

    #[test]
    fn demand_curve_bends_at_activation_and_knee_prices() {
        // One idle section: A is zero up to Z'(0), rises at 1/Z'' below the
        // knee, and at the flatter 1/(Z'' + 2κ) past it.
        let cost = nl_cost();
        let levels = WaterLevels::new(&cost, &[60.0], &[0.0]);
        let (below, past) = cost.z_prime_slopes(60.0).unwrap();
        let knee_price = cost.z_prime(54.0, 60.0);
        assert_eq!(levels.floor(), cost.z_prime(0.0, 60.0));
        assert_eq!(levels.level(0.0), levels.floor());
        assert!((levels.level(54.0) - knee_price).abs() < 1e-12);
        assert!((levels.level(54.0 - 1.0) - (knee_price - below)).abs() < 1e-12);
        assert!((levels.level(54.0 + 1.0) - (knee_price + past)).abs() < 1e-12);
    }

    #[test]
    fn crossing_brackets_the_sign_change() {
        let cost = nl_cost();
        let levels = WaterLevels::new(&cost, &[40.0, 80.0, 120.0], &[30.0, 0.0, 100.0]);
        let target = 75.0;
        let cap = levels.level(500.0);
        let piece = levels.crossing(cap, |_, a| target - a);
        assert!(piece.lo < piece.hi && piece.hi <= cap);
        assert!(piece.total_at(piece.lo) <= target && piece.total_at(piece.hi) >= target);
        let level = levels.level(target);
        assert!(piece.lo <= level && level <= piece.hi);
        assert!((piece.total_at(level) - target).abs() < 1e-9);
    }

    #[test]
    fn greedy_fill_is_sequential_and_unbalanced() {
        let cost = lin_cost();
        let caps = [60.0; 3];
        let loads = [0.0; 3];
        let a = greedy_fill(&cost, &caps, &loads, 70.0);
        // Knee is 54: first section fills to 54, second takes the rest.
        assert!((a.shares[0] - 54.0).abs() < 1e-9);
        assert!((a.shares[1] - 16.0).abs() < 1e-9);
        assert_eq!(a.shares[2], 0.0);
        assert!((a.total() - 70.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_fill_spills_evenly_past_all_knees() {
        let cost = lin_cost();
        let caps = [10.0; 2];
        let loads = [9.0; 2]; // knees at 9.0: zero headroom everywhere
        let a = greedy_fill(&cost, &caps, &loads, 4.0);
        assert!((a.shares[0] - 2.0).abs() < 1e-12);
        assert!((a.shares[1] - 2.0).abs() < 1e-12);
        // The marginal reflects the overload region.
        assert!(a.marginal > cost.z_prime(9.0, 10.0));
    }

    #[test]
    fn marginal_is_monotone_in_total() {
        let cost = nl_cost();
        let caps = [60.0; 5];
        let loads = [3.0, 9.0, 1.0, 4.0, 7.0];
        let mut last = 0.0;
        for i in 1..20 {
            let a = marginal_waterfill(&cost, &caps, &loads, i as f64 * 5.0);
            assert!(a.marginal >= last, "marginal must not decrease");
            last = a.marginal;
        }
    }

    #[test]
    #[should_panic(expected = "strictly convex")]
    fn marginal_waterfill_rejects_linear_cost() {
        let _ = marginal_waterfill(&lin_cost(), &[60.0], &[0.0], 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one section")]
    fn empty_loads_panic() {
        let _ = water_level(&[], 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_total_panics() {
        let _ = water_level(&[1.0], -1.0);
    }
}
