//! Charging-cost policies: the nonlinear pricing policy (the contribution),
//! the linear baseline, and the overload penalty.
//!
//! Section V.A of the paper instantiates the per-section power charging cost
//! as `V(x) = β (α + x/X̂)²` with `α = 0.875` and `β` set to the NYISO LBMP,
//! against a linear baseline `V(x) = β x`. The overload cost `A` penalizes
//! load beyond the safety knee `η·P_line` (Eq. 4); `Z = V + A` is the full
//! charging cost of Eq. 6.
//!
//! This module expresses `V` in *quantity-proportional* form so that the unit
//! price (`$ per MWh`) of the linear baseline equals `β` exactly, as in
//! Fig. 5(a): `V(x) = β̃ · (P/2) · (α + x/P)²` with `P` the section's line
//! capacity and `β̃ = β/1000` ($ per kWh when β is an LBMP in $/MWh). Its
//! marginal is `V'(x) = β̃ (α + x/P)` — a unit price that grows linearly with
//! the congestion degree `x/P`, precisely the disincentive the paper
//! designs.

/// A per-section power charging cost `V`.
pub trait CostPolicy {
    /// `V(x)` for section load `x ≥ 0` (kW), given the section's capacity
    /// scale `P_line` (kW) that normalizes the congestion degree.
    fn cost(&self, x: f64, scale: f64) -> f64;

    /// `V'(x)`, the marginal cost.
    fn marginal(&self, x: f64, scale: f64) -> f64;

    /// Whether `V` is strictly convex (required by Lemma IV.1's
    /// water-filling schedule; the linear baseline is not).
    fn is_strictly_convex(&self) -> bool;

    /// A short name for reports.
    fn name(&self) -> &str;
}

/// The paper's nonlinear pricing policy, `V(x) = β̃ (P/2) (α + x/P)²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonlinearPricing {
    /// Profit-margin shape parameter (paper: 0.875).
    pub alpha: f64,
    /// Price scale in $ per kWh (an LBMP in $/MWh divided by 1000).
    pub beta: f64,
}

impl NonlinearPricing {
    /// The paper's instantiation: `α = 0.875`, `β` equal to the LBMP.
    ///
    /// # Panics
    ///
    /// Panics if `lbmp_dollars_per_mwh` is not strictly positive and finite.
    #[must_use]
    pub fn paper_default(lbmp_dollars_per_mwh: f64) -> Self {
        assert!(
            lbmp_dollars_per_mwh > 0.0 && lbmp_dollars_per_mwh.is_finite(),
            "LBMP must be positive"
        );
        Self {
            alpha: 0.875,
            beta: lbmp_dollars_per_mwh / 1000.0,
        }
    }
}

impl CostPolicy for NonlinearPricing {
    fn cost(&self, x: f64, scale: f64) -> f64 {
        let r = self.alpha + x / scale;
        self.beta * (scale / 2.0) * r * r
    }

    fn marginal(&self, x: f64, scale: f64) -> f64 {
        self.beta * (self.alpha + x / scale)
    }

    fn is_strictly_convex(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "nonlinear"
    }
}

/// The linear baseline of Section V: `V(x) = β̃ x` — a congestion-blind flat
/// unit price.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearPricing {
    /// Price scale in $ per kWh (an LBMP in $/MWh divided by 1000).
    pub beta: f64,
}

impl LinearPricing {
    /// The baseline with `β` equal to the LBMP.
    ///
    /// # Panics
    ///
    /// Panics if `lbmp_dollars_per_mwh` is not strictly positive and finite.
    #[must_use]
    pub fn paper_default(lbmp_dollars_per_mwh: f64) -> Self {
        assert!(
            lbmp_dollars_per_mwh > 0.0 && lbmp_dollars_per_mwh.is_finite(),
            "LBMP must be positive"
        );
        Self {
            beta: lbmp_dollars_per_mwh / 1000.0,
        }
    }
}

impl CostPolicy for LinearPricing {
    fn cost(&self, x: f64, _scale: f64) -> f64 {
        self.beta * x
    }

    fn marginal(&self, _x: f64, _scale: f64) -> f64 {
        self.beta
    }

    fn is_strictly_convex(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "linear"
    }
}

/// Either pricing policy, as a configuration value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PricingPolicy {
    /// The paper's nonlinear policy.
    Nonlinear(NonlinearPricing),
    /// The linear baseline.
    Linear(LinearPricing),
}

impl CostPolicy for PricingPolicy {
    fn cost(&self, x: f64, scale: f64) -> f64 {
        match self {
            Self::Nonlinear(p) => p.cost(x, scale),
            Self::Linear(p) => p.cost(x, scale),
        }
    }

    fn marginal(&self, x: f64, scale: f64) -> f64 {
        match self {
            Self::Nonlinear(p) => p.marginal(x, scale),
            Self::Linear(p) => p.marginal(x, scale),
        }
    }

    fn is_strictly_convex(&self) -> bool {
        match self {
            Self::Nonlinear(p) => p.is_strictly_convex(),
            Self::Linear(p) => p.is_strictly_convex(),
        }
    }

    fn name(&self) -> &str {
        match self {
            Self::Nonlinear(p) => p.name(),
            Self::Linear(p) => p.name(),
        }
    }
}

/// The overload cost `A(y) = κ · ([y]⁺)²` applied beyond the knee (Eq. 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadPenalty {
    /// Penalty stiffness κ ($ per kWh per kW of overload).
    pub kappa: f64,
}

impl OverloadPenalty {
    /// Creates a penalty.
    ///
    /// # Panics
    ///
    /// Panics if `kappa` is negative or non-finite.
    #[must_use]
    pub fn new(kappa: f64) -> Self {
        assert!(
            kappa >= 0.0 && kappa.is_finite(),
            "kappa must be non-negative"
        );
        Self { kappa }
    }

    /// `A(x − knee)`.
    #[must_use]
    pub fn cost(&self, x: f64, knee: f64) -> f64 {
        let y = (x - knee).max(0.0);
        self.kappa * y * y
    }

    /// `A'(x − knee)`.
    #[must_use]
    pub fn marginal(&self, x: f64, knee: f64) -> f64 {
        2.0 * self.kappa * (x - knee).max(0.0)
    }
}

/// The full per-section charging cost `Z(x) = V(x) + A(x − η·P_line)`
/// (Eq. 6), bound to a section's capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SectionCost {
    /// The pricing policy `V`.
    pub policy: PricingPolicy,
    /// The overload penalty `A`.
    pub overload: OverloadPenalty,
    /// Safety factor `η ∈ (0, 1]` of Eq. 4.
    pub eta: f64,
}

impl SectionCost {
    /// Creates the combined cost.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is outside `(0, 1]`.
    #[must_use]
    pub fn new(policy: PricingPolicy, overload: OverloadPenalty, eta: f64) -> Self {
        assert!(eta > 0.0 && eta <= 1.0, "eta must be in (0, 1]");
        Self {
            policy,
            overload,
            eta,
        }
    }

    /// The knee `η·P_line` for a section of capacity `cap` (kW).
    #[must_use]
    pub fn knee(&self, cap: f64) -> f64 {
        self.eta * cap
    }

    /// `Z(x)` for a section of capacity `cap`.
    ///
    /// The pricing term normalizes by the full line capacity (`x/P_line` is
    /// the congestion degree the paper prices on); the overload term kicks
    /// in at the safety knee `η·P_line`.
    #[must_use]
    pub fn z(&self, x: f64, cap: f64) -> f64 {
        self.policy.cost(x, cap) + self.overload.cost(x, self.knee(cap))
    }

    /// `Z'(x)` for a section of capacity `cap`.
    #[must_use]
    pub fn z_prime(&self, x: f64, cap: f64) -> f64 {
        self.policy.marginal(x, cap) + self.overload.marginal(x, self.knee(cap))
    }

    /// Whether `Z` supports the water-filling schedule (strictly convex `V`).
    #[must_use]
    pub fn supports_waterfilling(&self) -> bool {
        self.policy.is_strictly_convex()
    }

    /// The slopes of `Z'` for a section of capacity `cap`: `Z''` below the
    /// knee and past it.
    ///
    /// `Z'` is piecewise linear for the nonlinear policy plus quadratic
    /// overload — `β̃/P` below the knee, `β̃/P + 2κ` past it — which is what
    /// lets the water-filling scheduler sweep its breakpoints exactly. The
    /// linear baseline has a flat `Z'` below the knee and returns `None`
    /// (the degeneracy that rules out water-filling).
    #[must_use]
    pub fn z_prime_slopes(&self, cap: f64) -> Option<(f64, f64)> {
        match &self.policy {
            PricingPolicy::Nonlinear(p) => {
                let below = p.beta / cap;
                Some((below, below + 2.0 * self.overload.kappa))
            }
            PricingPolicy::Linear(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nl() -> NonlinearPricing {
        NonlinearPricing::paper_default(15.0)
    }

    #[test]
    fn nonlinear_marginal_is_derivative_of_cost() {
        let p = nl();
        let h = 1e-6;
        for x in [0.0, 10.0, 54.0, 80.0] {
            let fd = (p.cost(x + h, 54.0) - p.cost((x - h).max(0.0), 54.0))
                / (if x == 0.0 { h } else { 2.0 * h });
            assert!((p.marginal(x, 54.0) - fd).abs() < 1e-6, "at {x}");
        }
    }

    #[test]
    fn nonlinear_unit_price_rises_with_congestion() {
        let p = nl();
        let knee = 54.0;
        let at = |frac: f64| p.marginal(frac * knee, knee) * 1000.0;
        // β(α + x̂): ≈ 14.6 $/MWh at 10% congestion, ≈ 26.6 at 90%.
        assert!((at(0.1) - 15.0 * 0.975).abs() < 1e-9);
        assert!((at(0.9) - 15.0 * 1.775).abs() < 1e-9);
        assert!(at(0.9) > at(0.5) && at(0.5) > at(0.1));
    }

    #[test]
    fn linear_unit_price_is_flat_at_beta() {
        let p = LinearPricing::paper_default(15.0);
        for x in [1.0, 20.0, 54.0] {
            assert!((p.marginal(x, 54.0) * 1000.0 - 15.0).abs() < 1e-12);
        }
        assert!(!p.is_strictly_convex());
    }

    #[test]
    fn nonlinear_crosses_linear_early() {
        // β(α + x̂) = β at x̂ = 1 − α = 0.125: below that congestion the
        // nonlinear policy is cheaper, above it costlier — the crossover of
        // Fig. 5(a).
        let n = nl();
        let l = LinearPricing::paper_default(15.0);
        let knee = 54.0;
        assert!(n.marginal(0.05 * knee, knee) < l.marginal(0.05 * knee, knee));
        assert!(n.marginal(0.30 * knee, knee) > l.marginal(0.30 * knee, knee));
    }

    #[test]
    fn overload_only_beyond_knee() {
        let a = OverloadPenalty::new(0.5);
        assert_eq!(a.cost(40.0, 54.0), 0.0);
        assert_eq!(a.marginal(40.0, 54.0), 0.0);
        assert!(a.cost(60.0, 54.0) > 0.0);
        assert!((a.marginal(60.0, 54.0) - 2.0 * 0.5 * 6.0).abs() < 1e-12);
    }

    #[test]
    fn section_cost_combines_and_is_convex() {
        let z = SectionCost::new(
            PricingPolicy::Nonlinear(nl()),
            OverloadPenalty::new(0.15),
            0.9,
        );
        let cap = 60.0;
        assert_eq!(z.knee(cap), 54.0);
        // Z' strictly increasing over the whole range (incl. past the knee).
        let mut last = z.z_prime(0.0, cap);
        for i in 1..200 {
            let x = i as f64 * 0.5;
            let m = z.z_prime(x, cap);
            assert!(m > last, "Z' not increasing at {x}");
            last = m;
        }
        assert!(z.supports_waterfilling());
    }

    #[test]
    fn z_prime_slopes_match_finite_differences() {
        let z = SectionCost::new(
            PricingPolicy::Nonlinear(nl()),
            OverloadPenalty::new(0.15),
            0.9,
        );
        let (below, past) = z.z_prime_slopes(60.0).unwrap();
        let h = 1e-3;
        assert!(((z.z_prime(20.0 + h, 60.0) - z.z_prime(20.0, 60.0)) / h - below).abs() < 1e-9);
        assert!(((z.z_prime(70.0 + h, 60.0) - z.z_prime(70.0, 60.0)) / h - past).abs() < 1e-9);
    }

    #[test]
    fn linear_section_cost_rejects_waterfilling() {
        let z = SectionCost::new(
            PricingPolicy::Linear(LinearPricing::paper_default(15.0)),
            OverloadPenalty::new(0.15),
            0.9,
        );
        assert!(!z.supports_waterfilling());
        assert_eq!(z.z_prime_slopes(60.0), None);
    }

    #[test]
    fn cost_offsets_cancel_in_increments() {
        // V(0) > 0 for the nonlinear policy, but payments are increments of
        // Z, so the offset never reaches an OLEV.
        let z = SectionCost::new(
            PricingPolicy::Nonlinear(nl()),
            OverloadPenalty::new(0.1),
            0.9,
        );
        let increment = z.z(10.0, 60.0) - z.z(10.0, 60.0);
        assert_eq!(increment, 0.0);
        assert!(z.z(0.0, 60.0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "eta must be in")]
    fn eta_out_of_range_panics() {
        let _ = SectionCost::new(
            PricingPolicy::Nonlinear(nl()),
            OverloadPenalty::new(0.1),
            1.5,
        );
    }

    #[test]
    #[should_panic(expected = "LBMP must be positive")]
    fn negative_lbmp_panics() {
        let _ = NonlinearPricing::paper_default(-3.0);
    }
}
