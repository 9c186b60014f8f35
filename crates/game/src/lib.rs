//! The paper's core contribution: a game-theory-based nonlinear pricing
//! policy for opportunistic energy sharing between the smart grid and OLEVs.
//!
//! The smart grid owns `C` road-embedded charging sections; `N` OLEVs want
//! power. Each OLEV `n` has a private, strictly concave
//! [satisfaction](satisfaction::Satisfaction) `U_n` and a capacity bound
//! `P_OLEV` (Eq. 2). Each section has a strictly convex
//! [charging cost](pricing) `Z = V + A` (pricing plus overload penalty). The
//! grid wants to maximize the social welfare
//!
//! ```text
//! W(p) = Σ_n U_n(p_n) − Σ_c Z(P_c)          (Eq. 7)
//! ```
//!
//! without learning any `U_n`. The mechanism (Section IV):
//!
//! 1. Given the others' schedules, the grid serves a request `p_n` with the
//!    cost-minimizing [water-filling schedule](mod@waterfill) of Lemma IV.1
//!    (`p_{n,c} = [λ* − P_{-n,c}]⁺`, λ* exact from a breakpoint sweep) and
//!    bills the *incremental* cost ([`payment`], Eqs. 8–16).
//! 2. Each OLEV plays its [best response](mod@best_response) (Lemma IV.3) to the
//!    posted payment function.
//! 3. The [asynchronous engine](engine) iterates 1–2; because payments equal
//!    increments of `W`, the game is an *exact potential game*
//!    ([`potential`]) and the dynamics converge to the welfare maximizer
//!    (Theorem IV.1). The [centralized solver](centralized) provides an
//!    independent ground truth, [`distributed`] runs the same protocol
//!    across real threads exchanging V2I-style messages, and [`parallel`]
//!    exploits the same bounded-staleness license in-process: seeded,
//!    sharded best-response sweeps that stay bit-deterministic at any
//!    thread count.
//!
//! The [linear pricing baseline](pricing::LinearPricing) of Section V is
//! included: its cost is not strictly convex, the cost-minimizing schedule
//! degenerates, and the grid falls back to [greedy
//! filling](waterfill::greedy_fill) — which is what breaks load balancing in
//! the paper's Figs. 5(c)/6(c).
//!
//! # Examples
//!
//! ```
//! use oes_game::{GameBuilder, NonlinearPricing, PricingPolicy, UpdateOrder};
//! use oes_units::Kilowatts;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut game = GameBuilder::new()
//!     .sections(10, Kilowatts::new(60.0))
//!     .olevs(5, Kilowatts::new(40.0))
//!     .pricing(PricingPolicy::Nonlinear(NonlinearPricing::paper_default(15.0)))
//!     .build()?;
//! let outcome = game.run(UpdateOrder::RoundRobin, 500)?;
//! assert!(outcome.converged());
//! // The equilibrium schedule is load-balanced across sections.
//! let loads = game.section_loads();
//! let spread = loads.iter().fold(0.0f64, |m, &l| m.max(l)) -
//!     loads.iter().fold(f64::INFINITY, |m, &l| m.min(l));
//! assert!(spread < 1e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod best_response;
pub mod builder;
pub mod centralized;
pub mod distributed;
pub mod dynamics;
pub mod engine;
pub mod error;
pub mod fairness;
pub mod faults;
pub mod meanfield;
pub mod parallel;
pub mod payment;
pub mod potential;
pub mod pricing;
pub mod revenue;
pub mod routing;
pub mod satisfaction;
pub mod schedule;
pub mod session;
pub mod state;
pub mod waterfill;

pub use analysis::{compare_regimes, ComparisonScenario, RegimeOutcome, WelfareComparison};
pub use best_response::best_response;
pub use builder::{GameBuilder, WarmStart};
pub use centralized::{solve_centralized, CentralizedSolution};
pub use distributed::DistributedGame;
pub use dynamics::{uniform_fleet, RoundOutcome, SocCoupledGame};
pub use engine::{Game, Outcome, Snapshot, UpdateOrder};
pub use error::GameError;
pub use fairness::{fairness_report, fairness_report_with, jain_index, FairnessReport};
pub use faults::{DegradationReport, Eviction, EvictionReason, FaultPlan, LinkVerdict, LossyLink};
pub use meanfield::{solve_mean_field, solve_mean_field_with, MeanFieldSolution, MeanFieldType};
pub use parallel::{ApplyMode, ParallelConfig};
pub use payment::{payment_for_schedule, quote, PaymentQuote, Scheduler};
pub use pricing::{
    CostPolicy, LinearPricing, NonlinearPricing, OverloadPenalty, PricingPolicy, SectionCost,
};
pub use revenue::{revenue_report, RevenueReport};
pub use routing::{RouteChoice, RouteOption, RoutingEconomics, RoutingEquilibrium};
pub use satisfaction::{LogSatisfaction, Satisfaction, SqrtSatisfaction};
pub use schedule::PowerSchedule;
pub use session::{
    OutboundOffer, ReplyDisposition, SessionConfig, SessionCoordinator, MAX_STRIKES,
};
pub use state::ScheduleState;
pub use waterfill::{greedy_fill, water_level, waterfill, Allocation};
