//! Telemetry overhead gate: the aggregator must stay cheap on the hot loop.
//!
//! The [`AggregatingRecorder`] is designed to sit inside a live service
//! permanently — sharded atomic counters, fixed-bucket histograms, no
//! allocation per event — so turning it on must not meaningfully slow the
//! engine. This bench pins that claim: it times a production-size C = 100,
//! N = 20 engine corridor with a [`NoopRecorder`] and with a live
//! aggregator, *interleaved* (noop, aggregating, noop, …) so drift in CPU
//! frequency or background load hits both sides equally, takes the best
//! trial of each, and reports the fractional overhead.
//!
//! The `telemetry` binary writes the result as
//! `BENCH_telemetry_overhead.json`; with `--check` it fails the job when
//! the overhead exceeds [`OVERHEAD_LIMIT`]. The committed reference lives
//! at `crates/bench/baselines/telemetry_overhead.json`.

use std::sync::Arc;
use std::time::Instant;

use oes_game::{GameBuilder, NonlinearPricing, PricingPolicy, UpdateOrder};
use oes_telemetry::{AggregatingRecorder, NoopRecorder, Telemetry};
use oes_units::Kilowatts;

use crate::scenarios::{olev_p_max_kw, section_capacity_kw};

/// Maximum fractional overhead (`aggregating/noop − 1`) the `--check` gate
/// tolerates on the engine hot loop.
pub const OVERHEAD_LIMIT: f64 = 0.05;

/// Best-response updates per timed trial.
pub const TRIAL_UPDATES: usize = 4_000;

/// One measured overhead comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadPoint {
    /// Interleaved trials per recorder.
    pub trials: usize,
    /// Best-response updates per trial.
    pub updates: usize,
    /// Best (minimum) trial time with the noop recorder, nanoseconds.
    pub noop_ns: u64,
    /// Best (minimum) trial time with a live aggregator, nanoseconds.
    pub aggregating_ns: u64,
    /// `aggregating_ns / noop_ns − 1` (negative = within noise).
    pub overhead_frac: f64,
}

impl OverheadPoint {
    /// Serializes the point as the `BENCH_telemetry_overhead.json` body.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bench\":\"telemetry_overhead\",\"trials\":{},\"updates\":{},\
             \"noop_ns\":{},\"aggregating_ns\":{},\"overhead_frac\":{:.6}}}\n",
            self.trials, self.updates, self.noop_ns, self.aggregating_ns, self.overhead_frac
        )
    }
}

fn timed_run(updates: usize, telemetry: &Telemetry) -> u64 {
    let mut game = GameBuilder::new()
        .sections(100, Kilowatts::new(section_capacity_kw(60.0)))
        .olevs(20, Kilowatts::new(olev_p_max_kw()))
        .pricing(PricingPolicy::Nonlinear(NonlinearPricing::paper_default(
            15.0,
        )))
        .eta(0.9)
        .build()
        .expect("scenario parameters are valid");
    let start = Instant::now();
    let out = game
        .run_with(UpdateOrder::RoundRobin, updates, telemetry)
        .expect("valid game");
    let elapsed = start.elapsed().as_nanos() as u64;
    assert!(out.updates() > 0, "the timed run must do real work");
    elapsed
}

/// Measures the aggregator's fractional overhead over `trials` interleaved
/// trials of [`TRIAL_UPDATES`] engine updates each, best-of on both sides.
#[must_use]
pub fn measure_overhead(trials: usize, updates: usize) -> OverheadPoint {
    let noop = Telemetry::new(Arc::new(NoopRecorder));
    let aggregator = Arc::new(AggregatingRecorder::new(8));
    let aggregating = Telemetry::new(aggregator);
    // Warm both paths once so neither side pays first-touch costs.
    timed_run(updates.min(200), &noop);
    timed_run(updates.min(200), &aggregating);
    let mut best_noop = u64::MAX;
    let mut best_aggregating = u64::MAX;
    for _ in 0..trials.max(1) {
        best_noop = best_noop.min(timed_run(updates, &noop));
        best_aggregating = best_aggregating.min(timed_run(updates, &aggregating));
    }
    OverheadPoint {
        trials: trials.max(1),
        updates,
        noop_ns: best_noop,
        aggregating_ns: best_aggregating,
        overhead_frac: best_aggregating as f64 / best_noop.max(1) as f64 - 1.0,
    }
}

/// Extracts `"overhead_frac"` from an artifact or baseline document.
#[must_use]
pub fn parse_overhead_frac(json: &str) -> Option<f64> {
    let tail = json.split("\"overhead_frac\":").nth(1)?;
    let value: String = tail
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    value.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_parses() {
        let point = OverheadPoint {
            trials: 5,
            updates: 4_000,
            noop_ns: 1_000_000,
            aggregating_ns: 1_020_000,
            overhead_frac: 0.02,
        };
        let json = point.to_json();
        assert!(json.starts_with("{\"bench\":\"telemetry_overhead\""));
        assert_eq!(parse_overhead_frac(&json), Some(0.02));
        assert_eq!(parse_overhead_frac("{}"), None);
    }

    #[test]
    fn tiny_measurement_produces_sane_numbers() {
        // One short trial — correctness of the harness, not a perf claim
        // (the real gate runs in release mode from the binary).
        let point = measure_overhead(1, 50);
        assert_eq!(point.trials, 1);
        assert!(point.noop_ns > 0);
        assert!(point.aggregating_ns > 0);
        assert!(point.overhead_frac > -1.0);
    }
}
