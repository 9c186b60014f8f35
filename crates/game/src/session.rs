//! A sans-IO session coordinator: the grid side of the offer/response
//! protocol, detached from any transport and from any clock.
//!
//! This is the workspace's one offer/deadline/eviction coordinator:
//! round-robin offer dispatch, sequence numbering, duplicate/stale discard,
//! reply validation and clamping, per-offer deadlines with bounded retries,
//! graceful eviction into the [`DegradationReport`], and the convergence
//! quorum — a pure state machine that consumes protocol events and emits
//! frames to send. The caller owns the wire and the time: every call takes
//! `now_us` on whatever clock the caller keeps.
//!
//! Two callers drive it. `oes-service` runs it over sockets with fault
//! *reality* and a service clock. [`crate::DistributedGame`] runs it over
//! in-process channels with fault *injection* and a virtual clock: it
//! expires, at its deadline, every transmission its own fault plan makes
//! futile, and otherwise only waits for replies. Driven by a clean, ordered
//! transport with one outstanding offer (`window = 1`), both perform the
//! same sequence of schedule applies — the same offers in the same order,
//! the same water-filling allocations, the same [`Snapshot`] trajectory,
//! the same convergence test — which the workspace chaos suites pin.

use std::collections::{BTreeMap, HashSet};
use std::time::Duration;

use oes_telemetry::{Telemetry, TraceId, TraceIdGen};
use oes_units::{Kilowatts, OlevId};
use oes_wpt::v2i::{GridMessage, OlevMessage, V2iFrame};

use crate::engine::{Game, Outcome, Snapshot};
use crate::error::GameError;
use crate::faults::{evict_row, DegradationReport, Eviction, EvictionReason};
use crate::payment::Scheduler;
use crate::pricing::SectionCost;
use crate::satisfaction::Satisfaction;
use crate::state::ScheduleState;

/// Invalid replies against one logical offer — or malformed frames from one
/// session — before it is evicted as misbehaving.
pub const MAX_STRIKES: u32 = 4;

/// The telemetry names a [`SessionCoordinator`] emits under. `None` skips
/// the event.
#[derive(Debug)]
pub(crate) struct Names {
    offer: &'static str,
    retry: &'static str,
    timeout: &'static str,
    evicted: &'static str,
    duplicate: &'static str,
    stale: &'static str,
    invalid_reply: &'static str,
    clamped_reply: &'static str,
    accepted: Option<&'static str>,
    latency: Option<&'static str>,
    /// A span around each accepted reply's schedule apply.
    apply: Option<&'static str>,
}

/// The `service.*` names `oes-service` journals.
const SERVICE_NAMES: Names = Names {
    offer: "service.offer",
    retry: "service.retry",
    timeout: "service.timeout",
    evicted: "service.evicted",
    duplicate: "service.duplicate",
    stale: "service.stale",
    invalid_reply: "service.invalid_reply",
    clamped_reply: "service.clamped_reply",
    accepted: Some("service.accepted"),
    latency: Some("service.latency"),
    apply: None,
};

/// The `net.*` names (and `grid.apply` span) the thread-per-OLEV runtime
/// journals.
pub(crate) const NET_NAMES: Names = Names {
    offer: "net.offer",
    retry: "net.retry",
    timeout: "net.timeout",
    evicted: "net.eviction",
    duplicate: "net.duplicate",
    stale: "net.stale",
    invalid_reply: "net.invalid_reply",
    clamped_reply: "net.clamped_reply",
    accepted: None,
    latency: None,
    apply: Some("grid.apply"),
};

/// Knobs of a [`SessionCoordinator`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Offers kept outstanding at once (1 = fully synchronous; the
    /// bit-identity contract with [`crate::DistributedGame`] holds at 1).
    pub window: usize,
    /// Base per-offer deadline; doubled per retry, capped at 32×.
    pub offer_timeout: Duration,
    /// Retransmissions of one logical offer before the session is evicted
    /// as unresponsive.
    pub retry_budget: u32,
    /// Best-response updates to run before stopping.
    pub max_updates: usize,
    /// Seed for the offer-lifecycle trace-id stream. Zero (the default)
    /// disables tracing entirely: frames carry trace 0 and journals stay
    /// byte-identical to the pre-trace format. Same seed ⇒ same trace tree.
    pub trace_seed: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            window: 1,
            offer_timeout: Duration::from_millis(250),
            retry_budget: 6,
            max_updates: 10_000,
            trace_seed: 0,
        }
    }
}

/// One offer transmission the caller should put on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct OutboundOffer {
    /// The addressed session / OLEV index.
    pub olev: usize,
    /// The transmission's sequence number (a retry gets a fresh one).
    pub seq: u64,
    /// Which retransmission of the logical offer this is (0 = first).
    pub attempt: u32,
    /// The causal trace of the logical offer — retries share it, and the
    /// reply (plus the closing `PaymentUpdate`) echo it.
    pub trace: TraceId,
    /// The payment-function offer frame.
    pub frame: V2iFrame<GridMessage>,
    /// Absolute expiry on the coordinator clock, microseconds.
    pub deadline_us: u64,
    /// The relative time budget the receiver is granted, microseconds —
    /// propagated so the client can refuse to answer a dead offer.
    pub budget_us: u64,
}

/// What [`SessionCoordinator::on_message`] did with an inbound frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyDisposition {
    /// The reply was accepted and applied to the schedule.
    Applied,
    /// The reply duplicated an already-applied sequence number.
    Duplicate,
    /// The reply answered an abandoned or unknown offer.
    Stale,
    /// The reply failed validation (strike issued, offer retried or the
    /// session evicted).
    Invalid {
        /// The session whose offer the reply answered.
        olev: usize,
        /// What was wrong with the reply.
        reason: String,
    },
    /// A `Hello` or `Goodbye` was tallied.
    Housekeeping,
}

/// The grid coordinator as a transport-free state machine.
///
/// Drive it with three inputs — [`pump`](Self::pump) for fresh offers,
/// [`on_message`](Self::on_message) for inbound frames,
/// [`expire`](Self::expire) for deadline sweeps — and it yields the frames
/// to transmit plus the same [`Outcome`] bookkeeping as the in-process
/// engines.
pub struct SessionCoordinator<'g> {
    cost: SectionCost,
    scheduler: Scheduler,
    caps: Vec<f64>,
    p_max: Vec<f64>,
    tolerance: f64,
    satisfactions: &'g [Box<dyn Satisfaction>],
    state: &'g mut ScheduleState,
    config: SessionConfig,
    telemetry: Telemetry,
    names: &'static Names,
    trace_gen: TraceIdGen,
    scratch_loads: Vec<f64>,

    alive: Vec<bool>,
    live: usize,
    last_evicted: usize,
    strikes: Vec<u32>,
    pending: BTreeMap<u64, PendingOffer>,
    abandoned: HashSet<u64>,
    accepted: HashSet<u64>,
    next_seq: u64,
    cursor: usize,
    issued: usize,
    updates: usize,
    calm_streak: usize,
    converged: bool,
    draining: bool,
    trajectory: Vec<Snapshot>,
    report: DegradationReport,
}

impl std::fmt::Debug for SessionCoordinator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCoordinator")
            .field("live", &self.live)
            .field("issued", &self.issued)
            .field("updates", &self.updates)
            .field("pending", &self.pending.len())
            .field("converged", &self.converged)
            .field("draining", &self.draining)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct PendingOffer {
    olev: usize,
    attempt: u32,
    invalids: u32,
    trace: TraceId,
    sent_at_us: u64,
    deadline_us: u64,
}

impl<'g> SessionCoordinator<'g> {
    /// Wraps a game's schedule state for session-driven execution. One
    /// session per OLEV, all initially alive and detached from any wire.
    pub fn new(game: &'g mut Game, config: SessionConfig, telemetry: Telemetry) -> Self {
        let n = game.olev_count();
        let sections = game.section_count();
        Self {
            cost: game.cost,
            scheduler: game.scheduler,
            caps: game.caps.clone(),
            p_max: game.p_max.clone(),
            tolerance: game.tolerance,
            satisfactions: &game.satisfactions,
            state: &mut game.state,
            trace_gen: TraceIdGen::new(config.trace_seed),
            config,
            telemetry,
            names: &SERVICE_NAMES,
            scratch_loads: Vec::with_capacity(sections),
            alive: vec![true; n],
            live: n,
            last_evicted: 0,
            strikes: vec![0; n],
            pending: BTreeMap::new(),
            abandoned: HashSet::new(),
            accepted: HashSet::new(),
            next_seq: 1,
            cursor: 0,
            issued: 0,
            updates: 0,
            calm_streak: 0,
            converged: false,
            draining: false,
            trajectory: Vec::new(),
            report: DegradationReport::default(),
        }
    }

    /// Emits telemetry under `names` instead of the `service.*` defaults.
    pub(crate) fn with_names(mut self, names: &'static Names) -> Self {
        self.names = names;
        self
    }

    /// The vehicles' satisfaction functions, borrowed for the game's
    /// lifetime (a driver hands them to its workers).
    pub(crate) fn satisfactions(&self) -> &'g [Box<dyn Satisfaction>] {
        self.satisfactions
    }

    /// Sessions still in the game.
    #[must_use]
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether session `olev` is still in the game.
    #[must_use]
    pub fn alive(&self, olev: usize) -> bool {
        self.alive.get(olev).copied().unwrap_or(false)
    }

    /// Whether the convergence test has passed.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Best-response updates applied so far.
    #[must_use]
    pub fn updates(&self) -> usize {
        self.updates
    }

    /// Offers currently outstanding.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// The accounting so far.
    #[must_use]
    pub fn report(&self) -> &DegradationReport {
        &self.report
    }

    /// The accounting, for transport faults only the caller sees.
    pub(crate) fn report_mut(&mut self) -> &mut DegradationReport {
        &mut self.report
    }

    /// The snapshot of the latest applied update.
    pub(crate) fn last_snapshot(&self) -> Option<&Snapshot> {
        self.trajectory.last()
    }

    /// Whether the run is over: converged, out of update budget, or out of
    /// live sessions. Once true, [`pump`](Self::pump) issues nothing more.
    #[must_use]
    pub fn done(&self) -> bool {
        self.converged
            || self.live == 0
            || self.updates >= self.config.max_updates
            || (self.pending.is_empty() && self.issued >= self.config.max_updates)
    }

    /// Marks the run as draining: no new offers are issued, late goodbyes
    /// are tallied instead of treated as departures.
    pub fn drain(&mut self) {
        self.draining = true;
    }

    /// Abandons every outstanding offer, so its reply counts as stale.
    pub(crate) fn abandon_in_flight(&mut self) {
        self.abandoned
            .extend(std::mem::take(&mut self.pending).into_keys());
    }

    fn timeout_for(&self, attempt: u32) -> Duration {
        self.config.offer_timeout * 2u32.pow(attempt.min(5))
    }

    fn timeout_for_us(&self, attempt: u32) -> u64 {
        u64::try_from(self.timeout_for(attempt).as_micros()).unwrap_or(u64::MAX)
    }

    /// The next live session in round-robin order. Precondition: `live > 0`.
    fn next_live(&mut self) -> usize {
        while !self.alive[self.cursor] {
            self.cursor = (self.cursor + 1) % self.alive.len();
        }
        let pick = self.cursor;
        self.cursor = (self.cursor + 1) % self.alive.len();
        pick
    }

    fn make_offer(
        &mut self,
        olev: usize,
        attempt: u32,
        invalids: u32,
        trace: TraceId,
        now_us: u64,
    ) -> OutboundOffer {
        if attempt > 0 {
            self.report.retries += 1;
            self.telemetry
                .counter_traced(self.names.retry, olev as i64, trace, 1);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.state
            .loads_excluding_into(OlevId(olev), &mut self.scratch_loads);
        let loads_excl: Vec<Kilowatts> = self
            .scratch_loads
            .iter()
            .copied()
            .map(Kilowatts::new)
            .collect();
        let frame = V2iFrame::with_trace(
            seq,
            trace.0,
            GridMessage::PaymentFunction {
                id: OlevId(olev),
                loads_excl,
            },
        );
        self.report.offers_sent += 1;
        self.telemetry
            .counter_traced(self.names.offer, olev as i64, trace, 1);
        let budget_us = self.timeout_for_us(attempt);
        let deadline_us = now_us.saturating_add(budget_us);
        self.pending.insert(
            seq,
            PendingOffer {
                olev,
                attempt,
                invalids,
                trace,
                sent_at_us: now_us,
                deadline_us,
            },
        );
        OutboundOffer {
            olev,
            seq,
            attempt,
            trace,
            frame,
            deadline_us,
            budget_us,
        }
    }

    /// Fills the outstanding-offer window with fresh round-robin offers,
    /// appending the transmissions to `out`. No-op once the run is done or
    /// draining.
    pub fn pump(&mut self, now_us: u64, out: &mut Vec<OutboundOffer>) {
        if self.draining || self.done() {
            return;
        }
        let window = self.config.window.min(self.live).max(1);
        while self.pending.len() < window && self.issued < self.config.max_updates && self.live > 0
        {
            let olev = self.next_live();
            // A fresh logical offer starts a fresh causal trace; every
            // retry, reply, and the closing update inherit it.
            let trace = self.trace_gen.next_id();
            let offer = self.make_offer(olev, 0, 0, trace, now_us);
            self.issued += 1;
            out.push(offer);
        }
    }

    /// The earliest outstanding deadline, if any offer is in flight — the
    /// caller's wake-up hint.
    #[must_use]
    pub fn next_deadline_us(&self) -> Option<u64> {
        self.pending.values().map(|p| p.deadline_us).min()
    }

    /// Sweeps expired offers: each costs a timeout and is either retried
    /// (appended to `out`) or, past the retry budget, evicts its session.
    pub fn expire(&mut self, now_us: u64, out: &mut Vec<OutboundOffer>) {
        let expired: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.deadline_us <= now_us)
            .map(|(s, _)| *s)
            .collect();
        for seq in expired {
            self.expire_offer(seq, now_us, None, out);
        }
    }

    /// Expires the one offer `seq`, if still in flight: a timeout, then a
    /// retry appended to `out` — or, past the retry budget, an
    /// `Unresponsive` eviction. A `crash` payload evicts the session as
    /// crashed instead, since no retry can reach a dead peer.
    pub(crate) fn expire_offer(
        &mut self,
        seq: u64,
        now_us: u64,
        crash: Option<String>,
        out: &mut Vec<OutboundOffer>,
    ) {
        let Some(p) = self.pending.remove(&seq) else {
            return;
        };
        self.abandoned.insert(seq);
        self.report.timeouts += 1;
        self.telemetry
            .counter_traced(self.names.timeout, p.olev as i64, p.trace, 1);
        if !self.alive[p.olev] {
            return;
        }
        if let Some(msg) = crash {
            self.evict_traced(p.olev, EvictionReason::Crashed(msg), p.trace);
        } else if p.attempt >= self.config.retry_budget {
            self.evict_traced(p.olev, EvictionReason::Unresponsive, p.trace);
        } else {
            let offer = self.make_offer(p.olev, p.attempt + 1, p.invalids, p.trace, now_us);
            out.push(offer);
        }
    }

    /// Evicts a session: zeroes its schedule row, abandons its in-flight
    /// offers, and shrinks the convergence quorum. Idempotent.
    pub fn evict(&mut self, olev: usize, reason: EvictionReason) {
        self.evict_traced(olev, reason, TraceId::NONE);
    }

    /// [`evict`](Self::evict) attributed to the causal trace of the offer
    /// whose failure triggered it.
    pub fn evict_traced(&mut self, olev: usize, reason: EvictionReason, trace: TraceId) {
        if olev >= self.alive.len() || !self.alive[olev] {
            return;
        }
        self.alive[olev] = false;
        self.live -= 1;
        self.last_evicted = olev;
        let in_flight: Vec<u64> = self
            .pending
            .iter()
            .filter(|(_, p)| p.olev == olev)
            .map(|(s, _)| *s)
            .collect();
        for seq in in_flight {
            self.pending.remove(&seq);
            self.abandoned.insert(seq);
        }
        self.calm_streak = 0;
        self.telemetry
            .counter_traced(self.names.evicted, olev as i64, trace, 1);
        evict_row(
            self.state,
            self.satisfactions,
            &self.cost,
            &self.caps,
            &mut self.report,
            Eviction {
                olev,
                at_update: self.updates,
                reason,
            },
        );
    }

    /// Issues a strike against a session that sent garbage the framing or
    /// codec layer rejected; [`MAX_STRIKES`] strikes evict it as
    /// misbehaving. Frame-level damage is indistinguishable from an invalid
    /// reply at the protocol level, so it shares the counter.
    pub fn strike_malformed(&mut self, olev: usize) {
        if olev >= self.alive.len() || !self.alive[olev] {
            return;
        }
        self.report.invalid_replies += 1;
        self.telemetry.counter("service.malformed", olev as i64, 1);
        self.strikes[olev] += 1;
        if self.strikes[olev] >= MAX_STRIKES {
            self.evict(olev, EvictionReason::Misbehaving);
        }
    }

    fn validate(total: f64) -> Result<(), String> {
        if !total.is_finite() {
            return Err(format!("total {total} is not finite"));
        }
        if total < 0.0 {
            return Err(format!("total {total} is negative"));
        }
        Ok(())
    }

    /// Applies an accepted best response exactly as the in-process engines
    /// do, and returns the `PaymentUpdate` to close the loop with.
    fn apply(
        &mut self,
        olev: usize,
        seq: u64,
        trace: TraceId,
        total: f64,
    ) -> V2iFrame<GridMessage> {
        let span = self
            .names
            .apply
            .map(|name| self.telemetry.span(name, olev as i64));
        let id = OlevId(olev);
        self.state.loads_excluding_into(id, &mut self.scratch_loads);
        let allocation =
            self.scheduler
                .allocate(&self.cost, &self.caps, &self.scratch_loads, total);
        let before = self.state.schedule().olev_total(id);
        self.state.apply_row(
            id,
            &allocation.shares,
            self.satisfactions,
            &self.cost,
            &self.caps,
        );
        let change = (total - before).abs();
        self.updates += 1;
        let snapshot = Snapshot {
            update: self.updates,
            congestion: self.state.schedule().system_congestion(&self.caps),
            welfare: self.state.welfare(),
            change,
        };
        drop(span);
        self.trajectory.push(snapshot);
        if change < self.tolerance {
            self.calm_streak += 1;
        } else {
            self.calm_streak = 0;
        }
        let extra = if self.config.window == 1 {
            0
        } else {
            self.config.window
        };
        if self.calm_streak >= self.live + extra {
            self.converged = true;
        }
        let allocated = Kilowatts::new(self.state.schedule().olev_total(id));
        V2iFrame::with_trace(
            seq,
            trace.0,
            GridMessage::PaymentUpdate {
                id,
                marginal_price: allocation.marginal,
                allocated,
            },
        )
    }

    /// Consumes one inbound frame. An accepted `PowerRequest` appends the
    /// closing `PaymentUpdate` for its session to `updates_out`; an invalid one
    /// appends the retry offer (or evicts). `Hello`/`Goodbye` are tallied —
    /// a mid-run `Goodbye` is a voluntary departure and evicts gracefully.
    pub fn on_message(
        &mut self,
        frame: V2iFrame<OlevMessage>,
        now_us: u64,
        out: &mut Vec<OutboundOffer>,
        updates_out: &mut Vec<(usize, V2iFrame<GridMessage>)>,
    ) -> ReplyDisposition {
        let (id, total) = match frame.payload {
            OlevMessage::Hello { .. } => {
                self.report.hellos += 1;
                return ReplyDisposition::Housekeeping;
            }
            OlevMessage::Goodbye { id } => {
                self.report.goodbyes += 1;
                if !self.draining && !self.done() {
                    self.evict(id.0, EvictionReason::Departed);
                }
                return ReplyDisposition::Housekeeping;
            }
            OlevMessage::PowerRequest { id, total } => (id, total.value()),
        };
        let seq = frame.seq;
        // Duplicates and stale replies have no pending entry; the frame's
        // echoed trace (if any) still attributes them to their lifecycle.
        let echoed = TraceId(frame.trace);
        if self.accepted.contains(&seq) {
            self.report.duplicates += 1;
            self.telemetry
                .counter_traced(self.names.duplicate, id.0 as i64, echoed, 1);
            return ReplyDisposition::Duplicate;
        }
        let Some(p) = self.pending.get(&seq) else {
            self.report.stale += 1;
            self.telemetry
                .counter_traced(self.names.stale, id.0 as i64, echoed, 1);
            return ReplyDisposition::Stale;
        };
        let (olev, attempt, invalids, trace, sent_at_us) =
            (p.olev, p.attempt, p.invalids, p.trace, p.sent_at_us);
        let fault = if id.0 != olev {
            Some(format!(
                "reply claims OLEV {} for OLEV {olev}'s offer",
                id.0
            ))
        } else {
            Self::validate(total).err()
        };
        if let Some(reason) = fault {
            self.pending.remove(&seq);
            self.abandoned.insert(seq);
            self.report.invalid_replies += 1;
            self.telemetry
                .counter_traced(self.names.invalid_reply, olev as i64, trace, 1);
            if invalids + 1 >= MAX_STRIKES {
                self.evict_traced(olev, EvictionReason::Misbehaving, trace);
            } else if attempt >= self.config.retry_budget {
                self.evict_traced(olev, EvictionReason::Unresponsive, trace);
            } else {
                let offer = self.make_offer(olev, attempt + 1, invalids + 1, trace, now_us);
                out.push(offer);
            }
            return ReplyDisposition::Invalid { olev, reason };
        }
        // Accept. Clamp an over-ask to the OLEV's physical bound P_OLEV.
        let bound = self.p_max[olev];
        let total = if total > bound {
            if total > bound + 1e-9 {
                self.report.clamped_replies += 1;
                self.telemetry
                    .counter_traced(self.names.clamped_reply, olev as i64, trace, 1);
            }
            bound
        } else {
            total
        };
        self.pending.remove(&seq);
        self.accepted.insert(seq);
        let update = self.apply(olev, seq, trace, total);
        if let Some(name) = self.names.accepted {
            self.telemetry.counter_traced(name, olev as i64, trace, 1);
        }
        if let Some(name) = self.names.latency {
            let latency_us = now_us.saturating_sub(sent_at_us) as f64;
            self.telemetry
                .histogram_traced(name, olev as i64, trace, latency_us);
        }
        updates_out.push((olev, update));
        ReplyDisposition::Applied
    }

    /// Finishes the run, handing the schedule state back to the game.
    ///
    /// # Errors
    ///
    /// [`GameError::OlevEvicted`] if every session was evicted — a game with
    /// no live players has no welfare to optimize. The error comes alone;
    /// callers needing the partial accounting should copy [`Self::report`]
    /// before finishing.
    pub fn finish(self) -> Result<Outcome, GameError> {
        if self.live == 0 {
            return Err(GameError::OlevEvicted(self.last_evicted));
        }
        Ok(Outcome {
            converged: self.converged,
            updates: self.updates,
            trajectory: self.trajectory,
            degradation: self.report,
            end_welfare: self.state.welfare(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GameBuilder;
    use crate::distributed::DistributedGame;

    fn build(sections: usize, olevs: usize) -> Game {
        GameBuilder::new()
            .sections(sections, Kilowatts::new(60.0))
            .olevs(olevs, Kilowatts::new(50.0))
            .build()
            .unwrap()
    }

    /// Drives the coordinator with a perfect in-process echo "network":
    /// every offer is answered immediately with the true best response.
    /// `oracle` is a structurally identical game supplying the vehicles'
    /// private satisfaction functions.
    fn run_echo(
        game: &mut Game,
        oracle: &Game,
        config: SessionConfig,
    ) -> Result<Outcome, GameError> {
        let n = game.olev_count();
        let cost = *game.cost();
        let caps = game.caps().to_vec();
        let p_max = game.p_max().to_vec();
        let scheduler = game.scheduler();
        let sats = oracle.satisfactions();
        let mut core = SessionCoordinator::new(game, config, Telemetry::disabled());
        // The paper's bring-up handshake.
        let mut offers = Vec::new();
        let mut updates = Vec::new();
        for olev in 0..n {
            let hello = OlevMessage::Hello {
                id: OlevId(olev),
                velocity: oes_units::MetersPerSecond::new(0.0),
                soc: oes_units::StateOfCharge::EMPTY,
                soc_required: oes_units::StateOfCharge::FULL,
            };
            core.on_message(V2iFrame::new(0, hello), 0, &mut offers, &mut updates);
        }
        while !core.done() {
            offers.clear();
            core.pump(0, &mut offers);
            if offers.is_empty() {
                break;
            }
            let round: Vec<OutboundOffer> = offers.drain(..).collect();
            for offer in round {
                let GridMessage::PaymentFunction { id, loads_excl } = &offer.frame.payload else {
                    panic!("offers carry payment functions");
                };
                let loads: Vec<f64> = loads_excl.iter().map(|kw| kw.value()).collect();
                let br = crate::best_response::best_response(
                    sats[id.0].as_ref(),
                    &cost,
                    &caps,
                    &loads,
                    p_max[id.0],
                    scheduler,
                );
                let reply = OlevMessage::PowerRequest {
                    id: *id,
                    total: Kilowatts::new(br.total),
                };
                let mut extra = Vec::new();
                core.on_message(V2iFrame::new(offer.seq, reply), 0, &mut extra, &mut updates);
                assert!(extra.is_empty(), "clean replies never trigger retries");
            }
        }
        core.drain();
        for olev in 0..n {
            core.on_message(
                V2iFrame::new(0, OlevMessage::Goodbye { id: OlevId(olev) }),
                0,
                &mut offers,
                &mut updates,
            );
        }
        core.finish()
    }

    #[test]
    fn echo_run_is_bit_identical_to_the_distributed_runtime() {
        let mut a = build(6, 4);
        let mut b = build(6, 4);
        let oracle = build(6, 4);
        let via_core = run_echo(&mut a, &oracle, SessionConfig::default()).unwrap();
        let via_threads = DistributedGame::new(&mut b).run(10_000).unwrap();
        assert_eq!(via_core, via_threads, "same protocol, same trajectory");
        assert_eq!(a.welfare().to_bits(), b.welfare().to_bits());
        for (la, lb) in a.section_loads().iter().zip(b.section_loads()) {
            assert_eq!(la.to_bits(), lb.to_bits());
        }
    }

    #[test]
    fn expiry_retries_then_evicts_unresponsive_sessions() {
        let mut game = build(4, 2);
        let config = SessionConfig {
            retry_budget: 2,
            offer_timeout: Duration::from_millis(10),
            ..SessionConfig::default()
        };
        let mut core = SessionCoordinator::new(&mut game, config, Telemetry::disabled());
        let mut offers = Vec::new();
        let mut now = 0u64;
        core.pump(now, &mut offers);
        assert_eq!(offers.len(), 1);
        // Never answer; advance past each deadline in turn.
        let mut retries = 0;
        loop {
            let Some(deadline) = core.next_deadline_us() else {
                break;
            };
            now = deadline + 1;
            let mut retrans = Vec::new();
            core.expire(now, &mut retrans);
            retries += retrans.len();
            if core.report().evictions.len() == 1 {
                break;
            }
        }
        assert_eq!(retries, 2, "retry budget of 2 yields 2 retransmissions");
        let report = core.report();
        assert_eq!(report.evictions.len(), 1);
        assert_eq!(report.evictions[0].olev, 0);
        assert!(matches!(
            report.evictions[0].reason,
            EvictionReason::Unresponsive
        ));
        assert_eq!(report.timeouts, 3, "initial send plus two retries expired");
    }

    #[test]
    fn duplicate_and_stale_replies_are_discarded() {
        let mut game = build(4, 2);
        let mut core =
            SessionCoordinator::new(&mut game, SessionConfig::default(), Telemetry::disabled());
        let mut offers = Vec::new();
        let mut updates = Vec::new();
        core.pump(0, &mut offers);
        let offer = offers[0].clone();
        let reply = |seq: u64| {
            V2iFrame::new(
                seq,
                OlevMessage::PowerRequest {
                    id: OlevId(offer.olev),
                    total: Kilowatts::new(10.0),
                },
            )
        };
        assert_eq!(
            core.on_message(reply(offer.seq), 0, &mut offers, &mut updates),
            ReplyDisposition::Applied
        );
        assert_eq!(
            core.on_message(reply(offer.seq), 0, &mut offers, &mut updates),
            ReplyDisposition::Duplicate
        );
        assert_eq!(
            core.on_message(reply(9999), 0, &mut offers, &mut updates),
            ReplyDisposition::Stale
        );
        assert_eq!(core.report().duplicates, 1);
        assert_eq!(core.report().stale, 1);
    }

    #[test]
    fn malformed_strikes_evict_after_the_limit() {
        let mut game = build(4, 3);
        let mut core =
            SessionCoordinator::new(&mut game, SessionConfig::default(), Telemetry::disabled());
        for _ in 0..MAX_STRIKES {
            core.strike_malformed(1);
        }
        assert!(!core.alive(1));
        assert_eq!(core.report().invalid_replies, MAX_STRIKES as usize);
        assert!(matches!(
            core.report().evictions[0].reason,
            EvictionReason::Misbehaving
        ));
        // Striking an already-evicted session is a no-op.
        core.strike_malformed(1);
        assert_eq!(core.report().evictions.len(), 1);
    }

    #[test]
    fn mid_run_goodbye_is_a_graceful_departure() {
        let mut game = build(4, 3);
        let mut core =
            SessionCoordinator::new(&mut game, SessionConfig::default(), Telemetry::disabled());
        let mut offers = Vec::new();
        let mut updates = Vec::new();
        core.pump(0, &mut offers);
        core.on_message(
            V2iFrame::new(0, OlevMessage::Goodbye { id: OlevId(2) }),
            0,
            &mut offers,
            &mut updates,
        );
        assert!(!core.alive(2));
        assert_eq!(core.live(), 2);
        assert!(matches!(
            core.report().evictions[0].reason,
            EvictionReason::Departed
        ));
        assert_eq!(core.report().goodbyes, 1);
    }

    #[test]
    fn traces_span_the_offer_lifecycle() {
        let mut game = build(4, 2);
        let config = SessionConfig {
            trace_seed: 7,
            offer_timeout: Duration::from_millis(10),
            ..SessionConfig::default()
        };
        let mut core = SessionCoordinator::new(&mut game, config, Telemetry::disabled());
        let mut offers = Vec::new();
        let mut updates = Vec::new();
        core.pump(0, &mut offers);
        let first = offers[0].clone();
        assert!(first.trace.is_some(), "seeded runs trace every offer");
        assert_eq!(first.frame.trace, first.trace.0, "frame carries the trace");
        // Let it expire: the retry keeps the trace under a fresh seq.
        offers.clear();
        core.expire(first.deadline_us + 1, &mut offers);
        let retry = offers[0].clone();
        assert_eq!(retry.trace, first.trace);
        assert_ne!(retry.seq, first.seq);
        assert_eq!(retry.attempt, 1);
        // Answer the retry: the closing update echoes the same trace.
        let reply = V2iFrame::with_trace(
            retry.seq,
            retry.frame.trace,
            OlevMessage::PowerRequest {
                id: OlevId(retry.olev),
                total: Kilowatts::new(10.0),
            },
        );
        offers.clear();
        core.on_message(reply, 0, &mut offers, &mut updates);
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].1.trace, first.trace.0);
        // A second logical offer gets a distinct trace.
        offers.clear();
        core.pump(0, &mut offers);
        assert_ne!(offers[0].trace, first.trace);
        assert!(offers[0].trace.is_some());
    }

    #[test]
    fn same_seed_runs_emit_identical_trace_streams() {
        let traces_of = |seed: u64| -> Vec<u64> {
            let mut game = build(4, 2);
            let config = SessionConfig {
                trace_seed: seed,
                ..SessionConfig::default()
            };
            let mut core = SessionCoordinator::new(&mut game, config, Telemetry::disabled());
            let mut out = Vec::new();
            let mut updates = Vec::new();
            let mut traces = Vec::new();
            for round in 0..6u64 {
                out.clear();
                core.pump(round, &mut out);
                for offer in &out {
                    traces.push(offer.trace.0);
                    let reply = V2iFrame::with_trace(
                        offer.seq,
                        offer.frame.trace,
                        OlevMessage::PowerRequest {
                            id: OlevId(offer.olev),
                            total: Kilowatts::new(5.0),
                        },
                    );
                    core.on_message(reply.clone(), round, &mut Vec::new(), &mut updates);
                }
            }
            traces
        };
        assert_eq!(traces_of(42), traces_of(42));
        assert_ne!(traces_of(42), traces_of(43));
        assert!(traces_of(0).iter().all(|&t| t == 0), "zero seed = untraced");
    }

    #[test]
    fn all_evicted_finishes_with_an_error() {
        let mut game = build(4, 2);
        let mut core =
            SessionCoordinator::new(&mut game, SessionConfig::default(), Telemetry::disabled());
        core.evict(0, EvictionReason::Unresponsive);
        core.evict(1, EvictionReason::Unresponsive);
        assert!(core.done());
        match core.finish() {
            Err(GameError::OlevEvicted(last)) => assert_eq!(last, 1),
            other => panic!("expected OlevEvicted, got {other:?}"),
        }
    }
}
