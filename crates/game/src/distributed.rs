//! The decentralized runtime: real threads exchanging V2I messages.
//!
//! [`crate::engine::Game::run`] simulates the asynchronous protocol inside
//! one thread. This module runs it for real: every OLEV is a worker thread
//! holding its satisfaction function *privately* (the grid never sees it —
//! the paper's key informational constraint). Per update the grid sends a
//! [`GridMessage::PaymentFunction`] offer — the other OLEVs' loads
//! `P_{-n,c}`, which define Ψ_n (Eq. 20) — and schedules the
//! [`OlevMessage::PowerRequest`] best response by Lemma IV.1, exactly as
//! the in-process engine does.
//!
//! The grid side is the sans-IO [`SessionCoordinator`], which `oes-service`
//! drives over sockets: offers, deadlines, retries, duplicate/stale discard,
//! reply validation, eviction and the convergence quorum have one
//! implementation. [`DistributedGame`] only moves frames — offers out
//! through [`LossyLink`]s, worker messages back through one blocking
//! `recv()` — and tallies what only the channel sees: drops, stalls,
//! hello/goodbye totals, per-update `game.*` gauges. A worker that panics
//! sends its panic payload as its last message.
//!
//! # Virtual time
//!
//! No decision reads the wall clock. A seeded [`FaultPlan`] is a pure
//! function of each transmission, so the driver knows at send time which
//! ones will never be answered: a drop, a stall, a delay past the offer's
//! deadline, and the frame that reaches a worker's crash point (found by
//! counting the non-stalled offer copies the worker was sent). Each is
//! expired at its deadline on a virtual clock, then retried or, past the
//! retry budget, evicted; an offer to a crashed worker evicts it with its
//! panic payload. Every other offer is waited for, however slow the worker,
//! so with one outstanding offer a run is bit-deterministic under the plan's
//! seed: the same trajectory, [`DegradationReport`](crate::DegradationReport)
//! and equilibrium. (With a [`DistributedGame::window`] above 1, reply
//! *arrival order* across OLEVs depends on thread scheduling — the
//! equilibrium is still the same, per Theorem IV.1.)

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Duration;

use oes_telemetry::Telemetry;
use oes_units::{Kilowatts, MetersPerSecond, OlevId, StateOfCharge};
use oes_wpt::v2i::{GridMessage, OlevMessage, V2iFrame};

use crate::best_response::best_response;
use crate::engine::{Game, Outcome};
use crate::error::GameError;
use crate::faults::{EvictionReason, FaultPlan, LinkVerdict, LossyLink};
use crate::payment::Scheduler;
use crate::pricing::SectionCost;
use crate::satisfaction::Satisfaction;
use crate::session::{
    OutboundOffer, ReplyDisposition, SessionConfig, SessionCoordinator, NET_NAMES,
};

/// Runs a [`Game`] on the thread-per-OLEV runtime.
///
/// # Examples
///
/// ```
/// use oes_game::{DistributedGame, GameBuilder};
/// use oes_units::Kilowatts;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut game = GameBuilder::new()
///     .sections(4, Kilowatts::new(60.0))
///     .olevs(3, Kilowatts::new(40.0))
///     .build()?;
/// let outcome = DistributedGame::new(&mut game).run(500)?;
/// assert!(outcome.converged());
/// assert!(outcome.degradation().is_clean());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DistributedGame<'g> {
    game: &'g mut Game,
    config: SessionConfig,
    plan: Option<FaultPlan>,
    telemetry: Telemetry,
}

impl<'g> DistributedGame<'g> {
    /// Wraps a game for distributed execution with one outstanding offer at
    /// a time.
    pub fn new(game: &'g mut Game) -> Self {
        Self {
            game,
            config: SessionConfig::default(),
            plan: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Injects the given fault plan into every link and worker. Implies
    /// fault-*tolerant* semantics: failures evict OLEVs instead of aborting
    /// the run.
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Sets the base per-offer deadline (doubled per retry, capped at 32×)
    /// on the virtual clock. It decides which injected delays make a reply
    /// late; it never times out a worker that is merely slow.
    #[must_use]
    pub fn offer_timeout(mut self, timeout: Duration) -> Self {
        self.config.offer_timeout = timeout;
        self
    }

    /// Sets how many times one offer is retransmitted before the OLEV is
    /// given up on.
    #[must_use]
    pub fn retry_budget(mut self, budget: u32) -> Self {
        self.config.retry_budget = budget;
        self
    }

    /// Attaches a telemetry handle; the runtime emits `net.*` counters,
    /// per-update `game.*` gauges, and `grid.apply` spans into it.
    #[must_use]
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Keeps up to `window` offers outstanding at once (1, the default, is
    /// the fully synchronous protocol). An OLEV's best response is then
    /// computed against loads up to `window − 1` updates stale — real V2I
    /// latency, modeled. Theorem IV.1's asynchronous convergence claim
    /// covers exactly this regime (bounded staleness), and the tests
    /// confirm the same optimum is reached.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    #[must_use]
    pub fn window(mut self, window: usize) -> Self {
        assert!(window > 0, "need at least one outstanding offer");
        self.config.window = window;
        self
    }

    /// Runs round-robin asynchronous best responses across worker threads
    /// until convergence or `max_updates`.
    ///
    /// # Errors
    ///
    /// Without a fault plan the first fault ends the run:
    /// [`GameError::WorkerFailed`] (panic payload included) if a worker
    /// dies, [`GameError::InvalidReply`] if one answers garbage. With a fault
    /// plan those become evictions, and only [`GameError::OlevEvicted`]
    /// remains — returned when *every* OLEV has been evicted.
    pub fn run(self, max_updates: usize) -> Result<Outcome, GameError> {
        let n_olevs = self.game.olev_count();
        let cost = self.game.cost;
        let scheduler = self.game.scheduler;
        let caps = self.game.caps.clone();
        let p_max = self.game.p_max.clone();
        let config = SessionConfig {
            window: self.config.window.min(n_olevs),
            max_updates,
            ..self.config
        };
        let plan = self.plan.as_ref();
        let core = SessionCoordinator::new(self.game, config, self.telemetry.clone())
            .with_names(&NET_NAMES);
        let satisfactions = core.satisfactions();
        let (reply_tx, inbox) = channel();

        std::thread::scope(|scope| {
            let mut links = Vec::with_capacity(n_olevs);
            for (n, sat) in satisfactions.iter().enumerate() {
                let (offer_tx, offer_rx) = channel();
                links.push(Some(LossyLink::new(offer_tx, n, plan)));
                let worker = Worker {
                    n,
                    sat: sat.as_ref(),
                    cost,
                    caps: &caps,
                    p_max: p_max[n],
                    scheduler,
                    plan,
                };
                let replies = reply_tx.clone();
                scope.spawn(move || worker.run(&offer_rx, &replies));
            }
            drop(reply_tx);
            let mut driver = Driver {
                core,
                links,
                inbox,
                plan,
                telemetry: &self.telemetry,
                now_us: 0,
                outbox: Vec::new(),
                updates_out: Vec::new(),
                delivered: vec![0; n_olevs],
                doomed: vec![false; n_olevs],
                deaths: vec![None; n_olevs],
                closed: 0,
            };
            let result = driver.run();
            result.and(driver.finish())
        })
    }
}

/// What a worker thread tells the grid.
enum Inbound {
    Frame(V2iFrame<OlevMessage>),
    /// The worker panicked; its payload is the last thing it sends.
    Died(usize, String),
}

/// The grid side of the runtime: the session core plus the channels.
struct Driver<'a, 'g> {
    core: SessionCoordinator<'g>,
    links: Vec<Option<LossyLink<'a, V2iFrame<GridMessage>>>>,
    inbox: Receiver<Inbound>,
    plan: Option<&'a FaultPlan>,
    telemetry: &'a Telemetry,
    /// The virtual clock, advanced only to the deadline of an offer the
    /// plan made futile.
    now_us: u64,
    outbox: Vec<OutboundOffer>,
    updates_out: Vec<(usize, V2iFrame<GridMessage>)>,
    /// Non-stalled offer copies sent to each worker: its replies so far, the
    /// count its crash point is measured in.
    delivered: Vec<usize>,
    /// Workers that were sent the frame reaching their crash point.
    doomed: Vec<bool>,
    /// Panic payloads received, per worker.
    deaths: Vec<Option<String>>,
    /// Evictions whose links are already closed.
    closed: usize,
}

impl Driver<'_, '_> {
    /// The main loop: departures, fresh offers, then one worker message at
    /// a time until the core is done.
    fn run(&mut self) -> Result<(), GameError> {
        loop {
            if let Some(plan) = self.plan {
                for olev in plan.departures_at(self.core.updates()) {
                    self.core.evict(olev, EvictionReason::Departed);
                }
            }
            if self.core.done() {
                return Ok(());
            }
            self.core.pump(self.now_us, &mut self.outbox);
            self.flush()?;
            if self.core.in_flight() > 0 {
                self.handle(self.recv()?)?;
                self.flush()?;
            }
        }
    }

    /// Sends what the core queued — payment updates, offers, and the
    /// retries of offers expired on the way — then closes the links of
    /// evicted OLEVs, which tells their workers to sign off.
    fn flush(&mut self) -> Result<(), GameError> {
        loop {
            for (olev, update) in self.updates_out.drain(..) {
                if let Some(link) = &self.links[olev] {
                    // Fire-and-forget: a lost PaymentUpdate costs nothing.
                    let _ = link.send(update.seq, 0, update);
                }
            }
            let offers = std::mem::take(&mut self.outbox);
            if offers.is_empty() {
                break;
            }
            for offer in offers {
                self.transmit(offer)?;
            }
        }
        let evictions = &self.core.report().evictions;
        for eviction in &evictions[self.closed..] {
            self.links[eviction.olev] = None;
        }
        self.closed = evictions.len();
        Ok(())
    }

    /// Puts one offer on its lossy link. An offer the plan makes futile is
    /// expired at its deadline on the virtual clock; any other is answered.
    fn transmit(&mut self, offer: OutboundOffer) -> Result<(), GameError> {
        let (olev, seq) = (offer.olev, offer.seq);
        if !self.core.alive(olev) {
            // Evicted after this offer was queued; the core abandoned it.
            return Ok(());
        }
        let link = self.links[olev].as_ref().expect("a live OLEV has a link");
        // A send fails only into a worker that already died, and its death
        // notice is then on the way.
        let verdict = link
            .send(seq, offer.attempt, offer.frame)
            .unwrap_or(LinkVerdict::CLEAN);
        let Some(plan) = self.plan else {
            return Ok(());
        };
        let stalled = plan.worker_stalls(olev, seq);
        let crash_point = plan.crash_point(olev);
        let mut answered = false;
        for _ in 0..verdict.copies() {
            if self.doomed[olev] {
                break;
            }
            if crash_point.is_some_and(|k| self.delivered[olev] >= k) {
                self.doomed[olev] = true;
            } else if !stalled {
                self.delivered[olev] += 1;
                answered = true;
            }
        }
        if verdict.dropped {
            self.core.report_mut().drops += 1;
            self.telemetry.counter("net.drop", olev as i64, 1);
        } else if stalled {
            self.telemetry.counter("net.stall", olev as i64, 1);
        }
        let late = verdict.delay_ms.saturating_mul(1000) > offer.budget_us;
        if answered && !late {
            return Ok(());
        }
        self.now_us = self.now_us.max(offer.deadline_us);
        // A worker sent its crash frame is dead: wait for its payload,
        // handling whatever arrives first, and evict it instead of retrying.
        while self.doomed[olev] && self.deaths[olev].is_none() {
            self.handle(self.recv()?)?;
        }
        let crash = self.deaths[olev].clone();
        self.core
            .expire_offer(seq, self.now_us, crash, &mut self.outbox);
        Ok(())
    }

    fn recv(&self) -> Result<Inbound, GameError> {
        self.inbox.recv().map_err(|_| {
            GameError::WorkerFailed("every worker closed its reply channel".to_owned())
        })
    }

    /// Feeds one worker frame to the core, or records a worker's death.
    fn handle(&mut self, msg: Inbound) -> Result<(), GameError> {
        let frame = match msg {
            Inbound::Frame(frame) => frame,
            Inbound::Died(olev, payload) => {
                if self.plan.is_none() {
                    return Err(GameError::WorkerFailed(format!(
                        "olev {olev} panicked: {payload}"
                    )));
                }
                if !self.doomed[olev] {
                    // A panic the plan did not schedule: nothing will answer
                    // this worker's offers, so it goes now.
                    self.core
                        .evict(olev, EvictionReason::Crashed(payload.clone()));
                }
                self.deaths[olev] = Some(payload);
                return Ok(());
            }
        };
        let was_converged = self.core.converged();
        let disposition =
            self.core
                .on_message(frame, self.now_us, &mut self.outbox, &mut self.updates_out);
        match disposition {
            ReplyDisposition::Applied => {
                if let Some(snapshot) = self.core.last_snapshot() {
                    let key = snapshot.update as i64;
                    self.telemetry.gauge("game.welfare", key, snapshot.welfare);
                    self.telemetry
                        .gauge("game.congestion", key, snapshot.congestion);
                    self.telemetry.gauge("game.change", key, snapshot.change);
                }
                if !was_converged && self.core.converged() {
                    self.telemetry.counter("game.converged", -1, 1);
                }
            }
            ReplyDisposition::Invalid { olev, reason } if self.plan.is_none() => {
                return Err(GameError::InvalidReply { olev, reason });
            }
            _ => {}
        }
        Ok(())
    }

    /// Closes every link and drains the inbox until every worker has signed
    /// off, so the counters are totals over the whole run rather than a race
    /// with the workers' last words.
    fn finish(mut self) -> Result<Outcome, GameError> {
        self.core.abandon_in_flight();
        self.core.drain();
        self.links.clear();
        while let Ok(msg) = self.inbox.recv() {
            if let Inbound::Frame(frame) = msg {
                self.core
                    .on_message(frame, self.now_us, &mut self.outbox, &mut self.updates_out);
            }
        }
        // Hello/Goodbye frames arrive racily from worker threads, so they
        // are journaled only here, as run-level totals after the drain —
        // never inline, which would break byte-identical same-seed journals.
        let report = self.core.report();
        self.telemetry
            .counter("net.hello", -1, report.hellos as u64);
        self.telemetry
            .counter("net.goodbye", -1, report.goodbyes as u64);
        self.telemetry
            .gauge("game.updates", -1, self.core.updates() as f64);
        self.core.finish()
    }
}

/// The worker side of the protocol: a vehicle holding its satisfaction
/// privately, answering payment-function offers with best responses.
struct Worker<'a> {
    n: usize,
    sat: &'a dyn Satisfaction,
    cost: SectionCost,
    caps: &'a [f64],
    p_max: f64,
    scheduler: Scheduler,
    plan: Option<&'a FaultPlan>,
}

impl Worker<'_> {
    /// The worker thread: `Hello`, offers answered until the link closes,
    /// then `Goodbye` — or, if it panicked, the panic payload.
    fn run(&self, offers: &Receiver<V2iFrame<GridMessage>>, replies: &Sender<Inbound>) {
        // The paper's bring-up handshake. The runtime is detached from the
        // traffic substrate, so kinematics are nominal.
        let hello = OlevMessage::Hello {
            id: OlevId(self.n),
            velocity: MetersPerSecond::new(0.0),
            soc: StateOfCharge::EMPTY,
            soc_required: StateOfCharge::FULL,
        };
        let _ = replies.send(Inbound::Frame(V2iFrame::new(0, hello)));
        let last_word = match catch_unwind(AssertUnwindSafe(|| self.answer(offers, replies))) {
            Ok(()) => Inbound::Frame(V2iFrame::new(
                0,
                OlevMessage::Goodbye { id: OlevId(self.n) },
            )),
            Err(payload) => Inbound::Died(self.n, panic_message(payload)),
        };
        let _ = replies.send(last_word);
    }

    fn answer(&self, offers: &Receiver<V2iFrame<GridMessage>>, replies: &Sender<Inbound>) {
        let n = self.n;
        let crash_point = self.plan.and_then(|p| p.crash_point(n));
        let mut replies_sent = 0usize;
        while let Ok(frame) = offers.recv() {
            let GridMessage::PaymentFunction { loads_excl, .. } = frame.payload else {
                // LaneInfo / PaymentUpdate are informational on this side.
                continue;
            };
            if crash_point.is_some_and(|k| replies_sent >= k) {
                panic!("fault plan crashed OLEV {n} after {replies_sent} replies");
            }
            if self.plan.is_some_and(|p| p.worker_stalls(n, frame.seq)) {
                continue;
            }
            let loads: Vec<f64> = loads_excl.iter().map(|kw| kw.value()).collect();
            let br = best_response(
                self.sat,
                &self.cost,
                self.caps,
                &loads,
                self.p_max,
                self.scheduler,
            );
            let total = self
                .plan
                .and_then(|p| p.corrupted_total(n, frame.seq))
                .unwrap_or(br.total);
            let reply = OlevMessage::PowerRequest {
                id: OlevId(n),
                total: Kilowatts::new(total),
            };
            if replies
                .send(Inbound::Frame(V2iFrame::new(frame.seq, reply)))
                .is_err()
            {
                break;
            }
            replies_sent += 1;
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast_ref::<&str>().map_or_else(
            || "non-string panic payload".to_owned(),
            |msg| (*msg).to_owned(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crate::builder::GameBuilder;
    use crate::engine::UpdateOrder;
    use oes_units::Kilowatts;

    fn build() -> Game {
        GameBuilder::new()
            .sections(6, Kilowatts::new(60.0))
            .olevs(4, Kilowatts::new(50.0))
            .build()
            .unwrap()
    }

    #[test]
    fn distributed_converges() {
        let mut g = build();
        let out = DistributedGame::new(&mut g).run(1000).unwrap();
        assert!(out.converged());
        assert!(out.updates() < 1000);
    }

    #[test]
    fn distributed_matches_in_process_engine() {
        // Same protocol, different runtime ⇒ same equilibrium.
        let mut a = build();
        let mut b = build();
        a.run(UpdateOrder::RoundRobin, 2000).unwrap();
        DistributedGame::new(&mut b).run(2000).unwrap();
        assert!((a.welfare() - b.welfare()).abs() < 1e-9);
        for (la, lb) in a.section_loads().iter().zip(b.section_loads()) {
            assert!((la - lb).abs() < 1e-9);
        }
    }

    #[test]
    fn clean_run_reports_full_handshake_and_no_degradation() {
        let mut g = build();
        let out = DistributedGame::new(&mut g).run(1000).unwrap();
        let report = out.degradation();
        assert!(report.is_clean(), "clean run degraded: {report:?}");
        assert_eq!(report.hellos, 4);
        assert_eq!(report.goodbyes, 4);
        assert_eq!(report.offers_sent, out.updates());
    }

    #[test]
    fn stale_offers_still_converge_to_the_same_optimum() {
        // Bounded staleness (Theorem IV.1's asynchronous regime): windows of
        // 1, 2, and 4 outstanding offers must all land on the synchronous
        // optimum.
        let mut reference = build();
        reference.run(UpdateOrder::RoundRobin, 2000).unwrap();
        for window in [1usize, 2, 4] {
            let mut g = build();
            let out = DistributedGame::new(&mut g)
                .window(window)
                .run(5000)
                .unwrap();
            assert!(out.converged(), "window {window} did not converge");
            assert!(
                (g.welfare() - reference.welfare()).abs() < 1e-6,
                "window {window}: welfare {} vs {}",
                g.welfare(),
                reference.welfare()
            );
        }
    }

    #[test]
    fn staleness_costs_updates_but_not_quality() {
        let mut sync_game = build();
        let sync_updates = DistributedGame::new(&mut sync_game)
            .run(5000)
            .unwrap()
            .updates();
        let mut stale_game = build();
        let stale_out = DistributedGame::new(&mut stale_game)
            .window(4)
            .run(5000)
            .unwrap();
        assert!(stale_out.converged());
        // Stale information can only slow the protocol down, never corrupt
        // the fixed point.
        assert!(stale_out.updates() + 8 >= sync_updates);
    }

    #[test]
    #[should_panic(expected = "at least one outstanding offer")]
    fn zero_window_panics() {
        let mut g = build();
        let _ = DistributedGame::new(&mut g).window(0);
    }

    #[test]
    fn distributed_with_heterogeneous_olevs() {
        let mut g = GameBuilder::new()
            .sections(5, Kilowatts::new(40.0))
            .olevs_weighted(2, Kilowatts::new(30.0), 2.0)
            .olevs_weighted(3, Kilowatts::new(60.0), 0.7)
            .build()
            .unwrap();
        let out = DistributedGame::new(&mut g).run(2000).unwrap();
        assert!(out.converged());
        // Eager OLEVs (higher weight) take more power.
        let p0 = g.schedule().olev_total(oes_units::OlevId(0));
        let p4 = g.schedule().olev_total(oes_units::OlevId(4));
        assert!(p0 > p4, "eager {p0} vs lukewarm {p4}");
    }

    #[test]
    fn telemetry_counters_match_the_degradation_report() {
        use oes_telemetry::{RingBufferRecorder, Telemetry};
        let mut plain = build();
        let baseline = DistributedGame::new(&mut plain).run(1000).unwrap();

        let ring = Arc::new(RingBufferRecorder::new(1 << 14));
        let mut g = build();
        let out = DistributedGame::new(&mut g)
            .telemetry(Telemetry::new(ring.clone()))
            .run(1000)
            .unwrap();

        // Recorder neutrality: attaching a sink changes no game outcome.
        assert_eq!(out.trajectory, baseline.trajectory);
        assert_eq!(g.schedule(), plain.schedule());

        let report = out.degradation();
        assert_eq!(ring.counter_total("net.offer") as usize, report.offers_sent);
        assert_eq!(ring.counter_total("net.hello") as usize, report.hellos);
        assert_eq!(ring.counter_total("net.goodbye") as usize, report.goodbyes);
        assert_eq!(ring.counter_total("game.converged"), 1);
        assert_eq!(ring.last_gauge("game.welfare"), Some(out.final_welfare()));
        assert_eq!(ring.last_gauge("game.updates"), Some(out.updates() as f64));
    }

    #[test]
    fn worker_panic_payload_reaches_the_error() {
        // A fault-plan crash without fault *tolerance* (no plan on the
        // runtime would mean no crash, so the crash is injected but the
        // retry budget is zeroed to force the abort path)... simplest
        // honest setup: tolerant runtime, then check the reason string.
        let mut g = build();
        let out = DistributedGame::new(&mut g)
            .with_faults(FaultPlan::new(3).crash(1, 2))
            .offer_timeout(Duration::from_millis(20))
            .retry_budget(2)
            .run(2000)
            .unwrap();
        let evicted: Vec<_> = out.degradation().evictions.iter().collect();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].olev, 1);
        match &evicted[0].reason {
            EvictionReason::Crashed(msg) => {
                assert!(
                    msg.contains("fault plan crashed OLEV 1"),
                    "payload lost: {msg}"
                );
            }
            other => panic!("expected a crash eviction, got {other:?}"),
        }
    }
}
