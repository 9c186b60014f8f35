//! Deterministic fault injection for the decentralized runtime, and the
//! eviction accounting every engine shares.
//!
//! The paper's protocol runs over wireless V2I links (IEEE 802.11p / LTE) to
//! vehicles moving at 60–80 mph: messages get dropped, delayed, reordered,
//! and duplicated, radios stall, on-board computers crash, and vehicles leave
//! the corridor mid-negotiation. Theorem IV.1 proves the best-response
//! dynamics converge under exactly this kind of bounded asynchrony — this
//! module provides the machinery to *test* that claim instead of assuming it.
//!
//! A [`FaultPlan`] is a seeded, purely declarative description of every fault
//! the runtime will inject. All randomness derives from ChaCha streams keyed
//! by `(seed, domain, link, event)`, so a verdict depends only on *which*
//! protocol event it applies to, never on thread timing: two runs with the
//! same seed inject byte-identical faults, which is what makes the chaos
//! suite's bit-determinism assertion possible.
//!
//! [`LossyLink`] wraps a std [`Sender`] and applies the plan's uplink
//! verdicts. Because the plan is a pure function, the sender also *knows*
//! which transmissions are futile — dropped, stalled, delayed past their
//! deadline, or delivered to a worker past its crash point — and
//! [`crate::DistributedGame`] expires those at their deadline on a virtual
//! clock instead of waiting for them. [`DegradationReport`] is the
//! accounting attached to every [`crate::Outcome`].

use std::sync::mpsc::{SendError, Sender};

use oes_units::rng::{splitmix64, ChaCha8Rng};
use oes_units::OlevId;

use crate::pricing::SectionCost;
use crate::satisfaction::Satisfaction;
use crate::state::ScheduleState;

/// Fault-domain tags keeping the per-event ChaCha streams disjoint.
const DOMAIN_UPLINK: u64 = 0x01;
const DOMAIN_STALL: u64 = 0x02;
const DOMAIN_CORRUPT: u64 = 0x03;

/// What a lossy link decided to do with one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkVerdict {
    /// The frame was lost in flight.
    pub dropped: bool,
    /// The frame was delivered twice (retransmission artifact).
    pub duplicated: bool,
    /// Extra propagation latency, in milliseconds. A delay larger than the
    /// receiver's per-offer deadline turns the frame into a *late* delivery:
    /// it still arrives, but only after the sender has given up on it.
    pub delay_ms: u64,
}

impl LinkVerdict {
    /// The verdict of a perfectly reliable link.
    pub const CLEAN: Self = Self {
        dropped: false,
        duplicated: false,
        delay_ms: 0,
    };

    /// How many copies of the frame actually enter the channel.
    #[must_use]
    pub fn copies(self) -> u32 {
        if self.dropped {
            0
        } else if self.duplicated {
            2
        } else {
            1
        }
    }
}

/// A seeded, declarative description of every fault injected into one run of
/// the decentralized runtime.
///
/// All probabilities are per protocol event; all draws are ChaCha streams
/// keyed by the event's coordinates, so the plan is deterministic under its
/// seed regardless of thread scheduling. The default plan (any seed, all
/// knobs zero) injects nothing.
///
/// # Examples
///
/// ```
/// use oes_game::FaultPlan;
///
/// let plan = FaultPlan::new(42)
///     .drop_probability(0.2)
///     .duplicate_probability(0.1)
///     .max_delay_ms(3)
///     .crash(2, 5)      // OLEV 2's on-board computer dies after 5 replies
///     .depart(1, 40);   // OLEV 1 leaves the corridor at update 40
/// assert_eq!(plan.seed(), 42);
/// // Verdicts are a pure function of the event coordinates.
/// assert_eq!(plan.uplink(0, 7, 0), plan.uplink(0, 7, 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_p: f64,
    duplicate_p: f64,
    max_delay_ms: u64,
    stall_p: f64,
    corrupt_p: f64,
    crash_after: Vec<(usize, usize)>,
    depart_at: Vec<(usize, usize)>,
}

impl FaultPlan {
    /// A lossless plan: nothing is injected until knobs are turned.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_p: 0.0,
            duplicate_p: 0.0,
            max_delay_ms: 0,
            stall_p: 0.0,
            corrupt_p: 0.0,
            crash_after: Vec::new(),
            depart_at: Vec::new(),
        }
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn checked_probability(p: f64, name: &str) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "{name} must be a probability, got {p}"
        );
        p
    }

    /// Per-message probability that a frame is lost in flight.
    #[must_use]
    pub fn drop_probability(mut self, p: f64) -> Self {
        self.drop_p = Self::checked_probability(p, "drop probability");
        self
    }

    /// Per-message probability that a delivered frame arrives twice.
    #[must_use]
    pub fn duplicate_probability(mut self, p: f64) -> Self {
        self.duplicate_p = Self::checked_probability(p, "duplicate probability");
        self
    }

    /// Maximum extra per-frame latency; each delivery draws uniformly from
    /// `0..=max` milliseconds. Delays beyond the coordinator's per-offer
    /// deadline surface as reordered, late frames.
    #[must_use]
    pub fn max_delay_ms(mut self, max: u64) -> Self {
        self.max_delay_ms = max;
        self
    }

    /// Per-offer probability that a worker silently swallows the offer (a
    /// radio or process stall): the coordinator sees only a missing reply.
    #[must_use]
    pub fn stall_probability(mut self, p: f64) -> Self {
        self.stall_p = Self::checked_probability(p, "stall probability");
        self
    }

    /// Per-reply probability that a worker garbles its best-response total
    /// (NaN, negative, or absurdly large) — exercising the grid's "no trust
    /// in the worker" validation.
    #[must_use]
    pub fn corrupt_probability(mut self, p: f64) -> Self {
        self.corrupt_p = Self::checked_probability(p, "corrupt probability");
        self
    }

    /// Crashes `olev`'s worker (a panic, payload captured) when it processes
    /// its next offer after having sent `after_replies` replies.
    #[must_use]
    pub fn crash(mut self, olev: usize, after_replies: usize) -> Self {
        self.crash_after.push((olev, after_replies));
        self
    }

    /// Departs `olev` from the game at update `at_update` (the vehicle
    /// leaves the corridor; the grid evicts it gracefully).
    #[must_use]
    pub fn depart(mut self, olev: usize, at_update: usize) -> Self {
        self.depart_at.push((olev, at_update));
        self
    }

    /// A ChaCha stream keyed by `(seed, domain, link, event)` — the sole
    /// source of randomness for every verdict.
    fn event_rng(&self, domain: u64, link: u64, event: u64) -> ChaCha8Rng {
        let mut key = splitmix64(self.seed ^ splitmix64(domain));
        key = splitmix64(key ^ link);
        key = splitmix64(key ^ event);
        ChaCha8Rng::seed_from_u64(key)
    }

    /// The uplink verdict for transmission `attempt` of offer `seq` to
    /// `olev`. Pure in its arguments.
    #[must_use]
    pub fn uplink(&self, olev: usize, seq: u64, attempt: u32) -> LinkVerdict {
        let event = splitmix64(seq ^ (u64::from(attempt) << 48));
        let mut rng = self.event_rng(DOMAIN_UPLINK, olev as u64, event);
        let dropped = rng.gen_bool(self.drop_p);
        let duplicated = !dropped && rng.gen_bool(self.duplicate_p);
        let delay_ms = if self.max_delay_ms == 0 {
            0
        } else {
            rng.gen_range(0..=self.max_delay_ms)
        };
        LinkVerdict {
            dropped,
            duplicated,
            delay_ms,
        }
    }

    /// Whether `olev`'s worker stalls on its `event`-th processed offer.
    #[must_use]
    pub fn worker_stalls(&self, olev: usize, event: u64) -> bool {
        self.stall_p > 0.0
            && self
                .event_rng(DOMAIN_STALL, olev as u64, event)
                .gen_bool(self.stall_p)
    }

    /// The garbled total `olev`'s worker reports on its `event`-th processed
    /// offer, if that reply is corrupted.
    #[must_use]
    pub fn corrupted_total(&self, olev: usize, event: u64) -> Option<f64> {
        if self.corrupt_p == 0.0 {
            return None;
        }
        let mut rng = self.event_rng(DOMAIN_CORRUPT, olev as u64, event);
        if !rng.gen_bool(self.corrupt_p) {
            return None;
        }
        Some(match rng.gen_range(0..4u32) {
            0 => f64::NAN,
            1 => f64::NEG_INFINITY,
            2 => -13.7,
            _ => 1.0e9,
        })
    }

    /// After how many replies `olev`'s worker crashes, if scheduled.
    #[must_use]
    pub fn crash_point(&self, olev: usize) -> Option<usize> {
        self.crash_after
            .iter()
            .find(|(o, _)| *o == olev)
            .map(|(_, k)| *k)
    }

    /// The OLEVs scheduled to depart at update `update`.
    #[must_use]
    pub fn departures_at(&self, update: usize) -> Vec<usize> {
        self.depart_at
            .iter()
            .filter(|(_, t)| *t == update)
            .map(|(o, _)| *o)
            .collect()
    }

    /// Whether the plan can inject anything at all.
    #[must_use]
    pub fn is_lossless(&self) -> bool {
        self.drop_p == 0.0
            && self.duplicate_p == 0.0
            && self.max_delay_ms == 0
            && self.stall_p == 0.0
            && self.corrupt_p == 0.0
            && self.crash_after.is_empty()
            && self.depart_at.is_empty()
    }
}

/// A lossy wrapper around a std [`Sender`]: each transmission attempt
/// consults the plan's uplink verdict and forwards zero, one, or two copies.
///
/// Delay is *virtualized*: a delayed frame is still forwarded immediately
/// (workers process it whenever they get to it), and the verdict tells the
/// sender whether the delay exceeded the offer's deadline, i.e. whether to
/// expire the offer and treat its reply as late. This keeps injected
/// latency out of wall-clock time, which is what makes chaos runs fast
/// *and* deterministic.
#[derive(Debug)]
pub struct LossyLink<'p, M> {
    tx: Sender<M>,
    olev: usize,
    plan: Option<&'p FaultPlan>,
}

impl<'p, M: Clone> LossyLink<'p, M> {
    /// Wraps a sender; `plan = None` means a perfectly reliable link.
    #[must_use]
    pub fn new(tx: Sender<M>, olev: usize, plan: Option<&'p FaultPlan>) -> Self {
        Self { tx, olev, plan }
    }

    /// Attempts one transmission of `frame` for `(seq, attempt)` and returns
    /// the verdict it applied.
    ///
    /// # Errors
    ///
    /// Returns the channel's [`SendError`] if the receiver is gone (the
    /// worker died) and the verdict called for a delivery.
    pub fn send(&self, seq: u64, attempt: u32, frame: M) -> Result<LinkVerdict, SendError<M>> {
        let verdict = match self.plan {
            Some(plan) => plan.uplink(self.olev, seq, attempt),
            None => LinkVerdict::CLEAN,
        };
        for _ in 1..verdict.copies() {
            self.tx.send(frame.clone())?;
        }
        if verdict.copies() > 0 {
            self.tx.send(frame)?;
        }
        Ok(verdict)
    }
}

/// Why an OLEV was evicted from a running game.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvictionReason {
    /// The per-offer deadline expired through the whole retry budget.
    Unresponsive,
    /// The worker thread died; the captured panic payload rides along.
    Crashed(String),
    /// The vehicle left the corridor (a scheduled departure / `Goodbye`).
    Departed,
    /// The worker kept sending invalid replies past the strike limit.
    Misbehaving,
}

impl core::fmt::Display for EvictionReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Unresponsive => write!(f, "unresponsive past the retry budget"),
            Self::Crashed(msg) => write!(f, "worker crashed: {msg}"),
            Self::Departed => write!(f, "departed the corridor"),
            Self::Misbehaving => write!(f, "kept sending invalid replies"),
        }
    }
}

/// One graceful eviction: the OLEV's schedule row was zeroed and the
/// convergence quorum shrunk.
#[derive(Debug, Clone, PartialEq)]
pub struct Eviction {
    /// The evicted OLEV.
    pub olev: usize,
    /// The update count at which the eviction happened.
    pub at_update: usize,
    /// Why it was evicted.
    pub reason: EvictionReason,
}

/// The accounting of everything the network did to a run, attached to
/// every [`crate::Outcome`].
///
/// A fault-free run over reliable links reports [`Self::is_clean`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DegradationReport {
    /// Offer transmissions attempted (including retries).
    pub offers_sent: usize,
    /// Offers the lossy uplink dropped.
    pub drops: usize,
    /// Replies discarded because their `(olev, seq)` was already applied.
    pub duplicates: usize,
    /// Replies discarded as late or abandoned (no matching outstanding
    /// offer).
    pub stale: usize,
    /// Offer re-sends after a drop, timeout, or invalid reply.
    pub retries: usize,
    /// Per-offer deadlines that expired (real or virtual).
    pub timeouts: usize,
    /// Replies rejected as non-finite or negative.
    pub invalid_replies: usize,
    /// Replies clamped down to the OLEV's `P_OLEV` bound.
    pub clamped_replies: usize,
    /// `Hello` announcements received.
    pub hellos: usize,
    /// `Goodbye` messages received.
    pub goodbyes: usize,
    /// Parallel-sweep moves discarded at apply time because a same-round
    /// move landed first and made them welfare-decreasing (the player
    /// retries against fresh loads next sweep). Benign coordination — like
    /// hellos/goodbyes, not degradation — so not part of
    /// [`Self::is_clean`].
    pub conflicts: usize,
    /// Graceful evictions, in order.
    pub evictions: Vec<Eviction>,
}

impl DegradationReport {
    /// Whether the run saw no degradation at all (protocol bring-up
    /// messages — hellos and goodbyes — are not degradation).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.drops == 0
            && self.duplicates == 0
            && self.stale == 0
            && self.retries == 0
            && self.timeouts == 0
            && self.invalid_replies == 0
            && self.clamped_replies == 0
            && self.evictions.is_empty()
    }

    /// The evicted OLEV indices, in eviction order.
    #[must_use]
    pub fn evicted(&self) -> Vec<usize> {
        self.evictions.iter().map(|e| e.olev).collect()
    }

    /// The OLEVs of an `n`-player game that survived to the end.
    #[must_use]
    pub fn survivors(&self, n: usize) -> Vec<usize> {
        let gone = self.evicted();
        (0..n).filter(|i| !gone.contains(i)).collect()
    }

    /// Folds another report into this one: every counter sums, and the
    /// eviction lists interleave in `at_update` order (ties keep `self`'s
    /// entries first). A deployment that runs the protocol core behind a
    /// transport accumulates degradation in *two* places — the session
    /// layer (shed, disconnected, malformed-frame evictions) and the
    /// in-process core — and callers previously had to pick one; merging
    /// yields a single account of the whole run.
    pub fn merge(&mut self, other: &DegradationReport) {
        self.offers_sent += other.offers_sent;
        self.drops += other.drops;
        self.duplicates += other.duplicates;
        self.stale += other.stale;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.invalid_replies += other.invalid_replies;
        self.clamped_replies += other.clamped_replies;
        self.hellos += other.hellos;
        self.goodbyes += other.goodbyes;
        self.conflicts += other.conflicts;
        self.evictions.extend(other.evictions.iter().cloned());
        self.evictions.sort_by_key(|e| e.at_update);
    }
}

/// Evicts an OLEV from the schedule: zeroes its row, so its welfare term
/// drops to `U(0) = 0`, and records the eviction. The one eviction
/// primitive the session coordinator and the parallel engine share.
pub(crate) fn evict_row(
    state: &mut ScheduleState,
    satisfactions: &[Box<dyn Satisfaction>],
    cost: &SectionCost,
    caps: &[f64],
    report: &mut DegradationReport,
    eviction: Eviction,
) {
    let zero_row = vec![0.0; caps.len()];
    state.apply_row(OlevId(eviction.olev), &zero_row, satisfactions, cost, caps);
    report.evictions.push(eviction);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn verdicts_are_pure_functions_of_event_coordinates() {
        let plan = FaultPlan::new(7)
            .drop_probability(0.3)
            .duplicate_probability(0.2)
            .max_delay_ms(5);
        for olev in 0..4 {
            for seq in 0..50u64 {
                assert_eq!(plan.uplink(olev, seq, 0), plan.uplink(olev, seq, 0));
                assert_eq!(plan.uplink(olev, seq, 3), plan.uplink(olev, seq, 3));
            }
        }
        // Different coordinates give (eventually) different verdicts.
        let all: Vec<LinkVerdict> = (0..200).map(|s| plan.uplink(0, s, 0)).collect();
        assert!(all.iter().any(|v| v.dropped));
        assert!(all.iter().any(|v| !v.dropped));
    }

    #[test]
    fn seeds_decorrelate_plans() {
        let a = FaultPlan::new(1).drop_probability(0.5);
        let b = FaultPlan::new(2).drop_probability(0.5);
        let diverges = (0..100u64).any(|s| a.uplink(0, s, 0).dropped != b.uplink(0, s, 0).dropped);
        assert!(
            diverges,
            "independent seeds should produce different fault traces"
        );
    }

    #[test]
    fn empirical_drop_rate_tracks_the_knob() {
        let plan = FaultPlan::new(99).drop_probability(0.2);
        let drops = (0..5000u64)
            .filter(|&s| plan.uplink(1, s, 0).dropped)
            .count();
        let rate = drops as f64 / 5000.0;
        assert!((rate - 0.2).abs() < 0.03, "empirical drop rate {rate}");
    }

    #[test]
    fn lossless_plan_injects_nothing() {
        let plan = FaultPlan::new(123);
        assert!(plan.is_lossless());
        for seq in 0..100u64 {
            assert_eq!(plan.uplink(0, seq, 0), LinkVerdict::CLEAN);
            assert!(!plan.worker_stalls(0, seq));
            assert!(plan.corrupted_total(0, seq).is_none());
        }
        assert_eq!(plan.crash_point(0), None);
        assert!(plan.departures_at(10).is_empty());
    }

    #[test]
    fn corrupted_totals_are_actually_invalid_or_extreme() {
        let plan = FaultPlan::new(5).corrupt_probability(1.0);
        for e in 0..50u64 {
            let t = plan.corrupted_total(2, e).expect("p = 1 always corrupts");
            assert!(
                !t.is_finite() || !(0.0..=1.0e6).contains(&t),
                "harmless corruption {t}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "drop probability")]
    fn out_of_range_probability_rejected() {
        let _ = FaultPlan::new(0).drop_probability(1.5);
    }

    #[test]
    fn lossy_link_applies_verdicts() {
        let plan = FaultPlan::new(11)
            .drop_probability(0.4)
            .duplicate_probability(0.3);
        let (tx, rx) = channel::<u64>();
        let link = LossyLink::new(tx, 0, Some(&plan));
        let mut expected = 0u32;
        for seq in 0..200u64 {
            let verdict = link.send(seq, 0, seq).unwrap();
            assert_eq!(verdict, plan.uplink(0, seq, 0));
            expected += verdict.copies();
        }
        drop(link);
        assert_eq!(rx.iter().count(), expected as usize);
    }

    #[test]
    fn reliable_link_forwards_everything_once() {
        let (tx, rx) = channel::<u32>();
        let link: LossyLink<'_, u32> = LossyLink::new(tx, 0, None);
        for i in 0..20 {
            assert_eq!(link.send(u64::from(i), 0, i).unwrap(), LinkVerdict::CLEAN);
        }
        drop(link);
        assert_eq!(rx.iter().count(), 20);
    }

    #[test]
    fn report_cleanliness_and_survivors() {
        let mut r = DegradationReport {
            hellos: 4,
            goodbyes: 4,
            ..DegradationReport::default()
        };
        assert!(r.is_clean(), "bring-up traffic is not degradation");
        r.evictions.push(Eviction {
            olev: 2,
            at_update: 17,
            reason: EvictionReason::Departed,
        });
        assert!(!r.is_clean());
        assert_eq!(r.evicted(), vec![2]);
        assert_eq!(r.survivors(4), vec![0, 1, 3]);
    }

    #[test]
    fn merge_sums_counters_and_interleaves_evictions() {
        let mut service_side = DegradationReport {
            offers_sent: 10,
            drops: 1,
            retries: 2,
            timeouts: 3,
            hellos: 4,
            ..DegradationReport::default()
        };
        service_side.evictions.push(Eviction {
            olev: 0,
            at_update: 5,
            reason: EvictionReason::Unresponsive,
        });
        service_side.evictions.push(Eviction {
            olev: 3,
            at_update: 20,
            reason: EvictionReason::Departed,
        });
        let mut in_process = DegradationReport {
            offers_sent: 7,
            duplicates: 2,
            stale: 1,
            invalid_replies: 1,
            clamped_replies: 1,
            goodbyes: 4,
            conflicts: 1,
            ..DegradationReport::default()
        };
        in_process.evictions.push(Eviction {
            olev: 1,
            at_update: 9,
            reason: EvictionReason::Misbehaving,
        });
        service_side.merge(&in_process);
        assert_eq!(service_side.offers_sent, 17);
        assert_eq!(service_side.drops, 1);
        assert_eq!(service_side.duplicates, 2);
        assert_eq!(service_side.stale, 1);
        assert_eq!(service_side.retries, 2);
        assert_eq!(service_side.timeouts, 3);
        assert_eq!(service_side.invalid_replies, 1);
        assert_eq!(service_side.clamped_replies, 1);
        assert_eq!(service_side.hellos, 4);
        assert_eq!(service_side.goodbyes, 4);
        assert_eq!(service_side.conflicts, 1);
        assert_eq!(service_side.evicted(), vec![0, 1, 3], "at_update order");

        // Merging an empty report is the identity.
        let snapshot = service_side.clone();
        service_side.merge(&DegradationReport::default());
        assert_eq!(service_side, snapshot);
    }

    #[test]
    fn eviction_reasons_display() {
        assert!(EvictionReason::Unresponsive
            .to_string()
            .contains("retry budget"));
        assert!(EvictionReason::Crashed("boom".into())
            .to_string()
            .contains("boom"));
        assert!(EvictionReason::Departed.to_string().contains("departed"));
        assert!(EvictionReason::Misbehaving.to_string().contains("invalid"));
    }
}
