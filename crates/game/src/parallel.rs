//! Deterministic parallel best-response sweeps.
//!
//! Theorem IV.1 proves the asynchronous best-response dynamics converge even
//! when players respond to *stale* observations of the others' schedules —
//! the same license the thread-per-OLEV runtime exercises when
//! [`crate::DistributedGame::window`] keeps several offers in flight over
//! its channels. This module exercises it in-process, at
//! fleet scale: each *round* freezes a snapshot of the cached section loads
//! (the O(C) aggregates maintained by [`crate::schedule::PowerSchedule`]),
//! fans a batch of players out across `K` shard worker threads that compute
//! best responses (Lemma IV.3) against that snapshot, then applies the
//! returned moves **sequentially, in the sweep order** — so the result is a
//! pure function of `(scenario, seed, config)` and never of thread timing.
//!
//! Simultaneous best responses alone can limit-cycle (two players reacting
//! to the same snapshot repeatedly overshoot each other — the classic
//! failure of Jacobi dynamics in congestion games), so the apply phase
//! re-validates every move against the *current* state: the game is an
//! exact potential game, so a unilateral row change moves the welfare `W`
//! by exactly the player's utility change, an O(C) check. Moves a
//! same-round predecessor turned welfare-decreasing are discarded as
//! [conflicts](crate::DegradationReport::conflicts) and recomputed against
//! fresh loads next sweep. Applied moves therefore ascend the potential
//! monotonically, which rules out limit cycles under any batch size.
//!
//! One residual mode remains: near the optimum the potential is flat, so
//! players can trade welfare-*neutral* micro-moves that the guard admits but
//! snapshot staleness never damps. The engine detects the stall (per-sweep
//! progress below [`PARALLEL_ENDGAME_FACTOR`] × tolerance, or
//! [`PARALLEL_STALL_SWEEPS`] sweeps without geometric progress) and finishes
//! with fresh-load rounds of one — exact serial semantics for the tail,
//! which is a negligible share of the run's updates.
//!
//! Determinism contract:
//!
//! - Same seed + same [`ParallelConfig`] ⇒ bit-identical trajectories,
//!   schedules, and outcomes, on any machine, at any core count.
//! - `shards == 1` delegates to the serial engine ([`crate::Game::run_with`])
//!   and is therefore bit-identical to it.
//! - `shards > 1` is *Jacobi-within-batch*: players in one round respond to
//!   the same snapshot instead of each other's fresh moves, so trajectories
//!   differ from serial Gauss–Seidel ones — but both converge to the unique
//!   welfare maximizer (the potential function argument of Theorem IV.1),
//!   which the equivalence tests pin to within `1e-9` in welfare.
//! - [`ApplyMode::Partitioned`] moves the guard-and-commit work off the
//!   coordinator: moves with disjoint section footprints are guarded and
//!   committed concurrently, then merged in deterministic sweep order. The
//!   mode keeps the bit-identical-replay guarantee within itself and agrees
//!   with the serialized oracle to within `1e-9` in welfare (see
//!   [`ApplyMode`] for the contract).
//!
//! Telemetry (all emitted from the coordinator thread, so journals stay
//! deterministic): an `engine.parallel.sweep` span per sweep,
//! `engine.parallel.rounds` / `engine.parallel.dropped` /
//! `engine.parallel.conflicts` counters, an `engine.parallel.partitions`
//! counter per partitioned round (value = number of footprint groups), an
//! `engine.parallel.shards` gauge at run start, and the same per-update
//! `engine.welfare` / `engine.congestion` / `engine.change` gauges the serial
//! engine emits.
//!
//! Fault plans ([`crate::FaultPlan`]) compose with parallel sweeps: uplink
//! verdicts can drop a computed move (the player simply retries next sweep —
//! a bounded-staleness event, not an error), scheduled departures and crash
//! points evict players mid-run exactly as the decentralized coordinator
//! would, and the convergence quorum shrinks to the survivors.

use std::sync::mpsc;
use std::thread;

use oes_telemetry::Telemetry;
use oes_units::rng::ChaCha8Rng;
use oes_units::OlevId;

use crate::best_response::{best_response, BestResponse};
use crate::engine::{Game, Outcome, Snapshot, UpdateOrder};
use crate::error::GameError;
use crate::faults::{evict_row, DegradationReport, Eviction, EvictionReason, FaultPlan};
use crate::payment::{payment_for_schedule, Scheduler};
use crate::pricing::SectionCost;
use crate::satisfaction::Satisfaction;
use crate::state::ScheduleState;

/// Default batch size per shard: each round carries
/// `shards × DEFAULT_BATCH_PER_SHARD` players, enough work per dispatch to
/// amortize the channel round-trip while keeping the within-round staleness
/// window small relative to a sweep.
pub const DEFAULT_BATCH_PER_SHARD: usize = 8;

/// Endgame trigger, as a multiple of the convergence tolerance: once a full
/// sweep's largest applied change falls below `tolerance ×` this factor, the
/// engine switches to fresh-load rounds of one (exact serial semantics) to
/// finish. Near the flat top of the potential, snapshot staleness sustains
/// welfare-neutral micro-oscillation that batched sweeps cannot contract;
/// the tail is a negligible fraction of the run, so serializing it costs
/// almost nothing and restores the serial convergence proof.
pub const PARALLEL_ENDGAME_FACTOR: f64 = 1e3;

/// Endgame stall trigger: if this many consecutive sweeps fail to halve the
/// best per-sweep max change seen so far, progress has stalled (an
/// oscillation the potential guard admits because it is welfare-neutral)
/// and the engine switches to the serial endgame regardless of scale.
pub const PARALLEL_STALL_SWEEPS: usize = 8;

/// How a round's computed moves are guarded and committed.
///
/// The guard-and-apply loop is the scaling bottleneck of the serialized
/// path: each apply costs four full-width payment evaluations on the
/// coordinator thread, so K=8 sweeps run no faster than K=1 (the committed
/// parallel baseline documents this). But a move's guard and its commit
/// only read and write sections in the move's *footprint* — the union of
/// the current row's support and the proposed shares' support — because
/// zero entries contribute exactly `+0.0` to every payment sum. Moves whose
/// footprints are disjoint therefore commute exactly, and the partitioned
/// mode exploits that: it groups a round's moves by footprint overlap
/// (union-find over sections), ships each group to a shard worker that
/// guards and locally applies it against partition-local loads, and merges
/// the accepted deltas on the coordinator in deterministic sweep order
/// through the sparse O(footprint) commit path.
///
/// Tolerance contract (same shape as `ScanMode::NaiveScan` in the traffic
/// crate): each mode is bit-identically replayable *within itself* — same
/// seed, same [`ParallelConfig`] ⇒ same bits, on any machine — and the two
/// modes agree on converged welfare to within `1e-9`. The serialized mode
/// stays the default and the bit-identity oracle; partitioned trajectories
/// may differ from it in the last ulps because partition-local guard
/// arithmetic sums payments over the footprint only and cached-load resyncs
/// land at different points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ApplyMode {
    /// Guard and commit every move sequentially on the coordinator thread,
    /// in sweep order — the original path and the bit-identity oracle.
    #[default]
    Serialized,
    /// Partition each round's moves by section-footprint overlap and let
    /// shard workers guard and commit each partition concurrently against
    /// partition-local loads; the coordinator merges partition deltas in
    /// deterministic sweep order via the sparse commit path.
    Partitioned,
}

/// Opt-in configuration for [`Game::run_parallel`].
///
/// `shards` is the number of worker threads `K`; `batch` is how many players
/// respond to one frozen snapshot per round (the bounded-staleness window of
/// Theorem IV.1); `apply` picks the commit strategy ([`ApplyMode`]). All
/// three are part of the determinism key: changing any of them changes the
/// (still deterministic) trajectory.
///
/// # Examples
///
/// ```
/// use oes_game::{ApplyMode, ParallelConfig};
///
/// let serial = ParallelConfig::default();
/// assert_eq!((serial.shards, serial.batch), (1, 1));
/// assert_eq!(serial.apply, ApplyMode::Serialized);
/// let four = ParallelConfig::new(4);
/// assert_eq!(four.shards, 4);
/// assert_eq!(four.batch, 4 * oes_game::parallel::DEFAULT_BATCH_PER_SHARD);
/// let tuned = ParallelConfig::new(4).with_batch(64);
/// assert_eq!(tuned.batch, 64);
/// let partitioned = ParallelConfig::new(8).with_apply(ApplyMode::Partitioned);
/// assert_eq!(partitioned.apply, ApplyMode::Partitioned);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Number of shard worker threads `K`. `1` means the exact serial
    /// engine.
    pub shards: usize,
    /// Players dispatched against one snapshot per round.
    pub batch: usize,
    /// Commit strategy for the apply phase.
    pub apply: ApplyMode,
}

impl ParallelConfig {
    /// A `shards`-way configuration with the default batch of
    /// [`DEFAULT_BATCH_PER_SHARD`] players per shard.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            batch: shards.saturating_mul(DEFAULT_BATCH_PER_SHARD).max(1),
            apply: ApplyMode::Serialized,
        }
    }

    /// The serial configuration: one shard, one player per round —
    /// bit-identical to [`Game::run_with`].
    #[must_use]
    pub fn serial() -> Self {
        Self {
            shards: 1,
            batch: 1,
            apply: ApplyMode::Serialized,
        }
    }

    /// Overrides the per-round batch size.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Overrides the apply-phase commit strategy.
    #[must_use]
    pub fn with_apply(mut self, apply: ApplyMode) -> Self {
        self.apply = apply;
        self
    }

    fn validate(self) -> Result<(), GameError> {
        if self.shards == 0 {
            return Err(GameError::InvalidParameter {
                name: "parallel shards",
                value: 0.0,
            });
        }
        if self.batch == 0 {
            return Err(GameError::InvalidParameter {
                name: "parallel batch",
                value: 0.0,
            });
        }
        Ok(())
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        Self::serial()
    }
}

/// One round's worth of work for one shard: a frozen loads snapshot plus the
/// players (and their current rows) assigned to this shard.
struct ShardTask {
    /// Chunk position within the round, used to reassemble results in sweep
    /// order regardless of completion order.
    slot: usize,
    /// Frozen `P_c` snapshot the whole round responds to.
    loads: Vec<f64>,
    /// `(olev, current row)` pairs; the row is subtracted from the snapshot
    /// to form `P_{-n,c}`.
    players: Vec<(usize, Vec<f64>)>,
}

type ShardMoves = Vec<(usize, BestResponse)>;

/// One pending move inside a partition commit, restricted to the
/// partition's footprint sections.
struct CommitMove {
    /// Player index.
    n: usize,
    /// Current row values at the partition footprint sections.
    row: Vec<f64>,
    /// Current cached total `p_n`.
    total: f64,
    /// Proposed shares at the partition footprint sections.
    shares: Vec<f64>,
    /// Proposed total `p*_n`.
    br_total: f64,
}

/// A partition of a round's moves whose footprints are disjoint from every
/// other partition's, shipped to a shard worker for concurrent
/// guard-and-commit against partition-local loads.
struct CommitTask {
    /// Partition position in deterministic merge order, used to reassemble
    /// verdicts regardless of completion order.
    slot: usize,
    /// Ascending section indices of the partition footprint.
    sections: Vec<usize>,
    /// Current loads at those sections.
    loads: Vec<f64>,
    /// The partition's moves, in sweep order.
    members: Vec<CommitMove>,
}

enum ShardJob {
    Compute(ShardTask),
    Commit(CommitTask),
}

enum ShardReply {
    Moves(usize, ShardMoves),
    /// Per-member `(accepted, |Δp_n|)` verdicts, in member order.
    Commits(usize, Vec<(bool, f64)>),
}

/// Guards and locally applies one partition's moves, replicating the
/// serialized apply arithmetic operation-for-operation on the footprint
/// slice: the subtract-then-clamp loads exclusion, the
/// [`payment_for_schedule`] guard against the evolving partition loads with
/// the same `-1e-12` threshold, and the clamp-and-delta load maintenance of
/// an accepted commit. Sections outside the footprint contribute exactly
/// `+0.0` to every payment sum (zero shares on non-negative loads), so the
/// footprint-restricted guard decides exactly as a full-width one would.
fn commit_partition(
    task: CommitTask,
    satisfactions: &[Box<dyn Satisfaction>],
    cost: &SectionCost,
    caps: &[f64],
) -> Vec<(bool, f64)> {
    let caps_fp: Vec<f64> = task.sections.iter().map(|&c| caps[c]).collect();
    let mut loads = task.loads;
    let mut loads_excl = vec![0.0; caps_fp.len()];
    let mut verdicts = Vec::with_capacity(task.members.len());
    for m in &task.members {
        for ((out, &load), &row) in loads_excl.iter_mut().zip(&loads).zip(&m.row) {
            *out = load - row;
            if *out < 0.0 {
                *out = 0.0;
            }
        }
        let f_old = satisfactions[m.n].value(m.total)
            - payment_for_schedule(cost, &caps_fp, &loads_excl, &m.row);
        let f_new = satisfactions[m.n].value(m.br_total)
            - payment_for_schedule(cost, &caps_fp, &loads_excl, &m.shares);
        if f_new - f_old < -1e-12 {
            verdicts.push((false, 0.0));
            continue;
        }
        for (i, &share) in m.shares.iter().enumerate() {
            let new = share.max(0.0);
            let delta = new - m.row[i];
            loads[i] = (loads[i] + delta).max(0.0);
        }
        verdicts.push((true, (m.br_total - m.total).abs()));
    }
    verdicts
}

/// Path-halving union-find over section indices; groups a round's moves by
/// footprint overlap. Roots are canonicalized to the smallest member so
/// grouping is a pure function of the footprints.
struct SectionDsu {
    parent: Vec<usize>,
}

impl SectionDsu {
    fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn shard_worker(
    tasks: &mpsc::Receiver<ShardJob>,
    results: &mpsc::Sender<ShardReply>,
    satisfactions: &[Box<dyn Satisfaction>],
    cost: &SectionCost,
    caps: &[f64],
    p_max: &[f64],
    windows: &[(usize, usize)],
    scheduler: Scheduler,
) {
    let mut loads_excl = vec![0.0; caps.len()];
    while let Ok(job) = tasks.recv() {
        let reply = match job {
            ShardJob::Compute(task) => {
                let mut moves = Vec::with_capacity(task.players.len());
                for (n, row) in &task.players {
                    for (c, out) in loads_excl.iter_mut().enumerate() {
                        *out = (task.loads[c] - row[c]).max(0.0);
                    }
                    let (w0, w1) = windows[*n];
                    let mut br = best_response(
                        satisfactions[*n].as_ref(),
                        cost,
                        &caps[w0..w1],
                        &loads_excl[w0..w1],
                        p_max[*n],
                        scheduler,
                    );
                    if (w0, w1) != (0, caps.len()) {
                        // Scatter the windowed allocation to full width so
                        // the apply phase sees ordinary rows.
                        let mut shares = vec![0.0; caps.len()];
                        shares[w0..w1].copy_from_slice(&br.allocation.shares);
                        br.allocation.shares = shares;
                    }
                    moves.push((*n, br));
                }
                ShardReply::Moves(task.slot, moves)
            }
            ShardJob::Commit(task) => {
                let slot = task.slot;
                ShardReply::Commits(slot, commit_partition(task, satisfactions, cost, caps))
            }
        };
        if results.send(reply).is_err() {
            return;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn evict(
    n: usize,
    at_update: usize,
    reason: EvictionReason,
    state: &mut ScheduleState,
    satisfactions: &[Box<dyn Satisfaction>],
    cost: &SectionCost,
    caps: &[f64],
    active: &mut [bool],
    report: &mut DegradationReport,
) {
    active[n] = false;
    if matches!(reason, EvictionReason::Departed) {
        report.goodbyes += 1;
    }
    let eviction = Eviction {
        olev: n,
        at_update,
        reason,
    };
    evict_row(state, satisfactions, cost, caps, report, eviction);
}

impl Game {
    /// Runs deterministic parallel best-response sweeps (see
    /// [`crate::parallel`]) until convergence or `max_updates`.
    ///
    /// With `config.shards == 1` this *is* [`Game::run`], bit for bit. With
    /// more shards, each sweep partitions the fleet into rounds of
    /// `config.batch` players whose best responses are computed concurrently
    /// against a frozen snapshot and applied in sweep order, so same-seed
    /// runs are bit-identical regardless of thread timing.
    ///
    /// Convergence: a full sweep in which every surviving player was polled,
    /// every move applied, and no total moved by the tolerance or more.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidParameter`] for a zero shard or batch
    /// count, or any error the serial engine reports at `shards == 1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use oes_game::{GameBuilder, ParallelConfig, UpdateOrder};
    /// use oes_units::Kilowatts;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let build = || GameBuilder::new()
    ///     .sections(8, Kilowatts::new(60.0))
    ///     .olevs(6, Kilowatts::new(40.0))
    ///     .build();
    /// let mut serial = build()?;
    /// let mut sharded = build()?;
    /// let a = serial.run(UpdateOrder::RoundRobin, 2_000)?;
    /// let b = sharded.run_parallel(
    ///     UpdateOrder::RoundRobin,
    ///     2_000,
    ///     ParallelConfig::new(2),
    /// )?;
    /// assert!(a.converged() && b.converged());
    /// // Same unique optimum (Theorem IV.1), whatever the sweep shape.
    /// assert!((a.final_welfare() - b.final_welfare()).abs() < 1e-9);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run_parallel(
        &mut self,
        order: UpdateOrder,
        max_updates: usize,
        config: ParallelConfig,
    ) -> Result<Outcome, GameError> {
        self.run_parallel_with(order, max_updates, config, &Telemetry::disabled())
    }

    /// [`Game::run_parallel`] with telemetry (see the module docs for the
    /// `engine.parallel.*` namespace).
    ///
    /// # Errors
    ///
    /// As [`Game::run_parallel`].
    pub fn run_parallel_with(
        &mut self,
        order: UpdateOrder,
        max_updates: usize,
        config: ParallelConfig,
        telemetry: &Telemetry,
    ) -> Result<Outcome, GameError> {
        config.validate()?;
        if config.shards == 1 {
            // Bit-identity at K=1: the serial engine IS the K=1 semantics.
            return self.run_with(order, max_updates, telemetry);
        }
        Ok(self.run_sweeps(order, max_updates, config, None, telemetry))
    }

    /// [`Game::run_parallel`] under a deterministic fault plan: dropped
    /// uplinks discard that round's move (the player retries next sweep),
    /// scheduled departures and crash points evict players, and the
    /// convergence quorum shrinks to the survivors — the parallel analogue
    /// of the hardened decentralized coordinator.
    ///
    /// Runs the sweep engine at any `shards ≥ 1` (no serial delegation, so
    /// fault accounting is identical across K).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidParameter`] for a zero shard or batch
    /// count.
    pub fn run_parallel_faulted(
        &mut self,
        order: UpdateOrder,
        max_updates: usize,
        config: ParallelConfig,
        plan: &FaultPlan,
        telemetry: &Telemetry,
    ) -> Result<Outcome, GameError> {
        config.validate()?;
        Ok(self.run_sweeps(order, max_updates, config, Some(plan), telemetry))
    }

    /// The sharded sweep core. Only ever called with validated config.
    fn run_sweeps(
        &mut self,
        order: UpdateOrder,
        max_updates: usize,
        config: ParallelConfig,
        plan: Option<&FaultPlan>,
        telemetry: &Telemetry,
    ) -> Outcome {
        let n_olevs = self.olev_count();
        let shards = config.shards;
        let batch = config.batch;
        let tolerance = self.tolerance;
        // Disjoint field borrows: workers share the immutable environment,
        // the coordinator alone mutates the schedule state between rounds.
        let satisfactions = &self.satisfactions;
        let caps = &self.caps;
        let cost = &self.cost;
        let p_max = &self.p_max;
        let windows = &self.windows;
        let scheduler = self.scheduler;
        let state = &mut self.state;

        let mut rng = match order {
            UpdateOrder::Random { seed } => Some(ChaCha8Rng::seed_from_u64(seed)),
            UpdateOrder::RoundRobin => None,
        };
        let mut order_buf: Vec<usize> = (0..n_olevs).collect();
        let mut active = vec![true; n_olevs];
        let mut replies = vec![0usize; n_olevs];
        let mut offer_seq = vec![0u64; n_olevs];
        let mut scratch_excl: Vec<f64> = Vec::with_capacity(caps.len());
        let mut report = DegradationReport::default();
        let mut trajectory = Vec::with_capacity(max_updates.min(4096));
        let mut updates = 0usize;
        let mut converged = false;

        telemetry.gauge("engine.parallel.shards", -1, shards as f64);
        if let Some(plan) = plan {
            for n in plan.departures_at(0) {
                if active[n] {
                    evict(
                        n,
                        0,
                        EvictionReason::Departed,
                        state,
                        satisfactions,
                        cost,
                        caps,
                        &mut active,
                        &mut report,
                    );
                }
            }
        }

        thread::scope(|scope| {
            let (result_tx, result_rx) = mpsc::channel::<ShardReply>();
            let mut task_txs = Vec::with_capacity(shards);
            for _ in 0..shards {
                let (task_tx, task_rx) = mpsc::channel::<ShardJob>();
                let result_tx = result_tx.clone();
                scope.spawn(move || {
                    shard_worker(
                        &task_rx,
                        &result_tx,
                        satisfactions,
                        cost,
                        caps,
                        p_max,
                        windows,
                        scheduler,
                    );
                });
                task_txs.push(task_tx);
            }
            drop(result_tx);

            let mut sweep = 0usize;
            let mut current_batch = batch;
            let mut best_change = f64::INFINITY;
            let mut stalled = 0usize;
            'run: while updates < max_updates {
                let _sweep_span = telemetry.span("engine.parallel.sweep", sweep as i64);
                if let Some(r) = &mut rng {
                    // Seeded Fisher–Yates: the sweep order is a pure
                    // function of (seed, sweep index).
                    for i in (1..order_buf.len()).rev() {
                        let j = r.gen_range(0..=i);
                        order_buf.swap(i, j);
                    }
                }
                let mut sweep_players = Vec::with_capacity(n_olevs);
                for &n in &order_buf {
                    if !active[n] {
                        continue;
                    }
                    if let Some(plan) = plan {
                        if plan.crash_point(n).is_some_and(|k| replies[n] >= k) {
                            evict(
                                n,
                                updates,
                                EvictionReason::Crashed("crash point reached".into()),
                                state,
                                satisfactions,
                                cost,
                                caps,
                                &mut active,
                                &mut report,
                            );
                            continue;
                        }
                    }
                    sweep_players.push(n);
                }
                if sweep_players.is_empty() {
                    break;
                }
                let mut sweep_max_change = 0.0f64;
                let mut sweep_polled = 0usize;
                let mut sweep_applied = 0usize;
                for round in sweep_players.chunks(current_batch) {
                    telemetry.counter("engine.parallel.rounds", -1, 1);
                    // Freeze the snapshot every round: all moves in a round
                    // respond to the same P_c, the bounded staleness window
                    // Theorem IV.1 tolerates.
                    let round_len = round.len();
                    let slots: Vec<Option<ShardMoves>> = if round_len == 1 {
                        // Fresh-load round of one (the endgame path, or a
                        // batch-1 config): computing inline skips the
                        // channel round-trip and is exactly the serial
                        // update.
                        let n = round[0];
                        let id = OlevId(n);
                        state.loads_excluding_into(id, &mut scratch_excl);
                        let (w0, w1) = windows[n];
                        let mut br = best_response(
                            satisfactions[n].as_ref(),
                            cost,
                            &caps[w0..w1],
                            &scratch_excl[w0..w1],
                            p_max[n],
                            scheduler,
                        );
                        if (w0, w1) != (0, caps.len()) {
                            let mut shares = vec![0.0; caps.len()];
                            shares[w0..w1].copy_from_slice(&br.allocation.shares);
                            br.allocation.shares = shares;
                        }
                        vec![Some(vec![(n, br)])]
                    } else {
                        let loads = state.schedule().loads().to_vec();
                        let chunk_len = round.len().div_ceil(shards);
                        let mut sent = 0usize;
                        for (slot, players) in round.chunks(chunk_len).enumerate() {
                            let task = ShardTask {
                                slot,
                                loads: loads.clone(),
                                players: players
                                    .iter()
                                    .map(|&n| (n, state.schedule().row(OlevId(n)).to_vec()))
                                    .collect(),
                            };
                            task_txs[slot]
                                .send(ShardJob::Compute(task))
                                .expect("shard worker alive");
                            sent += 1;
                        }
                        let mut slots: Vec<Option<ShardMoves>> = (0..sent).map(|_| None).collect();
                        for _ in 0..sent {
                            match result_rx.recv().expect("shard worker alive") {
                                ShardReply::Moves(slot, moves) => slots[slot] = Some(moves),
                                ShardReply::Commits(..) => {
                                    unreachable!("commit reply during compute phase")
                                }
                            }
                        }
                        slots
                    };
                    if matches!(config.apply, ApplyMode::Serialized) || round_len == 1 {
                        // Apply phase: sequential, in sweep order — the fixed
                        // seed-derived order that makes the run
                        // deterministic. Rounds of one (the endgame tail)
                        // always take this path: there is nothing to
                        // partition.
                        for (n, br) in slots.into_iter().flatten().flatten() {
                            if !active[n] {
                                continue;
                            }
                            sweep_polled += 1;
                            report.offers_sent += 1;
                            if let Some(plan) = plan {
                                let seq = offer_seq[n];
                                offer_seq[n] += 1;
                                let verdict = plan.uplink(n, seq, 0);
                                if verdict.dropped {
                                    // The move never reaches the grid: the
                                    // row stays stale and the player retries
                                    // next sweep — exactly the staleness
                                    // Theorem IV.1's bounded-asynchrony
                                    // argument covers.
                                    report.drops += 1;
                                    telemetry.counter("engine.parallel.dropped", n as i64, 1);
                                    continue;
                                }
                                if verdict.duplicated {
                                    // Second copy is discarded as already
                                    // applied, as the coordinator's
                                    // (olev, seq) dedup would.
                                    report.duplicates += 1;
                                }
                            }
                            let id = OlevId(n);
                            let before = state.schedule().olev_total(id);
                            // Potential-ascent guard: against the *current*
                            // loads, the welfare change of swapping this row
                            // in equals the player's utility change (exact
                            // potential). A same-round predecessor can have
                            // made the snapshot-computed move worsening —
                            // discard it and let the player respond to fresh
                            // loads next sweep.
                            state.loads_excluding_into(id, &mut scratch_excl);
                            let f_old = satisfactions[n].value(before)
                                - payment_for_schedule(
                                    cost,
                                    caps,
                                    &scratch_excl,
                                    state.schedule().row(id),
                                );
                            let f_new = satisfactions[n].value(br.total)
                                - payment_for_schedule(
                                    cost,
                                    caps,
                                    &scratch_excl,
                                    &br.allocation.shares,
                                );
                            if f_new - f_old < -1e-12 {
                                report.conflicts += 1;
                                telemetry.counter("engine.parallel.conflicts", n as i64, 1);
                                continue;
                            }
                            state.apply_row(id, &br.allocation.shares, satisfactions, cost, caps);
                            replies[n] += 1;
                            let change = (br.total - before).abs();
                            updates += 1;
                            sweep_applied += 1;
                            sweep_max_change = sweep_max_change.max(change);
                            let snapshot = Snapshot {
                                update: updates,
                                congestion: state.schedule().system_congestion(caps),
                                welfare: state.welfare(),
                                change,
                            };
                            let key = updates as i64;
                            telemetry.gauge("engine.welfare", key, snapshot.welfare);
                            telemetry.gauge("engine.congestion", key, snapshot.congestion);
                            telemetry.gauge("engine.change", key, snapshot.change);
                            trajectory.push(snapshot);
                            if let Some(plan) = plan {
                                for d in plan.departures_at(updates) {
                                    if active[d] {
                                        evict(
                                            d,
                                            updates,
                                            EvictionReason::Departed,
                                            state,
                                            satisfactions,
                                            cost,
                                            caps,
                                            &mut active,
                                            &mut report,
                                        );
                                    }
                                }
                            }
                            if updates >= max_updates {
                                break 'run;
                            }
                        }
                    } else {
                        // Partitioned apply (see [`ApplyMode::Partitioned`]).
                        //
                        // Phase 1: fault verdicts in sweep order — identical
                        // accounting to the serialized path — collecting the
                        // moves that survive the uplink.
                        let mut pending: Vec<(usize, BestResponse)> = Vec::new();
                        for (n, br) in slots.into_iter().flatten().flatten() {
                            if !active[n] {
                                continue;
                            }
                            sweep_polled += 1;
                            report.offers_sent += 1;
                            if let Some(plan) = plan {
                                let seq = offer_seq[n];
                                offer_seq[n] += 1;
                                let verdict = plan.uplink(n, seq, 0);
                                if verdict.dropped {
                                    report.drops += 1;
                                    telemetry.counter("engine.parallel.dropped", n as i64, 1);
                                    continue;
                                }
                                if verdict.duplicated {
                                    report.duplicates += 1;
                                }
                            }
                            pending.push((n, br));
                        }
                        // Phase 2: group by footprint overlap. A move's
                        // footprint is the support of its current row union
                        // the support of its proposed shares; its guard and
                        // commit read and write nothing outside it, so moves
                        // in different groups commute exactly.
                        let mut dsu = SectionDsu::new(caps.len());
                        let footprints: Vec<Vec<usize>> = pending
                            .iter()
                            .map(|&(n, ref br)| {
                                let row = state.schedule().row(OlevId(n));
                                let fp: Vec<usize> = (0..caps.len())
                                    .filter(|&c| row[c] > 0.0 || br.allocation.shares[c] > 0.0)
                                    .collect();
                                for w in fp.windows(2) {
                                    dsu.union(w[0], w[1]);
                                }
                                fp
                            })
                            .collect();
                        // Groups keyed by DSU root, ordered by first member
                        // in sweep order; footprint-free no-op moves get
                        // singleton groups.
                        let mut groups: Vec<Vec<usize>> = Vec::new();
                        let mut root_group = vec![usize::MAX; caps.len()];
                        for (i, fp) in footprints.iter().enumerate() {
                            match fp.first() {
                                None => groups.push(vec![i]),
                                Some(&c0) => {
                                    let root = dsu.find(c0);
                                    if root_group[root] == usize::MAX {
                                        root_group[root] = groups.len();
                                        groups.push(vec![i]);
                                    } else {
                                        groups[root_group[root]].push(i);
                                    }
                                }
                            }
                        }
                        telemetry.counter(
                            "engine.parallel.partitions",
                            sweep as i64,
                            groups.len() as u64,
                        );
                        // Phase 3: ship each partition to a shard worker for
                        // concurrent guard-and-commit against
                        // partition-local loads.
                        let mut verdict_slots: Vec<Option<Vec<(bool, f64)>>> =
                            (0..groups.len()).map(|_| None).collect();
                        for (g, members) in groups.iter().enumerate() {
                            let mut sections: Vec<usize> = members
                                .iter()
                                .flat_map(|&i| footprints[i].iter().copied())
                                .collect();
                            sections.sort_unstable();
                            sections.dedup();
                            let task = CommitTask {
                                slot: g,
                                loads: sections
                                    .iter()
                                    .map(|&c| state.schedule().loads()[c])
                                    .collect(),
                                members: members
                                    .iter()
                                    .map(|&i| {
                                        let (n, ref br) = pending[i];
                                        let row = state.schedule().row(OlevId(n));
                                        CommitMove {
                                            n,
                                            row: sections.iter().map(|&c| row[c]).collect(),
                                            total: state.schedule().olev_total(OlevId(n)),
                                            shares: sections
                                                .iter()
                                                .map(|&c| br.allocation.shares[c])
                                                .collect(),
                                            br_total: br.total,
                                        }
                                    })
                                    .collect(),
                                sections,
                            };
                            task_txs[g % shards]
                                .send(ShardJob::Commit(task))
                                .expect("shard worker alive");
                        }
                        for _ in 0..groups.len() {
                            match result_rx.recv().expect("shard worker alive") {
                                ShardReply::Commits(slot, v) => verdict_slots[slot] = Some(v),
                                ShardReply::Moves(..) => {
                                    unreachable!("compute reply during commit phase")
                                }
                            }
                        }
                        // Phase 4: deterministic merge, partition by
                        // partition in first-member sweep order, committing
                        // accepted moves through the sparse O(footprint)
                        // path. A mid-merge eviction invalidates the
                        // workers' frozen-state assumption (the zeroed row
                        // changes loads other partitions guarded against),
                        // so the rest of the round falls back to the
                        // serialized guard against live state.
                        let mut serial_fallback = false;
                        for (g, members) in groups.iter().enumerate() {
                            let verdicts = verdict_slots[g].take().expect("verdict collected");
                            for (k, &i) in members.iter().enumerate() {
                                let (n, ref br) = pending[i];
                                if !active[n] {
                                    // Evicted since its guard ran; its move
                                    // dies with it and the round is tainted.
                                    serial_fallback = true;
                                    continue;
                                }
                                let id = OlevId(n);
                                let change = if serial_fallback {
                                    let before = state.schedule().olev_total(id);
                                    state.loads_excluding_into(id, &mut scratch_excl);
                                    let f_old = satisfactions[n].value(before)
                                        - payment_for_schedule(
                                            cost,
                                            caps,
                                            &scratch_excl,
                                            state.schedule().row(id),
                                        );
                                    let f_new = satisfactions[n].value(br.total)
                                        - payment_for_schedule(
                                            cost,
                                            caps,
                                            &scratch_excl,
                                            &br.allocation.shares,
                                        );
                                    if f_new - f_old < -1e-12 {
                                        report.conflicts += 1;
                                        telemetry.counter("engine.parallel.conflicts", n as i64, 1);
                                        continue;
                                    }
                                    state.apply_row(
                                        id,
                                        &br.allocation.shares,
                                        satisfactions,
                                        cost,
                                        caps,
                                    );
                                    (br.total - before).abs()
                                } else {
                                    let (accepted, ch) = verdicts[k];
                                    if !accepted {
                                        report.conflicts += 1;
                                        telemetry.counter("engine.parallel.conflicts", n as i64, 1);
                                        continue;
                                    }
                                    let values: Vec<f64> = footprints[i]
                                        .iter()
                                        .map(|&c| br.allocation.shares[c])
                                        .collect();
                                    state.apply_row_sparse(
                                        id,
                                        &footprints[i],
                                        &values,
                                        satisfactions,
                                        cost,
                                        caps,
                                    );
                                    ch
                                };
                                replies[n] += 1;
                                updates += 1;
                                sweep_applied += 1;
                                sweep_max_change = sweep_max_change.max(change);
                                let snapshot = Snapshot {
                                    update: updates,
                                    congestion: state.schedule().system_congestion(caps),
                                    welfare: state.welfare(),
                                    change,
                                };
                                let key = updates as i64;
                                telemetry.gauge("engine.welfare", key, snapshot.welfare);
                                telemetry.gauge("engine.congestion", key, snapshot.congestion);
                                telemetry.gauge("engine.change", key, snapshot.change);
                                trajectory.push(snapshot);
                                if let Some(plan) = plan {
                                    for d in plan.departures_at(updates) {
                                        if active[d] {
                                            evict(
                                                d,
                                                updates,
                                                EvictionReason::Departed,
                                                state,
                                                satisfactions,
                                                cost,
                                                caps,
                                                &mut active,
                                                &mut report,
                                            );
                                            serial_fallback = true;
                                        }
                                    }
                                }
                                if updates >= max_updates {
                                    break 'run;
                                }
                            }
                        }
                    }
                }
                sweep += 1;
                // Convergence needs a *complete* calm sweep: every survivor
                // polled, every move applied (no drops, no conflicts),
                // nobody moved by the tolerance or more.
                if sweep_applied == sweep_polled && sweep_polled > 0 && sweep_max_change < tolerance
                {
                    converged = true;
                    telemetry.counter("engine.converged", -1, 1);
                    break;
                }
                // Endgame detection (see module docs): switch to rounds of
                // one when the sweep scale is already near the tolerance or
                // when batched sweeps stop making geometric progress.
                if sweep_max_change < best_change * 0.5 {
                    best_change = sweep_max_change;
                    stalled = 0;
                } else {
                    stalled += 1;
                }
                if current_batch > 1
                    && (sweep_max_change < tolerance * PARALLEL_ENDGAME_FACTOR
                        || stalled >= PARALLEL_STALL_SWEEPS)
                {
                    current_batch = 1;
                    telemetry.counter("engine.parallel.endgame", sweep as i64, 1);
                }
            }
        });

        Outcome {
            converged,
            updates,
            trajectory,
            degradation: report,
            end_welfare: state.welfare(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GameBuilder;
    use crate::pricing::{NonlinearPricing, PricingPolicy};
    use oes_units::Kilowatts;

    fn game(n: usize, c: usize) -> Game {
        GameBuilder::new()
            .sections(c, Kilowatts::new(60.0))
            .olevs(n, Kilowatts::new(50.0))
            .pricing(PricingPolicy::Nonlinear(NonlinearPricing::paper_default(
                15.0,
            )))
            .build()
            .expect("valid scenario")
    }

    #[test]
    fn zero_shards_or_batch_rejected() {
        let mut g = game(4, 4);
        let cfg = ParallelConfig {
            shards: 0,
            batch: 1,
            apply: ApplyMode::Serialized,
        };
        assert!(matches!(
            g.run_parallel(UpdateOrder::RoundRobin, 10, cfg),
            Err(GameError::InvalidParameter {
                name: "parallel shards",
                ..
            })
        ));
        let cfg = ParallelConfig {
            shards: 2,
            batch: 0,
            apply: ApplyMode::Serialized,
        };
        assert!(matches!(
            g.run_parallel(UpdateOrder::RoundRobin, 10, cfg),
            Err(GameError::InvalidParameter {
                name: "parallel batch",
                ..
            })
        ));
    }

    #[test]
    fn one_shard_is_bit_identical_to_serial() {
        let mut serial = game(6, 8);
        let mut parallel = game(6, 8);
        let a = serial.run(UpdateOrder::Random { seed: 7 }, 1500).unwrap();
        let b = parallel
            .run_parallel(
                UpdateOrder::Random { seed: 7 },
                1500,
                ParallelConfig::serial(),
            )
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(serial.schedule(), parallel.schedule());
    }

    #[test]
    fn same_seed_same_config_is_bit_identical() {
        let cfg = ParallelConfig::new(3).with_batch(4);
        let run = || {
            let mut g = game(9, 6);
            let out = g
                .run_parallel(UpdateOrder::Random { seed: 42 }, 3000, cfg)
                .unwrap();
            (out, g.schedule().clone())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "same-seed parallel runs must be bit-identical");
        assert_eq!(sa, sb);
        for (x, y) in a.trajectory.iter().zip(&b.trajectory) {
            assert_eq!(x.welfare.to_bits(), y.welfare.to_bits());
        }
    }

    #[test]
    fn sharded_sweeps_reach_the_serial_optimum() {
        let mut serial = game(8, 6);
        let reference = serial.run(UpdateOrder::RoundRobin, 4000).unwrap();
        assert!(reference.converged());
        for shards in [2, 4] {
            let mut g = game(8, 6);
            let out = g
                .run_parallel(
                    UpdateOrder::RoundRobin,
                    4000,
                    ParallelConfig::new(shards).with_batch(4),
                )
                .unwrap();
            assert!(out.converged(), "K={shards} did not converge");
            assert!(
                (out.final_welfare() - reference.final_welfare()).abs() < 1e-9,
                "K={shards}: {} vs {}",
                out.final_welfare(),
                reference.final_welfare()
            );
        }
    }

    #[test]
    fn parallel_welfare_ascends_monotonically() {
        // The potential-ascent guard in action: simultaneous snapshot
        // responses may conflict, but every *applied* move raises W, so the
        // trajectory cannot limit-cycle (the failure mode of unguarded
        // Jacobi sweeps).
        let mut g = game(6, 4);
        let out = g
            .run_parallel(
                UpdateOrder::RoundRobin,
                2000,
                ParallelConfig::new(2).with_batch(3),
            )
            .unwrap();
        assert!(out.converged());
        let mut last = f64::NEG_INFINITY;
        for s in &out.trajectory {
            assert!(
                s.welfare >= last - 1e-9,
                "welfare dropped at update {}: {last} -> {}",
                s.update,
                s.welfare
            );
            last = s.welfare;
        }
    }

    #[test]
    fn parallel_telemetry_namespace_is_emitted() {
        use oes_telemetry::{RingBufferRecorder, Telemetry};
        use std::sync::Arc;

        let ring = Arc::new(RingBufferRecorder::new(1 << 14));
        let telemetry = Telemetry::new(ring.clone());
        let mut g = game(6, 4);
        let out = g
            .run_parallel_with(
                UpdateOrder::RoundRobin,
                2000,
                ParallelConfig::new(2).with_batch(3),
                &telemetry,
            )
            .unwrap();
        assert!(out.converged());
        let events = ring.events();
        assert!(events.iter().any(|e| e.name == "engine.parallel.shards"));
        assert!(events.iter().any(|e| e.name == "engine.parallel.sweep"));
        let welfare_gauges = events.iter().filter(|e| e.name == "engine.welfare").count();
        assert_eq!(welfare_gauges, out.updates());
        assert_eq!(ring.counter_total("engine.converged"), 1);
    }

    #[test]
    fn departures_compose_with_parallel_sweeps() {
        let mut g = game(6, 4);
        let plan = FaultPlan::new(5).depart(2, 9).depart(5, 9);
        let out = g
            .run_parallel_faulted(
                UpdateOrder::RoundRobin,
                4000,
                ParallelConfig::new(2).with_batch(3),
                &plan,
                &Telemetry::disabled(),
            )
            .unwrap();
        assert!(out.converged());
        assert_eq!(out.degradation().evicted(), vec![2, 5]);
        assert_eq!(out.degradation().survivors(6), vec![0, 1, 3, 4]);
        // Departed rows are zeroed.
        assert_eq!(g.schedule().olev_total(OlevId(2)), 0.0);
        assert_eq!(g.schedule().olev_total(OlevId(5)), 0.0);
        // The survivors re-equilibrate to the 4-player optimum.
        let mut reference = game(4, 4);
        let r = reference.run(UpdateOrder::RoundRobin, 4000).unwrap();
        assert!(
            (out.final_welfare() - r.final_welfare()).abs() < 1e-6,
            "{} vs {}",
            out.final_welfare(),
            r.final_welfare()
        );
    }

    #[test]
    fn dropped_moves_only_delay_convergence() {
        let mut clean = game(5, 4);
        let reference = clean.run(UpdateOrder::RoundRobin, 4000).unwrap();
        let mut g = game(5, 4);
        let plan = FaultPlan::new(11).drop_probability(0.3);
        let out = g
            .run_parallel_faulted(
                UpdateOrder::RoundRobin,
                8000,
                ParallelConfig::new(2).with_batch(2),
                &plan,
                &Telemetry::disabled(),
            )
            .unwrap();
        assert!(out.converged(), "drops must not prevent convergence");
        assert!(out.degradation().drops > 0, "plan must actually drop");
        assert!(
            (out.final_welfare() - reference.final_welfare()).abs() < 1e-9,
            "{} vs {}",
            out.final_welfare(),
            reference.final_welfare()
        );
    }

    #[test]
    fn crash_point_evicts_mid_run() {
        let mut g = game(4, 4);
        let plan = FaultPlan::new(3).crash(1, 2);
        let out = g
            .run_parallel_faulted(
                UpdateOrder::RoundRobin,
                4000,
                ParallelConfig::new(2).with_batch(2),
                &plan,
                &Telemetry::disabled(),
            )
            .unwrap();
        assert!(out.converged());
        assert_eq!(out.degradation().evicted(), vec![1]);
        assert!(matches!(
            out.degradation().evictions[0].reason,
            EvictionReason::Crashed(_)
        ));
        assert_eq!(g.schedule().olev_total(OlevId(1)), 0.0);
    }

    /// `spans` disjoint corridors of `sections_per_span` sections, each
    /// populated by `n_per_span` OLEVs windowed to that corridor — the
    /// footprint structure partitioned applies exploit.
    fn windowed_game(n_per_span: usize, spans: usize, sections_per_span: usize) -> Game {
        let mut b = GameBuilder::new().sections(spans * sections_per_span, Kilowatts::new(60.0));
        for s in 0..spans {
            b = b.olevs_in(
                n_per_span,
                Kilowatts::new(50.0),
                s * sections_per_span..(s + 1) * sections_per_span,
            );
        }
        b.pricing(PricingPolicy::Nonlinear(NonlinearPricing::paper_default(
            15.0,
        )))
        .build()
        .expect("valid windowed scenario")
    }

    #[test]
    fn partitioned_apply_reaches_the_serial_optimum() {
        let mut serial = game(8, 6);
        let reference = serial.run(UpdateOrder::RoundRobin, 4000).unwrap();
        assert!(reference.converged());
        let mut g = game(8, 6);
        let out = g
            .run_parallel(
                UpdateOrder::RoundRobin,
                4000,
                ParallelConfig::new(2)
                    .with_batch(4)
                    .with_apply(ApplyMode::Partitioned),
            )
            .unwrap();
        assert!(out.converged());
        assert!(
            (out.final_welfare() - reference.final_welfare()).abs() < 1e-9,
            "{} vs {}",
            out.final_welfare(),
            reference.final_welfare()
        );
    }

    #[test]
    fn disjoint_windows_split_rounds_into_many_partitions() {
        use oes_telemetry::{RingBufferRecorder, Sample, Telemetry};
        use std::sync::Arc;

        let ring = Arc::new(RingBufferRecorder::new(1 << 15));
        let telemetry = Telemetry::new(ring.clone());
        let mut g = windowed_game(2, 4, 3);
        let out = g
            .run_parallel_with(
                UpdateOrder::RoundRobin,
                6000,
                ParallelConfig::new(2)
                    .with_batch(8)
                    .with_apply(ApplyMode::Partitioned),
                &telemetry,
            )
            .unwrap();
        assert!(out.converged());
        // A full-batch round holds OLEVs from all four disjoint corridors,
        // so at least one partitioned round must split into several groups.
        let max_groups = ring
            .events()
            .iter()
            .filter(|e| e.name == "engine.parallel.partitions")
            .map(|e| match e.sample {
                Sample::Counter { delta } => delta,
                _ => 0,
            })
            .max()
            .expect("partitioned rounds emit the partitions counter");
        assert!(
            max_groups >= 2,
            "expected multi-group rounds, got {max_groups}"
        );
        // Rows stay inside their window.
        let sections = 4 * 3;
        for n in 0..8 {
            let (w0, w1) = g.windows()[n];
            let row = g.schedule().row(OlevId(n));
            for (c, &v) in row.iter().enumerate().take(sections) {
                if c < w0 || c >= w1 {
                    assert_eq!(v, 0.0, "olev {n} leaked load into section {c}");
                }
            }
        }
    }

    #[test]
    fn windowed_partitioned_welfare_matches_windowed_serial() {
        let mut serial = windowed_game(2, 3, 4);
        let reference = serial.run(UpdateOrder::RoundRobin, 6000).unwrap();
        assert!(reference.converged());
        let mut g = windowed_game(2, 3, 4);
        let out = g
            .run_parallel(
                UpdateOrder::RoundRobin,
                6000,
                ParallelConfig::new(3)
                    .with_batch(6)
                    .with_apply(ApplyMode::Partitioned),
            )
            .unwrap();
        assert!(out.converged());
        assert!(
            (out.final_welfare() - reference.final_welfare()).abs() < 1e-9,
            "{} vs {}",
            out.final_welfare(),
            reference.final_welfare()
        );
    }

    #[test]
    fn zero_budget_parallel_run_reports_current_state() {
        let mut g = game(4, 4);
        let out = g
            .run_parallel(UpdateOrder::RoundRobin, 0, ParallelConfig::new(2))
            .unwrap();
        assert_eq!(out.updates(), 0);
        assert!(!out.converged());
        assert_eq!(out.final_welfare().to_bits(), g.welfare().to_bits());
    }
}
