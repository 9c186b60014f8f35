//! Traffic microsimulation throughput benchmark: vehicle-updates/sec for
//! the lane-indexed engine vs the seed full-population scan, and for the
//! discrete-event engine vs per-tick stepping.
//!
//! Two families of points share one artifact:
//!
//! - **Co-simulation points** (`"indexed"` / `"naive"`): a signalized
//!   grid co-simulation (2-lane lattice, charging spans, span detectors,
//!   40% OLEV participation) with a σ > 0 fleet. Each point fills the
//!   network in indexed mode until the insertion backlog drains, then
//!   switches the engine to the measured [`ScanMode`] and times whole
//!   co-simulation steps.
//! - **Raw-engine points** (`"ticked-raw"` / `"event"`): parallel
//!   open-road corridors ([`build_corridor_scenario`]) carrying a bare
//!   [`Simulation`] with a σ = 0 ([`VehicleParams::deterministic`])
//!   fleet, timed either tick by tick or through [`EventSimulation`].
//!   σ = 0 is the regime where the two engines are bit-identical (see
//!   `oes_traffic::event_sim`), so the twin runs must agree exactly —
//!   and the event column's win is the sleeping fleet it never touches.
//!   The per-tick differential additionally covers the signalized
//!   lattice, where dense signal-driven transients exercise every wake
//!   path but keep most of the fleet legitimately awake.
//!
//! Throughput is *vehicle updates per second*: the sum of active vehicle
//! counts over the measured steps divided by wall-clock time. For the
//! event engine that is *effective* updates — a sleeping vehicle still
//! advances simulated time, the engine just doesn't spend work on it.
//!
//! Correctness is gated inside the benchmark. Co-simulation points fold
//! the full per-tick state — each vehicle's `(id, route index, lane,
//! position bits, speed bits)`, every detector's occupancy bits, and the
//! co-simulation's received-energy bits — into an FNV-1a digest that
//! must agree between indexed and naive at every fleet size. Raw points
//! digest the flushed end state, which must agree between ticked and
//! event at every fleet size both measure; a per-tick twin differential
//! ([`verify_event_equivalence`]) runs before any timing.
//!
//! The binary writes `BENCH_traffic.json`; with `--check` it gates the
//! indexed and event [`GATED_FLEET`] points against the committed
//! baseline (`crates/bench/baselines/traffic.json`) by
//! [`REGRESSION_FACTOR`], and on hardware with at least
//! [`MIN_CORES_FOR_SPEEDUP_GATE`] cores the indexed-over-naive speedup
//! at [`GATED_FLEET`] must clear [`SPEEDUP_FLOOR`] and the
//! event-over-ticked speedup must clear [`EVENT_SPEEDUP_FLOOR`]. On
//! smaller machines the speedup gates are skipped with a message — the
//! digest differentials still run everywhere. `--seed <u64>` reshuffles
//! the scenario (grid, OD pool, participation draw); seed 0 is the
//! committed-baseline scenario, and baseline gates only apply to it.

use std::time::Instant;

use oes_traffic::network::EdgeId;
use oes_traffic::routing::shortest_path;
use oes_traffic::vehicle::VehicleParams;
use oes_traffic::{
    EnergyModel, EventSimulation, GridNetworkBuilder, HourlyCounts, PoissonArrivals, RoadNetwork,
    ScanMode, Simulation, SimulationConfig, SpanDetector, StepMode,
};
use oes_units::rng::SplitMix64;
use oes_units::{Meters, MetersPerSecond, Seconds, SectionId, StateOfCharge};
use oes_wpt::{ChargingSection, ChargingSpan, CoSimulation, OlevSpec};

/// Fleet sizes every co-simulation (indexed/naive) run measures.
pub const TRAFFIC_FLEETS: [usize; 3] = [256, 2048, 8192];

/// Fleet sizes the raw event-engine column measures. The last point is
/// the ISSUE's scale target; only the event engine runs it (a ticked
/// twin at that size would dominate the whole benchmark's runtime).
pub const EVENT_FLEETS: [usize; 3] = [2048, 8192, 100_000];

/// Fleet sizes measured by *both* raw engines — the subset of
/// [`EVENT_FLEETS`] where the end-state digests are cross-checked and a
/// speedup can be quoted.
pub const RAW_TICKED_FLEETS: [usize; 2] = [2048, 8192];

/// The fleet size the CI gates watch.
pub const GATED_FLEET: usize = 8192;

/// Minimum indexed-over-naive throughput ratio at [`GATED_FLEET`]
/// required on capable hardware.
pub const SPEEDUP_FLOOR: f64 = 5.0;

/// Minimum event-over-ticked raw-engine throughput ratio at
/// [`GATED_FLEET`] required on capable hardware (the ISSUE's acceptance
/// criterion for the discrete-event engine).
pub const EVENT_SPEEDUP_FLOOR: f64 = 10.0;

/// Cores below which the speedup gates are skipped: on a single shared
/// core a CI neighbor can stall either run arbitrarily, so the ratio
/// measures the scheduler rather than the engine.
pub const MIN_CORES_FOR_SPEEDUP_GATE: usize = 2;

/// How much slower than the committed baseline a gated point may get
/// before `--check` fails the job.
pub const REGRESSION_FACTOR: f64 = 2.0;

/// Fill-phase step cap: insertion is headway-limited, so a congested
/// grid may never fully drain its backlog — measure anyway.
const FILL_STEP_CAP: usize = 900;

/// Ticks of the pre-timing per-tick twin differential on the
/// signalized lattice (covers several full signal cycles).
const EVENT_DIFF_TICKS: usize = 220;

/// Ticks of the corridor-family twin differential: long enough for the
/// small fleet to insert, platoon, cross the mid-route seam (~290 ticks
/// in at 4 km and 13.9 m/s), and start exiting.
const CORRIDOR_DIFF_TICKS: usize = 700;

/// Fleet of the pre-timing differentials (small enough to be cheap,
/// large enough to exercise queues, signals, and lane changes).
const DIFF_FLEET: usize = 96;

/// One measured point.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficPoint {
    /// Engine path: `"indexed"`, `"naive"`, `"ticked-raw"`, or
    /// `"event"`.
    pub mode: &'static str,
    /// Queued fleet size `N`.
    pub vehicles: usize,
    /// Measured steps.
    pub steps: usize,
    /// Mean active vehicles over the measured steps.
    pub mean_active: f64,
    /// Total vehicle updates (sum of active counts per step).
    pub vehicle_updates: u64,
    /// Wall-clock seconds inside the measured steps.
    pub seconds: f64,
    /// `vehicle_updates / seconds`.
    pub updates_per_sec: f64,
    /// FNV-1a state digest (correctness tripwire). Co-simulation points
    /// fold every measured tick; raw points fold the flushed end state.
    /// Within each family the paired modes must agree bit for bit.
    pub digest: u64,
}

impl TrafficPoint {
    /// Serializes the point as one JSON object with fixed field order.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"vehicles\":{},\"steps\":{},\
             \"mean_active\":{:.1},\"vehicle_updates\":{},\
             \"seconds\":{:.6},\"updates_per_sec\":{:.1},\
             \"digest\":\"{:016x}\"}}",
            self.mode,
            self.vehicles,
            self.steps,
            self.mean_active,
            self.vehicle_updates,
            self.seconds,
            self.updates_per_sec,
            self.digest
        )
    }
}

/// The artifact label for a scan mode.
#[must_use]
pub fn mode_label(mode: ScanMode) -> &'static str {
    match mode {
        ScanMode::Indexed => "indexed",
        ScanMode::NaiveScan => "naive",
    }
}

/// The artifact label for a raw-engine step mode.
#[must_use]
pub fn raw_mode_label(mode: StepMode) -> &'static str {
    match mode {
        StepMode::Ticked => "ticked-raw",
        StepMode::EventDriven => "event",
    }
}

/// FNV-1a 64-bit state digest.
#[derive(Debug, Clone, Copy)]
struct StateDigest(u64);

impl StateDigest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// The three scenario seeds for a `--seed` value: grid layout, OD
/// stream, and co-simulation participation draw. Seed 0 reproduces the
/// committed-baseline constants exactly; any other seed derives a fresh
/// triple through SplitMix64 so differently-seeded runs share nothing.
#[must_use]
pub fn scenario_seeds(seed: u64) -> (u64, u64, u64) {
    if seed == 0 {
        return (41, 0x6f65_735f_7472_6166, 23);
    }
    let mut s = SplitMix64::new(seed);
    (s.next_u64(), s.next_u64(), s.next_u64())
}

/// Lattice side for a fleet: enough one-way blocks that the fleet fits
/// without gridlocking, clamped to keep route lengths sane. The upper
/// clamp admits the 100k event-engine point (64 × 64 ≈ 16k directed
/// lane-edges).
fn grid_dim(fleet: usize) -> usize {
    let d = (fleet as f64 / 24.0).sqrt().ceil() as usize;
    d.clamp(4, 64)
}

/// Distinct origin–destination routes the queued fleet cycles through.
/// Scales with the fleet so the 100k point spreads over more insertion
/// edges; the historical 64-route pool is the floor, so every fleet the
/// committed baselines cover is unchanged.
fn od_pool(fleet: usize) -> usize {
    (fleet / 256).clamp(64, 512)
}

/// Measured steps per fleet: fewer at large `N` so the slow engines
/// stay affordable while the update count stays comparable.
fn measured_steps(fleet: usize) -> usize {
    if fleet >= 8192 {
        10
    } else if fleet >= 2048 {
        32
    } else {
        96
    }
}

/// Draws the seeded strictly-southeast OD pool: such pairs are always
/// routable on the one-way east/south lattice.
fn scenario_routes(
    grid: &oes_traffic::GridNetwork,
    dim: usize,
    seed: u64,
    pool: usize,
) -> Vec<Vec<EdgeId>> {
    // SplitMix64 rather than the simulator's ChaCha stream, so the OD pool
    // stays independent of the traffic engine's draws.
    let mut stream = SplitMix64::new(seed);
    let mut draw = |bound: usize| stream.below(bound as u64) as usize;
    let mut routes = Vec::with_capacity(pool);
    while routes.len() < pool {
        let r0 = draw(dim - 1);
        let c0 = draw(dim - 1);
        let r1 = r0 + 1 + draw(dim - 1 - r0);
        let c1 = c0 + 1 + draw(dim - 1 - c0);
        let route = shortest_path(grid.network(), grid.node_at(r0, c0), grid.node_at(r1, c1))
            .expect("southeast OD pairs are routable");
        routes.push(route);
    }
    routes
}

/// Builds the benchmark co-simulation: a 2-lane signalized lattice sized
/// for the fleet, `fleet` vehicles queued over a seeded southeast-bound
/// OD pool, charging spans and detectors mid-route, 40% participation.
#[must_use]
pub fn build_scenario(fleet: usize, seed: u64) -> CoSimulation {
    let (grid_seed, od_seed, cosim_seed) = scenario_seeds(seed);
    let dim = grid_dim(fleet);
    let grid = GridNetworkBuilder::new()
        .size(dim, dim)
        .lanes(2)
        .seed(grid_seed)
        .build();
    let routes = scenario_routes(&grid, dim, od_seed, od_pool(fleet));
    let mut sim = grid.sim;
    // Spans and detectors mid-route on edges the pool actually traverses,
    // so detector occupancy and received energy feed the state digest.
    for (k, route) in routes.iter().take(4).enumerate() {
        let edge = route[route.len() / 2];
        sim.add_detector(SpanDetector::new(
            format!("bench-span-{k}"),
            edge,
            Meters::new(20.0),
            Meters::new(180.0),
        ));
    }
    for i in 0..fleet {
        sim.queue_vehicle(
            routes[i % routes.len()].clone(),
            VehicleParams::passenger_car(),
        );
    }
    let mut co = CoSimulation::new(
        sim,
        EnergyModel::chevy_spark_ev(),
        OlevSpec::chevy_spark_default(),
        0.4,
        StateOfCharge::saturating(0.5),
        cosim_seed,
    );
    for (k, route) in routes.iter().take(4).enumerate() {
        co.add_span(ChargingSpan {
            edge: route[route.len() / 2],
            start: Meters::new(20.0),
            end: Meters::new(180.0),
            section: ChargingSection::paper_default(SectionId(k)),
        });
    }
    co
}

/// Lattice side for the raw-engine points: sparser than the
/// co-simulation grid so the fleet is free-flow-dominated — the regime
/// the event engine exists for (the paper's arterials are not
/// gridlocked; they carry cruising platoons between signals).
fn raw_grid_dim(fleet: usize) -> usize {
    let d = (fleet as f64 / 6.0).sqrt().ceil() as usize;
    d.clamp(8, 64)
}

/// OD routes for the raw-engine points: more insertion edges than the
/// co-simulation pool so large fleets actually reach the road.
fn raw_od_pool(fleet: usize) -> usize {
    (fleet / 16).clamp(64, 1024)
}

/// Builds the raw-engine scenario: an arterial lattice (long blocks,
/// long-green signals) over the same seeded OD machinery as
/// [`build_scenario`], carrying a bare [`Simulation`] with a σ = 0
/// fleet — the regime where the event and ticked engines are
/// bit-identical, so twin runs built from the same `(fleet, seed)` can
/// be compared exactly. ([`Simulation`] is not `Clone`; twins are two
/// calls with identical arguments.)
#[must_use]
pub fn build_raw_scenario(fleet: usize, seed: u64) -> Simulation {
    let (grid_seed, od_seed, _) = scenario_seeds(seed);
    let dim = raw_grid_dim(fleet);
    let grid = GridNetworkBuilder::new()
        .size(dim, dim)
        .lanes(2)
        .block_length(Meters::new(800.0))
        .signal(Seconds::new(55.0), Seconds::new(25.0))
        .seed(grid_seed)
        .build();
    let routes = scenario_routes(&grid, dim, od_seed, raw_od_pool(fleet));
    let mut sim = grid.sim;
    for (k, route) in routes.iter().take(4).enumerate() {
        sim.add_detector(SpanDetector::new(
            format!("bench-span-{k}"),
            route[route.len() / 2],
            Meters::new(20.0),
            Meters::new(180.0),
        ));
    }
    for i in 0..fleet {
        sim.queue_vehicle(
            routes[i % routes.len()].clone(),
            VehicleParams::deterministic(),
        );
    }
    sim
}

/// Edges per open-road corridor in the raw event-engine scenario. Every
/// seam a sleeper reaches forces a wake (frozen replay never crosses an
/// edge), and each platoon-head wake cascades a few followers, so seam
/// count is the dominant awake source in free flow — two long edges keep
/// one mid-route seam in play without letting it dominate.
const CORRIDOR_EDGES: usize = 2;

/// Length of each corridor edge.
const CORRIDOR_EDGE_LEN: f64 = 4000.0;

/// Corridor speed limit (arterial 50 km/h); with
/// [`VehicleParams::deterministic`]'s 55.6 m/s ceiling this is every
/// vehicle's effective desired speed.
const CORRIDOR_LIMIT: f64 = 13.9;

/// Poisson demand per corridor. 250 veh/h over two lanes at 13.9 m/s
/// is ~400 m mean per-lane spacing — sparse highway flow. The spacing
/// is load-bearing: it must stay above the obstacle-scan lookahead plus
/// a minimum sleep window (~193 m), because a vehicle whose leader is
/// closer than that can neither plain-sleep (clearance-capped below
/// [`MIN_SLEEP_TICKS`](oes_traffic::EventSimulation)) nor convoy-sleep
/// while that leader is awake. Below the threshold, a steady conveyor
/// keeps each lane's lead vehicle perpetually within a couple of ticks
/// of a seam or the route end — permanently awake — and wake cascades
/// unzip the whole lane behind it.
const CORRIDOR_ARRIVALS_PER_HOUR: u32 = 250;

/// Warm-up steps before timing: one full traversal (8 km at 13.9 m/s is
/// ~576 ticks) plus slack, so arrivals and exits balance and the
/// measured window is steady-state flow with the active count near the
/// nominal fleet.
const CORRIDOR_SETTLE_STEPS: usize = 700;

/// Parallel corridors for a fleet, sized so the steady-state active
/// count matches the nominal fleet: each corridor carries
/// [`CORRIDOR_ARRIVALS_PER_HOUR`] and holds ~40 vehicles in flight
/// (arrival rate × traversal time).
fn corridor_count(fleet: usize) -> usize {
    (fleet / 40).clamp(4, 2560)
}

/// Builds the raw event-engine throughput scenario: parallel open-road
/// corridors (no signals) fed by seeded per-corridor Poisson demand
/// with a σ = 0 fleet — sparse free-flowing highway traffic, the regime
/// the discrete-event engine targets and the paper's highway charging
/// lanes live in. The signalized lattice ([`build_raw_scenario`]) stays
/// a differential scenario: dense signal-driven transients are the hard
/// *correctness* case, but they keep most of the fleet legitimately
/// awake, so they make a poor throughput showcase.
#[must_use]
pub fn build_corridor_scenario(fleet: usize, seed: u64) -> Simulation {
    let (net_seed, od_seed, _) = scenario_seeds(seed);
    let corridors = corridor_count(fleet);
    let mut net = RoadNetwork::new();
    let mut routes = Vec::with_capacity(corridors);
    for _ in 0..corridors {
        let mut from = net.add_node();
        let mut route = Vec::with_capacity(CORRIDOR_EDGES);
        for _ in 0..CORRIDOR_EDGES {
            let to = net.add_node();
            let edge = net
                .add_edge_with_lanes(
                    from,
                    to,
                    Meters::new(CORRIDOR_EDGE_LEN),
                    MetersPerSecond::new(CORRIDOR_LIMIT),
                    2,
                )
                .expect("corridor edges are well-formed");
            route.push(edge);
            from = to;
        }
        routes.push(route);
    }
    let mut sim = Simulation::new(net, SimulationConfig::default(), net_seed);
    for (k, route) in routes.iter().take(4).enumerate() {
        sim.add_detector(SpanDetector::new(
            format!("corridor-span-{k}"),
            route[CORRIDOR_EDGES / 2],
            Meters::new(20.0),
            Meters::new(180.0),
        ));
    }
    for (c, route) in routes.iter().enumerate() {
        sim.add_demand(
            PoissonArrivals::new(
                HourlyCounts::new(vec![CORRIDOR_ARRIVALS_PER_HOUR]),
                od_seed.wrapping_add(c as u64),
            ),
            route.clone(),
            VehicleParams::deterministic(),
        );
    }
    sim
}

/// Folds one tick's full observable state into the digest.
fn absorb_tick(co: &CoSimulation, digest: &mut StateDigest) {
    absorb_raw_state(co.traffic(), digest);
    digest.write_u64(co.total_received().value().to_bits());
}

/// Folds a bare simulation's full observable state into the digest:
/// every vehicle's id/edge/route-index/lane/position-bits/speed-bits
/// plus every detector's occupancy bits. The edge matters even though
/// the route index is folded in: scenario builders that relabel
/// symmetric corridors under a different seed would otherwise hash to
/// the same value.
fn absorb_raw_state(sim: &Simulation, digest: &mut StateDigest) {
    for v in sim.vehicles() {
        digest.write_u64(v.id.0);
        digest.write_u64(v.current_edge().0 as u64);
        digest.write_u64(v.route_index as u64);
        digest.write_u64(u64::from(v.lane));
        digest.write_u64(v.position.value().to_bits());
        digest.write_u64(v.speed.value().to_bits());
    }
    for d in sim.detectors() {
        digest.write_u64(d.total_occupancy().value().to_bits());
    }
}

/// Measures one co-simulation `(mode, fleet)` point.
///
/// The fill phase always runs indexed so both modes reach an identical
/// (bit-for-bit) warm state cheaply; the measured phase then runs in
/// `mode`. The naive point also switches the co-simulation to the seed
/// reference span walk, so its measured path is the full pre-index code.
#[must_use]
pub fn measure_point(mode: ScanMode, fleet: usize, seed: u64) -> TrafficPoint {
    let mut co = build_scenario(fleet, seed);
    let mut fill = 0;
    while co.traffic().insertion_backlog() > 0 && fill < FILL_STEP_CAP {
        co.step();
        fill += 1;
    }
    co.traffic_mut().set_scan_mode(mode);
    co.set_reference_span_matching(mode == ScanMode::NaiveScan);
    let steps = measured_steps(fleet);
    let mut digest = StateDigest::new();
    let mut vehicle_updates = 0u64;
    let mut seconds = 0.0;
    for _ in 0..steps {
        let t = Instant::now();
        co.step();
        seconds += t.elapsed().as_secs_f64();
        vehicle_updates += co.traffic().active_count() as u64;
        absorb_tick(&co, &mut digest);
    }
    TrafficPoint {
        mode: mode_label(mode),
        vehicles: fleet,
        steps,
        mean_active: vehicle_updates as f64 / steps as f64,
        vehicle_updates,
        seconds,
        updates_per_sec: vehicle_updates as f64 / seconds.max(1e-12),
        digest: digest.finish(),
    }
}

/// Measured steps for the raw corridor points: longer windows than the
/// co-simulation grid (the per-step cost is lower, and short windows
/// would time noise).
fn raw_measured_steps(fleet: usize) -> usize {
    if fleet >= 100_000 {
        12
    } else if fleet >= 8192 {
        48
    } else {
        96
    }
}

/// Measures one raw-engine `(mode, fleet)` point on the open-road
/// corridor scenario.
///
/// Each engine warms its own twin from t = 0 — the σ = 0 fleet makes
/// the two warm-ups bit-identical, so both reach the same steady state
/// (`CORRIDOR_SETTLE_STEPS` of demand-driven fill, one full
/// traversal) and run the same measured ticks. The timed region excludes the event
/// engine's [`EventSimulation::flush`]; the digest is taken over the
/// flushed end state after timing, where the twins must agree exactly.
#[must_use]
pub fn measure_raw_point(mode: StepMode, fleet: usize, seed: u64) -> TrafficPoint {
    let steps = raw_measured_steps(fleet);
    let mut digest = StateDigest::new();
    let mut vehicle_updates = 0u64;
    let mut seconds = 0.0;
    match mode {
        StepMode::Ticked => {
            let mut sim = build_corridor_scenario(fleet, seed);
            for _ in 0..CORRIDOR_SETTLE_STEPS {
                sim.step();
            }
            for _ in 0..steps {
                let t = Instant::now();
                sim.step();
                seconds += t.elapsed().as_secs_f64();
                vehicle_updates += sim.active_count() as u64;
            }
            absorb_raw_state(&sim, &mut digest);
        }
        StepMode::EventDriven => {
            let mut ev = EventSimulation::new(build_corridor_scenario(fleet, seed));
            for _ in 0..CORRIDOR_SETTLE_STEPS {
                ev.step();
            }
            for _ in 0..steps {
                let t = Instant::now();
                ev.step();
                seconds += t.elapsed().as_secs_f64();
                vehicle_updates += ev.traffic().active_count() as u64;
            }
            ev.flush();
            absorb_raw_state(ev.traffic(), &mut digest);
        }
    }
    TrafficPoint {
        mode: raw_mode_label(mode),
        vehicles: fleet,
        steps,
        mean_active: vehicle_updates as f64 / steps as f64,
        vehicle_updates,
        seconds,
        updates_per_sec: vehicle_updates as f64 / seconds.max(1e-12),
        digest: digest.finish(),
    }
}

/// Measures every benchmarked point: both scan modes at every
/// co-simulation fleet size, then the raw ticked/event pairs.
#[must_use]
pub fn measure_grid(seed: u64) -> Vec<TrafficPoint> {
    let mut points = Vec::new();
    for &n in &TRAFFIC_FLEETS {
        points.push(measure_point(ScanMode::Indexed, n, seed));
        points.push(measure_point(ScanMode::NaiveScan, n, seed));
    }
    for &n in &EVENT_FLEETS {
        if RAW_TICKED_FLEETS.contains(&n) {
            points.push(measure_raw_point(StepMode::Ticked, n, seed));
        }
        points.push(measure_raw_point(StepMode::EventDriven, n, seed));
    }
    points
}

/// Quick pre-timing differential on a small fleet: indexed and naive
/// runs must produce the same digest over the same vehicle updates, and
/// the scenario must actually move vehicles. Run by the binary before
/// the expensive grid.
///
/// # Errors
///
/// Returns a description of the divergence.
pub fn verify_scan_equivalence(seed: u64) -> Result<(), String> {
    let a = measure_point(ScanMode::Indexed, DIFF_FLEET, seed);
    let b = measure_point(ScanMode::NaiveScan, DIFF_FLEET, seed);
    if a.vehicle_updates == 0 {
        return Err("small scenario moved no vehicles".into());
    }
    if a.vehicle_updates != b.vehicle_updates {
        return Err(format!(
            "update counts differ: indexed {} vs naive {}",
            a.vehicle_updates, b.vehicle_updates
        ));
    }
    if a.digest != b.digest {
        return Err(format!(
            "state digests differ: indexed {:016x} vs naive {:016x}",
            a.digest, b.digest
        ));
    }
    Ok(())
}

/// Per-tick twin differential between the ticked and event engines on
/// small σ = 0 fleets, once per scenario family: the signalized lattice
/// (insertion waves, signal cycles, queue discharge, lane changes) and
/// the open-road corridors (platoon convoys, seam crossings). After
/// every tick the event twin is flushed and the *entire* observable
/// state (vehicle bits, detector bits) must match the ticked twin bit
/// for bit. Run by the binary before any raw-engine timing.
///
/// # Errors
///
/// Returns the first divergent tick.
pub fn verify_event_equivalence(seed: u64) -> Result<(), String> {
    /// A `(label, scenario builder, differential ticks)` row.
    type ScenarioRow = (&'static str, fn(usize, u64) -> Simulation, usize);
    let scenarios: [ScenarioRow; 2] = [
        ("grid", build_raw_scenario, EVENT_DIFF_TICKS),
        ("corridor", build_corridor_scenario, CORRIDOR_DIFF_TICKS),
    ];
    for (label, build, ticks) in scenarios {
        let mut ticked = build(DIFF_FLEET, seed);
        let mut event = EventSimulation::new(build(DIFF_FLEET, seed));
        let mut moved = 0u64;
        for tick in 0..ticks {
            ticked.step();
            event.step();
            event.flush();
            moved += ticked.active_count() as u64;
            let mut a = StateDigest::new();
            let mut b = StateDigest::new();
            absorb_raw_state(&ticked, &mut a);
            absorb_raw_state(event.traffic(), &mut b);
            let (a, b) = (a.finish(), b.finish());
            if a != b {
                return Err(format!(
                    "{label} tick {tick}: ticked {a:016x} vs event {b:016x}"
                ));
            }
        }
        if moved == 0 {
            return Err(format!("{label} twin scenario moved no vehicles"));
        }
        if event.sleeping_count() + event.awake_count() != ticked.active_count() {
            return Err(format!(
                "{label}: event engine lost track of the active fleet"
            ));
        }
    }
    Ok(())
}

/// Proves the measured grid is internally consistent: at every
/// co-simulation fleet size the indexed and naive points saw
/// bit-identical per-tick state, and at every [`RAW_TICKED_FLEETS`]
/// size the ticked and event twins reached bit-identical end states
/// over the same updates.
///
/// # Errors
///
/// Returns a description of the first benchmarked point that diverges.
pub fn verify_mode_identity(points: &[TrafficPoint]) -> Result<(), String> {
    let at = |mode: &str, n: usize| points.iter().find(|p| p.mode == mode && p.vehicles == n);
    for &n in &TRAFFIC_FLEETS {
        let (Some(ix), Some(nv)) = (at("indexed", n), at("naive", n)) else {
            return Err(format!("grid is missing a scan mode at N={n}"));
        };
        if ix.vehicle_updates != nv.vehicle_updates {
            return Err(format!(
                "N={n}: update counts differ (indexed {} vs naive {})",
                ix.vehicle_updates, nv.vehicle_updates
            ));
        }
        if ix.digest != nv.digest {
            return Err(format!(
                "N={n}: state digests differ (indexed {:016x} vs naive {:016x})",
                ix.digest, nv.digest
            ));
        }
    }
    for &n in &RAW_TICKED_FLEETS {
        let (Some(tk), Some(ev)) = (at("ticked-raw", n), at("event", n)) else {
            return Err(format!("grid is missing a raw engine at N={n}"));
        };
        if tk.vehicle_updates != ev.vehicle_updates {
            return Err(format!(
                "N={n}: raw update counts differ (ticked {} vs event {})",
                tk.vehicle_updates, ev.vehicle_updates
            ));
        }
        if tk.digest != ev.digest {
            return Err(format!(
                "N={n}: raw end states differ (ticked {:016x} vs event {:016x})",
                tk.digest, ev.digest
            ));
        }
    }
    Ok(())
}

/// Serializes the measured grid as the `BENCH_traffic.json` artifact.
#[must_use]
pub fn traffic_summary_json(points: &[TrafficPoint]) -> String {
    let mut out = String::from("{\"bench\":\"traffic\",\"points\":[\n");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(&p.to_json());
    }
    out.push_str("\n]}\n");
    out
}

/// Extracts `"updates_per_sec"` for one `(mode, N)` point from a JSON
/// artifact (fresh or committed baseline). Hand-rolled so the harness
/// stays dependency-free.
#[must_use]
pub fn parse_updates_per_sec(json: &str, mode: &str, vehicles: usize) -> Option<f64> {
    let marker = format!("\"mode\":\"{mode}\",\"vehicles\":{vehicles},");
    let object = json.split('{').find(|chunk| chunk.contains(&marker))?;
    let tail = object.split("\"updates_per_sec\":").nth(1)?;
    let value: String = tail
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    value.parse().ok()
}

/// Throughput ratio between two modes at one fleet size, from a
/// measured grid. `None` when either point is missing.
#[must_use]
pub fn mode_speedup(
    points: &[TrafficPoint],
    fast: &str,
    slow: &str,
    vehicles: usize,
) -> Option<f64> {
    let at = |mode: &str| {
        points
            .iter()
            .find(|p| p.mode == mode && p.vehicles == vehicles)
            .map(|p| p.updates_per_sec)
    };
    let denom = at(slow)?;
    let numer = at(fast)?;
    (denom > 0.0).then(|| numer / denom)
}

/// Indexed-over-naive throughput ratio at one fleet size.
#[must_use]
pub fn speedup(points: &[TrafficPoint], vehicles: usize) -> Option<f64> {
    mode_speedup(points, "indexed", "naive", vehicles)
}

/// Event-over-ticked raw-engine throughput ratio at one fleet size.
#[must_use]
pub fn event_speedup(points: &[TrafficPoint], vehicles: usize) -> Option<f64> {
    mode_speedup(points, "event", "ticked-raw", vehicles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_parses() {
        let points = vec![
            TrafficPoint {
                mode: "indexed",
                vehicles: 8192,
                steps: 10,
                mean_active: 8000.0,
                vehicle_updates: 80_000,
                seconds: 0.5,
                updates_per_sec: 160_000.0,
                digest: 0xdead_beef_0123_4567,
            },
            TrafficPoint {
                mode: "naive",
                vehicles: 8192,
                steps: 10,
                mean_active: 8000.0,
                vehicle_updates: 80_000,
                seconds: 5.0,
                updates_per_sec: 16_000.0,
                digest: 0xdead_beef_0123_4567,
            },
            TrafficPoint {
                mode: "event",
                vehicles: 8192,
                steps: 10,
                mean_active: 8000.0,
                vehicle_updates: 80_000,
                seconds: 0.04,
                updates_per_sec: 2_000_000.0,
                digest: 0xdead_beef_0123_4567,
            },
            TrafficPoint {
                mode: "ticked-raw",
                vehicles: 8192,
                steps: 10,
                mean_active: 8000.0,
                vehicle_updates: 80_000,
                seconds: 0.4,
                updates_per_sec: 200_000.0,
                digest: 0xdead_beef_0123_4567,
            },
        ];
        let json = traffic_summary_json(&points);
        assert_eq!(
            parse_updates_per_sec(&json, "indexed", 8192),
            Some(160_000.0)
        );
        assert_eq!(parse_updates_per_sec(&json, "naive", 8192), Some(16_000.0));
        assert_eq!(
            parse_updates_per_sec(&json, "event", 8192),
            Some(2_000_000.0)
        );
        assert_eq!(parse_updates_per_sec(&json, "indexed", 256), None);
        assert_eq!(speedup(&points, 8192), Some(10.0));
        assert_eq!(event_speedup(&points, 8192), Some(10.0));
    }

    #[test]
    fn mode_identity_flags_divergence() {
        let mut points = Vec::new();
        for &n in &TRAFFIC_FLEETS {
            for mode in ["indexed", "naive"] {
                points.push(TrafficPoint {
                    mode,
                    vehicles: n,
                    steps: 4,
                    mean_active: n as f64,
                    vehicle_updates: 4 * n as u64,
                    seconds: 1.0,
                    updates_per_sec: 4.0 * n as f64,
                    digest: 7,
                });
            }
        }
        for &n in &EVENT_FLEETS {
            for mode in ["ticked-raw", "event"] {
                if mode == "ticked-raw" && !RAW_TICKED_FLEETS.contains(&n) {
                    continue;
                }
                points.push(TrafficPoint {
                    mode,
                    vehicles: n,
                    steps: 4,
                    mean_active: n as f64,
                    vehicle_updates: 4 * n as u64,
                    seconds: 1.0,
                    updates_per_sec: 4.0 * n as f64,
                    digest: 9,
                });
            }
        }
        assert_eq!(verify_mode_identity(&points), Ok(()));
        points[1].digest = 8;
        assert!(verify_mode_identity(&points).is_err());
        points[1].digest = 7;
        points[0].vehicle_updates += 1;
        assert!(verify_mode_identity(&points).is_err());
        points[0].vehicle_updates -= 1;
        let ev = points
            .iter()
            .position(|p| p.mode == "event" && p.vehicles == GATED_FLEET)
            .unwrap();
        points[ev].digest = 10;
        assert!(verify_mode_identity(&points).is_err());
    }

    #[test]
    fn small_point_measures_and_runs() {
        let p = measure_point(ScanMode::Indexed, 48, 0);
        assert_eq!(p.mode, "indexed");
        assert_eq!(p.vehicles, 48);
        assert!(p.vehicle_updates > 0, "scenario must move vehicles");
        assert!(p.updates_per_sec > 0.0);
    }

    #[test]
    fn equivalence_check_passes() {
        verify_scan_equivalence(0).expect("indexed vs naive bit-identity");
    }

    #[test]
    fn event_equivalence_check_passes() {
        verify_event_equivalence(0).expect("ticked vs event bit-identity");
    }

    #[test]
    fn raw_twins_reach_identical_end_states() {
        let tk = measure_raw_point(StepMode::Ticked, 64, 0);
        let ev = measure_raw_point(StepMode::EventDriven, 64, 0);
        assert_eq!(tk.mode, "ticked-raw");
        assert_eq!(ev.mode, "event");
        assert!(tk.vehicle_updates > 0, "twin scenario must move vehicles");
        assert_eq!(tk.vehicle_updates, ev.vehicle_updates);
        assert_eq!(tk.digest, ev.digest);
    }

    #[test]
    fn nonzero_seed_reshuffles_the_scenario() {
        assert_eq!(scenario_seeds(0), (41, 0x6f65_735f_7472_6166, 23));
        let a = scenario_seeds(5);
        let b = scenario_seeds(6);
        assert_ne!(a, scenario_seeds(0));
        assert_ne!(a, b);
        let p0 = measure_raw_point(StepMode::EventDriven, 64, 0);
        let p5 = measure_raw_point(StepMode::EventDriven, 64, 5);
        assert_ne!(p0.digest, p5.digest, "seed must change the scenario");
    }
}
