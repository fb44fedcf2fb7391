//! The workloads and the phases each of them runs against a real
//! `HttpServer`:
//!
//! 1. **setup** — seeded pools, mutation schedules and the direct-solver
//!    reference answers (repeated, like the other one-shot phases; each
//!    reports the median of its repeats);
//! 2. **cold** — register the pools through `Frontend::with_service`
//!    and read every pool's first AltrM and PayM answer over the socket;
//! 3. **steady** — closed-loop solves on keep-alive connections for the
//!    run's seconds, with juror mutations where the workload has churn;
//! 4. **checkpoint** — every pool back in its base state and read once,
//!    then `POST /v1/snapshot` into a fresh directory;
//! 5. **restore** — restart on the last checkpoint, re-register, read the
//!    first answers again;
//! 6. **probe** — on workloads without churn, juror mutations on the
//!    idle restored server, so every workload reports mutation latency.
//!
//! Every end-to-end timing is scaled to reference host speed by the
//! host samples that bracket it (see `calib`).
//!
//! A traced run adds twins — the same traffic through
//! `Frontend::submit` and `JuryService::solve` in-process, a
//! post-mutation solve on a private service, direct solver and
//! `PoiBin` timings, and JSON encode/decode of the served answers — and
//! records a span around every call into a layer.

use crate::calib::{Calibrator, Timings};
use crate::gen::{self, Kind, Perturbation, Rng, Step, Stream, BUDGETS, TENANTS};
use crate::stats::{best, median, median_f64, share, Histogram};
use crate::trace::Tracer;
use jury_core::juror::Juror;
use jury_core::problem::Selection;
use jury_core::solver::sorted_order_into;
use jury_core::{AltrAlg, PayAlg, SolverScratch};
use jury_frontend::client::Client;
use jury_frontend::{Frontend, FrontendConfig, FrontendStats, HttpServer};
use jury_numeric::poibin::PoiBin;
use jury_service::{JuryService, PoolId, ServiceConfig, ServiceStats};
use serde::{json, Deserialize, Serialize, Value};
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// A workload: pool sizes, sharing, churn and how often each one-shot
/// phase is repeated to take its median.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub sizes: Vec<usize>,
    /// `replica_of[i] = Some(j)`: pool `i` registers the content of `j`.
    pub replica_of: Vec<Option<usize>>,
    /// Pool groups. With churn, connection `c` reads and mutates only
    /// the groups `g` with `g % connections == c`; without churn every
    /// connection reads every pool.
    pub groups: Vec<Vec<usize>>,
    /// Solves between two mutations on one connection (0: no churn).
    pub mutate_every: usize,
    /// Pools mutated by the idle-server probe, and how many mutations.
    pub probe_slots: Vec<usize>,
    pub probe_steps: usize,
    /// Pool and mutation count of the traced post-mutation twin.
    pub twin_slot: usize,
    pub twin_steps: usize,
    pub setup_repeats: usize,
    pub cold_repeats: usize,
    pub checkpoint_repeats: usize,
    pub restore_repeats: usize,
}

pub const WORKLOADS: [&str; 3] = ["warm_read", "churn_mixed", "cold_start"];

/// Perturbations generated per churned pool: enough distinct mutations
/// that a run's figures do not hinge on a few of them, few enough that
/// every reachable pool state has a reference answer.
const PERTURBATIONS: usize = 32;
/// Probe mutations between two host samples.
const PROBE_ROUND: usize = 512;
/// Perturbations per probe pool. Probe mutations are not followed by
/// solves, so they need no references and can be many.
const PROBE_PERTURBATIONS: usize = 256;

/// The named workload; `smoke` shrinks every pool for a seconds-long
/// check of the same phases.
pub fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let scale = |n: usize| if smoke { (n / 50).max(60) } else { n };
    let spec = match name {
        "warm_read" => Spec {
            name: "warm_read",
            sizes: [1_000, 1_000, 10_000, 10_000].map(scale).to_vec(),
            replica_of: vec![None; 4],
            groups: vec![vec![0, 1, 2, 3]],
            mutate_every: 0,
            probe_slots: vec![2, 3],
            probe_steps: 65_536,
            twin_slot: 2,
            twin_steps: 16,
            setup_repeats: 9,
            cold_repeats: 41,
            checkpoint_repeats: 25,
            restore_repeats: 41,
        },
        "churn_mixed" => Spec {
            name: "churn_mixed",
            sizes: vec![scale(10_000); 4],
            replica_of: vec![None, Some(0), None, None],
            groups: vec![vec![0, 1], vec![2, 3]],
            mutate_every: 25,
            probe_slots: vec![],
            probe_steps: 0,
            twin_slot: 2,
            twin_steps: 16,
            setup_repeats: 5,
            cold_repeats: 25,
            checkpoint_repeats: 25,
            restore_repeats: 41,
        },
        "cold_start" => Spec {
            name: "cold_start",
            sizes: [100_000, 300_000].map(scale).to_vec(),
            replica_of: vec![None; 2],
            groups: vec![vec![0, 1]],
            mutate_every: 0,
            probe_slots: vec![0],
            probe_steps: 16_384,
            twin_slot: 0,
            twin_steps: 4,
            setup_repeats: 15,
            cold_repeats: 3,
            checkpoint_repeats: 9,
            restore_repeats: 25,
        },
        _ => return None,
    };
    Some(spec)
}

/// How one run is driven.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Closed-loop connections, and HTTP workers.
    pub connections: usize,
    /// Scratch directory for snapshots and the span file.
    pub work: PathBuf,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a count or a single timing).
    pub samples: usize,
}

/// Everything a run measured.
#[derive(Debug)]
pub struct Outcome {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub notes: Vec<String>,
}

/// A pool state: a base content (replicas share their source's), or
/// one perturbation away from pool `slot`'s base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct State {
    pub slot: usize,
    pub pert: Option<usize>,
}

type Key = (State, Kind);

/// Seeded pools, their perturbations, and the reference answers.
pub struct Inputs {
    pub base: Vec<Vec<Juror>>,
    pub perts: Vec<Vec<Perturbation>>,
    pub refs: HashMap<Key, Selection>,
}

impl Inputs {
    /// Builds the pools and perturbations from `seed`; with `refs`, also
    /// every reference answer the run can check against, timed as
    /// `altr` / `paym` spans (`req` 0 for base states, 1 for perturbed).
    pub fn build(spec: &Spec, seed: u64, refs: bool, tracer: &mut Tracer) -> Self {
        let mut base: Vec<Vec<Juror>> = Vec::with_capacity(spec.sizes.len());
        for (slot, &n) in spec.sizes.iter().enumerate() {
            base.push(match spec.replica_of[slot] {
                Some(src) => base[src].clone(),
                None => gen::expert_mob_pool(n, &mut Rng::new(seed, slot as u64)),
            });
        }
        let mutated = mutated_slots(spec);
        let perts = (0..base.len())
            .map(|slot| {
                if mutated.contains(&slot) {
                    let mut rng = Rng::new(seed, 100 + slot as u64);
                    let count = if spec.probe_slots.contains(&slot) {
                        PROBE_PERTURBATIONS
                    } else {
                        PERTURBATIONS
                    };
                    gen::perturbations(&base[slot], count, &mut rng)
                } else {
                    Vec::new()
                }
            })
            .collect();
        let mut inputs = Self { base, perts, refs: HashMap::new() };
        if refs {
            inputs.solve_references(spec, tracer);
        }
        inputs
    }

    fn canonical(&self, spec: &Spec, slot: usize, pert: Option<usize>) -> State {
        match pert {
            None => State { slot: spec.replica_of[slot].unwrap_or(slot), pert: None },
            Some(_) => State { slot, pert },
        }
    }

    pub fn key(&self, spec: &Spec, slot: usize, pert: Option<usize>, kind: Kind) -> Key {
        (self.canonical(spec, slot, pert), kind)
    }

    /// The juror list of `state`.
    pub fn content(&self, state: State) -> Vec<Juror> {
        let mut jurors = self.base[state.slot].clone();
        if let Some(k) = state.pert {
            gen::apply_to(&mut jurors, &self.perts[state.slot][k], false);
        }
        jurors
    }

    fn solve_references(&mut self, spec: &Spec, tracer: &mut Tracer) {
        let mut wanted: Vec<Key> = Vec::new();
        for slot in 0..self.base.len() {
            for kind in Kind::ALL {
                wanted.push(self.key(spec, slot, None, kind));
            }
        }
        let churned: HashSet<usize> = if spec.mutate_every > 0 {
            spec.groups.iter().flatten().copied().collect()
        } else {
            HashSet::new()
        };
        for slot in 0..self.base.len() {
            // The post-mutation twin reads AltrM after each of its steps.
            let twin = if slot == spec.twin_slot { spec.twin_steps.div_ceil(2) } else { 0 };
            let perts = if churned.contains(&slot) { self.perts[slot].len() } else { twin };
            for k in 0..perts {
                let kinds: &[Kind] =
                    if churned.contains(&slot) { &Kind::ALL } else { &[Kind::Altr] };
                for &kind in kinds {
                    wanted.push(self.key(spec, slot, Some(k), kind));
                }
            }
        }
        let config = ServiceConfig::default();
        let altr = AltrAlg::new(config.altr);
        let mut scratch = SolverScratch::new();
        let mut order = Vec::new();
        let mut last: Option<(State, Vec<Juror>)> = None;
        for key in wanted {
            if self.refs.contains_key(&key) {
                continue;
            }
            let (state, kind) = key;
            if last.as_ref().is_none_or(|(s, _)| *s != state) {
                last = Some((state, self.content(state)));
            }
            let jurors = &last.as_ref().expect("content loaded above").1;
            let req = u64::from(state.pert.is_some());
            let start = Instant::now();
            let selection = match kind {
                Kind::Altr => {
                    sorted_order_into(jurors, &mut order);
                    let start = Instant::now();
                    let selection = altr.solve_pruned(jurors, &order, &mut scratch);
                    tracer.record("altr", "AltrAlg::solve_pruned", req, 0, start, Instant::now());
                    selection
                }
                Kind::Pay(b) => {
                    let selection = PayAlg::solve(jurors, BUDGETS[b as usize], &config.pay);
                    tracer.record("paym", "PayAlg::solve", req, 0, start, Instant::now());
                    selection
                }
            };
            self.refs.insert(key, selection.expect("reference solves succeed on valid pools"));
        }
    }
}

/// Pools some phase mutates: the churn groups, the probe pools and the
/// post-mutation twin's pool.
fn mutated_slots(spec: &Spec) -> HashSet<usize> {
    let mut slots: HashSet<usize> = spec.probe_slots.iter().copied().collect();
    slots.insert(spec.twin_slot);
    if spec.mutate_every > 0 {
        slots.extend(spec.groups.iter().flatten().copied());
    }
    slots
}

/// Bit-identity of the parts of an answer a client acts on.
fn same(a: &Selection, b: &Selection) -> bool {
    a.members == b.members
        && a.jer.to_bits() == b.jer.to_bits()
        && a.total_cost.to_bits() == b.total_cost.to_bits()
}

/// Per-thread answer checking and failure accounting. Answers with no
/// precomputed reference (an untraced `cold_start` run) are checked for
/// agreement with the first answer read for the same pool state.
struct Checker {
    refs: Arc<HashMap<Key, Selection>>,
    first: HashMap<Key, Selection>,
    seen: HashSet<Key>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Checker {
    fn new(refs: Arc<HashMap<Key, Selection>>) -> Self {
        Self {
            refs,
            first: HashMap::new(),
            seen: HashSet::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// A checker for another thread: same references and answers seen
    /// so far, fresh counts.
    fn fork(&self) -> Self {
        Self { first: self.first.clone(), ..Self::new(Arc::clone(&self.refs)) }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }

    /// Counts one operation that is not an answer (a mutation, a
    /// checkpoint): attempted, and failed on `Err`.
    fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = outcome {
            self.fail(message);
        }
    }

    /// Counts and checks one answer.
    fn answer(&mut self, key: Key, got: Result<Selection, String>) {
        self.attempted += 1;
        let got = match got {
            Ok(got) => got,
            Err(message) => return self.fail(message),
        };
        self.seen.insert(key);
        match self.refs.get(&key).or_else(|| self.first.get(&key)) {
            Some(expected) if same(expected, &got) => {}
            Some(_) => self.fail(format!("answer for {key:?} differs from the reference")),
            None => {
                self.first.insert(key, got);
            }
        }
    }

    fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.seen.extend(other.seen);
        for (key, got) in other.first {
            match self.first.get(&key) {
                Some(mine) if !same(mine, &got) => {
                    self.fail(format!("connections disagree on {key:?}"));
                }
                Some(_) => {}
                None => {
                    self.first.insert(key, got);
                }
            }
        }
    }

    /// Distinct answers read whose JER is exactly zero or subnormal.
    fn underflow(&self) -> usize {
        self.seen
            .iter()
            .filter_map(|key| self.refs.get(key).or_else(|| self.first.get(key)))
            .filter(|s| s.jer == 0.0 || s.jer.is_subnormal())
            .count()
    }
}

/// A connection's position in its request stream and mutation schedule,
/// and the state of every pool it owns.
struct ConnState {
    stream: Stream,
    steps: Vec<Step>,
    cursor: usize,
    since_mutation: usize,
    cur: Vec<Option<usize>>,
}

impl ConnState {
    fn due(&self, spec: &Spec) -> bool {
        spec.mutate_every > 0 && self.since_mutation >= spec.mutate_every && !self.steps.is_empty()
    }

    fn next_step(&mut self) -> Step {
        self.since_mutation = 0;
        let step = self.steps[self.cursor % self.steps.len()];
        self.cursor += 1;
        step
    }
}

fn connection_states(spec: &Spec, seed: u64, connections: usize) -> Vec<ConnState> {
    (0..connections)
        .map(|c| {
            let (slots, steps) = if spec.mutate_every > 0 {
                let slots: Vec<usize> = spec
                    .groups
                    .iter()
                    .enumerate()
                    .filter(|(g, _)| g % connections == c)
                    .flat_map(|(_, group)| group.iter().copied())
                    .collect();
                let steps = gen::schedule(&slots, PERTURBATIONS);
                (slots, steps)
            } else {
                (spec.groups.iter().flatten().copied().collect(), Vec::new())
            };
            ConnState {
                stream: Stream::new(seed, c, slots),
                steps,
                cursor: 0,
                since_mutation: 0,
                cur: vec![None; spec.sizes.len()],
            }
        })
        .collect()
}

/// Connections a workload uses: churn needs one pool group per
/// connection so every pool has a single writer.
pub fn connections_for(spec: &Spec, available: usize) -> usize {
    let n = available.clamp(1, 4);
    if spec.mutate_every > 0 {
        n.min(spec.groups.len())
    } else {
        n
    }
}

/// A started server and the ids of the pools registered on it.
struct Server {
    http: HttpServer,
    ids: Vec<PoolId>,
    /// Pre-encoded `/v1/solve` bodies by tenant, pool and task kind.
    bodies: Vec<Vec<[String; 4]>>,
}

fn kind_index(kind: Kind) -> usize {
    match kind {
        Kind::Altr => 0,
        Kind::Pay(b) => 1 + b as usize,
    }
}

impl Server {
    fn start(dir: &Path, workers: usize) -> Self {
        std::fs::create_dir_all(dir).expect("create the snapshot directory");
        let config = ServiceConfig { snapshot_dir: Some(dir.to_path_buf()), ..Default::default() };
        let frontend = Frontend::start(JuryService::with_config(config), FrontendConfig::default());
        let http = HttpServer::start(frontend, "127.0.0.1:0", workers).expect("bind localhost");
        Self { http, ids: Vec::new(), bodies: Vec::new() }
    }

    fn frontend(&self) -> &Arc<Frontend> {
        self.http.frontend()
    }

    fn addr(&self) -> SocketAddr {
        self.http.local_addr()
    }

    /// Registers `stock` in order (timed inside the closure as
    /// `create_pool` spans; with `warm`, each pool is also warmed
    /// explicitly as a `warm_pool` span) and encodes the request bodies.
    fn register(&mut self, stock: Vec<Vec<Juror>>, warm: bool, tracer: &mut Tracer) {
        for jurors in stock {
            let (id, start, end) = self.frontend().with_service(|s| {
                let start = Instant::now();
                let id = s.create_pool(jurors);
                (id, start, Instant::now())
            });
            tracer.record("service", "JuryService::create_pool", 0, 0, start, end);
            if warm {
                let (warmed, start, end) = self.frontend().with_service(|s| {
                    let start = Instant::now();
                    let warmed = s.warm_pool(id);
                    (warmed, start, Instant::now())
                });
                warmed.expect("a registered pool warms");
                tracer.record("service", "JuryService::warm_pool", 0, 0, start, end);
            }
            self.ids.push(id);
        }
        self.bodies = TENANTS
            .iter()
            .map(|tenant| {
                self.ids
                    .iter()
                    .map(|&id| {
                        Kind::ALL.map(|kind| {
                            json::to_string(&Value::object([
                                ("tenant", tenant.to_value()),
                                ("task", kind.task(id).to_value()),
                            ]))
                        })
                    })
                    .collect()
            })
            .collect();
    }

    fn body(&self, tenant: usize, slot: usize, kind: Kind) -> &str {
        &self.bodies[tenant][slot][kind_index(kind)]
    }

    fn stop(self) {
        drop(self.http.shutdown());
    }
}

/// One `POST /v1/solve` over `client`: the elapsed time of the request
/// (write to last byte read), and the decoded answer.
fn socket_solve(client: &mut Client, body: &str) -> (Instant, Instant, Result<Selection, String>) {
    let start = Instant::now();
    let response = client.request("POST", "/v1/solve", Some(body));
    let end = Instant::now();
    let answer = match response {
        Err(e) => Err(format!("transport: {e}")),
        Ok(r) if r.status != 200 => Err(format!("status {}: {:?}", r.status, r.result.err())),
        Ok(r) => r
            .result
            .map_err(|e| format!("refused: {}", e.message))
            .and_then(|v| Selection::from_value(&v).map_err(|e| format!("decode: {e}"))),
    };
    (start, end, answer)
}

/// Applies one schedule step to a service, checking what the mutation
/// returns against the perturbation.
fn apply_step(
    service: &mut JuryService,
    pool: PoolId,
    pert: &Perturbation,
    undo: bool,
    base_len: usize,
) -> Result<(), String> {
    let err = |e: jury_service::ServiceError| e.to_string();
    match (*pert, undo) {
        (Perturbation::Update { index, juror, .. }, false) => {
            service.update_juror(pool, index, juror).map_err(err)
        }
        (Perturbation::Update { index, original, .. }, true) => {
            service.update_juror(pool, index, original).map_err(err)
        }
        (Perturbation::Insert { juror }, false) => match service.insert_juror(pool, juror) {
            Ok(pos) if pos == base_len => Ok(()),
            Ok(pos) => Err(format!("insert landed at {pos}, expected {base_len}")),
            Err(e) => Err(err(e)),
        },
        (Perturbation::Insert { juror }, true) => match service.remove_juror(pool, base_len) {
            Ok(removed) if removed == juror => Ok(()),
            Ok(_) => Err("remove returned another juror".into()),
            Err(e) => Err(err(e)),
        },
    }
}

/// One mutation through `Frontend::with_service`: returns the latency
/// from the call to its return. Traced as a `with_service` span with
/// `lock_wait` (call to closure start) and `mutate` (the closure) children.
fn mutate(
    frontend: &Frontend,
    pool: PoolId,
    pert: &Perturbation,
    undo: bool,
    base_len: usize,
    tracer: &mut Tracer,
) -> (u64, Result<(), String>) {
    let start = Instant::now();
    let (inner_start, inner_end, outcome) = frontend.with_service(|s| {
        let inner_start = Instant::now();
        let outcome = apply_step(s, pool, pert, undo, base_len);
        (inner_start, Instant::now(), outcome)
    });
    let end = Instant::now();
    let parent = tracer.record("service", "Frontend::with_service", 0, 0, start, end);
    tracer.record("service", "lock_wait", 0, parent, start, inner_start);
    tracer.record("service", "mutate", 0, parent, inner_start, inner_end);
    ((end - start).as_nanos() as u64, outcome)
}

/// Reads every pool's first AltrM and PayM answer over one connection.
fn first_answers(
    server: &Server,
    inputs: &Inputs,
    spec: &Spec,
    cur: &[Option<usize>],
    check: &mut Checker,
) {
    let mut client = Client::connect(server.addr()).expect("connect to the server");
    for (slot, &state) in cur.iter().enumerate() {
        for kind in [Kind::Altr, Kind::Pay(0)] {
            let (_, _, answer) = socket_solve(&mut client, server.body(0, slot, kind));
            check.answer(inputs.key(spec, slot, state, kind), answer);
        }
    }
}

/// What one steady-phase connection measured.
#[derive(Default)]
struct SteadyOut {
    /// Latencies of answered solves and of mutations, by window.
    windows: Vec<Histogram>,
    mutations: Vec<Vec<u64>>,
    pays: usize,
}

/// `op` applied field by field to the service counters the per-layer
/// metrics read (the other fields are `a`'s).
fn combine(a: &ServiceStats, b: &ServiceStats, op: fn(usize, usize) -> usize) -> ServiceStats {
    let mut out = *a;
    macro_rules! each {
        ($($f:ident),*) => { $( out.$f = op(a.$f, b.$f); )* };
    }
    each!(
        tasks_solved,
        cache_hits,
        staircase_hits,
        order_repairs,
        insert_repairs,
        pmf_repairs,
        pmf_rebuilds,
        full_repairs,
        artifact_detaches,
        artifact_rejoins,
        snapshot_restores,
        snapshot_rejections
    );
    out
}

fn frontend_delta(after: &FrontendStats, before: &FrontendStats) -> FrontendStats {
    FrontendStats {
        requests: after.requests - before.requests,
        inline_solves: after.inline_solves - before.inline_solves,
        coalesced_windows: after.coalesced_windows - before.coalesced_windows,
        coalesced_tasks: after.coalesced_tasks - before.coalesced_tasks,
        queue_rejections: after.queue_rejections - before.queue_rejections,
        deadline_rejections: after.deadline_rejections - before.deadline_rejections,
        malformed_requests: after.malformed_requests - before.malformed_requests,
        queue_wait_nanos: after.queue_wait_nanos - before.queue_wait_nanos,
        ..*after
    }
}

/// Pause between two timed checkpoints.
const CHECKPOINT_GAP: Duration = Duration::from_millis(200);

/// Solves per connection at most in one twin phase, which bounds the
/// spans a traced run keeps and writes.
const TWIN_OPS: usize = 50_000;

/// The transport a closed-loop phase sends its solves through.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Via {
    Socket,
    Submit,
}

/// Runs `states` as closed-loop connections for `seconds`, cut into
/// windows. Between windows the connections pause while `cal` samples
/// the host. Returns what each connection measured, and every window's
/// factor to reference speed.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    via: Via,
    server: &Server,
    spec: &Spec,
    inputs: &Inputs,
    states: &mut [ConnState],
    seconds: f64,
    checkers: &mut [Checker],
    tracers: &mut [Tracer],
    cal: &mut Calibrator,
) -> (Vec<SteadyOut>, Vec<f64>) {
    let (windows, width) = window_layout(seconds);
    let barrier = Barrier::new(states.len() + 1);
    std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = states
            .iter_mut()
            .zip(checkers.iter_mut())
            .zip(tracers.iter_mut())
            .map(|((conn, check), tracer)| {
                scope.spawn(move || {
                    let mut out = SteadyOut {
                        windows: vec![Histogram::default(); windows],
                        mutations: vec![Vec::new(); windows],
                        ..SteadyOut::default()
                    };
                    let mut client = match via {
                        Via::Socket => Some(Client::connect(server.addr()).expect("connect")),
                        Via::Submit => None,
                    };
                    let frontend = server.frontend();
                    let mut req = 0u64;
                    let limit = if via == Via::Submit { TWIN_OPS } else { usize::MAX };
                    let mut dead = false;
                    for w in 0..windows {
                        barrier.wait();
                        let deadline = Instant::now() + width;
                        while !dead && Instant::now() < deadline && req < limit as u64 {
                            if conn.due(spec) {
                                let step = conn.next_step();
                                let pert = &inputs.perts[step.slot][step.pert];
                                let base_len = inputs.base[step.slot].len();
                                let pool = server.ids[step.slot];
                                let (ns, outcome) =
                                    mutate(frontend, pool, pert, step.undo, base_len, tracer);
                                out.mutations[w].push(ns);
                                if outcome.is_ok() {
                                    conn.cur[step.slot] = (!step.undo).then_some(step.pert);
                                }
                                check.op(outcome);
                            }
                            let r = conn.stream.next().expect("streams are endless");
                            req += 1;
                            let (start, end, answer) = match client.as_mut() {
                                Some(client) => {
                                    socket_solve(client, server.body(r.tenant, r.slot, r.kind))
                                }
                                None => {
                                    let task = r.kind.task(server.ids[r.slot]);
                                    let start = Instant::now();
                                    let answer = frontend.submit(TENANTS[r.tenant], task);
                                    let end = Instant::now();
                                    let answer = answer
                                        .map(|s| (*s).clone())
                                        .map_err(|e| format!("submit: {e:?}"));
                                    (start, end, answer)
                                }
                            };
                            let (layer, op) = match via {
                                Via::Socket => ("http", "Client::request"),
                                Via::Submit => ("coalesce", "Frontend::submit"),
                            };
                            tracer.record(layer, op, req, 0, start, end);
                            let ok = answer.is_ok();
                            let key = inputs.key(spec, r.slot, conn.cur[r.slot], r.kind);
                            check.answer(key, answer);
                            if ok {
                                out.windows[w].record((end - start).as_nanos() as u64);
                                out.pays += usize::from(r.kind != Kind::Altr);
                            } else if via == Via::Socket {
                                client = Client::connect(server.addr()).ok();
                                dead = client.is_none();
                            }
                            conn.since_mutation += 1;
                        }
                        barrier.wait();
                    }
                    out
                })
            })
            .collect();
        cal.refresh();
        let mut factors = Vec::with_capacity(windows);
        for _ in 0..windows {
            barrier.wait();
            barrier.wait();
            factors.push(cal.close());
        }
        let outs = handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect();
        (outs, factors)
    })
}

/// `JuryService::solve` twin: the connections' continued streams,
/// solved one at a time inside `with_service`, timed inside the closure.
fn service_twin(
    server: &Server,
    spec: &Spec,
    inputs: &Inputs,
    states: &mut [ConnState],
    seconds: f64,
    check: &mut Checker,
    tracer: &mut Tracer,
) {
    let frontend = server.frontend();
    let per_conn = Duration::from_secs_f64(seconds / states.len() as f64);
    for conn in states.iter_mut() {
        let deadline = Instant::now() + per_conn;
        for _ in 0..TWIN_OPS {
            if Instant::now() >= deadline {
                break;
            }
            if conn.due(spec) {
                let step = conn.next_step();
                let pert = &inputs.perts[step.slot][step.pert];
                let base_len = inputs.base[step.slot].len();
                let outcome = frontend.with_service(|s| {
                    apply_step(s, server.ids[step.slot], pert, step.undo, base_len)
                });
                if outcome.is_ok() {
                    conn.cur[step.slot] = (!step.undo).then_some(step.pert);
                }
                check.op(outcome);
            }
            let r = conn.stream.next().expect("streams are endless");
            let task = r.kind.task(server.ids[r.slot]);
            let (start, end, answer) = frontend.with_service(|s| {
                let start = Instant::now();
                let answer = s.solve(&task);
                (start, Instant::now(), answer)
            });
            tracer.record("service", "JuryService::solve", 0, 0, start, end);
            let key = inputs.key(spec, r.slot, conn.cur[r.slot], r.kind);
            check.answer(key, answer.map_err(|e| e.to_string()));
            conn.since_mutation += 1;
        }
    }
}

/// The traced post-mutation twin: a private service over one pool,
/// warmed, then mutated by the pool's schedule; the AltrM solve after
/// each mutation is timed.
fn post_mutation_twin(spec: &Spec, inputs: &Inputs, check: &mut Checker, tracer: &mut Tracer) {
    let slot = spec.twin_slot;
    let base_len = inputs.base[slot].len();
    let mut service = JuryService::new();
    let pool = service.create_pool(inputs.base[slot].clone());
    check.op(service.warm_pool(pool).map_err(|e| e.to_string()));
    let steps = gen::schedule(&[slot], PERTURBATIONS);
    for step in steps.iter().cycle().take(spec.twin_steps) {
        let pert = &inputs.perts[slot][step.pert];
        check.op(apply_step(&mut service, pool, pert, step.undo, base_len));
        let start = Instant::now();
        let answer = service.solve(&Kind::Altr.task(pool));
        tracer.record("service", "post_mutation_solve", 0, 0, start, Instant::now());
        let key = inputs.key(spec, slot, (!step.undo).then_some(step.pert), Kind::Altr);
        check.answer(key, answer.map_err(|e| e.to_string()));
    }
}

/// `PoiBin::push` over the largest pool's ε in ascending order: ns per
/// pmf entry updated, over the first fifth and over the rest of (at
/// most) 10⁴ pushes, then the subnormal and zero shares of the final pmf.
fn poibin_probe(inputs: &Inputs, tracer: &mut Tracer) -> (f64, f64, f64, f64) {
    let largest = inputs.base.iter().max_by_key(|b| b.len()).expect("at least one pool");
    let mut eps: Vec<f64> = largest.iter().map(Juror::epsilon).collect();
    eps.sort_by(f64::total_cmp);
    eps.truncate(10_000);
    let split = eps.len() / 5;
    let mut pmf = PoiBin::empty();
    let t0 = Instant::now();
    for &e in &eps[..split] {
        pmf.push(e);
    }
    let t1 = Instant::now();
    for &e in &eps[split..] {
        pmf.push(e);
    }
    let t2 = Instant::now();
    tracer.record("poibin", "PoiBin::push.early", split as u64, 0, t0, t1);
    tracer.record("poibin", "PoiBin::push.late", (eps.len() - split) as u64, 0, t1, t2);
    // Push number k (from 0) updates k + 1 entries.
    let updates = |from: usize, to: usize| ((to * (to + 1) - from * (from + 1)) / 2).max(1) as f64;
    let pmf = std::hint::black_box(pmf);
    let entries = pmf.pmf();
    let subnormal = entries.iter().filter(|p| p.is_subnormal()).count();
    let zero = entries.iter().filter(|&&p| p == 0.0).count();
    (
        (t1 - t0).as_nanos() as f64 / updates(0, split),
        (t2 - t1).as_nanos() as f64 / updates(split, eps.len()),
        share(subnormal, entries.len()),
        share(zero, entries.len()),
    )
}

/// JSON encode and decode of the served base-state answers, through the
/// `serde` shim the wire uses: median µs per call.
fn wire_probe(inputs: &Inputs, tracer: &mut Tracer) -> (f64, f64, usize) {
    let mut answers: Vec<(&Key, &Selection)> =
        inputs.refs.iter().filter(|(k, _)| k.0.pert.is_none()).collect();
    answers.sort_by_key(|(k, _)| (k.0.slot, k.1));
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        for (_, selection) in &answers {
            let t0 = Instant::now();
            let text = json::to_string(*selection);
            let t1 = Instant::now();
            let back: Selection = json::from_str(&text).expect("own encoding decodes");
            let t2 = Instant::now();
            assert!(same(&back, selection), "JSON round trip changed an answer");
            tracer.record("wire", "json::to_string", 0, 0, t0, t1);
            tracer.record("wire", "json::from_str", 0, 0, t1, t2);
            enc.push((t1 - t0).as_nanos() as u64);
            dec.push((t2 - t1).as_nanos() as u64);
        }
    }
    (median(&enc) as f64 / 1e3, median(&dec) as f64 / 1e3, enc.len())
}

/// Length of a steady-phase window: short enough that the host's speed
/// changes little within one.
const WINDOW_S: f64 = 0.5;

/// The steady phase's windows: `WINDOW_S` each (one when shorter).
fn window_layout(seconds: f64) -> (usize, Duration) {
    let windows = ((seconds / WINDOW_S).floor() as usize).max(1);
    (windows, Duration::from_secs_f64(seconds / windows as f64))
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs one workload through every phase. `process_start` is when the
/// process began; the first setup is timed from there.
pub fn run(spec: &Spec, opts: &Opts, process_start: Instant) -> Outcome {
    let epoch = Instant::now();
    let mut tracer = Tracer::new(opts.trace, epoch, 0);
    let mut notes: Vec<String> = Vec::new();
    let conns = opts.connections;
    // A traced cold_start computes the direct references (seconds at
    // 3x10^5 jurors) and reports no set-up time, so it sets up once.
    let need_refs = opts.trace || spec.name != "cold_start";
    let setup_repeats = if opts.trace { 1 } else { spec.setup_repeats };

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cal = Calibrator::new(cpus);
    // Process start up to here counts toward the first set-up.
    let launch = secs(process_start.elapsed());

    // 1. Set-up.
    let mut setup = Timings::default();
    let mut inputs = None;
    for r in 0..setup_repeats {
        let mut off = Tracer::new(false, epoch, 0);
        let t = if r + 1 == setup_repeats { &mut tracer } else { &mut off };
        let (built, raw, factor) = cal.time(|| Inputs::build(spec, opts.seed, need_refs, t));
        inputs = Some(built);
        setup.push(if r == 0 { raw + launch } else { raw }, factor);
    }
    let inputs = inputs.expect("at least one set-up");
    let refs = Arc::new(inputs.refs.clone());
    let mut check = Checker::new(Arc::clone(&refs));
    let mut states = connection_states(spec, opts.seed, conns);
    let base_cur = vec![None; spec.sizes.len()];

    // 2. Cold: register and read first answers.
    let mut cold = Timings::default();
    let mut server = None;
    for r in 0..spec.cold_repeats {
        let last = r + 1 == spec.cold_repeats;
        let mut s = Server::start(&opts.work.join(format!("cold-{r}")), conns);
        let stock = inputs.base.clone();
        let mut off = Tracer::new(false, epoch, 0);
        let t = if last { &mut tracer } else { &mut off };
        let ((), raw, factor) = cal.time(|| {
            s.register(stock, opts.trace && last, t);
            first_answers(&s, &inputs, spec, &base_cur, &mut check);
        });
        cold.push(raw, factor);
        if last {
            server = Some(s);
        } else {
            s.stop();
        }
    }
    let server = server.expect("at least one cold pass");

    // 3. Steady closed loop.
    // Each HTTP worker serves one connection until it closes, so control
    // requests use short-lived connections of their own.
    let read_stats = || {
        let mut client = Client::connect(server.addr()).expect("connect for stats");
        client.stats().expect("GET /stats").expect("stats answer")
    };
    let before = read_stats();
    let mut checkers: Vec<Checker> = (0..conns).map(|_| check.fork()).collect();
    let mut tracers: Vec<Tracer> = (0..conns).map(|c| tracer.fork(1 + c as u64)).collect();
    let (outs, factors) = closed_loop(
        Via::Socket,
        &server,
        spec,
        &inputs,
        &mut states,
        opts.seconds,
        &mut checkers,
        &mut tracers,
        &mut cal,
    );
    let after = read_stats();
    for c in checkers {
        check.merge(c);
    }
    for t in tracers {
        tracer.absorb(t);
    }
    let mut windows = vec![Histogram::default(); outs[0].windows.len()];
    let mut whole = Histogram::default();
    for out in &outs {
        for (w, h) in windows.iter_mut().zip(&out.windows) {
            w.merge(h);
            whole.merge(h);
        }
    }
    let window_s = window_layout(opts.seconds).1.as_secs_f64();
    let mut mutations = Timings::default();
    for out in &outs {
        for (batch, &factor) in out.mutations.iter().zip(&factors) {
            for &ns in batch {
                mutations.push(ns as f64 / 1e3, factor);
            }
        }
    }
    let pays: usize = outs.iter().map(|o| o.pays).sum();
    let steady_service = combine(&after.service, &before.service, |x, y| x - y);
    let steady_frontend = frontend_delta(&after.frontend, &before.frontend);

    // Traced twins on the same warm server.
    let twin_secs = opts.seconds / 4.0;
    if opts.trace {
        let mut checkers: Vec<Checker> = (0..conns).map(|_| check.fork()).collect();
        let mut tracers: Vec<Tracer> =
            (0..conns).map(|c| tracer.fork(1 + (conns + c) as u64)).collect();
        closed_loop(
            Via::Submit,
            &server,
            spec,
            &inputs,
            &mut states,
            twin_secs,
            &mut checkers,
            &mut tracers,
            &mut cal,
        );
        for c in checkers {
            check.merge(c);
        }
        for t in tracers {
            tracer.absorb(t);
        }
        service_twin(&server, spec, &inputs, &mut states, twin_secs, &mut check, &mut tracer);
    }

    // Settle: undo any perturbation a connection left applied and read
    // every pool once, so every run checkpoints the same warm state (the
    // store only persists shared entries, and which pools hold one
    // depends on where the schedules stopped).
    for conn in &mut states {
        for slot in 0..conn.cur.len() {
            if let Some(k) = conn.cur[slot] {
                let (pert, base_len) = (&inputs.perts[slot][k], inputs.base[slot].len());
                let outcome = server
                    .frontend()
                    .with_service(|s| apply_step(s, server.ids[slot], pert, true, base_len));
                if outcome.is_ok() {
                    conn.cur[slot] = None;
                }
                check.op(outcome);
            }
        }
    }
    let mut settle = Client::connect(server.addr()).expect("connect to settle");
    for slot in 0..spec.sizes.len() {
        for kind in Kind::ALL {
            let (_, _, answer) = socket_solve(&mut settle, server.body(0, slot, kind));
            check.answer(inputs.key(spec, slot, None, kind), answer);
        }
    }
    drop(settle);
    let mut cur = base_cur.clone();

    // 4. Checkpoint over HTTP into fresh directories.
    let mut checkpoint = Vec::new();
    let mut snapshot_dir = PathBuf::new();
    let mut control = Client::connect(server.addr()).expect("connect for checkpoints");
    let mut written = Value::Null;
    for r in 0..spec.checkpoint_repeats {
        // Spread the checkpoints over seconds: their cost is mostly
        // `fsync`, whose latency on a shared host drifts, and the fastest
        // should not hinge on the disk's state during one short spell.
        if r > 0 {
            std::thread::sleep(CHECKPOINT_GAP);
        }
        snapshot_dir = opts.work.join(format!("checkpoint-{r}"));
        let body = json::to_string(&Value::object([(
            "dir",
            snapshot_dir.to_string_lossy().into_owned().to_value(),
        )]));
        let start = Instant::now();
        let response = control.request("POST", "/v1/snapshot", Some(&body));
        let end = Instant::now();
        tracer.record("http", "POST /v1/snapshot", 0, 0, start, end);
        checkpoint.push(secs(end - start));
        check.op(match response {
            Ok(r) if r.status == 200 => {
                written = r.result.map_or(Value::Null, |report| report);
                Ok(())
            }
            Ok(r) => Err(format!("snapshot status {}", r.status)),
            Err(e) => Err(format!("snapshot transport: {e}")),
        });
    }
    notes.push(format!("last checkpoint report: {}", json::to_string(&written)));
    let mut snapshot_bytes = 0u64;
    if opts.trace {
        let dir = opts.work.join("checkpoint-direct");
        let (report, start, end) = server.frontend().with_service(|s| {
            let start = Instant::now();
            let report = s.snapshot(&dir);
            (report, start, Instant::now())
        });
        tracer.record("snapshot", "JuryService::snapshot", 0, 0, start, end);
        match report {
            Ok(report) => snapshot_bytes = report.bytes,
            Err(e) => check.op(Err(format!("direct snapshot: {e}"))),
        }
    }
    drop(control);
    server.stop();

    // 5. Restore: restart on the last checkpoint.
    let mut restore = Timings::default();
    // Counters of the last restart only.
    let mut restore_stats = ServiceStats::default();
    let mut server = None;
    for r in 0..spec.restore_repeats {
        let last = r + 1 == spec.restore_repeats;
        let mut s = Server::start(&snapshot_dir, conns);
        let stock: Vec<Vec<Juror>> = (0..spec.sizes.len())
            .map(|slot| inputs.content(inputs.canonical(spec, slot, cur[slot])))
            .collect();
        let mut off = Tracer::new(false, epoch, 0);
        let ((), raw, factor) = cal.time(|| {
            s.register(stock, false, &mut off);
            first_answers(&s, &inputs, spec, &cur, &mut check);
        });
        restore.push(raw, factor);
        restore_stats = s.frontend().service_stats();
        if last {
            server = Some(s);
        } else {
            s.stop();
        }
    }
    let server = server.expect("at least one restore");

    // 6. Probe: mutations on the idle restored server, in rounds
    // bracketed by host samples.
    let probe_before = server.frontend().service_stats();
    let steps = gen::schedule(&spec.probe_slots, PROBE_PERTURBATIONS);
    let mut steps = steps.iter().cycle().take(spec.probe_steps).peekable();
    while steps.peek().is_some() {
        let mut round = Vec::with_capacity(PROBE_ROUND);
        let ((), _, factor) = cal.time(|| {
            for step in steps.by_ref().take(PROBE_ROUND) {
                let pert = &inputs.perts[step.slot][step.pert];
                let base_len = inputs.base[step.slot].len();
                let pool = server.ids[step.slot];
                let (ns, outcome) =
                    mutate(server.frontend(), pool, pert, step.undo, base_len, &mut tracer);
                round.push(ns);
                if outcome.is_ok() {
                    cur[step.slot] = (!step.undo).then_some(step.pert);
                }
                check.op(outcome);
            }
        });
        for ns in round {
            mutations.push(ns as f64 / 1e3, factor);
        }
    }
    let probe_service = combine(&server.frontend().service_stats(), &probe_before, |x, y| x - y);
    // The server's pools must match the model the answers were checked on.
    for (slot, &id) in server.ids.iter().enumerate() {
        let expected = inputs.content(inputs.canonical(spec, slot, cur[slot]));
        let matches = server.frontend().with_service(|s| s.pool(id).map(|p| p == &expected[..]));
        check.op(match matches {
            Ok(true) => Ok(()),
            _ => Err(format!("pool {slot} content diverged from the model")),
        });
    }
    server.stop();

    // End-to-end metrics.
    let solves = whole.count() as usize;
    notes.push(format!(
        "raw solve latency over the whole phase: p50 {:.1} us, p99 {:.1} us, p99.9 {:.1} us, \
         max {:.1} us (n={solves}) in {} windows of {window_s:.2} s",
        whole.quantile(0.5) / 1e3,
        whole.quantile(0.99) / 1e3,
        whole.quantile(0.999) / 1e3,
        whole.max() as f64 / 1e3,
        windows.len(),
    ));
    // Each window's figures at reference speed; the metric is their median.
    let over_windows = |f: &dyn Fn(&Histogram, f64) -> f64| {
        median_f64(&windows.iter().zip(&factors).map(|(h, &k)| f(h, k)).collect::<Vec<_>>())
    };
    let solve_p50 = over_windows(&|h, k| h.quantile(0.5) / 1e3 * k);
    let solve_p99 = over_windows(&|h, k| h.quantile(0.99) / 1e3 * k);
    let solves_per_s = over_windows(&|h, k| h.count() as f64 / window_s / k);
    notes.push(format!(
        "raw medians over windows: solve_p50 {:.3} us, solve_p99 {:.3} us, solves_per_s {:.1}",
        over_windows(&|h, _| h.quantile(0.5) / 1e3),
        over_windows(&|h, _| h.quantile(0.99) / 1e3),
        over_windows(&|h, _| h.count() as f64 / window_s),
    ));
    let underflow = check.underflow();
    let m = |name, unit, value, samples| Metric { name, unit, value, samples };
    let end_to_end = vec![
        m("solve_p50_us", "us", solve_p50, solves),
        m("solve_p99_us", "us", solve_p99, solves),
        m("solves_per_s", "1/s", solves_per_s, solves),
        m("mutate_p50_us", "us", mutations.scaled(), mutations.len()),
        m("cold_first_answer_s", "s", cold.scaled(), cold.len()),
        m("restore_first_answer_s", "s", restore.scaled(), restore.len()),
        m("setup_s", "s", setup.scaled(), setup.len()),
        m("peak_rss_mb", "MB", peak_rss_mb(), 1),
    ];
    notes.push(format!(
        "raw medians: mutate_p50 {:.3} us, cold_first_answer {:.6} s, \
         restore_first_answer {:.6} s, setup {:.6} s",
        mutations.raw(),
        cold.raw(),
        restore.raw(),
        setup.raw()
    ));
    let samples = &cal.samples;
    notes.push(format!(
        "host kernel pass: median {:.0} ns, range {:.0}-{:.0} ns over {} samples \
         (reference {:.0} ns)",
        median_f64(samples),
        samples.iter().copied().fold(f64::INFINITY, f64::min),
        samples.iter().copied().fold(0.0, f64::max),
        samples.len(),
        crate::calib::REFERENCE_NS,
    ));
    notes.push(format!("underflow_answers = {underflow} count (distinct answers read)"));
    // Printed, not gated: the checkpoint's cost is mostly `fsync`, whose
    // latency on a shared host moved the 4-entry warm_read figure by more
    // than 25% from run to run.
    notes.push(format!(
        "checkpoint_s = {} s (fastest of n={})",
        best(&checkpoint),
        checkpoint.len()
    ));

    // Per-layer metrics (traced runs).
    let mut per_layer = Vec::new();
    if opts.trace {
        let mut extra = tracer.fork(99);
        let (encode, decode, wire_n) = wire_probe(&inputs, &mut extra);
        let (early, late, subnormal, zero) = poibin_probe(&inputs, &mut extra);
        post_mutation_twin(spec, &inputs, &mut check, &mut extra);
        tracer.absorb(extra);
        per_layer = layer_metrics(
            &tracer,
            &inputs,
            LayerInputs {
                steady_p50: solve_p50,
                steady_service: combine(&steady_service, &probe_service, |x, y| x + y),
                steady_frontend,
                pays,
                restore_stats,
                snapshot_bytes,
                encode,
                decode,
                wire_n,
                poibin: (early, late, subnormal, zero),
                underflow,
            },
        );
        let dir = opts.work.parent().unwrap_or(&opts.work);
        let path = dir.join(format!("trace-{}.tsv", spec.name));
        match tracer.write_tsv(&path) {
            Ok(()) => notes.push(format!("spans written to {}", path.display())),
            Err(e) => notes.push(format!("spans not written: {e}")),
        }
    }

    notes.push(format!(
        "failed_frac = {} ({} of {} attempted)",
        share(check.failed as usize, check.attempted as usize),
        check.failed,
        check.attempted
    ));
    Outcome {
        end_to_end,
        per_layer,
        attempted: check.attempted,
        failed: check.failed,
        errors: check.errors,
        notes,
    }
}

struct LayerInputs {
    /// `solve_p50_us` as the untraced run computes it, here with spans on.
    steady_p50: f64,
    steady_service: ServiceStats,
    steady_frontend: FrontendStats,
    pays: usize,
    restore_stats: ServiceStats,
    snapshot_bytes: u64,
    encode: f64,
    decode: f64,
    wire_n: usize,
    poibin: (f64, f64, f64, f64),
    underflow: usize,
}

/// Derives every per-layer metric from the spans and counter deltas.
fn layer_metrics(tracer: &Tracer, inputs: &Inputs, l: LayerInputs) -> Vec<Metric> {
    let p50 = |layer: &str, op: &str| {
        let d = tracer.durations(layer, op);
        (median(&d) as f64 / 1e3, d.len())
    };
    let total_s = |layer: &str, op: &str, req: Option<u64>| {
        let spans = tracer
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.op == op && req.is_none_or(|r| s.req == r));
        let (mut sum, mut n) = (0u64, 0usize);
        for s in spans {
            sum += s.dur_ns();
            n += 1;
        }
        (sum as f64 / 1e9, n)
    };
    let (socket, socket_n) = p50("http", "Client::request");
    let (submit, submit_n) = p50("coalesce", "Frontend::submit");
    let (service_solve, service_n) = p50("service", "JuryService::solve");
    let (mutate, mutate_n) = p50("service", "mutate");
    let (lock_wait, lock_n) = p50("service", "lock_wait");
    let (post, post_n) = p50("service", "post_mutation_solve");
    let (create, create_n) = total_s("service", "JuryService::create_pool", None);
    let (warm, warm_n) = total_s("service", "JuryService::warm_pool", None);
    let (write, write_n) = total_s("snapshot", "JuryService::snapshot", None);
    let (altr, altr_n) = total_s("altr", "AltrAlg::solve_pruned", Some(0));
    let (paym, paym_n) = total_s("paym", "PayAlg::solve", Some(0));
    let base = |model: fn(&Kind) -> bool| {
        inputs.refs.iter().filter(move |(k, _)| k.0.pert.is_none() && model(&k.1))
    };
    let altr_refs = base(|k| *k == Kind::Altr);
    let (mut evals, mut pruned, mut candidates) = (0usize, 0usize, 0usize);
    for (_, s) in altr_refs {
        evals += s.stats.jer_evaluations;
        pruned += s.stats.pruned_by_bound;
        candidates += s.stats.candidates_considered;
    }
    let pay_evals: usize = base(|k| *k != Kind::Altr).map(|(_, s)| s.stats.jer_evaluations).sum();
    let sv = &l.steady_service;
    let fe = &l.steady_frontend;
    let m = |name, unit, value, samples| Metric { name, unit, value, samples };
    let count =
        |name, value: usize| Metric { name, unit: "count", value: value as f64, samples: 1 };
    vec![
        m("http.self_us", "us", socket - submit, socket_n.min(submit_n)),
        count("http.malformed", fe.malformed_requests as usize),
        m("coalesce.submit_p50_us", "us", submit, submit_n),
        m(
            "coalesce.inline_share",
            "share",
            share(fe.inline_solves as usize, fe.requests as usize),
            fe.requests as usize,
        ),
        m(
            "coalesce.window_occupancy",
            "tasks",
            share(fe.coalesced_tasks as usize, fe.coalesced_windows as usize),
            fe.coalesced_windows as usize,
        ),
        m(
            "coalesce.queue_wait_us",
            "us",
            share(fe.queue_wait_nanos as usize, fe.coalesced_tasks as usize) / 1e3,
            fe.coalesced_tasks as usize,
        ),
        count("coalesce.rejections", (fe.queue_rejections + fe.deadline_rejections) as usize),
        m("wire.encode_us", "us", l.encode, l.wire_n),
        m("wire.decode_us", "us", l.decode, l.wire_n),
        m("service.solve_p50_us", "us", service_solve, service_n),
        m(
            "service.cache_hit_share",
            "share",
            share(sv.cache_hits, sv.tasks_solved),
            sv.tasks_solved,
        ),
        m("service.staircase_hit_share", "share", share(sv.staircase_hits, l.pays), l.pays),
        m("service.mutate_us", "us", mutate, mutate_n),
        m("service.lock_wait_us", "us", lock_wait, lock_n),
        m("service.post_mutation_solve_us", "us", post, post_n),
        count("service.order_repairs", sv.order_repairs),
        count("service.insert_repairs", sv.insert_repairs),
        count("service.pmf_repairs", sv.pmf_repairs),
        count("service.pmf_rebuilds", sv.pmf_rebuilds),
        count("service.full_repairs", sv.full_repairs),
        count("service.artifact_detaches", sv.artifact_detaches),
        count("service.artifact_rejoins", sv.artifact_rejoins),
        m("service.create_pool_s", "s", create, create_n),
        m("service.warm_pool_s", "s", warm, warm_n),
        m("snapshot.write_s", "s", write, write_n),
        m("snapshot.bytes", "bytes", l.snapshot_bytes as f64, 1),
        count("snapshot.restores", l.restore_stats.snapshot_restores),
        count("snapshot.rejections", l.restore_stats.snapshot_rejections),
        m("altr.solve_s", "s", altr, altr_n),
        count("altr.jer_evals", evals),
        m("altr.pruned_share", "share", share(pruned, candidates), candidates),
        m("paym.solve_s", "s", paym, paym_n),
        count("paym.jer_evals", pay_evals),
        m("poibin.push_ns.early", "ns", l.poibin.0, 1),
        m("poibin.push_ns.late", "ns", l.poibin.1, 1),
        m("poibin.subnormal_share", "share", l.poibin.2, 1),
        m("poibin.zero_share", "share", l.poibin.3, 1),
        m("trace.solve_p50_us", "us", l.steady_p50, socket_n),
        count("trace.spans", tracer.spans.len()),
        count("quality.underflow_answers", l.underflow),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_streams_and_schedules() {
        let spec = spec("churn_mixed", true).expect("known workload");
        let mut off = Tracer::new(false, Instant::now(), 0);
        let a = Inputs::build(&spec, 5, true, &mut off);
        let b = Inputs::build(&spec, 5, true, &mut off);
        assert_eq!(a.base, b.base);
        assert_eq!(a.perts, b.perts);
        assert_eq!(a.refs.len(), b.refs.len());
        for (key, selection) in &a.refs {
            assert!(same(selection, &b.refs[key]), "reference {key:?} differs");
        }
        assert_eq!(a.base[0], a.base[1], "pool 1 replicates pool 0");
        let c = Inputs::build(&spec, 6, false, &mut off);
        assert_ne!(a.base[0], c.base[0]);

        let mut x = connection_states(&spec, 5, 2);
        let mut y = connection_states(&spec, 5, 2);
        for (p, q) in x.iter_mut().zip(y.iter_mut()) {
            assert_eq!(p.steps, q.steps);
            let left: Vec<_> = p.stream.by_ref().take(500).collect();
            let right: Vec<_> = q.stream.by_ref().take(500).collect();
            assert_eq!(left, right);
        }
        let owned: Vec<HashSet<usize>> =
            x.iter().map(|c| c.steps.iter().map(|s| s.slot).collect()).collect();
        assert!(owned[0].is_disjoint(&owned[1]), "every pool has one writer");
    }
}
