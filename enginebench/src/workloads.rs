//! The three workloads. Each is a sequence of whole rounds; a round
//! builds an engine (its set-up), drives it from the single load thread,
//! checks every answer against the generated truth, and drops it.

use crate::alloc::Snapshot;
use crate::fleet::{Fleet, Query, QueryKind, RunInput};
use crate::trace::{self, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wf_service::{
    Delta, EngineBuilder, RunId, RunOp, ServiceEvent, SpecContext, SpecId, SubPredicate,
    Subscription, Tier, WfEngine, Witness,
};

/// Standing-query queue bound: large enough that the catch-up scan a
/// subscription runs at registration fits, so a delta is only ever
/// dropped by a consumer that really lags.
const SUB_QUEUE: usize = 1 << 20;

/// Times each fleet round asks every pull query once the fleet settled.
const QUERY_REPEAT: usize = 3;

/// Operation counts and invariant checks of a run.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Checks that are not operations (tier policy, recovery counts).
    pub invariant_failures: u64,
    /// The first few failures, for stderr.
    pub notes: Vec<String>,
}

impl Ops {
    /// Count one operation; record a failure note when it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what);
        }
    }

    /// Count `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn invariant(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.invariant_failures += 1;
            self.note(what);
        }
    }

    fn note(&mut self, what: impl FnOnce() -> String) {
        if self.notes.len() < 16 {
            self.notes.push(what());
        }
    }
}

/// Events the fleet workloads send to one run before moving to the next.
pub const FLEET_CHUNK: usize = 16;
/// Reach probes after each barrier of the fleet workloads.
const PROBES_PER_BARRIER: usize = 32;
/// Events `lineage_read` sends to one run before moving to the next.
pub const LINEAGE_CHUNK: usize = 64;
/// `lineage_read`'s tiers: the oldest share of runs persisted, the next
/// share frozen, the rest hot.
pub const PERSISTED_SHARE: f64 = 0.625;
const FROZEN_SHARE: f64 = 0.25;

/// Parameters of the fleet workloads' load thread.
#[derive(Debug, Clone, Copy)]
pub struct FleetCfg {
    /// Events between `flush()` barriers.
    pub barrier_every: usize,
    /// Tiering policy (`fleet_lifecycle` only): hot-run cap and loose
    /// segment count that triggers compaction.
    pub tiering: Option<(usize, usize)>,
}

/// Parameters of `lineage_read`.
#[derive(Debug, Clone, Copy)]
pub struct LineageCfg {
    pub barrier_every: usize,
    /// Resident-byte budget of the persisted tier.
    pub resident_budget: u64,
    /// Client operations per round, one in `query_every` a cross-run
    /// query and the rest reach probes.
    pub reads: usize,
    pub query_every: usize,
}

/// An engine builder over the benchmark catalog.
pub fn builder(cat: &[Arc<SpecContext>]) -> EngineBuilder {
    let mut b = WfEngine::builder().sub_queue_capacity(SUB_QUEUE);
    for ctx in cat {
        b = b.context(Arc::clone(ctx));
    }
    b
}

pub fn predicate(q: &Query) -> SubPredicate {
    let p = match q.kind {
        QueryKind::VerticesNamed(n) => SubPredicate::vertices_named(n),
        QueryKind::ReachingFromSource(n) => SubPredicate::runs_reaching_named_from_source(n),
        QueryKind::Linking(a, b) => SubPredicate::runs_linking(a, b),
    };
    p.spec(SpecId(q.spec))
}

/// Ask `q` of the engine with the scope `scope` adds; the answer in the
/// truth's (run index, vertex) form. The bufmgr profile of the scan is
/// returned when `explain` is set.
fn ask(
    engine: &WfEngine,
    q: &Query,
    tier: Option<Tier>,
    explain: bool,
) -> (BTreeSet<(usize, u32)>, Option<wf_service::QueryProfile>) {
    let mut scope = engine.query().spec(SpecId(q.spec)).completed();
    if let Some(t) = tier {
        scope = scope.tier(t);
    }
    let idx = |r: RunId| r.0 as usize;
    let mut out = BTreeSet::new();
    let profile = if explain {
        let ex = scope.explain();
        match q.kind {
            QueryKind::VerticesNamed(n) => {
                let e = ex.vertices_named(n);
                for (r, vs) in e.value {
                    out.extend(vs.into_iter().map(|v| (idx(r), v.0)));
                }
                Some(e.profile)
            }
            QueryKind::ReachingFromSource(n) => {
                let e = ex.reaching_named_from_source(n);
                for sr in e.value {
                    out.extend(sr.witnesses.into_iter().map(|v| (idx(sr.run), v.0)));
                }
                Some(e.profile)
            }
            QueryKind::Linking(a, b) => {
                let e = ex.runs_linking(a, b);
                out.extend(e.value.into_iter().map(|r| (idx(r), 0)));
                Some(e.profile)
            }
        }
    } else {
        match q.kind {
            QueryKind::VerticesNamed(n) => {
                for (r, vs) in scope.vertices_named(n) {
                    out.extend(vs.into_iter().map(|v| (idx(r), v.0)));
                }
            }
            QueryKind::ReachingFromSource(n) => {
                for sr in scope.reaching_named_from_source(n) {
                    out.extend(sr.witnesses.into_iter().map(|v| (idx(sr.run), v.0)));
                }
            }
            QueryKind::Linking(a, b) => {
                out.extend(scope.runs_linking(a, b).into_iter().map(|r| (idx(r), 0)));
            }
        }
        None
    };
    (out, profile)
}

/// Standing queries and the deltas they delivered.
struct Standing {
    subs: Vec<Subscription>,
    added: Vec<Vec<(usize, u32)>>,
    removed: Vec<Vec<(usize, u32)>>,
}

impl Standing {
    fn reserve(fleet: &Fleet) -> Self {
        let standing = fleet.standing();
        Self {
            subs: Vec::with_capacity(3),
            added: standing
                .iter()
                .map(|q| Vec::with_capacity(q.truth.len() + 1024))
                .collect(),
            removed: standing.iter().map(|_| Vec::with_capacity(64)).collect(),
        }
    }

    fn subscribe(&mut self, engine: &WfEngine, fleet: &Fleet) {
        for q in fleet.standing() {
            self.subs.push(engine.subscribe(predicate(q)));
        }
    }

    /// Take every queued delta; a `Lagged` delta is a failed operation.
    fn drain(&mut self, ops: &mut Ops) {
        for (k, sub) in self.subs.iter().enumerate() {
            while let Some(d) = sub.try_recv() {
                let key = |run: RunId, w: &Witness| {
                    let v = match w {
                        Witness::Vertex(v) | Witness::Reach { target: v } => v.0,
                        Witness::Link { .. } => 0,
                    };
                    (run.0 as usize, v)
                };
                match d {
                    Delta::Added { run, witness } => {
                        self.added[k].push(key(run, &witness));
                        ops.ok(1);
                    }
                    Delta::Removed { run, witness } => {
                        self.removed[k].push(key(run, &witness));
                        ops.ok(1);
                    }
                    Delta::RunCompleted { .. } => ops.ok(1),
                    Delta::Lagged { dropped } => {
                        ops.op(false, || format!("standing query {k} lagged by {dropped}"))
                    }
                }
            }
        }
    }

    /// Compare the accumulated delta sets with the truth: every missing
    /// or extra witness is a failed operation.
    fn check(&self, fleet: &Fleet, ops: &mut Ops) {
        for (k, q) in fleet.standing().iter().enumerate() {
            let removed: BTreeSet<_> = self.removed[k].iter().copied().collect();
            let got: BTreeSet<_> = self.added[k]
                .iter()
                .copied()
                .filter(|w| !removed.contains(w))
                .collect();
            let wrong = got.symmetric_difference(&q.truth).count() as u64;
            ops.attempted += wrong;
            ops.failed += wrong;
            if wrong > 0 {
                ops.note(|| format!("standing query {k}: {wrong} witnesses differ"));
            }
        }
    }
}

/// Build the restart image: open every run, ingest its first half,
/// flush, and drop the engine, leaving the WAL in `dir`.
pub fn make_image(cat: &[Arc<SpecContext>], fleet: &Fleet, dir: &Path) {
    let engine = builder(cat).wal_dir(dir).build();
    for (i, r) in fleet.runs.iter().enumerate() {
        let run = engine.open_run(SpecId(r.spec)).expect("catalog spec");
        assert_eq!(run, RunId(i as u64), "a fresh engine numbers runs densely");
    }
    for op in schedule(&fleet.runs, |r| (0, r.half()), false, FLEET_CHUNK) {
        engine.ingest(op).expect("first-half ingest");
    }
    engine.flush();
    let errors = engine.take_ingest_errors();
    assert!(errors.is_empty(), "restart image ingest failed: {errors:?}");
}

/// The send order of a set of per-run event ranges: `chunk` events of
/// one run, then the next run's, round-robin (per-run order preserved),
/// with each run's `Complete` right after its last event when
/// `complete` is set.
fn schedule(
    runs: &[RunInput],
    range: impl Fn(&RunInput) -> (usize, usize),
    complete: bool,
    chunk: usize,
) -> Vec<ServiceEvent> {
    let ranges: Vec<(usize, usize)> = runs.iter().map(&range).collect();
    let total: usize = ranges.iter().map(|(a, b)| b - a).sum();
    let mut out = Vec::with_capacity(total + runs.len());
    let mut next: Vec<usize> = ranges.iter().map(|r| r.0).collect();
    let mut open: Vec<usize> = (0..runs.len()).collect();
    while !open.is_empty() {
        open.retain(|&i| {
            let end = ranges[i].1;
            let stop = (next[i] + chunk).min(end);
            for ev in &runs[i].events[next[i]..stop] {
                out.push(ServiceEvent {
                    run: RunId(i as u64),
                    op: RunOp::Insert(ev.clone()),
                });
            }
            next[i] = stop;
            if stop == end && complete {
                out.push(ServiceEvent {
                    run: RunId(i as u64),
                    op: RunOp::Complete,
                });
            }
            stop < end
        });
    }
    out
}

/// Every event of the fleet with each run's `Complete` after its last,
/// in the load thread's send order.
pub fn send_plan(fleet: &Fleet, chunk: usize) -> Vec<ServiceEvent> {
    schedule(&fleet.runs, |r| (0, r.events.len()), true, chunk)
}

/// What one round measured. Times are seconds unless named `_ms`.
#[derive(Debug, Default, Clone)]
pub struct Round {
    /// Set-up wall time and process CPU time.
    pub setup_s: f64,
    pub setup_cpu_s: f64,
    /// Events ingested in the timed window.
    pub events_timed: usize,
    /// First `ingest()` to the last `flush()` returning.
    pub ingest_s: f64,
    /// First `ingest()` to the engine settled (`drain()` returning on
    /// the fleets, the tiers built on `lineage_read`).
    pub settled_s: f64,
    /// The closing `drain()`.
    pub drain_s: f64,
    pub flush_ms: Vec<f64>,
    pub probes: usize,
    pub probe_s: f64,
    pub queries: usize,
    pub query_s: f64,
    /// Live heap the engine holds, and the events it holds.
    pub heap_bytes: f64,
    pub events_held: usize,
    pub disk_bytes: f64,
    /// Allocations and bytes allocated during ingest.
    pub allocs: (u64, u64),
    /// Process CPU seconds (every thread; the load thread's reach
    /// probes excluded) over the ingest and settle windows, and the load
    /// thread's CPU seconds in reach probes and cross-run queries.
    pub ingest_cpu_s: f64,
    pub settled_cpu_s: f64,
    pub probe_cpu_s: f64,
    pub query_cpu_s: f64,
    /// Traced detail (`lineage_round` with `detail`): reach ns per probe
    /// by tier (hot, frozen, persisted), tier-scoped scan ms by tier,
    /// EXPLAIN totals (pins, fault-ins, bytes faulted, queries), and the
    /// peak persisted resident bytes.
    pub reach_ns: [Vec<f64>; 3],
    pub scan_ms: [Vec<f64>; 3],
    pub explain: [u64; 4],
    pub peak_resident: u64,
}

/// Pick the probes for one barrier: half cycle over every run, half over
/// the runs completed most recently (which the tiering policy moves out
/// of the hot tier first). Only probes whose vertices were sent qualify.
fn pick_probes(
    fleet: &Fleet,
    sent: &[usize],
    recent: &VecDeque<usize>,
    want: usize,
    cursor: &mut usize,
) -> Vec<(usize, usize)> {
    let n = fleet.runs.len();
    let mut out = Vec::with_capacity(want);
    let mut tries = 0;
    while out.len() < want && tries < 4 * n {
        tries += 1;
        *cursor += 1;
        let i = if out.len() % 2 == 1 && !recent.is_empty() {
            recent[*cursor % recent.len()]
        } else {
            *cursor % n
        };
        let probes = &fleet.runs[i].probes;
        if probes.is_empty() {
            continue;
        }
        let j = (*cursor / n) % probes.len();
        if probes[j].ready <= sent[i] {
            out.push((i, j));
        }
    }
    out
}

/// One `fleet_ingest` / `fleet_lifecycle` round over the restart image.
#[allow(clippy::too_many_arguments)]
pub fn fleet_round(
    cat: &[Arc<SpecContext>],
    fleet: &Fleet,
    cfg: &FleetCfg,
    image: &Path,
    work: &Path,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Round {
    let round_span = tracer.enter("fleet_round");
    let wal_dir = work.join("wal");
    let spill_dir = work.join("spill");
    trace::copy_dir(image, &wal_dir).expect("copy the restart image");
    let n = fleet.runs.len();
    let mut out = Round {
        flush_ms: Vec::with_capacity(fleet.events / cfg.barrier_every.max(1) + 8),
        ..Round::default()
    };
    let mut standing = Standing::reserve(fleet);
    let mut sent: Vec<usize> = fleet.runs.iter().map(RunInput::half).collect();
    let mut recent: VecDeque<usize> = VecDeque::with_capacity(65);
    let heap_base = Snapshot::now().live;
    let mut plan = schedule(
        &fleet.runs,
        |r| (r.half(), r.events.len()),
        true,
        FLEET_CHUNK,
    );

    // Set-up: recovery replay, then the standing queries' catch-up.
    let t = tracer.enter("setup");
    let setup_start = Instant::now();
    let setup_cpu = trace::process_cpu_ns();
    let mut b = builder(cat).wal_dir(&wal_dir);
    if let Some((max_hot, compact_after)) = cfg.tiering {
        b = b
            .spill_dir(&spill_dir)
            .max_hot_runs(max_hot)
            .compact_after(compact_after);
    }
    let mut engine = tracer.span("engine_build", || b.build());
    tracer.span("subscribe", || standing.subscribe(&engine, fleet));
    out.setup_s = setup_start.elapsed().as_secs_f64();
    out.setup_cpu_s = (trace::process_cpu_ns() - setup_cpu) as f64 / 1e9;
    tracer.exit(t);

    // Recovery resurrected every run with what was sent.
    let stats = engine.stats();
    let sent_records: u64 = fleet.runs.iter().map(|r| 1 + r.half() as u64).sum();
    ops.invariant(
        stats.wal_recovered_runs == n as u64 && stats.wal_recovered_records == sent_records,
        || {
            format!(
                "recovery: {} runs / {} records, sent {n} / {sent_records}",
                stats.wal_recovered_runs, stats.wal_recovered_records
            )
        },
    );
    for (i, r) in fleet.runs.iter().enumerate() {
        let applied = engine
            .handle(RunId(i as u64))
            .map(|h| h.events_applied())
            .unwrap_or(0);
        ops.op(applied == r.half() as u64, || {
            format!("run {i} recovered {applied} of {} events", r.half())
        });
    }
    standing.drain(ops);

    // Timed phase: resume every run, barrier every `barrier_every`.
    let timed = tracer.enter("timed");
    let alloc0 = Snapshot::now();
    let cpu0 = trace::process_cpu_ns();
    let start = Instant::now();
    let mut since_barrier = 0usize;
    let mut cursor = 0usize;
    let mut probe_time = Duration::ZERO;
    let mut probe_cpu = 0u64;
    for ev in plan.drain(..) {
        let i = ev.run.0 as usize;
        let is_insert = matches!(ev.op, RunOp::Insert(_));
        let t = tracer.enter("ingest");
        let res = engine.ingest(ev);
        tracer.exit(t);
        ops.op(res.is_ok(), || format!("ingest into run {i}: {res:?}"));
        if is_insert {
            sent[i] += 1;
            out.events_timed += 1;
            since_barrier += 1;
        } else {
            if recent.len() == 64 {
                recent.pop_front();
            }
            recent.push_back(i);
        }
        if since_barrier == cfg.barrier_every {
            since_barrier = 0;
            barrier(&engine, tracer, &mut out, ops);
            tracer.span("drain_deltas", || standing.drain(ops));
            let picks = pick_probes(fleet, &sent, &recent, PROBES_PER_BARRIER, &mut cursor);
            let (wall, cpu) = probe(&engine, fleet, &picks, tracer, ops, None);
            probe_time += wall;
            probe_cpu += cpu;
            out.probes += picks.len();
        }
    }
    barrier(&engine, tracer, &mut out, ops);
    out.ingest_s = start.elapsed().as_secs_f64();
    out.ingest_cpu_s = (trace::process_cpu_ns() - cpu0 - probe_cpu) as f64 / 1e9;
    let drain_start = Instant::now();
    tracer.span("drain", || engine.drain());
    out.drain_s = drain_start.elapsed().as_secs_f64();
    out.settled_s = start.elapsed().as_secs_f64();
    out.settled_cpu_s = (trace::process_cpu_ns() - cpu0 - probe_cpu) as f64 / 1e9;
    out.probe_cpu_s = probe_cpu as f64 / 1e9;
    out.allocs = Snapshot::now().since(alloc0);
    tracer.exit(timed);
    drop(plan);

    for (run, e) in engine.take_ingest_errors() {
        ops.op(false, || format!("ingest error on {run}: {e}"));
    }
    standing.drain(ops);
    out.heap_bytes = Snapshot::now().live.saturating_sub(heap_base) as f64;
    out.events_held = fleet.events;
    out.disk_bytes = (trace::dir_bytes(&wal_dir) + trace::dir_bytes(&spill_dir)) as f64;
    out.probe_s = probe_time.as_secs_f64();

    // Tier policy after drain: nothing live, at most `max_hot` runs hot,
    // everything else spilled.
    let stats = engine.stats();
    if let Some((max_hot, _)) = cfg.tiering {
        ops.invariant(
            stats.runs_live == 0
                && stats.runs_hot as usize <= max_hot
                && stats.runs_frozen == 0
                && (stats.runs_hot + stats.runs_persisted) as usize == n,
            || {
                format!(
                    "tier policy: live {} hot {} frozen {} persisted {} (cap {max_hot}, runs {n})",
                    stats.runs_live, stats.runs_hot, stats.runs_frozen, stats.runs_persisted
                )
            },
        );
    } else {
        ops.invariant(stats.runs_live == 0 && stats.runs_hot as usize == n, || {
            format!(
                "{} runs live, {} hot after drain",
                stats.runs_live, stats.runs_hot
            )
        });
    }
    for (i, r) in fleet.runs.iter().enumerate() {
        let published = engine
            .handle(RunId(i as u64))
            .map(|h| h.published())
            .unwrap_or(0);
        ops.op(published == r.events.len(), || {
            format!("run {i} published {published} of {}", r.events.len())
        });
    }

    // The pull form of every predicate, against the truth.
    let q_start = Instant::now();
    let q_cpu = trace::thread_cpu_ns();
    for q in fleet
        .queries
        .iter()
        .cycle()
        .take(QUERY_REPEAT * fleet.queries.len())
    {
        let (got, _) = tracer.span("query", || ask(&engine, q, None, false));
        ops.op(got == q.truth, || format!("query {:?} differs", q.kind));
        out.queries += 1;
    }
    out.query_s = q_start.elapsed().as_secs_f64();
    out.query_cpu_s = (trace::thread_cpu_ns() - q_cpu) as f64 / 1e9;
    standing.check(fleet, ops);
    drop(standing);
    drop(engine);
    let _ = std::fs::remove_dir_all(work);
    tracer.exit(round_span);
    out
}

fn barrier(engine: &WfEngine, tracer: &mut Tracer, out: &mut Round, ops: &mut Ops) {
    let t = tracer.enter("flush");
    let start = Instant::now();
    engine.flush();
    out.flush_ms.push(trace::ms(start.elapsed()));
    tracer.exit(t);
    ops.ok(1);
}

/// Run reach probes `(run index, probe index)`, each through a fresh
/// handle, and check every answer against BFS. Returns the wall time and
/// the calling thread's CPU nanoseconds spent; when `by_tier` is given,
/// each probe's own wall time is added to its tier.
fn probe(
    engine: &WfEngine,
    fleet: &Fleet,
    picks: &[(usize, usize)],
    tracer: &mut Tracer,
    ops: &mut Ops,
    mut by_tier: Option<&mut [Vec<f64>; 3]>,
) -> (Duration, u64) {
    let mut answers = Vec::with_capacity(picks.len());
    let cpu0 = trace::thread_cpu_ns();
    let start = Instant::now();
    for &(i, j) in picks {
        let p = fleet.runs[i].probes[j];
        let t = tracer.enter("reach");
        let t0 = Instant::now();
        let (answer, tier) = match engine.handle(RunId(i as u64)) {
            Ok(h) => (h.reach(p.u, p.v), Some(h.tier())),
            Err(_) => (None, None),
        };
        let dt = t0.elapsed();
        tracer.exit(t);
        if let (Some(acc), Some(tier)) = (by_tier.as_deref_mut(), tier) {
            acc[tier as usize].push(dt.as_nanos() as f64);
        }
        answers.push(answer);
    }
    let elapsed = start.elapsed();
    let cpu = trace::thread_cpu_ns() - cpu0;
    for (&(i, j), answer) in picks.iter().zip(answers) {
        let p = fleet.runs[i].probes[j];
        ops.op(answer == Some(p.truth), || {
            format!(
                "reach run {i} {:?}->{:?}: {answer:?}, BFS {}",
                p.u, p.v, p.truth
            )
        });
    }
    (elapsed, cpu)
}

/// Where run `i` of `n` lives after the `lineage_read` set-up: the oldest
/// runs persisted, the next frozen, the newest hot.
fn lineage_tier(n: usize, i: usize) -> Tier {
    let persisted = (n as f64 * PERSISTED_SHARE) as usize;
    let frozen = (n as f64 * FROZEN_SHARE) as usize;
    if i < persisted {
        Tier::Persisted
    } else if i < persisted + frozen {
        Tier::Frozen
    } else {
        Tier::Hot
    }
}

/// The client's operation sequence: `None` is a cross-run query, `Some`
/// a reach probe with recency-skewed run choice (newest runs most
/// likely).
fn read_plan(fleet: &Fleet, cfg: &LineageCfg, seed: u64) -> Vec<Option<(usize, usize)>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x11AE_A6E0_0000_0003);
    let n = fleet.runs.len();
    (0..cfg.reads)
        .map(|k| {
            if k % cfg.query_every == cfg.query_every - 1 {
                return None;
            }
            loop {
                let u: f64 = rng.gen_range(0.0..1.0);
                let back = ((n as f64) * u * u * u) as usize;
                let i = n - 1 - back.min(n - 1);
                let probes = &fleet.runs[i].probes;
                if !probes.is_empty() {
                    return Some((i, rng.gen_range(0..probes.len())));
                }
            }
        })
        .collect()
}

/// One `lineage_read` round: build the tiers (set-up), then run the
/// closed-loop client. `detail` adds the traced per-tier measurements.
#[allow(clippy::too_many_arguments)]
pub fn lineage_round(
    cat: &[Arc<SpecContext>],
    fleet: &Fleet,
    cfg: &LineageCfg,
    seed: u64,
    work: &Path,
    detail: bool,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Round {
    let round_span = tracer.enter("lineage_round");
    let spill_dir = work.join("spill");
    let n = fleet.runs.len();
    let mut out = Round {
        flush_ms: Vec::with_capacity(fleet.events / cfg.barrier_every.max(1) + 8),
        ..Round::default()
    };
    let plan = read_plan(fleet, cfg, seed);
    let heap_base = Snapshot::now().live;
    let mut sends = send_plan(fleet, LINEAGE_CHUNK);

    let setup = tracer.enter("setup");
    let setup_start = Instant::now();
    let setup_cpu = trace::process_cpu_ns();
    let b = builder(cat)
        .spill_dir(&spill_dir)
        .max_resident_bytes(cfg.resident_budget);
    let engine = tracer.span("engine_build", || b.build());
    for r in &fleet.runs {
        let run = tracer.span("open_run", || engine.open_run(SpecId(r.spec)));
        ops.op(run.is_ok(), || format!("open_run: {run:?}"));
    }
    let alloc0 = Snapshot::now();
    let cpu0 = trace::process_cpu_ns();
    let ingest_start = Instant::now();
    let mut since_barrier = 0usize;
    for ev in sends.drain(..) {
        let is_insert = matches!(ev.op, RunOp::Insert(_));
        let t = tracer.enter("ingest");
        let res = engine.ingest(ev);
        tracer.exit(t);
        ops.op(res.is_ok(), || format!("ingest: {res:?}"));
        if is_insert {
            out.events_timed += 1;
            since_barrier += 1;
            if since_barrier == cfg.barrier_every {
                since_barrier = 0;
                lineage_barrier(&engine, tracer, &mut out, ops);
            }
        }
    }
    lineage_barrier(&engine, tracer, &mut out, ops);
    out.ingest_s = ingest_start.elapsed().as_secs_f64();
    out.ingest_cpu_s = (trace::process_cpu_ns() - cpu0) as f64 / 1e9;
    out.allocs = Snapshot::now().since(alloc0);
    // The oldest seven eighths of the persisted runs are compacted into
    // packs; the newest eighth stays loose segments, read through
    // fault-in.
    let persisted = (0..n)
        .filter(|&i| lineage_tier(n, i) == Tier::Persisted)
        .count();
    let packed = persisted * 7 / 8;
    let place = |i: usize, tracer: &mut Tracer, ops: &mut Ops| {
        let run = RunId(i as u64);
        let res = match lineage_tier(n, i) {
            Tier::Persisted => tracer.span("persist_run", || engine.persist_run(run)),
            Tier::Frozen => tracer.span("freeze_run", || engine.freeze_run(run)),
            Tier::Hot => Ok(()),
        };
        ops.op(res.is_ok(), || format!("tiering {run}: {res:?}"));
    };
    for i in 0..packed {
        place(i, tracer, ops);
    }
    let compacted = tracer.span("compact", || engine.compact());
    ops.op(compacted.is_ok(), || format!("compact: {compacted:?}"));
    for i in packed..n {
        place(i, tracer, ops);
    }
    out.settled_s = ingest_start.elapsed().as_secs_f64();
    out.settled_cpu_s = (trace::process_cpu_ns() - cpu0) as f64 / 1e9;
    out.setup_s = setup_start.elapsed().as_secs_f64();
    out.setup_cpu_s = (trace::process_cpu_ns() - setup_cpu) as f64 / 1e9;
    tracer.exit(setup);
    drop(sends);
    for (run, e) in engine.take_ingest_errors() {
        ops.op(false, || format!("ingest error on {run}: {e}"));
    }
    out.heap_bytes = Snapshot::now().live.saturating_sub(heap_base) as f64;
    out.events_held = fleet.events;
    out.disk_bytes = trace::dir_bytes(&spill_dir) as f64;
    let mut misplaced = 0;
    for i in 0..n {
        if engine.run_tier(RunId(i as u64)).ok() != Some(lineage_tier(n, i)) {
            misplaced += 1;
        }
    }
    ops.invariant(misplaced == 0, || {
        format!("{misplaced} runs in the wrong tier")
    });

    // The closed-loop client.
    let reads = tracer.enter("reads");
    let mut probe_time = Duration::ZERO;
    let mut probe_cpu = 0u64;
    let mut query_time = Duration::ZERO;
    let mut query_cpu = 0u64;
    let mut next_query = 0usize;
    let mut k = 0;
    while k < plan.len() {
        let end = plan[k..]
            .iter()
            .position(Option::is_none)
            .map_or(plan.len(), |p| k + p);
        let picks: Vec<(usize, usize)> = plan[k..end].iter().flatten().copied().collect();
        let by_tier = detail.then_some(&mut out.reach_ns);
        let (wall, cpu) = probe(&engine, fleet, &picks, tracer, ops, by_tier);
        probe_time += wall;
        probe_cpu += cpu;
        out.probes += picks.len();
        if end < plan.len() {
            let q = &fleet.queries[next_query % fleet.queries.len()];
            next_query += 1;
            let t = tracer.enter("query");
            let cpu = trace::thread_cpu_ns();
            let start = Instant::now();
            let (got, _) = ask(&engine, q, None, false);
            query_time += start.elapsed();
            query_cpu += trace::thread_cpu_ns() - cpu;
            tracer.exit(t);
            ops.op(got == q.truth, || format!("query {:?} differs", q.kind));
            out.queries += 1;
            if detail {
                out.peak_resident = out
                    .peak_resident
                    .max(engine.stats().persisted_resident_bytes);
            }
        }
        k = end + 1;
    }
    out.probe_s = probe_time.as_secs_f64();
    out.probe_cpu_s = probe_cpu as f64 / 1e9;
    out.query_s = query_time.as_secs_f64();
    out.query_cpu_s = query_cpu as f64 / 1e9;
    tracer.exit(reads);

    if detail {
        // Tier-scoped scans and EXPLAIN profiles of every predicate.
        for tier in [Tier::Hot, Tier::Frozen, Tier::Persisted] {
            for q in &fleet.queries {
                let truth: BTreeSet<(usize, u32)> = q
                    .truth
                    .iter()
                    .copied()
                    .filter(|&(i, _)| lineage_tier(n, i) == tier)
                    .collect();
                let t = tracer.enter("tier_query");
                let start = Instant::now();
                let (got, _) = ask(&engine, q, Some(tier), false);
                out.scan_ms[tier as usize].push(trace::ms(start.elapsed()));
                tracer.exit(t);
                ops.op(got == truth, || {
                    format!("{tier} query {:?} differs", q.kind)
                });
            }
        }
        for q in &fleet.queries {
            let (got, profile) = ask(&engine, q, None, true);
            ops.op(got == q.truth, || {
                format!("explained query {:?} differs", q.kind)
            });
            if let Some(p) = profile {
                out.explain[0] += p.pack_pins;
                out.explain[1] += p.fault_ins;
                out.explain[2] += p.bytes_faulted;
                out.explain[3] += 1;
            }
            out.peak_resident = out
                .peak_resident
                .max(engine.stats().persisted_resident_bytes);
        }
    }
    let mut engine = engine;
    let drain_start = Instant::now();
    tracer.span("drain", || engine.drain());
    out.drain_s = drain_start.elapsed().as_secs_f64();
    drop(engine);
    let _ = std::fs::remove_dir_all(work);
    tracer.exit(round_span);
    out
}

fn lineage_barrier(engine: &WfEngine, tracer: &mut Tracer, out: &mut Round, ops: &mut Ops) {
    let t = tracer.enter("flush");
    let start = Instant::now();
    engine.flush();
    out.flush_ms.push(trace::ms(start.elapsed()));
    tracer.exit(t);
    ops.ok(1);
}
