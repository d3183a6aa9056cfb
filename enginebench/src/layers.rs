//! Layer acts: each replays the workload's own pre-generated streams
//! through one layer's public functions and times only that layer, so
//! the end-to-end ns/event can be split into a ledger.

use crate::alloc::Snapshot;
use crate::fleet::Fleet;
use crate::trace::{self, median, ns_per, Tracer};
use crate::workloads::{builder, Ops};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wf_drl::{DrlLabel, ExecutionLabeler, ResolutionMode};
use wf_graph::{NameId, VertexId};
use wf_service::index::LabelIndex;
use wf_service::snapshot::{self, ManifestEntry};
use wf_service::{RunId, RunOp, ServiceEvent, SpecContext, SpecId, WfEngine};
use wf_wal::{NullObserver, Record, RecordKind, WalSync, WalWriter};

/// Timed passes per act; each act reports the median pass.
const PASSES: usize = 3;
/// Runs the spill acts persist (each persist writes and syncs files).
const SPILL_RUNS: usize = 128;

/// One named per-layer value.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What the acts need to know about the workload they replay.
pub struct ActCtx<'a> {
    /// The workload's WAL restart image, when it has one.
    pub image: Option<&'a Path>,
    /// Runs the workload keeps persisted (sizes the manifest act).
    pub persisted_runs: usize,
    pub barrier_every: usize,
    pub chunk: usize,
}

fn labeler<'s>(ctx: &'s SpecContext) -> ExecutionLabeler<'s, wf_skeleton::TclSpecLabels> {
    match ctx.default_resolution() {
        ResolutionMode::NameBased => ExecutionLabeler::new(&ctx.spec, &ctx.skeleton),
        ResolutionMode::LogBased => ExecutionLabeler::new_log_based(&ctx.spec, &ctx.skeleton),
    }
    .expect("corpus specs label")
}

type RunLabels = (Vec<(VertexId, NameId, DrlLabel)>, usize);

/// Every act in turn over `fleet` (the workload's bounded slice).
pub fn run_acts(
    cat: &[Arc<SpecContext>],
    fleet: &Fleet,
    ctx: &ActCtx<'_>,
    work: &Path,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let events = fleet.events;
    let per_event =
        |(allocs, bytes): (u64, u64)| (allocs as f64 / events as f64, bytes as f64 / events as f64);

    // wf-drl: bare labeler inserts; the labels feed the publish act.
    let t = tracer.enter("act.drl_insert");
    let mut insert_ns = Vec::new();
    let mut insert_alloc = (0, 0);
    let mut labels: Vec<RunLabels> = Vec::new();
    let mut bits = 0u64;
    for pass in 0..PASSES {
        let mut labelers: Vec<_> = fleet.runs.iter().map(|r| labeler(&cat[r.spec])).collect();
        let a0 = Snapshot::now();
        let start = Instant::now();
        let mut rejected = 0;
        for (l, r) in labelers.iter_mut().zip(&fleet.runs) {
            for ev in &r.events {
                rejected += usize::from(l.insert(ev).is_err());
            }
        }
        insert_ns.push(ns_per(start.elapsed(), events));
        insert_alloc = Snapshot::now().since(a0);
        ops.op(rejected == 0, || {
            format!("labeler rejected {rejected} events")
        });
        if pass == 0 {
            for (l, r) in labelers.iter().zip(&fleet.runs) {
                let mut run = Vec::with_capacity(r.events.len());
                for ev in &r.events {
                    bits += l.label_bits(ev.vertex).unwrap_or(0) as u64;
                    if let Some(label) = l.label(ev.vertex) {
                        run.push((ev.vertex, ev.name, label.clone()));
                    }
                }
                labels.push((run, l.skl_bits()));
            }
        }
    }
    tracer.exit(t);
    let insert = median(&insert_ns);
    m.push(metric("drl.insert_ns", insert, "ns/event"));
    m.push(metric(
        "drl.label_bits_per_event",
        bits as f64 / events as f64,
        "bits/event",
    ));
    let (a, b) = per_event(insert_alloc);
    m.push(metric(
        "alloc.count_per_event.drl_insert",
        a,
        "allocs/event",
    ));
    m.push(metric("alloc.bytes_per_event.drl_insert", b, "B/event"));

    // Index publish of those labels into fresh write-once indexes.
    let t = tracer.enter("act.index_publish");
    let mut publish_ns = Vec::new();
    let mut publish_alloc = (0, 0);
    let mut resident = 0u64;
    for _ in 0..PASSES {
        let owned: Vec<RunLabels> = labels.clone();
        let indexes: Vec<LabelIndex> = owned.iter().map(|_| LabelIndex::new()).collect();
        let a0 = Snapshot::now();
        let start = Instant::now();
        for ((run, skl_bits), idx) in owned.into_iter().zip(&indexes) {
            for (v, name, label) in run {
                idx.publish(v, name, label, skl_bits);
            }
        }
        publish_ns.push(ns_per(start.elapsed(), events));
        publish_alloc = Snapshot::now().since(a0);
        resident = indexes.iter().map(LabelIndex::resident_bytes).sum();
    }
    tracer.exit(t);
    drop(labels);
    m.push(metric("index.publish_ns", median(&publish_ns), "ns/event"));
    m.push(metric(
        "index.resident_bytes_per_event",
        resident as f64 / events as f64,
        "B/event",
    ));
    let (a, _) = per_event(publish_alloc);
    m.push(metric(
        "alloc.count_per_event.index_publish",
        a,
        "allocs/event",
    ));

    // Synchronous handle submit: labeler + publish + run bookkeeping, no
    // pool, no WAL.
    let t = tracer.enter("act.handle_submit");
    let mut submit_ns = Vec::new();
    let mut submit_alloc = (0, 0);
    for _ in 0..PASSES {
        let engine = builder(cat).build();
        let handles: Vec<_> = fleet
            .runs
            .iter()
            .map(|r| {
                let run = engine.open_run(SpecId(r.spec)).expect("catalog spec");
                engine.handle(run).expect("just opened")
            })
            .collect();
        let a0 = Snapshot::now();
        let start = Instant::now();
        let mut failed = 0;
        for (h, r) in handles.iter().zip(&fleet.runs) {
            for ev in &r.events {
                failed += usize::from(h.submit(ev).is_err());
            }
        }
        submit_ns.push(ns_per(start.elapsed(), events));
        submit_alloc = Snapshot::now().since(a0);
        ops.op(failed == 0, || format!("{failed} handle submits failed"));
    }
    tracer.exit(t);
    let submit = median(&submit_ns);
    m.push(metric("handle.submit_ns", submit, "ns/event"));
    let (a, _) = per_event(submit_alloc);
    m.push(metric(
        "alloc.count_per_event.handle_submit",
        a,
        "allocs/event",
    ));

    // The pooled path with and without the workload's standing queries,
    // passes interleaved so drift hits both alike.
    let t = tracer.enter("act.ingest_pool");
    let mut pool_ns = Vec::new();
    let mut subs_ns = Vec::new();
    let mut pool_cpu = Vec::new();
    let mut subs_cpu = Vec::new();
    let mut enqueue_ns = Vec::new();
    let mut pool_alloc = (0, 0);
    let mut deltas = 0u64;
    for _ in 0..PASSES {
        let p = pool_pass(cat, fleet, ctx.chunk, false, false, ops);
        pool_ns.push(ns_per(p.wall, events));
        pool_cpu.push(p.cpu_ns as f64 / events as f64);
        pool_alloc = p.alloc;
        let p = pool_pass(cat, fleet, ctx.chunk, true, false, ops);
        subs_ns.push(ns_per(p.wall, events));
        subs_cpu.push(p.cpu_ns as f64 / events as f64);
        deltas = p.deltas;
        let p = pool_pass(cat, fleet, ctx.chunk, false, true, ops);
        enqueue_ns.push(ns_per(p.inside, events));
    }
    tracer.exit(t);
    let pool = median(&pool_ns);
    let notify = median(&subs_ns) - pool;
    m.push(metric("ingest.enqueue_ns", median(&enqueue_ns), "ns/event"));
    m.push(metric("ingest.pool_ns", pool, "ns/event"));
    m.push(metric("ingest.hop_ns", pool - submit, "ns/event"));
    m.push(metric("sub.notify_ns", notify, "ns/event"));
    m.push(metric("ingest.pool_cpu_ns", median(&pool_cpu), "ns/event"));
    m.push(metric(
        "sub.notify_cpu_ns",
        median(&subs_cpu) - median(&pool_cpu),
        "ns/event",
    ));
    m.push(metric(
        "sub.deltas_per_event",
        deltas as f64 / events as f64,
        "deltas/event",
    ));
    let (a, _) = per_event(pool_alloc);
    m.push(metric(
        "alloc.count_per_event.ingest_pool",
        a,
        "allocs/event",
    ));

    // WAL append and barrier over the workload's records.
    let t = tracer.enter("act.wal");
    let wal_dir = work.join("act-wal");
    let (append, barrier_ms, wal_bytes) = wal_act(fleet, ctx.barrier_every, &wal_dir, ops);
    m.push(metric("wal.append_ns", append, "ns/record"));
    m.push(metric("wal.barrier_ms", barrier_ms, "ms"));
    m.push(metric(
        "wal.bytes_per_event",
        wal_bytes as f64 / events as f64,
        "B/event",
    ));
    let image = ctx.image.unwrap_or(&wal_dir);
    let mut recover_s = Vec::new();
    for _ in 0..PASSES {
        let start = Instant::now();
        let rec = wf_wal::recover(image);
        recover_s.push(start.elapsed().as_secs_f64());
        ops.op(rec.is_ok(), || format!("wal recover: {:?}", rec.err()));
    }
    m.push(metric("wal.recover_s", median(&recover_s), "s"));
    let ckpt_dir = work.join("act-ckpt");
    trace::copy_dir(image, &ckpt_dir).expect("copy the WAL image");
    let writer = WalWriter::open(
        &ckpt_dir,
        shards(),
        WalSync::default(),
        Box::new(NullObserver),
    )
    .expect("open the WAL copy");
    let mut ckpt_ms = Vec::new();
    for k in 0..8u64 {
        let start = Instant::now();
        let res = writer.checkpoint(k as usize % writer.shards(), k);
        ckpt_ms.push(trace::ms(start.elapsed()));
        ops.op(res.is_ok(), || format!("wal checkpoint: {res:?}"));
    }
    drop(writer);
    m.push(metric("wal.checkpoint_ms", median(&ckpt_ms), "ms"));
    tracer.exit(t);

    // Freeze, spill and compaction, without and with the WAL.
    let t = tracer.enter("act.tiering");
    let spill_runs = fleet.runs.len().min(SPILL_RUNS);
    let (freeze_us, spill_ms, compact_ms) = tier_act(cat, fleet, spill_runs, None, work, ops);
    let (_, spill_wal_ms, _) = tier_act(
        cat,
        fleet,
        spill_runs,
        Some(&work.join("tier-wal")),
        work,
        ops,
    );
    m.push(metric("freeze.run_us", freeze_us, "us/run"));
    m.push(metric("snapshot.spill_ms", spill_ms, "ms/run"));
    m.push(metric("snapshot.spill_wal_ms", spill_wal_ms, "ms/run"));
    m.push(metric("store.compact_ms", compact_ms, "ms"));
    let entries: Vec<ManifestEntry> = (0..ctx.persisted_runs.max(1) as u64)
        .map(|i| ManifestEntry {
            run: RunId(i),
            file: snapshot::pack_file_name(i / 64),
            offset: (i % 64) * 4096,
            bytes: 4096,
        })
        .collect();
    let manifest_dir = work.join("act-manifest");
    let mut manifest_ms = Vec::new();
    for epoch in 0..8 {
        let start = Instant::now();
        let res = snapshot::write_manifest(&manifest_dir, &entries, epoch);
        manifest_ms.push(trace::ms(start.elapsed()));
        ops.op(res.is_ok(), || format!("write_manifest: {res:?}"));
    }
    m.push(metric("snapshot.manifest_ms", median(&manifest_ms), "ms"));
    tracer.exit(t);

    // Reach on live runs: first halves in, flushed, every ready probe.
    let t = tracer.enter("act.live_reach");
    let engine = builder(cat).build();
    for r in &fleet.runs {
        engine.open_run(SpecId(r.spec)).expect("catalog spec");
    }
    for (i, r) in fleet.runs.iter().enumerate() {
        for ev in &r.events[..r.half()] {
            let res = engine.ingest(ServiceEvent {
                run: RunId(i as u64),
                op: RunOp::Insert(ev.clone()),
            });
            ops.op(res.is_ok(), || format!("live act ingest: {res:?}"));
        }
    }
    engine.flush();
    let mut live_ns = Vec::new();
    for (i, r) in fleet.runs.iter().enumerate() {
        for p in r.probes.iter().filter(|p| p.ready <= r.half()) {
            let start = Instant::now();
            let answer = engine
                .handle(RunId(i as u64))
                .ok()
                .and_then(|h| h.reach(p.u, p.v));
            live_ns.push(start.elapsed().as_nanos() as f64);
            ops.op(answer == Some(p.truth), || {
                format!("live reach run {i}: {answer:?}")
            });
        }
    }
    drop(engine);
    m.push(metric("handle.reach_ns.live", median(&live_ns), "ns"));
    tracer.exit(t);
    let _ = std::fs::remove_dir_all(work);
    m
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The engine's default WAL shard count (one per ingest worker).
fn shards() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(4)
        .clamp(1, 8)
}

/// What one pooled ingest pass measured.
struct PoolPass {
    wall: Duration,
    /// Process CPU over the same window.
    cpu_ns: u64,
    /// Time inside `ingest()` calls (when timed).
    inside: Duration,
    alloc: (u64, u64),
    /// Deltas the standing queries delivered (when registered).
    deltas: u64,
}

/// One pooled ingest of the whole slice (no WAL): `ingest()` every
/// event round-robin, then the closing `flush()`, optionally with the
/// workload's standing queries registered and with every call timed.
fn pool_pass(
    cat: &[Arc<SpecContext>],
    fleet: &Fleet,
    chunk: usize,
    subs: bool,
    time_calls: bool,
    ops: &mut Ops,
) -> PoolPass {
    let engine = builder(cat).build();
    for r in &fleet.runs {
        engine.open_run(SpecId(r.spec)).expect("catalog spec");
    }
    let standing: Vec<_> = if subs {
        fleet
            .standing()
            .iter()
            .map(|q| engine.subscribe(crate::workloads::predicate(q)))
            .collect()
    } else {
        Vec::new()
    };
    let plan = crate::workloads::send_plan(fleet, chunk);
    let a0 = Snapshot::now();
    let mut inside = Duration::ZERO;
    let mut failed = 0;
    let cpu0 = trace::process_cpu_ns();
    let start = Instant::now();
    for ev in plan {
        let res = if time_calls {
            let t = Instant::now();
            let res = engine.ingest(ev);
            inside += t.elapsed();
            res
        } else {
            engine.ingest(ev)
        };
        failed += usize::from(res.is_err());
    }
    engine.flush();
    let wall = start.elapsed();
    let cpu_ns = trace::process_cpu_ns() - cpu0;
    let alloc = Snapshot::now().since(a0);
    ops.op(failed == 0, || format!("{failed} pooled ingests failed"));
    let mut deltas = 0;
    for s in &standing {
        while s.try_recv().is_some() {
            deltas += 1;
        }
    }
    PoolPass {
        wall,
        cpu_ns,
        inside,
        alloc,
        deltas,
    }
}

/// Append every record of the slice (open, events, complete) to a fresh
/// WAL, with a barrier every `barrier_every` records. Returns append
/// ns/record, median barrier ms, and the bytes on disk.
fn wal_act(fleet: &Fleet, barrier_every: usize, dir: &Path, ops: &mut Ops) -> (f64, f64, u64) {
    let shards = shards();
    let mut records: Vec<Record> = Vec::with_capacity(fleet.events + 2 * fleet.runs.len());
    for (i, r) in fleet.runs.iter().enumerate() {
        let run = i as u64;
        let mut open = (r.spec as u32).to_le_bytes().to_vec();
        open.push(0);
        records.push(Record {
            kind: RecordKind::RunOpen,
            run,
            seq: 0,
            payload: open,
        });
        for (k, ev) in r.events.iter().enumerate() {
            let mut payload = Vec::new();
            wf_drl::encode::write_event(&mut payload, ev);
            records.push(Record {
                kind: RecordKind::Event,
                run,
                seq: k as u64 + 1,
                payload,
            });
        }
        records.push(Record {
            kind: RecordKind::Complete,
            run,
            seq: r.events.len() as u64 + 1,
            payload: Vec::new(),
        });
    }
    let writer = WalWriter::open(dir, shards, WalSync::default(), Box::new(NullObserver))
        .expect("open the act WAL");
    let mut append = Duration::ZERO;
    let mut barriers = Vec::new();
    let mut failed = 0;
    for batch in records.chunks(barrier_every.max(1)) {
        let start = Instant::now();
        for rec in batch {
            failed += usize::from(writer.append(rec.run as usize % shards, rec).is_err());
        }
        append += start.elapsed();
        let start = Instant::now();
        failed += usize::from(writer.barrier().is_err());
        barriers.push(trace::ms(start.elapsed()));
    }
    drop(writer);
    ops.op(failed == 0, || {
        format!("{failed} WAL appends/barriers failed")
    });
    (
        ns_per(append, records.len()),
        median(&barriers),
        trace::dir_bytes(dir),
    )
}

/// Ingest and complete the slice, then freeze and persist its first
/// `spill_runs` runs one by one and compact. Returns freeze µs/run,
/// persist ms/run and compaction ms.
fn tier_act(
    cat: &[Arc<SpecContext>],
    fleet: &Fleet,
    spill_runs: usize,
    wal: Option<&Path>,
    work: &Path,
    ops: &mut Ops,
) -> (f64, f64, f64) {
    let spill = work.join(if wal.is_some() {
        "tier-spill-wal"
    } else {
        "tier-spill"
    });
    let mut b = builder(cat).spill_dir(&spill);
    if let Some(dir) = wal {
        b = b.wal_dir(dir);
    }
    let engine: WfEngine = b.build();
    for r in &fleet.runs {
        engine.open_run(SpecId(r.spec)).expect("catalog spec");
    }
    for ev in crate::workloads::send_plan(fleet, 64) {
        let res = engine.ingest(ev);
        ops.op(res.is_ok(), || format!("tier act ingest: {res:?}"));
    }
    engine.flush();
    let start = Instant::now();
    for i in 0..spill_runs {
        let res = engine.freeze_run(RunId(i as u64));
        ops.op(res.is_ok(), || format!("freeze_run: {res:?}"));
    }
    let freeze = start.elapsed();
    let start = Instant::now();
    for i in 0..spill_runs {
        let res = engine.persist_run(RunId(i as u64));
        ops.op(res.is_ok(), || format!("persist_run: {res:?}"));
    }
    let spill_time = start.elapsed();
    let start = Instant::now();
    let res = engine.compact();
    let compact = start.elapsed();
    ops.op(res.is_ok(), || format!("compact: {res:?}"));
    (
        ns_per(freeze, spill_runs) / 1e3,
        ns_per(spill_time, spill_runs) / 1e6,
        trace::ms(compact),
    )
}
