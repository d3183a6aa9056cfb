//! `enginebench`: the wf-service engine benchmark.
//!
//! ```text
//! enginebench --workload <fleet_ingest|fleet_lifecycle|lineage_read>
//!             --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]
//! ```
//!
//! Inputs are generated from `--seed` before anything is timed; the run
//! then repeats whole rounds of the workload for `--seconds`, checks every
//! answer against the generated truth, and prints one JSON object as the
//! last line of standard output: `correct`, `attempted`, `failed`, and
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The traced run also prints one ledger line and writes
//! its spans to `.bench_out/spans-<workload>-seed<n>.json`. Scratch files
//! live under `.bench_work/` and are removed before exit. See README.md.

mod alloc;
mod fleet;
mod layers;
mod trace;
mod workloads;

use fleet::{Fleet, FleetShape};
use layers::{ActCtx, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{median, quantile, Tracer};
use wf_service::SpecContext;
use workloads::{FleetCfg, LineageCfg, Ops, Round};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Every knob of the three workloads at one size.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    pub ingest: FleetShape,
    pub ingest_cfg: FleetCfg,
    pub lifecycle: FleetShape,
    pub lifecycle_cfg: FleetCfg,
    pub lineage: FleetShape,
    pub lineage_cfg: LineageCfg,
    /// Events the layer acts replay (a stride slice of the fleet).
    pub act_events: usize,
}

impl Size {
    /// The benchmark's size.
    pub fn full() -> Self {
        Self {
            ingest: FleetShape {
                runs: 2048,
                events: 160_000,
            },
            ingest_cfg: FleetCfg {
                barrier_every: 1024,
                tiering: None,
            },
            lifecycle: FleetShape {
                runs: 256,
                events: 24_000,
            },
            lifecycle_cfg: FleetCfg {
                barrier_every: 256,
                tiering: Some((32, 16)),
            },
            lineage: FleetShape {
                runs: 512,
                events: 80_000,
            },
            lineage_cfg: LineageCfg {
                barrier_every: 1024,
                resident_budget: 256 << 10,
                reads: 60_000,
                query_every: 1000,
            },
            act_events: 40_000,
        }
    }

    /// A size at which every workload runs to its end in about a second:
    /// the benchmark's own tests use it.
    pub fn smoke() -> Self {
        let mut s = Self::full();
        s.ingest.runs = 32;
        s.ingest.events = 2_400;
        s.ingest_cfg.barrier_every = 128;
        s.lifecycle.runs = 24;
        s.lifecycle.events = 1_600;
        s.lifecycle_cfg.barrier_every = 64;
        s.lifecycle_cfg.tiering = Some((4, 4));
        s.lineage.runs = 32;
        s.lineage.events = 2_400;
        s.lineage_cfg.barrier_every = 256;
        s.lineage_cfg.resident_budget = 16 << 10;
        s.lineage_cfg.reads = 600;
        s.lineage_cfg.query_every = 100;
        s.act_events = 1_500;
        s
    }
}

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetIngest,
    FleetLifecycle,
    LineageRead,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fleet_ingest" => Some(Self::FleetIngest),
            "fleet_lifecycle" => Some(Self::FleetLifecycle),
            "lineage_read" => Some(Self::LineageRead),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::FleetIngest => "fleet_ingest",
            Self::FleetLifecycle => "fleet_lifecycle",
            Self::LineageRead => "lineage_read",
        }
    }
}

/// The outcome of one benchmark run.
pub struct Report {
    pub ops: Ops,
    pub metrics: Vec<Metric>,
    /// One JSON object per line for the traced run's ledger.
    pub ledger: Option<String>,
}

/// A scratch directory under the working directory, removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Removed only when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Run `workload` for `seconds` on inputs from `seed`; `traced` selects
/// the per-layer run.
pub fn run(workload: Workload, seed: u64, seconds: f64, traced: bool, size: &Size) -> Report {
    let work = WorkDir(Path::new(".bench_work").join(format!(
        "{}-{}",
        workload.name(),
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&work.0);
    std::fs::create_dir_all(&work.0).expect("create the scratch directory");
    let cat = fleet::catalog();
    let mut ops = Ops::default();
    let mut tracer = Tracer::new(traced);
    let (metrics, ledger) = match workload {
        Workload::FleetIngest | Workload::FleetLifecycle => run_fleet(
            &cat,
            workload,
            size,
            seed,
            seconds,
            &work.0,
            &mut tracer,
            &mut ops,
        ),
        Workload::LineageRead => {
            run_lineage(&cat, size, seed, seconds, &work.0, &mut tracer, &mut ops)
        }
    };
    if traced {
        let out = Path::new(".bench_out");
        let _ = std::fs::create_dir_all(out);
        let path = out.join(format!("spans-{}-seed{seed}.json", workload.name()));
        let extra: Vec<String> = ledger.iter().cloned().collect();
        if let Err(e) = std::fs::write(&path, tracer.chrome_json(&extra)) {
            eprintln!("enginebench: cannot write {}: {e}", path.display());
        }
    }
    Report {
        ops,
        metrics,
        ledger,
    }
}

/// Rounds until `seconds` have passed (at least `min` rounds), returning
/// them. In the traced run rounds alternate untraced and traced, and the
/// untraced ones come first in the returned pair.
fn rounds(
    seconds: f64,
    min: usize,
    traced: bool,
    tracer: &mut Tracer,
    mut round: impl FnMut(&mut Tracer) -> Round,
) -> (Vec<Round>, Vec<Round>) {
    let start = Instant::now();
    let mut plain = Vec::new();
    let mut spanned = Vec::new();
    let mut off = Tracer::new(false);
    while plain.len() + spanned.len() < min || start.elapsed().as_secs_f64() < seconds {
        if traced && plain.len() > spanned.len() {
            spanned.push(round(tracer));
        } else {
            plain.push(round(&mut off));
        }
    }
    (plain, spanned)
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of a set of rounds, each the median over the
/// rounds: set-up CPU time, CPU cost per event ingested, per reach probe
/// and per cross-run query, and the heap and disk bytes per event held.
fn end_to_end(rs: &[Round]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Round) -> f64| median(&rs.iter().map(f).collect::<Vec<_>>());
    vec![
        m("setup_s", med(&|r| r.setup_cpu_s), "s"),
        m(
            "ingest_cpu_ns",
            med(&|r| r.ingest_cpu_s * 1e9 / r.events_timed as f64),
            "ns/event",
        ),
        m(
            "heap_bytes_per_event",
            med(&|r| r.heap_bytes / r.events_held as f64),
            "B/event",
        ),
        m(
            "disk_bytes_per_event",
            med(&|r| r.disk_bytes / r.events_held as f64),
            "B/event",
        ),
        m(
            "reach_cpu_ns",
            med(&|r| r.probe_cpu_s * 1e9 / r.probes as f64),
            "ns/probe",
        ),
        m(
            "query_cpu_ms",
            med(&|r| r.query_cpu_s * 1e3 / r.queries as f64),
            "ms/query",
        ),
    ]
}

/// The wall-clock figures of a set of rounds (set-up, throughput, flush
/// latency and closed-loop read rates as the load thread saw them) and
/// the CPU cost per event up to the engine settled.
fn wall_clock(rs: &[Round]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&Round) -> f64| median(&rs.iter().map(f).collect::<Vec<_>>());
    let flushes: Vec<f64> = rs.iter().flat_map(|r| r.flush_ms.iter().copied()).collect();
    let probes: usize = rs.iter().map(|r| r.probes).sum();
    let probe_s: f64 = rs.iter().map(|r| r.probe_s).sum();
    let queries: usize = rs.iter().map(|r| r.queries).sum();
    let query_s: f64 = rs.iter().map(|r| r.query_s).sum();
    let events: usize = rs.iter().map(|r| r.events_timed).sum();
    let settled_cpu: f64 = rs.iter().map(|r| r.settled_cpu_s).sum();
    vec![
        m(
            "cpu.settled_ns",
            settled_cpu * 1e9 / events as f64,
            "ns/event",
        ),
        m("wall.setup_s", med(&|r| r.setup_s), "s"),
        m(
            "wall.ingest_eps",
            med(&|r| r.events_timed as f64 / r.ingest_s),
            "events/s",
        ),
        m(
            "wall.settled_eps",
            med(&|r| r.events_timed as f64 / r.settled_s),
            "events/s",
        ),
        m("wall.flush_p50_ms", quantile(&flushes, 0.5), "ms"),
        m("wall.flush_p90_ms", quantile(&flushes, 0.9), "ms"),
        m("wall.reach_qps", probes as f64 / probe_s, "probes/s"),
        m("wall.query_qps", queries as f64 / query_s, "queries/s"),
    ]
}

/// The per-layer metrics taken from the workload's own rounds: the
/// wall-clock figures, the allocation counts of the ingest window, the
/// tracing overhead, and the CPU ledger against the layer acts.
fn round_layers(
    workload: &str,
    plain: &[Round],
    spanned: &[Round],
    acts: &[Metric],
    wal: bool,
    subs: bool,
) -> (Vec<Metric>, String) {
    let cpu_per_event = |rs: &[Round]| {
        let events: usize = rs.iter().map(|r| r.events_timed).sum();
        rs.iter().map(|r| r.ingest_cpu_s).sum::<f64>() * 1e9 / events.max(1) as f64
    };
    let per_event = |f: &dyn Fn(&Round) -> u64| {
        let events: usize = plain.iter().map(|r| r.events_timed).sum();
        plain.iter().map(f).sum::<u64>() as f64 / events.max(1) as f64
    };
    let act = |name: &str| {
        acts.iter()
            .find(|a| a.name == name)
            .map_or(0.0, |a| a.value)
    };
    let e2e = cpu_per_event(plain);
    let pool = act("ingest.pool_cpu_ns");
    let wal_ns = if wal { act("wal.append_ns") } else { 0.0 };
    let notify = if subs { act("sub.notify_cpu_ns") } else { 0.0 };
    let residual = e2e - pool - wal_ns - notify;
    let ledger = format!(
        "{{\"ledger\":\"{workload}\",\"e2e_cpu_ns_per_event\":{e2e:.1},\"drl.insert_ns\":{:.1},\"index.publish_ns\":{:.1},\"handle.submit_ns\":{:.1},\"ingest.pool_cpu_ns\":{pool:.1},\"wal.append_ns\":{wal_ns:.1},\"sub.notify_cpu_ns\":{notify:.1},\"ledger.residual_ns\":{residual:.1}}}",
        act("drl.insert_ns"),
        act("index.publish_ns"),
        act("handle.submit_ns"),
    );
    let mut metrics = wall_clock(plain);
    metrics.extend([
        m(
            "alloc.count_per_event",
            per_event(&|r| r.allocs.0),
            "allocs/event",
        ),
        m(
            "alloc.bytes_per_event",
            per_event(&|r| r.allocs.1),
            "B/event",
        ),
        m(
            "trace.overhead_pct",
            (cpu_per_event(spanned) / e2e - 1.0) * 100.0,
            "%",
        ),
        m("ledger.e2e_ns", e2e, "ns/event"),
        m("ledger.residual_ns", residual, "ns/event"),
    ]);
    (metrics, ledger)
}

/// The per-layer metrics of traced lineage rounds.
fn read_layers(rs: &[Round]) -> Vec<Metric> {
    let pooled = |f: &dyn Fn(&Round) -> &Vec<f64>| {
        median(
            &rs.iter()
                .flat_map(|r| f(r).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let explain = |k: usize| rs.iter().map(|r| r.explain[k]).sum::<u64>() as f64;
    let queries = explain(3).max(1.0);
    vec![
        m("handle.reach_ns.hot", pooled(&|r| &r.reach_ns[0]), "ns"),
        m("handle.reach_ns.frozen", pooled(&|r| &r.reach_ns[1]), "ns"),
        m(
            "handle.reach_ns.persisted",
            pooled(&|r| &r.reach_ns[2]),
            "ns",
        ),
        m("query.scan_ms.hot", pooled(&|r| &r.scan_ms[0]), "ms"),
        m("query.scan_ms.frozen", pooled(&|r| &r.scan_ms[1]), "ms"),
        m("query.scan_ms.persisted", pooled(&|r| &r.scan_ms[2]), "ms"),
        m("bufmgr.pins_per_query", explain(0) / queries, "count"),
        m("bufmgr.fault_ins_per_query", explain(1) / queries, "count"),
        m("bufmgr.bytes_faulted_per_query", explain(2) / queries, "B"),
        m(
            "store.persisted_resident_bytes",
            rs.iter().map(|r| r.peak_resident).max().unwrap_or(0) as f64,
            "B",
        ),
    ]
}

#[allow(clippy::too_many_arguments)]
fn run_fleet(
    cat: &[Arc<SpecContext>],
    workload: Workload,
    size: &Size,
    seed: u64,
    seconds: f64,
    work: &Path,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> (Vec<Metric>, Option<String>) {
    let (shape, cfg) = match workload {
        Workload::FleetLifecycle => (&size.lifecycle, &size.lifecycle_cfg),
        _ => (&size.ingest, &size.ingest_cfg),
    };
    let fleet = fleet::generate(cat, shape, seed);
    let image = work.join("image");
    workloads::make_image(cat, &fleet, &image);
    let traced = tracer.is_on();
    let budget = if traced { seconds / 2.0 } else { seconds };
    let min = if traced { 2 } else { 1 };
    let mut k = 0;
    let (plain, spanned) = rounds(budget, min, traced, tracer, |t| {
        k += 1;
        workloads::fleet_round(
            cat,
            &fleet,
            cfg,
            &image,
            &work.join(format!("round{k}")),
            t,
            ops,
        )
    });
    if !traced {
        return (end_to_end(&plain), None);
    }
    let slice = fleet.slice(size.act_events);
    let persisted_runs = match cfg.tiering {
        Some((max_hot, _)) => shape.runs.saturating_sub(max_hot),
        None => shape.runs,
    };
    let ctx = ActCtx {
        image: Some(&image),
        persisted_runs,
        barrier_every: cfg.barrier_every,
        chunk: workloads::FLEET_CHUNK,
    };
    let mut metrics = layers::run_acts(cat, &slice, &ctx, &work.join("acts"), tracer, ops);
    let read = read_act(cat, &slice, size, seed, work, tracer, ops);
    metrics.extend(read_layers(&[read]));
    let small = fleet.slice(size.act_events / 2);
    metrics.extend(lifecycle_act(cat, &small, size, work, tracer, ops));
    let (own, ledger) = round_layers(workload.name(), &plain, &spanned, &metrics, true, true);
    metrics.extend(own);
    (metrics, Some(ledger))
}

/// One `fleet_lifecycle` round over a slice of the workload's runs: the
/// WAL + tiering lifecycle (freeze, spill, checkpoint, compaction racing
/// ingest) measured on that workload's streams.
fn lifecycle_act(
    cat: &[Arc<SpecContext>],
    slice: &Fleet,
    size: &Size,
    work: &Path,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Vec<Metric> {
    let t = tracer.enter("act.lifecycle");
    let cfg = size.lifecycle_cfg;
    let image = work.join("lifecycle-image");
    workloads::make_image(cat, slice, &image);
    let r = workloads::fleet_round(
        cat,
        slice,
        &cfg,
        &image,
        &work.join("lifecycle"),
        tracer,
        ops,
    );
    let _ = std::fs::remove_dir_all(&image);
    tracer.exit(t);
    let events = r.events_timed as f64;
    vec![
        m("tiering.settle_s", r.drain_s, "s"),
        m(
            "lifecycle.ingest_cpu_ns",
            r.ingest_cpu_s * 1e9 / events,
            "ns/event",
        ),
        m(
            "lifecycle.settled_cpu_ns",
            r.settled_cpu_s * 1e9 / events,
            "ns/event",
        ),
        m("lifecycle.wall_ingest_eps", events / r.ingest_s, "events/s"),
        m(
            "lifecycle.wall_settled_eps",
            events / r.settled_s,
            "events/s",
        ),
        m("lifecycle.flush_p50_ms", quantile(&r.flush_ms, 0.5), "ms"),
        m("lifecycle.flush_p90_ms", quantile(&r.flush_ms, 0.9), "ms"),
    ]
}

/// A traced `lineage_read` round over a fleet workload's slice: the
/// per-tier read layers measured on that workload's runs.
fn read_act(
    cat: &[Arc<SpecContext>],
    slice: &Fleet,
    size: &Size,
    seed: u64,
    work: &Path,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> Round {
    let mut cfg = size.lineage_cfg;
    // Keep the resident budget the same share of the persisted tier.
    cfg.resident_budget =
        (cfg.resident_budget as f64 * slice.events as f64 / size.lineage.events as f64) as u64;
    let t = tracer.enter("act.read");
    let r = workloads::lineage_round(
        cat,
        slice,
        &cfg,
        seed,
        &work.join("read"),
        true,
        tracer,
        ops,
    );
    tracer.exit(t);
    r
}

fn run_lineage(
    cat: &[Arc<SpecContext>],
    size: &Size,
    seed: u64,
    seconds: f64,
    work: &Path,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> (Vec<Metric>, Option<String>) {
    let fleet = fleet::generate(cat, &size.lineage, seed);
    let cfg = &size.lineage_cfg;
    let traced = tracer.is_on();
    let budget = if traced { seconds / 2.0 } else { seconds };
    let min = if traced { 2 } else { 1 };
    let mut k = 0;
    let (plain, spanned) = rounds(budget, min, traced, tracer, |t| {
        k += 1;
        let detail = t.is_on();
        workloads::lineage_round(
            cat,
            &fleet,
            cfg,
            seed,
            &work.join(format!("round{k}")),
            detail,
            t,
            ops,
        )
    });
    if !traced {
        return (end_to_end(&plain), None);
    }
    let slice = fleet.slice(size.act_events);
    let ctx = ActCtx {
        image: None,
        persisted_runs: (size.lineage.runs as f64 * workloads::PERSISTED_SHARE) as usize,
        barrier_every: cfg.barrier_every,
        chunk: workloads::LINEAGE_CHUNK,
    };
    let mut metrics = layers::run_acts(cat, &slice, &ctx, &work.join("acts"), tracer, ops);
    metrics.extend(read_layers(&spanned));
    let small = fleet.slice(size.act_events / 2);
    metrics.extend(lifecycle_act(cat, &small, size, work, tracer, ops));
    let (own, ledger) = round_layers("lineage_read", &plain, &spanned, &metrics, false, false);
    metrics.extend(own);
    (metrics, Some(ledger))
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(r: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.ops.invariant_failures == 0,
        r.ops.attempted.max(1),
        r.ops.failed
    );
    for (i, mt) in r.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if mt.value.is_finite() { mt.value } else { 0.0 };
        out.push_str(&format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            mt.name, mt.unit
        ));
    }
    out.push_str("}}");
    out
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("enginebench: {msg}");
    eprintln!(
        "usage: enginebench --workload <fleet_ingest|fleet_lifecycle|lineage_read> \
         --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::full();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value}")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s >= 0.0 => seconds = Some(s),
                _ => return usage("--seconds takes a number of seconds"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            "--size" => match value.as_str() {
                "full" => size = Size::full(),
                "smoke" => size = Size::smoke(),
                _ => return usage("--size takes full or smoke"),
            },
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        return usage("--workload, --seed and --seconds are required");
    };
    let report = run(workload, seed, seconds, trace, &size);
    for note in &report.ops.notes {
        eprintln!("enginebench: {note}");
    }
    if let Some(ledger) = &report.ledger {
        println!("{ledger}");
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: Workload, traced: bool) {
        let r = run(workload, 7, 0.0, traced, &Size::smoke());
        assert!(r.ops.notes.is_empty(), "{:?}", r.ops.notes);
        assert_eq!(r.ops.failed, 0);
        assert_eq!(r.ops.invariant_failures, 0);
        assert!(r.ops.attempted > 0);
        for mt in &r.metrics {
            assert!(mt.value.is_finite(), "{} = {}", mt.name, mt.value);
        }
    }

    #[test]
    fn fleet_ingest_smoke() {
        smoke(Workload::FleetIngest, false);
    }

    #[test]
    fn fleet_lifecycle_smoke() {
        smoke(Workload::FleetLifecycle, false);
    }

    #[test]
    fn lineage_read_smoke() {
        smoke(Workload::LineageRead, false);
    }

    #[test]
    fn traced_smoke() {
        smoke(Workload::FleetLifecycle, true);
    }
}
