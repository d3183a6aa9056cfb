//! Input generation and the answers the engine must give, both computed
//! before anything is timed and apart from the engine: seeded Zipf-sized
//! runs of two corpus specifications, executed in a random topological
//! order, with BFS truth for every reach probe and name-set truth for
//! every cross-run query and standing query.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use wf_graph::{NameId, VertexId};
use wf_run::{ExecEvent, Execution, RunGenerator};
use wf_service::SpecContext;

/// The catalog every engine in the benchmark is built over: spec 0 is the
/// paper's running example, spec 1 is BioAID. Skeleton labels are built
/// here once (the §5.1 preprocessing), outside every timed phase.
pub fn catalog() -> Vec<Arc<SpecContext>> {
    vec![
        Arc::new(SpecContext::from_spec(wf_spec::corpus::running_example())),
        Arc::new(SpecContext::from_spec(wf_spec::corpus::bioaid())),
    ]
}

/// Zipf exponent of run size by rank (rank r gets ∝ 1/(r+1)^0.7): the
/// largest of 2048 runs holds ~3 % of the events, so the seed moves the
/// fleet's make-up little.
const ZIPF_SKEW: f64 = 0.7;
/// Smallest target run size.
const MIN_RUN: usize = 12;
/// Reach probes generated per run.
const PROBES_PER_RUN: usize = 8;

/// Shape of one generated fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetShape {
    /// Number of runs.
    pub runs: usize,
    /// Target events summed over the fleet.
    pub events: usize,
}

/// One `u ; v` question with its BFS answer.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    pub u: VertexId,
    pub v: VertexId,
    pub truth: bool,
    /// Events of the run that must be applied before both vertices are
    /// labeled (one past the later of the two insert positions).
    pub ready: usize,
}

/// One run's input: its spec, its events in execution order, and its
/// probes.
#[derive(Clone)]
pub struct RunInput {
    pub spec: usize,
    pub events: Vec<ExecEvent>,
    pub probes: Vec<Probe>,
}

impl RunInput {
    /// Events sent before the restart (the first half, at least the
    /// source).
    pub fn half(&self) -> usize {
        (self.events.len() / 2).max(1)
    }
}

/// The three lineage predicates, as asked of one specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    VerticesNamed(NameId),
    ReachingFromSource(NameId),
    Linking(NameId, NameId),
}

/// A cross-run query (pull) or standing query (push), scoped to one
/// specification, with the answer computed from the generated runs.
pub struct Query {
    pub spec: usize,
    pub kind: QueryKind,
    /// `vertices_named`: every (run index, vertex) named N.
    /// `runs_reaching_named_from_source`: every (run index, vertex named N
    /// that the source reaches). `runs_linking`: (run index, 0) for every
    /// linking run.
    pub truth: BTreeSet<(usize, u32)>,
}

/// A generated fleet plus its truth.
pub struct Fleet {
    pub runs: Vec<RunInput>,
    /// Three query kinds over each of the two specs: indices 0..3 ask
    /// spec 0, 3..6 ask spec 1, in the order vertices, reaching, linking.
    pub queries: Vec<Query>,
    pub events: usize,
}

impl Fleet {
    /// The standing queries registered on the fleet workloads: one of
    /// each kind, alternating specs.
    pub fn standing(&self) -> [&Query; 3] {
        [&self.queries[0], &self.queries[4], &self.queries[2]]
    }

    /// Every `stride`-th run, with the stride chosen so the slice holds
    /// about `max_events` events: the bounded replay the layer acts use.
    /// Query truth is restricted to the slice and renumbered with it.
    pub fn slice(&self, max_events: usize) -> Fleet {
        let stride = self.events.div_ceil(max_events.max(1)).max(1);
        let keep: Vec<usize> = (0..self.runs.len()).step_by(stride).collect();
        let mut renumber = vec![usize::MAX; self.runs.len()];
        for (new, &old) in keep.iter().enumerate() {
            renumber[old] = new;
        }
        let runs: Vec<RunInput> = keep.iter().map(|&i| self.runs[i].clone()).collect();
        let queries = self
            .queries
            .iter()
            .map(|q| Query {
                spec: q.spec,
                kind: q.kind,
                truth: q
                    .truth
                    .iter()
                    .filter(|&&(r, _)| renumber[r] != usize::MAX)
                    .map(|&(r, v)| (renumber[r], v))
                    .collect(),
            })
            .collect();
        Fleet {
            events: runs.iter().map(|r| r.events.len()).sum(),
            runs,
            queries,
        }
    }
}

/// Target size of the rank-`r` run.
fn zipf_size(shape: &FleetShape, rank: usize) -> usize {
    let h: f64 = (1..=shape.runs)
        .map(|r| 1.0 / (r as f64).powf(ZIPF_SKEW))
        .sum();
    let size = shape.events as f64 / h / ((rank + 1) as f64).powf(ZIPF_SKEW);
    (size.round() as usize).max(MIN_RUN)
}

/// Generate a fleet from `seed`. Run `i` has size rank `i` (the head run
/// is the oldest) and spec `i % 2`, so the make-up is the same for every
/// seed; the seed drives each run's derivation, execution order, probes
/// and the names the queries ask about.
pub fn generate(catalog: &[Arc<SpecContext>], shape: &FleetShape, seed: u64) -> Fleet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_F1EE_7000_0001);
    let mut runs = Vec::with_capacity(shape.runs);
    // Per-run data the query truth needs, dropped after generation.
    let mut reach_from_source: Vec<Vec<bool>> = Vec::with_capacity(shape.runs);
    let mut out_edges: Vec<Vec<Vec<VertexId>>> = Vec::with_capacity(shape.runs);
    for i in 0..shape.runs {
        let spec = i % catalog.len();
        let gen = RunGenerator::new(&catalog[spec].spec)
            .target_size(zipf_size(shape, i))
            .generate_run(&mut rng);
        let exec = Execution::random(&gen.graph, &gen.origin, &mut rng);
        let events = exec.events().to_vec();
        let slots = gen.graph.slot_count();
        let mut probes = Vec::with_capacity(PROBES_PER_RUN);
        if events.len() >= 2 {
            while probes.len() < PROBES_PER_RUN {
                let a = rng.gen_range(0..events.len());
                let b = rng.gen_range(0..events.len());
                if a == b {
                    continue;
                }
                let (u, v) = (events[a].vertex, events[b].vertex);
                probes.push(Probe {
                    u,
                    v,
                    truth: wf_graph::reach::reaches(&gen.graph, u, v),
                    ready: a.max(b) + 1,
                });
            }
        }
        let source = events[0].vertex;
        let from_source = wf_graph::reach::reachable_set(&gen.graph, source);
        reach_from_source.push((0..slots).map(|s| from_source.get(s)).collect());
        out_edges.push(
            (0..slots)
                .map(|s| {
                    let v = VertexId(s as u32);
                    if gen.graph.is_live(v) {
                        gen.graph.out_neighbors(v).to_vec()
                    } else {
                        Vec::new()
                    }
                })
                .collect(),
        );
        runs.push(RunInput {
            spec,
            events,
            probes,
        });
    }
    let events = runs.iter().map(|r| r.events.len()).sum();
    let mut queries = Vec::with_capacity(6);
    for spec in 0..catalog.len() {
        let [vert, reach, link_from, link_to] = pick_names(&runs, spec);
        for kind in [
            QueryKind::VerticesNamed(vert),
            QueryKind::ReachingFromSource(reach),
            QueryKind::Linking(link_from, link_to),
        ] {
            let mut truth = truth_of(&runs, spec, kind, &reach_from_source, &out_edges);
            let mut kind = kind;
            if truth.is_empty() && matches!(kind, QueryKind::Linking(..)) {
                // Ask the link the other way round: in a DAG one
                // direction of a name pair usually links.
                kind = QueryKind::Linking(link_to, link_from);
                truth = truth_of(&runs, spec, kind, &reach_from_source, &out_edges);
            }
            queries.push(Query { spec, kind, truth });
        }
    }
    Fleet {
        runs,
        queries,
        events,
    }
}

/// Four distinct module names of `spec` to ask about, none of them the
/// source's, by frequency rank (ties by id): vertices of the third most
/// frequent name, the source reaching the second, the first linking to
/// the fourth. Ranks rather than draws keep the query weight the same
/// across seeds.
fn pick_names(runs: &[RunInput], spec: usize) -> [NameId; 4] {
    let mut counts: BTreeMap<NameId, usize> = BTreeMap::new();
    let mut source_name = None;
    for r in runs.iter().filter(|r| r.spec == spec) {
        source_name = Some(r.events[0].name);
        for ev in &r.events {
            *counts.entry(ev.name).or_default() += 1;
        }
    }
    let mut names: Vec<(usize, NameId)> = counts
        .into_iter()
        .filter(|&(n, _)| Some(n) != source_name)
        .map(|(n, c)| (c, n))
        .collect();
    names.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    assert!(names.len() >= 4, "spec {spec} has too few module names");
    [names[2].1, names[1].1, names[0].1, names[3].1]
}

fn truth_of(
    runs: &[RunInput],
    spec: usize,
    kind: QueryKind,
    reach_from_source: &[Vec<bool>],
    out_edges: &[Vec<Vec<VertexId>>],
) -> BTreeSet<(usize, u32)> {
    let mut truth = BTreeSet::new();
    for (i, r) in runs.iter().enumerate().filter(|(_, r)| r.spec == spec) {
        let source = r.events[0].vertex;
        match kind {
            QueryKind::VerticesNamed(n) => {
                for ev in r.events.iter().filter(|ev| ev.name == n) {
                    truth.insert((i, ev.vertex.0));
                }
            }
            QueryKind::ReachingFromSource(n) => {
                for ev in r.events.iter().filter(|ev| ev.name == n) {
                    if ev.vertex != source && reach_from_source[i][ev.vertex.idx()] {
                        truth.insert((i, ev.vertex.0));
                    }
                }
            }
            QueryKind::Linking(a, b) => {
                // reaches_b[v]: some vertex named `b` other than v is
                // reachable from v. Events are a topological order, so a
                // reverse sweep sees every successor first.
                let mut name_of = vec![None; out_edges[i].len()];
                for ev in &r.events {
                    name_of[ev.vertex.idx()] = Some(ev.name);
                }
                let mut reaches_b = vec![false; out_edges[i].len()];
                for ev in r.events.iter().rev() {
                    reaches_b[ev.vertex.idx()] = out_edges[i][ev.vertex.idx()]
                        .iter()
                        .any(|w| name_of[w.idx()] == Some(b) || reaches_b[w.idx()]);
                }
                if r.events
                    .iter()
                    .any(|ev| ev.name == a && reaches_b[ev.vertex.idx()])
                {
                    truth.insert((i, 0));
                }
            }
        }
    }
    truth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seeded_and_truth_is_nonempty() {
        let cat = catalog();
        let shape = FleetShape {
            runs: 16,
            events: 1200,
        };
        let a = generate(&cat, &shape, 3);
        let b = generate(&cat, &shape, 3);
        assert_eq!(a.events, b.events);
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.events, y.events);
        }
        for q in &a.queries {
            assert!(!q.truth.is_empty(), "{:?} matches nothing", q.kind);
        }
    }
}
