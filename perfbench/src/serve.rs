//! `serve`: closed-loop batched point location against a ~1 M-leaf 3D
//! Morton forest, with a writer that keeps adapting and republishing.
//!
//! One client thread submits pre-generated uniform 4096-probe batches to
//! a 2-worker `QueryExecutor` and waits for each answer before sending
//! the next (a closed loop with one client). Every 8th batch is followed
//! by a 64-box batch. Every 50 batches the same thread coarsens a seeded
//! region, refines exactly as many leaves elsewhere (so the leaf count
//! stays level), builds a fresh `ForestSnapshot` and publishes it.

use crate::stats::{median, quantile, ratio};
use crate::trace::{self, RankTrace};
use crate::{Config, Measured, Rng, SETUPS};
use quadforest_comm::{try_run, Comm};
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{MortonQuad, Quadrant};
use quadforest_forest::Forest;
use quadforest_query::{BoxQuery, ForestSnapshot, LeafHit, QueryExecutor, SnapshotHandle};
use quadforest_telemetry as telemetry;
use std::sync::Arc;
use std::time::Instant;

type Q = MortonQuad<3>;
type Point = (u32, [i32; 3]);

/// Probes per point batch.
pub const BATCH: usize = 4096;
/// Boxes per box batch.
const BOXES: usize = 64;
/// Point batches between box batches.
const BOX_EVERY: u64 = 8;
/// Point batches between writer updates.
const WRITE_EVERY: u64 = 50;
/// Executor worker threads.
const WORKERS: usize = 2;
/// Answers per batch compared against the single-point oracle.
const SAMPLES: usize = 16;
/// Pre-generated point batches and box batches (cycled).
const POINT_SETS: usize = 32;
const BOX_SETS: usize = 8;
/// Traced runs time a direct `locate_many` on every n-th point batch
/// and a direct `query_boxes` on every n-th box batch.
const DIRECT_EVERY: u64 = 8;

/// Level of the uniform base forest.
fn shape(cfg: &Config) -> u8 {
    if cfg.tiny {
        3
    } else {
        6
    }
}

struct Server {
    forest: Forest<Q>,
    handle: Arc<SnapshotHandle>,
    exec: QueryExecutor,
    points: Vec<Vec<Point>>,
    boxes: Vec<Vec<BoxQuery>>,
    leaves: u64,
}

/// Set-up: forest, first snapshot, executor and the probe sets.
fn setup(comm: &Comm, cfg: &Config) -> Server {
    let base = shape(cfg);
    let mut rng = Rng::new(cfg.seed, 4);
    let salt = rng.next_u64();
    let mut forest = Forest::<Q>::new_uniform(Arc::new(Connectivity::unit(3)), comm, base);
    // refine 2 in 5 base leaves once: ~1 M leaves at base 6
    forest.refine(comm, false, |_, q| {
        let mut h = Rng::new(salt, q.morton_abs());
        h.below(5) < 2
    });
    let handle = SnapshotHandle::new(ForestSnapshot::build(&forest, 0));
    let exec = QueryExecutor::new(Arc::clone(&handle), WORKERS);
    let root = Q::len_at(0) as u64;
    let points = (0..POINT_SETS)
        .map(|_| {
            (0..BATCH)
                .map(|_| (0, [0; 3].map(|_: i32| rng.below(root) as i32)))
                .collect()
        })
        .collect();
    let side = (root / 32) as i32;
    let boxes = (0..BOX_SETS)
        .map(|_| {
            (0..BOXES)
                .map(|_| {
                    let lo = [0; 3].map(|_: i32| rng.below(root - side as u64) as i32);
                    BoxQuery {
                        tree: 0,
                        lo,
                        hi: lo.map(|x| x + side),
                    }
                })
                .collect()
        })
        .collect();
    let leaves = forest.global_count();
    Server {
        forest,
        handle,
        exec,
        points,
        boxes,
        leaves,
    }
}

/// The writer: coarsen the refined families inside a seeded box, refine
/// exactly as many base leaves from a seeded curve position on, then
/// build and publish the next snapshot generation.
fn write(comm: &Comm, s: &mut Server, base: u8, rng: &mut Rng, generation: u64) {
    let _op = telemetry::span("serve.write");
    let root = Q::len_at(0);
    let side = root / 4;
    let lo = [0; 3].map(|_: i32| rng.below(4 * 3 + 1) as i32 * (root / 16));
    let start = Q::from_morton(rng.below(Q::uniform_count(base) * 9 / 10), base).morton_abs();
    {
        let _s = telemetry::span("forest.adapt_s");
        let merged = s.forest.coarsen(comm, false, |_, fam| {
            let c = fam[0].coords();
            fam[0].level() == base + 1 && (0..3).all(|i| c[i] >= lo[i] && c[i] < lo[i] + side)
        });
        let mut left = merged;
        s.forest.refine(comm, false, |_, q| {
            let pick = left > 0 && q.level() == base && q.morton_abs() >= start;
            left -= usize::from(pick);
            pick
        });
    }
    let snap = {
        let _s = telemetry::span("query.snapshot_build_s");
        ForestSnapshot::build(&s.forest, generation)
    };
    let _s = telemetry::span("query.publish_s");
    s.handle.publish(snap);
}

/// Compare a seeded sample of a batch's answers with the single-point
/// oracle; every in-domain probe must hit.
fn check_points(
    snap: &ForestSnapshot,
    batch: &[Point],
    hits: &[Option<LeafHit>],
    rng: &mut Rng,
    perturb: bool,
) -> bool {
    if hits.len() != batch.len() || hits.iter().any(Option::is_none) {
        return false;
    }
    (0..SAMPLES).all(|_| {
        let j = rng.below(batch.len() as u64) as usize;
        let (t, p) = batch[j];
        let oracle = snap.locate(t, p).map(|h| LeafHit {
            key: h.key + u64::from(perturb),
            ..h
        });
        hits[j] == oracle
    })
}

/// Compare one seeded box of a box batch with the single-box oracle.
fn check_boxes(
    snap: &ForestSnapshot,
    boxes: &[BoxQuery],
    hits: &[Vec<LeafHit>],
    rng: &mut Rng,
    perturb: bool,
) -> bool {
    if hits.len() != boxes.len() {
        return false;
    }
    let j = rng.below(boxes.len() as u64) as usize;
    let b = boxes[j];
    let key = |h: &LeafHit| (h.tree, h.key, h.level);
    let mut got = hits[j].clone();
    let mut want = snap.query_box(b.tree, b.lo, b.hi);
    if perturb {
        want.pop();
    }
    got.sort_by_key(key);
    want.sort_by_key(key);
    !got.is_empty() && got == want
}

#[derive(Default)]
struct Out {
    setup_s: Vec<f64>,
    op_s: Vec<f64>,
    traced_op_s: Vec<f64>,
    rates: Vec<f64>,
    attempted: u64,
    failed: u64,
    leaves: u64,
    trace: Option<RankTrace>,
    direct_batches: u64,
    box_batches: u64,
    direct_box_batches: u64,
    /// Mean ns per recorded event of each executor stage.
    stages: Vec<(&'static str, f64)>,
}

/// The executor's stage histograms (process-global, always recorded).
const STAGES: [&str; 6] = [
    "query.stage.classify_ns",
    "query.stage.sort_ns",
    "query.stage.drain_ns",
    "query.stage.steal_ns",
    "query.stage.unpermute_ns",
    "query.stage.latch_wait_ns",
];

/// `(sum, count)` of each stage histogram so far.
fn stage_totals() -> Vec<(u64, u64)> {
    let g = telemetry::global();
    STAGES
        .iter()
        .map(|h| {
            let h = g.histogram(h);
            (h.sum(), h.count())
        })
        .collect()
}

fn client(comm: &Comm, cfg: &Config) -> Out {
    let base = shape(cfg);
    let mut out = Out::default();
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let t = Instant::now();
        server = Some(setup(comm, cfg));
        out.setup_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
    }
    let mut s = server.expect("at least one set-up");
    out.leaves = s.leaves;
    let mut writer_rng = Rng::new(cfg.seed, 5);
    let mut check_rng = Rng::new(cfg.seed, 6);
    let (mut i, mut generation) = (0u64, 0u64);

    for (seconds, traced) in cfg.phases() {
        let started = traced.then(|| trace::begin(0));
        let stages0 = stage_totals();
        let phase_start = Instant::now();
        let (mut checks_s, mut batches) = (0.0, 0u64);
        // the current period: start, checks before it
        let (mut period_start, mut period_checks) = (phase_start, 0.0);
        while batches < WRITE_EVERY || phase_start.elapsed().as_secs_f64() < seconds {
            i += 1;
            batches += 1;
            let batch = s.points[i as usize % POINT_SETS].clone();
            let t = Instant::now();
            let hits = {
                let _op = telemetry::span("serve.batch");
                let _s = telemetry::span("query.batch_s");
                s.exec.submit_points(batch).wait()
            };
            let dt = t.elapsed().as_secs_f64();
            if traced {
                out.traced_op_s.push(dt);
            } else {
                out.op_s.push(dt);
            }
            let snap = s.handle.load();
            let batch = &s.points[i as usize % POINT_SETS];
            let ok = crate::check("serve.check", &mut checks_s, || {
                check_points(&snap, batch, &hits, &mut check_rng, cfg.perturb_oracle)
            });
            out.attempted += 1;
            out.failed += u64::from(!ok);
            if traced && i.is_multiple_of(DIRECT_EVERY) {
                let _s = telemetry::span("query.snapshot.locate_ns_per_probe");
                std::hint::black_box(snap.locate_many(batch));
                out.direct_batches += 1;
            }
            if i.is_multiple_of(BOX_EVERY) {
                let boxes = &s.boxes[(i / BOX_EVERY) as usize % BOX_SETS];
                let hits = {
                    let _op = telemetry::span("serve.boxes");
                    let _s = telemetry::span("query.box_batch_s");
                    s.exec.submit_boxes(boxes.clone()).wait()
                };
                let ok = crate::check("serve.check", &mut checks_s, || {
                    check_boxes(&snap, boxes, &hits, &mut check_rng, cfg.perturb_oracle)
                });
                out.attempted += 1;
                out.failed += u64::from(!ok);
                if traced {
                    out.box_batches += 1;
                    if (i / BOX_EVERY).is_multiple_of(DIRECT_EVERY) {
                        let _s = telemetry::span("query.snapshot.boxes_s");
                        std::hint::black_box(snap.query_boxes(boxes));
                        out.direct_box_batches += 1;
                    }
                }
            }
            if i.is_multiple_of(WRITE_EVERY) {
                generation += 1;
                write(comm, &mut s, base, &mut writer_rng, generation);
                // the writer keeps the leaf count level
                let want = out.leaves + u64::from(cfg.perturb_oracle);
                let ok = crate::check("serve.check", &mut checks_s, || {
                    s.forest.global_count() == want && s.handle.load().local_count() as u64 == want
                });
                out.attempted += 1;
                out.failed += u64::from(!ok);
                if !traced {
                    let busy = period_start.elapsed().as_secs_f64() - (checks_s - period_checks);
                    out.rates.push((WRITE_EVERY * BATCH as u64) as f64 / busy);
                }
                (period_start, period_checks) = (Instant::now(), checks_s);
            }
        }
        if let Some(start) = started {
            out.trace = Some(trace::end(start));
            out.stages = STAGES
                .iter()
                .zip(stages0.iter().zip(stage_totals()))
                .map(|(name, ((s0, c0), (s1, c1)))| {
                    (*name, ratio((s1 - s0) as f64, (c1 - c0) as f64))
                })
                .collect();
        }
    }
    out
}

/// Run the workload.
pub fn run(cfg: &Config) -> Measured {
    let out = match try_run(1, |comm| Ok(client(&comm, cfg))) {
        Ok(mut o) => o.remove(0),
        Err(e) => return Measured::failure("threads", e.to_string()),
    };
    let mut m = Measured {
        backend: "threads",
        attempted: out.attempted,
        failed: out.failed,
        setup_s: out.setup_s,
        peak_heap_bytes: crate::alloc::peak_bytes(),
        op_s: out.op_s,
        traced_op_s: out.traced_op_s,
        rates: out.rates,
        ..Measured::default()
    };
    let l = &mut m.layers;
    l.insert("serve_probes_per_s", median(&m.rates));
    l.insert("serve_batch_p50_ms", median(&m.op_s) * 1e3);
    l.insert("serve_batch_p99_ms", quantile(&m.op_s, 0.99) * 1e3);
    l.insert("serve_batch_samples", m.op_s.len() as f64);
    l.insert("forest.leaves", out.leaves as f64);
    m.lines.push(format!(
        "serve: {} leaves, {} untraced batches of {BATCH}, p50 {:.3} ms, p99 {:.3} ms",
        out.leaves,
        m.op_s.len(),
        l["serve_batch_p50_ms"],
        l["serve_batch_p99_ms"]
    ));
    if let Some(t) = out.trace.filter(|_| cfg.trace) {
        let n = m.traced_op_s.len().max(1) as f64;
        let l = &mut m.layers;
        for name in [
            "query.batch_s",
            "forest.adapt_s",
            "query.snapshot_build_s",
            "query.publish_s",
        ] {
            l.insert(name, t.span_s(name) / n);
        }
        // box metrics are per 64-box batch
        l.insert(
            "query.box_batch_s",
            ratio(t.span_s("query.box_batch_s"), out.box_batches as f64),
        );
        l.insert(
            "query.snapshot.boxes_s",
            ratio(
                t.span_s("query.snapshot.boxes_s"),
                out.direct_box_batches as f64,
            ),
        );
        let direct = ratio(
            t.span_s("query.snapshot.locate_ns_per_probe") * 1e9,
            (out.direct_batches * BATCH as u64) as f64,
        );
        l.insert("query.snapshot.locate_ns_per_probe", direct);
        l.insert(
            "query.executor.overhead_ns_per_probe",
            l["query.batch_s"] * 1e9 / BATCH as f64 - direct,
        );
        for (name, mean) in out.stages {
            l.insert(name, mean);
        }
        trace::finish(&mut m, cfg, "serve", &[t]);
    }
    m
}
