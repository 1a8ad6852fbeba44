//! Multithreaded query serving: each batch fans out synchronously over
//! the calling thread and a fixed pool of helper threads.
//!
//! A [`QueryExecutor`] with `w` workers owns `w − 1` persistent helper
//! threads, each fed by its own job channel. The caller classifies a
//! point batch into `w` Z-interval shards
//! ([`ForestSnapshot::shard_bounds`]), sends shards `1..` to the helpers
//! and serves shard 0; every participant then steals 256-probe chunks
//! from the others. The caller writes its own answers in place,
//! scatters the `(index, hit)` lists the helpers send back, and returns
//! once every valid probe is answered — it never waits for a helper
//! that found no work. Box batches fan out over one cursor the same way.
//!
//! Helpers are spawned once, not per batch: scoped threads per batch
//! cost +27 % `serve` batch p50 (about 50 µs per thread). Stealing pays
//! too: a static split cost 15 % throughput.
//!
//! Stage histograms `query.stage.*_ns`: `classify` is the caller's serial
//! prelude (the Amdahl bound on scaling), `sort`, `drain`/`steal` time
//! owned/stolen chunks, `unpermute` scatters one helper list, and
//! `latch_wait` is the caller's wait for helper answers.

use crate::snapshot::{BoxQuery, INVALID_KEY};
use crate::{ForestSnapshot, LeafHit, SnapshotHandle};
use quadforest_connectivity::TreeId;
use quadforest_core::zrange;
use quadforest_telemetry::{self as telemetry, flight, now_ns};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Probes served per atomic cursor claim: big enough to amortize the
/// claim and keep the gallop-resume cursor warm, small enough that
/// stealing rebalances a skewed batch.
const POINT_CHUNK: usize = 256;

/// Boxes served per atomic cursor claim (each box is already a
/// multi-range scan, so chunks are small).
const BOX_CHUNK: usize = 4;

/// An already computed query answer; [`wait`](Ticket::wait) hands it
/// over. Calls are synchronous; `Ticket` remains so that code written
/// against the `submit_*` entry points keeps building.
#[must_use = "a ticket holds the query answer"]
pub struct Ticket<T>(T);

impl<T> Ticket<T> {
    /// The answer.
    pub fn wait(self) -> T {
        self.0
    }
}

type Job = Box<dyn FnOnce() + Send>;

/// Where a participant delivers each `(input index, answer)`.
type Emit<'a, T> = &'a mut dyn FnMut(u32, T);

/// Record `value` into the process-global histogram `name` (helper
/// threads have no per-rank recorder), resolving the handle once per
/// call site.
macro_rules! record {
    ($name:literal, $value:expr) => {{
        static HANDLE: OnceLock<telemetry::Histogram> = OnceLock::new();
        HANDLE
            .get_or_init(|| telemetry::global().histogram($name))
            .record($value)
    }};
}

/// Close a batch's serial prelude (started at `t0`) in the telemetry.
fn batch_started(snap: &ForestSnapshot, t0: u64, n: usize, valid: usize) {
    record!("query.batch.size", n as u64);
    record!("query.stage.classify_ns", now_ns().saturating_sub(t0));
    let age = snap.age_ns();
    telemetry::global().gauge("snapshot.age_ns").set(age);
    flight::event(flight::FlightKind::BatchStart, 0, n as u64, valid as u64);
}

/// Record a finished batch of `n` queries; returns its latency.
fn batch_done(kind: &str, t0: u64, n: usize) -> u64 {
    let e2e = now_ns().saturating_sub(t0);
    record!("query.batch.e2e_ns", e2e);
    telemetry::global().counter("query.served").add(n as u64);
    flight::event(flight::FlightKind::BatchDone, 0, n as u64, e2e);
    telemetry::note_batch_latency(kind, n as u64, e2e);
    e2e
}

/// Write `(index, answer)` pairs into input order; returns their count.
fn scatter<T>(answers: &mut [T], part: Vec<(u32, T)>) -> usize {
    let (t0, n) = (now_ns(), part.len());
    for (i, answer) in part {
        answers[i as usize] = answer;
    }
    record!("query.stage.unpermute_ns", now_ns().saturating_sub(t0));
    n
}

/// One Z-interval shard of a point batch's probe indices. The first
/// participant to reach it takes `unsorted`, sorts it and publishes it
/// in `sorted`; chunks are then claimed through `cursor`.
struct Shard {
    unsorted: Mutex<Option<Vec<u32>>>,
    sorted: OnceLock<Vec<u32>>,
    len: usize,
    cursor: AtomicUsize,
}

struct PointBatch {
    snap: Arc<ForestSnapshot>,
    points: Vec<(TreeId, [i32; 3])>,
    keys: Vec<u64>,
    shards: Vec<Shard>,
}

impl PointBatch {
    /// Shard `s`'s indices sorted by `(tree, key)`, sorting them first
    /// if nobody has; `None` while another participant is mid-sort.
    fn sorted(&self, s: usize) -> Option<&[u32]> {
        let s = &self.shards[s];
        if let Some(idxs) = s.sorted.get() {
            return Some(idxs);
        }
        // The guard is a temporary: the sort below runs unlocked.
        let Some(mut idxs) = s.unsorted.lock().expect("only `take` runs locked").take() else {
            return s.sorted.get().map(Vec::as_slice);
        };
        let t0 = now_ns();
        idxs.sort_unstable_by_key(|&i| (self.points[i as usize].0, self.keys[i as usize]));
        record!("query.stage.sort_ns", now_ns().saturating_sub(t0));
        Some(s.sorted.get_or_init(|| idxs))
    }

    /// Serve shard `start`, then steal chunks from every other shard.
    fn serve(&self, start: usize, emit: Emit<Option<LeafHit>>) {
        let w = self.shards.len();
        for i in (start..w).chain(0..start) {
            let s = &self.shards[i];
            if s.cursor.load(Relaxed) >= s.len {
                continue;
            }
            let Some(idxs) = self.sorted(i) else {
                continue;
            };
            loop {
                let lo = s.cursor.fetch_add(POINT_CHUNK, Relaxed);
                if lo >= s.len {
                    break;
                }
                let run = &idxs[lo..(lo + POINT_CHUNK).min(s.len)];
                let t0 = now_ns();
                self.snap
                    .locate_run(&self.points, &self.keys, run, &mut *emit);
                let ns = now_ns().saturating_sub(t0);
                // Another participant's shard: a steal.
                if i != start {
                    record!("query.stage.steal_ns", ns);
                } else {
                    record!("query.stage.drain_ns", ns);
                }
            }
        }
    }
}

/// Point and box queries against the latest snapshot published through
/// a [`SnapshotHandle`] (loaded once per batch), served by the calling
/// thread together with a fixed pool of helper threads.
///
/// Any number of threads may call it at once. Dropping the executor
/// closes the helpers' job channels and joins them.
pub struct QueryExecutor {
    handle: Arc<SnapshotHandle>,
    helpers: Vec<Sender<Job>>,
    joins: Vec<JoinHandle<()>>,
}

impl QueryExecutor {
    /// Serve from `handle` with `workers` participants per batch: the
    /// caller plus `workers − 1` helper threads spawned here.
    pub fn new(handle: Arc<SnapshotHandle>, workers: usize) -> Self {
        assert!(workers >= 1, "executor needs at least one worker");
        let (helpers, joins) = (1..workers)
            .map(|h| {
                let (tx, rx) = mpsc::channel::<Job>();
                let join = std::thread::Builder::new()
                    .name(format!("query-helper-{h}"))
                    .spawn(move || rx.into_iter().for_each(|job| job()))
                    .expect("spawn query helper");
                (tx, join)
            })
            .unzip();
        QueryExecutor {
            handle,
            helpers,
            joins,
        }
    }

    /// Run `serve(p, emit)` on the caller as participant 0 and on
    /// helpers as participants `1..parts` until `expected` answers are
    /// in `answers`. The caller's answers go straight into place; the
    /// helpers' come back in `(index, answer)` lists to scatter.
    fn fan_out<T: Send + 'static>(
        &self,
        parts: usize,
        expected: usize,
        mut answers: Vec<T>,
        serve: impl Fn(usize, Emit<T>) + Send + Sync + 'static,
    ) -> Vec<T> {
        let serve = Arc::new(serve);
        let (tx, rx) = mpsc::channel();
        for (p, helper) in (1..parts).zip(&self.helpers) {
            let (serve, tx) = (Arc::clone(&serve), tx.clone());
            // A helper that is gone leaves its shard to be stolen.
            let _ = helper.send(Box::new(move || {
                // Answers go back a chunk at a time, so the caller
                // scatters them while it is still serving, not after.
                let mut part = Vec::with_capacity(POINT_CHUNK);
                serve(p, &mut |i, answer| {
                    part.push((i, answer));
                    if part.len() == POINT_CHUNK {
                        let full = std::mem::replace(&mut part, Vec::with_capacity(POINT_CHUNK));
                        let _ = tx.send(full);
                    }
                });
                let _ = tx.send(part);
            }));
        }
        drop(tx);
        let (mut got, mut mine, mut wait_ns) = (0, 0, 0);
        serve(0, &mut |i, answer| {
            answers[i as usize] = answer;
            mine += 1;
            if mine % POINT_CHUNK == 0 {
                for part in rx.try_iter() {
                    got += scatter(&mut answers, part);
                }
            }
        });
        got += mine;
        while got < expected {
            let t0 = now_ns();
            let part = rx.recv().expect("query helper died mid-batch");
            wait_ns += now_ns().saturating_sub(t0);
            got += scatter(&mut answers, part);
        }
        record!("query.stage.latch_wait_ns", wait_ns);
        answers
    }

    /// Batched point location: one `Option<LeafHit>` per point, in input
    /// order — identical to [`ForestSnapshot::locate_many`] on the
    /// snapshot current at the call.
    pub fn locate_points(&self, points: Vec<(TreeId, [i32; 3])>) -> Vec<Option<LeafHit>> {
        let t0 = now_ns();
        let n = points.len();
        if n == 0 {
            return Vec::new();
        }
        let snap = self.handle.load();
        let keys = snap.probe_keys(&points);
        let valid = keys.iter().filter(|&&k| k != INVALID_KEY).count();
        if valid == 0 {
            return vec![None; n];
        }

        // Classify valid probes into per-worker Z-interval shards of
        // the snapshot's global (tree, key) leaf order. Tiny batches
        // stay on one shard: the split overhead outweighs parallelism
        // below a couple of chunks per worker.
        let split = valid >= 2 * POINT_CHUNK;
        let bounds = snap.shard_bounds(if split { self.helpers.len() + 1 } else { 1 });
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); bounds.len() + 1];
        for (i, &k) in keys.iter().enumerate() {
            if k != INVALID_KEY {
                buckets[bounds.partition_point(|b| *b <= (points[i].0, k))].push(i as u32);
            }
        }
        // Imbalance ×1000: 1000 = perfectly even shards.
        let max_len = buckets.iter().map(Vec::len).max().unwrap_or(0);
        let imbalance = max_len * buckets.len() * 1000 / valid;
        record!("query.batch.shard_imbalance", imbalance as u64);
        batch_started(&snap, t0, n, valid);

        let shards: Vec<Shard> = buckets
            .into_iter()
            .map(|idxs| Shard {
                len: idxs.len(),
                unsorted: Mutex::new(Some(idxs)),
                sorted: OnceLock::new(),
                cursor: AtomicUsize::new(0),
            })
            .collect();
        let parts = shards.len();
        let batch = PointBatch {
            snap,
            points,
            keys,
            shards,
        };
        let answers = self.fan_out(parts, valid, vec![None; n], move |p, emit| {
            batch.serve(p, emit)
        });
        let e2e = batch_done("point", t0, n);
        record!("query.point.latency_ns", e2e);
        answers
    }

    /// Batched box queries: one hit list per box, in input order —
    /// identical to [`ForestSnapshot::query_box`] per entry. Each box's
    /// own latency goes to `query.box.latency_ns`.
    pub fn query_boxes(&self, boxes: Vec<BoxQuery>) -> Vec<Vec<LeafHit>> {
        let t0 = now_ns();
        let n = boxes.len();
        if n == 0 {
            return Vec::new();
        }
        // Serve in (tree, Z-key of the clamped low corner) order so
        // consecutive boxes touch nearby leaf slices.
        let snap = self.handle.load();
        let clamp = |v: i32| v.clamp(0, (1 << snap.max_level()) - 1);
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&i| {
            let b = &boxes[i as usize];
            (b.tree, zrange::point_key(b.lo.map(clamp), snap.dim()))
        });
        batch_started(&snap, t0, n, n);

        let cursor = AtomicUsize::new(0);
        let parts = n.div_ceil(BOX_CHUNK).min(self.helpers.len() + 1);
        let answers = self.fan_out(parts, n, vec![Vec::new(); n], move |_, emit| loop {
            let lo = cursor.fetch_add(BOX_CHUNK, Relaxed);
            if lo >= n {
                break;
            }
            for &i in &order[lo..(lo + BOX_CHUNK).min(n)] {
                let (t0, q) = (now_ns(), boxes[i as usize]);
                emit(i, snap.query_box(q.tree, q.lo, q.hi));
                record!("query.box.latency_ns", now_ns().saturating_sub(t0));
            }
        });
        batch_done("box", t0, n);
        answers
    }

    /// All local leaves of `tree` intersecting the half-open box
    /// `[lo, hi)`: a one-box [`query_boxes`](QueryExecutor::query_boxes).
    pub fn query_box(&self, tree: TreeId, lo: [i32; 3], hi: [i32; 3]) -> Vec<LeafHit> {
        let mut hits = self.query_boxes(vec![BoxQuery { tree, lo, hi }]);
        hits.pop().expect("one box, one answer")
    }

    /// [`locate_points`](QueryExecutor::locate_points) with the answer
    /// wrapped in a [`Ticket`]; kept for source compatibility.
    pub fn submit_points(&self, points: Vec<(TreeId, [i32; 3])>) -> Ticket<Vec<Option<LeafHit>>> {
        Ticket(self.locate_points(points))
    }

    /// [`query_boxes`](QueryExecutor::query_boxes) with the answer
    /// wrapped in a [`Ticket`]; kept for source compatibility.
    pub fn submit_boxes(&self, boxes: Vec<BoxQuery>) -> Ticket<Vec<Vec<LeafHit>>> {
        Ticket(self.query_boxes(boxes))
    }
}

impl Drop for QueryExecutor {
    fn drop(&mut self) {
        self.helpers.clear(); // ends each helper's loop once its queue is empty
        for join in self.joins.drain(..) {
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::{MortonQuad, Quadrant};
    use quadforest_forest::Forest;

    fn uniform_snapshot(level: u8) -> ForestSnapshot {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, level);
            ForestSnapshot::build(&f, 0)
        })
        .pop()
        .unwrap()
    }

    #[test]
    fn executor_answers_match_direct_snapshot_queries() {
        let snap = uniform_snapshot(4);
        let handle = SnapshotHandle::new(snap.clone());
        let exec = QueryExecutor::new(handle, 4);
        let root = MortonQuad::<2>::len_at(0);
        let step = root / 16;
        let points: Vec<(TreeId, [i32; 3])> = (0..16)
            .flat_map(|i| (0..16).map(move |j| (0u32, [i * step, j * step, 0])))
            .collect();
        let got = exec.locate_points(points.clone());
        assert_eq!(got, snap.locate_batch(&points));
        assert!(got.iter().all(|h| h.is_some()));

        let (lo, hi) = ([0, 0, 0], [root / 2, root / 2, 0]);
        assert_eq!(exec.query_box(0, lo, hi), snap.query_box(0, lo, hi));
    }

    #[test]
    fn batched_apis_match_single_query_paths() {
        let snap = uniform_snapshot(3);
        let handle = SnapshotHandle::new(snap.clone());
        let exec = QueryExecutor::new(handle, 3);
        let root = MortonQuad::<2>::len_at(0);
        // Mixed batch: in-domain, duplicate, out-of-domain, bad tree.
        let points = vec![
            (0u32, [1, 1, 0]),
            (0u32, [1, 1, 0]),
            (0u32, [-3, 1, 0]),
            (9u32, [1, 1, 0]),
            (0u32, [root - 1, root - 1, 0]),
        ];
        assert_eq!(
            exec.locate_points(points.clone()),
            snap.locate_batch(&points)
        );

        let boxes = vec![
            BoxQuery {
                tree: 0,
                lo: [0, 0, 0],
                hi: [root / 2, root, 0],
            },
            BoxQuery {
                tree: 0,
                lo: [root / 4, root / 4, 0],
                hi: [root / 4, root / 4, 0], // empty box
            },
            BoxQuery {
                tree: 7,
                lo: [0, 0, 0],
                hi: [root, root, 0], // bad tree
            },
        ];
        let got = exec.query_boxes(boxes.clone());
        for (b, hits) in boxes.iter().zip(&got) {
            assert_eq!(*hits, snap.query_box(b.tree, b.lo, b.hi));
        }
    }

    #[test]
    fn served_counter_advances() {
        let handle = SnapshotHandle::new(uniform_snapshot(2));
        let served = telemetry::global().counter("query.served");
        let before = served.get();
        let exec = QueryExecutor::new(handle, 2);
        exec.locate_points(vec![(0u32, [0, 0, 0]), (0u32, [1, 1, 0])]);
        exec.query_box(0, [0, 0, 0], [2, 2, 0]);
        assert!(served.get() >= before + 3);
    }

    #[test]
    fn large_sharded_batch_matches_reference() {
        let snap = uniform_snapshot(5);
        let handle = SnapshotHandle::new(snap.clone());
        let exec = QueryExecutor::new(handle, 4);
        let root = MortonQuad::<2>::len_at(0);
        // Big enough to trigger sharding (>= 2 * POINT_CHUNK valid
        // probes), with a hash scatter so every shard gets work.
        let points: Vec<(TreeId, [i32; 3])> = (0u64..2048)
            .map(|i| {
                let h = i.wrapping_mul(0x9e3779b97f4a7c15);
                (
                    0u32,
                    [(h as i32 & (root - 1)), ((h >> 20) as i32 & (root - 1)), 0],
                )
            })
            .collect();
        assert_eq!(
            exec.locate_points(points.clone()),
            snap.locate_batch(&points)
        );
    }

    #[test]
    fn skewed_batch_is_stolen_by_the_caller() {
        // Every probe lies in the last shard's Z-interval, so the
        // caller's own shard is empty and it can only steal.
        let snap = uniform_snapshot(5);
        let root = MortonQuad::<2>::len_at(0);
        let half = root / 2;
        let points: Vec<(TreeId, [i32; 3])> = (0u64..2048)
            .map(|i| {
                let h = i.wrapping_mul(0x9e3779b97f4a7c15);
                let x = half + (h as i32 & (half - 1));
                (0u32, [x, half + ((h >> 20) as i32 & (half - 1)), 0])
            })
            .collect();
        let keys = snap.probe_keys(&points);
        for workers in [2, 4] {
            let last = *snap.shard_bounds(workers).last().unwrap();
            assert!(
                keys.iter().all(|&k| (0, k) >= last),
                "probe outside the last shard"
            );
            let exec = QueryExecutor::new(SnapshotHandle::new(snap.clone()), workers);
            assert_eq!(
                exec.locate_points(points.clone()),
                snap.locate_batch(&points),
                "{workers} workers"
            );
        }
    }
}
