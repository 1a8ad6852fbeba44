//! `paper_kernels`: the six kernels of the paper's Figures 2–7 over the
//! §3.1 array (every octant of levels 0..=7, the root left out so that
//! `parent` and `sibling` are defined everywhere), in the standard,
//! Morton and AVX encodings on one thread, plus the dispatched SoA batch
//! kernels of `core::batch` over the same array.
//!
//! The seed rotates the array and picks the child, sibling and face
//! indices of the batch kernels: the work is the same for every seed.

use crate::stats::{median, ratio};
use crate::trace::{self, RankTrace};
use crate::{Config, Measured, Rng, SETUPS};
use quadforest_bench::{
    kernel_boundaries, kernel_child, kernel_fneigh, kernel_morton, kernel_parent, kernel_sibling,
};
use quadforest_core::batch;
use quadforest_core::quadrant::{AvxQuad, MortonQuad, Quadrant, StandardQuad};
use quadforest_core::scalar_ref::{self, QuadSoA};
use quadforest_core::workload;
use quadforest_telemetry as telemetry;
use std::collections::BTreeMap;
use std::time::Instant;

/// Lanes per batch kernel compared against the scalar reference.
const SAMPLES: usize = 64;

/// Span (and metric) names of the six kernels per encoding:
/// `SPANS[kernel][encoding]`.
const SPANS: [[&str; 3]; 6] = [
    [
        "core.quadrant.morton.standard_ns",
        "core.quadrant.morton.morton_ns",
        "core.quadrant.morton.avx_ns",
    ],
    [
        "core.quadrant.child.standard_ns",
        "core.quadrant.child.morton_ns",
        "core.quadrant.child.avx_ns",
    ],
    [
        "core.quadrant.fneigh.standard_ns",
        "core.quadrant.fneigh.morton_ns",
        "core.quadrant.fneigh.avx_ns",
    ],
    [
        "core.quadrant.parent.standard_ns",
        "core.quadrant.parent.morton_ns",
        "core.quadrant.parent.avx_ns",
    ],
    [
        "core.quadrant.sibling.standard_ns",
        "core.quadrant.sibling.morton_ns",
        "core.quadrant.sibling.avx_ns",
    ],
    [
        "core.quadrant.boundaries.standard_ns",
        "core.quadrant.boundaries.morton_ns",
        "core.quadrant.boundaries.avx_ns",
    ],
];

/// Span names of the dispatched SoA batch kernels.
const BATCH_SPANS: [&str; 7] = [
    "core.batch.child_all_ns",
    "core.batch.parent_all_ns",
    "core.batch.sibling_all_ns",
    "core.batch.face_neighbor_all_ns",
    "core.batch.offset_neighbor_all_ns",
    "core.batch.tree_boundaries_all_ns",
    "core.batch.sfc_keys_all_ns",
];

/// Per-layer names of the encodings' headline and memory figures.
const HEADLINE: [&str; 3] = [
    "kernel_ns_per_quad.standard",
    "kernel_ns_per_quad.morton",
    "kernel_ns_per_quad.avx",
];
const BYTES: [&str; 3] = [
    "core.bytes_per_quad.standard",
    "core.bytes_per_quad.morton",
    "core.bytes_per_quad.avx",
];

struct Inputs {
    standard: Vec<StandardQuad<3>>,
    morton: Vec<MortonQuad<3>>,
    avx: Vec<AvxQuad<3>>,
    indices: Vec<(u64, u8)>,
    soa: QuadSoA,
    /// Child, sibling and face index of the batch kernels.
    pick: (u32, u32, u32),
}

/// The complete tree without its root, rotated by `offset`.
fn array<Q: Quadrant>(level: u8, offset: usize) -> Vec<Q> {
    let mut v = workload::complete_tree::<Q>(level);
    v.remove(0);
    v.rotate_left(offset);
    v
}

fn setup(cfg: &Config) -> Inputs {
    let level = if cfg.tiny {
        4
    } else {
        quadforest_bench::WORKLOAD_MAX_LEVEL
    };
    let n = workload::complete_tree_count(3, level) as usize - 1;
    let mut rng = Rng::new(cfg.seed, 7);
    let offset = rng.below(n as u64) as usize;
    let standard = array::<StandardQuad<3>>(level, offset);
    let mut indices = workload::morton_inputs(3, level);
    indices.remove(0);
    indices.rotate_left(offset);
    Inputs {
        soa: QuadSoA::from_quads(&standard),
        morton: array(level, offset),
        avx: array(level, offset),
        standard,
        indices,
        pick: (
            rng.below(8) as u32,
            rng.below(8) as u32,
            rng.below(6) as u32,
        ),
    }
}

/// Wall time per kernel span name, seconds, summed over sweeps.
type Timings = BTreeMap<&'static str, f64>;

/// One timed kernel call in its span; adds the wall time to `total`.
fn timed<T>(name: &'static str, total: &mut Timings, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = {
        let _s = telemetry::span(name);
        f()
    };
    *total.entry(name).or_default() += t.elapsed().as_secs_f64();
    r
}

/// The six paper kernels on one encoding; returns their checksums.
fn paper<Q: Quadrant>(
    quads: &[Q],
    indices: &[(u64, u8)],
    spans: usize,
    total: &mut Timings,
) -> [u64; 6] {
    let s = |k: usize| SPANS[k][spans];
    [
        timed(s(0), total, || kernel_morton::<Q>(indices)),
        timed(s(1), total, || kernel_child(quads)),
        timed(s(2), total, || kernel_fneigh(quads)),
        timed(s(3), total, || kernel_parent(quads)),
        timed(s(4), total, || kernel_sibling(quads)),
        timed(s(5), total, || kernel_boundaries(quads)),
    ]
}

/// One output element as four integer lanes.
type Lanes = [i64; 4];

fn soa_lanes(s: &QuadSoA, j: usize) -> Lanes {
    [s.x[j], s.y[j], s.z[j], s.level[j]].map(i64::from)
}

/// At seeded sample indices, `got` equals `reference` run on the
/// sampled input quadrants.
fn lanes_agree(
    inp: &Inputs,
    rng: &mut Rng,
    got: impl Fn(usize) -> Lanes,
    reference: impl Fn(&QuadSoA) -> Vec<Lanes>,
    perturb: bool,
) -> bool {
    let _check = telemetry::span("paper_kernels.check");
    let idx: Vec<usize> = (0..SAMPLES)
        .map(|_| rng.below(inp.soa.len() as u64) as usize)
        .collect();
    let s = &inp.soa;
    let mut sub = QuadSoA::with_len(SAMPLES);
    for (k, &j) in idx.iter().enumerate() {
        (sub.x[k], sub.y[k], sub.z[k], sub.level[k]) = (s.x[j], s.y[j], s.z[j], s.level[j]);
    }
    let mut want = reference(&sub);
    want[0][0] += i64::from(perturb);
    idx.iter().zip(want).all(|(&j, w)| got(j) == w)
}

/// A SoA kernel as `(input, child/sibling/face index, offset, output)`;
/// each kernel reads the arguments it takes.
type SoaKernel = fn(&QuadSoA, u32, [i32; 3], &mut QuadSoA);

/// The lanes a scalar-reference SoA kernel produces.
fn soa_reference(kernel: impl Fn(&QuadSoA, &mut QuadSoA)) -> impl Fn(&QuadSoA) -> Vec<Lanes> {
    move |q| {
        let mut o = QuadSoA::with_len(q.len());
        kernel(q, &mut o);
        (0..q.len()).map(|k| soa_lanes(&o, k)).collect()
    }
}

/// One sweep: the six kernels on each encoding, then the batch kernels,
/// each timed into `total`. Returns whether every check passed.
fn sweep(
    inp: &Inputs,
    out: &mut QuadSoA,
    keys: &mut [u64],
    rng: &mut Rng,
    perturb: bool,
    total: &mut Timings,
) -> bool {
    const L: u8 = StandardQuad::<3>::MAX_LEVEL;
    let _op = telemetry::span("paper_kernels.sweep");
    let s = paper(&inp.standard, &inp.indices, 0, total);
    let m = paper(&inp.morton, &inp.indices, 1, total);
    let a = paper(&inp.avx, &inp.indices, 2, total);
    // the encodings compute the same logical results
    let mut oracle = s;
    oracle[0] = oracle[0].wrapping_add(u64::from(perturb));
    let mut ok = m == oracle && a == oracle;

    let (c, sib, f) = inp.pick;
    let off = [1, -1, 1];
    let soa = &inp.soa;
    let kernels: [(SoaKernel, SoaKernel); 5] = [
        (
            |q, c, _, o| batch::child_all(q, c, L, o),
            |q, c, _, o| scalar_ref::child_all(q, c, L, o),
        ),
        (
            |q, _, _, o| batch::parent_all(q, L, o),
            |q, _, _, o| scalar_ref::parent_all(q, L, o),
        ),
        (
            |q, s, _, o| batch::sibling_all(q, s, L, o),
            |q, s, _, o| scalar_ref::sibling_all(q, s, L, o),
        ),
        (
            |q, f, _, o| batch::face_neighbor_all(q, f, L, o),
            |q, f, _, o| scalar_ref::face_neighbor_all(q, f, L, o),
        ),
        (
            |q, _, d, o| batch::offset_neighbor_all(q, d, L, o),
            |q, _, d, o| scalar_ref::offset_neighbor_all(q, d, L, o),
        ),
    ];
    for (k, (fast, reference)) in kernels.into_iter().enumerate() {
        let index = [c, 0, sib, f, 0][k];
        timed(BATCH_SPANS[k], total, || fast(soa, index, off, out));
        ok &= lanes_agree(
            inp,
            rng,
            |j| soa_lanes(out, j),
            soa_reference(|q, o| reference(q, index, off, o)),
            perturb,
        );
    }
    // the boundary flags land in out's x, y, z lanes
    timed(BATCH_SPANS[5], total, || {
        let QuadSoA { x, y, z, .. } = out;
        batch::tree_boundaries_all(soa, 3, L, [x, y, z])
    });
    ok &= lanes_agree(
        inp,
        rng,
        |j| [out.x[j], out.y[j], out.z[j], 0].map(i64::from),
        |q| {
            let mut b = [vec![0; q.len()], vec![0; q.len()], vec![0; q.len()]];
            let [x, y, z] = &mut b;
            scalar_ref::tree_boundaries_all(q, 3, L, [x, y, z]);
            (0..q.len())
                .map(|k| [b[0][k], b[1][k], b[2][k], 0].map(i64::from))
                .collect()
        },
        perturb,
    );
    timed(BATCH_SPANS[6], total, || batch::sfc_keys_all(soa, 3, keys));
    ok &= lanes_agree(
        inp,
        rng,
        |j| [keys[j] as i64, 0, 0, 0],
        |q| {
            let mut k = vec![0; q.len()];
            scalar_ref::sfc_keys_all(q, 3, &mut k);
            k.into_iter().map(|v| [v as i64, 0, 0, 0]).collect()
        },
        perturb,
    );
    ok
}

/// Run the workload.
pub fn run(cfg: &Config) -> Measured {
    let mut m = Measured {
        backend: "none",
        ..Measured::default()
    };
    let mut inputs = None;
    for _ in 0..SETUPS {
        drop(inputs.take());
        let t = Instant::now();
        inputs = Some(setup(cfg));
        m.setup_s.push(t.elapsed().as_secs_f64());
        m.attempted += 1;
    }
    let inp = inputs.expect("at least one set-up");
    let n = inp.soa.len();
    let mut out = QuadSoA::with_len(n);
    let mut keys = vec![0u64; n];
    let mut rng = Rng::new(cfg.seed, 8);
    // octant-kernel evaluations per sweep
    let per_sweep = ((SPANS.len() * SPANS[0].len() + BATCH_SPANS.len()) * n) as f64;
    // per-kernel times and sweep count of the phase the layers come from
    let (mut timings, mut sweeps_of_layers) = (Timings::new(), 0u64);
    let mut traces: Vec<RankTrace> = Vec::new();
    let mut invocations = [0u64; 3];

    for (seconds, traced) in cfg.phases() {
        let inv0 = trace::invocations();
        let started = traced.then(|| trace::begin(0));
        let phase_start = Instant::now();
        let mut sweeps = 0;
        let mut phase_timings = Timings::new();
        while sweeps < 2 || phase_start.elapsed().as_secs_f64() < seconds {
            let before: f64 = phase_timings.values().sum();
            let ok = sweep(
                &inp,
                &mut out,
                &mut keys,
                &mut rng,
                cfg.perturb_oracle,
                &mut phase_timings,
            );
            let dt = phase_timings.values().sum::<f64>() - before;
            sweeps += 1;
            m.attempted += 1;
            m.failed += u64::from(!ok);
            if traced {
                m.traced_op_s.push(dt);
            } else {
                m.op_s.push(dt);
                m.rates.push(per_sweep / dt);
            }
        }
        let inv1 = trace::invocations();
        invocations = std::array::from_fn(|i| (inv1[i] - inv0[i]) / sweeps);
        (timings, sweeps_of_layers) = (phase_timings, sweeps);
        if let Some(start) = started {
            traces.push(trace::end(start));
        }
    }
    m.peak_heap_bytes = crate::alloc::peak_bytes();
    m.lines.push(format!(
        "paper_kernels: {n} octants, {} untraced sweeps, median {:.1} ms",
        m.op_s.len(),
        median(&m.op_s) * 1e3
    ));
    let l = &mut m.layers;
    let sizes = [
        std::mem::size_of::<StandardQuad<3>>(),
        std::mem::size_of::<MortonQuad<3>>(),
        std::mem::size_of::<AvxQuad<3>>(),
    ];
    for (name, size) in BYTES.iter().zip(sizes) {
        l.insert(name, size as f64);
    }
    let per = |name: &str| {
        ratio(
            timings.get(name).copied().unwrap_or(0.0) * 1e9,
            (sweeps_of_layers as usize * n) as f64,
        )
    };
    for (e, headline) in HEADLINE.iter().enumerate() {
        let mut sum = 0.0;
        for kernel in &SPANS {
            let v = per(kernel[e]);
            l.insert(kernel[e], v);
            sum += v;
        }
        l.insert(headline, sum / SPANS.len() as f64);
    }
    for name in BATCH_SPANS {
        l.insert(name, per(name));
    }
    for (name, count) in trace::INVOCATIONS.iter().zip(invocations) {
        l.insert(name, count as f64);
    }
    if cfg.trace {
        trace::finish(&mut m, cfg, "paper_kernels", &traces);
    }
    m
}
