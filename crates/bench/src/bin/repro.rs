//! `repro` — regenerate the paper's evaluation tables on this machine.
//!
//! ```text
//! repro --all                 # figures 2-7 + memory + autovec
//! repro --fig 4               # one figure
//! repro --mem --level 8       # Section 3.2 memory experiment
//! repro --autovec             # contribution 5
//! repro --chaos               # fault-injected forest pipeline
//! repro --checkpoint ckpt/    # checkpoint-format smoke: write, corrupt, fall back
//! repro --json                # machine-readable perf baseline
//! repro --trace trace.json    # traced 4-rank pipeline (Chrome trace)
//! repro --queries             # snapshot query serving (BENCH_query.json)
//! repro --chaos --backend sockets   # every rank a real OS process
//! repro --summary a.json,b.json     # compare BENCH files (same backend only)
//! repro --iters 5 --ranks 1,4,64,512
//! ```
//!
//! Output is a set of markdown tables (paper-style), suitable for
//! pasting into EXPERIMENTS.md. `--json` additionally writes
//! `BENCH_batch.json` (scalar vs runtime-dispatched SIMD for every SoA
//! batch kernel) and `BENCH_highlevel.json` (keyed vs comparator
//! linearize, batched vs per-quadrant neighbor enumeration, forest
//! pipeline wall times) to the current directory — the repo's benchmark
//! trajectory points and regression gate.

use quadforest_bench::*;
use quadforest_core::batch;
use quadforest_core::quadrant::{
    AvxQuad, HilbertQuad, Morton128Quad, MortonQuad, Quadrant, StandardQuad,
};
use quadforest_core::scalar_ref::{self, QuadSoA};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Counting allocator (the VTune substitute for Section 3.2)
// ---------------------------------------------------------------------------

struct Counting;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let cur = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn peak_delta(base: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(base)
}

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

struct Opts {
    figures: Vec<u32>,
    mem: bool,
    mem_level: u8,
    autovec: bool,
    dim2: bool,
    chaos: bool,
    checkpoint: Option<String>,
    json: bool,
    trace: Option<String>,
    queries: bool,
    /// `--pde`: data-bearing advection throughput → BENCH_pde.json
    /// (cells/s, migration bytes, conservation drift) on the selected
    /// transport backend.
    pde: bool,
    iters: usize,
    ranks: Vec<usize>,
    backend: quadforest_comm::Backend,
    summary: Vec<String>,
    /// With `--summary`: add p50/p99/p999 columns from rows that carry
    /// quantile fields (BENCH_query headline records).
    percentiles: bool,
    /// `--prom FILE`: run a query workload, self-scrape the live metrics
    /// endpoint over TCP, and write the exposition body to FILE.
    prom: Option<String>,
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        figures: Vec::new(),
        mem: false,
        mem_level: 8,
        autovec: false,
        dim2: false,
        chaos: false,
        checkpoint: None,
        json: false,
        trace: None,
        queries: false,
        pde: false,
        iters: 3,
        ranks: RANKS.to_vec(),
        backend: quadforest_comm::Backend::Threads,
        summary: Vec::new(),
        percentiles: false,
        prom: None,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let mut any = false;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => {
                opts.figures = vec![2, 3, 4, 5, 6, 7];
                opts.mem = true;
                opts.autovec = true;
                opts.chaos = true;
                any = true;
            }
            "--fig" => {
                i += 1;
                opts.figures.push(args[i].parse().expect("--fig N"));
                any = true;
            }
            "--mem" => {
                opts.mem = true;
                any = true;
            }
            "--autovec" => {
                opts.autovec = true;
                any = true;
            }
            "--chaos" => {
                opts.chaos = true;
                any = true;
            }
            "--checkpoint" => {
                i += 1;
                opts.checkpoint = Some(args[i].clone());
                any = true;
            }
            "--json" => {
                opts.json = true;
                any = true;
            }
            "--trace" => {
                i += 1;
                opts.trace = Some(args[i].clone());
                any = true;
            }
            "--queries" => {
                opts.queries = true;
                any = true;
            }
            "--pde" => {
                opts.pde = true;
                any = true;
            }
            "--dim2" => {
                opts.dim2 = true;
                any = true;
            }
            "--level" => {
                i += 1;
                opts.mem_level = args[i].parse().expect("--level L");
            }
            "--iters" => {
                i += 1;
                opts.iters = args[i].parse().expect("--iters N");
            }
            "--ranks" => {
                i += 1;
                opts.ranks = args[i]
                    .split(',')
                    .map(|s| s.parse().expect("--ranks a,b,c"))
                    .collect();
            }
            "--backend" => {
                i += 1;
                opts.backend = match args[i].as_str() {
                    "threads" => quadforest_comm::Backend::Threads,
                    "sockets" => {
                        let me = std::env::current_exe().expect("current_exe for socket worker");
                        quadforest_comm::Backend::Sockets(quadforest_comm::SocketOptions::new(me))
                    }
                    "tcp" => {
                        let me = std::env::current_exe().expect("current_exe for tcp worker");
                        quadforest_comm::Backend::Tcp(quadforest_comm::TcpOptions::new(me))
                    }
                    other => {
                        eprintln!("unknown backend '{other}' (expected threads|sockets|tcp)");
                        std::process::exit(2);
                    }
                };
            }
            "--summary" => {
                i += 1;
                opts.summary = args[i].split(',').map(|s| s.to_string()).collect();
                any = true;
            }
            "--percentiles" => {
                opts.percentiles = true;
            }
            "--prom" => {
                i += 1;
                opts.prom = Some(args[i].clone());
                any = true;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if !any {
        opts.figures = vec![2, 3, 4, 5, 6, 7];
        opts.mem = true;
        opts.autovec = true;
        opts.dim2 = true;
        opts.chaos = true;
    }
    opts
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------------------
// Figures 2-7
// ---------------------------------------------------------------------------

/// Run one kernel for one representation over the rank sweep; returns
/// (per-P critical path, best single-rank time).
fn sweep<T: Clone, F: FnMut(&[T]) -> u64 + Copy>(
    data: &[T],
    ranks: &[usize],
    iters: usize,
    kernel: F,
) -> (Vec<Duration>, Duration) {
    // warmup
    let mut k = kernel;
    let _ = k(data);
    let series = ranks
        .iter()
        .map(|&p| {
            let mut best = Duration::MAX;
            for _ in 0..iters {
                let pt = strong_scale(data, p, kernel);
                best = best.min(pt.critical_path);
            }
            best
        })
        .collect::<Vec<_>>();
    // the single-rank reference for the speedup summary is the P = 1
    // sweep point when present (keeps table and summary consistent on a
    // noisy shared core), else a dedicated full-array measurement
    let single = match ranks.iter().position(|&p| p == 1) {
        Some(i) => series[i],
        None => time_best(data, iters, kernel),
    };
    (series, single)
}

struct FigureResult {
    name: &'static str,
    algorithms: &'static str,
    /// rows: (repr name, per-P series, single-rank best)
    rows: Vec<(&'static str, Vec<Duration>, Duration)>,
}

impl FigureResult {
    fn print(&self, ranks: &[usize]) {
        println!("\n## {} ({})", self.name, self.algorithms);
        print!("| P |");
        for (name, _, _) in &self.rows {
            print!(" {name} (ms) |");
        }
        println!();
        print!("|---|");
        for _ in &self.rows {
            print!("---|");
        }
        println!();
        for (i, p) in ranks.iter().enumerate() {
            print!("| {p} |");
            for (_, series, _) in &self.rows {
                print!(" {:.3} |", ms(series[i]));
            }
            println!();
        }
        let base = self.rows[0].2;
        print!("speedup vs {}:", self.rows[0].0);
        for (name, _, single) in self.rows.iter().skip(1) {
            print!(" {name} {:+.0}%", speedup_percent(base, *single));
        }
        println!();
    }
}

macro_rules! figure_quads {
    ($name:literal, $alg:literal, $kernel:ident, $filter:expr, $opts:expr) => {{
        let mut rows = Vec::new();
        {
            let data = $filter(paper_workload::<StandardQuad<3>>());
            let (s, b) = sweep(&data, &$opts.ranks, $opts.iters, |d| $kernel(d));
            rows.push(("standard", s, b));
        }
        {
            let data = $filter(paper_workload::<MortonQuad<3>>());
            let (s, b) = sweep(&data, &$opts.ranks, $opts.iters, |d| $kernel(d));
            rows.push(("morton", s, b));
        }
        {
            let data = $filter(paper_workload::<AvxQuad<3>>());
            let (s, b) = sweep(&data, &$opts.ranks, $opts.iters, |d| $kernel(d));
            rows.push(("avx", s, b));
        }
        {
            let data = $filter(paper_workload::<Morton128Quad<3>>());
            let (s, b) = sweep(&data, &$opts.ranks, $opts.iters, |d| $kernel(d));
            rows.push(("morton128", s, b));
        }
        FigureResult {
            name: $name,
            algorithms: $alg,
            rows,
        }
        .print(&$opts.ranks);
    }};
}

fn run_figure(fig: u32, opts: &Opts) {
    match fig {
        2 => {
            let inputs = paper_morton_inputs(3);
            let mut rows = Vec::new();
            let (s, b) = sweep(&inputs, &opts.ranks, opts.iters, |d| {
                kernel_morton::<StandardQuad<3>>(d)
            });
            rows.push(("standard", s, b));
            let (s, b) = sweep(&inputs, &opts.ranks, opts.iters, |d| {
                kernel_morton::<MortonQuad<3>>(d)
            });
            rows.push(("morton", s, b));
            let (s, b) = sweep(&inputs, &opts.ranks, opts.iters, |d| {
                kernel_morton::<AvxQuad<3>>(d)
            });
            rows.push(("avx", s, b));
            let (s, b) = sweep(&inputs, &opts.ranks, opts.iters, |d| {
                kernel_morton::<Morton128Quad<3>>(d)
            });
            rows.push(("morton128", s, b));
            FigureResult {
                name: "Figure 2: Morton",
                algorithms: "Algorithms 1, 4, 11: construct quadrant from curve index",
                rows,
            }
            .print(&opts.ranks);
        }
        3 => figure_quads!(
            "Figure 3: Child",
            "Algorithms 2, 6, 9",
            kernel_child,
            |v| v,
            opts
        ),
        4 => figure_quads!(
            "Figure 4: FNeigh",
            "Algorithm 8",
            kernel_fneigh,
            |v| v,
            opts
        ),
        5 => figure_quads!(
            "Figure 5: Parent",
            "Algorithms 7, 10",
            kernel_parent,
            nonroot,
            opts
        ),
        6 => figure_quads!(
            "Figure 6: Sibling",
            "Algorithm 3",
            kernel_sibling,
            nonroot,
            opts
        ),
        7 => figure_quads!(
            "Figure 7: Tree_Boundaries",
            "Algorithm 12",
            kernel_boundaries,
            |v| v,
            opts
        ),
        other => eprintln!("no such figure: {other}"),
    }
}

// ---------------------------------------------------------------------------
// Section 3.2: memory
// ---------------------------------------------------------------------------

fn measure_mem<Q: Quadrant>(level: u8) -> (usize, usize) {
    reset_peak();
    let base = PEAK.load(Ordering::Relaxed);
    let v: Vec<Q> = workload::uniform_level::<Q>(level);
    let peak = peak_delta(base);
    let n = v.len();
    drop(v);
    (peak, n)
}

fn run_memory(level: u8) {
    println!("\n## Section 3.2: memory consumption (uniform octree, level {level})");
    println!("built by repeated calls to the Morton algorithm, as in the paper\n");
    println!("| representation | bytes/quad | total | ratio |");
    println!("|---|---|---|---|");
    let (std_peak, n) = measure_mem::<StandardQuad<3>>(level);
    let (avx_peak, _) = measure_mem::<AvxQuad<3>>(level);
    let (mor_peak, _) = measure_mem::<MortonQuad<3>>(level);
    let gib = |b: usize| b as f64 / (1024.0 * 1024.0 * 1024.0);
    for (name, peak, size) in [
        ("standard", std_peak, std::mem::size_of::<StandardQuad<3>>()),
        ("avx", avx_peak, std::mem::size_of::<AvxQuad<3>>()),
        ("morton", mor_peak, std::mem::size_of::<MortonQuad<3>>()),
    ] {
        println!(
            "| {name} | {size} | {:.3} GiB | {:.2} |",
            gib(peak),
            peak as f64 / mor_peak as f64
        );
    }
    println!("\nquadrants: {n}; paper reports 25.8 : 17.2 : 8.6 GB = 3 : 2 : 1 at level 10");
    assert_eq!(std::mem::size_of::<StandardQuad<3>>(), 24);
    assert_eq!(std::mem::size_of::<AvxQuad<3>>(), 16);
    assert_eq!(std::mem::size_of::<MortonQuad<3>>(), 8);
}

// ---------------------------------------------------------------------------
// Contribution 5: manual vs automatic vectorization
// ---------------------------------------------------------------------------

fn run_autovec(opts: &Opts) {
    const L: u8 = StandardQuad::<3>::MAX_LEVEL;
    let quads = nonroot(paper_workload::<StandardQuad<3>>());
    let soa = QuadSoA::from_quads(&quads);
    let mut out = QuadSoA::with_len(soa.len());
    let n = soa.len();
    println!("\n## Contribution 5: manual AVX2 vs compiler auto-vectorization");
    println!("SoA batch kernels over {n} octants (identical memory layout)\n");
    println!("| kernel | auto-vectorized (ms) | manual AVX2 256-bit (ms) | manual gain |");
    println!("|---|---|---|---|");

    let time = |f: &mut dyn FnMut()| {
        let mut best = Duration::MAX;
        for _ in 0..opts.iters.max(3) {
            let t = std::time::Instant::now();
            f();
            best = best.min(t.elapsed());
        }
        best
    };

    let rows: Vec<(&str, Duration, Duration)> = vec![
        (
            "child",
            time(&mut || scalar_ref::child_all(&soa, 5, L, &mut out)),
            time(&mut || batch::child_all(&soa, 5, L, &mut out)),
        ),
        (
            "parent",
            time(&mut || scalar_ref::parent_all(&soa, L, &mut out)),
            time(&mut || batch::parent_all(&soa, L, &mut out)),
        ),
        (
            "sibling",
            time(&mut || scalar_ref::sibling_all(&soa, 3, L, &mut out)),
            time(&mut || batch::sibling_all(&soa, 3, L, &mut out)),
        ),
        (
            "face_neighbor",
            time(&mut || scalar_ref::face_neighbor_all(&soa, 2, L, &mut out)),
            time(&mut || batch::face_neighbor_all(&soa, 2, L, &mut out)),
        ),
    ];
    for (name, auto, manual) in &rows {
        println!(
            "| {name} | {:.3} | {:.3} | {:+.0}% |",
            ms(*auto),
            ms(*manual),
            speedup_percent(*auto, *manual)
        );
    }
    {
        let (mut fx, mut fy, mut fz) = (vec![0; n], vec![0; n], vec![0; n]);
        let auto =
            time(&mut || scalar_ref::tree_boundaries_all(&soa, 3, L, [&mut fx, &mut fy, &mut fz]));
        let manual =
            time(&mut || batch::tree_boundaries_all(&soa, 3, L, [&mut fx, &mut fy, &mut fz]));
        println!(
            "| tree_boundaries | {:.3} | {:.3} | {:+.0}% |",
            ms(auto),
            ms(manual),
            speedup_percent(auto, manual)
        );
    }
}

// ---------------------------------------------------------------------------
// 2D extension table (includes the Hilbert-curve representation)
// ---------------------------------------------------------------------------

fn run_dim2(opts: &Opts) {
    println!("\n## Extension: 2D kernels including the Hilbert-curve representation");
    println!("(no paper counterpart; the paper evaluates 3D only — this measures the");
    println!("curve trade-off: Hilbert's curve-order operations are O(level))\n");
    const L2: u8 = 9; // deeper than the 3D workload: 349,525 quadrants
    let n = workload::complete_tree_count(2, L2);
    println!("workload: {n} 2D quadrants (levels 0..={L2}), single rank\n");
    println!(
        "| kernel | standard | morton | avx | hilbert | (ms, best of {}) |",
        opts.iters
    );
    println!("|---|---|---|---|---|---|");

    macro_rules! row {
        ($name:literal, $kernel:ident, $filter:expr) => {{
            let s = time_best(
                &$filter(workload::complete_tree::<StandardQuad<2>>(L2)),
                opts.iters,
                |d| $kernel(d),
            );
            let m = time_best(
                &$filter(workload::complete_tree::<MortonQuad<2>>(L2)),
                opts.iters,
                |d| $kernel(d),
            );
            let a = time_best(
                &$filter(workload::complete_tree::<AvxQuad<2>>(L2)),
                opts.iters,
                |d| $kernel(d),
            );
            let h = time_best(
                &$filter(workload::complete_tree::<HilbertQuad>(L2)),
                opts.iters,
                |d| $kernel(d),
            );
            println!(
                "| {} | {:.3} | {:.3} | {:.3} | {:.3} | |",
                $name,
                ms(s),
                ms(m),
                ms(a),
                ms(h)
            );
        }};
    }

    {
        let inputs = workload::morton_inputs(2, L2);
        let s = time_best(&inputs, opts.iters, kernel_morton::<StandardQuad<2>>);
        let m = time_best(&inputs, opts.iters, kernel_morton::<MortonQuad<2>>);
        let a = time_best(&inputs, opts.iters, kernel_morton::<AvxQuad<2>>);
        let h = time_best(&inputs, opts.iters, kernel_morton::<HilbertQuad>);
        println!(
            "| from_index | {:.3} | {:.3} | {:.3} | {:.3} | |",
            ms(s),
            ms(m),
            ms(a),
            ms(h)
        );
    }
    row!("child", kernel_child, |v| v);
    row!("parent", kernel_parent, nonroot);
    row!("sibling", kernel_sibling, nonroot);
    row!("face_neighbor", kernel_fneigh, |v| v);
    row!("tree_boundaries", kernel_boundaries, |v| v);
}

// ---------------------------------------------------------------------------
// Chaos: the forest pipeline under deterministic fault injection
// ---------------------------------------------------------------------------

/// The deterministic fault seeds `--chaos` sweeps; recorded as
/// provenance in every BENCH_*.json produced by the same invocation.
const CHAOS_SEEDS: [u64; 4] = [11, 22, 33, 44];

fn run_chaos(opts: &Opts) {
    use quadforest_bench::transport::{self, CHAOS_PIPELINE};
    use quadforest_comm::{try_run_program, Attempt, Backend, FaultPlan, RunOptions, WorldError};

    let backend = &opts.backend;
    let registry = transport::registry();
    println!(
        "\n## Chaos: refine→balance→partition→ghost under fault injection [{} backend]",
        backend.name()
    );
    println!("delivery delays + cross-stream reordering; a correct pipeline must be");
    println!("bit-identical to the fault-free run (seeded plans replay exactly)\n");

    let run_once = |p: usize,
                    faults: Option<FaultPlan>|
     -> Result<Vec<transport::PipelineDigest>, WorldError> {
        let run_opts = RunOptions {
            faults,
            ..RunOptions::default()
        };
        try_run_program(
            backend,
            p,
            &run_opts,
            &registry,
            CHAOS_PIPELINE,
            &[],
            Attempt { index: 0 },
        )
        .map(|vals| vals.iter().map(|b| transport::decode_digest(b)).collect())
    };

    println!("| P | fault seed | checksum | ghosts | matches fault-free | wall (ms) |");
    println!("|---|---|---|---|---|---|");
    let mut all_ok = true;
    for &p in &[1usize, 2, 4, 7] {
        let baseline = run_once(p, None).unwrap_or_else(|e| panic!("fault-free run failed: {e}"));
        for seed in CHAOS_SEEDS {
            let mut plan = FaultPlan::new(seed)
                .with_delays(0.2, Duration::from_micros(100))
                .with_reordering(0.25);
            // On the process backends the chaos also attacks the wire
            // itself: latency, silent drops, bit corruption, and partial
            // writes. The session layer must retransmit/resync so the
            // digest still matches the fault-free run bit for bit.
            if matches!(backend, Backend::Sockets(_) | Backend::Tcp(_)) {
                plan = plan
                    .with_net_delays(0.05, Duration::from_micros(200))
                    .with_net_drops(0.02)
                    .with_net_corruption(0.02)
                    .with_net_partial_writes(0.1);
            }
            let t = std::time::Instant::now();
            let chaotic =
                run_once(p, Some(plan)).unwrap_or_else(|e| panic!("chaos run failed: {e}"));
            let wall = t.elapsed();
            let ok = chaotic == baseline;
            all_ok &= ok;
            println!(
                "| {p} | {seed} | {:#018x} | {} | {} | {:.3} |",
                chaotic[0].0,
                chaotic[0].1,
                if ok { "yes" } else { "NO" },
                ms(wall)
            );
        }
    }
    assert!(all_ok, "fault injection changed a pipeline result");

    // and a scheduled rank death: the world reports instead of hanging.
    // On the process-per-rank backends the death is a real SIGKILL of
    // the victim's process — detected and reported the same way.
    let plan = match backend {
        Backend::Threads => FaultPlan::new(1).with_panic_at(2, 9),
        Backend::Sockets(_) | Backend::Tcp(_) => FaultPlan::new(1).with_sigkill_at(2, 9),
    };
    match run_once(4, Some(plan)) {
        Ok(_) => println!("\nscheduled death did not fire (pipeline too short)"),
        Err(e) => println!(
            "\nscheduled rank death at P=4: origin rank {} — \"{}\" ({} collateral)",
            e.origin,
            e.reason,
            e.failures.len().saturating_sub(1)
        ),
    }
}

// ---------------------------------------------------------------------------
// --pde: data-bearing advection throughput (BENCH_pde.json)
// ---------------------------------------------------------------------------

/// Drive the patch-based advection program at P ∈ {1, 2, 4} on the
/// selected transport backend and write BENCH_pde.json: cell-update
/// throughput, payload bytes migrated during repartitioning, and the
/// relative mass drift (which must sit at machine precision — the rows
/// double as a conservation gate). The program runs through the shared
/// [`transport`] registry, so on `--backend sockets` every rank is a
/// real process and the patches cross genuine IPC.
fn run_pde(opts: &Opts) {
    use quadforest_bench::transport::{self, PDE_ADVECTION};
    use quadforest_comm::{try_run_program, Attempt, RunOptions};

    const STEPS: u64 = 40;
    const BASE_LEVEL: u8 = 3;
    const MAX_LEVEL: u8 = 5;
    const ADAPT_EVERY: u64 = 5;

    let backend = &opts.backend;
    let registry = transport::registry();
    println!(
        "\n## PDE: patch-based advection on dynamic AMR [{} backend]",
        backend.name()
    );
    println!("8×8 cell patches per leaf, donor-cell upwind, periodic square;");
    println!("adapt + repartition (payload in the all-to-all) every {ADAPT_EVERY} steps\n");
    println!("| P | steps | cell updates | Mcells/s | migrated KiB | mass drift | wall (ms) |");
    println!("|---|---|---|---|---|---|---|");

    let mut records = Vec::new();
    for &p in &[1usize, 2, 4] {
        let args = transport::pde_args(STEPS, BASE_LEVEL, MAX_LEVEL, ADAPT_EVERY);
        let run_opts = RunOptions::default();
        let t = std::time::Instant::now();
        let vals = try_run_program(
            backend,
            p,
            &run_opts,
            &registry,
            PDE_ADVECTION,
            &args,
            Attempt { index: 0 },
        )
        .unwrap_or_else(|e| panic!("pde advection failed at P={p}: {e}"));
        let wall = t.elapsed();
        let views: Vec<transport::PdeView> =
            vals.iter().map(|b| transport::decode_pde(b)).collect();
        let (cells, migrated, drift, digest) = views[0];
        for (r, v) in views.iter().enumerate() {
            assert_eq!(v.3, digest, "rank {r} disagrees on the final state digest");
        }
        assert!(
            drift < 1e-12,
            "P={p}: advection lost mass across adaptation + migration (drift {drift:e})"
        );
        let cells_per_sec = cells as f64 / wall.as_secs_f64();
        println!(
            "| {p} | {STEPS} | {cells} | {:.2} | {:.1} | {drift:.2e} | {:.3} |",
            cells_per_sec / 1e6,
            migrated as f64 / 1024.0,
            ms(wall)
        );
        let op = match p {
            1 => "advection_p1",
            2 => "advection_p2",
            _ => "advection_p4",
        };
        let mut rec = JsonRecord::wall(op, "morton", cells as usize, wall);
        rec.extras = vec![
            ("cells_per_sec", format!("{cells_per_sec:.1}")),
            ("migrated_bytes", migrated.to_string()),
            ("mass_drift", format!("{drift:e}")),
        ];
        records.push(rec);
    }
    write_json("BENCH_pde.json", "pde", opts, &records);
}

// ---------------------------------------------------------------------------
// --checkpoint: on-disk checkpoint format smoke (write, corrupt, fall back)
// ---------------------------------------------------------------------------

/// Write two checkpoint generations at P = 4, bit-flip one shard of the
/// newest, and prove the loader rejects it via CRC and falls back to the
/// previous generation — then load the survivor at P = 2 to exercise
/// repartition-on-load. This is the CI gate for the on-disk format.
fn run_checkpoint(dir: &str) {
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::MortonQuad;
    use quadforest_forest::{list_generations, BalanceKind, Forest};
    use quadforest_telemetry as telemetry;
    use std::sync::Arc;

    const P: usize = 4;
    println!("\n## Checkpoint: on-disk format smoke (write → corrupt → fall back)");
    println!("two generations at P = {P}; one shard of the newest is bit-flipped and");
    println!("the loader must reject it (CRC) and restore the previous generation\n");

    let dir = std::path::Path::new(dir).to_path_buf();
    let _ = std::fs::remove_dir_all(&dir);

    // two generations of a growing forest, checksummed at each save
    let written = quadforest_comm::run(P, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 2);
        f.refine(&comm, true, |_, q| {
            let c = q.coords();
            q.level() < 5 && c[0] == 0 && c[1] == 0
        });
        f.balance(&comm, BalanceKind::Face);
        let gen1 = f.save_checkpoint(&comm, &dir).expect("save generation 1");
        let sum1 = f.checksum(&comm);
        f.refine(&comm, true, |_, q| {
            let c = q.coords();
            q.level() < 6 && c[0] == 0
        });
        f.balance(&comm, BalanceKind::Face);
        f.partition(&comm);
        let gen2 = f.save_checkpoint(&comm, &dir).expect("save generation 2");
        (gen1, sum1, gen2, f.checksum(&comm), f.global_count())
    });
    let (gen1, sum1, gen2, sum2, n2) = written[0];
    println!("| step | generation | checksum | leaves |");
    println!("|---|---|---|---|");
    println!("| save (balanced) | {gen1} | {sum1:#018x} | |");
    println!("| save (refined + partitioned) | {gen2} | {sum2:#018x} | {n2} |");
    assert_eq!(list_generations(&dir), vec![gen1, gen2]);

    // intact load must pick the newest generation
    let intact = quadforest_comm::run(P, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let (f, generation) =
            Forest::<MortonQuad<2>>::load_checkpoint(conn, &comm, &dir).expect("intact load");
        (generation, f.checksum(&comm))
    });
    println!(
        "| load (intact) | {} | {:#018x} | |",
        intact[0].0, intact[0].1
    );
    assert_eq!(
        intact[0],
        (gen2, sum2),
        "intact load must restore the newest"
    );

    // flip one bit in the middle of one shard of the newest generation
    let shard = dir
        .join(format!("gen-{gen2:08}"))
        .join(format!("shard-{:05}.qfs", P / 2));
    let mut bytes = std::fs::read(&shard).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&shard, &bytes).expect("rewrite shard");
    println!(
        "| corrupt | {gen2} | bit 4 of byte {mid} in {} | |",
        shard.file_name().unwrap().to_string_lossy()
    );

    // the loader must skip the damaged generation and fall back
    let recovered = quadforest_comm::run(P, |comm| {
        telemetry::begin_rank(comm.rank());
        let conn = Arc::new(Connectivity::unit(2));
        let (f, generation) =
            Forest::<MortonQuad<2>>::load_checkpoint(conn, &comm, &dir).expect("fallback load");
        f.validate().expect("restored forest must be valid");
        let report = telemetry::finish_rank().expect("recorder was installed");
        (generation, f.checksum(&comm), report)
    });
    let fallbacks = recovered[0]
        .2
        .metrics
        .get(
            "forest.checkpoint.fallbacks",
            telemetry::MetricKind::Counter,
        )
        .map(|e| e.scalar())
        .unwrap_or(0);
    println!(
        "| load (fallback) | {} | {:#018x} | {fallbacks} generation(s) skipped |",
        recovered[0].0, recovered[0].1
    );
    assert_eq!(
        (recovered[0].0, recovered[0].1),
        (gen1, sum1),
        "corrupt shard must fall back to the previous generation"
    );
    assert!(fallbacks >= 1, "fallback must be counted");

    // the survivor also restores into a different rank count
    let half = quadforest_comm::run(P / 2, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let (f, generation) =
            Forest::<MortonQuad<2>>::load_checkpoint(conn, &comm, &dir).expect("P=2 load");
        f.validate().expect("repartitioned forest must be valid");
        (generation, f.checksum(&comm))
    });
    println!(
        "| load (P = {}) | {} | {:#018x} | |",
        P / 2,
        half[0].0,
        half[0].1
    );
    assert_eq!(
        half[0],
        (gen1, sum1),
        "repartition-on-load changed the forest"
    );
    println!("\ncheckpoint smoke passed: CRC fallback and repartition-on-load verified");
}

// ---------------------------------------------------------------------------
// --trace: telemetry-instrumented pipeline with Chrome-trace export
// ---------------------------------------------------------------------------

/// Sum all `"dur"` values (µs with 3 decimals) out of a Chrome trace,
/// returned in nanoseconds — the machine-side half of the trace/table
/// agreement check.
fn sum_trace_dur_ns(json: &str) -> u64 {
    let mut total = 0f64;
    let mut rest = json;
    while let Some(i) = rest.find("\"dur\":") {
        rest = &rest[i + 6..];
        let end = rest.find(',').unwrap_or(rest.len());
        total += rest[..end].parse::<f64>().unwrap_or(0.0) * 1000.0;
    }
    total.round() as u64
}

/// Run the full refine→balance→partition→ghost pipeline at P = 4 with the
/// telemetry layer armed on every rank, write the Chrome trace to `path`,
/// and print the per-rank/per-phase summary and the cross-rank metrics
/// aggregate. The printed totals and the exported trace come from the same
/// span records; the run cross-checks them against each other.
fn run_trace(path: &str, opts: &Opts) {
    use quadforest_connectivity::Connectivity;
    use quadforest_core::quadrant::MortonQuad;
    use quadforest_forest::{BalanceKind, Forest};
    use quadforest_telemetry as telemetry;
    use std::sync::Arc;

    const P: usize = 4;
    println!("\n## Telemetry: traced refine→balance→partition→ghost pipeline (P = {P})");
    // Background sampler: periodic snapshots of the global registry
    // become Chrome counter events at their own timestamps, so counter
    // tracks show evolution over the pipeline instead of one flat
    // end-of-run value. The pipeline is short, so sample aggressively.
    let _ = telemetry::take_metric_samples(); // drop samples from earlier modes
    let sampler = telemetry::sample_metrics_every(std::time::Duration::from_micros(200));
    let results = quadforest_comm::run(P, |comm| {
        telemetry::begin_rank(comm.rank());
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 2);
        f.refine(&comm, true, |_, q| {
            let c = q.coords();
            q.level() < 7 && c[0] == 0 && c[1] == 0
        });
        f.balance(&comm, BalanceKind::Face);
        f.partition(&comm);
        let g = f.ghost(&comm, BalanceKind::Face);
        let stats = f.stats(&comm);
        std::hint::black_box((g.len(), stats.global_count));
        let rows = comm.aggregate_metrics();
        let report = telemetry::finish_rank().expect("recorder was installed");
        (report, rows)
    });
    let (reports, rows): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    drop(sampler); // join the sampling thread before draining the store
    telemetry::sample_metrics_now(); // guarantee at least one sample
    let json = telemetry::chrome_trace_with_metrics(&reports, &telemetry::global().snapshot());
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path} (load in Perfetto or chrome://tracing)\n");
    print!("{}", telemetry::summary_table(&reports));
    println!();
    print!("{}", telemetry::metrics_table(&rows[0]));

    let table_ns: u64 = telemetry::summary_totals(&reports)
        .iter()
        .map(|(_, ns)| ns)
        .sum();
    let trace_ns = sum_trace_dur_ns(&json);
    let drift = (table_ns as f64 - trace_ns as f64).abs() / table_ns.max(1) as f64;
    println!(
        "\ntrace/table agreement: table {table_ns} ns vs trace {trace_ns} ns ({:.2}% drift)",
        drift * 100.0
    );
    assert!(
        drift <= 0.05,
        "summary table and exported trace disagree by more than 5%"
    );
    let _ = opts;
}

// ---------------------------------------------------------------------------
// --queries: snapshot query serving, single vs multithreaded (BENCH_query)
// ---------------------------------------------------------------------------

/// Per-representation query-serving benchmark: build an adaptively
/// refined forest, flatten it into a [`quadforest_query::ForestSnapshot`],
/// and measure point-location and box-query throughput (a) directly on
/// the caller thread and (b) through a [`quadforest_query::QueryExecutor`]
/// at 2 and 4 workers, plus a batch-path sweep
/// ([`ForestSnapshot::locate_many`] and the Z-sharded executor) over
/// batch sizes 1 / 64 / 4k / 256k at 1–8 workers. Multithreaded
/// answers are asserted identical to the single-threaded ones before
/// any number is reported. Writes `BENCH_query.json`.
/// Element-wise histogram delta (buckets + count + sum) between two
/// registry snapshots; `None` when the metric never appeared. Snapshot
/// diffing — rather than resetting the registry — keeps cumulative
/// provenance like `kernel_invocations` intact across the run.
fn hist_delta(
    before: &quadforest_telemetry::MetricsSnapshot,
    after: &quadforest_telemetry::MetricsSnapshot,
    name: &str,
) -> Option<Vec<u64>> {
    use quadforest_telemetry::MetricKind;
    let a = after.get(name, MetricKind::Histogram)?;
    Some(match before.get(name, MetricKind::Histogram) {
        Some(b) => a
            .values
            .iter()
            .zip(&b.values)
            .map(|(x, y)| x.saturating_sub(*y))
            .collect(),
        None => a.values.clone(),
    })
}

/// One cell of the batch-path sweep: `(workers, serial fraction,
/// e2e p50, p99, p999)`.
type SweepCell = (usize, f64, u64, u64, u64);

/// `(sum, p50, p90, p99, p999)` of a histogram delta from [`hist_delta`].
fn hist_stats(delta: &[u64]) -> (u64, u64, u64, u64, u64) {
    use quadforest_telemetry::{quantile_from_buckets, HISTOGRAM_BUCKETS};
    let buckets = &delta[..HISTOGRAM_BUCKETS];
    let sum = delta[HISTOGRAM_BUCKETS + 1];
    let q = |p| quantile_from_buckets(buckets, p).unwrap_or(0);
    (sum, q(0.5), q(0.9), q(0.99), q(0.999))
}

/// Flat `p50_ns`/`p90_ns`/`p99_ns`/`p999_ns` JSON fields for one
/// latency histogram's delta (empty when nothing was recorded).
fn quantile_extras(
    before: &quadforest_telemetry::MetricsSnapshot,
    after: &quadforest_telemetry::MetricsSnapshot,
    name: &str,
) -> Vec<(&'static str, String)> {
    match hist_delta(before, after, name) {
        Some(d) => {
            let (_, p50, p90, p99, p999) = hist_stats(&d);
            vec![
                ("p50_ns", p50.to_string()),
                ("p90_ns", p90.to_string()),
                ("p99_ns", p99.to_string()),
                ("p999_ns", p999.to_string()),
            ]
        }
        None => Vec::new(),
    }
}

fn run_queries(opts: &Opts) {
    use quadforest_connectivity::Connectivity;
    use quadforest_forest::Forest;
    use quadforest_query::{ForestSnapshot, QueryExecutor, SnapshotHandle};
    use std::sync::Arc;

    const N_POINTS: usize = 1 << 18;
    const BATCH: usize = 4096;
    const N_BOXES: usize = 512;
    const WORKER_COUNTS: [usize; 2] = [2, 4];
    /// Batch sizes for the sharded batch-path sweep.
    const BATCH_SIZES: [usize; 4] = [1, 64, 4096, 1 << 18];
    /// Worker counts for the sharded batch-path sweep.
    const SWEEP_WORKERS: [usize; 4] = [1, 2, 4, 8];

    fn mix(seed: u64, a: u64, b: u64) -> u64 {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for w in [a, b] {
            h ^= w;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
        }
        h
    }

    /// Forest to serve from: uniform level 6, one adaptive pass to 7 —
    /// a mixed-level leaf set so point location exercises the
    /// level-prefix walk, not just an aligned binary search.
    fn build_snapshot<Q: Quadrant>() -> ForestSnapshot {
        quadforest_comm::run(1, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<Q>::new_uniform(conn, &comm, 6);
            f.refine(&comm, false, |_, q| {
                q.level() < 7 && mix(17, q.morton_abs(), q.level() as u64).is_multiple_of(5)
            });
            ForestSnapshot::build(&f, 1)
        })
        .pop()
        .unwrap()
    }

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("\n## Query serving: snapshot point/box throughput (BENCH_query)");
    println!(
        "{N_POINTS} points in batches of {BATCH}, {N_BOXES} boxes, \
         executor at {WORKER_COUNTS:?} workers ({threads} hardware threads available)"
    );
    if threads < 2 {
        println!(
            "note: only 1 hardware thread — multithreaded numbers measure \
             executor overhead, not scaling"
        );
    }

    let root = StandardQuad::<2>::len_at(0);
    let points: Vec<(u32, [i32; 3])> = (0..N_POINTS as u64)
        .map(|i| {
            (
                0u32,
                [
                    (mix(3, i, 1) % root as u64) as i32,
                    (mix(3, 2, i) % root as u64) as i32,
                    0,
                ],
            )
        })
        .collect();
    let boxes: Vec<([i32; 3], [i32; 3])> = (0..N_BOXES as u64)
        .map(|i| {
            let w = root / 8;
            let cx = (mix(5, i, 7) % (root - w) as u64) as i32;
            let cy = (mix(5, 11, i) % (root - w) as u64) as i32;
            ([cx, cy, 0], [cx + w, cy + w, 0])
        })
        .collect();

    let mut records: Vec<JsonRecord> = Vec::new();
    println!("\n| representation | leaves | op | single Mq/s | 2 workers | 4 workers | speedup |");
    println!("|---|---|---|---|---|---|---|");

    fn bench_one<Q: Quadrant>(
        name: &'static str,
        opts: &Opts,
        points: &[(u32, [i32; 3])],
        boxes: &[([i32; 3], [i32; 3])],
        records: &mut Vec<JsonRecord>,
    ) {
        let build = time_best_of(opts.iters, || {
            std::hint::black_box(build_snapshot::<Q>());
        });
        let snap = build_snapshot::<Q>();
        let leaves = snap.local_count();
        records.push(JsonRecord::wall("snapshot_build", name, leaves, build));

        // single-threaded reference answers + timing on the caller thread
        let expect_points: Vec<_> = points
            .chunks(BATCH)
            .flat_map(|c| snap.locate_batch(c))
            .collect();
        assert!(
            expect_points.iter().all(|h| h.is_some()),
            "in-domain point missed ({name})"
        );
        let single_pts = time_best_of(opts.iters, || {
            for c in points.chunks(BATCH) {
                std::hint::black_box(snap.locate_batch(c));
            }
        });
        let expect_boxes: Vec<Vec<u32>> = boxes
            .iter()
            .map(|&(lo, hi)| snap.query_box(0, lo, hi).iter().map(|h| h.index).collect())
            .collect();
        assert!(expect_boxes.iter().any(|v| !v.is_empty()));
        let single_box = time_best_of(opts.iters, || {
            for &(lo, hi) in boxes {
                std::hint::black_box(snap.query_box(0, lo, hi));
            }
        });

        // the executor path: same snapshot behind a published handle
        let handle = SnapshotHandle::new(build_snapshot::<Q>());
        let mut mt_pts = Vec::new();
        let mut mt_box = Vec::new();
        let reg = quadforest_telemetry::global();
        let head0 = reg.snapshot();
        for &workers in &WORKER_COUNTS {
            let exec = QueryExecutor::new(Arc::clone(&handle), workers);
            let got: Vec<_> = points
                .chunks(BATCH)
                .map(|c| exec.submit_points(c.to_vec()))
                .collect::<Vec<_>>()
                .into_iter()
                .flat_map(|t| t.wait())
                .collect();
            assert_eq!(
                got, expect_points,
                "executor diverged ({name}, {workers} workers)"
            );
            mt_pts.push(time_best_of(opts.iters, || {
                let tickets: Vec<_> = points
                    .chunks(BATCH)
                    .map(|c| exec.submit_points(c.to_vec()))
                    .collect();
                for t in tickets {
                    std::hint::black_box(t.wait());
                }
            }));
            mt_box.push(time_best_of(opts.iters, || {
                let tickets: Vec<_> = boxes
                    .iter()
                    .map(|&(lo, hi)| exec.submit_box(0, lo, hi))
                    .collect();
                for t in tickets {
                    std::hint::black_box(t.wait());
                }
            }));
        }

        let head1 = reg.snapshot();
        let per = |d: Duration, n: usize| d.as_secs_f64() * 1e9 / n as f64;
        let mqs = |d: Duration, n: usize| n as f64 / d.as_secs_f64() / 1e6;
        let best_pts = *mt_pts.iter().min().unwrap();
        let best_box = *mt_box.iter().min().unwrap();
        println!(
            "| {name} | {leaves} | point | {:.2} | {:.2} | {:.2} | {:.2}x |",
            mqs(single_pts, points.len()),
            mqs(mt_pts[0], points.len()),
            mqs(mt_pts[1], points.len()),
            single_pts.as_secs_f64() / best_pts.as_secs_f64(),
        );
        println!(
            "| {name} | {leaves} | box | {:.2} | {:.2} | {:.2} | {:.2}x |",
            mqs(single_box, boxes.len()),
            mqs(mt_box[0], boxes.len()),
            mqs(mt_box[1], boxes.len()),
            single_box.as_secs_f64() / best_box.as_secs_f64(),
        );
        records.push(JsonRecord {
            op: "point_locate",
            representation: name,
            n: points.len(),
            variants: vec![
                ("single", per(single_pts, points.len())),
                ("workers2", per(mt_pts[0], points.len())),
                ("workers4", per(mt_pts[1], points.len())),
            ],
            extras: quantile_extras(&head0, &head1, "query.point.latency_ns"),
            speedup: Some(single_pts.as_secs_f64() / best_pts.as_secs_f64()),
        });
        records.push(JsonRecord {
            op: "box_query",
            representation: name,
            n: boxes.len(),
            variants: vec![
                ("single", per(single_box, boxes.len())),
                ("workers2", per(mt_box[0], boxes.len())),
                ("workers4", per(mt_box[1], boxes.len())),
            ],
            extras: quantile_extras(&head0, &head1, "query.box.latency_ns"),
            speedup: Some(single_box.as_secs_f64() / best_box.as_secs_f64()),
        });

        // per-region level histogram, the third query kernel
        let hist = time_best_of(opts.iters, || {
            for &(lo, hi) in boxes {
                std::hint::black_box(snap.level_histogram_in_box(0, lo, hi));
            }
        });
        records.push(JsonRecord::wall("level_histogram", name, boxes.len(), hist));

        // Batch-path sweep: locate_many (sort → gallop-resume sweep →
        // un-permute) on the caller thread, then the Z-sharded executor
        // at each worker count, across batch sizes. Small batches use a
        // proportionally smaller point total so the per-submit overhead
        // configs stay measurable without dominating the run.
        println!(
            "\n| {name} batch sweep | batch | single ns/elem | w1 | w2 | w4 | w8 | w4 speedup |"
        );
        println!("|---|---|---|---|---|---|---|---|");
        let mut sf_rows: Vec<(usize, Vec<f64>)> = Vec::new();
        for &b in &BATCH_SIZES {
            let total = points.len().min(b.saturating_mul(8192));
            let pts = &points[..total];
            let expect: Vec<_> = pts.chunks(b).flat_map(|c| snap.locate_many(c)).collect();
            assert_eq!(
                expect,
                expect_points[..total],
                "locate_many diverged from per-element path ({name}, batch {b})"
            );
            let single = time_best_of(opts.iters, || {
                for c in pts.chunks(b) {
                    std::hint::black_box(snap.locate_many(c));
                }
            });
            let mut ws = Vec::new();
            // Per-cell stage profile: (workers, serial fraction,
            // e2e p50/p99/p999) from the registry delta around the
            // timed runs. The serial fraction is the submit-side
            // classify time over batch end-to-end time — the Amdahl
            // bound on what adding workers can buy at this batch size.
            let mut cells: Vec<SweepCell> = Vec::new();
            for &workers in &SWEEP_WORKERS {
                let exec = QueryExecutor::new(Arc::clone(&handle), workers);
                let got: Vec<_> = pts
                    .chunks(b)
                    .map(|c| exec.submit_points(c.to_vec()))
                    .collect::<Vec<_>>()
                    .into_iter()
                    .flat_map(|t| t.wait())
                    .collect();
                assert_eq!(
                    got, expect,
                    "sharded executor diverged ({name}, batch {b}, {workers} workers)"
                );
                let s0 = reg.snapshot();
                ws.push(time_best_of(opts.iters, || {
                    let tickets: Vec<_> = pts
                        .chunks(b)
                        .map(|c| exec.submit_points(c.to_vec()))
                        .collect();
                    for t in tickets {
                        std::hint::black_box(t.wait());
                    }
                }));
                let s1 = reg.snapshot();
                let classify = hist_delta(&s0, &s1, "query.stage.classify_ns")
                    .map(|d| hist_stats(&d).0)
                    .unwrap_or(0);
                let (e2e_sum, p50, _p90, p99, p999) = hist_delta(&s0, &s1, "query.batch.e2e_ns")
                    .map(|d| hist_stats(&d))
                    .unwrap_or_default();
                let sf = if e2e_sum > 0 {
                    classify as f64 / e2e_sum as f64
                } else {
                    0.0
                };
                cells.push((workers, sf, p50, p99, p999));
            }
            let w4 = single.as_secs_f64() / ws[2].as_secs_f64();
            println!(
                "| {name} | {b} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {w4:.2}x |",
                per(single, total),
                per(ws[0], total),
                per(ws[1], total),
                per(ws[2], total),
                per(ws[3], total),
            );
            let obj = |f: &dyn Fn(&SweepCell) -> String| {
                format!(
                    "{{{}}}",
                    cells
                        .iter()
                        .map(|c| format!("\"workers{}\": {}", c.0, f(c)))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            sf_rows.push((b, cells.iter().map(|c| c.1).collect()));
            records.push(JsonRecord {
                op: "point_locate_batch",
                representation: name,
                n: b,
                variants: vec![
                    ("single", per(single, total)),
                    ("workers1", per(ws[0], total)),
                    ("workers2", per(ws[1], total)),
                    ("workers4", per(ws[2], total)),
                    ("workers8", per(ws[3], total)),
                ],
                extras: vec![
                    ("serial_fraction", obj(&|c| format!("{:.4}", c.1))),
                    ("e2e_p50_ns", obj(&|c| c.2.to_string())),
                    ("e2e_p99_ns", obj(&|c| c.3.to_string())),
                    ("e2e_p999_ns", obj(&|c| c.4.to_string())),
                ],
                speedup: Some(w4),
            });
        }

        // The measured Amdahl table for ROADMAP open item 1: the share
        // of batch end-to-end time spent in the serial submit-side
        // classify stage, per batch size × worker count. 1/sf bounds
        // the achievable speedup at that batch size.
        println!("\n| {name} serial fraction | w1 | w2 | w4 | w8 |");
        println!("|---|---|---|---|---|");
        for (b, sfs) in &sf_rows {
            let cols = sfs
                .iter()
                .map(|sf| format!("{:.1}%", sf * 100.0))
                .collect::<Vec<_>>()
                .join(" | ");
            println!("| batch {b} | {cols} |");
        }
    }

    bench_one::<StandardQuad<2>>("standard", opts, &points, &boxes, &mut records);
    bench_one::<MortonQuad<2>>("morton", opts, &points, &boxes, &mut records);
    bench_one::<AvxQuad<2>>("avx", opts, &points, &boxes, &mut records);

    write_json("BENCH_query.json", "query", opts, &records);
}

// ---------------------------------------------------------------------------
// --json: machine-readable perf baseline (BENCH_batch / BENCH_highlevel)
// ---------------------------------------------------------------------------

/// One scalar-vs-dispatched measurement rendered as a JSON object.
struct JsonRecord {
    op: &'static str,
    representation: &'static str,
    n: usize,
    /// (variant name, ns per element) pairs.
    variants: Vec<(&'static str, f64)>,
    /// Extra JSON fields `"key": value` (value is pre-rendered JSON),
    /// emitted between `ns_per_elem` and `speedup` — `speedup` must
    /// stay the last field on the line, [`run_summary`] splits on it.
    extras: Vec<(&'static str, String)>,
    /// first variant time / last variant time; `None` for wall-only rows.
    speedup: Option<f64>,
}

impl JsonRecord {
    fn two(
        op: &'static str,
        representation: &'static str,
        n: usize,
        names: [&'static str; 2],
        scalar: Duration,
        simd: Duration,
    ) -> JsonRecord {
        let per = |d: Duration| d.as_secs_f64() * 1e9 / n as f64;
        JsonRecord {
            op,
            representation,
            n,
            variants: vec![(names[0], per(scalar)), (names[1], per(simd))],
            extras: Vec::new(),
            speedup: Some(scalar.as_secs_f64() / simd.as_secs_f64()),
        }
    }

    /// Three-way record: per-quadrant AoS baseline, scalar SoA tier,
    /// runtime-dispatched SIMD tier. The headline speedup is the batched
    /// SIMD kernel against the per-quadrant path it replaced; the scalar
    /// SoA time is also recorded so the file still separates the layout
    /// win from the vectorization win.
    fn three(
        op: &'static str,
        representation: &'static str,
        n: usize,
        per_quadrant: Duration,
        scalar: Duration,
        simd: Duration,
    ) -> JsonRecord {
        let per = |d: Duration| d.as_secs_f64() * 1e9 / n as f64;
        JsonRecord {
            op,
            representation,
            n,
            variants: vec![
                ("per_quadrant", per(per_quadrant)),
                ("scalar", per(scalar)),
                ("simd", per(simd)),
            ],
            extras: Vec::new(),
            speedup: Some(per_quadrant.as_secs_f64() / simd.as_secs_f64()),
        }
    }

    fn wall(op: &'static str, representation: &'static str, n: usize, d: Duration) -> JsonRecord {
        JsonRecord {
            op,
            representation,
            n,
            variants: vec![("wall", d.as_secs_f64() * 1e9 / n as f64)],
            extras: Vec::new(),
            speedup: None,
        }
    }

    fn to_json(&self) -> String {
        let vars = self
            .variants
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v:.4}"))
            .collect::<Vec<_>>()
            .join(", ");
        let speedup = match self.speedup {
            Some(s) => format!("{s:.4}"),
            None => "null".to_string(),
        };
        let extras = self
            .extras
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}, "))
            .collect::<String>();
        format!(
            "    {{\"op\": \"{}\", \"representation\": \"{}\", \"n\": {}, \"ns_per_elem\": {{{vars}}}, {extras}\"speedup\": {speedup}}}",
            self.op, self.representation, self.n
        )
    }
}

fn write_json(path: &str, bench: &'static str, opts: &Opts, records: &[JsonRecord]) {
    let backend = opts.backend.name();
    let body = records
        .iter()
        .map(JsonRecord::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    // dispatched invocation counts per kernel tier: proves which tier
    // actually ran the measurements above (detection alone cannot)
    let invocations = quadforest_core::simd::kernel_invocations()
        .iter()
        .map(|(tier, count)| format!("\"{tier}\": {count}"))
        .collect::<Vec<_>>()
        .join(", ");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    // chaos provenance: which deterministic fault seeds (if any) this
    // invocation swept, so a BENCH file can be reproduced exactly.
    let chaos_seeds = if opts.chaos {
        format!(
            "[{}]",
            CHAOS_SEEDS
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        )
    } else {
        "null".to_string()
    };
    let json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"backend\": \"{backend}\",\n  \"chaos_seeds\": {chaos_seeds},\n  \"features\": \"{}\",\n  \"threads\": {threads},\n  \"kernel_invocations\": {{{invocations}}},\n  \"results\": [\n{body}\n  ]\n}}\n",
        quadforest_core::simd::active_features()
    );
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

/// The pre-keyed `linearize`: comparator sort + per-quadrant reverse
/// ancestor sweep — the baseline the keyed path is gated against.
fn linearize_comparator<Q: Quadrant>(mut quads: Vec<Q>) -> Vec<Q> {
    quads.sort_by(|a, b| a.compare_sfc(b));
    quads.dedup();
    let mut kept: Vec<Q> = Vec::with_capacity(quads.len());
    for q in quads.into_iter().rev() {
        if let Some(last) = kept.last() {
            if q.is_ancestor_of(last) || q == *last {
                continue;
            }
        }
        kept.push(q);
    }
    kept.reverse();
    kept
}

fn time_best_of(iters: usize, mut f: impl FnMut()) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..iters.max(3) {
        let t = std::time::Instant::now();
        f();
        best = best.min(t.elapsed());
    }
    best
}

fn run_json_batch(opts: &Opts) {
    const L: u8 = StandardQuad::<3>::MAX_LEVEL;
    // L1-resident block (complete tree to level 3, 584 quadrants,
    // ~19 KiB of SoA lanes in+out): measures kernel throughput rather
    // than memory-system bandwidth, which is what per-op ns/elem is
    // meant to compare. Each timed sample repeats the kernel so a
    // sample is hundreds of microseconds.
    const REPS: usize = 1024;
    let quads = nonroot(workload::complete_tree::<StandardQuad<3>>(3));
    let soa = QuadSoA::from_quads(&quads);
    let mut out = QuadSoA::with_len(soa.len());
    let n = soa.len();
    let names = ["scalar", "simd"];
    let mut records = Vec::new();
    macro_rules! pair {
        ($op:literal, $scalar:expr, $simd:expr) => {{
            let s = {
                let mut f = $scalar;
                time_best_of(opts.iters, || {
                    for _ in 0..REPS {
                        f();
                    }
                })
            };
            let v = {
                let mut f = $simd;
                time_best_of(opts.iters, || {
                    for _ in 0..REPS {
                        f();
                    }
                })
            };
            records.push(JsonRecord::two($op, "soa", n * REPS, names, s, v));
        }};
    }
    let mut aos_out: Vec<StandardQuad<3>> = quads.clone();
    macro_rules! trio {
        ($op:literal, $aos:expr, $scalar:expr, $simd:expr) => {{
            let a = {
                let mut f = $aos;
                time_best_of(opts.iters, || {
                    for _ in 0..REPS {
                        f();
                    }
                })
            };
            let s = {
                let mut f = $scalar;
                time_best_of(opts.iters, || {
                    for _ in 0..REPS {
                        f();
                    }
                })
            };
            let v = {
                let mut f = $simd;
                time_best_of(opts.iters, || {
                    for _ in 0..REPS {
                        f();
                    }
                })
            };
            records.push(JsonRecord::three($op, "soa", n * REPS, a, s, v));
        }};
    }
    trio!(
        "child_all",
        || {
            for (o, q) in aos_out.iter_mut().zip(&quads) {
                *o = q.child(5);
            }
            std::hint::black_box(&aos_out);
        },
        || scalar_ref::child_all(&soa, 5, L, &mut out),
        || batch::child_all(&soa, 5, L, &mut out)
    );
    trio!(
        "parent_all",
        || {
            for (o, q) in aos_out.iter_mut().zip(&quads) {
                *o = q.parent();
            }
            std::hint::black_box(&aos_out);
        },
        || scalar_ref::parent_all(&soa, L, &mut out),
        || batch::parent_all(&soa, L, &mut out)
    );
    trio!(
        "sibling_all",
        || {
            for (o, q) in aos_out.iter_mut().zip(&quads) {
                *o = q.sibling(3);
            }
            std::hint::black_box(&aos_out);
        },
        || scalar_ref::sibling_all(&soa, 3, L, &mut out),
        || batch::sibling_all(&soa, 3, L, &mut out)
    );
    trio!(
        "face_neighbor_all",
        || {
            for (o, q) in aos_out.iter_mut().zip(&quads) {
                *o = q.face_neighbor(2);
            }
            std::hint::black_box(&aos_out);
        },
        || scalar_ref::face_neighbor_all(&soa, 2, L, &mut out),
        || batch::face_neighbor_all(&soa, 2, L, &mut out)
    );
    pair!(
        "offset_neighbor_all",
        || scalar_ref::offset_neighbor_all(&soa, [1, -1, 1], L, &mut out),
        || batch::offset_neighbor_all(&soa, [1, -1, 1], L, &mut out)
    );
    {
        let (mut fx, mut fy, mut fz) = (vec![0; n], vec![0; n], vec![0; n]);
        trio!(
            "tree_boundaries_all",
            || {
                for (i, q) in quads.iter().enumerate() {
                    let b = q.tree_boundaries();
                    fx[i] = b[0];
                    fy[i] = b[1];
                    fz[i] = b[2];
                }
                std::hint::black_box((&fx, &fy, &fz));
            },
            || scalar_ref::tree_boundaries_all(&soa, 3, L, [&mut fx, &mut fy, &mut fz]),
            || batch::tree_boundaries_all(&soa, 3, L, [&mut fx, &mut fy, &mut fz])
        );
    }
    {
        let mut keys = vec![0u64; n];
        trio!(
            "sfc_keys_all",
            || {
                for (k, q) in keys.iter_mut().zip(&quads) {
                    *k = q.sfc_key();
                }
                std::hint::black_box(&keys);
            },
            || scalar_ref::sfc_keys_all(&soa, 3, &mut keys),
            || batch::sfc_keys_all(&soa, 3, &mut keys)
        );
    }
    write_json("BENCH_batch.json", "batch", opts, &records);
}

fn run_json_highlevel(opts: &Opts) {
    use quadforest_connectivity::Connectivity;
    use quadforest_forest::{
        directions::{
            for_each_neighbor_domain, for_each_neighbor_domain_scalar, offsets, Adjacency,
            NeighborScratch,
        },
        BalanceKind, Forest,
    };
    use std::sync::Arc;

    let mut records = Vec::new();

    // linearize on 1M random (shuffled) octants: comparator-sort
    // baseline vs keyed sort_unstable_by_key
    const N_LIN: usize = 1_000_000;
    {
        let mut base: Vec<StandardQuad<3>> = workload::complete_tree_shuffled(6, 0x5EED);
        base.truncate(N_LIN);
        let a = time_best_of(opts.iters, || {
            std::hint::black_box(linearize_comparator(base.clone()));
        });
        let b = time_best_of(opts.iters, || {
            std::hint::black_box(quadforest_core::linear::linearize(base.clone()));
        });
        records.push(JsonRecord::two(
            "linearize",
            "standard",
            N_LIN,
            ["comparator", "keyed"],
            a,
            b,
        ));
    }
    {
        let mut base: Vec<MortonQuad<3>> = workload::complete_tree_shuffled(6, 0x5EED);
        base.truncate(N_LIN);
        let a = time_best_of(opts.iters, || {
            std::hint::black_box(linearize_comparator(base.clone()));
        });
        let b = time_best_of(opts.iters, || {
            std::hint::black_box(quadforest_core::linear::linearize(base.clone()));
        });
        records.push(JsonRecord::two(
            "linearize",
            "morton",
            N_LIN,
            ["comparator", "keyed"],
            a,
            b,
        ));
    }

    // neighbor-domain enumeration (the balance/ghost hot loop):
    // per-quadrant oracle vs batched SoA sweep
    {
        let conn = Connectivity::unit(3);
        let leaves = workload::uniform_level::<StandardQuad<3>>(5);
        let offs = offsets(3, Adjacency::Full);
        let mut count = 0usize;
        let a = time_best_of(opts.iters, || {
            count = 0;
            for_each_neighbor_domain_scalar(&conn, 0, &leaves, &offs, 0, |_, _, _| count += 1);
            std::hint::black_box(count);
        });
        let mut scratch = NeighborScratch::new();
        let mut count_b = 0usize;
        let b = time_best_of(opts.iters, || {
            count_b = 0;
            for_each_neighbor_domain(&conn, 0, &leaves, &offs, 0, &mut scratch, |_, _, _| {
                count_b += 1
            });
            std::hint::black_box(count_b);
        });
        assert_eq!(count, count_b, "batched enumeration lost domains");
        records.push(JsonRecord::two(
            "neighbor_enum",
            "standard",
            leaves.len(),
            ["per_quadrant", "batched"],
            a,
            b,
        ));
    }

    // end-to-end pipeline wall times at P = 2 (batched production path)
    {
        let t = std::time::Instant::now();
        let counts = quadforest_comm::run(2, |comm| {
            let conn = Arc::new(Connectivity::unit(2));
            let mut f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 2);
            f.refine(&comm, true, |_, q| {
                let c = q.coords();
                q.level() < 7 && c[0] == 0 && c[1] == 0
            });
            f.balance(&comm, BalanceKind::Face);
            f.partition(&comm);
            let g = f.ghost(&comm, BalanceKind::Face);
            (f.global_count(), g.len())
        });
        let wall = t.elapsed();
        let n = counts[0].0 as usize;
        records.push(JsonRecord::wall(
            "refine_balance_ghost_p2",
            "morton",
            n,
            wall,
        ));
    }

    write_json("BENCH_highlevel.json", "highlevel", opts, &records);
}

fn main() {
    // If the supervisor of a socket-backend world spawned us as a rank
    // process, run the requested program and exit — before touching
    // argv or printing anything.
    quadforest_comm::maybe_run_socket_child(&quadforest_bench::transport::registry());
    let opts = parse_args();
    if !opts.summary.is_empty() {
        run_summary(&opts.summary, opts.percentiles);
        return;
    }
    println!("# quadforest repro — paper evaluation on this machine");
    println!(
        "workload: {} 3D octants (levels 0..={}), ranks simulated {:?}, best of {} iters",
        workload::complete_tree_count(3, WORKLOAD_MAX_LEVEL),
        WORKLOAD_MAX_LEVEL,
        opts.ranks,
        opts.iters
    );
    println!(
        "kernel tier: {} (runtime-dispatched)",
        quadforest_core::simd::active_features()
    );
    for fig in &opts.figures {
        run_figure(*fig, &opts);
    }
    if opts.mem {
        run_memory(opts.mem_level);
    }
    if opts.autovec {
        run_autovec(&opts);
    }
    if opts.dim2 {
        run_dim2(&opts);
    }
    if opts.chaos {
        run_chaos(&opts);
    }
    if let Some(dir) = opts.checkpoint.clone() {
        run_checkpoint(&dir);
    }
    if let Some(path) = opts.trace.clone() {
        run_trace(&path, &opts);
    }
    if opts.json {
        println!("\n## Machine-readable perf baseline");
        run_json_batch(&opts);
        run_json_highlevel(&opts);
    }
    if opts.queries {
        run_queries(&opts);
    }
    if opts.pde {
        run_pde(&opts);
    }
    if let Some(path) = opts.prom.clone() {
        run_prom(&path);
    }
}

// ---------------------------------------------------------------------------
// --prom: metrics endpoint smoke (serve, self-scrape over TCP, dump)
// ---------------------------------------------------------------------------

/// Run a small executor workload so the global registry carries live
/// counters, gauges, and latency histograms, start the opt-in
/// [`quadforest_telemetry::serve_metrics`] endpoint on an ephemeral
/// port, scrape it over a real TCP connection exactly as Prometheus
/// would, and write the exposition body to `path` so CI can validate
/// the text-format syntax externally. The slow-query threshold is
/// dropped to 1 ns for the workload, so the scrape also carries a
/// non-zero `query_slow_count` and the stderr log fires.
fn run_prom(path: &str) {
    use quadforest_connectivity::Connectivity;
    use quadforest_forest::Forest;
    use quadforest_query::{ForestSnapshot, QueryExecutor, SnapshotHandle};
    use std::io::{Read as _, Write as _};
    use std::sync::Arc;

    println!("\n## Metrics endpoint: serve + self-scrape ({path})");
    let snap = quadforest_comm::run(1, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let mut f = Forest::<StandardQuad<2>>::new_uniform(conn, &comm, 5);
        f.refine(&comm, false, |_, q| {
            q.level() < 6 && q.morton_abs().is_multiple_of(3)
        });
        ForestSnapshot::build(&f, 1)
    })
    .pop()
    .unwrap();
    let root = StandardQuad::<2>::len_at(0);
    let points: Vec<(u32, [i32; 3])> = (0..4096u64)
        .map(|i| {
            let x = (i.wrapping_mul(48271) % root as u64) as i32;
            let y = (i.wrapping_mul(16807) % root as u64) as i32;
            (0u32, [x, y, 0])
        })
        .collect();
    quadforest_telemetry::set_slow_query_threshold_ns(1);
    let handle = SnapshotHandle::new(snap);
    let exec = QueryExecutor::new(Arc::clone(&handle), 2);
    for c in points.chunks(512) {
        std::hint::black_box(exec.submit_points(c.to_vec()).wait());
    }
    std::hint::black_box(
        exec.submit_box(0, [0, 0, 0], [root / 4, root / 4, 0])
            .wait(),
    );
    drop(exec);
    quadforest_telemetry::set_slow_query_threshold_ns(u64::MAX);

    let server = quadforest_telemetry::serve_metrics("127.0.0.1:0").expect("bind metrics endpoint");
    let addr = server.local_addr();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to metrics endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
        .expect("send scrape request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read scrape response");
    drop(server);
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("malformed HTTP response");
    assert!(
        head.starts_with("HTTP/1.0 200 OK"),
        "scrape did not return 200: {head}"
    );
    std::fs::write(path, body).expect("write exposition body");
    let series = body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .count();
    println!(
        "scraped {} bytes, {series} series from http://{addr}/metrics",
        body.len()
    );
}

// ---------------------------------------------------------------------------
// --summary: compare BENCH_*.json files (provenance-checked)
// ---------------------------------------------------------------------------

/// Pull the string value of a top-level `"key": "value"` pair out of a
/// BENCH json file (the files are written by [`write_json`], so the
/// format is fixed — no JSON parser needed).
fn json_str_field(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = text.find(&pat)? + pat.len();
    let end = text[start..].find('\"')? + start;
    Some(text[start..end].to_string())
}

/// Pull a flat numeric `"key": value` field out of one result line.
fn json_num_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    let v = rest[..end].trim();
    (!v.is_empty()).then(|| v.to_string())
}

/// Side-by-side speedup table for two or more BENCH_*.json files.
/// Refuses to compare files measured on different transport backends:
/// socket-backend runs carry per-frame serialization and real IPC in
/// every number, so a threads-vs-sockets delta is a backend artifact,
/// not a regression. With `--percentiles`, rows carrying quantile
/// fields (BENCH_query headline records) get p50/p99/p999 columns.
fn run_summary(files: &[String], percentiles: bool) {
    struct Loaded {
        path: String,
        backend: String,
        bench: String,
        /// (op, representation) → column cells (speedup, then
        /// p50/p99/p999 when `--percentiles`).
        rows: Vec<((String, String), Vec<String>)>,
    }
    let loaded: Vec<Loaded> = files
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            let backend = json_str_field(&text, "backend").unwrap_or_else(|| {
                eprintln!(
                    "{path}: no \"backend\" provenance field — regenerate it with this \
                     repro before comparing"
                );
                std::process::exit(2);
            });
            let bench = json_str_field(&text, "bench").unwrap_or_default();
            let rows = text
                .lines()
                .filter(|l| l.trim_start().starts_with("{\"op\":"))
                .filter_map(|l| {
                    let op = json_str_field(l, "op")?;
                    let repr = json_str_field(l, "representation")?;
                    let speedup = l
                        .rsplit("\"speedup\": ")
                        .next()
                        .map(|t| t.trim_end_matches(['}', ',', ' ']).to_string())?;
                    let mut cells = vec![speedup];
                    if percentiles {
                        for key in ["p50_ns", "p99_ns", "p999_ns"] {
                            cells.push(json_num_field(l, key).unwrap_or_else(|| "—".to_string()));
                        }
                    }
                    Some(((op, repr), cells))
                })
                .collect();
            Loaded {
                path: path.clone(),
                backend,
                bench,
                rows,
            }
        })
        .collect();

    let backends: std::collections::BTreeSet<&str> =
        loaded.iter().map(|l| l.backend.as_str()).collect();
    if backends.len() > 1 {
        eprintln!("refusing mixed-backend comparison:");
        for l in &loaded {
            eprintln!("  {} was measured on the '{}' backend", l.path, l.backend);
        }
        eprintln!("re-run repro with a single --backend and compare like with like");
        std::process::exit(2);
    }

    println!(
        "# summary — backend: {}",
        backends.iter().next().copied().unwrap_or("?")
    );
    let cols_per_file = if percentiles { 4 } else { 1 };
    let header: Vec<String> = loaded
        .iter()
        .map(|l| {
            let base = format!("{} ({})", l.path, l.bench);
            if percentiles {
                format!("{base} | p50 ns | p99 ns | p999 ns")
            } else {
                base
            }
        })
        .collect();
    println!("| op | representation | {} |", header.join(" | "));
    println!("|---|---|{}", "---|".repeat(loaded.len() * cols_per_file));
    let keys: Vec<(String, String)> = loaded
        .first()
        .map(|l| l.rows.iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    for key in keys {
        let cells: Vec<String> = loaded
            .iter()
            .flat_map(|l| {
                l.rows
                    .iter()
                    .find(|(k, _)| *k == key)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_else(|| vec!["—".to_string(); cols_per_file])
            })
            .collect();
        println!("| {} | {} | {} |", key.0, key.1, cells.join(" | "));
    }
}
