//! The quadforest benchmark: four workloads that drive the stack from
//! outside, through the public functions of `core`, `forest`, `comm`,
//! `pde` and `query`, and a traced mode that breaks each workload's wall
//! time down by layer.
//!
//! * `amr3d` — moving-shell adapt cycles on a 3D forest (balance-bound).
//! * `advect2d` — the patch advection solver on the sockets transport.
//! * `serve` — closed-loop batched point location beside a writer.
//! * `paper_kernels` — the paper's six kernels over three encodings.
//!
//! Every workload returns a [`Measured`]; [`metrics`] turns it into the
//! end-to-end and per-layer metrics named in `BENCHMARK.json`.

pub mod advect2d;
pub mod alloc;
pub mod amr3d;
pub mod kernels;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Names accepted by `--workload`, in the order the doc lists them.
pub const WORKLOADS: [&str; 4] = ["amr3d", "advect2d", "serve", "paper_kernels"];

/// Rank count of the distributed workloads (the machine's `nproc`).
pub const RANKS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// How one run is driven.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Length of the measured loop, in seconds (traced runs split it in
    /// an untraced and a traced half).
    pub seconds: f64,
    /// Install telemetry recorders and report per-layer metrics.
    pub trace: bool,
    /// Shrink every input to a size that runs in well under a second
    /// (the benchmark's own tests).
    pub tiny: bool,
    /// Test hook: offset every oracle value so each output check fails.
    pub perturb_oracle: bool,
    /// Executable the sockets backend spawns once per rank.
    pub worker: PathBuf,
    /// Directory for traces and checkpoint scratch files.
    pub out_dir: PathBuf,
}

impl Config {
    /// A config with the default output directory and this executable
    /// as the socket worker.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            seed,
            seconds,
            trace,
            tiny: false,
            perturb_oracle: false,
            worker: std::env::current_exe().expect("path of the running benchmark"),
            out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
        }
    }

    /// The measured phases of a run: `(seconds, traced)` pairs. Traced
    /// runs measure an untraced half first so the tracing overhead is a
    /// ratio of two medians from one process.
    pub fn phases(&self) -> Vec<(f64, bool)> {
        if self.trace {
            vec![(self.seconds / 2.0, false), (self.seconds / 2.0, true)]
        } else {
            vec![(self.seconds, false)]
        }
    }
}

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Transport backend of the ranks (`threads`, `sockets`, `none`).
    pub backend: &'static str,
    /// Operations attempted (cycles, steps, batches, sweeps, setups).
    pub attempted: u64,
    /// Operations that returned an error, panicked or failed a check.
    pub failed: u64,
    /// Set-up samples, seconds.
    pub setup_s: Vec<f64>,
    /// Peak live heap over the run, bytes (all processes).
    pub peak_heap_bytes: u64,
    /// Wall time of each untraced operation, seconds.
    pub op_s: Vec<f64>,
    /// Wall time of each traced operation, seconds.
    pub traced_op_s: Vec<f64>,
    /// Work units per second of each complete period of the untraced
    /// loop (the span that holds every kind of op the workload does
    /// once), output checks excluded.
    pub rates: Vec<f64>,
    /// Per-layer metrics this workload measured, by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable report lines (self-time table, provenance).
    pub lines: Vec<String>,
}

impl Measured {
    /// A run that could not measure anything: one failed attempt.
    pub fn failure(backend: &'static str, why: String) -> Self {
        Measured {
            backend,
            attempted: 1,
            failed: 1,
            lines: vec![format!("FAILED: {why}")],
            ..Measured::default()
        }
    }
}

/// Run workload `name`; `None` for an unknown name.
pub fn run(name: &str, cfg: &Config) -> Option<Measured> {
    let m = match name {
        "amr3d" => amr3d::run(cfg),
        "advect2d" => advect2d::run(cfg),
        "serve" => serve::run(cfg),
        "paper_kernels" => kernels::run(cfg),
        _ => return None,
    };
    Some(m)
}

/// Run an output check inside a span named `span` (a `<workload>.check`
/// span, listed apart in the self-time table) and add its wall time to
/// `spent`, which the caller subtracts from the measured loop.
pub fn check(span: &'static str, spent: &mut f64, f: impl FnOnce() -> bool) -> bool {
    let t = std::time::Instant::now();
    let ok = {
        let _s = quadforest_telemetry::span(span);
        f()
    };
    *spent += t.elapsed().as_secs_f64();
    ok
}

/// Rank programs runnable on the sockets backend. The supervisor and
/// every spawned rank process build this same registry.
pub fn registry() -> quadforest_comm::ProgramRegistry {
    advect2d::register(quadforest_comm::ProgramRegistry::new())
}

/// splitmix64: the benchmark's seeded input generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}
