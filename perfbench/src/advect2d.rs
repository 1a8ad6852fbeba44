//! `advect2d`: the patch-based advection solver on P = 2 rank processes
//! joined by the sockets transport.
//!
//! A Gaussian blob with a seeded centre moves with a seeded velocity
//! (fixed `|vx| + |vy|`, so the CFL step and the work per step do not
//! depend on the seed). Every 10 steps the mesh adapts and repartitions
//! with the patches riding along; every 50 steps the solver writes a
//! mesh+patch checkpoint. The rank program is a registered `fn`, so the
//! spawned rank processes (this same executable) can look it up.

use crate::stats::{median, ratio};
use crate::trace::{self, RankTrace};
use crate::{Config, Measured, Rng, RANKS, SETUPS};
use quadforest_comm::{
    try_run_program, Attempt, Backend, Comm, CommError, ProgramCtx, RunOptions, SocketOptions,
};
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::MortonQuad;
use quadforest_core::wire::{WireError, WireReader};
use quadforest_core::Wire;
use quadforest_pde::{AdaptThresholds, AdvectionSim, PATCH_CELLS};
use quadforest_telemetry as telemetry;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Registered name of the rank program.
pub const PROGRAM: &str = "perfbench-advect2d";

/// Steps between adapt + migrate.
const ADAPT_EVERY: u64 = 10;
/// Steps between checkpoints.
const CHECKPOINT_EVERY: u64 = 50;
/// Rank worlds spawned per run; `setup_s` is their median and the last
/// one runs the measured loop. A world is ready in ~10 ms, of which the
/// supervisor's 2 ms accept poll and the 5 ms connect retry make up a
/// large, quantized share, so this set-up takes more samples than the
/// others to give a steady median.
const WORLDS: usize = 3 * SETUPS;
/// Largest relative mass drift a conservative step may show.
const MASS_TOLERANCE: f64 = 1e-12;

/// Arguments shipped to every rank process.
#[derive(Clone, Debug)]
struct Args {
    seed: u64,
    tiny: bool,
    perturb_oracle: bool,
    /// `(seconds, traced)` phases; empty for a set-up-only world.
    phases: Vec<(f64, bool)>,
    checkpoint_dir: String,
}

impl Wire for Args {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.seed, self.tiny, self.perturb_oracle).encode(out);
        self.phases.encode(out);
        self.checkpoint_dir.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (seed, tiny, perturb_oracle) = <(u64, bool, bool)>::decode(r)?;
        Ok(Args {
            seed,
            tiny,
            perturb_oracle,
            phases: Wire::decode(r)?,
            checkpoint_dir: Wire::decode(r)?,
        })
    }
}

/// What one rank process brings home.
#[derive(Clone, Debug, Default)]
struct RankOut {
    /// Wall clock (Unix ns) when the simulation was ready on every rank.
    ready_unix_ns: u64,
    /// Wall time of each untraced / traced step (cfl + step), seconds.
    step_s: Vec<f64>,
    traced_step_s: Vec<f64>,
    /// Cell updates of the untraced loop, and per second of each of its
    /// checkpoint periods, checks excluded.
    cells: u64,
    rates: Vec<f64>,
    /// Cell updates per traced step (mean).
    traced_cells: f64,
    ops: u64,
    failed: u64,
    peak_heap: u64,
    invocations: [u64; 3],
    trace: Option<RankTrace>,
}

impl Wire for RankOut {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.ready_unix_ns, self.cells, self.traced_cells).encode(out);
        self.rates.encode(out);
        self.step_s.encode(out);
        self.traced_step_s.encode(out);
        (self.ops, self.failed, self.peak_heap, self.invocations).encode(out);
        self.trace.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let (ready_unix_ns, cells, traced_cells) = Wire::decode(r)?;
        let rates = Wire::decode(r)?;
        let step_s = Wire::decode(r)?;
        let traced_step_s = Wire::decode(r)?;
        let (ops, failed, peak_heap, invocations) = Wire::decode(r)?;
        Ok(RankOut {
            ready_unix_ns,
            step_s,
            traced_step_s,
            cells,
            rates,
            traced_cells,
            ops,
            failed,
            peak_heap,
            invocations,
            trace: Wire::decode(r)?,
        })
    }
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// The seeded blob centre and velocity.
fn inputs(seed: u64) -> ([f64; 2], [f64; 2]) {
    let mut rng = Rng::new(seed, 2);
    let centre = [0.3 + 0.4 * rng.unit(), 0.3 + 0.4 * rng.unit()];
    let a = std::f64::consts::TAU * rng.unit();
    let (s, c) = a.sin_cos();
    let scale = 1.5 / (s.abs() + c.abs());
    (centre, [scale * c, scale * s])
}

/// The rank program: build the simulation, then run the measured
/// phases. Collective; rank 0 decides when a phase ends.
fn program(comm: &Comm, ctx: &ProgramCtx) -> Result<Vec<u8>, CommError> {
    let args = Args::from_wire(&ctx.args).map_err(|e| CommError::Frame {
        detail: format!("{PROGRAM} args: {e}"),
    })?;
    let (base, max) = if args.tiny { (3, 4) } else { (5, 7) };
    let (centre, velocity) = inputs(args.seed);
    let mut sim = AdvectionSim::<MortonQuad<2>>::new(
        Arc::new(Connectivity::periodic(2)),
        comm,
        base,
        max,
        velocity,
        move |x, y| {
            let d2 = (x - centre[0]).powi(2) + (y - centre[1]).powi(2);
            (-d2 / 0.01).exp()
        },
    );
    comm.barrier();
    let mut out = RankOut {
        ready_unix_ns: unix_ns(),
        ..RankOut::default()
    };
    let mass0 = sim.total_mass(comm) * if args.perturb_oracle { 1.0 + 1e-9 } else { 1.0 };
    let dir = Path::new(&args.checkpoint_dir);

    for &(seconds, traced) in &args.phases {
        let inv0 = trace::invocations();
        let started = traced.then(|| trace::begin(comm.rank()));
        let phase_start = Instant::now();
        let (mut checks_s, mut cells, mut steps, mut chunks) = (0.0, 0u64, 0u64, 0u64);
        // the current checkpoint period: start, cells and checks before it
        let (mut period_start, mut period_cells, mut period_checks) = (phase_start, 0, 0.0);
        loop {
            let mut ops = 0;
            let mut ok = true;
            {
                let _op = telemetry::span("advect2d.chunk");
                for _ in 0..ADAPT_EVERY {
                    let t = Instant::now();
                    let dt = {
                        let _s = telemetry::span("pde.cfl_s");
                        sim.cfl_dt(comm, 0.45)
                    };
                    {
                        let _s = telemetry::span("pde.step_s");
                        sim.step(comm, dt);
                    }
                    let step_s = t.elapsed().as_secs_f64();
                    if traced {
                        out.traced_step_s.push(step_s);
                    } else {
                        out.step_s.push(step_s);
                    }
                    cells += sim.forest.global_count() * PATCH_CELLS as u64;
                    steps += 1;
                    ops += 1;
                }
                {
                    let _s = telemetry::span("pde.adapt_s");
                    sim.adapt(comm, AdaptThresholds::default());
                }
                {
                    let _s = telemetry::span("pde.migrate_s");
                    sim.migrate(comm);
                }
                ops += 1;
                if sim.steps_taken.is_multiple_of(CHECKPOINT_EVERY) {
                    let _s = telemetry::span("pde.checkpoint_s");
                    // two rotating slots keep the disk footprint bounded
                    let slot = dir.join(format!("slot{}", sim.steps_taken / CHECKPOINT_EVERY % 2));
                    if comm.rank() == 0 {
                        let _ = std::fs::remove_dir_all(&slot);
                    }
                    comm.barrier();
                    ok &= sim.checkpoint(comm, &slot).is_ok();
                    ops += 1;
                }
            }
            // output checks, outside the timed region: mass is conserved
            // and every rank holds the same global state digest
            ok &= crate::check("advect2d.check", &mut checks_s, || {
                let drift = (sim.total_mass(comm) - mass0).abs() / mass0;
                let digest = sim.state_digest(comm);
                drift < MASS_TOLERANCE && comm.allgather(digest).iter().all(|&d| d == digest)
            });
            out.ops += ops;
            out.failed += if ok { 0 } else { ops };
            chunks += 1;
            if sim.steps_taken.is_multiple_of(CHECKPOINT_EVERY) {
                if !traced {
                    let busy = period_start.elapsed().as_secs_f64() - (checks_s - period_checks);
                    out.rates.push((cells - period_cells) as f64 / busy);
                }
                (period_start, period_cells, period_checks) = (Instant::now(), cells, checks_s);
            }
            let go = chunks < CHECKPOINT_EVERY / ADAPT_EVERY
                || phase_start.elapsed().as_secs_f64() < seconds;
            if !comm.bcast(0, (comm.rank() == 0).then_some(go)) {
                break;
            }
        }
        if let Some(start) = started {
            out.trace = Some(trace::end(start));
            out.traced_cells = ratio(cells as f64, steps as f64);
            let inv1 = trace::invocations();
            out.invocations = std::array::from_fn(|i| inv1[i] - inv0[i]);
        } else {
            out.cells = cells;
        }
    }
    out.peak_heap = crate::alloc::peak_bytes();
    Ok(out.to_wire())
}

/// Register the rank program (both the supervisor and every spawned
/// rank process build this registry).
pub fn register(reg: quadforest_comm::ProgramRegistry) -> quadforest_comm::ProgramRegistry {
    reg.register(PROGRAM, program)
}

/// Spawn one world; returns every rank's output and the spawn instant.
fn world(
    cfg: &Config,
    phases: Vec<(f64, bool)>,
    dir: &Path,
) -> Result<(u64, Vec<RankOut>), String> {
    let args = Args {
        seed: cfg.seed,
        tiny: cfg.tiny,
        perturb_oracle: cfg.perturb_oracle,
        phases,
        checkpoint_dir: dir.display().to_string(),
    };
    let backend = Backend::Sockets(SocketOptions::new(cfg.worker.clone()));
    let registry = register(quadforest_comm::ProgramRegistry::new());
    let spawned = unix_ns();
    let bytes = try_run_program(
        &backend,
        RANKS,
        &RunOptions::default(),
        &registry,
        PROGRAM,
        &args.to_wire(),
        Attempt::first(),
    )
    .map_err(|e| e.to_string())?;
    let outs = bytes
        .iter()
        .map(|b| RankOut::from_wire(b).map_err(|e| format!("rank result: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((spawned, outs))
}

/// Run the workload.
pub fn run(cfg: &Config) -> Measured {
    let dir: PathBuf = cfg
        .out_dir
        .join(format!("ckpt-{}-{}", std::process::id(), cfg.seed));
    let result = (|| {
        let mut setup_s = Vec::new();
        let mut last = None;
        for i in 0..WORLDS {
            let phases = if i + 1 == WORLDS {
                cfg.phases()
            } else {
                Vec::new()
            };
            let (spawned, outs) = world(cfg, phases, &dir)?;
            let ready = outs
                .iter()
                .map(|o| o.ready_unix_ns)
                .max()
                .unwrap_or(spawned);
            setup_s.push(ready.saturating_sub(spawned) as f64 * 1e-9);
            last = Some(outs);
        }
        Ok::<_, String>((setup_s, last.expect("at least one world")))
    })();
    let _ = std::fs::remove_dir_all(&dir);
    let (setup_s, outs) = match result {
        Ok(r) => r,
        Err(e) => return Measured::failure("sockets", e),
    };
    let r0 = &outs[0];
    let mut m = Measured {
        backend: "sockets",
        attempted: r0.ops,
        failed: r0.failed,
        setup_s,
        peak_heap_bytes: crate::alloc::peak_bytes() + outs.iter().map(|o| o.peak_heap).sum::<u64>(),
        op_s: r0.step_s.clone(),
        traced_op_s: r0.traced_step_s.clone(),
        rates: r0.rates.clone(),
        ..Measured::default()
    };
    m.layers.insert("advect_cells_per_s", median(&m.rates));
    m.lines.push(format!(
        "advect2d: {} untraced steps, median {:.3} ms, {:.0} cell updates per step",
        m.op_s.len(),
        median(&m.op_s) * 1e3,
        ratio(r0.cells as f64, m.op_s.len() as f64)
    ));
    let traces: Vec<RankTrace> = outs.iter().filter_map(|o| o.trace.clone()).collect();
    if cfg.trace && !traces.is_empty() {
        let n = r0.traced_step_s.len().max(1) as f64;
        let l = &mut m.layers;
        for name in [
            "pde.step_s",
            "pde.cfl_s",
            "pde.adapt_s",
            "pde.migrate_s",
            "pde.checkpoint_s",
        ] {
            l.insert(name, trace::slowest_s(&traces, name) / n);
        }
        l.insert("pde.cells", r0.traced_cells);
        l.insert(
            "pde.step.ns_per_cell",
            ratio(l["pde.step_s"] * 1e9, r0.traced_cells),
        );
        for name in [
            "pde.halo.bytes",
            "pde.migrate.bytes",
            "forest.checkpoint.bytes",
            "comm.bytes_sent",
            "comm.msgs_sent",
            "comm.collectives",
        ] {
            l.insert(name, trace::summed(&traces, name) / n);
        }
        l.insert(
            "comm.collective_s",
            trace::slowest_metric(&traces, "comm.collective_ns") * 1e-9 / n,
        );
        for (name, count) in trace::INVOCATIONS.iter().zip(r0.invocations) {
            l.insert(name, count as f64 / n);
        }
        trace::finish(&mut m, cfg, "advect2d", &traces);
    }
    m
}
