//! `amr3d`: adapt cycles that chase a moving spherical shell through a
//! 3D Morton forest on P = 2 thread ranks.
//!
//! Each cycle moves the shell a step along a seeded orbit, refines the
//! leaves it now touches to the finest level, coarsens the families it
//! left behind, then runs Full balance, partition and Full ghost. The
//! shell's radius is fixed and its orbit stays inside the domain, so
//! every seed and every cycle does about the same work.

use crate::stats::{median, ratio};
use crate::trace::{self, RankTrace};
use crate::{Config, Measured, Rng, RANKS, SETUPS};
use quadforest_comm::{try_run, Comm};
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{MortonQuad, Quadrant};
use quadforest_forest::{BalanceKind, Forest};
use quadforest_telemetry as telemetry;
use std::sync::Arc;
use std::time::Instant;

type Q = MortonQuad<3>;

/// A spherical shell of fixed radius whose centre orbits the domain
/// centre on a vertical circle. The seed turns the orbit's plane about
/// the z axis and picks its direction; every orbit starts at the same
/// height, so each seed splits its leaves between the two z-halves of
/// the curve (the ranks) alike and does the same amount of work.
#[derive(Clone, Debug)]
struct Shell {
    radius: f64,
    half_width: f64,
    orbit: f64,
    /// Horizontal unit vector of the orbit's plane (the other is z).
    u: [f64; 2],
    step: f64,
}

impl Shell {
    fn from_seed(seed: u64, finest: u8) -> Self {
        let mut rng = Rng::new(seed, 3);
        let (s, c) = (std::f64::consts::TAU * rng.unit()).sin_cos();
        let dir = if rng.below(2) == 0 { 1.0 } else { -1.0 };
        Shell {
            radius: 0.23,
            half_width: 0.5 / (1u64 << finest) as f64,
            orbit: 0.1,
            u: [c, s],
            step: dir * 0.2,
        }
    }

    fn centre(&self, cycle: u64) -> [f64; 3] {
        let (s, c) = (self.step * cycle as f64).sin_cos();
        let r = self.orbit * c;
        [
            0.5 + r * self.u[0],
            0.5 + r * self.u[1],
            0.5 + self.orbit * s,
        ]
    }

    /// True when the leaf's cube meets the shell at `centre`.
    fn touches(&self, centre: [f64; 3], q: &Q) -> bool {
        let root = Q::len_at(0) as f64;
        let side = q.side() as f64 / root;
        let lo = q.coords().map(|x| x as f64 / root);
        let (mut near, mut far) = (0.0, 0.0);
        for i in 0..3 {
            let (a, b) = (lo[i] - centre[i], lo[i] + side - centre[i]);
            let d_near = if a > 0.0 {
                a
            } else if b < 0.0 {
                -b
            } else {
                0.0
            };
            let d_far = a.abs().max(b.abs());
            near += d_near * d_near;
            far += d_far * d_far;
        }
        near.sqrt() <= self.radius + self.half_width && far.sqrt() >= self.radius - self.half_width
    }
}

/// Base and finest level.
fn levels(cfg: &Config) -> (u8, u8) {
    if cfg.tiny {
        (2, 4)
    } else {
        (4, 7)
    }
}

/// The initial forest: uniform base, refined around the cycle-0 shell,
/// Full-balanced and partitioned.
fn initial(comm: &Comm, shell: &Shell, base: u8, finest: u8) -> Forest<Q> {
    let mut f = Forest::<Q>::new_uniform(Arc::new(Connectivity::unit(3)), comm, base);
    let c = shell.centre(0);
    f.refine(comm, true, |_, q| q.level() < finest && shell.touches(c, q));
    f.balance(comm, BalanceKind::Full);
    f.partition(comm);
    f
}

/// Per-cycle counts of one rank.
#[derive(Clone, Debug, Default)]
struct CycleCounts {
    leaves: u64,
    refined: u64,
    moved: u64,
    ghosts: u64,
}

/// What one rank brings home.
#[derive(Default)]
struct RankOut {
    setup_s: Vec<f64>,
    setup_ok: bool,
    op_s: Vec<f64>,
    traced_op_s: Vec<f64>,
    rates: Vec<f64>,
    leaves_untraced: u64,
    traced_counts: Vec<CycleCounts>,
    bad_cycles: u64,
    cycles: u64,
    trace: Option<RankTrace>,
    invocations: [u64; 3],
}

/// One adapt cycle, each layer call in a span named after its metric.
fn cycle(
    comm: &Comm,
    f: &mut Forest<Q>,
    shell: &Shell,
    k: u64,
    base: u8,
    finest: u8,
) -> CycleCounts {
    let _op = telemetry::span("amr3d.cycle");
    let c = shell.centre(k);
    {
        let _s = telemetry::span("forest.refine_s");
        f.refine(comm, true, |_, q| q.level() < finest && shell.touches(c, q));
    }
    {
        let _s = telemetry::span("forest.coarsen_s");
        f.coarsen(comm, true, |_, fam| {
            fam[0].level() > base && !fam.iter().any(|q| shell.touches(c, q))
        });
    }
    let refined = {
        let _s = telemetry::span("forest.balance_s");
        f.balance(comm, BalanceKind::Full)
    };
    let moved = {
        let _s = telemetry::span("forest.partition_s");
        f.partition(comm)
    };
    let ghost = {
        let _s = telemetry::span("forest.ghost_s");
        f.ghost(comm, BalanceKind::Full)
    };
    CycleCounts {
        leaves: f.global_count(),
        refined: refined as u64,
        moved: moved as u64,
        ghosts: ghost.len() as u64,
    }
}

fn rank_main(comm: &Comm, cfg: &Config) -> RankOut {
    let (base, finest) = levels(cfg);
    let mut out = RankOut::default();

    // set-up: input generation + initial forest, several times; the
    // checksums of the repeats must agree (the build is deterministic)
    let mut forest = None;
    let mut sums = Vec::new();
    let mut shell = None;
    for _ in 0..SETUPS {
        drop(forest.take());
        comm.barrier();
        let t = Instant::now();
        let s = Shell::from_seed(cfg.seed, finest);
        let f = initial(comm, &s, base, finest);
        comm.barrier();
        out.setup_s.push(t.elapsed().as_secs_f64());
        sums.push(f.checksum(comm));
        forest = Some(f);
        shell = Some(s);
    }
    let oracle = sums[0].wrapping_add(cfg.perturb_oracle as u64);
    out.setup_ok = sums.iter().skip(1).all(|&s| s == oracle);
    let mut f = forest.expect("at least one set-up");
    let shell = shell.expect("at least one set-up");

    let mut k = 0u64;
    for (seconds, traced) in cfg.phases() {
        let inv0 = trace::invocations();
        let started = traced.then(|| trace::begin(comm.rank()));
        let phase_start = Instant::now();
        let mut n = 0;
        loop {
            k += 1;
            comm.barrier();
            let t = Instant::now();
            let counts = cycle(comm, &mut f, &shell, k, base, finest);
            let dt = t.elapsed().as_secs_f64();
            // output checks, outside the timed region
            let bad = {
                let _s = telemetry::span("amr3d.check");
                let ok = f.validate().is_ok() && f.is_balanced_local(BalanceKind::Full).is_ok();
                comm.allreduce_sum(u64::from(!ok)) > 0
            };
            out.bad_cycles += u64::from(bad);
            out.cycles += 1;
            n += 1;
            if traced {
                out.traced_op_s.push(dt);
                out.traced_counts.push(counts);
            } else {
                out.op_s.push(dt);
                out.leaves_untraced += counts.leaves;
                out.rates.push(counts.leaves as f64 / dt);
            }
            let go = n < 3 || phase_start.elapsed().as_secs_f64() < seconds;
            if !comm.bcast(0, (comm.rank() == 0).then_some(go)) {
                break;
            }
        }
        if let Some(start) = started {
            out.trace = Some(trace::end(start));
            let inv1 = trace::invocations();
            out.invocations = std::array::from_fn(|i| inv1[i] - inv0[i]);
        }
    }
    out
}

/// Checksum of the forest after set-up and `cycles` adapt cycles.
pub fn final_checksum(cfg: &Config, cycles: u64) -> u64 {
    let (base, finest) = levels(cfg);
    let shell = Shell::from_seed(cfg.seed, finest);
    quadforest_comm::run(RANKS, |comm| {
        let mut f = initial(&comm, &shell, base, finest);
        for k in 1..=cycles {
            cycle(&comm, &mut f, &shell, k, base, finest);
        }
        f.checksum(&comm)
    })[0]
}

/// Run the workload.
pub fn run(cfg: &Config) -> Measured {
    let outs = match try_run(RANKS, |comm| Ok(rank_main(&comm, cfg))) {
        Ok(o) => o,
        Err(e) => return Measured::failure("threads", e.to_string()),
    };
    let r0 = &outs[0];
    let mut m = Measured {
        backend: "threads",
        attempted: r0.cycles + SETUPS as u64,
        failed: r0.bad_cycles + if r0.setup_ok { 0 } else { SETUPS as u64 },
        // a cycle ends in collectives, so every rank leaves it together;
        // setup is the slowest rank's
        setup_s: (0..SETUPS)
            .map(|i| outs.iter().map(|o| o.setup_s[i]).fold(0.0, f64::max))
            .collect(),
        peak_heap_bytes: crate::alloc::peak_bytes(),
        op_s: r0.op_s.clone(),
        traced_op_s: r0.traced_op_s.clone(),
        rates: r0.rates.clone(),
        ..Measured::default()
    };
    m.layers.insert("amr_cycle_s", median(&m.op_s));
    m.lines.push(format!(
        "amr3d: {} untraced cycles, median {:.3} s, {:.0} leaves per cycle",
        m.op_s.len(),
        median(&m.op_s),
        ratio(r0.leaves_untraced as f64, m.op_s.len() as f64)
    ));
    let traces: Vec<RankTrace> = outs.iter().filter_map(|o| o.trace.clone()).collect();
    if cfg.trace && !traces.is_empty() {
        let n = r0.traced_op_s.len().max(1) as f64;
        let sum = |f: &dyn Fn(&CycleCounts) -> u64| -> f64 {
            outs.iter()
                .flat_map(|o| o.traced_counts.iter())
                .map(f)
                .sum::<u64>() as f64
                / n
        };
        let leaves = r0.traced_counts.iter().map(|c| c.leaves).sum::<u64>() as f64 / n;
        let l = &mut m.layers;
        for name in [
            "forest.refine_s",
            "forest.coarsen_s",
            "forest.balance_s",
            "forest.partition_s",
            "forest.ghost_s",
        ] {
            l.insert(name, trace::slowest_s(&traces, name) / n);
        }
        l.insert(
            "forest.balance.ns_per_leaf",
            ratio(l["forest.balance_s"] * 1e9, leaves),
        );
        l.insert("forest.balance.refined", sum(&|c| c.refined));
        l.insert(
            "forest.balance.rounds",
            traces[0].metric("forest.balance.rounds") / n,
        );
        l.insert(
            "forest.balance.constraints_sent",
            trace::summed(&traces, "forest.balance.constraints_sent") / n,
        );
        l.insert("forest.partition.moved", sum(&|c| c.moved));
        l.insert("forest.ghost.count", sum(&|c| c.ghosts));
        l.insert("forest.leaves", leaves);
        for name in ["comm.bytes_sent", "comm.msgs_sent", "comm.collectives"] {
            l.insert(name, trace::summed(&traces, name) / n);
        }
        l.insert(
            "comm.collective_s",
            trace::slowest_metric(&traces, "comm.collective_ns") * 1e-9 / n,
        );
        for (name, count) in trace::INVOCATIONS.iter().zip(r0.invocations) {
            l.insert(name, count as f64 / n);
        }
        trace::finish(&mut m, cfg, "amr3d", &traces);
    }
    m
}
