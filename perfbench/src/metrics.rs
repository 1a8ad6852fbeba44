//! The metric catalogue (mirrors `BENCHMARK.json`) and the result line.

use crate::stats::{median, ratio};
use crate::Measured;
use std::fmt::Write as _;

/// End-to-end metrics, printed by untraced runs of every workload.
/// An "op" is one amr3d adapt cycle, advect2d time step, serve
/// 4096-probe batch or paper_kernels sweep. Throughput is the median
/// over the workload's periods of work per second: leaves per cycle,
/// cell updates per 50 steps (with their adapts and checkpoint), probes
/// per 50 batches (with their box batches and write), octant-kernel
/// evaluations per sweep.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
    ("op_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
];

/// Per-layer metrics, printed by traced runs of every workload (0 where
/// the workload does not exercise the layer). Times and rates are per
/// op; times are the slowest rank's, counts are summed over ranks.
pub const PER_LAYER: &[(&str, &str)] = &[
    // forest
    ("forest.refine_s", "s"),
    ("forest.coarsen_s", "s"),
    ("forest.balance_s", "s"),
    ("forest.balance.ns_per_leaf", "ns"),
    ("forest.balance.refined", "count"),
    ("forest.balance.rounds", "count"),
    ("forest.balance.constraints_sent", "count"),
    ("forest.partition_s", "s"),
    ("forest.partition.moved", "count"),
    ("forest.ghost_s", "s"),
    ("forest.ghost.count", "count"),
    ("forest.leaves", "count"),
    ("forest.adapt_s", "s"),
    ("forest.checkpoint.bytes", "B"),
    // comm
    ("comm.bytes_sent", "B"),
    ("comm.msgs_sent", "count"),
    ("comm.collectives", "count"),
    ("comm.collective_s", "s"),
    // pde
    ("pde.step_s", "s"),
    ("pde.step.ns_per_cell", "ns"),
    ("pde.cfl_s", "s"),
    ("pde.adapt_s", "s"),
    ("pde.migrate_s", "s"),
    ("pde.checkpoint_s", "s"),
    ("pde.cells", "count"),
    ("pde.halo.bytes", "B"),
    ("pde.migrate.bytes", "B"),
    // query
    ("query.batch_s", "s"),
    ("query.snapshot.locate_ns_per_probe", "ns"),
    ("query.snapshot.boxes_s", "s"),
    ("query.box_batch_s", "s"),
    ("query.executor.overhead_ns_per_probe", "ns"),
    ("query.stage.classify_ns", "ns"),
    ("query.stage.sort_ns", "ns"),
    ("query.stage.drain_ns", "ns"),
    ("query.stage.steal_ns", "ns"),
    ("query.stage.unpermute_ns", "ns"),
    ("query.stage.latch_wait_ns", "ns"),
    ("query.snapshot_build_s", "s"),
    ("query.publish_s", "s"),
    // core: the six paper kernels per encoding, ns per octant
    ("core.quadrant.morton.standard_ns", "ns"),
    ("core.quadrant.morton.morton_ns", "ns"),
    ("core.quadrant.morton.avx_ns", "ns"),
    ("core.quadrant.child.standard_ns", "ns"),
    ("core.quadrant.child.morton_ns", "ns"),
    ("core.quadrant.child.avx_ns", "ns"),
    ("core.quadrant.fneigh.standard_ns", "ns"),
    ("core.quadrant.fneigh.morton_ns", "ns"),
    ("core.quadrant.fneigh.avx_ns", "ns"),
    ("core.quadrant.parent.standard_ns", "ns"),
    ("core.quadrant.parent.morton_ns", "ns"),
    ("core.quadrant.parent.avx_ns", "ns"),
    ("core.quadrant.sibling.standard_ns", "ns"),
    ("core.quadrant.sibling.morton_ns", "ns"),
    ("core.quadrant.sibling.avx_ns", "ns"),
    ("core.quadrant.boundaries.standard_ns", "ns"),
    ("core.quadrant.boundaries.morton_ns", "ns"),
    ("core.quadrant.boundaries.avx_ns", "ns"),
    ("core.bytes_per_quad.standard", "B"),
    ("core.bytes_per_quad.morton", "B"),
    ("core.bytes_per_quad.avx", "B"),
    // core: dispatched SoA batch kernels, ns per quadrant
    ("core.batch.child_all_ns", "ns"),
    ("core.batch.parent_all_ns", "ns"),
    ("core.batch.sibling_all_ns", "ns"),
    ("core.batch.face_neighbor_all_ns", "ns"),
    ("core.batch.offset_neighbor_all_ns", "ns"),
    ("core.batch.tree_boundaries_all_ns", "ns"),
    ("core.batch.sfc_keys_all_ns", "ns"),
    ("core.kernel_invocations.scalar", "count"),
    ("core.kernel_invocations.avx2", "count"),
    ("core.kernel_invocations.bmi2", "count"),
    // the workloads' own headline figures
    ("amr_cycle_s", "s"),
    ("advect_cells_per_s", "cells/s"),
    ("serve_probes_per_s", "probes/s"),
    ("serve_batch_p50_ms", "ms"),
    ("serve_batch_p99_ms", "ms"),
    ("serve_batch_samples", "count"),
    ("kernel_ns_per_quad.standard", "ns"),
    ("kernel_ns_per_quad.morton", "ns"),
    ("kernel_ns_per_quad.avx", "ns"),
    ("failed_frac", "ratio"),
    // the tracer itself
    ("trace.overhead", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// The end-to-end values of a run, in [`END_TO_END`] order.
pub fn end_to_end(m: &Measured) -> Vec<f64> {
    vec![
        median(&m.setup_s),
        m.peak_heap_bytes as f64 / (1u64 << 20) as f64,
        median(&m.op_s) * 1e3,
        median(&m.rates),
    ]
}

/// The per-layer values of a run, in [`PER_LAYER`] order.
pub fn per_layer(m: &Measured) -> Vec<f64> {
    PER_LAYER
        .iter()
        .map(|(name, _)| match *name {
            "failed_frac" => ratio(m.failed as f64, m.attempted as f64),
            "trace.overhead" => ratio(median(&m.traced_op_s), median(&m.op_s)),
            _ => m.layers.get(name).copied().unwrap_or(0.0),
        })
        .collect()
}

/// A JSON number: non-finite values (never expected) print as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The run's final stdout line: verdict, op counts and `metrics`.
pub fn result_line(m: &Measured, trace: bool) -> String {
    let (names, values) = if trace {
        (PER_LAYER, per_layer(m))
    } else {
        (END_TO_END, end_to_end(m))
    };
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        m.failed == 0,
        m.attempted.max(1),
        m.failed
    );
    for (i, ((name, unit), v)) in names.iter().zip(values).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(v)
        );
    }
    out.push_str("}}");
    out
}

/// Human-readable table of every metric this run produced.
pub fn table(m: &Measured) -> String {
    let mut out = String::from("| metric | value | unit |\n|---|---|---|\n");
    for ((name, unit), v) in END_TO_END.iter().zip(end_to_end(m)) {
        let _ = writeln!(out, "| {name} | {v:.6} | {unit} |");
    }
    for ((name, unit), v) in PER_LAYER.iter().zip(per_layer(m)) {
        if v != 0.0 {
            let _ = writeln!(out, "| {name} | {v:.6} | {unit} |");
        }
    }
    out
}
