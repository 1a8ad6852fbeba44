//! `query.box.latency_ns` holds one sample per served box and nothing
//! else (the batch's end-to-end time belongs to `query.batch.e2e_ns`).
//!
//! The histogram is process-global, so this check lives in its own test
//! binary where no other test serves boxes at the same time.

use quadforest_comm as comm;
use quadforest_connectivity::Connectivity;
use quadforest_core::quadrant::{MortonQuad, Quadrant};
use quadforest_forest::Forest;
use quadforest_query::{BoxQuery, ForestSnapshot, QueryExecutor, SnapshotHandle};
use quadforest_telemetry as telemetry;
use std::sync::Arc;

#[test]
fn box_batch_records_one_latency_per_box() {
    let snap = comm::run(1, |comm| {
        let conn = Arc::new(Connectivity::unit(2));
        let f = Forest::<MortonQuad<2>>::new_uniform(conn, &comm, 4);
        ForestSnapshot::build(&f, 0)
    })
    .pop()
    .unwrap();
    let root = MortonQuad::<2>::len_at(0);
    let step = root / 8;
    let boxes: Vec<BoxQuery> = (0..64)
        .map(|i| {
            let lo = [(i % 8) * step, (i / 8) * step, 0];
            BoxQuery {
                tree: 0,
                lo,
                hi: [lo[0] + step, lo[1] + step, 0],
            }
        })
        .collect();
    let exec = QueryExecutor::new(SnapshotHandle::new(snap), 2);
    let latency = telemetry::global().histogram("query.box.latency_ns");
    let e2e = telemetry::global().histogram("query.batch.e2e_ns");
    let (before, e2e_before) = (latency.count(), e2e.count());
    let hits = exec.query_boxes(boxes);
    assert!(hits.iter().all(|h| !h.is_empty()));
    assert_eq!(latency.count() - before, 64);
    assert_eq!(e2e.count() - e2e_before, 1);
}
