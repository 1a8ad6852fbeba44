//! The process-per-rank backend's session layer and liveness model,
//! on the address family the TCP-only suites do not reach.
//!
//! `Backend::Sockets` and `Backend::Tcp` are one implementation over
//! two stream types, so Unix-socket worlds carry the same sequenced,
//! reconnecting session layer as TCP: wire chaos (resets, drops,
//! corruption) must heal inside the heartbeat window with no recovery
//! retry. And on both families a rank whose process simply exits is
//! dead at once — the monitor polls the child's exit status instead of
//! waiting out the heartbeat window.

use quadforest_bench::transport::{self, decode_digest, CHAOS_PIPELINE, EXIT_MID_PIPELINE};
use quadforest_comm::{
    run_with_recovery_program, try_run_program, Attempt, Backend, CommError, FaultPlan, RankError,
    RecoveryOptions, RecoveryPolicy, RunOptions, SocketOptions,
};
use quadforest_core::Wire;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The repro binary doubles as the worker executable.
fn options(interval_ms: u64, grace: u32) -> SocketOptions {
    let mut o = SocketOptions::new(PathBuf::from(env!("CARGO_BIN_EXE_repro")));
    o.heartbeat_interval = Duration::from_millis(interval_ms);
    o.heartbeat_grace = grace;
    o
}

/// Supervisor-side reconnect count (process-global, monotonic).
fn reconnects() -> u64 {
    quadforest_telemetry::global()
        .counter("transport.reconnects")
        .get()
}

/// A scheduled connection reset plus random drops, bit flips and
/// partial writes on Unix sockets: the session layer reconnects and
/// replays, the pipeline digest is bit-identical to the fault-free
/// thread run, and the recovery supervisor never retries.
#[test]
fn unix_socket_wire_chaos_heals_with_zero_recovery_retries() {
    const P: usize = 4;
    let reference: Vec<transport::PipelineDigest> = try_run_program(
        &Backend::Threads,
        P,
        &RunOptions::default(),
        &transport::registry(),
        CHAOS_PIPELINE,
        &[],
        Attempt::first(),
    )
    .expect("threads reference")
    .iter()
    .map(|b| decode_digest(b))
    .collect();

    let before = reconnects();
    let plan = FaultPlan::new(7)
        .with_net_reset_at(1, 5)
        .with_net_drops(0.02)
        .with_net_corruption(0.05)
        .with_net_partial_writes(0.1);
    let opts = RecoveryOptions {
        policy: RecoveryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            ..RecoveryPolicy::default()
        },
        plans: vec![Some(plan)],
        ..RecoveryOptions::default()
    };
    let outcome = run_with_recovery_program(
        &Backend::Sockets(options(25, 80)), // 2 s death window
        P,
        opts,
        &transport::registry(),
        CHAOS_PIPELINE,
        &[],
    )
    .expect("wire chaos inside the grace window must not fail the world");

    assert_eq!(outcome.attempts, 1, "healed wire chaos needs no retry");
    assert!(
        outcome.failures.is_empty(),
        "no failure may be recorded: {:?}",
        outcome.failures
    );
    let digests: Vec<transport::PipelineDigest> =
        outcome.values.iter().map(|b| decode_digest(b)).collect();
    assert_eq!(digests, reference, "digest diverged under wire chaos");
    assert!(
        reconnects() > before,
        "the reset must have gone through at least one transport reconnect"
    );
}

/// A rank process that calls `std::process::exit` mid-pipeline is
/// declared dead from its exit status, long before a 10 s heartbeat
/// window could expire, on both address families.
#[test]
fn process_exit_fails_the_world_fast_on_both_process_backends() {
    const VICTIM: u64 = 1;
    for backend in [
        Backend::Sockets(options(50, 200)),
        Backend::Tcp(options(50, 200)),
    ] {
        let started = Instant::now();
        let err = try_run_program(
            &backend,
            4,
            &RunOptions::default(),
            &transport::registry(),
            EXIT_MID_PIPELINE,
            &VICTIM.to_wire(),
            Attempt::first(),
        )
        .expect_err("an exited rank must fail the world");
        let elapsed = started.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "{}: exit detection took {elapsed:?}",
            backend.name()
        );
        assert_eq!(
            err.origin,
            VICTIM as usize,
            "wrong origin on {}",
            backend.name()
        );
        let origin = err.origin_failure().expect("origin failure recorded");
        assert!(
            matches!(
                origin.error,
                RankError::Failed(CommError::PeerFailed { rank: 1, .. })
            ),
            "{}: an exited process must surface as PeerFailed, got {:?}",
            backend.name(),
            origin.error
        );
        assert!(
            err.reason.contains("process died"),
            "{}: reason must name the exit: {}",
            backend.name(),
            err.reason
        );
    }
}
