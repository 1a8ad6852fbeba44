//! Pluggable transport backends.
//!
//! The communicator logic in [`Comm`](crate::Comm) — message matching,
//! parking, collectives, fault injection, abort unwinding — is backend
//! generic: it talks to a [`Transport`] that knows how to move a
//! [`Msg`](crate::Msg) between ranks and how to spread an abort. Two
//! implementations exist:
//!
//! * **threads** ([`World`](crate::World)): the original in-process
//!   simulator — one OS thread per rank sharing mailboxes. Payloads
//!   move as boxed values, never serialized.
//! * **processes** ([`process`]): one OS *process* per rank, connected
//!   to a supervisor in a star topology over Unix domain sockets
//!   ([`Backend::Sockets`]) or TCP ([`Backend::Tcp`]) — one
//!   implementation, generic over the stream. Payloads are
//!   Wire-encoded into CRC-guarded length-prefixed frames under a
//!   sequenced session layer that heals broken links; a rank is dead
//!   when its process exits or misses a heartbeat window, a detectable,
//!   recoverable event instead of a wedged world.
//!
//! Because child processes cannot inherit closures, process worlds run
//! *named programs* out of a [`ProgramRegistry`]: plain `fn` items
//! taking `(&Comm, &ProgramCtx)` and returning Wire-encoded bytes. The
//! same registry runs unchanged on the thread backend via
//! [`try_run_program`], which is how one parameterized test harness
//! covers both backends.

pub(crate) mod frame;
pub(crate) mod process;

use crate::{Attempt, Comm, CommError, Mailbox, Msg, RankState, RunOptions, WorldError};
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

/// The backend-facing surface of a world: everything `Comm` needs to
/// run its matching, collective, and abort logic without knowing
/// whether peers are threads or processes.
pub(crate) trait Transport: Send + Sync {
    /// Number of ranks.
    fn size(&self) -> usize;
    /// Blocking-receive timeout configured for this world.
    fn recv_timeout(&self) -> Duration;
    /// True when payloads cross a process boundary and must be
    /// Wire-encoded by the sender (process backends).
    fn serializes(&self) -> bool;
    /// The inbound queue `rank` blocks on.
    fn mailbox(&self, rank: usize) -> &Mailbox;
    /// Enqueue a message for `dest` (local push or wire frame).
    fn deliver(&self, dest: usize, msg: Msg);
    /// Fast-path abort check.
    fn is_aborted(&self) -> bool;
    /// Record a failure (first origin wins) and wake every blocked rank.
    fn abort(&self, origin: usize, reason: String);
    /// The error a rank unwinds with once the world is aborted.
    fn abort_error(&self) -> CommError;
    /// Publish what this rank is doing, for peers' deadlock diagnostics.
    fn set_status(&self, rank: usize, state: RankState);
    /// World-state dump for timeout diagnostics.
    fn diagnostic(&self) -> String;
    /// Tag pretty-printer (knows collective span names when recorded).
    fn tag_label(&self, tag: u64) -> String;
    /// Remember which telemetry span issued collective `seq`.
    fn name_collective(&self, seq: u64, phase: &'static str);
    /// SIGKILL fault hook: returns true when the transport arranged a
    /// real process kill and the calling rank should park awaiting it.
    /// The thread backend returns false (degrade to panic).
    fn request_kill(&self, rank: usize, op: u64) -> bool;
    /// Stall fault hook: returns true when the transport stopped this
    /// rank's heartbeats and the rank should park forever, leaving
    /// death detection to the supervisor's missed-heartbeat window.
    fn begin_stall(&self, rank: usize, op: u64) -> bool;
    /// Liveness context hook, called once per counted comm op with the
    /// op index and the current telemetry phase. The process backends
    /// fold these into its heartbeat frames so the supervisor can name
    /// a SIGKILLed rank's last comm op and phase in the flight-recorder
    /// postmortem; the thread backend needs nothing (the victim's own
    /// events are already in the shared ring).
    fn note_comm_op(&self, _op: u64, _phase: Option<&'static str>) {}
}

/// Configuration of the process-per-rank backends: one struct for Unix
/// sockets and TCP alike (the address family is the [`Backend`]
/// variant).
#[derive(Clone, Debug)]
pub struct SocketOptions {
    /// Executable spawned once per rank. Must call
    /// [`maybe_run_socket_child`] before doing anything else, with a
    /// registry containing the program being run — the canonical
    /// choice is `std::env::current_exe()` (the supervisor re-executes
    /// its own binary).
    pub worker: PathBuf,
    /// Interval between heartbeat frames sent by each rank process.
    pub heartbeat_interval: Duration,
    /// How many consecutive missed heartbeat intervals mark a rank
    /// dead. The window is `heartbeat_interval * heartbeat_grace`, and
    /// it is also the budget inside which a dropped connection may
    /// reconnect and resume with **no** failure escalation. Keep it
    /// generous — a rank busy in a long compute phase still heartbeats
    /// (the sender is a dedicated thread), but a loaded CI machine can
    /// starve that thread for tens of milliseconds.
    pub heartbeat_grace: u32,
    /// How long to wait for all rank processes to connect back before
    /// declaring the world failed to start.
    pub connect_timeout: Duration,
    /// Reconnect schedule after a broken connection: bounded
    /// exponential backoff with deterministic jitter, reusing the
    /// recovery supervisor's policy machinery. When the schedule is
    /// exhausted the rank gives up and the supervisor's heartbeat
    /// window escalates to a real `PeerFailed`.
    pub reconnect: crate::RecoveryPolicy,
    /// Upper bound on a single wire frame; a longer length prefix
    /// (hostile peer, flipped bit) is rejected *before* allocation.
    pub max_frame_len: u32,
}

/// The TCP backend's options: the same struct as the Unix-socket one.
pub type TcpOptions = SocketOptions;

impl SocketOptions {
    /// Options with the given worker executable and default liveness
    /// parameters (50 ms heartbeats, 40-interval = 2 s death window,
    /// 10 s connect timeout, ~12-attempt jittered reconnect schedule).
    pub fn new(worker: PathBuf) -> Self {
        SocketOptions {
            worker,
            heartbeat_interval: Duration::from_millis(50),
            heartbeat_grace: 40,
            connect_timeout: Duration::from_secs(10),
            reconnect: crate::RecoveryPolicy {
                max_attempts: 12,
                base_delay: Duration::from_millis(10),
                max_delay: Duration::from_millis(500),
                jitter_ppm: 200_000,
            },
            max_frame_len: frame::MAX_FRAME_LEN,
        }
    }

    /// The full missed-heartbeat death window.
    pub fn death_window(&self) -> Duration {
        self.heartbeat_interval
            .saturating_mul(self.heartbeat_grace.max(1))
    }
}

/// Which transport executes a program's ranks.
#[derive(Clone, Debug)]
pub enum Backend {
    /// One OS thread per rank in this process (the original simulator).
    Threads,
    /// One OS process per rank, joined over Unix domain sockets.
    Sockets(SocketOptions),
    /// One OS process per rank, joined over TCP (loopback by default;
    /// the same wire protocol works across machines).
    ///
    /// Both process backends run the same reliable session layer:
    /// sequence numbers, acks, and reconnect-with-backoff, so a
    /// transient connection loss inside the heartbeat window heals
    /// without any recovery escalation.
    Tcp(TcpOptions),
}

impl Backend {
    /// Short name for provenance records (bench JSON, telemetry).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Sockets(_) => "sockets",
            Backend::Tcp(_) => "tcp",
        }
    }
}

/// Per-rank context handed to a registered program alongside its `Comm`.
#[derive(Clone, Debug)]
pub struct ProgramCtx {
    /// Opaque argument bytes, identical on every rank (Wire-encode your
    /// parameter struct).
    pub args: Vec<u8>,
    /// Which recovery attempt this run is (attempt 0 = first try).
    pub attempt: Attempt,
}

/// A rank program runnable on any backend. A plain `fn` — not a
/// closure — because socket workers look it up by name in a fresh
/// process where no captured environment exists.
pub type ProgramFn = fn(&Comm, &ProgramCtx) -> Result<Vec<u8>, CommError>;

/// Name → program table shared by the supervisor and its spawned
/// workers (both sides construct the same registry, typically in a
/// common library function).
#[derive(Default)]
pub struct ProgramRegistry {
    map: BTreeMap<&'static str, ProgramFn>,
}

impl ProgramRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `f` under `name`; replaces any previous entry. Returns
    /// `self` for chaining.
    pub fn register(mut self, name: &'static str, f: ProgramFn) -> Self {
        self.map.insert(name, f);
        self
    }

    /// Look up a program by name.
    pub fn get(&self, name: &str) -> Option<ProgramFn> {
        self.map.get(name).copied()
    }

    /// Registered program names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        self.map.keys().copied().collect()
    }
}

/// Run registered program `name` across `size` ranks on the chosen
/// backend and collect the per-rank result bytes in rank order.
///
/// On [`Backend::Threads`] this is [`try_run_with`](crate::try_run_with)
/// with the program wrapped as a closure. On [`Backend::Sockets`] and
/// [`Backend::Tcp`] the supervisor spawns one worker process per rank
/// and the same program (found by name in the worker's registry) runs
/// against the process transport. Failure reporting is identical in
/// shape: a [`WorldError`] naming the origin rank and all collateral
/// failures — plus, only possible on processes, origins of kind
/// [`CommError::PeerFailed`] when a rank *process* died.
pub fn try_run_program(
    backend: &Backend,
    size: usize,
    opts: &RunOptions,
    registry: &ProgramRegistry,
    name: &str,
    args: &[u8],
    attempt: Attempt,
) -> Result<Vec<Vec<u8>>, WorldError> {
    match backend {
        Backend::Threads => {
            let f = registry
                .get(name)
                .unwrap_or_else(|| panic!("program '{name}' not in registry"));
            let ctx = ProgramCtx {
                args: args.to_vec(),
                attempt,
            };
            crate::try_run_with(size, opts.clone(), move |c| f(&c, &ctx))
        }
        Backend::Sockets(o) => process::run_world::<UnixStream>(size, opts, o, name, args, attempt),
        Backend::Tcp(o) => process::run_world::<TcpStream>(size, opts, o, name, args, attempt),
    }
}

/// Worker-process hook: when the calling process was spawned as a
/// process-backend rank (detected via environment variables set by the
/// supervisor), connect back, run the requested program from
/// `registry`, report the outcome in-band, and **exit the process**.
/// Returns normally — `false` — only when not a worker.
///
/// Call this first thing in `main()` of any binary used as a
/// [`SocketOptions::worker`].
pub fn maybe_run_socket_child(registry: &ProgramRegistry) -> bool {
    process::maybe_run_child(registry)
}
