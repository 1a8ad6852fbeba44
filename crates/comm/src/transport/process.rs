//! The process-per-rank backend, over Unix domain sockets or TCP.
//!
//! Topology is a star: the supervisor (the process that called
//! [`try_run_program`](crate::try_run_program)) binds a listener,
//! spawns one worker process per rank, and routes every rank-to-rank
//! message through itself. Workers learn their identity and
//! configuration from `QF_WORKER_*` environment variables, connect
//! back, and run the named program against a [`ChildLink`] transport
//! whose `deliver` writes Wire-encoded frames instead of pushing into a
//! shared mailbox. Supervisor and worker are generic over the
//! connection ([`Conn`]): `UnixStream` for
//! [`Backend::Sockets`](crate::Backend::Sockets), `TcpStream` for
//! [`Backend::Tcp`](crate::Backend::Tcp). The address family is the
//! only difference between the two.
//!
//! A small reliable session layer runs on top of the CRC framing, so a
//! wire that loses or mangles bytes (a flaky interconnect, or the
//! deterministic chaos interposer) and a connection that drops and
//! comes back are both survivable:
//!
//! * Every [`Frame`] travels inside a [`Packet::Data`] envelope
//!   carrying a per-direction **sequence number** and a cumulative
//!   **ack** (the sender's receive cursor). Receivers deliver in-order
//!   exactly once: a duplicate is dropped, a gap breaks the link.
//! * A broken link (gap, CRC mismatch, decode error, EOF, reset) is
//!   *not* a failure — the worker reconnects with bounded exponential
//!   backoff + deterministic jitter ([`SocketOptions::reconnect`], the
//!   recovery supervisor's own [`RecoveryPolicy`] machinery). The
//!   reconnect handshake (`Hello{resume}` / `HelloAck{resume}`)
//!   exchanges receive cursors; both sides prune acked packets and
//!   retransmit the rest, so the stream resumes with no loss and no
//!   duplication. The supervisor counts each resumption in
//!   `transport.reconnects`.
//! * A worker starts its program at once: frames sent before the first
//!   handshake queue in the retransmit buffer and go out in its replay.
//! * All writes to a link happen in sequence order under the link
//!   lock, so the supervisor's periodic [`Packet::Ping`] — which
//!   carries its next send sequence — gives the worker a race-free gap
//!   probe even when supervisor→worker traffic is sparse: any `Data`
//!   the ping's `sent` claims was written before it either already
//!   arrived (the stream is ordered) or was dropped on the wire.
//!
//! **Liveness**: workers heartbeat on a dedicated thread, and the
//! supervisor's monitor declares a rank dead when its process exits
//! (`Child::try_wait`) or when a full missed-heartbeat window passes.
//! A connection that drops and heals inside the window therefore
//! resumes with **no** `PeerFailed` and no recovery attempt, while a
//! true partition (reconnects exhausted, or the window elapsing with no
//! resumed heartbeats), a process exit or a SIGKILL escalates to
//! [`run_with_recovery_program`] — including the flight-recorder
//! postmortem naming the victim's last comm op. Wire corruption
//! injected by the chaos interposer
//! ([`FaultPlan::with_net_corruption`] and friends) is caught by the
//! frame CRC and surfaces as a link break + retransmit, never a panic.
//!
//! [`run_with_recovery_program`]: crate::run_with_recovery_program
//! [`FaultPlan::with_net_corruption`]: crate::FaultPlan::with_net_corruption
//! [`RecoveryPolicy`]: crate::RecoveryPolicy

use super::frame::{encode_wire, read_wire_stalling, read_wire_timeout, Frame, FrameError};
use super::{ProgramCtx, ProgramRegistry, SocketOptions};
use crate::fault::{NetFaults, WriteFault};
use crate::{
    plock, AbortInfo, Attempt, Comm, CommError, Mailbox, Msg, Payload, RankError, RankFailure,
    RankState, RecoveryPolicy, RunOptions, Transport, WorldError,
};
use quadforest_core::Wire;
use quadforest_telemetry as telemetry;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

// Environment contract between supervisor and worker processes.
/// `<scheme>:<address>`, the scheme being [`Conn::SCHEME`].
const ENV_ADDR: &str = "QF_WORKER_ADDR";
const ENV_RANK: &str = "QF_WORKER_RANK";
const ENV_SIZE: &str = "QF_WORKER_SIZE";
const ENV_PROGRAM: &str = "QF_WORKER_PROGRAM";
const ENV_ARGS: &str = "QF_WORKER_ARGS";
const ENV_RECV_TIMEOUT_MS: &str = "QF_WORKER_RECV_TIMEOUT_MS";
const ENV_HEARTBEAT_MS: &str = "QF_WORKER_HEARTBEAT_MS";
const ENV_ATTEMPT: &str = "QF_WORKER_ATTEMPT";
const ENV_FAULTS: &str = "QF_WORKER_FAULTS";
const ENV_MAX_FRAME: &str = "QF_WORKER_MAX_FRAME";
const ENV_RECONNECT: &str = "QF_WORKER_RECONNECT";

/// Poll granularity for stop-flag checks inside blocking reads.
const READ_POLL: Duration = Duration::from_millis(25);
/// Bound on a single blocking write (a wedged peer's full send buffer
/// must surface as a link break, not a deadlock).
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);
/// How long each side waits for the other half of the handshake.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_millis(500);
/// Mid-frame progress deadline on session reads. A frame's bytes are
/// written back-to-back, so a gap this long inside one frame means a
/// corrupted length prefix passed the cap check and the reader is
/// waiting for payload that will never exist — break the link (the
/// reconnect replay resynchronizes) instead of silently eating live
/// heartbeats as bogus payload until the death window expires.
const FRAME_STALL: Duration = Duration::from_millis(250);
/// How long a worker keeps retrying its first connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a finished worker waits for its terminal frame to be
/// acked before giving up and exiting anyway.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

pub(crate) fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

// ----------------------------------------------------------------------
// the connection: one trait, two address families
// ----------------------------------------------------------------------

/// A byte stream the session layer runs over, with its listener.
pub(crate) trait Conn: Read + Sized + Send + Sync + 'static {
    type Listener: Send + 'static;
    /// Address-family prefix of `QF_WORKER_ADDR`.
    const SCHEME: &'static str;
    /// Bind a fresh listener; returns it with the address workers dial.
    fn bind() -> io::Result<(Self::Listener, String)>;
    fn accept(listener: &Self::Listener) -> io::Result<Self>;
    fn connect(addr: &str) -> io::Result<Self>;
    fn try_clone(&self) -> io::Result<Self>;
    fn write_bytes(&self, buf: &[u8]) -> io::Result<()>;
    /// Shut both directions down, waking any thread blocked on it.
    fn close(&self);
    /// Short read timeout (stop-flag polls) and bounded writes.
    fn set_timeouts(&self) -> io::Result<()>;
    /// Release what `bind` left behind.
    fn unbind(_addr: &str) {}
}

impl Conn for UnixStream {
    type Listener = UnixListener;
    const SCHEME: &'static str = "unix";

    fn bind() -> io::Result<(UnixListener, String)> {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("quadforest-{}-{n}.sock", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        Ok((listener, path.display().to_string()))
    }

    fn accept(listener: &UnixListener) -> io::Result<Self> {
        listener.accept().map(|(s, _)| s)
    }

    fn connect(addr: &str) -> io::Result<Self> {
        UnixStream::connect(addr)
    }

    fn try_clone(&self) -> io::Result<Self> {
        UnixStream::try_clone(self)
    }

    fn write_bytes(&self, buf: &[u8]) -> io::Result<()> {
        let mut w = self;
        w.write_all(buf)
    }

    fn close(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }

    fn set_timeouts(&self) -> io::Result<()> {
        self.set_read_timeout(Some(READ_POLL))?;
        self.set_write_timeout(Some(WRITE_TIMEOUT))
    }

    /// Remove the socket file.
    fn unbind(addr: &str) {
        let _ = std::fs::remove_file(addr);
    }
}

impl Conn for TcpStream {
    type Listener = TcpListener;
    const SCHEME: &'static str = "tcp";

    /// Loopback by default; the same protocol works across machines.
    fn bind() -> io::Result<(TcpListener, String)> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?.to_string();
        Ok((listener, addr))
    }

    fn accept(listener: &TcpListener) -> io::Result<Self> {
        listener.accept().map(|(s, _)| s)
    }

    fn connect(addr: &str) -> io::Result<Self> {
        TcpStream::connect(addr)
    }

    fn try_clone(&self) -> io::Result<Self> {
        TcpStream::try_clone(self)
    }

    fn write_bytes(&self, buf: &[u8]) -> io::Result<()> {
        let mut w = self;
        w.write_all(buf)
    }

    fn close(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }

    fn set_timeouts(&self) -> io::Result<()> {
        let _ = self.set_nodelay(true);
        self.set_read_timeout(Some(READ_POLL))?;
        self.set_write_timeout(Some(WRITE_TIMEOUT))
    }
}

// ----------------------------------------------------------------------
// the session layer
// ----------------------------------------------------------------------

/// The session envelope around the [`Frame`] protocol.
#[derive(Clone, Debug, PartialEq)]
enum Packet {
    /// First packet on every (re)connection, worker → supervisor.
    /// `resume` is the worker's receive cursor: the next supervisor
    /// sequence number it has not yet delivered.
    Hello { rank: u64, resume: u64 },
    /// Handshake reply, supervisor → worker, mirroring `resume`.
    HelloAck { resume: u64 },
    /// A sequenced frame. `ack` is the sender's receive cursor, so
    /// every data packet doubles as a cumulative acknowledgement.
    Data { seq: u64, ack: u64, frame: Frame },
    /// Unsequenced supervisor → worker probe from the monitor sweep.
    /// `sent` is the supervisor's next send sequence: a worker whose
    /// receive cursor lags it has missed frames and must reconnect.
    Ping { ack: u64, sent: u64 },
}

impl Wire for Packet {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Packet::Hello { rank, resume } => {
                out.push(0);
                rank.encode(out);
                resume.encode(out);
            }
            Packet::HelloAck { resume } => {
                out.push(1);
                resume.encode(out);
            }
            Packet::Data { seq, ack, frame } => {
                out.push(2);
                seq.encode(out);
                ack.encode(out);
                frame.encode(out);
            }
            Packet::Ping { ack, sent } => {
                out.push(3);
                ack.encode(out);
                sent.encode(out);
            }
        }
    }

    fn decode(
        r: &mut quadforest_core::wire::WireReader<'_>,
    ) -> Result<Self, quadforest_core::wire::WireError> {
        match u8::decode(r)? {
            0 => Ok(Packet::Hello {
                rank: u64::decode(r)?,
                resume: u64::decode(r)?,
            }),
            1 => Ok(Packet::HelloAck {
                resume: u64::decode(r)?,
            }),
            2 => Ok(Packet::Data {
                seq: u64::decode(r)?,
                ack: u64::decode(r)?,
                frame: Frame::decode(r)?,
            }),
            3 => Ok(Packet::Ping {
                ack: u64::decode(r)?,
                sent: u64::decode(r)?,
            }),
            d => Err(quadforest_core::wire::WireError::Invalid(format!(
                "Packet discriminant {d}"
            ))),
        }
    }
}

/// One direction-pair of session state for a link endpoint.
struct LinkState<S> {
    /// The live connection, `None` while broken/reconnecting.
    stream: Option<S>,
    /// Bumped on every install *and* break, so a reader or writer that
    /// raced a reconnect cannot break the successor connection.
    epoch: u64,
    /// Next sequence number to assign to an outbound frame.
    send_seq: u64,
    /// Sent but unacked packets, oldest first, for retransmission:
    /// `(seq, is_data, encoded packet)`. A replayed packet carries the
    /// ack of its first send; acks are cumulative, so a stale one is
    /// harmless.
    sent: VecDeque<(u64, bool, Vec<u8>)>,
    /// Receive cursor: next peer sequence number to deliver.
    recv_next: u64,
    /// Terminal: no reconnects, sends become no-ops.
    dead: bool,
    /// Whether this link ever completed a handshake.
    connected_once: bool,
}

/// A session-layer link endpoint: state + wakeup for reader/manager
/// threads and drain waiters.
struct Link<S> {
    state: Mutex<LinkState<S>>,
    cv: Condvar,
}

impl<S: Conn> Link<S> {
    fn new() -> Self {
        Link {
            state: Mutex::new(LinkState {
                stream: None,
                epoch: 0,
                send_seq: 0,
                sent: VecDeque::new(),
                recv_next: 0,
                dead: false,
                connected_once: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Sever the connection (if any) and wake waiters. The epoch bump
    /// invalidates every thread still holding the old connection.
    fn break_link_locked(&self, st: &mut LinkState<S>) {
        if let Some(s) = st.stream.take() {
            s.close();
        }
        st.epoch += 1;
        self.cv.notify_all();
    }

    /// Retire the link for good: no reconnects, no more sends.
    fn kill(&self) {
        let mut st = plock(&self.state);
        st.dead = true;
        self.break_link_locked(&mut st);
    }

    /// Drop acked entries: everything below the peer's receive cursor.
    /// Wakes waiters only when the queue empties, the one state a drain
    /// waits for.
    fn prune_locked(&self, st: &mut LinkState<S>, ack: u64) {
        let mut pruned = false;
        while st.sent.front().is_some_and(|(s, _, _)| *s < ack) {
            st.sent.pop_front();
            pruned = true;
        }
        if pruned && st.sent.is_empty() {
            self.cv.notify_all();
        }
    }

    /// Sequence, queue, and (when connected) write one frame. Writes
    /// happen under the state lock in sequence order — that ordering is
    /// what makes `Ping::sent` a sound gap probe. `chaos` is the
    /// worker-side fault interposer (`None` on the supervisor).
    fn send_data(&self, frame: Frame, chaos: Option<&NetFaults>) {
        let mut st = plock(&self.state);
        if st.dead {
            return;
        }
        let seq = st.send_seq;
        st.send_seq += 1;
        let is_data = !matches!(frame, Frame::Heartbeat { .. });
        let bytes = encode_wire(&Packet::Data {
            seq,
            ack: st.recv_next,
            frame,
        });
        let fault = chaos
            .map(|c| c.plan_write(bytes.len(), is_data))
            .unwrap_or_default();
        let wrote = match st.stream.as_ref() {
            Some(stream) => apply_write_fault(stream, &bytes, &fault),
            None => Ok(()), // disconnected: queued for retransmit
        };
        st.sent.push_back((seq, is_data, bytes));
        if wrote.is_err() || (st.stream.is_some() && fault.reset_after) {
            self.break_link_locked(&mut st);
        }
    }

    /// Session bookkeeping for one inbound `Data` packet read on
    /// connection `epoch`: prune what the peer acked and report whether
    /// the packet is the next in order (deliver it). A gap breaks the
    /// link for a resync; a duplicate, or a packet from a superseded
    /// connection, is dropped.
    fn on_data(&self, epoch: u64, seq: u64, ack: u64) -> bool {
        let mut st = plock(&self.state);
        if st.epoch != epoch {
            return false;
        }
        self.prune_locked(&mut st, ack);
        if seq == st.recv_next {
            st.recv_next += 1;
            return true;
        }
        if seq > st.recv_next {
            // the wire lost frames; force a resync
            telemetry::counter_add("comm.session.seq_gaps", 1);
            self.break_link_locked(&mut st);
        }
        false
    }

    /// A read on connection `epoch` failed: break the link unless a
    /// reconnect already superseded that connection.
    fn on_read_error(&self, epoch: u64, e: &FrameError) {
        let mut st = plock(&self.state);
        if st.epoch == epoch {
            if !matches!(e, FrameError::Eof) {
                telemetry::counter_add("comm.session.link_errors", 1);
            }
            self.break_link_locked(&mut st);
        }
    }

    /// Supervisor-side probe: ack what we have, advertise what we sent.
    fn send_ping(&self) {
        let mut st = plock(&self.state);
        let Some(stream) = st.stream.as_ref() else {
            return;
        };
        let bytes = encode_wire(&Packet::Ping {
            ack: st.recv_next,
            sent: st.send_seq,
        });
        if stream.write_bytes(&bytes).is_err() {
            self.break_link_locked(&mut st);
        }
    }

    /// Handshake tail shared by both ends, run under the state lock so
    /// no send interleaves: prune what the peer's `resume` cursor acks,
    /// answer with our own cursor (`hello_ack`, the supervisor's side),
    /// replay every unacked packet on `stream`, then install it.
    /// Returns the new connection epoch, a clone of the stream for its
    /// reader, and whether this was a reconnect.
    fn install(
        &self,
        stream: S,
        resume: u64,
        hello_ack: bool,
        chaos: Option<&NetFaults>,
    ) -> Result<(u64, S, bool), String> {
        let mut st = plock(&self.state);
        if st.dead {
            return Err("link already retired".into());
        }
        self.prune_locked(&mut st, resume);
        self.break_link_locked(&mut st);
        let replayed = (|| {
            if hello_ack {
                let ack = Packet::HelloAck {
                    resume: st.recv_next,
                };
                stream.write_bytes(&encode_wire(&ack))?;
            }
            for (_, is_data, bytes) in &st.sent {
                let fault = chaos
                    .map(|c| c.plan_write(bytes.len(), *is_data))
                    .unwrap_or_default();
                apply_write_fault(&stream, bytes, &fault)?;
                if fault.reset_after {
                    return Err(io::Error::other("chaos: scheduled reset during replay"));
                }
            }
            stream.try_clone()
        })();
        let reader = replayed.map_err(|e| {
            stream.close();
            format!("handshake replay failed: {e}")
        })?;
        st.stream = Some(stream);
        let reconnect = std::mem::replace(&mut st.connected_once, true);
        Ok((st.epoch, reader, reconnect))
    }
}

/// Write `bytes` to `stream`, filtered through one frame's chaos
/// decisions: delay, silent drop, single-bit corruption, chunked
/// partial writes, bandwidth pacing. `reset_after` is left to the
/// caller (it must sever the link *after* the write).
fn apply_write_fault<S: Conn>(stream: &S, bytes: &[u8], fault: &WriteFault) -> io::Result<()> {
    if let Some(d) = fault.delay {
        std::thread::sleep(d);
    }
    if !fault.drop {
        let corrupted;
        let buf: &[u8] = match fault.corrupt_bit {
            Some(bit) if !bytes.is_empty() => {
                let mut owned = bytes.to_vec();
                let i = (bit / 8) % owned.len();
                owned[i] ^= 1 << (bit % 8);
                corrupted = owned;
                &corrupted
            }
            _ => bytes,
        };
        match fault.chunks {
            Some(n) if buf.len() > 1 => {
                let n = n.clamp(2, buf.len());
                let step = buf.len().div_ceil(n);
                let mut off = 0;
                while off < buf.len() {
                    let end = (off + step).min(buf.len());
                    stream.write_bytes(&buf[off..end])?;
                    off = end;
                    if off < buf.len() {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }
            _ => stream.write_bytes(buf)?,
        }
    }
    if let Some(t) = fault.throttle {
        std::thread::sleep(t);
    }
    Ok(())
}

// ----------------------------------------------------------------------
// supervisor side
// ----------------------------------------------------------------------

/// One rank's terminal outcome: its Wire-encoded program result, or
/// how it failed.
type RankResult = Result<Vec<u8>, RankError>;

/// Shared supervisor state: one session link per rank, liveness
/// bookkeeping, first-wins abort record, result slots.
struct Router<S> {
    size: usize,
    links: Vec<Link<S>>,
    last_beat: Vec<Mutex<Instant>>,
    /// Last liveness context heartbeated by each rank: (comm op index,
    /// telemetry phase). `(u64::MAX, "")` until the first beat that
    /// carries one. Lets the supervisor name a dead process's last
    /// known activity in the abort reason and the flight postmortem.
    last_ctx: Vec<Mutex<(u64, String)>>,
    /// Rank reached a terminal state (Done, Failed, or declared dead).
    terminal: Vec<AtomicBool>,
    /// Frames from each rank fully handled. The process-exit check
    /// waits for this to catch up with the link's receive cursor: a
    /// worker exits as soon as its terminal frame is acked, which can
    /// be before the reader has recorded that frame. Incremented with
    /// `Release` after the handling, loaded with `Acquire` by the
    /// monitor, so a count it sees covers that frame's `finish`.
    handled: Vec<AtomicU64>,
    results: Mutex<Vec<Option<RankResult>>>,
    abort: Mutex<Option<AbortInfo>>,
    children: Mutex<Vec<Option<Child>>>,
    stop: AtomicBool,
    /// Count of terminal ranks, guarded with `done_cv` for the waiter.
    done: Mutex<usize>,
    done_cv: Condvar,
}

impl<S: Conn> Router<S> {
    fn new(size: usize) -> Self {
        Router {
            size,
            links: (0..size).map(|_| Link::new()).collect(),
            last_beat: (0..size).map(|_| Mutex::new(Instant::now())).collect(),
            last_ctx: (0..size)
                .map(|_| Mutex::new((u64::MAX, String::new())))
                .collect(),
            terminal: (0..size).map(|_| AtomicBool::new(false)).collect(),
            handled: (0..size).map(|_| AtomicU64::new(0)).collect(),
            results: Mutex::new((0..size).map(|_| None).collect()),
            abort: Mutex::new(None),
            children: Mutex::new((0..size).map(|_| None).collect()),
            stop: AtomicBool::new(false),
            done: Mutex::new(0),
            done_cv: Condvar::new(),
        }
    }

    /// Record the first failure and broadcast it to every non-terminal
    /// rank; later callers keep the original origin. The abort travels
    /// sequenced, so a rank that is mid-reconnect still gets it after
    /// the handshake replay.
    fn record_abort(&self, origin: usize, reason: String) {
        {
            let mut info = plock(&self.abort);
            if info.is_some() {
                return;
            }
            *info = Some(AbortInfo {
                origin,
                reason: reason.clone(),
            });
        }
        for r in 0..self.size {
            if !self.terminal[r].load(Ordering::Acquire) {
                self.links[r].send_data(
                    Frame::Abort {
                        origin: origin as u64,
                        reason: reason.clone(),
                    },
                    None,
                );
            }
        }
    }

    /// Move `rank` to a terminal state with `outcome` (first writer
    /// wins) and wake the supervisor if everyone is now terminal.
    fn finish(&self, rank: usize, outcome: RankResult) {
        {
            let mut results = plock(&self.results);
            if results[rank].is_some() {
                return;
            }
            results[rank] = Some(outcome);
        }
        self.terminal[rank].store(true, Ordering::Release);
        let mut done = plock(&self.done);
        *done += 1;
        self.done_cv.notify_all();
    }

    /// SIGKILL `rank`'s process, if still tracked.
    fn kill_child(&self, rank: usize) {
        if let Some(child) = plock(&self.children)[rank].as_mut() {
            let _ = child.kill();
        }
    }

    /// Supervisor-side flight record of a peer death: a `PeerFailed`
    /// event naming the victim's last known comm op and phase, then
    /// the postmortem dump (`flight-sup.qfr` — the supervisor has no
    /// rank of its own).
    fn flight_peer_failed(&self, rank: usize, op: u64, phase: &str) {
        if !telemetry::flight::armed() {
            return;
        }
        let phase = if phase.is_empty() { "?" } else { phase };
        telemetry::flight::event(
            telemetry::flight::FlightKind::PeerFailed,
            rank as u32,
            if op == u64::MAX { 0 } else { op },
            telemetry::flight::name_id(phase) as u64,
        );
        telemetry::flight::dump_postmortem(telemetry::flight::NO_RANK);
    }

    /// Declare `rank`'s process dead: record the failure, abort the
    /// world, mark terminal, retire the link so a zombie reconnect
    /// cannot resurrect the rank, then kill the process for certainty.
    fn declare_dead(&self, rank: usize, reason: String) {
        telemetry::counter_add("comm.peer_failures", 1);
        let (op, phase) = plock(&self.last_ctx[rank]).clone();
        let reason = if op != u64::MAX {
            format!(
                "{reason}; last heartbeat reported comm op {op} in phase '{}'",
                if phase.is_empty() {
                    "?"
                } else {
                    phase.as_str()
                }
            )
        } else {
            reason
        };
        self.flight_peer_failed(rank, op, &phase);
        self.record_abort(rank, reason.clone());
        self.finish(
            rank,
            Err(RankError::Failed(CommError::PeerFailed { rank, reason })),
        );
        self.links[rank].kill();
        self.kill_child(rank);
    }

    /// Why non-terminal `rank` counts as dead at `now`, if it does: its
    /// process exited with every delivered frame handled, it never
    /// connected by `connect_deadline`, or it connected and then missed
    /// a full heartbeat window.
    fn death_reason(
        &self,
        rank: usize,
        now: Instant,
        connect_deadline: Instant,
        opts: &SocketOptions,
    ) -> Option<String> {
        let exited = plock(&self.children)[rank]
            .as_mut()
            .and_then(|c| c.try_wait().ok().flatten());
        let (delivered, connected) = {
            let st = plock(&self.links[rank].state);
            (st.recv_next, st.connected_once)
        };
        if let Some(status) = exited {
            if self.handled[rank].load(Ordering::Acquire) >= delivered {
                return Some(format!("rank {rank} process died: {status}"));
            }
        }
        if !connected {
            return (now >= connect_deadline).then(|| {
                format!(
                    "rank {rank} worker never connected within {:?}",
                    opts.connect_timeout
                )
            });
        }
        let last = *plock(&self.last_beat[rank]);
        (now.duration_since(last) > opts.death_window()).then(|| {
            telemetry::counter_add("comm.heartbeat.missed", 1);
            format!(
                "rank {rank} missed its heartbeat window ({}×{:?} with no beat)",
                opts.heartbeat_grace, opts.heartbeat_interval
            )
        })
    }
}

/// Dispatch one delivered (in-order, deduplicated) frame from `rank`.
fn sup_handle_frame<S: Conn>(router: &Router<S>, rank: usize, frame: Frame) {
    match frame {
        Frame::Msg {
            src,
            dst,
            tag,
            type_tag,
            bytes,
            data,
        } => {
            let dst_usize = dst as usize;
            if src as usize != rank || dst_usize >= router.size {
                router.declare_dead(
                    rank,
                    format!(
                        "rank {rank} sent a corrupt route (src={src} dst={dst}, size {})",
                        router.size
                    ),
                );
                return;
            }
            router.links[dst_usize].send_data(
                Frame::Msg {
                    src,
                    dst,
                    tag,
                    type_tag,
                    bytes,
                    data,
                },
                None,
            );
        }
        Frame::Heartbeat { op, phase, .. } => {
            telemetry::counter_add("comm.heartbeat.received", 1);
            *plock(&router.last_beat[rank]) = Instant::now();
            *plock(&router.last_ctx[rank]) = (op, phase);
        }
        Frame::Abort { origin, reason } => {
            router.record_abort(origin as usize, reason);
        }
        Frame::Done { result, .. } => {
            router.finish(rank, Ok(result));
            // ack promptly so the worker's terminal-frame drain wait
            // returns without waiting for the next monitor sweep
            router.links[rank].send_ping();
        }
        Frame::Failed {
            panicked,
            reason,
            error,
            ..
        } => {
            router.record_abort(rank, reason.clone());
            let rank_error = if panicked {
                RankError::Panicked(reason)
            } else {
                RankError::Failed(error.unwrap_or(CommError::PeerFailed { rank, reason }))
            };
            router.finish(rank, Err(rank_error));
            router.links[rank].send_ping();
        }
        Frame::RequestKill { op, .. } => {
            telemetry::counter_add("comm.sigkill.injected", 1);
            let phase = plock(&router.last_ctx[rank]).1.clone();
            router.flight_peer_failed(rank, op, &phase);
            let reason =
                format!("fault injection: scheduled SIGKILL at comm op {op} on rank {rank}");
            router.record_abort(rank, reason.clone());
            router.finish(
                rank,
                Err(RankError::Failed(CommError::PeerFailed { rank, reason })),
            );
            router.kill_child(rank);
        }
    }
}

/// Reader for one accepted connection epoch. Exits when the stream
/// errors or the world stops. A read error *breaks the link* (liveness
/// stays with the monitor) — it never declares the rank dead by itself.
fn sup_reader_loop<S: Conn>(
    router: &Router<S>,
    rank: usize,
    mut stream: S,
    epoch: u64,
    max_frame: u32,
) {
    let link = &router.links[rank];
    loop {
        match read_wire_stalling::<Packet>(&mut stream, &router.stop, max_frame, FRAME_STALL) {
            Ok(Packet::Data { seq, ack, frame }) => {
                if link.on_data(epoch, seq, ack) {
                    sup_handle_frame(router, rank, frame);
                    router.handled[rank].fetch_add(1, Ordering::Release);
                }
            }
            Ok(_) => { /* Hello/HelloAck/Ping have no mid-stream meaning here */ }
            Err(FrameError::Stopped) => return,
            Err(e) => {
                link.on_read_error(epoch, &e);
                return;
            }
        }
    }
}

/// Handshake one accepted connection: identify the rank, exchange
/// receive cursors, retransmit unacked frames, install the stream, and
/// hand it to a fresh reader thread.
fn handshake_accept<S: Conn>(router: &Arc<Router<S>>, mut stream: S, max_frame: u32) {
    if stream.set_timeouts().is_err() {
        return;
    }
    let hello = read_wire_timeout::<Packet>(&mut stream, HANDSHAKE_TIMEOUT, max_frame);
    let Ok(Packet::Hello { rank, resume }) = hello else {
        return; // not a worker (or its Hello was eaten by chaos)
    };
    let rank = rank as usize;
    if rank >= router.size || router.terminal[rank].load(Ordering::Acquire) {
        return; // unknown or already-terminal rank: refuse resurrection
    }
    let installed = router.links[rank].install(stream, resume, true, None);
    let Ok((epoch, reader_stream, reconnect)) = installed else {
        return;
    };
    if reconnect {
        // Record in the process-global registry: supervisor threads
        // have no per-rank recorder, and tests assert on this counter
        // from the supervising process.
        telemetry::global().counter("transport.reconnects").incr();
        telemetry::counter_add("transport.reconnects", 1);
    }
    // a resumed connection proves the process is alive right now
    *plock(&router.last_beat[rank]) = Instant::now();
    let router_r = Arc::clone(router);
    let _ = std::thread::Builder::new()
        .name(format!("sup-read-{rank}-e{epoch}"))
        .spawn(move || sup_reader_loop(&router_r, rank, reader_stream, epoch, max_frame));
}

/// Persistent accept loop: workers connect here both at startup and on
/// every reconnect. The accept blocks; teardown wakes it with a
/// connection of its own after raising `stop`.
fn accept_loop<S: Conn>(router: &Arc<Router<S>>, listener: S::Listener, max_frame: u32) {
    loop {
        let accepted = S::accept(&listener);
        if router.stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok(stream) => handshake_accept(router, stream, max_frame),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Liveness monitor: sweep non-terminal ranks for process exit, a
/// missed connect deadline, or a missed heartbeat window; then
/// ping-probe every connected rank (terminal ones included, so a
/// finished worker's Done gets acked); then enforce the global
/// wall-clock backstop.
fn monitor_loop<S: Conn>(
    router: &Router<S>,
    opts: &SocketOptions,
    connect_deadline: Instant,
    hard_deadline: Instant,
) {
    let sweep = (opts.heartbeat_interval / 2).max(Duration::from_millis(5));
    loop {
        if router.stop.load(Ordering::Acquire) {
            return;
        }
        std::thread::sleep(sweep);
        let now = Instant::now();
        for rank in 0..router.size {
            if router.terminal[rank].load(Ordering::Acquire) {
                continue;
            }
            if let Some(reason) = router.death_reason(rank, now, connect_deadline, opts) {
                router.declare_dead(rank, reason);
            }
        }
        for link in &router.links {
            link.send_ping();
        }
        if now >= hard_deadline {
            for rank in 0..router.size {
                if !router.terminal[rank].load(Ordering::Acquire) {
                    router.declare_dead(
                        rank,
                        format!("rank {rank} still running at the supervisor deadline"),
                    );
                }
            }
            return;
        }
    }
}

/// Run `program` across `size` worker processes connected over `S`.
/// See the module docs for the protocol; failure reporting matches the
/// thread backend's [`try_run_with`](crate::try_run_with) in shape.
pub(crate) fn run_world<S: Conn>(
    size: usize,
    opts: &RunOptions,
    sock: &SocketOptions,
    program: &str,
    args: &[u8],
    attempt: Attempt,
) -> Result<Vec<Vec<u8>>, WorldError> {
    assert!(size > 0);
    telemetry::flight::arm();
    let (listener, addr) = S::bind().unwrap_or_else(|e| panic!("bind {} listener: {e}", S::SCHEME));
    let router = Arc::new(Router::<S>::new(size));
    let started = Instant::now();

    for rank in 0..size {
        let mut cmd = Command::new(&sock.worker);
        cmd.env(ENV_ADDR, format!("{}:{addr}", S::SCHEME))
            .env(ENV_RANK, rank.to_string())
            .env(ENV_SIZE, size.to_string())
            .env(ENV_PROGRAM, program)
            .env(ENV_ARGS, hex_encode(args))
            .env(
                ENV_RECV_TIMEOUT_MS,
                opts.recv_timeout.as_millis().to_string(),
            )
            .env(
                ENV_HEARTBEAT_MS,
                sock.heartbeat_interval.as_millis().max(1).to_string(),
            )
            .env(ENV_ATTEMPT, attempt.index.to_string())
            .env(ENV_MAX_FRAME, sock.max_frame_len.to_string())
            .env(ENV_RECONNECT, hex_encode(&sock.reconnect.to_wire()))
            .stdin(Stdio::null());
        // children dump their flight postmortems next to the
        // supervisor's (set_postmortem_dir only affects this process)
        if let Some(dir) = telemetry::flight::postmortem_dir() {
            cmd.env(telemetry::flight::ENV_FLIGHT_DIR, &dir);
        }
        if let Some(plan) = &opts.faults {
            cmd.env(ENV_FAULTS, hex_encode(&plan.to_wire()));
        }
        match cmd.spawn() {
            Ok(child) => plock(&router.children)[rank] = Some(child),
            Err(e) => panic!(
                "spawn worker {} for rank {rank}: {e}",
                sock.worker.display()
            ),
        }
    }

    // persistent accept thread: initial connections AND reconnects
    let accept = {
        let router_a = Arc::clone(&router);
        let max_frame = sock.max_frame_len;
        std::thread::Builder::new()
            .name("sup-accept".into())
            .spawn(move || accept_loop(&router_a, listener, max_frame))
            .expect("spawn accept")
    };

    // liveness monitor with a generous global backstop: children
    // enforce their own recv timeouts, this only catches a wedged
    // supervisor protocol
    let hard_deadline = started + opts.recv_timeout + opts.recv_timeout + sock.death_window();
    let monitor = {
        let router_m = Arc::clone(&router);
        let sock_m = sock.clone();
        let connect_deadline = started + sock.connect_timeout;
        std::thread::Builder::new()
            .name("sup-monitor".into())
            .spawn(move || monitor_loop(&router_m, &sock_m, connect_deadline, hard_deadline))
            .expect("spawn monitor")
    };

    // wait until every rank is terminal
    {
        let mut done = plock(&router.done);
        while *done < size {
            let (d, timed_out) = router
                .done_cv
                .wait_timeout(done, Duration::from_millis(500))
                .unwrap_or_else(|p| p.into_inner());
            done = d;
            if timed_out.timed_out() && Instant::now() > hard_deadline + Duration::from_secs(10) {
                // paranoia backstop in case the monitor thread died
                drop(done);
                for rank in 0..size {
                    if !router.terminal[rank].load(Ordering::Acquire) {
                        router.declare_dead(rank, format!("rank {rank}: supervisor gave up"));
                    }
                }
                done = plock(&router.done);
            }
        }
    }

    // teardown: retire links, stop accept/monitor, reap children
    router.stop.store(true, Ordering::Release);
    for link in &router.links {
        link.kill();
    }
    if S::connect(&addr).is_ok() {
        let _ = accept.join();
    }
    let _ = monitor.join();
    for child in plock(&router.children).iter_mut().flatten() {
        let _ = child.kill(); // no-op for cleanly exited children
        let _ = child.wait(); // reap
    }
    S::unbind(&addr);

    // assemble the world result, mirroring try_run_with
    let results = std::mem::take(&mut *plock(&router.results));
    let mut values = Vec::with_capacity(size);
    let mut failures = Vec::new();
    for (rank, outcome) in results.into_iter().enumerate() {
        match outcome.expect("every rank terminal") {
            Ok(v) => values.push(v),
            Err(error) => failures.push(RankFailure { rank, error }),
        }
    }
    if failures.is_empty() {
        Ok(values)
    } else {
        let (origin, reason) = plock(&router.abort)
            .clone()
            .map(|i| (i.origin, i.reason))
            .unwrap_or_else(|| (failures[0].rank, failures[0].error.to_string()));
        Err(WorldError {
            size,
            origin,
            reason,
            failures,
        })
    }
}

// ----------------------------------------------------------------------
// worker (child) side
// ----------------------------------------------------------------------

/// The worker half of a process world: one inbox fed by a reader
/// thread, a session link to the supervisor, local abort state, the
/// chaos interposer, the reconnect policy and a heartbeat kill switch.
/// Implements [`Transport`] so the rank's `Comm` runs the exact same
/// matching/collective/abort logic as on threads.
struct ChildLink<S> {
    rank: usize,
    size: usize,
    recv_timeout: Duration,
    addr: String,
    inbox: Mailbox,
    aborted: AtomicBool,
    abort: Mutex<Option<AbortInfo>>,
    link: Link<S>,
    /// Deterministic network-chaos interposer; `None` when the fault
    /// plan has no network ops.
    chaos: Option<NetFaults>,
    policy: RecoveryPolicy,
    max_frame: u32,
    heartbeat: Duration,
    /// Set to silence the heartbeat thread (stall injection, exit).
    hb_stop: AtomicBool,
    /// Set to retire the reader and manager threads on exit.
    stop: AtomicBool,
    status: Mutex<RankState>,
    tag_names: Mutex<HashMap<u64, &'static str>>,
    /// Most recent counted comm op (via [`Transport::note_comm_op`]),
    /// folded into outgoing heartbeats; `u64::MAX` until the first op.
    last_op: AtomicU64,
    /// Telemetry phase active at that op (`""` when none).
    last_phase: Mutex<&'static str>,
}

impl<S: Conn> ChildLink<S> {
    /// Send one frame to the supervisor through the session layer.
    fn send(&self, frame: Frame) {
        self.link.send_data(frame, self.chaos.as_ref());
    }

    /// Record an abort locally and wake the (single) blocked receiver.
    /// Does not echo to the supervisor.
    fn local_abort(&self, origin: usize, reason: String) {
        {
            let mut info = plock(&self.abort);
            if info.is_none() {
                *info = Some(AbortInfo { origin, reason });
            }
        }
        self.aborted.store(true, Ordering::Release);
        let _guard = plock(&self.inbox.queue);
        self.inbox.cv.notify_all();
    }

    /// Give up on the supervisor: the link is terminally dead, blocked
    /// receives unwind, and the supervisor's monitor escalates.
    fn mark_dead(&self, reason: String) {
        self.link.kill();
        self.local_abort(usize::MAX, reason);
    }

    /// One connect + handshake + replay round. `Ok` means the supervisor
    /// answered; the stream is then installed for the reader unless the
    /// replay broke it again.
    fn try_connect(&self) -> Result<(), String> {
        let stream = S::connect(&self.addr).map_err(|e| e.to_string())?;
        stream.set_timeouts().map_err(|e| e.to_string())?;
        // raw Hello, chaos-interposed: a severed out-direction eats it
        // and the HelloAck timeout fails this attempt (backoff, retry)
        let hello = encode_wire(&Packet::Hello {
            rank: self.rank as u64,
            resume: plock(&self.link.state).recv_next,
        });
        let fault = self
            .chaos
            .as_ref()
            .map(|c| c.plan_write(hello.len(), false))
            .unwrap_or_default();
        apply_write_fault(&stream, &hello, &fault).map_err(|e| e.to_string())?;
        if fault.reset_after {
            return Err("chaos: scheduled reset during handshake".into());
        }
        let mut rs = stream.try_clone().map_err(|e| e.to_string())?;
        let ack = read_wire_timeout::<Packet>(&mut rs, HANDSHAKE_TIMEOUT, self.max_frame)
            .map_err(|e| e.to_string())?;
        if self.chaos.as_ref().is_some_and(|c| c.drop_inbound()) {
            return Err("chaos: inbound partition ate the handshake ack".into());
        }
        let Packet::HelloAck { resume } = ack else {
            return Err("handshake: unexpected packet in place of HelloAck".into());
        };
        // A completed handshake proves the supervisor reachable: a replay
        // that breaks part-way still moved its cursor, so only a retired
        // link fails the attempt, and the next break starts a fresh
        // reconnect schedule.
        match self
            .link
            .install(stream, resume, false, self.chaos.as_ref())
        {
            Err(e) if plock(&self.link.state).dead => Err(e),
            _ => Ok(()),
        }
    }
}

impl<S: Conn> Transport for ChildLink<S> {
    fn size(&self) -> usize {
        self.size
    }

    fn recv_timeout(&self) -> Duration {
        self.recv_timeout
    }

    fn serializes(&self) -> bool {
        true
    }

    fn mailbox(&self, rank: usize) -> &Mailbox {
        debug_assert_eq!(rank, self.rank);
        &self.inbox
    }

    fn deliver(&self, dest: usize, msg: Msg) {
        if dest == self.rank {
            // self-sends stay local: no supervisor round trip
            self.inbox.push(msg);
            return;
        }
        match msg.payload {
            Payload::Bytes { type_tag, data } => self.send(Frame::Msg {
                src: msg.src as u64,
                dst: dest as u64,
                tag: msg.tag,
                type_tag,
                bytes: msg.bytes,
                data,
            }),
            Payload::Local(_) => {
                unreachable!("process transport serializes every payload at send_value")
            }
        }
    }

    fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    fn abort(&self, origin: usize, reason: String) {
        self.local_abort(origin, reason.clone());
        self.send(Frame::Abort {
            origin: origin as u64,
            reason,
        });
    }

    fn abort_error(&self) -> CommError {
        match plock(&self.abort).clone() {
            Some(AbortInfo { origin, reason }) => CommError::Aborted { origin, reason },
            None => CommError::Aborted {
                origin: usize::MAX,
                reason: "world aborted".into(),
            },
        }
    }

    fn set_status(&self, rank: usize, state: RankState) {
        debug_assert_eq!(rank, self.rank);
        *plock(&self.status) = state;
    }

    fn diagnostic(&self) -> String {
        // peers live in other processes; report what this rank knows
        let state = plock(&self.status).clone();
        format!(
            "deadlock diagnostic (process backend over {}, rank {} of {}, recv timeout {:?}):\n  \
             local state: {state:?}\n  \
             (peer states live in their own processes; see the supervisor's report)\n",
            S::SCHEME,
            self.rank,
            self.size,
            self.recv_timeout
        )
    }

    fn tag_label(&self, tag: u64) -> String {
        let base = crate::error::tag_display(tag);
        if tag >= crate::COLL_TAG_BASE {
            let seq = (tag - crate::COLL_TAG_BASE) & 0xFFFF_FFFF;
            if let Some(name) = plock(&self.tag_names).get(&seq) {
                return format!("{base}({name})");
            }
        }
        base
    }

    fn name_collective(&self, seq: u64, phase: &'static str) {
        plock(&self.tag_names).entry(seq).or_insert(phase);
    }

    fn request_kill(&self, rank: usize, op: u64) -> bool {
        self.send(Frame::RequestKill {
            rank: rank as u64,
            op,
        });
        true
    }

    fn begin_stall(&self, _rank: usize, _op: u64) -> bool {
        self.hb_stop.store(true, Ordering::Release);
        true
    }

    fn note_comm_op(&self, op: u64, phase: Option<&'static str>) {
        self.last_op.store(op, Ordering::Relaxed);
        *plock(&self.last_phase) = phase.unwrap_or("");
    }
}

/// Persistent worker reader: waits for a live connection epoch, reads
/// packets until it breaks, repeats. The in-direction chaos check runs
/// *before* any cursor moves, so a chaos-dropped packet looks exactly
/// like a wire loss and heals by retransmission.
fn child_reader_loop<S: Conn>(child: &ChildLink<S>) {
    loop {
        let (mut stream, epoch) = {
            let mut st = plock(&child.link.state);
            loop {
                if st.dead || child.stop.load(Ordering::Acquire) {
                    return;
                }
                if let Some(s) = st.stream.as_ref() {
                    match s.try_clone() {
                        Ok(c) => break (c, st.epoch),
                        Err(_) => {
                            child.link.break_link_locked(&mut st);
                            continue;
                        }
                    }
                }
                st = child
                    .link
                    .cv
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
        };
        loop {
            let pkt = match read_wire_stalling::<Packet>(
                &mut stream,
                &child.stop,
                child.max_frame,
                FRAME_STALL,
            ) {
                Ok(pkt) => pkt,
                Err(FrameError::Stopped) => return,
                Err(e) => {
                    child.link.on_read_error(epoch, &e);
                    break; // back to waiting for the next epoch
                }
            };
            if child.chaos.as_ref().is_some_and(|c| c.drop_inbound()) {
                continue; // severed in-direction: the wire ate it
            }
            match pkt {
                Packet::Data { seq, ack, frame } => {
                    if !child.link.on_data(epoch, seq, ack) {
                        continue;
                    }
                    match frame {
                        Frame::Msg {
                            src,
                            dst,
                            tag,
                            type_tag,
                            bytes,
                            data,
                        } => {
                            debug_assert_eq!(dst as usize, child.rank);
                            child.inbox.push(Msg {
                                src: src as usize,
                                tag,
                                payload: Payload::Bytes { type_tag, data },
                                bytes,
                            });
                        }
                        Frame::Abort { origin, reason } => {
                            child.local_abort(origin as usize, reason);
                        }
                        _ => { /* the supervisor sends nothing else */ }
                    }
                }
                Packet::Ping { ack, sent } => {
                    let mut st = plock(&child.link.state);
                    if st.epoch == epoch {
                        child.link.prune_locked(&mut st, ack);
                        if sent > st.recv_next {
                            // frames written before this ping never
                            // arrived: wire loss
                            telemetry::counter_add("comm.session.seq_gaps", 1);
                            child.link.break_link_locked(&mut st);
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// Connection manager: initial connect within [`CONNECT_TIMEOUT`],
/// then reconnect-with-backoff on every break until the reconnect
/// schedule is exhausted (→ the rank gives up and aborts locally).
fn child_manager_loop<S: Conn>(child: &ChildLink<S>) {
    // initial connect: generous flat retry
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    loop {
        if child.stop.load(Ordering::Acquire) {
            return;
        }
        match child.try_connect() {
            Ok(()) => break,
            Err(e) => {
                if Instant::now() >= deadline {
                    child.mark_dead(format!(
                        "cannot reach supervisor at {} within {CONNECT_TIMEOUT:?}: {e}",
                        child.addr
                    ));
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
    // steady state: sleep until the link breaks, then run the backoff
    // schedule; a success resets the schedule for the next outage
    loop {
        {
            let mut st = plock(&child.link.state);
            while st.stream.is_some() && !st.dead && !child.stop.load(Ordering::Acquire) {
                st = child
                    .link
                    .cv
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(|p| p.into_inner())
                    .0;
            }
            if st.dead || child.stop.load(Ordering::Acquire) {
                return;
            }
        }
        let mut reconnected = false;
        for attempt in 0..child.policy.max_attempts {
            if child.stop.load(Ordering::Acquire) {
                return;
            }
            if child.try_connect().is_ok() {
                telemetry::counter_add("comm.session.child_reconnects", 1);
                reconnected = true;
                break;
            }
            std::thread::sleep(child.policy.backoff_for(attempt));
        }
        if !reconnected {
            child.mark_dead(format!(
                "supervisor unreachable after {} reconnect attempts",
                child.policy.max_attempts
            ));
            return;
        }
    }
}

/// Liveness beacon: one heartbeat per interval until silenced.
fn child_heartbeat_loop<S: Conn>(child: &ChildLink<S>) {
    let mut seq = 0u64;
    while !child.hb_stop.load(Ordering::Acquire) {
        child.send(Frame::Heartbeat {
            rank: child.rank as u64,
            seq,
            op: child.last_op.load(Ordering::Relaxed),
            phase: plock(&child.last_phase).to_string(),
        });
        telemetry::counter_add("comm.heartbeat.sent", 1);
        seq += 1;
        std::thread::sleep(child.heartbeat);
    }
}

/// Parse the worker environment, run the requested program, report the
/// outcome in-band, drain the terminal frame. Returns the exit code.
fn run_child<S: Conn>(registry: &ProgramRegistry, addr: &str) -> i32 {
    let env_num = |key: &str| -> u64 {
        std::env::var(key)
            .unwrap_or_else(|_| panic!("worker env {key} missing"))
            .parse()
            .unwrap_or_else(|_| panic!("worker env {key} malformed"))
    };
    let rank = env_num(ENV_RANK) as usize;
    let size = env_num(ENV_SIZE) as usize;
    let program = std::env::var(ENV_PROGRAM).expect("program name");
    let args = hex_decode(&std::env::var(ENV_ARGS).unwrap_or_default()).expect("args hex");
    let recv_timeout = Duration::from_millis(env_num(ENV_RECV_TIMEOUT_MS));
    let heartbeat = Duration::from_millis(env_num(ENV_HEARTBEAT_MS).max(1));
    let attempt = Attempt {
        index: env_num(ENV_ATTEMPT) as usize,
    };
    let max_frame = env_num(ENV_MAX_FRAME) as u32;
    let policy = RecoveryPolicy::from_wire(
        &hex_decode(&std::env::var(ENV_RECONNECT).expect("reconnect policy"))
            .expect("reconnect hex"),
    )
    .expect("reconnect policy decodes");
    let faults = std::env::var(ENV_FAULTS).ok().map(|hex| {
        crate::FaultPlan::from_wire(&hex_decode(&hex).expect("fault hex"))
            .expect("fault plan decodes")
    });

    // Flight recorder: every worker records its own ring and, on a
    // clean failure, dumps it before reporting (a SIGKILLed worker
    // obviously cannot — the supervisor's dump covers that case).
    telemetry::flight::arm();
    telemetry::flight::set_thread_rank(rank as u32);

    let chaos = faults
        .as_ref()
        .filter(|p| p.net_is_active())
        .map(|p| p.compile_net(rank));
    let link = Arc::new(ChildLink::<S> {
        rank,
        size,
        recv_timeout,
        addr: addr.to_string(),
        inbox: Mailbox::new(),
        aborted: AtomicBool::new(false),
        abort: Mutex::new(None),
        link: Link::new(),
        chaos,
        policy,
        max_frame,
        heartbeat,
        hb_stop: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        status: Mutex::new(RankState::Running),
        tag_names: Mutex::new(HashMap::new()),
        last_op: AtomicU64::new(u64::MAX),
        last_phase: Mutex::new(""),
    });

    let spawn = |name: &str, body: fn(&ChildLink<S>)| {
        let link = Arc::clone(&link);
        std::thread::Builder::new()
            .name(format!("rank-{rank}-{name}"))
            .spawn(move || body(&link))
            .expect("spawn worker thread")
    };
    let manager = spawn("manager", child_manager_loop::<S>);
    let reader = spawn("reader", child_reader_loop::<S>);
    let heartbeater = spawn("heartbeat", child_heartbeat_loop::<S>);

    // the program starts at once: what it sends before the first
    // handshake queues and goes out in that handshake's replay
    let comm = Comm::new(
        rank,
        Arc::clone(&link) as Arc<dyn Transport>,
        faults.as_ref().map(|p| p.compile(rank)),
    );
    let ctx = ProgramCtx { args, attempt };
    let f = registry.get(&program).unwrap_or_else(|| {
        panic!(
            "worker registry has no program '{program}' (registered: {:?})",
            registry.names()
        )
    });

    let outcome = catch_unwind(AssertUnwindSafe(|| f(&comm, &ctx)));
    drop(comm); // flush any held (reordered) messages before reporting
    let died_in = || {
        telemetry::failure_phase()
            .map(|p| format!(" (in phase '{p}')"))
            .unwrap_or_default()
    };
    match outcome {
        Ok(Ok(result)) => link.send(Frame::Done {
            rank: rank as u64,
            result,
        }),
        Ok(Err(e)) => {
            let reason = format!("{e}{}", died_in());
            telemetry::flight::dump_postmortem(rank as u32);
            link.send(Frame::Failed {
                rank: rank as u64,
                panicked: false,
                reason,
                error: Some(e),
            });
        }
        Err(payload) => {
            let msg = crate::panic_message(payload);
            let reason = format!("panicked{}: {msg}", died_in());
            telemetry::flight::dump_postmortem(rank as u32);
            link.send(Frame::Failed {
                rank: rank as u64,
                panicked: true,
                reason,
                error: None,
            });
        }
    }

    // Drain: the terminal frame may have been chaos-dropped, and the
    // next heartbeat's sequence gap is what reveals that — so keep the
    // heartbeat, reader, and manager threads alive until everything
    // queued has been acked (or a generous deadline passes).
    let connected = {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut st = plock(&link.link.state);
        while !st.sent.is_empty() && !st.dead && Instant::now() < deadline {
            st = link
                .link
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
        st.connected_once
    };

    // surface the chaos interposer's activity in this process's registry
    if let Some(c) = &link.chaos {
        for (name, v) in c.counters() {
            if v > 0 {
                telemetry::counter_add(name, v);
            }
        }
    }

    // orderly retirement; process::exit would also do it, but joining
    // avoids racing the final frame against the heartbeat writer
    link.hb_stop.store(true, Ordering::Release);
    link.stop.store(true, Ordering::Release);
    link.link.kill();
    let _ = heartbeater.join();
    let _ = reader.join();
    let _ = manager.join();
    if connected {
        0
    } else {
        eprintln!("rank {rank}: cannot connect to supervisor at {addr}");
        3
    }
}

/// See [`crate::maybe_run_socket_child`].
pub(crate) fn maybe_run_child(registry: &ProgramRegistry) -> bool {
    let Ok(addr) = std::env::var(ENV_ADDR) else {
        return false;
    };
    let code = match addr.split_once(':') {
        Some((UnixStream::SCHEME, path)) => run_child::<UnixStream>(registry, path),
        Some((TcpStream::SCHEME, a)) => run_child::<TcpStream>(registry, a),
        _ => panic!("worker env {ENV_ADDR} malformed: {addr}"),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        for data in [vec![], vec![0u8], vec![0xFF, 0x00, 0x7A, 13]] {
            assert_eq!(hex_decode(&hex_encode(&data)), Some(data));
        }
        assert_eq!(hex_decode("zz"), None);
        assert_eq!(hex_decode("abc"), None);
    }

    #[test]
    fn packet_wire_roundtrip() {
        let packets = vec![
            Packet::Hello { rank: 3, resume: 9 },
            Packet::HelloAck { resume: 17 },
            Packet::Data {
                seq: 41,
                ack: 12,
                frame: Frame::Msg {
                    src: 1,
                    dst: 2,
                    tag: 7,
                    type_tag: 0xFEED,
                    bytes: 3,
                    data: vec![1, 2, 3],
                },
            },
            Packet::Ping { ack: 5, sent: 11 },
        ];
        for p in packets {
            let back = Packet::from_wire(&p.to_wire()).expect("roundtrip");
            assert_eq!(p, back);
        }
    }

    #[test]
    fn bad_packet_discriminant_is_typed() {
        assert!(Packet::from_wire(&[200]).is_err());
    }

    fn probe() -> Frame {
        Frame::RequestKill { rank: 0, op: 0 }
    }

    #[test]
    fn prune_drops_only_acked_entries() {
        let link = Link::<UnixStream>::new();
        for _ in 0..5 {
            link.send_data(probe(), None);
        }
        let mut st = plock(&link.state);
        link.prune_locked(&mut st, 3);
        let left: Vec<u64> = st.sent.iter().map(|(s, _, _)| *s).collect();
        assert_eq!(left, vec![3, 4]);
        link.prune_locked(&mut st, 3);
        assert_eq!(st.sent.len(), 2);
        link.prune_locked(&mut st, 100);
        assert!(st.sent.is_empty());
    }

    #[test]
    fn send_data_queues_while_disconnected() {
        let link = Link::<TcpStream>::new();
        link.send_data(probe(), None);
        link.send_data(probe(), None);
        let st = plock(&link.state);
        assert_eq!(st.send_seq, 2);
        let seqs: Vec<u64> = st.sent.iter().map(|(s, _, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn dead_link_refuses_new_frames() {
        let link = Link::<UnixStream>::new();
        link.kill();
        link.send_data(probe(), None);
        assert_eq!(plock(&link.state).sent.len(), 0);
    }

    /// Over a real Unix socket pair: a queued packet and a stale
    /// retransmit arrive, the duplicate is dropped, and a gap breaks
    /// the link (epoch bump) instead of delivering out of order.
    #[test]
    fn on_data_delivers_in_order_and_breaks_on_gap() {
        let link = Link::<UnixStream>::new();
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let (epoch, _reader, reconnect) = link.install(a, 0, false, None).expect("install");
        assert!(!reconnect);
        assert!(link.on_data(epoch, 0, 0));
        assert!(!link.on_data(epoch, 0, 0), "duplicate must be dropped");
        assert!(!link.on_data(epoch, 5, 0), "gap must not deliver");
        let st = plock(&link.state);
        assert!(st.stream.is_none(), "gap must break the link");
        assert_eq!(st.epoch, epoch + 1);
        assert_eq!(st.recv_next, 1);
    }
}
