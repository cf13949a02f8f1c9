//! A hand-rolled nonblocking reactor: one thread multiplexing readiness
//! over every master-side socket.
//!
//! The previous transport spawned two threads per connection (a handshake
//! thread plus a long-lived reader), capping a master — and every
//! sub-master of the PR-5 aggregation tree — at tens of workers before
//! context-switch and stack overhead dominate. This module replaces all of
//! it with a single event loop in the style of DSLab's event-driven
//! executor: sockets are switched to nonblocking mode, `poll(2)` reports
//! readiness, and the reactor owns
//!
//! - **registration**: the listener is just another pollable; fresh
//!   connections sit in a `Pending` phase until their `Hello`/`SubHello`
//!   arrives (job-tag-checked at the door), then the owning state machine
//!   adopts or rejects them;
//! - **read interest + reassembly**: each connection keeps a
//!   [`FrameAssembler`] so a frame split across arbitrarily many readiness
//!   events decodes byte-identically; `Codeword` payloads are decoded *in
//!   place* from that buffer straight into an [`isgc_linalg::Vector`] —
//!   no intermediate `Vec<u8>`/`Vec<f64>` copies on the upload hot path;
//! - **write interest + pooled broadcast**: outbound frames are
//!   reference-counted `Arc<[u8]>` slices shared across per-connection
//!   write queues, with partial writes resumed on the next `POLLOUT`;
//! - **timers**: a bucketed tick-based [`TimerWheel`] drives per-connection
//!   heartbeat deadlines and handshake timeouts, so liveness is a logical
//!   clock decision instead of a race between wall-clock thread sleeps;
//! - **a drained event queue**: readiness is translated into [`NetEvent`]s
//!   consumed one at a time by a single-threaded collector loop (the flat
//!   [`crate::master::MasterLoop`], or the tree root and shard loops in
//!   [`crate::submaster`]);
//! - **traffic counters**: every frame of our job written to or parsed
//!   from an adopted connection is counted (`net.frames.*`,
//!   `net.bytes.*`), so every tier that is handed a registry meters both
//!   directions.
//!
//! Liveness decisions and slot assignment live in the collectors' shared
//! membership core (`crate::membership`), step semantics in the owning
//! loop; the reactor only moves bytes, counts them, and fires deadlines.
//! All `net.*` transport series are [`isgc_obs::Class::Timing`], so golden
//! logical snapshots are untouched by the transport swap.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isgc_linalg::Vector;
use isgc_obs::Registry;

use crate::wire::{CodewordView, FrameAssembler, Message};
use crate::NetError;

/// Identity of one connection for its whole life. Tokens are never reused,
/// so an event from a replaced connection can always be told apart from the
/// current one (the role epochs played under the thread-per-connection
/// transport).
pub type Token = u64;

/// Logical timer granularity. Deadlines are quantized to ticks of this
/// size; anything finer would be noise next to the masters' 20 ms poll
/// cadence.
const TICK: Duration = Duration::from_millis(5);

/// Slots in the timer wheel; deadlines further out than one rotation just
/// survive extra sweeps (hashed-wheel style).
const WHEEL_SLOTS: usize = 512;

/// How long a pending connection may sit without completing its handshake
/// before the reactor drops it (the old handshake threads' read timeout).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// What the transport tells the owning state machine. Public because the
/// model checker's virtual network (`isgc-mc`) synthesizes these events
/// directly through the [`crate::seam::Transport`] seam.
#[derive(Debug)]
pub enum NetEvent {
    /// A pending connection introduced itself as a worker.
    Hello {
        /// The introducing connection.
        token: Token,
        /// The worker slot the peer claims, if it has one.
        preferred: Option<u64>,
    },
    /// A pending connection introduced itself as a sub-master.
    SubHello {
        /// The introducing connection.
        token: Token,
        /// The shard the sub-master claims.
        shard: u64,
    },
    /// An adopted connection produced a message.
    Msg {
        /// The connection that produced the frame.
        token: Token,
        /// The decoded message.
        message: Message,
    },
    /// An adopted connection produced a codeword, decoded in place from the
    /// reassembly buffer (the zero-copy upload path — `Message::Codeword`
    /// never materializes).
    Codeword {
        /// The connection that produced the codeword.
        token: Token,
        /// The step the codeword is tagged for.
        step: u64,
        /// The codeword payload.
        values: Vector,
    },
    /// An adopted connection passed its idle deadline on the logical timer
    /// wheel without producing a byte. The connection stays open — the
    /// owner decides what silence means — and the deadline re-arms.
    HeartbeatTimeout {
        /// The silent connection.
        token: Token,
    },
    /// An adopted connection is gone (EOF, reset, write failure, or a
    /// malformed frame) and has been deregistered.
    Gone {
        /// The departed connection.
        token: Token,
    },
}

impl NetEvent {
    /// The connection the event came from.
    pub fn token(&self) -> Token {
        match self {
            NetEvent::Hello { token, .. }
            | NetEvent::SubHello { token, .. }
            | NetEvent::Msg { token, .. }
            | NetEvent::Codeword { token, .. }
            | NetEvent::HeartbeatTimeout { token }
            | NetEvent::Gone { token } => *token,
        }
    }
}

/// Connection lifecycle phase.
#[derive(PartialEq, Eq, Clone, Copy)]
enum Phase {
    /// Accepted, but the introduction frame has not been processed yet.
    Pending,
    /// Owned by a slot of the state machine; full message flow.
    Adopted,
}

/// Per-connection reactor state.
struct Conn {
    stream: TcpStream,
    phase: Phase,
    /// Partial-frame reassembly across readiness events.
    assembler: FrameAssembler,
    /// Outbound frames (shared broadcast buffers) with a resume offset
    /// into the front frame.
    out: VecDeque<(Arc<[u8]>, usize)>,
    /// Idle timeout re-armed on every inbound byte; `None` disables
    /// silence detection (e.g. a sub-master's root link).
    idle: Option<Duration>,
    /// The currently armed deadline tick; wheel entries that do not match
    /// are stale and ignored (lazy cancellation).
    deadline: u64,
    /// A pending connection that already emitted its introduction stops
    /// parsing until adopted.
    introduced: bool,
}

/// What parsing a connection's buffered bytes concluded.
enum Parsed {
    /// Keep the connection.
    Keep,
    /// Drop it (malformed frame, wrong introduction, foreign handshake).
    Fatal,
}

/// A bucketed logical-time wheel: `schedule` files `(token, deadline)`
/// entries under `deadline % slots`, `advance_to` sweeps the ticks since
/// the last advance and yields every entry now due. Cancellation is lazy —
/// the reactor compares each fired entry against the connection's current
/// deadline — so re-arming is O(1). Pure tick arithmetic, no clocks: unit
/// tests drive it deterministically (see below), production maps wall time
/// to ticks once per poll.
pub(crate) struct TimerWheel {
    slots: Vec<Vec<(Token, u64)>>,
    now: u64,
}

impl TimerWheel {
    pub(crate) fn new(slots: usize) -> TimerWheel {
        TimerWheel {
            slots: (0..slots.max(1)).map(|_| Vec::new()).collect(),
            now: 0,
        }
    }

    /// The last tick `advance_to` reached.
    pub(crate) fn now(&self) -> u64 {
        self.now
    }

    /// Files an entry due at `deadline` (clamped to the future: entries at
    /// or before the current tick fire on the next advance).
    pub(crate) fn schedule(&mut self, token: Token, deadline: u64) {
        let deadline = deadline.max(self.now + 1);
        let slot = (deadline % self.slots.len() as u64) as usize;
        self.slots[slot].push((token, deadline));
    }

    /// Advances logical time to `tick`, returning every `(token, deadline)`
    /// entry that came due. A jump of a full rotation or more sweeps each
    /// bucket exactly once.
    pub(crate) fn advance_to(&mut self, tick: u64) -> Vec<(Token, u64)> {
        let mut due = Vec::new();
        if tick <= self.now {
            return due;
        }
        let len = self.slots.len() as u64;
        if tick - self.now >= len {
            for bucket in &mut self.slots {
                bucket.retain(|&(token, deadline)| {
                    if deadline <= tick {
                        due.push((token, deadline));
                        false
                    } else {
                        true
                    }
                });
            }
        } else {
            for t in self.now + 1..=tick {
                let slot = (t % len) as usize;
                self.slots[slot].retain(|&(token, deadline)| {
                    if deadline <= tick {
                        due.push((token, deadline));
                        false
                    } else {
                        true
                    }
                });
            }
        }
        self.now = tick;
        due
    }
}

/// The readiness syscall, gated per platform. On Linux this is a direct
/// `poll(2)` binding — std already links libc, so no new dependency — and
/// the only `unsafe` in the crate. Elsewhere a portable fallback marks
/// every descriptor ready and lets the nonblocking reads/writes sort out
/// who actually had data (correct, just busier).
#[cfg(target_os = "linux")]
mod sys {
    #![allow(unsafe_code)]

    use std::io;
    use std::os::unix::io::RawFd;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    /// Mirror of `struct pollfd` from `<poll.h>`.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Blocks until a descriptor is ready or `timeout` passes; returns how
    /// many descriptors have nonzero `revents`. `EINTR` reads as a timeout.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        if fds.is_empty() {
            std::thread::sleep(timeout);
            return Ok(0);
        }
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // pollfd structs and `nfds` is exactly its length; the kernel
        // writes only the `revents` fields within the slice.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use std::io;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;

    /// Fallback stand-in for `struct pollfd`; `fd` is unused because the
    /// sweep never enters the kernel.
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    /// Portable readiness sweep: report everything as ready after a short
    /// sleep; the nonblocking I/O attempts that follow are the real test.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        std::thread::sleep(timeout.min(Duration::from_millis(2)));
        for fd in fds.iter_mut() {
            fd.revents = fd.events;
        }
        Ok(fds.len())
    }
}

#[cfg(target_os = "linux")]
use std::os::unix::io::AsRawFd;

/// Raw descriptor for the poll set; a constant placeholder on platforms
/// using the readiness sweep (which never dereferences it).
#[cfg(target_os = "linux")]
fn raw_fd(stream: &impl AsRawFd) -> i32 {
    stream.as_raw_fd()
}

#[cfg(not(target_os = "linux"))]
fn raw_fd<T>(_stream: &T) -> i32 {
    -1
}

/// The master-side event loop. One instance per listening state machine
/// (flat master, tree root, or sub-master shard); the swarm client reuses
/// it listener-less for its outbound connections.
pub(crate) struct Reactor {
    listener: Option<TcpListener>,
    conns: BTreeMap<Token, Conn>,
    next_token: Token,
    events: VecDeque<NetEvent>,
    wheel: TimerWheel,
    base: Instant,
    job: u64,
    metrics: Option<Registry>,
}

impl Reactor {
    /// Builds a reactor around an (optional) listening socket, switching it
    /// to nonblocking mode.
    pub(crate) fn new(
        listener: Option<TcpListener>,
        job: u64,
        metrics: Option<Registry>,
    ) -> Result<Reactor, NetError> {
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
        }
        Ok(Reactor {
            listener,
            conns: BTreeMap::new(),
            next_token: 1,
            events: VecDeque::new(),
            wheel: TimerWheel::new(WHEEL_SLOTS),
            base: Instant::now(),
            job,
            metrics,
        })
    }

    /// Pops the next event, pumping the poll loop for up to `timeout` when
    /// the queue is empty. `Ok(None)` means the timeout passed quietly —
    /// the drop-in replacement for the old channel's `recv_timeout`.
    pub(crate) fn next_event(&mut self, timeout: Duration) -> Result<Option<NetEvent>, NetError> {
        if let Some(event) = self.events.pop_front() {
            return Ok(Some(event));
        }
        self.pump(timeout)?;
        Ok(self.events.pop_front())
    }

    /// Promotes a pending connection to an adopted peer: sends `first` (the
    /// registration reply), arms the idle deadline, and parses any frames
    /// the peer optimistically sent after its introduction. Returns false
    /// when the connection died in the process.
    pub(crate) fn adopt(&mut self, token: Token, first: Arc<[u8]>, idle: Option<Duration>) -> bool {
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            conn.phase = Phase::Adopted;
            conn.idle = idle;
            conn.introduced = true;
        }
        self.arm_idle(token);
        self.send(token, first);
        if !self.conns.contains_key(&token) {
            return false;
        }
        self.parse_conn(token);
        self.conns.contains_key(&token)
    }

    /// Registers an already-handshaked outbound stream (a sub-master's root
    /// link, a swarm member) as an adopted connection.
    ///
    /// # Errors
    ///
    /// Propagates the switch to nonblocking mode.
    pub(crate) fn register_adopted(
        &mut self,
        stream: TcpStream,
        idle: Option<Duration>,
    ) -> Result<Token, NetError> {
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true)?;
        let token = self.insert(stream, Phase::Adopted, idle);
        self.arm_idle(token);
        Ok(token)
    }

    /// Drops a pending connection the state machine refused.
    pub(crate) fn reject(&mut self, token: Token) {
        self.remove(token);
    }

    /// Queues one frame on a connection and flushes as much as the socket
    /// accepts right now; the remainder rides on write readiness. Failures
    /// surface as a [`NetEvent::Gone`] rather than a return value, exactly
    /// like a failure discovered mid-broadcast.
    pub(crate) fn send(&mut self, token: Token, frame: Arc<[u8]>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.out.push_back((frame, 0));
        if flush_out(conn, &self.metrics).is_err() {
            self.drop_conn(token);
        }
    }

    /// Sends one shared frame to every listed connection — the pooled
    /// broadcast path: a single encode, `Arc` clones instead of buffer
    /// copies, per-peer resume offsets.
    pub(crate) fn broadcast(&mut self, frame: &Arc<[u8]>, targets: impl Iterator<Item = Token>) {
        for token in targets {
            self.send(token, Arc::clone(frame));
        }
    }

    /// Pumps the loop until every write queue drained or `limit` passed —
    /// the graceful-teardown flush behind a `Shutdown` broadcast (and the
    /// sub-master's synchronous upload guarantee).
    pub(crate) fn flush_all(&mut self, limit: Duration) {
        let deadline = Instant::now() + limit;
        while self.conns.values().any(|c| !c.out.is_empty()) {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return;
            };
            if self.pump(remaining.min(TICK)).is_err() {
                return;
            }
        }
    }

    /// Pumps the loop until `token`'s write queue drained (true) or the
    /// connection died / `limit` passed (false) — the sub-master's
    /// synchronous upload-delivery guarantee. Events gathered while
    /// flushing stay queued for the next [`Reactor::next_event`].
    pub(crate) fn flush_conn(&mut self, token: Token, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        loop {
            match self.conns.get(&token) {
                None => return false,
                Some(conn) if conn.out.is_empty() => return true,
                Some(_) => {}
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            if self.pump(remaining.min(TICK)).is_err() {
                return false;
            }
        }
    }

    /// Emulates a killed process: hard-closes every socket (pending and
    /// adopted), drops unsent frames, and closes the listener.
    pub(crate) fn hard_close_all(&mut self) {
        for conn in self.conns.values() {
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        }
        self.conns.clear();
        self.listener = None;
        self.gauge_conns();
    }

    /// One poll cycle: wait for readiness (or `timeout`), fire due timers,
    /// then drain every ready descriptor into the event queue.
    fn pump(&mut self, timeout: Duration) -> Result<(), NetError> {
        let has_listener = self.listener.is_some();
        let mut fds = Vec::with_capacity(self.conns.len() + 1);
        let mut tokens = Vec::with_capacity(self.conns.len());
        if let Some(listener) = &self.listener {
            fds.push(sys::PollFd {
                fd: raw_fd(listener),
                events: sys::POLLIN,
                revents: 0,
            });
        }
        for (&token, conn) in &self.conns {
            let mut interest = sys::POLLIN;
            if !conn.out.is_empty() {
                interest |= sys::POLLOUT;
            }
            fds.push(sys::PollFd {
                fd: raw_fd(&conn.stream),
                events: interest,
                revents: 0,
            });
            tokens.push(token);
        }
        let ready = sys::wait(&mut fds, timeout)?;
        self.count(crate::metrics::REACTOR_WAKEUPS_TOTAL, 1);
        // Readiness is handled *before* timers fire: a read re-arms the
        // connection's idle deadline, so a peer whose heartbeats sat in
        // the kernel buffer while the owning loop was busy elsewhere is
        // not "silent" — exactly the judgment the per-connection reader
        // threads used to make. Only a peer with nothing to read when its
        // deadline passes times out.
        if ready > 0 {
            self.count(crate::metrics::REACTOR_READY_EVENTS_TOTAL, ready as u64);
            let base = usize::from(has_listener);
            if has_listener && fds[0].revents != 0 {
                self.accept_ready();
            }
            for (i, token) in tokens.into_iter().enumerate() {
                let revents = fds[base + i].revents;
                if revents == 0 {
                    continue;
                }
                if revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 {
                    self.read_ready(token);
                }
                if revents & sys::POLLOUT != 0 {
                    self.write_ready(token);
                }
            }
        }
        self.fire_timers();
        Ok(())
    }

    /// Accepts every connection the listener has queued.
    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.insert(stream, Phase::Pending, None);
                    let deadline = self.wheel.now() + ticks(HANDSHAKE_TIMEOUT);
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.deadline = deadline;
                    }
                    self.wheel.schedule(token, deadline);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Reads a connection to exhaustion, parsing frames as they complete.
    fn read_ready(&mut self, token: Token) {
        let mut read_any = false;
        let mut eof = false;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // A pending peer that already introduced itself stays buffered
            // until the state machine adopts (or rejects) it.
            if conn.phase == Phase::Pending && conn.introduced {
                return;
            }
            match conn.assembler.fill_from(&mut conn.stream) {
                Ok(0) => {
                    eof = true;
                    break;
                }
                Ok(_) => {
                    read_any = true;
                    self.parse_conn(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    eof = true;
                    break;
                }
            }
        }
        if read_any {
            self.arm_idle(token);
        }
        if eof {
            self.drop_conn(token);
        }
    }

    /// Parses whatever complete frames `token`'s assembler holds.
    fn parse_conn(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match parse_frames(token, conn, &mut self.events, self.job, &self.metrics) {
            Parsed::Keep => {}
            Parsed::Fatal => self.drop_conn(token),
        }
    }

    /// Drains a connection's write queue after write readiness.
    fn write_ready(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if flush_out(conn, &self.metrics).is_err() {
            self.drop_conn(token);
        }
    }

    /// Advances the wheel to the current logical tick and translates due
    /// entries: pending connections past their handshake deadline are
    /// dropped, silent adopted ones get a [`NetEvent::HeartbeatTimeout`]
    /// and a re-armed deadline.
    fn fire_timers(&mut self) {
        let now = self.tick_now();
        let due = self.wheel.advance_to(now);
        let mut fired = 0u64;
        let mut handshake_expired: Vec<Token> = Vec::new();
        for (token, deadline) in due {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if conn.deadline != deadline {
                continue; // superseded by activity since scheduling
            }
            fired += 1;
            match conn.phase {
                // Handshake too slow: not one of ours; drop silently.
                Phase::Pending => handshake_expired.push(token),
                Phase::Adopted => {
                    if let Some(idle) = conn.idle {
                        let next = now + ticks(idle);
                        conn.deadline = next;
                        self.wheel.schedule(token, next);
                        self.events.push_back(NetEvent::HeartbeatTimeout { token });
                    }
                }
            }
        }
        for token in handshake_expired {
            self.remove(token);
        }
        if fired > 0 {
            self.count(crate::metrics::REACTOR_TIMER_FIRES_TOTAL, fired);
        }
    }

    /// Re-arms `token`'s idle deadline off the logical clock (called on
    /// every inbound byte).
    fn arm_idle(&mut self, token: Token) {
        let now = self.wheel.now();
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let Some(idle) = conn.idle else {
            return;
        };
        let deadline = now + ticks(idle);
        conn.deadline = deadline;
        self.wheel.schedule(token, deadline);
    }

    /// The current logical tick (wall clock quantized once per poll).
    fn tick_now(&self) -> u64 {
        (self.base.elapsed().as_millis() / TICK.as_millis()) as u64
    }

    fn insert(&mut self, stream: TcpStream, phase: Phase, idle: Option<Duration>) -> Token {
        let token = self.next_token;
        self.next_token += 1;
        self.conns.insert(
            token,
            Conn {
                stream,
                phase,
                assembler: FrameAssembler::new(),
                out: VecDeque::new(),
                idle,
                deadline: 0,
                introduced: false,
            },
        );
        self.gauge_conns();
        token
    }

    /// Deregisters a connection, emitting `Gone` when the owner had it.
    fn drop_conn(&mut self, token: Token) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.phase == Phase::Adopted {
                self.events.push_back(NetEvent::Gone { token });
            }
            self.gauge_conns();
        }
    }

    /// Silently deregisters (replaced connections, rejections).
    fn remove(&mut self, token: Token) {
        self.conns.remove(&token);
        self.gauge_conns();
    }

    fn count(&self, name: &str, by: u64) {
        if let Some(registry) = &self.metrics {
            registry.inc_by(name, &[], isgc_obs::Class::Timing, by);
        }
    }

    fn gauge_conns(&self) {
        if let Some(registry) = &self.metrics {
            registry.set_gauge(
                crate::metrics::REACTOR_CONNECTIONS,
                &[],
                isgc_obs::Class::Timing,
                self.conns.len() as f64,
            );
        }
    }
}

/// Duration → whole ticks, at least one.
fn ticks(d: Duration) -> u64 {
    (d.as_millis().div_ceil(TICK.as_millis())).max(1) as u64
}

/// Writes as much of `conn`'s queue as the socket accepts. `Err` means the
/// connection is dead.
fn flush_out(conn: &mut Conn, metrics: &Option<Registry>) -> Result<(), ()> {
    while let Some((frame, offset)) = conn.out.front_mut() {
        match conn.stream.write(&frame[*offset..]) {
            Ok(0) => return Err(()),
            Ok(k) => {
                *offset += k;
                if *offset == frame.len() {
                    let bytes = frame.len() as u64;
                    conn.out.pop_front();
                    if let Some(registry) = metrics {
                        use isgc_obs::Class::Timing;
                        registry.inc(crate::metrics::FRAMES_SENT_TOTAL, &[], Timing);
                        registry.inc_by(crate::metrics::BYTES_SENT_TOTAL, &[], Timing, bytes);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                if let Some(registry) = metrics {
                    registry.inc(
                        crate::metrics::REACTOR_PARTIAL_WRITES_TOTAL,
                        &[],
                        isgc_obs::Class::Timing,
                    );
                }
                return Ok(());
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(())
}

/// Turns `conn`'s buffered bytes into events. Pending connections yield
/// exactly one introduction (job-checked at the door); adopted ones yield
/// the full message flow with codewords decoded in place, each frame of our
/// job counted into the inbound byte/frame counters.
fn parse_frames(
    token: Token,
    conn: &mut Conn,
    events: &mut VecDeque<NetEvent>,
    job: u64,
    metrics: &Option<Registry>,
) -> Parsed {
    loop {
        if conn.phase == Phase::Pending && conn.introduced {
            return Parsed::Keep;
        }
        let phase = conn.phase;
        let frame = match conn.assembler.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return Parsed::Keep,
            Err(_) => return Parsed::Fatal,
        };
        match phase {
            Phase::Pending => {
                if frame.job != job {
                    // Tagged for a foreign tenant: not one of ours.
                    return Parsed::Fatal;
                }
                match frame.message() {
                    Ok(Message::Hello { preferred }) => {
                        conn.introduced = true;
                        events.push_back(NetEvent::Hello { token, preferred });
                    }
                    Ok(Message::SubHello { shard }) => {
                        conn.introduced = true;
                        events.push_back(NetEvent::SubHello { token, shard });
                    }
                    _ => return Parsed::Fatal,
                }
            }
            Phase::Adopted => {
                if frame.job != job {
                    continue; // foreign tenant frame: discard, keep reading
                }
                let event = match CodewordView::parse(frame.payload) {
                    Some(Ok(view)) => NetEvent::Codeword {
                        token,
                        step: view.step,
                        values: Vector::from_fn(view.len(), |i| view.value(i)),
                    },
                    Some(Err(_)) => return Parsed::Fatal,
                    None => match frame.message() {
                        Ok(message) => NetEvent::Msg { token, message },
                        Err(_) => return Parsed::Fatal,
                    },
                };
                if let Some(registry) = metrics {
                    use isgc_obs::Class::Timing;
                    let bytes = frame.wire_len as u64;
                    registry.inc(crate::metrics::FRAMES_RECEIVED_TOTAL, &[], Timing);
                    registry.inc_by(crate::metrics::BYTES_RECEIVED_TOTAL, &[], Timing, bytes);
                }
                events.push_back(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_fires_exactly_at_the_deadline_tick() {
        let mut wheel = TimerWheel::new(8);
        wheel.schedule(1, 5);
        assert!(wheel.advance_to(4).is_empty());
        assert_eq!(wheel.advance_to(5), vec![(1, 5)]);
        assert!(wheel.advance_to(100).is_empty());
    }

    #[test]
    fn wheel_survives_rotation_wraparound() {
        // Deadline more than one rotation out must not fire early when its
        // bucket is swept on an earlier pass.
        let mut wheel = TimerWheel::new(4);
        wheel.schedule(7, 9); // bucket 1, more than two rotations of 4
        assert!(wheel.advance_to(5).is_empty()); // sweeps bucket 1 at t=5
        assert_eq!(wheel.advance_to(9), vec![(7, 9)]);
    }

    #[test]
    fn wheel_handles_large_jumps_and_reentry() {
        let mut wheel = TimerWheel::new(4);
        wheel.schedule(1, 2);
        wheel.schedule(2, 1000);
        // A jump far past both deadlines (≥ one rotation) fires both.
        let mut due = wheel.advance_to(5000);
        due.sort_unstable();
        assert_eq!(due, vec![(1, 2), (2, 1000)]);
        // Re-arming after the jump still works.
        wheel.schedule(3, 5002);
        assert_eq!(wheel.advance_to(5002), vec![(3, 5002)]);
        assert_eq!(wheel.now(), 5002);
    }

    #[test]
    fn wheel_lazy_cancellation_is_the_callers_contract() {
        // Two entries for one token: the reactor keeps only the newest
        // deadline and ignores the stale firing — both entries surface.
        let mut wheel = TimerWheel::new(16);
        wheel.schedule(1, 3);
        wheel.schedule(1, 6); // re-armed
        assert_eq!(wheel.advance_to(3), vec![(1, 3)]); // stale, caller skips
        assert_eq!(wheel.advance_to(6), vec![(1, 6)]);
    }

    #[test]
    fn wheel_clamps_past_deadlines_to_the_next_tick() {
        let mut wheel = TimerWheel::new(8);
        wheel.advance_to(10);
        wheel.schedule(1, 4); // already past: fires on the next advance
        assert_eq!(wheel.advance_to(11), vec![(1, 11)]);
    }

    #[test]
    fn ticks_rounds_up_and_never_returns_zero() {
        assert_eq!(ticks(Duration::from_millis(1)), 1);
        assert_eq!(ticks(TICK), 1);
        assert_eq!(ticks(Duration::from_millis(6)), 2);
        assert_eq!(ticks(Duration::ZERO), 1);
        assert_eq!(ticks(Duration::from_secs(2)), 400);
    }
}
