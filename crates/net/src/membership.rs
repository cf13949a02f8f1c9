//! The connection-membership core shared by every collector tier.
//!
//! IS-GC's master ignores an arbitrary set of stragglers by knowing, at any
//! moment, which peers are live and which of them answered the current
//! step. The flat master, the tree root and a sub-master's shard loop all
//! keep exactly that bookkeeping over their peers; [`Membership`] is its
//! single implementation, over any [`Transport`]. It owns
//!
//! - the slot table and the token → slot map ([`Membership::slot_of`]);
//! - the liveness reactions to every [`NetEvent`] ([`Membership::react`]);
//! - the register / re-register handshake, including rejecting an
//!   introduction from the wrong tier;
//! - the blocking waits for first registration and for rejoins;
//! - the per-step eligibility snapshot and its "still pending" test;
//! - the alive-peer broadcast, and shutdown or hard close at the end.
//!
//! What a tier does with the data its peers send — codewords, declines,
//! shard uploads — stays in the owning loop.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use isgc_linalg::Vector;

use crate::reactor::{NetEvent, Token};
use crate::seam::Transport;
use crate::wire::Message;
use crate::NetError;

/// Poll granularity of every collector loop: how often liveness and
/// deadlines are re-checked while waiting on peers.
pub(crate) const POLL: Duration = Duration::from_millis(20);

/// Which introduction a tier's peers make.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// Workers (`Hello`): the flat master and a sub-master's shard.
    Workers,
    /// Sub-masters (`SubHello`): the tree root.
    Submasters,
}

/// One peer slot.
#[derive(Default)]
struct Slot {
    /// The connection currently owning this slot, if any. Tokens are never
    /// reused, so an event from a replaced connection can always be told
    /// apart from the current one.
    conn: Option<Token>,
    /// Whether the current connection is believed usable.
    alive: bool,
    /// Whether this slot was ever assigned to a connection.
    registered: bool,
}

/// A data-carrying event from the connection that currently owns `slot`.
pub(crate) enum Inbound {
    /// A codeword, decoded in place by the transport.
    Codeword {
        /// The sending slot.
        slot: usize,
        /// The step the codeword is tagged for.
        step: u64,
        /// The codeword payload.
        values: Vector,
    },
    /// Any other message (decline, heartbeat, shard upload).
    Msg {
        /// The sending slot.
        slot: usize,
        /// The decoded message.
        message: Message,
    },
}

impl Inbound {
    /// Whether this event carries a step's gradient contribution (a
    /// codeword or a shard upload) — what a step must count as stale when
    /// it is swallowed outside its collection window.
    fn carries_gradient(&self) -> bool {
        matches!(
            self,
            Inbound::Codeword { .. }
                | Inbound::Msg {
                    message: Message::ShardUpload { .. },
                    ..
                }
        )
    }
}

/// The slot table of one collector over its [`Transport`].
pub(crate) struct Membership {
    slots: Vec<Slot>,
    /// Which slot each adopted connection feeds. A token missing here (or
    /// disagreeing with `Slot::conn`) belongs to a replaced connection and
    /// its events are ignored.
    owner: HashMap<Token, usize>,
    transport: Box<dyn Transport>,
    /// The registration reply (`Assign` / `ShardAssign`) of each slot.
    replies: Vec<Arc<[u8]>>,
    /// The id a peer claims for slot 0; slot `i` answers to claim
    /// `base + i` (a shard's slots hold global worker ids).
    base: usize,
    tier: Tier,
    /// Idle deadline armed on adopted connections (`None`: no heartbeat
    /// check, as on sub-master links).
    idle: Option<Duration>,
    job: u64,
}

impl Membership {
    /// An empty table of `replies.len()` slots over `transport`.
    pub(crate) fn new(
        tier: Tier,
        replies: Vec<Arc<[u8]>>,
        base: usize,
        idle: Option<Duration>,
        job: u64,
        transport: Box<dyn Transport>,
    ) -> Membership {
        Membership {
            slots: replies.iter().map(|_| Slot::default()).collect(),
            owner: HashMap::new(),
            transport,
            replies,
            base,
            tier,
            idle,
            job,
        }
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The underlying transport, for traffic outside the slot table (a
    /// sub-master's root link).
    pub(crate) fn transport(&mut self) -> &mut dyn Transport {
        self.transport.as_mut()
    }

    /// Replaces `slot`'s registration reply (placement repair changed it).
    pub(crate) fn set_reply(&mut self, slot: usize, reply: Arc<[u8]>) {
        self.replies[slot] = reply;
    }

    /// Whether `slot`'s connection is believed usable.
    pub(crate) fn is_alive(&self, slot: usize) -> bool {
        self.slots[slot].alive
    }

    /// Whether any slot is believed usable.
    pub(crate) fn any_alive(&self) -> bool {
        self.slots.iter().any(|s| s.alive)
    }

    /// The slot an adopted connection currently owns, or `None` when the
    /// event came from a replaced (or never-registered) connection.
    pub(crate) fn slot_of(&self, token: Token) -> Option<usize> {
        let id = *self.owner.get(&token)?;
        (self.slots[id].conn == Some(token)).then_some(id)
    }

    /// Applies one event to the slot table and returns what the owning loop
    /// must handle itself: data from the connection that owns a slot.
    ///
    /// | event | reaction |
    /// |---|---|
    /// | introduction of this tier | register (see below) |
    /// | introduction of the other tier | reject the connection |
    /// | `Gone` | slot dead and disconnected |
    /// | `HeartbeatTimeout` | slot dead; the socket stays open and a late message revives it |
    /// | `Msg` / `Codeword` | slot alive; returned to the caller |
    ///
    /// Events from replaced connections change nothing.
    pub(crate) fn react(&mut self, event: NetEvent) -> Option<Inbound> {
        match event {
            NetEvent::Hello { token, preferred } if self.tier == Tier::Workers => {
                self.register(token, preferred);
                None
            }
            NetEvent::SubHello { token, shard } if self.tier == Tier::Submasters => {
                self.register(token, Some(shard));
                None
            }
            NetEvent::Hello { token, .. } | NetEvent::SubHello { token, .. } => {
                self.transport.reject(token);
                None
            }
            NetEvent::Gone { token } => {
                if let Some(id) = self.slot_of(token) {
                    self.slots[id].alive = false;
                    self.slots[id].conn = None;
                }
                self.owner.remove(&token);
                None
            }
            NetEvent::HeartbeatTimeout { token } => {
                if let Some(id) = self.slot_of(token) {
                    self.slots[id].alive = false;
                }
                None
            }
            NetEvent::Codeword {
                token,
                step,
                values,
            } => {
                let slot = self.slot_of(token)?;
                self.slots[slot].alive = true;
                Some(Inbound::Codeword { slot, step, values })
            }
            NetEvent::Msg { token, message } => {
                let slot = self.slot_of(token)?;
                self.slots[slot].alive = true;
                Some(Inbound::Msg { slot, message })
            }
        }
    }

    /// Assigns a slot to a pending connection: the claimed slot, else the
    /// first never-registered one, else the first dead one, else none (the
    /// connection is rejected, as is a claim outside the table). The new
    /// connection is adopted and sent its reply *before* the one it
    /// replaces is dropped.
    fn register(&mut self, token: Token, claim: Option<u64>) {
        let id = match claim {
            Some(c) => (c as usize)
                .checked_sub(self.base)
                .filter(|&id| id < self.len()),
            None => (self.slots.iter().position(|s| !s.registered))
                .or_else(|| self.slots.iter().position(|s| !s.alive)),
        };
        let Some(id) = id else {
            self.transport.reject(token);
            return;
        };
        let reply = Arc::clone(&self.replies[id]);
        if !self.transport.adopt(token, reply, self.idle) {
            return; // the connection died under the reply write
        }
        // The replaced connection's token can never be adopted again, so
        // late events from it fall through `slot_of`.
        if let Some(old) = self.slots[id].conn.take() {
            self.owner.remove(&old);
            self.transport.reject(old);
        }
        let slot = &mut self.slots[id];
        slot.conn = Some(token);
        slot.registered = true;
        slot.alive = true;
        self.owner.insert(token, id);
    }

    /// Blocks until every slot registered, or `timeout` passes. `divert`
    /// sees each event first and keeps the ones the caller handles itself
    /// (returning `None`); pass `Some` to divert nothing. Data that arrives
    /// meanwhile belongs to no step and is dropped.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on timeout; transport failures.
    pub(crate) fn await_registration(
        &mut self,
        timeout: Duration,
        mut divert: impl FnMut(NetEvent) -> Option<NetEvent>,
    ) -> Result<(), NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            let registered = self.slots.iter().filter(|s| s.registered).count();
            if registered == self.len() {
                return Ok(());
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                let peers = match self.tier {
                    Tier::Workers => "workers",
                    Tier::Submasters => "sub-masters",
                };
                return Err(NetError::Protocol(format!(
                    "registration timed out with {registered} of {} {peers}",
                    self.len()
                )));
            };
            if let Some(event) = self.transport.next_event(remaining.min(POLL))? {
                if let Some(event) = divert(event) {
                    let _ = self.react(event);
                }
            }
        }
    }

    /// Waits up to `grace` for every previously-registered but currently
    /// dead slot that `wanted` still counts on to re-register, so a
    /// flapping peer's step membership is decided by what it sends, never
    /// by whether its reconnect beat the next broadcast. Returns how many
    /// codewords or shard uploads were swallowed meanwhile — necessarily
    /// stale, since the next step has not been broadcast yet.
    pub(crate) fn await_rejoins(
        &mut self,
        grace: Duration,
        wanted: impl Fn(usize) -> bool,
    ) -> usize {
        let mut stale = 0usize;
        if grace.is_zero() {
            return stale;
        }
        let deadline = Instant::now() + grace;
        while (0..self.len()).any(|i| {
            let s = &self.slots[i];
            s.registered && !s.alive && wanted(i)
        }) {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            match self.transport.next_event(remaining.min(POLL)) {
                Ok(Some(event)) => {
                    if self.react(event).is_some_and(|i| i.carries_gradient()) {
                        stale += 1;
                    }
                }
                Ok(None) => {}
                Err(_) => break,
            }
        }
        stale
    }

    /// The eligibility snapshot, taken once per step when collection
    /// starts. No event is processed between the broadcast and then (the
    /// loss evaluated in between never polls), so a slot is eligible only
    /// through the connection that received the step's `Params`. One that reconnects mid-step cannot
    /// produce this step's answer, so it must not be waited on.
    pub(crate) fn snapshot(&self) -> Vec<Option<Token>> {
        self.slots
            .iter()
            .map(|s| if s.alive { s.conn } else { None })
            .collect()
    }

    /// How many slots are still pending against `snapshot`: alive on the
    /// connection that received the broadcast, and not yet `answered`.
    pub(crate) fn pending(
        &self,
        snapshot: &[Option<Token>],
        answered: impl Fn(usize) -> bool,
    ) -> usize {
        self.slots
            .iter()
            .zip(snapshot)
            .enumerate()
            .filter(|&(i, (s, &conn))| s.alive && conn.is_some() && conn == s.conn && !answered(i))
            .count()
    }

    /// Sends one pre-encoded frame to every alive slot (one encode, shared
    /// bytes). A peer that fails mid-write surfaces as a queued `Gone`.
    pub(crate) fn broadcast(&mut self, frame: &Arc<[u8]>) {
        let targets: Vec<Token> = self
            .slots
            .iter()
            .filter(|s| s.alive)
            .filter_map(|s| s.conn)
            .collect();
        self.transport.broadcast(frame, &targets);
    }

    /// Sends `frame` to `slot`'s connection, or marks the slot dead when it
    /// has none.
    pub(crate) fn unicast(&mut self, slot: usize, frame: Arc<[u8]>) {
        match self.slots[slot].conn {
            Some(token) => self.transport.send(token, frame),
            None => self.slots[slot].alive = false,
        }
    }

    /// Ends the session: `Shutdown` to every slot that still has a
    /// connection — heartbeat-silent ones included, so no peer is left to
    /// read a bare EOF and spend its reconnect budget — flushed for up to
    /// `limit`; or, emulating a killed process (`crashed`), a hard close of
    /// every socket.
    pub(crate) fn close(&mut self, crashed: bool, limit: Duration) {
        if crashed {
            self.transport.hard_close_all();
            return;
        }
        let frame: Arc<[u8]> = Message::Shutdown.encode_for_job(self.job).into();
        let targets: Vec<Token> = self.slots.iter().filter_map(|s| s.conn).collect();
        self.transport.broadcast(&frame, &targets);
        self.transport.flush_all(limit);
    }
}
