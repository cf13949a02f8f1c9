//! A worker *swarm*: one process, one thread, `n` worker connections.
//!
//! The thread-per-worker client in [`crate::worker`] is the right shape for
//! real deployments (one process per machine), but a loopback scale test
//! with 1000 workers would need 1000 processes × 3 threads. The swarm
//! multiplexes every member over the same listener-less `Reactor` the
//! master uses: serial `Hello`/`Assign` handshakes up front, then a single
//! event loop that answers each member's `Params` with a computed codeword
//! and proves liveness with batched heartbeats. Protocol behavior per
//! member is identical to a standalone worker (same frames, same
//! deterministic mini-batches), minus reconnection — a lost member stays
//! lost, which is fine for the scale runs this exists for.

use std::collections::HashMap;
use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::{Duration, Instant};

use isgc_ml::{CodewordContext, Dataset, Model};

use crate::reactor::{NetEvent, Reactor, Token};
use crate::retry::RetryPolicy;
use crate::wire::Message;
use crate::worker::{connect, Assignment, WorkerCore, WorkerOptions};
use crate::{DelayFn, NetError};

/// Event-loop granularity of the swarm (mirrors the master's).
const POLL: Duration = Duration::from_millis(20);

/// Tunables of a worker swarm.
#[derive(Clone)]
pub struct SwarmOptions {
    /// How many worker connections to open.
    pub workers: usize,
    /// Injected straggler delay applied after each member's computation.
    pub delay: DelayFn,
    /// How often every member proves liveness to the master.
    pub heartbeat_interval: Duration,
    /// Backoff schedule for the initial handshakes.
    pub retry: RetryPolicy,
    /// Tenant id stamped on every outbound frame.
    pub job: u64,
}

impl SwarmOptions {
    /// Default options for a swarm of `workers` members.
    pub fn new(workers: usize) -> SwarmOptions {
        let base = WorkerOptions::default();
        SwarmOptions {
            workers,
            delay: base.delay,
            heartbeat_interval: base.heartbeat_interval,
            retry: base.retry,
            job: base.job,
        }
    }

    fn worker_options(&self) -> WorkerOptions {
        WorkerOptions {
            delay: Arc::clone(&self.delay),
            heartbeat_interval: self.heartbeat_interval,
            retry: self.retry.clone(),
            job: self.job,
        }
    }
}

/// What a swarm did over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwarmSummary {
    /// Members that completed the initial handshake.
    pub workers: usize,
    /// Codewords computed and sent, summed over all members.
    pub steps_served: usize,
    /// Members that ended with the master's `Shutdown`.
    pub clean_shutdowns: usize,
    /// Members whose connection dropped mid-run (never reconnected).
    pub lost: usize,
}

/// One swarm member's protocol state.
struct Member {
    core: WorkerCore,
    done: bool,
}

/// Runs `options.workers` worker connections to `addr` on one thread until
/// every member saw `Shutdown` (or lost its connection).
///
/// `build` receives the first member's [`Assignment`] and returns the model
/// and the **full** dataset, exactly as [`crate::run_worker`]'s builder
/// does; all members share them (and the deterministic partitioning), so a
/// swarm computes bit-identical codewords to `n` standalone workers. Each
/// member is a [`WorkerCore`]; every `Params` it receives is answered at
/// once.
///
/// # Errors
///
/// [`NetError`] when any initial handshake fails — the swarm is all-or-
/// nothing at startup; after that, losses are absorbed into the summary.
pub fn run_swarm<M, F>(
    addr: impl ToSocketAddrs,
    options: &SwarmOptions,
    build: F,
) -> Result<SwarmSummary, NetError>
where
    M: Model,
    F: FnOnce(&Assignment) -> (M, Dataset),
{
    if options.workers == 0 {
        return Err(NetError::InvalidConfig(
            "swarm needs at least 1 worker".into(),
        ));
    }
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| NetError::InvalidConfig("address resolved to nothing".into()))?;
    let worker_options = options.worker_options();

    let mut reactor = Reactor::new(None, options.job, None)?;
    let mut members: HashMap<Token, Member> = HashMap::new();
    let mut first_assignment: Option<Assignment> = None;
    for _ in 0..options.workers {
        // Serial blocking handshakes: at most one in flight, so the
        // master's pending-connection set never balloons.
        let (stream, assignment) = connect(addr, None, &worker_options)?;
        // No idle deadline on the member side: liveness pressure is the
        // master's job; the swarm just answers what arrives.
        let token = reactor.register_adopted(stream, None)?;
        first_assignment.get_or_insert_with(|| assignment.clone());
        members.insert(
            token,
            Member {
                core: WorkerCore::new(assignment),
                done: false,
            },
        );
    }
    let first = first_assignment.expect("workers >= 1");
    let (model, dataset) = build(&first);
    // One context serves every member in turn.
    let mut context = CodewordContext::new(model, dataset, first.n);

    let mut summary = SwarmSummary {
        workers: members.len(),
        steps_served: 0,
        clean_shutdowns: 0,
        lost: 0,
    };
    let mut last_heartbeat = Instant::now();

    while members.values().any(|m| !m.done) {
        if last_heartbeat.elapsed() >= options.heartbeat_interval {
            last_heartbeat = Instant::now();
            for (&token, member) in &members {
                if !member.done {
                    let frame: Arc<[u8]> = Message::Heartbeat {
                        worker: member.core.assignment().worker as u64,
                    }
                    .encode_for_job(options.job)
                    .into();
                    reactor.send(token, frame);
                }
            }
        }
        let Some(event) = reactor.next_event(POLL)? else {
            continue;
        };
        match event {
            NetEvent::Gone { token } => {
                if let Some(member) = members.get_mut(&token) {
                    if !member.done {
                        member.done = true;
                        summary.lost += 1;
                    }
                }
            }
            NetEvent::Msg { token, message, .. } => {
                let Some(member) = members.get_mut(&token) else {
                    continue;
                };
                if member.done {
                    continue;
                }
                member.core.on_message(message);
                if member.core.is_shut_down() {
                    member.done = true;
                    summary.clean_shutdowns += 1;
                    reactor.reject(token);
                } else if let Some((step, params)) = member.core.take_params() {
                    let reply = member.core.codeword(&mut context, step, &params);
                    let pause = (options.delay)(member.core.assignment().worker, step);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    let frame: Arc<[u8]> = reply.encode_for_job(options.job).into();
                    reactor.send(token, frame);
                    summary.steps_served += 1;
                }
            }
            // The master never sends codewords, and members carry no idle
            // deadline; pending-handshake events cannot occur without a
            // listener.
            _ => {}
        }
    }
    reactor.flush_all(Duration::from_secs(1));
    Ok(summary)
}
