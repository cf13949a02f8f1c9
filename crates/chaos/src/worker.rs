//! A scriptable protocol client: a worker that computes honest gradients
//! except where a [`FaultPlan`] tells it to misbehave.
//!
//! The client runs the production [`WorkerCore`] and registers through the
//! production [`isgc_net::connect`]; only its reaction to a `Params`
//! broadcast differs. [`Misbehavior::react`] turns a scripted fault into
//! the frames to write and what happens to the connection afterwards, and
//! the model checker replays the very same function. Faults like "send a
//! corrupted frame" or "close the socket mid-step" need raw access to the
//! stream, so the client drives its socket itself rather than through
//! `isgc_net::run_worker`.
//!
//! Determinism needs precise control of *which steps* a flapping worker
//! misses. The rule that provides it: after any connection-killing fault at
//! step `s`, the worker reconnects immediately but declines every step
//! below `s + 2`. Whether the master's next broadcast catches the fresh
//! connection or not, the worker's codeword is absent from steps `s` and
//! `s + 1` and present from `s + 2` — independent of thread timing.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use isgc_linalg::Vector;
use isgc_ml::{CodewordContext, Dataset, Model};
use isgc_net::wire::{read_message, write_message, Message};
use isgc_net::{connect, RetryPolicy, WorkerCore, WorkerOptions};

use crate::plan::{FaultKind, FaultPlan};
use crate::ChaosError;

/// What one chaos worker did over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosWorkerSummary {
    /// The slot this worker served.
    pub worker: usize,
    /// Codewords actually sent for the step underway (faulted steps and
    /// stale sends excluded).
    pub codewords_sent: usize,
    /// Faults applied, in step order.
    pub faults_applied: usize,
    /// Reconnections performed (scripted flaps and master restarts alike).
    pub reconnects: usize,
    /// Whether the worker exited via a scripted permanent death.
    pub died: bool,
}

/// One thing a chaos worker writes to its connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Emit {
    /// A well-formed frame.
    Frame(Message),
    /// Raw bytes: a corrupted or truncated codeword frame.
    Bytes(Vec<u8>),
}

/// What happens to the connection once a reaction's frames are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum After {
    /// Keep serving on the same connection.
    Stay,
    /// Close the connection and register again.
    Rejoin,
    /// Close the connection and exit for good.
    Die,
}

/// A chaos worker's whole reaction to one `Params` broadcast.
#[derive(Debug, Clone, PartialEq)]
pub struct Reaction {
    /// Pause before writing anything ([`FaultKind::Delay`]).
    pub delay: Duration,
    /// Frames to write, in order.
    pub emit: Vec<Emit>,
    /// The connection's fate afterwards.
    pub after: After,
    /// Whether the honest codeword for the step underway was sent.
    pub served: bool,
}

/// The fault state a chaos worker carries across connections: the rejoin
/// rule's decline horizon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Misbehavior {
    decline_until: u64,
}

impl Misbehavior {
    /// Steps strictly below this are declined (set by connection-killing
    /// faults).
    pub fn decline_until(&self) -> u64 {
        self.decline_until
    }

    /// Whether the rejoin rule declines `step` whatever the plan says;
    /// callers skip consulting the plan for such steps.
    pub fn rejoining(&self, step: u64) -> bool {
        step < self.decline_until
    }

    /// The reaction to `step`'s broadcast of `params` under `fault`, built
    /// from `core`'s honest codewords. A stale send is the codeword for
    /// `step − 1` computed from the *current* params (a straggler finishing
    /// the previous round), followed by a decline for `step`.
    pub fn react<M: Model>(
        &mut self,
        fault: Option<FaultKind>,
        core: &WorkerCore,
        context: &mut CodewordContext<M>,
        step: u64,
        params: &Vector,
    ) -> Reaction {
        let decline = Emit::Frame(Message::Decline {
            worker: core.assignment().worker as u64,
            step,
        });
        let mut reaction = Reaction {
            delay: Duration::ZERO,
            emit: Vec::new(),
            after: After::Stay,
            served: false,
        };
        if self.rejoining(step) {
            reaction.emit.push(decline);
            return reaction;
        }
        let mut honest = |s| core.codeword(context, s, params);
        match fault {
            None | Some(FaultKind::Delay(_)) | Some(FaultKind::Duplicate) => {
                let frame = honest(step);
                if let Some(FaultKind::Delay(ms)) = fault {
                    reaction.delay = Duration::from_millis(ms);
                }
                if fault == Some(FaultKind::Duplicate) {
                    reaction.emit.push(Emit::Frame(frame.clone()));
                }
                reaction.emit.push(Emit::Frame(frame));
                reaction.served = true;
            }
            Some(FaultKind::Stale) => {
                if step > 0 {
                    reaction.emit.push(Emit::Frame(honest(step - 1)));
                }
                reaction.emit.push(decline);
            }
            Some(FaultKind::Decline) => reaction.emit.push(decline),
            Some(FaultKind::Die) => reaction.after = After::Die,
            Some(FaultKind::Drop) => reaction.after = After::Rejoin,
            Some(FaultKind::Corrupt) => {
                // The magic clobbered: the master must reject the frame and
                // drop the connection, never misparse it.
                let mut frame = honest(step).encode();
                frame[0] ^= 0xFF;
                reaction.emit.push(Emit::Bytes(frame));
                reaction.after = After::Rejoin;
            }
            Some(FaultKind::Truncate) => {
                let mut frame = honest(step).encode();
                frame.truncate(frame.len() / 2);
                reaction.emit.push(Emit::Bytes(frame));
                reaction.after = After::Rejoin;
            }
        }
        if reaction.after == After::Rejoin {
            self.decline_until = step + 2;
        }
        reaction
    }
}

/// Runs one chaos worker against the master at `addr` until the master
/// shuts down, the plan kills the worker permanently, or the master stays
/// unreachable past the retry budget.
///
/// `build` receives `(n, batch_size)` from the master's assignment and
/// returns the model and full dataset (identical on every peer, by shared
/// seed); honest codewords come from the production [`WorkerCore`], so they
/// are bit-identical to real ones.
///
/// # Errors
///
/// [`ChaosError::Net`] when the initial connection fails outright.
pub fn run_chaos_worker<M, F>(
    addr: SocketAddr,
    preferred: usize,
    plan: &FaultPlan,
    retry: &RetryPolicy,
    build: F,
) -> Result<ChaosWorkerSummary, ChaosError>
where
    M: Model,
    F: FnOnce(usize, usize) -> (M, Dataset),
{
    let options = WorkerOptions {
        retry: retry.clone(),
        job: 0,
        ..WorkerOptions::default()
    };
    let dial = || connect(addr, Some(preferred as u64), &options);
    let (mut stream, assignment) = dial()?;
    let (model, dataset) = build(assignment.n, assignment.batch_size);
    let mut context = CodewordContext::new(model, dataset, assignment.n);
    let mut core = WorkerCore::new(assignment);
    let mut misbehavior = Misbehavior::default();

    let mut summary = ChaosWorkerSummary {
        worker: preferred,
        codewords_sent: 0,
        faults_applied: 0,
        reconnects: 0,
        died: false,
    };
    // A fresh registration under the same slot; `None` once the master
    // stays unreachable past the retry budget.
    let redial = |summary: &mut ChaosWorkerSummary| -> Option<(TcpStream, WorkerCore)> {
        let (fresh, reassign) = dial().ok()?;
        summary.reconnects += 1;
        Some((fresh, WorkerCore::new(reassign)))
    };

    loop {
        let Ok(message) = read_message(&mut stream) else {
            // Unscripted loss: the master crashed or shut down hard.
            // Reconnect and serve whatever step it resumes at — the resumed
            // master re-awaits full registration, so there is no mid-step
            // rejoin race to decline around.
            let Some(session) = redial(&mut summary) else {
                return Ok(summary);
            };
            (stream, core) = session;
            continue;
        };
        core.on_message(message);
        if core.is_shut_down() {
            return Ok(summary);
        }
        let Some((step, params)) = core.take_params() else {
            continue;
        };
        let fault = if misbehavior.rejoining(step) {
            None
        } else {
            plan.fault_for(preferred, step)
        };
        if fault.is_some() {
            summary.faults_applied += 1;
        }
        let reaction = misbehavior.react(fault, &core, &mut context, step, &params);
        if !reaction.delay.is_zero() {
            thread::sleep(reaction.delay);
        }
        for emit in &reaction.emit {
            match emit {
                Emit::Frame(m) => {
                    let _ = write_message(&mut stream, m);
                }
                Emit::Bytes(b) => {
                    let _ = stream.write_all(b);
                }
            }
        }
        if reaction.served {
            summary.codewords_sent += 1;
        }
        match reaction.after {
            After::Stay => {}
            After::Die => {
                summary.died = true;
                return Ok(summary);
            }
            After::Rejoin => {
                drop(stream);
                let Some(session) = redial(&mut summary) else {
                    return Ok(summary);
                };
                (stream, core) = session;
            }
        }
    }
}
