//! The IS-GC worker: [`WorkerCore`], the protocol state machine every
//! worker loop shares, and [`run_worker`], the thread-per-connection client
//! that drives it over TCP, straggles per an injected delay, and reconnects
//! under a shared [`RetryPolicy`] when the connection drops.

use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use isgc_linalg::Vector;
use isgc_ml::{CodewordContext, Dataset, Model};

use crate::retry::RetryPolicy;
use crate::wire::{read_message_tagged, write_message_for_job, Message};
use crate::{DelayFn, NetError};

/// Tunables of the worker loop.
#[derive(Clone)]
pub struct WorkerOptions {
    /// Injected straggler delay applied after each step's computation.
    pub delay: DelayFn,
    /// How often the worker proves liveness to the master.
    pub heartbeat_interval: Duration,
    /// Backoff schedule shared by the initial connect, reconnects after a
    /// dropped connection, and heartbeat write retries. Jitter is salted by
    /// the worker id, so a cluster reconnecting at once still fans out
    /// deterministically instead of thundering back in lockstep.
    pub retry: RetryPolicy,
    /// Tenant id stamped on every outbound frame; inbound frames tagged
    /// with a different job are ignored. Job 0 is the single-tenant
    /// default.
    pub job: u64,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            delay: crate::no_delay(),
            heartbeat_interval: Duration::from_millis(200),
            retry: RetryPolicy::default(),
            job: 0,
        }
    }
}

impl WorkerOptions {
    /// Default options with the given delay function.
    pub fn with_delay(delay: DelayFn) -> Self {
        WorkerOptions {
            delay,
            ..WorkerOptions::default()
        }
    }
}

/// What the master assigned this worker during registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    /// This worker's slot id in `0..n`.
    pub worker: usize,
    /// Cluster size (also the number of data partitions).
    pub n: usize,
    /// Partitions per worker *in the configured placement* (placement
    /// repair may later grow this worker's actual list past `c`).
    pub c: usize,
    /// Mini-batch size per partition per step.
    pub batch_size: usize,
    /// Shared seed for deterministic mini-batch sampling.
    pub seed: u64,
    /// The partitions this worker computes each step; updated in place
    /// when the master re-issues `Assign` after placement repair.
    pub partitions: Vec<usize>,
}

impl Assignment {
    /// The assignment an `Assign` frame carries; `None` for any other
    /// message.
    pub fn from_message(message: &Message) -> Option<Assignment> {
        match message {
            Message::Assign {
                worker,
                n,
                c,
                batch_size,
                seed,
                partitions,
            } => Some(Assignment {
                worker: *worker as usize,
                n: *n as usize,
                c: *c as usize,
                batch_size: *batch_size as usize,
                seed: *seed,
                partitions: partition_list(partitions),
            }),
            _ => None,
        }
    }
}

fn partition_list(partitions: &[u64]) -> Vec<usize> {
    partitions.iter().map(|&j| j as usize).collect()
}

/// One worker's protocol state, free of I/O: the worker loops
/// ([`run_worker`], [`crate::swarm`], the chaos client and the model
/// checker's modeled workers) feed it inbound frames with
/// [`WorkerCore::on_message`] and send the codewords it computes.
///
/// The rules: `Shutdown` wins over anything pending; `Assign` replaces the
/// partition list in arrival order; the newest `Params` wins, so a worker
/// that straggled through several rounds jumps straight to the current
/// step; every other frame is ignored.
#[derive(Debug, Clone)]
pub struct WorkerCore {
    assignment: Assignment,
    pending: Option<(u64, Vector)>,
    shut_down: bool,
}

impl WorkerCore {
    /// A core serving `assignment`, with nothing pending.
    pub fn new(assignment: Assignment) -> WorkerCore {
        WorkerCore {
            assignment,
            pending: None,
            shut_down: false,
        }
    }

    /// The current assignment (partitions as of the last `Assign`).
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Folds one inbound frame into the state.
    pub fn on_message(&mut self, message: Message) {
        match message {
            Message::Shutdown => self.shut_down = true,
            Message::Assign { partitions, .. } => {
                self.assignment.partitions = partition_list(&partitions);
            }
            Message::Params { step, values } => self.pending = Some((step, Vector::from(values))),
            _ => {}
        }
    }

    /// Whether the master shut the run down.
    pub fn is_shut_down(&self) -> bool {
        self.shut_down
    }

    /// Takes the newest pending step and its parameters; `None` when no
    /// `Params` is pending or the run was shut down.
    pub fn take_params(&mut self) -> Option<(u64, Vector)> {
        if self.shut_down {
            return None;
        }
        self.pending.take()
    }

    /// This worker's honest `Codeword` reply for `step`, computed from
    /// `params` over its current partitions.
    pub fn codeword<M: Model>(
        &self,
        context: &mut CodewordContext<M>,
        step: u64,
        params: &Vector,
    ) -> Message {
        let a = &self.assignment;
        let values = context.codeword(&a.partitions, a.batch_size, a.seed, step, params);
        Message::Codeword {
            worker: a.worker as u64,
            step,
            values: values.into_vec(),
        }
    }
}

/// Why a worker's main loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownCause {
    /// The master sent `Shutdown`: the run completed.
    MasterShutdown,
    /// The connection dropped and every reconnect attempt failed.
    MasterUnreachable,
}

/// What a worker did over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSummary {
    /// The slot id this worker served as.
    pub worker: usize,
    /// Codewords computed and sent.
    pub steps_served: usize,
    /// Successful reconnections after a dropped connection.
    pub reconnects: usize,
    /// Why the loop ended.
    pub cause: ShutdownCause,
}

/// How one connection session ended.
enum SessionEnd {
    Shutdown,
    Lost,
}

/// Runs a worker until the master shuts the run down (or becomes
/// unreachable).
///
/// `build` receives the master's [`Assignment`] and returns the model and
/// the **full** dataset; the worker partitions it into `n` parts itself so
/// every peer slices identically. Each step's newest `Params` yields one
/// codeword from [`WorkerCore`]: per assigned partition, a deterministic
/// mini-batch is drawn (`partition`, `batch_size`, `step`, `seed` —
/// identical on any peer that would recompute it), gradient sums are
/// accumulated, the injected delay runs, and the codeword is sent back
/// tagged with the step.
///
/// A mid-session `Assign` (issued by placement repair when a peer is
/// declared permanently dead) replaces this worker's partition list on the
/// fly; subsequent steps compute the adopted partitions too.
///
/// # Errors
///
/// [`NetError::Io`] when the initial connection cannot be established at
/// all; after a successful registration, connection loss is handled by
/// reconnecting and ultimately reported via
/// [`ShutdownCause::MasterUnreachable`] instead of an error.
pub fn run_worker<M, F>(
    addr: impl ToSocketAddrs,
    options: &WorkerOptions,
    build: F,
) -> Result<WorkerSummary, NetError>
where
    M: Model,
    F: FnOnce(&Assignment) -> (M, Dataset),
{
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| NetError::InvalidConfig("address resolved to nothing".into()))?;

    let (mut stream, assignment) = connect(addr, None, options)?;
    let (model, dataset) = build(&assignment);
    let mut context = CodewordContext::new(model, dataset, assignment.n);
    let mut core = WorkerCore::new(assignment);

    let mut summary = WorkerSummary {
        worker: core.assignment().worker,
        steps_served: 0,
        reconnects: 0,
        cause: ShutdownCause::MasterShutdown,
    };
    loop {
        match session(stream, &mut core, &mut context, options, &mut summary) {
            SessionEnd::Shutdown => {
                summary.cause = ShutdownCause::MasterShutdown;
                return Ok(summary);
            }
            SessionEnd::Lost => match connect(addr, Some(summary.worker as u64), options) {
                Ok((fresh, reassign)) => {
                    summary.reconnects += 1;
                    // The master's Assign reflects any placement repair run
                    // while we were away; adopt it rather than computing a
                    // stale partition set.
                    core = WorkerCore::new(Assignment {
                        partitions: reassign.partitions,
                        ..core.assignment().clone()
                    });
                    stream = fresh;
                }
                Err(_) => {
                    summary.cause = ShutdownCause::MasterUnreachable;
                    return Ok(summary);
                }
            },
        }
    }
}

/// Dials the master under the shared [`RetryPolicy`] and completes the
/// `Hello`/`Assign` handshake, asking for slot `preferred` if given. Every
/// worker loop registers through it: [`run_worker`], the swarm (which then
/// hands the stream to its reactor) and the chaos client.
///
/// # Errors
///
/// The last attempt's failure once `options.retry` is exhausted.
pub fn connect(
    addr: std::net::SocketAddr,
    preferred: Option<u64>,
    options: &WorkerOptions,
) -> Result<(TcpStream, Assignment), NetError> {
    let salt = preferred.map_or(u64::MAX, |p| p);
    options.retry.run(salt, || {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        write_message_for_job(&mut stream, options.job, &Message::Hello { preferred })?;
        match read_message_tagged(&mut stream)? {
            (frame_job, _, _) if frame_job != options.job => Err(NetError::Protocol(format!(
                "master answered for job {frame_job}, expected {}",
                options.job
            ))),
            (_, message, _) => match Assignment::from_message(&message) {
                Some(assignment) => Ok((stream, assignment)),
                None => Err(NetError::Protocol(format!(
                    "expected Assign after Hello, got {message:?}"
                ))),
            },
        }
    })
}

/// Serves one connection until shutdown or loss.
///
/// A reader thread feeds inbound messages into a channel so the main loop
/// can drain the whole backlog into the core before computing — a worker
/// that straggled through several rounds answers only the newest step. The
/// heartbeat thread keeps proving liveness while the main loop sleeps in
/// its injected delay.
fn session<M: Model>(
    stream: TcpStream,
    core: &mut WorkerCore,
    context: &mut CodewordContext<M>,
    options: &WorkerOptions,
    summary: &mut WorkerSummary,
) -> SessionEnd {
    let writer = Arc::new(Mutex::new(match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return SessionEnd::Lost,
    }));

    let (inbound_tx, inbound_rx) = mpsc::channel::<Message>();
    let reader = {
        let mut read_half = stream;
        let job = options.job;
        thread::Builder::new()
            .name(format!("isgc-net-worker-{}-reader", summary.worker))
            .spawn(move || loop {
                match read_message_tagged(&mut read_half) {
                    Ok((frame_job, _, _)) if frame_job != job => continue,
                    Ok((_, message, _)) => {
                        let shutdown = matches!(message, Message::Shutdown);
                        if inbound_tx.send(message).is_err() || shutdown {
                            return;
                        }
                    }
                    Err(_) => return, // dropping inbound_tx signals loss
                }
            })
    };
    if reader.is_err() {
        return SessionEnd::Lost;
    }

    let hb_stop = Arc::new(AtomicBool::new(false));
    let heartbeat = spawn_heartbeat(
        Arc::clone(&writer),
        summary.worker as u64,
        options.heartbeat_interval,
        options.retry.clone(),
        Arc::clone(&hb_stop),
        options.job,
    );

    let end = serve_messages(&inbound_rx, &writer, core, context, options, summary);

    hb_stop.store(true, Ordering::Release);
    let _ = heartbeat.join();
    end
}

/// The worker's message loop proper (split out so `session` owns cleanup).
fn serve_messages<M: Model>(
    inbound_rx: &Receiver<Message>,
    writer: &Mutex<TcpStream>,
    core: &mut WorkerCore,
    context: &mut CodewordContext<M>,
    options: &WorkerOptions,
    summary: &mut WorkerSummary,
) -> SessionEnd {
    loop {
        let Ok(first) = inbound_rx.recv() else {
            return SessionEnd::Lost;
        };
        core.on_message(first);
        while let Ok(next) = inbound_rx.try_recv() {
            core.on_message(next);
        }
        if core.is_shut_down() {
            return SessionEnd::Shutdown;
        }
        let Some((step, params)) = core.take_params() else {
            continue;
        };
        let reply = core.codeword(context, step, &params);
        let pause = (options.delay)(summary.worker, step);
        if !pause.is_zero() {
            thread::sleep(pause);
        }
        let sent = {
            let mut guard = writer.lock().expect("writer mutex poisoned");
            write_message_for_job(&mut *guard, options.job, &reply)
        };
        if sent.is_err() {
            // A master that finished while we straggled says `Shutdown`
            // before it closes: take what the reader got before the
            // connection died, so a goodbye is not mistaken for a loss.
            while let Ok(message) = inbound_rx.recv_timeout(Duration::from_secs(1)) {
                core.on_message(message);
            }
            if core.is_shut_down() {
                return SessionEnd::Shutdown;
            }
            return SessionEnd::Lost;
        }
        summary.steps_served += 1;
    }
}

/// Periodically proves liveness; a failed write is retried under the shared
/// [`RetryPolicy`] before the thread gives up (the session loop notices the
/// dead socket through its own writes and reconnects).
fn spawn_heartbeat(
    writer: Arc<Mutex<TcpStream>>,
    worker: u64,
    interval: Duration,
    retry: RetryPolicy,
    stop: Arc<AtomicBool>,
    job: u64,
) -> thread::JoinHandle<()> {
    thread::Builder::new()
        .name("isgc-net-heartbeat".into())
        .spawn(move || {
            // Tick in short slices so a stop request never waits a full
            // interval.
            let slice = Duration::from_millis(25).min(interval);
            let mut elapsed = Duration::ZERO;
            let mut failures = 0u32;
            loop {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                if elapsed >= interval {
                    elapsed = Duration::ZERO;
                    let ok = {
                        let mut guard = writer.lock().expect("writer mutex poisoned");
                        write_message_for_job(&mut *guard, job, &Message::Heartbeat { worker })
                            .is_ok()
                    };
                    if ok {
                        failures = 0;
                    } else {
                        failures += 1;
                        if failures >= retry.max_attempts.max(1) {
                            return;
                        }
                        thread::sleep(retry.delay(failures, worker));
                    }
                }
                thread::sleep(slice);
                elapsed += slice;
            }
        })
        .expect("failed to spawn heartbeat thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use isgc_ml::LinearRegression;

    const FEATURES: usize = 3;

    fn assignment(partitions: Vec<usize>) -> Assignment {
        Assignment {
            worker: 2,
            n: 4,
            c: 1,
            batch_size: 3,
            seed: 17,
            partitions,
        }
    }

    fn dataset() -> Dataset {
        Dataset::synthetic_regression(48, FEATURES, 0.1, 5)
    }

    fn params_msg(step: u64, fill: f64) -> Message {
        Message::Params {
            step,
            values: vec![fill; FEATURES + 1],
        }
    }

    fn assign_msg(partitions: &[u64]) -> Message {
        Message::Assign {
            worker: 2,
            n: 4,
            c: 1,
            batch_size: 3,
            seed: 17,
            partitions: partitions.to_vec(),
        }
    }

    /// The codeword recomputed independently of `isgc_ml::CodewordContext`:
    /// a fresh gradient vector per partition, summed from zero.
    fn reference_codeword(partitions: &[usize], step: u64, params: &Vector) -> Vec<f64> {
        let model = LinearRegression::new(FEATURES);
        let data = dataset();
        let parts = data.partition(4);
        let mut sum = vec![0.0; FEATURES + 1];
        for &p in partitions {
            let batch = parts.minibatch(p, 3, step, 17);
            let g = model.gradient_sum(params, &data, &batch);
            for (s, v) in sum.iter_mut().zip(g.as_slice()) {
                *s += v;
            }
        }
        sum
    }

    #[test]
    fn backlog_yields_one_reply_for_the_newest_params_with_new_partitions() {
        let mut core = WorkerCore::new(assignment(vec![2]));
        let mut context = CodewordContext::new(LinearRegression::new(FEATURES), dataset(), 4);
        for message in [
            params_msg(5, 0.25),
            assign_msg(&[2, 0]),
            params_msg(6, -0.5),
        ] {
            core.on_message(message);
        }
        let (step, params) = core.take_params().expect("a step is pending");
        assert_eq!(step, 6);
        assert_eq!(params.as_slice(), &[-0.5; FEATURES + 1]);
        assert!(
            core.take_params().is_none(),
            "exactly one reply per backlog"
        );
        assert_eq!(core.assignment().partitions, vec![2, 0]);

        let Message::Codeword {
            worker,
            step,
            values,
        } = core.codeword(&mut context, step, &params)
        else {
            panic!("reply is a codeword");
        };
        assert_eq!((worker, step), (2, 6));
        let want = reference_codeword(&[2, 0], 6, &params);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&values), bits(&want), "bitwise equal to the reference");
    }

    #[test]
    fn shutdown_in_the_backlog_beats_pending_params() {
        let mut core = WorkerCore::new(assignment(vec![1]));
        core.on_message(params_msg(3, 1.0));
        core.on_message(Message::Shutdown);
        core.on_message(params_msg(4, 1.0));
        assert!(core.is_shut_down());
        assert!(core.take_params().is_none());
    }

    #[test]
    fn heartbeats_and_other_frames_are_ignored() {
        let mut core = WorkerCore::new(assignment(vec![1]));
        for message in [
            Message::Heartbeat { worker: 2 },
            Message::Hello { preferred: Some(2) },
            Message::Decline { worker: 2, step: 0 },
            Message::Codeword {
                worker: 1,
                step: 0,
                values: vec![1.0; FEATURES + 1],
            },
        ] {
            core.on_message(message);
        }
        assert!(!core.is_shut_down());
        assert!(core.take_params().is_none());
        assert_eq!(core.assignment(), &assignment(vec![1]));
    }

    #[test]
    fn default_options_are_sane() {
        let opts = WorkerOptions::default();
        assert!(opts.retry.max_attempts >= 1);
        assert!(opts.heartbeat_interval > Duration::ZERO);
        assert_eq!((opts.delay)(3, 9), Duration::ZERO);
    }

    #[test]
    fn connect_fails_fast_against_closed_port() {
        // Bind-then-drop gives a port nothing listens on.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let options = WorkerOptions {
            retry: RetryPolicy {
                base: Duration::from_millis(1),
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            ..WorkerOptions::default()
        };
        let addr: std::net::SocketAddr = format!("127.0.0.1:{port}").parse().unwrap();
        assert!(connect(addr, None, &options).is_err());
    }

    #[test]
    fn assignment_roundtrips_through_wire_types() {
        let a = Assignment {
            worker: 3,
            n: 8,
            c: 2,
            batch_size: 4,
            seed: 99,
            partitions: vec![3, 4],
        };
        assert_eq!(a.partitions.len(), a.c);
        assert!(a.worker < a.n);
    }
}
