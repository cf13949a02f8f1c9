//! Two-level hierarchical aggregation over TCP: sub-masters and the tree
//! root loop.
//!
//! For large clusters a single master serializes `n` codeword uploads per
//! step. In tree mode the cluster is cut into group-aligned shards (at
//! [`isgc_engine::shard_ranges`], so each shard is a subtree of the
//! canonical pairwise reduction): a **sub-master** owns each shard, relays
//! the root's `Params` broadcast to its workers, collects their codewords,
//! runs the shard-local slice of the conflict-graph decode, and uploads only
//! `(arrivals, selection, partial sum)` — the raw codewords never leave the
//! shard. The **root** (`TreeRootLoop`) merges the partials with
//! [`isgc_engine::pairwise_sum`] and hands the engine a pre-decoded
//! [`Collected`], so bound checks, normalization, and SGD run exactly as in
//! flat mode.
//!
//! Both tiers run on the nonblocking `crate::reactor`: the root's
//! listener, every sub-master link, a sub-master's own worker listener,
//! *and* its upstream root link are all descriptors in one poll set, so a
//! sub-master process spends zero threads on I/O. Root messages that land
//! while a shard step is collecting (and worker events that land between
//! steps) are buffered and replayed in order, preserving the exact
//! interleaving the old blocking transport produced.
//!
//! Determinism: the FR decoder's per-group representative choice is a pure
//! hash of `(step_rng(seed, step), group)`, so a shard decoding only its own
//! groups picks exactly the representatives a flat master would, and the
//! fixed merge order makes the aggregate bitwise identical to flat
//! aggregation (see `isgc-engine::merge`).

use std::collections::VecDeque;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isgc_core::decode::{decoder_for, Decoder};
use isgc_core::{Placement, Scheme, WorkerSet};
use isgc_engine::{
    pairwise_sum, shard_ranges, step_rng, Collected, Collector, EngineError, ShardedDecode,
    StepContext,
};
use isgc_linalg::Vector;

use crate::master::{backend, NetConfig, Sent};
use crate::membership::{Inbound, Membership, Tier, POLL};
use crate::reactor::{NetEvent, Reactor, Token};
use crate::retry::RetryPolicy;
use crate::seam::Transport;
use crate::wire::{encode_params_frame, read_message_tagged, write_message_for_job, Message};
use crate::{NetError, WaitPolicy};

/// How long an upload or shutdown flush may pump before giving up on the
/// peer (loopback drains in microseconds; this only bounds a wedged link).
const FLUSH_LIMIT: Duration = Duration::from_secs(5);

/// The root's collector in tree mode: one slot per sub-master, each
/// delivering a shard's `(arrivals, selection, partial sum)` per step. Slot
/// bookkeeping is the shared membership core; this loop adds the
/// `ShardAssign` frames and the merge of the shard reports.
pub struct TreeRootLoop {
    members: Membership,
    shards: Vec<(usize, usize)>,
    config: NetConfig,
    /// The step `send` broadcast and `collect` has not closed yet.
    sent: Option<Sent>,
}

/// One shard's upload for the step being collected.
struct ShardReport {
    arrivals: Vec<usize>,
    selected: Vec<usize>,
    recovered: usize,
    partial: Option<Vector>,
}

impl TreeRootLoop {
    /// Validates the tree geometry and builds the (not yet registered)
    /// root loop over `transport`.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for bad tree geometry (non-power-of-two
    /// shard count, non-FR placement, shard boundary cutting an FR group).
    pub fn new(
        config: NetConfig,
        transport: Box<dyn Transport>,
        submasters: usize,
    ) -> Result<TreeRootLoop, NetError> {
        let n = config.placement.n();
        let c = config.placement.c();
        if submasters == 0 || !submasters.is_power_of_two() {
            return Err(NetError::InvalidConfig(format!(
                "sub-master count must be a positive power of two, got {submasters}"
            )));
        }
        if submasters > n {
            return Err(NetError::InvalidConfig(format!(
                "cannot cut n={n} workers into {submasters} shards"
            )));
        }
        if config.placement.scheme() != Scheme::Fractional {
            return Err(NetError::InvalidConfig(format!(
                "tree aggregation requires an FR placement (shard-local decode \
                 decomposes over FR groups), got {}",
                config.placement.scheme()
            )));
        }
        let shards = shard_ranges(n, submasters);
        for &(lo, hi) in &shards {
            if lo % c != 0 || hi % c != 0 {
                return Err(NetError::InvalidConfig(format!(
                    "shard boundary [{lo}, {hi}) cuts through an FR group (c={c})"
                )));
            }
        }
        let replies = shards
            .iter()
            .enumerate()
            .map(|(shard, &(lo, hi))| {
                Message::ShardAssign {
                    shard: shard as u64,
                    lo: lo as u64,
                    hi: hi as u64,
                    n: n as u64,
                    c: c as u64,
                    batch_size: config.batch_size as u64,
                    seed: config.seed,
                }
                .encode_for_job(config.job)
                .into()
            })
            .collect();
        // No idle deadline: a sub-master is only expected to speak once per
        // step, however long its shard takes.
        let members = Membership::new(Tier::Submasters, replies, 0, None, config.job, transport);
        Ok(TreeRootLoop {
            members,
            shards,
            config,
            sent: None,
        })
    }

    /// Blocks until every shard's sub-master registered (or the
    /// registration deadline passes).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on registration timeout; transport failures.
    pub fn await_registration(&mut self) -> Result<(), NetError> {
        self.members
            .await_registration(self.config.register_timeout, Some)
    }

    /// Notifies sub-masters the run is over (they relay to their workers),
    /// or emulates a killed root by hard-closing every socket.
    pub fn close_peers(&mut self, crashed: bool) {
        self.members.close(crashed, Duration::from_secs(1));
    }
}

impl Collector for TreeRootLoop {
    fn n(&self) -> usize {
        self.config.placement.n()
    }

    /// Liveness at worker granularity: a shard's workers are alive iff the
    /// shard's sub-master connection is. (The Theorem 10/11 bound the
    /// engine checks per step is computed from what actually arrived, so
    /// this coarse view only affects wait targets, never correctness.)
    fn alive(&self) -> Vec<bool> {
        let mut alive = vec![false; self.n()];
        for (shard, &(lo, hi)) in self.shards.iter().enumerate() {
            if self.members.is_alive(shard) {
                alive[lo..hi].fill(true);
            }
        }
        alive
    }

    /// Waits out the rejoin grace, then broadcasts the step's `Params` to
    /// every alive sub-master; `collect` picks up the grace's stale count
    /// and the send instant.
    fn send(&mut self, step: u64, params: &Vector) {
        // A restarted shard's step membership depends only on the step its
        // crash was scripted at, never on how fast its restart races the
        // broadcast (which the engine issues right after the previous
        // step's update).
        let stale = self
            .members
            .await_rejoins(self.config.rejoin_grace, |_| true);
        let at = Instant::now();
        let frame: Arc<[u8]> = encode_params_frame(self.config.job, step, params.as_slice()).into();
        self.members.broadcast(&frame);
        self.sent = Some(Sent { at, stale });
    }

    fn collect(&mut self, ctx: &StepContext<'_>) -> Result<Collected, EngineError> {
        let Sent {
            at: step_start,
            mut stale,
        } = self
            .sent
            .take()
            .expect("the engine sends each step before collecting it");
        // A deadline wait policy caps how long present shards are held up by
        // an absent one. Under FirstW the root waits for every shard that
        // received the broadcast — a crashed shard's EOF unblocks the step
        // immediately.
        let cutoff = match self.config.wait {
            WaitPolicy::FirstW(_) => None,
            WaitPolicy::Deadline(d) => Some(step_start + d),
        };
        let submasters = self.members.len();
        // A restarted sub-master re-registers on a new connection that never
        // saw this step's broadcast: its first step is the next one.
        let eligible = self.members.snapshot();
        let mut reports: Vec<Option<ShardReport>> = (0..submasters).map(|_| None).collect();
        // The cutoff may have passed before collection started (the engine
        // runs the loss, checkpoint and observer after `send`), so past it
        // the root takes every upload already queued — zero-timeout polls —
        // and closes on the first quiet one.
        let mut drained = false;
        loop {
            let pending = self.members.pending(&eligible, |s| reports[s].is_some());
            let uploaded = reports.iter().filter(|r| r.is_some()).count();
            if pending == 0 || drained {
                if uploaded == 0 && !self.members.any_alive() {
                    return Err(backend(NetError::AllWorkersLost));
                }
                break;
            }
            let draining = uploaded > 0 && cutoff.is_some_and(|c| Instant::now() >= c);
            let timeout = if draining { Duration::ZERO } else { POLL };
            let event = match self.members.transport().next_event(timeout) {
                Ok(Some(event)) => event,
                Ok(None) => {
                    drained = draining;
                    continue;
                }
                Err(e) => return Err(backend(e)),
            };
            // Like codewords, the slot is authoritative over the claimed
            // shard id, and stale steps are counted, never mixed in.
            if let Some(Inbound::Msg {
                slot: shard,
                message:
                    Message::ShardUpload {
                        step,
                        arrivals,
                        selected,
                        recovered,
                        partial,
                        ..
                    },
            }) = self.members.react(event)
            {
                if step == ctx.step && reports[shard].is_none() {
                    reports[shard] = Some(ShardReport {
                        arrivals: arrivals.iter().map(|&w| w as usize).collect(),
                        selected: selected.iter().map(|&w| w as usize).collect(),
                        recovered: recovered as usize,
                        partial: (!partial.is_empty()).then(|| Vector::from_slice(&partial)),
                    });
                } else {
                    stale += 1;
                }
            }
        }

        let n = self.n();
        let mut arrivals = Vec::new();
        let mut selected = Vec::new();
        let mut recovered = 0usize;
        let mut partials: Vec<Option<Vector>> = Vec::with_capacity(submasters);
        for report in &mut reports {
            match report.take() {
                Some(report) => {
                    arrivals.extend_from_slice(&report.arrivals);
                    selected.extend_from_slice(&report.selected);
                    recovered += report.recovered;
                    partials.push(report.partial);
                }
                None => partials.push(None),
            }
        }
        arrivals.sort_unstable();
        let waited = step_start.elapsed();
        Ok(Collected {
            arrivals,
            codewords: vec![None; n],
            declined: Vec::new(),
            stale,
            waited_ms: waited.as_secs_f64() * 1e3,
            duration: waited.as_secs_f64(),
            sharded: Some(ShardedDecode {
                selected,
                recovered,
                partials,
            }),
        })
    }
}

/// Tunables of a sub-master.
#[derive(Debug, Clone)]
pub struct SubmasterOptions {
    /// Backoff for dialing (and re-dialing) the root.
    pub retry: RetryPolicy,
    /// A shard worker silent for longer than this while a step is
    /// collecting is presumed dead for that step.
    pub heartbeat_timeout: Duration,
    /// How long to wait for the shard's workers to register before the
    /// first step.
    pub register_timeout: Duration,
    /// Tenant id stamped on every frame (both toward the root and toward
    /// the shard workers); foreign frames are dropped.
    pub job: u64,
    /// Chaos hook: crash (hard-close every socket, return) upon *receiving*
    /// the `Params` broadcast of this step — mid-step, after the root
    /// committed to this shard's liveness but before any upload.
    pub crash_at_step: Option<u64>,
}

impl Default for SubmasterOptions {
    fn default() -> Self {
        SubmasterOptions {
            retry: RetryPolicy::default(),
            heartbeat_timeout: Duration::from_secs(2),
            register_timeout: Duration::from_secs(30),
            job: 0,
            crash_at_step: None,
        }
    }
}

/// What a sub-master did over its lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmasterSummary {
    /// The shard this sub-master served.
    pub shard: usize,
    /// Steps decoded and uploaded.
    pub steps_served: usize,
    /// Whether a scripted [`SubmasterOptions::crash_at_step`] fired.
    pub crashed: bool,
    /// Whether the root ended the run with a clean `Shutdown` (false when
    /// the root became unreachable or the sub-master crashed).
    pub clean_shutdown: bool,
}

/// A bound sub-master, listening for its shard's workers. Bind first (so
/// the harness can hand workers the address), then [`Submaster::run`].
pub struct Submaster {
    listener: std::net::TcpListener,
}

impl Submaster {
    /// Binds the sub-master's worker-facing listening socket.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Submaster, NetError> {
        Ok(Submaster {
            listener: std::net::TcpListener::bind(addr)?,
        })
    }

    /// Binds with retries — the restart path after a scripted crash, when
    /// the old socket may still be draining.
    ///
    /// # Errors
    ///
    /// The final bind error once the policy's attempts are exhausted.
    pub fn bind_with_retry(
        addr: impl ToSocketAddrs + Copy,
        policy: &RetryPolicy,
    ) -> Result<Submaster, NetError> {
        policy.run(0, || Submaster::bind(addr))
    }

    /// The bound worker-facing address.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures from the OS.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs the sub-master for `shard`: registers with the root (SubHello /
    /// ShardAssign), registers its shard's workers, then per step relays
    /// `Params`, collects the shard's codewords, runs the shard-local
    /// decode, and uploads the partial sum. Returns when the root sends
    /// `Shutdown`, becomes unreachable past the retry budget, or a scripted
    /// crash fires.
    ///
    /// # Errors
    ///
    /// [`NetError`] when the root handshake fails outright or the shard's
    /// workers never register.
    pub fn run(
        self,
        root: impl ToSocketAddrs,
        shard: usize,
        options: &SubmasterOptions,
    ) -> Result<SubmasterSummary, NetError> {
        let root_addr = root
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| NetError::InvalidConfig("root address resolved to nothing".into()))?;
        let mut root_stream = dial_root(root_addr, shard, options)?;
        let geometry = read_shard_assign(&mut root_stream, shard, options.job)?;

        // One reactor carries both tiers: the worker-facing listener and
        // the upstream root link share the poll set, so the whole
        // sub-master is a single thread.
        let mut reactor = Reactor::new(Some(self.listener), options.job, None)?;
        let root_token = reactor.register_adopted(root_stream, None)?;
        let mut shard_loop = ShardLoop::new(geometry, options.clone(), Box::new(reactor))?;
        shard_loop.root = root_token;

        let mut summary = SubmasterSummary {
            shard,
            steps_served: 0,
            crashed: false,
            clean_shutdown: false,
        };
        let outcome = shard_loop.serve(root_addr, &mut summary);

        // Teardown: notify the workers, or emulate a killed process (which
        // also hard-closes the root link). The listener dies with the
        // reactor when the loop drops.
        shard_loop.close_peers(summary.crashed);
        outcome.map(|()| summary)
    }
}

/// The geometry the root assigns a sub-master (its `ShardAssign`).
#[derive(Debug, Clone, Copy)]
pub struct ShardGeometry {
    /// Shard index in the tree.
    pub shard: usize,
    /// First global worker id owned by the shard (inclusive).
    pub lo: usize,
    /// One past the last global worker id owned by the shard.
    pub hi: usize,
    /// Cluster size.
    pub n: usize,
    /// Copies per worker (FR group size).
    pub c: usize,
    /// Mini-batch size per partition per step.
    pub batch_size: usize,
    /// The run's shared seed.
    pub seed: u64,
}

/// Dials the root and sends `SubHello` under the retry policy.
fn dial_root(
    addr: std::net::SocketAddr,
    shard: usize,
    options: &SubmasterOptions,
) -> Result<TcpStream, NetError> {
    options.retry.run(shard as u64, || {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let hello = Message::SubHello {
            shard: shard as u64,
        };
        write_message_for_job(&mut stream, options.job, &hello)?;
        Ok(stream)
    })
}

/// Reads the `ShardAssign` reply of a `SubHello`.
fn read_shard_assign(
    stream: &mut TcpStream,
    expected_shard: usize,
    job: u64,
) -> Result<ShardGeometry, NetError> {
    match read_message_tagged(stream)? {
        (frame_job, _, _) if frame_job != job => Err(NetError::Protocol(format!(
            "root answered for job {frame_job}, expected {job}"
        ))),
        (
            _,
            Message::ShardAssign {
                shard,
                lo,
                hi,
                n,
                c,
                batch_size,
                seed,
            },
            _,
        ) => {
            if shard as usize != expected_shard {
                return Err(NetError::Protocol(format!(
                    "root assigned shard {shard}, asked for {expected_shard}"
                )));
            }
            Ok(ShardGeometry {
                shard: shard as usize,
                lo: lo as usize,
                hi: hi as usize,
                n: n as usize,
                c: c as usize,
                batch_size: batch_size as usize,
                seed,
            })
        }
        (_, other, _) => Err(NetError::Protocol(format!(
            "expected ShardAssign after SubHello, got {other:?}"
        ))),
    }
}

/// The sub-master's worker-facing state machine: slot `i` holds global
/// worker `lo + i`. Slot bookkeeping is the shared membership core; this
/// loop adds the root link, the two backlogs, the shard-local decode and
/// the upload.
pub struct ShardLoop {
    geometry: ShardGeometry,
    decoder: Box<dyn Decoder>,
    members: Membership,
    /// The upstream root link's token (replaced on reconnect).
    root: Token,
    /// Root events that landed while a shard step was collecting; replayed
    /// by the serve loop in order — the reactor interleaves both tiers on
    /// one event stream, the old transport kept them on separate sockets.
    root_backlog: VecDeque<NetEvent>,
    /// Worker events that landed between steps; replayed by the next
    /// step's collection loop, exactly when the old per-connection reader
    /// threads' channel would have delivered them.
    worker_backlog: VecDeque<NetEvent>,
    options: SubmasterOptions,
}

impl ShardLoop {
    /// Builds the shard loop for `geometry`'s slice of the cluster over
    /// `transport`. It starts without a root link (the never-issued
    /// sentinel token `u64::MAX`): a caller that drives
    /// [`ShardLoop::serve_step`] directly — the model checker — takes the
    /// upload it returns instead of having it written upstream.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] when the geometry does not form a valid
    /// FR placement.
    pub fn new(
        geometry: ShardGeometry,
        options: SubmasterOptions,
        transport: Box<dyn Transport>,
    ) -> Result<ShardLoop, NetError> {
        if geometry.lo >= geometry.hi || geometry.hi > geometry.n {
            return Err(NetError::InvalidConfig(format!(
                "shard range [{}, {}) outside cluster of {}",
                geometry.lo, geometry.hi, geometry.n
            )));
        }
        let placement = Placement::fractional(geometry.n, geometry.c)
            .map_err(|e| NetError::InvalidConfig(e.to_string()))?;
        let decoder =
            decoder_for(&placement).map_err(|e| NetError::InvalidConfig(e.to_string()))?;
        // Global ids are the contract: a worker claiming id `g` must
        // satisfy `lo <= g < hi`.
        let replies = (geometry.lo..geometry.hi)
            .map(|global| {
                Message::Assign {
                    worker: global as u64,
                    n: geometry.n as u64,
                    c: geometry.c as u64,
                    batch_size: geometry.batch_size as u64,
                    seed: geometry.seed,
                    partitions: placement
                        .partitions_of(global)
                        .iter()
                        .map(|&j| j as u64)
                        .collect(),
                }
                .encode_for_job(options.job)
                .into()
            })
            .collect();
        let members = Membership::new(
            Tier::Workers,
            replies,
            geometry.lo,
            Some(options.heartbeat_timeout),
            options.job,
            transport,
        );
        Ok(ShardLoop {
            geometry,
            decoder,
            members,
            root: u64::MAX,
            root_backlog: VecDeque::new(),
            worker_backlog: VecDeque::new(),
            options,
        })
    }

    /// The root-facing loop: serve `Params` steps until shutdown or loss.
    fn serve(
        &mut self,
        root_addr: std::net::SocketAddr,
        summary: &mut SubmasterSummary,
    ) -> Result<(), NetError> {
        self.await_registration()?;
        loop {
            let event = match self.root_backlog.pop_front() {
                Some(event) => event,
                None => match self.members.transport().next_event(POLL)? {
                    Some(event) => event,
                    None => continue,
                },
            };
            if event.token() != self.root {
                // A worker (or stale-root) event between steps: buffer it
                // for the next step's collection loop.
                self.worker_backlog.push_back(event);
                continue;
            }
            match event {
                // Root gone: reconnect (it may have restarted) or give up.
                NetEvent::Gone { .. } => match self.reconnect_root(root_addr) {
                    Ok(()) => {}
                    Err(_) => return Ok(()),
                },
                NetEvent::Msg { message, .. } => match message {
                    Message::Shutdown => {
                        summary.clean_shutdown = true;
                        return Ok(());
                    }
                    Message::Params { step, values } => {
                        if self.options.crash_at_step == Some(step) {
                            summary.crashed = true;
                            return Ok(());
                        }
                        let upload = self.serve_step(step, &values);
                        let frame: Arc<[u8]> = upload.encode_for_job(self.options.job).into();
                        let transport = self.members.transport();
                        transport.send(self.root, frame);
                        if transport.flush_conn(self.root, FLUSH_LIMIT) {
                            summary.steps_served += 1;
                        }
                    }
                    // The root sends nothing else mid-run.
                    _ => {}
                },
                // The root link never carries codewords or idle deadlines.
                _ => {}
            }
        }
    }

    /// Re-dials the root after a lost connection, re-claiming the shard,
    /// and swaps the fresh link into the reactor.
    fn reconnect_root(&mut self, addr: std::net::SocketAddr) -> Result<(), NetError> {
        let mut stream = dial_root(addr, self.geometry.shard, &self.options)?;
        let _ = read_shard_assign(&mut stream, self.geometry.shard, self.options.job)?;
        self.root = self.members.transport().register_adopted(stream, None)?;
        Ok(())
    }

    /// Blocks until every shard worker registered; root events that land
    /// meanwhile wait in the root backlog.
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on registration timeout; transport failures.
    pub fn await_registration(&mut self) -> Result<(), NetError> {
        let (root, backlog) = (self.root, &mut self.root_backlog);
        self.members
            .await_registration(self.options.register_timeout, |event| {
                if event.token() == root {
                    backlog.push_back(event);
                    None
                } else {
                    Some(event)
                }
            })
    }

    /// One step: relay `Params`, collect the shard's codewords, decode the
    /// shard's slice of the conflict graph, and build the
    /// [`Message::ShardUpload`] for the root.
    pub fn serve_step(&mut self, step: u64, values: &[f64]) -> Message {
        let frame: Arc<[u8]> = encode_params_frame(self.options.job, step, values).into();
        self.members.broadcast(&frame);

        // Collect until every alive worker that saw the broadcast answered.
        let eligible = self.members.snapshot();
        let shard_len = self.members.len();
        let mut codewords: Vec<Option<Vector>> = vec![None; shard_len];
        while self.members.pending(&eligible, |i| codewords[i].is_some()) > 0 {
            let event = match self.worker_backlog.pop_front() {
                Some(event) => event,
                None => match self.members.transport().next_event(POLL) {
                    Ok(Some(event)) => event,
                    Ok(None) => continue,
                    Err(_) => break,
                },
            };
            if event.token() == self.root {
                // The next Params (or Shutdown) racing this step's tail:
                // the serve loop handles it once this step uploads.
                self.root_backlog.push_back(event);
                continue;
            }
            if let Some(Inbound::Codeword {
                slot,
                step: tagged_step,
                values,
            }) = self.members.react(event)
            {
                if tagged_step == step && codewords[slot].is_none() {
                    codewords[slot] = Some(values);
                }
            }
        }

        // The shard-local decode: availability over the full worker
        // universe restricted to this shard's arrivals, with the same
        // (seed, step)-derived RNG a flat master uses — the FR decoder's
        // per-group hash then picks exactly the flat representatives.
        let (lo, n) = (self.geometry.lo, self.geometry.n);
        let arrivals: Vec<usize> = (0..shard_len)
            .filter(|&i| codewords[i].is_some())
            .map(|i| lo + i)
            .collect();
        let available = WorkerSet::from_indices(n, arrivals.iter().copied());
        let result = self
            .decoder
            .decode(&available, &mut step_rng(self.geometry.seed, step));
        let mut selected_slots: Vec<Option<Vector>> = vec![None; shard_len];
        for &w in result.selected() {
            selected_slots[w - lo] = codewords[w - lo].take();
        }
        let partial = pairwise_sum(&selected_slots);
        Message::ShardUpload {
            shard: self.geometry.shard as u64,
            step,
            arrivals: arrivals.iter().map(|&w| w as u64).collect(),
            selected: result.selected().iter().map(|&w| w as u64).collect(),
            recovered: result.recovered_count() as u64,
            partial: partial.map(Vector::into_vec).unwrap_or_default(),
        }
    }

    /// Relays shutdown to the shard's workers, or emulates a crash (which
    /// hard-closes every socket, the root link included).
    pub fn close_peers(&mut self, crashed: bool) {
        self.members.close(crashed, FLUSH_LIMIT);
    }
}
