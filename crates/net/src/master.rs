//! The IS-GC master: listens on TCP, registers workers, drives training
//! steps, and ignores an arbitrary subset of stragglers every step.
//!
//! Robustness machinery (PR 2): the master checkpoints `(step, params,
//! assignments)` so a restarted process resumes mid-training; workers that
//! stay dead for a configurable number of steps are declared permanently
//! dead and their partitions are re-homed onto survivors (placement repair,
//! minimizing added conflict-graph edges); a step that closes having
//! recovered nothing surfaces as a typed [`NetError::Degraded`] instead of
//! silently spinning. All per-step randomness is derived from
//! `(seed, step)`, never streamed, so a resumed run is bit-identical to an
//! uninterrupted one from the restart point onward.
//!
//! Step semantics — decode, repair, bounds, normalization, the SGD update —
//! live in [`isgc_engine::StepEngine`]; this module is the TCP
//! [`Collector`]: registration, liveness, the `Params` broadcast (`send`),
//! collection, and checkpoint persistence. All I/O rides the nonblocking
//! `crate::reactor`: the master process runs the accept path, every
//! connection, and the step state machine on **one** thread, regardless of
//! `n` — connection lifecycle events arrive as `NetEvent`s where the old
//! transport parked two threads per worker.

use std::net::{TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isgc_core::Placement;
use isgc_engine::{
    Collected, Collector, DegradePolicy, EngineConfig, EngineError, FnObserver, LadderState,
    RepairEvent, StepContext, StepEngine, StepReport,
};
use isgc_linalg::Vector;
use isgc_ml::dataset::Dataset;
use isgc_ml::model::Model;

use crate::checkpoint::{CheckpointConfig, MasterCheckpoint};
use crate::membership::{Inbound, Membership, Tier, POLL};
use crate::reactor::Reactor;
use crate::report::{NetReport, NetTrainReport};
use crate::retry::RetryPolicy;
use crate::seam::Transport;
use crate::wire::{encode_params_frame, Message};
use crate::{NetError, WaitPolicy};

pub use isgc_engine::StepControl;

/// Configuration of a networked training run.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// The data placement; `placement.n()` workers must register.
    pub placement: Placement,
    /// How each step stops collecting codewords.
    pub wait: WaitPolicy,
    /// Mini-batch size per partition per step.
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Stop when the full-dataset loss reaches this value.
    pub loss_threshold: f64,
    /// Hard cap on steps.
    pub max_steps: usize,
    /// Seed shared with workers (parameter init, batches, decode
    /// tie-breaks); transmitted in `Assign`.
    pub seed: u64,
    /// A worker silent for longer than this is presumed dead and stops
    /// counting toward wait targets until it reconnects or speaks again.
    /// Enforced by the reactor's logical timer wheel, so the decision is a
    /// deterministic deadline, not a race between wall-clock thread sleeps.
    pub heartbeat_timeout: Duration,
    /// How long `run` waits for all `n` workers to register.
    pub register_timeout: Duration,
    /// When set, the master persists a [`MasterCheckpoint`] on the given
    /// cadence and resumes from the file if it exists at startup.
    pub checkpoint: Option<CheckpointConfig>,
    /// When set, a worker dead for this many consecutive step sends is
    /// declared permanently dead: its partitions are reassigned to
    /// survivors (minimizing added conflict-graph edges) and fresh `Assign`
    /// frames are issued. Counted in steps, not wall time, so seeded chaos
    /// schedules replay exactly.
    pub repair_after_steps: Option<u64>,
    /// How long each step's send waits for a previously-registered but
    /// currently disconnected worker to re-register before broadcasting
    /// (the engine sends step `s+1` right after step `s`'s update, before
    /// its loss). Zero (the default) broadcasts immediately. The chaos
    /// harness sets a generous grace so a flapping worker's arrival set
    /// depends only on its scripted faults, never on how fast its reconnect
    /// handshake races the next broadcast. Workers already declared dead by placement
    /// repair are never waited for.
    pub rejoin_grace: Duration,
    /// When set, the master records the engine's per-step metric series
    /// (via [`isgc_engine::MetricsObserver`]) plus transport byte/frame
    /// counters (see [`crate::metrics`]) into this registry.
    pub metrics: Option<isgc_obs::Registry>,
    /// What the engine does with steps below the coverage floor (the
    /// graceful degradation ladder). The TCP default is
    /// [`DegradePolicy::Fail`] — a zero-recovery step surfaces as
    /// [`NetError::Degraded`] — but supervised deployments can opt into
    /// bounded approximation instead.
    pub degrade: DegradePolicy,
    /// Tenant id stamped on every outbound frame and required on every
    /// inbound one — frames tagged with a foreign job are dropped before
    /// they reach the step loop. Job 0 is the single-tenant default.
    pub job: u64,
    /// Human-readable tenant name. When set (and `metrics` is set), the
    /// engine's per-step series are recorded under a `("job", name)` label
    /// scope, and [`NetConfig::checkpoint`] should be pre-scoped via
    /// [`CheckpointConfig::scoped`] so co-tenants keep separate files.
    pub job_name: Option<String>,
}

impl NetConfig {
    /// A config with conventional robustness timeouts.
    pub fn new(placement: Placement, wait: WaitPolicy) -> Self {
        NetConfig {
            placement,
            wait,
            batch_size: 8,
            learning_rate: 0.05,
            loss_threshold: 0.0,
            max_steps: 50,
            seed: 7,
            heartbeat_timeout: Duration::from_secs(2),
            register_timeout: Duration::from_secs(30),
            checkpoint: None,
            repair_after_steps: None,
            rejoin_grace: Duration::ZERO,
            metrics: None,
            degrade: DegradePolicy::Fail,
            job: 0,
            job_name: None,
        }
    }

    fn validate(&self) -> Result<(), NetError> {
        let n = self.placement.n();
        if let WaitPolicy::FirstW(w) = self.wait {
            if !(1..=n).contains(&w) {
                return Err(NetError::InvalidConfig(format!(
                    "wait count w = {w} outside 1..={n}"
                )));
            }
        }
        if self.batch_size == 0 {
            return Err(NetError::InvalidConfig(
                "batch_size must be positive".into(),
            ));
        }
        if self.max_steps == 0 {
            return Err(NetError::InvalidConfig("max_steps must be positive".into()));
        }
        if self.repair_after_steps == Some(0) {
            return Err(NetError::InvalidConfig(
                "repair_after_steps must be at least 1".into(),
            ));
        }
        if let DegradePolicy::Approximate {
            max_consecutive,
            min_coverage,
        } = &self.degrade
        {
            if *max_consecutive == 0 {
                return Err(NetError::InvalidConfig(
                    "degrade max_consecutive must be at least 1".into(),
                ));
            }
            if !(0.0..=1.0).contains(min_coverage) {
                return Err(NetError::InvalidConfig(format!(
                    "degrade min_coverage must be within [0, 1], got {min_coverage}"
                )));
            }
        }
        Ok(())
    }

    /// The engine configuration this network config corresponds to.
    pub(crate) fn engine_config(&self) -> EngineConfig {
        let mut config = EngineConfig::new(self.placement.clone());
        config.batch_size = self.batch_size;
        config.learning_rate = self.learning_rate;
        config.loss_threshold = self.loss_threshold;
        config.max_steps = self.max_steps as u64;
        config.seed = self.seed;
        config.repair_after_steps = self.repair_after_steps;
        // Default Fail: a zero-recovery step over TCP means the run is
        // spinning while workers burn cycles, so surface NetError::Degraded
        // unless the operator opted into the degradation ladder.
        config.degrade = self.degrade.clone();
        config
    }
}

/// Wraps a transport failure for transit through the engine.
pub(crate) fn backend(e: NetError) -> EngineError {
    EngineError::Backend(Box::new(e))
}

/// Recovers the typed [`NetError`] from an engine failure.
pub(crate) fn engine_to_net(e: EngineError) -> NetError {
    match e {
        EngineError::Degraded {
            step,
            recovered,
            bound,
        } => NetError::Degraded {
            step,
            recovered,
            bound,
        },
        EngineError::Backend(inner) => match inner.downcast::<NetError>() {
            Ok(net) => *net,
            Err(other) => NetError::Protocol(other.to_string()),
        },
        EngineError::InvalidConfig(reason) => NetError::InvalidConfig(reason),
        other => NetError::Protocol(other.to_string()),
    }
}

/// A listening IS-GC master. Bind first (so tests can learn the ephemeral
/// port), then [`Master::run`] a training session.
pub struct Master {
    listener: TcpListener,
}

impl Master {
    /// Binds the master's listening socket.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (address in use, permission, ...).
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Master, NetError> {
        let listener = TcpListener::bind(addr)?;
        Ok(Master { listener })
    }

    /// Binds with retries under `policy` — the restart path: a master
    /// coming back on its old port may briefly race the OS releasing it.
    ///
    /// # Errors
    ///
    /// The final bind error once the policy's attempts are exhausted.
    pub fn bind_with_retry(
        addr: impl ToSocketAddrs + Copy,
        policy: &RetryPolicy,
    ) -> Result<Master, NetError> {
        policy.run(0, || Master::bind(addr))
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures from the OS.
    pub fn local_addr(&self) -> Result<std::net::SocketAddr, NetError> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs a full training session; see [`Master::run_with`].
    ///
    /// # Errors
    ///
    /// As [`Master::run_with`].
    pub fn run<M: Model>(
        self,
        model: &M,
        dataset: &Dataset,
        config: &NetConfig,
    ) -> Result<NetTrainReport, NetError> {
        self.run_with(model, dataset, config, |_| {})
    }

    /// Runs a full training session, calling `observer` after every step.
    ///
    /// Blocks until `placement.n()` workers registered, then trains for up
    /// to `max_steps` steps, decoding each step's arrivals with the
    /// placement's IS-GC decoder and applying the shared SGD update. Dead
    /// workers (heartbeat silence, closed connections, `Decline` frames)
    /// shrink the wait target instead of stalling the step; late codewords
    /// are discarded by step tag; reconnecting workers reclaim their slot
    /// mid-run. With [`NetConfig::checkpoint`] set, the session resumes
    /// from the checkpoint file when one exists.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidConfig`] for bad parameters,
    /// [`NetError::Protocol`] when registration times out or a checkpoint
    /// is unusable, [`NetError::Degraded`] when a step recovers nothing,
    /// and [`NetError::AllWorkersLost`] when no worker is left at all.
    pub fn run_with<M: Model>(
        self,
        model: &M,
        dataset: &Dataset,
        config: &NetConfig,
        mut observer: impl FnMut(&NetReport),
    ) -> Result<NetTrainReport, NetError> {
        self.run_controlled(model, dataset, config, |report| {
            observer(report);
            StepControl::Continue
        })
    }

    /// Like [`Master::run_with`], but the observer may return
    /// [`StepControl::Crash`] to stop the master cold — no shutdown
    /// broadcast, sockets dropped — returning the partial report. The chaos
    /// harness uses this to script mid-run master crashes; a subsequent
    /// `run_controlled` with the same checkpointed config resumes.
    ///
    /// # Errors
    ///
    /// As [`Master::run_with`].
    pub fn run_controlled<M: Model>(
        self,
        model: &M,
        dataset: &Dataset,
        config: &NetConfig,
        mut observer: impl FnMut(&NetReport) -> StepControl,
    ) -> Result<NetTrainReport, NetError> {
        config.validate()?;
        let reactor = Reactor::new(Some(self.listener), config.job, config.metrics.clone())?;
        let mut loop_state = MasterLoop::new(config.clone(), Box::new(reactor));

        let outcome = (|| -> Result<NetTrainReport, NetError> {
            let (mut engine, params) = loop_state.start(model)?;
            let mut step_observer = FnObserver(|report: &StepReport| observer(report));
            match config.metrics.clone() {
                Some(registry) => {
                    // Wrap the caller's observer so the engine's logical
                    // series lands in the registry; the inner observer keeps
                    // its StepControl authority.
                    let n = config.placement.n();
                    let mut metered =
                        isgc_engine::MetricsObserver::wrapping(registry, n, &mut step_observer);
                    if let Some(name) = &config.job_name {
                        metered = metered.scoped_to_job(name.clone());
                    }
                    engine
                        .run(model, dataset, Some(params), &mut loop_state, &mut metered)
                        .map_err(engine_to_net)
                }
                None => engine
                    .run(
                        model,
                        dataset,
                        Some(params),
                        &mut loop_state,
                        &mut step_observer,
                    )
                    .map_err(engine_to_net),
            }
        })();

        // Tell workers we're done. A scripted crash skips the shutdown
        // broadcast — a killed process sends nothing — and hard-closes
        // every socket instead. Either way the listener dies with the
        // reactor; there is no accept thread to unblock.
        let crashed = matches!(&outcome, Ok(report) if report.interrupted);
        loop_state.close_peers(crashed);
        outcome
    }

    /// Turns the bound master into a step-at-a-time [`MasterSession`]:
    /// registration and (flat-mode) checkpoint resume happen here, then the
    /// caller drives one training step per [`MasterSession::step`] call.
    /// This is the networked job driver a multi-tenant scheduler
    /// round-robins — `isgc-sched` steps several of these in one process.
    ///
    /// # Errors
    ///
    /// As [`Master::run_with`]; on error the transport (reactor, listener,
    /// every accepted socket) is already torn down.
    pub fn into_session<M: Model>(
        self,
        model: M,
        dataset: Dataset,
        config: &NetConfig,
    ) -> Result<MasterSession<M>, NetError> {
        self.into_session_inner(model, dataset, config, None)
    }

    /// Like [`Master::into_session`], but collecting through a 2-level
    /// aggregation tree: `submasters` sub-masters register (via `SubHello`),
    /// each owning a group-aligned worker shard, and every step the root
    /// merges their partial codeword sums with the canonical pairwise
    /// reduction — bitwise identical to flat aggregation.
    ///
    /// # Errors
    ///
    /// As [`Master::into_session`], plus [`NetError::InvalidConfig`] when
    /// the placement is not FR or a shard boundary cuts through an FR group.
    pub fn into_tree_session<M: Model>(
        self,
        model: M,
        dataset: Dataset,
        config: &NetConfig,
        submasters: usize,
    ) -> Result<MasterSession<M>, NetError> {
        self.into_session_inner(model, dataset, config, Some(submasters))
    }

    fn into_session_inner<M: Model>(
        self,
        model: M,
        dataset: Dataset,
        config: &NetConfig,
        submasters: Option<usize>,
    ) -> Result<MasterSession<M>, NetError> {
        config.validate()?;
        let n = config.placement.n();
        let local_addr = self.listener.local_addr()?;
        let reactor = Reactor::new(Some(self.listener), config.job, config.metrics.clone())?;

        // Errors need no explicit transport teardown: dropping the reactor
        // closes the listener and every accepted socket.
        let (collector, engine, session) =
            build_session_state(&model, &dataset, config, reactor, submasters)?;
        let metrics = config.metrics.clone().map(|registry| {
            let mut observer = isgc_engine::MetricsObserver::new(registry, n);
            if let Some(name) = &config.job_name {
                observer = observer.scoped_to_job(name.clone());
            }
            observer
        });
        Ok(MasterSession {
            model,
            dataset,
            engine,
            session,
            collector,
            metrics,
            local_addr,
        })
    }
}

/// Builds the collector, engine, and open session for
/// [`Master::into_session_inner`].
fn build_session_state<M: Model>(
    model: &M,
    dataset: &Dataset,
    config: &NetConfig,
    reactor: Reactor,
    submasters: Option<usize>,
) -> Result<(SessionCollector, StepEngine, isgc_engine::Session), NetError> {
    match submasters {
        None => {
            let mut loop_state = MasterLoop::new(config.clone(), Box::new(reactor));
            let (engine, params) = loop_state.start(model)?;
            let session = engine.begin(model, dataset, Some(params));
            Ok((SessionCollector::Flat(loop_state), engine, session))
        }
        Some(submasters) => {
            let mut root =
                crate::submaster::TreeRootLoop::new(config.clone(), Box::new(reactor), submasters)?;
            let engine = StepEngine::new(config.engine_config()).map_err(engine_to_net)?;
            let params = engine.initial_params(model);
            root.await_registration()?;
            let session = engine.begin(model, dataset, Some(params));
            Ok((SessionCollector::Tree(root), engine, session))
        }
    }
}

/// The transport behind one [`MasterSession`].
enum SessionCollector {
    /// Every worker reports straight to this master.
    Flat(MasterLoop),
    /// Sub-masters report shard partials; see [`crate::submaster`].
    Tree(crate::submaster::TreeRootLoop),
}

/// A registered, resumed, step-at-a-time networked training session — the
/// [`Master`]'s run loop with the stepping authority handed to the caller.
/// Drop order does not matter: [`MasterSession::finish`] performs the full
/// transport teardown (shutdown broadcast, then the reactor — which owns
/// the listener and every socket — drops with the session).
pub struct MasterSession<M: Model> {
    model: M,
    dataset: Dataset,
    engine: StepEngine,
    session: isgc_engine::Session,
    collector: SessionCollector,
    metrics: Option<isgc_engine::MetricsObserver>,
    local_addr: std::net::SocketAddr,
}

impl<M: Model> MasterSession<M> {
    /// The bound address workers (or sub-masters) dial.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Runs one training step over the wire.
    ///
    /// # Errors
    ///
    /// As [`Master::run_with`]; after an error the session is closed and
    /// further calls return [`isgc_engine::SessionStatus::Done`] without
    /// touching the network.
    pub fn step(&mut self) -> Result<isgc_engine::SessionStatus, NetError> {
        let collector: &mut dyn Collector = match &mut self.collector {
            SessionCollector::Flat(loop_state) => loop_state,
            SessionCollector::Tree(root) => root,
        };
        let result = match &mut self.metrics {
            Some(observer) => self.engine.step(
                &mut self.session,
                &self.model,
                &self.dataset,
                collector,
                observer,
            ),
            None => self.engine.step(
                &mut self.session,
                &self.model,
                &self.dataset,
                collector,
                &mut isgc_engine::NoopObserver,
            ),
        };
        result.map_err(engine_to_net)
    }

    /// Closes the session: broadcasts `Shutdown` to the peers (unless the
    /// run was interrupted by a scripted crash, which emulates a killed
    /// process by hard-closing every socket) and returns the training
    /// report. The listener closes when the reactor drops with the session.
    pub fn finish(mut self) -> NetTrainReport {
        let report = self.engine.finish(self.session);
        let crashed = report.interrupted;
        match &mut self.collector {
            SessionCollector::Flat(loop_state) => loop_state.close_peers(crashed),
            SessionCollector::Tree(root) => root.close_peers(crashed),
        }
        report
    }
}

/// The flat master's single-threaded state machine over connection events
/// — the engine's TCP [`Collector`]. Owns its [`Transport`] (the reactor in
/// production, a virtual network under the model checker) and polls it
/// inline: there is no I/O thread anywhere in the master process. Slot
/// bookkeeping is the shared membership core; this loop adds `Assign`
/// frames from its assignment table, collection under the [`WaitPolicy`]
/// with declines and the stale guard, and checkpoints.
pub struct MasterLoop {
    members: Membership,
    config: NetConfig,
    /// Current per-worker partition lists, mirroring the engine's table;
    /// starts as the placement's and diverges when the engine runs placement
    /// repair (a repaired-dead worker's list becomes empty). Used to build
    /// `Assign` frames and to decide which disconnected workers are worth a
    /// rejoin grace.
    assignments: Vec<Vec<usize>>,
    /// The step `send` broadcast and `collect` has not closed yet.
    sent: Option<Sent>,
}

/// What a collector's `send` leaves for its `collect` (the engine always
/// sends a step before it collects it).
pub(crate) struct Sent {
    /// When the step's `Params` went out: the collection clock
    /// (`waited_ms`, `duration`, a [`WaitPolicy::Deadline`]) starts here.
    pub(crate) at: Instant,
    /// Codewords or shard uploads the rejoin grace swallowed before the
    /// broadcast — necessarily stale.
    pub(crate) stale: usize,
}

impl Collector for MasterLoop {
    fn n(&self) -> usize {
        self.members.len()
    }

    fn alive(&self) -> Vec<bool> {
        (0..self.members.len())
            .map(|w| self.members.is_alive(w))
            .collect()
    }

    /// The engine re-homed a dead worker's partitions: mirror the table and
    /// re-issue `Assign` frames to every survivor whose list grew, over the
    /// existing connections.
    fn on_repair(&mut self, events: &[RepairEvent], assignments: &[Vec<usize>]) {
        self.assignments = assignments.to_vec();
        let touched: std::collections::BTreeSet<usize> = events.iter().map(|e| e.to).collect();
        self.reissue_assigns(&touched);
    }

    /// Waits out the rejoin grace, then broadcasts the step's `Params`. The
    /// codewords swallowed by the grace and the send instant wait for
    /// `collect`.
    fn send(&mut self, step: u64, params: &Vector) {
        let assignments = &self.assignments;
        let stale = self
            .members
            .await_rejoins(self.config.rejoin_grace, |w| !assignments[w].is_empty());
        // One encode, shared bytes to every peer — the fast path skips the
        // `Vec<f64>` clone a `Message::Params` round-trip would cost.
        let frame: Arc<[u8]> = encode_params_frame(self.config.job, step, params.as_slice()).into();
        self.members.broadcast(&frame);
        self.sent = Some(Sent {
            at: Instant::now(),
            stale,
        });
    }

    fn collect(&mut self, ctx: &StepContext<'_>) -> Result<Collected, EngineError> {
        let sent = self
            .sent
            .take()
            .expect("the engine sends each step before collecting it");
        self.collect_step(ctx.step, sent).map_err(backend)
    }

    fn after_step(
        &mut self,
        completed: u64,
        params: &Vector,
        ladder: LadderState,
    ) -> Result<(), EngineError> {
        self.maybe_checkpoint(completed, params, ladder)
            .map_err(backend)
    }
}

impl MasterLoop {
    /// Builds the flat master loop over `transport`; no worker is
    /// registered yet.
    pub fn new(config: NetConfig, transport: Box<dyn Transport>) -> MasterLoop {
        let n = config.placement.n();
        let assignments: Vec<Vec<usize>> = (0..n)
            .map(|w| config.placement.partitions_of(w).to_vec())
            .collect();
        let replies = (0..n)
            .map(|w| assign_frame(&config, w, &assignments[w]))
            .collect();
        let members = Membership::new(
            Tier::Workers,
            replies,
            0,
            Some(config.heartbeat_timeout),
            config.job,
            transport,
        );
        MasterLoop {
            members,
            config,
            assignments,
            sent: None,
        }
    }

    /// Blocks until all `n` workers registered (or the configured
    /// registration deadline passes).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] on registration timeout; transport failures.
    pub fn await_registration(&mut self) -> Result<(), NetError> {
        self.members
            .await_registration(self.config.register_timeout, Some)
    }

    /// Notifies workers the run is over — a flushed `Shutdown` to every
    /// connected worker normally, or (emulating a killed process, whose fds
    /// all close) a hard shutdown of every socket when the run ended in a
    /// scripted crash.
    pub fn close_peers(&mut self, crashed: bool) {
        self.members.close(crashed, Duration::from_secs(1));
    }

    /// The flat startup path: a fresh engine and seed-derived parameters,
    /// both overwritten from the checkpoint when one exists, then every
    /// worker registered. Parameter initialization is a pure function of
    /// the seed, so a fresh master matches any backend given the same seed.
    fn start<M: Model>(&mut self, model: &M) -> Result<(StepEngine, Vector), NetError> {
        let mut engine = StepEngine::new(self.config.engine_config()).map_err(engine_to_net)?;
        let mut params = engine.initial_params(model);
        let (start_step, ladder) = self.try_resume(&mut params)?;
        engine
            .resume_from(start_step, self.assignments.clone())
            .map_err(engine_to_net)?;
        engine.resume_ladder(ladder);
        self.await_registration()?;
        Ok((engine, params))
    }

    /// Rebuilds every worker's `Assign` reply from the current assignment
    /// table, sending the fresh frame over the live connection of each
    /// worker in `send_to`.
    fn reissue_assigns(&mut self, send_to: &std::collections::BTreeSet<usize>) {
        for (w, partitions) in self.assignments.iter().enumerate() {
            let frame = assign_frame(&self.config, w, partitions);
            if send_to.contains(&w) {
                self.members.unicast(w, Arc::clone(&frame));
            }
            self.members.set_reply(w, frame);
        }
    }

    /// Restores checkpointed state if a checkpoint exists; returns the step
    /// to resume at and the degradation-ladder counter entering it, and
    /// overwrites the parameters to resume with. The restored assignment
    /// table is handed to the engine via [`StepEngine::resume_from`], which
    /// re-enters the repaired decode path when the table diverged from the
    /// placement; the ladder counter goes to [`StepEngine::resume_ladder`]
    /// so escalation decisions replay bit-for-bit.
    fn try_resume(&mut self, params: &mut Vector) -> Result<(u64, u64), NetError> {
        let Some(ck_config) = self.config.checkpoint.clone() else {
            return Ok((0, 0));
        };
        let Some(ck) = MasterCheckpoint::load(&ck_config.path)? else {
            return Ok((0, 0));
        };
        let (n, c) = (self.config.placement.n(), self.config.placement.c());
        ck.verify_fingerprint(self.config.seed, n, c)?;
        *params = Vector::from_slice(&ck.params);
        self.assignments = ck
            .assignments
            .iter()
            .map(|list| list.iter().map(|&j| j as usize).collect())
            .collect();
        self.reissue_assigns(&Default::default());
        Ok((ck.step, ck.consecutive_degraded))
    }

    /// Persists a checkpoint for `next_step` if the cadence says so.
    fn maybe_checkpoint(
        &self,
        next_step: u64,
        params: &Vector,
        ladder: LadderState,
    ) -> Result<(), NetError> {
        let Some(ck_config) = &self.config.checkpoint else {
            return Ok(());
        };
        if !next_step.is_multiple_of(ck_config.every.max(1)) {
            return Ok(());
        }
        let ck = MasterCheckpoint {
            seed: self.config.seed,
            n: self.config.placement.n() as u64,
            c: self.config.placement.c() as u64,
            step: next_step,
            consecutive_degraded: ladder.consecutive_degraded,
            params: params.as_slice().to_vec(),
            assignments: self
                .assignments
                .iter()
                .map(|list| list.iter().map(|&j| j as u64).collect())
                .collect(),
        };
        ck.save(&ck_config.path)
    }

    /// Collects the sent step's codewords under the configured wait policy,
    /// timed from the broadcast; `sent.stale` codewords were already
    /// swallowed before it.
    ///
    /// The engine runs the loss, the checkpoint and the observer (and a
    /// scheduler runs its other jobs' steps) between `send` and `collect`,
    /// so a [`WaitPolicy::Deadline`] cutoff may already have passed when
    /// collection starts. Past the cutoff the loop therefore polls without
    /// waiting and closes the step on the first quiet poll: every codeword
    /// already queued counts, not just the first one read.
    fn collect_step(&mut self, step: u64, sent: Sent) -> Result<Collected, NetError> {
        let Sent {
            at: step_start,
            mut stale,
        } = sent;
        let cutoff = match self.config.wait {
            WaitPolicy::FirstW(_) => None,
            WaitPolicy::Deadline(d) => Some(step_start + d),
        };
        let n = self.members.len();
        let eligible = self.members.snapshot();
        let mut codewords: Vec<Option<Vector>> = vec![None; n];
        let mut arrivals: Vec<usize> = Vec::new();
        let mut declined: Vec<bool> = vec![false; n];
        // Set when a zero-timeout poll past the deadline came back empty.
        let mut drained = false;

        loop {
            // Heartbeat silence arrives as HeartbeatTimeout events off the
            // reactor's timer wheel (reacted to below); no wall-clock sweep.
            let alive_pending = self
                .members
                .pending(&eligible, |w| declined[w] || codewords[w].is_some());
            let done = match self.config.wait {
                WaitPolicy::FirstW(w) => arrivals.len() >= w || alive_pending == 0,
                WaitPolicy::Deadline(_) => drained || alive_pending == 0,
            };
            if done {
                if arrivals.is_empty() && !self.members.any_alive() {
                    return Err(NetError::AllWorkersLost);
                }
                // A step that closes with zero arrivals but alive workers
                // (FirstW with everyone freshly dead-marked or declining)
                // is reported upstream as Degraded by the engine.
                let waited = step_start.elapsed().as_secs_f64();
                return Ok(Collected {
                    arrivals,
                    codewords,
                    declined: (0..n).filter(|&w| declined[w]).collect(),
                    stale,
                    waited_ms: waited * 1e3,
                    duration: waited,
                    sharded: None,
                });
            }

            let draining = !arrivals.is_empty() && cutoff.is_some_and(|c| Instant::now() >= c);
            let timeout = if draining { Duration::ZERO } else { POLL };
            let Some(event) = self.members.transport().next_event(timeout)? else {
                drained = draining;
                continue;
            };
            match self.members.react(event) {
                Some(Inbound::Codeword {
                    slot: worker,
                    step: tagged_step,
                    values,
                }) => {
                    // `mc-mutation` deliberately breaks the stale guard —
                    // the codeword from the *previous* round is accepted as
                    // this step's — so the model checker's seeded-bug path
                    // (and its chaos replay) has a real violation to find.
                    // Never enabled in production builds.
                    #[cfg(feature = "mc-mutation")]
                    let fresh = (tagged_step == step || tagged_step + 1 == step)
                        && codewords[worker].is_none();
                    #[cfg(not(feature = "mc-mutation"))]
                    let fresh = tagged_step == step && codewords[worker].is_none();
                    if fresh {
                        codewords[worker] = Some(values);
                        arrivals.push(worker);
                        declined[worker] = false;
                    } else {
                        // Stale: a straggler finishing an earlier round (or
                        // a duplicate); count it, never mix it into this
                        // step.
                        stale += 1;
                    }
                }
                Some(Inbound::Msg {
                    slot: worker,
                    message:
                        Message::Decline {
                            step: tagged_step, ..
                        },
                }) if tagged_step == step && codewords[worker].is_none() => {
                    declined[worker] = true;
                }
                // Heartbeats only prove liveness, late declines change
                // nothing, and workers send nothing else (codewords arrive
                // as `Inbound::Codeword`): one confused peer must not kill
                // the run.
                _ => {}
            }
        }
    }
}

/// Worker `w`'s `Assign` frame for its current partition list.
fn assign_frame(config: &NetConfig, w: usize, partitions: &[usize]) -> Arc<[u8]> {
    Message::Assign {
        worker: w as u64,
        n: config.placement.n() as u64,
        c: config.placement.c() as u64,
        batch_size: config.batch_size as u64,
        seed: config.seed,
        partitions: partitions.iter().map(|&j| j as u64).collect(),
    }
    .encode_for_job(config.job)
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isgc_ml::model::LinearRegression;

    fn test_config(n: usize, c: usize, w: usize) -> NetConfig {
        let mut config = NetConfig::new(
            Placement::cyclic(n, c).expect("valid CR"),
            WaitPolicy::FirstW(w),
        );
        config.max_steps = 3;
        config
    }

    #[test]
    fn config_validation_catches_bad_w() {
        let config = test_config(4, 2, 5);
        assert!(matches!(config.validate(), Err(NetError::InvalidConfig(_))));
        assert!(test_config(4, 2, 4).validate().is_ok());
    }

    #[test]
    fn config_validation_catches_zero_batch_steps_and_repair() {
        let mut config = test_config(4, 2, 2);
        config.batch_size = 0;
        assert!(config.validate().is_err());
        let mut config = test_config(4, 2, 2);
        config.max_steps = 0;
        assert!(config.validate().is_err());
        let mut config = test_config(4, 2, 2);
        config.repair_after_steps = Some(0);
        assert!(config.validate().is_err());
    }

    #[test]
    fn registration_times_out_without_workers() {
        let master = Master::bind("127.0.0.1:0").unwrap();
        let mut config = test_config(2, 1, 1);
        config.register_timeout = Duration::from_millis(100);
        let model = LinearRegression::new(2);
        let dataset = Dataset::synthetic_regression(16, 2, 0.1, 1);
        let err = master.run(&model, &dataset, &config).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err}");
    }

    #[test]
    fn bind_reports_local_addr() {
        let master = Master::bind("127.0.0.1:0").unwrap();
        let addr = master.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
    }

    #[test]
    fn engine_errors_map_back_to_typed_net_errors() {
        let degraded = engine_to_net(EngineError::Degraded {
            step: 3,
            recovered: 0,
            bound: 2,
        });
        assert!(matches!(
            degraded,
            NetError::Degraded {
                step: 3,
                recovered: 0,
                bound: 2
            }
        ));
        let roundtrip = engine_to_net(backend(NetError::AllWorkersLost));
        assert!(matches!(roundtrip, NetError::AllWorkersLost));
        let invalid = engine_to_net(EngineError::InvalidConfig("nope".into()));
        assert!(matches!(invalid, NetError::InvalidConfig(_)));
    }
}
