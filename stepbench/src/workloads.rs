//! The four closed-loop workloads. Each episode sets a cluster up, trains
//! it for a fixed number of steps (the next step is broadcast only after
//! the previous one returned), tears it down, and hands back the per-step
//! record. Nothing here checks outputs; see `check.rs`.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use isgc_core::{HrParams, Placement};
use isgc_engine::{DegradePolicy, FnObserver, SessionStatus, StepControl, StepReport, TrainReport};
use isgc_ml::{Dataset, Mlp, Model, SoftmaxRegression};
use isgc_net::{Master, MasterSession, NetConfig, Submaster, SubmasterOptions, SwarmOptions};
use isgc_obs::Registry;
use isgc_sched::{DriverError, JobDriver, Scheduler, SchedulerConfig};
use isgc_simnet::{CodingScheme, TrainingConfig};

use crate::probe::{proc_status, Probe, ProbeSnapshot, Timed};

/// Class-mean separation of every synthetic dataset.
const SEPARATION: f64 = 3.0;

/// Seed of every workload's training set — the one the CLI's recipe and
/// the paper-figure binaries use. The dataset is part of the task; the run
/// seed varies everything else (initial parameters, mini-batches, decode
/// tie-breaks, simulated arrivals), as repeated training runs do.
const DATASET_SEED: u64 = 777;

/// The benchmark's workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// HR(24, g=6, c1=2, c2=1) MLP training in the simulator.
    SimHr24Mlp,
    /// FR(1000, 2) over loopback TCP, one swarm thread.
    TcpFr1000,
    /// CR(16, 2) with 16,448-parameter codeword frames over TCP.
    TcpCr16Wide,
    /// FR(256, 2) through one sub-master, stepped by the scheduler.
    TcpTreeFr256,
}

impl Workload {
    /// Every workload, in catalogue order.
    pub const ALL: [Workload; 4] = [
        Workload::SimHr24Mlp,
        Workload::TcpFr1000,
        Workload::TcpCr16Wide,
        Workload::TcpTreeFr256,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimHr24Mlp => "sim-hr24-mlp",
            Workload::TcpFr1000 => "tcp-fr1000",
            Workload::TcpCr16Wide => "tcp-cr16-wide",
            Workload::TcpTreeFr256 => "tcp-tree-fr256",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the simulator (no sockets, simulated
    /// clock) rather than loopback TCP.
    pub fn simulated(self) -> bool {
        self == Workload::SimHr24Mlp
    }

    /// Threads the process should run mid-step: the calling thread, plus
    /// the swarm, plus the sub-master.
    pub fn expected_threads(self) -> u64 {
        match self {
            Workload::SimHr24Mlp => 1,
            Workload::TcpFr1000 | Workload::TcpCr16Wide => 2,
            Workload::TcpTreeFr256 => 3,
        }
    }

    /// The workload's cluster and training shape; `smoke` shrinks it to
    /// something a test can run in a second.
    pub fn shape(self, smoke: bool) -> Shape {
        // Smoke shapes run a dozen steps; targets there are nominal.
        let smoke_steps = 12;
        match (self, smoke) {
            (Workload::SimHr24Mlp, _) => Shape {
                n: 24,
                c: 3,
                wait: 18,
                features: 16,
                classes: 4,
                samples_per_worker: if smoke { 32 } else { 256 },
                batch: 32,
                learning_rate: 0.05,
                steps: if smoke { smoke_steps } else { 40 },
                target_loss: 0.148,
            },
            (Workload::TcpFr1000, false) => Shape {
                n: 1000,
                c: 2,
                wait: 990,
                features: 8,
                classes: 4,
                samples_per_worker: 64,
                batch: 8,
                // Not NetConfig's 0.05: SumOfPartitionMeans scales the
                // update with the ~1000 recovered partitions, and 0.05
                // diverges at this n.
                learning_rate: 0.0005,
                steps: 40,
                target_loss: 0.26,
            },
            (Workload::TcpCr16Wide, false) => Shape {
                n: 16,
                c: 2,
                wait: 14,
                features: 256,
                classes: 64,
                samples_per_worker: 16,
                batch: 8,
                learning_rate: 0.05,
                steps: 60,
                target_loss: 0.28,
            },
            (Workload::TcpTreeFr256, false) => Shape {
                n: 256,
                c: 2,
                wait: 248,
                features: 8,
                classes: 4,
                samples_per_worker: 64,
                batch: 8,
                learning_rate: 0.002,
                steps: 50,
                target_loss: 0.25,
            },
            (Workload::TcpFr1000 | Workload::TcpTreeFr256, true) => Shape {
                n: 16,
                c: 2,
                wait: 15,
                features: 8,
                classes: 4,
                samples_per_worker: 64,
                batch: 8,
                learning_rate: 0.02,
                steps: smoke_steps,
                target_loss: 0.5,
            },
            (Workload::TcpCr16Wide, true) => Shape {
                n: 16,
                c: 2,
                wait: 14,
                features: 32,
                classes: 8,
                samples_per_worker: 16,
                batch: 8,
                learning_rate: 0.05,
                steps: smoke_steps,
                target_loss: 0.5,
            },
        }
    }

    /// The workload's data placement.
    pub fn placement(self, shape: &Shape) -> Placement {
        let placement = match self {
            Workload::SimHr24Mlp => Placement::hybrid(HrParams::new(shape.n, 6, 2, 1)),
            Workload::TcpFr1000 | Workload::TcpTreeFr256 => Placement::fractional(shape.n, shape.c),
            Workload::TcpCr16Wide => Placement::cyclic(shape.n, shape.c),
        };
        placement.expect("workload placements are valid")
    }

    /// Runs one episode. With `traced`, the model is wrapped in a [`Timed`]
    /// probe and the TCP master records into a metric registry.
    pub fn episode(self, shape: &Shape, seed: u64, traced: bool) -> Episode {
        let tap = traced.then(Tap::new);
        let probe = tap.as_ref().map(|t| Arc::clone(&t.probe));
        match self {
            Workload::SimHr24Mlp => {
                let mlp = Mlp::new(shape.features, 64, shape.classes);
                match probe {
                    Some(probe) => sim_episode(self, shape, seed, Timed::new(mlp, probe), tap),
                    None => sim_episode(self, shape, seed, mlp, None),
                }
            }
            Workload::TcpFr1000 | Workload::TcpCr16Wide | Workload::TcpTreeFr256 => {
                let softmax = SoftmaxRegression::new(shape.features, shape.classes);
                match probe {
                    Some(probe) => tcp_episode(self, shape, seed, Timed::new(softmax, probe), tap),
                    None => tcp_episode(self, shape, seed, softmax, None),
                }
            }
        }
    }
}

/// Cluster and training parameters of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Workers (and data partitions).
    pub n: usize,
    /// Partitions per worker.
    pub c: usize,
    /// Arrivals the master waits for each step.
    pub wait: usize,
    /// Input features.
    pub features: usize,
    /// Output classes.
    pub classes: usize,
    /// Training samples per partition.
    pub samples_per_worker: usize,
    /// Mini-batch size per partition.
    pub batch: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Steps per episode.
    pub steps: usize,
    /// The training-loss target of `time_to_target_s`, set so that runs
    /// cross it in the second half of an episode.
    pub target_loss: f64,
}

impl Shape {
    /// The workload's training set.
    pub fn dataset(&self) -> Dataset {
        Dataset::gaussian_classification(
            self.n * self.samples_per_worker,
            self.features,
            self.classes,
            SEPARATION,
            DATASET_SEED,
        )
    }
}

/// Transport counters read from the master's metric registry.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetCounters {
    /// Bytes read from registered peers.
    pub bytes_in: f64,
    /// Bytes written to peers.
    pub bytes_out: f64,
    /// Frames read from registered peers.
    pub frames_in: f64,
    /// Writes parked for resumption.
    pub partial_writes: f64,
    /// Reactor poll returns.
    pub wakeups: f64,
    /// Descriptors reported ready across those returns.
    pub ready: f64,
}

impl NetCounters {
    fn read(registry: &Registry) -> NetCounters {
        use isgc_net::metrics as m;
        let get = |name: &str| registry.counter(name, &[]).unwrap_or(0) as f64;
        NetCounters {
            bytes_in: get(m::BYTES_RECEIVED_TOTAL),
            bytes_out: get(m::BYTES_SENT_TOTAL),
            frames_in: get(m::FRAMES_RECEIVED_TOTAL),
            partial_writes: get(m::REACTOR_PARTIAL_WRITES_TOTAL),
            wakeups: get(m::REACTOR_WAKEUPS_TOTAL),
            ready: get(m::REACTOR_READY_EVENTS_TOTAL),
        }
    }

    fn since(self, earlier: NetCounters) -> NetCounters {
        NetCounters {
            bytes_in: self.bytes_in - earlier.bytes_in,
            bytes_out: self.bytes_out - earlier.bytes_out,
            frames_in: self.frames_in - earlier.frames_in,
            partial_writes: self.partial_writes - earlier.partial_writes,
            wakeups: self.wakeups - earlier.wakeups,
            ready: self.ready - earlier.ready,
        }
    }
}

/// The traced run's instruments: the model probe and the master's
/// registry, snapshotted when step 0 ends and after every later step.
struct Tap {
    probe: Arc<Probe>,
    registry: Registry,
    first: Option<(ProbeSnapshot, NetCounters)>,
    last: Option<(ProbeSnapshot, NetCounters)>,
}

impl Tap {
    fn new() -> Tap {
        Tap {
            probe: Arc::new(Probe::default()),
            registry: Registry::new(),
            first: None,
            last: None,
        }
    }

    fn mark(&mut self) {
        let now = (self.probe.snapshot(), NetCounters::read(&self.registry));
        self.first.get_or_insert(now);
        self.last = Some(now);
    }
}

/// Per-layer totals of one traced episode over its steps 1.. (step 0
/// carries registration and warm-up and is left out, as in the step
/// timings).
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Model time and calls.
    pub probe: ProbeSnapshot,
    /// Master transport counters.
    pub net: NetCounters,
    /// Seconds from swarm start until every member had registered.
    pub register_s: f64,
    /// Codewords the workers computed over the whole episode.
    pub codewords_computed: usize,
    /// Seconds of `Scheduler::run_round` not spent in `JobDriver::step`.
    pub sched_overhead_s: f64,
}

/// What one episode did.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Seconds from the episode's start (dataset build, bind, swarm start)
    /// until step 0 returned.
    pub setup_s: f64,
    /// Wall seconds of steps 1.., each from the previous step's return to
    /// its own.
    pub walls: Vec<f64>,
    /// The engine's report of every step that completed.
    pub reports: Vec<StepReport>,
    /// Why the episode stopped early, if it did.
    pub error: Option<String>,
    /// Process threads sampled mid-episode.
    pub threads: u64,
    /// Per-layer totals (traced episodes only).
    pub layers: Option<Layers>,
}

/// Per-step clock shared by every workload's step loop.
struct Recorder {
    start: Instant,
    last: Option<Instant>,
    setup_s: f64,
    walls: Vec<f64>,
    seen: usize,
    sample_at: usize,
    threads: u64,
    tap: Option<Tap>,
}

impl Recorder {
    fn new(start: Instant, steps: usize, tap: Option<Tap>) -> Recorder {
        Recorder {
            start,
            last: None,
            setup_s: 0.0,
            walls: Vec::with_capacity(steps),
            seen: 0,
            sample_at: steps / 2,
            threads: 0,
            tap,
        }
    }

    /// Called right after each step returns.
    fn on_step(&mut self) {
        let now = Instant::now();
        match self.last {
            None => self.setup_s = (now - self.start).as_secs_f64(),
            Some(prev) => self.walls.push((now - prev).as_secs_f64()),
        }
        self.last = Some(now);
        if self.seen == self.sample_at {
            self.threads = proc_status("Threads").unwrap_or(0);
        }
        self.seen += 1;
        if let Some(tap) = &mut self.tap {
            tap.mark();
        }
    }

    fn finish(
        self,
        reports: Vec<StepReport>,
        error: Option<String>,
        extra: impl FnOnce(&mut Layers),
    ) -> Episode {
        let layers = self.tap.map(|tap| {
            let mut layers = Layers::default();
            if let (Some(first), Some(last)) = (tap.first, tap.last) {
                layers.probe = last.0.since(first.0);
                layers.net = last.1.since(first.1);
            }
            extra(&mut layers);
            layers
        });
        Episode {
            setup_s: self.setup_s,
            walls: self.walls,
            reports,
            error,
            threads: self.threads,
            layers,
        }
    }
}

fn sim_episode<M: Model>(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    model: M,
    tap: Option<Tap>,
) -> Episode {
    let start = Instant::now();
    let dataset = shape.dataset();
    let scheme = CodingScheme::IsGc(workload.placement(shape));
    let config = TrainingConfig {
        batch_size: shape.batch,
        learning_rate: shape.learning_rate,
        loss_threshold: 0.0,
        max_steps: shape.steps,
        seed,
        degrade: DegradePolicy::Fail,
        ..TrainingConfig::default()
    };
    let mut recorder = Recorder::new(start, shape.steps, tap);
    let mut observer = FnObserver(|_: &StepReport| {
        recorder.on_step();
        StepControl::Continue
    });
    // The simulator panics on engine errors; record one as a failed
    // episode instead of losing the whole run.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        isgc_simnet::trainer::train_observed(
            &model,
            &dataset,
            &scheme,
            &isgc_simnet::WaitPolicy::WaitForCount(shape.wait),
            isgc_bench::cloud_cluster(shape.n),
            &config,
            &mut observer,
        )
    }));
    let (reports, error) = match outcome {
        Ok(report) => (report.steps, None),
        Err(panic) => (Vec::new(), Some(panic_text(&panic))),
    };
    let arrived: usize = reports.iter().map(|r| r.arrivals.len()).sum();
    recorder.finish(reports, error, |layers| {
        // The simulator computes a codeword for every arrival only.
        layers.codewords_computed = arrived;
    })
}

fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "panic".to_string())
}

/// One TCP episode: the master on this thread (flat) or stepped by the
/// scheduler through a tree root (tree), one swarm thread holding every
/// worker connection, and for the tree one sub-master thread.
fn tcp_episode<M: Model + Clone + Send + 'static>(
    workload: Workload,
    shape: &Shape,
    seed: u64,
    model: M,
    tap: Option<Tap>,
) -> Episode {
    let start = Instant::now();
    let dataset = shape.dataset();
    let mut config = NetConfig::new(
        workload.placement(shape),
        isgc_net::WaitPolicy::FirstW(shape.wait),
    );
    config.batch_size = shape.batch;
    config.learning_rate = shape.learning_rate;
    config.max_steps = shape.steps;
    config.seed = seed;
    config.register_timeout = Duration::from_secs(60);
    config.metrics = tap.as_ref().map(|t| t.registry.clone());
    let mut recorder = Recorder::new(start, shape.steps, tap);

    let fail = |recorder: Recorder, why: String| recorder.finish(Vec::new(), Some(why), |_| {});
    let master = match Master::bind("127.0.0.1:0") {
        Ok(master) => master,
        Err(e) => return fail(recorder, format!("bind: {e}")),
    };
    let root = match master.local_addr() {
        Ok(addr) => addr,
        Err(e) => return fail(recorder, format!("local_addr: {e}")),
    };
    let tree = workload == Workload::TcpTreeFr256;
    let sub = if tree {
        match Submaster::bind("127.0.0.1:0") {
            Ok(sub) => Some(sub),
            Err(e) => return fail(recorder, format!("sub-master bind: {e}")),
        }
    } else {
        None
    };
    let workers_dial = match &sub {
        Some(sub) => match sub.local_addr() {
            Ok(addr) => addr,
            Err(e) => return fail(recorder, format!("sub-master local_addr: {e}")),
        },
        None => root,
    };

    thread::scope(|scope| {
        let sub_thread =
            sub.map(|sub| scope.spawn(move || sub.run(root, 0, &SubmasterOptions::default())));
        let swarm_model = model.clone();
        let swarm_data = &dataset;
        let swarm_started = Instant::now();
        let swarm = scope.spawn(move || {
            let mut registered = None;
            let summary = isgc_net::run_swarm(workers_dial, &SwarmOptions::new(shape.n), |_| {
                registered = Some(Instant::now());
                (swarm_model, swarm_data.clone())
            });
            (summary, registered)
        });

        let (train, sched_overhead_s) = if tree {
            run_tree(master, model, dataset.clone(), &config, &mut recorder)
        } else {
            let result = master.run_with(&model, &dataset, &config, |_| recorder.on_step());
            (result.map_err(|e| e.to_string()), 0.0)
        };
        let (summary, registered) = swarm.join().expect("swarm thread panicked");
        let sub_result = sub_thread.map(|t| t.join().expect("sub-master thread panicked"));

        let (reports, mut error) = match train {
            Ok(report) => (report.steps, None),
            Err(e) => (Vec::new(), Some(e)),
        };
        let computed = match summary {
            Ok(summary) => summary.steps_served,
            Err(e) => {
                error.get_or_insert(format!("swarm: {e}"));
                0
            }
        };
        if let Some(Err(e)) = sub_result {
            error.get_or_insert(format!("sub-master: {e}"));
        }
        recorder.finish(reports, error, |layers| {
            layers.codewords_computed = computed;
            layers.register_s = registered
                .map(|at| (at - swarm_started).as_secs_f64())
                .unwrap_or(0.0);
            layers.sched_overhead_s = sched_overhead_s;
        })
    })
}

/// Steps a tree session through the scheduler, as `launch --tree` does.
/// Returns the report and, when traced, the scheduler's own time over
/// steps 1 to the last but one.
fn run_tree<M: Model + 'static>(
    master: Master,
    model: M,
    dataset: Dataset,
    config: &NetConfig,
    recorder: &mut Recorder,
) -> (Result<TrainReport, String>, f64) {
    let traced = recorder.tap.is_some();
    let driver_s = Rc::new(Cell::new(0.0));
    let job_clock = Rc::clone(&driver_s);
    let config = config.clone();
    let mut sched = Scheduler::new(SchedulerConfig::new(1, 0));
    let submitted = sched.submit_driver(
        "tree",
        Box::new(move || {
            master
                .into_tree_session(model, dataset, &config, 1)
                .map(|session| {
                    Box::new(BenchJob {
                        session: Some(session),
                        done: false,
                        clock: traced.then_some(job_clock),
                    }) as Box<dyn JobDriver>
                })
                .map_err(|e| Box::new(e) as DriverError)
        }),
    );
    if let Err(e) = submitted {
        return (Err(e.to_string()), 0.0);
    }
    let mut overhead_s = 0.0;
    let mut rounds = 0usize;
    while !sched.is_idle() {
        let started = Instant::now();
        sched.run_round();
        let round_s = started.elapsed().as_secs_f64();
        recorder.on_step();
        // Step 0 is set-up; the last round also closes the session.
        if traced && rounds > 0 && !sched.is_idle() {
            overhead_s += round_s - driver_s.get();
        }
        rounds += 1;
    }
    let outcome = sched
        .into_outcomes()
        .pop()
        .expect("the scheduler ran exactly one job");
    (outcome.result.map_err(|e| e.to_string()), overhead_s)
}

/// The bench-side [`JobDriver`] over a tree [`MasterSession`]; in the
/// traced run it times its own `step` calls.
struct BenchJob<M: Model> {
    session: Option<MasterSession<M>>,
    done: bool,
    clock: Option<Rc<Cell<f64>>>,
}

impl<M: Model> JobDriver for BenchJob<M> {
    fn step(&mut self) -> Result<SessionStatus, DriverError> {
        if self.done {
            return Ok(SessionStatus::Done);
        }
        let started = Instant::now();
        let result = self.session.as_mut().expect("live session").step();
        if let Some(clock) = &self.clock {
            clock.set(started.elapsed().as_secs_f64());
        }
        match result {
            Ok(SessionStatus::Running) => Ok(SessionStatus::Running),
            Ok(SessionStatus::Done) => {
                self.done = true;
                Ok(SessionStatus::Done)
            }
            Err(e) => {
                self.done = true;
                Err(Box::new(e))
            }
        }
    }

    fn finish(mut self: Box<Self>) -> TrainReport {
        self.session.take().expect("live session").finish()
    }
}
