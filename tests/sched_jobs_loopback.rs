//! Multi-tenant serving over real TCP: one scheduler round-robins J = 4
//! concurrent jobs, each its own master (and for two of them, a 2-level
//! sub-master tree), with all 32 workers connected at once.
//!
//! The acceptance bar is the determinism contract from the design doc:
//! every job's recovery fingerprint, loss curve, and final parameters are
//! **bitwise** identical to that job's solo flat run — co-tenancy, job-id
//! frame tagging, scheduling interleaving, and aggregation topology are all
//! observationally invisible.

use std::thread;
use std::time::Duration;

use isgc_core::Placement;
use isgc_engine::{shard_ranges, TrainReport};
use isgc_linalg::Vector;
use isgc_ml::dataset::Dataset;
use isgc_ml::model::LinearRegression;
use isgc_net::{
    run_worker, Master, MasterSession, NetConfig, Submaster, SubmasterOptions, WaitPolicy,
    WorkerOptions,
};
use isgc_sched::{DriverError, JobDriver, Scheduler, SchedulerConfig, SessionStatus};

const N: usize = 8;
const C: usize = 2;
const SUBMASTERS: usize = 2;
const FEATURES: usize = 4;
const SAMPLES: usize = 192;
const STEPS: usize = 4;

fn dataset(seed: u64) -> Dataset {
    Dataset::synthetic_regression(SAMPLES, FEATURES, 0.05, seed)
}

/// One tenant of the cluster: its seed and whether it aggregates through a
/// sub-master tree.
#[derive(Clone, Copy)]
struct Tenant {
    seed: u64,
    tree: bool,
}

/// The same adapter the CLI uses: [`JobDriver`] over a networked session.
struct NetJob {
    session: Option<MasterSession<LinearRegression>>,
    done: bool,
}

impl JobDriver for NetJob {
    fn step(&mut self) -> Result<SessionStatus, DriverError> {
        if self.done {
            return Ok(SessionStatus::Done);
        }
        let session = self.session.as_mut().expect("live session");
        match session.step() {
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

fn job_config(job: u64, tenant: Tenant) -> NetConfig {
    let placement = Placement::fractional(N, C).expect("FR placement");
    let mut config = NetConfig::new(placement, WaitPolicy::FirstW(N));
    config.batch_size = 8;
    config.learning_rate = 0.02;
    config.max_steps = STEPS;
    config.seed = tenant.seed;
    config.job = job;
    config.job_name = Some(format!("tenant-{job}"));
    config.register_timeout = Duration::from_secs(20);
    config
}

fn spawn_worker(addr: std::net::SocketAddr, job: u64, seed: u64) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let options = WorkerOptions {
            job,
            ..WorkerOptions::default()
        };
        run_worker(addr, &options, move |_assignment| {
            (LinearRegression::new(FEATURES), dataset(seed))
        })
        .expect("worker run");
    })
}

/// A co-tenant with no network: each step only sleeps, standing in for a
/// job whose step takes a long time.
struct SleepyJob {
    nap: Duration,
    steps_left: usize,
}

impl JobDriver for SleepyJob {
    fn step(&mut self) -> Result<SessionStatus, DriverError> {
        if self.steps_left == 0 {
            return Ok(SessionStatus::Done);
        }
        thread::sleep(self.nap);
        self.steps_left -= 1;
        Ok(SessionStatus::Running)
    }

    fn finish(self: Box<Self>) -> TrainReport {
        TrainReport {
            n: 0,
            steps: Vec::new(),
            reached_threshold: false,
            interrupted: false,
            wall_time: 0.0,
            final_params: Vector::zeros(0),
        }
    }
}

/// Runs every tenant concurrently under one fair-round-robin scheduler and
/// returns their reports in job order.
fn run_cluster(tenants: &[Tenant]) -> Vec<TrainReport> {
    run_cluster_with(tenants, WaitPolicy::FirstW(N), None)
}

/// [`run_cluster`] under `wait`, with an optional [`SleepyJob`] co-tenant
/// stepped after the networked ones; only the networked reports return.
fn run_cluster_with(
    tenants: &[Tenant],
    wait: WaitPolicy,
    sleepy: Option<Duration>,
) -> Vec<TrainReport> {
    let mut sched = Scheduler::new(SchedulerConfig::new(
        tenants.len() + usize::from(sleepy.is_some()),
        0,
    ));
    let mut workers = Vec::new();
    let mut subs = Vec::new();

    for (j, &tenant) in tenants.iter().enumerate() {
        let job = j as u64;
        let master = Master::bind("127.0.0.1:0").expect("bind master");
        let root_addr = master.local_addr().expect("root addr");
        if tenant.tree {
            for (shard, &(lo, hi)) in shard_ranges(N, SUBMASTERS).iter().enumerate() {
                let sub = Submaster::bind("127.0.0.1:0").expect("bind sub-master");
                let sub_addr = sub.local_addr().expect("sub addr");
                let options = SubmasterOptions {
                    job,
                    ..SubmasterOptions::default()
                };
                subs.push(thread::spawn(move || {
                    sub.run(root_addr, shard, &options).expect("sub-master run")
                }));
                for _ in lo..hi {
                    workers.push(spawn_worker(sub_addr, job, tenant.seed));
                }
            }
        } else {
            for _ in 0..N {
                workers.push(spawn_worker(root_addr, job, tenant.seed));
            }
        }
        let mut config = job_config(job, tenant);
        config.wait = wait;
        sched
            .submit_driver(
                format!("tenant-{job}"),
                Box::new(move || {
                    let model = LinearRegression::new(FEATURES);
                    let data = dataset(tenant.seed);
                    let session = if tenant.tree {
                        master.into_tree_session(model, data, &config, SUBMASTERS)
                    } else {
                        master.into_session(model, data, &config)
                    };
                    session
                        .map(|s| {
                            Box::new(NetJob {
                                session: Some(s),
                                done: false,
                            }) as Box<dyn JobDriver>
                        })
                        .map_err(|e| Box::new(e) as DriverError)
                }),
            )
            .expect("submit job");
    }

    if let Some(nap) = sleepy {
        sched
            .submit_driver(
                "sleepy",
                Box::new(move || {
                    Ok(Box::new(SleepyJob {
                        nap,
                        steps_left: STEPS,
                    }) as Box<dyn JobDriver>)
                }),
            )
            .expect("submit sleepy job");
    }

    let mut outcomes = sched.run_to_completion();
    outcomes.truncate(tenants.len());
    for sub in subs {
        let summary = sub.join().expect("sub-master thread");
        assert!(summary.clean_shutdown, "sub-master saw no Shutdown");
    }
    for w in workers {
        w.join().expect("worker thread");
    }
    outcomes
        .into_iter()
        .map(|o| o.result.expect("job trained"))
        .collect()
}

fn signature(report: &TrainReport) -> (u64, Vec<u64>, Vec<u64>) {
    (
        report.recovery_fingerprint(),
        report.loss_curve().iter().map(|l| l.to_bits()).collect(),
        report
            .final_params
            .as_slice()
            .iter()
            .map(|p| p.to_bits())
            .collect(),
    )
}

#[test]
fn four_cotenant_jobs_match_their_solo_flat_runs_bitwise() {
    // Two flat tenants and two tree tenants share one scheduler; every
    // baseline is solo AND flat, so the equality proves both co-tenancy
    // and topology transparency over real sockets.
    let tenants = [
        Tenant {
            seed: 11,
            tree: false,
        },
        Tenant {
            seed: 22,
            tree: true,
        },
        Tenant {
            seed: 33,
            tree: false,
        },
        Tenant {
            seed: 44,
            tree: true,
        },
    ];
    let cotenant = run_cluster(&tenants);
    assert_eq!(cotenant.len(), tenants.len());

    for (j, tenant) in tenants.iter().enumerate() {
        let solo = run_cluster(&[Tenant {
            seed: tenant.seed,
            tree: false,
        }]);
        assert_eq!(cotenant[j].step_count(), STEPS);
        assert_eq!(
            signature(&cotenant[j]),
            signature(&solo[0]),
            "tenant {j} (seed {}, tree {}) diverged from its solo flat run",
            tenant.seed,
            tenant.tree
        );
    }
}

#[test]
fn deadline_jobs_count_codewords_queued_behind_a_slow_cotenant() {
    // Each job sends its next step before the scheduler moves on, so a
    // co-tenant step longer than the deadline runs out a job's cutoff
    // before its collection starts. What its workers (flat) or sub-masters
    // (tree) delivered meanwhile is on time and must all count.
    let deadline = Duration::from_millis(100);
    let tenants = [
        Tenant {
            seed: 11,
            tree: false,
        },
        Tenant {
            seed: 22,
            tree: true,
        },
    ];
    let reports = run_cluster_with(&tenants, WaitPolicy::Deadline(deadline), Some(3 * deadline));
    for (j, report) in reports.iter().enumerate() {
        assert_eq!(report.step_count(), STEPS);
        for step in &report.steps {
            let mut arrivals = step.arrivals.clone();
            arrivals.sort_unstable();
            assert_eq!(arrivals, (0..N).collect::<Vec<_>>(), "tenant {j}: {step:?}");
            assert_eq!(step.stale, 0, "tenant {j}: {step:?}");
        }
    }
}
