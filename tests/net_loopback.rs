//! End-to-end loopback tests of the TCP master/worker runtime: a real
//! cluster on 127.0.0.1 with injected straggler delays, checked against the
//! exact decoder as a recovery oracle, plus a mid-run worker kill.

use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Duration;

use isgc_core::decode::{Decoder, ExactDecoder};
use isgc_core::{Placement, WorkerSet};
use isgc_linalg::Vector;
use isgc_ml::dataset::Dataset;
use isgc_ml::model::{LinearRegression, Model};
use isgc_net::wire::{read_message, write_message, Message};
use isgc_net::{run_worker, Master, NetConfig, NetTrainReport, WaitPolicy, WorkerOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 8;
const C: usize = 2;
const FEATURES: usize = 5;
const SAMPLES: usize = 256;
const DATA_SEED: u64 = 4242;

/// The dataset every peer rebuilds identically from the shared seed.
fn shared_dataset() -> Dataset {
    Dataset::synthetic_regression(SAMPLES, FEATURES, 0.05, DATA_SEED)
}

fn cluster_config(placement: Placement, wait: WaitPolicy, steps: usize) -> NetConfig {
    let mut config = NetConfig::new(placement, wait);
    config.batch_size = 8;
    config.learning_rate = 0.02;
    config.max_steps = steps;
    config.seed = DATA_SEED;
    config.heartbeat_timeout = Duration::from_millis(600);
    config.register_timeout = Duration::from_secs(10);
    config
}

/// Replays each step's surviving `WorkerSet` through the exact
/// branch-and-bound decoder and checks the runtime recovered exactly the
/// maximum-independent-set worth of partitions the paper promises.
fn assert_matches_exact_oracle(report: &NetTrainReport, placement: &Placement) {
    let oracle = ExactDecoder::new(placement);
    let mut rng = StdRng::seed_from_u64(1);
    for step in &report.steps {
        let available = WorkerSet::from_indices(placement.n(), step.arrivals.iter().copied());
        let best = oracle.decode(&available, &mut rng).recovered_count();
        assert_eq!(
            step.recovered, best,
            "step {}: runtime recovered {} partitions, exact decoder finds {} \
             for arrivals {:?}",
            step.step, step.recovered, best, step.arrivals
        );
    }
}

#[test]
fn eight_workers_with_stragglers_match_decoder_oracle() {
    let placement = Placement::fractional(N, C).expect("valid FR placement");
    let config = cluster_config(placement.clone(), WaitPolicy::FirstW(6), 10);

    let master = Master::bind("127.0.0.1:0").expect("bind loopback");
    let addr = master.local_addr().expect("local addr");
    let model = LinearRegression::new(FEATURES);
    let dataset = shared_dataset();
    let master_handle =
        thread::spawn(move || master.run(&model, &dataset, &config).expect("master run"));

    // Two persistent stragglers: always slower than the rest, so FirstW(6)
    // routinely ignores them — the paper's arbitrary-ignorance regime.
    let workers: Vec<_> = (0..N)
        .map(|_| {
            let options = WorkerOptions::with_delay(Arc::new(|w, _step| {
                if w >= 6 {
                    Duration::from_millis(80)
                } else {
                    Duration::ZERO
                }
            }));
            thread::spawn(move || {
                run_worker(addr, &options, |_assignment| {
                    (LinearRegression::new(FEATURES), shared_dataset())
                })
                .expect("worker run")
            })
        })
        .collect();

    let report = master_handle.join().expect("master thread");
    for w in workers {
        let summary = w.join().expect("worker thread");
        assert_eq!(summary.cause, isgc_net::ShutdownCause::MasterShutdown);
    }

    assert_eq!(report.step_count(), 10);
    assert_matches_exact_oracle(&report, &placement);

    // Each step waited for 6 codewords, so at least 6 arrivals per step.
    for step in &report.steps {
        assert!(
            step.arrivals.len() >= 6,
            "step {} closed with only {:?}",
            step.step,
            step.arrivals
        );
        assert!(step.recovered > 0, "step {} recovered nothing", step.step);
    }

    // Training made progress on the real sockets.
    let losses = report.loss_curve();
    assert!(
        report.final_loss() < losses[0],
        "loss did not decrease: {losses:?}"
    );
}

/// A hand-rolled worker that behaves correctly for `steps_before_exit` steps
/// and then drops its connection without a word — a mid-run crash.
fn defecting_worker(addr: std::net::SocketAddr, steps_before_exit: u64) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_message(&mut stream, &Message::Hello { preferred: None }).expect("hello");
    let Ok(Message::Assign {
        worker,
        n,
        batch_size,
        seed,
        partitions,
        ..
    }) = read_message(&mut stream)
    else {
        panic!("expected Assign");
    };
    let model = LinearRegression::new(FEATURES);
    let dataset = shared_dataset();
    let partitioned = dataset.partition(n as usize);
    let mut served = 0u64;
    loop {
        match read_message(&mut stream) {
            Ok(Message::Params { step, values }) => {
                let params = Vector::from_slice(&values);
                let mut codeword = model.zero_params();
                for &p in &partitions {
                    let batch = partitioned.minibatch(p as usize, batch_size as usize, step, seed);
                    codeword.axpy(1.0, &model.gradient_sum(&params, &dataset, &batch));
                }
                write_message(
                    &mut stream,
                    &Message::Codeword {
                        worker,
                        step,
                        values: codeword.into_vec(),
                    },
                )
                .expect("send codeword");
                served += 1;
                if served >= steps_before_exit {
                    return; // crash: drop the socket mid-run
                }
            }
            Ok(Message::Shutdown) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

#[test]
fn killed_worker_degrades_recovery_instead_of_hanging() {
    let placement = Placement::fractional(N, C).expect("valid FR placement");
    // FirstW(8) = wait for everyone: without dead-worker detection this
    // deadlocks the moment the defector leaves.
    let config = cluster_config(placement.clone(), WaitPolicy::FirstW(N), 8);

    let master = Master::bind("127.0.0.1:0").expect("bind loopback");
    let addr = master.local_addr().expect("local addr");
    let model = LinearRegression::new(FEATURES);
    let dataset = shared_dataset();
    let master_handle =
        thread::spawn(move || master.run(&model, &dataset, &config).expect("master run"));

    let defector = thread::spawn(move || defecting_worker(addr, 2));
    let workers: Vec<_> = (0..N - 1)
        .map(|_| {
            let options = WorkerOptions::default();
            thread::spawn(move || {
                run_worker(addr, &options, |_assignment| {
                    (LinearRegression::new(FEATURES), shared_dataset())
                })
                .expect("worker run")
            })
        })
        .collect();

    let report = master_handle.join().expect("master thread");
    defector.join().expect("defector thread");
    for w in workers {
        w.join().expect("worker thread");
    }

    // The run finished every step — the kill degraded it, didn't hang it.
    assert_eq!(report.step_count(), 8);
    assert_matches_exact_oracle(&report, &placement);

    let full_steps = report
        .steps
        .iter()
        .filter(|s| s.arrivals.len() == N)
        .count();
    let degraded_steps = report
        .steps
        .iter()
        .filter(|s| s.arrivals.len() == N - 1)
        .count();
    assert!(full_steps >= 1, "defector never participated");
    assert!(
        degraded_steps >= 1,
        "no step ran with exactly the survivors: {:?}",
        report
            .steps
            .iter()
            .map(|s| s.arrivals.len())
            .collect::<Vec<_>>()
    );
    // Per Theorems 10–11, FR(8, 2) still recovers from 7 of 8 workers; the
    // surviving cluster keeps making progress every step.
    for step in &report.steps {
        assert!(step.recovered > 0, "step {} recovered nothing", step.step);
    }
}

#[test]
fn deadline_policy_closes_steps_without_stragglers() {
    let placement = Placement::cyclic(N, C).expect("valid CR placement");
    let config = cluster_config(
        placement.clone(),
        WaitPolicy::Deadline(Duration::from_millis(150)),
        6,
    );

    let master = Master::bind("127.0.0.1:0").expect("bind loopback");
    let addr = master.local_addr().expect("local addr");
    let model = LinearRegression::new(FEATURES);
    let dataset = shared_dataset();
    let master_handle =
        thread::spawn(move || master.run(&model, &dataset, &config).expect("master run"));

    // One worker far slower than the deadline: its codewords arrive a step
    // late and must be discarded as stale, never merged.
    let workers: Vec<_> = (0..N)
        .map(|_| {
            let options = WorkerOptions::with_delay(Arc::new(|w, _step| {
                if w == 7 {
                    Duration::from_millis(400)
                } else {
                    Duration::ZERO
                }
            }));
            thread::spawn(move || {
                run_worker(addr, &options, |_assignment| {
                    (LinearRegression::new(FEATURES), shared_dataset())
                })
                .expect("worker run")
            })
        })
        .collect();

    let report = master_handle.join().expect("master thread");
    for w in workers {
        w.join().expect("worker thread");
    }

    assert_eq!(report.step_count(), 6);
    assert_matches_exact_oracle(&report, &placement);
    // The slow worker's late codewords were counted as stale somewhere.
    let stale_total: usize = report.steps.iter().map(|s| s.stale).sum();
    assert!(stale_total > 0, "expected discarded late codewords");
    // And it never contaminated a step it missed: every step's arrivals are
    // within the cluster and unique.
    for step in &report.steps {
        let mut seen = std::collections::HashSet::new();
        for &w in &step.arrivals {
            assert!(w < N && seen.insert(w), "bad arrivals {:?}", step.arrivals);
        }
    }
}

#[test]
fn heartbeat_silent_worker_still_gets_the_shutdown() {
    // FR(2, 1) waiting for both workers. The silent worker's heartbeats are
    // rarer than the master's timeout, and its compute blocks on a gate that
    // opens only after the master returned: it is presumed dead mid-step,
    // the step closes on the other worker alone, and the run ends while the
    // silent worker is still connected.
    let placement = Placement::fractional(2, 1).expect("valid FR placement");
    let mut config = cluster_config(placement, WaitPolicy::FirstW(2), 1);
    config.heartbeat_timeout = Duration::from_millis(300);

    let master = Master::bind("127.0.0.1:0").expect("bind loopback");
    let addr = master.local_addr().expect("local addr");
    let model = LinearRegression::new(FEATURES);
    let dataset = shared_dataset();
    let master_handle =
        thread::spawn(move || master.run(&model, &dataset, &config).expect("master run"));

    let spawn = |options: WorkerOptions| {
        thread::spawn(move || {
            run_worker(addr, &options, |_assignment| {
                (LinearRegression::new(FEATURES), shared_dataset())
            })
            .expect("worker run")
        })
    };
    let chatty = spawn(WorkerOptions {
        heartbeat_interval: Duration::from_millis(20),
        ..WorkerOptions::default()
    });
    let (release, gate) = mpsc::channel::<()>();
    let gate = Mutex::new(gate);
    let silent = spawn(WorkerOptions {
        delay: Arc::new(move |_, _| {
            let _ = gate.lock().expect("gate lock").recv();
            Duration::ZERO
        }),
        heartbeat_interval: Duration::from_secs(60),
        ..WorkerOptions::default()
    });

    let report = master_handle.join().expect("master thread");
    drop(release);
    assert_eq!(report.step_count(), 1);
    assert_eq!(report.steps[0].arrivals.len(), 1, "{:?}", report.steps[0]);
    let chatty = chatty.join().expect("chatty worker thread");
    assert_eq!(chatty.cause, isgc_net::ShutdownCause::MasterShutdown);
    // Connected but presumed dead when the run ended: the master still owes
    // it a Shutdown, not a bare EOF that spends its reconnect budget.
    let silent = silent.join().expect("silent worker thread");
    assert!(!report.steps[0].arrivals.contains(&silent.worker));
    assert_eq!(silent.cause, isgc_net::ShutdownCause::MasterShutdown);
}
