//! End-to-end 2-level aggregation over real sockets: a root master, two
//! sub-masters, and sixteen workers on 127.0.0.1. The acceptance bar is
//! exact: the tree run's recovery fingerprint, loss curve, and final
//! parameters are *bitwise* identical to a flat run of the same
//! configuration — hierarchical aggregation is an implementation detail,
//! never a numerics change.

use std::thread;
use std::time::Duration;

use isgc_core::Placement;
use isgc_engine::{shard_ranges, SessionStatus};
use isgc_ml::dataset::Dataset;
use isgc_ml::model::LinearRegression;
use isgc_net::{
    run_worker, Master, NetConfig, NetTrainReport, Submaster, SubmasterOptions, WaitPolicy,
    WorkerOptions,
};
use isgc_obs::Registry;

const N: usize = 16;
const C: usize = 2;
const SUBMASTERS: usize = 2;
const FEATURES: usize = 4;
const SAMPLES: usize = 192;
const SEED: u64 = 2023;
const STEPS: usize = 5;

fn shared_dataset() -> Dataset {
    Dataset::synthetic_regression(SAMPLES, FEATURES, 0.05, SEED)
}

fn config() -> NetConfig {
    let placement = Placement::fractional(N, C).expect("valid FR placement");
    // Wait for everyone and inject no delays: both topologies then see the
    // full arrival set every step, so any divergence is an aggregation bug,
    // not a timing artifact.
    let mut config = NetConfig::new(placement, WaitPolicy::FirstW(N));
    config.batch_size = 8;
    config.learning_rate = 0.02;
    config.max_steps = STEPS;
    config.seed = SEED;
    config.register_timeout = Duration::from_secs(20);
    config
}

fn spawn_worker(addr: std::net::SocketAddr) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let options = WorkerOptions::default();
        let summary = run_worker(addr, &options, |_assignment| {
            (LinearRegression::new(FEATURES), shared_dataset())
        })
        .expect("worker run");
        assert_eq!(summary.cause, isgc_net::ShutdownCause::MasterShutdown);
    })
}

fn flat_run() -> NetTrainReport {
    let master = Master::bind("127.0.0.1:0").expect("bind master");
    let addr = master.local_addr().expect("local addr");
    let workers: Vec<_> = (0..N).map(|_| spawn_worker(addr)).collect();

    let mut session = master
        .into_session(LinearRegression::new(FEATURES), shared_dataset(), &config())
        .expect("flat session");
    while session.step().expect("flat step") == SessionStatus::Running {}
    let report = session.finish();
    for w in workers {
        w.join().expect("worker thread");
    }
    report
}

fn tree_run() -> (NetTrainReport, Registry) {
    let master = Master::bind("127.0.0.1:0").expect("bind root");
    let root_addr = master.local_addr().expect("root addr");

    // Bind the sub-masters before starting them so the workers can be
    // pointed at their shard's address immediately.
    let subs: Vec<Submaster> = (0..SUBMASTERS)
        .map(|_| Submaster::bind("127.0.0.1:0").expect("bind sub-master"))
        .collect();
    let sub_addrs: Vec<_> = subs
        .iter()
        .map(|s| s.local_addr().expect("sub addr"))
        .collect();
    let sub_handles: Vec<_> = subs
        .into_iter()
        .enumerate()
        .map(|(shard, sub)| {
            thread::spawn(move || {
                sub.run(root_addr, shard, &SubmasterOptions::default())
                    .expect("sub-master run")
            })
        })
        .collect();

    let mut workers = Vec::new();
    for (shard, &(lo, hi)) in shard_ranges(N, SUBMASTERS).iter().enumerate() {
        for _ in lo..hi {
            workers.push(spawn_worker(sub_addrs[shard]));
        }
    }

    let registry = Registry::new();
    let mut tree_config = config();
    tree_config.metrics = Some(registry.clone());
    let mut session = master
        .into_tree_session(
            LinearRegression::new(FEATURES),
            shared_dataset(),
            &tree_config,
            SUBMASTERS,
        )
        .expect("tree session");
    while session.step().expect("tree step") == SessionStatus::Running {}
    let report = session.finish();

    for handle in sub_handles {
        let summary = handle.join().expect("sub-master thread");
        assert!(summary.clean_shutdown, "sub-master saw no Shutdown");
        assert_eq!(summary.steps_served, STEPS);
        assert!(!summary.crashed);
    }
    for w in workers {
        w.join().expect("worker thread");
    }
    (report, registry)
}

#[test]
fn two_level_tree_matches_flat_bitwise_over_tcp() {
    let flat = flat_run();
    let (tree, root_registry) = tree_run();

    // The root's transport meters the shard uploads it receives.
    let received = root_registry
        .counter(isgc_net::metrics::FRAMES_RECEIVED_TOTAL, &[])
        .unwrap_or(0);
    assert!(received > 0, "tree root metered no inbound frames");

    assert_eq!(flat.step_count(), STEPS);
    assert_eq!(tree.step_count(), STEPS);
    assert_eq!(
        flat.recovery_fingerprint(),
        tree.recovery_fingerprint(),
        "tree recovery diverged from flat"
    );
    // Bitwise, not approximately: the canonical pairwise reduction makes
    // the merge order identical in both topologies.
    let flat_losses: Vec<u64> = flat.loss_curve().iter().map(|l| l.to_bits()).collect();
    let tree_losses: Vec<u64> = tree.loss_curve().iter().map(|l| l.to_bits()).collect();
    assert_eq!(flat_losses, tree_losses);
    let flat_params: Vec<u64> = flat
        .final_params
        .as_slice()
        .iter()
        .map(|p| p.to_bits())
        .collect();
    let tree_params: Vec<u64> = tree
        .final_params
        .as_slice()
        .iter()
        .map(|p| p.to_bits())
        .collect();
    assert_eq!(flat_params, tree_params);

    // Every step saw the full cluster in both runs. The flat master records
    // arrivals in network-arrival order (nondeterministic), so compare as
    // sets — the fingerprint above already hashed them sorted.
    for (a, b) in flat.steps.iter().zip(tree.steps.iter()) {
        assert_eq!(a.arrivals.len(), N, "flat step {} missed arrivals", a.step);
        let mut flat_arrivals = a.arrivals.clone();
        flat_arrivals.sort_unstable();
        assert_eq!(flat_arrivals, b.arrivals, "step {}", a.step);
        assert_eq!(a.selected, b.selected, "step {}", a.step);
        assert_eq!(a.recovered, b.recovered, "step {}", a.step);
    }
}
