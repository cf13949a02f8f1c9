//! Output checks, run on each episode's record after its timed steps.

use isgc_core::decode::{Decoder, ExactDecoder};
use isgc_core::{Placement, WorkerSet};
use isgc_engine::{StepOutcome, StepReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workloads::{Episode, Shape, Workload};

/// The reference each step's recovered-partition count must equal.
pub enum Oracle {
    /// The exact maximum-independent-set decoder (small n).
    Exact(ExactDecoder),
    /// FR in closed form: the partitions held by at least one arrival,
    /// i.e. c × (groups with an arrival). The exact oracle's
    /// branch-and-bound does not finish at n = 1000.
    FrUnion(Placement),
}

impl Oracle {
    /// The oracle for `workload`.
    pub fn for_workload(workload: Workload, placement: Placement) -> Oracle {
        match workload {
            Workload::SimHr24Mlp | Workload::TcpCr16Wide => {
                Oracle::Exact(ExactDecoder::new(&placement))
            }
            Workload::TcpFr1000 | Workload::TcpTreeFr256 => Oracle::FrUnion(placement),
        }
    }

    fn recovered(&self, arrivals: &[usize]) -> usize {
        match self {
            Oracle::Exact(exact) => {
                let available = WorkerSet::from_indices(exact.n(), arrivals.iter().copied());
                // The rng only breaks ties between maximum sets; the size
                // is what is compared.
                exact
                    .decode(&available, &mut StdRng::seed_from_u64(0))
                    .recovered_count()
            }
            Oracle::FrUnion(placement) => {
                let mut held = vec![false; placement.n()];
                for &w in arrivals {
                    for &p in placement.partitions_of(w) {
                        held[p] = true;
                    }
                }
                held.into_iter().filter(|&h| h).count()
            }
        }
    }
}

/// One episode's checks and derived quantities.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Steps attempted (completed steps, plus the one that errored).
    pub attempted: usize,
    /// Steps that errored, were not `Exact`, or failed a per-step check.
    pub failed: usize,
    /// Episode-level checks: `(description, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Seconds from the end of step 0 until the loss first reached the
    /// target (or the episode ended), on the workload's clock: simulated
    /// for the simulator, wall elsewhere.
    pub time_to_target_s: f64,
    /// The step at which the target was first reached, if it was.
    pub target_step: Option<usize>,
}

/// Whether one step's report passes every per-step check.
fn step_ok(report: &StepReport, oracle: &Oracle) -> bool {
    let within = matches!(report.bounds, Some((lo, hi)) if (lo..=hi).contains(&report.recovered));
    report.outcome == StepOutcome::Exact
        && !report.failed_decode
        && within
        && oracle.recovered(&report.arrivals) == report.recovered
}

/// Checks one episode.
pub fn verdict(workload: Workload, shape: &Shape, oracle: &Oracle, episode: &Episode) -> Verdict {
    let reports = &episode.reports;
    let errored = usize::from(episode.error.is_some());
    let failed_steps = reports.iter().filter(|r| !step_ok(r, oracle)).count();
    let mut checks = vec![(
        match &episode.error {
            Some(e) => format!("no engine or net error (got: {e})"),
            None => "no engine or net error".to_string(),
        },
        episode.error.is_none(),
    )];
    checks.push((
        format!("all {} steps ran", shape.steps),
        reports.len() == shape.steps,
    ));
    checks.push((
        "every step Exact, bound-checked within Theorem 10-11, recovery equal to the oracle"
            .to_string(),
        failed_steps == 0,
    ));
    let (first, last) = match (reports.first(), reports.last()) {
        (Some(first), Some(last)) => (first.loss, last.loss),
        _ => (f64::NAN, f64::NAN),
    };
    checks.push((
        format!("final loss {last:.4} below step-0 loss {first:.4}"),
        last < first,
    ));

    // Time to target on the workload's clock. An episode that never gets
    // there counts its whole length, so a change that slows learning
    // cannot hide by dropping out of the median.
    let clock: Vec<f64> = if workload.simulated() {
        reports.iter().map(|r| r.duration).collect()
    } else {
        std::iter::once(0.0)
            .chain(episode.walls.iter().copied())
            .collect()
    };
    let target_step = reports.iter().position(|r| r.loss <= shape.target_loss);
    let upto = target_step
        .unwrap_or(usize::MAX)
        .min(clock.len().saturating_sub(1));
    let time_to_target_s = clock.iter().take(upto + 1).skip(1).sum();
    Verdict {
        attempted: reports.len() + errored,
        failed: failed_steps + errored,
        checks,
        time_to_target_s,
        target_step,
    }
}

/// The simulator's run fingerprint: FNV-1a over the per-step recovered
/// counts, the final-loss bits, and the total simulated time.
pub fn sim_fingerprint(reports: &[StepReport]) -> u64 {
    let sim_time: f64 = reports.iter().map(|r| r.duration).sum();
    let final_loss = reports.last().map_or(0, |r| r.loss.to_bits());
    reports
        .iter()
        .map(|r| r.recovered as u64)
        .chain([final_loss, sim_time.to_bits()])
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}
