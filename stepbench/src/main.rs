//! Step-anatomy benchmark for the IS-GC workspace.
//!
//! ```text
//! cargo run --release --manifest-path stepbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Runs closed-loop training episodes of one workload for about `--seconds`
//! seconds, checks every episode's output, and prints a host block, the
//! checks, and the metrics with their units. The last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`. `--trace 0` reports the end-to-end metrics from untraced
//! episodes; `--trace 1` alternates untraced and traced episodes and
//! reports the per-layer metrics from the traced ones. `--smoke` shrinks
//! every workload to a one-second shape. See `stepbench/README.md`.

mod check;
mod probe;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use check::{Oracle, Verdict};
use workloads::{Episode, Workload};

const USAGE: &str = "usage: isgc-stepbench --workload <sim-hr24-mlp|tcp-fr1000|tcp-cr16-wide|\
tcp-tree-fr256> --seed <n> --seconds <s> --trace <0|1> [--smoke]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// splitmix64: episode `i`'s seed, a pure function of the run seed.
fn episode_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One checked episode.
struct Run {
    episode: Episode,
    verdict: Verdict,
    traced: bool,
}

/// Runs the episodes, prints the human-readable report, and returns the
/// final JSON line.
fn run(args: &Args) -> Result<String, String> {
    let workload = args.workload;
    let shape = workload.shape(args.smoke);
    let oracle = Oracle::for_workload(workload, workload.placement(&shape));
    let budget = Duration::from_secs_f64(args.seconds);
    let min_episodes = match (args.smoke, args.trace) {
        (true, false) => 1,
        (true, true) | (false, false) => 3,
        (false, true) => 4,
    };

    let started = Instant::now();
    let ticks_before = probe::cpu_ticks();
    let mut runs: Vec<Run> = Vec::new();
    loop {
        let i = runs.len();
        // The traced run alternates so both halves see the same host state;
        // only the untraced episodes feed `trace.overhead_frac`'s baseline.
        let traced = args.trace && i % 2 == 1;
        let episode_started = Instant::now();
        let episode = workload.episode(&shape, episode_seed(args.seed, i), traced);
        let took = episode_started.elapsed();
        let verdict = check::verdict(workload, &shape, &oracle, &episode);
        runs.push(Run {
            episode,
            verdict,
            traced,
        });
        if runs.len() >= min_episodes && started.elapsed() + took > budget {
            break;
        }
    }

    let steal_frac = match (ticks_before, probe::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    let mut checks: Vec<(String, bool)> = Vec::new();
    let threads = runs.iter().map(|r| r.episode.threads).max().unwrap_or(0);
    checks.push((
        format!(
            "{threads} process threads mid-step (expected {})",
            workload.expected_threads()
        ),
        threads == workload.expected_threads(),
    ));
    if workload.simulated() {
        // Determinism: a second run of episode 0 must reproduce every step
        // report (losses, selections, simulated durations) bit for bit.
        let first = &runs[0].episode.reports;
        let again = workload.episode(&shape, episode_seed(args.seed, 0), false);
        checks.push((
            format!(
                "episode 0 fingerprint {:016x} reproduced by a re-run",
                check::sim_fingerprint(first)
            ),
            again.error.is_none() && &again.reports == first,
        ));
    }

    print_host(args, threads, steal_frac);
    for (i, r) in runs.iter().enumerate() {
        let broken: Vec<&str> = r
            .verdict
            .checks
            .iter()
            .filter(|(_, ok)| !ok)
            .map(|(what, _)| what.as_str())
            .collect();
        println!(
            "episode {i}{}: setup {:.3} s, {} steps, target at step {}, checks {}",
            if r.traced { " (traced)" } else { "" },
            r.episode.setup_s,
            r.episode.reports.len(),
            r.verdict
                .target_step
                .map_or_else(|| "-".to_string(), |k| k.to_string()),
            if broken.is_empty() {
                "ok".to_string()
            } else {
                format!("FAILED: {}", broken.join("; "))
            }
        );
    }
    for (what, ok) in &checks {
        println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }

    let attempted: usize = runs.iter().map(|r| r.verdict.attempted).sum();
    let failed: usize = runs.iter().map(|r| r.verdict.failed).sum();
    let correct = failed == 0
        && checks.iter().all(|(_, ok)| *ok)
        && runs
            .iter()
            .all(|r| r.verdict.checks.iter().all(|(_, ok)| *ok));
    println!(
        "checks {}: {attempted} steps attempted, {failed} failed, {} episodes",
        if correct { "passed" } else { "FAILED" },
        runs.len()
    );

    let metrics = if args.trace {
        per_layer(workload, &runs)?
    } else {
        end_to_end(workload, &shape, &runs)?
    };
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        println!("metric {} = {} {} ({})", m.name, m.value, m.unit, m.note);
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        let comma = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{comma}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    Ok(json)
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// Linear-interpolated quantile of unsorted `values` (`q` in `[0, 1]`).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The end-to-end metrics, from the untraced episodes.
fn end_to_end(
    workload: Workload,
    shape: &workloads::Shape,
    runs: &[Run],
) -> Result<Vec<Metric>, String> {
    let untraced: Vec<&Run> = runs.iter().filter(|r| !r.traced).collect();
    // Each step metric is the median over episodes of that episode's own
    // figure, so a burst of host contention that slows a minority of the
    // run's episodes leaves it unchanged. A quantile over the pooled steps
    // moves as soon as the burst covers more than its tail share of them.
    let episodes: Vec<&[f64]> = untraced
        .iter()
        .map(|r| r.episode.walls.as_slice())
        .filter(|w| !w.is_empty())
        .collect();
    if episodes.is_empty() {
        return Err("no step completed after step 0".into());
    }
    let per_episode = |f: &dyn Fn(&[f64]) -> f64| -> f64 {
        quantile(&episodes.iter().map(|w| f(w)).collect::<Vec<_>>(), 0.5)
    };
    let steps: usize = episodes.iter().map(|w| w.len()).sum();
    let setups: Vec<f64> = untraced.iter().map(|r| r.episode.setup_s).collect();
    let recovered: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.episode.reports.iter())
        .map(|s| s.recovered as f64 / shape.n as f64)
        .collect();
    let targets: Vec<f64> = untraced
        .iter()
        .map(|r| r.verdict.time_to_target_s)
        .collect();
    let missed = untraced
        .iter()
        .filter(|r| r.verdict.target_step.is_none())
        .count();
    let peak_kb = probe::proc_status("VmHWM").unwrap_or(0);
    let samples = format!(
        "median over {} episodes, {steps} steps in all",
        episodes.len()
    );
    let clock = if workload.simulated() {
        "simulated"
    } else {
        "wall"
    };
    Ok(vec![
        metric(
            "steps_per_s",
            per_episode(&|w| w.len() as f64 / w.iter().sum::<f64>()),
            "1/s",
            samples.clone(),
        ),
        metric(
            "step_p50_ms",
            per_episode(&|w| quantile(w, 0.5)) * 1e3,
            "ms",
            samples.clone(),
        ),
        metric(
            "step_p95_ms",
            per_episode(&|w| quantile(w, 0.95)) * 1e3,
            "ms",
            samples,
        ),
        metric(
            "setup_s",
            quantile(&setups, 0.5),
            "s",
            format!("median of {} set-ups", setups.len()),
        ),
        metric(
            "recovered_frac",
            recovered.iter().sum::<f64>() / recovered.len().max(1) as f64,
            "ratio",
            format!("mean over {} steps", recovered.len()),
        ),
        metric(
            "time_to_target_s",
            quantile(&targets, 0.5),
            "s",
            format!(
                "{clock} clock, loss <= {}, median of {} episodes ({missed} never reached it)",
                shape.target_loss,
                targets.len()
            ),
        ),
        metric(
            "peak_rss_mb",
            peak_kb as f64 / 1024.0,
            "MB",
            "VmHWM of this process",
        ),
    ])
}

/// The per-layer metrics: per-step means over the traced episodes' steps
/// 1.., plus the traced/untraced wall-time ratio.
fn per_layer(workload: Workload, runs: &[Run]) -> Result<Vec<Metric>, String> {
    let traced: Vec<(&Episode, &workloads::Layers)> = runs
        .iter()
        .filter_map(|r| r.episode.layers.as_ref().map(|l| (&r.episode, l)))
        .collect();
    let steps: usize = traced.iter().map(|(e, _)| e.walls.len()).sum();
    if steps == 0 {
        return Err("no traced step completed after step 0".into());
    }
    let per_step = steps as f64;
    let sum = |f: &dyn Fn(&Episode, &workloads::Layers) -> f64| -> f64 {
        traced.iter().map(|(e, l)| f(e, l)).sum()
    };
    let later = |e: &Episode, f: &dyn Fn(&isgc_engine::StepReport) -> f64| -> f64 {
        e.reports.iter().skip(1).map(f).sum()
    };
    let wall = sum(&|e, _| e.walls.iter().sum());
    let loss = sum(&|_, l| l.probe.loss_s);
    let grad = sum(&|_, l| l.probe.grad_s);
    let grad_calls = sum(&|_, l| l.probe.grad_calls as f64);
    let decode = sum(&|e, _| later(e, &|r| r.decode_ms)) * 1e-3;
    let sim = workload.simulated();
    let collect = if sim {
        0.0
    } else {
        sum(&|e, _| later(e, &|r| r.waited_ms)) * 1e-3
    };
    // The simulator computes gradients inside its collect; over TCP the
    // swarm does, in parallel, and `collect` is the master's wait for it.
    let spans = loss + decode + if sim { grad } else { collect };
    let sim_step = if sim {
        sum(&|e, _| later(e, &|r| r.duration))
    } else {
        0.0
    };
    let net = |f: &dyn Fn(&workloads::NetCounters) -> f64| sum(&|_, l| f(&l.net));
    let wakeups = net(&|n| n.wakeups);
    let selected = sum(&|e, _| e.reports.iter().map(|r| r.selected.len() as f64).sum());
    let computed = sum(&|_, l| l.codewords_computed as f64);
    let register = sum(&|_, l| l.register_s) / traced.len() as f64;
    let mean_wall = |pick: bool| {
        let walls: Vec<f64> = runs
            .iter()
            .filter(|r| r.traced == pick)
            .flat_map(|r| r.episode.walls.iter().copied())
            .collect();
        walls.iter().sum::<f64>() / walls.len().max(1) as f64
    };
    let note = format!("per step, {steps} traced steps");
    Ok(vec![
        metric("ml.loss_ms", loss / per_step * 1e3, "ms", note.clone()),
        metric("ml.grad_ms", grad / per_step * 1e3, "ms", note.clone()),
        metric(
            "ml.grad_calls",
            grad_calls / per_step,
            "count",
            note.clone(),
        ),
        metric(
            "core.decode_us",
            decode / per_step * 1e6,
            "us",
            note.clone(),
        ),
        metric(
            "engine.residual_ms",
            (wall - spans) / per_step * 1e3,
            "ms",
            "step wall minus loss, decode and collect (sim: gradients) spans",
        ),
        metric(
            "engine.span_coverage",
            spans / wall,
            "ratio",
            "measured spans / step wall",
        ),
        metric("simnet.sim_step_s", sim_step / per_step, "s", note.clone()),
        metric(
            "net.collect_ms",
            collect / per_step * 1e3,
            "ms",
            note.clone(),
        ),
        metric(
            "net.transport_ms",
            if sim {
                0.0
            } else {
                (collect - grad) / per_step * 1e3
            },
            "ms",
            "collect minus swarm gradient time",
        ),
        metric(
            "net.register_s",
            register,
            "s",
            "swarm start until every member registered",
        ),
        metric("net.wakeups", wakeups / per_step, "count", note.clone()),
        metric(
            "net.ready_per_wakeup",
            if wakeups > 0.0 {
                net(&|n| n.ready) / wakeups
            } else {
                0.0
            },
            "ratio",
            "master reactor",
        ),
        metric(
            "net.bytes_in",
            net(&|n| n.bytes_in) / per_step,
            "bytes",
            note.clone(),
        ),
        metric(
            "net.bytes_out",
            net(&|n| n.bytes_out) / per_step,
            "bytes",
            note.clone(),
        ),
        metric(
            "net.frames_in",
            net(&|n| n.frames_in) / per_step,
            "count",
            note.clone(),
        ),
        metric(
            "net.partial_writes",
            net(&|n| n.partial_writes) / per_step,
            "count",
            note.clone(),
        ),
        metric(
            "net.stale",
            sum(&|e, _| later(e, &|r| r.stale as f64)) / per_step,
            "count",
            note.clone(),
        ),
        metric(
            "net.codeword_use_frac",
            if computed > 0.0 {
                selected / computed
            } else {
                0.0
            },
            "ratio",
            "selected / codewords computed",
        ),
        metric(
            "sched.overhead_us",
            sum(&|_, l| l.sched_overhead_s) / per_step * 1e6,
            "us",
            "run_round minus JobDriver::step",
        ),
        metric(
            "trace.overhead_frac",
            mean_wall(true) / mean_wall(false) - 1.0,
            "ratio",
            "traced / untraced mean step wall - 1",
        ),
    ])
}

/// Prints the host block: the facts every number depends on.
fn print_host(args: &Args, threads: u64, steal_frac: f64) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let quote = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    println!(
        "host {{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"seed\": {}, \
         \"workload\": \"{}\", \"threads\": {threads}, \"steal_frac\": {steal_frac:.4}, \
         \"smoke\": {}}}",
        quote(&cpu),
        quote(&rustc),
        args.seed,
        args.workload.name(),
        args.smoke
    );
}
