//! Outside-in instrumentation for the traced run: a [`Model`] wrapper that
//! times the two `isgc-ml` calls on the step's critical path, plus the
//! process facts (`/proc/self/status`) the report stamps.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use isgc_linalg::Vector;
use isgc_ml::{Dataset, Model};
use rand::RngCore;

/// Cumulative time and calls spent in the wrapped model's methods. Shared
/// by every thread holding a [`Timed`] clone (the master's loss evaluation
/// and the swarm's gradients land in the same probe). The counters publish
/// no other data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct Probe {
    loss_ns: AtomicU64,
    loss_calls: AtomicU64,
    grad_ns: AtomicU64,
    grad_calls: AtomicU64,
}

/// A point-in-time copy of a [`Probe`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeSnapshot {
    /// Seconds inside `Model::loss_mean`.
    pub loss_s: f64,
    /// Calls to `Model::loss_mean`.
    pub loss_calls: u64,
    /// Seconds inside `Model::gradient_sum_into`.
    pub grad_s: f64,
    /// Calls to `Model::gradient_sum_into`.
    pub grad_calls: u64,
}

impl ProbeSnapshot {
    /// What happened between `earlier` and `self`.
    pub fn since(self, earlier: ProbeSnapshot) -> ProbeSnapshot {
        ProbeSnapshot {
            loss_s: self.loss_s - earlier.loss_s,
            loss_calls: self.loss_calls - earlier.loss_calls,
            grad_s: self.grad_s - earlier.grad_s,
            grad_calls: self.grad_calls - earlier.grad_calls,
        }
    }
}

impl Probe {
    /// Reads every counter.
    pub fn snapshot(&self) -> ProbeSnapshot {
        ProbeSnapshot {
            loss_s: self.loss_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            loss_calls: self.loss_calls.load(Ordering::Relaxed),
            grad_s: self.grad_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            grad_calls: self.grad_calls.load(Ordering::Relaxed),
        }
    }
}

fn charge(ns: &AtomicU64, calls: &AtomicU64, since: Instant) {
    let spent = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
    ns.fetch_add(spent, Ordering::Relaxed);
    calls.fetch_add(1, Ordering::Relaxed);
}

/// `M` with its loss and gradient calls timed into a shared [`Probe`].
#[derive(Debug, Clone)]
pub struct Timed<M> {
    inner: M,
    probe: Arc<Probe>,
}

impl<M> Timed<M> {
    /// Wraps `inner`, charging its calls to `probe`.
    pub fn new(inner: M, probe: Arc<Probe>) -> Self {
        Timed { inner, probe }
    }
}

impl<M: Model> Model for Timed<M> {
    fn param_dim(&self) -> usize {
        self.inner.param_dim()
    }

    fn zero_params(&self) -> Vector {
        self.inner.zero_params()
    }

    fn init_params(&self, rng: &mut dyn RngCore) -> Vector {
        self.inner.init_params(rng)
    }

    fn loss_mean(&self, params: &Vector, data: &Dataset, indices: &[usize]) -> f64 {
        let started = Instant::now();
        let loss = self.inner.loss_mean(params, data, indices);
        charge(&self.probe.loss_ns, &self.probe.loss_calls, started);
        loss
    }

    fn gradient_sum_into(
        &self,
        params: &Vector,
        data: &Dataset,
        indices: &[usize],
        out: &mut Vector,
    ) {
        let started = Instant::now();
        self.inner.gradient_sum_into(params, data, indices, out);
        charge(&self.probe.grad_ns, &self.probe.grad_calls, started);
    }
}

/// A numeric field of `/proc/self/status` (Linux), e.g. `Threads` or
/// `VmHWM` (in kB); `None` where the file or field is missing.
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let value = line.strip_prefix(field)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Machine-wide `(steal, total)` CPU ticks from `/proc/stat` (Linux). Steal
/// is time a virtual CPU was ready to run but the hypervisor ran something
/// else; the host block reports its share over the run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((ticks.get(7).copied().unwrap_or(0), ticks.iter().sum()))
}
