//! # isgc-net — a real TCP master/worker IS-GC runtime
//!
//! Where `isgc-simnet` *simulates* arrival times, this crate puts the
//! protocol on genuine sockets: a [`master`] that listens on TCP, registers
//! `n` workers, assigns each its `c` partitions from any
//! [`isgc_core::Placement`], broadcasts parameters, and per step collects
//! codewords under a [`WaitPolicy`] before decoding with the paper's IS-GC
//! decoders; and a [`worker`] client that computes per-partition gradients
//! via `isgc-ml`, straggles according to an injected [`DelayFn`], and
//! reconnects with backoff when its connection drops. Every worker loop —
//! the thread-per-connection client, the one-thread [`swarm`], and the
//! chaos and model-checker workers built on this crate — runs the same
//! sans-I/O [`WorkerCore`].
//!
//! The paper's central claim — the master may ignore an **arbitrary** subset
//! of stragglers each step and still recover a predictable fraction of the
//! gradient (Theorems 10–11) — shows up operationally here: stragglers are
//! real slow TCP peers, a dead worker degrades per-step recovery instead of
//! stalling the run (heartbeat-based liveness plus per-step deadlines), and
//! late codewords are discarded by step tag rather than corrupting later
//! rounds.
//!
//! Framing lives in [`wire`] (length-prefixed binary frames, little-endian
//! `f64` payloads, strict decoding); per-step observability in
//! [`report::NetReport`].

// `deny` rather than `forbid`: the reactor's `poll(2)` binding carries the
// crate's single, documented `#[allow(unsafe_code)]`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod master;
pub(crate) mod membership;
pub mod metrics;
pub(crate) mod reactor;
pub mod report;
pub mod retry;
pub mod seam;
pub mod submaster;
pub mod swarm;
pub mod wire;
pub mod worker;

pub use checkpoint::{CheckpointConfig, MasterCheckpoint};
pub use master::{Master, MasterLoop, MasterSession, NetConfig, StepControl};
pub use report::{NetReport, NetTrainReport, RepairEvent};
pub use retry::RetryPolicy;
pub use submaster::{
    ShardGeometry, ShardLoop, Submaster, SubmasterOptions, SubmasterSummary, TreeRootLoop,
};
pub use swarm::{run_swarm, SwarmOptions, SwarmSummary};
pub use worker::{
    connect, run_worker, Assignment, ShutdownCause, WorkerCore, WorkerOptions, WorkerSummary,
};

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A function giving worker `w`'s injected straggler delay at step `t`.
///
/// Runs on worker threads, hence `Send + Sync`.
pub type DelayFn = Arc<dyn Fn(usize, u64) -> Duration + Send + Sync>;

/// A delay function that never straggles.
pub fn no_delay() -> DelayFn {
    Arc::new(|_, _| Duration::ZERO)
}

/// How the master stops collecting codewords each step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitPolicy {
    /// Accept the first `w` codewords of the step (the paper's
    /// `ray.wait(w)`), shrinking `w` automatically when workers die.
    FirstW(usize),
    /// Accept whatever arrives before the deadline, timed from the step's
    /// `Params` broadcast; codewords already queued when collection finds
    /// the deadline passed still count. If nothing arrived by then, keep
    /// waiting for the first codeword so every step progresses.
    Deadline(Duration),
}

/// Everything that can go wrong running the networked protocol.
#[derive(Debug)]
pub enum NetError {
    /// A socket operation failed.
    Io(std::io::Error),
    /// A peer sent a malformed frame.
    Wire(wire::WireError),
    /// A peer sent a well-formed message that violates the protocol state
    /// machine (e.g. a worker id outside the cluster).
    Protocol(String),
    /// The run cannot continue: every worker is dead or unreachable.
    AllWorkersLost,
    /// A step closed having recovered nothing while workers were still
    /// nominally alive — the run degraded below the point of progress.
    /// `bound` is the Theorem 10 recovery guarantee a full collection from
    /// the then-alive workers would have carried.
    Degraded {
        /// The step that recovered nothing.
        step: u64,
        /// Partitions recovered that step (always 0 today).
        recovered: usize,
        /// `recovery_lower_bound(n, c, alive)` at the moment the step closed.
        bound: usize,
    },
    /// The configuration is invalid (e.g. `w` outside `1..=n`).
    InvalidConfig(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Protocol(why) => write!(f, "protocol violation: {why}"),
            NetError::AllWorkersLost => write!(f, "every worker is dead or unreachable"),
            NetError::Degraded {
                step,
                recovered,
                bound,
            } => write!(
                f,
                "step {step} degraded below progress: recovered {recovered} \
                 partitions (alive workers guaranteed {bound})"
            ),
            NetError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<wire::WireError> for NetError {
    fn from(e: wire::WireError) -> Self {
        NetError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_delay_is_zero_everywhere() {
        let d = no_delay();
        assert_eq!(d(0, 0), Duration::ZERO);
        assert_eq!(d(7, 1000), Duration::ZERO);
    }

    #[test]
    fn errors_display() {
        let e = NetError::AllWorkersLost;
        assert!(e.to_string().contains("every worker"));
        let e = NetError::from(wire::WireError::UnknownTag(9));
        assert!(e.to_string().contains("unknown message tag"));
        let e = NetError::InvalidConfig("w too large".into());
        assert!(e.to_string().contains("w too large"));
    }
}
