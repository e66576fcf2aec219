//! # lss-runtime — a real threaded master–worker runtime
//!
//! The paper's implementation ran on mpich 1.2.0 over a Sun cluster.
//! This crate reproduces that *software architecture* with native
//! threads and message passing, so every scheme is exercised by real
//! concurrent execution (not only by the simulator):
//!
//! - [`protocol`] — the wire messages: requests that **piggy-back the
//!   previous chunk's results** (§5's key optimization) and carry the
//!   worker's current run-queue length; replies that carry an iteration
//!   interval or a terminate notice.
//! - [`transport`] — message transports: in-process std-mpsc
//!   [`transport::channels`] (the default; "MPI bindings thin,
//!   channels/tcp workable") and localhost TCP with length-prefixed
//!   frames, demonstrating the same protocol across a real socket
//!   (workers dial with [`transport::tcp::TcpWorker`]; the master's
//!   side, [`transport::evented`], is polled by the master loop's own
//!   thread). Both
//!   support timed receives, piggy-backed heartbeats and
//!   worker-initiated reconnection.
//! - [`worker`] / [`master`] — the two loop roles, directly mirroring
//!   the paper's slave/master algorithms (§3.1): the worker with chaos
//!   injection driven by [`lss_core::FaultPlan`], and the self-healing
//!   [`master::run_resilient_master`] loop (chunk leases, speculative
//!   re-execution, first-result-wins dedup), generic over a
//!   [`master::GrantBackend`]: the central [`lss_core::Master`] or a
//!   sharded [`lss_shard::ShardSet`].
//! - [`backoff`] — capped exponential backoff with jitter, shared by
//!   retry pacing and link redialling.
//! - [`load`] — heterogeneity and non-dedication emulation: a worker
//!   with slowdown `s` and run-queue `Q` re-executes each iteration
//!   `s·Q` times (the equal-share model made concrete), plus an
//!   optional *real* background hog running matrix additions.
//! - [`harness`] — one-call end-to-end runs returning the same
//!   [`lss_metrics::RunReport`] the simulator produces.
//! - [`shard`] — the harness on a *sharded* master
//!   ([`lss_shard::ShardSet`]): N work-stealing master shards, or
//!   lock-free worker-side chunk self-calculation, over either
//!   transport, through the same launcher and master loop.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod backoff;
pub mod harness;
pub mod load;
pub mod master;
pub mod protocol;
pub mod shard;
pub mod transport;
pub mod worker;

pub use backoff::BackoffPolicy;
pub use harness::{run_scheduled_loop, HarnessConfig, HarnessOutcome, Transport, WorkerSpec};
pub use load::LoadState;
pub use master::{run_resilient_master, GrantBackend, ResilientOutcome};
pub use shard::{run_sharded_loop, ShardHarnessConfig, ShardHarnessOutcome};
pub use transport::TransportError;
