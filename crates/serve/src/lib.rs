//! dim-serve: a persistent multi-tenant acceleration service.
//!
//! The DATE'08 DIM system assumes it owns the machine: one binary, one
//! translator, one reconfiguration cache. Real embedded deployments
//! multiplex — several applications share the CGRA, and the expensive
//! part (binary translation into configurations) is exactly what is
//! worth sharing. This crate turns the one-shot `dim accel` flow into a
//! long-running daemon: clients submit run/accel/explain requests over
//! a Unix socket, a bounded queue feeds the dim-sweep worker pool, and
//! translated configurations outlive the request that produced them in
//! **shared warm shards**, keyed by (workload, scale, shape, slots,
//! speculation). A later request against the same shard starts with the
//! translator's work already done.
//!
//! Sharing translated state across tenants is a trust problem, so every
//! snapshot entering a shard — imported from disk, or offered back by a
//! worker — must pass the structural configuration verifier first
//! ([`dim_core::SnapshotContents::verify`]); a poisoned image is
//! rejected at the boundary and the shard stays clean. Shards drain to
//! ordinary `.dimrc` files on shutdown and warm-start from them on
//! boot, so `dim verify` and `dim accel --load-rcache` interoperate
//! with the daemon's state.
//!
//! Every request records a wall-clock span tree (accept → queue →
//! schedule → execute → simulate) through [`dim_obs::SpanSheet`]; the
//! daemon dumps them to
//! `<status-dir>/spans.dimspan` at drain for `dim spans` to turn into
//! latency waterfalls. All host timing flows through an injectable
//! [`dim_obs::Clock`], so latency behavior is testable with a fake
//! clock and none of it touches the deterministic simulated results.
//!
//! Module map: [`proto`] (wire frames over the shared
//! [`dim_obs::frame`] layout), [`request`] (request-file parsing and
//! validation), [`shard`] (admission, eviction, trust boundary),
//! [`server`] (daemon), [`client`] (one-shot submit), [`selftest`]
//! (in-process load generator behind `dim serve --selftest`).

#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod request;
pub mod selftest;
pub mod server;
pub mod shard;

pub use client::{submit, ClientError};
pub use proto::{Command, Reply, Request};
pub use request::{parse_request, validate_request};
pub use selftest::{run_selftest, SelftestOptions, SelftestReport};
pub use server::{serve, ServeError, ServeOptions, ServeSummary};
pub use shard::{shard_id, AdmitOutcome, Shard, ShardError, ShardManager, ShardStats};
