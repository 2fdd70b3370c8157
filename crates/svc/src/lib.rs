#![warn(missing_docs)]

//! The Soteria campaign service: campaigns as jobs over HTTP.
//!
//! A from-scratch HTTP/1.1 stack on [`std::net`] — the workspace's
//! hermetic-build policy means no hyper, no tokio, no serde. The server
//! ([`Server`]) accepts campaign configs as JSON, runs them on a fixed
//! worker pool behind a bounded queue, and serves results and NDJSON
//! traces whose bytes are **identical** to what `soteria campaign
//! --json/--trace` writes for the same seed (both front-ends share
//! `soteria_faultsim::job`).
//!
//! Load is shed, never dropped: a full queue answers `429` with
//! `Retry-After`, oversized requests get `413`, stalled ones `408`, and
//! a drain (`POST /v1/shutdown`) finishes every accepted job before the
//! listener closes.
//!
//! The job server and the [`fleet`] coordinator's control plane are one
//! HTTP plane: both run on the same non-blocking reactor, so a silent or
//! slow client never stalls another request on either.
//!
//! The crate also ships the matching blocking [`client`] and a
//! [`loadgen`] burst generator, both used by the CLI and the
//! integration tests.
//!
//! ```no_run
//! use soteria_svc::{client, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let handle = server.handle();
//! std::thread::spawn(move || server.serve());
//! let health = client::get(addr, "/healthz").unwrap();
//! assert_eq!(health.status, 200);
//! handle.shutdown();
//! ```

pub mod client;
pub mod error;
pub mod fleet;
pub mod http;
pub mod loadgen;
mod nio;
pub mod server;

pub use error::SvcError;
pub use fleet::{register_worker, BlockScheduler, Coordinator, FleetConfig, Lease};
pub use loadgen::{submit_burst, LoadReport, SubmitOutcome};
pub use server::{JobState, Server, ServerConfig, ServerHandle};
