//! Fleet mode: a dependency-free HTTP/1.1 front end over the shared
//! analysis service.
//!
//! The compositional engine is a warm, persistent service — worker pool,
//! LRU session cache, cross-process [`ModelStore`](dft_core::ModelStore) —
//! but until this crate it could only be driven from Rust code in the same
//! process.  `dftmc-serve` puts it on the wire: a small HTTP/1.1 server
//! built on nothing but `std::net`, so N server processes pointing at one
//! store directory behave as one warm fleet (a model aggregated by any
//! process is a disk read for every other).
//!
//! # Endpoints
//!
//! | Endpoint | Body | Reply |
//! |---|---|---|
//! | `POST /submit` | Galileo tree + measures | `202 {"id", "status"}` |
//! | `POST /sweep` | tree + measures + sweep spec | `202 {"id", "status"}` |
//! | `GET /status/{id}` | — | `{"id", "status"}` |
//! | `GET /result/{id}` | — | the full report, once done |
//! | `GET /metrics` | — | queue/cache/store counters |
//! | `GET /healthz` | — | `{"ok": true}` |
//! | `POST /shutdown` | — | graceful drain, then exit |
//!
//! See [`router`] for the request/response JSON schemas.
//!
//! # Trust boundary
//!
//! Everything that parses network bytes lives in [`http`], [`dft::json`] and
//! [`router`], which are held to the workspace's decode bar (no panics, no
//! indexing, no truncating casts): total, typed-error and size-limited
//! ([`http::HttpLimits`]).  Backpressure is explicit — a bounded connection
//! queue (503 on overflow at accept time), a bounded in-flight job registry
//! (429 once full), and per-connection read/write timeouts — so a slow or
//! hostile client cannot wedge the analysis pool.

pub mod client;
pub mod http;
pub mod metrics;
pub mod registry;
pub mod router;
pub mod server;
