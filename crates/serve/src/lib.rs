//! `wikistale-serve` — a zero-dependency staleness query server.
//!
//! Serves the trained staleness models over HTTP/1.1 on a plain
//! [`std::net::TcpListener`] — no async runtime, no HTTP crate, nothing
//! beyond `std` — answering:
//!
//! * `GET /healthz` — liveness plus the served artifact generation.
//! * `GET /metrics` — the live [`wikistale_obs`] registry (JSON or table).
//! * `GET /v1/stale/{page}?at=YYYY-MM-DD&window=N` — fields on a page
//!   flagged as possibly stale in the window ending at `at`, each with
//!   its provenance from [`wikistale_core::explain()`].
//! * `POST /v1/score` — batch `(entity, property, window)` triples
//!   through the trained predictors and OR/AND ensembles.
//!
//! Layering, bottom to top:
//!
//! * [`artifacts`] — loads binio-v3 artifacts from a checkpoint
//!   directory, CRC-verified through `core::checkpoint`, and trains the
//!   predictors once at startup. Derives the cache **generation**.
//! * [`http`] — minimal, strict HTTP/1.1 request parsing and
//!   deterministic response serialization (no `Date` header: response
//!   bytes are a pure function of request + generation).
//! * [`cache`] — sharded LRU over rendered responses, keyed by
//!   generation so re-trained artifacts invalidate implicitly.
//! * [`routes`] — socket-free request → response dispatch; the unit of
//!   differential testing against the batch pipeline.
//! * [`server`] — the accept loop: bounded admission through
//!   [`wikistale_exec::service::ServicePool`] (sheds 503 +
//!   `Retry-After` when the queue is full), per-request deadlines
//!   (504), graceful drain on shutdown.

pub mod artifacts;
pub mod cache;
pub mod http;
pub mod routes;
pub mod server;
#[cfg(test)]
pub(crate) mod testutil;

pub use artifacts::{ArtifactError, ServeArtifacts};
pub use cache::ResponseCache;
pub use routes::{App, MetricsFormat};
pub use server::{Server, ServerConfig};
