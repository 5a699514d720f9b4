//! The telemetry metadata pipeline.
//!
//! KWO trains exclusively on *performance telemetry metadata* — query
//! history and warehouse events — and, per the paper's security criterion
//! (C6), never sees query text or customer data: "even query texts and
//! usernames ... must be securely hashed". This crate is that boundary:
//!
//! * [`hashing`] — query-text and template hashing (the only representation
//!   that crosses into the learning stack);
//! * [`store`] — time-indexed query history and warehouse events pulled so
//!   far, whole-account or one warehouse's partition: a derived, never
//!   persisted view of the stream (Snowflake's ACCOUNT_USAGE views here);
//! * [`fetcher`] — the periodic metadata pull of Algorithm 1 line 14, which
//!   itself costs a small number of credits (the overhead measured in the
//!   paper's Fig. 6); its cursors and freshness time are all that is journaled;
//! * [`features`] — windowed aggregate features consumed by the smart
//!   models and the cost model's parameter estimators.

#![cfg_attr(not(test), warn(clippy::float_cmp, clippy::float_cmp_const))]

pub mod features;
pub mod fetcher;
pub mod hashing;
pub mod store;

pub use features::{percentile, WindowBuckets, WindowFeatures};
pub use fetcher::{FetchError, FetchStats, TelemetryFetcher};
pub use hashing::{hash_query_template, hash_query_text, strip_literals};
pub use store::TelemetryStore;
