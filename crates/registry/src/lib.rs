//! Provenance-hashed experiment/bench result registry (DESIGN.md §13).
//!
//! Every result row in the workspace — experiment drivers, hand-rolled
//! bench harnesses — lands in one append-only JSONL file
//! through [`Registry::append`]. A row records
//! `{schema_version, commit_id, input_hash, experiment, params, outputs,
//! wall_ns}` (plus optional non-deterministic `timings`):
//!
//! - [`canonical`]: the [`Canonicalize`] trait and FNV-1a
//!   [`CanonicalHasher`] computing `input_hash` — a stable, type-tagged,
//!   construction-order-independent digest over (policy + seeds + job
//!   list + knowledge-base fingerprint). All three knowledge-base layouts
//!   fingerprint by their arrival-order record stream, so sharding never
//!   changes a hash ([`knowledge_fingerprint`]).
//! - [`store`]: the [`RegistryRow`] schema and [`Registry`] — advisory
//!   file-locked appends, line-numbered loads, and
//!   [`SchemaVersion`](disar_core::SchemaVersion) gating so rows written
//!   by a newer build fail loudly instead of silently misparsing.
//!
//! The replay contract: a row's `outputs` must be a pure function of its
//! recorded inputs, so `disar-bench`'s `runbook` can re-run any
//! experiment row from `params` and assert the recomputed `output_hash`
//! bit-identically. Timing-only rows (`bench:*`) carry their measurements
//! in `timings`, outside the replay contract.

pub mod canonical;
pub mod store;

pub use canonical::{
    format_hash, knowledge_fingerprint, parse_hash, CanonicalHasher, Canonicalize,
};
pub use store::{commit_id, json_hash, Registry, RegistryError, RegistryRow};
