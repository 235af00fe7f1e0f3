//! Provenance-hashed experiment result registry (DESIGN.md §13).
//!
//! Every result row in the workspace lands in one append-only JSONL file
//! through [`Registry::append`]. A row records
//! `{schema_version, commit_id, input_hash, output_hash, experiment, params,
//! outputs, wall_ns}` (plus optional non-deterministic `timings`).
//!
//! Both digests are one function, [`json_hash`]: FNV-1a over the compact
//! JSON text, rendered by [`format_hash`]. `output_hash` digests `outputs`;
//! `input_hash` digests the object of inputs the producer hands in (for an
//! experiment driver: its name, `params`, job list and knowledge-base
//! records). [`store`] holds the [`RegistryRow`] schema and [`Registry`]:
//! advisory file-locked appends, line-numbered loads, and
//! [`SchemaVersion`](disar_core::SchemaVersion) gating so rows written by a
//! newer build fail loudly instead of silently misparsing.
//!
//! The replay contract: a row's `outputs` must be a pure function of its
//! recorded inputs, so `disar-bench`'s `runbook` can re-run any
//! experiment row from `params` and assert the recomputed digests
//! bit-identically. Rows of any other producer are skipped.

pub mod store;

pub use store::{commit_id, format_hash, json_hash, Registry, RegistryError, RegistryRow};
