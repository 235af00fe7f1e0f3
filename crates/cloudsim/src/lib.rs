//! A cloud simulator standing in for Amazon EC2 + StarCluster.
//!
//! The paper's experiments ran 1 500 DISAR simulations on six EC2 instance
//! types. Re-running them against real EC2 is neither reproducible nor free,
//! so this crate simulates the cloud at the level of abstraction the
//! provisioning problem actually sees:
//!
//! - [`instances`]: the six instance types of §IV with their vCPU/RAM
//!   capabilities and 2016-era on-demand prices, in an extensible catalog;
//! - [`workload`]: the resource profile of a job (work units, memory
//!   footprint, transferred data, serial fraction) — the *interface* between
//!   DISAR's EEBs and the cloud;
//! - [`perf`]: the **hidden performance model** mapping
//!   `(workload, instance type, node count) → duration`, with per-core
//!   speed differences, Amdahl + MPI scaling losses, memory pressure,
//!   lognormal noise and stragglers. The provisioner never reads this
//!   model; it only observes realized durations, exactly like the paper's
//!   system observes EC2;
//! - [`drift`]: deterministic non-stationarity — hardware generations
//!   that step core speed and prices — keyed by the provider's run index, with [`drift::DriftModel::None`] the bit-identical
//!   stationary default;
//! - [`comm`]: the scatter/gather communication model;
//! - [`billing`]: per-hour (EC2 2016) and prorated billing policies;
//! - [`provider`]: [`provider::CloudProvider`], the StarCluster-like
//!   façade: `run_job(instance, n, workload) → JobReport` with realized
//!   duration, cost and per-node idle time. A run's phases (boot, scatter,
//!   compute on every node, serial aggregation, gather) come in the fixed
//!   order of §III, so a run is a sum of phase lengths and one max over the
//!   nodes; boot latency is drawn per VM inside the provider.
//!
//! # Example
//!
//! ```
//! use disar_cloudsim::instances::InstanceCatalog;
//! use disar_cloudsim::provider::CloudProvider;
//! use disar_cloudsim::workload::Workload;
//!
//! let catalog = InstanceCatalog::paper_catalog();
//! let provider = CloudProvider::new(catalog, 42);
//! let wl = Workload::new(5_000.0, 8.0, 64.0, 0.05).unwrap();
//! let report = provider.run_job("c3.4xlarge", 2, &wl).unwrap();
//! assert!(report.duration_secs > 0.0);
//! ```

pub mod billing;
pub mod comm;
pub mod drift;
pub mod instances;
pub mod perf;
pub mod provider;
pub mod workload;

mod error;

pub use drift::DriftModel;
pub use error::CloudError;
pub use instances::{InstanceCatalog, InstanceType};
pub use provider::{CloudProvider, JobReport, OraclePlan};
pub use workload::Workload;
