use crate::tenant::TenantId;
use std::error::Error;
use std::fmt;

/// Error type for the provisioning layer.
#[derive(Debug)]
pub enum CoreError {
    /// A parameter was outside its valid domain.
    InvalidParameter(&'static str),
    /// The knowledge base has too few samples to train on.
    InsufficientKnowledge {
        /// Samples currently available.
        have: usize,
        /// Samples required.
        need: usize,
    },
    /// No configuration satisfies the `T_max` constraint.
    NoFeasibleConfiguration {
        /// The deadline that could not be met (seconds).
        t_max: f64,
        /// The best (smallest) predicted time among the configurations not
        /// rejected for a non-positive prediction (infinity when all were).
        best_predicted: f64,
    },
    /// An ML model failed to train or predict.
    Ml(disar_ml::MlError),
    /// The cloud rejected a request.
    Cloud(disar_cloudsim::CloudError),
    /// The DISAR engine failed.
    Engine(disar_engine::EngineError),
    /// A bounded submission queue is full; the caller should retry after
    /// in-flight work drains instead of queueing without bound.
    Backpressure {
        /// The queue's capacity (jobs it can hold while the worker drains).
        capacity: usize,
    },
    /// The deploy service's thread is gone (it panicked, or the service
    /// was joined) while a handle still used it.
    ServiceStopped(&'static str),
    /// A landed run fired a retrain its shard could not make. The run's
    /// record stays in the base.
    ShardRetrainFailed {
        /// Instance type of the shard (empty for the monolithic layout's
        /// whole base).
        instance: String,
        /// Tenant the deployer attributed the run to.
        tenant: TenantId,
        /// What the retrain returned.
        cause: Box<CoreError>,
    },
    /// A persisted artifact (knowledge base, registry row) was written by
    /// a newer schema than this build supports.
    UnsupportedSchema {
        /// The version stamped on the artifact.
        found: u32,
        /// The newest version this build can read.
        supported: u32,
    },
    /// Persistence I/O failed.
    Io(std::io::Error),
    /// A persisted artifact is not JSON, or not the JSON its reader needs.
    Json(disar_math::json::JsonError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            CoreError::InsufficientKnowledge { have, need } => write!(
                f,
                "knowledge base has {have} samples but {need} are required"
            ),
            CoreError::NoFeasibleConfiguration { t_max, best_predicted } => write!(
                f,
                "no configuration meets T_max = {t_max}s (best predicted {best_predicted}s)"
            ),
            CoreError::Ml(e) => write!(f, "ml failure: {e}"),
            CoreError::Cloud(e) => write!(f, "cloud failure: {e}"),
            CoreError::Engine(e) => write!(f, "engine failure: {e}"),
            CoreError::Backpressure { capacity } => {
                write!(f, "submission queue is full ({capacity} jobs)")
            }
            CoreError::ServiceStopped(what) => write!(f, "deploy service stopped: {what}"),
            CoreError::ShardRetrainFailed {
                instance,
                tenant,
                cause,
            } => write!(f, "retrain of shard ({instance}, {tenant}) failed: {cause}"),
            CoreError::UnsupportedSchema { found, supported } => write!(
                f,
                "artifact schema version {found} is newer than the supported {supported}"
            ),
            CoreError::Io(e) => write!(f, "io failure: {e}"),
            CoreError::Json(e) => write!(f, "malformed artifact: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Ml(e) => Some(e),
            CoreError::Cloud(e) => Some(e),
            CoreError::Engine(e) => Some(e),
            CoreError::Io(e) => Some(e),
            CoreError::Json(e) => Some(e),
            CoreError::ShardRetrainFailed { cause, .. } => Some(cause.as_ref()),
            _ => None,
        }
    }
}

impl From<disar_ml::MlError> for CoreError {
    fn from(e: disar_ml::MlError) -> Self {
        CoreError::Ml(e)
    }
}

impl From<disar_cloudsim::CloudError> for CoreError {
    fn from(e: disar_cloudsim::CloudError) -> Self {
        CoreError::Cloud(e)
    }
}

impl From<disar_engine::EngineError> for CoreError {
    fn from(e: disar_engine::EngineError) -> Self {
        CoreError::Engine(e)
    }
}

impl From<std::io::Error> for CoreError {
    fn from(e: std::io::Error) -> Self {
        CoreError::Io(e)
    }
}

impl From<disar_math::json::JsonError> for CoreError {
    fn from(e: disar_math::json::JsonError) -> Self {
        CoreError::Json(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::NoFeasibleConfiguration {
            t_max: 100.0,
            best_predicted: 250.0,
        };
        assert!(e.to_string().contains("100"));
        assert!(e.source().is_none());
        let e: CoreError = disar_ml::MlError::NotFitted.into();
        assert!(e.source().is_some());
    }
}
