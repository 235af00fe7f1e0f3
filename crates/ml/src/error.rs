use std::error::Error;
use std::fmt;

/// Error type for model training and prediction.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// The training set was empty.
    EmptyTrainingSet,
    /// A feature row did not match the dataset's declared dimension.
    FeatureDimensionMismatch {
        /// Dimension the dataset/model expects.
        expected: usize,
        /// Dimension that was supplied.
        got: usize,
    },
    /// `predict` was called before `fit`.
    NotFitted,
    /// `Dataset::split` was asked for a training fraction outside `(0, 1)`.
    InvalidSplitFraction(f64),
    /// A numerical routine failed during training.
    Numerical(String),
    /// A feature value was NaN or infinite.
    NonFiniteInput,
    /// `predict_batch` was handed an output slice whose length differs
    /// from the batch row count.
    BatchShapeMismatch {
        /// Rows in the feature batch.
        rows: usize,
        /// Slots in the output slice.
        out: usize,
    },
    /// `partial_fit` was called with an offset that does not continue the
    /// model's fitted prefix (the caller must append, never rewrite).
    IncrementalMismatch {
        /// Rows the model has already been fitted on.
        fitted: usize,
        /// Offset the caller claimed the new rows start at.
        from: usize,
    },
}

impl fmt::Display for MlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlError::EmptyTrainingSet => write!(f, "training set is empty"),
            MlError::FeatureDimensionMismatch { expected, got } => {
                write!(f, "feature dimension mismatch: expected {expected}, got {got}")
            }
            MlError::NotFitted => write!(f, "model has not been fitted"),
            MlError::InvalidSplitFraction(fraction) => {
                write!(f, "training fraction {fraction} is outside (0, 1)")
            }
            MlError::Numerical(what) => write!(f, "numerical failure: {what}"),
            MlError::NonFiniteInput => write!(f, "feature values must be finite"),
            MlError::BatchShapeMismatch { rows, out } => {
                write!(f, "batch shape mismatch: {rows} rows but {out} output slots")
            }
            MlError::IncrementalMismatch { fitted, from } => {
                write!(
                    f,
                    "incremental fit offset {from} does not continue the fitted prefix of {fitted} rows"
                )
            }
        }
    }
}

impl Error for MlError {}

impl From<disar_math::MathError> for MlError {
    fn from(e: disar_math::MathError) -> Self {
        MlError::Numerical(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(MlError::NotFitted.to_string().contains("not been fitted"));
        let e = MlError::FeatureDimensionMismatch { expected: 4, got: 2 };
        assert!(e.to_string().contains("expected 4"));
        let e = MlError::InvalidSplitFraction(1.5);
        assert_eq!(e.to_string(), "training fraction 1.5 is outside (0, 1)");
    }

    #[test]
    fn from_math_error() {
        let e: MlError = disar_math::MathError::Singular.into();
        assert!(matches!(e, MlError::Numerical(_)));
    }
}
