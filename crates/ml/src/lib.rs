//! From-scratch machine-learning regressors mirroring the Weka models used by
//! the paper.
//!
//! The paper builds execution-time prediction models with six Weka learners:
//! Multi-Layer Perceptron, Random Tree, Random Forest, IBk (k-nearest
//! neighbours), KStar and Decision Table, and averages their predictions to
//! damp individual-model errors. The Rust ML ecosystem does not offer these
//! as a coherent family, so this crate implements each algorithm directly
//! from its original publication:
//!
//! | Model | Source | Module |
//! |---|---|---|
//! | [`Mlp`] | Rumelhart et al. 1986, Weka `MultilayerPerceptron` defaults | [`mlp`] |
//! | [`RandomTree`] | Breiman 2001 (base learner), Weka `RandomTree` | [`tree`] |
//! | [`RandomForest`] | Breiman 2001 | [`forest`] |
//! | [`IbK`] | Aha, Kibler & Albert 1991 | [`ibk`] |
//! | [`KStar`] | Cleary & Trigg 1995 | [`kstar`] |
//! | [`DecisionTable`] | Kohavi 1995 (best-first feature selection) | [`decision_table`] |
//!
//! All models implement the [`Regressor`] trait, and [`default_family`]
//! builds the six as the paper's set `X`. The averaging of their predictions
//! is Algorithm 1's and lives with it, in `disar-core`'s `PredictorFamily`.
//! A retrain after the training set grew by appending rows goes through
//! [`Regressor::fit_appended`]: [`IbK`], [`KStar`] and [`RandomForest`]
//! extend their fit exactly ([`IncrementalRegressor`]), the [`Mlp`]
//! continues from its last weights, and the rest refit.
//!
//! # Example
//!
//! ```
//! use disar_ml::{Dataset, Regressor, IbK};
//!
//! let mut data = Dataset::new(vec!["x".into()]);
//! for i in 0..20 {
//!     data.push(vec![i as f64], 2.0 * i as f64).unwrap();
//! }
//! let mut knn = IbK::new();
//! knn.fit(&data).unwrap();
//! let y = knn.predict(&[10.0]).unwrap();
//! assert!((y - 20.0).abs() < 2.5);
//! ```

pub mod batch;
pub mod dataset;
pub mod decision_table;
pub mod forest;
pub mod ibk;
pub mod kstar;
pub mod metrics;
pub mod mlp;
pub mod neighbours;
pub mod regressor;
pub mod tree;

mod error;
mod instances;

pub use batch::{FeatureMatrix, PredictScratch};
pub use dataset::{Dataset, Scaler};
pub use decision_table::DecisionTable;
pub use error::MlError;
pub use forest::RandomForest;
pub use ibk::IbK;
pub use kstar::KStar;
pub use mlp::Mlp;
pub use neighbours::NeighbourIndex;
pub use regressor::{default_family, IncrementalRegressor, ModelKind, Regressor};
pub use tree::RandomTree;
