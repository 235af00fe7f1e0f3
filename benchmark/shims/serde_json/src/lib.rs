//! Stand-in for `serde_json`: the signatures the workspace calls, each
//! returning [`Error`] ("unavailable"). Persistence is therefore a typed
//! failure in a benchmark build, never a silent no-op.

use serde::{de::DeserializeOwned, Serialize};
use std::fmt;

/// The only error this stand-in produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    operation: &'static str,
}

impl Error {
    fn unavailable(operation: &'static str) -> Self {
        Error { operation }
    }

    /// True for every error of this stand-in.
    pub fn is_unavailable(&self) -> bool {
        true
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serde_json::{} unavailable: built against the benchmark's std-only stand-in",
            self.operation
        )
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Opaque placeholder for a JSON document.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Value;

pub fn to_string<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error::unavailable("to_string"))
}

pub fn to_string_pretty<T: ?Sized + Serialize>(_value: &T) -> Result<String> {
    Err(Error::unavailable("to_string_pretty"))
}

pub fn to_value<T: Serialize>(_value: T) -> Result<Value> {
    Err(Error::unavailable("to_value"))
}

pub fn from_str<T: DeserializeOwned>(_s: &str) -> Result<T> {
    Err(Error::unavailable("from_str"))
}

pub fn from_value<T: DeserializeOwned>(_value: Value) -> Result<T> {
    Err(Error::unavailable("from_value"))
}
