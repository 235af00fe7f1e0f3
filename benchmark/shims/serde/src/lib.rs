//! Stand-in for `serde`, enough for the workspace to compile offline.
//!
//! `Serialize` and `Deserialize` are implemented for every type and carry no
//! data model: nothing can actually be written or read. Every path that would
//! do so ends in the stand-in `serde_json`, whose calls return a typed
//! "unavailable" error, so a build against these stand-ins never persists
//! anything and says so.

pub use serde_derive::{Deserialize, Serialize};

/// A sink a value would be written to. No stand-in crate constructs one.
pub trait Serializer: Sized {
    type Ok;
    type Error;
    /// The only thing a stand-in serializer can do: report that it cannot.
    fn unavailable(self) -> Result<Self::Ok, Self::Error>;
}

/// A source a value would be read from. No stand-in crate constructs one.
pub trait Deserializer<'de>: Sized {
    type Error;
    fn unavailable(self) -> Self::Error;
}

pub trait Serialize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.unavailable()
    }
}

pub trait Deserialize<'de>: Sized {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Err(deserializer.unavailable())
    }
}

impl<T: ?Sized> Serialize for T {}
impl<'de, T> Deserialize<'de> for T {}

pub mod de {
    pub use crate::{Deserialize, Deserializer};
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T {}
}

pub mod ser {
    pub use crate::{Serialize, Serializer};
}
