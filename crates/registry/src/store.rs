//! The append-only JSONL result registry.
//!
//! One row per experiment/bench result, one JSON object per line. Rows are
//! immutable once written: producers only ever *append*, concurrent
//! producers serialize through an advisory lock file, and regeneration
//! means appending fresh rows (with a fresh `commit_id`), never rewriting
//! old ones — so the perf trajectory of the repo is the file's history.

use crate::canonical::{format_hash, CanonicalHasher};
use disar_core::SchemaVersion;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One registry row: a result plus everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegistryRow {
    /// Registry row-schema version ([`SchemaVersion::CURRENT`] at write
    /// time; serde-defaulted so pre-version rows load).
    #[serde(default)]
    pub schema_version: SchemaVersion,
    /// `git rev-parse HEAD` of the producing build (see [`commit_id`]).
    pub commit_id: String,
    /// Canonical digest of every input the row's outputs depend on
    /// (policy, seeds, job list, knowledge-base fingerprint), rendered by
    /// [`format_hash`]. Two rows with equal `experiment` + `input_hash`
    /// must have bit-identical `outputs` — the replay contract `runbook`
    /// asserts.
    pub input_hash: String,
    /// Digest of the serialized `outputs`, rendered by [`format_hash`] —
    /// what a replay compares without parsing the outputs themselves.
    pub output_hash: String,
    /// Producer name (an experiment driver or `bench:*` harness).
    pub experiment: String,
    /// The inputs, echoed as JSON so a replay can reconstruct them.
    pub params: serde_json::Value,
    /// The deterministic result payload (covered by `output_hash`).
    pub outputs: serde_json::Value,
    /// Non-deterministic measurements (wall-time breakdowns, speedups).
    /// Excluded from `output_hash`: a replay reproduces `outputs`, never
    /// timings.
    #[serde(default, skip_serializing_if = "serde_json::Value::is_null")]
    pub timings: serde_json::Value,
    /// Wall-clock nanoseconds the producing run took.
    pub wall_ns: u64,
}

/// Digests a JSON value by its compact serialization. `serde_json` maps
/// are sorted (`BTreeMap` keys), so the compact form — and therefore this
/// digest — is deterministic for equal values however they were built.
pub fn json_hash(value: &serde_json::Value) -> u64 {
    let mut h = CanonicalHasher::new();
    h.write_str(&value.to_string());
    h.finish()
}

impl RegistryRow {
    /// Builds a schema-versioned, commit-stamped row. `output_hash` is
    /// derived from `outputs` here so no producer can record a mismatched
    /// pair.
    pub fn new(
        experiment: impl Into<String>,
        input_hash: u64,
        params: serde_json::Value,
        outputs: serde_json::Value,
        wall_ns: u64,
    ) -> Self {
        let output_hash = format_hash(json_hash(&outputs));
        RegistryRow {
            schema_version: SchemaVersion::CURRENT,
            commit_id: commit_id(),
            input_hash: format_hash(input_hash),
            output_hash,
            experiment: experiment.into(),
            params,
            outputs,
            timings: serde_json::Value::Null,
            wall_ns,
        }
    }

    /// Attaches non-deterministic measurements (builder-style).
    pub fn with_timings(mut self, timings: serde_json::Value) -> Self {
        self.timings = timings;
        self
    }

    /// `true` when `replayed_outputs` digests to this row's `output_hash`
    /// — the bit-identity check `runbook` runs.
    pub fn outputs_match(&self, replayed_outputs: &serde_json::Value) -> bool {
        format_hash(json_hash(replayed_outputs)) == self.output_hash
    }
}

/// Errors of the registry layer.
#[derive(Debug)]
pub enum RegistryError {
    /// Reading, creating or appending the registry file failed.
    Io(std::io::Error),
    /// A row failed to (de)serialize.
    Serde(serde_json::Error),
    /// A stored line is not a valid row.
    BadRow {
        /// 1-based line number in the registry file.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// A stored row was written by a newer schema than this build supports.
    UnsupportedSchema {
        /// 1-based line number in the registry file.
        line: usize,
        /// The row's schema version.
        found: u32,
        /// Highest version this build reads.
        supported: u32,
    },
    /// The advisory lock could not be acquired before the deadline.
    LockTimeout {
        /// The lock file that stayed held.
        path: PathBuf,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry io failure: {e}"),
            RegistryError::Serde(e) => write!(f, "registry serialization failure: {e}"),
            RegistryError::BadRow { line, message } => {
                write!(f, "registry line {line} is not a valid row: {message}")
            }
            RegistryError::UnsupportedSchema {
                line,
                found,
                supported,
            } => write!(
                f,
                "registry line {line} has schema version {found} but this build supports <= {supported}"
            ),
            RegistryError::LockTimeout { path } => {
                write!(f, "could not acquire registry lock {}", path.display())
            }
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RegistryError::Io(e) => Some(e),
            RegistryError::Serde(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

impl From<serde_json::Error> for RegistryError {
    fn from(e: serde_json::Error) -> Self {
        RegistryError::Serde(e)
    }
}

/// The producing build's commit id: `DISAR_COMMIT` when set (CI stamps it
/// so detached checkouts stay attributable), else `git rev-parse HEAD`,
/// else `"unknown"` (e.g. a source tarball without `.git`).
pub fn commit_id() -> String {
    if let Ok(c) = std::env::var("DISAR_COMMIT") {
        let c = c.trim().to_string();
        if !c.is_empty() {
            return c;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Held advisory lock: a `<registry>.lock` file created with
/// `create_new`, removed on drop. Purely advisory — it serializes
/// *cooperating* registry writers (concurrent experiment + bench runs),
/// which is exactly the unguarded read-modify-write hazard the old
/// `BENCH_engine.json` appender had.
struct FileLock {
    path: PathBuf,
}

impl FileLock {
    const RETRY: Duration = Duration::from_millis(10);

    /// Locks are held for one buffered write; anything held longer than
    /// this is a crashed holder and gets broken. `DISAR_LOCK_STALE_MS`
    /// overrides the window (tests shrink it to avoid real waits).
    fn stale_window() -> Duration {
        std::env::var("DISAR_LOCK_STALE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .map_or(Duration::from_secs(10), Duration::from_millis)
    }

    fn acquire(path: PathBuf) -> Result<FileLock, RegistryError> {
        let deadline = Instant::now() + Self::stale_window();
        loop {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    // Best-effort holder id for humans inspecting a stuck lock.
                    let _ = write!(f, "{}", std::process::id());
                    return Ok(FileLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if Instant::now() >= deadline {
                        // The holder has been gone for the whole window:
                        // break the stale lock and retry once more.
                        if std::fs::remove_file(&path).is_err() {
                            return Err(RegistryError::LockTimeout { path });
                        }
                    } else {
                        std::thread::sleep(Self::RETRY);
                    }
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

impl Drop for FileLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Handle on one append-only JSONL registry file.
#[derive(Debug, Clone)]
pub struct Registry {
    path: PathBuf,
}

impl Registry {
    /// Opens (lazily — no I/O happens here) the registry at `path`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Registry { path: path.into() }
    }

    /// Resolves the conventional registry location: `$DISAR_REGISTRY` if
    /// set, else `registry.jsonl` under `$DISAR_RESULTS_DIR`, else
    /// `results/registry.jsonl` under `base`.
    pub fn default_under(base: &Path) -> Self {
        if let Ok(p) = std::env::var("DISAR_REGISTRY") {
            if !p.is_empty() {
                return Registry::new(p);
            }
        }
        if let Ok(d) = std::env::var("DISAR_RESULTS_DIR") {
            if !d.is_empty() {
                return Registry::new(PathBuf::from(d).join("registry.jsonl"));
            }
        }
        Registry::new(base.join("results").join("registry.jsonl"))
    }

    /// The registry file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends `rows` atomically with respect to other cooperating
    /// writers: takes the advisory lock, serializes every row up front,
    /// and lands them in one buffered append.
    ///
    /// # Errors
    ///
    /// Propagates I/O and serialization failures; fails with
    /// [`RegistryError::LockTimeout`] when the lock cannot be acquired or
    /// broken.
    pub fn append(&self, rows: &[RegistryRow]) -> Result<(), RegistryError> {
        if rows.is_empty() {
            return Ok(());
        }
        // Serialize before taking the lock: hold it for the write only.
        let mut buf = String::new();
        for row in rows {
            buf.push_str(&serde_json::to_string(row)?);
            buf.push('\n');
        }
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let _lock = FileLock::acquire(self.lock_path())?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(buf.as_bytes())?;
        Ok(())
    }

    /// Loads every row, oldest first. A missing file is an empty registry.
    ///
    /// # Errors
    ///
    /// Fails with [`RegistryError::BadRow`] on an unparsable line and
    /// [`RegistryError::UnsupportedSchema`] on a row from a newer schema.
    pub fn load(&self) -> Result<Vec<RegistryRow>, RegistryError> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e.into()),
        };
        let mut rows = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let row: RegistryRow =
                serde_json::from_str(line).map_err(|e| RegistryError::BadRow {
                    line: i + 1,
                    message: e.to_string(),
                })?;
            if !row.schema_version.is_supported() {
                return Err(RegistryError::UnsupportedSchema {
                    line: i + 1,
                    found: row.schema_version.0,
                    supported: SchemaVersion::CURRENT.0,
                });
            }
            rows.push(row);
        }
        Ok(rows)
    }

    fn lock_path(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(".lock");
        PathBuf::from(os)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_registry(name: &str) -> Registry {
        let dir = std::env::temp_dir().join("disar-registry-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Registry::new(path)
    }

    fn row(experiment: &str, x: u64) -> RegistryRow {
        RegistryRow::new(
            experiment,
            x,
            serde_json::json!({ "x": x }),
            serde_json::json!({ "y": x * 2 }),
            123,
        )
    }

    #[test]
    fn append_then_load_roundtrips() {
        let reg = temp_registry("roundtrip");
        let rows = vec![row("a", 1), row("b", 2)];
        reg.append(&rows).unwrap();
        reg.append(&[row("c", 3)]).unwrap();
        let loaded = reg.load().unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[..2], rows[..]);
        assert_eq!(loaded[2].experiment, "c");
        std::fs::remove_file(reg.path()).ok();
    }

    #[test]
    fn missing_file_is_empty() {
        let reg = temp_registry("missing");
        assert!(reg.load().unwrap().is_empty());
    }

    #[test]
    fn empty_append_touches_nothing() {
        let reg = temp_registry("noop");
        reg.append(&[]).unwrap();
        assert!(!reg.path().exists());
    }

    #[test]
    fn bad_line_reports_its_number() {
        let reg = temp_registry("badrow");
        reg.append(&[row("a", 1)]).unwrap();
        let mut text = std::fs::read_to_string(reg.path()).unwrap();
        text.push_str("{ not json\n");
        std::fs::write(reg.path(), text).unwrap();
        match reg.load() {
            Err(RegistryError::BadRow { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected BadRow, got {other:?}"),
        }
        std::fs::remove_file(reg.path()).ok();
    }

    #[test]
    fn newer_schema_is_rejected_on_load() {
        let reg = temp_registry("newschema");
        let mut r = row("a", 1);
        r.schema_version = SchemaVersion(SchemaVersion::CURRENT.0 + 1);
        std::fs::write(
            reg.path(),
            serde_json::to_string(&r).unwrap() + "\n",
        )
        .unwrap();
        assert!(matches!(
            reg.load(),
            Err(RegistryError::UnsupportedSchema { line: 1, .. })
        ));
        std::fs::remove_file(reg.path()).ok();
    }

    #[test]
    fn pre_version_row_loads_with_default_schema() {
        let reg = temp_registry("preversion");
        let mut v = serde_json::to_value(row("a", 1)).unwrap();
        v.as_object_mut().unwrap().remove("schema_version").unwrap();
        std::fs::write(reg.path(), v.to_string() + "\n").unwrap();
        let loaded = reg.load().unwrap();
        assert_eq!(loaded[0].schema_version, SchemaVersion::CURRENT);
        std::fs::remove_file(reg.path()).ok();
    }

    #[test]
    fn output_hash_is_derived_and_checked() {
        let r = row("a", 7);
        assert!(r.outputs_match(&serde_json::json!({ "y": 14 })));
        assert!(!r.outputs_match(&serde_json::json!({ "y": 15 })));
        // Map key order does not change the digest.
        let a = serde_json::json!({ "p": 1, "q": 2 });
        let mut b = serde_json::Map::new();
        b.insert("q".into(), 2.into());
        b.insert("p".into(), 1.into());
        assert_eq!(json_hash(&a), json_hash(&serde_json::Value::Object(b)));
    }

    #[test]
    fn timings_are_outside_the_output_hash() {
        let plain = row("a", 7);
        let timed = plain.clone().with_timings(serde_json::json!({ "ns": 1 }));
        assert_eq!(plain.output_hash, timed.output_hash);
        assert_ne!(plain, timed);
    }

    #[test]
    fn stale_lock_is_broken() {
        let reg = temp_registry("stalelock");
        let lock = {
            let mut os = reg.path().as_os_str().to_os_string();
            os.push(".lock");
            PathBuf::from(os)
        };
        std::fs::write(&lock, "dead-holder").unwrap();
        // Acquisition waits out the (test-shrunk) stale window, then
        // breaks the lock.
        std::env::set_var("DISAR_LOCK_STALE_MS", "100");
        let appended = reg.append(&[row("a", 1)]);
        std::env::remove_var("DISAR_LOCK_STALE_MS");
        appended.unwrap();
        assert_eq!(reg.load().unwrap().len(), 1);
        assert!(!lock.exists(), "lock released after append");
        std::fs::remove_file(reg.path()).ok();
    }

    #[test]
    fn commit_id_is_nonempty() {
        assert!(!commit_id().is_empty());
        std::env::set_var("DISAR_COMMIT", "testcommit");
        assert_eq!(commit_id(), "testcommit");
        std::env::remove_var("DISAR_COMMIT");
    }
}
