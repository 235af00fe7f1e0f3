//! The append-only JSONL result registry (DESIGN.md §13).
//!
//! One row per result, one JSON object per line:
//! `{schema_version, commit_id, input_hash, output_hash, experiment, params,
//! outputs, wall_ns}` plus optional non-deterministic `timings`. Rows are
//! immutable once written: producers only ever *append* through
//! [`Registry::append`], concurrent producers serialize through an advisory
//! lock file, and regeneration means appending fresh rows (with a fresh
//! `commit_id`), never rewriting old ones. Loads are line-numbered and gated
//! on [`SchemaVersion`], so rows written by a newer build fail loudly.
//!
//! Both digests are one function, [`json_hash`]: FNV-1a over the compact
//! JSON text, rendered by [`format_hash`]. `output_hash` digests `outputs`;
//! `input_hash` digests the object of inputs the producer hands in
//! ([`crate::experiments::input_hash`]), so `runbook` can re-run any
//! experiment row from its `params` and assert both digests bit-identically.
//!
//! Every producer here writes to [`workspace_registry`]:
//! `results/registry.jsonl`, or `$DISAR_REGISTRY` /
//! `$DISAR_RESULTS_DIR/registry.jsonl`.

use disar_core::SchemaVersion;
use disar_math::json::{Json, JsonError};
use std::fmt;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One registry row: a result plus everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryRow {
    /// Registry row-schema version ([`SchemaVersion::CURRENT`] at write
    /// time).
    pub schema_version: SchemaVersion,
    /// `git rev-parse HEAD` of the producing build (see [`commit_id`]).
    pub commit_id: String,
    /// Digest of every input the row's outputs depend on, rendered by
    /// [`format_hash`]: the producer's [`json_hash`] of one object holding
    /// them (for an experiment driver: its name, `params`, job list and
    /// knowledge-base records). Two rows with equal `experiment` + `input_hash`
    /// must have bit-identical `outputs` — the replay contract `runbook`
    /// asserts.
    pub input_hash: String,
    /// Digest of the compact text of `outputs`, rendered by [`format_hash`] —
    /// what a replay compares without parsing the outputs themselves.
    pub output_hash: String,
    /// Producer name: an experiment driver, or a producer `runbook` does not
    /// replay (such as `perf:<workload>`).
    pub experiment: String,
    /// The inputs, echoed as JSON so a replay can reconstruct them.
    pub params: Json,
    /// The deterministic result payload (covered by `output_hash`).
    pub outputs: Json,
    /// Non-deterministic measurements (wall-time breakdowns, speedups).
    /// Excluded from `output_hash`: a replay reproduces `outputs`, never
    /// timings. `null` when there are none, and then left out of the line.
    pub timings: Json,
    /// Wall-clock nanoseconds the producing run took.
    pub wall_ns: u64,
}

/// Digests a JSON value by its compact text: FNV-1a 64 over the byte `s`,
/// the text's length as a little-endian `u64`, then the text. Objects keep
/// their keys sorted, so the compact text — and therefore this digest — is
/// deterministic for equal values however they were built; a float prints
/// as the shortest text that reads back to its bits, so `0.0` and `-0.0`,
/// or `1` and `1.0`, digest apart.
pub fn json_hash(value: &Json) -> u64 {
    let text = value.to_string();
    fnv1a(&[b"s", &(text.len() as u64).to_le_bytes(), text.as_bytes()])
}

/// FNV-1a 64 over `parts` in order: stable across processes, platforms and
/// compiler versions, as std's `Hasher` is not.
fn fnv1a(parts: &[&[u8]]) -> u64 {
    parts
        .iter()
        .copied()
        .flatten()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Renders a digest in the registry's on-disk form (`fnv1a64:<16 hex>`).
pub fn format_hash(hash: u64) -> String {
    format!("fnv1a64:{hash:016x}")
}

impl RegistryRow {
    /// Builds a schema-versioned, commit-stamped row. `output_hash` is
    /// derived from `outputs` here so no producer can record a mismatched
    /// pair.
    pub fn new(
        experiment: impl Into<String>,
        input_hash: u64,
        params: Json,
        outputs: Json,
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
            timings: Json::Null,
            wall_ns,
        }
    }

    /// Attaches non-deterministic measurements (builder-style).
    pub fn with_timings(mut self, timings: Json) -> Self {
        self.timings = timings;
        self
    }

    /// `true` when `replayed_outputs` digests to this row's `output_hash`
    /// — the bit-identity check `runbook` runs.
    pub fn outputs_match(&self, replayed_outputs: &Json) -> bool {
        format_hash(json_hash(replayed_outputs)) == self.output_hash
    }

    /// The row as the object one registry line holds.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("schema_version", self.schema_version.0.into()),
            ("commit_id", self.commit_id.as_str().into()),
            ("input_hash", self.input_hash.as_str().into()),
            ("output_hash", self.output_hash.as_str().into()),
            ("experiment", self.experiment.as_str().into()),
            ("params", self.params.clone()),
            ("outputs", self.outputs.clone()),
            ("wall_ns", self.wall_ns.into()),
        ];
        if self.timings != Json::Null {
            fields.push(("timings", self.timings.clone()));
        }
        Json::obj(fields)
    }

    /// Reads a row back from [`RegistryRow::to_json`]'s object.
    ///
    /// # Errors
    ///
    /// Names the first field that is missing or holds another type.
    pub fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(RegistryRow {
            schema_version: SchemaVersion(json.uint_at("schema_version")?),
            commit_id: json.str_at("commit_id")?.to_string(),
            input_hash: json.str_at("input_hash")?.to_string(),
            output_hash: json.str_at("output_hash")?.to_string(),
            experiment: json.str_at("experiment")?.to_string(),
            params: json.at("params")?.clone(),
            outputs: json.at("outputs")?.clone(),
            timings: json.at("timings").cloned().unwrap_or(Json::Null),
            wall_ns: json.uint_at("wall_ns")?,
        })
    }
}

/// Errors of the registry layer.
#[derive(Debug)]
pub enum RegistryError {
    /// Reading, creating or appending the registry file failed.
    Io(std::io::Error),
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
    /// A stale advisory lock could not be broken.
    LockTimeout {
        /// The lock file that stayed in place.
        path: PathBuf,
    },
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry io failure: {e}"),
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
            _ => None,
        }
    }
}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
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
/// *cooperating* registry writers (concurrent experiment + bench runs), so
/// no two appends interleave.
struct FileLock {
    path: PathBuf,
}

impl FileLock {
    const RETRY: Duration = Duration::from_millis(10);

    /// Locks are held for one buffered write; a lock file last modified
    /// longer ago than this was left by a crashed holder and gets broken.
    const STALE: Duration = Duration::from_secs(10);

    /// `true` when the lock file at `path` is older than [`Self::STALE`]. It
    /// is the file's age that counts, not how long this waiter has waited,
    /// so a live holder's fresh lock is always waited for.
    fn is_stale(path: &Path) -> bool {
        std::fs::metadata(path)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age > Self::STALE)
    }

    fn acquire(path: PathBuf) -> Result<FileLock, RegistryError> {
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
                    if !Self::is_stale(&path) {
                        std::thread::sleep(Self::RETRY);
                    } else if let Err(e) = std::fs::remove_file(&path) {
                        // Another waiter breaking it first is no failure.
                        if e.kind() != std::io::ErrorKind::NotFound {
                            return Err(RegistryError::LockTimeout { path });
                        }
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
    /// writers: takes the advisory lock, renders every row up front,
    /// and lands them in one buffered append. When the file's last line
    /// is torn (it does not end in a newline), the rows start on a line of
    /// their own, so the torn line stays the one bad row.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; fails with
    /// [`RegistryError::LockTimeout`] when a stale lock cannot be broken.
    pub fn append(&self, rows: &[RegistryRow]) -> Result<(), RegistryError> {
        if rows.is_empty() {
            return Ok(());
        }
        // Render before taking the lock: hold it for the write only.
        let mut buf = String::new();
        for row in rows {
            buf.push_str(&row.to_json().to_string());
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
            .read(true)
            .append(true)
            .open(&self.path)?;
        if f.metadata()?.len() > 0 {
            let mut last = [0u8];
            f.seek(SeekFrom::End(-1))?;
            f.read_exact(&mut last)?;
            if last[0] != b'\n' {
                buf.insert(0, '\n');
            }
        }
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
            let row = Json::parse(line)
                .and_then(|json| RegistryRow::from_json(&json))
                .map_err(|e| RegistryError::BadRow {
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

/// The workspace root this crate was built from (`CARGO_MANIFEST_DIR`
/// anchored, so producers write the same registry regardless of the cwd
/// they were launched with).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Opens the workspace registry (`results/registry.jsonl` under the repo
/// root unless `$DISAR_REGISTRY` / `$DISAR_RESULTS_DIR` override it).
pub fn workspace_registry() -> Registry {
    Registry::default_under(&workspace_root())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_registry(name: &str) -> Registry {
        let dir = std::env::temp_dir().join("disar-bench-registry-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        Registry::new(path)
    }

    fn row(experiment: &str, x: u64) -> RegistryRow {
        RegistryRow::new(
            experiment,
            x,
            Json::obj([("x", x.into())]),
            Json::obj([("y", (x * 2).into())]),
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
        let good = text.clone();
        text.push_str("{ not json\n");
        std::fs::write(reg.path(), text).unwrap();
        match reg.load() {
            Err(RegistryError::BadRow { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected BadRow, got {other:?}"),
        }
        // A torn append: the last line stops mid-row.
        let torn = good.clone() + &good[..good.len() / 2];
        std::fs::write(reg.path(), torn).unwrap();
        match reg.load() {
            Err(RegistryError::BadRow { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.starts_with("not JSON at byte"), "{message}");
            }
            other => panic!("expected BadRow, got {other:?}"),
        }
        // A whole line that is JSON but not a row names the field it lacks.
        std::fs::write(reg.path(), good + "{\"experiment\": \"a\"}\n").unwrap();
        match reg.load() {
            Err(RegistryError::BadRow { line, message }) => {
                assert_eq!(line, 2);
                assert_eq!(message, "no field `schema_version`");
            }
            other => panic!("expected BadRow, got {other:?}"),
        }
        std::fs::remove_file(reg.path()).ok();
    }

    #[test]
    fn append_after_a_torn_line_starts_a_new_line() {
        // A writer died mid-row: the file ends without a newline.
        let reg = temp_registry("tornappend");
        std::fs::write(reg.path(), r#"{"schema_version":1,"comm"#).unwrap();
        let r = row("a", 1);
        reg.append(std::slice::from_ref(&r)).unwrap();
        let text = std::fs::read_to_string(reg.path()).unwrap();
        let last = text.lines().last().unwrap();
        assert_eq!(
            RegistryRow::from_json(&Json::parse(last).unwrap()).unwrap(),
            r
        );
        assert!(matches!(
            reg.load(),
            Err(RegistryError::BadRow { line: 1, .. })
        ));
        std::fs::remove_file(reg.path()).ok();
    }

    #[test]
    fn newer_schema_is_rejected_on_load() {
        let reg = temp_registry("newschema");
        let mut r = row("a", 1);
        r.schema_version = SchemaVersion(SchemaVersion::CURRENT.0 + 1);
        std::fs::write(reg.path(), r.to_json().to_string() + "\n").unwrap();
        assert!(matches!(
            reg.load(),
            Err(RegistryError::UnsupportedSchema { line: 1, .. })
        ));
        std::fs::remove_file(reg.path()).ok();
    }

    #[test]
    fn output_hash_is_derived_and_checked() {
        let r = row("a", 7);
        assert!(r.outputs_match(&Json::obj([("y", 14u64.into())])));
        assert!(!r.outputs_match(&Json::obj([("y", 15u64.into())])));
        // The order the fields were given in does not change the digest.
        let a = Json::obj([("p", 1u64.into()), ("q", 2u64.into())]);
        let b = Json::obj([("q", 2u64.into()), ("p", 1u64.into())]);
        assert_eq!(json_hash(&a), json_hash(&b));
        // Floats digest by their bits: the sign of zero counts, and an
        // integer is not the float of the same value.
        assert_ne!(json_hash(&Json::Num(0.0)), json_hash(&Json::Num(-0.0)));
        assert_ne!(json_hash(&Json::UInt(1)), json_hash(&Json::Num(1.0)));
        assert_eq!(json_hash(&Json::Num(1.5)), json_hash(&Json::Num(1.5)));
    }

    #[test]
    fn fnv_reference_vectors() {
        // Standard FNV-1a 64 test vectors, however the bytes are split.
        assert_eq!(fnv1a(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(&[b"a"]), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(&[b"foobar"]), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a(&[b"foo", b"", b"bar"]), 0x8594_4171_f739_67e8);
        assert_eq!(
            format_hash(0xaf63_dc4c_8601_ec8c),
            "fnv1a64:af63dc4c8601ec8c"
        );
    }

    #[test]
    fn timings_are_outside_the_output_hash() {
        let plain = row("a", 7);
        let timed = plain.clone().with_timings(Json::obj([("ns", 1u64.into())]));
        assert_eq!(plain.output_hash, timed.output_hash);
        assert_ne!(plain, timed);
    }

    #[test]
    fn stale_lock_is_broken() {
        let reg = temp_registry("stalelock");
        let lock = reg.lock_path();
        std::fs::write(&lock, "dead-holder").unwrap();
        // A holder that crashed a minute ago: its lock file is that old.
        let a_minute_ago = std::time::SystemTime::now() - Duration::from_secs(60);
        std::fs::File::options()
            .write(true)
            .open(&lock)
            .unwrap()
            .set_modified(a_minute_ago)
            .unwrap();
        reg.append(&[row("a", 1)]).unwrap();
        assert_eq!(reg.load().unwrap().len(), 1);
        assert!(!lock.exists(), "lock released after append");
        std::fs::remove_file(reg.path()).ok();
    }

    #[test]
    fn fresh_lock_is_waited_for_not_broken() {
        let reg = temp_registry("freshlock");
        let lock = reg.lock_path();
        std::fs::write(&lock, "live-holder").unwrap();
        // Taken before the holder starts, so its release (and with it the
        // append, which cannot create the lock before) is 300 ms after it.
        let t0 = std::time::Instant::now();
        let holder = {
            let lock = lock.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(300));
                // Still this holder's lock: the waiter did not break it.
                let held = std::fs::read_to_string(&lock).unwrap();
                std::fs::remove_file(&lock).unwrap();
                held
            })
        };
        reg.append(&[row("a", 1)]).unwrap();
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(300), "{waited:?}");
        assert_eq!(holder.join().unwrap(), "live-holder");
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
