//! Deterministic canonical hashing of experiment inputs.
//!
//! The registry's `input_hash` must satisfy two properties the standard
//! library's `Hash`/`Hasher` pair does not guarantee:
//!
//! 1. **Stability** — the digest is a pure function of the *values*, fixed
//!    across processes, platforms and compiler versions (std's `Hasher`
//!    seeds and layouts are explicitly unstable), so a row recorded today
//!    can be matched byte-for-byte by a replay years later.
//! 2. **Layout independence** — the three knowledge-base layouts hash by
//!    their *global arrival-order record stream*, so a sharded or
//!    tenant-sharded base built from the same runs digests identically to
//!    the monolithic base (the canonical form the bit-identity proofs
//!    already replay).
//!
//! The digest is FNV-1a over a type-tagged byte encoding: every primitive
//! write prepends a one-byte tag and fixed-width little-endian bytes, and
//! every struct field is preceded by its name, so `("ab", "c")` and
//! `("a", "bc")` — or two fields swapping values — cannot collide by
//! concatenation. 64 bits is plenty for a registry that indexes thousands
//! of rows; the point is detecting *changed inputs*, not adversarial
//! collisions.

use disar_cloudsim::Workload;
use disar_core::deploy::DeployPolicy;
use disar_core::drift::{DetectorKind, DriftConfig};
use disar_core::predictor::RetrainMode;
use disar_core::tenant::{TenantId, TransferPolicy};
use disar_core::{
    JobProfile, KnowledgeBase, KnowledgeStore, RunRecord, ShardedKnowledgeBase,
    TenantShardedKnowledgeBase,
};
use disar_engine::EebCharacteristics;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64-bit hasher with type-tagged writes.
#[derive(Debug, Clone)]
pub struct CanonicalHasher {
    state: u64,
}

impl Default for CanonicalHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl CanonicalHasher {
    /// Starts a fresh digest at the FNV offset basis.
    pub fn new() -> Self {
        CanonicalHasher { state: FNV_OFFSET }
    }

    /// Feeds raw bytes (no tag) — the primitive every typed write builds on.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    fn tag(&mut self, t: u8) {
        self.write_bytes(&[t]);
    }

    /// Feeds a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.tag(b's');
        self.write_bytes(&(s.len() as u64).to_le_bytes());
        self.write_bytes(s.as_bytes());
    }

    /// Feeds an unsigned integer (all widths funnel through `u64`).
    pub fn write_u64(&mut self, v: u64) {
        self.tag(b'u');
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` as its `u64` value (layout-independent).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.tag(b'b');
        self.write_bytes(&[u8::from(v)]);
    }

    /// Feeds a float by its exact IEEE-754 bit pattern — bit-identity is
    /// the workspace's currency, so `-0.0 != 0.0` and every NaN payload is
    /// distinct, exactly as the replay contract demands.
    pub fn write_f64(&mut self, v: f64) {
        self.tag(b'f');
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    /// Marks the start of a named struct field, so adjacent fields cannot
    /// collide by concatenation and any field rename changes the digest.
    pub fn field(&mut self, name: &str) {
        self.tag(b'k');
        self.write_bytes(name.as_bytes());
        self.tag(0);
    }

    /// Marks the start of a `len`-element sequence.
    pub fn begin_seq(&mut self, len: usize) {
        self.tag(b'l');
        self.write_bytes(&(len as u64).to_le_bytes());
    }

    /// The 64-bit digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Types with a canonical, construction-order-independent digest.
///
/// Implementations must write **values only** through the typed
/// [`CanonicalHasher`] writes — never pointers, capacities, or iteration
/// orders that depend on how the value was assembled.
pub trait Canonicalize {
    /// Feeds this value's canonical encoding into `h`.
    fn canonicalize(&self, h: &mut CanonicalHasher);

    /// Digests this value alone.
    fn canonical_hash(&self) -> u64 {
        let mut h = CanonicalHasher::new();
        self.canonicalize(&mut h);
        h.finish()
    }
}

impl Canonicalize for u32 {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.write_u64(u64::from(*self));
    }
}

impl Canonicalize for u64 {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.write_u64(*self);
    }
}

impl Canonicalize for usize {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.write_usize(*self);
    }
}

impl Canonicalize for bool {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.write_bool(*self);
    }
}

impl Canonicalize for f64 {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.write_f64(*self);
    }
}

impl Canonicalize for str {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.write_str(self);
    }
}

impl Canonicalize for String {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.write_str(self);
    }
}

impl<T: Canonicalize + ?Sized> Canonicalize for &T {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        (**self).canonicalize(h);
    }
}

impl<T: Canonicalize> Canonicalize for Option<T> {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        match self {
            None => h.tag(b'n'),
            Some(v) => {
                h.tag(b'S');
                v.canonicalize(h);
            }
        }
    }
}

impl<T: Canonicalize> Canonicalize for [T] {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.begin_seq(self.len());
        for item in self {
            item.canonicalize(h);
        }
    }
}

impl<T: Canonicalize> Canonicalize for Vec<T> {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        self.as_slice().canonicalize(h);
    }
}

impl Canonicalize for TenantId {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.write_str(self.as_str());
    }
}

impl Canonicalize for TransferPolicy {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        match self {
            TransferPolicy::Isolated => h.write_str("isolated"),
            TransferPolicy::Pooled => h.write_str("pooled"),
            TransferPolicy::BorrowUntil(n) => {
                h.write_str("borrow-until");
                h.write_usize(*n);
            }
        }
    }
}

impl Canonicalize for EebCharacteristics {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.field("representative_contracts");
        h.write_usize(self.representative_contracts);
        h.field("max_horizon");
        h.write_u64(u64::from(self.max_horizon));
        h.field("fund_assets");
        h.write_usize(self.fund_assets);
        h.field("risk_factors");
        h.write_usize(self.risk_factors);
    }
}

impl Canonicalize for JobProfile {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.field("characteristics");
        self.characteristics.canonicalize(h);
        h.field("n_outer");
        h.write_usize(self.n_outer);
        h.field("n_inner");
        h.write_usize(self.n_inner);
    }
}

impl Canonicalize for Workload {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.field("work_units");
        h.write_f64(self.work_units);
        h.field("memory_gib");
        h.write_f64(self.memory_gib);
        h.field("transfer_mib");
        h.write_f64(self.transfer_mib);
        h.field("serial_fraction");
        h.write_f64(self.serial_fraction);
    }
}

impl Canonicalize for RetrainMode {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        match self {
            RetrainMode::Incremental => h.write_str("incremental"),
            RetrainMode::Full => h.write_str("full"),
            RetrainMode::Windowed { window, decay } => {
                h.write_str("windowed");
                h.write_usize(*window);
                h.write_f64(*decay);
            }
        }
    }
}

impl Canonicalize for DetectorKind {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        match self {
            DetectorKind::Off => h.write_str("off"),
            DetectorKind::PageHinkley => h.write_str("page-hinkley"),
            DetectorKind::Adwin => h.write_str("adwin"),
        }
    }
}

impl Canonicalize for DriftConfig {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.field("detector");
        self.detector.canonicalize(h);
        h.field("threshold");
        h.write_f64(self.threshold);
        h.field("delta");
        h.write_f64(self.delta);
        h.field("window");
        h.write_usize(self.window);
        h.field("decay");
        h.write_f64(self.decay);
    }
}

impl Canonicalize for DeployPolicy {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.field("t_max_secs");
        h.write_f64(self.t_max_secs);
        h.field("epsilon");
        h.write_f64(self.epsilon);
        h.field("max_nodes");
        h.write_usize(self.max_nodes);
        h.field("min_kb_samples");
        h.write_usize(self.min_kb_samples);
        h.field("retrain_every");
        h.write_usize(self.retrain_every);
        h.field("n_threads");
        h.write_usize(self.n_threads);
        h.field("transfer");
        self.transfer.canonicalize(h);
        h.field("retrain_mode");
        self.retrain_mode.canonicalize(h);
        h.field("drift");
        self.drift.canonicalize(h);
    }
}

impl Canonicalize for RunRecord {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        h.field("profile");
        self.profile.canonicalize(h);
        h.field("instance");
        h.write_str(&self.instance);
        h.field("vcpus");
        h.write_u64(u64::from(self.vcpus));
        h.field("per_core_speed");
        h.write_f64(self.per_core_speed);
        h.field("memory_gib");
        h.write_f64(self.memory_gib);
        h.field("n_nodes");
        h.write_usize(self.n_nodes);
        h.field("duration_secs");
        h.write_f64(self.duration_secs);
        h.field("cost");
        h.write_f64(self.cost);
        h.field("tenant");
        self.tenant.canonicalize(h);
    }
}

/// Digests any knowledge-base layout by its global arrival-order record
/// stream — the layout-independent fingerprint the registry stores.
///
/// A [`ShardedKnowledgeBase`] or [`TenantShardedKnowledgeBase`] fed the
/// same runs as a monolithic [`KnowledgeBase`] fingerprints identically,
/// because [`KnowledgeStore::records_in_arrival_order`] replays the exact
/// monolithic stream for every layout.
pub fn knowledge_fingerprint<K: KnowledgeStore + ?Sized>(kb: &K) -> u64 {
    let mut h = CanonicalHasher::new();
    canonicalize_knowledge(kb, &mut h);
    h.finish()
}

fn canonicalize_knowledge<K: KnowledgeStore + ?Sized>(kb: &K, h: &mut CanonicalHasher) {
    h.field("kb_records");
    h.begin_seq(kb.len());
    for r in kb.records_in_arrival_order() {
        r.canonicalize(h);
    }
}

impl Canonicalize for KnowledgeBase {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        canonicalize_knowledge(self, h);
    }
}

impl Canonicalize for ShardedKnowledgeBase {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        canonicalize_knowledge(self, h);
    }
}

impl Canonicalize for TenantShardedKnowledgeBase {
    fn canonicalize(&self, h: &mut CanonicalHasher) {
        canonicalize_knowledge(self, h);
    }
}

/// Renders a digest in the registry's on-disk form (`fnv1a64:<16 hex>`).
pub fn format_hash(hash: u64) -> String {
    format!("fnv1a64:{hash:016x}")
}

/// Parses a digest previously rendered by [`format_hash`].
pub fn parse_hash(s: &str) -> Option<u64> {
    let hex = s.strip_prefix("fnv1a64:")?;
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_reference_vectors() {
        // Standard FNV-1a 64 test vectors over raw bytes.
        let mut h = CanonicalHasher::new();
        h.write_bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = CanonicalHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = CanonicalHasher::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn tagged_strings_do_not_concatenate() {
        let ab_c = ["ab".to_string(), "c".to_string()].as_slice().canonical_hash();
        let a_bc = ["a".to_string(), "bc".to_string()].as_slice().canonical_hash();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn float_hash_is_bitwise() {
        assert_ne!(0.0f64.canonical_hash(), (-0.0f64).canonical_hash());
        assert_eq!(1.5f64.canonical_hash(), 1.5f64.canonical_hash());
        assert_ne!(1.0f64.canonical_hash(), 1u64.canonical_hash());
    }

    #[test]
    fn hash_format_roundtrip() {
        let h = 0x0123_4567_89ab_cdefu64;
        assert_eq!(parse_hash(&format_hash(h)), Some(h));
        assert_eq!(parse_hash("sha256:00"), None);
        assert_eq!(parse_hash("fnv1a64:zz"), None);
    }

    #[test]
    fn option_tags_distinguish_none_from_default() {
        let none: Option<u64> = None;
        let zero: Option<u64> = Some(0);
        assert_ne!(none.canonical_hash(), zero.canonical_hash());
    }
}
