//! A content-addressed artifact cache for expensive derived tables.
//!
//! Several quantities the experiment suite recomputes on every run are
//! pure functions of small parameter tuples: GF(2) ranks of partition
//! join matrices, Bell-number tables, the round-0 indistinguishability
//! graph. [`ArtifactStore`] memoizes them under a *content-addressed*
//! key — `(artifact kind, parameter string, codec version)` — both in
//! memory and, optionally, as line-oriented JSONL files on disk.
//!
//! Design rules, in order of importance:
//!
//! 1. **A cache failure is never an error.** Unreadable directories,
//!    truncated files, header mismatches, and unparsable payloads all
//!    degrade to recomputation. The store can make a run faster, never
//!    wrong, and never failing.
//! 2. **Keys carry their codec.** Bumping the `codec_version` of an
//!    artifact kind orphans old entries (their header no longer
//!    matches) instead of misparsing them.
//! 3. **No wall-clock anywhere.** Freshness is decided by key identity
//!    alone, never mtimes, so behavior is bit-reproducible. Stale data
//!    is removed by explicit [`invalidate`](ArtifactStore::invalidate).
//! 4. **Writes are atomic.** Values land in `<digest>.tmp` and are
//!    renamed into place, so a crashed writer leaves no half-entry a
//!    later reader could trust (and the header check catches the rest).
//! 5. **Entries carry a payload digest.** The header records an FNV-64
//!    digest of the payload lines, so a disk entry whose bytes changed
//!    after it was written — a flipped digit that still decodes, a
//!    truncated or spliced tail — reads as a miss, never as a
//!    plausible wrong value.

use crate::hash::Fnv64;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// The identity of one cached artifact: what it is, for which
/// parameters, encoded how.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ArtifactKey {
    kind: String,
    params: String,
    codec_version: u32,
}

impl ArtifactKey {
    /// A key from an artifact kind (e.g. `"join-matrix-rank"`), a
    /// parameter string (e.g. `"n=6"`), and the codec version of the
    /// value encoding.
    ///
    /// # Panics
    ///
    /// Panics if `kind` or `params` contain a newline — keys must fit
    /// the single-line disk header.
    pub fn new(kind: &str, params: &str, codec_version: u32) -> Self {
        assert!(
            !kind.contains('\n') && !params.contains('\n'),
            "artifact keys must be single-line"
        );
        ArtifactKey {
            kind: kind.to_string(),
            params: params.to_string(),
            codec_version,
        }
    }

    /// The artifact kind.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The parameter string.
    pub fn params(&self) -> &str {
        &self.params
    }

    /// The codec version.
    pub fn codec_version(&self) -> u32 {
        self.codec_version
    }

    /// The stable 64-bit digest addressing this key on disk.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&self.kind);
        h.write_str(&self.params);
        h.write_str(&self.codec_version.to_string());
        h.finish()
    }

    /// The header line a disk entry holding `payload` starts with.
    /// Echoing the full key (not just its digest) makes digest
    /// collisions and foreign files harmless, and the payload digest
    /// catches changed payload bytes: a mismatched header reads as a
    /// miss.
    fn header_line(&self, payload: &[String]) -> String {
        let mut sum = Fnv64::new();
        for line in payload {
            sum.write_str(line);
        }
        format!(
            "#bcc-artifact kind={} v={} sum={:016x} params={}",
            self.kind,
            self.codec_version,
            sum.finish(),
            self.params
        )
    }

    fn memo_key(&self) -> (String, String, u32) {
        (self.kind.clone(), self.params.clone(), self.codec_version)
    }
}

thread_local! {
    static THREAD_LOOKUPS: Cell<u64> = const { Cell::new(0) };
}

/// Lookups (hits + misses) made on the calling thread so far, across
/// every store. A job reads it before and after its work: the
/// difference counts exactly that job's lookups, however many other
/// runs share the process-wide store at the same time.
pub fn thread_lookups() -> u64 {
    THREAD_LOOKUPS.with(Cell::get)
}

/// A memoizing, optionally disk-backed artifact cache.
///
/// Values are `Vec<String>` — the lines of a JSONL-style payload; the
/// typed encode/decode lives with each artifact front (see the
/// `artifacts` module), keeping the store itself codec-agnostic.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: Option<PathBuf>,
    memo: Mutex<BTreeMap<(String, String, u32), Vec<String>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactStore {
    /// A purely in-memory store (no disk persistence).
    pub fn in_memory() -> Self {
        ArtifactStore {
            dir: None,
            memo: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A store persisting entries under `dir` (created on first
    /// write; creation failure degrades to in-memory behavior).
    pub fn at_dir(dir: impl Into<PathBuf>) -> Self {
        ArtifactStore {
            dir: Some(dir.into()),
            memo: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Cache hits so far (memory or disk).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (entries that had to be computed).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total lookups so far (hits + misses). Unlike the hit/miss
    /// split — which depends on what earlier runs left in a shared
    /// store — the lookup count is a pure function of the work
    /// performed. Deterministic metrics record it per job through
    /// [`thread_lookups`], never as a delta of this process-wide sum.
    pub fn lookups(&self) -> u64 {
        self.hits
            .load(Ordering::Relaxed)
            .saturating_add(self.misses.load(Ordering::Relaxed))
    }

    /// Number of artifacts currently memoized in memory. For a
    /// long-lived owner (the `bcc-serve` daemon) this is the warm-set
    /// size shared across all requests.
    pub fn entries(&self) -> u64 {
        self.lock_memo().len() as u64
    }

    /// Returns the cached value for `key`, computing and storing it on
    /// a miss. The value is the payload's lines, without the header.
    pub fn get_or_compute(
        &self,
        key: &ArtifactKey,
        compute: impl FnOnce() -> Vec<String>,
    ) -> Vec<String> {
        THREAD_LOOKUPS.with(|n| n.set(n.get().saturating_add(1)));
        if let Some(lines) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return lines;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let lines = compute();
        self.insert(key, &lines);
        lines
    }

    /// Drops `key` from memory and disk. The next
    /// [`get_or_compute`](Self::get_or_compute) recomputes.
    pub fn invalidate(&self, key: &ArtifactKey) {
        self.lock_memo().remove(&key.memo_key());
        if let Some(path) = self.entry_path(key) {
            // Removal failure just means the stale file survives until
            // the header/codec check rejects it.
            let _ = fs::remove_file(path);
        }
    }

    fn lock_memo(&self) -> std::sync::MutexGuard<'_, BTreeMap<(String, String, u32), Vec<String>>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn entry_path(&self, key: &ArtifactKey) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("{:016x}.jsonl", key.digest())))
    }

    fn lookup(&self, key: &ArtifactKey) -> Option<Vec<String>> {
        if let Some(lines) = self.lock_memo().get(&key.memo_key()) {
            return Some(lines.clone());
        }
        let path = self.entry_path(key)?;
        let text = fs::read_to_string(path).ok()?;
        let mut lines = text.lines();
        let header = lines.next()?;
        let payload: Vec<String> = lines.map(str::to_string).collect();
        // Corruption, truncation, digest collision, codec drift: all
        // surface as a header mismatch and read as a miss.
        if header != key.header_line(&payload) {
            return None;
        }
        self.lock_memo().insert(key.memo_key(), payload.clone());
        Some(payload)
    }

    fn insert(&self, key: &ArtifactKey, lines: &[String]) {
        self.lock_memo().insert(key.memo_key(), lines.to_vec());
        let Some(path) = self.entry_path(key) else {
            return;
        };
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        // Best-effort persistence: any IO failure leaves the entry
        // memory-only.
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = path.with_extension("tmp");
        let write = || -> std::io::Result<()> {
            let mut f = fs::File::create(&tmp)?;
            writeln!(f, "{}", key.header_line(lines))?;
            for line in lines {
                writeln!(f, "{line}")?;
            }
            f.sync_all()?;
            fs::rename(&tmp, &path)
        };
        if write().is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bcc-engine-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_hit_after_miss() {
        let store = ArtifactStore::in_memory();
        let key = ArtifactKey::new("k", "n=3", 1);
        let v1 = store.get_or_compute(&key, || vec!["42".into()]);
        let v2 = store.get_or_compute(&key, || unreachable!("must hit"));
        assert_eq!(v1, v2);
        assert_eq!((store.hits(), store.misses()), (1, 1));
        assert_eq!(store.lookups(), 2);
        assert_eq!(store.entries(), 1);
    }

    #[test]
    fn thread_lookups_count_only_the_calling_thread() {
        let store = ArtifactStore::in_memory();
        let key = ArtifactKey::new("k", "thread", 1);
        let before = thread_lookups();
        std::thread::scope(|s| {
            s.spawn(|| store.get_or_compute(&key, || vec!["x".into()]));
        });
        assert_eq!(thread_lookups(), before);
        store.get_or_compute(&key, || unreachable!("must hit"));
        store.get_or_compute(&ArtifactKey::new("k", "other", 1), Vec::new);
        assert_eq!(thread_lookups() - before, 2);
        assert_eq!(store.lookups(), 3);
    }

    #[test]
    fn disk_roundtrip_across_store_instances() {
        let dir = scratch_dir("roundtrip");
        let key = ArtifactKey::new("rank", "n=5", 1);
        {
            let store = ArtifactStore::at_dir(&dir);
            store.get_or_compute(&key, || vec!["7".into(), "8".into()]);
        }
        // A fresh store (cold memory) must hit the disk entry.
        let store = ArtifactStore::at_dir(&dir);
        let v = store.get_or_compute(&key, || unreachable!("must hit disk"));
        assert_eq!(v, vec!["7".to_string(), "8".to_string()]);
        assert_eq!((store.hits(), store.misses()), (1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidation_forces_recompute() {
        let dir = scratch_dir("invalidate");
        let store = ArtifactStore::at_dir(&dir);
        let key = ArtifactKey::new("k", "p", 1);
        store.get_or_compute(&key, || vec!["old".into()]);
        store.invalidate(&key);
        let v = store.get_or_compute(&key, || vec!["new".into()]);
        assert_eq!(v, vec!["new".to_string()]);
        assert_eq!(store.misses(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_entry_degrades_to_recompute() {
        let dir = scratch_dir("corrupt");
        let key = ArtifactKey::new("k", "p", 1);
        {
            let store = ArtifactStore::at_dir(&dir);
            store.get_or_compute(&key, || vec!["good".into()]);
        }
        let path = dir.join(format!("{:016x}.jsonl", key.digest()));
        fs::write(&path, "garbage, not a header\n?!\n").unwrap();
        let store = ArtifactStore::at_dir(&dir);
        let v = store.get_or_compute(&key, || vec!["recomputed".into()]);
        assert_eq!(v, vec!["recomputed".to_string()]);
        assert_eq!((store.hits(), store.misses()), (0, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn changed_payload_bytes_read_as_a_miss() {
        let dir = scratch_dir("payload");
        let key = ArtifactKey::new("k", "p", 1);
        {
            let store = ArtifactStore::at_dir(&dir);
            store.get_or_compute(&key, || vec!["15".into()]);
        }
        let path = dir.join(format!("{:016x}.jsonl", key.digest()));
        let text = fs::read_to_string(&path).unwrap();
        // Still a well-formed number, but not the one written.
        fs::write(&path, text.replace("\n15\n", "\n16\n")).unwrap();
        let store = ArtifactStore::at_dir(&dir);
        let v = store.get_or_compute(&key, || vec!["recomputed".into()]);
        assert_eq!(v, vec!["recomputed".to_string()]);
        assert_eq!((store.hits(), store.misses()), (0, 1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn codec_bump_orphans_old_entries() {
        let dir = scratch_dir("codec");
        {
            let store = ArtifactStore::at_dir(&dir);
            store.get_or_compute(&ArtifactKey::new("k", "p", 1), || vec!["v1".into()]);
        }
        let store = ArtifactStore::at_dir(&dir);
        let v = store.get_or_compute(&ArtifactKey::new("k", "p", 2), || vec!["v2".into()]);
        assert_eq!(v, vec!["v2".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let store = ArtifactStore::in_memory();
        let a = store.get_or_compute(&ArtifactKey::new("k", "n=1", 1), || vec!["a".into()]);
        let b = store.get_or_compute(&ArtifactKey::new("k", "n=2", 1), || vec!["b".into()]);
        assert_ne!(a, b);
        assert_eq!(store.misses(), 2);
    }

    #[test]
    #[should_panic(expected = "single-line")]
    fn multiline_keys_rejected() {
        let _ = ArtifactKey::new("k", "a\nb", 1);
    }
}
