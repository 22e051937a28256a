//! The persistent Ω cache: spills [`CachedOmega`] entries to disk so a
//! restarted (or SIGKILLed) daemon answers repeat configs with zero
//! probe evaluations, bitwise identical to the pre-crash reply.
//!
//! One entry per file, named `omega-<fingerprint:016x>.clso`, where the
//! fingerprint is the [`crate::protocol::MeasureSpec::fingerprint`] FNV
//! fold — which already covers the estimator tag, probe budget, and
//! estimator seed, so exact and estimated Ω entries can never collide
//! on disk any more than they can in memory. The value is the
//! *already-serialized* CLSM image plus the layer-size vector a solve
//! needs, wrapped in a checksummed envelope:
//!
//! ```text
//! magic "CLSO" (4) | version u32 LE | fingerprint u64 LE
//! | param_count u32 LE | param_counts (u64 LE each)
//! | clsm_len u32 LE | clsm bytes | FNV-1a checksum u64 LE
//! ```
//!
//! Commits follow the CLSJ journal's atomic discipline — write
//! `.clso.tmp`, fsync, rename over the final name, fsync the directory
//! — so a crash mid-write leaves at worst a stray `.tmp` that the next
//! open cleans up, never a half-written committed entry. A committed
//! entry that is nevertheless corrupt (bit rot, truncation by the
//! filesystem) is *quarantined* on load: deleted and treated as a miss,
//! so the request re-measures instead of the daemon crashing or serving
//! garbage. Eviction is LRU by on-disk byte budget.

use crate::cache::CachedOmega;
use clado_core::fnv1a;
use clado_core::sensitivities_from_bytes;
use clado_telemetry::{faultpoint, Telemetry};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const MAGIC: [u8; 4] = *b"CLSO";
const VERSION: u32 = 1;

/// The on-disk Ω spill store. All methods serialize on an internal
/// mutex: entries are small (a CLSM image) and stores are rare (one per
/// cache miss), so contention is not a concern.
pub struct DiskCache {
    dir: PathBuf,
    /// On-disk byte budget across committed entries (0 = unbounded).
    budget: u64,
    telemetry: Telemetry,
    inner: Mutex<Inner>,
}

struct Inner {
    /// Committed entry sizes by fingerprint.
    sizes: HashMap<u64, u64>,
    /// Recency order, most recent last (seeded from mtime at open).
    order: Vec<u64>,
    /// Total committed bytes.
    total: u64,
}

impl DiskCache {
    /// Opens (creating if needed) the store under `dir`, cleaning stray
    /// `.tmp` files from interrupted commits and indexing every
    /// committed entry by its filename fingerprint. Entry *contents*
    /// are validated lazily on [`Self::load`], so a corrupt file costs
    /// nothing until the config it claims to hold is requested.
    pub fn open(dir: &Path, budget: u64, telemetry: Telemetry) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let mut found: Vec<(std::time::SystemTime, u64, u64)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                let _ = fs::remove_file(&path);
                continue;
            }
            let Some(key) = fingerprint_of(&path) else {
                continue;
            };
            let meta = entry.metadata()?;
            let mtime = meta.modified().unwrap_or(std::time::SystemTime::UNIX_EPOCH);
            found.push((mtime, key, meta.len()));
        }
        // Oldest first, fingerprint as a deterministic tiebreak.
        found.sort_by_key(|&(mtime, key, _)| (mtime, key));
        let mut inner = Inner {
            sizes: HashMap::new(),
            order: Vec::new(),
            total: 0,
        };
        for (_, key, len) in found {
            inner.sizes.insert(key, len);
            inner.order.push(key);
            inner.total += len;
        }
        telemetry.set_gauge("serve.disk_cache.bytes", inner.total as f64);
        Ok(Self {
            dir: dir.to_path_buf(),
            budget,
            telemetry,
            inner: Mutex::new(inner),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of committed entries.
    pub fn len(&self) -> usize {
        self.lock().sizes.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total committed bytes on disk.
    pub fn bytes(&self) -> u64 {
        self.lock().total
    }

    /// Committed fingerprints, most recently used first — the warm-load
    /// order, so a bounded in-memory cache fills with the entries most
    /// likely to be asked for again.
    pub fn keys_most_recent_first(&self) -> Vec<u64> {
        let g = self.lock();
        g.order.iter().rev().copied().collect()
    }

    /// Loads and validates one entry, refreshing its recency. Any
    /// defect — bad magic, version, fingerprint mismatch, checksum
    /// failure, undecodable CLSM image — quarantines the file (delete,
    /// count, return a miss) rather than failing the request or the
    /// daemon.
    pub fn load(&self, key: u64) -> Option<CachedOmega> {
        let mut g = self.lock();
        if !g.sizes.contains_key(&key) {
            return None;
        }
        let path = self.path_of(key);
        match fs::read(&path).ok().and_then(|data| decode(key, &data)) {
            Some(entry) => {
                g.order.retain(|&k| k != key);
                g.order.push(key);
                self.telemetry.counter("serve.disk_cache.hits").incr();
                Some(entry)
            }
            None => {
                self.quarantine(&mut g, key, &path);
                None
            }
        }
    }

    /// Like [`Self::load`] but *without* refreshing recency or counting
    /// a hit — the warm-load path at daemon startup, which walks entries
    /// oldest-to-newest and must not invert the on-disk LRU order (or
    /// report startup reads as client cache hits). Corrupt entries are
    /// still quarantined.
    pub fn peek(&self, key: u64) -> Option<CachedOmega> {
        let mut g = self.lock();
        if !g.sizes.contains_key(&key) {
            return None;
        }
        let path = self.path_of(key);
        match fs::read(&path).ok().and_then(|data| decode(key, &data)) {
            Some(entry) => Some(entry),
            None => {
                self.quarantine(&mut g, key, &path);
                None
            }
        }
    }

    /// Deletes a defective entry and debits its accounting.
    fn quarantine(&self, g: &mut Inner, key: u64, path: &Path) {
        let _ = fs::remove_file(path);
        if let Some(len) = g.sizes.remove(&key) {
            g.total -= len;
        }
        g.order.retain(|&k| k != key);
        self.telemetry
            .counter("serve.disk_cache.quarantined")
            .incr();
        self.telemetry
            .set_gauge("serve.disk_cache.bytes", g.total as f64);
    }

    /// Commits one entry atomically (tmp → fsync → rename → fsync dir),
    /// then evicts least-recently-used entries while the byte budget is
    /// exceeded. The entry just written is never its own victim.
    pub fn store(&self, key: u64, entry: &CachedOmega) -> io::Result<()> {
        let data = encode(key, entry);
        let mut g = self.lock();
        let path = self.path_of(key);
        let tmp = path.with_extension("clso.tmp");
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&data)?;
            file.sync_all()?;
        }
        // An `abort` armed here leaves only the fsynced tmp file behind
        // — the partial-write crash the open path must shrug off.
        faultpoint!("serve.diskcache.commit");
        fs::rename(&tmp, &path)?;
        if let Ok(d) = fs::File::open(&self.dir) {
            d.sync_all().ok();
        }
        if let Some(old) = g.sizes.remove(&key) {
            g.total -= old;
        }
        g.order.retain(|&k| k != key);
        g.sizes.insert(key, data.len() as u64);
        g.order.push(key);
        g.total += data.len() as u64;
        while self.budget > 0 && g.total > self.budget && g.order.len() > 1 {
            let victim = g.order.remove(0);
            if let Some(len) = g.sizes.remove(&victim) {
                g.total -= len;
            }
            let _ = fs::remove_file(self.path_of(victim));
            self.telemetry.counter("serve.disk_cache.evictions").incr();
        }
        self.telemetry
            .set_gauge("serve.disk_cache.bytes", g.total as f64);
        Ok(())
    }

    fn path_of(&self, key: u64) -> PathBuf {
        self.dir.join(format!("omega-{key:016x}.clso"))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Parses the fingerprint out of an `omega-<16 hex>.clso` filename;
/// foreign files in the cache directory are left alone.
fn fingerprint_of(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    let hex = name.strip_prefix("omega-")?.strip_suffix(".clso")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn encode(key: u64, entry: &CachedOmega) -> Vec<u8> {
    let mut out = Vec::with_capacity(32 + entry.param_counts.len() * 8 + entry.clsm.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&(entry.param_counts.len() as u32).to_le_bytes());
    for &n in &entry.param_counts {
        out.extend_from_slice(&(n as u64).to_le_bytes());
    }
    out.extend_from_slice(&(entry.clsm.len() as u32).to_le_bytes());
    out.extend_from_slice(&entry.clsm);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes and fully validates one entry image; `None` on any defect.
fn decode(key: u64, data: &[u8]) -> Option<CachedOmega> {
    if data.len() < 4 + 4 + 8 + 4 + 4 + 8 {
        return None;
    }
    let (body, sum_bytes) = data.split_at(data.len() - 8);
    let declared = u64::from_le_bytes(sum_bytes.try_into().ok()?);
    if fnv1a(body) != declared {
        return None;
    }
    if body[..4] != MAGIC {
        return None;
    }
    let version = u32::from_le_bytes(body[4..8].try_into().ok()?);
    if version != VERSION {
        return None;
    }
    let fp = u64::from_le_bytes(body[8..16].try_into().ok()?);
    if fp != key {
        return None;
    }
    let count = u32::from_le_bytes(body[16..20].try_into().ok()?) as usize;
    let mut at = 20;
    if body.len() < at + count * 8 + 4 {
        return None;
    }
    let mut param_counts = Vec::with_capacity(count);
    for _ in 0..count {
        let n = u64::from_le_bytes(body[at..at + 8].try_into().ok()?);
        param_counts.push(usize::try_from(n).ok()?);
        at += 8;
    }
    let clsm_len = u32::from_le_bytes(body[at..at + 4].try_into().ok()?) as usize;
    at += 4;
    if body.len() != at + clsm_len {
        return None;
    }
    let clsm = body[at..].to_vec();
    let matrix = sensitivities_from_bytes(&clsm).ok()?;
    Some(CachedOmega {
        matrix,
        clsm,
        param_counts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clado_core::{sensitivities_to_bytes, SensitivityMatrix, SensitivityStats};
    use clado_quant::BitWidthSet;
    use clado_solver::SymMatrix;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "clado-diskcache-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry(dim: usize) -> CachedOmega {
        let mut m = SymMatrix::zeros(dim);
        for u in 0..dim {
            for v in u..dim {
                m.set(u, v, (u * dim + v) as f64 * 0.25 + 1.0);
            }
        }
        let matrix = SensitivityMatrix::from_parts(
            m,
            dim / 2,
            BitWidthSet::new(&[4, 8]),
            0.5,
            SensitivityStats::default(),
        );
        CachedOmega {
            clsm: sensitivities_to_bytes(&matrix),
            matrix,
            param_counts: vec![10; dim / 2],
        }
    }

    #[test]
    fn round_trips_bitwise_across_a_reopen() {
        let dir = temp_dir("roundtrip");
        let cache = DiskCache::open(&dir, 0, Telemetry::disabled()).unwrap();
        let original = entry(4);
        cache.store(0xDEAD_BEEF, &original).unwrap();
        drop(cache);

        // A "restarted daemon": fresh store over the same directory.
        let reopened = DiskCache::open(&dir, 0, Telemetry::disabled()).unwrap();
        assert_eq!(reopened.len(), 1);
        let loaded = reopened.load(0xDEAD_BEEF).expect("entry survives reopen");
        assert_eq!(loaded.clsm, original.clsm, "CLSM image is bitwise intact");
        assert_eq!(loaded.param_counts, original.param_counts);
        assert_eq!(
            loaded.matrix.base_loss.to_bits(),
            original.matrix.base_loss.to_bits()
        );
        assert!(reopened.load(0x1234).is_none(), "unknown keys miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_not_fatal() {
        let dir = temp_dir("corrupt");
        let telemetry = Telemetry::new();
        let cache = DiskCache::open(&dir, 0, telemetry.clone()).unwrap();
        cache.store(7, &entry(4)).unwrap();
        let path = dir.join(format!("omega-{:016x}.clso", 7));
        let mut data = fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        fs::write(&path, &data).unwrap();

        assert!(cache.load(7).is_none(), "corrupt entry reads as a miss");
        assert!(!path.exists(), "the corrupt file is deleted");
        assert_eq!(telemetry.counter_value("serve.disk_cache.quarantined"), 1);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
        // The key is re-storable after quarantine.
        cache.store(7, &entry(4)).unwrap();
        assert!(cache.load(7).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_tmp_files_are_cleaned_and_never_indexed() {
        let dir = temp_dir("tmp");
        fs::create_dir_all(&dir).unwrap();
        // A crash between fsync and rename leaves exactly this.
        fs::write(dir.join("omega-00000000000000aa.clso.tmp"), b"partial").unwrap();
        let cache = DiskCache::open(&dir, 0, Telemetry::disabled()).unwrap();
        assert!(cache.is_empty());
        assert!(!dir.join("omega-00000000000000aa.clso.tmp").exists());
        assert!(cache.load(0xAA).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_budget_evicts_oldest_entries_first() {
        let dir = temp_dir("budget");
        let telemetry = Telemetry::new();
        let one = encode(1, &entry(4)).len() as u64;
        let cache = DiskCache::open(&dir, one * 2 + 1, telemetry.clone()).unwrap();
        cache.store(1, &entry(4)).unwrap();
        cache.store(2, &entry(4)).unwrap();
        // Touch 1 so 2 becomes the eviction victim.
        assert!(cache.load(1).is_some());
        cache.store(3, &entry(4)).unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.bytes() <= one * 2 + 1);
        assert!(cache.load(2).is_none(), "oldest entry evicted");
        assert!(cache.load(1).is_some());
        assert!(cache.load(3).is_some());
        assert_eq!(telemetry.counter_value("serve.disk_cache.evictions"), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_load_order_is_most_recent_first() {
        let dir = temp_dir("order");
        let cache = DiskCache::open(&dir, 0, Telemetry::disabled()).unwrap();
        cache.store(1, &entry(4)).unwrap();
        cache.store(2, &entry(4)).unwrap();
        assert!(cache.load(1).is_some(), "refresh 1");
        assert_eq!(cache.keys_most_recent_first(), vec![1, 2]);
        // Peeking (the warm-load read) must not perturb recency.
        assert!(cache.peek(2).is_some());
        assert_eq!(cache.keys_most_recent_first(), vec![1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_files_in_the_cache_dir_are_left_alone() {
        let dir = temp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("notes.txt"), b"user data").unwrap();
        fs::write(dir.join("omega-short.clso"), b"not 16 hex chars").unwrap();
        let cache = DiskCache::open(&dir, 0, Telemetry::disabled()).unwrap();
        assert!(cache.is_empty());
        assert!(dir.join("notes.txt").exists());
        assert!(dir.join("omega-short.clso").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
