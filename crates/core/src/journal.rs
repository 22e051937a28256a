//! Crash-safe work-unit journal for sensitivity measurement.
//!
//! The Ω sweep is the dominant cost of CLADO (`½·|𝔹|I(|𝔹|I+1)` forward
//! evaluations, eq. 13); at production scale a single crash used to
//! discard hours of completed probes. The journal persists every finished
//! probe `(i,m[,j,n]) → loss` so an interrupted run resumes from where it
//! died and reproduces the bitwise-identical matrix.
//!
//! # Format (CLSJ shards)
//!
//! A checkpoint directory holds numbered shard files
//! `journal-NNNNNN.clsj`, each committed *atomically*: records are
//! buffered in memory, written to `journal-NNNNNN.clsj.tmp`, fsynced,
//! renamed over the final name, and the directory is fsynced — so a
//! visible shard is always complete. A crash mid-commit leaves only a
//! `.tmp` file, which loaders ignore and writers clean up.
//!
//! Shard layout (all little-endian):
//!
//! ```text
//! magic "CLSJ" | version u32 | fingerprint u64 | count u32
//! count × { kind u8 | i u32 | m u32 | j u32 | n u32 | loss f64-bits | flags u8 }
//! checksum u64   (FNV-1a over everything before it)
//! ```
//!
//! `fingerprint` binds the journal to one measurement configuration
//! (layer count, bit-width set, scheme, set size, batch size); resuming
//! against a different configuration is a hard error. A shard that fails
//! its checksum, magic, or length checks is *skipped* — its probes are
//! simply re-measured — so a truncated or corrupted journal degrades to
//! extra work, never to a wrong matrix.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use clado_telemetry::faultpoint;

const MAGIC: &[u8; 4] = b"CLSJ";
const VERSION: u32 = 1;
const RECORD_BYTES: usize = 1 + 4 * 4 + 8 + 1;
const HEADER_BYTES: usize = 4 + 4 + 8 + 4;
/// Upper bound on records per shard accepted by the loader (a corrupt
/// count field must not provoke a huge allocation).
const MAX_RECORDS: usize = 1 << 24;

/// Identity of one measured probe — the unit of checkpointed work.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ProbeId {
    /// The unperturbed base loss `L(w)`.
    Base,
    /// Layer-specific probe `L(w + Δw_m⁽ⁱ⁾)` (eq. 12).
    Diag {
        /// Layer index `i`.
        layer: u32,
        /// Bit-width index `m`.
        bit: u32,
    },
    /// Cross-layer probe `L(w + Δw_m⁽ⁱ⁾ + Δw_n⁽ʲ⁾)` (eq. 13).
    Pair {
        /// Outer layer index `i`.
        layer_i: u32,
        /// Outer bit-width index `m`.
        bit_m: u32,
        /// Inner layer index `j`.
        layer_j: u32,
        /// Inner bit-width index `n`.
        bit_n: u32,
    },
}

/// One journal entry: a probe plus its measured loss.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProbeRecord {
    /// Which probe this is.
    pub id: ProbeId,
    /// The measured loss (stored bit-exactly; NaN for quarantined probes).
    pub loss: f64,
    /// Whether the probe was quarantined (non-finite loss).
    pub quarantined: bool,
}

/// Errors produced by the measurement journal.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem failure (the message names the offending path).
    Io(io::Error),
    /// The journal belongs to a different measurement configuration.
    ConfigMismatch {
        /// Fingerprint of the current configuration.
        expected: u64,
        /// Fingerprint stored in the journal.
        found: u64,
    },
    /// The checkpoint directory already holds a journal but `resume`
    /// was not requested.
    NotEmpty {
        /// The checkpoint directory.
        dir: PathBuf,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "journal i/o error: {e}"),
            Self::ConfigMismatch { expected, found } => write!(
                f,
                "journal belongs to a different measurement configuration \
                 (fingerprint {found:#018x}, expected {expected:#018x}); \
                 use a fresh checkpoint directory"
            ),
            Self::NotEmpty { dir } => write!(
                f,
                "checkpoint directory {} already holds a journal; \
                 pass resume (--resume) to continue it or clear the directory",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

fn io_at(path: &Path, e: io::Error) -> JournalError {
    JournalError::Io(io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// 64-bit FNV-1a over raw bytes: the CLSJ checksum and fingerprint, the
/// wire frame checksum, the CLSO checksum and the Ω-cache key.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Hashes a measurement configuration into the journal fingerprint:
/// [`fnv1a`] over the fields' little-endian bytes.
pub fn fingerprint(fields: &[u64]) -> u64 {
    let bytes: Vec<u8> = fields.iter().flat_map(|f| f.to_le_bytes()).collect();
    fnv1a(&bytes)
}

fn encode_record(rec: &ProbeRecord, out: &mut Vec<u8>) {
    let (kind, a, b, c, d) = match rec.id {
        ProbeId::Base => (0u8, 0u32, 0u32, 0u32, 0u32),
        ProbeId::Diag { layer, bit } => (1, layer, bit, 0, 0),
        ProbeId::Pair {
            layer_i,
            bit_m,
            layer_j,
            bit_n,
        } => (2, layer_i, bit_m, layer_j, bit_n),
    };
    out.push(kind);
    for v in [a, b, c, d] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&rec.loss.to_bits().to_le_bytes());
    out.push(u8::from(rec.quarantined));
}

fn decode_record(buf: &[u8]) -> Option<ProbeRecord> {
    let u32_at = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().expect("4 bytes"));
    let id = match buf[0] {
        0 => ProbeId::Base,
        1 => ProbeId::Diag {
            layer: u32_at(1),
            bit: u32_at(5),
        },
        2 => ProbeId::Pair {
            layer_i: u32_at(1),
            bit_m: u32_at(5),
            layer_j: u32_at(9),
            bit_n: u32_at(13),
        },
        _ => return None,
    };
    let loss = f64::from_bits(u64::from_le_bytes(buf[17..25].try_into().expect("8 bytes")));
    Some(ProbeRecord {
        id,
        loss,
        quarantined: buf[25] != 0,
    })
}

/// The probes recovered from a checkpoint directory.
#[derive(Debug, Default)]
pub struct JournalState {
    /// Completed probes, keyed by identity. Losses are bit-exact.
    pub records: HashMap<ProbeId, ProbeRecord>,
    /// Shards that loaded cleanly.
    pub shards: usize,
    /// Shards skipped because of truncation/corruption (their probes are
    /// re-measured).
    pub corrupt_shards: usize,
    /// Next shard sequence number a writer should use.
    pub next_seq: u64,
}

/// Loads every valid shard under `dir`. A missing directory yields an
/// empty state; corrupt or truncated shards are counted and skipped.
///
/// # Errors
///
/// Returns [`JournalError::ConfigMismatch`] if a *valid* shard carries a
/// different fingerprint, or [`JournalError::Io`] on filesystem failures
/// other than a missing directory.
pub fn load_journal(dir: &Path, expected_fingerprint: u64) -> Result<JournalState, JournalError> {
    let mut state = JournalState::default();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(state),
        Err(e) => return Err(io_at(dir, e)),
    };
    let mut shards: Vec<(u64, PathBuf)> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_at(dir, e))?;
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if let Some(seq) = name
            .strip_prefix("journal-")
            .and_then(|s| s.strip_suffix(".clsj"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            state.next_seq = state.next_seq.max(seq + 1);
            shards.push((seq, path));
        }
    }
    shards.sort();
    for (_, path) in shards {
        let mut bytes = Vec::new();
        match fs::File::open(&path).and_then(|mut f| f.read_to_end(&mut bytes)) {
            Ok(_) => {}
            Err(e) => return Err(io_at(&path, e)),
        }
        match parse_shard(&bytes, expected_fingerprint) {
            Ok(records) => {
                state.shards += 1;
                for rec in records {
                    state.records.insert(rec.id, rec);
                }
            }
            Err(ShardDefect::ConfigMismatch { found }) => {
                return Err(JournalError::ConfigMismatch {
                    expected: expected_fingerprint,
                    found,
                });
            }
            Err(_) => state.corrupt_shards += 1,
        }
    }
    Ok(state)
}

enum ShardDefect {
    Corrupt,
    ConfigMismatch { found: u64 },
}

fn parse_shard(bytes: &[u8], expected_fingerprint: u64) -> Result<Vec<ProbeRecord>, ShardDefect> {
    if bytes.len() < HEADER_BYTES + 8 || &bytes[0..4] != MAGIC {
        return Err(ShardDefect::Corrupt);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(ShardDefect::Corrupt);
    }
    let found = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    let count = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")) as usize;
    if count > MAX_RECORDS {
        return Err(ShardDefect::Corrupt);
    }
    let body_end = HEADER_BYTES + count * RECORD_BYTES;
    if bytes.len() != body_end + 8 {
        return Err(ShardDefect::Corrupt);
    }
    let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
    if fnv1a(&bytes[..body_end]) != stored {
        return Err(ShardDefect::Corrupt);
    }
    // Only a checksum-valid shard may veto the fingerprint: a shard whose
    // fingerprint field was itself corrupted fails the checksum above and
    // is skipped instead of aborting the resume.
    if found != expected_fingerprint {
        return Err(ShardDefect::ConfigMismatch { found });
    }
    let mut records = Vec::with_capacity(count);
    for r in 0..count {
        let off = HEADER_BYTES + r * RECORD_BYTES;
        match decode_record(&bytes[off..off + RECORD_BYTES]) {
            Some(rec) => records.push(rec),
            None => return Err(ShardDefect::Corrupt),
        }
    }
    Ok(records)
}

/// Appends probe records to a checkpoint directory in atomically
/// committed shards.
#[derive(Debug)]
pub struct JournalWriter {
    dir: PathBuf,
    fingerprint: u64,
    next_seq: u64,
    pending: Vec<ProbeRecord>,
}

impl JournalWriter {
    /// Opens a writer over `dir` (created if missing), continuing at
    /// `next_seq`. Stray `.tmp` files from interrupted commits are
    /// removed.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] if the directory cannot be created
    /// or scanned.
    pub fn open(dir: &Path, fingerprint: u64, next_seq: u64) -> Result<Self, JournalError> {
        fs::create_dir_all(dir).map_err(|e| io_at(dir, e))?;
        for entry in fs::read_dir(dir).map_err(|e| io_at(dir, e))? {
            let path = entry.map_err(|e| io_at(dir, e))?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                fs::remove_file(&path).map_err(|e| io_at(&path, e))?;
            }
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            fingerprint,
            next_seq,
            pending: Vec::new(),
        })
    }

    /// Buffers one record for the next [`JournalWriter::commit`].
    pub fn append(&mut self, rec: ProbeRecord) {
        self.pending.push(rec);
    }

    /// Number of records buffered but not yet committed.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Atomically commits the buffered records as one shard
    /// (write-tmp → fsync → rename → fsync-dir). A no-op when nothing
    /// is pending.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] on any filesystem failure; the
    /// buffered records are kept so a later commit can retry.
    pub fn commit(&mut self) -> Result<(), JournalError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        // Simulates a hard kill *before* the shard becomes visible: only
        // a .tmp file (ignored by loaders) may be left behind.
        faultpoint!("journal.commit");
        let mut buf = Vec::with_capacity(HEADER_BYTES + self.pending.len() * RECORD_BYTES + 8);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&self.fingerprint.to_le_bytes());
        buf.extend_from_slice(&(self.pending.len() as u32).to_le_bytes());
        for rec in &self.pending {
            encode_record(rec, &mut buf);
        }
        let checksum = fnv1a(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());

        let final_path = self.dir.join(format!("journal-{:06}.clsj", self.next_seq));
        let tmp = final_path.with_extension("clsj.tmp");
        let mut file = fs::File::create(&tmp).map_err(|e| io_at(&tmp, e))?;
        file.write_all(&buf).map_err(|e| io_at(&tmp, e))?;
        file.sync_all().map_err(|e| io_at(&tmp, e))?;
        drop(file);
        fs::rename(&tmp, &final_path).map_err(|e| io_at(&final_path, e))?;
        // The rename itself must be durable before we count the records
        // as checkpointed.
        if let Ok(d) = fs::File::open(&self.dir) {
            d.sync_all().ok();
        }
        // Simulates a hard kill *after* the shard became durable.
        faultpoint!("journal.committed");
        self.next_seq += 1;
        self.pending.clear();
        Ok(())
    }

    /// Appends `records` and commits them as one shard (see
    /// [`JournalWriter::commit`]).
    ///
    /// # Errors
    ///
    /// As [`JournalWriter::commit`].
    pub fn commit_records(&mut self, records: &[ProbeRecord]) -> Result<(), JournalError> {
        self.pending.extend_from_slice(records);
        self.commit()
    }
}

/// Opens a sweep's checkpoint: loads the journal in `dir` under
/// `fingerprint`, refuses a directory that already holds shards unless
/// `resume`, and opens a writer after the last shard. Without a
/// directory there is nothing to load and no writer. The returned
/// records are the probes a resumed sweep skips (none without `resume`).
///
/// # Errors
///
/// [`JournalError::NotEmpty`] for a populated directory without
/// `resume`, and the errors of [`load_journal`] and
/// [`JournalWriter::open`].
pub fn open_checkpoint(
    dir: Option<&Path>,
    fingerprint: u64,
    resume: bool,
) -> Result<(JournalState, Option<JournalWriter>), JournalError> {
    let Some(dir) = dir else {
        return Ok((JournalState::default(), None));
    };
    let state = load_journal(dir, fingerprint)?;
    if !resume && state.shards + state.corrupt_shards > 0 {
        return Err(JournalError::NotEmpty {
            dir: dir.to_path_buf(),
        });
    }
    let writer = JournalWriter::open(dir, fingerprint, state.next_seq)?;
    Ok((state, Some(writer)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("clado-journal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<ProbeRecord> {
        vec![
            ProbeRecord {
                id: ProbeId::Base,
                loss: 0.75,
                quarantined: false,
            },
            ProbeRecord {
                id: ProbeId::Diag { layer: 3, bit: 1 },
                loss: -1.5e-3,
                quarantined: false,
            },
            ProbeRecord {
                id: ProbeId::Pair {
                    layer_i: 0,
                    bit_m: 2,
                    layer_j: 7,
                    bit_n: 0,
                },
                loss: f64::NAN,
                quarantined: true,
            },
        ]
    }

    #[test]
    fn roundtrip_is_bit_exact_across_commits() {
        let dir = temp_dir("roundtrip");
        let fp = fingerprint(&[3, 2, 8, 64]);
        let mut w = JournalWriter::open(&dir, fp, 0).unwrap();
        let records = sample_records();
        w.append(records[0]);
        w.commit().unwrap();
        w.append(records[1]);
        w.append(records[2]);
        w.commit().unwrap();
        // Empty commit is a no-op (no empty shard files).
        w.commit().unwrap();

        let state = load_journal(&dir, fp).unwrap();
        assert_eq!(state.shards, 2);
        assert_eq!(state.corrupt_shards, 0);
        assert_eq!(state.next_seq, 2);
        assert_eq!(state.records.len(), 3);
        for rec in &records {
            let got = state.records[&rec.id];
            assert_eq!(got.loss.to_bits(), rec.loss.to_bits());
            assert_eq!(got.quarantined, rec.quarantined);
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_an_empty_state() {
        let state = load_journal(Path::new("/nonexistent/clado-ckpt"), 1).unwrap();
        assert!(state.records.is_empty());
        assert_eq!(state.next_seq, 0);
    }

    #[test]
    fn corrupt_and_truncated_shards_are_skipped_not_fatal() {
        let dir = temp_dir("corrupt");
        let fp = fingerprint(&[1]);
        let mut w = JournalWriter::open(&dir, fp, 0).unwrap();
        for rec in sample_records() {
            w.append(rec);
            w.commit().unwrap();
        }
        // Shard 0: flip a payload byte (checksum must catch it).
        let p0 = dir.join("journal-000000.clsj");
        let mut b0 = fs::read(&p0).unwrap();
        let mid = HEADER_BYTES + 5;
        b0[mid] ^= 0xFF;
        fs::write(&p0, &b0).unwrap();
        // Shard 1: truncate mid-record.
        let p1 = dir.join("journal-000001.clsj");
        let b1 = fs::read(&p1).unwrap();
        fs::write(&p1, &b1[..b1.len() - 7]).unwrap();
        // A stray .tmp from a crashed commit must be ignored.
        fs::write(dir.join("journal-000009.clsj.tmp"), b"partial").unwrap();

        let state = load_journal(&dir, fp).unwrap();
        assert_eq!(state.shards, 1, "only shard 2 survives");
        assert_eq!(state.corrupt_shards, 2);
        assert_eq!(state.records.len(), 1);
        assert_eq!(state.next_seq, 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_magic_and_version_are_corrupt() {
        let dir = temp_dir("magic");
        let fp = fingerprint(&[2]);
        let mut w = JournalWriter::open(&dir, fp, 0).unwrap();
        w.append(sample_records()[0]);
        w.commit().unwrap();
        let p = dir.join("journal-000000.clsj");
        let good = fs::read(&p).unwrap();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        fs::write(&p, &bad_magic).unwrap();
        assert_eq!(load_journal(&dir, fp).unwrap().corrupt_shards, 1);

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        fs::write(&p, &bad_version).unwrap();
        assert_eq!(load_journal(&dir, fp).unwrap().corrupt_shards, 1);

        fs::write(&p, b"").unwrap();
        assert_eq!(load_journal(&dir, fp).unwrap().corrupt_shards, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_a_hard_error() {
        let dir = temp_dir("fingerprint");
        let mut w = JournalWriter::open(&dir, fingerprint(&[1, 2, 3]), 0).unwrap();
        w.append(sample_records()[0]);
        w.commit().unwrap();
        let err = load_journal(&dir, fingerprint(&[4, 5, 6])).unwrap_err();
        assert!(matches!(err, JournalError::ConfigMismatch { .. }), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writer_open_cleans_stale_tmp_files() {
        let dir = temp_dir("tmpclean");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("journal-000000.clsj.tmp"), b"crashed commit").unwrap();
        let _w = JournalWriter::open(&dir, 1, 0).unwrap();
        assert!(!dir.join("journal-000000.clsj.tmp").exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resumed_writer_does_not_overwrite_existing_shards() {
        let dir = temp_dir("resume-seq");
        let fp = fingerprint(&[9]);
        let mut w = JournalWriter::open(&dir, fp, 0).unwrap();
        w.append(sample_records()[0]);
        w.commit().unwrap();
        let state = load_journal(&dir, fp).unwrap();
        let mut w2 = JournalWriter::open(&dir, fp, state.next_seq).unwrap();
        w2.append(sample_records()[1]);
        w2.commit().unwrap();
        let state = load_journal(&dir, fp).unwrap();
        assert_eq!(state.shards, 2);
        assert_eq!(state.records.len(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_is_order_sensitive() {
        assert_ne!(fingerprint(&[1, 2]), fingerprint(&[2, 1]));
        assert_ne!(fingerprint(&[1]), fingerprint(&[1, 0]));
    }
}
