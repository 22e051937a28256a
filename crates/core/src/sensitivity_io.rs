//! Sensitivity-matrix serialization.
//!
//! Sensitivity-based MPQ's selling point is that the expensive measurement
//! is *reusable*: when the size constraint changes, only the cheap IQP is
//! re-solved. Persisting Ĝ makes that reuse survive process boundaries —
//! measure once per (model, sensitivity-set), sweep budgets forever.
//!
//! Format: `CLSM` magic, version, `I`, |𝔹|, the bit-widths, base loss,
//! measurement stats, then the `|𝔹|I × |𝔹|I` matrix as little-endian `f64`.
//!
//! The loader validates with a *bounded* header read: the fixed prelude is
//! read first, the dimensions are sanity-capped, and the file's total
//! length is checked against the exact size those dimensions imply —
//! before any payload-sized allocation happens. Truncation at any byte,
//! flipped magic/version bytes, and length mismatches all surface as
//! [`SensitivityIoError::BadFormat`], never as a panic or an OOM.

use crate::sensitivity::{OmegaProvenance, SensitivityMatrix, SensitivityStats};
use clado_quant::BitWidthSet;
use clado_solver::SymMatrix;
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 4] = b"CLSM";
/// Version 4 appends the Ω provenance words (estimator tag, probe budget,
/// estimator seed) after the fault-tolerance counters version 3
/// introduced (resumed, retried, quarantined), which in turn follow the
/// engine counters of version 2 (threads, prefix-cache builds/hits, full
/// evaluations). Older files still load: missing counters are reported as
/// zero (provenance defaults to the exact sweep), except v1's
/// `full_evals` which inherits `evaluations` (v1 measurements always ran
/// the full forward pass).
///
/// The `retried` word is retired: probes are no longer rerun, so the
/// writer stores 0 there and the reader skips it. The layout is
/// unchanged, and older files that recorded retries still load.
const VERSION: u32 = 4;

/// Size of the fixed prelude: magic, version, `I`, |𝔹|.
const PRELUDE_BYTES: usize = 4 + 4 + 4 + 4;
/// Sanity cap on the layer count a file may claim; real models are
/// hundreds of layers, so anything near this is corruption, and the cap
/// keeps a corrupt header from provoking a huge allocation.
const MAX_LAYERS: usize = 1 << 20;

/// Errors produced by sensitivity-matrix (de)serialization.
#[derive(Debug)]
pub enum SensitivityIoError {
    /// Underlying I/O failure (the message names the offending path).
    Io(io::Error),
    /// Not a CLSM file, unsupported version, or truncated payload.
    BadFormat(String),
}

impl fmt::Display for SensitivityIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::BadFormat(m) => write!(f, "bad sensitivity file: {m}"),
        }
    }
}

impl std::error::Error for SensitivityIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SensitivityIoError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

fn io_at(path: &Path, e: io::Error) -> SensitivityIoError {
    SensitivityIoError::Io(io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// Serializes a measured sensitivity matrix to its CLSM (current
/// version) byte image — exactly the bytes [`save_sensitivities`]
/// writes to disk. The serve daemon ships this image over the wire so a
/// client-side save is bitwise identical to a local one.
pub fn sensitivities_to_bytes(sens: &SensitivityMatrix) -> Vec<u8> {
    let mut buf: Vec<u8> = Vec::new();
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(sens.num_layers() as u32).to_le_bytes());
    buf.extend_from_slice(&(sens.bits().len() as u32).to_le_bytes());
    for b in sens.bits().iter() {
        buf.push(b.bits());
    }
    buf.extend_from_slice(&sens.base_loss.to_le_bytes());
    buf.extend_from_slice(&(sens.stats.evaluations as u64).to_le_bytes());
    buf.extend_from_slice(&sens.stats.seconds.to_le_bytes());
    buf.extend_from_slice(&(sens.stats.threads_used as u64).to_le_bytes());
    buf.extend_from_slice(&(sens.stats.prefix_cache_builds as u64).to_le_bytes());
    buf.extend_from_slice(&(sens.stats.prefix_cache_hits as u64).to_le_bytes());
    buf.extend_from_slice(&(sens.stats.full_evals as u64).to_le_bytes());
    buf.extend_from_slice(&(sens.stats.resumed as u64).to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes()); // the retired `retried` word
    buf.extend_from_slice(&(sens.stats.quarantined as u64).to_le_bytes());
    buf.extend_from_slice(&u64::from(sens.stats.provenance.estimator).to_le_bytes());
    buf.extend_from_slice(&sens.stats.provenance.probe_budget.to_le_bytes());
    buf.extend_from_slice(&sens.stats.provenance.seed.to_le_bytes());
    let n = sens.matrix().dim();
    for i in 0..n {
        for j in 0..n {
            buf.extend_from_slice(&sens.matrix().get(i, j).to_le_bytes());
        }
    }
    buf
}

/// Serializes a measured sensitivity matrix to `path`.
///
/// # Errors
///
/// Returns [`SensitivityIoError::Io`] on filesystem failures.
pub fn save_sensitivities(sens: &SensitivityMatrix, path: &Path) -> Result<(), SensitivityIoError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let buf = sensitivities_to_bytes(sens);
    let tmp = path.with_extension("tmp");
    fs::File::create(&tmp)?.write_all(&buf)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Number of trailing `u64` stat counters each format version stores
/// after the (base loss, evaluations, seconds) triple.
fn stat_counters(version: u32) -> u64 {
    match version {
        1 => 0,
        2 => 4,
        3 => 7,
        _ => 10,
    }
}

/// Deserializes a CLSM byte image (any supported version) — the inverse
/// of [`sensitivities_to_bytes`], and the parser behind
/// [`load_sensitivities`].
///
/// The header is validated first and the image's total length is checked
/// against the exact size the dimensions imply before any
/// dimension-sized allocation happens, so a corrupt header cannot
/// provoke an OOM.
///
/// # Errors
///
/// Returns [`SensitivityIoError::BadFormat`] for malformed, truncated,
/// or length-mismatched images.
pub fn sensitivities_from_bytes(bytes: &[u8]) -> Result<SensitivityMatrix, SensitivityIoError> {
    if bytes.len() < PRELUDE_BYTES {
        return Err(SensitivityIoError::BadFormat(
            "truncated file (while reading header prelude)".into(),
        ));
    }
    if &bytes[0..4] != MAGIC {
        return Err(SensitivityIoError::BadFormat("missing CLSM magic".into()));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if !(1..=VERSION).contains(&version) {
        return Err(SensitivityIoError::BadFormat(format!(
            "unsupported version {version}"
        )));
    }
    let num_layers = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let k = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    if num_layers == 0 || k == 0 {
        return Err(SensitivityIoError::BadFormat(
            "degenerate dimensions".into(),
        ));
    }
    if num_layers > MAX_LAYERS || k > u8::MAX as usize {
        return Err(SensitivityIoError::BadFormat(format!(
            "implausible dimensions (I={num_layers}, |B|={k}) — corrupt header"
        )));
    }

    // With the dimensions known, the exact image size is implied; check
    // it *before* allocating. This catches truncation anywhere after the
    // prelude as well as trailing garbage.
    let n = num_layers * k;
    let expected_len = PRELUDE_BYTES as u64
        + k as u64
        + 8 * 3 // base loss, evaluations, seconds
        + 8 * stat_counters(version)
        + 8 * (n as u64) * (n as u64);
    if bytes.len() as u64 != expected_len {
        return Err(SensitivityIoError::BadFormat(format!(
            "file length mismatch: I={num_layers}, |B|={k} (version {version}) implies \
             {expected_len} bytes, found {} — truncated or corrupt",
            bytes.len()
        )));
    }

    let raw_bits = &bytes[PRELUDE_BYTES..PRELUDE_BYTES + k];
    let bits = BitWidthSet::new(raw_bits);
    if bits.len() != k {
        return Err(SensitivityIoError::BadFormat(
            "duplicate bit-widths in file".into(),
        ));
    }

    let stats_raw = &bytes[PRELUDE_BYTES + k..];
    let f64_at = |o: usize| f64::from_le_bytes(stats_raw[o..o + 8].try_into().expect("8 bytes"));
    let u64_at =
        |o: usize| u64::from_le_bytes(stats_raw[o..o + 8].try_into().expect("8 bytes")) as usize;
    let base_loss = f64_at(0);
    let evaluations = u64_at(8);
    let seconds = f64_at(16);
    let (threads_used, prefix_cache_builds, prefix_cache_hits, full_evals) = if version >= 2 {
        (u64_at(24), u64_at(32), u64_at(40), u64_at(48))
    } else {
        (0, 0, 0, evaluations)
    };
    // Offset 64 holds the retired `retried` word.
    let (resumed, quarantined) = if version >= 3 {
        (u64_at(56), u64_at(72))
    } else {
        (0, 0)
    };
    let provenance = if version >= 4 {
        let raw_tag = u64_at(80);
        if raw_tag > u64::from(u8::MAX) as usize {
            return Err(SensitivityIoError::BadFormat(format!(
                "estimator tag {raw_tag} out of range — corrupt stats block"
            )));
        }
        OmegaProvenance {
            estimator: raw_tag as u8,
            probe_budget: u64_at(88) as u64,
            seed: u64_at(96) as u64,
        }
    } else {
        OmegaProvenance::exact()
    };

    let matrix_raw = &stats_raw[8 * (3 + stat_counters(version) as usize)..];
    let mut g = SymMatrix::zeros(n);
    for i in 0..n {
        for j in i..n {
            let o = 8 * (i * n + j);
            g.set(
                i,
                j,
                f64::from_le_bytes(matrix_raw[o..o + 8].try_into().expect("8 bytes")),
            );
        }
    }

    Ok(SensitivityMatrix::from_parts(
        g,
        num_layers,
        bits,
        base_loss,
        SensitivityStats {
            evaluations,
            seconds,
            threads_used,
            prefix_cache_builds,
            prefix_cache_hits,
            full_evals,
            resumed,
            quarantined,
            provenance,
        },
    ))
}

/// Loads a sensitivity matrix saved by [`save_sensitivities`].
///
/// A zero-length or permission-denied file yields a targeted error
/// instead of a generic one; everything else defers to
/// [`sensitivities_from_bytes`].
///
/// # Errors
///
/// Returns [`SensitivityIoError::BadFormat`] for malformed, truncated, or
/// length-mismatched files and [`SensitivityIoError::Io`] (with the path
/// in the message) for filesystem failures such as permission denial.
pub fn load_sensitivities(path: &Path) -> Result<SensitivityMatrix, SensitivityIoError> {
    let mut file = fs::File::open(path).map_err(|e| io_at(path, e))?;
    let file_len = file.metadata().map_err(|e| io_at(path, e))?.len();
    if file_len == 0 {
        return Err(SensitivityIoError::BadFormat(format!(
            "{}: file is empty (zero bytes — not a CLSM file; was the save interrupted?)",
            path.display()
        )));
    }
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes).map_err(|e| io_at(path, e))?;
    sensitivities_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensitivity::{measure_sensitivities, SensitivityOptions};
    use clado_models::{SynthVision, SynthVisionConfig};
    use clado_nn::{Conv2d, GlobalAvgPool, Linear, Network, Sequential};
    use clado_tensor::Conv2dSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("clado-sens-{}-{name}.clsm", std::process::id()))
    }

    fn measured() -> SensitivityMatrix {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Network::new(
            Sequential::new()
                .push(
                    "conv",
                    Conv2d::new(Conv2dSpec::new(3, 4, 3, 1, 1), true, &mut rng),
                )
                .push("relu", clado_nn::Activation::new(clado_nn::ActKind::Relu))
                .push("pool", GlobalAvgPool::new())
                .push("fc", Linear::new(4, 3, &mut rng)),
            3,
        );
        let data = SynthVision::generate(SynthVisionConfig {
            classes: 3,
            img: 8,
            train: 24,
            val: 8,
            seed: 6,
            noise: 0.2,
            label_noise: 0.0,
        });
        let set = data.train.subset(&(0..12).collect::<Vec<_>>());
        measure_sensitivities(
            &mut net,
            &set,
            &BitWidthSet::standard(),
            &SensitivityOptions::default(),
        )
        .expect("measurement succeeds")
    }

    /// A minimal hand-built valid v3 file (1 layer, 1 bit-width).
    fn tiny_v3_bytes() -> Vec<u8> {
        let mut bytes: Vec<u8> = Vec::new();
        bytes.extend_from_slice(b"CLSM");
        bytes.extend_from_slice(&3u32.to_le_bytes()); // version
        bytes.extend_from_slice(&1u32.to_le_bytes()); // I
        bytes.extend_from_slice(&1u32.to_le_bytes()); // |B|
        bytes.push(8u8); // the bit-width
        bytes.extend_from_slice(&0.5f64.to_le_bytes()); // base loss
        bytes.extend_from_slice(&7u64.to_le_bytes()); // evaluations
        bytes.extend_from_slice(&0.25f64.to_le_bytes()); // seconds
        for c in [4u64, 1, 3, 4, 2, 1, 0] {
            // threads, builds, hits, full, resumed, retried, quarantined
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        bytes.extend_from_slice(&1.5f64.to_le_bytes()); // the 1×1 matrix
        bytes
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let sens = measured();
        let path = temp("roundtrip");
        save_sensitivities(&sens, &path).unwrap();
        let loaded = load_sensitivities(&path).unwrap();
        assert_eq!(loaded.num_layers(), sens.num_layers());
        assert_eq!(loaded.bits(), sens.bits());
        assert_eq!(loaded.base_loss, sens.base_loss);
        assert_eq!(loaded.stats.evaluations, sens.stats.evaluations);
        assert_eq!(loaded.stats.threads_used, sens.stats.threads_used);
        assert_eq!(
            loaded.stats.prefix_cache_builds,
            sens.stats.prefix_cache_builds
        );
        assert_eq!(loaded.stats.prefix_cache_hits, sens.stats.prefix_cache_hits);
        assert_eq!(loaded.stats.full_evals, sens.stats.full_evals);
        assert_eq!(loaded.stats.resumed, sens.stats.resumed);
        assert_eq!(loaded.stats.quarantined, sens.stats.quarantined);
        assert_eq!(loaded.stats.provenance, sens.stats.provenance);
        assert!(loaded.stats.provenance.is_exact());
        let retired = PRELUDE_BYTES + sens.bits().len() + 64;
        let bytes = sensitivities_to_bytes(&sens);
        assert_eq!(bytes[retired..retired + 8], [0u8; 8], "retired word");
        let n = sens.matrix().dim();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(loaded.matrix().get(i, j), sens.matrix().get(i, j));
            }
        }
    }

    #[test]
    fn loaded_matrix_produces_identical_assignments() {
        use crate::assign::{assign_bits, AssignOptions};
        use clado_quant::LayerSizes;
        let sens = measured();
        let path = temp("assign");
        save_sensitivities(&sens, &path).unwrap();
        let loaded = load_sensitivities(&path).unwrap();
        let sizes = LayerSizes::new(vec![108, 12]); // conv 4·3·9, fc 3·4
        let budget = sizes.budget_from_avg_bits(4.0);
        let a = assign_bits(&sens, &sizes, budget, &AssignOptions::default()).unwrap();
        let b = assign_bits(&loaded, &sizes, budget, &AssignOptions::default()).unwrap();
        assert_eq!(a.bits, b.bits);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn version1_files_still_load() {
        // A minimal hand-built v1 file: one layer, one bit-width, no
        // engine counters after the seconds field.
        let mut bytes: Vec<u8> = Vec::new();
        bytes.extend_from_slice(b"CLSM");
        bytes.extend_from_slice(&1u32.to_le_bytes()); // version
        bytes.extend_from_slice(&1u32.to_le_bytes()); // I
        bytes.extend_from_slice(&1u32.to_le_bytes()); // |B|
        bytes.push(8u8); // the bit-width
        bytes.extend_from_slice(&0.5f64.to_le_bytes()); // base loss
        bytes.extend_from_slice(&7u64.to_le_bytes()); // evaluations
        bytes.extend_from_slice(&0.25f64.to_le_bytes()); // seconds
        bytes.extend_from_slice(&1.5f64.to_le_bytes()); // the 1×1 matrix
        let path = temp("v1");
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_sensitivities(&path).unwrap();
        assert_eq!(loaded.num_layers(), 1);
        assert_eq!(loaded.base_loss, 0.5);
        assert_eq!(loaded.stats.evaluations, 7);
        assert_eq!(loaded.stats.seconds, 0.25);
        assert_eq!(loaded.stats.threads_used, 0);
        assert_eq!(loaded.stats.prefix_cache_builds, 0);
        assert_eq!(loaded.stats.prefix_cache_hits, 0);
        assert_eq!(loaded.stats.full_evals, 7, "v1 evals were all full");
        assert_eq!(loaded.stats.resumed, 0);
        assert_eq!(loaded.stats.quarantined, 0);
        assert_eq!(loaded.matrix().get(0, 0), 1.5);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn version2_files_still_load() {
        // A v2 file carries the four engine counters but none of the
        // fault-tolerance counters.
        let mut bytes: Vec<u8> = Vec::new();
        bytes.extend_from_slice(b"CLSM");
        bytes.extend_from_slice(&2u32.to_le_bytes()); // version
        bytes.extend_from_slice(&1u32.to_le_bytes()); // I
        bytes.extend_from_slice(&1u32.to_le_bytes()); // |B|
        bytes.push(4u8);
        bytes.extend_from_slice(&0.5f64.to_le_bytes()); // base loss
        bytes.extend_from_slice(&9u64.to_le_bytes()); // evaluations
        bytes.extend_from_slice(&0.25f64.to_le_bytes()); // seconds
        for c in [2u64, 1, 3, 6] {
            bytes.extend_from_slice(&c.to_le_bytes());
        }
        bytes.extend_from_slice(&2.5f64.to_le_bytes());
        let path = temp("v2");
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_sensitivities(&path).unwrap();
        assert_eq!(loaded.stats.threads_used, 2);
        assert_eq!(loaded.stats.prefix_cache_builds, 1);
        assert_eq!(loaded.stats.prefix_cache_hits, 3);
        assert_eq!(loaded.stats.full_evals, 6);
        assert_eq!(loaded.stats.resumed, 0);
        assert_eq!(loaded.stats.quarantined, 0);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn version3_files_still_load_with_exact_provenance() {
        // The committed v3 fixture must keep loading after the v4 bump,
        // with every counter intact and provenance defaulting to exact.
        let path = temp("v3-fixture");
        std::fs::write(&path, tiny_v3_bytes()).unwrap();
        let loaded = load_sensitivities(&path).unwrap();
        assert_eq!(loaded.stats.threads_used, 4);
        assert_eq!(loaded.stats.resumed, 2);
        assert_eq!(loaded.stats.quarantined, 0);
        assert!(loaded.stats.provenance.is_exact());
        assert_eq!(loaded.stats.provenance.estimator_name(), "exact");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn v4_provenance_survives_roundtrip() {
        let mut sens = measured();
        sens.stats.provenance =
            OmegaProvenance::estimated(OmegaProvenance::TAG_BLOCK_TOPK, 123, 0xDEAD_BEEF);
        let path = temp("provenance");
        save_sensitivities(&sens, &path).unwrap();
        let loaded = load_sensitivities(&path).unwrap();
        assert_eq!(loaded.stats.provenance, sens.stats.provenance);
        assert_eq!(loaded.stats.provenance.estimator_name(), "blocktopk");
        assert!(!loaded.stats.provenance.is_exact());
        std::fs::remove_file(path).ok();
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// Every `SensitivityStats` field and every matrix entry must
        /// survive a v4 save→load round trip *bit-exactly* — including
        /// pathological payloads (NaN, ±0.0, subnormals) drawn straight
        /// from the f64 bit space.
        #[test]
        fn v4_roundtrip_is_bit_exact(
            layers in 1usize..=3,
            raw in proptest::collection::vec((0u32..=u32::MAX, 0u32..=u32::MAX), 0..=45),
            base in (0u32..=u32::MAX, 0u32..=u32::MAX),
            (evaluations, full_evals) in (0usize..10_000, 0usize..10_000),
            (threads_used, prefix_cache_builds) in (0usize..64, 0usize..10_000),
            prefix_cache_hits in 0usize..10_000,
            (resumed, quarantined) in (0usize..10_000, 0usize..100),
            seconds in 0.0f64..1.0e6,
            (estimator, probe_budget, seed) in (0u8..=8, 0u64..=1 << 48, 0u64..=1 << 48),
        ) {
            let f64_of = |(hi, lo): (u32, u32)| f64::from_bits(((hi as u64) << 32) | lo as u64);
            let bits = BitWidthSet::standard();
            let n = layers * bits.len();
            let mut g = SymMatrix::zeros(n);
            let mut entries = raw.iter().copied().map(f64_of).chain(std::iter::repeat(0.25));
            for i in 0..n {
                for j in i..n {
                    g.set(i, j, entries.next().expect("infinite"));
                }
            }
            let sens = SensitivityMatrix::from_parts(
                g,
                layers,
                bits,
                f64_of(base),
                SensitivityStats {
                    evaluations,
                    seconds,
                    threads_used,
                    prefix_cache_builds,
                    prefix_cache_hits,
                    full_evals,
                    resumed,
                    quarantined,
                    provenance: OmegaProvenance { estimator, probe_budget, seed },
                },
            );
            let path = temp("proptest");
            save_sensitivities(&sens, &path).expect("save");
            let loaded = load_sensitivities(&path).expect("load");
            std::fs::remove_file(&path).ok();

            proptest::prop_assert_eq!(loaded.num_layers(), sens.num_layers());
            proptest::prop_assert_eq!(loaded.bits(), sens.bits());
            proptest::prop_assert_eq!(loaded.base_loss.to_bits(), sens.base_loss.to_bits());
            proptest::prop_assert_eq!(loaded.stats.evaluations, sens.stats.evaluations);
            proptest::prop_assert_eq!(loaded.stats.seconds.to_bits(), sens.stats.seconds.to_bits());
            proptest::prop_assert_eq!(loaded.stats.threads_used, sens.stats.threads_used);
            proptest::prop_assert_eq!(
                loaded.stats.prefix_cache_builds,
                sens.stats.prefix_cache_builds
            );
            proptest::prop_assert_eq!(loaded.stats.prefix_cache_hits, sens.stats.prefix_cache_hits);
            proptest::prop_assert_eq!(loaded.stats.full_evals, sens.stats.full_evals);
            proptest::prop_assert_eq!(loaded.stats.resumed, sens.stats.resumed);
            proptest::prop_assert_eq!(loaded.stats.quarantined, sens.stats.quarantined);
            proptest::prop_assert_eq!(loaded.stats.provenance, sens.stats.provenance);
            for i in 0..n {
                for j in 0..n {
                    proptest::prop_assert_eq!(
                        loaded.matrix().get(i, j).to_bits(),
                        sens.matrix().get(i, j).to_bits(),
                        "matrix entry ({}, {}) changed bits", i, j
                    );
                }
            }
        }

        /// Truncating a valid file at ANY byte boundary — which covers
        /// every section boundary (mid-magic, mid-header, mid-bit-list,
        /// mid-stats, mid-matrix) — must yield `BadFormat`, never a panic
        /// or a spurious success.
        #[test]
        fn truncation_at_any_boundary_is_bad_format(cut_ratio in 0.0f64..1.0) {
            let bytes = tiny_v3_bytes();
            // Map the ratio to [0, len): strictly shorter than the file.
            let cut = ((bytes.len() as f64) * cut_ratio) as usize;
            let path = temp(&format!("trunc-{cut}"));
            std::fs::write(&path, &bytes[..cut]).expect("write");
            let got = load_sensitivities(&path);
            std::fs::remove_file(&path).ok();
            proptest::prop_assert!(
                matches!(got, Err(SensitivityIoError::BadFormat(_))),
                "truncation at byte {} must be BadFormat, got {:?}", cut,
                got.map(|_| "Ok")
            );
        }
    }

    #[test]
    fn flipped_magic_and_version_bytes_are_bad_format() {
        let good = tiny_v3_bytes();
        // Sanity: the untampered bytes load.
        let path = temp("tamper");
        std::fs::write(&path, &good).unwrap();
        assert!(load_sensitivities(&path).is_ok());

        // Flip each magic byte and each version byte in turn.
        for flip in 0..8 {
            let mut bad = good.clone();
            bad[flip] ^= 0xFF;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                matches!(
                    load_sensitivities(&path),
                    Err(SensitivityIoError::BadFormat(_))
                ),
                "flipped byte {flip} must be rejected"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_length_mismatch_is_bad_format() {
        let good = tiny_v3_bytes();
        let path = temp("lenmismatch");

        // Trailing garbage after a valid payload.
        let mut long = good.clone();
        long.extend_from_slice(&[0u8; 5]);
        std::fs::write(&path, &long).unwrap();
        let err = load_sensitivities(&path).expect_err("trailing bytes rejected");
        assert!(matches!(err, SensitivityIoError::BadFormat(_)), "{err}");

        // A header claiming more layers than the payload provides.
        let mut inflated = good.clone();
        inflated[8..12].copy_from_slice(&2u32.to_le_bytes()); // I: 1 → 2
        std::fs::write(&path, &inflated).unwrap();
        let err = load_sensitivities(&path).expect_err("inflated dimensions rejected");
        assert!(matches!(err, SensitivityIoError::BadFormat(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn implausible_dimensions_are_rejected_without_allocating() {
        let mut bytes = tiny_v3_bytes();
        // Claim ~4 billion layers; the loader must refuse before sizing
        // any buffer from the header.
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let path = temp("hugedims");
        std::fs::write(&path, &bytes).unwrap();
        let err = load_sensitivities(&path).expect_err("huge dims rejected");
        assert!(matches!(err, SensitivityIoError::BadFormat(_)), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_is_rejected() {
        let path = temp("garbage");
        std::fs::write(&path, b"CLSMxxxx").unwrap();
        assert!(matches!(
            load_sensitivities(&path),
            Err(SensitivityIoError::BadFormat(_))
        ));
        std::fs::write(&path, b"NOPE").unwrap();
        assert!(matches!(
            load_sensitivities(&path),
            Err(SensitivityIoError::BadFormat(_))
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn zero_length_file_gets_a_targeted_error() {
        let path = temp("empty");
        std::fs::write(&path, b"").unwrap();
        match load_sensitivities(&path) {
            Err(SensitivityIoError::BadFormat(msg)) => {
                assert!(msg.contains("empty"), "{msg}");
            }
            other => panic!("expected BadFormat for empty file, got {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error_naming_the_path() {
        match load_sensitivities(Path::new("/nonexistent/x.clsm")) {
            Err(SensitivityIoError::Io(e)) => {
                assert!(e.to_string().contains("/nonexistent/x.clsm"), "{e}");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
    }

    #[cfg(unix)]
    #[test]
    fn permission_denied_is_io_error_naming_the_path() {
        use std::os::unix::fs::PermissionsExt;
        let path = temp("noperm");
        std::fs::write(&path, tiny_v3_bytes()).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o000)).unwrap();
        let got = load_sensitivities(&path);
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o644)).ok();
        std::fs::remove_file(&path).ok();
        // Root bypasses permission bits; only assert when the open failed.
        if let Err(SensitivityIoError::Io(e)) = got {
            assert_eq!(e.kind(), io::ErrorKind::PermissionDenied);
            assert!(e.to_string().contains("noperm"), "{e}");
        }
    }

    #[test]
    fn matrix_debug_output_is_not_needed_for_errors() {
        // SensitivityIoError must be displayable without touching the
        // filesystem again (error paths are used in CLI output).
        let e = SensitivityIoError::BadFormat("x".into());
        assert!(format!("{e}").contains("bad sensitivity file"));
    }
}
