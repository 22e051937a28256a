//! Shared helpers: sample statistics, the metric report, Ω comparison,
//! peak-RSS and signal syscalls, and child-process guards.

use clado_core::SensitivityMatrix;
use std::collections::BTreeMap;
use std::process::Child;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile `q` (0..=100) of a sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((v.len() as f64) * q / 100.0).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of a fixed ladder of percentiles that still has at least
/// ten samples beyond it, or `None` for samples too small for any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|q| (n as f64) * (1.0 - q / 100.0) >= 10.0)
}

/// One-line summary of a timing sample: median, sample count, and the
/// highest percentile with ten samples beyond it.
pub fn describe(values: &[f64], unit: &str) -> String {
    let mut s = format!("median {:.6} {unit} (n={})", median(values), values.len());
    if let Some(q) = tail_percentile(values.len()) {
        s.push_str(&format!(", p{q} {:.6} {unit}", percentile(values, q)));
    }
    if values.len() <= 16 {
        let v: Vec<String> = values.iter().map(|x| format!("{x:.4}")).collect();
        s.push_str(&format!(" [{}]", v.join(" ")));
    }
    s
}

/// The metrics one run reports, in print order, plus the human-readable
/// detail lines printed before the final JSON line.
#[derive(Default)]
pub struct Report {
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    pub details: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.insert(name.into(), (value, unit));
    }

    /// Records a timing sample: the metric is its median, and the detail
    /// line carries the sample count and tail percentile.
    pub fn timing(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.details
            .push(format!("{name}: {}", describe(values, unit)));
        self.set(name, median(values), unit);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.details.push(line.into());
    }
}

/// Number of Ω entries (upper triangle plus the base loss) whose bits
/// differ between two matrices; a shape difference counts as one.
pub fn omega_mismatches(a: &SensitivityMatrix, b: &SensitivityMatrix) -> usize {
    let (ga, gb) = (a.matrix(), b.matrix());
    if ga.dim() != gb.dim() || a.bits() != b.bits() {
        return 1;
    }
    let mut bad = usize::from(a.base_loss.to_bits() != b.base_loss.to_bits());
    for i in 0..ga.dim() {
        for j in i..ga.dim() {
            bad += usize::from(ga.get(i, j).to_bits() != gb.get(i, j).to_bits());
        }
    }
    bad
}

/// A copy of `sm` with one bit of its first diagonal entry flipped: the
/// self-test's deliberately corrupted reference.
pub fn corrupted(sm: &SensitivityMatrix) -> SensitivityMatrix {
    let mut g = sm.matrix().clone();
    g.set(0, 0, f64::from_bits(g.get(0, 0).to_bits() ^ 1));
    SensitivityMatrix::from_parts(
        g,
        sm.num_layers(),
        sm.bits().clone(),
        sm.base_loss,
        sm.stats,
    )
}

/// FNV-1a over a bit map, for recording a plan compactly.
pub fn bitmap_hash(bits: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bits {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64: the request-mix generator (seeded from the workload seed).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
pub const SIGTERM: i32 = 15;

fn maxrss_kb(who: i32) -> i64 {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `u` is a properly sized, writable rusage buffer.
    let rc = unsafe { getrusage(who, &mut u) };
    if rc == 0 {
        u.maxrss
    } else {
        0
    }
}

/// `VmHWM` (peak resident set) of a live process, in KB.
fn hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Live descendants of `root`, from the parent ids in `/proc/*/stat`.
fn descendants(root: u32) -> Vec<u32> {
    let mut parent: Vec<(u32, u32)> = Vec::new();
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let Ok(pid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
            continue;
        };
        // The command name may hold spaces; fields resume after its ')'.
        let after = &stat[stat.rfind(')').map_or(0, |i| i + 1)..];
        if let Some(ppid) = after.split_whitespace().nth(1).and_then(|p| p.parse().ok()) {
            parent.push((pid, ppid));
        }
    }
    let mut out = vec![root];
    let mut i = 0;
    while i < out.len() {
        let p = out[i];
        out.extend(parent.iter().filter(|(_, pp)| *pp == p).map(|(c, _)| *c));
        i += 1;
    }
    out
}

/// Samples the peak resident set of this process and all its live
/// descendants (daemon, pool workers, coordinator) every 250 ms; a peak
/// is a high-water mark, so a slow poll loses only processes shorter
/// than that, which the kernel's record below still covers once reaped.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RssSampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(0));
        let handle = {
            let (stop, peak_kb) = (Arc::clone(&stop), Arc::clone(&peak_kb));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for pid in descendants(std::process::id()) {
                        peak_kb.fetch_max(hwm_kb(pid).unwrap_or(0), Ordering::Relaxed);
                    }
                    std::thread::sleep(Duration::from_millis(250));
                }
            })
        };
        Self {
            stop,
            peak_kb,
            handle: Some(handle),
        }
    }

    /// Largest resident set, in MB, of any process of the run: the
    /// sampled peaks, and the kernel's record for this process and for
    /// every descendant that has been waited for.
    pub fn finish(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let kb = (self.peak_kb.load(Ordering::Relaxed) as i64)
            .max(maxrss_kb(RUSAGE_SELF))
            .max(maxrss_kb(RUSAGE_CHILDREN));
        kb as f64 / 1024.0
    }
}

/// Sends `sig` to a child process.
pub fn signal(child: &Child, sig: i32) {
    // SAFETY: plain syscall on a pid we spawned and have not reaped.
    unsafe {
        kill(child.id() as i32, sig);
    }
}

/// Waits up to `limit` for a child to exit; SIGKILLs it after that.
/// Returns whether it exited successfully on its own.
pub fn wait_or_kill(child: &mut Child, limit: Duration) -> bool {
    let start = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return status.success(),
            Ok(None) if start.elapsed() < limit => std::thread::sleep(Duration::from_millis(10)),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return false;
            }
        }
    }
}

/// Kills and reaps a child when dropped, so no error path leaks a process.
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Reads a numeric field from a parsed `--metrics-out` manifest, e.g.
/// `("gauges", "dist.startup_seconds")` or a histogram's `p50_us`.
pub fn manifest_num(m: &clado_telemetry::Json, path: &[&str]) -> Option<f64> {
    let mut cur = m;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_num()
}

/// Parses a manifest file; `None` when it is missing or malformed.
pub fn read_manifest(path: &std::path::Path) -> Option<clado_telemetry::Json> {
    let text = std::fs::read_to_string(path).ok()?;
    clado_telemetry::parse_json(&text).ok()
}
