//! Unified observability for the CLADO pipeline: hierarchical wall-time
//! spans, counters and gauges, rate-limited progress reporting, and
//! machine-readable run manifests.
//!
//! # Design
//!
//! Everything hangs off a [`Telemetry`] handle — a cheap `Clone` wrapper
//! around an optional shared registry. A *disabled* handle
//! ([`Telemetry::disabled`], also the `Default`) turns every operation
//! into a no-op, so library code can instrument unconditionally and pay
//! nothing when observability is off. Crucially, telemetry only ever
//! *reads clocks and counts integers*: it never participates in the
//! numeric computation, so measured results are bitwise identical with
//! telemetry on or off (test-enforced in `clado-core`).
//!
//! **Spans** are RAII guards keyed by *absolute* dotted paths
//! (`measure.pairwise.suffix_eval`). The hierarchy is derived purely from
//! the path text when a report is rendered, never from runtime nesting
//! state — so a span recorded on a `replica_map` worker thread lands
//! under the same subtree as its logical parent on the main thread.
//! Span completions are buffered in a thread-local list and merged into
//! the shared registry only when the thread's outermost span closes,
//! keeping the hot path free of lock contention. A consequence of
//! path-based hierarchy: children recorded on worker threads accumulate
//! *CPU* time and may sum to more than their parent's wall time; derived
//! self-times are clamped at zero.
//!
//! **Counters** are shared `AtomicU64`s fetched once by name
//! ([`Telemetry::counter`]) and bumped with relaxed ordering from any
//! thread. **Gauges** record one `f64` measurement by name.
//!
//! **Progress** ([`Telemetry::progress`]) is a thread-safe item ticker
//! that prints `done/total`, throughput, and ETA lines to stderr at most
//! twice a second, regardless of how many workers tick it.
//!
//! **Manifests** ([`Telemetry::manifest`]) serialize the whole registry —
//! span tree with total/self times, counters, gauges, caller-supplied
//! config, and version/git info — as JSON with a stable schema
//! (`clado-telemetry-manifest/v1`; see DESIGN.md §Telemetry).
//!
//! **Fail points** ([`faultinject`], [`faultpoint!`]) are deterministic
//! fault-injection hooks compiled to no-ops in release builds; the
//! fault-tolerance test suites use them to kill workers, abort commits,
//! and poison losses at reproducible points of a run.

pub mod faultinject;
mod json;
mod manifest;
mod progress;
mod trace;

pub use json::{parse as parse_json, Json};
pub use manifest::{fmt_us, ManifestValue};
pub use progress::Progress;
pub use trace::{Hist, HistSnapshot, SeriesPoint, TraceEvent, PH_COMPLETE, PH_INSTANT};

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use trace::Histogram;

/// Hard cap on buffered trace events per registry; beyond it events are
/// dropped (and counted) rather than exhausting memory.
const MAX_TRACE_EVENTS: usize = 1 << 20;
/// Thread-local trace buffer flush threshold (events), so long-lived
/// outer spans do not pin unbounded memory.
const TRACE_FLUSH_THRESHOLD: usize = 1024;

/// Aggregate statistics for one span path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// How many times the span closed.
    pub count: u64,
    /// Total wall time across all closures.
    pub total: Duration,
}

pub(crate) struct Registry {
    pub(crate) start: Instant,
    pub(crate) spans: Mutex<HashMap<String, SpanStat>>,
    pub(crate) counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    pub(crate) gauges: Mutex<HashMap<String, f64>>,
    pub(crate) progress_enabled: AtomicBool,
    pub(crate) trace_enabled: AtomicBool,
    pub(crate) trace_id: AtomicU64,
    pub(crate) trace_dropped: AtomicU64,
    pub(crate) trace: Mutex<Vec<TraceEvent>>,
    pub(crate) process_labels: Mutex<Vec<(u32, String)>>,
    pub(crate) histograms: Mutex<HashMap<String, Arc<Histogram>>>,
    pub(crate) series: Mutex<HashMap<String, Vec<SeriesPoint>>>,
}

/// Small dense per-process thread ids for trace events (the OS tid is
/// neither stable nor compact).
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static THREAD_TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u32 {
    THREAD_TID.with(|t| *t)
}

/// Handle to a telemetry registry; `Clone` is cheap and all clones share
/// the same registry. The `Default` handle is disabled (all no-ops).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// Creates an enabled registry; the manifest's wall clock starts now.
    pub fn new() -> Self {
        Telemetry {
            inner: Some(Arc::new(Registry {
                start: Instant::now(),
                spans: Mutex::new(HashMap::new()),
                counters: Mutex::new(HashMap::new()),
                gauges: Mutex::new(HashMap::new()),
                progress_enabled: AtomicBool::new(false),
                trace_enabled: AtomicBool::new(false),
                trace_id: AtomicU64::new(0),
                trace_dropped: AtomicU64::new(0),
                trace: Mutex::new(Vec::new()),
                process_labels: Mutex::new(Vec::new()),
                histograms: Mutex::new(HashMap::new()),
                series: Mutex::new(HashMap::new()),
            })),
        }
    }

    /// A handle on which every operation is a no-op.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Wall time since the registry was created (zero when disabled).
    pub fn elapsed(&self) -> Duration {
        self.inner
            .as_ref()
            .map(|r| r.start.elapsed())
            .unwrap_or_default()
    }

    /// Opens a RAII span guard for the absolute dotted `path`; the
    /// elapsed wall time is recorded when the guard drops. When tracing
    /// is enabled, the drop also emits a complete trace event.
    pub fn span(&self, path: &str) -> Span {
        self.span_inner(path, Vec::new(), None)
    }

    /// Like [`Telemetry::span`], but the trace event (if tracing is on)
    /// carries `args` annotations.
    pub fn span_with_args(&self, path: &str, args: Vec<(String, ManifestValue)>) -> Span {
        self.span_inner(path, args, None)
    }

    /// Like [`Telemetry::span`], but the elapsed µs are additionally
    /// recorded into `hist` — one clock read feeds both.
    pub fn span_timed(&self, path: &str, hist: &Hist) -> Span {
        self.span_inner(path, Vec::new(), hist.cell.clone())
    }

    fn span_inner(
        &self,
        path: &str,
        args: Vec<(String, ManifestValue)>,
        hist: Option<Arc<Histogram>>,
    ) -> Span {
        match &self.inner {
            Some(reg) => {
                LOCAL.with(|l| l.borrow_mut().depth += 1);
                Span {
                    live: Some(SpanLive {
                        registry: Arc::clone(reg),
                        path: path.to_string(),
                        start: Instant::now(),
                        args,
                        hist,
                    }),
                }
            }
            None => Span { live: None },
        }
    }

    /// Fetches (creating on first use) the named counter handle. Keep the
    /// handle and call [`Counter::add`] in hot loops; the name lookup
    /// locks, the adds do not.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.inner.as_ref().map(|reg| {
                let mut counters = reg.counters.lock().expect("telemetry lock");
                Arc::clone(
                    counters
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(AtomicU64::new(0))),
                )
            }),
        }
    }

    /// One-shot convenience: adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        if self.inner.is_some() {
            self.counter(name).add(n);
        }
    }

    /// Records a point-in-time `f64` measurement under `name`
    /// (overwriting any previous value).
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(reg) = &self.inner {
            reg.gauges
                .lock()
                .expect("telemetry lock")
                .insert(name.to_string(), value);
        }
    }

    /// Turns stderr progress lines on or off for this registry.
    pub fn set_progress_enabled(&self, on: bool) {
        if let Some(reg) = &self.inner {
            reg.progress_enabled.store(on, Ordering::Relaxed);
        }
    }

    /// Creates a progress reporter for `total` items under `label`.
    /// Silent unless the registry exists and progress is enabled.
    pub fn progress(&self, label: &str, total: u64) -> Progress {
        let on = self
            .inner
            .as_ref()
            .is_some_and(|reg| reg.progress_enabled.load(Ordering::Relaxed));
        Progress::new(label, total, on)
    }

    /// Turns trace-event recording on or off. Off (the default) costs
    /// one relaxed atomic load per span close.
    pub fn set_trace_enabled(&self, on: bool) {
        if let Some(reg) = &self.inner {
            reg.trace_enabled.store(on, Ordering::Relaxed);
        }
    }

    /// Whether trace events are being recorded.
    pub fn trace_enabled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|reg| reg.trace_enabled.load(Ordering::Relaxed))
    }

    /// Sets the 64-bit trace correlation id (minted by the coordinator,
    /// propagated to workers over the wire).
    pub fn set_trace_id(&self, id: u64) {
        if let Some(reg) = &self.inner {
            reg.trace_id.store(id, Ordering::Relaxed);
        }
    }

    /// The trace correlation id (0 = unset).
    pub fn trace_id(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|reg| reg.trace_id.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Microseconds elapsed since the registry was created — the trace
    /// epoch used for `ts_us` and cross-process clock correlation.
    pub fn now_us(&self) -> u64 {
        self.elapsed().as_micros() as u64
    }

    /// Emits an instant trace event (no-op unless tracing is enabled).
    pub fn instant(&self, name: &str, args: &[(&str, ManifestValue)]) {
        let Some(reg) = &self.inner else { return };
        if !reg.trace_enabled.load(Ordering::Relaxed) {
            return;
        }
        let event = TraceEvent {
            name: name.to_string(),
            ph: PH_INSTANT,
            ts_us: reg.start.elapsed().as_micros() as u64,
            dur_us: 0,
            pid: 0,
            tid: current_tid(),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        buffer_trace_event(reg, event);
    }

    /// Names a remote process in the trace output (e.g. `worker-3`).
    pub fn set_process_label(&self, pid: u32, label: &str) {
        if let Some(reg) = &self.inner {
            let mut labels = reg.process_labels.lock().expect("telemetry lock");
            if let Some(slot) = labels.iter_mut().find(|(p, _)| *p == pid) {
                slot.1 = label.to_string();
            } else {
                labels.push((pid, label.to_string()));
            }
        }
    }

    /// Fetches (creating on first use) the named histogram handle.
    /// Keep the handle and call [`Hist::record_us`] in hot loops.
    pub fn histogram(&self, name: &str) -> Hist {
        Hist {
            cell: self.inner.as_ref().map(|reg| {
                let mut hists = reg.histograms.lock().expect("telemetry lock");
                Arc::clone(
                    hists
                        .entry(name.to_string())
                        .or_insert_with(|| Arc::new(Histogram::new())),
                )
            }),
        }
    }

    /// Percentile snapshots of all histograms, sorted by name.
    pub fn histograms(&self) -> Vec<(String, HistSnapshot)> {
        let mut out: Vec<(String, HistSnapshot)> = match &self.inner {
            Some(reg) => reg
                .histograms
                .lock()
                .expect("telemetry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            None => Vec::new(),
        };
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Appends a `(now, value, label)` point to the named series and,
    /// when tracing is on, mirrors it as an instant trace event.
    pub fn series_push(&self, name: &str, value: f64, label: &str) {
        let Some(reg) = &self.inner else { return };
        let t_us = reg.start.elapsed().as_micros() as u64;
        reg.series
            .lock()
            .expect("telemetry lock")
            .entry(name.to_string())
            .or_default()
            .push(SeriesPoint {
                t_us,
                value,
                label: label.to_string(),
            });
        if reg.trace_enabled.load(Ordering::Relaxed) {
            buffer_trace_event(
                reg,
                TraceEvent {
                    name: name.to_string(),
                    ph: PH_INSTANT,
                    ts_us: t_us,
                    dur_us: 0,
                    pid: 0,
                    tid: current_tid(),
                    args: vec![
                        ("value".to_string(), ManifestValue::Float(value)),
                        ("label".to_string(), ManifestValue::Str(label.to_string())),
                    ],
                },
            );
        }
    }

    /// All series, sorted by name, points in insertion order.
    pub fn series(&self) -> Vec<(String, Vec<SeriesPoint>)> {
        let mut out: Vec<(String, Vec<SeriesPoint>)> = match &self.inner {
            Some(reg) => reg
                .series
                .lock()
                .expect("telemetry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            None => Vec::new(),
        };
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Drains the buffered trace events (for shipping over the wire).
    /// Only events already flushed from their threads are visible —
    /// callers must ensure the relevant spans have closed.
    pub fn take_trace_events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(reg) => std::mem::take(&mut *reg.trace.lock().expect("telemetry lock")),
            None => Vec::new(),
        }
    }

    /// Merges events from another process into this registry's trace
    /// buffer (the caller has already stamped pid and re-based ts).
    pub fn ingest_trace_events(&self, events: Vec<TraceEvent>) {
        if let Some(reg) = &self.inner {
            let mut trace = reg.trace.lock().expect("telemetry lock");
            for e in events {
                if trace.len() >= MAX_TRACE_EVENTS {
                    reg.trace_dropped.fetch_add(1, Ordering::Relaxed);
                } else {
                    trace.push(e);
                }
            }
        }
    }

    /// Writes the buffered events as a Chrome Trace Format file
    /// (Perfetto / `chrome://tracing` loadable). Returns the number of
    /// events written.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let Some(reg) = &self.inner else { return Ok(0) };
        let events = reg.trace.lock().expect("telemetry lock").clone();
        let labels = reg.process_labels.lock().expect("telemetry lock").clone();
        let trace_id = reg.trace_id.load(Ordering::Relaxed);
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        trace::write_chrome_trace(&events, &labels, trace_id, std::process::id(), &mut file)?;
        use std::io::Write as _;
        file.flush()?;
        Ok(events.len())
    }

    /// Number of trace events dropped at the buffer cap.
    pub fn trace_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map(|reg| reg.trace_dropped.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Reads the named counter (zero if absent or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|reg| {
                reg.counters
                    .lock()
                    .expect("telemetry lock")
                    .get(name)
                    .map(|c| c.load(Ordering::Relaxed))
            })
            .unwrap_or(0)
    }

    /// Reads the named gauge, if it has been set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.inner.as_ref().and_then(|reg| {
            reg.gauges
                .lock()
                .expect("telemetry lock")
                .get(name)
                .copied()
        })
    }

    /// Reads the aggregate stats for one span path, if it ever closed.
    ///
    /// Note: spans buffered on a thread whose outermost span is still
    /// open are not yet visible here.
    pub fn span_stats(&self, path: &str) -> Option<SpanStat> {
        self.inner
            .as_ref()
            .and_then(|reg| reg.spans.lock().expect("telemetry lock").get(path).copied())
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = match &self.inner {
            Some(reg) => reg
                .counters
                .lock()
                .expect("telemetry lock")
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            None => Vec::new(),
        };
        out.sort();
        out
    }

    /// All gauges, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = match &self.inner {
            Some(reg) => reg
                .gauges
                .lock()
                .expect("telemetry lock")
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            None => Vec::new(),
        };
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// All span stats, sorted by path.
    pub fn spans(&self) -> Vec<(String, SpanStat)> {
        let mut out: Vec<(String, SpanStat)> = match &self.inner {
            Some(reg) => reg
                .spans
                .lock()
                .expect("telemetry lock")
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            None => Vec::new(),
        };
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Fraction of wall time (since [`Telemetry::new`]) covered by
    /// top-level spans. `1.0` when disabled (nothing is unaccounted).
    pub fn span_coverage(&self) -> f64 {
        if !self.is_enabled() {
            return 1.0;
        }
        let wall = self.elapsed().as_secs_f64();
        if wall <= 0.0 {
            return 1.0;
        }
        let roots: f64 = self
            .spans()
            .iter()
            .filter(|(path, _)| !path.contains('.'))
            .map(|(_, stat)| stat.total.as_secs_f64())
            .sum();
        (roots / wall).min(1.0)
    }

    /// Serializes the registry as a manifest JSON document.
    ///
    /// `command` names the operation; `config` carries run parameters
    /// (threads, model, seed, …). Schema: see DESIGN.md §Telemetry.
    pub fn manifest(&self, command: &str, config: &[(&str, ManifestValue)]) -> String {
        manifest::render(self, command, config)
    }

    /// Renders a human-readable summary table (span tree + counters).
    pub fn render_summary(&self) -> String {
        manifest::render_summary(self)
    }
}

/// The crate version baked into manifests.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The git revision baked into manifests ("unknown" outside a checkout).
pub const GIT_HASH: &str = env!("CLADO_GIT_HASH");

struct SpanLive {
    registry: Arc<Registry>,
    path: String,
    start: Instant,
    args: Vec<(String, ManifestValue)>,
    hist: Option<Arc<Histogram>>,
}

/// RAII guard returned by [`Telemetry::span`]; records elapsed wall time
/// into the registry when dropped.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    live: Option<SpanLive>,
}

struct LocalBuf {
    depth: usize,
    entries: Vec<(Arc<Registry>, String, Duration)>,
    trace: Vec<(Arc<Registry>, TraceEvent)>,
}

thread_local! {
    static LOCAL: RefCell<LocalBuf> = const {
        RefCell::new(LocalBuf { depth: 0, entries: Vec::new(), trace: Vec::new() })
    };
}

/// Buffers one trace event thread-locally; flushes straight to the
/// registry when this thread has no open spans (nothing else would
/// trigger the flush), or when the local buffer hits its threshold.
fn buffer_trace_event(reg: &Arc<Registry>, event: TraceEvent) {
    LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        buf.trace.push((Arc::clone(reg), event));
        if buf.depth == 0 || buf.trace.len() >= TRACE_FLUSH_THRESHOLD {
            let trace = std::mem::take(&mut buf.trace);
            flush_trace(trace);
        }
    });
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else {
            return;
        };
        let elapsed = live.start.elapsed();
        if let Some(hist) = &live.hist {
            hist.record_us(elapsed.as_micros() as u64);
        }
        let traced = live.registry.trace_enabled.load(Ordering::Relaxed);
        LOCAL.with(|l| {
            let mut buf = l.borrow_mut();
            if traced {
                let ts_us = live
                    .start
                    .saturating_duration_since(live.registry.start)
                    .as_micros() as u64;
                buf.trace.push((
                    Arc::clone(&live.registry),
                    TraceEvent {
                        name: live.path.clone(),
                        ph: PH_COMPLETE,
                        ts_us,
                        dur_us: elapsed.as_micros() as u64,
                        pid: 0,
                        tid: current_tid(),
                        args: live.args,
                    },
                ));
            }
            buf.entries.push((live.registry, live.path, elapsed));
            buf.depth -= 1;
            if buf.depth == 0 {
                // Outermost span on this thread: merge the whole buffer
                // into the shared registry, one lock per registry.
                let entries = std::mem::take(&mut buf.entries);
                flush(entries);
                if !buf.trace.is_empty() {
                    let trace = std::mem::take(&mut buf.trace);
                    flush_trace(trace);
                }
            } else if buf.trace.len() >= TRACE_FLUSH_THRESHOLD {
                let trace = std::mem::take(&mut buf.trace);
                flush_trace(trace);
            }
        });
    }
}

/// Flushes this thread's buffered span completions and trace events
/// into their registries immediately, without waiting for the
/// outermost span to close. Used by long-lived loops (e.g. the dist
/// worker, which drains its trace buffer into every `ShardDone` while
/// its root span stays open).
pub fn flush_thread_local() {
    LOCAL.with(|l| {
        let mut buf = l.borrow_mut();
        if !buf.entries.is_empty() {
            let entries = std::mem::take(&mut buf.entries);
            flush(entries);
        }
        if !buf.trace.is_empty() {
            let trace = std::mem::take(&mut buf.trace);
            flush_trace(trace);
        }
    });
}

fn flush(mut entries: Vec<(Arc<Registry>, String, Duration)>) {
    entries.sort_by_key(|(reg, _, _)| Arc::as_ptr(reg) as usize);
    let mut i = 0;
    while i < entries.len() {
        let reg = Arc::clone(&entries[i].0);
        let mut spans = reg.spans.lock().expect("telemetry lock");
        while i < entries.len() && Arc::ptr_eq(&entries[i].0, &reg) {
            let (_, path, elapsed) = &entries[i];
            let stat = spans.entry(path.clone()).or_default();
            stat.count += 1;
            stat.total += *elapsed;
            i += 1;
        }
    }
}

fn flush_trace(events: Vec<(Arc<Registry>, TraceEvent)>) {
    let mut i = 0;
    while i < events.len() {
        let reg = Arc::clone(&events[i].0);
        let mut trace = reg.trace.lock().expect("telemetry lock");
        while i < events.len() && Arc::ptr_eq(&events[i].0, &reg) {
            if trace.len() >= MAX_TRACE_EVENTS {
                reg.trace_dropped.fetch_add(1, Ordering::Relaxed);
            } else {
                trace.push(events[i].1.clone());
            }
            i += 1;
        }
    }
}

/// Shared handle to one named counter; adds are lock-free.
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<AtomicU64>>,
}

impl Counter {
    /// Adds `n` (relaxed; ordering never matters for reporting).
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.cell {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (zero when disabled).
    pub fn value(&self) -> u64 {
        self.cell
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Runs `f`, re-raising any panic with `context()` prepended to the
/// payload message so diagnostics can name the offending work item
/// (e.g. the `(layer, bit)` pair of a sensitivity probe).
///
/// `context` is only invoked on the panic path.
pub fn with_panic_context<R>(context: impl FnOnce() -> String, f: impl FnOnce() -> R) -> R {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => panic!("{}: {}", context(), panic_message(&*payload)),
    }
}

/// Extracts the human-readable message from a panic payload.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        {
            let _s = t.span("root.child");
        }
        t.add("hits", 3);
        t.set_gauge("g", 1.5);
        assert!(!t.is_enabled());
        assert_eq!(t.counter_value("hits"), 0);
        assert_eq!(t.gauge_value("g"), None);
        assert!(t.spans().is_empty());
        assert_eq!(t.span_coverage(), 1.0);
        assert!(t.manifest("noop", &[]).contains("\"enabled\": false"));
    }

    #[test]
    fn spans_aggregate_count_and_time() {
        let t = Telemetry::new();
        for _ in 0..3 {
            let _s = t.span("work");
            std::thread::sleep(Duration::from_millis(2));
        }
        let stat = t.span_stats("work").expect("recorded");
        assert_eq!(stat.count, 3);
        assert!(stat.total >= Duration::from_millis(6));
    }

    #[test]
    fn nested_spans_flush_when_outermost_closes() {
        let t = Telemetry::new();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("outer.inner");
            }
            // The inner span is buffered thread-locally until `outer`
            // closes; the registry must not see it yet.
            assert!(t.span_stats("outer.inner").is_none());
        }
        assert_eq!(t.span_stats("outer.inner").expect("flushed").count, 1);
        assert_eq!(t.span_stats("outer").expect("flushed").count, 1);
    }

    #[test]
    fn worker_thread_spans_merge_into_the_same_registry() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..10 {
                        let _s = t.span("measure.pairwise.suffix_eval");
                    }
                });
            }
        });
        let stat = t
            .span_stats("measure.pairwise.suffix_eval")
            .expect("merged");
        assert_eq!(stat.count, 40);
    }

    #[test]
    fn counters_are_shared_and_thread_safe() {
        let t = Telemetry::new();
        let c = t.counter("evals");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(t.counter_value("evals"), 8000);
        assert_eq!(c.value(), 8000);
        // Fetching the same name again returns the same cell.
        t.counter("evals").add(2);
        assert_eq!(c.value(), 8002);
    }

    #[test]
    fn gauges_overwrite() {
        let t = Telemetry::new();
        t.set_gauge("overhead", 1.02);
        t.set_gauge("overhead", 1.01);
        assert_eq!(t.gauge_value("overhead"), Some(1.01));
        assert_eq!(t.gauges(), vec![("overhead".to_string(), 1.01)]);
    }

    #[test]
    fn span_coverage_tracks_root_spans() {
        let t = Telemetry::new();
        {
            let _s = t.span("phase_a");
            std::thread::sleep(Duration::from_millis(20));
        }
        {
            let _s = t.span("phase_b");
            std::thread::sleep(Duration::from_millis(20));
        }
        let coverage = t.span_coverage();
        assert!(coverage > 0.5, "coverage {coverage}");
        assert!(coverage <= 1.0);
    }

    #[test]
    fn with_panic_context_prepends_item_info() {
        let caught = std::panic::catch_unwind(|| {
            with_panic_context(
                || "probe (layer 3, bit 2)".to_string(),
                || panic!("boom {}", 7),
            )
        });
        let msg = panic_message(&*caught.expect_err("must panic"));
        assert_eq!(msg, "probe (layer 3, bit 2): boom 7");
    }

    #[test]
    fn with_panic_context_passes_results_through() {
        let v = with_panic_context(|| unreachable!(), || 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    fn tracing_off_records_no_events() {
        let t = Telemetry::new();
        {
            let _s = t.span("work");
        }
        t.instant("tick", &[]);
        assert!(t.take_trace_events().is_empty());
        assert!(!t.trace_enabled());
    }

    #[test]
    fn spans_emit_complete_events_when_tracing_enabled() {
        let t = Telemetry::new();
        t.set_trace_enabled(true);
        t.set_trace_id(0xabc);
        {
            let _outer = t.span("outer");
            let _inner = t.span_with_args(
                "outer.inner",
                vec![("lease".to_string(), ManifestValue::Int(7))],
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        t.instant("solver.incumbent", &[("objective", 0.5f64.into())]);
        let events = t.take_trace_events();
        assert_eq!(events.len(), 3);
        let inner = events
            .iter()
            .find(|e| e.name == "outer.inner")
            .expect("inner event");
        assert_eq!(inner.ph, PH_COMPLETE);
        assert!(inner.dur_us >= 2_000, "dur {}", inner.dur_us);
        assert_eq!(
            inner.args,
            vec![("lease".to_string(), ManifestValue::Int(7))]
        );
        let outer = events.iter().find(|e| e.name == "outer").expect("outer");
        // The inner span nests inside the outer one on the timeline.
        assert!(outer.ts_us <= inner.ts_us);
        assert!(outer.ts_us + outer.dur_us >= inner.ts_us + inner.dur_us);
        let instant = events
            .iter()
            .find(|e| e.name == "solver.incumbent")
            .expect("instant");
        assert_eq!(instant.ph, PH_INSTANT);
        assert_eq!(t.trace_id(), 0xabc);
        // The buffer was drained.
        assert!(t.take_trace_events().is_empty());
    }

    #[test]
    fn span_timed_feeds_the_histogram() {
        let t = Telemetry::new();
        let h = t.histogram("probe.eval");
        for _ in 0..3 {
            let _s = t.span_timed("measure.probe", &h);
            std::thread::sleep(Duration::from_millis(1));
        }
        let snap = t.histograms();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].1.count, 3);
        assert!(snap[0].1.max_us >= 1_000);
        // Span aggregation still happened.
        assert_eq!(t.span_stats("measure.probe").expect("span").count, 3);
    }

    #[test]
    fn ingested_events_keep_their_pid_and_merge() {
        let t = Telemetry::new();
        t.set_trace_enabled(true);
        t.ingest_trace_events(vec![TraceEvent {
            name: "dist.work.shard".to_string(),
            ph: PH_COMPLETE,
            ts_us: 100,
            dur_us: 50,
            pid: 999,
            tid: 1,
            args: Vec::new(),
        }]);
        {
            let _s = t.span("dist.coordinate");
        }
        let events = t.take_trace_events();
        assert_eq!(events.len(), 2);
        assert!(events.iter().any(|e| e.pid == 999));
        assert!(events.iter().any(|e| e.pid == 0));
    }

    #[test]
    fn worker_thread_trace_events_merge_under_distinct_tids() {
        let t = Telemetry::new();
        t.set_trace_enabled(true);
        std::thread::scope(|s| {
            for _ in 0..3 {
                let t = t.clone();
                s.spawn(move || {
                    let _s = t.span("measure.pairwise.suffix_eval");
                });
            }
        });
        let events = t.take_trace_events();
        assert_eq!(events.len(), 3);
        let mut tids: Vec<u32> = events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 3, "each thread gets its own tid");
    }

    #[test]
    fn disabled_handle_trace_apis_are_inert() {
        let t = Telemetry::disabled();
        t.set_trace_enabled(true);
        assert!(!t.trace_enabled());
        t.set_trace_id(5);
        assert_eq!(t.trace_id(), 0);
        t.instant("x", &[]);
        t.series_push("s", 1.0, "l");
        t.histogram("h").record_us(10);
        assert!(t.take_trace_events().is_empty());
        assert!(t.histograms().is_empty());
        assert!(t.series().is_empty());
        assert_eq!(t.now_us(), 0);
    }

    #[test]
    fn write_chrome_trace_produces_loadable_file() {
        let t = Telemetry::new();
        t.set_trace_enabled(true);
        t.set_trace_id(42);
        {
            let _s = t.span("measure");
        }
        let dir = std::env::temp_dir().join(format!("clado-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("t.json");
        let n = t.write_chrome_trace(&path).expect("write");
        assert_eq!(n, 1);
        let text = std::fs::read_to_string(&path).expect("read");
        let j = parse_json(&text).expect("valid JSON");
        assert!(j.as_arr().expect("array").len() >= 3); // metadata + event
        std::fs::remove_dir_all(&dir).ok();
    }
}
