//! The `clado serve` daemon: bounded admission, typed load shedding,
//! executor threads, the Ω result cache, and graceful drain.
//!
//! ## Request lifecycle
//!
//! 1. A client connects and sends `Submit`. The admission thread
//!    validates the request and decides under the queue lock: draining →
//!    `Rejected(Draining)`; queue at depth → `Rejected(Overloaded)`;
//!    deadline shorter than the estimated start (an EWMA of observed
//!    service times scaled by queue position) →
//!    `Rejected(DeadlineInfeasible)`. Otherwise `Accepted` and enqueued.
//! 2. The admission thread then watches the socket: a client that hangs
//!    up cancels its own request (the cancel flag threads into both the
//!    measurement pool and [`clado_solver::SolverConfig::cancel`]).
//! 3. An executor pops the request: an Ω-cache hit answers with zero
//!    probe evaluations and a byte-identical CLSM image; a miss builds
//!    the model, sweeps the request's exact or estimation plan on the
//!    worker pool one round per job (falling back to in-process
//!    evaluation when no worker is live), and populates the cache.
//!    Budget solves inherit the request deadline, so the anytime solver
//!    falls back instead of blowing through it.
//! 4. Failures are *typed* per request ([`crate::protocol::FailKind`])
//!    and never tear down the daemon.
//!
//! ## Drain
//!
//! Raising the drain flag (SIGTERM/Ctrl-C in the CLI) stops admission —
//! late submitters get `Rejected(Draining)` — finishes everything
//! already admitted, shuts the worker pool down, and returns the final
//! [`ServeReport`].

use crate::cache::{CachedOmega, OmegaCache};
use crate::diskcache::DiskCache;
use crate::error::ServeError;
use crate::protocol::{
    self, AssignRow, FailKind, MeasureSpec, Op, RejectReason, ServeMessage, SubmitRequest,
};
use clado_core::{
    assign_bits, sensitivities_to_bytes, AssignOptions, ModelTables, OmegaPlan, ProbeId,
    ShardContext,
};
use clado_dist::{
    accept_until, run_sweep, scheme_from_u8, wake_accept, DistError, Fallback, JobControl, JobSpec,
    PoolOptions, WorkerPool,
};
use clado_estim::{EstimationPlan, GridEstimation, DEFAULT_ESTIMATOR_SEED};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_quant::{BitWidthSet, LayerSizes};
use clado_solver::SolverConfig;
use clado_telemetry::Telemetry;
use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Builds (model, sensitivity set) for a measurement spec. The CLI
/// passes the pretrained-model loader; tests pass synthetic builders.
pub type ModelProvider =
    Arc<dyn Fn(&MeasureSpec) -> Result<(Network, DataSplit), String> + Send + Sync>;

/// Options controlling the daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Admission queue depth; submissions past it are shed with the
    /// typed `Overloaded` rejection.
    pub queue_depth: usize,
    /// Concurrent request executors.
    pub executors: usize,
    /// Ω cache capacity (distinct measurement configs; 0 disables).
    pub cache_capacity: usize,
    /// In-memory Ω cache byte budget (0 = bounded by capacity only).
    pub cache_bytes: u64,
    /// Directory for the persistent Ω spill store; `None` keeps the
    /// cache memory-only. With a directory, every measured Ω is
    /// committed to disk and a restarted daemon warm-loads the store —
    /// repeat configs survive even a SIGKILL with zero re-evaluations.
    pub cache_dir: Option<PathBuf>,
    /// On-disk byte budget for the spill store (0 = unbounded).
    pub cache_disk_bytes: u64,
    /// Worker-pool heartbeat timeout (dead-worker detection).
    pub heartbeat_timeout: Duration,
    /// Per-shard eviction cap before a request fails with
    /// `WorkerRetriesExhausted`.
    pub shard_retries: u32,
    /// Telemetry sink for queue/shed/cache gauges and request latencies.
    pub telemetry: Telemetry,
    /// Print coarse progress to stderr.
    pub verbose: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            queue_depth: 16,
            executors: 2,
            cache_capacity: 8,
            cache_bytes: 0,
            cache_dir: None,
            cache_disk_bytes: 0,
            heartbeat_timeout: Duration::from_secs(3),
            shard_retries: 5,
            telemetry: Telemetry::disabled(),
            verbose: false,
        }
    }
}

/// What the daemon did over its lifetime, returned by [`Server::run`]
/// after a clean drain.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeReport {
    /// Submissions received (admitted or shed).
    pub requests: u64,
    /// Requests answered with a success response.
    pub completed: u64,
    /// Admitted requests that failed (typed; the daemon survived).
    pub failed: u64,
    /// Submissions shed with `Overloaded`.
    pub shed_overload: u64,
    /// Submissions shed with `DeadlineInfeasible`.
    pub shed_deadline: u64,
    /// Submissions shed with `Draining`.
    pub shed_draining: u64,
    /// Submissions shed with `Malformed`.
    pub shed_malformed: u64,
    /// Requests served from the Ω cache (zero probe evaluations).
    pub cache_hits: u64,
    /// Requests that had to measure.
    pub cache_misses: u64,
}

/// One admitted request waiting for (or being served by) an executor.
struct Queued {
    id: u64,
    req: SubmitRequest,
    /// Write side of the client connection (the admission thread holds a
    /// clone of the read side as its disconnect watcher, which the
    /// executor ends by shutting the socket down after the reply).
    stream: TcpStream,
    accepted_at: Instant,
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
    /// Raised by the admission thread, under the queue lock and with a
    /// notify of [`Inner::cv`], once the `Accepted` frame is on the wire.
    /// The executor must not write the response before then: a cache hit
    /// can finish faster than the admission reply, and two threads racing
    /// writes on the same socket would reorder frames.
    accepted_sent: Arc<AtomicBool>,
}

/// Raises a daemon's drain (see [`Server::drain_handle`]). Cloneable and
/// sendable, so a signal bridge or a test can hold one while
/// [`Server::run`] owns the server.
#[derive(Debug, Clone)]
pub struct DrainHandle {
    flag: Arc<AtomicBool>,
    /// The client listener's address.
    wake: SocketAddr,
}

impl DrainHandle {
    /// Raises the drain flag and wakes the accept loop, which blocks in
    /// `accept`, with a connection to the client listener: admission
    /// stops, in-flight work finishes, and [`Server::run`] returns.
    pub fn raise(&self) {
        self.flag.store(true, Ordering::SeqCst);
        wake_accept(self.wake);
    }
}

struct Inner {
    queue: Mutex<VecDeque<Queued>>,
    cv: Condvar,
    drain: Arc<AtomicBool>,
    client_addr: SocketAddr,
    busy: AtomicUsize,
    next_request: AtomicU64,
    /// EWMA of observed request service times, µs (admission estimator).
    ewma_us: Mutex<Option<f64>>,
    cache: OmegaCache,
    disk: Option<DiskCache>,
    pool: WorkerPool,
    provider: ModelProvider,
    /// The last miss's model tables, reused by the next miss whose
    /// provided network they fit ([`ModelTables::reuse_or_build`]).
    warm: Mutex<Option<Arc<ModelTables>>>,
    telemetry: Telemetry,
    opts: ServeOptions,
    requests: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    shed_draining: AtomicU64,
    shed_malformed: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

/// A bound, not-yet-running daemon. [`Server::run`] drives it until the
/// drain flag is raised and every admitted request has been answered.
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

impl Server {
    /// Binds the client- and worker-facing sockets. Use `127.0.0.1:0`
    /// for either to let the OS pick a free port.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when either address cannot be bound.
    pub fn bind(
        client_addr: &str,
        worker_addr: &str,
        provider: ModelProvider,
        opts: ServeOptions,
    ) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(client_addr)?;
        let client_addr = listener.local_addr()?;
        let pool = WorkerPool::bind(
            worker_addr,
            PoolOptions {
                heartbeat_timeout: opts.heartbeat_timeout,
                shard_retries: opts.shard_retries,
                telemetry: opts.telemetry.clone(),
                verbose: opts.verbose,
            },
        )?;
        let cache = OmegaCache::new(opts.cache_capacity, opts.cache_bytes);
        let disk = match &opts.cache_dir {
            Some(dir) => Some(DiskCache::open(
                dir,
                opts.cache_disk_bytes,
                opts.telemetry.clone(),
            )?),
            None => None,
        };
        if let Some(disk) = &disk {
            // Warm the in-memory LRU from the spill store: the most
            // recent `cache_capacity` entries, inserted oldest-first so
            // memory recency agrees with disk recency. `peek` (not
            // `load`) keeps the startup walk from inverting the on-disk
            // LRU order or masquerading as client cache hits.
            let mut keys = disk.keys_most_recent_first();
            keys.truncate(opts.cache_capacity);
            keys.reverse();
            for key in keys {
                if let Some(entry) = disk.peek(key) {
                    cache.insert(key, Arc::new(entry));
                }
            }
            if opts.verbose && !cache.is_empty() {
                eprintln!(
                    "serve: warm-loaded {} cached measurement(s) from {}",
                    cache.len(),
                    disk.dir().display()
                );
            }
        }
        opts.telemetry
            .set_gauge("serve.cache.bytes", cache.bytes() as f64);
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            drain: Arc::new(AtomicBool::new(false)),
            client_addr,
            busy: AtomicUsize::new(0),
            next_request: AtomicU64::new(1),
            ewma_us: Mutex::new(None),
            cache,
            disk,
            pool,
            provider,
            warm: Mutex::new(None),
            telemetry: opts.telemetry.clone(),
            opts,
            requests: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            shed_draining: AtomicU64::new(0),
            shed_malformed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
        });
        Ok(Self { listener, inner })
    }

    /// The address clients should submit to.
    pub fn client_addr(&self) -> SocketAddr {
        self.inner.client_addr
    }

    /// The address pooled workers should connect to.
    pub fn worker_addr(&self) -> SocketAddr {
        self.inner.pool.worker_addr()
    }

    /// Number of currently connected pooled workers.
    pub fn live_workers(&self) -> usize {
        self.inner.pool.live_workers()
    }

    /// The drain handle: [`DrainHandle::raise`] (e.g. from a SIGTERM
    /// bridge) stops admission, finishes in-flight work, and makes
    /// [`Server::run`] return.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            flag: Arc::clone(&self.inner.drain),
            wake: self.inner.client_addr,
        }
    }

    /// Runs the daemon until drained. Accepts clients, sheds overload
    /// with typed rejections, and answers every admitted request —
    /// request failures are per-request, never fatal.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] only for listener-level failures; everything
    /// request-scoped is reported to the requesting client instead.
    pub fn run(self) -> Result<ServeReport, ServeError> {
        let inner = &self.inner;
        let _root = inner.telemetry.span("serve.run");
        let executors: Vec<_> = (0..inner.opts.executors.max(1))
            .map(|_| {
                let inner = Arc::clone(inner);
                std::thread::spawn(move || executor_loop(&inner))
            })
            .collect();

        // `accept` blocks. A raised drain wakes it (`DrainHandle::raise`),
        // and so does the executor that finishes the last admitted
        // request of a drain; meanwhile late submitters keep getting the
        // typed Draining rejection.
        accept_until(
            &self.listener,
            || drained(inner),
            |stream| {
                let inner = Arc::clone(inner);
                std::thread::spawn(move || admit_client(stream, &inner));
            },
        )?;

        inner.cv.notify_all();
        for h in executors {
            let _ = h.join();
        }
        inner.pool.shutdown();
        let report = ServeReport {
            requests: inner.requests.load(Ordering::SeqCst),
            completed: inner.completed.load(Ordering::SeqCst),
            failed: inner.failed.load(Ordering::SeqCst),
            shed_overload: inner.shed_overload.load(Ordering::SeqCst),
            shed_deadline: inner.shed_deadline.load(Ordering::SeqCst),
            shed_draining: inner.shed_draining.load(Ordering::SeqCst),
            shed_malformed: inner.shed_malformed.load(Ordering::SeqCst),
            cache_hits: inner.cache_hits.load(Ordering::SeqCst),
            cache_misses: inner.cache_misses.load(Ordering::SeqCst),
        };
        let t = &inner.telemetry;
        t.set_gauge("serve.requests", report.requests as f64);
        t.set_gauge("serve.completed", report.completed as f64);
        t.set_gauge("serve.failed", report.failed as f64);
        t.set_gauge(
            "serve.shed_total",
            (report.shed_overload
                + report.shed_deadline
                + report.shed_draining
                + report.shed_malformed) as f64,
        );
        Ok(report)
    }
}

/// Whether the drain is raised and every admitted request answered.
fn drained(inner: &Inner) -> bool {
    inner.drain.load(Ordering::SeqCst)
        && inner
            .queue
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .is_empty()
        && inner.busy.load(Ordering::SeqCst) == 0
}

/// Upper bound on sweep rows a single request may ask for.
const MAX_SWEEP_ROWS: usize = 256;

/// Static request validation (admission-time `Malformed` shedding).
fn validate(req: &SubmitRequest) -> Option<String> {
    let spec = &req.spec;
    if spec.model.is_empty() {
        return Some("empty model name".into());
    }
    if spec.bits.is_empty() {
        return Some("empty bit-width set".into());
    }
    if let Some(&bad) = spec.bits.iter().find(|&&b| !(1..=16).contains(&b)) {
        return Some(format!("bit-width {bad} out of range 1..=16"));
    }
    if scheme_from_u8(spec.scheme).is_err() {
        return Some(format!("unknown quantization scheme {}", spec.scheme));
    }
    if spec.set_size == 0 {
        return Some("sensitivity-set size must be positive".into());
    }
    if spec.batch_size == 0 {
        return Some("batch size must be positive".into());
    }
    match GridEstimation::from_job(spec.estimator, spec.probe_budget) {
        Err(refusal) => return Some(refusal),
        // No estimator reads a seed; every estimated Ω records the
        // default, so any other value would name a result nobody makes.
        Ok(Some(_)) if spec.estimator_seed != DEFAULT_ESTIMATOR_SEED => {
            return Some(format!(
                "estimator seed {:#x} is not the default {DEFAULT_ESTIMATOR_SEED:#x}",
                spec.estimator_seed
            ))
        }
        // Exact specs must keep the estimation fields zeroed so equal
        // exact requests hash to equal cache keys.
        Ok(None) if spec.probe_budget != 0 => {
            return Some("probe budget requires an estimator".into())
        }
        Ok(None) if spec.estimator_seed != 0 => {
            return Some("estimator seed requires an estimator".into())
        }
        Ok(_) => {}
    }
    match req.op {
        Op::Measure => None,
        Op::Assign { avg_bits } => (!avg_bits.is_finite() || avg_bits <= 0.0)
            .then(|| format!("average-bits budget {avg_bits} must be positive")),
        Op::Sweep { from, to, step } => {
            if !(from.is_finite() && to.is_finite() && step.is_finite()) {
                return Some("sweep bounds must be finite".into());
            }
            if from <= 0.0 || to < from || step <= 0.0 {
                return Some(format!("invalid sweep range {from}..={to} step {step}"));
            }
            let rows = ((to - from) / step) as usize + 1;
            (rows > MAX_SWEEP_ROWS)
                .then(|| format!("sweep asks for {rows} rows (cap {MAX_SWEEP_ROWS})"))
        }
    }
}

/// Handles one client connection: admission decision, `Accepted` reply,
/// then disconnect watching until the request finishes.
fn admit_client(stream: TcpStream, inner: &Arc<Inner>) {
    let t = &inner.telemetry;
    let _ = stream.set_nodelay(true);
    // Bounded in both directions: a connected-but-silent client cannot
    // pin this thread past the handshake timeout, and the expiry is the
    // typed HandshakeTimeout, not a mystery hang.
    let _ = stream.set_read_timeout(Some(inner.opts.heartbeat_timeout));
    let _ = stream.set_write_timeout(Some(inner.opts.heartbeat_timeout));
    let mut s = &stream;
    let req = match protocol::recv(&mut s) {
        Ok(ServeMessage::Submit(req)) => req,
        Ok(_) => {
            t.counter("serve.protocol_errors").incr();
            return;
        }
        Err(e) => {
            let e = e.or_handshake_timeout();
            if matches!(e, clado_dist::FrameError::HandshakeTimeout) {
                t.counter("serve.handshake_timeouts").incr();
            } else if !e.is_disconnect() {
                t.counter("serve.protocol_errors").incr();
            }
            return;
        }
    };
    inner.requests.fetch_add(1, Ordering::SeqCst);
    t.counter("serve.submissions").incr();

    if let Some(detail) = validate(&req) {
        inner.shed_malformed.fetch_add(1, Ordering::SeqCst);
        t.counter("serve.shed.malformed").incr();
        let _ = protocol::send(
            &mut s,
            &ServeMessage::Rejected {
                reason: RejectReason::Malformed,
                detail,
            },
        );
        return;
    }

    // Admission decision under the queue lock, so depth checks and
    // enqueueing are atomic with respect to other admissions.
    let admitted = {
        let mut q = inner.queue.lock().unwrap_or_else(|p| p.into_inner());
        if inner.drain.load(Ordering::SeqCst) {
            Err((RejectReason::Draining, "daemon is draining".to_string()))
        } else if q.len() >= inner.opts.queue_depth {
            Err((
                RejectReason::Overloaded,
                format!("admission queue full (depth {})", inner.opts.queue_depth),
            ))
        } else if let Some(detail) = deadline_infeasible(inner, q.len(), req.deadline_ms) {
            Err((RejectReason::DeadlineInfeasible, detail))
        } else {
            let id = inner.next_request.fetch_add(1, Ordering::SeqCst);
            let accepted_at = Instant::now();
            let item = Queued {
                id,
                req: req.clone(),
                stream: match stream.try_clone() {
                    Ok(write_side) => write_side,
                    Err(_) => return,
                },
                accepted_at,
                deadline: (req.deadline_ms > 0)
                    .then(|| accepted_at + Duration::from_millis(req.deadline_ms)),
                cancel: Arc::new(AtomicBool::new(false)),
                accepted_sent: Arc::new(AtomicBool::new(false)),
            };
            let cancel = Arc::clone(&item.cancel);
            let accepted_sent = Arc::clone(&item.accepted_sent);
            q.push_back(item);
            let depth = q.len();
            t.set_gauge("serve.queue_depth", depth as f64);
            Ok((id, depth as u32, cancel, accepted_sent))
        }
    };

    match admitted {
        Err((reason, detail)) => {
            match reason {
                RejectReason::Overloaded => {
                    inner.shed_overload.fetch_add(1, Ordering::SeqCst);
                }
                RejectReason::DeadlineInfeasible => {
                    inner.shed_deadline.fetch_add(1, Ordering::SeqCst);
                }
                RejectReason::Draining => {
                    inner.shed_draining.fetch_add(1, Ordering::SeqCst);
                }
                RejectReason::Malformed => unreachable!("validated above"),
            }
            t.counter(&format!("serve.shed.{}", reason.label())).incr();
            let _ = protocol::send(&mut s, &ServeMessage::Rejected { reason, detail });
        }
        Ok((request_id, queue_depth, cancel, accepted_sent)) => {
            inner.cv.notify_all();
            // Response frames (the CLSM image) can be large; lift the
            // handshake-scoped write bound for the executor's reply.
            let _ = stream.set_write_timeout(None);
            if protocol::send(
                &mut s,
                &ServeMessage::Accepted {
                    request_id,
                    queue_depth,
                },
            )
            .is_err()
            {
                cancel_request(inner, &cancel);
                // Unblock an executor that may already be waiting to
                // write the response.
                mark_accepted_sent(inner, &accepted_sent);
                return;
            }
            mark_accepted_sent(inner, &accepted_sent);
            watch_disconnect(inner, &stream, &cancel);
        }
    }
}

/// Raises a request's `accepted_sent` under the queue lock and wakes the
/// executors, one of which may be waiting to write the response.
fn mark_accepted_sent(inner: &Inner, accepted_sent: &AtomicBool) {
    {
        let _q = inner.queue.lock().unwrap_or_else(|p| p.into_inner());
        accepted_sent.store(true, Ordering::SeqCst);
    }
    inner.cv.notify_all();
}

/// Admission-time deadline feasibility: with an observed service-time
/// EWMA, a request whose deadline is shorter than its estimated start +
/// one service time is shed immediately instead of admitted to die.
fn deadline_infeasible(inner: &Inner, queued: usize, deadline_ms: u64) -> Option<String> {
    if deadline_ms == 0 {
        return None;
    }
    let ewma = (*inner.ewma_us.lock().unwrap_or_else(|p| p.into_inner()))?;
    let waiting = queued + inner.busy.load(Ordering::SeqCst);
    let executors = inner.opts.executors.max(1) as f64;
    let est_finish_us = (waiting as f64 / executors + 1.0) * ewma;
    let deadline_us = deadline_ms as f64 * 1_000.0;
    (est_finish_us > deadline_us).then(|| {
        format!(
            "estimated completion {:.0} ms exceeds deadline {deadline_ms} ms \
             ({waiting} request(s) ahead, mean service {:.0} ms)",
            est_finish_us / 1_000.0,
            ewma / 1_000.0
        )
    })
}

/// Blocks until the connection's read side ends: the client hung up
/// (→ cancel the request), or the executor shut the socket down after
/// its reply, when the cancel flag no longer matters. The read side of
/// the connection is dedicated to this; the executor writes the response
/// on its own clone.
fn watch_disconnect(inner: &Inner, stream: &TcpStream, cancel: &AtomicBool) {
    let _ = stream.set_read_timeout(None);
    let mut r = stream;
    let mut scratch = [0u8; 64];
    // Stray bytes are read and ignored: the protocol sends nothing here.
    while matches!(r.read(&mut scratch), Ok(n) if n > 0) {}
    cancel_request(inner, cancel);
}

/// Raises a request's cancel flag and wakes the pool's job waiters, so a
/// measurement in flight ends now rather than at its next event.
fn cancel_request(inner: &Inner, cancel: &AtomicBool) {
    cancel.store(true, Ordering::SeqCst);
    inner.pool.notify_cancel();
}

/// One executor: pop → process → respond, until drained.
fn executor_loop(inner: &Arc<Inner>) {
    loop {
        let item = {
            let mut q = inner.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(item) = q.pop_front() {
                    inner.busy.fetch_add(1, Ordering::SeqCst);
                    inner
                        .telemetry
                        .set_gauge("serve.queue_depth", q.len() as f64);
                    break Some(item);
                }
                // `Server::run` notifies once `drained` has seen the raised
                // drain and then taken this lock, so an executor either
                // sees the flag here or is already waiting for that
                // notify: the wait needs no timeout.
                if inner.drain.load(Ordering::SeqCst) {
                    break None;
                }
                q = inner.cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        };
        let Some(item) = item else { return };
        inner
            .telemetry
            .histogram("serve.queue_wait")
            .record_us(item.accepted_at.elapsed().as_micros() as u64);
        let started = Instant::now();
        let response = process(inner, &item);
        let ok = !matches!(response, ServeMessage::Failed { .. });
        // A fast request (a cache hit) can finish before the admission
        // thread has written `Accepted`; wait for that frame so the
        // response never overtakes it on the shared socket.
        if !item.accepted_sent.load(Ordering::SeqCst) {
            let mut q = inner.queue.lock().unwrap_or_else(|p| p.into_inner());
            while !item.accepted_sent.load(Ordering::SeqCst) {
                q = inner.cv.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        }
        // Fold the service time into the EWMA before replying: a client
        // that submits again as soon as it reads the reply must be
        // admitted against an estimate that includes this request.
        let service_us = started.elapsed().as_micros() as u64;
        inner
            .telemetry
            .histogram("serve.request")
            .record_us(service_us);
        {
            let mut e = inner.ewma_us.lock().unwrap_or_else(|p| p.into_inner());
            let sample = service_us as f64;
            *e = Some(match *e {
                None => sample,
                Some(prev) => 0.3 * sample + 0.7 * prev,
            });
        }
        let mut w = &item.stream;
        let _ = protocol::send(&mut w, &response);
        // Ends the admission thread's disconnect watch.
        let _ = item.stream.shutdown(Shutdown::Both);
        if ok {
            inner.completed.fetch_add(1, Ordering::SeqCst);
        } else {
            inner.failed.fetch_add(1, Ordering::SeqCst);
        }
        inner.busy.fetch_sub(1, Ordering::SeqCst);
        inner.cv.notify_all();
        if drained(inner) {
            wake_accept(inner.client_addr);
        }
    }
}

fn failed(id: u64, kind: FailKind, detail: impl Into<String>) -> ServeMessage {
    ServeMessage::Failed {
        request_id: id,
        kind,
        detail: detail.into(),
    }
}

/// Serves one admitted request end to end.
fn process(inner: &Arc<Inner>, item: &Queued) -> ServeMessage {
    let id = item.id;
    let _span = inner.telemetry.span("serve.process");
    if item.cancel.load(Ordering::SeqCst) {
        return failed(id, FailKind::Canceled, "client disconnected while queued");
    }
    if item.deadline.is_some_and(|d| Instant::now() >= d) {
        return failed(
            id,
            FailKind::DeadlineExceeded,
            "deadline expired while queued",
        );
    }

    let fingerprint = item.req.spec.fingerprint();
    // Memory first, then the persistent spill store (a disk hit is
    // promoted into memory and is every bit a cache hit: zero probe
    // evaluations, byte-identical CLSM), then a real measurement.
    let cached = inner.cache.get(fingerprint).or_else(|| {
        inner.disk.as_ref().and_then(|d| {
            d.load(fingerprint).map(|entry| {
                let entry = Arc::new(entry);
                inner.cache.insert(fingerprint, Arc::clone(&entry));
                entry
            })
        })
    });
    let (omega, cache_hit, evaluations) = match cached {
        Some(entry) => {
            inner.cache_hits.fetch_add(1, Ordering::SeqCst);
            inner.telemetry.counter("serve.cache_hits").incr();
            (entry, true, 0u64)
        }
        None => {
            inner.cache_misses.fetch_add(1, Ordering::SeqCst);
            inner.telemetry.counter("serve.cache_misses").incr();
            match measure(inner, item, fingerprint) {
                Ok((entry, evals)) => (entry, false, evals),
                Err(resp) => return resp,
            }
        }
    };
    inner
        .telemetry
        .set_gauge("serve.cache_entries", inner.cache.len() as f64);
    inner
        .telemetry
        .set_gauge("serve.cache.bytes", inner.cache.bytes() as f64);

    match item.req.op {
        Op::Measure => ServeMessage::MeasureDone {
            request_id: id,
            cache_hit,
            evaluations,
            clsm: omega.clsm.clone(),
        },
        Op::Assign { avg_bits } => match solve_row(inner, item, &omega, avg_bits) {
            Ok(row) => ServeMessage::AssignDone {
                request_id: id,
                cache_hit,
                evaluations,
                row,
            },
            Err(resp) => resp,
        },
        Op::Sweep { from, to, step } => {
            let mut rows = Vec::new();
            let mut budget = from;
            // The f64 walk tolerates accumulation error at the upper
            // bound (4.0 after eight 0.25 steps must still be included).
            while budget <= to + 1e-9 {
                match solve_row(inner, item, &omega, budget) {
                    Ok(row) => rows.push(row),
                    Err(resp) => return resp,
                }
                budget += step;
            }
            ServeMessage::SweepDone {
                request_id: id,
                cache_hit,
                evaluations,
                rows,
            }
        }
    }
}

/// Measures Ω for a cache miss: model build, the request's plan swept on
/// the pool ([`run_sweep`]), cache population. Returns the cached entry
/// plus the probe evaluations spent.
// The Err is a ready-to-send `Failed` frame; this is a cold path, so
// boxing it would only add noise at every `?` site.
#[allow(clippy::result_large_err)]
fn measure(
    inner: &Arc<Inner>,
    item: &Queued,
    fingerprint: u64,
) -> Result<(Arc<CachedOmega>, u64), ServeMessage> {
    let id = item.id;
    let spec = &item.req.spec;
    let _span = inner.telemetry.span("serve.measure");
    let (mut network, set) = (inner.provider)(spec)
        .map_err(|e| failed(id, FailKind::Internal, format!("model provider: {e}")))?;
    let bits = BitWidthSet::new(&spec.bits); // widths validated at admission
    let scheme = scheme_from_u8(spec.scheme).expect("scheme validated at admission");
    let (tables, reused) = {
        let mut warm = inner.warm.lock().unwrap_or_else(|p| p.into_inner());
        ModelTables::reuse_or_build(&mut warm, &network, &bits, scheme)
    };
    if reused {
        inner.telemetry.counter("serve.tables_reuse").incr();
    }
    let ctx = ShardContext::with_tables(
        tables,
        set.len(),
        spec.batch_size as usize,
        spec.use_prefix_cache,
    );
    let telemetry = inner.telemetry.clone();
    // Estimation requests (admission validated the tag) sweep their
    // estimation plan; pooled workers only ever see the probe ids their
    // leases carry, so the job itself is the same as an exact one's.
    let est = GridEstimation::from_job(spec.estimator, spec.probe_budget)
        .expect("estimator validated at admission");
    let estimation = est.map(|e| EstimationPlan::new(&ctx, e.kind, e.probe_budget));
    let (plan, probes_total): (&dyn OmegaPlan, u64) = match &estimation {
        Some(p) => (p, p.budget() as u64),
        None => (&ctx, ctx.total_probes() as u64),
    };
    let job = JobSpec {
        model: spec.model.clone(),
        set_size: spec.set_size,
        set_seed: spec.set_seed,
        batch_size: spec.batch_size,
        bits: spec.bits.clone(),
        scheme: spec.scheme,
        use_prefix_cache: spec.use_prefix_cache,
        fingerprint: ctx.fingerprint(),
        // Pooled jobs do not ship worker trace events; request latency
        // is captured by the serve.request histogram instead.
        trace_id: 0,
    };
    let mut progress_writer = &item.stream;
    let accepted_sent = Arc::clone(&item.accepted_sent);
    let mut local = |ids: &[ProbeId]| ctx.run_probes(&mut network, &set, ids, &telemetry);
    let mut control = JobControl {
        cancel: &item.cancel,
        deadline: item.deadline,
        fallback: Fallback::Local(&mut local),
        progress: Box::new(|probes_done| {
            // Never write before the admission thread's `Accepted` frame
            // is on the wire — and never fail the request over a
            // progress frame (a vanished client raises the cancel flag
            // through the disconnect watcher anyway).
            if accepted_sent.load(Ordering::SeqCst) {
                let _ = protocol::send(
                    &mut progress_writer,
                    &ServeMessage::Progress {
                        request_id: id,
                        probes_done: probes_done.min(probes_total),
                        probes_total,
                    },
                );
            }
        }),
    };
    let outcome =
        run_sweep(&inner.pool, plan, job, None, false, &mut control).map_err(|e| match e {
            DistError::DeadlineExceeded => failed(
                id,
                FailKind::DeadlineExceeded,
                "deadline expired mid-measure",
            ),
            DistError::Canceled => failed(id, FailKind::Canceled, "request canceled mid-measure"),
            DistError::RetriesExhausted(detail) => {
                failed(id, FailKind::WorkerRetriesExhausted, detail)
            }
            other => failed(id, FailKind::Internal, other.to_string()),
        })?;
    drop(control);
    let shard_service = telemetry.histogram("serve.pool.shard_service");
    for &seconds in &outcome.shard_seconds {
        shard_service.record_us((seconds * 1e6) as u64);
    }
    // How long each pool round of the miss waited for its first lease
    // (a round that local takeover answered alone leased nothing).
    for &seconds in &outcome.dispatch_seconds {
        telemetry
            .histogram("serve.pool.dispatch")
            .record_us((seconds * 1e6) as u64);
    }
    let matrix = outcome.matrix;
    let evaluations = matrix.stats.evaluations as u64;
    let entry = Arc::new(CachedOmega {
        clsm: sensitivities_to_bytes(&matrix),
        param_counts: network.layer_param_counts(),
        matrix,
    });
    inner.cache.insert(fingerprint, Arc::clone(&entry));
    if let Some(disk) = &inner.disk {
        // Spill-store commits are best-effort: a full or read-only disk
        // costs persistence, never the request.
        if let Err(e) = disk.store(fingerprint, &entry) {
            inner
                .telemetry
                .counter("serve.disk_cache.store_errors")
                .incr();
            if inner.opts.verbose {
                eprintln!("serve: disk-cache store failed for {fingerprint:#018x}: {e}");
            }
        }
    }
    Ok((entry, evaluations))
}

/// Solves one budget row, threading the request deadline and cancel
/// flag into the solver so the anytime solve falls back instead of
/// overrunning.
#[allow(clippy::result_large_err)]
fn solve_row(
    inner: &Arc<Inner>,
    item: &Queued,
    omega: &CachedOmega,
    avg_bits: f64,
) -> Result<AssignRow, ServeMessage> {
    let _span = inner.telemetry.span("serve.solve");
    let sizes = LayerSizes::new(omega.param_counts.clone());
    let budget = sizes.budget_from_avg_bits(avg_bits);
    let options = AssignOptions {
        solver: SolverConfig {
            deadline: item.deadline,
            cancel: Arc::clone(&item.cancel),
            telemetry: inner.telemetry.clone(),
            ..SolverConfig::default()
        },
        telemetry: inner.telemetry.clone(),
        ..AssignOptions::default()
    };
    let assignment = assign_bits(&omega.matrix, &sizes, budget, &options)
        .map_err(|e| failed(item.id, FailKind::Internal, format!("solve: {e}")))?;
    if item.cancel.load(Ordering::SeqCst) {
        return Err(failed(
            item.id,
            FailKind::Canceled,
            "request canceled mid-solve",
        ));
    }
    Ok(AssignRow {
        avg_bits: assignment.avg_bits(&sizes),
        bits: assignment.bits.iter().map(|b| b.bits()).collect(),
        predicted_delta_loss: assignment.predicted_delta_loss,
        cost_bits: assignment.cost_bits,
        gap: assignment.solution.gap,
        method: assignment.solution.method_used.label().to_string(),
        termination: assignment.solution.termination.label().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(estimator: u8, probe_budget: u64, estimator_seed: u64) -> SubmitRequest {
        SubmitRequest {
            spec: MeasureSpec {
                model: "resnet20".into(),
                set_size: 8,
                set_seed: 0,
                batch_size: 8,
                bits: vec![4, 8],
                scheme: 0,
                use_prefix_cache: true,
                estimator,
                probe_budget,
                estimator_seed,
            },
            op: Op::Measure,
            deadline_ms: 0,
        }
    }

    /// Estimators take no seed, so admission accepts an estimated spec
    /// only with the seed every estimated Ω records — the same way it
    /// accepts an exact spec only with a zero seed.
    #[test]
    fn admission_refuses_an_estimator_seed_other_than_the_default() {
        assert_eq!(validate(&request(3, 40, DEFAULT_ESTIMATOR_SEED)), None);
        assert_eq!(validate(&request(0, 0, 0)), None);
        for seed in [0, 7, DEFAULT_ESTIMATOR_SEED + 1] {
            let why = validate(&request(3, 0, seed)).expect("refused");
            assert!(why.contains("estimator seed"), "unexpected reason: {why}");
        }
        let why = validate(&request(0, 0, DEFAULT_ESTIMATOR_SEED)).expect("refused");
        assert!(
            why.contains("requires an estimator"),
            "unexpected reason: {why}"
        );
        for tag in [1, 2, 4, 200] {
            let why = validate(&request(tag, 0, DEFAULT_ESTIMATOR_SEED)).expect("refused");
            assert!(
                why.contains("unknown estimator"),
                "unexpected reason: {why}"
            );
        }
    }
}
