//! The sweep worker: connects to a worker pool, reconstructs each job
//! locally, and evaluates the probes each lease carries until told to
//! shut down. It never plans: which probes run is the coordinator's call.
//!
//! The worker's main thread is synchronous — receive a lease, evaluate
//! it, report it — while a side thread sends `Heartbeat` frames every
//! [`WorkerOptions::heartbeat_interval`] so the pool can tell a
//! slow shard from a dead worker. Writes from the two threads are
//! serialized through a mutex; the main thread is the only reader.

use crate::error::DistError;
use crate::frame::{FrameError, PROTOCOL_VERSION};
use crate::protocol::{self, scheme_from_u8, JobSpec, Message};
use clado_core::{fnv1a, ModelTables, ShardContext};
use clado_models::DataSplit;
use clado_nn::Network;
use clado_quant::BitWidthSet;
use clado_telemetry::{faultpoint, Telemetry};
use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Options controlling a worker run.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Interval between liveness frames while the main thread measures.
    /// Must be comfortably below the pool's heartbeat timeout.
    pub heartbeat_interval: Duration,
    /// Total window for connecting (with retries) to the pool —
    /// workers often start before the pool finishes binding.
    pub connect_timeout: Duration,
    /// Maximum connection retries after the first failed attempt.
    /// Delays grow 100 ms → 1.6 s (capped, ±25% jitter), so the default
    /// of 5 spans roughly three seconds — fleet startup order doesn't
    /// matter. Whichever of the retry budget and [`Self::connect_timeout`]
    /// runs out first ends the attempt.
    pub connect_retries: u32,
    /// Telemetry sink for spans and counters.
    pub telemetry: Telemetry,
    /// Print coarse progress to stderr.
    pub verbose: bool,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        Self {
            heartbeat_interval: Duration::from_millis(500),
            connect_timeout: Duration::from_secs(10),
            connect_retries: 5,
            telemetry: Telemetry::disabled(),
            verbose: false,
        }
    }
}

/// What a worker accomplished before shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerReport {
    /// Shards evaluated and reported.
    pub shards: u64,
    /// Probe records contributed.
    pub probes: u64,
    /// Busy time: summed shard-evaluation wall time.
    pub seconds: f64,
}

/// A connection whose writes are serialized across threads (main loop +
/// heartbeat). Reads stay single-threaded on the main loop.
struct Conn {
    stream: TcpStream,
    write: Mutex<()>,
}

impl Conn {
    fn send(&self, msg: &Message) -> Result<(), FrameError> {
        let _guard = self.write.lock().unwrap_or_else(|p| p.into_inner());
        let mut w: &TcpStream = &self.stream;
        protocol::send(&mut w, msg)?;
        w.flush()?;
        Ok(())
    }

    fn recv(&self) -> Result<Message, FrameError> {
        let mut r: &TcpStream = &self.stream;
        protocol::recv(&mut r)
    }
}

/// Stops and joins the heartbeat thread on every exit path — including
/// a panic unwinding out of the lease loop, where leaving the thread
/// running would hold the socket open and stall the pool's
/// eviction until its heartbeat deadline. The thread parks between
/// beats, so the unpark ends its wait at once.
struct HeartbeatGuard {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for HeartbeatGuard {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

/// Sends `Heartbeat` frames every `interval` until `stop` is raised (the
/// raiser unparks this thread) or the link fails.
fn heartbeat_loop(conn: &Conn, interval: Duration, stop: &AtomicBool, lease: &AtomicU64) {
    let mut next_beat = Instant::now() + interval;
    while !stop.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now < next_beat {
            // Parking may end early (an unpark, or spuriously): recheck.
            std::thread::park_timeout(next_beat - now);
            continue;
        }
        next_beat = now + interval;
        let msg = Message::Heartbeat {
            lease: lease.load(Ordering::Relaxed),
        };
        if conn.send(&msg).is_err() {
            return;
        }
    }
}

/// Backoff before retry `attempt` (0-based): 100 ms doubling to a
/// 1.6 s cap, with ±25% jitter derived deterministically from
/// (pid, attempt) so a restarted fleet doesn't reconnect in lockstep.
fn backoff_delay(attempt: u32) -> Duration {
    const BASE_MS: u64 = 100;
    const CAP_MS: u64 = 1_600;
    let nominal = (BASE_MS << attempt.min(10)).min(CAP_MS);
    let mut seed = [0u8; 8];
    seed[..4].copy_from_slice(&std::process::id().to_le_bytes());
    seed[4..].copy_from_slice(&attempt.to_le_bytes());
    let jitter_span = nominal / 2; // ±25% around the nominal delay
    let jitter = fnv1a(&seed) % (jitter_span + 1);
    Duration::from_millis(nominal - jitter_span / 2 + jitter)
}

/// Connects to `addr`, retrying a failed connect up to `retries` times
/// under capped exponential backoff (100 ms doubling to 1.6 s, ±25%
/// jitter from pid ‖ attempt, so a fleet restarting against one endpoint
/// doesn't reconnect in lockstep). With a `window`, retries also stop
/// once it has elapsed. Pool workers and serve clients both connect
/// through it.
///
/// # Errors
///
/// The last connect error once the retries or the window run out.
pub fn connect_with_retry(
    addr: &str,
    window: Option<Duration>,
    retries: u32,
) -> io::Result<TcpStream> {
    let deadline = window.map(|w| Instant::now() + w);
    let mut attempt = 0u32;
    loop {
        match TcpStream::connect(addr) {
            Ok(stream) => return Ok(stream),
            Err(e) if attempt >= retries => return Err(e),
            Err(e) => {
                let mut delay = backoff_delay(attempt);
                attempt += 1;
                if let Some(deadline) = deadline {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(e);
                    }
                    delay = delay.min(deadline - now);
                }
                std::thread::sleep(delay);
            }
        }
    }
}

/// Why the lease loop handed control back to the caller.
enum JobEnd {
    /// `JobDone` (v3): the job is over, the connection is not.
    JobOver,
    /// `Shutdown`: disconnect and exit.
    Shutdown,
}

/// The lease phase of one job, entered right after `Ready`: evaluate
/// and report each lease the pool pushes until `JobDone` or `Shutdown`.
fn lease_loop(
    conn: &Conn,
    ctx: &ShardContext,
    network: &mut Network,
    set: &DataSplit,
    opts: &WorkerOptions,
    current_lease: &AtomicU64,
    report: &mut WorkerReport,
) -> Result<JobEnd, DistError> {
    let telemetry = &opts.telemetry;
    // From `Ready` or `ShardDone` to the pool's next frame.
    let roundtrip = telemetry.histogram("dist.roundtrip");
    let mut reported = Instant::now();
    loop {
        let msg = conn.recv()?;
        roundtrip.record(reported.elapsed());
        match msg {
            Message::Lease {
                lease,
                span_id,
                shard,
                probes,
            } => {
                current_lease.store(lease, Ordering::Relaxed);
                // Debug-build fail point: a worker process armed with
                // `dist.worker.shard=abort` dies here, mid-lease,
                // exactly like a SIGKILL.
                faultpoint!("dist.worker.shard", std::process::abort());
                let (records, stats) = {
                    let _s = telemetry.span_with_args(
                        "dist.work.shard",
                        vec![
                            ("lease".to_string(), (lease as i64).into()),
                            ("span_id".to_string(), (span_id as i64).into()),
                            ("shard".to_string(), shard.to_string().into()),
                        ],
                    );
                    ctx.run_probes(network, set, &probes, telemetry)
                };
                current_lease.store(0, Ordering::Relaxed);
                report.shards += 1;
                report.probes += records.len() as u64;
                report.seconds += stats.seconds;
                telemetry.counter("dist.shards_evaluated").incr();
                if opts.verbose {
                    eprintln!(
                        "dist: evaluated {shard} ({} probes, {:.2}s)",
                        records.len(),
                        stats.seconds
                    );
                }
                // Ship the trace events accumulated while this shard
                // ran (the buffer is empty when tracing is off).
                clado_telemetry::flush_thread_local();
                let events = telemetry.take_trace_events();
                conn.send(&Message::ShardDone {
                    lease,
                    shard,
                    records,
                    stats,
                    events,
                })?;
                reported = Instant::now();
            }
            Message::JobDone => return Ok(JobEnd::JobOver),
            Message::Shutdown => return Ok(JobEnd::Shutdown),
            Message::Reject { reason } => return Err(DistError::Rejected(reason)),
            other => {
                return Err(FrameError::Malformed(format!(
                    "unexpected pool message kind {}",
                    other.kind()
                ))
                .into())
            }
        }
    }
}

/// Runs a worker against the pool at `addr` (a `clado measure
/// --workers/--listen` sweep or the `clado serve` daemon). The
/// connection outlives a single job: after `JobDone` the worker keeps
/// the socket warm and awaits the next `Job`; `Shutdown` — or the pool
/// closing the socket while the worker is between jobs — ends the
/// session cleanly. `provider` reconstructs the model and sensitivity
/// set from a [`JobSpec`] (the CLI passes the pretrained-model loader;
/// tests and benches pass synthetic builders). It is consulted once per
/// distinct job spec: repeat specs (ignoring the trace id) reuse the
/// previous job's context whole. A new spec reuses the last job's
/// [`ModelTables`] when they [fit](ModelTables::fits) the provided
/// network, which holds whenever the provider hands out clones of one
/// loaded model (as the CLI's does): then only the set and the per-job
/// fields change between jobs.
///
/// # Errors
///
/// [`DistError::Rejected`] when the pool refuses the worker (version or
/// fingerprint mismatch), [`DistError::Provider`] when the job cannot be
/// reconstructed, and [`DistError::Frame`]/[`DistError::Io`] when the
/// link drops mid-job. A disconnect between jobs is a clean exit.
pub fn run_worker<F>(
    addr: &str,
    mut provider: F,
    opts: &WorkerOptions,
) -> Result<WorkerReport, DistError>
where
    F: FnMut(&JobSpec) -> Result<(Network, DataSplit), String>,
{
    let telemetry = opts.telemetry.clone();
    let _root = telemetry.span("dist.work");
    let stream = connect_with_retry(addr, Some(opts.connect_timeout), opts.connect_retries)
        .map_err(DistError::Io)?;
    stream.set_nodelay(true).map_err(DistError::Io)?;
    let conn = Arc::new(Conn {
        stream,
        write: Mutex::new(()),
    });
    conn.send(&Message::Hello {
        protocol: PROTOCOL_VERSION,
        pid: std::process::id(),
    })?;

    // One heartbeat thread for the whole connection (lease 0 between
    // jobs), started before any (potentially slow) model reconstruction:
    // the pool's heartbeat deadline is what detects a dead worker, so
    // the liveness signal must not pause between jobs.
    let stop = Arc::new(AtomicBool::new(false));
    let current_lease = Arc::new(AtomicU64::new(0));
    let _heartbeat = {
        let conn = Arc::clone(&conn);
        let stop_flag = Arc::clone(&stop);
        let lease = Arc::clone(&current_lease);
        let interval = opts.heartbeat_interval;
        HeartbeatGuard {
            stop: Arc::clone(&stop),
            handle: Some(std::thread::spawn(move || {
                heartbeat_loop(&conn, interval, &stop_flag, &lease);
            })),
        }
    };

    // The last job's reconstruction; a sweep's rounds share one spec.
    let mut cached: Option<(JobSpec, Network, DataSplit, ShardContext)> = None;
    let mut report = WorkerReport::default();
    loop {
        // Await the next job. The pool may sit idle between requests;
        // the heartbeat thread keeps the link alive meanwhile.
        let job = match conn.recv() {
            Ok(Message::Job(job)) => job,
            Ok(Message::Shutdown) => return Ok(report),
            Ok(Message::Reject { reason }) => return Err(DistError::Rejected(reason)),
            Ok(other) => {
                return Err(FrameError::Malformed(format!(
                    "expected Job, got kind {}",
                    other.kind()
                ))
                .into())
            }
            Err(e) if e.is_disconnect() => return Ok(report),
            Err(e) => return Err(e.into()),
        };
        if job.bits.is_empty() {
            return Err(FrameError::Malformed("job carries no bit-widths".into()).into());
        }
        let scheme = scheme_from_u8(job.scheme)?;
        if job.trace_id != 0 {
            telemetry.set_trace_id(job.trace_id);
            telemetry.set_trace_enabled(true);
        }

        let key = JobSpec {
            trace_id: 0,
            ..job.clone()
        };
        let fresh = !matches!(&cached, Some((k, ..)) if *k == key);
        if fresh {
            let _s = telemetry.span("dist.work.load");
            // Only the last job's model tables outlive it, for a next
            // spec on the same model; its network and set go now.
            let mut warm = cached.take().map(|(.., ctx)| Arc::clone(ctx.tables()));
            let (network, set) = provider(&job).map_err(DistError::Provider)?;
            let bits = BitWidthSet::new(&job.bits);
            let (tables, reused) = ModelTables::reuse_or_build(&mut warm, &network, &bits, scheme);
            if reused {
                telemetry.counter("dist.pool.tables_reuse").incr();
            }
            let ctx = ShardContext::with_tables(
                tables,
                set.len(),
                job.batch_size as usize,
                job.use_prefix_cache,
            );
            cached = Some((key, network, set, ctx));
        } else {
            telemetry.counter("dist.pool.model_reuse").incr();
        }
        let Some((_, network, set, ctx)) = cached.as_mut() else {
            unreachable!("cache populated above");
        };
        let fingerprint = ctx.fingerprint();
        if opts.verbose && fingerprint != job.fingerprint {
            eprintln!(
                "dist: local fingerprint {fingerprint:#018x} differs from job \
                 {:#018x}; expecting rejection",
                job.fingerprint
            );
        }
        conn.send(&Message::Ready {
            fingerprint,
            clock_us: telemetry.now_us(),
        })?;
        match lease_loop(&conn, ctx, network, set, opts, &current_lease, &mut report)? {
            JobEnd::JobOver => {
                telemetry.counter("dist.pool.jobs_completed").incr();
            }
            JobEnd::Shutdown => return Ok(report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_with_bounded_jitter() {
        for attempt in 0..12 {
            let nominal = (100u64 << attempt.min(10)).min(1_600);
            let d = backoff_delay(attempt).as_millis() as u64;
            assert!(
                d >= nominal - nominal / 2 / 2 && d <= nominal + nominal / 2 / 2 + 1,
                "attempt {attempt}: delay {d} ms outside ±25% of {nominal} ms"
            );
        }
        // Deterministic within a process.
        assert_eq!(backoff_delay(3), backoff_delay(3));
    }

    #[test]
    fn connect_retries_eventually_surface_the_io_error() {
        // Nothing listens on a reserved-but-closed port: the connect
        // fails after its retries instead of hanging.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let started = Instant::now();
        assert!(connect_with_retry(&addr, None, 2).is_err());
        // Two backoffs (≥ ~75 ms + ~150 ms nominal-with-jitter) elapsed.
        assert!(started.elapsed() >= Duration::from_millis(150));
        // A spent window stops the retries early.
        let started = Instant::now();
        assert!(connect_with_retry(&addr, Some(Duration::ZERO), 5).is_err());
        assert!(started.elapsed() < Duration::from_millis(150));
    }
}
