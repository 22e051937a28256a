//! The shard scheduler: a pool of warm worker connections that runs
//! measurement jobs — one per sweep round ([`crate::run_sweep`]), for
//! `clado measure --workers/--listen` and for every `clado serve` cache
//! miss alike.
//!
//! # Lease/heartbeat state machine
//!
//! Each accepted connection gets its own thread. After the `Hello`
//! handshake a reader thread decodes the worker's frames into the
//! connection's channel, and the worker is *live*: it cycles idle → job
//! → lease loop → `JobDone` → idle until the pool shuts down or the
//! worker dies. The connection thread waits only on that channel, which
//! also carries the pool's wake-ups — [`WorkerPool::run_job`] posted or
//! ended a job, an eviction requeued shards, or [`WorkerPool::shutdown`]
//! ran — under one deadline: a worker that sends no frame for the
//! heartbeat timeout is lost.
//!
//! * **Idle.** The thread hands the worker an open job as soon as one
//!   exists — right after the handshake, after every `JobDone`, and on
//!   the wake-up a newly posted job sends.
//! * **Job.** `Job` → `Ready`. A worker whose `Ready` echoes a different
//!   fingerprint reconstructed another configuration: it is refused with
//!   `Reject`, counted, and dropped, while the job runs on.
//! * **Lease loop.** The thread pushes leases: after `Ready` and after
//!   each `ShardDone` it sends the worker the job's next pending shard,
//!   or `JobDone` once the job is over. While every remaining shard is
//!   leased to another worker it waits for a frame or a wake-up — an
//!   eviction requeued shards, or the job ended. A job that ends under a
//!   held lease (canceled, failed) sends that worker `JobDone` at once,
//!   and the late `ShardDone` is dropped. *Any* frame resets the
//!   heartbeat deadline, and workers heartbeat from a side thread while
//!   they evaluate, so a slow shard never looks like a dead worker.
//!
//! A missed deadline, a closed socket, or a malformed frame ends the
//! connection, and every lease the worker held is requeued at the
//! *front* of its job's queue, leasable at once, and every live
//! connection is woken. A shard evicted more than
//! [`PoolOptions::shard_retries`] times fails its job with
//! [`DistError::RetriesExhausted`] — never the pool. A shard only counts
//! as complete once its `ShardDone` is integrated (and, for a journaled
//! job, committed to the CLSJ journal under the scheduler lock), so
//! leases can be evicted and reassigned any number of times without
//! losing or double-counting work.

use crate::accept::{accept_until, wake_accept};
use crate::error::DistError;
use crate::frame::{FrameError, PROTOCOL_VERSION};
use crate::protocol::{self, JobSpec, Message};
use clado_core::{
    JournalWriter, MeasureError, ProbeId, ProbeRecord, Records, Round, ShardRunStats, ShardSpec,
};
use clado_telemetry::{panic_message, ManifestValue, Telemetry, TraceEvent};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Events a connection's channel holds before its reader thread blocks,
/// which stops reading the socket: a worker that floods frames meets TCP
/// backpressure, not an unbounded queue.
const CONN_EVENTS: usize = 8;

/// Options controlling the worker pool.
#[derive(Debug, Clone)]
pub struct PoolOptions {
    /// A worker that sends no frame for this long loses its leases.
    pub heartbeat_timeout: Duration,
    /// A shard evicted more than this many times fails its job with
    /// [`DistError::RetriesExhausted`].
    pub shard_retries: u32,
    /// Telemetry sink for the pool's lifetime counters (`dist.pool.*`)
    /// and lease/eviction trace instants.
    pub telemetry: Telemetry,
    /// Print coarse progress to stderr.
    pub verbose: bool,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self {
            heartbeat_timeout: Duration::from_secs(3),
            shard_retries: 5,
            telemetry: Telemetry::disabled(),
            verbose: false,
        }
    }
}

/// One measurement job for [`WorkerPool::run_job`].
pub struct Job {
    /// The spec sent to every worker; `Ready` must echo its fingerprint.
    /// A nonzero `trace_id` makes the pool hand out lease span ids and
    /// merge the trace events workers ship.
    pub spec: JobSpec,
    /// The shards to evaluate, each with the probe ids its lease
    /// carries.
    pub shards: Round,
    /// Records known before the job starts (earlier rounds, or resumed
    /// from a journal); they are neither journaled again nor counted as
    /// evaluated.
    pub records: Records,
    /// When set, each completed shard's fresh records are committed to
    /// this CLSJ journal under the scheduler lock; a failed commit fails
    /// the job with [`DistError::Journal`].
    pub journal: Option<JournalWriter>,
}

/// Evaluates probe ids in-process: `ShardContext::run_probes` on a
/// local replica.
pub type LocalProbes<'a> = dyn FnMut(&[ProbeId]) -> (Vec<ProbeRecord>, ShardRunStats) + 'a;

/// What a job does while no worker is live.
pub enum Fallback<'a> {
    /// Evaluate pending shards' probes in-process, so a pool without a
    /// fleet still answers (slowly) instead of hanging.
    Local(&'a mut LocalProbes<'a>),
    /// Wait for workers; fail with [`DistError::NoWorkers`] once none has
    /// been live for this long (`None` waits forever).
    Wait(Option<Duration>),
}

/// How a job runs besides its shards: when it gives up, what runs while
/// no worker is live, and who hears of its progress.
pub struct JobControl<'a> {
    /// Raising this fails the job with [`DistError::Canceled`]; call
    /// [`WorkerPool::notify_cancel`] after raising it.
    pub cancel: &'a AtomicBool,
    /// Past this instant the job fails with
    /// [`DistError::DeadlineExceeded`].
    pub deadline: Option<Instant>,
    /// What the job does while no worker is live.
    pub fallback: Fallback<'a>,
    /// Called (outside the pool lock) with the cumulative probe-record
    /// count each time it grows.
    pub progress: Box<dyn FnMut(u64) + 'a>,
}

impl JobControl<'_> {
    /// Waits for workers — failing with [`DistError::NoWorkers`] once
    /// none has been live for `idle_timeout` — with no cancel flag,
    /// deadline or progress reports.
    pub fn wait(idle_timeout: Option<Duration>) -> JobControl<'static> {
        static NEVER: AtomicBool = AtomicBool::new(false);
        JobControl {
            cancel: &NEVER,
            deadline: None,
            fallback: Fallback::Wait(idle_timeout),
            progress: Box::new(|_| {}),
        }
    }
}

/// Per-worker accounting for one job.
#[derive(Debug, Clone, Copy)]
pub struct WorkerSummary {
    /// Pool-assigned worker id (connection order, from 0).
    pub id: u64,
    /// The worker's OS process id from its `Hello`.
    pub pid: u32,
    /// Shards this worker completed.
    pub shards: u64,
    /// Probe records this worker contributed.
    pub probes: u64,
    /// Busy time: summed shard-evaluation wall time.
    pub seconds: f64,
}

/// What one completed job produced.
pub struct JobOutcome {
    /// The job's initial records plus each completed shard's.
    pub records: Records,
    /// The job's journal, handed back for the next round.
    pub journal: Option<JournalWriter>,
    /// Summed run stats of the shards evaluated for this job.
    pub totals: ShardRunStats,
    /// Service time of each shard evaluated for this job, in completion
    /// order (workers and local fallback alike).
    pub shard_seconds: Vec<f64>,
    /// Workers that passed this job's `Ready` check, ordered by id.
    pub workers: Vec<WorkerSummary>,
    /// This job's leases evicted from dead, hung, or misbehaving workers.
    pub evictions: u64,
    /// When the job's first lease was granted (`None` if every shard was
    /// evaluated locally or none was pending).
    pub first_lease: Option<Instant>,
}

struct JobState {
    spec: JobSpec,
    /// The probe ids each shard's lease carries.
    probes: HashMap<ShardSpec, Vec<ProbeId>>,
    pending: VecDeque<ShardSpec>,
    /// Evictions suffered per shard.
    attempts: HashMap<ShardSpec, u32>,
    /// lease id → (shard, worker id).
    leases: HashMap<u64, (ShardSpec, u64)>,
    done: HashSet<ShardSpec>,
    total: usize,
    records: HashMap<ProbeId, ProbeRecord>,
    journal: Option<JournalWriter>,
    totals: ShardRunStats,
    shard_seconds: Vec<f64>,
    workers: BTreeMap<u64, WorkerSummary>,
    evictions: u64,
    first_lease: Option<Instant>,
    /// Set once; taken by the waiter.
    failed: Option<DistError>,
}

impl JobState {
    fn open(&self) -> bool {
        self.failed.is_none() && self.done.len() < self.total
    }
}

struct PoolState {
    jobs: BTreeMap<u64, JobState>,
    next_job: u64,
    next_lease: u64,
    next_span_id: u64,
    /// worker id → the wake-up side of its connection's channel, for
    /// currently connected, handshaken workers.
    live_workers: HashMap<u64, SyncSender<Event>>,
    /// When the last live worker left (the pool's start until one has):
    /// [`Fallback::Wait`]'s idle limit runs from here.
    idle_since: Instant,
    /// Workers refused over the pool's lifetime (protocol version or
    /// job fingerprint mismatch).
    rejected: u64,
    /// Running connection threads; [`WorkerPool::shutdown`] waits for 0.
    connections: usize,
}

impl PoolState {
    /// Wakes every live connection thread: a job was posted or ended, an
    /// eviction requeued shards, or the pool is shutting down.
    fn wake_all(&self) {
        for wake in self.live_workers.values() {
            // Never blocks under the pool lock. A full channel holds
            // events already, after each of which an idle thread looks
            // for work again; a closed one is a connection already
            // ending.
            let _ = wake.try_send(Event::Wake);
        }
    }
}

struct Shared {
    state: Mutex<PoolState>,
    /// Notified when a job's state changes and when a connection ends.
    cv: Condvar,
    shutdown: AtomicBool,
    telemetry: Telemetry,
    heartbeat_timeout: Duration,
    shard_retries: u32,
    verbose: bool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// A pool of warm worker connections serving measurement jobs. Bind once
/// ([`WorkerPool::bind`]), run any number of jobs ([`WorkerPool::run_job`])
/// from any number of threads, then [`WorkerPool::shutdown`].
pub struct WorkerPool {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Binds the worker-facing socket and starts accepting workers. Use
    /// address `127.0.0.1:0` to let the OS pick a port.
    ///
    /// # Errors
    ///
    /// [`DistError::Io`] when the address cannot be bound.
    pub fn bind(addr: &str, opts: PoolOptions) -> Result<Self, DistError> {
        let listener = TcpListener::bind(addr).map_err(DistError::Io)?;
        let addr = listener.local_addr().map_err(DistError::Io)?;
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                jobs: BTreeMap::new(),
                next_job: 1,
                next_lease: 1,
                next_span_id: 1,
                live_workers: HashMap::new(),
                idle_since: Instant::now(),
                rejected: 0,
                connections: 0,
            }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            telemetry: opts.telemetry,
            heartbeat_timeout: opts.heartbeat_timeout,
            shard_retries: opts.shard_retries,
            verbose: opts.verbose,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            let mut next_worker = 0u64;
            let stop = || accept_shared.shutdown.load(Ordering::SeqCst);
            // An accept error ends the loop: the pool keeps the workers
            // it has and takes no more.
            let _ = accept_until(&listener, stop, |stream| {
                let id = next_worker;
                next_worker += 1;
                let shared = Arc::clone(&accept_shared);
                shared.lock().connections += 1;
                std::thread::spawn(move || {
                    serve_conn(stream, id, &shared);
                    shared.lock().connections -= 1;
                    shared.cv.notify_all();
                });
            });
        });
        Ok(Self {
            shared,
            addr,
            accept: Mutex::new(Some(accept)),
        })
    }

    /// The address workers should connect to.
    pub fn worker_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of currently connected, handshaken workers.
    pub fn live_workers(&self) -> usize {
        self.shared.lock().live_workers.len()
    }

    /// Workers refused so far (protocol version or job fingerprint
    /// mismatch).
    pub fn rejected_workers(&self) -> u64 {
        self.shared.lock().rejected
    }

    /// Wakes every [`WorkerPool::run_job`] waiter to recheck its cancel
    /// flag; call it after raising a [`JobControl::cancel`]. A waiter
    /// checks the flag under the pool lock, which this takes before it
    /// notifies, so a raise never falls between a check and the wait.
    pub fn notify_cancel(&self) {
        drop(self.shared.lock());
        self.shared.cv.notify_all();
    }

    /// Runs one job to completion: registers its shards, lets live
    /// workers lease them, and blocks until every shard is done or the
    /// job fails under `control`. The wait ends only on an event — a
    /// shard done, a worker joining or leaving, a job failing,
    /// [`WorkerPool::notify_cancel`] — or at the deadline or the idle
    /// limit, whichever comes first.
    ///
    /// # Errors
    ///
    /// [`DistError::DeadlineExceeded`] / [`DistError::Canceled`] when the
    /// deadline or cancel flag fires first,
    /// [`DistError::RetriesExhausted`] when a shard was evicted past the
    /// retry cap, [`DistError::Journal`] when a shard commit fails,
    /// [`DistError::NoWorkers`] when [`Fallback::Wait`] runs out, and
    /// [`DistError::Measure`] ([`MeasureError::WorkerPanic`]) when a
    /// [`Fallback::Local`] shard panics. Failures never tear down the
    /// pool.
    pub fn run_job(&self, job: Job, control: &mut JobControl<'_>) -> Result<JobOutcome, DistError> {
        let _span = self.shared.telemetry.span("dist.pool.job");
        let mut reported = job.records.len() as u64;
        let round: Vec<ShardSpec> = job.shards.iter().map(|&(shard, _)| shard).collect();
        let posted = Instant::now();
        let job_id = {
            let mut g = self.shared.lock();
            let id = g.next_job;
            g.next_job += 1;
            g.jobs.insert(
                id,
                JobState {
                    spec: job.spec,
                    total: job.shards.len(),
                    pending: round.iter().copied().collect(),
                    probes: job.shards.into_iter().collect(),
                    attempts: HashMap::new(),
                    leases: HashMap::new(),
                    done: HashSet::new(),
                    records: job.records,
                    journal: job.journal,
                    totals: ShardRunStats::default(),
                    shard_seconds: Vec::new(),
                    workers: BTreeMap::new(),
                    evictions: 0,
                    first_lease: None,
                    failed: None,
                },
            );
            g.wake_all();
            id
        };
        self.shared.telemetry.counter("dist.pool.jobs").incr();

        let mut g = self.shared.lock();
        loop {
            // With no live worker, `Fallback::Wait`'s limit runs from when
            // the last one left, or from the post if that was later. (A
            // limit too large to add never runs out.)
            let idle_limit = match &control.fallback {
                Fallback::Wait(Some(limit)) if g.live_workers.is_empty() => {
                    let from = g.idle_since.max(posted);
                    from.checked_add(*limit).map(|at| (*limit, at))
                }
                _ => None,
            };
            let job = g
                .jobs
                .get_mut(&job_id)
                .expect("a job is removed only by its waiter");
            // Report record growth outside the lock: the callback may write
            // to a client socket, which must never stall the scheduler.
            let integrated = job.records.len() as u64;
            if integrated > reported && job.open() {
                reported = integrated;
                drop(g);
                (control.progress)(reported);
                g = self.shared.lock();
                continue;
            }
            let failure = if let Some(e) = job.failed.take() {
                Some(e)
            } else if job.done.len() == job.total {
                let job = g.jobs.remove(&job_id).expect("job present");
                // Connections bound to the job without a lease now owe
                // their workers `JobDone`.
                g.wake_all();
                drop(g);
                self.shared.cv.notify_all();
                return Ok(JobOutcome {
                    records: job.records,
                    journal: job.journal,
                    totals: job.totals,
                    shard_seconds: job.shard_seconds,
                    workers: job.workers.into_values().collect(),
                    evictions: job.evictions,
                    first_lease: job.first_lease,
                });
            } else if control.cancel.load(Ordering::Relaxed) {
                Some(DistError::Canceled)
            } else if control.deadline.is_some_and(|d| Instant::now() >= d) {
                Some(DistError::DeadlineExceeded)
            } else {
                match idle_limit {
                    Some((waited, at)) if Instant::now() >= at => {
                        Some(DistError::NoWorkers { waited })
                    }
                    _ => None,
                }
            };
            if let Some(e) = failure {
                g.jobs.remove(&job_id);
                g.wake_all();
                drop(g);
                self.shared.cv.notify_all();
                return Err(e);
            }
            // Local takeover: with no live workers, the waiter evaluates
            // pending shards itself.
            if let Fallback::Local(local) = &mut control.fallback {
                if g.live_workers.is_empty() {
                    let job = g.jobs.get_mut(&job_id).expect("job present");
                    if let Some(shard) = job.pending.pop_front() {
                        let ids = job.probes[&shard].clone();
                        drop(g);
                        // A panicking probe fails the job, not the
                        // caller's thread: the job leaves the pool and the
                        // caller gets the typed error.
                        let ran = catch_unwind(AssertUnwindSafe(|| local(&ids)));
                        self.shared
                            .telemetry
                            .counter("dist.pool.local_shards")
                            .incr();
                        g = self.shared.lock();
                        let job = g.jobs.get_mut(&job_id).expect("job present");
                        match ran {
                            Ok((records, stats)) => {
                                integrate_done(job, None, shard, &records, &stats);
                            }
                            Err(payload) => {
                                let item = round.iter().position(|&s| s == shard);
                                let panicked = MeasureError::WorkerPanic {
                                    item: item.expect("a leased shard is in its round"),
                                    message: panic_message(&*payload),
                                };
                                job.failed.get_or_insert(DistError::Measure(panicked));
                            }
                        }
                        continue;
                    }
                }
            }
            let wake_at = idle_limit
                .map(|(_, at)| at)
                .into_iter()
                .chain(control.deadline)
                .min();
            g = match wake_at {
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    let waited = self.shared.cv.wait_timeout(g, left);
                    waited.unwrap_or_else(|p| p.into_inner()).0
                }
                None => self.shared.cv.wait(g).unwrap_or_else(|p| p.into_inner()),
            };
        }
    }

    /// Shuts the pool down: stops accepting, tells every idle worker to
    /// shut down, and waits (bounded) for connection threads to finish.
    /// Workers mid-lease finish naturally once their jobs are removed.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
        self.shared.lock().wake_all();
        if let Some(handle) = self.accept.lock().unwrap_or_else(|p| p.into_inner()).take() {
            let _ = handle.join();
        }
        // Idle connection threads send Shutdown on their wake-up, and
        // each one notifies the condvar as it ends; bound the wait so a
        // wedged socket cannot hold the caller's exit hostage.
        let deadline = Instant::now() + self.shared.heartbeat_timeout + Duration::from_secs(1);
        let mut g = self.shared.lock();
        while g.connections > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            g = self
                .shared
                .cv
                .wait_timeout(g, left)
                .unwrap_or_else(|p| p.into_inner())
                .0;
        }
    }
}

/// Integrates one completed shard (idempotently — a duplicate completion
/// after an eviction/re-lease race is ignored), journaling its fresh
/// records first when the job is journaled.
fn integrate_done(
    job: &mut JobState,
    worker: Option<u64>,
    shard: ShardSpec,
    records: &[ProbeRecord],
    stats: &ShardRunStats,
) {
    if job.done.contains(&shard) || job.failed.is_some() {
        return;
    }
    for rec in records {
        if let Entry::Vacant(slot) = job.records.entry(rec.id) {
            slot.insert(*rec);
            if let Some(w) = job.journal.as_mut() {
                w.append(*rec);
            }
        }
    }
    if let Some(w) = job.journal.as_mut() {
        if let Err(e) = w.commit() {
            job.failed = Some(DistError::Journal(e));
            return;
        }
    }
    job.done.insert(shard);
    job.totals += *stats;
    job.shard_seconds.push(stats.seconds);
    if let Some(w) = worker.and_then(|id| job.workers.get_mut(&id)) {
        w.shards += 1;
        w.probes += records.len() as u64;
        w.seconds += stats.seconds;
    }
}

/// Requeues every lease `worker` held at the front of its job's queue,
/// bumping per-shard attempt counts, and wakes the other connections to
/// lease them. A shard past the retry cap fails its job. Returns how
/// many leases were evicted.
fn evict_worker(g: &mut PoolState, worker: u64, shard_retries: u32) -> u64 {
    let mut evicted = 0u64;
    for job in g.jobs.values_mut() {
        let held: Vec<u64> = job
            .leases
            .iter()
            .filter(|(_, (_, w))| *w == worker)
            .map(|(&l, _)| l)
            .collect();
        for lease in held {
            let Some((shard, _)) = job.leases.remove(&lease) else {
                continue;
            };
            evicted += 1;
            job.evictions += 1;
            if job.done.contains(&shard) {
                continue;
            }
            let attempts = job.attempts.entry(shard).or_insert(0);
            *attempts += 1;
            if *attempts > shard_retries {
                let detail = format!(
                    "shard {shard} evicted {attempts} times across workers \
                     (retry cap {shard_retries})"
                );
                job.failed
                    .get_or_insert(DistError::RetriesExhausted(detail));
                continue;
            }
            job.pending.push_front(shard);
        }
    }
    if g.live_workers.remove(&worker).is_some() && g.live_workers.is_empty() {
        g.idle_since = Instant::now();
    }
    if evicted > 0 {
        g.wake_all();
    }
    evicted
}

/// First job an idle worker should serve: prefer one with a pending
/// shard, else one whose shards are all leased (so the worker is on
/// station when an eviction requeues one).
fn pick_job(g: &PoolState) -> Option<(u64, JobSpec)> {
    let open = || g.jobs.iter().filter(|(_, job)| job.open());
    open()
        .find(|(_, job)| !job.pending.is_empty())
        .or_else(|| open().find(|(_, job)| !job.leases.is_empty()))
        .map(|(&id, job)| (id, job.spec.clone()))
}

/// What to push to a worker on `job_id`: `JobDone` once the job is over
/// or gone; else, unless the worker is `holding` a lease, the next
/// pending shard's `Lease`; `None` while there is nothing to send.
fn next_lease(
    shared: &Shared,
    job_id: u64,
    worker: u64,
    traced: bool,
    holding: bool,
) -> Option<Message> {
    let mut guard = shared.lock();
    let g = &mut *guard;
    let Some(job) = g.jobs.get_mut(&job_id).filter(|job| job.open()) else {
        return Some(Message::JobDone);
    };
    if holding {
        return None;
    }
    let shard = job.pending.pop_front()?;
    let lease = g.next_lease;
    g.next_lease += 1;
    let span_id = if traced {
        g.next_span_id += 1;
        g.next_span_id - 1
    } else {
        0
    };
    job.leases.insert(lease, (shard, worker));
    job.first_lease.get_or_insert_with(Instant::now);
    Some(Message::Lease {
        lease,
        span_id,
        shard,
        probes: job.probes[&shard].clone(),
    })
}

/// Why a connection ended.
enum ConnEnd {
    /// Shutdown sent, or the worker hung up between jobs.
    Clean,
    /// The worker died, hung, or was refused.
    Lost,
    /// The worker sent a frame the protocol does not allow there, or a
    /// corrupt one.
    ProtocolError,
}

impl ConnEnd {
    fn of(e: &FrameError) -> Self {
        if e.is_disconnect() {
            Self::Lost
        } else {
            Self::ProtocolError
        }
    }
}

/// What a connection thread waits for.
enum Event {
    /// A frame from the connection's reader thread, or the read error
    /// that ended it.
    Frame(Result<Message, FrameError>),
    /// The pool's jobs changed (see [`PoolState::wake_all`]).
    Wake,
}

/// A connection thread's one wait: its channel's events under the
/// heartbeat deadline, which every frame from the worker moves on.
struct Inbox {
    events: Receiver<Event>,
    heartbeat_timeout: Duration,
    deadline: Instant,
}

impl Inbox {
    /// The next event, or `None` once the worker has sent no frame for
    /// the heartbeat timeout.
    fn next(&mut self) -> Option<Event> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        let event = self.events.recv_timeout(left).ok()?;
        if matches!(event, Event::Frame(_)) {
            self.deadline = Instant::now() + self.heartbeat_timeout;
        }
        Some(event)
    }
}

/// A connection's reader thread: decodes the worker's frames into
/// `events` until a read fails — the worker hung up or sent a corrupt
/// frame, or the connection thread shut the socket down — and forwards
/// that error too.
fn forward_frames(mut stream: &TcpStream, events: &SyncSender<Event>) {
    loop {
        let frame = protocol::recv(&mut stream);
        let ended = frame.is_err();
        if events.send(Event::Frame(frame)).is_err() || ended {
            return;
        }
    }
}

/// Serves one worker connection: handshake once, then cycle idle → job
/// → lease loop → `JobDone` → idle until shutdown or death. Never panics
/// on worker input; every exit path evicts whatever the worker held.
fn serve_conn(stream: TcpStream, id: u64, shared: &Shared) {
    let telemetry = &shared.telemetry;
    let _ = stream.set_nodelay(true);
    // Both directions are bounded during the handshake so a peer that
    // connects but never sends (or never drains) a frame cannot pin this
    // thread; the expired wait surfaces as the typed `HandshakeTimeout`.
    let _ = stream.set_read_timeout(Some(shared.heartbeat_timeout));
    let _ = stream.set_write_timeout(Some(shared.heartbeat_timeout));
    let mut s = &stream;
    let hello = {
        let _span = telemetry.span("dist.handshake");
        protocol::recv(&mut s)
    };
    let pid = match hello {
        Ok(Message::Hello { protocol, pid }) if protocol == PROTOCOL_VERSION => pid,
        Ok(Message::Hello { protocol, .. }) => {
            let reason =
                format!("protocol version {protocol} unsupported (want {PROTOCOL_VERSION})");
            let _ = protocol::send(&mut s, &Message::Reject { reason });
            shared.lock().rejected += 1;
            telemetry.counter("dist.pool.rejected_workers").incr();
            return;
        }
        Ok(_) => {
            telemetry.counter("dist.pool.protocol_errors").incr();
            return;
        }
        Err(e) => {
            let e = e.or_handshake_timeout();
            if matches!(e, FrameError::HandshakeTimeout) {
                telemetry.counter("dist.pool.handshake_timeouts").incr();
            } else if !e.is_disconnect() {
                telemetry.counter("dist.pool.protocol_errors").incr();
            }
            if shared.verbose {
                eprintln!("dist: worker {id} failed handshake: {e}");
            }
            return;
        }
    };
    // Later writes (jobs, leases) block, and the reader thread waits for
    // frames with no timeout: the connection thread's heartbeat deadline
    // polices a silent worker.
    let _ = stream.set_write_timeout(None);
    let _ = stream.set_read_timeout(None);
    let (wake, events) = mpsc::sync_channel(CONN_EVENTS);
    let end = std::thread::scope(|scope| {
        let (reader, frames) = (&stream, wake.clone());
        scope.spawn(move || forward_frames(reader, &frames));
        shared.lock().live_workers.insert(id, wake);
        shared.cv.notify_all();
        telemetry.counter("dist.pool.workers_connected").incr();
        telemetry.set_process_label(pid, &format!("worker-{id}"));
        if shared.verbose {
            eprintln!("dist: worker {id} (pid {pid}) joined the pool");
        }
        let inbox = Inbox {
            events,
            heartbeat_timeout: shared.heartbeat_timeout,
            deadline: Instant::now() + shared.heartbeat_timeout,
        };
        let end = drive_worker(&stream, inbox, id, pid, shared);
        // Unblocks the reader thread, which the scope joins.
        let _ = stream.shutdown(Shutdown::Both);
        end
    });
    let evicted = {
        let mut g = shared.lock();
        let evicted = evict_worker(&mut g, id, shared.shard_retries);
        // Counted before the lock is released, so whoever sees a
        // requeued shard's job finish also sees its eviction counted.
        telemetry.counter("dist.pool.evictions").add(evicted);
        evicted
    };
    shared.cv.notify_all();
    if matches!(end, ConnEnd::ProtocolError) {
        telemetry.counter("dist.pool.protocol_errors").incr();
    }
    if evicted > 0 {
        telemetry.instant(
            "dist.eviction",
            &[
                ("worker", ManifestValue::Int(id as i64)),
                ("requeued", ManifestValue::Int(evicted as i64)),
            ],
        );
        if shared.verbose {
            eprintln!("dist: worker {id} lost; requeued {evicted} leased shard(s)");
        }
    } else if !matches!(end, ConnEnd::Clean) && shared.verbose {
        eprintln!("dist: worker {id} left the pool");
    }
}

/// The idle/job cycle for one handshaken worker.
fn drive_worker(
    stream: &TcpStream,
    mut inbox: Inbox,
    id: u64,
    pid: u32,
    shared: &Shared,
) -> ConnEnd {
    let mut s = stream;
    let telemetry = &shared.telemetry;
    loop {
        // Idle phase. Look for work before every wait: a job already
        // open when the handshake (or the last `JobDone`) finishes is
        // served at once, and a job posted later sends a wake-up.
        let (job_id, spec) = loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                let _ = protocol::send(&mut s, &Message::Shutdown);
                return ConnEnd::Clean;
            }
            if let Some(picked) = pick_job(&shared.lock()) {
                break picked;
            }
            match inbox.next() {
                None => return ConnEnd::Lost,
                Some(Event::Wake | Event::Frame(Ok(Message::Heartbeat { .. }))) => {}
                Some(Event::Frame(Ok(_))) => return ConnEnd::ProtocolError,
                Some(Event::Frame(Err(e))) if e.is_disconnect() => return ConnEnd::Clean,
                Some(Event::Frame(Err(_))) => return ConnEnd::ProtocolError,
            }
        };
        let expect_fp = spec.fingerprint;
        let traced = spec.trace_id != 0;
        if protocol::send(&mut s, &Message::Job(spec)).is_err() {
            return ConnEnd::Lost;
        }

        // Await Ready (heartbeats flow while the worker builds a model it
        // hasn't cached).
        let (ready_fp, worker_clock_us) = loop {
            match inbox.next() {
                None => return ConnEnd::Lost,
                Some(Event::Wake | Event::Frame(Ok(Message::Heartbeat { .. }))) => {}
                Some(Event::Frame(Ok(Message::Ready {
                    fingerprint,
                    clock_us,
                }))) => break (fingerprint, clock_us),
                Some(Event::Frame(Ok(_))) => return ConnEnd::ProtocolError,
                Some(Event::Frame(Err(e))) => return ConnEnd::of(&e),
            }
        };
        if ready_fp != expect_fp {
            // A worker that reconstructed a different configuration would
            // poison the grid: refuse it and let the job run on.
            shared.lock().rejected += 1;
            telemetry.counter("dist.pool.rejected_workers").incr();
            let reason = format!(
                "config fingerprint mismatch (worker {ready_fp:#018x}, job {expect_fp:#018x})"
            );
            if shared.verbose {
                eprintln!("dist: worker {id} refused: {reason}");
            }
            let _ = protocol::send(&mut s, &Message::Reject { reason });
            return ConnEnd::Lost;
        }
        if let Some(job) = shared.lock().jobs.get_mut(&job_id) {
            job.workers.entry(id).or_insert(WorkerSummary {
                id,
                pid,
                shards: 0,
                probes: 0,
                seconds: 0.0,
            });
        }
        // Re-bases the worker's trace clock onto ours (network latency
        // errs the offset late by at most one frame round-trip).
        let clock_offset_us = telemetry.now_us() as i64 - worker_clock_us as i64;

        // Lease loop. A worker that holds no lease is sent the next one,
        // or `JobDone` once the job is over; with nothing leasable yet
        // the thread waits for a frame or a wake-up. A worker whose job
        // ends (canceled, failed) under its lease is sent `JobDone` at
        // once, and its late `ShardDone` ends the loop.
        let (mut holding, mut over) = (false, false);
        loop {
            if !over {
                if let Some(msg) = next_lease(shared, job_id, id, traced, holding) {
                    if let Message::Lease {
                        lease,
                        span_id,
                        shard,
                        ..
                    } = &msg
                    {
                        telemetry.instant(
                            "dist.lease_grant",
                            &[
                                ("worker", ManifestValue::Int(id as i64)),
                                ("lease", ManifestValue::Int(*lease as i64)),
                                ("span_id", ManifestValue::Int(*span_id as i64)),
                                ("shard", ManifestValue::Str(shard.to_string())),
                            ],
                        );
                    }
                    if protocol::send(&mut s, &msg).is_err() {
                        return ConnEnd::Lost;
                    }
                    match msg {
                        Message::JobDone if !holding => break, // back to idle
                        Message::JobDone => over = true,
                        _ => holding = true,
                    }
                }
            }
            let msg = match inbox.next() {
                None => return ConnEnd::Lost,
                Some(Event::Wake) => continue,
                Some(Event::Frame(Ok(msg))) => msg,
                Some(Event::Frame(Err(e))) => return ConnEnd::of(&e),
            };
            match msg {
                Message::Heartbeat { lease } => {
                    telemetry.instant(
                        "dist.heartbeat",
                        &[
                            ("worker", ManifestValue::Int(id as i64)),
                            ("lease", ManifestValue::Int(lease as i64)),
                        ],
                    );
                }
                Message::ShardDone {
                    lease,
                    shard,
                    records,
                    stats,
                    events,
                } => {
                    ingest_worker_events(telemetry, events, pid, clock_offset_us);
                    telemetry.instant(
                        "dist.shard_done",
                        &[
                            ("worker", ManifestValue::Int(id as i64)),
                            ("lease", ManifestValue::Int(lease as i64)),
                            ("shard", ManifestValue::Str(shard.to_string())),
                            ("probes", ManifestValue::Int(records.len() as i64)),
                        ],
                    );
                    let mut g = shared.lock();
                    if let Some(job) = g.jobs.get_mut(&job_id) {
                        job.leases.remove(&lease);
                        integrate_done(job, Some(id), shard, &records, &stats);
                        if shared.verbose {
                            eprintln!(
                                "dist: worker {id} finished {shard} ({}/{} shards)",
                                job.done.len(),
                                job.total
                            );
                        }
                    }
                    drop(g);
                    shared.cv.notify_all();
                    telemetry.counter("dist.pool.shards_completed").incr();
                    if over {
                        break;
                    }
                    holding = false;
                }
                _ => return ConnEnd::ProtocolError,
            }
        }
    }
}

/// Re-bases worker trace events onto the pool's clock, stamps the
/// originating pid, and merges them into the pool's trace buffer.
fn ingest_worker_events(
    telemetry: &Telemetry,
    mut events: Vec<TraceEvent>,
    pid: u32,
    clock_offset_us: i64,
) {
    if events.is_empty() {
        return;
    }
    for e in &mut events {
        e.pid = pid;
        e.ts_us = e.ts_us.saturating_add_signed(clock_offset_us);
    }
    telemetry.ingest_trace_events(events);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_requeues_at_once_and_fails_past_the_cap() {
        let spec = JobSpec {
            model: "m".into(),
            set_size: 1,
            set_seed: 0,
            batch_size: 1,
            bits: vec![8],
            scheme: 0,
            use_prefix_cache: false,
            fingerprint: 1,
            trace_id: 0,
        };
        let (wake, woken) = mpsc::sync_channel(1);
        let shard = ShardSpec::Base;
        let state = PoolState {
            jobs: BTreeMap::from([(
                1,
                JobState {
                    spec,
                    probes: HashMap::from([(shard, vec![ProbeId::Base])]),
                    pending: VecDeque::new(),
                    attempts: HashMap::new(),
                    leases: HashMap::from([(1, (shard, 7))]),
                    done: HashSet::new(),
                    total: 1,
                    records: HashMap::new(),
                    journal: None,
                    totals: ShardRunStats::default(),
                    shard_seconds: Vec::new(),
                    workers: BTreeMap::new(),
                    evictions: 0,
                    first_lease: None,
                    failed: None,
                },
            )]),
            next_job: 2,
            next_lease: 2,
            next_span_id: 1,
            live_workers: HashMap::from([(7, mpsc::sync_channel(1).0), (9, wake)]),
            idle_since: Instant::now(),
            rejected: 0,
            connections: 0,
        };
        let shared = Shared {
            state: Mutex::new(state),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            telemetry: Telemetry::disabled(),
            heartbeat_timeout: Duration::from_secs(3),
            shard_retries: 1,
            verbose: false,
        };
        assert_eq!(evict_worker(&mut shared.lock(), 7, 1), 1);
        {
            let g = shared.lock();
            let job = &g.jobs[&1];
            assert!(!g.live_workers.contains_key(&7));
            assert_eq!(job.pending, [shard]);
            assert_eq!(job.attempts[&shard], 1);
            assert_eq!(job.evictions, 1);
            assert!(job.failed.is_none());
        }
        // The surviving connection is woken, and the requeued shard is
        // leasable at once.
        assert!(matches!(woken.try_recv(), Ok(Event::Wake)));
        assert!(matches!(
            next_lease(&shared, 1, 9, false, false),
            Some(Message::Lease {
                lease: 2,
                shard: ShardSpec::Base,
                ..
            })
        ));

        // A second eviction crosses the cap (retries = 1) → job fails,
        // and a worker still bound to it is told `JobDone`.
        assert_eq!(evict_worker(&mut shared.lock(), 9, 1), 1);
        assert!(matches!(
            &shared.lock().jobs[&1].failed,
            Some(DistError::RetriesExhausted(d)) if d.contains("retry cap")
        ));
        assert_eq!(
            next_lease(&shared, 1, 9, false, true),
            Some(Message::JobDone)
        );
    }
}
