//! Background flush pipeline shared by both real executors.
//!
//! The paper's rbIO writers win by overlap: aggregation of the next
//! package proceeds while the previous one is on its way to disk. This
//! module provides that overlap for [`crate::exec`] and [`crate::rt`]: a
//! small process-wide pool of flush threads serves per-writer FIFO queues
//! of deferred file work ([`FlushJob`]), with bounded depth (double
//! buffering at depth 2) and first-error latching.
//!
//! Correctness relies on three properties, each enforced here or by the
//! callers:
//!
//! 1. **Snapshot at issue** — a `Write` job owns its bytes as an immutable
//!    [`Bytes`] slice: either a zero-copy view of storage that will never
//!    be mutated again (a payload slice), or a pooled copy taken out of
//!    mutable staging before submission, so later `Pack` and `Recv` ops
//!    can reuse the staging buffer freely.
//! 2. **Per-writer FIFO** — one pool thread at a time drains a writer's
//!    queue in order, so the [`FaultPlan`] byte accounting and the
//!    write→close→commit ordering are exactly the serial executor's.
//!    In particular the commit job can never run before (or after a
//!    failure of) the data writes it seals.
//! 3. **Drain points** — callers drain before plan barriers, before
//!    `ReadAt`, and at end of program, so cross-rank happens-before edges
//!    (e.g. "all collective writes land before the owner commits") carry
//!    over from the serial semantics.
//!
//! A latched error poisons the writer: all later jobs are skipped (never
//! executed), and the error surfaces at the next `submit` or `drain`.

use std::collections::VecDeque;
use std::fs::File;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, RwLock};
use std::time::{Duration, Instant};

use rbio_plan::Rank;
use rbio_profile::counters;

use crate::backend::{self, IoBackend, IoCtx};
use crate::buf::Bytes;
use crate::commit;
use crate::crash;
use crate::fault::{self, FaultPlan};
use crate::sched::{self, Point};

/// Test-only regression switch: re-introduces the PR 2 double-enqueue
/// race (`submit` re-enqueues a writer that is already in the runnable
/// queue, so two pool threads can drain one writer concurrently). Used
/// by `rbio-check` pinned regression schedules to prove the harness
/// catches the historical bug; must never be set outside tests.
#[doc(hidden)]
pub static REVERT_PR2_DOUBLE_ENQUEUE: AtomicBool = AtomicBool::new(false);

/// Why a writer's background pipeline failed.
#[derive(Debug)]
pub enum PipelineError {
    /// Fault injection killed the rank in a background job.
    Killed {
        /// The killed rank.
        rank: Rank,
    },
    /// A real or injected I/O error that exhausted the retry budget.
    Io(io::Error),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Killed { rank } => write!(f, "rank {rank} killed in background job"),
            PipelineError::Io(e) => write!(f, "pipeline I/O error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<PipelineError> for io::Error {
    fn from(e: PipelineError) -> io::Error {
        match e {
            PipelineError::Killed { rank } => fault::killed_error(rank),
            PipelineError::Io(source) => source,
        }
    }
}

/// One unit of deferred writer work, executed in submission order.
pub enum FlushJob {
    /// Flush one buffered chunk to the file.
    Write {
        /// Open target file (the `.tmp` sibling for atomic files).
        file: Arc<File>,
        /// Absolute file offset.
        offset: u64,
        /// The chunk, snapshotted at issue time (an immutable slice —
        /// zero-copy for payload data, a pooled copy for staging data).
        data: Bytes,
    },
    /// Flush several chunks destined for contiguous offsets as one
    /// vectored write (one syscall, one logical write for fault
    /// accounting — only submitted when no faults are armed).
    WriteV {
        /// Open target file (the `.tmp` sibling for atomic files).
        file: Arc<File>,
        /// Absolute file offset of the first chunk.
        offset: u64,
        /// The chunks, back to back.
        bufs: Vec<Bytes>,
    },
    /// Close the file (the job drops the final handle; optional fsync).
    Close {
        /// The handle being retired.
        file: Arc<File>,
        /// fsync before closing.
        fsync: bool,
    },
    /// Seal and publish an atomic file (footer + rename) — always the
    /// last job a writer submits for that file.
    Commit {
        /// The `.tmp` sibling holding the data.
        tmp: PathBuf,
        /// The final published name.
        final_path: PathBuf,
        /// Logical (pre-footer) size the tmp file must have.
        size: u64,
        /// fsync footer and directory.
        fsync: bool,
    },
}

impl FlushJob {
    fn kind(&self) -> sched::JobKind {
        match self {
            FlushJob::Write { .. } => sched::JobKind::Write,
            FlushJob::WriteV { .. } => sched::JobKind::WriteV,
            FlushJob::Close { .. } => sched::JobKind::Close,
            FlushJob::Commit { .. } => sched::JobKind::Commit,
        }
    }

    /// Payload fingerprint for the use-after-recycle check: hashed at
    /// submit time and again just before execution; a mismatch means
    /// the buffer was recycled and overwritten while the job was
    /// queued. Non-write jobs hash to 0. Only called under a
    /// controlled scheduler.
    fn fingerprint(&self) -> u64 {
        match self {
            FlushJob::Write { data, .. } => sched::fingerprint([data.as_ref()]),
            FlushJob::WriteV { bufs, .. } => sched::fingerprint(bufs.iter().map(|b| b.as_ref())),
            FlushJob::Close { .. } | FlushJob::Commit { .. } => 0,
        }
    }
}

/// Per-writer knobs, grouped so `register` does not grow a parameter per
/// feature. [`Default`] is "off": no retries, no jitter, no hedging, no
/// heartbeat.
#[derive(Default, Clone)]
pub struct WriterTuning {
    /// Extra attempts per failed write (see `write_at_with_retry`).
    pub write_retries: u32,
    /// Base backoff between retry attempts.
    pub retry_backoff: Duration,
    /// Deterministic interleaving perturbation: when set, each job sleeps
    /// a seed-derived pseudo-random duration (< 200 µs) before running,
    /// so equivalence tests can sweep schedules reproducibly.
    pub jitter_seed: Option<u64>,
    /// Hedged re-submit deadline: when a drain has waited this long on an
    /// in-flight write (a straggling writer — slow disk, injected delay),
    /// the drainer re-issues the same bytes itself as a raw idempotent
    /// write. Whichever write lands last wrote identical bytes, so the
    /// race is benign; the loser's buffer is simply dropped (refcounted,
    /// never double-counted in the byte counters).
    pub hedge_after: Option<Duration>,
    /// Liveness heartbeat bumped as this writer's jobs execute, so the
    /// failover monitor does not declare a rank dead while its queue is
    /// merely deep.
    pub beat: Option<Arc<AtomicU64>>,
}

/// Immutable per-writer execution context, set at registration.
#[derive(Clone)]
struct WriterCtx {
    rank: Rank,
    faults: FaultPlan,
    write_retries: u32,
    retry_backoff: Duration,
    /// Interleaving perturbation (see [`WriterTuning::jitter_seed`]).
    jitter_seed: Option<u64>,
    /// Liveness heartbeat (see [`WriterTuning::beat`]).
    beat: Option<Arc<AtomicU64>>,
    /// Executes write jobs and close-time fsyncs.
    backend: Arc<dyn IoBackend>,
}

impl WriterCtx {
    fn io_ctx(&self) -> IoCtx<'_> {
        IoCtx {
            rank: self.rank,
            faults: &self.faults,
            write_retries: self.write_retries,
            retry_backoff: self.retry_backoff,
        }
    }
}

/// Snapshot of the write job a pool thread is currently executing for a
/// writer — what a hedged re-submit replays. `Bytes` clones are O(1)
/// refcount bumps.
struct HedgeSnapshot {
    file: Arc<File>,
    offset: u64,
    bufs: Vec<Bytes>,
    /// When the job started running: the hedge deadline's origin.
    started: Instant,
    /// A hedge was already issued for this job.
    hedged: bool,
}

struct WriterState {
    ctx: WriterCtx,
    queue: VecDeque<FlushJob>,
    /// Queued jobs plus the one (if any) a pool thread is executing.
    in_flight: usize,
    /// A pool thread is currently draining this writer's queue.
    active: bool,
    /// The writer sits in the runnable queue awaiting a pool thread.
    /// Together with `active` this guarantees at most one thread ever
    /// drains a writer: without it, two submits racing ahead of a busy
    /// pool would enqueue the writer twice and two threads would then
    /// pop jobs from the same queue concurrently, breaking FIFO (e.g. a
    /// commit running beside the write it is supposed to seal).
    enqueued: bool,
    /// First failure; once set, every later job is skipped.
    error: Option<PipelineError>,
    /// Retried write attempts accumulated by background jobs.
    retries: u64,
    /// Jobs executed so far (jitter sequence number).
    seq: u64,
    /// Slot is registered to a live handle.
    occupied: bool,
    /// Hedged re-submit deadline (see [`WriterTuning::hedge_after`]).
    hedge_after: Option<Duration>,
    /// The write job currently executing, if hedgeable.
    running: Option<HedgeSnapshot>,
}

#[derive(Default)]
struct Inner {
    writers: Vec<WriterState>,
    free: Vec<usize>,
    runnable: VecDeque<usize>,
}

struct Shared {
    inner: Mutex<Inner>,
    /// Signaled when a writer becomes runnable.
    work: Condvar,
    /// Signaled when a job completes (backpressure / drain wakeups).
    done: Condvar,
    /// Set by [`FlushPool::shutdown`]: workers exit once idle.
    stop: AtomicBool,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            inner: Mutex::new(Inner::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            stop: AtomicBool::new(false),
        }
    }
}

/// Wait on `cv` for a state change — or, when the calling thread is
/// registered with a controlled scheduler, drop the lock and yield at
/// `point` instead (blocking on the condvar would deadlock the single
/// run token). Callers must re-check their condition in a loop either
/// way.
fn pool_wait<'a>(
    shared: &'a Shared,
    cv: &Condvar,
    g: MutexGuard<'a, Inner>,
    point: Point,
) -> MutexGuard<'a, Inner> {
    if sched::registered() {
        drop(g);
        sched::yield_now(point);
        shared.inner.lock().expect("pool lock")
    } else {
        cv.wait(g).expect("pool lock")
    }
}

/// A flush thread pool: a fixed set of worker threads draining
/// per-writer FIFO queues. Historically one process-wide instance; now
/// explicitly constructible ([`FlushPool::with_threads`]) so a
/// long-lived service owns — and can *re*-configure — its pool instead
/// of being stuck with whatever the first caller froze into the
/// `OnceLock` global.
pub struct FlushPool {
    shared: Arc<Shared>,
    threads: usize,
}

/// Pool used by controlled (`rbio-check`) runs instead of the global
/// one, so schedule decisions see a fixed, named set of worker threads.
static CHECK_POOL: RwLock<Option<Arc<FlushPool>>> = RwLock::new(None);

/// The service-owned pool, when one is installed: [`FlushPool::current`]
/// routes every executor registration here, so replacing it (new worker
/// count, fresh workers) takes effect for all subsequent runs — the
/// behavior the stale `OnceLock` global silently dropped.
static INSTALLED: RwLock<Option<Arc<FlushPool>>> = RwLock::new(None);

impl FlushPool {
    /// The process-wide pool [`FlushPool::current`] falls back to when
    /// no service pool is installed, created on first use.
    fn default_pool() -> &'static Arc<FlushPool> {
        static POOL: OnceLock<Arc<FlushPool>> = OnceLock::new();
        POOL.get_or_init(|| {
            let threads = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8);
            FlushPool::spawn_pool(threads, "rbio-flush")
        })
    }

    /// Spawn `threads` detached workers over a fresh shared state.
    fn spawn_pool(threads: usize, name: &str) -> Arc<FlushPool> {
        let threads = threads.max(1);
        let shared = Arc::new(Shared::new());
        for i in 0..threads {
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || worker_loop(&s))
                .expect("spawn flush worker");
        }
        Arc::new(FlushPool { shared, threads })
    }

    /// An explicitly-constructed pool with `threads` workers (min 1).
    /// The owner decides its lifetime: call [`FlushPool::shutdown`]
    /// when done, or the workers idle forever.
    pub fn with_threads(threads: usize) -> Arc<FlushPool> {
        Self::spawn_pool(threads, "rbio-pool")
    }

    /// Worker-thread count this pool was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Ask this pool's workers to exit once their queues are empty.
    /// Graceful: queued jobs still run; new registrations panic.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.work.notify_all();
    }

    /// Install `pool` as the process's service-owned pool, returning
    /// the previously installed one (which the caller should shut
    /// down once its writers are quiesced). [`FlushPool::current`]
    /// routes through the installed pool, so *re*-installing is how a
    /// service reconfigures flushing at runtime.
    pub fn install(pool: Arc<FlushPool>) -> Option<Arc<FlushPool>> {
        INSTALLED
            .write()
            .expect("installed pool lock")
            .replace(pool)
    }

    /// Remove the installed service pool, returning it (if any).
    pub fn uninstall() -> Option<Arc<FlushPool>> {
        INSTALLED.write().expect("installed pool lock").take()
    }

    /// The currently installed service-owned pool, if any.
    pub fn installed() -> Option<Arc<FlushPool>> {
        INSTALLED.read().expect("installed pool lock").clone()
    }

    /// The pool executors should register with: the controlled check
    /// pool while a deterministic run is active, else the installed
    /// service pool, else the process-wide default pool.
    pub fn current() -> Arc<FlushPool> {
        if sched::controlled() {
            if let Some(p) = CHECK_POOL.read().expect("check pool lock").as_ref() {
                return Arc::clone(p);
            }
        }
        if let Some(p) = Self::installed() {
            return p;
        }
        Arc::clone(Self::default_pool())
    }

    /// Create (once) the controlled pool with `threads` workers named
    /// `flush{i}`, each registered with the installed scheduler. The
    /// pool persists for the process; workers park between runs.
    #[doc(hidden)]
    pub fn init_check_pool(threads: usize) {
        let mut slot = CHECK_POOL.write().expect("check pool lock");
        if slot.is_some() {
            return;
        }
        let shared = Arc::new(Shared::new());
        for i in 0..threads {
            sched::spawning();
            let s = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rbio-check-flush-{i}"))
                .spawn(move || {
                    sched::register(&format!("flush{i}"));
                    worker_loop(&s)
                })
                .expect("spawn check flush worker");
        }
        *slot = Some(Arc::new(FlushPool { shared, threads }));
    }

    /// Reset the controlled pool's writer table between runs so slot
    /// indices (`wid` in events) are assigned identically on every run —
    /// without this, the free-list order left by run *k* leaks into run
    /// *k+1*'s event stream and breaks byte-for-byte replay. Callers must
    /// guarantee no run is active and all pool workers are parked.
    #[doc(hidden)]
    pub fn reset_check_pool() {
        let slot = CHECK_POOL.read().expect("check pool lock");
        let Some(pool) = slot.as_ref() else { return };
        let mut g = pool.shared.inner.lock().expect("pool lock");
        assert!(
            g.runnable.is_empty() && g.writers.iter().all(|w| !w.occupied && w.in_flight == 0),
            "reset_check_pool during an active run"
        );
        g.writers.clear();
        g.free.clear();
    }

    /// Register one writer pipeline of `depth` outstanding jobs
    /// (depth 2 = double buffering). `depth` must be ≥ 1.
    pub fn register(
        &self,
        rank: Rank,
        depth: u32,
        faults: FaultPlan,
        tuning: WriterTuning,
    ) -> WriterHandle {
        assert!(depth >= 1, "pipeline depth must be at least 1");
        assert!(
            !self.shared.stop.load(Ordering::Acquire),
            "register on a shut-down flush pool"
        );
        let ctx = WriterCtx {
            rank,
            faults,
            write_retries: tuning.write_retries,
            retry_backoff: tuning.retry_backoff,
            jitter_seed: tuning.jitter_seed,
            beat: tuning.beat,
            backend: crash::wrap_if_recording(backend::threaded()),
        };
        let state = WriterState {
            ctx,
            queue: VecDeque::new(),
            in_flight: 0,
            active: false,
            enqueued: false,
            error: None,
            retries: 0,
            seq: 0,
            occupied: true,
            hedge_after: tuning.hedge_after,
            running: None,
        };
        let mut g = self.shared.inner.lock().expect("pool lock");
        let wid = match g.free.pop() {
            Some(w) => {
                g.writers[w] = state;
                w
            }
            None => {
                g.writers.push(state);
                g.writers.len() - 1
            }
        };
        sched::emit(|| sched::Event::WriterRegistered { wid, rank });
        WriterHandle {
            shared: Arc::clone(&self.shared),
            wid,
            depth: depth as usize,
        }
    }
}

/// One rank's submission endpoint into the pool. Jobs run FIFO; `submit`
/// blocks while `depth` jobs are outstanding; `drain` waits for an empty
/// pipeline and reports the first latched error.
pub struct WriterHandle {
    shared: Arc<Shared>,
    wid: usize,
    depth: usize,
}

impl WriterHandle {
    /// Enqueue `job`, blocking while the pipeline is full. Fails fast
    /// with the latched error if an earlier job already failed.
    pub fn submit(&self, job: FlushJob) -> Result<(), PipelineError> {
        let mut g = self.shared.inner.lock().expect("pool lock");
        loop {
            let w = &mut g.writers[self.wid];
            if let Some(e) = w.error.take() {
                sched::emit(|| sched::Event::ErrorCleared { wid: self.wid });
                return Err(e);
            }
            if w.in_flight < self.depth {
                break;
            }
            g = pool_wait(&self.shared, &self.shared.done, g, Point::SubmitFull);
        }
        sched::emit(|| sched::Event::Submit {
            wid: self.wid,
            kind: job.kind(),
            hash: job.fingerprint(),
        });
        let w = &mut g.writers[self.wid];
        w.queue.push_back(job);
        w.in_flight += 1;
        // `!w.enqueued` is the PR 2 fix: without it, two back-to-back
        // submits ahead of a busy pool enqueue the writer twice and two
        // threads drain one queue concurrently.
        let enqueue = if REVERT_PR2_DOUBLE_ENQUEUE.load(Ordering::Relaxed) {
            !w.active
        } else {
            !w.active && !w.enqueued
        };
        if enqueue {
            w.enqueued = true;
            g.runnable.push_back(self.wid);
            self.shared.work.notify_one();
        }
        drop(g);
        sched::yield_now(Point::Submitted);
        Ok(())
    }

    /// Wait for every submitted job to finish. Returns the background
    /// retry count on success, or the first latched error.
    ///
    /// When a hedge deadline is configured and the drain stalls on an
    /// in-flight write past it, the drainer re-issues that write's bytes
    /// itself (straggler mitigation): pwrite is idempotent for identical
    /// bytes at identical offsets, so whichever copy lands last changes
    /// nothing, and the hedge never touches the fault plan's logical
    /// write accounting. The drain still waits for the original job —
    /// hedging bounds *data* latency (the bytes are durable on disk), not
    /// the job bookkeeping.
    pub fn drain(&self) -> Result<u64, PipelineError> {
        let mut g = self.shared.inner.lock().expect("pool lock");
        while g.writers[self.wid].in_flight > 0 {
            let hedge = g.writers[self.wid].hedge_after;
            match hedge {
                Some(after) if !sched::registered() => {
                    // The deadline runs from when the in-flight write
                    // started, not from this wait: every writer's job
                    // completion wakes the shared condvar, and restarting
                    // the clock on each wake-up would never hedge on a
                    // busy pool.
                    let left = match &g.writers[self.wid].running {
                        Some(s) if !s.hedged => after.saturating_sub(s.started.elapsed()),
                        _ => after,
                    };
                    g = if left.is_zero() {
                        self.hedge_current(g)
                    } else {
                        self.shared.done.wait_timeout(g, left).expect("pool lock").0
                    };
                }
                _ => g = pool_wait(&self.shared, &self.shared.done, g, Point::DrainWait),
            }
        }
        let w = &mut g.writers[self.wid];
        let retries = std::mem::take(&mut w.retries);
        match w.error.take() {
            Some(e) => {
                sched::emit(|| sched::Event::ErrorCleared { wid: self.wid });
                Err(e)
            }
            None => Ok(retries),
        }
    }

    /// Issue a hedged duplicate of this writer's currently-running write
    /// job, at most once per job. Runs outside the pool lock.
    fn hedge_current<'a>(&'a self, mut g: MutexGuard<'a, Inner>) -> MutexGuard<'a, Inner> {
        let w = &mut g.writers[self.wid];
        let Some(snap) = w.running.as_mut() else {
            return g;
        };
        if snap.hedged {
            return g;
        }
        snap.hedged = true;
        let file = Arc::clone(&snap.file);
        let offset = snap.offset;
        let bufs: Vec<Bytes> = snap.bufs.clone();
        drop(g);
        let mut off = offset;
        for b in &bufs {
            // Best-effort: the original job is still running and its
            // error handling is authoritative; a hedge failure is noise.
            // The full-delivery loop counts any short-write continuation
            // it needs as a short-write retry — distinct from the one
            // hedge counted below.
            if fault::write_full_at(&file, off, b, 0).is_err() {
                break;
            }
            off += b.len() as u64;
        }
        counters::add_hedged_jobs(1);
        self.shared.inner.lock().expect("pool lock")
    }
}

impl Drop for WriterHandle {
    fn drop(&mut self) {
        // Quiesce (jobs hold no reference to the handle, but the slot
        // must not be reused while its queue drains), then free the slot.
        let mut g = self.shared.inner.lock().expect("pool lock");
        while g.writers[self.wid].in_flight > 0 {
            g = pool_wait(&self.shared, &self.shared.done, g, Point::QuiesceWait);
        }
        let w = &mut g.writers[self.wid];
        w.occupied = false;
        w.error = None;
        w.queue.clear();
        g.free.push(self.wid);
        sched::emit(|| sched::Event::WriterFreed { wid: self.wid });
    }
}

fn worker_loop(shared: &Shared) {
    let mut g = shared.inner.lock().expect("pool lock");
    loop {
        let wid = loop {
            if let Some(w) = g.runnable.pop_front() {
                break w;
            }
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            g = pool_wait(shared, &shared.work, g, Point::WorkerIdle);
        };
        sched::emit(|| sched::Event::WorkerClaim {
            wid,
            was_active: g.writers[wid].active,
        });
        g.writers[wid].enqueued = false;
        g.writers[wid].active = true;
        loop {
            let w = &mut g.writers[wid];
            let Some(job) = w.queue.pop_front() else {
                w.active = false;
                break;
            };
            let skip = w.error.is_some() || !w.occupied;
            let ctx = w.ctx.clone();
            let seq = w.seq;
            w.seq += 1;
            if !skip && w.hedge_after.is_some() {
                // Expose the job to hedged re-submits while it runs.
                w.running = match &job {
                    FlushJob::Write { file, offset, data } => Some(HedgeSnapshot {
                        file: Arc::clone(file),
                        offset: *offset,
                        bufs: vec![data.clone()],
                        started: Instant::now(),
                        hedged: false,
                    }),
                    FlushJob::WriteV { file, offset, bufs } => Some(HedgeSnapshot {
                        file: Arc::clone(file),
                        offset: *offset,
                        bufs: bufs.clone(),
                        started: Instant::now(),
                        hedged: false,
                    }),
                    FlushJob::Close { .. } | FlushJob::Commit { .. } => None,
                };
            }
            sched::emit(|| sched::Event::JobStart {
                wid,
                seq,
                kind: job.kind(),
                hash: job.fingerprint(),
                skipped: skip,
            });
            if !skip && matches!(job, FlushJob::Commit { .. }) {
                sched::emit(|| sched::Event::CommitExecuted { wid });
            }
            drop(g);
            sched::yield_now(Point::JobRun);
            let res = if skip { Ok(0) } else { run_job(&ctx, seq, job) };
            g = shared.inner.lock().expect("pool lock");
            let w = &mut g.writers[wid];
            w.running = None;
            let ok = res.is_ok();
            match res {
                Ok(attempts) => w.retries += u64::from(attempts),
                Err(e) => {
                    if w.error.is_none() {
                        w.error = Some(e);
                        sched::emit(|| sched::Event::ErrorLatched { wid });
                    }
                }
            }
            sched::emit(|| sched::Event::JobEnd { wid, ok });
            w.in_flight -= 1;
            shared.done.notify_all();
        }
    }
}

/// splitmix64: a tiny, well-mixed PRNG step for jitter derivation.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Map a fault-layer write failure into the pipeline's error space.
fn write_error(rank: Rank, e: fault::WriteError) -> PipelineError {
    if e.is_killed() {
        PipelineError::Killed { rank }
    } else {
        PipelineError::Io(e.into_io(rank, "write"))
    }
}

fn run_job(ctx: &WriterCtx, seq: u64, job: FlushJob) -> Result<u32, PipelineError> {
    if let Some(b) = &ctx.beat {
        b.fetch_add(1, Ordering::Relaxed);
    }
    if let Some(seed) = ctx.jitter_seed {
        // Under a controlled scheduler interleavings come from the
        // schedule, not wall-clock jitter.
        if !sched::controlled() {
            let h = splitmix64(seed ^ (u64::from(ctx.rank) << 32) ^ seq);
            std::thread::sleep(Duration::from_micros(h % 200));
        }
    }
    let res = match job {
        FlushJob::Write { file, offset, data } => ctx
            .backend
            .write(&ctx.io_ctx(), &file, offset, std::slice::from_ref(&data))
            .map_err(|e| write_error(ctx.rank, e)),
        FlushJob::WriteV { file, offset, bufs } => ctx
            .backend
            .write(&ctx.io_ctx(), &file, offset, &bufs)
            .map_err(|e| write_error(ctx.rank, e)),
        FlushJob::Close { file, fsync } => {
            if fsync {
                // Sticky fsync semantics: a rank whose fsync ever
                // failed can never report a later close durable.
                if let Some(e) = ctx.faults.on_fsync(ctx.rank) {
                    return Err(PipelineError::Io(e));
                }
                ctx.backend.sync_file(&file).map_err(|e| {
                    ctx.faults.latch_fsync_failure(ctx.rank);
                    PipelineError::Io(e)
                })?;
            }
            drop(file);
            Ok(0)
        }
        FlushJob::Commit {
            tmp,
            final_path,
            size,
            fsync,
        } => {
            if ctx.faults.on_commit(ctx.rank) {
                // Die after the data writes, before the rename: the
                // final name must never appear.
                return Err(PipelineError::Killed { rank: ctx.rank });
            }
            commit::commit_file_with_faults(&tmp, &final_path, size, fsync, &ctx.faults, ctx.rank)
                .map(|()| 0)
                .map_err(PipelineError::Io)?;
            sched::emit(|| sched::Event::ExtentCommit {
                owner: ctx.rank,
                by: ctx.rank,
                path_hash: sched::path_fingerprint(&final_path),
            });
            Ok(0)
        }
    };
    if let Some(b) = &ctx.beat {
        b.fetch_add(1, Ordering::Relaxed);
    }
    res
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::os::unix::fs::FileExt;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rbio-pipe-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).expect("mkdir");
        d
    }

    fn open_rw(p: &std::path::Path) -> Arc<File> {
        Arc::new(
            std::fs::OpenOptions::new()
                .create(true)
                .truncate(true)
                .read(true)
                .write(true)
                .open(p)
                .expect("open"),
        )
    }

    fn handle(rank: Rank, depth: u32, faults: FaultPlan) -> WriterHandle {
        FlushPool::current().register(
            rank,
            depth,
            faults,
            WriterTuning {
                write_retries: 3,
                retry_backoff: Duration::from_micros(100),
                ..WriterTuning::default()
            },
        )
    }

    #[test]
    fn jobs_execute_in_fifo_order() {
        let dir = tmpdir("fifo");
        let file = open_rw(&dir.join("f"));
        let h = handle(0, 2, FaultPlan::none());
        // Overlapping writes: later jobs must win, proving order.
        for i in 0..20u8 {
            h.submit(FlushJob::Write {
                file: Arc::clone(&file),
                offset: 0,
                data: Bytes::from_vec(vec![i; 8]),
            })
            .expect("submit");
        }
        h.drain().expect("drain");
        let mut buf = [0u8; 8];
        file.read_exact_at(&mut buf, 0).expect("read");
        assert_eq!(buf, [19u8; 8]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rapid_double_submit_never_double_drains() {
        let dir = tmpdir("race");
        let file = open_rw(&dir.join("f"));
        // Submitting several conflicting writes back-to-back parks them
        // all on the queue before any pool thread claims the writer; a
        // single drainer must still run them FIFO. (Regression: a double
        // runnable enqueue once let two threads drain the same writer
        // concurrently, and with per-job jitter the earlier write could
        // land last.)
        let h = FlushPool::current().register(
            0,
            4,
            FaultPlan::none(),
            WriterTuning {
                write_retries: 3,
                jitter_seed: Some(0xFEED),
                ..WriterTuning::default()
            },
        );
        for round in 0..200u64 {
            for i in 0..4u8 {
                h.submit(FlushJob::Write {
                    file: Arc::clone(&file),
                    offset: 0,
                    data: Bytes::from_vec(vec![i.wrapping_add(round as u8); 32]),
                })
                .expect("submit");
            }
            h.drain().expect("drain");
            let mut buf = [0u8; 32];
            file.read_exact_at(&mut buf, 0).expect("read");
            assert_eq!(buf, [3u8.wrapping_add(round as u8); 32], "round {round}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_latches_and_poisons_later_jobs() {
        let dir = tmpdir("poison");
        let file = open_rw(&dir.join("f.tmp"));
        // Kill rank 7 immediately: the first write latches Killed, and
        // the commit job must be skipped — no final file appears.
        let h = handle(7, 4, FaultPlan::none().kill_writer_after_bytes(7, 0));
        h.submit(FlushJob::Write {
            file: Arc::clone(&file),
            offset: 0,
            data: Bytes::from_vec(vec![1; 64]),
        })
        .expect("submit");
        // The kill surfaces exactly once: at this submit if the write
        // already ran (the commit is then never enqueued), else at drain
        // (the commit is enqueued but skipped by the poisoned pipeline).
        let err = match h.submit(FlushJob::Commit {
            tmp: dir.join("f.tmp"),
            final_path: dir.join("f"),
            size: 64,
            fsync: false,
        }) {
            Err(e) => {
                h.drain().expect("nothing else failed");
                e
            }
            Ok(()) => h.drain().expect_err("must latch the kill"),
        };
        assert!(matches!(err, PipelineError::Killed { rank: 7 }));
        assert!(!dir.join("f").exists(), "final name must not appear");
        // The pipeline is reusable after drain cleared the error.
        h.submit(FlushJob::Close { file, fsync: false })
            .expect("submit");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn depth_bounds_outstanding_jobs_without_deadlock() {
        let dir = tmpdir("depth");
        // More writers than pool threads, each pushing more jobs than its
        // depth: every pipeline must still drain.
        let handles: Vec<WriterHandle> = (0..16).map(|r| handle(r, 2, FaultPlan::none())).collect();
        let files: Vec<Arc<File>> = (0..16)
            .map(|r| open_rw(&dir.join(format!("f{r}"))))
            .collect();
        for (r, h) in handles.iter().enumerate() {
            for k in 0..8u64 {
                h.submit(FlushJob::Write {
                    file: Arc::clone(&files[r]),
                    offset: k * 4,
                    data: Bytes::from_vec(vec![r as u8; 4]),
                })
                .expect("submit");
            }
        }
        for (r, h) in handles.iter().enumerate() {
            h.drain().expect("drain");
            let mut buf = Vec::new();
            File::open(dir.join(format!("f{r}")))
                .expect("open")
                .read_to_end(&mut buf)
                .expect("read");
            assert_eq!(buf, vec![r as u8; 32]);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stalled_write_is_hedged_by_drain() {
        let dir = tmpdir("hedge");
        let file = open_rw(&dir.join("f"));
        let before = counters::failover_snapshot();
        // Every write on rank 5 stalls well past the hedge deadline: the
        // drain must re-issue the bytes itself and count the hedge.
        let h = FlushPool::current().register(
            5,
            2,
            FaultPlan::none().delay_writes(5, Duration::from_millis(150)),
            WriterTuning {
                write_retries: 3,
                retry_backoff: Duration::from_micros(100),
                hedge_after: Some(Duration::from_millis(10)),
                ..WriterTuning::default()
            },
        );
        h.submit(FlushJob::Write {
            file: Arc::clone(&file),
            offset: 0,
            data: Bytes::from_vec(vec![7; 16]),
        })
        .expect("submit");
        h.drain().expect("drain");
        let delta = counters::failover_snapshot().delta_since(&before);
        assert!(delta.hedged_jobs >= 1, "drain must hedge the delayed write");
        let mut buf = [0u8; 16];
        file.read_exact_at(&mut buf, 0).expect("read");
        assert_eq!(buf, [7u8; 16]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hedge_deadline_survives_wakeups_from_other_writers() {
        // Writer A's write stalls 150 ms past a 10 ms hedge deadline while
        // writer B, on the same pool, streams quick jobs whose completions
        // keep waking A's drain. The hedge must still fire, so A's bytes
        // land long before the stalled write itself returns.
        let dir = tmpdir("hedge-busy");
        let (fa, fb) = (open_rw(&dir.join("a")), open_rw(&dir.join("b")));
        let pool = FlushPool::with_threads(2);
        let tuning = |hedge_after| WriterTuning {
            hedge_after,
            ..WriterTuning::default()
        };
        let delayed = FaultPlan::none().delay_writes(30, Duration::from_millis(150));
        let a = pool.register(30, 2, delayed, tuning(Some(Duration::from_millis(10))));
        let b = pool.register(31, 1, FaultPlan::none(), tuning(None));
        let before = counters::failover_snapshot();
        let stop = AtomicBool::new(false);
        let landed = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    let data = Bytes::from_vec(vec![1; 64]);
                    let file = Arc::clone(&fb);
                    b.submit(FlushJob::Write {
                        file,
                        offset: 0,
                        data,
                    })
                    .expect("submit B");
                }
                b.drain().expect("drain B");
            });
            let t0 = Instant::now();
            let data = Bytes::from_vec(vec![0xA5; 4096]);
            let file = Arc::clone(&fa);
            a.submit(FlushJob::Write {
                file,
                offset: 0,
                data,
            })
            .expect("submit A");
            let watch = s.spawn(move || loop {
                let mut buf = vec![0u8; 4096];
                let full = fa.read_exact_at(&mut buf, 0).is_ok();
                if (full && buf.iter().all(|&x| x == 0xA5)) || t0.elapsed() > Duration::from_secs(2)
                {
                    return t0.elapsed();
                }
                std::thread::sleep(Duration::from_millis(1));
            });
            a.drain().expect("drain A");
            stop.store(true, Ordering::Release);
            watch.join().expect("watcher")
        });
        let delta = counters::failover_snapshot().delta_since(&before);
        assert!(delta.hedged_jobs >= 1, "A's stalled write must be hedged");
        assert!(
            landed < Duration::from_millis(100),
            "A's bytes landed after {landed:?}: the hedge never fired before the 150 ms write"
        );
        drop((a, b));
        pool.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_retries_are_reported_by_drain() {
        let dir = tmpdir("retries");
        let file = open_rw(&dir.join("f"));
        let h = handle(3, 2, FaultPlan::none().fail_nth_write(3, 0, 2));
        h.submit(FlushJob::Write {
            file,
            offset: 0,
            data: Bytes::from_vec(vec![9; 16]),
        })
        .expect("submit");
        assert_eq!(h.drain().expect("drain"), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression for the stale-global-pool bug: before explicit pools,
    /// the process-wide pool was a `OnceLock` and any later worker-count
    /// change silently no-oped. Now a service installs an explicit pool,
    /// and *re*-installing one with a different configuration takes
    /// effect immediately for `current()`.
    #[test]
    fn installed_pool_reconfiguration_takes_effect() {
        let a = FlushPool::with_threads(2);
        let b = FlushPool::with_threads(3);
        assert_eq!(a.threads(), 2);
        assert_eq!(b.threads(), 3);

        FlushPool::install(Arc::clone(&a));
        assert!(Arc::ptr_eq(&FlushPool::current(), &a));

        // Reconfiguration: install a differently-sized pool after first
        // use. Pre-fix, this was the silent no-op; now it must replace.
        let prev = FlushPool::install(Arc::clone(&b)).expect("a was installed");
        assert!(Arc::ptr_eq(&prev, &a));
        assert!(Arc::ptr_eq(&FlushPool::current(), &b));
        assert_eq!(FlushPool::current().threads(), 3);

        // Writers registered through the routed handle actually flush.
        let dir = tmpdir("reinstall");
        let file = open_rw(&dir.join("f"));
        let h = FlushPool::current().register(
            9,
            2,
            FaultPlan::none(),
            WriterTuning {
                write_retries: 3,
                retry_backoff: Duration::from_micros(100),
                ..WriterTuning::default()
            },
        );
        h.submit(FlushJob::Write {
            file: Arc::clone(&file),
            offset: 0,
            data: Bytes::from_vec(vec![5; 32]),
        })
        .expect("submit");
        h.drain().expect("drain");
        let mut buf = [0u8; 32];
        file.read_exact_at(&mut buf, 0).expect("read");
        assert_eq!(buf, [5u8; 32]);

        let got = FlushPool::uninstall().expect("b installed");
        assert!(Arc::ptr_eq(&got, &b));
        assert!(Arc::ptr_eq(
            &FlushPool::current(),
            FlushPool::default_pool()
        ));
        // a and b are deliberately *not* shut down: a concurrent test
        // may have grabbed one through `current()` during the window.
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_pool_refuses_new_writers() {
        let p = FlushPool::with_threads(1);
        let dir = tmpdir("shutdown");
        let file = open_rw(&dir.join("f"));
        let h = p.register(
            0,
            2,
            FaultPlan::none(),
            WriterTuning {
                write_retries: 3,
                retry_backoff: Duration::from_micros(100),
                ..WriterTuning::default()
            },
        );
        h.submit(FlushJob::Write {
            file: Arc::clone(&file),
            offset: 0,
            data: Bytes::from_vec(vec![1; 8]),
        })
        .expect("submit");
        h.drain().expect("drain");
        drop(h);
        p.shutdown();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.register(1, 2, FaultPlan::none(), WriterTuning::default())
        }));
        assert!(r.is_err(), "register after shutdown must panic");
        std::fs::remove_dir_all(&dir).ok();
    }
}
