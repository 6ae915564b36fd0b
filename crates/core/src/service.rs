//! Multi-tenant checkpoint service: many concurrent checkpoint/restore
//! sessions multiplexed over one explicitly-constructed [`FlushPool`].
//!
//! The paper's rbIO strategy exists because many clients contending for
//! a shared filesystem collapse without coordination. This module is the
//! production analogue at service scale: tenants open *sessions*, and
//! the service decides (a) whether a session may start at all
//! (admission control — bounded in-flight sessions, a bounded FIFO
//! queue, and a typed [`ServiceError::Rejected`] beyond that), (b) when
//! each admitted session's next chunk may move (weighted fair-share
//! bandwidth arbitration, the gpfs fair-shared-pipe model extended to
//! tenant weights), and (c) who goes first under contention
//! ([`QosClass::LatencySensitive`] restores preempt
//! [`QosClass::Throughput`] checkpoints at chunk grant points).
//!
//! The service owns its pool instead of relying on the process-wide
//! default — constructing a [`CheckpointService`] with `install_pool`
//! routes [`FlushPool::current`] through this pool, which is what fixes
//! the stale-global reconfiguration bug at its root: reconfiguration is
//! re-installation.
//!
//! Every admission decision and per-tenant byte moved is charged to the
//! zero-alloc counters in [`rbio_profile::counters`], which also keep a
//! live ring-buffered time series for observability.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rbio_profile::counters;

use crate::buf::{BufPool, Bytes};
use crate::fault::FaultPlan;
use crate::pipeline::{FlushJob, FlushPool, PipelineError, WriterHandle, WriterTuning};
use crate::sched::{self, Point};

/// Futile polls a controlled (rbio-check) run allows in the admission
/// and grant wait loops before the typed timeout surfaces — the
/// deterministic analogue of the wall-clock deadlines.
pub(crate) const CHECK_SERVICE_POLL_BUDGET: u32 = 4000;

/// Fixed-point scale for virtual time: one byte at weight `WEIGHT_SCALE`
/// costs one vtime unit, so `cost = bytes * WEIGHT_SCALE / weight`.
const WEIGHT_SCALE: u64 = 64;

/// Quality-of-service class of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosClass {
    /// Restore-style traffic: a waiter of this class preempts
    /// `Throughput` sessions at the next chunk grant point.
    LatencySensitive,
    /// Checkpoint-style traffic: yields to latency-sensitive waiters.
    Throughput,
}

/// A tenant identity as the service schedules it.
#[derive(Debug, Clone, Copy)]
pub struct TenantSpec {
    /// Stable tenant id (hashes to a counter slot, see
    /// [`counters::tenant_slot`]).
    pub id: u64,
    /// Fair-share weight (≥ 1): bandwidth under contention is split in
    /// proportion to weights.
    pub weight: u32,
    /// Scheduling class for this tenant's sessions.
    pub qos: QosClass,
}

impl TenantSpec {
    /// An equal-weight throughput tenant.
    pub fn new(id: u64) -> Self {
        TenantSpec {
            id,
            weight: 1,
            qos: QosClass::Throughput,
        }
    }

    /// Replace the fair-share weight (clamped to ≥ 1).
    pub fn weight(mut self, w: u32) -> Self {
        self.weight = w.max(1);
        self
    }

    /// Replace the QoS class.
    pub fn qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Directory all session files live under (one subdirectory per
    /// tenant).
    pub base_dir: PathBuf,
    /// Flush worker threads in the service-owned pool.
    pub pool_threads: usize,
    /// Outstanding background jobs per session writer (≥ 1).
    pub pipeline_depth: u32,
    /// Sessions allowed in flight at once; the `max_inflight + 1`-th
    /// session queues.
    pub max_inflight: usize,
    /// Sessions allowed to wait in the admission queue; beyond this the
    /// outcome is a typed [`ServiceError::Rejected`].
    pub queue_depth: usize,
    /// Fair-share grant quantum in bytes: sessions move at most this
    /// many bytes per arbitration turn, so preemption latency is bounded
    /// by one quantum.
    pub quantum: u64,
    /// Deadline for a queued session to be admitted.
    pub admit_timeout: Duration,
    /// Deadline for one chunk's bandwidth grant.
    pub grant_timeout: Duration,
    /// fsync session files before publishing them.
    pub fsync: bool,
    /// Install the service pool as the process pool, routing
    /// [`FlushPool::current`] through it (uninstalled again when the
    /// service drops). Off by
    /// default so embedded services (tests) don't steal the pool from
    /// unrelated concurrent work.
    pub install_pool: bool,
}

impl ServiceConfig {
    /// Defaults: 2 pool threads, depth 2, 8 in flight, 64 queued, 256
    /// KiB quantum, 2 s deadlines, no fsync, not installed.
    pub fn new(base_dir: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            base_dir: base_dir.into(),
            pool_threads: 2,
            pipeline_depth: 2,
            max_inflight: 8,
            queue_depth: 64,
            quantum: 256 << 10,
            admit_timeout: Duration::from_secs(2),
            grant_timeout: Duration::from_secs(2),
            fsync: false,
            install_pool: false,
        }
    }

    /// Set pool threads (≥ 1).
    pub fn pool_threads(mut self, n: usize) -> Self {
        self.pool_threads = n.max(1);
        self
    }

    /// Set per-writer pipeline depth (≥ 1).
    pub fn pipeline_depth(mut self, d: u32) -> Self {
        self.pipeline_depth = d.max(1);
        self
    }

    /// Set admission bounds: `inflight` concurrent sessions, `queued`
    /// waiting beyond that.
    pub fn admission(mut self, inflight: usize, queued: usize) -> Self {
        self.max_inflight = inflight.max(1);
        self.queue_depth = queued;
        self
    }

    /// Set the fair-share grant quantum in bytes (≥ 1).
    pub fn quantum(mut self, bytes: u64) -> Self {
        self.quantum = bytes.max(1);
        self
    }

    /// Set both wait deadlines.
    pub fn timeouts(mut self, admit: Duration, grant: Duration) -> Self {
        self.admit_timeout = admit;
        self.grant_timeout = grant;
        self
    }

    /// Install the service pool process-wide for the service's lifetime.
    pub fn install_pool(mut self) -> Self {
        self.install_pool = true;
        self
    }
}

/// A typed service failure.
#[derive(Debug)]
pub enum ServiceError {
    /// Admission refused outright: in-flight sessions and the waiting
    /// queue are both at capacity. The caller is expected to back off
    /// and retry — nothing was queued on its behalf.
    Rejected {
        /// Tenant that was refused.
        tenant: u64,
        /// In-flight sessions at refusal time.
        inflight: usize,
        /// Queued sessions at refusal time.
        queued: usize,
    },
    /// A queued session was not admitted within the deadline.
    AdmitTimeout {
        /// Tenant whose session timed out.
        tenant: u64,
        /// How long it waited.
        waited: Duration,
    },
    /// A chunk's bandwidth grant did not arrive within the deadline.
    GrantTimeout {
        /// Tenant whose grant timed out.
        tenant: u64,
        /// How long it waited.
        waited: Duration,
    },
    /// The session's background writer failed (first error latched).
    Pipeline(PipelineError),
    /// A foreground file operation failed.
    Io(io::Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Rejected {
                tenant,
                inflight,
                queued,
            } => write!(
                f,
                "tenant {tenant}: admission rejected ({inflight} in flight, {queued} queued)"
            ),
            ServiceError::AdmitTimeout { tenant, waited } => {
                write!(f, "tenant {tenant}: not admitted within {waited:?}")
            }
            ServiceError::GrantTimeout { tenant, waited } => {
                write!(f, "tenant {tenant}: no bandwidth grant within {waited:?}")
            }
            ServiceError::Pipeline(e) => write!(f, "session writer: {e}"),
            ServiceError::Io(e) => write!(f, "session i/o: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<PipelineError> for ServiceError {
    fn from(e: PipelineError) -> Self {
        ServiceError::Pipeline(e)
    }
}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> Self {
        ServiceError::Io(e)
    }
}

/// How an admitted session got in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Capacity was free; the session started immediately.
    Admitted,
    /// The session waited in the bounded queue first.
    Queued,
}

// ---------------------------------------------------------------------
// Admission gate
// ---------------------------------------------------------------------

struct GateState {
    inflight: usize,
    /// FIFO tickets: next to hand out, and next to serve.
    next_ticket: u64,
    serve_ticket: u64,
    /// Tickets whose owner gave up waiting; skipped when serving.
    abandoned: std::collections::HashSet<u64>,
}

impl GateState {
    fn queued(&self) -> usize {
        (self.next_ticket - self.serve_ticket) as usize - self.abandoned.len()
    }

    /// Skip over abandoned tickets so a timed-out waiter can't wedge the
    /// queue.
    fn skip_abandoned(&mut self) {
        while self.abandoned.remove(&self.serve_ticket) {
            self.serve_ticket += 1;
        }
    }
}

/// Bounded admission: at most `max_inflight` permits out, at most
/// `queue_depth` FIFO waiters, typed rejection beyond that.
pub struct AdmissionGate {
    m: Mutex<GateState>,
    cv: Condvar,
    max_inflight: usize,
    queue_depth: usize,
    admit_timeout: Duration,
}

/// RAII permit for one in-flight session; releases on drop.
pub struct SessionPermit {
    gate: Arc<AdmissionGate>,
    /// How the permit was obtained.
    pub admission: Admission,
}

impl std::fmt::Debug for SessionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionPermit")
            .field("admission", &self.admission)
            .finish_non_exhaustive()
    }
}

impl AdmissionGate {
    /// A gate allowing `max_inflight` concurrent permits and
    /// `queue_depth` waiters.
    pub fn new(max_inflight: usize, queue_depth: usize, admit_timeout: Duration) -> Arc<Self> {
        Arc::new(AdmissionGate {
            m: Mutex::new(GateState {
                inflight: 0,
                next_ticket: 0,
                serve_ticket: 0,
                abandoned: std::collections::HashSet::new(),
            }),
            cv: Condvar::new(),
            max_inflight: max_inflight.max(1),
            queue_depth,
            admit_timeout,
        })
    }

    /// Acquire a permit for `tenant`, queueing (bounded, FIFO) when the
    /// service is at capacity.
    pub fn acquire(self: &Arc<Self>, tenant: u64) -> Result<SessionPermit, ServiceError> {
        let mut g = self.m.lock().expect("gate lock");
        g.skip_abandoned();
        if g.inflight < self.max_inflight && g.queued() == 0 {
            g.inflight += 1;
            counters::add_service_admitted(1);
            return Ok(SessionPermit {
                gate: Arc::clone(self),
                admission: Admission::Admitted,
            });
        }
        if g.queued() >= self.queue_depth {
            counters::add_service_rejected(1);
            return Err(ServiceError::Rejected {
                tenant,
                inflight: g.inflight,
                queued: g.queued(),
            });
        }
        let ticket = g.next_ticket;
        g.next_ticket += 1;
        counters::add_service_queued(1);
        let start = Instant::now();
        let controlled = sched::registered();
        let mut budget = CHECK_SERVICE_POLL_BUDGET;
        loop {
            if g.serve_ticket == ticket && g.inflight < self.max_inflight {
                g.serve_ticket += 1;
                g.skip_abandoned();
                g.inflight += 1;
                counters::add_service_admitted(1);
                self.cv.notify_all();
                return Ok(SessionPermit {
                    gate: Arc::clone(self),
                    admission: Admission::Queued,
                });
            }
            let timed_out = if controlled {
                if budget == 0 {
                    true
                } else {
                    budget -= 1;
                    drop(g);
                    sched::yield_now(Point::AdmitWait);
                    g = self.m.lock().expect("gate lock");
                    false
                }
            } else {
                let left = self
                    .admit_timeout
                    .saturating_sub(start.elapsed())
                    .min(Duration::from_millis(25));
                if left.is_zero() {
                    true
                } else {
                    g = self.cv.wait_timeout(g, left).expect("gate lock").0;
                    start.elapsed() >= self.admit_timeout
                        && !(g.serve_ticket == ticket && g.inflight < self.max_inflight)
                }
            };
            if timed_out {
                g.abandoned.insert(ticket);
                g.skip_abandoned();
                self.cv.notify_all();
                return Err(ServiceError::AdmitTimeout {
                    tenant,
                    waited: start.elapsed(),
                });
            }
        }
    }
}

impl Drop for SessionPermit {
    fn drop(&mut self) {
        let mut g = self.gate.m.lock().expect("gate lock");
        g.inflight -= 1;
        g.skip_abandoned();
        self.gate.cv.notify_all();
    }
}

// ---------------------------------------------------------------------
// Weighted fair-share arbiter
// ---------------------------------------------------------------------

struct TenantSched {
    weight: u32,
    qos: QosClass,
    /// Weighted virtual time: grows by `bytes * WEIGHT_SCALE / weight`
    /// per grant, so heavier tenants accumulate vtime slower and are
    /// eligible more often — bandwidth splits in weight proportion.
    vtime: u64,
    /// Active sessions of this tenant (refcount for state retention).
    sessions: usize,
    /// Sessions of this tenant currently blocked in `grant`.
    waiting: usize,
}

struct FsState {
    tenants: HashMap<u64, TenantSched>,
    /// Latency-sensitive sessions currently blocked in `grant`; while
    /// nonzero, throughput sessions stay blocked (QoS preemption).
    lat_waiters: usize,
}

/// Weighted fair-share bandwidth arbiter over tenant virtual time — the
/// gpfs fair-shared-pipe model (every stream progresses, none overtakes
/// by more than a quantum) extended with per-tenant weights and QoS
/// preemption.
pub struct FairShare {
    m: Mutex<FsState>,
    cv: Condvar,
    /// Vtime slack a tenant may run ahead of the slowest waiter.
    quantum_v: u64,
    grant_timeout: Duration,
}

impl FairShare {
    /// An arbiter whose tenants may run at most `quantum` bytes (at
    /// weight 1) ahead of the slowest contender.
    pub fn new(quantum: u64, grant_timeout: Duration) -> Self {
        FairShare {
            m: Mutex::new(FsState {
                tenants: HashMap::new(),
                lat_waiters: 0,
            }),
            cv: Condvar::new(),
            quantum_v: quantum.max(1).saturating_mul(WEIGHT_SCALE),
            grant_timeout,
        }
    }

    /// Register one session of `tenant`. A tenant joining an ongoing
    /// contest starts at the present minimum vtime, not at zero — new
    /// arrivals get an equal share, not a retroactive credit.
    pub fn join(&self, tenant: &TenantSpec) {
        let mut g = self.m.lock().expect("fair-share lock");
        let floor = g
            .tenants
            .values()
            .filter(|t| t.sessions > 0)
            .map(|t| t.vtime)
            .min()
            .unwrap_or(0);
        let t = g.tenants.entry(tenant.id).or_insert(TenantSched {
            weight: tenant.weight.max(1),
            qos: tenant.qos,
            vtime: floor,
            sessions: 0,
            waiting: 0,
        });
        t.weight = tenant.weight.max(1);
        t.qos = tenant.qos;
        t.vtime = t.vtime.max(floor);
        t.sessions += 1;
    }

    /// Unregister one session of `tenant`.
    pub fn leave(&self, tenant_id: u64) {
        let mut g = self.m.lock().expect("fair-share lock");
        if let Some(t) = g.tenants.get_mut(&tenant_id) {
            t.sessions = t.sessions.saturating_sub(1);
            if t.sessions == 0 {
                g.tenants.remove(&tenant_id);
            }
        }
        self.cv.notify_all();
    }

    /// Block until `tenant` may move `bytes` more bytes, then charge
    /// them. Eligibility: the tenant's vtime is within one quantum of
    /// the slowest *waiting* contender, and no latency-sensitive session
    /// is waiting if this one is throughput-class.
    ///
    /// Every grant under contention parks at least one scheduling slice
    /// before deciding. Decisions are made among the set of sessions
    /// that currently *want* the pipe, so without the park two streams
    /// ping-ponging through instantaneous grants would never observe
    /// each other and fairness would silently degrade to FIFO. The park
    /// is the serialization point of the fair-shared pipe; a tenant
    /// with nothing in flight is excluded from the floor, so a dead or
    /// stalled session can never wedge healthy ones.
    pub fn grant(&self, tenant_id: u64, bytes: u64) -> Result<(), ServiceError> {
        let mut g = self.m.lock().expect("fair-share lock");
        let (qos, cost) = {
            let t = g.tenants.get(&tenant_id).expect("granted tenant joined");
            (
                t.qos,
                bytes.saturating_mul(WEIGHT_SCALE) / u64::from(t.weight),
            )
        };
        // Register as a waiter up front so concurrent grants contend.
        g.tenants
            .get_mut(&tenant_id)
            .expect("granted tenant joined")
            .waiting += 1;
        if qos == QosClass::LatencySensitive {
            g.lat_waiters += 1;
        }
        self.cv.notify_all();
        let leave_wait = |g: &mut FsState| {
            g.tenants.get_mut(&tenant_id).expect("joined").waiting -= 1;
            if qos == QosClass::LatencySensitive {
                g.lat_waiters -= 1;
            }
        };
        let start = Instant::now();
        let controlled = sched::registered();
        let mut budget = CHECK_SERVICE_POLL_BUDGET;
        let mut first = true;
        let mut counted_block = false;
        let mut counted_preempt = false;
        loop {
            // Uncontended fast path: sole joined tenant, no park needed.
            let must_park = !(first && g.tenants.len() == 1);
            first = false;
            if must_park {
                if !counted_block {
                    counted_block = true;
                    counters::add_service_throttle_waits(1);
                }
                if qos == QosClass::Throughput && g.lat_waiters > 0 && !counted_preempt {
                    // Parked behind a latency-sensitive waiter: a QoS
                    // preemption at a chunk grant point.
                    counted_preempt = true;
                    counters::add_service_preemptions(1);
                }
                let timed_out = if controlled {
                    if budget == 0 {
                        true
                    } else {
                        budget -= 1;
                        drop(g);
                        sched::yield_now(Point::GrantWait);
                        g = self.m.lock().expect("fair-share lock");
                        false
                    }
                } else {
                    let left = self.grant_timeout.saturating_sub(start.elapsed());
                    if left.is_zero() {
                        true
                    } else {
                        let slice = left.min(Duration::from_millis(25));
                        g = self.cv.wait_timeout(g, slice).expect("fair-share lock").0;
                        false
                    }
                };
                if timed_out {
                    leave_wait(&mut g);
                    self.cv.notify_all();
                    return Err(ServiceError::GrantTimeout {
                        tenant: tenant_id,
                        waited: start.elapsed(),
                    });
                }
            }
            // While a latency-sensitive session waits, throughput waiters
            // are frozen by the QoS gate; leaving their stale vtime in the
            // floor would wedge the latency stream one quantum later
            // (it waits on a vtime that can't advance — deadlock). The
            // floor spans only waiters eligible to run right now.
            let lat_only = g.lat_waiters > 0;
            let floor = g
                .tenants
                .values()
                .filter(|t| t.waiting > 0 && (!lat_only || t.qos == QosClass::LatencySensitive))
                .map(|t| t.vtime)
                .min();
            let me = g.tenants.get(&tenant_id).expect("granted tenant joined");
            let vtime_ok = match floor {
                // Compare against the slowest tenant that actually wants
                // bandwidth; an idle tenant must not block the pipe.
                Some(f) => me.vtime <= f.saturating_add(self.quantum_v),
                None => true,
            };
            let qos_ok = qos == QosClass::LatencySensitive || g.lat_waiters == 0;
            if vtime_ok && qos_ok {
                leave_wait(&mut g);
                let t = g.tenants.get_mut(&tenant_id).expect("joined");
                t.vtime = t.vtime.saturating_add(cost);
                self.cv.notify_all();
                return Ok(());
            }
        }
    }
}

// ---------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------

struct SvcInner {
    cfg: ServiceConfig,
    pool: Arc<FlushPool>,
    gate: Arc<AdmissionGate>,
    arbiter: FairShare,
    session_seq: AtomicU32,
    installed: bool,
}

/// A long-lived multi-tenant checkpoint service. See the module docs.
pub struct CheckpointService {
    inner: Arc<SvcInner>,
}

impl CheckpointService {
    /// Construct the service and its owned flush pool.
    pub fn new(cfg: ServiceConfig) -> Self {
        let pool = FlushPool::with_threads(cfg.pool_threads.max(1));
        let installed = cfg.install_pool;
        if installed {
            FlushPool::install(Arc::clone(&pool));
        }
        let gate = AdmissionGate::new(cfg.max_inflight, cfg.queue_depth, cfg.admit_timeout);
        let arbiter = FairShare::new(cfg.quantum, cfg.grant_timeout);
        CheckpointService {
            inner: Arc::new(SvcInner {
                cfg,
                pool,
                gate,
                arbiter,
                session_seq: AtomicU32::new(0),
                installed,
            }),
        }
    }

    /// The service-owned flush pool (for embedding executors:
    /// `FlushPool::install` it, or pass it explicitly).
    pub fn pool(&self) -> &Arc<FlushPool> {
        &self.inner.pool
    }

    /// Open a checkpoint session writing `name` for `tenant`. Admission
    /// is bounded — see [`ServiceError::Rejected`]; fairness and QoS
    /// apply per [`CheckpointSession::write`] chunk.
    pub fn checkpoint(
        &self,
        tenant: TenantSpec,
        name: &str,
    ) -> Result<CheckpointSession, ServiceError> {
        self.checkpoint_with_faults(tenant, name, FaultPlan::none())
    }

    /// [`CheckpointService::checkpoint`] with an injected fault plan on
    /// the session's background writer (the writer "rank" is the session
    /// id this returns via [`CheckpointSession::session_id`] — fault
    /// plans keyed on rank 0 hit every session writer registered as 0).
    pub fn checkpoint_with_faults(
        &self,
        tenant: TenantSpec,
        name: &str,
        faults: FaultPlan,
    ) -> Result<CheckpointSession, ServiceError> {
        let inner = &self.inner;
        let permit = inner.gate.acquire(tenant.id)?;
        let sid = inner.session_seq.fetch_add(1, Ordering::Relaxed);
        let dir = inner.cfg.base_dir.join(format!("tenant-{}", tenant.id));
        std::fs::create_dir_all(&dir).map_err(ServiceError::Io)?;
        let final_path = dir.join(name);
        let tmp_path = crate::commit::tmp_path(&final_path);
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&tmp_path)
            .map_err(ServiceError::Io)?;
        let writer = inner.pool.register(
            sid,
            inner.cfg.pipeline_depth,
            faults,
            WriterTuning::default(),
        );
        inner.arbiter.join(&tenant);
        Ok(CheckpointSession {
            inner: Arc::clone(inner),
            tenant,
            slot: counters::tenant_slot(tenant.id),
            sid,
            file: Arc::new(file),
            tmp_path,
            final_path,
            offset: 0,
            writer: Some(writer),
            _permit: permit,
        })
    }

    /// Open a restore session reading `name` for `tenant`. Reads go
    /// through the same admission gate and fair-share arbiter as writes
    /// (restore is how `LatencySensitive` tenants preempt checkpoints).
    pub fn restore(&self, tenant: TenantSpec, name: &str) -> Result<RestoreSession, ServiceError> {
        let inner = &self.inner;
        let permit = inner.gate.acquire(tenant.id)?;
        let path = inner
            .cfg
            .base_dir
            .join(format!("tenant-{}", tenant.id))
            .join(name);
        let file = File::open(&path).map_err(ServiceError::Io)?;
        let len = file.metadata().map_err(ServiceError::Io)?.len();
        inner.arbiter.join(&tenant);
        Ok(RestoreSession {
            inner: Arc::clone(inner),
            tenant,
            slot: counters::tenant_slot(tenant.id),
            file,
            len,
            offset: 0,
            _permit: permit,
        })
    }
}

impl Drop for CheckpointService {
    fn drop(&mut self) {
        // Uninstall only our own pool — a service must never tear down a
        // pool some newer service installed over it.
        if self.inner.installed {
            if let Some(p) = FlushPool::installed() {
                if Arc::ptr_eq(&p, &self.inner.pool) {
                    FlushPool::uninstall();
                }
            }
        }
        self.inner.pool.shutdown();
    }
}

/// An admitted checkpoint session: stream bytes in with
/// [`CheckpointSession::write`], publish atomically with
/// [`CheckpointSession::commit`].
pub struct CheckpointSession {
    inner: Arc<SvcInner>,
    tenant: TenantSpec,
    slot: usize,
    sid: u32,
    file: Arc<File>,
    tmp_path: PathBuf,
    final_path: PathBuf,
    offset: u64,
    writer: Option<WriterHandle>,
    _permit: SessionPermit,
}

impl std::fmt::Debug for CheckpointSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointSession")
            .field("tenant", &self.tenant.id)
            .field("sid", &self.sid)
            .field("offset", &self.offset)
            .finish_non_exhaustive()
    }
}

impl CheckpointSession {
    /// The session's writer id within the service pool.
    pub fn session_id(&self) -> u32 {
        self.sid
    }

    /// Whether admission was immediate or queued.
    pub fn admission(&self) -> Admission {
        self._permit.admission
    }

    /// Append `data` to the checkpoint stream. The write is chunked at
    /// the fair-share quantum: each chunk waits for this tenant's
    /// bandwidth grant (the preemption point for latency-sensitive
    /// restores), then rides the background flush pipeline.
    pub fn write(&mut self, data: &[u8]) -> Result<(), ServiceError> {
        let quantum = self.inner.cfg.quantum.max(1) as usize;
        for chunk in data.chunks(quantum) {
            self.inner
                .arbiter
                .grant(self.tenant.id, chunk.len() as u64)?;
            let buf: Bytes = BufPool::global().copy_from_slice(chunk);
            self.writer
                .as_ref()
                .expect("writer lives until commit")
                .submit(FlushJob::Write {
                    file: Arc::clone(&self.file),
                    offset: self.offset,
                    data: buf,
                })?;
            self.offset += chunk.len() as u64;
            counters::tenant_add_bytes_written(self.slot, chunk.len() as u64);
        }
        Ok(())
    }

    /// Drain the pipeline and atomically publish the file under its
    /// final name. Returns total bytes written.
    pub fn commit(mut self) -> Result<u64, ServiceError> {
        let res = self.commit_inner();
        match &res {
            Ok(_) => counters::add_service_completed(1),
            Err(_) => counters::add_service_failed(1),
        }
        counters::tenant_add_session_done(self.slot);
        counters::service_series_record(self.slot);
        res
    }

    fn commit_inner(&mut self) -> Result<u64, ServiceError> {
        let writer = self.writer.take().expect("commit runs once");
        writer.drain()?;
        drop(writer); // quiesce + free the pool slot
        if self.inner.cfg.fsync {
            self.file.sync_all().map_err(ServiceError::Io)?;
        }
        std::fs::rename(&self.tmp_path, &self.final_path).map_err(ServiceError::Io)?;
        Ok(self.offset)
    }
}

impl Drop for CheckpointSession {
    fn drop(&mut self) {
        self.inner.arbiter.leave(self.tenant.id);
        if self.writer.is_some() {
            // Aborted session: the writer drops (quiesce + free) and the
            // tmp file stays unpublished.
            counters::add_service_failed(1);
            counters::tenant_add_session_done(self.slot);
            counters::service_series_record(self.slot);
        }
    }
}

/// An admitted restore session: stream the checkpoint back with
/// [`RestoreSession::read`] / [`RestoreSession::read_all`].
pub struct RestoreSession {
    inner: Arc<SvcInner>,
    tenant: TenantSpec,
    slot: usize,
    file: File,
    len: u64,
    offset: u64,
    _permit: SessionPermit,
}

impl RestoreSession {
    /// Total bytes in the checkpoint being restored.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the checkpoint is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read the next chunk into `buf`; returns bytes read (0 at EOF).
    /// Chunked at the quantum through the fair-share arbiter, like
    /// writes.
    pub fn read(&mut self, buf: &mut [u8]) -> Result<usize, ServiceError> {
        let left = (self.len - self.offset) as usize;
        let quantum = self.inner.cfg.quantum.max(1) as usize;
        let n = buf.len().min(left).min(quantum);
        if n == 0 {
            return Ok(0);
        }
        self.inner.arbiter.grant(self.tenant.id, n as u64)?;
        self.file
            .read_exact_at(&mut buf[..n], self.offset)
            .map_err(ServiceError::Io)?;
        self.offset += n as u64;
        counters::tenant_add_bytes_read(self.slot, n as u64);
        Ok(n)
    }

    /// Read the whole remaining stream.
    pub fn read_all(&mut self) -> Result<Vec<u8>, ServiceError> {
        let mut out = vec![0u8; (self.len - self.offset) as usize];
        let mut done = 0;
        while done < out.len() {
            let n = self.read(&mut out[done..])?;
            done += n;
        }
        counters::add_service_completed(1);
        counters::tenant_add_session_done(self.slot);
        counters::service_series_record(self.slot);
        Ok(out)
    }
}

impl Drop for RestoreSession {
    fn drop(&mut self) {
        self.inner.arbiter.leave(self.tenant.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rbio-svc-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    fn payload(tenant: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| (tenant as usize + i * 7) as u8).collect()
    }

    #[test]
    fn checkpoint_then_restore_round_trips() {
        let dir = tmpdir("roundtrip");
        let svc = CheckpointService::new(ServiceConfig::new(&dir).quantum(1 << 10));
        let t = TenantSpec::new(42);
        let data = payload(42, 10_000);
        let mut s = svc.checkpoint(t, "gen0.ckpt").expect("admit");
        assert_eq!(s.admission(), Admission::Admitted);
        s.write(&data).expect("write");
        assert_eq!(s.commit().expect("commit"), 10_000);
        // Tmp sibling must be gone, final file present.
        assert!(dir.join("tenant-42").join("gen0.ckpt").exists());
        let mut r = svc.restore(t, "gen0.ckpt").expect("admit restore");
        assert_eq!(r.len(), 10_000);
        assert_eq!(r.read_all().expect("read"), data);
    }

    #[test]
    fn admission_queues_then_rejects_beyond_capacity() {
        let dir = tmpdir("admission");
        let svc = CheckpointService::new(
            ServiceConfig::new(&dir)
                .admission(1, 1)
                .timeouts(Duration::from_millis(100), Duration::from_secs(2)),
        );
        let t = TenantSpec::new(1);
        let s0 = svc.checkpoint(t, "a.ckpt").expect("first session admits");
        // Second session queues and times out (nobody releases the slot),
        // third is rejected outright while the queue is occupied.
        let gate = Arc::clone(&svc.inner.gate);
        let waiter = std::thread::spawn(move || gate.acquire(9));
        // Give the waiter time to enter the queue.
        std::thread::sleep(Duration::from_millis(20));
        match svc.checkpoint(t, "c.ckpt") {
            Err(ServiceError::Rejected {
                inflight: 1,
                queued: 1,
                ..
            }) => {}
            other => panic!("expected typed rejection, got {other:?}"),
        }
        match waiter.join().expect("waiter thread") {
            Err(ServiceError::AdmitTimeout { tenant: 9, .. }) => {}
            other => panic!("expected admit timeout, got {other:?}"),
        }
        // Releasing the permit un-wedges admission (abandoned ticket is
        // skipped, not served).
        drop(s0);
        let s = svc.checkpoint(t, "d.ckpt").expect("slot free again");
        drop(s);
    }

    #[test]
    fn queued_session_admits_when_slot_frees() {
        let dir = tmpdir("queued");
        let svc = Arc::new(CheckpointService::new(
            ServiceConfig::new(&dir).admission(1, 4),
        ));
        let t = TenantSpec::new(5);
        let s0 = svc.checkpoint(t, "a.ckpt").expect("admit");
        let svc2 = Arc::clone(&svc);
        let h = std::thread::spawn(move || {
            let mut s = svc2.checkpoint(t, "b.ckpt").expect("queued then admitted");
            assert_eq!(s.admission(), Admission::Queued);
            s.write(&payload(5, 256)).expect("write");
            s.commit().expect("commit")
        });
        std::thread::sleep(Duration::from_millis(30));
        s0.commit().expect("commit first");
        assert_eq!(h.join().expect("second session"), 256);
    }

    #[test]
    fn equal_weights_split_bandwidth_evenly() {
        // Two equal-weight tenants pushing identical streams through a
        // tiny quantum: neither may finish more than a quantum ahead in
        // *granted* bytes at any point. We approximate by checking both
        // complete and per-tenant counters agree.
        let dir = tmpdir("fair");
        let svc = Arc::new(CheckpointService::new(
            ServiceConfig::new(&dir).quantum(512).admission(8, 8),
        ));
        let bytes = 64 * 1024;
        let mut handles = Vec::new();
        for id in [60u64, 61] {
            let svc = Arc::clone(&svc);
            handles.push(std::thread::spawn(move || {
                let t = TenantSpec::new(id);
                let mut s = svc.checkpoint(t, "gen.ckpt").expect("admit");
                s.write(&payload(id, bytes)).expect("write");
                s.commit().expect("commit")
            }));
        }
        for h in handles {
            assert_eq!(h.join().expect("tenant thread"), bytes as u64);
        }
        let a = counters::tenant_snapshot(counters::tenant_slot(60));
        let b = counters::tenant_snapshot(counters::tenant_slot(61));
        assert!(a.bytes_written >= bytes as u64);
        assert!(b.bytes_written >= bytes as u64);
    }

    #[test]
    fn weighted_tenant_gets_proportionally_more_grants() {
        // Drive the arbiter directly: tenant 2 has twice tenant 1's
        // weight; with both continuously waiting, after N grant rounds
        // the charged byte ratio must approach the weight ratio.
        let fs = Arc::new(FairShare::new(1024, Duration::from_secs(2)));
        let t1 = TenantSpec::new(71).weight(1);
        let t2 = TenantSpec::new(72).weight(2);
        fs.join(&t1);
        fs.join(&t2);
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut counts = Vec::new();
        let mut handles = Vec::new();
        for t in [t1, t2] {
            let fs = Arc::clone(&fs);
            let done = Arc::clone(&done);
            let count = Arc::new(std::sync::atomic::AtomicU64::new(0));
            counts.push(Arc::clone(&count));
            handles.push(std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    if fs.grant(t.id, 1024).is_ok() {
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        std::thread::sleep(Duration::from_millis(300));
        done.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().expect("grant thread");
        }
        fs.leave(t1.id);
        fs.leave(t2.id);
        let c1 = counts[0].load(Ordering::Relaxed) as f64;
        let c2 = counts[1].load(Ordering::Relaxed) as f64;
        assert!(c1 > 0.0 && c2 > 0.0, "both tenants must progress");
        let ratio = c2 / c1;
        assert!(
            (1.2..=3.3).contains(&ratio),
            "weight-2 tenant should get ~2x the grants, got {ratio:.2} ({c1} vs {c2})"
        );
    }

    #[test]
    fn latency_sensitive_restore_preempts_throughput_checkpoint() {
        let dir = tmpdir("qos");
        let svc = Arc::new(CheckpointService::new(
            ServiceConfig::new(&dir).quantum(256).admission(8, 8),
        ));
        // Seed a checkpoint for the restore to read.
        let lat = TenantSpec::new(81).qos(QosClass::LatencySensitive);
        let mut s = svc.checkpoint(lat, "seed.ckpt").expect("admit");
        s.write(&payload(81, 4096)).expect("write");
        s.commit().expect("commit");

        let before = counters::service_snapshot();
        let thr = TenantSpec::new(80); // Throughput
        let svc2 = Arc::clone(&svc);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let writer = std::thread::spawn(move || {
            let mut s = svc2.checkpoint(thr, "big.ckpt").expect("admit");
            let mut total = 0u64;
            while !stop2.load(Ordering::Relaxed) {
                s.write(&payload(80, 2048)).expect("write");
                total += 2048;
            }
            s.commit().expect("commit");
            total
        });
        // Interleave restores while the checkpoint streams.
        std::thread::sleep(Duration::from_millis(20));
        for _ in 0..4 {
            let mut r = svc.restore(lat, "seed.ckpt").expect("admit restore");
            let got = r.read_all().expect("read");
            assert_eq!(got.len(), 4096);
        }
        stop.store(true, Ordering::Relaxed);
        assert!(writer.join().expect("writer") > 0);
        // The restore stream must have registered at least one QoS
        // preemption against the bulk writer.
        let delta = counters::service_snapshot().delta_since(&before);
        assert!(delta.completed >= 5);
        assert!(
            delta.preemptions >= 1,
            "latency restore never preempted the bulk checkpoint"
        );
    }

    #[test]
    fn dead_tenant_writer_does_not_fence_healthy_tenants() {
        // One tenant's background writer is fault-killed mid-stream; the
        // error latches on *its* session only, and a concurrent healthy
        // tenant commits untouched.
        let dir = tmpdir("isolate");
        let svc = Arc::new(CheckpointService::new(
            ServiceConfig::new(&dir).quantum(512).admission(8, 8),
        ));
        let sick = TenantSpec::new(90);
        let healthy = TenantSpec::new(91);
        // Open the sick session first so its writer deterministically
        // registers as session id 0 — the rank the fault plan targets.
        let faults = FaultPlan::none().kill_writer_after_bytes(0, 0);
        let mut s = svc
            .checkpoint_with_faults(sick, "dead.ckpt", faults)
            .expect("admit");
        assert_eq!(s.session_id(), 0);
        let svc2 = Arc::clone(&svc);
        let h = std::thread::spawn(move || {
            let mut s = svc2.checkpoint(healthy, "ok.ckpt").expect("admit");
            for _ in 0..16 {
                s.write(&payload(91, 1024)).expect("write");
            }
            s.commit().expect("healthy tenant must commit")
        });
        let mut failed = false;
        for _ in 0..16 {
            if s.write(&payload(90, 1024)).is_err() {
                failed = true;
                break;
            }
        }
        let failed = failed || s.commit().is_err();
        assert!(failed, "fault-killed writer must surface a typed error");
        assert_eq!(h.join().expect("healthy thread"), 16 * 1024);
        assert!(dir.join("tenant-91").join("ok.ckpt").exists());
        assert!(!dir.join("tenant-90").join("dead.ckpt").exists());
    }

    #[test]
    fn install_pool_routes_current_through_service() {
        let dir = tmpdir("install");
        let svc = CheckpointService::new(ServiceConfig::new(&dir).pool_threads(3).install_pool());
        assert!(Arc::ptr_eq(&FlushPool::current(), svc.pool()));
        let pool = Arc::clone(svc.pool());
        drop(svc);
        // Dropping the service uninstalls and shuts down its pool.
        assert!(
            FlushPool::installed().is_none_or(|p| !Arc::ptr_eq(&p, &pool)),
            "dropped service left its pool installed"
        );
    }
}
