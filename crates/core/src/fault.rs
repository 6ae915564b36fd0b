//! Deterministic fault injection for the executors.
//!
//! A [`FaultPlan`] is a small, cloneable handle (shared via `Arc`) that
//! both executors consult at their I/O and messaging edges:
//!
//! * **kill** — terminate a rank once its cumulative written bytes reach a
//!   threshold (models a node dying mid-checkpoint, including right before
//!   the commit rename);
//! * **transient write error** — fail the K-th `write_at` on a rank with
//!   `EIO` for a configurable number of attempts, then succeed (models the
//!   I/O-node hiccups the retry path exists for);
//! * **message drop** — swallow the N-th worker→writer message on a
//!   channel (models a lost handoff; the receiver times out with a typed
//!   error instead of hanging);
//! * **hang** — wedge a rank at its next write edge for a duration
//!   (models a hung-but-not-dead writer: the failover monitor must
//!   declare it dead and fence it before it revives);
//! * **write delay** — slow every write on a rank by a fixed delay
//!   (models a straggling writer; the flush pipeline's hedged re-submits
//!   exist for this).
//!
//! The default plan injects nothing and costs one atomic load per check.

use std::collections::HashMap;
use std::io;
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rbio_plan::Rank;
use rbio_profile::counters;

use crate::crash;
use crate::sched;

/// What a write-edge fault check decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The rank dies here: abandon its program immediately.
    Kill,
    /// This attempt fails with a transient I/O error; retrying may succeed.
    Error,
    /// The device accepts only the first `cap` bytes of this write; the
    /// caller must deliver the remainder itself (short-write path). The
    /// plan has already accounted the *full* length — the logical write
    /// will eventually deliver every byte.
    Short {
        /// Bytes the device accepts before cutting the write short.
        cap: u64,
    },
    /// The device is out of space: this and every later write on the rank
    /// fails with `ENOSPC`. Not transient — retrying a full disk is
    /// wasted work, so the retry loops surface it immediately.
    Enospc,
}

#[derive(Debug, Default)]
struct Inner {
    /// rank → kill once cumulative bytes written reach this threshold.
    kill_after: HashMap<Rank, u64>,
    /// rank → cumulative bytes successfully written so far.
    written: HashMap<Rank, u64>,
    /// rank → (failing write index, remaining failures) keyed per rank.
    fail_write: HashMap<Rank, (u64, u32)>,
    /// rank → (write index, byte cap): that write is cut short at `cap`
    /// bytes, one-shot.
    short_write: HashMap<Rank, (u64, u64)>,
    /// rank → index of the next `write_at` (attempt 0 only).
    write_index: HashMap<Rank, u64>,
    /// (src, dst) → message index to drop on that channel.
    drop_msg: HashMap<(Rank, Rank), u64>,
    /// (src, dst) → messages sent so far on that channel.
    sent: HashMap<(Rank, Rank), u64>,
    /// rank → one-shot hang duration at its next write edge.
    hang: HashMap<Rank, Duration>,
    /// rank → fixed delay added to every write.
    delay: HashMap<Rank, Duration>,
    /// ranks whose next directory fsync (the rename-durability barrier in
    /// `commit_file`) fails once with an injected error.
    dir_fsync_fail: std::collections::HashSet<Rank>,
    /// rank → cumulative byte budget after which every write fails with
    /// `ENOSPC` (a full device stays full: persistent, never cleared).
    enospc_after: HashMap<Rank, u64>,
    /// ranks whose file fsyncs fail with `EIO`.
    fsync_eio: std::collections::HashSet<Rank>,
    /// ranks on which an fsync has already failed. Sticky: per fsyncgate
    /// semantics, once an fsync fails the kernel may have dropped the
    /// dirty pages, so no later fsync on that rank is allowed to report
    /// the data durable.
    fsync_failed: std::collections::HashSet<Rank>,
}

/// Shared fault-injection plan. Cloning shares state: the same plan handed
/// to an executor and inspected by a test observes one set of counters.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    armed: Arc<AtomicBool>,
    inner: Arc<Mutex<Inner>>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// Kill `rank` once it has written at least `bytes` cumulative bytes
    /// (checked before each write; `0` kills on the first write attempt).
    pub fn kill_writer_after_bytes(self, rank: Rank, bytes: u64) -> Self {
        self.inner
            .lock()
            .expect("fault plan lock")
            .kill_after
            .insert(rank, bytes);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Fail `rank`'s `nth` write (0-based) with a transient error for the
    /// first `times` attempts; the next retry succeeds.
    pub fn fail_nth_write(self, rank: Rank, nth: u64, times: u32) -> Self {
        self.inner
            .lock()
            .expect("fault plan lock")
            .fail_write
            .insert(rank, (nth, times));
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Cut `rank`'s `nth` write (0-based) short: the device accepts only
    /// the first `cap` bytes, and the writer must deliver the remainder
    /// itself with a continuation loop. One-shot. Models the partial `pwrite` returns that
    /// striped file systems produce near stripe boundaries.
    pub fn short_write(self, rank: Rank, nth: u64, cap: u64) -> Self {
        self.inner
            .lock()
            .expect("fault plan lock")
            .short_write
            .insert(rank, (nth, cap));
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Drop the `nth` message (0-based) sent from `src` to `dst`.
    pub fn drop_message(self, src: Rank, dst: Rank, nth: u64) -> Self {
        self.inner
            .lock()
            .expect("fault plan lock")
            .drop_msg
            .insert((src, dst), nth);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Wedge `rank` at its *next* write edge for `dur` (one-shot). The
    /// rank is alive but makes no progress: the failover monitor sees a
    /// stale heartbeat, declares it dead past the dead-writer deadline,
    /// and must fence it so its post-revival commit is refused.
    pub fn hang_writer(self, rank: Rank, dur: Duration) -> Self {
        self.inner
            .lock()
            .expect("fault plan lock")
            .hang
            .insert(rank, dur);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Add `delay` to every write `rank` performs (a persistent
    /// straggler, never dead — hedged re-submits absorb the latency).
    pub fn delay_writes(self, rank: Rank, delay: Duration) -> Self {
        self.inner
            .lock()
            .expect("fault plan lock")
            .delay
            .insert(rank, delay);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// The device runs out of space for `rank` once it has written
    /// `bytes` cumulative bytes: that write and every later one fails
    /// with `ENOSPC`. Persistent (a full disk stays full), and never
    /// retried — `ENOSPC` is not transient.
    pub fn enospc_after_bytes(self, rank: Rank, bytes: u64) -> Self {
        self.inner
            .lock()
            .expect("fault plan lock")
            .enospc_after
            .insert(rank, bytes);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Fail `rank`'s file fsyncs with `EIO`. The first failure latches:
    /// even if the injection is later cleared, subsequent fsyncs on the
    /// rank keep failing (see [`FaultPlan::on_fsync`]).
    pub fn fsync_eio(self, rank: Rank) -> Self {
        self.inner
            .lock()
            .expect("fault plan lock")
            .fsync_eio
            .insert(rank);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Consult the plan as `rank` is about to fsync a data file.
    /// `Some(error)` means the fsync fails. Sticky (the fsyncgate rule):
    /// after the first failure on a rank, every later fsync on that rank
    /// also fails — writeback errors may have dropped the dirty pages, so
    /// a retried fsync that reports clean proves nothing. Callers must
    /// consult this *before* `sync_all` and report the file not durable.
    pub fn on_fsync(&self, rank: Rank) -> Option<io::Error> {
        if !self.is_armed() {
            return None;
        }
        let mut g = self.inner.lock().expect("fault plan lock");
        if g.fsync_failed.contains(&rank) {
            return Some(io::Error::from_raw_os_error(5));
        }
        if g.fsync_eio.contains(&rank) {
            g.fsync_failed.insert(rank);
            return Some(io::Error::from_raw_os_error(5));
        }
        None
    }

    /// Record that a *real* fsync failed on `rank`, so the sticky rule in
    /// [`FaultPlan::on_fsync`] applies to it from now on.
    pub fn latch_fsync_failure(&self, rank: Rank) {
        self.inner
            .lock()
            .expect("fault plan lock")
            .fsync_failed
            .insert(rank);
        self.armed.store(true, Ordering::Release);
    }

    /// Fail `rank`'s next directory fsync (the commit path's
    /// rename-durability barrier) once with an injected I/O error.
    pub fn fail_dir_fsync(self, rank: Rank) -> Self {
        self.inner
            .lock()
            .expect("fault plan lock")
            .dir_fsync_fail
            .insert(rank);
        self.armed.store(true, Ordering::Release);
        self
    }

    /// Consult the plan as `rank` fsyncs the directory containing a
    /// freshly renamed commit. `Some(error)` means the barrier fails
    /// (one-shot); the commit must report it.
    pub fn on_dir_fsync(&self, rank: Rank) -> Option<io::Error> {
        if !self.is_armed() {
            return None;
        }
        self.inner
            .lock()
            .expect("fault plan lock")
            .dir_fsync_fail
            .remove(&rank)
            .then(|| io::Error::other(format!("injected directory fsync failure on rank {rank}")))
    }

    /// Take (and clear) the pending one-shot hang for `rank`, if any.
    /// The caller performs the actual stall so the shared lock is never
    /// held across a sleep.
    pub fn take_hang(&self, rank: Rank) -> Option<Duration> {
        if !self.is_armed() {
            return None;
        }
        self.inner
            .lock()
            .expect("fault plan lock")
            .hang
            .remove(&rank)
    }

    /// The per-write delay configured for `rank`, if any.
    pub fn write_delay(&self, rank: Rank) -> Option<Duration> {
        if !self.is_armed() {
            return None;
        }
        self.inner
            .lock()
            .expect("fault plan lock")
            .delay
            .get(&rank)
            .copied()
    }

    /// Whether any fault is configured (fast path: one atomic load).
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Consult the plan before `rank` writes `bytes` (attempt number
    /// `attempt`, 0 on the first try). `None` means proceed — the plan
    /// then accounts the bytes as written.
    pub fn on_write(&self, rank: Rank, bytes: u64, attempt: u32) -> Option<WriteFault> {
        if !self.is_armed() {
            return None;
        }
        let mut g = self.inner.lock().expect("fault plan lock");
        if let Some(&threshold) = g.kill_after.get(&rank) {
            if *g.written.entry(rank).or_insert(0) >= threshold {
                return Some(WriteFault::Kill);
            }
        }
        if let Some(&cap) = g.enospc_after.get(&rank) {
            // The write that would cross the remaining-space budget is
            // the one the device rejects; once it fires, the cap drops
            // to zero so every later write fails too (the disk stays
            // full even for smaller writes).
            if g.written
                .get(&rank)
                .copied()
                .unwrap_or(0)
                .saturating_add(bytes)
                > cap
            {
                g.enospc_after.insert(rank, 0);
                return Some(WriteFault::Enospc);
            }
        }
        // The logical write index advances only on first attempts, so a
        // retried write keeps its index.
        let idx = if attempt == 0 {
            let e = g.write_index.entry(rank).or_insert(0);
            let idx = *e;
            *e += 1;
            idx
        } else {
            g.write_index.get(&rank).copied().unwrap_or(1) - 1
        };
        if let Some(&(nth, times)) = g.fail_write.get(&rank) {
            if idx == nth && attempt < times {
                return Some(WriteFault::Error);
            }
        }
        if let Some(&(nth, cap)) = g.short_write.get(&rank) {
            if idx == nth && attempt == 0 {
                // The write proceeds (short), so the full length is
                // accounted now: the caller owes the remainder and the
                // plan never sees this logical write again.
                g.short_write.remove(&rank);
                *g.written.entry(rank).or_insert(0) += bytes;
                return Some(WriteFault::Short { cap });
            }
        }
        *g.written.entry(rank).or_insert(0) += bytes;
        None
    }

    /// Consult the plan as `rank` is about to commit (rename) a file;
    /// `true` means the rank dies here — after its data writes, before the
    /// rename — the worst spot for crash consistency.
    pub fn on_commit(&self, rank: Rank) -> bool {
        if !self.is_armed() {
            return false;
        }
        let g = self.inner.lock().expect("fault plan lock");
        match g.kill_after.get(&rank) {
            Some(&threshold) => g.written.get(&rank).copied().unwrap_or(0) >= threshold,
            None => false,
        }
    }

    /// Consult the plan as `src` sends a message to `dst`; `true` means
    /// drop it (the receiver never sees it).
    pub fn on_send(&self, src: Rank, dst: Rank) -> bool {
        if !self.is_armed() {
            return false;
        }
        let mut g = self.inner.lock().expect("fault plan lock");
        let e = g.sent.entry((src, dst)).or_insert(0);
        let idx = *e;
        *e += 1;
        g.drop_msg.get(&(src, dst)) == Some(&idx)
    }
}

/// Failure of a fault-checked, retried write.
#[derive(Debug)]
pub enum WriteError {
    /// Fault injection killed the rank; abandon its program.
    Killed,
    /// A real or injected I/O error that exhausted the retry budget.
    Io(io::Error),
    /// Transient errors persisted past the retry wall-clock deadline;
    /// the writer gave up even though attempts remained.
    DeadlineExceeded {
        /// How long the write (including retries) had been running.
        waited: Duration,
    },
    /// A partial write could not be completed: the device accepted a
    /// prefix and then stopped making progress (or failed hard). Typed so
    /// callers can report exactly how much of the payload landed instead
    /// of folding it into a generic retry error.
    ShortWrite {
        /// Bytes that reached the device before progress stopped.
        written: u64,
        /// Bytes the logical write was supposed to deliver.
        expected: u64,
    },
}

impl WriteError {
    /// The `io::Error` a write by `rank` surfaces: a kill becomes
    /// [`killed_error`], a spent retry deadline `TimedOut`, a stalled
    /// partial write `WriteZero`. `what` names the write in messages
    /// ("write", "metadata write").
    pub fn into_io(self, rank: Rank, what: &str) -> io::Error {
        match self {
            WriteError::Killed => killed_error(rank),
            WriteError::Io(e) => e,
            WriteError::DeadlineExceeded { waited } => io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{what} retries exhausted their deadline after {waited:?}"),
            ),
            WriteError::ShortWrite { written, expected } => io::Error::new(
                io::ErrorKind::WriteZero,
                format!("short {what} stalled at {written}/{expected} bytes"),
            ),
        }
    }

    /// Did fault injection kill the writing rank?
    pub fn is_killed(&self) -> bool {
        matches!(self, WriteError::Killed)
    }
}

/// Error payload marking an injected rank death, so a kill is told apart
/// from genuine I/O errors by type rather than by message text.
#[derive(Debug)]
struct Killed {
    rank: Rank,
}

impl std::fmt::Display for Killed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault injection: rank {} killed", self.rank)
    }
}

impl std::error::Error for Killed {}

/// The error a rank killed by fault injection fails with.
pub fn killed_error(rank: Rank) -> io::Error {
    io::Error::other(Killed { rank })
}

/// Was `e` produced by [`killed_error`] (an injected rank death)? Only
/// killed ranks are eligible for failover absorption; I/O errors and
/// timeouts are not.
pub fn is_killed(e: &io::Error) -> bool {
    e.get_ref().is_some_and(|p| p.is::<Killed>())
}

/// Errors worth retrying a write for (besides injected ones).
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Total retry wall-clock budget for one logical write: the doubling
/// backoff series `initial_backoff · 2^retries` (exponent capped so huge
/// retry counts cannot produce an unbounded budget), clamped to
/// [50 ms, 2 s]. The floor guarantees the full attempt schedule of the
/// small default backoffs always fits; the ceiling bounds how long a
/// writer can sit on an EIO-forever device before surfacing a typed
/// [`WriteError::DeadlineExceeded`].
fn retry_budget(max_retries: u32, initial_backoff: Duration) -> Duration {
    let factor = 1u32 << max_retries.min(12);
    initial_backoff
        .saturating_mul(factor)
        .clamp(Duration::from_millis(50), Duration::from_secs(2))
}

/// Deterministic backoff jitter in `[0, backoff/2]`, decorrelating the
/// retry storms of writers that hit the same I/O-node hiccup together.
fn retry_jitter(backoff: Duration, rank: Rank, offset: u64, attempt: u32) -> Duration {
    let mut x = u64::from(rank) ^ offset.rotate_left(17) ^ (u64::from(attempt) << 32);
    // splitmix64 finalizer.
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    backoff
        .checked_div(2)
        .unwrap_or(Duration::ZERO)
        .mul_f64((x % 1000) as f64 / 1000.0)
}

/// One write's retry clock: sleeps the (jittered) backoff, doubling it
/// each attempt, and fails with a typed error once the wall-clock
/// deadline passes — an EIO-forever device gives up in bounded time no
/// matter how large the attempt budget is.
struct RetryClock {
    start: Instant,
    deadline: Instant,
}

impl RetryClock {
    fn new(max_retries: u32, initial_backoff: Duration) -> Self {
        let start = Instant::now();
        RetryClock {
            start,
            deadline: start + retry_budget(max_retries, initial_backoff),
        }
    }

    fn backoff(
        &self,
        backoff: &mut Duration,
        rank: Rank,
        offset: u64,
        attempt: u32,
    ) -> Result<(), WriteError> {
        let now = Instant::now();
        if now >= self.deadline {
            return Err(WriteError::DeadlineExceeded {
                waited: now.duration_since(self.start),
            });
        }
        let jittered = backoff.saturating_add(retry_jitter(*backoff, rank, offset, attempt));
        std::thread::sleep(jittered.min(self.deadline.duration_since(now)));
        *backoff = backoff.saturating_mul(2);
        Ok(())
    }
}

/// `write_all_at` guarded by `faults`, with up to `max_retries` bounded
/// retries (jittered backoff doubling from `initial_backoff`, total
/// retry wall-clock capped by a deadline) on transient errors. Returns
/// the number of retried attempts. Shared by both executors so their
/// failure behavior is identical.
pub fn write_at_with_retry(
    file: &std::fs::File,
    rank: Rank,
    offset: u64,
    data: &[u8],
    faults: &FaultPlan,
    max_retries: u32,
    initial_backoff: Duration,
) -> Result<u32, WriteError> {
    if let Some(d) = faults.write_delay(rank) {
        if !sched::registered() {
            // A straggling writer: every write pays the injected delay
            // (wall-clock sleeps would wreck controlled-run determinism,
            // so schedule exploration skips the stall itself).
            std::thread::sleep(d);
        }
    }
    let mut attempt = 0u32;
    let mut backoff = initial_backoff;
    let clock = RetryClock::new(max_retries, initial_backoff);
    loop {
        match faults.on_write(rank, data.len() as u64, attempt) {
            Some(WriteFault::Kill) => return Err(WriteError::Killed),
            Some(WriteFault::Error) => {
                if attempt >= max_retries {
                    // EIO: the canonical "device hiccup" errno.
                    return Err(WriteError::Io(io::Error::from_raw_os_error(5)));
                }
                attempt += 1;
                clock.backoff(&mut backoff, rank, offset, attempt)?;
                continue;
            }
            Some(WriteFault::Short { cap }) => {
                // The device takes `cap` bytes now; the remainder is a
                // continuation of the *same* logical write — counted as a
                // short-write retry, never as a hedge or retry attempt.
                let cap = (cap as usize).min(data.len());
                file.write_all_at(&data[..cap], offset)
                    .map_err(WriteError::Io)?;
                if cap < data.len() {
                    counters::add_short_write_retries(1);
                    write_full_at(file, offset, data, cap)?;
                }
                crash::record_write_file(file, offset, data);
                return Ok(attempt);
            }
            Some(WriteFault::Enospc) => {
                return Err(WriteError::Io(io::Error::from_raw_os_error(28)));
            }
            None => {}
        }
        match write_full_at(file, offset, data, 0) {
            Ok(()) => {
                crash::record_write_file(file, offset, data);
                return Ok(attempt);
            }
            Err(WriteError::Io(e)) if attempt < max_retries && is_transient(&e) => {
                attempt += 1;
                clock.backoff(&mut backoff, rank, offset, attempt)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Deliver `data[already..]` at `offset + already`, looping positional
/// writes until every byte lands. Zero progress — or a hard error after
/// partial progress — surfaces a typed [`WriteError::ShortWrite`] with
/// the exact written/expected byte counts rather than a generic error.
/// Each extra syscall past the first counts a short-write retry.
pub fn write_full_at(
    file: &std::fs::File,
    offset: u64,
    data: &[u8],
    already: usize,
) -> Result<(), WriteError> {
    let expected = data.len() as u64;
    let mut written = already;
    let mut continued = false;
    while written < data.len() {
        if continued {
            counters::add_short_write_retries(1);
        }
        match file.write_at(&data[written..], offset + written as u64) {
            Ok(0) => {
                return Err(WriteError::ShortWrite {
                    written: written as u64,
                    expected,
                })
            }
            Ok(n) => {
                written += n;
                continued = true;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if written > already => {
                // A prefix landed and then the device failed hard: report
                // how far the write got, not just the errno.
                let _ = e;
                return Err(WriteError::ShortWrite {
                    written: written as u64,
                    expected,
                });
            }
            Err(e) => return Err(WriteError::Io(e)),
        }
    }
    Ok(())
}

/// Write `bufs` back to back starting at `offset` as **one** logical,
/// fault-checked write of their total length, with the same bounded-retry
/// policy as [`write_at_with_retry`]. Used by the executors to coalesce a
/// run of contiguous `WriteAt` ops into a single vectored syscall.
///
/// Counting the batch as one write changes `FaultPlan`'s per-write
/// accounting granularity, so the executors only coalesce when
/// [`FaultPlan::is_armed`] is false — fault semantics are specified
/// against plan ops, not against batched syscalls.
pub fn write_vectored_at(
    file: &std::fs::File,
    rank: Rank,
    offset: u64,
    bufs: &[&[u8]],
    faults: &FaultPlan,
    max_retries: u32,
    initial_backoff: Duration,
) -> Result<u32, WriteError> {
    if let Some(d) = faults.write_delay(rank) {
        if !sched::registered() {
            std::thread::sleep(d);
        }
    }
    let total: u64 = bufs.iter().map(|b| b.len() as u64).sum();
    let mut attempt = 0u32;
    let mut backoff = initial_backoff;
    let clock = RetryClock::new(max_retries, initial_backoff);
    loop {
        match faults.on_write(rank, total, attempt) {
            Some(WriteFault::Kill) => return Err(WriteError::Killed),
            Some(WriteFault::Error) => {
                if attempt >= max_retries {
                    return Err(WriteError::Io(io::Error::from_raw_os_error(5)));
                }
                attempt += 1;
                clock.backoff(&mut backoff, rank, offset, attempt)?;
                continue;
            }
            // Short injection targets plain writes; a coalesced vectored
            // batch (only built when the plan is unarmed) delivers in
            // full. Bytes are already accounted.
            Some(WriteFault::Short { .. }) => {}
            Some(WriteFault::Enospc) => {
                return Err(WriteError::Io(io::Error::from_raw_os_error(28)));
            }
            None => {}
        }
        match write_vectored_all(file, offset, bufs) {
            Ok(()) => {
                crash::record_write_bufs(file, offset, bufs);
                return Ok(attempt);
            }
            Err(e) if attempt < max_retries && is_transient(&e) => {
                attempt += 1;
                clock.backoff(&mut backoff, rank, offset, attempt)?;
            }
            Err(e) => return Err(WriteError::Io(e)),
        }
    }
}

/// Positional vectored write with full-delivery semantics: seeks to
/// `offset` and loops `write_vectored` until every byte of every buffer
/// has landed. The file's cursor is clobbered; the executors only ever use
/// positional reads/writes elsewhere, and each rank owns its own open file
/// description, so this is safe.
fn write_vectored_all(file: &std::fs::File, offset: u64, bufs: &[&[u8]]) -> io::Result<()> {
    use std::io::{IoSlice, Seek, SeekFrom, Write};
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    let mut f = file;
    f.seek(SeekFrom::Start(offset))?;
    let mut written = 0usize;
    while written < total {
        // Rebuild the slice list past `written` bytes (a partial vectored
        // write is rare; the rebuild cost is irrelevant).
        let mut skip = written;
        let mut slices: Vec<IoSlice> = Vec::with_capacity(bufs.len());
        for b in bufs {
            if skip >= b.len() {
                skip -= b.len();
                continue;
            }
            slices.push(IoSlice::new(&b[skip..]));
            skip = 0;
        }
        match f.write_vectored(&slices) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "vectored write made no progress",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(!p.is_armed());
        assert_eq!(p.on_write(0, 1 << 20, 0), None);
        assert!(!p.on_send(0, 1));
    }

    #[test]
    fn kill_threshold_counts_cumulative_bytes() {
        let p = FaultPlan::none().kill_writer_after_bytes(2, 100);
        assert_eq!(p.on_write(2, 60, 0), None);
        assert_eq!(p.on_write(2, 60, 0), None); // 60 < 100 still
        assert_eq!(p.on_write(2, 1, 0), Some(WriteFault::Kill)); // 120 >= 100
                                                                 // Other ranks unaffected.
        assert_eq!(p.on_write(3, 1 << 30, 0), None);
    }

    #[test]
    fn kill_at_zero_fires_before_first_write() {
        let p = FaultPlan::none().kill_writer_after_bytes(0, 0);
        assert_eq!(p.on_write(0, 1, 0), Some(WriteFault::Kill));
    }

    #[test]
    fn nth_write_fails_then_recovers() {
        let p = FaultPlan::none().fail_nth_write(1, 1, 2);
        assert_eq!(p.on_write(1, 10, 0), None); // write 0 ok
        assert_eq!(p.on_write(1, 10, 0), Some(WriteFault::Error)); // write 1, attempt 0
        assert_eq!(p.on_write(1, 10, 1), Some(WriteFault::Error)); // retry 1
        assert_eq!(p.on_write(1, 10, 2), None); // retry 2 succeeds
        assert_eq!(p.on_write(1, 10, 0), None); // write 2 ok
    }

    #[test]
    fn commit_kill_fires_once_threshold_reached() {
        let p = FaultPlan::none().kill_writer_after_bytes(0, 100);
        assert!(!p.on_commit(0), "threshold not reached yet");
        assert_eq!(p.on_write(0, 100, 0), None);
        assert!(p.on_commit(0), "all data written: die before the rename");
        assert!(!p.on_commit(1));
    }

    #[test]
    fn drops_exactly_the_nth_message() {
        let p = FaultPlan::none().drop_message(5, 0, 1);
        assert!(!p.on_send(5, 0));
        assert!(p.on_send(5, 0));
        assert!(!p.on_send(5, 0));
        assert!(!p.on_send(0, 5)); // direction matters
    }

    #[test]
    fn vectored_write_lands_all_buffers_contiguously() {
        let dir = std::env::temp_dir().join(format!("rbio-fault-vec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v.bin");
        let f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let a = [1u8; 3];
        let b = [2u8; 5];
        let c = [3u8; 2];
        let attempts = write_vectored_at(
            &f,
            0,
            4,
            &[&a, &b, &c],
            &FaultPlan::none(),
            3,
            Duration::from_micros(10),
        )
        .unwrap();
        assert_eq!(attempts, 0);
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[4..], &[1, 1, 1, 2, 2, 2, 2, 2, 3, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn vectored_write_is_one_logical_write_for_faults() {
        let dir = std::env::temp_dir().join(format!("rbio-fault-vec1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(dir.join("w.bin"))
            .unwrap();
        // Fail write index 0 twice: the whole batch retries as a unit.
        let plan = FaultPlan::none().fail_nth_write(9, 0, 2);
        let attempts = write_vectored_at(
            &f,
            9,
            0,
            &[&[5u8; 4], &[6u8; 4]],
            &plan,
            3,
            Duration::from_micros(10),
        )
        .unwrap();
        assert_eq!(attempts, 2);
        // The next write on this rank is logical index 1: no fault left.
        assert_eq!(plan.on_write(9, 1, 0), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clones_share_state() {
        let p = FaultPlan::none().kill_writer_after_bytes(0, 10);
        let q = p.clone();
        assert_eq!(q.on_write(0, 10, 0), None);
        // p sees q's accounting.
        assert_eq!(p.on_write(0, 1, 0), Some(WriteFault::Kill));
    }

    #[test]
    fn hang_is_one_shot_and_delay_persists() {
        let p = FaultPlan::none()
            .hang_writer(3, Duration::from_millis(7))
            .delay_writes(5, Duration::from_micros(2));
        assert!(p.is_armed());
        assert_eq!(p.take_hang(3), Some(Duration::from_millis(7)));
        assert_eq!(p.take_hang(3), None, "hang fires once");
        assert_eq!(p.take_hang(5), None);
        assert_eq!(p.write_delay(5), Some(Duration::from_micros(2)));
        assert_eq!(p.write_delay(5), Some(Duration::from_micros(2)));
        assert_eq!(p.write_delay(3), None);
    }

    #[test]
    fn eio_forever_gives_up_within_the_retry_deadline() {
        let dir = std::env::temp_dir().join(format!("rbio-fault-ddl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(dir.join("d.bin"))
            .unwrap();
        // Every attempt fails, and the attempt budget alone would allow
        // far more retries than the wall-clock deadline: the deadline
        // must end it with a typed error.
        let plan = FaultPlan::none().fail_nth_write(7, 0, u32::MAX);
        let start = Instant::now();
        let err = write_at_with_retry(
            &f,
            7,
            0,
            &[1u8; 8],
            &plan,
            u32::MAX,
            Duration::from_micros(1),
        )
        .expect_err("EIO-forever must not succeed");
        let elapsed = start.elapsed();
        match err {
            WriteError::DeadlineExceeded { waited } => {
                assert!(waited >= Duration::from_millis(50), "{waited:?}");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(
            elapsed < Duration::from_secs(5),
            "gave up far too late: {elapsed:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_fires_at_budget_and_is_persistent() {
        let p = FaultPlan::none().enospc_after_bytes(4, 100);
        assert_eq!(p.on_write(4, 100, 0), None); // fills the device exactly
        assert_eq!(p.on_write(4, 1, 0), Some(WriteFault::Enospc));
        assert_eq!(p.on_write(4, 1, 1), Some(WriteFault::Enospc), "retry too");
        assert_eq!(p.on_write(4, 1, 0), Some(WriteFault::Enospc), "stays full");
        assert_eq!(p.on_write(5, 1 << 20, 0), None, "other ranks unaffected");
    }

    #[test]
    fn enospc_rejects_the_single_write_that_crosses_the_budget() {
        // One large write bigger than the remaining space must fail —
        // the device does not accept a prefix of it.
        let p = FaultPlan::none().enospc_after_bytes(4, 256);
        assert_eq!(p.on_write(4, 1280, 0), Some(WriteFault::Enospc));
        // …and the latch holds even for writes that would have fit.
        assert_eq!(p.on_write(4, 1, 0), Some(WriteFault::Enospc));
    }

    #[test]
    fn enospc_surfaces_errno_28_without_retries() {
        let dir = std::env::temp_dir().join(format!("rbio-fault-nospc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(dir.join("n.bin"))
            .unwrap();
        let plan = FaultPlan::none().enospc_after_bytes(6, 0);
        let start = Instant::now();
        let err = write_at_with_retry(&f, 6, 0, &[1u8; 8], &plan, 8, Duration::from_millis(10))
            .expect_err("full device must fail");
        assert!(
            start.elapsed() < Duration::from_millis(10),
            "ENOSPC must not consume the retry schedule"
        );
        match err {
            WriteError::Io(e) => assert_eq!(e.raw_os_error(), Some(28)),
            other => panic!("expected Io(ENOSPC), got {other:?}"),
        }
    }

    #[test]
    fn fsync_failure_is_sticky() {
        let p = FaultPlan::none().fsync_eio(2);
        let e = p.on_fsync(2).expect("injected fsync failure");
        assert_eq!(e.raw_os_error(), Some(5));
        // fsyncgate: a retried fsync must not report clean.
        assert!(p.on_fsync(2).is_some(), "second fsync must also fail");
        assert!(p.on_fsync(2).is_some(), "and every one after");
        assert!(p.on_fsync(3).is_none(), "other ranks unaffected");
    }

    #[test]
    fn real_fsync_failure_latches_the_rank() {
        let p = FaultPlan::none();
        assert!(p.on_fsync(1).is_none());
        p.latch_fsync_failure(1);
        assert!(p.on_fsync(1).is_some(), "latched rank can never sync clean");
        assert!(p.on_fsync(0).is_none());
    }

    #[test]
    fn kills_classify_by_type_not_by_message() {
        use crate::pipeline::PipelineError;
        let serial = WriteError::Killed.into_io(3, "write");
        let pipelined = io::Error::from(PipelineError::Killed { rank: 3 });
        assert!(is_killed(&serial) && is_killed(&pipelined));
        let others = [
            WriteError::Io(io::Error::from_raw_os_error(5)).into_io(3, "write"),
            WriteError::Io(io::Error::from_raw_os_error(28)).into_io(3, "write"),
            WriteError::DeadlineExceeded {
                waited: Duration::from_millis(5),
            }
            .into_io(3, "write"),
            io::Error::from(PipelineError::Io(io::Error::from_raw_os_error(5))),
            // Message text alone no longer makes a kill.
            io::Error::other("fault injection: rank 3 killed"),
        ];
        for e in &others {
            assert!(!is_killed(e), "{e} must not classify as a kill");
        }
        assert_eq!(others[2].kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn bounded_attempts_still_recover_under_the_deadline() {
        let dir = std::env::temp_dir().join(format!("rbio-fault-rec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let f = std::fs::OpenOptions::new()
            .create(true)
            .truncate(true)
            .read(true)
            .write(true)
            .open(dir.join("r.bin"))
            .unwrap();
        let plan = FaultPlan::none().fail_nth_write(2, 0, 2);
        let attempts =
            write_at_with_retry(&f, 2, 0, &[9u8; 4], &plan, 3, Duration::from_micros(10))
                .expect("recovers inside both budgets");
        assert_eq!(attempts, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
