//! The rank interpreter shared by every real executor.
//!
//! The three strategies (1PFPP, coIO, rbIO) are plan shapes over one op
//! vocabulary, and [`RankVm`] is the one place that vocabulary means
//! something on a real machine: it runs one rank's op list against real
//! files, owning data resolution, `Pack`/`Send`/`Recv` staging, write-run
//! coalescing, serial/vectored/pipelined writes, tier staging, `ReadAt`,
//! `Close` with fsync, `Commit`, and the [`sched`] events the checker
//! observes. Everything that differs between executors sits behind the
//! [`Transport`] trait — how messages move, what a barrier is, and who
//! may commit:
//!
//! * `exec`'s channel mesh (abort flag, heartbeats, failover fencing);
//! * `rt`'s [`crate::rt::Comm`] (plan tag space, tag fan-in barrier);
//! * `exec`'s takeover replay, where a successor re-runs a dead writer's
//!   ops and resolves each `Recv` from the sender's plan.
//!
//! Both message transports queue through one [`Mailbox`] type.

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rbio_plan::{DataRef, Op, Program};
use rbio_profile::counters;

use crate::buf::{BufPool, Bytes};
use crate::exec::{ExecConfig, REVERT_PR3_FAULT_DROP};
use crate::fault;
use crate::format::synthetic_byte;
use crate::pipeline::{FlushJob, FlushPool, WriterHandle, WriterTuning};
use crate::sched::{self, Point};
use crate::tier::TierStage;
use crate::{commit, crash};

/// A queued message: `(src, tag, data)`.
pub(crate) type Msg = (u32, u64, Bytes);

/// Futile polls a controlled run allows a blocked send or receive before
/// the typed timeout surfaces — the deterministic analogue of the
/// wall-clock deadline.
const CHECK_POLL_BUDGET: u32 = 2000;

/// Why a mailbox wait ended without delivering.
pub(crate) enum Wait {
    /// The deadline (or controlled poll budget) ran out.
    Timeout,
    /// The peer's endpoint is gone.
    Closed,
    /// The caller's liveness check asked to stop.
    Aborted,
}

/// One rank's receive side: a bounded `sync_channel` plus a stash of
/// messages that arrived ahead of the `(src, tag)` being waited for, so
/// matching is FIFO per `(src, tag)` channel.
pub(crate) struct Mailbox {
    rx: Receiver<Msg>,
    stash: HashMap<(u32, u64), VecDeque<Bytes>>,
}

impl Mailbox {
    /// `n` mailboxes of `capacity` messages each, with their senders.
    pub(crate) fn mesh(n: usize, capacity: usize) -> (Vec<SyncSender<Msg>>, Vec<Mailbox>) {
        (0..n)
            .map(|_| {
                let (tx, rx) = sync_channel::<Msg>(capacity.max(1));
                let stash = HashMap::new();
                (tx, Mailbox { rx, stash })
            })
            .unzip()
    }

    /// Receive the next message from `src` on `tag`, waiting at most
    /// `timeout` (a poll budget under a controlled scheduler). `alive`
    /// runs at every poll; returning `false` aborts the wait.
    pub(crate) fn recv(
        &mut self,
        src: u32,
        tag: u64,
        timeout: Duration,
        alive: &dyn Fn() -> bool,
    ) -> Result<Bytes, Wait> {
        if let Some(d) = self
            .stash
            .get_mut(&(src, tag))
            .and_then(VecDeque::pop_front)
        {
            return Ok(d);
        }
        let controlled = sched::registered();
        let mut budget = CHECK_POLL_BUDGET;
        let deadline = Instant::now() + timeout;
        loop {
            if !alive() {
                return Err(Wait::Aborted);
            }
            let got = if controlled {
                match self.rx.try_recv() {
                    Ok(m) => Some(m),
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => return Err(Wait::Closed),
                }
            } else {
                let slice = Duration::from_millis(25)
                    .min(deadline.saturating_duration_since(Instant::now()));
                match self.rx.recv_timeout(slice) {
                    Ok(m) => Some(m),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => return Err(Wait::Closed),
                }
            };
            match got {
                Some((s, t, d)) if s == src && t == tag => return Ok(d),
                Some((s, t, d)) => self.stash.entry((s, t)).or_default().push_back(d),
                None if controlled => {
                    if budget == 0 {
                        return Err(Wait::Timeout);
                    }
                    budget -= 1;
                    sched::yield_now(Point::RecvEmpty);
                }
                None if Instant::now() >= deadline => return Err(Wait::Timeout),
                None => {}
            }
        }
    }
}

/// Send into a bounded mailbox. A full mailbox blocks the sender — the
/// backpressure that caps resident queue bytes at the mailbox capacity —
/// until a slot frees, `alive` says stop, or `timeout` passes.
pub(crate) fn send_bounded(
    tx: &SyncSender<Msg>,
    msg: Msg,
    timeout: Duration,
    alive: &dyn Fn() -> bool,
) -> Result<(), Wait> {
    use std::sync::mpsc::TrySendError;
    let mut msg = match tx.try_send(msg) {
        Ok(()) => return Ok(()),
        Err(TrySendError::Disconnected(_)) => return Err(Wait::Closed),
        Err(TrySendError::Full(m)) => m,
    };
    counters::add_send_backpressure_blocks(1);
    let controlled = sched::registered();
    let mut budget = CHECK_POLL_BUDGET;
    let deadline = Instant::now() + timeout;
    loop {
        if !alive() {
            return Err(Wait::Aborted);
        }
        msg = match tx.try_send(msg) {
            Ok(()) => return Ok(()),
            Err(TrySendError::Disconnected(_)) => return Err(Wait::Closed),
            Err(TrySendError::Full(m)) => m,
        };
        if (controlled && budget == 0) || (!controlled && Instant::now() >= deadline) {
            counters::add_send_backpressure_timeouts(1);
            return Err(Wait::Timeout);
        }
        if controlled {
            budget -= 1;
            sched::yield_now(Point::SendFull);
        } else {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// Where a rank's payload lives. `exec` owns each payload as [`Bytes`],
/// so an owned snapshot is an O(1) slice; `rt` borrows the application's
/// buffer, so an owned snapshot costs one counted copy (MPI's eager
/// buffer).
#[derive(Clone, Copy)]
pub(crate) enum Payload<'a> {
    Shared(&'a Bytes),
    Borrowed(&'a [u8]),
}

impl<'a> Payload<'a> {
    fn get(self, off: u64, len: u64) -> &'a [u8] {
        let range = off as usize..(off + len) as usize;
        match self {
            Payload::Shared(b) => &b[range],
            Payload::Borrowed(s) => &s[range],
        }
    }

    /// An owned, immutable snapshot of `off..off+len`.
    pub(crate) fn snapshot(self, off: u64, len: u64) -> Bytes {
        match self {
            Payload::Shared(b) => b.slice(off as usize..(off + len) as usize),
            Payload::Borrowed(_) => BufPool::global().copy_from_slice(self.get(off, len)),
        }
    }
}

/// How a [`RankVm`] reaches the rest of the world.
pub(crate) trait Transport {
    /// Called at every op boundary: liveness beats, abort checks.
    fn progress(&mut self) -> io::Result<()> {
        Ok(())
    }
    /// Deliver `data` to `dst` on plan tag `tag`.
    fn send(&mut self, dst: u32, tag: u64, data: Bytes) -> io::Result<()>;
    /// Receive the next message from `src` on plan tag `tag`.
    fn recv(&mut self, src: u32, tag: u64) -> io::Result<Bytes>;
    /// Wait for every rank of plan communicator `comm` (`members`).
    fn barrier(&mut self, comm: u32, members: &[u32]) -> io::Result<()>;
    /// May this rank publish `file`? Refusing skips the commit silently.
    fn commit_gate(&mut self, _file: u32) -> bool {
        true
    }
    /// An injected hang of `stall` hit under a controlled scheduler,
    /// where no wall-clock monitor runs: announce its verdict.
    fn stalled(&mut self, _stall: Duration) {}
}

/// `cfg`'s background flush pipeline for `rank`, when `pipeline_depth`
/// asks for one.
pub(crate) fn pipeline(
    rank: u32,
    cfg: &ExecConfig,
    hedge_after: Option<Duration>,
    beat: Option<Arc<AtomicU64>>,
) -> Option<WriterHandle> {
    (cfg.pipeline_depth >= 2).then(|| {
        FlushPool::current().register(
            rank,
            cfg.pipeline_depth,
            cfg.faults.clone(),
            WriterTuning {
                write_retries: cfg.write_retries,
                retry_backoff: cfg.retry_backoff,
                jitter_seed: cfg.pipeline_jitter,
                hedge_after,
                beat,
            },
        )
    })
}

/// Byte length a `DataRef` describes.
fn src_len(r: &DataRef) -> u64 {
    match *r {
        DataRef::Own { len, .. } | DataRef::Staging { len, .. } | DataRef::Synthetic { len } => len,
    }
}

/// The source of a `WriteAt` op (callers guarantee the variant).
fn write_src(op: &Op) -> &DataRef {
    match op {
        Op::WriteAt { src, .. } => src,
        _ => unreachable!("write run contains only WriteAt ops"),
    }
}

/// Length of the maximal coalescible run of `WriteAt` ops starting at
/// `ops[i]`: same file, byte-contiguous offsets, bounded size.
fn write_run_len(ops: &[Op], i: usize, file: u32, max_bytes: u64, max_ops: usize) -> usize {
    let mut end = i + 1;
    let mut total = src_len(write_src(&ops[i]));
    let Op::WriteAt { offset, .. } = ops[i] else {
        unreachable!("write run starts at a WriteAt")
    };
    while end < ops.len() && end - i < max_ops.max(1) && total < max_bytes.max(1) {
        match &ops[end] {
            Op::WriteAt {
                file: f2,
                offset: o2,
                src,
            } if f2.0 == file && *o2 == offset + total => {
                total += src_len(src);
                end += 1;
            }
            _ => break,
        }
    }
    end
}

/// The bytes `r` names for an op that is done with them before it
/// retires: payload and staging sources are borrowed; synthetic data is
/// generated, never copied.
fn source<'s>(
    payload: Payload<'s>,
    staging: &'s [u8],
    r: &DataRef,
    file_off: u64,
) -> Cow<'s, [u8]> {
    match *r {
        DataRef::Own { off, len } => Cow::Borrowed(payload.get(off, len)),
        DataRef::Staging { off, len } => {
            Cow::Borrowed(&staging[off as usize..(off + len) as usize])
        }
        DataRef::Synthetic { len } => {
            Cow::Owned((0..len).map(|i| synthetic_byte(file_off + i)).collect())
        }
    }
}

/// One rank's interpreter state.
pub(crate) struct RankVm<'a> {
    /// Identity for faults, pipeline and events (the successor, in a
    /// takeover).
    rank: u32,
    /// Whose op list runs (the orphan, in a takeover).
    owner: u32,
    program: &'a Program,
    cfg: &'a ExecConfig,
    payload: Payload<'a>,
    staging: Vec<u8>,
    files: HashMap<u32, Arc<File>>,
    /// Background flush pipeline (`pipeline_depth >= 2` only).
    pub(crate) pipe: Option<WriterHandle>,
    /// Write attempts repeated after transient errors.
    pub(crate) retries: u64,
}

impl<'a> RankVm<'a> {
    /// A VM running `owner`'s ops as `rank` over `owner`'s payload.
    pub(crate) fn new(
        rank: u32,
        owner: u32,
        program: &'a Program,
        cfg: &'a ExecConfig,
        payload: Payload<'a>,
        pipe: Option<WriterHandle>,
    ) -> Self {
        RankVm {
            rank,
            owner,
            program,
            cfg,
            payload,
            staging: vec![0u8; program.staging[owner as usize] as usize],
            files: HashMap::new(),
            pipe,
            retries: 0,
        }
    }

    /// Run the op list to completion (pipeline drained) or first error.
    pub(crate) fn run(&mut self, t: &mut impl Transport) -> io::Result<()> {
        let ops = &self.program.ops[self.owner as usize];
        let mut i = 0;
        while i < ops.len() {
            sched::yield_now(Point::Progress);
            t.progress()?;
            i = self.step(ops, i, t)?;
        }
        self.drain()
    }

    /// Execute `ops[i]` (or the write run starting there); returns the
    /// index of the next op.
    fn step(&mut self, ops: &'a [Op], i: usize, t: &mut impl Transport) -> io::Result<usize> {
        let cfg = self.cfg;
        match &ops[i] {
            Op::Compute { nanos } => {
                if cfg.honor_compute {
                    std::thread::sleep(Duration::from_nanos(*nanos));
                }
            }
            Op::Pack { src: None, .. } => {}
            Op::Pack {
                src: Some(s),
                staging_off,
                bytes,
            } => {
                counters::add_bytes_copied(*bytes);
                let at = *staging_off as usize;
                if let DataRef::Staging { off, len } = *s {
                    self.staging
                        .copy_within(off as usize..(off + len) as usize, at);
                } else {
                    let data = source(self.payload, &[], s, 0);
                    self.staging[at..at + data.len()].copy_from_slice(&data);
                }
            }
            Op::Send { dst, tag, src } => {
                let data = self.owned(src, 0);
                // A replay re-forwards sends the owner already attempted
                // (and fault-checked); only a first execution rolls the
                // drop fault and announces the attempt.
                if self.owner == self.rank {
                    let dropped = cfg.faults.on_send(self.rank, *dst);
                    sched::emit(|| sched::Event::SendAttempt {
                        rank: self.rank,
                        dst: *dst,
                        op_index: i,
                        dropped,
                    });
                    if dropped {
                        // Injected message loss: the receiver times out.
                        // Moving past the op is load-bearing: without it
                        // the op re-executes and, the drop budget spent,
                        // delivers the "lost" message after all.
                        let revert = REVERT_PR3_FAULT_DROP.load(Ordering::Relaxed);
                        return Ok(if revert { i } else { i + 1 });
                    }
                }
                t.send(*dst, tag.0, data)?;
            }
            Op::Recv {
                src,
                tag,
                bytes,
                staging_off,
            } => {
                let data = t.recv(*src, tag.0)?;
                if data.len() as u64 != *bytes {
                    return Err(io::Error::other(PlanMismatch(format!(
                        "recv size mismatch: want {bytes}, got {}",
                        data.len()
                    ))));
                }
                // The one aggregation copy the plan IR mandates: the
                // received chunk lands in this rank's staging image.
                counters::add_bytes_copied(*bytes);
                let at = *staging_off as usize;
                self.staging[at..at + data.len()].copy_from_slice(&data);
            }
            Op::Barrier { comm } => {
                // Barriers carry cross-rank happens-before edges (e.g.
                // "all collective writes land before the owner commits"),
                // so the pipeline must be empty on entry.
                self.drain()?;
                sched::emit(|| sched::Event::BarrierEnter { rank: self.rank });
                t.barrier(comm.0, &self.program.comms[comm.0 as usize])?;
            }
            Op::Open { file, create } => {
                // A tier-staged file has no filesystem object until the
                // drain engine publishes it.
                if self.staged_for(file.0).is_none() {
                    self.open(file.0, *create)?;
                }
            }
            Op::WriteAt { file, .. } => return self.write_run(ops, i, file.0, t),
            Op::ReadAt {
                file,
                offset,
                len,
                staging_off,
            } => {
                // Read-after-write: pending flushes must land first.
                self.drain()?;
                let f = self.files.get(&file.0).expect("validated: opened");
                let at = *staging_off as usize;
                f.read_exact_at(&mut self.staging[at..at + *len as usize], *offset)?;
            }
            Op::Close { file } => {
                if let Some(f) = self.files.remove(&file.0) {
                    let fsync = cfg.fsync_on_close;
                    if self.pipe.is_some() {
                        self.submit(FlushJob::Close { file: f, fsync })?;
                    } else if fsync {
                        if let Some(e) = cfg.faults.on_fsync(self.rank) {
                            return Err(e);
                        }
                        f.sync_all()
                            .inspect_err(|_| cfg.faults.latch_fsync_failure(self.rank))?;
                        crash::record_fsync_file(&f);
                    }
                }
            }
            Op::Commit { file } => {
                if t.commit_gate(file.0) {
                    self.commit(file.0)?;
                }
            }
        }
        Ok(i + 1)
    }

    /// An owned, immutable snapshot of `r` — what a `Send` or a deferred
    /// (pipelined) write needs, since the op retires before the bytes
    /// are consumed. Staging is reused by later ops, so its bytes are
    /// copied (counted); payload bytes follow [`Payload::snapshot`].
    fn owned(&self, r: &DataRef, file_off: u64) -> Bytes {
        match *r {
            DataRef::Synthetic { len } => {
                BufPool::global().from_fn(len as usize, |i| synthetic_byte(file_off + i as u64))
            }
            DataRef::Own { off, len } => self.payload.snapshot(off, len),
            DataRef::Staging { .. } => BufPool::global().copy_from_slice(&self.bytes(r, file_off)),
        }
    }

    fn bytes(&self, r: &DataRef, file_off: u64) -> Cow<'_, [u8]> {
        source(self.payload, &self.staging, r, file_off)
    }

    /// The tier stage `file` diverts into: staging must be configured
    /// and the file atomic (only committed files are drain-publishable).
    fn staged_for(&self, file: u32) -> Option<&'a Arc<TierStage>> {
        let stage = self.cfg.stage.as_ref()?;
        self.program.files[file as usize].atomic.then_some(stage)
    }

    fn final_path(&self, file: u32) -> PathBuf {
        self.cfg
            .base_dir
            .join(&self.program.files[file as usize].name)
    }

    /// Open `file` — atomic files under their `.tmp` sibling until the
    /// owner's `Commit` renames them into place.
    fn open(&mut self, file: u32, create: bool) -> io::Result<()> {
        let mut path = self.final_path(file);
        if self.program.files[file as usize].atomic {
            path = commit::tmp_path(&path);
        }
        let mut opts = OpenOptions::new();
        opts.write(true).read(true);
        if create {
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent)?;
            }
            opts.create(true).truncate(true);
        }
        self.files.insert(file, Arc::new(opts.open(&path)?));
        Ok(())
    }

    /// Execute the coalescible run of `WriteAt` ops starting at `ops[i]`;
    /// returns the index of the first op not consumed.
    ///
    /// Coalescing turns byte-contiguous same-file writes into one
    /// vectored write. It is skipped when faults are armed — the
    /// [`fault::FaultPlan`] counts logical writes, one per plan op.
    /// Tier-staged runs always coalesce: a slab append has no fault hooks
    /// (the staged path's failure mode is losing the tier, not a torn
    /// write).
    fn write_run(
        &mut self,
        ops: &'a [Op],
        i: usize,
        file: u32,
        t: &mut impl Transport,
    ) -> io::Result<usize> {
        self.maybe_hang(t);
        let cfg = self.cfg;
        let stage = self.staged_for(file);
        let coalesce = stage.is_some() || !cfg.faults.is_armed();
        let end = if coalesce {
            write_run_len(ops, i, file, cfg.coalesce_max_bytes, cfg.coalesce_max_ops)
        } else {
            i + 1
        };
        let Op::WriteAt { offset, .. } = ops[i] else {
            unreachable!("write run starts at a WriteAt")
        };
        let run: Vec<(&DataRef, u64)> = ops[i..end]
            .iter()
            .scan(offset, |off, o| {
                let at = *off;
                *off += src_len(write_src(o));
                Some((write_src(o), at))
            })
            .collect();
        counters::add_checkpoint_bytes(run.iter().map(|(s, _)| src_len(s)).sum());

        if let Some(stage) = stage {
            let name = &self.program.files[file as usize].name;
            for &(s, at) in &run {
                stage
                    .append(name, at, &self.bytes(s, at))
                    .map_err(io::Error::other)?;
            }
            return Ok(end);
        }
        let f = Arc::clone(self.files.get(&file).expect("validated: opened"));
        if self.pipe.is_some() {
            // Deferred flush: snapshot each source as owned `Bytes` so the
            // background write never races with later staging reuse.
            let mut bufs: Vec<Bytes> = run.iter().map(|&(s, at)| self.owned(s, at)).collect();
            let job = if bufs.len() == 1 {
                let data = bufs.pop().expect("one chunk");
                FlushJob::Write {
                    file: f,
                    offset,
                    data,
                }
            } else {
                FlushJob::WriteV {
                    file: f,
                    offset,
                    bufs,
                }
            };
            self.submit(job)?;
            return Ok(end);
        }
        // Serial: the write completes before the op retires, so sources
        // are borrowed, never snapshotted.
        let chunks: Vec<Cow<'_, [u8]>> = run.iter().map(|&(s, at)| self.bytes(s, at)).collect();
        let (rank, faults) = (self.rank, &cfg.faults);
        let (tries, backoff) = (cfg.write_retries, cfg.retry_backoff);
        let res = match chunks.as_slice() {
            [one] => fault::write_at_with_retry(&f, rank, offset, one, faults, tries, backoff),
            _ => {
                let slices: Vec<&[u8]> = chunks.iter().map(|c| &**c).collect();
                fault::write_vectored_at(&f, rank, offset, &slices, faults, tries, backoff)
            }
        };
        drop(chunks);
        self.retries += u64::from(res.map_err(|e| e.into_io(rank, "write"))?);
        Ok(end)
    }

    /// Consult the one-shot hang fault for this rank, if armed. A hang
    /// models a wedged writer: in production the thread sleeps and a
    /// monitor watches its heartbeat go stale; under a controlled
    /// scheduler wall-clock stalls would wreck determinism, so the
    /// transport announces the monitor's verdict itself and the rank
    /// yields so peers interleave. Either way the rank revives afterwards
    /// and runs on — the commit gate is what keeps a fenced zombie from
    /// publishing.
    fn maybe_hang(&mut self, t: &mut impl Transport) {
        let Some(d) = self.cfg.faults.take_hang(self.rank) else {
            return;
        };
        if sched::registered() {
            t.stalled(d);
            for _ in 0..4 {
                sched::yield_now(Point::Progress);
            }
        } else {
            std::thread::sleep(d);
        }
    }

    /// Publish `file`: seal it into the tier stage, or footer + rename it
    /// (inside a flush job when pipelined, so it lands after this
    /// writer's data writes).
    fn commit(&mut self, file: u32) -> io::Result<()> {
        let cfg = self.cfg;
        let spec = &self.program.files[file as usize];
        if let Some(stage) = self.staged_for(file) {
            // Sealing is the whole commit; the drain engine publishes to
            // the PFS (with footer + rename) in the background.
            stage.seal_file(&spec.name, spec.size);
            return Ok(());
        }
        let final_path = self.final_path(file);
        let tmp = commit::tmp_path(&final_path);
        let (size, fsync) = (spec.size, cfg.fsync_on_close);
        if self.pipe.is_some() {
            return self.submit(FlushJob::Commit {
                tmp,
                final_path,
                size,
                fsync,
            });
        }
        if cfg.faults.on_commit(self.rank) {
            // The rank dies after its data writes but before the rename:
            // the final name must never appear.
            return Err(fault::killed_error(self.rank));
        }
        commit::commit_file_with_faults(&tmp, &final_path, size, fsync, &cfg.faults, self.rank)?;
        sched::emit(|| sched::Event::ExtentCommit {
            owner: self.owner,
            by: self.rank,
            path_hash: sched::path_fingerprint(&final_path),
        });
        Ok(())
    }

    fn submit(&self, job: FlushJob) -> io::Result<()> {
        let pipe = self.pipe.as_ref().expect("pipelined path");
        Ok(pipe.submit(job)?)
    }

    fn drain(&mut self) -> io::Result<()> {
        if let Some(p) = &self.pipe {
            self.retries += p.drain()?;
        }
        Ok(())
    }
}

/// Error payload for a plan whose messages disagree with its receives.
#[derive(Debug)]
pub(crate) struct PlanMismatch(pub(crate) String);

impl std::fmt::Display for PlanMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for PlanMismatch {}
