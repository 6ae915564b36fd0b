//! A small MPI-like in-process runtime.
//!
//! NekCEM-style applications are SPMD: every rank runs the same program on
//! its own data, communicating by message passing (§III-A). This module
//! provides that shape at in-process scale — one OS thread per rank, a
//! [`Comm`] handle with `send`/`recv`/`barrier`/reductions — so a
//! downstream application can write its compute loop naturally and call
//! [`checkpoint_rank`] collectively wherever it wants a checkpoint, with
//! every rank executing exactly its own slice of the compiled plan.
//!
//! [`checkpoint_rank`] runs the same rank interpreter as
//! [`crate::exec::execute`] (the crate-private `vm` module), with the
//! rank's [`Comm`] as its transport: plan messages travel in a reserved
//! tag space and plan barriers are a tag fan-in over `comm`. Messages
//! match FIFO per `(src, tag)` channel, through the same bounded mailbox
//! type as `exec`'s mesh. A test asserts that a plan executed
//! rank-by-rank under this runtime produces byte-identical files to
//! `execute`.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use rbio_plan::Program;

use crate::buf::Bytes;
use crate::exec::{ExecConfig, DEFAULT_CHAN_CAPACITY};
use crate::failover::{FailoverPolicy, WriterHealth};
use crate::fault;
use crate::sched::{self, Point};
use crate::vm::{self, Mailbox, Msg, Payload, PlanMismatch, RankVm, Transport, Wait};

/// Tag space of plan barriers (`+ comm id`).
const BARRIER_TAG_BASE: u64 = 1 << 62;
/// Tag space of plan messages (`+ plan tag`).
const PLAN_TAG_BASE: u64 = 1 << 61;

/// A typed runtime failure, always carrying the failing rank.
#[derive(Debug)]
pub enum RtError {
    /// A peer's thread has exited: its channel endpoint is gone.
    PeerGone {
        /// Rank observing the failure.
        rank: u32,
        /// The vanished peer.
        peer: u32,
    },
    /// A send blocked on a full bounded mailbox for the whole deadline:
    /// the receiver is stalled (or slower than the sender's burst) and
    /// backpressure reached the surface instead of growing the heap.
    SendTimeout {
        /// Rank observing the failure.
        rank: u32,
        /// The backpressuring destination.
        dst: u32,
        /// Tag of the stuck message.
        tag: u64,
        /// How long the rank waited.
        waited: Duration,
    },
    /// No matching message arrived within the receive timeout (a lost
    /// handoff — e.g. a dropped worker→writer message).
    RecvTimeout {
        /// Rank observing the failure.
        rank: u32,
        /// Expected sender.
        src: u32,
        /// Expected tag.
        tag: u64,
        /// How long the rank waited.
        waited: Duration,
        /// The peer's health as classified by the failover policy derived
        /// from this receive timeout: a stall of the full timeout is past
        /// the dead deadline, so a recovery layer above the runtime can
        /// treat the sender as dead rather than merely slow.
        peer_health: WriterHealth,
    },
    /// An I/O error in the plan's file ops (retries exhausted).
    Io {
        /// Failing rank.
        rank: u32,
        /// Underlying error.
        source: io::Error,
    },
    /// Fault injection terminated the rank mid-plan.
    Killed {
        /// The killed rank.
        rank: u32,
    },
    /// Plan and runtime state disagree (wrong message size, bad call).
    PlanMismatch {
        /// Failing rank.
        rank: u32,
        /// Description.
        what: String,
    },
}

impl std::fmt::Display for RtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RtError::PeerGone { rank, peer } => {
                write!(f, "rank {rank}: peer rank {peer} is gone")
            }
            RtError::SendTimeout {
                rank,
                dst,
                tag,
                waited,
            } => write!(
                f,
                "rank {rank}: rank {dst}'s mailbox stayed full for {waited:?} \
                 sending tag {tag} (stalled receiver?)"
            ),
            RtError::RecvTimeout {
                rank,
                src,
                tag,
                waited,
                peer_health,
            } => write!(
                f,
                "rank {rank}: no message from rank {src} tag {tag} within {waited:?} \
                 (peer classified {peer_health:?})"
            ),
            RtError::Io { rank, source } => write!(f, "rank {rank}: {source}"),
            RtError::Killed { rank } => write!(f, "rank {rank}: killed by fault injection"),
            RtError::PlanMismatch { rank, what } => write!(f, "rank {rank}: {what}"),
        }
    }
}

impl std::error::Error for RtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RtError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Communicator handle owned by one rank's thread.
pub struct Comm {
    rank: u32,
    size: u32,
    senders: Arc<Vec<SyncSender<Msg>>>,
    mailbox: Mailbox,
    world_barrier: Arc<Barrier>,
    reduce_slots: Arc<Vec<Mutex<Vec<f64>>>>,
    recv_timeout: Duration,
}

impl Comm {
    /// This rank's id.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Total ranks.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// How long `recv` waits before failing with [`RtError::RecvTimeout`]
    /// (default 2 s), and how long a backpressured `send` waits on a full
    /// mailbox before failing with [`RtError::SendTimeout`]. A timeout
    /// turns a lost message (or a stalled receiver) into a typed error
    /// instead of a hang.
    pub fn set_recv_timeout(&mut self, timeout: Duration) {
        self.recv_timeout = timeout;
    }

    /// Nonblocking-style send while the destination's bounded mailbox
    /// has room (`MPI_Isend` with eager buffering: the one copy into the
    /// eager buffer happens here). A full mailbox blocks — that bounded
    /// wait is the runtime's backpressure, capping resident queue bytes
    /// at the mailbox capacity — and fails with [`RtError::SendTimeout`]
    /// after the timeout. Fails with [`RtError::PeerGone`] if the
    /// destination rank's thread has already exited.
    pub fn send(&self, dst: u32, tag: u64, data: &[u8]) -> Result<(), RtError> {
        self.send_bytes(dst, tag, Bytes::from_vec(data.to_vec()))
    }

    /// [`Comm::send`] for callers that already own the bytes: the buffer
    /// moves into the channel with no copy at all.
    pub fn send_bytes(&self, dst: u32, tag: u64, data: Bytes) -> Result<(), RtError> {
        let tx = &self.senders[dst as usize];
        let msg = (self.rank, tag, data);
        vm::send_bounded(tx, msg, self.recv_timeout, &|| true).map_err(|w| match w {
            Wait::Timeout => RtError::SendTimeout {
                rank: self.rank,
                dst,
                tag,
                waited: self.recv_timeout,
            },
            Wait::Closed | Wait::Aborted => RtError::PeerGone {
                rank: self.rank,
                peer: dst,
            },
        })
    }

    /// Blocking receive matching `(src, tag)`, FIFO per channel. Fails
    /// with [`RtError::RecvTimeout`] when nothing arrives in time.
    pub fn recv(&mut self, src: u32, tag: u64) -> Result<Vec<u8>, RtError> {
        self.recv_bytes(src, tag).map(Bytes::into_vec)
    }

    /// [`Comm::recv`] without the `Vec` conversion: the returned handle
    /// is the sender's buffer, not a copy.
    pub fn recv_bytes(&mut self, src: u32, tag: u64) -> Result<Bytes, RtError> {
        let timeout = self.recv_timeout;
        self.mailbox
            .recv(src, tag, timeout, &|| true)
            .map_err(|w| match w {
                Wait::Timeout => self.recv_timeout_error(src, tag),
                Wait::Closed | Wait::Aborted => RtError::PeerGone {
                    rank: self.rank,
                    peer: src,
                },
            })
    }

    /// The typed timeout error for a receive from `src`, classifying the
    /// silent peer through the failover health state machine.
    fn recv_timeout_error(&self, src: u32, tag: u64) -> RtError {
        RtError::RecvTimeout {
            rank: self.rank,
            src,
            tag,
            waited: self.recv_timeout,
            peer_health: FailoverPolicy::from_recv_timeout(self.recv_timeout)
                .classify_stall(self.recv_timeout),
        }
    }

    /// Barrier across all ranks.
    pub fn barrier(&self) {
        self.world_barrier.wait();
    }

    /// All-reduce a double with `op` (commutative); returns the reduction
    /// of every rank's contribution. Implemented as a shared slot vector
    /// plus two barriers — fine at in-process scale.
    pub fn allreduce_f64(&self, value: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        {
            let mut slot = self.reduce_slots[0].lock().expect("no poisoned locks");
            slot[self.rank as usize] = value;
        }
        self.barrier();
        let result = {
            let slot = self.reduce_slots[0].lock().expect("no poisoned locks");
            slot.iter().copied().reduce(&op).expect("nonempty")
        };
        self.barrier();
        result
    }

    /// Broadcast `data` from `root` to every rank; returns the payload.
    pub fn broadcast(&mut self, root: u32, data: Option<&[u8]>) -> Result<Vec<u8>, RtError> {
        const BCAST_TAG: u64 = u64::MAX - 1;
        if self.rank == root {
            let d = data.expect("root must supply the payload");
            for r in 0..self.size {
                if r != root {
                    self.send(r, BCAST_TAG, d)?;
                }
            }
            Ok(d.to_vec())
        } else {
            self.recv(root, BCAST_TAG)
        }
    }
}

/// Run `f` on `nranks` ranks (one thread each) and collect the per-rank
/// return values in rank order. Rank mailboxes hold
/// [`DEFAULT_CHAN_CAPACITY`] messages; see [`run_with_capacity`].
pub fn run<T, F>(nranks: u32, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Sync,
{
    run_with_capacity(nranks, DEFAULT_CHAN_CAPACITY, f)
}

/// [`run`] with an explicit per-rank mailbox capacity. Mailboxes are
/// bounded `sync_channel`s: a sender facing a full mailbox blocks (so a
/// burst or a stalled receiver caps resident queue bytes at
/// `chan_capacity` messages) and fails with [`RtError::SendTimeout`]
/// after the receive-timeout deadline.
pub fn run_with_capacity<T, F>(nranks: u32, chan_capacity: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Sync,
{
    assert!(nranks >= 1);
    let (txs, mailboxes) = Mailbox::mesh(nranks as usize, chan_capacity);
    let senders = Arc::new(txs);
    let world_barrier = Arc::new(Barrier::new(nranks as usize));
    let reduce_slots = Arc::new(vec![Mutex::new(vec![0.0; nranks as usize])]);

    // Under a controlled scheduler the driver must not block in the
    // scope join while rank threads still need the run token: it spins
    // on this counter at a yield point first (see `exec::execute`).
    let controlled = sched::controlled();
    let ranks_alive = AtomicUsize::new(nranks as usize);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks as usize);
        for (rank, mailbox) in mailboxes.into_iter().enumerate() {
            let comm = Comm {
                rank: rank as u32,
                size: nranks,
                senders: Arc::clone(&senders),
                mailbox,
                world_barrier: Arc::clone(&world_barrier),
                reduce_slots: Arc::clone(&reduce_slots),
                recv_timeout: Duration::from_secs(2),
            };
            let f = &f;
            let ranks_alive = &ranks_alive;
            if controlled {
                sched::spawning();
            }
            handles.push(scope.spawn(move || {
                if controlled {
                    sched::register(&format!("rank{rank}"));
                }
                let out = f(comm);
                if controlled {
                    ranks_alive.fetch_sub(1, Ordering::Release);
                    sched::unregister();
                }
                out
            }));
        }
        if controlled {
            while ranks_alive.load(Ordering::Acquire) > 0 {
                sched::yield_now(Point::JoinWait);
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread must not panic"))
            .collect()
    })
}

/// A rank's [`Comm`] as the interpreter's transport: plan messages and
/// barriers travel in reserved tag spaces.
struct PlanComm<'c>(&'c mut Comm);

impl Transport for PlanComm<'_> {
    fn send(&mut self, dst: u32, tag: u64, data: Bytes) -> io::Result<()> {
        self.0
            .send_bytes(dst, PLAN_TAG_BASE + tag, data)
            .map_err(io::Error::other)
    }

    fn recv(&mut self, src: u32, tag: u64) -> io::Result<Bytes> {
        self.0
            .recv_bytes(src, PLAN_TAG_BASE + tag)
            .map_err(io::Error::other)
    }

    /// Flat fan-in/fan-out over the group's first rank, on a per-comm
    /// tag so concurrent groups stay independent.
    fn barrier(&mut self, comm: u32, members: &[u32]) -> io::Result<()> {
        let tag = BARRIER_TAG_BASE + u64::from(comm);
        let (&leader, rest) = members.split_first().expect("nonempty communicator");
        let c = &mut *self.0;
        let res = if c.rank == leader {
            rest.iter()
                .try_for_each(|&m| c.recv_bytes(m, tag).map(drop))
                .and_then(|()| {
                    rest.iter()
                        .try_for_each(|&m| c.send_bytes(m, tag, Bytes::new()))
                })
        } else {
            c.send_bytes(leader, tag, Bytes::new())
                .and_then(|()| c.recv_bytes(leader, tag).map(drop))
        };
        res.map_err(io::Error::other)
    }
}

/// Configuration for [`checkpoint_rank_with`]: the executor's
/// [`ExecConfig`], since both run the same rank interpreter. Its
/// `recv_timeout`, `failover` and `chan_capacity` configure `execute`'s
/// mesh only; a runtime rank uses its [`Comm`]'s timeout and capacity.
pub type RtConfig = ExecConfig;

/// Execute `rank`'s ops of a checkpoint `program` inside an application
/// thread, using its [`Comm`] for the messaging ops. Must be called by
/// *every* rank of the runtime with the same program (a collective call,
/// like the strategies' MPI originals). `payload` is this rank's packed
/// payload (see [`crate::format::materialize_payloads`]).
///
/// Plan messages and barriers use dedicated tags over `comm`, so they do
/// not interfere with application messages as long as the application
/// avoids tags ≥ 2⁶¹.
pub fn checkpoint_rank(
    comm: &mut Comm,
    program: &Program,
    payload: &[u8],
    base_dir: impl AsRef<Path>,
) -> Result<(), RtError> {
    checkpoint_rank_with(comm, program, payload, &RtConfig::new(base_dir))
}

/// [`checkpoint_rank`] with explicit durability/fault/retry configuration.
pub fn checkpoint_rank_with(
    comm: &mut Comm,
    program: &Program,
    payload: &[u8],
    cfg: &RtConfig,
) -> Result<(), RtError> {
    let rank = comm.rank();
    assert_eq!(
        comm.size(),
        program.nranks(),
        "collective call on all ranks"
    );
    assert!(
        payload.len() as u64 >= program.payload[rank as usize],
        "payload too small for rank {rank}"
    );
    std::fs::create_dir_all(&cfg.base_dir).map_err(|source| RtError::Io { rank, source })?;
    // The "small worker thread pool behind rt": writer groups hand their
    // flushes to the shared pool so they progress concurrently with the
    // foreground aggregation of the next package.
    let pipe = vm::pipeline(rank, cfg, None, None);
    let mut vm = RankVm::new(rank, rank, program, cfg, Payload::Borrowed(payload), pipe);
    vm.run(&mut PlanComm(comm)).map_err(|e| rt_error(rank, e))
}

/// Recover the typed runtime error behind an interpreter failure.
fn rt_error(rank: u32, e: io::Error) -> RtError {
    if fault::is_killed(&e) {
        return RtError::Killed { rank };
    }
    if let Some(m) = e.get_ref().and_then(|p| p.downcast_ref::<PlanMismatch>()) {
        let what = format!("plan {m}");
        return RtError::PlanMismatch { rank, what };
    }
    if !e.get_ref().is_some_and(|p| p.is::<RtError>()) {
        return RtError::Io { rank, source: e };
    }
    *e.into_inner()
        .and_then(|p| p.downcast::<RtError>().ok())
        .expect("checked payload type")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, ExecConfig};
    use crate::format::materialize_payloads;
    use crate::layout::DataLayout;
    use crate::strategy::{CheckpointSpec, Strategy};
    use rbio_profile::counters;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rbio-rt-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d
    }

    #[test]
    fn send_recv_and_barrier() {
        let results = run(4, |mut comm| {
            let r = comm.rank();
            // Ring: send to the right, receive from the left.
            comm.send((r + 1) % 4, 7, &[r as u8; 3]).expect("send");
            let left = comm.recv((r + 3) % 4, 7).expect("recv");
            comm.barrier();
            left[0]
        });
        assert_eq!(results, vec![3, 0, 1, 2]);
    }

    #[test]
    fn out_of_order_tags_are_stashed() {
        let results = run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, b"one").expect("send");
                comm.send(1, 2, b"two").expect("send");
                0
            } else {
                // Receive in reverse order.
                let two = comm.recv(0, 2).expect("recv");
                let one = comm.recv(0, 1).expect("recv");
                assert_eq!(two, b"two");
                assert_eq!(one, b"one");
                1
            }
        });
        assert_eq!(results, vec![0, 1]);
    }

    #[test]
    fn recv_times_out_with_typed_error() {
        let errs = run(2, |mut comm| {
            if comm.rank() == 0 {
                comm.set_recv_timeout(Duration::from_millis(50));
                // Nobody ever sends on tag 99.
                Some(comm.recv(1, 99).expect_err("must time out"))
            } else {
                None
            }
        });
        match errs[0].as_ref().expect("rank 0 result") {
            RtError::RecvTimeout {
                rank: 0,
                src: 1,
                tag: 99,
                ..
            } => {}
            other => panic!("expected RecvTimeout, got {other}"),
        }
    }

    #[test]
    fn stalled_receiver_bounds_resident_queue_and_times_out() {
        // The pre-PR unbounded channel let a burst against a stalled
        // receiver land every message (unbounded resident bytes). With
        // bounded mailboxes exactly `cap` messages land, the next send
        // blocks, and the typed timeout surfaces.
        let before = counters::service_snapshot();
        let cap = 4usize;
        let sent = run_with_capacity(2, cap, |mut comm| {
            if comm.rank() == 0 {
                comm.set_recv_timeout(Duration::from_millis(50));
                let mut ok = 0usize;
                let err = loop {
                    match comm.send(1, 5, &[7u8; 1024]) {
                        Ok(()) => ok += 1,
                        Err(e) => break e,
                    }
                    assert!(
                        ok <= cap,
                        "unbounded queueing: {ok} sends landed in a capacity-{cap} mailbox"
                    );
                };
                match err {
                    RtError::SendTimeout {
                        rank: 0,
                        dst: 1,
                        tag: 5,
                        ..
                    } => {}
                    other => panic!("expected SendTimeout, got {other}"),
                }
                comm.barrier();
                ok
            } else {
                // Stalled receiver: never drains its mailbox.
                comm.barrier();
                0
            }
        });
        assert_eq!(sent[0], cap, "resident queue must cap at the mailbox size");
        let delta = counters::service_snapshot().delta_since(&before);
        assert!(delta.send_backpressure_blocks >= 1, "block must be counted");
        assert!(
            delta.send_backpressure_timeouts >= 1,
            "timeout must be counted"
        );
    }

    #[test]
    fn allreduce_and_broadcast() {
        let sums = run(5, |comm| {
            comm.allreduce_f64(f64::from(comm.rank()) + 1.0, |a, b| a + b)
        });
        assert!(sums.iter().all(|&s| (s - 15.0).abs() < 1e-12));
        let payloads = run(3, |mut comm| {
            if comm.rank() == 1 {
                comm.broadcast(1, Some(b"mesh")).expect("broadcast")
            } else {
                comm.broadcast(1, None).expect("broadcast")
            }
        });
        assert!(payloads.iter().all(|p| p == b"mesh"));
    }

    #[test]
    fn plan_under_rt_matches_exec_byte_for_byte() {
        let layout = DataLayout::uniform(8, &[("Ex", 2048), ("Hy", 512)]);
        let fill = |rank: u32, field: usize, buf: &mut [u8]| {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (rank as usize * 13 + field * 5 + i) as u8;
            }
        };
        for strategy in [Strategy::rbio(2), Strategy::coio(2), Strategy::OnePfpp] {
            let plan = CheckpointSpec::new(layout.clone(), "rt")
                .strategy(strategy)
                .plan()
                .expect("plan");
            let payloads = materialize_payloads(&plan, fill);

            let dir_exec = tmpdir(&format!("exec-{strategy:?}").replace([' ', ':', '{', '}'], ""));
            execute(&plan.program, payloads.clone(), &ExecConfig::new(&dir_exec)).expect("exec");

            let dir_rt = tmpdir(&format!("rt-{strategy:?}").replace([' ', ':', '{', '}'], ""));
            let program = &plan.program;
            let payloads_ref = &payloads;
            let dir_rt_ref = &dir_rt;
            run(8, |mut comm| {
                let rank = comm.rank();
                checkpoint_rank(&mut comm, program, &payloads_ref[rank as usize], dir_rt_ref)
                    .expect("rt checkpoint");
            });

            for pf in &plan.plan_files {
                let a = std::fs::read(dir_exec.join(&pf.name)).expect("exec file");
                let b = std::fs::read(dir_rt.join(&pf.name)).expect("rt file");
                assert_eq!(a, b, "{strategy:?}: {} differs", pf.name);
            }
            std::fs::remove_dir_all(&dir_exec).ok();
            std::fs::remove_dir_all(&dir_rt).ok();
        }
    }

    #[test]
    fn pipelined_rt_matches_serial_rt_byte_for_byte() {
        let layout = DataLayout::uniform(8, &[("Ex", 2048), ("Hy", 512)]);
        let fill = |rank: u32, field: usize, buf: &mut [u8]| {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = (rank as usize * 31 + field * 7 + i) as u8;
            }
        };
        for strategy in [Strategy::rbio(2), Strategy::coio(2), Strategy::OnePfpp] {
            let plan = CheckpointSpec::new(layout.clone(), "rtp")
                .strategy(strategy)
                .plan()
                .expect("plan");
            let payloads = materialize_payloads(&plan, fill);
            let tag = format!("{strategy:?}").replace([' ', ':', '{', '}'], "");
            let dir_serial = tmpdir(&format!("ps-{tag}"));
            let dir_pipe = tmpdir(&format!("pp-{tag}"));
            let program = &plan.program;
            let payloads_ref = &payloads;
            for (dir, depth) in [(&dir_serial, 1u32), (&dir_pipe, 3)] {
                let cfg = RtConfig::new(dir).pipeline_depth(depth).pipeline_jitter(11);
                let cfg_ref = &cfg;
                run(8, |mut comm| {
                    let rank = comm.rank();
                    checkpoint_rank_with(&mut comm, program, &payloads_ref[rank as usize], cfg_ref)
                        .expect("rt checkpoint");
                });
            }
            for pf in &plan.plan_files {
                let a = std::fs::read(dir_serial.join(&pf.name)).expect("serial file");
                let b = std::fs::read(dir_pipe.join(&pf.name)).expect("pipelined file");
                assert_eq!(a, b, "{strategy:?}: {} differs", pf.name);
                assert!(!dir_pipe.join(format!("{}.tmp", pf.name)).exists());
            }
            std::fs::remove_dir_all(&dir_serial).ok();
            std::fs::remove_dir_all(&dir_pipe).ok();
        }
    }

    #[test]
    fn app_loop_with_interleaved_checkpoints() {
        // An SPMD app: iterate, halo-exchange, checkpoint mid-loop.
        let layout = DataLayout::uniform(4, &[("u", 64)]);
        let plan = CheckpointSpec::new(layout, "loop")
            .strategy(Strategy::rbio(1))
            .plan()
            .expect("plan");
        let dir = tmpdir("app-loop");
        let program = &plan.program;
        let dir_ref = &dir;
        let finals = run(4, |mut comm| {
            let r = comm.rank();
            let mut u = [f64::from(r); 16];
            for _ in 0..3 {
                // "Solve": average with the left neighbour's edge value.
                comm.send((r + 1) % 4, 42, &u[15].to_le_bytes())
                    .expect("send");
                let left = comm.recv((r + 3) % 4, 42).expect("recv");
                let left = f64::from_le_bytes(left.try_into().expect("8 bytes"));
                for v in u.iter_mut() {
                    *v = 0.5 * (*v + left);
                }
                // Checkpoint collectively with the current state.
                let mut payload = vec![0u8; program.payload[r as usize] as usize];
                for (i, v) in u.iter().take(8).enumerate() {
                    payload[i * 8..i * 8 + 8].copy_from_slice(&v.to_le_bytes());
                }
                checkpoint_rank(&mut comm, program, &payload, dir_ref).expect("checkpoint");
                comm.barrier();
            }
            comm.allreduce_f64(u[0], |a, b| a + b)
        });
        // Everybody agrees on the reduction.
        assert!(finals.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12));
        std::fs::remove_dir_all(&dir).ok();
    }
}
