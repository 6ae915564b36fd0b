//! Shared harness: set-up repetitions, timed phases, the traced run's
//! layer ladder, and the replays and probes every workload uses.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rbio::commit;
use rbio::exec::{execute, ExecConfig};
use rbio::failover::FailoverPolicy;
use rbio::format::{crc32c, materialize_payloads};
use rbio::{CheckpointPlan, CheckpointSpec, DataLayout, Strategy};
use rbio_profile::counters;

use crate::input::Fields;
use crate::trace::{SpanId, Tracer};

/// Set-up runs per process; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What a run is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this workload, emptied before and after.
    pub dir: PathBuf,
}

/// One checkpoint's shape: a uniform layout and a strategy.
#[derive(Clone)]
pub struct Shape {
    pub nranks: u32,
    pub nfields: usize,
    pub field_bytes: usize,
    pub strategy: Strategy,
}

impl Shape {
    pub fn layout(&self) -> DataLayout {
        let names: Vec<String> = (0..self.nfields).map(|f| format!("f{f}")).collect();
        let fields: Vec<(&str, u64)> = names
            .iter()
            .map(|n| (n.as_str(), self.field_bytes as u64))
            .collect();
        DataLayout::uniform(self.nranks, &fields)
    }

    pub fn spec(&self, step: u64) -> CheckpointSpec {
        CheckpointSpec::new(self.layout(), format!("step{step:010}"))
            .strategy(self.strategy)
            .step(step)
    }

    pub fn plan(&self, step: u64) -> CheckpointPlan {
        self.spec(step)
            .plan()
            .expect("workload shapes plan cleanly")
    }

    pub fn fields(&self, seed: u64) -> Fields {
        Fields::generate(seed, self.nranks, self.nfields, self.field_bytes)
    }
}

/// The executor configuration `CheckpointManager::checkpoint` builds
/// under the manager's defaults: no fsync, failover deadlines from the
/// receive timeout.
pub fn manager_exec_cfg(dir: &Path) -> ExecConfig {
    let mut cfg = ExecConfig::new(dir);
    cfg.failover = FailoverPolicy::from_recv_timeout(cfg.recv_timeout);
    cfg
}

/// Outcomes of the operations of one timed phase.
#[derive(Default)]
pub struct Tally {
    pub ckpt_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    /// Committed checkpoint bytes and the time spent in checkpoint calls.
    pub ckpt_bytes: u64,
    pub ckpt_secs: f64,
    pub attempted: u64,
    /// Typed errors, refusals and grant timeouts.
    pub failed: u64,
    /// Restores whose bytes differ from what was written.
    pub mismatched: u64,
}

impl Tally {
    pub fn ckpt_ok(&mut self, took: Duration, bytes: u64) {
        self.attempted += 1;
        self.ckpt_ms.push(took.as_secs_f64() * 1e3);
        self.ckpt_secs += took.as_secs_f64();
        self.ckpt_bytes += bytes;
    }

    pub fn restore_ok(&mut self, took: Duration, mismatched_bytes: u64) {
        self.attempted += 1;
        self.restore_ms.push(took.as_secs_f64() * 1e3);
        if mismatched_bytes > 0 {
            self.mismatched += 1;
            eprintln!("restore mismatch: {mismatched_bytes} bytes differ");
        }
    }

    pub fn error(&mut self, what: &str, e: &dyn std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("{what} failed: {e}");
    }

    pub fn merge(&mut self, o: Tally) {
        self.ckpt_ms.extend(o.ckpt_ms);
        self.restore_ms.extend(o.restore_ms);
        self.ckpt_bytes += o.ckpt_bytes;
        self.ckpt_secs += o.ckpt_secs;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatched += o.mismatched;
    }
}

/// The executor families a workload's loop may lack; the traced run
/// measures the missing one at the workload's shape.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Manager,
    Rt,
}

/// A workload's closed loop, built by its set-up (which generates the
/// inputs, builds the state and runs the warm-up step).
pub trait Workload {
    /// Run whole rounds until `deadline`; with `tr` on, sampled
    /// operations are replayed through the layer calls.
    fn run_until(&mut self, deadline: Instant, tr: &mut Tracer, tally: &mut Tally);
    fn shape(&self) -> &Shape;
    fn fields(&self) -> &Fields;
    /// The family this workload's own loop exercises.
    fn covers(&self) -> Family;
}

/// Counter deltas over the untraced phase of a traced run.
pub struct Counters {
    pub copy: counters::CopySnapshot,
    pub failover: counters::FailoverSnapshot,
    pub service: counters::ServiceSnapshot,
    pub gc_orphans: u64,
}

fn counters_now() -> Counters {
    Counters {
        copy: counters::snapshot(),
        failover: counters::failover_snapshot(),
        service: counters::service_snapshot(),
        gc_orphans: counters::scrub_snapshot().gc_orphans,
    }
}

fn counters_since(prev: &Counters) -> Counters {
    let now = counters_now();
    Counters {
        copy: now.copy.delta_since(&prev.copy),
        failover: now.failover.delta_since(&prev.failover),
        service: now.service.delta_since(&prev.service),
        gc_orphans: now.gc_orphans - prev.gc_orphans,
    }
}

pub struct Traced {
    pub tracer: Tracer,
    /// The untraced phase: its operations and its counter deltas.
    pub plain: Tally,
    pub counters: Counters,
    /// Service counter deltas over the ladder's service rounds, and the
    /// sessions they ran.
    pub service: counters::ServiceSnapshot,
    pub service_sessions: u64,
    /// The traced phase's own operations.
    pub traced: Tally,
    pub plan: CheckpointPlan,
}

pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub tally: Tally,
    pub traced: Option<Traced>,
}

pub fn clean(dir: &Path) {
    let _ = fs::remove_dir_all(dir);
}

/// Set up `SETUP_REPS` times (keeping the last), then measure.
pub fn drive<W: Workload>(
    ctx: &Ctx,
    setup: impl Fn() -> Result<W, String>,
) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut live: Option<W> = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        clean(&ctx.dir);
        let t = Instant::now();
        live = Some(setup()?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut w = live.expect("at least one set-up");
    let total = Duration::from_secs_f64(ctx.seconds);
    if !ctx.trace {
        let mut tally = Tally::default();
        w.run_until(Instant::now() + total, &mut Tracer::new(false), &mut tally);
        return Ok(Outcome {
            setup_s,
            tally,
            traced: None,
        });
    }
    // Traced run: an untraced phase (end-to-end baseline and counters),
    // a traced phase, then the ladder for the layers the loop lacks.
    let start = Instant::now();
    let phase = total.mul_f64(0.35);
    let mut plain = Tally::default();
    let before = counters_now();
    w.run_until(Instant::now() + phase, &mut Tracer::new(false), &mut plain);
    let counters = counters_since(&before);
    let mut tracer = Tracer::new(true);
    let mut traced = Tally::default();
    w.run_until(Instant::now() + phase, &mut tracer, &mut traced);
    let ladder_dir = ctx.dir.join("ladder");
    let mut ladder = Ladder::default();
    let mut reps = 0;
    while reps < 2 || start.elapsed() < total {
        ladder.rep(&w, ctx.seed, &ladder_dir, &mut tracer);
        reps += 1;
    }
    let (service, service_sessions) = (ladder.svc_counters, ladder.svc_sessions);
    drop(ladder);
    clean(&ladder_dir);
    let plan = w.shape().plan(1);
    Ok(Outcome {
        setup_s,
        tally: Tally::default(),
        traced: Some(Traced {
            tracer,
            plain,
            counters,
            service,
            service_sessions,
            traced,
            plan,
        }),
    })
}

/// Probe state kept across ladder repetitions.
#[derive(Default)]
struct Ladder {
    mgr: Option<crate::mgr::Campaign>,
    svc: Option<crate::svc::Mixed>,
    svc_counters: counters::ServiceSnapshot,
    svc_sessions: u64,
    step: u64,
}

impl Ladder {
    fn rep<W: Workload>(&mut self, w: &W, seed: u64, dir: &Path, tr: &mut Tracer) {
        let shape = w.shape();
        let fields = w.fields();
        self.step += 1;
        let step = self.step;
        let exec_dir = dir.join("exec");
        clean(&exec_dir);
        let top = tr.open("probe.exec", None);
        let plan = replay_exec(shape, fields, step, &exec_dir, tr, top);
        tr.close(top);
        if let Some(plan) = plan {
            probe_commit(&plan, &exec_dir, false, tr);
            probe_commit(&plan, &exec_dir, true, tr);
            probe_crc(&plan, &exec_dir, tr);
        }
        clean(&exec_dir);
        let mut scratch = Tally::default();
        if w.covers() != Family::Manager {
            let mgr = self.mgr.get_or_insert_with(|| {
                crate::mgr::Campaign::new(shape.clone(), &dir.join("mgr"))
                    .expect("probe manager directory")
            });
            mgr.ckpt(fields, tr, &mut scratch);
            mgr.restore(fields, tr, &mut scratch);
        }
        if w.covers() != Family::Rt {
            let rt_dir = dir.join("rt");
            crate::spmd::steps(
                shape,
                fields,
                &rt_dir,
                crate::spmd::Schedule {
                    until: crate::spmd::Until::Steps(1),
                    warm_up: true,
                    steps_per_restore: 1,
                },
                tr,
                &mut scratch,
            );
            clean(&rt_dir);
        }
        let svc = self.svc.get_or_insert_with(|| {
            crate::svc::Mixed::new(seed, &dir.join("svc")).expect("probe service")
        });
        let before = counters::service_snapshot();
        let attempted = scratch.attempted;
        svc.probe_round(fields, tr, &mut scratch);
        let delta = counters::service_snapshot().delta_since(&before);
        self.svc_sessions += scratch.attempted - attempted;
        let c = &mut self.svc_counters;
        c.throttle_waits += delta.throttle_waits;
        c.preemptions += delta.preemptions;
        c.rejected += delta.rejected;
        if scratch.failed + scratch.mismatched > 0 {
            eprintln!(
                "layer ladder: {} failed, {} mismatched",
                scratch.failed, scratch.mismatched
            );
        }
    }
}

/// Replay one checkpoint step through the public layer calls in the
/// order `CheckpointManager::checkpoint` makes them: plan, pack, execute
/// with the manager's executor configuration. Spans go under `parent`.
pub fn replay_exec(
    shape: &Shape,
    fields: &Fields,
    step: u64,
    dir: &Path,
    tr: &mut Tracer,
    parent: SpanId,
) -> Option<CheckpointPlan> {
    let t = Instant::now();
    let plan = shape.plan(step);
    tr.record("plan.plan", Some(parent), t, Instant::now());
    let t = Instant::now();
    let payloads = materialize_payloads(&plan, |r, f, buf| fields.fill(step, r, f, buf));
    tr.record("format.pack", Some(parent), t, Instant::now());
    let cfg = manager_exec_cfg(dir);
    let t = Instant::now();
    let res = execute(&plan.program, payloads, &cfg);
    let took = t.elapsed();
    tr.record("exec.execute", Some(parent), t, t + took);
    let rep = match res {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("replayed execute failed: {e}");
            return None;
        }
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    tr.sample("exec.slowest_rank_ms", ms(rep.wall_time));
    tr.sample("exec.join_ms", ms(took.saturating_sub(rep.wall_time)));
    let writers = plan.program.writer_ranks();
    let (mut wr, mut wk) = (Vec::new(), Vec::new());
    for (r, t) in rep.rank_times.iter().enumerate() {
        if writers.contains(&(r as u32)) {
            wr.push(ms(*t));
        } else {
            wk.push(ms(*t));
        }
    }
    // Under 1PFPP every rank writes its own file: each rank's perceived
    // time is its own write time, so workers are all ranks.
    if wk.is_empty() {
        wk = wr.clone();
    }
    tr.sample("exec.writer_rank_ms", crate::stats::median(&wr));
    tr.sample("exec.worker_rank_ms", crate::stats::median(&wk));
    tr.sample(
        "exec.sent_per_written",
        rep.bytes_sent as f64 / rep.bytes_written.max(1) as f64,
    );
    tr.sample("exec.retries", rep.retries as f64);
    Some(plan)
}

/// Re-seal file 0 of a committed checkpoint under `dir` with
/// `commit_file`: footer stripped, moved back to its `.tmp` name, then
/// committed without fsync (the workloads' policy, `commit.commit_file`)
/// or with it (`commit.fsync_commit`).
fn probe_commit(plan: &CheckpointPlan, dir: &Path, fsync: bool, tr: &mut Tracer) {
    let final_path = dir.join(&plan.plan_files[0].name);
    let logical = plan.program.files[0].size;
    let tmp = commit::tmp_path(&final_path);
    let prepared = fs::OpenOptions::new()
        .write(true)
        .open(&final_path)
        .and_then(|f| f.set_len(logical))
        .and_then(|_| fs::rename(&final_path, &tmp));
    if let Err(e) = prepared {
        eprintln!("commit probe set-up failed: {e}");
        return;
    }
    let t = Instant::now();
    let res = commit::commit_file(&tmp, &final_path, logical, fsync);
    let took = t.elapsed();
    match res {
        Ok(()) if fsync => {
            tr.record("commit.fsync_commit", None, t, t + took);
        }
        Ok(()) => {
            tr.record("commit.commit_file", None, t, t + took);
            tr.sample("commit.commit_gibps", gibps(logical, took));
        }
        Err(e) => eprintln!("commit probe failed: {e}"),
    }
}

/// CRC32C over the logical bytes of file 0 of a committed checkpoint.
fn probe_crc(plan: &CheckpointPlan, dir: &Path, tr: &mut Tracer) {
    let logical = plan.program.files[0].size;
    let Ok(mut bytes) = fs::read(dir.join(&plan.plan_files[0].name)) else {
        return;
    };
    bytes.truncate(logical as usize);
    let t = Instant::now();
    std::hint::black_box(crc32c(std::hint::black_box(&bytes)));
    let took = t.elapsed();
    tr.record("format.crc32c", None, t, t + took);
    tr.sample("format.crc32c_gibps", gibps(logical, took));
}

pub fn gibps(bytes: u64, took: Duration) -> f64 {
    bytes as f64 / (1u64 << 30) as f64 / took.as_secs_f64().max(1e-9)
}
