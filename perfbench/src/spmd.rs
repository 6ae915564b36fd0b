//! The SPMD embedding (`coio_rt`) and the rt family of the layer ladder:
//! one `rt::run` whose ranks checkpoint collectively step after step.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rbio::format::materialize_payloads;
use rbio::restart::read_checkpoint;
use rbio::rt::{self, checkpoint_rank_with, RtConfig};
use rbio::CheckpointPlan;

use crate::bench::{Ctx, Family, Shape, Tally, Workload};
use crate::input::Fields;
use crate::trace::Tracer;

/// When a run of steps ends.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many timed steps.
    Steps(u64),
    /// At the first round boundary past this instant.
    Deadline(Instant),
}

/// How one `rt::run` steps: when it ends, whether its first step is an
/// untimed warm-up, and how many timed steps make a round (each round
/// ends with a read-back).
#[derive(Clone, Copy)]
pub struct Schedule {
    pub until: Until,
    pub warm_up: bool,
    pub steps_per_restore: u64,
}

/// A step's plan and packed payloads, shared by rank 0 with the others.
type StepInput = Arc<(CheckpointPlan, Vec<Vec<u8>>)>;

/// Run the steps of `schedule`, reading the newest checkpoint back at
/// the end of every round. Rank 0 plans and packs each step; every rank
/// then calls `rt::checkpoint_rank_with` collectively. A step's time
/// runs from rank 0 starting the plan to every rank leaving the closing
/// barrier.
pub fn steps(
    shape: &Shape,
    fields: &Fields,
    dir: &Path,
    schedule: Schedule,
    tr: &mut Tracer,
    tally: &mut Tally,
) {
    let Schedule {
        until,
        warm_up,
        steps_per_restore,
    } = schedule;
    let cfg = RtConfig::new(dir);
    let input: Mutex<Option<StepInput>> = Mutex::new(None);
    let times: Mutex<Vec<(Instant, Instant)>> = Mutex::new(vec![]);
    let errors: Mutex<Vec<String>> = Mutex::new(vec![]);
    let go = AtomicBool::new(true);
    let rec = Mutex::new((std::mem::replace(tr, Tracer::new(false)), Tally::default()));
    rt::run(shape.nranks, |mut comm| {
        let rank = comm.rank();
        let mut step = 0u64;
        while go.load(Ordering::SeqCst) {
            step += 1;
            let t0 = Instant::now();
            let mut spans = Vec::new();
            if rank == 0 {
                let t = Instant::now();
                let plan = shape.plan(step);
                spans.push(("plan.plan", t, Instant::now()));
                let t = Instant::now();
                let payloads =
                    materialize_payloads(&plan, |r, f, buf| fields.fill(step, r, f, buf));
                spans.push(("format.pack", t, Instant::now()));
                *input.lock().expect("input slot") = Some(Arc::new((plan, payloads)));
                times.lock().expect("times").clear();
            }
            comm.barrier();
            let shared = input.lock().expect("input slot").clone();
            let shared = shared.expect("rank 0 published the step");
            let (plan, payloads) = &*shared;
            let ts = Instant::now();
            let res =
                checkpoint_rank_with(&mut comm, &plan.program, &payloads[rank as usize], &cfg);
            let te = Instant::now();
            times.lock().expect("times").push((ts, te));
            if let Err(e) = res {
                errors
                    .lock()
                    .expect("errors")
                    .push(format!("rank {rank}: {e}"));
            }
            comm.barrier();
            if rank != 0 {
                comm.barrier();
                continue;
            }
            let t1 = Instant::now();
            let mut guard = rec.lock().expect("recorder");
            let (tr, tally) = &mut *guard;
            let errs: Vec<String> = std::mem::take(&mut *errors.lock().expect("errors"));
            let warm = warm_up && step == 1;
            if !errs.is_empty() {
                tally.error("collective checkpoint", &errs.join("; "));
            } else if !warm {
                tally.ckpt_ok(t1 - t0, plan.total_file_bytes());
                if tr.on() {
                    let top = tr.record("rt.step", None, t0, t1);
                    for (name, s, e) in spans {
                        tr.record(name, Some(top), s, e);
                    }
                    let times = times.lock().expect("times");
                    let first = times.iter().map(|t| t.0).min().expect("ranks ran");
                    let last = times.iter().map(|t| t.1).max().expect("ranks ran");
                    tr.record("rt.collective", Some(top), first, last);
                    let durs: Vec<f64> = times
                        .iter()
                        .map(|(s, e)| (*e - *s).as_secs_f64() * 1e3)
                        .collect();
                    let max = durs.iter().copied().fold(f64::MIN, f64::max);
                    let min = durs.iter().copied().fold(f64::MAX, f64::min);
                    tr.sample("rt.rank_spread_ms", max - min);
                }
            }
            let timed = step - u64::from(warm_up);
            let round_end = warm || timed.is_multiple_of(steps_per_restore);
            if warm {
                // The warm-up read is untimed; only its failures count.
                let mut sink = Tally::default();
                restore(plan, fields, dir, &mut Tracer::new(false), &mut sink);
                tally.attempted += sink.failed + sink.mismatched;
                tally.failed += sink.failed;
                tally.mismatched += sink.mismatched;
            } else if round_end {
                restore(plan, fields, dir, tr, tally);
            }
            // Keep the two newest generations, as the manager does.
            if step > 2 {
                remove_step(dir, step - 2);
            }
            let done = match until {
                Until::Steps(n) => timed >= n,
                Until::Deadline(d) => round_end && !warm && Instant::now() >= d,
            };
            if done {
                go.store(false, Ordering::SeqCst);
            }
            drop(guard);
            comm.barrier();
        }
    });
    let (t, result) = rec.into_inner().expect("recorder");
    *tr = t;
    tally.merge(result);
}

/// `restart::read_checkpoint` of the newest step, compared byte for byte.
fn restore(plan: &CheckpointPlan, fields: &Fields, dir: &Path, tr: &mut Tracer, tally: &mut Tally) {
    let t = Instant::now();
    let res = read_checkpoint(dir, plan);
    let took = t.elapsed();
    match res {
        Ok(data) => {
            tally.restore_ok(took, fields.mismatches(plan.step, &data));
            tr.record("restart.read", None, t, t + took);
            tr.sample(
                "restart.read_gibps",
                crate::bench::gibps(data.total_bytes(), took),
            );
        }
        Err(e) => tally.error("read_checkpoint", &e),
    }
}

fn remove_step(dir: &Path, step: u64) {
    let prefix = format!("step{step:010}");
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
}

pub struct SpmdWorkload {
    shape: Shape,
    fields: Fields,
    dir: std::path::PathBuf,
    steps_per_restore: u64,
}

impl SpmdWorkload {
    pub fn setup(ctx: &Ctx, shape: Shape, steps_per_restore: u64) -> Result<Self, String> {
        let fields = shape.fields(ctx.seed);
        let dir = ctx.dir.join("rt");
        let mut warm = Tally::default();
        steps(
            &shape,
            &fields,
            &dir,
            Schedule {
                until: Until::Steps(0),
                warm_up: true,
                steps_per_restore: 1,
            },
            &mut Tracer::new(false),
            &mut warm,
        );
        if warm.failed + warm.mismatched > 0 {
            return Err("warm-up step failed".into());
        }
        Ok(SpmdWorkload {
            shape,
            fields,
            dir,
            steps_per_restore,
        })
    }
}

impl Workload for SpmdWorkload {
    fn run_until(&mut self, deadline: Instant, tr: &mut Tracer, tally: &mut Tally) {
        crate::bench::clean(&self.dir);
        steps(
            &self.shape,
            &self.fields,
            &self.dir,
            Schedule {
                until: Until::Deadline(deadline),
                warm_up: false,
                steps_per_restore: self.steps_per_restore,
            },
            tr,
            tally,
        );
    }

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn fields(&self) -> &Fields {
        &self.fields
    }

    fn covers(&self) -> Family {
        Family::Rt
    }
}
