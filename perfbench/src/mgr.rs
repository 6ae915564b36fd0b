//! `CheckpointManager` workloads (`rbio_large`, `pfpp_small`) and the
//! manager family of the layer ladder.

use std::path::{Path, PathBuf};
use std::time::Instant;

use rbio::manager::{CheckpointManager, ManagerConfig};
use rbio::restart::read_checkpoint;

use crate::bench::{clean, replay_exec, Ctx, Family, Shape, Tally, Workload};
use crate::input::Fields;
use crate::trace::Tracer;

/// A manager with default configuration (failover on, keep 2, no
/// fsync), checkpointing one step after another.
pub struct Campaign {
    mgr: CheckpointManager,
    shape: Shape,
    ckpt_dir: PathBuf,
    replay_dir: PathBuf,
    step: u64,
}

impl Campaign {
    pub fn new(shape: Shape, dir: &Path) -> Result<Campaign, String> {
        let ckpt_dir = dir.join("ckpt");
        let cfg = ManagerConfig::new(&ckpt_dir, shape.strategy);
        let mgr = CheckpointManager::new(shape.layout(), cfg).map_err(|e| e.to_string())?;
        Ok(Campaign {
            mgr,
            shape,
            ckpt_dir,
            replay_dir: dir.join("replay"),
            step: 0,
        })
    }

    /// One `CheckpointManager::checkpoint`. Traced, the step is then
    /// replayed as plan, pack and execute under the checkpoint's span;
    /// the remainder is the manager's own time (manifest, marker,
    /// rotation and the executor's join).
    pub fn ckpt(&mut self, fields: &Fields, tr: &mut Tracer, tally: &mut Tally) {
        self.step += 1;
        let step = self.step;
        let t = Instant::now();
        let res = self
            .mgr
            .checkpoint(step, |r, f, buf| fields.fill(step, r, f, buf));
        let took = t.elapsed();
        match res {
            Ok(rep) => {
                tally.ckpt_ok(took, rep.bytes_written);
                if tr.on() {
                    let top = tr.record("manager.checkpoint", None, t, t + took);
                    replay_exec(&self.shape, fields, step, &self.replay_dir, tr, top);
                    clean(&self.replay_dir);
                }
            }
            Err(e) => tally.error("checkpoint", &e),
        }
    }

    /// One `CheckpointManager::restore_latest`, compared byte for byte
    /// with the newest step. Traced, it is replayed as the calls the
    /// restore makes: verify the generation, plan it, read it.
    pub fn restore(&mut self, fields: &Fields, tr: &mut Tracer, tally: &mut Tally) {
        let step = self.step;
        let t = Instant::now();
        let res = self.mgr.restore_latest();
        let took = t.elapsed();
        let data = match res {
            Ok(data) => data,
            Err(e) => return tally.error("restore", &e),
        };
        tally.restore_ok(took, fields.mismatches(step, &data));
        drop(data);
        if !tr.on() {
            return;
        }
        let top = tr.record("manager.restore", None, t, t + took);
        let t = Instant::now();
        let verified = self.mgr.verify(step);
        tr.record("manager.verify", Some(top), t, Instant::now());
        if let Err(e) = verified {
            eprintln!("replayed verify failed: {e}");
        }
        let t = Instant::now();
        let plan = self.shape.plan(step);
        tr.record("plan.plan", Some(top), t, Instant::now());
        let t = Instant::now();
        let read = read_checkpoint(&self.ckpt_dir, &plan);
        let took = t.elapsed();
        tr.record("restart.read", Some(top), t, t + took);
        match read {
            Ok(data) => tr.sample(
                "restart.read_gibps",
                crate::bench::gibps(data.total_bytes(), took),
            ),
            Err(e) => eprintln!("replayed read failed: {e}"),
        }
    }
}

pub struct ManagerWorkload {
    shape: Shape,
    fields: Fields,
    camp: Campaign,
    /// Checkpoints per restore: one round is this many checkpoints and
    /// one restore.
    ckpts_per_restore: usize,
}

impl ManagerWorkload {
    pub fn setup(ctx: &Ctx, shape: Shape, ckpts_per_restore: usize) -> Result<Self, String> {
        let fields = shape.fields(ctx.seed);
        let mut camp = Campaign::new(shape.clone(), &ctx.dir)?;
        // Warm-up round: page cache, lazy pools, first directory entries.
        let mut warm = Tally::default();
        let mut off = Tracer::new(false);
        camp.ckpt(&fields, &mut off, &mut warm);
        camp.restore(&fields, &mut off, &mut warm);
        if warm.failed + warm.mismatched > 0 {
            return Err("warm-up checkpoint/restore failed".into());
        }
        Ok(ManagerWorkload {
            shape,
            fields,
            camp,
            ckpts_per_restore,
        })
    }
}

impl Workload for ManagerWorkload {
    fn run_until(&mut self, deadline: Instant, tr: &mut Tracer, tally: &mut Tally) {
        loop {
            for _ in 0..self.ckpts_per_restore {
                self.camp.ckpt(&self.fields, tr, tally);
            }
            self.camp.restore(&self.fields, tr, tally);
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn fields(&self) -> &Fields {
        &self.fields
    }

    fn covers(&self) -> Family {
        Family::Manager
    }
}
