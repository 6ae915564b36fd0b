//! The cost oracle: candidate → simulated checkpoint seconds.
//!
//! An [`Env`] pins everything a search varies *against*: the machine
//! model (base [`MachineConfig`], possibly with a staging tier or a
//! PVFS-profile filesystem), the workload, the seeds to run per
//! evaluation, and the objective (perceived vs durable completion).
//!
//! [`MachineOracle`] evaluates candidates deterministically by running
//! `rbio-machine` once per seed and taking the upper-median objective.
//! Two caches make repeat queries cheap:
//!
//! * a **memo cache** keyed on the candidate's [`CanonKey`] — masked
//!   so cost-equivalent candidates (see `canon`) collide, and
//! * a **plan cache** keyed on [`PlanKey`] — compiled `Program`s are
//!   machine-independent, so one plan serves every machine-knob
//!   variation of the same plan-shaping knobs.
//!
//! Batch evaluations shard unique cache misses across a small thread
//! pool; each worker owns a [`SimArena`] so per-run allocations are
//! amortized. All tuner activity is exported through the
//! `rbio-profile` tune counters (evals, memo hits, eval nanos).

use crate::bound::BoundModel;
use crate::canon::{canon_key, plan_key, CanonKey, PlanKey};
use crate::space::{Candidate, StrategyKind};
use rbio::layout::DataLayout;
use rbio::strategy::{CheckpointSpec, Strategy, Tuning};
use rbio_gpfs::FsProfile;
use rbio_machine::{
    ConfigError, IoBackendModel, MachineConfig, ProfileLevel, RunMetrics, SimArena, TierModel,
};
use rbio_plan::Program;
use rbio_profile::counters as telemetry;
use rbio_sim::SimTime;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What "cost" means for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Application-perceived checkpoint time (rbIO's headline metric:
    /// compute ranks resume after handoff).
    Perceived,
    /// Time until the checkpoint is durable on the parallel filesystem
    /// (includes tier drain).
    Durable,
}

impl Objective {
    fn cost(self, m: &RunMetrics) -> f64 {
        match self {
            Objective::Perceived => m.wall.as_secs_f64(),
            Objective::Durable => m.durable_wall.as_secs_f64(),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Objective::Perceived => "perceived",
            Objective::Durable => "durable",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "perceived" => Some(Objective::Perceived),
            "durable" => Some(Objective::Durable),
            _ => None,
        }
    }
}

/// The checkpoint workload a search optimizes for: NekCEM's six field
/// components at the paper's weak-scaled per-rank size.
#[derive(Debug, Clone)]
pub struct Workload {
    /// MPI ranks.
    pub np: u32,
    /// (field name, bytes per rank) pairs.
    pub fields: Vec<(String, u64)>,
    /// Checkpoint file prefix.
    pub prefix: String,
}

impl Workload {
    /// The paper's weak-scaling workload at `np` ranks: ~2.38 MB per
    /// rank (39 GB at 16Ki), split evenly over the six NekCEM fields.
    /// Matches `rbio-bench`'s `paper_case(np).layout()` byte-for-byte.
    pub fn paper(np: u32) -> Self {
        let per_rank = 39_000_000_000u64 / 16384;
        let per_field = per_rank / rbio_nekcem::workload::FIELD_NAMES.len() as u64;
        Workload {
            np,
            fields: rbio_nekcem::workload::FIELD_NAMES
                .iter()
                .map(|&n| (n.to_string(), per_field))
                .collect(),
            prefix: "tune".to_string(),
        }
    }

    /// The layout the planner compiles against.
    pub fn layout(&self) -> DataLayout {
        let fields: Vec<(&str, u64)> = self.fields.iter().map(|(n, b)| (n.as_str(), *b)).collect();
        DataLayout::uniform(self.np, &fields)
    }

    /// Total checkpoint bytes across all ranks.
    pub fn total_bytes(&self) -> u64 {
        let per_rank: u64 = self.fields.iter().map(|(_, b)| b).sum();
        per_rank * u64::from(self.np)
    }
}

/// The fixed context a search runs in: machine variant, workload,
/// seeds, objective and the CIOD syscall cost the backend model pays.
#[derive(Debug, Clone)]
pub struct Env {
    /// Human-readable variant name (`intrepid`, `tier`, `pvfs`, ...).
    pub label: String,
    /// Base machine model. Candidate machine knobs (pipeline depth,
    /// tier drain rate) are applied on top per evaluation.
    pub machine: MachineConfig,
    /// Workload to checkpoint.
    pub workload: Workload,
    /// Seeds to simulate per evaluation; cost is the upper median.
    pub seeds: Vec<u64>,
    /// What to minimize.
    pub objective: Objective,
    /// Per-I/O-call CPU cost charged by the backend model on every
    /// pipelined job's submit and completion. Intrepid's CIOD forwards at ~µs scale; the `ciod` env
    /// raises this to stress syscall-bound forwarding.
    pub syscall_cost: SimTime,
}

impl Env {
    /// The calibrated Intrepid model, perceived-time objective.
    pub fn intrepid(np: u32) -> Self {
        Env {
            label: "intrepid".to_string(),
            machine: MachineConfig::intrepid(np),
            workload: Workload::paper(np),
            seeds: vec![0x1BEB],
            objective: Objective::Perceived,
            syscall_cost: SimTime::from_secs_f64(4e-6),
        }
    }

    /// Intrepid plus a node-local staging tier (3 GB/s local memory
    /// writes); the tier drain rate is a candidate knob.
    pub fn tier(np: u32) -> Self {
        let mut e = Env::intrepid(np);
        e.label = "tier".to_string();
        e.machine.tier = Some(TierModel::local_only(3.0e9));
        e
    }

    /// The tier variant judged by durable-completion time.
    pub fn tier_durable(np: u32) -> Self {
        let mut e = Env::tier(np);
        e.label = "tier-durable".to_string();
        e.objective = Objective::Durable;
        e
    }

    /// Intrepid hardware over a PVFS-profile filesystem (no locking).
    pub fn pvfs(np: u32) -> Self {
        let mut e = Env::intrepid(np);
        e.label = "pvfs".to_string();
        e.machine.fs.profile = FsProfile::Pvfs;
        e
    }

    /// A syscall-heavy CIOD variant: per-call forwarding cost raised to
    /// 2 ms, which makes whether to pipeline at all a first-order
    /// knob.
    pub fn ciod(np: u32) -> Self {
        let mut e = Env::intrepid(np);
        e.label = "ciod".to_string();
        e.syscall_cost = SimTime::from_secs_f64(2e-3);
        e
    }

    /// Look up a preset by CLI name.
    pub fn by_name(name: &str, np: u32) -> Option<Env> {
        Some(match name {
            "intrepid" => Env::intrepid(np),
            "tier" => Env::tier(np),
            "tier-durable" => Env::tier_durable(np),
            "pvfs" => Env::pvfs(np),
            "ciod" => Env::ciod(np),
            _ => return None,
        })
    }

    /// All preset names, for CLI help text.
    pub const PRESETS: [&'static str; 5] = ["intrepid", "tier", "tier-durable", "pvfs", "ciod"];

    /// Replace the seed list (median-of-N evaluation).
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "need at least one seed");
        self.seeds = seeds;
        self
    }

    /// Replace the objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Whether the machine variant has a staging tier (drives canon
    /// masking).
    pub fn has_tier(&self) -> bool {
        self.machine.tier.is_some()
    }
}

/// A plan that failed to compile (infeasible knob combination) is
/// cached as `None` and costed as `+inf`.
type PlanSlot = Option<Arc<Program>>;

/// The memoizing, parallel cost oracle.
pub struct MachineOracle {
    env: Env,
    threads: usize,
    memo: Mutex<HashMap<CanonKey, f64>>,
    plans: Mutex<HashMap<PlanKey, PlanSlot>>,
    evals: AtomicU64,
    memo_hits: AtomicU64,
}

impl MachineOracle {
    /// Validates the env's machine model up front so every later
    /// evaluation can assume a well-formed config.
    pub fn new(env: Env) -> Result<Self, ConfigError> {
        env.machine.validate()?;
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        Ok(MachineOracle {
            env,
            threads,
            memo: Mutex::new(HashMap::new()),
            plans: Mutex::new(HashMap::new()),
            evals: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
        })
    }

    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Unique simulations run so far (cache misses).
    pub fn evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Queries answered from the memo cache.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// The analytic lower-bound model matching this env.
    pub fn bound_model(&self) -> BoundModel {
        BoundModel::new(
            &self.env.machine,
            self.env.workload.np,
            self.env.workload.total_bytes(),
            self.env.objective == Objective::Durable,
        )
    }

    fn strategy_for(c: &Candidate) -> Strategy {
        match c.strategy {
            StrategyKind::OnePfpp => Strategy::OnePfpp,
            StrategyKind::CoIo => Strategy::coio(c.nf),
            StrategyKind::RbIo => Strategy::rbio(c.nf),
        }
    }

    fn tuning_for(c: &Candidate) -> Tuning {
        Tuning {
            cb_buffer_size: c.cb_buffer,
            writer_buffer: c.writer_buffer,
            coalesce_fields: c.coalesce_fields,
            ..Tuning::default()
        }
    }

    /// The machine variant a candidate runs on: env base plus the
    /// candidate's machine knobs.
    pub fn machine_for(&self, c: &Candidate) -> MachineConfig {
        let mut m = self.env.machine.clone();
        m.profile = ProfileLevel::Off;
        m.pipeline_depth = c.pipeline_depth;
        let sc = self.env.syscall_cost;
        m.io_backend = IoBackendModel {
            submit: sc,
            completion: sc,
        };
        if let Some(base) = &self.env.machine.tier {
            let mut tier = TierModel::local_only(base.local_bw);
            if let Some(bw) = c.tier_drain_bw {
                tier = tier.with_burst(bw as f64);
            }
            m.tier = Some(tier);
        }
        m
    }

    /// Compile (or fetch) the plan for a candidate's plan-shaping
    /// knobs. `None` = the planner rejected the combination.
    fn plan_for(&self, c: &Candidate) -> PlanSlot {
        let key = plan_key(c);
        if let Some(slot) = self.plans.lock().unwrap().get(&key) {
            return slot.clone();
        }
        let slot: PlanSlot = CheckpointSpec::new(
            self.env.workload.layout(),
            self.env.workload.prefix.as_str(),
        )
        .strategy(Self::strategy_for(c))
        .tuning(Self::tuning_for(c))
        .plan()
        .ok()
        .map(|p| Arc::new(p.program));
        self.plans.lock().unwrap().insert(key, slot.clone());
        slot
    }

    /// Simulate one candidate over all env seeds in the given arena and
    /// return the upper-median objective value.
    fn evaluate(&self, c: &Candidate, arena: &mut SimArena) -> f64 {
        let Some(program) = self.plan_for(c) else {
            return f64::INFINITY;
        };
        let mut cfg = self.machine_for(c);
        let mut costs: Vec<f64> = self
            .env
            .seeds
            .iter()
            .map(|&seed| {
                cfg.seed = seed;
                self.env.objective.cost(&arena.simulate(&program, &cfg))
            })
            .collect();
        costs.sort_by(|a, b| a.total_cmp(b));
        costs[costs.len() / 2]
    }

    /// Cost of a single candidate (memoized).
    pub fn cost(&self, c: &Candidate) -> f64 {
        self.cost_batch(std::slice::from_ref(c))[0]
    }

    /// Cost a batch. Memo hits are free; unique misses are sharded
    /// across the thread pool, each worker reusing its own [`SimArena`].
    pub fn cost_batch(&self, cands: &[Candidate]) -> Vec<f64> {
        let started = Instant::now();
        let has_tier = self.env.has_tier();
        let mut out = vec![f64::NAN; cands.len()];
        // Resolve memo hits and group the misses by canon key.
        let mut miss_order: Vec<CanonKey> = Vec::new();
        let mut miss_map: HashMap<CanonKey, (Candidate, Vec<usize>)> = HashMap::new();
        {
            let memo = self.memo.lock().unwrap();
            for (i, c) in cands.iter().enumerate() {
                let key = canon_key(c, has_tier);
                if let Some(&cost) = memo.get(&key) {
                    out[i] = cost;
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                } else if let Some((_, idxs)) = miss_map.get_mut(&key) {
                    idxs.push(i);
                    // A within-batch duplicate of a pending miss is a hit.
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    miss_map.insert(key, (*c, vec![i]));
                    miss_order.push(key);
                }
            }
        }
        let n_miss = miss_order.len();
        if n_miss > 0 {
            let results: Mutex<Vec<(CanonKey, f64)>> = Mutex::new(Vec::with_capacity(n_miss));
            let next: AtomicU64 = AtomicU64::new(0);
            let workers = self.threads.min(n_miss);
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| {
                        let mut arena = SimArena::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                            if i >= n_miss {
                                break;
                            }
                            let key = miss_order[i];
                            let cand = miss_map[&key].0;
                            let cost = self.evaluate(&cand, &mut arena);
                            results.lock().unwrap().push((key, cost));
                        }
                    });
                }
            });
            let mut memo = self.memo.lock().unwrap();
            for (key, cost) in results.into_inner().unwrap() {
                for &i in &miss_map[&key].1 {
                    out[i] = cost;
                }
                memo.insert(key, cost);
            }
            self.evals.fetch_add(n_miss as u64, Ordering::Relaxed);
            telemetry::add_tune_evals(n_miss as u64);
        }
        let hits = (cands.len() - n_miss) as u64;
        if hits > 0 {
            telemetry::add_tune_memo_hits(hits);
        }
        telemetry::add_tune_eval_nanos(started.elapsed().as_nanos() as u64);
        debug_assert!(out.iter().all(|c| !c.is_nan()));
        out
    }

    /// Full metrics of the median run (by wall time) for a candidate —
    /// what figure benches plot. Not memoized; counts as one eval.
    pub fn median_metrics(&self, c: &Candidate) -> Option<RunMetrics> {
        let program = self.plan_for(c)?;
        let mut cfg = self.machine_for(c);
        let mut arena = SimArena::new();
        let started = Instant::now();
        let mut runs: Vec<RunMetrics> = self
            .env
            .seeds
            .iter()
            .map(|&seed| {
                cfg.seed = seed;
                arena.simulate(&program, &cfg)
            })
            .collect();
        runs.sort_by_key(|a| a.wall);
        let mid = runs.len() / 2;
        let m = runs.swap_remove(mid);
        self.evals.fetch_add(1, Ordering::Relaxed);
        telemetry::add_tune_evals(1);
        telemetry::add_tune_eval_nanos(started.elapsed().as_nanos() as u64);
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;

    fn small_candidate(nf: u32) -> Candidate {
        let mut c = Space::intrepid(256).seed_candidate();
        c.strategy = StrategyKind::RbIo;
        c.nf = nf;
        c
    }

    #[test]
    fn memoizes_equivalent_candidates() {
        let oracle = MachineOracle::new(Env::intrepid(256)).unwrap();
        let a = small_candidate(64);
        let c1 = oracle.cost(&a);
        assert_eq!(oracle.evals(), 1);
        // Identical query: memo hit, no new eval.
        let c2 = oracle.cost(&a);
        assert_eq!(c1, c2);
        assert_eq!(oracle.evals(), 1);
        assert_eq!(oracle.memo_hits(), 1);
        // Masked-knob variant (rbIO ignores cb_buffer): memo hit too.
        let mut b = a;
        b.cb_buffer = 4 << 20;
        let c3 = oracle.cost(&b);
        assert_eq!(c1, c3);
        assert_eq!(oracle.evals(), 1);
        assert_eq!(oracle.memo_hits(), 2);
    }

    #[test]
    fn matches_direct_simulation() {
        let oracle = MachineOracle::new(Env::intrepid(256)).unwrap();
        let c = small_candidate(64);
        let cost = oracle.cost(&c);
        // Re-derive by hand with the same plan/config path.
        let plan = CheckpointSpec::new(oracle.env().workload.layout(), "tune")
            .strategy(Strategy::rbio(64))
            .tuning(MachineOracle::tuning_for(&c))
            .plan()
            .unwrap();
        let mut cfg = oracle.machine_for(&c);
        cfg.seed = oracle.env().seeds[0];
        let direct = rbio_machine::simulate(&plan.program, &cfg);
        assert_eq!(cost, direct.wall.as_secs_f64());
    }

    #[test]
    fn infeasible_candidates_cost_infinity() {
        let oracle = MachineOracle::new(Env::intrepid(256)).unwrap();
        // More writer groups than ranks: planner rejects it.
        let c = small_candidate(512);
        assert_eq!(oracle.cost(&c), f64::INFINITY);
        // Cached like any other result.
        assert_eq!(oracle.cost(&c), f64::INFINITY);
        assert_eq!(oracle.evals(), 1);
    }

    #[test]
    fn batch_deduplicates_within_batch() {
        let oracle = MachineOracle::new(Env::intrepid(256)).unwrap();
        let a = small_candidate(64);
        let mut b = a;
        b.cb_buffer = 4 << 20; // masked for rbIO: same canon key
        let mut d = a;
        d.nf = 128; // live: distinct key
        let costs = oracle.cost_batch(&[a, b, d]);
        assert_eq!(costs[0], costs[1]);
        assert_ne!(costs[0], costs[2]);
        assert_eq!(oracle.evals(), 2);
        assert_eq!(oracle.memo_hits(), 1);
    }

    #[test]
    fn tier_env_masks_depth() {
        let oracle = MachineOracle::new(Env::tier(256)).unwrap();
        let mut a = small_candidate(64);
        a.tier_drain_bw = Some(1_500_000_000);
        a.pipeline_depth = 1;
        let mut b = a;
        b.pipeline_depth = 4;
        let ca = oracle.cost(&a);
        let cb = oracle.cost(&b);
        // The canon mask says these are equivalent — and because the
        // simulator's tier path really does bypass the flush pipeline,
        // the second query must be a memo hit with identical cost.
        assert_eq!(ca, cb);
        assert_eq!(oracle.evals(), 1);
    }

    #[test]
    fn median_metrics_returns_median_by_wall() {
        let env = Env::intrepid(256).with_seeds(vec![1, 2, 3]);
        let oracle = MachineOracle::new(env).unwrap();
        let c = small_candidate(64);
        let m = oracle.median_metrics(&c).unwrap();
        let cost = oracle.cost(&c);
        assert_eq!(m.wall.as_secs_f64(), cost);
    }
}
