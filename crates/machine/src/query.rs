//! Repeated-costing entry point for autotuners.
//!
//! `rbio-tune` costs hundreds of candidate configurations against the same
//! partition; building a fresh event heap, torus fabric, and per-rank
//! bookkeeping for each run would dominate the solver's wall time. A
//! [`CostQuery`] validates its [`MachineConfig`] once up front and then
//! recycles a [`SimArena`] across runs, so each additional query pays only
//! for the simulation itself.

use rbio_plan::Program;

use crate::config::{ConfigError, MachineConfig};
use crate::metrics::RunMetrics;
use crate::run::SimArena;

/// A validated machine configuration plus a reusable simulation arena.
///
/// Results are bit-identical to calling [`crate::simulate`] with the same
/// program and configuration; only the per-run setup is amortized.
pub struct CostQuery {
    cfg: MachineConfig,
    arena: SimArena,
}

impl CostQuery {
    /// Wrap `cfg`, rejecting degenerate configurations (zero pipeline
    /// depth, non-positive bandwidths) before any simulation runs.
    pub fn new(cfg: MachineConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(CostQuery {
            cfg,
            arena: SimArena::new(),
        })
    }

    /// Cost one program on the configured machine.
    pub fn run(&mut self, program: &Program) -> RunMetrics {
        self.arena.simulate(program, &self.cfg)
    }

    /// Cost one program with a specific noise seed, leaving the
    /// configured seed in place afterwards. Lets a caller take a
    /// median-of-seeds without cloning the whole config per draw.
    pub fn run_seeded(&mut self, program: &Program, seed: u64) -> RunMetrics {
        let saved = self.cfg.seed;
        self.cfg.seed = seed;
        let m = self.arena.simulate(program, &self.cfg);
        self.cfg.seed = saved;
        m
    }

    /// The wrapped configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Completed simulation runs through this query's arena.
    pub fn runs(&self) -> u64 {
        self.arena.runs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConfigError, IoBackendModel, MachineConfig, TierModel};
    use crate::simulate;
    use rbio::layout::DataLayout;
    use rbio::strategy::{CheckpointSpec, Strategy};
    use rbio_topology::PartitionSpec;

    fn machine(ranks: u32) -> MachineConfig {
        let nodes = ranks / 2;
        MachineConfig::small(PartitionSpec::custom([nodes / 4, 2, 2], 2, 4)).quiet()
    }

    fn program(ranks: u32, strategy: Strategy) -> Program {
        let layout = DataLayout::uniform(ranks, &[("u", 1 << 20), ("v", 1 << 20)]);
        CheckpointSpec::new(layout, "ckpt")
            .strategy(strategy)
            .plan()
            .expect("valid plan")
            .program
    }

    #[test]
    fn rejects_invalid_config() {
        let mut cfg = machine(256);
        cfg.pipeline_depth = 0;
        assert!(matches!(
            CostQuery::new(cfg),
            Err(ConfigError::ZeroPipelineDepth)
        ));
    }

    #[test]
    fn matches_simulate_bit_for_bit() {
        let cfg = machine(256);
        let prog = program(256, Strategy::rbio(16));
        let fresh = simulate(&prog, &cfg);
        let mut q = CostQuery::new(cfg).expect("valid");
        for _ in 0..3 {
            let m = q.run(&prog);
            assert_eq!(m.wall, fresh.wall);
            assert_eq!(m.durable_wall, fresh.durable_wall);
            assert_eq!(m.bytes_written, fresh.bytes_written);
            assert_eq!(m.bytes_sent, fresh.bytes_sent);
            assert_eq!(m.per_rank_finish, fresh.per_rank_finish);
        }
        assert_eq!(q.runs(), 3);
    }

    #[test]
    fn arena_reuse_across_different_programs() {
        let cfg = machine(256);
        let progs = [
            program(256, Strategy::OnePfpp),
            program(256, Strategy::rbio(16)),
            program(256, Strategy::coio(16)),
        ];
        let mut q = CostQuery::new(cfg.clone()).expect("valid");
        for p in &progs {
            let fresh = simulate(p, &cfg);
            let reused = q.run(p);
            assert_eq!(reused.wall, fresh.wall);
            assert_eq!(reused.per_rank_finish, fresh.per_rank_finish);
        }
    }

    #[test]
    fn arena_reuse_across_machine_variants() {
        // Tier and backend knobs change the simulation path; a recycled
        // arena must not leak state between variants.
        let prog = program(256, Strategy::rbio(16));
        let variants = [
            machine(256),
            machine(256)
                .try_tier(TierModel::try_new(3.0e9, Some(1.5e9)).unwrap())
                .unwrap(),
            machine(256)
                .io_backend(IoBackendModel::threaded())
                .try_pipeline_depth(2)
                .unwrap(),
        ];
        for cfg in variants {
            let fresh = simulate(&prog, &cfg);
            // One query per variant, but run twice to exercise reuse.
            let mut q = CostQuery::new(cfg).expect("valid");
            assert_eq!(q.run(&prog).wall, fresh.wall);
            assert_eq!(q.run(&prog).durable_wall, fresh.durable_wall);
        }
        // And one arena across all variants via seed swapping.
        let mut q = CostQuery::new(machine(256)).expect("valid");
        let base = simulate(&prog, q.config());
        let m7 = q.run_seeded(&prog, 7);
        assert_eq!(
            q.run(&prog).wall,
            base.wall,
            "seed restored after run_seeded"
        );
        let mut seeded_cfg = machine(256);
        seeded_cfg.seed = 7;
        assert_eq!(m7.wall, simulate(&prog, &seeded_cfg).wall);
    }
}
