//! The configuration space: typed knobs and candidate configurations.
//!
//! A [`Candidate`] is one fully specified software configuration of the
//! checkpoint stack; a [`Space`] gives each knob its list of admissible
//! values. The solver moves through the space one [`Knob`] axis at a
//! time (coordinate descent) and by random single-knob perturbations
//! (local search), so the space is deliberately axis-aligned rather than
//! a free-form constraint system.

/// Checkpoint strategy family (the paper's three contenders).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// One POSIX file per processor (`nf = np`).
    OnePfpp,
    /// Collective MPI-IO into `nf` files.
    CoIo,
    /// Reduced-blocking I/O, `nf = ng` independent writer files.
    RbIo,
}

/// One point of the configuration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// Strategy family.
    pub strategy: StrategyKind,
    /// Concurrent output files: coIO's `nf`, rbIO's `ng` (= nf in
    /// independent-commit mode). Ignored by 1PFPP (`nf = np`).
    pub nf: u32,
    /// Writer flush-pipeline depth (1 = serial).
    pub pipeline_depth: u32,
    /// rbIO writer commit buffer / 1PFPP chunk cap, bytes.
    pub writer_buffer: u64,
    /// Collective exchange round buffer (coIO two-phase), bytes.
    pub cb_buffer: u64,
    /// Batch all fields of a collective commit into one write.
    pub coalesce_fields: bool,
    /// Drain-stage bandwidth out of the node-local tier, bytes/s.
    /// `None` when the machine has no staging tier.
    pub tier_drain_bw: Option<u64>,
    /// Real-executor cap on one coalesced vectored write, bytes.
    /// Cost-invariant under the simulator (it does not model IOV
    /// batching) — exported to `ExecConfig`, masked from memo keys.
    pub coalesce_max_bytes: u64,
    /// Real-executor cap on chunks per coalesced write. Cost-invariant
    /// under the simulator, like `coalesce_max_bytes`.
    pub coalesce_max_ops: u32,
}

/// A tunable axis of the space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    Strategy,
    Nf,
    PipelineDepth,
    WriterBuffer,
    CbBuffer,
    CoalesceFields,
    TierDrainBw,
    CoalesceMaxBytes,
    CoalesceMaxOps,
}

/// Coordinate-descent visiting order. `Nf` first: it dominates the cost
/// landscape (Fig. 8), so later axes refine around a good file count.
pub const ALL_KNOBS: [Knob; 9] = [
    Knob::Nf,
    Knob::Strategy,
    Knob::PipelineDepth,
    Knob::WriterBuffer,
    Knob::CbBuffer,
    Knob::CoalesceFields,
    Knob::TierDrainBw,
    Knob::CoalesceMaxBytes,
    Knob::CoalesceMaxOps,
];

impl Knob {
    /// Short stable name, used in search history lines and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            Knob::Strategy => "strategy",
            Knob::Nf => "nf",
            Knob::PipelineDepth => "pipeline_depth",
            Knob::WriterBuffer => "writer_buffer",
            Knob::CbBuffer => "cb_buffer",
            Knob::CoalesceFields => "coalesce_fields",
            Knob::TierDrainBw => "tier_drain_bw",
            Knob::CoalesceMaxBytes => "coalesce_max_bytes",
            Knob::CoalesceMaxOps => "coalesce_max_ops",
        }
    }
}

/// Admissible values per knob. Every axis must be non-empty; an axis
/// with one value is fixed (not searched).
#[derive(Debug, Clone)]
pub struct Space {
    pub strategies: Vec<StrategyKind>,
    pub nf: Vec<u32>,
    pub pipeline_depth: Vec<u32>,
    pub writer_buffer: Vec<u64>,
    pub cb_buffer: Vec<u64>,
    pub coalesce_fields: Vec<bool>,
    pub tier_drain_bw: Vec<Option<u64>>,
    pub coalesce_max_bytes: Vec<u64>,
    pub coalesce_max_ops: Vec<u32>,
}

impl Space {
    /// The default Intrepid search space at `np` ranks: all three
    /// strategies, power-of-two file counts from 64 up to `np`
    /// (capped at 8192), and the software knobs the stack exposes.
    /// Carries no hint of the paper's nf ≈ 1024 optimum.
    pub fn intrepid(np: u32) -> Space {
        let mut nf = Vec::new();
        let mut v = 64u32;
        while v <= np.min(8192) {
            nf.push(v);
            v *= 2;
        }
        Space {
            strategies: vec![
                StrategyKind::OnePfpp,
                StrategyKind::CoIo,
                StrategyKind::RbIo,
            ],
            nf,
            pipeline_depth: vec![1, 2, 4],
            writer_buffer: vec![1 << 20, 4 << 20, 16 << 20],
            cb_buffer: vec![4 << 20, 16 << 20],
            coalesce_fields: vec![false, true],
            tier_drain_bw: vec![None],
            coalesce_max_bytes: vec![8 << 20],
            coalesce_max_ops: vec![64],
        }
    }

    /// Add a tier drain-rate axis (machine with a staging tier).
    pub fn with_tier_drain(mut self, rates: &[u64]) -> Space {
        self.tier_drain_bw = rates.iter().map(|&r| Some(r)).collect();
        self
    }

    /// All axes non-empty and nf values positive?
    pub fn validate(&self) -> Result<(), String> {
        macro_rules! nonempty {
            ($f:ident) => {
                if self.$f.is_empty() {
                    return Err(format!("space axis '{}' is empty", stringify!($f)));
                }
            };
        }
        nonempty!(strategies);
        nonempty!(nf);
        nonempty!(pipeline_depth);
        nonempty!(writer_buffer);
        nonempty!(cb_buffer);
        nonempty!(coalesce_fields);
        nonempty!(tier_drain_bw);
        nonempty!(coalesce_max_bytes);
        nonempty!(coalesce_max_ops);
        if self.nf.contains(&0) {
            return Err("nf axis contains 0".to_string());
        }
        if self.pipeline_depth.contains(&0) {
            return Err("pipeline_depth axis contains 0".to_string());
        }
        Ok(())
    }

    /// Number of values on one axis.
    pub fn axis_len(&self, k: Knob) -> usize {
        match k {
            Knob::Strategy => self.strategies.len(),
            Knob::Nf => self.nf.len(),
            Knob::PipelineDepth => self.pipeline_depth.len(),
            Knob::WriterBuffer => self.writer_buffer.len(),
            Knob::CbBuffer => self.cb_buffer.len(),
            Knob::CoalesceFields => self.coalesce_fields.len(),
            Knob::TierDrainBw => self.tier_drain_bw.len(),
            Knob::CoalesceMaxBytes => self.coalesce_max_bytes.len(),
            Knob::CoalesceMaxOps => self.coalesce_max_ops.len(),
        }
    }

    /// Total cross-product size (may far exceed the number of *distinct
    /// costs* — canonicalization collapses masked combinations).
    pub fn size(&self) -> u64 {
        ALL_KNOBS.iter().map(|&k| self.axis_len(k) as u64).product()
    }

    /// `c` with axis `k` set to its `idx`-th value.
    pub fn with_axis(&self, c: &Candidate, k: Knob, idx: usize) -> Candidate {
        let mut out = *c;
        match k {
            Knob::Strategy => out.strategy = self.strategies[idx],
            Knob::Nf => out.nf = self.nf[idx],
            Knob::PipelineDepth => out.pipeline_depth = self.pipeline_depth[idx],
            Knob::WriterBuffer => out.writer_buffer = self.writer_buffer[idx],
            Knob::CbBuffer => out.cb_buffer = self.cb_buffer[idx],
            Knob::CoalesceFields => out.coalesce_fields = self.coalesce_fields[idx],
            Knob::TierDrainBw => out.tier_drain_bw = self.tier_drain_bw[idx],
            Knob::CoalesceMaxBytes => out.coalesce_max_bytes = self.coalesce_max_bytes[idx],
            Knob::CoalesceMaxOps => out.coalesce_max_ops = self.coalesce_max_ops[idx],
        }
        out
    }

    /// Search start point: the first value of every axis — the
    /// least-resource corner. Deliberately NOT the middle: on the
    /// default power-of-two nf axis the midpoint happens to be the
    /// paper's sweet spot, and a search seeded there would "find" the
    /// optimum without moving. Starting in the corner, every
    /// rediscovery is an actual descent.
    pub fn seed_candidate(&self) -> Candidate {
        Candidate {
            strategy: self.strategies[0],
            nf: self.nf[0],
            pipeline_depth: self.pipeline_depth[0],
            writer_buffer: self.writer_buffer[0],
            cb_buffer: self.cb_buffer[0],
            coalesce_fields: self.coalesce_fields[0],
            tier_drain_bw: self.tier_drain_bw[0],
            coalesce_max_bytes: self.coalesce_max_bytes[0],
            coalesce_max_ops: self.coalesce_max_ops[0],
        }
    }

    /// The full cross product, for exhaustive sweeps. Guarded: panics
    /// over 1M points (an exhaustive sweep that size is a bug).
    pub fn enumerate(&self) -> Vec<Candidate> {
        let n = self.size();
        assert!(n <= 1_000_000, "exhaustive enumeration of {n} points");
        let mut out = Vec::with_capacity(n as usize);
        let mut stack = vec![self.seed_candidate()];
        for &k in ALL_KNOBS.iter() {
            let mut next = Vec::with_capacity(stack.len() * self.axis_len(k));
            for c in &stack {
                for i in 0..self.axis_len(k) {
                    next.push(self.with_axis(c, k, i));
                }
            }
            stack = next;
        }
        out.append(&mut stack);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrepid_space_shape() {
        let s = Space::intrepid(16384);
        s.validate().expect("valid");
        assert_eq!(s.nf, vec![64, 128, 256, 512, 1024, 2048, 4096, 8192]);
        assert_eq!(s.size() % (8 * 3 * 3), 0);
        let seed = s.seed_candidate();
        assert!(s.nf.contains(&seed.nf));
    }

    #[test]
    fn nf_axis_clamps_to_np() {
        let s = Space::intrepid(256);
        assert_eq!(s.nf, vec![64, 128, 256]);
    }

    #[test]
    fn enumerate_covers_cross_product() {
        let mut s = Space::intrepid(256);
        s.strategies = vec![StrategyKind::RbIo];
        s.pipeline_depth = vec![1];
        s.writer_buffer = vec![4 << 20];
        s.cb_buffer = vec![16 << 20];
        s.coalesce_fields = vec![false];
        let all = s.enumerate();
        assert_eq!(all.len() as u64, s.size());
        assert_eq!(all.len(), 3); // just the nf axis
        let nfs: Vec<u32> = all.iter().map(|c| c.nf).collect();
        assert_eq!(nfs, vec![64, 128, 256]);
    }

    #[test]
    fn with_axis_round_trips() {
        let s = Space::intrepid(1024);
        let c = s.seed_candidate();
        for (i, &nf) in s.nf.iter().enumerate() {
            assert_eq!(s.with_axis(&c, Knob::Nf, i).nf, nf);
        }
        assert_eq!(
            s.with_axis(&c, Knob::Strategy, 0).strategy,
            StrategyKind::OnePfpp
        );
    }

    #[test]
    fn empty_axis_rejected() {
        let mut s = Space::intrepid(1024);
        s.nf.clear();
        assert!(s.validate().is_err());
        let mut s = Space::intrepid(1024);
        s.pipeline_depth = vec![0];
        assert!(s.validate().is_err());
    }
}
