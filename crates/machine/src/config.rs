//! Machine configuration and calibration constants.

use rbio_gpfs::FsConfig;
use rbio_net::NetConfig;
use rbio_sim::SimTime;
use rbio_topology::PartitionSpec;

/// A structurally invalid machine configuration.
///
/// The autotuner (`rbio-tune`) generates candidate configurations
/// mechanically; a zero pipeline depth or a non-positive bandwidth must
/// surface as a typed error at construction time, not as a NaN/divide-by-
/// zero cost deep inside a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `pipeline_depth` must be at least 1 (1 = the serial write path).
    ZeroPipelineDepth,
    /// A bandwidth parameter must be finite and strictly positive.
    NonPositiveBandwidth {
        /// Which parameter was rejected (e.g. `"tier.local_bw"`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroPipelineDepth => write!(f, "pipeline_depth must be >= 1"),
            ConfigError::NonPositiveBandwidth { field, value } => {
                write!(f, "{field} must be finite and > 0 (got {value})")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Reject non-finite or non-positive bandwidths.
fn check_bw(field: &'static str, value: f64) -> Result<(), ConfigError> {
    if value.is_finite() && value > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::NonPositiveBandwidth { field, value })
    }
}

/// How much the simulator records into the profiling timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileLevel {
    /// Record nothing (fastest; per-rank finish times are still produced).
    Off,
    /// Record write and send intervals (enough for Figs. 11–12).
    Writes,
    /// Record every op interval.
    Full,
}

/// An injected writer failure, mirroring `kill_writer_after_bytes` on the
/// real executors: the rank dies once its cumulative file writes cross a
/// byte budget, and the next surviving writer (in `writer_ranks()` order)
/// re-runs the orphaned extent after a detection delay.
#[derive(Debug, Clone, Copy)]
pub struct WriterFailure {
    /// The rank that dies.
    pub rank: u32,
    /// The failure trips during the first write that would push the
    /// rank's cumulative written bytes past this budget.
    pub after_bytes: u64,
    /// Virtual time between the death and the successor being allowed to
    /// start the takeover (the health monitor's `dead_after` deadline in
    /// the real runtime).
    pub detection_delay: SimTime,
}

/// Bandwidth hierarchy of a node-local staging tier (mirror of
/// `rbio::tier`): writes land in a pre-allocated local slab at memory
/// speed — the *perceived* cost — while a background drain engine pays
/// the burst hop (if any) and the full PFS path per byte — the *durable*
/// cost. [`crate::RunMetrics::durable_wall`] reports when the drain
/// finishes.
#[derive(Debug, Clone, Copy)]
pub struct TierModel {
    /// Node-local slab append bandwidth, bytes/s. An mmap'd slab write
    /// is a memory copy, so a few GB/s (bounded by `mem_bw`-class DDR).
    pub local_bw: f64,
    /// Optional burst-buffer hop bandwidth, bytes/s, paid per byte
    /// between the local slab and the PFS write.
    pub burst_bw: Option<f64>,
}

impl TierModel {
    /// A local slab draining straight to the PFS.
    pub fn local_only(local_bw: f64) -> Self {
        TierModel {
            local_bw,
            burst_bw: None,
        }
    }

    /// Add an intermediate burst-buffer hop.
    pub fn with_burst(mut self, bw: f64) -> Self {
        self.burst_bw = Some(bw);
        self
    }

    /// A validated tier model: both bandwidths must be finite and > 0.
    pub fn try_new(local_bw: f64, burst_bw: Option<f64>) -> Result<Self, ConfigError> {
        let model = TierModel { local_bw, burst_bw };
        model.validate()?;
        Ok(model)
    }

    /// Check the model's bandwidths.
    pub fn validate(&self) -> Result<(), ConfigError> {
        check_bw("tier.local_bw", self.local_bw)?;
        if let Some(bw) = self.burst_bw {
            check_bw("tier.burst_bw", bw)?;
        }
        Ok(())
    }
}

/// Per-job costs of the writer's I/O path (mirror of `rbio::backend`):
/// the foreground pays `submit` for handing a flush job to the backend,
/// and each background flush completion pays `completion` for joining
/// the blocking write. The zero-cost default leaves every existing
/// calibration untouched.
#[derive(Debug, Clone, Copy)]
pub struct IoBackendModel {
    /// Foreground cost of enqueueing one flush job.
    pub submit: SimTime,
    /// Completion cost per flush job.
    pub completion: SimTime,
}

impl Default for IoBackendModel {
    fn default() -> Self {
        IoBackendModel::free()
    }
}

impl IoBackendModel {
    /// No submission/completion overhead at all.
    pub fn free() -> Self {
        IoBackendModel {
            submit: SimTime::ZERO,
            completion: SimTime::ZERO,
        }
    }

    /// The blocking `ThreadedBackend`: one condvar handoff per job on
    /// submit, one join on completion.
    pub fn threaded() -> Self {
        IoBackendModel {
            submit: SimTime::from_micros(4),
            completion: SimTime::from_micros(4),
        }
    }
}

/// Full description of the simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Compute partition geometry.
    pub partition: PartitionSpec,
    /// Network fabrics.
    pub net: NetConfig,
    /// Filesystem.
    pub fs: FsConfig,
    /// In-node staging copy bandwidth, bytes/s. BG/P DDR2 delivers
    /// 13.6 GB/s theoretical; a core-driven memcpy sustains a few GB/s.
    pub mem_bw: f64,
    /// Fixed overhead per pack/copy call.
    pub pack_overhead: SimTime,
    /// RNG seed (drives filesystem noise).
    pub seed: u64,
    /// Timeline verbosity.
    pub profile: ProfileLevel,
    /// Writer pipeline depth: outstanding background data flushes (i.e.
    /// staging buffers) per rank; metadata jobs hold no buffer.
    /// `1` (default) models the serial write path; `≥ 2` models
    /// double-buffered writers whose foreground cost per `WriteAt` is
    /// only the staging copy, with the disk flush running on a per-rank
    /// background flusher (recorded as `OpKind::Overlap`). Mirrors
    /// `pipeline_depth` on the real executors.
    pub pipeline_depth: u32,
    /// Optional injected writer death (degraded-mode simulation).
    pub writer_failure: Option<WriterFailure>,
    /// Optional node-local staging tier. With one set, every `WriteAt`
    /// costs only the local slab copy in the foreground, and the disk
    /// path runs on a per-rank background drain whose completion is
    /// reported as `durable_wall`. `None` writes straight through.
    pub tier: Option<TierModel>,
    /// Submission/completion costs of the writer's I/O backend (only
    /// visible on the pipelined path, `pipeline_depth ≥ 2`). Defaults to
    /// [`IoBackendModel::free`].
    pub io_backend: IoBackendModel,
}

impl MachineConfig {
    /// An Intrepid-like machine for `np` MPI ranks in VN mode (np must be a
    /// power of two ≥ 256, as in the paper's 16Ki/32Ki/64Ki runs).
    pub fn intrepid(np: u32) -> Self {
        MachineConfig {
            partition: PartitionSpec::intrepid_vn(np),
            net: NetConfig::default(),
            fs: FsConfig::default(),
            mem_bw: 3.0e9,
            pack_overhead: SimTime::from_micros(2),
            seed: 0x1BEB,
            profile: ProfileLevel::Writes,
            pipeline_depth: 1,
            writer_failure: None,
            tier: None,
            io_backend: IoBackendModel::free(),
        }
    }

    /// A small test machine with an arbitrary partition.
    pub fn small(partition: PartitionSpec) -> Self {
        MachineConfig {
            partition,
            net: NetConfig::default(),
            fs: FsConfig::default(),
            mem_bw: 3.0e9,
            pack_overhead: SimTime::from_micros(2),
            seed: 42,
            profile: ProfileLevel::Full,
            pipeline_depth: 1,
            writer_failure: None,
            tier: None,
            io_backend: IoBackendModel::free(),
        }
    }

    /// Silence all stochastic terms (exact repeatability for unit tests
    /// that assert precise orderings).
    pub fn quiet(mut self) -> Self {
        self.fs.noise_sigma = 0.0;
        self.fs.outlier_prob = 0.0;
        self
    }

    /// Replace the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the writer pipeline depth (1 = serial, 2 = double buffering).
    pub fn pipeline_depth(mut self, depth: u32) -> Self {
        self.pipeline_depth = depth.max(1);
        self
    }

    /// Fallible [`Self::pipeline_depth`]: rejects 0 instead of clamping.
    /// Machine-generated candidates (the autotuner) use this so a
    /// nonsensical depth fails fast rather than silently becoming 1.
    pub fn try_pipeline_depth(mut self, depth: u32) -> Result<Self, ConfigError> {
        if depth == 0 {
            return Err(ConfigError::ZeroPipelineDepth);
        }
        self.pipeline_depth = depth;
        Ok(self)
    }

    /// Fallible [`Self::tier`]: rejects zero/negative/non-finite
    /// bandwidths with a typed error.
    pub fn try_tier(mut self, tier: TierModel) -> Result<Self, ConfigError> {
        tier.validate()?;
        self.tier = Some(tier);
        Ok(self)
    }

    /// Check every numeric parameter a tuner candidate can set: pipeline
    /// depth and staging/tier/filesystem/network bandwidths.
    /// [`crate::CostQuery::new`] runs this so a malformed candidate is a
    /// typed error instead of a NaN cost.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.pipeline_depth == 0 {
            return Err(ConfigError::ZeroPipelineDepth);
        }
        check_bw("mem_bw", self.mem_bw)?;
        check_bw("fs.array_write_bw", self.fs.array_write_bw)?;
        check_bw("fs.array_read_bw", self.fs.array_read_bw)?;
        check_bw("net.client_stream_bw", self.net.client_stream_bw)?;
        check_bw("net.torus_link_bw", self.net.torus_link_bw)?;
        check_bw("net.tree_bw_per_ion", self.net.tree_bw_per_ion)?;
        check_bw("net.eth_bw_per_ion", self.net.eth_bw_per_ion)?;
        if let Some(tier) = self.tier {
            tier.validate()?;
        }
        Ok(())
    }

    /// Inject a writer death: `rank` dies during the first write that
    /// would push it past `after_bytes`, and the takeover starts no
    /// earlier than `detection_delay` after the death.
    pub fn writer_failure(mut self, rank: u32, after_bytes: u64, detection_delay: SimTime) -> Self {
        self.writer_failure = Some(WriterFailure {
            rank,
            after_bytes,
            detection_delay,
        });
        self
    }

    /// Stage writes through a node-local tier (see [`TierModel`]).
    pub fn tier(mut self, tier: TierModel) -> Self {
        self.tier = Some(tier);
        self
    }

    /// Model the writer's I/O backend costs (see [`IoBackendModel`]).
    pub fn io_backend(mut self, model: IoBackendModel) -> Self {
        self.io_backend = model;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intrepid_shapes() {
        let m = MachineConfig::intrepid(16384);
        assert_eq!(m.partition.num_ranks(), 16384);
        assert_eq!(m.partition.num_psets(), 64);
        assert_eq!(m.fs.nsd_servers, 128);
    }

    #[test]
    fn validation_rejects_degenerate_candidates() {
        let m = MachineConfig::intrepid(16384);
        assert_eq!(m.validate(), Ok(()));
        assert_eq!(
            m.clone().try_pipeline_depth(0).unwrap_err(),
            ConfigError::ZeroPipelineDepth
        );
        assert!(m.clone().try_pipeline_depth(2).is_ok());
        assert_eq!(
            TierModel::try_new(0.0, None).unwrap_err(),
            ConfigError::NonPositiveBandwidth {
                field: "tier.local_bw",
                value: 0.0
            }
        );
        assert_eq!(
            TierModel::try_new(3.0e9, Some(-1.0)).unwrap_err(),
            ConfigError::NonPositiveBandwidth {
                field: "tier.burst_bw",
                value: -1.0
            }
        );
        assert!(TierModel::try_new(3.0e9, Some(1.5e9)).is_ok());
        assert!(matches!(
            m.clone().try_tier(TierModel::local_only(f64::NAN)),
            Err(ConfigError::NonPositiveBandwidth {
                field: "tier.local_bw",
                ..
            })
        ));
        let mut bad = m.clone();
        bad.mem_bw = -3.0e9;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::NonPositiveBandwidth {
                field: "mem_bw",
                ..
            })
        ));
    }

    #[test]
    fn quiet_removes_noise() {
        let m = MachineConfig::intrepid(16384).quiet();
        assert_eq!(m.fs.noise_sigma, 0.0);
        assert_eq!(m.fs.outlier_prob, 0.0);
    }
}
