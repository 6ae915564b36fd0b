//! The tuner's output artifact: a winning configuration serialized as
//! JSON, plus adapters that turn it back into the concrete configs the
//! rest of the stack consumes ([`ExecConfig`] for the real executor,
//! [`MachineConfig`] for the simulator, [`Strategy`]/[`Tuning`] for
//! the planner).

use crate::oracle::Objective;
use crate::space::{Candidate, StrategyKind};
use rbio::exec::ExecConfig;
use rbio::strategy::{Strategy, Tuning};
use rbio_machine::{IoBackendModel, MachineConfig, TierModel};
use rbio_plan::json::{self, Json};
use std::path::Path;

/// Version stamp written into every exported plan.
const FORMAT_VERSION: u64 = 1;

/// A tuner winner, ready to export or apply.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedPlan {
    /// The winning knob settings.
    pub candidate: Candidate,
    /// Simulated cost of the winner, seconds.
    pub cost_seconds: f64,
    /// Ranks the search was run for.
    pub np: u32,
    /// Env preset label the search ran against.
    pub env_label: String,
    /// Objective the cost minimizes.
    pub objective: Objective,
}

fn strategy_name(s: StrategyKind) -> &'static str {
    match s {
        StrategyKind::OnePfpp => "1pfpp",
        StrategyKind::CoIo => "coio",
        StrategyKind::RbIo => "rbio",
    }
}

fn strategy_from_name(s: &str) -> Option<StrategyKind> {
    match s {
        "1pfpp" => Some(StrategyKind::OnePfpp),
        "coio" => Some(StrategyKind::CoIo),
        "rbio" => Some(StrategyKind::RbIo),
        _ => None,
    }
}

impl TunedPlan {
    /// Serialize to the stable JSON export format.
    pub fn to_json(&self) -> String {
        let c = &self.candidate;
        let tier = match c.tier_drain_bw {
            Some(bw) => bw.to_string(),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\n",
                "  \"version\": {},\n",
                "  \"env\": \"{}\",\n",
                "  \"np\": {},\n",
                "  \"objective\": \"{}\",\n",
                "  \"cost_seconds\": {},\n",
                "  \"candidate\": {{\n",
                "    \"strategy\": \"{}\",\n",
                "    \"nf\": {},\n",
                "    \"pipeline_depth\": {},\n",
                "    \"writer_buffer\": {},\n",
                "    \"cb_buffer\": {},\n",
                "    \"coalesce_fields\": {},\n",
                "    \"tier_drain_bw\": {},\n",
                "    \"coalesce_max_bytes\": {},\n",
                "    \"coalesce_max_ops\": {}\n",
                "  }}\n",
                "}}\n",
            ),
            FORMAT_VERSION,
            json::escape(&self.env_label),
            self.np,
            self.objective.name(),
            self.cost_seconds,
            strategy_name(c.strategy),
            c.nf,
            c.pipeline_depth,
            c.writer_buffer,
            c.cb_buffer,
            c.coalesce_fields,
            tier,
            c.coalesce_max_bytes,
            c.coalesce_max_ops,
        )
    }

    /// Parse a plan previously written by [`TunedPlan::to_json`].
    pub fn from_json(input: &str) -> Result<TunedPlan, String> {
        let root = json::parse(input).map_err(|e| e.to_string())?;
        let version = field_u64(&root, "version")?;
        if version != FORMAT_VERSION {
            return Err(format!("unsupported tuned-plan version {version}"));
        }
        let c = root.get("candidate").ok_or("missing field 'candidate'")?;
        let tier_drain_bw = match c.get("tier_drain_bw") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_u64().ok_or("bad tier_drain_bw")?),
        };
        let candidate = Candidate {
            strategy: strategy_from_name(field_str(c, "strategy")?)
                .ok_or("unknown strategy name")?,
            nf: field_u64(c, "nf")? as u32,
            pipeline_depth: field_u64(c, "pipeline_depth")? as u32,
            writer_buffer: field_u64(c, "writer_buffer")?,
            cb_buffer: field_u64(c, "cb_buffer")?,
            coalesce_fields: c
                .get("coalesce_fields")
                .and_then(Json::as_bool)
                .ok_or("missing field 'coalesce_fields'")?,
            tier_drain_bw,
            coalesce_max_bytes: field_u64(c, "coalesce_max_bytes")?,
            coalesce_max_ops: field_u64(c, "coalesce_max_ops")? as u32,
        };
        Ok(TunedPlan {
            candidate,
            cost_seconds: root
                .get("cost_seconds")
                .and_then(Json::as_f64)
                .ok_or("missing field 'cost_seconds'")?,
            np: field_u64(&root, "np")? as u32,
            env_label: field_str(&root, "env")?.to_string(),
            objective: Objective::from_name(field_str(&root, "objective")?)
                .ok_or("unknown objective name")?,
        })
    }

    /// The planner strategy this plan selects.
    pub fn strategy(&self) -> Strategy {
        match self.candidate.strategy {
            StrategyKind::OnePfpp => Strategy::OnePfpp,
            StrategyKind::CoIo => Strategy::coio(self.candidate.nf),
            StrategyKind::RbIo => Strategy::rbio(self.candidate.nf),
        }
    }

    /// The planner tuning this plan selects.
    pub fn tuning(&self) -> Tuning {
        Tuning {
            cb_buffer_size: self.candidate.cb_buffer,
            writer_buffer: self.candidate.writer_buffer,
            coalesce_fields: self.candidate.coalesce_fields,
            ..Tuning::default()
        }
    }

    /// A real-executor config applying every executor-visible knob.
    pub fn exec_config(&self, base_dir: impl AsRef<Path>) -> ExecConfig {
        ExecConfig::new(base_dir)
            .pipeline_depth(self.candidate.pipeline_depth)
            .coalesce_caps(
                self.candidate.coalesce_max_bytes,
                self.candidate.coalesce_max_ops as usize,
            )
    }

    /// `base` with this plan's machine knobs applied (pipeline depth,
    /// threaded backend model, tier drain rate when `base` has a tier).
    pub fn machine_config(&self, base: &MachineConfig) -> MachineConfig {
        let mut m = base.clone();
        m.pipeline_depth = self.candidate.pipeline_depth;
        m.io_backend = IoBackendModel::threaded();
        if let Some(base_tier) = &base.tier {
            let mut tier = TierModel::local_only(base_tier.local_bw);
            if let Some(bw) = self.candidate.tier_drain_bw {
                tier = tier.with_burst(bw as f64);
            }
            m.tier = Some(tier);
        }
        m
    }
}

fn field_u64(v: &Json, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{name}'"))
}

fn field_str<'j>(v: &'j Json, name: &str) -> Result<&'j str, String> {
    v.get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string field '{name}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::Space;

    fn sample() -> TunedPlan {
        let mut c = Space::intrepid(16384).seed_candidate();
        c.strategy = StrategyKind::RbIo;
        c.nf = 1024;
        c.pipeline_depth = 2;
        TunedPlan {
            candidate: c,
            cost_seconds: 2.465,
            np: 16384,
            env_label: "intrepid".to_string(),
            objective: Objective::Perceived,
        }
    }

    #[test]
    fn json_round_trips() {
        let plan = sample();
        let text = plan.to_json();
        let back = TunedPlan::from_json(&text).expect("parse");
        assert_eq!(back, plan);
        // And with a tier knob present.
        let mut tiered = sample();
        tiered.candidate.tier_drain_bw = Some(1_500_000_000);
        tiered.env_label = "tier".to_string();
        tiered.objective = Objective::Durable;
        let back = TunedPlan::from_json(&tiered.to_json()).expect("parse");
        assert_eq!(back, tiered);
    }

    #[test]
    fn rejects_malformed_plans() {
        assert!(TunedPlan::from_json("{}").is_err());
        let bad_version = sample()
            .to_json()
            .replace("\"version\": 1", "\"version\": 99");
        assert!(TunedPlan::from_json(&bad_version).is_err());
        let bad_strategy = sample().to_json().replace("\"rbio\"", "\"mpiio\"");
        assert!(TunedPlan::from_json(&bad_strategy).is_err());
    }

    #[test]
    fn exec_config_applies_knobs() {
        let plan = sample();
        let cfg = plan.exec_config("/tmp/ckpt");
        assert_eq!(cfg.pipeline_depth, plan.candidate.pipeline_depth);
        assert_eq!(cfg.coalesce_max_bytes, plan.candidate.coalesce_max_bytes);
        assert_eq!(
            cfg.coalesce_max_ops,
            plan.candidate.coalesce_max_ops as usize
        );
    }

    #[test]
    fn machine_config_applies_knobs() {
        let mut plan = sample();
        plan.candidate.tier_drain_bw = Some(2_000_000_000);
        let base = MachineConfig::intrepid(16384);
        let m = plan.machine_config(&base);
        assert_eq!(m.pipeline_depth, plan.candidate.pipeline_depth);
        assert_eq!(m.io_backend.submit, IoBackendModel::threaded().submit);
        // No tier on the base: the knob is ignored.
        assert!(m.tier.is_none());
        let mut tiered_base = base.clone();
        tiered_base.tier = Some(TierModel::local_only(3.0e9));
        let m = plan.machine_config(&tiered_base);
        assert_eq!(m.tier.unwrap().burst_bw, Some(2.0e9));
    }

    #[test]
    fn strategy_and_tuning_reflect_candidate() {
        let plan = sample();
        assert_eq!(plan.strategy(), Strategy::rbio(1024));
        let t = plan.tuning();
        assert_eq!(t.writer_buffer, plan.candidate.writer_buffer);
        assert_eq!(t.cb_buffer_size, plan.candidate.cb_buffer);
    }
}
