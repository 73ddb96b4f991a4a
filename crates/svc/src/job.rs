//! Job specifications and lifecycle states.
//!
//! A [`JobSpec`] is the client-side description of one simulation run —
//! the same knobs the `fasda run` command exposes, made serializable so
//! they survive the queue journal and the wire. [`JobSpec::build`]
//! materializes the cluster configuration and particle system from the
//! spec with exactly the CLI's defaults, so a job submitted to the
//! service and a direct `fasda run` with the same flags simulate the
//! same machine (which is what lets CI `cmp` a migrated job's state
//! dump against a direct run's).

use fasda_cluster::{ClusterConfig, FaultPlan, RelConfig};
use fasda_core::config::{ChipConfig, DesignVariant};
use fasda_md::space::SimulationSpace;
use fasda_md::system::ParticleSystem;
use fasda_md::workload::WorkloadSpec;
use fasda_trace::Json;

/// Parse the artifact's `222`-style dimension triple.
pub fn parse_dims(s: &str) -> Result<(u32, u32, u32), String> {
    let digits: Vec<u32> = s
        .chars()
        .map(|c| c.to_digit(10).ok_or_else(|| format!("bad dims '{s}'")))
        .collect::<Result<_, _>>()?;
    match digits.as_slice() {
        [x, y, z] => Ok((*x, *y, *z)),
        _ => Err(format!(
            "dims must be three digits like the artifact's '222'/'444', got '{s}'"
        )),
    }
}

/// Validate a spec's geometry without building it — everything
/// [`SimulationSpace`] and the cluster constructor would otherwise
/// panic on, turned into errors the server can reject at submit time.
fn check_geometry(total: (u32, u32, u32), per_fpga: (u32, u32, u32)) -> Result<(), String> {
    let (tx, ty, tz) = total;
    let (px, py, pz) = per_fpga;
    if tx < 3 || ty < 3 || tz < 3 {
        return Err(format!(
            "total space must be at least 3 cells per axis (got {tx}{ty}{tz})"
        ));
    }
    if px == 0 || py == 0 || pz == 0 {
        return Err("per-FPGA dims must be at least 1 cell per axis".into());
    }
    if tx % px != 0 || ty % py != 0 || tz % pz != 0 {
        return Err(format!(
            "per-FPGA dims {px}{py}{pz} must divide the total space {tx}{ty}{tz}"
        ));
    }
    if (tx / px) * (ty / py) * (tz / pz) < 2 {
        return Err(format!(
            "space {tx}{ty}{tz} over per-FPGA {px}{py}{pz} is a single chip; \
             the cluster driver needs at least 2"
        ));
    }
    Ok(())
}

/// Everything needed to run one simulation job. Field defaults match
/// the `fasda run` CLI so service jobs and direct runs are comparable.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Human-readable label (free-form; shows up in status and logs).
    pub name: String,
    /// Tenant for fair-share scheduling and quotas.
    pub tenant: String,
    /// Higher runs first within a tenant's share.
    pub priority: i64,
    /// Total simulation-space cells, `444` style.
    pub total: String,
    /// Cells per FPGA, `222` style.
    pub per_fpga: String,
    /// Particles per cell.
    pub per_cell: u32,
    /// Workload seed.
    pub seed: u64,
    /// Timesteps to run.
    pub steps: u64,
    /// Optional fault-plan grammar string (see `fasda run --fault-plan`).
    pub fault_plan: Option<String>,
    /// Opt out of the reliable-delivery layer faults normally enable.
    pub unreliable: bool,
    /// Checkpoint every N steps; `0` takes the server's default cadence
    /// (which may come from the Young–Daly policy calculator).
    pub ckpt_every: u64,
    /// Write the deterministic final-state dump here on completion.
    pub dump_state: Option<String>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            name: String::new(),
            tenant: "default".to_string(),
            priority: 0,
            total: "633".to_string(),
            per_fpga: "333".to_string(),
            per_cell: 64,
            seed: 64205,
            steps: 5,
            fault_plan: None,
            unreliable: false,
            ckpt_every: 0,
            dump_state: None,
        }
    }
}

impl JobSpec {
    /// Serialize for the queue journal. Lossless for every spec
    /// [`JobSpec::from_json`] accepted; a spec built in code goes through
    /// [`JobSpec::to_wire`] instead.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj()
            .field("name", self.name.as_str())
            .field("tenant", self.tenant.as_str())
            .field("priority", self.priority)
            .field("total", self.total.as_str())
            .field("per_fpga", self.per_fpga.as_str())
            .field("per_cell", self.per_cell)
            .field("seed", Json::uint(self.seed))
            .field("steps", Json::uint(self.steps))
            .field("unreliable", self.unreliable)
            .field("ckpt_every", Json::uint(self.ckpt_every));
        if let Some(fp) = &self.fault_plan {
            o = o.field("fault_plan", fp.as_str());
        }
        if let Some(p) = &self.dump_state {
            o = o.field("dump_state", p.as_str());
        }
        o.build()
    }

    /// Serialize for the wire: [`JobSpec::to_json`], except that a value
    /// the JSON integer encoding (`i64`) cannot carry is an error rather
    /// than a silent saturation — a seed ≥ 2^63 would otherwise run as a
    /// different seed.
    pub fn to_wire(&self) -> Result<Json, String> {
        for (field, v) in [
            ("seed", self.seed),
            ("steps", self.steps),
            ("ckpt_every", self.ckpt_every),
        ] {
            if i64::try_from(v).is_err() {
                return Err(format!(
                    "job spec '{field}' = {v} is out of range (must be below 2^63)"
                ));
            }
        }
        Ok(self.to_json())
    }

    /// Parse a spec; missing optional fields take the CLI defaults. An
    /// integer field that is present must fit its type: a negative or
    /// oversized value is an error naming the field, never a wrapped cast.
    pub fn from_json(doc: &Json) -> Result<JobSpec, String> {
        let s = |key: &str| doc.get(key).and_then(Json::as_str).map(String::from);
        fn int<T: TryFrom<i64>>(doc: &Json, key: &str) -> Result<Option<T>, String> {
            let Some(v) = doc.get(key) else {
                return Ok(None);
            };
            v.as_i64()
                .and_then(|n| T::try_from(n).ok())
                .map(Some)
                .ok_or_else(|| format!("job spec '{key}' is out of range: {}", v.compact()))
        }
        let d = JobSpec::default();
        let spec = JobSpec {
            name: s("name").unwrap_or_default(),
            tenant: s("tenant").unwrap_or(d.tenant),
            priority: int(doc, "priority")?.unwrap_or(0),
            total: s("total").ok_or("job spec needs 'total'")?,
            per_fpga: s("per_fpga").ok_or("job spec needs 'per_fpga'")?,
            per_cell: int(doc, "per_cell")?.unwrap_or(d.per_cell),
            seed: int(doc, "seed")?.unwrap_or(d.seed),
            steps: int(doc, "steps")?.ok_or("job spec needs 'steps'")?,
            fault_plan: s("fault_plan"),
            unreliable: doc.get("unreliable") == Some(&Json::Bool(true)),
            ckpt_every: int(doc, "ckpt_every")?.unwrap_or(0),
            dump_state: s("dump_state"),
        };
        check_geometry(parse_dims(&spec.total)?, parse_dims(&spec.per_fpga)?)?;
        if spec.steps == 0 {
            return Err("job spec needs steps >= 1".into());
        }
        if let Some(fp) = &spec.fault_plan {
            FaultPlan::parse(fp)?;
        }
        Ok(spec)
    }

    /// Materialize the cluster configuration and particle system — the
    /// exact construction `fasda run` performs, so service jobs and
    /// direct runs are bit-comparable. Faults enable the reliability
    /// layer unless the spec opts out, matching the CLI.
    pub fn build(&self) -> Result<(ClusterConfig, ParticleSystem), String> {
        let total = parse_dims(&self.total)?;
        let per_fpga = parse_dims(&self.per_fpga)?;
        check_geometry(total, per_fpga)?;
        let space = SimulationSpace::new(total.0, total.1, total.2);
        let spec = WorkloadSpec {
            per_cell: self.per_cell,
            ..WorkloadSpec::paper(space, self.seed)
        };
        let sys = spec.generate();
        let mut cfg = ClusterConfig::paper(ChipConfig::variant(DesignVariant::A), per_fpga);
        if let Some(fp) = &self.fault_plan {
            cfg = cfg.with_faults(FaultPlan::parse(fp)?);
            if !self.unreliable {
                cfg = cfg.with_reliability(RelConfig::DEFAULT);
            }
        }
        Ok((cfg, sys))
    }
}

/// Where a job is in its lifecycle. Terminal states are `Completed`,
/// `Cancelled`, and `Failed`.
#[derive(Clone, Debug, PartialEq)]
pub enum JobState {
    /// Waiting for a worker (also the post-drain / post-crash state
    /// while the job waits to resume elsewhere).
    Queued,
    /// Executing on the given worker.
    Running(usize),
    /// Ran to its step target.
    Completed,
    /// Cancelled at a segment boundary (or straight out of the queue).
    Cancelled,
    /// Died with an error the recovery ladder could not absorb.
    Failed(String),
}

impl JobState {
    /// Status-document spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running(_) => "running",
            JobState::Completed => "completed",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }

    /// Whether the job can never run again.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Cancelled | JobState::Failed(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trips_through_json() {
        let spec = JobSpec {
            name: "smoke".into(),
            tenant: "alice".into(),
            priority: 3,
            total: "444".into(),
            per_fpga: "222".into(),
            per_cell: 7,
            seed: 99,
            steps: 6,
            fault_plan: Some("drop=0.05,seed=7".into()),
            unreliable: false,
            ckpt_every: 2,
            dump_state: Some("/tmp/x".into()),
        };
        let back = JobSpec::from_json(&spec.to_json()).expect("round trip");
        assert_eq!(back, spec);
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let doc = Json::parse(r#"{"total":"633","per_fpga":"333","steps":3}"#).unwrap();
        let spec = JobSpec::from_json(&doc).expect("minimal spec");
        assert_eq!(spec.tenant, "default");
        assert_eq!(spec.per_cell, 64);
        assert_eq!(spec.seed, 64205);
        assert_eq!(spec.ckpt_every, 0);
        assert!(spec.build().is_ok());
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            r#"{"per_fpga":"333","steps":3}"#,
            r#"{"total":"33","per_fpga":"333","steps":3}"#,
            r#"{"total":"222","per_fpga":"222","steps":3}"#, // space below 3 cells/axis
            r#"{"total":"444","per_fpga":"333","steps":3}"#, // non-dividing per-FPGA dims
            r#"{"total":"333","per_fpga":"333","steps":3}"#, // single chip
            r#"{"total":"633","per_fpga":"333","steps":0}"#,
            r#"{"total":"633","per_fpga":"333","steps":3,"fault_plan":"nonsense=1"}"#,
        ] {
            let doc = Json::parse(bad).unwrap();
            assert!(JobSpec::from_json(&doc).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn out_of_range_integers_are_rejected_by_name() {
        for (field, bad) in [
            ("steps", r#"{"total":"633","per_fpga":"333","steps":-1}"#),
            ("per_cell", r#"{"total":"633","per_fpga":"333","steps":3,"per_cell":-1}"#),
            ("per_cell", r#"{"total":"633","per_fpga":"333","steps":3,"per_cell":4294967296}"#),
            ("ckpt_every", r#"{"total":"633","per_fpga":"333","steps":3,"ckpt_every":-2}"#),
            ("seed", r#"{"total":"633","per_fpga":"333","steps":3,"seed":-1}"#),
            ("seed", r#"{"total":"633","per_fpga":"333","steps":3,"seed":1e19}"#),
            ("steps", r#"{"total":"633","per_fpga":"333","steps":2.5}"#),
            ("priority", r#"{"total":"633","per_fpga":"333","steps":3,"priority":"high"}"#),
        ] {
            let doc = Json::parse(bad).unwrap();
            let err = JobSpec::from_json(&doc).expect_err(bad);
            assert!(err.contains(&format!("'{field}'")), "{bad}: error {err:?} does not name {field}");
        }
    }

    #[test]
    fn wire_rejects_seeds_json_cannot_carry() {
        let max = JobSpec { seed: i64::MAX as u64, ..JobSpec::default() };
        let back = JobSpec::from_json(&max.to_wire().expect("i64::MAX fits")).expect("round trip");
        assert_eq!(back.seed, i64::MAX as u64);
        for seed in [1u64 << 63, u64::MAX] {
            let err = JobSpec { seed, ..JobSpec::default() }.to_wire().expect_err("seed >= 2^63");
            assert!(err.contains("'seed'"), "{err}");
        }
    }
}
