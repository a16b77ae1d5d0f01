//! User-defined sweeps from a JSON config.
//!
//! The built-in experiments pin the paper's parameters. `repro --custom
//! sweep.json` runs *your* sweep with the same machinery:
//!
//! ```json
//! {
//!   "id": "my-sweep",
//!   "title": "DYNSimple vs LRU-2 on a heavy-tailed repository",
//!   "repository": { "kind": "lognormal", "clips": 1000, "sigma": 2.0 },
//!   "policies": ["dynsimple:2", "lru-2", "greedydual"],
//!   "ratios": [0.05, 0.1, 0.2],
//!   "requests": 10000,
//!   "theta": 0.27,
//!   "seed": 7
//! }
//! ```
//!
//! Policies use the registry's command-line spellings
//! ([`PolicySpec::from_str`](clipcache_core::PolicySpec)), including the
//! `@heap` victim-index suffix (`"lfu@heap"`); off-line policies receive
//! the sweep's analytic frequencies automatically. Configs are parsed
//! with [`crate::json`].

use crate::context::ExperimentContext;
use crate::json::{self, Json};
use crate::report::{FigureResult, Series};
use clipcache_core::{PolicySpec, VictimBackend};
use clipcache_media::{paper, ByteSize, Repository};
use clipcache_sim::runner::{simulate, SimulationConfig};
use clipcache_workload::synthetic::{lognormal_repository, LognormalSpec};
use clipcache_workload::{RequestGenerator, ShiftedZipf, Trace, Zipf};
use std::sync::Arc;

/// Which repository a custom sweep runs against.
#[derive(Debug, Clone, PartialEq)]
pub enum RepoSpec {
    /// The paper's variable-sized pattern.
    Variable {
        /// Clip count (default 576).
        clips: usize,
    },
    /// Equal-size clips.
    Equi {
        /// Clip count (default 576).
        clips: usize,
        /// Clip size in megabytes (default 1000).
        size_mb: u64,
    },
    /// Heavy-tailed lognormal sizes.
    Lognormal {
        /// Clip count (default 576).
        clips: usize,
        /// Shape parameter (default 1.8).
        sigma: f64,
    },
}

fn default_clips() -> usize {
    576
}
fn default_equi_mb() -> u64 {
    1_000
}
fn default_sigma() -> f64 {
    1.8
}
fn default_requests() -> u64 {
    10_000
}
fn default_theta() -> f64 {
    0.27
}
fn default_seed() -> u64 {
    7
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .ok_or_else(|| format!("missing field `{key}`"))?
        .as_str()
        .map(str::to_owned)
        .ok_or_else(|| format!("field `{key}` must be a string"))
}

fn opt_u64(v: &Json, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(n) => n
            .as_u64()
            .ok_or_else(|| format!("field `{key}` must be a non-negative integer")),
    }
}

fn opt_usize(v: &Json, key: &str, default: usize) -> Result<usize, String> {
    opt_u64(v, key, default as u64).map(|n| n as usize)
}

fn opt_f64(v: &Json, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(n) => n
            .as_f64()
            .ok_or_else(|| format!("field `{key}` must be a number")),
    }
}

impl RepoSpec {
    /// Parse from a parsed JSON object: `{ "kind": "...", ... }` with
    /// per-kind optional fields.
    pub fn from_json_value(v: &Json) -> Result<Self, String> {
        let kind = req_str(v, "kind")?;
        let clips = opt_usize(v, "clips", default_clips())?;
        match kind.as_str() {
            "variable" => Ok(RepoSpec::Variable { clips }),
            "equi" => Ok(RepoSpec::Equi {
                clips,
                size_mb: opt_u64(v, "size_mb", default_equi_mb())?,
            }),
            "lognormal" => Ok(RepoSpec::Lognormal {
                clips,
                sigma: opt_f64(v, "sigma", default_sigma())?,
            }),
            other => Err(format!(
                "unknown repository kind `{other}` (expected variable, equi, or lognormal)"
            )),
        }
    }
}

/// A user-defined ratio sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CustomSweep {
    /// Identifier (used for output file names).
    pub id: String,
    /// Human title.
    pub title: String,
    /// The repository to simulate.
    pub repository: RepoSpec,
    /// Registry spellings of the policies to compare.
    pub policies: Vec<String>,
    /// The `S_T / S_DB` values swept.
    pub ratios: Vec<f64>,
    /// Requests per data point (default 10000).
    pub requests: u64,
    /// Zipf parameter (default 0.27).
    pub theta: f64,
    /// Workload seed (default 7).
    pub seed: u64,
}

impl CustomSweep {
    /// Parse a sweep from JSON.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        if !matches!(v, Json::Obj(_)) {
            return Err("a sweep config must be a JSON object".into());
        }
        let repository =
            RepoSpec::from_json_value(v.get("repository").ok_or("missing field `repository`")?)?;
        let policies = v
            .get("policies")
            .ok_or("missing field `policies`")?
            .as_array()
            .ok_or("field `policies` must be an array")?
            .iter()
            .map(|p| {
                p.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| "field `policies` must contain strings".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let ratios = v
            .get("ratios")
            .ok_or("missing field `ratios`")?
            .as_array()
            .ok_or("field `ratios` must be an array")?
            .iter()
            .map(|r| {
                r.as_f64()
                    .ok_or_else(|| "field `ratios` must contain numbers".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        let sweep = CustomSweep {
            id: req_str(&v, "id")?,
            title: req_str(&v, "title")?,
            repository,
            policies,
            ratios,
            requests: opt_u64(&v, "requests", default_requests())?,
            theta: opt_f64(&v, "theta", default_theta())?,
            seed: opt_u64(&v, "seed", default_seed())?,
        };
        sweep.validate()?;
        Ok(sweep)
    }

    fn validate(&self) -> Result<(), String> {
        if self.policies.is_empty() {
            return Err("a sweep needs at least one policy".into());
        }
        if self.ratios.is_empty() {
            return Err("a sweep needs at least one ratio".into());
        }
        for r in &self.ratios {
            if !(0.0..=1.0).contains(r) {
                return Err(format!("ratio {r} outside [0, 1]"));
            }
        }
        if !(0.0..1.0).contains(&self.theta) {
            return Err(format!("theta {} outside [0, 1)", self.theta));
        }
        if self.requests == 0 {
            return Err("requests must be positive".into());
        }
        for p in &self.policies {
            p.parse::<PolicySpec>()?;
        }
        Ok(())
    }

    fn build_repo(&self) -> Arc<Repository> {
        Arc::new(match self.repository {
            RepoSpec::Variable { clips } => paper::variable_sized_repository_of(clips),
            RepoSpec::Equi { clips, size_mb } => {
                paper::equi_sized_repository_of(clips, ByteSize::mb(size_mb))
            }
            RepoSpec::Lognormal { clips, sigma } => lognormal_repository(
                LognormalSpec {
                    clips,
                    sigma,
                    ..LognormalSpec::default()
                },
                self.seed,
            ),
        })
    }

    /// Run the sweep serially. Equivalent to [`run_with`](Self::run_with)
    /// on a default (single-job) context.
    pub fn run(&self) -> Result<Vec<FigureResult>, String> {
        self.run_with(&ExperimentContext::default())
    }

    /// Run the sweep on `ctx`'s worker pool: one hit-rate figure and one
    /// byte-hit-rate figure.
    ///
    /// Only `ctx.jobs` and its [`SweepStats`](crate::SweepStats) are
    /// consulted — the workload is driven entirely by the sweep's own
    /// `requests`/`theta`/`seed` fields, so the output is bit-identical
    /// at any job count (and to the serial [`run`](Self::run)).
    pub fn run_with(&self, ctx: &ExperimentContext) -> Result<Vec<FigureResult>, String> {
        self.validate()?;
        let repo = self.build_repo();
        let trace = Trace::from_generator(RequestGenerator::new(
            repo.len(),
            self.theta,
            0,
            self.requests,
            self.seed,
        ));
        let freqs = ShiftedZipf::new(Zipf::new(repo.len(), self.theta), 0).frequencies();
        let config = SimulationConfig::default();
        let policies: Vec<PolicySpec> = self
            .policies
            .iter()
            .map(|s| s.parse())
            .collect::<Result<_, String>>()?;

        // The (policy, ratio) grid as independent points, row-major by
        // policy so rows reassemble by chunking.
        let grid: Vec<(usize, f64)> = (0..policies.len())
            .flat_map(|pi| self.ratios.iter().map(move |&r| (pi, r)))
            .collect();
        let cells = ctx.run_points(&grid, |_, &(pi, ratio)| {
            policies[pi]
                .try_build(
                    Arc::clone(&repo),
                    repo.cache_capacity_for_ratio(ratio),
                    self.seed,
                    Some(&freqs),
                )
                .map_err(|e| e.to_string())
                .map(|mut cache| {
                    let report = simulate(cache.as_mut(), &repo, trace.requests(), &config);
                    (report.hit_rate(), report.byte_hit_rate())
                })
        });
        let cells: Vec<(f64, f64)> = cells.into_iter().collect::<Result<_, _>>()?;

        let mut hit_series = Vec::with_capacity(policies.len());
        let mut byte_series = Vec::with_capacity(policies.len());
        for (pi, policy) in policies.iter().enumerate() {
            let row = &cells[pi * self.ratios.len()..(pi + 1) * self.ratios.len()];
            // Heap entries keep their `@heap` suffix so a sweep listing
            // both backends of one policy stays distinguishable.
            let name = match policy.backend {
                VictimBackend::Scan => policy.to_string(),
                VictimBackend::Heap => policy.spelling(),
            };
            hit_series.push(Series::new(name.clone(), row.iter().map(|c| c.0).collect()));
            byte_series.push(Series::new(name, row.iter().map(|c| c.1).collect()));
        }
        let x: Vec<String> = self.ratios.iter().map(|r| r.to_string()).collect();
        Ok(vec![
            FigureResult::new(
                format!("{}_hit", self.id),
                format!("{} — cache hit rate", self.title),
                "S_T/S_DB",
                x.clone(),
                hit_series,
            ),
            FigureResult::new(
                format!("{}_byte", self.id),
                format!("{} — byte hit rate", self.title),
                "S_T/S_DB",
                x,
                byte_series,
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_json() -> &'static str {
        r#"{
            "id": "demo",
            "title": "demo sweep",
            "repository": { "kind": "lognormal", "clips": 48, "sigma": 1.5 },
            "policies": ["dynsimple:2", "lru-2"],
            "ratios": [0.1, 0.3],
            "requests": 800,
            "seed": 3
        }"#
    }

    #[test]
    fn parses_and_runs() {
        let sweep = CustomSweep::from_json(sample_json()).unwrap();
        assert_eq!(sweep.theta, 0.27); // default applied
        let figs = sweep.run().unwrap();
        assert_eq!(figs.len(), 2);
        assert_eq!(figs[0].id, "demo_hit");
        assert_eq!(figs[0].series.len(), 2);
        assert_eq!(figs[0].series[0].values.len(), 2);
        for s in &figs[0].series {
            for v in &s.values {
                assert!((0.0..=1.0).contains(v));
            }
        }
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(CustomSweep::from_json("{}").is_err());
        assert!(CustomSweep::from_json("not json at all").is_err());
        let bad_policy = sample_json().replace("lru-2", "frobnicate");
        assert!(CustomSweep::from_json(&bad_policy)
            .unwrap_err()
            .contains("frobnicate"));
        let bad_ratio = sample_json().replace("0.3", "1.5");
        assert!(CustomSweep::from_json(&bad_ratio)
            .unwrap_err()
            .contains("outside"));
        let bad_kind = sample_json().replace("lognormal", "frobnical");
        assert!(CustomSweep::from_json(&bad_kind)
            .unwrap_err()
            .contains("frobnical"));
    }

    #[test]
    fn repo_specs_build_with_defaults() {
        for repo_json in [
            r#"{ "kind": "variable" }"#,
            r#"{ "kind": "equi", "clips": 10, "size_mb": 100 }"#,
            r#"{ "kind": "lognormal" }"#,
        ] {
            let v = json::parse(repo_json).unwrap();
            let spec = RepoSpec::from_json_value(&v).unwrap();
            let sweep = CustomSweep {
                id: "x".into(),
                title: "x".into(),
                repository: spec,
                policies: vec!["lru".into()],
                ratios: vec![0.1],
                requests: 100,
                theta: 0.27,
                seed: 1,
            };
            assert!(!sweep.build_repo().is_empty());
        }
        let defaulted =
            RepoSpec::from_json_value(&json::parse(r#"{ "kind": "variable" }"#).unwrap()).unwrap();
        assert_eq!(defaulted, RepoSpec::Variable { clips: 576 });
    }

    #[test]
    fn offline_policies_get_frequencies() {
        let json = sample_json().replace("\"lru-2\"", "\"simple\"");
        let sweep = CustomSweep::from_json(&json).unwrap();
        let figs = sweep.run().unwrap();
        assert!(figs[0].series.iter().any(|s| s.name == "Simple"));
    }

    #[test]
    fn parallel_run_matches_serial() {
        let sweep = CustomSweep::from_json(sample_json()).unwrap();
        let serial = sweep.run().unwrap();
        let ctx = ExperimentContext::default().with_jobs(4);
        let parallel = sweep.run_with(&ctx).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(ctx.stats.points(), 4); // 2 policies x 2 ratios
    }
}
