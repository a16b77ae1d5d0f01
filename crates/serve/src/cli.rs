//! Command-line plumbing shared by the serving binaries.
//!
//! `serve` and `loadgen` describe the same service, so they accept the
//! same twelve flags: `--policy --shards --clips --ratio --chunk-size
//! --seed --data-dir --wal-sync --commit-window-us --segment-bytes
//! --peers --replication`. Each is defined once, in [`ServiceFlags`]:
//! its default, its parser and its error strings. A binary matches its
//! own flags first and hands every other one to
//! [`ServiceFlags::parse`], which answers `Ok(false)` for a flag it
//! does not know, so the binary can still refuse unknown arguments by
//! name. The same struct then builds the repository, the
//! [`ServiceConfig`] and the durable or memory-only service.
//!
//! The two gated benches, `netbench` and `walbench`, share
//! [`publish_and_gate`]: write the report, then compare it against a
//! committed baseline.
//!
//! Unlike the experiment harness's argv helpers, nothing here accepts
//! an unknown flag: every serving binary refuses one.

use crate::{
    CacheService, CrashAction, CrashSpec, PersistOptions, ServiceConfig, WalSync, WalTuning,
};
use clipcache_core::{PolicyKind, PolicySpec};
use clipcache_media::{paper, ByteSize, Repository};
use clipcache_workload::json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Parse a `u64` as decimal or `0x`/`0X`-prefixed hex (seeds are
/// usually written in hex, e.g. `0x5EED2007`).
pub fn parse_u64(v: &str) -> Result<u64, String> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).map_err(|e| e.to_string()),
        None => v
            .parse()
            .map_err(|e: std::num::ParseIntError| e.to_string()),
    }
}

/// The flags `serve` and `loadgen` both accept, with their defaults.
#[derive(Debug, Clone)]
pub struct ServiceFlags {
    /// `--policy`: the replacement policy every shard runs (LRU).
    pub policy: PolicySpec,
    /// `--shards`: shard count, at least 1 (4).
    pub shards: usize,
    /// `--clips`: size of the paper's variable-sized catalog (100).
    pub clips: usize,
    /// `--ratio`: cache budget as a fraction of the repository (0.25).
    pub ratio: f64,
    /// `--chunk-size`: chunk size in MB; 0 keeps clips whole (0).
    pub chunk_mb: u64,
    /// `--seed`: service seed, decimal or `0x` hex (`0x5EED2007`).
    pub seed: u64,
    /// `--data-dir`: makes the service durable beneath this directory.
    pub data_dir: Option<PathBuf>,
    /// `--wal-sync`: the WAL's fsync policy (off).
    pub wal_sync: WalSync,
    /// `--commit-window-us` and `--segment-bytes`.
    pub tuning: WalTuning,
    /// `--peers`: a comma-separated cluster membership (none).
    pub peers: Vec<String>,
    /// `--replication`: replicas per clip, at least 1 (1).
    pub replication: usize,
}

impl Default for ServiceFlags {
    fn default() -> Self {
        ServiceFlags {
            policy: PolicyKind::Lru.into(),
            shards: 4,
            clips: 100,
            ratio: 0.25,
            chunk_mb: 0,
            seed: 0x5EED_2007,
            data_dir: None,
            wal_sync: WalSync::default(),
            tuning: WalTuning::default(),
            peers: Vec::new(),
            replication: 1,
        }
    }
}

impl ServiceFlags {
    /// Parse `flag` if it is a shared flag, taking its value from
    /// `argv`. `Ok(false)` means `flag` is not one of them and `argv`
    /// is untouched.
    pub fn parse(
        &mut self,
        flag: &str,
        argv: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = |missing: &str| argv.next().ok_or_else(|| missing.to_string());
        match flag {
            "--policy" => self.policy = value("--policy needs a spec")?.parse()?,
            "--shards" => {
                self.shards = value("--shards needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --shards: {e}"))?;
                if self.shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--clips" => {
                self.clips = value("--clips needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --clips: {e}"))?;
            }
            "--ratio" => {
                self.ratio = value("--ratio needs a fraction")?
                    .parse()
                    .map_err(|e| format!("bad --ratio: {e}"))?;
            }
            "--chunk-size" => {
                self.chunk_mb = value("--chunk-size needs megabytes (0 = whole-clip)")?
                    .parse()
                    .map_err(|e| format!("bad --chunk-size: {e}"))?;
            }
            "--seed" => {
                self.seed = parse_u64(&value("--seed needs a value")?)
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--data-dir" => self.data_dir = Some(value("--data-dir needs a path")?.into()),
            "--wal-sync" => {
                self.wal_sync = WalSync::parse(&value("--wal-sync needs always or off")?)?
            }
            "--commit-window-us" => {
                let us: u64 = value("--commit-window-us needs microseconds (0 = fsync at once)")?
                    .parse()
                    .map_err(|e| format!("bad --commit-window-us: {e}"))?;
                self.tuning.commit_window = Duration::from_micros(us);
            }
            "--segment-bytes" => {
                let n: u64 = value("--segment-bytes needs a byte count")?
                    .parse()
                    .map_err(|e| format!("bad --segment-bytes: {e}"))?;
                if n == 0 {
                    return Err("--segment-bytes must be at least 1".into());
                }
                self.tuning.segment_bytes = n;
            }
            "--peers" => {
                self.peers = value("--peers needs a comma-separated address list")?
                    .split(',')
                    .map(|a| a.trim().to_string())
                    .filter(|a| !a.is_empty())
                    .collect();
                if self.peers.is_empty() {
                    return Err("--peers needs at least one address".into());
                }
            }
            "--replication" => {
                self.replication = value("--replication needs a count")?
                    .parse()
                    .map_err(|e| format!("bad --replication: {e}"))?;
                if self.replication == 0 {
                    return Err("--replication must be at least 1".into());
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Refuse WAL tuning without a durable store to tune.
    pub fn check_wal_tuning(&self) -> Result<(), String> {
        if self.tuning != WalTuning::default() && self.data_dir.is_none() {
            return Err(
                "--commit-window-us / --segment-bytes need --data-dir (they tune the WAL)".into(),
            );
        }
        Ok(())
    }

    /// The paper's variable-sized catalog of `--clips` clips, chunked
    /// at `--chunk-size` megabytes when that is nonzero.
    pub fn repository(&self) -> Arc<Repository> {
        let repo = paper::variable_sized_repository_of(self.clips);
        Arc::new(match self.chunk_mb {
            0 => repo,
            mb => repo.with_chunk_size(ByteSize::mb(mb)),
        })
    }

    /// The service config: `--ratio` of `repo` as the budget, split
    /// over `--shards` shards running `--policy` seeded by `--seed`.
    pub fn config(&self, repo: &Repository) -> ServiceConfig {
        let capacity = repo.cache_capacity_for_ratio(self.ratio);
        ServiceConfig::new(self.policy, self.shards, capacity, self.seed)
    }

    /// Build the service: durable beneath `--data-dir` (printing the
    /// `recovered …` banner, and exiting the process with code 137 if
    /// the armed `crash` point fires), or memory-only without one. The
    /// flag says whether recovery found prior state, whose counters then
    /// include an earlier run's requests. The error is the message to
    /// print.
    pub fn open(
        &self,
        repo: &Arc<Repository>,
        config: ServiceConfig,
        crash: Option<CrashSpec>,
    ) -> Result<(Arc<CacheService>, bool), String> {
        let Some(dir) = &self.data_dir else {
            let service = CacheService::new(Arc::clone(repo), config, None)
                .map_err(|e| format!("cannot build service: {e}"))?;
            return Ok((Arc::new(service), false));
        };
        let opts = PersistOptions {
            dir: dir.clone(),
            sync: self.wal_sync,
            crash,
            on_crash: CrashAction::ExitProcess,
            tuning: self.tuning,
        };
        let (service, report) =
            CacheService::open_persistent(Arc::clone(repo), config, None, &opts)
                .map_err(|e| format!("cannot open data dir {}: {e}", dir.display()))?;
        println!(
            "recovered {} (checkpoints={} wal_replayed={} torn_bytes_dropped={})",
            dir.display(),
            report.checkpoints_loaded,
            report.replayed,
            report.torn_bytes_dropped
        );
        let warm = report.checkpoints_loaded > 0 || report.replayed > 0;
        Ok((Arc::new(service), warm))
    }
}

/// The shared tail of a gated bench: write `rendered` to `out`
/// (creating its directory) or to stdout, then, given a `baseline`
/// path, parse it and run the bench's own `check` against it. Returns
/// the exit code, printing `perf gate passed` or `perf gate FAILED: …`.
pub fn publish_and_gate(
    rendered: &str,
    out: Option<&str>,
    baseline: Option<&str>,
    check: impl FnOnce(&json::Json) -> Result<(), String>,
) -> ExitCode {
    match out {
        Some(path) => {
            if let Some(parent) = Path::new(path).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            if let Err(e) = std::fs::write(path, rendered) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{rendered}"),
    }
    let Some(baseline_path) = baseline else {
        return ExitCode::SUCCESS;
    };
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let baseline = match json::parse(&text) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("cannot parse baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(msg) = check(&baseline) {
        eprintln!("perf gate FAILED: {msg}");
        return ExitCode::FAILURE;
    }
    println!("perf gate passed");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(values: &[&str]) -> std::vec::IntoIter<String> {
        values
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parse_takes_one_value_for_a_shared_flag_and_leaves_others_alone() {
        let mut flags = ServiceFlags::default();
        let mut rest = argv(&["7", "--shards", "2"]);
        assert_eq!(flags.parse("--clients", &mut rest), Ok(false));
        assert_eq!(rest.collect::<Vec<_>>(), ["7", "--shards", "2"]);
        assert_eq!(flags.shards, 4, "nothing was parsed");
        let mut rest = argv(&["2", "--clients", "7"]);
        assert_eq!(flags.parse("--shards", &mut rest), Ok(true));
        assert_eq!(flags.shards, 2);
        assert_eq!(rest.collect::<Vec<_>>(), ["--clients", "7"]);
    }

    #[test]
    fn parse_u64_reads_hex_and_decimal() {
        assert_eq!(parse_u64("0x5EED2007"), Ok(0x5EED_2007));
        assert_eq!(parse_u64("0X5eed2007"), Ok(0x5EED_2007));
        assert_eq!(parse_u64("1592598535"), Ok(0x5EED_2007));
        assert_eq!(parse_u64("0"), Ok(0));
        assert!(parse_u64("0x").is_err());
        assert!(parse_u64("zz").is_err());
        assert!(parse_u64("-1").is_err());
    }
}
