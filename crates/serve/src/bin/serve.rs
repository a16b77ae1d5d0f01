//! `serve` — run the sharded cache service behind a TCP front-end.
//!
//! ```text
//! serve [--addr host:port] [--policy spec] [--shards n] [--clips n]
//!       [--ratio f] [--seed n|0xHEX] [--max-conns n]
//!       [--read-timeout ms] [--chaos]
//!       [--data-dir path] [--wal-sync always|off]
//!       [--checkpoint-every n] [--crash-at kind:N]
//!       [--cluster i --peers a,b,c [--replication r]
//!        [--peer-connect-timeout ms] [--peer-read-timeout ms]]
//! ```
//!
//! The flags `serve` shares with `loadgen` (`--policy`, `--shards`,
//! `--clips`, `--ratio`, `--chunk-size`, `--seed`, `--data-dir`,
//! `--wal-sync`, `--commit-window-us`, `--segment-bytes`, `--peers`,
//! `--replication`) are parsed, defaulted and turned into a service in
//! [`clipcache_serve::cli`]; this file holds the server's own flags.
//!
//! Binds, prints `listening on <addr>`, then serves the line protocol
//! (`GET <clip>`, `STATS`, `SNAPSHOT`, `QUIT`) until stdin reaches EOF
//! or a `quit` line arrives on stdin — the graceful-shutdown path the
//! end-to-end tests drive through a pipe. The repository is the
//! paper's variable-sized catalog of `--clips` clips; `--ratio` sets the
//! total cache budget as a fraction of the repository, split evenly
//! across `--shards` shards.
//!
//! Resilience knobs: `--max-conns` refuses connections beyond the limit
//! with `ERR server busy`; `--read-timeout` reclaims connections idle
//! for that many milliseconds with `ERR idle timeout`; `--chaos` honors
//! the `POISON` fault-injection command (refused otherwise).
//!
//! Durability knobs: `--data-dir` persists every shard (checkpoint +
//! WAL) beneath the given directory and recovers whatever a previous
//! process made durable before listening; `--wal-sync` picks the fsync
//! policy (`off` flushes to the OS per append — survives `kill -9`;
//! `always` adds an fsync — survives power loss); `--checkpoint-every`
//! sets the accesses between checkpoint refreshes; `--crash-at`
//! (requires `--data-dir`) arms a deterministic crash point
//! (`append:N`, `torn:N`, `checkpoint:N`) that kills the process with
//! exit code 137 — the chaos harness's crash-restart loop.
//!
//! Cluster knobs: `--cluster i` makes this process member `i` of a
//! static membership given by `--peers` (a comma-separated address
//! list, self included, identical on every member); `--replication r`
//! sets the replica count per clip (default 1). Members peer-fetch
//! missed clips from the clip's other ring owners (`PEERGET`) before
//! reporting a miss, after a `VERSION` handshake that refuses skewed
//! peers by name. `--peer-connect-timeout` and `--peer-read-timeout`
//! bound the two halves of each peer probe in milliseconds — a slow or
//! mutually-busy peer degrades to a timed-out probe (served as a miss),
//! never a deadlock. If `--addr` is not given, a cluster member binds
//! its own `--peers` entry.

use clipcache_serve::cli::ServiceFlags;
use clipcache_serve::{serve_with, ClusterSpec, CrashSpec, ServerConfig};
use std::io::BufRead;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    addr: Option<String>,
    service: ServiceFlags,
    server: ServerConfig,
    checkpoint_every: Option<u64>,
    crash_at: Option<CrashSpec>,
    cluster: Option<usize>,
    peer_connect_timeout: Option<Duration>,
    peer_read_timeout: Option<Duration>,
}

/// Parse a peer-timeout flag value as whole milliseconds (at least 1).
fn parse_timeout_ms(flag: &str, v: &str) -> Result<Duration, String> {
    let ms: u64 = v.parse().map_err(|e| format!("bad {flag}: {e}"))?;
    if ms == 0 {
        return Err(format!("{flag} must be at least 1 ms"));
    }
    Ok(Duration::from_millis(ms))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        service: ServiceFlags::default(),
        server: ServerConfig::default(),
        checkpoint_every: None,
        crash_at: None,
        cluster: None,
        peer_connect_timeout: None,
        peer_read_timeout: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--addr" => args.addr = Some(argv.next().ok_or("--addr needs host:port")?),
            "--max-conns" => {
                let v = argv.next().ok_or("--max-conns needs a count")?;
                let n: usize = v.parse().map_err(|e| format!("bad --max-conns: {e}"))?;
                if n == 0 {
                    return Err("--max-conns must be at least 1".into());
                }
                args.server.max_conns = Some(n);
            }
            "--read-timeout" => {
                let v = argv.next().ok_or("--read-timeout needs milliseconds")?;
                let ms: u64 = v.parse().map_err(|e| format!("bad --read-timeout: {e}"))?;
                if ms == 0 {
                    return Err("--read-timeout must be at least 1 ms".into());
                }
                args.server.read_timeout = Some(Duration::from_millis(ms));
            }
            "--chaos" => args.server.chaos = true,
            "--checkpoint-every" => {
                let v = argv.next().ok_or("--checkpoint-every needs a count")?;
                let n: u64 = v
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-every: {e}"))?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                args.checkpoint_every = Some(n);
            }
            "--crash-at" => {
                let v = argv.next().ok_or("--crash-at needs kind:N")?;
                args.crash_at = Some(CrashSpec::parse(&v)?);
            }
            "--cluster" => {
                let v = argv.next().ok_or("--cluster needs this node's index")?;
                args.cluster = Some(v.parse().map_err(|e| format!("bad --cluster: {e}"))?);
            }
            "--peer-connect-timeout" => {
                let v = argv
                    .next()
                    .ok_or("--peer-connect-timeout needs milliseconds")?;
                args.peer_connect_timeout = Some(parse_timeout_ms("--peer-connect-timeout", &v)?);
            }
            "--peer-read-timeout" => {
                let v = argv
                    .next()
                    .ok_or("--peer-read-timeout needs milliseconds")?;
                args.peer_read_timeout = Some(parse_timeout_ms("--peer-read-timeout", &v)?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: serve [--addr host:port] [--policy spec] [--shards n] \
                     [--clips n] [--ratio f] [--chunk-size mb] [--seed n|0xHEX] \
                     [--max-conns n] \
                     [--read-timeout ms] [--chaos] [--data-dir path] \
                     [--wal-sync always|off] [--commit-window-us n] \
                     [--segment-bytes n] [--checkpoint-every n] [--crash-at kind:N]\n\
                     \x20      [--cluster i --peers a,b,c [--replication r] \
                     [--peer-connect-timeout ms] [--peer-read-timeout ms]]\n\
                     serves until stdin closes or reads a `quit` line;\n\
                     --chunk-size n addresses clips as n-MB chunks (prefix \
                     residency + GETRANGE probes; 0 = whole-clip, the default);\n\
                     --max-conns refuses excess connections with ERR server busy,\n\
                     --read-timeout reclaims idle connections, --chaos honors POISON;\n\
                     --data-dir makes every shard durable (checkpoint + segmented\n\
                     WAL) and recovers previous state on start; --commit-window-us\n\
                     lets the WAL fsync under --wal-sync always wait for more\n\
                     writers (0 = fsync at once), --segment-bytes sets the WAL\n\
                     segment-roll threshold; --crash-at arms a deterministic crash\n\
                     point (append:N, torn:N, checkpoint:N, seal:N,\n\
                     segment-roll:N);\n\
                     --cluster i joins the static membership in --peers (same list\n\
                     and --seed on every member) as member i, peer-filling misses\n\
                     from the clip's other ring owners at --replication r;\n\
                     --peer-connect-timeout / --peer-read-timeout bound the\n\
                     connect and read halves of each peer probe"
                        .into(),
                )
            }
            other => {
                if !args.service.parse(other, &mut argv)? {
                    return Err(format!("unknown argument {other}"));
                }
            }
        }
    }
    let service = &args.service;
    if args.crash_at.is_some() && service.data_dir.is_none() {
        return Err("--crash-at needs --data-dir (crash points live in the durable store)".into());
    }
    service.check_wal_tuning()?;
    match args.cluster {
        Some(me) => {
            let mut spec =
                ClusterSpec::new(service.peers.clone(), me, service.replication, service.seed)?;
            if let Some(timeout) = args.peer_connect_timeout {
                spec.connect_timeout = timeout;
            }
            if let Some(timeout) = args.peer_read_timeout {
                spec.read_timeout = timeout;
            }
            args.server.cluster = Some(spec);
        }
        None => {
            if !service.peers.is_empty() {
                return Err("--peers needs --cluster (this node's member index)".into());
            }
            if service.replication != 1 {
                return Err("--replication needs --cluster".into());
            }
            if args.peer_connect_timeout.is_some() {
                return Err("--peer-connect-timeout needs --cluster".into());
            }
            if args.peer_read_timeout.is_some() {
                return Err("--peer-read-timeout needs --cluster".into());
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let repo = args.service.repository();
    let mut config = args.service.config(&repo);
    if let Some(every) = args.checkpoint_every {
        config = config.with_checkpoint_every(every);
    }
    let service = match args.service.open(&repo, config, args.crash_at) {
        Ok((service, _)) => service,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // A cluster member defaults to binding its own membership entry;
    // a standalone server keeps the ephemeral-port default.
    let addr = args
        .addr
        .clone()
        .unwrap_or_else(|| match &args.server.cluster {
            Some(spec) => spec.peers[spec.me].clone(),
            None => "127.0.0.1:0".into(),
        });
    let cluster = args.server.cluster.clone();
    let handle = match serve_with(service, &addr, args.server) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(spec) = &cluster {
        println!(
            "cluster member {}/{} (replication {})",
            spec.me,
            spec.peers.len(),
            spec.replication
        );
    }
    println!(
        "listening on {} ({} shards, {} policy, {} clips, {} bytes)",
        handle.addr(),
        config.shards,
        config.policy.spelling(),
        args.service.clips,
        config.capacity.as_u64()
    );

    // Serve until stdin closes or says quit, then drain gracefully.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }
    handle.shutdown();
    println!("shut down cleanly");
    ExitCode::SUCCESS
}
