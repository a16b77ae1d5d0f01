//! End-to-end crash-kill recovery against the real `serve` binary: a
//! durable server is started, loaded over TCP, killed with SIGKILL (no
//! graceful shutdown, no flush hooks — the process just stops), then
//! restarted on the same data directory. The restarted server must
//! report every acknowledged request in `STATS` (the WAL is written
//! before the reply, so an answered request is a durable request), and
//! an idle restart must leave the directory bytes untouched.

use clipcache_media::ClipId;
use clipcache_serve::persist::CHECKPOINT_SLOT_FILES;
use clipcache_serve::{TcpCacheClient, Wire};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

struct Server {
    child: Child,
    stdin: ChildStdin,
    // Held open so the server never hits a broken pipe on its own
    // stdout (it prints a final report at shutdown).
    stdout: BufReader<ChildStdout>,
    addr: String,
    recovery_line: Option<String>,
}

fn spawn_server(data_dir: &Path, shards: usize) -> Server {
    spawn_server_with(
        data_dir,
        &["--shards", &shards.to_string(), "--clips", "24"],
    )
}

/// Start a durable server on `data_dir` with extra `args`.
fn spawn_server_with(data_dir: &Path, args: &[&str]) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0"])
        .args(args)
        .arg("--data-dir")
        .arg(data_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("serve binary spawns");
    let stdin = child.stdin.take().expect("piped stdin");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut recovery_line = None;
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("server stdout readable") == 0 {
            panic!("server exited before printing its address");
        }
        if line.starts_with("recovered ") {
            recovery_line = Some(line.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("address after 'listening on'")
                .to_string();
        }
    };
    Server {
        child,
        stdin,
        stdout: reader,
        addr,
        recovery_line,
    }
}

impl Server {
    fn quit(mut self) {
        self.stdin.write_all(b"quit\n").expect("stdin writable");
        self.stdin.flush().expect("stdin flushes");
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("shutdown output drains");
        let status = self.child.wait().expect("server exits");
        assert!(status.success(), "graceful shutdown exits cleanly");
    }

    /// SIGKILL — the same observable as a power-cut for the process.
    fn kill(mut self) {
        self.child.kill().expect("kill delivered");
        self.child.wait().expect("killed server reaped");
    }
}

/// Every WAL and checkpoint byte beneath a data dir, keyed by shard
/// file, for byte-identity assertions.
fn dir_contents(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("data dir readable") {
            let entry = entry.unwrap();
            let path = entry.path();
            if entry.file_type().unwrap().is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).unwrap();
                files.push((path, bytes));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn killed_server_recovers_every_acknowledged_request() {
    let dir = std::env::temp_dir().join(format!("clipcache-restart-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Round 1: load a fresh durable server, then SIGKILL it.
    let server = spawn_server(&dir, 2);
    assert!(
        server
            .recovery_line
            .as_deref()
            .is_some_and(|l| l.contains("wal_replayed=0")),
        "a cold start recovers nothing: {:?}",
        server.recovery_line
    );
    let mut client = TcpCacheClient::connect(&server.addr).expect("client connects");
    for i in 0..100u32 {
        client.get(ClipId::new(i % 24 + 1)).expect("request served");
    }
    let before = client.stats().expect("stats served");
    assert_eq!(before.stats.requests(), 100);
    assert_eq!(before.wal_replayed, 0);
    drop(client); // no QUIT — the kill races nothing
    server.kill();

    // Round 2: restart on the same directory. Every answered request
    // was WAL'd before its reply, so all 100 must come back.
    let server = spawn_server(&dir, 2);
    assert!(
        server
            .recovery_line
            .as_deref()
            .is_some_and(|l| !l.contains("wal_replayed=0")),
        "a warm start replays the WAL: {:?}",
        server.recovery_line
    );
    let mut client = TcpCacheClient::connect(&server.addr).expect("client reconnects");
    let recovered = client.stats().expect("stats served after recovery");
    assert_eq!(
        recovered.stats, before.stats,
        "recovered counters match the last acknowledged state"
    );
    assert_eq!(recovered.recoveries, 0, "no poison recoveries happened");
    assert_eq!(recovered.wal_replayed, 100);
    // The recovered server keeps serving — and keeps persisting.
    for i in 0..50u32 {
        client.get(ClipId::new(i % 24 + 1)).expect("request served");
    }
    assert_eq!(client.stats().unwrap().stats.requests(), 150);
    client.quit().expect("clean disconnect");
    server.quit();

    // Round 3: graceful restart sees all 150; an idle restart is a
    // no-op on disk — back-to-back recoveries are byte-identical.
    let server = spawn_server(&dir, 2);
    let mut client = TcpCacheClient::connect(&server.addr).expect("client reconnects");
    assert_eq!(client.stats().unwrap().stats.requests(), 150);
    client.quit().expect("clean disconnect");
    server.quit();
    let settled = dir_contents(&dir);
    // The settled listing is the segmented layout: every shard holds
    // numbered `wal.NNNNNN.log` segments plus its checkpoint — never
    // the retired single-file `wal.log`.
    for shard in ["shard-0", "shard-1"] {
        let shard_dir = dir.join(shard);
        let names: Vec<&str> = settled
            .iter()
            .filter(|(p, _)| p.parent() == Some(shard_dir.as_path()))
            .map(|(p, _)| p.file_name().unwrap().to_str().unwrap())
            .collect();
        assert!(
            names
                .iter()
                .any(|n| n.starts_with("wal.") && n.ends_with(".log") && *n != "wal.log"),
            "{shard} has a numbered WAL segment: {names:?}"
        );
        assert!(
            CHECKPOINT_SLOT_FILES
                .iter()
                .any(|slot| names.contains(slot)),
            "{shard}: {names:?}"
        );
        assert!(!names.contains(&"wal.log"), "{shard} kept a legacy wal.log");
    }
    let server = spawn_server(&dir, 2);
    server.quit();
    assert_eq!(
        dir_contents(&dir),
        settled,
        "an idle restart must not rewrite durable state"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The WAL sync modes the pipelined crash test runs under: staged
/// writes alone, and staged writes plus a group-committed fsync with
/// the leader syncing at once or waiting up to 100 µs.
const SYNC_MODES: [&[&str]; 3] = [
    &["--wal-sync", "off"],
    &["--wal-sync", "always", "--commit-window-us", "0"],
    &["--wal-sync", "always", "--commit-window-us", "100"],
];

#[test]
fn sigkill_between_pipelined_windows_loses_no_acknowledged_request() {
    for (mode, sync) in SYNC_MODES.iter().enumerate() {
        sigkill_between_pipelined_windows(mode, sync);
    }
}

/// Three SIGKILL rounds of pipelined windows under the WAL flags `sync`.
fn sigkill_between_pipelined_windows(mode: usize, sync: &[&str]) {
    let dir = std::env::temp_dir().join(format!(
        "clipcache-restart-pipe-{}-{mode}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    // 4 shards of 4 MB-chunked clips; no periodic checkpoint, so each
    // round's requests all live in the WAL the next start replays.
    let mut args = vec![
        "--shards",
        "4",
        "--clips",
        "96",
        "--chunk-size",
        "4",
        "--checkpoint-every",
        "1000000",
    ];
    args.extend_from_slice(sync);
    const WINDOW: usize = 32;
    let mut acked = 0u64; // over every round
    let mut last_round = 0u64; // acknowledged since the last start
    let mut before = None;
    // A fixed LCG: the same clip stream on every run.
    let mut x = 0x9E37_79B9u64;
    for round in 0..3 {
        let server = spawn_server_with(&dir, &args);
        let mut client = TcpCacheClient::connect_wire(&server.addr, None, Wire::Binary)
            .expect("client connects");
        let recovered = client.stats().expect("stats served");
        assert_eq!(
            recovered.wal_replayed, last_round,
            "{sync:?} round {round}: the restart replays exactly what the last round \
             acknowledged"
        );
        assert_eq!(recovered.stats.requests(), acked, "{sync:?} round {round}");
        if round == 1 {
            // The first restart is a pure WAL replay from empty, so it
            // rebuilds the exact state, not just the request count.
            // (Later ones restore a checkpoint, whose policy metadata is
            // approximate, and replay on top of it.)
            assert_eq!(
                Some(recovered.stats),
                before,
                "recovered counters match the last acknowledged state"
            );
        }
        // Windows of 32 pipelined GETs: every window is answered in full
        // before the next is sent, so the kill lands between windows.
        last_round = 0;
        for _ in 0..10 + round * 5 {
            let clips: Vec<ClipId> = (0..WINDOW)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ClipId::new((x >> 33) as u32 % 96 + 1)
                })
                .collect();
            client.send_gets(&clips).expect("window sent");
            for _ in &clips {
                client.recv_get().expect("request served");
            }
            last_round += WINDOW as u64;
        }
        acked += last_round;
        let stats = client.stats().expect("stats served");
        assert_eq!(stats.stats.requests(), acked);
        before = Some(stats.stats);
        drop(client);
        server.kill();
    }
    let server = spawn_server_with(&dir, &args);
    let mut client =
        TcpCacheClient::connect_wire(&server.addr, None, Wire::Binary).expect("client connects");
    let recovered = client.stats().expect("stats served");
    assert_eq!(recovered.wal_replayed, last_round, "{sync:?}");
    assert_eq!(recovered.stats.requests(), acked, "{sync:?}");
    client.quit().expect("clean disconnect");
    server.quit();
    let _ = std::fs::remove_dir_all(&dir);
}
