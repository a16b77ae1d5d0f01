//! Group commit under fire: concurrent clients ride batched fsyncs
//! (`--wal-sync always --commit-window-us N`), the server is SIGKILLed
//! with commit windows open, and the restart must satisfy conservation
//! and exactly-once: every acknowledged request is recovered (acked ⇒
//! durable survives batching) and nothing is recovered twice (the
//! replay count never exceeds what clients sent).
//!
//! Also pins the determinism contract of the window itself: the batch
//! window moves *when* fsync happens, never what is written — the same
//! trace at `--commit-window-us 0` (the leader fsyncs at once) and at a
//! wide window leaves byte-identical data directories.

use clipcache_media::ClipId;
use clipcache_serve::TcpCacheClient;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

/// Spawn the real `serve` binary with the given WAL flags.
fn spawn_server(data_dir: &Path, extra: &[&str]) -> Server {
    let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", "127.0.0.1:0", "--shards", "1", "--clips", "24"])
        .args(extra)
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
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("server stdout readable") == 0 {
            panic!("server exited before printing its address");
        }
        if let Some(rest) = line.strip_prefix("listening on ") {
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

    /// SIGKILL — no flush hooks, open commit windows die where they are.
    fn kill(mut self) {
        self.child.kill().expect("kill delivered");
        self.child.wait().expect("killed server reaped");
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "clipcache-group-commit-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn sigkill_inside_an_open_commit_window_conserves_acked_requests() {
    let dir = scratch("kill");
    // A wide window and always-fsync: concurrent requests genuinely
    // share batched fsyncs, and an ack is a durability promise. Tiny
    // segments put rolls in the kill path too; the huge checkpoint
    // cadence keeps recovery a pure replay for exact accounting.
    let server = spawn_server(
        &dir,
        &[
            "--wal-sync",
            "always",
            "--commit-window-us",
            "2000",
            "--segment-bytes",
            "2048",
            "--checkpoint-every",
            "1000000",
        ],
    );

    // Four clients hammer the server from separate threads until their
    // connection dies under them; each reports (sent, acked).
    let stop_after = std::time::Duration::from_millis(300);
    let mut workers = Vec::new();
    for w in 0..4u32 {
        let addr = server.addr.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = TcpCacheClient::connect(&addr).expect("client connects");
            let mut sent = 0u64;
            let mut acked = 0u64;
            let started = std::time::Instant::now();
            // Run past the kill: the loop ends when the socket breaks.
            while started.elapsed() < stop_after * 10 {
                let clip = ClipId::new((sent as u32 * 4 + w) % 24 + 1);
                sent += 1;
                match client.get(clip) {
                    Ok(_) => acked += 1,
                    Err(_) => break,
                }
            }
            (sent, acked)
        }));
    }
    std::thread::sleep(stop_after);
    server.kill();
    let mut sent_total = 0u64;
    let mut acked_total = 0u64;
    for worker in workers {
        let (sent, acked) = worker.join().expect("worker joins");
        sent_total += sent;
        acked_total += acked;
    }
    assert!(
        acked_total > 100,
        "the run did real work before the kill: {acked_total} acked"
    );

    // Conservation and exactly-once: every acked request is on disk
    // (acked ⇒ its batched fsync completed), and the replay never
    // exceeds what was sent (nothing is counted twice).
    let server = spawn_server(&dir, &["--wal-sync", "always"]);
    let mut client = TcpCacheClient::connect(&server.addr).expect("client reconnects");
    let stats = client.stats().expect("stats served");
    let recovered = stats.stats.requests();
    assert_eq!(stats.wal_replayed, recovered, "pure replay, no checkpoint");
    assert!(
        recovered >= acked_total,
        "an acked request vanished: {recovered} recovered < {acked_total} acked"
    );
    assert!(
        recovered <= sent_total,
        "a request was replayed twice: {recovered} recovered > {sent_total} sent"
    );
    client.quit().expect("clean disconnect");
    server.quit();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte-for-byte comparison of two shard trees.
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("data dir readable") {
            let entry = entry.unwrap();
            let path = entry.path();
            if entry.file_type().unwrap().is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().display().to_string();
                files.push((rel, std::fs::read(&path).unwrap()));
            }
        }
    }
    files.sort();
    files
}

#[test]
fn the_commit_window_never_changes_what_reaches_the_disk() {
    // The same sequential trace under a zero window (every append
    // fsyncs itself — the single-record path) and under a wide window
    // (appends ride batched fsyncs) must leave identical bytes: the
    // window is a timing knob, not a format knob.
    let mut dirs = Vec::new();
    for (tag, window) in [("win0", "0"), ("win5000", "5000")] {
        let dir = scratch(tag);
        let server = spawn_server(
            &dir,
            &[
                "--wal-sync",
                "always",
                "--commit-window-us",
                window,
                "--segment-bytes",
                "1024",
            ],
        );
        let mut client = TcpCacheClient::connect(&server.addr).expect("client connects");
        for i in 0..90u32 {
            client
                .get(ClipId::new(i * 7 % 24 + 1))
                .expect("request served");
        }
        let stats = client.stats().expect("stats served");
        assert_eq!(stats.stats.requests(), 90);
        client.quit().expect("clean disconnect");
        server.quit();
        dirs.push(dir);
    }
    assert_eq!(
        dir_bytes(&dirs[0]),
        dir_bytes(&dirs[1]),
        "window 0 and window 5000 diverged on disk"
    );
    for dir in dirs {
        let _ = std::fs::remove_dir_all(&dir);
    }
}
