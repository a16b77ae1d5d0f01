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
use std::path::{Path, PathBuf};

mod support;

use support::{dir_bytes, spawn_serve, Server};

/// Spawn the real `serve` binary with the given WAL flags.
fn spawn_server(data_dir: &Path, extra: &[&str]) -> Server {
    let base = ["--addr", "127.0.0.1:0", "--shards", "1", "--clips", "24"];
    spawn_serve(&[&base[..], extra].concat(), Some(data_dir))
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
