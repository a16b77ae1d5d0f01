//! End-to-end crash-kill recovery against the real `serve` binary: a
//! durable server is started, loaded over TCP, killed with SIGKILL (no
//! graceful shutdown, no flush hooks — the process just stops), then
//! restarted on the same data directory. The restarted server must
//! report every acknowledged request in `STATS` (the WAL is written
//! before the reply, so an answered request is a durable request), and
//! an idle restart must leave the directory bytes untouched. A server
//! that dies at an armed crash point mid-run is restarted on its port
//! while a live `loadgen` rides across the restart.

use clipcache_media::ClipId;
use clipcache_serve::persist::CHECKPOINT_SLOT_FILES;
use clipcache_serve::{TcpCacheClient, Wire};
use std::path::Path;

mod support;

use support::{dir_bytes, loadgen, spawn_serve, Server};

fn spawn_server(data_dir: &Path, shards: usize) -> Server {
    spawn_server_with(
        data_dir,
        &["--shards", &shards.to_string(), "--clips", "24"],
    )
}

/// Start a durable server on `data_dir` with extra `args`.
fn spawn_server_with(data_dir: &Path, args: &[&str]) -> Server {
    spawn_serve(&[&["--addr", "127.0.0.1:0"], args].concat(), Some(data_dir))
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
    let settled = dir_bytes(&dir);
    // The settled listing is the segmented layout: every shard holds
    // numbered `wal.NNNNNN.log` segments plus its checkpoint — never
    // the retired single-file `wal.log`.
    for shard in ["shard-0", "shard-1"] {
        let names: Vec<&str> = settled
            .iter()
            .filter(|(p, _)| p.parent() == Some(Path::new(shard)))
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
        dir_bytes(&dir),
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

/// The crash rows: the `serve` flags both starts share, the first
/// start's own (its crash point), and `loadgen`'s own.
const CRASH_ROWS: [(&str, &str, &str); 3] = [
    ("--shards 2", "--crash-at append:5000", ""),
    // Chunked residency trims victims tail-first.
    (
        "--shards 2 --chunk-size 4",
        "--crash-at append:5000",
        "--chunk-size 4",
    ),
    // 4 KiB segments roll every ~163 appends; the 8th roll dies after
    // the old segment is sealed but before its successor exists. The
    // huge checkpoint cadence keeps the log growing (a checkpoint
    // empties it), so recovery replays a multi-segment WAL.
    (
        "--shards 2 --segment-bytes 4096",
        "--checkpoint-every 1000000 --crash-at segment-roll:8",
        "",
    ),
];

#[test]
fn a_crash_mid_run_restarts_under_an_exactly_once_client() {
    for (i, (shared, crash, load)) in CRASH_ROWS.into_iter().enumerate() {
        let dir = std::env::temp_dir().join(format!(
            "clipcache-crash-restart-{}-{i}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let flags = |s: &'static str| s.split_whitespace();
        let first: Vec<&str> = flags(shared).chain(flags(crash)).collect();
        let server = spawn_server_with(&dir, &first);
        let addr = server.addr.clone();
        let mut args = vec!["--target", &addr];
        args.extend(flags(
            "--shards 2 --clients 2 --requests 20000 --faults rate=0,seed=1 \
             --retries 50 --backoff-ms 100",
        ));
        args.extend(flags(load));
        // The restart comes whatever the first server's exit code, so
        // the client always finishes and a wrong code fails, not hangs.
        let (code, restarted, (status, out)) = std::thread::scope(|s| {
            let client = s.spawn(|| loadgen(&args));
            let code = server.exit_code();
            let again: Vec<&str> = ["--addr", &addr].into_iter().chain(flags(shared)).collect();
            let restarted = spawn_serve(&again, Some(&dir));
            (code, restarted, client.join().expect("loadgen thread"))
        });
        // The armed crash point killed the server mid-run: exit 137,
        // the same observable as kill -9.
        assert_eq!(code, Some(137), "{crash}");
        // The client finished across the restart, every request
        // answered and counted exactly once (loadgen checks it).
        assert!(status.success(), "{crash}: loadgen failed: {out}");
        assert!(out.contains("chaos invariants hold"), "{crash}: {out}");
        let mut client = TcpCacheClient::connect(&restarted.addr).expect("client connects");
        let stats = client.stats().expect("STATS parses");
        assert!(stats.wal_replayed > 0, "{crash}: {stats:?}");
        client.quit().expect("clean disconnect");
        assert!(
            restarted.recovered_from(&dir),
            "{crash}: {:?}",
            restarted.recovery_line
        );
        restarted.quit();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
