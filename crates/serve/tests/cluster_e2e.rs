//! End-to-end cluster tier against the real `serve` binary: three
//! members joined by a static `--peers` list, driven over TCP through
//! the consistent-hash ring, one member SIGKILLed mid-run (no graceful
//! shutdown, no flush hooks), then rejoined on its durable directory.
//!
//! The two load-bearing assertions:
//!
//! * **Zero lost acked requests** — a killed member restarts with
//!   byte-identical counters to its last acknowledged `STATS` reply
//!   (the WAL is written before every reply, so an answered request is
//!   a durable request — PR 5's guarantee, now per cluster member).
//! * **Degenerate equivalence** — a one-member, replication-1 cluster
//!   answers every request and the final `STATS` exactly like the
//!   standalone server: the cluster tier adds nothing to the data path
//!   until there is a second member to peer with.

use clipcache_media::ClipId;
use clipcache_serve::{ClusterView, TcpCacheClient, WireVersions};
use std::net::TcpListener;
use std::path::{Path, PathBuf};

mod support;

use support::{loadgen, spawn_serve, Server};

const SEED: u64 = 0x5EED_2007;
const CLIPS: u32 = 48;

/// Reserve `n` distinct loopback ports. The listeners are held until
/// all ports are chosen, then dropped together — the tiny window
/// before the servers re-bind is the standard test-only race.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("ephemeral port binds"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("bound addr").port())
        .collect()
}

fn spawn_member(
    me: usize,
    peers: &[String],
    replication: usize,
    data_dir: Option<&Path>,
) -> Server {
    let (me, peers, replication) = (me.to_string(), peers.join(","), replication.to_string());
    let clips = CLIPS.to_string();
    spawn_serve(
        &[
            "--cluster",
            &me,
            "--peers",
            &peers,
            "--replication",
            &replication,
            "--peer-connect-timeout",
            "100",
            "--peer-read-timeout",
            "100",
            "--shards",
            "1",
            "--clips",
            &clips,
            "--seed",
            "0x5EED2007",
        ],
        data_dir,
    )
}

/// Read-any routing: the first live owner in ring order, exactly what
/// the loadgen transport does.
fn route(view: &ClusterView, alive: &[bool], clip: ClipId) -> usize {
    view.owners_for(clip)
        .into_iter()
        .find(|&n| alive[n])
        .expect("at least one owner alive")
}

/// A deterministic clip stream: cycles the catalog with a fixed stride
/// so every clip recurs (re-references are what caching is about)
/// without needing the workload crate here.
fn clip_at(i: u32) -> ClipId {
    ClipId::new((i.wrapping_mul(7) % CLIPS) + 1)
}

#[test]
fn three_member_cluster_loses_no_acked_request_across_sigkill() {
    let root = std::env::temp_dir().join(format!("clipcache-cluster-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dirs: Vec<PathBuf> = (0..3).map(|i| root.join(format!("node{i}"))).collect();
    let ports = free_ports(3);
    let peers: Vec<String> = ports.iter().map(|p| format!("127.0.0.1:{p}")).collect();

    let mut nodes: Vec<Option<Server>> = (0..3)
        .map(|i| Some(spawn_member(i, &peers, 2, Some(&dirs[i]))))
        .collect();
    let view = ClusterView::new(SEED, 3, 2);
    let mut clients: Vec<Option<TcpCacheClient>> = (0..3).map(|_| None).collect();
    let connect = |clients: &mut Vec<Option<TcpCacheClient>>, n: usize| {
        if clients[n].is_none() {
            clients[n] =
                Some(TcpCacheClient::connect(&peers[n]).expect("client connects to member"));
        }
    };

    // Phase 1: drive the ring. Every request must be acked; count the
    // acks each member gave out — those are the requests that may
    // never be lost.
    let mut acked = [0u64; 3];
    let alive = [true, true, true];
    for i in 0..400u32 {
        let clip = clip_at(i);
        let n = route(&view, &alive, clip);
        connect(&mut clients, n);
        clients[n]
            .as_mut()
            .unwrap()
            .get(clip)
            .expect("routed request acked");
        acked[n] += 1;
    }
    assert!(acked.iter().all(|&a| a > 0), "ring spread load: {acked:?}");

    // A non-owner serves a warm clip by peer fill: the PHIT path over
    // the real wire. Find a clip the probed-for member does not own.
    let (clip, outsider) = (0..CLIPS)
        .map(clip_at)
        .find_map(|c| {
            let owners = view.owners_for(c);
            (0..3).find(|n| !owners.contains(n)).map(|n| (c, n))
        })
        .expect("replication 2 of 3 leaves a non-owner for some clip");
    connect(&mut clients, outsider);
    let outcome = clients[outsider]
        .as_mut()
        .unwrap()
        .get(clip)
        .expect("non-owner serves");
    assert!(
        outcome.peer && !outcome.hit,
        "a warm clip on a non-owner arrives by peer fill, got {outcome:?}"
    );

    // Phase 2: SIGKILL member 2 right after snapshotting its stats —
    // the snapshot is itself an acked reply, so recovery must
    // reproduce it exactly.
    let before = clients[2].as_mut().unwrap().stats().expect("stats acked");
    assert!(before.stats.requests() >= acked[2]);
    clients[2] = None;
    nodes[2].take().unwrap().kill();

    // The survivors keep answering: read-any failover for clips whose
    // primary died, plain routing for the rest. Peer probes into the
    // dead member fail fast and degrade to local misses — never an
    // error surfaced to the client.
    let alive = [true, true, false];
    for i in 400..600u32 {
        let clip = clip_at(i);
        let n = route(&view, &alive, clip);
        connect(&mut clients, n);
        clients[n]
            .as_mut()
            .unwrap()
            .get(clip)
            .expect("failover request acked");
    }

    // The degraded mode is visible in STATS: enough probes into the
    // dead member failed that at least one survivor's breaker for it
    // is Open, and the skipped write-all halves are queued as hints
    // (nothing replayed yet — there is no live peer to replay onto).
    let degraded: Vec<_> = (0..2)
        .map(|n| clients[n].as_mut().unwrap().stats().expect("stats acked"))
        .collect();
    assert!(
        degraded.iter().any(|s| s.breaker_open >= 1),
        "a survivor trips its breaker for the dead member: {degraded:?}"
    );
    assert!(
        degraded.iter().all(|s| s.handoff_replayed == 0),
        "nothing can replay while the member is dead: {degraded:?}"
    );

    // Phase 3: the killed member rejoins on its durable directory.
    let rejoined = spawn_member(2, &peers, 2, Some(&dirs[2]));
    assert!(
        rejoined
            .recovery_line
            .as_deref()
            .is_some_and(|l| !l.contains("wal_replayed=0")),
        "rejoin replays the WAL: {:?}",
        rejoined.recovery_line
    );
    let mut client = TcpCacheClient::connect(&rejoined.addr).expect("client reconnects");
    let after = client.stats().expect("stats after rejoin");
    assert_eq!(
        after.stats, before.stats,
        "zero lost acked requests: recovered counters match the last acked STATS"
    );
    assert!(after.wal_replayed > 0, "rejoin was a real recovery");
    nodes[2] = Some(rejoined);

    // Phase 4: keep routing around member 2 (clients discover a revive
    // lazily, via their own failed probes — exactly what a real
    // read-any client does). Every miss on a survivor for a clip
    // co-owned by member 2 counts toward its breaker's HalfOpen probe;
    // the first probe that reaches the revived member replays that
    // survivor's hint queue.
    for i in 600..900u32 {
        let clip = clip_at(i);
        let n = route(&view, &alive, clip);
        clients[n]
            .as_mut()
            .unwrap()
            .get(clip)
            .expect("post-heal request acked");
    }
    let healed: Vec<_> = (0..2)
        .map(|n| clients[n].as_mut().unwrap().stats().expect("stats acked"))
        .collect();
    assert!(
        healed.iter().map(|s| s.handoff_replayed).sum::<u64>() > 0,
        "the healed member receives the hinted handoff: {healed:?}"
    );
    assert!(
        healed.iter().all(|s| s.breaker_open == 0),
        "successful probes close the survivors' breakers: {healed:?}"
    );

    // And it serves in the ring again, peer-filling what it missed
    // while dead.
    let alive = [true, true, true];
    for i in 900..1000u32 {
        let clip = clip_at(i);
        if route(&view, &alive, clip) == 2 {
            client.get(clip).expect("rejoined member serves");
        }
    }
    assert!(
        client.stats().expect("stats").stats.requests() > after.stats.requests(),
        "rejoined member took traffic"
    );

    client.quit().expect("clean disconnect");
    for c in clients.into_iter().flatten() {
        let _ = c.quit();
    }
    for node in nodes.into_iter().flatten() {
        node.quit();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The same story driven by `loadgen --peers` with two clients. It is
/// its own test because concurrent clients can replay hints to a live
/// peer mid-outage, which the test above rules out.
#[test]
fn three_member_cluster_serves_loadgen_across_a_kill_and_rejoin() {
    let root = std::env::temp_dir().join(format!("clipcache-cluster-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dirs: Vec<PathBuf> = (0..3).map(|i| root.join(format!("node{i}"))).collect();
    let peers: Vec<String> = free_ports(3)
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect();
    let mut nodes: Vec<Server> = (0..3)
        .map(|i| spawn_member(i, &peers, 2, Some(&dirs[i])))
        .collect();
    let joined = peers.join(",");
    let load = |requests: &str| {
        let mut args = vec!["--peers", &joined, "--replication", "2", "--shards", "1"];
        args.extend(["--clients", "2", "--requests", requests, "--clips", "48"]);
        let (status, out) = loadgen(&args);
        assert!(
            status.success(),
            "loadgen --requests {requests} failed: {out}"
        );
    };
    let survivor_stats = || {
        let mut client = TcpCacheClient::connect(&peers[0]).expect("client connects");
        client.stats().expect("STATS parses")
    };

    load("6000");
    // SIGKILL member 2; the survivors keep serving the ring, and member
    // 0's probes into the dead member trip its breaker.
    nodes.pop().expect("member 2").kill();
    load("6000");
    let outage = survivor_stats();
    assert_eq!(outage.breaker_open, 1, "survivor mid-outage: {outage:?}");

    // Member 2 rejoins on its durable directory and replays its WAL.
    let rejoined = spawn_member(2, &peers, 2, Some(&dirs[2]));
    assert!(
        rejoined.recovered_from(&dirs[2]),
        "{:?}",
        rejoined.recovery_line
    );
    let mut client = TcpCacheClient::connect(&rejoined.addr).expect("client connects");
    let stats = client.stats().expect("STATS parses");
    assert!(stats.wal_replayed > 0, "rejoined member: {stats:?}");
    client.quit().expect("clean disconnect");
    nodes.push(rejoined);

    // The healed ring serves at full membership; the survivor's next
    // successful probes close its breaker and replay the hinted handoff
    // onto the rejoined member.
    load("3000");
    let healed = survivor_stats();
    assert_eq!(healed.breaker_open, 0, "survivor post-heal: {healed:?}");
    assert!(
        healed.handoff_replayed > 0,
        "survivor post-heal: {healed:?}"
    );
    for node in nodes {
        node.quit();
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn one_member_cluster_is_bit_identical_to_standalone() {
    // Standalone reference.
    let clips = CLIPS.to_string();
    let standalone = spawn_serve(
        &[
            "--addr",
            "127.0.0.1:0",
            "--shards",
            "1",
            "--clips",
            &clips,
            "--seed",
            "0x5EED2007",
        ],
        None,
    );
    let ports = free_ports(1);
    let peers = vec![format!("127.0.0.1:{}", ports[0])];
    let solo = spawn_member(0, &peers, 1, None);

    let mut a = TcpCacheClient::connect(&standalone.addr).expect("standalone client");
    let mut b = TcpCacheClient::connect(&solo.addr).expect("cluster client");
    assert_eq!(
        b.version().expect("handshake"),
        WireVersions::current(),
        "a member reports the wire versions the handshake checks"
    );
    for i in 0..300u32 {
        let clip = clip_at(i);
        let expected = a.get(clip).expect("standalone serves");
        let got = b.get(clip).expect("one-member cluster serves");
        assert_eq!(got, expected, "request {i} diverged");
        assert!(!got.peer, "a one-member ring has no peers to fill from");
    }
    let sa = a.stats().expect("standalone stats");
    let sb = b.stats().expect("cluster stats");
    assert_eq!(sb.stats, sa.stats, "final counters diverged");
    assert_eq!(sb.peer_hits, 0);
    a.quit().expect("clean disconnect");
    b.quit().expect("clean disconnect");
    standalone.quit();
    solo.quit();
}
