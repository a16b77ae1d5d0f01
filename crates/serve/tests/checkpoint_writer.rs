//! The background checkpoint writer: a durable shard refreshes its
//! checkpoint every `--checkpoint-every` accesses, hands a refresh to
//! one writer thread once the WAL holds a quarter segment of records
//! past the last hand-off, and retires the WAL behind a checkpoint only
//! after it landed.
//!
//! The invariants pinned here:
//!
//! * hand-offs are a quarter segment of WAL records apart, counted in
//!   sequence numbers, so probes count; landings are counted by the
//!   slots' generation, and every test that needs one waits for it;
//! * after a crash mid-run, replay is at most a quarter segment plus
//!   one `--checkpoint-every`;
//! * a clean drop lands every shard's newest refresh, so a reopen
//!   replays fewer than `--checkpoint-every` records per shard;
//! * a dead store's pending checkpoint is discarded, never written: a
//!   successor opened while the crashed service is still alive always
//!   opens, and the checkpoint on disk never moves backwards;
//! * retirement keeps the log bounded, and a reopen replays only the
//!   records after the last checkpoint that landed;
//! * poison recovery lands the newest refresh, handed off or held,
//!   before it truncates, so the rewind lands exactly on the in-memory
//!   checkpoint and disk agrees;
//! * the writer yields the core but still lands: it runs at nice 19,
//!   and pinned to one CPU with a busy request loop it keeps retiring
//!   sealed segments while the loop runs, so few segment files are
//!   left when the loop stops.

use clipcache_media::{paper, ByteSize, ClipId, Repository};
use clipcache_serve::persist::{checkpoint_generation, read_checkpoint, DurableCheckpoint};
use clipcache_serve::{
    CacheService, CrashAction, CrashSpec, PersistOptions, ServiceConfig, ServiceError, ShardStore,
    WalSync, WalTuning,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 43;
const CLIPS: u32 = 16;
/// Records between hand-offs at the default 4 MiB segments: a quarter
/// segment of 25-byte frames.
const QUARTER: u64 = 4 * 1024 * 1024 / (4 * 25);
/// The refresh cadence of the hand-off tests.
const EVERY: u64 = 128;

fn repo() -> Arc<Repository> {
    Arc::new(
        paper::equi_sized_repository_of(CLIPS as usize, ByteSize::mb(10))
            .with_chunk_size(ByteSize::mb(2)),
    )
}

fn config(shards: usize, checkpoint_every: u64) -> ServiceConfig {
    ServiceConfig::new(
        clipcache_core::PolicyKind::Lru,
        shards,
        ByteSize::mb(40),
        SEED,
    )
    .with_checkpoint_every(checkpoint_every)
}

fn clip(i: u64) -> ClipId {
    ClipId::new((i * 7 % CLIPS as u64) as u32 + 1)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clipcache-writer-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(
    repo: &Arc<Repository>,
    config: ServiceConfig,
    dir: &Path,
    crash: Option<&str>,
    tuning: WalTuning,
) -> CacheService {
    let opts = PersistOptions {
        dir: dir.to_path_buf(),
        sync: Default::default(),
        crash: crash.map(|s| CrashSpec::parse(s).unwrap()),
        on_crash: CrashAction::Surface,
        tuning,
    };
    CacheService::open_persistent(Arc::clone(repo), config, None, &opts)
        .unwrap_or_else(|e| panic!("open of {} failed: {e}", dir.display()))
        .0
}

/// The checkpoint on disk for shard `shard`.
fn durable_checkpoint(dir: &Path, shard: usize) -> DurableCheckpoint {
    let json = read_checkpoint(&dir.join(format!("shard-{shard}")))
        .unwrap()
        .expect("a checkpoint landed");
    DurableCheckpoint::from_json(&json).unwrap()
}

/// Checkpoints written into shard `shard`'s slots so far.
fn generation(dir: &Path, shard: usize) -> u64 {
    checkpoint_generation(&dir.join(format!("shard-{shard}"))).unwrap()
}

/// Wait until shard 0's checkpoint on disk is the `landings`th written
/// and covers through `seq`. The nice-19 writer lands in its own time,
/// so this polls; a hand-off that never comes fails after 20 s.
fn wait_for_landing(dir: &Path, landings: u64, seq: u64) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        // The slot being written may read torn; the next look sees it.
        let on_disk = checkpoint_generation(&dir.join("shard-0")).ok().zip(
            read_checkpoint(&dir.join("shard-0"))
                .ok()
                .flatten()
                .map(|json| DurableCheckpoint::from_json(&json).unwrap().seq),
        );
        if on_disk == Some((landings, seq)) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "landing {landings} at seq {seq} never came; on disk: {on_disk:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// WAL records shard `shard`'s next open would replay.
fn replay_of(dir: &Path, shard: usize) -> u64 {
    let (_, state) = ShardStore::open(&dir.join(format!("shard-{shard}")), WalSync::Off).unwrap();
    state.records.len() as u64
}

#[test]
fn hand_offs_are_a_quarter_segment_of_records_apart() {
    let repo = repo();
    let dir = scratch_dir("quarter");
    let service = open(&repo, config(1, EVERY), &dir, None, WalTuning::default());
    // Gets only: a refresh every 128 records. The first at or past a
    // quarter segment (41,943) is 41,984, the next 41,984 later.
    let first = QUARTER.div_ceil(EVERY) * EVERY;
    assert_eq!(first, 41_984);
    let mut requests = 0u64;
    for (landings, until) in [(1, first), (2, 2 * first)] {
        while requests < until {
            service.get(clip(requests)).unwrap();
            requests += 1;
        }
        wait_for_landing(&dir, landings, until);
    }
    // 100,000 records: ⌊100,000 / 41,943⌋ = 2 hand-offs, and the 125
    // refreshes since the second were held, never written.
    while requests < 100_000 {
        service.get(clip(requests)).unwrap();
        requests += 1;
    }
    assert_eq!(requests / QUARTER, 2);
    assert_eq!(generation(&dir, 0), 2, "only the two hand-offs landed");
    drop(service);
    // The drop lands the newest refresh, at seq 99,968, as a third.
    assert_eq!(generation(&dir, 0), 3);
    assert_eq!(durable_checkpoint(&dir, 0).seq, 99_968);
    assert_eq!(replay_of(&dir, 0), 32);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn probes_count_toward_a_hand_off() {
    let repo = repo();
    let dir = scratch_dir("probes");
    let service = open(&repo, config(1, EVERY), &dir, None, WalTuning::default());
    // Three probes before every get: 128 gets tick one refresh, 512
    // records. Counted in records, the first refresh at or past a
    // quarter segment is the 82nd, at seq 41,984, after only 10,496
    // gets; counted in gets it would be the 328th.
    let mut requests = 0u64;
    while requests < 41_984 {
        if requests % 4 == 3 {
            service.get(clip(requests)).unwrap();
        } else {
            service
                .get_range(clip(requests), (requests % 5) as u32)
                .unwrap();
        }
        requests += 1;
    }
    wait_for_landing(&dir, 1, 41_984);
    drop(service);
    assert_eq!(generation(&dir, 0), 1, "nothing was held past the hand-off");
    assert_eq!(replay_of(&dir, 0), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_mid_run_replays_at_most_a_quarter_segment_and_a_cadence() {
    let repo = repo();
    let dir = scratch_dir("crash-bound");
    // The 100,000th append dies after its record is durable.
    let cfg = config(1, EVERY);
    let service = open(
        &repo,
        cfg,
        &dir,
        Some("append:100000"),
        WalTuning::default(),
    );
    let mut requests = 0u64;
    loop {
        if requests == 83_968 {
            // The second hand-off; wait for it to land before going on.
            wait_for_landing(&dir, 2, 83_968);
        }
        match service.get(clip(requests)) {
            Ok(_) => requests += 1,
            Err(ServiceError::Crashed) => break,
            Err(e) => panic!("request {requests}: {e}"),
        }
    }
    assert_eq!(requests, 99_999, "the 100,000th request died");
    drop(service);
    assert_eq!(generation(&dir, 0), 2, "the crashed drop wrote nothing");
    let replay = replay_of(&dir, 0);
    assert_eq!(replay, 100_000 - 83_968);
    assert!(replay <= QUARTER + EVERY, "replayed {replay}");
    let reopened = open(&repo, cfg, &dir, None, WalTuning::default());
    assert_eq!(reopened.wal_replayed(), replay);
    assert_eq!(reopened.stats().requests(), 100_000);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_drop_lands_every_shards_newest_refresh() {
    let repo = repo();
    let dir = scratch_dir("drop");
    let cfg = config(4, EVERY);
    let service = open(&repo, cfg, &dir, None, WalTuning::default());
    // About 1,000 records a shard, far short of a hand-off: every
    // refresh is held until the drop.
    for i in 0..4_000u64 {
        service
            .get(ClipId::new((i * 5 % CLIPS as u64) as u32 + 1))
            .unwrap();
    }
    let stats = service.stats();
    drop(service);
    let mut replayed = 0;
    for shard in 0..4 {
        assert_eq!(generation(&dir, shard), 1, "shard {shard}");
        let replay = replay_of(&dir, shard);
        assert!(replay < EVERY, "shard {shard} would replay {replay}");
        replayed += replay;
    }
    let reopened = open(&repo, cfg, &dir, None, WalTuning::default());
    assert_eq!(reopened.wal_replayed(), replayed);
    assert_eq!(reopened.stats(), stats);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crashed_service_never_lands_a_stale_checkpoint() {
    let repo = repo();
    let dir = scratch_dir("stale");
    // Two shards, cadence 4, each armed to crash at its ninth append:
    // the first shard to get there dies right after submitting its
    // second checkpoint, usually while that is still being written,
    // and the other shard is left with checkpoints of its own in
    // flight or landed but not yet retired. Segments of 16 records
    // make every refresh a hand-off (a quarter segment is 4 records).
    let cfg = config(2, 4);
    let crash = Some("append:9");
    let tuning = WalTuning {
        segment_bytes: 24 + 16 * 25,
        ..WalTuning::default()
    };
    let mut service = open(&repo, cfg, &dir, crash, tuning);
    let mut applied = 0u64;
    let mut newest = [0u64; 2];
    for restart in 0..200 {
        loop {
            match service.get(clip(applied)) {
                Ok(_) => applied += 1,
                Err(ServiceError::Crashed) => {
                    // append:N dies after the record is durable.
                    applied += 1;
                    break;
                }
                Err(e) => panic!("restart {restart}: unexpected error: {e}"),
            }
        }
        // The successor opens while the crashed service is still alive.
        let successor = open(&repo, cfg, &dir, crash, tuning);
        assert_eq!(
            successor.stats().requests(),
            applied,
            "restart {restart}: every acknowledged request recovered"
        );
        let crashed = std::mem::replace(&mut service, successor);
        let seqs = [0, 1].map(|shard| durable_checkpoint(&dir, shard).seq);
        for shard in 0..2 {
            assert!(
                seqs[shard] >= newest[shard],
                "restart {restart}: shard {shard}'s checkpoint moved back"
            );
        }
        newest = seqs;
        drop(crashed);
        let after = [0, 1].map(|shard| durable_checkpoint(&dir, shard).seq);
        assert_eq!(after, seqs, "restart {restart}: dropping the crashed wrote");
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retirement_bounds_the_log_and_reopen_replays_only_the_tail() {
    let repo = repo();
    let dir = scratch_dir("bounded");
    // Four-record segments (24-byte header + four 25-byte frames).
    let tuning = WalTuning {
        segment_bytes: 124,
        ..WalTuning::default()
    };
    let cfg = config(1, 4);
    let service = open(&repo, cfg, &dir, None, tuning);
    // Every fourth request is a chunk probe: logged, but it never ticks
    // the clock, so records trail the newest checkpoint.
    for i in 0..2_000u64 {
        if i % 4 == 3 {
            service.get_range(clip(i), (i % 5) as u32).unwrap();
        } else {
            service.get(clip(i)).unwrap();
        }
    }
    let stats = service.stats();
    drop(service);

    let mut segments: Vec<String> = std::fs::read_dir(dir.join("shard-0"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("wal.") && n.ends_with(".log"))
        .collect();
    segments.sort();
    assert!(
        segments.len() <= 3,
        "the drained log kept {} segments: {segments:?}",
        segments.len()
    );
    let landed = durable_checkpoint(&dir, 0).seq;
    let reopened = open(&repo, cfg, &dir, None, tuning);
    assert_eq!(
        reopened.wal_replayed(),
        2_000 - landed,
        "replay is exactly the records after seq {landed}"
    );
    assert_eq!(reopened.stats(), stats);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poison_recovery_lands_the_newest_refresh_before_it_truncates() {
    let repo = repo();
    let dir = scratch_dir("poison");
    let cfg = config(1, 16);
    let service = open(&repo, cfg, &dir, None, WalTuning::default());
    // The 48th request takes the third refresh, far short of a quarter
    // segment: the store holds it and the writer has written nothing.
    for i in 0..48 {
        service.get(clip(i)).unwrap();
    }
    let at_checkpoint = service.stats();
    let mut resident = service.snapshot()[0].resident.clone();
    resident.sort();
    for i in 48..53 {
        service.get(clip(i)).unwrap();
    }
    service.poison(clip(0));
    // Any lock on the shard recovers it; `stats` does without a request.
    assert_eq!(service.stats(), at_checkpoint, "rewound to the checkpoint");
    assert_eq!(service.recoveries(), 1);
    let durable = durable_checkpoint(&dir, 0);
    assert_eq!(durable.seq, 48, "the held refresh landed");
    assert_eq!(generation(&dir, 0), 1, "as the only checkpoint written");
    assert_eq!(durable.stats, at_checkpoint);
    let mut on_disk = durable.snapshot.resident.clone();
    on_disk.sort();
    assert_eq!(on_disk, resident, "disk and memory rewound to one state");

    // The shard keeps serving, and a reopen sees the rewound timeline.
    for i in 53..70 {
        service.get(clip(i)).unwrap();
    }
    let stats = service.stats();
    drop(service);
    let reopened = open(&repo, cfg, &dir, None, WalTuning::default());
    assert_eq!(reopened.stats(), stats);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pin the calling thread to the CPU it is running on, returning the
/// affinity mask it had, or `None` where the affinity calls fail.
fn pin_to_current_cpu() -> Option<libc::cpu_set_t> {
    let size = std::mem::size_of::<libc::cpu_set_t>();
    // SAFETY: the masks are plain bit arrays of the size passed, and
    // pid 0 names only the calling thread.
    unsafe {
        let mut old: libc::cpu_set_t = std::mem::zeroed();
        if libc::sched_getaffinity(0, size, &mut old) != 0 {
            return None;
        }
        let cpu = usize::try_from(libc::sched_getcpu()).ok()?;
        let mut one: libc::cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut one);
        libc::CPU_SET(cpu, &mut one);
        (libc::sched_setaffinity(0, size, &one) == 0).then_some(old)
    }
}

fn segment_files(shard_dir: &Path) -> usize {
    std::fs::read_dir(shard_dir)
        .unwrap()
        .filter(|e| {
            let name = e.as_ref().unwrap().file_name();
            let name = name.to_string_lossy();
            name.starts_with("wal.") && name.ends_with(".log")
        })
        .count()
}

/// The nice value of every checkpoint writer thread in this process,
/// read from `/proc/self/task/*/stat` (the 19th field).
fn writer_nice_values() -> Vec<i64> {
    let mut nices = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let Ok(stat) = std::fs::read_to_string(task.unwrap().path().join("stat")) else {
            continue;
        };
        let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
            continue;
        };
        // "checkpoint-writer", cut to the kernel's 15 bytes.
        if &stat[open + 1..close] == "checkpoint-writ" {
            let fields: Vec<&str> = stat[close + 2..].split(' ').collect();
            nices.push(fields[16].parse().unwrap());
        }
    }
    nices
}

#[test]
fn a_pinned_writer_retires_segments_while_a_busy_loop_runs() {
    const RECORDS_PER_SEGMENT: u64 = 64;
    // Long enough for many landings even when the nice-19 writer waits
    // a few hundred milliseconds at a time for the core.
    const RUN: Duration = Duration::from_secs(3);
    let repo = repo();
    let dir = scratch_dir("pinned");
    let tuning = WalTuning {
        segment_bytes: 24 + RECORDS_PER_SEGMENT * 25,
        ..WalTuning::default()
    };
    let old_mask = pin_to_current_cpu();
    // The writer thread spawns at the first checkpoint, from this
    // thread, and inherits its one-CPU mask: the loop below never
    // blocks on it, so it lands only in the core time left over.
    let service = open(&repo, config(1, 64), &dir, None, tuning);
    let started = Instant::now();
    let mut requests = 0u64;
    while started.elapsed() < RUN {
        for _ in 0..256 {
            service.get(clip(requests)).unwrap();
            requests += 1;
        }
    }
    // Counted before the drop, which would drain the writer.
    let files = segment_files(&dir.join("shard-0")) as u64;
    // The writer lowered itself before its first landing. Other tests'
    // writers may be starting, so look for one at nice 19, not all.
    let nices = writer_nice_values();
    if let Some(mask) = old_mask {
        // SAFETY: restores the mask read above, on the same thread.
        unsafe { libc::sched_setaffinity(0, std::mem::size_of_val(&mask), &mask) };
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
    let sealed = requests / RECORDS_PER_SEGMENT;
    assert!(
        files <= sealed / 4,
        "{files} segment files left of {sealed} sealed in {RUN:?}: the writer fell behind"
    );
    assert!(
        nices.contains(&19),
        "writer threads' nice values: {nices:?}"
    );
}
