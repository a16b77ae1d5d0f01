//! Crash-kill recovery: deterministic crash points fired in-process
//! ([`CrashAction::Surface`]), then the service is reopened from the
//! same data directory and its recovered state is checked against the
//! last durable point.
//!
//! The invariants pinned here (and by CI's crash-smoke job over a real
//! `kill -9`):
//!
//! * after a crash at any deterministic point, recovery lands exactly
//!   on the last durable state — bit-identical to a continuous run
//!   when no mid-stream checkpoint was consumed (pure WAL replay
//!   rebuilds the exact access order);
//! * a torn final append is truncated, costing exactly the torn
//!   record and nothing else;
//! * a crash mid-checkpoint keeps the previous checkpoint and the
//!   full WAL — the torn checkpoint slot is ignored, and the other slot
//!   still holds the checkpoint that landed before it;
//! * recovery is deterministic: two independent recoveries of the
//!   same directory agree byte-for-byte, on state and on disk;
//! * counters are conserved across a crash-restart loop: every request
//!   the durable store acknowledged is counted exactly once;
//! * a torn append in the middle of a pipelined window over TCP loses
//!   no request the server answered without an `ERR`;
//! * several in-process clients, each with a server node of its own,
//!   lose no delivered request on one durable service.

use clipcache_media::{paper, ByteSize, ClipId, Repository};
use clipcache_serve::persist::{
    read_checkpoint, write_checkpoint, DurableCheckpoint, CHECKPOINT_SLOT_FILES,
};
use clipcache_serve::{
    decode_segment, run_load_with, segment_file_name, serve_with, shard_of, CacheService,
    CrashAction, CrashSpec, LoadOptions, PersistOptions, ServerConfig, ServiceConfig, ServiceError,
    Target, TcpCacheClient, WalSync, WalTuning, Wire,
};
use clipcache_workload::{RequestGenerator, Trace};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 41;
const CLIPS: usize = 16;

fn repo() -> Arc<Repository> {
    Arc::new(paper::equi_sized_repository_of(CLIPS, ByteSize::mb(10)))
}

fn config(checkpoint_every: u64) -> ServiceConfig {
    ServiceConfig::new(clipcache_core::PolicyKind::Lru, 1, ByteSize::mb(40), SEED)
        .with_checkpoint_every(checkpoint_every)
}

/// A deterministic trace cycling through the catalog.
fn trace(len: usize) -> Vec<ClipId> {
    (0..len)
        .map(|i| ClipId::new((i * 7 % CLIPS) as u32 + 1))
        .collect()
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clipcache-crash-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open_with_crash(
    repo: &Arc<Repository>,
    config: ServiceConfig,
    dir: &Path,
    crash: Option<&str>,
) -> CacheService {
    open_tuned_with_crash(repo, config, dir, crash, WalSync::Off, WalTuning::default())
}

fn open_tuned_with_crash(
    repo: &Arc<Repository>,
    config: ServiceConfig,
    dir: &Path,
    crash: Option<&str>,
    sync: WalSync,
    tuning: WalTuning,
) -> CacheService {
    let opts = PersistOptions {
        dir: dir.to_path_buf(),
        sync,
        crash: crash.map(|s| CrashSpec::parse(s).unwrap()),
        on_crash: CrashAction::Surface,
        tuning,
    };
    CacheService::open_persistent(Arc::clone(repo), config, None, &opts)
        .expect("open succeeds")
        .0
}

/// Segments sized to hold exactly four 25-byte records after the
/// 24-byte header: every fourth append fills the segment and rolls it
/// on the way out. Small enough that short traces cross several
/// segment boundaries.
fn four_record_segments() -> WalTuning {
    WalTuning {
        segment_bytes: 124,
        ..WalTuning::default()
    }
}

/// Drive `trace` until the armed crash point fires; returns how many
/// requests completed before the crash surfaced.
fn drive_until_crash(service: &CacheService, trace: &[ClipId]) -> usize {
    for (i, &clip) in trace.iter().enumerate() {
        match service.get(clip) {
            Ok(_) => {}
            Err(ServiceError::Crashed) => return i,
            Err(e) => panic!("unexpected error at request {i}: {e}"),
        }
    }
    panic!(
        "armed crash point never fired over {} requests",
        trace.len()
    );
}

/// The continuous (never-crashed, memory-only) reference after `n`
/// requests: the state recovery must land on when it replays a pure
/// WAL from empty.
fn reference_after(
    repo: &Arc<Repository>,
    cfg: ServiceConfig,
    trace: &[ClipId],
    n: usize,
) -> CacheService {
    let service = CacheService::new(Arc::clone(repo), cfg, None).unwrap();
    for &clip in &trace[..n] {
        service.get(clip).unwrap();
    }
    service
}

fn assert_state_equal(recovered: &CacheService, reference: &CacheService, label: &str) {
    assert_eq!(recovered.stats(), reference.stats(), "{label}: stats");
    assert_eq!(
        recovered.snapshot(),
        reference.snapshot(),
        "{label}: snapshot (resident set and order)"
    );
}

/// Recursive directory copy (shard dirs are one level of plain files).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &dest);
        } else {
            std::fs::copy(entry.path(), &dest).unwrap();
        }
    }
}

/// Every file in the two trees, byte for byte.
fn assert_dirs_identical(a: &Path, b: &Path) {
    let mut names: Vec<String> = std::fs::read_dir(a)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let mut other: Vec<String> = std::fs::read_dir(b)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    other.sort();
    assert_eq!(names, other, "{} vs {}", a.display(), b.display());
    for name in names {
        let pa = a.join(&name);
        let pb = b.join(&name);
        if pa.is_dir() {
            assert_dirs_identical(&pa, &pb);
        } else {
            assert_eq!(
                std::fs::read(&pa).unwrap(),
                std::fs::read(&pb).unwrap(),
                "file {name} differs"
            );
        }
    }
}

#[test]
fn crash_after_nth_append_recovers_exactly_n_requests() {
    let repo = repo();
    let dir = scratch_dir("append");
    // Cadence above the trace length: the crash precedes any durable
    // checkpoint, so recovery is pure replay from empty and must match
    // the continuous run bit for bit.
    let cfg = config(1000);
    let requests = trace(120);
    for crash_at in [1usize, 7, 40] {
        let _ = std::fs::remove_dir_all(&dir);
        let service = open_with_crash(&repo, cfg, &dir, Some(&format!("append:{crash_at}")));
        let completed = drive_until_crash(&service, &requests);
        // AfterAppend(N) fires during the Nth append, *after* the record
        // is durable: N-1 requests returned to the caller, N are on disk.
        assert_eq!(completed, crash_at - 1, "requests completed before crash");
        // Once dead, every later operation surfaces the crash too.
        assert!(matches!(
            service.get(requests[0]),
            Err(ServiceError::Crashed)
        ));
        drop(service);

        let recovered = open_with_crash(&repo, cfg, &dir, None);
        assert_eq!(recovered.wal_replayed(), crash_at as u64);
        assert_state_equal(
            &recovered,
            &reference_after(&repo, cfg, &requests, crash_at),
            &format!("append:{crash_at}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_final_append_costs_exactly_the_torn_record() {
    let repo = repo();
    let dir = scratch_dir("torn");
    let cfg = config(1000);
    let requests = trace(120);
    for crash_at in [1usize, 5, 33] {
        let _ = std::fs::remove_dir_all(&dir);
        let service = open_with_crash(&repo, cfg, &dir, Some(&format!("torn:{crash_at}")));
        let completed = drive_until_crash(&service, &requests);
        assert_eq!(completed, crash_at - 1);
        drop(service);

        // The torn record never became durable: recovery truncates it
        // and lands on the previous request's state.
        let opts = PersistOptions::at(&dir);
        let (recovered, report) =
            CacheService::open_persistent(Arc::clone(&repo), cfg, None, &opts).unwrap();
        assert_eq!(report.replayed, crash_at as u64 - 1);
        assert!(report.torn_bytes_dropped > 0, "the torn tail was counted");
        assert_state_equal(
            &recovered,
            &reference_after(&repo, cfg, &requests, crash_at - 1),
            &format!("torn:{crash_at}"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_checkpoint_keeps_the_full_wal() {
    let repo = repo();
    let dir = scratch_dir("midckpt");
    // Cadence 10: the first durable checkpoint is attempted at clock 10
    // and dies half-written. No checkpoint was ever completed, so
    // recovery is still pure replay — and must see all 10 records.
    let cfg = config(10);
    let requests = trace(120);
    let service = open_with_crash(&repo, cfg, &dir, Some("checkpoint:1"));
    let completed = drive_until_crash(&service, &requests);
    assert_eq!(completed, 9, "the 10th request died in its checkpoint");
    drop(service);

    let recovered = open_with_crash(&repo, cfg, &dir, None);
    assert_eq!(recovered.wal_replayed(), 10);
    assert_state_equal(
        &recovered,
        &reference_after(&repo, cfg, &requests, 10),
        "checkpoint:1",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_checkpoint_at_every_slot_write_keeps_the_previous_checkpoint() {
    let repo = repo();
    // Cadence 10: request 10k submits checkpoint k. The armed
    // checkpoint:N waits for checkpoint N − 1 to land, then tears the
    // slot not holding it — a freshly created slot file for N = 1 and
    // 2, an older frame overwritten in place from N = 3 on.
    let cfg = config(10);
    let requests = trace(120);
    for n in 1..=6usize {
        let label = format!("checkpoint:{n}");
        let dir = scratch_dir(&format!("slot-crash-{n}"));
        let service = open_with_crash(&repo, cfg, &dir, Some(&label));
        let completed = drive_until_crash(&service, &requests);
        assert_eq!(completed, 10 * n - 1, "{label}: request {} died", 10 * n);
        drop(service);

        let shard_dir = dir.join("shard-0");
        let slots = CHECKPOINT_SLOT_FILES
            .iter()
            .filter(|name| shard_dir.join(name).exists())
            .count();
        assert_eq!(slots, n.min(2), "{label}: slot files on disk");
        let landed = read_checkpoint(&shard_dir)
            .unwrap()
            .map(|json| DurableCheckpoint::from_json(&json).unwrap().seq);
        assert_eq!(
            landed,
            (n > 1).then(|| 10 * (n as u64 - 1)),
            "{label}: exactly the previous checkpoint is on disk"
        );
        let recovered = open_with_crash(&repo, cfg, &dir, None);
        assert_eq!(
            recovered.wal_replayed(),
            10,
            "{label}: the full WAL behind the previous checkpoint"
        );
        // Acked ⇒ durable: every acknowledged request, plus the dying
        // one, whose record was written before its checkpoint, is
        // counted once, and the resident set is the continuous run's.
        // (A restored checkpoint restarts the virtual clock from its
        // snapshot, so only the tick may differ.)
        let reference = reference_after(&repo, cfg, &requests, 10 * n);
        assert_eq!(recovered.stats(), reference.stats(), "{label}: stats");
        let residency = |service: &CacheService| {
            service
                .snapshot()
                .into_iter()
                .map(|snap| (snap.resident, snap.partial))
                .collect::<Vec<_>>()
        };
        assert_eq!(residency(&recovered), residency(&reference), "{label}");
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn crash_between_checkpoint_rename_and_wal_truncation_recovers() {
    let repo = repo();
    let dir = scratch_dir("rename-window");
    let control = scratch_dir("rename-window-control");
    let cfg = config(16);
    let requests = trace(40);
    let service = open_with_crash(&repo, cfg, &dir, None);
    for &clip in &requests {
        service.get(clip).unwrap();
    }
    let stats_before = service.stats();
    drop(service);
    // An untouched copy: the reference a clean reopen produces.
    copy_dir(&dir, &control);

    // The on-disk state a kill -9 between the checkpoint rename and the
    // WAL truncation leaves behind is what a normal run leaves too: the
    // renamed checkpoint covers through seq S, yet records with seq ≤ S
    // are still at the head of the active segment, which is never
    // truncated while it holds later records. Recovery must skip the
    // subsumed prefix — not refuse to start, not replay anything twice.
    let shard_dir = dir.join("shard-0");
    let ckpt_json = read_checkpoint(&shard_dir)
        .unwrap()
        .expect("a checkpoint landed");
    let seq: u64 = ckpt_json
        .split("\"seq\":")
        .nth(1)
        .expect("checkpoint records its seq")
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap();
    assert!(seq > 0, "a mid-stream checkpoint was written");
    let wal = std::fs::read(shard_dir.join(segment_file_name(1))).unwrap();
    let (records, _) = clipcache_serve::persist::decode_segment(&wal, 1).unwrap();
    let first = records.first().expect("the log keeps records").seq;
    assert!(
        first <= seq,
        "the log starts at seq {first}, inside the checkpoint's {seq}"
    );

    let opts = PersistOptions::at(&dir);
    let (recovered, report) =
        CacheService::open_persistent(Arc::clone(&repo), cfg, None, &opts).unwrap();
    assert_eq!(
        recovered.stats(),
        stats_before,
        "no request lost or doubled"
    );
    assert!(report.replayed < 40, "the subsumed prefix was not replayed");
    // The subsumed prefix is invisible: recovery lands exactly where a
    // completed truncation would have.
    let reference = open_with_crash(&repo, cfg, &control, None);
    assert_state_equal(&recovered, &reference, "rename-window vs clean reopen");
    drop(recovered);
    // The skip is idempotent: a second recovery sees a compacted store.
    let (again, report) =
        CacheService::open_persistent(Arc::clone(&repo), cfg, None, &opts).unwrap();
    assert_eq!(report.replayed, 0, "first recovery compacted the log");
    assert_eq!(again.stats(), stats_before);
    for d in [&dir, &control] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn recovery_is_deterministic_across_independent_runs() {
    let repo = repo();
    let dir = scratch_dir("determinism");
    let copy_a = scratch_dir("determinism-a");
    let copy_b = scratch_dir("determinism-b");
    // Cadence 16 with a crash at append 50: recovery consumes a real
    // mid-stream checkpoint *and* a WAL tail — the general case.
    let cfg = config(16);
    let requests = trace(120);
    let service = open_with_crash(&repo, cfg, &dir, Some("append:50"));
    drive_until_crash(&service, &requests);
    drop(service);

    // Recover the same durable state twice, independently.
    copy_dir(&dir, &copy_a);
    copy_dir(&dir, &copy_b);
    let a = open_with_crash(&repo, cfg, &copy_a, None);
    let b = open_with_crash(&repo, cfg, &copy_b, None);
    assert_eq!(a.wal_replayed(), b.wal_replayed());
    assert_state_equal(&a, &b, "two recoveries of one directory");
    // Counter conservation: everything the store acknowledged (49
    // completed + the crashed 50th, already durable) is counted once.
    assert_eq!(a.stats().requests(), 50);
    drop(a);
    drop(b);
    // Recovery compacted both copies the same way: byte-identical disks.
    assert_dirs_identical(&copy_a, &copy_b);

    // A recovered, untouched directory reopens with nothing to replay
    // and does not rewrite itself: back-to-back recoveries are no-ops.
    let (quiet, report) =
        CacheService::open_persistent(Arc::clone(&repo), cfg, None, &PersistOptions::at(&copy_a))
            .unwrap();
    assert_eq!(report.replayed, 0, "compaction left no WAL tail");
    assert_eq!(quiet.stats().requests(), 50);
    drop(quiet);
    assert_dirs_identical(&copy_a, &copy_b);

    for d in [&dir, &copy_a, &copy_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}

#[test]
fn crash_restart_loop_conserves_every_acknowledged_request() {
    let repo = repo();
    let dir = scratch_dir("loop");
    // Small cadence so restarts consume real checkpoints; the crash
    // point re-arms on every reopen, so the loop steps forward.
    let cfg = config(16);
    let requests = trace(200);
    let mut applied = 0usize;
    let mut restarts = 0usize;
    let mut service = open_with_crash(&repo, cfg, &dir, Some("append:48"));
    while applied < requests.len() {
        match service.get(requests[applied]) {
            Ok(_) => applied += 1,
            Err(ServiceError::Crashed) => {
                // AfterAppend made the crashed request durable before
                // dying: it counts as applied, exactly once.
                applied += 1;
                restarts += 1;
                service = open_with_crash(&repo, cfg, &dir, Some("append:48"));
                assert_eq!(
                    service.stats().requests(),
                    applied as u64,
                    "restart {restarts}: recovered counters disagree"
                );
            }
            Err(e) => panic!("unexpected error at request {applied}: {e}"),
        }
    }
    assert!(restarts >= 3, "the loop crashed {restarts} times");
    assert_eq!(service.stats().requests(), requests.len() as u64);
    // The survivors' residency is exactly the repository subset a
    // single shard can hold — no phantom or duplicated clips.
    let snaps = service.snapshot();
    assert_eq!(snaps.len(), 1);
    let mut seen = std::collections::HashSet::new();
    for &clip in &snaps[0].resident {
        assert!(clip.get() as usize <= CLIPS, "phantom clip {}", clip.get());
        assert!(seen.insert(clip), "clip resident twice");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Open a directory expecting refusal; returns the error message.
fn open_must_fail(repo: &Arc<Repository>, cfg: ServiceConfig, dir: &Path) -> String {
    match CacheService::open_persistent(Arc::clone(repo), cfg, None, &PersistOptions::at(dir)) {
        Ok(_) => panic!("open of incompatible state unexpectedly succeeded"),
        Err(e) => e.to_string(),
    }
}

#[test]
fn incompatible_durable_state_is_rejected_loudly() {
    let repo = repo();
    let dir = scratch_dir("reject");
    // Cadence 1 forces a durable checkpoint immediately.
    let cfg = config(1);
    let service = open_with_crash(&repo, cfg, &dir, None);
    for &clip in &trace(10) {
        service.get(clip).unwrap();
    }
    drop(service);

    // Wrong policy: the checkpoint names lru, the new config wants fifo.
    let fifo = ServiceConfig::new(clipcache_core::PolicyKind::Fifo, 1, ByteSize::mb(40), SEED)
        .with_checkpoint_every(1);
    let err = open_must_fail(&repo, fifo, &dir);
    assert!(err.contains("policy"), "policy mismatch surfaced: {err}");

    // A future checkpoint version is refused, not half-read — in a
    // valid frame, so the refusal is the version's, and with the
    // previous checkpoint still valid in the other slot, never a
    // fallback to it.
    let shard_dir = dir.join("shard-0");
    let json = read_checkpoint(&shard_dir)
        .unwrap()
        .expect("a checkpoint landed");
    assert!(
        json.contains("\"version\":2"),
        "checkpoint should be version 2: {json}"
    );
    write_checkpoint(
        &shard_dir,
        &json.replacen("\"version\":2", "\"version\":99", 1),
    )
    .unwrap();
    let err = open_must_fail(&repo, cfg, &dir);
    assert!(err.contains("version"), "version mismatch surfaced: {err}");

    // A version-1 checkpoint (whole-clip residency, no prefix_hits) is
    // named explicitly in the refusal.
    write_checkpoint(
        &shard_dir,
        &json.replacen("\"version\":2", "\"version\":1", 1),
    )
    .unwrap();
    let err = open_must_fail(&repo, cfg, &dir);
    assert!(
        err.contains("version 1") && err.contains("whole-clip"),
        "v1 rejection names the version and the layout: {err}"
    );

    // Mid-log WAL corruption is a loud error, never a silent cold start.
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = config(1000);
    let service = open_with_crash(&repo, cfg, &dir, None);
    for &clip in &trace(10) {
        service.get(clip).unwrap();
    }
    drop(service);
    let wal_path = dir.join("shard-0").join(segment_file_name(1));
    let mut wal = std::fs::read(&wal_path).unwrap();
    // A payload bit in the first record, just past the segment header
    // and the frame header.
    wal[clipcache_serve::persist::SEGMENT_HEADER_BYTES + 10] ^= 0x40;
    std::fs::write(&wal_path, &wal).unwrap();
    let err = open_must_fail(&repo, cfg, &dir);
    assert!(err.contains("corrupt"), "corruption surfaced: {err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poison_recovery_and_persistence_compose() {
    let repo = repo();
    let dir = scratch_dir("poison");
    // Cadence above the trace: the only checkpoint is the empty tick-0
    // one, so the poison rewind restarts from empty and the final state
    // is a pure replay — reopen must reproduce it bit for bit.
    let cfg = config(1000);
    let requests = trace(60);
    let service = open_with_crash(&repo, cfg, &dir, None);
    for &clip in &requests[..40] {
        service.get(clip).unwrap();
    }
    // Poison the shard mid-run: the next access rebuilds it from the
    // in-memory checkpoint and rewinds the durable store to match.
    service.poison(requests[40]);
    for &clip in &requests[40..] {
        service.get(clip).unwrap();
    }
    assert_eq!(service.recoveries(), 1);
    let stats_before = service.stats();
    let snaps_before = service.snapshot();
    drop(service);

    // The durable state reflects the post-poison timeline exactly.
    let recovered = open_with_crash(&repo, cfg, &dir, None);
    assert_eq!(recovered.stats(), stats_before);
    assert_eq!(recovered.snapshot(), snaps_before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The segment files currently in a shard directory, sorted.
fn segment_files(shard_dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(shard_dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.starts_with("wal.") && n.ends_with(".log"))
        .collect();
    names.sort();
    names
}

#[test]
fn crash_at_a_segment_boundary_loses_no_durable_record() {
    let repo = repo();
    let dir = scratch_dir("boundary");
    let cfg = config(1000);
    let requests = trace(120);
    // With four-record segments, the Nth seal (and the Nth roll) fires
    // inside the 4N-th append: that request dies, but the footer (or
    // partial-footer) fsync already made its record durable — same
    // accounting as `append:4N`.
    for (crash, n) in [
        ("seal:1", 1u64),
        ("seal:3", 3),
        ("segment-roll:1", 1),
        ("segment-roll:3", 3),
    ] {
        let _ = std::fs::remove_dir_all(&dir);
        let service = open_tuned_with_crash(
            &repo,
            cfg,
            &dir,
            Some(crash),
            WalSync::Off,
            four_record_segments(),
        );
        let completed = drive_until_crash(&service, &requests);
        let durable = 4 * n as usize;
        assert_eq!(completed, durable - 1, "{crash}: requests before death");
        assert!(matches!(
            service.get(requests[0]),
            Err(ServiceError::Crashed)
        ));
        drop(service);

        let recovered =
            open_tuned_with_crash(&repo, cfg, &dir, None, WalSync::Off, four_record_segments());
        assert_eq!(recovered.wal_replayed(), durable as u64, "{crash}: replay");
        assert_state_equal(
            &recovered,
            &reference_after(&repo, cfg, &requests, durable),
            crash,
        );
        drop(recovered);
        // Replay > 0 made recovery compact: exactly one live (active)
        // segment remains, and for a post-seal crash it is the
        // successor the dying process never got to create.
        let live = segment_files(&dir.join("shard-0"));
        assert_eq!(live.len(), 1, "{crash}: compacted to one segment: {live:?}");
        if crash.starts_with("segment-roll") {
            assert_eq!(live[0], segment_file_name(n + 1), "{crash}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn double_recovery_of_a_multi_segment_log_is_idempotent() {
    let repo = repo();
    let dir = scratch_dir("multiseg");
    let copy_a = scratch_dir("multiseg-a");
    let copy_b = scratch_dir("multiseg-b");
    let cfg = config(1000);
    let requests = trace(120);
    // Crash at append 11 with four-record segments: segments 1 and 2
    // are sealed, segment 3 holds the live tail — recovery flattens a
    // genuinely multi-segment log.
    let service = open_tuned_with_crash(
        &repo,
        cfg,
        &dir,
        Some("append:11"),
        WalSync::Off,
        four_record_segments(),
    );
    drive_until_crash(&service, &requests);
    drop(service);
    assert_eq!(
        segment_files(&dir.join("shard-0")),
        vec![
            segment_file_name(1),
            segment_file_name(2),
            segment_file_name(3)
        ],
        "the crash left a multi-segment log"
    );

    copy_dir(&dir, &copy_a);
    copy_dir(&dir, &copy_b);
    let a = open_tuned_with_crash(
        &repo,
        cfg,
        &copy_a,
        None,
        WalSync::Off,
        four_record_segments(),
    );
    let b = open_tuned_with_crash(
        &repo,
        cfg,
        &copy_b,
        None,
        WalSync::Off,
        four_record_segments(),
    );
    assert_eq!(a.wal_replayed(), 11);
    assert_eq!(b.wal_replayed(), 11);
    assert_state_equal(&a, &b, "two recoveries of a multi-segment log");
    assert_eq!(a.stats().requests(), 11);
    drop(a);
    drop(b);
    assert_dirs_identical(&copy_a, &copy_b);

    // And the recovered directory is a fixed point: reopening replays
    // nothing and rewrites nothing.
    let quiet = open_tuned_with_crash(
        &repo,
        cfg,
        &copy_a,
        None,
        WalSync::Off,
        four_record_segments(),
    );
    assert_eq!(quiet.wal_replayed(), 0);
    assert_eq!(quiet.stats().requests(), 11);
    drop(quiet);
    assert_dirs_identical(&copy_a, &copy_b);

    for d in [&dir, &copy_a, &copy_b] {
        let _ = std::fs::remove_dir_all(d);
    }
}

/// The WAL sync modes the pipelined tear runs under: staged writes
/// alone, and staged writes plus a group-committed fsync with the
/// leader syncing at once or waiting up to 100 µs.
const SYNC_MODES: [(WalSync, u64); 3] = [
    (WalSync::Off, 0),
    (WalSync::Always, 0),
    (WalSync::Always, 100),
];

#[test]
fn torn_append_mid_pipelined_window_loses_no_answered_request() {
    for (sync, window_us) in SYNC_MODES {
        torn_append_mid_pipelined_window(sync, window_us);
    }
}

/// Tear appends mid-window under `sync` with a `window_us` commit
/// window, then check every answered request is on disk.
fn torn_append_mid_pipelined_window(sync: WalSync, window_us: u64) {
    let mode = format!("{}-{window_us}", sync.spelling());
    let dir = scratch_dir(&format!("pipelined-torn-{mode}"));
    // 4 shards of 4 MB-chunked clips, no periodic checkpoint: the WAL
    // holds every logged request. Each shard tears its 20th append.
    // Shards 0–2 take 31 requests of every window of 32, so their
    // tears land mid-window; shard 3 takes one per window, never
    // tears, and must still have written every request it answered.
    let repo = Arc::new(paper::variable_sized_repository_of(48).with_chunk_size(ByteSize::mb(4)));
    let cfg = ServiceConfig::new(
        clipcache_core::PolicyKind::Lru,
        4,
        repo.cache_capacity_for_ratio(0.25),
        SEED,
    )
    .with_checkpoint_every(1_000_000);
    let tuning = WalTuning {
        commit_window: Duration::from_micros(window_us),
        ..WalTuning::default()
    };
    let service = open_tuned_with_crash(&repo, cfg, &dir, Some("torn:20"), sync, tuning);
    let server = serve_with(Arc::new(service), "127.0.0.1:0", ServerConfig::default())
        .expect("server binds");
    let mut client =
        TcpCacheClient::connect_wire(server.addr(), None, Wire::Binary).expect("client connects");
    let (hot, cold): (Vec<ClipId>, Vec<ClipId>) =
        repo.ids().partition(|&clip| shard_of(clip, 4) != 3);
    let mut answered = vec![0u64; repo.len() + 1];
    let (mut ok, mut refused) = (0u64, 0u64);
    for window in 0..8usize {
        let mut clips: Vec<ClipId> = (0..31)
            .map(|i| hot[(window * 31 + i) * 7 % hot.len()])
            .collect();
        clips.insert(window * 4 % 32, cold[window % cold.len()]);
        client.send_gets(&clips).expect("window sent");
        for clip in &clips {
            match client.recv_get() {
                Ok(_) => {
                    answered[clip.get() as usize] += 1;
                    ok += 1;
                }
                Err(e) => {
                    assert!(
                        e.to_string().starts_with("ERR "),
                        "a structured refusal: {e}"
                    );
                    assert_ne!(shard_of(*clip, 4), 3, "{mode}: shard 3 never tears");
                    refused += 1;
                }
            }
        }
    }
    assert!(refused > 0, "{mode}: the torn appends fired");
    assert!(ok > 0, "{mode}: requests before the tears were served");
    client.quit().expect("clean disconnect");
    // The crash surfaced, so dropping the service (with the server)
    // writes nothing more.
    server.shutdown();

    // Every answered request has its record on disk.
    let mut logged = vec![0u64; repo.len() + 1];
    let mut records = 0u64;
    for shard in 0..4 {
        let shard_dir = dir.join(format!("shard-{shard}"));
        for (i, name) in segment_files(&shard_dir).iter().enumerate() {
            let bytes = std::fs::read(shard_dir.join(name)).unwrap();
            let (decoded, _) = decode_segment(&bytes, i as u64 + 1).expect("only a torn tail");
            for r in decoded {
                logged[r.clip.get() as usize] += 1;
                records += 1;
            }
        }
    }
    for (clip, (&a, &l)) in answered.iter().zip(&logged).enumerate() {
        assert!(a <= l, "{mode} clip {clip}: {a} answered, {l} on disk");
    }
    // And reopening recovers all of them.
    let recovered = open_with_crash(&repo, cfg, &dir, None);
    assert_eq!(recovered.wal_replayed(), records, "{mode}");
    assert_eq!(recovered.stats().requests(), records, "{mode}");
    assert!(records >= ok, "{mode}");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_in_process_clients_on_a_durable_service_are_all_recovered() {
    // Four in-process connections, each served by a node of its own,
    // pipeline binary batches into one durable service under
    // `--wal-sync always`: every delivered request must be on disk.
    let repo = repo();
    let dir = scratch_dir("inproc-clients");
    let cfg = ServiceConfig::new(clipcache_core::PolicyKind::Lru, 4, ByteSize::mb(40), SEED)
        .with_checkpoint_every(1_000_000);
    let tuned = |dir: &Path| {
        let sync = WalSync::Always;
        open_tuned_with_crash(&repo, cfg, dir, None, sync, WalTuning::default())
    };
    let service = Arc::new(tuned(&dir));
    let trace = Trace::from_generator(RequestGenerator::new(CLIPS, 0.27, 0, 4_000, 9));
    let options = LoadOptions {
        clients: 4,
        wire: Wire::Binary,
        pipeline: 8,
        ..LoadOptions::default()
    };
    let report = run_load_with(
        &Target::InProcess(Arc::clone(&service)),
        &repo,
        &trace,
        &options,
    )
    .expect("in-process load");
    assert_eq!(report.chaos.delivered, 4_000);
    assert!(report.conserved());
    let served = service.stats();
    drop(service);

    let recovered = tuned(&dir);
    assert_eq!(recovered.wal_replayed(), report.chaos.delivered);
    assert_eq!(
        recovered.stats(),
        served,
        "the replay rebuilds what was served"
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
