//! Open's memory stays flat however long the subsumed prefix: a 4 MiB
//! segment whose records all but ten sit at or below the checkpoint
//! streams through one fixed buffer, and only the ten live records are
//! ever materialized. A counting global allocator measures the peak
//! live heap during `open_tuned`; this file holds a single test so no
//! other test's allocations share the counter.

use clipcache_core::snapshot::CacheSnapshot;
use clipcache_core::PolicyKind;
use clipcache_media::{paper, ByteSize, ClipId};
use clipcache_serve::persist::{
    decode_segment, segment_file_name, segment_header, write_checkpoint, DurableCheckpoint,
    PersistError, ShardStore, WalOp, WalRecord, WalSync, WalTuning, DEFAULT_SEGMENT_BYTES,
    SEGMENT_HEADER_BYTES,
};
use clipcache_sim::metrics::HitStats;
use clipcache_workload::Timestamp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Seek, SeekFrom, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Records in the segment: 24 + 160,000 × 25 bytes fills just under
/// the default 4 MiB roll threshold.
const RECORDS: u64 = 160_000;
/// Records after the planted checkpoint.
const TAIL: u64 = 10;
const FRAME_BYTES: u64 = 25;

#[test]
fn open_streams_a_subsumed_segment_in_bounded_memory() {
    let dir = std::env::temp_dir().join(format!("clipcache-open-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let seg = dir.join(segment_file_name(1));
    {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&seg).unwrap());
        out.write_all(&segment_header(1)).unwrap();
        for seq in 1..=RECORDS {
            let record = WalRecord {
                seq,
                clip: ClipId::new((seq % 24) as u32 + 1),
                chunk: 0,
                op: WalOp::Get,
            };
            out.write_all(&record.encode()).unwrap();
        }
        out.flush().unwrap();
    }
    let seg_len = std::fs::metadata(&seg).unwrap().len();
    assert_eq!(seg_len, SEGMENT_HEADER_BYTES as u64 + RECORDS * FRAME_BYTES);
    assert!(seg_len < DEFAULT_SEGMENT_BYTES, "one unsealed segment");
    let cutoff = RECORDS - TAIL;
    let repo = Arc::new(paper::equi_sized_repository_of(4, ByteSize::mb(1)));
    let cache = PolicyKind::Lru.build(repo, ByteSize::mb(4), 1, None);
    let checkpoint = DurableCheckpoint {
        snapshot: CacheSnapshot::take(cache.as_ref(), PolicyKind::Lru, Timestamp(cutoff)),
        stats: HitStats::new(),
        seq: cutoff,
    };
    write_checkpoint(&dir, &checkpoint.to_json()).unwrap();
    drop(cache);

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let (store, state) = ShardStore::open_tuned(&dir, WalSync::Off, WalTuning::default()).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert_eq!(state.subsumed_records, cutoff);
    assert_eq!(
        state.records.iter().map(|r| r.seq).collect::<Vec<_>>(),
        (cutoff + 1..=RECORDS).collect::<Vec<_>>(),
        "exactly the records after the checkpoint"
    );
    assert_eq!(store.next_seq(), RECORDS + 1);
    assert!(
        peak < 1 << 20,
        "open of a {seg_len}-byte segment peaked at {peak} live heap bytes"
    );
    drop(store);
    let (kept, _) = decode_segment(&std::fs::read(&seg).unwrap(), 1).unwrap();
    assert!(
        kept.iter().map(|r| r.seq).eq(1..=RECORDS),
        "the live tail keeps the segment whole"
    );
    drop(kept);
    assert_eq!(
        std::fs::metadata(&seg).unwrap().len(),
        seg_len,
        "a clean close trims the segment to its records"
    );

    // A corrupt frame deep in the subsumed prefix is still loud, and
    // its offset is the frame's absolute position in the file.
    let victim = 100_000;
    let offset = SEGMENT_HEADER_BYTES as u64 + victim * FRAME_BYTES;
    let mut file = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
    file.seek(SeekFrom::Start(offset + 12)).unwrap();
    file.write_all(&[0xA5]).unwrap();
    drop(file);
    match ShardStore::open_tuned(&dir, WalSync::Off, WalTuning::default()).map(|_| ()) {
        Err(PersistError::Corrupt { offset: at, reason }) => {
            assert_eq!(at, offset, "absolute offset ({reason})");
        }
        other => panic!("a corrupt subsumed frame must be loud, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
