//! Process counters read from `/proc`, and the run environment.

use std::path::Path;

fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Peak resident set (`VmHWM`) in kB.
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    field(&status, "VmHWM:").unwrap_or(0)
}

/// Bytes this process passed to `write`-family calls on files
/// (`wchar`; socket `send`s are not counted).
pub fn wchar() -> u64 {
    let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
    field(&io, "wchar:").unwrap_or(0)
}

/// CPU time of the calling thread in ns.
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The calling thread's id.
pub fn own_tid() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    Some(link.file_name()?.to_string_lossy().into_owned())
}

/// Voluntary context switches summed over every thread but the caller
/// and `other`: the server event loops, the only other threads busy
/// during a run.
pub fn server_voluntary_switches(other: Option<&str>) -> u64 {
    let me = own_tid();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            let tid = t.file_name().to_string_lossy().into_owned();
            Some(tid.as_str()) != me.as_deref() && Some(tid.as_str()) != other
        })
        .filter_map(|t| std::fs::read_to_string(t.path().join("status")).ok())
        .filter_map(|s| field(&s, "voluntary_ctxt_switches:"))
        .sum()
}

/// The commit the benchmark was built from, read from `.git` beside
/// it, or `unknown` outside a git checkout.
pub fn git_commit(repo_root: &Path) -> String {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return commit.trim().into();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference)?.trim().to_owned().into())
        .filter(|c: &String| !c.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The kernel release.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into())
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pin the calling thread, and so every thread it spawns afterwards, to
/// one CPU: the highest it is allowed to run on. Returns that CPU, or
/// `None` when the affinity calls fail.
///
/// Generator and servers then share one core. Left to the scheduler,
/// their placement across two cores changes from second to second, and
/// throughput with it by a third.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}
