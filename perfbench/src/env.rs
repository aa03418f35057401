//! Environment pinning and provenance.

use partree_service::Transport;
use partree_store::LogConfig;

/// Removes every `PARTREE_*` variable (transport, fsync, cache quota,
/// seq cutoff, fault injection, delta ratio, warm donors, legacy
/// executor, ...) and `RAYON_NUM_THREADS` (the construction pools' width)
/// before any thread starts, so the fleet runs its defaults. Returns the
/// names removed.
pub fn scrub() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PARTREE_") || k == "RAYON_NUM_THREADS")
        .collect();
    names.sort();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git work tree.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(r)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU time the hypervisor gave to other guests ("steal"), summed over
/// this machine's CPUs, in kernel ticks (`USER_HZ`, 100 per second on
/// Linux); `None` where `/proc/stat` has no steal column.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// The transport the replicas and gateway run (after [`scrub`], the
/// default).
pub fn transport() -> String {
    format!("{:?}", Transport::from_env()).to_lowercase()
}

/// The tier-1 fsync policy in effect (after [`scrub`], the default).
pub fn fsync_policy() -> String {
    format!("{:?}", LogConfig::default().fsync)
}

/// Pins glibc malloc to a single arena. With one arena per thread (the
/// default, up to 8 per core) the fleet's peak RSS varied by half from
/// run to run on one seed; with one it repeats within a few percent.
/// Must run before any thread starts. Returns the setting for the
/// provenance line.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn pin_malloc_arenas() -> &'static str {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// `M_ARENA_MAX` in glibc's `<malloc.h>`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's documented allocator-tuning entry
    // point; it takes two integers by value and changes only malloc's
    // own parameters. It runs before this process starts any thread.
    if unsafe { mallopt(M_ARENA_MAX, 1) } == 1 {
        "1"
    } else {
        "default (mallopt refused)"
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn pin_malloc_arenas() -> &'static str {
    "default (not glibc)"
}
