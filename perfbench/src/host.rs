//! Host facts printed with every report, and the process's peak
//! resident set: cache sizes come from `cpuid`, the commit from
//! `git describe`, memory from the kernel's own account of the process.

/// Worker threads the host offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Data and unified cache sizes, e.g. `L1d 48K L2 2048K L3 307200K`,
/// or `unknown` where `cpuid` does not describe them.
pub fn cache_sizes() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        // Intel describes its caches in leaf 4, AMD in 0x8000_001D.
        #[allow(unused_unsafe)]
        // SAFETY: `cpuid` exists on every x86-64 processor and only
        // reads identification registers; leaf 0x8000_0000 reports the
        // highest extended leaf before 0x8000_001D is queried.
        let extended_max = unsafe { __cpuid(0x8000_0000).eax };
        let mut leaves = vec![4u32];
        if extended_max >= 0x8000_001D {
            leaves.push(0x8000_001D);
        }
        for leaf in leaves {
            let mut parts = Vec::new();
            for sub in 0..8 {
                #[allow(unused_unsafe)]
                // SAFETY: as above; an unknown sub-leaf reports type 0.
                let r = unsafe { __cpuid_count(leaf, sub) };
                let kind = r.eax & 0x1F;
                if kind == 0 {
                    break;
                }
                if kind == 2 {
                    continue; // instruction cache
                }
                let level = (r.eax >> 5) & 0x7;
                let ways = u64::from((r.ebx >> 22) + 1);
                let partitions = u64::from(((r.ebx >> 12) & 0x3FF) + 1);
                let line = u64::from((r.ebx & 0xFFF) + 1);
                let sets = u64::from(r.ecx) + 1;
                let kib = ways * partitions * line * sets / 1024;
                let name = if level == 1 {
                    "L1d"
                } else {
                    ["", "", "L2", "L3", "L4"][level.min(4) as usize]
                };
                parts.push(format!("{name} {kib}K"));
            }
            if !parts.is_empty() {
                return parts.join(" ");
            }
        }
    }
    "unknown".to_string()
}

/// `git describe --always --dirty` of the working directory; `unknown`
/// where git is missing or the directory holds no `.git` (git is not
/// run then, so it does not search the parent directories).
pub fn git_describe() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `struct rusage` on 64-bit Linux: user and system time as `timeval`s
/// (seconds, microseconds), then 14 longs of which `ru_maxrss` (KiB) is
/// the first.
#[repr(C)]
struct RUsage {
    times: [i64; 4],
    maxrss: i64,
    rest: [i64; 13],
}

/// This process's resource usage; `None` if the call failed.
fn rusage() -> Option<RUsage> {
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut usage = RUsage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the
    // platform layout, and RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    (rc == 0).then_some(usage)
}

/// Peak resident set of this process so far, in MiB: `VmHWM` from the
/// kernel's `/proc/self/status`, which starts afresh at `exec`. Where
/// that is unreadable, `getrusage(2)`'s `ru_maxrss`, which also counts
/// the image the process replaced (under `cargo run`, cargo's own).
pub fn peak_rss_mib() -> f64 {
    let hwm_kib = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        });
    hwm_kib
        .or_else(|| rusage().map(|u| u.maxrss as f64))
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
