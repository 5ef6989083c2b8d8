//! What the benchmark needs from its host: a seeded generator, the run
//! record's facts (cores, commit, peak memory, page faults), and a
//! scratch directory inside the checkout.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// SplitMix64: a small, seedable generator for batch orders. The
/// program under test never sees it, only the inputs it orders.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; distinct `stream`s of one seed are
    /// independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut out: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            out.swap(i, (self.next_u64() % (i as u64 + 1)) as usize);
        }
        out
    }
}

/// Returns the heap's free memory to the kernel (glibc `malloc_trim`),
/// so the next allocations fault their pages in as they would in a
/// freshly started process. Changes no allocator setting.
///
/// glibc's default policy keeps or returns freed memory depending on
/// what sits at the top of the heap, so without this the same
/// simulator run reused its ~7 MB of buffers in some processes and
/// faulted them in afresh (1700 faults, 3–4 ms) in others. Trimming,
/// untimed, before each run makes every run pay what a user who starts
/// the profiler pays.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only releases free memory under the
    // allocator's own locks; no live allocation is touched.
    unsafe {
        malloc_trim(0);
    }
}

/// Other platforms leave the heap as it is.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

/// The cores the process could use before [`pin_to_one_core`] and the
/// core it was pinned to.
static PINNED: OnceLock<(usize, usize)> = OnceLock::new();

/// Logical cores available to this process, before any pinning.
pub fn cores() -> usize {
    PINNED.get().map_or_else(
        || std::thread::available_parallelism().map_or(1, usize::from),
        |&(cores, _)| cores,
    )
}

/// The core [`pin_to_one_core`] pinned the process to, if it did.
pub fn pinned_core() -> Option<usize> {
    PINNED.get().map(|&(_, core)| core)
}

/// Restricts the calling thread, and every thread it starts from now
/// on, to the highest-numbered core it may run on. Called first thing,
/// it pins the whole process. Returns that core, or `None` if the
/// affinity could not be read or set (the process then runs as before).
///
/// On a shared virtual machine, waking a thread on an idle core waits
/// for the host to run that virtual core, and that wait grows with the
/// host's other load. On one core a handoff between threads is a
/// context switch on a core that is already running.
#[cfg(target_os = "linux")]
pub fn pin_to_one_core() -> Option<usize> {
    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: both calls read or write exactly `size_of::<CpuSet>()`
    // bytes of a mask that lives across the call; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return None;
    }
    let cores = allowed.iter().map(|w| w.count_ones() as usize).sum();
    let core = (0..allowed.len() * 64)
        .rev()
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one: CpuSet = [0; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: as above.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return None;
    }
    let _ = PINNED.set((cores, core));
    Some(core)
}

/// Other platforms are not pinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_core() -> Option<usize> {
    None
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Minor page faults this process (every thread) has taken so far;
/// 0 where `/proc/self/stat` cannot be read.
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at the state
    // (field 3); minflt is field 10.
    stat.rsplit_once(") ")
        .and_then(|(_, rest)| rest.split_whitespace().nth(7)?.parse().ok())
        .unwrap_or(0)
}

/// The benchmark package's directory (where `Cargo.toml` lives).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The commit the checkout is at, read from `.git` without running git
/// (git would search directories above the checkout). `"unknown"` in a
/// checkout without `.git`.
pub fn commit() -> String {
    let git = package_dir().join("../.git");
    let resolve = || -> Option<String> {
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
            return Some(id.trim().to_string());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed
            .lines()
            .find(|l| l.ends_with(reference))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
    };
    resolve().unwrap_or_else(|| "unknown".to_string())
}

/// Where traces and scratch stores go: `out/` in the package, which the
/// repository ignores.
pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// A fresh, empty directory under [`out_dir`] for one store, unique per
/// process and call; removed when the guard drops.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates the directory.
    ///
    /// # Panics
    ///
    /// If the directory cannot be created: the benchmark cannot run
    /// without it.
    pub fn new(label: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = out_dir().join(format!("store-{label}-{}-{n}", std::process::id()));
        drop(std::fs::remove_dir_all(&dir));
        std::fs::create_dir_all(&dir).expect("scratch store directory is creatable");
        ScratchDir(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        drop(std::fs::remove_dir_all(&self.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_faults_are_counted() {
        let before = minor_faults();
        let touched: Vec<u8> = vec![1; 8 << 20];
        assert!(std::hint::black_box(touched).iter().all(|&b| b == 1));
        assert!(minor_faults() > before, "touching 8 MiB faults pages in");
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = Rng::new(7, 1).permutation(100);
        assert_eq!(a, Rng::new(7, 1).permutation(100));
        assert_ne!(a, Rng::new(8, 1).permutation(100));
        assert_ne!(a, Rng::new(7, 2).permutation(100));
        let mut sorted = a;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }
}
