//! The host record, process counters, the environment scrub, and the run's
//! scratch directory.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use byterobust_incident::JsonValue;

/// Names of the `BYTEROBUST_*` variables set in this process's environment.
/// Every such variable is an option of the program under test (see
/// `docs/FLAGS.md`); the benchmark measures defaults, so the launcher
/// removes them from each workload's environment and a workload refuses to
/// run with any of them set.
pub fn flag_variables() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(name, _)| name.into_string().ok())
        .filter(|name| name.starts_with("BYTEROBUST_"))
        .collect()
}

/// What every result records about the host and the build.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// Cores this process may run on.
    pub nproc: usize,
    /// Wall time of one thread spinning through a fixed amount of work.
    pub spin_one_s: f64,
    /// Wall time of `nproc` threads each spinning through the same work.
    pub spin_all_s: f64,
    pub rustc: String,
    pub commit: String,
}

impl HostRecord {
    pub fn take() -> HostRecord {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let spin_one_s = spin(1);
        let spin_all_s = spin(nproc);
        HostRecord {
            nproc,
            spin_one_s,
            spin_all_s,
            rustc: first_line_of("rustc", &["--version"]),
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
        }
    }

    /// How many of the `nproc` spinning threads really ran at once: close to
    /// `nproc` when the cores are real and idle, close to 1 when they are
    /// time-sliced.
    pub fn parallel_speedup(&self) -> f64 {
        self.nproc as f64 * self.spin_one_s / self.spin_all_s.max(1e-9)
    }

    /// One JSON line naming the host, the build and the workload seed.
    pub fn render(&self, workload: &str, seed: u64) -> String {
        let record = JsonValue::object(vec![
            ("workload", JsonValue::Str(workload.to_string())),
            ("seed", JsonValue::U64(seed)),
            ("nproc", JsonValue::U64(self.nproc as u64)),
            ("spin_one_thread_s", JsonValue::F64(self.spin_one_s)),
            ("spin_nproc_threads_s", JsonValue::F64(self.spin_all_s)),
            (
                "spin_parallel_speedup",
                JsonValue::F64(self.parallel_speedup()),
            ),
            ("rustc", JsonValue::Str(self.rustc.clone())),
            ("commit", JsonValue::Str(self.commit.clone())),
        ]);
        format!("host {}", record.render())
    }
}

/// Runs a program and returns the first line it prints, or `unknown` when it
/// cannot run or fails (the benchmark's checkout is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    match Command::new(program).args(args).output() {
        Ok(output) if output.status.success() => String::from_utf8_lossy(&output.stdout)
            .lines()
            .next()
            .unwrap_or("unknown")
            .to_string(),
        _ => "unknown".to_string(),
    }
}

/// Wall time for `threads` threads to each run the same fixed spin.
fn spin(threads: usize) -> f64 {
    const ITERATIONS: u64 = 20_000_000;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut x = t as u64 + 1;
                for _ in 0..ITERATIONS {
                    x = std::hint::black_box(
                        x.wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407),
                    );
                }
            });
        }
    });
    start.elapsed().as_secs_f64()
}

/// Resource usage of this process so far, including threads that have
/// already exited (the fleet stepper starts and joins threads per batch).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
    pub peak_rss_mb: f64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod rusage {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct RUsage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss_kib: i64,
        pub rest: [i64; 11],
        pub nvcsw: i64,
        pub nivcsw: i64,
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }

    pub const RUSAGE_SELF: i32 = 0;
    pub const RUSAGE_THREAD: i32 = 1;
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
use rusage::{RUSAGE_SELF as WHO_SELF, RUSAGE_THREAD as WHO_THREAD};
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
const WHO_SELF: i32 = 0;
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
const WHO_THREAD: i32 = 1;

impl Usage {
    /// Usage of the whole process.
    pub fn now() -> Usage {
        Usage::of(WHO_SELF)
    }

    /// Usage of the calling thread alone.
    pub fn thread() -> Usage {
        Usage::of(WHO_THREAD)
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn of(who: i32) -> Usage {
        let mut usage = rusage::RUsage::default();
        // SAFETY: `usage` is a valid, writable `struct rusage` for 64-bit
        // Linux (layout above), and `who` is RUSAGE_SELF or RUSAGE_THREAD.
        let status = unsafe { rusage::getrusage(who, &mut usage) };
        assert_eq!(status, 0, "getrusage cannot fail for these arguments");
        let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
        Usage {
            user_s: secs(usage.utime),
            sys_s: secs(usage.stime),
            ctx_switches: (usage.nvcsw + usage.nivcsw) as u64,
            peak_rss_mb: usage.maxrss_kib as f64 / 1024.0,
        }
    }

    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    fn of(_who: i32) -> Usage {
        Usage::default()
    }

    /// Counters accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
            peak_rss_mb: self.peak_rss_mb,
        }
    }
}

/// A per-run directory for spill segments, inside the checkout, removed when
/// dropped.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn create(workload: &str) -> std::io::Result<ScratchDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap_or(Duration::ZERO)
            .as_nanos();
        let path = PathBuf::from(".perfbench-tmp")
            .join(format!("{workload}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Removes the parent only once no other run uses it.
        let _ = std::fs::remove_dir(".perfbench-tmp");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_counts_cpu_time_and_peak_memory() {
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x ^ i.wrapping_mul(31));
        }
        let spent = Usage::now().since(&before);
        assert!(spent.user_s + spent.sys_s > 0.0);
        assert!(spent.peak_rss_mb > 1.0);
    }

    #[test]
    fn host_record_renders_as_json() {
        let record = HostRecord {
            nproc: 2,
            spin_one_s: 0.1,
            spin_all_s: 0.1,
            rustc: "rustc 1.0".to_string(),
            commit: "unknown".to_string(),
        };
        assert_eq!(record.parallel_speedup(), 2.0);
        let line = record.render("prod_job", 3);
        let json = JsonValue::parse(line.strip_prefix("host ").unwrap()).unwrap();
        assert_eq!(json.get("seed"), Some(&JsonValue::U64(3)));
        assert_eq!(json.get("nproc"), Some(&JsonValue::U64(2)));
    }
}
