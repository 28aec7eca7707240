//! What the host says about this process: per-thread scheduler time from
//! `/proc/self/task/*/schedstat`, and the resident-set high-water mark.

use std::collections::HashMap;
use std::fs;
use std::time::{Duration, Instant};

/// On-CPU and run-queue-wait nanoseconds of one thread.
#[derive(Debug, Clone, Copy, Default)]
struct TaskTimes {
    cpu_ns: u64,
    wait_ns: u64,
}

/// Reads every live thread's schedstat line (`<on-cpu ns> <wait ns>
/// <timeslices>`), or `None` when the kernel does not provide it.
fn read_tasks() -> Option<HashMap<u32, TaskTimes>> {
    let mut out = HashMap::new();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let entry = entry.ok()?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        // A thread can exit between the directory read and this one.
        let Ok(line) = fs::read_to_string(entry.path().join("schedstat")) else { continue };
        let mut fields = line.split_whitespace().map(|f| f.parse::<u64>().ok());
        let (Some(Some(cpu_ns)), Some(Some(wait_ns))) = (fields.next(), fields.next()) else {
            return None;
        };
        out.insert(tid, TaskTimes { cpu_ns, wait_ns });
    }
    (!out.is_empty()).then_some(out)
}

/// Host-wide stolen time so far (the `steal` column of `/proc/stat`'s
/// `cpu` line, in seconds at 100 ticks/s), if the kernel reports it.
fn steal_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let ticks: f64 = stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / 100.0)
}

/// Scheduler time spent by this process over one measured interval.
#[derive(Debug, Clone, Copy)]
pub struct SchedTotals {
    /// On-CPU seconds summed over every thread.
    pub cpu_s: f64,
    /// Seconds threads spent runnable but waiting for a CPU.
    pub wait_s: f64,
    /// CPU seconds the hypervisor gave to other guests, summed over every
    /// CPU of this machine (0 when unknown).
    pub steal_s: f64,
    /// `"schedstat"`, or `"wall"` when the kernel has no schedstat and
    /// wall clock stands in for CPU time.
    pub source: &'static str,
}

/// Sums per-thread scheduler time over an interval in which threads come
/// and go.
///
/// Campaign workers live only as long as one campaign call, and an exited
/// thread vanishes from `/proc/self/task`, so the sampler polls during the
/// interval (from the campaign's progress callback) and keeps each
/// thread's last reading.
pub struct SchedSampler {
    start: Instant,
    steal0: Option<f64>,
    base: Option<HashMap<u32, TaskTimes>>,
    last: HashMap<u32, TaskTimes>,
    polled: Instant,
}

/// Minimum spacing of progress-driven polls.
const POLL_EVERY: Duration = Duration::from_millis(50);

impl SchedSampler {
    /// Starts an interval now.
    pub fn start() -> Self {
        let base = read_tasks();
        let last = base.clone().unwrap_or_default();
        Self { start: Instant::now(), steal0: steal_s(), base, last, polled: Instant::now() }
    }

    fn read_into_last(&mut self) {
        if let Some(now) = read_tasks() {
            self.last.extend(now);
        }
        self.polled = Instant::now();
    }

    /// Records the live threads' times if the last poll is old enough, or
    /// unconditionally with `force`.
    pub fn poll(&mut self, force: bool) {
        if self.base.is_some() && (force || self.polled.elapsed() >= POLL_EVERY) {
            self.read_into_last();
        }
    }

    /// Ends the interval: one last poll, then the per-thread deltas summed.
    pub fn finish(mut self) -> SchedTotals {
        let wall = self.start.elapsed().as_secs_f64();
        let steal_s = match (self.steal0, steal_s()) {
            (Some(before), Some(after)) => after - before,
            _ => 0.0,
        };
        let Some(base) = self.base.take() else {
            return SchedTotals { cpu_s: wall, wait_s: 0.0, steal_s, source: "wall" };
        };
        self.read_into_last();
        let (mut cpu_ns, mut wait_ns) = (0u64, 0u64);
        for (tid, now) in &self.last {
            let before = base.get(tid).copied().unwrap_or_default();
            cpu_ns += now.cpu_ns.saturating_sub(before.cpu_ns);
            wait_ns += now.wait_ns.saturating_sub(before.wait_ns);
        }
        SchedTotals {
            cpu_s: cpu_ns as f64 / 1e9,
            wait_s: wait_ns as f64 / 1e9,
            steal_s,
            source: "schedstat",
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, if the kernel
/// reports it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
