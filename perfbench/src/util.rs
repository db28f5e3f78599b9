//! Measurement plumbing shared by every workload: the metric sink and
//! result line, order statistics, peak memory, the scratch directory,
//! the in-memory span recorder, and the re-exec helper that runs a
//! program step in a child process of its own.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Worker threads for every parallel layer: all the cores the process
/// may use, never more.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Seconds of a duration as a float.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Nearest-rank quantile of unsorted samples (`q` in `0..=1`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted samples (mean of the middle pair when even).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Size of a file, or of every file under a directory, in MB.
pub fn disk_mb(path: &Path) -> f64 {
    fn bytes(path: &Path) -> u64 {
        match std::fs::metadata(path) {
            Ok(m) if m.is_dir() => std::fs::read_dir(path)
                .map(|rd| rd.flatten().map(|e| bytes(&e.path())).sum())
                .unwrap_or(0),
            Ok(m) => m.len(),
            Err(_) => 0,
        }
    }
    bytes(path) as f64 / (1024.0 * 1024.0)
}

/// A process-global `towerlens_obs` counter.
pub fn counter(name: &str) -> u64 {
    towerlens_obs::global().snapshot().counter(name)
}

/// A scratch directory inside the working directory (the checkout),
/// removed with everything under it when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> WorkDir {
        let dir = PathBuf::from(".perfbench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
        WorkDir(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still owns a sibling directory).
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Runs this binary again as `perfbench <args>` and returns its
/// stdout, so a program step (a cold study, an artifact write) pays
/// for — and keeps — its own process and memory high-water mark.
pub fn run_child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child stdout: {e}"))
}

/// Named metrics with units, plus the operation tally, rendered as the
/// benchmark's one-line JSON result.
#[derive(Default)]
pub struct Outcome {
    metrics: BTreeMap<String, (f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed (printed to stderr, never in the result).
    pub misses: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Restricts the metrics to `names`, adding any the run did not
    /// measure as 0 in its unit (a layer this workload bypasses).
    pub fn keep_only(&mut self, names: &[(&str, &'static str)]) {
        let mut kept = BTreeMap::new();
        for &(name, unit) in names {
            let value = self.metrics.get(name).map_or(0.0, |m| m.0);
            kept.insert(name.to_string(), (value, unit));
        }
        self.metrics = kept;
    }

    /// Asserts the metrics are exactly `names`.
    pub fn require(&self, names: &[&str]) {
        let got: Vec<&str> = self.metrics.keys().map(String::as_str).collect();
        let mut want = names.to_vec();
        want.sort_unstable();
        assert_eq!(got, want, "end-to-end metric set");
    }

    /// Counts one checked operation; a false `ok` is a failed one.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.misses.push(what());
        }
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One recorded span: a layer call with its start and end offsets
/// from the recorder's epoch and the span it ran inside.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Records spans in memory; nothing is written until [`Spans::dump`].
/// Spans opened on different threads name their parent explicitly.
pub struct Spans {
    epoch: Instant,
    spans: std::sync::Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Opens a span; close it with [`Spans::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let start = self.epoch.elapsed();
        let mut spans = self.spans.lock().expect("span log");
        spans.push(Span {
            name,
            parent,
            start,
            end: start,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) {
        let end = self.epoch.elapsed();
        self.spans.lock().expect("span log")[id].end = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Wall time of the first span with this name, in seconds.
    pub fn wall_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span log");
        spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| secs(s.end - s.start))
    }

    /// Wall times of every span with this name, in seconds.
    pub fn walls_s(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span log");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| secs(s.end - s.start))
            .collect()
    }

    /// Self time of the first span with this name: its wall time minus
    /// the wall time of its direct children, in seconds. Children that
    /// ran concurrently can sum past the parent; self time then
    /// floors at zero.
    pub fn self_s(&self, name: &str) -> f64 {
        let spans = self.spans.lock().expect("span log");
        let Some(id) = spans.iter().position(|s| s.name == name) else {
            return 0.0;
        };
        let wall = spans[id].end - spans[id].start;
        let children: Duration = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.end - s.start)
            .sum();
        secs(wall.saturating_sub(children))
    }

    /// Writes the span log to stderr, one JSON object per line.
    pub fn dump(&self, workload: &str) {
        let spans = self.spans.lock().expect("span log");
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            eprintln!(
                "span {{\"workload\": \"{workload}\", \"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_us\": {}, \"end_us\": {}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
    }
}
