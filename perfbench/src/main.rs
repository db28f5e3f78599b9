//! towerlens benchmark runner.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process, generates its
//! inputs from the shipped presets and `--seed`, checks the program's
//! outputs, and prints one JSON result as the last stdout line. With
//! `--trace 0` the result holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics of a traced run. See
//! `README.md` next to this crate.

mod query;
mod serve;
mod study;
mod util;

use std::path::Path;

/// Counts heap acquisitions so the query workload can report
/// allocations per request.
mod alloc {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static CALLS: AtomicU64 = AtomicU64::new(0);

    pub fn calls() -> u64 {
        CALLS.load(Ordering::Relaxed)
    }

    pub struct Counting;

    // SAFETY: every method delegates to `System`, which upholds the
    // `GlobalAlloc` contract; the only addition is a relaxed atomic
    // increment, which neither allocates nor touches the layout.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            CALLS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
    }
}

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["study-paper", "study-resume", "query-paper", "serve-ingest"];

/// Every workload's untraced result: `BENCHMARK.json`'s `end_to_end`.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "peak_rss_mb",
    "op_p50_ms",
    "op_p90_ms",
    "throughput_per_s",
];

/// Every workload's traced result: `BENCHMARK.json`'s `per_layer`. A
/// layer the workload bypasses reads 0.
const PER_LAYER: [(&str, &str); 53] = [
    ("city.generate_s", "s"),
    ("city.pois", "count"),
    ("mobility.synthesize_s", "s"),
    ("pipeline.vectorize_s", "s"),
    ("cluster.identify_s", "s"),
    ("cluster.index.leaf_evaluations", "count"),
    ("cluster.index.pruned_subtrees", "count"),
    ("cluster.index.evals_over_floor", "ratio"),
    ("core.label_s", "s"),
    ("core.timedomain_s", "s"),
    ("core.wave4_s", "s"),
    ("dsp.frequency_s", "s"),
    ("dsp.goertzel.evaluations", "count"),
    ("opt.decompose_s", "s"),
    ("core.decompose.rows", "count"),
    ("core.label_agreement", "ratio"),
    ("core.k", "count"),
    ("study.self_s", "s"),
    ("par.study_speedup", "ratio"),
    ("ckpt.load_s.city", "s"),
    ("ckpt.load_s.synthesize", "s"),
    ("ckpt.load_s.vectorize", "s"),
    ("ckpt.load_s.cluster", "s"),
    ("ckpt.cold_s.city", "s"),
    ("ckpt.cold_s.synthesize", "s"),
    ("ckpt.cold_s.vectorize", "s"),
    ("ckpt.cold_s.cluster", "s"),
    ("ckpt.mb.city", "MB"),
    ("ckpt.mb.synthesize", "MB"),
    ("ckpt.mb.vectorize", "MB"),
    ("ckpt.mb.cluster", "MB"),
    ("ckpt.mb.total", "MB"),
    ("artifact.decode_s", "s"),
    ("artifact.index_build_s", "s"),
    ("artifact.mb", "MB"),
    ("query.pattern_us", "us"),
    ("query.topk_us", "us"),
    ("query.topk_pruned_total", "count"),
    ("query.allocs_per_request", "count"),
    ("query.batch_p99_ms", "ms"),
    ("par.query_speedup", "ratio"),
    ("trace.parse_us", "us"),
    ("serve.wal_append_us", "us"),
    ("serve.wal_sync_ms", "ms"),
    ("serve.backpressure_waits", "count"),
    ("serve.records_ingested", "count"),
    ("serve.revectorize_ratio", "ratio"),
    ("cluster.distance.evaluations", "count"),
    ("serve.batch_reference_s", "s"),
    ("serve.publish_ms", "ms"),
    ("serve.snap_mb", "MB"),
    ("serve.fresh_p50_ms", "ms"),
    ("tracing.overhead_pct", "%"),
];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| usage(&format!("{flag} needs a valid value")))
}

/// Program steps that run in a child process of their own (see
/// [`util::run_child`]).
fn child(args: &[String]) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("__study") if args.len() == 3 => {
            study::study_child(parse("seed", args.get(1)), parse("threads", args.get(2)))
        }
        Some("__cold-study") if args.len() == 4 => study::cold_child(
            parse("seed", args.get(1)),
            parse("threads", args.get(2)),
            Path::new(&args[3]),
        ),
        Some("__artifact") if args.len() == 4 => query::artifact_child(
            parse("seed", args.get(1)),
            parse("threads", args.get(2)),
            Path::new(&args[3]),
        ),
        Some("__serve") => {
            // The shipped `serve` command, verbatim; its peak memory is
            // reported on stderr once it has drained.
            let code = towerlens_cli::app::run(&args[1..]);
            eprintln!("perfbench: serve peak_rss_mb {}", util::peak_rss_mb());
            return code;
        }
        _ => Err(format!("unknown child step {args:?}")),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench child: {e}");
            1
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a.starts_with("__")) {
        std::process::exit(child(&args));
    }

    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => workload = it.next().cloned(),
            "--seed" => seed = Some(parse::<u64>("--seed", it.next())),
            "--seconds" => seconds = Some(parse::<f64>("--seconds", it.next())),
            "--trace" => trace = Some(parse::<u8>("--trace", it.next())),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let seconds = seconds.unwrap_or(5.0);
    let traced = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => usage("--trace takes 0 or 1"),
    };

    let result = match (workload.as_str(), traced) {
        ("study-paper", false) => study::paper(seed, seconds),
        ("study-paper", true) => study::paper_traced(seed),
        ("study-resume", t) => study::resume(seed, seconds, t),
        ("query-paper", t) => query::run(seed, seconds, t),
        ("serve-ingest", t) => serve::run(seed, t),
        (other, _) => usage(&format!("unknown workload `{other}`")),
    };
    match result {
        Ok(mut outcome) => {
            if traced {
                outcome.keep_only(&PER_LAYER);
            } else {
                outcome.require(&END_TO_END);
            }
            for miss in outcome.misses.iter().take(20) {
                eprintln!("perfbench: failed check: {miss}");
            }
            println!("{}", outcome.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {workload} failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER, WORKLOADS};

    /// `BENCHMARK.json` at the repository root declares exactly the
    /// workloads and metrics this runner prints, with the same units.
    #[test]
    fn benchmark_json_declares_what_the_runner_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        for name in WORKLOADS.iter().chain(&END_TO_END) {
            assert!(doc.contains(&format!("\"name\": \"{name}\"")), "{name}");
        }
        for (name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "{name} in {unit}");
        }
        let declared = doc.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
