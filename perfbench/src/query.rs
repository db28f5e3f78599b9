//! `query-paper`: the memory-resident query server over the artifact a
//! paper-preset study writes, driven by one closed-loop caller.

use std::path::Path;
use std::time::Instant;

use towerlens_artifact::{
    read_snapshot, render_topk, run_batch_with, write_snapshot, QueryIndex, QueryPolicy,
};
use towerlens_cluster::top_k_nearest;
use towerlens_core::Study;
use towerlens_trace::faults::SplitMix64;

use crate::study::paper_config;
use crate::util::{self, counter, median, quantile, secs, Outcome, Spans, WorkDir};

/// Requests per batch: the caller sends the next batch only when the
/// previous one has been answered.
const BATCH: usize = 1_000;
/// Distinct pre-generated batches the caller cycles through.
const BATCHES: usize = 32;
/// Neighbours per `topk` request.
const TOPK: usize = 8;
/// Index loads in set-up; the median is reported.
const LOADS: usize = 5;
/// `topk` answers checked against the brute-force oracle.
const ORACLE_SAMPLE: usize = 200;
/// Direct `pattern` and `topk` calls in the traced run.
const PATTERN_CALLS: usize = 20_000;
const TOPK_CALLS: usize = 5_000;

/// Child step: the paper study at `seed`, written as the query artifact
/// `towerlens study --scale paper --snapshot` would write.
pub fn artifact_child(seed: u64, threads: usize, path: &Path) -> Result<(), String> {
    let config = paper_config(seed, threads);
    let feature_space = config.identifier.feature_space;
    let study = Study::new(config);
    let (report, _) = study.run_instrumented(None).map_err(|e| e.to_string())?;
    let snapshot = report
        .to_snapshot(study.checkpoint_fingerprint(), feature_space)
        .map_err(|e| e.to_string())?;
    write_snapshot(path, &snapshot).map_err(|e| e.to_string())
}

/// The seeded request mix: ¾ `pattern`, ¼ `topk <id> 8`, tower ids
/// drawn uniformly from the artifact's towers.
fn request_batches(ids: &[u64], seed: u64) -> Vec<Vec<String>> {
    let mut rng = SplitMix64::new(seed ^ 0x0051_E7CA_11E5);
    (0..BATCHES)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    let id = ids[rng.below(ids.len())];
                    if rng.below(4) == 0 {
                        format!("topk {id} {TOPK}")
                    } else {
                        format!("pattern {id}")
                    }
                })
                .collect()
        })
        .collect()
}

fn policy(threads: usize) -> QueryPolicy {
    QueryPolicy {
        threads,
        ..QueryPolicy::default()
    }
}

/// Runs batches for `seconds`, returning per-batch latencies (ms) and
/// counting every answer as one operation (an `error:` line fails it).
fn closed_loop(
    index: &QueryIndex,
    batches: &[Vec<String>],
    threads: usize,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<f64> {
    let policy = policy(threads);
    let mut walls = Vec::new();
    let started = Instant::now();
    while walls.is_empty() || secs(started.elapsed()) < seconds {
        let batch = &batches[walls.len() % batches.len()];
        let t = Instant::now();
        let (answers, _) = run_batch_with(index, batch, &policy);
        walls.push(secs(t.elapsed()) * 1e3);
        let errors = answers.iter().filter(|a| a.starts_with("error:")).count();
        out.attempted += answers.len() as u64;
        out.failed += errors as u64 + batch.len().abs_diff(answers.len()) as u64;
        if errors > 0 {
            out.misses
                .push(format!("{errors} error lines in one batch"));
        }
    }
    walls
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let threads = util::nproc();
    let work = WorkDir::new("query-paper");
    let path = work.path("study.artifact");
    util::run_child(&[
        "__artifact".into(),
        seed.to_string(),
        threads.to_string(),
        path.display().to_string(),
    ])?;
    let artifact_mb = util::disk_mb(&path);

    let mut out = Outcome::default();
    let spans = Spans::new();
    let mut loads = Vec::new();
    let mut index = None;
    for _ in 0..LOADS {
        let t = Instant::now();
        let snapshot = spans
            .time("artifact.decode", None, || read_snapshot(&path))
            .map_err(|e| e.to_string())?;
        index = Some(spans.time("artifact.index_build", None, || QueryIndex::new(snapshot)));
        loads.push(secs(t.elapsed()));
    }
    let index = index.expect("at least one load");
    let ids = index.snapshot().tower_ids.clone();
    println!(
        "shape {{\"towers\": {}, \"k\": {}, \"artifact_bytes\": {}, \"batch\": {BATCH}, \"topk_share\": 0.25}}",
        index.n_towers(),
        index.snapshot().meta.k,
        (artifact_mb * 1024.0 * 1024.0).round()
    );
    let batches = request_batches(&ids, seed);

    if !traced {
        let walls = closed_loop(&index, &batches, threads, seconds, &mut out);
        let total_s: f64 = walls.iter().sum::<f64>() / 1e3;
        out.set("setup_s", median(&loads), "s");
        out.set("op_p50_ms", median(&walls), "ms");
        out.set("op_p90_ms", quantile(&walls, 0.9), "ms");
        out.set(
            "throughput_per_s",
            (walls.len() * BATCH) as f64 / total_s,
            "1/s",
        );
        out.set("peak_rss_mb", util::peak_rss_mb(), "MB");
        return Ok(out);
    }

    out.set("artifact.mb", artifact_mb, "MB");

    // Byte-identical answers at one thread and at every thread.
    let mut one = Vec::new();
    let mut all = Vec::new();
    for batch in &batches {
        one.extend(run_batch_with(&index, batch, &policy(1)).0);
        all.extend(run_batch_with(&index, batch, &policy(threads)).0);
    }
    out.check(one == all, || {
        format!("answers differ between 1 and {threads} threads")
    });

    // A sample of topk answers against the linear-scan oracle.
    let rows: Vec<Vec<f64>> = index
        .snapshot()
        .features
        .iter()
        .map(|f| f.to_vec())
        .collect();
    let mut rng = SplitMix64::new(seed ^ 0x0AC1E);
    for _ in 0..ORACLE_SAMPLE {
        let row = rng.below(ids.len());
        let expect: Vec<(u64, f64)> = top_k_nearest(&rows[..], row, TOPK)
            .into_iter()
            .map(|(j, d)| (ids[j], d))
            .collect();
        let got = towerlens_artifact::run_one(&index, &format!("topk {} {TOPK}", ids[row]));
        let expect = render_topk(ids[row], &expect);
        out.check(got.as_ref() == Ok(&expect), || {
            format!("topk {}: got {got:?}, oracle {expect}", ids[row])
        });
    }

    // Direct layer calls, untraced then with a span around each call.
    let mut rng = SplitMix64::new(seed ^ 0xD1EC7);
    let sample: Vec<u64> = (0..PATTERN_CALLS)
        .map(|_| ids[rng.below(ids.len())])
        .collect();
    let t = Instant::now();
    for &id in &sample {
        std::hint::black_box(index.pattern(id).map_err(|e| e.to_string())?);
    }
    let pattern_s = secs(t.elapsed());
    let t = Instant::now();
    for &id in &sample[..TOPK_CALLS] {
        std::hint::black_box(index.topk(id, TOPK)?);
    }
    let topk_s = secs(t.elapsed());
    let traced_root = spans.open("query.direct", None);
    for &id in &sample[..TOPK_CALLS] {
        let span = spans.open("query.topk", Some(traced_root));
        std::hint::black_box(index.topk(id, TOPK)?);
        spans.close(span);
    }
    spans.close(traced_root);
    let topk_traced_s = spans.wall_s("query.direct");
    out.set(
        "query.pattern_us",
        pattern_s / PATTERN_CALLS as f64 * 1e6,
        "us",
    );
    out.set("query.topk_us", topk_s / TOPK_CALLS as f64 * 1e6, "us");
    out.set(
        "tracing.overhead_pct",
        (topk_traced_s - topk_s) / topk_s * 100.0,
        "%",
    );

    // Pruning and allocations over one pass of the batches.
    towerlens_obs::global().reset();
    let allocs_before = crate::alloc::calls();
    for batch in &batches {
        std::hint::black_box(run_batch_with(&index, batch, &policy(threads)));
    }
    let allocs = crate::alloc::calls() - allocs_before;
    let requests = (BATCHES * BATCH) as f64;
    out.set(
        "query.topk_pruned_total",
        counter("query.topk_pruned_total") as f64,
        "count",
    );
    out.set(
        "query.allocs_per_request",
        allocs as f64 / requests,
        "count",
    );

    // Throughput at one thread against every thread.
    let single = closed_loop(&index, &batches, 1, 2.0, &mut out);
    let multi = closed_loop(&index, &batches, threads, 2.0, &mut out);
    out.set(
        "par.query_speedup",
        median(&single) / median(&multi),
        "ratio",
    );
    out.set("query.batch_p99_ms", quantile(&multi, 0.99), "ms");

    out.set(
        "artifact.decode_s",
        spans_median(&spans, "artifact.decode"),
        "s",
    );
    out.set(
        "artifact.index_build_s",
        spans_median(&spans, "artifact.index_build"),
        "s",
    );
    spans.dump("query-paper");
    Ok(out)
}

fn spans_median(spans: &Spans, name: &str) -> f64 {
    median(&spans.walls_s(name))
}
