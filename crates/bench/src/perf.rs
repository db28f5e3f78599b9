//! The reproducible pipeline benchmark behind the `bench` binary.
//!
//! Runs the full staged study pipeline over parameterized synthetic
//! workloads — N towers × 4032 bins (the paper's 28-day window) at
//! several sizes, K repeats each — and reports per-stage wall-time
//! median/p95, end-to-end throughput, and the hot-path counter
//! snapshot from the metrics registry, stamped with the git revision.
//! The emitted `BENCH_pipeline.json` is the perf baseline later PRs
//! measure against; [`validate_bench_json`] is the schema gate
//! `scripts/check.sh` runs so a broken emitter fails CI.

use std::collections::BTreeMap;
use std::time::Duration;

use towerlens_cluster::{agglomerative_source, Engine, IndexedMetric, Linkage};
use towerlens_core::{CoreError, RunReport, Study, StudyConfig};
use towerlens_trace::time::TraceWindow;

use crate::json::{self, Json};

/// Workload parameters for one bench invocation.
#[derive(Debug, Clone)]
pub struct BenchParams {
    /// Tower counts to run (each over the full 4032-bin paper window).
    pub sizes: Vec<usize>,
    /// Repeats per size (medians/percentiles are taken across these).
    pub repeats: usize,
    /// Seed shared by every workload, so reruns are comparable.
    pub seed: u64,
    /// Worker threads for the parallel stages (0 = all cores). Any
    /// value produces bit-identical study output; only wall time moves.
    pub threads: usize,
}

impl Default for BenchParams {
    /// Three sizes × three repeats: small enough to run on a laptop,
    /// big enough that stage medians are not all sub-millisecond.
    fn default() -> Self {
        BenchParams {
            sizes: vec![60, 120, 240],
            repeats: 3,
            seed: 42,
            threads: 0,
        }
    }
}

/// Median/p95 wall time of one stage across the repeats.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name.
    pub name: String,
    /// Median wall time in milliseconds.
    pub median_ms: f64,
    /// 95th-percentile (nearest-rank) wall time in milliseconds.
    pub p95_ms: f64,
}

/// One size's results.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    /// Tower count.
    pub towers: usize,
    /// Bins per tower (always the paper's 4032).
    pub bins: usize,
    /// Median end-to-end wall time in milliseconds.
    pub total_median_ms: f64,
    /// p95 end-to-end wall time in milliseconds.
    pub total_p95_ms: f64,
    /// Throughput at the median: matrix cells (towers × bins) per
    /// second of end-to-end wall time.
    pub throughput_cells_per_s: f64,
    /// Per-stage timings, in stage registration order.
    pub stages: Vec<StageTiming>,
    /// Hot-path counter totals for a single run at this size
    /// (deterministic for a fixed seed).
    pub counters: BTreeMap<String, u64>,
}

/// Parameters for the query-throughput workload (`bench --query`):
/// a study at `towers` towers builds the versioned artifact, then a
/// deterministic stream of `requests` mixed lookups runs through the
/// memory-resident [`towerlens_artifact::QueryIndex`].
#[derive(Debug, Clone)]
pub struct QueryBenchParams {
    /// Tower count of the snapshot-building study.
    pub towers: usize,
    /// Number of query requests in the batch.
    pub requests: usize,
    /// Seed of the snapshot-building study.
    pub seed: u64,
    /// Worker threads for the query batch (0 = all cores).
    pub threads: usize,
    /// Admission budget (in virtual cost units) of the overload
    /// variant: the same index is re-run under a pattern/topk stream
    /// where every topk scan out-costs this budget, so the batch sheds
    /// a fixed 20% of its requests. Must be below the tower count and
    /// at least 1.
    pub request_budget: u64,
}

impl Default for QueryBenchParams {
    /// The paper-scale snapshot (9,600 towers — the full deployment
    /// of the source paper) under a 40,000-request mixed batch —
    /// scaled 4× over the pre-index workload now that each topk
    /// request is a pruned descent instead of a full scan, so the
    /// batch exercises 10,000 topk requests. The overload variant
    /// admits 100 cost units per request, far below the 9,600-unit
    /// topk scan.
    fn default() -> Self {
        QueryBenchParams {
            towers: 9_600,
            requests: 40_000,
            seed: 42,
            threads: 0,
            request_budget: 100,
        }
    }
}

/// The query-throughput workload's results.
#[derive(Debug, Clone)]
pub struct QueryBenchResult {
    /// Towers held by the memory-resident snapshot.
    pub towers: usize,
    /// Requests answered.
    pub requests: usize,
    /// Worker threads the batch ran with (0 = all cores).
    pub threads: usize,
    /// End-to-end wall time of the batch in milliseconds (excludes
    /// building and loading the snapshot).
    pub total_ms: f64,
    /// Requests answered per second of batch wall time.
    pub throughput_qps: f64,
    /// Heap-allocation calls during the timed batch (the delta of
    /// [`crate::alloc::calls`] around it). `0` when the counting
    /// allocator is not installed — i.e. anywhere but the `bench`
    /// binary — which reads as "not measured".
    pub allocations: u64,
    /// The `query.*` counter totals for the batch.
    pub counters: BTreeMap<String, u64>,
}

/// Parameters for the spatial-index clustering workload
/// (`bench --cluster-100k`): `points` synthetic 6-dimensional
/// spectral-style feature vectors (a deterministic 8-blob mixture)
/// are clustered end-to-end — average linkage, nn-chain engine — over
/// the exact-pruning spatial index.
#[derive(Debug, Clone)]
pub struct ClusterBenchParams {
    /// Feature vectors to cluster.
    pub points: usize,
    /// Seed of the synthetic mixture.
    pub seed: u64,
}

impl Default for ClusterBenchParams {
    /// 100,000 points — an order of magnitude past the paper's 9,600
    /// towers, demonstrating the index holds at city-region scale.
    fn default() -> Self {
        ClusterBenchParams {
            points: 100_000,
            seed: 42,
        }
    }
}

/// The spatial-index clustering workload's results. The evaluation
/// and traversal counts are deterministic for a fixed seed, so they
/// double as regression gates (see [`compare_bench_json`]); only
/// `wall_ms` is machine-dependent.
#[derive(Debug, Clone)]
pub struct ClusterIndexResult {
    /// Points clustered.
    pub points: usize,
    /// Feature dimensionality (6: amplitude and phase of the top
    /// three harmonics, as in the paper's spectral space).
    pub dims: usize,
    /// End-to-end wall time of the dendrogram build in milliseconds.
    pub wall_ms: f64,
    /// Merges performed (`points - 1` for a complete dendrogram).
    pub merges: u64,
    /// Distance-kernel evaluations (`cluster.index.leaf_evaluations`).
    pub leaf_evaluations: u64,
    /// k-d tree nodes visited across all neighbour searches
    /// (`cluster.index.nodes_visited`).
    pub nodes_visited: u64,
    /// Subtrees skipped by the box lower bound
    /// (`cluster.index.pruned_subtrees`).
    pub pruned_subtrees: u64,
}

/// The overload variant's results: the same memory-resident index
/// under an admission budget that sheds every topk scan — 20% of the
/// stream — while the cheap lookups keep answering at full speed.
#[derive(Debug, Clone)]
pub struct QueryOverloadResult {
    /// Towers held by the memory-resident snapshot.
    pub towers: usize,
    /// Requests in the batch (admitted + shed).
    pub requests: usize,
    /// Worker threads the batch ran with (0 = all cores).
    pub threads: usize,
    /// The admission budget in virtual cost units.
    pub request_budget: u64,
    /// Requests shed by admission control (`overloaded` lines).
    pub shed: u64,
    /// End-to-end wall time of the batch in milliseconds.
    pub total_ms: f64,
    /// Requests (including shed ones — they still get a typed answer
    /// line) per second of batch wall time.
    pub throughput_qps: f64,
    /// The `query.*` counter totals for the batch.
    pub counters: BTreeMap<String, u64>,
}

/// A full bench run, ready to serialize.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Git revision the binary was built from (`unknown` outside a
    /// repository).
    pub git_rev: String,
    /// Seed used for every workload.
    pub seed: u64,
    /// Repeats per workload.
    pub repeats: usize,
    /// Worker threads the run was requested with (0 = all cores).
    pub threads: usize,
    /// Per-size results, in the order requested.
    pub workloads: Vec<WorkloadResult>,
    /// The query-throughput workload, when `--query` ran.
    pub query: Option<QueryBenchResult>,
    /// The overload variant of the query workload (same `--query`
    /// run): a budget-limited batch shedding 20% of its requests.
    pub query_overload: Option<QueryOverloadResult>,
    /// The spatial-index clustering workload, when `--cluster-100k`
    /// ran.
    pub cluster_index: Option<ClusterIndexResult>,
}

/// Schema tag embedded in (and required from) the JSON. v2 added the
/// document-level `threads` field recording the `--threads` setting
/// the report was produced under; v3 added the optional `query`
/// object recording the artifact-store query-throughput workload; v4
/// added the optional `query_overload` object recording the same
/// index under an admission budget that sheds the expensive fifth of
/// the stream; v5 added the optional `cluster_index` object (the
/// `--cluster-100k` spatial-index clustering workload) and the
/// `allocations` field of the query section (heap-allocation calls
/// during the timed batch, `0` when the counting allocator is not
/// installed).
pub const BENCH_SCHEMA: &str = "towerlens-bench-pipeline-v5";

/// The study configuration for a bench workload: `towers` towers over
/// the paper's 4032-bin window, geometry scaled down so small tower
/// counts still form plausible zones.
pub fn workload_config(towers: usize, seed: u64) -> StudyConfig {
    let mut config = StudyConfig::tiny(seed);
    config.city.n_towers = towers;
    config.window = TraceWindow::paper();
    config
}

fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn percentiles(mut walls: Vec<f64>) -> (f64, f64) {
    walls.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    (nearest_rank(&walls, 0.5), nearest_rank(&walls, 0.95))
}

fn ms(wall: Duration) -> f64 {
    wall.as_secs_f64() * 1e3
}

fn summarize(towers: usize, bins: usize, runs: &[RunReport]) -> WorkloadResult {
    let totals: Vec<f64> = runs.iter().map(|r| ms(r.total)).collect();
    let (total_median_ms, total_p95_ms) = percentiles(totals);
    let stages = runs[0]
        .stages
        .iter()
        .map(|s| {
            let walls: Vec<f64> = runs
                .iter()
                .map(|r| ms(r.stage(s.name).expect("stage in every repeat").wall))
                .collect();
            let (median_ms, p95_ms) = percentiles(walls);
            StageTiming {
                name: s.name.to_string(),
                median_ms,
                p95_ms,
            }
        })
        .collect();
    WorkloadResult {
        towers,
        bins,
        total_median_ms,
        total_p95_ms,
        throughput_cells_per_s: (towers * bins) as f64 / (total_median_ms / 1e3),
        stages,
        counters: BTreeMap::new(),
    }
}

/// Runs every workload and collects the report.
///
/// The process-wide metrics registry is reset before each repeat, so
/// the captured counter snapshot describes exactly one run at each
/// size.
///
/// # Errors
/// The first failing study run's [`CoreError`].
pub fn run_bench(params: &BenchParams) -> Result<BenchReport, CoreError> {
    let mut workloads = Vec::new();
    for &towers in &params.sizes {
        let mut runs = Vec::with_capacity(params.repeats);
        for _ in 0..params.repeats.max(1) {
            towerlens_obs::global().reset();
            let config = workload_config(towers, params.seed).with_threads(params.threads);
            let (_, report) = Study::new(config).run_instrumented(None)?;
            runs.push(report);
        }
        let bins = TraceWindow::paper().n_bins;
        let mut result = summarize(towers, bins, &runs);
        result.counters = towerlens_obs::global().snapshot().counters;
        workloads.push(result);
    }
    Ok(BenchReport {
        git_rev: git_rev(),
        seed: params.seed,
        repeats: params.repeats.max(1),
        threads: params.threads,
        workloads,
        query: None,
        query_overload: None,
        cluster_index: None,
    })
}

/// Runs the query-throughput workload: a spectral study at
/// `params.towers` towers over the paper window builds the versioned
/// artifact, a [`towerlens_artifact::QueryIndex`] holds it
/// memory-resident, and a deterministic stream of mixed
/// pattern/decompose/topk requests is answered through the batch
/// path. Only the batch is timed — the studied claim is lookup
/// throughput, not study wall time. The request stream (and therefore
/// every answer byte) is identical at any thread count.
///
/// The same index is then re-run as the overload variant: an 80/20
/// pattern/topk stream under `params.request_budget`, chosen so every
/// topk scan (cost = tower count) is shed with a typed `overloaded`
/// line while every pattern lookup (cost 1) is admitted — exactly 20%
/// of the batch sheds, deterministically at any thread count.
///
/// # Errors
/// The snapshot-building study's [`CoreError`].
pub fn run_query_bench(
    params: &QueryBenchParams,
) -> Result<(QueryBenchResult, QueryOverloadResult), CoreError> {
    let mut config = workload_config(params.towers, params.seed).with_threads(params.threads);
    config.identifier.feature_space = towerlens_pipeline::FeatureSpace::Spectral;
    let study = Study::new(config);
    let fingerprint = study.checkpoint_fingerprint();
    let (report, _) = study.run_instrumented(None)?;
    let snapshot = report.to_snapshot(fingerprint, towerlens_pipeline::FeatureSpace::Spectral)?;
    let index = towerlens_artifact::QueryIndex::new(snapshot);

    // Deterministic mixed stream cycling over the kept towers: half
    // pattern lookups, a quarter decompositions (when the snapshot
    // froze a basis — otherwise more patterns), a quarter top-k
    // neighbour scans.
    let ids = index.snapshot().tower_ids.clone();
    let has_basis = index.snapshot().basis.is_some();
    let lines: Vec<String> = (0..params.requests)
        .map(|i| {
            let id = ids[i % ids.len()];
            match i % 8 {
                4 | 5 if has_basis => format!("decompose {id}"),
                6 | 7 => format!("topk {id} 8"),
                _ => format!("pattern {id}"),
            }
        })
        .collect();

    towerlens_obs::global().reset();
    let alloc_before = crate::alloc::calls();
    let started = std::time::Instant::now();
    let (answers, _) = towerlens_artifact::run_batch(&index, &lines, params.threads);
    let total_ms = ms(started.elapsed());
    let allocations = crate::alloc::calls().saturating_sub(alloc_before);
    debug_assert_eq!(answers.len(), lines.len());
    let counters: BTreeMap<String, u64> = towerlens_obs::global()
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("query."))
        .collect();
    let plain = QueryBenchResult {
        towers: index.n_towers(),
        requests: params.requests,
        threads: params.threads,
        total_ms,
        throughput_qps: params.requests as f64 / (total_ms / 1e3),
        allocations,
        counters,
    };

    // Overload variant: every fifth request is a topk scan whose cost
    // (the tower count) exceeds the admission budget; the rest are
    // unit-cost pattern lookups. Shed answers are still answers —
    // typed `overloaded` lines in input order — so the batch length
    // is unchanged.
    let overload_lines: Vec<String> = (0..params.requests)
        .map(|i| {
            let id = ids[i % ids.len()];
            if i % 5 == 4 {
                format!("topk {id} 8")
            } else {
                format!("pattern {id}")
            }
        })
        .collect();
    let policy = towerlens_artifact::QueryPolicy {
        threads: params.threads,
        request_budget: Some(params.request_budget),
        ..Default::default()
    };
    towerlens_obs::global().reset();
    let started = std::time::Instant::now();
    let (answers, tally) = towerlens_artifact::run_batch_with(&index, &overload_lines, &policy);
    let total_ms = ms(started.elapsed());
    debug_assert_eq!(answers.len(), overload_lines.len());
    let counters: BTreeMap<String, u64> = towerlens_obs::global()
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| name.starts_with("query."))
        .collect();
    let overload = QueryOverloadResult {
        towers: index.n_towers(),
        requests: params.requests,
        threads: params.threads,
        request_budget: params.request_budget,
        shed: tally.shed,
        total_ms,
        throughput_qps: params.requests as f64 / (total_ms / 1e3),
        counters,
    };
    Ok((plain, overload))
}

/// A deterministic 8-blob mixture of 6-dimensional points, shaped
/// like the spectral feature space (amplitude/phase of three
/// harmonics): well-separated centres with per-point jitter, so the
/// spatial index has real structure to prune against. Plain xorshift
/// keeps the workload identical across platforms and reruns.
fn mixture_points(n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed | 1;
    let mut unit = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|i| {
            let blob = (i % 8) as f64;
            (0..6)
                .map(|d| blob * 3.0 + (d as f64) * 0.25 + unit() * 0.5)
                .collect()
        })
        .collect()
}

/// Runs the spatial-index clustering workload: a complete average-
/// linkage dendrogram over `params.points` synthetic 6-dim feature
/// vectors via the nn-chain engine and the exact-pruning spatial
/// index. The counters come from the dendrogram and the index this
/// build ran, so they describe exactly this build whatever else the
/// process is doing.
///
/// # Errors
/// The clustering error as a string (empty input cannot happen for
/// `points ≥ 1`; this surfaces only internal invariant violations).
pub fn run_cluster_bench(params: &ClusterBenchParams) -> Result<ClusterIndexResult, String> {
    let points = mixture_points(params.points, params.seed);
    let started = std::time::Instant::now();
    let mut metric = IndexedMetric::new(&points, Linkage::Average);
    let tree = agglomerative_source(&mut metric, Linkage::Average, Engine::NnChain)
        .map_err(|e| format!("cluster bench failed: {e:?}"))?;
    let wall_ms = ms(started.elapsed());
    let stats = metric.stats();
    Ok(ClusterIndexResult {
        points: params.points,
        dims: 6,
        wall_ms,
        merges: tree.merges().len() as u64,
        leaf_evaluations: metric.evaluations(),
        nodes_visited: stats.nodes_visited,
        pruned_subtrees: stats.pruned_subtrees,
    })
}

/// The current git revision, or `unknown` when git is unavailable.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl BenchReport {
    /// The report as the `BENCH_pipeline.json` document (schema
    /// [`BENCH_SCHEMA`]).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"git_rev\": \"{}\",\n  \
             \"seed\": {},\n  \"repeats\": {},\n  \"threads\": {},\n  \"workloads\": [",
            json::escape(&self.git_rev),
            self.seed,
            self.repeats,
            self.threads
        );
        for (i, w) in self.workloads.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\n      \"towers\": {},\n      \"bins\": {},\n      \
                 \"total_median_ms\": {:.3},\n      \"total_p95_ms\": {:.3},\n      \
                 \"throughput_cells_per_s\": {:.1},\n      \"stages\": [",
                w.towers, w.bins, w.total_median_ms, w.total_p95_ms, w.throughput_cells_per_s
            ));
            for (j, s) in w.stages.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n        {{\"name\": \"{}\", \"median_ms\": {:.3}, \"p95_ms\": {:.3}}}",
                    json::escape(&s.name),
                    s.median_ms,
                    s.p95_ms
                ));
            }
            out.push_str("\n      ],\n      \"counters\": {");
            for (j, (name, value)) in w.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n        \"{}\": {}", json::escape(name), value));
            }
            out.push_str("\n      }\n    }");
        }
        out.push_str("\n  ]");
        if let Some(q) = &self.query {
            out.push_str(&format!(
                ",\n  \"query\": {{\n    \"towers\": {},\n    \"requests\": {},\n    \
                 \"threads\": {},\n    \"total_ms\": {:.3},\n    \
                 \"throughput_qps\": {:.1},\n    \"allocations\": {},\n    \"counters\": {{",
                q.towers, q.requests, q.threads, q.total_ms, q.throughput_qps, q.allocations
            ));
            for (j, (name, value)) in q.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n      \"{}\": {}", json::escape(name), value));
            }
            out.push_str("\n    }\n  }");
        }
        if let Some(q) = &self.query_overload {
            out.push_str(&format!(
                ",\n  \"query_overload\": {{\n    \"towers\": {},\n    \"requests\": {},\n    \
                 \"threads\": {},\n    \"request_budget\": {},\n    \"shed\": {},\n    \
                 \"total_ms\": {:.3},\n    \"throughput_qps\": {:.1},\n    \"counters\": {{",
                q.towers,
                q.requests,
                q.threads,
                q.request_budget,
                q.shed,
                q.total_ms,
                q.throughput_qps
            ));
            for (j, (name, value)) in q.counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n      \"{}\": {}", json::escape(name), value));
            }
            out.push_str("\n    }\n  }");
        }
        if let Some(c) = &self.cluster_index {
            out.push_str(&format!(
                ",\n  \"cluster_index\": {{\n    \"points\": {},\n    \"dims\": {},\n    \
                 \"wall_ms\": {:.3},\n    \"merges\": {},\n    \
                 \"leaf_evaluations\": {},\n    \"nodes_visited\": {},\n    \
                 \"pruned_subtrees\": {}\n  }}",
                c.points,
                c.dims,
                c.wall_ms,
                c.merges,
                c.leaf_evaluations,
                c.nodes_visited,
                c.pruned_subtrees
            ));
        }
        out.push_str("\n}\n");
        out
    }
}

fn require<'a>(obj: &'a Json, key: &str, at: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{at}: missing key `{key}`"))
}

fn require_number(obj: &Json, key: &str, at: &str) -> Result<f64, String> {
    require(obj, key, at)?
        .as_number()
        .ok_or_else(|| format!("{at}: `{key}` is not a number"))
}

/// Validates a `BENCH_pipeline.json` document: well-formed JSON,
/// correct schema tag, an integral `threads` setting, at least one
/// workload, and per-workload median/p95 stage timings, positive
/// throughput, and a non-empty counter snapshot.
///
/// # Errors
/// A human-readable description of the first violation.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let schema = require(&doc, "schema", "document")?
        .as_str()
        .ok_or("document: `schema` is not a string")?;
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "document: schema `{schema}` is not `{BENCH_SCHEMA}`"
        ));
    }
    let rev = require(&doc, "git_rev", "document")?
        .as_str()
        .ok_or("document: `git_rev` is not a string")?;
    if rev.is_empty() {
        return Err("document: `git_rev` is empty".to_string());
    }
    require_number(&doc, "seed", "document")?;
    let repeats = require_number(&doc, "repeats", "document")?;
    if repeats < 1.0 {
        return Err("document: `repeats` must be ≥ 1".to_string());
    }
    let threads = require_number(&doc, "threads", "document")?;
    if threads < 0.0 || threads.fract() != 0.0 {
        return Err("document: `threads` must be a non-negative integer".to_string());
    }
    let workloads = require(&doc, "workloads", "document")?
        .as_array()
        .ok_or("document: `workloads` is not an array")?;
    if workloads.is_empty() {
        return Err("document: `workloads` is empty".to_string());
    }
    for (i, w) in workloads.iter().enumerate() {
        let at = format!("workloads[{i}]");
        let towers = require_number(w, "towers", &at)?;
        let bins = require_number(w, "bins", &at)?;
        if towers < 1.0 || bins < 1.0 {
            return Err(format!("{at}: towers/bins must be positive"));
        }
        let median = require_number(w, "total_median_ms", &at)?;
        let p95 = require_number(w, "total_p95_ms", &at)?;
        if !(median.is_finite() && p95.is_finite()) || median <= 0.0 || p95 + 1e-9 < median {
            return Err(format!(
                "{at}: implausible totals (median {median} ms, p95 {p95} ms)"
            ));
        }
        if require_number(w, "throughput_cells_per_s", &at)? <= 0.0 {
            return Err(format!("{at}: throughput must be positive"));
        }
        let stages = require(w, "stages", &at)?
            .as_array()
            .ok_or_else(|| format!("{at}: `stages` is not an array"))?;
        if stages.is_empty() {
            return Err(format!("{at}: `stages` is empty"));
        }
        for (j, s) in stages.iter().enumerate() {
            let at = format!("{at}.stages[{j}]");
            let name = require(s, "name", &at)?
                .as_str()
                .ok_or_else(|| format!("{at}: `name` is not a string"))?;
            if name.is_empty() {
                return Err(format!("{at}: `name` is empty"));
            }
            let median = require_number(s, "median_ms", &at)?;
            let p95 = require_number(s, "p95_ms", &at)?;
            if median < 0.0 || p95 + 1e-9 < median {
                return Err(format!("{at}: implausible stage percentiles"));
            }
        }
        let counters = require(w, "counters", &at)?
            .as_object()
            .ok_or_else(|| format!("{at}: `counters` is not an object"))?;
        if counters.is_empty() {
            return Err(format!("{at}: `counters` is empty"));
        }
        for (name, value) in counters {
            if value.as_number().is_none_or(|v| v < 0.0) {
                return Err(format!("{at}: counter `{name}` is not a count"));
            }
        }
    }
    // The query workload is optional (v3): when present it must be a
    // complete, plausible record.
    if let Some(q) = doc.get("query") {
        let at = "query";
        let towers = require_number(q, "towers", at)?;
        let requests = require_number(q, "requests", at)?;
        if towers < 1.0 || requests < 1.0 {
            return Err(format!("{at}: towers/requests must be positive"));
        }
        let threads = require_number(q, "threads", at)?;
        if threads < 0.0 || threads.fract() != 0.0 {
            return Err(format!("{at}: `threads` must be a non-negative integer"));
        }
        let total = require_number(q, "total_ms", at)?;
        if !total.is_finite() || total <= 0.0 {
            return Err(format!("{at}: implausible total ({total} ms)"));
        }
        if require_number(q, "throughput_qps", at)? <= 0.0 {
            return Err(format!("{at}: throughput must be positive"));
        }
        let allocations = require_number(q, "allocations", at)?;
        if allocations < 0.0 || allocations.fract() != 0.0 {
            return Err(format!(
                "{at}: `allocations` must be a non-negative integer"
            ));
        }
        let counters = q
            .get("counters")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{at}: `counters` is not an object"))?;
        if counters.is_empty() {
            return Err(format!("{at}: `counters` is empty"));
        }
        // The batch's own bookkeeping must agree with the declared
        // request count — a mismatch means dropped or double-counted
        // work.
        let answered = counters
            .get("query.requests")
            .and_then(Json::as_number)
            .ok_or_else(|| format!("{at}: counters lack `query.requests`"))?;
        if answered != requests {
            return Err(format!(
                "{at}: `query.requests` counter ({answered}) disagrees with \
                 `requests` ({requests})"
            ));
        }
    }
    // The overload variant (v4): when present, the budget must be a
    // positive integer and the batch must have actually shed work —
    // some but never all of its requests.
    if let Some(q) = doc.get("query_overload") {
        let at = "query_overload";
        let towers = require_number(q, "towers", at)?;
        let requests = require_number(q, "requests", at)?;
        if towers < 1.0 || requests < 1.0 {
            return Err(format!("{at}: towers/requests must be positive"));
        }
        let threads = require_number(q, "threads", at)?;
        if threads < 0.0 || threads.fract() != 0.0 {
            return Err(format!("{at}: `threads` must be a non-negative integer"));
        }
        let budget = require_number(q, "request_budget", at)?;
        if budget < 1.0 || budget.fract() != 0.0 {
            return Err(format!("{at}: `request_budget` must be a positive integer"));
        }
        let total = require_number(q, "total_ms", at)?;
        if !total.is_finite() || total <= 0.0 {
            return Err(format!("{at}: implausible total ({total} ms)"));
        }
        if require_number(q, "throughput_qps", at)? <= 0.0 {
            return Err(format!("{at}: throughput must be positive"));
        }
        let shed = require_number(q, "shed", at)?;
        let counters = q
            .get("counters")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{at}: `counters` is not an object"))?;
        let counted = counters
            .get("query.shed_total")
            .and_then(Json::as_number)
            .ok_or_else(|| format!("{at}: counters lack `query.shed_total`"))?;
        if counted != shed {
            return Err(format!(
                "{at}: `query.shed_total` counter ({counted}) disagrees with `shed` ({shed})"
            ));
        }
        if shed < 1.0 || shed >= requests {
            return Err(format!(
                "{at}: an overload batch must shed some but not all requests \
                 (shed {shed} of {requests})"
            ));
        }
        let answered = counters
            .get("query.requests")
            .and_then(Json::as_number)
            .ok_or_else(|| format!("{at}: counters lack `query.requests`"))?;
        if answered != requests {
            return Err(format!(
                "{at}: `query.requests` counter ({answered}) disagrees with \
                 `requests` ({requests})"
            ));
        }
    }
    // The spatial-index clustering workload (v5): when present, the
    // dendrogram must be complete (merges = points − 1) and the build
    // must have actually evaluated distances and walked the tree.
    if let Some(c) = doc.get("cluster_index") {
        let at = "cluster_index";
        let points = require_number(c, "points", at)?;
        if points < 2.0 || require_number(c, "dims", at)? < 1.0 {
            return Err(format!("{at}: needs ≥ 2 points of ≥ 1 dims"));
        }
        let wall = require_number(c, "wall_ms", at)?;
        if !wall.is_finite() || wall <= 0.0 {
            return Err(format!("{at}: implausible wall ({wall} ms)"));
        }
        let merges = require_number(c, "merges", at)?;
        if merges != points - 1.0 {
            return Err(format!(
                "{at}: `merges` ({merges}) is not points − 1 ({})",
                points - 1.0
            ));
        }
        for key in ["leaf_evaluations", "nodes_visited", "pruned_subtrees"] {
            let v = require_number(c, key, at)?;
            if v < 0.0 || v.fract() != 0.0 {
                return Err(format!("{at}: `{key}` is not a count"));
            }
        }
        if require_number(c, "leaf_evaluations", at)? < 1.0
            || require_number(c, "nodes_visited", at)? < 1.0
        {
            return Err(format!(
                "{at}: a real build evaluates distances and visits nodes"
            ));
        }
    }
    Ok(())
}

/// Allowed fractional regression of a per-stage median before
/// [`compare_bench_json`] fails.
pub const MEDIAN_REGRESSION_BUDGET: f64 = 0.10;

/// Absolute slack added on top of the fractional budget, so
/// sub-millisecond stages — where scheduler noise dominates the
/// median — cannot fail the gate on jitter alone.
pub const MEDIAN_EPSILON_MS: f64 = 0.5;

/// Deterministic distance-evaluation counters. For a fixed seed their
/// values do not depend on thread count or timing, so a candidate
/// whose total exceeds the baseline's at a matching workload size has
/// genuinely regressed the pruning or caching structure — the gate
/// compares the *sum* so that moving work between the materialised
/// and indexed paths cannot hide a regression.
pub const EVAL_COUNTERS: [&str; 2] = [
    "cluster.distance.evaluations",
    "cluster.index.leaf_evaluations",
];

/// Per-workload stage medians, keyed by tower count.
fn stage_medians(doc: &Json, role: &str) -> Result<BTreeMap<u64, BTreeMap<String, f64>>, String> {
    let mut out = BTreeMap::new();
    for w in doc.get("workloads").and_then(Json::as_array).unwrap_or(&[]) {
        let towers = require_number(w, "towers", role)? as u64;
        let mut stages = BTreeMap::new();
        for s in w.get("stages").and_then(Json::as_array).unwrap_or(&[]) {
            let name = s
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{role}: stage without a name"))?;
            stages.insert(name.to_string(), require_number(s, "median_ms", role)?);
        }
        out.insert(towers, stages);
    }
    Ok(out)
}

/// Per-workload totals of the [`EVAL_COUNTERS`], keyed by tower count.
fn eval_totals(doc: &Json, role: &str) -> Result<BTreeMap<u64, u64>, String> {
    let mut out = BTreeMap::new();
    for w in doc.get("workloads").and_then(Json::as_array).unwrap_or(&[]) {
        let towers = require_number(w, "towers", role)? as u64;
        let mut total = 0u64;
        if let Some(counters) = w.get("counters").and_then(Json::as_object) {
            for name in EVAL_COUNTERS {
                total += counters.get(name).and_then(Json::as_number).unwrap_or(0.0) as u64;
            }
        }
        out.insert(towers, total);
    }
    Ok(out)
}

/// A query section's `query.topk_pruned_total` counter (0 if absent).
fn topk_pruned(q: &Json) -> f64 {
    q.get("counters")
        .and_then(Json::as_object)
        .and_then(|cs| cs.get("query.topk_pruned_total"))
        .and_then(Json::as_number)
        .unwrap_or(0.0)
}

/// Compares a candidate bench report against a committed baseline:
/// the candidate must introduce **no stage name** the baseline has
/// never seen (a supervision layer that quietly adds pipeline work
/// fails here), and for every workload whose tower count also exists
/// in the baseline, each stage median may regress by at most
/// [`MEDIAN_REGRESSION_BUDGET`] (plus [`MEDIAN_EPSILON_MS`] of
/// absolute slack). Workloads with no matching baseline size skip the
/// median check and are reported in the returned notes, so a smoke
/// run at an off-baseline size still gates the stage set.
///
/// Three deterministic gates ride along (exact — no jitter budget,
/// because the compared counters cannot jitter for a fixed seed):
/// at matching workload sizes the summed [`EVAL_COUNTERS`] may not
/// exceed the baseline's; at a matching `cluster_index` point count
/// the `leaf_evaluations` may not exceed the baseline's; and at a
/// matching `query` workload shape the `query.topk_pruned_total`
/// counter may not drop below the baseline's (pruning power lost).
///
/// # Errors
/// A human-readable description of the first violation, including
/// structural invalidity of either document.
pub fn compare_bench_json(candidate: &str, baseline: &str) -> Result<Vec<String>, String> {
    validate_bench_json(candidate).map_err(|e| format!("candidate: {e}"))?;
    validate_bench_json(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cand_doc = json::parse(candidate).map_err(|e| format!("candidate: {e}"))?;
    let base_doc = json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cand = stage_medians(&cand_doc, "candidate")?;
    let base = stage_medians(&base_doc, "baseline")?;
    let known: std::collections::BTreeSet<&str> = base
        .values()
        .flat_map(|stages| stages.keys().map(String::as_str))
        .collect();
    let mut notes = Vec::new();
    for (towers, stages) in &cand {
        for name in stages.keys() {
            if !known.contains(name.as_str()) {
                return Err(format!(
                    "candidate workload ({towers} towers) runs stage `{name}`, \
                     which the baseline has never seen"
                ));
            }
        }
        match base.get(towers) {
            None => notes.push(format!(
                "{towers} towers: no baseline workload at this size; medians not compared"
            )),
            Some(base_stages) => {
                for (name, &median) in stages {
                    let Some(&reference) = base_stages.get(name) else {
                        continue;
                    };
                    let budget = reference * (1.0 + MEDIAN_REGRESSION_BUDGET) + MEDIAN_EPSILON_MS;
                    if median > budget {
                        return Err(format!(
                            "{towers} towers: stage `{name}` median {median:.3} ms exceeds \
                             baseline {reference:.3} ms by more than {:.0}% (+{MEDIAN_EPSILON_MS} ms)",
                            MEDIAN_REGRESSION_BUDGET * 100.0
                        ));
                    }
                }
                notes.push(format!(
                    "{towers} towers: {} stage medians within {:.0}% of baseline",
                    stages.len(),
                    MEDIAN_REGRESSION_BUDGET * 100.0
                ));
            }
        }
    }
    // Eval-count gate: at matching sizes the summed distance-work
    // counters are deterministic, so "no worse than baseline" is exact.
    let cand_evals = eval_totals(&cand_doc, "candidate")?;
    let base_evals = eval_totals(&base_doc, "baseline")?;
    for (towers, &evals) in &cand_evals {
        let Some(&reference) = base_evals.get(towers) else {
            continue;
        };
        if evals > reference {
            return Err(format!(
                "{towers} towers: {evals} distance evaluations exceed the baseline's \
                 {reference} (the eval-count gate is exact: these counters are \
                 deterministic for a fixed seed)"
            ));
        }
        notes.push(format!(
            "{towers} towers: {evals} distance evaluations (baseline {reference})"
        ));
    }
    // Spatial-index clustering gate: same point count ⇒ the candidate
    // may not evaluate more leaf distances than the baseline.
    if let (Some(c), Some(b)) = (cand_doc.get("cluster_index"), base_doc.get("cluster_index")) {
        let points = require_number(c, "points", "candidate")?;
        if points == require_number(b, "points", "baseline")? {
            let evals = require_number(c, "leaf_evaluations", "candidate")?;
            let reference = require_number(b, "leaf_evaluations", "baseline")?;
            if evals > reference {
                return Err(format!(
                    "cluster_index: {evals} leaf evaluations at {points} points \
                     exceed the baseline's {reference}"
                ));
            }
            notes.push(format!(
                "cluster_index: {evals} leaf evaluations at {points} points \
                 (baseline {reference})"
            ));
        } else {
            notes.push(
                "cluster_index: point count differs from baseline; evaluations not compared"
                    .to_string(),
            );
        }
    }
    // Pruned-topk gate: same snapshot size and stream length ⇒ the
    // candidate may not prune fewer subtrees than the baseline.
    if let (Some(c), Some(b)) = (cand_doc.get("query"), base_doc.get("query")) {
        let same = require_number(c, "towers", "candidate")?
            == require_number(b, "towers", "baseline")?
            && require_number(c, "requests", "candidate")?
                == require_number(b, "requests", "baseline")?;
        if same {
            let pruned = topk_pruned(c);
            let reference = topk_pruned(b);
            if pruned < reference {
                return Err(format!(
                    "query: {pruned} topk subtrees pruned, below the baseline's \
                     {reference} — the index descent lost pruning power"
                ));
            }
            notes.push(format!(
                "query: {pruned} topk subtrees pruned (baseline {reference})"
            ));
        } else {
            notes.push(
                "query: workload shape differs from baseline; pruning not compared".to_string(),
            );
        }
    }
    Ok(notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            git_rev: "abc123def456".into(),
            seed: 42,
            repeats: 3,
            threads: 4,
            workloads: vec![WorkloadResult {
                towers: 60,
                bins: 4_032,
                total_median_ms: 120.5,
                total_p95_ms: 130.25,
                throughput_cells_per_s: 2_007_363.2,
                stages: vec![
                    StageTiming {
                        name: "city".into(),
                        median_ms: 1.2,
                        p95_ms: 1.4,
                    },
                    StageTiming {
                        name: "cluster".into(),
                        median_ms: 80.0,
                        p95_ms: 91.0,
                    },
                ],
                counters: BTreeMap::from([
                    ("cluster.distance.evaluations".to_string(), 1_770u64),
                    ("core.engine.runs".to_string(), 1),
                ]),
            }],
            query: None,
            query_overload: None,
            cluster_index: None,
        }
    }

    fn sample_query() -> QueryBenchResult {
        QueryBenchResult {
            towers: 9_600,
            requests: 10_000,
            threads: 4,
            total_ms: 250.0,
            throughput_qps: 40_000.0,
            allocations: 12_345,
            counters: BTreeMap::from([
                ("query.requests".to_string(), 10_000u64),
                ("query.pattern".to_string(), 6_000),
                ("query.topk".to_string(), 2_500),
                ("query.decompose".to_string(), 1_500),
                ("query.topk_pruned_total".to_string(), 40_000),
            ]),
        }
    }

    fn sample_cluster_index() -> ClusterIndexResult {
        ClusterIndexResult {
            points: 100_000,
            dims: 6,
            wall_ms: 52_000.0,
            merges: 99_999,
            leaf_evaluations: 5_000_000_000,
            nodes_visited: 9_000_000,
            pruned_subtrees: 4_000_000,
        }
    }

    fn sample_overload() -> QueryOverloadResult {
        QueryOverloadResult {
            towers: 9_600,
            requests: 10_000,
            threads: 4,
            request_budget: 100,
            shed: 2_000,
            total_ms: 50.0,
            throughput_qps: 200_000.0,
            counters: BTreeMap::from([
                ("query.requests".to_string(), 10_000u64),
                ("query.pattern".to_string(), 8_000),
                ("query.topk".to_string(), 0),
                ("query.shed_total".to_string(), 2_000),
            ]),
        }
    }

    #[test]
    fn emitted_json_passes_validation() {
        let json = sample_report().to_json();
        validate_bench_json(&json).unwrap();
    }

    #[test]
    fn overload_section_validates_and_demands_real_shedding() {
        let mut report = sample_report();
        report.query = Some(sample_query());
        report.query_overload = Some(sample_overload());
        let good = report.to_json();
        validate_bench_json(&good).unwrap();
        // The stage-median gate ignores both query sections.
        compare_bench_json(&good, &sample_report().to_json()).unwrap();
        for (tag, breakage) in [
            (
                "zero budget",
                good.replace("\"request_budget\": 100", "\"request_budget\": 0"),
            ),
            (
                "nothing shed",
                good.replace("\"shed\": 2000", "\"shed\": 0")
                    .replace("\"query.shed_total\": 2000", "\"query.shed_total\": 0"),
            ),
            (
                "everything shed",
                good.replace("\"shed\": 2000", "\"shed\": 10000")
                    .replace("\"query.shed_total\": 2000", "\"query.shed_total\": 10000"),
            ),
            (
                "shed counter disagreement",
                good.replace("\"query.shed_total\": 2000", "\"query.shed_total\": 1999"),
            ),
            (
                "missing shed counter",
                good.replace("\"query.shed_total\"", "\"query.other_total\""),
            ),
        ] {
            assert!(validate_bench_json(&breakage).is_err(), "{tag} accepted");
        }
    }

    #[test]
    fn query_section_validates_and_is_gated() {
        let mut report = sample_report();
        report.query = Some(sample_query());
        let good = report.to_json();
        validate_bench_json(&good).unwrap();
        // The comparison gate ignores the query section (throughput
        // baselines live in EXPERIMENTS.md, not the stage-median gate).
        compare_bench_json(&good, &sample_report().to_json()).unwrap();
        for (tag, breakage) in [
            (
                "zero throughput",
                good.replace("\"throughput_qps\": 40000.0", "\"throughput_qps\": 0"),
            ),
            (
                "counter/request disagreement",
                good.replace("\"query.requests\": 10000", "\"query.requests\": 9999"),
            ),
            (
                "missing request counter",
                good.replace("\"query.requests\"", "\"query.other\""),
            ),
            (
                "fractional threads",
                good.replace(
                    "\"threads\": 4,\n    \"total_ms\"",
                    "\"threads\": 1.5,\n    \"total_ms\"",
                ),
            ),
        ] {
            assert!(validate_bench_json(&breakage).is_err(), "{tag} accepted");
        }
    }

    #[test]
    fn query_bench_smoke_counts_every_request() {
        let params = QueryBenchParams {
            towers: 12,
            requests: 200,
            seed: 7,
            threads: 2,
            request_budget: 2,
        };
        let (q, over) = run_query_bench(&params).unwrap();
        assert_eq!(q.requests, 200);
        assert!(q.towers >= 1 && q.towers <= 12);
        assert_eq!(q.counters.get("query.requests"), Some(&200));
        // No screen requests in the stream, and every request lands
        // in exactly one verb bucket.
        assert_eq!(q.counters.get("query.screen").copied().unwrap_or(0), 0);
        let verbs: u64 = ["query.pattern", "query.decompose", "query.topk"]
            .iter()
            .filter_map(|k| q.counters.get(*k))
            .sum();
        assert_eq!(verbs, 200);
        assert!(q.throughput_qps > 0.0);

        // The overload variant sheds exactly the topk fifth of the
        // stream: every scan out-costs the 2-unit budget, every
        // pattern lookup is admitted.
        assert_eq!(over.request_budget, 2);
        assert_eq!(over.shed, 40, "every fifth request sheds");
        assert_eq!(over.counters.get("query.shed_total"), Some(&40));
        assert_eq!(over.counters.get("query.requests"), Some(&200));
        assert_eq!(over.counters.get("query.pattern"), Some(&160));
        assert_eq!(over.counters.get("query.topk").copied().unwrap_or(0), 0);

        // The whole report (with both query sections) passes the gate.
        let mut report = run_bench(&BenchParams {
            sizes: vec![12],
            repeats: 1,
            seed: 7,
            threads: 2,
        })
        .unwrap();
        report.query = Some(q);
        report.query_overload = Some(over);
        validate_bench_json(&report.to_json()).unwrap();
    }

    #[test]
    fn cluster_index_section_validates_and_is_gated() {
        let mut report = sample_report();
        report.cluster_index = Some(sample_cluster_index());
        let good = report.to_json();
        validate_bench_json(&good).unwrap();
        compare_bench_json(&good, &good).unwrap();
        // More leaf evaluations at the same point count is a hard
        // regression — the counter is deterministic, so no slack.
        let mut worse = sample_report();
        worse.cluster_index = Some(ClusterIndexResult {
            leaf_evaluations: 5_000_000_001,
            ..sample_cluster_index()
        });
        let err = compare_bench_json(&worse.to_json(), &good).unwrap_err();
        assert!(err.contains("leaf evaluations"), "{err}");
        // A different point count skips the gate with a note.
        let mut other = sample_report();
        other.cluster_index = Some(ClusterIndexResult {
            points: 50_000,
            merges: 49_999,
            leaf_evaluations: 9_000_000_000,
            ..sample_cluster_index()
        });
        let notes = compare_bench_json(&other.to_json(), &good).unwrap();
        assert!(
            notes.iter().any(|n| n.contains("not compared")),
            "{notes:?}"
        );
        for (tag, breakage) in [
            (
                "incomplete dendrogram",
                good.replace("\"merges\": 99999", "\"merges\": 99998"),
            ),
            (
                "zero wall",
                good.replace("\"wall_ms\": 52000.000", "\"wall_ms\": 0.000"),
            ),
            (
                "no evaluations",
                good.replace(
                    "\"leaf_evaluations\": 5000000000",
                    "\"leaf_evaluations\": 0",
                ),
            ),
            (
                "fractional count",
                good.replace("\"pruned_subtrees\": 4000000", "\"pruned_subtrees\": 0.5"),
            ),
        ] {
            assert!(validate_bench_json(&breakage).is_err(), "{tag} accepted");
        }
    }

    #[test]
    fn comparison_rejects_an_eval_count_regression() {
        let baseline = sample_report().to_json();
        let mut report = sample_report();
        report.workloads[0]
            .counters
            .insert("cluster.distance.evaluations".to_string(), 1_771);
        let err = compare_bench_json(&report.to_json(), &baseline).unwrap_err();
        assert!(err.contains("distance evaluations"), "{err}");
        // Moving the same work to a sibling eval counter is no
        // escape: the gate compares the family's sum.
        let mut report = sample_report();
        report.workloads[0]
            .counters
            .insert("cluster.distance.evaluations".to_string(), 0);
        report.workloads[0]
            .counters
            .insert("cluster.index.leaf_evaluations".to_string(), 1_771);
        let err = compare_bench_json(&report.to_json(), &baseline).unwrap_err();
        assert!(err.contains("distance evaluations"), "{err}");
        // Fewer evaluations — a better pruner — passes with a note.
        let mut report = sample_report();
        report.workloads[0]
            .counters
            .insert("cluster.distance.evaluations".to_string(), 1_000);
        let notes = compare_bench_json(&report.to_json(), &baseline).unwrap();
        assert!(
            notes.iter().any(|n| n.contains("distance evaluations")),
            "{notes:?}"
        );
    }

    #[test]
    fn comparison_rejects_lost_topk_pruning() {
        let mut base = sample_report();
        base.query = Some(sample_query());
        let baseline = base.to_json();
        compare_bench_json(&baseline, &baseline).unwrap();
        // Fewer pruned subtrees over the identical workload shape
        // means the index descent lost power.
        let mut report = sample_report();
        let mut q = sample_query();
        q.counters
            .insert("query.topk_pruned_total".to_string(), 39_999);
        report.query = Some(q);
        let err = compare_bench_json(&report.to_json(), &baseline).unwrap_err();
        assert!(err.contains("pruned"), "{err}");
        // A different stream length skips the gate with a note.
        let mut report = sample_report();
        let mut q = sample_query();
        q.requests = 500;
        q.counters.insert("query.requests".to_string(), 500);
        q.counters.insert("query.topk_pruned_total".to_string(), 0);
        report.query = Some(q);
        let notes = compare_bench_json(&report.to_json(), &baseline).unwrap();
        assert!(
            notes.iter().any(|n| n.contains("not compared")),
            "{notes:?}"
        );
    }

    #[test]
    fn cluster_bench_smoke_builds_a_complete_dendrogram() {
        let params = ClusterBenchParams {
            points: 600,
            seed: 7,
        };
        let r = run_cluster_bench(&params).unwrap();
        assert_eq!(r.points, 600);
        assert_eq!(r.merges, 599);
        assert!(r.leaf_evaluations > 0 && r.nodes_visited > 0);
        assert!(r.pruned_subtrees > 0, "8 separated blobs must prune");
        let mut report = sample_report();
        report.cluster_index = Some(r);
        validate_bench_json(&report.to_json()).unwrap();
    }

    #[test]
    fn validation_rejects_structural_damage() {
        let good = sample_report().to_json();
        for (tag, breakage) in [
            ("bad schema", good.replace(BENCH_SCHEMA, "nope-v0")),
            (
                "no workloads",
                good.replace("\"towers\": 60", "\"towers\": 0"),
            ),
            (
                "p95 below median",
                good.replace("\"total_p95_ms\": 130.25", "\"total_p95_ms\": 1.0"),
            ),
            ("non-numeric counter", good.replace(": 1770", ": \"many\"")),
            (
                "fractional threads",
                good.replace("\"threads\": 4", "\"threads\": 1.5"),
            ),
            ("missing threads", good.replace("\"threads\": 4,", "")),
            ("truncated", good[..good.len() / 2].to_string()),
        ] {
            assert!(validate_bench_json(&breakage).is_err(), "{tag} accepted");
        }
        let empty = good
            .replace("\"stages\": [", "\"stages_x\": [")
            .replace("\"stages_x\"", "\"stages\": [], \"x\"");
        assert!(
            validate_bench_json(&empty).is_err(),
            "empty stages accepted"
        );
    }

    #[test]
    fn comparison_accepts_a_report_against_itself() {
        let json = sample_report().to_json();
        let notes = compare_bench_json(&json, &json).unwrap();
        assert!(
            notes.iter().any(|n| n.contains("within 10% of baseline")),
            "{notes:?}"
        );
    }

    #[test]
    fn comparison_rejects_a_stage_the_baseline_never_saw() {
        let baseline = sample_report().to_json();
        let mut report = sample_report();
        report.workloads[0].stages.push(StageTiming {
            name: "supervise".into(),
            median_ms: 0.1,
            p95_ms: 0.2,
        });
        let err = compare_bench_json(&report.to_json(), &baseline).unwrap_err();
        assert!(err.contains("`supervise`"), "{err}");
    }

    #[test]
    fn comparison_rejects_a_median_regression_beyond_budget() {
        let baseline = sample_report().to_json();
        let mut report = sample_report();
        // cluster: 80 ms baseline; the budget is 80·1.1 + 0.5 = 88.5.
        report.workloads[0].stages[1].median_ms = 95.0;
        report.workloads[0].stages[1].p95_ms = 99.0;
        let err = compare_bench_json(&report.to_json(), &baseline).unwrap_err();
        assert!(err.contains("`cluster`") && err.contains("10%"), "{err}");
        // Just inside the budget passes.
        let mut report = sample_report();
        report.workloads[0].stages[1].median_ms = 88.0;
        report.workloads[0].stages[1].p95_ms = 91.0;
        compare_bench_json(&report.to_json(), &baseline).unwrap();
    }

    #[test]
    fn comparison_skips_medians_at_off_baseline_sizes() {
        let baseline = sample_report().to_json();
        let mut report = sample_report();
        report.workloads[0].towers = 20;
        // A wild regression at an unmatched size is tolerated (the
        // smoke run in CI uses a smaller workload than the committed
        // baseline) — but the stage-set gate still applies.
        report.workloads[0].stages[1].median_ms = 500.0;
        report.workloads[0].stages[1].p95_ms = 500.0;
        let notes = compare_bench_json(&report.to_json(), &baseline).unwrap();
        assert!(
            notes.iter().any(|n| n.contains("medians not compared")),
            "{notes:?}"
        );
        report.workloads[0].stages[0].name = "shadow".into();
        assert!(compare_bench_json(&report.to_json(), &baseline).is_err());
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentiles(vec![3.0]), (3.0, 3.0));
        assert_eq!(percentiles(vec![5.0, 1.0, 3.0]), (3.0, 5.0));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentiles(twenty), (10.0, 19.0));
    }

    #[test]
    fn workload_config_scales_towers_over_the_paper_window() {
        let c = workload_config(60, 7);
        assert_eq!(c.city.n_towers, 60);
        assert_eq!(c.window.n_bins, 4_032);
    }

    #[test]
    fn bench_smoke_produces_valid_json() {
        let params = BenchParams {
            sizes: vec![12],
            repeats: 1,
            seed: 7,
            threads: 2,
        };
        let report = run_bench(&params).unwrap();
        assert_eq!(report.workloads.len(), 1);
        assert_eq!(report.workloads[0].bins, 4_032);
        assert!(!report.workloads[0].counters.is_empty());
        // The raw path materialises its distance matrix, so the
        // counter snapshot carries the build-time evaluation count.
        assert!(
            report.workloads[0]
                .counters
                .contains_key("cluster.distance.evaluations"),
            "counters: {:?}",
            report.workloads[0].counters.keys().collect::<Vec<_>>()
        );
        validate_bench_json(&report.to_json()).unwrap();

        // Same workload forced into the spectral space: the cluster
        // stage goes matrix-free over the exact-pruning spatial index,
        // so the dump must report the index's kernel-evaluation count,
        // letting a bench quantify distance work per feature space.
        // (Sequential with the run above on purpose — both passes
        // reset the process-global registry.)
        towerlens_obs::global().reset();
        let mut config = workload_config(12, 7).with_threads(2);
        config.identifier.feature_space = towerlens_pipeline::FeatureSpace::Spectral;
        Study::new(config).run_instrumented(None).unwrap();
        let counters = towerlens_obs::global().snapshot().counters;
        assert!(
            counters
                .get("cluster.index.leaf_evaluations")
                .copied()
                .unwrap_or(0)
                > 0,
            "spectral run reported no indexed evaluations: {:?}",
            counters.keys().collect::<Vec<_>>()
        );
    }
}
