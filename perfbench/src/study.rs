//! `study-paper` and `study-resume`: the paper preset through the
//! stage engine, cold and resumed from checkpoints.

use std::path::Path;
use std::time::{Duration, Instant};

use towerlens_city::generate::generate;
use towerlens_city::zone::RegionKind;
use towerlens_core::decompose::Decomposer;
use towerlens_core::engine::{CheckpointStore, RunReport, StageStatus};
use towerlens_core::freq::{
    cluster_feature_stats, features_of_goertzel_par, representative_towers, TowerFeatures,
};
use towerlens_core::identifier::PatternIdentifier;
use towerlens_core::labeling::{cluster_of_kind, label_clusters};
use towerlens_core::timedomain::{cluster_series, cluster_time_stats, ClusterTimeStats};
use towerlens_core::{Study, StudyConfig, StudyReport};
use towerlens_mobility::synth::synthesize_city;
use towerlens_opt::simplex::Solver;
use towerlens_pipeline::normalize::normalize_matrix;

use crate::util::{self, counter, median, quantile, secs, Outcome, Spans, WorkDir};

/// Paper-city generations in `study-paper` set-up; the median is
/// reported.
const SETUPS: usize = 15;

/// The stages a checkpointed study persists.
pub const CHECKPOINTED: [&str; 4] = ["city", "synthesize", "vectorize", "cluster"];

/// The paper preset at the benchmark's thread budget.
pub fn paper_config(seed: u64, threads: usize) -> StudyConfig {
    StudyConfig::paper_scale(seed).with_threads(threads)
}

/// Checks the output properties every study must have: every kept
/// tower carries a cluster label, every cluster a region kind.
fn check_report(out: &mut Outcome, report: &StudyReport, what: &str) {
    let labels = &report.patterns.clustering.labels;
    let k = report.patterns.k;
    out.check(
        labels.len() == report.kept_ids.len()
            && labels.iter().all(|&l| l < k)
            && report.geo.labels.len() == k
            && !report.kept_ids.is_empty(),
        || {
            format!(
                "{what}: {} kept towers, {} labels, k = {k}",
                report.kept_ids.len(),
                labels.len()
            )
        },
    );
}

fn shape_line(report: &StudyReport) -> String {
    format!(
        "shape {{\"towers\": {}, \"pois\": {}, \"bins\": {}, \"kept\": {}, \"k\": {}, \"label_agreement\": {:.4}, \"decompose_rows\": {}}}",
        report.city.towers().len(),
        report.city.pois().pois().len(),
        report.window.n_bins,
        report.kept_ids.len(),
        report.patterns.k,
        report.geo.ground_truth_agreement,
        report.decompositions.len()
    )
}

/// Paper cities in one `study-paper` suite: the run's own seed first,
/// then seeds derived from it. Study cost depends on the city (the
/// number of patterns found, and whether the decomposition runs), so a
/// run times several cities rather than one again and again.
const CITIES: u64 = 5;

/// Preset seed of the `i`-th study of a suite.
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    seed ^ (i << 32)
}

/// Child step: one engine study of the paper preset, reported as one
/// `study` line (wall seconds, fingerprint, whether every kept tower is
/// labelled, peak memory, kept towers) and one `shape` line.
pub fn study_child(seed: u64, threads: usize) -> Result<(), String> {
    let t = Instant::now();
    let (report, _) = Study::new(paper_config(seed, threads))
        .run_instrumented(None)
        .map_err(|e| e.to_string())?;
    let wall = secs(t.elapsed());
    let mut out = Outcome::default();
    check_report(&mut out, &report, "study");
    println!(
        "study {wall} {:016x} {} {} {}",
        report.fingerprint(),
        out.failed == 0,
        util::peak_rss_mb(),
        report.kept_ids.len()
    );
    println!("{}", shape_line(&report));
    Ok(())
}

/// What one [`study_child`] reported.
struct ChildStudy {
    wall_s: f64,
    fingerprint: String,
    labelled: bool,
    peak_rss_mb: f64,
    kept: f64,
    shape: String,
}

fn study_in_child(seed: u64, threads: usize) -> Result<ChildStudy, String> {
    let stdout = util::run_child(&["__study".into(), seed.to_string(), threads.to_string()])?;
    let shape = stdout
        .lines()
        .find(|l| l.starts_with("shape "))
        .unwrap_or_default()
        .to_string();
    let fields: Vec<&str> = stdout
        .lines()
        .find_map(|l| l.strip_prefix("study "))
        .ok_or("study child printed no result")?
        .split_whitespace()
        .collect();
    let num = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("bad study line {fields:?}"))
    };
    Ok(ChildStudy {
        wall_s: num(0)?,
        fingerprint: fields.get(1).copied().unwrap_or_default().to_string(),
        labelled: fields.get(2) == Some(&"true"),
        peak_rss_mb: num(3)?,
        kept: num(4)?,
        shape,
    })
}

/// `study-paper`: `Study::run_instrumented(None)` on the paper preset,
/// one study per child process — as each `towerlens study` invocation
/// runs. The unit of work is a suite, one study of each of the run's
/// cities; suites repeat until `seconds` have passed, and a city that
/// comes round again must fingerprint identically. Set-up generates the
/// run's paper city (the study's input) to check its shape.
pub fn paper(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let threads = util::nproc();
    let mut out = Outcome::default();

    let config = paper_config(seed, threads).city;
    let mut setups = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let city = generate(&config).map_err(|e| e.to_string())?;
        setups.push(secs(t.elapsed()));
        out.check(city.towers().len() == config.n_towers, || {
            format!("paper city has {} towers", city.towers().len())
        });
    }

    let (mut suites, mut rss, mut towers) = (Vec::new(), Vec::new(), 0.0);
    let mut fingerprints = Vec::new();
    let timed = Instant::now();
    while suites.is_empty() || secs(timed.elapsed()) < seconds {
        let mut suite_s = 0.0;
        for i in 0..CITIES {
            let sub = sub_seed(seed, i);
            let study = study_in_child(sub, threads)?;
            eprintln!("perfbench: study seed {sub}: {:.3} s", study.wall_s);
            suite_s += study.wall_s;
            rss.push(study.peak_rss_mb);
            towers += study.kept;
            out.check(study.labelled, || {
                format!("study at seed {sub} left kept towers unlabelled")
            });
            if suites.is_empty() {
                println!("{} seed={sub}", study.shape);
                fingerprints.push(study.fingerprint);
            } else {
                let first = &fingerprints[i as usize];
                out.check(study.fingerprint == *first, || {
                    format!(
                        "seed {sub} fingerprinted {}, earlier {first}",
                        study.fingerprint
                    )
                });
            }
        }
        suites.push(suite_s * 1e3);
    }
    let total_s: f64 = suites.iter().sum::<f64>() / 1e3;
    out.set("setup_s", median(&setups), "s");
    out.set("op_p50_ms", median(&suites), "ms");
    out.set("op_p90_ms", quantile(&suites, 0.9), "ms");
    out.set("throughput_per_s", towers / total_s, "1/s");
    out.set("peak_rss_mb", median(&rss), "MB");
    Ok(out)
}

/// The study's layers called one by one through their public
/// functions, each inside a span, in the engine's stage order (wave 4
/// — label, time domain, frequency — concurrently, as the engine runs
/// it). Returns the assembled report so it can be fingerprinted
/// against the engine's.
fn traced_study(cfg: &StudyConfig, spans: &Spans) -> Result<StudyReport, String> {
    let threads = cfg.threads;
    let root_id = spans.open("study", None);
    let root = Some(root_id);
    let city = spans
        .time("city.generate", root, || generate(&cfg.city))
        .map_err(|e| e.to_string())?;
    let raw = spans.time("mobility.synthesize", root, || {
        synthesize_city(&city, &cfg.window, &cfg.synth)
    });
    let normalized = spans
        .time("pipeline.vectorize", root, || normalize_matrix(&raw))
        .map_err(|e| e.to_string())?;
    let patterns = spans
        .time("cluster.identify", root, || {
            PatternIdentifier::new(cfg.identifier)
                .identify_in(&normalized.vectors, Some(&cfg.window))
        })
        .map_err(|e| e.to_string())?;

    let wave_id = spans.open("core.wave4", root);
    let wave = Some(wave_id);
    let (geo, time, freq) = std::thread::scope(|s| {
        let geo = s.spawn(|| {
            spans.time("core.label", wave, || {
                label_clusters(&city, &patterns.clustering, &normalized.kept_ids, threads)
            })
        });
        let time = s.spawn(|| {
            spans.time("core.timedomain", wave, || {
                let kept_raw: Vec<Vec<f64>> = normalized
                    .kept_ids
                    .iter()
                    .map(|&id| raw[id].clone())
                    .collect();
                let series = cluster_series(&kept_raw, &patterns.clustering)?;
                let stats: Vec<ClusterTimeStats> = series
                    .iter()
                    .map(|s| cluster_time_stats(s, &cfg.window))
                    .collect::<Result<_, _>>()?;
                Ok::<_, towerlens_core::CoreError>((series, stats))
            })
        });
        let freq = s.spawn(|| {
            spans.time("dsp.frequency", wave, || {
                let features = features_of_goertzel_par(&normalized.vectors, &cfg.window, threads)?;
                let stats = cluster_feature_stats(&features, &patterns.clustering)?;
                Ok::<_, towerlens_core::CoreError>((features, stats))
            })
        });
        (geo.join(), time.join(), freq.join())
    });
    spans.close(wave_id);
    let geo = geo
        .map_err(|_| "label panicked")?
        .map_err(|e| e.to_string())?;
    let (cluster_series, time_stats) = time
        .map_err(|_| "timedomain panicked")?
        .map_err(|e| e.to_string())?;
    let (features, feature_stats) = freq
        .map_err(|_| "frequency panicked")?
        .map_err(|e| e.to_string())?;

    let (representatives, decompositions) = spans
        .time("opt.decompose", root, || {
            let pure: Option<Vec<usize>> = RegionKind::PURE
                .iter()
                .map(|&k| cluster_of_kind(&geo.labels, k))
                .collect();
            match pure {
                Some(pure) if pure.len() == 4 => {
                    let reps = representative_towers(&features, &patterns.clustering, &pure)?;
                    let reps4 = [reps[0], reps[1], reps[2], reps[3]];
                    let rep_features: [TowerFeatures; 4] = reps4.map(|r| features[r]);
                    let decomposer = Decomposer::new(
                        &rep_features,
                        &city,
                        &normalized.kept_ids,
                        Solver::ActiveSet,
                    )?;
                    let mut targets = reps4.to_vec();
                    if let Some(comp) = cluster_of_kind(&geo.labels, RegionKind::Comprehensive) {
                        let members = patterns.clustering.members(comp);
                        let step = (members.len() / cfg.decompose_sample.max(1)).max(1);
                        targets.extend(members.iter().step_by(step).take(cfg.decompose_sample));
                    }
                    let rows = decomposer.decompose_all_par(&targets, &features, threads)?;
                    Ok((Some(reps4), rows))
                }
                _ => Ok::<_, towerlens_core::CoreError>((None, Vec::new())),
            }
        })
        .map_err(|e| e.to_string())?;
    spans.close(root_id);

    Ok(StudyReport {
        city,
        window: cfg.window,
        raw,
        kept_ids: normalized.kept_ids,
        vectors: normalized.vectors,
        patterns,
        geo,
        cluster_series,
        time_stats,
        features,
        feature_stats,
        representatives,
        decompositions,
    })
}

/// Traced `study-paper`: an untraced engine study (the reference for
/// fingerprint and overhead), the traced layer-by-layer study, and a
/// one-thread engine study for the parallel speed-up.
pub fn paper_traced(seed: u64) -> Result<Outcome, String> {
    let threads = util::nproc();
    let cfg = paper_config(seed, threads);
    let mut out = Outcome::default();

    let t = Instant::now();
    let (reference, _) = Study::new(cfg.clone())
        .run_instrumented(None)
        .map_err(|e| e.to_string())?;
    let untraced = secs(t.elapsed());
    check_report(&mut out, &reference, "engine study");
    let fingerprint = reference.fingerprint();
    println!("{}", shape_line(&reference));
    out.set(
        "core.label_agreement",
        reference.geo.ground_truth_agreement,
        "ratio",
    );
    out.set("core.k", reference.patterns.k as f64, "count");
    drop(reference);

    towerlens_obs::global().reset();
    let spans = Spans::new();
    let report = traced_study(&cfg, &spans)?;
    let traced = spans.wall_s("study");
    check_report(&mut out, &report, "traced study");
    let got = report.fingerprint();
    out.check(got == fingerprint, || {
        format!("traced study fingerprint {got:016x} differs from the engine's {fingerprint:016x}")
    });

    let n = report.kept_ids.len() as f64;
    out.set("city.generate_s", spans.self_s("city.generate"), "s");
    out.set("city.pois", report.city.pois().pois().len() as f64, "count");
    out.set(
        "mobility.synthesize_s",
        spans.self_s("mobility.synthesize"),
        "s",
    );
    out.set(
        "pipeline.vectorize_s",
        spans.self_s("pipeline.vectorize"),
        "s",
    );
    out.set("cluster.identify_s", spans.self_s("cluster.identify"), "s");
    let leaf = counter("cluster.index.leaf_evaluations") as f64;
    out.set("cluster.index.leaf_evaluations", leaf, "count");
    out.set(
        "cluster.index.pruned_subtrees",
        counter("cluster.index.pruned_subtrees") as f64,
        "count",
    );
    out.set(
        "cluster.index.evals_over_floor",
        leaf / (n * (n - 1.0) / 2.0),
        "ratio",
    );
    out.set("core.label_s", spans.self_s("core.label"), "s");
    out.set("core.timedomain_s", spans.self_s("core.timedomain"), "s");
    out.set("core.wave4_s", spans.wall_s("core.wave4"), "s");
    out.set("dsp.frequency_s", spans.self_s("dsp.frequency"), "s");
    out.set(
        "dsp.goertzel.evaluations",
        counter("dsp.goertzel.evaluations") as f64,
        "count",
    );
    out.set("opt.decompose_s", spans.self_s("opt.decompose"), "s");
    out.set(
        "core.decompose.rows",
        report.decompositions.len() as f64,
        "count",
    );
    out.set("study.self_s", spans.self_s("study"), "s");
    out.set(
        "tracing.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
    );
    spans.dump("study-paper");
    drop(report);

    let t = Instant::now();
    let (single, _) = Study::new(paper_config(seed, 1))
        .run_instrumented(None)
        .map_err(|e| e.to_string())?;
    let one_thread = secs(t.elapsed());
    let got = single.fingerprint();
    out.check(got == fingerprint, || {
        format!("1-thread study fingerprint {got:016x} differs from the {threads}-thread one")
    });
    out.set("par.study_speedup", one_thread / untraced, "ratio");
    Ok(out)
}

/// Child step: one checkpointed study at `dir`, printing its fingerprint
/// and each stage's wall time (compute plus checkpoint write).
pub fn cold_child(seed: u64, threads: usize, dir: &Path) -> Result<(), String> {
    let study = Study::new(paper_config(seed, threads));
    let store =
        CheckpointStore::open(dir, study.checkpoint_fingerprint()).map_err(|e| e.to_string())?;
    let (report, run) = study
        .run_instrumented(Some(&store))
        .map_err(|e| e.to_string())?;
    println!("fingerprint {:016x}", report.fingerprint());
    for stage in &run.stages {
        println!("stage {} {} {}", stage.name, stage.status, secs(stage.wall));
    }
    Ok(())
}

struct Cold {
    wall: Duration,
    fingerprint: String,
    stage_s: Vec<(String, f64)>,
}

fn cold_run(seed: u64, threads: usize, dir: &Path) -> Result<Cold, String> {
    let t = Instant::now();
    let stdout = util::run_child(&[
        "__cold-study".into(),
        seed.to_string(),
        threads.to_string(),
        dir.display().to_string(),
    ])?;
    let wall = t.elapsed();
    let mut fingerprint = String::new();
    let mut stage_s = Vec::new();
    for line in stdout.lines() {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["fingerprint", fp] => fingerprint = fp.to_string(),
            ["stage", name, _status, s] => stage_s.push((
                name.to_string(),
                s.parse::<f64>().map_err(|e| e.to_string())?,
            )),
            _ => {}
        }
    }
    Ok(Cold {
        wall,
        fingerprint,
        stage_s,
    })
}

/// One warm resume; checks it recomputed none of the checkpointed
/// stages and reproduced the cold run bit for bit.
fn resume_once(
    study: &Study,
    store: &CheckpointStore,
    cold: &Cold,
    out: &mut Outcome,
) -> Result<(f64, RunReport, usize), String> {
    let t = Instant::now();
    let (report, run) = study
        .run_instrumented(Some(store))
        .map_err(|e| e.to_string())?;
    let wall = secs(t.elapsed());
    check_report(out, &report, "resumed study");
    let fp = format!("{:016x}", report.fingerprint());
    out.check(fp == cold.fingerprint, || {
        format!(
            "resumed fingerprint {fp} differs from the cold run's {}",
            cold.fingerprint
        )
    });
    let recomputed: Vec<&str> = CHECKPOINTED
        .iter()
        .copied()
        .filter(|s| run.stage(s).is_none_or(|r| r.status == StageStatus::Ran))
        .collect();
    out.check(recomputed.is_empty(), || {
        format!("resume recomputed checkpointed stages {recomputed:?}")
    });
    Ok((wall, run, report.kept_ids.len()))
}

/// `study-resume`: set-up is one cold checkpointed study in a child
/// process; the timed phase resumes from its checkpoints back to back.
pub fn resume(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let threads = util::nproc();
    let work = WorkDir::new("study-resume");
    let dir = work.path("ckpt");
    let mut out = Outcome::default();

    let cold = cold_run(seed, threads, &dir)?;
    let study = Study::new(paper_config(seed, threads));
    let store =
        CheckpointStore::open(&dir, study.checkpoint_fingerprint()).map_err(|e| e.to_string())?;
    let ckpt_mb = util::disk_mb(&dir);
    println!(
        "shape {{\"checkpoint_bytes\": {}, \"checkpoint_files\": {}}}",
        (ckpt_mb * 1024.0 * 1024.0).round(),
        std::fs::read_dir(&dir).map_or(0, |d| d.count())
    );

    if traced {
        let spans = Spans::new();
        let untraced = resume_once(&study, &store, &cold, &mut out)?.0;
        let root = spans.open("resume", None);
        let (_, run, _) = resume_once(&study, &store, &cold, &mut out)?;
        spans.close(root);
        let traced_wall = spans.wall_s("resume");
        for stage in CHECKPOINTED {
            let load = run.stage(stage).map_or(0.0, |r| secs(r.wall));
            out.set(&format!("ckpt.load_s.{stage}"), load, "s");
            let cold_s = cold
                .stage_s
                .iter()
                .find(|(n, _)| n == stage)
                .map_or(0.0, |(_, s)| *s);
            out.set(&format!("ckpt.cold_s.{stage}"), cold_s, "s");
            let mb = util::disk_mb(&store.path_of(stage));
            out.set(&format!("ckpt.mb.{stage}"), mb, "MB");
        }
        out.set("ckpt.mb.total", ckpt_mb, "MB");
        out.set(
            "tracing.overhead_pct",
            (traced_wall - untraced) / untraced * 100.0,
            "%",
        );
        for span in run.spans() {
            eprintln!(
                "span {{\"workload\": \"study-resume\", \"name\": \"{}\", \"parent\": \"resume\", \"status\": \"{}\", \"start_us\": {}, \"end_us\": {}}}",
                span.name, span.status, span.start_us, span.end_us
            );
        }
        return Ok(out);
    }

    let mut walls = Vec::new();
    let mut towers = 0;
    let timed = Instant::now();
    while walls.is_empty() || secs(timed.elapsed()) < seconds {
        let (wall, _, n) = resume_once(&study, &store, &cold, &mut out)?;
        walls.push(wall * 1e3);
        towers = n;
    }
    let total_s: f64 = walls.iter().sum::<f64>() / 1e3;
    out.set("setup_s", secs(cold.wall), "s");
    out.set("op_p50_ms", median(&walls), "ms");
    out.set("op_p90_ms", quantile(&walls, 0.9), "ms");
    out.set(
        "throughput_per_s",
        towers as f64 * walls.len() as f64 / total_s,
        "1/s",
    );
    out.set("peak_rss_mb", util::peak_rss_mb(), "MB");
    Ok(out)
}
