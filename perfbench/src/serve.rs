//! `serve-ingest`: the shipped `serve --publish` daemon fed through a
//! pipe, one WAL segment at a time, each segment waited on until its
//! generation is published and queryable.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use towerlens_artifact::{fsck_artifact, read_current, read_snapshot, Publisher};
use towerlens_city::config::CityConfig;
use towerlens_city::generate::generate;
use towerlens_mobility::agents::{AgentConfig, AgentPopulation};
use towerlens_serve::{batch_reference, ServeConfig, WalWriter};
use towerlens_trace::record::LogRecord;
use towerlens_trace::time::TraceWindow;

use crate::util::{self, median, quantile, secs, Outcome, Spans, WorkDir};

/// Records per WAL segment: the daemon's default, and its snapshot and
/// publish cadence.
const SEGMENT: usize = 4_096;
/// Subscribers in the seeded population; sized so the 7-day stream
/// spans at least 100 segments.
const AGENTS: usize = 1_800;
/// How long one segment may take to become visible before the run is
/// abandoned.
const SEGMENT_TIMEOUT: Duration = Duration::from_secs(60);
/// Stream generations in set-up; the median is reported.
const SETUPS: usize = 3;

/// The seeded stream: an agent population over the `small` city
/// preset, emitted in start-time order as a live feed delivers it.
fn stream(seed: u64) -> Result<Vec<String>, String> {
    let city = generate(&CityConfig::small(seed)).map_err(|e| e.to_string())?;
    let window = TraceWindow::days(ServeConfig::default().days);
    let population = AgentPopulation::generate(
        &city,
        AgentConfig {
            seed,
            n_agents: AGENTS,
            ..AgentConfig::default()
        },
    );
    let mut records = population.emit_logs(&city, &window);
    records.sort_by_key(|r| r.start_s);
    Ok(records.iter().map(LogRecord::to_line).collect())
}

enum Event {
    Snapshot(u64, Instant),
    Published,
    PeakRss(f64),
    Other(String),
}

fn parse_event(line: &str) -> Event {
    let now = Instant::now();
    if let Some(rest) = line.strip_prefix("serve: snapshot at seq ") {
        if let Some(seq) = rest.split_whitespace().next().and_then(|s| s.parse().ok()) {
            return Event::Snapshot(seq, now);
        }
    }
    if line.starts_with("serve: published generation ") {
        return Event::Published;
    }
    if let Some(mb) = line.strip_prefix("perfbench: serve peak_rss_mb ") {
        return Event::PeakRss(mb.trim().parse().unwrap_or(0.0));
    }
    Event::Other(line.to_string())
}

/// One daemon run over the stream.
struct Ingest {
    /// Per full segment: write of its last record → generation visible.
    fresh_ms: Vec<f64>,
    /// First byte written → drain report received.
    wall: Duration,
    /// Full segments whose snapshot came without a published generation.
    unpublished: usize,
    report: String,
    peak_rss_mb: f64,
    metrics: String,
}

fn spawn_daemon(config: &ServeConfig, metrics: &Path) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let publish = config.publish.as_ref().expect("publish dir");
    Command::new(exe)
        .arg("__serve")
        .arg("serve")
        .args([
            "--source",
            "/dev/stdin",
            "--shards",
            &config.shards.to_string(),
        ])
        .arg("--data")
        .arg(&config.data_dir)
        .arg("--publish")
        .arg(publish)
        .arg("--metrics")
        .arg(metrics)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn serve: {e}"))
}

/// Runs the daemon over the stream, one segment at a time. Both pipe
/// readers are joined on every path; on failure the daemon is killed
/// first so they see end of file.
fn ingest(
    lines: &[String],
    config: &ServeConfig,
    metrics: &Path,
    spans: Option<&Spans>,
) -> Result<Ingest, String> {
    let mut child = spawn_daemon(config, metrics)?;
    let (tx, rx) = mpsc::channel();
    let stderr = child.stderr.take().expect("piped stderr");
    let events = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if tx.send(parse_event(&line)).is_err() {
                break;
            }
        }
    });
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut report = String::new();
        let _ = stdout.read_to_string(&mut report);
        (report, Instant::now())
    });

    let started = Instant::now();
    let stdin = child.stdin.take().expect("piped stdin");
    let fed = feed(stdin, lines, &rx, spans);
    if fed.is_err() {
        let _ = child.kill();
    }
    let (report, done) = reader.join().map_err(|_| "stdout reader panicked")?;
    let peak_rss_mb = rx
        .iter()
        .filter_map(|e| match e {
            Event::PeakRss(mb) => Some(mb),
            _ => None,
        })
        .last()
        .unwrap_or(0.0);
    events.join().map_err(|_| "stderr reader panicked")?;
    let status = child.wait().map_err(|e| e.to_string())?;
    let (fresh_ms, unpublished) = fed?;
    if !status.success() {
        return Err(format!("serve exited with {status}"));
    }
    Ok(Ingest {
        fresh_ms,
        wall: done - started,
        unpublished,
        report,
        peak_rss_mb,
        metrics: std::fs::read_to_string(metrics).unwrap_or_default(),
    })
}

/// Writes the stream segment by segment, waiting after each full one
/// until the daemon reports its snapshot, then closes the pipe. Returns
/// each full segment's freshness (ms) and how many were not published.
fn feed(
    mut stdin: ChildStdin,
    lines: &[String],
    rx: &mpsc::Receiver<Event>,
    spans: Option<&Spans>,
) -> Result<(Vec<f64>, usize), String> {
    let mut fresh_ms = Vec::new();
    let mut unpublished = 0;
    let mut noise = Vec::new();
    for (i, segment) in lines.chunks(SEGMENT).enumerate() {
        let span = spans.map(|s| s.open("serve.segment", None));
        let mut text = segment.join("\n");
        text.push('\n');
        stdin
            .write_all(text.as_bytes())
            .map_err(|e| format!("write to serve: {e}"))?;
        stdin.flush().map_err(|e| e.to_string())?;
        let written = Instant::now();
        if segment.len() < SEGMENT {
            break;
        }
        let want = ((i + 1) * SEGMENT) as u64;
        let mut published = false;
        loop {
            match rx.recv_timeout(SEGMENT_TIMEOUT) {
                Ok(Event::Snapshot(seq, at)) if seq == want => {
                    fresh_ms.push(secs(at - written) * 1e3);
                    break;
                }
                Ok(Event::Snapshot(seq, _)) => {
                    return Err(format!("snapshot at seq {seq} while waiting for {want}"))
                }
                Ok(Event::Published) => published = true,
                Ok(Event::PeakRss(_)) => {}
                Ok(Event::Other(line)) => noise.push(line),
                Err(_) => return Err(format!("segment {i} never became visible: {noise:?}")),
            }
        }
        if let (Some(s), Some(id)) = (spans, span) {
            s.close(id);
        }
        if !published {
            unpublished += 1;
        }
    }
    Ok((fresh_ms, unpublished))
}

/// A counter from a `--metrics` dump.
fn dumped_counter(json: &str, name: &str) -> f64 {
    let key = format!("\"{name}\":");
    json.find(&key)
        .map(|at| {
            json[at + key.len()..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0.0)
}

fn config_for(work: &WorkDir, tag: &str, source: PathBuf) -> ServeConfig {
    ServeConfig {
        source,
        data_dir: work.path(&format!("data-{tag}")),
        shards: util::nproc(),
        publish: Some(work.path(&format!("publish-{tag}"))),
        ..ServeConfig::default()
    }
}

/// Checks one ingest against the batch reference over the same stream
/// and the published store's final generation.
fn check_ingest(
    out: &mut Outcome,
    run: &Ingest,
    expect: &str,
    config: &ServeConfig,
    segments: usize,
) {
    out.check(run.report == expect, || {
        format!(
            "drain report differs from batch_reference:\n{}\nvs\n{expect}",
            run.report
        )
    });
    out.attempted += segments as u64;
    out.failed += (segments.saturating_sub(run.fresh_ms.len()) + run.unpublished) as u64;
    if run.unpublished > 0 {
        out.misses
            .push(format!("{} segments were never published", run.unpublished));
    }
    let publish = config.publish.as_ref().expect("publish dir");
    let healthy = read_current(publish)
        .ok()
        .flatten()
        .and_then(|name| fsck_artifact(&publish.join(name.trim())).ok())
        .is_some_and(|f| f.healthy());
    out.check(healthy, || "the CURRENT generation fails fsck".to_string());
}

/// Runs the workload. Its length is the stream's, so it takes no
/// `--seconds`.
pub fn run(seed: u64, traced: bool) -> Result<Outcome, String> {
    let work = WorkDir::new("serve-ingest");
    let mut out = Outcome::default();

    let mut setups = Vec::new();
    let mut lines = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        lines = stream(seed)?;
        setups.push(secs(t.elapsed()));
    }
    let source = work.path("stream.tsv");
    std::fs::write(&source, lines.join("\n") + "\n").map_err(|e| e.to_string())?;
    let segments = lines.len() / SEGMENT;
    println!(
        "shape {{\"towers\": {}, \"records\": {}, \"segments\": {segments}, \"segment_records\": {SEGMENT}, \"shards\": {}}}",
        CityConfig::small(seed).n_towers,
        lines.len(),
        util::nproc()
    );

    let t = Instant::now();
    let reference = batch_reference(&config_for(&work, "ref", source.clone()))
        .map_err(|e| e.to_string())?
        .render();
    let reference_s = secs(t.elapsed());

    let config = config_for(&work, "timed", source.clone());
    let metrics = work.path("metrics.json");
    let timed = ingest(&lines, &config, &metrics, None)?;
    check_ingest(&mut out, &timed, &reference, &config, segments);

    if !traced {
        out.set("setup_s", median(&setups), "s");
        out.set("op_p50_ms", median(&timed.fresh_ms), "ms");
        out.set("op_p90_ms", quantile(&timed.fresh_ms, 0.9), "ms");
        out.set(
            "throughput_per_s",
            lines.len() as f64 / secs(timed.wall),
            "1/s",
        );
        out.set("peak_rss_mb", timed.peak_rss_mb, "MB");
        return Ok(out);
    }

    // A second daemon run with every segment inside a span.
    let spans = Spans::new();
    let config = config_for(&work, "traced", source.clone());
    let traced_run = ingest(
        &lines,
        &config,
        &work.path("metrics-traced.json"),
        Some(&spans),
    )?;
    check_ingest(&mut out, &traced_run, &reference, &config, segments);
    out.set(
        "tracing.overhead_pct",
        (secs(traced_run.wall) - secs(timed.wall)) / secs(timed.wall) * 100.0,
        "%",
    );

    // Layer calls on the same stream.
    let t = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        LogRecord::parse_line(line, i + 1).map_err(|e| e.to_string())?;
    }
    out.set(
        "trace.parse_us",
        secs(t.elapsed()) / lines.len() as f64 * 1e6,
        "us",
    );

    let wal_dir = work.path("wal-bench");
    let mut wal = WalWriter::open(&wal_dir).map_err(|e| e.to_string())?;
    let flush_every = ServeConfig::default().flush_every as usize;
    let (mut append, mut sync, mut syncs) = (Duration::ZERO, Duration::ZERO, 0u32);
    for (seq, line) in lines.iter().enumerate() {
        let t = Instant::now();
        wal.append(seq as u64, line).map_err(|e| e.to_string())?;
        append += t.elapsed();
        if (seq + 1) % flush_every == 0 {
            let t = Instant::now();
            wal.sync().map_err(|e| e.to_string())?;
            sync += t.elapsed();
            syncs += 1;
        }
        if (seq + 1) % SEGMENT == 0 {
            wal.rotate().map_err(|e| e.to_string())?;
        }
    }
    out.set(
        "serve.wal_append_us",
        secs(append) / lines.len() as f64 * 1e6,
        "us",
    );
    out.set(
        "serve.wal_sync_ms",
        secs(sync) / f64::from(syncs.max(1)) * 1e3,
        "ms",
    );

    let m = &timed.metrics;
    let ingested = dumped_counter(m, "serve.records_ingested");
    out.set(
        "serve.backpressure_waits",
        dumped_counter(m, "serve.backpressure_waits"),
        "count",
    );
    out.set(
        "serve.revectorize_ratio",
        dumped_counter(m, "pipeline.vectorize.records") / ingested.max(1.0),
        "ratio",
    );
    out.set(
        "cluster.distance.evaluations",
        dumped_counter(m, "cluster.distance.evaluations"),
        "count",
    );
    out.set("serve.records_ingested", ingested, "count");
    out.set("serve.batch_reference_s", reference_s, "s");
    out.set(
        "serve.snap_mb",
        util::disk_mb(&config.data_dir.join(towerlens_serve::SNAP_DIR)),
        "MB",
    );

    let publish = config.publish.as_ref().expect("publish dir");
    let current = read_current(publish)
        .map_err(|e| e.to_string())?
        .ok_or("no CURRENT generation")?;
    let snapshot = read_snapshot(&publish.join(current.trim())).map_err(|e| e.to_string())?;
    let mut publisher =
        Publisher::open(&work.path("publish-once"), None).map_err(|e| e.to_string())?;
    let t = Instant::now();
    publisher.publish(&snapshot).map_err(|e| e.to_string())?;
    out.set("serve.publish_ms", secs(t.elapsed()) * 1e3, "ms");
    out.set("serve.fresh_p50_ms", median(&traced_run.fresh_ms), "ms");
    spans.dump("serve-ingest");
    Ok(out)
}
