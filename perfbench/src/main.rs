//! `perfbench` — the rlckit benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--server PATH]
//! perfbench --list
//! perfbench --steadiness RUNS --workload NAME --seed FIRST --seconds S [--server PATH]
//! perfbench --dump --workload NAME --seed N --seconds S
//! perfbench --workload figures_regen --figure-setup   # one cold pass, in a child
//! ```
//!
//! A measuring run (`--trace 0`) drives one workload for `--seconds` and
//! prints every end-to-end metric; a traced run (`--trace 1`) replays every
//! workload's requests in process and prints every per-layer metric. Either
//! way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`, and any correctness
//! failure makes the run exit non-zero. Workloads, metrics and bounds are
//! listed in `BENCHMARK.json`; `NOTES.md` beside this package explains them.

mod client;
mod figures;
mod gen;
mod replay;
mod rng;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rlckit_server::json::{self, Value};
use rlckit_server::request::{parse_line, Request};
use rlckit_sweep::figures::FIGURES;
use rlckit_sweep::SweepOptions;

use crate::client::{Daemon, Record};
use crate::figures::{parse_values, rows_agree};
use crate::gen::{GenRequest, ReuseStream};
use crate::rng::Rng;
use crate::stats::{
    highest_supported, median, percentile, quartiles, spread, windowed_percentile, windowed_rate,
};
use std::collections::HashMap;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["cold_transient", "reuse_closed", "figures_regen"];

/// Connections and client threads of the daemon workloads (the machine's
/// `nproc`).
const CLIENTS: usize = 2;
/// Daemon worker threads.
const WORKERS: &str = "2";
/// Latency limit of a request for `goodput_rps`, per workload.
const COLD_LIMIT_S: f64 = 1.0;
const REUSE_LIMIT_S: f64 = 0.05;
const FIGURE_CELL_LIMIT_S: f64 = 0.5;
/// Daemon spawns whose median is `setup_s`.
const COLD_SETUPS: usize = 5;
const REUSE_SETUPS: usize = 5;
/// Fresh cells per run re-evaluated in process as a correctness check.
const CHECK_SAMPLE: usize = 8;
/// Timed figure passes at least, whatever `--seconds` says.
const MIN_FIGURE_PASSES: usize = 4;
/// Fresh processes whose first figure pass gives `setup_s` (median).
const FIGURE_SETUPS: usize = 3;
/// Requests per second of `--seconds` that `--dump` writes of an endless
/// stream: several times the rate the daemon sustains on 2 vCPUs for
/// `cold_transient` (14–18 req/s), and about that rate for `reuse_closed`.
const DUMP_PER_S: [(&str, f64); 2] = [("cold_transient", 100.0), ("reuse_closed", 1500.0)];

/// Named metric values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// A finished run: what the result line reports.
struct RunResult {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Metrics,
}

/// Statistics of one daemon workload's records.
fn daemon_metrics(
    m: &mut Metrics,
    records: &[Record],
    limit_s: f64,
    setup_s: f64,
    figures_s: f64,
    rss_mb: f64,
) -> Result<(), String> {
    let latencies: Vec<f64> = records.iter().map(|r| r.timing.latency() * 1e3).collect();
    let first: Vec<f64> =
        records.iter().filter_map(|r| r.timing.first_cell_latency().map(|f| f * 1e3)).collect();
    let mut by_end: Vec<&Record> = records.iter().collect();
    by_end.sort_by(|a, b| a.timing.end.total_cmp(&b.timing.end));
    let rate = |weight: &dyn Fn(&Record) -> f64| {
        windowed_rate(&by_end.iter().map(|r| (r.timing.end, weight(r))).collect::<Vec<_>>())
    };
    if let Some((p, v)) = highest_supported(&latencies) {
        eprintln!(
            "latency: {} requests, highest supported percentile p{p} = {v:.3} ms",
            latencies.len()
        );
    }
    m.put("setup_s", setup_s, "s");
    m.put("throughput_rps", rate(&|r| if r.timing.is_failure() { 0.0 } else { 1.0 }), "1/s");
    m.put("cells_per_s", rate(&|r| r.cells.len() as f64), "1/s");
    m.put("latency_p50_ms", windowed_percentile(&latencies, 50.0)?, "ms");
    m.put("latency_p90_ms", windowed_percentile(&latencies, 90.0)?, "ms");
    m.put("first_cell_p50_ms", windowed_percentile(&first, 50.0)?, "ms");
    m.put("goodput_rps", rate(&|r| if r.timing.is_good(limit_s) { 1.0 } else { 0.0 }), "1/s");
    m.put("figures_s", figures_s, "s");
    m.put("peak_rss_mb", rss_mb, "MiB");
    Ok(())
}

/// Identity of repeated answers, done-line accounting, and (on a seeded
/// sample of fresh cells) agreement with an in-process evaluation with the
/// pattern cache off.
struct Checker {
    /// Digest of each scenario's key, and of its first answer.
    first: HashMap<u64, u64>,
    /// Fresh cells seen so far.
    fresh_seen: usize,
    /// A seeded reservoir sample of the fresh cells: request line, cell
    /// index and digest of the first answer.
    sample: Vec<(String, usize, u64)>,
    rng: Rng,
    mismatches: Vec<String>,
}

impl Checker {
    fn new(seed: u64) -> Self {
        Self {
            first: HashMap::new(),
            fresh_seen: 0,
            sample: Vec::new(),
            rng: Rng::new(seed, "check"),
            mismatches: Vec::new(),
        }
    }

    /// Checks the record of `request`.
    fn record(&mut self, request: &GenRequest, record: &Record) {
        let Some(done) = record.done else { return };
        let answered = record.cells.len() as u64;
        if done.iter().sum::<u64>() != request.cells() as u64
            || answered + done[3] != request.cells() as u64
        {
            self.mismatches
                .push(format!("{}: done line does not account for every cell", request.id));
        }
        // No request carries a deadline, so no cell is cancelled and the
        // k-th cell line must answer cell k.
        if !record.in_order {
            self.mismatches.push(format!("{}: cells out of order", request.id));
        }
        for (index, &answer) in record.cells.iter().enumerate() {
            let Some(answer) = answer else { continue };
            let key = client::digest(&request.cell_keys[index]);
            match self.first.get(&key) {
                Some(&prev) if prev != answer => self.mismatches.push(format!(
                    "{}: answer for {} changed",
                    request.id, request.cell_keys[index]
                )),
                Some(_) => {}
                None => {
                    self.first.insert(key, answer);
                    // Reservoir sampling keeps each fresh cell with equal chance.
                    self.fresh_seen += 1;
                    if self.sample.len() < CHECK_SAMPLE {
                        self.sample.push((request.line.clone(), index, answer));
                    } else {
                        let slot = self.rng.range(0, self.fresh_seen - 1);
                        if slot < CHECK_SAMPLE {
                            self.sample[slot] = (request.line.clone(), index, answer);
                        }
                    }
                }
            }
        }
    }

    /// Asks the daemon again for each sampled fresh cell: the answer must be
    /// the first answer byte for byte (the daemon replays it from its memo),
    /// and must agree with `Evaluator::evaluate` run in process.
    fn sample(&mut self, daemon: &Daemon) -> Result<(), String> {
        let mut conn = daemon.connect()?;
        for (line, index, first) in std::mem::take(&mut self.sample) {
            let Ok(Request::Evaluate(job)) = parse_line(&line) else {
                self.mismatches.push(format!("generated line does not parse: {line}"));
                continue;
            };
            let record = client::round_trip(&mut conn, Instant::now(), 0, &line)?;
            let Some(Some(values)) = record.values.get(index) else {
                self.mismatches.push(format!("{} cell {index} failed when asked again", job.id));
                continue;
            };
            if client::digest(values) != first {
                self.mismatches.push(format!("{} cell {index} changed when asked again", job.id));
            }
            match job.evaluator.evaluate(&job.cells[index].scenario) {
                Ok(want) if rows_agree(&parse_values(values), &want, 1e-9) => {}
                _ => self
                    .mismatches
                    .push(format!("{} cell {index} disagrees with Evaluator::evaluate", job.id)),
            }
        }
        Ok(())
    }
}

/// Cells the daemon answered from its result cache in `records`.
fn memo_hits(records: &[Record]) -> u64 {
    records.iter().filter_map(|r| r.done.map(|d| d[1])).sum()
}

fn run_cold_transient(server: &Path, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..COLD_SETUPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let (d, setup) = Daemon::spawn(server, &["--workers".into(), WORKERS.into()])?;
        setups.push(setup);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one setup");
    let source = std::sync::Mutex::new(gen::ColdStream::new(seed));
    let request = |i: usize| Some(source.lock().expect("stream lock").get(i).line.clone());
    let records = client::closed_loop(&daemon, &request, CLIENTS, seconds)?;
    let sent = records.iter().map(|r| r.request + 1).max().unwrap_or(0);
    let stream = source.into_inner().expect("stream lock").take(sent);
    let stats = daemon.stats()?;

    let mut check = Checker::new(seed);
    for record in &records {
        check.record(&stream[record.request], record);
    }
    if memo_hits(&records) > 0 {
        check.mismatches.push("cold_transient hit the result cache".to_owned());
    }
    check.sample(&daemon)?;
    let figures_s = figures::through_daemon(&daemon)?;
    let rss = daemon.peak_rss_mb()?;
    daemon.stop()?;

    let pattern = &stats[stats.find("\"pattern\"").unwrap_or(0)..];
    let hits = client::number(pattern, "refactor_hits").unwrap_or(0) as f64;
    let lookups = ["value_hits", "refactor_hits", "misses"]
        .iter()
        .map(|k| client::number(pattern, k).unwrap_or(0) as f64)
        .sum::<f64>();
    eprintln!(
        "cold_transient: {} requests, cache.memo_hit_ratio 0, pattern.refactor_hit_ratio {:.3}",
        records.len(),
        hits / lookups.max(1.0)
    );
    let mut metrics = Metrics::default();
    daemon_metrics(&mut metrics, &records, COLD_LIMIT_S, median(&setups), figures_s, rss)?;
    Ok(RunResult {
        attempted: records.len() as u64,
        failed: records.iter().filter(|r| r.timing.is_failure()).count() as u64,
        mismatches: check.mismatches,
        metrics,
    })
}

/// `reuse_closed` runs the daemon with its in-memory memo only. With
/// `--cache-dir` the disk store's file writes dominated request latency and
/// made it unsteady on a shared disk (p90 spread 0.35 of the median across
/// five seeds, against 0.06 without the store), so the store layer is
/// measured in the traced run instead (see `replay.rs`).
fn run_reuse_closed(server: &Path, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let warmup = gen::reuse_warmup();
    let mut setups = Vec::new();
    let mut running = None;
    for _ in 0..REUSE_SETUPS {
        if let Some((d, _)) = running.take() {
            Daemon::stop(d)?;
        }
        let started = Instant::now();
        let (d, _) = Daemon::spawn(server, &["--workers".into(), WORKERS.into()])?;
        let mut conn = d.connect()?;
        let warm: Vec<Record> = warmup
            .iter()
            .enumerate()
            .map(|(i, r)| client::round_trip(&mut conn, started, i, &r.line))
            .collect::<Result<_, _>>()?;
        setups.push(started.elapsed().as_secs_f64());
        running = Some((d, warm));
    }
    let (daemon, warm) = running.expect("at least one setup");
    let source = std::sync::Mutex::new(ReuseStream::new(seed));
    let request = |i: usize| Some(source.lock().expect("stream lock").get(i).line);
    let records = client::closed_loop(&daemon, &request, CLIENTS, seconds)?;

    // The stream is generated again for the check, one request at a time,
    // so the run never holds all of it.
    let mut check = Checker::new(seed);
    for (request, record) in warmup.iter().zip(&warm) {
        check.record(request, record);
    }
    let mut stream = ReuseStream::new(seed);
    let mut cells = 0;
    for record in &records {
        let request = stream.get(record.request);
        cells += request.cells();
        check.record(&request, record);
    }
    check.sample(&daemon)?;
    let figures_s = figures::through_daemon(&daemon)?;
    let rss = daemon.peak_rss_mb()?;
    daemon.stop()?;

    eprintln!(
        "reuse_closed: {} requests, cache.memo_hit_ratio {:.3}",
        records.len(),
        memo_hits(&records) as f64 / cells.max(1) as f64,
    );
    let mut metrics = Metrics::default();
    daemon_metrics(&mut metrics, &records, REUSE_LIMIT_S, median(&setups), figures_s, rss)?;
    Ok(RunResult {
        attempted: records.len() as u64,
        failed: records.iter().filter(|r| r.timing.is_failure()).count() as u64,
        mismatches: check.mismatches,
        metrics,
    })
}

fn run_figures_regen(seconds: f64) -> Result<RunResult, String> {
    let options = SweepOptions::default();
    let committed: Vec<String> =
        (0..FIGURES.len()).map(figures::committed_csv).collect::<Result<_, _>>()?;
    let pass = || -> Result<Vec<figures::Dataset>, String> {
        (0..FIGURES.len()).map(|i| figures::regenerate(i, &options, &committed[i])).collect()
    };
    let setups: Vec<f64> =
        (0..FIGURE_SETUPS).map(|_| figure_setup_in_child()).collect::<Result<_, _>>()?;
    let setup_s = median(&setups);
    // Untimed warm-up, so the timed passes all start warm.
    pass()?;

    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_FIGURE_PASSES || started.elapsed().as_secs_f64() < seconds {
        passes.push(pass()?);
    }
    let pass_seconds: Vec<f64> = passes.iter().map(|p| p.iter().map(|d| d.seconds).sum()).collect();
    let total: f64 = pass_seconds.iter().sum();
    let cell_ms: Vec<f64> =
        passes.iter().flatten().flat_map(|d| d.row_done.iter().map(|s| s * 1e3)).collect();
    // Each dataset's mean render time over the passes, then the middle of
    // the five: a mean over several passes evens out the host's short
    // stalls, which a single ~0.1 s dataset feels in full.
    let dataset_ms: Vec<f64> = (0..FIGURES.len())
        .map(|i| passes.iter().map(|p| p[i].seconds).sum::<f64>() * 1e3 / passes.len() as f64)
        .collect();
    let good = cell_ms.iter().filter(|&&ms| ms <= FIGURE_CELL_LIMIT_S * 1e3).count();
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("throughput_rps", cell_ms.len() as f64 / total, "1/s");
    m.put("cells_per_s", cell_ms.len() as f64 / total, "1/s");
    m.put("latency_p50_ms", percentile(&cell_ms, 50.0)?, "ms");
    m.put("latency_p90_ms", percentile(&cell_ms, 90.0)?, "ms");
    m.put("first_cell_p50_ms", median(&dataset_ms), "ms");
    m.put("goodput_rps", good as f64 / total, "1/s");
    m.put("figures_s", median(&pass_seconds), "s");
    m.put("peak_rss_mb", client::peak_rss_mb("/proc/self/status")?, "MiB");
    eprintln!("figures_regen: {} timed passes, all five datasets byte-identical", passes.len());
    Ok(RunResult { attempted: cell_ms.len() as u64, failed: 0, mismatches: Vec::new(), metrics: m })
}

/// Set-up of `figures_regen` in this (fresh) process: reading the committed
/// CSVs and the first, cold pass of the pipeline, byte-checked. Seconds.
fn figure_setup() -> Result<f64, String> {
    let started = Instant::now();
    let options = SweepOptions::default();
    for i in 0..FIGURES.len() {
        figures::regenerate(i, &options, &figures::committed_csv(i)?)?;
    }
    Ok(started.elapsed().as_secs_f64())
}

/// Runs [`figure_setup`] in a fresh child process, so each sample pays the
/// one-time costs a user's first run pays, and waits for it.
fn figure_setup_in_child() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", "figures_regen", "--figure-setup"])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("figure set-up child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.trim().parse() {
        Ok(seconds) if output.status.success() => Ok(seconds),
        _ => Err(format!("figure set-up child failed: {}", stdout.trim())),
    }
}

/// Command-line options.
struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    server: PathBuf,
    list: bool,
    dump: bool,
    figure_setup: bool,
    steadiness: usize,
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        server: target_dir().join("release/rlckit-server"),
        list: false,
        dump: false,
        figure_setup: false,
        steadiness: 0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<f64>().map_err(|_| format!("{flag}: bad number {v}"));
        match flag.as_str() {
            "--workload" => cli.workload = value()?.clone(),
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed: bad number".to_owned())?,
            "--seconds" => cli.seconds = number(value()?)?,
            "--trace" => cli.trace = value()? == "1",
            "--server" => cli.server = value()?.into(),
            "--steadiness" => cli.steadiness = number(value()?)? as usize,
            "--list" => cli.list = true,
            "--dump" => cli.dump = true,
            "--figure-setup" => cli.figure_setup = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !cli.list && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(cli)
}

fn run(cli: &Cli) -> Result<RunResult, String> {
    let out_dir = target_dir().join("perfbench");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    if cli.trace {
        let trace = out_dir.join(format!("TRACE_perfbench_{}_seed{}.json", cli.workload, cli.seed));
        let (metrics, outcome) = replay::run(&cli.server, cli.seed, &out_dir, &trace)?;
        eprintln!("trace written to {}", trace.display());
        return Ok(RunResult {
            attempted: outcome.attempted,
            failed: outcome.failed,
            mismatches: outcome.mismatches,
            metrics,
        });
    }
    match cli.workload.as_str() {
        "cold_transient" => run_cold_transient(&cli.server, cli.seed, cli.seconds),
        "reuse_closed" => run_reuse_closed(&cli.server, cli.seed, cli.seconds),
        _ => run_figures_regen(cli.seconds),
    }
}

/// `BENCHMARK.json` from the working directory.
fn benchmark_json() -> Result<Value, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    json::parse(&text).map_err(|e| format!("BENCHMARK.json: {}", e.message))
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key).and_then(Value::as_arr).unwrap_or(&[])
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Prints every workload and metric of `BENCHMARK.json` with its unit and
/// the workload it belongs to (per-layer names start with it).
fn list() -> Result<(), String> {
    let doc = benchmark_json()?;
    println!("workloads:");
    for w in entries(&doc, "workloads") {
        println!("  {:<16} {}", text(w, "name"), text(w, "why"));
    }
    println!("end-to-end metrics (every workload reports each):");
    for m in entries(&doc, "end_to_end") {
        let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(f64::NAN);
        println!(
            "  {:<20} {:<6} {:<7} bound {bound}",
            text(m, "name"),
            text(m, "unit"),
            text(m, "better")
        );
    }
    println!("per-layer metrics (traced run; the name starts with the workload):");
    for m in entries(&doc, "per_layer") {
        let name = text(m, "name");
        let workload = name.split('.').next().unwrap_or("");
        println!("  {name:<52} {:<6} {workload}", text(m, "unit"));
    }
    Ok(())
}

/// Runs the workload `cli.steadiness` times with consecutive seeds and
/// prints median, quartiles and spread of every end-to-end metric beside
/// its bound.
fn steadiness(cli: &Cli) -> Result<bool, String> {
    let doc = benchmark_json()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut runs: Vec<Value> = Vec::new();
    for k in 0..cli.steadiness as u64 {
        let seed = cli.seed + k;
        let output = std::process::Command::new(&exe)
            .args(["--workload", &cli.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &cli.seconds.to_string(), "--trace", "0"])
            .arg("--server")
            .arg(&cli.server)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let result = json::parse(last).map_err(|_| format!("seed {seed}: no result line"))?;
        if !output.status.success() || result.get("correct").and_then(Value::as_bool) != Some(true)
        {
            return Err(format!("seed {seed}: run failed or was incorrect"));
        }
        eprintln!("seed {seed}: {last}");
        runs.push(result);
    }
    println!(
        "{} runs of {} ({} s each), seeds {}..={}",
        runs.len(),
        cli.workload,
        cli.seconds,
        cli.seed,
        cli.seed + cli.steadiness as u64 - 1
    );
    println!(
        "{:<20} {:>12} {:>12} {:>12} {:>8} {:>6}  flag",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut steady = true;
    for m in entries(&doc, "end_to_end") {
        let name = text(m, "name");
        let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(name)?.get("value")?.as_f64())
            .collect();
        if values.len() != runs.len() || values.len() < 2 {
            println!("{name:<20} missing from some runs");
            steady = false;
            continue;
        }
        let (q1, q3) = quartiles(&values);
        let s = spread(&values);
        let flag = if s > bound {
            steady = false;
            "OVER BOUND"
        } else if s > bound / 3.0 {
            "above bound/3"
        } else {
            ""
        };
        println!(
            "{name:<20} {:>12.4} {q1:>12.4} {q3:>12.4} {s:>8.4} {bound:>6}  {flag}",
            median(&values)
        );
    }
    Ok(steady)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        return match list() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cli.figure_setup {
        return match figure_setup() {
            Ok(seconds) => {
                println!("{seconds}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if cli.dump {
        let per_s = DUMP_PER_S.iter().find(|(w, _)| *w == cli.workload).map(|&(_, r)| r);
        let count = (cli.seconds * per_s.unwrap_or(0.0)).ceil() as usize;
        let requests = match cli.workload.as_str() {
            "cold_transient" => gen::cold_transient(cli.seed, count),
            "reuse_closed" => {
                let mut requests = gen::reuse_warmup();
                requests.extend(ReuseStream::new(cli.seed).take(count));
                requests
            }
            _ => {
                eprintln!("perfbench: figures_regen runs in process and sends no requests");
                return ExitCode::from(2);
            }
        };
        print!("{}", gen::dump(&requests));
        return ExitCode::SUCCESS;
    }
    if cli.steadiness > 0 {
        return match steadiness(&cli) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&cli) {
        Ok(result) => {
            for m in &result.mismatches {
                eprintln!("perfbench: INCORRECT: {m}");
            }
            let correct = result.mismatches.is_empty();
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                result.attempted.max(1),
                result.failed,
                result.metrics.to_json()
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
