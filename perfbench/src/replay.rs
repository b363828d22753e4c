//! The traced run: each workload's requests replayed in process through the
//! program's public functions, with a span around every layer call.
//!
//! For the daemon workloads the same requests first go to a daemon started
//! with `--workers 1`, one at a time, so each request's latency is known.
//! The in-process replay then runs the layers the daemon runs for that
//! request — `json::parse`, `request::parse_line`, `cache_key`, the memo and
//! `ResultStore`, the evaluator, `response::*` — against caches in the same
//! state. Whatever of the daemon's latency the replay does not cover is the
//! engine residual: queue wait, transport and the reorder buffer.
//!
//! For a sample of mesh, tree, ladder and SRAM cells the replay goes one
//! level deeper, on the circuit the evaluator builds: `MnaSystem::build`,
//! CSC assembly, sparse symbolic analysis, factor, refactor and solve,
//! `run_transient` and `Waveform::delay_50`. The delay it measures must be
//! bit-identical to the evaluator's delay column, which proves the spans
//! timed the same circuit.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use rlckit_circuit::mna::MnaSystem;
use rlckit_circuit::pattern_cache::{self, PatternCacheGuard};
use rlckit_circuit::transient::{run_transient, TransientOptions};
use rlckit_circuit::{Circuit, NodeId, ResolvedBackend};
use rlckit_interconnect::{MeshGeometry, RoutingTree};
use rlckit_netlist::{parse_circuit, SramArraySpec};
use rlckit_numeric::sparse::SparseLuFactor;
use rlckit_reduce::reduce_ladder;
use rlckit_server::request::{parse_line, Request};
use rlckit_server::{json, response};
use rlckit_sweep::eval::{scenario_ladder_spec, scenario_line};
use rlckit_sweep::figures::FIGURES;
use rlckit_sweep::{cache_key, run_sweep, CsvSink, Evaluator, ResultStore, Scenario, SweepOptions};
use rlckit_telemetry::Collector;
use rlckit_units::{Time, Voltage};

use crate::client::{self, number, Daemon, Record};
use crate::figures::{committed_csv, figure_sweep};
use crate::gen::{self, GenRequest};
use crate::trace::Tracer;
use crate::Metrics;

/// Requests of `cold_transient` replayed by the traced run.
const COLD_REQUESTS: usize = 24;
/// Deep solver replays per workload at most.
const DEEP_CELLS: usize = 12;
/// The evaluators whose circuit [`case_of`] rebuilds for a deep replay.
const DEEP_EVALUATORS: [&str; 4] = ["mesh_delay", "tree_delay", "reduced_delay", "sram_read"];
/// Requests of `reuse_closed` replayed after its warm-up.
const REUSE_REQUESTS: usize = 120;
/// Result-store byte budget of the traced `reuse_closed` replay, below its
/// working set so fresh cells write records and force evictions.
const REUSE_STORE_BUDGET: u64 = 512 * 1024;

/// An evaluated cell: its evaluator and scenario.
type Cell = (&'static dyn Evaluator, Scenario);

/// What the traced run found wrong, if anything.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests and datasets replayed.
    pub attempted: u64,
    /// Those that failed.
    pub failed: u64,
    /// Correctness failures.
    pub mismatches: Vec<String>,
}

/// The result caches the replay keeps, mirroring the daemon's.
struct Caches {
    memo: HashMap<u64, Vec<f64>>,
    store: Option<ResultStore>,
}

/// One replayed request's layer work.
struct Replayed {
    cells: Vec<Cell>,
    cell_bytes: usize,
    duration: f64,
}

/// Replays one request line through the layers the daemon runs for it.
fn replay_request(t: &mut Tracer, line: &str, caches: &mut Caches) -> Result<Replayed, String> {
    // Timed on its own first: parse_line runs json::parse inside, so the
    // JSON share becomes a child of the parse_line span below.
    let json_start = t.now();
    json::parse(line).map_err(|e| e.message)?;
    let json_seconds = t.now() - json_start;

    let start = t.now();
    let (cells, cell_bytes) = t.span("request", |t| -> Result<_, String> {
        let job = t.span("server.request", |t| {
            let at = t.now();
            let job = parse_line(line);
            t.record("server.json", at, at + json_seconds);
            job
        });
        let Ok(Request::Evaluate(job)) = job else {
            return Err(format!("not an evaluation request: {line}"));
        };
        let columns = job.evaluator.columns();
        t.span("server.response", |_| {
            response::ack(&job.id, job.cells.len(), &job.axis_names, columns)
        });
        let mut bytes = 0;
        let mut cells = Vec::with_capacity(job.cells.len());
        let (mut evaluated, mut cached) = (0, 0);
        for cell in &job.cells {
            let key = t.span("sweep.cache.key", |_| cache_key(job.evaluator, &cell.scenario));
            let mut hit = t.span("sweep.cache.memo", |_| caches.memo.get(&key).cloned());
            if hit.is_none() {
                if let Some(store) = caches.store.as_mut() {
                    hit = t.span("sweep.cache.store_get", |_| store.get(key));
                    if let Some(values) = &hit {
                        t.span("sweep.cache.memo", |_| caches.memo.insert(key, values.clone()));
                    }
                }
            }
            let was_cached = hit.is_some();
            let values = match hit {
                Some(values) => values,
                None => {
                    let name = format!("sweep.eval.{}", job.evaluator.name());
                    let values = t
                        .span(&name, |_| job.evaluator.evaluate(&cell.scenario))
                        .map_err(|e| format!("{line}: {e}"))?;
                    t.span("sweep.cache.memo", |_| caches.memo.insert(key, values.clone()));
                    if let Some(store) = caches.store.as_mut() {
                        t.span("sweep.cache.store_insert", |_| store.insert(key, &values))
                            .map_err(|e| e.to_string())?;
                    }
                    cells.push((job.evaluator, cell.scenario.clone()));
                    values
                }
            };
            if was_cached {
                cached += 1;
            } else {
                evaluated += 1;
            }
            let rendered = t.span("server.response", |_| {
                response::cell(&job.id, cell.index, &cell.labels, &values, was_cached)
            });
            bytes += rendered.len() + 1;
        }
        t.span("server.response", |_| response::done(&job.id, evaluated, cached, 0, 0));
        Ok((cells, bytes))
    })?;
    Ok(Replayed { cells, cell_bytes, duration: t.now() - start })
}

/// A circuit an evaluator builds, with what it measures on it.
struct Case {
    circuit: Circuit,
    nodes: Vec<NodeId>,
    supply: Voltage,
    step: Time,
    stop: Time,
    /// The evaluator column holding the 50% delay in picoseconds.
    column: usize,
}

/// Rebuilds the circuit of a mesh, tree, ladder or SRAM cell exactly as its
/// evaluator does; `None` for other evaluators.
fn case_of(t: &mut Tracer, evaluator: &str, s: &Scenario) -> Result<Option<Case>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let tech = s.technology.technology();
    let case = match evaluator {
        "mesh_delay" => {
            let line = scenario_line(s).map_err(|e| err(&e))?;
            let span = s.mesh_rows.max(s.mesh_cols).saturating_sub(1).max(1);
            let pitch = line.with_length(line.length() / span as f64).map_err(|e| err(&e))?;
            let mesh = MeshGeometry::new(s.mesh_rows, s.mesh_cols, pitch).map_err(|e| err(&e))?;
            let driver = tech.buffer_resistance(s.driver_size).map_err(|e| err(&e))?;
            let spec = mesh.to_mesh_spec(driver, tech.supply, false).map_err(|e| err(&e))?;
            let net = spec.build().map_err(|e| err(&e))?;
            Case {
                circuit: net.circuit,
                nodes: vec![net.far],
                supply: spec.supply,
                step: spec.suggested_timestep(),
                stop: spec.suggested_stop_time(),
                column: 0,
            }
        }
        "tree_delay" => {
            let line = scenario_line(s).map_err(|e| err(&e))?;
            let sink = tech.buffer_capacitance(s.driver_size).map_err(|e| err(&e))?;
            let tree = RoutingTree::symmetric(&line, s.tree_levels, s.tree_fanout, sink)
                .map_err(|e| err(&e))?;
            let driver = tech.buffer_resistance(s.driver_size).map_err(|e| err(&e))?;
            let spec = tree
                .to_tree_spec(driver, tech.supply, s.ladder_sections.max(1))
                .map_err(|e| err(&e))?;
            let net = spec.build().map_err(|e| err(&e))?;
            Case {
                nodes: net.sinks.iter().map(|k| k.node).collect(),
                circuit: net.circuit,
                supply: spec.supply,
                step: spec.suggested_timestep(),
                stop: spec.suggested_stop_time(),
                column: 0,
            }
        }
        "reduced_delay" => {
            let spec = scenario_ladder_spec(s).map_err(|e| err(&e))?;
            t.span("reduce.prima", |_| reduce_ladder(&spec, s.reduction_order, Default::default()))
                .map_err(|e| err(&e))?;
            let line = spec.build().map_err(|e| err(&e))?;
            Case {
                circuit: line.circuit,
                nodes: vec![line.output],
                supply: spec.supply,
                step: spec.suggested_timestep(),
                stop: spec.suggested_stop_time(),
                column: 2,
            }
        }
        "sram_read" => {
            let spec = SramArraySpec::new(s.sram_rows, s.sram_cols);
            let deck = spec.emit_deck().map_err(|e| err(&e))?;
            t.span("netlist.parse_lower", |_| parse_circuit(&deck)).map_err(|e| err(&e))?;
            let net = spec.lower_deck().map_err(|e| err(&e))?;
            Case {
                circuit: net.circuit,
                nodes: vec![net.sense],
                supply: spec.supply,
                step: spec.suggested_timestep(),
                stop: spec.suggested_stop_time(),
                column: 0,
            }
        }
        _ => return Ok(None),
    };
    Ok(Some(case))
}

/// What one deep replay measured.
#[derive(Debug, Default, Clone, Copy)]
struct Deep {
    dim: usize,
    nnz: usize,
    lu_nnz: usize,
    steps: usize,
    transient_seconds: f64,
    sparse: bool,
}

/// Replays one cell down to the solver with the pattern cache off, and
/// checks its delay against the evaluator's column bit for bit.
fn deep_replay(
    t: &mut Tracer,
    evaluator: &'static dyn Evaluator,
    s: &Scenario,
) -> Result<Option<(Deep, bool)>, String> {
    let _off = PatternCacheGuard::disable();
    t.span("solver.replay", |t| {
        let Some(case) = case_of(t, evaluator.name(), s)? else { return Ok(None) };
        let expected = t
            .span("sweep.eval.reference", |_| evaluator.evaluate(s))
            .map_err(|e| e.to_string())?[case.column];
        let mna = t
            .span("circuit.mna.build", |_| MnaSystem::build(&case.circuit))
            .map_err(|e| e.to_string())?;
        let mut deep = Deep { dim: mna.dim(), ..Deep::default() };
        let first_step = case.step.min(case.stop / 2000.0).seconds();
        let a = t.span("circuit.mna.assemble", |_| mna.assemble_csc_real(0.5, 1.0 / first_step));
        deep.nnz = a.nnz();
        let symbolic = t.span("numeric.sparse.symbolic", |_| mna.sparse_symbolic());
        let mut factor = t
            .span("numeric.sparse.factor", |_| SparseLuFactor::factor(&a, symbolic))
            .map_err(|e| format!("factor: {e:?}"))?;
        deep.lu_nnz = factor.l_nnz() + factor.u_nnz();
        t.span("numeric.sparse.refactor", |_| factor.refactor(&a))
            .map_err(|e| format!("refactor: {e:?}"))?;
        let b = vec![1.0; mna.dim()];
        std::hint::black_box(t.span("numeric.sparse.solve", |_| factor.solve(&b)));

        // The evaluator's own retry loop: widen the horizon until every
        // measured node crosses 50% and 90%.
        let mut stop = case.stop;
        for _ in 0..4 {
            let step = case.step.min(stop / 2000.0);
            let options = TransientOptions::new(stop, step);
            let started = t.now();
            let result = t
                .span("circuit.transient.run", |_| run_transient(&case.circuit, &options))
                .map_err(|e| e.to_string())?;
            deep.transient_seconds += t.now() - started;
            deep.steps += result.len() - 1;
            deep.sparse = result.backend() == ResolvedBackend::Sparse;
            let delays = t.span("circuit.waveform.delay_50", |_| {
                case.nodes
                    .iter()
                    .map(|&n| {
                        let wave = result.node_voltage(n);
                        wave.rise_time(case.supply)?;
                        wave.delay_50(case.supply)
                    })
                    .collect::<Result<Vec<Time>, _>>()
            });
            if let Ok(delays) = delays {
                let worst =
                    delays.iter().map(|d| d.picoseconds()).fold(f64::NEG_INFINITY, f64::max);
                return Ok(Some((deep, worst.to_bits() == expected.to_bits())));
            }
            stop *= 4.0;
        }
        Err(format!("{} cell never crossed 50%", evaluator.name()))
    })
}

/// Accumulates deep replays into per-layer figures.
#[derive(Default)]
struct DeepStats {
    cases: Vec<Deep>,
}

impl DeepStats {
    /// Deep-replays up to [`DEEP_CELLS`] of `cells`, taken round-robin over
    /// the evaluators whose circuit [`case_of`] rebuilds, so each of them
    /// is sampled alike whatever its share of the workload.
    fn run(&mut self, t: &mut Tracer, cells: &[Cell], outcome: &mut Outcome) -> Result<(), String> {
        let mut by_evaluator: Vec<(&str, Vec<&Cell>)> = Vec::new();
        for cell in cells.iter().filter(|(e, _)| DEEP_EVALUATORS.contains(&e.name())) {
            match by_evaluator.iter_mut().find(|(name, _)| *name == cell.0.name()) {
                Some((_, group)) => group.push(cell),
                None => by_evaluator.push((cell.0.name(), vec![cell])),
            }
        }
        let rounds = by_evaluator.iter().map(|(_, group)| group.len()).max().unwrap_or(0);
        let sample = (0..rounds)
            .flat_map(|k| by_evaluator.iter().filter_map(move |(_, group)| group.get(k)))
            .take(DEEP_CELLS);
        for (evaluator, scenario) in sample {
            if let Some((deep, same)) = deep_replay(t, *evaluator, scenario)? {
                if !same {
                    outcome.mismatches.push(format!(
                        "{} solver replay differs from the evaluator's delay column",
                        evaluator.name()
                    ));
                }
                // The census reads kernels from telemetry; on the sampled
                // cells it must agree with `TransientResult::backend()`.
                let census = census(&[(*evaluator, scenario.clone())])?;
                if census.cells != 1 || (census.sparse == 1.0) != deep.sparse {
                    outcome.mismatches.push(format!(
                        "{} kernel census disagrees with TransientResult::backend()",
                        evaluator.name()
                    ));
                }
                self.cases.push(deep);
            }
        }
        Ok(())
    }

    fn mean(&self, f: impl Fn(&Deep) -> f64) -> f64 {
        self.cases.iter().map(f).sum::<f64>() / self.cases.len().max(1) as f64
    }
}

/// Mean self time per span of `name` among requests whose id starts with
/// `prefix`, in seconds (0 when there is none).
fn mean_self(totals: &BTreeMap<String, (f64, usize)>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |&(s, n)| s / n.max(1) as f64)
}

fn total_self(totals: &BTreeMap<String, (f64, usize)>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |&(s, _)| s)
}

/// Replays each request the daemon answered in `records` in process;
/// returns each request's `(daemon latency, replayed layer time)`.
fn replay_all(
    t: &mut Tracer,
    requests: &[GenRequest],
    records: &[Record],
    caches: &mut Caches,
    evaluated: &mut Vec<Cell>,
    cell_bytes: &mut usize,
    outcome: &mut Outcome,
) -> Result<Vec<(f64, f64)>, String> {
    let mut residuals = Vec::with_capacity(requests.len());
    for (request, record) in requests.iter().zip(records) {
        outcome.attempted += 1;
        if record.timing.is_failure() {
            outcome.failed += 1;
        }
        t.set_request(&request.id);
        let replayed = replay_request(t, &request.line, caches)?;
        // The replay's root span holds every layer span of the request, so
        // its duration is the sum of their self times.
        residuals.push((record.timing.end - record.timing.sent, replayed.duration));
        evaluated.extend(replayed.cells);
        *cell_bytes += replayed.cell_bytes;
    }
    Ok(residuals)
}

/// Mean engine residual in milliseconds: each request's daemon latency minus
/// the self times of its replayed layers. Prints the accounting.
fn residual_ms(workload: &str, pairs: &[(f64, f64)]) -> f64 {
    let n = pairs.len().max(1) as f64;
    let latency = pairs.iter().map(|p| p.0).sum::<f64>() * 1e3 / n;
    let layers = pairs.iter().map(|p| p.1).sum::<f64>() * 1e3 / n;
    eprintln!(
        "{workload}: mean latency {latency:.3} ms = layer self times {layers:.3} ms + engine residual {:.3} ms ({} requests)",
        latency - layers,
        pairs.len()
    );
    latency - layers
}

/// Sequential closed-loop pass of `requests` over one connection.
fn sequential(daemon: &Daemon, requests: &[GenRequest]) -> Result<Vec<Record>, String> {
    let mut conn = daemon.connect()?;
    let epoch = std::time::Instant::now();
    requests
        .iter()
        .enumerate()
        .map(|(i, r)| client::round_trip(&mut conn, epoch, i, &r.line))
        .collect()
}

fn cold_transient(
    t: &mut Tracer,
    server: &Path,
    seed: u64,
    m: &mut Metrics,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let requests = gen::cold_transient(seed, COLD_REQUESTS);
    let (daemon, _) = Daemon::spawn(server, &["--workers".into(), "1".into()])?;
    let records = sequential(&daemon, &requests)?;
    daemon.stop()?;

    let _on = PatternCacheGuard::enable();
    pattern_cache::clear();
    pattern_cache::reset_stats();
    let mut caches = Caches { memo: HashMap::new(), store: None };
    let mut evaluated = Vec::new();
    let mut bytes = 0;
    let residuals =
        replay_all(t, &requests, &records, &mut caches, &mut evaluated, &mut bytes, outcome)?;
    let pattern = pattern_cache::stats();
    t.set_request("ct-solver");
    let mut deep = DeepStats::default();
    deep.run(t, &evaluated, outcome)?;

    let w = "cold_transient";
    let totals = t.layer_totals("ct-");
    for name in
        ["mesh_delay", "tree_delay", "bus_crosstalk", "sram_read", "reduced_delay", "bus_repeater"]
    {
        let per_cell = mean_self(&totals, &format!("sweep.eval.{name}"));
        m.put(&format!("{w}.eval.{name}_ms_per_cell"), per_cell * 1e3, "ms");
    }
    m.put(&format!("{w}.engine.residual_ms_per_req"), residual_ms(w, &residuals), "ms");
    let lookups = pattern.value_hits + pattern.refactor_hits + pattern.misses;
    m.put(
        &format!("{w}.pattern.refactor_hit_ratio"),
        pattern.refactor_hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    m.put(&format!("{w}.pattern.misses"), pattern.misses as f64, "count");
    m.put(&format!("{w}.mna.build_ms"), mean_self(&totals, "circuit.mna.build") * 1e3, "ms");
    m.put(&format!("{w}.mna.assemble_us"), mean_self(&totals, "circuit.mna.assemble") * 1e6, "us");
    m.put(&format!("{w}.mna.dim"), deep.mean(|d| d.dim as f64), "count");
    m.put(&format!("{w}.mna.nnz"), deep.mean(|d| d.nnz as f64), "count");
    m.put(
        &format!("{w}.sparse.symbolic_ms"),
        mean_self(&totals, "numeric.sparse.symbolic") * 1e3,
        "ms",
    );
    m.put(
        &format!("{w}.sparse.factor_ms"),
        mean_self(&totals, "numeric.sparse.factor") * 1e3,
        "ms",
    );
    m.put(
        &format!("{w}.sparse.refactor_ms"),
        mean_self(&totals, "numeric.sparse.refactor") * 1e3,
        "ms",
    );
    m.put(&format!("{w}.sparse.solve_us"), mean_self(&totals, "numeric.sparse.solve") * 1e6, "us");
    m.put(&format!("{w}.sparse.lu_nnz"), deep.mean(|d| d.lu_nnz as f64), "count");
    put_transient(m, w, &deep, &census(&evaluated)?);
    m.put(
        &format!("{w}.netlist.parse_lower_ms"),
        mean_self(&totals, "netlist.parse_lower") * 1e3,
        "ms",
    );
    Ok(())
}

/// Steps and solver kernel of every transient cell of a workload, read
/// from the program's own telemetry: each cell is evaluated once more with
/// the collector on and the pattern cache off, and its `transient.steps`
/// counter and the kernels of the solves under `transient.stepping` are
/// read back. Cells that run no transient (closed-form evaluators) are left
/// out.
#[derive(Debug, Default)]
struct Census {
    cells: usize,
    steps: u64,
    /// Sum over cells of the share of their stepping solves that ran on the
    /// sparse kernel (1 or 0 for a cell whose transients share a kernel).
    sparse: f64,
}

fn census(cells: &[Cell]) -> Result<Census, String> {
    let _off = PatternCacheGuard::disable();
    let _on = Collector::enable();
    let mut census = Census::default();
    for (evaluator, scenario) in cells {
        Collector::reset();
        evaluator.evaluate(scenario).map_err(|e| format!("{}: {e}", evaluator.name()))?;
        let profile = Collector::snapshot();
        let solves = |kernel: &str| -> u64 {
            let leaf = format!("transient.stepping/{kernel}.solve");
            profile.spans.iter().filter(|s| s.name.ends_with(&leaf)).map(|s| s.count).sum()
        };
        let sparse = solves("sparse");
        let all = sparse + solves("banded") + solves("dense");
        if all > 0 {
            census.cells += 1;
            census.steps += profile.counter("transient.steps").unwrap_or(0);
            census.sparse += sparse as f64 / all as f64;
        }
    }
    Collector::reset();
    Ok(census)
}

/// `steps_per_cell` and `sparse_cell_share` over every transient cell (the
/// census); `us_per_step` over the deep sample, timed with telemetry off.
fn put_transient(m: &mut Metrics, w: &str, deep: &DeepStats, census: &Census) {
    let steps: usize = deep.cases.iter().map(|d| d.steps).sum();
    let seconds: f64 = deep.cases.iter().map(|d| d.transient_seconds).sum();
    let cells = census.cells.max(1) as f64;
    m.put(&format!("{w}.transient.steps_per_cell"), census.steps as f64 / cells, "count");
    m.put(&format!("{w}.transient.us_per_step"), seconds * 1e6 / steps.max(1) as f64, "us");
    m.put(&format!("{w}.transient.sparse_cell_share"), census.sparse / cells, "ratio");
    eprintln!(
        "{w}: kernel census of {} transient cells, {:.1} on the sparse kernel; {} cells \
         deep-replayed, {} on the sparse kernel",
        census.cells,
        census.sparse,
        deep.cases.len(),
        deep.cases.iter().filter(|d| d.sparse).count()
    );
}

fn reuse_closed(
    t: &mut Tracer,
    server: &Path,
    seed: u64,
    out_dir: &Path,
    m: &mut Metrics,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let warmup = gen::reuse_warmup();
    let scheduled = gen::ReuseStream::new(seed).take(REUSE_REQUESTS);
    let daemon_dir = out_dir.join(format!("trace-store-daemon-{}", std::process::id()));
    let replay_dir = out_dir.join(format!("trace-store-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&daemon_dir);
    let _ = std::fs::remove_dir_all(&replay_dir);
    let args = [
        "--workers",
        "1",
        "--cache-dir",
        &daemon_dir.display().to_string(),
        "--cache-budget",
        &REUSE_STORE_BUDGET.to_string(),
    ]
    .map(str::to_owned);
    let (daemon, _) = Daemon::spawn(server, &args)?;
    let warm_records = sequential(&daemon, &warmup)?;
    let records = sequential(&daemon, &scheduled)?;
    let stats = daemon.stats()?;
    daemon.stop()?;

    let store = ResultStore::open(&replay_dir, REUSE_STORE_BUDGET).map_err(|e| e.to_string())?;
    let mut caches = Caches { memo: HashMap::new(), store: Some(store) };
    let (mut evaluated, mut bytes) = (Vec::new(), 0);
    replay_all(t, &warmup, &warm_records, &mut caches, &mut evaluated, &mut bytes, outcome)?;
    let (mut evaluated, mut bytes) = (Vec::new(), 0);
    let residuals =
        replay_all(t, &scheduled, &records, &mut caches, &mut evaluated, &mut bytes, outcome)?;
    let _ = std::fs::remove_dir_all(&daemon_dir);
    let _ = std::fs::remove_dir_all(&replay_dir);

    let w = "reuse_closed";
    let totals = t.layer_totals("rc-");
    let requests = scheduled.len() as f64;
    let cells: usize = scheduled.iter().map(GenRequest::cells).sum();
    let cached: u64 = records.iter().filter_map(|r| r.done.map(|d| d[1])).sum();
    m.put(
        &format!("{w}.json.parse_us_per_req"),
        total_self(&totals, "server.json") * 1e6 / requests,
        "us",
    );
    m.put(
        &format!("{w}.request.validate_us_per_req"),
        total_self(&totals, "server.request") * 1e6 / requests,
        "us",
    );
    m.put(&format!("{w}.request.cells_per_req"), cells as f64 / requests, "count");
    m.put(&format!("{w}.cache.key_ns_per_cell"), mean_self(&totals, "sweep.cache.key") * 1e9, "ns");
    m.put(&format!("{w}.cache.memo_hit_ratio"), cached as f64 / cells as f64, "ratio");
    m.put(
        &format!("{w}.cache.store_get_us"),
        mean_self(&totals, "sweep.cache.store_get") * 1e6,
        "us",
    );
    m.put(
        &format!("{w}.cache.store_insert_us"),
        mean_self(&totals, "sweep.cache.store_insert") * 1e6,
        "us",
    );
    let store_field = |key: &str| {
        let store = &stats[stats.find("\"store\"").unwrap_or(0)..];
        number(store, key).map_or(0.0, |v| v as f64)
    };
    m.put(&format!("{w}.cache.store_evictions"), store_field("evictions"), "count");
    m.put(&format!("{w}.engine.residual_ms_per_req"), residual_ms(w, &residuals), "ms");
    m.put(
        &format!("{w}.engine.rejected"),
        number(&stats, "rejected").map_or(0.0, |v| v as f64),
        "count",
    );
    m.put(
        &format!("{w}.response.render_us_per_cell"),
        total_self(&totals, "server.response") * 1e6 / cells as f64,
        "us",
    );
    m.put(&format!("{w}.response.bytes_per_cell"), bytes as f64 / cells as f64, "count");
    for name in ["delay_model", "repeater_optimum", "repeater_design_point"] {
        let per_cell = mean_self(&totals, &format!("sweep.eval.{name}"));
        m.put(&format!("{w}.eval.{name}_ms_per_cell"), per_cell * 1e3, "ms");
    }
    Ok(())
}

fn figures_regen(t: &mut Tracer, m: &mut Metrics, outcome: &mut Outcome) -> Result<(), String> {
    let w = "figures_regen";
    let options = SweepOptions::default();
    let mut cells = Vec::new();
    t.set_request("fr-pass");
    for (index, figure) in FIGURES.iter().enumerate() {
        outcome.attempted += 1;
        let committed = committed_csv(index)?;
        let (spec, evaluator) = figure_sweep(index);
        let started = t.now();
        let csv =
            t.span(&format!("sweep.figures.{}", figure.name), |t| -> Result<String, String> {
                let result = t
                    .span("sweep.exec", |_| run_sweep(&spec, evaluator, &options))
                    .map_err(|e| e.to_string())?;
                cells.extend(result.rows.iter().map(|r| (evaluator, r.scenario.clone())));
                Ok(t.span("sweep.sink.csv_render", |_| CsvSink.render(&result)))
            })?;
        m.put(&format!("{w}.figures.{}_s", figure.name), t.now() - started, "s");
        if csv != committed {
            outcome.failed += 1;
            outcome
                .mismatches
                .push(format!("{} differs from figures/{}", figure.name, figure.file));
        }
    }
    let totals = t.layer_totals("fr-");
    m.put(
        &format!("{w}.sink.csv_render_ms"),
        total_self(&totals, "sweep.sink.csv_render") * 1e3,
        "ms",
    );

    // Deep replays of the MOR-ladder and tree cells, up to the cap.
    t.set_request("fr-solver");
    let mut deep = DeepStats::default();
    deep.run(t, &cells, outcome)?;
    let totals = t.layer_totals("fr-solver");
    m.put(&format!("{w}.reduce.prima_ms"), mean_self(&totals, "reduce.prima") * 1e3, "ms");
    put_transient(m, w, &deep, &census(&cells)?);
    Ok(())
}

/// The traced run: all three workloads' replays for `seed`. Writes the
/// Chrome trace to `trace_path` and returns every per-layer metric.
pub fn run(
    server: &Path,
    seed: u64,
    out_dir: &Path,
    trace_path: &Path,
) -> Result<(Metrics, Outcome), String> {
    let mut t = Tracer::new();
    let mut m = Metrics::default();
    let mut outcome = Outcome::default();
    cold_transient(&mut t, server, seed, &mut m, &mut outcome)?;
    reuse_closed(&mut t, server, seed, out_dir, &mut m, &mut outcome)?;
    figures_regen(&mut t, &mut m, &mut outcome)?;
    std::fs::write(trace_path, t.to_chrome_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok((m, outcome))
}
