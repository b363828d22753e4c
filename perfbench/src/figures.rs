//! The figure pipeline, in process and through the daemon.
//!
//! In process, every dataset of [`rlckit_sweep::figures::FIGURES`] is swept
//! from its `figures::*_spec()` with default [`SweepOptions`] and rendered by
//! [`CsvSink`]; the bytes must equal the committed `figures/*.csv`. A thin
//! wrapper records when each evaluator call returns, which is how a row's
//! latency is measured without turning on the program's profiler.
//!
//! Through the daemon, the same grids go out as evaluation requests, and
//! every returned row must agree with the committed CSV to 1e-9 relative
//! (the daemon's pattern cache refactors, so rows agree to working accuracy,
//! not to the bit).

use std::sync::Mutex;
use std::time::Instant;

use rlckit_sweep::figures::{self, FIGURES};
use rlckit_sweep::{
    run_sweep, BusCrosstalkEvaluator, CsvSink, DelayModelEvaluator, Evaluator, Param,
    ReducedDelayEvaluator, RepeaterOptimumEvaluator, Scenario, SweepError, SweepOptions, SweepSpec,
    TreeDelayEvaluator,
};

use crate::client::{round_trip, Daemon};

/// The sweep and evaluator behind `FIGURES[index]`.
pub fn figure_sweep(index: usize) -> (SweepSpec, &'static dyn Evaluator) {
    match index {
        0 => (figures::delay_error_surface_spec(), &DelayModelEvaluator),
        1 => (figures::repeater_optimum_vs_inductance_spec(), &RepeaterOptimumEvaluator),
        2 => (figures::bus_worst_case_pushout_spec(), &BusCrosstalkEvaluator),
        3 => (figures::mor_accuracy_vs_order_spec(), &ReducedDelayEvaluator),
        4 => (figures::tree_worst_sink_delay_spec(), &TreeDelayEvaluator),
        _ => unreachable!("FIGURES has five datasets"),
    }
}

/// The committed CSV of `FIGURES[index]`, read from the checkout.
pub fn committed_csv(index: usize) -> Result<String, String> {
    let path = format!("figures/{}", FIGURES[index].file);
    std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))
}

/// Forwards to an evaluator and records when each call returned.
struct Timed<'a> {
    inner: &'a dyn Evaluator,
    epoch: Instant,
    done: Mutex<Vec<f64>>,
}

impl Evaluator for Timed<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn columns(&self) -> &'static [&'static str] {
        self.inner.columns()
    }

    fn evaluate(&self, scenario: &Scenario) -> Result<Vec<f64>, SweepError> {
        let row = self.inner.evaluate(scenario);
        let done = self.epoch.elapsed().as_secs_f64();
        self.done.lock().expect("no evaluator panicked").push(done);
        row
    }
}

/// One regenerated dataset.
pub struct Dataset {
    /// Seconds to sweep and render it: when its rows reach the user.
    pub seconds: f64,
    /// Seconds from its start until each row was computed.
    pub row_done: Vec<f64>,
}

/// Regenerates one dataset and checks it byte for byte against `committed`.
pub fn regenerate(
    index: usize,
    options: &SweepOptions,
    committed: &str,
) -> Result<Dataset, String> {
    let (spec, evaluator) = figure_sweep(index);
    let timed = Timed { inner: evaluator, epoch: Instant::now(), done: Mutex::new(Vec::new()) };
    let result = run_sweep(&spec, &timed, options).map_err(|e| e.to_string())?;
    if let Some((cell, error)) = result.first_error() {
        return Err(format!("{} cell {cell} failed: {error}", FIGURES[index].name));
    }
    let csv = CsvSink.render(&result);
    let end = timed.epoch.elapsed().as_secs_f64();
    if csv != committed {
        return Err(format!(
            "{} differs from figures/{}",
            FIGURES[index].name, FIGURES[index].file
        ));
    }
    Ok(Dataset { seconds: end, row_done: timed.done.into_inner().expect("no evaluator panicked") })
}

/// The wire name and JSON value of one parameter assignment.
fn param_field(p: &Param) -> (&'static str, String) {
    match *p {
        Param::Technology(t) => ("technology", format!("\"{}\"", t.name())),
        Param::LineLengthMm(v) => ("line_length_mm", format!("{v}")),
        Param::ResistanceOhmPerMm(v) => ("resistance_ohm_per_mm", format!("{v}")),
        Param::InductanceNhPerMm(v) => ("inductance_nh_per_mm", format!("{v}")),
        Param::CapacitanceFfPerUm(v) => ("capacitance_ff_per_um", format!("{v}")),
        Param::DriverSize(v) => ("driver_size", format!("{v}")),
        Param::Sections(v) => ("sections", format!("{v}")),
        Param::BusLines(v) => ("bus_lines", format!("{v}")),
        Param::CouplingCapFfPerUm(v) => ("coupling_cap_ff_per_um", format!("{v}")),
        Param::InductiveCoupling(v) => ("inductive_coupling", format!("{v}")),
        Param::Shielded(v) => ("shielded", format!("{v}")),
        Param::LadderSections(v) => ("ladder_sections", format!("{v}")),
        Param::ReductionOrder(v) => ("reduction_order", format!("{v}")),
        Param::TreeLevels(v) => ("tree_levels", format!("{v}")),
        Param::TreeFanout(v) => ("tree_fanout", format!("{v}")),
        Param::MeshRows(v) => ("mesh_rows", format!("{v}")),
        Param::MeshCols(v) => ("mesh_cols", format!("{v}")),
        Param::SramRows(v) => ("sram_rows", format!("{v}")),
        Param::SramCols(v) => ("sram_cols", format!("{v}")),
    }
}

/// Every field of a scenario as request `base` entries.
fn scenario_params(s: &Scenario) -> Vec<Param> {
    let mut params = vec![Param::Technology(s.technology), Param::LineLengthMm(s.line_length_mm)];
    params.extend(s.resistance_ohm_per_mm.map(Param::ResistanceOhmPerMm));
    params.extend(s.inductance_nh_per_mm.map(Param::InductanceNhPerMm));
    params.extend(s.capacitance_ff_per_um.map(Param::CapacitanceFfPerUm));
    params.extend([
        Param::DriverSize(s.driver_size),
        Param::Sections(s.sections),
        Param::BusLines(s.bus_lines),
        Param::CouplingCapFfPerUm(s.coupling_cap_ff_per_um),
        Param::InductiveCoupling(s.inductive_coupling),
        Param::Shielded(s.shielded),
        Param::LadderSections(s.ladder_sections),
        Param::ReductionOrder(s.reduction_order),
        Param::TreeLevels(s.tree_levels),
        Param::TreeFanout(s.tree_fanout),
        Param::MeshRows(s.mesh_rows),
        Param::MeshCols(s.mesh_cols),
        Param::SramRows(s.sram_rows),
        Param::SramCols(s.sram_cols),
    ]);
    params
}

/// The evaluation requests that reproduce `FIGURES[index]`, in row order.
/// The axes of a spec are not public, so the requests come from its
/// expanded cells: each run of cells that differ only in the last axis
/// becomes one request sweeping the one parameter that changes along it,
/// around the run's first scenario written out in full. A run whose cells
/// differ in several parameters (a zipped last axis) goes out cell by cell.
pub fn figure_requests(index: usize) -> Vec<String> {
    let (spec, evaluator) = figure_sweep(index);
    let cells = spec.expand().expect("figure specs expand");
    let mut runs: Vec<Vec<Scenario>> = Vec::new();
    let mut prev_outer: Option<Vec<String>> = None;
    for cell in cells {
        let outer = cell.labels[..cell.labels.len() - 1].to_vec();
        if prev_outer.as_ref() != Some(&outer) {
            runs.push(Vec::new());
            prev_outer = Some(outer);
        }
        runs.last_mut().expect("a run was started").push(cell.scenario);
    }
    let mut requests = Vec::new();
    for run in runs {
        let fields: Vec<Vec<(&str, String)>> =
            run.iter().map(|s| scenario_params(s).iter().map(param_field).collect()).collect();
        let varying: Vec<usize> =
            (0..fields[0].len()).filter(|&k| fields.iter().any(|f| f[k] != fields[0][k])).collect();
        let shapes_match = fields.iter().all(|f| f.len() == fields[0].len());
        let line = |id: usize, base: &[(&str, String)], axis: String| {
            let base: Vec<String> = base.iter().map(|(n, v)| format!("\"{n}\":{v}")).collect();
            format!(
                "{{\"id\":\"fig-{index}-{id}\",\"evaluator\":\"{}\",\"base\":{{{}}}{axis}}}",
                evaluator.name(),
                base.join(",")
            )
        };
        if shapes_match && varying.len() == 1 {
            let k = varying[0];
            let values: Vec<&str> = fields.iter().map(|f| f[k].1.as_str()).collect();
            let axis = format!(
                ",\"axes\":[{{\"param\":\"{}\",\"values\":[{}]}}]",
                fields[0][k].0,
                values.join(",")
            );
            let mut base = fields[0].clone();
            base.remove(k);
            requests.push(line(requests.len(), &base, axis));
        } else {
            for f in &fields {
                requests.push(line(requests.len(), f, String::new()));
            }
        }
    }
    requests
}

/// Rows of a committed figure CSV as numbers (label columns dropped).
fn csv_rows(csv: &str, labels: usize) -> Vec<Vec<f64>> {
    csv.lines()
        .skip(1)
        .map(|line| line.split(',').skip(labels).map(|v| v.parse().unwrap_or(f64::NAN)).collect())
        .collect()
}

/// Whether two rows agree to `rel` relative accuracy, value by value or
/// against the row's largest magnitude. The second clause is for columns
/// that are differences of equal quantities (the sink spread of a symmetric
/// tree is rounding noise around zero), which no relative test can compare.
/// Non-finite values must be non-finite on both sides.
pub fn rows_agree(got: &[f64], want: &[f64], rel: f64) -> bool {
    let scale = want.iter().filter(|v| v.is_finite()).fold(0.0f64, |m, v| m.max(v.abs()));
    got.len() == want.len()
        && got.iter().zip(want).all(|(&a, &b)| {
            if !a.is_finite() || !b.is_finite() {
                return a.is_finite() == b.is_finite();
            }
            let diff = (a - b).abs();
            diff <= rel * a.abs().max(b.abs()) || diff <= rel * scale
        })
}

/// Parses a cell's raw `values` text.
pub fn parse_values(raw: &str) -> Vec<f64> {
    raw.split(',').map(|v| v.parse().unwrap_or(f64::NAN)).collect()
}

/// Sends every figure grid to the daemon, one request at a time on one
/// connection, checks each row against the committed CSV, and returns the
/// wall time.
pub fn through_daemon(daemon: &Daemon) -> Result<f64, String> {
    let mut conn = daemon.connect()?;
    let epoch = Instant::now();
    let mut mismatches = Vec::new();
    for (index, figure) in FIGURES.iter().enumerate() {
        let committed = committed_csv(index)?;
        let (spec, _) = figure_sweep(index);
        let expected = csv_rows(&committed, spec.axis_names().len());
        let mut rows = Vec::new();
        for (j, line) in figure_requests(index).iter().enumerate() {
            let record = round_trip(&mut conn, epoch, j, line)?;
            if record.done.is_none() || record.timing.is_failure() {
                return Err(format!("figure request {line} did not complete"));
            }
            rows.extend(record.values.iter().map(|v| v.as_deref().map(parse_values)));
        }
        let agree = rows.len() == expected.len()
            && rows
                .iter()
                .zip(&expected)
                .all(|(got, want)| got.as_ref().is_some_and(|g| rows_agree(g, want, 1e-9)));
        if !agree {
            mismatches.push(figure.name);
        }
    }
    let seconds = epoch.elapsed().as_secs_f64();
    if mismatches.is_empty() {
        Ok(seconds)
    } else {
        Err(format!("daemon figure rows disagree with figures/*.csv: {mismatches:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlckit_server::request::{parse_line, Request};

    #[test]
    fn figure_requests_expand_to_the_figure_grids() {
        for (index, figure) in FIGURES.iter().enumerate() {
            let (spec, evaluator) = figure_sweep(index);
            let want = spec.expand().unwrap();
            let mut got = Vec::new();
            for line in figure_requests(index) {
                match parse_line(&line) {
                    Ok(Request::Evaluate(job)) => {
                        assert_eq!(job.evaluator.name(), evaluator.name());
                        got.extend(job.cells.into_iter().map(|c| c.scenario));
                    }
                    _ => panic!("figure request does not parse: {line}"),
                }
            }
            let want: Vec<Scenario> = want.into_iter().map(|c| c.scenario).collect();
            assert_eq!(got, want, "{}", figure.name);
        }
    }

    #[test]
    fn rows_agree_relatively_or_against_the_row_scale() {
        assert!(rows_agree(&[1.0, 2.0], &[1.0 + 1e-12, 2.0], 1e-9));
        assert!(!rows_agree(&[1.0, 2.0], &[1.0 + 1e-6, 2.0], 1e-9));
        assert!(!rows_agree(&[1.0], &[1.0, 2.0], 1e-9));
        assert!(rows_agree(&[f64::NAN, 1.0], &[f64::INFINITY, 1.0], 1e-9));
        assert!(!rows_agree(&[f64::NAN], &[1.0], 1e-9));
        // Rounding noise around zero in a column whose row is ~2e3.
        assert!(rows_agree(&[2091.7, 3.7e-12], &[2091.7, 6.2e-12], 1e-9));
        assert!(!rows_agree(&[2091.7, 1e-3], &[2091.7, 0.0], 1e-9));
    }
}
