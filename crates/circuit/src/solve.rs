//! The circuit-side face of the pluggable solver backend.
//!
//! [`FactoredMna`] wraps a backend-erased factorisation ([`FactoredSolver`])
//! of one [`MnaSystem`] matrix. Every kernel factors the
//! compressed-sparse-column assembly in logical (node/branch) order, so
//! right-hand sides go in and solutions come out in that order with no
//! relabelling. The sparse kernel applies its own fill-reducing
//! (approximate-minimum-degree) ordering internally, reusing the
//! [`MnaSystem`]'s lazily computed symbolic phase across every factorisation
//! of the same circuit — DC initial condition, transient stepping matrix and
//! each AC frequency point. The dense reference kernel, used only when
//! requested, expands the same matrix with
//! [`CscMatrix::to_dense`](rlckit_numeric::sparse::CscMatrix::to_dense).
//!
//! DC, AC and transient analysis and the state-space `G` factorisation all
//! factor through this type.

use rlckit_numeric::lu::FactorizeError;
use rlckit_numeric::matrix::Scalar;
use rlckit_numeric::solver::{FactoredSolver, ResolvedBackend, SolverBackend};
use rlckit_numeric::sparse::{CscMatrix, SparseLuFactor, SparseSymbolic};

use crate::error::CircuitError;
use crate::mna::MnaSystem;

/// A factorised MNA system matrix.
#[derive(Debug, Clone)]
pub struct FactoredMna<T: Scalar = f64> {
    solver: FactoredSolver<T>,
}

impl<T: Scalar> FactoredMna<T> {
    /// Factorises `a`, an assembly of `mna`, afresh with the requested
    /// backend; the sparse kernel runs against `mna.sparse_symbolic()`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularSystem`] tagged with `stage` if the
    /// matrix cannot be factorised.
    pub fn factor(
        mna: &MnaSystem,
        a: &CscMatrix<T>,
        backend: SolverBackend,
        stage: &'static str,
    ) -> Result<Self, CircuitError> {
        Self::factor_with(mna, a, backend, stage, SparseLuFactor::factor)
    }

    /// [`FactoredMna::factor`] with the sparse factorisation supplied by the
    /// caller (a fresh factor, or one drawn through the pattern cache).
    fn factor_with(
        mna: &MnaSystem,
        a: &CscMatrix<T>,
        backend: SolverBackend,
        stage: &'static str,
        sparse: impl FnOnce(&CscMatrix<T>, &SparseSymbolic) -> Result<SparseLuFactor<T>, FactorizeError>,
    ) -> Result<Self, CircuitError> {
        let solver = match backend.resolve() {
            ResolvedBackend::Sparse => sparse(a, mna.sparse_symbolic())
                .map(|factor| FactoredSolver::from_sparse_with_matrix(factor, a)),
            ResolvedBackend::Dense => FactoredSolver::factor_csc(a, SolverBackend::Dense),
        };
        let solver = solver.map_err(|_| CircuitError::SingularSystem { stage })?;
        Ok(Self { solver })
    }

    /// Solves `A·x = b` with both `b` and the returned `x` in logical
    /// (node/branch) order.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not equal the system dimension.
    pub fn solve(&self, b: &[T]) -> Vec<T> {
        self.solver.solve(b)
    }

    /// Solves `A·X = B` for many right-hand sides with the one stored
    /// factorisation, everything in logical order.
    ///
    /// One blocked substitution pass instead of a solve per column — the
    /// multi-port/multi-excitation path (MIMO transfer matrices, sweep
    /// cells, AC ports) on every backend.
    ///
    /// # Panics
    ///
    /// Panics if any right-hand side's length differs from the dimension.
    pub fn solve_many(&self, rhs: &[Vec<T>]) -> Vec<Vec<T>> {
        self.solver.solve_many(rhs)
    }

    /// The kernel the backend dispatch selected (dense or sparse).
    pub fn backend(&self) -> ResolvedBackend {
        self.solver.backend()
    }

    /// Access to the underlying backend-erased solver.
    pub fn solver(&self) -> &FactoredSolver<T> {
        &self.solver
    }

    fn refactor(&mut self, a: &CscMatrix<T>, stage: &'static str) -> Result<(), CircuitError> {
        self.solver.refactor_csc(a).map_err(|_| CircuitError::SingularSystem { stage })
    }
}

impl FactoredMna<f64> {
    /// Re-derives the factors for new scalars `(gs, cs)` of the same system,
    /// warm where the kernel allows it.
    ///
    /// On the sparse kernel this is a value-only refactorisation: the
    /// scatter-map assembly rewrites the values of the shared union pattern
    /// in place and [`FactoredSolver::refactor_csc`] reuses the frozen pivot
    /// sequence and fill pattern — no symbolic work, no pivot search, no
    /// factor-storage allocation. The dense kernel factors afresh (it has no
    /// symbolic phase to reuse) but stays dense.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularSystem`] tagged with `stage` if the
    /// new matrix cannot be factorised; the previous factors are lost.
    pub fn refactor_real(
        &mut self,
        mna: &MnaSystem,
        gs: f64,
        cs: f64,
        stage: &'static str,
    ) -> Result<(), CircuitError> {
        self.refactor(&mna.assemble_csc_real(gs, cs), stage)
    }
}

impl FactoredMna<rlckit_numeric::complex::Complex> {
    /// Re-derives the factors for a new complex frequency `s` of the same
    /// system — the per-frequency step of an AC sweep — warm where the
    /// kernel allows it, exactly like [`FactoredMna::refactor_real`].
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularSystem`] tagged with `stage` if the
    /// new matrix cannot be factorised; the previous factors are lost.
    pub fn refactor_complex(
        &mut self,
        mna: &MnaSystem,
        s: rlckit_numeric::complex::Complex,
        stage: &'static str,
    ) -> Result<(), CircuitError> {
        self.refactor(&mna.assemble_csc_complex(s), stage)
    }
}

/// Factorises `gs·G + cs·C` of a system with the requested backend.
///
/// Convenience wrapper used by the DC and transient analyses. When the
/// process-global [`crate::pattern_cache`] is active (it is disabled by
/// default), a sparse factorisation both consults and seeds it; otherwise it
/// is exactly [`FactoredMna::factor`] against the shared symbolic phase.
///
/// # Errors
///
/// Returns [`CircuitError::SingularSystem`] tagged with `stage` if the matrix
/// cannot be factorised.
pub fn factor_real(
    mna: &MnaSystem,
    gs: f64,
    cs: f64,
    backend: SolverBackend,
    stage: &'static str,
) -> Result<FactoredMna<f64>, CircuitError> {
    factor_real_with(mna, gs, cs, backend, stage, crate::pattern_cache::factor_real)
}

/// [`factor_real`] with the sparse factorisation supplied by the caller.
pub(crate) fn factor_real_with(
    mna: &MnaSystem,
    gs: f64,
    cs: f64,
    backend: SolverBackend,
    stage: &'static str,
    sparse: impl FnOnce(&CscMatrix<f64>, &SparseSymbolic) -> Result<SparseLuFactor<f64>, FactorizeError>,
) -> Result<FactoredMna<f64>, CircuitError> {
    let a = mna.assemble_csc_real(gs, cs);
    let factored = FactoredMna::factor_with(mna, &a, backend, stage, sparse)?;
    if rlckit_telemetry::enabled() {
        // One condition estimate per factorisation (a handful of extra
        // solves against the factors we just built) feeds the health report.
        factored.solver().condest_health();
    }
    Ok(factored)
}

/// Factorises the complex system `G + s·C` afresh with the requested
/// backend.
///
/// # Errors
///
/// Returns [`CircuitError::SingularSystem`] tagged with `stage` if the matrix
/// cannot be factorised.
pub fn factor_complex(
    mna: &MnaSystem,
    s: rlckit_numeric::complex::Complex,
    backend: SolverBackend,
    stage: &'static str,
) -> Result<FactoredMna<rlckit_numeric::complex::Complex>, CircuitError> {
    FactoredMna::factor(mna, &mna.assemble_csc_complex(s), backend, stage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use crate::source::SourceWaveform;
    use rlckit_numeric::complex::Complex;
    use rlckit_units::{Capacitance, Inductance, Resistance, Time};

    /// A little RLC chain, the shape of every transmission-line ladder.
    fn chain(segments: usize) -> Circuit {
        let mut c = Circuit::new();
        let gnd = c.ground();
        let input = c.add_node();
        c.add_voltage_source(input, gnd, SourceWaveform::unit_step()).unwrap();
        let mut prev = input;
        for _ in 0..segments {
            let mid = c.add_node();
            let next = c.add_node();
            c.add_resistor(prev, mid, Resistance::from_ohms(10.0)).unwrap();
            c.add_inductor(mid, next, Inductance::from_picohenries(50.0)).unwrap();
            c.add_capacitor(next, gnd, Capacitance::from_femtofarads(20.0)).unwrap();
            prev = next;
        }
        c
    }

    #[test]
    fn dense_and_sparse_backends_agree_on_dc() {
        let circuit = chain(30);
        let mna = MnaSystem::build(&circuit).unwrap();
        let mut b = vec![0.0; mna.dim()];
        mna.rhs_at(Time::from_picoseconds(1.0), &mut b);

        let dense = factor_real(&mna, 1.0, 0.0, SolverBackend::Dense, "test").unwrap();
        let sparse = factor_real(&mna, 1.0, 0.0, SolverBackend::Sparse, "test").unwrap();
        assert_eq!(dense.backend(), ResolvedBackend::Dense);
        assert_eq!(sparse.backend(), ResolvedBackend::Sparse);
        assert_eq!(sparse.solver().dim(), mna.dim());

        let xd = dense.solve(&b);
        let xs = sparse.solve(&b);
        for (d, sp) in xd.iter().zip(xs.iter()) {
            assert!((d - sp).abs() < 1e-9, "dense {d} vs sparse {sp}");
        }
    }

    #[test]
    fn auto_uses_sparse_for_ladders() {
        let circuit = chain(30);
        let mna = MnaSystem::build(&circuit).unwrap();
        let auto = factor_real(&mna, 1.0, 1e12, SolverBackend::Auto, "test").unwrap();
        assert_eq!(auto.backend(), ResolvedBackend::Sparse);
        assert_eq!(auto.solver().dim(), mna.dim());
    }

    #[test]
    fn complex_factorisation_dispatches_too() {
        let circuit = chain(20);
        let mna = MnaSystem::build(&circuit).unwrap();
        let s = Complex::new(0.0, 1e10);
        let a = mna.assemble_csc_complex(s);
        let sparse = FactoredMna::factor(&mna, &a, SolverBackend::Sparse, "test").unwrap();
        let dense = FactoredMna::factor(&mna, &a, SolverBackend::Dense, "test").unwrap();
        assert_eq!(sparse.backend(), ResolvedBackend::Sparse);
        assert_eq!(dense.backend(), ResolvedBackend::Dense);
        let b = mna.unit_excitation(crate::netlist::SourceId(0)).unwrap();
        let xs = sparse.solve(&b);
        let xd = dense.solve(&b);
        for (u, v) in xs.iter().zip(xd.iter()) {
            assert!((*u - *v).abs() < 1e-9);
        }
        // `factor_complex` assembles the same matrix itself.
        let via = factor_complex(&mna, s, SolverBackend::Auto, "test").unwrap();
        assert_eq!(via.solve(&b), xs);
    }

    #[test]
    fn singular_system_reports_the_stage() {
        // A lone capacitor has a singular G-only system? No — GMIN saves it.
        // Instead factor 0·G + 0·C, which is exactly singular.
        let circuit = chain(2);
        let mna = MnaSystem::build(&circuit).unwrap();
        let err = factor_real(&mna, 0.0, 0.0, SolverBackend::Auto, "unit test").unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { stage: "unit test" }));
    }

    #[test]
    fn sparse_backend_agrees_with_dense_on_dc_and_complex() {
        let circuit = chain(25);
        let mna = MnaSystem::build(&circuit).unwrap();
        let mut b = vec![0.0; mna.dim()];
        mna.rhs_at(Time::from_picoseconds(1.0), &mut b);

        let sparse = factor_real(&mna, 1.0, 0.0, SolverBackend::Sparse, "test").unwrap();
        let dense = factor_real(&mna, 1.0, 0.0, SolverBackend::Dense, "test").unwrap();
        assert_eq!(sparse.backend(), ResolvedBackend::Sparse);
        assert_eq!(sparse.solver().dim(), mna.dim());
        let xs = sparse.solve(&b);
        let xd = dense.solve(&b);
        for (s, d) in xs.iter().zip(xd.iter()) {
            assert!((s - d).abs() < 1e-9, "sparse {s} vs dense {d}");
        }

        let s = Complex::new(0.0, 2e10);
        let sparse_c = factor_complex(&mna, s, SolverBackend::Sparse, "test").unwrap();
        let dense_c = factor_complex(&mna, s, SolverBackend::Dense, "test").unwrap();
        let bc = mna.unit_excitation(crate::netlist::SourceId(0)).unwrap();
        for (u, v) in sparse_c.solve(&bc).iter().zip(dense_c.solve(&bc).iter()) {
            assert!((*u - *v).abs() < 1e-9);
        }
    }

    #[test]
    fn solve_many_matches_solve_on_every_backend() {
        let circuit = chain(25);
        let mna = MnaSystem::build(&circuit).unwrap();
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|k| (0..mna.dim()).map(|i| ((i + 7 * k) as f64 * 0.11).sin()).collect())
            .collect();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let f = factor_real(&mna, 1.0, 1e12, backend, "test").unwrap();
            let many = f.solve_many(&rhs);
            for (b, x) in rhs.iter().zip(many.iter()) {
                let one = f.solve(b);
                for (m, o) in x.iter().zip(one.iter()) {
                    assert!((m - o).abs() < 1e-12, "{backend:?}: solve_many {m} vs solve {o}");
                }
            }
        }
    }

    #[test]
    fn refactor_tracks_new_scalars_on_every_backend() {
        let circuit = chain(25);
        let mna = MnaSystem::build(&circuit).unwrap();
        let mut b = vec![0.0; mna.dim()];
        mna.rhs_at(Time::from_picoseconds(1.0), &mut b);
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut f = factor_real(&mna, 1.0, 0.0, backend, "test").unwrap();
            let kernel = f.backend();
            f.refactor_real(&mna, 1.0, 1e12, "test").unwrap();
            assert_eq!(f.backend(), kernel, "refactor must stay on its kernel");
            let warm = f.solve(&b);
            let fresh = factor_real(&mna, 1.0, 1e12, backend, "test").unwrap().solve(&b);
            for (w, fr) in warm.iter().zip(fresh.iter()) {
                assert!((w - fr).abs() < 1e-12, "{backend:?}: refactor {w} vs fresh {fr}");
            }
        }
    }

    #[test]
    fn refactor_complex_tracks_new_frequency() {
        let circuit = chain(25);
        let mna = MnaSystem::build(&circuit).unwrap();
        let bc = mna.unit_excitation(crate::netlist::SourceId(0)).unwrap();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let mut f = factor_complex(&mna, Complex::new(0.0, 1e9), backend, "test").unwrap();
            let s2 = Complex::new(0.0, 3e10);
            f.refactor_complex(&mna, s2, "test").unwrap();
            let warm = f.solve(&bc);
            let fresh = factor_complex(&mna, s2, backend, "test").unwrap().solve(&bc);
            for (w, fr) in warm.iter().zip(fresh.iter()) {
                assert!((*w - *fr).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn refactor_reports_singular_with_the_stage() {
        let circuit = chain(4);
        let mna = MnaSystem::build(&circuit).unwrap();
        let mut f = factor_real(&mna, 1.0, 0.0, SolverBackend::Sparse, "test").unwrap();
        let err = f.refactor_real(&mna, 0.0, 0.0, "warm stage").unwrap_err();
        assert!(matches!(err, CircuitError::SingularSystem { stage: "warm stage" }));
    }

    #[test]
    fn sparse_backend_reports_singular_systems_like_the_others() {
        let circuit = chain(3);
        let mna = MnaSystem::build(&circuit).unwrap();
        for backend in [SolverBackend::Dense, SolverBackend::Sparse] {
            let err = factor_real(&mna, 0.0, 0.0, backend, "parity").unwrap_err();
            assert!(
                matches!(err, CircuitError::SingularSystem { stage: "parity" }),
                "backend {backend:?} must reject the zero matrix"
            );
        }
    }
}
