//! A reduced-order answer must not depend on which circuits the process
//! factored before it.
//!
//! The daemon runs with the process-global pattern cache on, so a ladder
//! whose MNA pattern it has already seen is normally refactored from the
//! cached template's frozen pivots. That is fine for a transient, but PRIMA
//! at an order close to the ladder size amplifies the last-bit differences
//! of such a refactor into visible changes of `delay_error_pct`. The state
//! space therefore factors `G` afresh; this test pins that down by seeding
//! the cache with a same-pattern ladder of different values and checking
//! every column against a cache-off evaluation bit for bit.

use rlckit_circuit::ladder::measure_step_delay;
use rlckit_circuit::pattern_cache::{self, PatternCacheGuard};
use rlckit_sweep::eval::{scenario_ladder_spec, Evaluator, ReducedDelayEvaluator};
use rlckit_sweep::scenario::Scenario;

fn scenario(driver_size: f64, line_length_mm: f64) -> Scenario {
    Scenario {
        ladder_sections: 8,
        reduction_order: 7,
        driver_size,
        line_length_mm,
        ..Scenario::default()
    }
}

#[test]
fn reduced_delay_is_independent_of_the_pattern_cache_history() {
    let _serial = pattern_cache::test_support::lock();
    let target = scenario(68.8352, 3.109796);
    let cold = {
        let _off = PatternCacheGuard::disable();
        ReducedDelayEvaluator.evaluate(&target).expect("cache-off evaluation")
    };

    let _on = PatternCacheGuard::enable();
    pattern_cache::clear();
    pattern_cache::reset_stats();
    // Same ladder topology, different driver and wire values, simulated
    // first: the template of this pattern holds the pivots of a transient
    // stepping matrix, and every later factorisation of the pattern through
    // the cache is a refactor hit on it.
    let seed = scenario(100.0, 5.0);
    measure_step_delay(&scenario_ladder_spec(&seed).expect("seed ladder")).expect("seed transient");
    ReducedDelayEvaluator.evaluate(&seed).expect("seeding evaluation");
    let warm = ReducedDelayEvaluator.evaluate(&target).expect("cache-on evaluation");
    let stats = pattern_cache::stats();
    pattern_cache::clear();
    assert!(stats.refactor_hits > 0, "the seeded templates were never reused: {stats:?}");

    let columns = ReducedDelayEvaluator.columns();
    for ((name, c), w) in columns.iter().zip(&cold).zip(&warm) {
        assert_eq!(c.to_bits(), w.to_bits(), "{name}: cache off {c} vs cache on {w}");
    }
}
