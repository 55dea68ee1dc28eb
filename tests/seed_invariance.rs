//! Seed invariance of the paper findings: every reproduced claim is a
//! property of the *simulated systems*, not of one lucky generator seed.
//!
//! Two layers, sharing one [`FindingsSweep`] cell cache so each experiment
//! cell runs once per seed:
//!
//! * each of the nine predicates holds *individually* at five distinct
//!   seeds (the sweep re-targeted to one seed at a time — CI bounds
//!   degenerate to the point estimate, so this is the per-seed claim);
//! * each predicate holds on the aggregated 95% CI bounds of the full
//!   five-seed sweep (the conservative multi-seed claim the
//!   `repro_all --check` gate enforces).
//!
//! Failure messages name the seed (or sweep) and the finding's paper
//! section, so a regression points straight at the broken claim.

use graphbench::findings::{FindingsSweep, FINDINGS};
use graphbench::{PaperEnv, Runner};
use graphbench_gen::Scale;

/// Five distinct seeds, starting from the calibrated default (42 — the
/// configuration EXPERIMENTS.md documents).
const SEEDS: [u64; 5] = [42, 43, 44, 45, 46];

/// The calibrated scale the findings are stated at (the
/// `tests/paper_findings.rs` configuration).
fn sweep(seeds: Vec<u64>) -> FindingsSweep {
    let mut runner = Runner::new(PaperEnv::new(Scale { base: 1_500 }, seeds[0]));
    runner.seeds = seeds;
    FindingsSweep::new(runner)
}

fn check_finding(id: u8) {
    let f = &FINDINGS[id as usize - 1];
    let mut sweep = sweep(vec![SEEDS[0]]);
    // Per-seed: the predicate holds at every individual seed.
    for &seed in &SEEDS {
        sweep.set_seeds(vec![seed]);
        let v = sweep.evaluate(id);
        assert!(
            v.holds,
            "finding {id} ({} {}) fails at seed {seed}: {}",
            f.section, f.name, v.detail
        );
    }
    // Aggregate: the predicate holds on the CI bounds of the full sweep.
    sweep.set_seeds(SEEDS.to_vec());
    let v = sweep.evaluate(id);
    assert!(
        v.holds,
        "finding {id} ({} {}) fails on the aggregated CI bounds of seeds {SEEDS:?}: {}",
        f.section, f.name, v.detail
    );
}

#[test]
fn finding_1_s5_1_holds_at_every_seed_and_on_ci_bounds() {
    check_finding(1);
}

#[test]
fn finding_2_s5_3_s5_6_s5_8_holds_at_every_seed_and_on_ci_bounds() {
    check_finding(2);
}

#[test]
fn finding_3_s5_4_holds_at_every_seed_and_on_ci_bounds() {
    check_finding(3);
}

#[test]
fn finding_4_s5_5_holds_at_every_seed_and_on_ci_bounds() {
    check_finding(4);
}

#[test]
fn finding_5_s5_6_holds_at_every_seed_and_on_ci_bounds() {
    check_finding(5);
}

#[test]
fn finding_6_s5_10_holds_at_every_seed_and_on_ci_bounds() {
    check_finding(6);
}

#[test]
fn finding_7_s5_11_holds_at_every_seed_and_on_ci_bounds() {
    check_finding(7);
}

#[test]
fn finding_8_table9_holds_at_every_seed_and_on_ci_bounds() {
    check_finding(8);
}

#[test]
fn finding_9_table7_s5_9_holds_at_every_seed_and_on_ci_bounds() {
    check_finding(9);
}

/// The perturbation hook genuinely flips its finding and only its finding
/// — the gate's failure path is testable, not decorative.
#[test]
fn perturbation_hook_flips_exactly_its_target_finding() {
    let mut s = sweep(vec![42]);
    s.set_perturb(Some(4));
    let v4 = s.evaluate(4);
    assert!(!v4.holds, "perturbed finding 4 should fail");
    assert!(!v4.detail.is_empty());
    let v5 = s.evaluate(5);
    assert!(v5.holds, "finding 5 must be untouched by perturbing 4: {}", v5.detail);
    s.set_perturb(None);
    let v4 = s.evaluate(4);
    assert!(v4.holds, "finding 4 should hold again unperturbed: {}", v4.detail);
}
