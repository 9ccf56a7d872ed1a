//! `paper-study`: the paper's TeamSim study in ADPM mode (λ = T) on both
//! design cases, with the fig9 settings (full propagation).
//!
//! The run is a sequence of rounds. A round sets up `SIMS_PER_CASE`
//! simulations per case — `compile_source` for both cases, then
//! `Simulation::new` for every seed, which builds and initializes each
//! DPM — and then steps every simulation to completion. One operation is
//! one `Simulation::step` that executed an operation. Set-up time is the
//! median over the rounds.

use crate::replay::LayerReplay;
use crate::stats::{
    calibration_note, elapsed_ns, fnv1a, peak_rss_mb, Calibration, Outcome, Samples,
};
use crate::{RunArgs, RunInfo};
use adpm_dddl::{compile_source, CompiledScenario};
use adpm_scenarios::{receiver_dddl, DEFAULT_GAIN_REQUIREMENT, SENSING_DDDL};
use adpm_teamsim::{Simulation, SimulationConfig, StepOutcome};
use std::time::Instant;

/// Simulations per design case and round.
const SIMS_PER_CASE: u64 = 20;
/// Rounds per requested second of measurement.
const ROUNDS_PER_SECOND: u64 = 20;
/// Every this-many-th round is replayed layer by layer in traced runs.
const TRACE_EVERY: u64 = 4;

pub fn run(args: &RunArgs) -> (RunInfo, Outcome) {
    let sources = [
        SENSING_DDDL.to_owned(),
        receiver_dddl(DEFAULT_GAIN_REQUIREMENT),
    ];
    let rounds = args.seconds * ROUNDS_PER_SECOND;
    let info = RunInfo {
        params: format!(
            "cases=sensing_system,wireless_receiver mode=adpm propagation=full \
             sims_per_case={SIMS_PER_CASE} rounds={rounds} first_sim_seed={}",
            first_seed(args.seed)
        ),
        input_hash: sources
            .iter()
            .fold(args.seed, |h, s| fnv1a(s.as_bytes(), h)),
    };
    let mut out = Outcome::default();
    // Raw timings, and the same at reference speed (`Calibration`).
    let (mut setup, mut setup_scaled) = (Samples::default(), Samples::default());
    let (mut steps, mut steps_scaled) = (Samples::default(), Samples::default());
    let mut kernel = Samples::default();
    let (mut compile, mut initialize) = (Samples::default(), Samples::default());
    let config = SimulationConfig::adpm(0);
    let mut layers = LayerReplay::new(config.propagation, config.propagation_kind);
    let mut teamsim_self = Samples::default();
    // One simulation's step times; the histograms above keep the rest.
    let mut sim_steps = Vec::new();
    for round in 0..rounds {
        let cal = Calibration::measure();
        kernel.push(cal.kernel_ns());
        // Set-up: compile both cases, build and initialize every DPM.
        let started = Instant::now();
        let scenarios: Vec<CompiledScenario> = sources
            .iter()
            .map(|src| compile.time(|| compile_source(src).expect("built-in case compiles")))
            .collect();
        let mut sims: Vec<Simulation> = Vec::new();
        for (case, scenario) in scenarios.iter().enumerate() {
            for k in 0..SIMS_PER_CASE {
                let seed = first_seed(args.seed) + (round * 2 + case as u64) * SIMS_PER_CASE + k;
                sims.push(Simulation::new(scenario, SimulationConfig::adpm(seed)));
            }
        }
        let setup_ns = elapsed_ns(started);
        setup.push(setup_ns);
        setup_scaled.push(cal.apply(setup_ns));

        let traced = args.trace && round % TRACE_EVERY == 0;
        for (i, sim) in sims.iter_mut().enumerate() {
            sim_steps.clear();
            if let Err(why) = run_to_completion(sim, &mut sim_steps) {
                out.failed += 1;
                out.check(false, || format!("round {round} sim {i}: {why}"));
            }
            out.attempted += sim_steps.len() as u64;
            for ns in &sim_steps {
                steps.push(*ns);
                steps_scaled.push(cal.apply(*ns));
            }
            if traced {
                let scenario = &scenarios[i / SIMS_PER_CASE as usize];
                let mut base = scenario.build_dpm(sim.config().dpm_config());
                initialize.time(|| base.initialize());
                let history = sim.dpm().history();
                let ops: Vec<_> = history.iter().map(|r| r.operation.clone()).collect();
                let exec = layers.run(base, &ops, history);
                for (step_ns, exec_ns) in sim_steps.iter().zip(exec) {
                    teamsim_self.push(step_ns.saturating_sub(exec_ns));
                }
            }
        }
    }

    out.notes.push(calibration_note(&steps, &setup, &kernel));
    if args.trace {
        layers.report(&mut out);
        let m = &mut out.metrics;
        m.set("teamsim.self_us.p50", teamsim_self.p50_us(), "us");
        m.set("dddl.compile_ms", compile.median_ms(), "ms");
        m.set("dpm.initialize_ms", initialize.median_ms(), "ms");
        m.set("trace.op_p50_us", steps_scaled.p50_us(), "us");
        m.set("trace.calibration_us", kernel.p50_us(), "us");
    } else {
        let share = out.ok_share();
        let m = &mut out.metrics;
        m.set("setup_s", setup_scaled.median_s(), "s");
        m.set("ops_per_s", steps_scaled.ops_per_s(), "1/s");
        m.set("op_p50_us", steps_scaled.p50_us(), "us");
        m.set("op_p99_us", steps_scaled.p99_us(), "us");
        m.set("peak_rss_mb", peak_rss_mb(), "MiB");
        m.set("ok_share", share, "share");
    }
    (info, out)
}

fn first_seed(workload_seed: u64) -> u64 {
    workload_seed * 1_000_000
}

/// Steps `sim` until the design is complete, timing every executed step.
fn run_to_completion(sim: &mut Simulation, steps: &mut Vec<u64>) -> Result<(), String> {
    loop {
        if sim.operations() >= sim.config().max_operations {
            return Err(format!(
                "hit the {}-operation cap",
                sim.config().max_operations
            ));
        }
        let started = Instant::now();
        let outcome = std::hint::black_box(sim.step());
        let ns = elapsed_ns(started);
        match outcome {
            StepOutcome::Executed(_) => steps.push(ns),
            StepOutcome::Stalled => return Err("stalled".into()),
            StepOutcome::Complete => {
                return if sim.dpm().known_violations().is_empty() {
                    Ok(())
                } else {
                    Err("completed with known violations".into())
                };
            }
        }
    }
}
