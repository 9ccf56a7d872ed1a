//! `scale-edit`: a seeded stream of edits to a generated network of 10⁴
//! properties, executed in-process by `DesignProcessManager::execute`
//! under incremental ADPM propagation.
//!
//! Set-up is `compile_source` of the generated DDDL, then `build_dpm` and
//! `initialize`; it is repeated `SETUPS` times and its median reported.
//! The first set-up's DPM is the one edited; the others run after the
//! edits, once the peak memory has been read.
//!
//! The operations come from two designers, each owning half of the
//! subproblems, drawn from `bench_collab`'s assign/unbind/verify mix:
//! assigns inside the current feasible subspace, working through one
//! subproblem at a time; unbinds of earlier assigns; and verify
//! operations. At the end the incremental state must equal a from-scratch
//! `propagate` over the same bindings.

use crate::gen::{generate, NetworkParams};
use crate::replay::LayerReplay;
use crate::stats::{
    calibration_note, elapsed_ns, fnv1a, peak_rss_mb, Calibration, Outcome, Samples,
};
use crate::{RunArgs, RunInfo, UNBIND_SHARE, VERIFY_SHARE};
use adpm_constraint::{
    propagate, ConstraintNetwork, Domain, PropagationConfig, PropagationKind, PropertyId, Value,
};
use adpm_core::{DesignProcessManager, DesignerId, DpmConfig, Operation, ProblemId};
use adpm_dddl::compile_source;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const PARAMS: NetworkParams = NetworkParams {
    properties: 10_000,
    block: 100,
    window: 8,
    tight_share: 0.3,
    designers: 2,
};
/// Set-up repetitions per run.
const SETUPS: usize = 9;
/// Operations per requested second of measurement.
const OPS_PER_SECOND: u64 = 60;
/// Operations between calibrations (one calibration costs about 1 ms).
const CALIBRATE_EVERY: u64 = 4;
/// Operations replayed layer by layer in traced runs (a prefix of the
/// stream, so the replay's counts depend on the seed alone).
const TRACE_OPS: usize = 400;
/// Feasible-bound tolerance of the incremental ≡ full check: the two
/// paths revise in different orders, so the last ulp may differ.
const TOL: f64 = 1e-9;

/// The DPM configuration: incremental ADPM, with the evaluation cap
/// raised above the network size (the default cap of 10⁴ evaluations is
/// smaller than one status sweep of this network).
fn dpm_config() -> DpmConfig {
    DpmConfig {
        propagation: PropagationConfig {
            max_evaluations: 2_000_000,
            ..PropagationConfig::default()
        },
        ..DpmConfig::adpm_incremental()
    }
}

pub fn run(args: &RunArgs) -> (RunInfo, Outcome) {
    let source = generate(&PARAMS, args.seed);
    let ops_total = args.seconds * OPS_PER_SECOND;
    let info = RunInfo {
        params: format!(
            "{} ops={ops_total} verify_share={VERIFY_SHARE} unbind_share={UNBIND_SHARE} \
             setups={SETUPS} propagation=incremental",
            PARAMS.describe()
        ),
        input_hash: fnv1a(source.as_bytes(), args.seed),
    };
    let _ = std::fs::write(args.out_dir.join("network.dddl"), &source);
    let mut out = Outcome::default();

    let mut setups = SetupTimes::default();
    let mut kernel = Samples::default();
    let mut dpm = setups.set_up(&source, &mut kernel);
    let trace_base = args.trace.then(|| dpm.clone());

    let mut stream = EditStream::new(&dpm, args.seed);
    let (mut ops, mut ops_scaled) = (Samples::default(), Samples::default());
    let designers = dpm.designers().to_vec();
    let mut cal = Calibration::measure();
    kernel.push(cal.kernel_ns());
    for i in 0..ops_total {
        if i > 0 && i % CALIBRATE_EVERY == 0 {
            cal = Calibration::measure();
            kernel.push(cal.kernel_ns());
        }
        let op = stream.next(&dpm);
        let started = Instant::now();
        let result = dpm.execute(op);
        for d in &designers {
            std::hint::black_box(dpm.take_notifications(*d));
        }
        let ns = elapsed_ns(started);
        ops.push(ns);
        ops_scaled.push(cal.apply(ns));
        out.attempted += 1;
        if let Err(e) = result {
            out.failed += 1;
            out.check(false, || format!("op {i} failed: {e}"));
        }
    }
    // Before the oracle below, which clones the network, and before the
    // repeated set-ups: each one frees and rebuilds the whole network,
    // and the allocator's fragmentation raised the peak by 14–20 MiB
    // over the first set-up's, depending on the seed.
    let peak_rss = peak_rss_mb();
    check_against_full(&dpm, &mut out);
    out.notes.push(mix_note(&dpm, stream.repairs));
    let replay = trace_base.map(|base| {
        let history = &dpm.history()[..TRACE_OPS.min(dpm.history().len())];
        let stream: Vec<Operation> = history.iter().map(|r| r.operation.clone()).collect();
        let config = dpm_config();
        let mut layers = LayerReplay::new(config.propagation, PropagationKind::Incremental);
        layers.run(base, &stream, history);
        layers
    });
    // The remaining set-ups start, as the first did, with no network alive.
    drop(dpm);
    for _ in 1..SETUPS {
        drop(setups.set_up(&source, &mut kernel));
    }
    let SetupTimes {
        total: setup,
        scaled: setup_scaled,
        compile,
        initialize,
    } = setups;

    out.notes.push(calibration_note(&ops, &setup, &kernel));
    if let Some(layers) = replay {
        layers.report(&mut out);
        let m = &mut out.metrics;
        m.set("dddl.compile_ms", compile.median_ms(), "ms");
        m.set("dpm.initialize_ms", initialize.median_ms(), "ms");
        m.set("trace.op_p50_us", ops_scaled.p50_us(), "us");
        m.set("trace.calibration_us", kernel.p50_us(), "us");
    } else {
        let share = out.ok_share();
        let m = &mut out.metrics;
        m.set("setup_s", setup_scaled.median_s(), "s");
        m.set("ops_per_s", ops_scaled.ops_per_s(), "1/s");
        m.set("op_p50_us", ops_scaled.p50_us(), "us");
        m.set("op_p99_us", ops_scaled.p99_us(), "us");
        m.set("peak_rss_mb", peak_rss, "MiB");
        m.set("ok_share", share, "share");
    }
    (info, out)
}

/// Set-up timings: raw, at reference speed (`Calibration`), and by layer.
#[derive(Default)]
struct SetupTimes {
    total: Samples,
    scaled: Samples,
    compile: Samples,
    initialize: Samples,
}

impl SetupTimes {
    /// One set-up: `compile_source`, `build_dpm`, `initialize`.
    fn set_up(&mut self, source: &str, kernel: &mut Samples) -> DesignProcessManager {
        let cal = Calibration::measure();
        kernel.push(cal.kernel_ns());
        let started = Instant::now();
        let scenario = self
            .compile
            .time(|| compile_source(source).expect("generated DDDL compiles"));
        let mut dpm = scenario.build_dpm(dpm_config());
        self.initialize.time(|| dpm.initialize());
        let ns = elapsed_ns(started);
        self.total.push(ns);
        self.scaled.push(cal.apply(ns));
        dpm
    }
}

/// The incremental ≡ full oracle: a from-scratch propagation over the
/// final bindings must reproduce every feasible subspace and status.
fn check_against_full(dpm: &DesignProcessManager, out: &mut Outcome) {
    let live = dpm.network();
    let mut full: ConstraintNetwork = live.clone();
    propagate(&mut full, &dpm_config().propagation);
    let diverged_feasible = live.property_ids().find(|pid| {
        let (a, b) = (live.feasible(*pid), full.feasible(*pid));
        match (a.enclosing_interval(), b.enclosing_interval()) {
            (Some(x), Some(y)) => (x.lo() - y.lo()).abs() > TOL || (x.hi() - y.hi()).abs() > TOL,
            _ => a != b,
        }
    });
    out.check(diverged_feasible.is_none(), || {
        let pid = diverged_feasible.expect("checked");
        format!(
            "incremental feasible({}) = {} but full propagation gives {}",
            live.property(pid).name(),
            live.feasible(pid),
            full.feasible(pid)
        )
    });
    let diverged_status = live
        .constraint_ids()
        .find(|cid| live.status(*cid) != full.status(*cid));
    out.check(diverged_status.is_none(), || {
        let cid = diverged_status.expect("checked");
        format!(
            "incremental status({}) = {:?} but full propagation gives {:?}",
            live.constraint(cid).name(),
            live.status(cid),
            full.status(cid)
        )
    });
}

/// The stream's realized operator shares: repairs and the empty-bound
/// fallback to an assign move them off the drawn mix.
fn mix_note(dpm: &DesignProcessManager, repairs: u64) -> String {
    let mut kinds = std::collections::BTreeMap::new();
    for record in dpm.history() {
        *kinds
            .entry(record.operation.operator().kind())
            .or_insert(0u64) += 1;
    }
    let total = dpm.history().len().max(1) as f64;
    let shares: Vec<String> = kinds
        .iter()
        .map(|(kind, n)| format!("{kind} {:.3}", *n as f64 / total))
        .collect();
    format!(
        "realized mix: {}; {repairs} of the unbinds repaired a violation",
        shares.join(", ")
    )
}

/// The seeded edit stream. Each designer owns the outputs of their
/// subproblems; the stream only depends on the seed and on the design
/// state its own earlier ops produced. Like a TeamSim designer
/// (`SimulatedDesigner::choose`), it repairs an open violation before
/// anything else; otherwise it draws from the shared assign/unbind/verify
/// mix ([`VERIFY_SHARE`], [`UNBIND_SHARE`]).
struct EditStream {
    rng: StdRng,
    /// Per designer: (subproblem, property) pairs they own.
    owned: Vec<Vec<(ProblemId, PropertyId)>>,
    /// Per designer: the properties they have bound.
    bound: Vec<Vec<(ProblemId, PropertyId)>>,
    /// Unbinds issued to repair a violation.
    repairs: u64,
}

impl EditStream {
    fn new(dpm: &DesignProcessManager, seed: u64) -> Self {
        let designers = dpm.designers().len();
        let mut owned = vec![Vec::new(); designers];
        for pid in dpm.problems().ids() {
            let problem = dpm.problems().problem(pid);
            if let Some(d) = problem.assignee() {
                owned[d.index()].extend(problem.outputs().iter().map(|p| (pid, *p)));
            }
        }
        EditStream {
            rng: StdRng::seed_from_u64(seed ^ 0x5ca1_ed17),
            owned,
            bound: vec![Vec::new(); designers],
            repairs: 0,
        }
    }

    fn next(&mut self, dpm: &DesignProcessManager) -> Operation {
        if let Some(repair) = self.repair(dpm) {
            return repair;
        }
        let d = self.rng.gen_range(0..self.owned.len());
        let designer = DesignerId::new(d as u32);
        let r: f64 = self.rng.gen_range(0.0..1.0);
        if r < VERIFY_SHARE {
            let (problem, _) = self.owned[d][self.rng.gen_range(0..self.owned[d].len())];
            return Operation::verify(designer, problem);
        }
        // A designer works on their first subproblem that still has an
        // unbound output, and picks one of its unbound outputs.
        let net = dpm.network();
        let current = self.owned[d]
            .iter()
            .find(|(_, p)| !net.is_bound(*p))
            .map(|(problem, _)| *problem);
        let unbind = r < VERIFY_SHARE + UNBIND_SHARE || current.is_none();
        if unbind && !self.bound[d].is_empty() {
            let at = self.rng.gen_range(0..self.bound[d].len());
            let (problem, property) = self.bound[d].swap_remove(at);
            return Operation::unbind(designer, problem, property);
        }
        let open: Vec<(ProblemId, PropertyId)> = self.owned[d]
            .iter()
            .filter(|(problem, p)| Some(*problem) == current && !net.is_bound(*p))
            .copied()
            .collect();
        let (problem, property) = open[self.rng.gen_range(0..open.len())];
        let value = pick_value(
            net.feasible(property),
            net.property(property).initial_domain(),
            &mut self.rng,
        );
        self.bound[d].push((problem, property));
        Operation::assign(designer, problem, property, Value::number(value))
    }
}

impl EditStream {
    /// A designer reacts to a known violation by unbinding the bound
    /// property nearest to it. That is one of the violated constraint's
    /// arguments when one is bound: assigns inside the feasible box can
    /// still conflict, because the box is only locally consistent.
    /// Otherwise the violation came through propagation from a
    /// neighbour's value, and the nearest bound property by index goes;
    /// the generator numbers properties along the coupling, so index
    /// distance is coupling distance.
    fn repair(&mut self, dpm: &DesignProcessManager) -> Option<Operation> {
        let cid = *dpm.known_violations().first()?;
        let arguments = dpm.network().constraint(cid).arguments();
        let distance = |p: PropertyId| {
            arguments
                .iter()
                .map(|a| a.index().abs_diff(p.index()))
                .min()
                .unwrap_or(usize::MAX)
        };
        let (d, at) = self
            .bound
            .iter()
            .enumerate()
            .flat_map(|(d, bound)| {
                bound
                    .iter()
                    .enumerate()
                    .map(move |(at, (_, p))| (d, at, *p))
            })
            .min_by_key(|(_, _, p)| distance(*p))
            .map(|(d, at, _)| (d, at))?;
        let (problem, property) = self.bound[d].swap_remove(at);
        self.repairs += 1;
        Some(Operation::unbind(
            DesignerId::new(d as u32),
            problem,
            property,
        ))
    }
}

/// A value inside the feasible subspace, or inside `E_i` when the
/// feasible subspace is empty.
fn pick_value(feasible: &Domain, initial: &Domain, rng: &mut StdRng) -> f64 {
    let range = feasible
        .enclosing_interval()
        .filter(|iv| !iv.is_empty())
        .or_else(|| initial.enclosing_interval())
        .expect("generated properties are intervals");
    if range.width() <= 0.0 {
        range.lo()
    } else {
        rng.gen_range(range.lo()..range.hi())
    }
}
