//! Layer replay: re-executes a recorded operation stream through each
//! layer's public entry point and times every call from outside.
//!
//! A twin DPM starts from the state the live run started from and
//! executes the same stream. For each operation:
//! - `core::dpm`: `DesignProcessManager::execute` on the twin;
//! - `constraint::propagate` (DCM): the op's bind or unbind applied to a
//!   clone of the pre-op network, then `propagate` (full configs) or
//!   `propagate_incremental` (incremental configs);
//! - `constraint::heuristics`: `HeuristicReport::mine` on the network
//!   that propagation left.
//!
//! The DPM's self time is its execute time minus the propagate and mine
//! times of the same operation.

use crate::stats::{Outcome, Samples};
use adpm_constraint::{
    propagate, propagate_incremental, HeuristicReport, PropagationConfig, PropagationKind,
};
use adpm_core::{DesignProcessManager, Operation, OperationRecord, Operator};
use adpm_observe::NoopSink;

/// Per-layer samples and counts of one replay.
#[derive(Debug)]
pub struct LayerReplay {
    /// The propagation settings the live DPMs ran with.
    config: PropagationConfig,
    kind: PropagationKind,
    pub execute: Samples,
    pub propagate: Samples,
    pub mine: Samples,
    pub dpm_self: Samples,
    pub ops: u64,
    pub evaluations: u64,
    pub narrowed: u64,
    pub full_fallbacks: u64,
    /// Replayed ops that failed or diverged from the live record.
    pub mismatches: Vec<String>,
}

impl LayerReplay {
    pub fn new(config: PropagationConfig, kind: PropagationKind) -> Self {
        LayerReplay {
            config,
            kind,
            execute: Samples::default(),
            propagate: Samples::default(),
            mine: Samples::default(),
            dpm_self: Samples::default(),
            ops: 0,
            evaluations: 0,
            narrowed: 0,
            full_fallbacks: 0,
            mismatches: Vec::new(),
        }
    }

    /// Replays `ops` on `twin`, a copy of the live state before the first
    /// of them. `live` holds the live run's records of the same ops, for
    /// checking that the replay took the same path. Returns each replayed
    /// op's execute time in nanoseconds.
    pub fn run(
        &mut self,
        mut twin: DesignProcessManager,
        ops: &[Operation],
        live: &[OperationRecord],
    ) -> Vec<u64> {
        let mut exec_times = Vec::with_capacity(ops.len());
        for (i, op) in ops.iter().enumerate() {
            let mut net = twin.network().clone();
            let (result, exec_ns) = timed(|| twin.execute(op.clone()));
            self.execute.push(exec_ns);
            exec_times.push(exec_ns);
            let record = match result {
                Ok(record) => record,
                Err(e) => {
                    self.mismatches.push(format!("replayed op {i} failed: {e}"));
                    break;
                }
            };
            if let Some(expected) = live.get(i) {
                if expected.evaluations != record.evaluations
                    || expected.violations_after != record.violations_after
                {
                    self.mismatches.push(format!(
                        "replayed op {i} diverged: {} evaluations / {} violations live, {} / {} replayed",
                        expected.evaluations,
                        expected.violations_after,
                        record.evaluations,
                        record.violations_after
                    ));
                }
            }
            let (dirty, applied) = match op.operator() {
                Operator::Assign { property, value } => {
                    (vec![*property], net.bind(*property, value.clone()).is_ok())
                }
                Operator::Unbind { property } => (vec![*property], net.unbind(*property).is_ok()),
                _ => (Vec::new(), true),
            };
            if !applied {
                self.mismatches
                    .push(format!("op {i}: the network rejected the op's bind"));
            }
            let (outcome, prop_ns) = timed(|| match self.kind {
                PropagationKind::Full => propagate(&mut net, &self.config),
                PropagationKind::Incremental => {
                    propagate_incremental(&mut net, &dirty, &self.config, &NoopSink)
                }
            });
            self.propagate.push(prop_ns);
            let (_, mine_ns) = timed(|| HeuristicReport::mine(&net));
            self.mine.push(mine_ns);
            self.dpm_self
                .push(exec_ns.saturating_sub(prop_ns).saturating_sub(mine_ns));
            self.ops += 1;
            self.evaluations += outcome.evaluations as u64;
            self.narrowed += outcome.narrowed.len() as u64;
            if self.kind == PropagationKind::Incremental && outcome.kind == PropagationKind::Full {
                self.full_fallbacks += 1;
            }
        }
        exec_times
    }

    /// Adds the `core::dpm`, DCM, and heuristics metrics.
    pub fn report(&self, out: &mut Outcome) {
        out.check(self.mismatches.is_empty(), || {
            format!("layer replay: {}", self.mismatches.join("; "))
        });
        out.check(self.ops > 0, || "layer replay ran no operations".into());
        let per_op = |n: u64| n as f64 / self.ops.max(1) as f64;
        let m = &mut out.metrics;
        m.set("dpm.execute_us.p50", self.execute.p50_us(), "us");
        m.set("dpm.execute_us.p99", self.execute.p99_us(), "us");
        m.set("dpm.self_us.p50", self.dpm_self.p50_us(), "us");
        m.set("dcm.propagate_us.p50", self.propagate.p50_us(), "us");
        m.set("dcm.propagate_us.p99", self.propagate.p99_us(), "us");
        m.set("dcm.evals_per_op", per_op(self.evaluations), "count");
        m.set("dcm.narrowed_per_op", per_op(self.narrowed), "count");
        m.set(
            "dcm.full_fallback_share",
            per_op(self.full_fallbacks),
            "count",
        );
        m.set("heuristics.mine_us.p50", self.mine.p50_us(), "us");
        m.set("trace.replayed_ops", self.ops as f64, "count");
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let started = std::time::Instant::now();
    let out = std::hint::black_box(f());
    (out, crate::stats::elapsed_ns(started))
}
