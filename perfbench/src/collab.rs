//! The collaboration probe: a small, fixed `collab-session` run whose
//! layers the traced `paper-study` run reports.
//!
//! An in-process `CollabServer` with `adpm serve`'s defaults — ADPM mode,
//! full propagation, a journal on local disk with fsync every 8
//! operations, a checkpoint every 32, no compaction — serves the sensing
//! system to two `ResilientClient`s on two threads.
//!
//! Before anything is timed, the probe writes a base journal of
//! `BASE_OPS` seeded operations and recovers a copy of it `RECOVERS`
//! times (median reported). The last recovered state gets the journal
//! writer and the server. Designer 1 on `pressure-sensor` and designer 2
//! on `interface-circuit` then each submit `OPS_PER_CLIENT` operations of
//! their seeded mix, closed loop. Checks: every submit executes, and the
//! live DPM's fingerprint equals a fresh recovery of the journal.
//!
//! The same two streams, alternating, then run again from the same
//! recovered state, one call at a time: through an in-process twin
//! session, and through a twin DPM with its own journal writer and the
//! wire codec.
//!
//! The live clients do not subscribe to events: with a subscription on
//! the submit connection, replies stall behind pushed events for about
//! 40 ms (see README.md). Notification fanout is measured on the
//! in-process twin session instead.

use crate::stats::{fnv1a, Outcome, Samples};
use crate::{UNBIND_SHARE, VERIFY_SHARE};
use adpm_collab::{
    recover, CollabServer, Frame, FsyncPolicy, Inbox, InterestSet, JournalConfig, JournalWriter,
    OpOutcome, ReconnectConfig, ResilientClient, ServerOptions, SessionEngine, SessionOptions,
    WireOp, DEFAULT_INBOX_CAPACITY,
};
use adpm_constraint::{Domain, PropertyId, Value};
use adpm_core::{
    state_fingerprint, DesignProcessManager, DesignerId, DpmConfig, Operation, OperationRecord,
    Operator, ProblemId,
};
use adpm_dddl::compile_source;
use adpm_scenarios::SENSING_DDDL;
use adpm_teamsim::SimulationConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// Operations in the journal recovered at set-up.
const BASE_OPS: usize = 10_000;
/// Recoveries of the base journal; the median is reported.
const RECOVERS: usize = 5;
/// Operations each client submits.
const OPS_PER_CLIENT: usize = 5_000;
/// `adpm serve`'s journal policy.
const FSYNC_EVERY: u32 = 8;
const CHECKPOINT_EVERY: u64 = 32;
/// The two designers and the subproblems they work on.
const CLIENTS: [(u32, &str); 2] = [(1, "pressure-sensor"), (2, "interface-circuit")];

/// `adpm serve`'s session: ADPM, full propagation.
fn dpm_config() -> DpmConfig {
    SimulationConfig::adpm(0).dpm_config()
}

fn fresh_dpm() -> DesignProcessManager {
    let scenario = compile_source(SENSING_DDDL).expect("built-in case compiles");
    let mut dpm = scenario.build_dpm(dpm_config());
    dpm.initialize();
    dpm
}

fn journal_config(path: &Path, fsync: FsyncPolicy) -> JournalConfig {
    JournalConfig {
        path: path.to_owned(),
        fsync,
        checkpoint_every: CHECKPOINT_EVERY,
        compact_every: 0,
    }
}

type BoxError = Box<dyn std::error::Error>;

/// A copy of the base journal at `path`, recovered into a fresh DPM and
/// opened for appending with `fsync`. `recovery` times the recovery.
fn resume(
    base: &Path,
    path: &Path,
    fsync: FsyncPolicy,
    recovery: &mut Samples,
) -> Result<(DesignProcessManager, JournalWriter, u64), BoxError> {
    std::fs::copy(base, path)?;
    let mut dpm = fresh_dpm();
    let report = recovery.time(|| recover(path, &mut dpm))?;
    let writer = JournalWriter::open(
        journal_config(path, fsync),
        &dpm,
        Some(report.journal_bytes),
    )?;
    Ok((dpm, writer, report.ops))
}

/// Runs the probe with artifacts under `dir`; its journals are deleted
/// at the end.
pub fn probe(seed: u64, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_probe(seed, dir, &mut out) {
        out.check(false, || e.to_string());
    }
    for name in [
        "base.journal",
        "live.journal",
        "twin-session.journal",
        "twin-writer.journal",
    ] {
        let _ = std::fs::remove_file(dir.join(name));
    }
    out
}

fn run_probe(seed: u64, dir: &Path, out: &mut Outcome) -> Result<(), BoxError> {
    let base = dir.join("base.journal");
    write_base_journal(&base, seed)?;
    out.notes.push(format!(
        "base journal hash {:016x}",
        fnv1a(&std::fs::read(&base)?, seed)
    ));

    // The streams the live clients submit, drawn apart from the base
    // journal's.
    let template = fresh_dpm();
    let mut mixes: Vec<OpMix> = CLIENTS
        .iter()
        .map(|(designer, problem)| OpMix::new(&template, *designer, problem, seed.wrapping_add(7)))
        .collect();
    let streams: Vec<Vec<MixOp>> = mixes
        .iter_mut()
        .map(|mix| (0..OPS_PER_CLIENT).map(|_| mix.next()).collect())
        .collect();

    // Set-up: recover the base journal; the last recovery serves.
    let live_path = dir.join("live.journal");
    let mut recovery = Samples::default();
    let mut live = None;
    for _ in 0..RECOVERS {
        live = Some(resume(
            &base,
            &live_path,
            FsyncPolicy::EveryN(FSYNC_EVERY),
            &mut recovery,
        )?);
    }
    let (dpm, writer, recovered_ops) = live.expect("at least one recovery");
    let server = CollabServer::bind_with(
        dpm,
        0,
        ServerOptions::default(),
        SessionOptions {
            journal: Some(writer),
            ..SessionOptions::default()
        },
    )?;
    let mut clients = Vec::new();
    for (designer, _) in CLIENTS {
        let config = ReconnectConfig {
            seed: seed ^ u64::from(designer),
            ..ReconnectConfig::default()
        };
        clients.push(ResilientClient::connect(
            server.local_addr(),
            designer,
            config,
        )?);
    }

    // The load: both clients at once, closed loop.
    let results: Vec<ClientResult> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .zip(mixes.iter().zip(&streams))
            .map(|(client, (mix, stream))| scope.spawn(move || drive_client(client, mix, stream)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let live_dpm = server.shutdown();

    let mut submits = Samples::default();
    for r in &results {
        submits.merge(&r.latencies);
        out.failed += r.failures.len() as u64;
        for f in r.failures.iter().take(3) {
            out.check(false, || f.clone());
        }
    }
    out.attempted = submits.len();

    // Durability: a fresh recovery of the journal must reach the live state.
    let mut recovered = fresh_dpm();
    recover(&live_path, &mut recovered)?;
    out.check(
        state_fingerprint(&recovered) == state_fingerprint(&live_dpm),
        || "the recovered journal's fingerprint differs from the live state".into(),
    );
    let expected_ops = recovered_ops + submits.len();
    out.check(live_dpm.operations_total() as u64 == expected_ops, || {
        format!(
            "the live session ran {} operations, expected {recovered_ops} recovered + {} submitted",
            live_dpm.operations_total(),
            submits.len()
        )
    });

    // The twins run the clients' streams, alternating.
    let ops: Vec<Operation> = (0..OPS_PER_CLIENT)
        .flat_map(|i| {
            mixes
                .iter()
                .zip(&streams)
                .map(move |(mix, s)| s[i].to_operation(mix))
        })
        .collect();
    trace_layers(&base, dir, &ops, submits.p50_us(), out)?;
    let m = &mut out.metrics;
    m.set("journal.recover_ms", recovery.median_ms(), "ms");
    m.set(
        "journal.recover_us_per_op",
        recovery.median_ms() * 1e3 / recovered_ops.max(1) as f64,
        "us",
    );
    out.notes.push(format!(
        "{} clients, {} submits, raw submit p50 {:.1} us, {recovered_ops} recovered operations",
        CLIENTS.len(),
        submits.len(),
        submits.p50_us()
    ));
    Ok(())
}

/// Writes the journal every set-up recovers: `BASE_OPS` operations of
/// the two designers' mixes, alternating, through an in-process session.
fn write_base_journal(path: &Path, seed: u64) -> Result<(), BoxError> {
    let _ = std::fs::remove_file(path);
    let dpm = fresh_dpm();
    let writer = JournalWriter::open(journal_config(path, FsyncPolicy::Never), &dpm, None)?;
    let mut mixes: Vec<OpMix> = CLIENTS
        .iter()
        .map(|(designer, problem)| OpMix::new(&dpm, *designer, problem, seed))
        .collect();
    let engine = SessionEngine::spawn_with(
        dpm,
        SessionOptions {
            journal: Some(writer),
            ..SessionOptions::default()
        },
    );
    let handle = engine.handle();
    for i in 0..BASE_OPS {
        let mix = &mut mixes[i % CLIENTS.len()];
        let op = mix.next().to_operation(mix);
        match handle.submit(op) {
            Ok(OpOutcome::Executed(_)) => {}
            other => return Err(format!("base journal op {i}: {other:?}").into()),
        }
    }
    drop(handle);
    engine.shutdown();
    Ok(())
}

struct ClientResult {
    latencies: Samples,
    failures: Vec<String>,
}

fn drive_client(mut client: ResilientClient, mix: &OpMix, stream: &[MixOp]) -> ClientResult {
    let mut result = ClientResult {
        latencies: Samples::default(),
        failures: Vec::new(),
    };
    for (i, op) in stream.iter().enumerate() {
        let op = op.to_wire(mix);
        let reply = result.latencies.time(|| client.submit(op));
        match reply {
            Ok(Frame::Executed { .. }) => {}
            Ok(other) => result.failures.push(format!(
                "designer {} op {i}: {}",
                mix.designer,
                other.to_line().trim_end()
            )),
            Err(e) => result
                .failures
                .push(format!("designer {} op {i}: {e}", mix.designer)),
        }
    }
    result
}

/// Runs `ops` from the base journal's recovered state, one call at a
/// time, twice:
/// - through an in-process twin session with the live journal policy,
///   timing `SessionHandle::submit`. Both designers subscribe in-process
///   (the server's default inbox capacity) and drain their inboxes after
///   every operation, so the Notification Manager's fanout runs too;
/// - through a twin DPM, timing its own journal writer's `append` and
///   `sync` (one sync per 8 appends) and the wire codec on each op's
///   `submit` request and `executed` reply.
fn trace_layers(
    base: &Path,
    dir: &Path,
    ops: &[Operation],
    client_p50_us: f64,
    out: &mut Outcome,
) -> Result<(), BoxError> {
    let (mut twin, writer, _) = resume(
        base,
        &dir.join("twin-session.journal"),
        FsyncPolicy::EveryN(FSYNC_EVERY),
        &mut Samples::default(),
    )?;
    // Recovery leaves the replayed operations' notifications pending, and
    // the session's first fanout would route all of them into the fresh
    // inboxes at once (the program does the same after `adpm serve`
    // restarts). They are taken here, counted in a note, so the zero-drop
    // check covers the stream's own events.
    let stale: usize = twin
        .designers()
        .to_vec()
        .into_iter()
        .map(|d| twin.take_notifications(d).len())
        .sum();
    out.notes
        .push(format!("{stale} notifications left pending by recovery"));
    let interests: Vec<(DesignerId, InterestSet)> = CLIENTS
        .iter()
        .map(|(d, _)| {
            let designer = DesignerId::new(*d);
            (designer, InterestSet::for_designer(&twin, designer))
        })
        .collect();
    let engine = SessionEngine::spawn_with(
        twin,
        SessionOptions {
            journal: Some(writer),
            ..SessionOptions::default()
        },
    );
    let handle = engine.handle();
    let mut inboxes = Vec::new();
    for (designer, interest) in interests {
        inboxes.push(
            handle
                .subscribe(designer, interest, DEFAULT_INBOX_CAPACITY)
                .map_err(|_| "the twin session closed early")?,
        );
    }
    let mut session = Samples::default();
    let mut records = Vec::with_capacity(ops.len());
    let mut delivered = 0;
    for (i, op) in ops.iter().enumerate() {
        match session.time(|| handle.submit(op.clone())) {
            Ok(OpOutcome::Executed(record)) => records.push(record),
            other => {
                out.check(false, || format!("twin session op {i}: {other:?}"));
                break;
            }
        }
        delivered += inboxes
            .iter()
            .map(|inbox| inbox.drain().len())
            .sum::<usize>();
    }
    drop(handle);
    engine.shutdown();
    let dropped: u64 = inboxes.iter().map(Inbox::dropped).sum();
    out.check(dropped == 0, || {
        format!("{dropped} events dropped from the twin session's inboxes")
    });

    let writer_path = dir.join("twin-writer.journal");
    let (mut dpm, mut writer, _) = resume(
        base,
        &writer_path,
        FsyncPolicy::Never,
        &mut Samples::default(),
    )?;
    let journal_start = std::fs::metadata(&writer_path)?.len();
    let names = Names::new(&dpm);
    let (mut append, mut sync) = (Samples::default(), Samples::default());
    let (mut encode, mut decode) = (Samples::default(), Samples::default());
    let mut wire_bytes = 0usize;
    let mut failures = Vec::new();
    for (i, (op, expected)) in ops.iter().zip(&records).enumerate() {
        let record = match dpm.execute(op.clone()) {
            Ok(record) => record,
            Err(e) => {
                failures.push(format!("twin op {i} failed: {e}"));
                break;
            }
        };
        if (record.evaluations, record.violations_after)
            != (expected.evaluations, expected.violations_after)
        {
            failures.push(format!("twin op {i} diverged from the twin session"));
        }
        if append.time(|| writer.append(&record, &dpm)).is_err() {
            failures.push(format!("twin journal append {i} failed"));
        }
        if record.sequence % FSYNC_EVERY as usize == 0 && sync.time(|| writer.sync()).is_err() {
            failures.push(format!("twin journal sync {i} failed"));
        }
        for frame in names.frames(&record) {
            let line = encode.time(|| frame.to_line());
            wire_bytes += line.len();
            match decode.time(|| Frame::parse_line(line.trim_end())) {
                Ok(parsed) if parsed == frame => {}
                _ => failures.push(format!("op {i}: a wire frame did not round-trip")),
            }
        }
    }
    writer.sync()?;
    out.check(failures.is_empty(), || {
        format!("{} twin failures: {}", failures.len(), failures[0])
    });
    let journal_bytes = std::fs::metadata(&writer_path)?.len() - journal_start;
    let n = records.len().max(1) as f64;
    let m = &mut out.metrics;
    m.set("notify.events_per_op", delivered as f64 / n, "count");
    m.set("notify.dropped", dropped as f64, "count");
    m.set("session.submit_us.p50", session.p50_us(), "us");
    m.set("session.submit_us.p99", session.p99_us(), "us");
    m.set(
        "server.overhead_us.p50",
        client_p50_us - session.p50_us(),
        "us",
    );
    m.set("journal.append_us.p50", append.p50_us(), "us");
    m.set("journal.sync_us.p50", sync.p50_us(), "us");
    m.set("journal.bytes_per_op", journal_bytes as f64 / n, "B");
    m.set("wire.encode_us.p50", encode.p50_us(), "us");
    m.set("wire.decode_us.p50", decode.p50_us(), "us");
    m.set("wire.bytes_per_op", wire_bytes as f64 / n, "B");
    Ok(())
}

/// Id → name tables for rebuilding an operation's wire frames.
struct Names {
    problems: Vec<String>,
    properties: Vec<String>,
    constraints: Vec<String>,
}

impl Names {
    fn new(dpm: &DesignProcessManager) -> Self {
        let net = dpm.network();
        Names {
            problems: dpm
                .problems()
                .ids()
                .map(|p| dpm.problems().problem(p).name().to_owned())
                .collect(),
            properties: net
                .property_ids()
                .map(|p| format!("{}.{}", net.property(p).object(), net.property(p).name()))
                .collect(),
            constraints: net
                .constraint_ids()
                .map(|c| net.constraint(c).name().to_owned())
                .collect(),
        }
    }

    /// The `submit` request and `executed` reply a client exchanged for
    /// this operation.
    fn frames(&self, record: &OperationRecord) -> [Frame; 2] {
        let op = &record.operation;
        let problem = self.problems[op.problem().index()].clone();
        let wire = match op.operator() {
            Operator::Assign { property, value } => WireOp::Assign {
                problem,
                property: self.properties[property.index()].clone(),
                value: value.as_number().unwrap_or(0.0),
            },
            Operator::Unbind { property } => WireOp::Unbind {
                problem,
                property: self.properties[property.index()].clone(),
            },
            _ => WireOp::Verify {
                problem,
                constraints: String::new(),
            },
        };
        let cid = Some(record.sequence as u64);
        [
            Frame::Submit { op: wire, cid },
            Frame::Executed {
                seq: record.sequence as u64,
                evaluations: record.evaluations as u64,
                violations_after: record.violations_after as u32,
                new_violations: record
                    .new_violations
                    .iter()
                    .map(|c| self.constraints[c.index()].as_str())
                    .collect::<Vec<_>>()
                    .join(","),
                spin: record.spin,
                cid,
            },
        ]
    }
}

/// One designer's seeded assign/unbind/verify mix over the outputs of
/// their subproblem ([`VERIFY_SHARE`], [`UNBIND_SHARE`]): assigns anywhere
/// in `E_i`, unbinds of their own earlier assigns, and verifications of
/// the subproblem. The mix never looks at the design state, so a seed
/// fixes the whole stream.
struct OpMix {
    rng: StdRng,
    designer: u32,
    problem: ProblemId,
    problem_name: String,
    outputs: Vec<(PropertyId, String, Domain)>,
    bound: Vec<usize>,
}

enum MixOp {
    Assign(usize, f64),
    Unbind(usize),
    Verify,
}

impl OpMix {
    fn new(dpm: &DesignProcessManager, designer: u32, problem_name: &str, seed: u64) -> Self {
        let problem = dpm
            .problems()
            .ids()
            .find(|p| dpm.problems().problem(*p).name() == problem_name)
            .expect("sensing system has the subproblem");
        let net = dpm.network();
        let outputs = dpm
            .problems()
            .problem(problem)
            .outputs()
            .iter()
            .map(|p| {
                let prop = net.property(*p);
                (
                    *p,
                    format!("{}.{}", prop.object(), prop.name()),
                    prop.initial_domain().clone(),
                )
            })
            .collect();
        OpMix {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(u64::from(designer))),
            designer,
            problem,
            problem_name: problem_name.to_owned(),
            outputs,
            bound: Vec::new(),
        }
    }

    fn next(&mut self) -> MixOp {
        let r: f64 = self.rng.gen_range(0.0..1.0);
        if r < VERIFY_SHARE {
            return MixOp::Verify;
        }
        if r < VERIFY_SHARE + UNBIND_SHARE && !self.bound.is_empty() {
            let at = self.rng.gen_range(0..self.bound.len());
            return MixOp::Unbind(self.bound.swap_remove(at));
        }
        let i = self.rng.gen_range(0..self.outputs.len());
        let value = match self.outputs[i].2.candidates() {
            Some(values) => values[self.rng.gen_range(0..values.len())]
                .as_number()
                .expect("numeric set"),
            None => {
                let iv = self.outputs[i].2.enclosing_interval().expect("interval");
                self.rng.gen_range(iv.lo()..iv.hi())
            }
        };
        if !self.bound.contains(&i) {
            self.bound.push(i);
        }
        MixOp::Assign(i, value)
    }
}

impl MixOp {
    fn to_operation(&self, mix: &OpMix) -> Operation {
        let d = DesignerId::new(mix.designer);
        match self {
            MixOp::Assign(i, v) => {
                Operation::assign(d, mix.problem, mix.outputs[*i].0, Value::number(*v))
            }
            MixOp::Unbind(i) => Operation::unbind(d, mix.problem, mix.outputs[*i].0),
            MixOp::Verify => Operation::verify(d, mix.problem),
        }
    }

    fn to_wire(&self, mix: &OpMix) -> WireOp {
        let problem = mix.problem_name.clone();
        match self {
            MixOp::Assign(i, value) => WireOp::Assign {
                problem,
                property: mix.outputs[*i].1.clone(),
                value: *value,
            },
            MixOp::Unbind(i) => WireOp::Unbind {
                problem,
                property: mix.outputs[*i].1.clone(),
            },
            MixOp::Verify => WireOp::Verify {
                problem,
                constraints: String::new(),
            },
        }
    }
}
