//! End-to-end and per-layer benchmark of the ADPM workspace.
//!
//! ```text
//! perfbench --workload paper-study|scale-edit \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run prints a `# meta` header line (source revision, build
//! profile, core count, seed, workload parameters, input hash) and ends
//! with one JSON result line: `correct`, `attempted`, `failed`, and the
//! metrics, by name with units. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` re-runs the same work and replays its operation
//! stream through each layer's entry point for the per-layer metrics.
//! `--seconds` sizes the work (a fixed amount per second, chosen so one
//! run measures about that long on a 2-core machine); the work is fixed
//! by the arguments, never by a clock. Artifacts go under `out/` next to
//! this package's manifest. See README.md.

mod collab;
mod gen;
mod paper;
mod replay;
mod scale;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One run's arguments.
#[derive(Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// This run's artifact directory.
    pub out_dir: PathBuf,
}

/// What a workload hands back besides its outcome: the header fields it
/// alone knows.
#[derive(Debug, Default)]
pub struct RunInfo {
    pub params: String,
    pub input_hash: u64,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag}` takes a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match number()? {
                    0 => false,
                    1 => true,
                    _ => return Err("`--trace` takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing `--workload`")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = seed.ok_or("missing `--seed`")?;
    let seconds = seconds.ok_or("missing `--seconds`")?;
    if !(1..=600).contains(&seconds) {
        return Err("`--seconds` must be in 1..=600".into());
    }
    let trace = trace.unwrap_or(false);
    let out_dir = package_dir()
        .join("out")
        .join(format!("{workload}-seed{seed}-trace{}", u8::from(trace)));
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

const WORKLOADS: [&str; 2] = ["paper-study", "scale-edit"];

/// Shares of verify and unbind operations in every edit stream the
/// benchmark draws (`scale-edit` and the collaboration probe's clients);
/// the rest are assigns. This is the mix of the repository's
/// collaboration load generator, `bench_collab`'s `next_op`: 60 % assign,
/// 25 % unbind, 15 % verify. TeamSim offers none: its ADPM designers
/// only assign (they repair by re-assigning, and verify only in
/// conventional mode).
pub const VERIFY_SHARE: f64 = 0.15;
pub const UNBIND_SHARE: f64 = 0.25;

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("ok_share", "share"),
];

/// The per-layer metrics every traced run reports.
const PER_LAYER: [(&str, &str); 28] = [
    ("teamsim.self_us.p50", "us"),
    ("dddl.compile_ms", "ms"),
    ("dpm.initialize_ms", "ms"),
    ("dpm.execute_us.p50", "us"),
    ("dpm.execute_us.p99", "us"),
    ("dpm.self_us.p50", "us"),
    ("dcm.propagate_us.p50", "us"),
    ("dcm.propagate_us.p99", "us"),
    ("dcm.evals_per_op", "count"),
    ("dcm.narrowed_per_op", "count"),
    ("dcm.full_fallback_share", "count"),
    ("heuristics.mine_us.p50", "us"),
    ("wire.decode_us.p50", "us"),
    ("wire.encode_us.p50", "us"),
    ("wire.bytes_per_op", "B"),
    ("session.submit_us.p50", "us"),
    ("session.submit_us.p99", "us"),
    ("server.overhead_us.p50", "us"),
    ("notify.events_per_op", "count"),
    ("notify.dropped", "count"),
    ("journal.append_us.p50", "us"),
    ("journal.sync_us.p50", "us"),
    ("journal.bytes_per_op", "B"),
    ("journal.recover_ms", "ms"),
    ("journal.recover_us_per_op", "us"),
    ("trace.op_p50_us", "us"),
    ("trace.replayed_ops", "count"),
    ("trace.calibration_us", "us"),
];

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    let (info, mut outcome) = match args.workload.as_str() {
        "paper-study" => paper::run(&args),
        _ => scale::run(&args),
    };
    if args.trace && args.workload == "paper-study" {
        collab_probe(&args, &mut outcome);
    }
    if args.trace {
        // A layer the workload never enters did no work on it.
        for (name, unit) in PER_LAYER {
            if !outcome.metrics.contains(name) {
                outcome.metrics.set(name, 0.0, unit);
            }
        }
    } else {
        for (name, _) in END_TO_END {
            let missing = !outcome.metrics.contains(name);
            outcome.check(!missing, || format!("the run did not measure {name}"));
        }
    }
    let meta = meta_line(&args, &info);
    println!("# meta {meta}");
    for note in &outcome.notes {
        println!("# {note}");
    }
    for failure in &outcome.check_failures {
        println!("# check failed: {failure}");
    }
    let result = outcome.result_line();
    let _ = std::fs::write(args.out_dir.join("meta.json"), format!("{meta}\n"));
    let _ = std::fs::write(args.out_dir.join("result.json"), format!("{result}\n"));
    println!("{result}");
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The collaboration layers, measured inside `paper-study`'s traced run.
///
/// `collab-session` is not one of the benchmark's workloads: its tail
/// latency is the shared disk's fsync, which moved its p99 by up to 1.8×
/// between runs of the same code. Its layers (wire, session, server,
/// notify, journal) would then be measured on no workload, so the traced
/// `paper-study` run also runs a small, fixed collaboration session
/// ([`collab::probe`]) and takes those layers' metrics and checks from it.
fn collab_probe(args: &RunArgs, outcome: &mut stats::Outcome) {
    let dir = args.out_dir.join("collab-probe");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        outcome.check(false, || format!("collab probe: {e}"));
        return;
    }
    let collab = collab::probe(args.seed, &dir);
    for failure in collab.check_failures {
        outcome.check(false, || format!("collab probe: {failure}"));
    }
    for (name, unit) in PER_LAYER {
        if let Some(value) = collab.metrics.get(name) {
            outcome.metrics.set(name, value, unit);
        }
    }
    outcome.notes.extend(
        collab
            .notes
            .iter()
            .map(|note| format!("collab probe: {note}")),
    );
    outcome.notes.push(format!(
        "collab probe: {} submits, {} failed",
        collab.attempted, collab.failed
    ));
}

/// The run header: enough to tell whether two runs are comparable.
fn meta_line(args: &RunArgs, info: &RunInfo) -> String {
    let repo = package_dir().parent().unwrap_or(package_dir());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"git_rev\": \"{}\", \"source_hash\": \"{:016x}\", \"profile\": \"{profile}\", \
         \"nproc\": {nproc}, \"params\": \"{}\", \"input_hash\": \"{:016x}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(repo),
        source_hash(repo),
        info.params,
        info.input_hash
    )
}

/// `git rev-parse HEAD`, or `none` outside a git checkout. Git is only
/// asked when the repository root itself holds `.git`, so it never reads
/// an enclosing repository.
fn git_rev(repo: &Path) -> String {
    if !repo.join(".git").exists() {
        return "none".to_owned();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(repo)
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "none".to_owned(), |rev| rev.trim().to_owned())
}

/// Hash of the sources the benchmark builds: every file under `crates/`
/// and `vendor/`, and this package's `src/`, manifest and lock file.
/// Identifies the code where no git revision is available.
fn source_hash(repo: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor"] {
        collect_files(&repo.join(dir), &mut files);
    }
    collect_files(&package_dir().join("src"), &mut files);
    files.push(package_dir().join("Cargo.toml"));
    files.push(package_dir().join("Cargo.lock"));
    files.sort();
    files.iter().fold(0, |h, path| {
        let rel = path.strip_prefix(repo).unwrap_or(path);
        let h = stats::fnv1a(rel.to_string_lossy().as_bytes(), h);
        stats::fnv1a(&std::fs::read(path).unwrap_or_default(), h)
    })
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_every_reported_metric() {
        let path = package_dir().join("../BENCHMARK.json");
        let declared = std::fs::read_to_string(&path).expect("BENCHMARK.json next to the package");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(declared.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in ["paper-study", "scale-edit"] {
            assert!(declared.contains(&format!("\"name\": \"{workload}\"")));
        }
    }
}
