//! `e2ebench`: the end-to-end benchmark of the `moche` binary.
//!
//! ```text
//! e2ebench run --moche PATH --workload explain|size-only --seed N --seconds S --trace 0|1
//!              [--phases batch-explain,batch2d-explain,serve-ingest,serve-alarms]
//! e2ebench null-sink-check [--seed N] [--seconds S]
//! ```
//!
//! One run executes four phases against the real binary — `batch-explain`,
//! `batch2d-explain`, `serve-ingest`, `serve-alarms`, the batch phases timed
//! in segments before, between and after the serve phases — checks every
//! output against an in-process oracle, and prints each metric with its
//! unit. The last stdout line is the JSON result: with `--trace 0` the
//! end-to-end metrics declared in `BENCHMARK.json`, with `--trace 1` the
//! per-layer ones (the traced run replays the same inputs through each layer's
//! public functions, with spans around every call). See `README.md`.

mod batch;
mod child;
mod json;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// A workload: which explain mode every phase runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full explanations: SR preference, Phase 1 and Phase 2.
    Explain,
    /// `--size-only` wherever the binary offers it: Phase 1 alone.
    SizeOnly,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "explain" => Some(Workload::Explain),
            "size-only" => Some(Workload::SizeOnly),
            _ => None,
        }
    }
}

/// One run's settings.
pub struct Ctx {
    pub moche: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size_only: bool,
}

/// The `--seconds` the phase lengths below are written for (the value in
/// `BENCHMARK.json`); other values scale every phase alike.
pub const NOMINAL_SECONDS: f64 = 28.0;

impl Ctx {
    /// The timed length of a phase that measures `nominal` seconds in a
    /// run of [`NOMINAL_SECONDS`].
    pub fn phase_seconds(&self, nominal: f64) -> f64 {
        nominal * self.seconds / NOMINAL_SECONDS
    }
}

const USAGE: &str = "usage: e2ebench run --moche PATH --workload explain|size-only --seed N \
                     --seconds S --trace 0|1\n       e2ebench null-sink-check [--seed N] [--seconds S]";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn number<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flag(args, name) {
        Some(raw) => raw.parse().map_err(|_| format!("{name}: bad value {raw:?}")),
        None => default.ok_or_else(|| format!("{name} is required")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args),
        Some("null-sink-check") => (|| {
            let seed = number(&args, "--seed", Some(1))?;
            let seconds = number(&args, "--seconds", Some(4.0))?;
            serve::null_sink_check(seed, seconds).map(|ok| if ok { 0 } else { 1 })
        })(),
        Some("sink") => serve::run_sink().map(|()| 0),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(why) => {
            eprintln!("e2ebench: {why}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<u8, String> {
    let workload_name = flag(args, "--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(workload_name)
        .ok_or_else(|| format!("unknown workload {workload_name:?}"))?;
    let trace = match flag(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let ctx = Ctx {
        moche: PathBuf::from(flag(args, "--moche").ok_or("--moche is required")?),
        seed: number(args, "--seed", None)?,
        seconds: number(args, "--seconds", None)?,
        trace,
        size_only: workload == Workload::SizeOnly,
    };
    if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let spec_path = flag(args, "--spec").unwrap_or("BENCHMARK.json");
    let spec_text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("read {spec_path}: {e}"))?;
    let spec = report::parse_spec(&spec_text)?;
    if !spec.workloads.iter().any(|w| w == workload_name) {
        return Err(format!("workload {workload_name:?} is not declared in {spec_path}"));
    }
    println!(
        "e2ebench: workload {workload_name}, seed {}, {} s, trace {}, {} core(s) available",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    let scratch = child::Scratch::new("run")?;
    let mut report = report::Report::default();
    let started = std::time::Instant::now();
    // `--phases a,b` runs a subset (for tuning one phase); such a run
    // cannot fill the declared metrics, so it prints no result line.
    let only: Option<Vec<&str>> = flag(args, "--phases").map(|p| p.split(',').collect());
    const PHASES: [&str; 4] = ["batch-explain", "batch2d-explain", "serve-ingest", "serve-alarms"];
    if let Some(bad) = only.iter().flatten().find(|p| !PHASES.contains(p)) {
        return Err(format!("unknown phase {bad:?}"));
    }
    let wanted = |name: &str| only.as_ref().is_none_or(|o| o.contains(&name));
    let mut batch1d =
        if wanted(PHASES[0]) { Some(batch::Batch1d::prepare(&ctx, &scratch)?) } else { None };
    let mut batch2d =
        if wanted(PHASES[1]) { Some(batch::Batch2d::prepare(&ctx, &scratch)?) } else { None };
    type Phase = fn(&Ctx, &mut report::Report, &child::Scratch) -> Result<f64, String>;
    let serve_phases: [(&str, Phase); 2] =
        [(PHASES[2], serve::serve_ingest), (PHASES[3], serve::serve_alarms)];
    let mut setups = Vec::new();
    // The batch phases run their timed segments in slots before, between
    // and after the serve phases, so each samples the host at several
    // points of the run.
    for slot in 0..batch::SLOTS {
        let start = std::time::Instant::now();
        for _ in 0..batch::SEGMENTS_PER_SLOT {
            if let Some(b) = &mut batch1d {
                b.timing.segment(&ctx)?;
            }
            if let Some(b) = &mut batch2d {
                b.timing.segment(&ctx)?;
            }
        }
        if batch1d.is_some() || batch2d.is_some() {
            println!(
                "  (batch segments, slot {slot}, took {:.1} s)",
                start.elapsed().as_secs_f64()
            );
        }
        let Some(&(name, phase)) = serve_phases.get(slot) else { continue };
        if wanted(name) {
            let start = std::time::Instant::now();
            setups.push((name, phase(&ctx, &mut report, &scratch)?));
            println!("  ({name} took {:.1} s)", start.elapsed().as_secs_f64());
        }
    }
    if let Some(b) = batch1d {
        setups.push((PHASES[0], b.finish(&ctx, &mut report)?));
    }
    if let Some(b) = batch2d {
        setups.push((PHASES[1], b.finish(&ctx, &mut report)?));
    }
    let detail: Vec<String> = setups.iter().map(|(p, s)| format!("{p} {s:.4}")).collect();
    report.metric(
        "setup_s",
        setups.iter().map(|(_, s)| s).sum(),
        "s",
        &format!("sum over phases: {}", detail.join(", ")),
    );
    println!(
        "e2ebench: {} operation(s), {} failed (error share {:.6}); run took {:.1} s",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64,
        started.elapsed().as_secs_f64()
    );
    if !report.rejections.is_empty() {
        return Err(format!("run rejected: {}", report.rejections.join("; ")));
    }
    if !report.mismatches.is_empty() {
        println!("e2ebench: OUTPUT ORACLE FAILED ({} mismatch(es))", report.mismatches.len());
    }
    if only.is_some() {
        println!("e2ebench: --phases given; no result line");
        return Ok(0);
    }
    let declared = if ctx.trace { &spec.per_layer } else { &spec.end_to_end };
    println!("{}", report.result_line(declared)?);
    Ok(0)
}
