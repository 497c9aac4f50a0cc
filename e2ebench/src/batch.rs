//! The two file-driven phases: `moche batch --stream` (1-D, the paper's
//! large-reference setting) and `moche batch2d --stream` (2-D points).
//!
//! Each phase writes its seeded inputs and takes the median time to the
//! first result line over launches on a one-window file (`setup`). It is
//! then timed in short segments spread across the run, each a launch over
//! the whole windows file read to its end. Every window of every segment
//! must agree exactly with the in-process explanation through the same
//! public functions the traced run times.

use crate::child::{Moche, Scratch};
use crate::report::Report;
use crate::rng::{Fnv, Rng};
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;
use moche_core::{
    BaseVector, ExplainEngine, ExplanationArena, MocheError, PreferenceList, ReferenceIndex,
    StreamMode, StreamingBatchExplainer,
};
use moche_multidim::{Explain2dEngine, Explanation2dArena, Point2, RankIndex2d, Stream2dExplainer};
use moche_sigproc::{SaliencyScratch, SpectralResidual};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const ALPHA: f64 = 0.05;
/// `--threads` of the binary under test (and of the traced pipeline
/// replay). One worker leaves the second core of a two-core box to the
/// harness and the kernel: four runs of one input on a shared host read
/// 218-263 windows/s at two workers and 124-128 at one.
const THREADS: usize = 1;
/// Threads of the untimed in-process oracle.
const ORACLE_THREADS: usize = 2;
/// Launches over the one-window file; a phase's `setup` is their median
/// time to the first result line.
const SETUP_LAUNCHES: usize = 5;
/// Points of a run at which each batch phase runs timed segments: before,
/// between and after the two serve phases.
pub const SLOTS: usize = 3;
/// Segments per slot.
pub const SEGMENTS_PER_SLOT: usize = 2;
const SEGMENTS: usize = SLOTS * SEGMENTS_PER_SLOT;
/// A segment running this many times its nominal length fails the run.
const SEGMENT_CAP: f64 = 10.0;
/// Windows replayed layer by layer in the traced run (per phase).
const TRACE_WINDOWS_1D: usize = 160;
const TRACE_WINDOWS_2D: usize = 60;

/// 1-D shape: the paper's setting, a large reference and a small window.
const N_REF: usize = 100_000;
const M: usize = 1_000;
const CONTAMINATION: f64 = 0.08;
/// 2-D shape.
const N_REF_2D: usize = 1_000;
const M_2D: usize = 150;
const CONTAMINATION_2D: f64 = 0.2;

/// What the binary (or the in-process oracle) said about one window.
#[derive(Debug, Clone, PartialEq)]
pub enum WindowOut {
    /// Selected test indices, most preferred first.
    Explained(Vec<usize>),
    /// Phase-1 size only.
    Size { k: usize, k_hat: usize },
    /// The window passes: nothing to explain (no CSV rows).
    Passing,
    /// A per-window error.
    Error(String),
}

/// Collects `moche batch[2d] --stream --format csv` output by window.
#[derive(Debug)]
struct CsvCollector {
    size_only: bool,
    out: Vec<WindowOut>,
    /// Highest window index seen on a row; rows must not go back below it.
    frontier: usize,
}

impl CsvCollector {
    fn new(windows: usize, size_only: bool) -> Self {
        Self { size_only, out: vec![WindowOut::Passing; windows], frontier: 0 }
    }

    /// Consumes one output line; returns whether it was a result row.
    fn line(&mut self, line: &str) -> Result<bool, String> {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with("window,") {
            return Ok(false);
        }
        if let Some(rest) = line.strip_prefix("# window ") {
            let (w, why) = rest.split_once(':').ok_or_else(|| format!("bad comment {line:?}"))?;
            let w: usize = w.trim().parse().map_err(|_| format!("bad comment {line:?}"))?;
            self.set_frontier(w)?;
            self.out[w] = WindowOut::Error(why.trim().to_string());
            return Ok(true);
        }
        if line.starts_with('#') {
            return Ok(false);
        }
        let mut fields = line.split(',');
        let mut next = || fields.next().ok_or_else(|| format!("short row {line:?}"));
        let w: usize = next()?.parse().map_err(|_| format!("bad row {line:?}"))?;
        let a: usize = next()?.parse().map_err(|_| format!("bad row {line:?}"))?;
        self.set_frontier(w)?;
        if self.size_only {
            let k_hat: usize = next()?.parse().map_err(|_| format!("bad row {line:?}"))?;
            self.out[w] = WindowOut::Size { k: a, k_hat };
        } else {
            match &mut self.out[w] {
                WindowOut::Explained(indices) => indices.push(a),
                slot => *slot = WindowOut::Explained(vec![a]),
            }
        }
        Ok(true)
    }

    fn set_frontier(&mut self, w: usize) -> Result<(), String> {
        if w >= self.out.len() {
            return Err(format!("row for window {w} beyond the {} windows sent", self.out.len()));
        }
        if w < self.frontier {
            return Err(format!("window {w} delivered after window {}", self.frontier));
        }
        self.frontier = w;
        Ok(())
    }
}

/// Seconds from launch to the first result line of a run of `args` over
/// a one-window file. Such a run's output is flushed only when it exits,
/// so this is the time to load the reference, build its index and answer
/// one window, free of stdout's 8 KiB buffering.
fn time_to_first_result(ctx: &Ctx, args: &[String], size_only: bool) -> Result<f64, String> {
    let mut moche = Moche::spawn(&ctx.moche, args, None)?;
    let stdout = moche.take_stdout().ok_or("no stdout pipe")?;
    let mut collector = CsvCollector::new(1, size_only);
    let mut first = None;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read moche: {e}"))?;
        if collector.line(&line)? && first.is_none() {
            first = Some(moche.launched.elapsed().as_secs_f64());
        }
    }
    let status = moche.wait_for_exit(Duration::from_secs(10))?;
    if !status.success() {
        return Err(format!("moche exited with {status}"));
    }
    first.ok_or_else(|| "setup launch produced no result line".to_string())
}

/// A batch phase's timing. The host's speed drifts over seconds, so the
/// phase is timed in short segments spread across the run (see
/// [`SLOTS`]) rather than in one block. Each segment launches the binary
/// over the whole windows file and times it from launch to the end of its
/// output, which holds every window: stdout's 8 KiB buffering cannot blur
/// the count. The rate is the median over the segments.
pub struct Timing {
    phase: &'static str,
    args: Vec<String>,
    windows: usize,
    size_only: bool,
    /// Nominal length of one segment.
    seconds: f64,
    setups: Vec<f64>,
    /// `(windows per second, seconds)` of each segment.
    segments: Vec<(f64, f64)>,
    peak_kib: u64,
    /// Each segment's output, by window.
    outputs: Vec<Vec<WindowOut>>,
}

impl Timing {
    /// Takes the phase's setup: the median over [`SETUP_LAUNCHES`] runs of
    /// `setup_args`. `size_only`: whether the binary prints Phase-1 sizes.
    fn new(
        ctx: &Ctx,
        phase: &'static str,
        (setup_args, args): (&[String], Vec<String>),
        size_only: bool,
        windows: usize,
        seconds: f64,
    ) -> Result<Self, String> {
        let setups = (0..SETUP_LAUNCHES)
            .map(|_| time_to_first_result(ctx, setup_args, size_only))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            phase,
            args,
            windows,
            size_only,
            seconds,
            setups,
            segments: Vec::new(),
            peak_kib: 0,
            outputs: Vec::new(),
        })
    }

    /// Runs one timed segment.
    pub fn segment(&mut self, ctx: &Ctx) -> Result<(), String> {
        let mut moche = Moche::spawn(&ctx.moche, &self.args, None)?;
        let stdout = moche.take_stdout().ok_or("no stdout pipe")?;
        let pid = moche.id();
        let cap = SEGMENT_CAP * self.seconds;
        let mut collector = CsvCollector::new(self.windows, self.size_only);
        let reading = AtomicBool::new(true);
        let (read, peak_kib) = std::thread::scope(|s| {
            // VmHWM is polled beside the read: a short run writes all its
            // output at exit, when `/proc` no longer shows it.
            let sampler = s.spawn(|| {
                let mut peak = 0u64;
                while reading.load(Ordering::SeqCst) {
                    peak = peak.max(crate::child::vm_hwm_kib(pid).unwrap_or(0));
                    std::thread::sleep(Duration::from_millis(20));
                }
                peak
            });
            let read = (|| -> Result<f64, String> {
                let mut reader = BufReader::new(stdout);
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line).map_err(|e| format!("read moche: {e}"))? == 0 {
                        return Ok(moche.launched.elapsed().as_secs_f64());
                    }
                    collector.line(&line)?;
                    if moche.launched.elapsed().as_secs_f64() > cap {
                        return Err(format!("a segment ran past {cap:.1} s"));
                    }
                }
            })();
            reading.store(false, Ordering::SeqCst);
            (read, sampler.join().unwrap_or(0))
        });
        let elapsed = read?;
        let status = moche.wait_for_exit(Duration::from_secs(10))?;
        if !status.success() {
            return Err(format!("moche exited with {status}"));
        }
        self.peak_kib = self.peak_kib.max(peak_kib);
        self.segments.push((self.windows as f64 / elapsed, elapsed));
        self.outputs.push(collector.out);
        Ok(())
    }

    /// Prints the setup and reports the rate, the peak memory and the
    /// error share; returns the setup.
    fn report(&self, report: &mut Report) -> Result<f64, String> {
        let phase = self.phase;
        if self.segments.is_empty() {
            return Err(format!("{phase}: no timed segment ran"));
        }
        let setup = stats::median(&self.setups);
        println!(
            "[{phase}] setup (launch -> first result line, one-window file) over {} launches: \
             {:.4?} s -> median {setup:.4} s",
            self.setups.len(),
            self.setups
        );
        let rates: Vec<f64> = self.segments.iter().map(|s| s.0).collect();
        let seconds: f64 = self.segments.iter().map(|s| s.1).sum();
        report.metric(
            format!("{phase}.windows_per_s"),
            stats::median(&rates),
            "1/s",
            &format!(
                "median of {} segments of {} windows {:.1?}; {seconds:.2} s timed in all",
                rates.len(),
                self.windows,
                rates
            ),
        );
        report.metric(
            format!("{phase}.peak_rss_mb"),
            self.peak_kib as f64 / 1024.0,
            "MiB",
            "VmHWM",
        );
        let errors =
            self.outputs.iter().flatten().filter(|o| matches!(o, WindowOut::Error(_))).count();
        report.operations(phase, (self.windows * self.outputs.len()) as u64, errors as u64);
        Ok(setup)
    }

    /// Checks every segment's output against the oracle's.
    fn compare(&self, report: &mut Report, want: &[WindowOut]) {
        for (k, got) in self.outputs.iter().enumerate() {
            compare(report, &format!("{} segment {k}", self.phase), got, want);
        }
    }
}

fn write_file(path: &Path, text: &str, hash: &mut Fnv) -> Result<(), String> {
    hash.update(text.as_bytes());
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Distinct random positions in `0..m` (partial Fisher–Yates).
fn positions(rng: &mut Rng, m: usize, count: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..m).collect();
    for i in 0..count.min(m) {
        let j = i + rng.below(m - i);
        all.swap(i, j);
    }
    all.truncate(count.min(m));
    all
}

// ------------------------------------------------------------------ 1-D

/// The seeded 1-D inputs: a shared reference and `count` windows, each
/// with 8% of its points drawn from a shifted distribution (every window
/// fails the KS test).
pub struct Inputs1d {
    pub reference: Vec<f64>,
    pub windows: Vec<Vec<f64>>,
    pub ref_path: PathBuf,
    pub win_path: PathBuf,
    /// A windows file holding the first window alone, for the setup launches.
    pub setup_path: PathBuf,
    /// Byte length of each windows-file line.
    pub line_bytes: Vec<usize>,
    pub ref_bytes: usize,
    pub hash: u64,
}

pub fn gen_1d(seed: u64, count: usize, dir: &Path) -> Result<Inputs1d, String> {
    let mut rng = Rng::derive(seed, "batch-explain.reference");
    let reference: Vec<f64> = (0..N_REF).map(|_| rng.reading(0.0, 1.0)).collect();
    let mut rng = Rng::derive(seed, "batch-explain.windows");
    let contaminated = (CONTAMINATION * M as f64).round() as usize;
    let windows: Vec<Vec<f64>> = (0..count)
        .map(|_| {
            let mut w: Vec<f64> = (0..M).map(|_| rng.reading(0.0, 1.0)).collect();
            for p in positions(&mut rng, M, contaminated) {
                w[p] = rng.reading(3.5, 0.5);
            }
            w
        })
        .collect();
    let mut hash = Fnv::default();
    let mut text = String::with_capacity(N_REF * 8);
    for v in &reference {
        let _ = writeln!(text, "{v}");
    }
    let ref_path = dir.join("batch-ref.txt");
    let ref_bytes = text.len();
    write_file(&ref_path, &text, &mut hash)?;
    text.clear();
    let mut line_bytes = Vec::with_capacity(count);
    for w in &windows {
        let before = text.len();
        for (i, v) in w.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            let _ = write!(text, "{v}");
        }
        text.push('\n');
        line_bytes.push(text.len() - before);
    }
    let win_path = dir.join("batch-windows.csv");
    write_file(&win_path, &text, &mut hash)?;
    let setup_path = dir.join("batch-setup.csv");
    write_file(&setup_path, &text[..line_bytes[0]], &mut Fnv::default())?;
    Ok(Inputs1d {
        reference,
        windows,
        ref_path,
        win_path,
        setup_path,
        line_bytes,
        ref_bytes,
        hash: hash.finish(),
    })
}

/// One window explained the way `moche batch --stream` does it, call by
/// public call: Spectral-Residual preference, then the indexed explain
/// (or Phase 1 alone). With tracing on, the splice and the Phase-1 size
/// search are also replayed on the same input so their time can be
/// subtracted from the enclosing call.
pub struct Layered1d {
    engine: ExplainEngine,
    arena: ExplanationArena,
    base: BaseVector,
    sort: Vec<f64>,
    sr: SpectralResidual,
    sr_scratch: SaliencyScratch,
    scores: Vec<f64>,
    pref: PreferenceList,
    pub counters: Counters1d,
}

/// Work counters summed over the traced windows (the paper's Fig. 6
/// quantities and the Phase-2 construction effort).
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters1d {
    pub theorem1_checks: u64,
    pub theorem2_checks: u64,
    pub k_minus_k_hat: u64,
    pub candidates_checked: u64,
    pub propagation_steps: u64,
}

impl Layered1d {
    pub fn new(sr: SpectralResidual) -> Result<Self, String> {
        Ok(Self {
            engine: ExplainEngine::new(ALPHA).map_err(|e| e.to_string())?,
            arena: ExplanationArena::new(),
            base: BaseVector::empty(),
            sort: Vec::new(),
            sr,
            sr_scratch: SaliencyScratch::new(),
            scores: Vec::new(),
            pref: PreferenceList::identity(0),
            counters: Counters1d::default(),
        })
    }

    /// Fills the preference the way the CLI and the fleet do: SR scores,
    /// descending; the identity order for windows too short to score.
    fn prefer(&mut self, t: &mut Tracer, window: &[f64]) -> Result<(), MocheError> {
        let Self { sr, sr_scratch, scores, pref, .. } = self;
        t.span("sigproc.sr", || {
            if window.len() >= 4 && window.iter().all(|v| v.is_finite()) {
                match sr.scores_into(window, sr_scratch, scores) {
                    Ok(()) => pref.fill_from_scores_desc(scores),
                    Err(_) => {
                        pref.fill_identity(window.len());
                        Ok(())
                    }
                }
            } else {
                pref.fill_identity(window.len());
                Ok(())
            }
        })
    }

    pub fn run<S: moche_core::RankSource + ?Sized>(
        &mut self,
        t: &mut Tracer,
        index: &S,
        window: &[f64],
        size_only: bool,
    ) -> WindowOut {
        if !size_only {
            if let Err(e) = self.prefer(t, window) {
                return WindowOut::Error(e.to_string());
            }
        }
        if t.enabled() || size_only {
            if t.enabled() {
                let Self { base, sort, .. } = self;
                let _ = t.span("core.ref_index.splice", || {
                    BaseVector::build_with_index_into_using(index, window, base, sort)
                });
            }
            let engine = &mut self.engine;
            let size = t.span("probe.size", || engine.size_with_index(index, window));
            if let Ok(s) = &size {
                self.counters.theorem1_checks += s.theorem1_checks as u64;
                self.counters.theorem2_checks += s.theorem2_checks as u64;
                self.counters.k_minus_k_hat += s.estimation_error() as u64;
            }
            if size_only {
                return match size {
                    Ok(s) => WindowOut::Size { k: s.k, k_hat: s.k_hat },
                    Err(MocheError::TestAlreadyPasses { .. }) => WindowOut::Passing,
                    Err(e) => WindowOut::Error(e.to_string()),
                };
            }
        }
        let Self { engine, arena, pref, .. } = self;
        let explained =
            t.span("probe.explain", || engine.explain_with_index_in(index, window, pref, arena));
        match explained {
            Ok(e) => {
                self.counters.candidates_checked += e.phase2.candidates_checked as u64;
                self.counters.propagation_steps += e.phase2.propagation_steps;
                let out = WindowOut::Explained(e.indices().to_vec());
                self.arena.recycle(e);
                out
            }
            Err(MocheError::TestAlreadyPasses { .. }) => WindowOut::Passing,
            Err(e) => WindowOut::Error(e.to_string()),
        }
    }
}

/// Runs the output oracle: `explain` over every window on
/// `ORACLE_THREADS` threads (untraced), each thread with its own state from `init`.
fn on_threads<W: Sync, S>(
    windows: &[W],
    init: impl Fn() -> Result<S, String> + Sync,
    explain: impl Fn(&mut S, &W) -> WindowOut + Sync,
) -> Result<Vec<WindowOut>, String> {
    let (init, explain) = (&init, &explain);
    let lanes: Vec<Vec<WindowOut>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ORACLE_THREADS)
            .map(|lane| {
                s.spawn(move || -> Result<Vec<WindowOut>, String> {
                    let mut state = init()?;
                    Ok(windows
                        .iter()
                        .skip(lane)
                        .step_by(ORACLE_THREADS)
                        .map(|w| explain(&mut state, w))
                        .collect())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "oracle thread panicked".to_string())?)
            .collect::<Result<_, _>>()
    })?;
    // Lane `l` holds windows l, l + ORACLE_THREADS, ...: interleave them back.
    let mut lanes: Vec<_> = lanes.into_iter().map(Vec::into_iter).collect();
    Ok((0..windows.len()).filter_map(|w| lanes[w % ORACLE_THREADS].next()).collect())
}

fn oracle_1d(
    index: &ReferenceIndex,
    windows: &[Vec<f64>],
    size_only: bool,
) -> Result<Vec<WindowOut>, String> {
    on_threads(
        windows,
        || Layered1d::new(SpectralResidual::default()),
        |layered, w| layered.run(&mut Tracer::new(false), index, w, size_only),
    )
}

fn compare(report: &mut Report, phase: &str, got: &[WindowOut], want: &[WindowOut]) {
    let mut shown = 0;
    let mut bad = 0;
    for (w, (g, e)) in got.iter().zip(want).enumerate() {
        if g != e {
            bad += 1;
            if shown < 3 {
                shown += 1;
                report.mismatch(format!("{phase} window {w}: moche {g:?}, in-process {e:?}"));
            }
        }
    }
    if bad > shown {
        report.mismatch(format!("{phase}: {bad} window(s) differ in total"));
    }
}

pub fn batch_args(ctx: &Ctx, sub: &str, reference: &Path, windows: &Path) -> Vec<String> {
    let mut args = vec![
        sub.to_string(),
        reference.display().to_string(),
        windows.display().to_string(),
        "--stream".into(),
        "--format".into(),
        "csv".into(),
        "--threads".into(),
        THREADS.to_string(),
    ];
    if ctx.size_only && sub == "batch" {
        args.push("--size-only".into());
    }
    args
}

/// Windows per segment, for `seconds` of work at the 1-thread `rate`.
fn segment_windows(rate: f64, seconds: f64) -> usize {
    (rate * seconds).ceil().max(8.0) as usize
}

/// The `batch-explain` phase: its inputs and timing.
pub struct Batch1d {
    inputs: Inputs1d,
    pub timing: Timing,
}

impl Batch1d {
    /// Writes the inputs and takes the setup.
    pub fn prepare(ctx: &Ctx, scratch: &Scratch) -> Result<Self, String> {
        const PHASE: &str = "batch-explain";
        let seconds = ctx.phase_seconds(6.0) / SEGMENTS as f64;
        let rate = if ctx.size_only { 500.0 } else { 270.0 };
        let count = segment_windows(rate, seconds);
        let inputs = gen_1d(ctx.seed, count, &scratch.dir)?;
        println!(
            "[{PHASE}] reference {N_REF} values, {count} windows x {M} ({}% contaminated), \
             {THREADS} thread(s){}, {SEGMENTS} segments; input hash {:016x}",
            CONTAMINATION * 100.0,
            if ctx.size_only { ", --size-only" } else { "" },
            inputs.hash
        );
        let args = batch_args(ctx, "batch", &inputs.ref_path, &inputs.win_path);
        let setup_args = batch_args(ctx, "batch", &inputs.ref_path, &inputs.setup_path);
        let timing = Timing::new(ctx, PHASE, (&setup_args, args), ctx.size_only, count, seconds)?;
        Ok(Self { inputs, timing })
    }

    /// Reports the timing, runs the traced replay if asked, and checks
    /// every segment's output. Returns the setup.
    pub fn finish(self, ctx: &Ctx, report: &mut Report) -> Result<f64, String> {
        let setup = self.timing.report(report)?;
        let index = ReferenceIndex::new(&self.inputs.reference).map_err(|e| e.to_string())?;
        if ctx.trace {
            trace_1d(ctx, report, &self.inputs, &index, self.timing.windows)?;
        }
        let want = oracle_1d(&index, &self.inputs.windows, ctx.size_only)?;
        self.timing.compare(report, &want);
        Ok(setup)
    }
}

/// The traced replay of `batch-explain`: file parsing, the index build,
/// SR, the splice, Phase 1 and Phase 2, each timed around its public call.
fn trace_1d(
    ctx: &Ctx,
    report: &mut Report,
    inputs: &Inputs1d,
    index: &ReferenceIndex,
    done: usize,
) -> Result<(), String> {
    const PHASE: &str = "batch-explain";
    let n = TRACE_WINDOWS_1D.min(done).max(1);
    let size_only = ctx.size_only;

    // Untraced twin: exactly what the oracle does, no spans, no replays.
    let untraced = {
        let start = Instant::now();
        let mut layered = Layered1d::new(SpectralResidual::default())?;
        let mut off = Tracer::new(false);
        for w in &inputs.windows[..n] {
            std::hint::black_box(layered.run(&mut off, index, w, size_only));
        }
        start.elapsed().as_secs_f64()
    };

    let mut t = Tracer::new(true);
    let start = Instant::now();
    let reference = t
        .span("cli.io.parse", || moche_cli::io::read_values(&inputs.ref_path))
        .map_err(|e| e.to_string())?;
    let built = t
        .span("core.ref_index.build", || ReferenceIndex::new(&reference))
        .map_err(|e| e.to_string())?;
    let (mut stream, _errors) =
        moche_cli::io::WindowStream::open(&inputs.win_path).map_err(|e| e.to_string())?;
    let mut layered = Layered1d::new(SpectralResidual::default())?;
    let mut window = Vec::new();
    for w in 0..n {
        if !t.span("cli.io.parse", || stream.fill(&mut window)) {
            return Err(format!("windows file ended at window {w}"));
        }
        let out = layered.run(&mut t, &built, &window, size_only);
        std::hint::black_box(out);
    }
    let traced = start.elapsed().as_secs_f64();
    let counters = layered.counters;

    // The pipeline layer: the same windows through the streaming engine on
    // THREADS workers, from memory (no parsing).
    let pipeline = {
        let streamer = StreamingBatchExplainer::new(ALPHA)
            .map_err(|e| e.to_string())?
            .threads(THREADS)
            .mode(if size_only { StreamMode::SizeOnly } else { StreamMode::Explain });
        let sr = SpectralResidual::default();
        let score = |_: usize, w: &[f64]| PreferenceList::from_scores_desc(&sr.scores(w));
        let mut next = 0usize;
        let windows = &inputs.windows[..n];
        let source = move |buf: &mut Vec<f64>| {
            let Some(w) = windows.get(next) else { return false };
            buf.clear();
            buf.extend_from_slice(w);
            next += 1;
            true
        };
        let start = Instant::now();
        let summary = streamer.explain_source(index, source, Some(&score), |r| {
            std::hint::black_box(r);
        });
        std::hint::black_box(summary);
        start.elapsed().as_secs_f64()
    };

    println!("  traced replay of {n} window(s):");
    for line in t.lines() {
        println!("    {line}");
    }
    let splice = t.seconds("core.ref_index.splice");
    let size = t.seconds("probe.size");
    let explain = t.seconds("probe.explain");
    let bytes = inputs.ref_bytes + inputs.line_bytes[..n].iter().sum::<usize>();
    report.metric(
        format!("{PHASE}.cli.io.parse_s"),
        t.seconds("cli.io.parse"),
        "s",
        "WindowStream::fill + read_values",
    );
    report.metric(
        format!("{PHASE}.cli.io.bytes"),
        bytes as f64,
        "bytes",
        "reference + traced windows",
    );
    let busy = t.seconds("sigproc.sr") + if size_only { size } else { explain };
    report.metric(
        format!("{PHASE}.core.streaming.busy_s"),
        busy,
        "s",
        "sum of per-window engine time (SR + explain) in the traced replay",
    );
    report.metric(
        format!("{PHASE}.core.streaming.wait_s"),
        pipeline * THREADS as f64 - busy,
        "s",
        &format!("StreamingBatchExplainer wall {pipeline:.4} s x {THREADS} threads - busy"),
    );
    report.metric(
        format!("{PHASE}.core.ref_index.build_s"),
        t.seconds("core.ref_index.build"),
        "s",
        "ReferenceIndex::new",
    );
    report.metric(
        format!("{PHASE}.core.ref_index.splice_s"),
        splice,
        "s",
        "build_with_index_into_using",
    );
    report.metric(
        format!("{PHASE}.core.phase1.s"),
        size - splice,
        "s",
        "size_with_index minus the splice on the same input",
    );
    report.metric(
        format!("{PHASE}.core.phase1.theorem1_checks"),
        counters.theorem1_checks as f64,
        "count",
        "",
    );
    report.metric(
        format!("{PHASE}.core.phase1.theorem2_checks"),
        counters.theorem2_checks as f64,
        "count",
        "",
    );
    report.metric(
        format!("{PHASE}.core.phase1.k_minus_k_hat"),
        counters.k_minus_k_hat as f64,
        "count",
        "sum of k - k_hat",
    );
    let phase2 = if size_only { 0.0 } else { explain - size };
    report.metric(
        format!("{PHASE}.core.phase2.s"),
        phase2,
        "s",
        "explain_with_index_in minus size_with_index on the same input",
    );
    report.metric(
        format!("{PHASE}.core.phase2.candidates_checked"),
        counters.candidates_checked as f64,
        "count",
        "",
    );
    report.metric(
        format!("{PHASE}.core.phase2.propagation_steps"),
        counters.propagation_steps as f64,
        "count",
        "",
    );
    report.metric(
        format!("{PHASE}.sigproc.sr.s"),
        t.seconds("sigproc.sr"),
        "s",
        "scores_into + preference fill",
    );
    crate::trace::self_check(
        report,
        PHASE,
        traced,
        untraced,
        &t,
        "replays: splice + probe.size spans",
    );
    Ok(())
}

// ------------------------------------------------------------------ 2-D

pub struct Inputs2d {
    pub reference: Vec<Point2>,
    pub windows: Vec<Vec<Point2>>,
    pub ref_path: PathBuf,
    pub win_path: PathBuf,
    pub setup_path: PathBuf,
    pub line_bytes: Vec<usize>,
    pub ref_bytes: usize,
    pub hash: u64,
}

fn point(rng: &mut Rng, mean: f64, sd: f64) -> Point2 {
    Point2::new(rng.reading(mean, sd), rng.reading(mean, sd))
}

pub fn gen_2d(seed: u64, count: usize, dir: &Path) -> Result<Inputs2d, String> {
    let mut rng = Rng::derive(seed, "batch2d-explain.reference");
    let reference: Vec<Point2> = (0..N_REF_2D).map(|_| point(&mut rng, 0.0, 1.0)).collect();
    let mut rng = Rng::derive(seed, "batch2d-explain.windows");
    let contaminated = (CONTAMINATION_2D * M_2D as f64).round() as usize;
    let windows: Vec<Vec<Point2>> = (0..count)
        .map(|_| {
            let mut w: Vec<Point2> = (0..M_2D).map(|_| point(&mut rng, 0.0, 1.0)).collect();
            for p in positions(&mut rng, M_2D, contaminated) {
                w[p] = point(&mut rng, 4.0, 0.3);
            }
            w
        })
        .collect();
    let mut hash = Fnv::default();
    let mut text = String::new();
    for p in &reference {
        let _ = writeln!(text, "{} {}", p.x, p.y);
    }
    let ref_path = dir.join("batch2d-ref.txt");
    let ref_bytes = text.len();
    write_file(&ref_path, &text, &mut hash)?;
    text.clear();
    let mut line_bytes = Vec::with_capacity(count);
    for w in &windows {
        let before = text.len();
        for (i, p) in w.iter().enumerate() {
            if i > 0 {
                text.push(' ');
            }
            let _ = write!(text, "{} {}", p.x, p.y);
        }
        text.push('\n');
        line_bytes.push(text.len() - before);
    }
    let win_path = dir.join("batch2d-windows.txt");
    write_file(&win_path, &text, &mut hash)?;
    let setup_path = dir.join("batch2d-setup.txt");
    write_file(&setup_path, &text[..line_bytes[0]], &mut Fnv::default())?;
    Ok(Inputs2d {
        reference,
        windows,
        ref_path,
        win_path,
        setup_path,
        line_bytes,
        ref_bytes,
        hash: hash.finish(),
    })
}

fn explain_2d(
    engine: &mut Explain2dEngine,
    arena: &mut Explanation2dArena,
    t: &mut Tracer,
    index: &RankIndex2d,
    window: &[Point2],
) -> WindowOut {
    match t.span("multidim.engine2d", || engine.explain_in(index, window, None, arena)) {
        Ok(e) => {
            let out = WindowOut::Explained(e.indices.clone());
            arena.recycle(e);
            out
        }
        Err(MocheError::TestAlreadyPasses { .. }) => WindowOut::Passing,
        Err(e) => WindowOut::Error(e.to_string()),
    }
}

fn oracle_2d(index: &RankIndex2d, windows: &[Vec<Point2>]) -> Result<Vec<WindowOut>, String> {
    on_threads(
        windows,
        || Ok((Explain2dEngine::new(ALPHA).map_err(|e| e.to_string())?, Explanation2dArena::new())),
        |(engine, arena), w| explain_2d(engine, arena, &mut Tracer::new(false), index, w),
    )
}

/// The `batch2d-explain` phase: its inputs and timing.
pub struct Batch2d {
    inputs: Inputs2d,
    pub timing: Timing,
}

impl Batch2d {
    /// Writes the inputs and takes the setup.
    pub fn prepare(ctx: &Ctx, scratch: &Scratch) -> Result<Self, String> {
        const PHASE: &str = "batch2d-explain";
        let seconds = ctx.phase_seconds(8.0) / SEGMENTS as f64;
        let count = segment_windows(20.0, seconds);
        let inputs = gen_2d(ctx.seed, count, &scratch.dir)?;
        println!(
            "[{PHASE}] reference {N_REF_2D} points, {count} windows x {M_2D} points ({}% \
             contaminated), {THREADS} thread(s), {SEGMENTS} segments; input hash {:016x}",
            CONTAMINATION_2D * 100.0,
            inputs.hash
        );
        let args = batch_args(ctx, "batch2d", &inputs.ref_path, &inputs.win_path);
        let setup_args = batch_args(ctx, "batch2d", &inputs.ref_path, &inputs.setup_path);
        let timing = Timing::new(ctx, PHASE, (&setup_args, args), false, count, seconds)?;
        Ok(Self { inputs, timing })
    }

    /// Reports the timing, runs the traced replay if asked, and checks
    /// every segment's output. Returns the setup.
    pub fn finish(self, ctx: &Ctx, report: &mut Report) -> Result<f64, String> {
        let setup = self.timing.report(report)?;
        let index = RankIndex2d::new(&self.inputs.reference).map_err(|e| e.to_string())?;
        if ctx.trace {
            trace_2d(report, &self.inputs, &index, self.timing.windows)?;
        }
        let want = oracle_2d(&index, &self.inputs.windows)?;
        self.timing.compare(report, &want);
        Ok(setup)
    }
}

fn trace_2d(
    report: &mut Report,
    inputs: &Inputs2d,
    index: &RankIndex2d,
    done: usize,
) -> Result<(), String> {
    const PHASE: &str = "batch2d-explain";
    let n = TRACE_WINDOWS_2D.min(done).max(1);
    let untraced = {
        let start = Instant::now();
        let mut engine = Explain2dEngine::new(ALPHA).map_err(|e| e.to_string())?;
        let mut arena = Explanation2dArena::new();
        let mut off = Tracer::new(false);
        for w in &inputs.windows[..n] {
            std::hint::black_box(explain_2d(&mut engine, &mut arena, &mut off, index, w));
        }
        start.elapsed().as_secs_f64()
    };
    let mut t = Tracer::new(true);
    let start = Instant::now();
    let reference = t
        .span("cli.io.parse", || moche_cli::io::read_points(&inputs.ref_path))
        .map_err(|e| e.to_string())?;
    let built = t
        .span("multidim.rank_index", || RankIndex2d::new(&reference))
        .map_err(|e| e.to_string())?;
    let (mut stream, _errors) =
        moche_cli::io::PointWindowStream::open(&inputs.win_path).map_err(|e| e.to_string())?;
    let mut engine = Explain2dEngine::new(ALPHA).map_err(|e| e.to_string())?;
    let mut arena = Explanation2dArena::new();
    let mut window = Vec::new();
    for w in 0..n {
        if !t.span("cli.io.parse", || stream.fill(&mut window)) {
            return Err(format!("2-D windows file ended at window {w}"));
        }
        std::hint::black_box(explain_2d(&mut engine, &mut arena, &mut t, &built, &window));
    }
    let traced = start.elapsed().as_secs_f64();

    // The 2-D pipeline, for the record of its wait time.
    let pipeline = {
        let streamer = Stream2dExplainer::new(ALPHA).map_err(|e| e.to_string())?.threads(THREADS);
        let mut next = 0usize;
        let windows = &inputs.windows[..n];
        let source = move |buf: &mut Vec<Point2>| {
            let Some(w) = windows.get(next) else { return false };
            buf.clear();
            buf.extend_from_slice(w);
            next += 1;
            true
        };
        let start = Instant::now();
        std::hint::black_box(streamer.explain_source(index, source, None, |r| {
            std::hint::black_box(r);
        }));
        start.elapsed().as_secs_f64()
    };
    println!("  traced replay of {n} window(s):");
    for line in t.lines() {
        println!("    {line}");
    }
    let bytes = inputs.ref_bytes + inputs.line_bytes[..n].iter().sum::<usize>();
    let busy = t.seconds("multidim.engine2d");
    report.metric(
        format!("{PHASE}.cli.io.parse_s"),
        t.seconds("cli.io.parse"),
        "s",
        "PointWindowStream::fill + read_points",
    );
    report.metric(
        format!("{PHASE}.cli.io.bytes"),
        bytes as f64,
        "bytes",
        "reference + traced windows",
    );
    report.metric(
        format!("{PHASE}.multidim.rank_index.s"),
        t.seconds("multidim.rank_index"),
        "s",
        "RankIndex2d::new",
    );
    report.metric(format!("{PHASE}.multidim.engine2d.s"), busy, "s", "Explain2dEngine::explain_in");
    report.metric(
        format!("{PHASE}.core.streaming.wait_s"),
        pipeline * THREADS as f64 - busy,
        "s",
        &format!("Stream2dExplainer wall {pipeline:.4} s x {THREADS} threads - busy"),
    );
    crate::trace::self_check(report, PHASE, traced, untraced, &t, "no replays");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_collector_groups_rows_and_tracks_completion() {
        let mut c = CsvCollector::new(4, false);
        for line in ["window,index,value", "# threads: 2", "0,5,1.5", "0,2,3.0", "1,7,2.0"] {
            c.line(line).unwrap();
        }
        assert_eq!(c.frontier, 1);
        c.line("# window 2: error: boom").unwrap();
        assert_eq!(c.frontier, 2);
        assert_eq!(c.out[0], WindowOut::Explained(vec![5, 2]));
        assert_eq!(c.out[2], WindowOut::Error("error: boom".into()));
        assert_eq!(c.out[3], WindowOut::Passing);
        assert!(c.line("1,3,0.0").is_err(), "out-of-order delivery is an error");
        let mut s = CsvCollector::new(2, true);
        s.line("0,12,9").unwrap();
        assert_eq!(s.out[0], WindowOut::Size { k: 12, k_hat: 9 });
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("../.bench_tmp/unit-gen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = gen_2d(11, 3, &dir).unwrap().hash;
        let b = gen_2d(11, 3, &dir).unwrap().hash;
        let c = gen_2d(12, 3, &dir).unwrap().hash;
        let d = gen_1d(11, 2, &dir).unwrap();
        let e = gen_1d(11, 2, &dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(d.hash, e.hash);
        assert_eq!(d.windows, e.windows);
    }
}
