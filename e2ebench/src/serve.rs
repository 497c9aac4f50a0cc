//! The two daemon phases, driven over a real TCP socket from this (the
//! generator) process: `serve-ingest` (many quiet series: frame decode,
//! ring hand-off, window slides) and `serve-alarms` (fewer series with
//! staggered regime shifts: the deferred explain queue and checkpoints).
//!
//! The generator owns at most two threads and two connections. Every
//! observation and query is stamped with the time it was due, latencies
//! run from that time, and the generator's own lateness is reported.

use crate::batch::{self, Layered1d, WindowOut};
use crate::child::{Moche, Scratch};
use crate::report::Report;
use crate::rng::{Fnv, Rng};
use crate::stats;
use crate::trace::Tracer;
use crate::Ctx;
use moche_cli::protocol::{self, op, Assembled, FrameAssembler, Request};
use moche_core::ReferenceIndex;
use moche_stream::{shard_of, FleetConfig, FleetPush, FleetShard, MonitorConfig, MonitorFleet};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const ALPHA: f64 = 0.05;
const FRAME: usize = 21;
/// Bulk writes are whole frames.
const CHUNK_FRAMES: usize = 3120;
/// The daemon's read size, which the traced decode replays.
const READ_CHUNK: usize = 4096;
/// The daemon's default per-shard explain queue bound.
const EXPLAIN_QUEUE: usize = 64;
/// Tickets a shard worker answers per 25 ms idle timeout.
const DRAIN_BUDGET: usize = 8;
/// A run whose generator starts a send later than this past its due time
/// is rejected: its latencies would describe the generator, not moche.
const LATE_BOUND_MS: f64 = 50.0;

// serve-ingest shape.
const INGEST_SERIES: usize = 10_000;
const INGEST_W: usize = 64;
/// Shard workers. The closed phase saturates the daemon: with one worker,
/// its connection handler and the generator fit the two cores, and the
/// slices of one run agree within ~5%; with two they spread by ~2x.
const INGEST_WORKERS: usize = 1;
/// About half of what one worker applies at saturation.
const INGEST_RATE: f64 = 60_000.0;
/// Query spacing. Each reply waits for the client's next packet to carry
/// the ACK its second write needs (see README, "Floors"), so a query's
/// latency reads about one spacing; a reply that also waited in the ring
/// longer than a spacing reads two. 8 ms keeps that second case rare.
const QUERY_EVERY: Duration = Duration::from_millis(8);
/// Slices of the closed phase whose median rate is reported.
const CLOSED_SLICES: usize = 8;
/// How often the closed phase samples STATUS `accepted`.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);
/// Upper bound on the closed phase's ingest rate, for sizing its buffer.
const INGEST_MAX_RATE: f64 = 300_000.0;

// serve-alarms shape.
/// Shard workers: the series split evenly across two shards.
const ALARM_WORKERS: usize = 2;
const ALARM_SERIES: usize = 256;
const ALARM_W: usize = 256;
const TICK: Duration = Duration::from_millis(100);
const PER_TICK: usize = 24;
/// Pushes between regime shifts of one series (> 2w + detection delay, so
/// every shift is met by a warmed series).
const PERIOD: u64 = 576;
/// Shift size in standard deviations. The regimes barely overlap, so each
/// shift is detected a fixed number of pushes after it happens (~31 at
/// w = 256) and every tick brings each shard a steady number of alarms.
const SHIFT: f64 = 8.0;
const CHECKPOINT_EVERY: u64 = 16_384;

/// Distinct seeded series ids.
fn series_ids(seed: u64, tag: &str, n: usize) -> Vec<u64> {
    let mut rng = Rng::derive(seed, tag);
    let mut seen = BTreeSet::new();
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id = rng.next_u64() >> 16;
        if seen.insert(id) {
            ids.push(id);
        }
    }
    ids
}

fn push_frame(bytes: &mut Vec<u8>, sent: &mut Vec<(u64, f64)>, series: u64, value: f64) {
    bytes.extend_from_slice(&protocol::encode_obs(series, value));
    sent.push((series, value));
}

fn serve_args(ctx: &Ctx, window: usize, workers: usize, extra: &[String]) -> Vec<String> {
    let mut args: Vec<String> = [
        "serve",
        "--listen",
        "127.0.0.1:0",
        "--window",
        &window.to_string(),
        "--workers",
        &workers.to_string(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if ctx.size_only {
        args.push("--size-only".into());
    }
    args.extend_from_slice(extra);
    args
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let conn = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    conn.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    Ok(conn)
}

/// Extracts `"key":N` from a flat JSON reply body.
fn json_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    body[at..].chars().take_while(char::is_ascii_digit).collect::<String>().parse().ok()
}

fn round_trip(conn: &mut TcpStream, frame: &[u8], want: u8) -> Result<String, String> {
    conn.write_all(frame).map_err(|e| format!("send: {e}"))?;
    let (opcode, body) = protocol::read_reply(conn).map_err(|e| format!("reply: {e}"))?;
    let body = String::from_utf8_lossy(&body).into_owned();
    if opcode != want | op::REPLY {
        return Err(format!("reply opcode {opcode:#04x}: {body}"));
    }
    Ok(body)
}

/// A write barrier on `conn`: one `SERIES` query per shard (routed with
/// `shard_of`), pipelined. Queries ride the same rings as observations, so
/// the replies prove every earlier observation on this connection applied.
fn barrier(conn: &mut TcpStream, ids: &[u64], workers: usize) -> Result<(), String> {
    let mut frames = Vec::new();
    for shard in 0..workers {
        let id = ids
            .iter()
            .copied()
            .find(|&id| shard_of(id, workers) == shard)
            .ok_or("no series routes to a shard")?;
        frames.extend_from_slice(&protocol::encode_series(id));
    }
    conn.write_all(&frames).map_err(|e| format!("barrier send: {e}"))?;
    for _ in 0..workers {
        let (opcode, body) = protocol::read_reply(conn).map_err(|e| format!("barrier: {e}"))?;
        let body = String::from_utf8_lossy(&body);
        if opcode != op::SERIES | op::REPLY || !body.contains("\"found\":true") {
            return Err(format!("barrier reply {opcode:#04x}: {body}"));
        }
    }
    Ok(())
}

fn write_chunks(conn: &mut TcpStream, bytes: &[u8]) -> Result<(), String> {
    for chunk in bytes.chunks(CHUNK_FRAMES * FRAME) {
        conn.write_all(chunk).map_err(|e| format!("send: {e}"))?;
    }
    Ok(())
}

/// Sends `frames` open-loop at `rate` frames/s from `t0`. Returns the
/// generator's maximum lateness: how long past its due time a frame's
/// send started.
fn open_loop(conn: &mut TcpStream, frames: &[u8], rate: f64, t0: Instant) -> Result<f64, String> {
    let n = frames.len() / FRAME;
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let mut sent = 0;
    let mut late_max = 0.0f64;
    while sent < n {
        let now = Instant::now();
        if now < due(sent) {
            std::thread::sleep((due(sent) - now).min(Duration::from_micros(500)));
            continue;
        }
        let due_count = ((now - t0).as_secs_f64() * rate).floor() as usize + 1;
        let upto = due_count.clamp(sent + 1, n).min(sent + CHUNK_FRAMES);
        late_max = late_max.max(now.duration_since(due(sent)).as_secs_f64() * 1e3);
        conn.write_all(&frames[sent * FRAME..upto * FRAME]).map_err(|e| format!("send: {e}"))?;
        sent = upto;
    }
    Ok(late_max)
}

/// The serve-ingest open loop: `OBS` at `INGEST_RATE` on `conn` from
/// `t0`, with `SERIES` queries beside them on `qconn` (the generator's two
/// threads). Returns the `OBS` lateness and the queries' outcome.
fn open_phase(
    conn: &mut TcpStream,
    qconn: &mut TcpStream,
    inputs: &IngestInputs,
    t0: Instant,
) -> Result<(f64, Queries), String> {
    let (obs_late, queries) = std::thread::scope(|s| {
        let q = s.spawn(|| query_loop(qconn, &inputs.queries, t0 + QUERY_EVERY / 2));
        let obs = open_loop(conn, &inputs.open, INGEST_RATE, t0);
        (obs, q.join().map_err(|_| "query thread panicked".to_string()))
    });
    Ok((obs_late?, queries??))
}

/// Writes tick `k`'s burst at `t0 + k * TICK`, calling `after(k)` once it
/// is sent. Returns how late a tick's send started and how late a tick's
/// write ended, at most, in ms.
fn send_ticks(
    conn: &mut TcpStream,
    ticks: &[Vec<u8>],
    t0: Instant,
    mut after: impl FnMut(usize),
) -> Result<(f64, f64), String> {
    let (mut late_max, mut write_max) = (0.0f64, 0.0f64);
    for (k, tick) in ticks.iter().enumerate() {
        let due = t0 + TICK * k as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        late_max = late_max.max((Instant::now() - due).as_secs_f64() * 1e3);
        conn.write_all(tick).map_err(|e| format!("send: {e}"))?;
        write_max = write_max.max((Instant::now() - due).as_secs_f64() * 1e3);
        after(k);
    }
    Ok((late_max, write_max))
}

/// One open-loop query stream's outcome.
#[derive(Debug, Default)]
struct Queries {
    latencies_ms: Vec<f64>,
    late_max_ms: f64,
    sent: u64,
    failed: u64,
}

/// Sends `SERIES` queries for `ids` every `QUERY_EVERY` from `t0` on
/// `conn`, reading replies in between; each latency runs from the query's
/// due time to its reply. The socket is polled without blocking between
/// short sleeps: a socket read timeout rounds up to the kernel tick (up to
/// 10 ms), which would make the generator late by that much.
fn query_loop(conn: &mut TcpStream, ids: &[u64], t0: Instant) -> Result<Queries, String> {
    conn.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
    let out = query_loop_polled(conn, ids, t0);
    conn.set_nonblocking(false).map_err(|e| format!("blocking: {e}"))?;
    out
}

/// How long the query loop sleeps between polls (the reply-time
/// resolution).
const POLL: Duration = Duration::from_micros(100);

fn query_loop_polled(conn: &mut TcpStream, ids: &[u64], t0: Instant) -> Result<Queries, String> {
    let due = |i: usize| t0 + QUERY_EVERY * i as u32;
    let mut out = Queries::default();
    let mut outstanding: VecDeque<Instant> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 4096];
    let mut next = 0;
    let give_up = due(ids.len()) + Duration::from_secs(3);
    loop {
        let now = Instant::now();
        if next < ids.len() && now >= due(next) {
            out.late_max_ms = out.late_max_ms.max((now - due(next)).as_secs_f64() * 1e3);
            let frame = protocol::encode_series(ids[next]);
            let mut sent = 0;
            while sent < frame.len() {
                match conn.write(&frame[sent..]) {
                    Ok(n) => sent += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(POLL)
                    }
                    Err(e) => return Err(format!("query: {e}")),
                }
            }
            outstanding.push_back(due(next));
            out.sent += 1;
            next += 1;
            continue;
        }
        if next >= ids.len() && outstanding.is_empty() {
            return Ok(out);
        }
        if next >= ids.len() && now >= give_up {
            // Every query is sent and the rest never answered.
            out.failed += outstanding.len() as u64;
            return Ok(out);
        }
        match conn.read(&mut tmp) {
            Ok(0) => return Err("query connection closed".into()),
            Ok(n) => {
                let at = Instant::now();
                buf.extend_from_slice(&tmp[..n]);
                while buf.len() >= 4 {
                    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
                    if buf.len() < 4 + len || len == 0 {
                        break;
                    }
                    let opcode = buf[4];
                    let ok = opcode == op::SERIES | op::REPLY
                        && buf[5..4 + len].windows(12).any(|w| w == b"\"found\":true");
                    buf.drain(..4 + len);
                    let Some(due) = outstanding.pop_front() else {
                        return Err("reply without a query".into());
                    };
                    if ok {
                        out.latencies_ms.push((at - due).as_secs_f64() * 1e3);
                    } else {
                        out.failed += 1;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let wake = if next < ids.len() { due(next) } else { give_up };
                std::thread::sleep(wake.saturating_duration_since(Instant::now()).min(POLL));
            }
            Err(e) => return Err(format!("query read: {e}")),
        }
    }
}

/// One parsed daemon log line.
#[derive(Debug, Clone, PartialEq)]
enum LogLine {
    Listening(String),
    Alarm {
        series: u64,
        push: u64,
        shed: bool,
    },
    Explain {
        series: u64,
        push: u64,
        k: Option<usize>,
        k_hat: Option<usize>,
    },
    Checkpoint {
        failed: bool,
    },
    /// Anything that reports a failed or refused operation.
    Trouble(String),
    Other,
}

fn field<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    line.split_whitespace().find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

fn parse_line(line: &str) -> LogLine {
    let line = line.trim_end();
    if let Some(addr) = line.strip_prefix("moche serve: listening on ") {
        return LogLine::Listening(addr.trim().to_string());
    }
    if line.starts_with("ALARM ") {
        if let (Some(series), Some(push)) = (field(line, "series"), field(line, "push")) {
            return LogLine::Alarm { series, push, shed: line.contains("explain=shed") };
        }
    }
    if line.starts_with("EXPLAIN ") {
        if let (Some(series), Some(push)) = (field(line, "series"), field(line, "push")) {
            return LogLine::Explain {
                series,
                push,
                k: field(line, "k"),
                k_hat: field(line, "k_hat"),
            };
        }
    }
    if line.starts_with("CHECKPOINT ") {
        return LogLine::Checkpoint { failed: line.contains("FAILED") };
    }
    const TROUBLE: [&str; 8] = [
        "PANIC",
        "SKIP",
        "REJECT",
        "BUSY",
        "CLOSE",
        "CONNECTION",
        "ACCEPT",
        "moche serve: WARNING",
    ];
    if TROUBLE.iter().any(|t| line.starts_with(t)) {
        return LogLine::Trouble(line.to_string());
    }
    LogLine::Other
}

/// Waits for the daemon's startup line in its log file.
fn listening_from_file(path: &Path, moche: &mut Moche) -> Result<String, String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Some(addr) = text.lines().find_map(|l| match parse_line(l) {
                LogLine::Listening(a) => Some(a),
                _ => None,
            }) {
                return Ok(addr);
            }
        }
        if let Some(status) = moche.exited() {
            return Err(format!("moche serve exited early with {status}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err("moche serve never printed its listening line".into())
}

/// The in-process oracle's view of a stream: which `(series, push)`
/// observations raise an alarm, from a push-only fleet replay (two shards
/// on two threads, routed by `shard_of`). A series' alarms depend on its
/// own observations alone (no series cap is set), so the split need not
/// match the daemon's worker count.
fn replay_alarms(window: usize, stream: &[(u64, f64)]) -> Result<BTreeSet<(u64, u64)>, String> {
    const SHARDS: usize = 2;
    let mut cfg = MonitorConfig::new(window, ALPHA);
    cfg.explain_on_drift = false;
    cfg.size_only = false;
    let fleet = MonitorFleet::new(FleetConfig::new(SHARDS, cfg)).map_err(|e| e.to_string())?;
    let (_, shards, _) = fleet.into_shards();
    let sets = std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|mut shard| {
                s.spawn(move || -> Result<Vec<(u64, u64)>, String> {
                    let mut alarms = Vec::new();
                    for &(series, value) in stream {
                        if shard_of(series, SHARDS) != shard.id() {
                            continue;
                        }
                        if let FleetPush::Alarm { at_push, .. } =
                            shard.push(series, value).map_err(|e| e.to_string())?
                        {
                            alarms.push((series, at_push));
                        }
                    }
                    Ok(alarms)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "replay thread panicked".to_string())?)
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(sets.into_iter().flatten().collect())
}

/// Per-series value histories (push `p`, 1-based, is `history[p - 1]`).
fn histories(stream: &[(u64, f64)]) -> HashMap<u64, Vec<f64>> {
    let mut h: HashMap<u64, Vec<f64>> = HashMap::new();
    for &(series, value) in stream {
        h.entry(series).or_default().push(value);
    }
    h
}

/// The window pair a fleet alarm at `(series, push)` explains: with
/// reset-on-drift, both windows are the series' last `2w` pushes.
fn alarm_windows(history: &[f64], push: u64, w: usize) -> Option<(&[f64], &[f64])> {
    let end = usize::try_from(push).ok()?;
    let start = end.checked_sub(2 * w)?;
    let pair = history.get(start..end)?;
    Some(pair.split_at(w))
}

/// A logged `ALARM`, stamped with when it was read.
#[derive(Debug, Clone, Copy)]
struct AlarmLine {
    series: u64,
    push: u64,
    shed: bool,
    at: Instant,
}

/// A logged `EXPLAIN`, stamped with when it was read.
#[derive(Debug, Clone, Copy)]
struct ExplainLine {
    series: u64,
    push: u64,
    k: Option<usize>,
    k_hat: Option<usize>,
    at: Instant,
}

/// What the daemon said, in order, with read times when piped.
#[derive(Debug, Default)]
struct Log {
    alarms: Vec<AlarmLine>,
    explains: Vec<ExplainLine>,
    checkpoints: u64,
    checkpoint_failures: u64,
    trouble: Vec<String>,
}

impl Log {
    fn take(&mut self, line: &str, at: Instant) {
        match parse_line(line) {
            LogLine::Alarm { series, push, shed } => {
                self.alarms.push(AlarmLine { series, push, shed, at });
            }
            LogLine::Explain { series, push, k, k_hat } => {
                self.explains.push(ExplainLine { series, push, k, k_hat, at });
            }
            LogLine::Checkpoint { failed } => {
                if failed {
                    self.checkpoint_failures += 1;
                } else {
                    self.checkpoints += 1;
                }
            }
            // Connections still open at our own SHUTDOWN get a drain
            // notice; that is the graceful path, not a failure.
            LogLine::Trouble(t) if t.ends_with("reason=drained") => {}
            LogLine::Trouble(t) => self.trouble.push(t),
            LogLine::Listening(_) | LogLine::Other => {}
        }
    }
}

/// The serve output oracle: the alarm set equals an in-process replay of
/// the same stream, every explanation the daemon logged equals the same
/// alarm's windows explained in-process, and no queued explanation is
/// missing after the drain.
fn check_serve_oracle(
    report: &mut Report,
    phase: &str,
    ctx: &Ctx,
    window: usize,
    stream: &[(u64, f64)],
    log: &Log,
) -> Result<(), String> {
    let want = replay_alarms(window, stream)?;
    let got: BTreeSet<(u64, u64)> = log.alarms.iter().map(|a| (a.series, a.push)).collect();
    if got.len() != log.alarms.len() {
        report.mismatch(format!("{phase}: duplicate ALARM lines"));
    }
    if got != want {
        let missing = want.difference(&got).count();
        let extra = got.difference(&want).count();
        report.mismatch(format!(
            "{phase}: alarm set differs from the in-process replay ({} replayed, {} logged, {missing} missing, {extra} extra)",
            want.len(),
            got.len()
        ));
    }
    let shed: BTreeSet<(u64, u64)> =
        log.alarms.iter().filter(|a| a.shed).map(|a| (a.series, a.push)).collect();
    let histories = histories(stream);
    let mut layered = Layered1d::new(MonitorConfig::new(window, ALPHA).spectral_residual())?;
    let mut off = Tracer::new(false);
    let mut explained = BTreeSet::new();
    let mut bad = 0usize;
    for &ExplainLine { series, push, k, k_hat, .. } in &log.explains {
        if !explained.insert((series, push))
            || shed.contains(&(series, push))
            || !got.contains(&(series, push))
        {
            bad += 1;
            if bad <= 3 {
                report.mismatch(format!("{phase}: unexpected EXPLAIN series={series} push={push}"));
            }
            continue;
        }
        let pair = histories.get(&series).and_then(|h| alarm_windows(h, push, window));
        let Some((reference, test)) = pair else {
            report.mismatch(format!(
                "{phase}: EXPLAIN series={series} push={push} has no 2w history"
            ));
            continue;
        };
        let index = ReferenceIndex::new(reference).map_err(|e| e.to_string())?;
        let expect = layered.run(&mut off, &index, test, ctx.size_only);
        let agrees = match (&expect, ctx.size_only) {
            (WindowOut::Explained(indices), false) => k == Some(indices.len()) && k_hat.is_none(),
            (WindowOut::Size { k: kk, k_hat: kh }, true) => k == Some(*kk) && k_hat == Some(*kh),
            // The daemon logs a bare EXPLAIN when the explain failed.
            (WindowOut::Error(_) | WindowOut::Passing, _) => k.is_none(),
            _ => false,
        };
        if !agrees {
            bad += 1;
            if bad <= 3 {
                report.mismatch(format!(
                    "{phase}: EXPLAIN series={series} push={push} k={k:?} k_hat={k_hat:?}, in-process {expect:?}"
                ));
            }
        }
    }
    let queued = got.len() - shed.len();
    if explained.len() != queued {
        report.mismatch(format!(
            "{phase}: {} explanation(s) logged for {queued} queued alarm(s)",
            explained.len()
        ));
    }
    if bad > 3 {
        report.mismatch(format!("{phase}: {bad} explanation(s) differ in total"));
    }
    println!(
        "  oracle: {} alarm(s) ({} shed), {} explanation(s) checked against the in-process replay",
        got.len(),
        shed.len(),
        log.explains.len()
    );
    Ok(())
}

/// Closes the run: `STATUS` must count every observation sent, then a
/// graceful `SHUTDOWN`.
fn status_and_shutdown(
    report: &mut Report,
    phase: &str,
    conn: &mut TcpStream,
    moche: &mut Moche,
    sent: u64,
) -> Result<(), String> {
    let status = round_trip(conn, &protocol::encode_op(op::STATUS), op::STATUS)?;
    let accepted = json_u64(&status, "accepted").ok_or("STATUS without accepted")?;
    if accepted != sent {
        report.mismatch(format!("{phase}: STATUS accepted {accepted}, observations sent {sent}"));
    }
    round_trip(conn, &protocol::encode_op(op::SHUTDOWN), op::SHUTDOWN)?;
    let exit = moche.wait_for_exit(Duration::from_secs(30))?;
    if !exit.success() {
        report.mismatch(format!("{phase}: moche serve exited with {exit}"));
    }
    Ok(())
}

// ------------------------------------------------------------ serve-ingest

/// The seeded serve-ingest traffic.
struct IngestInputs {
    ids: Vec<u64>,
    warm: Vec<u8>,
    open: Vec<u8>,
    closed: Vec<u8>,
    /// Every observation in send order (`closed` is cut where the timed
    /// phase stopped).
    stream: Vec<(u64, f64)>,
    queries: Vec<u64>,
    hash: u64,
}

fn gen_ingest(seed: u64, open_seconds: f64, closed_seconds: f64) -> IngestInputs {
    let ids = series_ids(seed, "serve-ingest.series", INGEST_SERIES);
    let mut values = Rng::derive(seed, "serve-ingest.values");
    let mut pick = Rng::derive(seed, "serve-ingest.pick");
    let mut stream = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..2 * INGEST_W {
        for &id in &ids {
            push_frame(&mut warm, &mut stream, id, values.reading(0.0, 1.0));
        }
    }
    let mut tail = |count: usize, stream: &mut Vec<(u64, f64)>| {
        let mut bytes = Vec::with_capacity(count * FRAME);
        for _ in 0..count {
            let id = ids[pick.below(ids.len())];
            push_frame(&mut bytes, stream, id, values.reading(0.0, 1.0));
        }
        bytes
    };
    let open = tail((INGEST_RATE * open_seconds) as usize, &mut stream);
    let closed = tail((INGEST_MAX_RATE * closed_seconds) as usize, &mut stream);
    let mut qrng = Rng::derive(seed, "serve-ingest.queries");
    let n_queries = (open_seconds / QUERY_EVERY.as_secs_f64()).floor() as usize;
    let queries: Vec<u64> = (0..n_queries).map(|_| ids[qrng.below(ids.len())]).collect();
    let mut hash = Fnv::default();
    for part in [&warm, &open, &closed] {
        hash.update(part);
    }
    for q in &queries {
        hash.update(&q.to_le_bytes());
    }
    IngestInputs { ids, warm, open, closed, stream, queries, hash: hash.finish() }
}

/// The `serve-ingest` phase. Returns its setup time.
pub fn serve_ingest(ctx: &Ctx, report: &mut Report, scratch: &Scratch) -> Result<f64, String> {
    const PHASE: &str = "serve-ingest";
    let open_seconds = ctx.phase_seconds(8.0);
    let closed_seconds = ctx.phase_seconds(4.0);
    let mut inputs = gen_ingest(ctx.seed, open_seconds, closed_seconds);
    println!(
        "[{PHASE}] {INGEST_SERIES} series, w = {INGEST_W}, {INGEST_WORKERS} worker(s){}; warm {} obs, \
         open loop {INGEST_RATE} obs/s for {open_seconds:.1} s with {} SERIES queries every {:?}, \
         closed loop {closed_seconds:.1} s; input hash {:016x}",
        if ctx.size_only { ", --size-only" } else { "" },
        inputs.warm.len() / FRAME,
        inputs.queries.len(),
        QUERY_EVERY,
        inputs.hash
    );
    let log_path = scratch.path("ingest.log");
    let mut moche =
        Moche::spawn(&ctx.moche, &serve_args(ctx, INGEST_W, INGEST_WORKERS, &[]), Some(&log_path))?;
    let addr = listening_from_file(&log_path, &mut moche)?;
    let mut conn = connect(&addr)?;
    let mut qconn = connect(&addr)?;

    // Setup: warm every series past 2w, then one barrier per shard.
    write_chunks(&mut conn, &inputs.warm)?;
    barrier(&mut conn, &inputs.ids, INGEST_WORKERS)?;
    let setup = moche.launched.elapsed().as_secs_f64();
    println!("  setup (launch -> every series warmed past 2w, barrier per shard): {setup:.4} s");

    // Open loop: OBS at a fixed rate, SERIES queries beside them.
    let t0 = Instant::now() + Duration::from_millis(20);
    let (obs_late, queries) = open_phase(&mut conn, &mut qconn, &inputs, t0)?;
    let late_max = obs_late.max(queries.late_max_ms);

    // Closed loop: pipeline as fast as backpressure allows, one barrier.
    // Beside it, the second connection samples STATUS `accepted` every
    // `SAMPLE_EVERY`; the rate is the median over slices of those samples,
    // i.e. observations *applied*, whatever the socket buffers absorb.
    let start = Instant::now();
    let sending = AtomicBool::new(true);
    let (closed_frames, samples) = std::thread::scope(|s| {
        let sampler = s.spawn(|| sample_accepted(&mut qconn, &sending, start));
        let mut frames = 0usize;
        let mut sent = Ok(());
        for chunk in inputs.closed.chunks(CHUNK_FRAMES * FRAME) {
            if start.elapsed().as_secs_f64() >= closed_seconds {
                break;
            }
            if let Err(e) = conn.write_all(chunk) {
                sent = Err(format!("send: {e}"));
                break;
            }
            frames += chunk.len() / FRAME;
        }
        sending.store(false, Ordering::SeqCst);
        let samples = sampler.join().map_err(|_| "sampler thread panicked".to_string());
        sent.map(|()| (frames, samples))
    })?;
    let samples = samples??;
    barrier(&mut conn, &inputs.ids, INGEST_WORKERS)?;
    let closed_elapsed = start.elapsed().as_secs_f64();
    let slices = match (samples.first(), samples.last()) {
        (Some(&(t0, a0)), Some(&(t1, _))) if samples.len() > CLOSED_SLICES => {
            let points: Vec<(f64, f64)> = samples.iter().map(|&(t, a)| (t - t0, a - a0)).collect();
            stats::slice_rates(&points, t1 - t0, CLOSED_SLICES)
        }
        _ => return Err(format!("only {} STATUS samples in the closed phase", samples.len())),
    };
    let peak_kib = moche.vm_hwm_kib().unwrap_or(0);
    let cut = inputs.stream.len() - (inputs.closed.len() / FRAME - closed_frames);
    inputs.stream.truncate(cut);
    let sent = inputs.stream.len() as u64;

    let summary = stats::summarize(&queries.latencies_ms);
    report.metric(
        format!("{PHASE}.ingest_obs_per_s"),
        stats::median(&slices),
        "1/s",
        &format!(
            "median of {CLOSED_SLICES} slices of STATUS accepted {:.0?}; {closed_frames} obs \
             in {closed_elapsed:.3} s incl. the final barrier = {:.0}/s overall",
            slices,
            closed_frames as f64 / closed_elapsed
        ),
    );
    match summary {
        Some(q) => {
            report.metric(format!("{PHASE}.query_p50_ms"), q.p50, "ms", &format!("n = {}", q.n));
            let tail = q.tail.map_or("none".into(), |(p, v)| format!("p{p} = {v:.3} ms"));
            report.metric(
                format!("{PHASE}.query_p99_ms"),
                q.p99,
                "ms",
                &format!(
                    "n = {}, {}; highest percentile with >= 10 beyond: {tail}; max {:.3} ms",
                    q.n,
                    if q.p99_supported { "p99 supported" } else { "p99 NOT supported by n" },
                    q.max
                ),
            );
        }
        None => return Err("no query was answered".into()),
    }
    report.metric(format!("{PHASE}.peak_rss_mb"), peak_kib as f64 / 1024.0, "MiB", "VmHWM");
    report.metric(
        format!("{PHASE}.gen.late_max_ms"),
        late_max,
        "ms",
        &format!(
            "OBS {obs_late:.3} ms, queries {:.3} ms; bound {LATE_BOUND_MS} ms",
            queries.late_max_ms
        ),
    );
    if late_max > LATE_BOUND_MS {
        report.reject(format!(
            "{PHASE}: generator ran {late_max:.1} ms late (bound {LATE_BOUND_MS} ms)"
        ));
    }

    let mut layer = None;
    if ctx.trace {
        std::thread::sleep(Duration::from_millis(300));
        let idle = idle_rtt(&mut qconn, &inputs.ids)?;
        let t1 = Instant::now() + Duration::from_millis(20);
        let unloaded =
            query_loop(&mut qconn, &inputs.queries[..inputs.queries.len().min(250)], t1)?;
        layer = Some((idle, unloaded, peak_kib));
    }
    status_and_shutdown(report, PHASE, &mut conn, &mut moche, sent)?;
    drop((conn, qconn));
    let mut log = Log::default();
    let text = std::fs::read_to_string(&log_path).map_err(|e| format!("read log: {e}"))?;
    let now = Instant::now();
    for line in text.lines() {
        log.take(line, now);
    }
    let failed = queries.failed + log.trouble.len() as u64;
    for t in log.trouble.iter().take(3) {
        println!("  daemon reported: {t}");
    }
    report.operations(PHASE, sent + queries.sent + 2 * INGEST_WORKERS as u64, failed);
    let shed = log.alarms.iter().filter(|a| a.shed).count();
    println!(
        "  daemon: {} alarm(s), {shed} explanation(s) shed, {} explained",
        log.alarms.len(),
        log.explains.len()
    );
    check_serve_oracle(report, PHASE, ctx, INGEST_W, &inputs.stream, &log)?;
    if let Some((idle, unloaded, peak_kib)) = layer {
        let loaded_p50 = summary.map_or(0.0, |s| s.p50);
        trace_ingest(ctx, report, &inputs, idle, &unloaded, loaded_p50, peak_kib)?;
    }
    Ok(setup)
}

/// Samples STATUS `accepted` on `conn` every `SAMPLE_EVERY` while
/// `sending` holds: `(seconds since start, accepted)` pairs, each stamped
/// when its request was sent (the handler reads the counter on receipt).
fn sample_accepted(
    conn: &mut TcpStream,
    sending: &AtomicBool,
    start: Instant,
) -> Result<Vec<(f64, f64)>, String> {
    conn.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    let mut samples = Vec::new();
    let mut next = Instant::now();
    while sending.load(Ordering::SeqCst) {
        let now = Instant::now();
        if now < next {
            std::thread::sleep((next - now).min(Duration::from_millis(5)));
            continue;
        }
        let at = Instant::now();
        let body = round_trip(conn, &protocol::encode_op(op::STATUS), op::STATUS)?;
        let accepted = json_u64(&body, "accepted").ok_or("STATUS without accepted")?;
        samples.push(((at - start).as_secs_f64(), accepted as f64));
        next += SAMPLE_EVERY;
    }
    Ok(samples)
}

/// Back-to-back `SERIES` round trips on an idle daemon: the reply path
/// alone, as a scripted closed-loop client sees it.
fn idle_rtt(conn: &mut TcpStream, ids: &[u64]) -> Result<stats::Summary, String> {
    conn.set_read_timeout(Some(Duration::from_secs(5))).map_err(|e| e.to_string())?;
    let mut rtts = Vec::new();
    for &id in ids.iter().take(16) {
        let start = Instant::now();
        round_trip(conn, &protocol::encode_series(id), op::SERIES)?;
        rtts.push(start.elapsed().as_secs_f64() * 1e3);
    }
    stats::summarize(&rtts).ok_or_else(|| "no idle round trip".into())
}

/// Replays `bytes` the way a connection handler consumes them: `READ_CHUNK`
/// reads through a `FrameAssembler`, observations handed to `sink`.
fn decode_chunks(
    t: &mut Tracer,
    asm: &mut FrameAssembler,
    bytes: &[u8],
    obs: &mut Vec<(u64, f64)>,
    frames: &mut u64,
) {
    obs.clear();
    for chunk in bytes.chunks(READ_CHUNK) {
        t.span("cli.protocol.decode", || {
            asm.extend(chunk);
            loop {
                match asm.next_frame() {
                    Assembled::Request(Request::Obs { series, value }) => obs.push((series, value)),
                    Assembled::NeedMore => break,
                    _ => {}
                }
            }
        });
    }
    *frames += obs.len() as u64;
}

/// Fleet-layer replay state: the shards (routed by `shard_of`), the
/// counters the layers report, and per-series history for the alarm
/// sub-layer probes.
struct FleetReplay {
    shards: Vec<FleetShard>,
    pushes: u64,
    alarms: u64,
    explained: u64,
    shed: u64,
    pending_max: usize,
    checkpoint_bytes: u64,
    last_checkpoint: Vec<u64>,
}

impl FleetReplay {
    fn new(window: usize, workers: usize, size_only: bool) -> Result<Self, String> {
        let mut cfg = MonitorConfig::new(window, ALPHA);
        cfg.size_only = size_only;
        let mut fleet_cfg = FleetConfig::new(workers, cfg);
        fleet_cfg.explain_queue = EXPLAIN_QUEUE;
        let (_, shards, _) = MonitorFleet::new(fleet_cfg).map_err(|e| e.to_string())?.into_shards();
        Ok(Self {
            shards,
            pushes: 0,
            alarms: 0,
            explained: 0,
            shed: 0,
            pending_max: 0,
            checkpoint_bytes: 0,
            last_checkpoint: vec![0; workers],
        })
    }

    fn push_all(&mut self, t: &mut Tracer, obs: &[(u64, f64)]) -> Result<(), String> {
        let Self { shards, .. } = self;
        let mut alarms = 0u64;
        let mut shed = 0u64;
        let workers = shards.len();
        t.span("stream.fleet.push", || -> Result<(), String> {
            for &(series, value) in obs {
                let shard = &mut shards[shard_of(series, workers)];
                if let FleetPush::Alarm { explain_queued, .. } =
                    shard.push(series, value).map_err(|e| e.to_string())?
                {
                    alarms += 1;
                    shed += u64::from(!explain_queued);
                }
            }
            Ok(())
        })?;
        self.pushes += obs.len() as u64;
        self.alarms += alarms;
        self.shed += shed;
        self.pending_max = self
            .pending_max
            .max(self.shards.iter().map(FleetShard::pending_explains).max().unwrap_or(0));
        Ok(())
    }

    /// Drains up to `budget` tickets per shard; returns the answered
    /// `(series, push)` pairs.
    fn drain(&mut self, t: &mut Tracer, budget: usize) -> Vec<(u64, u64)> {
        let mut answered = Vec::new();
        for shard in &mut self.shards {
            t.span("stream.fleet.drain", || {
                shard.drain_explains(budget, |a| answered.push((a.series, a.at_push)));
            });
        }
        self.explained += answered.len() as u64;
        answered
    }

    fn checkpoint_due(&mut self, t: &mut Tracer, dir: &Path) -> Result<(), String> {
        for (i, shard) in self.shards.iter().enumerate() {
            if shard.accepted() - self.last_checkpoint[i] >= CHECKPOINT_EVERY {
                t.span("stream.snapshot.checkpoint", || shard.checkpoint(dir))
                    .map_err(|e| e.to_string())?;
                self.last_checkpoint[i] = shard.accepted();
                let file = dir.join(moche_stream::fleet::shard_file_name(shard.id()));
                self.checkpoint_bytes += std::fs::metadata(&file).map(|m| m.len()).unwrap_or(0);
            }
        }
        Ok(())
    }
}

fn fleet_metrics(report: &mut Report, phase: &str, t: &Tracer, r: &FleetReplay, drain_self: f64) {
    report.metric(
        format!("{phase}.cli.protocol.decode_s"),
        t.seconds("cli.protocol.decode"),
        "s",
        "FrameAssembler::extend/next_frame per 4 KiB read",
    );
    report.metric(
        format!("{phase}.cli.protocol.frames"),
        r.pushes as f64,
        "count",
        "OBS frames decoded",
    );
    report.metric(
        format!("{phase}.stream.fleet.push_s"),
        t.seconds("stream.fleet.push"),
        "s",
        "FleetShard::push routed by shard_of",
    );
    report.metric(format!("{phase}.stream.fleet.pushes"), r.pushes as f64, "count", "");
    report.metric(format!("{phase}.stream.fleet.alarms"), r.alarms as f64, "count", "");
    report.metric(
        format!("{phase}.stream.fleet.drain_s"),
        drain_self,
        "s",
        "drain_explains self time",
    );
    report.metric(format!("{phase}.stream.fleet.explained"), r.explained as f64, "count", "");
    report.metric(
        format!("{phase}.stream.fleet.shed"),
        r.shed as f64,
        "count",
        "queue-full alarms",
    );
    report.metric(
        format!("{phase}.stream.fleet.pending_max"),
        r.pending_max as f64,
        "count",
        "peak pending_explains on a shard",
    );
}

fn trace_ingest(
    ctx: &Ctx,
    report: &mut Report,
    inputs: &IngestInputs,
    idle: stats::Summary,
    unloaded: &Queries,
    loaded_p50: f64,
    peak_kib: u64,
) -> Result<(), String> {
    const PHASE: &str = "serve-ingest";
    let total = inputs.stream.len() * FRAME;
    let bytes: Vec<u8> =
        inputs.warm.iter().chain(&inputs.open).chain(&inputs.closed).copied().take(total).collect();
    let pass = |t: &mut Tracer| -> Result<(FleetReplay, f64), String> {
        let mut replay = FleetReplay::new(INGEST_W, INGEST_WORKERS, ctx.size_only)?;
        let mut asm = FrameAssembler::new();
        let mut obs = Vec::new();
        let mut frames = 0;
        let start = Instant::now();
        let (warm, rest) = bytes.split_at(inputs.warm.len());
        for part in warm.chunks(CHUNK_FRAMES * FRAME) {
            decode_chunks(t, &mut asm, part, &mut obs, &mut frames);
            replay.push_all(t, &obs)?;
        }
        // The daemon idles at the warm barrier and drains there; under the
        // open and closed load that follow its rings never idle for the
        // 25 ms a drain waits for, so the rest drains at shutdown.
        replay.drain(t, usize::MAX);
        for part in rest.chunks(CHUNK_FRAMES * FRAME) {
            decode_chunks(t, &mut asm, part, &mut obs, &mut frames);
            replay.push_all(t, &obs)?;
        }
        replay.drain(t, usize::MAX);
        Ok((replay, start.elapsed().as_secs_f64()))
    };
    let (_, untraced) = pass(&mut Tracer::new(false))?;
    let mut t = Tracer::new(true);
    let (replay, traced) = pass(&mut t)?;
    println!("  traced in-process replay of {} observations:", replay.pushes);
    for line in t.lines() {
        println!("    {line}");
    }
    fleet_metrics(report, PHASE, &t, &replay, t.seconds("stream.fleet.drain"));
    let slots = (INGEST_SERIES * 2 * INGEST_W) as f64;
    report.metric(
        format!("{PHASE}.stream.fleet.bytes_per_slot"),
        peak_kib as f64 * 1024.0 / slots,
        "bytes",
        &format!("peak RSS / ({INGEST_SERIES} series x 2w)"),
    );
    report.metric(
        format!("{PHASE}.cli.serve.idle_rtt_ms"),
        idle.p50,
        "ms",
        &format!(
            "median of {} back-to-back SERIES round trips on the idle daemon (max {:.3} ms)",
            idle.n, idle.max
        ),
    );
    let unloaded_p50 = stats::summarize(&unloaded.latencies_ms).map_or(0.0, |s| s.p50);
    report.metric(
        format!("{PHASE}.cli.serve.ring_wait_ms"),
        loaded_p50 - unloaded_p50,
        "ms",
        &format!(
            "query_p50 under load {loaded_p50:.3} ms - same query schedule without OBS {unloaded_p50:.3} ms ({} queries)",
            unloaded.latencies_ms.len()
        ),
    );
    crate::trace::self_check(report, PHASE, traced, untraced, &t, "no replays");
    Ok(())
}

// ------------------------------------------------------------ serve-alarms

/// The scrape schedule: warm-up, then `PER_TICK` observations per series
/// per tick. The `push`-th observation of a series (1-based, counted over
/// the whole stream — resets after an alarm do not restart it) was sent
/// in tick `(push - 2w - 1) / PER_TICK`; warm-up pushes have no tick.
pub fn tick_of(push: u64, window: usize, per_tick: usize) -> Option<u64> {
    let warm = 2 * window as u64;
    (push > warm).then(|| (push - warm - 1) / per_tick as u64)
}

/// Regime of series `s` at its `push`-th observation: shifts by `SHIFT`
/// every `PERIOD` pushes after warm-up, starting at a staggered offset.
fn level(push: u64, offset: u64, window: usize) -> f64 {
    let start = 2 * window as u64 + offset;
    if push <= start {
        return 0.0;
    }
    let shifts = (push - start - 1) / PERIOD + 1;
    if shifts % 2 == 1 {
        SHIFT
    } else {
        0.0
    }
}

struct AlarmInputs {
    ids: Vec<u64>,
    warm: Vec<u8>,
    ticks: Vec<Vec<u8>>,
    stream: Vec<(u64, f64)>,
    hash: u64,
}

fn gen_alarms(
    seed: u64,
    n_ticks: usize,
    series: usize,
    window: usize,
    per_tick: usize,
) -> AlarmInputs {
    // Half the series on each shard, and each shard's regime shifts spread
    // evenly over the period: every tick brings each shard the same share
    // of alarms, so the alarm rate is steady and fixed by the seed.
    let mut ids = Vec::with_capacity(series);
    let mut per_shard = [0usize; ALARM_WORKERS];
    for id in series_ids(seed, "serve-alarms.series", series * ALARM_WORKERS) {
        let shard = shard_of(id, ALARM_WORKERS);
        if ids.len() < series && per_shard[shard] < series.div_ceil(ALARM_WORKERS) {
            per_shard[shard] += 1;
            ids.push(id);
        }
    }
    let mut stagger = Rng::derive(seed, "serve-alarms.stagger");
    let mut offset = vec![0u64; series];
    for shard in 0..ALARM_WORKERS {
        let mut members: Vec<usize> =
            (0..ids.len()).filter(|&s| shard_of(ids[s], ALARM_WORKERS) == shard).collect();
        stagger.shuffle(&mut members);
        let n = members.len().max(1) as u64;
        for (rank, &s) in members.iter().enumerate() {
            offset[s] = rank as u64 * PERIOD / n;
        }
    }
    let series = ids.len();
    let mut order: Vec<usize> = (0..series).collect();
    let mut values = Rng::derive(seed, "serve-alarms.values");
    let mut pushes = vec![0u64; series];
    let mut stream = Vec::new();
    let mut emit = |s: usize, bytes: &mut Vec<u8>, stream: &mut Vec<(u64, f64)>| {
        pushes[s] += 1;
        let mean = level(pushes[s], offset[s], window);
        push_frame(bytes, stream, ids[s], values.reading(mean, 1.0));
    };
    let mut warm = Vec::new();
    for _ in 0..2 * window {
        for s in 0..series {
            emit(s, &mut warm, &mut stream);
        }
    }
    let mut shuffle = Rng::derive(seed, "serve-alarms.order");
    let mut ticks = Vec::with_capacity(n_ticks);
    for _ in 0..n_ticks {
        shuffle.shuffle(&mut order);
        let mut bytes = Vec::with_capacity(series * per_tick * FRAME);
        for &s in &order {
            for _ in 0..per_tick {
                emit(s, &mut bytes, &mut stream);
            }
        }
        ticks.push(bytes);
    }
    let mut hash = Fnv::default();
    hash.update(&warm);
    for t in &ticks {
        hash.update(t);
    }
    AlarmInputs { ids, warm, ticks, stream, hash: hash.finish() }
}

/// The `serve-alarms` phase. Returns its setup time.
pub fn serve_alarms(ctx: &Ctx, report: &mut Report, scratch: &Scratch) -> Result<f64, String> {
    const PHASE: &str = "serve-alarms";
    let seconds = ctx.phase_seconds(10.0);
    let n_ticks = (seconds / TICK.as_secs_f64()).round().max(1.0) as usize;
    let inputs = gen_alarms(ctx.seed, n_ticks, ALARM_SERIES, ALARM_W, PER_TICK);
    println!(
        "[{PHASE}] {ALARM_SERIES} series, w = {ALARM_W}, {ALARM_WORKERS} workers{}, checkpoints every \
         {CHECKPOINT_EVERY} obs/shard; {PER_TICK} obs per series every {:?} for {n_ticks} ticks, \
         a {SHIFT}-sigma shift every {PERIOD} pushes; input hash {:016x}",
        if ctx.size_only { ", --size-only" } else { "" },
        TICK,
        inputs.hash
    );
    let ckpt = scratch.path("checkpoints");
    let extra = [
        "--checkpoint-dir".to_string(),
        ckpt.display().to_string(),
        "--checkpoint-every".to_string(),
        CHECKPOINT_EVERY.to_string(),
    ];
    let mut moche =
        Moche::spawn(&ctx.moche, &serve_args(ctx, ALARM_W, ALARM_WORKERS, &extra), None)?;
    let stdout = moche.take_stdout().ok_or("no stdout pipe")?;
    let (addr_tx, addr_rx) = mpsc::channel::<String>();

    let (outcome, log) = std::thread::scope(|s| {
        // The log reader: stamps every daemon line as it arrives.
        let reader = s.spawn(move || -> Result<Log, String> {
            let mut log = Log::default();
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            let mut addr_tx = Some(addr_tx);
            loop {
                line.clear();
                let n = reader.read_line(&mut line).map_err(|e| format!("read log: {e}"))?;
                if n == 0 {
                    return Ok(log);
                }
                let at = Instant::now();
                if let LogLine::Listening(addr) = parse_line(&line) {
                    if let Some(tx) = addr_tx.take() {
                        let _ = tx.send(addr);
                    }
                }
                log.take(&line, at);
            }
        });
        let outcome = drive_alarms(report, &mut moche, &addr_rx, &inputs);
        if outcome.is_err() {
            moche.kill();
        }
        (outcome, reader.join().map_err(|_| "log reader panicked".to_string()))
    });
    let log = log??;
    let driven = outcome?;
    let sent = inputs.stream.len() as u64;

    // Lags, over alarms raised by observations of the timed phase.
    let index: HashMap<u64, usize> =
        inputs.ids.iter().enumerate().map(|(i, &id)| (id, i)).collect();
    let due = |series: u64, push: u64| -> Option<Instant> {
        index.get(&series)?;
        let tick = tick_of(push, ALARM_W, PER_TICK)?;
        Some(driven.t0 + TICK * u32::try_from(tick).ok()?)
    };
    let mut alarm_lag = Vec::new();
    let mut timed: BTreeMap<(u64, u64), Instant> = BTreeMap::new();
    for &AlarmLine { series, push, at, .. } in &log.alarms {
        if let Some(d) = due(series, push) {
            alarm_lag.push((at - d).as_secs_f64() * 1e3);
            timed.insert((series, push), d);
        }
    }
    let mut explain_lag = Vec::new();
    for &ExplainLine { series, push, at, .. } in &log.explains {
        if let Some(&d) = timed.get(&(series, push)) {
            if at <= driven.quiesced {
                explain_lag.push((at - d).as_secs_f64() * 1e3);
            }
        }
    }
    let lag_metric = |report: &mut Report, name: &str, samples: &[f64]| -> Result<(), String> {
        let s = stats::summarize(samples).ok_or_else(|| format!("{PHASE}: no {name} samples"))?;
        let tail = s.tail.map_or("none".into(), |(p, v)| format!("p{p} = {v:.3} ms"));
        report.metric(format!("{PHASE}.{name}_p50_ms"), s.p50, "ms", &format!("n = {}", s.n));
        report.metric(
            format!("{PHASE}.{name}_p99_ms"),
            s.p99,
            "ms",
            &format!(
                "n = {}, {}; highest percentile with >= 10 beyond: {tail}; max {:.3} ms",
                s.n,
                if s.p99_supported { "p99 supported" } else { "p99 NOT supported by n" },
                s.max
            ),
        );
        Ok(())
    };
    lag_metric(report, "alarm_lag", &alarm_lag)?;
    lag_metric(report, "explain_lag", &explain_lag)?;
    report.metric(
        format!("{PHASE}.explained_share"),
        explain_lag.len() as f64 / timed.len().max(1) as f64,
        "ratio",
        &format!(
            "{} EXPLAIN lines for {} timed alarms before shutdown",
            explain_lag.len(),
            timed.len()
        ),
    );
    report.metric(format!("{PHASE}.peak_rss_mb"), driven.peak_kib as f64 / 1024.0, "MiB", "VmHWM");
    report.metric(
        format!("{PHASE}.gen.late_max_ms"),
        driven.late_max_ms,
        "ms",
        &format!(
            "bound {LATE_BOUND_MS} ms; slowest tick write ended {:.3} ms past due",
            driven.write_max_ms
        ),
    );
    if driven.late_max_ms > LATE_BOUND_MS {
        report.reject(format!(
            "{PHASE}: generator ran {:.1} ms late (bound {LATE_BOUND_MS} ms)",
            driven.late_max_ms
        ));
    }
    println!(
        "  daemon: {} checkpoint(s) written, {} failed",
        log.checkpoints, log.checkpoint_failures
    );
    for t in log.trouble.iter().take(3) {
        println!("  daemon reported: {t}");
    }
    report.operations(
        PHASE,
        sent + 2 * ALARM_WORKERS as u64,
        log.trouble.len() as u64 + log.checkpoint_failures,
    );
    check_serve_oracle(report, PHASE, ctx, ALARM_W, &inputs.stream, &log)?;
    if ctx.trace {
        trace_alarms(ctx, report, &inputs, scratch, driven.peak_kib)?;
    }
    Ok(driven.setup)
}

struct Driven {
    setup: f64,
    t0: Instant,
    quiesced: Instant,
    late_max_ms: f64,
    write_max_ms: f64,
    peak_kib: u64,
}

fn drive_alarms(
    report: &mut Report,
    moche: &mut Moche,
    addr_rx: &mpsc::Receiver<String>,
    inputs: &AlarmInputs,
) -> Result<Driven, String> {
    let addr = addr_rx
        .recv_timeout(Duration::from_secs(30))
        .map_err(|_| "moche serve never printed its listening line".to_string())?;
    let mut conn = connect(&addr)?;
    write_chunks(&mut conn, &inputs.warm)?;
    barrier(&mut conn, &inputs.ids, ALARM_WORKERS)?;
    let setup = moche.launched.elapsed().as_secs_f64();
    println!("  setup (launch -> every series warmed past 2w, barrier per shard): {setup:.4} s");

    let t0 = Instant::now() + TICK;
    let mut peak_kib = 0;
    let (late_max_ms, write_max_ms) = send_ticks(&mut conn, &inputs.ticks, t0, |k| {
        if k % 20 == 0 {
            peak_kib = peak_kib.max(moche.vm_hwm_kib().unwrap_or(0));
        }
    })?;
    // Let the idle daemon drain what the last ticks queued, then close.
    barrier(&mut conn, &inputs.ids, ALARM_WORKERS)?;
    std::thread::sleep(Duration::from_millis(400));
    let quiesced = Instant::now();
    peak_kib = peak_kib.max(moche.vm_hwm_kib().unwrap_or(0));
    status_and_shutdown(report, "serve-alarms", &mut conn, moche, inputs.stream.len() as u64)?;
    Ok(Driven { setup, t0, quiesced, late_max_ms, write_max_ms, peak_kib })
}

fn trace_alarms(
    ctx: &Ctx,
    report: &mut Report,
    inputs: &AlarmInputs,
    scratch: &Scratch,
    peak_kib: u64,
) -> Result<(), String> {
    const PHASE: &str = "serve-alarms";
    let size_only = ctx.size_only;
    let sr = MonitorConfig::new(ALARM_W, ALPHA).spectral_residual();

    // One pass of the scrape model: per tick, decode -> push -> two idle
    // drains of up to DRAIN_BUDGET tickets per shard (a 100 ms tick leaves
    // the daemon idle for two or three of its 25 ms timeouts) ->
    // checkpoints on cadence. With tracing on, each answered alarm's
    // windows are also replayed through the core layers for their self
    // times.
    let pass = |t: &mut Tracer,
                dir: &Path,
                counters: &mut batch::Counters1d|
     -> Result<(FleetReplay, f64), String> {
        let mut replay = FleetReplay::new(ALARM_W, ALARM_WORKERS, size_only)?;
        let mut asm = FrameAssembler::new();
        let mut obs = Vec::new();
        let mut frames = 0;
        let mut history: HashMap<u64, Vec<f64>> = HashMap::new();
        let mut layered = Layered1d::new(sr)?;
        let start = Instant::now();
        let mut step = |t: &mut Tracer,
                        bytes: &[u8],
                        budget: usize,
                        replay: &mut FleetReplay|
         -> Result<(), String> {
            decode_chunks(t, &mut asm, bytes, &mut obs, &mut frames);
            for &(series, value) in obs.iter() {
                history.entry(series).or_default().push(value);
            }
            replay.push_all(t, &obs)?;
            let answered = replay.drain(t, budget);
            if t.enabled() {
                for (series, push) in answered {
                    let Some((reference, test)) =
                        history.get(&series).and_then(|h| alarm_windows(h, push, ALARM_W))
                    else {
                        continue;
                    };
                    let index = t
                        .span("core.ref_index.build", || ReferenceIndex::new(reference))
                        .map_err(|e| e.to_string())?;
                    std::hint::black_box(layered.run(t, &index, test, size_only));
                }
            }
            replay.checkpoint_due(t, dir)
        };
        step(t, &inputs.warm, usize::MAX, &mut replay)?;
        for tick in &inputs.ticks {
            step(t, tick, 2 * DRAIN_BUDGET, &mut replay)?;
        }
        let elapsed = start.elapsed().as_secs_f64();
        *counters = layered.counters;
        Ok((replay, elapsed))
    };

    let twin_dir = scratch.path("twin-checkpoints");
    let trace_dir = scratch.path("trace-checkpoints");
    for d in [&twin_dir, &trace_dir] {
        std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
    }
    let mut ignored = batch::Counters1d::default();
    let (_, untraced) = pass(&mut Tracer::new(false), &twin_dir, &mut ignored)?;
    let mut t = Tracer::new(true);
    let mut counters = batch::Counters1d::default();
    let (replay, traced) = pass(&mut t, &trace_dir, &mut counters)?;
    println!("  traced in-process replay of {} observations (scrape model):", replay.pushes);
    for line in t.lines() {
        println!("    {line}");
    }
    let build = t.seconds("core.ref_index.build");
    let sr_s = t.seconds("sigproc.sr");
    let splice = t.seconds("core.ref_index.splice");
    let size = t.seconds("probe.size");
    let explain = t.seconds("probe.explain");
    let answered = if size_only { size } else { explain };
    fleet_metrics(
        report,
        PHASE,
        &t,
        &replay,
        t.seconds("stream.fleet.drain") - build - sr_s - answered,
    );
    report.metric(
        format!("{PHASE}.stream.snapshot.checkpoint_s"),
        t.seconds("stream.snapshot.checkpoint"),
        "s",
        "FleetShard::checkpoint",
    );
    report.metric(
        format!("{PHASE}.stream.snapshot.bytes"),
        replay.checkpoint_bytes as f64,
        "bytes",
        "shard files written",
    );
    report.metric(
        format!("{PHASE}.core.ref_index.build_s"),
        build,
        "s",
        "ReferenceIndex::new per answered alarm (the fleet re-sorts)",
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
        "size_with_index minus the splice",
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
        "",
    );
    report.metric(
        format!("{PHASE}.core.phase2.s"),
        if size_only { 0.0 } else { explain - size },
        "s",
        "explain_with_index_in minus size_with_index",
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
    report.metric(format!("{PHASE}.sigproc.sr.s"), sr_s, "s", "scores_into + preference fill");
    let slots = (ALARM_SERIES * 2 * ALARM_W) as f64;
    report.metric(
        format!("{PHASE}.stream.fleet.bytes_per_slot"),
        peak_kib as f64 * 1024.0 / slots,
        "bytes",
        &format!("peak RSS / ({ALARM_SERIES} series x 2w)"),
    );
    crate::trace::self_check(
        report,
        PHASE,
        traced,
        untraced,
        &t,
        "replays: index build + SR + splice + probe.size + probe.explain per answered alarm",
    );
    Ok(())
}

// ------------------------------------------------------------ null sink

/// A stand-in daemon that decodes frames and discards them, answering each
/// `SERIES` at once. It shows what the generator alone can sustain.
pub fn run_sink() -> Result<(), String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    println!("moche serve: listening on {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    std::thread::scope(|s| -> Result<(), String> {
        let mut handlers = Vec::new();
        // The generator's two connections: OBS and queries.
        for _ in 0..2 {
            let (mut conn, _) = listener.accept().map_err(|e| e.to_string())?;
            handlers.push(s.spawn(move || -> Result<u64, String> {
                conn.set_nodelay(true).map_err(|e| e.to_string())?;
                let mut asm = FrameAssembler::new();
                let mut buf = vec![0u8; 1 << 16];
                let mut frames = 0u64;
                loop {
                    let n = conn.read(&mut buf).map_err(|e| e.to_string())?;
                    if n == 0 {
                        return Ok(frames);
                    }
                    asm.extend(&buf[..n]);
                    loop {
                        match asm.next_frame() {
                            Assembled::Request(Request::Series { series }) => {
                                let body = format!("{{\"series\":{series},\"found\":true}}");
                                protocol::write_reply(&mut conn, op::SERIES, &body)
                                    .map_err(|e| e.to_string())?;
                            }
                            Assembled::Request(_) => frames += 1,
                            Assembled::NeedMore => break,
                            other => return Err(format!("sink: {other:?}")),
                        }
                    }
                }
            }));
        }
        for h in handlers {
            h.join().map_err(|_| "sink handler panicked".to_string())??;
        }
        Ok(())
    })
}

/// Drives the serve generators against the null sink: the offered rates
/// must be met and the lateness must stay inside [`LATE_BOUND_MS`].
pub fn null_sink_check(seed: u64, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut sink = Moche::spawn(&exe, &["sink".to_string()], None)?;
    let stdout = sink.take_stdout().ok_or("no sink stdout")?;
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).map_err(|e| e.to_string())?;
    let LogLine::Listening(addr) = parse_line(&line) else {
        return Err(format!("sink said {line:?}"));
    };
    let mut conn = connect(&addr)?;
    let mut qconn = connect(&addr)?;
    let inputs = gen_ingest(seed, seconds, 0.0);
    let t0 = Instant::now() + Duration::from_millis(20);
    let (late, queries) = open_phase(&mut conn, &mut qconn, &inputs, t0)?;
    let elapsed = t0.elapsed().as_secs_f64();
    let offered = (inputs.open.len() / FRAME) as f64;
    let q = stats::summarize(&queries.latencies_ms).ok_or("no query answered")?;
    println!(
        "serve-ingest generator vs null sink: {offered} OBS in {elapsed:.3} s = {:.0} obs/s \
         (offered {INGEST_RATE}), OBS lateness max {late:.3} ms; {} queries, p50 {:.3} ms, \
         p99 {:.3} ms, lateness max {:.3} ms, {} unanswered",
        offered / elapsed,
        q.n,
        q.p50,
        q.p99,
        queries.late_max_ms,
        queries.failed
    );
    let n_ticks = (seconds / TICK.as_secs_f64()).round() as usize;
    let alarms = gen_alarms(seed, n_ticks, ALARM_SERIES, ALARM_W, PER_TICK);
    let t0 = Instant::now() + TICK;
    let (tick_late, _) = send_ticks(&mut conn, &alarms.ticks, t0, |_| {})?;
    let tick_elapsed = t0.elapsed().as_secs_f64();
    let tick_obs = alarms.ticks.iter().map(Vec::len).sum::<usize>() / FRAME;
    println!(
        "serve-alarms generator vs null sink: {n_ticks} ticks of {} obs in {tick_elapsed:.3} s \
         (schedule {:.3} s), tick lateness max {tick_late:.3} ms",
        tick_obs / n_ticks.max(1),
        n_ticks as f64 * TICK.as_secs_f64()
    );
    drop((conn, qconn));
    let status = sink.wait_for_exit(Duration::from_secs(10))?;
    let sustained = offered / elapsed >= 0.98 * INGEST_RATE
        && late.max(queries.late_max_ms).max(tick_late) <= LATE_BOUND_MS
        && queries.failed == 0
        && status.success();
    println!("null-sink check: {}", if sustained { "PASS" } else { "FAIL" });
    Ok(sustained)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_lines_parse() {
        assert_eq!(
            parse_line("moche serve: listening on 127.0.0.1:4000\n"),
            LogLine::Listening("127.0.0.1:4000".into())
        );
        assert_eq!(
            parse_line("ALARM series=9 push=700 stat=0.5 threshold=0.1 explain=shed"),
            LogLine::Alarm { series: 9, push: 700, shed: true }
        );
        assert_eq!(
            parse_line("EXPLAIN series=9 push=700 k=12 after=0.01"),
            LogLine::Explain { series: 9, push: 700, k: Some(12), k_hat: None }
        );
        assert_eq!(
            parse_line("EXPLAIN series=9 push=700 k=12 k_hat=10"),
            LogLine::Explain { series: 9, push: 700, k: Some(12), k_hat: Some(10) }
        );
        assert!(matches!(
            parse_line("CLOSE conn=3 reason=idle-timeout idle_ms=1"),
            LogLine::Trouble(_)
        ));
        assert_eq!(
            parse_line("CHECKPOINT shard=0 FAILED: x"),
            LogLine::Checkpoint { failed: true }
        );
    }

    /// `(series, push)` -> due time matching survives `reset_on_drift`:
    /// replay a small scrape through a real fleet, and every alarm's push
    /// count must map to the tick in which the generator sent that very
    /// observation (resets clear the windows, never the push count).
    #[test]
    fn alarm_push_maps_to_its_tick_across_resets() {
        let (w, per_tick, series) = (16, 4, 6);
        let inputs = gen_alarms(5, 400, series, w, per_tick);
        // Ground truth from the generator: the tick of each stream entry.
        let warm = 2 * w * series;
        let mut sent_tick: Vec<Option<u64>> = vec![None; warm];
        for k in 0..inputs.ticks.len() {
            sent_tick.extend(std::iter::repeat_n(Some(k as u64), series * per_tick));
        }
        let mut fleet =
            MonitorFleet::new(FleetConfig::new(1, MonitorConfig::new(w, ALPHA))).unwrap();
        let mut resets = 0;
        for (i, &(id, value)) in inputs.stream.iter().enumerate() {
            if let FleetPush::Alarm { at_push, .. } = fleet.push(id, value).unwrap() {
                assert_eq!(
                    tick_of(at_push, w, per_tick),
                    sent_tick[i],
                    "alarm at stream entry {i}"
                );
                resets += 1;
            }
        }
        assert!(resets >= 2 * series, "the shifts must alarm (and reset) repeatedly: {resets}");
        assert_eq!(tick_of(2 * w as u64, w, per_tick), None);
        assert_eq!(tick_of(2 * w as u64 + 1, w, per_tick), Some(0));
        assert_eq!(tick_of(2 * w as u64 + per_tick as u64 + 1, w, per_tick), Some(1));
    }

    #[test]
    fn alarm_windows_are_the_last_2w_pushes() {
        let h: Vec<f64> = (1..=10).map(f64::from).collect();
        let (r, t) = alarm_windows(&h, 8, 3).unwrap();
        assert_eq!(r, &[3.0, 4.0, 5.0]);
        assert_eq!(t, &[6.0, 7.0, 8.0]);
        assert!(alarm_windows(&h, 5, 3).is_none());
        assert!(alarm_windows(&h, 11, 3).is_none());
    }

    #[test]
    fn generated_traffic_depends_only_on_the_seed() {
        let a = gen_ingest(3, 0.01, 0.01);
        let b = gen_ingest(3, 0.01, 0.01);
        let c = gen_ingest(4, 0.01, 0.01);
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.hash, c.hash);
        let x = gen_alarms(3, 5, 8, 16, 4);
        let y = gen_alarms(3, 5, 8, 16, 4);
        let z = gen_alarms(9, 5, 8, 16, 4);
        assert_eq!(x.hash, y.hash);
        assert_ne!(x.hash, z.hash);
    }
}
