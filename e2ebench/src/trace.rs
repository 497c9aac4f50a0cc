//! Layer spans for the traced run. Each span wraps one call into a layer's
//! public function from this benchmark's own code (nothing inside the
//! program is instrumented). Spans are folded into per-layer totals as they
//! close — a replay pushes millions of observations, so keeping every span
//! would cost more memory than the program under test.

use crate::report::Report;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Layer {
    name: &'static str,
    total: Duration,
    count: u64,
}

/// Per-layer span totals. A disabled tracer runs the wrapped calls with no
/// clock reads at all, which is how the untraced twin pass is timed.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    layers: Vec<Layer>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, layers: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span of `layer`.
    #[inline]
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(layer, start.elapsed());
        out
    }

    fn record(&mut self, layer: &'static str, elapsed: Duration) {
        match self.layers.iter_mut().find(|l| l.name == layer) {
            Some(l) => {
                l.total += elapsed;
                l.count += 1;
            }
            None => self.layers.push(Layer { name: layer, total: elapsed, count: 1 }),
        }
    }

    /// Total seconds spent in `layer`'s spans.
    pub fn seconds(&self, layer: &str) -> f64 {
        self.layers.iter().find(|l| l.name == layer).map_or(0.0, |l| l.total.as_secs_f64())
    }

    /// Seconds covered by all spans (spans never nest, so this is the part
    /// of the traced wall time the spans account for).
    pub fn covered_seconds(&self) -> f64 {
        self.layers.iter().map(|l| l.total.as_secs_f64()).sum()
    }

    /// Human-readable per-layer lines, in first-seen order.
    pub fn lines(&self) -> Vec<String> {
        self.layers
            .iter()
            .map(|l| {
                format!(
                    "{:<28} {:>10.4} s over {:>8} span(s)",
                    l.name,
                    l.total.as_secs_f64(),
                    l.count
                )
            })
            .collect()
    }
}

/// The traced run's accounting check: the spans (layer self time plus the
/// benchmark's own measured overhead, such as the nested replays used to
/// subtract an inner call) must cover the traced wall time to within
/// [`TOLERANCE`].
#[derive(Debug, Clone, Copy)]
pub struct SelfCheck {
    pub wall_s: f64,
    pub covered_s: f64,
}

/// The share of traced wall time the spans may leave unaccounted.
pub const TOLERANCE: f64 = 0.05;

impl SelfCheck {
    pub fn residual_s(&self) -> f64 {
        self.wall_s - self.covered_s
    }

    pub fn residual_share(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.residual_s() / self.wall_s
        } else {
            0.0
        }
    }

    pub fn passes(&self) -> bool {
        self.residual_share().abs() <= TOLERANCE
    }
}

/// Prints the traced run's accounting and records the overhead share.
pub fn self_check(
    report: &mut Report,
    phase: &str,
    traced: f64,
    untraced: f64,
    t: &Tracer,
    overhead_note: &str,
) {
    let check = SelfCheck { wall_s: traced, covered_s: t.covered_seconds() };
    println!(
        "  self-check: traced wall {:.4} s, spans cover {:.4} s ({overhead_note}), residual {:+.4} s = {:+.2}% (tolerance {:.0}%) -> {}",
        check.wall_s,
        check.covered_s,
        check.residual_s(),
        100.0 * check.residual_share(),
        100.0 * TOLERANCE,
        if check.passes() { "PASS" } else { "FAIL" }
    );
    if !check.passes() {
        report.reject(format!(
            "{phase}: traced spans leave {:.2}% of the wall unaccounted",
            100.0 * check.residual_share()
        ));
    }
    report.metric(
        format!("{phase}.trace.overhead_share"),
        traced / untraced - 1.0,
        "ratio",
        &format!("traced wall {traced:.4} s / untraced wall {untraced:.4} s - 1"),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_per_layer_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        for _ in 0..3 {
            t.span("a", || std::thread::sleep(Duration::from_millis(1)));
        }
        t.span("b", || ());
        assert!(t.lines()[0].contains("3 span(s)"), "{:?}", t.lines());
        assert!(t.lines()[1].contains("1 span(s)"), "{:?}", t.lines());
        assert!(t.seconds("a") >= 0.003);
        assert!(t.covered_seconds() >= t.seconds("a"));
        let mut off = Tracer::new(false);
        assert_eq!(off.span("a", || 7), 7);
        assert!(off.lines().is_empty());
    }

    #[test]
    fn self_check_tolerance() {
        assert!(SelfCheck { wall_s: 1.0, covered_s: 0.96 }.passes());
        assert!(!SelfCheck { wall_s: 1.0, covered_s: 0.9 }.passes());
        assert!((SelfCheck { wall_s: 2.0, covered_s: 1.5 }.residual_share() - 0.25).abs() < 1e-12);
    }
}
