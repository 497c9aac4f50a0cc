//! Metrics, the `BENCHMARK.json` declaration they must match, and the
//! result line.

use crate::json::{self, Value};

/// One measured figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// User-facing operations attempted: windows, observations, queries.
    pub attempted: u64,
    /// Failed or refused operations: window errors, `ERR`/`BUSY` replies,
    /// query timeouts.
    pub failed: u64,
    /// Output-oracle mismatches: the program answered wrongly.
    pub mismatches: Vec<String>,
    /// Reasons the run itself is invalid (e.g. the generator fell behind
    /// its schedule); such a run prints no result.
    pub rejections: Vec<String>,
}

impl Report {
    /// Records a metric and prints its human-readable line.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: &str) {
        let name = name.into();
        if note.is_empty() {
            println!("  {name} = {value:.6} {unit}");
        } else {
            println!("  {name} = {value:.6} {unit}  ({note})");
        }
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn mismatch(&mut self, what: String) {
        println!("  ORACLE MISMATCH: {what}");
        self.mismatches.push(what);
    }

    pub fn reject(&mut self, why: String) {
        println!("  RUN REJECTED: {why}");
        self.rejections.push(why);
    }

    /// Counts operations of one phase and prints its error share.
    pub fn operations(&mut self, phase: &str, attempted: u64, failed: u64) {
        let share = if attempted > 0 { failed as f64 / attempted as f64 } else { 0.0 };
        println!(
            "  {phase}.error_share = {share:.6} ratio  ({failed} failed of {attempted} attempted)"
        );
        self.attempted += attempted;
        self.failed += failed;
    }

    /// The result line: exactly the declared metrics, in declared order.
    pub fn result_line(&self, declared: &[Declared]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(declared.len());
        for d in declared {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == d.name)
                .ok_or_else(|| format!("declared metric {} was not measured", d.name))?;
            if m.unit != d.unit {
                return Err(format!(
                    "metric {} has unit {} but declares {}",
                    d.name, m.unit, d.unit
                ));
            }
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", d.name, m.value));
            }
            fields.push((
                d.name.clone(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(m.value)),
                    ("unit".into(), Value::Str(d.unit.clone())),
                ]),
            ));
        }
        Ok(Value::Obj(vec![
            ("correct".into(), Value::Bool(self.mismatches.is_empty())),
            ("attempted".into(), Value::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("metrics".into(), Value::Obj(fields)),
        ])
        .emit())
    }
}

/// A metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
}

/// The parts of `BENCHMARK.json` a run needs.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

/// Parses and checks `BENCHMARK.json` against the benchmark contract
/// (exact keys, name/unit alphabets, counts, bounds, unique names).
pub fn parse_spec(text: &str) -> Result<Spec, String> {
    if text.len() > 64 * 1024 {
        return Err("BENCHMARK.json exceeds 64 KiB".into());
    }
    let root = json::parse(text)?;
    let want = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
    let mut got = keys(&root);
    got.sort_unstable();
    let mut want_sorted = want.to_vec();
    want_sorted.sort_unstable();
    if got != want_sorted {
        return Err(format!("top-level keys {got:?}, want {want:?}"));
    }
    let command = root.get("command").and_then(Value::as_array).ok_or("command is not a list")?;
    if command.is_empty() || command.len() > 32 {
        return Err("command must hold 1 to 32 strings".into());
    }
    for part in command {
        let s = part.as_str().ok_or("command entries must be strings")?;
        if s.len() > 200 || s.starts_with('/') || s.split('/').any(|c| c == "..") {
            return Err(format!("command entry {s:?} breaks the path rules"));
        }
    }
    let paths = root.get("paths").and_then(Value::as_array).ok_or("paths is not a list")?;
    if paths.is_empty() || paths.len() > 16 {
        return Err("paths must hold 1 to 16 directories".into());
    }
    for p in paths {
        let s = p.as_str().ok_or("paths entries must be strings")?;
        let ok = !s.is_empty()
            && s.len() <= 200
            && !s.starts_with('/')
            && !s.split('/').any(|c| c == ".." || c.is_empty())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'));
        if !ok {
            return Err(format!("path {s:?} breaks the path rules"));
        }
    }
    let run_seconds = root.get("run_seconds").and_then(Value::as_f64).ok_or("run_seconds")?;
    if run_seconds.fract() != 0.0 || !(1.0..=60.0).contains(&run_seconds) {
        return Err(format!("run_seconds {run_seconds} must be a whole number in 1..=60"));
    }
    let mut seen = Vec::<String>::new();
    let mut unique = |name: &str| -> Result<(), String> {
        if !is_name(name) {
            return Err(format!("bad name {name:?}"));
        }
        if seen.iter().any(|s| s == name) {
            return Err(format!("name {name:?} used twice"));
        }
        seen.push(name.to_string());
        Ok(())
    };
    let workloads = root.get("workloads").and_then(Value::as_array).ok_or("workloads")?;
    if !(2..=8).contains(&workloads.len()) {
        return Err("workloads must hold 2 to 8 entries".into());
    }
    let mut workload_names = Vec::new();
    for w in workloads {
        if keys(w) != ["name", "why"] {
            return Err(format!("workload keys {:?}, want [name, why]", keys(w)));
        }
        let name = w.get("name").and_then(Value::as_str).ok_or("workload name")?;
        let why = w.get("why").and_then(Value::as_str).ok_or("workload why")?;
        unique(name)?;
        if why.len() > 200 || why.contains('\n') {
            return Err(format!("workload {name}: why must be one line of at most 200 chars"));
        }
        workload_names.push(name.to_string());
    }
    let mut metrics = |key: &str, range: std::ops::RangeInclusive<usize>, bounded: bool| {
        let list = root.get(key).and_then(Value::as_array).ok_or(format!("{key} is not a list"))?;
        if !range.contains(&list.len()) {
            return Err(format!("{key} must hold {range:?} metrics"));
        }
        let mut out = Vec::new();
        for m in list {
            let want: &[&str] = if bounded {
                &["name", "unit", "better", "bound"]
            } else {
                &["name", "unit", "better"]
            };
            if keys(m) != want {
                return Err(format!("{key} metric keys {:?}, want {want:?}", keys(m)));
            }
            let name = m.get("name").and_then(Value::as_str).ok_or("metric name")?;
            let unit = m.get("unit").and_then(Value::as_str).ok_or("metric unit")?;
            let better = m.get("better").and_then(Value::as_str).ok_or("metric better")?;
            unique(name)?;
            if !is_unit(unit) {
                return Err(format!("metric {name}: bad unit {unit:?}"));
            }
            if better != "lower" && better != "higher" {
                return Err(format!("metric {name}: better must be lower or higher"));
            }
            if bounded {
                let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric bound")?;
                if !(bound > 0.0 && bound <= 0.25) {
                    return Err(format!("metric {name}: bound {bound} outside (0, 0.25]"));
                }
            }
            out.push(Declared { name: name.to_string(), unit: unit.to_string() });
        }
        Ok(out)
    };
    let end_to_end = metrics("end_to_end", 1..=16, true)?;
    let per_layer = metrics("per_layer", 1..=128, false)?;
    let setup = root
        .get("end_to_end")
        .and_then(Value::as_array)
        .and_then(|l| l.iter().find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s")))
        .ok_or("an end_to_end metric must be setup_s")?;
    if setup.get("unit").and_then(Value::as_str) != Some("s")
        || setup.get("better").and_then(Value::as_str) != Some("lower")
    {
        return Err("setup_s must have unit s and better lower".into());
    }
    Ok(Spec { workloads: workload_names, end_to_end, per_layer })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_spec_text() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory")
    }

    #[test]
    fn benchmark_json_meets_the_contract_and_round_trips() {
        let text = repo_spec_text();
        let spec = parse_spec(&text).unwrap();
        let value = json::parse(&text).unwrap();
        let emitted = value.emit();
        assert_eq!(json::parse(&emitted).unwrap(), value, "parse/emit must round-trip");
        assert_eq!(parse_spec(&emitted).unwrap(), spec);
        assert!(spec.workloads.iter().all(|w| crate::Workload::parse(w).is_some()));
    }

    #[test]
    fn contract_violations_are_rejected() {
        let good = repo_spec_text();
        let mut broken = vec![
            good.replacen("\"run_seconds\"", "\"run_secs\"", 1),
            good.replacen("\"setup_s\"", "\"setup_time\"", 1),
        ];
        // A bound looser than the contract allows.
        broken.push(good.replacen("\"bound\": 0.25", "\"bound\": 0.5", 1));
        for text in broken {
            assert!(parse_spec(&text).is_err());
        }
    }

    #[test]
    fn result_line_holds_exactly_the_declared_metrics() {
        let mut r = Report::default();
        r.metric("a", 1.5, "ms", "");
        r.metric("b", 2.0, "s", "");
        r.metric("extra", 3.0, "s", "");
        r.operations("p", 10, 1);
        let declared = vec![
            Declared { name: "b".into(), unit: "s".into() },
            Declared { name: "a".into(), unit: "ms".into() },
        ];
        let line = r.result_line(&declared).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(keys(&v), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(keys(v.get("metrics").unwrap()), ["b", "a"]);
        assert_eq!(v.get("failed").unwrap().as_f64(), Some(1.0));
        let missing = vec![Declared { name: "zzz".into(), unit: "s".into() }];
        assert!(r.result_line(&missing).is_err());
        let wrong_unit = vec![Declared { name: "a".into(), unit: "s".into() }];
        assert!(r.result_line(&wrong_unit).is_err());
    }
}
