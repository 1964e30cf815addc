//! Metric values, the human-readable table, the one-line JSON result
//! the driver reads, and the span file.

use crate::measure::Span;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or percentile actually used, for the table only.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The outcome of one workload run.
#[derive(Debug)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Deliveries the oracle expected, and how many of them failed
    /// (missing or wrong, plus every invariant violation).
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the JSON result: every end-to-end metric with
    /// tracing off, every per-layer metric with it on.
    pub metrics: Vec<Metric>,
    /// Printed in the table but not part of the JSON result
    /// (`fail_share` and `psnr_db_mean` on an untraced run).
    pub extra: Vec<Metric>,
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The table a person reads: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== {} (seed {}, {}) ==",
            self.workload,
            self.seed,
            if self.traced {
                "traced pass"
            } else {
                "tracing off"
            }
        );
        for m in self.metrics.iter().chain(&self.extra) {
            let _ = writeln!(
                out,
                "  {:<36} {:>16} {:<8} {}",
                m.name,
                format_value(m.value),
                m.unit,
                m.note
            );
        }
        let _ = writeln!(
            out,
            "  oracle: {} deliveries expected, {} failed{}",
            self.attempted,
            self.failed,
            if self.correct() {
                ""
            } else {
                "  <-- INCORRECT"
            }
        );
        for note in &self.notes {
            let _ = writeln!(out, "  ! {note}");
        }
        out
    }

    /// The driver's result: one JSON object on one line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn format_value(v: f64) -> String {
    if v == 0.0 || v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// A JSON number with every digit measured (non-finite values have no
/// JSON form; they become 0 and the run is reported incorrect
/// elsewhere).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `<package dir>/out`, inside the checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write the in-memory spans of a traced run to
/// `out/trace-<workload>.json`.
pub fn write_trace(workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.json"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    writeln!(f, "{{\"workload\": \"{workload}\", \"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"round\": {}, \
             \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}",
            s.name,
            s.layer.name(),
            s.round,
            s.start_ns,
            s.end_ns,
            if i + 1 == spans.len() { "" } else { "," }
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()?;
    Ok(path)
}

/// Every `"name": "..."` value in a JSON text, in order — enough to
/// read the metric and workload lists out of `BENCHMARK.json` without
/// a JSON library.
pub fn json_names(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"name\"") {
        rest = rest[at + 6..].trim_start();
        // A key is followed by a colon; a string value "name" is not.
        let Some(value) = rest.strip_prefix(':') else {
            continue;
        };
        let Some(open) = value.find('"') else { break };
        let Some(len) = value[open + 1..].find('"') else {
            break;
        };
        out.push(value[open + 1..open + 1 + len].to_string());
        rest = &value[open + 2 + len..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let r = RunResult {
            workload: "w".into(),
            seed: 1,
            traced: false,
            attempted: 10,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25, "s")],
            extra: vec![Metric::new("fail_share", 0.0, "ratio")],
            notes: vec![],
        };
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(r.table().contains("fail_share"));
    }

    #[test]
    fn json_names_reads_name_values() {
        let text = r#"{"a": [{"name": "x", "why": "name"}, {"name":"y.z"}]}"#;
        assert_eq!(json_names(text), vec!["x", "y.z"]);
    }
}
