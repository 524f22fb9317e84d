//! The result line and the host/run record printed before it.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run prints as its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// The single-line JSON object
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    /// Values keep every digit (`f64` `Display` round-trips); a non-finite
    /// value has no JSON form and is written as `null`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number for `x`, or `null` when it has none.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Host facts and run settings, printed before the result so every
/// result carries the machine and inputs it was measured on.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub scan_threads: usize,
    /// `(operation kind, count)` pairs in the order the kinds ran.
    pub operations: Vec<(&'static str, u64)>,
    /// `(name, [q1, median, q3], reps)` for each repeated measurement.
    pub reps: Vec<(&'static str, [f64; 3], usize)>,
}

impl RunRecord {
    pub fn to_json(&self) -> String {
        let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"available_parallelism\": {parallelism}, \"scan_threads_resolved\": {}, \
             \"target\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\", \"operations\": {{",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.scan_threads,
            env!("BENCH_TARGET"),
            env!("BENCH_RUSTC"),
            git_rev().unwrap_or_else(|| "none".to_string()),
        );
        for (i, (kind, count)) in self.operations.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(out, "{sep}\"{kind}\": {count}");
        }
        out.push_str("}, \"reps\": {");
        for (i, (name, q, n)) in self.reps.iter().enumerate() {
            let sep = if i > 0 { ", " } else { "" };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"q1\": {}, \"median\": {}, \"q3\": {}, \"n\": {n}}}",
                number(q[0]),
                number(q[1]),
                number(q[2])
            );
        }
        out.push_str("}}");
        out
    }
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })?
            .trim()
            .to_string(),
    };
    Some(rev)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader for the result grammar: objects, strings
    /// without escapes, numbers, booleans and null.
    #[derive(Debug, PartialEq)]
    enum Json {
        Obj(Vec<(String, Json)>),
        Str(String),
        Num(f64),
        Bool(bool),
        Null,
    }

    fn parse(text: &str) -> Json {
        let mut rest = text.trim_start();
        let value = parse_value(&mut rest);
        assert!(rest.trim().is_empty(), "trailing text: {rest:?}");
        value
    }

    fn parse_value(s: &mut &str) -> Json {
        *s = s.trim_start();
        if let Some(r) = s.strip_prefix('{') {
            *s = r;
            let mut fields = Vec::new();
            loop {
                *s = s.trim_start();
                if let Some(r) = s.strip_prefix('}') {
                    *s = r;
                    return Json::Obj(fields);
                }
                if let Some(r) = s.strip_prefix(',') {
                    *s = r.trim_start();
                }
                let Json::Str(key) = parse_value(s) else {
                    panic!("object key is not a string")
                };
                *s = s.trim_start().strip_prefix(':').expect("colon after key");
                fields.push((key, parse_value(s)));
            }
        } else if let Some(r) = s.strip_prefix('"') {
            let end = r.find('"').expect("closing quote");
            *s = &r[end + 1..];
            Json::Str(r[..end].to_string())
        } else if let Some(r) = s.strip_prefix("true") {
            *s = r;
            Json::Bool(true)
        } else if let Some(r) = s.strip_prefix("false") {
            *s = r;
            Json::Bool(false)
        } else if let Some(r) = s.strip_prefix("null") {
            *s = r;
            Json::Null
        } else {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(s.len());
            let num = s[..end].parse().expect("number");
            *s = &s[end..];
            Json::Num(num)
        }
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        let Json::Obj(fields) = obj else {
            panic!("not an object")
        };
        &fields
            .iter()
            .find(|(k, _)| k == key)
            .expect("field present")
            .1
    }

    #[test]
    fn result_line_parses_back_with_every_digit() {
        let outcome = Outcome {
            correct: true,
            attempted: 1234,
            failed: 2,
            metrics: vec![
                Metric {
                    name: "realtime_x",
                    value: 0.567_891_234_567_890_1,
                    unit: "x",
                },
                Metric {
                    name: "setup_s",
                    value: 1.0e-7,
                    unit: "s",
                },
                Metric {
                    name: "peak_heap_mb",
                    value: 68.0,
                    unit: "MB",
                },
            ],
        };
        let json = outcome.to_json();
        assert!(!json.contains('\n'), "one line");
        let parsed = parse(&json);
        assert_eq!(field(&parsed, "correct"), &Json::Bool(true));
        assert_eq!(field(&parsed, "attempted"), &Json::Num(1234.0));
        assert_eq!(field(&parsed, "failed"), &Json::Num(2.0));
        let Json::Obj(metrics) = field(&parsed, "metrics") else {
            panic!("metrics is an object")
        };
        assert_eq!(metrics.len(), 3);
        for m in &outcome.metrics {
            let entry = field(field(&parsed, "metrics"), m.name);
            assert_eq!(field(entry, "value"), &Json::Num(m.value), "{}", m.name);
            assert_eq!(field(entry, "unit"), &Json::Str(m.unit.to_string()));
        }
        let Json::Obj(keys) = &parsed else {
            unreachable!()
        };
        let names: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn non_finite_values_are_null_not_invalid_json() {
        let outcome = Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: vec![Metric {
                name: "x",
                value: f64::NAN,
                unit: "s",
            }],
        };
        let parsed = parse(&outcome.to_json());
        assert_eq!(
            field(field(field(&parsed, "metrics"), "x"), "value"),
            &Json::Null
        );
    }

    #[test]
    fn run_record_is_valid_json() {
        let record = RunRecord {
            workload: "neuro_live",
            seed: 7,
            seconds: 10,
            trace: false,
            scan_threads: 2,
            operations: vec![("stream", 100), ("scenario", 12)],
            reps: vec![("setup_s", [0.1, 0.2, 0.3], 5)],
        };
        let parsed = parse(&record.to_json());
        assert_eq!(
            field(field(&parsed, "operations"), "stream"),
            &Json::Num(100.0)
        );
        assert_eq!(
            field(field(field(&parsed, "reps"), "setup_s"), "n"),
            &Json::Num(5.0)
        );
    }
}
