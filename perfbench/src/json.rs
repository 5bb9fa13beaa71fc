//! The result line the benchmark prints last, and a small JSON reader
//! that parses it back.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{valid_metric_name, Metric};

/// What one run reports: correctness, operation counts and metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// True when every output check passed and nothing failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Reported metrics (value and unit; sample counts are printed
    /// separately).
    pub metrics: Vec<Metric>,
}

/// Escapes `s` as a JSON string body.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A finite number as JSON, keeping every digit Rust prints.
pub fn number(v: f64) -> Result<String, String> {
    if !v.is_finite() {
        return Err(format!("non-finite value {v}"));
    }
    Ok(format!("{v}"))
}

impl RunResult {
    /// The single-line JSON object a runner reads. Fails on a
    /// duplicate or invalid metric name or a non-finite value.
    pub fn to_line(&self) -> Result<String, String> {
        let mut seen = std::collections::BTreeSet::new();
        let mut metrics = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !valid_metric_name(&m.name) || !seen.insert(m.name.as_str()) {
                return Err(format!("bad or duplicate metric name {:?}", m.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                number(m.value).map_err(|e| format!("{}: {e}", m.name))?,
                escape(&m.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }

    /// Parses a line written by [`RunResult::to_line`]. Sample counts
    /// are not part of the line and come back as 1.
    pub fn parse(line: &str) -> Result<RunResult, String> {
        let Value::Object(top) = parse(line)? else {
            return Err("result is not an object".into());
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        if keys != ["attempted", "correct", "failed", "metrics"] {
            return Err(format!("unexpected keys {keys:?}"));
        }
        let count = |key: &str| match top.get(key) {
            Some(Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(*n as u64),
            other => Err(format!("{key}: not a whole number: {other:?}")),
        };
        let correct = match top.get("correct") {
            Some(Value::Bool(b)) => *b,
            other => return Err(format!("correct: not a bool: {other:?}")),
        };
        let Some(Value::Object(entries)) = top.get("metrics") else {
            return Err("metrics: not an object".into());
        };
        let mut metrics = Vec::new();
        for (name, entry) in entries {
            let Value::Object(fields) = entry else {
                return Err(format!("{name}: not an object"));
            };
            match (fields.get("value"), fields.get("unit"), fields.len()) {
                (Some(Value::Number(v)), Some(Value::String(u)), 2) => {
                    if !valid_metric_name(name) {
                        return Err(format!("invalid metric name {name:?}"));
                    }
                    metrics.push(Metric {
                        name: name.clone(),
                        value: *v,
                        unit: u.clone(),
                        samples: 1,
                    });
                }
                _ => return Err(format!("{name}: expected exactly value and unit")),
            }
        }
        Ok(RunResult {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// A parsed JSON value. Objects keep keys sorted.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", c as char, self.i))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut map = BTreeMap::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    let v = self.value()?;
                    if map.insert(key.clone(), v).is_some() {
                        return Err(format!("duplicate key {key:?}"));
                    }
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return Err(format!("expected , or }} at byte {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(format!("expected , or ] at byte {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at byte {}", self.i));
        }
        self.i += 1;
        let mut out = String::new();
        loop {
            let start = self.i;
            while self.s.get(self.i).is_some_and(|&b| b != b'"' && b != b'\\') {
                self.i += 1;
            }
            out.push_str(std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?);
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("unterminated escape")?;
                    self.i += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        RunResult {
            correct: true,
            attempted: 16_000,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 4.712_345_678_9, "s", 3),
                Metric::new("op_p50_ms", 1.534_2, "ms", 9_600),
                Metric::new("ops_per_s", 1_012.25, "1/s", 20),
                Metric::count("core.cache.hits", 28_800),
            ],
        }
    }

    #[test]
    fn result_line_parses_back_to_the_same_values() {
        let result = sample();
        let line = result.to_line().expect("valid result");
        assert!(!line.contains('\n'));
        let back = RunResult::parse(&line).expect("parses");
        assert_eq!(
            (back.correct, back.attempted, back.failed),
            (true, 16_000, 0)
        );
        let mut want: Vec<(String, f64, String)> = result
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value, m.unit.clone()))
            .collect();
        want.sort_by(|a, b| a.0.cmp(&b.0));
        let got: Vec<(String, f64, String)> = back
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.value, m.unit.clone()))
            .collect();
        assert_eq!(got, want, "every digit survives the round trip");
    }

    #[test]
    fn result_line_rejects_bad_metrics() {
        let mut dup = sample();
        dup.metrics.push(Metric::new("setup_s", 1.0, "s", 1));
        assert!(dup.to_line().is_err());
        let mut nan = sample();
        nan.metrics[0].value = f64::NAN;
        assert!(nan.to_line().is_err());
        let mut bad = sample();
        bad.metrics[0].name = "bad name".into();
        assert!(bad.to_line().is_err());
    }

    #[test]
    fn parse_rejects_extra_keys_and_fractional_counts() {
        assert!(RunResult::parse(
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "x": 1}"#
        )
        .is_err());
        assert!(RunResult::parse(
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#
        )
        .is_err());
        assert!(RunResult::parse(
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a": {"value": 1, "unit": "s", "n": 2}}}"#
        )
        .is_err());
    }

    #[test]
    fn parser_reads_nested_documents() {
        let v =
            parse(r#" {"a": [1, -2.5e3, "x\"yA"], "b": {"c": null, "d": false}} "#).expect("valid");
        let Value::Object(map) = v else {
            panic!("object expected")
        };
        assert_eq!(
            map["a"],
            Value::Array(vec![
                Value::Number(1.0),
                Value::Number(-2500.0),
                Value::String("x\"yA".into())
            ])
        );
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} x").is_err());
    }
}
