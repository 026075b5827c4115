//! Hand-rolled JSON serialization for job records and reduced reports
//! — the JSONL sink behind `--json`, whose final `metrics` record
//! [`MetricsSnapshot::to_jsonl`](bcc_runner::MetricsSnapshot::to_jsonl)
//! renders.

use crate::job::{JobOutput, Report, Value};
use bcc_metrics::json::escape;
use bcc_runner::{JobResult, JobStatus};

fn float_json(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` keeps a trailing `.0` on integral floats, so the
        // value stays a JSON number that round-trips as f64.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

impl Value {
    /// This value as a JSON literal.
    pub fn to_json(&self) -> String {
        match self {
            Value::Int(v) => v.to_string(),
            Value::Float(v) => float_json(*v),
            Value::Bool(v) => v.to_string(),
            Value::Str(v) => format!("\"{}\"", escape(v)),
        }
    }
}

fn object<'a, I, V>(pairs: I) -> String
where
    I: IntoIterator<Item = (&'a str, V)>,
    V: AsRef<str>,
{
    let body: Vec<String> = pairs
        .into_iter()
        .map(|(k, v)| format!("\"{}\":{}", escape(k), v.as_ref()))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn values_json(values: &[(String, Value)]) -> String {
    object(values.iter().map(|(k, v)| (k.as_str(), v.to_json())))
}

fn checks_json(checks: &[(String, bool)]) -> String {
    object(checks.iter().map(|(k, ok)| (k.as_str(), ok.to_string())))
}

impl JobOutput {
    /// This output as a JSON object.
    pub fn to_json(&self) -> String {
        object([
            ("experiment", format!("\"{}\"", escape(&self.experiment))),
            ("shard", self.shard.to_string()),
            ("label", format!("\"{}\"", escape(&self.label))),
            ("values", values_json(&self.values)),
            ("checks", checks_json(&self.checks)),
            ("text", format!("\"{}\"", escape(&self.text))),
        ])
    }
}

impl Report {
    /// This report as a JSON object.
    pub fn to_json(&self) -> String {
        object([
            ("experiment", format!("\"{}\"", escape(&self.experiment))),
            ("title", format!("\"{}\"", escape(&self.title))),
            ("params", values_json(&self.params)),
            ("values", values_json(&self.values)),
            ("checks", checks_json(&self.checks)),
            ("passed", self.passed.to_string()),
            ("text", format!("\"{}\"", escape(&self.text))),
        ])
    }
}

/// One JSONL record for a finished job (`"type":"job"`).
pub fn job_record(result: &JobResult<JobOutput>) -> String {
    let (output, error) = match &result.status {
        JobStatus::Completed(o) => (o.to_json(), "null".to_string()),
        JobStatus::Failed(e) => (
            "null".to_string(),
            format!("\"{}\"", escape(&e.to_string())),
        ),
        JobStatus::TimedOut | JobStatus::Cancelled => ("null".to_string(), "null".to_string()),
    };
    object([
        ("type", "\"job\"".to_string()),
        ("id", format!("\"{}\"", escape(&result.id))),
        ("seed", result.seed.to_string()),
        ("status", format!("\"{}\"", result.status.tag())),
        ("attempts", result.attempts.to_string()),
        ("latency_us", result.latency.as_micros().to_string()),
        ("output", output),
        ("error", error),
    ])
}

/// One JSONL record for a reduced report (`"type":"report"`).
pub fn report_record(report: &Report) -> String {
    object([
        ("type", "\"report\"".to_string()),
        ("report", report.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_literals() {
        assert_eq!(Value::Int(-3).to_json(), "-3");
        assert_eq!(Value::Float(0.5).to_json(), "0.5");
        assert_eq!(Value::Float(2.0).to_json(), "2.0");
        assert_eq!(Value::Float(f64::NAN).to_json(), "null");
        assert_eq!(Value::Bool(true).to_json(), "true");
        assert_eq!(Value::Str("x\"y".into()).to_json(), "\"x\\\"y\"");
    }

    #[test]
    fn output_and_report_are_json_objects() {
        let o = JobOutput::default()
            .value("n", 8usize)
            .check("shape", true)
            .text("line\n");
        let j = o.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"values\":{\"n\":8}"));
        assert!(j.contains("\"checks\":{\"shape\":true}"));
        assert!(j.contains("\"text\":\"line\\n\""));

        let mut r = Report::new("e1", "title");
        r.value("total", 4usize);
        r.check("ok", true);
        let rj = r.finalize().to_json();
        assert!(rj.contains("\"passed\":true"));
        assert!(rj.contains("\"title\":\"title\""));
    }

    #[test]
    fn job_record_shape() {
        let job = bcc_runner::Job::new(bcc_runner::JobSpec::new("e1/x", 9), |_ctx| {
            Ok(JobOutput::default())
        });
        let rec = job_record(&crate::test_job_result(job));
        assert!(rec.contains("\"type\":\"job\""));
        assert!(rec.contains("\"id\":\"e1/x\""));
        assert!(rec.contains("\"status\":\"completed\""));
        assert!(rec.contains("\"attempts\":1,"));
        assert!(rec.contains("\"error\":null"));
    }
}
