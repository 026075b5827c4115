//! Paired-block ratio measurement and the `BENCH.json` codec.
//!
//! [`measure`] times a base arm against a variant arm in `reps` pairs
//! of blocks, base first on even reps and variant first on odd ones,
//! so monotone drift biases alternate reps in opposite directions. A
//! block is an untimed prepare step, then the fastest of `runs` timed
//! runs. The pair's figure is the signed median of the per-rep
//! figures, with their quartiles as its spread. [`parse`] rejects
//! anything [`write()`] would not produce with a typed [`BenchError`].

use bcc_metrics::json::{self, escape, JsonValue};
use std::fmt;
use std::hint::black_box;
use std::time::Instant;

/// The `schema` tag of a `BENCH.json` file.
const SCHEMA: &str = "bcc_bench";
/// The `version` this module writes and accepts.
const VERSION: u64 = 1;

/// What a pair's figure measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `base_ns / variant_ns`: how many times faster the variant is.
    Speedup,
    /// `(variant_ns / base_ns − 1) × 100`: the variant's extra cost, in %.
    Overhead,
}

impl Kind {
    /// The name written in `BENCH.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Speedup => "speedup",
            Kind::Overhead => "overhead",
        }
    }

    /// The figure of one rep whose base and variant took these times.
    fn figure(self, base_ns: u64, variant_ns: u64) -> f64 {
        let ratio = variant_ns as f64 / base_ns as f64;
        match self {
            Kind::Speedup => 1.0 / ratio,
            Kind::Overhead => (ratio - 1.0) * 100.0,
        }
    }

    /// True when `figure` is a speedup below `bound` or an overhead above.
    fn past(self, figure: f64, bound: f64) -> bool {
        match self {
            Kind::Speedup => figure < bound,
            Kind::Overhead => figure > bound,
        }
    }

    /// A figure with its unit: `4.47×` or `+0.78%`.
    pub fn show(self, figure: f64) -> String {
        match self {
            Kind::Speedup => format!("{figure:.2}×"),
            Kind::Overhead => format!("{figure:+.2}%"),
        }
    }
}

/// One measured pair: a record of `BENCH.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    /// The pair's name (`e2_workload`, `telemetry`, …).
    pub name: String,
    /// What the median and quartiles measure.
    pub kind: Kind,
    /// The base arm's name.
    pub base: String,
    /// The variant arm's name.
    pub variant: String,
    /// Pairs of blocks timed.
    pub reps: u64,
    /// Timed runs per block.
    pub runs: u64,
    /// The base arm's fastest run, in nanoseconds.
    pub base_ns: u64,
    /// The variant arm's fastest run, in nanoseconds.
    pub variant_ns: u64,
    /// First quartile, median and third quartile of the per-rep
    /// figures.
    pub quartiles: [f64; 3],
}

/// How a pair stands against its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The whole `[q1, q3]` interval is inside the bound.
    Pass,
    /// `[q1, q3]` straddles the bound: the spread is too wide to tell,
    /// wherever the median sits.
    Unresolved,
    /// The median, and with it the whole `[q1, q3]`, is past the bound.
    Fail,
}

impl Pair {
    /// The verdict against `bound`, a minimum speedup or a maximum
    /// overhead in percent. A straddling interval is checked first, so
    /// host noise wider than the budget reads `Unresolved`, not
    /// `Fail` or `Pass`.
    pub fn verdict(&self, bound: f64) -> Verdict {
        let [q1, median, q3] = self.quartiles.map(|x| self.kind.past(x, bound));
        if q1 != q3 {
            Verdict::Unresolved
        } else if median {
            Verdict::Fail
        } else {
            Verdict::Pass
        }
    }

    /// The record's members in written order.
    fn members(&self) -> [(&'static str, JsonValue); 11] {
        let text = |s: &str| JsonValue::Str(s.to_string());
        [
            ("name", text(&self.name)),
            ("kind", text(self.kind.name())),
            ("base", text(&self.base)),
            ("variant", text(&self.variant)),
            ("reps", JsonValue::UInt(self.reps)),
            ("runs", JsonValue::UInt(self.runs)),
            ("base_ns", JsonValue::UInt(self.base_ns)),
            ("variant_ns", JsonValue::UInt(self.variant_ns)),
            ("median", JsonValue::Float(self.quartiles[1])),
            ("q1", JsonValue::Float(self.quartiles[0])),
            ("q3", JsonValue::Float(self.quartiles[2])),
        ]
    }
}

/// One side of a pair: an untimed prepare step and the timed work.
pub struct Arm<'a> {
    name: &'static str,
    prepare: Box<dyn FnMut() + 'a>,
    run: Box<dyn FnMut() + 'a>,
}

impl<'a> Arm<'a> {
    /// An arm named `name` whose blocks start with `prepare` (warm a
    /// cache, install a transport), then time `run` and [`black_box`]
    /// its result.
    pub fn new<P, R>(
        name: &'static str,
        mut prepare: impl FnMut() -> P + 'a,
        mut run: impl FnMut() -> R + 'a,
    ) -> Self {
        let prepare = Box::new(move || drop(prepare()));
        let run = Box::new(move || drop(black_box(run())));
        Arm { name, prepare, run }
    }

    /// One block: prepare, then the fastest of `runs` timed runs.
    fn block(&mut self, runs: u64) -> u64 {
        (self.prepare)();
        let mut best = u64::MAX;
        for _ in 0..runs {
            let start = Instant::now();
            (self.run)();
            best = best.min(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
        best.max(1)
    }
}

/// Times `arms` (base, variant) in `reps` alternating-order pairs of
/// blocks of `runs` timed runs each (both at least 1), and summarises
/// the per-rep figures of `kind`.
pub fn measure(name: &str, kind: Kind, reps: u64, runs: u64, mut arms: [Arm<'_>; 2]) -> Pair {
    let (reps, runs) = (reps.max(1), runs.max(1));
    let mut best = [u64::MAX; 2];
    let mut figures = Vec::new();
    for rep in 0..reps {
        let mut ns = [0; 2];
        for side in if rep % 2 == 0 { [0, 1] } else { [1, 0] } {
            ns[side] = arms[side].block(runs);
            best[side] = best[side].min(ns[side]);
        }
        figures.push(kind.figure(ns[0], ns[1]));
    }
    let [base, variant] = arms.map(|arm| arm.name.to_string());
    Pair {
        name: name.to_string(),
        kind,
        base,
        variant,
        reps,
        runs,
        base_ns: best[0],
        variant_ns: best[1],
        quartiles: quartiles(&figures),
    }
}

/// `[q1, median, q3]` of `values`, interpolating linearly between
/// order statistics. Empty input gives NaNs.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().saturating_sub(1);
    [0.25, 0.5, 0.75].map(|p| {
        let h = last as f64 * p;
        let lo = h.floor() as usize;
        match (sorted.get(lo), sorted.get((lo + 1).min(last))) {
            (Some(a), Some(b)) => a + (h - lo as f64) * (b - a),
            _ => f64::NAN,
        }
    })
}

/// Renders pairs as a `BENCH.json` document. Floats use `{:?}`, so
/// [`parse`] reads back exactly what was measured.
pub fn write(pairs: &[Pair]) -> String {
    let record = |pair: &Pair| {
        let members = pair.members().map(|(key, value)| match value {
            JsonValue::Str(s) => format!("\"{key}\": \"{}\"", escape(&s)),
            JsonValue::Float(x) => format!("\"{key}\": {x:?}"),
            number => format!("\"{key}\": {}", number.as_u64().unwrap_or_default()),
        });
        format!("    {{\n      {}\n    }}", members.join(",\n      "))
    };
    let records = pairs.iter().map(record).collect::<Vec<_>>().join(",\n");
    let head = format!("\"schema\": \"{SCHEMA}\",\n  \"version\": {VERSION}");
    format!("{{\n  {head},\n  \"pairs\": [\n{records}\n  ]\n}}\n")
}

/// Why a text is not a valid `BENCH.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchError {
    /// The text is not JSON.
    Json(String),
    /// JSON without `"schema": "bcc_bench"`, such as an older recording.
    NotBench,
    /// Another `version` (`None`: no integer `version` at all).
    Version(Option<u64>),
    /// A required field is absent; names its path.
    Missing(String),
    /// A field the schema does not define; names its path.
    Unknown(String),
    /// A field holding the wrong kind of value; names its path.
    Invalid(String),
    /// A number that is infinite or NaN; names its path.
    NotFinite(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Json(e) => write!(f, "not JSON: {e}"),
            BenchError::NotBench => write!(f, "not a {SCHEMA} file (no \"schema\": \"{SCHEMA}\")"),
            BenchError::Version(v) => write!(f, "{SCHEMA} version {v:?}, expected {VERSION}"),
            BenchError::Missing(at) => write!(f, "missing field {at}"),
            BenchError::Unknown(at) => write!(f, "unknown field {at}"),
            BenchError::Invalid(at) => write!(f, "field {at} has the wrong type"),
            BenchError::NotFinite(at) => write!(f, "field {at} is not a finite number"),
        }
    }
}

impl std::error::Error for BenchError {}

/// Parses a `BENCH.json` document; anything [`write()`] would not have
/// produced is a [`BenchError`].
pub fn parse(text: &str) -> Result<Vec<Pair>, BenchError> {
    let root = json::parse(text).map_err(BenchError::Json)?;
    if root.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(BenchError::NotBench);
    }
    let version = root.get("version").and_then(JsonValue::as_u64);
    if version != Some(VERSION) {
        return Err(BenchError::Version(version));
    }
    only_known(&root, "", &["schema", "version", "pairs"])?;
    let items = root
        .get("pairs")
        .ok_or(BenchError::Missing("pairs".into()))?;
    let items = items.as_arr().ok_or(BenchError::Invalid("pairs".into()))?;
    let pair = |(i, item)| parse_pair(item, &format!("pairs[{i}]"));
    items.iter().enumerate().map(pair).collect()
}

/// Fails on the first member of `v` not named in `keys`.
fn only_known(v: &JsonValue, at: &str, keys: &[&str]) -> Result<(), BenchError> {
    let members = v.as_obj().unwrap_or_default();
    match members.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        Some((key, _)) => Err(BenchError::Unknown(format!("{at}{key}"))),
        None => Ok(()),
    }
}

/// Parses the record at path `at` (`pairs[i]`).
fn parse_pair(v: &JsonValue, at: &str) -> Result<Pair, BenchError> {
    if v.as_obj().is_none() {
        return Err(BenchError::Invalid(at.to_string()));
    }
    let path = |key: &str| format!("{at}.{key}");
    let field = |key| v.get(key).ok_or_else(|| BenchError::Missing(path(key)));
    let text = |key| match field(key)? {
        JsonValue::Str(s) => Ok(s.clone()),
        _ => Err(BenchError::Invalid(path(key))),
    };
    let count = |key| match field(key)? {
        JsonValue::UInt(n) => Ok(*n),
        _ => Err(BenchError::Invalid(path(key))),
    };
    let figure = |key| match field(key)?.as_f64() {
        Some(x) if x.is_finite() => Ok(x),
        Some(_) => Err(BenchError::NotFinite(path(key))),
        None => Err(BenchError::Invalid(path(key))),
    };
    let kind = match text("kind")?.as_str() {
        "speedup" => Kind::Speedup,
        "overhead" => Kind::Overhead,
        _ => return Err(BenchError::Invalid(path("kind"))),
    };
    let pair = Pair {
        name: text("name")?,
        kind,
        base: text("base")?,
        variant: text("variant")?,
        reps: count("reps")?,
        runs: count("runs")?,
        base_ns: count("base_ns")?,
        variant_ns: count("variant_ns")?,
        quartiles: [figure("q1")?, figure("median")?, figure("q3")?],
    };
    only_known(v, &format!("{at}."), &pair.members().map(|(key, _)| key))?;
    Ok(pair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    fn pair(kind: Kind, q1: f64, median: f64, q3: f64) -> Pair {
        Pair {
            name: "p \"q\"".to_string(),
            kind,
            base: "off".to_string(),
            variant: "on".to_string(),
            reps: 9,
            runs: 2,
            base_ns: 310_094_603,
            variant_ns: 297_655_630,
            quartiles: [q1, median, q3],
        }
    }

    #[test]
    fn quartiles_interpolate_at_odd_and_even_counts() {
        let ratios = [1.07, 0.98, 1.02, 1.00, 0.95];
        let [q1, median, q3] = quartiles(&ratios);
        assert_eq!((q1, median, q3), (0.98, 1.00, 1.02));
        let [q1, median, q3] = quartiles(&ratios[..4]);
        assert!((q1 - 0.995).abs() < 1e-12, "{q1}");
        assert!((median - 1.01).abs() < 1e-12, "{median}");
        assert!((q3 - 1.0325).abs() < 1e-12, "{q3}");
        assert_eq!(quartiles(&[-0.5]), [-0.5, -0.5, -0.5]);
        assert!(quartiles(&[]).iter().all(|x| x.is_nan()));
    }

    #[test]
    fn arms_alternate_order_and_prepare_each_block() {
        let log = &RefCell::new(Vec::new());
        let arm = |name: &'static str| {
            Arm::new(
                name,
                move || log.borrow_mut().push(format!("{name}.prepare")),
                move || log.borrow_mut().push(format!("{name}.run")),
            )
        };
        let pair = measure("fake", Kind::Overhead, 4, 2, [arm("base"), arm("variant")]);
        let expected: Vec<String> = ["base", "variant", "variant", "base"]
            .repeat(2)
            .iter()
            .flat_map(|name| ["prepare", "run", "run"].map(|step| format!("{name}.{step}")))
            .collect();
        assert_eq!(*log.borrow(), expected);
        assert_eq!((pair.reps, pair.runs), (4, 2));
        assert_eq!(
            (pair.base.as_str(), pair.variant.as_str()),
            ("base", "variant")
        );
        assert!(pair.base_ns >= 1 && pair.variant_ns >= 1);
        assert!(pair.quartiles.is_sorted());
    }

    #[test]
    fn figures_are_signed() {
        assert_eq!(Kind::Speedup.figure(400, 100), 4.0);
        assert!((Kind::Overhead.figure(100, 103) - 3.0).abs() < 1e-12);
        assert!(Kind::Overhead.figure(100, 97) < 0.0);
        assert_eq!(Kind::Overhead.show(-0.5), "-0.50%");
        assert_eq!(Kind::Speedup.show(4.466), "4.47×");
    }

    #[test]
    fn codec_round_trips() {
        let pairs = vec![
            pair(Kind::Speedup, 4.123456789, 4.5, 5.0),
            pair(Kind::Overhead, -0.25, 0.1, 1.0 / 3.0),
        ];
        assert_eq!(parse(&write(&pairs)), Ok(pairs));
        assert_eq!(parse(&write(&[])), Ok(vec![]));
    }

    #[test]
    fn codec_rejects_with_typed_errors() {
        let good = write(&[pair(Kind::Speedup, 1.0, 2.0, 3.0)]);
        let at = |key: &str| format!("pairs[0].{key}");
        let old = r#"{"bench": "engine throughput baseline", "e2_workload": {"speedup": 4.47}}"#;
        assert_eq!(parse(old), Err(BenchError::NotBench));
        let v2 = good.replace("\"version\": 1", "\"version\": 2");
        assert_eq!(parse(&v2), Err(BenchError::Version(Some(2))));
        let no_runs = good.replace("      \"runs\": 2,\n", "");
        assert_eq!(parse(&no_runs), Err(BenchError::Missing(at("runs"))));
        let extra = good.replace("\"runs\": 2", "\"runs\": 2, \"speedup\": 4.47");
        assert_eq!(parse(&extra), Err(BenchError::Unknown(at("speedup"))));
        let history = good.replace("\"pairs\": [", "\"history\": [], \"pairs\": [");
        assert_eq!(
            parse(&history),
            Err(BenchError::Unknown("history".to_string()))
        );
        let huge = good.replace("\"median\": 2.0", "\"median\": 1e999");
        assert_eq!(parse(&huge), Err(BenchError::NotFinite(at("median"))));
        let kind = good.replace("\"speedup\"", "\"slowdown\"");
        assert_eq!(parse(&kind), Err(BenchError::Invalid(at("kind"))));
        let scalar = good.replace("\"pairs\": [\n    {", "\"pairs\": [7, {");
        assert_eq!(
            parse(&scalar),
            Err(BenchError::Invalid("pairs[0]".to_string()))
        );
        assert!(matches!(parse("{"), Err(BenchError::Json(_))));
        assert!(BenchError::NotBench.to_string().contains("bcc_bench"));
    }

    #[test]
    fn verdicts_follow_median_and_interval() {
        let speedup = |q1, m, q3| pair(Kind::Speedup, q1, m, q3).verdict(0.95);
        assert_eq!(speedup(0.5, 0.9, 0.94), Verdict::Fail);
        assert_eq!(speedup(0.9, 1.0, 1.2), Verdict::Unresolved);
        // A median past the bound does not fail a straddling interval.
        assert_eq!(speedup(0.5, 0.9, 1.2), Verdict::Unresolved);
        assert_eq!(speedup(1.1, 1.5, 2.0), Verdict::Pass);
        let overhead = |q1, m, q3| pair(Kind::Overhead, q1, m, q3).verdict(2.0);
        assert_eq!(overhead(2.5, 3.0, 4.0), Verdict::Fail);
        assert_eq!(overhead(-1.0, 0.5, 2.5), Verdict::Unresolved);
        assert_eq!(overhead(-2.67, 11.66, 40.91), Verdict::Unresolved);
        assert_eq!(overhead(-1.0, 0.5, 2.0), Verdict::Pass);
    }
}
