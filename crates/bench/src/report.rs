//! The one report every bench suite emits, and the one flag parser every
//! suite reads its options through.
//!
//! A [`BenchReport`] is `{suite, config, env: {cpus, commit}, metrics,
//! gates}`.
//! `config` and `metrics` are free-form `jsonlite` objects; `gates` is the
//! list of claims the run makes, each `{name, value, op, bound, status,
//! reason}` and evaluated exactly once, here:
//!
//! * a gate whose value satisfies `value op bound` has passed;
//! * any other gate has failed — including one with no value, which
//!   therefore can never pass vacuously;
//! * a gate is `refused` only through [`BenchReport::refuse`], which a
//!   suite calls when the host cannot produce a meaningful value (a
//!   wall-clock speedup on fewer than 4 CPUs). A refused gate carries its
//!   reason and no value.
//!
//! The process exit code follows the gates: 1 if any failed, else 0
//! ([`BenchReport::exit_code`]). Bad usage exits 2 before any gate runs.

use jsonlite::Value;
use std::path::Path;
use std::process::Command;
use std::str::FromStr;

/// The comparison a gate's value must satisfy against its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `value <= bound`
    Le,
    /// `value >= bound`
    Ge,
    /// `value > bound`
    Gt,
    /// `value == bound`
    Eq,
}

impl Op {
    const ALL: [Op; 4] = [Op::Le, Op::Ge, Op::Gt, Op::Eq];

    /// The operator as it appears in the artifact.
    fn symbol(self) -> &'static str {
        match self {
            Op::Le => "<=",
            Op::Ge => ">=",
            Op::Gt => ">",
            Op::Eq => "==",
        }
    }

    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Op::Le => value <= bound,
            Op::Ge => value >= bound,
            Op::Gt => value > bound,
            Op::Eq => value == bound,
        }
    }
}

/// A gate's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The value satisfied the bound.
    Passed,
    /// The value missed the bound, or there was no value.
    Failed,
    /// The suite declined to measure on this host, with a reason.
    Refused,
}

impl Status {
    const ALL: [Status; 3] = [Status::Passed, Status::Failed, Status::Refused];

    /// The status as it appears in the artifact.
    fn name(self) -> &'static str {
        match self {
            Status::Passed => "passed",
            Status::Failed => "failed",
            Status::Refused => "refused",
        }
    }
}

/// One evaluated claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Dotted name, unique within the report.
    pub name: String,
    /// The measured value; `None` if it could not be measured.
    pub value: Option<f64>,
    /// The comparison against `bound`.
    pub op: Op,
    /// The bound the value is held to.
    pub bound: f64,
    /// The outcome.
    pub status: Status,
    /// Why a gate was refused, or why a failed one has no value.
    pub reason: Option<String>,
}

/// A suite's artifact (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The suite name; the artifact is `bench-results/<suite>.json`.
    pub suite: String,
    /// The effective configuration the suite ran with.
    pub config: Value,
    /// CPUs available to the process.
    pub cpus: usize,
    /// Short hash of the checked-out commit (`-dirty` when tracked files
    /// differed from it), or `"unknown"` outside a git checkout (see
    /// [`head_commit`]).
    pub commit: String,
    /// Everything measured, gated or not.
    pub metrics: Value,
    /// The evaluated gates, in the order the suite checked them.
    pub gates: Vec<Gate>,
}

impl BenchReport {
    /// An empty report for `suite` on this host.
    pub fn new(suite: &str, config: Value) -> Self {
        BenchReport {
            suite: suite.to_owned(),
            config,
            cpus: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            commit: head_commit(Path::new(".")),
            metrics: Value::object(),
            gates: Vec::new(),
        }
    }

    /// Record a metric under `key` (overwriting an earlier one).
    pub fn metric(&mut self, key: &str, value: impl Into<Value>) {
        self.metrics = std::mem::replace(&mut self.metrics, Value::Null).with(key, value);
    }

    /// Evaluate `value op bound`. A missing value fails the gate.
    pub fn gate(&mut self, name: &str, value: impl Into<Option<f64>>, op: Op, bound: f64) {
        let value = value.into();
        let (status, reason) = match value {
            Some(v) if op.holds(v, bound) => (Status::Passed, None),
            Some(_) => (Status::Failed, None),
            None => (Status::Failed, Some("no value".to_owned())),
        };
        self.gates.push(Gate { name: name.to_owned(), value, op, bound, status, reason });
    }

    /// A boolean claim: value 1 if `ok`, else 0, held `== 1`.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.gate(name, if ok { 1.0 } else { 0.0 }, Op::Eq, 1.0);
    }

    /// Decline a gate on this host: no value, status `refused`, and the
    /// reason on record. The exit code ignores refused gates.
    pub fn refuse(&mut self, name: &str, op: Op, bound: f64, reason: &str) {
        self.gates.push(Gate {
            name: name.to_owned(),
            value: None,
            op,
            bound,
            status: Status::Refused,
            reason: Some(reason.to_owned()),
        });
    }

    /// 1 if any gate failed, else 0.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.gates.iter().any(|g| g.status == Status::Failed))
    }

    /// The artifact as a JSON value.
    pub fn to_json(&self) -> Value {
        let gates: Vec<Value> = self
            .gates
            .iter()
            .map(|g| {
                Value::object()
                    .with("name", g.name.as_str())
                    .with("value", g.value)
                    .with("op", g.op.symbol())
                    .with("bound", g.bound)
                    .with("status", g.status.name())
                    .with("reason", g.reason.clone())
            })
            .collect();
        Value::object()
            .with("suite", self.suite.as_str())
            .with("config", self.config.clone())
            .with("env", Value::object().with("cpus", self.cpus).with("commit", &*self.commit))
            .with("metrics", self.metrics.clone())
            .with("gates", gates)
    }

    /// Read an artifact back; the inverse of [`Self::to_json`].
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let field = |obj: &Value, key: &str| -> Result<Value, String> {
            obj.get(key).cloned().ok_or_else(|| format!("missing {key:?}"))
        };
        let string = |obj: &Value, key: &str| -> Result<String, String> {
            let v = field(obj, key)?;
            v.as_str().map(str::to_owned).ok_or_else(|| format!("{key:?} not a string"))
        };
        let gates = field(v, "gates")?
            .as_array()
            .ok_or("\"gates\" not an array")?
            .iter()
            .map(|g| {
                let op = string(g, "op")?;
                let status = string(g, "status")?;
                let reason = field(g, "reason")?;
                Ok(Gate {
                    name: string(g, "name")?,
                    value: field(g, "value")?.as_f64(),
                    op: *Op::ALL
                        .iter()
                        .find(|o| o.symbol() == op)
                        .ok_or_else(|| format!("unknown op {op:?}"))?,
                    bound: field(g, "bound")?.as_f64().ok_or("\"bound\" not a number")?,
                    status: *Status::ALL
                        .iter()
                        .find(|s| s.name() == status)
                        .ok_or_else(|| format!("unknown status {status:?}"))?,
                    reason: reason.as_str().map(str::to_owned),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let env = field(v, "env")?;
        let cpus = field(&env, "cpus")?.as_i64().ok_or("\"cpus\" not an integer")?;
        // Artifacts written before the commit was recorded lack the key.
        let commit = match env.get("commit") {
            None => UNKNOWN_COMMIT.to_owned(),
            Some(c) => c.as_str().ok_or("\"commit\" not a string")?.to_owned(),
        };
        Ok(BenchReport {
            suite: string(v, "suite")?,
            config: field(v, "config")?,
            cpus: cpus as usize,
            commit,
            metrics: field(v, "metrics")?,
            gates,
        })
    }

    /// Write the artifact to `path` (creating its directory) and print
    /// one line per gate, failures on stderr. Returns the exit code.
    pub fn finish(&self, path: &Path) -> std::io::Result<i32> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, jsonlite::to_string_pretty(&self.to_json()) + "\n")?;
        for g in &self.gates {
            let value = g.value.map_or_else(|| "-".to_owned(), |v| format!("{v}"));
            let line = format!(
                "{:<7} {} = {value} {} {}{}",
                g.status.name(),
                g.name,
                g.op.symbol(),
                g.bound,
                g.reason.as_deref().map(|r| format!(" ({r})")).unwrap_or_default()
            );
            if g.status == Status::Failed {
                eprintln!("{line}");
            } else {
                println!("{line}");
            }
        }
        println!("{}: wrote {} ({} gates)", self.suite, path.display(), self.gates.len());
        Ok(self.exit_code())
    }
}

/// The `env.commit` of a report made outside a git checkout.
pub const UNKNOWN_COMMIT: &str = "unknown";

/// `git rev-parse --short HEAD` run in `dir`, suffixed `-dirty` when a
/// tracked file differs from HEAD (so an artifact made before its change
/// was committed does not pass for the parent's), or [`UNKNOWN_COMMIT`]
/// when git is missing or `dir` is not inside a git checkout.
pub fn head_commit(dir: &Path) -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(dir)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
    };
    let Some(hash) = git(&["rev-parse", "--short", "HEAD"])
        .map(|hash| hash.trim().to_owned())
        .filter(|hash| !hash.is_empty())
    else {
        return UNKNOWN_COMMIT.to_owned();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if !changes.trim().is_empty() => format!("{hash}-dirty"),
        _ => hash,
    }
}

/// A suite's command line, checked against the flags it declares.
///
/// Each entry of a flag list is written as it appears in usage: a flag
/// that takes a value names it (`"--scale <f64>"`), a switch does not
/// (`"--skip-svm"`).
#[derive(Debug)]
pub struct Args {
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parse `argv` against `flags`; unknown flags and missing values are
    /// usage errors.
    pub fn parse(flags: &[&str], argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut argv = argv.into_iter();
        let mut given = Vec::new();
        while let Some(arg) = argv.next() {
            let spec = flags
                .iter()
                .find(|f| f.split(' ').next() == Some(arg.as_str()))
                .ok_or_else(|| format!("unknown flag {arg:?}"))?;
            let value = if spec.contains(' ') {
                Some(argv.next().ok_or_else(|| format!("{arg} needs a value"))?)
            } else {
                None
            };
            given.push((arg, value));
        }
        Ok(Args { given })
    }

    /// Whether switch `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// The last value given for `name`, parsed; `None` if absent.
    pub fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.given
            .iter()
            .rev()
            .find_map(|(n, v)| (n == name).then_some(v.as_deref()).flatten())
            .map(|v| v.parse().map_err(|_| format!("invalid value {v:?} for {name}")))
            .transpose()
    }

    /// The value given for `name`, parsed, or `default`.
    pub fn get<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt(name)?.unwrap_or(default))
    }
}
