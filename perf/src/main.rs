//! `locktune-perf` — the perf ledger. See `perf/README.md`.
//!
//! ```text
//! locktune-perf --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! locktune-perf run   [--seed N] [--seconds S] [--quick]        all workloads, end to end
//! locktune-perf trace [--seed N] [--seconds S] [--quick]        all workloads, per layer
//! locktune-perf compare A.json B.json                           is B worse than A?
//! ```

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use locktune_perf::json::{self, obj, Value};
use locktune_perf::report::{self, Pass};
use locktune_perf::run::{self, Outcome};
use locktune_perf::workloads::{
    ClusterRouted, DssSurge, InprocContended, InprocOltp, Params, WireBatch, WireSingle, Workload,
};
use locktune_perf::{alloc_count, compare, micro, procstat, schema};

#[global_allocator]
static ALLOCATOR: alloc_count::CountingAlloc = alloc_count::CountingAlloc;

/// Seconds one workload measures when the caller does not say.
const DEFAULT_SECONDS: f64 = schema::RUN_SECONDS as f64;
/// Timed repetitions per run; each end-to-end value is their median.
const REPS: usize = 5;
/// `--quick`: one short repetition, small layer rows — a smoke test of
/// the harness, not a measurement.
const QUICK_SECONDS: f64 = 0.3;

#[derive(Debug, Clone)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    detail: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        quick: false,
        detail: None,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => o.quick = true,
            "--detail" => o.detail = Some(PathBuf::from(value()?)),
            "--out-dir" => o.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

impl Options {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick {
            QUICK_SECONDS
        } else {
            DEFAULT_SECONDS
        })
    }

    fn params(&self) -> Params {
        let reps = if self.quick { 1 } else { REPS };
        Params {
            seed: self.seed,
            threads: procstat::nproc(),
            rep: Duration::from_secs_f64(self.seconds() / reps as f64),
            reps,
            warmup_div: if self.quick { 10 } else { 1 },
        }
    }

    /// Layer rows run 10^6 calls (10^4 for the microsecond-scale ones)
    /// in a full pass, and proportionally fewer when the caller asks
    /// for a shorter one.
    fn budget(&self, p: &Params) -> micro::Budget {
        let scale = (self.seconds() / DEFAULT_SECONDS).min(1.0);
        micro::Budget {
            calls: ((1e6 * scale) as u64).max(1_000),
            slow_calls: ((1e4 * scale) as u64).max(100),
            rep: p.rep / 3,
        }
    }
}

/// Run `f` with the workload type `name` names.
macro_rules! with_workload {
    ($name:expr, $f:ident ( $($arg:expr),* )) => {
        match $name {
            "inproc_oltp" => Ok($f::<InprocOltp>($($arg),*)),
            "inproc_contended" => Ok($f::<InprocContended>($($arg),*)),
            "dss_surge" => Ok($f::<DssSurge>($($arg),*)),
            "wire_batch" => Ok($f::<WireBatch>($($arg),*)),
            "wire_single" => Ok($f::<WireSingle>($($arg),*)),
            "cluster_routed" => Ok($f::<ClusterRouted>($($arg),*)),
            other => Err(format!("unknown workload {other}")),
        }
    };
}

fn measure_pass<W: Workload>(o: &Options) -> Outcome {
    run::measure::<W>(&o.params())
}

/// The traced pass: the workload's own traced repetition and program
/// counters, then every workload-independent layer row.
fn trace_pass<W: Workload>(o: &Options) -> Outcome {
    let p = o.params();
    let mut outcome = run::trace::<W>(&p, &o.out_dir);
    let (rows, findings) = micro::all(&p, &o.budget(&p));
    outcome.notes.extend(micro::attribution_notes(&rows));
    outcome.metrics.extend(rows);
    outcome.correct &= findings.is_empty();
    outcome.findings.extend(findings);
    outcome
}

/// One workload in this process: the form the benchmark contract runs.
fn single(o: &Options) -> Result<bool, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let (outcome, pass) = if o.trace {
        (with_workload!(name, trace_pass(o))?, Pass::Layers)
    } else {
        (with_workload!(name, measure_pass(o))?, Pass::EndToEnd)
    };
    report::print(&outcome);
    if let Some(path) = &o.detail {
        std::fs::write(path, report::detail(&outcome).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report::result_line(&outcome, pass));
    Ok(outcome.correct)
}

/// `run` / `trace`: every workload, each in a child process of its own
/// (clean `VmHWM`, no leftover threads), collected into one file.
fn suite(o: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(&o.out_dir).map_err(|e| format!("{}: {e}", o.out_dir.display()))?;
    let mut collected = Vec::new();
    let mut all_correct = true;
    for w in &schema::WORKLOADS {
        let detail = o.out_dir.join(format!(".detail_{}.json", w.name));
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds().to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--detail")
            .arg(&detail)
            .arg("--out-dir")
            .arg(&o.out_dir)
            .stdin(Stdio::null());
        if o.quick {
            cmd.arg("--quick");
        }
        // The child's table goes straight to our standard output.
        let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
        let text = std::fs::read_to_string(&detail)
            .map_err(|e| format!("{} left no result ({status}): {e}", w.name))?;
        let _ = std::fs::remove_file(&detail);
        let value = json::parse(&text)?;
        all_correct &=
            status.success() && value.get("correct").and_then(Value::as_bool) == Some(true);
        collected.push((w.name, value));
    }
    let results = obj([
        ("schema", Value::Num(1.0)),
        (
            "pass",
            Value::Str(if o.trace { "trace" } else { "run" }.into()),
        ),
        ("seed", Value::Num(o.seed as f64)),
        ("seconds", Value::Num(o.seconds())),
        ("quick", Value::Bool(o.quick)),
        ("nproc", Value::Num(procstat::nproc() as f64)),
        ("max_client_threads", Value::Num(procstat::nproc() as f64)),
        (
            "load",
            Value::Str("closed loop, in-process clients, loopback".into()),
        ),
        ("workloads", obj(collected)),
    ]);
    let path = o.out_dir.join(if o.trace {
        "layers.json"
    } else {
        "results.json"
    });
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_correct)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare::run(a, b),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("benchmark-json") => {
            print!("{}", schema::benchmark_json());
            Ok(true)
        }
        Some(sub @ ("run" | "trace")) => {
            let mut o = parse_options(&args[1..])?;
            o.trace = sub == "trace";
            suite(&o)
        }
        _ => single(&parse_options(args)?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("locktune-perf: {e}");
            ExitCode::from(2)
        }
    }
}
