//! `perfbench`: the repository's outside-in benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mega_fleet|prod_job|live_query|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The process started by that command is a launcher: it records the host
//! (core count, a spin test, compiler, commit) and runs each workload in a
//! child process of its own, with every `BYTEROBUST_*` flag removed from the
//! child's environment so that every run measures the defaults. The child
//! prints a human-readable metric table and, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones (measured with no spans recorded);
//! with `--trace 1` they are the per-layer ones, taken from a replay of the
//! same run through each layer's public functions. See `perfbench/README.md`.

mod checks;
mod fleet;
mod host;
mod live;
mod mega;
mod metrics;
mod prod;
mod replay;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use checks::Checks;
use metrics::Metrics;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["mega_fleet", "prod_job", "live_query"];

/// The seed the benchmark uses when none is given. Tune against this one.
const DEFAULT_SEED: u64 = 1;

/// The held-out seed: a performance claim must also hold on it, and it must
/// not be used while a change is being written.
pub const HELD_OUT_SEED: u64 = 9_001;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// Workload name, or `all`.
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// How long one run measures. A workload repeats whole rounds until this
    /// much time has passed, and always completes at least one round.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Set on the child process the launcher starts.
    child: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        child: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--child" {
            options.child = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => options.workload = value.clone(),
            "--seed" => {
                options.seed = value
                    .parse()
                    .map_err(|_| format!("--seed takes an unsigned integer, got {value:?}"))?
            }
            "--seconds" => {
                let seconds: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds takes a number, got {value:?}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                options.seconds = seconds;
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if options.workload != "all" && !WORKLOADS.contains(&options.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got {:?}",
            WORKLOADS.join(", "),
            options.workload
        ));
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if options.child {
        run_child(&options)
    } else {
        launch(&options)
    }
}

/// Records the host, then runs each requested workload in a child process
/// with a scrubbed environment and forwards its standard output.
fn launch(options: &Options) -> ExitCode {
    let record = host::HostRecord::take();
    let workloads: Vec<&str> = if options.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![options.workload.as_str()]
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perfbench: cannot locate own executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    for workload in workloads {
        println!("{}", record.render(workload, options.seed));
        let mut child = Command::new(&exe);
        child
            .arg("--child")
            .args(["--workload", workload])
            .args(["--seed", &options.seed.to_string()])
            .args(["--seconds", &options.seconds.to_string()])
            .args(["--trace", if options.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stdout(Stdio::inherit())
            .stderr(Stdio::inherit());
        for name in host::flag_variables() {
            child.env_remove(name);
        }
        match child.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perfbench: workload {workload} failed ({status})");
                return ExitCode::FAILURE;
            }
            Err(err) => {
                eprintln!("perfbench: cannot start workload {workload}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Runs one workload in this process and prints its result.
fn run_child(options: &Options) -> ExitCode {
    let flags = host::flag_variables();
    if !flags.is_empty() {
        eprintln!(
            "perfbench: refusing to measure with {} set; the benchmark measures defaults",
            flags.join(", ")
        );
        return ExitCode::from(2);
    }
    let mut metrics = Metrics::new();
    let mut checks = Checks::new();
    let scratch = match host::ScratchDir::create(&options.workload) {
        Ok(scratch) => scratch,
        Err(err) => {
            eprintln!("perfbench: cannot create the run's scratch directory: {err}");
            return ExitCode::FAILURE;
        }
    };
    match options.workload.as_str() {
        "mega_fleet" => mega::run(options, &mut metrics, &mut checks),
        "prod_job" => prod::run(options, &mut metrics, &mut checks),
        "live_query" => live::run(options, scratch.path(), &mut metrics, &mut checks),
        other => unreachable!("workload {other} was validated by parse_args"),
    }
    metrics.set("peak_rss_mb", host::Usage::now().peak_rss_mb);
    drop(scratch);
    print!("{}", metrics.render_table());
    println!(
        "checks: {} attempted, {} failed, error_rate {}",
        checks.attempted(),
        checks.failed(),
        checks.error_rate()
    );
    println!("{}", metrics.result_line(options.trace, &checks));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use byterobust_incident::JsonValue;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let options =
            parse_args(&args("--workload prod_job --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(options.workload, "prod_job");
        assert_eq!(options.seed, 7);
        assert_eq!(options.seconds, 10.0);
        assert!(options.trace);
        assert!(!options.child);
    }

    #[test]
    fn rejects_unknown_workloads_and_malformed_values() {
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload mega_fleet --seed -1")).is_err());
        assert!(parse_args(&args("--workload mega_fleet --trace 2")).is_err());
        assert!(parse_args(&args("--workload mega_fleet --seconds 0")).is_err());
        assert!(parse_args(&args("--workload mega_fleet --seed")).is_err());
    }

    #[test]
    fn held_out_seed_differs_from_the_default() {
        assert_ne!(DEFAULT_SEED, HELD_OUT_SEED);
    }

    fn members(value: &JsonValue) -> Vec<&str> {
        match value {
            JsonValue::Object(members) => members.iter().map(|(key, _)| key.as_str()).collect(),
            other => panic!("expected an object, found {other:?}"),
        }
    }

    fn items(value: &JsonValue) -> &[JsonValue] {
        match value {
            JsonValue::Array(items) => items,
            other => panic!("expected an array, found {other:?}"),
        }
    }

    fn number(value: &JsonValue) -> f64 {
        match value {
            JsonValue::F64(x) => *x,
            JsonValue::U64(n) => *n as f64,
            other => panic!("expected a number, found {other:?}"),
        }
    }

    /// `BENCHMARK.json` round-trips through the codec, has exactly its six
    /// keys, and declares exactly the workloads and metrics this program
    /// emits, with the same units.
    #[test]
    fn benchmark_json_round_trips_and_matches_the_program() {
        let text = include_str!("../../BENCHMARK.json");
        let document = JsonValue::parse(text).expect("BENCHMARK.json parses");
        assert_eq!(JsonValue::parse(&document.render()).unwrap(), document);
        assert_eq!(
            members(&document),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );

        let command: Vec<&str> = items(document.get("command").unwrap())
            .iter()
            .map(|part| part.as_str().unwrap())
            .collect();
        assert!(command.len() <= 32 && command.iter().all(|part| part.len() <= 200));
        assert!(command.contains(&"perfbench/Cargo.toml"));
        let paths: Vec<&str> = items(document.get("paths").unwrap())
            .iter()
            .map(|path| path.as_str().unwrap())
            .collect();
        assert_eq!(paths, ["perfbench"]);
        let run_seconds = document.get("run_seconds").unwrap().as_u64().unwrap();
        assert!((1..=60).contains(&run_seconds));

        let workloads: Vec<&str> = items(document.get("workloads").unwrap())
            .iter()
            .map(|workload| {
                assert_eq!(members(workload), ["name", "why"]);
                let why = workload.get("why").unwrap().as_str().unwrap();
                assert!(why.len() <= 200 && !why.contains('\n'));
                workload.get("name").unwrap().as_str().unwrap()
            })
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let declared = |key: &str, keys: &[&str]| -> Vec<(String, String, JsonValue)> {
            items(document.get(key).unwrap())
                .iter()
                .map(|metric| {
                    assert_eq!(members(metric), keys);
                    let name = metric.get("name").unwrap().as_str().unwrap();
                    let unit = metric.get("unit").unwrap().as_str().unwrap();
                    assert!(metrics::valid_name(name), "bad name {name}");
                    assert!(metrics::valid_unit(unit), "bad unit {unit}");
                    let better = metric.get("better").unwrap().as_str().unwrap();
                    assert!(better == "higher" || better == "lower");
                    let bound = metric.get("bound").cloned().unwrap_or(JsonValue::Null);
                    (name.to_string(), unit.to_string(), bound)
                })
                .collect()
        };
        let end_to_end = declared("end_to_end", &["name", "unit", "better", "bound"]);
        let emitted: Vec<(String, String)> = metrics::END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        let listed: Vec<(String, String)> = end_to_end
            .iter()
            .map(|(name, unit, _)| (name.clone(), unit.clone()))
            .collect();
        assert_eq!(listed, emitted);
        let bounds: Vec<f64> = end_to_end.iter().map(|(_, _, b)| number(b)).collect();
        assert!(bounds.iter().all(|&bound| bound > 0.0 && bound <= 0.25));
        let setup = bounds[listed.iter().position(|(n, _)| n == "setup_s").unwrap()];
        assert!(bounds.iter().all(|&bound| bound <= setup));

        let per_layer = declared("per_layer", &["name", "unit", "better"]);
        let emitted: Vec<(String, String)> = metrics::PER_LAYER
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        let listed: Vec<(String, String)> = per_layer
            .into_iter()
            .map(|(name, unit, _)| (name, unit))
            .collect();
        assert_eq!(listed, emitted);
        assert!(text.len() <= 64 * 1024);
    }
}
