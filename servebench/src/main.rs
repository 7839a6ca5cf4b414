//! Command-line entry point:
//!
//! ```text
//! servebench --workload <serve_hot|adhoc|write_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints human-readable `#` lines, then one JSON object as the last
//! line of standard output. Exits non-zero on a wrong result, an
//! invalid run, or an environment that would change the program.

use std::process::ExitCode;
use std::time::Duration;

use gbj_servebench::data::{
    CLASSES, DEPARTMENTS, DIM_ROWS, EMPLOYEES, FACT_ROWS, PARTS, SUPPLIERS,
};
use gbj_servebench::workload::{
    run, Config, Stop, Workload, PLAN_CACHE, SETUP_REPEATS, WRITES_PER_SECOND,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Refuse to measure a program other than the default one: every
/// `GBJ_*` variable is an override `EngineOptions::default()` or the
/// repository's scripts read, and a debug build is not what users run.
fn environment_guard() -> Result<(), String> {
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("GBJ_"))
        .collect();
    if !overrides.is_empty() {
        return Err(format!(
            "refusing to run with overrides set: {}",
            overrides.join(", ")
        ));
    }
    if cfg!(debug_assertions) {
        return Err("refusing to run a build that is not optimized (use --release)".into());
    }
    Ok(())
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = environment_guard() {
        eprintln!("servebench: {e}");
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={nproc} commit={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit()
    );
    println!(
        "# sizes: Fact={FACT_ROWS} Dim={DIM_ROWS} Employee={EMPLOYEES} Department={DEPARTMENTS} \
         Part={PARTS} (classes={CLASSES}) Supplier={SUPPLIERS}; plan_cache={PLAN_CACHE} \
         setups={SETUP_REPEATS}; load: 1 closed-loop reader, plus on write_mix 1 open-loop \
         writer at {WRITES_PER_SECOND}/s"
    );
    let cfg = Config {
        workload: args.workload,
        seed: args.seed,
        stop: Stop::Time(Duration::from_secs_f64(args.seconds)),
        trace: args.trace,
    };
    let outcome = match run(cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("servebench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("# {:<28} {:>16} {}", m.name, json_number(m.value), m.unit);
    }
    if let Some(why) = &outcome.invalid {
        eprintln!("servebench: invalid run: {why}");
        return ExitCode::FAILURE;
    }
    let correct = outcome.failed == 0;
    let metrics: Vec<String> = outcome
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
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
