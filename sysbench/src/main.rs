//! `sysbench` — the repo's one system benchmark (see README.md).
//!
//! ```sh
//! cargo run --release --manifest-path sysbench/Cargo.toml -- \
//!     --workload kv-read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--workload` one workload runs once, untraced (`--trace 0`, the
//! end-to-end metrics) or traced (`--trace 1`, the per-layer metrics).
//! Without it every workload runs both passes. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod gen;
mod lockstep;
mod openloop;
mod probes;
mod rig;
mod shadow;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use workloads::{Metric, Outcome, Workload, WORKLOADS};

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: sysbench [--workload <{}>] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: "sysbench/out".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}\n{}", usage());
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(workloads::find(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = value.into(),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    Ok(args)
}

/// First line of a command's standard output, or "unknown".
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// The reproducibility record: everything needed to repeat the run.
fn environment(args: &Args) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    vec![
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("cpu", cpu),
        ("rustc", first_line("rustc", &["--version"])),
        ("git_commit", first_line("git", &["rev-parse", "HEAD"])),
    ]
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `"name": {"value": v, "unit": "u"}` entries, comma-separated.
fn json_metrics(prefix: &str, metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&format!("{prefix}{}", m.name)),
                m.value,
                json_string(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn metric(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

fn print_outcome(o: &Outcome) {
    let pass = if o.traced { "traced" } else { "untraced" };
    println!("== {} ({pass} pass) ==", o.workload);
    for m in o.end_to_end.iter().chain(&o.per_layer) {
        println!("  {:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let f = &o.fail;
    println!(
        "  {:<44} {:>16.6} ratio  ({} of {} attempted)",
        "fail_ratio",
        o.fail_ratio,
        f.total(),
        o.attempted
    );
    println!("  {:<44} {:>16} count", "lost_acks", f.lost_acks);
    println!(
        "  failures: sheds {} timeouts {} missing {} wrong {} sync_violations {} index_violations {}",
        f.sheds, f.timeouts, f.missing, f.wrong, f.sync_violations, f.index_violations
    );
    println!(
        "  acked ops {}; counters cover the first {} acked ops{}; request_stream_hash {:016x}",
        o.acked,
        o.counted_ops,
        if o.counted_full {
            ""
        } else {
            " (run ended before the counted prefix did)"
        },
        o.request_stream_hash
    );
    // Lockstep only: elsewhere the client records no span of its own.
    let spanned = metric(&o.per_layer, "client.work_ns_per_op").is_some_and(|ns| ns > 0.0);
    if let Some(residual) = metric(&o.per_layer, "client.budget_residual_ratio").filter(|_| spanned)
    {
        let sum: f64 = [
            "net.send_ns_per_op",
            "kernel.serve_ns_per_op",
            "checkpoint.round_ns_per_op",
            "net.harvest_ns_per_op",
            "client.work_ns_per_op",
        ]
        .iter()
        .filter_map(|n| metric(&o.per_layer, n))
        .sum();
        println!(
            "  budget: send + serve + checkpoint + harvest + client = {sum:.0} ns/op, \
             residual {:.2} % of 1/goodput",
            residual * 100.0
        );
    }
    println!(
        "  verdict: {}",
        if o.correct { "correct" } else { "INCORRECT" }
    );
}

/// Writes the run's record (environment + metrics) next to the traces.
fn write_record(out: &Path, o: &Outcome, env: &[(&'static str, String)]) {
    std::fs::create_dir_all(out).expect("create output directory");
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", json_string(k), json_string(v)))
        .collect();
    let metrics = json_metrics("", &o.end_to_end) + if o.traced { ", " } else { "" };
    let body = format!(
        "{{\"workload\": {}, \"traced\": {}, {}, \"acked\": {}, \"counted_ops\": {}, \
         \"request_stream_hash\": \"{:016x}\", \"attempted\": {}, \"failed\": {}, \"lost_acks\": {}, \
         \"fail_ratio\": {}, \"correct\": {}, \"metrics\": {{{}{}}}}}\n",
        json_string(o.workload),
        o.traced,
        env_json.join(", "),
        o.acked,
        o.counted_ops,
        o.request_stream_hash,
        o.attempted,
        o.fail.total(),
        o.fail.lost_acks,
        o.fail_ratio,
        o.correct,
        metrics,
        json_metrics("", &o.per_layer),
    );
    let name = format!("run-{}-trace{}.json", o.workload, o.traced as u8);
    std::fs::write(out.join(name), body).expect("write run record");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let env = environment(&args);
    for (k, v) in &env {
        println!("{k}: {v}");
    }

    let mut outcomes = Vec::new();
    match args.workload {
        Some(w) => outcomes.push(workloads::run(
            w,
            args.seed,
            args.seconds,
            args.trace,
            &args.out,
        )),
        None => {
            for w in &WORKLOADS {
                for traced in [false, true] {
                    outcomes.push(workloads::run(
                        w,
                        args.seed,
                        args.seconds,
                        traced,
                        &args.out,
                    ));
                }
            }
        }
    }

    let suite = args.workload.is_none();
    let mut entries = Vec::new();
    for o in &outcomes {
        print_outcome(o);
        write_record(&args.out, o, &env);
        let prefix = if suite {
            format!("{}.", o.workload)
        } else {
            String::new()
        };
        entries.push(json_metrics(
            &prefix,
            if o.traced {
                &o.per_layer
            } else {
                &o.end_to_end
            },
        ));
    }
    // Tracing overhead: the two passes of a workload ran the same
    // requests, one traced and one not.
    for pair in outcomes.chunks(2).filter(|_| suite) {
        let untraced = metric(&pair[0].end_to_end, "goodput_ops_s").unwrap_or(0.0);
        let traced = metric(&pair[1].per_layer, "client.traced_goodput_ops_s").unwrap_or(0.0);
        println!(
            "{}: client.trace_overhead_ratio {:.4} (traced / untraced goodput)",
            pair[0].workload,
            traced / untraced
        );
    }
    let correct = outcomes.iter().all(|o| o.correct);
    let attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|o| o.fail.total()).sum();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        entries.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
