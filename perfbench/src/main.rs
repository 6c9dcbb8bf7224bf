//! The cgselect benchmark: three workloads, each run on `LocalSpmd`,
//! `ChannelMp` and `SocketMp` over the identical generated input, with
//! every answer checked against a sorted oracle. See `README.md`.
//!
//! ```text
//! perfbench --workload <fresh_exact|serve_mixed|ingest_churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the same untraced pass, then a
//! traced pass, and reports the per-layer metrics plus the tracing
//! overhead, writing a Chrome trace to `<out>/trace-<workload>-<seed>.json`.

mod gen;
mod metrics;
mod oracle;
mod probes;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Metric;
use oracle::{Oracle, Tally};
use trace::Tracer;
use workload::{Leg, Pass, Spec, Workload, BACKENDS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(15.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

/// The SocketMp leg needs the engine's `cgselect-shard-worker` binary. The
/// benchmark never skips that leg: a missing worker fails the run.
fn check_worker() -> Result<(), String> {
    let path = std::env::var_os("CGSELECT_WORKER_BIN").ok_or(
        "CGSELECT_WORKER_BIN is not set: the socket_mp leg needs the cgselect-shard-worker \
         binary (perfbench/run.sh builds it and sets the variable)",
    )?;
    if !PathBuf::from(&path).is_file() {
        return Err(format!("CGSELECT_WORKER_BIN={} is not a file", path.to_string_lossy()));
    }
    Ok(())
}

/// Runs the three legs of one pass and cross-checks their answers.
fn run_pass(
    args: &Args,
    spec: Spec,
    data: &[u64],
    oracle: &Oracle,
    traced: bool,
) -> Result<Vec<Leg>, String> {
    let pass = Pass {
        workload: args.workload,
        backends: &BACKENDS,
        spec,
        seed: args.seed,
        data,
        oracle,
        leg_time: Duration::from_secs_f64(args.seconds / BACKENDS.len() as f64),
        traced,
        epoch: Instant::now(),
    };
    pass.run()
}

fn tally(legs: &[Leg], tally: &mut Tally) {
    for problems in legs.iter().flat_map(|l| &l.problems) {
        tally.record(problems);
    }
}

fn print_legs(label: &str, legs: &[Leg]) {
    for leg in legs {
        println!(
            "{label} {:<10} ops={:<6} latency samples={:<6} segments={} setups={}",
            leg.backend.name(),
            leg.problems.len(),
            leg.segments.iter().map(|s| s.latency_ms.len()).sum::<usize>(),
            leg.segments.len(),
            leg.setup_s.len(),
        );
    }
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn json_result(correct: bool, tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    ))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    check_worker()?;
    oracle::self_test().map_err(|e| format!("checker self-test failed: {e}"))?;
    let spec = Spec::full();
    let data = gen::resident(args.seed, args.workload.shape(), spec.resident);
    let oracle = Oracle::new(data.clone());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} n={} shards={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.resident,
        spec.shards
    );
    let mut tally_all = Tally::default();
    let untraced = run_pass(&args, spec, &data, &oracle, false)?;
    tally(&untraced, &mut tally_all);
    print_legs("untraced", &untraced);
    let e2e = metrics::end_to_end(&untraced);
    println!("end-to-end (untraced run):");
    print_metrics(&e2e);
    let reported = if args.trace {
        let traced = run_pass(&args, spec, &data, &oracle, true)?;
        tally(&traced, &mut tally_all);
        print_legs("traced", &traced);
        let mut probe_tracer = Tracer::new(true, Instant::now(), BACKENDS.len(), 99);
        let probes = probes::run(&mut probe_tracer, &data, spec.shards);
        let probe_spans = probe_tracer.into_spans();
        let layers = metrics::per_layer(args.workload, &untraced, &traced, &probes);
        print!("{}", metrics::self_time_table(args.workload, &traced));
        let mut spans: Vec<_> = traced.iter().flat_map(|l| l.spans.iter().cloned()).collect();
        spans.extend(probe_spans);
        let names: Vec<&str> = BACKENDS.iter().map(|b| b.name()).chain(["probes"]).collect();
        std::fs::create_dir_all(&args.out)
            .map_err(|e| format!("create {}: {e}", args.out.display()))?;
        let path = args.out.join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
        std::fs::write(&path, trace::chrome_json(&spans, &names))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("chrome trace: {} ({} spans)", path.display(), spans.len());
        println!("per-layer (traced run):");
        print_metrics(&layers);
        layers
    } else {
        e2e
    };
    for message in &tally_all.messages {
        println!("problem: {message}");
    }
    println!("{}", json_result(tally_all.failed == 0, &tally_all, &reported)?);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
