//! `perfbench` — one benchmark session of one workload.
//!
//! `run.py` is the entry point: it builds this binary, runs several
//! sessions per run (each a fresh process, so every session pays its own
//! cold set-up), and folds them into the final result line. A session
//! prints one flat JSON object on its last stdout line.
//!
//! Usage: `perfbench --workload <wire_hot|wire_cold_mix|sim_city>
//!         --seed N --seconds S --trace <0|1> [--counts]
//!         --param key=value ...`
//!
//! `--counts` runs only set-up and the deterministic count probes; the
//! benchmark's tests run it twice and require identical output.

mod alloc;
mod city;
mod ledger;
mod stream;
mod util;
mod wire;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

use util::Params;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    counts: bool,
    params: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        counts: false,
        params: Vec::new(),
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed: not a number")?,
            "--seconds" => a.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?,
            "--trace" => a.trace = value()? == "1",
            "--counts" => a.counts = true,
            "--param" => a.params.push(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn run(a: &Args) -> Result<util::Json, String> {
    let p = Params::parse(&a.params)?;
    match a.workload.as_str() {
        "wire_hot" | "wire_cold_mix" => wire::run(
            &wire::WireCfg::from_params(&p)?,
            a.seed,
            a.seconds,
            a.trace,
            a.counts,
        ),
        "sim_city" => city::run(
            &city::CityCfg::from_params(&p)?,
            a.seed,
            a.seconds,
            a.trace,
            a.counts,
        ),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn main() {
    let outcome = parse_args().and_then(|a| run(&a));
    match outcome {
        Ok(json) => println!("{}", json.render()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
