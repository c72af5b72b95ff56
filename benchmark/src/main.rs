//! End-to-end benchmark of the Optimus training step; see README.md.
//!
//! ```text
//! optimus-stepbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod ledger;
mod live;
mod p2p;
mod plan;
mod probe;
mod report;
mod stats;
mod workload;

use workload::{Workload, WORKLOADS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::by_name(v).ok_or_else(|| format!("unknown workload '{v}'"))?)
            }
            "--seed" => seed = Some(v.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = v.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).unwrap_or_else(|e| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("error: {e}");
        eprintln!(
            "usage: optimus-stepbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            names.join("|")
        );
        std::process::exit(2);
    });
    let w = &args.workload;
    println!(
        "workload {} seed {} seconds {} trace {} host {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bench::host_stamp().to_string()
    );
    let report = if args.trace {
        live::run_traced(w, args.seed, args.seconds)
    } else {
        live::run(w, args.seed, args.seconds)
    };
    report.print(args.trace);
}
