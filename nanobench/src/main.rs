//! `nanomap-benchmark --workload NAME [--seed N] [--seconds S]
//! [--trace 0|1] [--pin JOB=VERDICT]...`
//!
//! Prints progress lines starting with `#`, then one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` as the last line.
//! Exits 0 when every check passed, 1 when one failed, 2 on a usage or
//! set-up error (without a result line).

use std::io::Write;
use std::process::ExitCode;

use nanomap_benchmark::bench::{run, Config};
use nanomap_benchmark::workload::Verdict;

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        pins: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cfg.workload = value()?,
            "--seed" => cfg.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cfg.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--pin" => {
                let pin = value()?;
                let (job, verdict) = pin
                    .split_once('=')
                    .ok_or_else(|| format!("--pin takes JOB=VERDICT, not `{pin}`"))?;
                let verdict = Verdict::parse(verdict)
                    .ok_or_else(|| format!("--pin: unknown verdict `{verdict}`"))?;
                cfg.pins.push((job.to_string(), verdict));
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("nanomap-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    match run(&cfg, &mut stdout) {
        Ok(outcome) => {
            let _ = writeln!(stdout, "{}", outcome.to_json().to_compact_string());
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("nanomap-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
