//! The repository benchmark. One run is one seeded pipeline through the
//! public entry points: LayerGCN set-up and `train_epoch`, refresh plus
//! `evaluate_ranking_parallel`, a checkpoint, then `lrgcn_serve::serve`
//! over an `Engine` opened from it, driven open-loop by the workload's
//! schedule. See `README.md` for the workloads, the metrics and which
//! layer metric should move which end-to-end metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_read|serve_write_mix --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --golden
//! ```
//!
//! The last stdout line is the result object; the line before it is the
//! run record (environment, per-phase accounting, checks, overhead).
//! A run starts interlude processes of this executable (`--interlude CKPT
//! --seed N`, see `train::interlude`) one at a time and waits for each.

mod loadgen;
mod measure;
mod metrics;
mod schedule;
mod serving;
mod train;

use lrgcn_obs::json::Value;
use schedule::Workload;
use std::path::{Path, PathBuf};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    /// Print `golden_recall.txt`.
    Golden,
    /// One interlude process of a run (see `train::interlude`).
    Interlude {
        seed: u64,
        ckpt: PathBuf,
    },
}

fn parse_args(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 32.0;
    let mut trace = false;
    let mut golden = false;
    let mut interlude = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=300.0).contains(&seconds) {
                    return Err("--seconds must be in 1..=300".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v:?}")),
                }
            }
            "--golden" => golden = true,
            "--interlude" => interlude = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if golden {
        return Ok(Mode::Golden);
    }
    let seed = seed.ok_or("--seed is required")?;
    if let Some(ckpt) = interlude {
        return Ok(Mode::Interlude { seed, ckpt });
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    }))
}

/// Removes the run's scratch directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Fails, harmlessly, while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    lrgcn_tensor::par::set_threads(cpus);
    let args = match parse_args(&argv) {
        Ok(Mode::Run(a)) => a,
        Ok(Mode::Interlude { seed, ckpt }) => match train::interlude(seed, &ckpt) {
            Ok(samples) => {
                println!("{}", samples.to_json().render());
                return;
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        },
        Ok(Mode::Golden) => {
            let log = train::data().log;
            println!(
                "# training seed, recall@{} f64 bits, recall@{}",
                train::RECALL_K,
                train::RECALL_K
            );
            for seed in 0..train::GOLDEN_SEEDS {
                println!("{}", train::golden_line(&log, seed));
            }
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = WorkDir(Path::new(".perfbench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    let _ = std::fs::remove_dir_all(&work.0);
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("perfbench: creating {}: {e}", work.0.display());
        std::process::exit(2);
    }
    match metrics::run(args.workload, args.seed, args.seconds, args.trace, &work.0) {
        Ok(out) => {
            println!(
                "{}",
                Value::obj([("perfbench_record", out.record)]).render()
            );
            println!("{}", out.result.render());
            if !out.correct {
                drop(work);
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            drop(work);
            std::process::exit(1);
        }
    }
}
