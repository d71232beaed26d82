use perfbench::runner::{run, Options};
use perfbench::stats::result_line;
use perfbench::workload::Workload;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Options, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    Ok(Options {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
        seed: value("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: value("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload <navigate|cold_jump|search_edit> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(out) => {
            for line in &out.report {
                eprintln!("{line}");
            }
            println!("{{\"run\": {}}}", out.record);
            println!(
                "{}",
                result_line(out.correct, out.attempted, out.failed, &out.metrics)
            );
            if out.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
