//! `simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a readable table, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Writes the same
//! result, with the metrics registry snapshot of the traced pass, to
//! `results/` in the package directory.

use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match simbench::Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match simbench::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let file = dir.join(format!(
        "{}-seed{}-trace{}.json",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    ));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&file, report.artifact(&opts)))
    {
        eprintln!("simbench: cannot write {}: {e}", file.display());
    }
    print!("{}", report.table(&opts.workload));
    println!("{}", report.json());
    ExitCode::SUCCESS
}
