//! The single experiment driver of the reproduction.
//!
//! ```text
//! cargo run --release -p janus-bench --bin janus -- list
//! cargo run --release -p janus-bench --bin janus -- run table1 --quick --out table1.json
//! cargo run --release -p janus-bench --bin janus -- sweep specs/smoke.json --quick
//! cargo run --release -p janus-bench --bin janus -- all --quick
//! ```
//!
//! Every experiment the seventeen retired per-figure binaries ran is
//! reachable as `janus run <name>`; `janus list` enumerates them together
//! with every registered policy, scenario, autoscaler and admission policy.
//! With `--out`, the written artefact is immediately read back and
//! decode-checked with the `janus-json` parser, so CI catches an
//! unparseable document in the same step that produced it.

use janus_bench::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", cli::USAGE);
        return;
    }
    let (command, flags) = match cli::parse(args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    if let Err(e) = cli::execute(&command, &flags) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
