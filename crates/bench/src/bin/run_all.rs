//! Regenerate every table and figure of the paper in one run — a thin alias
//! for `janus all`, kept for muscle memory and existing scripts. Its flags
//! go through the same parser as `janus all`'s.
//!
//! ```text
//! cargo run --release -p janus-bench --bin run_all            # paper scale
//! cargo run --release -p janus-bench --bin run_all -- --quick # smoke scale
//! ```

use janus_bench::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", cli::USAGE);
        return;
    }
    let args = std::iter::once("all".to_string()).chain(args);
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
