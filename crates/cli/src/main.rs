//! `wikistale` — detect stale data in Wikipedia infoboxes.
//!
//! End-to-end command-line front end for the `wikistale` crates:
//!
//! ```text
//! wikistale generate --preset small --out raw.wcube
//! wikistale ingest   --xml dump.xml --out raw.wcube
//! wikistale stats    --in raw.wcube
//! wikistale filter   --in raw.wcube --out filtered.wcube
//! wikistale evaluate --in filtered.wcube [--vs-paper]
//! wikistale monitor  --in filtered.wcube --at 2019-06-01 --window 7
//! ```
//!
//! Failures exit with a classified code (see `wikistale help`):
//! 1 other, 2 usage, 3 i/o, 4 corrupt input, 5 error budget exceeded.

mod args;
mod commands;
mod error;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
