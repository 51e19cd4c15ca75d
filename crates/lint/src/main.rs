//! CLI for `wheels-lint`.
//!
//! ```text
//! cargo run -p wheels-lint -- --workspace [--json] [--root DIR]
//! ```
//!
//! Every run applies all ten rules: the five token rules, the four
//! dataflow passes, and the stale-allow audit, which reports any
//! `// lint: allow(…)` that no longer silences a finding. `--json`
//! prints the report as JSON instead of text; `--root DIR` lints the
//! workspace at `DIR` instead of the current directory.
//!
//! Exit codes: 0 clean, 1 findings, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use wheels_lint::lint_workspace;

const USAGE: &str = "usage: wheels-lint --workspace [--json] [--root DIR]";

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json = false;
    let mut root = PathBuf::from(".");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => return usage_error("--root requires a directory"),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }
    if !workspace {
        return usage_error("--workspace is required");
    }

    match lint_workspace(&root) {
        Ok(report) => {
            if json {
                println!("{}", report.render_json());
            } else {
                print!("{}", report.render_text());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("wheels-lint: {e}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("wheels-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
