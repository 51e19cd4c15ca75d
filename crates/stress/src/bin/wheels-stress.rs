//! `wheels-stress` — chaos soak harness for the checkpointed campaign
//! pipeline. With the `child` subcommand it is the campaign child the
//! harness spawns and kills: `wheels-stress child ARGS` runs the
//! `dataset` export with `ARGS`.

use wheels_experiments::cli;
use wheels_stress::{harness, options};

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("child") {
        argv.next();
        std::process::exit(cli::dataset(argv));
    }
    let opts = match options::parse(argv) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("wheels-stress: {e}");
            std::process::exit(2);
        }
    };
    let report = match harness::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("wheels-stress: {e}");
            std::process::exit(2);
        }
    };
    let path = opts
        .report
        .clone()
        .unwrap_or_else(|| opts.dir.join("report.json"));
    match serde_json::to_string(&report.to_value()) {
        Ok(json) => {
            if let Err(e) = wheels_core::checkpoint::write_atomic(&path, json.as_bytes()) {
                eprintln!("wheels-stress: cannot write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("wheels-stress: cannot serialize report: {e}"),
    }
    print!("{}", report.render());
    println!("report: {}", path.display());
    std::process::exit(report.exit_code());
}
