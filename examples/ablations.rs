//! Print the mechanism ablations as the EXPERIMENTS.md §Ablations table.
//!
//! ```text
//! cargo run --release --example ablations
//! ```

fn main() {
    print!("{}", wheels::experiments::ablations::run());
}
