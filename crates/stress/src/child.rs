//! The supervised campaign child: one checkpointed run, then exit.
//!
//! The harness spawns `wheels-stress child …` as a separate process so
//! it can SIGKILL it at an arbitrary journal watermark — an in-process
//! campaign could only be stopped cooperatively, which is exactly the
//! failure mode a crash-safety soak must *not* rely on. The child runs
//! the campaign through the ordinary checkpointed path (no special
//! hooks — it must die the way a real run dies), then publishes its
//! dataset (the canonical export) atomically so the supervisor can
//! trust whatever file exists. The supervisor reads the run's counters
//! off the journal it extended.

use wheels_core::campaign::Campaign;
use wheels_core::checkpoint::write_atomic;

use crate::options::ChildOptions;

/// Run one campaign to completion (unless killed first). Returns the
/// process exit code: 0 on success, 3 on a campaign/checkpoint error,
/// 4 on an output-write error.
pub fn run(opts: &ChildOptions) -> i32 {
    let mut cfg = opts.profile.config(opts.seed, opts.faults);
    cfg.threads = opts.threads;
    let campaign = Campaign::standard(opts.seed);
    let dataset = match campaign.run_checkpointed(&cfg, &opts.dir, opts.resume) {
        Ok(view) => view.into_dataset(),
        Err(e) => {
            eprintln!("wheels-stress child: campaign failed: {e}");
            return 3;
        }
    };
    let bytes = match serde_json::to_string(&dataset) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("wheels-stress child: cannot serialize dataset: {e}");
            return 4;
        }
    };
    if let Err(e) = write_atomic(&opts.out, bytes.as_bytes()) {
        eprintln!(
            "wheels-stress child: cannot write {}: {e}",
            opts.out.display()
        );
        return 4;
    }
    0
}
