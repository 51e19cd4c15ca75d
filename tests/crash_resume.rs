//! Crash-consistency matrix for campaign checkpointing.
//!
//! The guarantee under test: a `--checkpoint` campaign killed at **any
//! byte** of its journal can be resumed and produces a dataset
//! byte-identical to an uninterrupted run — at any thread count, with
//! faults off or on. The harness simulates the kill by truncating a
//! completed run's journal at every frame boundary and at mid-frame
//! offsets (inside both the length/checksum prefix and the payload),
//! then resuming from the mutilated file.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use wheels_core::analysis::view::DatasetView;
use wheels_core::campaign::{Campaign, CampaignConfig};
use wheels_core::checkpoint::{self, frame_ends, CheckpointError, Journal, JOURNAL_FILE};
use wheels_core::disrupt::FaultConfig;
use wheels_core::records::{Dataset, ShardRecords};
use wheels_experiments::world::{Scale, World};
use wheels_ran::operator::Operator;
use wheels_serve::protocol::Request;
use wheels_serve::query;

/// A tiny campaign with a real shard plan: 3 cycles split one per shard
/// across 3 operators = 9 shard frames behind the header.
fn cfg(faults: FaultConfig, threads: Option<usize>) -> CampaignConfig {
    CampaignConfig {
        seed: 42,
        max_cycles: Some(3),
        include_apps: false,
        include_static: false,
        cycle_stride_s: 40_000,
        shard_cycles: Some(1),
        threads,
        faults,
    }
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("crash_resume")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn json(ds: &Dataset) -> String {
    serde_json::to_string(ds).unwrap()
}

/// Plant a journal truncated at `cut` bytes in a fresh checkpoint dir.
fn plant_truncated(journal: &[u8], cut: usize, dir: &Path) {
    std::fs::write(dir.join(JOURNAL_FILE), &journal[..cut]).unwrap();
}

#[test]
fn kill_point_matrix_resumes_byte_identical() {
    let campaign = Campaign::standard(42);
    for faults in [FaultConfig::default(), FaultConfig::demo()] {
        let baseline = json(&campaign.run(&cfg(faults, Some(2))));
        let full_dir = tmpdir(&format!("full_faults_{}", faults.enabled));
        let ds = campaign
            .run_checkpointed(&cfg(faults, Some(2)), &full_dir, false)
            .unwrap()
            .into_dataset();
        assert_eq!(json(&ds), baseline, "checkpointing must not change output");
        let bytes = std::fs::read(full_dir.join(JOURNAL_FILE)).unwrap();
        let ends: Vec<usize> = frame_ends(&full_dir)
            .unwrap()
            .into_iter()
            .map(|e| usize::try_from(e).unwrap())
            .collect();
        assert_eq!(ends.len(), 10, "header + 9 shard frames, got {ends:?}");
        assert_eq!(*ends.last().unwrap(), bytes.len());
        // Kill points: every frame boundary, one offset inside each
        // frame's 12-byte length/checksum prefix, and one mid-payload.
        let mut cuts: Vec<usize> = ends.clone();
        for w in ends.windows(2) {
            cuts.push(w[0] + 5);
            cuts.push((w[0] + w[1]) / 2);
        }
        cuts.sort_unstable();
        cuts.dedup();
        for cut in cuts {
            for threads in [1usize, 4] {
                let dir = tmpdir(&format!("cut_{}_{cut}_t{threads}", faults.enabled));
                plant_truncated(&bytes, cut, &dir);
                let resumed = campaign
                    .run_checkpointed(&cfg(faults, Some(threads)), &dir, true)
                    .unwrap_or_else(|e| panic!("resume at cut {cut}, {threads} threads: {e}"))
                    .into_dataset();
                assert_eq!(
                    json(&resumed),
                    baseline,
                    "cut {cut}, {threads} threads, faults {}",
                    faults.enabled
                );
                // The resumed run healed the journal: torn tail gone,
                // every shard re-journalled.
                let healed = frame_ends(&dir).unwrap();
                assert_eq!(healed.len(), 10, "cut {cut}: journal not healed");
            }
        }
    }
}

#[test]
fn torn_header_is_refused_and_fresh_checkpoint_recovers() {
    let campaign = Campaign::standard(42);
    let c = cfg(FaultConfig::default(), Some(2));
    let full_dir = tmpdir("header_full");
    let baseline = json(
        &campaign
            .run_checkpointed(&c, &full_dir, false)
            .unwrap()
            .into_dataset(),
    );
    let bytes = std::fs::read(full_dir.join(JOURNAL_FILE)).unwrap();
    let header_end = usize::try_from(frame_ends(&full_dir).unwrap()[0]).unwrap();
    // A kill anywhere inside journal creation (before the header frame is
    // complete) cannot happen through `Journal::create`'s atomic rename —
    // but disk corruption can get there, and resume must refuse rather
    // than trust an unverifiable file.
    for cut in [0, 2, header_end / 2, header_end - 1] {
        let dir = tmpdir(&format!("header_cut_{cut}"));
        plant_truncated(&bytes, cut, &dir);
        let err = campaign.run_checkpointed(&c, &dir, true).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Invalid(_)),
            "cut {cut}: {err}"
        );
        // Nothing was salvageable; a fresh --checkpoint run in the same
        // directory replaces the wreck and completes normally.
        let ds = campaign
            .run_checkpointed(&c, &dir, false)
            .unwrap()
            .into_dataset();
        assert_eq!(json(&ds), baseline);
    }
    // --resume with no journal at all: a clear error, not a silent fresh
    // start that would mask a mistyped directory.
    let dir = tmpdir("no_journal");
    let err = campaign.run_checkpointed(&c, &dir, true).unwrap_err();
    match err {
        CheckpointError::Invalid(d) => assert!(d.contains("--checkpoint"), "{d}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn view_from_journal_replays_to_identical_dataset() {
    // Replaying the journal through the incremental `ingest_shard`
    // pipeline must reproduce the campaign bytes exactly, f64 byte
    // totals included.
    let campaign = Campaign::standard(42);
    let c = cfg(FaultConfig::default(), Some(1));
    let baseline = json(&campaign.run(&c));
    let dir = tmpdir("from_journal");
    campaign.run_checkpointed(&c, &dir, false).unwrap();
    let fp = campaign.fingerprint(&c);
    let (view, st) = DatasetView::from_journal(&dir, &fp).unwrap();
    assert_eq!(st.delivered(), 9, "expected all 9 shard frames to replay");
    assert_eq!(json(&view.into_dataset()), baseline);

    // The replay is strictly read-only: a torn tail yields the intact
    // prefix without healing the file.
    let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
    let ends = frame_ends(&dir).unwrap();
    let cut = usize::try_from(ends[4]).unwrap() + 7;
    let torn_dir = tmpdir("from_journal_torn");
    plant_truncated(&bytes, cut, &torn_dir);
    let (_, st) = DatasetView::from_journal(&torn_dir, &fp).unwrap();
    assert_eq!(st.delivered(), 4, "4 intact shard frames behind the header");
    assert_eq!(
        st.next_offset, ends[4],
        "resume cursor must point at the torn frame's start"
    );
    let len = std::fs::metadata(torn_dir.join(JOURNAL_FILE))
        .unwrap()
        .len();
    assert_eq!(len, u64::try_from(cut).unwrap(), "journal was mutated");
}

#[test]
fn mismatched_fingerprints_are_refused_with_diagnostics() {
    let campaign = Campaign::standard(42);
    let c = cfg(FaultConfig::default(), Some(2));
    let dir = tmpdir("mismatch");
    let baseline = json(
        &campaign
            .run_checkpointed(&c, &dir, false)
            .unwrap()
            .into_dataset(),
    );

    let refuse =
        |other: &CampaignConfig, field: &str| match campaign.run_checkpointed(other, &dir, true) {
            Err(CheckpointError::Mismatch(d)) => {
                assert!(d.contains(field), "diagnostic for {field}: {d}")
            }
            Err(other) => panic!("expected Mismatch for {field}, got {other}"),
            Ok(_) => panic!("a journal with a different {field} was silently merged"),
        };
    // Different seed.
    let mut other = c.clone();
    other.seed = 43;
    refuse(&other, "seed");
    // Different scale (cycle cap — also reshapes the shard plan).
    let mut other = c.clone();
    other.max_cycles = Some(2);
    refuse(&other, "max_cycles");
    // Different FaultConfig.
    let mut other = c.clone();
    other.faults = FaultConfig::demo();
    refuse(&other, "faults");
    // `threads` is NOT part of the run identity: the engine guarantees
    // thread-count invariance, so a journal written at 2 threads resumes
    // fine at 4 — and still reproduces the baseline bytes.
    let mut other = c.clone();
    other.threads = Some(4);
    let ds = campaign
        .run_checkpointed(&other, &dir, true)
        .unwrap()
        .into_dataset();
    assert_eq!(json(&ds), baseline);
}

/// Every fold of one journal holds the same raw dataset, sample-table
/// order and Table 1 byte totals included: the 4-thread run that wrote
/// it, a 1-thread resume of the complete journal and an offline replay.
/// Each exports the 1-thread run's bytes, and a replay of a 2-thread
/// journal answers `table1` exactly like a replay of a 1-thread one.
#[test]
fn every_fold_of_a_journal_holds_the_writers_dataset() {
    let campaign = Campaign::standard(42);
    let faults = FaultConfig::demo();
    let baseline = json(&campaign.run(&cfg(faults, Some(1))));
    let fp = campaign.fingerprint(&cfg(faults, None));
    let table1 = |dir: &Path| {
        let (view, _) = DatasetView::from_journal(dir, &fp).unwrap();
        query::respond(&World::from_view(Scale::Quick, 42, view), &Request::Table1)
    };
    let one_thread = tmpdir("folds_t1");
    campaign
        .run_checkpointed(&cfg(faults, Some(1)), &one_thread, false)
        .unwrap();
    let want_table1 = table1(&one_thread);
    for rep in 0..3 {
        let dir = tmpdir(&format!("folds_{rep}"));
        let written = campaign
            .run_checkpointed(&cfg(faults, Some(4)), &dir, false)
            .unwrap();
        let resumed = campaign
            .run_checkpointed(&cfg(faults, Some(1)), &dir, true)
            .unwrap();
        let (replayed, st) = DatasetView::from_journal(&dir, &fp).unwrap();
        assert_eq!(st.delivered(), 9, "rep {rep}: frames replayed");
        let raw = json(written.dataset());
        assert_eq!(
            json(resumed.dataset()),
            raw,
            "rep {rep}: resumed raw dataset"
        );
        assert_eq!(
            json(replayed.dataset()),
            raw,
            "rep {rep}: replayed raw dataset"
        );
        for (what, view) in [
            ("write", written),
            ("resume", resumed),
            ("replay", replayed),
        ] {
            assert_eq!(
                json(&view.into_dataset()),
                baseline,
                "rep {rep}: {what} export"
            );
        }
        let two_threads = tmpdir(&format!("folds_t2_{rep}"));
        campaign
            .run_checkpointed(&cfg(faults, Some(2)), &two_threads, false)
            .unwrap();
        assert_eq!(table1(&two_threads), want_table1, "rep {rep}: table1");
    }
}

/// A checksummed frame that does not match the plan (a job past its
/// end, or another operator's shard) is refused on resume by name.
#[test]
fn frames_that_do_not_match_the_plan_are_refused() {
    let campaign = Campaign::standard(42);
    let c = cfg(FaultConfig::default(), Some(2));
    let [first, second, ..] = Operator::ALL;
    for (job, operator, want) in [(99, first, "no shard"), (0, second, first.label())] {
        let dir = tmpdir(&format!("off_plan_{job}"));
        let mut journal = Journal::create(&dir, &campaign.fingerprint(&c)).unwrap();
        let rec = ShardRecords {
            job,
            operator,
            dataset: Dataset::default(),
            cells: Vec::new(),
        };
        journal.append(job, &rec).unwrap();
        match campaign.run_checkpointed(&c, &dir, true) {
            Err(CheckpointError::Invalid(d)) => {
                assert!(
                    d.contains(&format!("shard {job}")) && d.contains(want),
                    "{d}"
                )
            }
            other => panic!("job {job}: expected Invalid, got {other:?}"),
        }
    }
}

/// Expect an `Invalid` error naming `what`.
fn refused<T>(got: Result<T, CheckpointError>, what: &str) {
    match got {
        Err(CheckpointError::Invalid(d)) => assert!(d.contains(what), "{d}"),
        Err(other) => panic!("expected Invalid naming {what:?}, got {other}"),
        Ok(_) => panic!("expected Invalid naming {what:?}, got Ok"),
    }
}

/// A complete 9-frame journal written at 2 threads: its bytes, its
/// frame boundaries (header end, then each shard frame's end) and the
/// job of each shard frame in file order.
fn written_journal(campaign: &Campaign, c: &CampaignConfig) -> (Vec<u8>, Vec<usize>, Vec<usize>) {
    let dir = tmpdir("written");
    campaign.run_checkpointed(c, &dir, false).unwrap();
    let ends = frame_ends(&dir)
        .unwrap()
        .into_iter()
        .map(|e| usize::try_from(e).unwrap())
        .collect();
    let mut order = Vec::new();
    checkpoint::tail(&dir, &campaign.fingerprint(c), |job, _| {
        order.push(job);
        Ok(())
    })
    .unwrap();
    (std::fs::read(dir.join(JOURNAL_FILE)).unwrap(), ends, order)
}

/// For each shard frame k, flip one payload byte of frame k and leave
/// every later frame intact: a resume at each of `threads` workers
/// delivers exactly the frames before k, `reps` times over, and
/// truncates at frame k's start; `DatasetView::from_journal` delivers
/// the same frames and leaves the file alone; and a sink error at
/// frame k, in an intact journal, delivers no later frame. With
/// `export`, a resumed run of each flipped journal also exports the
/// uninterrupted run's bytes.
fn check_ordered_commit(name: &str, reps: usize, threads: &[usize], export: bool) {
    let campaign = Campaign::standard(42);
    let c = cfg(FaultConfig::default(), Some(2));
    let fp = campaign.fingerprint(&c);
    let (bytes, ends, order) = written_journal(&campaign, &c);
    assert_eq!(order.len(), 9);
    let baseline = export.then(|| json(&campaign.run(&c)));
    for (k, &job_k) in order.iter().enumerate() {
        let (start, end) = (ends[k], ends[k + 1]);
        let mut flipped = bytes.clone();
        flipped[(start + 12 + end) / 2] ^= 0x10;
        let dir = tmpdir(&format!("{name}_{k}"));
        let journal = dir.join(JOURNAL_FILE);
        let len = |p: &Path| usize::try_from(std::fs::metadata(p).unwrap().len()).unwrap();
        for _ in 0..reps {
            for &t in threads {
                std::fs::write(&journal, &flipped).unwrap();
                let mut got = Vec::new();
                let (_, cursor) = Journal::resume(&dir, &fp, Some(t), |rec| {
                    got.push(rec.job);
                    Ok(())
                })
                .unwrap();
                assert_eq!(got, order[..k], "frame {k} flipped, {t} threads");
                assert_eq!(cursor.next_offset, u64::try_from(start).unwrap());
                assert_eq!(len(&journal), start, "frame {k}: truncated at its start");

                std::fs::write(&journal, &bytes).unwrap();
                let mut got = Vec::new();
                let stop = Journal::resume(&dir, &fp, Some(t), |rec| {
                    got.push(rec.job);
                    if rec.job == job_k {
                        return Err(CheckpointError::Invalid("sink stops".to_string()));
                    }
                    Ok(())
                });
                refused(stop, "sink stops");
                assert_eq!(got, order[..=k], "sink error at frame {k}, {t} threads");
                assert_eq!(len(&journal), bytes.len(), "a failed resume cuts nothing");
            }
        }
        std::fs::write(&journal, &flipped).unwrap();
        let (_, st) = DatasetView::from_journal(&dir, &fp).unwrap();
        let before: BTreeSet<usize> = order[..k].iter().copied().collect();
        assert_eq!(st.jobs, before, "from_journal, frame {k} flipped");
        assert_eq!(st.next_offset, u64::try_from(start).unwrap());
        assert_eq!(len(&journal), flipped.len(), "from_journal is read-only");
        if let Some(baseline) = &baseline {
            for &t in threads {
                std::fs::write(&journal, &flipped).unwrap();
                let resumed = campaign
                    .run_checkpointed(&cfg(FaultConfig::default(), Some(t)), &dir, true)
                    .unwrap()
                    .into_dataset();
                assert_eq!(&json(&resumed), baseline, "frame {k} flipped, {t} threads");
            }
        }
    }
}

/// The walk commits frames in file order and nothing from the first
/// torn frame on, even though every later frame verifies.
#[test]
fn a_flipped_frame_stops_every_fold_right_before_it() {
    check_ordered_commit("ordered", 1, &[1, 4], true);
}

/// [`a_flipped_frame_stops_every_fold_right_before_it`]'s walks, 200
/// times over at 4 workers, to shake out ordering races.
#[test]
#[ignore = "stress: 200 walks per flipped frame; run with --ignored in release"]
fn a_flipped_frame_stops_every_fold_right_before_it_x200() {
    check_ordered_commit("ordered_x200", 200, &[4], false);
}

/// A frame repeating a shard an earlier frame holds, or for a shard the
/// plan lacks, is refused by name by the resume and the offline replay.
#[test]
fn repeated_and_off_plan_frames_are_refused_by_every_fold() {
    let campaign = Campaign::standard(42);
    let c = cfg(FaultConfig::default(), Some(2));
    let fp = campaign.fingerprint(&c);
    let (bytes, ends, order) = written_journal(&campaign, &c);
    let mut repeated = bytes.clone();
    repeated.extend_from_slice(&bytes[ends[3]..ends[4]]);
    let off_plan = tmpdir("off_plan_frame");
    std::fs::write(off_plan.join(JOURNAL_FILE), &bytes).unwrap();
    let (mut journal, _) = Journal::resume(&off_plan, &fp, None, |_| Ok(())).unwrap();
    let rec = ShardRecords {
        job: 9,
        operator: Operator::Att,
        dataset: Dataset::default(),
        cells: Vec::new(),
    };
    journal.append(9, &rec).unwrap();
    let off_plan = std::fs::read(off_plan.join(JOURNAL_FILE)).unwrap();
    let repeat = format!("repeats shard {}", order[3]);
    for (name, journal, what) in [
        ("repeat", repeated, repeat.as_str()),
        ("off_plan", off_plan, "no shard 9"),
    ] {
        let dir = tmpdir(&format!("refuse_{name}"));
        std::fs::write(dir.join(JOURNAL_FILE), &journal).unwrap();
        refused(DatasetView::from_journal(&dir, &fp), what);
        for t in [1, 4] {
            refused(
                campaign.run_checkpointed(&cfg(FaultConfig::default(), Some(t)), &dir, true),
                what,
            );
            assert_eq!(
                std::fs::read(dir.join(JOURNAL_FILE)).unwrap(),
                journal,
                "{name}: a refused resume leaves the journal as it was"
            );
        }
    }
}
