pub fn schedules(rng: &SimRng, op: &str, seg: u32) {
    let a = rng.split("campaign/faults/vz/0");
    let b = rng.split(&format!("campaign/faults/{op}/{seg}"));
    // lint: allow(rng-stream-labels, replays the drive walk to align fault windows)
    let c = rng.split("campaign/drive-walk");
}
