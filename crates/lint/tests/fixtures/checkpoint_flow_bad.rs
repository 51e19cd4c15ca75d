//! Create → write → rename with no fsync in between: the rename can
//! publish a file whose bytes never reached the disk, even though the
//! created file is renamed into place as the idiom asks.

use std::fs::{self, File};
use std::io::Write;

pub fn publish(dir: &std::path::Path) -> std::io::Result<()> {
    let tmp = dir.join("out.tmp");
    let mut f = File::create(&tmp)?;
    f.write_all(b"frame")?;
    fs::rename(&tmp, dir.join("out.bin"))?;
    Ok(())
}
