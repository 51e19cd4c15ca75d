//! The consolidated [`Dataset`] on disk: the WCD1 binary codec
//! ([`wcd`]) and the stable byte codes it stores enums as.
//!
//! WCD1 is a column catalogue: every field of every row table is one
//! fixed-width section, so the encoder streams each column straight off
//! the row tables and the decoder builds rows straight from the
//! checksummed sections, with no columnar copy of the dataset between.
//!
//! Invariants:
//!
//! - **Row order is preserved bit-for-bit.** The encoder visits rows in
//!   table order and the decoder re-emits them in the same order, so a
//!   normalized dataset stays normalized across the round trip.
//! - **Round-trips are lossless.** `f64` fields travel as raw bits,
//!   `Option` fields as a validity column or a sentinel code
//!   ([`NONE_CODE`]), enums as the stable codes below. Property tests in
//!   `crates/core/tests/column_properties.rs` pin
//!   `decode(encode(ds)) == ds` for every table on shuffled inserts.
//! - **JSON stays the interchange format.** Nothing here touches the
//!   serde schema `tests/dataset_roundtrip.rs` pins; the binary format
//!   is a cache/transport layer, not a replacement.
//!
//! # Enum codes
//!
//! Codes are part of the on-disk format and must never be renumbered:
//! operators/technologies/timezones use their `ALL`-array position,
//! the other enums their declaration order. `0xFF` ([`NONE_CODE`])
//! encodes `None` for optional enum columns.

pub mod wcd;

use wheels_geo::route::ZoneClass;
use wheels_radio::tech::{Direction, Technology};
use wheels_ran::operator::Operator;
use wheels_ran::session::HandoverKind;
use wheels_sim_core::time::Timezone;
use wheels_transport::servers::ServerKind;

use crate::disrupt::FaultKind;
use crate::records::{Dataset, TestKind, TestStatus};

use wcd::WcdError;

/// Sentinel code for `None` in optional enum columns.
pub const NONE_CODE: u8 = 0xFF;

/// Define a stable `u8` code for an enum: an encoder, a fallible decoder,
/// and an `Option` pair using [`NONE_CODE`].
macro_rules! codec {
    ($(#[$m:meta])* $enc:ident / $dec:ident : $ty:ty { $($variant:path => $code:literal),+ $(,)? }) => {
        $(#[$m])*
        pub fn $enc(v: $ty) -> u8 {
            match v {
                $($variant => $code,)+
            }
        }

        /// Decode the code written by the paired encoder; `Err` on a
        /// byte outside the catalogue (corrupt or foreign data).
        pub fn $dec(code: u8) -> Result<$ty, WcdError> {
            match code {
                $($code => Ok($variant),)+
                other => Err(WcdError::Invalid(format!(
                    "{} is not a valid {} code",
                    other,
                    stringify!($ty)
                ))),
            }
        }
    };
}

codec!(
    /// Operator code (the paper's column order).
    op_code / op_from: Operator {
        Operator::Verizon => 0,
        Operator::TMobile => 1,
        Operator::Att => 2,
    }
);

codec!(
    /// Traffic-direction code.
    dir_code / dir_from: Direction {
        Direction::Downlink => 0,
        Direction::Uplink => 1,
    }
);

codec!(
    /// Technology code (slowest to fastest, `Technology::ALL` order).
    tech_code / tech_from: Technology {
        Technology::Lte => 0,
        Technology::LteA => 1,
        Technology::Nr5gLow => 2,
        Technology::Nr5gMid => 3,
        Technology::Nr5gMmWave => 4,
    }
);

codec!(
    /// Road-zone code.
    zone_code / zone_from: ZoneClass {
        ZoneClass::City => 0,
        ZoneClass::Suburban => 1,
        ZoneClass::Highway => 2,
    }
);

codec!(
    /// Timezone code (west to east).
    tz_code / tz_from: Timezone {
        Timezone::Pacific => 0,
        Timezone::Mountain => 1,
        Timezone::Central => 2,
        Timezone::Eastern => 3,
    }
);

codec!(
    /// Server-kind code.
    server_code / server_from: ServerKind {
        ServerKind::Cloud => 0,
        ServerKind::Edge => 1,
    }
);

codec!(
    /// Test-kind code (declaration order).
    kind_code / kind_from: TestKind {
        TestKind::DownlinkTput => 0,
        TestKind::UplinkTput => 1,
        TestKind::Rtt => 2,
        TestKind::Ar => 3,
        TestKind::Cav => 4,
        TestKind::Video => 5,
        TestKind::Gaming => 6,
    }
);

codec!(
    /// Test-status code.
    status_code / status_from: TestStatus {
        TestStatus::Completed => 0,
        TestStatus::Partial => 1,
        TestStatus::Lost => 2,
    }
);

codec!(
    /// Fault-kind code.
    fault_code / fault_from: FaultKind {
        FaultKind::ServerOutage => 0,
        FaultKind::AppCrash => 1,
        FaultKind::LoggerGap => 2,
        FaultKind::ClockDrift => 3,
    }
);

codec!(
    /// Handover-kind code.
    ho_code / ho_from: HandoverKind {
        HandoverKind::Horizontal4g => 0,
        HandoverKind::Horizontal5g => 1,
        HandoverKind::Up4gTo5g => 2,
        HandoverKind::Down5gTo4g => 3,
    }
);

/// Encode an optional enum with [`NONE_CODE`] for `None`.
fn opt_code<T>(v: Option<T>, enc: impl Fn(T) -> u8) -> u8 {
    v.map_or(NONE_CODE, enc)
}

/// Decode an optional enum column byte.
fn opt_from<T>(code: u8, dec: impl Fn(u8) -> Result<T, WcdError>) -> Result<Option<T>, WcdError> {
    if code == NONE_CODE {
        Ok(None)
    } else {
        dec(code).map(Some)
    }
}

fn bool_code(b: bool) -> u8 {
    u8::from(b)
}

fn bool_from(code: u8) -> Result<bool, WcdError> {
    match code {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(WcdError::Invalid(format!(
            "{other} is not a valid bool code"
        ))),
    }
}

fn idx(i: u32) -> usize {
    // lint: allow(lossy-cast, u32 position to usize is widening on every supported target)
    i as usize
}

fn to_u64(n: usize) -> u64 {
    u64::try_from(n).expect("usize fits u64 on every supported target")
}

fn to_usize(n: u64, what: &str) -> Result<usize, WcdError> {
    usize::try_from(n).map_err(|_| WcdError::Invalid(format!("{what} count {n} exceeds usize")))
}

/// Auto-detecting loader: WCD1 bytes decode without a parse step,
/// anything else is treated as the pinned JSON interchange format.
/// Returns the row dataset plus the format that was detected.
pub fn load_dataset(bytes: &[u8]) -> Result<(Dataset, &'static str), WcdError> {
    if bytes.starts_with(wcd::MAGIC) {
        Ok((wcd::decode(bytes)?, "bin"))
    } else {
        let text = std::str::from_utf8(bytes).map_err(|_| {
            WcdError::Invalid("dataset file is neither WCD1 nor UTF-8 JSON".to_string())
        })?;
        let ds = serde_json::from_str(text)
            .map_err(|e| WcdError::Invalid(format!("JSON dataset does not parse: {e}")))?;
        Ok((ds, "json"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_codes_roundtrip() {
        assert_eq!(opt_from(NONE_CODE, tech_from).unwrap(), None);
        for t in Technology::ALL {
            assert_eq!(
                opt_from(opt_code(Some(t), tech_code), tech_from).unwrap(),
                Some(t)
            );
        }
        assert!(tech_from(9).is_err());
        assert!(bool_from(2).is_err());
    }

    #[test]
    fn load_dataset_detects_json() {
        let ds = Dataset::default();
        let json = serde_json::to_string(&ds).expect("serializes");
        let (back, fmt) = load_dataset(json.as_bytes()).expect("loads");
        assert_eq!(fmt, "json");
        assert_eq!(back, ds);
        assert!(load_dataset(b"garbage \xff\xfe").is_err());
    }
}
