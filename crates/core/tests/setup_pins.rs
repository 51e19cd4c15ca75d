//! Byte pins of the world set-up: every field of every drive-trace
//! sample and of every deployed cell, hashed for two seeds.
//!
//! `world_build_is_deterministic` compares two builds that share the
//! same generators, so a generator change that moves one sample passes
//! it; only the report hash would notice, after a full campaign run.
//! These pins catch such a change in the set-up itself. They were
//! recorded before the set-up path was optimised (zone window, one city
//! list per trace, one `(zone, tz)` table per deployment), so they also
//! prove that optimisation drew nothing differently.

use wheels_core::campaign::Campaign;
use wheels_geo::trace::DriveTrace;
use wheels_ran::cells::Deployment;

/// FNV-1a 64 over a byte stream, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn trace_hash(trace: &DriveTrace) -> u64 {
    let mut h = Fnv::new();
    h.u64(trace.len() as u64);
    for s in trace.samples() {
        h.u64(s.t.as_millis());
        h.f64(s.odo.as_m());
        h.f64(s.pos.lat);
        h.f64(s.pos.lon);
        h.f64(s.speed.as_mps());
        h.bytes(&[s.zone as u8, s.tz as u8, s.day, u8::from(s.static_stop)]);
    }
    h.0
}

fn deployment_hash(d: &Deployment) -> u64 {
    let mut h = Fnv::new();
    h.u64(d.operator.index() as u64);
    h.u64(d.cells().len() as u64);
    for c in d.cells() {
        h.u64(u64::from(c.id.0));
        h.u64(c.operator.index() as u64);
        h.u64(c.tech.index() as u64);
        h.f64(c.odo.as_m());
        h.f64(c.lateral.as_m());
        h.f64(c.power_offset_db);
    }
    h.0
}

/// `(seed, trace hash, deployment hashes in Operator::ALL order)`.
const PINS: [(u64, u64, [u64; 3]); 2] = [
    (
        7,
        0x5397_1fd3_90e9_11d8,
        [
            0xd3be_8e61_919c_303f,
            0xb94f_ce0a_4042_9317,
            0x9027_9961_05ed_ad5a,
        ],
    ),
    (
        2022,
        0x5d33_27fd_1caf_f04a,
        [
            0xb796_f3f6_b410_c62f,
            0xb245_a347_f579_c2dc,
            0xa3d1_906e_9dd0_bb32,
        ],
    ),
];

#[test]
fn setup_outputs_are_pinned() {
    let got = PINS.map(|(seed, _, _)| {
        let campaign = Campaign::standard(seed);
        let deployments: Vec<u64> = campaign.deployments.iter().map(deployment_hash).collect();
        let deployments: [u64; 3] = deployments.try_into().expect("three operators");
        (seed, trace_hash(&campaign.trace), deployments)
    });
    assert_eq!(got, PINS, "set-up outputs moved (seed, trace, deployments)");
}
