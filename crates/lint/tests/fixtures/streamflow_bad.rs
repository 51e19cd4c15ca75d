//! The label reaches `split` through a local bound to a callee's return
//! literal — invisible at the call site, resolved through value flow,
//! and off the `area/rest` scheme.

pub fn shuffle(rng: &mut SimRng) {
    let label = stream_name();
    rng.split(&label);
}

fn stream_name() -> &'static str {
    "plainlabel"
}
