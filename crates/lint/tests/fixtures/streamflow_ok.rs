//! Clean counterpart: the flowed label is on-scheme and unique, and so
//! is the bare literal at the second site.

pub fn shuffle(rng: &mut SimRng) {
    let label = stream_name();
    rng.split(&label);
}

fn stream_name() -> &'static str {
    "area/deck"
}

pub fn direct(rng: &mut SimRng) {
    rng.split("area/direct");
}
