use wheels_perf::stats::{median, nearest_rank, quartiles, spread, tail_percentile};

#[test]
fn nearest_rank_returns_a_sample_at_or_above_the_share() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
    assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
    assert_eq!(nearest_rank(&v, 90.1), Some(10.0));
    assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
    assert_eq!(
        nearest_rank(&v, 0.0),
        Some(1.0),
        "rank clamps to the first sample"
    );
    assert_eq!(nearest_rank(&[], 50.0), None);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(10), None);
    assert_eq!(tail_percentile(99), None, "p90 of 99 leaves 9 beyond");
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(
        tail_percentile(999),
        Some(90.0),
        "p99 of 999 leaves 9 beyond"
    );
    assert_eq!(tail_percentile(1_000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    assert_eq!(tail_percentile(30_000), Some(99.9));
    assert_eq!(tail_percentile(100_000), Some(99.99));
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    // Reference values from Python's statistics.median and
    // statistics.quantiles(data, n=4).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(median(&ten), Some(5.5));
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    assert_eq!(quartiles(&[5.0, 7.0]), Some((4.5, 7.5)));
    let skewed = [10.0, 10.5, 11.0, 12.0, 30.0];
    assert_eq!(quartiles(&skewed), Some((10.25, 21.0)));
    assert_eq!(median(&[]), None);
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn spread_is_the_quartile_distance_over_the_median() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(spread(&ten), Some((8.25 - 2.75) / 5.5));
    assert_eq!(spread(&[4.0, 4.0, 4.0]), Some(0.0));
    assert_eq!(
        spread(&[0.0, 0.0]),
        None,
        "no spread relative to a zero median"
    );
}
