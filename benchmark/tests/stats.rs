//! Percentile and segment-median arithmetic.

use incgraph_benchmark::stats::{
    median, p50_by_segment, percentile, percentile_of, segment_bounds, segment_values, Summary,
};

#[test]
fn nearest_rank_percentiles() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 95.0), 95.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&v, 0.5), 1.0);
    // Ten samples: p95 is the largest, p50 the fifth.
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(percentile(&v, 95.0), 10.0);
    assert_eq!(percentile(&v, 50.0), 5.0);
    assert_eq!(percentile(&[7.0], 50.0), 7.0);
    assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 50.0), 2.0);
}

#[test]
#[should_panic(expected = "percentile of no samples")]
fn percentile_of_nothing_panics() {
    percentile(&[], 50.0);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[9.0]), 9.0);
}

#[test]
fn segments_are_equal_consecutive_and_drop_the_remainder() {
    assert_eq!(
        segment_bounds(23, 5),
        vec![(0, 4), (4, 8), (8, 12), (12, 16), (16, 20)]
    );
    assert_eq!(
        segment_bounds(5, 5),
        vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    );
    // Too few samples for five segments: one segment with all of them.
    assert_eq!(segment_bounds(3, 5), vec![(0, 3)]);
}

#[test]
fn a_metric_is_the_median_of_its_segment_values() {
    // 15 segment values (3 rigs × 5): the 8th counts. Order does not matter.
    let values: Vec<f64> = (1..=15).rev().map(f64::from).collect();
    let s = Summary::of(&values);
    assert_eq!((s.value, s.min, s.max), (8.0, 1.0, 15.0));
    assert_eq!(Summary::of(&[50.0, 10.0, 40.0, 20.0, 30.0]).value, 30.0);
    assert_eq!(
        Summary::single(3.5),
        Summary {
            value: 3.5,
            min: 3.5,
            max: 3.5
        }
    );
}

#[test]
fn slow_stretches_do_not_move_a_segmented_p50() {
    // Five segments of four samples; two of them are slow stretches.
    let mut samples = vec![10.0; 20];
    samples[4..12].fill(1000.0);
    samples[19] = 12.0;
    assert_eq!(
        p50_by_segment(&samples, 5),
        Summary {
            value: 10.0,
            min: 10.0,
            max: 1000.0
        }
    );
    let means = segment_values(&samples, 5, |seg| {
        seg.iter().sum::<f64>() / seg.len() as f64
    });
    assert_eq!(means, vec![10.0, 1000.0, 1000.0, 10.0, 10.5]);
}
