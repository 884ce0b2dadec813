//! The NewsWire rows of the footprint census are a pure function of the
//! seed: two runs of the small shape in one process report the same bytes
//! for every structure, so `ledger/footprint.txt` can gate them exactly.

use newswire_repro::census::{self, Shape};

#[test]
fn two_runs_of_the_small_census_shape_report_equal_footprints() {
    for shape in [Shape::PublishSteady, Shape::LossyRevisions] {
        let subscribers = census::SUBSCRIBERS / 10;
        let first = census::rows(shape, &census::run(shape, subscribers, 1));
        let second = census::rows(shape, &census::run(shape, subscribers, 1));
        assert_eq!(first, second, "{}", shape.name());
        let bytes = |name: &str| first.iter().find(|(n, _)| n.ends_with(name)).unwrap().1;
        for name in ["cache", "deliveries", "coverage", "reconcile"] {
            assert!(bytes(name) > 0, "{}: nothing in {name}", shape.name());
        }
    }
}
