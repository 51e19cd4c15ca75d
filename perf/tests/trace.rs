use wheels_perf::trace::{self_ns, self_ns_by_layer, Span, Tracer};

fn span(name: &str, id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: name.to_string(),
        id,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_counts_overlapping_children_once() {
    let spans = [
        span("campaign.run", 1, None, 0, 100),
        // Two parallel children overlap on [30, 40].
        span("campaign.shard", 2, Some(1), 10, 40),
        span("campaign.shard", 3, Some(1), 30, 60),
        // A grandchild is charged to its parent only.
        span("view.splice", 4, Some(2), 12, 20),
    ];
    assert_eq!(self_ns(&spans), vec![50, 22, 30, 8]);
}

#[test]
fn children_outside_the_parent_count_only_inside_it() {
    let spans = [
        span("checkpoint.tail", 1, None, 100, 200),
        span("view.splice", 2, Some(1), 50, 120),
        span("view.splice", 3, Some(1), 190, 260),
    ];
    assert_eq!(self_ns(&spans)[0], 100 - 20 - 10);
}

#[test]
fn self_time_sums_per_layer() {
    let spans = [
        span("checkpoint.tail", 1, None, 0, 100),
        span("view.splice", 2, Some(1), 10, 30),
        span("view.splice", 3, Some(1), 50, 60),
        span("checkpoint.index", 4, None, 100, 105),
    ];
    let by_layer = self_ns_by_layer(&spans);
    assert_eq!(by_layer["checkpoint"], 70 + 5);
    assert_eq!(by_layer["view"], 30);
}

#[test]
fn tracer_nests_spans_and_an_off_tracer_records_nothing() {
    let on = Tracer::on();
    let v = on.span("outer.op", None, |id| on.span("inner.op", id, |_| 7));
    assert_eq!(v, 7);
    let spans = on.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[0].name, "inner.op");
    assert_eq!(spans[0].parent, Some(spans[1].id));
    assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);

    let off = Tracer::off();
    assert_eq!(off.span("outer.op", None, |id| id), None);
    assert!(off.spans().is_empty());
}
