//! Exporters: metrics-summary JSON and `chrome://tracing` trace files.
//!
//! Both artifacts are plain `kvec_json::Json` documents, so they
//! round-trip through the workspace's own parser — the schema smoke test
//! CI runs — and need no external tooling to produce. The chrome trace
//! uses the Trace Event Format's JSON-object flavor (`traceEvents` array
//! of complete `"ph": "X"` events plus `"ph": "C"` counter samples),
//! which `chrome://tracing` and Perfetto both open directly.

use crate::metrics;
use crate::span;
use kvec_json::Json;
use std::io;
use std::path::Path;

fn finite(v: f64) -> Json {
    // kvec-json serializes non-finite floats as null (serde-compatible);
    // make that explicit so summaries of empty metrics stay parseable.
    if v.is_finite() {
        Json::Float(v)
    } else {
        Json::Null
    }
}

/// A point-in-time summary of every registered metric:
/// `{"counters": {..}, "gauges": {..}, "histograms": {..}}`, each keyed
/// by metric name in sorted order. Histogram entries carry exact
/// count/sum/mean/min/max plus estimated p50/p90/p95/p99. Windowed
/// instruments report their whole-run view here.
pub fn metrics_summary() -> Json {
    let (counters, gauges, hists) = metrics::snapshot();
    let counters = Json::Obj(
        counters
            .into_iter()
            .map(|(n, v)| (n.to_string(), Json::Int(v as i128)))
            .collect(),
    );
    let gauges = Json::Obj(
        gauges
            .into_iter()
            .map(|(n, value, high, sets)| {
                (
                    n.to_string(),
                    Json::obj([
                        ("value", finite(value)),
                        ("high_water", finite(high)),
                        ("sets", Json::Int(sets as i128)),
                    ]),
                )
            })
            .collect(),
    );
    let histograms = Json::Obj(
        hists
            .into_iter()
            .map(|h| {
                (
                    h.name().to_string(),
                    Json::obj([
                        ("count", Json::Int(h.count() as i128)),
                        ("sum", finite(h.sum())),
                        ("mean", finite(h.mean())),
                        ("min", finite(h.min())),
                        ("max", finite(h.max())),
                        ("p50", finite(h.quantile(0.50))),
                        ("p90", finite(h.quantile(0.90))),
                        ("p95", finite(h.quantile(0.95))),
                        ("p99", finite(h.quantile(0.99))),
                    ]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("counters", counters),
        ("gauges", gauges),
        ("histograms", histograms),
    ])
}

/// Builds a `chrome://tracing`-compatible document from the retained
/// spans and gauge samples of this process.
pub fn chrome_trace() -> Json {
    let r = span::lock_retained();
    let mut events: Vec<Json> = Vec::with_capacity(r.spans.len() + r.gauges.len() + 1);
    events.push(Json::obj([
        ("name", Json::Str("process_name".into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Int(1)),
        ("tid", Json::Int(0)),
        ("args", Json::obj([("name", Json::Str("kvec".into()))])),
    ]));
    for s in &r.spans {
        events.push(Json::obj([
            ("name", Json::Str(s.name.into())),
            ("cat", Json::Str("span".into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Float(s.start_us)),
            ("dur", Json::Float(s.dur_us)),
            ("pid", Json::Int(1)),
            ("tid", Json::Int(s.tid as i128)),
            ("args", Json::obj([("depth", Json::Int(s.depth as i128))])),
        ]));
    }
    for g in &r.gauges {
        events.push(Json::obj([
            ("name", Json::Str(g.name.into())),
            ("cat", Json::Str("gauge".into())),
            ("ph", Json::Str("C".into())),
            ("ts", Json::Float(g.ts_us)),
            ("pid", Json::Int(1)),
            (
                "args",
                Json::Obj(vec![(g.name.to_string(), Json::Float(g.value))]),
            ),
        ]));
    }
    Json::obj([
        ("displayTimeUnit", Json::Str("ms".into())),
        ("traceEvents", Json::Arr(events)),
        ("dropped_records", Json::Int(r.dropped as i128)),
    ])
}

/// Writes [`metrics_summary`] pretty-printed to `path`.
pub fn write_metrics_summary(path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, metrics_summary().dump_pretty())
}

/// Writes [`chrome_trace`] to `path` (compact — trace files get large).
pub fn write_chrome_trace(path: impl AsRef<Path>) -> io::Result<()> {
    std::fs::write(path, chrome_trace().dump())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_shape_round_trips() {
        // Registration is global; use names unique to this test.
        metrics::counter("t.export.calls").add(3);
        metrics::gauge("t.export.depth").set(2.0);
        metrics::histogram("t.export.lat").record(10.0);
        let text = metrics_summary().dump_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .unwrap()
                .get("t.export.calls")
                .unwrap(),
            &Json::Int(3)
        );
        let hist = parsed
            .get("histograms")
            .unwrap()
            .get("t.export.lat")
            .unwrap();
        assert_eq!(hist.get("count").unwrap(), &Json::Int(1));
        assert_eq!(hist.get("min").unwrap().as_f64().unwrap(), 10.0);
    }

    #[test]
    fn chrome_trace_round_trips_and_has_metadata() {
        let text = chrome_trace().dump();
        let parsed = Json::parse(&text).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        assert_eq!(events[0].get("ph").unwrap().as_str().unwrap(), "M");
    }
}
