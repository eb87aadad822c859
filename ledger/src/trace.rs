//! Spans recorded from outside the program: the ledger times the public
//! calls it makes into each layer, keeps the spans in memory, and writes
//! them out as Chrome trace-event JSON when the run ends.
//!
//! A span is `{name, start, end, parent, request}`; spans of one request
//! (one op and its staged replica) share the request id. A span may cover
//! a batch of `units` equal calls (or kilobytes): calls that take tens of
//! nanoseconds cannot be timed one by one without the clock reads
//! dominating.
//!
//! A span named like a per-layer metric feeds that metric. The name's
//! suffix says how: `_ms`, `_us`, `_ns` (and `_us_per_kb`) are the
//! speed-corrected duration per unit — the mean over one request's spans
//! of that name, then the median over requests; anything else is a value
//! recorded with [`Trace::value`]. Other span names only show in the
//! Chrome trace.

use crate::clock::{Meter, TimeSource};
use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub request: u64,
    /// How many equal calls (or kB) the span covers.
    pub units: f64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans and recorded values of one traced run.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    request: u64,
    /// Speed-correction factor of each request, from the probes around it.
    factors: BTreeMap<u64, f64>,
    /// Counts and ratios recorded at layer boundaries, by metric name.
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
            factors: BTreeMap::new(),
            values: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start a new request: spans recorded from here on carry its id.
    pub fn begin_request(&mut self) -> u64 {
        assert!(self.stack.is_empty(), "requests do not nest inside spans");
        self.request += 1;
        self.request
    }

    /// The speed-correction factor ([`crate::clock::Timed::factor`]) of
    /// the probes around request `request`.
    pub fn set_factor(&mut self, request: u64, factor: f64) {
        self.factors.insert(request, factor);
    }

    /// Run `call` as a request of its own, between two of `meter`'s
    /// probes, which give its spans their speed correction.
    pub fn request<T: TimeSource, R>(
        &mut self,
        meter: &mut Meter<T>,
        call: impl FnOnce(&mut Trace) -> R,
    ) -> R {
        let request = self.begin_request();
        let (result, timed) = meter.time(|| call(self));
        self.set_factor(request, timed.factor());
        result
    }

    fn open(&mut self, name: &'static str, units: f64, start_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
            units,
        });
        self.stack.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn close(&mut self, index: usize, end_ns: u64) {
        assert_eq!(self.stack.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = end_ns;
    }

    /// A span around `call`, which may record child spans.
    pub fn span<R>(&mut self, name: &'static str, call: impl FnOnce(&mut Trace) -> R) -> R {
        let index = self.open(name, 1.0, self.now_ns());
        let result = call(self);
        self.close(index, self.now_ns());
        result
    }

    /// A childless span around `units` equal calls (or kB) made by `call`.
    pub fn batch<R>(&mut self, name: &'static str, units: f64, call: impl FnOnce() -> R) -> R {
        let index = self.open(name, units, self.now_ns());
        let result = call();
        self.close(index, self.now_ns());
        result
    }

    /// A childless span whose units are known only from what `call`
    /// returns (the size of a document it renders).
    pub fn sized<R>(
        &mut self,
        name: &'static str,
        call: impl FnOnce() -> R,
        units: impl FnOnce(&R) -> f64,
    ) -> R {
        let index = self.open(name, 1.0, self.now_ns());
        let result = call();
        self.close(index, self.now_ns());
        self.spans[index].units = units(&result);
        result
    }

    /// A childless span around one call.
    pub fn leaf<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        self.batch(name, 1.0, call)
    }

    /// Record a count or ratio measured at a layer boundary.
    pub fn value(&mut self, name: &'static str, value: f64) {
        self.values.entry(name).or_default().push(value);
    }

    /// A span's duration minus the part of it its child spans cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_ns)
            .sum();
        self.spans[index].duration_ns().saturating_sub(children)
    }

    /// Speed-corrected duration of the spans directly under request
    /// `request`'s span named `root`, summed: what the stages of a
    /// replica account for.
    pub fn staged_ns(&self, request: u64, root: &str) -> f64 {
        let factor = self.factors.get(&request).copied().unwrap_or(1.0);
        let Some(root) = self
            .spans
            .iter()
            .position(|s| s.request == request && s.name == root)
        else {
            return 0.0;
        };
        self.spans
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.duration_ns() as f64 * factor)
            .sum()
    }

    /// Per request that has spans named `name`: their speed-corrected
    /// duration per unit, ns. The calls of one stage within one request
    /// differ (an `IPOptions` explores for longer than a `Sink`), but the
    /// same calls recur in every request: the mean within a request is a
    /// homogeneous sample where the single calls are not.
    fn per_unit_ns(&self, name: &str) -> Vec<f64> {
        let mut by_request: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            let sums = by_request.entry(span.request).or_default();
            sums.0 += span.duration_ns() as f64;
            sums.1 += span.units;
        }
        by_request
            .into_iter()
            .map(|(request, (ns, units))| {
                ns * self.factors.get(&request).copied().unwrap_or(1.0) / units
            })
            .collect()
    }

    /// The number metric `name` reports: see the module docs.
    pub fn metric(&self, name: &str) -> Option<f64> {
        let scale = if name.ends_with("_ms") {
            1e6
        } else if name.ends_with("_us") || name.ends_with("_us_per_kb") {
            1e3
        } else if name.ends_with("_ns") {
            1.0
        } else {
            return self.values.get(name).map(|v| stats::median(v));
        };
        // A duration-named metric may also be derived and recorded.
        if let Some(values) = self.values.get(name) {
            return Some(stats::median(values));
        }
        let samples = self.per_unit_ns(name);
        (!samples.is_empty()).then(|| stats::median(&samples) / scale)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// event per span, timestamps in µs.
    pub fn chrome_json(&self) -> String {
        // Child time per span, in one pass (`self_ns` rescans every span).
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, s)| {
                format!(
                    "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                     \"args\":{{\"request\":{},\"parent\":{},\"units\":{},\"self_us\":{:.3}}}}}",
                    s.name,
                    s.start_ns as f64 / 1e3,
                    s.duration_ns() as f64 / 1e3,
                    s.request,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.units,
                    s.duration_ns().saturating_sub(child_ns[index]) as f64 / 1e3,
                )
            })
            .collect();
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }

    #[cfg(test)]
    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: self.request,
            units: 1.0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minijson;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut trace = Trace::new();
        let request = trace.begin_request();
        trace.push("replica", 0, 1000, None);
        trace.push("core.outline_ms", 100, 300, Some(0));
        trace.push("core.fold_ms", 300, 900, Some(0));
        trace.push("wire.report_encode_us", 400, 500, Some(2));
        assert_eq!(trace.self_ns(0), 200);
        assert_eq!(trace.self_ns(1), 200);
        assert_eq!(trace.self_ns(2), 500);
        assert_eq!(trace.self_ns(3), 100);
        // Self times partition the root span.
        assert_eq!((0..4).map(|i| trace.self_ns(i)).sum::<u64>(), 1000);
        // The root's stages are its direct children, speed-corrected.
        assert_eq!(trace.staged_ns(request, "replica"), 800.0);
        trace.set_factor(request, 0.5);
        assert_eq!(trace.staged_ns(request, "replica"), 400.0);
        assert_eq!(trace.staged_ns(request, "no such span"), 0.0);
    }

    #[test]
    fn nested_spans_record_their_parent_and_request() {
        let mut trace = Trace::new();
        let first = trace.begin_request();
        trace.span("replica", |t| {
            t.leaf("pipeline.parse_config_us", || ());
            t.span("core.verify_inline_ms", |t| {
                t.batch("cache.get_ns", 8.0, || ())
            });
        });
        let second = trace.begin_request();
        trace.leaf("pipeline.parse_config_us", || ());
        let parents: Vec<_> = trace.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(0), Some(0), Some(2), None]);
        let requests: Vec<_> = trace.spans.iter().map(|s| s.request).collect();
        assert_eq!(requests, [first, first, first, first, second]);
        assert_eq!(trace.spans[3].units, 8.0);
        for span in &trace.spans {
            assert!(span.end_ns >= span.start_ns);
        }
    }

    #[test]
    fn metrics_are_corrected_medians_per_unit_in_the_units_their_name_says() {
        let mut trace = Trace::new();
        for (request, ns) in [(1u64, 2_000_000u64), (2, 4_000_000), (3, 3_000_000)] {
            assert_eq!(trace.begin_request(), request);
            trace.push("core.fold_ms", 0, ns, None);
            trace.spans.last_mut().unwrap().units = 2.0;
            trace.push("cache.get_ns", 0, ns / 1000, None);
            trace.value("core.suspects", request as f64 * 10.0);
        }
        // Request 2 ran on a host twice as slow as nominal.
        trace.set_factor(2, 0.5);
        assert_eq!(trace.metric("core.fold_ms"), Some(1.0));
        assert_eq!(trace.metric("cache.get_ns"), Some(2000.0));
        assert_eq!(trace.metric("core.suspects"), Some(20.0));
        assert_eq!(trace.metric("core.outline_ms"), None);
        trace.value("daemon.overhead_ms", 7.5);
        assert_eq!(trace.metric("daemon.overhead_ms"), Some(7.5));
    }

    #[test]
    fn the_chrome_document_is_json_with_one_event_per_span() {
        let mut trace = Trace::new();
        trace.begin_request();
        trace.span("op", |t| t.leaf("symbex.explore_us", || ()));
        let doc = minijson::parse(&trace.chrome_json()).expect("valid json");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("symbex.explore_us")
        );
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|p| p.as_f64()),
            Some(0.0)
        );
    }
}
