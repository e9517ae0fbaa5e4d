//! Spans the benchmark records around its own calls into each layer, and
//! the Chrome trace that joins them with the engine's step timelines.

use std::time::Instant;

use ratel_sim::{chrome_trace_json_timelines, FlowEvent, SpanKind, Timeline, TimelineSpan};

/// One span on the benchmark's clock (seconds since the run began).
#[derive(Debug, Clone)]
struct Span {
    track: &'static str,
    label: String,
    start: f64,
    end: f64,
    id: Option<usize>,
}

/// The benchmark's span log. It is kept in memory and written once, when
/// the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    engine: Timeline,
}

impl SpanLog {
    /// A log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            engine: Timeline::new("engine"),
        }
    }

    /// Seconds since the log was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Records a finished span on `track`; `id` ties a span to a step.
    pub fn record(
        &mut self,
        track: &'static str,
        label: impl Into<String>,
        start: f64,
        end: f64,
        id: Option<usize>,
    ) {
        self.spans.push(Span {
            track,
            label: label.into(),
            start,
            end,
            id,
        });
    }

    /// Appends one engine step's timeline (rebased to the step's start)
    /// at `offset` seconds on the benchmark clock.
    pub fn add_engine_step(&mut self, step: &Timeline, offset: f64) {
        let tracks: Vec<usize> = step.tracks.iter().map(|t| self.engine.track(t)).collect();
        for s in &step.spans {
            self.engine.spans.push(TimelineSpan {
                track: tracks[s.track],
                start: s.start + offset,
                end: s.end + offset,
                ..s.clone()
            });
        }
        for f in &step.flows {
            self.engine.flows.push(FlowEvent {
                name: f.name.clone(),
                from_track: tracks[f.from_track],
                from_ts: f.from_ts + offset,
                to_track: tracks[f.to_track],
                to_ts: f.to_ts + offset,
            });
        }
    }

    /// The Chrome trace-event JSON of everything recorded: the
    /// benchmark's spans as one process, the engine's as another.
    pub fn chrome_trace(&self) -> String {
        let mut bench = Timeline::new("enginebench");
        for s in &self.spans {
            let track = bench.track(s.track);
            bench.spans.push(TimelineSpan {
                track,
                label: s.label.clone(),
                kind: SpanKind::Other,
                start: s.start,
                end: s.end,
                task: s.id,
                bytes: None,
            });
        }
        chrome_trace_json_timelines(&[bench, self.engine.clone()])
    }
}
