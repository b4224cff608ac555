//! [`ObsSnapshot`] ⇄ [`Json`] conversion — the machine-readable side of the
//! observability surface. The ASCII dashboard ([`ObsSnapshot::render`]) is
//! for terminals; this module is for artifacts: CI jobs export a snapshot
//! with [`JsonCodec::to_json`], archive the rendered text, and later runs
//! re-load it with [`JsonCodec::from_json`] to diff trajectories.
//!
//! Schema (all latencies in integer nanoseconds; counters and gauges are
//! `{name: value}` objects in the snapshot's name-sorted order):
//!
//! ```json
//! {
//!   "enabled": true,
//!   "uptime_ns": 123456789,
//!   "counters": {"fleet.worker.0.tasks": 250},
//!   "gauges": {"fleet.queue.depth.normal": 0},
//!   "histograms": [
//!     {"name": "fleet.stage.assess", "count": 1000, "mean_ns": 52000,
//!      "p50_ns": 49152, "p95_ns": 98304, "p99_ns": 98304, "max_ns": 812345}
//!   ],
//!   "events": [
//!     {"seq": 0, "at_ns": 1000, "name": "catalog.roll", "detail": "..."}
//!   ]
//! }
//! ```

use doppler_obs::{HistogramSummary, ObsEvent, ObsSnapshot};

use crate::json::{Json, JsonCodec};
use crate::json_record;

json_record!(HistogramSummary { name, count, mean_ns, p50_ns, p95_ns, p99_ns, max_ns });
json_record!(ObsEvent { seq, at_ns, name, detail });

/// Lossless for the integer range `f64` covers exactly (counters and
/// nanosecond latencies far below 2^53).
impl JsonCodec for ObsSnapshot {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("enabled".into(), self.enabled.to_json()),
            ("uptime_ns".into(), self.uptime_ns.to_json()),
            ("counters".into(), named_to_json(&self.counters)),
            ("gauges".into(), named_to_json(&self.gauges)),
            ("histograms".into(), self.histograms.to_json()),
            ("events".into(), self.events.to_json()),
        ])
    }

    fn from_json(json: &Json) -> Option<ObsSnapshot> {
        Some(ObsSnapshot {
            enabled: JsonCodec::from_json(json.get("enabled")?)?,
            uptime_ns: JsonCodec::from_json(json.get("uptime_ns")?)?,
            counters: named_from_json(json.get("counters")?)?,
            gauges: named_from_json(json.get("gauges")?)?,
            histograms: JsonCodec::from_json(json.get("histograms")?)?,
            events: JsonCodec::from_json(json.get("events")?)?,
        })
    }
}

fn named_to_json<T: JsonCodec>(pairs: &[(String, T)]) -> Json {
    Json::Obj(pairs.iter().map(|(name, value)| (name.clone(), value.to_json())).collect())
}

fn named_from_json<T: JsonCodec>(json: &Json) -> Option<Vec<(String, T)>> {
    match json {
        Json::Obj(entries) => {
            entries.iter().map(|(name, value)| Some((name.clone(), T::from_json(value)?))).collect()
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppler_obs::ObsRegistry;

    fn populated_snapshot() -> ObsSnapshot {
        let obs = ObsRegistry::enabled();
        obs.counter("ops").add(42);
        obs.gauge("depth").set(-3);
        let h = obs.histogram("lat");
        for ns in [100, 1_000, 50_000] {
            h.record_ns(ns);
        }
        obs.event("roll", "west v1 -> v2");
        obs.snapshot()
    }

    #[test]
    fn snapshot_round_trips_through_json_text() {
        let snapshot = populated_snapshot();
        let text = snapshot.to_json().render_pretty();
        let parsed = Json::parse(&text).expect("rendered JSON parses");
        let back = ObsSnapshot::from_json(&parsed).expect("schema round-trips");
        assert_eq!(back, snapshot);
    }

    #[test]
    fn disabled_snapshot_round_trips_too() {
        let snapshot = ObsRegistry::disabled().snapshot();
        let json = snapshot.to_json();
        assert_eq!(ObsSnapshot::from_json(&json), Some(snapshot));
    }

    #[test]
    fn malformed_trees_return_none() {
        assert_eq!(ObsSnapshot::from_json(&Json::Null), None);
        let missing = Json::Obj(vec![("enabled".into(), Json::Bool(true))]);
        assert_eq!(ObsSnapshot::from_json(&missing), None);
        let mut snapshot_json = match populated_snapshot().to_json() {
            Json::Obj(entries) => entries,
            _ => unreachable!(),
        };
        for (key, value) in &mut snapshot_json {
            if key == "histograms" {
                *value = Json::Str("not an array".into());
            }
        }
        assert_eq!(ObsSnapshot::from_json(&Json::Obj(snapshot_json)), None);
    }
}
