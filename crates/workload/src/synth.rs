//! The workload synthesizer of §5.4.
//!
//! "The synthesized workload is generated by combining pieces of
//! standardized benchmarks (e.g., TPC-C, TPC-DS, TPC-H, and YCSB) with
//! different database sizes (i.e., scaling factors), query frequency, and
//! concurrency (number of concurrent clients). When executed on the same
//! machine as that of the original workload, the performance traces of
//! these synthesized workloads mimic that of the original."
//!
//! We model each benchmark kind as a per-client demand footprint across the
//! perf dimensions (an OLTP client is IO/log-heavy and latency-critical, an
//! analytical client is CPU/memory-heavy, a key-value client is
//! IOPS-dominated). A [`SynthesizedWorkload`] is a weighted mixture of
//! fragments; [`SynthesizedWorkload::fit`] recovers mixture weights from a
//! target perf history by non-negative least squares on the dimension
//! means — the same trace-statistics matching the paper's internal tool
//! performs.

use doppler_stats::descriptive::mean;
use doppler_stats::SeededRng;
use doppler_telemetry::{PerfDimension, PerfHistory, TimeSeries};

/// A standardized-benchmark family used as a synthesis fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum BenchmarkKind {
    /// TPC-C-like order processing: IO and log heavy, latency-critical.
    TpcC,
    /// TPC-H-like ad-hoc analytics: CPU and memory heavy.
    TpcH,
    /// TPC-DS-like decision support: like TPC-H with more IO.
    TpcDs,
    /// YCSB-like key-value serving: IOPS dominated.
    Ycsb,
}

impl BenchmarkKind {
    /// All fragment kinds.
    pub const ALL: [BenchmarkKind; 4] =
        [BenchmarkKind::TpcC, BenchmarkKind::TpcH, BenchmarkKind::TpcDs, BenchmarkKind::Ycsb];

    /// Demand footprint of one client at scale factor 1 and query frequency
    /// 1, as `(cpu vCores, memory GB, IOPS, log MB/s)`.
    pub fn unit_footprint(&self) -> (f64, f64, f64, f64) {
        match self {
            BenchmarkKind::TpcC => (0.08, 0.6, 220.0, 0.9),
            BenchmarkKind::TpcH => (0.50, 2.5, 60.0, 0.05),
            BenchmarkKind::TpcDs => (0.40, 3.0, 90.0, 0.08),
            BenchmarkKind::Ycsb => (0.05, 0.3, 450.0, 0.30),
        }
    }

    /// IO latency requirement of the fragment, ms (the strictest fragment
    /// in a mixture wins).
    pub fn latency_requirement_ms(&self) -> f64 {
        match self {
            BenchmarkKind::TpcC => 1.5,
            BenchmarkKind::TpcH => 8.0,
            BenchmarkKind::TpcDs => 10.0,
            BenchmarkKind::Ycsb => 2.0,
        }
    }
}

/// One fragment of a synthesized workload.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchmarkFragment {
    pub kind: BenchmarkKind,
    /// Database scale factor; scales memory and IOPS sub-linearly (bigger
    /// databases cache worse but don't linearly multiply every resource).
    pub scale_factor: f64,
    /// Queries issued per client per unit time, relative to the kind's
    /// native rate.
    pub query_frequency: f64,
    /// Number of concurrent clients.
    pub concurrency: u32,
}

impl BenchmarkFragment {
    /// Aggregate demand of the fragment as `(cpu, mem, iops, log)`.
    pub fn demand(&self) -> (f64, f64, f64, f64) {
        let (cpu, mem, iops, log) = self.kind.unit_footprint();
        let load = self.concurrency as f64 * self.query_frequency;
        let size = self.scale_factor.max(0.0).sqrt(); // sub-linear in DB size
        (cpu * load * size, mem * load * size, iops * load * size, log * load * size)
    }
}

/// A synthesized workload: a mixture of benchmark fragments plus trace
/// geometry.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SynthesizedWorkload {
    pub fragments: Vec<BenchmarkFragment>,
    /// Trace duration, days.
    pub days: f64,
    /// Relative burstiness of the emitted trace in `[0, 1]`.
    pub burstiness: f64,
    /// Allocated database size, GB (drives the storage dimension).
    pub data_size_gb: f64,
}

impl SynthesizedWorkload {
    /// Total demand across fragments as `(cpu, mem, iops, log)`.
    pub fn total_demand(&self) -> (f64, f64, f64, f64) {
        let mut t = (0.0, 0.0, 0.0, 0.0);
        for f in &self.fragments {
            let d = f.demand();
            t = (t.0 + d.0, t.1 + d.1, t.2 + d.2, t.3 + d.3);
        }
        t
    }

    /// The strictest latency requirement among fragments, ms. Defaults to
    /// a tolerant 10 ms when there are no fragments.
    pub fn latency_requirement_ms(&self) -> f64 {
        self.fragments.iter().map(|f| f.kind.latency_requirement_ms()).fold(10.0, f64::min)
    }

    /// Emit the demand trace this mixture generates: mean levels from the
    /// fragment demands, multiplicative bursts controlled by `burstiness`.
    pub fn demand_trace(&self, seed: u64) -> PerfHistory {
        let (cpu, mem, iops, log) = self.total_demand();
        let n = ((self.days * 144.0).round() as usize).max(1);
        let mut rng = SeededRng::new(seed);
        let b = self.burstiness.clamp(0.0, 1.0);
        let mut mk = |level: f64, salt: u64| -> Vec<f64> {
            let mut r = rng.fork(salt);
            (0..n)
                .map(|_| {
                    // Lognormal-ish multiplicative burst: most samples near
                    // the mean, occasional excursions growing with b.
                    let z = r.normal();
                    let burst = (b * z).exp();
                    (level * burst).max(0.0)
                })
                .collect()
        };
        let lat_req = self.latency_requirement_ms();
        let mut h = PerfHistory::new();
        h.insert(PerfDimension::Cpu, TimeSeries::ten_minute(mk(cpu, 1)));
        h.insert(PerfDimension::Memory, TimeSeries::ten_minute(mk(mem, 2)));
        h.insert(PerfDimension::Iops, TimeSeries::ten_minute(mk(iops, 3)));
        h.insert(PerfDimension::IoLatency, TimeSeries::ten_minute(vec![lat_req; n]));
        h.insert(PerfDimension::LogRate, TimeSeries::ten_minute(mk(log, 4)));
        h.insert(PerfDimension::Storage, TimeSeries::ten_minute(vec![self.data_size_gb; n]));
        h
    }

    /// Fit a fragment mixture to a target perf history by non-negative
    /// least squares on the (cpu, mem, iops, log) means, solved with cyclic
    /// coordinate descent. Concurrency encodes the fitted weight (clients
    /// come in integer units; weights are folded into `query_frequency`).
    pub fn fit(target: &PerfHistory, days: f64) -> SynthesizedWorkload {
        let goal = [
            target.values(PerfDimension::Cpu).map_or(0.0, mean),
            target.values(PerfDimension::Memory).map_or(0.0, mean),
            target.values(PerfDimension::Iops).map_or(0.0, mean),
            target.values(PerfDimension::LogRate).map_or(0.0, mean),
        ];
        // Column-normalize so every fragment competes on equal footing.
        let cols: Vec<[f64; 4]> = BenchmarkKind::ALL
            .iter()
            .map(|k| {
                let (c, m, i, l) = k.unit_footprint();
                [c, m, i, l]
            })
            .collect();
        let scale: [f64; 4] =
            [goal[0].max(1e-6), goal[1].max(1e-6), goal[2].max(1e-6), goal[3].max(1e-6)];
        let norm = |v: &[f64; 4]| -> [f64; 4] {
            [v[0] / scale[0], v[1] / scale[1], v[2] / scale[2], v[3] / scale[3]]
        };
        let a: Vec<[f64; 4]> = cols.iter().map(norm).collect();
        let y = norm(&goal);

        // Cyclic coordinate descent on ||A w - y||^2, w >= 0.
        let mut w = [0.0f64; 4];
        for _ in 0..200 {
            for j in 0..4 {
                let mut num = 0.0;
                let mut den = 0.0;
                for r in 0..4 {
                    let mut resid = y[r];
                    for (jj, wj) in w.iter().enumerate() {
                        if jj != j {
                            resid -= a[jj][r] * wj;
                        }
                    }
                    num += a[j][r] * resid;
                    den += a[j][r] * a[j][r];
                }
                w[j] = if den > 0.0 { (num / den).max(0.0) } else { 0.0 };
            }
        }

        let burstiness = burstiness_of(target);
        let data_size_gb = target
            .values(PerfDimension::Storage)
            .and_then(doppler_stats::descriptive::max)
            .unwrap_or(100.0);
        let fragments = BenchmarkKind::ALL
            .iter()
            .zip(w)
            .filter(|(_, wj)| *wj > 1e-6)
            .map(|(&kind, wj)| {
                let concurrency = wj.ceil().max(1.0) as u32;
                BenchmarkFragment {
                    kind,
                    scale_factor: 1.0,
                    query_frequency: wj / concurrency as f64,
                    concurrency,
                }
            })
            .collect();
        SynthesizedWorkload { fragments, days, burstiness, data_size_gb }
    }
}

/// Estimate trace burstiness: coefficient of variation of the CPU series,
/// squashed into `[0, 1]`.
fn burstiness_of(history: &PerfHistory) -> f64 {
    let Some(vals) = history.values(PerfDimension::Cpu) else {
        return 0.2;
    };
    let m = mean(vals);
    if m <= 0.0 {
        return 0.2;
    }
    let cv = doppler_stats::descriptive::stddev(vals) / m;
    (cv / (1.0 + cv)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archetype::WorkloadArchetype;
    use crate::generate::generate;

    fn oltp_mix() -> SynthesizedWorkload {
        SynthesizedWorkload {
            fragments: vec![
                BenchmarkFragment {
                    kind: BenchmarkKind::TpcC,
                    scale_factor: 4.0,
                    query_frequency: 1.0,
                    concurrency: 8,
                },
                BenchmarkFragment {
                    kind: BenchmarkKind::Ycsb,
                    scale_factor: 1.0,
                    query_frequency: 0.5,
                    concurrency: 4,
                },
            ],
            days: 1.0,
            burstiness: 0.3,
            data_size_gb: 250.0,
        }
    }

    #[test]
    fn fragment_demand_scales_with_concurrency() {
        let f1 = BenchmarkFragment {
            kind: BenchmarkKind::TpcC,
            scale_factor: 1.0,
            query_frequency: 1.0,
            concurrency: 1,
        };
        let f8 = BenchmarkFragment { concurrency: 8, ..f1 };
        let (c1, ..) = f1.demand();
        let (c8, ..) = f8.demand();
        assert!((c8 - 8.0 * c1).abs() < 1e-12);
    }

    #[test]
    fn scale_factor_grows_demand_sublinearly() {
        let f1 = BenchmarkFragment {
            kind: BenchmarkKind::TpcH,
            scale_factor: 1.0,
            query_frequency: 1.0,
            concurrency: 1,
        };
        let f100 = BenchmarkFragment { scale_factor: 100.0, ..f1 };
        let (c1, ..) = f1.demand();
        let (c100, ..) = f100.demand();
        assert!(c100 > c1);
        assert!(c100 < 100.0 * c1);
    }

    #[test]
    fn mixture_latency_takes_strictest_fragment() {
        assert_eq!(oltp_mix().latency_requirement_ms(), 1.5);
        let empty = SynthesizedWorkload {
            fragments: vec![],
            days: 1.0,
            burstiness: 0.0,
            data_size_gb: 10.0,
        };
        assert_eq!(empty.latency_requirement_ms(), 10.0);
    }

    #[test]
    fn demand_trace_has_all_dimensions_and_right_length() {
        let t = oltp_mix().demand_trace(7);
        assert_eq!(t.len(), 144);
        assert_eq!(t.dimensions().len(), 6);
    }

    #[test]
    fn demand_trace_mean_tracks_fragment_demand() {
        let w = oltp_mix();
        let (cpu, ..) = w.total_demand();
        let t = w.demand_trace(3);
        let m = mean(t.values(PerfDimension::Cpu).unwrap());
        // Lognormal bursts bias the mean upward slightly; stay within 30%.
        assert!((m - cpu).abs() / cpu < 0.3, "mean {m} vs demand {cpu}");
    }

    #[test]
    fn fit_recovers_an_iops_dominated_target_with_kv_fragments() {
        let target = generate(&WorkloadArchetype::KeyValueLike.spec(8.0, 3.0), 5);
        let fitted = SynthesizedWorkload::fit(&target, 3.0);
        assert!(!fitted.fragments.is_empty());
        // The dominant fragment by IOPS contribution should be YCSB-like.
        let dominant = fitted
            .fragments
            .iter()
            .max_by(|a, b| {
                let ia = a.demand().2;
                let ib = b.demand().2;
                ia.total_cmp(&ib)
            })
            .unwrap();
        assert_eq!(dominant.kind, BenchmarkKind::Ycsb);
    }

    #[test]
    fn fit_matches_target_means_reasonably() {
        let target = generate(&WorkloadArchetype::OltpLike.spec(4.0, 3.0), 9);
        let fitted = SynthesizedWorkload::fit(&target, 3.0);
        let (cpu, _, iops, _) = fitted.total_demand();
        let want_cpu = mean(target.values(PerfDimension::Cpu).unwrap());
        let want_iops = mean(target.values(PerfDimension::Iops).unwrap());
        assert!((cpu - want_cpu).abs() / want_cpu < 0.5, "cpu {cpu} vs {want_cpu}");
        assert!((iops - want_iops).abs() / want_iops < 0.5, "iops {iops} vs {want_iops}");
    }

    #[test]
    fn fit_of_empty_history_yields_no_fragments() {
        let fitted = SynthesizedWorkload::fit(&PerfHistory::new(), 1.0);
        assert!(fitted.fragments.is_empty());
    }

    #[test]
    fn demand_trace_is_deterministic() {
        let w = oltp_mix();
        assert_eq!(w.demand_trace(42), w.demand_trace(42));
    }
}
