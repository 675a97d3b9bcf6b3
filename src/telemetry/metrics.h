// Unified metrics registry (docs/OBSERVABILITY.md, "Metrics").
//
// One registration point for every counter the system scatters across
// subsystems: CampaignTelemetry per-pattern counts, FleetStats transport /
// lease / dedup counters, watchdog timeouts, failpoint fires, logic-oracle
// verdicts. Three metric kinds:
//
//   counter    monotonically increasing uint64; repeated registration of the
//              same (name, labels) series SUMS — that is what makes the
//              shard merge deterministic (shard-index order, commutative adds).
//   gauge      point-in-time double; repeated registration OVERWRITES
//              (last writer wins, so merge order must be deterministic —
//              MergeFrom iterates family/series maps in sorted order).
//   histogram  a LatencyHistogram (16 power-of-two µs buckets); repeated
//              registration merges bucket-wise via MergeFrom.
//
// RenderPrometheusText() emits the text exposition format: `# HELP` /
// `# TYPE` headers per family, counters suffixed `_total` by convention
// (caller's responsibility), histograms as cumulative `_bucket{le=...}` +
// `_sum` + `_count` with µs upper bounds "1","2",...,"16384","+Inf", and a
// derived `<name>_quantile` gauge family (p50/p95/p99 by bucket
// interpolation) for every histogram with samples. The output is
// deterministic: families and series render in lexicographic order.
//
// The registry is plain data and always compiled — journal replay and the
// fleet coordinator use it regardless of build flavour. Everything here is
// strictly observational: campaign digests are bit-identical with metrics
// on or off.
#ifndef SOFT_TELEMETRY_METRICS_H_
#define SOFT_TELEMETRY_METRICS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/telemetry/telemetry.h"

namespace soft {
namespace telemetry {

// Label set for one series. Order-insensitive: the registry normalizes by
// sorting on key, so {{"a","1"},{"b","2"}} and {{"b","2"},{"a","1"}} name
// the same series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter = 0, kGauge = 1, kHistogram = 2 };

std::string_view MetricKindName(MetricKind kind);

class MetricsRegistry {
 public:
  // Adds `n` to the counter series (creates it at zero first). Registering
  // an existing family name with a different kind is ignored (the first
  // registration pins the kind) — deterministic, never a crash path.
  void Counter(std::string_view name, std::string_view help,
               const MetricLabels& labels, uint64_t n);

  // Sets the gauge series to `value` (last writer wins).
  void Gauge(std::string_view name, std::string_view help,
             const MetricLabels& labels, double value);

  // Merges `hist` into the histogram series bucket-wise.
  void Histogram(std::string_view name, std::string_view help,
                 const MetricLabels& labels, const LatencyHistogram& hist);

  // Deterministic merge: iterates `other`'s families and series in sorted
  // order; counters sum, gauges take `other`'s value, histograms merge.
  // Shard-ordered merging (shard 0, 1, 2, ...) therefore yields one
  // canonical registry regardless of completion order.
  void MergeFrom(const MetricsRegistry& other);

  // Prometheus text exposition format. Ends with a trailing newline when
  // non-empty.
  std::string RenderPrometheusText() const;

  bool empty() const { return families_.empty(); }
  size_t family_count() const { return families_.size(); }
  size_t series_count() const;

  // Test/introspection accessors: nullopt / nullptr when the series does not
  // exist or the family kind does not match.
  std::optional<uint64_t> CounterValue(std::string_view name,
                                       const MetricLabels& labels) const;
  std::optional<double> GaugeValue(std::string_view name,
                                   const MetricLabels& labels) const;
  const LatencyHistogram* HistogramValue(std::string_view name,
                                         const MetricLabels& labels) const;

 private:
  struct Series {
    uint64_t counter = 0;
    double gauge = 0.0;
    LatencyHistogram hist;
  };
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::string help;
    // Keyed on the canonical serialized label block (sorted by label key),
    // e.g. `{pattern="arith",stage="execute"}`; "" for the unlabeled series.
    std::map<std::string, Series> series;
  };

  Family* FamilyFor(std::string_view name, std::string_view help,
                    MetricKind kind);
  const Series* FindSeries(std::string_view name, MetricKind kind,
                           const MetricLabels& labels) const;

  std::map<std::string, Family> families_;
};

// Canonical label-block serialization (sorted by key, values escaped per the
// exposition format: backslash, double-quote, newline). Exposed for tests
// and for callers that pre-compute series keys.
std::string SerializeMetricLabels(const MetricLabels& labels);

// ---------------------------------------------------------------------------
// Builders: adapt existing scattered counters into one registry.

// Stage-latency histograms (`soft_stage_latency_us{stage=...}`) and
// per-pattern counters (`soft_pattern_*_total{pattern=...}`) from a merged
// CampaignTelemetry snapshot.
void AddTelemetryMetrics(MetricsRegistry& registry,
                         const CampaignTelemetry& telemetry);

// Failpoint site counters (`soft_failpoint_{evaluations,fires}_total{site=..}`
// for sites with at least one evaluation) plus the
// `soft_failpoints_compiled` gauge.
void AddFailpointMetrics(MetricsRegistry& registry);

}  // namespace telemetry
}  // namespace soft

#endif  // SOFT_TELEMETRY_METRICS_H_
