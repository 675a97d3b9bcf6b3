#include "src/telemetry/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/failpoint/failpoint.h"

namespace soft {
namespace telemetry {

namespace {

// Label values may carry arbitrary strings (pattern names, reasons); the
// exposition format escapes backslash, double-quote, and newline.
std::string EscapeLabelValue(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// %g-style double rendering without locale surprises; integers print bare
// ("3" not "3.000000") so gauges holding counts stay readable.
std::string FormatValue(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

std::string FormatCount(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

// Splices extra labels (e.g. le="...") into a serialized label block.
std::string WithExtraLabel(const std::string& block, std::string_view key,
                           std::string_view value) {
  std::string pair;
  pair.append(key).append("=\"").append(EscapeLabelValue(value)).append("\"");
  if (block.empty()) {
    return "{" + pair + "}";
  }
  std::string out = block.substr(0, block.size() - 1);
  out.append(",").append(pair).append("}");
  return out;
}

}  // namespace

std::string_view MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

std::string SerializeMetricLabels(const MetricLabels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::map<std::string, std::string> sorted;
  for (const auto& [key, value] : labels) {
    sorted[key] = value;
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : sorted) {
    if (!first) {
      out += ",";
    }
    first = false;
    out.append(key).append("=\"").append(EscapeLabelValue(value)).append("\"");
  }
  out += "}";
  return out;
}

MetricsRegistry::Family* MetricsRegistry::FamilyFor(std::string_view name,
                                                    std::string_view help,
                                                    MetricKind kind) {
  auto [it, inserted] = families_.try_emplace(std::string(name));
  Family& family = it->second;
  if (inserted) {
    family.kind = kind;
    family.help = std::string(help);
    return &family;
  }
  // The first registration pins the kind; a mismatched re-registration is
  // dropped rather than corrupting the series map.
  return family.kind == kind ? &family : nullptr;
}

void MetricsRegistry::Counter(std::string_view name, std::string_view help,
                              const MetricLabels& labels, uint64_t n) {
  Family* family = FamilyFor(name, help, MetricKind::kCounter);
  if (family != nullptr) {
    family->series[SerializeMetricLabels(labels)].counter += n;
  }
}

void MetricsRegistry::Gauge(std::string_view name, std::string_view help,
                            const MetricLabels& labels, double value) {
  Family* family = FamilyFor(name, help, MetricKind::kGauge);
  if (family != nullptr) {
    family->series[SerializeMetricLabels(labels)].gauge = value;
  }
}

void MetricsRegistry::Histogram(std::string_view name, std::string_view help,
                                const MetricLabels& labels,
                                const LatencyHistogram& hist) {
  Family* family = FamilyFor(name, help, MetricKind::kHistogram);
  if (family != nullptr) {
    family->series[SerializeMetricLabels(labels)].hist.MergeFrom(hist);
  }
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other) {
  for (const auto& [name, family] : other.families_) {
    Family* mine = FamilyFor(name, family.help, family.kind);
    if (mine == nullptr) {
      continue;
    }
    for (const auto& [key, series] : family.series) {
      Series& target = mine->series[key];
      switch (family.kind) {
        case MetricKind::kCounter:
          target.counter += series.counter;
          break;
        case MetricKind::kGauge:
          target.gauge = series.gauge;
          break;
        case MetricKind::kHistogram:
          target.hist.MergeFrom(series.hist);
          break;
      }
    }
  }
}

size_t MetricsRegistry::series_count() const {
  size_t n = 0;
  for (const auto& [name, family] : families_) {
    n += family.series.size();
  }
  return n;
}

const MetricsRegistry::Series* MetricsRegistry::FindSeries(
    std::string_view name, MetricKind kind, const MetricLabels& labels) const {
  auto it = families_.find(std::string(name));
  if (it == families_.end() || it->second.kind != kind) {
    return nullptr;
  }
  auto series = it->second.series.find(SerializeMetricLabels(labels));
  return series == it->second.series.end() ? nullptr : &series->second;
}

std::optional<uint64_t> MetricsRegistry::CounterValue(
    std::string_view name, const MetricLabels& labels) const {
  const Series* series = FindSeries(name, MetricKind::kCounter, labels);
  return series == nullptr ? std::nullopt : std::optional(series->counter);
}

std::optional<double> MetricsRegistry::GaugeValue(
    std::string_view name, const MetricLabels& labels) const {
  const Series* series = FindSeries(name, MetricKind::kGauge, labels);
  return series == nullptr ? std::nullopt : std::optional(series->gauge);
}

const LatencyHistogram* MetricsRegistry::HistogramValue(
    std::string_view name, const MetricLabels& labels) const {
  const Series* series = FindSeries(name, MetricKind::kHistogram, labels);
  return series == nullptr ? nullptr : &series->hist;
}

std::string MetricsRegistry::RenderPrometheusText() const {
  std::string out;
  for (const auto& [name, family] : families_) {
    out.append("# HELP ").append(name).append(" ").append(family.help).append(
        "\n");
    out.append("# TYPE ").append(name).append(" ").append(
        std::string(MetricKindName(family.kind))).append("\n");
    for (const auto& [key, series] : family.series) {
      switch (family.kind) {
        case MetricKind::kCounter:
          out.append(name).append(key).append(" ").append(
              FormatCount(series.counter)).append("\n");
          break;
        case MetricKind::kGauge:
          out.append(name).append(key).append(" ").append(
              FormatValue(series.gauge)).append("\n");
          break;
        case MetricKind::kHistogram: {
          const LatencyHistogram& hist = series.hist;
          uint64_t cumulative = 0;
          for (size_t i = 0; i + 1 < LatencyHistogram::kBucketCount; ++i) {
            cumulative += hist.buckets[i];
            out.append(name).append("_bucket").append(
                WithExtraLabel(key, "le", FormatCount(uint64_t{1} << i)));
            out.append(" ").append(FormatCount(cumulative)).append("\n");
          }
          out.append(name).append("_bucket").append(
              WithExtraLabel(key, "le", "+Inf"));
          out.append(" ").append(FormatCount(hist.samples)).append("\n");
          out.append(name).append("_sum").append(key).append(" ").append(
              FormatValue(static_cast<double>(hist.total_ns) / 1000.0));
          out.append("\n");
          out.append(name).append("_count").append(key).append(" ").append(
              FormatCount(hist.samples)).append("\n");
          break;
        }
      }
    }
    if (family.kind != MetricKind::kHistogram) {
      continue;
    }
    // Derived quantile gauges for every histogram series with samples, as a
    // sibling family (`<name>_quantile{...,quantile="0.5"}`).
    bool any = false;
    for (const auto& [key, series] : family.series) {
      if (series.hist.samples != 0) {
        any = true;
      }
    }
    if (!any) {
      continue;
    }
    const std::string qname = name + "_quantile";
    out.append("# HELP ").append(qname).append(
        " Interpolated quantiles derived from ").append(name).append("\n");
    out.append("# TYPE ").append(qname).append(" gauge\n");
    static constexpr struct {
      const char* label;
      double q;
    } kQuantiles[] = {{"0.5", 0.5}, {"0.95", 0.95}, {"0.99", 0.99}};
    for (const auto& [key, series] : family.series) {
      if (series.hist.samples == 0) {
        continue;
      }
      for (const auto& spec : kQuantiles) {
        out.append(qname).append(WithExtraLabel(key, "quantile", spec.label));
        out.append(" ").append(
            FormatValue(series.hist.QuantileUs(spec.q))).append("\n");
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Builders.

void AddTelemetryMetrics(MetricsRegistry& registry,
                         const CampaignTelemetry& telemetry) {
  for (size_t i = 0; i < kStageCount; ++i) {
    registry.Histogram("soft_stage_latency_us",
                       "Per-stage statement latency (power-of-two microsecond "
                       "buckets)",
                       {{"stage", std::string(kStageKeys[i])}},
                       telemetry.stage_latency[i]);
  }
  struct CounterSpec {
    const char* name;
    const char* help;
    uint64_t PatternCounters::* field;
  };
  static constexpr CounterSpec kSpecs[] = {
      {"soft_pattern_generated_total", "Cases placed into the generation pool",
       &PatternCounters::generated},
      {"soft_pattern_executed_total", "Statements executed",
       &PatternCounters::executed},
      {"soft_pattern_crashes_total", "Crash events including duplicates",
       &PatternCounters::crashes},
      {"soft_pattern_bugs_deduped_total", "First witnesses (unique bugs)",
       &PatternCounters::bugs_deduped},
      {"soft_pattern_sql_errors_total", "Statements rejected with SQL errors",
       &PatternCounters::sql_errors},
      {"soft_pattern_false_positives_total",
       "Resource-limit kills classified as false positives",
       &PatternCounters::false_positives},
      {"soft_pattern_timeouts_total", "Statement-watchdog deadline kills",
       &PatternCounters::timeouts},
      {"soft_oracle_logic_checks_total", "Logic-oracle examinations",
       &PatternCounters::logic_checks},
      {"soft_oracle_logic_bugs_total",
       "Attributed wrong-result divergences", &PatternCounters::logic_bugs},
  };
  for (const auto& [pattern, counters] : telemetry.patterns) {
    for (const CounterSpec& spec : kSpecs) {
      registry.Counter(spec.name, spec.help, {{"pattern", pattern}},
                       counters.*spec.field);
    }
  }
}

void AddFailpointMetrics(MetricsRegistry& registry) {
  registry.Gauge("soft_failpoints_compiled",
                 "1 when the failpoint subsystem is compiled in", {},
                 failpoint::kCompiledIn ? 1.0 : 0.0);
  for (const failpoint::SiteInfo& site : failpoint::kInventory) {
    const failpoint::SiteStats stats = failpoint::Stats(site.name);
    if (stats.evaluations == 0 && stats.fires == 0) {
      continue;
    }
    const MetricLabels labels = {{"site", std::string(site.name)}};
    registry.Counter("soft_failpoint_evaluations_total",
                     "Armed failpoint site evaluations", labels,
                     stats.evaluations);
    registry.Counter("soft_failpoint_fires_total",
                     "Failpoint fault injections", labels, stats.fires);
  }
}

}  // namespace telemetry
}  // namespace soft
