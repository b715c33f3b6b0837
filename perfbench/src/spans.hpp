#pragma once
/// \file spans.hpp
/// Spans around the benchmark's calls into voprof layers, and the
/// per-layer self-time analysis of a run's traces.
///
/// A LayerSpan records into the process's obs::TraceCollector (kept in
/// memory, written when the run ends) with the layer name as category,
/// so it nests on one clock with the spans the library records itself.
/// When no trace is being collected it only times the call.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class LayerSpan {
 public:
  /// `layer` and `name` must outlive the span (string literals);
  /// `calls` is the number of calls the span covers.
  LayerSpan(const char* layer, const char* name, double calls = 1.0) noexcept;
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

  /// Nanoseconds since the span opened.
  [[nodiscard]] std::int64_t elapsed_ns() const noexcept;

 private:
  const char* layer_;
  const char* name_;
  double calls_;
  std::int64_t start_ns_;
  std::int64_t start_us_ = 0;  ///< collector clock, when traced
  bool traced_ = false;
};

/// Spans a LayerSpan could not record (allocation failure while tracing).
[[nodiscard]] std::uint64_t dropped_spans() noexcept;

struct SpanRecord {
  std::string layer;
  std::string name;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
  std::uint64_t tid = 0;
  double calls = 1.0;
};

/// Layer (module) of a library span category: trainer -> core,
/// taskpool -> util; the others already are module names.
[[nodiscard]] std::string layer_of_category(std::string_view category);

/// The wall-clock complete events of a voprof-trace-1 file's text, their
/// thread ids shifted by `tid_offset` to keep processes apart. Events
/// are parsed one at a time: a daemon trace can hold hundreds of
/// thousands of sim-clock events, skipped without being built.
[[nodiscard]] std::vector<SpanRecord> spans_from_trace(
    std::string_view text, std::uint64_t tid_offset);

/// Self time per layer (ms): each span's duration minus the part of it
/// its direct children on the same thread cover, summed per layer.
[[nodiscard]] std::map<std::string, double> self_time_ms(
    std::vector<SpanRecord> spans);

struct SpanTotal {
  double ms = 0.0;
  double calls = 0.0;
  std::size_t spans = 0;
};
/// Totals over the spans with this layer and name.
[[nodiscard]] SpanTotal span_total(const std::vector<SpanRecord>& spans,
                                   std::string_view layer,
                                   std::string_view name);

}  // namespace perfbench
