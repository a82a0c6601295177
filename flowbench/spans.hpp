/// \file spans.hpp
/// \brief Clocks and an in-memory span recorder for the traced replay.
///
/// A span is one named call timed from outside the library: name, start,
/// end, parent span, plus process CPU time and operator-new calls over the
/// call. Spans stay in memory and are written out as one Chrome trace when
/// the run ends. A span's self value is its own value minus the part its
/// child spans cover.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace flowbench {

/// Operator-new calls so far in this process (alloc_count.cpp).
std::uint64_t alloc_count();
/// Monotonic wall-clock seconds.
double wall_s();
/// Process user + system CPU seconds over all threads (getrusage).
double cpu_s();
/// Peak resident set of the process in MB (getrusage ru_maxrss).
double peak_rss_mb();

struct Span {
  std::string name;
  std::string detail;  ///< free-form argument, e.g. "aes/default"
  int parent = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  double cpu_start_s = 0.0;
  double cpu_end_s = 0.0;
  std::uint64_t allocs_start = 0;
  std::uint64_t allocs_end = 0;
};

struct SelfValues {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double allocs = 0.0;
};

class Spans {
 public:
  int open(std::string name, std::string detail = {});
  void close(int id);
  const std::vector<Span>& all() const { return spans_; }
  std::size_t size() const { return spans_.size(); }
  /// Self values of every span (its value minus its children's).
  std::vector<SelfValues> self_values() const;
  /// Chrome trace_event JSON; timestamps relative to `origin_s`.
  bool write_chrome_trace(const std::string& path, double origin_s) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span on construction and closes it on destruction; a null
/// recorder makes it a no-op, so untraced code paths share the replay.
class Scope {
 public:
  Scope(Spans* spans, std::string name, std::string detail = {})
      : spans_(spans),
        id_(spans != nullptr ? spans->open(std::move(name), std::move(detail)) : -1) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

}  // namespace flowbench
