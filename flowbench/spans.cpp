#include "spans.hpp"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <fstream>

namespace flowbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int Spans::open(std::string name, std::string detail) {
  Span span;
  span.name = std::move(name);
  span.detail = std::move(detail);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.allocs_start = alloc_count();
  span.cpu_start_s = cpu_s();
  span.start_s = wall_s();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = wall_s();
  span.cpu_end_s = cpu_s();
  span.allocs_end = alloc_count();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::vector<SelfValues> Spans::self_values() const {
  std::vector<SelfValues> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i].wall_s += s.end_s - s.start_s;
    self[i].cpu_s += s.cpu_end_s - s.cpu_start_s;
    self[i].allocs += static_cast<double>(s.allocs_end - s.allocs_start);
    if (s.parent >= 0) {
      // Children run strictly inside their parent on the same thread, so
      // the part of the parent they cover is exactly their own duration.
      SelfValues& p = self[static_cast<std::size_t>(s.parent)];
      p.wall_s -= s.end_s - s.start_s;
      p.cpu_s -= s.cpu_end_s - s.cpu_start_s;
      p.allocs -= static_cast<double>(s.allocs_end - s.allocs_start);
    }
  }
  return self;
}

bool Spans::write_chrome_trace(const std::string& path, double origin_s) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d, \"detail\": \"%s\", \"cpu_s\": %.6f, "
                  "\"allocs\": %llu}}%s\n",
                  s.name.c_str(), (s.start_s - origin_s) * 1e6,
                  (s.end_s - s.start_s) * 1e6, i, s.parent, s.detail.c_str(),
                  s.cpu_end_s - s.cpu_start_s,
                  static_cast<unsigned long long>(s.allocs_end - s.allocs_start),
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "], \"displayTimeUnit\": \"ms\"}\n";
  return static_cast<bool>(out);
}

}  // namespace flowbench
