#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int Tracer::Begin(std::string name) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  s.parent = open_.empty() ? -1 : open_.back();
  s.query = query_;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[id].end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - epoch_)
                          .count();
  open_.pop_back();
}

std::vector<double> Tracer::SelfMillis() const {
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[spans_[i].parent].push_back(static_cast<int>(i));
    }
  }
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& p = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (int c : children[i]) {
      iv.emplace_back(std::max(p.start_ns, spans_[c].start_ns),
                      std::min(p.end_ns, spans_[c].end_ns));
    }
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t reach = p.start_ns;
    for (const auto& [b, e] : iv) {
      const int64_t from = std::max(b, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
    self[i] = static_cast<double>(p.end_ns - p.start_ns - covered) / 1e6;
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are fixed identifiers ([A-Za-z0-9_.]), so no escaping.
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, "
                 "\"query\": %lld}}%s\n",
                 s.name.c_str(), s.Layer().c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent, static_cast<long long>(s.query),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool write_ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && write_ok;
}

}  // namespace perfbench
