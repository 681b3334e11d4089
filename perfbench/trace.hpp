// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the benchmark's own code, around each call into
// a library layer: name (the layer), start, end, parent span and a
// per-flow id. Nothing inside src/ is instrumented. A layer's self time is
// the sum over its spans of the span's duration minus the time its direct
// children cover. Spans are kept in memory and written out once, at the
// end of the run, so the export costs nothing while flows are timed.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  /// Runs `fn` inside a span named `layer` nested under the innermost open
  /// span, and returns its result.
  template <class F>
  decltype(auto) span(const char* layer, F&& fn) {
    const int index = open(layer);
    struct Closer {
      Tracer* tracer;
      int index;
      ~Closer() { tracer->close(index); }
    } closer{this, index};
    return std::forward<F>(fn)();
  }

  /// Subsequent spans belong to flow `id` (-1: none).
  void set_flow(int id) { flow_ = id; }

  void add(const std::string& counter, double value) {
    counters_[counter] += value;
  }
  [[nodiscard]] double counter(const std::string& name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
  }

  /// Self time per layer, in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[s.parent] += s.end_s - s.start_s;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      self[spans_[i].layer] += spans_[i].end_s - spans_[i].start_s - child[i];
    }
    return self;
  }

  /// Writes every span and counter as one JSON object. Times are seconds
  /// since the tracer was created, printed with all their digits so self
  /// times can be recomputed from the file exactly.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s\n{\"id\":%zu,\"layer\":\"%s\",\"parent\":%d,"
                   "\"flow\":%d,\"start_s\":%.17g,\"end_s\":%.17g}",
                   i == 0 ? "" : ",", i, s.layer.c_str(), s.parent, s.flow,
                   s.start_s, s.end_s);
    }
    std::fprintf(f, "\n],\"counters\":{");
    bool first = true;
    for (const auto& [name, value] : counters_) {
      std::fprintf(f, "%s\"%s\":%.17g", first ? "" : ",", name.c_str(),
                   value);
      first = false;
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string layer;
    double start_s = 0;
    double end_s = 0;
    int parent = -1;  // index of the enclosing span, -1 for a root
    int flow = -1;    // per-flow id, -1 outside any flow
  };

  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }
  int open(const char* layer) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({layer, now(), 0.0, parent, flow_});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  void close(int index) {
    spans_[index].end_s = now();
    stack_.pop_back();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::map<std::string, double> counters_;
  int flow_ = -1;
};

}  // namespace perfbench
