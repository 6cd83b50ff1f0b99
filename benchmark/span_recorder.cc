#include "span_recorder.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/json.h"

namespace pasa_bench {

using pasa::Status;

int64_t SpanRecorder::Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanRecorder::SpanId SpanRecorder::Begin(const char* name, uint64_t rid,
                                         SpanId parent) {
  spans_.push_back(Span{name, rid, parent, Now(), 0});
  return static_cast<SpanId>(spans_.size() - 1);
}

void SpanRecorder::End(SpanId id) { spans_[id].end_ns = Now(); }

SpanRecorder::SpanId SpanRecorder::Add(const char* name, uint64_t rid,
                                       SpanId parent, int64_t start_ns,
                                       int64_t end_ns) {
  spans_.push_back(Span{name, rid, parent, start_ns, end_ns});
  return static_cast<SpanId>(spans_.size() - 1);
}

std::map<std::string, SpanRecorder::SelfTime> SpanRecorder::SelfTimes()
    const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> total;
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    total[span.name] +=
        static_cast<double>(span.end_ns - span.start_ns - child_ns[i]);
    ++out[span.name].count;
  }
  for (auto& [name, self] : out) {
    self.mean_ns = total[name] / static_cast<double>(self.count);
  }
  return out;
}

Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  using V = pasa::obs::json::Value;
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) origin = std::min(origin, span.start_ns);
  // One event at a time, so the trace never sits in memory as a document.
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double parent =
        span.parent == kNoParent ? -1.0 : static_cast<double>(span.parent);
    const V event = V::MakeObject({
        {"name", V::MakeString(span.name)},
        {"ph", V::MakeString("X")},
        {"pid", V::MakeNumber(1)},
        {"tid", V::MakeNumber(1)},
        {"ts", V::MakeNumber(static_cast<double>(span.start_ns - origin) / 1e3)},
        {"dur",
         V::MakeNumber(static_cast<double>(span.end_ns - span.start_ns) / 1e3)},
        {"args",
         V::MakeObject({{"id", V::MakeNumber(static_cast<double>(i))},
                        {"parent", V::MakeNumber(parent)},
                        {"rid", V::MakeNumber(static_cast<double>(span.rid))}})},
    });
    out << (i == 0 ? "\n" : ",\n") << pasa::obs::json::Serialize(event);
  }
  out << "\n]}\n";
  if (!out) return Status::Internal("cannot write " + path);
  return Status::Ok();
}

double SpanRecorder::MeasureSpanCostNs() {
  constexpr size_t kSpans = 100'000;
  SpanRecorder scratch(kSpans);
  const int64_t start = Now();
  for (size_t i = 0; i < kSpans; ++i) scratch.End(scratch.Begin("x", i));
  return static_cast<double>(Now() - start) / static_cast<double>(kSpans);
}

Status CheckChromeTrace(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot read " + path);
  std::ostringstream text;
  text << file.rdbuf();
  pasa::Result<pasa::obs::json::Value> doc =
      pasa::obs::json::Parse(text.str());
  if (!doc.ok()) return doc.status();
  const pasa::obs::json::Value* events = doc->Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Status::InvalidArgument(path + ": no traceEvents array");
  }
  struct Bounds {
    int64_t start = 0;
    int64_t end = 0;
    int64_t parent = -1;
    int64_t child_ns = 0;
  };
  std::vector<Bounds> bounds(events->array().size());
  for (const pasa::obs::json::Value& event : events->array()) {
    const pasa::obs::json::Value* args = event.Find("args");
    const pasa::obs::json::Value* ts = event.Find("ts");
    const pasa::obs::json::Value* dur = event.Find("dur");
    if (args == nullptr || ts == nullptr || dur == nullptr ||
        args->Find("id") == nullptr || args->Find("parent") == nullptr) {
      return Status::InvalidArgument(path + ": span without ts/dur/args");
    }
    const double id = args->Find("id")->number();
    if (id < 0 || id >= static_cast<double>(bounds.size())) {
      return Status::InvalidArgument(path + ": span id out of range");
    }
    Bounds& b = bounds[static_cast<size_t>(id)];
    b.start = std::llround(ts->number() * 1e3);
    b.end = b.start + std::llround(dur->number() * 1e3);
    b.parent = static_cast<int64_t>(args->Find("parent")->number());
  }
  for (size_t i = 0; i < bounds.size(); ++i) {
    const Bounds& child = bounds[i];
    if (child.end < child.start) {
      return Status::Internal("span " + std::to_string(i) +
                              " ends before it starts");
    }
    if (child.parent < 0) continue;
    if (child.parent >= static_cast<int64_t>(bounds.size())) {
      return Status::Internal("span " + std::to_string(i) +
                              " has an unknown parent");
    }
    Bounds& parent = bounds[static_cast<size_t>(child.parent)];
    if (child.start < parent.start || child.end > parent.end) {
      return Status::Internal("span " + std::to_string(i) +
                              " lies outside its parent");
    }
    parent.child_ns += child.end - child.start;
  }
  for (size_t i = 0; i < bounds.size(); ++i) {
    if (bounds[i].end - bounds[i].start < bounds[i].child_ns) {
      return Status::Internal("span " + std::to_string(i) +
                              " has negative self time");
    }
  }
  return Status::Ok();
}

}  // namespace pasa_bench
