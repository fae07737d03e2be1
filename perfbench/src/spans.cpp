#include "spans.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string_view>
#include <unordered_map>

namespace perfbench {

namespace {

/// Small per-thread integers in first-span order (Chrome trace "tid").
std::uint32_t this_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid = next.fetch_add(1) + 1;
  return tid;
}

std::string layer_of(const char* name) {
  const std::string_view n(name);
  return std::string(n.substr(0, n.find('.')));
}

}  // namespace

void Tracer::add(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void PassLog::add(const char* name, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_[name].push_back(seconds);
}

double PassLog::total(const std::string& name) const {
  double sum = 0;
  for (const double s : samples(name)) sum += s;
  return sum;
}

std::vector<double> PassLog::samples(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = samples_.find(name);
  return it == samples_.end() ? std::vector<double>{} : it->second;
}

SpanScope::SpanScope(PassLog& log, const char* name, std::uint32_t parent,
                     std::uint32_t weight)
    : log_(log) {
  span_.id = log.tracer() ? log.tracer()->next_id() : 0;
  span_.parent = parent;
  span_.pass = log.pass();
  span_.weight = weight;
  span_.name = name;
  span_.t0 = Clock::now();
}

double SpanScope::close() {
  if (!open_) return seconds_;
  open_ = false;
  span_.t1 = Clock::now();
  span_.tid = this_tid();
  seconds_ = seconds_between(span_.t0, span_.t1);
  log_.add(span_.name, seconds_);
  if (Tracer* tr = log_.tracer()) tr->add(span_);
  return seconds_;
}

std::map<std::string, double> attribute(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  const auto root = std::find_if(spans.begin(), spans.end(),
                                 [](const Span& s) { return s.parent == 0; });
  if (root == spans.end()) return out;
  const Clock::time_point lo = root->t0, hi = root->t1;

  struct Event {
    Clock::time_point t;
    bool start;
    std::size_t span;
  };
  std::vector<Event> events;
  events.reserve(2 * spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Clock::time_point a = std::max(spans[i].t0, lo);
    const Clock::time_point b = std::min(spans[i].t1, hi);
    if (b <= a) continue;
    events.push_back({a, true, i});
    events.push_back({b, false, i});
  }
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    return x.t < y.t || (x.t == y.t && !x.start && y.start);
  });

  std::unordered_map<std::uint32_t, std::uint32_t> running_children;
  std::vector<std::size_t> active;
  Clock::time_point prev = lo;
  for (const Event& e : events) {
    const double dt = seconds_between(prev, e.t);
    if (dt > 0 && !active.empty()) {
      double total_weight = 0;
      std::vector<double> eff(active.size());
      for (std::size_t k = 0; k < active.size(); ++k) {
        const Span& s = spans[active[k]];
        const std::uint32_t kids = running_children[s.id];
        eff[k] = s.weight > kids ? static_cast<double>(s.weight - kids) : 0.0;
        total_weight += eff[k];
      }
      if (total_weight > 0)
        for (std::size_t k = 0; k < active.size(); ++k)
          if (eff[k] > 0)
            out[layer_of(spans[active[k]].name)] += dt * eff[k] / total_weight;
    }
    prev = e.t;
    const Span& s = spans[e.span];
    if (e.start) {
      active.push_back(e.span);
      ++running_children[s.parent];
    } else {
      active.erase(std::find(active.begin(), active.end(), e.span));
      --running_children[s.parent];
    }
  }
  return out;
}

void write_chrome_trace(const std::vector<Span>& spans, std::ostream& os) {
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans) origin = std::min(origin, s.t0);
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%" PRIu32
                  ",\"args\":{\"pass\":%" PRIu32 ",\"id\":%" PRIu32
                  ",\"parent\":%" PRIu32 ",\"weight\":%" PRIu32 "}}",
                  i ? "," : "", s.name, layer_of(s.name).c_str(), us(s.t0),
                  us(s.t1) - us(s.t0), s.tid, s.pass, s.id, s.parent,
                  s.weight);
    os << buf;
  }
  os << "\n]}\n";
}

}  // namespace perfbench
