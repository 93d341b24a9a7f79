#include "perfbench.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("percentile rank outside [0, 1]");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

double InvocationTotals::stage_total() const {
  double sum = 0.0;
  for (const auto& [name, s] : stage_s) sum += s;
  return sum;
}

InvocationTotals dedupe_invocations(
    const std::vector<hlp::flow::WorkUnit>& units,
    const std::vector<hlp::flow::JobResult>& results) {
  InvocationTotals t;
  for (const hlp::flow::WorkUnit& unit : units) {
    if (unit.members.empty()) continue;
    const hlp::flow::JobResult& lead = results.at(unit.members.front());
    for (const std::size_t i : unit.members)
      if (results.at(i).seconds != lead.seconds)
        throw std::runtime_error(
            "members of one work unit report different invocation seconds");
    ++t.invocations;
    t.jobs += unit.members.size();
    t.seconds += lead.seconds;
    if (!lead.outcome.cached_stages.empty()) ++t.cached;
    for (const hlp::flow::StageTiming& st : lead.outcome.timings)
      t.stage_s[st.name] += st.seconds;
    t.lut_evals += static_cast<double>(lead.outcome.flow.mapped.num_luts) *
                   lead.job.num_vectors *
                   static_cast<double>(unit.members.size());
    if (lead.job.binder.name == "lopass")
      t.lopass_bind_s += lead.outcome.bind_seconds;
    else if (lead.job.binder.name == "hlpower")
      t.hlpower_bind_s += lead.outcome.bind_seconds;
  }
  return t;
}

namespace {
double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
}  // namespace

Trace::Trace(bool enabled) : enabled_(enabled), origin_(steady_seconds()) {}

double Trace::now() const { return steady_seconds() - origin_; }

Trace::Scope::Scope(Trace& trace, std::string name) : trace_(trace) {
  if (!trace_.enabled_) return;
  index_ = static_cast<int>(trace_.spans_.size());
  trace_.spans_.push_back({std::move(name), trace_.now(), 0.0});
}

Trace::Scope::~Scope() {
  if (index_ < 0) return;
  trace_.spans_[index_].end_s = trace_.now();
}

double Trace::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) sum += s.end_s - s.start_s;
  return sum;
}

void Trace::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? "," : "") << "\n{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
       << ",\"dur\":" << (s.end_s - s.start_s) * 1e6 << "}";
  }
  os << "\n]}\n";
}

}  // namespace perfbench
