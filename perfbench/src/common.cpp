#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "bench.hpp"
#include "runtime/rank_reorder.hpp"

namespace perfbench {

void Checker::check(bool ok, const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 32) failures_.push_back(what);
}

std::int64_t Checker::attempted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return attempted_;
}

std::int64_t Checker::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::vector<std::string> Checker::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (auto& item : items_)
    if (item.first == name) {
      item.second = {value, unit};
      return;
    }
  items_.push_back({name, {value, unit}});
}

json::Value Metrics::to_json() const {
  json::Value doc = json::Value::object();
  for (const auto& [name, vu] : items_) {
    json::Value m = json::Value::object();
    m.set("value", vu.first);
    m.set("unit", vu.second);
    doc.set(name, std::move(m));
  }
  return doc;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mapping_digest(const topomap::core::Mapping& m) {
  std::ostringstream os;
  topomap::rts::write_rank_mapping(os, m);
  return fnv1a(os.str());
}

bool is_bijection(const topomap::core::Mapping& m, int procs) {
  if (static_cast<int>(m.size()) != procs) return false;
  std::vector<char> used(static_cast<std::size_t>(procs), 0);
  for (int p : m) {
    if (p < 0 || p >= procs || used[static_cast<std::size_t>(p)]) return false;
    used[static_cast<std::size_t>(p)] = 1;
  }
  return true;
}

int Trace::open(std::string name, int parent, std::string instance) {
  if (!enabled_) return -1;
  const std::int64_t t = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - epoch_)
                             .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), std::move(instance), parent, t, t});
  return static_cast<int>(spans_.size()) - 1;
}

void Trace::close(int id) {
  if (id < 0) return;
  const std::int64_t t = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - epoch_)
                             .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

Trace::Summary Trace::summarize(const std::string& root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = 1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -=
          1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  std::map<std::string, double> by_name;
  Summary out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += self[i];
    if (spans_[i].name == root) {
      out.root_s +=
          1e-9 * static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
      out.uncovered_s += self[i];
    }
  }
  out.self_s.assign(by_name.begin(), by_name.end());
  return out;
}

void Trace::write(const std::string& path, const json::Value& meta) const {
  json::Value doc = json::Value::object();
  doc.set("meta", meta);
  json::Value spans = json::Value::array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json::Value v = json::Value::object();
      v.set("id", static_cast<int>(i));
      v.set("name", s.name);
      v.set("parent", s.parent);
      v.set("instance", s.instance);
      v.set("start_ns", s.start_ns);
      v.set("end_ns", s.end_ns);
      spans.push_back(std::move(v));
    }
  }
  doc.set("spans", std::move(spans));
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream os(p);
  os << doc.dump() << '\n';
}

void check_across_runs(const Options& opt, const Outcome& out,
                       Checker& check) {
  if (opt.digest_file.empty() || out.fingerprint.empty()) return;
  std::string text;
  for (const std::string& line : out.fingerprint) text += line + "\n";
  std::ifstream in(opt.digest_file);
  if (in) {
    const std::string earlier((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    check.check(earlier == text, "results differ from an earlier run (" +
                                     opt.digest_file + ")");
    return;
  }
  const std::filesystem::path p(opt.digest_file);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  const std::filesystem::path tmp = p.string() + ".tmp";
  std::ofstream(tmp) << text;
  std::filesystem::rename(tmp, p);
}

void report_trace_ratios(const Trace& trace, const std::string& root,
                         const std::vector<double>& traced_s,
                         const std::vector<double>& untraced_s, Outcome& out) {
  const Trace::Summary s = trace.summarize(root);
  out.metrics.set("trace.uncovered_ratio",
                  s.root_s > 0.0 ? s.uncovered_s / s.root_s : 0.0, "ratio");
  const double untraced = median(untraced_s);
  out.metrics.set("trace.overhead_ratio",
                  untraced > 0.0 ? median(traced_s) / untraced : 0.0, "ratio");
  for (const auto& [name, self] : s.self_s)
    out.notes.push_back("self " + name + " " + json::format_number(self) +
                        " s");
}

}  // namespace perfbench
