#include "bench.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/hash.h"
#include "workload/ycsb.h"

namespace perfbench {

using dinomo::Mix64;

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double UsageCpuS(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}
}  // namespace

double ProcessCpuS() { return UsageCpuS(RUSAGE_SELF); }
double ThreadCpuS() { return UsageCpuS(RUSAGE_THREAD); }

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpu = c;
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

HostTicks ReadHostTicks() {
  HostTicks t;
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    t.steal = v[7];
    for (unsigned long long x : v) t.total += x;
  }
  std::fclose(f);
  return t;
}

double StealShare(const HostTicks& before, const HostTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

void NoteHostSteal(const HostTicks& before) {
  const double share = StealShare(before, ReadHostTicks());
  if (share > 0.02) {
    std::printf("NOTE: the host took %.0f%% of this VM's CPU time during "
                "the measured interval; its host-time metrics are "
                "disturbed\n", share * 100);
  }
}

double Percentile(std::vector<float>& v, double p) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + rank, v.end());
  return v[rank];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ----- Report -----

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Fail("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_[name] = {value, unit};
}

double Report::Get(const std::string& name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second.first;
}

void Report::Keep(const std::vector<MetricDef>& defs) {
  std::map<std::string, std::pair<double, std::string>> kept;
  for (const MetricDef& d : defs) kept[d.name] = {Get(d.name), d.unit};
  metrics_ = std::move(kept);
}

void Report::Fail(const std::string& why) {
  if (reasons_.size() < 10) reasons_.push_back(why);
  errors_++;
}

void Report::Print() const {
  for (const std::string& r : reasons_) {
    std::printf("CHECK FAILED: %s\n", r.c_str());
  }
  if (errors_ > reasons_.size()) {
    std::printf("CHECK FAILED: ... %llu failed checks in total\n",
                static_cast<unsigned long long>(errors_));
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), vu.first, vu.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

uint64_t SumCounters(const dinomo::obs::MetricsSnapshot& delta,
                     const std::string& prefix, const std::string& suffix) {
  uint64_t sum = 0;
  for (auto it = delta.counters.lower_bound(prefix);
       it != delta.counters.end() && it->first.compare(0, prefix.size(),
                                                       prefix) == 0;
       ++it) {
    const std::string& n = it->first;
    if (n.size() >= suffix.size() &&
        n.compare(n.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += it->second;
    }
  }
  return sum;
}

// ----- Values -----

namespace {
constexpr size_t kHeader = 16;

uint32_t CheckWord(uint64_t record, uint32_t version) {
  return static_cast<uint32_t>(Mix64(record * 0x9e3779b97f4a7c15ULL + version));
}
uint64_t FillWord(uint64_t record, uint32_t version) {
  return Mix64(record ^ (static_cast<uint64_t>(version) << 40) ^
               0x5bd1e9955bd1e995ULL);
}
}  // namespace

void EncodeValueInto(uint64_t record, uint32_t version, size_t size,
                     std::string* out) {
  out->resize(std::max(size, kHeader));
  char* p = out->data();
  const uint32_t check = CheckWord(record, version);
  std::memcpy(p, &record, 8);
  std::memcpy(p + 8, &version, 4);
  std::memcpy(p + 12, &check, 4);
  const uint64_t fill = FillWord(record, version);
  size_t off = kHeader;
  for (; off + 8 <= out->size(); off += 8) std::memcpy(p + off, &fill, 8);
  std::memcpy(p + off, &fill, out->size() - off);
}

std::string EncodeValue(uint64_t record, uint32_t version, size_t size) {
  std::string v;
  EncodeValueInto(record, version, size, &v);
  return v;
}

DecodedValue DecodeValue(const std::string& value, size_t size) {
  DecodedValue d;
  if (value.size() != std::max(size, kHeader)) return d;
  const char* p = value.data();
  uint32_t check = 0;
  std::memcpy(&d.record, p, 8);
  std::memcpy(&d.version, p + 8, 4);
  std::memcpy(&check, p + 12, 4);
  if (check != CheckWord(d.record, d.version)) return d;
  const uint64_t fill = FillWord(d.record, d.version);
  size_t off = kHeader;
  for (; off + 8 <= value.size(); off += 8) {
    if (std::memcmp(p + off, &fill, 8) != 0) return d;
  }
  if (std::memcmp(p + off, &fill, value.size() - off) != 0) return d;
  d.ok = true;
  return d;
}

// ----- Checks -----

KeyVersions& VersionBook::At(uint64_t record) {
  return record < dense_.size() ? dense_[record] : sparse_[record];
}

const KeyVersions* VersionBook::Find(uint64_t record) const {
  if (record < dense_.size()) {
    return dense_[record].issued > 0 ? &dense_[record] : nullptr;
  }
  auto it = sparse_.find(record);
  return it == sparse_.end() ? nullptr : &it->second;
}

std::string CheckGet(uint64_t record, const dinomo::Result<std::string>& r,
                     uint32_t acked_at_submit, uint32_t issued_now,
                     size_t value_size) {
  // Messages are built only on failure: this runs on the load thread for
  // every GET.
  auto at = [record] { return "GET " + std::to_string(record) + ": "; };
  if (!r.ok()) {
    if (r.status().IsNotFound() && acked_at_submit > 0) {
      return at() + "NotFound for a loaded key";
    }
    return "";
  }
  const DecodedValue d = DecodeValue(r.value(), value_size);
  if (!d.ok) return at() + "malformed value";
  if (d.record != record) {
    return at() + "returned the value of record " + std::to_string(d.record);
  }
  if (d.version < acked_at_submit) {
    return at() + "version " + std::to_string(d.version) +
           " older than acknowledged version " +
           std::to_string(acked_at_submit);
  }
  if (d.version > issued_now) {
    return at() + "version " + std::to_string(d.version) +
           " was never written";
  }
  return "";
}

std::string CheckScan(uint64_t start_record, uint32_t requested,
                      const std::vector<dinomo::kn::ScanRow>& rows,
                      const VersionBook& book, size_t value_size) {
  auto at = [&] {
    return "SCAN " + std::to_string(start_record) + "+" +
           std::to_string(requested) + ": ";
  };
  if (rows.size() > requested) {
    return at() + std::to_string(rows.size()) + " rows, more than requested";
  }
  uint64_t prev = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].key.size() != 8) return at() + "malformed row key";
    const uint64_t rec = dinomo::workload::RecordForKey(rows[i].key);
    if (rec < start_record) return at() + "row before the start key";
    if (i > 0 && rec <= prev) return at() + "rows out of key order";
    prev = rec;
    const DecodedValue d = DecodeValue(rows[i].value, value_size);
    if (!d.ok || d.record != rec) {
      return at() + "row " + std::to_string(rec) + " holds another key's value";
    }
    const KeyVersions* kv = book.Find(rec);
    if (kv == nullptr || d.version == 0 || d.version > kv->issued) {
      return at() + "row " + std::to_string(rec) + " was never written";
    }
  }
  return "";
}

std::string ScanCompleteness(uint64_t start_record, uint32_t requested,
                             const std::vector<dinomo::kn::ScanRow>& rows,
                             uint64_t dense_records) {
  if (start_record + requested > dense_records) return "";
  for (size_t i = 0; i < requested; ++i) {
    if (i >= rows.size() ||
        dinomo::workload::RecordForKey(rows[i].key) != start_record + i) {
      return "SCAN " + std::to_string(start_record) + "+" +
             std::to_string(requested) + ": left out loaded record " +
             std::to_string(start_record + i);
    }
  }
  return "";
}

FailKind Classify(const dinomo::Status& s) {
  if (s.IsOutOfMemory()) return FailKind::kOutOfMemory;
  if (s.IsDeadlineExceeded() || s.IsTimedOut()) return FailKind::kDeadline;
  if (s.IsUnavailable() || s.IsBusy() || s.IsWrongOwner()) {
    return FailKind::kUnavailable;
  }
  return FailKind::kOther;
}

const char* FailKindMetric(FailKind k) {
  switch (k) {
    case FailKind::kOutOfMemory: return "core.failed_out_of_memory";
    case FailKind::kDeadline: return "core.failed_deadline";
    case FailKind::kUnavailable: return "core.failed_unavailable";
    case FailKind::kWrongValue: return "core.failed_wrong_value";
    default: return "core.failed_other";
  }
}

}  // namespace perfbench
