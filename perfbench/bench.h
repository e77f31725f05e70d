// Shared pieces of the repository benchmark: clocks and resource usage,
// the metric report, the value codec and the output checkers.
//
// The checkers are plain functions over the benchmark's own bookkeeping so
// the self-test (selftest.cc) can feed them deliberately wrong outputs.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "kn/kn_worker.h"
#include "obs/metrics.h"

namespace perfbench {

// ----- Clocks and resource usage -----

double NowS();
/// User + system CPU of the whole process, seconds.
double ProcessCpuS();
/// User + system CPU of the calling thread, seconds.
double ThreadCpuS();
/// Peak resident set of the process so far, MiB.
double PeakRssMb();
/// Restricts the calling thread, and every thread it starts afterwards, to
/// the highest-numbered CPU it may run on. Returns that CPU, or -1.
int PinToOneCpu();

/// CPU ticks the host took from this VM (the steal column of /proc/stat)
/// and all CPU ticks; both 0 where /proc/stat cannot be read.
struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
HostTicks ReadHostTicks();
/// Share of the VM's CPU time the host took between two readings; 0 when
/// /proc/stat could not be read.
double StealShare(const HostTicks& before, const HostTicks& after);
/// Prints a NOTE when the host took more than 2 % of the VM's CPU time
/// since `before`: the host-time metrics of that interval are disturbed.
void NoteHostSteal(const HostTicks& before);

/// p-th percentile (0..100) of `v` by nearest rank; reorders `v`.
double Percentile(std::vector<float>& v, double p);
double Median(std::vector<double> v);

// ----- Report -----

/// Failure classes reported beside the failure ratio.
enum class FailKind { kOutOfMemory, kDeadline, kUnavailable, kWrongValue,
                      kOther, kCount };
FailKind Classify(const dinomo::Status& s);
const char* FailKindMetric(FailKind k);

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The run's result: every metric with its unit, the operation counts and
/// the verdict of the output checks. Print() writes the one JSON line the
/// caller (run.py) parses.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;
  /// Keeps exactly `defs`: drops other metrics and sets 0 for any of
  /// `defs` the run did not measure.
  void Keep(const std::vector<MetricDef>& defs);

  /// Records a failed output check. The first few reasons are kept.
  void Fail(const std::string& why);
  bool correct() const { return errors_ == 0; }

  /// Counts one failed operation under its class.
  void OpFailed(FailKind kind) {
    failed++;
    fail_kinds[static_cast<size_t>(kind)]++;
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t fail_kinds[static_cast<size_t>(FailKind::kCount)] = {};
  /// Scans run, and scans that left out a loaded record.
  uint64_t scans = 0;
  uint64_t incomplete_scans = 0;

  void Print() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> reasons_;
  uint64_t errors_ = 0;
};

// ----- Counter deltas from the always-on registry -----

/// Sum of the counter deltas whose name starts with `prefix` and ends
/// with `suffix`.
uint64_t SumCounters(const dinomo::obs::MetricsSnapshot& delta,
                     const std::string& prefix, const std::string& suffix);

// ----- Values -----

/// Every value the benchmark writes is `size` bytes: the record id, the
/// key's version and a check word, then filler derived from both. A read
/// can therefore tell which key and which write it returned.
std::string EncodeValue(uint64_t record, uint32_t version, size_t size);
/// Fills `out` (resized to `size`) without allocating when it has room.
void EncodeValueInto(uint64_t record, uint32_t version, size_t size,
                     std::string* out);

struct DecodedValue {
  bool ok = false;
  uint64_t record = 0;
  uint32_t version = 0;
};
DecodedValue DecodeValue(const std::string& value, size_t size);

// ----- Output checks -----

/// Versions of one key as the load generator saw them: the highest
/// version submitted and the highest version acknowledged.
struct KeyVersions {
  uint32_t issued = 0;
  uint32_t acked = 0;
};

/// Per-key write bookkeeping: dense for the preloaded records, a map for
/// records the workload inserts.
class VersionBook {
 public:
  explicit VersionBook(uint64_t records) : dense_(records) {}
  KeyVersions& At(uint64_t record);
  /// nullptr when the record was never written.
  const KeyVersions* Find(uint64_t record) const;
  uint64_t records() const { return dense_.size(); }
  /// Inserted records whose insert was acknowledged, in insertion order.
  std::vector<uint64_t>& acked_inserts() { return acked_inserts_; }

 private:
  std::vector<KeyVersions> dense_;
  std::unordered_map<uint64_t, KeyVersions> sparse_;
  std::vector<uint64_t> acked_inserts_;
};

/// Checks one GET of `record`: `acked_at_submit` is the key's acknowledged
/// version when the GET was submitted, `issued_now` the highest version
/// submitted by the time it completed. Returns "" when the result is
/// possible, otherwise why it is not (another key's value, a lost
/// acknowledged write, a version never written, NotFound for a loaded key).
std::string CheckGet(uint64_t record, const dinomo::Result<std::string>& r,
                     uint32_t acked_at_submit, uint32_t issued_now,
                     size_t value_size);

/// Checks one scan from `start_record` asking for `requested` rows: rows
/// in strictly ascending key order, no more than requested, none before
/// the start key, each value belonging to its row's key and no newer than
/// any version issued. Returns "" or why the result is impossible.
std::string CheckScan(uint64_t start_record, uint32_t requested,
                      const std::vector<dinomo::kn::ScanRow>& rows,
                      const VersionBook& book, size_t value_size);

/// When the scan's window lies entirely in the dense loaded range
/// [0, dense_records), every record of it must come back. Returns "" or
/// the first record left out. Reported as core.scan_incomplete_ratio, not
/// as a failed check: see README.md "Known limits".
std::string ScanCompleteness(uint64_t start_record, uint32_t requested,
                             const std::vector<dinomo::kn::ScanRow>& rows,
                             uint64_t dense_records);


}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
