// Self-test of the benchmark's output checkers: each must reject a
// deliberately wrong output and accept the right one. The acknowledged-
// write and wrong-value cases run against a small real cluster, with the
// damage done behind the checker's back.

#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "core/cluster.h"
#include "workload/ycsb.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dinomo;

constexpr size_t kValue = 256;

int Expect(bool caught, const char* what) {
  std::printf("selftest: %-52s %s\n", what, caught ? "ok" : "MISJUDGED");
  return caught ? 0 : 1;
}

std::vector<kn::ScanRow> Rows(const std::vector<uint64_t>& records) {
  std::vector<kn::ScanRow> rows;
  for (uint64_t r : records) {
    rows.push_back({workload::KeyForRecord(r), EncodeValue(r, 1, kValue)});
  }
  return rows;
}

int CheckerCases() {
  int bad = 0;
  std::string v = EncodeValue(5, 3, kValue);
  const DecodedValue d = DecodeValue(v, kValue);
  bad += Expect(d.ok && d.record == 5 && d.version == 3,
                "value codec round trip");
  v[100] ^= 1;
  bad += Expect(!DecodeValue(v, kValue).ok, "corrupted value rejected");

  const Result<std::string> other(EncodeValue(6, 1, kValue));
  bad += Expect(!CheckGet(5, other, 1, 1, kValue).empty(),
                "GET returning another key's value caught");
  const Result<std::string> stale(EncodeValue(5, 1, kValue));
  bad += Expect(!CheckGet(5, stale, 2, 2, kValue).empty(),
                "GET older than an acknowledged write caught");
  const Result<std::string> missing(Status::NotFound());
  bad += Expect(!CheckGet(5, missing, 1, 1, kValue).empty(),
                "GET NotFound for a loaded key caught");
  bad += Expect(CheckGet(5, missing, 0, 1, kValue).empty(),
                "GET NotFound before any acknowledgement accepted");
  bad += Expect(CheckGet(5, stale, 1, 2, kValue).empty(),
                "GET of a possible version accepted");

  VersionBook book(100);
  for (uint64_t r = 0; r < 100; ++r) book.At(r).issued = book.At(r).acked = 1;
  bad += Expect(CheckScan(10, 5, Rows({10, 11, 12, 13, 14}), book, kValue)
                    .empty(),
                "ordered complete scan accepted");
  bad += Expect(!CheckScan(10, 5, Rows({10, 12, 11, 13, 14}), book, kValue)
                     .empty(),
                "misordered scan caught");
  bad += Expect(!CheckScan(10, 3, Rows({10, 11, 12, 13}), book, kValue)
                     .empty(),
                "scan with more rows than requested caught");
  bad += Expect(!ScanCompleteness(10, 4, Rows({10, 11, 13, 14}), 100).empty(),
                "scan leaving out a loaded row detected");
  bad += Expect(!ScanCompleteness(10, 2, Rows({11, 12}), 100).empty(),
                "scan leaving out its start row detected");
  bad += Expect(ScanCompleteness(10, 2, Rows({10, 11}), 100).empty(),
                "complete scan window accepted");
  auto swapped = Rows({10, 11});
  swapped[1].value = EncodeValue(12, 1, kValue);
  bad += Expect(!CheckScan(10, 2, swapped, book, kValue).empty(),
                "scan row holding another key's value caught");
  bad += Expect(CheckScan(98, 5, Rows({98, 99}), book, kValue).empty(),
                "scan running off the loaded range accepted");
  return bad;
}

int ClusterCases() {
  ClusterOptions opt;
  opt.dpm.pool_size = 32 * 1024 * 1024;
  opt.dpm.segment_size = 256 * 1024;
  opt.dpm.index_log2_buckets = 8;
  opt.kn.num_workers = 1;
  opt.kn.cache_bytes = 1024 * 1024;
  opt.dpm_merge_threads = 1;
  Cluster cluster(opt);
  if (!cluster.Start().ok()) return Expect(false, "self-test cluster start");
  int bad = 0;
  {
    auto client = cluster.NewClient();
    for (uint64_t r = 0; r < 64; ++r) {
      if (!client->Put(workload::KeyForRecord(r), EncodeValue(r, 1, kValue))
               .ok()) {
        bad += Expect(false, "self-test preload");
      }
    }
    // Damage behind the checker's back: lose record 7's acknowledged
    // write and give record 9 the value of record 10.
    (void)client->Delete(workload::KeyForRecord(7));
    (void)client->Put(workload::KeyForRecord(9), EncodeValue(10, 1, kValue));
  }
  for (uint64_t id : cluster.ActiveKns()) {
    cluster.kn(id)->RunOnAllWorkers(
        [](kn::KnWorker* w) { (void)w->FlushWrites(); });
  }
  (void)cluster.dpm()->merge()->DrainAll();
  auto fresh = cluster.NewClient();
  auto read = [&fresh](uint64_t r) {
    return CheckGet(r, fresh->Get(workload::KeyForRecord(r)), 1, 1, kValue);
  };
  bad += Expect(!read(7).empty(),
                "missing acknowledged write caught (cluster)");
  bad += Expect(!read(9).empty(), "wrong value caught (cluster)");
  bad += Expect(read(8).empty(), "intact write accepted (cluster)");
  fresh.reset();
  cluster.Stop();
  return bad;
}

}  // namespace

int RunSelfTest() { return CheckerCases() + ClusterCases(); }

}  // namespace perfbench
