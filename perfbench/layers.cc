#include "layers.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <string>

#include "cache/dac.h"
#include "cluster/hash_ring.h"
#include "common/hash.h"
#include "common/random.h"
#include "dpm/dpm_node.h"
#include "dpm/log.h"
#include "index/clht.h"
#include "index/skiplist.h"
#include "kn/kn_worker.h"
#include "net/fabric.h"
#include "pm/pm_allocator.h"
#include "pm/pm_pool.h"
#include "sim/engine.h"

namespace perfbench {

using namespace dinomo;

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"throughput_ops_s", "1/s"}, {"cpu_us_per_op", "us"},
      {"p50_us", "us"},            {"p90_us", "us"},
      {"rts_per_op", "RT/op"},     {"pm_space_amp", "ratio"},
      {"setup_s", "s"},            {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"core.client_cpu_us_per_op", "us"},
      {"core.load_thread_busy", "ratio"},
      {"core.client_call_us", "us"},
      {"core.in_flight_us", "us"},
      {"core.backoff_us", "us"},
      {"core.get_p50_us", "us"},
      {"core.get_p99_us", "us"},
      {"core.put_p50_us", "us"},
      {"core.put_p99_us", "us"},
      {"core.scan_p50_us", "us"},
      {"core.scan_p99_us", "us"},
      {"core.op_failure_ratio", "ratio"},
      {"core.scan_incomplete_ratio", "ratio"},
      {"core.failed_out_of_memory", "count"},
      {"core.failed_deadline", "count"},
      {"core.failed_unavailable", "count"},
      {"core.failed_wrong_value", "count"},
      {"core.failed_other", "count"},
      {"kn.queue_wait_us", "us"},
      {"kn.batch_scan_us", "us"},
      {"kn.flush_us", "us"},
      {"kn.icache_hit_ratio", "ratio"},
      {"kn.worker_imbalance", "ratio"},
      {"cache.hit_ratio", "ratio"},
      {"cache.value_hit_share", "ratio"},
      {"cache.probe_us", "us"},
      {"cache.lookup_ns", "ns"},
      {"cache.invalidate_full_us", "us"},
      {"cache.demotions_per_op", "1/op"},
      {"net.read_ns", "ns"},
      {"net.write_ns", "ns"},
      {"net.wire_bytes_per_op", "B/op"},
      {"net.rpcs_per_op", "1/op"},
      {"net.doorbell_ops_per_batch", "ratio"},
      {"dpm.log_encode_ns", "ns"},
      {"dpm.log_decode_ns", "ns"},
      {"dpm.merge_exec_us", "us"},
      {"dpm.merge_wait_us", "us"},
      {"dpm.merge_entries_per_op", "1/op"},
      {"dpm.merge_ns_per_entry", "ns"},
      {"dpm.merge_queue_max_depth", "count"},
      {"dpm.merge_stalls", "count"},
      {"dpm.lock_contended_ratio", "ratio"},
      {"dpm.segments_gced_ratio", "ratio"},
      {"index.lookup_us", "us"},
      {"index.clht_lookup_ns", "ns"},
      {"index.clht_upsert_ns", "ns"},
      {"index.skiplist_upsert_ns", "ns"},
      {"index.skiplist_seek_ns", "ns"},
      {"pm.pool_create_ms_per_gib", "ms/GiB"},
      {"pm.persist_calls_per_op", "1/op"},
      {"pm.persist_bytes_per_op", "B/op"},
      {"common.crc32c_ns_per_kib", "ns/KiB"},
      {"cluster.owner_of_ns", "ns"},
      {"sim.events_per_op", "1/op"},
      {"sim.dispatch_ns", "ns"},
      {"sim.model_p99_us", "us"},
      {"sim.model_slo_violation_s", "s"},
      {"mnode.scale_actions", "count"},
      {"workload.next_ns", "ns"},
      {"workload.generator_ctor_us", "us"},
      {"obs.histogram_record_ns", "ns"},
      {"obs.counter_inc_ns", "ns"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return defs;
}

static const char* UnitOf(const char* name) {
  for (const auto* defs : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      if (std::strcmp(d.name, name) == 0) return d.unit;
    }
  }
  return nullptr;
}

void SetMetric(Report* report, const char* name, double value) {
  const char* unit = UnitOf(name);
  if (unit == nullptr) {
    report->Fail(std::string("undeclared metric ") + name);
    return;
  }
  report->Set(name, value, unit);
}

void FailureMetrics(Report* r) {
  for (size_t k = 0; k < static_cast<size_t>(FailKind::kCount); ++k) {
    SetMetric(r, FailKindMetric(static_cast<FailKind>(k)),
              static_cast<double>(r->fail_kinds[k]));
  }
  SetMetric(r, "core.scan_incomplete_ratio",
            static_cast<double>(r->incomplete_scans) /
                static_cast<double>(std::max<uint64_t>(r->scans, 1)));
  SetMetric(r, "core.op_failure_ratio",
            static_cast<double>(r->failed) /
                static_cast<double>(std::max<uint64_t>(r->attempted, 1)));
}

uint64_t RoundTrips(const obs::MetricsSnapshot& delta) {
  return SumCounters(delta, "fabric.node", ".round_trips");
}

namespace {
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }
}  // namespace

void CounterMetrics(const obs::MetricsSnapshot& delta, double ops,
                    Report* r) {
  auto counter = [&delta](const char* name) -> double {
    auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0.0
                                      : static_cast<double>(it->second);
  };
  const double icache_hits = counter("kn.icache.hits");
  SetMetric(r, "kn.icache_hit_ratio",
            Ratio(icache_hits, icache_hits + counter("kn.icache.misses")));

  double max_ops = 0, sum_ops = 0, workers = 0;
  for (auto it = delta.counters.lower_bound("kn.kn");
       it != delta.counters.end() && it->first.rfind("kn.kn", 0) == 0; ++it) {
    const std::string& n = it->first;
    if (n.size() < 4 || n.compare(n.size() - 4, 4, ".ops") != 0) continue;
    max_ops = std::max(max_ops, static_cast<double>(it->second));
    sum_ops += static_cast<double>(it->second);
    workers++;
  }
  SetMetric(r, "kn.worker_imbalance", Ratio(max_ops, Ratio(sum_ops, workers)));

  const double vh = SumCounters(delta, "cache.kn", ".value_hits");
  const double sh = SumCounters(delta, "cache.kn", ".shortcut_hits");
  const double miss = SumCounters(delta, "cache.kn", ".misses");
  SetMetric(r, "cache.hit_ratio", Ratio(vh + sh, vh + sh + miss));
  SetMetric(r, "cache.value_hit_share", Ratio(vh, vh + sh));
  SetMetric(r, "cache.demotions_per_op",
            Ratio(SumCounters(delta, "cache.kn", ".demotions"), ops));

  SetMetric(r, "net.wire_bytes_per_op",
            Ratio(SumCounters(delta, "fabric.node", ".wire_bytes"), ops));
  SetMetric(r, "net.rpcs_per_op",
            Ratio(SumCounters(delta, "fabric.node", ".rpcs"), ops));
  SetMetric(r, "net.doorbell_ops_per_batch",
            Ratio(counter("fabric.doorbell.fused_ops"),
                  counter("fabric.doorbell.batches")));

  SetMetric(r, "dpm.merge_entries_per_op",
            Ratio(counter("dpm.merge.entries"), ops));
  auto gauge = delta.gauges.find("dpm.merge.queue.max_depth");
  SetMetric(r, "dpm.merge_queue_max_depth",
            gauge == delta.gauges.end() ? 0.0 : gauge->second);
  SetMetric(r, "dpm.merge_stalls", counter("dpm.merge.queue.stalls"));
  SetMetric(r, "dpm.lock_contended_ratio",
            Ratio(SumCounters(delta, "dpm.lock.", ".contended"),
                  SumCounters(delta, "dpm.lock.", ".acquired")));
  SetMetric(r, "dpm.segments_gced_ratio",
            Ratio(counter("dpm.segments_gced"),
                  counter("dpm.segments_allocated")));

  SetMetric(r, "pm.persist_calls_per_op",
            Ratio(counter("pm.persist_calls"), ops));
  SetMetric(r, "pm.persist_bytes_per_op",
            Ratio(counter("pm.persist_bytes"), ops));
}

void TracerMetrics(const obs::Tracer& tracer, Report* r) {
  using obs::SpanKind;
  const std::map<SpanKind, double> self = TracerSelfUsPerRequest(tracer);
  auto us = [&self](SpanKind k) {
    auto it = self.find(k);
    return it == self.end() ? 0.0 : it->second;
  };
  SetMetric(r, "kn.queue_wait_us", us(SpanKind::kQueueWait));
  SetMetric(r, "kn.batch_scan_us", us(SpanKind::kBatchScan));
  SetMetric(r, "kn.flush_us", us(SpanKind::kFlush));
  SetMetric(r, "cache.probe_us", us(SpanKind::kCacheProbe));
  SetMetric(r, "index.lookup_us", us(SpanKind::kIndexLookup));
  SetMetric(r, "dpm.merge_exec_us", us(SpanKind::kMergeExec));
  SetMetric(r, "dpm.merge_wait_us", us(SpanKind::kMergeWait));
  SetMetric(r, "core.backoff_us", us(SpanKind::kBackoff));
}

// ----- Layer pass -----

namespace {

constexpr size_t kMiB = 1024 * 1024;
constexpr int kReps = 3;

uint64_t g_layer_trace = 0;

/// Runs `body` kReps times, each returning the number of calls it timed;
/// returns the median time per call in ns. Each repetition is one span.
template <typename Body>
double TimeNsPerCall(SpanLog* spans, const char* name, Body body) {
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = NowS();
    const double calls = static_cast<double>(body());
    const double t1 = NowS();
    spans->Add(++g_layer_trace | (1ULL << 63), name, t0, t1, true);
    ns.push_back(calls > 0 ? (t1 - t0) * 1e9 / calls : 0.0);
  }
  return Median(ns);
}

/// Runs `body` kReps times, each timing its own region with the callback
/// it is handed; returns the median region time per call in ns.
template <typename Body>
double TimeRegionNsPerCall(SpanLog* spans, const char* name, Body body) {
  std::vector<double> ns;
  for (int rep = 0; rep < kReps; ++rep) {
    double timed_s = 0.0;
    const double t0 = NowS();
    const double calls = static_cast<double>(body(&timed_s));
    spans->Add(++g_layer_trace | (1ULL << 63), name, t0, NowS(), true);
    ns.push_back(calls > 0 ? timed_s * 1e9 / calls : 0.0);
  }
  return Median(ns);
}

}  // namespace

void RunLayerPass(const LayerInputs& in, SpanLog* spans, Report* r) {
  obs::MetricsRegistry local;  // keeps the pass out of the run's counters
  const workload::WorkloadSpec& spec = in.spec;
  const size_t vsize = spec.value_size;
  const uint64_t nkeys = std::min<uint64_t>(spec.record_count, 65536);
  std::vector<std::string> keys;
  std::vector<uint64_t> hashes;
  keys.reserve(nkeys);
  for (uint64_t i = 0; i < nkeys; ++i) {
    keys.push_back(workload::KeyForRecord(i));
    hashes.push_back(kn::KeyHash(keys.back()));
  }
  const std::string value = EncodeValue(0, 1, vsize);

  // common: CRC32C over one value.
  volatile uint32_t sink32 = 0;
  const double crc_ns = TimeNsPerCall(spans, "layer.crc32c", [&] {
    for (int i = 0; i < 4000; ++i) {
      sink32 = sink32 + Crc32c(value.data(), vsize);
    }
    return 4000;
  });
  SetMetric(r, "common.crc32c_ns_per_kib", crc_ns * 1024.0 / vsize);

  // dpm: log entry codec.
  const size_t entry = dpm::EncodedEntrySize(8, vsize);
  std::string buf(entry * 64, '\0');
  SetMetric(r, "dpm.log_encode_ns",
            TimeNsPerCall(spans, "layer.log_encode", [&] {
              for (int i = 0; i < 4000; ++i) {
                const int k = i % 64;
                dpm::EncodeEntry(buf.data() + k * entry, dpm::LogOp::kPut, i,
                                 hashes[k % nkeys], keys[k % nkeys], value);
              }
              return 4000;
            }));
  SetMetric(r, "dpm.log_decode_ns",
            TimeNsPerCall(spans, "layer.log_decode", [&] {
              int ok = 0;
              for (int i = 0; i < 4000; ++i) {
                dpm::LogRecord rec;
                size_t consumed = 0;
                ok += dpm::DecodeEntry(buf.data() + (i % 64) * entry, entry,
                                       &rec, &consumed)
                          .ok();
              }
              if (ok != 4000) r->Fail("layer pass: log entry failed to decode");
              return 4000;
            }));

  // index: CLHT and the ordered skiplist over the workload's keys.
  const size_t index_pool = std::max<size_t>(64 * kMiB, nkeys * 512);
  std::vector<double> clht_lookup;
  SetMetric(r, "index.clht_upsert_ns",
            TimeRegionNsPerCall(spans, "layer.clht_upsert", [&](double* t) {
              pm::PmPool pool(index_pool, false, &local);
              pm::PmAllocator alloc(&pool, 64, index_pool - 64);
              auto created = index::Clht::Create(&pool, &alloc, 12);
              if (!created.ok()) {
                r->Fail("layer pass: CLHT create failed");
                return uint64_t{0};
              }
              std::unique_ptr<index::Clht> table(created.value());
              double t0 = NowS();
              for (uint64_t i = 0; i < nkeys; ++i) {
                (void)table->Upsert(hashes[i], 64 * (i + 1));
              }
              *t += NowS() - t0;
              t0 = NowS();
              uint64_t found = 0;
              for (uint64_t i = 0; i < nkeys; ++i) {
                found += table->Lookup(hashes[i]) == 64 * (i + 1);
              }
              const double lookup_s = NowS() - t0;
              if (found != nkeys) r->Fail("layer pass: CLHT lost a key");
              clht_lookup.push_back(lookup_s * 1e9 / nkeys);
              return nkeys;
            }));
  SetMetric(r, "index.clht_lookup_ns", Median(clht_lookup));

  std::vector<uint64_t> order(nkeys);
  std::iota(order.begin(), order.end(), 0);
  Random shuffle_rng(spec.seed);
  for (uint64_t i = nkeys; i > 1; --i) {
    std::swap(order[i - 1], order[shuffle_rng.Uniform(i)]);
  }
  std::vector<double> seek_ns;
  SetMetric(r, "index.skiplist_upsert_ns",
            TimeRegionNsPerCall(spans, "layer.skiplist_upsert", [&](double* t) {
              pm::PmPool pool(index_pool, false, &local);
              pm::PmAllocator alloc(&pool, 64, index_pool - 64);
              auto created = index::PmSkipList::Create(&pool, &alloc);
              if (!created.ok()) {
                r->Fail("layer pass: skiplist create failed");
                return uint64_t{0};
              }
              std::unique_ptr<index::PmSkipList> list(created.value());
              double t0 = NowS();
              for (uint64_t i : order) {
                (void)list->Upsert(index::PmSkipList::OrderedKey(keys[i]),
                                   64 * (i + 1));
              }
              *t += NowS() - t0;
              t0 = NowS();
              uint64_t hits = 0;
              for (uint64_t i : order) {
                list->ForEachFrom(index::PmSkipList::OrderedKey(keys[i]),
                                  [&hits](uint64_t, pm::PmPtr) {
                                    hits++;
                                    return false;
                                  });
              }
              seek_ns.push_back((NowS() - t0) * 1e9 / nkeys);
              if (hits != nkeys) r->Fail("layer pass: skiplist seek missed");
              return nkeys;
            }));
  SetMetric(r, "index.skiplist_seek_ns", Median(seek_ns));

  // cache: DAC lookups with the workload's key distribution, and a full
  // InvalidateIf scan (what every routing push costs a KN worker).
  {
    cache::DacCache dac(in.cache_bytes_per_worker,
                        obs::Scope("perfbench.cache", &local));
    for (uint64_t i = 0; i < nkeys; ++i) {
      dac.AdmitOnWrite(hashes[i], value,
                       dpm::ValuePtr::Pack(64 * (i + 1),
                                           static_cast<uint32_t>(entry)));
    }
    workload::WorkloadSpec read_spec = spec;
    read_spec.read_proportion = 1.0;
    read_spec.update_proportion = read_spec.insert_proportion =
        read_spec.scan_proportion = 0.0;
    workload::WorkloadGenerator gen(read_spec, 7);
    std::vector<uint64_t> probe;
    for (int i = 0; i < 20000; ++i) {
      probe.push_back(kn::KeyHash(gen.Next().key));
    }
    SetMetric(r, "cache.lookup_ns",
              TimeNsPerCall(spans, "layer.dac_lookup", [&] {
                size_t bytes = 0;
                for (uint64_t h : probe) bytes += dac.Lookup(h).value.size();
                sink32 = sink32 + static_cast<uint32_t>(bytes);
                return probe.size();
              }));
    SetMetric(r, "cache.invalidate_full_us",
              TimeNsPerCall(spans, "layer.dac_invalidate_if", [&] {
                for (int i = 0; i < 5; ++i) {
                  dac.InvalidateIf([](uint64_t) { return false; });
                }
                return 5;
              }) / 1e3);
  }

  // net: one-sided fabric read and write of one log entry.
  {
    pm::PmPool pool(16 * kMiB, false, &local);
    net::Fabric fabric(&pool, net::LinkProfile{}, &local);
    std::string dst(entry, '\0');
    const size_t slots = (16 * kMiB - 4096) / entry;
    SetMetric(r, "net.write_ns",
              TimeNsPerCall(spans, "layer.fabric_write", [&] {
                for (int i = 0; i < 20000; ++i) {
                  fabric.Write(1, buf.data(), 4096 + (i % slots) * entry,
                               entry);
                }
                return 20000;
              }));
    SetMetric(r, "net.read_ns", TimeNsPerCall(spans, "layer.fabric_read", [&] {
                for (int i = 0; i < 20000; ++i) {
                  fabric.Read(1, 4096 + (i % slots) * entry, dst.data(), entry);
                }
                return 20000;
              }));
  }

  // dpm: merge cost per entry on a standalone node (SubmitBatch, DrainAll).
  SetMetric(r, "dpm.merge_ns_per_entry",
            TimeRegionNsPerCall(spans, "layer.merge", [&](double* t) {
              dpm::DpmOptions opt;
              opt.pool_size = 64 * kMiB;
              opt.segment_size = in.segment_size;
              opt.index_log2_buckets = 12;
              opt.metrics = &local;
              dpm::DpmNode node(opt);
              const uint64_t owner = 1;
              const size_t cap = opt.segment_size - 64;
              uint64_t entries = 0;
              uint64_t seq = 0;
              for (int seg = 0; seg < 4; ++seg) {
                auto base = node.AllocateSegment(0, owner);
                if (!base.ok()) {
                  r->Fail("layer pass: segment allocation failed");
                  return entries;
                }
                size_t used = 0;
                dpm::LogBuilder batch;
                while (true) {
                  batch.Clear();
                  for (int e = 0; e < 8; ++e) {
                    const uint64_t k = seq % nkeys;
                    batch.AddPut(++seq, hashes[k], keys[k], value);
                  }
                  if (used + batch.bytes() > cap) break;
                  const pm::PmPtr dst = base.value() + 64 + used;
                  node.fabric()->Write(0, batch.data(), dst, batch.bytes());
                  const double t0 = NowS();
                  auto sub = node.SubmitBatch(0, owner, base.value(), dst,
                                              batch.bytes(), batch.puts());
                  *t += NowS() - t0;
                  if (!sub.ok()) {
                    r->Fail("layer pass: SubmitBatch failed");
                    return entries;
                  }
                  used += batch.bytes();
                  entries += batch.entries();
                }
                (void)node.SealSegment(0, owner, base.value());
                const double t0 = NowS();
                if (!node.merge()->DrainAll().ok()) {
                  r->Fail("layer pass: DrainAll failed");
                }
                *t += NowS() - t0;
              }
              return entries;
            }));

  // cluster: key placement at the workload's KN count.
  {
    cluster::HashRing ring;
    for (int k = 1; k <= in.num_kns; ++k) ring.AddNode(k);
    SetMetric(r, "cluster.owner_of_ns",
              TimeNsPerCall(spans, "layer.owner_of", [&] {
                uint64_t acc = 0;
                for (uint64_t h : hashes) acc += ring.OwnerOf(h);
                sink32 = sink32 + static_cast<uint32_t>(acc);
                return hashes.size();
              }));
  }

  // sim: engine event dispatch (schedule + run of an empty event).
  SetMetric(r, "sim.dispatch_ns",
            TimeNsPerCall(spans, "layer.engine_dispatch", [&] {
              sim::Engine engine;
              uint64_t fired = 0;
              for (int i = 0; i < 100000; ++i) {
                engine.ScheduleAt(i * 0.5, [&fired] { fired++; });
              }
              engine.RunUntil(1e18);
              if (fired != 100000) r->Fail("layer pass: engine lost events");
              return 100000;
            }));

  // workload: op generation and generator construction (Zipf set-up).
  {
    workload::WorkloadGenerator gen(spec, 11);
    SetMetric(r, "workload.next_ns",
              TimeNsPerCall(spans, "layer.workload_next", [&] {
                size_t bytes = 0;
                for (int i = 0; i < 100000; ++i) bytes += gen.Next().key.size();
                sink32 = sink32 + static_cast<uint32_t>(bytes);
                return 100000;
              }));
    SetMetric(r, "workload.generator_ctor_us",
              TimeNsPerCall(spans, "layer.workload_ctor", [&] {
                for (int i = 0; i < 3; ++i) {
                  workload::WorkloadGenerator g(spec, 100 + i);
                  sink32 = sink32 + static_cast<uint32_t>(g.Next().key.size());
                }
                return 3;
              }) / 1e3);
  }

  // obs: the always-on instrumentation primitives.
  {
    obs::HistogramMetric hist;
    SetMetric(r, "obs.histogram_record_ns",
              TimeNsPerCall(spans, "layer.histogram_record", [&] {
                for (int i = 0; i < 200000; ++i) hist.Record(1.0 + (i & 1023));
                return 200000;
              }));
    obs::Counter counter;
    SetMetric(r, "obs.counter_inc_ns",
              TimeNsPerCall(spans, "layer.counter_inc", [&] {
                for (int i = 0; i < 1000000; ++i) counter.Inc();
                return 1000000;
              }));
  }

  // pm: creating a pool of the workload's size (capped to bound the pass).
  {
    const size_t bytes = std::min<size_t>(in.pool_bytes, 256 * kMiB);
    const double ns = TimeNsPerCall(spans, "layer.pool_create", [&] {
      pm::PmPool pool(bytes, false, &local);
      sink32 = sink32 + static_cast<uint32_t>(pool.capacity());
      return 1;
    });
    SetMetric(r, "pm.pool_create_ms_per_gib",
              ns / 1e6 * static_cast<double>(1ULL << 30) / bytes);
  }
}

}  // namespace perfbench
