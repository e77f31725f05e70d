// Wall-clock workloads: one load thread drives a threaded Cluster through
// one pipelined Client, closed loop, keeping a window of 8 requests full.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/cluster.h"
#include "dpm/log.h"
#include "layers.h"
#include "spans.h"
#include "workloads.h"
#include "workload/ycsb.h"

namespace perfbench {
namespace {

using namespace dinomo;

constexpr size_t kMiB = 1024 * 1024;
/// Requests the client keeps in flight (the pipelined Client's default
/// depth).
constexpr size_t kWindow = 8;
/// An untraced run sets the cluster up this many times and reports the
/// median set-up time.
constexpr int kSetups = 3;
/// The measured interval is cut into windows of this length. Throughput and
/// latency come from the windows in which the host took at most
/// kMaxStealShare of the VM's CPU time, and at least kMinKeptShare of the
/// interval in the least-stolen windows (Summarize).
constexpr double kStatWindowS = 0.2;
constexpr double kMaxStealShare = 0.02;
constexpr double kMinKeptShare = 0.25;
/// DPM pool per node, as a multiple of the node's share of the loaded
/// dataset. Fixed before any run; see MaxOps for how the run stays clear
/// of exhaustion.
constexpr double kPoolPerShare = 16.0;
constexpr size_t kSegmentSize = 1 * kMiB;

struct WallWorkload {
  const char* name;
  int workers;        // KN worker threads (one KN)
  int dpm_nodes;
  int replication;    // copies of each log batch
  int merge_threads;  // per DPM node
  uint64_t records;
  size_t cache_bytes;  // KN cache, split across workers
  workload::WorkloadSpec mix;
  uint64_t warmup_ops;
};

// Thread budget on 4 cores: the load thread + KN workers + merge threads
// is 4 in every workload.
bool FindWorkload(const std::string& name, uint64_t seed, WallWorkload* w) {
  if (name == "point-hot") {
    *w = {"point-hot", 2, 1, 1, 1, 16384, 48 * kMiB,
          workload::WorkloadSpec::ReadMostlyUpdate(16384, 0.99), 16384};
    w->mix.value_size = 1024;
  } else if (name == "point-cold") {
    // Uniform keys (theta 0) over 16x the KN cache.
    *w = {"point-cold", 1, 2, 2, 1, 32768, 2 * kMiB,
          workload::WorkloadSpec::WriteHeavyUpdate(32768, 0.0), 32768};
    w->mix.value_size = 1024;
  } else if (name == "scan-insert") {
    *w = {"scan-insert", 2, 1, 1, 1, 50000, 8 * kMiB,
          workload::WorkloadSpec::ShortScans(50000, 0.99), 10000};
    w->mix.value_size = 256;
    w->mix.scan_len_max = 20;
  } else {
    return false;
  }
  w->mix.seed = seed;
  return true;
}

double EntryBytes(const WallWorkload& w) {
  return static_cast<double>(dpm::EncodedEntrySize(8, w.mix.value_size));
}

/// Log bytes one write adds to each DPM node, on average.
double NodeBytesPerWrite(const WallWorkload& w) {
  return EntryBytes(w) * w.replication / w.dpm_nodes;
}

size_t PoolBytes(const WallWorkload& w) {
  const double share = NodeBytesPerWrite(w) * static_cast<double>(w.records);
  const size_t bytes = static_cast<size_t>(kPoolPerShare * share);
  return (bytes + 64 * kMiB - 1) / (64 * kMiB) * (64 * kMiB);
}

double WriteFraction(const WallWorkload& w) {
  return w.mix.update_proportion + w.mix.insert_proportion;
}

/// Measured operations allowed after set-up. Segment GC reclaims a segment
/// only when every entry in it is superseded, so the log can grow by every
/// write; the cap keeps the log within 3/4 of the pool space left after
/// the load and warm-up (the rest holds the indexes), whatever the build's
/// speed. A run that hits the cap says so and measures a shorter interval.
uint64_t MaxOps(const WallWorkload& w) {
  const double per_write = NodeBytesPerWrite(w);
  const double loaded =
      per_write * (static_cast<double>(w.records) +
                   WriteFraction(w) * static_cast<double>(w.warmup_ops));
  const double headroom = static_cast<double>(PoolBytes(w)) - loaded;
  const double writes = 0.75 * headroom / per_write;
  return static_cast<uint64_t>(writes / std::max(WriteFraction(w), 1e-3));
}

enum Kind { kGet = 0, kPut = 1, kScan = 2, kNumKinds = 3 };

struct Sample {
  float t;   // completion, seconds since the measured interval began
  float us;  // submit to observed completion
};

/// Everything one measured interval produced.
struct Recorder {
  double t0 = 0.0;
  double t_end = 0.0;
  std::array<std::vector<Sample>, kNumKinds> lat;
  /// End of each kStatWindowS window (seconds since t0) and the share of
  /// the VM's CPU time the host took in it.
  std::vector<double> window_end;
  std::vector<double> window_steal;
  HostTicks window_ticks;    // when the open window began
  double next_window = 0.0;  // NowS() at which the open window closes
  uint64_t ops = 0;
  double cpu_s = 0.0;       // whole process
  double load_cpu_s = 0.0;  // load thread only
  bool capped = false;
  obs::MetricsSnapshot delta;

  double duration() const { return t_end - t0; }

  void Start() {
    t0 = NowS();
    window_ticks = ReadHostTicks();
    next_window = t0 + kStatWindowS;
  }

  void CloseWindow(double now) {
    const HostTicks ticks = ReadHostTicks();
    window_end.push_back(now - t0);
    window_steal.push_back(StealShare(window_ticks, ticks));
    window_ticks = ticks;
    next_window = now + kStatWindowS;
  }
};

/// One pipelined client running the workload's operation stream, checking
/// every result against the version book.
class LoadGen {
 public:
  LoadGen(Client* client, const WallWorkload& w, VersionBook* book,
          Report* report, SpanLog* spans)
      : client_(client), w_(w), gen_(w.mix, 1), book_(book), report_(report),
        spans_(spans) {}

  /// Runs until `max_ops` operations were issued or `deadline` passed,
  /// then harvests the window.
  void Run(uint64_t max_ops, double deadline, Recorder* rec) {
    uint64_t issued = 0;
    for (double now; issued < max_ops && (now = NowS()) < deadline;) {
      if (rec != nullptr && now >= rec->next_window) rec->CloseWindow(now);
      if (window_.size() == kWindow) HarvestFront(rec);
      SubmitNext(rec);
      issued++;
    }
    while (!window_.empty()) HarvestFront(rec);
    if (rec != nullptr) rec->capped = issued >= max_ops;
  }

 private:
  struct Slot {
    Client::OpFuture fut;
    Kind kind = kGet;
    bool insert = false;
    uint64_t record = 0;
    uint32_t version = 0;  // PUT: version written; GET: acked at submit
    uint64_t op_id = 0;
    double t_submit = 0.0;
    double t_done = 0.0;  // 0 until the completion was observed
  };

  void SubmitNext(Recorder* rec) {
    const workload::WorkloadOp op = gen_.Next();
    const uint64_t record = workload::RecordForKey(op.key);
    const uint64_t op_id = ++op_seq_;
    if (op.type == workload::OpType::kScan) {
      RunScan(op, record, op_id, rec);
      return;
    }
    Slot s;
    s.record = record;
    s.op_id = op_id;
    s.t_submit = NowS();
    const char* call;
    if (op.type == workload::OpType::kRead) {
      const KeyVersions* kv = book_->Find(record);
      s.kind = kGet;
      s.version = kv != nullptr ? kv->acked : 0;
      s.fut = client_->GetAsync(op.key);
      call = "client.GetAsync";
    } else {
      KeyVersions& kv = book_->At(record);
      s.kind = kPut;
      s.insert = op.type == workload::OpType::kInsert;
      s.version = ++kv.issued;
      EncodeValueInto(record, s.version, w_.mix.value_size, &value_);
      s.fut = client_->PutAsync(op.key, value_);
      call = "client.PutAsync";
    }
    const double t1 = NowS();
    spans_->Add(op_id, call, s.t_submit, t1, false);
    StampDone(t1);
    window_.push_back(std::move(s));
  }

  void RunScan(const workload::WorkloadOp& op, uint64_t record,
               uint64_t op_id, Recorder* rec) {
    const double t0 = NowS();
    auto r = client_->Scan(op.key, op.scan_len);
    const double t1 = NowS();
    StampDone(t1);
    report_->attempted++;
    if (r.ok()) {
      const std::string err =
          CheckScan(record, op.scan_len, r.value(), *book_, w_.mix.value_size);
      report_->scans++;
      if (!err.empty()) {
        FailCheck(err);
      } else if (const std::string gap = ScanCompleteness(
                     record, op.scan_len, r.value(), book_->records());
                 !gap.empty() && report_->incomplete_scans++ == 0) {
        std::printf("NOTE: %s (known defect, counted in "
                    "core.scan_incomplete_ratio)\n", gap.c_str());
      }
    } else {
      FailOp(r.status());
    }
    spans_->Add(op_id, "client.Scan", t0, t1, false);
    spans_->Add(op_id, "op.scan", t0, t1, true);
    Record(rec, kScan, t0, t1);
  }

  void HarvestFront(Recorder* rec) {
    Slot s = std::move(window_.front());
    window_.pop_front();
    const double t0 = NowS();
    Result<std::string> r = s.fut.Get();
    const double t1 = NowS();
    if (s.t_done == 0.0) s.t_done = t1;
    StampDone(t1);
    report_->attempted++;
    if (s.kind == kGet) {
      if (r.ok() || r.status().IsNotFound()) {
        const KeyVersions* kv = book_->Find(s.record);
        const std::string err =
            CheckGet(s.record, r, s.version, kv != nullptr ? kv->issued : 0,
                     w_.mix.value_size);
        if (!err.empty()) FailCheck(err);
      } else {
        FailOp(r.status());
      }
    } else if (r.ok()) {
      KeyVersions& kv = book_->At(s.record);
      kv.acked = std::max(kv.acked, s.version);
      if (s.insert) book_->acked_inserts().push_back(s.record);
    } else {
      FailOp(r.status());
    }
    if (spans_->enabled()) {
      spans_->Add(s.op_id, "client.OpFuture.Get", t0, t1, false);
      spans_->Add(s.op_id, s.kind == kGet ? "op.get" : "op.put", s.t_submit,
                  t1, true);
    }
    Record(rec, s.kind, s.t_submit, s.t_done);
  }

  /// Completions are pumped on this thread, inside client calls; after
  /// each call, stamp every request that completed meanwhile.
  void StampDone(double now) {
    for (Slot& o : window_) {
      if (o.t_done == 0.0 && o.fut.done()) o.t_done = now;
    }
  }

  void Record(Recorder* rec, Kind kind, double t_submit, double t_done) {
    if (rec == nullptr) return;
    rec->ops++;
    rec->lat[kind].push_back(
        Sample{static_cast<float>(t_done - rec->t0),
               static_cast<float>((t_done - t_submit) * 1e6)});
  }

  void FailOp(const Status& s) { report_->OpFailed(Classify(s)); }

  void FailCheck(const std::string& why) {
    report_->OpFailed(FailKind::kWrongValue);
    report_->Fail(why);
  }

  Client* client_;
  const WallWorkload& w_;
  workload::WorkloadGenerator gen_;
  VersionBook* book_;
  Report* report_;
  SpanLog* spans_;
  std::deque<Slot> window_;
  std::string value_;
  uint64_t op_seq_ = 0;
};

/// One set-up cluster with its client, load generator and version book.
class WallBench {
 public:
  WallBench(const WallWorkload& w, Report* report, SpanLog* spans)
      : w_(w), report_(report), book_(w.records) {
    ClusterOptions opt;
    opt.variant = SystemVariant::kDinomo;
    opt.dpm.pool_size = PoolBytes(w);
    opt.dpm.segment_size = kSegmentSize;
    opt.dpm.index_log2_buckets = 14;
    opt.dpm_nodes = w.dpm_nodes;
    opt.replication_factor = w.replication;
    opt.dpm_merge_threads = w.merge_threads;
    opt.kn.num_workers = w.workers;
    opt.kn.cache_bytes = w.cache_bytes;
    opt.initial_kns = 1;
    opt.pipeline_depth = static_cast<int>(kWindow);
    opt.tracer = &tracer_;
    cluster_ = std::make_unique<Cluster>(opt);
    const Status started = cluster_->Start();
    if (!started.ok()) report->Fail("cluster start: " + started.ToString());
    client_ = cluster_->NewClient();
    gen_ = std::make_unique<LoadGen>(client_.get(), w, &book_, report, spans);
  }

  ~WallBench() {
    gen_.reset();
    client_.reset();
    cluster_->Stop();
  }

  WallBench(const WallBench&) = delete;
  WallBench& operator=(const WallBench&) = delete;

  /// Preload, warm-up with the workload's own mix, then drain every log.
  void Setup() {
    std::deque<std::pair<Client::OpFuture, uint64_t>> window;
    auto harvest = [&] {
      auto [fut, record] = std::move(window.front());
      window.pop_front();
      report_->attempted++;
      const Result<std::string> r = fut.Get();
      if (r.ok()) {
        book_.At(record).acked = 1;
      } else {
        report_->OpFailed(Classify(r.status()));
        report_->Fail("preload PUT " + std::to_string(record) + ": " +
                      r.status().ToString());
      }
    };
    std::string value;
    for (uint64_t i = 0; i < w_.records; ++i) {
      if (window.size() == kWindow) harvest();
      book_.At(i).issued = 1;
      EncodeValueInto(i, 1, w_.mix.value_size, &value);
      window.emplace_back(client_->PutAsync(workload::KeyForRecord(i), value),
                          i);
    }
    while (!window.empty()) harvest();
    gen_->Run(w_.warmup_ops, INFINITY, nullptr);
    FlushAndDrain();
  }

  Recorder Measure(double seconds, uint64_t max_ops) {
    Recorder rec;
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::Global().Snapshot();
    const double cpu0 = ProcessCpuS();
    const double load0 = ThreadCpuS();
    const HostTicks host0 = ReadHostTicks();
    rec.Start();
    gen_->Run(max_ops, rec.t0 + seconds, &rec);
    rec.t_end = NowS();
    rec.CloseWindow(rec.t_end);
    NoteHostSteal(host0);
    rec.cpu_s = ProcessCpuS() - cpu0;
    rec.load_cpu_s = ThreadCpuS() - load0;
    rec.delta = obs::MetricsRegistry::Global().Snapshot().DeltaSince(before);
    return rec;
  }

  /// PM allocated on every DPM node (mirrors included) per live user byte.
  double SpaceAmp() {
    double allocated = 0;
    for (int n = 0; n < cluster_->dpm_pool()->num_nodes(); ++n) {
      allocated += static_cast<double>(
          cluster_->dpm_pool()->node(n)->allocator()->allocated_bytes());
    }
    const double live =
        static_cast<double>(w_.records + book_.acked_inserts().size()) *
        static_cast<double>(8 + w_.mix.value_size);
    return allocated / live;
  }

  /// Drains the logs, then reads a seeded sample of loaded and inserted
  /// keys with a fresh client: every acknowledged write must be there.
  void Verify(uint64_t seed) {
    FlushAndDrain();
    auto fresh = cluster_->NewClient();
    Random rng(seed * 0x9e3779b97f4a7c15ULL + 17);
    std::vector<uint64_t> sample;
    for (uint64_t i = 0; i < std::min<uint64_t>(w_.records, 4096); ++i) {
      sample.push_back(rng.Uniform(w_.records));
    }
    const auto& inserts = book_.acked_inserts();
    for (size_t i = 0; i < std::min<size_t>(inserts.size(), 1024); ++i) {
      sample.push_back(inserts[rng.Uniform(inserts.size())]);
    }
    for (uint64_t record : sample) {
      const KeyVersions* kv = book_.Find(record);
      if (kv == nullptr || kv->acked == 0) continue;
      report_->attempted++;
      const Result<std::string> r = fresh->Get(workload::KeyForRecord(record));
      if (!r.ok() && !r.status().IsNotFound()) {
        report_->OpFailed(Classify(r.status()));
        continue;
      }
      const std::string err =
          CheckGet(record, r, kv->acked, kv->issued, w_.mix.value_size);
      if (!err.empty()) {
        report_->OpFailed(FailKind::kWrongValue);
        report_->Fail("acknowledged-write check after drain: " + err);
      }
    }
  }

  void EnableTracing(SpanLog* spans, size_t expected_spans) {
    obs::TraceOptions topt;
    topt.sample_every = 1;
    topt.ring_capacity = 1 << 16;
    tracer_.Enable(topt);
    spans->Enable(expected_spans);
  }

  const obs::Tracer& tracer() const { return tracer_; }

 private:
  void FlushAndDrain() {
    for (uint64_t id : cluster_->ActiveKns()) {
      cluster_->kn(id)->RunOnAllWorkers(
          [](kn::KnWorker* w) { (void)w->FlushWrites(); });
    }
    for (int n = 0; n < cluster_->dpm_pool()->num_nodes(); ++n) {
      const Status s = cluster_->dpm_pool()->node(n)->merge()->DrainAll();
      if (!s.ok()) report_->Fail("merge drain: " + s.ToString());
    }
  }

  const WallWorkload& w_;
  Report* report_;
  // The tracer outlives the cluster that records into it.
  obs::Tracer tracer_;
  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<Client> client_;
  VersionBook book_;
  std::unique_ptr<LoadGen> gen_;
};

struct Summary {
  double throughput = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  std::array<double, kNumKinds> kind_p50{};
  std::array<double, kNumKinds> kind_p99{};
};

/// Throughput and latency over the windows of the measured interval in
/// which the host took the least of the VM's CPU time (the steal column of
/// /proc/stat): every window with at most kMaxStealShare, and when those
/// cover less than kMinKeptShare of the interval, the least-stolen windows
/// that do. On a VM whose vCPUs are shared with other machines, a
/// descheduled vCPU stalls every thread of the closed loop (README.md,
/// "Host noise"). Windows are chosen by measured steal only, never by what
/// the program did in them.
Summary Summarize(const Recorder& rec) {
  Summary s;
  const size_t n = rec.window_end.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&rec](size_t a, size_t b) {
    return rec.window_steal[a] < rec.window_steal[b];
  });
  std::vector<bool> keep(n, false);
  double kept_s = 0.0, max_steal = 0.0;
  for (size_t i : order) {
    if (rec.window_steal[i] > kMaxStealShare &&
        kept_s >= kMinKeptShare * rec.duration()) {
      break;
    }
    keep[i] = true;
    kept_s += rec.window_end[i] - (i > 0 ? rec.window_end[i - 1] : 0.0);
    max_steal = rec.window_steal[i];
  }
  if (max_steal > kMaxStealShare) {
    std::printf("NOTE: the host took more than %.0f%% of the VM's CPU time "
                "in over three quarters of the measured interval; throughput "
                "and latency include it\n", kMaxStealShare * 100);
  }
  auto kept = [&](const Sample& x) {
    const size_t w = std::upper_bound(rec.window_end.begin(),
                                      rec.window_end.end(), x.t) -
                     rec.window_end.begin();
    return keep[std::min(w, n - 1)];
  };
  uint64_t ops = 0;
  std::vector<float> all;
  for (int k = 0; k < kNumKinds; ++k) {
    std::vector<float> kind;
    for (const Sample& x : rec.lat[k]) {
      if (kept(x)) kind.push_back(x.us);
    }
    ops += kind.size();
    all.insert(all.end(), kind.begin(), kind.end());
    s.kind_p50[k] = Percentile(kind, 50);
    s.kind_p99[k] = Percentile(kind, 99);
  }
  s.throughput = static_cast<double>(ops) / kept_s;
  std::printf("measured %llu operations in %.2f of %.2f s, in windows where "
              "the host took at most %.1f%% of the VM's CPU time\n",
              static_cast<unsigned long long>(ops), kept_s, rec.duration(),
              max_steal * 100);
  s.p50 = Percentile(all, 50);
  s.p90 = Percentile(all, 90);
  return s;
}

void LoadGuard(const Recorder& rec, Report* report) {
  const double busy = rec.load_cpu_s / rec.duration();
  SetMetric(report, "core.load_thread_busy", busy);
  SetMetric(report, "core.client_cpu_us_per_op",
            rec.load_cpu_s * 1e6 / std::max<uint64_t>(rec.ops, 1));
  if (busy > 0.9) {
    std::printf("NOTE: the load thread was %.0f%% busy; throughput_ops_s "
                "measures the client, not the store\n", busy * 100);
  }
  if (rec.capped) {
    std::printf("NOTE: the run reached its operation cap after %.2f s\n",
                rec.duration());
  }
}

}  // namespace

bool RunWallWorkload(const RunArgs& a, Report* rep) {
  WallWorkload w;
  if (!FindWorkload(a.workload, a.seed, &w)) return false;
  std::printf("workload %s: 1 KN x %d workers, %d DPM node(s) x %d merge "
              "thread(s), replication %d, %llu records x %zu B, KN cache "
              "%zu MiB, pool %zu MiB/node, op cap %llu\n",
              w.name, w.workers, w.dpm_nodes, w.merge_threads, w.replication,
              static_cast<unsigned long long>(w.records), w.mix.value_size,
              w.cache_bytes / kMiB, PoolBytes(w) / kMiB,
              static_cast<unsigned long long>(MaxOps(w)));

  SpanLog spans;
  std::vector<double> setup_s;
  std::unique_ptr<WallBench> bench;
  for (int i = 0; i < (a.trace ? 1 : kSetups); ++i) {
    bench.reset();
    const double t0 = NowS();
    bench = std::make_unique<WallBench>(w, rep, &spans);
    bench->Setup();
    setup_s.push_back(NowS() - t0);
  }
  const double space_amp = bench->SpaceAmp();

  if (!a.trace) {
    const Recorder rec = bench->Measure(a.seconds, MaxOps(w));
    const Summary s = Summarize(rec);
    const double ops = static_cast<double>(std::max<uint64_t>(rec.ops, 1));
    SetMetric(rep, "throughput_ops_s", s.throughput);
    SetMetric(rep, "cpu_us_per_op", rec.cpu_s * 1e6 / ops);
    SetMetric(rep, "p50_us", s.p50);
    SetMetric(rep, "p90_us", s.p90);
    SetMetric(rep, "rts_per_op",
              static_cast<double>(RoundTrips(rec.delta)) / ops);
    SetMetric(rep, "pm_space_amp", space_amp);
    SetMetric(rep, "setup_s", Median(setup_s));
    LoadGuard(rec, rep);
  } else {
    // Untraced half: counters, client-side latencies, the load guard.
    const Recorder plain = bench->Measure(a.seconds / 2, MaxOps(w) / 2);
    const Summary s = Summarize(plain);
    const double ops = static_cast<double>(std::max<uint64_t>(plain.ops, 1));
    CounterMetrics(plain.delta, ops, rep);
    LoadGuard(plain, rep);
    const char* p50_names[kNumKinds] = {"core.get_p50_us", "core.put_p50_us",
                                        "core.scan_p50_us"};
    const char* p99_names[kNumKinds] = {"core.get_p99_us", "core.put_p99_us",
                                        "core.scan_p99_us"};
    for (int k = 0; k < kNumKinds; ++k) {
      SetMetric(rep, p50_names[k], s.kind_p50[k]);
      SetMetric(rep, p99_names[k], s.kind_p99[k]);
    }
    // Traced half: the program's tracer plus the benchmark's own spans.
    bench->EnableTracing(&spans, static_cast<size_t>(plain.ops * 3.5));
    const Recorder traced = bench->Measure(a.seconds / 2, MaxOps(w) / 2);
    TracerMetrics(bench->tracer(), rep);
    const double traced_ops =
        static_cast<double>(std::max<uint64_t>(traced.ops, 1));
    double call_s = 0.0, in_flight_s = 0.0;
    for (const auto& [name, self_s] : spans.SelfTimeByName()) {
      if (name.rfind("client.", 0) == 0) call_s += self_s;
      if (name.rfind("op.", 0) == 0) in_flight_s += self_s;
    }
    SetMetric(rep, "core.client_call_us", call_s * 1e6 / traced_ops);
    SetMetric(rep, "core.in_flight_us", in_flight_s * 1e6 / traced_ops);
    SetMetric(rep, "obs.trace_overhead_ratio",
              (traced_ops / traced.duration()) / (ops / plain.duration()));

    LayerInputs in;
    in.spec = w.mix;
    in.cache_bytes_per_worker = w.cache_bytes / w.workers;
    in.num_kns = 1;
    in.pool_bytes = PoolBytes(w);
    in.segment_size = kSegmentSize;
    RunLayerPass(in, &spans, rep);
    const std::string path = a.out_dir + "/spans-" + a.workload + ".csv";
    if (!spans.WriteCsv(path)) {
      std::printf("NOTE: could not write %s\n", path.c_str());
    }
  }

  bench->Verify(a.seed);
  FailureMetrics(rep);
  bench.reset();
  SetMetric(rep, "peak_rss_mb", PeakRssMb());
  return true;
}

}  // namespace perfbench
