#include "sim/closed_loop.h"

#include <algorithm>

#include "common/logging.h"

namespace dinomo {
namespace sim {

ClosedLoop::ClosedLoop(Engine* engine, Server* server, const Options& options)
    : engine_(engine),
      server_(server),
      options_(options),
      windows_(options.stats_window_us) {
  DINOMO_CHECK(options_.op_latency_us != nullptr);
  streams_.resize(options_.client_threads);
  for (int i = 0; i < options_.client_threads; ++i) {
    streams_[i].gen = std::make_unique<workload::WorkloadGenerator>(
        options_.spec, options_.seed + i);
  }
}

void ClosedLoop::Run(double duration_us, double warmup_us) {
  const double now = engine_->now_us();
  run_until_ = now + duration_us;
  warmup_until_ = now + warmup_us;
  for (int i = 0; i < static_cast<int>(streams_.size()); ++i) {
    // (Re)prime every stream, not just inactive ones. IssueNext is a
    // no-op while a stream's window is full, but a stream whose last
    // completion landed exactly on a previous run's end boundary has an
    // empty window and no pending event — skipping it here would leave it
    // silent for the rest of the run.
    streams_[i].active = true;
    IssueNext(i);
  }
  engine_->RunUntil(run_until_);
}

void ClosedLoop::IssueNext(int stream_idx) {
  Stream& s = streams_[stream_idx];
  // Top the stream's window back up to the pipeline depth. Depth 1
  // degenerates to issue-one-await-one.
  const int depth = std::max(1, options_.pipeline_depth);
  while (s.active && engine_->now_us() < run_until_ && s.in_flight < depth) {
    const workload::WorkloadOp op = s.gen->Next();
    obs::TraceContext* trace = StartTrace(op.type);
    s.in_flight++;
    Execute(stream_idx, op, engine_->now_us(), 0, trace);
  }
}

void ClosedLoop::Execute(int stream_idx, const workload::WorkloadOp& op,
                         double issue_time, int attempt,
                         obs::TraceContext* trace) {
  Stream& s = streams_[stream_idx];
  if (!s.active) {
    // Deactivated (load change) with this op still rescheduling: drop it
    // and release its window slot so a later reactivation starts clean.
    s.in_flight--;
    EndTrace(trace);
    return;
  }
  const double now = engine_->now_us();
  if (trace != nullptr) trace->FlushWait(now);
  if (attempt >= kMaxAttempts) {
    // Give up on this op; issue the next one so the loop cannot wedge.
    abandoned_++;
    Complete(stream_idx, issue_time, now, trace);
    return;
  }
  auto retry = [=, this] {
    Execute(stream_idx, op, issue_time, attempt + 1, trace);
  };
  const double finish = server_->Serve(op, s.gen->Value(), trace, retry);
  if (finish < 0) return;
  engine_->ScheduleAt(finish, [=, this] {
    Complete(stream_idx, issue_time, finish, trace);
  });
}

void ClosedLoop::Complete(int stream_idx, double issue_time, double finish,
                          obs::TraceContext* trace) {
  EndTrace(trace);
  streams_[stream_idx].in_flight--;
  const double latency = finish - issue_time;
  windows_.Record(finish, latency);
  if (options_.epoch_latency != nullptr) options_.epoch_latency->Add(latency);
  if (finish >= warmup_until_) {
    run_latency_.Add(latency);
    options_.op_latency_us->Record(latency);
    completed_after_warmup_++;
  }
  IssueNext(stream_idx);
}

obs::TraceContext* ClosedLoop::StartTrace(workload::OpType type) {
  obs::Tracer* tracer = options_.tracer;
  if (tracer == nullptr || !tracer->ShouldSample()) return nullptr;
  auto trace = std::make_unique<obs::TraceContext>(
      tracer, type == workload::OpType::kRead   ? "get"
               : type == workload::OpType::kScan ? "scan"
                                                 : "put");
  trace->set_pid(options_.trace_pid);
  obs::TraceContext* raw = trace.get();
  traces_.emplace(raw->trace_id(), std::move(trace));
  return raw;
}

void ClosedLoop::EndTrace(obs::TraceContext* trace) {
  if (trace != nullptr) traces_.erase(trace->trace_id());
}

void ClosedLoop::EndTraces() {
  while (!traces_.empty()) traces_.erase(traces_.begin());
}

double ClosedLoop::ThroughputMops() const {
  const double span = run_until_ - warmup_until_;
  return span > 0 ? completed_after_warmup_ / span : 0.0;
}

void ClosedLoop::ScheduleLoadChange(double at_us, int client_threads) {
  engine_->ScheduleAt(at_us, [this, client_threads] {
    const int current = static_cast<int>(streams_.size());
    // Reactivate parked streams first: a previous load drop deactivates
    // streams without removing them, so a later rise back to (or below)
    // the old count must wake them rather than allocate.
    for (int i = 0; i < std::min(client_threads, current); ++i) {
      if (!streams_[i].active) {
        streams_[i].active = true;
        IssueNext(i);
      }
    }
    if (client_threads > current) {
      for (int i = current; i < client_threads; ++i) {
        Stream s;
        s.gen = std::make_unique<workload::WorkloadGenerator>(
            options_.spec, options_.seed + 7000 + i);
        s.active = true;
        streams_.push_back(std::move(s));
        IssueNext(static_cast<int>(streams_.size()) - 1);
      }
    } else {
      for (int i = client_threads; i < current; ++i) {
        streams_[i].active = false;  // dies after its in-flight ops
      }
    }
  });
}

void ClosedLoop::ScheduleWorkloadChange(double at_us,
                                        const workload::WorkloadSpec& spec) {
  engine_->ScheduleAt(at_us, [this, spec] {
    options_.spec = spec;
    for (size_t i = 0; i < streams_.size(); ++i) {
      streams_[i].gen = std::make_unique<workload::WorkloadGenerator>(
          spec, options_.seed + 5000 + i);
    }
  });
}

}  // namespace sim
}  // namespace dinomo
