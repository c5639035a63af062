#include "vcomp/serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <utility>

#include "vcomp/util/assert.hpp"
#include "vcomp/util/parallel.hpp"

namespace vcomp::serve {

namespace {

std::string event_error(const std::string& id, const std::string& message) {
  std::string out = "{\"event\":\"error\",\"id\":";
  append_json_string(out, id);
  out += ",\"message\":";
  append_json_string(out, message);
  out += '}';
  return out;
}

}  // namespace

Server::Server(const ServeOptions& options)
    : registry_(options.registry_budget),
      max_active_(options.max_active_jobs > 0 ? options.max_active_jobs : 2),
      progress_every_(options.progress_every) {}

Server::~Server() { drain(); }

void Server::emit(const Sink& sink, const std::string& line) {
  const std::lock_guard<std::mutex> lk(emit_m_);
  sink(line);
}

void Server::rebalance_locked() {
  // Fair share of the pool across slotted jobs.  Caps only bound how many
  // workers a parallel loop recruits — never any computed value — so the
  // retune points need no synchronisation with the jobs' loops.
  if (running_.empty()) return;
  const std::size_t share =
      std::max<std::size_t>(1, util::parallelism() / running_.size());
  for (Job* j : running_) j->cap.store(share, std::memory_order_relaxed);
}

bool Server::handle_line(const std::string& line, const Sink& sink) {
  if (line.empty() ||
      line.find_first_not_of(" \t\r") == std::string::npos)
    return true;  // blank keep-alive
  RequestError error;
  const std::optional<Request> req = parse_request(line, error);
  if (!req) {
    emit(sink, event_error(error.id, error.message));
    return true;
  }
  switch (req->op) {
    case Request::Op::Ping:
      emit(sink, "{\"event\":\"pong\"}");
      return true;
    case Request::Op::Shutdown:
      emit(sink, "{\"event\":\"bye\"}");
      return false;
    case Request::Op::Status: {
      std::string out = "{\"event\":\"status\"";
      {
        const std::lock_guard<std::mutex> lk(jobs_m_);
        out += ",\"active\":" + std::to_string(running_.size());
        out += ",\"queued\":" + std::to_string(queued_);
        out += ",\"completed\":" + std::to_string(completed_);
        out += ",\"max_active\":" + std::to_string(max_active_);
      }
      const ArtifactRegistry::Stats st = registry_.stats();
      out += ",\"cache\":{\"size\":" + std::to_string(registry_.size());
      out += ",\"hits\":" + std::to_string(st.hits);
      out += ",\"misses\":" + std::to_string(st.misses);
      out += ",\"evictions\":" + std::to_string(st.evictions);
      out += "}}";
      emit(sink, out);
      return true;
    }
    case Request::Op::Submit:
      break;
  }

  auto job = std::make_unique<Job>();
  job->spec = req->job;
  job->sink = sink;
  if (job->spec.progress_every == 0) job->spec.progress_every = progress_every_;
  Job* j = job.get();
  {
    const std::lock_guard<std::mutex> lk(jobs_m_);
    ++queued_;
    jobs_.push_back(std::move(job));
  }
  {
    std::string out = "{\"event\":\"accepted\",\"id\":";
    append_json_string(out, j->spec.id);
    out += '}';
    emit(sink, out);
  }
  j->runner = std::thread([this, j] { run_job(*j); });
  return true;
}

void Server::run_job(Job& job) {
  // Admission: wait for one of the max_active slots, then join the
  // fair-share cap rebalance set.
  {
    std::unique_lock<std::mutex> lk(jobs_m_);
    slot_cv_.wait(lk, [this] { return running_.size() < max_active_; });
    --queued_;
    running_.push_back(&job);
    rebalance_locked();
  }

  std::string result_line;
  try {
    // Artifact resolution runs under the registry's ambient scope — the
    // job's counter window opens strictly around the stitched run.  Bad
    // sizes fail on the netlist, before a lab is built or fetched.
    const ArtifactRegistry::LabRef lab = registry_.lab_for_spec(
        job.spec.circuit, job.spec.full_scale,
        [&job](const netlist::Netlist& nl) {
          (void)checked_options(nl, job.spec);
        });
    const JobRun run = run_spec(
        *lab, job.spec,
        [this, &job](const std::string& line) { emit(job.sink, line); },
        &job.cap);
    result_line = "{\"event\":\"result\",\"id\":";
    append_json_string(result_line, job.spec.id);
    result_line += ",\"row\":" + run.row + '}';
  } catch (const ContractError& e) {
    // A broken internal invariant, not bad input: the client learns that
    // it happened, the operator gets the detail.
    std::fprintf(stderr, "vcomp_serve: job %s: %s\n", job.spec.id.c_str(),
                 e.what());
    result_line = event_error(job.spec.id, "internal error");
  } catch (const std::exception& e) {
    result_line = event_error(job.spec.id, e.what());
  }

  {
    const std::lock_guard<std::mutex> lk(jobs_m_);
    running_.erase(std::find(running_.begin(), running_.end(), &job));
    ++completed_;
    rebalance_locked();
  }
  slot_cv_.notify_all();
  // Emit last: once the final event is on the wire the job is fully
  // retired (tests key off result/error lines to know a job is done).
  emit(job.sink, result_line);
}

void Server::drain() {
  std::vector<std::unique_ptr<Job>> done;
  for (;;) {
    {
      const std::lock_guard<std::mutex> lk(jobs_m_);
      done.swap(jobs_);
    }
    if (done.empty()) return;
    for (auto& j : done)
      if (j->runner.joinable()) j->runner.join();
    done.clear();
  }
}

}  // namespace vcomp::serve
