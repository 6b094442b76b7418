#include "serve/session.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>

#include "dynamic/journal_wire.hpp"
#include "graph/graph_source.hpp"
#include "graph/mtx_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/session_store.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace ssp::serve {

// ---- ServeOptions ----------------------------------------------------------

void ServeOptions::validate() const {
  dynamic.validate();
  if (max_sessions < 1) {
    throw std::invalid_argument("serve: max_sessions must be >= 1");
  }
  if (max_queued_batches < 1) {
    throw std::invalid_argument("serve: max_queued_batches must be >= 1");
  }
  if (!(drain_seconds >= 0.0)) {
    throw std::invalid_argument("serve: drain_seconds must be >= 0");
  }
  if (checkpoint_every < 1) {
    throw std::invalid_argument("serve: checkpoint_every must be >= 1");
  }
}

ServeOptions& ServeOptions::with_dynamic(DynamicOptions opts) {
  opts.validate();
  dynamic = std::move(opts);
  return *this;
}

ServeOptions& ServeOptions::with_max_sessions(Index n) {
  if (n < 1) throw std::invalid_argument("serve: max_sessions must be >= 1");
  max_sessions = n;
  return *this;
}

ServeOptions& ServeOptions::with_max_queued_batches(Index n) {
  if (n < 1) {
    throw std::invalid_argument("serve: max_queued_batches must be >= 1");
  }
  max_queued_batches = n;
  return *this;
}

ServeOptions& ServeOptions::with_drain_seconds(double seconds) {
  if (!(seconds >= 0.0)) {
    throw std::invalid_argument("serve: drain_seconds must be >= 0");
  }
  drain_seconds = seconds;
  return *this;
}

ServeOptions& ServeOptions::with_state_dir(std::string dir) {
  state_dir = std::move(dir);
  return *this;
}

ServeOptions& ServeOptions::with_checkpoint_every(Index n) {
  if (n < 1) {
    throw std::invalid_argument("serve: checkpoint_every must be >= 1");
  }
  checkpoint_every = n;
  return *this;
}

// ---- Session ---------------------------------------------------------------

Session::Session(std::string name, const Graph& g, const DynamicOptions& opts,
                 Index max_queued_batches, SessionPersist persist)
    : name_(std::move(name)),
      max_queued_batches_(max_queued_batches),
      persist_(std::move(persist)),
      dyn_(g, opts) {}

DynamicSparsifier Session::make_restored(
    const Graph& g, const DynamicOptions& opts,
    const storage::SparsifierCheckpoint* ckpt,
    std::span<const JournalBatch> batches) {
  if (ckpt == nullptr || ckpt->commits == 0) {
    // No snapshot (or one from before any commit): cold initial build,
    // the whole journal replays through full applies in the ctor body.
    return DynamicSparsifier(g, opts);
  }
  if (ckpt->commits > batches.size()) {
    throw std::runtime_error(
        "serve: checkpoint covers " + std::to_string(ckpt->commits) +
        " commits but the journal holds only " +
        std::to_string(batches.size()));
  }
  // Fast-forward the graph (mutations only, no sparsification) to the
  // checkpointed batch, then restore the sparsifier without running it.
  Graph replayed = g;
  for (std::uint64_t b = 0; b < ckpt->commits; ++b) {
    const UpdateBatch resolved =
        resolve_journal_batch(replayed, batches[static_cast<std::size_t>(b)]);
    apply_batch_to_graph(replayed, resolved);
  }
  return DynamicSparsifier(replayed, opts, ckpt->state);
}

Session::Session(std::string name, const Graph& g, const DynamicOptions& opts,
                 Index max_queued_batches,
                 const storage::SparsifierCheckpoint* ckpt,
                 std::span<const JournalBatch> batches, SessionPersist persist)
    : name_(std::move(name)),
      max_queued_batches_(max_queued_batches),
      persist_(std::move(persist)),
      dyn_(make_restored(g, opts, ckpt, batches)) {
  // Replay the journal tail the checkpoint does not cover — these are
  // full applies (engine runs), each drawing the same per-batch seed the
  // original process drew, so the resumed state is bit-identical.
  const std::size_t start =
      ckpt == nullptr ? 0 : static_cast<std::size_t>(ckpt->commits);
  for (std::size_t b = start; b < batches.size(); ++b) {
    const UpdateBatch resolved =
        resolve_journal_batch(dyn_.graph(), batches[b]);
    dyn_.apply(resolved);
  }
  // Rebuild the in-memory journal mirror so journal_lines() and the
  // offline-replay contract are oblivious to the restart.
  for (const JournalBatch& batch : batches) record_batch_locked(batch);
}

void Session::record_batch_locked(const JournalBatch& batch) {
  journal_ops_.insert(journal_ops_.end(), batch.ops.begin(), batch.ops.end());
  commit_ends_.push_back(journal_ops_.size());
}

Index Session::commits_locked() const {
  return static_cast<Index>(commit_ends_.size());
}

void Session::require_open_locked() const {
  if (closed_) {
    throw std::runtime_error("session '" + name_ + "' is closed");
  }
}

CommitOutcome Session::commit(const JournalBatch& batch) {
  SSP_REQUIRE(!batch.ops.empty(),
              "empty commits are no-ops and must not reach Session::commit");
  const WallTimer commit_timer;
  const obs::Span commit_span("serve.commit");
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
    require_open_locked();
    if (pending_ >= max_queued_batches_) {
      obs::counter_add("serve.backpressure.rejections", 1);
      CommitOutcome out;
      out.accepted = false;
      out.queued = pending_;
      return out;
    }
    ++pending_;
  }
  // Balance pending_ on every exit path (success, resolve failure, close).
  struct PendingGuard {
    Session* s;
    ~PendingGuard() {
      std::lock_guard<std::mutex> lk(s->admit_mu_);
      --s->pending_;
    }
  } guard{this};

  std::lock_guard<std::mutex> lk(apply_mu_);
  {
    std::lock_guard<std::mutex> al(admit_mu_);
    require_open_locked();  // closed while we waited for our turn
  }
  const UpdateBatch resolved = resolve_journal_batch(dyn_.graph(), batch);
  CommitOutcome out;
  out.accepted = true;
  out.stats = dyn_.apply(resolved);
  // Journal only what actually applied, in apply order: the offline
  // replay of these exact lines reproduces the sparsifier bit for bit.
  record_batch_locked(batch);
  if (persist_.enabled()) {
    persist_batch_locked(batch);
    if (commits_locked() % persist_.checkpoint_every == 0) {
      persist_checkpoint_locked();
    }
  }
  obs::counter_add("serve.commits", 1);
  const double latency_us = commit_timer.seconds() * 1e6;
  obs::histogram_observe("serve.commit.latency_us", latency_us);
  if (obs::metrics_enabled()) {
    // Per-session latency under a runtime label (names are <= 64 chars,
    // so the composed name fits the registry's fixed buffer).
    char label[96];
    std::snprintf(label, sizeof(label), "serve.session.%s.commit_us",
                  name_.c_str());
    obs::histogram_observe_named(label, latency_us);
  }
  return out;
}

void Session::persist_batch_locked(const JournalBatch& batch) {
  if (!journal_file_.is_open()) {
    journal_file_.open(persist_.journal_path, std::ios::app);
  }
  for (const JournalOp& op : batch.ops) {
    journal_file_ << format_journal_op(op) << '\n';
  }
  journal_file_ << "commit\n";
  if (!journal_file_.flush()) {
    throw std::runtime_error("serve: short write to journal '" +
                             persist_.journal_path + "'");
  }
}

void Session::persist_checkpoint_locked() {
  storage::SparsifierCheckpoint ckpt;
  ckpt.commits = static_cast<std::uint64_t>(commits_locked());
  ckpt.state = dyn_.restore_state();
  storage::save_checkpoint(persist_.checkpoint_path, ckpt);
}

std::vector<std::string> Session::journal_lines() const {
  std::lock_guard<std::mutex> lk(apply_mu_);
  {
    std::lock_guard<std::mutex> al(admit_mu_);
    require_open_locked();
  }
  std::vector<std::string> lines;
  lines.reserve(journal_ops_.size() + commit_ends_.size());
  std::size_t i = 0;
  for (const std::size_t end : commit_ends_) {
    for (; i < end; ++i) lines.push_back(format_journal_op(journal_ops_[i]));
    lines.emplace_back("commit");
  }
  return lines;
}

std::vector<Edge> Session::sparsifier_edges() const {
  std::lock_guard<std::mutex> lk(apply_mu_);
  {
    std::lock_guard<std::mutex> al(admit_mu_);
    require_open_locked();
  }
  std::vector<Edge> out;
  out.reserve(dyn_.result().edges.size());
  for (const EdgeId e : dyn_.result().edges) {
    out.push_back(dyn_.graph().edge(e));
  }
  return out;
}

SessionInfo Session::info() const {
  std::lock_guard<std::mutex> lk(apply_mu_);
  {
    std::lock_guard<std::mutex> al(admit_mu_);
    require_open_locked();
  }
  SessionInfo info;
  const SparsifyResult& res = dyn_.result();
  info.vertices = dyn_.graph().num_vertices();
  info.graph_edges = dyn_.graph().num_edges();
  info.sparsifier_edges = res.num_edges();
  info.sigma2_estimate = res.sigma2_estimate;
  info.lambda_min = res.lambda_min;
  info.lambda_max = res.lambda_max;
  info.reached_target = res.reached_target;
  info.batches = dyn_.batches_applied();
  info.commits = commits_locked();
  info.total_seconds = dyn_.total_seconds();
  const UpdateStats& last = dyn_.history().back();
  info.last_seconds = last.seconds;
  info.last_route = last.route;
  return info;
}

Index Session::queued() const {
  std::lock_guard<std::mutex> lk(admit_mu_);
  return pending_;
}

UpdateStats Session::last_update() const {
  std::lock_guard<std::mutex> lk(apply_mu_);
  {
    std::lock_guard<std::mutex> al(admit_mu_);
    require_open_locked();
  }
  return dyn_.history().back();
}

void Session::snapshot_mtx(const std::string& path) const {
  std::lock_guard<std::mutex> lk(apply_mu_);
  {
    std::lock_guard<std::mutex> al(admit_mu_);
    require_open_locked();
  }
  save_graph_mtx(path, dyn_.result().extract(dyn_.graph()));
}

void Session::close() {
  {
    std::lock_guard<std::mutex> lk(admit_mu_);
    if (closed_) return;  // idempotent; checkpoint once
    closed_ = true;
  }
  // Wait for the in-flight apply (if any); queued commits fail their
  // re-check instead of applying.
  std::lock_guard<std::mutex> lk(apply_mu_);
  // Final checkpoint so the next start replays no journal tail at all.
  if (persist_.enabled()) persist_checkpoint_locked();
}

bool Session::closed() const {
  std::lock_guard<std::mutex> lk(admit_mu_);
  return closed_;
}

void Session::set_observer(DynamicObserver* observer) {
  std::lock_guard<std::mutex> lk(apply_mu_);
  dyn_.set_observer(observer);
}

// ---- Graph sources ---------------------------------------------------------

namespace {

bool valid_session_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isalnum(c) != 0 || c == '_' || c == '-' || c == '.';
  });
}

}  // namespace

Graph load_session_graph(const std::string& source) {
  // Thin wrapper kept for the serve API: all classification (gen: specs,
  // .sspb binaries, Matrix Market) lives in graph/graph_source.hpp now.
  return load_graph_source(source);
}

// ---- SessionManager --------------------------------------------------------

SessionManager::SessionManager(ServeOptions opts) : opts_(std::move(opts)) {
  opts_.validate();
}

SessionPersist SessionManager::persist_for(const std::string& name) const {
  SessionPersist persist;
  if (!opts_.state_dir.empty()) {
    persist.journal_path = session_journal_path(opts_.state_dir, name);
    persist.checkpoint_path = session_checkpoint_path(opts_.state_dir, name);
    persist.checkpoint_every = opts_.checkpoint_every;
  }
  return persist;
}

std::shared_ptr<Session> SessionManager::open(const std::string& name,
                                              const std::string& source) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!valid_session_name(name)) {
      throw std::invalid_argument(
          "invalid session name '" + name +
          "' (1-64 chars of [A-Za-z0-9_.-])");
    }
    if (static_cast<Index>(sessions_.size()) >= opts_.max_sessions) {
      obs::counter_add("serve.admission.rejections", 1);
      throw std::runtime_error(
          "session table full (max " + std::to_string(opts_.max_sessions) +
          ")");
    }
    if (sessions_.count(name) != 0) {
      throw std::runtime_error("session '" + name + "' already exists");
    }
    sessions_[name] = nullptr;  // reserve while we build outside the lock
  }
  try {
    const Graph g = load_session_graph(source);
    SessionPersist persist = persist_for(name);
    if (persist.enabled()) {
      std::filesystem::create_directories(opts_.state_dir);
      create_session_journal(persist.journal_path, source);
    }
    auto session = std::make_shared<Session>(name, g, opts_.dynamic,
                                             opts_.max_queued_batches,
                                             std::move(persist));
    obs::counter_add("serve.sessions.opened", 1);
    std::lock_guard<std::mutex> lk(mu_);
    sessions_[name] = session;
    return session;
  } catch (...) {
    if (!opts_.state_dir.empty()) {
      // Don't leave a header-only journal that would "restore" an empty
      // session on the next start.
      std::error_code ec;
      std::filesystem::remove(session_journal_path(opts_.state_dir, name),
                              ec);
      std::filesystem::remove(
          session_checkpoint_path(opts_.state_dir, name), ec);
    }
    std::lock_guard<std::mutex> lk(mu_);
    sessions_.erase(name);
    throw;
  }
}

std::vector<std::string> SessionManager::restore_all() {
  std::vector<std::string> restored;
  if (opts_.state_dir.empty()) return restored;
  for (const std::string& name : list_stored_sessions(opts_.state_dir)) {
    if (!valid_session_name(name)) continue;  // stray file, not ours
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (sessions_.count(name) != 0) continue;  // already live
      if (static_cast<Index>(sessions_.size()) >= opts_.max_sessions) break;
      sessions_[name] = nullptr;
    }
    try {
      const SessionPersist persist = persist_for(name);
      const StoredSession stored =
          read_stored_session(persist.journal_path);
      // Cut the torn tail off the file before the session appends to it:
      // stale uncommitted ops left in place would merge into the next
      // committed batch and poison the *following* restart's replay.
      truncate_stored_session(persist.journal_path, stored);
      const Graph g = load_session_graph(stored.source);
      std::optional<storage::SparsifierCheckpoint> ckpt;
      if (std::filesystem::exists(persist.checkpoint_path)) {
        ckpt = storage::load_checkpoint(persist.checkpoint_path);
      }
      auto session = std::make_shared<Session>(
          name, g, opts_.dynamic, opts_.max_queued_batches,
          ckpt.has_value() ? &*ckpt : nullptr, stored.batches, persist);
      std::lock_guard<std::mutex> lk(mu_);
      sessions_[name] = session;
      restored.push_back(name);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      sessions_.erase(name);
      throw;
    }
  }
  return restored;
}

std::shared_ptr<Session> SessionManager::attach(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    throw std::runtime_error("no session named '" + name + "'");
  }
  if (it->second == nullptr) {
    throw std::runtime_error("session '" + name + "' is still opening");
  }
  return it->second;
}

void SessionManager::close(const std::string& name) {
  std::shared_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = sessions_.find(name);
    if (it == sessions_.end()) {
      throw std::runtime_error("no session named '" + name + "'");
    }
    if (it->second == nullptr) {
      throw std::runtime_error("session '" + name + "' is still opening");
    }
    session = it->second;
    sessions_.erase(it);
  }
  obs::counter_add("serve.sessions.closed", 1);
  session->close();  // blocks on the in-flight commit, outside the table lock
  if (!opts_.state_dir.empty()) {
    // Explicit teardown: a client-closed session must not resurrect.
    std::error_code ec;
    std::filesystem::remove(session_journal_path(opts_.state_dir, name), ec);
    std::filesystem::remove(session_checkpoint_path(opts_.state_dir, name),
                            ec);
  }
}

std::vector<std::string> SessionManager::names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) {
    if (session != nullptr) out.push_back(name);
  }
  return out;
}

Index SessionManager::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<Index>(sessions_.size());
}

void SessionManager::close_all() {
  std::map<std::string, std::shared_ptr<Session>> taken;
  {
    std::lock_guard<std::mutex> lk(mu_);
    taken.swap(sessions_);
  }
  for (auto& [name, session] : taken) {
    if (session != nullptr) session->close();
  }
}

}  // namespace ssp::serve
