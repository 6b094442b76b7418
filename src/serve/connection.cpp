#include "serve/connection.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/options_io.hpp"
#include "dynamic/journal_wire.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"

namespace ssp::serve {

namespace {

// Raw shortest-round-trip text. Deliberately NOT format_journal_weight:
// that formatter enforces the journal's positive-weight domain, while the
// introspection fields here (seconds, fractions, λ bounds) may be zero.
std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

Reply Connection::handle_line(const std::string& line) {
  ++line_no_;
  try {
    return dispatch(line, tokenize_journal_line(line));
  } catch (const JournalParseError& e) {
    return Reply{error_line("parse", e.what()), {}, false};
  } catch (const std::invalid_argument& e) {
    return Reply{error_line("invalid", e.what()), {}, false};
  } catch (const std::exception& e) {
    return Reply{error_line("error", e.what()), {}, false};
  }
}

Reply Connection::dispatch(const std::string& line,
                           const std::vector<std::string>& tokens) {
  if (tokens.empty()) return Reply{"ok blank", {}, false};  // keep lockstep
  const std::string& verb = tokens[0];
  if (verb == "open") return handle_open(tokens);
  if (verb == "attach") return handle_attach(tokens);
  if (verb == "close") return handle_close(tokens);
  if (verb == "sessions") return handle_sessions();
  if (verb == "insert" || verb == "delete" || verb == "reweight" ||
      verb == "commit") {
    return handle_journal_line(line);
  }
  if (verb == "query") return handle_query(tokens);
  if (verb == "snapshot") return handle_snapshot(tokens);
  if (verb == "stats") return handle_stats(tokens);
  if (verb == "metrics") return handle_metrics(tokens);
  if (verb == "ping") return Reply{"ok pong", {}, false};
  if (verb == "quit") return Reply{"ok bye", {}, true};
  std::ostringstream os;
  os << "unknown request '" << verb << "' (line " << line_no_ << ": \"" << line
     << "\")";
  return Reply{error_line("protocol", os.str()), {}, false};
}

namespace {

std::string session_status(const Session& session) {
  const SessionInfo info = session.info();
  std::ostringstream os;
  os << "ok session=" << session.name() << " vertices=" << info.vertices
     << " graph_edges=" << info.graph_edges
     << " sparsifier_edges=" << info.sparsifier_edges
     << " sigma2=" << format_double(info.sigma2_estimate)
     << " reached=" << (info.reached_target ? 1 : 0);
  return os.str();
}

}  // namespace

Reply Connection::handle_open(const std::vector<std::string>& tokens) {
  if (tokens.size() != 3) {
    return Reply{error_line("protocol", "usage: open <name> <mtx-path|gen-spec>"),
                 {},
                 false};
  }
  auto session = sessions_.open(tokens[1], tokens[2]);
  session_ = std::move(session);
  pending_ = JournalBatch{};
  return Reply{session_status(*session_), {}, false};
}

Reply Connection::handle_attach(const std::vector<std::string>& tokens) {
  if (tokens.size() != 2) {
    return Reply{error_line("protocol", "usage: attach <name>"), {}, false};
  }
  session_ = sessions_.attach(tokens[1]);
  pending_ = JournalBatch{};
  return Reply{session_status(*session_), {}, false};
}

Reply Connection::handle_close(const std::vector<std::string>& tokens) {
  if (tokens.size() > 2) {
    return Reply{error_line("protocol", "usage: close [<name>]"), {}, false};
  }
  std::string name;
  if (tokens.size() == 2) {
    name = tokens[1];
  } else {
    if (session_ == nullptr) {
      return Reply{error_line("protocol", "close: no session attached"),
                   {},
                   false};
    }
    name = session_->name();
  }
  sessions_.close(name);
  if (session_ != nullptr && session_->name() == name) {
    session_.reset();
    pending_ = JournalBatch{};
  }
  return Reply{"ok closed=" + name, {}, false};
}

Reply Connection::handle_sessions() {
  Reply reply;
  reply.payload = sessions_.names();
  std::ostringstream os;
  os << "ok n=" << reply.payload.size();
  reply.status = os.str();
  return reply;
}

std::shared_ptr<Session> Connection::require_session() const {
  if (session_ == nullptr) {
    throw std::runtime_error(
        "no session attached (use 'open <name> <source>' or 'attach <name>')");
  }
  return session_;
}

Reply Connection::handle_journal_line(const std::string& line) {
  const auto session = require_session();
  const JournalLine parsed = parse_journal_line(line, line_no_);
  if (parsed.kind == JournalLine::Kind::kOp) {
    pending_.ops.push_back(parsed.op);
    std::ostringstream os;
    os << "ok queued=" << pending_.ops.size();
    return Reply{os.str(), {}, false};
  }
  // commit — empty commits are no-ops, exactly like the journal grammar.
  if (pending_.ops.empty()) return Reply{"ok batch=empty", {}, false};
  CommitOutcome outcome;
  try {
    outcome = session->commit(pending_);
  } catch (...) {
    // Resolve/validation failure: the session is untouched, but the
    // buffered ops are poisoned — drop them so the client can rebuild.
    pending_ = JournalBatch{};
    throw;
  }
  if (!outcome.accepted) {
    // Backpressure keeps the buffer: the client may simply retry commit.
    std::ostringstream os;
    os << "session '" << session->name() << "' has " << outcome.queued
       << " queued batches (max "
       << sessions_.options().max_queued_batches << "); retry commit";
    return Reply{error_line("backpressure", os.str()), {}, false};
  }
  pending_ = JournalBatch{};
  const UpdateStats& s = outcome.stats;
  std::ostringstream os;
  os << "ok batch=" << s.batch << " graph_edges=" << s.graph_edges
     << " sparsifier_edges=" << s.sparsifier_edges
     << " sigma2=" << format_double(s.sigma2_estimate)
     << " reached=" << (s.reached_target ? 1 : 0)
     << " seconds=" << format_double(s.seconds);
  return Reply{os.str(), {}, false};
}

Reply Connection::handle_query(const std::vector<std::string>& tokens) {
  if (tokens.size() != 2) {
    return Reply{
        error_line("protocol", "usage: query edges|stats|quality|journal"),
        {},
        false};
  }
  const auto session = require_session();
  const std::string& what = tokens[1];
  Reply reply;
  if (what == "edges") {
    for (const Edge& e : session->sparsifier_edges()) {
      std::ostringstream os;
      os << e.u << ' ' << e.v << ' ' << format_double(e.weight);
      reply.payload.push_back(os.str());
    }
    std::ostringstream os;
    os << "ok n=" << reply.payload.size();
    reply.status = os.str();
    return reply;
  }
  if (what == "journal") {
    reply.payload = session->journal_lines();
    const SessionInfo info = session->info();
    std::ostringstream os;
    os << "ok n=" << reply.payload.size() << " commits=" << info.commits;
    reply.status = os.str();
    return reply;
  }
  if (what == "stats") {
    const SessionInfo info = session->info();
    std::ostringstream os;
    os << "ok batches=" << info.batches << " commits=" << info.commits
       << " graph_edges=" << info.graph_edges
       << " sparsifier_edges=" << info.sparsifier_edges
       << " seconds=" << format_double(info.last_seconds)
       << " total_seconds=" << format_double(info.total_seconds);
    reply.status = os.str();
    return reply;
  }
  if (what == "quality") {
    const SessionInfo info = session->info();
    std::ostringstream os;
    os << "ok sigma2=" << format_double(info.sigma2_estimate)
       << " lambda_min=" << format_double(info.lambda_min)
       << " lambda_max=" << format_double(info.lambda_max)
       << " reached=" << (info.reached_target ? 1 : 0);
    reply.status = os.str();
    return reply;
  }
  return Reply{error_line("protocol", "unknown query '" + what +
                                          "' (edges|stats|quality|journal)"),
               {},
               false};
}

namespace {

/// One-line summary of a session for the daemon-wide `stats` listing.
std::string stats_summary_line(const Session& session) {
  const SessionInfo info = session.info();
  std::ostringstream os;
  os << "session=" << session.name() << " vertices=" << info.vertices
     << " graph_edges=" << info.graph_edges
     << " sparsifier_edges=" << info.sparsifier_edges
     << " sigma2=" << format_double(info.sigma2_estimate)
     << " reached=" << (info.reached_target ? 1 : 0)
     << " batches=" << info.batches << " commits=" << info.commits
     << " queued=" << session.queued()
     << " total_seconds=" << format_double(info.total_seconds);
  return os.str();
}

}  // namespace

Reply Connection::handle_stats(const std::vector<std::string>& tokens) {
  if (tokens.size() > 2) {
    return Reply{error_line("protocol", "usage: stats [<session>]"), {}, false};
  }
  Reply reply;
  if (tokens.size() == 2) {
    // Detailed key=value view of one session, including the dynamic
    // layer's per-stage breakdown of the latest batch.
    const auto session = sessions_.attach(tokens[1]);
    const SessionInfo info = session->info();
    const UpdateStats last = session->last_update();
    auto line = [&reply](const std::string& key, const std::string& value) {
      reply.payload.push_back(key + "=" + value);
    };
    line("name", session->name());
    line("vertices", std::to_string(info.vertices));
    line("graph_edges", std::to_string(info.graph_edges));
    line("sparsifier_edges", std::to_string(info.sparsifier_edges));
    line("sigma2", format_double(info.sigma2_estimate));
    line("lambda_min", format_double(info.lambda_min));
    line("lambda_max", format_double(info.lambda_max));
    line("reached", info.reached_target ? "1" : "0");
    line("batches", std::to_string(info.batches));
    line("commits", std::to_string(info.commits));
    line("queued", std::to_string(session->queued()));
    line("max_queued", std::to_string(sessions_.options().max_queued_batches));
    line("total_seconds", format_double(info.total_seconds));
    line("last.batch", std::to_string(last.batch));
    line("last.seconds", format_double(last.seconds));
    for (int s = 0; s < kNumDynamicStages; ++s) {
      line(std::string("last.stage.") +
               to_string(static_cast<DynamicStage>(s)) + ".seconds",
           format_double(last.stage_seconds[static_cast<std::size_t>(s)]));
    }
    std::ostringstream os;
    os << "ok n=" << reply.payload.size() << " session=" << session->name();
    reply.status = os.str();
    return reply;
  }
  // Daemon-wide: one summary line per open session. A session closing
  // between the listing and its info read simply drops out.
  for (const std::string& name : sessions_.names()) {
    try {
      reply.payload.push_back(stats_summary_line(*sessions_.attach(name)));
    } catch (const std::exception&) {
      // closed concurrently — skip
    }
  }
  std::ostringstream os;
  os << "ok n=" << reply.payload.size();
  reply.status = os.str();
  return reply;
}

Reply Connection::handle_metrics(const std::vector<std::string>& tokens) {
  if (tokens.size() != 1) {
    return Reply{error_line("protocol", "usage: metrics"), {}, false};
  }
  Reply reply;
  obs::for_each_metric([&reply](const obs::MetricEntry& e) {
    std::ostringstream os;
    switch (e.kind) {
      case obs::MetricKind::kCounter:
        os << e.name << ' ' << e.counter;
        reply.payload.push_back(os.str());
        break;
      case obs::MetricKind::kGauge:
        os << e.name << ' ' << e.gauge;
        reply.payload.push_back(os.str());
        break;
      case obs::MetricKind::kHistogram: {
        const std::string base(e.name);
        reply.payload.push_back(base + ".count " +
                                std::to_string(e.hist.count));
        reply.payload.push_back(base + ".sum " + format_double(e.hist.sum));
        reply.payload.push_back(base + ".p50 " +
                                format_double(e.hist.percentile(0.50)));
        reply.payload.push_back(base + ".p95 " +
                                format_double(e.hist.percentile(0.95)));
        reply.payload.push_back(base + ".p99 " +
                                format_double(e.hist.percentile(0.99)));
        break;
      }
    }
  });
  // Registry slot order depends on hash probing; sort for a stable wire
  // format clients can diff.
  std::sort(reply.payload.begin(), reply.payload.end());
  std::ostringstream os;
  os << "ok n=" << reply.payload.size()
     << " enabled=" << (obs::metrics_enabled() ? 1 : 0);
  reply.status = os.str();
  return reply;
}

Reply Connection::handle_snapshot(const std::vector<std::string>& tokens) {
  if (tokens.size() != 2) {
    return Reply{error_line("protocol", "usage: snapshot <path>"), {}, false};
  }
  const auto session = require_session();
  session->snapshot_mtx(tokens[1]);
  const SessionInfo info = session->info();
  std::ostringstream os;
  os << "ok wrote=" << tokens[1] << " edges=" << info.sparsifier_edges;
  return Reply{os.str(), {}, false};
}

}  // namespace ssp::serve
