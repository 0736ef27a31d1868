#include "slfe/service/line_protocol.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace slfe::service {

namespace {

/// Appends printf-formatted text to `out` (the formatters build strings,
/// not FILE* writes, so every transport can carry them).
void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  char buf[512];
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) {
    if (static_cast<size_t>(n) < sizeof(buf)) {
      out->append(buf, static_cast<size_t>(n));
    } else {
      // Long tenant/status strings overflow the stack buffer; reformat
      // into exactly-sized storage rather than truncating a protocol line.
      std::string big(static_cast<size_t>(n), '\0');
      std::vsnprintf(big.data(), big.size() + 1, fmt, copy);
      out->append(big);
    }
  }
  va_end(copy);
}

bool IsDigits(const std::string& t) {
  if (t.empty()) return false;
  for (char c : t) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

/// Strict float parse for mutation weights: the whole token must be
/// consumed (so `1.5x` rejects) but fractional values are of course legal
/// here — weights are the one place '.' belongs in the mutate grammar.
bool ParseWeight(const std::string& t, float* out) {
  if (t.empty()) return false;
  errno = 0;
  char* end = nullptr;
  float v = std::strtof(t.c_str(), &end);
  if (end != t.c_str() + t.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

std::string RejectLine(std::string message) {
  std::string line = "reject: " + std::move(message);
  line.push_back('\n');
  return line;
}

ParsedCommand Error(std::string message) {
  ParsedCommand cmd;
  cmd.kind = ParsedCommand::Kind::kError;
  cmd.error = RejectLine(std::move(message));
  return cmd;
}

ParsedCommand ParseSubmit(const std::vector<std::string>& tokens) {
  ParsedCommand cmd;
  cmd.kind = ParsedCommand::Kind::kSubmit;
  cmd.submit.tenant = tokens[1];
  cmd.submit.app = tokens[2];
  cmd.submit.graph = tokens[3];
  for (size_t i = 4; i < tokens.size(); ++i) {
    const std::string& t = tokens[i];
    if (api::ParseEngine(t).ok()) {
      // Any engine the registry knows (dist|shm|gas|ooc); whether the app
      // runs on it is the registry's call, enforced by Submit.
      cmd.submit.engine = t;
    } else if (t == "norr") {
      cmd.submit.enable_rr = false;
    } else if (IsDigits(t)) {
      Result<VertexId> root = ParseVertexId(t);
      if (!root.ok()) {
        return Error("submit root '" + t + "' out of range");
      }
      cmd.submit.root = root.value();
    } else {
      return Error("bad submit token '" + t + "'");
    }
  }
  return cmd;
}

ParsedCommand ParseMutate(const std::vector<std::string>& tokens) {
  ParsedCommand cmd;
  cmd.kind = ParsedCommand::Kind::kMutate;
  cmd.mutate.tenant = tokens[1];
  cmd.mutate.graph = tokens[2];
  size_t i = 3;
  while (i < tokens.size()) {
    if (tokens[i] == "ins" && i + 3 < tokens.size()) {
      Result<VertexId> src = ParseVertexId(tokens[i + 1]);
      Result<VertexId> dst = ParseVertexId(tokens[i + 2]);
      if (!src.ok()) return Error("bad mutate vertex id '" + tokens[i + 1] + "'");
      if (!dst.ok()) return Error("bad mutate vertex id '" + tokens[i + 2] + "'");
      Edge e;
      e.src = src.value();
      e.dst = dst.value();
      if (!ParseWeight(tokens[i + 3], &e.weight)) {
        return Error("bad mutate weight '" + tokens[i + 3] + "'");
      }
      cmd.mutate.delta.insert.push_back(e);
      i += 4;
    } else if (tokens[i] == "del" && i + 2 < tokens.size()) {
      Result<VertexId> src = ParseVertexId(tokens[i + 1]);
      Result<VertexId> dst = ParseVertexId(tokens[i + 2]);
      if (!src.ok()) return Error("bad mutate vertex id '" + tokens[i + 1] + "'");
      if (!dst.ok()) return Error("bad mutate vertex id '" + tokens[i + 2] + "'");
      cmd.mutate.delta.erase.emplace_back(src.value(), dst.value());
      i += 3;
    } else {
      return Error("bad mutate token '" + tokens[i] + "'");
    }
  }
  return cmd;
}

}  // namespace

std::vector<std::string> TokenizeLine(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

Result<VertexId> ParseVertexId(const std::string& token) {
  if (!IsDigits(token)) {
    return Status::InvalidArgument("vertex id is not a plain decimal: " +
                                   token);
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (errno == ERANGE || v > std::numeric_limits<VertexId>::max()) {
    return Status::InvalidArgument("vertex id out of range: " + token);
  }
  return static_cast<VertexId>(v);
}

ParsedCommand ParseCommandLine(const std::string& line) {
  std::vector<std::string> tokens = TokenizeLine(line);
  ParsedCommand cmd;
  if (tokens.empty() || tokens[0][0] == '#') return cmd;  // kEmpty
  const std::string& command = tokens[0];

  if (command == "quit" && tokens.size() == 1) {
    cmd.kind = ParsedCommand::Kind::kQuit;
    return cmd;
  }
  if (command == "wait" && tokens.size() == 1) {
    cmd.kind = ParsedCommand::Kind::kWait;
    return cmd;
  }
  if (command == "stats" && tokens.size() == 1) {
    cmd.kind = ParsedCommand::Kind::kStats;
    return cmd;
  }
  if (command == "sweep" && tokens.size() == 1) {
    cmd.kind = ParsedCommand::Kind::kSweep;
    return cmd;
  }
  if (command == "shutdown" && tokens.size() == 1) {
    cmd.kind = ParsedCommand::Kind::kShutdown;
    return cmd;
  }
  if (command == "metrics" &&
      (tokens.size() == 1 || (tokens.size() == 2 && tokens[1] == "json"))) {
    cmd.kind = ParsedCommand::Kind::kMetrics;
    cmd.metrics_json = tokens.size() == 2;
    return cmd;
  }
  if (command == "trace" && (tokens.size() == 1 || tokens.size() == 2)) {
    if (tokens.size() == 2) {
      // Same strictness as `hot`: strtoull would read `+5` as job 5 and
      // wrap `-1` to 2^64-1, so only plain digits name a job.
      const std::string& arg = tokens[1];
      if (IsDigits(arg)) {
        errno = 0;
        (void)std::strtoull(arg.c_str(), nullptr, 10);
        if (errno == ERANGE) {
          return Error("trace job id '" + arg + "' out of range");
        }
      } else if (arg != "recent" && arg != "slow") {
        return Error("bad trace selector '" + arg + "'");
      }
      cmd.trace_arg = arg;
    }
    cmd.kind = ParsedCommand::Kind::kTrace;
    return cmd;
  }
  if (command == "hot" && (tokens.size() == 1 || tokens.size() == 2)) {
    if (tokens.size() == 2) {
      if (!IsDigits(tokens[1])) {
        return Error("bad hot count '" + tokens[1] + "'");
      }
      errno = 0;
      unsigned long long k = std::strtoull(tokens[1].c_str(), nullptr, 10);
      if (errno == ERANGE || k == 0 || k > 1024) {
        return Error("hot count '" + tokens[1] + "' out of range");
      }
      cmd.hot_k = static_cast<size_t>(k);
    }
    cmd.kind = ParsedCommand::Kind::kHot;
    return cmd;
  }
  if (command == "auth" && (tokens.size() == 2 || tokens.size() == 3)) {
    cmd.kind = ParsedCommand::Kind::kAuth;
    cmd.auth_tenant = tokens[1];
    if (tokens.size() == 3) cmd.auth_token = tokens[2];
    return cmd;
  }
  if (command == "submit" && tokens.size() >= 4) return ParseSubmit(tokens);
  if (command == "mutate" && tokens.size() >= 3) return ParseMutate(tokens);

  // Echo the offending line, minus its own terminator: input arriving
  // without a trailing newline (EOF mid-line, a TCP segment boundary) must
  // still produce a terminated reject.
  std::string shown = line;
  while (!shown.empty() && (shown.back() == '\n' || shown.back() == '\r')) {
    shown.pop_back();
  }
  return Error("unrecognized line: " + shown);
}

std::string FormatResult(const JobResult& r) {
  const char* served = "none";
  if (r.guidance_acquired) {
    served = r.guidance_cache_hit   ? "cache"
             : r.guidance_coalesced ? "coalesced"
             : r.guidance_repaired  ? "repaired"
                                    : "generate";
  }
  std::string out;
  Appendf(&out,
          "job %llu tenant=%s app=%s engine=%s graph=%s status=%s "
          "supersteps=%llu skipped=%llu runtime=%.4fs guidance=%.4fs "
          "served=%s summary=%llu\n",
          static_cast<unsigned long long>(r.job_id), r.tenant.c_str(),
          r.app.c_str(), r.engine.c_str(), r.graph.c_str(),
          r.status.ok() ? "ok" : r.status.ToString().c_str(),
          static_cast<unsigned long long>(r.supersteps),
          static_cast<unsigned long long>(r.skipped), r.runtime_seconds,
          r.guidance_seconds, served,
          static_cast<unsigned long long>(r.summary));
  return out;
}

std::string FormatResult(const JobResult& r, uint64_t req) {
  std::string out = FormatResult(r);
  out.pop_back();  // the '\n'; FormatResult always terminates
  Appendf(&out, " req=%llu\n", static_cast<unsigned long long>(req));
  return out;
}

std::string FormatStats(const JobServiceStats& stats) {
  std::string out;
  Appendf(&out, "daemon: uptime=%.1fs pid=%d version=%s\n",
          stats.uptime_seconds, stats.pid,
          stats.version.empty() ? "unknown" : stats.version.c_str());
  Appendf(&out,
          "service: submitted=%llu completed=%llu failed=%llu "
          "rejected=%llu mutations=%llu sweeps=%llu gc_removed=%llu "
          "pinned_spared=%llu graphs_parsed=%llu graphs_mapped=%llu\n",
          static_cast<unsigned long long>(stats.submitted),
          static_cast<unsigned long long>(stats.completed),
          static_cast<unsigned long long>(stats.failed),
          static_cast<unsigned long long>(stats.rejected),
          static_cast<unsigned long long>(stats.mutations),
          static_cast<unsigned long long>(stats.maintenance_sweeps),
          static_cast<unsigned long long>(stats.sweep_removed),
          static_cast<unsigned long long>(stats.sweep_pinned_spared),
          static_cast<unsigned long long>(stats.graphs_parsed),
          static_cast<unsigned long long>(stats.graphs_mapped));
  Appendf(&out,
          "net: accepted=%llu closed=%llu dropped=%llu auth_failures=%llu "
          "streamed=%llu\n",
          static_cast<unsigned long long>(stats.net.accepted),
          static_cast<unsigned long long>(stats.net.closed),
          static_cast<unsigned long long>(stats.net.dropped),
          static_cast<unsigned long long>(stats.net.auth_failures),
          static_cast<unsigned long long>(stats.net.results_streamed));
  Appendf(&out,
          "guidance: generations=%llu coalesced=%llu repairs=%llu "
          "repair_fallbacks=%llu cache_hits=%llu store_hits=%llu "
          "admission_skips=%llu admission_promotions=%llu\n",
          static_cast<unsigned long long>(stats.provider.generations),
          static_cast<unsigned long long>(stats.provider.coalesced),
          static_cast<unsigned long long>(stats.provider.repairs),
          static_cast<unsigned long long>(stats.provider.repair_fallbacks),
          static_cast<unsigned long long>(stats.cache.hits),
          static_cast<unsigned long long>(stats.cache.store_hits),
          static_cast<unsigned long long>(stats.cache.admission_skips),
          static_cast<unsigned long long>(stats.cache.admission_promotions));
  auto tenant_row = [&out](const std::string& label, const TenantStats& t) {
    Appendf(&out,
            "tenant %s: jobs=%llu/%llu failed=%llu rejected=%llu "
            "mutations=%llu guidance hits=%llu misses=%llu "
            "repaired=%llu bytes=%llu acquire=%.4fs\n",
            label.c_str(),
            static_cast<unsigned long long>(t.jobs_completed),
            static_cast<unsigned long long>(t.jobs_submitted),
            static_cast<unsigned long long>(t.jobs_failed),
            static_cast<unsigned long long>(t.jobs_rejected),
            static_cast<unsigned long long>(t.mutations),
            static_cast<unsigned long long>(t.guidance_hits),
            static_cast<unsigned long long>(t.guidance_misses),
            static_cast<unsigned long long>(t.guidance_repaired),
            static_cast<unsigned long long>(t.guidance_bytes),
            t.guidance_seconds);
  };
  for (const auto& [tenant, t] : stats.tenants) tenant_row(tenant, t);
  // Aggregate row for tenants past the exact-tracking cap: it keeps the
  // tenant table summing to the service totals.
  if (stats.untracked.jobs_submitted > 0 || stats.untracked.jobs_rejected > 0) {
    tenant_row("(untracked)", stats.untracked);
  }
  return out;
}

std::string FormatSweep(const GuidanceStoreSweepStats& sweep) {
  std::string out;
  Appendf(&out,
          "sweep: scanned=%llu ttl=%llu tenant=%llu budget=%llu "
          "pinned_spared=%llu remaining=%llu\n",
          static_cast<unsigned long long>(sweep.scanned),
          static_cast<unsigned long long>(sweep.ttl_removed),
          static_cast<unsigned long long>(sweep.tenant_removed),
          static_cast<unsigned long long>(sweep.budget_removed),
          static_cast<unsigned long long>(sweep.pinned_spared),
          static_cast<unsigned long long>(sweep.remaining_entries));
  return out;
}

}  // namespace slfe::service
